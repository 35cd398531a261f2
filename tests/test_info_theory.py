"""Unit tests for the plug-in estimators — pure numpy, no Spark."""
import math

import numpy as np
import pandas as pd
import pytest

from repro.core import info_theory
from repro.core.info_theory import (
    chi2_sf,
    cmi_corrected_from_counts,
    cmi_from_counts,
    cond_entropy_from_counts,
    entropy_from_counts,
    g_test,
    is_conditionally_independent,
    mi_from_counts,
)


def counts(rows, cols):
    return pd.DataFrame(rows, columns=cols + ["cnt"])


class TestEntropy:
    def test_uniform_binary(self):
        pdf = counts([["a", 1.0], ["b", 1.0]], ["x"])
        assert entropy_from_counts(pdf, ["x"]) == pytest.approx(1.0)

    def test_uniform_four(self):
        pdf = counts([[v, 1.0] for v in "abcd"], ["x"])
        assert entropy_from_counts(pdf, ["x"]) == pytest.approx(2.0)

    def test_deterministic(self):
        pdf = counts([["a", 5.0]], ["x"])
        assert entropy_from_counts(pdf, ["x"]) == pytest.approx(0.0)

    def test_skewed(self):
        pdf = counts([["a", 3.0], ["b", 1.0]], ["x"])
        expect = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        assert entropy_from_counts(pdf, ["x"]) == pytest.approx(expect)

    def test_joint_marginalizes(self):
        pdf = counts(
            [["a", "u", 1.0], ["a", "v", 1.0], ["b", "u", 1.0], ["b", "v", 1.0]],
            ["x", "y"],
        )
        assert entropy_from_counts(pdf, ["x"]) == pytest.approx(1.0)
        assert entropy_from_counts(pdf, ["x", "y"]) == pytest.approx(2.0)

    def test_weighted_counts(self):
        pdf = counts([["a", 0.5], ["b", 0.5]], ["x"])
        assert entropy_from_counts(pdf, ["x"]) == pytest.approx(1.0)

    def test_empty(self):
        assert entropy_from_counts(pd.DataFrame(columns=["x", "cnt"]), ["x"]) == 0.0


class TestCondEntropy:
    def test_functional_dependency(self):
        # y = f(x) => H(y|x) = 0
        pdf = counts([["a", "u", 2.0], ["b", "v", 2.0]], ["x", "y"])
        assert cond_entropy_from_counts(pdf, ["y"], ["x"]) == pytest.approx(0.0)

    def test_independent(self):
        pdf = counts(
            [["a", "u", 1.0], ["a", "v", 1.0], ["b", "u", 1.0], ["b", "v", 1.0]],
            ["x", "y"],
        )
        assert cond_entropy_from_counts(pdf, ["y"], ["x"]) == pytest.approx(1.0)


class TestMI:
    def test_independent_is_zero(self):
        pdf = counts(
            [["a", "u", 1.0], ["a", "v", 1.0], ["b", "u", 1.0], ["b", "v", 1.0]],
            ["x", "y"],
        )
        assert mi_from_counts(pdf, "x", "y") == pytest.approx(0.0)

    def test_identical_is_entropy(self):
        pdf = counts([["a", "a", 1.0], ["b", "b", 1.0]], ["x", "y"])
        assert mi_from_counts(pdf, "x", "y") == pytest.approx(1.0)

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        rows = [
            [str(rng.integers(0, 3)), str(rng.integers(0, 4)), float(c)]
            for c in rng.integers(1, 10, 50)
        ]
        pdf = counts(rows, ["x", "y"]).groupby(["x", "y"], as_index=False).sum()
        assert mi_from_counts(pdf, "x", "y") == pytest.approx(
            mi_from_counts(pdf, "y", "x")
        )

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        rows = [
            [str(rng.integers(0, 5)), str(rng.integers(0, 5)), 1.0]
            for _ in range(200)
        ]
        pdf = counts(rows, ["x", "y"]).groupby(["x", "y"], as_index=False).sum()
        assert mi_from_counts(pdf, "x", "y") >= 0.0


class TestCMI:
    def test_explains_away(self):
        # x and y are both copies of z: I(x;y) = 1 but I(x;y|z) = 0.
        pdf = counts([["a", "a", "a", 1.0], ["b", "b", "b", 1.0]], ["x", "y", "z"])
        assert mi_from_counts(pdf, "x", "y") == pytest.approx(1.0)
        assert cmi_from_counts(pdf, "x", "y", "z") == pytest.approx(0.0)

    def test_cmi_equals_mi_without_z(self):
        pdf = counts([["a", "a", 1.0], ["b", "b", 1.0]], ["x", "y"])
        assert cmi_from_counts(pdf, "x", "y", ()) == pytest.approx(
            mi_from_counts(pdf, "x", "y")
        )

    def test_chain_rule(self):
        # I(x; y,z) = I(x;y) + I(x;z|y) on a random joint distribution.
        rng = np.random.default_rng(2)
        rows = []
        for _ in range(400):
            rows.append(
                [str(rng.integers(0, 3)), str(rng.integers(0, 3)),
                 str(rng.integers(0, 2)), 1.0]
            )
        pdf = counts(rows, ["x", "y", "z"]).groupby(
            ["x", "y", "z"], as_index=False
        ).sum()
        lhs = mi_from_counts(pdf, "x", ["y", "z"])
        rhs = mi_from_counts(pdf, "x", "y") + cmi_from_counts(pdf, "x", "z", "y")
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_multi_column_conditioning(self):
        pdf = counts(
            [["a", "a", "p", "q", 2.0], ["b", "b", "p", "q", 2.0]],
            ["x", "y", "z1", "z2"],
        )
        # z1,z2 constant: conditioning on them changes nothing.
        assert cmi_from_counts(pdf, "x", "y", ["z1", "z2"]) == pytest.approx(1.0)

    def test_string_or_list_args_agree(self):
        pdf = counts([["a", "a", "a", 1.0], ["b", "b", "a", 1.0]], ["x", "y", "z"])
        assert cmi_from_counts(pdf, "x", "y", "z") == cmi_from_counts(
            pdf, ["x"], ["y"], ["z"]
        )


class TestChi2:
    @pytest.mark.parametrize(
        "x,dof,expect",
        [
            (3.841, 1, 0.05),
            (5.991, 2, 0.05),
            (6.635, 1, 0.01),
            (0.0, 1, 1.0),
            (18.307, 10, 0.05),
        ],
    )
    def test_against_known_quantiles(self, x, dof, expect):
        assert chi2_sf(x, dof) == pytest.approx(expect, abs=2e-3)

    def test_monotone_in_x(self):
        vals = [chi2_sf(x, 3) for x in (0.5, 1, 2, 4, 8, 16)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_large_dof(self):
        # Far tail should be ~0, center ~0.5ish.
        assert chi2_sf(200.0, 50) < 1e-6
        assert 0.3 < chi2_sf(49.33, 50) < 0.7


class TestGTest:
    def test_independent_high_p(self):
        rng = np.random.default_rng(3)
        rows = [
            [str(rng.integers(0, 2)), str(rng.integers(0, 2)), 1.0]
            for _ in range(1000)
        ]
        pdf = counts(rows, ["x", "y"]).groupby(["x", "y"], as_index=False).sum()
        g, dof, p = g_test(pdf, "x", "y")
        assert dof == 1
        assert p > 0.01

    def test_dependent_low_p(self):
        pdf = counts([["a", "a", 500.0], ["b", "b", 500.0]], ["x", "y"])
        _, _, p = g_test(pdf, "x", "y")
        assert p < 1e-10

    def test_conditional_dof(self):
        pdf = counts(
            [["a", "a", "u", 50.0], ["b", "b", "u", 50.0],
             ["a", "b", "v", 50.0], ["b", "a", "v", 50.0]],
            ["x", "y", "z"],
        )
        _, dof, _ = g_test(pdf, "x", "y", "z")
        assert dof == 2  # (2-1)(2-1)*|z|=2


class TestCIDecision:
    def test_effect_size_floor(self):
        # Tiny dependence on a huge pseudo-sample: G-test rejects, but the
        # effect-size floor declares independence.
        pdf = counts(
            [["a", "a", 251000.0], ["a", "b", 249000.0],
             ["b", "a", 249000.0], ["b", "b", 251000.0]],
            ["x", "y"],
        )
        _, _, p = g_test(pdf, "x", "y")
        assert p < 0.05  # raw test rejects
        assert is_conditionally_independent(pdf, "x", "y", eps_bits=0.01)

    def test_strong_dependence_detected(self):
        pdf = counts([["a", "a", 500.0], ["b", "b", 500.0]], ["x", "y"])
        assert not is_conditionally_independent(pdf, "x", "y")


# ---------------------------------------------------------------------------
# the group sums over cell codes against the pandas ``groupby`` they replace
# ---------------------------------------------------------------------------


def _ref_group_sums(pdf, cols):
    """The pandas ``groupby`` group sums the code path replaced."""
    if not cols:
        return np.full(len(pdf), pdf["cnt"].sum(), dtype=float)
    return pdf.groupby(list(cols), observed=True, dropna=False)["cnt"].transform(
        "sum"
    ).to_numpy(dtype=float)


def _ref_domain_size(pdf, cols):
    if not cols:
        return 1
    return int(pdf.groupby(list(cols), observed=True, dropna=False).ngroups)


@pytest.fixture
def reference(monkeypatch):
    """Run a callable with the estimators on the ``groupby`` reference."""

    def run(fn):
        with monkeypatch.context() as m:
            m.setattr(info_theory, "_group_sums", _ref_group_sums)
            m.setattr(info_theory, "_domain_size", _ref_domain_size)
            return fn()

    return run


def _estimates(pdf, xs, ys, zs):
    """Every public estimator on one frame, flattened to floats."""
    return [
        entropy_from_counts(pdf, xs + ys + zs),
        entropy_from_counts(pdf, zs),
        cond_entropy_from_counts(pdf, ys, xs + zs),
        cmi_from_counts(pdf, xs, ys, zs),
        mi_from_counts(pdf, xs, ys + zs),
        cmi_corrected_from_counts(pdf, xs, ys, zs),
        *g_test(pdf, xs, ys, zs),
    ]


_LABELS = {
    "int": lambda rng, k: list(range(-1, k - 1)),
    "str": lambda rng, k: [f"v{i}" for i in range(k)],
    "none": lambda rng, k: [f"v{i}" for i in range(k - 1)] + [None],
}


def _random_frame(seed, n_cols, n_rows, domain, kinds):
    """A seeded contingency frame with float weights; each column draws its
    labels from ``domain`` values of one kind in ``kinds``."""
    rng = np.random.default_rng(seed)
    data = {}
    for i in range(n_cols):
        labels = _LABELS[kinds[i % len(kinds)]](rng, domain)
        data[f"c{i}"] = pd.Series(
            [labels[j] for j in rng.integers(0, domain, n_rows)], dtype=object
        )
    data["cnt"] = rng.uniform(0.01, 50.0, n_rows)
    return pd.DataFrame(data)


def _coded(pdf):
    """``pdf`` with each value column carrying codes, as contingency frames
    do (a column holding ``None`` keeps a -1 code for it)."""
    out = pdf.copy()
    for c in pdf.columns.drop("cnt"):
        labels = pd.unique(pdf[c].dropna())
        codes = pd.Index(labels).get_indexer(pdf[c])
        out[c] = pd.Categorical.from_codes(codes, labels)
    return out


# rel 1e-12 (with an absolute floor of ~50 ulps at 1 bit for values near 0,
# where a difference of entropies cancels): the group sums add the same
# float64 weights in a different order.
_TOL = dict(rel=1e-12, abs=1e-14)


class TestGroupSumsOverCodes:
    @pytest.mark.parametrize(
        "seed,n_cols,n_rows,domain,kinds",
        [
            (0, 3, 60, 3, ("str",)),
            (1, 4, 200, 4, ("int", "str")),
            (2, 5, 400, 5, ("none", "int", "str")),
            (3, 6, 1000, 3, ("int",)),
            # 60^3 and 300^3 cells over 1,000 rows: compacted by np.unique
            (4, 3, 1000, 60, ("str", "none")),
            (6, 3, 1000, 300, ("int", "str")),
            (5, 3, 1, 2, ("str",)),  # one cell
        ],
        ids=[
            "str", "int-str", "none-multi", "int-wide", "unique-60", "unique-300",
            "one-cell",
        ],
    )
    def test_estimators_match_groupby_reference(
        self, reference, seed, n_cols, n_rows, domain, kinds
    ):
        plain = _random_frame(seed, n_cols, n_rows, domain, kinds)
        cols = [c for c in plain.columns if c != "cnt"]
        splits = [(cols[:1], cols[1:2], cols[2:])]
        if n_cols > 3:
            splits.append((cols[:2], cols[2:3], cols[3:]))
            splits.append((cols[:1], cols[1:3], cols[3:]))
        coded = _coded(plain)
        for xs, ys, zs in splits:
            ref = reference(lambda: _estimates(plain, xs, ys, zs))
            via_codes = _estimates(coded, xs, ys, zs)
            via_factorize = _estimates(plain, xs, ys, zs)
            assert via_codes == pytest.approx(ref, **_TOL)
            assert via_codes == pytest.approx(via_factorize, **_TOL)
        for k in range(n_cols + 1):
            for frame in (plain, coded):
                assert info_theory._domain_size(frame, cols[:k]) == (
                    _ref_domain_size(plain, cols[:k])
                )

    @pytest.mark.parametrize("domain", [60, 300])
    def test_unique_branch_is_taken(self, domain):
        pdf = _coded(_random_frame(4, 3, 1000, domain, ("str",)))
        key, space = info_theory._group_key(pdf, ["c0", "c1", "c2"])
        assert space <= info_theory.DENSE_CELLS < domain**3
        assert key.max() < space

    def test_unused_categories_are_not_groups(self):
        pdf = pd.DataFrame(
            {
                "x": pd.Categorical.from_codes([0, 2, 2], ["a", "b", "c"]),
                "y": pd.Categorical.from_codes([1, 1, 0], ["u", "v"]),
                "cnt": [1.0, 2.0, 3.0],
            }
        )
        assert info_theory._domain_size(pdf, ["x"]) == 2
        assert info_theory._domain_size(pdf, ["x", "y"]) == 3
        assert list(info_theory._group_sums(pdf, ["x"])) == [1.0, 5.0, 5.0]

    def test_empty_frame(self, reference):
        empty = pd.DataFrame(
            {"x": pd.Series(dtype=object), "y": pd.Series(dtype=object),
             "z": pd.Series(dtype=object), "cnt": pd.Series(dtype=float)}
        )
        for frame in (empty, _coded(empty)):
            got = _estimates(frame, ["x"], ["y"], ["z"])
            assert got == reference(lambda: _estimates(empty, ["x"], ["y"], ["z"]))
            for k in range(4):
                assert info_theory._domain_size(frame, ["x", "y", "z"][:k]) == (
                    _ref_domain_size(empty, ["x", "y", "z"][:k])
                )
