"""MCIMR (Algorithm 1), responsibility ranking, and subgroup search."""
import numpy as np
import pandas as pd
import pytest

from repro.core.contingency import CodedTable
from repro.core.mcimr import combined_weight, conditional_cmi, mcimr
from repro.core.responsibility import responsibilities
from repro.core.subgroups import top_k_unexplained


@pytest.fixture(scope="module")
def confounded(spark):
    """Planted two-factor confounding:

    country determines (hdi_level, gini_level); salary ≈ f(hdi, gini).
    Candidates: the two true confounders, a redundant copy of hdi, and
    junk. The optimal 2-explanation is {hdi, gini}.
    """
    rng = np.random.default_rng(7)
    n = 12000
    country = rng.integers(0, 24, n)
    hdi = country % 4
    gini = (country // 4) % 3
    salary_bin = hdi * 3 + gini + rng.integers(0, 2, n)
    pdf = pd.DataFrame(
        {
            "t": [f"c{c:02d}" for c in country],
            "hdi": hdi,
            "hdi_copy": hdi * 10,
            "gini": gini,
            "junk": rng.choice(list("pqr"), n),
            "o_bin": salary_bin,
        }
    )
    return CodedTable.collect(spark.createDataFrame(pdf), list(pdf.columns))


CANDS = ["hdi", "hdi_copy", "gini", "junk"]


class TestConditionalCMI:
    def test_base_positive(self, confounded):
        assert conditional_cmi(confounded, "o_bin", "t", []) > 1.0

    def test_conditioning_reduces(self, confounded):
        base = conditional_cmi(confounded, "o_bin", "t", [])
        cond = conditional_cmi(confounded, "o_bin", "t", ["hdi"])
        assert cond < base

    def test_full_conditioning_near_zero(self, confounded):
        cond = conditional_cmi(confounded, "o_bin", "t", ["hdi", "gini"])
        assert cond < 0.1


class TestCombinedWeight:
    def test_no_weights_passthrough(self, confounded):
        out, w = combined_weight(confounded, ["hdi"], None)
        assert w is None and out is confounded

    def test_product_column(self, spark):
        pdf = pd.DataFrame({"a": [1], "w1": [2.0], "w2": [3.0]})
        table = CodedTable.collect(spark.createDataFrame(pdf), ["a"], ["w1", "w2"])
        out, w = combined_weight(table, ["a", "b"], {"a": "w1", "b": "w2"})
        assert out.weights[w][0] == pytest.approx(6.0)

    def test_null_weight_treated_as_one(self, spark):
        pdf = pd.DataFrame({"a": [1], "w1": [None]}).astype({"w1": "float"})
        table = CodedTable.collect(spark.createDataFrame(pdf), ["a"], ["w1"])
        out, w = combined_weight(table, ["a"], {"a": "w1"})
        assert out.weights[w][0] == pytest.approx(1.0)


class TestMCIMR:
    def test_recovers_planted_confounders(self, confounded):
        res = mcimr(confounded, CANDS, o_bin="o_bin", t="t", k=4)
        # hdi and hdi_copy are information-equivalent; either counts.
        assert res.selected[0] in ("hdi", "hdi_copy")
        assert "gini" in res.selected[:2]

    def test_redundant_copy_not_selected_second(self, confounded):
        res = mcimr(confounded, CANDS, o_bin="o_bin", t="t", k=2)
        assert not {"hdi", "hdi_copy"} <= set(res.selected)

    def test_final_below_base(self, confounded):
        res = mcimr(confounded, CANDS, o_bin="o_bin", t="t", k=3)
        assert res.final_cmi < res.base_cmi
        assert res.final_cmi < 0.1

    def test_stops_before_junk(self, confounded):
        res = mcimr(confounded, CANDS, o_bin="o_bin", t="t", k=4)
        assert "junk" not in res.selected
        assert res.stopped_by_responsibility

    def test_k_bounds_size(self, confounded):
        res = mcimr(confounded, CANDS, o_bin="o_bin", t="t", k=1)
        assert len(res.selected) == 1

    def test_individual_cmi_ordering(self, confounded):
        res = mcimr(confounded, CANDS, o_bin="o_bin", t="t", k=2)
        # hdi (3-point effect) individually explains more than gini.
        assert res.individual_cmi["hdi"] < res.individual_cmi["gini"]
        assert res.individual_cmi["junk"] == pytest.approx(
            res.base_cmi, abs=0.05
        )

    def test_trace_records_actions(self, confounded):
        res = mcimr(confounded, CANDS, o_bin="o_bin", t="t", k=4)
        actions = [s["action"] for s in res.trace]
        assert actions.count("select") == len(res.selected)
        assert (actions[-1] == "stop") == res.stopped_by_responsibility

    def test_precomputed_scan_same_answer(self, confounded):
        from repro.core.contingency import scan_counts

        scan = scan_counts(confounded, ["o_bin", "t"], CANDS)
        a = mcimr(confounded, CANDS, o_bin="o_bin", t="t", k=2, scan=scan)
        b = mcimr(confounded, CANDS, o_bin="o_bin", t="t", k=2)
        assert a.selected == b.selected

    def test_empty_candidates(self, confounded):
        res = mcimr(confounded, [], o_bin="o_bin", t="t", k=3)
        assert res.selected == []
        assert res.final_cmi == pytest.approx(res.base_cmi)


class TestResponsibility:
    def test_sums_to_one(self, confounded):
        resp = responsibilities(
            confounded, ["hdi", "gini"], o_bin="o_bin", t="t"
        )
        assert sum(resp.values()) == pytest.approx(1.0)

    def test_both_contribute_positively(self, confounded):
        resp = responsibilities(
            confounded, ["hdi", "gini"], o_bin="o_bin", t="t"
        )
        assert all(v > 0 for v in resp.values())

    def test_stronger_factor_higher_responsibility(self, confounded):
        resp = responsibilities(
            confounded, ["hdi", "gini"], o_bin="o_bin", t="t"
        )
        assert resp["hdi"] > resp["gini"]

    def test_harmful_attribute_negative(self, confounded):
        # junk contributes nothing: dropping it costs nothing, so its
        # responsibility is ~0 or negative (Example 2.4).
        resp = responsibilities(
            confounded, ["hdi", "junk"], o_bin="o_bin", t="t"
        )
        assert resp["junk"] < 0.2
        assert resp["hdi"] > 0.8

    def test_empty_selection(self, confounded):
        assert responsibilities(confounded, [], o_bin="o_bin", t="t") == {}


@pytest.fixture(scope="module")
def regional(spark):
    """Explanation {hdi} is globally good but fails inside region r1,
    where salary additionally depends on gini."""
    rng = np.random.default_rng(13)
    n = 16000
    region = rng.choice(["r1", "r2", "r3"], n, p=[0.5, 0.3, 0.2])
    country = rng.integers(0, 12, n)
    hdi = country % 4
    gini = (country // 4) % 3
    o = hdi * 3 + np.where(region == "r1", gini * 3, 0) + rng.integers(0, 2, n)
    pdf = pd.DataFrame(
        {
            "t": [f"c{c:02d}" for c in country],
            "region": region,
            "other": rng.choice(["u", "v"], n),
            "hdi": hdi,
            "o_bin": o,
        }
    )
    return spark.createDataFrame(pdf).cache()


class TestSubgroups:
    def test_finds_unexplained_region(self, regional):
        res = top_k_unexplained(
            regional,
            explanation=["hdi"],
            refine_attrs=["region", "other"],
            o_bin="o_bin",
            t="t",
            k=3,
            tau=0.2,
        )
        assert res.groups, "no unexplained groups found"
        assert res.groups[0].conds == (("region", "r1"),)

    def test_groups_ordered_by_size(self, regional):
        res = top_k_unexplained(
            regional,
            explanation=["hdi"],
            refine_attrs=["region", "other"],
            o_bin="o_bin",
            t="t",
            k=5,
            tau=0.2,
        )
        sizes = [g.size for g in res.groups]
        assert sizes == sorted(sizes, reverse=True)

    def test_all_reported_exceed_tau(self, regional):
        res = top_k_unexplained(
            regional,
            explanation=["hdi"],
            refine_attrs=["region", "other"],
            o_bin="o_bin",
            t="t",
            k=5,
            tau=0.2,
        )
        assert all(g.score > 0.2 for g in res.groups)

    def test_no_ancestor_descendant_pairs(self, regional):
        res = top_k_unexplained(
            regional,
            explanation=["hdi"],
            refine_attrs=["region", "other"],
            o_bin="o_bin",
            t="t",
            k=5,
            tau=0.1,
        )
        for i, g in enumerate(res.groups):
            for h in res.groups[i + 1 :]:
                assert not set(g.conds) <= set(h.conds)

    def test_huge_tau_finds_nothing(self, regional):
        res = top_k_unexplained(
            regional,
            explanation=["hdi"],
            refine_attrs=["region", "other"],
            o_bin="o_bin",
            t="t",
            k=3,
            tau=100.0,
        )
        assert res.groups == []
        # Everything under tau gets expanded; traversal still bounded.
        assert res.nodes_explored <= 200

    def test_describe(self, regional):
        res = top_k_unexplained(
            regional,
            explanation=["hdi"],
            refine_attrs=["region"],
            o_bin="o_bin",
            t="t",
            k=1,
            tau=0.2,
        )
        assert res.groups[0].describe() == "region = r1"
