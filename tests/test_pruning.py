"""Offline and online pruning (§4.2)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.contingency import CodedTable, scan_counts
from repro.core.pruning import (
    offline_prune_entity,
    offline_prune_rows,
    online_prune,
    row_counts,
)


@pytest.fixture(scope="module")
def wide():
    rng = np.random.default_rng(0)
    n = 200
    return pd.DataFrame(
        {
            "hdi": rng.random(n),
            "const": ["Country"] * n,
            "wikiid": [f"Q{i}" for i in range(n)],
            "mostly_missing": [1.0 if i < 10 else np.nan for i in range(n)],
            "half_missing": [1.0 * (i % 3) if i % 2 else np.nan for i in range(n)],
        }
    )


class TestOfflineEntity:
    def test_constant_dropped(self, wide):
        kept, rep = offline_prune_entity(wide, list(wide.columns))
        assert "const" not in kept
        assert rep.dropped["const"] == "constant"

    def test_unique_id_dropped(self, wide):
        kept, rep = offline_prune_entity(wide, list(wide.columns))
        assert "wikiid" not in kept
        assert rep.dropped["wikiid"] == "high_entropy"

    def test_mostly_missing_dropped(self, wide):
        kept, rep = offline_prune_entity(wide, list(wide.columns))
        assert "mostly_missing" not in kept
        assert rep.dropped["mostly_missing"] == "missing"

    def test_ordinary_attrs_kept(self, wide):
        kept, _ = offline_prune_entity(wide, list(wide.columns))
        assert "half_missing" in kept
        # hdi is continuous and unique-ish per entity: by the 0.95 rule it
        # looks id-like at the entity level — the paper bins numerics before
        # analysis, and entity-level numeric uniqueness is expected; callers
        # pass unique_ratio=1.01 to keep continuous measurements:
        kept2, _ = offline_prune_entity(wide, ["hdi"], unique_ratio=1.01)
        assert kept2 == ["hdi"]

    def test_report_reasons_counts(self, wide):
        _, rep = offline_prune_entity(wide, list(wide.columns))
        assert rep.reasons()["constant"] == 1


class TestOfflineRows:
    def test_spark_pass_matches_entity_semantics(self, spark, wide):
        df = spark.createDataFrame(wide.assign(cat=np.tile(["a", "b"], 100)))
        kept, rep = offline_prune_rows(df, ["const", "mostly_missing", "cat"])
        assert kept == ["cat"]
        assert rep.dropped["const"] == "constant"
        assert rep.dropped["mostly_missing"] == "missing"

    def test_near_unique_row_level(self, spark):
        pdf = pd.DataFrame({"rowid": [f"r{i}" for i in range(500)]})
        df = spark.createDataFrame(pdf)
        kept, rep = offline_prune_rows(df, ["rowid"])
        assert kept == []
        assert rep.dropped["rowid"] == "high_entropy"

    def test_exact_counts_equal_pandas_where_hll_is_off(self, spark):
        rng = np.random.default_rng(4)
        n = 3000
        pdf = pd.DataFrame(
            {
                "s": [f"v{v}" for v in rng.integers(0, 2500, n)],
                "i": rng.integers(0, 2000, n),
                "x": np.where(rng.random(n) < 0.2, np.nan, rng.normal(size=n)),
            }
        )
        pdf.loc[rng.random(n) < 0.1, "s"] = None
        df = spark.createDataFrame(pdf).selectExpr(
            "s", "i", "CASE WHEN isnan(x) THEN NULL ELSE x END AS x"
        )
        table = CodedTable.collect(df, ["s", "i", "x"])
        for c in ("s", "i", "x"):
            assert row_counts(table, c) == (pdf[c].notna().sum(), pdf[c].nunique())
        # approx_count_distinct, which these counts replace, misses here.
        hll = df.selectExpr(*[f"approx_count_distinct({c})" for c in "six"]).first()
        assert list(hll) != [pdf[c].nunique() for c in "six"]

    def test_empty_attrs(self, spark, wide):
        df = spark.createDataFrame(wide)
        kept, rep = offline_prune_rows(df, [])
        assert kept == []
        assert rep.dropped == {}


@pytest.fixture(scope="module")
def scan_fixture(spark):
    """Planted structure for online pruning: T=country, O binned.

    - code: FD of country both ways (CountryCode ⇒ Country)
    - junk: independent of O
    - conf: a genuine confounder (correlated with O)
    """
    rng = np.random.default_rng(1)
    n = 4000
    country = rng.integers(0, 10, n)
    conf = country % 3
    o = conf * 2 + rng.integers(0, 2, n)
    pdf = pd.DataFrame(
        {
            "t": [f"c{c}" for c in country],
            "code": [f"code{c}" for c in country],
            "junk": rng.choice(list("xyz"), n),
            "conf": conf,
            "o_bin": o,
        }
    )
    df = spark.createDataFrame(pdf)
    scan = scan_counts(
        CodedTable.collect(df, df.columns), ["o_bin", "t"], ["code", "junk", "conf"]
    )
    return scan


class TestOnline:
    def test_fd_dropped(self, scan_fixture):
        kept, rep = online_prune(
            scan_fixture, ["code", "junk", "conf"], o_bin="o_bin", t="t"
        )
        assert "code" not in kept
        assert rep.dropped["code"] == "logical_dependency"

    def test_low_relevance_dropped(self, scan_fixture):
        kept, rep = online_prune(
            scan_fixture, ["code", "junk", "conf"], o_bin="o_bin", t="t"
        )
        assert "junk" not in kept
        assert rep.dropped["junk"] == "low_relevance"

    def test_confounder_kept(self, scan_fixture):
        kept, _ = online_prune(
            scan_fixture, ["code", "junk", "conf"], o_bin="o_bin", t="t"
        )
        assert kept == ["conf"]

    def test_missing_scan_entry_dropped(self, scan_fixture):
        scan = dict(scan_fixture)
        scan["ghost"] = pd.DataFrame(columns=["__val", "o_bin", "t", "cnt"])
        kept, rep = online_prune(scan, ["ghost"], o_bin="o_bin", t="t")
        assert kept == [] and rep.dropped["ghost"] == "missing"
