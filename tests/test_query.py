"""AggQuery execution (oracle-checked) and numeric binning."""
import uuid
from decimal import Decimal

import numpy as np
import pandas as pd
import pyarrow.compute as pc
import pytest
from pyspark.sql import functions as F

from repro.core.quantiles import percentile_approx
from repro.core.query import (
    BIN_SUFFIX,
    AggQuery,
    apply_context,
    bin_numeric,
    bin_sql,
    ensure_binned,
    is_numeric,
    partition_ids,
    quantile_edges,
    run_query,
    sql_double,
    sql_ident,
)
from repro.oracle import assert_equivalent
from tests.lineitem import lineitem


@pytest.fixture(scope="module")
def li(spark):
    return lineitem(spark, sf=0.002, seed=11).cache()


class TestAggQuery:
    def test_simple_group_by_matches_duckdb(self, li):
        q = AggQuery(t="l_returnflag", o="l_extendedprice")
        assert_equivalent(
            run_query(li, q),
            """
            SELECT l_returnflag, avg(l_extendedprice) AS avg_l_extendedprice
            FROM li GROUP BY 1
            """,
            li=li,
        )

    def test_context_filter_matches_duckdb(self, li):
        q = AggQuery(
            t="l_returnflag",
            o="l_quantity",
            context=(("l_linestatus", "O"),),
        )
        assert_equivalent(
            run_query(li, q),
            """
            SELECT l_returnflag, avg(l_quantity) AS avg_l_quantity
            FROM li WHERE l_linestatus = 'O' GROUP BY 1
            """,
            li=li,
        )

    def test_sum_aggregate(self, li):
        q = AggQuery(t="l_linestatus", o="l_quantity", agg="sum")
        assert_equivalent(
            run_query(li, q),
            "SELECT l_linestatus, sum(l_quantity) AS sum_l_quantity FROM li GROUP BY 1",
            li=li,
        )

    def test_composite_exposure(self, li):
        q = AggQuery(t=("l_returnflag", "l_linestatus"), o="l_quantity")
        out = run_query(li, q)
        assert set(out.columns) == {"l_returnflag", "l_linestatus", "avg_l_quantity"}
        assert_equivalent(
            out,
            """
            SELECT l_returnflag, l_linestatus, avg(l_quantity) AS avg_l_quantity
            FROM li GROUP BY 1, 2
            """,
            li=li,
        )

    def test_composite_exposure_column_synthesized(self, li):
        q = AggQuery(t=("l_returnflag", "l_linestatus"), o="l_quantity")
        ctx = apply_context(li, q)
        assert q.exposure_col in ctx.columns
        n_pairs = li.select("l_returnflag", "l_linestatus").distinct().count()
        assert ctx.select(q.exposure_col).distinct().count() == n_pairs

    def test_context_attrs(self):
        q = AggQuery(t="a", o="b", context=(("c", 1), ("d", "x")))
        assert q.context_attrs() == {"c", "d"}

    def test_multi_condition_context(self, li):
        q = AggQuery(
            t="l_returnflag",
            o="l_quantity",
            context=(("l_linestatus", "O"), ("l_linenumber", 1)),
        )
        assert_equivalent(
            run_query(li, q),
            """
            SELECT l_returnflag, avg(l_quantity) AS avg_l_quantity
            FROM li WHERE l_linestatus = 'O' AND l_linenumber = 1 GROUP BY 1
            """,
            li=li,
        )


def _distinct(df, cols):
    """Each column's exact distinct count (null excluded), as ``Mesa``
    passes it to ``ensure_binned``."""
    row = df.agg(*[F.countDistinct(c) for c in cols]).collect()[0]
    return dict(zip(cols, row))


def _replay_inputs(df, cols):
    """What ``ensure_binned`` replays the percentile sketch over: each
    numeric column of ``cols`` as doubles (NaN for null) and each row's
    partition, from one collect of ``df`` (as ``Mesa``'s raw collect)."""
    numeric = [c for c in cols if is_numeric(df, c)]
    sel = df.selectExpr(
        *[f"CAST({sql_ident(c)} AS DOUBLE)" for c in numeric], "spark_partition_id()"
    )
    tbl = sel.toArrow()
    values = {
        c: pc.fill_null(a, np.nan).to_numpy(zero_copy_only=False)
        for c, a in zip(numeric, tbl.columns)
    }
    partition = partition_ids(sel, tbl.columns[-1].to_numpy())
    return {"values": values, "partition": partition}


def _ensure_binned(df, cols, bins):
    return ensure_binned(
        df.schema,
        cols,
        bins=bins,
        distinct=_distinct(df, cols),
        **_replay_inputs(df, cols),
    )


def _with_bins(df, b):
    """``df`` plus ``bin_sql`` over ``b.edges``, the bin columns the
    prepared frame adds."""
    return df.withColumns(
        {c + BIN_SUFFIX: F.expr(bin_sql(c, e)) for c, e in b.edges.items()}
    )


class TestBinning:
    def test_bin_count_and_balance(self, li):
        binned = _with_bins(li, _ensure_binned(li, ["l_extendedprice"], 8))
        sizes = (
            binned.groupBy("l_extendedprice__b").count().toPandas()["count"]
        )
        assert len(sizes) == 8
        # Quantile bins: no bin more than 2x the ideal share.
        assert sizes.max() < 2 * li.count() / 8

    def test_bins_are_ordered_by_value(self, li):
        binned = _with_bins(li, _ensure_binned(li, ["l_extendedprice"], 4))
        agg = (
            binned.groupBy("l_extendedprice__b")
            .agg(F.max("l_extendedprice").alias("mx"), F.min("l_extendedprice").alias("mn"))
            .orderBy("l_extendedprice__b")
            .toPandas()
        )
        assert (agg["mx"].to_numpy()[:-1] <= agg["mn"].to_numpy()[1:]).all()

    def test_nulls_stay_null(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame({"x": [1.0, 2.0, None, 4.0, 5.0, 6.0, 7.0, 8.0]})
        )
        binned = _with_bins(df, _ensure_binned(df, ["x"], 2))
        assert binned.where(F.col("x").isNull()).select("x__b").collect()[0][0] is None

    def test_quantile_edges_dedup(self, spark):
        df = spark.createDataFrame(pd.DataFrame({"x": [1.0] * 99 + [2.0]}))
        probs = ", ".join(str(i / 8) for i in range(1, 8))
        [qs] = df.selectExpr(f"percentile_approx(x, array({probs}), 1000)").first()
        edges = quantile_edges(qs)
        assert edges == sorted(set(edges))

    def test_is_numeric(self, li):
        assert is_numeric(li, "l_quantity")
        assert not is_numeric(li, "l_returnflag")

    def test_ensure_binned_passthrough_categorical(self, li):
        b = _ensure_binned(li, ["l_returnflag", "l_extendedprice"], 4)
        assert b.mapping["l_returnflag"] == "l_returnflag"
        assert b.mapping["l_extendedprice"] == "l_extendedprice__b"
        assert "l_extendedprice__b" in _with_bins(li, b).columns

    def test_ensure_binned_small_domain_numeric_passthrough(self, li):
        # l_linenumber has 7 distinct values <= bins=8: keep as-is.
        b = _ensure_binned(li, ["l_linenumber"], 8)
        assert b.mapping["l_linenumber"] == "l_linenumber"


def _bins_of(df, col, bins):
    """``col``'s bin column (mapped name) from ``ensure_binned``, row-aligned
    with ``col`` via an explicit id ordering."""
    b = _ensure_binned(df, [col], bins)
    return _with_bins(df, b).orderBy("id").select(col, b.mapping[col]).toPandas()


class TestFusedBinning:
    """``ensure_binned`` computes all edges from one collect."""

    def test_one_job_for_all_columns(self, spark):
        rng = np.random.default_rng(3)
        n = 400
        df = spark.createDataFrame(
            pd.DataFrame(
                {
                    "w1": rng.normal(size=n),
                    "w2": rng.integers(0, 10_000, n),
                    "w3": rng.exponential(size=n),
                    "small": rng.integers(0, 4, n),
                    "cat": rng.choice(["a", "b", "c"], n),
                }
            )
        )
        cols = ["w1", "w2", "w3", "small", "cat"]
        distinct = _distinct(df, cols)
        sc = spark.sparkContext
        group = f"ensure-binned-{uuid.uuid4().hex}"
        # Adaptive execution submits each shuffle stage as its own job; with
        # it off, one collect is exactly one job, and the replay runs none.
        aqe = spark.conf.get("spark.sql.adaptive.enabled")
        spark.conf.set("spark.sql.adaptive.enabled", "false")
        sc.setJobGroup(group, "ensure_binned one-pass check")
        try:
            b = ensure_binned(
                df.schema, cols, bins=8, distinct=distinct, **_replay_inputs(df, cols)
            )
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            sc.setLocalProperty("spark.job.description", None)
            spark.conf.set("spark.sql.adaptive.enabled", aqe)
        assert len(sc.statusTracker().getJobIdsForGroup(group)) == 1
        assert b.mapping == {
            "w1": "w1__b",
            "w2": "w2__b",
            "w3": "w3__b",
            "small": "small",
            "cat": "cat",
        }
        binned = _with_bins(df, b).columns
        assert {"w1__b", "w2__b", "w3__b"} <= set(binned)
        assert "small__b" not in binned and "cat__b" not in binned

    def test_all_null_numeric_passes_through(self, spark):
        df = spark.createDataFrame(
            [(float(i), None) for i in range(50)], "x double, empty double"
        )
        b = _ensure_binned(df, ["x", "empty"], 4)
        assert b.mapping == {"x": "x__b", "empty": "empty"}
        assert _with_bins(df, b).select("x__b").distinct().count() == 4

    def test_nan_excluded_from_edges_and_binned_null(self, spark):
        # 80 finite values and 20 NaN: NaN-free quartiles cut 1..80 into
        # four bins of 20. Counting NaN (Spark sorts it above every number)
        # would put the edges at 25/50/75.
        vals = [float(v) for v in range(1, 81)] + [float("nan")] * 20
        df = spark.createDataFrame(list(enumerate(vals)), "id long, x double")
        pdf = _bins_of(df, "x", 4)
        nan = pdf["x"].isna()
        assert pdf.loc[nan, "x__b"].isna().all()
        assert pdf.loc[~nan, "x__b"].value_counts().sort_index().tolist() == [20] * 4

    @pytest.mark.parametrize("dtype", ["int", "long", "decimal(12,2)"])
    def test_integral_and_decimal_bin_like_per_column_path(self, spark, dtype):
        # Below the sketch's compression threshold both the replay and a
        # per-column approxQuantile are exact, so the bins match.
        rng = np.random.default_rng(5)
        raw = rng.integers(-5_000, 5_000, 600).tolist()
        vals = [Decimal(v) / 100 for v in raw] if dtype.startswith("decimal") else raw
        df = spark.createDataFrame(list(enumerate(vals)), f"id long, x {dtype}")
        fused = _bins_of(df, "x", 8)
        qs = df.where(F.col("x").isNotNull()).approxQuantile(
            "x", [i / 8 for i in range(1, 8)], 0.001
        )
        per_column = (
            df.selectExpr("id", f"{bin_sql('x', quantile_edges(qs))} AS x__b")
            .orderBy("id")
            .select("x__b")
            .toPandas()
        )
        assert fused["x__b"].tolist() == per_column["x__b"].tolist()

    def test_edges_within_rank_error_of_exact_quantiles(self, spark):
        # Large enough for the quantile sketch to compress and merge
        # partitions, so the edges are approximate.
        rng = np.random.default_rng(7)
        n, bins = 30_000, 8
        pdf = pd.DataFrame(
            {"id": np.arange(n), "a": rng.normal(size=n), "b": rng.pareto(2.0, n)}
        )
        df = spark.createDataFrame(pdf).repartition(4)
        b = _ensure_binned(df, ["a", "b"], bins)
        out, mapping = _with_bins(df, b), b.mapping
        for c in ("a", "b"):
            # Edges are data values and bins are right-closed, so each
            # edge is the largest value of its bin.
            edges = (
                out.groupBy(mapping[c]).agg(F.max(c).alias("mx"))
                .orderBy(mapping[c]).toPandas()["mx"].tolist()[:-1]
            )
            assert len(edges) == bins - 1
            exact = np.sort(pdf[c].to_numpy())
            for i, e in enumerate(edges, start=1):
                rank = np.searchsorted(exact, e, side="right") / n
                assert abs(rank - i / bins) <= 0.001 + 1 / n, (c, i, e)


#: interior edges whose ``repr`` has an exponent, a negative zero and
#: negative values
_EDGES = [-2.5, -0.0, 1e-05, 3.0, 1.5e300]

_BIN_VALUES = {
    "int": [-2147483648, -3, -2, -1, 0, 1, 3, 4, 2147483647, None],
    "long": [-(2**62), -3, -2, 0, 3, 4, 2**62, None],
    "decimal(20,6)": [
        Decimal("-2.500001"), Decimal("-2.5"), Decimal("-0.000001"), Decimal("0"),
        Decimal("0.000009"), Decimal("0.00001"), Decimal("0.000011"),
        Decimal("3"), Decimal("3.000001"), None,
    ],
    "double": [
        float("-inf"), -1e308, -2.5000000000000004, -2.5, -2.4999999999999996,
        -1e-300, -0.0, 0.0, 5e-300, 9.999999999999999e-06, 1e-05,
        1.0000000000000002e-05, 2.9999999999999996, 3.0, 3.0000000000000004,
        1.4999999999999999e300, 1.5e300, 1.5000000000000001e300, float("inf"),
        float("nan"), None,
    ],
}


class TestBinSql:
    """The SQL ``CASE`` bins and the driver's ``bin_numeric`` equal
    ``np.searchsorted(edges, x, "left")``; null and NaN stay null."""

    @pytest.mark.parametrize("dtype", list(_BIN_VALUES))
    def test_bins_equal_searchsorted(self, spark, dtype):
        vals = _BIN_VALUES[dtype]
        df = spark.createDataFrame(list(enumerate(vals)), f"id long, x {dtype}")
        got = (
            df.selectExpr("id", f"{bin_sql('x', _EDGES)} AS x__b")
            .orderBy("id")
            .select("x__b")
            .toPandas()["x__b"]
            .tolist()
        )
        want = [
            None
            if v is None or np.isnan(float(v))
            else int(np.searchsorted(_EDGES, float(v), side="left"))
            for v in vals
        ]
        assert [None if pd.isna(g) else int(g) for g in got] == want
        x = np.array([np.nan if v is None else float(v) for v in vals])
        codes, labels = bin_numeric(x, _EDGES)
        assert [None if c < 0 else int(labels[c]) for c in codes] == want


def _spark_and_replay(df, bins):
    """Spark's ``percentile_approx`` of ``df.x`` (NaN excluded, as
    ``ensure_binned`` excludes it) and the driver's replay over one collect
    of ``x`` with each row's partition."""
    probs = [i / bins for i in range(1, bins)]
    arr = ", ".join(sql_double(p) for p in probs)
    [want] = df.selectExpr(
        f"percentile_approx(CASE WHEN NOT isnan(x) THEN x END, array({arr}), 1000)"
    ).first()
    inputs = _replay_inputs(df, ["x"])
    got = percentile_approx(inputs["values"]["x"], inputs["partition"], probs, 1000)
    return want, got


def _bits(qs):
    """The doubles' bit patterns, so that ``-0.0 != 0.0``."""
    return None if qs is None else np.array(qs, np.float64).view(np.int64).tolist()


def _special_values(n, rng):
    """Normal values with NaN, ±inf, −0.0, 0.0 and null mixed in."""
    vals = rng.normal(size=n).tolist()
    specials = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, None]
    for i, j in enumerate(rng.choice(n, n // 5, replace=False)):
        vals[j] = specials[i % len(specials)]
    return vals


#: seeded value makers: name -> (n, rng) -> list of floats or None
_REPLAY_FRAMES = {
    "normal": lambda n, rng: rng.normal(size=n).tolist(),
    "heavy_ties": lambda n, rng: rng.integers(0, 6, n).astype(float).tolist(),
    "pareto": lambda n, rng: rng.pareto(1.5, n).tolist(),
    "specials": _special_values,
    "zeros": lambda n, rng: np.where(
        np.arange(n) % 4 == 0,
        rng.normal(size=n),
        np.where(np.arange(n) % 2, 0.0, -0.0),
    ).tolist(),
}


class TestPercentileReplay:
    """The driver's replay of ``percentile_approx`` equals Spark's bit for
    bit. This is what catches a Spark upgrade that changes
    ``QuantileSummaries``."""

    @pytest.mark.parametrize("kind", list(_REPLAY_FRAMES))
    @pytest.mark.parametrize(
        "n,parts,bins", [(5, 7, 3), (3000, 1, 8), (4000, 4, 5), (9000, 7, 6)]
    )
    def test_equals_spark(self, spark, kind, n, parts, bins):
        rng = np.random.default_rng(n + parts)
        vals = _REPLAY_FRAMES[kind](n, rng)
        df = spark.sparkContext.parallelize(
            [(v,) for v in vals], parts
        ).toDF("x double")
        want, got = _spark_and_replay(df, bins)
        assert _bits(got) == _bits(want), (want, got)

    @pytest.mark.parametrize("parts", [1, 2])
    def test_equals_spark_across_the_chunk_boundary(self, spark, parts):
        # 120k rows: each partition buffers, inserts and compresses more
        # than one 50,000-value chunk before the partitions merge.
        df = spark.range(120_000, numPartitions=parts).selectExpr(
            "CAST(hash(id) AS DOUBLE) / 1e6 AS x"
        )
        want, got = _spark_and_replay(df, 7)
        assert _bits(got) == _bits(want), (want, got)

    @pytest.mark.parametrize("where", [None, "c = 'a'"])
    def test_equals_spark_on_a_local_relation(self, spark, where):
        # A small pandas frame is a local relation: the optimizer evaluates
        # the collect's projection on the driver (spark_partition_id() reads
        # 0), and ``partition_ids`` recovers the slices a job scans.
        rng = np.random.default_rng(4)
        n = 5001
        df = spark.createDataFrame(
            pd.DataFrame({"x": rng.normal(size=n), "c": rng.choice(["a", "b"], n)})
        )
        want, got = _spark_and_replay(df.where(where) if where else df, 8)
        assert _bits(got) == _bits(want), (want, got)

    def test_empty_partitions(self, spark):
        # Values only in partitions 2 and 5 of 7; the others hold nulls.
        rows = [(float(i % 97) if i // 1000 in (2, 5) else None,) for i in range(7000)]
        df = spark.sparkContext.parallelize(rows, 7).toDF("x double")
        want, got = _spark_and_replay(df, 4)
        assert _bits(got) == _bits(want), (want, got)

    def test_all_null_and_single_value(self, spark):
        for vals, bins in (([None] * 40, 4), ([2.5] * 40, 4), ([2.5], 3)):
            df = spark.sparkContext.parallelize([(v,) for v in vals], 4).toDF(
                "x double"
            )
            want, got = _spark_and_replay(df, bins)
            assert _bits(got) == _bits(want), (vals[:1], want, got)

    def test_jvm_spelling_equals_cast(self, spark):
        """``ensure_binned`` labels a passed-through double by the JVM's
        ``String.valueOf``, which equals Spark's cast."""
        vals = [1e7, 1e-4, 1e23, -0.0, 0.0, float("inf"), float("-inf"), 2.5]
        df = spark.createDataFrame([(v,) for v in vals], "x double")
        want = [r[0] for r in df.selectExpr("CAST(x AS STRING)").collect()]
        value_of = spark.sparkContext._jvm.java.lang.String.valueOf
        assert [value_of(v) for v in vals] == want
        b = _ensure_binned(df, ["x"], 8)
        assert b.mapping == {"x": "x"}
        assert b.labels["x"] == {_bits([v])[0]: s for v, s in zip(vals, want)}
