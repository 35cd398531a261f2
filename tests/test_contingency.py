"""Contingency counts on the coded table, checked cell-for-cell against
DuckDB; the Spark job budget of prepare and of the explain phase; and the
IPW weights prepare attaches."""
import datetime
import decimal
import uuid

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.contingency import (
    ATTR_COL,
    VAL_COL,
    CodedTable,
    group_sizes,
    joint_counts,
    scan_counts,
)
from repro.core.info_theory import CNT, cmi_from_counts, mi_from_counts
from repro.core.mesa import Mesa
from repro.core.query import AggQuery
from repro.core.subgroups import top_k_unexplained
from repro.datasets.queries import get_query
from repro.datasets.so import make_so
from repro.kg.graph import KnowledgeGraph
from repro.oracle import assert_equivalent
from tests.ipw_reference import (
    assert_weights_match,
    duckdb_weights,
    spark_detection,
)
from tests.lineitem import lineitem
from tests.prepared_reference import (
    assert_bins_match_spark,
    assert_table_matches_frame,
)


def coded(df, weight_cols=()) -> CodedTable:
    """Every column of ``df`` coded, ``weight_cols`` as weights."""
    cols = [c for c in df.columns if c not in weight_cols]
    return CodedTable.collect(df, cols, weight_cols)


@pytest.fixture(scope="module")
def li_df(spark):
    return lineitem(spark, sf=0.002, seed=7).cache()


@pytest.fixture(scope="module")
def li(li_df):
    return coded(li_df)


class TestJointCounts:
    def test_matches_duckdb_groupby(self, spark, li, li_df):
        pdf = joint_counts(li, ["l_returnflag", "l_linestatus"])
        got = spark.createDataFrame(pdf)
        assert_equivalent(
            got,
            """
            SELECT CAST(l_returnflag AS VARCHAR) AS l_returnflag,
                   CAST(l_linestatus AS VARCHAR) AS l_linestatus,
                   CAST(count(*) AS DOUBLE) AS cnt
            FROM li GROUP BY 1, 2
            """,
            li=li_df,
        )

    def test_weighted_sum_matches_duckdb(self, spark, li_df):
        w = li_df.withColumn("w", li_df.l_quantity * 0.1)
        pdf = joint_counts(coded(w, ["w"]), ["l_returnflag"], weight_col="w")
        got = spark.createDataFrame(pdf)
        assert_equivalent(
            got,
            """
            SELECT CAST(l_returnflag AS VARCHAR) AS l_returnflag,
                   SUM(l_quantity * 0.1) AS cnt
            FROM li GROUP BY 1
            """,
            li=li_df,
        )

    def test_total_equals_rowcount(self, li, li_df):
        pdf = joint_counts(li, ["l_returnflag"])
        assert pdf[CNT].sum() == li_df.count()

    def test_dropna_filters_nulls(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame({"a": ["x", None, "y", "x"], "b": [1, 2, None, 4]})
        )
        pdf = joint_counts(coded(df), ["a", "b"])
        assert pdf[CNT].sum() == 2  # only fully observed rows

    def test_values_are_strings(self, li):
        pdf = joint_counts(li, ["l_linenumber"])
        assert all(isinstance(v, str) for v in pdf["l_linenumber"])


class TestScanCounts:
    def test_one_pass_equals_per_attr_joint(self, li):
        cands = ["l_linenumber", "l_returnflag"]
        scan = scan_counts(li, ["l_linestatus"], cands)
        for c in cands:
            direct = joint_counts(li, [c, "l_linestatus"])
            merged = (
                scan[c]
                .rename(columns={VAL_COL: c})
                .sort_values([c, "l_linestatus"])
                .reset_index(drop=True)
            )
            direct = direct.sort_values([c, "l_linestatus"]).reset_index(drop=True)
            pd.testing.assert_frame_equal(
                merged[[c, "l_linestatus", CNT]], direct, check_dtype=False
            )

    def test_mi_from_scan_matches_direct(self, li):
        scan = scan_counts(li, ["l_returnflag"], ["l_linenumber"])
        via_scan = mi_from_counts(scan["l_linenumber"], VAL_COL, "l_returnflag")
        direct = mi_from_counts(
            joint_counts(li, ["l_linenumber", "l_returnflag"]),
            "l_linenumber",
            "l_returnflag",
        )
        assert via_scan == pytest.approx(direct)

    def test_cmi_fixed_pair(self, li):
        # I(O;T|E) computed from the scan frame: fixed = (O, T), attr = E.
        scan = scan_counts(li, ["l_returnflag", "l_linestatus"], ["l_linenumber"])
        via_scan = cmi_from_counts(
            scan["l_linenumber"], "l_returnflag", "l_linestatus", VAL_COL
        )
        direct = cmi_from_counts(
            joint_counts(li, ["l_returnflag", "l_linestatus", "l_linenumber"]),
            "l_returnflag",
            "l_linestatus",
            "l_linenumber",
        )
        assert via_scan == pytest.approx(direct)

    def test_per_attribute_null_filtering(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame(
                {
                    "o": ["p", "p", "q", "q"],
                    "e1": ["a", None, "b", "b"],
                    "e2": [None, None, None, "c"],
                }
            )
        )
        scan = scan_counts(coded(df), ["o"], ["e1", "e2"])
        assert scan["e1"][CNT].sum() == 3
        assert scan["e2"][CNT].sum() == 1

    def test_all_null_attribute_gets_empty_frame(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame({"o": ["p", "q"], "e": [None, None]}).astype(
                {"e": "object"}
            )
        )
        scan = scan_counts(coded(df), ["o"], ["e"])
        assert scan["e"].empty

    def test_weights_apply_per_attribute(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame(
                {
                    "o": ["p", "p", "q", "q"],
                    "e1": ["a", "a", "b", "b"],
                    "e2": ["a", "a", "b", "b"],
                    "w1": [2.0, 2.0, 3.0, 3.0],
                }
            )
        )
        scan = scan_counts(coded(df, ["w1"]), ["o"], ["e1", "e2"], weights={"e1": "w1"})
        assert scan["e1"][CNT].sum() == pytest.approx(10.0)
        assert scan["e2"][CNT].sum() == pytest.approx(4.0)

    def test_empty_candidates(self, li):
        assert scan_counts(li, ["l_returnflag"], []) == {}

    def test_mixed_types_cast_to_string(self, li):
        scan = scan_counts(li, ["l_returnflag"], ["l_linenumber", "l_linestatus"])
        for c in ("l_linenumber", "l_linestatus"):
            assert all(isinstance(v, str) for v in scan[c][VAL_COL])


class TestGroupSizes:
    def test_matches_duckdb(self, spark, li, li_df):
        pdf = group_sizes(li, ["l_returnflag", "l_linestatus"])
        got = spark.createDataFrame(pdf)
        assert_equivalent(
            got,
            f"""
            SELECT '{'l_returnflag'}' AS {ATTR_COL},
                   CAST(l_returnflag AS VARCHAR) AS {VAL_COL},
                   count(*) AS size
            FROM li GROUP BY 2
            UNION ALL
            SELECT 'l_linestatus', CAST(l_linestatus AS VARCHAR), count(*)
            FROM li GROUP BY 2
            """,
            li=li_df,
        )

    def test_empty_attrs(self, li):
        assert group_sizes(li, []).empty


@pytest.fixture(scope="module")
def holey(spark):
    """Mixed-type columns with nulls in values and weights."""
    rng = np.random.default_rng(11)
    n = 900

    def with_nulls(values, share):
        out = pd.Series(values, dtype=object)
        out[rng.random(n) < share] = None
        return out

    pdf = pd.DataFrame(
        {
            "o": with_nulls(rng.choice(["p", "q", "r"], n), 0.05),
            "t": rng.integers(0, 7, n),
            "e1": with_nulls(rng.choice(["a", "b", "c", "d"], n), 0.2),
            "e2": with_nulls(rng.integers(-2, 3, n), 0.4),
            "w1": with_nulls(rng.uniform(0.5, 4.0, n), 0.3),
            "w2": rng.uniform(1.0, 2.0, n),
        }
    )
    return spark.createDataFrame(
        pdf, "o string, t long, e1 string, e2 long, w1 double, w2 double"
    ).cache()


@pytest.fixture(scope="module")
def holey_pd(holey):
    """``holey`` for DuckDB, the nullable long column kept integral."""
    return holey.toPandas().astype({"e2": "Int64"})


@pytest.fixture(scope="module")
def holey_table(holey):
    return CodedTable.collect(holey, ["o", "t", "e1", "e2"], ["w1", "w2"])


class TestCodedTable:
    """``joint_counts``/``scan_counts``/``group_sizes`` on a ``CodedTable``."""

    def test_joint_unweighted_matches_duckdb(self, spark, li_df):
        cols = ["l_returnflag", "l_linestatus", "l_linenumber"]
        table = CodedTable.collect(li_df, cols)
        got = spark.createDataFrame(joint_counts(table, cols))
        assert_equivalent(
            got,
            """
            SELECT CAST(l_returnflag AS VARCHAR) AS l_returnflag,
                   CAST(l_linestatus AS VARCHAR) AS l_linestatus,
                   CAST(l_linenumber AS VARCHAR) AS l_linenumber,
                   CAST(count(*) AS DOUBLE) AS cnt
            FROM li GROUP BY ALL
            """,
            li=li_df,
        )

    @pytest.mark.parametrize(
        "cols",
        [
            # ~1M-cell key space over ~12k rows: counted via np.unique
            ["l_orderkey", "l_partkey", "l_returnflag"],
            # 3^40 cells: beyond an int64 key, grouped on the code matrix
            [f"l_linenumber_{i}" for i in range(40)],
        ],
        ids=["sparse", "wide"],
    )
    def test_large_key_spaces_match_duckdb(self, spark, li_df, cols):
        df = li_df
        for i in range(40):
            df = df.withColumn(f"l_linenumber_{i}", (df.l_linenumber + i) % 3)
        pdf = joint_counts(CodedTable.collect(df, cols), cols)
        casts = ", ".join(f"CAST({c} AS VARCHAR) AS {c}" for c in cols)
        assert_equivalent(
            spark.createDataFrame(pdf),
            f"SELECT {casts}, CAST(count(*) AS DOUBLE) AS cnt FROM d GROUP BY ALL",
            d=df.select(*cols),
        )

    def test_joint_weighted_matches_duckdb(self, spark, holey_pd, holey_table):
        pdf = joint_counts(holey_table, ["o", "t", "e1"], weight_col="w1")
        assert_equivalent(
            spark.createDataFrame(pdf),
            """
            SELECT o, CAST(t AS VARCHAR) AS t, e1,
                   SUM(COALESCE(w1, 1.0)) AS cnt
            FROM d
            WHERE o IS NOT NULL AND t IS NOT NULL AND e1 IS NOT NULL
            GROUP BY ALL
            """,
            d=holey_pd,
        )

    def test_scan_matches_duckdb(self, spark, holey_pd, holey_table):
        scan = scan_counts(
            holey_table, ["o", "t"], ["e1", "e2"], weights={"e2": "w1"}
        )
        for attr, w in (("e1", "1.0"), ("e2", "COALESCE(w1, 1.0)")):
            assert_equivalent(
                spark.createDataFrame(scan[attr]),
                f"""
                SELECT CAST({attr} AS VARCHAR) AS {VAL_COL}, o,
                       CAST(t AS VARCHAR) AS t, SUM({w}) AS cnt
                FROM d
                WHERE o IS NOT NULL AND t IS NOT NULL AND {attr} IS NOT NULL
                GROUP BY ALL
                """,
                d=holey_pd,
            )

    def test_group_sizes_matches_duckdb(self, spark, holey_pd, holey_table):
        pdf = group_sizes(holey_table, ["e1", "e2"])
        assert_equivalent(
            spark.createDataFrame(pdf),
            f"""
            SELECT 'e1' AS {ATTR_COL}, e1 AS {VAL_COL}, count(*) AS size
            FROM d WHERE e1 IS NOT NULL GROUP BY 2
            UNION ALL
            SELECT 'e2', CAST(e2 AS VARCHAR), count(*)
            FROM d WHERE e2 IS NOT NULL GROUP BY 2
            """,
            d=holey_pd,
        )

    def test_null_weight_counts_as_one(self, spark):
        df = spark.createDataFrame(
            [("a", 2.0), ("a", None), ("b", None)], "e string, w double"
        )
        pdf = joint_counts(CodedTable.collect(df, ["e"], ["w"]), ["e"], "w")
        assert dict(zip(pdf["e"], pdf[CNT])) == {"a": 3.0, "b": 1.0}

    def test_per_attribute_null_filtering(self, holey, holey_table):
        scan = scan_counts(holey_table, ["o"], ["e1", "e2"])
        for attr in ("e1", "e2"):
            n = holey.where(f"o IS NOT NULL AND {attr} IS NOT NULL").count()
            assert scan[attr][CNT].sum() == n

    def test_all_null_attribute_gives_empty_frame(self, spark):
        df = spark.createDataFrame(
            [("p", None), ("q", None)], "o string, e double"
        )
        table = CodedTable.collect(df, ["o", "e"])
        assert scan_counts(table, ["o"], ["e"])["e"].empty
        assert joint_counts(table, ["o", "e"]).empty
        assert group_sizes(table, ["e"]).empty

    def test_labels_equal_spark_cast(self, spark):
        df = spark.createDataFrame(
            [
                (10_000_000, 1.0e7, True, "x", 7, decimal.Decimal("1.50"),
                 datetime.date(2020, 1, 2), 2.5),
                (-3, 1.0e-4, False, "y", None, None, None, None),
                (None, None, None, None, -1, decimal.Decimal("-0.25"),
                 datetime.date(1999, 12, 31), float("nan")),
            ],
            "l long, d double, b boolean, s string, i int, "
            "m decimal(5,2), dt date, f float",
        )
        cols = df.columns
        table = CodedTable.collect(df, cols)
        spark_rows = df.select(*[df[c].cast("string") for c in cols]).collect()
        for j, c in enumerate(cols):
            want = [r[j] for r in spark_rows]
            codes = table.codes[c]
            got = [table.labels[c][k] if k >= 0 else None for k in codes]
            assert got == want, c
        assert list(table.labels["d"]) == ["1.0E7", "1.0E-4"]
        assert list(table.labels["b"]) == ["true", "false"]


@pytest.fixture(scope="module")
def so_ds(spark):
    return make_so(spark, sf=0.02, n_junk=4, seed=2)


@pytest.fixture(scope="module")
def so_prepared(spark, so_ds):
    cq = get_query("SO", "Q1")
    mesa = Mesa(spark)
    prep = mesa.prepare(so_ds.df, cq.query, so_ds.kg, so_ds.extraction_cols)
    prep.df.count()  # fill the cache, as the drill-down set-up does
    yield mesa, prep, cq
    prep.df.unpersist()


def _spark_jobs(spark, fn):
    """``fn()``'s result and the number of Spark jobs it ran."""
    sc = spark.sparkContext
    group = f"explain-jobs-{uuid.uuid4().hex}"
    # Adaptive execution submits each shuffle stage as its own job; turn it
    # off so one pass is one job.
    aqe = spark.conf.get("spark.sql.adaptive.enabled")
    spark.conf.set("spark.sql.adaptive.enabled", "false")
    sc.setJobGroup(group, "explain job count")
    try:
        out = fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
        spark.conf.set("spark.sql.adaptive.enabled", aqe)
    return out, len(sc.statusTracker().getJobIdsForGroup(group))


class TestExplainJobs:
    """The explain phase counts on the driver."""

    def test_explain_prepared_runs_no_job(self, spark, so_prepared):
        mesa, prep, _ = so_prepared
        res, jobs = _spark_jobs(spark, lambda: mesa.explain_prepared(prep))
        assert res.explanation
        assert prep.weights, "the check should cover weighted attributes"
        assert jobs == 0

    def test_top_k_unexplained_on_dataframe_runs_one_job(self, spark, so_prepared):
        mesa, prep, cq = so_prepared
        res = mesa.explain_prepared(prep)
        sg, jobs = _spark_jobs(
            spark,
            lambda: top_k_unexplained(
                prep.df,
                explanation=res.analysis_cols,
                refine_attrs=list(cq.refine_attrs),
                o_bin=prep.o_bin,
                t=prep.t,
                tau=0.0,
                tau_ratio=0.0,
                weights=prep.weights,
                max_nodes=6,
            ),
        )
        assert sg.nodes_explored > 0
        assert jobs == 1


def _adversarial(spark):
    """A 600-row frame of awkward numeric types and values, and a KG over
    its ``city`` column (one city unlinked, some properties missing)."""
    rng = np.random.default_rng(11)
    n = 600
    specials = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, None]
    x = rng.normal(size=n).tolist()
    for i, v in zip(rng.choice(n, 60, replace=False), specials * 10):
        x[i] = v
    five = [0.1, 1e7, 1e-4, 2.5, -3.0]
    cities = [f"c{i}" for i in range(12)]
    rows = [
        (
            str(rng.choice(["a", "b", "c"])),
            float(rng.normal()),
            float(np.float32(rng.normal())),
            decimal.Decimal(int(rng.integers(-10**6, 10**6))) / 100,
            decimal.Decimal(int(rng.integers(-10**9, 10**9))) / 10**6,
            x[i],
            five[int(rng.integers(5))],
            int(rng.integers(4)),
            cities[int(rng.integers(12))],
        )
        for i in range(n)
    ]
    df = spark.createDataFrame(
        rows,
        "t string, o double, f float, d10 decimal(10,2), d20 decimal(20,6), "
        "x double, five double, small int, city string",
    )
    kg = KnowledgeGraph()
    for i, c in enumerate(cities[:-1]):
        kg.add_entity(f"E{i}", c)
        kg.add_literal(f"E{i}", "pop", float(rng.lognormal(10, 1)))
        kg.add_literal(f"E{i}", "tier", [1e7, 1e-4, 2.5][i % 3])
        kg.add_literal(f"E{i}", "region", ["north", "south"][i % 2])
        if i % 4:
            kg.add_literal(f"E{i}", "gdp", float(rng.normal(5, 2)))
    return df, kg


class TestPrepare:
    """``Mesa.prepare``: one raw collect, a coded table equal to the
    prepared frame's own collect and binned at Spark's percentiles, and IPW
    weights that equal the frame's weight columns and independent
    references."""

    def test_prepare_runs_one_job(self, spark, so_ds):
        # The raw collect. The edges are replayed on the driver, so SO's two
        # KG relations never enter a Spark job.
        cq = get_query("SO", "Q1")
        prep, jobs = _spark_jobs(
            spark,
            lambda: Mesa(spark).prepare(
                so_ds.df, cq.query, so_ds.kg, so_ds.extraction_cols
            ),
        )
        # No unpersist: the frame's plan equals the cached so_prepared one.
        assert prep.weights
        assert jobs == 1

    def test_prepare_without_kg_runs_one_job(self, spark, so_ds):
        cq = get_query("SO", "Q1")
        prep, jobs = _spark_jobs(
            spark, lambda: Mesa(spark)._prepare(so_ds.df, cq.query, None, None, None)
        )
        assert prep.o_bin.endswith("__b")  # the outcome needs edges
        assert jobs == 1

    def test_prepare_without_edges_runs_one_job(self, spark):
        # Every column is categorical or has at most ``bins`` values (the
        # 5-value double passes through with its collected labels).
        df, _ = _adversarial(spark)
        small = df.select("t", "five", "small", "city")
        q = AggQuery(t="t", o="five")
        prep, jobs = _spark_jobs(
            spark, lambda: Mesa(spark)._prepare(small, q, None, None, None)
        )
        assert prep.candidates == ["small", "city"]
        assert jobs == 1

    def test_so_table_matches_frame(self, so_prepared):
        _, prep, _ = so_prepared
        assert prep.weights
        assert_table_matches_frame(prep)
        assert_bins_match_spark(prep)

    @pytest.mark.parametrize("with_kg", [False, True])
    def test_adversarial_table_matches_frame(self, spark, with_kg):
        """Floats, decimals, NaN, ±inf, −0.0, null, and numeric columns
        that pass through unbinned (their labels are Spark's strings, e.g.
        ``1.0E7``), in the input table and in the KG attributes."""
        df, kg = _adversarial(spark)
        q = AggQuery(t="t", o="o")
        prep = Mesa(spark).prepare(df, q, kg if with_kg else None, ["city"])
        try:
            binned = {c for c in prep.candidates if c.endswith("__b")}
            assert {"f__b", "d10__b", "d20__b", "x__b"} <= binned
            assert {"five", "small", "city"} <= set(prep.candidates)
            if with_kg:
                assert {"pop__b", "tier", "region"} <= set(prep.candidates)
                assert "1.0E7" in prep.table.labels["tier"].tolist()
            assert "1.0E7" in prep.table.labels["five"].tolist()
            assert_table_matches_frame(prep)
            assert_bins_match_spark(prep)
        finally:
            prep.df.unpersist()

    def test_signed_zero_attribute_table_matches_frame(self, spark):
        """An extracted double passed through with both −0.0 and 0.0 keeps
        them apart, as Spark's ``CAST(x AS STRING)`` in the frame does."""
        cities = [f"c{i}" for i in range(6)]
        kg = KnowledgeGraph()
        for i, c in enumerate(cities):
            kg.add_entity(f"E{i}", c)
            kg.add_literal(f"E{i}", "z", [-0.0, 0.0, 1.5][i % 3])
        rng = np.random.default_rng(13)
        rows = [
            (str(rng.choice(["a", "b"])), float(rng.normal()), cities[i % 6])
            for i in range(240)
        ]
        df = spark.createDataFrame(rows, "t string, o double, city string")
        prep = Mesa(spark).prepare(df, AggQuery(t="t", o="o"), kg, ["city"])
        try:
            assert "z" in prep.candidates
            assert_table_matches_frame(prep)
            assert sorted(prep.table.labels["z"].tolist()) == ["-0.0", "0.0", "1.5"]
        finally:
            prep.df.unpersist()

    def test_signed_zero_counts_as_two_values_when_binning(self, spark):
        """An extracted double with ``bins`` + 1 bit patterns, two of them
        −0.0 and 0.0, has ``bins`` + 1 distinct values, as in the frame's
        ``CAST(x AS STRING)``, so it is binned, not passed through with
        ``bins`` + 1 labels (240 rows: 4 bins)."""
        cities = [f"c{i}" for i in range(10)]
        kg = KnowledgeGraph()
        for i, c in enumerate(cities):
            kg.add_entity(f"E{i}", c)
            kg.add_literal(f"E{i}", "z", [-0.0, 0.0, 1.5, 2.5, 3.5][i % 5])
        rng = np.random.default_rng(17)
        rows = [
            (str(rng.choice(["a", "b"])), float(rng.normal()), cities[i % 10])
            for i in range(240)
        ]
        df = spark.createDataFrame(rows, "t string, o double, city string")
        prep = Mesa(spark).prepare(df, AggQuery(t="t", o="o"), kg, ["city"])
        try:
            assert prep.bins == 4
            assert "z__b" in prep.candidates and "z" not in prep.candidates
            assert_table_matches_frame(prep)
            assert_bins_match_spark(prep)
        finally:
            prep.df.unpersist()

    def test_frame_weights_equal_table_weights(self, so_prepared):
        _, prep, _ = so_prepared
        o = prep.o_bin
        assert prep.biased and set(prep.weights) == prep.biased
        for a, wcol in prep.weights.items():
            got = prep.df.select(
                F.col(o).cast("string").alias("o"),
                F.col(a).isNull().alias("missing"),
                F.col(wcol).alias("w"),
            ).toPandas()
            assert (got["missing"] == got["w"].isna()).all(), a
            frame_map = {
                (k if isinstance(k, str) else None): set(g["w"])
                for k, g in got[~got["missing"]].groupby("o", dropna=False)
            }
            t = prep.table
            rows = t.codes[a] >= 0
            o_codes = t.codes[o][rows]
            labels = np.where(o_codes >= 0, t.labels[o][o_codes], None)
            table_map: dict = {}
            for k, w in zip(labels, t.weights[wcol][rows]):
                table_map.setdefault(k, set()).add(w)
            assert frame_map == table_map, a
            assert all(len(ws) == 1 for ws in table_map.values()), a

    def test_ipw_matches_reference(self, so_prepared):
        mesa, prep, _ = so_prepared
        assert prep.biased == spark_detection(
            prep.df,
            prep.extracted_attrs,
            o_bin=prep.o_bin,
            alpha=mesa.cfg.alpha,
            eps_bits=mesa.cfg.eps_bits / 2,
        )
        for a, wcol in prep.weights.items():
            assert_weights_match(
                prep.table,
                a,
                wcol,
                duckdb_weights(prep.df, a, o_bin=prep.o_bin),
                o_bin=prep.o_bin,
            )
