"""End-to-end MESA pipeline on the synthetic SO dataset."""
import dataclasses
import uuid

import pytest
from pyspark.sql import functions as F

from repro.core.mesa import EmptyContextError, Mesa, MesaConfig, display_name
from repro.core.query import BIN_SUFFIX, AggQuery, QueryError
from repro.datasets.covid import make_covid
from repro.datasets.queries import get_query
from repro.datasets.so import make_so
from repro.eval.scoring import class_of
from repro.kg.graph import KnowledgeGraph
from tests.prepared_reference import assert_bins_match_spark, assert_table_matches_frame


@pytest.fixture(scope="module")
def so(spark):
    return make_so(spark, sf=0.05, n_junk=12)


@pytest.fixture(scope="module")
def q1_result(spark, so):
    cq = get_query("SO", "Q1")
    mesa = Mesa(spark, MesaConfig(k=5))
    return mesa.explain(so.df, cq.query, so.kg, so.extraction_cols)


class TestMesaEndToEnd:
    def test_recovers_planted_confounders(self, q1_result):
        cq = get_query("SO", "Q1")
        assert q1_result.explanation, "no explanation found"
        classes = {class_of(a, cq.gt_classes) for a in q1_result.explanation}
        assert None not in classes, f"junk selected: {q1_result.explanation}"
        assert len(classes) >= 2, "expected at least two distinct factors"

    def test_explains_most_of_correlation(self, q1_result):
        assert q1_result.explainability < 0.4 * q1_result.base_cmi

    def test_no_duplicate_class_selected(self, q1_result):
        cq = get_query("SO", "Q1")
        classes = [class_of(a, cq.gt_classes) for a in q1_result.explanation]
        assert len(classes) == len(set(classes))

    def test_responsibilities_sum_to_one(self, q1_result):
        assert sum(q1_result.responsibility.values()) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_pruning_reduced_candidates(self, q1_result):
        assert (
            q1_result.candidates_after_offline < q1_result.candidates_initial
        )
        assert q1_result.offline_report.dropped

    def test_junk_id_and_constant_pruned_offline(self, q1_result):
        reasons = q1_result.offline_report.reasons()
        assert reasons.get("constant", 0) >= 1  # Type = 'Country'
        assert reasons.get("high_entropy", 0) >= 1  # WIKIID

    def test_selection_bias_detected_for_gini(self, q1_result):
        """Gini's missingness is planted MNAR-on-HDI; HDI drives salary,
        so missingness is associated with O and must be flagged."""
        assert any("Gini" in a for a in q1_result.biased_attrs)

    def test_timings_cover_all_stages(self, q1_result):
        assert {
            "context", "extract", "offline_prune", "binning",
            "ipw", "scan", "online_prune", "mcimr", "responsibility",
        } <= set(q1_result.timings)

    def test_exposure_not_in_explanation(self, q1_result):
        assert "Country" not in q1_result.explanation


class TestMesaConfig:
    def test_context_query(self, spark, so):
        cq = get_query("SO", "Q3")  # Europe only
        mesa = Mesa(spark, MesaConfig(k=3))
        res = mesa.explain(so.df, cq.query, so.kg, so.extraction_cols)
        # Within Europe, HDI is homogeneous: it must not be the explanation.
        assert not any("HDI" in a for a in res.explanation)

    def test_k_bounds_explanation(self, spark, so):
        cq = get_query("SO", "Q1")
        mesa = Mesa(spark, MesaConfig(k=1))
        res = mesa.explain(so.df, cq.query, so.kg, so.extraction_cols)
        assert len(res.explanation) <= 1

    def test_without_kg_uses_input_attrs_only(self, spark, so):
        cq = get_query("SO", "Q1")
        mesa = Mesa(spark, MesaConfig(k=3))
        res = mesa.explain(so.df, cq.query, kg=None)
        assert res.extracted_attrs == []
        for a in res.explanation:
            assert not a.startswith("Country__")

    def test_no_pruning_keeps_more_candidates(self, spark, so):
        cq = get_query("SO", "Q1")
        base_cfg = MesaConfig(k=2)
        mesa = Mesa(spark, base_cfg)
        pruned = mesa.explain(so.df, cq.query, so.kg, so.extraction_cols)
        cfg = MesaConfig(k=2, offline_pruning=False, online_pruning=False)
        unpruned = Mesa(spark, cfg).explain(
            so.df, cq.query, so.kg, so.extraction_cols
        )
        assert (
            unpruned.candidates_after_online > pruned.candidates_after_online
        )

    def test_display_name_strips_bin_suffix(self):
        assert display_name("HDI" + BIN_SUFFIX) == "HDI"
        assert display_name("Gender") == "Gender"

    def test_multi_extraction_columns_prefixed(self, q1_result):
        assert any(
            a.startswith("Country__") or a.startswith("Continent__")
            for a in q1_result.extracted_attrs
        )


@pytest.fixture(scope="module")
def covid(spark):
    return make_covid(spark, n_junk=4)


#: Covid-19's input-table candidates for Q1 (all columns but O and T)
COVID_INPUT = {
    "WHO_Region", "Confirmed_cases", "New_cases", "Recovered_per_100",
    "Active_per_100",
}


class TestDegenerateInput:
    def test_empty_context_raises_named_error(self, spark, covid):
        q = get_query("Covid-19", "Q2").query
        empty = dataclasses.replace(q, context=(("Country", "__no_such_value__"),))
        with pytest.raises(EmptyContextError, match="matches no rows"):
            Mesa(spark).explain(covid.df, empty, covid.kg, covid.extraction_cols)
        assert issubclass(EmptyContextError, ValueError)

    def test_no_linked_entity(self, spark, covid):
        q = get_query("Covid-19", "Q1").query
        res = Mesa(spark).explain(
            covid.df, q, KnowledgeGraph(), covid.extraction_cols
        )
        assert not res.extracted_attrs
        assert set(res.explanation) <= COVID_INPUT

    def test_every_candidate_excluded(self, spark, covid):
        q = get_query("Covid-19", "Q1").query
        res = Mesa(spark).explain(covid.df, q, exclude=COVID_INPUT)
        assert res.explanation == []
        assert res.result.final_cmi == res.result.base_cmi

    def test_constant_exposure(self, spark, covid):
        q = dataclasses.replace(get_query("Covid-19", "Q1").query, t="One")
        df = covid.df.withColumn("One", F.lit("all"))
        res = Mesa(spark).explain(df, q, covid.kg, covid.extraction_cols)
        assert res.explanation == []
        assert res.result.base_cmi == res.result.final_cmi == 0.0

    def test_all_null_outcome(self, spark, covid):
        q = get_query("Covid-19", "Q1").query
        df = covid.df.withColumn(q.o, F.lit(None).cast("double"))
        res = Mesa(spark).explain(df, q, covid.kg, covid.extraction_cols)
        assert res.explanation == []
        assert res.result.base_cmi == res.result.final_cmi == 0.0

    def test_all_null_input_attribute_dropped_as_missing(self, spark, covid):
        q = get_query("Covid-19", "Q1").query
        df = covid.df.withColumn("Empty", F.lit(None).cast("double"))
        res = Mesa(spark).explain(df, q, covid.kg, covid.extraction_cols)
        assert res.offline_report.dropped["Empty"] == "missing"


class TestInputChecks:
    def test_all_null_extraction_column_extracts_nothing(self, spark, covid):
        q = get_query("Covid-19", "Q1").query
        df = covid.df.withColumn("Country", F.lit(None).cast("string"))
        res = Mesa(spark).explain(df, q, covid.kg, covid.extraction_cols)
        assert "Country" in covid.extraction_cols
        assert res.extracted_attrs
        assert not [a for a in res.extracted_attrs if a.startswith("Country__")]
        assert res.result.base_cmi == res.result.final_cmi == 0.0

    @pytest.mark.parametrize("bins", [0, 1])
    def test_bins_below_two_raise_before_any_job(self, spark, covid, bins):
        q = get_query("Covid-19", "Q1").query
        sc = spark.sparkContext
        group = f"bins-check-{uuid.uuid4().hex}"
        sc.setJobGroup(group, "MesaConfig.bins check")
        try:
            with pytest.raises(ValueError, match="bins"):
                Mesa(spark, MesaConfig(bins=bins)).explain(
                    covid.df, q, covid.kg, covid.extraction_cols
                )
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            sc.setLocalProperty("spark.job.description", None)
        assert sc.statusTracker().getJobIdsForGroup(group) == []

    @pytest.mark.parametrize(
        "change,extraction,field",
        [
            ({"t": "Nowhere"}, None, "exposure column 'Nowhere'"),
            ({"o": "Nowhere"}, None, "outcome column 'Nowhere'"),
            ({"context": (("Nowhere", "x"),)}, None, "context column 'Nowhere'"),
            ({}, ["Nowhere"], "extraction column 'Nowhere'"),
            ({"o": "Country"}, None, "outcome column 'Country' is also"),
            ({}, ["Country", "Country"], "extraction column 'Country' is given twice"),
        ],
        ids=[
            "unknown-exposure", "unknown-outcome", "unknown-context",
            "unknown-extraction", "outcome-is-exposure", "repeated-extraction",
        ],
    )
    def test_invalid_query_raises_named_error_before_any_job(
        self, spark, covid, change, extraction, field
    ):
        q = dataclasses.replace(get_query("Covid-19", "Q1").query, **change)
        sc = spark.sparkContext
        group = f"query-check-{uuid.uuid4().hex}"
        sc.setJobGroup(group, "query check")
        try:
            with pytest.raises(QueryError, match=field):
                Mesa(spark).explain(
                    covid.df, q, covid.kg, extraction or covid.extraction_cols
                )
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            sc.setLocalProperty("spark.job.description", None)
        assert sc.statusTracker().getJobIdsForGroup(group) == []
        assert issubclass(QueryError, ValueError)

    @pytest.mark.parametrize("hops", [1, 2])
    def test_unknown_list_agg_raises_before_any_job(self, spark, covid, hops):
        q = get_query("Covid-19", "Q1").query
        sc = spark.sparkContext
        group = f"list-agg-check-{uuid.uuid4().hex}"
        sc.setJobGroup(group, "MesaConfig.list_agg check")
        try:
            with pytest.raises(ValueError, match="list_agg"):
                Mesa(spark, MesaConfig(hops=hops, list_agg="median")).explain(
                    covid.df, q, covid.kg, covid.extraction_cols
                )
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            sc.setLocalProperty("spark.job.description", None)
        assert sc.statusTracker().getJobIdsForGroup(group) == []

    def test_double_extraction_column_links_on_spark_spelling(self, spark):
        """A double extraction column links on Spark's ``CAST(x AS
        STRING)`` (``1.0E7``, not Python's ``10000000.0``), the key the
        prepared frame joins on, so every row carries its entity's
        attribute."""
        spelled = {1e7: "1.0E7", 2e7: "2.0E7", 1e-4: "1.0E-4", 2.5: "2.5",
                   4.5: "4.5", 3e7: "3.0E7"}
        kg = KnowledgeGraph()
        grade = {}
        for i, name in enumerate(spelled.values()):
            kg.add_entity(f"E{i}", name)
            kg.add_literal(f"E{i}", "grade", ["lo", "hi"][i % 2])
            grade[name] = ["lo", "hi"][i % 2]
        codes = list(spelled)
        rows = [
            (["a", "b"][i % 2], float(i % 7), codes[i % len(codes)])
            for i in range(480)  # 8 bins: ``code``'s 6 values pass through
        ]
        df = spark.createDataFrame(rows, "t string, o double, code double")
        prep = Mesa(spark).prepare(df, AggQuery(t="t", o="o"), kg, ["code"])
        try:
            table = prep.table
            assert "grade" in table.codes
            got = table.labels["grade"][table.codes["grade"]]
            want = [grade[v] for v in table.labels["code"][table.codes["code"]]]
            assert (table.codes["grade"] >= 0).all()
            assert got.tolist() == want
            frame = prep.df.select(
                F.col("code").cast("string").alias("code"), "grade"
            ).collect()
            assert [r["grade"] for r in frame] == [grade[r["code"]] for r in frame]
        finally:
            prep.df.unpersist()


class TestCandidateCounts:
    def test_initial_count_is_before_offline_pruning(self, spark, covid):
        q = get_query("Covid-19", "Q1").query
        df = covid.df.withColumn("Constant", F.lit(1.0))
        initial = {
            on: Mesa(spark, MesaConfig(offline_pruning=on))
            .explain(df, q, covid.kg, covid.extraction_cols)
            .candidates_initial
            for on in (True, False)
        }
        assert initial[True] == initial[False]


class TestPreparedFrameCache:
    def test_explain_keeps_a_prepared_frame_cached(self, spark, covid):
        """A cold explain of the query a drill-down prepared earlier must
        not evict that prepared frame's cache (Spark keys caches by plan)."""
        from pyspark import StorageLevel

        cq = get_query("Covid-19", "Q2")
        args = (covid.df, cq.query, covid.kg, covid.extraction_cols)
        prep = Mesa(spark).prepare(*args)
        try:
            prep.df.count()
            Mesa(spark).explain(*args)
            assert prep.df.storageLevel != StorageLevel.NONE
        finally:
            prep.df.unpersist()


class TestLazyFrame:
    def test_cold_explain_builds_no_frame(self, spark, so):
        """A cold explain creates no DataFrame after the context and the raw
        collect; the frame a ``_prepare`` builds later on its first read is
        still the prepared table, and ``prepare`` caches that one frame."""
        cq = get_query("SO", "Q1")
        args = (so.df, cq.query, so.kg, so.extraction_cols)

        def refuse(*_, **__):
            raise AssertionError("the prepare path built a DataFrame")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(type(spark), "createDataFrame", refuse)
            mp.setattr(type(so.df), "join", refuse)
            mp.setattr(type(so.df), "withColumns", refuse)
            res = Mesa(spark).explain(*args)
            prep = Mesa(spark)._prepare(*args, None)
        assert res.explanation
        assert prep.weights
        assert_table_matches_frame(prep)
        assert_bins_match_spark(prep)
        prep = Mesa(spark).prepare(*args)
        try:
            assert prep.df is prep.df
            assert prep.df.is_cached
        finally:
            prep.df.unpersist()
