"""Golden explanations: the behaviour fingerprint of the MESA pipeline.

For the nine small catalog queries (SO at sf=0.05, Covid-19 and Forbes,
Q1-Q3 each) at a fixed seed, ``golden_explanations.json`` pins the
explanation, the MCIMR trace, the responsibility order and the base and
final I(O;T|C,E). ``golden_baselines.json`` pins, per query, the Top-K,
HypDB and Brute-Force selections and base/final scores as the evaluation
harness computes them (one prepare per query, the harness's Brute-Force
caps; a refused Brute-Force run is pinned by its error). A refactor that
claims "same behaviour" must pass these tests without editing the files.
A deliberate behaviour change regenerates them and says why:

    PYTHONPATH=src python tests/test_golden.py

The file was generated with ``local[4]``; approximate-quantile edges can
depend on the input partitioning, so regenerate it if the core count of
the test machine changes.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.mesa import Mesa, MesaConfig
from repro.datasets.covid import make_covid
from repro.datasets.forbes import make_forbes
from repro.datasets.queries import get_query
from repro.datasets.so import make_so
from repro.eval.harness import run_all_methods
from tests.prepared_reference import (
    assert_bins_match_spark,
    assert_table_matches_frame,
)

GOLDEN = Path(__file__).with_name("golden_explanations.json")
GOLDEN_BASELINES = Path(__file__).with_name("golden_baselines.json")
BASELINES = ("Top-K", "HypDB", "Brute-Force")
SEED = 1
N_JUNK = 12
SO_SF = 0.05
QUERIES = [
    (ds, qid) for ds in ("SO", "Covid-19", "Forbes") for qid in ("Q1", "Q2", "Q3")
]
_MAKERS = {
    "SO": lambda spark: make_so(spark, sf=SO_SF, n_junk=N_JUNK, seed=SEED),
    "Covid-19": lambda spark: make_covid(spark, n_junk=N_JUNK, seed=SEED),
    "Forbes": lambda spark: make_forbes(spark, n_junk=N_JUNK, seed=SEED),
}


def fingerprint(spark, ds, dataset: str, qid: str) -> dict:
    """What the golden file pins for one catalog query."""
    cq = get_query(dataset, qid)
    res = Mesa(spark, MesaConfig()).explain(
        ds.df, cq.query, ds.kg, ds.extraction_cols, exclude=set(cq.exclude)
    )
    return {
        "explanation": res.explanation,
        "trace": [[s["attr"], s["action"]] for s in res.result.trace],
        "responsibility_order": sorted(
            res.responsibility, key=lambda a: (-res.responsibility[a], a)
        ),
        "base_cmi": res.result.base_cmi,
        "final_cmi": res.result.final_cmi,
    }


def baselines_fingerprint(spark, ds, dataset: str, qid: str) -> dict:
    """What the golden baselines file pins for one catalog query."""
    cq = get_query(dataset, qid)
    out = run_all_methods(spark, ds, cq, cfg=MesaConfig(), methods=BASELINES)
    return {
        m: {"error": oc.error}
        if oc.error is not None
        else {
            "selected": oc.selected,
            "base_cmi": oc.base_cmi,
            "final_cmi": oc.final_cmi,
        }
        for m, oc in out.items()
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def golden_baselines() -> dict:
    return json.loads(GOLDEN_BASELINES.read_text())


@pytest.fixture(scope="module")
def datasets(spark):
    out = {}
    for name, make in _MAKERS.items():
        ds = make(spark)
        ds.df = ds.df.cache()
        out[name] = ds
    yield out
    for ds in out.values():
        ds.df.unpersist()


@pytest.mark.parametrize("dataset,qid", QUERIES)
def test_explanation_unchanged(spark, datasets, golden, dataset, qid):
    want = golden[f"{dataset}/{qid}"]
    got = fingerprint(spark, datasets[dataset], dataset, qid)
    assert got["explanation"] == want["explanation"]
    assert got["trace"] == want["trace"]
    assert got["responsibility_order"] == want["responsibility_order"]
    assert got["base_cmi"] == pytest.approx(want["base_cmi"], rel=1e-9)
    assert got["final_cmi"] == pytest.approx(want["final_cmi"], rel=1e-9)


@pytest.mark.parametrize("dataset,qid", QUERIES)
def test_baselines_unchanged(spark, datasets, golden_baselines, dataset, qid):
    want = golden_baselines[f"{dataset}/{qid}"]
    got = baselines_fingerprint(spark, datasets[dataset], dataset, qid)
    assert set(got) == set(want)
    for m, w in want.items():
        g = got[m]
        if "error" in w:
            assert g == w, m
            continue
        assert g["selected"] == w["selected"], m
        assert g["base_cmi"] == pytest.approx(w["base_cmi"], rel=1e-9), m
        assert g["final_cmi"] == pytest.approx(w["final_cmi"], rel=1e-9), m


@pytest.mark.parametrize("dataset,qid", QUERIES)
def test_prepared_table_matches_frame(spark, datasets, dataset, qid):
    """The coded table of every golden query equals the prepared frame's
    own collect: the bins, the KG attributes and the weights; and the bins
    are Spark's own ``percentile_approx`` bins."""
    ds = datasets[dataset]
    cq = get_query(dataset, qid)
    prep = Mesa(spark, MesaConfig()).prepare(
        ds.df, cq.query, ds.kg, ds.extraction_cols, exclude=set(cq.exclude)
    )
    try:
        assert_table_matches_frame(prep)
        assert_bins_match_spark(prep)
    finally:
        prep.df.unpersist()


def test_lr_scores_its_selection_like_mesa(spark, datasets):
    """LR scores its selection on the analysis (binned) columns with the
    IPW weights, like every other method: on Covid-19 Q2 it selects what
    MESA selects, so it reports the same I(O;T|C,E)."""
    cq = get_query("Covid-19", "Q2")
    out = run_all_methods(
        spark, datasets["Covid-19"], cq, cfg=MesaConfig(), methods=("MESA", "LR")
    )
    mesa, lr = out["MESA"], out["LR"]
    assert lr.selected == mesa.selected == ["Country__GDP"]
    assert lr.base_cmi == pytest.approx(mesa.base_cmi, rel=1e-9)
    assert lr.final_cmi == pytest.approx(mesa.final_cmi, rel=1e-9)


if __name__ == "__main__":
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.master("local[4]")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    out, out_baselines = {}, {}
    for name, make in _MAKERS.items():
        ds = make(spark)
        ds.df = ds.df.cache()
        for d, qid in QUERIES:
            if d == name:
                out[f"{d}/{qid}"] = fingerprint(spark, ds, d, qid)
                out_baselines[f"{d}/{qid}"] = baselines_fingerprint(spark, ds, d, qid)
        ds.df.unpersist()
    GOLDEN.write_text(json.dumps(out, indent=1) + "\n")
    GOLDEN_BASELINES.write_text(json.dumps(out_baselines, indent=1) + "\n")
    spark.stop()
