"""Micro-benchmarks of the primitives underlying every score: a cold
``Mesa.prepare`` (one Spark job), candidate binning (the percentile replay,
driver only), the scan and the joint contingency on the coded table, the
estimator pass over a scan, one MCIMR run and one ``explain_prepared``
(driver only). These isolate the per-stage cost that Figs 4–6 sweep."""
import contextlib
import uuid

import pytest

from benchmarks.conftest import run_once
from repro.core import mesa as mesa_module
from repro.core.contingency import joint_counts, scan_counts
from repro.core.info_theory import CNT, cmi_from_counts
from repro.core.mcimr import individual_scores, mcimr
from repro.core.mesa import Mesa, MesaConfig
from repro.core.pruning import online_prune
from repro.core.query import ensure_binned
from repro.datasets.queries import get_query
from repro.datasets.so import make_so


@contextlib.contextmanager
def spark_jobs(spark, name):
    """Run the block in its own job group; yields a callable that counts
    the Spark jobs the block started."""
    sc = spark.sparkContext
    group = f"{name}-{uuid.uuid4().hex}"
    sc.setJobGroup(group, name)
    try:
        yield lambda: len(sc.statusTracker().getJobIdsForGroup(group))
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)


@pytest.fixture(scope="module")
def prepared(spark, scale):
    ds = make_so(spark, sf=scale.so_sf, n_junk=scale.n_junk)
    cq = get_query("SO", "Q1")
    prep = Mesa(spark, MesaConfig(k=scale.k, ipw=False)).prepare(
        ds.df, cq.query, ds.kg, ds.extraction_cols
    )
    prep.df.count()
    yield prep
    prep.df.unpersist()


@pytest.fixture(scope="module")
def pre_binning(spark, scale):
    """``(schema, columns, kwargs)`` that ``Mesa.prepare`` hands to
    ``ensure_binned`` for SO Q1: the types of the context's columns and of
    the extracted attributes, the outcome and every candidate, and the bin
    count, the known distinct counts and the raw collect's doubles and
    partitions that the percentile replay runs over."""
    ds = make_so(spark, sf=scale.so_sf, n_junk=scale.n_junk)
    cq = get_query("SO", "Q1")
    calls = []

    def record(schema, cols, **kwargs):
        calls.append((schema, list(cols), kwargs))
        return ensure_binned(schema, cols, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mesa_module, "ensure_binned", record)
        Mesa(spark, MesaConfig(k=scale.k, ipw=False)).prepare(
            ds.df, cq.query, ds.kg, ds.extraction_cols
        )
    (call,) = calls
    return call


@pytest.mark.benchmark(group="primitives")
def bench_ensure_binned(benchmark, spark, pre_binning):
    """The percentile replay: no Spark job."""
    schema, cols, kwargs = pre_binning
    with spark_jobs(spark, "bench_ensure_binned") as jobs:
        binning = benchmark(ensure_binned, schema, cols, **kwargs)
        n_jobs = jobs()
    assert set(binning.mapping) == set(cols)
    assert binning.edges
    assert n_jobs == 0


@pytest.mark.benchmark(group="primitives")
def bench_scan_pass(benchmark, prepared):
    scan = benchmark(
        scan_counts, prepared.table, [prepared.o_bin, prepared.t], prepared.candidates
    )
    assert len(scan) == len(prepared.candidates)


@pytest.mark.benchmark(group="primitives")
def bench_joint_contingency(benchmark, prepared):
    cols = [prepared.o_bin, prepared.t, *prepared.candidates[:3]]
    pdf = benchmark(joint_counts, prepared.table, cols)
    assert len(pdf) > 0


@pytest.mark.benchmark(group="primitives")
def bench_prepare(benchmark, spark, scale):
    """A cold SO Q1 ``Mesa.prepare``: the raw collect, 1 Spark job with
    adaptive execution off (it would split stages into jobs of their own);
    the KG relations enter no job. Its own seed keeps the lineage apart from
    the frames the other benchmarks cache."""
    ds = make_so(spark, sf=scale.so_sf, n_junk=scale.n_junk, seed=1)
    cq = get_query("SO", "Q1")
    mesa = Mesa(spark, MesaConfig(k=scale.k))
    aqe = spark.conf.get("spark.sql.adaptive.enabled")
    spark.conf.set("spark.sql.adaptive.enabled", "false")
    try:
        with spark_jobs(spark, "bench_prepare") as jobs:
            prep = run_once(
                benchmark, mesa.prepare, ds.df, cq.query, ds.kg, ds.extraction_cols
            )
            n_jobs = jobs()
    finally:
        spark.conf.set("spark.sql.adaptive.enabled", aqe)
    prep.df.unpersist()
    assert prep.candidates
    assert n_jobs == 1


@pytest.mark.benchmark(group="primitives")
def bench_explain_prepared(benchmark, spark, scale):
    """SO Q1 ``explain_prepared`` (IPW on) on a prepared query: no Spark job."""
    ds = make_so(spark, sf=scale.so_sf, n_junk=scale.n_junk)
    cq = get_query("SO", "Q1")
    mesa = Mesa(spark, MesaConfig(k=scale.k))
    prep = mesa.prepare(ds.df, cq.query, ds.kg, ds.extraction_cols)
    try:
        with spark_jobs(spark, "bench_explain_prepared") as jobs:
            res = benchmark(mesa.explain_prepared, prep)
            n_jobs = jobs()
    finally:
        prep.df.unpersist()
    assert res.explanation
    assert n_jobs == 0


@pytest.mark.benchmark(group="primitives")
def bench_estimators(benchmark, spark, prepared):
    """Online pruning plus MCIMR's individual scores over SO Q1's prepared
    scan: the estimator pass alone, on the driver (no Spark job)."""
    o, t = prepared.o_bin, prepared.t
    scan = scan_counts(prepared.table, [o, t], prepared.candidates, prepared.weights)
    base_pdf = joint_counts(prepared.table, [o, t])
    base_cmi = cmi_from_counts(base_pdf, o, t)
    n_total = float(base_pdf[CNT].sum())

    def estimate():
        kept, _ = online_prune(scan, prepared.candidates, o_bin=o, t=t)
        return individual_scores(
            {a: scan[a] for a in kept},
            o_bin=o,
            t=t,
            base_cmi=base_cmi,
            n_total=n_total,
        )

    with spark_jobs(spark, "bench_estimators") as jobs:
        scores = benchmark(estimate)
        n_jobs = jobs()
    assert scores
    assert n_jobs == 0


@pytest.mark.benchmark(group="primitives")
def bench_mcimr_end_to_end(benchmark, prepared, scale):
    res = run_once(
        benchmark,
        mcimr,
        prepared.table,
        prepared.candidates,
        o_bin=prepared.o_bin,
        t=prepared.t,
        k=scale.k,
    )
    assert res.selected
