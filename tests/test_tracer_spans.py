"""The benchmark tracer's step names wrap work a cold query really does.

``mesabench/tracer.py`` reports ``pruning.offline_s``, ``query.binned_cols``,
``query.bin_s`` and ``ipw.s`` from spans of ``offline_prune_entity``,
``ensure_binned``, ``bin_numeric``, ``quantile_edges``, ``fit_propensity``
and ``add_ipw_weight``. A cold ``Mesa.explain`` with an extraction column,
a binned column and a biased attribute must record each of them.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

from repro.core.mesa import Mesa
from repro.datasets.queries import get_query
from repro.datasets.so import make_so

TRACER = Path(__file__).resolve().parents[1] / "mesabench" / "tracer.py"

STEPS = (
    "pruning.offline_prune_entity",
    "query.ensure_binned",
    "query.bin_numeric",
    "query.quantile_edges",
    "ipw.fit_propensity",
    "ipw.add_ipw_weight",
)


def _tracer():
    spec = importlib.util.spec_from_file_location("_mesabench_tracer_spans", TRACER)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses resolve annotations there
    spec.loader.exec_module(mod)
    return mod


def test_cold_explain_records_every_step(spark):
    tracer_mod = _tracer()
    for t in tracer_mod.TARGETS:
        importlib.import_module(t.module)
    ds = make_so(spark, sf=0.02, n_junk=4, seed=2)
    cq = get_query("SO", "Q1")
    tracer = tracer_mod.Tracer(spark.sparkContext)
    tracer.op = 0
    tracer.install()
    try:
        res = Mesa(spark).explain(ds.df, cq.query, ds.kg, ds.extraction_cols)
    finally:
        tracer.uninstall()
    assert res.biased_attrs, "the check needs a biased attribute"
    calls = {name: 0 for name in STEPS}
    for span in tracer.spans:
        if span.name in calls:
            calls[span.name] += 1
    assert all(n >= 1 for n in calls.values()), calls
