"""Span tracing for the traced benchmark run, recorded from outside the program.

``Tracer.install`` wraps the public functions of every layer at every module
namespace that holds them (``repro.core.mcimr.scan_counts`` as well as
``repro.core.contingency.scan_counts``), plus the ``Mesa`` facade methods on
the class. Nothing under ``src/`` changes; ``uninstall`` restores the
originals.

Each call becomes a span: name, layer, start, end, parent span, operation id,
counters read off the call's result, and — for layers that run Spark work —
its own Spark job group. Jobs and tasks are attributed to the innermost span
whose group was active; they are read from the status tracker after each
operation, outside the timed interval. Spans stay in memory and are dumped
when the run ends.

Self time is a span's duration minus the durations of its child spans.
The tracer's own bookkeeping (timestamps, job-group switches) is timed and
reported as ``trace.overhead``.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

Observer = Callable[[tuple, dict, Any], dict]


@dataclass
class Span:
    idx: int
    name: str  # "<layer>.<function>"
    op: object  # operation index, "setup" or "warmup"
    parent: int | None
    start: float
    end: float = 0.0
    group: str | None = None  # Spark job group id, for Spark-running layers
    counters: dict[str, float] = field(default_factory=dict)
    jobs: int = 0
    tasks: int = 0


@dataclass(frozen=True)
class Target:
    """One public function (or ``Mesa`` method) to wrap."""

    module: str
    name: str
    layer: str
    spark: bool  # may run Spark jobs: give the span its own job group
    observe: Observer | None = None


def _rows_of_scan(a, k, out) -> dict:
    return {"rows": sum(len(v) for v in out.values())}


def _rows(a, k, out) -> dict:
    return {"rows": len(out)}


def _extraction(a, k, out) -> dict:
    from repro.kg.ned import linking_report

    rep = linking_report(out.links)
    return {
        "attrs": len(out.attrs),
        "linked": rep["n_linked"],
        "values": rep["n_values"],
    }


def _ipw(a, k, out) -> dict:
    attrs = k["attrs"] if "attrs" in k else a[1]
    return {"biased": len(out[2]), "attrs": len(attrs)}


def _mcimr(a, k, out) -> dict:
    # One trace entry per selection round (select or responsibility stop).
    return {"iterations": len(out.trace)}


def _subgroups(a, k, out) -> dict:
    return {"nodes": out.nodes_explored, "reported": len(out.groups)}


_INFO = (
    "entropy_from_counts", "cond_entropy_from_counts", "cmi_from_counts",
    "mi_from_counts", "cmi_corrected_from_counts", "g_test",
    "is_conditionally_independent", "chi2_sf",
)

TARGETS: tuple[Target, ...] = (
    Target("repro.core.mesa", "Mesa.explain", "mesa", True),
    Target("repro.core.mesa", "Mesa.prepare", "mesa", True),
    Target("repro.core.mesa", "Mesa.explain_prepared", "mesa", True),
    Target("repro.core.query", "apply_context", "query", False),
    Target("repro.core.query", "ensure_binned", "query", True),
    Target("repro.core.query", "bin_numeric", "query", True),
    Target("repro.core.query", "quantile_edges", "query", True),
    Target("repro.kg.extract", "extract_attributes", "kg", True, _extraction),
    Target("repro.kg.extract", "integrate", "kg", False),
    Target("repro.kg.ned", "link_values", "kg", False),
    Target("repro.core.pruning", "offline_prune_entity", "pruning", False),
    Target("repro.core.pruning", "offline_prune_rows", "pruning", True),
    Target("repro.core.pruning", "online_prune", "pruning", False),
    Target("repro.missing.ipw", "prepare_weights", "ipw", True, _ipw),
    Target("repro.missing.ipw", "detect_selection_bias_batch", "ipw", True),
    Target("repro.missing.ipw", "detect_selection_bias", "ipw", True),
    Target("repro.missing.ipw", "fit_propensity", "ipw", True),
    Target("repro.missing.ipw", "add_ipw_weight", "ipw", True),
    Target("repro.core.contingency", "scan_counts", "contingency", True, _rows_of_scan),
    Target("repro.core.contingency", "joint_counts", "contingency", True, _rows),
    Target("repro.core.contingency", "group_sizes", "contingency", True, _rows),
    *(Target("repro.core.info_theory", n, "info_theory", False) for n in _INFO),
    Target("repro.core.mcimr", "mcimr", "mcimr", True, _mcimr),
    Target("repro.core.mcimr", "individual_scores", "mcimr", False),
    Target("repro.core.mcimr", "conditional_cmi", "mcimr", True),
    Target("repro.core.mcimr", "combined_weight", "mcimr", False),
    Target("repro.core.responsibility", "responsibilities", "responsibility", True),
    Target("repro.core.subgroups", "top_k_unexplained", "subgroups", True, _subgroups),
    Target("repro.datasets.so", "make_so", "datasets", True),
    Target("repro.datasets.covid", "make_covid", "datasets", True),
    Target("repro.datasets.forbes", "make_forbes", "datasets", True),
    Target("repro.datasets.flights", "make_flights", "datasets", True),
    Target("repro.datasets.queries", "random_queries", "datasets", True),
)


class Tracer:
    def __init__(self, sc):
        self.sc = sc
        self.spans: list[Span] = []
        self.op: object = "setup"
        self.overhead_s: dict[object, float] = {}
        self._stack: list[Span] = []
        self._uncollected: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------
    def _enter(self, name: str, spark: bool) -> Span:
        t0 = time.perf_counter()
        parent = self._stack[-1] if self._stack else None
        span = Span(
            idx=len(self.spans),
            name=name,
            op=self.op,
            parent=parent.idx if parent else None,
            start=t0,
        )
        if spark:
            span.group = f"mesabench-{span.idx}"
            self.sc.setJobGroup(span.group, name)
            self._uncollected.append(span)
        self.spans.append(span)
        self._stack.append(span)
        self._add_overhead(time.perf_counter() - t0)
        return span

    def _exit(self, span: Span) -> None:
        t0 = time.perf_counter()
        self._stack.pop()
        if span.group is not None:
            # Restore the enclosing span's job group (or none).
            outer = next((s for s in reversed(self._stack) if s.group), None)
            if outer is None:
                self.sc.setLocalProperty("spark.jobGroup.id", None)
                self.sc.setLocalProperty("spark.job.description", None)
            else:
                self.sc.setJobGroup(outer.group, outer.name)
        span.end = time.perf_counter()
        self._add_overhead(span.end - t0)

    def _add_overhead(self, dt: float) -> None:
        self.overhead_s[self.op] = self.overhead_s.get(self.op, 0.0) + dt

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (the operation root)."""
        span = self._enter(name, True)
        try:
            yield span
        finally:
            self._exit(span)

    def _wrap(self, fn, name: str, t: Target):
        spark, observe = t.spark, t.observe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name, spark)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if observe is not None:
                t0 = time.perf_counter()
                span.counters.update(observe(args, kwargs, out))
                self._add_overhead(time.perf_counter() - t0)
            return out

        return traced

    # -- patching ------------------------------------------------------------
    def install(self, targets=TARGETS) -> None:
        for t in targets:
            mod = sys.modules[t.module]
            if "." in t.name:  # a method: patch the class attribute
                cls_name, meth = t.name.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(orig, f"{t.layer}.{meth}", t))
                continue
            orig = getattr(mod, t.name)
            wrapped = self._wrap(orig, f"{t.layer}.{t.name}", t)
            # Every namespace that imported the function by name.
            for m in list(sys.modules.values()):
                mname = getattr(m, "__name__", "") or ""
                if not (mname.startswith("repro") or mname in ("workloads", "__main__")):
                    continue
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, attr, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- Spark job attribution ----------------------------------------------
    def collect_jobs(self) -> None:
        """Attribute finished jobs/tasks to spans. Call between operations:
        waits for the listener bus so the status tracker is complete."""
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        st = self.sc.statusTracker()
        seen_stages: set[int] = set()
        for span in self._uncollected:
            ids = st.getJobIdsForGroup(span.group)
            span.jobs = len(ids)
            for j in ids:
                info = st.getJobInfo(j)
                for sid in info.stageIds if info else ():
                    if sid in seen_stages:
                        continue
                    seen_stages.add(sid)
                    sinfo = st.getStageInfo(sid)
                    span.tasks += sinfo.numCompletedTasks if sinfo else 0
        self._uncollected = []

    # -- derived -------------------------------------------------------------
    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - child[s.idx] for s in self.spans]

    def dump(self) -> list[dict]:
        selft = self.self_times()
        return [
            {
                "idx": s.idx, "name": s.name, "op": s.op, "parent": s.parent,
                "start": s.start, "end": s.end, "self_s": selft[s.idx],
                "jobs": s.jobs, "tasks": s.tasks, "counters": s.counters,
            }
            for s in self.spans
        ]
