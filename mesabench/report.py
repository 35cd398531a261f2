"""Metric derivation: end-to-end metrics from the op records, per-layer
metrics from the traced run's spans.

Per-layer values are means per measured operation (so the layer times
decompose the mean latency), ratios are ratios of sums. A workload that runs
the prepare-side layers only in set-up (``drilldown``) reports those layers
from its one set-up ``prepare`` instead.
"""
from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable

import numpy as np

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND_TAIL = 10


@dataclass
class OpRecord:
    idx: int
    label: str
    latency_s: float
    ok: bool
    error: str | None = None
    score: float | None = None  # surrogate user score (catalog queries)
    cmi_bits: float | None = None  # final I(O;T|C,E)
    cands_initial: int = 0
    cands_online: int = 0


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(latencies)
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= MIN_BEYOND_TAIL:
            return p, float(np.percentile(latencies, p))
    return None


def end_to_end(
    ops: list[OpRecord], setup_s: float, peak_rss_mb: float
) -> dict[str, tuple[float | None, str]]:
    done = [r for r in ops if r.ok]
    lat = [r.latency_s for r in done]
    scores = [r.score for r in done if r.score is not None]
    t = tail(lat) if lat else None
    return {
        "latency_p50_s": (statistics.median(lat) if lat else None, "s"),
        "latency_tail_s": (t[1] if t else None, f"s@p{t[0]:g}" if t else "s"),
        # Closed loop, one client: completed ops per minute of op time.
        "throughput_ops_per_min": (60.0 * len(lat) / sum(lat) if lat else None, "ops/min"),
        "error_rate": (
            (len(ops) - len(done)) / len(ops) if ops else None,
            "ratio",
        ),
        "explanation_score": (statistics.fmean(scores) if scores else None, "score"),
        "explainability_bits": (
            statistics.fmean(r.cmi_bits for r in done) if done else None,
            "bits",
        ),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------


class Spans:
    """The spans of one phase (measured ops, or set-up) with helpers."""

    def __init__(self, spans: list[dict], keep: Callable[[dict], bool]):
        self.all = {s["idx"]: s for s in spans}
        self.spans = [s for s in spans if keep(s)]

    def _match(self, s: dict, names: tuple[str, ...]) -> bool:
        return s["name"] in names or s["name"].split(".")[0] in names

    def _outermost(self, names: tuple[str, ...]) -> list[dict]:
        out = []
        for s in self.spans:
            if not self._match(s, names):
                continue
            p = s["parent"]
            while p is not None and not self._match(self.all[p], names):
                p = self.all[p]["parent"]
            if p is None:
                out.append(s)
        return out

    def self_s(self, *names: str) -> float:
        """Self time of spans named ``names`` (or of whole layers)."""
        return sum(s["self_s"] for s in self.spans if self._match(s, names))

    def incl_s(self, *names: str) -> float:
        return sum(s["end"] - s["start"] for s in self._outermost(names))

    def calls(self, *names: str) -> int:
        """Calls into ``names`` from outside them."""
        return len(self._outermost(names))

    def counter(self, name: str, key: str) -> float:
        return sum(s["counters"].get(key, 0) for s in self.spans if s["name"] == name)

    def jobs_under(self, *names: str) -> int:
        roots = {s["idx"] for s in self._outermost(names)}
        total = 0
        for s in self.spans:
            p = s["idx"]
            while p is not None and p not in roots:
                p = self.all[p]["parent"]
            if p is not None:
                total += s["jobs"]
        return total

    def total(self, key: str) -> int:
        return sum(s[key] for s in self.spans)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


#: per-layer metric -> (unit, side, derivation). side "prep": from set-up in
#: workloads that prepare only in set-up.
PER_LAYER: dict[str, tuple[str, str, Callable[[Spans], float]]] = {
    "mesa.prepare_s": ("s", "prep", lambda s: s.incl_s("mesa.prepare")),
    "mesa.explain_prepared_s": ("s", "op", lambda s: s.incl_s("mesa.explain_prepared")),
    "query.bin_s": ("s", "prep", lambda s: s.self_s(
        "query.ensure_binned", "query.bin_numeric", "query.quantile_edges")),
    "query.bin_jobs": ("count", "prep", lambda s: s.jobs_under("query.ensure_binned")),
    "query.binned_cols": ("count", "prep", lambda s: s.calls("query.bin_numeric")),
    "kg.extract_s": ("s", "prep", lambda s: s.self_s("kg")),
    "kg.attrs_extracted": ("count", "prep", lambda s: s.counter("kg.extract_attributes", "attrs")),
    "pruning.offline_s": ("s", "prep", lambda s: s.self_s(
        "pruning.offline_prune_entity", "pruning.offline_prune_rows")),
    "pruning.online_s": ("s", "op", lambda s: s.self_s("pruning.online_prune")),
    "ipw.s": ("s", "prep", lambda s: s.self_s("ipw")),
    "ipw.jobs": ("count", "prep", lambda s: s.jobs_under("ipw.prepare_weights")),
    "contingency.scan_s": ("s", "op", lambda s: s.self_s("contingency.scan_counts")),
    "contingency.scan_calls": ("count", "op", lambda s: s.calls("contingency.scan_counts")),
    "contingency.rows_collected": ("count", "op", lambda s: sum(
        s.counter(f"contingency.{f}", "rows")
        for f in ("scan_counts", "joint_counts", "group_sizes"))),
    "contingency.joint_s": ("s", "op", lambda s: s.self_s("contingency.joint_counts")),
    "contingency.joint_calls": ("count", "op", lambda s: s.calls("contingency.joint_counts")),
    "contingency.group_sizes_s": ("s", "op", lambda s: s.self_s("contingency.group_sizes")),
    "info_theory.s": ("s", "op", lambda s: s.self_s("info_theory")),
    "info_theory.calls": ("count", "op", lambda s: s.calls("info_theory")),
    "mcimr.s": ("s", "op", lambda s: s.self_s("mcimr")),
    "mcimr.iterations": ("count", "op", lambda s: s.counter("mcimr.mcimr", "iterations")),
    "responsibility.s": ("s", "op", lambda s: s.self_s("responsibility")),
    "subgroups.s": ("s", "op", lambda s: s.self_s("subgroups")),
    "subgroups.nodes_explored": ("count", "op", lambda s: s.counter(
        "subgroups.top_k_unexplained", "nodes")),
    "spark.jobs_per_op": ("count", "op", lambda s: s.total("jobs")),
    "spark.tasks_per_op": ("count", "op", lambda s: s.total("tasks")),
}

#: ratios of sums (the same on a per-op or per-run basis)
RATIOS: dict[str, tuple[str, Callable[[Spans], tuple[float, float]]]] = {
    "kg.link_rate": ("prep", lambda s: (
        s.counter("kg.extract_attributes", "linked"),
        s.counter("kg.extract_attributes", "values"))),
    "ipw.biased_ratio": ("prep", lambda s: (
        s.counter("ipw.prepare_weights", "biased"),
        s.counter("ipw.prepare_weights", "attrs"))),
    "subgroups.reported_per_node": ("op", lambda s: (
        s.counter("subgroups.top_k_unexplained", "reported"),
        s.counter("subgroups.top_k_unexplained", "nodes"))),
}

#: per-op counts the traced-run self-check requires to repeat exactly
REPEAT_COUNTS = (
    "spark.jobs_per_op", "contingency.scan_calls", "contingency.joint_calls",
    "mcimr.iterations", "subgroups.nodes_explored", "query.bin_jobs",
)


def per_layer(
    spans: list[dict],
    ops: list[OpRecord],
    *,
    prepare_in_setup: bool,
    gen_s: float,
    overhead_s: float,
) -> dict[str, tuple[float, str]]:
    op_ids = {r.idx for r in ops}
    in_ops = Spans(spans, lambda s: s["op"] in op_ids)
    in_setup = Spans(spans, lambda s: s["op"] == "setup")
    n_ops = max(1, len(ops))
    out: dict[str, tuple[float, str]] = {}
    for name, (unit, side, f) in PER_LAYER.items():
        if side == "prep" and prepare_in_setup:
            out[name] = (float(f(in_setup)), unit)  # one set-up prepare
        else:
            out[name] = (f(in_ops) / n_ops, unit)
    for name, (side, f) in RATIOS.items():
        src = in_setup if side == "prep" and prepare_in_setup else in_ops
        out[name] = (_ratio(*f(src)), "ratio")
    out["pruning.kept_ratio"] = (
        _ratio(sum(r.cands_online for r in ops), sum(r.cands_initial for r in ops)),
        "ratio",
    )
    out["datasets.gen_s"] = (gen_s, "s")
    out["trace.overhead"] = (_ratio(overhead_s, sum(r.latency_s for r in ops)), "ratio")
    return out


def op_counts(spans: list[dict], op_idx: int) -> dict[str, float]:
    """The repeat-checked counts of one operation."""
    s = Spans(spans, lambda sp: sp["op"] == op_idx)
    return {name: PER_LAYER[name][2](s) for name in REPEAT_COUNTS}


def self_time_gap(spans: list[dict], op_idx: int, wall_s: float) -> float:
    """Operation wall time not covered by span self times (>= 0 when spans
    nest properly inside the operation)."""
    return wall_s - sum(s["self_s"] for s in spans if s["op"] == op_idx)
