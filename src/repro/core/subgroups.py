"""Top-k unexplained data groups (Algorithm 2, §4.3).

Given a query's explanation E, find the k *largest* context refinements
C' ⊇ C whose explanation score ``I(O; T | C', E)`` exceeds a threshold τ —
subgroups where E is not a satisfactory explanation and the analyst should
look for a different one.

The refinement lattice is traversed top-down with a max-heap keyed on
group size. Each node is generated once (children only extend with
attributes strictly later in a canonical order). The search collects its
columns from the query frame once per call, as a
:class:`~repro.core.contingency.CodedTable`, and then works on the driver:
a subgroup is a boolean row mask; per popped node one joint
contingency gives the score, per expanded node one ``group_sizes`` call the
sizes of *all* children at once.
A node whose score exceeds τ is reported (unless an ancestor already was)
and not expanded — the algorithm returns the most general unexplained
groups, exactly as Prop 4.4 states.
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Mapping

from pyspark.sql import DataFrame

from repro.core.contingency import (
    ATTR_COL,
    VAL_COL,
    CodedTable,
    group_sizes,
    joint_counts,
)
from repro.core.info_theory import cmi_from_counts
from repro.core.mcimr import combined_weight, weight_cols


@dataclass(frozen=True)
class Refinement:
    """A context refinement: conjunction of (attr, value) conditions."""

    conds: tuple[tuple[str, str], ...]
    size: int
    score: float | None = None  # I(O;T | C', E) — the paper's metric
    ratio: float | None = None  # score / I(O;T | C') — noise-robust gate

    def describe(self) -> str:
        return " AND ".join(f"{a} = {v}" for a, v in self.conds)


@dataclass
class SubgroupSearchResult:
    groups: list[Refinement]
    nodes_explored: int = 0
    trace: list[dict] = field(default_factory=list)


def top_k_unexplained(
    df_ctx: DataFrame,
    *,
    explanation: list[str],
    refine_attrs: list[str],
    o_bin: str,
    t: str,
    k: int = 5,
    tau: float = 0.2,
    tau_ratio: float = 0.5,
    weights: Mapping[str, str] | None = None,
    min_size: int = 50,
    max_nodes: int = 200,
) -> SubgroupSearchResult:
    """Algorithm 2 over the (already context-filtered) query frame.

    ``refine_attrs`` are the categorical/binned attributes whose value
    assignments define refinements (the paper refines over the binned
    dataset attributes). ``min_size`` skips groups too small for a stable
    CMI estimate; ``max_nodes`` bounds the traversal defensively.

    A group is reported when its explanation score ``I(O;T|C',E)`` exceeds
    ``tau`` AND its *relative* score ``I(O;T|C',E)/I(O;T|C')`` exceeds
    ``tau_ratio``. The ratio gate is the estimator-noise guard: on small
    groups the plug-in CMI is inflated, but numerator and denominator are
    estimated on the same support so the inflation cancels — "unexplained"
    then genuinely means "the explanation stops working inside C'", not
    "C' is small".
    """
    refine_attrs = [a for a in refine_attrs if a != t and a != o_bin]
    table = CodedTable.collect(
        df_ctx,
        [o_bin, t, *explanation, *refine_attrs],
        weight_cols(explanation, weights),
    )
    table, wcol = combined_weight(table, explanation, weights)
    order = {a: i for i, a in enumerate(refine_attrs)}
    results: list[Refinement] = []
    trace: list[dict] = []
    counter = itertools.count()  # heap tie-breaker
    heap: list[tuple[int, int, tuple[tuple[str, str], ...]]] = []

    def push_children(sub: CodedTable, conds: tuple[tuple[str, str], ...]):
        last = max((order[a] for a, _ in conds), default=-1)
        attrs_after = [a for a in refine_attrs if order[a] > last]
        if not attrs_after:
            return
        sizes = group_sizes(sub, attrs_after)
        for _, row in sizes.iterrows():
            size = int(row["size"])
            if size >= min_size:
                child = conds + ((str(row[ATTR_COL]), str(row[VAL_COL])),)
                heapq.heappush(heap, (-size, next(counter), child))

    push_children(table, ())
    explored = 0
    while heap and len(results) < k and explored < max_nodes:
        neg_size, _, conds = heapq.heappop(heap)
        size = -neg_size
        explored += 1
        sub = table.where(table.mask(conds))
        # One joint contingency yields both the conditioned score and the
        # group's own baseline (marginalize the explanation columns).
        pdf = joint_counts(sub, [o_bin, t, *explanation], weight_col=wcol)
        score = cmi_from_counts(pdf, o_bin, t, explanation)
        base_g = cmi_from_counts(pdf, o_bin, t)
        ratio = score / base_g if base_g > 1e-9 else 0.0
        trace.append(
            {"conds": conds, "size": size, "score": score, "ratio": ratio}
        )
        if score > tau and ratio > tau_ratio:
            # update(R, C'): report unless an ancestor is already reported.
            cond_set = set(conds)
            if not any(set(r.conds) <= cond_set for r in results):
                results.append(
                    Refinement(conds=conds, size=size, score=score, ratio=ratio)
                )
        else:
            push_children(sub, conds)
    return SubgroupSearchResult(
        groups=results, nodes_explored=explored, trace=trace
    )
