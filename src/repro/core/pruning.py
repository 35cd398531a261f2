"""Pruning optimizations (§4.2).

Two families, exactly as the paper stages them:

* **Offline (across-queries, pre-processing)** — drop attributes that can
  never be interesting explanations: constant value, >90% missing values,
  or near-unique "id-like" high-entropy columns (WIKIID). One rule,
  ``offline_row_decide``, reads exact non-null and distinct counts off a
  dictionary-coded table: at the row level for input-table candidates
  (``Mesa.prepare``'s raw collect of the context), and at the entity level
  for extracted attributes (the universal relation coded once per entity,
  doubles by bit pattern, so ``-0.0`` and ``0.0`` count as two values at
  both levels, as Spark's ``CAST(x AS STRING)`` spells them).
* **Online (query-specific)** — once O and T are known: drop attributes
  logically dependent on T or O (approximate FDs, ``H(T|E) ≈ H(E|T) ≈ 0``)
  and attributes with low individual relevance (``O ⟂ E | C`` and
  ``O ⟂ E | C, T``). Both are computed from the *same* scan contingencies
  the MCIMR step uses, so online pruning costs no extra Spark pass.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.contingency import VAL_COL, CodedTable
from repro.core.info_theory import (
    cmi_corrected_from_counts,
    cond_entropy_from_counts,
)
from repro.core.query import is_numeric


@dataclass
class PruneReport:
    """Which attribute was dropped at which stage, and why."""

    dropped: dict[str, str] = field(default_factory=dict)

    def drop(self, attr: str, reason: str) -> None:
        self.dropped[attr] = reason

    def reasons(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.dropped.values():
            out[r] = out.get(r, 0) + 1
        return out


def row_counts(table: CodedTable, attr: str) -> tuple[int, int]:
    """``attr``'s exact non-null and distinct counts in ``table``, a fresh
    coding (whose labels are exactly the observed values)."""
    return int(np.count_nonzero(table.codes[attr] >= 0)), len(table.labels[attr])


def offline_row_decide(
    table: CodedTable,
    attrs: Sequence[str],
    numeric: Container[str],
    *,
    max_missing: float = 0.9,
    unique_ratio: float = 0.95,
) -> tuple[list[str], PruneReport]:
    """The offline rule, from each attribute's ``row_counts`` over the rows
    of ``table``: the context's rows for input-table candidates, the
    universal relation's entities for extracted ones. Drops an attribute
    that is missing on more than ``max_missing`` of the rows, constant, or
    (when not in ``numeric``) id-like."""
    report = PruneReport()
    kept: list[str] = []
    n = table.n_rows
    for a in attrs:
        n_obs, n_dist = row_counts(table, a)
        if n and n_obs < (1 - max_missing) * n:
            report.drop(a, "missing")
        elif n_dist <= 1:
            report.drop(a, "constant")
        elif (
            # High-entropy/near-unique pruning targets *id-like string*
            # columns (WIKIID). Continuous measurements are naturally
            # unique and get binned downstream — never prune those.
            a not in numeric
            and n_obs > 2
            and n_dist >= unique_ratio * n_obs
        ):
            report.drop(a, "high_entropy")
        else:
            kept.append(a)
    return kept, report


def offline_prune_entity(
    entities: CodedTable,
    attrs: Sequence[str],
    numeric: Container[str],
    *,
    max_missing: float = 0.9,
    unique_ratio: float = 0.95,
) -> tuple[list[str], PruneReport]:
    """Offline pruning of extracted attributes on the universal relation
    coded once per entity (``Mesa``'s ``entity_table``): ``offline_row_decide``
    over its entities; ``numeric`` names the double attributes."""
    return offline_row_decide(
        entities, attrs, numeric, max_missing=max_missing, unique_ratio=unique_ratio
    )


def offline_prune_rows(
    df: DataFrame,
    attrs: list[str],
    *,
    max_missing: float = 0.9,
    unique_ratio: float = 0.95,
) -> tuple[list[str], PruneReport]:
    """Offline pruning of row-level candidates: one collect of ``attrs``,
    then ``offline_row_decide``, the rule ``Mesa.prepare`` applies."""
    if not attrs:
        return [], PruneReport()
    return offline_row_decide(
        CodedTable.collect(df, attrs),
        attrs,
        {a for a in attrs if is_numeric(df, a)},
        max_missing=max_missing,
        unique_ratio=unique_ratio,
    )


def online_prune(
    scan: dict[str, pd.DataFrame],
    attrs: list[str],
    *,
    o_bin: str,
    t: str,
    eps_fd: float = 0.05,
    eps_rel: float = 0.01,
) -> tuple[list[str], PruneReport]:
    """Query-specific pruning from the precomputed scan contingencies.

    Each ``scan[attr]`` frame holds the joint (E, O, T) counts, from which
    all four conditional entropies and both relevance CMIs marginalize for
    free — no additional Spark work.
    """
    report = PruneReport()
    kept: list[str] = []
    for a in attrs:
        pdf = scan.get(a)
        if pdf is None or pdf.empty:
            report.drop(a, "missing")
            continue
        # Logical dependency: drop E when the approximate FD E ⇒ T holds
        # (H(T|E) ≈ 0 — conditioning on such an E trivially zeroes
        # I(O;T|E), Lemma A.2), or when E ⇒ O. The reverse direction
        # (T ⇒ E, a *coarsening* like Continent for T=Country) stays a
        # legitimate candidate.
        if (
            cond_entropy_from_counts(pdf, [t], [VAL_COL]) < eps_fd
            or cond_entropy_from_counts(pdf, [o_bin], [VAL_COL]) < eps_fd
        ):
            report.drop(a, "logical_dependency")
            continue
        # Low relevance: (O ⟂ E | C) and (O ⟂ E | C, T), bias-corrected so
        # sparse attributes don't pass on plug-in inflation alone.
        rel = cmi_corrected_from_counts(pdf, o_bin, VAL_COL)
        rel_t = cmi_corrected_from_counts(pdf, o_bin, VAL_COL, t)
        if rel < eps_rel and rel_t < eps_rel:
            report.drop(a, "low_relevance")
            continue
        kept.append(a)
    return kept, report
