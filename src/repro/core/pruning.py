"""Pruning optimizations (§4.2).

Two families, exactly as the paper stages them:

* **Offline (across-queries, pre-processing)** — drop attributes that can
  never be interesting explanations: constant value, >90% missing values,
  or near-unique "id-like" high-entropy columns (WIKIID). Runs at the
  entity level on the extracted universal relation (cheap pandas) and at
  the row level for input-table candidates (exact non-null and distinct
  counts over collected labels: ``Mesa.prepare`` reads them off its raw
  collect of the context).
* **Online (query-specific)** — once O and T are known: drop attributes
  logically dependent on T or O (approximate FDs, ``H(T|E) ≈ H(E|T) ≈ 0``)
  and attributes with low individual relevance (``O ⟂ E | C`` and
  ``O ⟂ E | C, T``). Both are computed from the *same* scan contingencies
  the MCIMR step uses, so online pruning costs no extra Spark pass.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

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


def offline_prune_entity(
    wide: pd.DataFrame,
    attrs: list[str],
    *,
    max_missing: float = 0.9,
    unique_ratio: float = 0.95,
) -> tuple[list[str], PruneReport]:
    """Offline pruning on the entity-level universal relation."""
    report = PruneReport()
    kept: list[str] = []
    n = len(wide)
    for a in attrs:
        col = wide[a]
        observed = col.dropna()
        if n and len(observed) < (1 - max_missing) * n:
            report.drop(a, "missing")
            continue
        nunique = observed.nunique()
        if nunique <= 1:
            report.drop(a, "constant")
            continue
        # High-entropy/near-unique pruning targets *id-like string*
        # columns (WIKIID). Continuous measurements are naturally unique
        # per entity and get binned downstream — never prune those.
        is_num = pd.api.types.is_numeric_dtype(col)
        if not is_num and len(observed) > 2 and nunique >= unique_ratio * len(
            observed
        ):
            report.drop(a, "high_entropy")
            continue
        kept.append(a)
    return kept, report


def row_counts(table: CodedTable, attr: str) -> tuple[int, int]:
    """``attr``'s exact non-null and distinct counts in ``table``, a fresh
    collect (whose labels are exactly the observed values)."""
    return int(np.count_nonzero(table.codes[attr] >= 0)), len(table.labels[attr])


def offline_row_decide(
    df: DataFrame,
    attrs: Sequence[str],
    table: CodedTable,
    *,
    max_missing: float = 0.9,
    unique_ratio: float = 0.95,
) -> tuple[list[str], PruneReport]:
    """Offline pruning of row-level candidates from their ``row_counts``
    in ``table``, a collect of ``df`` (which supplies the column types)."""
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
            not is_numeric(df, a)  # see offline_prune_entity: ids only
            and n_obs > 2
            and n_dist >= unique_ratio * n_obs
        ):
            report.drop(a, "high_entropy")
        else:
            kept.append(a)
    return kept, report


def offline_prune_rows(
    df: DataFrame,
    attrs: list[str],
    *,
    max_missing: float = 0.9,
    unique_ratio: float = 0.95,
) -> tuple[list[str], PruneReport]:
    """Offline pruning of row-level candidates: one collect of ``attrs``,
    then ``offline_row_decide``, the counts ``Mesa.prepare`` uses."""
    if not attrs:
        return [], PruneReport()
    return offline_row_decide(
        df,
        attrs,
        CodedTable.collect(df, attrs),
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
