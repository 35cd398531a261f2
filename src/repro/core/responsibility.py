"""Degree of responsibility of selected attributes (Def 2.2).

    Resp(E_i) = [I(O;T | E \\ {E_i}, C) − I(O;T | E, C)]
                / Σ_j [I(O;T | E \\ {E_j}, C) − I(O;T | E, C)]

All leave-one-out CMIs marginalize from a *single* joint contingency over
(O, T, E₁…E_m), counted on the driver — the same contingency MCIMR's final
I(O;T|C,E) is computed from, which it can pass in as ``counts``. (The
contingency is restricted to complete cases of all of E, so each
leave-one-out term uses the same support; this is the standard estimator
trade-off and keeps the numerator comparisons consistent.)
"""
from __future__ import annotations

from typing import Mapping

import pandas as pd

from repro.core.contingency import CodedTable
from repro.core.info_theory import cmi_from_counts
from repro.core.mcimr import cond_counts


def responsibilities(
    table: CodedTable,
    selected: list[str],
    *,
    o_bin: str,
    t: str,
    weights: Mapping[str, str] | None = None,
    counts: pd.DataFrame | None = None,
) -> dict[str, float]:
    """Responsibility of each attribute in ``selected`` (sums to 1 when the
    denominator is positive; a negative value flags an attribute that only
    harms the explanation, as in Example 2.4).

    ``counts`` is the (O, T, *selected) contingency weighted by the combined
    weight of ``selected``, when the caller already has it.
    """
    if not selected:
        return {}
    if counts is None:
        counts = cond_counts(table, o_bin, t, selected, weights)
    full = cmi_from_counts(counts, o_bin, t, selected)
    deltas = {
        e: cmi_from_counts(counts, o_bin, t, [x for x in selected if x != e])
        - full
        for e in selected
    }
    denom = sum(deltas.values())
    if abs(denom) < 1e-12:
        # No attribute contributes: equal (zero-information) split.
        return {e: 0.0 for e in selected}
    return {e: d / denom for e, d in deltas.items()}
