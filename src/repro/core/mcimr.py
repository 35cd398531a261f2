"""The MCIMR algorithm (Algorithm 1).

Greedy selection of the explanation set: at each iteration the next
attribute minimizes

    I(O; T | C, E)  +  (1/|E_sel|) · Σ_{E' ∈ E_sel} I(E; E')

— the Min-Conditional-mutual-Information plus Min-Redundancy criterion
(Eq. 5), which Theorem 4.1 shows tracks the optimal k-size solution of
Eq. 1 while only ever estimating *bivariate* distributions. The
**responsibility test** (Lemma 4.2) stops the loop when the candidate to
be added is conditionally independent of O given the already-selected set,
i.e. its responsibility would be ≤ 0; ``k`` is therefore an upper bound.

Cost per run: every contingency is counted on the driver from the coded
analysis table (:class:`~repro.core.contingency.CodedTable`), so a run
starts no Spark job. The individual CMI terms come from one scan (shared
with online pruning), the redundancy terms from one scan per iteration
against the newly selected attribute, and each responsibility test from one
joint contingency.

The support-aware score of an attribute set, ``base − support_drop``, is
shared by MCIMR's MCI term, Top-K, HypDB's responsibility and Brute-Force's
objective (:func:`support_drop`).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
import pandas as pd

from repro.core.contingency import VAL_COL, CodedTable, joint_counts, scan_counts
from repro.core.info_theory import (
    CNT,
    cmi_from_counts,
    cond_entropy_from_counts,
    entropy_from_counts,
    is_conditionally_independent,
    mi_from_counts,
)


def weight_cols(attrs: list[str], weights: Mapping[str, str] | None) -> list[str]:
    """The IPW weight columns of the weighted attributes among ``attrs``."""
    return [weights[a] for a in attrs if a in weights] if weights else []


def combined_weight(
    table: CodedTable, attrs: list[str], weights: Mapping[str, str] | None
) -> tuple[CodedTable, str | None]:
    """Product of the IPW weight columns of ``attrs`` (unit where absent).

    Used for multi-attribute conditioning sets (final CMI, responsibility,
    subgroup scores), where each biased attribute contributes its own
    complete-case correction. Returns the table with the product added as a
    weight column, and its name (``None``, table unchanged, when no
    attribute is weighted).
    """
    wcols = weight_cols(attrs, weights)
    if not wcols:
        return table, None
    w = np.ones(table.n_rows)
    for c in wcols:
        w = w * table.weights[c]
    out = "__w_combined"
    return table.with_weight(out, w), out


def conditional_cmi(
    table: CodedTable,
    o_bin: str,
    t: str,
    cond: list[str],
    weights: Mapping[str, str] | None = None,
) -> float:
    """I(O; T | cond) on complete cases of ``cond``, IPW-weighted."""
    return cmi_from_counts(
        cond_counts(table, o_bin, t, cond, weights), o_bin, t, cond
    )


def cond_counts(
    table: CodedTable,
    o_bin: str,
    t: str,
    cond: list[str],
    weights: Mapping[str, str] | None,
) -> pd.DataFrame:
    """The (O, T, *cond) contingency weighted by cond's combined weight."""
    table, wcol = combined_weight(table, cond, weights)
    return joint_counts(table, [o_bin, t, *cond], weight_col=wcol)


def support_drop(
    pdf: pd.DataFrame,
    o_bin: str,
    t: str,
    cond: str | list[str],
    n_total: float,
) -> float:
    """The support-aware explanatory drop of conditioning on ``cond``.

    ``pdf`` is an (O, T, *cond) contingency on cond's own complete-case
    support. Complete-case supports differ per attribute set, so plug-in
    CMIs are not comparable across sets — a sparse set's CMI is spuriously
    deflated by its restricted entity set. The drop ``I(O;T) − I(O;T|cond)``
    is therefore measured on the set's own support (base and conditional
    share it, so estimation biases cancel) and weighted by the support
    share ``|support| / n_total`` (an attribute observed on 40% of the rows
    can explain at most 40% of the correlation mass). A set's score is
    ``base_cmi − support_drop``; for fully observed attributes it reduces
    exactly to the plug-in I(O;T|C,E). An empty contingency drops nothing.
    """
    if pdf.empty:
        return 0.0
    base_s = cmi_from_counts(pdf, o_bin, t)
    drop = max(0.0, base_s - cmi_from_counts(pdf, o_bin, t, cond))
    share = min(1.0, float(pdf[CNT].sum()) / n_total) if n_total else 0.0
    return share * drop


def individual_scores(
    scan: Mapping[str, pd.DataFrame],
    *,
    o_bin: str,
    t: str,
    base_cmi: float,
    n_total: float,
) -> dict[str, float]:
    """Support-aware individual explanation score per candidate (the MCI
    term of Eq. 5), shared by MCIMR and the Top-K baseline:
    ``base_cmi − support_drop`` on the candidate's scan contingency (see
    :func:`support_drop`).
    """
    v1: dict[str, float] = {}
    for a, pdf in scan.items():
        if pdf.empty:
            continue
        # Lemma A.2 guard, independent of the pruning stages (so MESA⁻ —
        # "no pruning" — cannot degenerate either): an attribute that
        # functionally determines T (or O), like a unique WIKIID, zeroes
        # I(O;T|E) trivially and is never a valid explanation.
        if (
            cond_entropy_from_counts(pdf, [t], [VAL_COL]) < 0.05
            or cond_entropy_from_counts(pdf, [o_bin], [VAL_COL]) < 0.05
        ):
            continue
        v1[a] = max(0.0, base_cmi - support_drop(pdf, o_bin, t, VAL_COL, n_total))
    return v1


@dataclass
class ExplanationResult:
    """Output of one MCIMR run."""

    selected: list[str]
    base_cmi: float  # I(O;T|C)
    final_cmi: float  # I(O;T|C,E)
    individual_cmi: dict[str, float] = field(default_factory=dict)
    trace: list[dict] = field(default_factory=list)
    stopped_by_responsibility: bool = False
    seconds: float = 0.0
    #: the (O, T, *selected) contingency final_cmi was computed from
    final_counts: pd.DataFrame | None = field(default=None, repr=False)

    @property
    def explainability(self) -> float:
        """The paper's explainability score: I(O;T|E) — 0 is perfect."""
        return self.final_cmi


def mcimr(
    table: CodedTable,
    candidates: list[str],
    *,
    o_bin: str,
    t: str,
    k: int = 5,
    weights: Mapping[str, str] | None = None,
    scan: dict[str, pd.DataFrame] | None = None,
    eps_resp: float = 0.01,
    alpha: float = 0.05,
) -> ExplanationResult:
    """Run Algorithm 1. ``scan`` may carry precomputed (E, O, T)
    contingencies (shared with online pruning) to skip the first pass."""
    start = time.perf_counter()
    if scan is None:
        scan = scan_counts(table, [o_bin, t], candidates, weights)
    # I(O;T|C) carries no weight: no attribute is conditioned on.
    base_pdf = joint_counts(table, [o_bin, t])
    base_cmi = cmi_from_counts(base_pdf, o_bin, t)
    n_total = float(base_pdf[CNT].sum())
    # Restrict to the candidate list — the precomputed scan may also carry
    # attributes that online pruning has since removed.
    v1 = individual_scores(
        {a: scan[a] for a in candidates if a in scan},
        o_bin=o_bin,
        t=t,
        base_cmi=base_cmi,
        n_total=n_total,
    )
    selected: list[str] = []
    red_sum = {a: 0.0 for a in v1}
    trace: list[dict] = []
    stopped = False
    for _ in range(k):
        remaining = [a for a in v1 if a not in selected]
        if not remaining:
            break
        if selected:
            # Min-Redundancy term (Eq. 5). Estimator note: the raw pairwise
            # MI between two *entity-level* attributes is dominated by the
            # fact that both partition the same small entity set (two
            # independent 8-bin partitions of 60 countries share ~1 bit of
            # structural MI), which would drown the relevance signal. We
            # therefore use redundancy in *normalized* units —
            # I(E;S)/min(H(E),H(S)) ∈ [0,1], 1 ⇔ informational duplicate —
            # rescaled by the query's base CMI so the penalty is
            # commensurate with the MCI term. Informational duplicates
            # (HDI vs HDI_Rank) get the maximal penalty, independent
            # partitions a small one, exactly Eq. 5's intent.
            score = {
                a: v1[a] + base_cmi * red_sum[a] / len(selected)
                for a in remaining
            }
        else:
            score = {a: v1[a] for a in remaining}
        best = min(remaining, key=lambda a: (score[a], a))
        # Responsibility test (Lemma 4.2): O ⟂ best | selected ⇒ Resp ≤ 0.
        tw, wcol = combined_weight(table, [best, *selected], weights)
        resp_pdf = joint_counts(tw, [o_bin, best, *selected], weight_col=wcol)
        if is_conditionally_independent(
            resp_pdf, o_bin, best, selected, alpha=alpha, eps_bits=eps_resp
        ):
            stopped = True
            trace.append(
                {"attr": best, "score": score[best], "action": "stop"}
            )
            break
        selected.append(best)
        trace.append({"attr": best, "score": score[best], "action": "select"})
        # Update redundancy sums with I(E; best) for every remaining E —
        # one scan with the new selection as the fixed column.
        rest = [a for a in v1 if a not in selected]
        if rest and len(selected) < k:
            red_scan = scan_counts(table, [best], rest, weights)
            for a in rest:
                if not red_scan[a].empty:
                    mi = mi_from_counts(red_scan[a], VAL_COL, best)
                    h_best = entropy_from_counts(red_scan[a], [best])
                    h_a = entropy_from_counts(red_scan[a], [VAL_COL])
                    denom = min(h_a, h_best)
                    red_sum[a] += min(1.0, mi / denom) if denom > 1e-9 else 1.0
    final_counts = (
        cond_counts(table, o_bin, t, selected, weights) if selected else base_pdf
    )
    return ExplanationResult(
        selected=selected,
        base_cmi=base_cmi,
        final_cmi=cmi_from_counts(final_counts, o_bin, t, selected),
        final_counts=final_counts,
        individual_cmi=v1,
        trace=trace,
        stopped_by_responsibility=stopped,
        seconds=time.perf_counter() - start,
    )
