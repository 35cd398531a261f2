"""HypDB-style baseline [Salimi et al., SIGMOD'18].

HypDB detects confounders of (T, O) through causal analysis: a covariate
is flagged when it is associated with the exposure AND with the outcome
given the exposure (the classical epidemiological confounder test), and
candidates are then ranked by their responsibility (the drop in I(O;T)
from conditioning on them).

Two fidelity points from the paper's §5 are preserved:

* HypDB cannot scale in |A| — the paper caps it at 50 randomly chosen
  candidates "to allow it to generate explanations in a reasonable time";
  ``max_attrs`` reproduces exactly that protocol (random uniform drop).
* Its explanations are *individually* ranked (no redundancy control among
  the selected set beyond the confounder test).

It runs on the prepared coded table; a candidate's responsibility is
MCIMR's support-aware drop (``repro.core.mcimr.support_drop``) and the
reported score the IPW-weighted I(O;T|C,E) of the selection.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping

import numpy as np
import pandas as pd

from repro.core.contingency import VAL_COL, CodedTable, joint_counts, scan_counts
from repro.core.info_theory import CNT, cmi_from_counts, mi_from_counts
from repro.core.mcimr import conditional_cmi, support_drop


@dataclass
class HypDBResult:
    selected: list[str]
    confounders: list[str]  # all candidates passing the confounder test
    delta: dict[str, float]  # individual responsibility: base - I(O;T|E)
    dropped_for_scale: int  # candidates discarded by the |A| <= cap protocol
    final_cmi: float
    base_cmi: float
    seconds: float


def hypdb(
    table: CodedTable,
    candidates: list[str],
    *,
    o_bin: str,
    t: str,
    k: int = 5,
    weights: Mapping[str, str] | None = None,
    scan: dict[str, pd.DataFrame] | None = None,
    max_attrs: int = 50,
    eps_bits: float = 0.01,
    seed: int = 0,
) -> HypDBResult:
    start = time.perf_counter()
    dropped = 0
    if len(candidates) > max_attrs:
        rng = np.random.default_rng(seed)
        keep = rng.choice(len(candidates), size=max_attrs, replace=False)
        dropped = len(candidates) - max_attrs
        candidates = [candidates[i] for i in sorted(keep)]
        scan = None  # the precomputed scan may cover a different set
    if scan is None:
        scan = scan_counts(table, [o_bin, t], candidates, weights)
    base_pdf = joint_counts(table, [o_bin, t])
    base = cmi_from_counts(base_pdf, o_bin, t)
    n_total = float(base_pdf[CNT].sum())
    confounders: list[str] = []
    delta: dict[str, float] = {}
    for a in candidates:
        pdf = scan.get(a)
        if pdf is None or pdf.empty:
            continue
        # Confounder test: associated with the exposure AND the outcome.
        # (The textbook "associated with O given T" variant degenerates
        # here: extracted attributes are functions of the exposure entity,
        # so conditioning on T fixes them — marginal association is the
        # meaningful test in the aggregate-query setting.)
        assoc_t = mi_from_counts(pdf, VAL_COL, t)
        assoc_o = mi_from_counts(pdf, VAL_COL, o_bin)
        if assoc_t > eps_bits and assoc_o > eps_bits:
            confounders.append(a)
            # Individual responsibility: the drop in I(O;T) when
            # conditioning on E, on E's own complete-case support.
            delta[a] = support_drop(pdf, o_bin, t, VAL_COL, n_total)
    ranked = sorted(confounders, key=lambda a: (-delta[a], a))
    selected = [a for a in ranked if delta[a] > 0][:k]
    final = conditional_cmi(table, o_bin, t, selected, weights) if selected else base
    return HypDBResult(
        selected=selected,
        confounders=confounders,
        delta=delta,
        dropped_for_scale=dropped,
        final_cmi=final,
        base_cmi=base,
        seconds=time.perf_counter() - start,
    )
