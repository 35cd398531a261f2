"""Brute-Force baseline: exhaustive search of Def 2.1.

``E* = argmin_{E ⊆ A, 1 ≤ |E| ≤ k}  I(O;T|E,C) · |E|`` (ties → smaller CMI,
then smaller set, then lexicographic). The paper runs it only on the small
datasets (Covid-19, Forbes) — it is deliberately infeasible at scale, and
serves as the gold standard for explainability scores.

Implementation: the analysis columns are collected to the driver once as a
coded table (guarded by ``max_rows``), then every subset's contingency is a
``joint_counts`` call on it. Complete cases are taken per subset, matching
the estimator semantics of MESA.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from pyspark.sql import DataFrame

from repro.core.contingency import CodedTable, as_table, joint_counts
from repro.core.info_theory import CNT, cmi_from_counts


@dataclass
class BruteForceResult:
    selected: list[str]
    objective: float
    final_cmi: float
    base_cmi: float
    n_subsets: int
    seconds: float


def _subset_score(
    table: CodedTable, o_bin: str, t: str, combo: tuple[str, ...], base: float
) -> float:
    """Support-aware I(O;T|E) for a subset — same estimator as
    ``repro.core.mcimr.individual_scores``, generalized to sets: the
    explanatory drop is measured on the subset's own complete-case support
    and weighted by the support share, so sparse subsets cannot win with a
    degenerate near-empty contingency."""
    cont = joint_counts(table, [o_bin, t, *combo])
    if cont.empty:
        return base
    base_s = cmi_from_counts(cont, o_bin, t)
    cond = cmi_from_counts(cont, o_bin, t, list(combo))
    share = float(cont[CNT].sum()) / table.n_rows
    return max(0.0, base - share * max(0.0, base_s - cond))


def brute_force(
    df: DataFrame,
    candidates: list[str],
    *,
    o_bin: str,
    t: str,
    k: int = 5,
    max_rows: int = 200_000,
    max_candidates: int = 20,
) -> BruteForceResult:
    """Exhaustive Def 2.1. Raises if the instance is too large — by design:
    the paper could not run Brute-Force on SO/Flights either."""
    if len(candidates) > max_candidates:
        raise ValueError(
            f"brute force over {len(candidates)} candidates is infeasible "
            f"(cap {max_candidates}); the paper only ran it on small datasets"
        )
    n = df.count()
    if n > max_rows:
        raise ValueError(f"brute force on {n} rows exceeds cap {max_rows}")
    start = time.perf_counter()
    table = as_table(df, [o_bin, t, *candidates])
    base = cmi_from_counts(joint_counts(table, [o_bin, t]), o_bin, t)
    best: tuple | None = None
    n_subsets = 0
    for size in range(1, k + 1):
        for combo in itertools.combinations(sorted(candidates), size):
            n_subsets += 1
            cmi = _subset_score(table, o_bin, t, combo, base)
            key = (cmi * size, cmi, size, combo)
            if best is None or key < best:
                best = key
    assert best is not None, "no candidates"
    objective, cmi, _, combo = best
    return BruteForceResult(
        selected=list(combo),
        objective=objective,
        final_cmi=cmi,
        base_cmi=base,
        n_subsets=n_subsets,
        seconds=time.perf_counter() - start,
    )
