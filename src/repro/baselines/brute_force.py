"""Brute-Force baseline: exhaustive search of Def 2.1.

``E* = argmin_{E ⊆ A, 1 ≤ |E| ≤ k}  I(O;T|E,C) · |E|`` (ties → smaller CMI,
then smaller set, then lexicographic). The paper runs it only on the small
datasets (Covid-19, Forbes) — it is deliberately infeasible at scale, and
serves as the gold standard for explainability scores.

Implementation: every subset's contingency is a ``joint_counts`` call on
the prepared coded table (guarded by ``max_rows``). A subset's I(O;T|E) is
MCIMR's support-aware set score, ``base − support_drop`` over all the
table's rows (``repro.core.mcimr.support_drop``): the explanatory drop is
measured on the subset's own complete-case support and weighted by the
support share, so sparse subsets cannot win with a degenerate near-empty
contingency. IPW weights are not applied.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from repro.core.contingency import CodedTable, joint_counts
from repro.core.info_theory import cmi_from_counts
from repro.core.mcimr import support_drop


@dataclass
class BruteForceResult:
    selected: list[str]
    objective: float
    final_cmi: float
    base_cmi: float
    n_subsets: int
    seconds: float


def brute_force(
    table: CodedTable,
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
    if table.n_rows > max_rows:
        raise ValueError(
            f"brute force on {table.n_rows} rows exceeds cap {max_rows}"
        )
    start = time.perf_counter()
    base = cmi_from_counts(joint_counts(table, [o_bin, t]), o_bin, t)
    best: tuple | None = None
    n_subsets = 0
    for size in range(1, k + 1):
        for combo in itertools.combinations(sorted(candidates), size):
            n_subsets += 1
            cont = joint_counts(table, [o_bin, t, *combo])
            drop = support_drop(cont, o_bin, t, list(combo), table.n_rows)
            cmi = max(0.0, base - drop)
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
