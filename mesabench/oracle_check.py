"""Correctness gate: recompute I(O;T|C,E) in DuckDB and compare.

For an explanation ``E`` on a prepared frame, the gate collects the columns
the score depends on (outcome bin, exposure, ``E``, their IPW weight columns,
and any refinement attributes) cast to strings exactly as the Spark
contingency pass casts them, then

1. checks the Spark weighted joint contingency of ``(O, T, E)`` against the
   same aggregation in DuckDB with ``repro.oracle.assert_equivalent``, and
2. computes the plug-in conditional mutual information in DuckDB SQL —
   ``sum p(o,t,e) log2(n_ote n_e / (n_oe n_te))`` over complete cases, each
   row weighted by the product of its IPW weights — and compares it with the
   score MESA reported.

Any mismatch raises ``CheckFailed``.
"""
from __future__ import annotations

import math
from typing import Mapping, Sequence

import duckdb
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent

REL_TOL = 1e-6
ABS_TOL = 1e-9


class CheckFailed(AssertionError):
    pass


def _frame(
    df: DataFrame,
    cols: Sequence[str],
    weight_cols: Sequence[str],
) -> tuple[pd.DataFrame, dict[str, str]]:
    """Collect ``cols`` (as strings) and weight columns under short aliases."""
    alias = {c: f"c{i}" for i, c in enumerate(dict.fromkeys([*cols, *weight_cols]))}
    proj = [
        F.col(c).cast("double" if c in weight_cols else "string").alias(alias[c])
        for c in alias
    ]
    pdf = df.select(*proj).toPandas()
    for w in weight_cols:
        # combined_weight multiplies coalesce(w, 1.0).
        pdf[alias[w]] = pdf[alias[w]].fillna(1.0)
    return pdf, alias


def _cmi_sql(o: str, t: str, es: list[str], w: str, where: str) -> str:
    cells = ", ".join([o, t, *es])
    def part(*cols: str) -> str:
        return f"PARTITION BY {', '.join(cols)}" if cols else ""
    return f"""
    WITH c AS (
        SELECT {cells}, SUM({w}) AS n FROM d WHERE {where} GROUP BY {cells}
    ), s AS (
        SELECT n,
            SUM(n) OVER ({part(o, *es)}) AS n_oe,
            SUM(n) OVER ({part(t, *es)}) AS n_te,
            SUM(n) OVER ({part(*es)}) AS n_e,
            SUM(n) OVER () AS total
        FROM c
    )
    SELECT COALESCE(SUM(n / total * LOG2(n * n_e / (n_oe * n_te))), 0.0)
    FROM s WHERE n > 0
    """


def check_cmi(
    df: DataFrame,
    *,
    o_bin: str,
    t: str,
    explanation: Sequence[str],
    weights: Mapping[str, str] | None,
    reported: float,
    what: str,
    conds: Sequence[tuple[str, str]] = (),
) -> float:
    """Recompute ``I(O;T|conds,E)`` and compare with ``reported``."""
    explanation = list(explanation)
    wcols = [weights[e] for e in explanation if weights and e in weights]
    cond_cols = [a for a, _ in conds]
    pdf, al = _frame(df, [o_bin, t, *explanation, *cond_cols], wcols)
    o, tt, es = al[o_bin], al[t], [al[e] for e in explanation]
    pdf["w"] = 1.0
    for w in wcols:
        pdf["w"] *= pdf[al[w]]
    preds = [f"{c} IS NOT NULL" for c in [o, tt, *es]]
    preds += [f"{al[a]} = '{v.replace(chr(39), chr(39) * 2)}'" for a, v in conds]
    where = " AND ".join(preds)

    # (1) Spark's weighted (O, T, E) contingency equals DuckDB's.
    sel = df
    for a, v in conds:
        sel = sel.where(F.col(a).cast("string") == F.lit(v))
    sel = sel.select(
        *[F.col(c).cast("string").alias(al[c]) for c in [o_bin, t, *explanation]],
        *[F.coalesce(F.col(w).cast("double"), F.lit(1.0)).alias(al[w]) for w in wcols],
    )
    for c in [o, tt, *es]:
        sel = sel.where(F.col(c).isNotNull())
    wsp = F.lit(1.0)
    for w in wcols:
        wsp = wsp * F.col(al[w])
    spark_counts = sel.groupBy(o, tt, *es).agg(F.sum(wsp).alias("n"))
    try:
        assert_equivalent(
            spark_counts,
            f"SELECT {', '.join([o, tt, *es])}, SUM(w) AS n FROM d "
            f"WHERE {where} GROUP BY ALL",
            d=pdf,
        )
    except AssertionError as e:
        raise CheckFailed(f"{what}: Spark contingency differs from DuckDB: {e}")

    # (2) The CMI itself, computed in DuckDB.
    con = duckdb.connect()
    try:
        con.register("d", pdf)
        expected = max(0.0, float(con.execute(_cmi_sql(o, tt, es, "w", where)).fetchone()[0]))
    finally:
        con.close()
    if not math.isclose(reported, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL):
        raise CheckFailed(
            f"{what}: MESA reported {reported!r}, DuckDB recomputed {expected!r}"
        )
    return expected
