"""Independent references for IPW on the coded table.

* Detection: the Spark ``isNotNull`` indicator column, collected with the
  outcome bin and counted by ``joint_counts``, then the same CI decision.
* Weights: P(R=1) / max(P(R=1 | o_bin), 0.01) from DuckDB grouped counts.
  With the outcome bin as the only feature the logistic model is
  saturated, so its fitted propensities are the observed rates (up to the
  IRLS ridge).
"""
import duckdb
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.contingency import CodedTable, joint_counts
from repro.core.info_theory import is_conditionally_independent

R = "__r_ref"


def spark_detection(df, attrs, *, o_bin, alpha=0.05, eps_bits=0.02) -> set[str]:
    """The attributes whose Spark-side missingness indicator depends on O."""
    biased = set()
    for a in attrs:
        with_r = df.withColumn(R, F.col(a).isNotNull().cast("int"))
        pdf = joint_counts(CodedTable.collect(with_r, [R, o_bin]), [R, o_bin])
        if pdf.empty or pdf[R].nunique() < 2:
            continue
        if not is_conditionally_independent(
            pdf, R, o_bin, alpha=alpha, eps_bits=eps_bits
        ):
            biased.add(a)
    return biased


def duckdb_weights(df, attr, *, o_bin) -> dict[str, float]:
    """``o_bin`` label -> IPW weight of ``attr``, from DuckDB counts over
    the Spark frame's rows."""
    pdf = df.select(
        F.col(o_bin).cast("string").alias("o"), F.col(attr).isNotNull().alias("r")
    ).toPandas()
    con = duckdb.connect()
    try:
        con.register("d", pdf)
        rows = con.execute(
            """
            WITH g AS (
                SELECT o, COUNT(*) AS tot, COUNT(*) FILTER (WHERE r) AS obs
                FROM d WHERE o IS NOT NULL GROUP BY o
            ), m AS (SELECT SUM(obs)::DOUBLE / SUM(tot) AS marginal FROM g)
            SELECT o, marginal / GREATEST(obs::DOUBLE / tot, 0.01) FROM g, m
            """
        ).fetchall()
    finally:
        con.close()
    return dict(rows)


def assert_weights_match(table, attr, wcol, want, *, o_bin) -> None:
    """Every row of the coded table where ``attr`` and ``o_bin`` are
    observed carries ``want[o_bin label]``; every other row weighs 1.0."""
    o_codes, w = table.codes[o_bin], table.weights[wcol]
    rows = (table.codes[attr] >= 0) & (o_codes >= 0)
    expected = [want[v] for v in table.labels[o_bin][o_codes[rows]]]
    assert rows.any()
    assert w[rows] == pytest.approx(expected, rel=1e-6)
    assert np.all(w[~rows] == 1.0)
