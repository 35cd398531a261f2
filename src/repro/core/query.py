"""Aggregate-query model: exposure T, outcome O, context C.

The paper's query class is ``SELECT T, agg(O) FROM D WHERE C GROUP BY T``,
with optional joins folded into ``D`` and multiple grouping attributes
handled by a synthesized composite exposure column. ``AggQuery`` captures
that shape; ``check_query`` rejects one that names a missing column with a
``QueryError``, before any Spark job; execution is plain Spark SQL (checked
against DuckDB by the tests via ``repro.oracle.assert_equivalent``).

Numeric attributes are analyzed *binned* (the paper assumes binned
numerics). This module owns the bin rule, in two spellings that must
agree: ``bin_numeric``, which bins a numpy array on the driver
(``np.searchsorted``) and is how ``Mesa.prepare`` codes its table, and
``bin_sql``, one SQL ``CASE`` over the edges with each edge as an exact
double (one expression to build, not one Column call per edge), which
only builds the bin columns of the prepared frame ``prep.df`` when a
reader first asks for it. ``ensure_binned`` holds the
one bin-or-pass-through decision: a column the caller has doubles for,
with more distinct values than bins (the caller's exact counts), gets the
``quantile_edges`` of Spark's ``percentile_approx``, replayed on the
driver over those doubles and their partitions (``repro.core.quantiles``),
and a ``__b`` analysis column; every other column passes through untouched.
It builds no DataFrame and runs no Spark job.

Expressions are built as SQL strings throughout: each ``pyspark.sql.
functions`` call is a round trip to the JVM, and building ~40 aggregates
that way takes about a second on the driver, ten times the SQL strings.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Mapping, Sequence

import numpy as np
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core.quantiles import percentile_approx

#: suffix appended to a column name by ``ensure_binned``
BIN_SUFFIX = "__b"

_NUMERIC_TYPES = (
    T.ByteType, T.ShortType, T.IntegerType, T.LongType,
    T.FloatType, T.DoubleType, T.DecimalType,
)

#: Spark types whose Python ``str`` equals Spark's ``CAST(x AS STRING)``
NATIVE_TYPES = (
    T.ByteType, T.ShortType, T.IntegerType, T.LongType, T.StringType,
)

_COMPOSITE_SEP = "‖"  # '‖' — unlikely to appear in data values


@dataclass(frozen=True)
class AggQuery:
    """``SELECT t, agg(o) FROM <table> WHERE context GROUP BY t``.

    ``t`` may be a single column or a sequence (multiple grouping
    attributes, e.g. Flights Q4 "per origin state and airline").
    ``context`` is a conjunction of equality conditions — the refinement
    machinery of Algorithm 2 operates on exactly this shape.
    """

    t: str | tuple[str, ...]
    o: str
    agg: str = "avg"
    context: tuple[tuple[str, object], ...] = field(default_factory=tuple)
    name: str = ""

    @property
    def t_cols(self) -> tuple[str, ...]:
        return (self.t,) if isinstance(self.t, str) else tuple(self.t)

    @property
    def exposure_col(self) -> str:
        """Name of the (possibly synthesized composite) exposure column."""
        cols = self.t_cols
        return cols[0] if len(cols) == 1 else "__t_" + "_".join(cols)

    def context_predicate(self) -> Column | None:
        if not self.context:
            return None
        conds = [F.col(a) == F.lit(v) for a, v in self.context]
        return reduce(lambda x, y: x & y, conds)

    def context_attrs(self) -> set[str]:
        return {a for a, _ in self.context}


class QueryError(ValueError):
    """A query that names a column the input lacks, or names one twice."""


def check_query(
    query: AggQuery, columns: Sequence[str], extraction_cols: Sequence[str]
) -> None:
    """Raise ``QueryError`` naming the field when ``query`` or the
    extraction columns name a column not in ``columns``, when the outcome
    is an exposure column, or when an extraction column repeats. Runs no
    Spark job."""
    have = set(columns)
    named = [("exposure", c) for c in query.t_cols]
    named += [("outcome", query.o)]
    named += [("context", a) for a, _ in query.context]
    named += [("extraction", c) for c in extraction_cols]
    for field_name, c in named:
        if c not in have:
            raise QueryError(f"{field_name} column {c!r} is not in the input")
    if query.o in query.t_cols:
        raise QueryError(f"outcome column {query.o!r} is also the exposure")
    repeated = sorted({c for c in extraction_cols if extraction_cols.count(c) > 1})
    if repeated:
        raise QueryError(f"extraction column {repeated[0]!r} is given twice")


def apply_context(df: DataFrame, query: AggQuery) -> DataFrame:
    """Filter to the query context and materialize the composite exposure
    column when the query has multiple grouping attributes."""
    pred = query.context_predicate()
    out = df.where(pred) if pred is not None else df
    cols = query.t_cols
    if len(cols) > 1:
        parts = ", ".join(f"CAST({sql_ident(c)} AS STRING)" for c in cols)
        out = out.withColumns(
            {query.exposure_col: F.expr(f"concat_ws('{_COMPOSITE_SEP}', {parts})")}
        )
    return out


def run_query(df: DataFrame, query: AggQuery) -> DataFrame:
    """Execute the aggregate query; output columns ``[*t_cols, out_col]``
    where ``out_col = f"{agg}_{o}"``."""
    ctx = apply_context(df, query)
    agg_col = getattr(F, query.agg)(F.col(query.o)).alias(f"{query.agg}_{query.o}")
    return ctx.groupBy(*query.t_cols).agg(agg_col)


def is_numeric(df: DataFrame, col: str) -> bool:
    return isinstance(df.schema[col].dataType, _NUMERIC_TYPES)


def sql_ident(col: str) -> str:
    """``col`` quoted as a Spark SQL identifier."""
    return "`" + col.replace("`", "``") + "`"


def sql_double(x: float) -> str:
    """A Spark SQL double equal to ``x`` bit for bit (``repr`` round-trips)."""
    return f"CAST('{x!r}' AS DOUBLE)"


def partition_ids(sel: DataFrame, collected: np.ndarray) -> np.ndarray:
    """Each row's Spark partition, from a collect of ``sel`` whose
    ``spark_partition_id()`` column is ``collected``.

    The optimizer evaluates a projection of a local relation on the driver,
    where ``spark_partition_id()`` reads 0; a job over those rows scans them
    in ``LocalTableScan``'s slices: ``min(rows, leafNodeDefaultParallelism)``
    contiguous ranges, as ``parallelize`` cuts them. Those are returned
    instead."""
    plan = sel._jdf.queryExecution().optimizedPlan()
    if plan.getClass().getSimpleName() != "LocalRelation" or not len(collected):
        return collected
    conf = sel.sparkSession.conf.get("spark.sql.leafNodeDefaultParallelism", None)
    n = len(collected)
    k = min(n, int(conf) if conf else sel.sparkSession.sparkContext.defaultParallelism)
    starts = np.arange(k, dtype=np.int64) * n // k
    return np.searchsorted(starts, np.arange(n), side="right") - 1


#: ``percentile_approx`` accuracy matching ``approxQuantile``'s
#: ``relativeError=0.001`` (accuracy = 1 / relativeError).
_QUANTILE_ACCURACY = 1000


def _probs(bins: int) -> list[float]:
    return [i / bins for i in range(1, bins)]


def quantile_edges(qs: Sequence[float]) -> list[float]:
    """Interior bin edges from one column's sorted percentiles: strictly
    increasing, repeated quantiles dropped."""
    edges: list[float] = []
    for q in qs:
        if not edges or q > edges[-1]:
            edges.append(float(q))
    return edges


def bin_sql(col: str, edges: Sequence[float]) -> str:
    """The bin of ``col`` as one SQL ``CASE``: bin ``i`` holds the values in
    ``(edges[i-1], edges[i]]``, the last bin everything above the last edge
    (``np.searchsorted(edges, x, side="left")``). Null and NaN stay null: a
    NaN fails every ``<=`` and would otherwise land in the top bin."""
    x = sql_ident(col)
    whens = "".join(
        f" WHEN {x} <= {sql_double(float(e))} THEN {i}" for i, e in enumerate(edges)
    )
    return (
        f"CASE WHEN {x} IS NULL OR isnan(CAST({x} AS DOUBLE)) THEN NULL"
        f"{whens} ELSE {len(edges)} END"
    )


def bin_numeric(
    x: np.ndarray, edges: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """``bin_sql`` on the driver: each double's bin (``-1`` for NaN, which
    marks null too) and the bins' labels."""
    b = np.searchsorted(np.asarray(edges, dtype=np.float64), x, side="left")
    b[np.isnan(x)] = -1
    return b, np.array([str(i) for i in range(len(edges) + 1)], dtype=object)


def double_bits(x: np.ndarray) -> np.ndarray:
    """The doubles' bit patterns, which tell ``-0.0`` from ``0.0`` as
    ``CAST(x AS STRING)`` does."""
    return np.asarray(x, dtype=np.float64).view(np.int64)


def ensure_binned(
    cols: Sequence[str],
    *,
    bins: int = 8,
    distinct: Mapping[str, int],
    values: Mapping[str, np.ndarray],
    partition: np.ndarray,
) -> dict[str, list[float]]:
    """The interior bin edges of every numeric column in ``cols`` with more
    than ``bins`` values; every other column passes through.

    A column is numeric when ``values`` holds its doubles (NaN for null) in
    the row order of a collect of the frame; ``distinct`` holds its exact
    distinct count and ``partition`` each collected row's Spark partition
    (``partition_ids``). Columns with at most ``bins`` values are treated
    as categorical codes. The others get the ``quantile_edges`` of Spark's
    ``percentile_approx`` at accuracy 1000, replayed on the driver
    (``repro.core.quantiles``; NaN is excluded like null). A column with
    edges is analysed as ``col + BIN_SUFFIX``, any other as itself. Runs no
    Spark job.
    """
    return {
        c: quantile_edges(
            percentile_approx(values[c], partition, _probs(bins), _QUANTILE_ACCURACY)
        )
        for c in cols
        if c in values and distinct[c] > bins
    }
