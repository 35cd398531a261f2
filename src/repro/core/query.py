"""Aggregate-query model: exposure T, outcome O, context C.

The paper's query class is ``SELECT T, agg(O) FROM D WHERE C GROUP BY T``,
with optional joins folded into ``D`` and multiple grouping attributes
handled by a synthesized composite exposure column. ``AggQuery`` captures
that shape; execution is plain Spark SQL (checked against DuckDB by the
tests via ``repro.oracle.assert_equivalent``).

Numeric attributes are analyzed *binned* (the paper assumes binned
numerics). ``bin_numeric`` produces quantile bins as a Catalyst ``CASE``
chain so the pass stays in the optimizer; ``ensure_binned`` is the
convenience used throughout: categorical and small-domain columns pass
through untouched, numeric columns get a ``__b`` sibling. It finds every
column's distinct count and quantile edges in one fused aggregation
(``approx_count_distinct`` + ``percentile_approx`` per column), so a call
costs one Spark aggregation however many columns it bins; each column's
``CASE`` chain is then built from the collected edges on the driver.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Sequence

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

#: suffix appended to a column name by ``ensure_binned``
BIN_SUFFIX = "__b"

_NUMERIC_TYPES = (
    T.ByteType, T.ShortType, T.IntegerType, T.LongType,
    T.FloatType, T.DoubleType, T.DecimalType,
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


def apply_context(df: DataFrame, query: AggQuery) -> DataFrame:
    """Filter to the query context and materialize the composite exposure
    column when the query has multiple grouping attributes."""
    pred = query.context_predicate()
    out = df.where(pred) if pred is not None else df
    cols = query.t_cols
    if len(cols) > 1:
        out = out.withColumn(
            query.exposure_col,
            F.concat_ws(_COMPOSITE_SEP, *[F.col(c).cast("string") for c in cols]),
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


#: ``percentile_approx`` accuracy matching ``approxQuantile``'s
#: ``relativeError=0.001`` (accuracy = 1 / relativeError).
_QUANTILE_ACCURACY = 1000


def _probs(bins: int) -> list[float]:
    return [i / bins for i in range(1, bins)]


def _dedup(qs: Sequence[float]) -> list[float]:
    """Strictly increasing edges from sorted quantiles."""
    edges: list[float] = []
    for q in qs:
        if not edges or q > edges[-1]:
            edges.append(float(q))
    return edges


def quantile_edges(df: DataFrame, col: str, bins: int) -> list[float]:
    """Interior quantile cut points (deduplicated) for ``col``."""
    qs = df.where(F.col(col).isNotNull()).approxQuantile(col, _probs(bins), 0.001)
    return _dedup(qs)


def bin_numeric(
    df: DataFrame,
    col: str,
    *,
    bins: int = 8,
    out: str | None = None,
    edges: Sequence[float] | None = None,
) -> DataFrame:
    """Add an integer quantile-bin column for ``col`` (nulls stay null).

    The bin assignment is a ``CASE`` chain over the approx-quantile edges,
    evaluated inside Catalyst — no Python-side row work. ``edges`` are
    precomputed interior cut points (as ``ensure_binned`` passes them);
    without them this runs one ``quantile_edges`` job.
    """
    out = out or col + BIN_SUFFIX
    if edges is None:
        edges = quantile_edges(df, col, bins)
    expr: Column = F.lit(len(edges))
    for i in reversed(range(len(edges))):
        expr = F.when(F.col(col) <= F.lit(edges[i]), F.lit(i)).otherwise(expr)
    # NaN guards: a NaN would fail every <= comparison and land in the top
    # bin; treat it as missing like SQL null.
    expr = F.when(
        F.col(col).isNull() | F.isnan(F.col(col).cast("double")),
        F.lit(None).cast("int"),
    ).otherwise(expr.cast("int"))
    return df.withColumn(out, expr)


def ensure_binned(
    df: DataFrame, cols: Sequence[str], *, bins: int = 8
) -> tuple[DataFrame, dict[str, str]]:
    """Bin every numeric column in ``cols``; pass categoricals through.

    Returns the augmented DataFrame and a mapping ``original -> analysis
    column`` (identity for categoricals, ``col__b`` for binned numerics).
    Numeric columns whose observed domain is already ≤ ``bins`` distinct
    values are treated as categorical codes and passed through.

    Distinct counts and quantile edges of all numeric columns come from a
    single aggregation; NaN is excluded from the edges like null.
    """
    numeric = [c for c in cols if is_numeric(df, c)]
    edges: dict[str, list[float]] = {}
    if numeric:
        probs = _probs(bins)
        aggs: list[Column] = []
        for c in numeric:
            x = F.col(c).cast("double")
            aggs.append(F.approx_count_distinct(c))
            aggs.append(
                F.percentile_approx(F.when(~F.isnan(x), x), probs, _QUANTILE_ACCURACY)
            )
        row = df.agg(*aggs).collect()[0]
        for i, c in enumerate(numeric):
            if row[2 * i] > bins:
                edges[c] = _dedup(row[2 * i + 1])
    mapping: dict[str, str] = {}
    for c in cols:
        if c in edges:
            df = bin_numeric(df, c, bins=bins, edges=edges[c])
            mapping[c] = c + BIN_SUFFIX
        else:
            mapping[c] = c
    return df, mapping
