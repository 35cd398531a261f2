"""Aggregate-query model: exposure T, outcome O, context C.

The paper's query class is ``SELECT T, agg(O) FROM D WHERE C GROUP BY T``,
with optional joins folded into ``D`` and multiple grouping attributes
handled by a synthesized composite exposure column. ``AggQuery`` captures
that shape; execution is plain Spark SQL (checked against DuckDB by the
tests via ``repro.oracle.assert_equivalent``).

Numeric attributes are analyzed *binned* (the paper assumes binned
numerics). A bin is one SQL ``CASE`` over the quantile edges, written as a
string (``bin_sql``) with each edge as an exact double, so the assignment
stays in the optimizer and costs one expression to build, not one Column
call per edge. ``ensure_binned`` is the convenience used throughout:
categorical and small-domain columns pass through untouched, numeric
columns get a ``__b`` sibling. It takes the exact distinct counts the
caller has, finds the others (``size(collect_set(x))``) and every wide
column's ``percentile_approx`` edges in one fused aggregation, and adds all
bin columns in one ``withColumns``. ``Mesa.prepare`` passes every count, so
the aggregation computes only edges (and Spark's labels of the non-native
numeric columns that pass through).

Expressions are built as SQL strings throughout: each ``pyspark.sql.
functions`` call is a round trip to the JVM, and building ~40 aggregates
that way takes about a second on the driver, ten times the SQL strings.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Mapping, Sequence

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

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
    df: DataFrame,
    col: str,
    *,
    bins: int = 8,
    out: str | None = None,
    edges: Sequence[float] | None = None,
) -> DataFrame:
    """Add an integer quantile-bin column for ``col`` (nulls stay null).

    The bin assignment is ``bin_sql``'s ``CASE`` over the approx-quantile
    edges, evaluated inside Catalyst — no Python-side row work. ``edges``
    are precomputed interior cut points; without them this runs one
    ``quantile_edges`` job.
    """
    out = out or col + BIN_SUFFIX
    if edges is None:
        edges = quantile_edges(df, col, bins)
    return df.withColumns({out: F.expr(bin_sql(col, edges))})


@dataclass(frozen=True)
class Binning:
    """``ensure_binned``'s result.

    ``df`` is the input frame plus one ``bin_sql`` column per binned
    column; ``mapping`` maps each column to its analysis column (``col__b``
    when binned, else ``col``); ``edges`` holds the binned columns' interior
    edges; ``labels`` maps each value of a non-native numeric column passed
    through to Spark's ``CAST(x AS STRING)`` of it (Python cannot spell a
    double the way the JVM does, e.g. ``1.0E7``)."""

    df: DataFrame
    mapping: dict[str, str]
    edges: dict[str, list[float]]
    labels: dict[str, dict[object, str]]


def ensure_binned(
    df: DataFrame,
    cols: Sequence[str],
    *,
    bins: int = 8,
    distinct: Mapping[str, int] | None = None,
) -> Binning:
    """Bin every numeric column in ``cols``; pass categoricals through.

    Numeric columns whose observed domain is already ≤ ``bins`` distinct
    values are treated as categorical codes and passed through.

    ``distinct`` holds the exact distinct counts the caller already has.
    One aggregation computes the others (``size(collect_set(x))``), the
    ``percentile_approx`` edges of every column that may have more than
    ``bins`` values, and the labels of the non-native numeric columns known
    to pass through. With every count given and no such column, it runs no
    Spark job. NaN is excluded from the edges like null.
    """
    distinct = dict(distinct or {})
    schema = df.schema
    numeric = [c for c in cols if is_numeric(df, c)]
    unknown = [c for c in numeric if c not in distinct]
    wide = [c for c in numeric if c in unknown or distinct[c] > bins]
    spelled = [
        c
        for c in numeric
        if c not in wide and not isinstance(schema[c].dataType, NATIVE_TYPES)
    ]
    edges: dict[str, list[float]] = {}
    labels: dict[str, dict[object, str]] = {}
    if wide or spelled:
        probs = ", ".join(sql_double(p) for p in _probs(bins))
        aggs = [f"size(collect_set({sql_ident(c)}))" for c in unknown]
        for c in wide:
            x = f"CAST({sql_ident(c)} AS DOUBLE)"
            aggs.append(
                f"percentile_approx(CASE WHEN NOT isnan({x}) THEN {x} END, "
                f"array({probs}), {_QUANTILE_ACCURACY})"
            )
        aggs += [
            f"collect_set(struct({sql_ident(c)}, CAST({sql_ident(c)} AS STRING)))"
            for c in spelled
        ]
        row = df.selectExpr(*aggs).collect()[0]
        distinct.update(zip(unknown, row[: len(unknown)]))
        for c, qs in zip(wide, row[len(unknown):]):
            if distinct[c] > bins:
                edges[c] = _dedup(qs)
        for c, pairs in zip(spelled, row[len(unknown) + len(wide):]):
            labels[c] = {v: s for v, s in pairs}
    mapping = {c: c + BIN_SUFFIX if c in edges else c for c in cols}
    if edges:
        df = df.withColumns(
            {c + BIN_SUFFIX: F.expr(bin_sql(c, e)) for c, e in edges.items()}
        )
    return Binning(df, mapping, edges, labels)
