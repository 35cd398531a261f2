"""MESA — the end-to-end system (§1, §4).

``Mesa.explain`` runs the full pipeline on an :class:`AggQuery`:

1. apply the query context;
2. extract candidate attributes from the knowledge source for every
   extraction column (NED → 1..h-hop properties → universal relation),
   offline-pruning at the entity level before the join;
3. integrate the universal relation(s) with the input table, per row on
   the driver (prefixed per extraction column);
4. offline-prune input-table candidates; bin the outcome and the numeric
   candidates; code the analysis columns as a dictionary-coded table;
5. detect selection bias per extracted attribute and fit IPW weights, on
   the coded table;
6. one scan over the coded table → online pruning → MCIMR (sharing the
   scan);
7. responsibility ranking of the selected attributes.

``Mesa.prepare`` (stages 1–5) makes one Spark pass, the **raw collect**:
one ``toArrow`` of the filtered input projected to the outcome, the
exposure, every input-table candidate and every extraction column
(non-native numerics also as doubles), plus each row's
``spark_partition_id()``. The driver reads off it the row count, the values
to link, and each column's exact non-null and distinct counts (offline row
pruning, bin or pass through). An extracted attribute is a function of its
entity, so its distinct count is its universal relation's.

The bin edges are Spark's ``percentile_approx`` edges, replayed on the
driver (``repro.core.quantiles``) over the collected doubles of the input
columns and, for the extracted attributes, over their entities' values
gathered per row. The universal relation has one row per value, so the
broadcast left join keeps the input's rows, partitions and order: the
replay sees the stream Spark's sketch would see over the joined lineage.
It must stay bit-exact, since the golden explanations were computed with
Spark's own edges. The JVM spells the extracted doubles that pass through
unbinned (``String.valueOf``, which is ``CAST(x AS STRING)``), with no
Spark job, so the KG relations never enter a job on the prepare path.

The coded table is then built on the driver: ``query.bin_numeric`` (the
driver spelling of ``bin_sql``) bins each binned input column from its
doubles and each binned extracted attribute once over its entities'
values, and every extracted attribute is coded once per entity and
gathered per row by the row's entity. Selection-bias detection, the
propensity fit and stages 6–7 count on the driver and run no Spark job.
After ``apply_context`` and the raw collect, ``_prepare`` (so a cold
``explain``) builds no DataFrame: ``prep.df``, the joined lineage with the
bin and weight columns, is built from what prepare holds on its first
read, and its KG broadcast joins run only when a reader runs it.

The result carries the explanation plus everything the experiments report:
explainability scores, pruning/missingness statistics, and stage timings.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core.contingency import CodedTable, first_seen, label_sql, scan_counts
from repro.core.mcimr import ExplanationResult, mcimr
from repro.core.pruning import (
    PruneReport,
    offline_prune_entity,
    offline_row_decide,
    online_prune,
    row_counts,
)
from repro.core.query import (
    BIN_SUFFIX,
    NATIVE_TYPES,
    AggQuery,
    Binning,
    apply_context,
    bin_numeric,
    bin_sql,
    check_query,
    double_bits,
    ensure_binned,
    is_numeric,
    partition_ids,
    sql_ident,
)
from repro.core.responsibility import responsibilities
from repro.kg.extract import (
    KEY_COL,
    LIST_AGGS,
    Extraction,
    extract_attributes,
    integrate,
)
from repro.kg.graph import KnowledgeGraph
from repro.missing.ipw import prepare_weights, weight_exprs


@dataclass
class MesaConfig:
    """Knobs of the MESA pipeline (paper defaults: k=5, 1 hop)."""

    k: int = 5
    hops: int = 1
    bins: int = 8
    eps_bits: float = 0.01
    alpha: float = 0.05
    eps_fd: float = 0.05
    eps_rel: float = 0.01
    offline_pruning: bool = True
    online_pruning: bool = True
    ipw: bool = True
    max_missing: float = 0.9
    unique_ratio: float = 0.95
    list_agg: str = "mean"


@dataclass
class MesaResult:
    """Everything the evaluation reads off one MESA run."""

    explanation: list[str]  # display names (bin suffix stripped)
    analysis_cols: list[str]  # the columns actually conditioned on
    result: ExplanationResult
    responsibility: dict[str, float]
    candidates_initial: int = 0
    candidates_after_offline: int = 0
    candidates_after_online: int = 0
    offline_report: PruneReport = field(default_factory=PruneReport)
    online_report: PruneReport = field(default_factory=PruneReport)
    biased_attrs: set[str] = field(default_factory=set)
    extracted_attrs: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def explainability(self) -> float:
        return self.result.final_cmi

    @property
    def base_cmi(self) -> float:
        return self.result.base_cmi


def display_name(col: str) -> str:
    return col[: -len(BIN_SUFFIX)] if col.endswith(BIN_SUFFIX) else col


class EmptyContextError(ValueError):
    """The query context matches no rows of the input table."""


#: per extraction column: the column, its extraction, the attributes kept
#: and their prefix
Extracted = tuple[str, Extraction, list[str], str]


@dataclass
class PreparedQuery:
    """The integrated, binned, weighted table MESA analyses — exposed so
    baselines and experiments can reuse the identical preparation.

    ``table`` holds the analysis columns (outcome bin, exposure, candidates)
    dictionary-coded, plus the IPW weight arrays: cell for cell what
    ``CodedTable.collect`` of ``df`` would give, built without collecting it.

    ``df`` is the same table as a Spark lineage, built on its first read
    from ``context``, ``extractions``, ``edges`` and the weights; every
    later read returns the same frame. ``prepare`` reads it to mark it for
    caching but runs no action on it, so its KG joins run only when a
    reader runs it: the first action fills the cache (the drill-down set-up
    runs ``prep.df.count()``). ``explain`` never builds it."""

    context: DataFrame  # the input after ``apply_context``
    extractions: list[Extracted]
    edges: dict[str, list[float]]  # ``Binning.edges``
    table: CodedTable
    o_bin: str
    t: str
    candidates: list[str]  # analysis columns
    weights: dict[str, str]
    biased: set[str]
    extracted_attrs: list[str]  # analysis columns that came from the KG
    offline_report: PruneReport
    candidates_initial: int
    bins: int  # the bin count this context got (``cfg.bins`` at most)
    timings: dict[str, float]

    @cached_property
    def df(self) -> DataFrame:
        """The context joined to each extraction's kept attributes
        (``integrate``), plus one ``bin_sql`` column per binned column in
        one ``withColumns``, plus the weight columns as SQL ``CASE``
        expressions over the outcome bin (``weight_exprs``: the table's
        exact weights, null where their attribute is null) in another."""
        df = self.context
        for col, ex, attrs, prefix in self.extractions:
            df, _ = integrate(df, ex, col, prefix=prefix, attrs=attrs)
        if self.edges:
            df = df.withColumns(
                {c + BIN_SUFFIX: F.expr(bin_sql(c, e)) for c, e in self.edges.items()}
            )
        if self.weights:
            df = df.withColumns(weight_exprs(self.table, self.weights, [self.o_bin]))
        return df


def _collect_context(
    ctx: DataFrame, cols: list[str], extraction_cols: list[str]
) -> tuple[CodedTable, dict[str, np.ndarray], dict[str, list[str]], np.ndarray]:
    """The raw collect: one ``toArrow`` of the context.

    Returns ``cols`` and ``extraction_cols`` coded by their labels (as
    ``CodedTable.collect`` would code them), each numeric column of
    ``cols`` as doubles (NaN for null; non-native types are cast in Spark),
    per extraction column its sorted labels, the keys to link (Spark's
    ``CAST(col AS STRING)``, the key ``integrate`` joins on), and each
    row's ``spark_partition_id()``, which the percentile replay needs."""
    schema = ctx.schema
    coded = list(dict.fromkeys([*cols, *extraction_cols]))
    numeric = [c for c in dict.fromkeys(cols) if is_numeric(ctx, c)]
    cast = [c for c in numeric if not isinstance(schema[c].dataType, NATIVE_TYPES)]
    sel = ctx.selectExpr(
        *[label_sql(schema, c) for c in coded],
        *[f"CAST({sql_ident(c)} AS DOUBLE)" for c in cast],
        "spark_partition_id()",
    )
    tbl = sel.toArrow()
    raw = CodedTable.from_arrow(tbl, coded)
    # A native column's label column holds its values.
    values = dict(zip(coded, tbl.columns)) | dict(zip(cast, tbl.columns[len(coded) :]))
    doubles = {
        c: pc.fill_null(pc.cast(values[c], pa.float64(), safe=False), np.nan)
        .to_numpy(zero_copy_only=False)
        for c in numeric
    }
    link_values = {c: sorted(raw.labels[c]) for c in extraction_cols}
    partition = partition_ids(sel, tbl.columns[-1].to_numpy())
    return raw, doubles, link_values, partition


def _row_entities(raw: CodedTable, col: str, ex: Extraction) -> np.ndarray:
    """Each row's index into ``ex.wide`` (``-1``: no entity), matching
    ``integrate``'s join of ``CAST(col AS STRING)`` to the relation's keys."""
    index = {k: i for i, k in enumerate(ex.wide[KEY_COL])}
    of_label = np.array([index.get(k, -1) for k in raw.labels[col]] + [-1])
    return of_label[raw.codes[col]]


def _entity_codes(
    values: pd.Series, col: str, binning: Binning
) -> tuple[np.ndarray, np.ndarray]:
    """An extracted attribute coded once per entity (``-1``: null): its bin,
    or its value labelled as Spark prints it. A double is coded by its bit
    pattern, so ``-0.0`` and ``0.0`` stay apart as in ``CAST(x AS
    STRING)``."""
    if col in binning.edges:
        return bin_numeric(values.to_numpy(np.float64), binning.edges[col])
    if col not in binning.labels:  # a string attribute
        ent_codes, uniques = pd.factorize(values)
        return ent_codes, np.array(uniques, dtype=object)
    x = values.to_numpy(np.float64)
    seen = ~np.isnan(x)
    ent_codes = np.full(len(x), -1, dtype=np.int64)
    ent_codes[seen], uniques = pd.factorize(double_bits(x[seen]))
    spelled = binning.labels[col]
    return ent_codes, np.array([spelled[b] for b in uniques.tolist()], dtype=object)


class Mesa:
    def __init__(self, spark: SparkSession, cfg: MesaConfig | None = None):
        self.spark = spark
        self.cfg = cfg or MesaConfig()

    # -- pipeline stages -----------------------------------------------------
    def prepare(
        self,
        df: DataFrame,
        query: AggQuery,
        kg: KnowledgeGraph | None = None,
        extraction_cols: list[str] | None = None,
        exclude: set[str] | None = None,
    ) -> PreparedQuery:
        """Stages 1–5 in one Spark job, the raw collect; binning (a replay
        of Spark's percentile sketch), coding and IPW then run on the
        driver (see the module docstring). ``prep.df`` is then built and
        marked for caching, and the caller owns that cache. Raises
        ``QueryError`` before any Spark job when the query names a missing
        column, ``ValueError`` when a config field is out of range, and
        ``EmptyContextError`` when the context matches no rows."""
        prep = self._prepare(df, query, kg, extraction_cols, exclude)
        prep.df.cache()
        return prep

    def _prepare(
        self,
        df: DataFrame,
        query: AggQuery,
        kg: KnowledgeGraph | None,
        extraction_cols: list[str] | None,
        exclude: set[str] | None,
    ) -> PreparedQuery:
        """``prepare`` without building ``prep.df``."""
        cfg = self.cfg
        if cfg.bins < 2:
            raise ValueError(f"MesaConfig.bins must be at least 2, got {cfg.bins}")
        if cfg.list_agg not in LIST_AGGS:
            raise ValueError(
                f"MesaConfig.list_agg must be one of {sorted(LIST_AGGS)}, "
                f"got {cfg.list_agg!r}"
            )
        extraction_cols = list(extraction_cols or []) if kg is not None else []
        check_query(query, df.columns, extraction_cols)
        timings: dict[str, float] = {}
        exclude = exclude or set()
        t0 = time.perf_counter()
        ctx = apply_context(df, query)
        t_col = query.exposure_col
        o = query.o
        # Input-table candidates: everything but O, T, context attrs.
        non_cand = (
            {o, o + BIN_SUFFIX, t_col}
            | set(query.t_cols)
            | query.context_attrs()
            | exclude
        )
        input_cands = [c for c in df.columns if c not in non_cand]
        raw, doubles, link_values, partition = _collect_context(
            ctx, [o, t_col, *input_cands], extraction_cols
        )
        n_ctx = raw.n_rows
        if n_ctx == 0:
            raise EmptyContextError(
                f"query context {query.context!r} matches no rows"
            )
        # Adaptive bin count: plug-in CMI needs enough rows per cell, so
        # small contexts (Covid-19 has 188 rows; a Forbes category ~450)
        # use coarser bins. cfg.bins is the ceiling.
        bins = min(cfg.bins, max(3, n_ctx // 60))
        timings["context"] = time.perf_counter() - t0

        # Extraction + entity-level offline pruning.
        t0 = time.perf_counter()
        extractions: list[Extracted] = []
        offline_report = PruneReport()
        n_extracted_raw = 0
        multi = len(extraction_cols) > 1
        for col in extraction_cols:
            if not link_values[col]:
                continue  # no value in the context: nothing to extract
            ex: Extraction = extract_attributes(
                kg,
                link_values[col],
                hops=cfg.hops,
                list_agg=cfg.list_agg,
            )
            n_extracted_raw += len(ex.attrs)
            attrs = ex.attrs
            prefix = f"{col}__" if multi else ""
            if cfg.offline_pruning:
                attrs, rep = offline_prune_entity(
                    ex.wide,
                    attrs,
                    max_missing=cfg.max_missing,
                    unique_ratio=cfg.unique_ratio,
                )
                for a, reason in rep.dropped.items():
                    offline_report.drop(prefix + a, reason)
            extractions.append((col, ex, attrs, prefix))
        extracted_cols = [p + a for _, _, attrs, p in extractions for a in attrs]
        timings["extract"] = time.perf_counter() - t0

        candidates_initial = len(input_cands) + max(
            n_extracted_raw, len(extracted_cols)
        )
        # Offline pruning of input-table candidates (row level), decided
        # from the raw collect's exact counts.
        t0 = time.perf_counter()
        if cfg.offline_pruning and input_cands:
            input_cands, rep = offline_row_decide(
                ctx,
                input_cands,
                raw,
                max_missing=cfg.max_missing,
                unique_ratio=cfg.unique_ratio,
            )
            for a, reason in rep.dropped.items():
                offline_report.drop(a, reason)
        timings["offline_prune"] = time.perf_counter() - t0

        # Bin edges on the driver, replaying Spark's percentile sketch over
        # the raw collect's doubles and, for an extracted attribute, its
        # entities' values gathered per row: the rows, partitions and order
        # of the joined lineage. An extracted attribute is a function of its
        # entity, so its distinct count is its universal relation's. Input
        # columns with at most ``bins`` values pass through with the raw
        # collect's labels and are not handed over at all. Column types come
        # from the context and from the relations' dtypes (double or string).
        t0 = time.perf_counter()
        distinct = {c: row_counts(raw, c)[1] for c in [o, *input_cands]}
        values = dict(doubles)
        schema = T.StructType(list(ctx.schema.fields))
        row_entity = {col: _row_entities(raw, col, ex) for col, ex, _, _ in extractions}
        for col, ex, attrs, p in extractions:
            for a in attrs:
                distinct[p + a] = int(ex.wide[a].nunique())
                if ex.wide[a].dtype == np.float64:
                    schema.add(p + a, T.DoubleType())
                    values[p + a] = np.append(ex.wide[a].to_numpy(), np.nan)[
                        row_entity[col]
                    ]
                else:
                    schema.add(p + a, T.StringType())
        binning = ensure_binned(
            schema,
            [c for c in [o, *input_cands] if distinct[c] > bins] + extracted_cols,
            bins=bins,
            distinct=distinct,
            values=values,
            partition=partition,
        )
        o_bin = binning.mapping.get(o, o)
        all_cands = input_cands + extracted_cols
        analysis_cols = [binning.mapping.get(c, c) for c in all_cands]
        extracted_analysis = [binning.mapping[c] for c in extracted_cols]
        timings["binning"] = time.perf_counter() - t0

        # Coding on the driver: the table Spark's collect of the binned
        # lineage would give, row for row.
        t0 = time.perf_counter()
        codes: dict[str, np.ndarray] = {}
        labels: dict[str, np.ndarray] = {}
        for c in [o, t_col, *input_cands]:
            a = binning.mapping.get(c, c)
            if c in binning.edges:
                codes[a], labels[a] = first_seen(
                    *bin_numeric(doubles[c], binning.edges[c])
                )
            else:
                codes[a], labels[a] = raw.codes[c], raw.labels[c]
        for col, ex, attrs, prefix in extractions:
            for a in attrs:
                ent_codes, ent_labels = _entity_codes(ex.wide[a], prefix + a, binning)
                c = binning.mapping[prefix + a]
                codes[c], labels[c] = first_seen(
                    np.append(ent_codes, -1)[row_entity[col]], ent_labels
                )
        table = CodedTable(codes, labels, {}, n_ctx)
        timings["coding"] = time.perf_counter() - t0

        # IPW weights for extracted attributes with selection bias, on the
        # driver.
        t0 = time.perf_counter()
        weights: dict[str, str] = {}
        biased: set[str] = set()
        if cfg.ipw and extracted_analysis:
            # Propensity features: the binned outcome — P(R|O) is the
            # observable that corrects MNAR-in-E missingness (the exposure
            # is a near-deterministic predictor of entity-level missingness
            # and would make the weights degenerate).
            table, weights, biased = prepare_weights(
                table,
                extracted_analysis,
                o_bin=o_bin,
                t=t_col,
                features=[o_bin],
                alpha=cfg.alpha,
                eps_bits=cfg.eps_bits / 2,
            )
        timings["ipw"] = time.perf_counter() - t0
        return PreparedQuery(
            context=ctx,
            extractions=extractions,
            edges=binning.edges,
            table=table,
            o_bin=o_bin,
            t=t_col,
            candidates=analysis_cols,
            weights=weights,
            biased=biased,
            extracted_attrs=extracted_analysis,
            offline_report=offline_report,
            candidates_initial=candidates_initial,
            bins=bins,
            timings=timings,
        )

    def explain_prepared(self, prep: PreparedQuery) -> MesaResult:
        """Stages 6–7 on the prepared table: scan, online prune, MCIMR,
        responsibility. Runs no Spark job."""
        cfg = self.cfg
        timings = dict(prep.timings)
        t0 = time.perf_counter()
        scan = scan_counts(
            prep.table, [prep.o_bin, prep.t], prep.candidates, prep.weights
        )
        timings["scan"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        cands = prep.candidates
        online_report = PruneReport()
        if cfg.online_pruning:
            cands, online_report = online_prune(
                scan,
                cands,
                o_bin=prep.o_bin,
                t=prep.t,
                eps_fd=cfg.eps_fd,
                eps_rel=cfg.eps_rel,
            )
        timings["online_prune"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        result = mcimr(
            prep.table,
            cands,
            o_bin=prep.o_bin,
            t=prep.t,
            k=cfg.k,
            weights=prep.weights,
            scan=scan,
            eps_resp=cfg.eps_bits,
            alpha=cfg.alpha,
        )
        timings["mcimr"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        resp = responsibilities(
            prep.table,
            result.selected,
            o_bin=prep.o_bin,
            t=prep.t,
            weights=prep.weights,
            counts=result.final_counts,
        )
        timings["responsibility"] = time.perf_counter() - t0

        return MesaResult(
            explanation=[display_name(c) for c in result.selected],
            analysis_cols=result.selected,
            result=result,
            responsibility={display_name(c): v for c, v in resp.items()},
            candidates_initial=prep.candidates_initial,
            candidates_after_offline=len(prep.candidates),
            candidates_after_online=len(cands),
            offline_report=prep.offline_report,
            online_report=online_report,
            biased_attrs=prep.biased,
            extracted_attrs=prep.extracted_attrs,
            timings=timings,
        )

    def explain(
        self,
        df: DataFrame,
        query: AggQuery,
        kg: KnowledgeGraph | None = None,
        extraction_cols: list[str] | None = None,
        exclude: set[str] | None = None,
    ) -> MesaResult:
        """Full pipeline; see the module docstring. A cold explain neither
        marks nor drops a cache: Spark keys caches by plan, so dropping one
        here would evict a prepared frame of the same query cached
        elsewhere."""
        return self.explain_prepared(
            self._prepare(df, query, kg, extraction_cols, exclude)
        )
