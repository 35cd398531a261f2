"""MESA — the end-to-end system (§1, §4).

``Mesa.explain`` runs the full pipeline on an :class:`AggQuery`:

1. apply the query context;
2. extract candidate attributes from the knowledge source for every
   extraction column (NED → 1..h-hop properties → universal relation),
   offline-pruning at the entity level before the join;
3. integrate the universal relation(s) with the input table
   (broadcast left joins, prefixed per extraction column);
4. offline-prune input-table candidates; bin the outcome and the numeric
   candidates; collect the analysis columns once as a dictionary-coded
   table;
5. detect selection bias per extracted attribute and fit IPW weights, on
   the coded table;
6. one scan over the coded table → online pruning → MCIMR (sharing the
   scan);
7. responsibility ranking of the selected attributes.

``Mesa.prepare`` (stages 1–5) makes exactly three Spark passes:

* the **context pass**, one aggregation over the filtered input: the row
  count, ``collect_set`` of every extraction column (the values to link),
  and ``count`` + ``approx_count_distinct`` of the outcome and of every
  input-table candidate (the offline row-pruning statistics, whose
  distinct counts binning reuses);
* the **binning pass**, one aggregation over the KG-joined lineage: the
  quantile edges of the outcome and of the numeric candidates, and the
  distinct counts of the extracted ones;
* the **collect** of the binned analysis columns into the ``CodedTable``.

The universal relation has one row per value, so the broadcast left join
keeps the input's rows, partitions and order: the edges are the ones the
context alone would give. Each KG relation adds one broadcast job to each
pass over the joined lineage. Selection-bias detection, the propensity
fit and stages 6–7 count on the driver and run no Spark job.

The result carries the explanation plus everything the experiments report:
explainability scores, pruning/missingness statistics, and stage timings.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from pyspark.sql import DataFrame, SparkSession

from repro.core.contingency import CodedTable, scan_counts
from repro.core.mcimr import ExplanationResult, mcimr
from repro.core.pruning import (
    PruneReport,
    offline_prune_entity,
    offline_row_aggs,
    offline_row_decide,
    online_prune,
)
from repro.core.query import (
    BIN_SUFFIX,
    AggQuery,
    apply_context,
    ensure_binned,
    sql_ident,
)
from repro.core.responsibility import responsibilities
from repro.kg.extract import Extraction, extract_attributes, integrate
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


@dataclass
class PreparedQuery:
    """The integrated, binned, weighted frame MESA analyses — exposed so
    baselines and experiments can reuse the identical preparation.

    ``table`` holds the analysis columns (outcome bin, exposure, candidates)
    collected once and dictionary-coded, plus the IPW weight arrays.

    ``df`` is the joined, binned lineage plus the weight columns as SQL
    ``CASE`` expressions over the outcome bin; they hold the table's exact
    weights and are null where their attribute is null. ``prepare`` marks
    ``df`` for caching but runs no action on it: the first action fills the
    cache (the drill-down set-up runs ``prep.df.count()``). ``explain``
    leaves it unmarked."""

    df: DataFrame
    table: CodedTable
    o_bin: str
    t: str
    candidates: list[str]  # analysis columns
    weights: dict[str, str]
    biased: set[str]
    extracted_attrs: list[str]  # analysis columns that came from the KG
    offline_report: PruneReport
    candidates_initial: int
    timings: dict[str, float]


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
        """Stages 1–5 in three Spark passes: the context pass, the binning
        pass and the collect (see the module docstring); IPW then runs on
        the coded table. ``prep.df`` is marked for caching, and the caller
        owns that cache. Raises ``EmptyContextError`` when the context
        matches no rows."""
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
        """``prepare`` without marking ``prep.df`` for caching."""
        cfg = self.cfg
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
        extraction_cols = list(extraction_cols or []) if kg is not None else []
        # Context pass: the row count, the distinct values to link per
        # extraction column, and the offline-pruning statistics (which
        # include the distinct counts binning needs) of O and the input
        # candidates.
        stats = ctx.selectExpr(
            "count(1) AS __n",
            *[
                f"collect_set({sql_ident(c)}) AS {sql_ident('v_' + c)}"
                for c in extraction_cols
            ],
            *offline_row_aggs([o, *input_cands]),
        ).collect()[0].asDict()
        n_ctx = stats["__n"]
        if n_ctx == 0:
            raise EmptyContextError(
                f"query context {query.context!r} matches no rows"
            )
        # Adaptive bin count: plug-in CMI needs enough rows per cell, so
        # small contexts (Covid-19 has 188 rows; a Forbes category ~450)
        # use coarser bins. cfg.bins is the ceiling.
        bins = min(cfg.bins, max(3, n_ctx // 60))
        timings["context"] = time.perf_counter() - t0

        # Extraction + entity-level offline pruning + integration.
        t0 = time.perf_counter()
        extracted_cols: list[str] = []
        offline_report = PruneReport()
        n_extracted_raw = 0
        multi = len(extraction_cols) > 1
        for col in extraction_cols:
            ex: Extraction = extract_attributes(
                self.spark,
                kg,
                sorted(str(v) for v in stats[f"v_{col}"]),
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
            ctx, new_cols = integrate(ctx, ex, col, prefix=prefix, attrs=attrs)
            extracted_cols.extend(new_cols)
        timings["extract"] = time.perf_counter() - t0

        candidates_initial = len(input_cands) + max(
            n_extracted_raw, len(extracted_cols)
        )
        # Offline pruning of input-table candidates (row level), decided
        # from the context pass's statistics.
        t0 = time.perf_counter()
        if cfg.offline_pruning and input_cands:
            input_cands, rep = offline_row_decide(
                ctx,
                input_cands,
                stats,
                n_ctx,
                max_missing=cfg.max_missing,
                unique_ratio=cfg.unique_ratio,
            )
            for a, reason in rep.dropped.items():
                offline_report.drop(a, reason)
        timings["offline_prune"] = time.perf_counter() - t0

        # Binning pass over the joined lineage: the outcome and every
        # numeric candidate; only extracted columns still need a distinct
        # count.
        t0 = time.perf_counter()
        all_cands = input_cands + extracted_cols
        ctx, bin_map = ensure_binned(
            ctx,
            [o, *all_cands],
            bins=bins,
            distinct={c: stats[f"d_{c}"] for c in [o, *input_cands]},
        )
        o_bin = bin_map[o]
        analysis_cols = [bin_map[c] for c in all_cands]
        extracted_analysis = [bin_map[c] for c in extracted_cols]
        timings["binning"] = time.perf_counter() - t0

        # The one collect of the analysis columns.
        t0 = time.perf_counter()
        table = CodedTable.collect(ctx, [o_bin, t_col, *analysis_cols])
        timings["collect"] = time.perf_counter() - t0

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
        if weights:
            ctx = ctx.withColumns(weight_exprs(table, weights, [o_bin]))
        timings["ipw"] = time.perf_counter() - t0
        return PreparedQuery(
            df=ctx,
            table=table,
            o_bin=o_bin,
            t=t_col,
            candidates=analysis_cols,
            weights=weights,
            biased=biased,
            extracted_attrs=extracted_analysis,
            offline_report=offline_report,
            candidates_initial=candidates_initial,
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
