"""Experiment drivers — one function per paper table/figure.

Each function returns a pandas DataFrame whose printed form mirrors the
paper's table. ``jobs/*.py`` are thin spark-submit wrappers around these;
``benchmarks/`` time them. Scale knobs default to the benchmark scale
(SF≈0.1 for SO, smaller for Flights) — pass ``sf``/``n_junk`` to move.
"""
from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.contingency import CodedTable, scan_counts
from repro.core.mcimr import mcimr
from repro.core.mesa import Mesa, MesaConfig, display_name
from repro.core.pruning import offline_prune_rows, online_prune
from repro.core.subgroups import top_k_unexplained
from repro.datasets.base import SynthDataset
from repro.datasets.covid import make_covid
from repro.datasets.flights import make_flights
from repro.datasets.forbes import make_forbes
from repro.datasets.queries import (
    CATALOG,
    catalog_for,
    get_query,
    random_queries,
)
from repro.datasets.so import make_so
from repro.eval.harness import METHODS, run_all_methods
from repro.eval.scoring import explainability_distance
from repro.missing.impute import impute_mean
from repro.missing.ipw import prepare_weights
from repro.missing.mechanisms import (
    missing_fraction,
    remove_biased_top,
    remove_mcar,
)


RESULTS_DIR = Path(__file__).resolve().parents[3] / "results"


def save_result(df: pd.DataFrame, name: str) -> pd.DataFrame:
    """Persist an experiment table (best-effort) and return it —
    benchmarks and jobs call the same drivers, so every regeneration
    refreshes the recorded artifact. ``REPRO_RESULTS_DIR`` overrides the
    target (the unit tests point it at a scratch directory so tiny-scale
    runs never clobber the recorded benchmark artifacts)."""
    import os

    target = Path(os.environ.get("REPRO_RESULTS_DIR", RESULTS_DIR))
    try:
        target.mkdir(parents=True, exist_ok=True)
        df.to_csv(target / f"{name}.csv", index=False)
    except OSError:
        pass
    return df


@dataclass
class Scale:
    """Data-size knobs shared by the experiment drivers."""

    so_sf: float = 0.1
    flights_sf: float = 0.01
    n_junk: int = 16
    k: int = 5

    def paper(self) -> "Scale":
        """Paper-scale variant (SF=1, paper-like attribute counts)."""
        return Scale(so_sf=1.0, flights_sf=1.0, n_junk=400, k=5)


def build_datasets(
    spark: SparkSession, scale: Scale, *, only: list[str] | None = None
) -> dict[str, SynthDataset]:
    makers = {
        "SO": lambda: make_so(spark, sf=scale.so_sf, n_junk=scale.n_junk),
        "Covid-19": lambda: make_covid(spark, n_junk=scale.n_junk),
        "Flights": lambda: make_flights(
            spark, sf=scale.flights_sf, n_junk=scale.n_junk
        ),
        "Forbes": lambda: make_forbes(spark, n_junk=scale.n_junk),
    }
    out = {}
    for name, make in makers.items():
        if only and name not in only:
            continue
        ds = make()
        ds.df = ds.df.cache()
        ds.df.count()
        out[name] = ds
    return out


# ---------------------------------------------------------------------------
# Table 1 — Examined datasets
# ---------------------------------------------------------------------------


def table1(
    spark: SparkSession, scale: Scale | None = None
) -> pd.DataFrame:
    """n, |E| and extraction columns per dataset (paper Table 1)."""
    from repro.kg.extract import extract_attributes
    from pyspark.sql import functions as F

    scale = scale or Scale()
    datasets = build_datasets(spark, scale)
    rows = []
    for name, ds in datasets.items():
        n_attrs = 0
        for col in ds.extraction_cols:
            values = [
                str(r[col])
                for r in ds.df.select(col).distinct().collect()
                if r[col] is not None
            ]
            ex = extract_attributes(ds.kg, values, hops=1)
            n_attrs += len(ex.attrs)
        rows.append(
            {
                "Dataset": name,
                "n": ds.df.count(),
                "|E|": n_attrs,
                "Columns used for extraction": ", ".join(ds.extraction_cols),
            }
        )
        ds.df.unpersist()
    return save_result(pd.DataFrame(rows), "table1")


# ---------------------------------------------------------------------------
# Table 2 + Table 3 (+ Fig 2) — explanations, scores, distances
# ---------------------------------------------------------------------------


def table2(
    spark: SparkSession,
    scale: Scale | None = None,
    *,
    methods: tuple[str, ...] = METHODS,
    only: list[str] | None = None,
) -> pd.DataFrame:
    """Per-query explanations of every method (paper Table 2), plus the
    surrogate user score, explainability and runtime per method."""
    scale = scale or Scale()
    datasets = build_datasets(spark, scale, only=only)
    cfg = MesaConfig(k=scale.k)
    rows = []
    for cq in CATALOG:
        if cq.dataset not in datasets:
            continue
        ds = datasets[cq.dataset]
        outcomes = run_all_methods(spark, ds, cq, cfg=cfg, methods=methods)
        for m, oc in outcomes.items():
            rows.append(
                {
                    "Dataset": cq.dataset,
                    "Query": cq.qid,
                    "Description": cq.description,
                    "Method": m,
                    "Explanation": ", ".join(oc.selected)
                    if oc.available
                    else "-",
                    "Score": round(oc.score, 2) if oc.available else np.nan,
                    "Explainability": round(oc.final_cmi, 3)
                    if oc.available
                    else np.nan,
                    "BaseCMI": round(oc.base_cmi, 3)
                    if oc.available
                    else np.nan,
                    "Seconds": round(oc.seconds, 2),
                    "PaperMESA": ", ".join(cq.paper_mesa),
                }
            )
    for ds in datasets.values():
        ds.df.unpersist()
    tag = "_".join(sorted(only)) if only else "all"
    return save_result(pd.DataFrame(rows), f"table2_{tag}")


def table3(table2_df: pd.DataFrame) -> pd.DataFrame:
    """Average surrogate score (± variance) per method (paper Table 3)."""
    avail = table2_df.dropna(subset=["Score"])
    out = (
        avail.groupby("Method")["Score"]
        .agg(["mean", "var", "count"])
        .rename(
            columns={
                "mean": "Average Score",
                "var": "Average Variance",
                "count": "Queries",
            }
        )
        .round(2)
        .reset_index()
        .sort_values("Average Score", ascending=False)
        .reset_index(drop=True)
    )
    return save_result(out, "table3")


def fig2_distances(table2_df: pd.DataFrame) -> pd.DataFrame:
    """Distance of each method's explainability score from Brute-Force's
    (paper Fig 2). Queries where Brute-Force is infeasible use the best
    available method's score as the reference, mirroring the gold-standard
    role."""
    rows = []
    for (dsname, qid), grp in table2_df.groupby(["Dataset", "Query"]):
        grp = grp.dropna(subset=["Explainability"])
        if grp.empty:
            continue
        bf = grp[grp.Method == "Brute-Force"]
        ref = (
            float(bf.Explainability.iloc[0])
            if len(bf)
            else float(grp.Explainability.min())
        )
        for _, r in grp.iterrows():
            rows.append(
                {
                    "Dataset": dsname,
                    "Query": qid,
                    "Method": r.Method,
                    "Distance": round(
                        explainability_distance(r.Explainability, ref), 3
                    ),
                    "ReferenceIsBruteForce": bool(len(bf)),
                }
            )
    return save_result(pd.DataFrame(rows), "fig2_distances")


# ---------------------------------------------------------------------------
# §5.1 usefulness stat — random queries
# ---------------------------------------------------------------------------


def random_query_usefulness(
    spark: SparkSession,
    scale: Scale | None = None,
    *,
    n_per_dataset: int = 10,
    seed: int = 0,
    only: list[str] | None = None,
) -> pd.DataFrame:
    """The 72.5% experiment: fraction of random queries where MESA's
    explanation (a) lowers the partial correlation and (b) contains at
    least one extracted attribute."""
    scale = scale or Scale()
    datasets = build_datasets(spark, scale, only=only)
    cfg = MesaConfig(k=scale.k)
    rows = []
    for name, ds in datasets.items():
        mesa = Mesa(spark, cfg)
        for q in random_queries(ds, n_per_dataset, seed=seed):
            try:
                res = mesa.explain(ds.df, q, ds.kg, ds.extraction_cols)
                extracted = set(res.extracted_attrs)
                has_extracted = any(
                    a in {display_name(e) for e in extracted}
                    for a in res.explanation
                )
                useful = (
                    bool(res.explanation)
                    and res.explainability < res.base_cmi - 1e-9
                    and has_extracted
                )
                rows.append(
                    {
                        "Dataset": name,
                        "Query": q.name,
                        "T": q.t if isinstance(q.t, str) else "+".join(q.t),
                        "O": q.o,
                        "Useful": useful,
                        "Explanation": ", ".join(res.explanation),
                    }
                )
            except Exception as e:  # degenerate random query: count as not useful
                rows.append(
                    {
                        "Dataset": name,
                        "Query": q.name,
                        "T": q.t if isinstance(q.t, str) else "+".join(q.t),
                        "O": q.o,
                        "Useful": False,
                        "Explanation": f"error: {type(e).__name__}",
                    }
                )
        ds.df.unpersist()
    return save_result(pd.DataFrame(rows), "random_queries")


# ---------------------------------------------------------------------------
# Table 4 — top-k unexplained data groups (SO Q1)
# ---------------------------------------------------------------------------


def table4(
    spark: SparkSession,
    scale: Scale | None = None,
    *,
    tau: float = 0.2,
    k: int = 5,
) -> pd.DataFrame:
    """Top-k largest unexplained subgroups for SO Q1 (paper Table 4)."""
    scale = scale or Scale()
    ds = make_so(spark, sf=scale.so_sf, n_junk=scale.n_junk)
    ds.df = ds.df.cache()
    cq = get_query("SO", "Q1")
    mesa = Mesa(spark, MesaConfig(k=scale.k))
    prep = mesa.prepare(ds.df, cq.query, ds.kg, ds.extraction_cols)
    res = mesa.explain_prepared(prep)
    # The paper sets τ "based on the initial explanation score": a group is
    # unexplained when its score clearly exceeds what the explanation
    # achieves globally — at small SF the global residual floor rises, so
    # the threshold must rise with it.
    tau_eff = max(tau, 1.5 * res.result.final_cmi)
    global_ratio = res.result.final_cmi / max(res.result.base_cmi, 1e-9)
    sg = top_k_unexplained(
        prep.df,
        explanation=res.analysis_cols,
        refine_attrs=list(cq.refine_attrs),
        o_bin=prep.o_bin,
        t=prep.t,
        k=k,
        tau=tau_eff,
        tau_ratio=min(0.9, max(0.35, 2.0 * global_ratio)),
        weights=prep.weights,
    )
    prep.df.unpersist()
    ds.df.unpersist()
    rows = [
        {
            "Rank": i + 1,
            "Size": g.size,
            "Data group": g.describe(),
            "Score": round(g.score, 3),
            "Score/GroupBase": round(g.ratio, 3),
        }
        for i, g in enumerate(sg.groups)
    ]
    out = pd.DataFrame(rows)
    out.attrs["explanation"] = res.explanation
    out.attrs["nodes_explored"] = sg.nodes_explored
    return save_result(out, "table4")


# ---------------------------------------------------------------------------
# Fig 3 — robustness to missing data
# ---------------------------------------------------------------------------


def fig3_missing_robustness(
    spark: SparkSession,
    scale: Scale | None = None,
    *,
    dataset: str = "SO",
    fracs: tuple[float, ...] = (0.0, 0.1, 0.3, 0.5, 0.7),
    modes: tuple[str, ...] = ("mcar", "biased"),
    top_n: int = 10,
) -> pd.DataFrame:
    """Explainability vs % of injected missing values in the top-N most
    outcome-relevant attributes, for MESA's complete-case+IPW approach vs
    mean imputation (paper Fig 3)."""
    from repro.core.contingency import VAL_COL
    from repro.core.info_theory import cmi_from_counts

    scale = scale or Scale()
    datasets = build_datasets(spark, scale, only=[dataset])
    ds = datasets[dataset]
    cq = catalog_for(dataset)[0]
    cfg = MesaConfig(k=scale.k, ipw=False)
    mesa = Mesa(spark, cfg)
    prep = mesa.prepare(
        ds.df, cq.query, ds.kg, ds.extraction_cols, exclude=set(cq.exclude)
    )
    # Top-N most relevant (w.r.t. the outcome) extracted attributes.
    # Only numeric attributes: the biased-removal mechanism nulls the
    # top-x *highest values*, which needs an order (as in the paper).
    from repro.core.query import is_numeric

    numeric_attrs = [a for a in prep.extracted_attrs if is_numeric(prep.df, a)]
    scan = scan_counts(prep.table, [prep.o_bin], numeric_attrs)
    relevance = {
        a: cmi_from_counts(scan[a], prep.o_bin, VAL_COL)
        for a in numeric_attrs
        if not scan[a].empty
    }
    targets = sorted(relevance, key=relevance.get, reverse=True)[:top_n]
    rows = []
    for mode in modes:
        for frac in fracs:
            df_m = prep.df
            for a in targets:
                if frac > 0:
                    df_m = (
                        remove_mcar(df_m, a, frac, seed=zlib.crc32(a.encode()) % 1000)
                        if mode == "mcar"
                        else remove_biased_top(df_m, a, frac)
                    )
            df_m = df_m.cache()
            # MESA path: complete cases + IPW weights where bias detected.
            table, weights, _ = prepare_weights(
                CodedTable.collect(df_m, [prep.o_bin, prep.t, *prep.candidates]),
                targets,
                o_bin=prep.o_bin,
                t=prep.t,
                features=[prep.o_bin],
            )
            res = mcimr(
                table,
                prep.candidates,
                o_bin=prep.o_bin,
                t=prep.t,
                k=scale.k,
                weights=weights,
            )
            # Imputation comparator.
            df_i = impute_mean(df_m, targets)
            res_i = mcimr(
                CodedTable.collect(df_i, [prep.o_bin, prep.t, *prep.candidates]),
                prep.candidates,
                o_bin=prep.o_bin,
                t=prep.t,
                k=scale.k,
            )
            rows.append(
                {
                    "Mode": mode,
                    "MissingFrac": frac,
                    "MESA (IPW) explainability": round(res.final_cmi, 3),
                    "Imputation explainability": round(res_i.final_cmi, 3),
                    "MESA explanation": ", ".join(
                        display_name(c) for c in res.selected
                    ),
                }
            )
            df_m.unpersist()
    prep.df.unpersist()
    ds.df.unpersist()
    return save_result(pd.DataFrame(rows), "fig3_missing")


def missingness_stats(
    spark: SparkSession, scale: Scale | None = None
) -> pd.DataFrame:
    """§5.2's headline stats: % missing values in extracted attributes and
    % of attributes with detected selection bias, per dataset."""
    from repro.missing.ipw import detect_selection_bias_batch

    scale = scale or Scale()
    datasets = build_datasets(spark, scale)
    cfg = MesaConfig(k=scale.k, ipw=False)
    rows = []
    for name, ds in datasets.items():
        cq = catalog_for(name)[0]
        mesa = Mesa(spark, cfg)
        prep = mesa.prepare(
            ds.df, cq.query, ds.kg, ds.extraction_cols, exclude=set(cq.exclude)
        )
        fracs = missing_fraction(prep.df, prep.extracted_attrs)
        biased = detect_selection_bias_batch(
            prep.table, prep.extracted_attrs, o_bin=prep.o_bin, t=prep.t
        )
        rows.append(
            {
                "Dataset": name,
                "% missing (avg over attrs)": round(
                    100 * float(np.mean(list(fracs.values()))), 1
                )
                if fracs
                else 0.0,
                "% attrs with selection bias": round(
                    100 * len(biased) / max(1, len(prep.extracted_attrs)), 1
                ),
            }
        )
        prep.df.unpersist()
        ds.df.unpersist()
    return save_result(pd.DataFrame(rows), "missingness_stats")


# ---------------------------------------------------------------------------
# Figs 4–6 — efficiency sweeps
# ---------------------------------------------------------------------------


def _timed_mcimr(prep, candidates, k, *, online: bool) -> float:
    """Driver-side scan, online pruning and MCIMR on the prepared table."""
    t0 = time.perf_counter()
    scan = scan_counts(prep.table, [prep.o_bin, prep.t], candidates, prep.weights)
    cands = candidates
    if online:
        cands, _ = online_prune(scan, candidates, o_bin=prep.o_bin, t=prep.t)
    mcimr(
        prep.table,
        cands,
        o_bin=prep.o_bin,
        t=prep.t,
        k=k,
        weights=prep.weights,
        scan=scan,
    )
    return time.perf_counter() - t0


def fig4_candidates_sweep(
    spark: SparkSession,
    scale: Scale | None = None,
    *,
    dataset: str = "SO",
    sizes: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0),
    seed: int = 0,
) -> pd.DataFrame:
    """Runtime vs |A| for No-Pruning / Offline-Pruning / MCIMR (Fig 4).

    Candidates are dropped uniformly at random to each target share, as in
    the paper. "No pruning" runs MCIMR over all sampled candidates;
    "Offline" applies only the offline filters; "MCIMR" adds online
    pruning (the full system)."""
    scale = scale or Scale()
    datasets = build_datasets(spark, scale, only=[dataset])
    ds = datasets[dataset]
    cq = catalog_for(dataset)[0]
    rng = np.random.default_rng(seed)
    # Prepare WITHOUT offline pruning so the sweep controls pruning itself.
    cfg = MesaConfig(k=scale.k, offline_pruning=False, ipw=False)
    prep = Mesa(spark, cfg).prepare(
        ds.df, cq.query, ds.kg, ds.extraction_cols, exclude=set(cq.exclude)
    )
    all_cands = prep.candidates
    rows = []
    for share in sizes:
        m = max(2, int(len(all_cands) * share))
        sample = sorted(rng.choice(all_cands, size=m, replace=False))
        t_none = _timed_mcimr(prep, sample, scale.k, online=False)
        off, _ = offline_prune_rows(prep.df, sample)
        t_off = _timed_mcimr(prep, off, scale.k, online=False)
        t_full = _timed_mcimr(prep, off, scale.k, online=True)
        rows.append(
            {
                "|A|": m,
                "No Pruning (s)": round(t_none, 2),
                "Offline Pruning (s)": round(t_off, 2),
                "MCIMR (s)": round(t_full, 2),
            }
        )
    prep.df.unpersist()
    ds.df.unpersist()
    return save_result(pd.DataFrame(rows), "fig4_candidates")


def fig5_datasize_sweep(
    spark: SparkSession,
    scale: Scale | None = None,
    *,
    dataset: str = "SO",
    fractions: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0),
) -> pd.DataFrame:
    """Runtime vs |D| — tuples dropped uniformly at random (Fig 5)."""
    scale = scale or Scale()
    datasets = build_datasets(spark, scale, only=[dataset])
    ds = datasets[dataset]
    cq = catalog_for(dataset)[0]
    cfg = MesaConfig(k=scale.k, ipw=False)
    rows = []
    for frac in fractions:
        sub = ds.df.sample(fraction=frac, seed=1).cache()
        n = sub.count()
        t0 = time.perf_counter()
        Mesa(spark, cfg).explain(
            sub, cq.query, ds.kg, ds.extraction_cols, exclude=set(cq.exclude)
        )
        rows.append(
            {"|D|": n, "MCIMR (s)": round(time.perf_counter() - t0, 2)}
        )
        sub.unpersist()
    ds.df.unpersist()
    return save_result(pd.DataFrame(rows), "fig5_datasize")


def fig6_k_sweep(
    spark: SparkSession,
    scale: Scale | None = None,
    *,
    dataset: str = "SO",
    ks: tuple[int, ...] = (1, 2, 3, 5, 8),
) -> pd.DataFrame:
    """Runtime vs the bound k on the explanation size (Fig 6)."""
    scale = scale or Scale()
    datasets = build_datasets(spark, scale, only=[dataset])
    ds = datasets[dataset]
    cq = catalog_for(dataset)[0]
    cfg = MesaConfig(k=scale.k, ipw=False)
    prep = Mesa(spark, cfg).prepare(
        ds.df, cq.query, ds.kg, ds.extraction_cols, exclude=set(cq.exclude)
    )
    rows = []
    for k in ks:
        t0 = time.perf_counter()
        res = mcimr(
            prep.table, prep.candidates, o_bin=prep.o_bin, t=prep.t, k=k,
            weights=prep.weights,
        )
        rows.append(
            {
                "k": k,
                "MCIMR (s)": round(time.perf_counter() - t0, 2),
                "|explanation|": len(res.selected),
            }
        )
    prep.df.unpersist()
    ds.df.unpersist()
    return save_result(pd.DataFrame(rows), "fig6_k")
