"""Selection-bias detection and Inverse Probability Weighting (§3.2).

For an extracted attribute ``E`` with missing values, let ``R_E`` be the
selection indicator (1 iff ``E`` is observed for the tuple). Complete-case
analysis is unbiased when the recoverability conditions of Props 3.1/3.2
hold; otherwise IPW reweights complete cases by
``W = P(R_E = 1) / P(R_E = 1 | X)``.

Implementation notes (all dataflow-first):

* **Detection** — G-tests of ``R_E`` against the binned outcome and the
  exposure, from one small contingency per attribute. Dependence on either
  violates the premise of Prop 3.1's recoverability, so weights are added
  (this is the paper's "check if weights are needed").
* **Propensity model** — the paper fits a logistic regression for
  ``P(R_E = 1 | X)`` over the input-dataset attributes. Since every feature
  is categorical/binned, we aggregate ``groupBy(features) → (n_observed,
  n_total)`` in Spark (one shuffle), then fit a weighted logistic
  regression by IRLS in numpy on that tiny grouped design — identical
  likelihood to row-level fitting, at entity-combination cost instead of
  |D| cost.
* **Weights** — joined back as a per-attribute weight column; incomplete
  rows get null weight (they are dropped per attribute by the contingency
  counts anyway).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.contingency import joint_counts
from repro.core.info_theory import is_conditionally_independent

WEIGHT_PREFIX = "__w__"


def weight_col_name(attr: str) -> str:
    return WEIGHT_PREFIX + attr


def selection_indicator(df: DataFrame, attr: str, out: str) -> DataFrame:
    return df.withColumn(out, F.col(attr).isNotNull().cast("int"))


def detect_selection_bias(
    df: DataFrame,
    attr: str,
    *,
    o_bin: str,
    t: str,
    alpha: float = 0.05,
    eps_bits: float = 0.02,
) -> bool:
    """True iff the missingness of ``attr`` is associated with the outcome
    (single-attribute variant of :func:`detect_selection_bias_batch`; see
    there for why only O-association flags bias)."""
    del t  # kept for signature stability; see batch variant's docstring
    r = "__r"
    with_r = selection_indicator(df, attr, r)
    pdf = joint_counts(with_r, [r, o_bin])
    return not is_conditionally_independent(
        pdf, r, o_bin, alpha=alpha, eps_bits=eps_bits
    )


def _irls_logistic(
    X: np.ndarray, successes: np.ndarray, totals: np.ndarray, *, ridge: float = 1e-6
) -> np.ndarray:
    """Weighted logistic regression on grouped data (IRLS).

    ``X`` is the grouped design (one row per feature combination, intercept
    included), ``successes``/``totals`` the observed/total counts per
    combination. Returns the coefficient vector. A small ridge keeps the
    Newton step defined under (quasi-)separation — common here because a
    fully-missing entity makes some combinations all-zero.
    """
    n_feat = X.shape[1]
    beta = np.zeros(n_feat)
    for _ in range(50):
        eta = X @ beta
        mu = 1.0 / (1.0 + np.exp(-np.clip(eta, -30, 30)))
        w = totals * mu * (1 - mu) + 1e-12
        z = eta + (successes - totals * mu) / w
        A = (X * w[:, None]).T @ X + ridge * np.eye(n_feat)
        beta_new = np.linalg.solve(A, (X * w[:, None]).T @ z)
        if np.max(np.abs(beta_new - beta)) < 1e-8:
            beta = beta_new
            break
        beta = beta_new
    return beta


@dataclass
class PropensityModel:
    """Fitted P(R=1|X) over categorical features, as a lookup frame."""

    features: list[str]
    table: pd.DataFrame  # features + 'p_hat'
    marginal: float  # P(R=1)

    def weight_frame(self) -> pd.DataFrame:
        """Feature combinations with their IPW weight P(R=1)/P(R=1|X)."""
        out = self.table.copy()
        out["w"] = self.marginal / out["p_hat"]
        return out[self.features + ["w"]]


def fit_propensity(
    df: DataFrame,
    attr: str,
    features: list[str],
    *,
    clip: tuple[float, float] = (0.01, 1.0),
) -> PropensityModel:
    """Fit P(R_attr=1 | features) by grouped IRLS logistic regression."""
    r = "__r"
    with_r = selection_indicator(df, attr, r)
    grouped = (
        with_r.groupBy(*[F.col(f).cast("string").alias(f) for f in features])
        .agg(
            F.sum(r).cast("double").alias("__obs"),
            F.count(F.lit(1)).cast("double").alias("__tot"),
        )
        .toPandas()
    )
    grouped = grouped.dropna(subset=features)
    # One-hot encode (drop-first per feature; intercept column added).
    dummies = pd.get_dummies(
        grouped[features].astype(str), drop_first=True, dtype=float
    )
    X = np.column_stack([np.ones(len(grouped)), dummies.to_numpy()])
    beta = _irls_logistic(
        X, grouped["__obs"].to_numpy(), grouped["__tot"].to_numpy()
    )
    eta = X @ beta
    p_hat = 1.0 / (1.0 + np.exp(-np.clip(eta, -30, 30)))
    p_hat = np.clip(p_hat, clip[0], clip[1])
    table = grouped[features].copy()
    table["p_hat"] = p_hat
    marginal = float(grouped["__obs"].sum() / grouped["__tot"].sum())
    return PropensityModel(features=features, table=table, marginal=marginal)


def add_ipw_weight(
    df: DataFrame, attr: str, model: PropensityModel
) -> tuple[DataFrame, str]:
    """Attach the IPW weight column for ``attr`` (null on incomplete rows)."""
    wcol = weight_col_name(attr)
    spark = df.sparkSession
    lookup = spark.createDataFrame(model.weight_frame()).withColumnRenamed(
        "w", wcol
    )
    join_conds = [
        df[f].cast("string") == lookup[f] for f in model.features
    ]
    joined = df.join(F.broadcast(lookup), join_conds, "left")
    for f in model.features:
        joined = joined.drop(lookup[f])
    # Weight only meaningful where attr observed; null elsewhere.
    joined = joined.withColumn(
        wcol,
        F.when(F.col(attr).isNotNull(), F.coalesce(F.col(wcol), F.lit(1.0))),
    )
    return joined, wcol


def detect_selection_bias_batch(
    df: DataFrame,
    attrs: list[str],
    *,
    o_bin: str,
    t: str,
    alpha: float = 0.05,
    eps_bits: float = 0.02,
) -> set[str]:
    """Batched §3.2 detection: which attributes' missingness is associated
    with the *outcome*. One collect regardless of |attrs| — the
    missingness indicators are scanned exactly like candidate attributes.

    Prop 3.1's recoverability conditions are about O-dependence of the
    selection indicator (``O ⟂ R_E | …``); dependence of R_E on the
    exposure alone is unavoidable for entity-level KG missingness (a
    property is missing for an entity, hence for every one of its rows)
    and does not by itself bias the per-group conditionals — so, like the
    paper's 13–29%-of-attributes statistic implies, only O-association
    flags an attribute. ``eps_bits`` is the practical effect floor on the
    bias-corrected MI.
    """
    from repro.core.contingency import VAL_COL, scan_counts

    if not attrs:
        return set()
    ind_cols = {a: f"__r{i}" for i, a in enumerate(attrs)}
    with_r = df
    for a, r in ind_cols.items():
        with_r = with_r.withColumn(r, F.col(a).isNotNull().cast("int"))
    biased: set[str] = set()
    scan = scan_counts(with_r, [o_bin], [ind_cols[a] for a in attrs])
    for a in attrs:
        pdf = scan[ind_cols[a]]
        if pdf.empty or pdf[VAL_COL].nunique() < 2:
            continue  # fully observed or fully missing: no bias signal
        # Biased iff the bias-corrected MI clears ``eps_bits`` and the
        # G-test rejects: exactly a failed CI decision.
        if not is_conditionally_independent(
            pdf, VAL_COL, o_bin, alpha=alpha, eps_bits=eps_bits
        ):
            biased.add(a)
    return biased


def prepare_weights(
    df: DataFrame,
    attrs: list[str],
    *,
    o_bin: str,
    t: str,
    features: list[str],
    alpha: float = 0.05,
    eps_bits: float = 0.005,
) -> tuple[DataFrame, dict[str, str], set[str]]:
    """Full §3.2 pipeline: detect bias per attribute, fit propensities,
    attach weight columns.

    Detection is batched (one scan). Propensity fitting is batched
    too: ONE ``groupBy(features)`` aggregates the observed/total counts of
    every biased attribute simultaneously, each attribute gets its own
    IRLS fit on that shared grouped design, and all weight columns join
    back through a single broadcast lookup.

    Returns ``(df_with_weights, {attr: weight_col}, biased_attrs)``.
    Attributes without missing values or without detected bias get no
    weight column (unit weight in the scan).
    """
    if not attrs:
        return df, {}, set()
    biased = detect_selection_bias_batch(
        df, attrs, o_bin=o_bin, t=t, alpha=alpha, eps_bits=eps_bits
    )
    if not biased:
        return df, {}, set()
    blist = sorted(biased)
    grouped = (
        df.groupBy(*[F.col(f).cast("string").alias(f) for f in features])
        .agg(
            F.count(F.lit(1)).cast("double").alias("__tot"),
            *[
                F.sum(F.col(a).isNotNull().cast("int"))
                .cast("double")
                .alias(f"__obs{i}")
                for i, a in enumerate(blist)
            ],
        )
        .toPandas()
        .dropna(subset=features)
    )
    dummies = pd.get_dummies(
        grouped[features].astype(str), drop_first=True, dtype=float
    )
    X = np.column_stack([np.ones(len(grouped)), dummies.to_numpy()])
    totals = grouped["__tot"].to_numpy()
    lookup = grouped[features].copy()
    weights: dict[str, str] = {}
    for i, a in enumerate(blist):
        successes = grouped[f"__obs{i}"].to_numpy()
        beta = _irls_logistic(X, successes, totals)
        p_hat = np.clip(
            1.0 / (1.0 + np.exp(-np.clip(X @ beta, -30, 30))), 0.01, 1.0
        )
        marginal = successes.sum() / totals.sum()
        wcol = weight_col_name(a)
        lookup[wcol] = marginal / p_hat
        weights[a] = wcol
    spark = df.sparkSession
    lkp = spark.createDataFrame(lookup)
    conds = [df[f].cast("string") == lkp[f] for f in features]
    joined = df.join(F.broadcast(lkp), conds, "left")
    for f in features:
        joined = joined.drop(lkp[f])
    for a, wcol in weights.items():
        joined = joined.withColumn(
            wcol,
            F.when(F.col(a).isNotNull(), F.coalesce(F.col(wcol), F.lit(1.0))),
        )
    return joined, weights, biased
