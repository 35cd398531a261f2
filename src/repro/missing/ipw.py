"""Selection-bias detection and Inverse Probability Weighting (§3.2).

For an extracted attribute ``E`` with missing values, let ``R_E`` be the
selection indicator (1 iff ``E`` is observed for the tuple). Complete-case
analysis is unbiased when the recoverability conditions of Props 3.1/3.2
hold; otherwise IPW reweights complete cases by
``W = P(R_E = 1) / P(R_E = 1 | X)``.

``Mesa`` runs all of it on the driver, over the coded table it collected
(null = code -1, so ``R_E`` is ``codes[E] >= 0``):

* **Detection** — G-tests of ``R_E`` against the binned outcome, from one
  ``scan_counts`` of an indicator table. Dependence on O violates the
  premise of Prop 3.1's recoverability, so weights are added (this is the
  paper's "check if weights are needed").
* **Propensity model** — the paper fits a logistic regression for
  ``P(R_E = 1 | X)`` over the input-dataset attributes. Every feature is
  categorical/binned, so ``np.bincount`` over the feature codes gives
  ``(n_observed, n_total)`` per feature cell, and a weighted logistic
  regression is fitted by IRLS in numpy on that tiny grouped design —
  identical likelihood to row-level fitting, at cell cost instead of |D|
  cost.
* **Weights** — one float64 array per attribute on the table; 1.0 where
  the attribute or a feature is null (an incomplete row is dropped per
  attribute by the contingency counts anyway). ``weight_exprs`` writes the
  same values as lazy SQL ``CASE`` columns for the Spark frame.

Detection takes a coded table only. ``fit_propensity`` and
``add_ipw_weight`` are the single-attribute DataFrame versions of the fit
and the join-back, off ``Mesa``'s path.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.core.contingency import VAL_COL, CodedTable, scan_counts
from repro.core.info_theory import is_conditionally_independent
from repro.core.query import sql_double, sql_ident

WEIGHT_PREFIX = "__w__"


def weight_col_name(attr: str) -> str:
    return WEIGHT_PREFIX + attr


def selection_indicator(df: DataFrame, attr: str, out: str) -> DataFrame:
    return df.withColumn(out, F.col(attr).isNotNull().cast("int"))


def detect_selection_bias(
    table: CodedTable,
    attr: str,
    *,
    o_bin: str,
    t: str,
    alpha: float = 0.05,
    eps_bits: float = 0.02,
) -> bool:
    """True iff the missingness of ``attr`` is associated with the outcome
    (:func:`detect_selection_bias_batch` for one attribute)."""
    return attr in detect_selection_bias_batch(
        table, [attr], o_bin=o_bin, t=t, alpha=alpha, eps_bits=eps_bits
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


#: labels of a selection indicator's codes (``R = 0``, ``R = 1``)
_INDICATOR_LABELS = np.array(["0", "1"], dtype=object)


def detect_selection_bias_batch(
    table: CodedTable,
    attrs: list[str],
    *,
    o_bin: str,
    t: str,
    alpha: float = 0.05,
    eps_bits: float = 0.02,
) -> set[str]:
    """Batched §3.2 detection: which attributes' missingness is associated
    with the *outcome*. The missingness indicators ``codes[a] >= 0`` form a
    table of their own, scanned against ``o_bin`` exactly like candidate
    attributes.

    Prop 3.1's recoverability conditions are about O-dependence of the
    selection indicator (``O ⟂ R_E | …``); dependence of R_E on the
    exposure alone is unavoidable for entity-level KG missingness (a
    property is missing for an entity, hence for every one of its rows)
    and does not by itself bias the per-group conditionals — so, like the
    paper's 13–29%-of-attributes statistic implies, only O-association
    flags an attribute. ``eps_bits`` is the practical effect floor on the
    bias-corrected MI.
    """
    del t  # kept for signature stability; see above
    if not attrs:
        return set()
    ind = {a: f"__r{i}" for i, a in enumerate(attrs)}
    indicators = CodedTable(
        {
            o_bin: table.codes[o_bin],
            **{r: (table.codes[a] >= 0).astype(np.int8) for a, r in ind.items()},
        },
        {o_bin: table.labels[o_bin], **{r: _INDICATOR_LABELS for r in ind.values()}},
        {},
        table.n_rows,
    )
    scan = scan_counts(indicators, [o_bin], list(ind.values()))
    biased: set[str] = set()
    for a, r in ind.items():
        pdf = scan[r]
        if pdf.empty or pdf[VAL_COL].nunique() < 2:
            continue  # fully observed or fully missing: no bias signal
        # Biased iff the bias-corrected MI clears ``eps_bits`` and the
        # G-test rejects: exactly a failed CI decision.
        if not is_conditionally_independent(
            pdf, VAL_COL, o_bin, alpha=alpha, eps_bits=eps_bits
        ):
            biased.add(a)
    return biased


def _feature_cells(
    table: CodedTable, features: Sequence[str]
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """The rows with every feature observed, grouped by feature cell.

    Returns those rows' indices, each one's cell index, and per feature
    the code of every cell (cells in mixed-radix key order)."""
    keep = np.ones(table.n_rows, dtype=bool)
    for f in features:
        keep &= table.codes[f] >= 0
    rows = np.flatnonzero(keep)
    sizes = [len(table.labels[f]) for f in features]
    key = np.zeros(len(rows), dtype=np.int64)
    for f, k in zip(features, sizes):
        key *= k
        key += table.codes[f][rows]
    cells, cell_of = np.unique(key, return_inverse=True)
    codes = []
    for k in reversed(sizes):
        cells, c = np.divmod(cells, k)
        codes.append(c)
    return rows, cell_of.ravel(), codes[::-1]


def prepare_weights(
    table: CodedTable,
    attrs: list[str],
    *,
    o_bin: str,
    t: str,
    features: list[str],
    alpha: float = 0.05,
    eps_bits: float = 0.005,
) -> tuple[CodedTable, dict[str, str], set[str]]:
    """Full §3.2 pipeline on the coded table: detect bias per attribute,
    fit propensities, attach weight columns.

    Detection is one scan of the indicator table. The grouped design
    ((observed, total) per feature cell) is counted once per attribute
    with ``np.bincount`` over the shared feature cells; each biased
    attribute gets its own IRLS fit on it.

    Returns ``(table_with_weights, {attr: weight_col}, biased_attrs)``.
    Attributes without missing values or without detected bias get no
    weight column (unit weight in the scan).
    """
    if not attrs:
        return table, {}, set()
    biased = detect_selection_bias_batch(
        table, attrs, o_bin=o_bin, t=t, alpha=alpha, eps_bits=eps_bits
    )
    if not biased:
        return table, {}, set()
    rows, cell_of, cell_codes = _feature_cells(table, features)
    n_cells = len(cell_codes[0])
    design = pd.DataFrame(
        {f: table.labels[f][c] for f, c in zip(features, cell_codes)}
    )
    # One-hot encode (drop-first per feature; intercept column added).
    dummies = pd.get_dummies(design.astype(str), drop_first=True, dtype=float)
    X = np.column_stack([np.ones(n_cells), dummies.to_numpy()])
    totals = np.bincount(cell_of, minlength=n_cells).astype(np.float64)
    weights: dict[str, str] = {}
    for a in sorted(biased):
        observed = table.codes[a][rows] >= 0
        successes = np.bincount(cell_of[observed], minlength=n_cells).astype(
            np.float64
        )
        beta = _irls_logistic(X, successes, totals)
        p_hat = np.clip(
            1.0 / (1.0 + np.exp(-np.clip(X @ beta, -30, 30))), 0.01, 1.0
        )
        marginal = successes.sum() / totals.sum()
        w = np.ones(table.n_rows)
        w[rows[observed]] = (marginal / p_hat)[cell_of[observed]]
        wcol = weight_col_name(a)
        table = table.with_weight(wcol, w)
        weights[a] = wcol
    return table, weights, biased


def weight_exprs(
    table: CodedTable, weights: Mapping[str, str], features: Sequence[str]
) -> dict[str, Column]:
    """The table's weight columns as Spark SQL ``CASE`` expressions over
    ``CAST(feature AS STRING)``, for ``withColumns`` on the frame the table
    was collected from.

    Each holds the table's exact values: the weight of a feature cell where
    the attribute is observed, 1.0 where a feature is null, and null where
    the attribute is null.
    """
    rows, cell_of, cell_codes = _feature_cells(table, features)
    conds = [
        " AND ".join(
            f"CAST({sql_ident(f)} AS STRING) = {_sql_str(table.labels[f][codes[i]])}"
            for f, codes in zip(features, cell_codes)
        )
        for i in range(len(cell_codes[0]))
    ]
    out: dict[str, Column] = {}
    for a, wcol in weights.items():
        observed = table.codes[a][rows] >= 0
        # Every row of a cell carries the cell's weight: keep any one.
        cell_w = np.full(len(conds), np.nan)
        cell_w[cell_of[observed]] = table.weights[wcol][rows[observed]]
        whens = "".join(
            f" WHEN {conds[i]} THEN {sql_double(float(cell_w[i]))}"
            for i in np.flatnonzero(~np.isnan(cell_w))
        )
        out[wcol] = F.expr(
            f"CASE WHEN {sql_ident(a)} IS NULL THEN NULL{whens} ELSE 1.0D END"
        )
    return out


def _sql_str(v: str) -> str:
    """``v`` as a Spark SQL string literal."""
    return "'" + v.replace("\\", "\\\\").replace("'", "\\'") + "'"
