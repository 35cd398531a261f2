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

``prepare_weights`` is the one path: it builds the feature design once
(``feature_design``), then per biased attribute ``fit_propensity`` gives
each feature cell's weight and ``add_ipw_weight`` gathers the cell weights
onto the table's rows.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import Column
from pyspark.sql import functions as F

from repro.core.contingency import VAL_COL, CodedTable, scan_counts
from repro.core.info_theory import is_conditionally_independent
from repro.core.query import sql_double, sql_ident

WEIGHT_PREFIX = "__w__"


def weight_col_name(attr: str) -> str:
    return WEIGHT_PREFIX + attr


def detect_selection_bias(
    table: CodedTable,
    attr: str,
    *,
    o_bin: str,
    alpha: float = 0.05,
    eps_bits: float = 0.02,
) -> bool:
    """True iff the missingness of ``attr`` is associated with the outcome
    (:func:`detect_selection_bias_batch` for one attribute)."""
    return attr in detect_selection_bias_batch(
        table, [attr], o_bin=o_bin, alpha=alpha, eps_bits=eps_bits
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


#: labels of a selection indicator's codes (``R = 0``, ``R = 1``)
_INDICATOR_LABELS = np.array(["0", "1"], dtype=object)


def detect_selection_bias_batch(
    table: CodedTable,
    attrs: list[str],
    *,
    o_bin: str,
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
    flags an attribute, and the exposure is not an input. ``eps_bits`` is
    the practical effect floor on the bias-corrected MI.
    """
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


@dataclass(frozen=True)
class FeatureDesign:
    """The grouped propensity design every attribute's fit shares.

    ``rows`` are the table's rows with every feature observed and
    ``cell_of`` each one's feature cell; per cell, ``cells`` holds the
    features' labels, ``X`` the one-hot design (drop-first per feature,
    intercept first) and ``totals`` the row count."""

    rows: np.ndarray
    cell_of: np.ndarray
    cells: pd.DataFrame
    X: np.ndarray
    totals: np.ndarray


def feature_design(table: CodedTable, features: Sequence[str]) -> FeatureDesign:
    """The grouped design of ``features`` over ``table``'s rows (cells in
    mixed-radix key order)."""
    keep = np.ones(table.n_rows, dtype=bool)
    for f in features:
        keep &= table.codes[f] >= 0
    rows = np.flatnonzero(keep)
    sizes = [len(table.labels[f]) for f in features]
    key = np.zeros(len(rows), dtype=np.int64)
    for f, k in zip(features, sizes):
        key *= k
        key += table.codes[f][rows]
    keys, cell_of = np.unique(key, return_inverse=True)
    cell_of = cell_of.ravel()
    n_cells = len(keys)
    cell_codes = []
    for k in reversed(sizes):
        keys, c = np.divmod(keys, k)
        cell_codes.append(c)
    cells = pd.DataFrame(
        {f: table.labels[f][c] for f, c in zip(features, cell_codes[::-1])}
    )
    dummies = pd.get_dummies(cells.astype(str), drop_first=True, dtype=float)
    X = np.column_stack([np.ones(n_cells), dummies.to_numpy()])
    totals = np.bincount(cell_of, minlength=n_cells).astype(np.float64)
    return FeatureDesign(rows, cell_of, cells, X, totals)


def fit_propensity(
    table: CodedTable, attr: str, design: FeatureDesign
) -> np.ndarray:
    """Fit P(R_attr=1 | features) by grouped IRLS on ``design`` and return
    each feature cell's IPW weight P(R=1) / clip(p̂, 0.01, 1)."""
    observed = table.codes[attr][design.rows] >= 0
    successes = np.bincount(
        design.cell_of[observed], minlength=len(design.totals)
    ).astype(np.float64)
    beta = _irls_logistic(design.X, successes, design.totals)
    p_hat = np.clip(
        1.0 / (1.0 + np.exp(-np.clip(design.X @ beta, -30, 30))), 0.01, 1.0
    )
    marginal = successes.sum() / design.totals.sum()
    return marginal / p_hat


def add_ipw_weight(
    table: CodedTable, attr: str, design: FeatureDesign, cell_w: np.ndarray
) -> tuple[CodedTable, str]:
    """Attach ``attr``'s weight column: its feature cell's weight on every
    row where ``attr`` and the features are observed, 1.0 elsewhere."""
    observed = table.codes[attr][design.rows] >= 0
    w = np.ones(table.n_rows)
    w[design.rows[observed]] = cell_w[design.cell_of[observed]]
    wcol = weight_col_name(attr)
    return table.with_weight(wcol, w), wcol


def prepare_weights(
    table: CodedTable,
    attrs: list[str],
    *,
    o_bin: str,
    features: list[str],
    alpha: float = 0.05,
    eps_bits: float = 0.005,
) -> tuple[CodedTable, dict[str, str], set[str]]:
    """Full §3.2 pipeline on the coded table: detect bias per attribute,
    fit propensities, attach weight columns.

    Detection is one scan of the indicator table. The feature design is
    built once; each biased attribute gets its own ``fit_propensity`` on it
    and its ``add_ipw_weight``.

    Returns ``(table_with_weights, {attr: weight_col}, biased_attrs)``.
    Attributes without missing values or without detected bias get no
    weight column (unit weight in the scan).
    """
    if not attrs:
        return table, {}, set()
    biased = detect_selection_bias_batch(
        table, attrs, o_bin=o_bin, alpha=alpha, eps_bits=eps_bits
    )
    if not biased:
        return table, {}, set()
    design = feature_design(table, features)
    weights: dict[str, str] = {}
    for a in sorted(biased):
        cell_w = fit_propensity(table, a, design)
        table, weights[a] = add_ipw_weight(table, a, design, cell_w)
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
    design = feature_design(table, features)
    conds = [
        " AND ".join(
            f"CAST({sql_ident(f)} AS STRING) = {_sql_str(v)}"
            for f, v in zip(features, cell)
        )
        for cell in design.cells.itertuples(index=False, name=None)
    ]
    out: dict[str, Column] = {}
    for a, wcol in weights.items():
        observed = table.codes[a][design.rows] >= 0
        # Every row of a cell carries the cell's weight: keep any one.
        cell_w = np.full(len(conds), np.nan)
        cell_w[design.cell_of[observed]] = table.weights[wcol][design.rows[observed]]
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
