"""Linear Regression (OLS) baseline.

The paper's LR baseline regresses the outcome on the candidate attributes
and explains with the top-k standardized coefficients having p < .05. Its
characteristic failures — no significant coefficients at all, or picking
only linear effects — are what Table 3's low score reflects.

Distributed implementation: the regressors are the raw numeric source
columns of the analysis candidates (``display_name``) on the prepared
frame. Mean-impute, assemble, and compute the full Pearson correlation
matrix of (features…, outcome) with ``pyspark.ml.stat.Correlation`` (one
pass over the data). Standardized OLS is then solved on the driver from the
correlation matrix: ``β = R_xx⁻¹ · r_xy``, with classical t-test p-values
from ``Var(β̂) = σ²(X'X)⁻¹`` expressed in correlation form.

The selection is scored like every other method's: the IPW-weighted
I(O;T|C,E) of its analysis columns on the prepared coded table.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from pyspark.ml.feature import VectorAssembler
from pyspark.ml.stat import Correlation
from pyspark.sql import DataFrame

from repro.core.contingency import CodedTable
from repro.core.info_theory import chi2_sf
from repro.core.mcimr import conditional_cmi
from repro.core.mesa import display_name
from repro.core.query import is_numeric
from repro.missing.impute import impute_mean


@dataclass
class LinRegResult:
    selected: list[str]
    coefficients: dict[str, float]  # standardized betas
    p_values: dict[str, float]
    r_squared: float
    final_cmi: float
    base_cmi: float
    seconds: float


def _t_sf(t_abs: float, dof: float) -> float:
    """Two-sided t-test p-value via the normal/chi2 approximation.

    For the dof here (thousands of rows) the t distribution is
    indistinguishable from normal; p = P(χ²₁ > t²) is the two-sided
    normal tail.
    """
    return chi2_sf(t_abs * t_abs, 1.0)


def linear_regression(
    df: DataFrame,
    table: CodedTable,
    candidates: list[str],
    *,
    o: str,
    o_bin: str,
    t: str,
    k: int = 5,
    weights: Mapping[str, str] | None = None,
    p_threshold: float = 0.05,
) -> LinRegResult:
    """Regress ``o`` on the numeric source columns of ``candidates`` (the
    analysis columns) over ``df``; score the selection on ``table``.
    Coefficients, p-values and the selection are keyed by analysis column."""
    start = time.perf_counter()
    feats = [c for c in candidates if is_numeric(df, display_name(c))]
    base = conditional_cmi(table, o_bin, t, [])
    if not feats:
        return LinRegResult([], {}, {}, 0.0, base, base, time.perf_counter() - start)
    raw = [display_name(c) for c in feats]
    work = impute_mean(df.select(o, *raw), raw)
    n = work.count()
    assembled = VectorAssembler(
        inputCols=raw + [o], outputCol="__vec", handleInvalid="keep"
    ).transform(work)
    corr = Correlation.corr(assembled, "__vec").collect()[0][0].toArray()
    m = len(feats)
    # Zero-variance features produce NaN correlations; drop them.
    valid = [i for i in range(m) if np.isfinite(corr[i, m])]
    if not valid:
        return LinRegResult([], {}, {}, 0.0, base, base, time.perf_counter() - start)
    rxx = corr[np.ix_(valid, valid)]
    rxy = corr[valid, m]
    rxx_reg = rxx + 1e-8 * np.eye(len(valid))
    rxx_inv = np.linalg.pinv(rxx_reg)
    beta = rxx_inv @ rxy
    r2 = float(np.clip(rxy @ beta, 0.0, 1.0))
    dof = max(n - len(valid) - 1, 1)
    sigma2 = (1.0 - r2) / dof
    se = np.sqrt(np.maximum(sigma2 * np.diag(rxx_inv), 1e-30))
    t_stats = np.abs(beta) / se
    names = [feats[i] for i in valid]
    coefs = dict(zip(names, beta))
    pvals = {name: _t_sf(float(ts), dof) for name, ts in zip(names, t_stats)}
    significant = [a for a in names if pvals[a] < p_threshold]
    selected = sorted(significant, key=lambda a: -abs(coefs[a]))[:k]
    final = conditional_cmi(table, o_bin, t, selected, weights) if selected else base
    return LinRegResult(
        selected=selected,
        coefficients={a: float(coefs[a]) for a in names},
        p_values=pvals,
        r_squared=r2,
        final_cmi=final,
        base_cmi=base,
        seconds=time.perf_counter() - start,
    )
