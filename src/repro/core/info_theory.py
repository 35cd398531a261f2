"""Plug-in information-theoretic estimators over contingency tables.

All estimators operate on *contingency frames*: pandas DataFrames with one
row per observed cell and a ``cnt`` column of (possibly IPW-weighted, hence
float) counts. The contingency frames themselves are counted from the coded
analysis table in :mod:`repro.core.contingency`; everything here is
driver-side numpy over tables whose size is bounded by the product of binned
attribute domains, never by ``|D|``.

Marginal group sums are numpy over integer cell codes: a frame from
:mod:`repro.core.contingency` carries each value column as a categorical
whose codes index the table's label dictionary, and any other column (a
hand-built frame) is coded on entry by ``pd.factorize``, nulls forming a
group of their own as under ``groupby(dropna=False)``. The codes of a column
set combine into one mixed-radix key per cell, reduced by ``np.bincount``.

Entropies and mutual informations are in **bits** (log2), matching the
magnitudes quoted in the paper's running examples (e.g. ``I(O;T|C)=2.6``).

The conditional-independence test is a G-test: ``G = 2·N·ln2·I_bits`` is
asymptotically chi-square with ``(|X|-1)(|Y|-1)·|Z|`` degrees of freedom.
SciPy is not available in this container, so the chi-square survival
function is implemented via the regularized upper incomplete gamma function
(series + continued-fraction expansion, Numerical Recipes style).
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np
import pandas as pd

CNT = "cnt"

#: a mixed-radix key space of at most this many cells, or four per row, is
#: reduced by direct ``bincount``; larger spaces are compacted by ``np.unique``
DENSE_CELLS = 1 << 16

# ---------------------------------------------------------------------------
# chi-square survival function (no scipy in the container)
# ---------------------------------------------------------------------------


def _gammainc_upper_reg(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) for a > 0, x >= 0."""
    if x < 0 or a <= 0:
        raise ValueError("require x >= 0 and a > 0")
    if x == 0:
        return 1.0
    gln = math.lgamma(a)
    if x < a + 1.0:
        # Series expansion of P(a,x); Q = 1 - P.
        ap, s, delta = a, 1.0 / a, 1.0 / a
        for _ in range(500):
            ap += 1.0
            delta *= x / ap
            s += delta
            if abs(delta) < abs(s) * 1e-12:
                break
        p = s * math.exp(-x + a * math.log(x) - gln)
        return max(0.0, min(1.0, 1.0 - p))
    # Lentz continued fraction for Q(a,x).
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-12:
            break
    q = h * math.exp(-x + a * math.log(x) - gln)
    return max(0.0, min(1.0, q))


def chi2_sf(x: float, dof: float) -> float:
    """P(Chi2_dof > x) — survival function of the chi-square distribution."""
    if dof <= 0:
        return 1.0
    if x <= 0:
        return 1.0
    return _gammainc_upper_reg(dof / 2.0, x / 2.0)


# ---------------------------------------------------------------------------
# entropies / mutual information from contingency frames
# ---------------------------------------------------------------------------


def _codes(col: pd.Series) -> tuple[np.ndarray, int]:
    """``col``'s integer code per row and the size of its code space.

    A categorical column carries its codes; any other column, or a
    categorical holding nulls, is factorized with null as a value of its own.
    """
    if isinstance(col.dtype, pd.CategoricalDtype):
        codes = col.array.codes
        if not len(codes) or codes.min() >= 0:
            return codes, len(col.dtype.categories)
    codes, uniques = pd.factorize(col, use_na_sentinel=False)
    return codes, len(uniques)


def _compact(key: np.ndarray) -> tuple[np.ndarray, int]:
    uniq, inv = np.unique(key, return_inverse=True)
    return inv, len(uniq)


def _group_key(pdf: pd.DataFrame, cols: Sequence[str]) -> tuple[np.ndarray, int]:
    """Each row's group over ``cols`` as an int key, and the key space size.

    The key is mixed-radix over the column codes; whenever the space would
    outgrow ``DENSE_CELLS`` (or four cells per row) the key is first
    compacted to its distinct values, so it never overflows int64.
    """
    key = np.zeros(len(pdf), dtype=np.int64)
    space = 1
    limit = max(DENSE_CELLS, 4 * len(key))
    for c in cols:
        codes, size = _codes(pdf[c])
        if space * size > limit:
            key, space = _compact(key)
        key = key * size + codes
        space *= size
    if space > limit:
        key, space = _compact(key)
    return key, space


def _group_sums(pdf: pd.DataFrame, cols: Sequence[str]) -> np.ndarray:
    """Per-row sum of ``cnt`` within groups defined by ``cols``.

    Empty ``cols`` means the grand total broadcast to every row.
    """
    if not cols:
        return np.full(len(pdf), pdf[CNT].sum(), dtype=float)
    key, space = _group_key(pdf, cols)
    cnt = pdf[CNT].to_numpy(dtype=float)
    return np.bincount(key, weights=cnt, minlength=space)[key]


def entropy_from_counts(pdf: pd.DataFrame, cols: Sequence[str]) -> float:
    """H(cols) in bits from a contingency frame (marginalizes other columns)."""
    if pdf.empty:
        return 0.0
    n_x = _group_sums(pdf, cols)
    cnt = pdf[CNT].to_numpy(dtype=float)
    total = cnt.sum()
    if total <= 0:
        return 0.0
    # Each cell contributes (cnt/total) * log2(total/n_x); cells of the same
    # x-group share n_x so the grouped terms sum to the marginal entropy.
    mask = cnt > 0
    return float(np.sum((cnt[mask] / total) * np.log2(total / n_x[mask])))


def cond_entropy_from_counts(
    pdf: pd.DataFrame, cols: Sequence[str], given: Sequence[str]
) -> float:
    """H(cols | given) in bits."""
    return entropy_from_counts(pdf, list(cols) + list(given)) - entropy_from_counts(
        pdf, list(given)
    )


def cmi_from_counts(
    pdf: pd.DataFrame,
    x: Sequence[str] | str,
    y: Sequence[str] | str,
    z: Sequence[str] | str = (),
) -> float:
    """Plug-in I(X;Y|Z) in bits from a contingency frame.

    ``I(X;Y|Z) = sum p(x,y,z) log2( n_xyz * n_z / (n_xz * n_yz) )``. Rows with
    zero count contribute nothing (they are absent from the frame anyway).
    """
    xs = [x] if isinstance(x, str) else list(x)
    ys = [y] if isinstance(y, str) else list(y)
    zs = [z] if isinstance(z, str) else list(z)
    if pdf.empty:
        return 0.0
    cnt = pdf[CNT].to_numpy(dtype=float)
    total = cnt.sum()
    if total <= 0:
        return 0.0
    n_xyz = _group_sums(pdf, xs + ys + zs)
    n_xz = _group_sums(pdf, xs + zs)
    n_yz = _group_sums(pdf, ys + zs)
    n_z = _group_sums(pdf, zs)
    mask = cnt > 0
    ratio = (n_xyz[mask] * n_z[mask]) / (n_xz[mask] * n_yz[mask])
    val = float(np.sum((cnt[mask] / total) * np.log2(ratio)))
    # Plug-in CMI is non-negative up to float error; clamp tiny negatives.
    return max(0.0, val)


def mi_from_counts(
    pdf: pd.DataFrame, x: Sequence[str] | str, y: Sequence[str] | str
) -> float:
    """Plug-in I(X;Y) in bits."""
    return cmi_from_counts(pdf, x, y, ())


def _ci_terms(
    pdf: pd.DataFrame,
    x: Sequence[str] | str,
    y: Sequence[str] | str,
    z: Sequence[str] | str,
) -> tuple[float, float, int]:
    """Plug-in I(X;Y|Z) in bits, the count total N and the observed
    ``(|X|-1)(|Y|-1)|Z|`` — everything the CI statistics below read."""
    xs = [x] if isinstance(x, str) else list(x)
    ys = [y] if isinstance(y, str) else list(y)
    zs = [z] if isinstance(z, str) else list(z)
    i_bits = cmi_from_counts(pdf, xs, ys, zs)
    n = float(pdf[CNT].sum()) if len(pdf) else 0.0
    dof = (
        (_domain_size(pdf, xs) - 1)
        * (_domain_size(pdf, ys) - 1)
        * _domain_size(pdf, zs)
    )
    return i_bits, n, dof


def _corrected(i_bits: float, n: float, dof: int) -> float:
    if n <= 0:
        return 0.0
    return max(0.0, i_bits - dof / (2.0 * n * math.log(2.0)))


def _g_stat(i_bits: float, n: float, dof: int) -> tuple[float, float]:
    return 2.0 * n * math.log(2.0) * i_bits, max(1.0, dof)


def cmi_corrected_from_counts(
    pdf: pd.DataFrame,
    x: Sequence[str] | str,
    y: Sequence[str] | str,
    z: Sequence[str] | str = (),
) -> float:
    """Bias-corrected CMI: plug-in minus the Miller–Madow/chi-square mean.

    Under (X ⟂ Y | Z) the plug-in CMI has expectation
    ``(|X|−1)(|Y|−1)|Z| / (2 N ln 2)`` bits, which grows with the cell
    count and shrinks with the support. Complete-case analysis makes
    supports differ *per candidate attribute*, so ranking candidates by
    raw plug-in CMI systematically favours sparse attributes (fewer
    complete cases ⇒ more spurious explanation). Subtracting the
    independence-mean levels the field; at the paper's data sizes the
    correction is negligible, at unit-test sizes it is what keeps junk
    from winning. Clamped at 0.
    """
    return _corrected(*_ci_terms(pdf, x, y, z))


def _domain_size(pdf: pd.DataFrame, cols: Sequence[str]) -> int:
    """Number of distinct (null-inclusive) value combinations of ``cols``."""
    if not cols:
        return 1
    key, space = _group_key(pdf, cols)
    return int(np.count_nonzero(np.bincount(key, minlength=space)))


def g_test(
    pdf: pd.DataFrame,
    x: Sequence[str] | str,
    y: Sequence[str] | str,
    z: Sequence[str] | str = (),
) -> tuple[float, float, float]:
    """G-test of (X ⟂ Y | Z). Returns ``(G, dof, p_value)``.

    ``G = 2 N ln2 · I_bits(X;Y|Z)``, dof ``(|X|-1)(|Y|-1)·|Z|`` with the
    *observed* domain sizes. With weighted counts, N is the weight total —
    the usual IPW pseudo-sample-size approximation.
    """
    g, dof = _g_stat(*_ci_terms(pdf, x, y, z))
    return g, dof, chi2_sf(g, dof)


def is_conditionally_independent(
    pdf: pd.DataFrame,
    x: Sequence[str] | str,
    y: Sequence[str] | str,
    z: Sequence[str] | str = (),
    *,
    alpha: float = 0.05,
    eps_bits: float = 0.01,
) -> bool:
    """Practical CI decision: independent if the G-test fails to reject OR
    the effect size is below ``eps_bits``.

    On datasets with millions of tuples the asymptotic G-test rejects for
    vanishing effect sizes, so the paper-style responsibility/relevance tests
    need the effect-size floor to be usable (cf. HypDB, which also thresholds
    its CMI estimates). The floor uses the bias-*corrected* CMI so that
    sparse attributes (small complete-case support, inflated plug-in CMI)
    do not spuriously pass the dependence test. Both statistics come from
    one plug-in CMI and one set of domain sizes.
    """
    terms = _ci_terms(pdf, x, y, z)
    if _corrected(*terms) < eps_bits:
        return True
    return chi2_sf(*_g_stat(*terms)) > alpha
