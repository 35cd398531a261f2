"""Spark's ``percentile_approx``, replayed on the driver.

Spark answers ``percentile_approx(x, probs, accuracy)`` from a
Greenwald–Khanna quantile summary (Greenwald & Khanna, "Space-efficient
online computation of quantile summaries", SIGMOD 2001), as implemented in
Spark's ``QuantileSummaries`` with ε = 1/accuracy. The summary is a
deterministic function of each input partition's non-null values in row
order, so replaying its steps over the same rows gives Spark's answer bit
for bit:

* **per partition**, values are buffered in chunks of 50,000; a full chunk
  is sorted and inserted, and the samples are compressed once there are at
  least 10,000 of them; at the end the rest is inserted and compressed;
* **merge**: the partitions' summaries are merged in partition-index order,
  each merge ending with a compress;
* **query**: each percentile's answer is the first sample whose rank bounds
  are within the summary's target error of the wanted rank.

``Mesa.prepare`` bins with these edges, and the golden explanations were
computed with Spark's, so the replay must stay bit-exact: an edge that
moves by one sample moves rows between bins. ``tests/test_query.py``
compares it with Spark's own ``percentile_approx`` and is what catches a
Spark upgrade that changes ``QuantileSummaries``. The merge order (partition
index) was verified in local mode only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: ``QuantileSummaries.defaultHeadSize``: values buffered before an insert
_HEAD_SIZE = 50_000
#: ``QuantileSummaries.defaultCompressThreshold``: samples that trigger a
#: compress after an insert
_COMPRESS_AT = 10_000
#: flips the magnitude bits of a negative double, so that its int64 view
#: sorts in ``java.lang.Double.compare`` order (``-0.0`` before ``0.0``)
_MAGNITUDE = np.int64(0x7FFF_FFFF_FFFF_FFFF)


@dataclass(frozen=True)
class _Summary:
    """A GK summary: sample values (ascending), each sample's ``g`` (rank
    gap to the previous sample) and ``delta`` (rank uncertainty), and the
    number of values it summarizes."""

    v: np.ndarray
    g: np.ndarray
    delta: np.ndarray
    n: int


_EMPTY = _Summary(
    np.empty(0, np.float64), np.empty(0, np.int64), np.empty(0, np.int64), 0
)


def _java_sorted(x: np.ndarray) -> np.ndarray:
    """``x`` sorted as the JVM sorts doubles: ``-0.0`` before ``0.0``."""
    k = x.view(np.int64)
    k = np.sort(k ^ ((k >> 63) & _MAGNITUDE))
    return (k ^ ((k >> 63) & _MAGNITUDE)).view(np.float64)


def _insert(s: _Summary, chunk: np.ndarray, eps: float) -> _Summary:
    """``withHeadBufferInserted``: the chunk sorted and merged into the
    samples with g=1 and delta=⌊2ε·count⌋ (0 for the new first sample, and
    for the last new value when it lands after every old sample); an old
    sample equal to a new value stays first."""
    m, size = len(chunk), len(s.v)
    if m == 0:
        return s
    x = _java_sorted(chunk)
    j = np.arange(m)
    before = np.searchsorted(s.v, x, side="right")  # old samples <= x[j]
    delta = np.floor(2 * eps * (s.n + j + 1)).astype(np.int64)
    delta[before + j == 0] = 0
    if before[-1] == size:
        delta[-1] = 0
    new_at = before + j
    old_at = np.arange(size) + np.searchsorted(before, np.arange(size), side="right")
    v = np.empty(size + m, np.float64)
    g = np.ones(size + m, np.int64)
    d = np.empty(size + m, np.int64)
    v[new_at], d[new_at] = x, delta
    v[old_at], g[old_at], d[old_at] = s.v, s.g, s.delta
    return _Summary(v, g, d, s.n + m)


def _compress(s: _Summary, threshold: float) -> _Summary:
    """``compressImmut``: walking from the last sample, the head absorbs
    the sample before it while ``g_i + g_head + delta_head < threshold``;
    the first and the last sample are always kept.

    The head ``h`` absorbs samples ``i`` (``1 <= i < h``) while
    ``c[h] - c[i-1] + delta[h] < threshold`` over the cumulative ``g``
    ``c``, so one ``searchsorted`` gives every head's successor, and the
    walk jumps over each run of heads that absorb nothing."""
    size = len(s.v)
    if size <= 2:
        return s
    c = np.cumsum(s.g)
    heads = np.arange(size)
    # integers: c[h] - c[i-1] + delta[h] < threshold  <=>  ... < ceil(threshold)
    stop = np.searchsorted(c, c + s.delta - math.ceil(threshold), side="right")
    succ = np.minimum(stop, heads - 1)
    # the highest head at or below each index that absorbs a sample (0: none)
    absorbs = np.maximum.accumulate(np.where(succ < heads - 1, heads, 0))
    runs = []
    h = size - 1
    while h > 0:
        j = int(absorbs[h])
        runs.append(heads[max(j, 1) : h + 1])
        h = int(succ[j]) if j else 0
    idx = np.concatenate([[0], *runs[::-1]])
    # each kept head's g absorbs the samples after the previous kept one
    g = np.diff(c[idx], prepend=0)
    return _Summary(s.v[idx], g, s.delta[idx], s.n)


def _merge(a: _Summary, b: _Summary, eps: float) -> _Summary:
    """``QuantileSummaries.merge`` of ``b`` into ``a``: a sorted merge (on
    ties ``b``'s sample first) in which a sample emitted while the other side
    has samples both before and after it gains ⌊2ε·n_other⌋ of delta, then a
    compress at 2ε·(n_a + n_b)."""
    if b.n == 0:
        return a
    if a.n == 0:
        return b
    na, nb = len(a.v), len(b.v)
    b_before = np.searchsorted(b.v, a.v, side="right")
    a_before = np.searchsorted(a.v, b.v, side="left")
    da = a.delta + np.where(
        (b_before > 0) & (b_before < nb), math.floor(2 * eps * b.n), 0
    )
    db = b.delta + np.where(
        (a_before > 0) & (a_before < na), math.floor(2 * eps * a.n), 0
    )
    a_at = np.arange(na) + b_before
    b_at = np.arange(nb) + a_before
    v = np.empty(na + nb, np.float64)
    g = np.empty(na + nb, np.int64)
    d = np.empty(na + nb, np.int64)
    v[a_at], g[a_at], d[a_at] = a.v, a.g, da
    v[b_at], g[b_at], d[b_at] = b.v, b.g, db
    n = a.n + b.n
    return _compress(_Summary(v, g, d, n), 2 * eps * n)


def _partition_summary(x: np.ndarray, eps: float) -> _Summary:
    """One partition's summary as its partial aggregate serializes it."""
    s, compressed = _EMPTY, True
    full = len(x) - len(x) % _HEAD_SIZE
    for start in range(0, full, _HEAD_SIZE):
        s = _insert(s, x[start : start + _HEAD_SIZE], eps)
        compressed = len(s.v) >= _COMPRESS_AT
        if compressed:
            s = _compress(s, 2 * eps * s.n)
    if full < len(x) or not compressed:
        s = _insert(s, x[full:], eps)
        s = _compress(s, 2 * eps * s.n)
    return s


def _query(s: _Summary, probs: Sequence[float], eps: float) -> list[float]:
    """``QuantileSummaries.query``: rank = ⌈p·n⌉, and the answer is the
    first sample with ``maxRank - targetError <= rank <= minRank +
    targetError``, or the last sample; p ≤ ε gives the first sample and
    p ≥ 1−ε the last."""
    target = int((s.g + s.delta).max()) // 2
    min_rank = np.cumsum(s.g)[:-1]
    lo = min_rank + s.delta[:-1] - target
    hi = min_rank + target
    out = []
    for p in probs:
        if p <= eps:
            out.append(float(s.v[0]))
        elif p >= 1 - eps:
            out.append(float(s.v[-1]))
        else:
            rank = math.ceil(p * s.n)
            hits = np.flatnonzero((lo <= rank) & (rank <= hi))
            out.append(float(s.v[hits[0] if hits.size else -1]))
    return out


def percentile_approx(
    x: np.ndarray,
    partition: np.ndarray,
    probs: Sequence[float],
    accuracy: int,
) -> list[float] | None:
    """Spark's ``percentile_approx(x, array(probs), accuracy)`` over rows
    in collect order: ``x`` as doubles (NaN and null, as NaN, are skipped)
    and each row's Spark partition (``query.partition_ids``),
    non-decreasing. ``None`` when no value is left, where Spark returns
    null."""
    if (np.diff(partition) < 0).any():
        raise ValueError("rows must be in partition order")
    eps = 1.0 / accuracy
    keep = ~np.isnan(x)
    x, partition = x[keep], partition[keep]
    if not len(x):
        return None
    s = _EMPTY
    for part in np.split(x, np.flatnonzero(np.diff(partition)) + 1):
        s = _merge(s, _partition_summary(part, eps), eps)
    return _query(s, probs, eps)
