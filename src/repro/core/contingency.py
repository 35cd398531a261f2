"""Contingency tables over a dictionary-coded table on the driver.

Every information-theoretic score in MESA is computed from a contingency
frame produced here. The estimators only ever read contingencies bounded by
attribute domains, so the analysis columns live on the driver as a
:class:`CodedTable`: each value column is small-int codes plus its label
dictionary, each IPW weight column a ``float64`` array. Counting is numpy
over a mixed-radix key of the codes (``np.bincount``, weighted where
asked), so MCIMR, pruning, responsibility and subgroup scoring run no Spark
job. Memory is bounded by
rows × analysis columns × code width (1–4 bytes).

Three shapes:

``joint_counts``
    the (weighted) joint distribution of an explicit column set (multi-
    attribute conditioning sets: responsibility, final CMI, subgroup scores,
    the responsibility test).

``scan_counts``
    for *every* candidate attribute, its joint distribution with the fixed
    columns (O and T for the MCI scores and pruning tests; the last selected
    attribute for MCIMR's redundancy term).

``group_sizes``
    the sizes of all single-assignment groups ``attr = val``.

Each takes a :class:`CodedTable`: the one ``Mesa.prepare`` codes on the
driver, or one a caller builds with :meth:`CodedTable.collect`. The value
columns of ``joint_counts`` and ``scan_counts`` frames are categoricals over
the table's label dictionaries, so the estimators in
:mod:`repro.core.info_theory` read each cell's codes directly.

Labels equal Spark's ``cast("string")`` of the value (integral and string
columns are collected natively and labelled exactly as Spark would print
them; every other type is cast in Spark), numbered in order of first
appearance; ``first_seen`` numbers the bins ``query.bin_numeric``
assigns on the driver the same way. Null values — incomplete cases for
that attribute — are dropped per attribute, which is exactly the
complete-case semantics the IPW weights correct for. A null weight counts
as 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from pyspark.sql import DataFrame
from pyspark.sql import types as T

from repro.core.info_theory import CNT, DENSE_CELLS
from repro.core.query import NATIVE_TYPES, sql_ident

ATTR_COL = "__attr"
VAL_COL = "__val"


def _code_dtype(n_labels: int) -> type:
    for dt in (np.int8, np.int16, np.int32):
        if n_labels <= np.iinfo(dt).max:
            return dt
    return np.int64


def label_sql(schema: T.StructType, col: str) -> str:
    """``col`` projected so that ``str`` of each collected value is its
    label: natively for the types in ``NATIVE_TYPES``, else cast in Spark."""
    if isinstance(schema[col].dataType, NATIVE_TYPES):
        return sql_ident(col)
    return f"CAST({sql_ident(col)} AS STRING) AS {sql_ident(col)}"


def first_seen(
    codes: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``codes`` over ``labels`` renumbered in order of first appearance
    (the order Arrow's ``dictionary_encode`` gives), unused labels dropped;
    ``-1`` stays null."""
    obs = codes[codes >= 0]
    uniq, first = np.unique(obs, return_index=True)
    order = uniq[np.argsort(first)]
    remap = np.full(len(labels) + 1, -1, dtype=np.int64)  # [-1] -> -1
    remap[order] = np.arange(len(order))
    return remap[codes].astype(_code_dtype(len(order))), labels[order]


@dataclass(frozen=True)
class CodedTable:
    """Analysis columns on the driver: codes, labels and weights.

    ``codes[c][i]`` indexes ``labels[c]`` (``-1`` marks null);
    ``weights[w]`` is a float64 weight column with nulls set to 1.
    """

    codes: Mapping[str, np.ndarray]
    labels: Mapping[str, np.ndarray]
    weights: Mapping[str, np.ndarray]
    n_rows: int

    @classmethod
    def collect(
        cls,
        df: DataFrame,
        cols: Sequence[str],
        weight_cols: Sequence[str] = (),
    ) -> "CodedTable":
        """Code ``cols`` and ``weight_cols`` of ``df`` with one collect."""
        cols = list(dict.fromkeys(cols))
        weight_cols = [w for w in dict.fromkeys(weight_cols) if w not in cols]
        proj = [label_sql(df.schema, c) for c in cols] + [
            f"CAST({sql_ident(w)} AS DOUBLE) AS {sql_ident(w)}" for w in weight_cols
        ]
        return cls.from_arrow(df.selectExpr(*proj).toArrow(), cols, weight_cols)

    @classmethod
    def from_arrow(
        cls,
        tbl: pa.Table,
        cols: Sequence[str],
        weight_cols: Sequence[str] = (),
    ) -> "CodedTable":
        """Code ``tbl``'s first columns as ``cols`` (projected by
        ``label_sql``) and the next ones as the double ``weight_cols``;
        columns after those are ignored."""
        codes: dict[str, np.ndarray] = {}
        labels: dict[str, np.ndarray] = {}
        for c, arr in zip(cols, tbl.columns):
            enc = pc.dictionary_encode(arr.combine_chunks())
            labels[c] = np.array(
                [str(v) for v in enc.dictionary.to_pylist()], dtype=object
            )
            codes[c] = (
                pc.fill_null(enc.indices, -1)
                .to_numpy(zero_copy_only=False)
                .astype(_code_dtype(len(labels[c])))
            )
        weights = {
            w: pc.fill_null(arr.combine_chunks(), 1.0).to_numpy(zero_copy_only=False)
            for w, arr in zip(weight_cols, tbl.columns[len(cols):])
        }
        return cls(codes, labels, weights, tbl.num_rows)

    def where(self, mask: np.ndarray) -> "CodedTable":
        """The rows where ``mask`` holds."""
        return CodedTable(
            {c: v[mask] for c, v in self.codes.items()},
            self.labels,
            {w: v[mask] for w, v in self.weights.items()},
            int(np.count_nonzero(mask)),
        )

    def mask(self, conds: Sequence[tuple[str, str]]) -> np.ndarray:
        """Rows satisfying every ``attr = label`` condition."""
        keep = np.ones(self.n_rows, dtype=bool)
        for a, v in conds:
            hit = np.flatnonzero(self.labels[a] == v)
            keep &= self.codes[a] == (hit[0] if len(hit) else -2)
        return keep

    def with_weight(self, name: str, values: np.ndarray) -> "CodedTable":
        """The same rows with one more weight column."""
        return CodedTable(
            self.codes, self.labels, {**self.weights, name: values}, self.n_rows
        )


def _cells(
    codes: list[np.ndarray], sizes: list[int], w: np.ndarray | None
) -> tuple[list[np.ndarray], np.ndarray]:
    """Group rows (all codes observed) by their code combination.

    Returns each column's code per non-empty cell, and the cell totals
    (row counts, or sums of ``w``), cells in mixed-radix key order.
    """
    n_cells = math.prod(sizes)
    if n_cells >= 1 << 62:  # the key would overflow int64
        stacked = np.stack(codes, axis=1)
        uniq, inv = np.unique(stacked, axis=0, return_inverse=True)
        tot = np.bincount(inv.ravel(), weights=w, minlength=len(uniq))
        return [uniq[:, i] for i in range(len(sizes))], tot.astype(np.float64)
    key = np.zeros(len(codes[0]), dtype=np.int64)
    for c, k in zip(codes, sizes):
        key *= k
        key += c
    if n_cells <= max(DENSE_CELLS, 4 * len(key)):
        rows = np.bincount(key, minlength=n_cells)
        cells = np.flatnonzero(rows)
        tot = rows if w is None else np.bincount(key, weights=w, minlength=n_cells)
        tot = tot[cells]
    else:
        cells, inv = np.unique(key, return_inverse=True)
        tot = np.bincount(inv, weights=w, minlength=len(cells))
    out = []
    for k in reversed(sizes):
        cells, c = np.divmod(cells, k)
        out.append(c)
    return out[::-1], tot.astype(np.float64)


def _frame(
    table: CodedTable,
    names: Sequence[str],
    cols: Sequence[str],
    keep: np.ndarray,
    w: np.ndarray | None,
) -> pd.DataFrame:
    """Contingency of ``cols`` over the rows in ``keep``, the value columns
    named ``names``.

    Each value column is a categorical over the column's label dictionary,
    so the estimators read the cell codes without re-grouping the labels.
    """
    if not keep.any():
        return _empty(names)
    codes = [table.codes[c][keep] for c in cols]
    sizes = [len(table.labels[c]) for c in cols]
    cell_codes, tot = _cells(codes, sizes, None if w is None else w[keep])
    data = {
        n: pd.Categorical.from_codes(k, table.labels[c])
        for n, c, k in zip(names, cols, cell_codes)
    }
    data[CNT] = tot
    return pd.DataFrame(data)


def _empty(names: Sequence[str]) -> pd.DataFrame:
    return pd.DataFrame(
        {**{n: pd.Series(dtype=object) for n in names}, CNT: pd.Series(dtype=float)}
    )


def _observed(table: CodedTable, cols: Sequence[str]) -> np.ndarray:
    keep = np.ones(table.n_rows, dtype=bool)
    for c in cols:
        keep &= table.codes[c] >= 0
    return keep


def joint_counts(
    table: CodedTable,
    cols: Sequence[str],
    weight_col: str | None = None,
) -> pd.DataFrame:
    """The (weighted) joint contingency of ``cols`` as pandas.

    Complete cases only (rows with no null in any of ``cols``), matching the
    complete-case analysis the estimators assume. Values are the string
    labels, so heterogeneous bin/category types compare stably.
    """
    cols = list(cols)
    w = table.weights[weight_col] if weight_col else None
    return _frame(table, cols, cols, _observed(table, cols), w)


def scan_counts(
    table: CodedTable,
    fixed_cols: Sequence[str],
    candidates: Sequence[str],
    weights: Mapping[str, str] | None = None,
) -> dict[str, pd.DataFrame]:
    """Per candidate attribute, its joint contingency with ``fixed_cols``.

    Returns ``{attr: contingency}`` where each contingency frame has columns
    ``[VAL_COL, *fixed_cols, CNT]``. Rows where the candidate is null are
    complete-case-filtered per attribute; rows where a *fixed* column is
    null are dropped globally (O/T must be observed for the query anyway).
    A candidate with a weight column in ``weights`` is counted with it; the
    rest count 1 per row.
    """
    if not candidates:
        return {}
    fixed_cols = list(fixed_cols)
    weights = weights or {}
    fixed_keep = _observed(table, fixed_cols)
    names = [VAL_COL, *fixed_cols]
    return {
        c: _frame(
            table,
            names,
            [c, *fixed_cols],
            fixed_keep & (table.codes[c] >= 0),
            table.weights[weights[c]] if c in weights else None,
        )
        for c in candidates
    }


def group_sizes(table: CodedTable, attrs: Sequence[str]) -> pd.DataFrame:
    """Sizes of all single-assignment groups ``attr = val``.

    Used by the unexplained-subgroups search (Algorithm 2) to rank the
    children of a refinement by data-group size. Returns columns
    ``[ATTR_COL, VAL_COL, 'size']``.
    """
    parts = []
    for a in attrs:
        codes = table.codes[a]
        sizes = np.bincount(codes[codes >= 0], minlength=len(table.labels[a]))
        hit = np.flatnonzero(sizes)
        parts.append(
            pd.DataFrame(
                {ATTR_COL: a, VAL_COL: table.labels[a][hit], "size": sizes[hit]}
            )
        )
    if not parts:
        return pd.DataFrame(columns=[ATTR_COL, VAL_COL, "size"])
    return pd.concat(parts, ignore_index=True)
