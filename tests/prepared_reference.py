"""An independent reference for ``Mesa.prepare``'s coded table.

``prep.df`` is the prepared lineage: the context filter, the KG joins, the
bin columns (``bin_sql``) and the IPW weight columns, all evaluated by
Spark. Collecting it with ``CodedTable.collect`` must give ``prep.table``
cell for cell, however prepare built the table.
"""
import numpy as np

from repro.core.contingency import CodedTable


def decoded(table: CodedTable, col: str) -> list:
    """``col``'s per-row labels, ``None`` for null."""
    codes = table.codes[col]
    return np.where(codes >= 0, table.labels[col][codes], None).tolist()


def assert_table_matches_frame(prep) -> None:
    """``prep.table`` equals ``CodedTable.collect(prep.df, …)``: each column's
    labels (in dictionary order), each row's label, and each weight."""
    cols = [prep.o_bin, prep.t, *prep.candidates]
    wcols = list(prep.weights.values())
    got, want = prep.table, CodedTable.collect(prep.df, cols, wcols)
    assert got.n_rows == want.n_rows
    assert set(got.codes) == set(want.codes)
    for c in cols:
        assert got.labels[c].tolist() == want.labels[c].tolist(), c
        assert decoded(got, c) == decoded(want, c), c
    assert set(got.weights) == set(want.weights)
    for w in wcols:
        np.testing.assert_array_equal(got.weights[w], want.weights[w], err_msg=w)
