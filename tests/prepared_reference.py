"""An independent reference for ``Mesa.prepare``'s coded table.

``prep.df`` is the prepared lineage: the context filter, the KG joins, the
bin columns (``bin_sql``) and the IPW weight columns, all evaluated by
Spark. Collecting it with ``CodedTable.collect`` must give ``prep.table``
cell for cell, however prepare built the table.

Both sides of that check bin with the edges prepare replayed on the driver,
so it cannot see a wrong edge. ``assert_bins_match_spark`` checks the edges
against Spark's own ``percentile_approx`` over ``prep.df``.
"""
import numpy as np

from repro.core.contingency import CodedTable
from repro.core.query import BIN_SUFFIX, bin_sql, quantile_edges, sql_double, sql_ident


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


def assert_bins_match_spark(prep) -> None:
    """Every binned analysis column of ``prep.df`` equals, row for row,
    ``bin_sql`` over the ``quantile_edges`` of Spark's ``percentile_approx``
    (accuracy 1000, ``prep.bins`` bins, NaN excluded) of its source column:
    one aggregation for the percentiles, one for the mismatch counts."""
    binned = [c for c in [prep.o_bin, *prep.candidates] if c.endswith(BIN_SUFFIX)]
    assert binned, "the check needs a binned column"
    sources = [c[: -len(BIN_SUFFIX)] for c in binned]
    probs = ", ".join(sql_double(i / prep.bins) for i in range(1, prep.bins))
    percentiles = []
    for c in sources:
        x = f"CAST({sql_ident(c)} AS DOUBLE)"
        percentiles.append(
            f"percentile_approx(CASE WHEN NOT isnan({x}) THEN {x} END, "
            f"array({probs}), 1000)"
        )
    row = prep.df.selectExpr(*percentiles).first()
    mismatches = prep.df.selectExpr(
        *[
            f"sum(CASE WHEN {sql_ident(b)} <=> ({bin_sql(c, quantile_edges(qs))}) "
            "THEN 0 ELSE 1 END)"
            for b, c, qs in zip(binned, sources, row)
        ]
    ).first()
    assert dict(zip(binned, mismatches)) == dict.fromkeys(binned, 0)
