"""Attribute extraction: KG → universal relation → integration with D.

Mirrors §3.1 of the paper:

1. NED-link the distinct values of an extraction column to KG entities.
2. Pull every literal property of each linked entity (hop 1).
3. Optionally follow links (hop ≥ 2): single-valued links contribute the
   target's properties under a ``link__prop`` name ("Leader Age");
   multi-valued links are one-to-many relations whose numeric target
   properties are aggregated by a user-chosen function ("Avg Population
   size of Ethnic-Group") and whose categorical properties take the first
   value in a canonical order.
4. Flatten into a single *universal relation*: one row per distinct table
   value, one column per extracted attribute, nulls where the KG lacks the
   property or the NED step failed.

The universal relation has one row per *entity*, so it is built in pandas
(``Extraction.wide``) and extraction runs no Spark call. ``Mesa.prepare``
bins and codes it on the driver, once per entity, and gathers it per row by
each row's link value; every downstream score counts that coded table on
the driver. Only ``integrate`` puts it in Spark, as a broadcast relation of
the kept attributes joined onto the input table, when a reader of the
prepared frame ``prep.df`` first asks for it.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.kg.graph import KnowledgeGraph
from repro.kg.ned import link_values

#: key column of the universal relation (the raw table value)
KEY_COL = "__value"

#: the functions a one-to-many link's numeric properties aggregate by
LIST_AGGS = {
    "mean": np.mean,
    "sum": np.sum,
    "max": np.max,
    "min": np.min,
    "first": lambda xs: xs[0],
}


def sanitize(name: str) -> str:
    """Column-safe attribute name (Spark chokes on dots/spaces in stack)."""
    return re.sub(r"[^0-9a-zA-Z_]", "_", name)


def _hop_props(
    kg: KnowledgeGraph, eid: str, hops: int, list_agg: str, prefix: str = ""
) -> dict[str, object]:
    """Properties of ``eid`` up to ``hops`` link-follows, flattened."""
    out: dict[str, object] = {
        prefix + p: v for p, v in kg.properties_of(eid).items()
    }
    if hops <= 1:
        return out
    agg_fn = LIST_AGGS[list_agg]
    for link, targets in kg.links_of(eid).items():
        if len(targets) == 1:
            # Single-valued link: recurse — "Leader Age" style attributes.
            out.update(
                _hop_props(kg, targets[0], hops - 1, list_agg, f"{prefix}{link}__")
            )
        else:
            # One-to-many: aggregate each target property across targets.
            by_prop: dict[str, list[object]] = {}
            for t in targets:
                for p, v in kg.properties_of(t).items():
                    by_prop.setdefault(p, []).append(v)
            for p, vals in sorted(by_prop.items()):
                name = f"{prefix}{list_agg}__{link}__{p}"
                numeric = [v for v in vals if isinstance(v, (int, float))]
                if numeric and len(numeric) == len(vals):
                    out[name] = float(agg_fn(numeric))
                else:
                    out[name] = sorted(str(v) for v in vals)[0]
    return out


def _coerce_types(wide: pd.DataFrame) -> pd.DataFrame:
    """Make every attribute column a single Spark-friendly dtype.

    Numeric-only columns → float64 (nulls = NaN); anything with a
    non-numeric value → string (nulls = None); all-null columns → float64,
    so each column has one Spark type (``DoubleType`` or ``StringType``).
    """
    for c in wide.columns:
        if c == KEY_COL:
            wide[c] = wide[c].astype(str)
            continue
        vals = wide[c].dropna()
        if vals.empty or all(isinstance(v, (int, float, np.floating)) for v in vals):
            wide[c] = pd.to_numeric(wide[c], errors="coerce").astype("float64")
        else:
            wide[c] = wide[c].map(lambda v: None if pd.isna(v) else str(v))
    return wide


@dataclass
class Extraction:
    """Result of extracting attributes for one table column."""

    attrs: list[str]  # sanitized attribute names
    links: dict[str, str | None]  # surface form -> entity id (None = failed)
    wide: pd.DataFrame  # universal relation: KEY_COL + attribute columns


def extract_attributes(
    kg: KnowledgeGraph,
    values: list[str],
    *,
    hops: int = 1,
    list_agg: str = "mean",
) -> Extraction:
    """Build the universal relation of KG attributes for ``values``, which
    must not be empty."""
    links = link_values(values, kg)
    rows: list[dict[str, object]] = []
    for v, eid in links.items():
        row: dict[str, object] = {KEY_COL: v}
        if eid is not None:
            row.update(_hop_props(kg, eid, hops, list_agg))
        rows.append(row)
    wide = pd.DataFrame(rows)
    # Sanitize attribute names, disambiguating collisions deterministically.
    renames: dict[str, str] = {}
    seen: set[str] = set()
    for c in wide.columns:
        if c == KEY_COL:
            continue
        s = sanitize(c)
        while s in seen:
            s += "_"
        seen.add(s)
        renames[c] = s
    wide = wide.rename(columns=renames)
    wide = _coerce_types(wide)
    return Extraction(attrs=sorted(seen), links=links, wide=wide)


def integrate(
    df: DataFrame,
    extraction: Extraction,
    link_col: str,
    *,
    prefix: str = "",
    attrs: list[str] | None = None,
) -> tuple[DataFrame, list[str]]:
    """Left-broadcast-join the universal relation onto the input table.

    ``attrs`` restricts to a subset (post offline pruning); ``prefix``
    namespaces the columns when several extraction columns are integrated
    ("Origin_City" and "Airline" both have a Population-style attribute).
    Only those columns of ``extraction.wide`` enter Spark. Returns the
    joined frame and the list of integrated column names.
    """
    attrs = list(attrs) if attrs is not None else list(extraction.attrs)
    out_names = [prefix + a for a in attrs]
    wide = extraction.wide[[KEY_COL, *attrs]].set_axis([KEY_COL, *out_names], axis=1)
    # Arrow's pandas conversion turns NaN into null: a NaN *value* in Spark
    # would silently defeat complete-case filtering and binning.
    right = df.sparkSession.createDataFrame(
        pa.Table.from_pandas(wide, preserve_index=False)
    )
    joined = df.join(
        F.broadcast(right),
        df[link_col].cast("string") == right[KEY_COL],
        "left",
    ).drop(KEY_COL)
    return joined, out_names
