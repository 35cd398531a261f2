"""A TPC-H-shaped ``lineitem`` frame for the query and contingency tests.

``sf=1.0`` would be ~6M rows; the tests use ``sf=0.002``. Deterministic in
``seed``, so the DuckDB oracle sees identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


def lineitem(spark: SparkSession, *, sf: float, seed: int) -> DataFrame:
    n = max(1, int(6_000_000 * sf))
    n_orders = max(1, int(1_500_000 * sf))
    n_part = max(1, int(200_000 * sf))
    g = np.random.default_rng(seed)
    pdf = pd.DataFrame(
        {
            "l_orderkey": g.integers(1, n_orders + 1, n),
            "l_partkey": g.integers(1, n_part + 1, n),
            "l_linenumber": g.integers(1, 8, n),
            "l_quantity": g.integers(1, 51, n).astype("float64"),
            "l_extendedprice": (g.random(n) * 90000 + 900).round(2),
            "l_discount": (g.random(n) * 0.1).round(2),
            "l_tax": (g.random(n) * 0.08).round(2),
            "l_returnflag": g.choice(list("NRA"), n),
            "l_linestatus": g.choice(list("OF"), n),
            "l_shipdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2557, n), unit="D"),
        }
    )
    return spark.createDataFrame(pdf)
