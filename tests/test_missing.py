"""Missing-data mechanisms, selection-bias detection, IPW, imputation."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.contingency import CodedTable, joint_counts
from repro.core.info_theory import cmi_from_counts
from repro.missing.impute import impute_mean
from repro.missing.ipw import (
    _irls_logistic,
    add_ipw_weight,
    detect_selection_bias,
    detect_selection_bias_batch,
    feature_design,
    fit_propensity,
    prepare_weights,
    weight_col_name,
)
from repro.missing.mechanisms import (
    missing_fraction,
    remove_biased_top,
    remove_mcar,
)
from tests.ipw_reference import (
    assert_weights_match,
    duckdb_weights,
    spark_detection,
)


def coded(df) -> CodedTable:
    """Every column of ``df``, coded."""
    return CodedTable.collect(df, df.columns)


@pytest.fixture(scope="module")
def base(spark):
    """A frame where E's observability depends on O — planted MNAR."""
    rng = np.random.default_rng(42)
    n = 4000
    t = rng.choice(["a", "b", "c", "d"], n)
    e = rng.choice(["lo", "mid", "hi"], n)
    o = (np.char.equal(t, "a") * 2 + np.char.equal(e, "hi") * 1).astype(int)
    pdf = pd.DataFrame({"t": t, "e": e, "o_bin": o})
    return spark.createDataFrame(pdf).cache()


class TestMechanisms:
    def test_mcar_fraction(self, base):
        out = remove_mcar(base, "e", 0.4, seed=1)
        frac = missing_fraction(out, ["e"])["e"]
        assert frac == pytest.approx(0.4, abs=0.05)

    def test_mcar_zero_noop(self, base):
        out = remove_mcar(base, "e", 0.0)
        assert missing_fraction(out, ["e"])["e"] == 0.0

    def test_mcar_validates_frac(self, base):
        with pytest.raises(ValueError):
            remove_mcar(base, "e", 1.5)

    def test_mcar_deterministic(self, base):
        a = remove_mcar(base, "e", 0.3, seed=7).where(F.col("e").isNull()).count()
        b = remove_mcar(base, "e", 0.3, seed=7).where(F.col("e").isNull()).count()
        assert a == b

    def test_biased_top_removes_highest(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame({"x": np.arange(1000, dtype=float)})
        )
        out = remove_biased_top(df, "x", 0.2)
        kept = out.where(F.col("x").isNotNull()).agg(F.max("x")).collect()[0][0]
        assert kept < 850  # top ~20% gone
        frac = missing_fraction(out, ["x"])["x"]
        assert frac == pytest.approx(0.2, abs=0.03)

    def test_biased_full_removal(self, spark):
        df = spark.createDataFrame(pd.DataFrame({"x": [1.0, 2.0]}))
        out = remove_biased_top(df, "x", 1.0)
        assert missing_fraction(out, ["x"])["x"] == 1.0

    def test_missing_fraction_empty_cols(self, base):
        assert missing_fraction(base, []) == {}


class TestIRLS:
    def test_recovers_known_coefficients(self):
        rng = np.random.default_rng(0)
        X = np.column_stack([np.ones(200), rng.normal(size=(200, 2))])
        beta_true = np.array([0.5, 1.5, -2.0])
        p = 1 / (1 + np.exp(-X @ beta_true))
        totals = np.full(200, 400.0)
        successes = rng.binomial(400, p).astype(float)
        beta = _irls_logistic(X, successes, totals)
        assert np.allclose(beta, beta_true, atol=0.1)

    def test_separation_does_not_blow_up(self):
        X = np.column_stack([np.ones(4), [0.0, 0.0, 1.0, 1.0]])
        successes = np.array([0.0, 0.0, 10.0, 10.0])
        totals = np.array([10.0, 10.0, 10.0, 10.0])
        beta = _irls_logistic(X, successes, totals)
        assert np.all(np.isfinite(beta))


class TestDetection:
    def test_mnar_detected(self, base):
        # Null e where o_bin is high: missingness depends on O.
        mnar = base.withColumn(
            "e", F.when(F.col("o_bin") < 2, F.col("e"))
        )
        assert detect_selection_bias(coded(mnar), "e", o_bin="o_bin")

    def test_mcar_not_detected(self, base):
        mcar = remove_mcar(base, "e", 0.3, seed=3)
        assert not detect_selection_bias(coded(mcar), "e", o_bin="o_bin")

    def test_exposure_only_dependence_not_flagged(self, spark):
        """Prop 3.1's conditions concern O-dependence: a missingness
        pattern driven purely by T, with O independent of T, must not be
        flagged as selection bias."""
        rng = np.random.default_rng(21)
        n = 4000
        t = rng.choice(["a", "b", "c", "d"], n)
        pdf = pd.DataFrame(
            {
                "t": t,
                "e": rng.choice(["u", "v"], n),
                "o_bin": rng.integers(0, 3, n),  # O ⟂ T
            }
        )
        df = spark.createDataFrame(pdf)
        mnar_t = df.withColumn("e", F.when(F.col("t") != "a", F.col("e")))
        assert not detect_selection_bias(coded(mnar_t), "e", o_bin="o_bin")


def _cell_weights(df, attr, feature):
    """``attr``'s coded table, the design over ``feature``, and the fitted
    IPW weight per feature cell."""
    table = CodedTable.collect(df, [feature, attr])
    design = feature_design(table, [feature])
    return table, design, fit_propensity(table, attr, design)


class TestPropensity:
    def test_fit_recovers_group_rates(self, base):
        # e observed 90% for t=a, 40% otherwise.
        df = base.withColumn(
            "e",
            F.when(
                (F.col("t") == "a") & (F.rand(5) < 0.9)
                | (F.col("t") != "a") & (F.rand(6) < 0.4),
                F.col("e"),
            ),
        )
        table, design, cell_w = _cell_weights(df, "e", "t")
        # A cell's weight is P(R=1) / p̂: recover p̂ from it.
        marginal = np.mean(table.codes["e"][design.rows] >= 0)
        rates = dict(zip(design.cells["t"], marginal / cell_w))
        assert rates["a"] == pytest.approx(0.9, abs=0.05)
        assert rates["b"] == pytest.approx(0.4, abs=0.06)

    def test_weights_inverse_to_propensity(self, base):
        df = base.withColumn(
            "e",
            F.when(
                (F.col("t") == "a") & (F.rand(7) < 0.9)
                | (F.col("t") != "a") & (F.rand(8) < 0.3),
                F.col("e"),
            ),
        )
        _, design, cell_w = _cell_weights(df, "e", "t")
        wf = dict(zip(design.cells["t"], cell_w))
        # Rarely-observed groups get larger weights.
        assert wf["b"] > wf["a"]

    def test_add_weight_column(self, base):
        df = base.withColumn("e", F.when(F.col("t") != "a", F.col("e")))
        table, design, cell_w = _cell_weights(df, "e", "t")
        out, wcol = add_ipw_weight(table, "e", design, cell_w)
        assert wcol == weight_col_name("e")
        # Rows where e is null keep weight 1, the coded table's null weight.
        missing = out.codes["e"] < 0
        assert missing.any()
        assert np.all(out.weights[wcol][missing] == 1.0)


class TestIPWCorrection:
    def test_ipw_recovers_biased_marginal(self, spark):
        """Biased missingness skews the complete-case distribution of E;
        IPW weights restore (approximately) the true marginal."""
        rng = np.random.default_rng(9)
        n = 20000
        x = rng.choice(["p", "q"], n)  # fully observed feature
        e_full = np.where(
            x == "p", rng.choice(["u", "v"], n, p=[0.8, 0.2]),
            rng.choice(["u", "v"], n, p=[0.2, 0.8]),
        )
        # Observe e 90% when x=p, 30% when x=q: complete cases overrepresent p.
        observed = np.where(x == "p", rng.random(n) < 0.9, rng.random(n) < 0.3)
        pdf = pd.DataFrame(
            {"x": x, "e": np.where(observed, e_full, None), "o_bin": 0, "t": x}
        )
        df = spark.createDataFrame(pdf)
        true_u = float((e_full == "u").mean())
        # Complete-case estimate is biased:
        cc = joint_counts(CodedTable.collect(df, ["e"]), ["e"])
        cc_u = float(cc.set_index("e")["cnt"]["u"] / cc["cnt"].sum())
        assert abs(cc_u - true_u) > 0.08
        # IPW-weighted estimate is (approximately) unbiased:
        table, design, cell_w = _cell_weights(df, "e", "x")
        weighted, wcol = add_ipw_weight(table, "e", design, cell_w)
        wc = joint_counts(weighted, ["e"], wcol)
        w_u = float(wc.set_index("e")["cnt"]["u"] / wc["cnt"].sum())
        assert abs(w_u - true_u) < 0.03

    def test_prepare_weights_end_to_end(self, base):
        df = base.withColumn("e", F.when(F.col("o_bin") < 2, F.col("e")))
        out, weights, biased = prepare_weights(
            CodedTable.collect(df, ["t", "o_bin", "e"]),
            ["e"],
            o_bin="o_bin",
            features=["t", "o_bin"],
        )
        assert "e" in biased
        assert weights["e"] in out.weights

    def test_prepare_weights_skips_complete_attrs(self, base):
        out, weights, biased = prepare_weights(
            CodedTable.collect(base, ["t", "o_bin", "e"]),
            ["e"],
            o_bin="o_bin",
            features=["t"],
        )
        assert weights == {} and biased == set()


@pytest.fixture(scope="module")
def missing_frames(base):
    """``e`` nulled by three mechanisms: wholly by O (every O cell fully
    observed or fully missing), partly by O, and completely at random."""
    frames = {
        "mnar": base.withColumn("e", F.when(F.col("o_bin") < 2, F.col("e"))),
        "mnar_partial": base.withColumn(
            "e",
            F.when(F.rand(13) < 0.9 - 0.2 * F.col("o_bin"), F.col("e")),
        ),
        "mcar": remove_mcar(base, "e", 0.3, seed=3),
    }
    frames = {k: df.cache() for k, df in frames.items()}
    yield frames
    for df in frames.values():
        df.unpersist()


class TestCodedIPW:
    """Detection and weights on the coded table against independent
    references: the Spark indicator scan and DuckDB grouped counts."""

    @pytest.mark.parametrize(
        "name,want", [("mnar", True), ("mnar_partial", True), ("mcar", False)]
    )
    def test_detection_matches_spark_indicator_scan(self, missing_frames, name, want):
        df = missing_frames[name]
        table = CodedTable.collect(df, ["o_bin", "t", "e"])
        got = detect_selection_bias_batch(table, ["e"], o_bin="o_bin")
        assert got == spark_detection(df, ["e"], o_bin="o_bin")
        assert got == ({"e"} if want else set())

    @pytest.mark.parametrize("name", ["mnar", "mnar_partial"])
    def test_weights_match_duckdb_counts(self, missing_frames, name):
        df = missing_frames[name]
        table, weights, biased = prepare_weights(
            CodedTable.collect(df, ["o_bin", "t", "e"]),
            ["e"],
            o_bin="o_bin",
            features=["o_bin"],
        )
        assert biased == {"e"}
        assert_weights_match(
            table, "e", weights["e"], duckdb_weights(df, "e", o_bin="o_bin"),
            o_bin="o_bin",
        )


class TestImpute:
    def test_mean_imputation_numeric(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame({"x": [1.0, None, 3.0], "c": ["a", None, "a"]})
        )
        out = impute_mean(df, ["x", "c"])
        pdf = out.toPandas()
        assert pdf["x"].tolist() == [1.0, 2.0, 3.0]
        assert pdf["c"].tolist() == ["a", "a", "a"]

    def test_imputation_distorts_cmi(self, spark):
        """Mean-imputing an MNAR attribute changes its joint with O — the
        distortion Fig 3 demonstrates."""
        rng = np.random.default_rng(11)
        n = 5000
        e = rng.normal(size=n)
        o = (e > 0).astype(int)
        e_mnar = np.where(e < 0.5, e, np.nan)  # top values missing
        eb = np.where(np.isnan(e_mnar), np.nan, (e_mnar > 0).astype(float))
        df = spark.createDataFrame(pd.DataFrame({"o": o, "e": e_mnar, "eb": eb}))
        imputed = impute_mean(df, ["eb"])
        cc = cmi_from_counts(joint_counts(coded(df), ["o", "eb"]), "o", "eb")
        im = cmi_from_counts(joint_counts(coded(imputed), ["o", "eb"]), "o", "eb")
        assert abs(cc - im) > 0.05
