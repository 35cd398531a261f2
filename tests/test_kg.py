"""KG substrate, NED linking, and attribute extraction."""
import math

import pandas as pd
import pytest

from repro.kg.extract import (
    KEY_COL,
    extract_attributes,
    integrate,
    sanitize,
)
from repro.kg.graph import KnowledgeGraph
from repro.kg.ned import link_values, linking_report


@pytest.fixture()
def kg():
    g = KnowledgeGraph()
    g.add_entity("Q1", "Germany", aliases=("Deutschland",))
    g.add_entity("Q2", "Russia")  # table says "Russian Federation": no alias
    g.add_entity("Q3", "France")
    g.add_entity("Q4", "Ronaldo L.", aliases=("Ronaldo",))
    g.add_entity("Q5", "Cristiano Ronaldo", aliases=("Ronaldo",))  # ambiguity
    g.add_literal("Q1", "HDI", 0.95)
    g.add_literal("Q1", "Gini", 31.9)
    g.add_literal("Q2", "HDI", 0.82)
    g.add_literal("Q3", "HDI", 0.90)
    g.add_literal("Q3", "Currency", "Euro")
    # Multi-hop: leader link (single-valued).
    g.add_entity("L1", "Chancellor")
    g.add_literal("L1", "Age", 65.0)
    g.add_literal("L1", "Gender", "F")
    g.add_link("Q1", "Leader", "L1")
    # One-to-many: ethnic groups with population sizes.
    g.add_entity("E1", "GroupA")
    g.add_entity("E2", "GroupB")
    g.add_literal("E1", "Population", 10.0)
    g.add_literal("E2", "Population", 30.0)
    g.add_link("Q3", "Ethnic_Group", "E1")
    g.add_link("Q3", "Ethnic_Group", "E2")
    return g


class TestGraph:
    def test_duplicate_entity_rejected(self, kg):
        with pytest.raises(ValueError):
            kg.add_entity("Q1", "Other")

    def test_literal_requires_entity(self, kg):
        with pytest.raises(KeyError):
            kg.add_literal("QX", "HDI", 1.0)

    def test_link_requires_target(self, kg):
        with pytest.raises(KeyError):
            kg.add_link("Q1", "Leader", "QX")

    def test_resolve_label_and_alias(self, kg):
        assert kg.resolve("Germany") == ["Q1"]
        assert kg.resolve("Deutschland") == ["Q1"]
        assert kg.resolve("Ronaldo") == ["Q4", "Q5"]
        assert kg.resolve("Atlantis") == []

    def test_literal_props_union(self, kg):
        assert {"HDI", "Gini", "Currency"} <= kg.literal_props()

    def test_to_triples_roundtrip(self, kg):
        t = kg.to_triples()
        assert set(t.columns) == {"entity", "prop", "value", "kind"}
        assert (t[t.kind == "link"].prop == "Leader").sum() == 1
        assert len(t[(t.entity == "Q3") & (t.kind == "link")]) == 2


class TestNED:
    def test_exact_and_alias_link(self, kg):
        links = link_values(["Germany", "Deutschland", "France"], kg)
        assert links["Germany"] == "Q1"
        assert links["Deutschland"] == "Q1"
        assert links["France"] == "Q3"

    def test_surface_mismatch_fails(self, kg):
        links = link_values(["Russian Federation"], kg)
        assert links["Russian Federation"] is None

    def test_ambiguous_fails(self, kg):
        links = link_values(["Ronaldo"], kg)
        assert links["Ronaldo"] is None

    def test_report(self, kg):
        links = link_values(["Germany", "Russian Federation"], kg)
        rep = linking_report(links)
        assert rep == {"n_values": 2, "n_linked": 1, "link_rate": 0.5}

    def test_none_values_skipped(self, kg):
        assert link_values([None, "Germany"], kg) == {"Germany": "Q1"}


class TestSanitize:
    @pytest.mark.parametrize(
        "raw,clean",
        [
            ("HDI Rank", "HDI_Rank"),
            ("Leader__Age", "Leader__Age"),
            ("Year Low (F)", "Year_Low__F_"),
            ("a.b-c", "a_b_c"),
        ],
    )
    def test_cases(self, raw, clean):
        assert sanitize(raw) == clean


class TestExtraction:
    def test_hop1_universal_relation(self, spark, kg):
        ex = extract_attributes(kg, ["Germany", "France", "Russia"])
        pdf = ex.wide.set_index(KEY_COL)
        assert pdf.loc["Germany", "HDI"] == pytest.approx(0.95)
        assert pdf.loc["France", "Currency"] == "Euro"
        assert math.isnan(pdf.loc["France", "Gini"])  # missing property
        assert "HDI" in ex.attrs and "Currency" in ex.attrs

    def test_failed_link_gives_all_null_row(self, spark, kg):
        ex = extract_attributes(kg, ["Germany", "Russian Federation"])
        row = ex.wide.set_index(KEY_COL).loc["Russian Federation"]
        assert row.isna().all()
        assert ex.links["Russian Federation"] is None

    def test_hop1_excludes_link_targets(self, spark, kg):
        ex = extract_attributes(kg, ["Germany"], hops=1)
        assert not any(a.startswith("Leader") for a in ex.attrs)

    def test_hop2_single_valued_link(self, spark, kg):
        ex = extract_attributes(kg, ["Germany"], hops=2)
        pdf = ex.wide.set_index(KEY_COL)
        assert pdf.loc["Germany", "Leader__Age"] == pytest.approx(65.0)
        assert pdf.loc["Germany", "Leader__Gender"] == "F"

    def test_hop2_one_to_many_mean(self, spark, kg):
        ex = extract_attributes(kg, ["France"], hops=2)
        pdf = ex.wide.set_index(KEY_COL)
        assert pdf.loc["France", "mean__Ethnic_Group__Population"] == pytest.approx(
            20.0
        )

    def test_hop2_one_to_many_max(self, spark, kg):
        ex = extract_attributes(kg, ["France"], hops=2, list_agg="max")
        pdf = ex.wide.set_index(KEY_COL)
        assert pdf.loc["France", "max__Ethnic_Group__Population"] == pytest.approx(
            30.0
        )

    def test_spark_table_schema(self, spark, kg):
        ex = extract_attributes(kg, ["Germany", "France"])
        assert KEY_COL in ex.wide.columns
        joined, cols = integrate(_countries(spark, ["Germany", "France"]), ex, "country")
        assert joined.columns == ["country", *cols]  # the key is dropped
        assert joined.count() == 2

    def test_numeric_columns_are_double(self, spark, kg):
        ex = extract_attributes(kg, ["Germany", "France"])
        joined, _ = integrate(_countries(spark, ["Germany", "France"]), ex, "country")
        assert dict(joined.dtypes)["HDI"] == "double"
        assert dict(joined.dtypes)["Currency"] == "string"
        # France has no Gini: NaN in the relation, null (not NaN) in Spark.
        gini = dict(joined.selectExpr("country", "Gini").collect())
        assert gini["France"] is None and gini["Germany"] == pytest.approx(31.9)


def _countries(spark, names):
    return spark.createDataFrame([(n,) for n in names], "country string")


class TestIntegrate:
    def test_left_join_attaches_attrs(self, spark, kg):
        df = spark.createDataFrame(
            pd.DataFrame(
                {
                    "country": ["Germany", "France", "Atlantis", "Germany"],
                    "salary": [1.0, 2.0, 3.0, 4.0],
                }
            )
        )
        ex = extract_attributes(kg, ["Germany", "France", "Atlantis"])
        joined, cols = integrate(df, ex, "country")
        assert joined.count() == 4  # left join keeps all rows
        got = {
            r["country"]: r["HDI"]
            for r in joined.select("country", "HDI").distinct().collect()
        }
        assert got["Germany"] == pytest.approx(0.95)
        assert got["Atlantis"] is None
        assert set(cols) == set(ex.attrs)

    def test_prefix_and_attr_subset(self, spark, kg):
        df = spark.createDataFrame(
            pd.DataFrame({"country": ["Germany"], "x": [1.0]})
        )
        ex = extract_attributes(kg, ["Germany"])
        joined, cols = integrate(df, ex, "country", prefix="c_", attrs=["HDI"])
        assert cols == ["c_HDI"]
        assert joined.columns == ["country", "x", "c_HDI"]
