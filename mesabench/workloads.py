"""The benchmark's workloads: inputs from one seed, a closed-loop op stream.

Every workload is one client that waits for each explanation before it sends
the next. ``make_inputs``/``after_inputs`` build the inputs from the seed
(the program receives only the generated tables, knowledge graphs and
queries); ``ops`` yields the seeded operation stream; ``Op.run`` is the timed
call into the public API and ``check`` the untimed correctness gate.

* ``interactive-small`` — cold ``Mesa.explain`` calls in rounds of one query
  per table (SO sf=0.05, Covid-19, Forbes): catalog queries in even rounds,
  seeded ``random_queries`` in odd rounds.
* ``drilldown`` — SO Q1 at sf=0.1 prepared once in set-up; each op is
  ``explain_prepared`` on the cached frame followed by ``top_k_unexplained``
  over a seeded subset of Q1's refine attributes (Table 4's tau rule, a
  pinned ``max_nodes``), in rounds of three ops.
* ``flights-scan`` — cold ``Mesa.explain`` calls over the 5 Flights catalog
  queries in seeded order, sf=0.05 (about 291k rows).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from oracle_check import CheckFailed, check_cmi
from repro.core.mesa import Mesa, MesaResult
from repro.core.subgroups import top_k_unexplained
from repro.datasets import covid, flights, forbes, queries, so
from repro.datasets.queries import CatalogQuery, catalog_for, get_query
from repro.eval.scoring import surrogate_user_score

N_JUNK = 12
SO_SF_SMALL = 0.05
SO_SF_DRILL = 0.1
FLIGHTS_SF = 0.05
RANDOM_PER_TABLE = 2
#: catalog queries per table in round order; round 0 holds each table's
#: quickest query (25-35 s for the round on 4 cores) so that one round
#: fits a short run
CATALOG_ROUNDS = {
    "SO": ("Q3", "Q1", "Q2"),
    "Covid-19": ("Q2", "Q3", "Q1"),
    "Forbes": ("Q1", "Q2", "Q3"),
}
WARMUP_QUERY = ("Forbes", "Q3")
DRILL_ATTRS = 3  # refine attributes per drill-down op (of SO Q1's 5)
DRILL_MAX_NODES = 8
DRILL_ROUND = 3  # ops per round: a short run measures exactly one round
SETUP_REPEATS = 3  # input set-ups per run; setup reports the median


@dataclass
class Outcome:
    """What one operation returned, plus what the check needs."""

    result: MesaResult
    prepared: object  # PreparedQuery the explanation was computed on
    groups: list = None  # drill-down: reported Refinements


@dataclass
class Op:
    label: str
    run: Callable[[], Outcome]
    catalog: CatalogQuery | None = None
    #: the measured loop may stop only after an op that ends a round, so
    #: every run sees whole rounds of the workload's mix
    ends_round: bool = True


class _KeepPrepared(Mesa):
    """``Mesa`` whose ``explain`` leaves the prepared query it analysed in
    ``last_prepared``, so the check can recompute the score on it."""

    def explain_prepared(self, prep):
        self.last_prepared = prep
        return super().explain_prepared(prep)


def _check_explanation(out: Outcome, label: str, k: int) -> None:
    res, prep = out.result, out.prepared
    sel = res.analysis_cols
    if len(sel) > k or not set(sel) <= set(prep.candidates):
        raise CheckFailed(f"{label}: explanation {sel} not within k candidates")
    if not all(np.isfinite(v) for v in res.responsibility.values()):
        raise CheckFailed(f"{label}: non-finite responsibility {res.responsibility}")
    check_cmi(
        prep.df,
        o_bin=prep.o_bin,
        t=prep.t,
        explanation=sel,
        weights=prep.weights,
        reported=res.result.final_cmi,
        what=f"{label} final I(O;T|C,E)",
    )


def explanation_score(op: Op, out: Outcome) -> float | None:
    """Surrogate user score (1..5) of a catalog query's explanation."""
    if op.catalog is None:
        return None
    return surrogate_user_score(out.result.explanation, op.catalog.gt_classes).score


def check(op: Op, out: Outcome, k: int) -> None:
    """Untimed correctness gate; raises ``CheckFailed``."""
    _check_explanation(out, op.label, k)
    for g in out.groups or ():
        check_cmi(
            out.prepared.df,
            o_bin=out.prepared.o_bin,
            t=out.prepared.t,
            explanation=out.result.analysis_cols,
            weights=out.prepared.weights,
            reported=g.score,
            conds=g.conds,
            what=f"{op.label} group [{g.describe()}] I(O;T|C',E)",
        )


class Workload:
    name: str
    prepare_in_setup = False  # prepare-side layers run only in set-up

    def __init__(self, spark, seed: int):
        self.spark = spark
        self.seed = seed
        self.mesa = _KeepPrepared(spark)

    def make_inputs(self) -> None:
        """Generate (and cache) the inputs from the seed."""
        raise NotImplementedError

    def drop_inputs(self) -> None:
        raise NotImplementedError

    def after_inputs(self) -> None:
        """Set-up work done once on the inputs (random queries, prepare)."""

    def _stream(self, rng: np.random.Generator) -> Iterator[Op]:
        raise NotImplementedError

    def warmup_ops(self) -> list[Op]:
        # Drawn from a stream of its own, so warm-up does not pre-run the
        # measured operations.
        rng = np.random.default_rng([self.seed, 1])
        return list(itertools.islice(self._stream(rng), 1))

    def ops(self) -> Iterator[Op]:
        return self._stream(np.random.default_rng([self.seed, 0]))

    def _cold_explain(self, ds, q, cq: CatalogQuery | None, label: str) -> Op:
        def run() -> Outcome:
            exclude = set(cq.exclude) if cq else None
            res = self.mesa.explain(
                ds.df, q, ds.kg, ds.extraction_cols, exclude=exclude
            )
            return Outcome(res, self.mesa.last_prepared)

        return Op(label, run, cq)


def _cached(ds):
    ds.df = ds.df.cache()
    ds.df.count()
    return ds


class InteractiveSmall(Workload):
    name = "interactive-small"
    TABLES = ("SO", "Covid-19", "Forbes")

    def make_inputs(self) -> None:
        s = self.seed
        self.ds = {
            "SO": _cached(so.make_so(self.spark, sf=SO_SF_SMALL, n_junk=N_JUNK, seed=s)),
            "Covid-19": _cached(covid.make_covid(self.spark, n_junk=N_JUNK, seed=s)),
            "Forbes": _cached(forbes.make_forbes(self.spark, n_junk=N_JUNK, seed=s)),
        }

    def after_inputs(self) -> None:
        self.random = {
            name: queries.random_queries(ds, RANDOM_PER_TABLE, seed=self.seed)
            for name, ds in self.ds.items()
        }

    def drop_inputs(self) -> None:
        for ds in self.ds.values():
            ds.df.unpersist()

    def _stream(self, rng) -> Iterator[Op]:
        # Round r asks one query per table, in seeded table order. Even
        # rounds ask catalog queries (each table's catalog in CATALOG_ROUNDS
        # order), odd rounds seeded random queries. A short run completes
        # round 0 only, so every seed measures the same query templates on
        # its own data: per-run medians compare across seeds.
        for r in itertools.count():
            order = rng.permutation(len(self.TABLES))
            for pos, i in enumerate(order):
                t = self.TABLES[i]
                ds = self.ds[t]
                if r % 2 == 0:
                    qids = CATALOG_ROUNDS[t]
                    cq = get_query(t, qids[(r // 2) % len(qids)])
                    op = self._cold_explain(ds, cq.query, cq, f"{t}/{cq.qid}")
                else:
                    q = self.random[t][(r // 2) % RANDOM_PER_TABLE]
                    op = self._cold_explain(ds, q, None, f"{t}/{q.name}")
                op.ends_round = pos == len(order) - 1
                yield op

    def warmup_ops(self) -> list[Op]:
        # A query outside round 0 on the quickest table (a Covid-19 warm-up
        # costs ~1.5x as much and leaves round 0 no faster).
        cq = get_query(*WARMUP_QUERY)
        return [self._cold_explain(self.ds[cq.dataset], cq.query, cq, f"{cq.dataset}/{cq.qid}")]


class FlightsScan(Workload):
    name = "flights-scan"

    def make_inputs(self) -> None:
        self.ds = _cached(
            flights.make_flights(
                self.spark, sf=FLIGHTS_SF, n_junk=N_JUNK, seed=self.seed
            )
        )

    def drop_inputs(self) -> None:
        self.ds.df.unpersist()

    def _stream(self, rng) -> Iterator[Op]:
        cat = catalog_for("Flights")
        while True:
            for i in rng.permutation(len(cat)):
                cq = cat[i]
                yield self._cold_explain(self.ds, cq.query, cq, f"Flights/{cq.qid}")


class Drilldown(Workload):
    name = "drilldown"
    prepare_in_setup = True

    def make_inputs(self) -> None:
        self.ds = _cached(
            so.make_so(self.spark, sf=SO_SF_DRILL, n_junk=N_JUNK, seed=self.seed)
        )

    def drop_inputs(self) -> None:
        self.ds.df.unpersist()

    def after_inputs(self) -> None:
        self.cq = get_query("SO", "Q1")
        self.prep = self.mesa.prepare(
            self.ds.df, self.cq.query, self.ds.kg, self.ds.extraction_cols
        )
        self.prep.df.count()  # materialize the cache inside set-up

    def _op(self, attrs: list[str]) -> Op:
        cq, prep = self.cq, self.prep

        def run() -> Outcome:
            res = self.mesa.explain_prepared(prep)
            # Table 4's tau rule: relative to the global residual score.
            tau = max(0.2, 1.5 * res.result.final_cmi)
            ratio = res.result.final_cmi / max(res.result.base_cmi, 1e-9)
            sg = top_k_unexplained(
                prep.df,
                explanation=res.analysis_cols,
                refine_attrs=attrs,
                o_bin=prep.o_bin,
                t=prep.t,
                k=self.mesa.cfg.k,
                tau=tau,
                tau_ratio=min(0.9, max(0.35, 2.0 * ratio)),
                weights=prep.weights,
                max_nodes=DRILL_MAX_NODES,
            )
            return Outcome(res, prep, sg.groups)

        return Op("SO/Q1 drill " + "+".join(attrs), run, cq)

    def warmup_ops(self) -> list[Op]:
        # The set-up prepare already ran ~100 Spark jobs; one explain on
        # the cached frame warms the rest of the op's path.
        prep = self.prep

        def run() -> Outcome:
            return Outcome(self.mesa.explain_prepared(prep), prep)

        return [Op("SO/Q1 explain", run, self.cq)]

    def _stream(self, rng) -> Iterator[Op]:
        attrs = list(self.cq.refine_attrs)
        for i in itertools.count():
            pick = sorted(rng.choice(len(attrs), DRILL_ATTRS, replace=False))
            op = self._op([attrs[j] for j in pick])
            op.ends_round = i % DRILL_ROUND == DRILL_ROUND - 1
            yield op



WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (InteractiveSmall, FlightsScan, Drilldown)
}
