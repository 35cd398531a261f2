"""MESA explanation benchmark.

Run from the repository root:

    python3 mesabench/run.py --workload interactive-small --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the separate
traced run that records spans around every layer's public functions and
prints the per-layer metrics (spans are also written to
``mesabench/out/spans-<workload>-seed<seed>.json``; compare two such files
with ``check_trace.py``). The program is built from ``src/`` of the same
checkout. The human-readable report goes to stdout; the last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
metrics ``BENCHMARK.json`` lists for the mode. Exit code 0 only if every
operation passed its correctness check.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shlex
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def driver_memory() -> str:
    """Half the machine's memory in GiB, clamped to 2..8 — the rule the
    test command in ROADMAP.md uses for ``SPARK_DRIVER_MEM``."""
    gib = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // (2 << 30)
    return f"{min(8, max(2, gib))}g"


def start_spark(tmp: Path):
    """A session built like ``jobs/_session.py``, local[nproc], quiet."""
    nproc = len(os.sched_getaffinity(0))
    mem = driver_memory()
    # Everything Spark, the JVM and Python write goes under the checkout.
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp / "spark")
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{nproc}]",
            f"--driver-memory {mem}",
            "--conf spark.driver.host=127.0.0.1",
            "--driver-java-options",
            shlex.quote(f"-Djava.io.tmpdir={tmp}"),
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("mesabench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.local.dir", str(tmp / "spark"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark, nproc, mem


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM process to exit."""
    gateway = spark.sparkContext._gateway
    spark.stop()
    gateway.shutdown()
    proc = gateway.proc
    proc.stdin.close()  # the gateway JVM exits when its stdin closes
    try:
        proc.wait(timeout=60)
    except Exception:
        proc.kill()
        proc.wait()


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def main() -> int:
    args = parse_args()
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(f"error: no program to benchmark under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))

    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, spec, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run(args, spec: dict, tmp: Path) -> int:
    t_session = t_process = time.perf_counter()
    spark, nproc, mem = start_spark(tmp)
    session_s = time.perf_counter() - t_session

    import pyspark

    import report
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        stop_spark(spark)
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    print(
        f"mesabench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace} nproc={nproc} "
        f"master={spark.sparkContext.master} driver_memory={mem} "
        f"pyspark={pyspark.__version__}",
        flush=True,
    )
    tracer = Tracer(spark.sparkContext) if args.trace else None
    ops: list[report.OpRecord] = []
    fatal: str | None = None
    try:
        if tracer:
            tracer.install()
        wl = workloads.WORKLOADS[args.workload](spark, args.seed)
        k = wl.mesa.cfg.k

        # -- set-up: inputs (repeated, median), once-only work, warm-up --
        gen_times = []
        for rep in range(workloads.SETUP_REPEATS):
            if rep:
                wl.drop_inputs()
            t0 = time.perf_counter()
            wl.make_inputs()
            gen_times.append(time.perf_counter() - t0)
        gen_s = statistics.median(gen_times)
        t0 = time.perf_counter()
        wl.after_inputs()
        once_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        if tracer:
            tracer.collect_jobs()
            tracer.op = "warmup"
        for op in wl.warmup_ops():
            workloads.check(op, op.run(), k)
        warmup_s = time.perf_counter() - t0
        setup_s = session_s + gen_s + once_s + warmup_s
        print(
            f"setup: session {session_s:.2f}s, inputs median {gen_s:.2f}s "
            f"of {[round(g, 2) for g in gen_times]}, queries/prepare {once_s:.2f}s, "
            f"warm-up {warmup_s:.2f}s",
            flush=True,
        )

        # -- measured closed loop ------------------------------------------
        t_start = time.perf_counter()
        round_done = True
        for idx, op in enumerate(wl.ops()):
            if ops and round_done and time.perf_counter() - t_start >= args.seconds:
                break
            round_done = op.ends_round
            rec = report.OpRecord(idx, op.label, 0.0, False)
            if tracer:
                tracer.op = idx
            t0 = time.perf_counter()
            try:
                if tracer:
                    with tracer.span("op"):
                        out = op.run()
                else:
                    out = op.run()
                rec.latency_s = time.perf_counter() - t0
                if tracer:
                    tracer.op = "check"
                workloads.check(op, out, k)
                rec.ok = True
                rec.score = workloads.explanation_score(op, out)
                rec.cmi_bits = out.result.result.final_cmi
                rec.cands_initial = out.result.candidates_initial
                rec.cands_online = out.result.candidates_after_online
            except Exception:
                rec.latency_s = rec.latency_s or time.perf_counter() - t0
                rec.error = traceback.format_exc()
            if tracer:
                tracer.collect_jobs()
            ops.append(rec)
            status = "ok" if rec.ok else "FAILED"
            detail = (
                f"E={out.result.explanation} I={rec.cmi_bits:.4f}"
                + (f" score={rec.score:.2f}" if rec.score is not None else "")
                if rec.ok else rec.error.strip().splitlines()[-1]
            )
            print(f"op {idx} {op.label}: {rec.latency_s:.3f}s {status} {detail}",
                  flush=True)
            if rec.error:
                print(rec.error, file=sys.stderr)
    except Exception:
        fatal = traceback.format_exc()
        print(fatal, file=sys.stderr)
    finally:
        if tracer:
            tracer.uninstall()
        stop_spark(spark)

    if fatal is not None:
        print(f"error: set-up failed: {fatal.strip().splitlines()[-1]}")
        print(json.dumps({"correct": False, "attempted": max(1, len(ops)),
                          "failed": max(1, len(ops)), "metrics": {}}))
        return 1

    # JVM has exited, so RUSAGE_CHILDREN holds its peak.
    peak_rss_mb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ) / 1024.0
    failed = sum(1 for r in ops if not r.ok)
    correct = failed == 0
    print(f"run wall time {time.perf_counter() - t_process:.1f}s "
          f"(measured loop {sum(r.latency_s for r in ops):.1f}s in ops)")

    e2e = report.end_to_end(ops, setup_s, peak_rss_mb)
    print(f"{'workload':<18} {'seed':>5} {'ops':>4}  end-to-end metrics")
    row = "  ".join(
        f"{name}={'n/a' if v is None else f'{v:.4g}'}{unit if v is not None else ''}"
        for name, (v, unit) in e2e.items()
    )
    print(f"{args.workload:<18} {args.seed:>5} {len(ops):>4}  {row}")
    if e2e["latency_tail_s"][0] is None:
        print(f"latency_tail_s omitted: {len(ops)} ops leave fewer than "
              f"{report.MIN_BEYOND_TAIL} beyond any percentile above the median")

    if tracer:
        spans = tracer.dump()
        overhead = sum(v for o, v in tracer.overhead_s.items() if isinstance(o, int))
        layers = report.per_layer(
            spans, ops, prepare_in_setup=wl.prepare_in_setup, gen_s=gen_s,
            overhead_s=overhead,
        )
        for name, (v, unit) in layers.items():
            print(f"  {name:<28} {v:>14.6g} {unit}")
        # Self-check: self times cover each op's wall time within overhead.
        tol = layers["trace.overhead"][0]
        for r in ops:
            gap = report.self_time_gap(spans, r.idx, r.latency_s)
            if gap < -1e-6 or gap > tol * r.latency_s + 1e-3:
                correct = False
                print(f"trace self-check FAILED: op {r.idx} self times leave "
                      f"{gap:.6f}s of {r.latency_s:.3f}s uncovered")
        OUT.mkdir(parents=True, exist_ok=True)
        dump = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        dump.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "ops": [
                {"idx": r.idx, "label": r.label, "latency_s": r.latency_s,
                 "counts": report.op_counts(spans, r.idx)}
                for r in ops
            ],
            "spans": spans,
        }))
        print(f"spans written to {dump.relative_to(ROOT)}")
        values, wanted = layers, spec["per_layer"]
    else:
        values, wanted = e2e, spec["end_to_end"]

    metrics = {}
    for m in wanted:
        v = values[m["name"]][0]
        if v is None:
            correct = False
            print(f"error: metric {m['name']} not measured")
            continue
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
