"""Traced-run self-check: per-operation counts must repeat exactly.

Run the traced benchmark twice with the same seed, keeping each span file,
then compare them:

    python3 mesabench/run.py --workload drilldown --seed 1 --seconds 20 --trace 1
    cp mesabench/out/spans-drilldown-seed1.json mesabench/out/a.json
    python3 mesabench/run.py --workload drilldown --seed 1 --seconds 20 --trace 1
    python3 mesabench/check_trace.py mesabench/out/a.json mesabench/out/spans-drilldown-seed1.json

Operations present in both runs (same index, same label) must have identical
counts (Spark jobs, contingency calls, MCIMR iterations, subgroup nodes,
binning jobs). Exit code 1 on any difference.
"""
from __future__ import annotations

import json
import sys


def main(a_path: str, b_path: str) -> int:
    a, b = (json.load(open(p)) for p in (a_path, b_path))
    if (a["workload"], a["seed"]) != (b["workload"], b["seed"]):
        print("error: the two runs differ in workload or seed")
        return 1
    bad = 0
    compared = 0
    for x, y in zip(a["ops"], b["ops"]):
        if x["label"] != y["label"]:
            print(f"op {x['idx']}: different operations {x['label']!r} vs {y['label']!r}")
            bad += 1
            continue
        compared += 1
        for name, v in x["counts"].items():
            if v != y["counts"][name]:
                print(f"op {x['idx']} {x['label']}: {name} {v} vs {y['counts'][name]}")
                bad += 1
    print(f"{compared} operations compared, {bad} differences")
    return 1 if bad or not compared else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2]))
