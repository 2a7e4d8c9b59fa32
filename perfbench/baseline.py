"""Measure a baseline: every workload over several seeds, plus one traced run.

    python3 perfbench/baseline.py [--runs 10] [--seconds 30] [--out perfbench/baseline.json]

Runs ``run.py`` once per seed and workload (seeds 1..runs), one after the
other, and records for each end-to-end metric its median, quartiles and
spread (interquartile range over the median, the figure BENCHMARK.json's
bounds are set against). One traced run per workload on the default seed
records the per-layer metrics. Run it from the repository root.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from metrics import LAYER_MAP
from run import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace) -> tuple[dict, dict]:
    """Return the result line and the provenance line of one run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=200, check=True,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed items")
    prov = next(json.loads(line.split(": ", 1)[1]) for line in lines if line.startswith("provenance: "))
    return result, prov


def summarize(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args()
    out = {"runs": args.runs, "seconds": args.seconds, "seeds": list(range(1, args.runs + 1)),
           "layer_map": {k: {"moves": list(v[0]), "where": v[1]} for k, v in LAYER_MAP.items()},
           "workloads": {}}
    for workload in WORKLOADS:
        values: dict[str, list] = {}
        for seed in out["seeds"]:
            result, prov = run_once(workload, seed, args.seconds, 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        out.setdefault("provenance", {k: v for k, v in prov.items() if k != "seed"})
        traced = run_once(workload, DEFAULT_SEED, args.seconds, 1)[0]["metrics"]
        out["workloads"][workload] = {
            "end_to_end": {name: summarize(v) for name, v in values.items()},
            "per_layer": {name: m["value"] for name, m in traced.items()},
        }
        for name, v in out["workloads"][workload]["end_to_end"].items():
            print(f"{workload:14s} {name:12s} median {v['median']:12.6g} spread {v['spread']:.4f}", flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
