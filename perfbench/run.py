"""framelab benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload checks_small [--seed N] [--seconds S] [--trace 0|1]

Workloads (closed loops, one caller, BLAS pinned to one thread):

  checks_small   acceptance-size checks of criteria 1-6 plus a rotating-line sweep
  perturb_small  acceptance-size subset-stable sums, perturbed resolutions, composites
  stress_large   64x400 and 64x1000 families, a dumps/loads round trip, a sampled scan
  cli_calls      sequential ``python -m framelab.cli`` processes over files written in set-up

BENCHMARK.json gates checks_small, perturb_small and cli_calls; stress_large
runs the same way but is left out there, because its item times do not
repeat within the bounds in a 30 s run on a shared 2-vCPU host.

With ``--trace 0`` the run reports the end-to-end metrics. Their timings are
corrected to a nominal host speed with a reference task timed between items
(see worker.py); the raw timings are printed beside them. With ``--trace 1``
it runs a fixed list of items untraced and then traced, and reports the
per-layer metrics. The last stdout line is a JSON object with the keys
correct, attempted, failed and metrics. A fuller record, with provenance, is
written to .bench_out/.

The benchmark runs framelab from ``src/`` of the current directory and
exits with status 2 when there is none. ``baseline.py`` runs every workload
over ten seeds.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from metrics import PER_LAYER, UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("checks_small", "perturb_small", "stress_large", "cli_calls")
DEFAULT_SEED = 20260816
# Set-up is measured this many times in fresh processes (plus once in the
# measured process) and reported as the median.
SETUP_REPEATS = 4
DEADLINE_S = 170.0


def p90(values) -> float:
    """90th percentile, interpolating linearly between order statistics."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class WorkerError(RuntimeError):
    pass


def spawn(args, mode: str, env: dict, deadline: float) -> tuple[dict, float]:
    """Run one workload process; return its JSON result and its start time."""
    argv = [
        sys.executable, os.path.join(HERE, "worker.py"),
        args.workload, str(args.seed), str(args.seconds), str(args.trace), args.size, mode,
    ]
    started = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise WorkerError(f"{args.workload} did not finish before the deadline") from None
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{args.workload} worker exited with status {proc.returncode}")
    return json.loads(lines[-1]), started


def end_to_end(args, env, deadline) -> tuple[dict, dict, dict]:
    """Timings here are corrected to nominal host speed (see worker.REFERENCES);
    the raw ones are printed alongside."""
    setups = []
    for _ in range(SETUP_REPEATS):
        result, started = spawn(args, "setup", env, deadline)
        setups.append((result["setup_done"] - started, result["setup_scale"]))
    result, started = spawn(args, "run", env, deadline)
    # the measured process's set-up ends when its first timed item starts
    setups.append((result.pop("setup_done") - started, result["setup_scale"]))
    raw_ms = result["item_ms"]
    item_ms = [t * k for t, k in zip(raw_ms, result["item_scale"])]
    metrics = {
        "items_per_s": 1e3 * len(item_ms) / sum(item_ms),
        "item_ms.p50": statistics.median(item_ms),
        "item_ms.p90": p90(item_ms),
        "setup_s": statistics.median(t * k for t, k in setups),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    beyond = sum(x > metrics["item_ms.p90"] for x in item_ms)
    samples = {
        "items_per_s": f"n={result['items']} items in {result['wall_s']:.3f} s; "
                       f"raw {1e3 * len(raw_ms) / sum(raw_ms):.6g}",
        "item_ms.p50": f"n={len(item_ms)} items; raw {statistics.median(raw_ms):.6g}",
        "item_ms.p90": f"n={len(item_ms)} items, {beyond} beyond; raw {p90(raw_ms):.6g}",
        "setup_s": f"median of n={len(setups)} set-ups; raw {statistics.median(t for t, _ in setups):.6g}",
        "peak_rss_mb": "max over n=1 process" if args.workload != "cli_calls"
        else f"max over the n={result['items']} CLI child processes",
    }
    result["setup_s_samples"] = setups
    return result, metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks stress_large for the harness self-test")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "framelab", "__init__.py")):
        print(f"error: no framelab sources under {root}/src; run from the repository root",
              file=sys.stderr)
        return 2
    env = dict(
        os.environ,
        PYTHONPATH=os.path.join(root, "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            result, started = spawn(args, "run", env, deadline)
            metrics = {name: result["layers"][name] for name, _, _ in PER_LAYER}
            note = f"n={result['layers']['trace.items']} items, run untraced then traced"
            samples = dict.fromkeys(metrics, note)
        else:
            result, metrics, samples = end_to_end(args, env, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(os.path.join(root, ".bench_work"))
        except OSError:
            pass

    attempted, failed = result["items"], result["failed"]
    print(f"framelab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print("provenance: " + json.dumps(result["provenance"], sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:30s} {value:>16.6g} {UNITS[name]:6s} ({samples[name]})")
    print(f"  {'fail_ratio':30s} {failed / attempted:>16.6g} {'':6s} ({failed} of {attempted} items)")
    record = dict(result, workload=args.workload, trace=args.trace, metrics=metrics)
    record.pop("layers", None)
    os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
    out = os.path.join(root, ".bench_out", f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
