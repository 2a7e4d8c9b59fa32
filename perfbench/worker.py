"""One workload process: set up, run the measured phase, print a JSON result.

run.py starts this with BLAS pinned to one thread and PYTHONPATH at the
checkout's ``src``. Usage:

    python worker.py WORKLOAD SEED SECONDS TRACE SIZE MODE

MODE ``setup`` sets up, reports when set-up ended and the host-speed scale
measured right after, and exits; MODE ``run`` also runs the workload. The last line of stdout is the JSON result; lines
before it name items whose outcome differed from the expected one.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback

import numpy as np

import framelab
import tracer as tracing
import workloads

clock = tracing.clock
ROOT = os.getcwd()

# The host's speed drifts by up to 1.6x within minutes on a shared 2-vCPU
# sandbox, and every item kind drifts with it. Timings are therefore also
# reported corrected to a nominal host speed: a fixed reference task that
# does not touch framelab is timed every few tenths of a second between
# items, and each item's time is scaled by the reference's nominal time over
# the mean of the two reference times around the item.
_REFERENCE_MATRIX = np.eye(8) + np.outer(np.arange(8.0), np.arange(8.0)) / 64


def compute_reference_ms() -> float:
    """Time a fixed mix of the work in-process items do: small LAPACK calls,
    array products and Python-level number formatting."""
    a = _REFERENCE_MATRIX
    t0 = clock()
    for _ in range(16):
        _, v = np.linalg.eigh(a)
        b = v @ a
        ",".join(format(x, ".17g") for x in b[0])
        float(np.linalg.norm(b, 2))
    return (clock() - t0) * 1e3


def process_reference_ms() -> float:
    """Time an interpreter start that imports NumPy, most of a CLI call."""
    t0 = clock()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return (clock() - t0) * 1e3


# (reference task, sampling period in s, nominal time in ms)
COMPUTE_REFERENCE = (compute_reference_ms, 0.25, 1.0)
REFERENCES = {"cli_calls": (process_reference_ms, 2.0, 250.0)}


def host_scale() -> float:
    """Nominal over measured compute-reference time, after one warm-up call."""
    task, _, nominal = COMPUTE_REFERENCE
    task()
    return nominal / statistics.median(task() for _ in range(5))


def run_cycles(cycle, workload, seed, *, seconds=None, cycles=None, spans=None, first_item=0,
               reference=None):
    """Run whole cycles until ``seconds`` have passed or ``cycles`` are done.

    With a ``reference`` (task, period, nominal), the task is timed whenever
    the period has passed (checked between items) and once at the end; each
    item's host-speed scale uses the mean of the two reference times around it.
    """
    item_ms = []
    item_ref = []  # index of the last reference time taken before each item
    refs = []
    failed = 0
    sampled = -float("inf")
    start = clock()
    j = 0
    while True:
        for label, thunk in cycle(j):
            idx = first_item + len(item_ms)
            if spans is not None:
                spans.item = idx
            if reference and clock() - sampled >= reference[1]:
                refs.append(reference[0]())
                sampled = clock()
            item_ref.append(len(refs) - 1)
            t0 = clock()
            try:
                problem = thunk()
            except Exception as exc:  # an item that raises is a failed item; the run goes on
                where = traceback.extract_tb(exc.__traceback__)[-1]
                problem = f"{type(exc).__name__}: {exc} (at {where.filename}:{where.lineno})"
            item_ms.append((clock() - t0) * 1e3)
            if problem:
                failed += 1
                print(f"FAIL workload={workload} seed={seed} item={idx} {label}: {problem}", flush=True)
        j += 1
        if cycles is not None and j >= cycles:
            break
        if seconds is not None and clock() - start >= seconds:
            break
    wall_s = clock() - start
    result = {"items": len(item_ms), "failed": failed, "item_ms": item_ms, "wall_s": wall_s}
    if reference:
        refs.append(reference[0]())
        result["item_scale"] = [reference[2] * 2 / (refs[k] + refs[k + 1]) for k in item_ref]
    return result


def _median_ms(argv, repeats=5) -> float:
    times = []
    for _ in range(repeats):
        t0 = clock()
        subprocess.run(argv, check=True, timeout=60)
        times.append((clock() - t0) * 1e3)
    return statistics.median(times)


def traced_run(workload, seed, seconds, cycle, runner):
    """Run the same fixed list of items untraced, then traced."""
    cycles = max(1, round(seconds * workloads.TRACE_CYCLES_PER_S[workload]))
    plain = run_cycles(cycle, workload, seed, cycles=cycles)
    spans = tracing.Tracer()
    uninstall = tracing.install(spans)
    runner.tracer = spans
    try:
        traced = run_cycles(cycle, workload, seed, cycles=cycles, spans=spans, first_item=plain["items"])
    finally:
        runner.tracer = None
        uninstall()
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    spans.dump(os.path.join(ROOT, ".bench_out", f"spans-{workload}-seed{seed}.npz"))

    layers = tracing.layer_metrics(spans)
    wall_ms = traced["wall_s"] * 1e3
    traced_rate = traced["items"] / traced["wall_s"]
    plain_rate = plain["items"] / plain["wall_s"]
    layers.update({
        "cli.call_ms.p50": 0.0,
        "cli.interp_ms": 0.0,
        "cli.import_ms": 0.0,
        "trace.overhead_ratio": traced_rate / plain_rate,
        "trace.items_per_s_traced": traced_rate,
        "trace.items_per_s_untraced": plain_rate,
        "trace.items": traced["items"],
        "trace.spans": len(spans.span_name),
        "trace.wall_ms": wall_ms,
        # what the layers' self times leave of the traced wall time
        "trace.harness_ms": wall_ms - sum(layers[f"{layer}.self_ms"] for layer in tracing.LAYERS),
    })
    if workload == "cli_calls":
        interp = _median_ms([sys.executable, "-c", "pass"])
        imported = _median_ms([sys.executable, "-c", "import framelab.cli"])
        layers["cli.call_ms.p50"] = statistics.median(plain["item_ms"])
        layers["cli.interp_ms"] = interp
        layers["cli.import_ms"] = imported - interp
    return {
        "items": plain["items"] + traced["items"],
        "failed": plain["failed"] + traced["failed"],
        "layers": layers,
    }


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    src = os.path.join(ROOT, "src", "framelab")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _blas() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy before 1.26 only prints its config
        return {"name": "unknown"}
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def provenance(seed: int) -> dict:
    return {
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main() -> int:
    workload, seed, seconds, trace, size, mode = sys.argv[1:7]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(framelab.__file__).startswith(src + os.sep):
        print(f"framelab was imported from {framelab.__file__}, not from {src}", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".bench_work", f"{workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner = workloads.CliRunner(workdir)
        cycle = workloads.SETUP[workload](seed, size == "tiny", workdir, runner)
        setup_done = clock()
        if trace:
            result = traced_run(workload, seed, seconds, cycle, runner)
        else:
            setup_scale = host_scale()
            if mode == "setup":
                print(json.dumps({"setup_done": setup_done, "setup_scale": setup_scale}))
                return 0
            reference = REFERENCES.get(workload, COMPUTE_REFERENCE)
            result = run_cycles(cycle, workload, seed, seconds=seconds, reference=reference)
            result["setup_scale"] = setup_scale
            who = resource.RUSAGE_CHILDREN if workload == "cli_calls" else resource.RUSAGE_SELF
            result["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
        result["setup_done"] = setup_done
        result["provenance"] = provenance(seed)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
