"""The benchmark's four workloads: seeded inputs, items, and each item's gate.

Each workload is a closed loop with a single caller. ``setup`` draws every
input from the workload seed and returns a ``cycle(j)`` function giving the
items of cycle j, one item per kind. An item is a (label, thunk) pair; the
thunk calls into framelab and returns None when the outcome is the expected
one, or a line saying what differed.

Family sizes follow a fixed schedule over the cycles (each size range is
walked in order), so every run does the same amount of work at a stated
size; the seed draws the families' contents, vectors and constants. The
ranges are those of acceptance criteria 1-8, whose checks are expected to
pass on every draw; composites run at dim 2-8 with 8-12 atoms, so their
exhaustive subset scans reach 2^12 subsets.

framelab is always reached through module attributes (``fusion.frame_bounds``
and so on), so the tracer's wrappers see every call.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np

import tracer as tracing
from framelab import (
    cli,
    fusion,
    hilbert,
    instances,
    perturbation,
    resolution,
    serialize,
    theorems,
)

# Inputs are drawn for this many cycles; a longer run reuses them in order.
MAX_CYCLES = 4096
HERE = os.path.dirname(os.path.abspath(__file__))


def _schedule(lo: int, hi: int, j: int) -> int:
    return lo + j % (hi - lo + 1)


def _expect_pass(report) -> str | None:
    return None if report.passed else report.summary_line()


class _Draws:
    """Per-kind seeded streams: family seeds, unit-interval draws and vectors."""

    def __init__(self, seed: int, kind: int, vec_dim: int = 8):
        rng = np.random.default_rng([seed, kind])
        self.seeds = rng.integers(0, 2**31, size=MAX_CYCLES)
        self.uniform = rng.random(MAX_CYCLES)
        self.vectors = rng.standard_normal((MAX_CYCLES, vec_dim))

    def at(self, j: int):
        j %= MAX_CYCLES
        return int(self.seeds[j]), float(self.uniform[j]), self.vectors[j]


# -- checks_small --------------------------------------------------------


def _two_path_bounds(dim, atoms, fam_seed, probe_seed):
    fam = instances.random_fusion_family(dim, atoms, fam_seed)
    bounds = fusion.frame_bounds(fam)
    svals = np.linalg.svd(fusion.synthesis_matrix(fam), compute_uv=False)
    lower_alt = float(svals[dim - 1] ** 2) if svals.size >= dim else 0.0
    scale = max(1.0, bounds.upper)
    gap = max(abs(bounds.upper - float(svals[0] ** 2)), abs(bounds.lower - lower_alt))
    if gap > 1e-8 * scale:
        return f"eigenvalue and singular-value bounds differ by {gap:.3e}"
    s_mat = fusion.frame_operator(fam)
    probes = hilbert.unit_probes(dim, 1000, np.random.default_rng(probe_seed))
    quotients = np.einsum("ij,ij->j", probes, s_mat @ probes)
    if quotients.min() < bounds.lower - 1e-9 or quotients.max() > bounds.upper + 1e-9:
        return "a Rayleigh quotient lies outside [A, B]"
    return None


def _reconstruct(dim, atoms, fam_seed, f):
    fam = instances.random_fusion_family(dim, atoms, fam_seed)
    rec = fusion.reconstruct(fam, f)
    # criterion 3 asks for 1e-8 on frames with condition <= 1e6
    if rec.bounds.condition() <= 1e6 and rec.residual > 1e-8:
        return f"reconstruction residual {rec.residual:.3e} > 1e-8"
    return None


def _characterization(dim, atoms, fam_seed):
    fam = instances.random_fusion_family(dim, atoms, fam_seed)
    return _expect_pass(fusion.verify_characterization(fam))


def _induced_fusion(dim, atoms, fam_seed):
    fam = instances.induced_frame_instance(dim, atoms, fam_seed)
    report, _ = theorems.verify_induced_fusion_frame(fam)
    return _expect_pass(report)


def _sandwich(dim, atoms, fam_seed, scaled):
    fam, ops = instances.sandwich_instance(dim, atoms, fam_seed, scaled_orthogonal=scaled)
    return _expect_pass(theorems.verify_operator_family_sandwich(fam, ops))


def _projection_identity(dim, atoms, fam_seed, kind, probe_seed):
    fam = instances.projection_identity_instance(atoms, fam_seed, kind, dim)
    report = theorems.verify_frame_from_projection_identity(
        fam, rng=np.random.default_rng(probe_seed)
    )
    return _expect_pass(report)


def _induced_vector(dim, atoms, fam_seed):
    ops, vectors = instances.vector_frame_instance(dim, atoms, fam_seed)
    return _expect_pass(theorems.verify_induced_vector_frame(ops, vectors, tol=1e-8))


def _support(dim, fam_seed, values):
    fam = instances.block_resolution_family(dim, 3, fam_seed)
    f = np.zeros(dim)
    half = dim - dim // 2
    f[:half] = values[:half]
    outcome = theorems.reconstruct_by_support(fam, f)
    c = outcome.report.constants
    if not outcome.report.passed:
        return outcome.report.summary_line()
    if c["support_size"] >= fam.natoms:
        return "support reconstruction used every atom"
    if max(c["residual_inverse_first"], c["residual_inverse_last"]) > 1e-8:
        return "support reconstruction residual > 1e-8"
    if c["ordering_gap"] > 1e-9:
        return "inverse orderings differ by more than 1e-9"
    return None


def _sweep():
    rows = cli.sweep_discretization("rotating_line", [8, 16, 32, 64])
    floor = 1e-9
    for key in ("lower_error", "upper_error"):
        errors = [row[key] for row in rows]
        if errors[-1] > 1e-6:
            return f"{key} {errors[-1]:.3e} > 1e-6 at 64 atoms"
        if any(b > max(a, floor) for a, b in zip(errors, errors[1:])):
            return f"{key} is not monotone over 8 -> 64 atoms"
    return None


def setup_checks_small(seed, tiny, workdir, runner):
    draws = [_Draws(seed, k) for k in range(9)]

    def cycle(j):
        items = []
        s, u, v = draws[0].at(j)
        d, a = _schedule(2, 8, j), _schedule(2, 12, j)
        items.append((f"two_path_bounds dim={d} atoms={a} seed={s}",
                      lambda: _two_path_bounds(d, a, s, s + 1)))
        s1, _, v1 = draws[1].at(j)
        items.append((f"reconstruct dim={d} atoms={a} seed={s1}",
                      lambda: _reconstruct(d, a, s1, v1[:d])))
        s2, _, _ = draws[2].at(j)
        items.append((f"verify_characterization dim={d} atoms={a} seed={s2}",
                      lambda: _characterization(d, a, s2)))
        d6, a8 = _schedule(2, 6, j), _schedule(2, 8, j)
        s3, _, _ = draws[3].at(j)
        items.append((f"induced_fusion_frame dim={d6} atoms={a8} seed={s3}",
                      lambda: _induced_fusion(d6, a8, s3)))
        s4, _, _ = draws[4].at(j)
        scaled = j % 7 == 0
        items.append((f"operator_sandwich dim={d6} atoms={a8} seed={s4} scaled={scaled}",
                      lambda: _sandwich(d6, a8, s4, scaled)))
        s5, _, _ = draws[5].at(j)
        kind = ("equiangular", "orthogonal")[j % 2]
        items.append((f"projection_identity kind={kind} dim={d} atoms={a} seed={s5}",
                      lambda: _projection_identity(d, a, s5, kind, s5 + 1)))
        s6, _, _ = draws[6].at(j)
        items.append((f"induced_vector_frame dim={d6} atoms={a8} seed={s6}",
                      lambda: _induced_vector(d6, a8, s6)))
        s7, _, v7 = draws[7].at(j)
        d48 = _schedule(4, 8, j)
        items.append((f"support_reconstruction dim={d48} seed={s7}",
                      lambda: _support(d48, s7, v7)))
        items.append(("sweep_discretization rotating_line n=8,16,32,64", _sweep))
        return items

    return cycle


# -- perturb_small -------------------------------------------------------


def _subset_sum(dim, fam_seed, kind, lam):
    base, perturbed, lam = instances.perturbed_sum_instance(dim, fam_seed, kind, lam)
    report, _ = perturbation.verify_perturbed_sum(base, perturbed, lam)
    if not report.passed:
        return report.summary_line()
    if not any("exhaustive" in note for note in report.notes):
        return "subset scan was not exhaustive"
    if report.constants["deviation_norm"] > lam + 1e-9:
        return "deviation norm exceeds lambda"
    if report.constants["reconstruction_residual"] > 1e-9:
        return "perturbed-sum reconstruction residual > 1e-9"
    return None


def _perturbed_resolution(dim, atoms, fam_seed):
    base, perturbed, params, lam = instances.perturbed_resolution_instance(
        dim, atoms, fam_seed, "additive"
    )
    report, normalized = perturbation.verify_perturbed_resolution(base, perturbed, params, lam)
    if normalized is None:
        return "perturbed family did not normalize"
    return _expect_pass(report)


def _composite(dim, atoms, fam_seed):
    base, comp, params, lam = instances.composite_instance(dim, atoms, fam_seed)
    report = perturbation.verify_composite_perturbation(base, comp, params, lam)
    if not report.passed:
        return report.summary_line()
    if report.constants["probe_lower"] ** 2 < report.constants["predicted_lower"] - 1e-9:
        return "probe lower bound below the predicted lower bound"
    return None


def setup_perturb_small(seed, tiny, workdir, runner):
    draws = [_Draws(seed, 10 + k) for k in range(3)]
    sum_kinds = ("columns", "left", "scalar")

    def cycle(j):
        s0, u0, _ = draws[0].at(j)
        d8 = _schedule(2, 8, j)
        kind = sum_kinds[j % 3]
        lam = 0.2 + 0.5 * u0
        s1, _, _ = draws[1].at(j)
        d5, a8 = _schedule(2, 5, j), _schedule(2, 8, j)
        s2, _, _ = draws[2].at(j)
        # composites run at 8-12 atoms: each size is then a fifteenth of all
        # items, and the 11- and 12-atom ones are the slowest items, so the
        # item-time p90 falls in the middle of the 11-atom group rather than
        # in a gap between two groups
        a12 = _schedule(8, 12, j)
        return [
            (f"subset_stable_sum kind={kind} dim={d8} lam={lam!r} seed={s0}",
             lambda: _subset_sum(d8, s0, kind, lam)),
            (f"perturbed_resolution dim={d5} atoms={a8} seed={s1}",
             lambda: _perturbed_resolution(d5, a8, s1)),
            (f"composite_perturbation dim={d8} atoms={a12} seed={s2}",
             lambda: _composite(d8, a12, s2)),
        ]

    return cycle


# -- stress_large --------------------------------------------------------


def _same_family(a, b) -> bool:
    return (
        a.natoms == b.natoms
        and np.array_equal(a.weights, b.weights)
        and np.array_equal(a.masses, b.masses)
        and tuple(a.points) == tuple(b.points)
        and all(np.array_equal(x.basis, y.basis) for x, y in zip(a.subspaces, b.subspaces))
    )


def _fusion_reconstruct(dim, atoms, fam_seed, f, built):
    fam = instances.random_fusion_family(dim, atoms, fam_seed)
    built["family"] = fam
    problem = _expect_pass(fusion.verify_characterization(fam))
    if problem:
        return problem
    rec = fusion.reconstruct(fam, f)
    if rec.residual > 1e-8:
        return f"reconstruction residual {rec.residual:.3e} > 1e-8"
    return None


def _fusion_roundtrip(built):
    fam = built.pop("family")
    text = serialize.dumps_fusion_family(fam)
    back = serialize.loads_fusion_family(text)
    if not _same_family(fam, back):
        return "dumps -> loads round trip is not value-exact"
    if serialize.dumps_fusion_family(back) != text:
        return "dumps -> loads -> dumps is not byte-identical"
    return None


def _fusion_characterization(dim, atoms, fam_seed):
    fam = instances.random_fusion_family(dim, atoms, fam_seed)
    return _expect_pass(fusion.verify_characterization(fam))


def _resolution_check(dim, atoms, fam_seed):
    fam = instances.random_resolution_family(dim, atoms, fam_seed)
    return _expect_pass(resolution.verify_resolution(fam))


def _sampled_sum(dim, atoms, fam_seed, nrandom):
    base, perturbed, _, lam = instances.perturbed_resolution_instance(dim, atoms, fam_seed, "left")
    report, _ = perturbation.verify_perturbed_sum(base, perturbed, lam, nrandom=nrandom)
    if not report.passed:
        return report.summary_line()
    expected = 2 * atoms + nrandom
    if report.constants["subsets_checked"] != expected:
        return f"sampled scan checked {report.constants['subsets_checked']} subsets, not {expected}"
    return None


def setup_stress_large(seed, tiny, workdir, runner):
    draws = [_Draws(seed, 20 + k, vec_dim=64) for k in range(4)]
    # tiny sizes keep each branch (a sampled scan needs more than 12 atoms)
    big, mid, huge = (8, 20, 40) if tiny else (64, 400, 1000)
    scan_dim, scan_atoms, nrandom = (4, 14, 100) if tiny else (16, 20, 10_000)

    def cycle(j):
        s0, _, v0 = draws[0].at(j)
        s1, _, _ = draws[1].at(j)
        s2, _, _ = draws[2].at(j)
        s3, _, _ = draws[3].at(j)
        # The round trip serializes the family the item before it built.
        # With five kinds the item-time p50 falls inside the group of the
        # two ~0.5 s checks, and the p90 among the round trips, the slowest
        # kind, rather than in the gaps between groups.
        built = {}
        return [
            (f"fusion_reconstruct dim={big} atoms={mid} seed={s0}",
             lambda: _fusion_reconstruct(big, mid, s0, v0[:big], built)),
            (f"fusion_roundtrip dim={big} atoms={mid} seed={s0}",
             lambda: _fusion_roundtrip(built)),
            (f"fusion_characterization dim={big} atoms={huge} seed={s1}",
             lambda: _fusion_characterization(big, huge, s1)),
            (f"resolution_check dim={big} atoms={mid} seed={s2}",
             lambda: _resolution_check(big, mid, s2)),
            (f"sampled_subset_sum dim={scan_dim} atoms={scan_atoms} seed={s3}",
             lambda: _sampled_sum(scan_dim, scan_atoms, s3, nrandom)),
        ]

    return cycle


# -- cli_calls -----------------------------------------------------------


class CliRunner:
    """Runs ``python -m framelab.cli`` in a child process.

    With a tracer set, the child is started through ``cli_child.py``, which
    traces framelab inside the child; its spans are merged under one span
    covering the whole process, whose self time is the interpreter start,
    the imports and argument parsing.
    """

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.tracer = None
        self.calls = 0

    def __call__(self, args):
        self.calls += 1
        if self.tracer is None:
            proc = subprocess.run(
                [sys.executable, "-m", "framelab.cli", *args],
                capture_output=True, text=True, timeout=120,
            )
            return proc.returncode, proc.stdout
        spans = os.path.join(self.workdir, f"spans-{self.calls}.npz")
        name_id = self.tracer.name_id(f"cli.process.{args[0]}", "cli")
        frame = self.tracer.begin(name_id)
        covered = 0.0
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "cli_child.py"), spans, *args],
                capture_output=True, text=True, timeout=120,
            )
            covered = self.tracer.merge(tracing.load(spans), frame[0])
            os.remove(spans)
        finally:
            self.tracer.end(frame, covered)
        return proc.returncode, proc.stdout


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def setup_cli_calls(seed, tiny, workdir, runner):
    s = [int(x) for x in np.random.default_rng([seed, 30]).integers(0, 2**31, size=4)]
    fus = instances.random_fusion_family(6, 8, s[0])
    res = instances.random_resolution_family(4, 6, s[1])
    base, perturbed, params, lam = instances.perturbed_resolution_instance(4, 6, s[2], "additive")

    def p(name):
        return os.path.join(workdir, name)

    fus_path = _write(p("fusion.json"), serialize.dumps_instance(fus))
    res_path = _write(p("resolution.json"), serialize.dumps_instance(res))
    _write(p("base.json"), serialize.dumps_instance(base))
    _write(p("perturbed.json"), serialize.dumps_instance(perturbed))
    scen_path = _write(p("scenario.json"), json.dumps({
        "base": "base.json", "perturbed": "perturbed.json", "lambda": lam,
        "lambda1": params.lambda1, "lambda2": params.lambda2,
        "phi": "table:" + json.dumps(list(params.phi)),
    }))
    broken = json.loads(serialize.dumps_instance(res))
    broken["operators"] = [(2.0 * np.asarray(t)).tolist() for t in broken["operators"]]
    broken_path = _write(p("broken.json"), json.dumps(broken))
    ugly_path = _write(p("malformed.json"), "{")
    gen_path = p("gen.json")
    gen_args = ["--scenario", "random_resolution", "--dim", "4", "--atoms", "5", "--seed", str(s[3])]
    expected_gen = serialize.dumps_instance(instances.build_scenario(
        "random_resolution", dim=4, atoms=5, seed=s[3]))
    expected_sweep = serialize.sweep_csv(cli.sweep_discretization("rotating_line", [8, 16, 32, 64]))
    fus_bounds = fusion.frame_bounds(fus)
    # Whether the composite check applies to (and passes on) an additive
    # perturbation depends on the draw, so the perturb verdict is taken from
    # the same command run in this process; it must be a verdict (0 or 1).
    with contextlib.redirect_stdout(io.StringIO()):
        expected_perturb = cli.main(["perturb", scen_path])
    if expected_perturb not in (0, 1):
        raise RuntimeError(f"in-process perturb exited {expected_perturb}")

    def gen():
        code, _ = runner(["gen", *gen_args, "--out", gen_path])
        if code != 0:
            return f"exit {code}, expected 0"
        with open(gen_path, encoding="utf-8") as fh:
            return None if fh.read() == expected_gen else "gen output differs from the in-process instance"

    def analyze():
        code, out = runner(["analyze", fus_path])
        if code != 0:
            return f"exit {code}, expected 0"
        got = json.loads(out)
        scale = max(1.0, fus_bounds.upper)
        if max(abs(got["lower"] - fus_bounds.lower), abs(got["upper"] - fus_bounds.upper)) > 1e-12 * scale:
            return "analyze bounds differ from the in-process bounds"
        return None

    def exit_code(args, expected):
        def call():
            code, _ = runner(args)
            return None if code == expected else f"exit {code}, expected {expected}"
        return call

    def reconstruct():
        code, out = runner(["reconstruct", fus_path])
        if code != 0:
            return f"exit {code}, expected 0"
        residual = json.loads(out)["residual"]
        return None if residual <= 1e-8 else f"residual {residual:.3e} > 1e-8"

    def sweep():
        code, out = runner(["sweep", "--scenario", "rotating_line", "--n", "8,16,32,64"])
        if code != 0:
            return f"exit {code}, expected 0"
        return None if out == expected_sweep else "sweep CSV differs from the in-process rows"

    items = [
        ("gen random_resolution", gen),
        ("analyze fusion.json", analyze),
        ("verify fusion.json", exit_code(["verify", fus_path], 0)),
        ("verify resolution.json", exit_code(["verify", res_path], 0)),
        ("reconstruct fusion.json", reconstruct),
        ("perturb scenario.json", exit_code(["perturb", scen_path], expected_perturb)),
        ("sweep rotating_line", sweep),
        ("verify broken.json", exit_code(["verify", broken_path], 1)),
        ("analyze malformed.json", exit_code(["analyze", ugly_path], 2)),
    ]
    return lambda j: items


SETUP = {
    "checks_small": setup_checks_small,
    "perturb_small": setup_perturb_small,
    "stress_large": setup_stress_large,
    "cli_calls": setup_cli_calls,
}

# Cycles the traced run measures per second of --seconds. It runs that fixed
# number of cycles twice (untraced, then traced), so its counts repeat for a
# seed; on a 2-CPU x86-64 sandbox the pair takes under --seconds.
TRACE_CYCLES_PER_S = {
    "checks_small": 1.0,
    "perturb_small": 1.0,
    "stress_large": 0.04,
    "cli_calls": 0.1,
}
