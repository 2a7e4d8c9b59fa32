"""Command line front end for generating, analyzing and verifying instances.

Exit codes: 0 when everything passes, 1 when a hypothesis or conclusion
check fails (a report is still emitted), 2 on unreadable or malformed
input, 3 on internal errors. FRAMELAB_TOL overrides the default tolerance
when --tol is absent.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import fusion, hilbert, instances, perturbation, resolution, serialize, theorems
from .errors import FrameLabError, NotAFrameError
from .fusion import WeightedSubspaceFamily
from .perturbation import PerturbationParams
from .resolution import OperatorFamily, SumMode

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3

DEFAULT_TOL = 1e-9
TOL_ENV_VAR = "FRAMELAB_TOL"


def default_tolerance() -> float:
    raw = os.environ.get(TOL_ENV_VAR)
    if raw is None:
        return DEFAULT_TOL
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{TOL_ENV_VAR} must be a number, got {raw!r}") from None
    if not 0.0 < value < 1.0:
        raise ValueError(f"{TOL_ENV_VAR} must lie in (0, 1), got {value}")
    return value


def _resolve_tol(args) -> float:
    return args.tol if getattr(args, "tol", None) is not None else default_tolerance()


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, out) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_kwargs(args) -> dict:
    n = getattr(args, "n", None)
    return {
        "dim": getattr(args, "dim", None),
        "atoms": getattr(args, "atoms", None),
        "seed": getattr(args, "seed", None),
        "n": None if n is None else int(n),
    }


def _load_or_build(args):
    path = getattr(args, "input", None)
    scenario = getattr(args, "scenario", None)
    if path and scenario:
        raise ValueError("give either an input file or --scenario, not both")
    if path:
        return serialize.loads_instance(_read(path)), path
    if scenario:
        return instances.build_scenario(scenario, **_build_kwargs(args)), scenario
    raise ValueError("need an input file or --scenario")


def cmd_gen(args) -> int:
    obj = instances.build_scenario(args.scenario, **_build_kwargs(args))
    _emit(serialize.dumps_instance(obj), args.out)
    return EXIT_OK


def cmd_discretize(args) -> int:
    from . import measure as measure_mod

    space, scheme, weight = serialize.loads_measure_spec(_read(args.input))
    meas = measure_mod.discretize(space, scheme)
    sampled = measure_mod.sample_weights(weight, meas)
    if sampled.zero_atoms:
        print(
            f"note: {len(sampled.zero_atoms)} atoms carry zero weight",
            file=sys.stderr,
        )
    _emit(serialize.dumps_discretization(meas, sampled.values), args.out)
    return EXIT_OK


def _bounds_summary(obj) -> dict:
    if isinstance(obj, WeightedSubspaceFamily):
        bounds = fusion.frame_bounds(obj)
        kind = "fusion_frame"
        extra = {}
    else:
        rbounds = resolution.resolution_bounds(obj)
        bounds = rbounds
        kind = "resolution"
        extra = {"sup_norm": obj.sup_norm(), "sum_mode": obj.sum_mode.value}
    condition = bounds.upper / bounds.lower if bounds.lower > 0 else None
    summary = {
        "kind": kind,
        "ambient_dim": obj.ambient_dim,
        "atoms": obj.natoms,
        "lower": bounds.lower,
        "upper": bounds.upper,
        "condition": condition,
    }
    summary.update(extra)
    return summary


def cmd_analyze(args) -> int:
    obj, _ = _load_or_build(args)
    summary = _bounds_summary(obj)
    if args.format == "csv":
        cond = summary["condition"]
        fields = [
            serialize.canonical_number(summary["lower"]),
            serialize.canonical_number(summary["upper"]),
            "" if cond is None else serialize.canonical_number(cond),
        ]
        text = "lower,upper,condition\n" + ",".join(fields) + "\n"
    else:
        text = serialize.dumps_canonical(summary)
    _emit(text, args.out)
    return EXIT_OK


def _probe_vector(args, dim: int) -> np.ndarray:
    raw = getattr(args, "vector", None)
    if raw is not None:
        import json

        vec = hilbert.require_finite(np.asarray(json.loads(raw), dtype=float), "--vector")
        if vec.shape != (dim,):
            raise ValueError(f"vector must have {dim} entries, got shape {vec.shape}")
        return vec
    rng = np.random.default_rng(args.seed or 0)
    vec = rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def cmd_reconstruct(args) -> int:
    tol = _resolve_tol(args)
    obj, _ = _load_or_build(args)
    f = _probe_vector(args, obj.ambient_dim)
    if isinstance(obj, WeightedSubspaceFamily):
        try:
            rec = fusion.reconstruct(obj, f)
        except NotAFrameError as exc:
            print(f"reconstruction failed: {exc}", file=sys.stderr)
            return EXIT_CHECK_FAILED
        result = {
            "residual": rec.residual,
            "lower": rec.bounds.lower,
            "upper": rec.bounds.upper,
            "vector": f.tolist(),
            "reconstructed": rec.vector.tolist(),
        }
        _emit(serialize.dumps_canonical(result), args.out)
        return EXIT_OK if rec.residual <= max(tol, 1e-8) else EXIT_CHECK_FAILED
    if obj.sum_mode is not SumMode.RAW:
        raise ValueError(
            "reconstruct needs a fusion family or a raw-mode resolution"
        )
    outcome = theorems.reconstruct_by_support(obj, f)
    print(outcome.report.summary_line())
    result = {
        "report": outcome.report.to_dict(),
        "vector": f.tolist(),
        "reconstructed": None
        if outcome.inverse_first is None
        else outcome.inverse_first.tolist(),
    }
    _emit(serialize.dumps_canonical(result), args.out)
    return EXIT_OK if outcome.report.passed else EXIT_CHECK_FAILED


def _projector_checks(family: WeightedSubspaceFamily, tol: float) -> list:
    """Gated checks on projector sums, as ("run", report) or ("skip", line)."""
    entries = []
    resid = theorems.first_power_residual(family)
    if resid <= tol:
        entries.append(
            ("run", theorems.verify_frame_from_projection_identity(family, tol))
        )
    else:
        entries.append(
            (
                "skip",
                "projection_identity_frame: SKIP (first-power projector sum"
                f" misses the identity by {resid:.3e})",
            )
        )
    defect = theorems.orthogonality_defect(family)
    if defect <= 1e-10:
        entries.append(("run", theorems.verify_orthogonal_decomposition(family, tol)))
    else:
        entries.append(
            (
                "skip",
                "orthogonal_decomposition: SKIP (subspaces are not pairwise"
                f" orthogonal; defect {defect:.3e})",
            )
        )
    return entries


def _fusion_checks(family: WeightedSubspaceFamily, tol: float) -> list:
    """Run every check whose structural preconditions the family meets."""
    entries = [("run", fusion.verify_characterization(family, tol))]
    entries.extend(_projector_checks(family, tol))
    return entries


def _resolution_checks(family: OperatorFamily, tol: float) -> list:
    entries = [("run", resolution.verify_resolution(family, tol))]
    d = family.ambient_dim

    weighted = family.with_sum_mode(SumMode.WEIGHTED)
    _, _, w_resid = resolution.identity_sum_residual(weighted)
    if w_resid <= tol:
        report, induced = theorems.verify_induced_fusion_frame(weighted, tol)
        entries.append(("run", report))
        entries.append(
            ("run", theorems.verify_operator_family_sandwich(induced, weighted, tol))
        )
        entries.extend(_projector_checks(induced, tol))
    else:
        reason = (
            "SKIP (weighted operator sum misses the identity by"
            f" {w_resid:.3e})"
        )
        for name in (
            "induced_fusion_frame",
            "operator_family_sandwich",
            "projection_identity_frame",
            "orthogonal_decomposition",
        ):
            entries.append(("skip", f"{name}: {reason}"))

    raw = family.with_sum_mode(SumMode.RAW)
    _, _, r_resid = resolution.identity_sum_residual(raw)
    if r_resid <= tol:
        basis_seq = tuple(np.eye(d))
        entries.append(
            ("run", theorems.verify_induced_vector_frame(raw, basis_seq, tol))
        )
        ones = np.ones(d) / np.sqrt(d)
        for probe in (np.eye(d)[:, 0], ones):
            outcome = theorems.reconstruct_by_support(raw, probe)
            entries.append(("run", outcome.report))
    else:
        reason = f"SKIP (raw operator sum misses the identity by {r_resid:.3e})"
        for name in ("induced_vector_frame", "support_reconstruction"):
            entries.append(("skip", f"{name}: {reason}"))
    return entries


def cmd_verify(args) -> int:
    tol = _resolve_tol(args)
    targets = []
    if getattr(args, "scenario", None):
        targets.append(
            (args.scenario, instances.build_scenario(args.scenario, **_build_kwargs(args)))
        )
    for path in args.inputs:
        targets.append((path, serialize.loads_instance(_read(path))))
    if not targets:
        raise ValueError("need at least one input file or --scenario")

    reports = []
    all_ok = True
    for label, obj in targets:
        if len(targets) > 1:
            print(f"-- {label} --")
        if isinstance(obj, WeightedSubspaceFamily):
            entries = _fusion_checks(obj, tol)
        else:
            entries = _resolution_checks(obj, tol)
        for kind, item in entries:
            if kind == "skip":
                print(item)
            else:
                print(item.summary_line())
                reports.append(item)
                all_ok = all_ok and item.passed
    if args.out:
        _emit(serialize.dumps_reports(reports), args.out)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_perturb(args) -> int:
    tol = _resolve_tol(args)
    scenario = serialize.loads_perturbation_scenario(_read(args.scenario_file))
    basedir = os.path.dirname(os.path.abspath(args.scenario_file))

    def load_resolution(rel: str) -> OperatorFamily:
        path = rel if os.path.isabs(rel) else os.path.join(basedir, rel)
        obj = serialize.loads_instance(_read(path))
        if not isinstance(obj, OperatorFamily):
            raise ValueError(f"{path} does not hold a resolution")
        if obj.sum_mode is not SumMode.RAW:
            raise ValueError(
                f"{path}: perturbation checks need raw-mode resolutions"
            )
        return obj

    base = load_resolution(scenario["base"])
    perturbed = load_resolution(scenario["perturbed"])
    phi = serialize.sample_envelope(
        scenario["phi_spec"], base.points, base.natoms
    )
    params = PerturbationParams(scenario["lambda1"], scenario["lambda2"], phi)
    lam = scenario["lam"]

    reports = []
    reports.append(perturbation.check_perturbation(base, perturbed, params, tol))
    subset_report, _ = perturbation.verify_perturbed_sum(base, perturbed, lam, tol)
    reports.append(subset_report)
    resolution_report, _ = perturbation.verify_perturbed_resolution(
        base, perturbed, params, lam, tol
    )
    reports.append(resolution_report)
    for report in reports:
        print(report.summary_line())

    d_const = resolution.resolution_bounds(base).upper
    s_upper = resolution.resolution_bounds(perturbed).upper
    if s_upper <= d_const + tol:
        composite = perturbation.verify_composite_perturbation(
            base, perturbed, params, lam, tol
        )
        reports.append(composite)
        print(composite.summary_line())
    else:
        print(
            "composite_perturbation: SKIP (composing family exceeds the base"
            f" upper bound: {s_upper:.6g} > {d_const:.6g})"
        )

    if args.out:
        _emit(serialize.dumps_reports(reports), args.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def sweep_discretization(
    scenario: str, n_values, dim=None, atoms=None, seed=None
) -> list:
    """Frame bounds of a continuous scenario across refinement levels.

    Rows carry the bounds and, when the scenario registers a closed-form
    limit, the absolute errors against it.
    """
    entry = instances.get_scenario(scenario)
    if entry.kind != "continuous":
        raise ValueError(
            f"scenario {scenario!r} is already atomic; sweep needs a"
            " continuous family"
        )
    rows = []
    for n in n_values:
        fam = entry.build(dim=dim, atoms=atoms, seed=seed, n=int(n))
        bounds = fusion.frame_bounds(fam)
        row = {
            "n": int(n),
            "lower": bounds.lower,
            "upper": bounds.upper,
            "lower_error": None,
            "upper_error": None,
        }
        if entry.limit_bounds is not None:
            row["lower_error"] = abs(bounds.lower - entry.limit_bounds[0])
            row["upper_error"] = abs(bounds.upper - entry.limit_bounds[1])
        rows.append(row)
    return rows


def cmd_sweep(args) -> int:
    n_values = [int(part) for part in str(args.n).split(",") if part.strip()]
    if not n_values:
        raise ValueError(f"could not parse any level from --n {args.n!r}")
    rows = sweep_discretization(
        args.scenario, n_values, dim=args.dim, atoms=args.atoms, seed=args.seed
    )
    if args.format == "json":
        text = serialize.dumps_canonical({"scenario": args.scenario, "rows": rows})
    else:
        text = serialize.sweep_csv(rows)
    _emit(text, args.out)
    return EXIT_OK


def _add_instance_flags(sub, with_n=True):
    sub.add_argument("--dim", type=int, default=None)
    sub.add_argument("--atoms", type=int, default=None)
    sub.add_argument("--seed", type=int, default=None)
    if with_n:
        sub.add_argument("--n", default=None, help="refinement level")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framelab",
        description="discretize, analyze and verify frames of subspaces",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate a named instance as JSON")
    gen.add_argument("--scenario", required=True)
    _add_instance_flags(gen)
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=cmd_gen)

    disc = subs.add_parser("discretize", help="sample a continuous measure spec")
    disc.add_argument("input")
    disc.add_argument("--out", default=None)
    disc.set_defaults(func=cmd_discretize)

    analyze = subs.add_parser("analyze", help="frame or resolution bounds")
    analyze.add_argument("input", nargs="?", default=None)
    analyze.add_argument("--scenario", default=None)
    _add_instance_flags(analyze)
    analyze.add_argument("--format", choices=("json", "csv"), default="json")
    analyze.add_argument("--out", default=None)
    analyze.set_defaults(func=cmd_analyze)

    rec = subs.add_parser("reconstruct", help="invert the frame operator")
    rec.add_argument("input", nargs="?", default=None)
    rec.add_argument("--scenario", default=None)
    _add_instance_flags(rec)
    rec.add_argument("--vector", default=None, help="JSON list of coordinates")
    rec.add_argument("--tol", type=float, default=None)
    rec.add_argument("--out", default=None)
    rec.set_defaults(func=cmd_reconstruct)

    verify = subs.add_parser("verify", help="run the applicable checks")
    verify.add_argument("inputs", nargs="*", default=[])
    verify.add_argument("--scenario", default=None)
    _add_instance_flags(verify)
    verify.add_argument("--tol", type=float, default=None)
    verify.add_argument("--out", default=None)
    verify.set_defaults(func=cmd_verify)

    pert = subs.add_parser("perturb", help="perturbation checks from a scenario file")
    pert.add_argument("scenario_file")
    pert.add_argument("--tol", type=float, default=None)
    pert.add_argument("--out", default=None)
    pert.set_defaults(func=cmd_perturb)

    sweep = subs.add_parser("sweep", help="bounds across refinement levels")
    sweep.add_argument("--scenario", required=True)
    sweep.add_argument("--n", default="8,16,32,64")
    sweep.add_argument("--dim", type=int, default=None)
    sweep.add_argument("--atoms", type=int, default=None)
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--format", choices=("json", "csv"), default="csv")
    sweep.add_argument("--out", default=None)
    sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except np.linalg.LinAlgError as exc:
        # a subclass of ValueError, but a singular sum is not malformed input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except FrameLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
