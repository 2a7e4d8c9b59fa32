"""Command line front end for generating, analyzing and verifying instances.

Exit codes: 0 when everything passes, 1 when a hypothesis or conclusion
check fails (a report is still emitted), 2 on unreadable or malformed
input, 3 on internal errors. FRAMELAB_TOL overrides the default tolerance
when --tol is absent.

Each command imports the framelab modules it runs inside its own function,
so a process loads only those.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .errors import FrameLabError, NotAFrameError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3

DEFAULT_TOL = 1e-9
TOL_ENV_VAR = "FRAMELAB_TOL"


def _tolerance(raw, source: str) -> float:
    """``raw`` as a tolerance in (0, 1), or a ValueError naming where it came from."""
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{source} must be a number, got {raw!r}") from None
    if not 0.0 < value < 1.0:
        raise ValueError(f"{source} must lie in (0, 1), got {value}")
    return value


def default_tolerance() -> float:
    raw = os.environ.get(TOL_ENV_VAR)
    return DEFAULT_TOL if raw is None else _tolerance(raw, TOL_ENV_VAR)


def _resolve_tol(args) -> float:
    tol = getattr(args, "tol", None)
    return default_tolerance() if tol is None else _tolerance(tol, "--tol")


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
    return {key: getattr(args, key, None) for key in ("dim", "atoms", "seed", "n")}


def _load_or_build(args):
    path = getattr(args, "input", None)
    scenario = getattr(args, "scenario", None)
    if path and scenario:
        raise ValueError("give either an input file or --scenario, not both")
    if path:
        from . import serialize

        return serialize.loads_instance(_read(path)), path
    if scenario:
        from . import instances

        return instances.build_scenario(scenario, **_build_kwargs(args)), scenario
    raise ValueError("need an input file or --scenario")


def cmd_gen(args) -> int:
    from . import instances, serialize

    obj = instances.build_scenario(args.scenario, **_build_kwargs(args))
    _emit(serialize.dumps_instance(obj), args.out)
    return EXIT_OK


def cmd_discretize(args) -> int:
    from . import measure, serialize

    space, scheme, weight = serialize.loads_measure_spec(_read(args.input))
    meas = measure.discretize(space, scheme)
    sampled = measure.sample_weights(weight, meas)
    if sampled.zero_atoms:
        print(
            f"note: {len(sampled.zero_atoms)} atoms carry zero weight",
            file=sys.stderr,
        )
    _emit(serialize.dumps_discretization(meas, sampled.values), args.out)
    return EXIT_OK


def _bounds_summary(obj) -> dict:
    from . import fusion, resolution

    if isinstance(obj, fusion.WeightedSubspaceFamily):
        bounds = fusion.frame_bounds(obj)
        kind = "fusion_frame"
        extra = {}
    else:
        bounds = resolution.resolution_bounds(obj)
        kind = "resolution"
        extra = {"sup_norm": obj.sup_norm(), "sum_mode": obj.sum_mode.value}
    condition = bounds.condition() if bounds.lower > 0 else None
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
    from . import serialize

    obj, _ = _load_or_build(args)
    summary = _bounds_summary(obj)
    if args.format == "csv":
        text = serialize.dumps_csv(("lower", "upper", "condition"), [summary])
    else:
        text = serialize.dumps_canonical(summary)
    _emit(text, args.out)
    return EXIT_OK


def _probe_vector(args, dim: int) -> np.ndarray:
    from . import hilbert
    from .serialize import _number

    raw = getattr(args, "vector", None)
    if raw is not None:
        try:
            entries = json.loads(raw)
            if not isinstance(entries, list):
                raise ValueError(f"got {raw}")
            vec = np.array([_number(v, f"--vector entry {i}") for i, v in enumerate(entries)])
        except ValueError as exc:
            raise ValueError(f"--vector must be a JSON list of numbers: {exc}") from None
        vec = hilbert.require_finite(vec, "--vector")
        if len(vec) != dim:
            raise ValueError(f"--vector must have {dim} entries, got {len(vec)}")
        return vec
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be at least 0, got {args.seed}")
    rng = np.random.default_rng(args.seed or 0)
    vec = rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def cmd_reconstruct(args) -> int:
    from . import fusion, resolution, serialize

    tol = _resolve_tol(args)
    obj, _ = _load_or_build(args)
    f = _probe_vector(args, obj.ambient_dim)
    if isinstance(obj, fusion.WeightedSubspaceFamily):
        try:
            rec = fusion.reconstruct(obj, f)
        except NotAFrameError as exc:
            print(f"reconstruction failed: {exc}", file=sys.stderr)
            return EXIT_CHECK_FAILED
        result = {"residual": rec.residual, "lower": rec.bounds.lower, "upper": rec.bounds.upper}
        field, vector, passed = obj.basis.dtype, rec.vector, rec.residual <= max(tol, 1e-8)
    elif obj.sum_mode is resolution.SumMode.RAW:
        from . import theorems

        rec = theorems.reconstruct_by_support(obj, f)
        print(rec.report.summary_line())
        result = {"report": rec.report.to_dict()}
        field, vector, passed = obj.operators.dtype, rec.inverse_first, rec.report.passed
    else:
        raise ValueError("reconstruct needs a fusion family or a raw-mode resolution")
    # both vectors in the family's field, so a complex family writes [re, im] pairs
    result["vector"] = f.astype(field).tolist()
    result["reconstructed"] = None if vector is None else vector.astype(field).tolist()
    _emit(serialize.dumps_canonical(result), args.out)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _gated(names, reason: str, value: float, limit: float, checks):
    """``checks()`` when ``value`` is at most ``limit``, else one SKIP line per name."""
    if value <= limit:
        return checks()
    return [f"{name}: SKIP ({reason} {value:.3e})" for name in names]


def _projector_checks(family, tol: float):
    """Gated checks on a fusion family's projector sums: each yields a report or a SKIP line."""
    from . import theorems

    yield from _gated(
        ["projection_identity_frame"], "first-power projector sum misses the identity by",
        theorems.first_power_residual(family), theorems.first_power_limit(family, tol),
        lambda: [theorems.verify_frame_from_projection_identity(family, tol)],
    )
    yield from _gated(
        ["orthogonal_decomposition"], "subspaces are not pairwise orthogonal; defect",
        theorems.orthogonality_defect(family), theorems.ORTHOGONALITY_TOL,
        lambda: [theorems.verify_orthogonal_decomposition(family, tol)],
    )


def _resolution_checks(family, tol: float):
    from . import resolution, theorems

    yield resolution.verify_resolution(family, tol)
    d = family.ambient_dim
    weighted = family.with_sum_mode(resolution.SumMode.WEIGHTED)
    raw = family.with_sum_mode(resolution.SumMode.RAW)

    def induced_checks():
        report, induced = theorems.verify_induced_fusion_frame(weighted, tol)
        yield report
        yield theorems.verify_operator_family_sandwich(induced, weighted, tol)
        yield from _projector_checks(induced, tol)

    def vector_checks():
        yield theorems.verify_induced_vector_frame(raw, tuple(np.eye(d)), tol)
        for probe in (np.eye(d)[:, 0], np.ones(d) / np.sqrt(d)):
            yield theorems.reconstruct_by_support(raw, probe).report

    yield from _gated(
        ["induced_fusion_frame", "operator_family_sandwich",
         "projection_identity_frame", "orthogonal_decomposition"],
        "weighted operator sum misses the identity by",
        resolution.identity_sum_residual(weighted)[1], tol, induced_checks,
    )
    yield from _gated(
        ["induced_vector_frame", "support_reconstruction"],
        "raw operator sum misses the identity by",
        resolution.identity_sum_residual(raw)[1], tol, vector_checks,
    )


def _print_items(items, out) -> int:
    """Print the items, a report as its summary line; write the reports to ``out``; exit 0 or 1."""
    from . import serialize

    reports = [item for item in items if not isinstance(item, str)]
    for item in items:
        print(item if isinstance(item, str) else item.summary_line())
    if out:
        _emit(serialize.dumps_reports(reports), out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def cmd_verify(args) -> int:
    from . import fusion, serialize

    tol = _resolve_tol(args)
    targets = []
    if getattr(args, "scenario", None):
        from . import instances

        targets.append(
            (args.scenario, instances.build_scenario(args.scenario, **_build_kwargs(args)))
        )
    for path in args.inputs:
        targets.append((path, serialize.loads_instance(_read(path))))
    if not targets:
        raise ValueError("need at least one input file or --scenario")

    # every check runs before the first line is printed, so a check that
    # raises leaves stdout empty
    items = []
    for label, obj in targets:
        if len(targets) > 1:
            items.append(f"-- {label} --")
        if isinstance(obj, fusion.WeightedSubspaceFamily):
            items.append(fusion.verify_characterization(obj, tol))
            items.extend(_projector_checks(obj, tol))
        else:
            items.extend(_resolution_checks(obj, tol))
    return _print_items(items, args.out)


def cmd_perturb(args) -> int:
    from . import perturbation, resolution, serialize

    tol = _resolve_tol(args)
    scenario = serialize.loads_perturbation_scenario(_read(args.scenario_file))
    basedir = os.path.dirname(os.path.abspath(args.scenario_file))

    def load_resolution(rel: str):
        path = rel if os.path.isabs(rel) else os.path.join(basedir, rel)
        obj = serialize.loads_instance(_read(path))
        if not isinstance(obj, resolution.OperatorFamily):
            raise ValueError(f"{path} does not hold a resolution")
        if obj.sum_mode is not resolution.SumMode.RAW:
            raise ValueError(
                f"{path}: perturbation checks need raw-mode resolutions"
            )
        return obj

    base = load_resolution(scenario["base"])
    perturbed = load_resolution(scenario["perturbed"])
    phi = serialize.sample_envelope(scenario["phi_spec"], base.points)
    params = perturbation.PerturbationParams(scenario["lambda1"], scenario["lambda2"], phi)
    lam = scenario["lam"]

    *items, composite = perturbation.perturbation_reports(base, perturbed, params, lam, tol)
    if composite is None:
        constants = items[-1].constants
        composite = (
            "composite_perturbation: SKIP (composing family exceeds the base upper bound:"
            f" {constants['perturbed_upper']:.6g} > {constants['gram_upper']:.6g})"
        )
    return _print_items([*items, composite], args.out)


def sweep_discretization(
    scenario: str, n_values, dim=None, atoms=None, seed=None
) -> list:
    """Frame bounds of a continuous scenario across refinement levels.

    Rows carry the bounds and, when the scenario registers a closed-form
    limit, the absolute errors against it.
    """
    from . import fusion, instances

    entry = instances.get_scenario(scenario)
    if not entry.continuous:
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
    from . import serialize

    try:
        n_values = [int(part) for part in str(args.n).split(",") if part.strip()]
    except ValueError:
        raise ValueError(
            f"--n must be a comma-separated list of integers, got {args.n!r}"
        ) from None
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
        sub.add_argument("--n", type=int, default=None, help="refinement level")


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
    _add_instance_flags(sweep, with_n=False)
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
        # an overflow surfaces as a non-finite entry, which the checks name
        with np.errstate(all="ignore"):
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
