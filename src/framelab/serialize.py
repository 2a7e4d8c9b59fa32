"""Canonical JSON and CSV forms for instances, measures and reports.

Numbers carry 17 significant digits, so every finite double survives a
round trip exactly, and key order is fixed by construction. Equal objects
therefore produce byte-identical text, which the round-trip tests pin. A
complex number is written as the pair [re, im]; a complex array therefore
reads back through a trailing pair axis.
"""
from __future__ import annotations

import json
import math
import warnings

import numpy as np

from .fusion import WeightedSubspaceFamily
from .hilbert import adjoint, range_bases, require_finite
from .measure import (
    DiscretizationScheme,
    ParameterSpace,
    WeightFunction,
    weight_from_spec,
)
from .resolution import OperatorFamily, SumMode

BASIS_KEEP_TOL = 1e-12
BASIS_WARN_TOL = 1e-8


def canonical_number(x) -> str:
    """Render a number with enough digits to reparse to the same double."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite number {x!r}")
    if x == 0.0:
        x = 0.0  # normalize away the sign of zero
    return format(x, ".17g")


def dumps_canonical(obj) -> str:
    """Deterministic JSON: insertion-ordered keys, 17-digit numbers."""
    return _render(obj) + "\n"


def _render(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (bool, int, float, np.integer, np.floating)):
        return canonical_number(obj)
    if isinstance(obj, np.ndarray):
        return _render(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_render(v) for v in obj) + "]"
    if isinstance(obj, dict):
        parts = []
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {k!r}")
            parts.append(json.dumps(k) + ": " + _render(v))
        return "{" + ", ".join(parts) + "}"
    if isinstance(obj, (complex, np.complexfloating)):
        return _render([obj.real, obj.imag])
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def _parse(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ValueError(f"{where} is missing required key {key!r}")
    return obj[key]


def dumps_fusion_family(family: WeightedSubspaceFamily) -> str:
    atoms = []
    for i, sub in enumerate(family.subspaces):
        atoms.append(
            {
                "point": family.points[i],
                "mass": family.masses[i],
                "weight": family.weights[i],
                "basis": sub.basis.T.tolist(),
            }
        )
    return dumps_canonical({"ambient_dim": family.ambient_dim, "atoms": atoms})


def _matrix(raw) -> np.ndarray:
    """A matrix from nested number lists; a third axis of length 2 holds [re, im] pairs."""
    mat = np.asarray(raw, dtype=float)
    if mat.ndim == 3 and mat.shape[-1] == 2:
        return mat.view(complex)[..., 0]
    return mat


def _basis_from_rows(rows, dim: int, where: str) -> np.ndarray:
    """One atom's d x r basis, re-orthonormalized when its rows drift past BASIS_KEEP_TOL."""
    mat = _matrix(rows)
    if mat.shape == (0,):  # a rank-0 atom
        mat = mat.reshape(0, dim)
    if mat.ndim != 2 or mat.shape[1] != dim:
        raise ValueError(
            f"{where}: basis must be a list of length-{dim} rows, got shape"
            f" {mat.shape}"
        )
    require_finite(mat, f"{where}: basis")
    deviation = float(np.abs(mat @ adjoint(mat) - np.eye(mat.shape[0])).max(initial=0.0))
    if deviation <= BASIS_KEEP_TOL:
        return mat.T
    if deviation > BASIS_WARN_TOL:
        warnings.warn(
            f"{where}: basis rows deviate from orthonormal by {deviation:.3e};"
            " re-orthonormalizing",
            stacklevel=2,
        )
    return range_bases(mat.T[None])[0]


def _family_from_obj(data: dict) -> WeightedSubspaceFamily:
    dim = int(_require(data, "ambient_dim", "fusion family"))
    raw_atoms = _require(data, "atoms", "fusion family")
    if not isinstance(raw_atoms, list) or not raw_atoms:
        raise ValueError("fusion family needs a nonempty atoms list")
    subs, weights, masses, points = [], [], [], []
    for i, atom in enumerate(raw_atoms):
        where = f"atom {i}"
        subs.append(_basis_from_rows(_require(atom, "basis", where), dim, where))
        weights.append(float(_require(atom, "weight", where)))
        masses.append(float(_require(atom, "mass", where)))
        points.append(_require(atom, "point", where))
    return WeightedSubspaceFamily(
        subspaces=tuple(subs),
        weights=np.asarray(weights),
        masses=np.asarray(masses),
        points=tuple(points),
    )


def loads_fusion_family(text: str) -> WeightedSubspaceFamily:
    return _family_from_obj(_parse(text))


def dumps_operator_family(family: OperatorFamily) -> str:
    atoms = [
        {
            "point": family.points[i],
            "mass": family.masses[i],
            "weight": family.weights[i],
        }
        for i in range(family.natoms)
    ]
    return dumps_canonical(
        {
            "ambient_dim": family.ambient_dim,
            "sum_mode": family.sum_mode.value,
            "atoms": atoms,
            "operators": family.operators.tolist(),
        }
    )


def _resolution_from_obj(data: dict) -> OperatorFamily:
    dim = int(_require(data, "ambient_dim", "resolution"))
    mode = SumMode(_require(data, "sum_mode", "resolution"))
    raw_atoms = _require(data, "atoms", "resolution")
    raw_ops = _require(data, "operators", "resolution")
    if not isinstance(raw_atoms, list) or not raw_atoms:
        raise ValueError("resolution needs a nonempty atoms list")
    if not isinstance(raw_ops, list) or len(raw_ops) != len(raw_atoms):
        raise ValueError(
            f"resolution has {len(raw_atoms)} atoms but"
            f" {len(raw_ops) if isinstance(raw_ops, list) else 'no'} operators"
        )
    operators = []
    for i, block in enumerate(raw_ops):
        mat = _matrix(block)
        if mat.shape != (dim, dim):
            raise ValueError(
                f"operator {i} must be {dim}x{dim}, got shape {mat.shape}"
            )
        operators.append(mat)
    weights, masses, points = [], [], []
    for i, atom in enumerate(raw_atoms):
        where = f"atom {i}"
        weights.append(float(_require(atom, "weight", where)))
        masses.append(float(_require(atom, "mass", where)))
        points.append(_require(atom, "point", where))
    return OperatorFamily(
        operators=tuple(operators),
        weights=np.asarray(weights),
        masses=np.asarray(masses),
        sum_mode=mode,
        points=tuple(points),
    )


def loads_operator_family(text: str) -> OperatorFamily:
    return _resolution_from_obj(_parse(text))


def dumps_instance(obj) -> str:
    if isinstance(obj, WeightedSubspaceFamily):
        return dumps_fusion_family(obj)
    if isinstance(obj, OperatorFamily):
        return dumps_operator_family(obj)
    raise TypeError(f"cannot serialize instance of type {type(obj).__name__}")


def loads_instance(text: str):
    """Dispatch on keys: operator blocks mean a resolution, bases a family."""
    data = _parse(text)
    if not isinstance(data, dict):
        raise ValueError("instance file must hold a JSON object")
    if "operators" in data or "sum_mode" in data:
        return _resolution_from_obj(data)
    if "atoms" in data:
        return _family_from_obj(data)
    raise ValueError(
        "unrecognized instance format: expected 'atoms' with bases or"
        " 'operators' blocks"
    )


def loads_measure_spec(text: str):
    """Parse a continuous-measure request.

    Returns (space, scheme, weight_function).
    """
    data = _parse(text)
    if not isinstance(data, dict):
        raise ValueError("measure spec must hold a JSON object")
    space_obj = _require(data, "space", "measure spec")
    kind = _require(space_obj, "kind", "space")
    if kind == "interval":
        space = ParameterSpace.interval(
            float(_require(space_obj, "a", "interval space")),
            float(_require(space_obj, "b", "interval space")),
        )
    elif kind == "circle":
        space = ParameterSpace.circle(
            period=float(space_obj.get("period", 2.0 * math.pi))
        )
    elif kind == "finite":
        space = ParameterSpace.finite(
            tuple(_require(space_obj, "labels", "finite space"))
        )
    else:
        raise ValueError(f"unknown space kind {kind!r}")
    scheme = DiscretizationScheme(
        str(data.get("rule", "midpoint")), int(data.get("n", 1))
    )
    weight = weight_from_spec(str(_require(data, "weight", "measure spec")))
    return space, scheme, weight


def dumps_discretization(measure, weights) -> str:
    values = np.asarray(weights, dtype=float)
    if values.shape != measure.points.shape:
        raise ValueError(
            f"{values.size} weights for {measure.natoms} atoms"
        )
    return dumps_canonical(
        {
            "points": measure.points.tolist(),
            "masses": measure.masses.tolist(),
            "weights": values.tolist(),
        }
    )


def loads_perturbation_scenario(text: str) -> dict:
    """Parse a scenario file into paths, constants and the envelope spec.

    Path resolution and file loading stay with the caller.
    """
    data = _parse(text)
    if not isinstance(data, dict):
        raise ValueError("perturbation scenario must hold a JSON object")
    phi_spec = str(data.get("phi", "const:0"))
    weight_from_spec(phi_spec)  # fail fast on malformed envelope specs
    return {
        "base": str(_require(data, "base", "perturbation scenario")),
        "perturbed": str(_require(data, "perturbed", "perturbation scenario")),
        "lam": float(_require(data, "lambda", "perturbation scenario")),
        "lambda1": float(data.get("lambda1", 0.0)),
        "lambda2": float(data.get("lambda2", 0.0)),
        "phi_spec": phi_spec,
    }


def sample_envelope(phi_spec: str, points, count: int) -> tuple:
    """Evaluate an envelope spec at the atom points, positionally for tables."""
    weight = weight_from_spec(phi_spec)
    if weight.table:
        if len(weight.table) != count:
            raise ValueError(
                f"envelope table has {len(weight.table)} entries for"
                f" {count} atoms"
            )
        return tuple(float(v) for v in weight.table)
    return tuple(float(weight(float(p))) for p in points)


def dumps_reports(reports) -> str:
    return dumps_canonical([r.to_dict() for r in reports])


def sweep_csv(rows) -> str:
    """Render sweep rows as CSV with the bound-error columns possibly empty."""
    lines = ["n,lower,upper,lower_error,upper_error"]
    for row in rows:
        fields = [str(int(row["n"]))]
        for key in ("lower", "upper", "lower_error", "upper_error"):
            value = row.get(key)
            fields.append("" if value is None else canonical_number(value))
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"
