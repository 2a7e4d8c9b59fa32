"""Operator families that resolve the identity over an atomic measure.

A family {T_i} with weights and masses resolves the identity when

  (a) measurability of x -> T_x f, vacuous over finitely many atoms,
  (b) the Gram form sum omega_i^2 mu_i ||T_i f||^2 is sandwiched between
      C ||f||^2 and D ||f||^2 with C > 0, and
  (c) the family sums to the identity: sum T_i f = f in RAW mode, or
      sum omega_i^2 mu_i T_i f = f in WEIGHTED mode.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import hilbert
from .errors import AtomMismatchError, DimensionMismatchError
from .hilbert import as_vector, require_finite
from .reports import VerificationReport

# T_i f is nonzero when its norm exceeds this fraction of ||f||.
SUPPORT_TOL = 1e-10

# Largest difference in weights or masses of two families that share their atoms.
ALIGN_TOL = 1e-12


class SumMode(enum.Enum):
    RAW = "raw"
    WEIGHTED = "weighted"


@dataclass(frozen=True, eq=False)
class OperatorFamily:
    """Finitely many operators with weights, masses and a summation mode.

    ``operators`` accepts any sequence of d x d matrices and is stored as
    one read-only (natoms, d, d) array; indexing, len and iteration see the
    individual operators. ``weights`` and ``masses`` are stored as read-only
    copies. Families compare and hash by identity.
    """

    operators: np.ndarray
    weights: np.ndarray
    masses: np.ndarray
    sum_mode: SumMode = SumMode.RAW
    points: tuple = ()

    def __post_init__(self):
        ops = _checked_operators(self.operators)
        w, m, pts = hilbert.atom_arrays(
            self.weights, self.masses, self.points, len(ops), "operators"
        )
        if not isinstance(self.sum_mode, SumMode):
            raise ValueError(f"sum_mode must be a SumMode, got {self.sum_mode!r}")
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "masses", m)
        object.__setattr__(self, "points", pts)

    @property
    def ambient_dim(self) -> int:
        return self.operators.shape[1]

    @property
    def natoms(self) -> int:
        return self.operators.shape[0]

    def gram_coefficients(self) -> np.ndarray:
        return hilbert.gram_coefficients(self.weights, self.masses)

    def sum_coefficients(self) -> np.ndarray:
        """Per-atom coefficient in the identity sum for the active mode."""
        if self.sum_mode is SumMode.RAW:
            return np.ones(self.natoms)
        return self.gram_coefficients()

    def identity_sum_matrix(self) -> np.ndarray:
        """sum_i c_i T_i: np.tensordot's product over the atoms, without its wrapper."""
        ops = self.operators
        total = np.dot(self.sum_coefficients()[None], ops.reshape(len(ops), -1))
        return total.reshape(ops.shape[1:])

    def operator_norms(self) -> np.ndarray:
        return hilbert.operator_norms(self.operators)

    def sup_norm(self) -> float:
        """Largest operator norm across the family."""
        return float(self.operator_norms().max())

    def with_sum_mode(self, mode: SumMode) -> "OperatorFamily":
        """This family in ``mode``; a new one shares its arrays and kept mode-free pieces."""
        if mode is self.sum_mode:
            return self
        if not isinstance(mode, SumMode):
            raise ValueError(f"sum_mode must be a SumMode, got {mode!r}")
        keep = ("operators", "weights", "masses", "points", "resolution_gram", "resolution_bounds")
        other = object.__new__(OperatorFamily)
        vars(other).update({k: v for k, v in vars(self).items() if k in keep}, sum_mode=mode)
        return other

    def with_operators(self, operators) -> "OperatorFamily":
        """A family of ``operators`` with this one's weights, masses, points and mode.

        Only the new operators are checked, as the constructor checks them;
        the read-only per-atom arrays are shared, and no kept piece is.
        """
        ops = _checked_operators(operators)
        if len(ops) != self.natoms:
            raise AtomMismatchError(
                f"{len(ops)} operators vs weights {self.weights.shape} "
                f"and masses {self.masses.shape}"
            )
        other = object.__new__(OperatorFamily)
        vars(other).update(
            operators=ops, weights=self.weights, masses=self.masses,
            sum_mode=self.sum_mode, points=self.points,
        )
        return other


def _checked_operators(operators) -> np.ndarray:
    """``operators`` as one read-only (natoms, d, d) float or complex array, checked finite."""
    if len(operators) == 0:
        raise ValueError("a family needs at least one operator")
    try:
        ops = np.array(operators)
    except ValueError:
        raise DimensionMismatchError("operators have different shapes") from None
    if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
        raise DimensionMismatchError(
            f"operators must be square matrices of one size, got stacked shape {ops.shape}"
        )
    ops = require_finite(ops.astype(np.result_type(float, ops.dtype), copy=False), "operators")
    ops.flags.writeable = False
    return ops


@hilbert.per_family
def resolution_gram(family: OperatorFamily) -> np.ndarray:
    """Gram operator M = sum omega_i^2 mu_i T_i* T_i (positive semidefinite)."""
    return hilbert.stacked_gram(family.operators, family.gram_coefficients())


@hilbert.per_family
def resolution_bounds(family: OperatorFamily) -> hilbert.SpectralBounds:
    return hilbert.spectral_bounds(resolution_gram(family))


def gram_sum(family: OperatorFamily, f) -> float:
    """Direct quadratic form sum omega_i^2 mu_i ||T_i f||^2."""
    images = family.operators @ as_vector(f, family.ambient_dim)
    return float(family.gram_coefficients() @ np.sum(np.abs(images) ** 2, axis=1))


def require_aligned(first, second, mode: SumMode | None) -> None:
    """AtomMismatchError unless two families share atom count, weights and masses.

    Given a ``mode``, also ValueError unless each operator family of the two
    sums in it; ``first`` may be a subspace family, which has no mode.
    """
    if first.natoms != second.natoms:
        raise AtomMismatchError(f"{first.natoms} atoms vs {second.natoms}")
    if np.abs(first.weights - second.weights).max() > ALIGN_TOL or (
        np.abs(first.masses - second.masses).max() > ALIGN_TOL
    ):
        raise AtomMismatchError("families must share weights and masses")
    if mode is not None and any(getattr(f, "sum_mode", mode) is not mode for f in (first, second)):
        raise ValueError(f"this check expects {mode.value}-mode operator families")


@hilbert.per_family
def identity_sum_residual(family: OperatorFamily):
    """Residuals of the identity sum: the largest on a basis vector, and in operator norm."""
    dev = np.eye(family.ambient_dim) - family.identity_sum_matrix()
    basis_residual = float(np.linalg.norm(dev, axis=0).max())
    return basis_residual, hilbert.operator_norm(dev)


def resolution_facts(family: OperatorFamily, tol: float):
    """(Gram bounds, identity residual, passed) as verify_resolution(family, tol) reports them.

    The residual is the largest on a basis vector, the report's
    identity_residual. Read from the per-family memos, with no report built
    and no operator norm taken.
    """
    bounds = resolution_bounds(family)
    basis_residual, operator_residual = identity_sum_residual(family)
    return bounds, basis_residual, bounds.is_positive() and operator_residual <= tol


def add_identity_sum_hypothesis(report, name: str, family, tol: float, detail: str = ""):
    """Add hypothesis ``name``: ||I - sum_i c_i T_i|| <= ``tol`` in operator norm.

    The residual is that operator-norm residual; the largest residual on a
    basis vector can be sqrt(d) times smaller, and a probe's smaller still.
    """
    _, op_res = identity_sum_residual(family)
    report.add_hypothesis(name, op_res <= tol, residual=op_res, detail=detail)


def verify_resolution(family: OperatorFamily, identity_tol: float = 1e-9) -> VerificationReport:
    """Check conditions (a), (b), (c) for a resolution of the identity.

    (a) is vacuously true at atomic resolution and recorded as such. (b)
    computes the Gram bounds spectrally and requires the lower one to clear
    POSITIVITY_REL_TOL times the upper. (c) is decided in operator norm;
    the largest residual on a canonical basis vector is recorded beside it.
    """
    report = VerificationReport(check_id="resolution_conditions")
    report.tolerances = {
        "identity_residual": identity_tol, "positivity_rel": hilbert.POSITIVITY_REL_TOL
    }
    report.add_hypothesis(
        "weak_measurability",
        True,
        detail="vacuously true for an atomic index set",
    )
    bounds = resolution_bounds(family)
    positive = bounds.is_positive()
    report.add_hypothesis(
        "gram_bounds_positive",
        positive,
        residual=bounds.lower,
        detail=f"gram_lower={bounds.lower:.6e}, gram_upper={bounds.upper:.6e}",
    )
    basis_res, op_res = identity_sum_residual(family)
    detail = f"mode={family.sum_mode.value}, operator_norm_residual={op_res:.3e}"
    add_identity_sum_hypothesis(report, "identity_sum", family, identity_tol, detail)
    report.constants = {
        "gram_lower": bounds.lower,
        "gram_upper": bounds.upper,
        "sup_norm": family.sup_norm(),
        "identity_residual": basis_res,
        "identity_operator_residual": op_res,
    }
    report.conclude(True)
    return report


def support(family: OperatorFamily, f) -> tuple:
    """Atoms where T_i f is nonzero relative to ||f||; empty for f = 0."""
    f = as_vector(f, family.ambient_dim)
    fnorm = float(np.linalg.norm(f))
    if fnorm == 0.0:
        return ()
    images = np.linalg.norm(family.operators @ f, axis=1)
    return tuple(np.flatnonzero(images > SUPPORT_TOL * fnorm).tolist())


def normalize_to_identity(family: OperatorFamily) -> OperatorFamily:
    """Post-multiply every operator by the inverse of the family sum.

    The returned family sums to the identity exactly in its own mode.
    Raises numpy.linalg.LinAlgError when the sum is singular.
    """
    inv = np.linalg.inv(family.identity_sum_matrix())
    return family.with_operators(family.operators @ inv)


def from_orthonormal_basis(dim: int = 4) -> OperatorFamily:
    """Rank-one coordinate family T_i = e_i e_i^T with unit weights and masses.

    Sums to the identity in RAW mode with Gram bounds exactly 1.
    """
    if dim < 1:
        raise ValueError(f"need dim >= 1, got {dim}")
    eye = np.eye(dim)
    ops = eye[:, :, None] * eye[:, None, :]
    return OperatorFamily(
        operators=ops,
        weights=np.ones(dim),
        masses=np.ones(dim),
        sum_mode=SumMode.RAW,
    )
