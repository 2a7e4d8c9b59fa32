"""Finite dimensional Hilbert space primitives.

Vectors and operators are plain numpy arrays (real or complex). A Subspace
wraps a matrix with orthonormal columns and owns projection onto its range.
Everything here is deterministic for a fixed input.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    AtomMismatchError,
    DimensionMismatchError,
    NotPositiveDefiniteError,
    NotSelfAdjointError,
)

# Rank decisions in orthonormalization: singular values below
# RANK_TOL * sigma_max are treated as zero.
RANK_TOL = 1e-12

# Largest entry of |U* U - I| a basis U may show and still count as orthonormal.
ORTHONORMAL_TOL = 1e-10

# Largest entry of |A - A*|, relative to max(1, largest entry), of a self-adjoint A.
SELF_ADJOINT_RTOL = 1e-12

# Largest ||f - P f||, relative to max(1, ||f||), of a vector f in a subspace.
MEMBERSHIP_TOL = 1e-10

# A lower spectral bound is positive when it exceeds this fraction of the upper one.
POSITIVITY_REL_TOL = 1e-10


def as_vector(f, dim: int | None = None) -> np.ndarray:
    """``f`` as a finite 1-d array; given ``dim``, DimensionMismatchError unless it has that length."""
    f = np.asarray(f)
    if f.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-d vector, got shape {f.shape}")
    if dim is not None and f.shape[0] != dim:
        raise DimensionMismatchError(f"vector of dim {f.shape[0]} vs ambient dim {dim}")
    return require_finite(f, "vector")


def inner(f, g):
    """Inner product, linear in the first argument."""
    f = as_vector(f)
    return np.vdot(as_vector(g, f.shape[0]), f)


def norm(f) -> float:
    return float(np.linalg.norm(as_vector(f)))


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes, so a stack maps matrix by matrix."""
    return np.swapaxes(np.asarray(a).conj(), -1, -2)


def operator_norms(a: np.ndarray) -> np.ndarray:
    """Largest singular value of a matrix, or of each matrix of a stack.

    The same LAPACK call as ``np.linalg.norm(a, 2)`` (or ``axis=(1, 2)``),
    so the values are the same bits, without that function's axis handling.
    """
    return np.linalg.svd(a, compute_uv=False)[..., 0]


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    return float(operator_norms(a))


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A*) / 2: strips float noise so eigh sees an exactly hermitian matrix."""
    return (a + adjoint(a)) / 2.0


def require_finite(a, what: str) -> np.ndarray:
    """Return ``a`` as an array, or raise ValueError naming its first non-finite entry."""
    a = np.asarray(a)
    if np.isfinite(a).all():
        return a
    if a.ndim == 0:
        raise ValueError(f"{what} is not finite ({a})")
    index = tuple(int(i) for i in np.argwhere(~np.isfinite(a))[0])
    where = index[0] if len(index) == 1 else index
    raise ValueError(f"{what} entry {where} is not finite ({a[index]})")


def atom_arrays(weights, masses, points, natoms: int, what: str):
    """The per-atom data of a family of ``natoms`` ``what``: (weights, masses, points).

    Weights and masses become read-only copies, finite and strictly positive
    floats of shape (natoms,); empty ``points`` default to 0, ..., natoms - 1.
    """
    w = require_finite(np.array(weights, dtype=float), "weights")
    m = require_finite(np.array(masses, dtype=float), "masses")
    if w.shape != (natoms,) or m.shape != (natoms,):
        raise AtomMismatchError(f"{natoms} {what} vs weights {w.shape} and masses {m.shape}")
    for name, a in (("weights", w), ("masses", m)):
        if not np.all(a > 0):
            raise ValueError(f"{name} must be strictly positive")
        a.flags.writeable = False
    pts = tuple(points) if points else tuple(range(natoms))
    if len(pts) != natoms:
        raise AtomMismatchError(f"{len(pts)} points for {natoms} atoms")
    return w, m, pts


def gram_coefficients(weights, masses) -> np.ndarray:
    """Per-atom coefficient omega_i^2 mu_i of frame and Gram sums."""
    return weights**2 * masses


def stacked_gram(stack: np.ndarray, coef) -> np.ndarray:
    """Hermitian sum of coef_i A_i* A_i over a stack of matrices of shape (n, k, d).

    ``coef`` is real, so the one scaled copy is conjugated in place:
    conj(c a) = c conj(a) exactly. The product is the one np.tensordot
    makes over axes (0, 1), on the same operands, without its wrapper.
    """
    d = stack.shape[-1]
    scaled = stack * np.asarray(coef)[:, None, None]
    if np.iscomplexobj(scaled):
        np.conjugate(scaled, out=scaled)
    return hermitian_part(np.dot(scaled.transpose(2, 0, 1).reshape(d, -1), stack.reshape(-1, d)))


def quadratic_forms(a: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Real parts of <A p, p> for every column p of ``vectors``."""
    return np.einsum("ij,ij->j", vectors.conj(), a @ vectors).real


def orthonormality_defects(padded: np.ndarray, ranks) -> np.ndarray:
    """max |U_i* U_i - I| for each basis U_i of a stack zero-padded past its rank r_i."""
    gram = adjoint(padded) @ padded
    k = np.arange(gram.shape[-1])
    gram[:, k, k] -= k < np.asarray(ranks)[:, None]
    return np.abs(gram).max(axis=(1, 2), initial=0.0)


def per_family(fn):
    """Decorate ``fn(family)`` to run once per family, kept in its ``__dict__`` by name.

    Families are frozen, keep read-only arrays and compare by identity, so a
    kept result cannot go stale. An array result is made read-only.
    """
    @functools.wraps(fn)
    def kept(family):
        memo = vars(family)
        if fn.__name__ not in memo:
            value = memo[fn.__name__] = fn(family)
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        return memo[fn.__name__]
    return kept


def is_self_adjoint(a: np.ndarray) -> bool:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    return float(np.abs(a - adjoint(a)).max(initial=0.0)) <= SELF_ADJOINT_RTOL * scale


@dataclass(frozen=True)
class Subspace:
    """A subspace of C^d or R^d given by a matrix with orthonormal columns.

    ``basis`` has shape (ambient_dim, rank); rank 0 (the zero subspace) is a
    legal value with an empty second axis.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis)
        if b.ndim != 2:
            raise DimensionMismatchError(f"basis must be 2-d, got shape {b.shape}")
        require_finite(b, "basis")
        object.__setattr__(self, "basis", b)
        dev = float(orthonormality_defects(b[None], [b.shape[1]])[0])
        if dev > ORTHONORMAL_TOL:
            raise ValueError(f"basis columns not orthonormal (deviation {dev:.3e})")

    @classmethod
    def _trusted(cls, basis: np.ndarray) -> "Subspace":
        """Wrap a basis that already passed these checks as part of a stack."""
        sub = object.__new__(cls)
        object.__setattr__(sub, "basis", basis)
        return sub

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ adjoint(self.basis)

    def project(self, f) -> np.ndarray:
        f = as_vector(f, self.ambient_dim)
        if not self.rank:
            return np.zeros_like(f)
        return self.basis @ (adjoint(self.basis) @ f)

    def contains(self, f) -> bool:
        return norm(f - self.project(f)) <= MEMBERSHIP_TOL * max(1.0, norm(f))


def orthonormal_basis(vectors, ambient_dim: int | None = None) -> Subspace:
    """Orthonormal basis of the span of ``vectors`` via SVD rank truncation.

    ``vectors`` is an iterable of finite 1-d arrays (or a 2-d array whose rows
    span the subspace). An empty collection yields the zero subspace, which
    needs ``ambient_dim`` to fix the ambient space.
    """
    rows = [as_vector(v) for v in vectors]
    if not rows:
        if ambient_dim is None:
            raise ValueError("empty span needs an explicit ambient_dim")
        return Subspace(np.zeros((ambient_dim, 0)))
    dims = {r.shape[0] for r in rows}
    if len(dims) != 1:
        raise DimensionMismatchError(f"mixed vector dimensions {sorted(dims)}")
    a = np.stack(rows, axis=1)  # columns span the subspace
    return Subspace(range_bases(a[None])[0])


def column_space(a: np.ndarray) -> Subspace:
    """Orthonormal basis of the range of a finite matrix."""
    a = require_finite(a, "matrix")
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got shape {a.shape}")
    return Subspace(range_bases(a[None])[0])


def range_bases(stack: np.ndarray) -> list:
    """Orthonormal bases of the ranges of a stack of matrices, from one batched SVD.

    Singular values at or below RANK_TOL times the largest one count as zero.
    Each basis is a copy of its kept columns, so the full U stack is freed.
    """
    u, s, _ = np.linalg.svd(stack, full_matrices=False)
    ranks = np.count_nonzero(s > RANK_TOL * s[..., :1], axis=-1)
    return [u[i, :, :r].copy() for i, r in enumerate(ranks.tolist())]


def self_adjoint_eigh(a: np.ndarray):
    """Eigendecomposition of a self-adjoint matrix, eigenvalues ascending.

    Raises ValueError when an entry is not finite (a sum of large finite
    entries can overflow), and NotSelfAdjointError when the input is not
    self-adjoint within SELF_ADJOINT_RTOL relative to its largest entry.
    """
    a = require_finite(a, "assembled matrix")
    if not is_self_adjoint(a):
        raise NotSelfAdjointError("matrix is not self-adjoint within tolerance")
    return np.linalg.eigh(a)


def rounding_allowance(dim: int) -> float:
    """8 d^2 eps: the relative rounding allowed an eigensolve of a d x d hermitian matrix."""
    return 8.0 * dim * dim * np.finfo(float).eps


def self_adjoint_spectrum(a: np.ndarray) -> np.ndarray:
    """Real spectrum of a self-adjoint matrix, ascending."""
    return self_adjoint_eigh(a)[0]


@dataclass(frozen=True)
class SpectralBounds:
    """The extreme eigenvalues of a positive operator: a frame's or a resolution's bounds."""

    lower: float
    upper: float

    @classmethod
    def of_spectrum(cls, spectrum) -> "SpectralBounds":
        """The first and last entries of an ascending spectrum."""
        return cls(lower=float(spectrum[0]), upper=float(spectrum[-1]))

    def is_positive(self) -> bool:
        """The lower bound exceeds POSITIVITY_REL_TOL times the upper one."""
        return self.lower > POSITIVITY_REL_TOL * max(self.upper, 0.0)

    def condition(self) -> float:
        """upper / lower, or inf when the lower bound is not positive."""
        return self.upper / self.lower if self.lower > 0 else float("inf")


def spectral_bounds(a: np.ndarray) -> SpectralBounds:
    """The bounds of a self-adjoint matrix: its extreme eigenvalues."""
    return SpectralBounds.of_spectrum(self_adjoint_spectrum(a))


# Distinct (dim, count) pairs whose seed-0 probes are kept. The checks'
# probe counts are 2000 and 1000, so dims 2-8 need 14 pairs;
# one pair at dim 8 and 2000 probes holds 128 KB.
_PROBE_CACHE_SIZE = 32


def unit_probes(dim: int, count: int, rng=None) -> np.ndarray:
    """Columns are random unit vectors from a seeded generator (seed 0 default).

    With ``rng=None`` the result is one shared read-only array per
    ``(dim, count)``, equal to a fresh ``default_rng(0)`` draw. A passed
    generator is drawn from, and advanced, on every call.
    """
    if rng is None:
        return _seed0_probes(dim, count)
    p = rng.standard_normal((dim, count))
    p /= np.linalg.norm(p, axis=0)
    return p


@functools.lru_cache(maxsize=_PROBE_CACHE_SIZE)
def _seed0_probes(dim: int, count: int) -> np.ndarray:
    p = unit_probes(dim, count, np.random.default_rng(0))
    p.flags.writeable = False
    return p


@functools.lru_cache(maxsize=_PROBE_CACHE_SIZE)
def basis_and_probes(dim: int, count: int) -> np.ndarray:
    """[I | unit_probes(dim, count)]: the canonical basis, then the seed-0 probes.

    One shared read-only array per ``(dim, count)``.
    """
    p = np.hstack([np.eye(dim), _seed0_probes(dim, count)])
    p.flags.writeable = False
    return p


def solve_positive(a: np.ndarray, f) -> np.ndarray:
    """Solve A x = f for self-adjoint positive definite A.

    Uses an eigendecomposition plus one step of iterative refinement, which
    keeps the relative residual near machine precision for condition numbers
    up to about 1e6. Raises NotPositiveDefiniteError (carrying lambda_min)
    when the smallest eigenvalue does not clear RANK_TOL times the largest.
    """
    return solve_positive_eigh(a, self_adjoint_eigh(a), f)


def solve_positive_eigh(a: np.ndarray, eigh, f) -> np.ndarray:
    """solve_positive with the eigendecomposition ``eigh = (w, v)`` of A already at hand."""
    w, v = eigh
    f = as_vector(f, w.shape[0])
    bounds = SpectralBounds.of_spectrum(w)
    if bounds.lower <= RANK_TOL * max(bounds.upper, 0.0) or bounds.upper <= 0.0:
        raise NotPositiveDefiniteError(
            f"matrix is singular or indefinite (lambda_min={bounds.lower:.6e})",
            lambda_min=bounds.lower,
        )
    def apply_inverse(y):
        return v @ ((adjoint(v) @ y) / w)

    x = apply_inverse(f)
    x = x + apply_inverse(f - a @ x)
    return x
