"""Weighted families of subspaces with atomic measures: frames of subspaces.

A family assigns each atom i a subspace W_i, a weight omega_i > 0 and a mass
mu_i > 0. The frame sum of a vector f is

    sum_i omega_i^2 * mu_i * ||P_i f||^2,

and the family is a frame when that sum is sandwiched between A ||f||^2 and
B ||f||^2 with A > 0. The representation space for coefficients is the
direct sum of the W_i with the mass weighted inner product
<phi, psi> = sum_i <phi_i, psi_i> mu_i.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import hilbert
from .errors import (
    AtomMismatchError,
    CoefficientError,
    DimensionMismatchError,
    NotAFrameError,
)
from .hilbert import Subspace, adjoint, as_vector, hermitian_part, require_finite
from .reports import VerificationReport


# Atoms of sequence input whose bases are checked together: bounds the
# batched U_i* U_i work to _CHECK_CHUNK zero-padded bases at a time.
_CHECK_CHUNK = 64


def _stack(subspaces):
    """The one pass over the input: (concatenated bases, ranks).

    Each atom is a ``Subspace`` or a d x r array. One (n, d, r) array is n
    atoms of rank r taken whole: its basis is one C-ordered copy, reshaped.
    The basis is C-ordered for a sequence of atoms too, whatever their
    layout (the loaders' atoms are transposed views), so a family's BLAS
    products round the same for the same entries.
    """
    if isinstance(subspaces, np.ndarray):
        n, d, r = subspaces.shape
        return subspaces.transpose(1, 0, 2).copy().reshape(d, n * r), np.full(n, r)
    bases = [a.basis if isinstance(a, Subspace) else np.asarray(a) for a in subspaces]
    flat = next((i for i, b in enumerate(bases) if b.ndim != 2), None)
    if flat is not None:
        raise DimensionMismatchError(
            f"atom {flat} basis must be 2-d, got shape {bases[flat].shape}"
        )
    dims = {b.shape[0] for b in bases}
    if len(dims) > 1:
        raise DimensionMismatchError(f"mixed ambient dimensions {sorted(dims)}")
    basis = np.ascontiguousarray(np.concatenate(bases, axis=1))
    return basis, np.array([b.shape[1] for b in bases])


def _padded(basis: np.ndarray, column_atom: np.ndarray, natoms: int) -> np.ndarray:
    """(natoms, d, max rank) stack: each atom's columns of ``basis``, zero-padded.

    ``column_atom`` numbers the atoms from 0. Families do not keep this stack.
    """
    ranks = np.bincount(column_atom, minlength=natoms)
    position = np.arange(column_atom.size) - np.repeat(np.cumsum(ranks) - ranks, ranks)
    out = np.zeros((natoms, basis.shape[0], ranks.max()), dtype=basis.dtype)
    out[column_atom, :, position] = basis.T
    return out


def _check_bases(basis: np.ndarray, column_atom: np.ndarray, ranks: np.ndarray, stack):
    """Every atom's basis is finite with orthonormal columns, checked over the stack.

    An (n, d, r) ``stack`` of equal-rank atoms is its own padded form, and
    its Gram, (n, r, r) with r <= d wherever the columns can be orthonormal,
    is no larger: it is checked in one call. Other input (``stack`` None) is
    checked on chunk-sized padded stacks, so the check adds little to the
    constructor's peak memory.
    """
    finite = np.isfinite(basis)
    if not finite.all():
        atom = int(column_atom[np.flatnonzero(~finite.all(axis=0))[0]])
        require_finite(basis[:, column_atom == atom], f"atom {atom} basis")
    step = ranks.size if stack is not None else _CHECK_CHUNK
    ends = np.cumsum(ranks)
    for lo in range(0, ranks.size, step):
        hi = min(lo + step, ranks.size)
        if stack is None:
            cols = slice(ends[lo] - ranks[lo], ends[hi - 1])
            chunk = _padded(basis[:, cols], column_atom[cols] - lo, hi - lo)
        else:
            chunk = stack
        defects = hilbert.orthonormality_defects(chunk, ranks[lo:hi])
        bad = np.flatnonzero(defects > hilbert.ORTHONORMAL_TOL)
        if bad.size:
            raise ValueError(
                f"atom {lo + int(bad[0])} basis columns not orthonormal"
                f" (deviation {defects[bad[0]]:.3e})"
            )


@dataclass(frozen=True, init=False, eq=False)
class WeightedSubspaceFamily:
    """Finitely many weighted subspaces over an atomic measure.

    The constructor takes ``subspaces``: each atom is a ``Subspace`` or a
    d x r array with orthonormal columns, or one (n, d, r) array holds n
    atoms of rank r. The atoms are checked once, together, as one stack; an
    (n, d, r) array is taken whole, as its own zero-padded form. The family
    stores them in one form: ``basis`` is the d x sum(ranks) concatenation
    of the orthonormal bases and ``column_atom[k]`` is the atom that column
    k of ``basis`` belongs to.
    Read back, ``subspaces`` is derived from ``basis`` on each read.
    ``weights`` and ``masses`` are stored as read-only copies. Families
    compare and hash by identity.
    """

    weights: np.ndarray
    masses: np.ndarray
    points: tuple
    basis: np.ndarray = field(repr=False, compare=False)
    column_atom: np.ndarray = field(repr=False, compare=False)

    def __init__(self, subspaces, weights, masses, points=()):
        stack = subspaces if isinstance(subspaces, np.ndarray) and subspaces.ndim == 3 else None
        subs = tuple(subspaces) if stack is None else stack
        if not len(subs):
            raise ValueError("a family needs at least one atom")
        w, m, pts = hilbert.atom_arrays(weights, masses, points, len(subs), "subspaces")
        basis, ranks = _stack(subs)
        if ranks.max() < 1:
            raise ValueError("at least one subspace must have rank >= 1")
        column_atom = np.repeat(np.arange(len(subs)), ranks)
        _check_bases(basis, column_atom, ranks, stack)
        for a in (basis, column_atom):
            a.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "masses", m)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "column_atom", column_atom)

    @property
    def subspaces(self) -> tuple:
        """One ``Subspace`` per atom, a view of its columns of ``basis``."""
        ranks = self.ranks
        ends = np.cumsum(ranks).tolist()
        return tuple(Subspace._trusted(self.basis[:, e - r : e]) for e, r in zip(ends, ranks))

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def natoms(self) -> int:
        return len(self.weights)

    @property
    def ranks(self) -> tuple:
        return tuple(np.bincount(self.column_atom, minlength=self.natoms).tolist())

    def projector_sum(self, coef) -> np.ndarray:
        """sum_i coef_i P_i, assembled as (U * coef[atom]) U* from the stacked basis."""
        u = self.basis
        return hermitian_part((u * np.asarray(coef)[self.column_atom]) @ adjoint(u))

    def gram_coefficients(self) -> np.ndarray:
        return hilbert.gram_coefficients(self.weights, self.masses)

    def projectors(self) -> np.ndarray:
        """The per-atom projectors P_i as one read-only (natoms, d, d) stack, built once."""
        return _projector_stack(self)

    def project(self, vectors) -> np.ndarray:
        """d x natoms matrix whose column i is P_i v_i, for the columns v_i of ``vectors``."""
        pad = _padded(self.basis, self.column_atom, self.natoms)
        coords = np.einsum("ajk,ja->ak", pad.conj(), vectors)
        return np.einsum("aik,ak->ia", pad, coords)

    @classmethod
    def from_atoms(cls, subspaces, weights, masses, points=None):
        """Build a family, silently excluding atoms whose weight is zero."""
        weights = np.asarray(weights, dtype=float)
        masses = np.asarray(masses, dtype=float)
        subspaces = tuple(subspaces)
        points = tuple(points) if points is not None else tuple(range(len(subspaces)))
        keep = weights != 0.0
        if not keep.all():
            subspaces = tuple(itertools.compress(subspaces, keep))
            points = tuple(itertools.compress(points, keep))
            weights = weights[keep]
            masses = masses[keep]
        return cls(subspaces=subspaces, weights=weights, masses=masses, points=points)


@dataclass(frozen=True)
class Coefficients:
    """Blocks phi_i in W_i under the mass weighted inner product.

    ``blocks`` is one (natoms, d) array whose row i is phi_i.
    """

    blocks: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        try:
            blocks = np.asarray(self.blocks)
        except ValueError:  # ragged rows
            blocks = None
        if blocks is None or blocks.ndim != 2:
            raise DimensionMismatchError("blocks must be vectors of one common dimension")
        blocks = require_finite(blocks, "blocks")
        m = require_finite(np.asarray(self.masses, dtype=float), "masses")
        if len(blocks) != m.shape[0]:
            raise AtomMismatchError(f"{len(blocks)} blocks vs {m.shape[0]} masses")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "masses", m)

    def norm2(self) -> float:
        return float(self.inner(self).real)

    def inner(self, other: "Coefficients"):
        if len(self.blocks) != len(other.blocks):
            raise AtomMismatchError("coefficient families have different atom counts")
        return self.masses @ np.sum(other.blocks.conj() * self.blocks, axis=1)


def analysis(family: WeightedSubspaceFamily, f) -> Coefficients:
    """Analysis map: f -> (omega_i * P_i f)_i."""
    f = as_vector(f, family.ambient_dim)
    copies = np.broadcast_to(f[:, None], (f.shape[0], family.natoms))
    projections = family.project(copies) * family.weights
    return Coefficients(blocks=projections.T, masses=family.masses)


def synthesis(family: WeightedSubspaceFamily, coeffs: Coefficients) -> np.ndarray:
    """Synthesis map, the adjoint of analysis: (phi_i) -> sum omega_i mu_i phi_i.

    Each block must lie in its subspace; a block sticking out beyond
    MEMBERSHIP_TOL (relative to its size) raises CoefficientError.
    """
    if len(coeffs.blocks) != family.natoms:
        raise AtomMismatchError(
            f"{len(coeffs.blocks)} blocks for {family.natoms} atoms"
        )
    blocks = coeffs.blocks.T
    if blocks.shape[0] != family.ambient_dim:
        raise DimensionMismatchError(
            f"blocks must be vectors of ambient dim {family.ambient_dim}"
        )
    stickout = np.linalg.norm(blocks - family.project(blocks), axis=0)
    limit = hilbert.MEMBERSHIP_TOL * np.maximum(1.0, np.linalg.norm(blocks, axis=0))
    bad = np.flatnonzero(stickout > limit)
    if bad.size:
        i = int(bad[0])
        raise CoefficientError(
            f"block {i} lies outside its subspace (deviation {stickout[i]:.3e})"
        )
    return blocks @ (family.weights * family.masses)


@hilbert.per_family
def _projector_stack(family: WeightedSubspaceFamily) -> np.ndarray:
    """WeightedSubspaceFamily.projectors: P_i = U_i U_i^* from the zero-padded bases."""
    pad = _padded(family.basis, family.column_atom, family.natoms)
    return pad @ adjoint(pad)


@hilbert.per_family
def frame_operator(family: WeightedSubspaceFamily) -> np.ndarray:
    """Assembled operator S = sum omega_i^2 mu_i P_i."""
    return family.projector_sum(family.gram_coefficients())


def apply_frame_operator(family: WeightedSubspaceFamily, f) -> np.ndarray:
    """S f computed from the stacked basis, without assembling S."""
    f = as_vector(f, family.ambient_dim)
    u = family.basis
    return u @ (family.gram_coefficients()[family.column_atom] * (adjoint(u) @ f))


def frame_sum(family: WeightedSubspaceFamily, f) -> float:
    """Direct quadratic form sum omega_i^2 mu_i ||P_i f||^2."""
    f = as_vector(f, family.ambient_dim)
    coords = adjoint(family.basis) @ f
    return float(family.gram_coefficients()[family.column_atom] @ np.abs(coords) ** 2)


@hilbert.per_family
def frame_bounds(family: WeightedSubspaceFamily) -> hilbert.SpectralBounds:
    """Optimal bounds: extreme eigenvalues of the frame operator."""
    return hilbert.spectral_bounds(frame_operator(family))


def synthesis_matrix(family: WeightedSubspaceFamily) -> np.ndarray:
    """Dense synthesis map from mass-weighted block coordinates to vectors.

    Stacking the blocks [omega_i sqrt(mu_i) U_i] makes the weighted
    coefficient space isometric to plain euclidean coordinates, so the
    largest singular value of this matrix is the synthesis operator norm.
    """
    scale = family.weights * np.sqrt(family.masses)
    return family.basis * scale[family.column_atom]


def verify_characterization(
    family: WeightedSubspaceFamily, tol: float = 1e-9
) -> VerificationReport:
    """Check the operator characterization of the frame property.

    The synthesis norm must equal sqrt(B); analysis is injective and
    synthesis surjective exactly when the lower bound A is positive. Both
    maps are judged by the SVD rank of T (T* has a trivial kernel and T is
    onto exactly when rank = d), the bound A by the eigenvalues of S, so the
    two hypotheses compare the SVD path against the eigh path.
    """
    report = VerificationReport(check_id="synthesis_characterization")
    report.tolerances = {"norm_match": tol}
    bounds = frame_bounds(family)
    t_mat = synthesis_matrix(family)
    svals = np.linalg.svd(t_mat, compute_uv=False)
    t_norm = float(svals[0])
    rank = int(np.count_nonzero(svals > hilbert.RANK_TOL * svals[0])) if svals.size else 0
    d = family.ambient_dim

    norm_gap = abs(t_norm - np.sqrt(max(bounds.upper, 0.0)))
    report.add_hypothesis(
        "synthesis_norm_equals_sqrt_upper", norm_gap <= tol, residual=norm_gap
    )

    lower_positive = bounds.is_positive()
    surjective = injective = rank == d
    report.add_hypothesis(
        "analysis_injective_iff_lower_positive",
        injective == lower_positive,
        detail=f"rank={rank}, injective={injective}, lower_positive={lower_positive}",
    )
    report.add_hypothesis(
        "synthesis_surjective_iff_lower_positive",
        surjective == lower_positive,
        detail=f"rank={rank}, ambient_dim={d}",
    )
    report.constants = {
        "lower": bounds.lower,
        "upper": bounds.upper,
        "synthesis_norm": t_norm,
        "synthesis_rank": float(rank),
    }
    if not lower_positive:
        report.notes.append("lower bound vanishes: family is not a frame")
    report.conclude(True)
    return report


@dataclass(frozen=True)
class Reconstruction:
    vector: np.ndarray
    residual: float
    bounds: hilbert.SpectralBounds


def reconstruct(family: WeightedSubspaceFamily, f) -> Reconstruction:
    """Invert the frame operator: f ~ sum omega_i^2 mu_i S^{-1} P_i f.

    The square weight omega^2 mu comes from folding the measure into the
    normalization of each subspace atom. Raises NotAFrameError when the
    lower bound is zero within POSITIVITY_REL_TOL of the upper bound. S is assembled
    once; one eigendecomposition gives both the bounds and the solve.
    """
    f = as_vector(f, family.ambient_dim)
    s_mat = frame_operator(family)
    eigh = hilbert.self_adjoint_eigh(s_mat)
    bounds = hilbert.SpectralBounds.of_spectrum(eigh[0])
    if not bounds.is_positive():
        raise NotAFrameError(
            f"family is not a frame (bounds {bounds.lower:.3e}, {bounds.upper:.3e})",
            lower=bounds.lower,
            upper=bounds.upper,
        )
    fhat = hilbert.solve_positive_eigh(s_mat, eigh, s_mat @ f)
    residual = float(np.linalg.norm(fhat - f)) / max(float(np.linalg.norm(f)), 1e-300)
    if float(np.linalg.norm(f)) == 0.0:
        residual = float(np.linalg.norm(fhat))
    return Reconstruction(vector=fhat, residual=residual, bounds=bounds)
