"""Stability of operator resolutions under pointwise and subset perturbations."""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import hilbert, resolution
from .errors import AtomMismatchError
from .hilbert import adjoint
from .reports import VerificationReport
from .resolution import OperatorFamily, SumMode

# Random unit probes of the closeness inequalities, on the atoms no
# certificate proves, and of the composite lower bound.
CLOSENESS_PROBES = 2000
BOUND_PROBES = 1000

# Smallest scaled subset margin that still counts as domination.
CERTIFICATE_FLOOR = 1e-10

# A perturbed sum is normalized only when sigma_min > SINGULAR_CUT max(1, sigma_max).
SINGULAR_CUT = 1e-12


@dataclass(frozen=True)
class PerturbationParams:
    """Pointwise closeness parameters (lambda1, lambda2, per-atom phi).

    The inequality controlled by these parameters compares weighted images
    atom by atom:

        ||w T f - w S f|| <= lambda1 ||w T f|| + lambda2 ||w S f|| + phi ||f||

    lambda2 must stay below 1 so the perturbed bounds remain finite.
    """

    lambda1: float
    lambda2: float
    phi: tuple

    def __post_init__(self):
        hilbert.require_finite(self.lambda1, "lambda1")
        hilbert.require_finite(self.lambda2, "lambda2")
        if not 0.0 <= self.lambda1:
            raise ValueError(f"lambda1 must be nonnegative, got {self.lambda1}")
        if not 0.0 <= self.lambda2 < 1.0:
            raise ValueError(f"lambda2 must lie in [0, 1), got {self.lambda2}")
        phi = hilbert.require_finite(np.asarray(self.phi, dtype=float), "phi")
        if np.any(phi < 0.0):
            raise ValueError("phi entries must be nonnegative")
        object.__setattr__(self, "phi", tuple(phi.tolist()))

    @classmethod
    def uniform(cls, lambda1: float, lambda2: float, phi: float, natoms: int):
        return cls(lambda1, lambda2, (float(phi),) * natoms)

    def phi_l2(self, masses) -> float:
        """Mass-weighted l2 size of the additive envelope."""
        phi = np.asarray(self.phi)
        return float(np.sqrt(np.sum(phi * phi * np.asarray(masses))))


def predicted_interval(
    gram_lower: float,
    gram_upper: float,
    params: PerturbationParams,
    phi_l2: float,
    sum_sigma_min: float = 1.0,
    sum_sigma_max: float = 1.0,
) -> tuple:
    """Predicted Gram interval for a normalized pointwise-perturbed family.

    The raw sandwich

        ((1 - l1) sqrt(C) - phi)^2 / (1 + l2)^2
        ... ((1 + l1) sqrt(D) + phi)^2 / (1 - l2)^2

    is rescaled by the reciprocal extreme singular values of the perturbed
    sum, since normalizing composes every operator with its inverse.
    """
    lo = (1.0 - params.lambda1) * np.sqrt(max(gram_lower, 0.0)) - phi_l2
    hi = (1.0 + params.lambda1) * np.sqrt(max(gram_upper, 0.0)) + phi_l2
    raw_lower = (max(lo, 0.0) / (1.0 + params.lambda2)) ** 2
    raw_upper = (hi / (1.0 - params.lambda2)) ** 2
    return (
        raw_lower / sum_sigma_max**2 if sum_sigma_max > 0 else float("inf"),
        raw_upper / sum_sigma_min**2 if sum_sigma_min > 0 else float("inf"),
    )


def _require_aligned(base, other, params: PerturbationParams, mode: SumMode | None):
    """resolution.require_aligned, and one phi entry per atom."""
    resolution.require_aligned(base, other, mode)
    if len(params.phi) != base.natoms:
        raise AtomMismatchError(f"phi has {len(params.phi)} entries for {base.natoms} atoms")


def check_perturbation(
    base: OperatorFamily,
    perturbed: OperatorFamily,
    params: PerturbationParams,
    tol: float = 1e-9,
) -> VerificationReport:
    """Decide the pointwise closeness inequality atom by atom.

    Each atom is proved for every vector by a certificate where one holds,
    the singular-value certificate

        sigma_max(w(T - S)) <= lambda1 sigma_min(wT) + lambda2 sigma_min(wS) + phi,

    or else the sharper Loewner certificate of _closeness; the canonical
    basis plus random unit probes decide only the atoms neither proves.
    The notes count the atoms each tier decided.
    """
    _require_aligned(base, perturbed, params, None)
    report = VerificationReport(check_id="pointwise_perturbation")
    report.tolerances = {"probe_margin": tol}
    probes = hilbert.basis_and_probes(base.ambient_dim, CLOSENESS_PROBES)
    w, t, s = base.weights[:, None, None], base.operators, perturbed.operators
    margins, note = _closeness(w * (t - s), w * t, w * s, params, probes, tol)
    report.add_hypothesis("atoms_aligned", True)
    report.constants = {
        **margins,
        "lambda1": params.lambda1,
        "lambda2": params.lambda2,
        "phi_l2": params.phi_l2(base.masses),
    }
    report.notes.append(note)
    report.conclude(margins["probe_margin"] <= tol)
    return report


# Probe columns imaged at once by _probe_margin; bounds its buffer of
# images to 3 natoms x d x _PROBE_CHUNK entries.
_PROBE_CHUNK = 256

# What decides each atom of a closeness check, in the order tried.
_TIERS = ("singular-value certificate", "Loewner certificate", "probes")


def _closeness(x, y, z, params: PerturbationParams, probes: np.ndarray, tol: float):
    """(margins, note) of a closeness inequality, for every atom i:

        ||X_i f|| <= lambda1 ||Y_i f|| + lambda2 ||Z_i f|| + phi_i ||f||.

    ``x``, ``y`` and ``z`` hold one operator per atom, ``probes`` unit
    columns. _certified_excess proves what it can for every vector, and
    _probe_margin probes only the atoms it leaves open. ``margins`` holds:

    - certificate_margin, the largest singular-value defect less phi, at
      most 0 where that certificate holds (before its rounding slack);
    - loewner_margin, the largest Loewner bound over the atoms the
      singular values leave open;
    - probe_margin, the largest excess on a probe over the probed atoms.

    The last two are -inf where their tier examined no atom. Every atom a
    certificate proves has excess at most ``tol`` on every vector, so the
    inequality holds to ``tol`` exactly when probe_margin <= tol. ``note``
    counts the atoms each tier decided.
    """
    certificate, excess, tier = _certified_excess(x, y, z, params, tol)
    probed = np.flatnonzero(tier == 2)
    probe_margin = -np.inf
    if len(probed):
        stack = np.concatenate([x[probed], y[probed], z[probed]])
        phi = np.asarray(params.phi)[probed]
        probe_margin = _probe_margin(stack, params.lambda1, params.lambda2, phi, probes)
    margins = {
        "certificate_margin": float(certificate.max()),
        "loewner_margin": float(excess[tier > 0].max(initial=-np.inf)),
        "probe_margin": probe_margin,
    }
    decided = np.bincount(tier, minlength=len(_TIERS))
    note = f"closeness of {len(tier)} atoms decided by " + ", ".join(
        f"the {name} on {k}" for name, k in zip(_TIERS, decided.tolist()) if k
    )
    return margins, note


def _probe_margin(stack, lambda1: float, lambda2: float, phi: np.ndarray, probes: np.ndarray):
    """Largest ||X_i p|| - lambda1 ||Y_i p|| - lambda2 ||Z_i p|| - phi_i over atoms i, probes p.

    ``stack`` is the stacked [X; Y; Z] of the atoms ``phi`` holds. One pass
    images a chunk of probes at a time into one buffer.
    """
    count = probes.shape[1]
    buf = np.empty((*stack.shape[:2], min(count, _PROBE_CHUNK)), np.result_type(stack, probes))
    margin = -np.inf
    for lo in range(0, count, _PROBE_CHUNK):
        images = np.matmul(stack, probes[:, lo : lo + _PROBE_CHUNK], out=buf[..., : count - lo])
        # squares summed over real views of the buffer: a complex chunk is
        # never copied
        squares = np.einsum("ijk,ijk->ik", images.real, images.real)
        if np.iscomplexobj(images):
            squares += np.einsum("ijk,ijk->ik", images.imag, images.imag)
        norms = np.sqrt(squares).reshape(3, len(phi), -1)
        excess = norms[0] - (lambda1 * norms[1] + lambda2 * norms[2] + phi[:, None])
        # np.maximum, unlike max(), keeps a NaN excess
        margin = np.maximum(margin, excess.max())
    return float(margin)


def _certified_excess(x, y, z, params: PerturbationParams, tol: float):
    """(certificate, excess, tier) of a closeness inequality, one entry per atom.

    With e_i the largest excess ||X_i f|| - lambda1 ||Y_i f|| -
    lambda2 ||Z_i f|| - phi_i over unit vectors f, two certificates bound
    e_i from above, and an atom is proved once a bound is at most ``tol``.
    ``tier`` indexes _TIERS: 0 where the singular-value certificate proves
    the atom, 1 where the Loewner certificate does, 2 where neither does.
    ``excess`` is the singular-value bound where it proves the atom and the
    Loewner bound elsewhere (inf where M_i might overflow, below);
    ``certificate`` is the singular-value bound before its rounding slack.

    Singular values: ||X_i f|| <= sigma_max(X_i) and ||Y_i f|| >=
    sigma_min(Y_i), so e_i <= _certificate_defects - phi_i.

    Loewner order, on the atoms the singular values leave open: with r_i =
    lambda1 sigma_min(Y_i) + lambda2 sigma_min(Z_i) + phi_i, squaring the
    right-hand side and bounding each cross term below by its sigma_min
    product gives RHS(f)^2 >= f^* (lambda1^2 Y_i^* Y_i + lambda2^2 Z_i^* Z_i
    + c_i) f, where c_i = r_i^2 - (lambda1 sigma_min(Y_i))^2 -
    (lambda2 sigma_min(Z_i))^2 holds the cross terms' bounds. So with

        M_i = lambda1^2 Y_i^* Y_i + lambda2^2 Z_i^* Z_i + c_i I - X_i^* X_i,

    ||X_i f||^2 - RHS(f)^2 <= -lambda_min(M_i) <= s_i. Where e = e_i > 0,
    ||X_i f|| = RHS(f) + e and RHS(f) >= r_i, so e^2 + 2 r_i e <= s_i and

        e_i <= sqrt(r_i^2 + s_i) - r_i = s_i / (r_i + sqrt(r_i^2 + s_i)),

    below both sqrt(s_i) and s_i / (2 r_i). Where only one right-hand term
    is present there is no cross term, and M_i >= 0 is exactly the
    inequality; in general M_i >= (r_i^2 - sigma_max(X_i)^2) I, so the
    Loewner certificate proves all that the singular values prove, up to
    rounding.

    Rounding: with u = hilbert.rounding_allowance(d), the relative backward
    error allowed eigvalsh, each computed singular value is taken
    within u times its matrix's largest one of the exact value. With a_i =
    sigma_max(X_i) and b_i = lambda1 sigma_max(Y_i) + lambda2 sigma_max(Z_i)
    + phi_i, the singular-value bound then moves by at most u (a_i + b_i),
    which is added to it, and r_i by at most u b_i, which is taken off it.
    Every term of M_i is at most K_i = a_i^2 + b_i^2 in 2-norm; the
    rounding of its products and of c_i, and eigvalsh's backward error,
    stay below 8 u K_i, and s_i = max(0, 8 u K_i - computed
    lambda_min(M_i)). M_i is formed only where K_i < max float / 8, and
    used only where it is finite; a NaN bound proves nothing.
    """
    d = x.shape[-1]
    lambda1, lambda2, phi = params.lambda1, params.lambda2, np.asarray(params.phi)
    sv = _stack_singulars(x, y, z, lambda1, lambda2)
    u = hilbert.rounding_allowance(d)
    a, b = sv[0, :, 0], lambda1 * sv[1, :, 0] + lambda2 * sv[2, :, 0] + phi
    certificate = _certificate_defects(sv, lambda1, lambda2) - phi
    excess = certificate + u * (a + b)
    tier = np.where(excess <= tol, 0, 2)
    excess[tier > 0] = np.inf
    k = a * a + b * b
    o = np.flatnonzero((tier > 0) & (k < np.finfo(float).max / 8.0))
    if len(o):
        xo, yo, zo = x[o], y[o], z[o]
        m = lambda1 * lambda1 * (adjoint(yo) @ yo) + lambda2 * lambda2 * (adjoint(zo) @ zo)
        m = m - adjoint(xo) @ xo
        # K_i does not bound a term whose lambda is 0 or tiny: its Gram may overflow
        finite = np.isfinite(m).all(axis=(1, 2))
        o, m = o[finite], m[finite]
        low_y, low_z = lambda1 * sv[1, o, -1], lambda2 * sv[2, o, -1]
        r = low_y + low_z + phi[o]
        c = r * r - low_y * low_y - low_z * low_z
        m += c[:, None, None] * np.eye(d)
        s = np.maximum(8.0 * u * k[o] - np.linalg.eigvalsh(m)[:, 0], 0.0)
        r = np.maximum(r - u * b[o], 0.0)
        # s = 0 proves e_i <= 0, also where r = 0 would leave 0 / 0
        excess[o] = np.divide(s, r + np.sqrt(r * r + s), out=np.zeros_like(s), where=s != 0.0)
        tier[o] = np.where(excess[o] <= tol, 1, 2)
    return certificate, excess, tier


def _stack_singulars(x, y, z, lambda1: float, lambda2: float) -> np.ndarray:
    """The singular values of each X_i, Y_i and Z_i, descending: a (3, n, d) array.

    The values of Y and Z are read only times lambda1 and lambda2, so a
    stack whose lambda is 0 gets zeros in place of an SVD: lambda * 0 is
    the bits lambda * sigma is, for finite sigma >= 0, signed zeros included.
    One SVD call over the other stacks, [X; Y; Z] at most: the same LAPACK
    call on each matrix as separate ones, so the values are the same bits.
    """
    keep = [k for k, lam in enumerate((1.0, lambda1, lambda2)) if lam != 0.0]
    found = np.linalg.svd(np.concatenate([(x, y, z)[k] for k in keep]), compute_uv=False)
    sv = np.zeros((3, len(x), found.shape[-1]))
    sv[keep] = found.reshape(len(keep), len(x), -1)
    return sv


def _certificate_defects(sv: np.ndarray, lambda1: float, lambda2: float) -> np.ndarray:
    """sigma_max(X_i) - lambda1 sigma_min(Y_i) - lambda2 sigma_min(Z_i) from _stack_singulars."""
    return sv[0, :, 0] - lambda1 * sv[1, :, -1] - lambda2 * sv[2, :, -1]


def _composite_stacks(base: OperatorFamily, s: np.ndarray):
    """(X, Y, Z) of the composite closeness inequality: w - w^2 T S, w T and w^2 T S."""
    w = base.weights[:, None, None]
    wts = w * w * (base.operators @ s)
    return w * np.eye(base.ambient_dim) - wts, w * base.operators, wts


def composite_defects(base: OperatorFamily, s: np.ndarray, lambda1: float, lambda2: float):
    """_certificate_defects of the composite inequality, T the base operators and S the stack ``s``.

    The inequality holds for every vector wherever the defect is at most phi.
    """
    sv = _stack_singulars(*_composite_stacks(base, s), lambda1, lambda2)
    return _certificate_defects(sv, lambda1, lambda2)


# Chunks whose tier-0 bounds one product gives (_PairBounds.group_bounds);
# bounds that product to _GROUP_CHUNKS x (2d + 1) x _SUBSET_CHUNK entries.
_GROUP_CHUNKS = 4

# Subsets summed at once by subset_sums; bounds each temporary stack of
# subset sums to _SUBSET_CHUNK x d x d entries. A power of two, so that in
# counting order the subsets of a chunk share their top atoms (_PairBounds).
_CHUNK_BITS = 7
_SUBSET_CHUNK = 2**_CHUNK_BITS


@functools.lru_cache(maxsize=16)
def all_subset_masks(natoms: int) -> np.ndarray:
    """Every nonempty index subset, one bool row each, counting with atom 0 as the top bit.

    One shared read-only array per atom count.
    """
    # the counts as big-endian integers of the narrowest width, shifted so
    # their natoms bits lead; unpacked, those bits are the rows, and no
    # temporary is larger than the counts themselves
    width = np.min_scalar_type(2**natoms - 1).itemsize
    counts = np.arange(1, 2**natoms, dtype=f">u{width}")
    counts <<= 8 * width - natoms
    rows = counts.view(np.uint8).reshape(-1, width)
    masks = np.unpackbits(rows, axis=1, count=natoms).view(bool)
    masks.flags.writeable = False
    return masks


def subset_masks(natoms: int, nrandom: int, rng=None) -> np.ndarray:
    """Nonempty index subsets, one bool row each.

    All of them when they are no more than a sample would check,
    2^natoms - 1 <= 2 natoms + nrandom. Otherwise the sample: the
    singletons, the prefixes, then ``nrandom`` seeded draws.
    """
    if 2**natoms - 1 <= 2 * natoms + nrandom:
        return all_subset_masks(natoms)
    rng = np.random.default_rng(0) if rng is None else rng
    rows = [np.eye(natoms, dtype=bool), np.tri(natoms, dtype=bool)]
    need = nrandom
    while need > 0:
        # a row is natoms uniforms then its density uniform(0.1, 0.9), the
        # order a row-at-a-time draw takes; empty rows are drawn again
        r = rng.random((need, natoms + 1))
        drawn = r[:, :natoms] < 0.1 + 0.8 * r[:, natoms:]
        drawn = drawn[drawn.any(axis=1)]
        rows.append(drawn)
        need -= len(drawn)
    return np.concatenate(rows)


def subset_sums(masks: np.ndarray, *stacks: np.ndarray):
    """Yield (offset, [mask rows @ stack for each stack]): every subset's sum, a chunk at a time."""
    for lo in range(0, len(masks), _SUBSET_CHUNK):
        yield lo, _row_sums(masks[lo : lo + _SUBSET_CHUNK], stacks)


def _row_sums(masks: np.ndarray, stacks) -> list:
    """[masks @ stack for each stack]: one chunk's subset sums."""
    # the chunk's masks as 0/1 rows of the stacks' real dtype, cast here so
    # that a chunk the pair bounds skip is never cast; the products are the
    # BLAS ones a bool tensordot makes, so the sums agree with it bit for bit
    rows = masks.astype(np.finfo(np.result_type(*stacks)).dtype)
    return [(rows @ s.reshape(len(s), -1)).reshape(-1, *s.shape[1:]) for s in stacks]


def _margin_bounds(cert: np.ndarray, scale: np.ndarray):
    """Certified (lower, upper, slack) for each subset's computed margin.

    ``cert`` is a stack of hermitian certificates and ``scale`` their
    scales; the margin is eigvalsh(cert)[:, 0] / scale as computed in
    floating point. Gershgorin's discs put lambda_min at or above
    min_j(c_jj - sum_{k != j} |c_jk|), and the smallest diagonal entry is at
    or above it. ``slack`` is hilbert.rounding_allowance(d) ||cert||_inf
    (8 d^2 eps ||cert||_inf), and ||cert||_2 is at most the largest
    absolute row sum: it covers the eigensolver's backward error, the
    rounding of these sums, and the Cholesky backward error used by
    _candidates (Higham, Accuracy and Stability of Numerical Algorithms,
    Thm 10.7).
    """
    d = cert.shape[-1]
    # rows and diagonals are held as (d, subsets): numpy reduces the short
    # axis of length d faster when the subsets run along the last axis
    rows = np.abs(cert).transpose(1, 2, 0).sum(axis=1)
    diag = np.ascontiguousarray(cert.diagonal(axis1=1, axis2=2).real.T)
    slack = hilbert.rounding_allowance(d) * rows.max(axis=0)
    # c_jj - (rows_j - |c_jj|) is the left end of disc j
    lower = ((diag + np.abs(diag) - rows).min(axis=0) - slack) / scale
    upper = (diag.min(axis=0) + slack) / scale
    return lower, upper, slack


def _candidates(cert: np.ndarray, scale: np.ndarray, worst: float) -> np.ndarray:
    """Indices of the subsets of a chunk that may hold its smallest margin.

    Every other subset's computed margin lies strictly above both ``worst``
    (the running minimum of earlier chunks) and some subset's margin in
    this chunk. Subsets whose Gershgorin lower bound clears that bound are
    dropped; the rest are dropped together when one Cholesky of
    cert - (bound scale + slack) I succeeds, which proves each of them
    positive definite after the shift.
    """
    lower, upper, slack = _margin_bounds(cert, scale)
    bound = min(worst, upper.min())
    # ~(lower > bound) also keeps the subsets whose bounds are NaN
    keep = np.flatnonzero(~(lower > bound))
    if len(keep) == 0 or bound < worst:
        # the subset holding the chunk's upper bound is kept, and its shifted
        # diagonal is negative: the factorization cannot succeed
        return keep
    d = cert.shape[-1]
    # the slack again for the part of the factorization's error that grows
    # with the shift itself
    shift = bound * scale[keep]
    shift += slack[keep] + hilbert.rounding_allowance(d) * np.abs(shift)
    try:
        np.linalg.cholesky(cert[keep] - shift[:, None, None] * np.eye(d))
    except np.linalg.LinAlgError:
        return keep
    return keep[:0]


def _certificates(a: np.ndarray, dev: np.ndarray, lam: float):
    """(cert, scale) of a stack of subset sums A_I (``a``) and D_I (``dev``).

    cert is lam^2 A_I^* A_I - D_I^* D_I and scale is max(1, lam^2 ||A_I||^2);
    a subset's margin is lambda_min(cert) / scale. Each subset's pair is
    computed matrix by matrix, whatever else the stack holds.
    """
    g = lam * lam * (adjoint(a) @ a)
    cert = hilbert.hermitian_part(g - adjoint(dev) @ dev)
    # the scale is max(1, lambda_max(g)), and lambda_max(g) is at most both
    # trace(g) and g's largest absolute row sum: where either stays a
    # rounding margin below 1 the scale is exactly 1 and needs no
    # eigenvalue. Row sums are taken only where the trace is not enough;
    # ~(<=) leaves a NaN row to eigvalsh
    scale = np.ones(len(a))
    big = np.flatnonzero(np.einsum("ijj->i", g).real > 1.0 - 1e-8)
    big = big[~(np.abs(g[big]).sum(axis=-1).max(axis=-1, initial=0.0) <= 1.0 - 1e-8)]
    if big.size:
        scale[big] = np.maximum(1.0, np.linalg.eigvalsh(g[big])[:, -1])
    return cert, scale


@functools.lru_cache(maxsize=16)
def _bit_rows(k: int):
    """(rows, pairs) over all 2^k subsets of k atoms: the empty one, then all_subset_masks(k).

    rows holds each subset's 0/1 indicator m, pairs its products m_i m_j;
    both are read-only float arrays.
    """
    rows = np.concatenate([np.zeros((1, k), dtype=bool), all_subset_masks(k)]).astype(float)
    pairs = (rows[:, :, None] * rows[:, None, :]).reshape(len(rows), k * k)
    rows.flags.writeable = pairs.flags.writeable = False
    return rows, pairs


@functools.lru_cache(maxsize=1)
def _chunk_bits():
    """(rows, pairs) of the bottom _CHUNK_BITS atoms of a chunk's subsets, one column each.

    Row k of a chunk is subset count lo + k + 1, so its bottom atoms are
    the bits of (k + 1) mod _SUBSET_CHUNK, the same in every chunk. Two
    rows follow the bits in ``rows``: 1 where the subset keeps the chunk's
    top atoms, and 1 for the full chunk's last subset (bits 0), which is
    the next top set alone.
    """
    bits, pairs = (np.roll(t, -1, axis=0).T for t in _bit_rows(_CHUNK_BITS))
    last = bits.sum(axis=0) == 0
    rows = np.vstack([bits, ~last, last])
    rows.flags.writeable = False
    return rows, np.ascontiguousarray(pairs)


class _PairBounds:
    """Tier 0 of an exhaustive scan: every subset's margin bounded from one table of atom pairs.

    With M_ij = lam^2 A_i^* A_j - D_i^* D_j, a subset's certificate is
    C_I = sum_{i,j in I} M_ij. Gershgorin's discs and the triangle
    inequality, with m the subset's 0/1 indicator, give

        min_r m^T X_r m <= lambda_min(C_I) <= min_r m^T Y_r m,

    X_ij,r = Re(M_ij)_rr - sum_{s != r} |(M_ij)_rs| and Y_ij,r = Re(M_ij)_rr.
    The scale lies in [1, max(1, lam^2 alpha_I^2)], with alpha_I =
    sum_I ||A_i||_F >= ||A_I||; each bound is divided by whichever end of
    that range keeps it on its side.

    Rounding: with delta_I = sum_I ||D_i||_F and kappa_I = lam^2 alpha_I^2
    + delta_I^2, the blocks M_ij over I x I sum to at most kappa_I in
    Frobenius norm. The computed certificate is off C_I by the rounding of
    the subset sums (gamma_n in each factor) and of its products (gamma_d),
    at most (2n + d + 4) eps kappa_I in 2-norm; eigvalsh adds 8 d^2 eps
    kappa_I (as in _margin_bounds); this table's products and the sums of
    its forms, n^2 + 2n terms each at most sqrt(d) ||M_ij||_F, add
    (n^2 + 2n + d + 3) sqrt(d) eps kappa_I. Those, and the rounding of the
    scale and of the quotient, stay below tau_I = 16 (n + d)^2 d eps kappa_I;
    the largest scale is widened by the same relative factor. tau_I is a
    quadratic form in m too, so the table carries X - tau and Y + tau; the
    pair term tiny keeps it above underflow's absolute errors.

    Overflow: with lam < 1, every entry and partial sum of every certificate
    is at most (sum ||A_i||_F)^2 + (sum ||D_i||_F)^2 over all atoms, times
    1 + O((n + d) eps); where that reaches a quarter of the largest float
    ``of_scan`` gives no tier 0, so no margin it drops can be NaN.

    Counting order puts atom 0 on the top bit, so the subsets of a chunk
    share their top n - _CHUNK_BITS atoms, but for a full chunk's last
    subset, which is the next top set alone. m^T Z m is then a top, a
    cross and a bottom term: the bottom terms are the same in every chunk,
    and one product over a group of _GROUP_CHUNKS chunks adds the others,
    into one buffer per scan. Subsets run along the last axis of the
    chunks' forms, where numpy reduces the short axis of length d fastest.
    """

    def __init__(self, operators: np.ndarray, deviations: np.ndarray, lam: float, alpha, delta):
        n, d = operators.shape[0], operators.shape[-1]
        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
        # [lam A_1 ... lam A_n; D_1 ... D_n] against itself with its lower
        # half negated: block (i, j) of this (nd x nd) product is M_ij
        g = np.concatenate([lam * operators, deviations], axis=1).transpose(1, 0, 2)
        g = g.reshape(2 * d, n * d)
        pairs = adjoint(g) @ (g * np.repeat([1.0, -1.0], d)[:, None])
        diag = pairs.reshape(n, d, n, d).diagonal(axis1=1, axis2=3)  # (n, n, d): (M_ij)_rr
        rows = (np.abs(pairs).reshape(-1, d) @ np.ones(d)).reshape(n, d, n).transpose(0, 2, 1)
        coeff = 16.0 * (n + d) ** 2 * d * eps
        scaled = lam * lam * np.outer(alpha, alpha)
        tau = coeff * (scaled + np.outer(delta, delta) + tiny)[:, :, None]
        # z[i, j] holds X_ij - tau, Y_ij + tau, then the widened lam^2 alpha_I^2 term
        z = np.concatenate(
            [diag.real + np.abs(diag) - rows - tau, diag.real + tau,
             (1.0 + coeff) * scaled[:, :, None]],
            axis=2,
        )
        top, width = n - _CHUNK_BITS, z.shape[2]
        top_rows, top_pairs = _bit_rows(top)
        top_forms = top_pairs @ z[:top, :top].reshape(top * top, width)
        cross = z[:top, top:] + z[top:, :top].transpose(1, 0, 2)
        # per top set, the (width x (_CHUNK_BITS + 2)) factor of _chunk_bits'
        # rows: its cross terms, its own top form and the next top set's
        self.blocks = np.zeros((len(top_rows), width, _CHUNK_BITS + 2))
        self.blocks[:, :, :-2] = (top_rows @ cross.reshape(top, -1)).reshape(
            len(top_rows), _CHUNK_BITS, width
        ).transpose(0, 2, 1)
        self.blocks[:, :, -2] = top_forms
        self.blocks[:-1, :, -1] = top_forms[1:]
        bottom = z[top:, top:].reshape(_CHUNK_BITS**2, width)
        self.bottom_forms = bottom.T @ _chunk_bits()[1]
        self.d = d
        self.forms = np.empty((_GROUP_CHUNKS, width, _SUBSET_CHUNK))
        self.bounds = np.empty((2, _GROUP_CHUNKS, _SUBSET_CHUNK))

    @classmethod
    def of_scan(cls, masks, operators, deviations, lam):
        """Tier 0 for an exhaustive scan of more than one chunk, or None.

        The scan is exhaustive when it has 2^n - 1 masks, all_subset_masks(n).
        """
        if len(masks) != 2 ** len(operators) - 1 or len(masks) <= _SUBSET_CHUNK:
            return None
        alpha = np.linalg.norm(operators.reshape(len(operators), -1), axis=1)
        delta = np.linalg.norm(deviations.reshape(len(deviations), -1), axis=1)
        if not alpha.sum() ** 2 + delta.sum() ** 2 < np.finfo(float).max / 4.0:
            return None
        return cls(operators, deviations, lam, alpha, delta)

    def group_bounds(self, c: int):
        """Certified (lower, upper) for each computed margin of chunks c to c + _GROUP_CHUNKS - 1.

        Row k holds chunk c + k, one column per subset; the last chunk's
        final column, past the scan's last subset, holds +inf in both. Both
        are views of one buffer that the next call overwrites.
        """
        blocks = self.blocks[c : c + _GROUP_CHUNKS]
        k, d = len(blocks), self.d
        forms = np.matmul(blocks, _chunk_bits()[0], out=self.forms[:k])
        forms += self.bottom_forms
        scale = np.maximum(1.0, forms[:, -1])
        lower, upper = self.bounds[:, :k]
        np.min(forms[:, :d], axis=1, out=lower)
        np.min(forms[:, d:-1], axis=1, out=upper)
        np.minimum(lower, lower / scale, out=lower)
        np.maximum(upper, upper / scale, out=upper)
        if c + k == len(self.blocks):
            lower[-1, -1] = upper[-1, -1] = np.inf
        return lower, upper


def _worst_subset(
    masks: np.ndarray, operators: np.ndarray, deviations: np.ndarray, lam: float
):
    """(worst_index, worst_margin, eigensolved): the smallest scaled domination margin.

    On an exhaustive scan of more than one chunk, _PairBounds bounds a
    group of chunks at a time. A chunk whose smallest lower bound lies
    above the running worst or its own smallest upper bound is skipped;
    in any other chunk the subsets so bounded are dropped, and it is still
    summed whole, since a product over fewer rows rounds differently.
    After a chunk where the pair bounds drop nothing, the rest of the scan
    goes without them: where they are too loose to help, they cost one
    group's bounds. Only the _candidates among the survivors reach the
    eigensolver (``eigensolved`` counts them); every other subset is proved
    to lie strictly above the minimum, so the result is the np.argmin over
    all subsets' margins, ties going to the first index.
    """
    stacks = (operators, deviations)
    pairs = _PairBounds.of_scan(masks, operators, deviations, lam)
    worst, worst_index, eigensolved = np.inf, 0, 0
    for lo in range(0, len(masks), _SUBSET_CHUNK):
        chunk = masks[lo : lo + _SUBSET_CHUNK]
        kept = slice(None)
        if pairs is not None:
            c = lo >> _CHUNK_BITS
            row = c % _GROUP_CHUNKS  # the chunk's row in its group's bounds
            if row == 0:
                lower, upper = pairs.group_bounds(c)
                lower_min, upper_min = lower.min(axis=1).tolist(), upper.min(axis=1).tolist()
            # every subset whose lower bound clears this lies strictly above
            # both the running worst and the subset holding upper_min[row]
            bound = min(worst, upper_min[row])
            if lower_min[row] > bound:
                continue
            kept = np.flatnonzero(~(lower[row, : len(chunk)] > bound))
            if len(kept) == len(chunk):
                kept, pairs = slice(None), None  # the rest of the scan goes without them
        index = np.arange(lo, lo + len(chunk))[kept]
        a, dev = _row_sums(chunk, stacks)
        cert, scale = _certificates(a[kept], dev[kept], lam)
        cand = _candidates(cert, scale, worst)
        if len(cand) == 0:
            continue
        eigensolved += len(cand)
        margins = np.linalg.eigvalsh(cert[cand])[:, 0] / scale[cand]
        k = int(np.argmin(margins))
        if margins[k] < worst or np.isnan(margins[k]):
            worst, worst_index = float(margins[k]), int(index[cand[k]])
            if np.isnan(worst):
                break  # np.argmin stops at the first NaN
    return worst_index, worst, eigensolved


def verify_perturbed_sum(
    base: OperatorFamily,
    perturbed: OperatorFamily,
    lam: float,
    tol: float = 1e-9,
    nrandom: int = 10_000,
    rng=None,
):
    """Subset-dominated perturbations keep the operator sum invertible.

    Both families must be raw-mode (ValueError otherwise): the lemma and
    its conclusion are about the plain sum. Hypotheses: the base operators
    sum to the identity, and for every checked index subset I the
    deviation sum is dominated in the quadratic sense, i.e.
    lam^2 A_I^* A_I - D_I^* D_I is positive semidefinite where A_I sums
    the base operators over I and D_I the deviations. That
    certificate is exact: it is equivalent to the vector inequality
    ||D_I f|| <= lam ||A_I f|| for every f. Every subset is checked when
    there are no more than a sample would hold (2^n - 1 <= 2n + nrandom,
    up to 13 atoms by default); otherwise singletons, prefixes and
    ``nrandom`` seeded random subsets are sampled, and the report says so.

    Only the smallest scaled margin and the first subset holding it are
    reported, and most subsets are settled without an eigensolver: on an
    exhaustive scan of more than one chunk, bounds from one table of atom
    pairs drop subsets, and whole chunks, before they are summed; a
    Gershgorin lower bound above the running bound drops a subset, one
    Cholesky of the shifted certificates drops the rest of a chunk at once,
    and eigvalsh runs only on what is left (``subsets_eigensolved``). The
    bounds carry a rounding slack, so every dropped subset lies strictly
    above the minimum, and the result equals np.argmin over every subset's
    eigenvalue, bit for bit. Exact ties go to the first subset; margins
    that are equal in exact arithmetic but not after rounding are not
    ties, and the reported subset is the one rounding puts lowest. In the
    coordinate families of ``perturbed_sum_instance`` every proper subset
    has margin 0 in exact arithmetic, so there the worst subset is a
    rounding artefact while the worst margin stays right to rounding.

    Conclusion: with S the dense sum of the perturbed operators,
    ||id - S|| <= lam, sigma_min(S) >= 1 - lam, and summing the family
    against S^{-1} reproduces the canonical basis.

    Returns (report, S).
    """
    return _perturbed_sum(base, perturbed, lam, tol, nrandom, rng)[:2]


def _perturbed_sum(base, perturbed, lam, tol, nrandom=10_000, rng=None):
    """verify_perturbed_sum's (report, S), and the singular values of S, descending."""
    resolution.require_aligned(base, perturbed, SumMode.RAW)
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"lam must lie in [0, 1), got {lam}")
    report = VerificationReport(check_id="subset_stable_sum")
    report.tolerances = {"bound_slack": tol, "certificate_floor": CERTIFICATE_FLOOR}
    d = base.ambient_dim
    resolution.add_identity_sum_hypothesis(report, "base_identity_sum", base, tol)

    masks = subset_masks(base.natoms, nrandom, rng)
    worst_index, worst, eigensolved = _worst_subset(
        masks, base.operators, base.operators - perturbed.operators, lam
    )
    worst_subset = tuple(np.flatnonzero(masks[worst_index]).tolist())
    report.notes.append(
        f"subset check exhaustive over {len(masks)} subsets"
        if len(masks) == 2**base.natoms - 1
        else f"subset check sampled ({len(masks)} subsets: singletons, prefixes, random)"
    )
    report.add_hypothesis(
        "subset_domination",
        worst >= -CERTIFICATE_FLOOR,
        residual=worst,
        detail=f"worst_subset={worst_subset}",
    )

    total = perturbed.operators.sum(axis=0)
    # ||id - S|| and the singular values of S from one SVD call
    singulars = np.linalg.svd(np.stack([np.eye(d) - total, total]), compute_uv=False)
    deviation_norm, sigma_min = float(singulars[0, 0]), float(singulars[1, -1])
    reconstruction_residual = float("inf")
    if sigma_min > 0.0:
        inverse_images = np.linalg.solve(total, np.eye(d))
        acc = (perturbed.operators @ inverse_images).sum(axis=0)
        reconstruction_residual = float(
            np.linalg.norm(acc - np.eye(d), axis=0).max()
        )
    report.constants = {
        "lam": lam,
        "worst_subset_margin": worst,
        "subsets_checked": float(len(masks)),
        "subsets_eigensolved": float(eigensolved),
        "deviation_norm": deviation_norm,
        "sum_sigma_min": sigma_min,
        "reconstruction_residual": reconstruction_residual,
    }
    report.conclude(
        deviation_norm <= lam + tol
        and sigma_min >= 1.0 - lam - tol
        and reconstruction_residual <= tol
    )
    return report, total, singulars[1]


def perturbation_reports(
    base: OperatorFamily,
    perturbed: OperatorFamily,
    params: PerturbationParams,
    lam: float,
    tol: float = 1e-9,
):
    """The four perturbation checks of one family, each shared piece computed once.

    Returns the reports of check_perturbation, verify_perturbed_sum,
    verify_perturbed_resolution and verify_composite_perturbation, equal to
    the standalone checks'. The last is None where its Bessel hypothesis
    fails: the perturbed Gram upper bound exceeds the base one by over ``tol``.
    """
    shared = _SharedPieces(base, perturbed, params, lam, tol)
    pointwise = check_perturbation(base, perturbed, params, tol)
    resolution_report, _ = shared.resolution_report(pointwise)
    composite = shared.composite_report() if shared.bessel_dominated() else None
    return pointwise, shared.subset_report, resolution_report, composite


def verify_perturbed_resolution(
    base: OperatorFamily,
    perturbed: OperatorFamily,
    params: PerturbationParams,
    lam: float,
    tol: float = 1e-9,
):
    """Pointwise-perturbed families normalize back to a resolution with predicted bounds.

    Hypotheses: the base family is a resolution with Gram bounds [C, D];
    the pointwise closeness inequality holds; the subset-stability check
    passes with lam (making the perturbed sum S invertible); and the side
    constant (1 - lambda1) sqrt(C) - phi_l2 is strictly positive.

    Conclusion: the composed family {S_i S^{-1}} passes the resolution
    checks and its Gram bounds land in the predicted interval; the raw
    (unnormalized) Gram sandwich is asserted as well.

    Returns (report, normalized_family_or_None).
    """
    shared = _SharedPieces(base, perturbed, params, lam, tol)
    return shared.resolution_report(check_perturbation(base, perturbed, params, tol))


def verify_composite_perturbation(
    base: OperatorFamily,
    composed_with: OperatorFamily,
    params: PerturbationParams,
    lam: float,
    tol: float = 1e-9,
) -> VerificationReport:
    """A family nearly inverting a resolution under composition is frame-type.

    Hypotheses: the base family is a resolution with Gram bounds [C, D];
    the candidate family S is Bessel with bound at most D; the composite
    closeness inequality

        ||w f - w^2 T S f|| <= lambda1 ||w T f|| + lambda2 ||w^2 T S f|| + phi ||f||

    holds, atom by atom proved for every vector by a certificate of
    _closeness where one holds, and decided on the canonical basis plus
    random unit probes only where none does; composition is
    norm-dominated (||T S f|| <= E ||S f|| with E the largest base operator
    norm, which holds by the definition of E and is recorded, not probed);
    the subset-stability check passes with lam; and the side constant
    s = sqrt(sum w^2 mu) - lambda1 sqrt(D) - phi_l2 is strictly positive.

    Conclusion: the weighted quadratic mean of ||S_i f|| clears
    s / (E (1 + sqrt(lambda2))) on random unit probes and spectrally, and
    the sum-normalized family passes the resolution checks. The sharper
    denominator variant E (1 + lambda2) is recorded and its failure noted.
    """
    return _SharedPieces(base, composed_with, params, lam, tol).composite_report()


class _SharedPieces:
    """The pieces the resolution and composite checks share, each computed once.

    Of the base and of the family normalized by its sum, the checks read
    only resolution.resolution_facts. The normalized family and its facts
    are None when the sum is singular, sigma_min <= SINGULAR_CUT max(1,
    sigma_max).
    """

    def __init__(self, base, perturbed, params, lam, tol):
        _require_aligned(base, perturbed, params, SumMode.RAW)
        self.base = base
        self.perturbed = perturbed
        self.params = params
        self.lam = lam
        self.tol = tol
        facts = resolution.resolution_facts(base, tol)
        self.base_bounds, self.base_residual, self.base_passed = facts
        self.subset_report, _, self.singulars = _perturbed_sum(base, perturbed, lam, tol)
        self.normalized = self.normalized_facts = None
        if float(self.singulars[-1]) > SINGULAR_CUT * max(float(self.singulars[0]), 1.0):
            self.normalized = resolution.normalize_to_identity(perturbed)
            self.normalized_facts = resolution.resolution_facts(self.normalized, tol)

    def bessel_dominated(self) -> bool:
        """The perturbed Gram upper bound is at most the base one, to ``tol``."""
        bessel = resolution.resolution_bounds(self.perturbed).upper
        return bessel <= self.base_bounds.upper + self.tol

    def _report(self, check_id: str, tolerances: dict) -> VerificationReport:
        """A report whose first hypothesis is that the base family is a resolution."""
        report = VerificationReport(check_id=check_id, tolerances=tolerances)
        report.add_hypothesis("base_resolution", self.base_passed, residual=self.base_residual)
        return report

    def _record_normalized(self, report: VerificationReport) -> bool:
        """Record the normalized bounds and identity residual; whether it is a resolution."""
        if self.normalized_facts is None:
            return False
        bounds, residual, passed = self.normalized_facts
        report.constants["normalized_lower"] = bounds.lower
        report.constants["normalized_upper"] = bounds.upper
        report.constants["normalized_identity_residual"] = residual
        return passed

    def resolution_report(self, pointwise: VerificationReport):
        """verify_perturbed_resolution's (report, normalized family), given the pointwise report."""
        params, tol = self.params, self.tol
        report = self._report(
            "perturbed_resolution", {"bound_slack": tol, "identity_residual": tol}
        )
        c_const, d_const = self.base_bounds.lower, self.base_bounds.upper
        report.add_hypothesis(
            "pointwise_closeness",
            pointwise.passed,
            residual=pointwise.constants["probe_margin"],
        )
        report.add_hypothesis(
            "subset_stable_sum",
            self.subset_report.passed,
            residual=self.subset_report.constants["worst_subset_margin"],
            detail=f"deviation_norm={self.subset_report.constants['deviation_norm']:.6e}",
        )

        phi_l2 = params.phi_l2(self.base.masses)
        side = (1.0 - params.lambda1) * np.sqrt(max(c_const, 0.0)) - phi_l2
        report.add_hypothesis("side_condition", side > 0.0, residual=side)

        sigma_max, sigma_min = float(self.singulars[0]), float(self.singulars[-1])
        raw = resolution.resolution_bounds(self.perturbed)
        pred_raw_lower, pred_raw_upper = predicted_interval(c_const, d_const, params, phi_l2)
        pred_norm_lower, pred_norm_upper = predicted_interval(
            c_const, d_const, params, phi_l2, sigma_min, sigma_max
        )
        report.constants = {
            "gram_lower": c_const,
            "gram_upper": d_const,
            "phi_l2": phi_l2,
            "lambda1": params.lambda1,
            "lambda2": params.lambda2,
            "lam": self.lam,
            "perturbed_lower": raw.lower,
            "perturbed_upper": raw.upper,
            "predicted_raw_lower": pred_raw_lower,
            "predicted_raw_upper": pred_raw_upper,
            "predicted_lower": pred_norm_lower,
            "predicted_upper": pred_norm_upper,
            "sum_sigma_min": sigma_min,
            "sum_sigma_max": sigma_max,
            "certificate_margin": pointwise.constants["certificate_margin"],
        }

        ok = raw.lower >= pred_raw_lower - tol and raw.upper <= pred_raw_upper + tol
        norm_ok = self._record_normalized(report)
        ok = ok and norm_ok and (
            report.constants["normalized_lower"] >= pred_norm_lower - tol
            and report.constants["normalized_upper"] <= pred_norm_upper + tol
        )
        report.conclude(ok)
        return report, self.normalized

    def composite_report(self) -> VerificationReport:
        """verify_composite_perturbation's report: the shared pieces plus its probes."""
        base, composed_with, params, tol = self.base, self.perturbed, self.params, self.tol
        report = self._report("composite_perturbation", {"bound_slack": tol, "probe_margin": tol})
        report.notes.append(
            "auxiliary constant K in the Bessel hypothesis is ignored; the base "
            "Gram upper bound D is used directly"
        )
        d_const = self.base_bounds.upper
        gram_s = resolution.resolution_bounds(composed_with)
        report.add_hypothesis(
            "bessel_dominated",
            self.bessel_dominated(),
            residual=gram_s.upper - d_const,
            detail=f"bessel={gram_s.upper:.6e}",
        )

        e_const = base.sup_norm()
        probes = hilbert.basis_and_probes(base.ambient_dim, CLOSENESS_PROBES)
        margins, note = _closeness(
            *_composite_stacks(base, composed_with.operators), params, probes, tol
        )
        report.notes.append(note)
        probe_margin = margins["probe_margin"]
        report.add_hypothesis("pointwise_composite", probe_margin <= tol, residual=probe_margin)
        # ||T_i S_i f|| <= ||T_i|| ||S_i f|| <= E ||S_i f||: exact, so not probed
        detail = f"holds by the definition of E=sup_norm={e_const:.6e}"
        report.add_hypothesis("composition_dominated", True, detail=detail)
        report.add_hypothesis(
            "subset_stable_sum",
            self.subset_report.passed,
            residual=self.subset_report.constants["worst_subset_margin"],
        )

        phi_l2 = params.phi_l2(base.masses)
        weight_mass = float(np.sqrt(np.sum(base.weights**2 * base.masses)))
        side = weight_mass - params.lambda1 * np.sqrt(max(d_const, 0.0)) - phi_l2
        report.add_hypothesis("side_condition", side > 0.0, residual=side)

        denom_stated = e_const * (1.0 + np.sqrt(params.lambda2))
        denom_sharp = e_const * (1.0 + params.lambda2)
        pred_ratio = side / denom_stated if denom_stated > 0 else float("inf")
        pred_ratio_sharp = side / denom_sharp if denom_sharp > 0 else float("inf")

        bound_probes = hilbert.unit_probes(base.ambient_dim, BOUND_PROBES)
        gram = resolution.resolution_gram(composed_with)
        gram_forms = hilbert.quadratic_forms(gram, bound_probes)
        probe_low = float(np.sqrt(max(np.min(gram_forms, initial=np.inf), 0.0)))

        sharp_holds = gram_s.lower >= pred_ratio_sharp**2 - tol
        report.constants = {
            "gram_upper": d_const,
            "sup_norm": e_const,
            "weight_mass": weight_mass,
            "phi_l2": phi_l2,
            "lambda1": params.lambda1,
            "lambda2": params.lambda2,
            "lam": self.lam,
            "lower": gram_s.lower,
            "upper": gram_s.upper,
            "predicted_lower": pred_ratio**2,
            "predicted_lower_sharp": pred_ratio_sharp**2,
            "sharp_form_holds": float(sharp_holds),
            "probe_lower": probe_low,
            **margins,
        }
        if not sharp_holds:
            report.notes.append(
                "sharper denominator variant (1 + lambda2) fails on this instance; "
                "the asserted bound uses (1 + sqrt(lambda2))"
            )

        ok = (
            probe_low >= pred_ratio - tol
            and gram_s.lower >= pred_ratio**2 - tol
            and self.bessel_dominated()
        )
        norm_ok = self._record_normalized(report)
        report.conclude(ok and norm_ok)
        return report
