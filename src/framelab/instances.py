"""Canonical and seeded random instances, plus the scenario registry.

Every random draw flows through numpy's default_rng (PCG64), so a seed
fully determines each instance bit for bit on a given NumPy/LAPACK build
(QR, SVD and eigh outputs depend on LAPACK). Each per-atom random quantity
is one stacked draw, and sums over atoms add the stack slice by slice in
atom order. The registry is the single home of the canonical scenarios:
tests, docs and the CLI all build from here.
"""
from __future__ import annotations

import inspect
import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import fusion, resolution
from .fusion import WeightedSubspaceFamily
from .hilbert import adjoint, hermitian_part, operator_norms, range_bases
from .resolution import OperatorFamily, SumMode


def _simplex(rng, n: int) -> np.ndarray:
    e = rng.exponential(1.0, n)
    return e / e.sum()


def _random_basis(rng, dim: int, rank: int) -> np.ndarray:
    """Orthonormal dim x rank basis: the Q factor of a seeded Gaussian draw."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, rank)))
    return q[:, :rank]


def _balanced_partition(dim: int, blocks: int) -> list:
    if not 1 <= blocks <= dim:
        raise ValueError(f"need 1 <= blocks <= dim, got {blocks} blocks in dim {dim}")
    base, extra = divmod(dim, blocks)
    return [base + (1 if i < extra else 0) for i in range(blocks)]


def _orthogonal_blocks(dim: int, blocks: int, rng) -> tuple:
    """Bases of pairwise orthogonal subspaces jointly spanning the whole space."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    ends = np.cumsum(_balanced_partition(dim, blocks))
    return tuple(np.split(q, ends[:-1], axis=1))


def _spanning_ranks(rng, dim: int, atoms: int):
    """Yield the rank draws, of 200 tries, whose ranks sum to at least ``dim``.

    Each try draws ``atoms`` ranks from [1, max(dim, 2) - 1]; ValueError
    when even the largest ranks cannot span. Otherwise a try spans with
    probability at least 1/2 (the sum is symmetric about atoms max(dim, 2) / 2
    >= dim), so all 200 fail with probability at most 2^-200.
    """
    top_rank = max(dim, 2) - 1
    if atoms * top_rank < dim:
        raise ValueError(f"{atoms} atoms of rank at most {top_rank} cannot span dimension {dim}")
    for _ in range(200):
        ranks = rng.integers(1, top_rank + 1, size=atoms)
        if ranks.sum() >= dim:
            yield ranks


def _projectors(bases) -> np.ndarray:
    return np.array([b @ adjoint(b) for b in bases])


def _unit_norm(stack: np.ndarray) -> np.ndarray:
    """Each matrix of a stack divided by its operator norm."""
    return stack / operator_norms(stack)[:, None, None]


def _lines(angles: list) -> np.ndarray:
    """The lines at ``angles`` (floats) in the plane, as one (n, 2, 1) stack of unit vectors.

    ``math.cos`` and ``math.sin`` are mapped over the angles in C: the
    entries are libm's, which NumPy's SIMD sin and cos may miss by an ulp on
    some builds.
    """
    n = len(angles)
    trig = [np.fromiter(map(f, angles), float, n) for f in (math.cos, math.sin)]
    return np.stack(trig, axis=1)[:, :, None]


def _line_family(angles, masses=None) -> WeightedSubspaceFamily:
    """Unit-weight lines at ``angles``, each the point of its atom; unit masses by default."""
    points = np.asarray(angles, dtype=float).tolist()
    n = len(points)
    return WeightedSubspaceFamily(
        subspaces=_lines(points),
        weights=np.ones(n),
        masses=np.ones(n) if masses is None else masses,
        points=tuple(points),
    )


def axes_family(dim: int = 3) -> WeightedSubspaceFamily:
    """Coordinate axes of R^dim with unit weights: a tight frame, A = B = 1."""
    return WeightedSubspaceFamily(
        subspaces=np.eye(dim)[:, :, None], weights=np.ones(dim), masses=np.ones(dim)
    )


def mercedes_family() -> WeightedSubspaceFamily:
    """Three equiangular lines in the plane; tight with A = B = 3/2."""
    return _line_family([0.0, math.pi / 3.0, 2.0 * math.pi / 3.0])


def equiangular_family(atoms: int = 5) -> WeightedSubspaceFamily:
    """atoms equiangular lines in the plane; tight with A = B = atoms/2."""
    if atoms < 2:
        raise ValueError(f"need at least 2 lines, got {atoms}")
    return _line_family([k * math.pi / atoms for k in range(atoms)])


def orthogonal_blocks_family(
    dim: int = 4, atoms: int = 2, seed: int = 0
) -> WeightedSubspaceFamily:
    """Random orthogonal decomposition of R^dim into atoms blocks (A = B = 1)."""
    subs = _orthogonal_blocks(dim, atoms, np.random.default_rng(seed))
    return WeightedSubspaceFamily(
        subspaces=subs, weights=np.ones(atoms), masses=np.ones(atoms)
    )


def random_fusion_family(
    dim: int = 4, atoms: int = 6, seed: int = 0
) -> WeightedSubspaceFamily:
    """Seeded random frame of subspaces with spanning ranks and random weights.

    Ranks are drawn from [1, dim - 1] (1 when dim is 1), so ``atoms`` of
    them must be able to reach ``dim``; otherwise ValueError, as when the
    one draw's lower frame bound is at most 1e-9 max(B, 1).
    """
    rng = np.random.default_rng(seed)
    ranks = next(_spanning_ranks(rng, dim, atoms))
    fam = WeightedSubspaceFamily(
        subspaces=tuple(_random_basis(rng, dim, int(r)) for r in ranks),
        weights=rng.uniform(0.5, 2.0, atoms),
        masses=rng.uniform(0.5, 2.0, atoms),
    )
    bounds = fusion.frame_bounds(fam)
    if not bounds.lower > 1e-9 * max(bounds.upper, 1.0):
        raise ValueError(f"seed {seed} draws frame bounds {bounds.lower:.3e}, {bounds.upper:.3e}")
    return fam


def rotating_line_family(n: int = 64) -> WeightedSubspaceFamily:
    """Midpoint discretization of the line rotating through [0, pi).

    The continuous family integrates to (pi/2) id, so bounds converge to
    A = B = pi/2; the projector entries are trigonometric polynomials of
    period pi, making the uniform midpoint rule exact up to roundoff.
    """
    from .measure import DiscretizationScheme, ParameterSpace, discretize

    space = ParameterSpace.circle(period=math.pi)
    meas = discretize(space, DiscretizationScheme("midpoint", n))
    return _line_family(meas.points, meas.masses)


def random_resolution_family(
    dim: int = 4, atoms: int = 6, seed: int = 0
) -> OperatorFamily:
    """Seeded random raw-mode resolution with strictly positive Gram bounds.

    Operators start as scalar multiples of the identity plus noise of total
    norm at most 0.3 and are post-multiplied by the inverse of their sum,
    so the raw identity holds exactly up to roundoff. Since the operators
    sum to the identity and every weight is at least 1/2, Cauchy-Schwarz
    puts the lower Gram bound at or above 1/(4 atoms), and the upper one
    stays below 14. ``seed`` is anything ``default_rng`` takes, a seed
    sequence such as ``[seed, k]`` included.
    """
    rng = np.random.default_rng(seed)
    alphas = _simplex(rng, atoms)
    noise = _unit_norm(rng.standard_normal((atoms, dim, dim)))
    weights = rng.uniform(0.5, 2.0, atoms)
    raw = alphas[:, None, None] * np.eye(dim) + (0.3 / atoms) * noise
    return OperatorFamily(
        operators=raw @ np.linalg.inv(sum(raw)),
        weights=weights,
        masses=np.ones(atoms),
        sum_mode=SumMode.RAW,
    )


def block_resolution_family(
    dim: int = 4, atoms: int = 3, seed: int = 0
) -> OperatorFamily:
    """Direct sum of two independent resolutions on complementary blocks.

    Vectors supported on one block are annihilated by the other block's
    atoms, so support-restricted reconstruction genuinely drops atoms.
    """
    if dim < 2:
        raise ValueError(f"need dim >= 2 to split into blocks, got {dim}")
    lo = _balanced_partition(dim, 2)[0]
    first, second = (
        random_resolution_family(size, atoms, [seed, b])
        for b, size in enumerate((lo, dim - lo))
    )
    operators = np.zeros((2 * atoms, dim, dim))
    operators[:atoms, :lo, :lo] = first.operators
    operators[atoms:, lo:, lo:] = second.operators
    return OperatorFamily(
        operators=operators,
        weights=np.concatenate([first.weights, second.weights]),
        masses=np.ones(2 * atoms),
        sum_mode=SumMode.RAW,
    )


@dataclass(frozen=True)
class Scenario:
    """Registry entry: a named builder plus closed-form limits when known.

    The builder's signature is the one record of which sizes the scenario
    takes and of their defaults.
    """

    name: str
    builder: Callable
    limit_bounds: tuple | None = None

    @cached_property
    def _sizes(self) -> frozenset:
        return frozenset(inspect.signature(self.builder).parameters)

    @property
    def continuous(self) -> bool:
        """Whether the builder takes a refinement level ``n``."""
        return "n" in self._sizes

    def build(self, dim=None, atoms=None, seed=None, n=None):
        """Build with the given sizes; a size the builder does not take is ignored."""
        given = {"dim": dim, "atoms": atoms, "seed": seed, "n": n}
        for key, least in (("dim", 1), ("atoms", 1), ("n", 1), ("seed", 0)):
            if given[key] is not None and int(given[key]) < least:
                raise ValueError(f"--{key} must be at least {least}, got {given[key]}")
        return self.builder(**{
            key: int(value) for key, value in given.items()
            if value is not None and key in self._sizes
        })


SCENARIOS = {
    s.name: s
    for s in (
        Scenario("axes", axes_family),
        Scenario("mercedes", mercedes_family),
        Scenario("equiangular", equiangular_family),
        Scenario("orthogonal_blocks", orthogonal_blocks_family),
        Scenario("random_fusion", random_fusion_family),
        Scenario("rotating_line", rotating_line_family, (math.pi / 2.0, math.pi / 2.0)),
        Scenario("basis_resolution", resolution.from_orthonormal_basis),
        Scenario("random_resolution", random_resolution_family),
        Scenario("block_resolution", block_resolution_family),
    )
}


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; known: {', '.join(sorted(SCENARIOS))}"
        ) from None


def build_scenario(name: str, dim=None, atoms=None, seed=None, n=None):
    return get_scenario(name).build(dim=dim, atoms=atoms, seed=seed, n=n)


def induced_frame_instance(
    dim: int = 4, atoms: int = 6, seed: int = 0, exact: bool = False
) -> OperatorFamily:
    """Weighted-mode resolution whose ranges carry a frame of subspaces.

    With exact=True the operators are orthogonal-block projectors with
    unit weight-mass products, so the range projectors coincide with the
    operators and the deviation constant vanishes. Otherwise ranks are
    drawn as in ``random_fusion_family``, with the same ValueError, also
    raised where the one draw's Gram lower bound is at most 1e-9 max(D, 1).
    """
    rng = np.random.default_rng(seed)
    if exact:
        blocks = min(atoms, dim)
        weights = rng.uniform(0.5, 2.0, blocks)
        masses = 1.0 / weights**2
        return OperatorFamily(
            operators=_projectors(_orthogonal_blocks(dim, blocks, rng)),
            weights=weights,
            masses=masses,
            sum_mode=SumMode.WEIGHTED,
        )
    weights = rng.uniform(0.5, 2.0, atoms)
    masses = rng.uniform(0.5, 2.0, atoms)
    ranks = next(_spanning_ranks(rng, dim, atoms))
    projectors = _projectors(_random_basis(rng, dim, int(r)) for r in ranks)
    directions = projectors @ _unit_norm(rng.standard_normal((atoms, dim, dim)))
    raw = projectors + 0.3 * directions
    total = sum((weights * weights * masses)[:, None, None] * raw)
    fam = OperatorFamily(
        operators=raw @ np.linalg.inv(total),
        weights=weights,
        masses=masses,
        sum_mode=SumMode.WEIGHTED,
    )
    rbounds = resolution.resolution_bounds(fam)
    if not rbounds.lower > 1e-9 * max(rbounds.upper, 1.0):
        raise ValueError(f"seed {seed} draws Gram bounds {rbounds.lower:.3e}, {rbounds.upper:.3e}")
    return fam


def sandwich_instance(
    dim: int = 4, atoms: int = 5, seed: int = 0, scaled_orthogonal: bool = False
):
    """Subspace family plus operators confined to the subspaces, weighted identity.

    The general construction symmetrically conjugates projector-confined
    operators by the inverse square root of their weighted sum, which
    preserves both the confinement and the identity. With
    scaled_orthogonal=True the operators are scaled block projectors whose
    weight-mass products all sit below one, the regime where the linear
    upper bound in the largest operator norm fails. Otherwise ranks are
    drawn as in ``random_fusion_family``, with the same ValueError.

    Returns (subspace_family, operator_family).
    """
    rng = np.random.default_rng(seed)
    if scaled_orthogonal:
        blocks = min(atoms, dim)
        subs = _orthogonal_blocks(dim, blocks, rng)
        weights = rng.uniform(0.55, 0.9, blocks)
        masses = np.ones(blocks)
        fam = WeightedSubspaceFamily(
            subspaces=subs, weights=weights, masses=masses
        )
        ops = _projectors(subs) / (weights * weights * masses)[:, None, None]
        return fam, OperatorFamily(
            operators=ops, weights=weights, masses=masses,
            sum_mode=SumMode.WEIGHTED,
        )
    weights = rng.uniform(0.5, 2.0, atoms)
    masses = rng.uniform(0.5, 2.0, atoms)
    for ranks in _spanning_ranks(rng, dim, atoms):
        bases = [_random_basis(rng, dim, int(r)) for r in ranks]
        g = _unit_norm(hermitian_part(rng.standard_normal((atoms, dim, dim))))
        p = _projectors(bases)
        cores = p @ (np.eye(dim) + 0.25 * g) @ p
        total = sum((weights * weights * masses)[:, None, None] * cores)
        evals, evecs = np.linalg.eigh(hermitian_part(total))
        if evals[0] <= 1e-6 * evals[-1]:
            continue
        inv_sqrt = (evecs / np.sqrt(evals)) @ evecs.T
        ops = inv_sqrt @ cores @ inv_sqrt
        fam = WeightedSubspaceFamily(
            subspaces=tuple(range_bases((inv_sqrt @ u)[None])[0] for u in bases),
            weights=weights,
            masses=masses,
        )
        return fam, OperatorFamily(
            operators=ops, weights=weights, masses=masses,
            sum_mode=SumMode.WEIGHTED,
        )
    raise RuntimeError(f"no positive weighted sum found for seed {seed}")


def projection_identity_instance(
    atoms: int = 5, seed: int = 0, kind: str = "equiangular", dim: int = 4
) -> WeightedSubspaceFamily:
    """Family with random weights whose first-power projector sum is the identity.

    Starts from a tight projector family (sum = kappa id) and sets each
    mass to 1/(kappa weight).
    """
    rng = np.random.default_rng(seed)
    if kind == "equiangular":
        base = equiangular_family(max(atoms, 3))
        subspaces = base.basis.T[:, :, None]  # one line per atom, as one stack
        kappa = base.natoms / 2.0
    elif kind == "orthogonal":
        base = orthogonal_blocks_family(dim, min(atoms, dim), seed)
        subspaces = base.subspaces
        kappa = 1.0
    else:
        raise ValueError(f"unknown kind {kind!r}")
    weights = rng.uniform(0.5, 2.0, base.natoms)
    masses = 1.0 / (kappa * weights)
    return WeightedSubspaceFamily(
        subspaces=subspaces,
        weights=weights,
        masses=masses,
        points=base.points,
    )


def vector_frame_instance(dim: int = 4, atoms: int = 6, seed: int = 0):
    """Raw resolution plus a spanning sequence of dim + 2 vectors.

    The induced-frame containment needs the sequence to span the whole
    space; ValueError names the seed should its one Gaussian draw not.

    Returns (operator_family, vectors).
    """
    base = random_resolution_family(dim, atoms, seed)
    vecs = np.random.default_rng([seed, 3]).standard_normal((dim, dim + 2))
    if range_bases(vecs[None])[0].shape[1] != dim:
        raise ValueError(f"seed {seed} draws {dim + 2} vectors that do not span dimension {dim}")
    return base, tuple(vecs.T)


def perturbed_sum_instance(
    dim: int = 4, seed: int = 0, kind: str = "columns", lam: float = 0.5
):
    """Canonical coordinate family with a subset-dominated perturbation.

    kinds: "columns" adds a rank-one column update to each coordinate
    projector with total Frobenius size lam; "left" multiplies every
    operator by id + lam G with a norm-one G; "scalar" rescales each
    operator by a factor within lam of one. All three admit an exact
    subset certificate at the returned lam.

    Returns (base, perturbed, lam).
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lam must lie in (0, 1), got {lam}")
    base = resolution.from_orthonormal_basis(dim)
    rng = np.random.default_rng(seed)
    eye = np.eye(dim)
    if kind == "columns":
        u = rng.standard_normal((dim, dim))
        u *= lam / np.linalg.norm(u)
        # atom i is the outer product of column i of eye + u with e_i
        ops = (eye + u).T[:, :, None] * eye[:, None, :]
    elif kind == "left":
        g = rng.standard_normal((dim, dim))
        g /= operator_norms(g)
        ops = (eye + lam * g) @ base.operators
    elif kind == "scalar":
        deltas = rng.uniform(-lam, lam, dim)
        ops = (1.0 + deltas)[:, None, None] * base.operators
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return base, replace(base, operators=ops), lam


def _exact_subset_lam(base_ops, deviations) -> float:
    """Largest norm of D_I applied against A_I over all nonempty subsets.

    The value is inf when some A_I is singular, sigma_min <= 1e-10
    max(sigma_max, 1). Frobenius norms settle most subsets without an SVD:
    sigma_min >= 1/||A^-1||_F and sigma_max <= ||A||_F decide the
    singularity test wherever they clear it by a factor 2, and ||D A^-1||_2
    lies between the largest column norm and the Frobenius norm of D A^-1,
    so only subsets whose Frobenius norm reaches the largest lower bound
    (and the maximum so far) need the exact 2-norm. The value is therefore
    the one an SVD of every subset gives, bit for bit. A chunk whose
    inverse fails is decided by SVDs alone.
    """
    from .perturbation import all_subset_masks, subset_sums

    base_ops, deviations = np.asarray(base_ops), np.asarray(deviations)
    n, d = base_ops.shape[:2]
    if n > 14:
        raise ValueError(f"exhaustive subset scan limited to 14 atoms, got {n}")
    # relative room for rounding in the computed norms and singular values
    rel = 8.0 * d * np.finfo(float).eps
    worst = 0.0
    for _, (a, dev) in subset_sums(all_subset_masks(n), base_ops, deviations):
        try:
            inv = np.linalg.inv(a)
            unsure = ~(
                1.0 / np.linalg.norm(inv, axis=(1, 2))
                > 2e-10 * np.maximum(np.linalg.norm(a, axis=(1, 2)), 1.0)
            )
        except np.linalg.LinAlgError:
            inv, unsure = None, np.ones(len(a), dtype=bool)
        if unsure.any():
            svals = np.linalg.svd(a[unsure], compute_uv=False)
            if np.any(svals[:, -1] <= 1e-10 * np.maximum(svals[:, 0], 1.0)):
                return float("inf")
        if inv is None:
            inv = np.linalg.inv(a)
        prod = dev @ inv
        columns = np.einsum("ijk,ijk->ik", prod.conj(), prod).real
        floor = max(worst, float(np.sqrt(columns.max())) * (1.0 - rel))
        exact = np.sqrt(columns.sum(axis=1)) * (1.0 + rel) >= floor
        if exact.any():
            worst = max(worst, float(operator_norms(prod[exact]).max()))
    return worst


def perturbed_resolution_instance(
    dim: int = 4, atoms: int = 6, seed: int = 0, kind: str = "additive"
):
    """Base resolution with a pointwise-close perturbation and matching params.

    kinds: "additive" adds small dense operators with the envelope taken
    from their operator norms and the subset constant computed exactly by
    one exhaustive scan (halving the noise budget halves that constant
    exactly, so the scan runs once per instance); "left" composes with
    id + eps G so the relative constant eps covers the deviation; "uniform"
    rescales the whole family by 1 - eps (every inequality tight);
    "degenerate" returns the base itself with zero parameters.

    Returns (base, perturbed, params, lam).
    """
    from .perturbation import PerturbationParams

    base = random_resolution_family(dim, atoms, seed)
    rng = np.random.default_rng([seed, 1])
    zeros = (0.0,) * atoms
    if kind == "degenerate":
        params = PerturbationParams(0.0, 0.0, zeros)
        return base, base, params, 0.0
    if kind == "uniform":
        eps = 0.1
        perturbed = replace(base, operators=(1.0 - eps) * base.operators)
        return base, perturbed, PerturbationParams(eps, 0.0, zeros), eps
    if kind == "left":
        g = rng.standard_normal((dim, dim))
        g /= operator_norms(g)
        eps = 0.15
        perturbed = replace(base, operators=(np.eye(dim) + eps * g) @ base.operators)
        lam = min(eps * (1.0 + 1e-9), 0.95)
        return base, perturbed, PerturbationParams(lam, 0.0, zeros), lam
    if kind != "additive":
        raise ValueError(f"unknown kind {kind!r}")
    c_const = resolution.resolution_bounds(base).lower
    raw_noise = _unit_norm(rng.standard_normal((atoms, dim, dim)))
    budget = 0.5 * np.sqrt(c_const) * rng.uniform(0.3, 1.0)
    sizes = _simplex(rng, atoms)

    def noise_at(budget):
        # per-atom operator-norm envelope sized to keep the side condition
        scales = budget * np.sqrt(sizes / base.masses) / base.weights
        return scales[:, None, None] * raw_noise

    # the noise is linear in the budget and halving is exact, so the scan at
    # a halved budget is exactly half the last one: scan once, then halve
    lam_exact = _exact_subset_lam(base.operators, -noise_at(budget))
    for _ in range(60):
        if lam_exact < 0.9:
            noise = noise_at(budget)
            lam = lam_exact * (1.0 + 1e-9) + 1e-15
            phi = base.weights * operator_norms(noise) * (1.0 + 1e-12)
            perturbed = replace(base, operators=base.operators + noise)
            return base, perturbed, PerturbationParams(0.0, 0.0, phi), lam
        budget *= 0.5
        lam_exact *= 0.5
    raise RuntimeError(f"no subset-stable perturbation found for seed {seed}")


def composite_instance(
    dim: int = 4, atoms: int = 5, seed: int = 0, kind: str = "scalar"
):
    """Resolution plus a Bessel-dominated family nearly inverting it atomwise.

    kinds: "scalar" builds both families from scalar multiples of the
    identity with small noise, and ValueError names the seed where its one
    draw has side constant <= 1e-6 or lam >= 0.95; "identity" is the
    one-atom identity pair;
    "projector_defect" returns a projector family composed with itself,
    whose additive envelope is forced to one so the side condition fails
    for any positive lambda1 (the check must report that honestly).

    Returns (base, composed_with, params, lam).
    """
    from .perturbation import PerturbationParams, composite_defects

    rng = np.random.default_rng([seed, 2])
    if kind == "identity":
        eye = np.eye(max(dim, 1))
        fam = OperatorFamily(
            operators=(eye,), weights=np.ones(1), masses=np.ones(1),
            sum_mode=SumMode.RAW,
        )
        return fam, fam, PerturbationParams(0.1, 0.0, (0.0,)), 0.0
    if kind == "projector_defect":
        if dim < 2:
            raise ValueError("projector defect needs dim >= 2")
        ops = _projectors(_orthogonal_blocks(dim, 2, rng))
        fam = OperatorFamily(
            operators=ops, weights=np.ones(2), masses=np.ones(2),
            sum_mode=SumMode.RAW,
        )
        lambda1 = 0.1
        phi = np.maximum(composite_defects(fam, ops, lambda1, 0.0), 0.0)
        return fam, fam, PerturbationParams(lambda1, 0.0, phi), 0.0
    if kind != "scalar":
        raise ValueError(f"unknown kind {kind!r}")
    alphas = _simplex(rng, atoms)
    base = OperatorFamily(
        operators=alphas[:, None, None] * np.eye(dim),
        weights=np.ones(atoms), masses=np.ones(atoms),
        sum_mode=SumMode.RAW,
    )
    d_const = float(np.sum(alphas**2))
    lambda1 = float(rng.uniform(0.05, 0.2))
    lambda2 = float(rng.uniform(0.05, 0.3))
    eps = rng.uniform(-0.02, 0.02, atoms)
    eta = 0.005 * float(alphas.min())
    noise = _unit_norm(hermitian_part(rng.standard_normal((atoms, dim, dim))))
    raw_s = (alphas * (1.0 + eps))[:, None, None] * np.eye(dim) + eta * noise
    gram = sum(adjoint(raw_s) @ raw_s)
    top = float(np.linalg.eigvalsh(hermitian_part(gram))[-1])
    s_ops = min(1.0, math.sqrt(d_const / top) * (1.0 - 1e-12)) * raw_s
    lam = (operator_norms(base.operators - s_ops) / alphas).max() * (1.0 + 1e-9)
    phi = np.maximum(composite_defects(base, s_ops, lambda1, lambda2), 0.0) + 1e-12
    side = math.sqrt(atoms) - lambda1 * math.sqrt(d_const) - float(np.linalg.norm(phi))
    if not (side > 1e-6 and lam < 0.95):
        raise ValueError(f"seed {seed} draws side constant {side:.3e} and lam {lam:.3e}")
    return base, replace(base, operators=s_ops), PerturbationParams(lambda1, lambda2, phi), lam
