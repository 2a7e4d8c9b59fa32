"""Canonical and seeded random instances, plus the scenario registry.

Every random draw flows through numpy's default_rng (PCG64), so a seed
fully determines each instance bit for bit on a given NumPy/LAPACK build
(QR, SVD and eigh outputs depend on LAPACK). Each per-atom random quantity
is one stacked draw, and sums over atoms add the stack slice by slice in
atom order. The registry is the single home of the canonical scenarios:
tests, docs and the CLI all build from here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fusion, resolution
from .fusion import WeightedSubspaceFamily
from .hilbert import adjoint, hermitian_part, range_bases
from .measure import DiscretizationScheme, ParameterSpace, discretize
from .perturbation import PerturbationParams, composite_defects, subset_masks, subset_sums
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


def _orthogonal_blocks(dim: int, blocks: int, rng=None) -> tuple:
    """Bases of pairwise orthogonal subspaces jointly spanning the whole space."""
    if rng is None:
        q = np.eye(dim)
    else:
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    ends = np.cumsum(_balanced_partition(dim, blocks))
    return tuple(np.split(q, ends[:-1], axis=1))


def _projectors(bases) -> np.ndarray:
    return np.array([b @ adjoint(b) for b in bases])


def _unit_norm(stack: np.ndarray) -> np.ndarray:
    """Each matrix of a stack divided by its operator norm."""
    return stack / np.linalg.norm(stack, 2, axis=(1, 2))[:, None, None]


def _lines(angles) -> np.ndarray:
    """The lines at ``angles`` in the plane, as one (n, 2, 1) stack of unit vectors."""
    return np.array([(math.cos(t), math.sin(t)) for t in angles])[:, :, None]


def _line_family(angles) -> WeightedSubspaceFamily:
    n = len(angles)
    return WeightedSubspaceFamily(
        subspaces=_lines(angles),
        weights=np.ones(n),
        masses=np.ones(n),
        points=tuple(float(t) for t in angles),
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
    """Seeded random frame of subspaces with spanning ranks and random weights."""
    rng = np.random.default_rng(seed)
    for _ in range(200):
        ranks = rng.integers(1, max(dim, 2), size=atoms)
        if ranks.sum() < dim:
            continue
        fam = WeightedSubspaceFamily(
            subspaces=tuple(_random_basis(rng, dim, int(r)) for r in ranks),
            weights=rng.uniform(0.5, 2.0, atoms),
            masses=rng.uniform(0.5, 2.0, atoms),
        )
        bounds = fusion.frame_bounds(fam)
        if bounds.lower > 1e-9 * max(bounds.upper, 1.0):
            return fam
    raise RuntimeError(f"no spanning family found for seed {seed}")


def rotating_line_family(n: int = 64) -> WeightedSubspaceFamily:
    """Midpoint discretization of the line rotating through [0, pi).

    The continuous family integrates to (pi/2) id, so bounds converge to
    A = B = pi/2; the projector entries are trigonometric polynomials of
    period pi, making the uniform midpoint rule exact up to roundoff.
    """
    space = ParameterSpace.circle(period=math.pi)
    meas = discretize(space, DiscretizationScheme("midpoint", n))
    return WeightedSubspaceFamily(
        subspaces=_lines(meas.points),
        weights=np.ones(meas.natoms),
        masses=meas.masses,
        points=tuple(float(p) for p in meas.points),
    )


def random_resolution_family(
    dim: int = 4, atoms: int = 6, seed: int = 0, rng=None
) -> OperatorFamily:
    """Seeded random raw-mode resolution with strictly positive Gram bounds.

    Operators start as scalar multiples of the identity plus controlled
    noise and are post-multiplied by the inverse of their sum, so the raw
    identity holds exactly up to roundoff.
    """
    rng = np.random.default_rng(seed) if rng is None else rng
    alphas = _simplex(rng, atoms)
    noise = _unit_norm(rng.standard_normal((atoms, dim, dim)))
    weights = rng.uniform(0.5, 2.0, atoms)
    eps = 0.3 / atoms
    for _ in range(50):
        raw = alphas[:, None, None] * np.eye(dim) + eps * noise
        fam = OperatorFamily(
            operators=raw @ np.linalg.inv(sum(raw)),
            weights=weights,
            masses=np.ones(atoms),
            sum_mode=SumMode.RAW,
        )
        rbounds = resolution.resolution_bounds(fam)
        if rbounds.lower > 1e-9 * max(rbounds.upper, 1.0):
            return fam
        eps *= 0.5
    raise RuntimeError(f"no positive-Gram resolution found for seed {seed}")


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
        random_resolution_family(size, atoms, rng=np.random.default_rng([seed, b]))
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
    """Registry entry: a named builder plus closed-form limits when known."""

    name: str
    kind: str  # "fusion" | "resolution" | "continuous"
    description: str
    limit_bounds: tuple | None = None

    def build(self, dim=None, atoms=None, seed=None, n=None):
        if self.name not in _BUILDERS:
            raise ValueError(f"scenario {self.name!r} has no builder")
        builder, defaults = _BUILDERS[self.name]
        given = {"dim": dim, "atoms": atoms, "seed": seed, "n": n}
        small = [k for k in ("dim", "atoms", "n") if given[k] is not None and int(given[k]) < 1]
        if small:
            raise ValueError(f"--{small[0]} must be at least 1, got {given[small[0]]}")
        return builder(**{
            key: default if given[key] is None else int(given[key])
            for key, default in defaults.items()
        })


# Builder of each scenario and the keyword arguments it takes, with their
# defaults; an argument a scenario does not take is ignored.
_BUILDERS = {
    "axes": (axes_family, {"dim": 3}),
    "mercedes": (mercedes_family, {}),
    "equiangular": (equiangular_family, {"atoms": 5}),
    "orthogonal_blocks": (orthogonal_blocks_family, {"dim": 4, "atoms": 2, "seed": 0}),
    "random_fusion": (random_fusion_family, {"dim": 4, "atoms": 6, "seed": 0}),
    "rotating_line": (rotating_line_family, {"n": 64}),
    "basis_resolution": (resolution.from_orthonormal_basis, {"dim": 4}),
    "random_resolution": (random_resolution_family, {"dim": 4, "atoms": 6, "seed": 0}),
    "block_resolution": (block_resolution_family, {"dim": 4, "atoms": 3, "seed": 0}),
}


SCENARIOS = {
    s.name: s
    for s in (
        Scenario("axes", "fusion", "coordinate axes, tight with A = B = 1"),
        Scenario("mercedes", "fusion", "three equiangular lines, A = B = 1.5"),
        Scenario(
            "equiangular", "fusion", "atoms equiangular lines, A = B = atoms/2"
        ),
        Scenario(
            "orthogonal_blocks",
            "fusion",
            "random orthogonal decomposition, A = B = 1",
        ),
        Scenario("random_fusion", "fusion", "seeded random frame of subspaces"),
        Scenario(
            "rotating_line",
            "continuous",
            "line rotating through [0, pi), midpoint-discretized",
            limit_bounds=(math.pi / 2.0, math.pi / 2.0),
        ),
        Scenario(
            "basis_resolution",
            "resolution",
            "rank-one coordinate projectors, raw identity",
        ),
        Scenario(
            "random_resolution", "resolution", "seeded random raw-mode resolution"
        ),
        Scenario(
            "block_resolution",
            "resolution",
            "block-diagonal resolution with genuinely local supports",
        ),
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
    operators and the deviation constant vanishes.
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
    for _ in range(200):
        ranks = rng.integers(1, max(dim, 2), size=atoms)
        if ranks.sum() < dim:
            continue
        projectors = _projectors(_random_basis(rng, dim, int(r)) for r in ranks)
        directions = projectors @ _unit_norm(rng.standard_normal((atoms, dim, dim)))
        eps = 0.3
        for _ in range(40):
            raw = projectors + eps * directions
            total = sum((weights * weights * masses)[:, None, None] * raw)
            svals = np.linalg.svd(total, compute_uv=False)
            if svals[-1] > 1e-6 * svals[0]:
                fam = OperatorFamily(
                    operators=raw @ np.linalg.inv(total),
                    weights=weights,
                    masses=masses,
                    sum_mode=SumMode.WEIGHTED,
                )
                rbounds = resolution.resolution_bounds(fam)
                if rbounds.lower > 1e-9 * max(rbounds.upper, 1.0):
                    return fam
                break
            eps *= 0.5
    raise RuntimeError(f"no invertible weighted sum found for seed {seed}")


def sandwich_instance(
    dim: int = 4, atoms: int = 5, seed: int = 0, scaled_orthogonal: bool = False
):
    """Subspace family plus operators confined to the subspaces, weighted identity.

    The general construction symmetrically conjugates projector-confined
    operators by the inverse square root of their weighted sum, which
    preserves both the confinement and the identity. With
    scaled_orthogonal=True the operators are scaled block projectors whose
    weight-mass products all sit below one, the regime where the linear
    upper bound in the largest operator norm fails.

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
    for _ in range(200):
        ranks = rng.integers(1, max(dim, 2), size=atoms)
        if ranks.sum() < dim:
            continue
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
        kappa = base.natoms / 2.0
    elif kind == "orthogonal":
        base = orthogonal_blocks_family(dim, min(atoms, dim), seed)
        kappa = 1.0
    else:
        raise ValueError(f"unknown kind {kind!r}")
    weights = rng.uniform(0.5, 2.0, base.natoms)
    masses = 1.0 / (kappa * weights)
    return WeightedSubspaceFamily(
        subspaces=base.subspaces,
        weights=weights,
        masses=masses,
        points=base.points,
    )


def vector_frame_instance(
    dim: int = 4, atoms: int = 6, seed: int = 0, nvecs=None
):
    """Raw resolution plus a spanning vector sequence.

    The induced-frame containment needs the sequence to span the whole
    space; this generator redraws until it does.

    Returns (operator_family, vectors).
    """
    base = random_resolution_family(dim, atoms, seed)
    rng = np.random.default_rng([seed, 3])
    count = dim + 2 if nvecs is None else int(nvecs)
    if count < dim:
        raise ValueError(f"need at least dim={dim} vectors to span, got {count}")
    for _ in range(100):
        vecs = rng.standard_normal((dim, count))
        if range_bases(vecs[None])[0].shape[1] == dim:
            return base, tuple(vecs.T)
    raise RuntimeError(f"no spanning sequence found for seed {seed}")


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
        g /= np.linalg.norm(g, 2)
        ops = (eye + lam * g) @ base.operators
    elif kind == "scalar":
        deltas = rng.uniform(-lam, lam, dim)
        ops = (1.0 + deltas)[:, None, None] * base.operators
    else:
        raise ValueError(f"unknown kind {kind!r}")
    perturbed = OperatorFamily(
        operators=ops,
        weights=base.weights,
        masses=base.masses,
        sum_mode=SumMode.RAW,
    )
    return base, perturbed, lam


def _exact_subset_lam(base_ops, deviations) -> float:
    """Largest norm of D_I applied against A_I over all nonempty subsets."""
    base_ops, deviations = np.asarray(base_ops), np.asarray(deviations)
    n = len(base_ops)
    if n > 14:
        raise ValueError(f"exhaustive subset scan limited to 14 atoms, got {n}")
    worst = 0.0
    for _, (a, dev) in subset_sums(subset_masks(n, n, 0), base_ops, deviations):
        svals = np.linalg.svd(a, compute_uv=False)
        if np.any(svals[:, -1] <= 1e-10 * np.maximum(svals[:, 0], 1.0)):
            return float("inf")
        worst = max(worst, float(np.linalg.norm(dev @ np.linalg.inv(a), 2, axis=(1, 2)).max()))
    return worst


def perturbed_resolution_instance(
    dim: int = 4, atoms: int = 6, seed: int = 0, kind: str = "additive"
):
    """Base resolution with a pointwise-close perturbation and matching params.

    kinds: "additive" adds small dense operators with the envelope taken
    from their operator norms and the subset constant computed exactly by
    exhaustive scan; "left" composes with id + eps G so the relative
    constant eps covers the deviation; "uniform" rescales the whole family
    by 1 - eps (every inequality tight); "degenerate" returns the base
    itself with zero parameters.

    Returns (base, perturbed, params, lam).
    """
    base = random_resolution_family(dim, atoms, seed)
    rng = np.random.default_rng([seed, 1])
    zeros = (0.0,) * atoms
    if kind == "degenerate":
        params = PerturbationParams(0.0, 0.0, zeros)
        return base, base, params, 0.0
    if kind == "uniform":
        eps = 0.1
        perturbed = OperatorFamily(
            operators=(1.0 - eps) * base.operators,
            weights=base.weights, masses=base.masses,
            sum_mode=SumMode.RAW,
        )
        return base, perturbed, PerturbationParams(eps, 0.0, zeros), eps
    if kind == "left":
        g = rng.standard_normal((dim, dim))
        g /= np.linalg.norm(g, 2)
        eps = 0.15
        perturbed = OperatorFamily(
            operators=(np.eye(dim) + eps * g) @ base.operators,
            weights=base.weights, masses=base.masses,
            sum_mode=SumMode.RAW,
        )
        lam = min(eps * (1.0 + 1e-9), 0.95)
        return base, perturbed, PerturbationParams(lam, 0.0, zeros), lam
    if kind != "additive":
        raise ValueError(f"unknown kind {kind!r}")
    c_const = resolution.resolution_bounds(base).lower
    raw_noise = _unit_norm(rng.standard_normal((atoms, dim, dim)))
    budget = 0.5 * np.sqrt(c_const) * rng.uniform(0.3, 1.0)
    sizes = _simplex(rng, atoms)
    for _ in range(60):
        # per-atom operator-norm envelope sized to keep the side condition
        scales = budget * np.sqrt(sizes / base.masses) / base.weights
        noise = scales[:, None, None] * raw_noise
        lam_exact = _exact_subset_lam(base.operators, -noise)
        if lam_exact < 0.9:
            lam = lam_exact * (1.0 + 1e-9) + 1e-15
            phi = base.weights * np.linalg.norm(noise, 2, axis=(1, 2)) * (1.0 + 1e-12)
            perturbed = OperatorFamily(
                operators=base.operators + noise,
                weights=base.weights, masses=base.masses,
                sum_mode=SumMode.RAW,
            )
            return base, perturbed, PerturbationParams(0.0, 0.0, phi), lam
        budget *= 0.5
    raise RuntimeError(f"no subset-stable perturbation found for seed {seed}")


def composite_instance(
    dim: int = 4, atoms: int = 5, seed: int = 0, kind: str = "scalar"
):
    """Resolution plus a Bessel-dominated family nearly inverting it atomwise.

    kinds: "scalar" builds both families from scalar multiples of the
    identity with small noise, shrinking the noise until the side constant
    is strictly positive; "identity" is the one-atom identity pair;
    "projector_defect" returns a projector family composed with itself,
    whose additive envelope is forced to one so the side condition fails
    for any positive lambda1 (the check must report that honestly).

    Returns (base, composed_with, params, lam).
    """
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
    for _ in range(60):
        raw_s = (alphas * (1.0 + eps))[:, None, None] * np.eye(dim) + eta * noise
        gram = sum(adjoint(raw_s) @ raw_s)
        top = float(np.linalg.eigvalsh(hermitian_part(gram))[-1])
        c = min(1.0, math.sqrt(d_const / top) * (1.0 - 1e-12))
        s_ops = c * raw_s
        lam = (
            np.linalg.norm(base.operators - s_ops, 2, axis=(1, 2)) / alphas
        ).max() * (1.0 + 1e-9)
        phi = np.maximum(composite_defects(base, s_ops, lambda1, lambda2), 0.0) + 1e-12
        side = math.sqrt(atoms) - lambda1 * math.sqrt(d_const) - float(
            np.linalg.norm(phi)
        )
        if side > 1e-6 and lam < 0.95:
            family = OperatorFamily(
                operators=s_ops, weights=base.weights, masses=base.masses,
                sum_mode=SumMode.RAW,
            )
            return base, family, PerturbationParams(lambda1, lambda2, phi), lam
        eps = eps * 0.5
        eta *= 0.5
        lambda1 *= 0.7
    raise RuntimeError(f"no valid composite instance found for seed {seed}")
