"""Every stacked-array computation against a per-atom reference sum.

Families are drawn over real and complex scalars; the references loop over
atoms, or over index subsets, exactly as the definitions read.
"""
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab import fusion, hilbert, instances, perturbation, resolution, theorems
from framelab.errors import DimensionMismatchError
from framelab.fusion import WeightedSubspaceFamily
from framelab.hilbert import Subspace, adjoint
from framelab.measure import DiscretizationScheme, ParameterSpace, discretize
from framelab.perturbation import PerturbationParams
from framelab.resolution import OperatorFamily, SumMode

REL = 1e-12


def _close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= REL * np.linalg.norm(want)


def _draw(rng, shape, complex_):
    a = rng.standard_normal(shape)
    return a + 1j * rng.standard_normal(shape) if complex_ else a


families = st.tuples(
    st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 7), st.booleans()
)


def _subspace_family(seed, dim, atoms, complex_):
    rng = np.random.default_rng(seed)
    ranks = rng.integers(0, dim + 1, size=atoms)
    ranks[0] = max(ranks[0], 1)
    subs = tuple(
        Subspace(np.linalg.qr(_draw(rng, (dim, r), complex_))[0][:, :r]) for r in ranks
    )
    fam = WeightedSubspaceFamily(
        subspaces=subs,
        weights=rng.uniform(0.5, 2.0, atoms),
        masses=rng.uniform(0.5, 2.0, atoms),
    )
    return fam, _draw(rng, (dim, 3), complex_)


def _operator_family(seed, dim, atoms, complex_):
    rng = np.random.default_rng(seed)
    ops = _draw(rng, (atoms, dim, dim), complex_)
    ops[rng.random(atoms) < 0.3] = 0.0  # atoms that miss every vector
    mode = SumMode.WEIGHTED if rng.random() < 0.5 else SumMode.RAW
    fam = OperatorFamily(
        operators=tuple(ops),
        weights=rng.uniform(0.5, 2.0, atoms),
        masses=rng.uniform(0.5, 2.0, atoms),
        sum_mode=mode,
    )
    return fam, _draw(rng, (dim, 3), complex_)


def _atoms(fam):
    return zip(fam.subspaces, fam.weights**2 * fam.masses)


@settings(max_examples=40, deadline=None)
@given(families)
def test_subspace_family_core_matches_per_atom_sums(args):
    fam, probes = _subspace_family(*args)
    d = fam.ambient_dim
    s_ref = np.zeros((d, d), dtype=complex)
    for sub, c in _atoms(fam):
        s_ref += c * sub.projector()
    _close(fusion.frame_operator(fam), s_ref)

    for f in probes.T:
        _close(fusion.apply_frame_operator(fam, f), sum(c * sub.project(f) for sub, c in _atoms(fam)))
        sum_ref = sum(c * np.linalg.norm(sub.project(f)) ** 2 for sub, c in _atoms(fam))
        _close(fusion.frame_sum(fam, f), sum_ref)

    t_ref = np.concatenate(
        [w * np.sqrt(mu) * sub.basis for sub, w, mu in zip(fam.subspaces, fam.weights, fam.masses)],
        axis=1,
    )
    _close(fusion.synthesis_matrix(fam), t_ref)

    _close(fam.projectors(), np.stack([sub.projector() for sub in fam.subspaces]))
    f = probes[:, 0]
    blocks = [w * sub.project(f) for sub, w in zip(fam.subspaces, fam.weights)]
    coeffs = fusion.analysis(fam, f)
    _close(np.stack(coeffs.blocks), np.stack(blocks))
    synth_ref = sum(w * mu * b for b, w, mu in zip(blocks, fam.weights, fam.masses))
    _close(fusion.synthesis(fam, coeffs), synth_ref)
    cross_ref = max(
        (
            np.linalg.norm(a.basis.conj().T @ b.basis, 2)
            for a, b in itertools.combinations(fam.subspaces, 2)
            if a.rank and b.rank
        ),
        default=0.0,
    )
    assert theorems.orthogonality_defect(fam) == pytest.approx(cross_ref, rel=REL, abs=0.0)


@settings(max_examples=40, deadline=None)
@given(families)
def test_operator_family_core_matches_per_atom_sums(args):
    fam, probes = _operator_family(*args)
    d = fam.ambient_dim
    gram_coef = fam.weights**2 * fam.masses
    m_ref = np.zeros((d, d), dtype=complex)
    for t, c in zip(fam.operators, gram_coef):
        m_ref += c * (t.conj().T @ t)
    if np.linalg.norm(m_ref) == 0.0:
        assert np.linalg.norm(resolution.resolution_gram(fam)) == 0.0
    else:
        _close(resolution.resolution_gram(fam), m_ref)

    sum_ref = np.zeros((d, d), dtype=complex)
    for t, c in zip(fam.operators, fam.sum_coefficients()):
        sum_ref += c * t
    if np.linalg.norm(sum_ref) == 0.0:
        assert np.linalg.norm(fam.identity_sum_matrix()) == 0.0
    else:
        _close(fam.identity_sum_matrix(), sum_ref)

    for f in probes.T:
        gram_ref = sum(c * np.linalg.norm(t @ f) ** 2 for t, c in zip(fam.operators, gram_coef))
        assert resolution.gram_sum(fam, f) == pytest.approx(gram_ref, rel=REL, abs=0.0)
        support_ref = tuple(
            i for i, t in enumerate(fam.operators)
            if np.linalg.norm(t @ f) > 1e-10 * np.linalg.norm(f)
        )
        assert resolution.support(fam, f) == support_ref

    sup_ref = max(np.linalg.norm(t, 2) for t in fam.operators)
    assert fam.sup_norm() == pytest.approx(sup_ref, rel=REL, abs=0.0)


def _reference_subset_masks(natoms, limit, nrandom, rng=None):
    """The subset enumeration as a generator, one subset at a time."""
    if natoms <= limit:
        for mask in itertools.product((False, True), repeat=natoms):
            if any(mask):
                yield np.array(mask)
        return
    eye = np.eye(natoms, dtype=bool)
    for i in range(natoms):
        yield eye[i]
    cumulative = np.zeros(natoms, dtype=bool)
    for i in range(natoms):
        cumulative = cumulative.copy()
        cumulative[i] = True
        yield cumulative
    rng = np.random.default_rng(0) if rng is None else rng
    produced = 0
    while produced < nrandom:
        mask = rng.random(natoms) < rng.uniform(0.1, 0.9)
        if mask.any():
            produced += 1
            yield mask


@pytest.mark.parametrize(
    "natoms, limit, nrandom", [(5, 12, 10_000), (12, 12, 10_000), (14, 12, 300)]
)
def test_subset_masks_reproduce_the_enumeration(natoms, limit, nrandom):
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    masks = perturbation.subset_masks(natoms, limit, nrandom, rng)
    ref = np.array(list(_reference_subset_masks(natoms, limit, nrandom, ref_rng)))
    assert masks.dtype == bool
    assert np.array_equal(masks, ref)
    # the sampled path leaves the generator where the enumeration left it
    assert rng.random() == ref_rng.random()


def _reference_worst_margin(base, perturbed, lam, limit, nrandom, rng):
    worst, checked = np.inf, 0
    deviations = base.operators - perturbed.operators
    for mask in _reference_subset_masks(base.natoms, limit, nrandom, rng):
        a = base.operators[mask].sum(axis=0)
        dev = deviations[mask].sum(axis=0)
        cert = hilbert.hermitian_part(lam * lam * (adjoint(a) @ a) - adjoint(dev) @ dev)
        scale = max(1.0, lam * lam * float(np.linalg.norm(a, 2)) ** 2)
        worst = min(worst, float(hilbert.self_adjoint_spectrum(cert)[0]) / scale)
        checked += 1
    return worst, checked


def _reference_exact_lam(base_ops, deviations):
    worst = 0.0
    for mask in _reference_subset_masks(len(base_ops), len(base_ops), 0):
        a = base_ops[mask].sum(axis=0)
        dev = deviations[mask].sum(axis=0)
        svals = np.linalg.svd(a, compute_uv=False)
        if svals[-1] <= 1e-10 * max(svals[0], 1.0):
            return float("inf")
        worst = max(worst, float(np.linalg.norm(dev @ np.linalg.inv(a), 2)))
    return worst


def _perturbed_sum_pair(seed, dim, atoms, complex_, lam):
    """A raw-mode resolution (operators summing to the identity) and a perturbation of it."""
    rng = np.random.default_rng(seed)
    ops = np.eye(dim) + _draw(rng, (atoms, dim, dim), complex_) / (4 * dim)
    ops = ops @ np.linalg.inv(ops.sum(axis=0))
    noise = lam * _draw(rng, (atoms, dim, dim), complex_) / (1.5 * atoms * dim)
    base, perturbed = (
        OperatorFamily(
            operators=tuple(stack),
            weights=np.ones(atoms),
            masses=np.ones(atoms),
            sum_mode=SumMode.RAW,
        )
        for stack in (ops, ops + noise)
    )
    return base, perturbed, -noise


@settings(max_examples=40, deadline=None)
@given(families, st.floats(0.05, 0.95), st.booleans())
def test_subset_scanner_matches_per_subset_loop(args, lam, sampled):
    _check_scanner(*args, lam, sampled)


@pytest.mark.parametrize("complex_", [False, True])
def test_subset_scanner_spans_several_chunks(complex_):
    # the 1023 subsets of 10 atoms span several chunks of the scanner
    assert 2**10 > 2 * perturbation._SUBSET_CHUNK
    _check_scanner(3, 3, 10, complex_, 0.5, False)


def _check_scanner(seed, dim, atoms, complex_, lam, sampled):
    base, perturbed, deviations = _perturbed_sum_pair(seed, dim, atoms, complex_, lam)
    limit = atoms - 1 if sampled else 12
    nrandom = 50
    report, total = perturbation.verify_perturbed_sum(
        base, perturbed, lam, subset_limit=limit, nrandom=nrandom,
        rng=np.random.default_rng(seed),
    )
    worst, checked = _reference_worst_margin(
        base, perturbed, lam, limit, nrandom, np.random.default_rng(seed)
    )
    assert report.constants["subsets_checked"] == checked
    assert report.constants["worst_subset_margin"] == pytest.approx(worst, rel=REL, abs=1e-14)
    assert any(("sampled" if sampled else "exhaustive") in note for note in report.notes)
    sigmas = np.linalg.svd(total, compute_uv=False)
    verdict = (
        worst >= -1e-10
        and np.linalg.norm(np.eye(dim) - total, 2) <= lam + 1e-9
        and sigmas[-1] >= 1.0 - lam - 1e-9
    )
    assert report.passed == verdict

    lam_exact = instances._exact_subset_lam(base.operators, deviations)
    lam_ref = _reference_exact_lam(base.operators, deviations)
    if np.isinf(lam_ref):
        assert np.isinf(lam_exact)
    else:
        assert lam_exact == pytest.approx(lam_ref, rel=REL, abs=1e-14)


def test_exact_subset_lam_is_infinite_when_a_subset_sum_is_singular():
    eye = np.eye(3)
    base_ops = np.stack([eye, -eye, 2.0 * eye])  # atoms 0 and 1 cancel
    deviations = 0.01 * np.ones((3, 3, 3))
    assert instances._exact_subset_lam(base_ops, deviations) == float("inf")
    # dropping the cancelling atom leaves every subset sum invertible
    assert np.isfinite(instances._exact_subset_lam(base_ops[[0, 2]], deviations[[0, 2]]))


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_subset_masks_peak_stays_near_the_kept_matrix():
    masks, peak = _traced_peak(lambda: perturbation.subset_masks(18, 18, 0))
    assert masks.shape == (2**18 - 1, 18)
    assert peak <= 2 * masks.nbytes


# -- the family's stacked basis check ---------------------------------------


def _random_bases(rng, dim, ranks, complex_=False):
    return [np.linalg.qr(_draw(rng, (dim, r), complex_))[0][:, :r] for r in ranks]


def _identical(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _same_family(fam, ref):
    assert _identical(fam.basis, ref.basis)
    assert _identical(fam.column_atom, ref.column_atom)
    assert _identical(fam.weights, ref.weights)
    assert _identical(fam.masses, ref.masses)
    assert fam.points == ref.points
    assert all(_identical(a.basis, b.basis) for a, b in zip(fam.subspaces, ref.subspaces))


def test_family_retains_only_its_stacked_basis():
    # 64 x 400 with ranks 1-16: once built, the family holds basis and
    # column_atom and no second copy of the bases
    rng = np.random.default_rng(5)
    bases = _random_bases(rng, 64, rng.integers(1, 17, size=400))
    weights, masses = rng.uniform(0.5, 2.0, 400), rng.uniform(0.5, 2.0, 400)
    tracemalloc.start()
    try:
        fam = WeightedSubspaceFamily(bases, weights, masses)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained <= 1.1 * (fam.basis.nbytes + fam.column_atom.nbytes)


@pytest.mark.parametrize("atom", [0, 57, 83, 99])
def test_stacked_check_names_the_non_orthonormal_atom(atom):
    # 100 atoms span two check chunks; the bad atom may sit in either
    assert 100 > fusion._CHECK_CHUNK
    rng = np.random.default_rng(atom)
    bases = _random_bases(rng, 3, rng.integers(1, 4, size=100))
    bases[atom] = bases[atom] * (1.0 + 1e-8)
    with pytest.raises(ValueError, match=rf"^atom {atom} basis columns not orthonormal"):
        WeightedSubspaceFamily(bases, np.ones(100), np.ones(100))
    # as a Subspace the same basis fails the public constructor's own check
    with pytest.raises(ValueError, match="not orthonormal"):
        Subspace(bases[atom])
    # a deviation below the threshold passes, as it does for Subspace
    bases[atom] = bases[atom] / (1.0 + 1e-8) * (1.0 + 1e-13)
    WeightedSubspaceFamily(bases, np.ones(100), np.ones(100))
    Subspace(bases[atom])


@pytest.mark.parametrize("atom", [3, 70])
def test_stacked_check_names_the_non_finite_atom(atom):
    rng = np.random.default_rng(1)
    bases = _random_bases(rng, 3, np.full(100, 2))
    bases[atom][1, 0] = np.nan
    with pytest.raises(ValueError, match=rf"^atom {atom} basis entry \(1, 0\) is not finite \(nan\)"):
        WeightedSubspaceFamily(bases, np.ones(100), np.ones(100))


def test_stacked_check_rejects_a_flat_atom():
    with pytest.raises(DimensionMismatchError, match="atom 1 basis must be 2-d"):
        WeightedSubspaceFamily([np.eye(2)[:, :1], np.ones(2)], np.ones(2), np.ones(2))


def test_stacked_check_accepts_rank_zero_and_complex_atoms():
    rng = np.random.default_rng(2)
    complex_basis = _random_bases(rng, 3, [2], complex_=True)[0]
    atoms = [np.zeros((3, 0)), complex_basis, np.eye(3)[:, 2:]]
    fam = WeightedSubspaceFamily(atoms, np.ones(3), np.ones(3))
    assert fam.ranks == (0, 2, 1)
    assert all(isinstance(sub, Subspace) for sub in fam.subspaces)
    assert fam.subspaces[0].rank == 0
    assert np.array_equal(fam.subspaces[1].basis, complex_basis)
    s_ref = complex_basis @ adjoint(complex_basis) + np.diag([0.0, 0.0, 1.0])
    _close(fusion.frame_operator(fam), s_ref)


@settings(max_examples=40, deadline=None)
@given(families)
def test_family_from_arrays_equals_family_from_subspaces(args):
    seed, dim, atoms, complex_ = args
    rng = np.random.default_rng(seed)
    ranks = rng.integers(0, dim + 1, size=atoms)
    ranks[0] = max(ranks[0], 1)
    bases = _random_bases(rng, dim, ranks, complex_)
    weights, masses = rng.uniform(0.5, 2.0, atoms), rng.uniform(0.5, 2.0, atoms)
    from_arrays = WeightedSubspaceFamily(bases, weights, masses)
    from_subspaces = WeightedSubspaceFamily([Subspace(b) for b in bases], weights, masses)
    _same_family(from_arrays, from_subspaces)
    assert fusion.frame_bounds(from_arrays) == fusion.frame_bounds(from_subspaces)


# -- builders against per-atom reference constructions ----------------------


def _reference_lines(angles, masses, points):
    subs = tuple(Subspace(np.array([[math.cos(t)], [math.sin(t)]])) for t in angles)
    return WeightedSubspaceFamily(subs, np.ones(len(subs)), masses, points)


def _reference_range(a):
    """Subspace on the range of one matrix, by its own SVD and the 1e-12 rank rule."""
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return Subspace(u[:, : int(np.count_nonzero(s > 1e-12 * s[0]))])


def _reference_random_fusion(dim, atoms, seed):
    rng = np.random.default_rng(seed)
    for _ in range(200):
        ranks = rng.integers(1, max(dim, 2), size=atoms)
        if ranks.sum() < dim:
            continue
        subs = tuple(Subspace(b) for b in _random_bases(rng, dim, ranks))
        fam = WeightedSubspaceFamily(
            subs, rng.uniform(0.5, 2.0, atoms), rng.uniform(0.5, 2.0, atoms)
        )
        bounds = fusion.frame_bounds(fam)
        if bounds.lower > 1e-9 * max(bounds.upper, 1.0):
            return fam
    raise AssertionError("no spanning family")


def _reference_sandwich(dim, atoms, seed):
    rng = np.random.default_rng(seed)
    weights, masses = rng.uniform(0.5, 2.0, atoms), rng.uniform(0.5, 2.0, atoms)
    for _ in range(200):
        ranks = rng.integers(1, max(dim, 2), size=atoms)
        if ranks.sum() < dim:
            continue
        bases = _random_bases(rng, dim, ranks)
        total = np.zeros((dim, dim))
        for u, w, mu in zip(bases, weights, masses):
            g = rng.standard_normal((dim, dim))
            g = (g + g.T) / 2.0
            g /= np.linalg.norm(g, 2)
            p = u @ u.T
            total = total + (w * w * mu) * (p @ (np.eye(dim) + 0.25 * g) @ p)
        evals, evecs = np.linalg.eigh((total + total.T) / 2.0)
        if evals[0] <= 1e-6 * evals[-1]:
            continue
        inv_sqrt = (evecs / np.sqrt(evals)) @ evecs.T
        subs = tuple(_reference_range(inv_sqrt @ u) for u in bases)
        return WeightedSubspaceFamily(subs, weights, masses)
    raise AssertionError("no positive weighted sum")


def _same_operators(fam, ref):
    assert fam.sum_mode is ref.sum_mode
    assert _identical(fam.operators, ref.operators)
    assert _identical(fam.weights, ref.weights)
    assert _identical(fam.masses, ref.masses)
    assert fam.points == ref.points


def _same_instance(got, want):
    """Builder outputs equal part by part, every array and number by its bytes."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(a, OperatorFamily):
            _same_operators(a, b)
        elif isinstance(a, PerturbationParams):
            assert _identical([a.lambda1, a.lambda2, *a.phi], [b.lambda1, b.lambda2, *b.phi])
        else:
            assert _identical(a, b)


def _reference_simplex(rng, n):
    e = rng.exponential(1.0, n)
    return e / e.sum()


def _reference_blocks(rng, dim, blocks):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    sizes = [dim // blocks + (i < dim % blocks) for i in range(blocks)]
    return np.split(q, np.cumsum(sizes)[:-1], axis=1)


def _reference_random_resolution(dim, atoms, rng):
    alphas = _reference_simplex(rng, atoms)
    noise = []
    for _ in range(atoms):
        g = rng.standard_normal((dim, dim))
        noise.append(g / np.linalg.norm(g, 2))
    weights = rng.uniform(0.5, 2.0, atoms)
    eps = 0.3 / atoms
    for _ in range(50):
        raw = [a * np.eye(dim) + eps * g for a, g in zip(alphas, noise)]
        total = np.zeros((dim, dim))
        for t in raw:
            total = total + t
        ops = tuple(t @ np.linalg.inv(total) for t in raw)
        fam = OperatorFamily(ops, weights, np.ones(atoms), SumMode.RAW)
        bounds = resolution.resolution_bounds(fam)
        if bounds.lower > 1e-9 * max(bounds.upper, 1.0):
            return fam
        eps *= 0.5
    raise AssertionError("no positive-Gram resolution")


def _reference_block_resolution(dim, atoms, seed):
    sizes = [(dim + 1) // 2, dim // 2]
    operators, weights = [], []
    for b, size in enumerate(sizes):
        part = _reference_random_resolution(size, atoms, np.random.default_rng([seed, b]))
        lo = b * sizes[0]
        for t, w in zip(part.operators, part.weights):
            big = np.zeros((dim, dim))
            big[lo : lo + size, lo : lo + size] = t
            operators.append(big)
            weights.append(w)
    return OperatorFamily(tuple(operators), np.asarray(weights), np.ones(len(operators)), SumMode.RAW)


def _reference_induced(dim, atoms, seed, exact):
    rng = np.random.default_rng(seed)
    if exact:
        blocks = min(atoms, dim)
        weights = rng.uniform(0.5, 2.0, blocks)
        ops = tuple(b @ b.T for b in _reference_blocks(rng, dim, blocks))
        return OperatorFamily(ops, weights, 1.0 / weights**2, SumMode.WEIGHTED)
    weights, masses = rng.uniform(0.5, 2.0, atoms), rng.uniform(0.5, 2.0, atoms)
    for _ in range(200):
        ranks = rng.integers(1, max(dim, 2), size=atoms)
        if ranks.sum() < dim:
            continue
        projectors = [u @ u.T for u in _random_bases(rng, dim, ranks)]
        directions = [rng.standard_normal((dim, dim)) for _ in range(atoms)]
        eps = 0.3
        for _ in range(40):
            raw = [
                p + eps * (p @ (g / np.linalg.norm(g, 2)))
                for p, g in zip(projectors, directions)
            ]
            total = np.zeros((dim, dim))
            for t, w, mu in zip(raw, weights, masses):
                total = total + (w * w * mu) * t
            svals = np.linalg.svd(total, compute_uv=False)
            if svals[-1] > 1e-6 * svals[0]:
                inv = np.linalg.inv(total)
                fam = OperatorFamily(tuple(t @ inv for t in raw), weights, masses, SumMode.WEIGHTED)
                bounds = resolution.resolution_bounds(fam)
                if bounds.lower > 1e-9 * max(bounds.upper, 1.0):
                    return fam
                break
            eps *= 0.5
    raise AssertionError("no invertible weighted sum")


def _reference_perturbed_sum(dim, seed, kind, lam):
    base = resolution.from_orthonormal_basis(dim)
    rng = np.random.default_rng(seed)
    eye = np.eye(dim)
    if kind == "columns":
        u = rng.standard_normal((dim, dim))
        u *= lam / np.linalg.norm(u)
        ops = tuple(np.outer(eye[:, i] + u[:, i], eye[:, i]) for i in range(dim))
    elif kind == "left":
        g = rng.standard_normal((dim, dim))
        g /= np.linalg.norm(g, 2)
        factor = eye + lam * g
        ops = tuple(factor @ t for t in base.operators)
    else:
        deltas = rng.uniform(-lam, lam, dim)
        ops = tuple((1.0 + d) * t for d, t in zip(deltas, base.operators))
    return base, OperatorFamily(ops, base.weights, base.masses, SumMode.RAW), lam


def _reference_perturbed_resolution(dim, atoms, seed, kind):
    base = _reference_random_resolution(dim, atoms, np.random.default_rng(seed))
    rng = np.random.default_rng([seed, 1])
    zeros = (0.0,) * atoms

    def family(ops):
        return OperatorFamily(ops, base.weights, base.masses, SumMode.RAW)

    if kind == "uniform":
        eps = 0.1
        ops = tuple((1.0 - eps) * t for t in base.operators)
        return base, family(ops), PerturbationParams(eps, 0.0, zeros), eps
    if kind == "left":
        g = rng.standard_normal((dim, dim))
        g /= np.linalg.norm(g, 2)
        eps = 0.15
        factor = np.eye(dim) + eps * g
        lam = min(eps * (1.0 + 1e-9), 0.95)
        ops = tuple(factor @ t for t in base.operators)
        return base, family(ops), PerturbationParams(lam, 0.0, zeros), lam
    c_const = resolution.resolution_bounds(base).lower
    raw_noise = []
    for _ in range(atoms):
        g = rng.standard_normal((dim, dim))
        raw_noise.append(g / np.linalg.norm(g, 2))
    budget = 0.5 * np.sqrt(c_const) * rng.uniform(0.3, 1.0)
    sizes = _reference_simplex(rng, atoms)
    for _ in range(60):
        scales = budget * np.sqrt(sizes / base.masses) / base.weights
        noise = [s * g for s, g in zip(scales, raw_noise)]
        lam_exact = instances._exact_subset_lam(base.operators, [-e for e in noise])
        if lam_exact < 0.9:
            phi = tuple(
                float(w * np.linalg.norm(e, 2)) * (1.0 + 1e-12)
                for w, e in zip(base.weights, noise)
            )
            ops = tuple(t + e for t, e in zip(base.operators, noise))
            lam = lam_exact * (1.0 + 1e-9) + 1e-15
            return base, family(ops), PerturbationParams(0.0, 0.0, phi), lam
        budget *= 0.5
    raise AssertionError("no subset-stable perturbation")


def _reference_composite(dim, atoms, seed, kind):
    rng = np.random.default_rng([seed, 2])
    eye = np.eye(dim)
    if kind == "projector_defect":
        ops = tuple(b @ b.T for b in _reference_blocks(rng, dim, 2))
        fam = OperatorFamily(ops, np.ones(2), np.ones(2), SumMode.RAW)
        phi = [
            max(0.0, float(
                np.linalg.norm(eye - t @ t, 2) - 0.1 * np.linalg.svd(t, compute_uv=False)[-1]
            ))
            for t in ops
        ]
        return fam, fam, PerturbationParams(0.1, 0.0, tuple(phi)), 0.0
    alphas = _reference_simplex(rng, atoms)
    base_ops = tuple(a * eye for a in alphas)
    d_const = float(np.sum(alphas**2))
    lambda1 = float(rng.uniform(0.05, 0.2))
    lambda2 = float(rng.uniform(0.05, 0.3))
    eps = rng.uniform(-0.02, 0.02, atoms)
    eta = 0.005 * float(alphas.min())
    noise = []
    for _ in range(atoms):
        g = rng.standard_normal((dim, dim))
        g = (g + g.T) / 2.0
        noise.append(g / np.linalg.norm(g, 2))
    for _ in range(60):
        raw_s = [a * (1.0 + e) * eye + eta * g for a, e, g in zip(alphas, eps, noise)]
        gram = np.zeros((dim, dim))
        for s in raw_s:
            gram = gram + s.T @ s
        top = float(np.linalg.eigvalsh((gram + gram.T) / 2.0)[-1])
        c = min(1.0, math.sqrt(d_const / top) * (1.0 - 1e-12))
        s_ops = tuple(c * s for s in raw_s)
        lam = max(
            float(np.linalg.norm(t - s, 2)) / a for t, s, a in zip(base_ops, s_ops, alphas)
        ) * (1.0 + 1e-9)
        phi = []
        for t, s in zip(base_ops, s_ops):
            ts = t @ s
            defect = (
                np.linalg.norm(eye - ts, 2)
                - lambda1 * np.linalg.svd(t, compute_uv=False)[-1]
                - lambda2 * np.linalg.svd(ts, compute_uv=False)[-1]
            )
            phi.append(max(0.0, float(defect)) + 1e-12)
        side = math.sqrt(atoms) - lambda1 * math.sqrt(d_const) - float(np.linalg.norm(phi))
        if side > 1e-6 and lam < 0.95:
            ones = np.ones(atoms)
            return (
                OperatorFamily(base_ops, ones, ones, SumMode.RAW),
                OperatorFamily(s_ops, ones, ones, SumMode.RAW),
                PerturbationParams(lambda1, lambda2, tuple(phi)),
                lam,
            )
        eps = eps * 0.5
        eta *= 0.5
        lambda1 *= 0.7
    raise AssertionError("no valid composite instance")


@pytest.mark.parametrize("complex_", [False, True])
def test_range_bases_match_per_matrix_svd(complex_):
    rng = np.random.default_rng(4)
    low_rank = _draw(rng, (4, 2), complex_) @ _draw(rng, (2, 4), complex_)
    stack = np.stack([
        _draw(rng, (4, 4), complex_),
        1e-14 * low_rank,  # the rank rule is relative to the largest singular value
        np.zeros((4, 4)),
        low_rank,
    ])
    bases = hilbert.range_bases(stack)
    assert [b.shape[1] for b in bases] == [4, 2, 0, 2]
    for got, a in zip(bases, stack):
        assert _identical(got, _reference_range(a).basis)


@pytest.mark.parametrize("n", [1, 8, 13, 64, 200])
def test_rotating_line_family_matches_per_atom_lines(n):
    meas = discretize(ParameterSpace.circle(period=math.pi), DiscretizationScheme("midpoint", n))
    ref = _reference_lines(meas.points, meas.masses, tuple(float(p) for p in meas.points))
    _same_family(instances.rotating_line_family(n), ref)


@pytest.mark.parametrize("atoms", [2, 3, 5, 17])
def test_equiangular_family_matches_per_atom_lines(atoms):
    angles = [k * math.pi / atoms for k in range(atoms)]
    ref = _reference_lines(angles, np.ones(atoms), tuple(float(t) for t in angles))
    _same_family(instances.equiangular_family(atoms), ref)


@pytest.mark.parametrize("seed", range(8))
def test_random_builders_match_per_atom_references(seed):
    # atoms run up to 9, past the 8 where NumPy's sum(axis=0) turns pairwise
    dim, atoms = 2 + seed % 5, 2 + seed
    _same_family(
        instances.random_fusion_family(dim, atoms, seed),
        _reference_random_fusion(dim, atoms, seed),
    )
    _same_family(
        instances.sandwich_instance(dim, atoms, seed)[0],
        _reference_sandwich(dim, atoms, seed),
    )
    ops = instances.induced_frame_instance(dim, atoms, seed)
    _, induced = theorems.verify_induced_fusion_frame(ops)
    ref = WeightedSubspaceFamily(
        tuple(_reference_range(t) for t in ops.operators), ops.weights, ops.masses, ops.points
    )
    _same_family(induced, ref)
    _same_operators(ops, _reference_induced(dim, atoms, seed, exact=False))
    _same_operators(
        instances.induced_frame_instance(dim, atoms, seed, exact=True),
        _reference_induced(dim, atoms, seed, exact=True),
    )
    _same_operators(
        instances.random_resolution_family(dim, atoms, seed),
        _reference_random_resolution(dim, atoms, np.random.default_rng(seed)),
    )
    _same_operators(
        instances.block_resolution_family(dim, atoms, seed),
        _reference_block_resolution(dim, atoms, seed),
    )
    for kind in ("columns", "left", "scalar"):
        _same_instance(
            instances.perturbed_sum_instance(dim, seed, kind),
            _reference_perturbed_sum(dim, seed, kind, 0.5),
        )
    for kind in ("additive", "left", "uniform"):
        _same_instance(
            instances.perturbed_resolution_instance(dim, atoms, seed, kind),
            _reference_perturbed_resolution(dim, atoms, seed, kind),
        )
    for kind in ("scalar", "projector_defect"):
        _same_instance(
            instances.composite_instance(dim, atoms, seed, kind),
            _reference_composite(dim, atoms, seed, kind),
        )


def test_builders_construct_no_subspace_per_atom(monkeypatch):
    checked = []
    original = Subspace.__post_init__

    def counting(self):
        checked.append(self)
        original(self)

    monkeypatch.setattr(Subspace, "__post_init__", counting)
    instances.rotating_line_family(64)
    instances.equiangular_family(9)
    instances.mercedes_family()
    instances.axes_family(4)
    instances.orthogonal_blocks_family(6, 3, 1)
    instances.random_fusion_family(6, 8, 1)
    instances.sandwich_instance(5, 6, 1)
    instances.sandwich_instance(5, 6, 1, scaled_orthogonal=True)
    instances.projection_identity_instance(6, 1, "orthogonal", 5)
    theorems.verify_induced_fusion_frame(instances.induced_frame_instance(5, 6, 1))
    instances.vector_frame_instance(5, 6, 1)
    assert checked == []


@pytest.mark.parametrize("complex_", [False, True])
def test_induced_check_holds_few_stacks_at_once(complex_):
    # the induced family's bases, its padded bases, the deviation stack and
    # stacked_gram's one scaled copy: about four operator stacks at the peak
    rng = np.random.default_rng(3)
    dim, atoms = 32, 200
    ops = _draw(rng, (atoms, dim, dim), complex_)
    fam = OperatorFamily(
        operators=ops,
        weights=rng.uniform(0.5, 2.0, atoms),
        masses=rng.uniform(0.5, 2.0, atoms),
        sum_mode=SumMode.WEIGHTED,
    )
    _, peak = _traced_peak(lambda: theorems.verify_induced_fusion_frame(fam))
    assert peak < 4.5 * fam.operators.nbytes
