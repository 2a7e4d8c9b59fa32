"""Every stacked-array computation against a per-atom reference sum.

Families are drawn over real and complex scalars; the references loop over
atoms, or over index subsets, exactly as the definitions read.
"""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab import fusion, hilbert, instances, perturbation, resolution, theorems
from framelab.fusion import WeightedSubspaceFamily
from framelab.hilbert import Subspace, adjoint
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
