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


@pytest.mark.parametrize("complex_", [False, True])
def test_closeness_matches_a_loop_over_atoms_and_probes(complex_):
    rng = np.random.default_rng(7)
    atoms, dim = 5, 3
    x, y, z = (_draw(rng, (atoms, dim, dim), complex_) for _ in range(3))
    params = PerturbationParams(0.3, 0.4, rng.uniform(0.0, 2.0, atoms))
    probes = _draw(rng, (dim, 40), complex_)
    probes /= np.linalg.norm(probes, axis=0)
    l1, l2, phi = params.lambda1, params.lambda2, params.phi
    probe_ref = max(
        np.linalg.norm(x[i] @ p)
        - l1 * np.linalg.norm(y[i] @ p) - l2 * np.linalg.norm(z[i] @ p) - phi[i]
        for i in range(atoms) for p in probes.T
    )
    cert_ref = max(
        np.linalg.norm(x[i], 2) - l1 * np.linalg.norm(y[i], -2)
        - l2 * np.linalg.norm(z[i], -2) - phi[i]
        for i in range(atoms)
    )
    # at tol = -inf no certificate proves an atom, so every atom is probed
    margins, note = perturbation._closeness(x, y, z, params, probes, -np.inf)
    assert margins["probe_margin"] == pytest.approx(probe_ref, rel=REL, abs=1e-14)
    assert margins["certificate_margin"] == pytest.approx(cert_ref, rel=REL, abs=1e-14)
    assert note == f"closeness of {atoms} atoms decided by the probes on {atoms}"


def _zero_perturbation_composite(complex_):
    """The composite stacks of a 12-atom, dim-8 resolution against itself, and zero params.

    CI's zero perturbation: no certificate proves an atom, so all are
    probed. The complex stacks are the real ones under one unitary, with
    the same norms on every vector.
    """
    base = instances.random_resolution_family(8, 12, 0)
    stacks = perturbation._composite_stacks(base, base.operators)
    if complex_:
        rng = np.random.default_rng(3)
        unitary, _ = np.linalg.qr(_draw(rng, (8, 8), True))
        stacks = tuple(unitary @ s for s in stacks)
    return stacks, PerturbationParams.uniform(0.0, 0.0, 0.0, 12)


def test_closeness_holds_one_buffer_of_images():
    # 12 atoms in dimension 8: the stacked [X; Y; Z] images a chunk of
    # probes into one (36, 8, 256) buffer, 589,824 bytes, reused for all
    # 2,000 probes; the peak stays below a second buffer's worth
    _assert_one_buffer_of_images(complex_=False)


def test_closeness_holds_one_buffer_of_complex_images():
    # the same with a 1,179,648-byte complex buffer, whose squares are
    # summed over its real and imaginary views rather than a conjugate copy
    _assert_one_buffer_of_images(complex_=True)


def _assert_one_buffer_of_images(complex_):
    stacks, params = _zero_perturbation_composite(complex_)
    probes = hilbert.unit_probes(8, perturbation.CLOSENESS_PROBES)
    images = 3 * 12 * 8 * perturbation._PROBE_CHUNK * stacks[0].itemsize
    tracemalloc.start()
    try:
        margins, note = perturbation._closeness(*stacks, params, probes, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * images
    assert note == "closeness of 12 atoms decided by the probes on 12"
    norms = [np.linalg.norm(s @ probes, axis=1) for s in stacks]
    excess = norms[0] - params.lambda1 * norms[1] - params.lambda2 * norms[2]
    assert margins["probe_margin"] == pytest.approx(
        (excess - np.asarray(params.phi)[:, None]).max(), rel=REL, abs=1e-14
    )


def _closeness_oracle_case(seed, dim, atoms, complex_, pattern, aligned, tol):
    """Stacks and params where the closeness inequality is near its boundary.

    ``pattern`` says which of lambda1, lambda2 and phi are nonzero. Where
    ``aligned``, X_i = t_i U_i (lambda1 Y_i + lambda2 Z_i + phi_i I) with U_i
    unitary and t_i in (0.95, 1.05): the triangle inequality holds at t_i =
    1, tightly with one right-hand term. Otherwise X_i is random, scaled to
    a fraction up to 1.5 of lambda1 ||Y_i|| + lambda2 ||Z_i|| + phi_i, or
    of 2 tol where all three are 0.
    """
    rng = np.random.default_rng(seed)
    x, y, z = (_draw(rng, (atoms, dim, dim), complex_) for _ in range(3))
    on1, on2, on_phi = pattern
    params = PerturbationParams(
        rng.uniform(0.0, 2.0) if on1 else 0.0,
        rng.uniform(0.0, 0.99) if on2 else 0.0,
        rng.uniform(0.0, 2.0, atoms) if on_phi else np.zeros(atoms),
    )
    phi = np.asarray(params.phi)[:, None, None]
    if aligned:
        unitary = np.linalg.qr(x)[0]
        rhs = params.lambda1 * y + params.lambda2 * z + phi * np.eye(dim)
        return rng.uniform(0.95, 1.05, (atoms, 1, 1)) * unitary @ rhs, y, z, params
    reach = (
        params.lambda1 * hilbert.operator_norms(y)
        + params.lambda2 * hilbert.operator_norms(z) + phi[:, 0, 0]
    )
    reach = np.where(reach > 0.0, reach, 2.0 * tol)
    x *= (rng.uniform(0.0, 1.5, atoms) * reach / hilbert.operator_norms(x))[:, None, None]
    return x, y, z, params


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 10), st.booleans(),
    st.tuples(st.booleans(), st.booleans(), st.booleans()), st.booleans(),
    st.sampled_from([1e-9, 1e-3, 0.3]),
)
def test_certified_excess_bounds_a_dense_search(seed, dim, atoms, complex_, pattern, aligned, tol):
    # on every atom a certificate proves, no vector of a dense search (the
    # basis, 20,000 probes and M_i's bottom eigenvector) has a larger excess
    # than the certified one, up to rounding; the proved atoms are those
    # whose certified excess is at most tol
    x, y, z, params = _closeness_oracle_case(seed, dim, atoms, complex_, pattern, aligned, tol)
    certificate, excess, tier = perturbation._certified_excess(x, y, z, params, tol)
    assert np.array_equal(tier < 2, excess <= tol)
    l1, l2, phi = params.lambda1, params.lambda2, np.asarray(params.phi)
    rng = np.random.default_rng(seed)
    probes = _draw(rng, (dim, 20_000), complex_)
    probes /= np.linalg.norm(probes, axis=0)
    for i in np.flatnonzero(tier < 2):
        sy, sz = np.linalg.norm(y[i], -2), np.linalg.norm(z[i], -2)
        c = phi[i] ** 2 + 2 * (l1 * l2 * sy * sz + l1 * phi[i] * sy + l2 * phi[i] * sz)
        m = l1**2 * adjoint(y[i]) @ y[i] + l2**2 * adjoint(z[i]) @ z[i] - adjoint(x[i]) @ x[i]
        bottom = np.linalg.eigh(m + c * np.eye(dim))[1][:, :1]
        f = np.hstack([np.eye(dim), probes, bottom])
        search = (
            np.linalg.norm(x[i] @ f, axis=0) - l1 * np.linalg.norm(y[i] @ f, axis=0)
            - l2 * np.linalg.norm(z[i] @ f, axis=0) - phi[i]
        ).max()
        scale = sum(lam * np.linalg.norm(a[i], 2) for lam, a in ((1.0, x), (l1, y), (l2, z)))
        assert search <= excess[i] + 1e-13 * (scale + phi[i])
        if tier[i] == 0:
            assert excess[i] >= certificate[i]


def _reference_subset_masks(natoms, nrandom, rng=None, limit=None):
    """The subset enumeration as a generator, one subset at a time.

    Every subset when 2^natoms - 1 <= 2 natoms + nrandom, or, given
    ``limit``, when natoms <= limit (the fixed rule before the count rule);
    otherwise the sample.
    """
    if (2**natoms - 1 <= 2 * natoms + nrandom) if limit is None else natoms <= limit:
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
    "natoms, limit, nrandom",
    [(5, 12, 10_000), (12, 12, 10_000), (14, 12, 300), (20, 12, 1000), (40, 12, 2000)],
)
def test_subset_masks_reproduce_the_enumeration(natoms, limit, nrandom):
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    masks = perturbation.subset_masks(natoms, nrandom, rng)
    ref = np.array(list(_reference_subset_masks(natoms, nrandom, ref_rng)))
    assert masks.dtype == bool
    assert np.array_equal(masks, ref)
    # the sampled path leaves the generator where the enumeration left it
    assert rng.random() == ref_rng.random()
    # away from 13 atoms the count rule picks what the fixed limit 12 picked
    old = np.array(list(_reference_subset_masks(natoms, nrandom, np.random.default_rng(7), limit)))
    assert np.array_equal(masks, old)


@pytest.mark.parametrize(
    "natoms, nrandom, exhaustive",
    [
        (12, 10_000, True), (13, 10_000, True), (14, 10_000, False), (13, 300, False),
        (1, 0, True), (2, 0, True), (3, 0, False), (8, 239, True), (8, 238, False),
    ],
)
def test_subset_count_rule_at_its_boundary(natoms, nrandom, exhaustive):
    masks = perturbation.subset_masks(natoms, nrandom, np.random.default_rng(3))
    if exhaustive:
        assert np.array_equal(masks, perturbation.all_subset_masks(natoms))
    else:
        assert len(masks) == 2 * natoms + nrandom < 2**natoms - 1
    ref = _reference_subset_masks(natoms, nrandom, np.random.default_rng(3))
    assert np.array_equal(masks, np.array(list(ref)))


def _reference_margins(base, perturbed, lam, nrandom, rng):
    """Every subset's margin and scale, the scale from the SVD of its sum."""
    margins, scales = [], []
    deviations = base.operators - perturbed.operators
    for mask in _reference_subset_masks(base.natoms, nrandom, rng):
        a = base.operators[mask].sum(axis=0)
        dev = deviations[mask].sum(axis=0)
        cert = hilbert.hermitian_part(lam * lam * (adjoint(a) @ a) - adjoint(dev) @ dev)
        scales.append(max(1.0, lam * lam * float(np.linalg.norm(a, 2)) ** 2))
        margins.append(float(hilbert.self_adjoint_spectrum(cert)[0]) / scales[-1])
    return np.array(margins), np.array(scales)


def _reference_worst_margin(base, perturbed, lam, nrandom, rng):
    margins, _ = _reference_margins(base, perturbed, lam, nrandom, rng)
    return float(margins.min()), len(margins)


def _reference_exact_lam(base_ops, deviations):
    worst = 0.0
    for mask in _reference_subset_masks(len(base_ops), 0, limit=len(base_ops)):
        a = base_ops[mask].sum(axis=0)
        dev = deviations[mask].sum(axis=0)
        svals = np.linalg.svd(a, compute_uv=False)
        if svals[-1] <= 1e-10 * max(svals[0], 1.0):
            return float("inf")
        worst = max(worst, float(np.linalg.norm(dev @ np.linalg.inv(a), 2)))
    return worst


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("natoms, sampled", [(6, False), (13, False), (20, True)])
def test_subset_sums_match_a_bool_tensordot_bit_for_bit(natoms, sampled, complex_):
    rng = np.random.default_rng(natoms)
    masks = (
        perturbation.subset_masks(natoms, 300) if sampled
        else perturbation.all_subset_masks(natoms)
    )
    # a stack of the drawn scalar type, and a real one beside it
    stacks = (_draw(rng, (natoms, 3, 3), complex_), rng.standard_normal((natoms, 3, 3)))
    offsets = []
    for lo, sums in perturbation.subset_sums(masks, *stacks):
        offsets.append(lo)
        chunk = masks[lo : lo + len(sums[0])]
        for got, stack in zip(sums, stacks):
            want = np.tensordot(chunk, stack, axes=1)
            assert got.dtype == want.dtype and np.array_equal(got, want)
    assert offsets == list(range(0, len(masks), perturbation._SUBSET_CHUNK))


def _full_scan(masks, operators, deviations, lam):
    """Every subset's margin from one eigensolve per subset, over the scan's own chunks."""
    return np.concatenate([
        np.linalg.eigvalsh(cert)[:, 0] / scale
        for cert, scale in _chunk_certificates(masks, operators, deviations, lam)
    ])


def _chunk_certificates(masks, operators, deviations, lam):
    """(cert, scale) of every subset, a whole chunk at a time."""
    return [
        perturbation._certificates(a, dev, lam)
        for _, (a, dev) in perturbation.subset_sums(masks, operators, deviations)
    ]


def _same_as_full_scan(masks, operators, deviations, lam, report=None):
    """The pruned scan returns the full scan's np.argmin and its value, bit for bit."""
    margins = _full_scan(masks, operators, deviations, lam)
    index, worst, eigensolved = perturbation._worst_subset(masks, operators, deviations, lam)
    assert index == int(np.argmin(margins))
    assert worst == margins[index]
    assert 1 <= eigensolved <= len(masks)
    if report is not None:
        assert report.constants["worst_subset_margin"] == worst
        assert report.constants["subsets_eigensolved"] == eigensolved
        subset = tuple(np.flatnonzero(masks[index]).tolist())
        assert report.hypotheses[-1].detail == f"worst_subset={subset}"
    return index, margins


def _full_svd_exact_lam(base_ops, deviations):
    """The additive builder's constant with an SVD of every subset, over the same chunks."""
    worst = 0.0
    masks = perturbation.all_subset_masks(len(base_ops))
    for _, (a, dev) in perturbation.subset_sums(masks, base_ops, deviations):
        svals = np.linalg.svd(a, compute_uv=False)
        if np.any(svals[:, -1] <= 1e-10 * np.maximum(svals[:, 0], 1.0)):
            return float("inf")
        worst = max(worst, float(np.linalg.norm(dev @ np.linalg.inv(a), 2, axis=(1, 2)).max()))
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
    # the largest nrandom that still samples; one or two atoms are always
    # scanned in full
    sampled = sampled and atoms >= 3
    nrandom = 2**atoms - 2 * atoms - 2 if sampled else 10_000
    report, total = perturbation.verify_perturbed_sum(
        base, perturbed, lam, nrandom=nrandom, rng=np.random.default_rng(seed)
    )
    worst, checked = _reference_worst_margin(
        base, perturbed, lam, nrandom, np.random.default_rng(seed)
    )
    assert report.constants["subsets_checked"] == checked
    assert report.constants["worst_subset_margin"] == pytest.approx(worst, rel=REL, abs=1e-14)
    assert any(("sampled" if sampled else "exhaustive") in note for note in report.notes)
    assert 1 <= report.constants["subsets_eigensolved"] <= checked
    masks = perturbation.subset_masks(atoms, nrandom, np.random.default_rng(seed))
    _same_as_full_scan(masks, base.operators, base.operators - perturbed.operators, lam, report)
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
    assert lam_exact == _full_svd_exact_lam(base.operators, deviations)


@pytest.mark.parametrize("complex_", [False, True])
def test_subset_scale_above_one_shares_a_chunk_with_scale_one(complex_):
    # atoms 3I and -2I: with lam = 0.9, subsets holding 3I alone have
    # lam^2 ||A_I||^2 > 1, the pair sums to I (trace above 1, scale still 1),
    # and subsets of the small atoms have trace below 1; all in one chunk
    rng = np.random.default_rng(12)
    dim, lam = 3, 0.9
    small = 0.05 * _draw(rng, (5, dim, dim), complex_)
    ops = np.concatenate([[3.0 * np.eye(dim), -2.0 * np.eye(dim)], small])
    noise = 0.01 * _draw(rng, ops.shape, complex_)
    base, perturbed = (
        OperatorFamily(stack, np.ones(7), np.ones(7), SumMode.RAW) for stack in (ops, ops + noise)
    )
    masks = perturbation.all_subset_masks(7)
    assert len(masks) <= perturbation._SUBSET_CHUNK
    want, scales = _reference_margins(base, perturbed, lam, 10_000, None)
    assert np.any(scales > 1.0) and np.any(scales == 1.0)
    [(cert, scale)] = _chunk_certificates(masks, ops, -noise, lam)
    _close(scale, scales)
    _close(np.linalg.eigvalsh(cert)[:, 0] / scale, want)
    # every subset's certified bounds hold its margin (soundness), and the
    # candidates that reach the eigensolver carry the exact margins
    lower, upper, _ = perturbation._margin_bounds(cert, scale)
    assert np.all(lower <= want) and np.all(want <= upper)
    cand = perturbation._candidates(cert, scale, np.inf)
    assert 0 < len(cand) < len(masks)
    _close(np.linalg.eigvalsh(cert[cand])[:, 0] / scale[cand], want[cand])
    assert int(np.argmin(want)) in cand
    report, _ = perturbation.verify_perturbed_sum(base, perturbed, lam)
    worst, checked = _reference_worst_margin(base, perturbed, lam, 10_000, None)
    assert report.constants["subsets_checked"] == checked
    assert report.constants["worst_subset_margin"] == pytest.approx(worst, rel=REL, abs=1e-14)
    _same_as_full_scan(masks, ops, base.operators - perturbed.operators, lam, report)


def _trace_scale_certificates(a, dev, lam):
    """_certificates with the scale's eigensolve skipped on the trace alone."""
    g = lam * lam * (adjoint(a) @ a)
    cert = hilbert.hermitian_part(g - adjoint(dev) @ dev)
    scale = np.ones(len(a))
    big = np.einsum("ijj->i", g).real > 1.0 - 1e-8
    if big.any():
        scale[big] = np.maximum(1.0, np.linalg.eigvalsh(g[big])[:, -1])
    return cert, scale


@pytest.mark.parametrize("kind", ["columns", "left", "scalar"])
def test_row_sums_settle_the_scale_of_a_coordinate_family(kind, monkeypatch):
    # the base atoms are coordinate projectors, so g = lam^2 A_I* A_I is
    # lam^2 on the subset's diagonal: its trace lam^2 |I| reaches 1 on every
    # subset of 4 or more of the 8 atoms, its largest row sum is lam^2 = 1/4
    base, perturbed, lam = instances.perturbed_sum_instance(8, 3, kind)
    ops, dev = base.operators, base.operators - perturbed.operators
    masks = perturbation.all_subset_masks(8)
    got = perturbation._worst_subset(masks, ops, dev, lam)
    skipped = 0
    for _, (a, d) in perturbation.subset_sums(masks, ops, dev):
        want = _trace_scale_certificates(a, d, lam)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", lambda *args: pytest.fail("scale eigensolve"))
            cert, scale = perturbation._certificates(a, d, lam)
        assert _identical(cert, want[0]) and _identical(scale, want[1])
        skipped += int(np.count_nonzero(np.einsum("ijj->i", a).real * lam * lam > 1.0 - 1e-8))
    assert skipped == sum(math.comb(8, k) for k in range(4, 9))
    # the scan keeps its worst subset, its margin's bits and its eigensolve count
    monkeypatch.setattr(perturbation, "_certificates", _trace_scale_certificates)
    want = perturbation._worst_subset(masks, ops, dev, lam)
    assert got[0] == want[0] and got[2] == want[2]
    assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("zero_atoms", [(7, 8), (0, 1)])
def test_tied_worst_subsets_resolve_to_the_first_index(complex_, zero_atoms):
    # two duplicated zero atoms: every subset of them has the zero
    # certificate, margin exactly 0 and bounds exactly 0, while every other
    # subset clears 0. With atoms (0, 1) of 9 the tied subsets {1}, {0} and
    # {0, 1} sit in three chunks (rows 127, 255, 383); with (7, 8) two of
    # them share the first chunk
    rng = np.random.default_rng(4)
    dim, atoms, lam = 3, 9, 0.8
    ops = np.eye(dim) + 0.2 * _draw(rng, (atoms, dim, dim), complex_)
    noise = 0.02 * _draw(rng, (atoms, dim, dim), complex_) / atoms
    ops[list(zero_atoms)] = 0.0
    noise[list(zero_atoms)] = 0.0
    masks = perturbation.all_subset_masks(atoms)
    index, margins = _same_as_full_scan(masks, ops, noise, lam)
    tied = np.flatnonzero(margins == 0.0)
    assert len(tied) == 3 and margins.min() == 0.0
    assert index == tied[0]
    assert tuple(np.flatnonzero(masks[index])) == zero_atoms[1:]


def test_overflowing_certificates_report_the_first_nan_subset():
    # finite atoms near 1e160 overflow lam^2 A^* A - D^* D to inf - inf:
    # the margins are NaN, np.argmin stops at the first of them, and the
    # domination hypothesis fails rather than passing on an empty minimum
    ops = np.stack([1e160 * np.eye(2), (1.0 - 1e160) * np.eye(2)])
    base, perturbed = (
        OperatorFamily(stack, np.ones(2), np.ones(2), SumMode.RAW) for stack in (ops, ops + 1e150)
    )
    masks = perturbation.all_subset_masks(2)
    deviations = base.operators - perturbed.operators
    with np.errstate(all="ignore"):
        margins = _full_scan(masks, base.operators, deviations, 0.5)
        index, worst, _ = perturbation._worst_subset(masks, base.operators, deviations, 0.5)
        report, _ = perturbation.verify_perturbed_sum(base, perturbed, 0.5)
    assert np.isnan(worst) and index == int(np.argmin(margins))
    domination = report.hypotheses[-1]
    assert domination.name == "subset_domination" and not domination.passed


def _dense_certificates(rng, count, dim, complex_, low):
    """Hermitian matrices with eigenvalues drawn from [low, 1] in a random basis.

    A random basis spreads each matrix over all its entries, so the
    Gershgorin discs reach far below the smallest eigenvalue.
    """
    q = np.linalg.qr(_draw(rng, (count, dim, dim), complex_))[0]
    mu = rng.uniform(low, 1.0, (count, 1, dim))
    return hilbert.hermitian_part((q * mu) @ adjoint(q))


@pytest.mark.parametrize("complex_", [False, True])
def test_cholesky_tier_prunes_what_gershgorin_cannot(complex_):
    rng = np.random.default_rng(21)
    cert = _dense_certificates(rng, 300, 6, complex_, 0.1)
    worst = 0.05
    assert np.linalg.eigvalsh(cert)[:, 0].min() > worst
    # a chunk of those whose discs all reach below the running worst
    lower, _, _ = perturbation._margin_bounds(cert, np.ones(len(cert)))
    cert = cert[lower <= worst][: perturbation._SUBSET_CHUNK]
    assert len(cert) >= 100
    scale = np.ones(len(cert))
    margins = np.linalg.eigvalsh(cert)[:, 0]
    assert len(perturbation._candidates(cert, scale, worst)) == 0
    # a running worst at the chunk's own minimum keeps the whole chunk
    np.testing.assert_array_equal(
        perturbation._candidates(cert, scale, margins.min()), np.arange(len(cert))
    )
    # and the scan as a whole eigensolves only what the bounds leave
    base, perturbed, deviations = _perturbed_sum_pair(5, 6, 10, complex_, 0.5)
    report, _ = perturbation.verify_perturbed_sum(base, perturbed, 0.5)
    masks = perturbation.all_subset_masks(10)
    _same_as_full_scan(masks, base.operators, base.operators - perturbed.operators, 0.5, report)
    assert report.constants["subsets_eigensolved"] < len(masks)


@pytest.mark.parametrize("complex_", [False, True])
def test_a_subset_at_the_running_worst_stays_a_candidate(complex_):
    # one certificate per chunk, the running worst set to its own computed
    # margin: no tier may drop it, whatever the rounding of the bounds, the
    # shift or the factorization
    rng = np.random.default_rng(33)
    for dim, low in itertools.product((1, 2, 3, 5, 8), (-0.5, 0.1)):
        for cert in _dense_certificates(rng, 60, dim, complex_, low):
            scale = np.array([1.0 + rng.random()])
            margin = np.linalg.eigvalsh(cert[None])[0, 0] / scale[0]
            assert len(perturbation._candidates(cert[None], scale, margin)) == 1


@pytest.mark.parametrize("complex_", [False, True])
def test_margin_bounds_hold_where_gershgorin_is_tight(complex_):
    # [[a, b], [conj b, a]] has lambda_min = a - |b|, the left end of both
    # discs, so the computed eigenvalue falls on either side of the bound
    rng = np.random.default_rng(8)
    n = 4000
    a = rng.standard_normal(n)
    b = _draw(rng, n, complex_)
    cert = np.empty((n, 2, 2), dtype=b.dtype)
    cert[:, 0, 0] = cert[:, 1, 1] = a
    cert[:, 0, 1], cert[:, 1, 0] = b, b.conj()
    scale = 1.0 + rng.random(n)
    margins = np.linalg.eigvalsh(cert)[:, 0] / scale
    lower, upper, _ = perturbation._margin_bounds(cert, scale)
    assert np.all(lower <= margins) and np.all(margins <= upper)


def _pair_bounds(pairs, nsubsets):
    """Every subset's tier-0 (lower, upper), one group of chunks at a time."""
    groups = [
        [b.flatten() for b in pairs.group_bounds(c)]  # copies: the next call overwrites them
        for c in range(0, len(pairs.blocks), perturbation._GROUP_CHUNKS)
    ]
    return [np.concatenate(side)[:nsubsets] for side in zip(*groups)]


def _chunk_pair_bounds(pairs, lo, count):
    """The tier-0 (lower, upper) of the chunk at ``lo`` alone, from its own product."""
    rows = perturbation._chunk_bits()[0][:, :count]
    forms = pairs.blocks[lo >> perturbation._CHUNK_BITS] @ rows + pairs.bottom_forms[:, :count]
    scale = np.maximum(1.0, forms[-1])
    lower, upper = forms[: pairs.d].min(axis=0), forms[pairs.d : -1].min(axis=0)
    return np.minimum(lower, lower / scale), np.maximum(upper, upper / scale)


def _assert_pair_bounds_hold(masks, operators, deviations, lam):
    """Every subset's tier-0 bounds hold its computed margin."""
    pairs = perturbation._PairBounds.of_scan(masks, operators, deviations, lam)
    assert pairs is not None
    margins = _full_scan(masks, operators, deviations, lam)
    lower, upper = _pair_bounds(pairs, len(masks))
    assert np.all(lower <= margins) and np.all(margins <= upper)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(8, 10), st.booleans(),
    st.floats(0.0, 0.95), st.sampled_from([0.05, 1.0, 3.0]), st.sampled_from([0.01, 0.3, 3.0]),
)
def test_pair_bounds_hold_every_computed_margin(seed, dim, atoms, complex_, lam, size, noise):
    # atoms of size 3 give scales above 1, noise of size 3 negative margins;
    # zeroed atoms make certificates whose discs are exact
    rng = np.random.default_rng(seed)
    ops = size * _draw(rng, (atoms, dim, dim), complex_)
    deviations = noise * size * _draw(rng, (atoms, dim, dim), complex_)
    ops[rng.random(atoms) < 0.2] = 0.0
    masks = perturbation.all_subset_masks(atoms)
    _assert_pair_bounds_hold(masks, ops, deviations, lam)
    _same_as_full_scan(masks, ops, deviations, lam)


@pytest.mark.parametrize("complex_", [False, True])
def test_pair_bounds_hold_with_scales_above_one_across_chunks(complex_):
    # atoms 3I and -2I as in the single-chunk case, now among 8 small atoms:
    # 1023 subsets over eight chunks, with scales above 1 and exactly 1
    rng = np.random.default_rng(12)
    dim, lam = 3, 0.9
    small = 0.05 * _draw(rng, (8, dim, dim), complex_)
    ops = np.concatenate([[3.0 * np.eye(dim), -2.0 * np.eye(dim)], small])
    noise = 0.01 * _draw(rng, ops.shape, complex_)
    masks = perturbation.all_subset_masks(10)
    scales = np.concatenate([scale for _, scale in _chunk_certificates(masks, ops, -noise, lam)])
    assert np.any(scales > 1.0) and np.any(scales == 1.0)
    _assert_pair_bounds_hold(masks, ops, -noise, lam)
    base, perturbed = (
        OperatorFamily(stack, np.ones(10), np.ones(10), SumMode.RAW)
        for stack in (ops, ops + noise)
    )
    report, _ = perturbation.verify_perturbed_sum(base, perturbed, lam)
    _same_as_full_scan(masks, ops, base.operators - perturbed.operators, lam, report)


def test_overflowing_certificates_across_chunks_report_the_first_nan_subset():
    # the two huge atoms are atoms 0 and 1, the top bits: the 63 subsets of
    # the six small atoms come first with finite margins, every later subset
    # overflows. Tier 0 stays off, and the scan stops at the first NaN
    rng = np.random.default_rng(2)
    ops = np.concatenate(
        [[1e160 * np.eye(2), (1.0 - 1e160) * np.eye(2)], 0.1 * rng.standard_normal((6, 2, 2))]
    )
    deviations = np.full(ops.shape, -1e150)
    deviations[2:] = 0.01 * rng.standard_normal((6, 2, 2))
    masks = perturbation.all_subset_masks(8)
    with np.errstate(all="ignore"):
        margins = _full_scan(masks, ops, deviations, 0.5)
        assert perturbation._PairBounds.of_scan(masks, ops, deviations, 0.5) is None
        index, worst, _ = perturbation._worst_subset(masks, ops, deviations, 0.5)
    assert np.all(np.isfinite(margins[:63])) and np.isnan(margins[63])
    assert np.isnan(worst) and index == int(np.argmin(margins)) == 63


def test_pair_bounds_run_only_on_exhaustive_multi_chunk_scans():
    rng = np.random.default_rng(6)
    for atoms, nrandom in ((7, 10_000), (8, 10_000), (8, 100), (14, 10_000)):
        ops = rng.standard_normal((atoms, 2, 2))
        masks = perturbation.subset_masks(atoms, nrandom)
        pairs = perturbation._PairBounds.of_scan(masks, ops, 0.1 * ops, 0.5)
        # exhaustive and more than one chunk: 8 atoms at the default nrandom
        assert (pairs is not None) == (atoms == 8 and nrandom == 10_000)


@pytest.mark.parametrize(
    "kind, dim, atoms",
    [("composite", 2 + atoms % 4, atoms) for atoms in range(8, 13)]
    + [("additive", dim, 8) for dim in range(2, 6)],
)
def test_multi_chunk_scans_match_the_full_scan(kind, dim, atoms):
    for seed in (0, 1):
        if kind == "composite":
            base, perturbed, _, lam = instances.composite_instance(dim, atoms, seed)
        else:
            base, perturbed, _, lam = instances.perturbed_resolution_instance(dim, atoms, seed, kind)
        report, _ = perturbation.verify_perturbed_sum(base, perturbed, lam)
        masks = perturbation.all_subset_masks(atoms)
        deviations = base.operators - perturbed.operators
        _assert_pair_bounds_hold(masks, base.operators, deviations, lam)
        _same_as_full_scan(masks, base.operators, deviations, lam, report)


def test_exhaustive_scan_casts_only_the_chunks_it_sums():
    # 13 atoms: 8,191 subsets, whose mask rows as float64 would take 852 KB;
    # tier 0 leaves most chunks unsummed, and only a summed chunk is cast
    base, comp, _, lam = instances.composite_instance(8, 13, 0)
    masks = perturbation.all_subset_masks(13)
    deviations = base.operators - comp.operators
    float_masks = masks.size * np.dtype(float).itemsize
    tracemalloc.start()
    try:
        index, worst, _ = perturbation._worst_subset(masks, base.operators, deviations, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < float_masks
    margins = _full_scan(masks, base.operators, deviations, lam)
    assert index == int(np.argmin(margins)) and worst == margins[index]


def test_pair_bounds_skip_whole_chunks(monkeypatch):
    # composite_instance(8, 12, 0) spans 32 chunks; tier 0 leaves all but a
    # few unsummed, and the result is still the full scan's
    base, comp, _, lam = instances.composite_instance(8, 12, 0)
    masks = perturbation.all_subset_masks(12)
    deviations = base.operators - comp.operators
    margins = _full_scan(masks, base.operators, deviations, lam)
    summed = []
    row_sums = perturbation._row_sums
    monkeypatch.setattr(
        perturbation, "_row_sums", lambda rows, stacks: summed.append(1) or row_sums(rows, stacks)
    )
    index, worst, _ = perturbation._worst_subset(masks, base.operators, deviations, lam)
    assert index == int(np.argmin(margins)) and worst == margins[index]
    assert len(masks) == 32 * perturbation._SUBSET_CHUNK - 1
    assert 1 <= len(summed) <= 4


def test_pair_bounds_stop_after_a_chunk_they_leave_whole(monkeypatch):
    # every margin of a coordinate family is 0 in exact arithmetic, so the
    # pair bounds drop nothing from the first chunk and the rest of the scan
    # goes without them: only the first group is bounded, and every chunk
    # reaches the certificates whole. At 10 atoms the scan spans two groups
    calls, sizes = [], []
    group_bounds = perturbation._PairBounds.group_bounds
    monkeypatch.setattr(
        perturbation._PairBounds, "group_bounds",
        lambda self, c: calls.append(c) or group_bounds(self, c),
    )
    certificates = perturbation._certificates
    monkeypatch.setattr(
        perturbation, "_certificates",
        lambda a, dev, lam: sizes.append(len(a)) or certificates(a, dev, lam),
    )
    for dim in (8, 10):
        calls.clear()
        sizes.clear()
        base, perturbed, lam = instances.perturbed_sum_instance(dim, 0, "columns")
        masks = perturbation.all_subset_masks(dim)
        report, _ = perturbation.verify_perturbed_sum(base, perturbed, lam)
        assert calls == [0]
        chunk = perturbation._SUBSET_CHUNK
        assert sizes == [chunk] * (len(masks) // chunk) + [len(masks) % chunk]
        _same_as_full_scan(masks, base.operators, base.operators - perturbed.operators, lam, report)


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("atoms", range(8, 14))
def test_group_bounds_equal_the_per_chunk_bounds(atoms, complex_):
    # 2 to 64 chunks: at 8 atoms one group of two chunks, then whole groups;
    # the last chunk of every exhaustive scan has one subset fewer than the rest
    rng = np.random.default_rng(atoms)
    ops = _draw(rng, (atoms, 3, 3), complex_)
    deviations = 0.3 * _draw(rng, ops.shape, complex_)
    masks = perturbation.all_subset_masks(atoms)
    pairs = perturbation._PairBounds.of_scan(masks, ops, deviations, 0.7)
    chunk = perturbation._SUBSET_CHUNK
    lower, upper = _pair_bounds(pairs, len(masks))
    for lo in range(0, len(masks), chunk):
        count = min(chunk, len(masks) - lo)
        want_lower, want_upper = _chunk_pair_bounds(pairs, lo, count)
        assert lower[lo : lo + count].tobytes() == want_lower.tobytes()
        assert upper[lo : lo + count].tobytes() == want_upper.tobytes()
    # past the last subset both bounds are +inf, so no chunk minimum reads it
    last_lower, last_upper = pairs.group_bounds(len(pairs.blocks) - 1)
    assert last_lower[-1, -1] == last_upper[-1, -1] == np.inf


@pytest.mark.parametrize(
    "atoms, seed, index, worst, eigensolved",
    [
        (12, 0, 3, "0x1.11fda7d5d53c4p-50", 1),
        (12, 1, 31, "0x1.5143f34000000p-50", 1),
        (12, 2, 511, "0x1.02743aa100000p-49", 3),
        (13, 0, 15, "0x1.468545293cf97p-50", 2),
        (13, 1, 127, "0x1.a77e6311ac711p-52", 1),
        (13, 2, 1023, "0x1.07f3635c10000p-50", 3),
    ],
)
def test_composite_scans_keep_their_worst_subset_and_eigensolve_count(
    atoms, seed, index, worst, eigensolved
):
    # the 12- and 13-atom composites span 32 and 64 chunks, 8 and 16 groups.
    # The values are those of the per-chunk tier 0 before grouping (numpy
    # 2.4, OpenBLAS 0.3.31, x86-64); another BLAS may round their last
    # digits differently
    base, comp, _, lam = instances.composite_instance(8, atoms, seed)
    report, _ = perturbation.verify_perturbed_sum(base, comp, lam)
    masks = perturbation.all_subset_masks(atoms)
    subset = tuple(np.flatnonzero(masks[index]).tolist())
    assert report.constants["worst_subset_margin"] == float.fromhex(worst)
    assert report.constants["subsets_eigensolved"] == eigensolved
    assert report.hypotheses[-1].detail == f"worst_subset={subset}"


def test_exact_subset_lam_is_infinite_when_a_subset_sum_is_singular():
    eye = np.eye(3)
    base_ops = np.stack([eye, -eye, 2.0 * eye])  # atoms 0 and 1 cancel
    deviations = 0.01 * np.ones((3, 3, 3))
    assert instances._exact_subset_lam(base_ops, deviations) == float("inf")
    # dropping the cancelling atom leaves every subset sum invertible
    assert np.isfinite(instances._exact_subset_lam(base_ops[[0, 2]], deviations[[0, 2]]))
    # a nearly cancelling pair inverts, and the SVD still calls it singular
    near = np.stack([eye, -(1.0 - 1e-12) * eye, 2.0 * eye])
    assert instances._exact_subset_lam(near, deviations) == float("inf")


@pytest.mark.parametrize("complex_", [False, True])
def test_exact_subset_lam_matches_the_full_svd_scan_bitwise(complex_):
    rng = np.random.default_rng(17)
    for atoms in (1, 3, 8, 10):
        for dim in (1, 2, 4, 7):
            ops = np.eye(dim) / atoms + 0.3 * _draw(rng, (atoms, dim, dim), complex_)
            deviations = 0.1 * _draw(rng, (atoms, dim, dim), complex_)
            got = instances._exact_subset_lam(ops, deviations)
            assert got == _full_svd_exact_lam(ops, deviations)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_subset_masks_peak_stays_near_the_kept_matrix():
    masks, peak = _traced_peak(lambda: perturbation.all_subset_masks(18))
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


def _orthonormal_stack(rng, n, dim, rank, complex_):
    return np.linalg.qr(_draw(rng, (n, dim, rank), complex_))[0]


def _bounds_bits(fam):
    bounds = fusion.frame_bounds(fam)
    return np.array([bounds.lower, bounds.upper]).tobytes()


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 64, 2048])
def test_family_from_a_stack_equals_the_family_from_its_atoms(n, complex_):
    rng = np.random.default_rng(n)
    stack = _orthonormal_stack(rng, n, 3, 2, complex_)
    weights, masses = rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)
    per_atom = WeightedSubspaceFamily(tuple(stack), weights, masses)
    # the same atoms in C and in Fortran order: the basis is C-ordered either
    # way, and the family keeps no view of the caller's array
    for whole in (stack, np.asfortranarray(stack)):
        fam = WeightedSubspaceFamily(whole, weights, masses)
        _same_family(fam, per_atom)
        assert fam.basis.flags.c_contiguous and not np.shares_memory(fam.basis, whole)
        assert _bounds_bits(fam) == _bounds_bits(per_atom)


def _no_split(stack):
    def whole(subspaces):
        assert isinstance(subspaces, np.ndarray) and subspaces.ndim == 3
        return stack(subspaces)
    return whole


def test_a_stack_is_taken_whole(monkeypatch):
    # neither the padded copy of the per-atom path nor a per-atom array is made
    monkeypatch.setattr(fusion, "_padded", lambda *args: pytest.fail("padded a stack"))
    monkeypatch.setattr(fusion, "_stack", _no_split(fusion._stack))
    for fam in (
        instances.rotating_line_family(2048),
        instances.mercedes_family(),
        instances.equiangular_family(9),
        instances.axes_family(5),
        instances.projection_identity_instance(6, 1),
    ):
        assert fam.basis.flags.c_contiguous


def _construction_error(subspaces, n):
    with pytest.raises(ValueError) as info:
        WeightedSubspaceFamily(subspaces, np.ones(n), np.ones(n))
    return str(info.value)


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("atom", [0, 70])
def test_a_bad_stack_raises_what_its_atoms_raise(atom, complex_):
    # 100 atoms span two check chunks; the bad atom may sit in either
    rng = np.random.default_rng(atom)
    stack = _orthonormal_stack(rng, 100, 3, 2, complex_)
    nan, skew = stack.copy(), stack.copy()
    nan[atom, 1, 0] = np.nan
    skew[atom] *= 1.0 + 1e-8
    for bad, start in (
        (nan, f"atom {atom} basis entry (1, 0) is not finite ("),
        (skew, f"atom {atom} basis columns not orthonormal (deviation "),
    ):
        message = _construction_error(bad, 100)
        assert message.startswith(start)
        assert message == _construction_error(tuple(bad), 100)
    for empty, message in (
        (np.zeros((100, 3, 0)), "at least one subspace must have rank >= 1"),
        (np.zeros((0, 3, 2)), "a family needs at least one atom"),
    ):
        assert _construction_error(empty, len(empty)) == message
        assert _construction_error(tuple(empty), len(empty)) == message


@pytest.mark.parametrize("n", [1, 3, 64, 2048])
def test_lines_are_libm_cos_and_sin_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for angles in (
        ((np.arange(n) + 0.5) * math.pi / n).tolist(),
        [k * math.pi / n for k in range(n)],
        rng.uniform(-50.0, 50.0, n).tolist(),
    ):
        want = np.array([[[math.cos(t)], [math.sin(t)]] for t in angles])
        assert _identical(instances._lines(angles), want)


def test_projection_identity_lines_equal_the_family_from_their_atoms():
    fam = instances.projection_identity_instance(7, 3)
    base = instances.equiangular_family(7)
    weights = np.random.default_rng(3).uniform(0.5, 2.0, 7)
    ref = WeightedSubspaceFamily(base.subspaces, weights, 1.0 / (3.5 * weights), base.points)
    _same_family(fam, ref)


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


def test_perturbed_resolution_instance_scans_once(monkeypatch):
    # the builder scans once and halves the result with the budget; the
    # reference scans again at every budget. Seeds 0-39 run through dims
    # 2-8 and atoms 2-9 (40 of the 56 pairs), and need up to 8 halvings
    scans = []
    exact = instances._exact_subset_lam
    monkeypatch.setattr(
        instances, "_exact_subset_lam", lambda *args: scans.append(1) or exact(*args)
    )
    tries = []
    for seed in range(40):
        dim, atoms = 2 + seed % 7, 2 + seed % 8
        scans.clear()
        got = instances.perturbed_resolution_instance(dim, atoms, seed, "additive")
        assert len(scans) == 1
        scans.clear()
        _same_instance(got, _reference_perturbed_resolution(dim, atoms, seed, "additive"))
        tries.append(len(scans))
    assert max(tries) >= 3


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
