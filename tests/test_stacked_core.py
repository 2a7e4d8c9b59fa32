"""Every stacked-array computation against a per-atom reference sum.

Families are drawn over real and complex scalars; the references loop over
atoms exactly as the definitions read.
"""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab import fusion, resolution, theorems
from framelab.fusion import WeightedSubspaceFamily
from framelab.hilbert import Subspace
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
