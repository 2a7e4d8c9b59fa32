import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab import fusion, instances
from framelab.errors import (
    AtomMismatchError,
    CoefficientError,
    DimensionMismatchError,
    NotAFrameError,
)
from framelab.fusion import WeightedSubspaceFamily
from framelab.hilbert import Subspace


def _family(seed=0, dim=4, atoms=5):
    return instances.random_fusion_family(dim, atoms, seed)


class TestFamilyValidation:
    def test_rejects_nonpositive_weights(self):
        sub = Subspace(np.eye(2)[:, :1])
        with pytest.raises(ValueError):
            WeightedSubspaceFamily(
                subspaces=(sub,), weights=np.array([0.0]), masses=np.array([1.0])
            )

    def test_rejects_mismatched_lengths(self):
        sub = Subspace(np.eye(2)[:, :1])
        with pytest.raises(AtomMismatchError):
            WeightedSubspaceFamily(
                subspaces=(sub,),
                weights=np.array([1.0, 2.0]),
                masses=np.array([1.0]),
            )

    def test_rejects_mixed_ambient_dims(self):
        with pytest.raises(DimensionMismatchError):
            WeightedSubspaceFamily(
                subspaces=(Subspace(np.eye(2)[:, :1]), Subspace(np.eye(3)[:, :1])),
                weights=np.ones(2),
                masses=np.ones(2),
            )

    def test_from_atoms_drops_zero_weight_atoms(self):
        subs = (Subspace(np.eye(2)[:, :1]), Subspace(np.eye(2)[:, 1:]))
        fam = WeightedSubspaceFamily.from_atoms(
            subs, np.array([1.0, 0.0]), np.array([1.0, 1.0])
        )
        assert fam.natoms == 1


def test_axes_family_is_tight_with_unit_bounds():
    bounds = fusion.frame_bounds(instances.axes_family(3))
    assert bounds.lower == pytest.approx(1.0, abs=1e-12)
    assert bounds.upper == pytest.approx(1.0, abs=1e-12)


def test_mercedes_bounds():
    bounds = fusion.frame_bounds(instances.mercedes_family())
    assert bounds.lower == pytest.approx(1.5, abs=1e-9)
    assert bounds.upper == pytest.approx(1.5, abs=1e-9)


@pytest.mark.parametrize("atoms", [2, 3, 5, 9])
def test_equiangular_lines_are_tight(atoms):
    bounds = fusion.frame_bounds(instances.equiangular_family(atoms))
    assert bounds.lower == pytest.approx(atoms / 2.0, abs=1e-9)
    assert bounds.upper == pytest.approx(atoms / 2.0, abs=1e-9)


def test_frame_operator_matches_blockwise_application():
    fam = _family(3)
    s_mat = fusion.frame_operator(fam)
    rng = np.random.default_rng(1)
    for _ in range(5):
        f = rng.standard_normal(fam.ambient_dim)
        assert np.allclose(s_mat @ f, fusion.apply_frame_operator(fam, f), atol=1e-12)


def test_frame_sum_is_the_quadratic_form():
    fam = _family(4)
    s_mat = fusion.frame_operator(fam)
    f = np.random.default_rng(2).standard_normal(fam.ambient_dim)
    assert fusion.frame_sum(fam, f) == pytest.approx(float(f @ s_mat @ f), rel=1e-12)


def test_analysis_norm_equals_frame_sum():
    fam = _family(5)
    f = np.random.default_rng(3).standard_normal(fam.ambient_dim)
    coeffs = fusion.analysis(fam, f)
    assert coeffs.norm2() == pytest.approx(fusion.frame_sum(fam, f), rel=1e-12)


def test_synthesis_is_adjoint_to_analysis():
    fam = _family(6)
    rng = np.random.default_rng(4)
    f = rng.standard_normal(fam.ambient_dim)
    blocks = tuple(
        sub.project(rng.standard_normal(fam.ambient_dim)) for sub in fam.subspaces
    )
    coeffs = fusion.Coefficients(blocks=blocks, masses=fam.masses)
    lhs = fusion.analysis(fam, f).inner(coeffs)
    rhs = float(np.dot(fusion.synthesis(fam, coeffs), f))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_synthesis_rejects_coefficients_outside_the_subspace():
    fam = instances.axes_family(3)
    bad = fusion.Coefficients(
        blocks=tuple(np.ones(3) for _ in range(3)), masses=fam.masses
    )
    with pytest.raises(CoefficientError):
        fusion.synthesis(fam, bad)


def test_coefficients_are_one_array_with_a_row_per_atom():
    fam = _family(8)
    coeffs = fusion.analysis(fam, np.ones(fam.ambient_dim))
    assert isinstance(coeffs.blocks, np.ndarray)
    assert coeffs.blocks.shape == (fam.natoms, fam.ambient_dim)
    assert len(coeffs.blocks) == fam.natoms
    sub, w = fam.subspaces[2], fam.weights[2]
    assert np.allclose(coeffs.blocks[2], w * sub.project(np.ones(fam.ambient_dim)), atol=1e-14)


def test_ragged_coefficients_are_rejected_at_construction():
    with pytest.raises(DimensionMismatchError):
        fusion.Coefficients(blocks=(np.ones(3), np.ones(2)), masses=np.ones(2))
    with pytest.raises(DimensionMismatchError):
        fusion.Coefficients(blocks=np.ones((2, 3, 1)), masses=np.ones(2))
    with pytest.raises(AtomMismatchError):
        fusion.Coefficients(blocks=np.ones((2, 3)), masses=np.ones(3))


def test_synthesis_matrix_norm_squares_to_upper_bound():
    fam = _family(7)
    top = np.linalg.norm(fusion.synthesis_matrix(fam), 2)
    bounds = fusion.frame_bounds(fam)
    assert top**2 == pytest.approx(bounds.upper, rel=1e-10)


def test_rayleigh_quotients_respect_bounds():
    fam = _family(8)
    bounds = fusion.frame_bounds(fam)
    rng = np.random.default_rng(9)
    for _ in range(50):
        f = rng.standard_normal(fam.ambient_dim)
        f /= np.linalg.norm(f)
        q = fusion.frame_sum(fam, f)
        assert bounds.lower - 1e-9 <= q <= bounds.upper + 1e-9


def test_verify_characterization_passes_on_random_families():
    for seed in range(5):
        report = fusion.verify_characterization(_family(seed))
        assert report.passed, report.summary_line()


def test_verify_characterization_flags_rank_deficiency():
    # a single line cannot span the plane
    fam = WeightedSubspaceFamily(
        subspaces=(Subspace(np.eye(2)[:, :1]),),
        weights=np.ones(1),
        masses=np.ones(1),
    )
    report = fusion.verify_characterization(fam)
    assert report.passed
    assert any("not a frame" in n for n in report.notes)
    assert report.constants["synthesis_rank"] == 1.0


class TestReconstruction:
    def test_random_frames_reconstruct(self):
        rng = np.random.default_rng(10)
        for seed in range(5):
            fam = _family(seed)
            f = rng.standard_normal(fam.ambient_dim)
            rec = fusion.reconstruct(fam, f)
            assert rec.residual <= 1e-8

    def test_tight_frame_reconstructs_to_machine_precision(self):
        fam = instances.mercedes_family()
        rec = fusion.reconstruct(fam, np.array([0.3, -1.2]))
        assert rec.residual <= 1e-12

    def test_zero_vector(self):
        rec = fusion.reconstruct(instances.axes_family(3), np.zeros(3))
        assert rec.residual <= 1e-15

    def test_not_a_frame_raises(self):
        fam = WeightedSubspaceFamily(
            subspaces=(Subspace(np.eye(2)[:, :1]),),
            weights=np.ones(1),
            masses=np.ones(1),
        )
        with pytest.raises(NotAFrameError):
            fusion.reconstruct(fam, np.array([1.0, 1.0]))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), dim=st.integers(2, 6), atoms=st.integers(2, 8))
def test_bounds_enclose_every_probe(seed, dim, atoms):
    fam = instances.random_fusion_family(dim, atoms, seed)
    bounds = fusion.frame_bounds(fam)
    f = np.random.default_rng(seed + 1).standard_normal(dim)
    f /= np.linalg.norm(f)
    q = fusion.frame_sum(fam, f)
    assert bounds.lower - 1e-9 <= q <= bounds.upper + 1e-9


def test_verify_characterization_reads_injectivity_from_the_svd_rank():
    # two copies of one line: T has rank 1 in the plane, so analysis is not injective
    line = Subspace(np.eye(2)[:, :1])
    fam = WeightedSubspaceFamily(subspaces=(line, line), weights=np.ones(2), masses=np.ones(2))
    report = fusion.verify_characterization(fam)
    hyp = {h.name: h for h in report.hypotheses}["analysis_injective_iff_lower_positive"]
    assert hyp.passed
    assert "rank=1" in hyp.detail and "injective=False" in hyp.detail
    full = {h.name: h for h in fusion.verify_characterization(_family(1)).hypotheses}
    assert "rank=4, injective=True" in full["analysis_injective_iff_lower_positive"].detail


class TestNonFiniteInput:
    def test_family_weights_and_masses(self):
        sub = Subspace(np.eye(2)[:, :1])
        with pytest.raises(ValueError, match=r"weights entry 1 is not finite \(inf\)"):
            WeightedSubspaceFamily(
                subspaces=(sub, sub), weights=np.array([1.0, np.inf]), masses=np.ones(2)
            )
        with pytest.raises(ValueError, match=r"masses entry 0 is not finite \(nan\)"):
            WeightedSubspaceFamily(
                subspaces=(sub, sub), weights=np.ones(2), masses=np.array([np.nan, 1.0])
            )
