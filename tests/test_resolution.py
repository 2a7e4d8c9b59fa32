import dataclasses

import numpy as np
import pytest

from framelab import instances, resolution
from framelab.errors import AtomMismatchError, DimensionMismatchError
from framelab.resolution import OperatorFamily, SumMode


def _raw(seed=0, dim=4, atoms=6):
    return instances.random_resolution_family(dim, atoms, seed)


class TestOperatorFamily:
    def test_rejects_nonsquare_operators(self):
        with pytest.raises(DimensionMismatchError):
            OperatorFamily(
                operators=(np.ones((2, 3)),),
                weights=np.ones(1),
                masses=np.ones(1),
                sum_mode=SumMode.RAW,
            )

    def test_sum_coefficients_by_mode(self):
        fam = _raw(1)
        raw_coeffs = fam.sum_coefficients()
        assert np.allclose(raw_coeffs, 1.0)
        weighted = fam.with_sum_mode(SumMode.WEIGHTED)
        assert np.allclose(
            weighted.sum_coefficients(), fam.weights**2 * fam.masses
        )

    def test_with_sum_mode_carries_only_the_mode_free_pieces(self):
        fam = _raw(1)
        assert fam.with_sum_mode(SumMode.RAW) is fam
        gram, bounds = resolution.resolution_gram(fam), resolution.resolution_bounds(fam)
        raw_residual = resolution.identity_sum_residual(fam)
        weighted = fam.with_sum_mode(SumMode.WEIGHTED)
        assert (fam.sum_mode, weighted.sum_mode) == (SumMode.RAW, SumMode.WEIGHTED)
        assert weighted.operators is fam.operators and weighted.points == fam.points
        assert resolution.resolution_gram(weighted) is gram
        assert resolution.resolution_bounds(weighted) is bounds
        # the identity sum depends on the mode, so it is computed afresh
        fresh = OperatorFamily(fam.operators, fam.weights, fam.masses, SumMode.WEIGHTED)
        assert resolution.identity_sum_residual(weighted) == resolution.identity_sum_residual(fresh)
        assert resolution.identity_sum_residual(weighted) != raw_residual
        assert resolution.identity_sum_residual(fam) == raw_residual
        with pytest.raises(ValueError, match="sum_mode must be a SumMode"):
            fam.with_sum_mode("weighted")

    @pytest.mark.parametrize("complex_", [False, True])
    def test_with_operators_equals_a_rebuilt_family(self, complex_):
        fam = _raw(1)
        gram = resolution.resolution_gram(fam)
        rng = np.random.default_rng(0)
        ops = fam.operators + 0.1 * rng.standard_normal(fam.operators.shape)
        if complex_:
            ops = ops + 0.1j * rng.standard_normal(fam.operators.shape)
        # a transposed view, so the stored copy's layout is the constructor's too
        ops = ops.transpose(0, 2, 1)
        for mode in SumMode:
            src = fam.with_sum_mode(mode)
            got = src.with_operators(ops)
            want = dataclasses.replace(src, operators=ops)
            assert got.operators.tobytes() == want.operators.tobytes()
            assert got.operators.dtype == want.operators.dtype
            assert got.operators.strides == want.operators.strides
            assert not got.operators.flags.writeable
            assert not np.shares_memory(got.operators, ops)
            # the read-only per-atom data is shared, no kept piece is
            assert got.weights is fam.weights and got.masses is fam.masses
            assert (got.points, got.sum_mode) == (fam.points, mode)
            assert resolution.resolution_gram(got) is not gram
            assert np.array_equal(resolution.resolution_gram(got), resolution.resolution_gram(want))

    def test_with_operators_checks_the_new_operators(self):
        fam = _raw(1)
        ops = np.array(fam.operators)
        ops[2, 1, 0] = np.inf
        with pytest.raises(ValueError, match=r"operators entry \(2, 1, 0\) is not finite"):
            fam.with_operators(ops)
        with pytest.raises(AtomMismatchError, match="5 operators vs weights"):
            fam.with_operators(fam.operators[:5])
        with pytest.raises(DimensionMismatchError, match="square matrices"):
            fam.with_operators(fam.operators[:, :2])
        with pytest.raises(ValueError, match="at least one operator"):
            fam.with_operators(())

    @pytest.mark.parametrize("complex_", [False, True])
    def test_identity_sum_matrix_is_tensordots_product(self, complex_):
        rng = np.random.default_rng(3)
        for n, d in ((1, 1), (3, 2), (6, 4), (40, 8)):
            ops = rng.standard_normal((n, d, d))
            if complex_:
                ops = ops + 1j * rng.standard_normal((n, d, d))
            raw = OperatorFamily(ops, rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n))
            for fam in (raw, raw.with_sum_mode(SumMode.WEIGHTED)):
                want = np.tensordot(fam.sum_coefficients(), fam.operators, axes=1)
                assert fam.identity_sum_matrix().tobytes() == want.tobytes()

    def test_family_owns_its_weights_and_masses(self):
        ops = resolution.from_orthonormal_basis(2).operators
        w, m = np.ones(2), np.ones(2)
        fam = OperatorFamily(ops, w, m)
        before = resolution.resolution_bounds(fam)
        w[0], m[1] = 3.0, 5.0
        assert np.array_equal(fam.weights, np.ones(2))
        assert np.array_equal(fam.masses, np.ones(2))
        assert resolution.resolution_bounds(fam) == before
        for stored in (fam.weights, fam.masses):
            with pytest.raises(ValueError):
                stored[1] = -1.0

    def test_overflowing_gram_sum_names_its_cause(self):
        fam = _raw(0)
        big = OperatorFamily(1e200 * fam.operators, fam.weights, fam.masses)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="assembled matrix entry .* is not finite"):
                resolution.resolution_bounds(big)

    def test_sup_norm_is_max_operator_norm(self):
        fam = _raw(2)
        norms = [np.linalg.norm(t, 2) for t in fam.operators]
        assert fam.sup_norm() == pytest.approx(max(norms), rel=1e-12)


def test_basis_resolution_is_exact():
    fam = resolution.from_orthonormal_basis(4)
    basis_res, op_res = resolution.identity_sum_residual(fam)
    assert max(basis_res, op_res) == 0.0
    report = resolution.verify_resolution(fam)
    assert report.passed
    assert report.constants["gram_lower"] == pytest.approx(1.0, abs=1e-12)
    assert report.constants["gram_upper"] == pytest.approx(1.0, abs=1e-12)


def test_random_resolution_sums_to_identity():
    for seed in range(5):
        fam = _raw(seed)
        _, op_res = resolution.identity_sum_residual(fam)
        assert op_res <= 1e-12
        report = resolution.verify_resolution(fam)
        assert report.passed, report.summary_line()


def test_gram_matches_quadratic_form():
    fam = _raw(3)
    gram = resolution.resolution_gram(fam)
    rng = np.random.default_rng(7)
    for _ in range(5):
        f = rng.standard_normal(fam.ambient_dim)
        assert resolution.gram_sum(fam, f) == pytest.approx(
            float(f @ gram @ f), rel=1e-11
        )


def test_gram_bounds_enclose_probes():
    fam = _raw(4)
    bounds = resolution.resolution_bounds(fam)
    assert bounds.is_positive()
    rng = np.random.default_rng(8)
    for _ in range(20):
        f = rng.standard_normal(fam.ambient_dim)
        f /= np.linalg.norm(f)
        q = resolution.gram_sum(fam, f)
        assert bounds.lower - 1e-9 <= q <= bounds.upper + 1e-9


def test_verify_resolution_reports_broken_identity():
    fam = _raw(5)
    broken = OperatorFamily(
        operators=tuple(1.5 * t for t in fam.operators),
        weights=fam.weights,
        masses=fam.masses,
        sum_mode=SumMode.RAW,
    )
    report = resolution.verify_resolution(broken)
    assert not report.passed
    assert "identity_sum" in report.failed_hypotheses()


def test_identity_sum_is_decided_in_operator_norm():
    # the sum misses the identity by 1.4e-9 along u = (1, ..., 1) / sqrt(8):
    # every column misses by 1.4e-9 / sqrt(8) = 4.95e-10, within 1e-9
    u = np.ones(8) / np.sqrt(8.0)
    ops = np.stack([np.eye(8) / 2.0, np.eye(8) / 2.0 + 1.4e-9 * np.outer(u, u)])
    fam = OperatorFamily(ops, np.ones(2), np.ones(2), SumMode.RAW)
    basis_res, op_res = resolution.identity_sum_residual(fam)
    assert basis_res == pytest.approx(1.4e-9 / np.sqrt(8.0), rel=1e-6)
    assert op_res == pytest.approx(1.4e-9, rel=1e-6)
    report = resolution.verify_resolution(fam, identity_tol=1e-9)
    assert report.failed_hypotheses() == ["identity_sum"]
    [hypothesis] = [h for h in report.hypotheses if h.name == "identity_sum"]
    assert hypothesis.residual == op_res
    assert resolution.verify_resolution(fam, identity_tol=2e-9).passed


def test_normalize_to_identity_repairs_a_scaled_family():
    fam = _raw(6)
    scaled = OperatorFamily(
        operators=tuple(0.7 * t for t in fam.operators),
        weights=fam.weights,
        masses=fam.masses,
        sum_mode=SumMode.RAW,
    )
    fixed = resolution.normalize_to_identity(scaled)
    _, op_res = resolution.identity_sum_residual(fixed)
    assert op_res <= 1e-12


def test_support_is_genuinely_local_on_block_resolutions():
    fam = instances.block_resolution_family(4, 3, 0)
    d = fam.ambient_dim
    f = np.zeros(d)
    f[0] = 1.0  # lives in the first block
    active = resolution.support(fam, f)
    assert 0 < len(active) < fam.natoms
    for i in set(range(fam.natoms)) - set(active):
        assert np.linalg.norm(fam.operators[i] @ f) <= 1e-10


def test_support_of_zero_vector_is_empty():
    fam = _raw(7)
    assert resolution.support(fam, np.zeros(fam.ambient_dim)) == ()


class TestStackedOperators:
    def test_operators_are_one_read_only_array(self):
        fam = OperatorFamily(
            operators=[np.eye(2), 2.0 * np.eye(2)], weights=np.ones(2), masses=np.ones(2)
        )
        assert fam.operators.shape == (2, 2, 2)
        assert not fam.operators.flags.writeable
        assert len(fam.operators) == 2
        assert np.array_equal(fam.operators[1], 2.0 * np.eye(2))
        assert [float(t[0, 0]) for t in fam.operators] == [1.0, 2.0]

    def test_rejects_non_finite_entries(self):
        ops = np.stack([np.eye(2), np.eye(2)])
        ops[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match=r"operators entry \(1, 0, 1\) is not finite"):
            OperatorFamily(operators=ops, weights=np.ones(2), masses=np.ones(2))
        with pytest.raises(ValueError, match=r"weights entry 0 is not finite"):
            OperatorFamily(operators=(np.eye(2),), weights=[np.inf], masses=np.ones(1))
        with pytest.raises(ValueError, match=r"masses entry 0 is not finite"):
            OperatorFamily(operators=(np.eye(2),), weights=np.ones(1), masses=[np.nan])
