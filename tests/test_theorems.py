import itertools
import tracemalloc

import numpy as np
import pytest

from framelab import cli, fusion, hilbert, instances, resolution, theorems
from framelab.errors import AtomMismatchError
from framelab.fusion import WeightedSubspaceFamily
from framelab.hilbert import Subspace
from framelab.resolution import OperatorFamily, SumMode


class TestInducedFusionFrame:
    def test_random_instances_pass(self):
        for seed in range(8):
            fam = instances.induced_frame_instance(4, 6, seed)
            report, induced = theorems.verify_induced_fusion_frame(fam)
            assert report.passed, report.summary_line()
            assert induced.natoms == fam.natoms
            assert report.constants["lower"] >= report.constants["predicted_lower"] - 1e-9

    def test_exact_projectors_have_no_deviation(self):
        fam = instances.induced_frame_instance(5, 4, 1, exact=True)
        report, _ = theorems.verify_induced_fusion_frame(fam)
        assert report.passed
        assert report.constants["deviation_bound"] <= 1e-12
        # with no deviation the predicted upper bound collapses to D
        assert report.constants["predicted_upper"] == pytest.approx(
            report.constants["gram_upper"], abs=1e-9
        )

    def test_requires_weighted_mode(self):
        fam = instances.random_resolution_family(3, 4, 0)
        with pytest.raises(ValueError):
            theorems.verify_induced_fusion_frame(fam)


class TestOperatorFamilySandwich:
    def test_random_instances_pass(self):
        for seed in range(8):
            fam, ops = instances.sandwich_instance(4, 5, seed)
            report = theorems.verify_operator_family_sandwich(fam, ops)
            assert report.passed, report.summary_line()

    def test_linear_upper_form_fails_for_small_products(self):
        # every weight-mass product below one makes the scaled projectors
        # large, so only the squared form of the upper bound survives
        fam, ops = instances.sandwich_instance(4, 4, 2, scaled_orthogonal=True)
        report = theorems.verify_operator_family_sandwich(fam, ops)
        assert report.passed
        assert report.constants["upper_linear_form_holds"] == 0.0
        assert any("linear" in note for note in report.notes)

    def test_misaligned_atoms_raise(self):
        fam, _ = instances.sandwich_instance(4, 5, 0)
        _, other_ops = instances.sandwich_instance(4, 5, 1)
        with pytest.raises(AtomMismatchError):
            theorems.verify_operator_family_sandwich(fam, other_ops)


class TestProjectionIdentityFrame:
    def test_equiangular_and_orthogonal_instances_pass(self):
        for seed in range(4):
            fam = instances.projection_identity_instance(5, seed, "equiangular")
            report = theorems.verify_frame_from_projection_identity(fam)
            assert report.passed, report.summary_line()
        fam = instances.projection_identity_instance(3, 1, "orthogonal", dim=5)
        report = theorems.verify_frame_from_projection_identity(fam)
        assert report.passed

    def test_lower_bound_prediction(self):
        fam = instances.projection_identity_instance(6, 2, "equiangular")
        report = theorems.verify_frame_from_projection_identity(fam)
        assert (
            report.constants["lower"]
            >= report.constants["predicted_lower"] - 1e-9
        )

    def test_identity_hypothesis_fails_off_family(self):
        fam = instances.random_fusion_family(3, 4, 0)
        report = theorems.verify_frame_from_projection_identity(fam)
        assert not report.passed
        assert "first_power_identity_sum" in report.failed_hypotheses()

    def test_bound_at_equality_passes_at_a_rounding_sized_tolerance(self):
        # one atom spanning the plane: A = C = omega exactly, computed 5 ulps
        # apart; quadratic forms of the frame operator on random probes fall
        # up to 1.3e-15 below C here, so a probe pass would fail at 1e-15
        fam = instances.projection_identity_instance(1, 0, "orthogonal", 2)
        report = theorems.verify_frame_from_projection_identity(fam, 1e-15)
        assert report.passed, report.summary_line()
        assert report.constants["lower"] < report.constants["predicted_lower"]
        assert "probe_margin" not in report.constants
        converse = theorems.verify_orthogonal_decomposition(fam, 1e-15)
        assert "converse checked via projection-identity frame bound: holds" in converse.notes

    def test_identity_sums_are_decided_within_their_rounding(self):
        # two orthogonal blocks of ranks 4 and 3 spanning R^7: both projector
        # sums are the identity, computed with a column residual of 1.17e-15
        fam = instances.projection_identity_instance(2, 0, "orthogonal", 7)
        residual = theorems.first_power_residual(fam)
        assert 1e-15 < residual < theorems.first_power_limit(fam, 1e-15)
        report = theorems.verify_frame_from_projection_identity(fam, 1e-15)
        assert report.passed, report.summary_line()
        decomposition = theorems.verify_orthogonal_decomposition(fam, 1e-15)
        assert decomposition.passed, decomposition.summary_line()
        assert decomposition.constants["decomposition_residual"] > 1e-15
        assert "converse checked via projection-identity frame bound: holds" in decomposition.notes
        # the CLI's gate reads the same limit, so neither check is skipped
        lines = [line.summary_line() for line in cli._projector_checks(fam, 1e-15)]
        assert lines == [report.summary_line(), decomposition.summary_line()]
        # the allowance is of rounding size: masses off by 1e-12 still fail
        off = WeightedSubspaceFamily(fam.subspaces, fam.weights, fam.masses * (1.0 + 1e-12))
        report = theorems.verify_frame_from_projection_identity(off, 1e-15)
        assert report.failed_hypotheses() == ["first_power_identity_sum"]

    def test_rng_is_accepted_and_left_undrawn(self):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        fam = instances.projection_identity_instance(5, 0)
        assert theorems.verify_frame_from_projection_identity(fam, rng=rng).passed
        assert rng.bit_generator.state == state


class TestOrthogonalDecomposition:
    def test_orthogonal_blocks_pass_with_converse(self):
        fam = instances.orthogonal_blocks_family(6, 3, 0)
        report = theorems.verify_orthogonal_decomposition(fam)
        assert report.passed
        assert any("converse" in note for note in report.notes)

    def test_non_orthogonal_family_fails_hypothesis(self):
        fam = instances.mercedes_family()
        report = theorems.verify_orthogonal_decomposition(fam)
        assert not report.passed
        assert "pairwise_orthogonal" in report.failed_hypotheses()

    def test_orthogonal_but_not_spanning_fails_conclusion(self):
        subs = (Subspace(np.eye(3)[:, :1]), Subspace(np.eye(3)[:, 1:2]))
        fam = WeightedSubspaceFamily(
            subspaces=subs, weights=np.ones(2), masses=np.ones(2)
        )
        report = theorems.verify_orthogonal_decomposition(fam)
        assert not report.passed

    def test_defect_never_forms_the_full_gram(self):
        # 128 rank-16 atoms in R^32: U* U would be 2048 x 2048, 32 MiB
        rng = np.random.default_rng(0)
        subs = tuple(
            Subspace(np.linalg.qr(rng.standard_normal((32, 16)))[0]) for _ in range(128)
        )
        fam = WeightedSubspaceFamily(subs, np.ones(128), np.ones(128))
        tracemalloc.start()
        try:
            defect = theorems.orthogonality_defect(fam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2048**2 * 8 / 8
        cross = max(
            np.linalg.norm(a.basis.T @ b.basis, 2) for a, b in itertools.combinations(subs, 2)
        )
        assert defect == pytest.approx(cross, rel=1e-12)


class TestInducedVectorFrame:
    def test_random_instances_pass(self):
        for seed in range(8):
            ops, vectors = instances.vector_frame_instance(4, 6, seed)
            report = theorems.verify_induced_vector_frame(ops, vectors)
            assert report.passed, report.summary_line()
            low = report.constants["lower"]
            up = report.constants["upper"]
            assert low >= report.constants["predicted_lower"] - 1e-8
            assert up <= report.constants["predicted_upper"] + 1e-8

    def test_requires_raw_mode(self):
        fam = instances.induced_frame_instance(3, 4, 0)
        with pytest.raises(ValueError):
            theorems.verify_induced_vector_frame(fam, (np.eye(3)[:, 0],))

    def test_restricted_span_still_contained(self):
        # a sequence spanning only a block keeps the containment on that span
        ops = instances.block_resolution_family(4, 3, 1)
        vectors = (np.eye(4)[:, 0], np.eye(4)[:, 1])
        report = theorems.verify_induced_vector_frame(ops, vectors)
        assert report.constants["span_dim"] == 2.0
        assert report.passed, report.summary_line()

    def test_tol_reaches_the_base_resolution_sub_check(self):
        # the raw identity sum misses by 1e-8: outside the default tolerance, inside 1e-6
        fam, vectors = instances.vector_frame_instance(4, 5, 0)
        ops = np.array(fam.operators)
        ops[0, 0, 0] += 1e-8
        off = OperatorFamily(operators=ops, weights=fam.weights, masses=fam.masses)
        for tol, passed in ((1e-9, False), (1e-6, True)):
            report = theorems.verify_induced_vector_frame(off, vectors, tol)
            hypothesis = report.hypotheses[0]
            assert hypothesis.name == "base_resolution"
            assert hypothesis.residual == pytest.approx(1e-8, rel=1e-6)
            assert hypothesis.passed is passed
            assert report.passed is passed


class TestSupportReconstruction:
    def test_block_supported_vectors_reconstruct_exactly(self):
        for seed in range(6):
            fam = instances.block_resolution_family(4, 3, seed)
            f = np.zeros(4)
            f[:2] = np.random.default_rng(seed).standard_normal(2)
            outcome = theorems.reconstruct_by_support(fam, f)
            assert outcome.report.passed, outcome.report.summary_line()
            assert outcome.report.constants["support_size"] < fam.natoms
            assert np.linalg.norm(outcome.inverse_first - f) <= 1e-8 * np.linalg.norm(f)
            assert np.linalg.norm(outcome.inverse_last - f) <= 1e-8 * np.linalg.norm(f)
            assert outcome.report.constants["ordering_gap"] <= 1e-9

    def test_full_support_reduces_to_plain_reconstruction(self):
        fam = instances.random_resolution_family(4, 5, 3)
        f = np.random.default_rng(0).standard_normal(4)
        outcome = theorems.reconstruct_by_support(fam, f)
        assert outcome.report.passed
        assert outcome.report.constants["support_size"] == fam.natoms

    def test_zero_vector_is_trivial(self):
        fam = instances.random_resolution_family(3, 4, 4)
        outcome = theorems.reconstruct_by_support(fam, np.zeros(3))
        assert outcome.report.passed
        assert np.allclose(outcome.inverse_first, 0.0)

    def test_requires_raw_mode(self):
        fam = instances.induced_frame_instance(3, 4, 2)
        with pytest.raises(ValueError):
            theorems.reconstruct_by_support(fam, np.eye(3)[:, 0])

    def test_vector_no_atom_acts_on_fails_the_span_gram(self):
        # diag(1, 0) and the zero operator both annihilate e_1
        fam = OperatorFamily(
            operators=np.array([np.diag([1.0, 0.0]), np.zeros((2, 2))]),
            weights=np.ones(2), masses=np.ones(2), sum_mode=SumMode.RAW,
        )
        outcome = theorems.reconstruct_by_support(fam, np.array([0.0, 1.0]))
        assert outcome.report.failed_hypotheses() == ["span_gram_positive"]
        assert outcome.report.constants["support_size"] == 0.0
        assert outcome.inverse_first is None and outcome.inverse_last is None


class TestComplexFamilies:
    def _lines(self, vectors):
        n = vectors.shape[1]
        subs = tuple(Subspace(vectors[:, [k]]) for k in range(n))
        return WeightedSubspaceFamily(subspaces=subs, weights=np.ones(n), masses=np.ones(n))

    def test_unweighted_upper_and_defect_use_the_adjoint(self):
        rng = np.random.default_rng(1)
        v = np.array([rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(4)]).T
        v /= np.linalg.norm(v, axis=0)
        fam = self._lines(v)
        report = theorems.verify_frame_from_projection_identity(fam)
        # a plain transpose would read 2.2693 here instead of 2.2937
        expected_top = np.linalg.eigvalsh(v @ v.conj().T)[-1]
        assert report.constants["unweighted_upper"] == pytest.approx(expected_top, rel=1e-12)
        cross = np.abs(v.conj().T @ v)[np.triu_indices(4, 1)].max()
        assert theorems.orthogonality_defect(fam) == pytest.approx(cross, rel=1e-12)

    def test_cli_gate_runs_on_complex_orthogonal_lines(self):
        # (1, i) and (1, -i) are orthogonal, but their plain transpose product is 1
        fam = self._lines(np.array([[1.0, 1.0], [1j, -1j]]) / np.sqrt(2.0))
        entries = list(cli._projector_checks(fam, 1e-9))
        # a check that runs yields its report, a skipped one its SKIP line
        assert [isinstance(entry, str) for entry in entries] == [False, False]
        assert all(report.passed for report in entries)
        assert theorems.orthogonality_defect(fam) <= 1e-15


@pytest.mark.parametrize("owner, name, expected, check, args", [
    # one eigendecomposition of the span Gram gives its bounds and both solves
    (hilbert, "self_adjoint_eigh", {"reconstruct_by_support": 1},
     lambda *a: theorems.reconstruct_by_support(*a).report,
     lambda: (instances.block_resolution_family(4, 3, 0), np.ones(4))),
    # one frame operator gives the spectral bounds, beside the first-power
    # sum of the gate and the unweighted sum
    (WeightedSubspaceFamily, "projector_sum",
     {"frame_operator": 1, "first_power_residual": 1, "_unweighted_upper": 1},
     theorems.verify_frame_from_projection_identity,
     lambda: (instances.projection_identity_instance(5, 0),)),
    # one stack of operator norms gives the residual scales and E
    (resolution.OperatorFamily, "operator_norms", {"verify_operator_family_sandwich": 1},
     theorems.verify_operator_family_sandwich,
     lambda: instances.sandwich_instance(4, 5, 0)),
], ids=["support_reconstruction", "projection_identity", "sandwich"])
def test_each_check_builds_each_operator_once(callers, owner, name, expected, check, args):
    args = args()  # built before counting starts
    counts = callers(owner, name)
    assert check(*args).passed
    assert counts == expected
