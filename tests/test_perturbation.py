from dataclasses import replace

import numpy as np
import pytest

from framelab import instances, perturbation, resolution, serialize
from framelab.hilbert import adjoint
from framelab.perturbation import PerturbationParams, predicted_interval
from framelab.resolution import OperatorFamily, SumMode


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            PerturbationParams(-0.1, 0.0, (0.0,))
        with pytest.raises(ValueError):
            PerturbationParams(0.0, 1.0, (0.0,))
        with pytest.raises(ValueError):
            PerturbationParams(0.0, 0.0, (-1.0,))

    @pytest.mark.parametrize(
        "args, named",
        [
            ((0.1, 0.0, (float("nan"),)), "phi entry 0"),
            ((0.1, 0.0, (0.0, float("-inf"))), "phi entry 1"),
            ((float("inf"), 0.0, (0.0,)), "lambda1"),
            ((float("nan"), 0.0, (0.0,)), "lambda1"),
            ((0.1, float("nan"), (0.0,)), "lambda2"),
        ],
    )
    def test_non_finite_fields_are_rejected_by_name(self, args, named):
        with pytest.raises(ValueError, match=f"{named} is not finite"):
            PerturbationParams(*args)

    def test_uniform_and_phi_l2(self):
        params = PerturbationParams.uniform(0.1, 0.2, 0.3, 4)
        assert params.phi == (0.3,) * 4
        masses = np.array([1.0, 4.0, 1.0, 1.0])
        expected = np.sqrt(np.sum(0.09 * masses))
        assert params.phi_l2(masses) == pytest.approx(expected)


def test_check_perturbation_uniform_scaling():
    base, perturbed, params, _ = instances.perturbed_resolution_instance(
        4, 5, 0, "uniform"
    )
    report = perturbation.check_perturbation(base, perturbed, params)
    assert report.passed
    assert any("certificate" in n for n in report.notes)


@pytest.mark.parametrize("seed", range(3))
def test_singular_value_certificate_outcomes(seed):
    # additive phi is each atom's weighted noise norm, so the certificate holds
    base, perturbed, params, _ = instances.perturbed_resolution_instance(4, 5, seed, "additive")
    report = perturbation.check_perturbation(base, perturbed, params)
    assert report.constants["certificate_margin"] <= 0.0
    assert report.notes == ["closeness of 5 atoms decided by the singular-value certificate on 5"]
    assert report.constants["loewner_margin"] == report.constants["probe_margin"] == -np.inf
    # uniform scaling holds on every vector, yet eps ||wT|| > eps sigma_min(wT):
    # the Loewner certificate, exact with one right-hand term, proves it
    base, perturbed, params, _ = instances.perturbed_resolution_instance(4, 5, seed, "uniform")
    report = perturbation.check_perturbation(base, perturbed, params)
    assert report.passed
    assert report.constants["certificate_margin"] > 0.0
    assert 0.0 <= report.constants["loewner_margin"] <= 1e-9
    assert report.constants["probe_margin"] == -np.inf
    assert report.notes == ["closeness of 5 atoms decided by the Loewner certificate on 5"]
    # the composite builder sets phi from the same defects the check recomputes
    report = perturbation.verify_composite_perturbation(
        *instances.composite_instance(4, 5, seed, "scalar")
    )
    assert report.constants["certificate_margin"] <= 0.0
    assert "closeness of 5 atoms decided by the singular-value certificate on 5" in report.notes
    report = perturbation.verify_composite_perturbation(
        *instances.composite_instance(4, 5, seed, "projector_defect")
    )
    assert report.constants["certificate_margin"] == 0.0


def _no_probe_pass(*args):
    raise AssertionError("a closeness check reached the probe pass")


@pytest.mark.parametrize("dim", range(2, 9))
@pytest.mark.parametrize("kind", ["left", "uniform", "additive", "degenerate", "composite"])
def test_builders_are_proved_without_probes(kind, dim, monkeypatch):
    monkeypatch.setattr(perturbation, "_probe_margin", _no_probe_pass)
    for seed in range(10):
        if kind == "composite":
            report = perturbation.verify_composite_perturbation(
                *instances.composite_instance(dim, seed=seed, kind="scalar")
            )
        else:
            base, perturbed, params, _ = instances.perturbed_resolution_instance(
                dim, seed=seed, kind=kind
            )
            report = perturbation.check_perturbation(base, perturbed, params)
        assert report.passed, (seed, report.notes)
        assert report.constants["probe_margin"] == -np.inf


def test_closeness_of_overflowing_operators_fails_without_raising():
    # at 1e160 the Loewner matrices would overflow to NaN, which eigvalsh
    # rejects: those atoms go to the probes, whose NaN excess fails the check
    base, perturbed, params, _ = instances.perturbed_resolution_instance(3, 4, 0, "uniform")
    big = replace(base, operators=1e160 * base.operators)
    big_perturbed = replace(perturbed, operators=1e160 * perturbed.operators)
    with np.errstate(over="ignore", invalid="ignore"):
        report = perturbation.check_perturbation(big, big_perturbed, params)
    assert not report.passed
    assert report.notes == ["closeness of 4 atoms decided by the probes on 4"]


@pytest.mark.parametrize("lambda1", [0.0, 1e-150])
def test_closeness_sends_atoms_whose_loewner_terms_overflow_to_the_probes(lambda1):
    # Y_i = w T_i near 1e160 has a Gram that overflows, which K_i does not
    # bound when lambda1 is 0 or tiny: M_i is not finite, and eigvalsh
    # would raise on it, so those atoms go to the probes
    base = instances.random_resolution_family(3, 4, 0)
    big = base.with_operators(1e160 * base.operators)
    shift = 1e146 * np.random.default_rng(1).standard_normal((4, 3, 3))
    perturbed = big.with_operators(big.operators + shift)
    x = base.weights[:, None, None] * (big.operators - perturbed.operators)
    params = PerturbationParams(lambda1, 0.0, tuple(0.999 * np.linalg.norm(x, 2, axis=(1, 2))))
    with np.errstate(over="ignore", invalid="ignore"):
        report = perturbation.check_perturbation(big, perturbed, params)
    assert not report.passed
    assert report.notes == ["closeness of 4 atoms decided by the probes on 4"]


def test_check_perturbation_detects_violation():
    base = instances.random_resolution_family(3, 4, 1)
    far = OperatorFamily(
        operators=tuple(t + np.eye(3) for t in base.operators),
        weights=base.weights,
        masses=base.masses,
        sum_mode=SumMode.RAW,
    )
    params = PerturbationParams.uniform(0.01, 0.0, 0.0, 4)
    report = perturbation.check_perturbation(base, far, params)
    assert not report.passed


class TestPerturbedSum:
    @pytest.mark.parametrize("kind", ["columns", "left", "scalar"])
    def test_kinds_pass_exhaustively(self, kind):
        for seed in range(4):
            base, perturbed, lam = instances.perturbed_sum_instance(
                4, seed, kind, lam=0.4
            )
            report, total = perturbation.verify_perturbed_sum(
                base, perturbed, lam
            )
            assert report.passed, report.summary_line()
            assert any("exhaustive" in n for n in report.notes)
            # the lemma's norm inference, asserted on the named constants
            assert report.constants["deviation_norm"] <= lam + 1e-9
            assert report.constants["sum_sigma_min"] >= 1.0 - lam - 1e-9
            assert report.constants["reconstruction_residual"] <= 1e-9
            assert total.shape == (4, 4)

    def test_sampled_path_for_many_atoms(self):
        base, perturbed, lam = instances.perturbed_sum_instance(
            13, 0, "scalar", lam=0.3
        )
        report, _ = perturbation.verify_perturbed_sum(
            base, perturbed, lam, nrandom=300
        )
        assert report.passed
        assert any("sampled" in n for n in report.notes)

    def test_violating_subset_is_named(self):
        base = resolution.from_orthonormal_basis(3)
        bad = OperatorFamily(
            operators=tuple(2.5 * t for t in base.operators),
            weights=base.weights,
            masses=base.masses,
            sum_mode=SumMode.RAW,
        )
        report, _ = perturbation.verify_perturbed_sum(base, bad, 0.5)
        assert not report.passed
        assert "subset_domination" in report.failed_hypotheses()

    def test_lam_range_is_validated(self):
        base, perturbed, _ = instances.perturbed_sum_instance(3, 0, "scalar")
        with pytest.raises(ValueError):
            perturbation.verify_perturbed_sum(base, perturbed, 1.0)


class TestPerturbedResolution:
    @pytest.mark.parametrize("kind", ["additive", "left", "uniform"])
    def test_kinds_pass(self, kind):
        for seed in range(4):
            base, perturbed, params, lam = instances.perturbed_resolution_instance(
                4, 6, seed, kind
            )
            report, normalized = perturbation.verify_perturbed_resolution(
                base, perturbed, params, lam
            )
            assert report.passed, report.summary_line()
            assert normalized is not None
            assert (
                report.constants["perturbed_lower"]
                >= report.constants["predicted_raw_lower"] - 1e-9
            )
            assert (
                report.constants["perturbed_upper"]
                <= report.constants["predicted_raw_upper"] + 1e-9
            )

    def test_degenerate_perturbation_reproduces_base_bounds(self):
        base, perturbed, params, lam = instances.perturbed_resolution_instance(
            4, 6, 1, "degenerate"
        )
        report, _ = perturbation.verify_perturbed_resolution(
            base, perturbed, params, lam
        )
        assert report.passed
        bounds = resolution.resolution_bounds(base)
        assert report.constants["predicted_lower"] == pytest.approx(
            bounds.lower, abs=1e-9
        )
        assert report.constants["predicted_upper"] == pytest.approx(
            bounds.upper, abs=1e-9
        )

    def test_side_condition_failure_is_reported(self):
        base, perturbed, _, lam = instances.perturbed_resolution_instance(
            3, 4, 2, "uniform"
        )
        big_phi = PerturbationParams.uniform(0.0, 0.0, 10.0, base.natoms)
        report, _ = perturbation.verify_perturbed_resolution(
            base, perturbed, big_phi, lam
        )
        assert not report.passed
        assert "side_condition" in report.failed_hypotheses()

    def test_lambda1_monotonicity_of_predicted_lower(self):
        # the predicted lower bound can only degrade as lambda1 grows
        lows = [
            predicted_interval(0.5, 2.0, PerturbationParams(l1, 0.1, (0.0,)), 0.0)[0]
            for l1 in np.linspace(0.0, 0.9, 10)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(lows, lows[1:]))


class TestCompositePerturbation:
    def test_scalar_instances_pass(self):
        for seed in range(4):
            base, comp, params, lam = instances.composite_instance(4, 5, seed)
            report = perturbation.verify_composite_perturbation(
                base, comp, params, lam
            )
            assert report.passed, report.summary_line()
            assert report.constants["probe_lower"] ** 2 >= (
                report.constants["predicted_lower"] - 1e-9
            )
            assert any("ignored" in note for note in report.notes)

    def test_identity_pair(self):
        base, comp, params, lam = instances.composite_instance(4, 1, 0, "identity")
        report = perturbation.verify_composite_perturbation(base, comp, params, lam)
        assert report.passed
        # side constant 1 - 0.1 with unit denominator, squared for the Gram
        assert report.constants["predicted_lower"] == pytest.approx(0.81)

    def test_projector_defect_fails_the_side_condition(self):
        base, comp, params, lam = instances.composite_instance(
            4, 5, 0, "projector_defect"
        )
        report = perturbation.verify_composite_perturbation(base, comp, params, lam)
        assert not report.passed
        assert "side_condition" in report.failed_hypotheses()
        # the pointwise inequality itself holds; only the side constant dies
        assert "pointwise_composite" not in report.failed_hypotheses()

    def test_bessel_violation_fails(self):
        base, comp, params, lam = instances.composite_instance(3, 4, 1)
        inflated = OperatorFamily(
            operators=tuple(3.0 * s for s in comp.operators),
            weights=comp.weights,
            masses=comp.masses,
            sum_mode=SumMode.RAW,
        )
        report = perturbation.verify_composite_perturbation(
            base, inflated, params, lam
        )
        assert not report.passed
        assert "bessel_dominated" in report.failed_hypotheses()


@pytest.mark.parametrize("seed", range(3))
def test_composition_domination_holds_at_any_scale(seed):
    # ||T S f|| <= E ||S f|| holds by the definition of E; probed, rounding
    # alone failed it once the composing family was scaled by 1e8
    base, comp, params, lam = instances.composite_instance(4, 6, seed)
    scaled = replace(comp, operators=1e8 * comp.operators)
    report = perturbation.verify_composite_perturbation(base, scaled, params, lam)
    (entry,) = [h for h in report.hypotheses if h.name == "composition_dominated"]
    assert entry.passed and entry.residual == 0.0
    assert f"E=sup_norm={base.sup_norm():.6e}" in entry.detail


def test_stability_checks_take_raw_mode_families_only():
    # a weighted-mode resolution whose raw sum misses the identity by 0.42:
    # judged in its own mode the base hypothesis passed while the lemma's
    # raw sum failed the conclusion with no failed hypothesis
    fam = instances.induced_frame_instance(3, 4, 0)
    assert fam.sum_mode is SumMode.WEIGHTED
    params = PerturbationParams.uniform(0.0, 0.0, 0.0, fam.natoms)
    calls = [
        lambda: perturbation.verify_perturbed_sum(fam, fam, 0.3),
        lambda: perturbation.verify_perturbed_resolution(fam, fam, params, 0.3),
        lambda: perturbation.verify_composite_perturbation(fam, fam, params, 0.3),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="raw-mode"):
            call()
    # one raw family of the pair is not enough
    raw = fam.with_sum_mode(SumMode.RAW)
    with pytest.raises(ValueError, match="raw-mode"):
        perturbation.verify_perturbed_sum(raw, fam, 0.3)


def _pipeline_instances():
    for seed in range(5):
        yield instances.perturbed_resolution_instance(4, 6, seed, "additive")
        yield instances.perturbed_resolution_instance(4, 6, seed, "left")
        yield instances.composite_instance(4, 6, seed)


def test_pipeline_reports_equal_the_standalone_checks():
    composites = []
    for base, perturbed, params, lam in _pipeline_instances():
        *reports, composite = perturbation.perturbation_reports(base, perturbed, params, lam)
        standalone = [
            perturbation.check_perturbation(base, perturbed, params),
            perturbation.verify_perturbed_sum(base, perturbed, lam)[0],
            perturbation.verify_perturbed_resolution(base, perturbed, params, lam)[0],
        ]
        assert [serialize.dumps_reports([r]) for r in reports] == [
            serialize.dumps_reports([r]) for r in standalone
        ]
        alone = perturbation.verify_composite_perturbation(base, perturbed, params, lam)
        # the pipeline skips the composite check exactly where its Bessel hypothesis fails
        bessel = next(h for h in alone.hypotheses if h.name == "bessel_dominated")
        assert (composite is None) == (not bessel.passed)
        if composite is not None:
            assert serialize.dumps_reports([composite]) == serialize.dumps_reports([alone])
        composites.append(composite is not None)
    assert any(composites) and not all(composites)


def test_tol_reaches_the_base_resolution_sub_checks():
    # the base misses the identity sum by 1e-8: outside the default tolerance, inside 1e-6
    base, perturbed, params, lam = instances.perturbed_resolution_instance(4, 6, 0, "additive")
    ops = np.array(base.operators)
    ops[0, 0, 0] += 1e-8
    off = OperatorFamily(operators=ops, weights=base.weights, masses=base.masses)
    checks = [
        lambda tol: perturbation.verify_perturbed_resolution(off, perturbed, params, lam, tol)[0],
        lambda tol: perturbation.verify_composite_perturbation(off, perturbed, params, lam, tol),
    ]
    for check in checks:
        for tol, passed in ((1e-9, False), (1e-6, True)):
            report = check(tol)
            hypothesis = report.hypotheses[0]
            assert hypothesis.name == "base_resolution"
            assert hypothesis.residual == pytest.approx(1e-8, rel=1e-6)
            assert hypothesis.passed is passed
            assert report.tolerances["bound_slack"] == tol
    # the subset check has judged the same residual by tol all along
    report, _ = perturbation.verify_perturbed_sum(off, perturbed, lam, 1e-6)
    assert report.hypotheses[0].name == "base_identity_sum" and report.hypotheses[0].passed


def _full_certified_excess(x, y, z, params, tol):
    """_certified_excess with every SVD taken and every Loewner term formed, as the oracle."""
    d = x.shape[-1]
    lambda1, lambda2, phi = params.lambda1, params.lambda2, np.asarray(params.phi)
    sv = np.linalg.svd(np.concatenate([x, y, z]), compute_uv=False).reshape(3, len(x), -1)
    u = 8.0 * d * d * np.finfo(float).eps
    a, b = sv[0, :, 0], lambda1 * sv[1, :, 0] + lambda2 * sv[2, :, 0] + phi
    certificate = sv[0, :, 0] - lambda1 * sv[1, :, -1] - lambda2 * sv[2, :, -1] - phi
    excess = certificate + u * (a + b)
    tier = np.where(excess <= tol, 0, 2)
    excess[tier > 0] = np.inf
    k = a * a + b * b
    o = np.flatnonzero((tier > 0) & (k < np.finfo(float).max / 8.0))
    if len(o):
        xo, yo, zo = x[o], y[o], z[o]
        low_y, low_z = lambda1 * sv[1, o, -1], lambda2 * sv[2, o, -1]
        r = low_y + low_z + phi[o]
        c = r * r - low_y * low_y - low_z * low_z
        m = lambda1 * lambda1 * (adjoint(yo) @ yo) + lambda2 * lambda2 * (adjoint(zo) @ zo)
        m -= adjoint(xo) @ xo
        m += c[:, None, None] * np.eye(d)
        s = np.maximum(8.0 * u * k[o] - np.linalg.eigvalsh(m)[:, 0], 0.0)
        r = np.maximum(r - u * b[o], 0.0)
        excess[o] = np.divide(s, r + np.sqrt(r * r + s), out=np.zeros_like(s), where=s != 0.0)
        tier[o] = np.where(excess[o] <= tol, 1, 2)
    return certificate, excess, tier


def _closeness_stacks(rng, n, d, complex_):
    def draw(*shape):
        a = rng.standard_normal(shape)
        return a + 1j * rng.standard_normal(shape) if complex_ else a

    y, z = draw(n, d, d), draw(n, d, d)
    # rank-deficient and zero atoms give zero singular values and zero Gram entries
    y[0, :, 0] = 0.0
    z[1] = -0.0
    y[2] = 0.0
    return y - z + 0.05 * draw(n, d, d), y, z


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("lambdas", [
    (0.0, 0.0), (0.3, 0.0), (0.0, 0.4), (0.3, 0.4), (-0.0, 0.2), (0.25, -0.0), (-0.0, -0.0),
])
def test_closeness_skips_the_stacks_of_zero_lambdas_bit_for_bit(complex_, lambdas):
    # the SVD and the Loewner terms of a stack whose lambda is 0 are left
    # out; the certificate, the bounds and the tiers keep every bit, signed
    # zeros and all, against the full computation
    rng = np.random.default_rng(5)
    for d in (1, 2, 3, 5):
        x, y, z = _closeness_stacks(rng, 7, d, complex_)
        for phi in ((0.0,) * 7, (-0.0,) * 7, tuple(rng.uniform(0.0, 0.6, 7)), (0.0, 1e-300) * 3 + (5.0,)):
            params = PerturbationParams(*lambdas, phi)
            got = perturbation._certified_excess(x, y, z, params, 1e-9)
            want = _full_certified_excess(x, y, z, params, 1e-9)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_closeness_takes_no_svd_of_a_zero_lambda_stack(monkeypatch):
    base, perturbed, params, _ = instances.perturbed_resolution_instance(4, 6, 0, "additive")
    assert params.lambda1 == params.lambda2 == 0.0
    shapes = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    perturbation.check_perturbation(base, perturbed, params)
    assert shapes == [(6, 4, 4)]  # X alone


def test_resolution_facts_are_verify_resolutions():
    # what the shared pieces read in place of a verify_resolution report
    base = instances.random_resolution_family(4, 6, 0)
    broken = base.with_operators(2.0 * base.operators)
    singular = base.with_operators(np.concatenate([base.operators[:1], 0.0 * base.operators[1:]]))
    for fam in (base, broken, singular, base.with_sum_mode(SumMode.WEIGHTED)):
        for tol in (1e-9, 10.0):
            report = resolution.verify_resolution(fam, identity_tol=tol)
            bounds, residual, passed = resolution.resolution_facts(fam, tol)
            assert (bounds.lower, bounds.upper) == (
                report.constants["gram_lower"], report.constants["gram_upper"]
            )
            assert residual == report.constants["identity_residual"]
            assert passed == report.passed


def test_all_subset_masks_are_kept_read_only():
    first = perturbation.all_subset_masks(5)
    assert perturbation.all_subset_masks(5) is first
    assert not first.flags.writeable
    assert first.shape == (31, 5) and first.dtype == bool
    # counting order with atom 0 on the top bit
    assert first[0].tolist() == [False] * 4 + [True] and first[-1].all()
