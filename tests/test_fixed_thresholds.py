"""The checks' thresholds and probe counts are fixed module constants.

Each signature below is pinned, so giving a check a setting back is a
deliberate edit here, and each report's ``tolerances`` keeps the values the
checks have always recorded.
"""
import inspect

import numpy as np
import pytest

from framelab import fusion, hilbert, instances, perturbation, resolution, theorems

_ = inspect.Parameter.empty

SIGNATURES = {
    perturbation.check_perturbation: [("base", _), ("perturbed", _), ("params", _), ("tol", 1e-9)],
    perturbation.verify_perturbed_resolution: [
        ("base", _), ("perturbed", _), ("params", _), ("lam", _), ("tol", 1e-9),
    ],
    perturbation.verify_composite_perturbation: [
        ("base", _), ("composed_with", _), ("params", _), ("lam", _), ("tol", 1e-9),
    ],
    perturbation.verify_perturbed_sum: [
        ("base", _), ("perturbed", _), ("lam", _), ("tol", 1e-9), ("nrandom", 10_000), ("rng", None),
    ],
    perturbation.perturbation_reports: [
        ("base", _), ("perturbed", _), ("params", _), ("lam", _), ("tol", 1e-9),
    ],
    perturbation.subset_masks: [("natoms", _), ("nrandom", _), ("rng", None)],
    resolution.identity_sum_residual: [("family", _)],
    resolution.verify_resolution: [("family", _), ("identity_tol", 1e-9)],
    resolution.support: [("family", _), ("f", _)],
    theorems.reconstruct_by_support: [("family", _), ("f", _)],
    theorems.verify_operator_family_sandwich: [("family", _), ("operators", _), ("tol", 1e-9)],
    theorems.verify_orthogonal_decomposition: [("family", _), ("tol", 1e-9)],
    theorems.verify_frame_from_projection_identity: [("family", _), ("tol", 1e-9), ("rng", None)],
    fusion.synthesis: [("family", _), ("coeffs", _)],
    fusion.reconstruct: [("family", _), ("f", _)],
    hilbert.SpectralBounds.is_positive: [("self", _)],
    hilbert.is_self_adjoint: [("a", _)],
    hilbert.self_adjoint_eigh: [("a", _)],
    hilbert.self_adjoint_spectrum: [("a", _)],
    hilbert.solve_positive: [("a", _), ("f", _)],
    hilbert.solve_positive_eigh: [("a", _), ("eigh", _), ("f", _)],
    hilbert.range_bases: [("stack", _)],
    hilbert.column_space: [("a", _)],
    hilbert.orthonormal_basis: [("vectors", _), ("ambient_dim", None)],
    hilbert.Subspace.contains: [("self", _), ("f", _)],
    instances.vector_frame_instance: [("dim", 4), ("atoms", 6), ("seed", 0)],
}


@pytest.mark.parametrize("fn", list(SIGNATURES), ids=lambda fn: fn.__qualname__)
def test_check_signatures_are_pinned(fn):
    params = inspect.signature(fn).parameters.values()
    assert [(p.name, p.default) for p in params] == SIGNATURES[fn]


def test_constants_hold_the_former_defaults():
    assert (perturbation.CLOSENESS_PROBES, perturbation.BOUND_PROBES) == (2000, 1000)
    assert (perturbation.SINGULAR_CUT, resolution.ALIGN_TOL, hilbert.SELF_ADJOINT_RTOL) == (
        1e-12, 1e-12, 1e-12,
    )
    assert (hilbert.MEMBERSHIP_TOL, resolution.SUPPORT_TOL, hilbert.POSITIVITY_REL_TOL) == (
        1e-10, 1e-10, 1e-10,
    )


def _reports():
    """One report of every check, each built at its default thresholds."""
    base, perturbed, params, lam = instances.perturbed_resolution_instance(4, 5, 0, "left")
    comp = instances.composite_instance(4, 5, 0)
    fam, ops = instances.sandwich_instance(4, 5, 0)
    induced, _ = theorems.verify_induced_fusion_frame(instances.induced_frame_instance(4, 5, 0))
    return [
        resolution.verify_resolution(base),
        perturbation.check_perturbation(base, perturbed, params),
        perturbation.verify_perturbed_sum(base, perturbed, lam)[0],
        perturbation.verify_perturbed_resolution(base, perturbed, params, lam)[0],
        perturbation.verify_composite_perturbation(*comp),
        induced,
        theorems.verify_operator_family_sandwich(fam, ops),
        theorems.verify_frame_from_projection_identity(instances.projection_identity_instance(5, 0)),
        theorems.verify_orthogonal_decomposition(instances.orthogonal_blocks_family(4, 2, 0)),
        theorems.verify_induced_vector_frame(*instances.vector_frame_instance(4, 5, 0)),
        theorems.reconstruct_by_support(instances.block_resolution_family(4, 3, 0), np.ones(4)).report,
        fusion.verify_characterization(instances.random_fusion_family(4, 5, 0)),
    ]


TOLERANCES = {
    "resolution_conditions": {"identity_residual": 1e-9, "positivity_rel": 1e-10},
    "pointwise_perturbation": {"probe_margin": 1e-9},
    "subset_stable_sum": {"bound_slack": 1e-9, "certificate_floor": 1e-10},
    "perturbed_resolution": {"bound_slack": 1e-9, "identity_residual": 1e-9},
    "composite_perturbation": {"bound_slack": 1e-9, "probe_margin": 1e-9},
    "induced_fusion_frame": {"identity_residual": 1e-9, "bound_slack": 1e-9},
    "operator_family_sandwich": {"bound_slack": 1e-9, "sandwich_residual": 1e-10},
    "projection_identity_frame": {"identity_residual": 1e-9, "bound_slack": 1e-9},
    "orthogonal_decomposition": {"decomposition_residual": 1e-9, "orthogonality": 1e-10},
    "induced_vector_frame": {"bound_slack": 1e-9},
    "support_reconstruction": {"residual": 1e-8, "ordering_gap": 1e-9},
    "synthesis_characterization": {"norm_match": 1e-9},
}


def test_reports_record_their_fixed_tolerances():
    reports = _reports()
    assert sorted(r.check_id for r in reports) == sorted(TOLERANCES)
    for report in reports:
        assert report.tolerances == TOLERANCES[report.check_id], report.check_id
