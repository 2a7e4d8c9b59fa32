import dataclasses
import inspect
import math

import numpy as np
import pytest

from framelab import fusion, hilbert, instances, perturbation, resolution, theorems
from framelab.fusion import WeightedSubspaceFamily
from framelab.resolution import OperatorFamily


def test_registry_names_are_stable():
    expected = {
        "axes",
        "mercedes",
        "equiangular",
        "orthogonal_blocks",
        "random_fusion",
        "rotating_line",
        "basis_resolution",
        "random_resolution",
        "block_resolution",
    }
    assert expected <= set(instances.SCENARIOS)


def test_unknown_scenario_lists_known_names():
    with pytest.raises(ValueError, match="mercedes"):
        instances.build_scenario("nope")


@pytest.mark.parametrize("name", sorted(instances.SCENARIOS))
def test_every_scenario_builds(name):
    obj = instances.build_scenario(name, seed=1)
    assert isinstance(obj, (WeightedSubspaceFamily, OperatorFamily))


@pytest.mark.parametrize("name", sorted(instances.SCENARIOS))
def test_a_scenarios_sizes_and_defaults_are_its_builders(name):
    entry = instances.SCENARIOS[name]
    assert [f.name for f in dataclasses.fields(entry)] == ["name", "builder", "limit_bounds"]
    params = inspect.signature(entry.builder).parameters
    assert set(params) <= {"dim", "atoms", "seed", "n"}
    assert entry.continuous == ("n" in params)
    # every omitted size takes the builder's own default
    a, b = entry.build(), entry.builder()
    if isinstance(a, OperatorFamily):
        assert np.array_equal(a.operators, b.operators)
    else:
        assert all(np.array_equal(x.basis, y.basis) for x, y in zip(a.subspaces, b.subspaces))
    assert np.array_equal(a.weights, b.weights) and np.array_equal(a.masses, b.masses)


def test_only_the_rotating_line_is_continuous():
    assert [n for n, s in instances.SCENARIOS.items() if s.continuous] == ["rotating_line"]


@pytest.mark.parametrize("dim, atoms", [(2, 1), (5, 1), (1, 0)])
def test_random_fusion_family_rejects_sizes_that_cannot_span(dim, atoms):
    with pytest.raises(ValueError, match="cannot span"):
        instances.random_fusion_family(dim, atoms, 0)


def test_smallest_spanning_random_fusion_sizes_build():
    for dim, atoms in [(1, 1), (2, 2), (3, 2)]:
        assert instances.random_fusion_family(dim, atoms, 0).natoms == atoms


@pytest.mark.parametrize(
    "build",
    [
        lambda: instances.random_fusion_family(4, 6, 0),
        lambda: instances.random_resolution_family(4, 6, 0),
    ],
)
def test_families_compare_and_hash_by_identity(build):
    a, b = build(), build()
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2


def test_same_seed_reproduces_the_instance():
    a = instances.random_fusion_family(5, 7, 42)
    b = instances.random_fusion_family(5, 7, 42)
    assert np.array_equal(a.weights, b.weights)
    for x, y in zip(a.subspaces, b.subspaces):
        assert np.array_equal(x.basis, y.basis)
    c = instances.random_fusion_family(5, 7, 43)
    assert not np.array_equal(a.weights, c.weights)


def test_rotating_line_converges_to_the_half_pi_limit():
    entry = instances.get_scenario("rotating_line")
    assert entry.limit_bounds == (math.pi / 2.0, math.pi / 2.0)
    bounds = fusion.frame_bounds(instances.rotating_line_family(64))
    assert bounds.lower == pytest.approx(math.pi / 2.0, abs=1e-6)
    assert bounds.upper == pytest.approx(math.pi / 2.0, abs=1e-6)


def test_rotating_line_single_atom_degenerates():
    bounds = fusion.frame_bounds(instances.rotating_line_family(1))
    assert bounds.lower == pytest.approx(0.0, abs=1e-12)
    assert bounds.upper == pytest.approx(math.pi, abs=1e-12)


def test_orthogonal_blocks_are_tight():
    fam = instances.orthogonal_blocks_family(6, 3, 5)
    bounds = fusion.frame_bounds(fam)
    assert bounds.lower == pytest.approx(1.0, abs=1e-10)
    assert bounds.upper == pytest.approx(1.0, abs=1e-10)


def test_block_resolution_keeps_raw_identity():
    fam = instances.block_resolution_family(5, 3, 2)
    _, op_res = resolution.identity_sum_residual(fam)
    assert op_res <= 1e-10


def test_perturbed_resolution_instances_are_admissible():
    # the generated lam must already dominate the worst subset defect
    base, perturbed, params, lam = instances.perturbed_resolution_instance(
        3, 5, 7, "additive"
    )
    assert 0.0 <= lam < 1.0
    assert all(p >= 0.0 for p in params.phi)
    deviation = sum(
        t - s for t, s in zip(base.operators, perturbed.operators)
    )
    total = sum(base.operators)
    defect = np.linalg.norm(deviation @ np.linalg.inv(total), 2)
    assert defect <= lam


def test_composite_instance_side_constant_is_positive():
    for seed in range(3):
        base, comp, params, lam = instances.composite_instance(4, 5, seed)
        d_const = resolution.resolution_bounds(base).upper
        phi_l2 = params.phi_l2(base.masses)
        side = math.sqrt(float(np.sum(base.weights**2 * base.masses)))
        side -= params.lambda1 * math.sqrt(d_const) + phi_l2
        assert side > 0.0


def test_scenario_defaults_match_the_builders():
    assert instances.build_scenario("axes").ambient_dim == 3
    assert instances.build_scenario("equiangular").natoms == 5
    assert instances.build_scenario("rotating_line").natoms == 64
    assert instances.build_scenario("block_resolution").natoms == 6
    fam = instances.build_scenario("random_fusion", dim=3, atoms=4, seed=2)
    ref = instances.random_fusion_family(3, 4, 2)
    assert all(np.array_equal(a.basis, b.basis) for a, b in zip(fam.subspaces, ref.subspaces))
    # arguments a scenario does not take are ignored
    assert instances.build_scenario("mercedes", dim=7, seed=3).natoms == 3


@pytest.mark.parametrize("build", [instances.induced_frame_instance, instances.sandwich_instance])
@pytest.mark.parametrize("dim, atoms", [(2, 1), (3, 1), (7, 1)])
def test_ranked_builders_reject_sizes_that_cannot_span(build, dim, atoms):
    # ranks are drawn from [1, dim - 1], so one atom never spans
    with pytest.raises(ValueError, match=f"1 atoms of rank at most {dim - 1} cannot span"):
        build(dim, atoms, 0)


@pytest.mark.parametrize("dim, atoms, seed, first_lower", [
    (5, 3, 1896969790, 1.81e-10),
    (8, 4, 1340283993, 1.44e-10),
    (2, 2, 1775758594, 1.41e-9),
])
def test_random_fusion_family_redraws_a_nearly_dependent_draw(
    monkeypatch, dim, atoms, seed, first_lower
):
    # the first draw's ranks span, yet its lower bound is below 1e-9 max(B, 1):
    # the next draw of the same stream is a frame
    drawn = []
    frame_bounds = fusion.frame_bounds

    def kept(fam):
        drawn.append(frame_bounds(fam))
        return drawn[-1]

    monkeypatch.setattr(fusion, "frame_bounds", kept)
    fam = instances.random_fusion_family(dim, atoms, seed)
    monkeypatch.undo()
    assert len(drawn) == 2
    assert drawn[0].lower == pytest.approx(first_lower, rel=0.01)
    assert drawn[1] == fusion.frame_bounds(fam) and drawn[1].is_positive()
    assert fusion.verify_characterization(fam).passed
    for f in np.random.default_rng(0).standard_normal((5, dim)):
        assert fusion.reconstruct(fam, f).residual <= 1e-14


@pytest.mark.parametrize("dim, atoms, seed", [
    # at noise 0.3 the weighted sum has sigma_min = 4.7e-8 sigma_max; six
    # halvings clear 1e-6 (a one-draw build kept the first sum, and its
    # identity residual was 1.4e-9 > 1e-9)
    (6, 2, 1064457986),
    # the first ranks' projectors sum to sigma_min = 3.8e-10 sigma_max at
    # any noise; all 40 halvings fail and the next draw of ranks is taken
    # (a one-draw build raised: Gram bounds 0.15 and 4.0e8)
    (6, 3, 856018080),
])
def test_induced_frame_instance_redraws_a_nearly_singular_sum(dim, atoms, seed):
    fam = instances.induced_frame_instance(dim, atoms, seed)
    assert max(resolution.identity_sum_residual(fam)) <= 1e-10
    report, _ = theorems.verify_induced_fusion_frame(fam)
    assert report.passed


def test_block_builders_take_a_single_atom():
    # the exact and scaled variants draw no ranks: one block is the whole space
    fam = instances.induced_frame_instance(3, 1, 0, exact=True)
    assert fam.natoms == 1
    subs, ops = instances.sandwich_instance(3, 1, 0, scaled_orthogonal=True)
    assert subs.natoms == ops.natoms == 1


def _no_frame(family):
    return hilbert.SpectralBounds(0.0, 1.0)


@pytest.mark.parametrize("owner, name, stand_in, build", [
    (fusion, "frame_bounds", _no_frame, lambda: instances.random_fusion_family(4, 6, 7)),
    (resolution, "resolution_bounds", _no_frame, lambda: instances.induced_frame_instance(4, 6, 7)),
    # defects of 1 per atom put the side constant below zero
    (perturbation, "composite_defects", lambda base, *_: np.ones(base.natoms),
     lambda: instances.composite_instance(4, 5, 7)),
    # ranges one short of the whole space
    (instances, "range_bases", lambda stack: [np.zeros((stack.shape[1], stack.shape[1] - 1))],
     lambda: instances.vector_frame_instance(4, 6, 7)),
], ids=["random_fusion", "induced_frame", "composite", "vector_frame"])
def test_a_failed_draw_raises_naming_the_seed(monkeypatch, owner, name, stand_in, build):
    # the seed-7 draw passes; then the quantity its check reads fails on every draw
    build()
    monkeypatch.setattr(owner, name, stand_in)
    with pytest.raises(ValueError, match="^seed 7 draws "):
        build()


@pytest.mark.parametrize("name, stand_in, build", [
    # no rank draw spans
    ("_spanning_ranks", lambda rng, dim, atoms: iter(()),
     lambda: instances.sandwich_instance(4, 5, 7)),
    # a singular subset sum, so no halving of the budget helps
    ("_exact_subset_lam", lambda base_ops, deviations: float("inf"),
     lambda: instances.perturbed_resolution_instance(4, 6, 7, "additive")),
], ids=["sandwich", "perturbed_resolution"])
def test_builders_that_draw_again_raise_naming_the_seed(monkeypatch, name, stand_in, build):
    # the seed-7 draw passes; then every draw fails, with the ValueError of
    # the other builders
    build()
    monkeypatch.setattr(instances, name, stand_in)
    with pytest.raises(ValueError, match="^seed 7 draws "):
        build()
