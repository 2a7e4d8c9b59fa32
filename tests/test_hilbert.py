import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from framelab import fusion, hilbert, instances, resolution, theorems
from framelab.errors import (
    DimensionMismatchError,
    NotPositiveDefiniteError,
    NotSelfAdjointError,
)
from framelab.hilbert import Subspace


def test_as_vector_requires_one_dimension():
    v = hilbert.as_vector([1.0, 2.0])
    assert v.shape == (2,)
    with pytest.raises(DimensionMismatchError):
        hilbert.as_vector(np.ones((2, 2)))


# every library entry point that takes a vector of ambient dim 4, called on ``f``
_VECTOR_ENTRY_POINTS = {
    "as_vector": lambda f: hilbert.as_vector(f, 4),
    "inner": lambda f: hilbert.inner(np.ones(4), f),
    "Subspace.project": lambda f: Subspace(np.eye(4)[:, :2]).project(f),
    "solve_positive": lambda f: hilbert.solve_positive(2.0 * np.eye(4), f),
    "solve_positive_eigh": lambda f: hilbert.solve_positive_eigh(
        np.eye(4), hilbert.self_adjoint_eigh(np.eye(4)), f
    ),
    "fusion.analysis": lambda f: fusion.analysis(instances.random_fusion_family(4, 6, 0), f),
    "fusion.apply_frame_operator": lambda f: fusion.apply_frame_operator(
        instances.random_fusion_family(4, 6, 0), f
    ),
    "fusion.frame_sum": lambda f: fusion.frame_sum(instances.random_fusion_family(4, 6, 0), f),
    "fusion.reconstruct": lambda f: fusion.reconstruct(instances.random_fusion_family(4, 6, 0), f),
    "resolution.gram_sum": lambda f: resolution.gram_sum(
        instances.random_resolution_family(4, 6, 0), f
    ),
    "resolution.support": lambda f: resolution.support(
        instances.random_resolution_family(4, 6, 0), f
    ),
    "theorems.reconstruct_by_support": lambda f: theorems.reconstruct_by_support(
        instances.block_resolution_family(4, 3, 0), f
    ),
    "theorems.verify_induced_vector_frame": lambda f: theorems.verify_induced_vector_frame(
        instances.random_resolution_family(4, 6, 0), [np.eye(4)[0], f]
    ),
}


_BAD_VECTORS = {
    "short": ([0.5, 0.5, 0.5], DimensionMismatchError, "vector of dim 3 vs ambient dim 4"),
    "long": ([0.5] * 5, DimensionMismatchError, "vector of dim 5 vs ambient dim 4"),
    "nan": ([0.5, np.nan, 0.5, 0.5], ValueError, "vector entry 1 is not finite (nan)"),
    "inf": ([0.5, 0.5, 0.5, -np.inf], ValueError, "vector entry 3 is not finite (-inf)"),
}


@pytest.mark.parametrize("entry", sorted(_VECTOR_ENTRY_POINTS))
@pytest.mark.parametrize("case", list(_BAD_VECTORS))
def test_vector_entry_points_reject_wrong_length_and_non_finite(entry, case):
    # each gate fires before any arithmetic on f, naming its cause
    f, error, message = _BAD_VECTORS[case]
    with pytest.raises(error) as info:
        _VECTOR_ENTRY_POINTS[entry](np.array(f))
    assert str(info.value) == message


def test_inner_conjugates_second_argument():
    f = np.array([1.0 + 1j, 0.0])
    g = np.array([1j, 0.0])
    assert hilbert.inner(f, g) == pytest.approx(1 - 1j)


def test_norm_matches_inner():
    f = np.array([3.0, 4.0])
    assert hilbert.norm(f) == pytest.approx(5.0)
    assert hilbert.norm(f) ** 2 == pytest.approx(hilbert.inner(f, f).real)


def test_operator_norm_is_top_singular_value():
    a = np.diag([3.0, -7.0, 1.0])
    assert hilbert.operator_norm(a) == pytest.approx(7.0)


_entries = hnp.arrays(
    float,
    hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=5),
    elements=st.floats(-1e6, 1e6),
)


@settings(max_examples=60, deadline=None)
@given(real=_entries, imag_scale=st.sampled_from([0.0, 1.0, -0.5]))
def test_operator_norms_match_numpy_norm_bitwise(real, imag_scale):
    # the helper makes numpy.linalg.norm's SVD call without its axis handling
    stack = real if imag_scale == 0.0 else real + 1j * imag_scale * real[:, ::-1]
    want = np.linalg.norm(stack, 2, axis=(1, 2))
    assert hilbert.operator_norms(stack).tobytes() == want.tobytes()
    for a in stack:
        assert hilbert.operator_norms(a).tobytes() == np.linalg.norm(a, 2).tobytes()
        assert hilbert.operator_norm(a) == float(np.linalg.norm(a, 2))


def test_is_self_adjoint():
    assert hilbert.is_self_adjoint(np.eye(3))
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert not hilbert.is_self_adjoint(a)


class TestSubspace:
    def test_rejects_non_orthonormal_basis(self):
        with pytest.raises(ValueError):
            Subspace(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_projector_is_idempotent_and_symmetric(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((5, 2)))
        p = Subspace(q).projector()
        assert np.allclose(p @ p, p, atol=1e-12)
        assert np.allclose(p, p.T, atol=1e-12)

    def test_contains(self):
        sub = Subspace(np.eye(3)[:, :2])
        assert sub.contains(np.array([1.0, -2.0, 0.0]))
        assert not sub.contains(np.array([0.0, 0.0, 1.0]))

    def test_project_is_best_approximation(self):
        sub = Subspace(np.eye(4)[:, :2])
        f = np.array([1.0, 2.0, 3.0, 4.0])
        pf = sub.project(f)
        assert np.allclose(pf, [1.0, 2.0, 0.0, 0.0])


def test_orthonormal_basis_drops_dependent_vectors():
    vecs = [np.array([1.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0]),
            np.array([0.0, 1.0, 0.0])]
    sub = hilbert.orthonormal_basis(vecs)
    assert sub.rank == 2
    assert sub.ambient_dim == 3


def test_orthonormal_basis_of_zero_vectors_is_the_zero_subspace():
    sub = hilbert.orthonormal_basis([np.zeros(3)])
    assert sub.rank == 0
    assert sub.ambient_dim == 3
    with pytest.raises(ValueError):
        hilbert.orthonormal_basis([])


def test_column_space_of_rank_one_matrix():
    a = np.outer([1.0, 2.0, 2.0], [0.0, 1.0])
    sub = hilbert.column_space(a)
    assert sub.rank == 1
    assert sub.contains(np.array([1.0, 2.0, 2.0]))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_span_helpers_reject_non_finite_entries(bad):
    rows = np.array([[bad, 0.0]])
    with pytest.raises(ValueError, match=r"vector entry 0 is not finite"):
        hilbert.orthonormal_basis(rows)
    with pytest.raises(ValueError, match=r"matrix entry \(0, 0\) is not finite"):
        hilbert.column_space(rows)


def test_self_adjoint_eigh_sorted_and_strict():
    evals, _ = hilbert.self_adjoint_eigh(np.diag([2.0, -1.0, 0.5]))
    assert list(evals) == sorted(evals)
    with pytest.raises(NotSelfAdjointError):
        hilbert.self_adjoint_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_solve_positive_accuracy():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((6, 6))
    a = m @ m.T + 0.5 * np.eye(6)
    x = rng.standard_normal(6)
    y = a @ x
    sol = hilbert.solve_positive(a, y)
    assert np.linalg.norm(sol - x) <= 1e-10 * np.linalg.norm(x)


def test_solve_positive_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        hilbert.solve_positive(np.diag([1.0, -1.0]), np.ones(2))


def test_unit_probes_are_unit_and_seeded():
    p = hilbert.unit_probes(4, 9)
    assert p.shape == (4, 9)
    assert np.allclose(np.linalg.norm(p, axis=0), 1.0)
    assert np.array_equal(p, hilbert.unit_probes(4, 9))


def _fresh_probes(rng, dim, count):
    p = rng.standard_normal((dim, count))
    p /= np.linalg.norm(p, axis=0)
    return p


def test_default_probes_are_one_shared_read_only_seed_zero_draw():
    p = hilbert.unit_probes(5, 300)
    assert p.tobytes() == _fresh_probes(np.random.default_rng(0), 5, 300).tobytes()
    assert hilbert.unit_probes(5, 300) is p
    assert not p.flags.writeable
    with pytest.raises(ValueError):
        p[0, 0] = 1.0


def test_basis_and_probes_are_one_shared_read_only_block():
    block = hilbert.basis_and_probes(4, 300)
    want = np.hstack([np.eye(4), _fresh_probes(np.random.default_rng(0), 4, 300)])
    assert block.tobytes() == want.tobytes()
    assert hilbert.basis_and_probes(4, 300) is block
    assert not block.flags.writeable


def test_passed_generator_is_drawn_and_advanced_on_every_call():
    rng, ref = np.random.default_rng(42), np.random.default_rng(42)
    first = hilbert.unit_probes(3, 8, rng)
    assert first.tobytes() == _fresh_probes(ref, 3, 8).tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state
    assert first.flags.writeable
    second = hilbert.unit_probes(3, 8, rng)
    assert second.tobytes() == _fresh_probes(ref, 3, 8).tobytes()
    assert not np.array_equal(first, second)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_default_probe_cache_is_bounded():
    size = hilbert._PROBE_CACHE_SIZE
    for count in range(1, size + 6):
        hilbert.unit_probes(1, count)
    info = hilbert._seed0_probes.cache_info()
    assert info.maxsize == size
    assert info.currsize <= size


@settings(max_examples=30, deadline=None)
@given(
    dim=st.integers(2, 6),
    rank=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
def test_projection_never_expands(dim, rank, seed):
    rank = min(rank, dim)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, rank)))
    sub = Subspace(q[:, :rank])
    f = rng.standard_normal(dim)
    pf = sub.project(f)
    assert np.linalg.norm(pf) <= np.linalg.norm(f) + 1e-12
    # projecting twice changes nothing
    assert np.allclose(sub.project(pf), pf, atol=1e-12)


def test_subspace_rejects_non_finite_basis():
    with pytest.raises(ValueError, match=r"basis entry \(1, 0\) is not finite \(nan\)"):
        Subspace(np.array([[1.0], [np.nan]]))


def test_per_family_computes_once_per_family():
    calls = []

    @hilbert.per_family
    def doubled(family):
        calls.append(family)
        return 2.0 * family.weights

    first, second = instances.axes_family(), instances.axes_family()
    assert doubled(first) is doubled(first)
    assert np.array_equal(doubled(second), doubled(first))
    assert calls == [first, second]


@pytest.mark.parametrize("memoized, build", [
    (fusion.frame_operator, lambda: instances.random_fusion_family(4, 6, 0)),
    (resolution.resolution_gram, lambda: instances.random_resolution_family(4, 6, 0)),
], ids=["frame_operator", "resolution_gram"])
def test_memoized_operators_are_kept_and_read_only(memoized, build):
    fam = build()
    kept = memoized(fam)
    assert memoized(fam) is kept
    assert not kept.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        kept[0, 0] = 0.0
    # a family with the same atoms computes its own
    other = build()
    assert memoized(other) is not kept
    assert np.array_equal(memoized(other), kept)


@pytest.mark.parametrize("complex_", [False, True])
def test_stacked_gram_is_tensordots_product(complex_):
    # the same np.dot on the operands np.tensordot builds, bit for bit
    rng = np.random.default_rng(8)
    for n, k, d in ((1, 1, 1), (2, 3, 2), (6, 4, 4), (40, 8, 8), (12, 3, 7)):
        stack = rng.standard_normal((n, k, d))
        if complex_:
            stack = stack + 1j * rng.standard_normal((n, k, d))
        coef = rng.uniform(0.5, 2.0, n)
        scaled = stack * coef[:, None, None]
        want = hilbert.hermitian_part(np.tensordot(scaled.conj(), stack, axes=([0, 1], [0, 1])))
        assert hilbert.stacked_gram(stack, coef).tobytes() == want.tobytes()
        # a non-contiguous stack takes the same copies as in np.tensordot
        view = stack.transpose(0, 2, 1)
        want = hilbert.hermitian_part(
            np.tensordot((view * coef[:, None, None]).conj(), view, axes=([0, 1], [0, 1]))
        )
        assert hilbert.stacked_gram(view, coef).tobytes() == want.tobytes()
