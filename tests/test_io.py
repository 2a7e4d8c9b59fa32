import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab import cli, instances, resolution, serialize
from framelab.fusion import WeightedSubspaceFamily
from framelab.hilbert import Subspace
from framelab.resolution import OperatorFamily, SumMode
from framelab.reports import VerificationReport


class TestCanonicalNumbers:
    def test_integers_stay_integers(self):
        assert serialize.canonical_number(7) == "7"
        assert serialize.canonical_number(True) == "true"

    def test_negative_zero_is_normalized(self):
        assert serialize.canonical_number(-0.0) == "0"

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            serialize.canonical_number(float("inf"))

    @settings(max_examples=200, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_seventeen_digits_round_trip(self, x):
        text = serialize.canonical_number(x)
        assert float(json.loads(text)) == x or (x == 0.0 and json.loads(text) == 0)


def test_dumps_canonical_is_plain_json():
    obj = {"b": [1, 2.5, None], "a": {"x": "s"}}
    text = serialize.dumps_canonical(obj)
    assert json.loads(text) == obj
    assert text.endswith("\n")


def test_fusion_family_round_trip_is_byte_identical():
    for seed in range(5):
        fam = instances.random_fusion_family(4, 6, seed)
        text = serialize.dumps_fusion_family(fam)
        again = serialize.dumps_fusion_family(serialize.loads_fusion_family(text))
        assert again == text


def test_resolution_round_trip_is_byte_identical():
    for seed in range(5):
        ops = instances.random_resolution_family(4, 5, seed)
        text = serialize.dumps_operator_family(ops)
        again = serialize.dumps_operator_family(serialize.loads_operator_family(text))
        assert again == text


@pytest.mark.parametrize("complex_", [False, True])
def test_rank_zero_atoms_round_trip_byte_identical(complex_):
    rng = np.random.default_rng(4)
    draw = rng.standard_normal((3, 2)) + (1j * rng.standard_normal((3, 2)) if complex_ else 0)
    atoms = [np.zeros((3, 0)), np.linalg.qr(draw)[0], np.eye(3)[:, 2:], np.zeros((3, 0))]
    fam = WeightedSubspaceFamily(atoms, rng.uniform(0.5, 2.0, 4), rng.uniform(0.5, 2.0, 4))
    text = serialize.dumps_fusion_family(fam)
    assert json.loads(text)["atoms"][0]["basis"] == []
    loaded = serialize.loads_fusion_family(text)
    assert loaded.ranks == (0, 2, 1, 0)
    assert serialize.dumps_fusion_family(loaded) == text


def test_round_trip_preserves_values():
    fam = instances.random_fusion_family(3, 4, 11)
    loaded = serialize.loads_fusion_family(serialize.dumps_fusion_family(fam))
    assert loaded.ambient_dim == fam.ambient_dim
    assert np.array_equal(loaded.weights, fam.weights)
    assert np.array_equal(loaded.masses, fam.masses)
    for a, b in zip(loaded.subspaces, fam.subspaces):
        assert np.array_equal(a.basis, b.basis)


def _complex_families(seed, dim=3, atoms=4):
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    ops = OperatorFamily(
        operators=tuple(draw(atoms, dim, dim)),
        weights=rng.uniform(0.5, 2.0, atoms),
        masses=rng.uniform(0.5, 2.0, atoms),
        sum_mode=SumMode.RAW,
    )
    fam = WeightedSubspaceFamily(
        subspaces=tuple(Subspace(np.linalg.qr(draw(dim, 2))[0]) for _ in range(atoms)),
        weights=rng.uniform(0.5, 2.0, atoms),
        masses=rng.uniform(0.5, 2.0, atoms),
    )
    return ops, fam


def test_complex_families_round_trip_value_exact_and_byte_identical():
    for seed in range(4):
        ops, fam = _complex_families(seed)
        text = serialize.dumps_instance(ops)
        loaded = serialize.loads_instance(text)
        assert loaded.operators.dtype == complex
        assert np.array_equal(loaded.operators, ops.operators)
        assert serialize.dumps_instance(loaded) == text

        text = serialize.dumps_instance(fam)
        loaded = serialize.loads_instance(text)
        for a, b in zip(loaded.subspaces, fam.subspaces):
            assert a.basis.dtype == complex
            assert np.array_equal(a.basis, b.basis)
        assert serialize.dumps_instance(loaded) == text


def test_complex_entries_are_written_as_re_im_pairs():
    ops, fam = _complex_families(5)
    stored = np.asarray(json.loads(serialize.dumps_instance(ops))["operators"])
    assert np.array_equal(stored, np.stack([ops.operators.real, ops.operators.imag], axis=-1))
    rows = np.asarray(json.loads(serialize.dumps_instance(fam))["atoms"][0]["basis"])
    basis = fam.subspaces[0].basis.T
    assert np.array_equal(rows, np.stack([basis.real, basis.imag], axis=-1))
    # real families keep one number per entry
    real = instances.random_resolution_family(3, 4, 0)
    assert np.asarray(json.loads(serialize.dumps_instance(real))["operators"]).shape == (4, 3, 3)


def test_complex_files_are_verified(tmp_path, capsys):
    ops, fam = _complex_families(2)
    for name, obj in (
        ("res.json", resolution.normalize_to_identity(ops)),
        ("fus.json", fam),
    ):
        path = tmp_path / name
        path.write_text(serialize.dumps_instance(obj))
        assert cli.main(["verify", str(path)]) in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED)
    out = capsys.readouterr().out
    assert "resolution_conditions: PASS" in out
    assert "synthesis_characterization: PASS" in out


def test_loads_instance_dispatches_on_keys():
    fam = instances.mercedes_family()
    ops = instances.random_resolution_family(3, 4, 0)
    assert isinstance(
        serialize.loads_instance(serialize.dumps_instance(fam)),
        WeightedSubspaceFamily,
    )
    assert isinstance(
        serialize.loads_instance(serialize.dumps_instance(ops)), OperatorFamily
    )
    with pytest.raises(ValueError):
        serialize.loads_instance('{"foo": 1}')
    with pytest.raises(ValueError):
        serialize.loads_instance("not json")


class TestBasisAdjustment:
    def _text_with_skewed_basis(self, skew):
        fam = instances.axes_family(2)
        data = json.loads(serialize.dumps_fusion_family(fam))
        data["atoms"][0]["basis"] = [[1.0, skew]]
        return json.dumps(data)

    def test_tiny_deviation_keeps_stored_bytes(self):
        fam = instances.random_fusion_family(3, 3, 2)
        text = serialize.dumps_fusion_family(fam)
        # stored rows came from orthonormal bases, so nothing is adjusted
        assert serialize.dumps_fusion_family(serialize.loads_fusion_family(text)) == text

    def test_moderate_deviation_reorthonormalizes_silently(self):
        import warnings

        # a skew of 1e-5 puts the row-Gram deviation near 1e-10, inside the
        # silent adjustment band
        text = self._text_with_skewed_basis(1e-5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fam = serialize.loads_fusion_family(text)
        basis = fam.subspaces[0].basis
        assert np.linalg.norm(basis) == pytest.approx(1.0, abs=1e-12)

    def test_large_deviation_warns(self):
        text = self._text_with_skewed_basis(1e-3)
        with pytest.warns(UserWarning, match="re-orthonormalizing"):
            serialize.loads_fusion_family(text)


def test_resolution_loader_validates_shapes():
    ops = instances.random_resolution_family(3, 4, 1)
    data = json.loads(serialize.dumps_operator_family(ops))
    data["operators"] = data["operators"][:2]
    with pytest.raises(ValueError, match="operators"):
        serialize.loads_operator_family(json.dumps(data))


def test_measure_spec_parsing():
    text = json.dumps(
        {
            "space": {"kind": "interval", "a": 0.0, "b": 3.14159},
            "rule": "midpoint",
            "n": 64,
            "weight": "const:1",
        }
    )
    space, scheme, weight = serialize.loads_measure_spec(text)
    assert space.length == pytest.approx(3.14159)
    assert scheme.n == 64
    assert weight(0.5) == 1.0
    with pytest.raises(ValueError):
        serialize.loads_measure_spec(json.dumps({"space": {"kind": "torus"}}))


def test_perturbation_scenario_parsing():
    text = json.dumps(
        {
            "base": "b.json",
            "perturbed": "p.json",
            "lambda": 0.4,
            "lambda1": 0.1,
            "lambda2": 0.2,
            "phi": "const:0.01",
        }
    )
    scenario = serialize.loads_perturbation_scenario(text)
    assert scenario["lam"] == 0.4
    assert scenario["phi_spec"] == "const:0.01"
    # lambda1/lambda2/phi are optional
    bare = serialize.loads_perturbation_scenario(
        json.dumps({"base": "b", "perturbed": "p", "lambda": 0.0})
    )
    assert bare["lambda1"] == 0.0 and bare["phi_spec"] == "const:0"


def test_sample_envelope_table_and_pointwise():
    assert serialize.sample_envelope("table:[1,2]", (0, 1)) == (1.0, 2.0)
    with pytest.raises(ValueError, match="table weight has 3 entries for 2 atoms"):
        serialize.sample_envelope("table:[1,2,3]", (0, 1))
    values = serialize.sample_envelope("sin", (math.pi / 2,))
    assert values[0] == pytest.approx(1.0)
    # a table is positional, so the points of a table envelope need not be numbers
    assert serialize.sample_envelope("table:[3]", ("a",)) == (3.0,)


def test_reports_serialize_with_stable_field_order():
    report = VerificationReport(check_id="demo")
    report.add_hypothesis("h", True, residual=0.5)
    report.constants = {"b": 1.0, "a": 2.0}
    report.conclude(True)
    first = serialize.dumps_reports([report])
    second = serialize.dumps_reports([report])
    assert first == second
    parsed = json.loads(first)[0]
    assert list(parsed)[0] == "check_id"


def test_sweep_csv_rendering():
    rows = [
        {"n": 8, "lower": 1.5, "upper": 2.0, "lower_error": None, "upper_error": None},
        {"n": 16, "lower": 1.25, "upper": 1.75, "lower_error": 0.25, "upper_error": 0.25},
    ]
    text = serialize.sweep_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "n,lower,upper,lower_error,upper_error"
    assert lines[1] == "8,1.5,2,,"
    assert lines[2] == "16,1.25,1.75,0.25,0.25"
