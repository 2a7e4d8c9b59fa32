import collections
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from framelab import cli, fusion, hilbert, instances, perturbation, resolution, serialize, theorems
from framelab.perturbation import PerturbationParams


def run(argv):
    return cli.main(argv)


def test_gen_writes_deterministic_bytes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert run([
            "gen", "--scenario", "random_fusion", "--dim", "4",
            "--atoms", "6", "--seed", "3", "--out", str(path),
        ]) == cli.EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_gen_unknown_scenario_is_a_parse_failure(capsys):
    assert run(["gen", "--scenario", "nope"]) == cli.EXIT_PARSE
    assert "unknown scenario" in capsys.readouterr().err


def test_gen_load_serialize_round_trip(tmp_path):
    path = tmp_path / "fam.json"
    run(["gen", "--scenario", "random_fusion", "--seed", "5", "--out", str(path)])
    text = path.read_text()
    assert serialize.dumps_instance(serialize.loads_instance(text)) == text


def test_analyze_rotating_line_hits_the_limit(capsys):
    assert run([
        "analyze", "--scenario", "rotating_line", "--n", "64",
    ]) == cli.EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["lower"] == pytest.approx(math.pi / 2.0, abs=1e-6)
    assert out["upper"] == pytest.approx(math.pi / 2.0, abs=1e-6)


def test_analyze_mercedes(capsys):
    assert run(["analyze", "--scenario", "mercedes"]) == cli.EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["lower"] == pytest.approx(1.5, abs=1e-9)
    assert out["upper"] == pytest.approx(1.5, abs=1e-9)
    assert out["kind"] == "fusion_frame"


# one line in the plane: lower bound 0, so no condition number
_ONE_LINE = fusion.WeightedSubspaceFamily(
    subspaces=(np.array([[1.0], [0.0]]),), weights=np.ones(1), masses=np.ones(1)
)


@pytest.mark.parametrize("family, row", [
    (instances.axes_family(), "1,1,1"),
    (_ONE_LINE, "0,1,"),
], ids=["axes", "zero-lower"])
def test_analyze_csv_format(family, row, tmp_path, capsys):
    path = tmp_path / "fam.json"
    path.write_text(serialize.dumps_instance(family))
    assert run(["analyze", str(path), "--format", "csv"]) == cli.EXIT_OK
    assert capsys.readouterr().out == f"lower,upper,condition\n{row}\n"


def test_analyze_file_and_scenario_conflict(tmp_path, capsys):
    path = tmp_path / "x.json"
    run(["gen", "--scenario", "axes", "--out", str(path)])
    assert run(["analyze", str(path), "--scenario", "axes"]) == cli.EXIT_PARSE


def test_analyze_missing_file_is_a_parse_failure(capsys):
    assert run(["analyze", "/nonexistent/f.json"]) == cli.EXIT_PARSE


def test_verify_canonical_resolution_passes(capsys):
    assert run([
        "verify", "--scenario", "basis_resolution", "--dim", "4",
    ]) == cli.EXIT_OK
    out = capsys.readouterr().out
    for check in (
        "resolution_conditions",
        "induced_fusion_frame",
        "operator_family_sandwich",
        "projection_identity_frame",
        "orthogonal_decomposition",
        "induced_vector_frame",
        "support_reconstruction",
    ):
        assert f"{check}: PASS" in out
    assert "FAIL" not in out


def test_verify_emits_skip_lines_for_inapplicable_checks(tmp_path, capsys):
    path = tmp_path / "fam.json"
    run(["gen", "--scenario", "random_fusion", "--seed", "2", "--out", str(path)])
    assert run(["verify", str(path)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "synthesis_characterization: PASS" in out
    assert "projection_identity_frame: SKIP" in out
    assert "orthogonal_decomposition: SKIP" in out


def test_verify_writes_report_json(tmp_path):
    report_path = tmp_path / "reports.json"
    assert run([
        "verify", "--scenario", "basis_resolution", "--out", str(report_path),
    ]) == cli.EXIT_OK
    reports = json.loads(report_path.read_text())
    assert all(r["conclusion_checked"] for r in reports)
    ids = [r["check_id"] for r in reports]
    assert "resolution_conditions" in ids


def test_verify_failure_gives_exit_one(tmp_path, capsys):
    ops = instances.random_resolution_family(3, 4, 0)
    data = json.loads(serialize.dumps_operator_family(ops))
    data["operators"] = [(2.0 * np.asarray(t)).tolist() for t in data["operators"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run(["verify", str(bad)]) == cli.EXIT_CHECK_FAILED
    assert "FAIL" in capsys.readouterr().out


def _pinned_verify_outputs():
    """(scenario, seed, exit code, stdout) of each section of data/verify_scenarios.txt."""
    path = os.path.join(os.path.dirname(__file__), "data", "verify_scenarios.txt")
    with open(path, encoding="utf-8") as fh:
        sections = fh.read().split("== ")[1:]
    for section in sections:
        header, _, out = section.partition("\n")
        target, _, code = header.partition(": exit ")
        scenario, _, seed = target.partition(" --seed ")
        yield pytest.param(scenario, seed, int(code), out, id=f"{scenario}-{seed}")


@pytest.mark.parametrize("scenario, seed, code, out", _pinned_verify_outputs())
def test_verify_scenario_output_is_pinned(scenario, seed, code, out, capsys):
    # six-digit summaries and three-digit SKIP residuals: the same on every
    # supported numpy, unlike the 17-digit constants of --out
    assert run(["verify", "--scenario", scenario, "--seed", seed]) == code
    assert capsys.readouterr().out == out


def test_pinned_verify_outputs_cover_every_scenario_and_seed():
    pinned = {(p.values[0], p.values[1]) for p in _pinned_verify_outputs()}
    assert pinned == {(name, str(seed)) for name in instances.SCENARIOS for seed in range(3)}


def test_verify_computes_each_derived_operator_once(tmp_path, capsys, callers):
    blocks = tmp_path / "blocks.json"
    blocks.write_text(serialize.dumps_instance(instances.orthogonal_blocks_family(4, 2, 0)))
    basis = tmp_path / "basis.json"
    basis.write_text(serialize.dumps_instance(resolution.from_orthonormal_basis(4)))
    sums = callers(fusion.WeightedSubspaceFamily, "projector_sum")
    eighs = callers(hilbert, "self_adjoint_eigh")
    padded = callers(fusion, "_padded")
    grams = callers(hilbert, "stacked_gram")
    identity_sums = callers(resolution.OperatorFamily, "identity_sum_matrix")
    forms = callers(hilbert, "quadratic_forms")

    assert run(["verify", str(blocks)]) == cli.EXIT_OK
    assert capsys.readouterr().out.count("PASS") == 3
    # both projector gates pass, so both checks run beside the characterization
    assert sums["frame_operator"] == 1
    assert eighs["frame_bounds"] == 1
    assert sum(eighs.values()) == 2
    assert sums["first_power_residual"] == 1
    # the unweighted sum, read by the projection-identity check and again
    # by the converse of the decomposition check, is summed and solved once
    assert sums["_unweighted_upper"] == eighs["_unweighted_upper"] == 1
    assert sum(sums.values()) == 4
    assert padded["orthogonality_defect"] == 1
    # both checks decide A >= C on the spectrum; neither probes
    assert not forms

    grams.clear()
    assert run(["verify", str(basis)]) == cli.EXIT_OK
    assert capsys.readouterr().out.count("PASS") == 8
    # the raw family and its weighted copy share one Gram operator; the
    # identity sum is computed once in each mode
    assert grams["resolution_gram"] == 1
    assert identity_sums == {"identity_sum_residual": 2}


def test_reconstruct_tight_family(capsys):
    assert run([
        "reconstruct", "--scenario", "mercedes", "--vector", "[0.5, -1.5]",
    ]) == cli.EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["residual"] <= 1e-12
    assert np.allclose(out["reconstructed"], [0.5, -1.5])


# (1, i) / sqrt 2 and (1, -i) / sqrt 2: an orthonormal basis of C^2
_COMPLEX_LINES = np.array([[1.0, 1.0], [1j, -1j]]) / np.sqrt(2.0)


@pytest.mark.parametrize("family", [
    fusion.WeightedSubspaceFamily(
        subspaces=(_COMPLEX_LINES[:, [0]], _COMPLEX_LINES[:, [1]]),
        weights=np.ones(2), masses=np.ones(2),
    ),
    resolution.OperatorFamily(
        operators=np.einsum("ik,jk->kij", _COMPLEX_LINES, _COMPLEX_LINES.conj()),
        weights=np.ones(2), masses=np.ones(2),
    ),
], ids=["fusion", "raw_resolution"])
def test_reconstruct_writes_both_vectors_in_a_complex_familys_field(family, tmp_path, capsys):
    path = tmp_path / "complex.json"
    path.write_text(serialize.dumps_instance(family))
    assert run(["reconstruct", str(path), "--vector", "[0.6, -0.8]"]) == cli.EXIT_OK
    text = capsys.readouterr().out
    out = json.loads(text[text.index("{"):])
    # the real probe vector is written in the family's field too
    assert out["vector"] == [[0.6, 0], [-0.8, 0]]
    assert np.allclose(out["reconstructed"], out["vector"], atol=1e-12)


def test_reconstruct_writes_a_real_familys_vectors_as_reals(capsys):
    assert run(["reconstruct", "--scenario", "basis_resolution", "--vector", "[1, 0, 0, 2]"]) == 0
    text = capsys.readouterr().out
    out = json.loads(text[text.index("{"):])
    assert out["vector"] == [1, 0, 0, 2]
    assert np.allclose(out["reconstructed"], [1, 0, 0, 2], atol=1e-12)


def test_reconstruct_rejects_a_non_finite_vector(capsys, monkeypatch):
    monkeypatch.setattr(fusion, "reconstruct", None)  # fails before any work
    assert run([
        "reconstruct", "--scenario", "mercedes", "--vector", "[1.0, NaN]",
    ]) == cli.EXIT_PARSE
    assert "--vector entry 1 is not finite (nan)" in capsys.readouterr().err


def test_reconstruct_rejects_a_vector_of_objects(capsys):
    assert run([
        "reconstruct", "--scenario", "mercedes", "--vector", '[{"a": 1}, 2]',
    ]) == cli.EXIT_PARSE
    assert "--vector must be a JSON list of numbers" in capsys.readouterr().err


@pytest.mark.parametrize("vector, entry", [
    ('["1", 0.5, 0, 0]', '--vector entry 0 must be a number, got "1"'),
    ("[true, false, false, false]", "--vector entry 0 must be a number, got true"),
    ('["a", 1, 2, 3]', '--vector entry 0 must be a number, got "a"'),
    ("[0, 1, [2], 3]", "--vector entry 2 must be a number, got [2]"),
], ids=["string", "bool", "letter", "list"])
def test_reconstruct_vector_entries_must_be_json_numbers(vector, entry, capsys):
    assert run(["reconstruct", "--scenario", "random_fusion", "--vector", vector]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --vector must be a JSON list of numbers: {entry}\n"


@pytest.mark.parametrize("vector", ["[1, 2]", "[]", "[1, 2, 3, 4, 5]"])
def test_reconstruct_vector_of_the_wrong_length_names_the_flag(vector, tmp_path, capsys):
    path = tmp_path / "fam.json"
    assert run(["gen", "--scenario", "random_fusion", "--dim", "4", "--out", str(path)]) == cli.EXIT_OK
    capsys.readouterr()
    assert run(["reconstruct", str(path), "--vector", vector]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    got = len(json.loads(vector))
    assert captured.err == f"error: --vector must have 4 entries, got {got}\n"


@pytest.mark.parametrize("flag", ["--dim", "--atoms"])
@pytest.mark.parametrize("scenario", sorted(instances.SCENARIOS))
def test_gen_rejects_sizes_below_one(scenario, flag, capsys):
    assert run(["gen", "--scenario", scenario, flag, "0"]) == cli.EXIT_PARSE
    assert f"{flag} must be at least 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["gen", "--scenario", "random_fusion", "--seed", "-1"], "--seed must be at least 0, got -1"),
    (["analyze", "--scenario", "random_fusion", "--seed", "-3"], "--seed must be at least 0, got -3"),
    (["reconstruct", "--scenario", "mercedes", "--seed", "-2"], "--seed must be at least 0, got -2"),
    (["sweep", "--scenario", "rotating_line", "--n", "a"], "--n must be a comma-separated list"),
    (["sweep", "--scenario", "rotating_line", "--n", "8,x"], "--n must be a comma-separated list"),
    (["gen", "--scenario", "rotating_line", "--n", "a"], "argument --n: invalid int value: 'a'"),
])
def test_malformed_size_flags_name_the_flag(argv, message, capsys):
    assert run(argv) == cli.EXIT_PARSE
    assert message in capsys.readouterr().err


def test_negative_probe_seed_of_a_file_names_the_flag(tmp_path, capsys):
    path = tmp_path / "fam.json"
    path.write_text(serialize.dumps_instance(instances.build_scenario("mercedes")))
    assert run(["reconstruct", str(path), "--seed", "-1"]) == cli.EXIT_PARSE
    assert "--seed must be at least 0, got -1" in capsys.readouterr().err


def test_gen_random_fusion_too_few_atoms_to_span_is_a_parse_failure(capsys, monkeypatch):
    monkeypatch.setattr(instances, "_random_basis", None)  # fails before any draw
    assert run([
        "gen", "--scenario", "random_fusion", "--dim", "2", "--atoms", "1",
    ]) == cli.EXIT_PARSE
    assert "1 atoms of rank at most 1 cannot span dimension 2" in capsys.readouterr().err


def test_reconstruct_deficient_family_fails(tmp_path, capsys):
    fam = instances.equiangular_family(3)
    data = json.loads(serialize.dumps_fusion_family(fam))
    data["atoms"] = data["atoms"][:1]  # one line cannot span the plane
    path = tmp_path / "thin.json"
    path.write_text(json.dumps(data))
    assert run(["reconstruct", str(path)]) == cli.EXIT_CHECK_FAILED


def test_discretize_measure_spec(tmp_path, capsys):
    spec = {
        "space": {"kind": "interval", "a": 0.0, "b": 1.0},
        "rule": "midpoint",
        "n": 10,
        "weight": "const:2",
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert run(["discretize", str(path)]) == cli.EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert len(out["points"]) == 10
    assert sum(out["masses"]) == pytest.approx(1.0)
    assert out["weights"] == [2.0] * 10


def test_discretize_finite_space_is_already_atomic(tmp_path, capsys):
    path = tmp_path / "finite.json"
    path.write_text(json.dumps({
        "space": {"kind": "finite", "labels": ["a", "b"]},
        "weight": "const:1",
    }))
    assert run(["discretize", str(path)]) == cli.EXIT_PARSE
    assert "already atomic" in capsys.readouterr().err


@pytest.mark.parametrize(
    "space, weight, message",
    [
        ({"kind": "interval", "a": 0.0, "b": 4.0}, "const:nan", "weight entry 0 is not finite (nan)"),
        ({"kind": "interval", "a": 0.0, "b": 4.0}, "poly:0,1e308", "weight entry 1 is not finite (inf)"),
        ({"kind": "interval", "a": 0.0, "b": 4.0}, "table:[1, NaN]", "weight entry 1 is not finite (nan)"),
        ({"kind": "interval", "a": 0.0, "b": math.inf}, "const:1", "interval needs b > a and a finite length"),
        ({"kind": "interval", "a": -1e308, "b": 1e308}, "const:1", "interval needs b > a and a finite length"),
        ({"kind": "circle", "period": math.inf}, "const:1", "circle needs a positive finite period"),
    ],
    ids=["nan-const", "overflowing-poly", "nan-table", "infinite-endpoint", "overflowing-length", "infinite-period"],
)
def test_discretize_names_non_finite_input(tmp_path, capsys, space, weight, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"space": space, "rule": "midpoint", "n": 2, "weight": weight}))
    assert run(["discretize", str(path)]) == cli.EXIT_PARSE
    assert message in capsys.readouterr().err


def _malformed(tmp_path, command, scenario, edit):
    """The argv of ``command`` on a generated file after ``edit`` changed its JSON."""
    gen = tmp_path / "gen.json"
    run(["gen", "--scenario", scenario, "--atoms", "3", "--out", str(gen)])
    data = json.loads(gen.read_text())
    if command == "perturb":
        data = {"base": "gen.json", "perturbed": "gen.json", "lambda": 0.5}
    elif command == "discretize":
        data = {"space": {"kind": "interval", "a": 0, "b": 1}, "n": 2, "weight": "const:1"}
    edit(data)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    return [command, str(path)]


@pytest.mark.parametrize(
    "command, scenario, edit, field",
    [
        ("analyze", "random_resolution", lambda d: d.update(atoms=[1, 2, 3]), "atom 0"),
        ("analyze", "random_fusion", lambda d: d.update(atoms=[1, 2, 3]), "atom 0"),
        ("analyze", "random_resolution", lambda d: d["atoms"][1].update(weight=None), "atom 1: weight"),
        ("analyze", "random_fusion", lambda d: d["atoms"][2].update(mass=[1.0]), "atom 2: mass"),
        ("analyze", "random_resolution", lambda d: d.update(ambient_dim=None), "ambient_dim"),
        ("analyze", "random_fusion", lambda d: d.update(ambient_dim=None), "ambient_dim"),
        ("analyze", "random_resolution", lambda d: d["operators"].__setitem__(0, {}), "operator 0"),
        ("perturb", "random_resolution", lambda d: d.update({"lambda": None}), "lambda"),
        ("perturb", "random_resolution", lambda d: d.update({"lambda": [0.5]}), "lambda"),
        ("perturb", "random_resolution", lambda d: d.update(lambda2={}), "lambda2"),
        ("discretize", "axes", lambda d: d.update(space=5), "space"),
        ("discretize", "axes", lambda d: d.update(n=None), "n must be"),
        ("discretize", "axes", lambda d: d["space"].update(b=None), "interval space: b"),
        ("discretize", "axes", lambda d: d.update(space={"kind": "finite", "labels": 5}), "labels"),
    ],
    ids=[
        "resolution-atoms", "fusion-atoms", "null-weight", "list-mass", "resolution-null-dim",
        "fusion-null-dim", "object-operator", "null-lambda", "list-lambda", "object-lambda2",
        "number-space", "null-n", "null-endpoint", "number-labels",
    ],
)
def test_malformed_fields_are_parse_failures(tmp_path, capsys, command, scenario, edit, field):
    # parseable JSON of the wrong shape names its field and exits 2, never 3
    argv = _malformed(tmp_path, command, scenario, edit)
    capsys.readouterr()
    assert run(argv) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


@pytest.mark.parametrize(
    "command, scenario, edit, message",
    [
        ("analyze", "random_resolution", lambda d: d.update(ambient_dim=4.7),
         "ambient_dim must be an integer, got 4.7"),
        ("analyze", "random_fusion", lambda d: d.update(ambient_dim="4"),
         'ambient_dim must be a number, got "4"'),
        ("analyze", "random_resolution", lambda d: d["atoms"][0].update(mass=True),
         "atom 0: mass must be a number, got true"),
        ("perturb", "random_resolution", lambda d: d.update({"lambda": "0.5"}),
         'lambda must be a number, got "0.5"'),
        ("perturb", "random_resolution", lambda d: d.update({"lambda": 10**400}),
         f"lambda must be a number, got {10**400}"),
        ("discretize", "axes", lambda d: d.update(n=2.9), "n must be an integer, got 2.9"),
    ],
    ids=["fractional-dim", "string-dim", "bool-mass", "string-lambda", "overflowing-lambda",
         "fractional-n"],
)
def test_number_fields_take_json_numbers_only(tmp_path, capsys, command, scenario, edit, message):
    # no string, bool or fractional count is read as a number, and none is truncated
    argv = _malformed(tmp_path, command, scenario, edit)
    capsys.readouterr()
    assert run(argv) == cli.EXIT_PARSE
    assert capsys.readouterr().err == f"error: {message}\n"


def test_integral_float_counts_stay_valid(tmp_path, capsys):
    argv = _malformed(tmp_path, "analyze", "random_resolution", lambda d: d.update(ambient_dim=4.0))
    assert run(argv) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["ambient_dim"] == 4


def test_sweep_rotating_line(capsys):
    assert run(["sweep", "--scenario", "rotating_line", "--n", "1,8"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "n,lower,upper,lower_error,upper_error"
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(0.0, abs=1e-12)
    assert float(first[2]) == pytest.approx(math.pi, abs=1e-12)


def test_sweep_atomic_scenario_is_rejected(capsys):
    assert run(["sweep", "--scenario", "axes"]) == cli.EXIT_PARSE
    assert "already atomic" in capsys.readouterr().err


def test_sweep_json_format(capsys):
    assert run([
        "sweep", "--scenario", "rotating_line", "--n", "8,16", "--format", "json",
    ]) == cli.EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert [row["n"] for row in out["rows"]] == [8, 16]
    assert out["rows"][0]["lower_error"] <= 1e-9


def _write_perturbation_fixture(tmp_path, kind="additive", seed=0):
    return _write_scenario(
        tmp_path, *instances.perturbed_resolution_instance(3, 4, seed, kind)
    )


def _write_scenario(tmp_path, base, perturbed, params, lam):
    (tmp_path / "base.json").write_text(serialize.dumps_operator_family(base))
    (tmp_path / "pert.json").write_text(serialize.dumps_operator_family(perturbed))
    phi = "table:[" + ",".join(repr(p) for p in params.phi) + "]"
    scenario = {
        "base": "base.json",
        "perturbed": "pert.json",
        "lambda": lam,
        "lambda1": params.lambda1,
        "lambda2": params.lambda2,
        "phi": phi,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    return path


def test_perturb_left_scenario_is_proved_by_the_loewner_certificate(tmp_path, capsys):
    path = _write_scenario(tmp_path, *instances.perturbed_resolution_instance(4, 6, 0, "left"))
    out_path = tmp_path / "reports.json"
    capsys.readouterr()
    assert run(["perturb", str(path), "--out", str(out_path)]) == cli.EXIT_OK
    assert capsys.readouterr().out == (
        "pointwise_perturbation: PASS\n"
        "subset_stable_sum: PASS\n"
        "perturbed_resolution: PASS [gram_lower=0.568315, gram_upper=0.671791]\n"
        "composite_perturbation: SKIP (composing family exceeds the base upper bound:"
        " 0.828179 > 0.671791)\n"
    )
    pointwise = json.loads(out_path.read_text())[0]
    assert pointwise["notes"] == ["closeness of 6 atoms decided by the Loewner certificate on 6"]
    assert pointwise["constants"]["probe_margin"] is None
    assert pointwise["constants"]["loewner_margin"] <= 1e-9


def test_perturb_passing_scenario(tmp_path, capsys):
    path = _write_perturbation_fixture(tmp_path)
    assert run(["perturb", str(path)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "pointwise_perturbation: PASS" in out
    assert "subset_stable_sum: PASS" in out
    assert "perturbed_resolution: PASS" in out


def test_perturb_runs_each_shared_piece_once(tmp_path, monkeypatch, capsys, callers):
    # a composite instance, so the composite check runs beside the other three
    path = _write_scenario(tmp_path, *instances.composite_instance(4, 6, 0))
    calls = collections.Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(perturbation, "_worst_subset")
    count(perturbation, "check_perturbation")
    count(resolution, "verify_resolution")
    grams = callers(hilbert, "stacked_gram")
    run(["perturb", str(path)])
    assert "composite_perturbation: PASS" in capsys.readouterr().out
    assert calls == {"_worst_subset": 1, "check_perturbation": 1, "verify_resolution": 2}
    # verify_resolution runs on the base and the normalized family; each of
    # those assembles its Gram operator, and the perturbed family's, read by
    # its bounds and the composite probes, makes the third
    assert grams == {"resolution_gram": 3}


def test_perturb_failing_scenario_gives_exit_one(tmp_path, capsys):
    path = _write_perturbation_fixture(tmp_path)
    scenario = json.loads(path.read_text())
    scenario["lambda"] = 1e-8  # far below the real subset defect
    scenario["phi"] = "const:0"
    path.write_text(json.dumps(scenario))
    assert run(["perturb", str(path)]) == cli.EXIT_CHECK_FAILED
    assert "FAIL" in capsys.readouterr().out


def test_perturb_malformed_scenario_is_a_parse_failure(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(["perturb", str(path)]) == cli.EXIT_PARSE


@pytest.mark.parametrize(
    "field, value, named",
    [
        ("phi", "table:[NaN, 0, 0, 0]", "phi entry 0"),
        ("lambda1", float("inf"), "lambda1"),
        ("lambda2", float("nan"), "lambda2"),
    ],
)
def test_perturb_non_finite_parameters_are_a_parse_failure(tmp_path, capsys, field, value, named):
    path = _write_perturbation_fixture(tmp_path)
    scenario = json.loads(path.read_text())
    scenario[field] = value
    path.write_text(json.dumps(scenario))  # writes NaN / Infinity literals
    assert run(["perturb", str(path)]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert named in captured.err and "not finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["discretize", "perturb"])
def test_table_weight_entries_must_be_json_numbers(command, tmp_path, capsys):
    # neither discretize's weight nor perturb's envelope reads true or "2" as a number
    if command == "perturb":
        path = _write_perturbation_fixture(tmp_path)
        scenario = json.loads(path.read_text())
        scenario["phi"] = 'table:[true, "2", 0, 0]'
    else:
        path = tmp_path / "spec.json"
        space = {"kind": "interval", "a": 0.0, "b": 1.0}
        scenario = {"space": space, "n": 4, "weight": 'table:[true, "2", 0, 0]'}
    path.write_text(json.dumps(scenario))
    assert run([command, str(path)]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: table weight entry 0 must be a number, got true\n"


def test_perturb_envelope_table_length_names_both_counts(tmp_path, capsys):
    path = _write_perturbation_fixture(tmp_path)
    scenario = json.loads(path.read_text())
    scenario["phi"] = "table:[0, 0]"
    path.write_text(json.dumps(scenario))
    assert run(["perturb", str(path)]) == cli.EXIT_PARSE
    assert capsys.readouterr().err == "error: table weight has 2 entries for 4 atoms\n"


def test_perturb_mismatched_families_is_internal(tmp_path, capsys):
    base = instances.random_resolution_family(3, 4, 0)
    other = instances.random_resolution_family(4, 4, 0)
    (tmp_path / "base.json").write_text(serialize.dumps_operator_family(base))
    (tmp_path / "pert.json").write_text(serialize.dumps_operator_family(other))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "base": "base.json", "perturbed": "pert.json", "lambda": 0.1,
    }))
    assert run(["perturb", str(path)]) == cli.EXIT_INTERNAL


def test_perturb_reports_written_to_file(tmp_path):
    path = _write_perturbation_fixture(tmp_path, seed=1)
    out_path = tmp_path / "reports.json"
    run(["perturb", str(path), "--out", str(out_path)])
    reports = json.loads(out_path.read_text())
    ids = {r["check_id"] for r in reports}
    assert {"pointwise_perturbation", "subset_stable_sum", "perturbed_resolution"} <= ids


def _pinned_perturb_scenario(tmp_path, kind, arg):
    """The scenario file of one section of data/perturb_scenarios.txt.

    "composite" and "additive" write composite_instance(6, 10, seed) and
    perturbed_resolution_instance(4, 6, seed); "zero" is CI's zero
    perturbation, one random resolution of ``arg`` atoms as both families.
    """
    if kind == "composite":
        return _write_scenario(tmp_path, *instances.composite_instance(6, 10, int(arg)))
    if kind == "additive":
        return _write_scenario(tmp_path, *instances.perturbed_resolution_instance(4, 6, int(arg)))
    base = tmp_path / "b.json"
    run(["gen", "--scenario", "random_resolution", "--atoms", arg, "--seed", "0", "--out", str(base)])
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"base": "b.json", "perturbed": "b.json", "lambda": 0.5}))
    return path


def _pinned_perturb_outputs():
    """(kind, arg, exit code, stdout) of each section of data/perturb_scenarios.txt."""
    path = os.path.join(os.path.dirname(__file__), "data", "perturb_scenarios.txt")
    with open(path, encoding="utf-8") as fh:
        sections = fh.read().split("== ")[1:]
    for section in sections:
        header, _, out = section.partition("\n")
        target, _, code = header.partition(": exit ")
        kind, _, arg = target.partition(" ")
        yield pytest.param(kind, arg, int(code), out, id=f"{kind}-{arg}")


@pytest.mark.parametrize("kind, arg, code, out", _pinned_perturb_outputs())
def test_perturb_output_is_pinned(kind, arg, code, out, tmp_path, capsys):
    path = _pinned_perturb_scenario(tmp_path, kind, arg)
    capsys.readouterr()
    assert run(["perturb", str(path)]) == code
    assert capsys.readouterr().out == out


def test_pinned_perturb_outputs_cover_every_scenario():
    pinned = {(p.values[0], p.values[1]) for p in _pinned_perturb_outputs()}
    seeds = {(kind, str(seed)) for kind in ("composite", "additive") for seed in range(3)}
    assert pinned == seeds | {("zero", "6"), ("zero", "10")}


def test_tolerance_env_var_is_honored(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.TOL_ENV_VAR, "not-a-number")
    assert run(["verify", "--scenario", "basis_resolution"]) == cli.EXIT_PARSE
    assert cli.TOL_ENV_VAR in capsys.readouterr().err
    # a valid flag takes precedence over the variable
    assert run(["verify", "--scenario", "basis_resolution", "--tol", "1e-6"]) == cli.EXIT_OK
    monkeypatch.setenv(cli.TOL_ENV_VAR, "1e-6")
    assert run(["verify", "--scenario", "basis_resolution"]) == cli.EXIT_OK


@pytest.mark.parametrize("value", ["inf", "5", "1", "0", "-1", "nan", "x"])
def test_tol_flag_outside_the_unit_interval_is_a_parse_failure(value, capsys):
    # the same (0, 1) check as FRAMELAB_TOL, named after the flag; a value
    # argparse cannot read as a float fails in the parser, also with exit 2
    assert run(["verify", "--scenario", "random_resolution", "--tol", value]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tol" in captured.err


@pytest.mark.parametrize("target, check", [
    ("", "verify_induced_vector_frame"),
    # the second target raises: the first target's lines are not printed either
    ("mercedes.json", "orthogonality_defect"),
])
def test_verify_check_that_raises_prints_nothing(target, check, tmp_path, monkeypatch, capsys):
    # every check runs before the first line is printed, so no PASS line of
    # an earlier check reaches stdout when a later check raises
    argv = ["verify", "--scenario", "random_resolution"]
    if target:
        path = tmp_path / target
        path.write_text(serialize.dumps_instance(instances.build_scenario("mercedes")))
        argv.append(str(path))

    def broken(*args):
        raise RuntimeError("check blew up")

    monkeypatch.setattr(theorems, check, broken)
    assert run(argv) == cli.EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "check blew up" in captured.err


def test_perturb_out_writes_a_singular_sums_constants_as_null(tmp_path, capsys):
    # zeroing one coordinate projector makes the perturbed sum S singular
    base = tmp_path / "b.json"
    run(["gen", "--scenario", "basis_resolution", "--out", str(base)])
    data = json.loads(base.read_text())
    data["operators"][3] = [[0.0] * 4] * 4
    (tmp_path / "z.json").write_text(json.dumps(data))
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps({"base": "b.json", "perturbed": "z.json", "lambda": 0.5}))
    assert run(["perturb", str(spec)]) == cli.EXIT_CHECK_FAILED
    printed = capsys.readouterr().out
    out = tmp_path / "r.json"
    assert run(["perturb", str(spec), "--out", str(out)]) == cli.EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (printed, "")
    reports = {r["check_id"]: r for r in json.loads(out.read_text())}
    assert reports["subset_stable_sum"]["constants"]["reconstruction_residual"] is None
    assert reports["perturbed_resolution"]["constants"]["predicted_upper"] is None


def test_reconstruct_of_a_vector_no_atom_acts_on_writes_null(tmp_path, capsys):
    fam = resolution.OperatorFamily(
        operators=np.array([np.diag([1.0, 0.0]), np.zeros((2, 2))]),
        weights=np.ones(2), masses=np.ones(2), sum_mode=resolution.SumMode.RAW,
    )
    path = tmp_path / "fam.json"
    path.write_text(serialize.dumps_instance(fam))
    assert run(["reconstruct", str(path), "--vector", "[0, 1]"]) == cli.EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    assert out.startswith("support_reconstruction: FAIL (hypothesis: span_gram_positive)\n")
    assert json.loads(out[out.index("{"):])["reconstructed"] is None


def test_help_exits_cleanly(capsys):
    assert run(["--help"]) == cli.EXIT_OK
    assert run([]) == cli.EXIT_PARSE


def test_verify_non_finite_resolution_is_a_parse_failure(tmp_path, capsys):
    data = json.loads(serialize.dumps_instance(instances.build_scenario("basis_resolution")))
    data["operators"][1][0][1] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(data))  # json writes the NaN literal, which it also reads
    assert run(["verify", str(bad)]) == cli.EXIT_PARSE
    assert "not finite" in capsys.readouterr().err


def test_overflowing_resolution_is_a_parse_failure(tmp_path):
    # finite entries whose Gram sum overflows; run as a child process, with
    # numpy's default warning filters, so that any RuntimeWarning numpy
    # printed would show on stderr: the one line is the finiteness error
    data = json.loads(serialize.dumps_instance(instances.build_scenario("random_resolution")))
    data["operators"] = (1e200 * np.array(data["operators"])).tolist()
    big = tmp_path / "big.json"
    big.write_text(json.dumps(data))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    for command in ("analyze", "verify"):
        proc = subprocess.run(
            [sys.executable, "-m", "framelab.cli", command, str(big)],
            capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == cli.EXIT_PARSE
        assert proc.stderr == "error: assembled matrix entry (0, 0) is not finite (inf)\n"


def test_verify_non_finite_basis_is_a_parse_failure(tmp_path, capsys):
    data = json.loads(serialize.dumps_instance(instances.build_scenario("mercedes")))
    data["atoms"][1]["basis"][0][1] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(data))
    assert run(["verify", str(bad)]) == cli.EXIT_PARSE
    assert "atom 1: basis entry (0, 1) is not finite" in capsys.readouterr().err


def test_linalg_error_is_an_internal_error(monkeypatch, capsys):
    # LinAlgError subclasses ValueError but is not a parse failure
    def singular(args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "cmd_analyze", singular)
    assert run(["analyze", "--scenario", "axes"]) == cli.EXIT_INTERNAL
    assert "Singular matrix" in capsys.readouterr().err
