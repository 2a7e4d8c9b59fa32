import json
import math

import numpy as np
import pytest

from framelab import cli, instances, serialize
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


def test_analyze_csv_format(capsys):
    assert run(["analyze", "--scenario", "axes", "--format", "csv"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "lower,upper,condition"
    assert lines[1] == "1,1,1"


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


def test_reconstruct_tight_family(capsys):
    assert run([
        "reconstruct", "--scenario", "mercedes", "--vector", "[0.5, -1.5]",
    ]) == cli.EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["residual"] <= 1e-12
    assert np.allclose(out["reconstructed"], [0.5, -1.5])


def test_reconstruct_rejects_a_non_finite_vector(capsys, monkeypatch):
    monkeypatch.setattr(cli.fusion, "reconstruct", None)  # fails before any work
    assert run([
        "reconstruct", "--scenario", "mercedes", "--vector", "[1.0, NaN]",
    ]) == cli.EXIT_PARSE
    assert "--vector entry 1 is not finite (nan)" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--dim", "--atoms"])
@pytest.mark.parametrize("scenario", sorted(instances.SCENARIOS))
def test_gen_rejects_sizes_below_one(scenario, flag, capsys):
    assert run(["gen", "--scenario", scenario, flag, "0"]) == cli.EXIT_PARSE
    assert f"{flag} must be at least 1, got 0" in capsys.readouterr().err


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
    base, perturbed, params, lam = instances.perturbed_resolution_instance(
        3, 4, seed, kind
    )
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


def test_perturb_passing_scenario(tmp_path, capsys):
    path = _write_perturbation_fixture(tmp_path)
    assert run(["perturb", str(path)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "pointwise_perturbation: PASS" in out
    assert "subset_stable_sum: PASS" in out
    assert "perturbed_resolution: PASS" in out


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


def test_tolerance_env_var_is_honored(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.TOL_ENV_VAR, "not-a-number")
    assert run(["verify", "--scenario", "basis_resolution"]) == cli.EXIT_PARSE
    assert cli.TOL_ENV_VAR in capsys.readouterr().err
    monkeypatch.setenv(cli.TOL_ENV_VAR, "1e-6")
    assert run(["verify", "--scenario", "basis_resolution"]) == cli.EXIT_OK


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
