"""Replay of ``framelab verify --scenario S --seed k --out`` against digests of its earlier output.

Each case runs the command in-process on one built-in scenario and seed. Its
digest is the sha256 of the exit code, stdout and the ``--out`` file, whose
constants carry 17 significant digits; ``tests/data/verify_scenarios.txt``
pins only the 6-digit stdout.

The digests hold on the NumPy, BLAS and CPU they were recorded on (the
fingerprint of test_perturbation_replay), and the replay is skipped on any
other build. To record them anew, from the repository root:

    PYTHONPATH=src python tests/test_verify_replay.py > tests/data/verify_replay.txt
"""
import contextlib
import hashlib
import io
import os
import tempfile

import pytest

from framelab import cli, instances
from test_perturbation_replay import build_fingerprint

DATA = os.path.join(os.path.dirname(__file__), "data", "verify_replay.txt")

SEEDS = range(3)


def case_digest(scenario: str, seed: int, out_path: str) -> str:
    """The sha256 of one ``verify`` run's exit code, stdout and ``--out`` bytes."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["verify", "--scenario", scenario, "--seed", str(seed), "--out", out_path])
    digest = hashlib.sha256(f"exit {code}\n{stdout.getvalue()}".encode())
    with open(out_path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


def _recorded():
    with open(DATA, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    fingerprint = lines[0].removeprefix("# build: ")
    cases = {}
    for line in lines[1:]:
        scenario, seed, digest = line.split(" ")
        cases[scenario, int(seed)] = digest
    return fingerprint, cases


def test_every_scenario_and_seed_is_recorded():
    _, cases = _recorded()
    assert set(cases) == {(name, seed) for name in instances.SCENARIOS for seed in SEEDS}


@pytest.mark.parametrize("scenario", sorted(instances.SCENARIOS))
def test_verify_reports_keep_their_bytes(scenario, tmp_path):
    fingerprint, cases = _recorded()
    if fingerprint != build_fingerprint():
        pytest.skip(f"digests recorded on another build: {fingerprint}")
    out = str(tmp_path / "reports.json")
    changed = [seed for seed in SEEDS if case_digest(scenario, seed, out) != cases[scenario, seed]]
    assert not changed


if __name__ == "__main__":
    print(f"# build: {build_fingerprint()}")
    with tempfile.TemporaryDirectory() as tmp:
        for scenario in sorted(instances.SCENARIOS):
            for seed in SEEDS:
                print(scenario, seed, case_digest(scenario, seed, os.path.join(tmp, "reports.json")))
