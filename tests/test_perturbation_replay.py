"""Replay of the perturbation pipeline against digests of its earlier output.

Each case builds one instance with a perturbation builder, runs
perturbation_reports on it, and runs the standalone composite check, which
the pipeline skips where the Bessel hypothesis fails. Its digest is the
sha256 of the builder's arrays and of the reports' to_dict() JSON, written
by the json module, so every float keeps its repr and its sign of zero.

The digests hold on the NumPy, BLAS and CPU they were recorded on; another
build may round differently, so the replay is skipped there. To record them
anew, from the repository root:

    PYTHONPATH=src python tests/test_perturbation_replay.py > tests/data/perturbation_replay.txt
"""
import hashlib
import json
import os

import numpy as np
import pytest

from framelab import instances, perturbation

DATA = os.path.join(os.path.dirname(__file__), "data", "perturbation_replay.txt")

# perturbed_resolution_instance's kinds, then composite_instance's "scalar"
KINDS = ("left", "uniform", "additive", "degenerate", "scalar")
DIMS = range(2, 9)
SEEDS = range(10)


def build_fingerprint() -> str:
    """NumPy's version, its BLAS and the CPU features NumPy detects."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except Exception:  # NumPy < 1.25 has no dict form
        blas = "unknown"
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__
    cpu = " ".join(sorted(k for k, on in __cpu_features__.items() if on))
    return f"numpy {np.__version__}; {blas}; {cpu}"


def _build(kind: str, dim: int, seed: int):
    if kind == "scalar":
        return instances.composite_instance(dim, 8 + seed % 5, seed)
    return instances.perturbed_resolution_instance(dim, 2 + seed % 7, seed, kind)


def case_digest(kind: str, dim: int, seed: int) -> str:
    """The sha256 of one case, or the builder's ValueError."""
    try:
        base, perturbed, params, lam = _build(kind, dim, seed)
    except ValueError as exc:
        return f"ValueError: {exc}"
    digest = hashlib.sha256()
    for fam in (base, perturbed):
        for a in (fam.operators, fam.weights, fam.masses):
            digest.update(f"{a.dtype} {a.shape}".encode())
            digest.update(a.tobytes())
        digest.update(repr(fam.points).encode())
    digest.update(np.array([*params.phi, params.lambda1, params.lambda2, lam]).tobytes())
    reports = [
        *perturbation.perturbation_reports(base, perturbed, params, lam),
        perturbation.verify_composite_perturbation(base, perturbed, params, lam),
    ]
    digest.update(json.dumps([r and r.to_dict() for r in reports]).encode())
    return digest.hexdigest()


def _recorded():
    with open(DATA, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    fingerprint = lines[0].removeprefix("# build: ")
    cases = {}
    for line in lines[1:]:
        kind, dim, seed, digest = line.split(" ", 3)
        cases[kind, int(dim), int(seed)] = digest
    return fingerprint, cases


@pytest.mark.parametrize("kind", KINDS)
def test_reports_and_builders_keep_their_bytes(kind):
    fingerprint, cases = _recorded()
    if fingerprint != build_fingerprint():
        pytest.skip(f"digests recorded on another build: {fingerprint}")
    want = {case: digest for case, digest in cases.items() if case[0] == kind}
    assert len(want) == len(DIMS) * len(SEEDS)
    changed = [case for case, digest in want.items() if case_digest(*case) != digest]
    assert not changed


if __name__ == "__main__":
    print(f"# build: {build_fingerprint()}")
    for kind in KINDS:
        for dim in DIMS:
            for seed in SEEDS:
                print(kind, dim, seed, case_digest(kind, dim, seed))
