"""The lazy package and the modules each CLI subcommand loads.

Each subcommand runs in a fresh interpreter, so ``sys.modules`` holds only
what that command imported.
"""
import os
import pkgutil
import subprocess
import sys

import pytest

import framelab
from framelab import instances, serialize

SRC = os.path.dirname(os.path.dirname(os.path.abspath(framelab.__file__)))
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(framelab.__path__))
# the modules that hold the builders and checks no file-reading command needs
HEAVY = {"instances", "measure", "perturbation", "theorems"}


def _fresh(code, *argv, cwd=None):
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], cwd=cwd, capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_by(argv, cwd, exit_code):
    """The framelab submodules ``cli.main(argv)`` loads in a fresh interpreter."""
    code = (
        "import sys\n"
        "from framelab import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(code, *sorted(m[9:] for m in sys.modules if m.startswith('framelab.')))\n"
    )
    last = _fresh(code, *argv, cwd=cwd).splitlines()[-1].split()
    assert int(last[0]) == exit_code
    return set(last[1:])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("imports")
    for name, obj in (
        ("fusion.json", instances.random_fusion_family(4, 6, 0)),
        ("resolution.json", instances.random_resolution_family(4, 6, 0)),
    ):
        (path / name).write_text(serialize.dumps_instance(obj))
    (path / "scenario.json").write_text(
        '{"base": "resolution.json", "perturbed": "resolution.json", "lambda": 0.5}'
    )
    (path / "malformed.json").write_text('{"ambient_dim": 4, "atoms": [')
    return path


CASES = [
    (["analyze", "fusion.json"], 0, HEAVY),
    # a file that is not JSON exits 2 before any family module is loaded
    (["analyze", "malformed.json"], 2, HEAVY | {"fusion", "resolution"}),
    (["reconstruct", "fusion.json"], 0, HEAVY),
    (["verify", "fusion.json"], 0, {"instances", "measure", "perturbation"}),
    (["verify", "resolution.json"], 0, {"instances", "measure", "perturbation"}),
    # a zero perturbation fails only the composite check
    (["perturb", "scenario.json"], 1, {"instances", "theorems"}),
    (["gen", "--scenario", "random_resolution"], 0, {"measure", "perturbation", "theorems"}),
    (["sweep", "--scenario", "rotating_line", "--n", "8,16"], 0, {"perturbation", "theorems"}),
]


@pytest.mark.parametrize(
    "argv, exit_code, unloaded", CASES, ids=[" ".join(argv[:3]) for argv, _, _ in CASES]
)
def test_subcommand_loads_only_the_modules_it_runs(argv, exit_code, unloaded, workdir):
    loaded = _loaded_by(argv, workdir, exit_code)
    assert "cli" in loaded
    assert not loaded & unloaded


def test_import_framelab_loads_no_submodule():
    out = _fresh("import sys, framelab; print(*sorted(m for m in sys.modules if 'framelab' in m))")
    assert out.split() == ["framelab"]


def test_every_public_name_and_submodule_resolves():
    # in a fresh interpreter, so each submodule is reached through the package
    code = (
        "import pkgutil, sys, framelab\n"
        "subs = sorted(m.name for m in pkgutil.iter_modules(framelab.__path__))\n"
        "bad = [n for n in subs if getattr(framelab, n) is not sys.modules['framelab.' + n]]\n"
        "for n in framelab.__all__:\n"
        "    value = getattr(framelab, n)\n"
        "    if getattr(sys.modules[value.__module__], n, None) is not value:\n"
        "        bad.append(n)\n"
        "print('resolved', len(subs), len(framelab.__all__), *bad)\n"
    )
    assert _fresh(code).split() == ["resolved", str(len(SUBMODULES)), str(len(framelab.__all__))]


def test_star_import_binds_all():
    namespace = {}
    exec("from framelab import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(framelab.__all__)


def test_dir_lists_all_and_the_submodules():
    listed = dir(framelab)
    assert set(framelab.__all__) <= set(listed)
    assert set(SUBMODULES) <= set(listed)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        framelab.no_such_name
