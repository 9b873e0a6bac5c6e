"""Import footprint of the command line tool, its literal constants and its syntax."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.constants

import dpqlsim
from dpqlsim import bbr_kinetics, spectroscopy

MODULES = ("cli", "spectroscopy", "bbr_kinetics", "trajectory_sim", "dataio", "hmm_detector",
           "run_statistics", "sweep_dynamics")


def test_cli_import_leaves_heavy_scipy_modules_out():
    # scipy.special and scipy.linalg alone cost about 0.3 s of a fresh
    # interpreter's start; the package needs numpy only, and scipy serves
    # the tests as an oracle.
    src = str(Path(dpqlsim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    probe = (
        "import sys, dpqlsim.cli; "
        "print(','.join(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == ""


@pytest.mark.parametrize(
    "path", sorted(Path(dpqlsim.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_sources_parse_as_python_3_10(path):
    # pyproject.toml declares Python >= 3.10; a 3.11-only construct fails here.
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize(
    "path", sorted(Path(dpqlsim.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_sources_import_no_scipy(path):
    # Also a lazy import inside a function, which the probe above misses.
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    assert [name for name in names if name.split(".")[0] == "scipy"] == []


@pytest.mark.parametrize("module", MODULES)
def test_public_names_exist_and_are_exported(module):
    # A profiler wraps each name in every module's __all__ through getattr,
    # so a name left there after its definition is gone breaks a traced run.
    mod = importlib.import_module(f"dpqlsim.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    if module != "cli":
        assert set(mod.__all__) <= set(dpqlsim.__all__)


def test_si_literals_equal_scipy_constants():
    assert spectroscopy.PLANCK_H == scipy.constants.h
    assert spectroscopy.LIGHT_C == scipy.constants.c
    assert spectroscopy.BOLTZMANN_K == scipy.constants.k
    assert bbr_kinetics._EPSILON_0 == scipy.constants.epsilon_0
    assert spectroscopy.KB_CM == scipy.constants.k / (
        scipy.constants.h * scipy.constants.c * 100.0
    )
