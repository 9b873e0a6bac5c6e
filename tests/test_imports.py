"""Import footprint of the command line tool, its literal constants, its syntax
and the names the benchmark under ``perfbench/`` reads."""

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
from dpqlsim.dataio import read_dataset_csv
from dpqlsim.trajectory_sim import ExperimentConfig, TrajectoryDynamics, simulate_trial

MODULES = ("cli", "spectroscopy", "bbr_kinetics", "trajectory_sim", "dataio", "hmm_detector",
           "run_statistics", "sweep_dynamics")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _dpqlsim_names(tree: ast.AST) -> set[str]:
    """Dotted ``dpqlsim...`` names in a module: imports, attribute chains on
    ``dpqlsim`` and on ``sys.modules["dpqlsim.x"]``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, (ast.Attribute, ast.Subscript)):
            parts = []
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name):
                parts.append(node.id)
            elif isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
                parts.append(str(node.slice.value))
            names.add(".".join(reversed(parts)))
    return {name for name in names if name.split(".")[0] == "dpqlsim"}


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    obj = dpqlsim
    for i, part in enumerate(parts[1:], start=2):
        if not hasattr(obj, part):
            try:
                importlib.import_module(".".join(parts[:i]))
            except ImportError:
                return False
        obj = getattr(obj, part)
    return True


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


def test_benchmark_names_exist(tmp_path):
    # perfbench/ belongs to the benchmark and is read, never edited, here:
    # a clean-up that drops a name it reaches breaks the benchmark run.
    sources = sorted(PERFBENCH.glob("*.py"))
    assert sources
    reached = set()
    for path in sources:
        reached |= _dpqlsim_names(ast.parse(path.read_text(), filename=str(path)))
    assert "dpqlsim.cli.main" in reached  # the parse follows attribute chains
    assert sorted(name for name in reached if not _resolves(name)) == []
    # What the tracer and the stream check read off the results.
    assert callable(TrajectoryDynamics.for_config)
    assert callable(bbr_kinetics.ground_state_residence_lifetime.cache_info)
    dataset = simulate_trial(ExperimentConfig(rng_seed=1), 5)
    assert len(dataset.records) == 5
    dataset.to_csv(tmp_path / "dataset.csv")
    rows = read_dataset_csv(tmp_path / "dataset.csv")
    assert len(rows) == 5 and all(isinstance(r, tuple) and len(r) == 4 for r in rows)


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


def test_level_table_internals_stay_inside_the_library():
    # Populations are public code-indexed arrays: the CLI reads them through
    # spectroscopy's public names, and only the kinetics builds on the raw
    # Boltzmann factors.
    offenders = []
    for path in sorted(Path(dpqlsim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = ("." * node.level) + (node.module or "")
            for alias in node.names:
                from_spectroscopy = source in (".spectroscopy", "dpqlsim.spectroscopy")
                if (path.name == "cli.py" and from_spectroscopy and alias.name.startswith("_")
                        or path.name != "bbr_kinetics.py" and alias.name == "_boltzmann"):
                    offenders.append(f"{path.name}: {alias.name} from {source}")
    assert offenders == []


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
