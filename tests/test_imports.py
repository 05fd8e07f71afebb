"""What each entry point imports.

Package names resolve on first use (``repro._lazy``), and the mining
facade imports its miners when they run, so a command loads only the
modules it runs.  Every case here starts a fresh interpreter and reads
its ``sys.modules``; none of them times anything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PACKAGES = [
    "repro",
    "repro.apps",
    "repro.baselines",
    "repro.bench",
    "repro.compress",
    "repro.core",
    "repro.data",
    "repro.parallel",
    "repro.robustness",
    "repro.rules",
    "repro.serve",
    "repro.stream",
    "repro.viz",
]

#: Appended to every child: prints the loaded ``repro`` modules (and
#: ``numpy``, if loaded) as the last line of standard output.
_REPORT = """
import json as _json, sys as _sys
print(_json.dumps(sorted(m for m in _sys.modules if m == "numpy" or m.split(".")[0] == "repro")))
"""

#: Runs the CLI with ``sys.argv[1:]``, output discarded.
_CLI = """
import contextlib, io, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        main(sys.argv[1:])
    except SystemExit:
        pass
"""


def _child(code: str, *argv: str) -> list:
    """Run ``code`` in a fresh interpreter (with this run's ``-W``
    options) and return the JSON of its last output line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    warn = [f"-W{option}" for option in sys.warnoptions]
    proc = subprocess.run(
        [sys.executable, *warn, "-c", code, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded(code: str, *argv: str) -> set[str]:
    return set(_child(code + _REPORT, *argv))


def _under(modules: set[str], prefixes) -> list[str]:
    return sorted(m for m in modules if any(m == p or m.startswith(p + ".") for p in prefixes))


@pytest.fixture
def tiny_dat(tmp_path) -> str:
    path = tmp_path / "tiny.dat"
    path.write_text("1 2 3\n1 2\n2 3 4\n1 3 4\n1 2 3 4\n")
    return str(path)


class TestCommands:
    def test_import_cli_loads_no_numpy(self):
        modules = _loaded("import repro.cli")
        assert "numpy" not in modules
        assert "repro.core" not in modules

    @pytest.mark.parametrize("argv", [["--help"], ["generate", "--help"], ["datasets"]])
    def test_help_and_datasets_load_no_numpy(self, argv):
        assert "numpy" not in _loaded(_CLI, *argv)

    def test_generate_loads_no_numpy(self, tmp_path):
        argv = ["generate", "--kind", "zipf", "--output", str(tmp_path / "g.dat"),
                "--transactions", "20", "--items", "8", "--seed", "1"]
        assert "numpy" not in _loaded(_CLI, *argv)
        assert (tmp_path / "g.dat").exists()

    def test_ungoverned_mine_loads_only_what_it_runs(self, tiny_dat, tmp_path):
        out = tmp_path / "out.txt"
        modules = _loaded(_CLI, "mine", "--input", tiny_dat, "--min-support", "2",
                          "--output", str(out))
        assert out.read_text().startswith("# 13 itemsets")
        assert "repro.core.conditional" in modules
        unused = [
            "repro.serve", "repro.stream", "repro.parallel", "repro.baselines",
            "repro.compress", "repro.core.lextree", "repro.robustness.governor",
        ]
        assert _under(modules, unused) == []

    def test_deadline_loads_the_governor(self, tiny_dat, tmp_path):
        modules = _loaded(_CLI, "mine", "--input", tiny_dat, "--min-support", "2",
                          "--deadline", "60", "--output", str(tmp_path / "out.txt"))
        assert "repro.robustness.governor" in modules

    def test_stream_queries_load_no_kernel(self):
        code = """
import sys
from repro.stream.summary import StreamSummary

summary = StreamSummary(epsilon=0.01, delta=0.01, capacity=32)
def op():
    summary.extend([[1, 2, 3], [2, 3], [1, 3, 4]] * 10)
    summary.top_k(5)
    summary.estimate((1, 3))
op()
before = set(sys.modules)
op()
assert set(sys.modules) == before, sorted(set(sys.modules) - before)
"""
        modules = _loaded(code)
        kernel = [
            "repro.core.conditional", "repro.core.topdown", "repro.core.plt",
            "repro.core.flat", "repro.robustness",
        ]
        assert _under(modules, kernel) == []

    def test_serve_fault_env_name_matches(self):
        from repro import cli
        from repro.serve.faults import FAULTS_ENV

        assert cli._SERVE_FAULTS_ENV == FAULTS_ENV


#: Checks one package in a fresh interpreter and prints what it found.
_NAMESPACE = """
import importlib, json, pkgutil, sys, types

name = sys.argv[1]
pkg = importlib.import_module(name)
found = {"misplaced": [], "star": None, "undirred": [], "unknown": None, "submodules": []}
for attr in pkg.__all__:
    value = getattr(pkg, attr)
    if attr == "__version__":
        continue
    if isinstance(value, (type, types.FunctionType)):
        home = sys.modules[value.__module__]
        ok = value.__module__.startswith(name + ".") and getattr(home, value.__name__) is value
    else:
        ok = any(
            vars(m).get(attr) is value
            for key, m in list(sys.modules.items())
            if key.startswith(name + ".") and not hasattr(m, "__path__")
        )
    if not ok:
        found["misplaced"].append(attr)
namespace = {}
exec(f"from {name} import *", namespace)
found["star"] = sorted(set(namespace) - {"__builtins__"}) == sorted(pkg.__all__)
found["undirred"] = sorted(set(pkg.__all__) - set(dir(pkg)))
try:
    getattr(pkg, "no_such_name")
except AttributeError:
    found["unknown"] = True
for info in pkgutil.iter_modules(pkg.__path__):
    if not info.name.startswith("_") and info.name != "__main__":
        if getattr(pkg, info.name) is not sys.modules[f"{name}.{info.name}"]:
            found["submodules"].append(info.name)
print(json.dumps(found))
"""


@pytest.mark.parametrize("package", PACKAGES)
def test_package_namespace(package):
    """Each ``__all__`` name is the defining module's object, ``import *``
    binds exactly ``__all__``, ``dir()`` lists it, an unknown name is an
    ``AttributeError``, and every submodule resolves as an attribute."""
    found = _child(_NAMESPACE, package)
    assert found == {
        "misplaced": [], "star": True, "undirred": [], "unknown": True, "submodules": []
    }


def test_pickled_itemsets_keep_their_module():
    from repro import FrequentItemset

    assert FrequentItemset.__module__ == "repro.core.mining"
