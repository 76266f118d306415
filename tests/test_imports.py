"""The package surface and what each command imports.

Every CLI call is a fresh process that compiles the modules it imports
when no bytecode cache is at hand, so `import simplexdyn` loads no
submodule and each command loads only the modules it runs: profile and
predict load neither the coefficient iteration (series) nor the oracles,
and scalar does not load the oracles.  The exported names resolve on
first use to the objects their modules define.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import simplexdyn

GOLDEN = Path(__file__).parent / "golden"
SRC = str(Path(simplexdyn.__file__).resolve().parents[1])
# Runs the CLI in a fresh process, then prints its exit code and the
# simplexdyn submodules it loaded.
LOADED = ("import sys\nfrom simplexdyn.cli import main\ncode = main(sys.argv[1:])\n"
          "print(code, *sorted(name.partition('.')[2] for name in sys.modules\n"
          "                    if name.startswith('simplexdyn.')))\n")
ALL = {"algebra", "cli", "config", "dynamics", "errors", "groups", "modm",
       "oracles", "poly", "predict", "record", "series"}


def fresh_process(*args: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, *args], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return out.split()


def test_importing_the_package_loads_no_submodule():
    code = ("import sys, simplexdyn\n"
            "print(*[name for name in sys.modules if name.startswith('simplexdyn.')])")
    assert fresh_process("-c", code) == []


@pytest.mark.parametrize("command, config, absent", [
    ("scalar", None, {"algebra", "dynamics", "predict", "modm", "oracles"}),
    ("profile", "s6-odd-support.json", {"predict", "modm", "series", "oracles"}),
    ("limit-set", "c10-regular.json", {"predict", "modm", "series"}),
    ("predict", "c10-regular.json", {"series", "oracles"}),
    ("verify", "c10-regular.json", set()),
])
def test_each_command_loads_only_the_modules_it_runs(command, config, absent,
                                                     tmp_path):
    if config is None:
        path = tmp_path / "series-only.json"
        path.write_text(json.dumps({"group": {"kind": "cyclic", "n": 3},
                                    "series": {"0": "1/3", "2": "2/3"}}))
    else:
        path = GOLDEN / config
    code, *loaded = fresh_process("-c", LOADED, command, "--config", str(path),
                                  "--out", str(tmp_path / "out.txt"))
    assert code == "0"
    assert set(loaded) == ALL - absent


@pytest.mark.parametrize("command, config", [
    ("scalar", "c12-divergent.json"), ("profile", "s6-odd-support.json"),
    ("limit-set", "c10-regular.json"), ("verify", "c10-regular.json")])
def test_no_command_loads_argparse_gettext_or_locale(command, config, tmp_path):
    probe = ("import sys\nfrom simplexdyn.cli import main\ncode = main(sys.argv[1:])\n"
             "print(code, *[name for name in ('argparse', 'gettext', 'locale')\n"
             "              if name in sys.modules])\n")
    assert fresh_process("-c", probe, command, "--config", str(GOLDEN / config),
                         "--out", str(tmp_path / "out.txt")) == ["0"]


def test_every_export_is_the_object_its_module_defines():
    for name in simplexdyn.__all__:
        value = getattr(simplexdyn, name)
        assert value.__module__.startswith("simplexdyn."), name
        assert getattr(importlib.import_module(value.__module__), name) is value


def test_dir_and_star_import_cover_the_exports():
    assert set(simplexdyn.__all__) <= set(dir(simplexdyn))
    namespace: dict = {}
    exec("from simplexdyn import *", namespace)
    assert {name: namespace[name] for name in simplexdyn.__all__} == {
        name: getattr(simplexdyn, name) for name in simplexdyn.__all__}


def test_an_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError,
                       match="module 'simplexdyn' has no attribute 'no_such_name'"):
        simplexdyn.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from simplexdyn import no_such_name", {})


def test_python_dash_m_compiles_the_cli_once():
    # The oracle commands import from .cli; under `python -m` that must
    # find the running __main__ module, not import simplexdyn.cli again.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "simplexdyn.cli",
                           "verify", "--config", str(GOLDEN / "c10-regular.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    imported = [line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "simplexdyn.algebra" in imported and "simplexdyn.cli" not in imported
