"""CLI output pinned byte for byte on fixed configs.

Each tests/golden/<name>.json config has one <name>.<command>.out file
per command pinned on it.  The six small configs pin predict, verify and
cesaro where it succeeds (a pure power has no Cesaro command); the S6
and C20xC20 configs, groups of order above 64, pin profile and predict.
c6-near-critical pins predict only, its exact fields built on the
extinction value 4999/5001; its verify FAILs the fixed-horizon series
oracles, which converge too slowly there.
The scalar shadow (CSV) is pinned on c6-irrational, c12-divergent (a
shifted series whose powers vanish below the truncation degree),
s4-supercritical and c20xc20-shifted, the float oracle trace
(iterate, CSV) on c6-irrational, and the power oracle (limit-set) on
c12-divergent (twelve point-mass rows in class order) and
s4-supercritical (one interior row in float decimals).  The files hold the exact stdout;
refresh one by rerunning the command and reviewing the diff.

In-process calls never finalize the interpreter, so two cases also run
as a CLI call does: main in a fresh process that writes no bytecode,
through interpreter exit.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import simplexdyn
from simplexdyn.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(path.name.removesuffix(".out") for path in GOLDEN.glob("*.out"))
ENTRY = "import sys; from simplexdyn.cli import main; sys.exit(main())"


def test_every_config_has_outputs():
    configs = {path.stem for path in GOLDEN.glob("*.json")}
    assert configs == {case.rsplit(".", 1)[0] for case in CASES}
    assert len(configs) == 9


@pytest.mark.parametrize("case", CASES)
def test_output_matches_golden(case, capsys):
    name, command = case.rsplit(".", 1)
    code = main([command, "--config", str(GOLDEN / f"{name}.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{case}.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("case", ["c10-regular.verify", "s6-odd-support.profile"])
def test_fresh_process_output_matches_golden(case):
    name, command = case.rsplit(".", 1)
    src = str(Path(simplexdyn.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", ENTRY, command, "--config", str(GOLDEN / f"{name}.json")],
        capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    assert proc.stdout == (GOLDEN / f"{case}.out").read_bytes()
