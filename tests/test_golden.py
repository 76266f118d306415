"""CLI output pinned byte for byte on fixed configs.

Each tests/golden/<name>.json config has one <name>.<command>.out file
per command pinned on it.  The six small configs pin predict, verify and
cesaro where it succeeds (a pure power has no Cesaro command); the S6
and C20xC20 configs, groups of order above 64, pin profile and predict.
The scalar shadow (CSV) is pinned on c6-irrational, c12-divergent (a
shifted series whose powers vanish below the truncation degree),
s4-supercritical and c20xc20-shifted, and the float oracle trace
(iterate, CSV) on c6-irrational.  The files hold the exact stdout;
refresh one by rerunning the command and reviewing the diff.
"""

from pathlib import Path

import pytest

from simplexdyn.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(path.name.removesuffix(".out") for path in GOLDEN.glob("*.out"))


def test_every_config_has_outputs():
    configs = {path.stem for path in GOLDEN.glob("*.json")}
    assert configs == {case.rsplit(".", 1)[0] for case in CASES}
    assert len(configs) == 8


@pytest.mark.parametrize("case", CASES)
def test_output_matches_golden(case, capsys):
    name, command = case.rsplit(".", 1)
    code = main([command, "--config", str(GOLDEN / f"{name}.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
