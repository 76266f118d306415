"""CLI output pinned byte for byte: predict, cesaro and verify on fixed configs.

Each tests/golden/<name>.json config has one <name>.<command>.out file
per command that succeeds on it (a pure power has no Cesaro command).
The files hold the exact stdout; refresh one by rerunning the command
and reviewing the diff.
"""

from pathlib import Path

import pytest

from simplexdyn.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(path.name.removesuffix(".out") for path in GOLDEN.glob("*.out"))


def test_every_config_has_outputs():
    configs = {path.stem for path in GOLDEN.glob("*.json")}
    assert configs == {case.rsplit(".", 1)[0] for case in CASES}
    assert len(configs) == 6


@pytest.mark.parametrize("case", CASES)
def test_output_matches_golden(case, capsys):
    name, command = case.rsplit(".", 1)
    code = main([command, "--config", str(GOLDEN / f"{name}.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
