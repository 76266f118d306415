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
through its exit.  Called so, without argv, main ends the process itself
after the atexit callbacks and a flush of both streams; the last tests
pin that path's exit codes, streams, --out file and callbacks against
main(argv) in-process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import simplexdyn
from simplexdyn.algebra import AlgebraElement
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


def fresh_process(argv, code=ENTRY, **kwargs):
    """A CLI process running code on argv, without bytecode caches."""
    src = str(Path(simplexdyn.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, timeout=120, **kwargs)


@pytest.mark.parametrize("case", ["c10-regular.verify", "s6-odd-support.profile"])
def test_fresh_process_output_matches_golden(case):
    name, command = case.rsplit(".", 1)
    proc = fresh_process([command, "--config", str(GOLDEN / f"{name}.json")],
                         capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    assert proc.stdout == (GOLDEN / f"{case}.out").read_bytes()


def test_profile_predict_and_limit_set_never_build_the_dense_coefficients(
        monkeypatch, tmp_path, capsys):
    # AlgebraElement.coeffs is a view of |G| Fractions built on use; these
    # commands read the support alone, on the golden configs and on a
    # point mass of C2000 whose 2,000 cycle points would cost 4 million.
    def refuse(self):
        raise AssertionError("the dense coefficient tuple was built")

    monkeypatch.setattr(AlgebraElement, "coeffs", property(refuse))
    commands = ("profile", "predict", "limit-set")
    for case in CASES:
        name, command = case.rsplit(".", 1)
        if command in commands:
            assert main([command, "--config", str(GOLDEN / f"{name}.json")]) == 0
            assert capsys.readouterr().out == (GOLDEN / f"{case}.out").read_text(
                encoding="utf-8")
    config = tmp_path / "c2000-point-mass.json"
    config.write_text('{"group": {"kind": "cyclic", "n": 2000}, '
                      '"element": "point-mass:t^1", "series": {"3": "1/2", "7": "1/2"}}')
    outputs = {}
    for command in commands:
        assert main([command, "--config", str(config)]) == 0
        outputs[command] = json.loads(capsys.readouterr().out)
    assert outputs["profile"]["period"] == 2000
    assert len(outputs["limit-set"]["closed_form"]) == 2000
    assert outputs["limit-set"]["status"] == "ok"


@pytest.mark.parametrize("argv, code", [
    (["verify", "--config", str(GOLDEN / "c12-divergent.json"), "--horizon", "1"], 2),
    (["verify", "--config", str(GOLDEN / "c12-divergent.json"), "--horizon", "2"], 3),
    (["profile", "--config", str(GOLDEN / "absent.json")], 1),
    (["frobnicate", "--config", str(GOLDEN / "c10-regular.json")], 1),
    (["predict", "--config", str(GOLDEN / "c10-regular.json")], 0),
], ids=["inconclusive", "verify-failed", "missing-config", "unknown-command", "ok"])
def test_a_process_exits_as_main_argv_returns(argv, code, capsys):
    assert main(argv) == code
    captured = capsys.readouterr()
    proc = fresh_process(argv, capture_output=True)
    assert proc.returncode == code
    assert proc.stdout.decode() == captured.out
    assert proc.stderr.decode() == captured.err


def test_a_process_runs_the_atexit_callbacks_and_writes_its_out_file_whole(tmp_path):
    # Both callbacks print to stdout, which is flushed after them; they
    # run last registered first, as at interpreter exit.
    code = ("import atexit, sys\nimport simplexdyn.cli as cli\n"
            "atexit.register(print, 'registered before main')\n"
            "load = cli._load_config\n"
            "def _load_config(args):\n"
            "    atexit.register(print, 'registered during the command')\n"
            "    return load(args)\n"
            "cli._load_config = _load_config\n"
            "sys.exit(cli.main())\n")
    out = tmp_path / "trace.csv"
    proc = fresh_process(["scalar", "--config", str(GOLDEN / "c6-irrational.json"),
                          "--out", str(out)], code, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    assert proc.stdout == b"registered during the command\nregistered before main\n"
    assert out.read_bytes() == (GOLDEN / "c6-irrational.scalar.out").read_bytes()


def test_a_process_whose_reader_is_gone_reports_the_broken_pipe():
    read, write = os.pipe()
    os.close(read)
    try:
        proc = fresh_process(["predict", "--config", str(GOLDEN / "c10-regular.json")],
                             stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr == b"error: [Errno 32] Broken pipe\n"
