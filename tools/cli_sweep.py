"""Byte-identity sweep of the simplexdyn CLI.

    PYTHONPATH=src python3 tools/cli_sweep.py run OUT.json [--seeds 1,418,9001]
    python3 tools/cli_sweep.py compare A.json B.json

`run` calls simplexdyn.cli.main in-process on every operation and every
recorded-defect operation of each bench/workloads.py workload at each
seed, on all seven commands for every tests/golden config, on
`verify`, `cesaro` and `limit-set` for every golden config at each of
HORIZONS, and on `predict`, `verify` and `limit-set` for each
LARGE_QUOTIENT config, and on each USAGE command line, and writes
{case: [exit code, stdout, stderr]} to OUT.json.  At the default seeds
that is 484 cases.
simplexdyn is imported from sys.path, so PYTHONPATH picks the source
tree under test; the workloads and golden configs always come from
this checkout.  Configs are written to a temporary directory and passed
by relative path, so no output depends on where the sweep ran.  BLAS
runs one thread, as in bench/run.py.

`compare` prints each case whose exit code, stdout or stderr differs
between two sweeps, or that only one of them holds, and exits 1 if any.
A refactor that must not change behaviour shows no line here.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
COMMANDS = ("profile", "limit-set", "predict", "iterate", "cesaro", "scalar", "verify")
# Short horizons, where the regular oracle's subsequence classes and the
# Cesaro window's whole cycles run out, which the default horizons never
# reach, and two long ones.  No power oracle reads a horizon, so
# `limit-set` prints the same closed form and float rows at each of them.
HORIZONS = (1, 2, 3, 5, 7, 97, 1999)
# The generator of C513 has period 513, so these reach the quotient solve
# at modulus 513, above every benchmark config's: a shifted series with
# offset subgroup <3> (two cosets, d = 18) and t^3 (preperiod 2, d = 18).
# `limit-set` prints the 513 exact points of the generator's power cycle.
# {t^1, t^4} has return time 129, period 3 and a support group of order
# 171, so it takes one reduction step; its `verify` passes every line.
# 1/3 + 2/3 t^3 has the irrational extinction value (sqrt(3) - 1) / 2,
# a dyadic with denominator 2^65, so its limit carries the a-term at
# modulus 513 in large integers.
LARGE_QUOTIENT = {
    f"c513-{name}": {"group": {"kind": "cyclic", "n": 513},
                     "element": element, "series": series}
    for name, element, series in (
        ("shifted", "point-mass:t^1", {"2": "1/2", "5": "1/2"}),
        ("pure-power", "point-mass:t^1", "pure-power:3"),
        ("reduced", {"t^1": "1/2", "t^4": "1/2"}, {"2": "1/2", "5": "1/2"}),
        ("extinct", "point-mass:t^1", {"0": "1/3", "3": "2/3"}))}
# Command lines on one golden config that the parser refuses (exit 1),
# or answers with its usage text (exit 0).
USAGE = {
    "horizon-abc": ["profile", "--config", "golden/c10-regular.json", "--horizon", "abc"],
    "bogus-option": ["profile", "--config", "golden/c10-regular.json", "--bogus", "1"],
    "no-config": ["profile"],
    "help": ["profile", "--config", "golden/c10-regular.json", "--help"],
}


def _cases(seeds: list[int], work: Path):
    """(case name, argv) pairs; writes every config under work first."""
    sys.path.append(str(ROOT / "bench"))
    from workloads import WORKLOADS

    for name, build in WORKLOADS.items():
        for seed in seeds:
            built = build(seed)
            folder = work / f"{name}-{seed}"
            folder.mkdir()
            for cfg in built.configs:
                (folder / f"{cfg.name}.json").write_text(json.dumps(cfg.raw, indent=1))
            for kind, ops in (("op", built.ops), ("defect", built.defects)):
                for i, op in enumerate(ops):
                    path = f"{folder.name}/{op.config.name}.json"
                    yield (f"{name}:{seed}:{kind}{i:02d}:{op.cmd}:{op.config.name}",
                           [op.cmd, "--config", path, *op.args])
    (work / "golden").mkdir()
    for config in sorted(GOLDEN.glob("*.json")):
        (work / "golden" / config.name).write_bytes(config.read_bytes())
        for command in COMMANDS:
            yield (f"golden:{config.stem}:{command}",
                   [command, "--config", f"golden/{config.name}"])
        for command in ("verify", "cesaro", "limit-set"):
            for horizon in HORIZONS:
                yield (f"golden:{config.stem}:{command}:horizon{horizon}",
                       [command, "--config", f"golden/{config.name}",
                        "--horizon", str(horizon)])
    for name, raw in LARGE_QUOTIENT.items():
        (work / f"{name}.json").write_text(json.dumps(raw))
        for command in ("predict", "verify", "limit-set"):
            yield f"large:{name}:{command}", [command, "--config", f"{name}.json"]
    for name, argv in USAGE.items():
        yield f"usage:{name}", argv


def _call(main, argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # a source tree whose parser exits itself
            code = exc.code
        except Exception:
            # Recorded, so one crash does not end the sweep; without its
            # frames, whose file paths differ between source trees.
            code = "raised"
            traceback.print_exc(limit=0)
    return [code, out.getvalue(), err.getvalue()]


def run(out_path: Path, seeds: list[int]) -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from simplexdyn.cli import main

    results = {}
    start = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="cli-sweep-") as tmp:
        os.chdir(tmp)
        try:
            for case, argv in _cases(seeds, Path(tmp)):
                results[case] = _call(main, argv)
        finally:
            os.chdir(start)
    out_path.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    codes = sorted({str(r[0]) for r in results.values()})
    package = Path(sys.modules["simplexdyn"].__file__).parent
    print(f"{len(results)} cases of {package}, exit codes {', '.join(codes)}: {out_path}")
    return 0


def compare(a_path: Path, b_path: Path) -> int:
    a = json.loads(a_path.read_text())
    b = json.loads(b_path.read_text())
    differ = 0
    for case in sorted(a.keys() | b.keys()):
        if case not in a or case not in b:
            print(f"{case}: only in {a_path if case in a else b_path}")
        elif a[case] != b[case]:
            parts = [part for part, x, y in zip(("exit", "stdout", "stderr"), a[case], b[case])
                     if x != y]
            print(f"{case}: {', '.join(parts)} differ")
        else:
            continue
        differ += 1
    print(f"{differ} of {len(a.keys() | b.keys())} cases differ")
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="action", required=True)
    run_p = sub.add_parser("run", help="sweep the CLI and write the outputs")
    run_p.add_argument("out", type=Path)
    run_p.add_argument("--seeds", default="1,418,9001",
                       help="comma-separated workload seeds (default 1,418,9001)")
    cmp_p = sub.add_parser("compare", help="list the cases two sweeps differ on")
    cmp_p.add_argument("a", type=Path)
    cmp_p.add_argument("b", type=Path)
    args = parser.parse_args()
    if args.action == "run":
        return run(args.out, [int(s) for s in args.seeds.split(",")])
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
