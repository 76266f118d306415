"""Cost report of the simplexdyn source tree: numbers to read, no gates.

    python3 tools/ci_report.py

Prints, for the src/ tree of this checkout:
- import cost: for scalar, profile, predict, limit-set and verify, the
  modules loaded, their lines, the time to compile their sources (the
  in-process min of COMPILE_RUNS passes of compile() over them), the
  median wall time and peak RSS of 5 processes without bytecode caches
  (src/simplexdyn/__pycache__ is removed first), and the
  standard-library modules the command loads beyond a bare `import numpy`;
- one S6 profile call's wall time next to a bare `import numpy`, and its
  peak RSS next to a bare `import simplexdyn.cli` (median of 5 processes);
- one S4 verify call at 10,000 and 100,000 steps: its orbit repeats
  within a few hundred steps, so the longer horizon should cost time for
  the Cesaro window only, and no memory (median of 3 processes);
- one limit-set call on a D60 pair and one on a C2000 pair, whose float
  powers approach their cycle slowly (the C2000 walk's second eigenvalue
  is about 1 - 2e-5): the power oracle squares x^|G| to the idempotent
  and reads no horizon (median of 3 processes);
- one C6 scalar call at 200 and 20,000 steps: the trace keeps no state,
  so the longer horizon should cost time and only its output rows in
  memory (median of 3 processes);
- the line count of src/ (ROADMAP aim 2), the number of exported names,
  and the knobs a user can turn: CLI options and config fields;
- group construction: the peak RSS of a fresh process that builds S6 and
  of one that builds C2000, next to a bare `import simplexdyn.cli` (median
  of 5 processes; the benchmark gates RSS, which tracemalloc does not
  predict); in-process min of 5 builds with each table's dtype and bytes,
  and the tracemalloc peak of one C2000 and one S6 build.

Each section that fails prints its error and the report goes on; the
exit code is always 0.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
# The console script's entry point.  Under `python -m simplexdyn.cli` the
# oracle commands would import simplexdyn.cli a second time.
CLI = [sys.executable, "-c", "import sys\nfrom simplexdyn.cli import main\nsys.exit(main())\n"]
COMPILE_RUNS = 30
# Two slowly mixing pairs for the power oracle of limit-set.
SLOW_PAIRS = {
    "d60-pair": {"group": {"kind": "dihedral", "n": 30}, "element": {"r1": "1/2", "s0": "1/2"}},
    "c2000-pair": {"group": {"kind": "cyclic", "n": 2000},
                   "element": {"t^1": "1/2", "t^5": "1/2"}},
}
# Prints the standard-library modules loaded so far, on one line of stderr.
STDLIB = ("print(*sorted(n for n in sys.modules\n"
          "              if n.partition('.')[0] in sys.stdlib_module_names), file=sys.stderr)\n")
LOADED = ("import sys, time\nfrom simplexdyn.cli import main\nmain(sys.argv[1:])\n"
          "mods = [m for n, m in sys.modules.items() if n.startswith('simplexdyn.')]\n"
          "sources = [(open(m.__file__).read(), m.__file__) for m in mods]\n"
          "lines = sum(len(text.splitlines()) for text, _ in sources)\n"
          "def compile_all():\n"
          "    start = time.perf_counter()\n"
          "    for text, path in sources:\n"
          "        compile(text, path, 'exec')\n"
          "    return time.perf_counter() - start\n"
          f"best = min(compile_all() for _ in range({COMPILE_RUNS}))\n"
          "names = ' '.join(sorted(m.__name__.partition('.')[2] for m in mods))\n"
          "print(f'{len(mods)} modules, {lines} lines, compiled in {1e3 * best:.1f} ms "
          f"(min of {COMPILE_RUNS}): {{names}}', file=sys.stderr)\n" + STDLIB)


def stderr_of(code: str, argv: list[str], env: dict) -> str:
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, check=True).stderr


def fresh(argv: list[str], runs: int, env: dict | None = None) -> tuple[float, float, int]:
    """Median wall time (s) and peak RSS (MB, ru_maxrss from os.wait4) of
    runs fresh processes of argv, and the exit code of the last."""
    times, peaks = [], []
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        times.append(time.perf_counter() - start)
        peaks.append(usage.ru_maxrss / 1024)
    return statistics.median(times), statistics.median(peaks), os.waitstatus_to_exitcode(status)


def import_cost() -> None:
    # scalar reads a series-only copy of a golden config, as an element
    # would load algebra.
    shutil.rmtree(SRC / "simplexdyn" / "__pycache__", ignore_errors=True)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    series_only = json.loads((GOLDEN / "c12-divergent.json").read_text())
    del series_only["element"]
    numpy_stdlib = set(stderr_of("import sys, numpy\n" + STDLIB, [], env).split())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c12-divergent-series.json"
        path.write_text(json.dumps(series_only))
        for argv in (["scalar", "--config", str(path)],
                     ["profile", "--config", str(GOLDEN / "s6-odd-support.json")],
                     ["predict", "--config", str(GOLDEN / "c10-regular.json")],
                     ["limit-set", "--config", str(GOLDEN / "c10-regular.json")],
                     ["verify", "--config", str(GOLDEN / "c10-regular.json")]):
            wall, peak, _ = fresh([*CLI, *argv], 5, env)
            loaded, stdlib = stderr_of(LOADED, argv, env).strip().split("\n")
            extra = " ".join(sorted(set(stdlib.split()) - numpy_stdlib)) or "none"
            print(f"{argv[0]:9} {wall:.3f} s, {peak:.1f} MB peak RSS (median of 5), {loaded}")
            print(f"{'':9} standard library beyond `import numpy`: {extra}")


def source_size() -> None:
    import simplexdyn
    from simplexdyn.cli import _OPTIONS
    from simplexdyn.config import ExperimentConfig

    lines = sum(len(p.read_text().splitlines()) for p in (SRC / "simplexdyn").glob("*.py"))
    print(f"{lines} lines in src/, {len(simplexdyn.__all__)} exported names, "
          f"{len(_OPTIONS)} CLI options, {len(ExperimentConfig._fields)} config fields")


def group_construction() -> None:
    # The fresh processes run before this one imports numpy (see main).
    for name, code in [("import simplexdyn.cli", ""),
                       ("make_symmetric(6)", "make_symmetric(6)\n"),
                       ("make_cyclic(2000)", "make_cyclic(2000)\n")]:
        code = ("import simplexdyn.cli\n"
                "from simplexdyn.groups import make_cyclic, make_symmetric\n" + code)
        _, peak, _ = fresh([sys.executable, "-c", code], 5)
        print(f"{name:21} {peak:5.1f} MB peak RSS of a fresh process (median of 5)")

    from simplexdyn import make_cyclic, make_symmetric

    for name, build in [("make_symmetric(6)", lambda: make_symmetric(6)),
                        ("make_cyclic(500)", lambda: make_cyclic(500)),
                        ("make_cyclic(2000)", lambda: make_cyclic(2000))]:
        times = []
        for _ in range(5):
            start = time.perf_counter()
            table = build().table
            times.append(time.perf_counter() - start)
        print(f"{name:18} {1e3 * min(times):7.1f} ms (min of 5), "
              f"{table.dtype} table of {table.nbytes / 1e6:.2f} MB")
    for name, build in [("make_cyclic(2000)", lambda: make_cyclic(2000)),
                        ("make_symmetric(6)", lambda: make_symmetric(6))]:
        tracemalloc.start()
        build()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(f"{name:18} {peak / 1e6:7.1f} MB tracemalloc peak")


def cli_call() -> None:
    wall, peak, _ = fresh([*CLI, "profile", "--config", str(GOLDEN / "s6-odd-support.json")], 5)
    numpy, _, _ = fresh([sys.executable, "-c", "import numpy"], 5)
    _, floor, _ = fresh([sys.executable, "-c", "import simplexdyn.cli"], 5)
    print(f"simplexdyn profile s6-odd-support: {wall:.3f} s, {peak:.1f} MB peak RSS (median of 5)")
    print(f"python -c 'import numpy':          {numpy:.3f} s (median of 5)")
    print(f"python -c 'import simplexdyn.cli': {floor:.1f} MB peak RSS (median of 5)")


def oracle_memory() -> None:
    for horizon in ("10000", "100000"):
        wall, peak, code = fresh([*CLI, "verify", "--config", str(GOLDEN / "s4-supercritical.json"),
                                  "--horizon", horizon], 3)
        print(f"simplexdyn verify s4-supercritical --horizon {horizon:>6}: "
              f"{wall:.3f} s, {peak:.1f} MB peak RSS (median of 3, exit {code})")
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in SLOW_PAIRS.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(config))
            wall, peak, code = fresh([*CLI, "limit-set", "--config", str(path)], 3)
            print(f"{'simplexdyn limit-set ' + name + ':':52} "
                  f"{wall:.3f} s, {peak:.1f} MB peak RSS (median of 3, exit {code})")


def scalar_trace() -> None:
    for horizon in ("200", "20000"):
        wall, peak, code = fresh([*CLI, "scalar", "--config", str(GOLDEN / "c6-irrational.json"),
                                  "--horizon", horizon], 3)
        print(f"simplexdyn scalar c6-irrational --horizon {horizon:>5}: "
              f"{wall:.3f} s, {peak:.1f} MB peak RSS (median of 3, exit {code})")


def main() -> int:
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))
    # The sections that import the package in this process come last: a
    # child's ru_maxrss counts the pages it shares with this process at fork.
    for section in (import_cost, cli_call, oracle_memory, scalar_trace, group_construction,
                    source_size):
        print(f"## {section.__name__.replace('_', ' ')}", flush=True)
        try:
            section()
        except Exception as exc:  # one section's failure must not hide the rest
            print(f"failed: {exc!r}")
        sys.stdout.flush()  # before the next section's children write to stderr
    return 0


if __name__ == "__main__":
    sys.exit(main())
