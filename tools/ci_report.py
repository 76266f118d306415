"""Cost report of the simplexdyn source tree: numbers to read, no gates.

    python3 tools/ci_report.py

Prints, for the src/ tree of this checkout:
- import cost: for scalar, profile and verify, the modules loaded, their
  lines and the median wall time of 5 processes without bytecode caches
  (src/simplexdyn/__pycache__ is removed first);
- one S6 profile call's wall time next to a bare `import numpy`, and its
  peak RSS next to a bare `import simplexdyn.cli` (median of 5 processes);
- one S4 verify call at 10,000 and 100,000 steps: its orbit repeats
  within a few hundred steps, so the longer horizon should cost time for
  the Cesaro window only, and no memory (median of 3 processes);
- the line count of src/ (ROADMAP aim 2) and the number of exported names;
- group construction: in-process min of 5 builds, and the tracemalloc
  peak of one C2000 and one S6 build.

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
CLI = [sys.executable, "-m", "simplexdyn.cli"]
LOADED = ("import sys\nfrom simplexdyn.cli import main\nmain(sys.argv[1:])\n"
          "mods = [m for n, m in sys.modules.items() if n.startswith('simplexdyn.')]\n"
          "lines = sum(len(open(m.__file__).readlines()) for m in mods)\n"
          "names = ' '.join(sorted(m.__name__.partition('.')[2] for m in mods))\n"
          "print(f'{len(mods)} modules, {lines} lines: {names}', file=sys.stderr)\n")


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
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c12-divergent-series.json"
        path.write_text(json.dumps(series_only))
        for argv in (["scalar", "--config", str(path)],
                     ["profile", "--config", str(GOLDEN / "s6-odd-support.json")],
                     ["verify", "--config", str(GOLDEN / "c10-regular.json")]):
            wall, _, _ = fresh([*CLI, *argv], 5, env)
            loaded = subprocess.run([sys.executable, "-c", LOADED, *argv], env=env,
                                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                    text=True, check=True).stderr.strip()
            print(f"{argv[0]:8} {wall:.3f} s (median of 5), {loaded}")


def source_size() -> None:
    import simplexdyn

    lines = sum(len(p.read_text().splitlines()) for p in (SRC / "simplexdyn").glob("*.py"))
    print(f"{lines} lines in src/, {len(simplexdyn.__all__)} exported names")


def group_construction() -> None:
    from simplexdyn import make_cyclic, make_symmetric

    for name, build in [("make_symmetric(6)", lambda: make_symmetric(6)),
                        ("make_cyclic(500)", lambda: make_cyclic(500)),
                        ("make_cyclic(2000)", lambda: make_cyclic(2000))]:
        times = []
        for _ in range(5):
            start = time.perf_counter()
            build()
            times.append(time.perf_counter() - start)
        print(f"{name:18} {1e3 * min(times):7.1f} ms (min of 5)")
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


def main() -> int:
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))
    # The sections that import the package in this process come last: a
    # child's ru_maxrss counts the pages it shares with this process at fork.
    for section in (import_cost, cli_call, oracle_memory, source_size, group_construction):
        print(f"## {section.__name__.replace('_', ' ')}", flush=True)
        try:
            section()
        except Exception as exc:  # one section's failure must not hide the rest
            print(f"failed: {exc!r}")
        sys.stdout.flush()  # before the next section's children write to stderr
    return 0


if __name__ == "__main__":
    sys.exit(main())
