"""simplexdyn benchmark: a closed-loop, single-client load generator.

    python3 bench/run.py --workload dense-exact --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 25

Each operation is one `simplexdyn <command> --config <file>` run in a
fresh Python process, which is what a CLI user pays for: interpreter
start, import, and no cache carried over from an earlier run.  Every
timed process runs between two speed probes (start Python, import numpy)
and its time is reported scaled by PROBE_REF_S / (mean probe time), which
cancels the drift in machine speed that adjacent processes share.  The
workload (bench/workloads.py) is a fixed pass of operations drawn from
--seed; whole passes repeat until about --seconds have elapsed and at
least MIN_SAMPLES operations have completed.  Every output is checked
against bench/reference.py, which does not import the program.  The
operations whose seed outcome is a recorded defect (bench/metric_map.json
"seed_defects") run once after the timed passes: they are checked, printed
and counted in fail_frac and inconclusive_frac, but not in the result
line's correct and failed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced passes (bench/traced_cli.py) and reports
the per-layer metrics, per pass, plus the tracing overhead.  --all runs
both, one after the other, for every workload and prints one row per
workload and the per-layer table.  The last line of standard output is
always one JSON object.  Scratch files go to .bench_work/ under the
checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from checks import check  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

MIN_SAMPLES = 40          # op_tail_s is p75: at least 10 samples beyond it
TAIL_Q = 0.75
SETUP_REPS = 3
OP_TIMEOUT_S = 45
HARD_STOP_S = 100         # stop starting operations after this, whatever else
BLAS_THREADS = "1"        # pinned for every child: a 1-vector matmul gains nothing
COMMANDS = ("profile", "limit-set", "predict", "verify", "scalar")
HELD_OUT_SEED = json.loads((BENCH / "metric_map.json").read_text())["held_out_seed"]

# Speed probe: a process that starts Python and imports numpy, nothing of
# simplexdyn.  Probes run between timed processes; the machine's speed
# drifts over seconds (shared host) and adjacent processes drift together,
# so each time is reported as measured * PROBE_REF_S / (mean of the probes
# just before and just after it).
PROBE_CODE = "import numpy\n"
PROBE_REF_S = 0.2

CLI_CODE = "import sys\nfrom simplexdyn.cli import main\nsys.exit(main())\n"
SETUP_CODE = ("import sys\nfrom simplexdyn import ExperimentConfig\n"
              "for path in sys.argv[1:]:\n    ExperimentConfig.from_file(path)\n"
              "import numpy\nprint(numpy.__version__)\n")


class Runner:
    """Runs child processes of one benchmark invocation inside a work dir."""

    def __init__(self, work: Path):
        self.work = work
        self.last_probe: float | None = None
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = BLAS_THREADS

    def probed(self, argv: list[str], out: Path, extra_env: dict | None = None,
               stamp: bool = False):
        """spawn() between two speed probes; adds (normalized seconds, probe seconds)."""
        before = self.last_probe if self.last_probe is not None else self._probe()
        code, elapsed, rss = self.spawn(argv, out, extra_env, stamp)
        self.last_probe = self._probe()
        probe = (before + self.last_probe) / 2
        return code, elapsed, rss, elapsed * PROBE_REF_S / probe, probe

    def _probe(self) -> float:
        return self.spawn([sys.executable, "-c", PROBE_CODE], self.work / "probe.txt")[1]

    def spawn(self, argv: list[str], out: Path, extra_env: dict | None = None,
              stamp: bool = False):
        """Run argv to completion; returns (exit code, seconds, max RSS in MB).

        With stamp, the child gets BENCH_SPAWN_NS = time.monotonic_ns() at spawn.
        """
        env = dict(self.env, **(extra_env or {}))
        with open(out, "wb") as fh, open(self.work / "stderr.txt", "ab") as err:
            start = time.perf_counter()
            if stamp:
                env["BENCH_SPAWN_NS"] = str(time.monotonic_ns())
            proc = subprocess.Popen(argv, stdout=fh, stderr=err, env=env, cwd=self.work)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - start
        return proc.returncode, elapsed, usage.ru_maxrss / 1024.0


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Workload:
    def __init__(self, name: str, seed: int, runner: Runner):
        built = WORKLOADS[name](seed)
        self.ops: list[Op] = built.ops
        self.defects: list[Op] = built.defects
        self.runner = runner
        cfg_dir = runner.work / "configs"
        cfg_dir.mkdir()
        self.paths = {}
        for cfg in built.configs:
            path = cfg_dir / f"{cfg.name}.json"
            path.write_text(json.dumps(cfg.raw, indent=1))
            self.paths[cfg.name] = path
        # (op index, exit code, output) -> (outcome, detail): each output is checked once
        self.outcomes: dict[tuple[int, int, str], tuple[str, str]] = {}

    def setup(self) -> tuple[list[float], str]:
        """SETUP_REPS fresh processes that import and build every config."""
        times, numpy_version = [], "?"
        out = self.runner.work / "setup.txt"
        argv = [sys.executable, "-c", SETUP_CODE, *map(str, self.paths.values())]
        for _ in range(SETUP_REPS):
            code, _, _, normalized, _ = self.runner.probed(argv, out)
            if code != 0:
                raise RuntimeError(f"set-up process exited {code}")
            times.append(normalized)
            numpy_version = out.read_text().strip()
        return times, numpy_version

    def run_defects(self) -> list[dict]:
        """Each recorded seed-defect operation once, untimed, checked like any other."""
        out = self.runner.work / "out.txt"
        records = []
        for op in self.defects:
            cli = [op.cmd, "--config", str(self.paths[op.config.name]), *op.args]
            code, _, _ = self.runner.spawn([sys.executable, "-c", CLI_CODE, *cli], out)
            outcome, detail = check(op, code, out.read_text(encoding="utf-8", errors="replace"))
            records.append({"op": "-", "cmd": op.cmd, "config": op.config.name,
                            "outcome": outcome, "detail": detail})
        return records

    def run_op(self, index: int, op: Op, traced: bool):
        out = self.runner.work / "out.txt"
        cli = [op.cmd, "--config", str(self.paths[op.config.name]), *op.args]
        if traced:
            spans = self.runner.work / f"spans-{index}.json"
            argv = [sys.executable, str(BENCH / "traced_cli.py"), *cli]
            extra = {"BENCH_SPANS": str(spans), "BENCH_OP": str(index)}
        else:
            argv, extra = [sys.executable, "-c", CLI_CODE, *cli], None
        code, elapsed, rss, normalized, probe = self.runner.probed(argv, out, extra, traced)
        text = out.read_text(encoding="utf-8", errors="replace")
        key = (index % len(self.ops), code, text)
        if key not in self.outcomes:
            self.outcomes[key] = check(op, code, text)
        outcome, detail = self.outcomes[key]
        record = None
        if traced and spans.exists():
            record = json.loads(spans.read_text())
            spans.unlink()
        return {"op": index % len(self.ops), "cmd": op.cmd, "config": op.config.name,
                "code": code, "latency": normalized, "raw": elapsed, "probe": probe,
                "rss": rss, "outcome": outcome, "detail": detail,
                "out_bytes": len(text.encode()), "spans": record}


def run_passes(wl: Workload, seconds: float, traced_pairs: bool):
    """Whole untraced passes (or untraced/traced pass pairs) until the budget is spent.

    A run stops at a pass boundary once another pass would end more than
    half a pass past --seconds, so every run holds whole passes only and
    each command has the same number of samples in each pass.
    """
    start = time.perf_counter()
    samples, passes, traced_samples, traced_passes = [], [], [], []
    index = 0

    def stop() -> bool:
        elapsed = time.perf_counter() - start
        done = traced_passes if traced_pairs else passes
        if elapsed >= HARD_STOP_S:
            return True
        if not done or len(samples) < (0 if traced_pairs else MIN_SAMPLES):
            return False
        return elapsed + elapsed / len(done) / 2 >= seconds

    while not stop():
        for traced in ((False, True) if traced_pairs else (False,)):
            current = []
            for op in wl.ops:
                if time.perf_counter() - start >= HARD_STOP_S:
                    break
                current.append(wl.run_op(index, op, traced))
                index += 1
            (traced_samples if traced else samples).extend(current)
            if len(current) == len(wl.ops):
                (traced_passes if traced else passes).append(sum(s["latency"] for s in current))
    return samples, passes, traced_samples, traced_passes


def end_to_end(samples, passes, setup_times, defects) -> dict[str, tuple[float, int]]:
    """metric -> (value, sample count).

    fail_frac and inconclusive_frac count the seed-defect operations too.
    """
    lat = [s["latency"] for s in samples]
    out = {
        "wall_s": (statistics.median(passes), len(passes)),
        "op_p50_s": (statistics.median(lat), len(lat)),
        "op_tail_s": (_quantile(lat, TAIL_Q), len(lat)),
        "peak_rss_mb": (max(s["rss"] for s in samples), len(samples)),
        "setup_s": (statistics.median(setup_times), len(setup_times)),
    }
    for cmd in COMMANDS:
        vals = [s["latency"] for s in samples if s["cmd"] == cmd]
        if vals:
            out[f"{cmd.replace('-', '_')}_p50_s"] = (statistics.median(vals), len(vals))
    attempted = samples + defects
    n = len(attempted)
    out["fail_frac"] = (sum(s["outcome"] == "fail" for s in attempted) / n, n)
    out["inconclusive_frac"] = (sum(s["outcome"] == "inconclusive" for s in attempted) / n, n)
    return out


def _self_times(spans: list[list]) -> list[float]:
    """Self time (s) of each span: duration minus its children and their tax."""
    own = [(s[3] - s[2]) for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= (s[3] - s[2]) + s[5]
    return [v / 1e9 for v in own]


def per_layer(traced_samples, traced_passes, untraced_passes,
              declared: list[str]) -> dict[str, tuple[float, int]]:
    """Per-pass totals of every span name, plus the derived layer metrics.

    A declared span that never opened reads 0 calls and 0 s.
    """
    npass = len(traced_passes)
    calls, self_s = defaultdict(int), defaultdict(float)
    for metric in declared:
        span, _, stat = metric.rpartition(".")
        if stat in ("calls", "self_s") and span != "cli":
            calls[span] += 0
    sums, maxes = defaultdict(float), defaultdict(float)
    distinct = defaultdict(int)
    startup = []
    out_bytes = 0
    for sample in traced_samples:
        out_bytes += sample["out_bytes"]
        record = sample["spans"]
        if record is None:
            continue
        startup.append(record["startup_ns"] / 1e9)
        spans = record["spans"]
        keys = defaultdict(set)
        for span, own in zip(spans, _self_times(spans)):
            name, counters = span[1], span[6]
            calls[name] += 1
            self_s[name] += own
            for key, value in (counters or {}).items():
                if key == "key":
                    keys[name].add(value)
                elif key in ("den_bits", "m"):
                    maxes[f"{name}.{key}"] = max(maxes[f"{name}.{key}"], value)
                else:
                    sums[f"{name}.{key}"] += value
        for name, seen in keys.items():
            distinct[name] += len(seen)
    metrics: dict[str, tuple[float, int]] = {}
    for name in sorted(calls):
        metrics[f"{name}.calls"] = (calls[name] / npass, calls[name])
        metrics[f"{name}.self_s"] = (self_s[name] / npass, calls[name])
    mult = "algebra.multiply"
    metrics[f"{mult}.pairs"] = (sums[f"{mult}.pairs"] / npass, calls[mult])
    metrics[f"{mult}.density"] = (sums[f"{mult}.pairs"] / sums[f"{mult}.n2"]
                                  if sums[f"{mult}.n2"] else 0.0, calls[mult])
    metrics[f"{mult}.den_bits_max"] = (maxes[f"{mult}.den_bits"], calls[mult])
    metrics["groups.construct.order_sum"] = (sums["groups.construct.order"] / npass,
                                             calls["groups.construct"])
    metrics["algebra.series_trace.steps"] = (sums["algebra.series_trace.steps"] / npass,
                                             calls["algebra.series_trace"])
    emp = "dynamics.empirical_limit_set"
    metrics[f"{emp}.steps"] = (sums[f"{emp}.steps"] / npass, calls[emp])
    metrics[f"{emp}.inconclusive"] = (sums[f"{emp}.inconclusive"] / npass, calls[emp])
    metrics["modm.regularity_mod_m.m_max"] = (maxes["modm.regularity_mod_m.m"],
                                              calls["modm.regularity_mod_m"])
    metrics["series.compose.coeff_ops"] = (sums["series.compose.coeff_ops"] / npass,
                                           calls["series.compose"])
    for name in ("dynamics.profile", "modm.extinction_fraction"):
        metrics[f"{name}.distinct_ratio"] = (distinct[name] / calls[name] if calls[name] else 0.0,
                                             calls[name])
    cli = [n for n in calls if n.startswith("cli.")]
    metrics["cli.self_s"] = (sum(self_s[n] for n in cli) / npass, sum(calls[n] for n in cli))
    metrics["cli.out_bytes"] = (out_bytes / npass, len(traced_samples))
    metrics["process.startup_s"] = (statistics.median(startup), len(startup))
    metrics["trace_overhead_frac"] = (sum(traced_passes) / sum(untraced_passes[:npass]) - 1,
                                      npass)
    return metrics


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.exists() else ref[5:]
    return ref


def metadata(numpy_version: str) -> dict:
    return {"src_lines": _src_lines(), "python": platform.python_version(),
            "numpy": numpy_version, "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS, "commit": _commit()}


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    runner = Runner(work)
    wl = Workload(name, seed, runner)
    setup_times, numpy_version = wl.setup()
    samples, passes, traced_samples, traced_passes = run_passes(wl, seconds, trace)
    if not passes or (trace and not traced_passes):
        raise RuntimeError(f"no complete pass within {HARD_STOP_S} s")
    defects = wl.run_defects()
    return {
        "workload": name, "seed": seed, "meta": metadata(numpy_version),
        "e2e": end_to_end(samples, passes, setup_times, defects),
        "layers": (per_layer(traced_samples, traced_passes, passes,
                             [m["name"] for m in _declared()["per_layer"]]) if trace else {}),
        "samples": samples + traced_samples,
        "defects": defects,
    }


def problems(result: dict) -> list[str]:
    """One line per distinct failed or inconclusive operation, seed defects included."""
    seen, lines = set(), []
    for s in result["samples"] + result["defects"]:
        key = (s["op"], s["outcome"], s["detail"])
        if s["outcome"] != "ok" and key not in seen:
            seen.add(key)
            where = "seed defect" if s["op"] == "-" else f"op {s['op']:2d}"
            lines.append(f"  {s['outcome']:12s} {where:11s} {s['cmd']:9s} "
                         f"{s['config']}: {s['detail']}")
    return lines


def print_workload(result: dict, declared: dict, trace: bool) -> None:
    print(f"# workload {result['workload']}  seed {result['seed']}  "
          f"held-out seed {HELD_OUT_SEED}")
    print("# meta " + json.dumps(result["meta"], sort_keys=True))
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    units.update(fail_frac="frac", inconclusive_frac="frac")
    table = result["layers"] if trace else result["e2e"]
    print(f"{'metric':44s} {'value':>14s} {'unit':>6s} {'samples':>8s}")
    for metric, (value, count) in table.items():
        print(f"{metric:44s} {_fmt(value):>14s} {units.get(metric, '-'):>6s} {count:8d}")
    if not trace:
        untraced = [x for x in result["samples"] if x["spans"] is None]
        print(f"# speed probe median {_fmt(statistics.median(x['probe'] for x in untraced))} s; "
              f"unnormalized op p50 {_fmt(statistics.median(x['raw'] for x in untraced))} s; "
              f"times above are scaled by {PROBE_REF_S} s / probe")
    for line in problems(result) or ["  (none)"]:
        print("# not ok:" + line)


def final_json(result: dict, declared: dict, trace: bool) -> dict:
    wanted = declared["per_layer"] if trace else declared["end_to_end"]
    table = result["layers"] if trace else result["e2e"]
    metrics = {}
    for m in wanted:
        if m["name"] not in table:
            raise RuntimeError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": table[m["name"]][0], "unit": m["unit"]}
    samples = result["samples"]
    failed = sum(s["outcome"] == "fail" for s in samples)
    return {"correct": failed == 0, "attempted": len(samples), "failed": failed,
            "metrics": metrics}


def print_all(results: list[dict], declared: dict) -> None:
    print(f"# all workloads  seed {results[0]['seed']}  held-out seed {HELD_OUT_SEED}")
    print("# meta " + json.dumps(results[0]["meta"], sort_keys=True))
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    units.update(fail_frac="frac", inconclusive_frac="frac")
    print("# end-to-end, one row per workload: value (samples)")
    print(f"{'workload':14s} " + " ".join(f"{f'{n}[{u}]':>22s}" for n, u in units.items()))
    for r in results:
        cells = [f"{_fmt(r['e2e'][n][0])} ({r['e2e'][n][1]})" for n in units]
        print(f"{r['workload']:14s} " + " ".join(f"{c:>22s}" for c in cells))
    print("# per layer, traced run, per pass")
    print(f"{'metric':44s} {'unit':>6s} " + " ".join(f"{r['workload']:>14s}" for r in results))
    for m in declared["per_layer"]:
        print(f"{m['name']:44s} {m['unit']:>6s} "
              + " ".join(f"{_fmt(r['layers'][m['name']][0]):>14s}" for r in results))
    for r in results:
        for line in problems(r):
            print(f"# not ok in {r['workload']}:{line}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload, traced and not")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "simplexdyn" / "cli.py").is_file():
        print(f"error: no simplexdyn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.all and not args.workload:
        parser.error("give --workload or --all")
    declared = _declared()
    work_root = ROOT / ".bench_work"
    work = work_root / f"{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.all:
            results = []
            for name in WORKLOADS:
                (work / name).mkdir()
                (work / f"{name}-traced").mkdir()
                result = run_workload(name, args.seed, args.seconds, False, work / name)
                result["layers"] = run_workload(name, args.seed, args.seconds, True,
                                                work / f"{name}-traced")["layers"]
                results.append(result)
            print_all(results, declared)
            print(json.dumps({r["workload"]: final_json(r, declared, False) for r in results}))
            return 0
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
        print_workload(result, declared, bool(args.trace))
        print(json.dumps(final_json(result, declared, bool(args.trace))))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work_root.exists() and not any(work_root.iterdir()):
            work_root.rmdir()


if __name__ == "__main__":
    sys.exit(main())
