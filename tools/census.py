"""Verdict census of `simplexdyn verify`: numbers to read, no gates.

    PYTHONPATH=src python3 tools/census.py [--configs N] [--seed S]

Draws N configs (default 1,000) at seed S (default 7) the way
tests/test_cli.py::test_verify_census_never_fails_a_closed_form draws its
150, so its first 150 are those: a group of the test zoo (cyclic of order
2-12, Klein, S3, D4), an element of 1-3 points and a series of 2-3 terms
at exponents 0..6, each with integer weights 1..20.  Every closed form is
right, so no config should exit 3.  Runs `verify --format json` in-process
on each and prints the count of each exit code, of each (line, verdict)
pair, and each config that exits 3 or 1.  simplexdyn is imported from
sys.path, so PYTHONPATH picks the source tree under test; the draws do not
depend on it.  BLAS runs one thread, as in bench/run.py.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import os
import random
import sys
import tempfile
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ZOO_SPECS = {**{f"cyclic-{n}": {"kind": "cyclic", "n": n} for n in range(2, 13)},
             "klein": {"kind": "product", "factors": [{"kind": "cyclic", "n": 2}] * 2},
             "sym-3": {"kind": "symmetric", "n": 3},
             "dihedral-4": {"kind": "dihedral", "n": 4}}
WEIGHT_MAX = 20


def _weights(rng: random.Random, keys: list[str]) -> dict[str, str]:
    """keys -> "w/total" for integer weights w in 1..WEIGHT_MAX."""
    weights = [rng.randint(1, WEIGHT_MAX) for _ in keys]
    return {key: f"{w}/{sum(weights)}" for key, w in zip(keys, weights)}


def configs(n: int, seed: int):
    from simplexdyn.config import build_group

    labels = {name: build_group(spec).labels for name, spec in ZOO_SPECS.items()}
    rng = random.Random(seed)
    for _ in range(n):
        name = rng.choice(sorted(ZOO_SPECS))
        element = _weights(rng, rng.sample(labels[name], min(len(labels[name]),
                                                             rng.randint(1, 3))))
        exponents = rng.sample(range(7), rng.randint(2, 3))
        yield {"group": ZOO_SPECS[name], "element": element,
               "series": _weights(rng, [str(e) for e in exponents])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--configs", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    from simplexdyn.cli import main as cli

    codes: collections.Counter = collections.Counter()
    lines: collections.Counter = collections.Counter()
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        for i, config in enumerate(configs(args.configs, args.seed)):
            path.write_text(json.dumps(config))
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli(["verify", "--config", str(path), "--format", "json"])
            codes[code] += 1
            if code in (0, 2, 3):
                checks = json.loads(out.getvalue())["checks"]
                lines.update((c["name"], c["status"]) for c in checks)
            if code in (1, 3):
                print(f"config {i} exits {code}: {json.dumps(config)}")
    elapsed = time.perf_counter() - start
    print(f"{args.configs} configs at seed {args.seed} in {elapsed:.1f} s; exit codes: "
          + ", ".join(f"{code}: {codes[code]}" for code in sorted(codes)))
    for (name, status), count in sorted(lines.items()):
        print(f"{name:26} {status:12} {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
