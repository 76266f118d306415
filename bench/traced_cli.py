"""Run the simplexdyn CLI with a span around every public function.

    python3 bench/traced_cli.py <simplexdyn arguments>

Each public function of a simplexdyn module is replaced by a timing
wrapper in every module that holds it by name (so predict's
reduce_to_stable, cli's profile and dynamics' multiply are all caught),
and in module-level dispatch tables.  Spans stay in memory and are
written as JSON at exit to the file named by BENCH_SPANS, tagged with
the operation id in BENCH_OP.  BENCH_SPAWN_NS is the parent's
time.monotonic_ns() just before it started this process, which dates
interpreter start plus import.

A span is [op, name, start_ns, end_ns, parent, tax_ns, counters].  The
tax is the time the wrapper spent computing counters after the span
closed; the aggregator subtracts it from the parent's self time.
"""

from __future__ import annotations

import atexit
import functools
import inspect
import json
import os
import sys
import time

import simplexdyn
import simplexdyn.cli
from simplexdyn.dynamics import DEFAULT_HORIZON
from simplexdyn.errors import InconclusiveError

IMPORT_DONE_NS = time.monotonic_ns()
OP = int(os.environ.get("BENCH_OP", "0"))
SPANS: list[list] = []
STACK: list[int] = []

CONSTRUCTORS = {"make_cyclic", "make_dihedral", "make_symmetric", "direct_product",
                "from_cayley_table", "read_cayley_csv"}


def _nnz(x) -> int:
    return sum(1 for c in x.coeffs if c)


def _count_multiply(args, kwargs, result, exc):
    x, y = args[0], args[1]
    n = x.group.order
    out = {"pairs": _nnz(x) * _nnz(y), "n2": n * n}
    if result is not None:
        out["den_bits"] = max(c.denominator.bit_length() for c in result.coeffs)
    return out


def _count_construct(args, kwargs, result, exc):
    return {"order": result.order} if result is not None else {}


def _count_series_trace(args, kwargs, result, exc):
    return {"steps": args[3] if len(args) > 3 else kwargs["n"]}


def _count_empirical(args, kwargs, result, exc):
    horizon = args[2] if len(args) > 2 else kwargs.get("horizon", DEFAULT_HORIZON)
    return {"steps": horizon - 1, "inconclusive": int(isinstance(exc, InconclusiveError))}


def _count_profile(args, kwargs, result, exc):
    x = args[0]
    return {"key": hash((x.group.order, x.coeffs))}


def _count_extinction(args, kwargs, result, exc):
    return {"key": hash(args[0].terms)}


def _count_regularity(args, kwargs, result, exc):
    return {"m": args[1]}


def _count_compose(args, kwargs, result, exc):
    p, state = args[0], args[1]
    k1 = state.truncation + 1
    per_step = k1 * k1 if state.mode == "float" else k1 * (k1 + 1) // 2
    return {"coeff_ops": p.degree * per_step}


COUNTERS = {
    "algebra.multiply": _count_multiply,
    "groups.construct": _count_construct,
    "algebra.series_trace": _count_series_trace,
    "dynamics.empirical_limit_set": _count_empirical,
    "dynamics.profile": _count_profile,
    "modm.extinction_fraction": _count_extinction,
    "modm.regularity_mod_m": _count_regularity,
    "series.compose": _count_compose,
}


def _wrap(name: str, fn):
    counter = COUNTERS.get(name)
    clock = time.perf_counter_ns

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec = [OP, name, 0, 0, STACK[-1] if STACK else -1, 0, None]
        STACK.append(len(SPANS))
        SPANS.append(rec)
        result = exc = None
        rec[2] = clock()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as err:
            exc = err
            raise
        finally:
            rec[3] = clock()
            STACK.pop()
            if counter is not None:
                rec[6] = counter(args, kwargs, result, exc)
                rec[5] = clock() - rec[3]

    return traced


def _span_name(fn) -> str:
    module = fn.__module__.rsplit(".", 1)[-1]
    if module == "groups" and fn.__name__ in CONSTRUCTORS:
        return "groups.construct"
    return f"{module}.{fn.__name__}"


def install() -> None:
    modules = [m for name, m in sys.modules.items()
               if name == "simplexdyn" or name.startswith("simplexdyn.")]
    wrapped = {}
    for mod in modules:
        for attr, value in vars(mod).items():
            if (inspect.isfunction(value) and value.__module__ == mod.__name__
                    and not attr.startswith("_")):
                wrapped[id(value)] = _wrap(_span_name(value), value)
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if id(value) in wrapped:
                setattr(mod, attr, wrapped[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in wrapped:
                        value[key] = wrapped[id(item)]
    cfg = simplexdyn.config.ExperimentConfig
    for attr in ("from_dict", "from_file"):
        fn = vars(cfg)[attr].__func__
        setattr(cfg, attr, classmethod(_wrap(f"config.{attr}", fn)))


def _dump() -> None:
    with open(os.environ["BENCH_SPANS"], "w", encoding="utf-8") as fh:
        json.dump({"op": OP,
                   "startup_ns": IMPORT_DONE_NS - int(os.environ["BENCH_SPAWN_NS"]),
                   "spans": SPANS}, fh)


if __name__ == "__main__":
    install()
    atexit.register(_dump)
    sys.exit(simplexdyn.cli.main(sys.argv[1:]))
