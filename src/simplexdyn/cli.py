"""Batch experiment runner.

Subcommands: profile | limit-set | predict | iterate | cesaro | scalar |
verify.  Each reads a JSON config (see config.py) naming a group, a
starting element and/or a series, runs the requested computation, and
writes JSON or CSV to --out or stdout, a trace a batch of rows at a time.

Exit codes: 0 success or -h/--help, 1 invalid input or command line, 2
inconclusive numerics (iteration budget exhausted before the tolerance
was met), 3 verification failure (an oracle contradicted a closed form).

Every command runs in a fresh process, which compiles each module it
imports when no bytecode cache is at hand.  So this module imports only
the standard library, config and errors at its top, main imports the
module of a command's handler when the command runs, and each handler
imports the modules it runs in its own body.  profile loads algebra and
dynamics, predict also modm and predict, and scalar series (config loads
groups, poly and record, and algebra for an element).  The handlers of
limit-set, iterate, cesaro and verify live with the float oracles in
oracles.py, which no other command loads; only verify loads series.
parse_args reads the command line: argparse, with the gettext and
locale it loads, cost each process 4-7 ms and 0.5 MB.

main() is the process entry point.  Its first act is gc.freeze(): every
object alive by then, numpy and this package's top-level imports
included, moves into the collector's permanent generation, so neither
the collections during the command nor the full ones at interpreter exit
traverse it again.  The collector stays enabled; what the command itself
allocates, and the modules it imports, are collected as usual.  Those
modules add about 0.3 ms to a full collection, and a second freeze after
them gained nothing measurable, so main() freezes once.
"""

from __future__ import annotations

import gc
import importlib
import itertools
import json
import sys
from functools import partial
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, Iterator

from .config import ConfigError, ExperimentConfig, read_config
from .errors import InconclusiveError, InternalConsistencyError

if TYPE_CHECKING:
    from .dynamics import DynamicsProfile
    from .predict import LimitReport

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INCONCLUSIVE = 2
EXIT_VERIFY_FAILED = 3
DEFAULT_SCALAR_HORIZON = 200


def _decimal_map(labels: tuple[str, ...], vec) -> dict:
    """The nonzero entries of a float64 vector, by label."""
    (nz,) = vec.nonzero()
    return dict(zip(map(labels.__getitem__, nz.tolist()), vec[nz].tolist()))


def _point_record(labels: tuple[str, ...], x) -> dict:
    """An exact element's map and decimals, or a float vector's decimals."""
    from .algebra import AlgebraElement, element_to_map

    if isinstance(x, AlgebraElement):
        return {"exact": element_to_map(x), "decimal": _decimal_map(labels, x.floats)}
    return {"decimal": _decimal_map(labels, x)}


def _profile_record(prof: DynamicsProfile) -> dict:
    from .algebra import element_to_map

    return {
        "return_time": prof.return_time,
        "period": prof.period,
        "support_group": list(prof.support_group.label_list()),
        "idempotent": element_to_map(prof.idempotent),
    }


def _report_record(rep: LimitReport) -> dict:
    record = partial(_point_record, rep.profile.point.group.labels)
    return {
        "digest": rep.digest,
        "profile": _profile_record(rep.profile),
        "reduction_steps": rep.reduction_steps,
        "exists": rep.exists,
        "limit": record(rep.limit) if rep.limit is not None else None,
        "accumulation": [record(pt) for pt in rep.accumulation.points],
        "cesaro": record(rep.cesaro),
        "a": rep.a,
        "scalar_limits": list(rep.scalar_limits) if rep.scalar_limits else None,
        "diagnostics": rep.diagnostics,
    }


def _emit(args, chunks: Iterable[str]) -> None:
    """Write the strings of chunks to --out or stdout, one at a time."""
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _emit_json(args, payload) -> None:
    _emit(args, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])


def _json_rows(key: str, rows: Iterable[dict]) -> Iterator[str]:
    """The text _emit_json writes for {key: list(rows)}, 256 rows at a time:
    each batch encoded as a list, its brackets cut off, one level deeper."""
    encode = json.JSONEncoder(indent=2, sort_keys=True).encode
    sep = head = "{\n  " + json.dumps(key) + ": ["
    rows = iter(rows)
    for batch in iter(lambda: list(itertools.islice(rows, 256)), []):
        yield sep + encode(batch)[1:-2].replace("\n", "\n  ")
        sep = ","
    yield head + "]\n}\n" if sep is head else "\n  ]\n}\n"


def _emit_csv(args, header: list, rows: Iterable[list]) -> None:
    """header and rows as CSV lines, one at a time: writerow returns what write does."""
    import csv

    writer = csv.writer(SimpleNamespace(write=str), lineterminator="\n")
    _emit(args, map(writer.writerow, itertools.chain([header], rows)))


def cmd_profile(cfg: ExperimentConfig, args) -> int:
    from .dynamics import profile

    prof = profile(cfg.require_element())
    _emit_json(args, _profile_record(prof))
    return EXIT_OK


def cmd_predict(cfg: ExperimentConfig, args) -> int:
    from .dynamics import profile
    from .predict import analyze, pure_power_report

    x = cfg.require_element()
    p = cfg.require_series()
    if p.is_pure_power:
        r = p.shift
        if r < 2:
            raise ConfigError(
                f"series: pure-power prediction needs exponent >= 2, got {r}")
        rep = pure_power_report(r, profile(x))
        _emit_json(args, {"kind": "pure-power", "report": _report_record(rep)})
        return EXIT_OK
    regular, cesaro = analyze(p, profile(x))
    _emit_json(args, {
        "kind": "series",
        "regular": _report_record(regular),
        "cesaro": _report_record(cesaro),
    })
    return EXIT_OK


def cmd_scalar(cfg: ExperimentConfig, args) -> int:
    from .series import SCALAR_COLUMNS, scalar_trace

    p = cfg.require_series()
    if p.is_pure_power:
        raise ConfigError("series: the scalar trace needs at least two terms; "
                          "pure powers keep all mass on one exponent")
    trace = scalar_trace(p, cfg.horizon or DEFAULT_SCALAR_HORIZON, cfg.truncation)
    header = ["n", *SCALAR_COLUMNS]
    rows = ([n, *row.tolist()] for n, row in enumerate(trace, start=1))
    if args.format == "json":
        _emit(args, _json_rows("trace", (dict(zip(header, row)) for row in rows)))
    else:
        _emit_csv(args, header, ([repr(v) for v in row] for row in rows))
    return EXIT_OK


# Each command's module and handler; main imports the module when the command runs.
_ORACLES = f"{__package__}.oracles"
_COMMANDS = {
    "profile": (__name__, "cmd_profile"),
    "limit-set": (_ORACLES, "cmd_limit_set"),
    "predict": (__name__, "cmd_predict"),
    "iterate": (_ORACLES, "cmd_iterate"),
    "cesaro": (_ORACLES, "cmd_cesaro"),
    "scalar": (__name__, "cmd_scalar"),
    "verify": (_ORACLES, "cmd_verify"),
}


# Each option's type or choices, placeholder and help; every command takes all.
_OPTIONS = {
    "--config": (str, "PATH", "path to a JSON experiment config (required)"),
    "--out": (str, "FILE", "output file (default stdout)"),
    "--horizon": (int, "N", "iteration horizon"),
    "--truncation": (int, "K", "scalar truncation degree K"),
    "--seed": (int, "S", "override the interior-random element seed"),
    "--format": (("json", "csv"), "json|csv", "output format where a choice exists"),
}
_USAGE = ("usage: simplexdyn COMMAND --config PATH [--option VALUE | --option=VALUE ...]\n\n"
          "Exact and empirical limit analysis of simplex dynamics on finite groups.\n\n"
          f"commands: {', '.join(_COMMANDS)}\n\noptions (the last of a repeated one wins):\n"
          + "".join(f"  {f + ' ' + m:<20}{h}\n" for f, (_, m, h) in _OPTIONS.items())
          + f"  {'-h, --help':<20}print this text and exit\n")


def parse_args(argv: list[str]) -> SimpleNamespace | None:
    """The command and options of a command line, or None when it asks
    for help; raises ConfigError on a usage error."""
    if {"-h", "--help"} & set(argv):
        return None
    if not argv or argv[0] not in _COMMANDS:
        raise ConfigError(f"the first argument must be a command: {', '.join(_COMMANDS)}")
    args = SimpleNamespace(command=argv[0], **{flag[2:]: None for flag in _OPTIONS})
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in _OPTIONS:
            raise ConfigError(f"unrecognized argument {token!r}")
        value = value if eq else next(tokens, None)
        if value is None:
            raise ConfigError(f"{flag}: expected a value")
        kind = _OPTIONS[flag][0]
        if isinstance(kind, tuple) and value not in kind:
            raise ConfigError(f"{flag}: expected one of {', '.join(kind)}, got {value!r}")
        try:
            setattr(args, flag[2:], value if isinstance(kind, tuple) else kind(value))
        except ValueError:
            raise ConfigError(f"{flag}: expected {kind.__name__}, got {value!r}") from None
    if args.config is None:
        raise ConfigError("--config is required")
    return args


def _load_config(args) -> ExperimentConfig:
    raw = read_config(args.config)
    if isinstance(raw, dict):  # from_dict rejects anything else
        if args.seed is not None:
            element = raw.get("element")
            if not (isinstance(element, str)
                    and element.startswith("interior-random:")):
                raise ConfigError("--seed: only an 'interior-random:<seed>' "
                                  "element takes a seed")
            raw["element"] = f"interior-random:{args.seed}"
        for name in ("horizon", "truncation"):
            value = getattr(args, name)
            if value is not None:
                raw[name] = value
    return ExperimentConfig.from_dict(raw)


def main(argv=None) -> int:
    gc.freeze()
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            sys.stdout.write(_USAGE)
            return EXIT_OK
        cfg = _load_config(args)
        module, handler = _COMMANDS[args.command]
        return getattr(importlib.import_module(module), handler)(cfg, args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except InternalConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.modules[__spec__.name] = sys.modules[__name__]  # so oracles imports this copy
    sys.exit(main())
