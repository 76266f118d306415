"""Experiment configuration: group, starting element, series, parameters.

A config is a JSON object.  The group is one of the built-in families or
a Cayley-table CSV; the element is an explicit label -> rational map, a
point mass, or a seeded random interior point; the series is an exponent
-> rational map or a pure power.  Everything validates down to exact
domain objects, and every failure names the offending field.
"""

from __future__ import annotations

import json
import math
import random
from typing import TYPE_CHECKING, Mapping

from .groups import (FiniteGroup, direct_product, make_cyclic, make_dihedral,
                     make_symmetric, read_cayley_csv)
from .record import Record, as_int, parse_rational
from .poly import ProbPoly

if TYPE_CHECKING:
    from .algebra import SimplexPoint

RANDOM_WEIGHT_MAX = 20


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


def _as_int(value, where: str) -> int:
    """An int, an integral float or a numeral string; never a bool."""
    try:
        return as_int(value, where)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def build_group(spec, where: str = "group") -> FiniteGroup:
    if not isinstance(spec, Mapping):
        raise ConfigError(f"{where}: expected an object with a 'kind' field")
    kind = spec.get("kind")
    try:
        if kind == "cyclic":
            return make_cyclic(_as_int(spec["n"], f"{where}.n"))
        if kind == "dihedral":
            return make_dihedral(_as_int(spec["n"], f"{where}.n"))
        if kind == "symmetric":
            return make_symmetric(_as_int(spec["n"], f"{where}.n"))
        if kind == "product":
            factors = spec["factors"]
            if not isinstance(factors, list) or len(factors) < 2:
                raise ConfigError(
                    f"{where}.factors: need a list of at least two group specs")
            built = build_group(factors[0], f"{where}.factors[0]")
            for i, sub in enumerate(factors[1:], start=1):
                built = direct_product(built, build_group(sub, f"{where}.factors[{i}]"))
            return built
        if kind == "table-file":
            return read_cayley_csv(str(spec["path"]))
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{where}: missing field {exc.args[0]!r} for kind {kind!r}") from exc
    except (ValueError, OSError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(
        f"{where}.kind: expected one of cyclic, dihedral, symmetric, product, "
        f"table-file; got {kind!r}")


def random_interior_point(group: FiniteGroup, seed: int) -> SimplexPoint:
    """Seeded exact interior point: integer weights 1..20, normalized."""
    from .algebra import SimplexPoint

    rng = random.Random(seed)
    weights = [rng.randint(1, RANDOM_WEIGHT_MAX) for _ in range(group.order)]
    g = math.gcd(*weights)  # = gcd(weights.., their sum), for lowest terms
    return SimplexPoint._of(group, tuple(range(group.order)),
                            tuple(w // g for w in weights), sum(weights) // g)


def build_element(group: FiniteGroup, spec, where: str = "element") -> SimplexPoint:
    from .algebra import delta, simplex_from_map

    if isinstance(spec, str):
        head, sep, arg = spec.partition(":")
        if head == "point-mass" and sep:
            try:
                i = group.index_of(arg)
            except ValueError:
                raise ConfigError(f"{where}: label {arg!r} not in the group") from None
            return delta(group, i)
        if head == "interior-random" and sep:
            try:
                return random_interior_point(group, int(arg))
            except ValueError as exc:
                raise ConfigError(f"{where}: bad seed {arg!r}") from exc
        raise ConfigError(
            f"{where}: string form must be 'point-mass:<label>' or "
            f"'interior-random:<seed>', got {spec!r}")
    if isinstance(spec, Mapping):
        try:
            return simplex_from_map(group, spec)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: expected a map or a string form")


def build_series(spec, where: str = "series") -> ProbPoly:
    if isinstance(spec, str):
        head, sep, arg = spec.partition(":")
        if head == "pure-power" and sep:
            try:
                r = int(arg)
            except ValueError as exc:
                raise ConfigError(f"{where}: bad exponent {arg!r}") from exc
            if r < 0:
                raise ConfigError(f"{where}: exponent must be >= 0, got {r}")
            return ProbPoly.pure_power(r)
        raise ConfigError(
            f"{where}: string form must be 'pure-power:<r>', got {spec!r}")
    if isinstance(spec, Mapping):
        try:
            terms = tuple((int(k), parse_rational(v)) for k, v in spec.items())
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        try:
            return ProbPoly(terms)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: expected a map or 'pure-power:<r>'")


def read_config(path: str):
    """The JSON value in the file at path, unvalidated; a ConfigError that
    names the file when it cannot be read or is not JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config: {path} is not valid JSON: {exc}") from exc


class ExperimentConfig(Record):
    """Validated experiment: group, optional element and series, parameters."""

    _fields = ("group", "element", "series", "horizon", "truncation")

    def __init__(self, group: FiniteGroup, element: SimplexPoint | None,
                 series: ProbPoly | None, horizon: int | None,
                 truncation: int | None) -> None:
        self._set(group, element, series, horizon, truncation)

    @classmethod
    def from_dict(cls, raw: Mapping) -> "ExperimentConfig":
        if not isinstance(raw, Mapping):
            raise ConfigError("config: expected a JSON object")
        unknown = set(raw) - set(cls._fields)
        if unknown:
            raise ConfigError(f"config: unknown fields {sorted(unknown)}")
        if "group" not in raw:
            raise ConfigError("config: missing required field 'group'")
        group = build_group(raw["group"])
        element = build_element(group, raw["element"]) if "element" in raw else None
        series = build_series(raw["series"]) if "series" in raw else None

        def opt_int(name: str):
            if name not in raw:
                return None
            value = _as_int(raw[name], name)
            if value < 1:
                raise ConfigError(f"{name}: must be >= 1, got {value}")
            return value

        return cls(group=group, element=element, series=series,
                   horizon=opt_int("horizon"), truncation=opt_int("truncation"))

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        return cls.from_dict(read_config(path))

    def require_element(self) -> SimplexPoint:
        if self.element is None:
            raise ConfigError("element: required for this command")
        return self.element

    def require_series(self) -> ProbPoly:
        if self.series is None:
            raise ConfigError("series: required for this command")
        return self.series
