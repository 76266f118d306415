"""Shared fixtures: the group zoo, seeded random generators and Hypothesis
coefficient strategies.

Random draws use integer weights 1..20 normalized to exact rationals, so
every generated element and series lives in exact arithmetic and every
test run is reproducible from its seed.
"""

import importlib
import itertools
import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import strategies as st

from simplexdyn import (CoeffState, FiniteGroup, ProbPoly, SimplexPoint,
                        direct_product, make_cyclic, make_dihedral, make_symmetric)
from simplexdyn import algebra

WEIGHT_MAX = 20


def build_zoo() -> dict:
    zoo = {f"cyclic-{n}": make_cyclic(n) for n in range(2, 13)}
    zoo["klein"] = direct_product(make_cyclic(2), make_cyclic(2))
    zoo["sym-3"] = make_symmetric(3)
    zoo["dihedral-4"] = make_dihedral(4)
    return zoo


@pytest.fixture(scope="session")
def zoo() -> dict:
    return build_zoo()


def random_simplex_point(group: FiniteGroup, rng: random.Random,
                         support_size: int | None = None) -> SimplexPoint:
    """Exact random point: random support, integer weights 1..20."""
    if support_size is None:
        support_size = rng.randint(1, group.order)
    indices = rng.sample(range(group.order), support_size)
    weights = {i: rng.randint(1, WEIGHT_MAX) for i in indices}
    total = sum(weights.values())
    coeffs = [Fraction(weights[i], total) if i in weights else Fraction(0)
              for i in range(group.order)]
    return SimplexPoint(group=group, coeffs=tuple(coeffs))


def random_prob_poly(rng: random.Random, max_degree: int = 8,
                     allow_critical: bool = True) -> ProbPoly:
    """Exact random series with 2 to 4 distinct exponents.

    With allow_critical=False, redraws any p with no constant shift whose
    mean exponent is exactly 1; such p sit on the boundary between the
    two convergence regimes and their iterates approach the limit at rate
    1/n, too slow for any fixed-horizon float oracle.
    """
    while True:
        count = rng.randint(2, 4)
        exponents = rng.sample(range(max_degree + 1), count)
        weights = [rng.randint(1, WEIGHT_MAX) for _ in exponents]
        total = sum(weights)
        p = ProbPoly(tuple((e, Fraction(w, total))
                           for e, w in zip(exponents, weights)))
        if not allow_critical and p.shift == 0 and p.mean_exponent == 1:
            continue
        return p


def element_order(group: FiniteGroup, i: int) -> int:
    """Smallest k >= 1 with g_i^k = identity."""
    k, cur = 1, i
    while cur != group.identity:
        cur = group.mul(cur, i)
        k += 1
        assert k <= group.order, f"element {i} has no order <= {group.order}"
    return k


def prob_poly(mapping: dict) -> ProbPoly:
    """The series of an exponent -> coefficient map."""
    return ProbPoly(tuple(mapping.items()))


def cesaro_coeffs(states) -> list:
    """Running averages q^(n)_i = (1/n) sum over m <= n of a^[m]_i, one
    CoeffState of the same shape per n, summed in step order: the
    reference for the Cesaro columns of series.scalar_trace."""
    if not states:
        raise ValueError("cesaro_coeffs needs at least one state")
    if len({(s.coeffs.dtype, s.truncation) for s in states}) > 1:
        raise ValueError("states must share truncation and dtype")
    sums = itertools.accumulate(s.coeffs for s in states)
    tails = itertools.accumulate(s.tail_mass for s in states)
    return [CoeffState(n=n, coeffs=acc / n, tail_mass=tail / n)
            for n, (acc, tail) in enumerate(zip(sums, tails), start=1)]


def random_group(zoo: dict, rng: random.Random) -> FiniteGroup:
    name = rng.choice(sorted(zoo))
    return zoo[name]


# Denominators dividing 360, whose integer products fit int64, and
# denominators up to 2^200, which force Python ints.
SMALL_COEFFS = st.builds(Fraction, st.integers(-40, 40),
                         st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12, 360]))
HUGE_COEFFS = st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70),
                        st.integers(1, 2 ** 200))


@st.composite
def signed_coeff_lists(draw, size: int) -> list:
    """size signed Fractions, some zero, all small or all possibly huge."""
    coeffs = draw(st.sampled_from([SMALL_COEFFS, HUGE_COEFFS]))
    entry = st.one_of(st.just(Fraction(0)), coeffs)
    return draw(st.lists(entry, min_size=size, max_size=size))


@st.composite
def prob_polys(draw, max_exponent: int = 4, max_shift: int = 2) -> ProbPoly:
    """Series with 2 to 4 terms at exponents up to max_exponent, shifted
    by t^0 .. t^max_shift, with integer weights 1..20."""
    exponents = draw(st.lists(st.integers(0, max_exponent), min_size=2,
                              max_size=4, unique=True))
    shift = draw(st.integers(0, max_shift))
    weights = draw(st.lists(st.integers(1, WEIGHT_MAX), min_size=len(exponents),
                            max_size=len(exponents)))
    total = sum(weights)
    return ProbPoly(tuple((e + shift, Fraction(w, total))
                          for e, w in zip(exponents, weights)))


def count_calls(monkeypatch, *names) -> dict:
    """Count calls of simplexdyn functions, named "module.function", wherever
    a simplexdyn module holds them."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        modname, attr = name.rsplit(".", 1)
        original = getattr(importlib.import_module(f"simplexdyn.{modname}"), attr)

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for holder_name, module in list(sys.modules.items()):
            if (holder_name.split(".")[0] == "simplexdyn"
                    and getattr(module, attr, None) is original):
                monkeypatch.setattr(module, attr, counted)
    return counts


@contextmanager
def recorded_mass_checks():
    """Yield a list that gains (bytes, slack) for each float point that
    algebra._float_point checks inside the block; each check still runs.
    A context manager, not a fixture, so Hypothesis tests can use it."""
    checks, original = [], algebra._float_point

    def check(vec, slack):
        checks.append((vec.tobytes(), slack))
        return original(vec, slack)

    with mock.patch.object(algebra, "_float_point", check):
        yield checks
