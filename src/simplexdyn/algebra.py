"""Arithmetic in the group algebra R[G] and its probability simplex.

An exact element is its support, the ascending indices of its nonzero
coefficients, their integer numerators u and one denominator den with
gcd(u.., den) = 1, so equal elements have equal fields.  Constructors
and products (poly._exact_product) build that triple directly, and
element_to_map, support, floats and repr read the support only; coeffs,
the |G| Fractions, is a view built on use.  A float point is a read-only
float64 vector of length |G|; an exact element gives its own through
.floats.  The series oracles read one OrbitTrace of such vectors, built
by _float_orbit, which states when an orbit stops being evaluated, how
its later steps replay its cycle and how far from the simplex each state
may drift.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain, cycle, islice
from typing import Callable, Mapping

import numpy as np

from .groups import ElementSet, FiniteGroup
from .record import Record, parse_rational
from .poly import _exact_product, _numerators, _power_sum, _ratio_text

# Slack granted per float iteration step on oracle traces.
ITERATION_SLACK_RATE = 1e-12

RationalLike = Fraction | int | str


def _same_group(a: FiniteGroup, b: FiniteGroup, what: str) -> None:
    if a is not b and a != b:
        raise ValueError(f"{what} requires elements of the same group")


class AlgebraElement(Record):
    """An element sum_g x_g * g of R[G]: x_g = u[k] / den at g = support[k]."""

    _fields = ("group", "support", "u", "den")

    def __init__(self, group: FiniteGroup, coeffs: Sequence[RationalLike]) -> None:
        coeffs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        if len(coeffs) != group.order:
            raise ValueError(f"expected {group.order} coefficients, got {len(coeffs)}")
        self._set(group, *_numerators(enumerate(coeffs)))

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The dense tuple of |G| Fractions, built on first use."""
        out = dict(_entries(self))
        return tuple(out.get(i, Fraction(0)) for i in range(self.group.order))

    @cached_property
    def floats(self) -> np.ndarray:
        """The coefficients as one read-only float64 vector, converted once:
        u[k] / den is int true division, correctly rounded as float(Fraction) is."""
        vec = np.zeros(self.group.order)
        vec.put(self.support, [n / self.den for n in self.u])
        vec.setflags(write=False)
        return vec

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i]

    def __repr__(self) -> str:
        inside = ", ".join(f"{k}: {v}" for k, v in element_to_map(self).items())
        return f"{type(self).__name__}({inside or '0'})"


class SimplexPoint(AlgebraElement):
    """A probability distribution on G: u >= 0 and sum(u) == den, checked by _set."""

    def _set(self, group, support, u, den) -> None:
        if min(u, default=0) < 0:
            raise ValueError("simplex point has a negative coefficient")
        if sum(u) != den:
            raise ValueError(f"simplex point coefficients sum to {Fraction(sum(u), den)}, not 1")
        super()._set(group, support, u, den)


def delta(group: FiniteGroup, i: int) -> SimplexPoint:
    """Point mass at element index i."""
    return uniform_on(ElementSet(group, (i,)))


def _product(g: FiniteGroup, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The convolution uv of two dense vectors on g: (uv)_k is the sum
    over h in Supp(u) of u_h * v[h^-1 k], one vector-matrix product over
    the rows table[h^-1] of g's table, gathered for those h only.  The
    kernel of the exact product (on integer numerators) and of the float
    power oracle (dynamics.empirical_limit_set)."""
    hs = np.flatnonzero(u)
    return u[hs] @ v[g.table[g.inverse_index[hs]]]


def multiply(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Convolution product: (xy)_g = sum over h*k = g of x_h * y_k, exact, by
    _product on the integer fields (support, u, den), _values()[1:]."""
    _same_group(x.group, y.group, "multiply")
    g = x.group
    cls = SimplexPoint if isinstance(x, SimplexPoint) and isinstance(y, SimplexPoint) \
        else AlgebraElement
    return cls._of(g, *_exact_product(x._values()[1:], y._values()[1:], g.order,
                                      partial(_product, g)))


def power(x: AlgebraElement, k: int) -> AlgebraElement:
    """x^k by square-and-multiply; x^0 is the point mass at the identity."""
    if k < 0:
        raise ValueError(f"exponent must be >= 0, got {k}")
    result = type(x)._of(x.group, (x.group.identity,), (1,), 1)
    base = x
    while k:
        if k & 1:
            result = multiply(result, base)
        k >>= 1
        if k:
            base = multiply(base, base)
    return result


def support(x: AlgebraElement) -> ElementSet:
    """Indices with nonzero coefficient (exact test, no threshold)."""
    return ElementSet(x.group, x.support)


def uniform_on(h: ElementSet) -> SimplexPoint:
    """Uniform distribution on a nonempty element set."""
    if not h.members:
        raise ValueError("uniform_on requires a nonempty set")
    return SimplexPoint._of(h.group, h.members, (1,) * len(h), len(h))


def _entries(x: AlgebraElement) -> zip:
    """The (index, Fraction) pairs of the support of x, ascending."""
    return zip(x.support, (Fraction(n, x.den) for n in x.u))


def add(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    _same_group(x.group, y.group, "add")
    total = dict(_entries(x))
    for i, c in _entries(y):
        total[i] = total.get(i, 0) + c
    return AlgebraElement._of(x.group, *_numerators(sorted(total.items())))


def scale(q: RationalLike, x: AlgebraElement) -> AlgebraElement:
    qq = Fraction(q)
    return AlgebraElement._of(x.group, *_numerators((i, qq * c) for i, c in _entries(x)))


def sup_distance(a: AlgebraElement | np.ndarray, b: AlgebraElement | np.ndarray) -> float:
    """max_g |a_g - b_g| of two exact elements or float vectors; exact
    elements are compared through their .floats.  Raises ValueError on
    vectors of different shapes, which numpy would broadcast."""
    if isinstance(a, AlgebraElement) and isinstance(b, AlgebraElement):
        _same_group(a.group, b.group, "sup_distance")
    u, v = getattr(a, "floats", a), getattr(b, "floats", b)
    if u.shape != v.shape:
        raise ValueError(f"sup_distance of vectors of shapes {u.shape} and {v.shape}")
    return float(np.max(np.abs(u - v)))


def _float_point(vec: np.ndarray, slack: float) -> np.ndarray:
    """vec, made read-only in place, once it is checked to lie within
    slack of the simplex: its sum within 1 +/- slack and no coefficient
    below -slack (ValueError otherwise)."""
    # The ufunc reductions give vec.sum() and vec.min() bit for bit,
    # without their Python-level wrappers: this runs once per oracle state.
    total = float(np.add.reduce(vec))
    if not (1 - slack <= total <= 1 + slack):
        raise ValueError(f"coefficient sum {total} outside 1 +/- {slack}")
    if float(np.minimum.reduce(vec)) < -slack:
        raise ValueError(f"coefficient {float(vec.min())} below -slack {-slack}")
    vec.setflags(write=False)
    return vec


def evaluate_series_floats(group: FiniteGroup,
                           terms: Sequence[tuple[int, float]],
                           xv: np.ndarray) -> np.ndarray:
    """Evaluate sum of c * x^k over (k, c) term pairs, in floats.

    Terms must be sorted by exponent.  Powers come by square-and-multiply
    (poly._power_sum); each product gathers its right factor into its
    right multiplication matrix, so it costs one n^2 gather and one
    vector-matrix product.
    """
    one = np.zeros(group.order)
    one[group.identity] = 1.0
    return _power_sum(terms, one, xv, lambda u, v: u @ v[group.conv_index])


class OrbitTrace(Sequence):
    """Read-only view of the first n steps of a float orbit, held as its
    distinct states only (built by _float_orbit, which states the rule).

    states holds one read-only float64 vector per distinct state, k of
    them, in order of appearance; j is the index of the state that the
    first bitwise repeat equals, or k when none of the n steps repeats;
    step m (0-based) past the repeat reads the cycle states[j:].  Supports
    len, indexing (negative too) and iteration.
    """

    __slots__ = ("states", "j", "n")

    def __init__(self, states: tuple[np.ndarray, ...], j: int, n: int) -> None:
        self.states = states
        self.j = j
        self.n = n

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, m: int) -> np.ndarray:
        if m < 0:
            m += self.n
        if not 0 <= m < self.n:
            raise IndexError(f"step {m} outside a trace of {self.n} steps")
        k = len(self.states)
        return self.states[m if m < k else self.j + (m - self.j) % (k - self.j)]

    def __iter__(self):
        return islice(chain(self.states, cycle(self.states[self.j:])), self.n)


def _float_orbit(step: Callable[[np.ndarray], np.ndarray],
                 start: np.ndarray, n: int) -> OrbitTrace:
    """The first n states step(start), step(step(start)), .. of a
    deterministic float map, evaluated only up to the first bitwise
    repeat, as an OrbitTrace of n steps.

    States are keyed by the hash of their bytes and matched on the bytes,
    so -0.0 and 0.0 stay distinct.  When state i equals an earlier state
    j bit for bit, step maps it to state j + 1 again, so the orbit replays
    states[j:] forever: state m >= j is states[j + (m - j) % (i - j)], the
    value the evaluation would have produced, and nothing further is
    evaluated.  step must return a fresh array: each distinct state is
    kept as that array, checked once and made read-only by _float_point
    at slack ITERATION_SLACK_RATE * k for the step k (1-based) it first
    appears at.  Every later step that replays it reads that array, so
    memory does not grow with n past the repeat.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    states: list[np.ndarray] = []
    first: dict[int, int] = {}
    vec = start
    for i in range(n):
        vec = step(vec)
        data = vec.tobytes()
        j = first.setdefault(hash(data), i)
        if j != i and states[j].tobytes() == data:
            return OrbitTrace(tuple(states), j, n)
        states.append(_float_point(vec, ITERATION_SLACK_RATE * (i + 1)))
    return OrbitTrace(tuple(states), len(states), n)


def series_trace(group: FiniteGroup, terms: Sequence[tuple[int, float]],
                 start: np.ndarray, n: int) -> OrbitTrace:
    """Float orbit y_1 = p(start), y_{k+1} = p(y_k) for p given by terms,
    n steps of it (_float_orbit).

    Each step renormalizes the total mass to 1.  The true orbit has mass
    exactly 1, but in floats the mass direction is a repelling mode with
    multiplier p'(1) whenever the mean exponent exceeds 1, so rounding
    noise in the sum would grow exponentially; dividing it out projects
    back onto the invariant simplex without changing the dynamics.
    """

    def step(vec: np.ndarray) -> np.ndarray:
        vec = evaluate_series_floats(group, terms, vec)
        return vec / vec.sum()

    return _float_orbit(step, np.asarray(start, dtype=np.float64), n)


def simplex_from_map(group: FiniteGroup,
                     mapping: Mapping[str, RationalLike]) -> SimplexPoint:
    """Build a simplex point from a label -> rational-string map.

    Unlisted labels get coefficient 0; the simplex invariants are
    enforced exactly on the result.
    """
    coeffs = {}
    for label, text in mapping.items():
        i = group.index_of(str(label))
        if coeffs.get(i):
            raise ValueError(f"label {label!r} listed twice")
        coeffs[i] = parse_rational(text)
    return SimplexPoint._of(group, *_numerators(sorted(coeffs.items())))


def element_to_map(x: AlgebraElement) -> dict[str, str]:
    """Nonzero coefficients as a label -> "p/q" map (inverse of simplex_from_map)."""
    return {x.group.labels[i]: _ratio_text(n, x.den) for i, n in zip(x.support, x.u)}
