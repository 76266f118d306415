"""Finite-support probability power series and their iterated composition.

A ProbPoly is a polynomial p(t) = sum a_k t^k with nonnegative rational
coefficients summing to 1.  Iterating t -> p(t) drives the coefficient
dynamics studied here: the constant term a_0^[n] climbs monotonically to
the extinction value (the smallest fixed point of p at or above a_0),
while the largest coefficient of positive degree decays to zero.

States are truncated at a degree K.  Truncation only discards mass that
has moved beyond K: every kept coefficient of a composed state is the
exact coefficient of the untruncated series, because a product
coefficient of degree <= K depends only on input coefficients of degree
<= K.  tail_mass records the discarded remainder exactly (in exact mode).

A CoeffState holds its coefficients in one read-only ndarray: Fractions
(dtype object) in exact mode, float64 in float mode.  The mode is read
off the dtype, so the same code composes, averages and checks both; the
modes differ only in their slack, which is zero when exact.

p(x) = sum c x^e is evaluated by one loop, _power_sum, for the scalar
shadow here and for float vectors of R[G] in algebra.  It builds each
x^e by square-and-multiply from one shared table of squares, so t^64
costs six squarings, not 64 products.  Its callers supply the product:
an exact truncated product, a truncated np.convolve, or the float
convolution of R[G].

Exact products, the truncated one here and the group product in
algebra, share one kernel, _exact_product: it takes both operands as
integer numerators of their nonzero entries over a common denominator
(_numerators, which an AlgebraElement computes once and keeps),
scatters them into dense operands, multiplies those in int64 when no
sum can overflow and as Python ints otherwise, and builds Fractions
only for the result.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import InconclusiveError, InternalConsistencyError, PurePowerError
from .record import Record, as_int

TRUNCATION_FACTOR = 64
TRUNCATION_CAP = 4096
EXTINCTION_TOL = 1e-12
EXTINCTION_MAX_ITER = 10 ** 6
FLOAT_COEFF_SLACK = 1e-15
FLOAT_TAIL_SLACK = 1e-12
FLOAT_A0_CHECK = 1e-12


class ProbPoly(Record):
    """Probability polynomial: sorted (exponent, coefficient) terms.

    Coefficients are exact rationals in (0, 1) summing to 1, except for a
    pure power t^r whose single coefficient is 1.
    """

    _fields = ("terms",)

    def __init__(self, terms: Iterable[tuple[int, Fraction | int | str]]) -> None:
        cleaned = []
        seen = set()
        for exponent, coeff in terms:
            e = as_int(exponent, "exponent")
            c = Fraction(coeff)
            if e < 0:
                raise ValueError(f"exponent {e} is negative")
            if e in seen:
                raise ValueError(f"exponent {e} listed twice")
            seen.add(e)
            if c == 0:
                continue
            if c < 0 or c > 1:
                raise ValueError(f"coefficient {c} at t^{e} outside [0, 1]")
            cleaned.append((e, c))
        cleaned.sort()
        if not cleaned:
            raise ValueError("series needs at least one nonzero coefficient")
        total = sum(c for _, c in cleaned)
        if total != 1:
            raise ValueError(f"coefficients sum to {total}, not 1")
        if len(cleaned) > 1 and any(c == 1 for _, c in cleaned):
            raise ValueError("coefficient 1 only allowed for a pure power")
        self._set(terms=tuple(cleaned))

    @classmethod
    def from_map(cls, mapping: Mapping[int | str, Fraction | int | str]) -> "ProbPoly":
        return cls(tuple(mapping.items()))

    @classmethod
    def pure_power(cls, r: int) -> "ProbPoly":
        return cls(((r, 1),))

    @property
    def is_pure_power(self) -> bool:
        return len(self.terms) == 1

    @property
    def shift(self) -> int:
        """Minimal exponent r: p(t) = t^r * p0(t) with p0(0) != 0."""
        return self.terms[0][0]

    @property
    def offsets(self) -> tuple[int, ...]:
        """Exponents of p0 = p / t^shift; the first offset is always 0."""
        r = self.shift
        return tuple(e - r for e, _ in self.terms)

    @property
    def degree(self) -> int:
        return self.terms[-1][0]

    @property
    def constant_term(self) -> Fraction:
        return self.terms[0][1] if self.terms[0][0] == 0 else Fraction(0)

    @property
    def mean_exponent(self) -> Fraction:
        """p'(1) = sum e * a_e, the mean exponent drawn from p."""
        return sum((c * e for e, c in self.terms), start=Fraction(0))

    def evaluate(self, value):
        """p(value); exact for Fraction input, float for float input."""
        return sum(c * value ** e for e, c in self.terms)

    def taylor_coefficient(self, i: int, at):
        """p^(i)(at) / i! as an exact binomial-weighted sum over the terms."""
        if i < 0:
            raise ValueError("derivative order must be >= 0")
        return sum((c * math.comb(e, i) * at ** (e - i)
                    for e, c in self.terms if e >= i),
                   start=Fraction(0) if isinstance(at, Fraction) else 0.0)

    def __str__(self) -> str:
        return " + ".join(f"{c}*t^{e}" for e, c in self.terms)


def default_truncation(p: ProbPoly) -> int:
    return max(1, min(p.degree * TRUNCATION_FACTOR, TRUNCATION_CAP))


class CoeffState(Record):
    """Coefficients a^[n]_0 .. a^[n]_K of the n-th iterate, plus tail mass.

    coeffs is one read-only ndarray of K + 1 entries: Fractions (dtype
    object) in exact mode, float64 otherwise; tail_mass, the mass beyond
    degree K, is stored in the same dtype.  mode and truncation are read
    off the array.  Compares by identity.
    """

    _fields = ("n", "coeffs", "tail_mass")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, n: int, coeffs, tail_mass) -> None:
        vec = np.asarray(coeffs)
        if vec.dtype != object:
            vec = vec.astype(np.float64, copy=False)
        if vec.ndim != 1 or vec.size < 2:
            raise ValueError("truncation must hold at least degree 1")
        vec.setflags(write=False)
        self._set(n=n, coeffs=vec, tail_mass=vec.dtype.type(tail_mass))
        coeff_slack, tail_slack, _ = self.slack
        if vec.min() < -coeff_slack:
            raise ValueError(f"negative coefficient {vec.min()} in state")
        if self.tail_mass < -tail_slack:
            raise ValueError(f"negative tail mass {self.tail_mass}")

    @property
    def mode(self) -> str:
        return "exact" if self.coeffs.dtype == object else "float"

    @property
    def slack(self) -> tuple:
        """Tolerated (negative coefficient, negative tail mass, drift of a0
        from p(a0)); all zero in exact mode."""
        if self.mode == "exact":
            return 0, 0, 0
        return FLOAT_COEFF_SLACK, FLOAT_TAIL_SLACK, FLOAT_A0_CHECK

    @property
    def truncation(self) -> int:
        return self.coeffs.size - 1

    @property
    def a0(self):
        """The constant term as a Python Fraction or float."""
        return self.coeffs.item(0)

    def sup_nonconstant(self):
        """Largest kept coefficient of positive degree, sup over 1 <= k <= K."""
        return self.coeffs[1:].max()


def initial_state(p: ProbPoly, truncation: int | None = None,
                  mode: str = "float") -> CoeffState:
    """The n = 1 state: p itself, densified up to the truncation degree."""
    if mode not in ("exact", "float"):
        raise ValueError(f"mode must be exact or float, got {mode!r}")
    K = default_truncation(p) if truncation is None else int(truncation)
    if K < p.degree:
        raise ValueError(
            f"truncation {K} cannot hold the series of degree {p.degree}")
    dense = np.full(K + 1, Fraction(0), dtype=object)
    for e, c in p.terms:
        dense[e] = c
    return CoeffState(n=1, tail_mass=Fraction(0),
                      coeffs=dense if mode == "exact" else dense.astype(np.float64))


def _power_sum(terms: Iterable[tuple[int, object]], one: np.ndarray,
               x: np.ndarray,
               mul: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """sum of c * x^e over terms sorted by exponent, where x^0 = one and
    mul is a bilinear product under which the powers of x commute.

    Each x^e is built by square-and-multiply from one table of squares
    x, x^2, x^4, ... shared by all terms, so a term t^e costs at most
    2 log2(e) products instead of e.  Each coefficient is cast to the
    dtype of one.  Float powers are added whole; Fraction powers only at
    their nonzero entries, since a Fraction product costs far more than
    the test.  Once a power vanishes every higher one does too, so the
    sum is returned at the first square or product that does.
    """
    out = 0 * one
    cast = one.dtype.type
    dense = one.dtype != object
    squares = [x]
    for e, c in terms:
        pw = one
        for i in range(e.bit_length()):
            if i == len(squares):
                squares.append(mul(squares[-1], squares[-1]))
                if not np.count_nonzero(squares[-1]):
                    return out
            if e >> i & 1:
                pw = squares[i] if pw is one else mul(pw, squares[i])
                if not np.count_nonzero(pw):
                    return out
        if dense:
            out += cast(c) * pw
        else:
            nz = pw.nonzero()
            out[nz] += cast(c) * pw[nz]
    return out


def _numerators(coeffs: Sequence[Fraction]
                ) -> tuple[np.ndarray, tuple[int, ...], int]:
    """(support, u, D): the indices of the nonzero coeffs, in order, and
    their integer numerators u over D, the lcm of their denominators, so
    coeffs[support] = u / D and every other entry is 0."""
    support = [i for i, c in enumerate(coeffs) if c]
    den = math.lcm(*(coeffs[i].denominator for i in support))
    u = tuple(coeffs[i].numerator * (den // coeffs[i].denominator) for i in support)
    index = np.array(support, dtype=np.intp)
    index.setflags(write=False)
    return index, u, den


def _exact_product(a: tuple[np.ndarray, tuple[int, ...], int],
                   b: tuple[np.ndarray, tuple[int, ...], int], n: int,
                   product: Callable[[np.ndarray, np.ndarray], np.ndarray]
                   ) -> list[Fraction]:
    """A bilinear product of two length-n Fraction vectors, computed on
    integers from their _numerators triples.

    With a = u / Du and b = v / Dv, returns product(u, v) / (Du * Dv) as
    Fractions, u and v scattered into dense length-n operands.  product
    must sum, per output entry, at most one term u_i * v_j for each
    nonzero u_i.  u and v are int64 arrays when no such sum can reach
    2^63 and object arrays of Python ints otherwise: int64 wraps silently
    on overflow, so the guard keeps the result exact.
    """
    (sa, u, du), (sb, v, dv) = a, b
    mu = max(map(abs, u), default=0)
    mv = max(map(abs, v), default=0)
    dtype = np.int64 if max(mu, mv, mu * mv * len(u)) < 2 ** 63 else object
    ua = np.zeros(n, dtype=dtype)
    ua[sa] = u
    va = np.zeros(n, dtype=dtype)
    va[sb] = v
    out = product(ua, va)
    den = du * dv
    zero = Fraction(0)
    return [Fraction(k, den) if k else zero for k in out.tolist()]


def _trunc_mul_exact(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b truncated at their common degree, on integer numerators."""
    return np.array(_exact_product(
        _numerators(a.tolist()), _numerators(b.tolist()), a.size,
        lambda u, v: np.convolve(u, v)[:a.size]), dtype=object)


def compose(p: ProbPoly, state: CoeffState) -> CoeffState:
    """Coefficients of p(s(t)) truncated at the state's degree K.

    Exact below K: output coefficients of degree <= K depend only on the
    kept input coefficients, so no truncation loss occurs below K.
    """
    s = state.coeffs
    if state.mode == "exact":
        mul = _trunc_mul_exact
    else:
        def mul(a, b):
            return np.convolve(a, b)[:s.size]
    one = np.full_like(s, Fraction(0))
    one[0] = Fraction(1)
    out = _power_sum(p.terms, one, s, mul)
    return CoeffState(n=state.n + 1, coeffs=out, tail_mass=1 - out.sum())


def iterate_coeffs(p: ProbPoly, n: int, truncation: int | None = None,
                   mode: str = "float") -> list[CoeffState]:
    """States of p^[1] .. p^[n] under repeated composition.

    Pure powers are rejected: their mass rides a single exponent and
    belongs to the dedicated pure-power prediction path.
    """
    if p.is_pure_power:
        raise PurePowerError(
            "iterate_coeffs does not accept a pure power t^r; "
            "use the pure-power prediction path")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    states = [initial_state(p, truncation, mode)]
    for _ in range(n - 1):
        prev = states[-1]
        nxt = compose(p, prev)
        _, _, a0_slack = prev.slack
        if abs(nxt.a0 - p.evaluate(prev.a0)) > a0_slack:
            raise InternalConsistencyError(
                "composed constant term drifted from p(a0) beyond tolerance")
        states.append(nxt)
    return states


def _compositions(k: int, i: int) -> Iterable[tuple[int, ...]]:
    """Ordered tuples of i positive integers summing to k."""
    for cuts in itertools.combinations(range(1, k), i - 1):
        bounds = (0,) + cuts + (k,)
        yield tuple(bounds[j + 1] - bounds[j] for j in range(i))


def recursion_coeffs(p: ProbPoly, state: CoeffState, k: int):
    """a_k^[n+1] from the state of p^[n] by the derivative/composition formula:

        a_k^[n+1] = sum_i p^(i)(a_0^[n]) / i! *
                    sum over j_1 + ... + j_i = k (j_s >= 1) of prod a_{j_s}^[n]

    and a_0^[n+1] = p(a_0^[n]) for k = 0.  Must equal the compose result
    at the same degree (exactly so in exact mode).
    """
    if k < 0:
        raise ValueError("coefficient degree must be >= 0")
    if k > state.truncation:
        raise ValueError(f"degree {k} beyond truncation {state.truncation}")
    a0 = state.a0
    if k == 0:
        return p.evaluate(a0)
    total = zero = a0 * 0
    for i in range(1, min(k, p.degree) + 1):
        factor = p.taylor_coefficient(i, a0)
        if not factor:
            continue
        inner = zero
        for parts in _compositions(k, i):
            prod = state.coeffs[parts[0]]
            for j in parts[1:]:
                prod = prod * state.coeffs[j]
            inner += prod
        total += factor * inner
    return total


def extinction_value(p: ProbPoly, tol: float = EXTINCTION_TOL,
                     max_iter: int = EXTINCTION_MAX_ITER) -> float:
    """Limit of the constant terms a_0^[n]: iterate a <- p(a) from a_0.

    Plain fixed-point iteration reproduces the defining sequence; the
    returned value satisfies |p(a) - a| < tol and is the smallest fixed
    point of p in [a_0, 1].  Near-critical series (mean offspring close
    to 1) may exhaust the budget, which raises InconclusiveError.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    cur = float(p.constant_term)
    for _ in range(max_iter):
        nxt = p.evaluate(cur)
        if abs(nxt - cur) < tol:
            return cur
        cur = nxt
    raise InconclusiveError(
        f"extinction iteration did not reach tol={tol} in {max_iter} steps "
        "(mean offspring may be at its critical value)",
        best=cur, delta=abs(p.evaluate(cur) - cur), iterations=max_iter)


def cesaro_coeffs(states: Sequence[CoeffState]) -> list[CoeffState]:
    """Running averages q^(n)_i = (1/n) sum over m <= n of a^[m]_i, one
    state of the same shape per n."""
    if not states:
        raise ValueError("cesaro_coeffs needs at least one state")
    if len({(s.coeffs.dtype, s.truncation) for s in states}) > 1:
        raise ValueError("states must share truncation and dtype")
    sums = itertools.accumulate(s.coeffs for s in states)
    tails = itertools.accumulate(s.tail_mass for s in states)
    return [CoeffState(n=n, coeffs=acc / n, tail_mass=tail / n)
            for n, (acc, tail) in enumerate(zip(sums, tails), start=1)]


def composition_sum_check(a: Sequence[Fraction | int | str], k: int,
                          i: int) -> tuple[Fraction, Fraction]:
    """Enumerate sum over j_1+...+j_i = k of prod a_{j_s} and its bound.

    The sequence argument lists a_1, a_2, ... (degree-zero mass excluded);
    entries beyond the list are zero.  Returns (lhs, rhs) with
    rhs = (1 - a_k) * max(a); the caller asserts lhs <= rhs for i >= 2.
    The weaker bound lhs <= max(a), valid for all 1 <= i <= k, is checked
    here and a violation raises InternalConsistencyError.
    """
    if not 1 <= i <= k <= 10:
        raise ValueError(f"need 1 <= i <= k <= 10, got i={i}, k={k}")
    seq = [Fraction(v) for v in a]
    if any(v < 0 for v in seq):
        raise ValueError("sequence entries must be nonnegative")
    if sum(seq, Fraction(0)) != 1:
        raise ValueError("sequence must sum to exactly 1 (pad with a tail term)")

    def at(j: int) -> Fraction:
        return seq[j - 1] if j - 1 < len(seq) else Fraction(0)

    lhs = Fraction(0)
    for parts in _compositions(k, i):
        prod = Fraction(1)
        for j in parts:
            prod *= at(j)
        lhs += prod
    amax = max(seq, default=Fraction(0))
    if lhs > amax:
        raise InternalConsistencyError(
            f"composition sum {lhs} exceeds the sup bound {amax}")
    rhs = (1 - at(k)) * amax
    return lhs, rhs
