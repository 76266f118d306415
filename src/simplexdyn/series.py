"""Finite-support probability power series and their iterated composition.

Iterating t -> p(t), p a ProbPoly (poly.py), drives the coefficient
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
off the dtype, so the same code composes and checks both; the modes
differ only in their slack, which is zero when exact.

One loop composes states, _state_blocks: it writes each state into a
block of rows of at most 64 kB and checks a block's rows at once.
compose is one step of it, iterate_coeffs keeps every row as a
CoeffState, and scalar_trace, the float trace that `scalar` prints,
keeps none: it reduces each block to its columns, with the running
Cesaro sums carried from block to block, so its memory does not grow
with the horizon beyond its (n, 6) result.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InternalConsistencyError, PurePowerError
from .poly import ProbPoly, _exact_product, _numerators, _power_sum
from .record import Record

TRUNCATION_FACTOR = 64
TRUNCATION_CAP = 4096
FLOAT_COEFF_SLACK = 1e-15
FLOAT_TAIL_SLACK = 1e-12
FLOAT_A0_CHECK = 1e-12
# A block of composed states holds at most this many coefficients: 64 kB
# of float64.
_BLOCK_ENTRIES = 8192
SCALAR_COLUMNS = ("a0", "sup", "tail_mass", "avg_a0", "avg_sup", "avg_tail_mass")


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
        _check_rows(vec[None], np.asarray([self.tail_mass]))

    @property
    def mode(self) -> str:
        return "exact" if self.coeffs.dtype == object else "float"

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


def _check_rows(block: np.ndarray, tails: np.ndarray, drift=None) -> None:
    """The checks of the states in the rows of block, with tail masses
    tails: no coefficient and no tail mass below minus its slack, and,
    when drift is given, no a0 farther than its slack from p of the a0
    before; the slacks are zero in exact mode.  Raises at the first state
    that fails, in that order, as a check of one state after another
    would."""
    coeff_slack, tail_slack, a0_slack = ((0, 0, 0) if block.dtype == object else
                                         (FLOAT_COEFF_SLACK, FLOAT_TAIL_SLACK, FLOAT_A0_CHECK))
    mins = block.min(axis=1)
    bad = (mins < -coeff_slack) | (tails < -tail_slack) | (
        False if drift is None else drift > a0_slack)
    if not bad.any():
        return
    i = bad.argmax()  # the first state that fails
    if mins[i] < -coeff_slack:
        raise ValueError(f"negative coefficient {mins[i]} in state")
    if tails[i] < -tail_slack:
        raise ValueError(f"negative tail mass {tails[i]}")
    raise InternalConsistencyError(
        "composed constant term drifted from p(a0) beyond tolerance")


def initial_state(p: ProbPoly, truncation: int | None = None,
                  mode: str = "float") -> CoeffState:
    """The n = 1 state: p itself, densified up to the truncation degree."""
    if mode not in ("exact", "float"):
        raise ValueError(f"mode must be exact or float, got {mode!r}")
    K = default_truncation(p) if truncation is None else int(truncation)
    if K < p.degree:
        raise ValueError(
            f"truncation {K} cannot hold the series of degree {p.degree}")
    dense = np.full(K + 1, Fraction(0), dtype=object) if mode == "exact" else np.zeros(K + 1)
    for e, c in p.terms:
        dense[e] = c  # float(c) in float mode, as astype(np.float64) rounds it
    return CoeffState(n=1, tail_mass=Fraction(0), coeffs=dense)


def _trunc_mul_exact(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b truncated at their common degree, on integer numerators."""
    support, u, den = _exact_product(_numerators(enumerate(a)), _numerators(enumerate(b)),
                                     a.size, lambda u, v: np.convolve(u, v)[:a.size])
    out = np.full(a.size, Fraction(0), dtype=object)
    out.put(support, [Fraction(k, den) for k in u])
    return out


def _state_blocks(p: ProbPoly, state: CoeffState, n: int
                  ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The n states after state, p(s), p(p(s)), ..., truncated at its
    degree K, as (block, tails): consecutive states in the rows of a
    read-only block of at most _BLOCK_ENTRIES entries, and their tail
    masses.  Each row is _power_sum of the row before, with the product
    np.convolve(a, b)[:K + 1] in float mode and _trunc_mul_exact in exact
    mode; each block is checked at once (_check_rows).
    """
    s = state.coeffs
    size = s.size
    mul = _trunc_mul_exact if s.dtype == object else lambda a, b: np.convolve(a, b)[:size]
    one = np.full_like(s, Fraction(0))
    one[0] = Fraction(1)
    terms = [(e, s.dtype.type(c)) for e, c in p.terms]
    rows = max(1, _BLOCK_ENTRIES // size)
    for start in range(0, n, rows):
        block = np.empty((min(rows, n - start), size), dtype=s.dtype)
        before = np.empty(len(block), dtype=s.dtype)
        for i in range(len(block)):
            before[i] = s[0]
            s = block[i] = _power_sum(terms, one, s, mul)
        tails = 1 - block.sum(axis=1)
        _check_rows(block, tails, abs(block[:, 0] - sum(c * before ** e for e, c in terms)))
        block.setflags(write=False)
        yield block, tails


def _first_state(p: ProbPoly, n: int, truncation: int | None,
                 mode: str) -> CoeffState:
    """initial_state of an iteration to p^[n].  Pure powers are rejected:
    their mass rides a single exponent and belongs to the dedicated
    pure-power prediction path."""
    if p.is_pure_power:
        raise PurePowerError("the coefficient iteration does not accept a pure "
                             "power t^r; use the pure-power prediction path")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return initial_state(p, truncation, mode)


def compose(p: ProbPoly, state: CoeffState) -> CoeffState:
    """Coefficients of p(s(t)) truncated at the state's degree K.

    Exact below K: output coefficients of degree <= K depend only on the
    kept input coefficients, so no truncation loss occurs below K.
    """
    block, tails = next(_state_blocks(p, state, 1))
    return CoeffState(n=state.n + 1, coeffs=block[0], tail_mass=tails[0])


def iterate_coeffs(p: ProbPoly, n: int, truncation: int | None = None,
                   mode: str = "float") -> list[CoeffState]:
    """States of p^[1] .. p^[n] under repeated composition."""
    states = [_first_state(p, n, truncation, mode)]
    for block, tails in _state_blocks(p, states[0], n - 1):
        for row, tail in zip(block, tails):
            states.append(CoeffState(n=len(states) + 1, coeffs=row, tail_mass=tail))
    return states


def scalar_trace(p: ProbPoly, n: int, truncation: int | None = None) -> np.ndarray:
    """The float scalar trace of p^[1] .. p^[n]: an (n, 6) float64 array
    whose row m - 1 holds the SCALAR_COLUMNS of step m, that is a0, the
    sup of positive degree and the tail mass of the state of p^[m], and
    the same three of the Cesaro mean of the states of p^[1] .. p^[m].

    Equal bit for bit to those of iterate_coeffs and the running means
    (1/m) sum of its first m states, summed in step order, but no state
    is kept: each block of rows from _state_blocks is reduced to its
    columns at once, and only the last running sums of the states and
    of their tails carry over to the next block.  The running means pass
    the checks of a state too.
    """
    first = _first_state(p, n, truncation, "float")
    out = np.empty((n, len(SCALAR_COLUMNS)))
    sums, tail_sums, done = np.zeros((1, first.coeffs.size)), np.zeros(1), 0
    for block, tails in itertools.chain([(first.coeffs[None], np.zeros(1))],
                                        _state_blocks(p, first, n - 1)):
        steps = np.arange(done + 1, done + len(block) + 1)
        sums = np.cumsum(np.concatenate((sums[-1:], block)), axis=0)[1:]
        tail_sums = np.cumsum(np.concatenate((tail_sums[-1:], tails)))[1:]
        means, mean_tails = sums / steps[:, None], tail_sums / steps
        _check_rows(means, mean_tails)
        out[done:done + len(block)] = np.column_stack((
            block[:, 0], block[:, 1:].max(axis=1), tails,
            means[:, 0], means[:, 1:].max(axis=1), mean_tails))
        done += len(block)
    return out


def recursion_coeffs(p: ProbPoly, state: CoeffState, k: int):
    """a_k^[n+1] from the state of p^[n] by the derivative/composition formula:

        a_k^[n+1] = sum_i p^(i)(a_0^[n]) / i! *
                    sum over j_1 + ... + j_i = k (j_s >= 1) of prod a_{j_s}^[n]

    and a_0^[n+1] = p(a_0^[n]) for k = 0.  Must equal the compose result
    at the same degree (exactly so in exact mode).

    The inner sum is [t^k] (s - a_0)^i, s the state's series: each power
    is the one before times s - a_0, truncated at degree k and written
    out over Python numbers (Fractions in exact mode), so the check
    shares no kernel with compose.
    """
    if k < 0:
        raise ValueError("coefficient degree must be >= 0")
    if k > state.truncation:
        raise ValueError(f"degree {k} beyond truncation {state.truncation}")
    a0 = state.a0
    if k == 0:
        return p.evaluate(a0)
    total = zero = a0 * 0
    u = power = [zero] + state.coeffs[1:k + 1].tolist()
    for i in range(1, min(k, p.degree) + 1):
        if i > 1:
            power = [sum((power[j] * u[m - j] for j in range(m) if power[j] and u[m - j]), zero)
                     for m in range(k + 1)]
        total += p.taylor_coefficient(i, a0) * power[k]
    return total


def _compositions(k: int, i: int) -> Iterable[tuple[int, ...]]:
    """Ordered tuples of i positive integers summing to k."""
    for cuts in itertools.combinations(range(1, k), i - 1):
        bounds = (0,) + cuts + (k,)
        yield tuple(bounds[j + 1] - bounds[j] for j in range(i))


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
