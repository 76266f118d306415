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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InconclusiveError, InternalConsistencyError, PurePowerError

TRUNCATION_FACTOR = 64
TRUNCATION_CAP = 4096
EXTINCTION_TOL = 1e-12
EXTINCTION_MAX_ITER = 10 ** 6
FLOAT_COEFF_SLACK = 1e-15
FLOAT_TAIL_SLACK = 1e-12
FLOAT_A0_CHECK = 1e-12


@dataclass(frozen=True)
class ProbPoly:
    """Probability polynomial: sorted (exponent, coefficient) terms.

    Coefficients are exact rationals in (0, 1) summing to 1, except for a
    pure power t^r whose single coefficient is 1.
    """

    terms: tuple[tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        cleaned = []
        seen = set()
        for exponent, coeff in self.terms:
            e = int(exponent)
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
        object.__setattr__(self, "terms", tuple(cleaned))

    @classmethod
    def from_map(cls, mapping: Mapping[int | str, Fraction | int | str]) -> "ProbPoly":
        return cls(tuple((int(k), Fraction(v)) for k, v in mapping.items()))

    @classmethod
    def pure_power(cls, r: int) -> "ProbPoly":
        return cls(((int(r), Fraction(1)),))

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

    def coeff_map(self) -> dict[int, Fraction]:
        return dict(self.terms)

    def evaluate(self, value):
        """p(value); exact for Fraction input, float for float input."""
        return sum(c * value ** e for e, c in self.terms)

    def evaluate_float(self, value: float) -> float:
        return float(sum(float(c) * value ** e for e, c in self.terms))

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


@dataclass(frozen=True)
class CoeffState:
    """Coefficients a^[n]_0 .. a^[n]_K of the n-th iterate, plus tail mass."""

    n: int
    coeffs: tuple
    truncation: int
    tail_mass: object
    mode: str

    def __post_init__(self) -> None:
        if self.mode not in ("exact", "float"):
            raise ValueError(f"mode must be exact or float, got {self.mode!r}")
        if self.truncation < 1:
            raise ValueError("truncation must hold at least degree 1")
        if len(self.coeffs) != self.truncation + 1:
            raise ValueError(
                f"expected {self.truncation + 1} coefficients, got {len(self.coeffs)}")
        if self.mode == "exact":
            if any(c < 0 for c in self.coeffs):
                raise ValueError("negative coefficient in exact state")
            if self.tail_mass < 0:
                raise ValueError(f"negative tail mass {self.tail_mass}")
        else:
            vec = np.asarray(self.coeffs, dtype=np.float64)
            vec.setflags(write=False)
            object.__setattr__(self, "coeffs", vec)
            if vec.size and float(vec.min()) < -FLOAT_COEFF_SLACK:
                raise ValueError("negative coefficient in float state")
            if float(self.tail_mass) < -FLOAT_TAIL_SLACK:
                raise ValueError(f"negative tail mass {self.tail_mass}")

    @property
    def a0(self):
        return self.coeffs[0]

    def sup_nonconstant(self):
        """Largest kept coefficient of positive degree, sup over 1 <= k <= K."""
        if self.mode == "exact":
            return max(self.coeffs[1:], default=Fraction(0))
        return float(self.coeffs[1:].max()) if self.truncation else 0.0


def initial_state(p: ProbPoly, truncation: int | None = None,
                  mode: str = "float") -> CoeffState:
    """The n = 1 state: p itself, densified up to the truncation degree."""
    K = default_truncation(p) if truncation is None else int(truncation)
    if K < p.degree:
        raise ValueError(
            f"truncation {K} cannot hold the series of degree {p.degree}")
    dense = [Fraction(0)] * (K + 1)
    for e, c in p.terms:
        dense[e] = c
    if mode == "exact":
        return CoeffState(n=1, coeffs=tuple(dense), truncation=K,
                          tail_mass=Fraction(0), mode="exact")
    return CoeffState(n=1, coeffs=np.array([float(c) for c in dense]),
                      truncation=K, tail_mass=0.0, mode="float")


def _trunc_mul_exact(a: Sequence[Fraction], b: Sequence[Fraction],
                     K: int) -> list[Fraction]:
    out = [Fraction(0)] * (K + 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j in range(K - i + 1):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


def compose(p: ProbPoly, state: CoeffState) -> CoeffState:
    """Coefficients of p(s(t)) truncated at the state's degree K.

    Exact below K: output coefficients of degree <= K depend only on the
    kept input coefficients, so no truncation loss occurs below K.
    """
    K = state.truncation
    if state.mode == "exact":
        s = list(state.coeffs)
        out = [Fraction(0)] * (K + 1)
        pw: list[Fraction] = [Fraction(1)] + [Fraction(0)] * K
        cur = 0
        for e, c in p.terms:
            for _ in range(e - cur):
                pw = _trunc_mul_exact(pw, s, K)
            cur = e
            if not any(pw):
                # s^e vanished below K; higher powers stay zero there too.
                break
            for idx, v in enumerate(pw):
                if v:
                    out[idx] += c * v
        tail = 1 - sum(out, Fraction(0))
        return CoeffState(n=state.n + 1, coeffs=tuple(out), truncation=K,
                          tail_mass=tail, mode="exact")

    s = np.asarray(state.coeffs)
    out = np.zeros(K + 1)
    pw = np.zeros(K + 1)
    pw[0] = 1.0
    cur = 0
    for e, c in p.terms:
        for _ in range(e - cur):
            pw = np.convolve(pw, s)[:K + 1]
            if not pw.any():
                break
        cur = e
        if not pw.any():
            break
        out += float(c) * pw
    tail = 1.0 - float(out.sum())
    return CoeffState(n=state.n + 1, coeffs=out, truncation=K,
                      tail_mass=tail, mode="float")


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
        if prev.mode == "exact":
            if nxt.a0 != p.evaluate(prev.a0):
                raise InternalConsistencyError(
                    "composed constant term disagrees with p(a0)")
        elif abs(float(nxt.a0) - p.evaluate_float(float(prev.a0))) > FLOAT_A0_CHECK:
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
        return p.evaluate(a0) if state.mode == "exact" else p.evaluate_float(float(a0))
    zero = Fraction(0) if state.mode == "exact" else 0.0
    total = zero
    for i in range(1, min(k, p.degree) + 1):
        factor = p.taylor_coefficient(i, a0 if state.mode == "exact" else float(a0))
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
        nxt = p.evaluate_float(cur)
        if abs(nxt - cur) < tol:
            return cur
        cur = nxt
    raise InconclusiveError(
        f"extinction iteration did not reach tol={tol} in {max_iter} steps "
        "(mean offspring may be at its critical value)",
        best=cur, delta=abs(p.evaluate_float(cur) - cur), iterations=max_iter)


def cesaro_coeffs(states: Sequence[CoeffState]) -> list[CoeffState]:
    """Running averages q^(n)_i = (1/n) sum over m <= n of a^[m]_i, one
    state of the same shape per n."""
    if not states:
        raise ValueError("cesaro_coeffs needs at least one state")
    K = states[0].truncation
    mode = states[0].mode
    if any(s.truncation != K or s.mode != mode for s in states):
        raise ValueError("states must share truncation and mode")
    out: list[CoeffState] = []
    if mode == "exact":
        acc = [Fraction(0)] * (K + 1)
        tail_acc = Fraction(0)
        for idx, st in enumerate(states, start=1):
            acc = [a + c for a, c in zip(acc, st.coeffs)]
            tail_acc += st.tail_mass
            out.append(CoeffState(
                n=idx, coeffs=tuple(a / idx for a in acc), truncation=K,
                tail_mass=tail_acc / idx, mode="exact"))
    else:
        acc = np.zeros(K + 1)
        tail_acc = 0.0
        for idx, st in enumerate(states, start=1):
            acc = acc + st.coeffs
            tail_acc += float(st.tail_mass)
            out.append(CoeffState(
                n=idx, coeffs=acc / idx, truncation=K,
                tail_mass=tail_acc / idx, mode="float"))
    return out


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
