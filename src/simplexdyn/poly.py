"""Probability polynomials and the kernels that series and algebra share.

A ProbPoly is a polynomial p(t) = sum a_k t^k with nonnegative rational
coefficients summing to 1.  Every config with a series builds one, so
this module holds only ProbPoly and the exact and power-sum kernels the
group algebra needs too; the coefficient iteration is in series, which
of the CLI commands only `scalar` and `verify` import.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from .record import Record, as_int


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
    sum is returned at the first of x, a square or a product that does:
    a vanished x costs no product at all.
    """
    out = 0 * one
    cast = one.dtype.type
    dense = one.dtype != object
    squares = []
    for e, c in terms:
        pw = one
        for i in range(e.bit_length()):
            if i == len(squares):
                squares.append(mul(squares[-1], squares[-1]) if squares else x)
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


_Triple = tuple[tuple[int, ...], tuple[int, ...], int]  # (support, u, D)


def _numerators(pairs: Iterable[tuple[int, Fraction]]) -> _Triple:
    """(support, u, D) of (index, Fraction) pairs in ascending index order:
    the indices of the nonzero Fractions, their integer numerators u over
    D, the lcm of their denominators, so the Fraction at support[k] is
    u[k] / D.  D is the lowest common denominator: gcd(u.., D) = 1."""
    nz = [(i, c) for i, c in pairs if c]
    den = math.lcm(*(c.denominator for _, c in nz))
    u = tuple(c.numerator * (den // c.denominator) for _, c in nz)
    return tuple(i for i, _ in nz), u, den


def _exact_product(a: _Triple, b: _Triple, n: int,
                   product: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> _Triple:
    """A bilinear product of two length-n rational vectors, computed on
    integers from their _numerators triples, as such a triple.

    With a = u / Du and b = v / Dv, returns product(u, v) / (Du * Dv) in
    lowest terms, u and v scattered into dense length-n operands.  product
    must sum, per output entry, at most one term u_i * v_j for each
    nonzero u_i.  u and v are int64 arrays when no such sum can reach
    2^63, where int64 would wrap silently, and object arrays of Python
    ints otherwise, so the result is exact.
    """
    (sa, u, du), (sb, v, dv) = a, b
    mu, mv = max(map(abs, u), default=0), max(map(abs, v), default=0)
    dtype = np.int64 if max(mu, mv, mu * mv * len(u)) < 2 ** 63 else object
    ua = np.zeros(n, dtype=dtype)
    ua.put(sa, u)
    va = np.zeros(n, dtype=dtype)
    va.put(sb, v)
    out = product(ua, va)
    (nz,) = out.nonzero()
    w = out[nz].tolist()
    g = math.gcd(du * dv, *w)
    return tuple(nz.tolist()), tuple(k // g for k in w), du * dv // g


def _ratio_text(n: int, den: int) -> str:
    """str(Fraction(n, den)) for den > 0, from one gcd and no Fraction."""
    g = math.gcd(n, den)
    return f"{n // g}/{den // g}" if den > g else str(n // g)
