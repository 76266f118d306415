"""Reference answers for the benchmark's correctness checks.

Nothing here imports simplexdyn.  Groups are rebuilt from their config
specs with their own multiplication rules, the structure of a point
(return time, support group, period, cosets of its powers) is computed
on supports only, and extinction values are solved with exact rationals
(quadratics) or 50-digit decimals (everything else).

The closed forms used for the expected outputs are the theorems the
program implements: the powers of a point settle on uniform
distributions on the cosets H*s^r of its support group H, and a series
limit is sum_r L_r * U(H*s^r) + a * (delta_e - U(H)) with L_r read off
the coset criterion on the cyclic quotient Z_m.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

DECIMAL_DIGITS = 50


class RefGroup:
    """A finite group given by labels, an identity and a product function."""

    def __init__(self, labels: list[str], mul, identity: int):
        self.labels = labels
        self.index = {lab: i for i, lab in enumerate(labels)}
        self.mul = mul
        self.e = identity
        self.order = len(labels)


def cyclic(n: int) -> RefGroup:
    return RefGroup([f"t^{i}" for i in range(n)], lambda i, j: (i + j) % n, 0)


def dihedral(n: int) -> RefGroup:
    """D_n as s^f r^k, index f*n + k; r^k s = s r^-k gives the product."""

    def mul(i: int, j: int) -> int:
        f1, k1 = divmod(i, n)
        f2, k2 = divmod(j, n)
        return (f1 ^ f2) * n + (k2 + (-k1 if f2 else k1)) % n

    labels = [f"r{k}" for k in range(n)] + [f"s{k}" for k in range(n)]
    return RefGroup(labels, mul, 0)


def cycle_label(perm: tuple[int, ...]) -> str:
    """Cycle notation, each cycle opened at its smallest point; "e" if none."""
    parts, seen = [], set()
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cyc, cur = [], start
        while cur not in seen:
            seen.add(cur)
            cyc.append(str(cur))
            cur = perm[cur]
        parts.append("(" + " ".join(cyc) + ")")
    return "".join(parts) or "e"


def symmetric(n: int) -> RefGroup:
    """S_n with (p q)(x) = p(q(x)), i.e. q applied first."""
    perms = list(itertools.permutations(range(n)))
    where = {p: i for i, p in enumerate(perms)}

    def mul(i: int, j: int) -> int:
        p, q = perms[i], perms[j]
        return where[tuple(p[x] for x in q)]

    group = RefGroup([cycle_label(p) for p in perms], mul, where[tuple(range(n))])
    group.perms = perms
    return group


def product(a: RefGroup, b: RefGroup) -> RefGroup:
    nb = b.order

    def mul(u: int, v: int) -> int:
        return a.mul(u // nb, v // nb) * nb + b.mul(u % nb, v % nb)

    labels = [f"({la},{lb})" for la in a.labels for lb in b.labels]
    return RefGroup(labels, mul, a.e * nb + b.e)


def build_group(spec: dict) -> RefGroup:
    kind = spec["kind"]
    if kind == "cyclic":
        return cyclic(spec["n"])
    if kind == "dihedral":
        return dihedral(spec["n"])
    if kind == "symmetric":
        return symmetric(spec["n"])
    if kind == "product":
        groups = [build_group(f) for f in spec["factors"]]
        out = groups[0]
        for g in groups[1:]:
            out = product(out, g)
        return out
    raise ValueError(f"no reference group for kind {kind!r}")


def is_odd(perm: tuple[int, ...]) -> bool:
    return sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
               if perm[i] > perm[j]) % 2 == 1


# ---------------------------------------------------------------- supports

def set_mul(g: RefGroup, a, b) -> frozenset:
    return frozenset(g.mul(x, y) for x in a for y in b)


def generated(g: RefGroup, seeds) -> frozenset:
    """Subgroup generated by seeds: right-multiplication closure from e."""
    gens: list[int] = []
    members = frozenset([g.e])
    for s in seeds:
        if s in members:
            continue
        gens.append(s)
        found, frontier = {g.e}, [g.e]
        while frontier:
            nxt = []
            for h in frontier:
                for t in gens:
                    z = g.mul(h, t)
                    if z not in found:
                        found.add(z)
                        nxt.append(z)
            frontier = nxt
        members = frozenset(found)
    return members


@dataclass(frozen=True)
class Structure:
    """Support-level profile of a point: powers[k-1] = Supp(x^k)."""

    powers: tuple[frozenset, ...]
    return_time: int
    period: int
    subgroup: frozenset

    def coset(self, g: RefGroup, r: int) -> frozenset:
        """Supp(U(H) * x^r) = H * s for any s in Supp(x^r); checked to hold."""
        if r == 0:
            return self.subgroup
        supp = self.powers[r - 1]
        s = next(iter(supp))
        cos = frozenset(g.mul(h, s) for h in self.subgroup)
        if not supp <= cos:
            raise AssertionError(f"Supp(x^{r}) is not inside one coset of H")
        return cos


def structure(g: RefGroup, support) -> Structure:
    base = frozenset(support)
    powers = [base]
    while g.e not in powers[-1]:
        if len(powers) > g.order:
            raise AssertionError("no power of the support reaches the identity")
        powers.append(set_mul(g, powers[-1], base))
    subgroup = generated(g, sorted(powers[-1]))
    period = next(k for k, p in enumerate(powers, start=1) if p <= subgroup)
    return Structure(tuple(powers), len(powers), period, subgroup)


def stabilize(g: RefGroup, support) -> tuple[Structure, int]:
    """Support-level reduce_to_stable: absorb H until the return time holds."""
    supp = frozenset(support)
    st = structure(g, supp)
    steps = 0
    while True:
        absorbed = set_mul(g, supp, st.subgroup)
        nxt = structure(g, absorbed)
        if nxt.return_time == st.return_time:
            return st, steps
        supp, st, steps = absorbed, nxt, steps + 1


def uniform(g: RefGroup, members) -> dict[str, Fraction]:
    share = Fraction(1, len(members))
    return {g.labels[i]: share for i in members}


# ------------------------------------------------------- quotient and series

def residue_cycle(r: int, m: int) -> tuple[int, list[int]]:
    """(preperiod, cycle) of r^n mod m for n = 1, 2, ..."""
    seq, first = [], {}
    value = r % m
    while value not in first:
        first[value] = len(seq)
        seq.append(value)
        value = value * r % m
    start = first[value]
    return start, seq[start:]


def _decimal_terms(terms) -> list[tuple[int, Decimal]]:
    return [(e, Decimal(c.numerator) / Decimal(c.denominator)) for e, c in terms]


def _evaluate(dec, t: Decimal) -> Decimal:
    return sum(c * t ** e if e else c for e, c in dec)


def extinction(terms: list[tuple[int, Fraction]]):
    """Smallest fixed point of p in [p(0), 1]: exact Fraction or Decimal.

    Shifted series give 0 and mean exponent <= 1 gives 1.  A supercritical
    quadratic a0 + a1 t + a2 t^2 has p(t) - t = a2 (t - 1)(t - a0/a2), so
    a = a0/a2.  Otherwise Newton's method on the convex p(t) - t, started
    at 0, climbs monotonically to the root at 50 digits.
    """
    if terms[0][0] >= 1:
        return Fraction(0)
    if sum(e * c for e, c in terms) <= 1:
        return Fraction(1)
    coeffs = dict(terms)
    if max(coeffs) == 2:
        return coeffs[0] / coeffs[2]
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        dec = _decimal_terms(terms)
        t = Decimal(0)
        for _ in range(10_000):
            f = _evaluate(dec, t) - t
            df = _evaluate([(e - 1, e * c) for e, c in dec if e], t) - 1
            step = f / df
            t -= step
            if abs(step) < Decimal(10) ** (-(DECIMAL_DIGITS - 5)):
                return t
    raise AssertionError("Newton iteration for the extinction value stalled")


def quotient_point(m: int, g: int, residues, a) -> list[float]:
    """Mass at each residue of Z_m: mean of U(res + <g>) plus a(delta_0 - U(<g>))."""
    size = m // g
    out = [0.0] * m
    for res in residues:
        for j in range(res % g, m, g):
            out[j] += 1.0 / (size * len(residues))
    af = float(a)
    if af:
        out[0] += af
        for j in range(0, m, g):
            out[j] -= af / size
    return out


def synthesize(grp: RefGroup, st: Structure, quotient: list[float], a) -> dict[str, float]:
    """sum_r L_r U(H s^r) + a (delta_e - U(H)) as label -> float."""
    out: dict[str, float] = {}
    size = len(st.subgroup)
    for r, mass in enumerate(quotient):
        if mass:
            for i in st.coset(grp, r):
                lab = grp.labels[i]
                out[lab] = out.get(lab, 0.0) + mass / size
    af = float(a)
    if af:
        e = grp.labels[grp.e]
        out[e] = out.get(e, 0.0) + af
        for i in st.subgroup:
            lab = grp.labels[i]
            out[lab] = out.get(lab, 0.0) - af / size
    return out


def series_prediction(grp: RefGroup, support, terms) -> dict:
    """Expected regular and Cesaro reports for a non-pure series."""
    st, steps = stabilize(grp, support)
    m = st.period
    shift = terms[0][0]
    g = math.gcd(m, *[e - shift for e, _ in terms if e != shift])
    pre, residues = residue_cycle(shift, m)
    a = extinction(terms)
    exists = all((res - residues[0]) % g == 0 for res in residues)
    classes = list(dict.fromkeys(res % g for res in residues))
    points = [quotient_point(m, g, [c], a) for c in classes]
    cesaro_q = quotient_point(m, g, residues, a)
    return {
        "structure": st, "steps": steps, "a": a, "exists": exists,
        "limit_q": points[0] if exists else None,
        "points": [synthesize(grp, st, q, a) for q in points],
        "cesaro_q": cesaro_q,
        "cesaro": synthesize(grp, st, cesaro_q, a),
        "cycle": {"cycle_preperiod": pre, "cycle_d": len(residues),
                  "cycle_residues": residues, "quotient_modulus": m},
    }


def pure_power_prediction(grp: RefGroup, support, r: int) -> dict:
    st = structure(grp, support)
    pre, residues = residue_cycle(r, st.period)
    points = [{grp.labels[i]: 1.0 / len(st.subgroup) for i in st.coset(grp, res)}
              for res in residues]
    cesaro: dict[str, float] = {}
    for pt in points:
        for lab, v in pt.items():
            cesaro[lab] = cesaro.get(lab, 0.0) + v / len(points)
    return {"structure": st, "points": points, "cesaro": cesaro,
            "cycle": {"cycle_preperiod": pre, "cycle_d": len(residues),
                      "cycle_residues": residues,
                      "divisibility_singleton": len(residues) == 1}}


def a0_sequence(terms, n: int) -> list[Decimal]:
    """a_0^[1] = p(0), a_0^[k+1] = p(a_0^[k]) at 50 digits."""
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        dec = _decimal_terms(terms)
        out, cur = [], Decimal(0)
        for _ in range(n):
            cur = _evaluate(dec, cur)
            out.append(+cur)
        return out
