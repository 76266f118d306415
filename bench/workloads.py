"""Seeded workload generation.

A workload is one pass: a fixed list of CLI operations over configs
drawn from a seed.  The seed picks group sizes, supports, weights and
series coefficients; the shape of the pass (which slot runs which
command on which kind of input) is the same for every seed, so runs
with different seeds measure the same mix.  The program only ever sees
the generated config files and command lines.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from reference import RefGroup, build_group, extinction, is_odd

WEIGHT_MAX = 20
# Point weights are drawn in WEIGHT_MIN..WEIGHT_MAX: a lopsided point such as
# {t^1: 1/16, t^9: 15/16} on Z_12 mixes too slowly for the limit-set oracle's
# 200-step burn-in cap, a recorded seed defect run as the named D60 case.
WEIGHT_MIN = 5
# Series drawn for ops that the oracles check contract at most this fast at
# their limit, so that the fixed 500-step regular oracle converges to its
# 1e-7 tolerance.  Slower (near-critical) series are a recorded seed defect,
# run as the named near-critical case (metric_map.json "seed_defects").
RATE_MAX = 0.9


@dataclass
class Config:
    name: str
    raw: dict                    # the JSON the program reads
    group: RefGroup              # reference rebuild of raw["group"]
    support: frozenset           # reference indices of the element's support
    terms: list | None = None    # series as sorted (exponent, Fraction) pairs


@dataclass
class Op:
    cmd: str
    config: Config
    args: list[str] = field(default_factory=list)
    horizon: int | None = None   # the oracle horizon the op passes, if any


def _weights_map(group: RefGroup, indices, rng: random.Random) -> dict[str, str]:
    weights = {i: rng.randint(WEIGHT_MIN, WEIGHT_MAX) for i in indices}
    total = sum(weights.values())
    return {group.labels[i]: str(Fraction(w, total)) for i, w in weights.items()}


def _series(exponents, rng: random.Random) -> list[tuple[int, Fraction]]:
    weights = [rng.randint(1, WEIGHT_MAX) for _ in exponents]
    total = sum(weights)
    return sorted((e, Fraction(w, total)) for e, w in zip(exponents, weights))


def contraction_rate(terms) -> float:
    """p'(a) at the extinction value a: how fast a <- p(a) approaches a."""
    a = float(extinction(terms))
    return sum(e * float(c) * a ** (e - 1) for e, c in terms if e > 0)


def series_supercritical_quadratic(rng):
    """a0 + a1 t + a2 t^2 with a2 > a0: extinction value a0/a2."""
    while True:
        terms = _series([0, 1, 2], rng)
        if terms[2][1] > terms[0][1] and contraction_rate(terms) <= RATE_MAX:
            return terms


def series_subcritical(rng):
    """a0 + a2 t^2 with a0 >= a2: mean exponent <= 1, extinction value 1."""
    while True:
        terms = _series([0, 2], rng)
        if terms[0][1] >= terms[1][1]:
            return terms


def series_shifted(rng, shift: int | None = None):
    """t^r (b0 + ... + bk t^q) with r >= 1 and degree 6 (r random in 1..3),
    or degree r + 5 for a given shift r: extinction value 0."""
    r = shift or rng.randint(1, 3)
    top = r + 5 if shift else 6
    while True:
        terms = _series([r] + rng.sample(range(r + 1, top), rng.randint(0, 1)) + [top], rng)
        if contraction_rate(terms) <= RATE_MAX:
            return terms


def series_noncritical(rng, degree: int = 6):
    """Degree-`degree` series with 1 to 3 more random exponents, redrawn while
    critical or near it."""
    while True:
        exps = rng.sample(range(degree), rng.randint(1, 3)) + [degree]
        terms = _series(exps, rng)
        if contraction_rate(terms) <= RATE_MAX:
            return terms


def _terms(series: dict) -> list[tuple[int, Fraction]]:
    return sorted((int(e), Fraction(c)) for e, c in series.items())


def series_json(terms) -> dict[str, str]:
    return {str(e): str(c) for e, c in terms}


class _Builder:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.configs: list[Config] = []
        self.ops: list[Op] = []
        self.defects: list[Op] = []
        self._groups: dict[str, RefGroup] = {}

    def group(self, spec: dict) -> RefGroup:
        key = repr(spec)
        if key not in self._groups:
            self._groups[key] = build_group(spec)
        return self._groups[key]

    def config(self, name, spec, element, terms=None, series=None) -> Config:
        """element: a set of reference indices (random weights) or a label map."""
        grp = self.group(spec)
        raw = {"group": spec}
        if element is not None:
            if isinstance(element, dict):
                raw["element"] = element
                support = frozenset(grp.index[lab] for lab in element)
            else:
                raw["element"] = _weights_map(grp, sorted(element), self.rng)
                support = frozenset(element)
        else:
            support = frozenset()
        if terms is not None:
            raw["series"] = series_json(terms)
        elif series is not None:
            raw["series"] = series
        cfg = Config(f"{len(self.configs):02d}-{name}", raw, grp, support, terms)
        self.configs.append(cfg)
        return cfg

    def op(self, cmd: str, cfg: Config, horizon: int | None = None, *extra: str):
        args = list(extra)
        if horizon is not None:
            args += ["--horizon", str(horizon)]
        self.ops.append(Op(cmd, cfg, args, horizon))

    def defect(self, cmd: str, cfg: Config):
        """An operation whose seed outcome is a recorded defect (metric_map.json
        "seed_defects").  It runs once per invocation after the timed passes and
        is checked and reported like any other, but it is neither timed nor
        counted in the result's correct/failed."""
        self.defects.append(Op(cmd, cfg))


def _sym(n: int) -> dict:
    return {"kind": "symmetric", "n": n}


def _cyc(n: int) -> dict:
    return {"kind": "cyclic", "n": n}


def _dih(n: int) -> dict:
    return {"kind": "dihedral", "n": n}


def _prod(*factors) -> dict:
    return {"kind": "product", "factors": list(factors)}


def _odd_perms(b: _Builder, spec: dict, k: int) -> set[int]:
    grp = b.group(spec)
    odd = [i for i, p in enumerate(grp.perms) if is_odd(p)]
    return set(b.rng.sample(odd, k))


def _without_identity(b: _Builder, spec: dict, k: int) -> set[int]:
    grp = b.group(spec)
    return set(b.rng.sample([i for i in range(grp.order) if i != grp.e], k))


def dense_exact(seed: int) -> _Builder:
    """Symmetric, dihedral and small product groups with dense exact points."""
    b = _Builder(random.Random(f"dense-exact:{seed}"))
    rng = b.rng
    s4, s5, s6 = _sym(4), _sym(5), _sym(6)
    dn = _dih(rng.randint(41, 43))
    dm = _dih(rng.randint(57, 59))
    s3c4 = _prod(_sym(3), _cyc(4))
    s4c5 = _prod(_sym(4), _cyc(5))
    s4_int = b.config("S4-interior", s4, range(24), series_supercritical_quadratic(rng))
    s5_int = b.config("S5-interior", s5, range(120), series_supercritical_quadratic(rng))
    s5_pow = b.config("S5-interior-power", s5, range(120), series="pure-power:2")
    s5_odd = b.config("S5-odd", s5, _odd_perms(b, s5, rng.randint(20, 30)),
                      series="pure-power:2")
    s6_odd = b.config("S6-odd", s6, _odd_perms(b, s6, rng.randint(20, 30)))
    d_refl = b.config("D-reflections", dn,
                      {rng.randint(0, dn["n"] - 1) + dn["n"] for _ in range(12)},
                      series_shifted(rng))
    d_int = b.config("D-interior", dm, range(2 * dm["n"]), series_supercritical_quadratic(rng))
    grp = b.group(s3c4)
    coset = [i for i in range(grp.order) if grp.labels[i].endswith(",t^1)")]
    p_cos = b.config("S3xC4-coset", s3c4, set(rng.sample(coset, 3)), series="pure-power:3")
    p_int = b.config("S4xC5-interior", s4c5, range(120), series_shifted(rng))
    noid = b.config("no-identity", s5, _without_identity(b, s5, 40), series_shifted(rng))
    for cfg in (s4_int, s5_odd, s6_odd, d_refl, p_int):
        b.op("profile", cfg)
    for cfg in (s5_int, s5_odd, d_int, p_cos):
        b.op("limit-set", cfg, 3000)
    for cfg in (s5_int, s5_pow, d_refl, d_int, p_cos, noid, p_int):
        b.op("predict", cfg)
    for cfg in (s4_int, s5_odd, p_cos, noid):
        b.op("verify", cfg)
    _scalar_ops(b, s4, (series_supercritical_quadratic, series_subcritical, series_shifted))
    return b


def _scalar_ops(b: _Builder, spec: dict, kinds) -> None:
    """One scalar trace per series generator in kinds."""
    for kind in kinds:
        b.op("scalar", b.config("series-only", spec, None, kind(b.rng)))


def sparse_cyclic(seed: int) -> _Builder:
    """Large cyclic, dihedral and abelian product groups with sparse points."""
    b = _Builder(random.Random(f"sparse-cyclic:{seed}"))
    rng = b.rng

    def unit(n):
        while True:
            u = rng.randint(1, n - 1)
            if math.gcd(u, n) == 1:
                return u

    def composite(lo, hi):
        while True:
            n = rng.randint(lo, hi)
            if any(n % p == 0 for p in (2, 3, 5, 7)):
                return n

    # Shift 7 has order 4 modulo 100 and 200, so the two long synthesis
    # chains below always run over a 4-cycle of residues.
    n1 = rng.randint(495, 505)
    c_gen = b.config("C-generator", _cyc(n1), {unit(n1)})
    c_non = b.config("C-nongenerator", _cyc(400), {4 * unit(100)}, series_shifted(rng, 7))
    dn = rng.choice([198, 200, 202])
    d_pair = b.config("D-rotation-reflection", _dih(dn), {unit(dn), dn + rng.randint(0, dn - 1)},
                      series_shifted(rng))
    ab_mass = b.config("C20xC20-mass", _prod(_cyc(20), _cyc(20)), {unit(20) * 20 + unit(20)},
                       series_shifted(rng))
    m2 = composite(118, 122)
    c_mid = b.config("C-generator-mid", _cyc(200), {unit(200)}, series_shifted(rng, 7))
    ds = rng.choice([64, 66])
    d_small = b.config("D-pair-small", _dih(ds), {unit(ds), ds + rng.randint(0, ds - 1)},
                       series_supercritical_quadratic(rng))
    c_pow = b.config("C-generator-power", _cyc(m2), {unit(m2)},
                     series=f"pure-power:{rng.choice([2, 3])}")
    ni, nj = rng.randint(93, 97), rng.randint(63, 67)
    c_int = b.config("C-interior", _cyc(ni), range(ni), series_supercritical_quadratic(rng))
    c_int2 = b.config("C-interior-small", _cyc(nj), range(nj), series_shifted(rng))
    nt = composite(43, 47)
    c_tiny = b.config("C-generator-tiny", _cyc(nt), {unit(nt)}, series="pure-power:2")
    for cfg in (c_gen, c_non, d_pair, ab_mass, c_mid, d_small):
        b.op("profile", cfg)
    for cfg in (c_non, d_pair, ab_mass, c_mid, d_small, c_pow):
        b.op("predict", cfg)
    for cfg in (c_int, c_int2, c_tiny):
        b.op("limit-set", cfg)
        b.op("verify", cfg)
    _scalar_ops(b, _cyc(2), (series_supercritical_quadratic, series_shifted))
    return b


# Test-zoo groups (orders <= 24) for the verify slots, one oracle horizon each.
ZOO_VERIFY = ((_cyc(12), None), (_sym(4), 2000), (_dih(12), 5000), (_cyc(24), 10000),
              (_cyc(12), 5000), (_sym(4), 5000))
ZOO_POINTS = (_dih(4), _prod(_cyc(2), _cyc(2)))

NAMED_SERIES = {"worked": {"3": "1/2", "7": "1/2"},
                "irrational": {"0": "1/3", "3": "2/3"},
                "near-critical": {"0": "4999/10000", "2": "5001/10000"},
                "extinction-tolerance": {"0": "5/11", "1": "13/44", "5": "5/44", "6": "3/22"}}


def oracle_verify(seed: int) -> _Builder:
    """Test-zoo points with the float oracles, plus the named cases."""
    b = _Builder(random.Random(f"oracle-verify:{seed}"))
    rng = b.rng

    def named(name, spec, element, series):
        return b.config(name, spec, element, _terms(series))

    c10 = named("C10-worked", _cyc(10), {"t^1": "1"}, NAMED_SERIES["worked"])
    c12 = named("C12-worked", _cyc(12), {"t^1": "1"}, NAMED_SERIES["worked"])
    d60 = named("D60-two-point", _dih(30), {"r1": "1/2", "s0": "1/2"},
                {"0": "1/3", "2": "2/3"})
    irr = named("irrational", _cyc(6), range(6), NAMED_SERIES["irrational"])
    near = named("near-critical", _cyc(6), range(6), NAMED_SERIES["near-critical"])
    tol = named("extinction-tolerance", _cyc(6), range(6), NAMED_SERIES["extinction-tolerance"])
    for cfg in (c10, c12, irr):
        b.op("verify", cfg)
        b.op("predict", cfg)
    b.defect("verify", d60)
    b.defect("verify", near)
    b.defect("predict", near)
    b.defect("predict", tol)
    b.op("scalar", irr)
    b.op("scalar", near)
    for i, (spec, horizon) in enumerate(ZOO_VERIFY):
        cfg = b.config(f"zoo-{i}", spec, range(b.group(spec).order), series_noncritical(rng))
        b.op("verify", cfg, horizon)
    coset = rng.sample([1, 5, 9], 2)   # inside t^1 + <t^4> of Z_12: a nontrivial cycle
    pp = b.config("zoo-pure-power", _cyc(12), set(coset),
                  series=f"pure-power:{rng.choice([2, 3])}")
    b.op("verify", pp)
    b.op("predict", pp)
    for i, spec in enumerate(ZOO_POINTS):
        point = b.config(f"zoo-point-{i}", spec, range(b.group(spec).order),
                         series_supercritical_quadratic(rng))
        b.op("profile", point)
        b.op("limit-set", point, 3000)
        b.op("verify", point)
        b.op("predict", point)
    wide = _series([0, 1, 64], rng)
    b.op("scalar", b.config("series-degree-64", _cyc(2), None, wide),
         6, "--truncation", "4096")
    return b


WORKLOADS = {
    "dense-exact": dense_exact,
    "sparse-cyclic": sparse_cyclic,
    "oracle-verify": oracle_verify,
}
