"""Broadcast-built Cayley tables, and the identity and inverses read off
them, against per-entry definitions; group equality."""

import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from simplexdyn import (delta, direct_product, from_cayley_table, make_cyclic,
                        make_dihedral, make_symmetric, multiply)


@given(st.integers(1, 64))
@example(257)  # the first uint16 table
def test_cyclic_table_is_addition_mod_n(n):
    g = make_cyclic(n)
    assert g.table.tolist() == [[(i + j) % n for j in range(n)] for i in range(n)]
    assert g.identity == 0
    assert g.inverses == tuple((-i) % n for i in range(n))


def _dihedral_entry(n, i, j):
    f1, k1 = divmod(i, n)
    f2, k2 = divmod(j, n)
    if f1 == 0 and f2 == 0:
        return (k1 + k2) % n
    if f1 == 0 and f2 == 1:
        return n + (k2 - k1) % n
    if f1 == 1 and f2 == 0:
        return n + (k1 + k2) % n
    return (k2 - k1) % n


@given(st.integers(1, 32))
@example(129)
def test_dihedral_table_follows_the_four_case_rule(n):
    g = make_dihedral(n)
    assert g.table.tolist() == [[_dihedral_entry(n, i, j) for j in range(2 * n)]
                                for i in range(2 * n)]
    assert g.identity == 0
    # rotations r^k invert to r^-k, reflections are their own inverses
    assert g.inverses == tuple((-k) % n for k in range(n)) + tuple(range(n, 2 * n))


def test_symmetric_table_is_composition_in_lexicographic_order():
    """Every row up to S5; a seeded sample of 40 rows of S6."""
    rng = random.Random(6)
    for n in range(1, 7):
        g = make_symmetric(n)
        perms = list(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        rows = range(len(perms)) if n < 6 else sorted(rng.sample(range(len(perms)), 40))
        for i in rows:
            p = perms[i]
            assert g.table[i].tolist() == [index[tuple(p[q[x]] for x in range(n))]
                                           for q in perms]
            assert perms[g.inverses[i]] == tuple(p.index(y) for y in range(n))
        assert perms[g.identity] == tuple(range(n))


_FACTORS = st.one_of(
    st.integers(1, 8).map(make_cyclic),
    st.integers(1, 4).map(make_dihedral),
    st.integers(1, 3).map(make_symmetric),
)


@settings(max_examples=40, deadline=None)
@given(_FACTORS, _FACTORS)
@example(make_cyclic(2), make_dihedral(65))  # int32 factors, uint16 product
@example(make_dihedral(130), make_cyclic(1))  # uint16 offsets plus an int32 table
@example(make_cyclic(1), make_cyclic(257))
def test_product_table_is_componentwise(a, b):
    g = direct_product(a, b)
    nb = b.order
    assert g.table.tolist() == [
        [a.mul(u // nb, v // nb) * nb + b.mul(u % nb, v % nb) for v in range(g.order)]
        for u in range(g.order)]
    assert g.identity == a.identity * nb + b.identity
    assert g.inverses == tuple(a.inverses[u // nb] * nb + b.inverses[u % nb]
                               for u in range(g.order))


def test_tables_are_read_only():
    g = make_cyclic(5)
    with pytest.raises(ValueError):
        g.table[0, 0] = 1


def test_equal_groups_compare_and_hash_equal():
    g, h = make_dihedral(7), make_dihedral(7)
    assert g is not h
    assert g == h and hash(g) == hash(h)
    r1, s2 = g.index_of("r1"), h.index_of("s2")
    assert multiply(delta(g, r1), delta(h, s2)) == delta(g, g.mul(r1, s2))


def test_groups_of_one_order_with_different_tables_are_unequal():
    c8, d4 = make_cyclic(8), make_dihedral(4)
    assert c8 != d4
    with pytest.raises(ValueError):
        multiply(delta(c8, 1), delta(d4, 1))
    z4 = from_cayley_table([[(i + j) % 4 for j in range(4)] for i in range(4)])
    klein = from_cayley_table([[i ^ j for j in range(4)] for i in range(4)])
    assert z4.labels == klein.labels and z4 != klein
