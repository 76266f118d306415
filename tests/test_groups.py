"""Group construction, validation, and subgroup generation."""

import re
import tracemalloc

import numpy as np
import pytest

from simplexdyn import (FiniteGroup, direct_product, from_cayley_table,
                        generated_subgroup, make_cyclic, make_dihedral,
                        make_symmetric)
from simplexdyn.groups import ElementSet, _table_dtype, read_cayley_csv

from conftest import element_order


def test_cyclic_structure():
    g = make_cyclic(6)
    assert g.order == 6
    assert g.identity == 0
    assert g.labels == ("t^0", "t^1", "t^2", "t^3", "t^4", "t^5")
    assert g.mul(4, 5) == 3
    assert g.inverses[2] == 4
    assert element_order(g, 2) == 3
    assert g.index_of("t^3") == 3


def test_cyclic_rejects_bad_order():
    with pytest.raises(ValueError):
        make_cyclic(0)


def test_trivial_group():
    g = make_cyclic(1)
    assert g.order == 1
    assert g.mul(0, 0) == 0


def test_dihedral_structure():
    g = make_dihedral(4)
    assert g.order == 8
    r1 = g.index_of("r1")
    s0 = g.index_of("s0")
    assert element_order(g, r1) == 4
    assert element_order(g, s0) == 2
    assert g.mul(r1, s0) != g.mul(s0, r1)
    # reflection conjugates a rotation to its inverse
    assert g.mul(g.mul(s0, r1), s0) == g.inverses[r1]


def test_symmetric_structure():
    g = make_symmetric(3)
    assert g.order == 6
    assert sorted(element_order(g, i) for i in range(6)) == [1, 2, 2, 2, 3, 3]
    transpositions = [i for i in range(6) if element_order(g, i) == 2]
    a, b = transpositions[0], transpositions[1]
    assert g.mul(a, b) != g.mul(b, a)


def test_symmetric_rejects_large_degree():
    with pytest.raises(ValueError):
        make_symmetric(9)


def test_direct_product():
    g = direct_product(make_cyclic(2), make_cyclic(3))
    assert g.order == 6
    assert element_order(g, g.index_of("(t^1,t^1)")) == 6
    klein = direct_product(make_cyclic(2), make_cyclic(2))
    assert all(g2 == klein.identity or element_order(klein, g2) == 2
               for g2 in range(4))


def test_from_cayley_table_validates():
    z3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    g = from_cayley_table(z3, labels=("e", "a", "b"))
    assert g.order == 3
    # Z_4 under i*j = i + j + 2 mod 4: the identity is 2, the inverse of i is -i
    g = from_cayley_table([[(i + j + 2) % 4 for j in range(4)] for i in range(4)])
    assert (g.identity, g.inverses) == (2, (0, 3, 2, 1))
    # Break associativity: a*a = a makes the table a non-group.
    broken = [[0, 1, 2], [1, 1, 0], [2, 0, 1]]
    with pytest.raises(ValueError):
        from_cayley_table(broken, labels=("e", "a", "b"))
    # A row that is not a permutation.
    not_latin = [[0, 1, 2], [1, 1, 0], [2, 0, 2]]
    with pytest.raises(ValueError):
        from_cayley_table(not_latin, labels=("e", "a", "b"))


@pytest.mark.parametrize("table, message", [
    # a Latin square with identity 0 in which 2, 3 and 4 have one-sided
    # inverses only: 2*3 = 3*4 = 4*2 = 0 but 3*2, 4*3 and 2*4 are not
    ([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0],
      [4, 2, 0, 1, 3]], "element 2 has no two-sided inverse"),
    # x*y = -x-y mod 3: a Latin square whose only candidate, 0, is no identity
    ([[0, 2, 1], [2, 1, 0], [1, 0, 2]], "table has no two-sided identity element"),
], ids=["one-sided-inverses", "no-identity"])
def test_from_cayley_table_rejects_latin_squares_that_are_no_groups(table, message):
    with pytest.raises(ValueError, match=message):
        from_cayley_table(table)


def test_finite_group_freezes_the_array_it_is_handed():
    arr = np.array([[0, 1], [1, 0]], dtype=np.int32)
    g = FiniteGroup(("e", "a"), arr)
    assert g.table is arr and not arr.flags.writeable
    with pytest.raises(ValueError):
        arr[0, 0] = 1
    # any other integer dtype is converted to the group's int32 table once
    wide = np.array([[0, 1], [1, 0]], dtype=np.intp)
    g = FiniteGroup(("e", "a"), wide)
    assert g.table is not wide and g.table.dtype == np.int32
    assert not g.table.flags.writeable and g.table.base is None
    # above order 256 the group's dtype is uint16, kept in place likewise
    labels = [f"g{i}" for i in range(300)]
    arr = make_cyclic(300).table.copy()
    g = FiniteGroup(labels, arr)
    assert g.table is arr and arr.dtype == np.uint16 and not arr.flags.writeable
    wide = arr.astype(np.int32)
    g = FiniteGroup(labels, wide)
    assert g.table is not wide and g.table.dtype == np.uint16
    assert not g.table.flags.writeable and g.table.base is None


@pytest.mark.parametrize("n, dtype", [
    (1, np.int32), (256, np.int32), (257, np.uint16), (65_536, np.uint16),
    (65_537, np.int32), (2 ** 31 - 1, np.int32),
])
def test_table_dtype_by_order(n, dtype):
    # uint16 only where it pays: a table above 256 rows that it can index
    assert _table_dtype(n) == dtype


@pytest.mark.parametrize("build, dtype", [
    (lambda: make_cyclic(256), np.int32),
    (lambda: make_cyclic(257), np.uint16),
    (lambda: make_dihedral(128), np.int32),
    (lambda: make_dihedral(129), np.uint16),
    (lambda: make_symmetric(5), np.int32),
    (lambda: make_symmetric(6), np.uint16),
    (lambda: direct_product(make_cyclic(16), make_cyclic(16)), np.int32),
    (lambda: direct_product(make_cyclic(17), make_cyclic(17)), np.uint16),
    (lambda: direct_product(make_cyclic(300), make_cyclic(1)), np.uint16),
    (lambda: from_cayley_table(make_cyclic(300).table.tolist()), np.uint16),
], ids=["C256", "C257", "D128", "D129", "S5", "S6", "C16xC16", "C17xC17",
        "C300xC1", "from-list-300"])
def test_builders_write_the_dtype_of_the_order(build, dtype):
    assert build().table.dtype == dtype


def _c300_with_a_wrapping_entry() -> np.ndarray:
    idx = np.arange(300, dtype=np.int64)
    table = (idx[:, None] + idx) % 300
    table[1, 299] += 1 << 16  # 0 + 65,536: uint16 would wrap it back to 0
    return table


@pytest.mark.parametrize("table", [
    np.array([[0, 1], [1, 2 ** 32]], dtype=np.int64),
    np.array([[0, 2 ** 32 + 1], [1, 0]], dtype=np.uint64),
    _c300_with_a_wrapping_entry(),
], ids=["int64", "uint64", "int64-order-300"])
def test_entries_are_range_checked_before_the_int32_cast(table):
    # cast to the group's dtype first (int32 for Z_2, uint16 for order
    # 300), each would wrap to the valid cyclic table of its order
    cyclic = make_cyclic(len(table)).table
    assert table.astype(cyclic.dtype).tolist() == cyclic.tolist()
    labels = [f"g{i}" for i in range(len(table))]
    for build in (from_cayley_table, lambda t: FiniteGroup(labels, t)):
        with pytest.raises(ValueError,
                           match="cayley table entries must be element indices in range"):
            build(table)


@pytest.mark.parametrize("table", [
    [[0, 1], [1.5, 0]],     # int(1.5) would truncate to a valid Z_2 table
    [[0, 1], [1]],
    [[0, 1], [1, 0, 1]],
], ids=["non-integer", "short-row", "long-row"])
def test_from_cayley_table_rejects_malformed_entries(table):
    with pytest.raises(ValueError):
        from_cayley_table(table)


def test_from_cayley_table_rejects_nonassociative_order_128():
    # Z_128 with one intercalate moved off the identity row, column and
    # entries: still a Latin square with identity and two-sided inverses.
    n, i, k = 128, 1, 2
    table = [[(r + c) % n for c in range(n)] for r in range(n)]
    for r, c in [(i, k), (i, k + 64), (i + 64, k), (i + 64, k + 64)]:
        table[r][c] = (table[r][c] + 64) % n
    assert all(sorted(row) == list(range(n)) for row in table)
    assert all(sorted(col) == list(range(n)) for col in zip(*table))
    assert table[0] == list(range(n)) and [row[0] for row in table] == list(range(n))
    assert all(table[r][(n - r) % n] == 0 == table[(n - r) % n][r] for r in range(n))
    with pytest.raises(ValueError, match="associativity"):
        from_cayley_table(table)


@pytest.mark.parametrize("build, n", [
    (lambda: make_cyclic(2000), 2000),
    (lambda: direct_product(make_cyclic(30), make_cyclic(40)), 1200),
    (lambda: make_symmetric(6), 720),
], ids=["C2000", "C30xC40", "S6"])
def test_construction_memory_is_bounded(build, n):
    # Building and validating holds the uint16 table (orders 257 to
    # 65,536), the n^2-byte Latin mask or inverse scan and one row block at
    # a time: 0.39-0.45 of an n x n int64 table.  An int32 table held
    # 0.64-0.77, an intp table with an int32 working copy about 1.7, and
    # whole-table gathers about 2.7.
    assert _traced_peak(build) <= 0.5 * n * n * 8


def test_subgroup_closure_memory_is_bounded():
    # The closure gathers S x S one block of rows at a time on the group's
    # table; gathering all |S| x n rows first added 0.75 of an int64 table
    # for the index-2 subgroup of S6.
    g = make_symmetric(6)
    seed = (g.index_of("(0 1 2)"), g.index_of("(1 2 3 4 5)"))
    peak = _traced_peak(lambda: generated_subgroup(g, seed))
    assert len(generated_subgroup(g, seed)) == 360
    assert peak <= 0.2 * g.order * g.order * 8


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("build", [lambda: make_cyclic(2000), lambda: make_symmetric(6)],
                         ids=["C2000", "S6"])
def test_every_label_round_trips(build):
    g = build()
    assert [g.index_of(label) for label in g.labels] == list(range(g.order))
    with pytest.raises(ValueError, match="unknown element label 'x'"):
        g.index_of("x")


@pytest.mark.parametrize("build", [make_cyclic, make_dihedral, make_symmetric])
@pytest.mark.parametrize("size", [True, np.True_, 2.5])
def test_builders_reject_bool_and_fractional_sizes(build, size):
    with pytest.raises(ValueError, match=re.escape(repr(size))):
        build(size)


@pytest.mark.parametrize("build", [make_cyclic, make_dihedral, make_symmetric])
def test_builders_accept_integral_sizes(build):
    g = build(4)
    assert build(np.int64(4)) == g
    assert build(4.0) == g


def test_read_cayley_csv(tmp_path):
    path = tmp_path / "klein.csv"
    path.write_text("e,a,b,c\n"
                    "e,a,b,c\n"
                    "a,e,c,b\n"
                    "b,c,e,a\n"
                    "c,b,a,e\n")
    g = read_cayley_csv(str(path))
    assert g.order == 4
    assert g.labels == ("e", "a", "b", "c")
    a, b, c = g.index_of("a"), g.index_of("b"), g.index_of("c")
    assert g.mul(a, b) == c


def test_generated_subgroup():
    g = make_cyclic(12)
    sub = generated_subgroup(g, (4,))
    assert sorted(sub.members) == [0, 4, 8]
    assert generated_subgroup(g, (5,)).members == tuple(range(12))
    assert generated_subgroup(g, (0,)).members == (0,)
    with pytest.raises(ValueError):
        generated_subgroup(g, ())
    assert generated_subgroup(g, (np.int64(4),)).members == (0, 4, 8)
    d4 = make_dihedral(4)
    rotations = generated_subgroup(d4, (d4.index_of("r1"),))
    assert len(rotations) == 4


def test_element_set_operations():
    g = make_cyclic(6)
    sub = generated_subgroup(g, (2,))
    assert 4 in sub and 3 not in sub
    assert len(sub) == 3
    assert sub.label_list() == ["t^0", "t^2", "t^4"]
    assert ElementSet(g, (np.int32(3), 1)).members == (1, 3)


@pytest.mark.parametrize("index", [1.5, 4.7, True, np.True_, np.float64(2.5)])
def test_fractional_and_bool_indices_are_rejected_not_truncated(index):
    # int() would turn 4.7 into 4 and True into 1, both valid in C12
    g = make_cyclic(12)
    message = re.escape(f"expected an integer, got {index!r}")
    with pytest.raises(ValueError, match=message):
        generated_subgroup(g, [index])
    with pytest.raises(ValueError, match=message):
        ElementSet(g, (index,))


def test_conv_index_gathers_products():
    # the table realizes (x*y)[g] = sum_h x[h] y[h^{-1} g]
    g = make_symmetric(3)
    conv = g.conv_index
    assert isinstance(conv, np.ndarray)
    for gi in range(6):
        for hi in range(6):
            assert conv[hi, gi] == g.mul(g.inverses[hi], gi)


@pytest.mark.parametrize("dtype", [np.intp, np.int32])
def test_from_cayley_table_keeps_no_handle_on_the_callers_array(dtype):
    # the builders hand their fresh tables over uncopied; a table the
    # caller still holds must be copied, so mutating it later cannot
    # reach the validated group
    z3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    arr = np.array(z3, dtype=dtype)
    g = from_cayley_table(arr)
    arr[:] = 0
    assert g.table.tolist() == z3
    assert not g.table.flags.writeable
    assert g.mul(1, 1) == 2
