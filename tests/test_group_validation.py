"""The group validator against a reference copy of its intp form.

The three functions below are the validator as it stood before it moved
onto an int32 working copy, copied verbatim.  Hypothesis feeds both the
same tables, groups and near-groups, and requires the same (identity,
inverses) or the same ValueError message.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from simplexdyn import direct_product, make_cyclic, make_dihedral, make_symmetric
from simplexdyn.groups import _as_table, _validate_group as validate

from conftest import build_zoo


# --- reference: the intp validator, verbatim --------------------------------

def _validate_group(labels: tuple[str, ...],
                    table: np.ndarray) -> tuple[int, tuple[int, ...]]:
    """Check the group axioms on a square table; return (identity, inverses).

    In a Latin square exactly one x has x * g_0 = g_0, the only candidate
    for the identity e, and the inverse of g_i can only be the position
    of e in row i; both are then checked two-sided.
    """
    n = len(table)
    if n < 1:
        raise ValueError(f"group order must be positive, got {n}")
    if len(labels) != n or len(set(labels)) != n:
        raise ValueError("labels must be exactly one distinct string per element")
    if table.min() < 0 or table.max() >= n:
        raise ValueError("cayley table entries must be element indices in range")

    idx = np.arange(n)
    in_row = np.zeros((n, n), dtype=bool)
    in_row[idx[:, None], table] = True
    in_col = np.zeros((n, n), dtype=bool)
    in_col[table, idx] = True
    if not (in_row.all() and in_col.all()):
        raise ValueError("cayley table is not a Latin square")

    e = int(np.argmax(table[:, 0] == 0))
    if not (np.array_equal(table[e], idx) and np.array_equal(table[:, e], idx)):
        raise ValueError("table has no two-sided identity element")
    inv = np.argmax(table == e, axis=1)
    two_sided = table[inv, idx] == e
    if not two_sided.all():
        raise ValueError(f"element {int(np.argmin(two_sided))} has no two-sided inverse")

    _check_associative(table, e)
    return e, tuple(inv.tolist())


def _check_associative(table: np.ndarray, e: int) -> None:
    """Light's test over a greedily picked generating set (see module doc).

    The identity passes trivially and the elements that pass are closed
    under products, so once the closure of the picks covers the table,
    the whole operation is associative.
    """
    max_picks = len(table).bit_length() - 1
    closed = _closure(table, [e])
    for _ in range(max_picks):
        if closed.all():
            return
        a = int(np.argmin(closed))
        if not np.array_equal(table[table[:, a]], table[:, table[a]]):
            raise ValueError(
                f"associativity fails: (x*a)*y != x*(a*y) for generator a = {a}")
        closed[a] = True
        closed = _closure(table, np.flatnonzero(closed))
    if not closed.all():
        raise ValueError(
            f"table needs more than {max_picks} generators, so it is not a group")


def _closure(table: np.ndarray, members) -> np.ndarray:
    """Membership mask of the product closure of members, which must
    include the identity: then S lies inside S*S, so squaring until the
    size stops growing reaches the closure."""
    mask = np.zeros(len(table), dtype=bool)
    mask[members] = True
    while True:
        members = np.flatnonzero(mask)
        mask[table[np.ix_(members, members)]] = True
        if np.count_nonzero(mask) == len(members):
            return mask


# --- tables -----------------------------------------------------------------

def _groups() -> list:
    """The conftest zoo plus a few groups that need more generators."""
    extra = [make_symmetric(4), make_dihedral(6), make_cyclic(32),
             direct_product(make_cyclic(2), make_cyclic(4)),
             direct_product(make_cyclic(2), direct_product(make_cyclic(2),
                                                           make_cyclic(2)))]
    return [g.table for _, g in sorted(build_zoo().items())] + [t.table for t in extra]


TABLES = _groups()


def _intercalates(table: np.ndarray) -> list:
    """Every 2x2 Latin subsquare (r1, r2, c1, c2) off row and column 0."""
    n = len(table)
    position = np.argsort(table, axis=1)  # position[r, x] = column of x in row r
    found = []
    for r1 in range(1, n):
        for r2 in range(r1 + 1, n):
            c2 = position[r2, table[r1]]  # table[r2, c2[c1]] == table[r1, c1]
            for c1 in range(1, n):
                if c2[c1] > c1 and table[r1, c2[c1]] == table[r2, c1]:
                    found.append((r1, r2, c1, int(c2[c1])))
    return found


INTERCALATES = [(i, q) for i, t in enumerate(TABLES) for q in _intercalates(t)]


@st.composite
def relabelled(draw, index=None):
    """A group table under a random relabelling sigma:
    T'[sigma(i), sigma(j)] = sigma(T[i, j])."""
    if index is None:
        index = draw(st.integers(0, len(TABLES) - 1))
    table = TABLES[index]
    sigma = np.array(draw(st.permutations(range(len(table)))), dtype=np.intp)
    out = np.empty_like(table)
    out[np.ix_(sigma, sigma)] = sigma[table]
    return out, sigma


def _outcome(check, table: np.ndarray):
    labels = tuple(f"g{i}" for i in range(len(table)))
    try:
        return "group", check(labels, _as_table(table.copy()))
    except ValueError as exc:
        return "error", str(exc)


def _assert_same(table: np.ndarray):
    expected = _outcome(_validate_group, table)
    assert _outcome(validate, table) == expected
    return expected


@settings(max_examples=60, deadline=None)
@given(relabelled())
def test_relabelled_groups(drawn):
    table, _ = drawn
    assert _assert_same(table)[0] == "group"


@settings(max_examples=100, deadline=None)
@given(relabelled(), st.data())
def test_one_entry_changed(drawn, data):
    table, _ = drawn
    n = len(table)
    r, c = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    table[r, c] = (table[r, c] + data.draw(st.integers(1, max(n - 1, 1)))) % n
    _assert_same(table)


@settings(max_examples=100, deadline=None)
@given(relabelled(), st.data(), st.booleans())
def test_two_rows_or_columns_swapped(drawn, data, columns):
    table, _ = drawn
    n = len(table)
    i = data.draw(st.integers(0, n - 1))
    j = (i + data.draw(st.integers(1, n - 1))) % n
    if columns:
        table[:, [i, j]] = table[:, [j, i]]
    else:
        table[[i, j]] = table[[j, i]]
    _assert_same(table)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_intercalate_moved_off_the_identity(data):
    """Switching a 2x2 Latin subsquare that avoids the identity's row and
    column keeps a Latin square with the same identity; Light's test must
    then find the failure (generalises the order-128 case in test_groups)."""
    index, (r1, r2, c1, c2) = data.draw(st.sampled_from(INTERCALATES))
    table, sigma = data.draw(relabelled(index))
    rows, cols = sigma[[r1, r2]], sigma[[c1, c2]]
    block = table[np.ix_(rows, cols)]
    table[np.ix_(rows, cols)] = block[::-1]
    assert _assert_same(table)[0] == "error"


@settings(max_examples=60, deadline=None)
@given(relabelled(), st.data(), st.sampled_from(["low", "high"]))
def test_one_entry_out_of_range(drawn, data, side):
    table, _ = drawn
    n = len(table)
    r, c = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    table[r, c] = -1 if side == "low" else n
    assert _assert_same(table) == (
        "error", "cayley table entries must be element indices in range")
