"""Finite groups as validated Cayley tables.

Groups are immutable value objects: an element is an index into a fixed
basis, and multiplication is a lookup in one read-only numpy table.
FiniteGroup(labels, table) is the one constructor.  It runs the full
invariant suite (Latin square, identity, inverses, associativity) and
reads the identity and the inverses off the table, so no builder states
them.  Associativity is decided exactly at every order by Light's test
(Clifford & Preston I, 1961, section 1.2): (x*a)*y = x*(a*y) for all
x, y and every a of a greedy generating set, whose size a group keeps
within floor(log2 n); the cost is O(n^2 log n) time and O(n^2) memory.

A group holds one table, uint16 for 257 to 65,536 elements and int32
otherwise (_table_dtype): the builders write that dtype, FiniteGroup
converts any other integer table once, after checking that its entries
lie in [0, n) on the caller's dtype, so no entry can wrap.  Every check
reads that table in place, the row and column gathers by ndarray.take.
The Latin-square scatters, Light's test and each squaring of a closure
handle one block of rows (_BLOCK entries) at a time, so besides the table
validation holds the n^2-byte Latin mask or inverse scan and a few
blocks: a tracemalloc peak of 0.39-0.45 int64 tables of 8n^2 bytes for
C2000, C30 x C40 and S6, against 0.64-0.77 with an int32 table.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .record import Record, as_int

MAX_SYMMETRIC_DEGREE = 6
# Entries per block of rows that a gather over the table handles at once
# (256 kB in int32, 128 kB in uint16): up to 256 rows are a single block.
_BLOCK = 1 << 16


class FiniteGroup(Record):
    """A finite group presented by its Cayley table.

    FiniteGroup(labels, table) takes n distinct labels and an n x n
    integer table, checks every group axiom and derives the other fields
    from the table.  An array of the order's dtype (_table_dtype) is
    kept and frozen in place, not copied: hand over only a fresh array
    that no caller still writes (the builders below make theirs;
    from_cayley_table copies).  Any other integer array is converted once.

    Fields:
        order: number of elements n.
        labels: n distinct display strings, one per element index.
        table: read-only n x n uint16 (257 <= n <= 65,536) or int32
            array; table[i, j] is the index of g_i * g_j.
        identity: index of the neutral element.
        inverses: inverses[i] is the index of g_i^{-1}.

    Groups are equal when labels, identity and table agree.
    """

    _fields = ("order", "labels", "table", "identity", "inverses")

    def __init__(self, labels: Sequence[str], table) -> None:
        labels, table = tuple(labels), _as_table(table)
        identity, inverses, positions = _validate_group(labels, table)
        self._set(order=len(table), labels=labels, table=table,
                  identity=identity, inverses=inverses, _positions=positions)

    @cached_property
    def inverse_index(self) -> np.ndarray:
        """The inverses as one read-only intp array, to gather rows of
        the table by: table[inverse_index[h]] is the row of h^{-1}."""
        arr = np.array(self.inverses, dtype=np.intp)
        arr.setflags(write=False)
        return arr

    @cached_property
    def conv_index(self) -> np.ndarray:
        """Gather table of the float convolutions, which index with all
        of it on every step, so it is kept in intp and never cast again:
        conv_index[h, g] = index of h^{-1} g."""
        arr = self.table[self.inverse_index].astype(np.intp)
        arr.setflags(write=False)
        return arr

    def mul(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def index_of(self, label: str) -> int:
        try:
            return self._positions[label]
        except KeyError:
            raise ValueError(f"unknown element label {label!r}") from None

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return (self.order == other.order and self.identity == other.identity
                and self.labels == other.labels
                and np.array_equal(self.table, other.table))

    def __hash__(self) -> int:
        return hash((self.order, self.identity, self.labels))

    def __repr__(self) -> str:  # keep huge tables out of tracebacks
        return f"FiniteGroup(order={self.order}, identity={self.labels[self.identity]!r})"


class ElementSet(Record):
    """A duplicate-free, sorted set of element indices of one group."""

    _fields = ("group", "members")

    def __init__(self, group: FiniteGroup, members: tuple[int, ...]) -> None:
        mem = tuple(sorted({as_int(i, "element index") for i in members}))
        for i in mem:
            if not 0 <= i < group.order:
                raise ValueError(
                    f"element index {i} out of range for group of order {group.order}")
        self._set(group=group, members=mem)

    def __contains__(self, i: int) -> bool:
        return i in self._member_set

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def _member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def label_list(self) -> list[str]:
        return [self.group.labels[i] for i in self.members]


def _as_table(table) -> np.ndarray:
    """A read-only square array of dtype _table_dtype(n) of an integer
    table of element indices, or ValueError; an array of that dtype is kept
    and frozen in place.  The entries are checked to lie in [0, n) before
    the cast, so none wraps, and a table that fits in memory has n < 2**31."""
    arr = np.asarray(table)  # ragged rows raise ValueError
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"cayley table must be square, got shape {arr.shape}")
    if arr.dtype.kind not in "iu":
        raise ValueError(f"cayley table entries must be integers, got {arr.dtype}")
    if arr.size and (arr.min() < 0 or arr.max() >= len(arr)):
        raise ValueError("cayley table entries must be element indices in range")
    arr = arr.astype(_table_dtype(len(arr)), copy=False)
    arr.setflags(write=False)
    return arr


def _table_dtype(n: int) -> np.dtype:
    """uint16 for a table of 257 to 65,536 elements, int32 otherwise: numpy's
    uint16 code costs a smaller group's process more than its table saves."""
    return np.dtype(np.uint16 if 256 < n <= 1 << 16 else np.int32)


def _validate_group(labels: tuple[str, ...], table: np.ndarray
                    ) -> tuple[int, tuple[int, ...], dict[str, int]]:
    """Check the group axioms on a square table of in-range indices (as
    _as_table returns it); return (identity, inverses, positions), where
    positions maps each label to its element index.

    In a Latin square exactly one x has x * g_0 = g_0, the only candidate
    for the identity e, and the inverse of g_i can only be the position
    of e in row i; both are then checked two-sided.
    """
    n = len(table)
    if n < 1:
        raise ValueError(f"group order must be positive, got {n}")
    positions = {label: i for i, label in enumerate(labels)}
    if len(labels) != n or len(positions) != n:
        raise ValueError("labels must be exactly one distinct string per element")
    if not _is_latin_square(table):
        raise ValueError("cayley table is not a Latin square")

    idx = np.arange(n)
    e = int((table[:, 0] == 0).argmax())
    if not ((table[e] == idx).all() and (table[:, e] == idx).all()):
        raise ValueError("table has no two-sided identity element")
    inv = (table == e).argmax(axis=1)
    two_sided = table[inv, idx] == e
    if not two_sided.all():
        raise ValueError(f"element {int(two_sided.argmin())} has no two-sided inverse")

    _check_associative(table, e)
    return e, tuple(inv.tolist()), positions


def _is_latin_square(table: np.ndarray) -> bool:
    """Whether every row and every column of an in-range table holds each
    index once.  Both scatters into the n x n mask index with one block
    of rows at a time, so numpy casts only that block to intp."""
    n = len(table)
    idx = np.arange(n)
    seen = np.zeros((n, n), dtype=bool)
    for rows in _row_blocks(n, n):
        seen[idx[rows, None], table[rows]] = True  # seen[i, x]: x occurs in row i
    if not seen.all():
        return False
    seen[...] = False
    for rows in _row_blocks(n, n):
        seen[table[rows], idx] = True  # seen[x, j]: x occurs in column j
    return bool(seen.all())


def _check_associative(table: np.ndarray, e: int) -> None:
    """Light's test over a greedily picked generating set (see module doc).

    The identity passes trivially and the elements that pass are closed
    under products, so once the closure of the picks covers the table,
    the whole operation is associative.  Each generator is checked one
    block of rows x at a time.
    """
    n = len(table)
    max_picks = n.bit_length() - 1
    closed = _closure(table, [e])
    for _ in range(max_picks):
        if closed.all():
            return
        a = int(closed.argmin())
        xa, ay = table[:, a], table[a]
        for rows in _row_blocks(n, n):
            if not (table.take(xa[rows], axis=0) == table[rows].take(ay, axis=1)).all():
                raise ValueError(
                    f"associativity fails: (x*a)*y != x*(a*y) for generator a = {a}")
        closed[a] = True
        closed = _closure(table, closed.nonzero()[0])
    if not closed.all():
        raise ValueError(
            f"table needs more than {max_picks} generators, so it is not a group")


def _closure(table: np.ndarray, members) -> np.ndarray:
    """Membership mask of the product closure of members, which must
    include the identity: then S lies inside S*S, so squaring until the
    size stops growing reaches the closure, or until it covers the table.
    Each squaring gathers the products s*t of S*S for one block of rows s
    at a time."""
    n = len(table)
    mask = np.zeros(n, dtype=bool)
    mask[members] = True
    while True:
        members = mask.nonzero()[0]
        for rows in _row_blocks(len(members), n):
            mask[table.take(members[rows], axis=0).take(members, axis=1)] = True
        if np.count_nonzero(mask) in (len(members), n):
            return mask


def _row_blocks(count: int, width: int):
    """Slices covering range(count) in steps of _BLOCK // width (one at
    least), so a block of that many rows of the given width holds at most
    _BLOCK entries."""
    step = max(1, _BLOCK // width)
    return map(slice, range(0, count, step), range(step, count + step, step))


def _rotations(values: np.ndarray, left: bool) -> np.ndarray:
    """n x n view whose row i is values rotated by i places, left (row i
    holds values[(j + i) % n]) or right (values[(j - i) % n]): row i is
    the window of length n at offset i (left) or n - i (right) of values
    written twice, which the ndarray constructor checks to lie inside."""
    n = len(values)
    twice = np.concatenate((values, values))
    step = twice.itemsize
    if left:
        return np.ndarray((n, n), twice.dtype, twice, 0, (step, step))
    return np.ndarray((n, n), twice.dtype, twice, n * step, (-step, step))


def make_cyclic(n: int) -> FiniteGroup:
    """Cyclic group Z_n with labels t^0 .. t^{n-1} and addition mod n."""
    n = as_int(n, "cyclic group order")
    if n < 1:
        raise ValueError(f"cyclic group order must be >= 1, got {n}")
    table = _rotations(np.arange(n, dtype=_table_dtype(n)), left=True).copy()
    return FiniteGroup((f"t^{i}" for i in range(n)), table)


def make_dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: rotations r0..r{n-1}, reflections s0..s{n-1}.

    Index k encodes the rotation r^k, index n+k the reflection s*r^k, so
    (f1, k1) * (f2, k2) = (f1 xor f2, k2 + (-1)^f2 * k1 mod n): each
    n x n block of the table rotates the rotation or the reflection
    indices left (f2 = 0) or right (f2 = 1) by k1.
    """
    n = as_int(n, "dihedral parameter")
    if n < 1:
        raise ValueError(f"dihedral parameter must be >= 1, got {n}")
    dtype = _table_dtype(2 * n)
    rotations = np.arange(n, dtype=dtype)
    reflections = np.arange(n, 2 * n, dtype=dtype)
    table = np.empty((2 * n, 2 * n), dtype=dtype)
    table[:n, :n] = _rotations(rotations, left=True)
    table[n:, :n] = _rotations(reflections, left=True)
    table[:n, n:] = _rotations(reflections, left=False)
    table[n:, n:] = _rotations(rotations, left=False)
    labels = [f"r{k}" for k in range(n)] + [f"s{k}" for k in range(n)]
    return FiniteGroup(labels, table)


def _cycle_label(perm: tuple[int, ...]) -> str:
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        cur = perm[start]
        while cur != start:
            cyc.append(cur)
            seen[cur] = True
            cur = perm[cur]
        parts.append("(" + " ".join(str(v) for v in cyc) + ")")
    return "".join(parts) if parts else "e"


def make_symmetric(n: int) -> FiniteGroup:
    """Symmetric group on {0..n-1}, n <= 6, in lexicographic permutation order.

    Product g_i * g_j is composition applying g_j first: (g_i g_j)(x) = g_i(g_j(x)).
    Labels use cycle notation, identity labelled "e".
    """
    n = as_int(n, "symmetric degree")
    if not 1 <= n <= MAX_SYMMETRIC_DEGREE:
        raise ValueError(
            f"symmetric degree must be in 1..{MAX_SYMMETRIC_DEGREE}, got {n}")
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    # A permutation's code is its images read as base-n digits w_k = n^(n-1-k);
    # index maps each of the n^n codes back to the permutation's rank.
    weights = n ** np.arange(n - 1, -1, -1)
    dtype = _table_dtype(len(perms))
    index = np.zeros(n ** n, dtype=dtype)
    index[perms @ weights] = np.arange(len(perms))
    # The code of g_i g_j is sum_k w_k g_i(g_j(k)) = sum_m g_i(m) w_(g_j^-1(m)):
    # an n! x n! integer product, no (n!, n!, n) array of composed images,
    # formed and looked up one block of rows at a time.
    w_inv = weights[np.argsort(perms, axis=1)].T
    table = np.empty((len(perms), len(perms)), dtype=dtype)
    for rows in _row_blocks(len(perms), len(perms)):
        table[rows] = index[perms[rows] @ w_inv]
    del index  # validation, the peak of the build, need not hold its n^n entries
    return FiniteGroup(map(_cycle_label, perms.tolist()), table)


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Direct product with componentwise multiplication; index (i,j) -> i*|b|+j."""
    n, nb = a.order * b.order, b.order
    table = np.empty((a.order, nb, a.order, nb), dtype=_table_dtype(n))
    offsets = (np.arange(a.order) * nb).astype(table.dtype)  # i * nb + j < n: none wraps
    np.add(offsets[a.table][:, None, :, None], b.table[None, :, None, :],
           out=table, casting="unsafe")
    return FiniteGroup((f"({la},{lb})" for la in a.labels for lb in b.labels),
                       table.reshape(n, n))


def from_cayley_table(table: Sequence[Sequence[int]],
                      labels: Sequence[str] | None = None) -> FiniteGroup:
    """Build and fully validate a group from a raw index table the caller
    may still hold, so it is copied once.  Entries must be integers and
    rows of equal length; labels default to g0 .. g{n-1}.  Any violation
    of the group axioms raises ValueError."""
    arr = _as_table(np.array(table))
    labels = (f"g{i}" for i in range(len(arr))) if labels is None else labels
    return FiniteGroup(labels, arr)


def read_cayley_csv(path: str) -> FiniteGroup:
    """Ingest a Cayley table CSV: a header row of labels, then n rows of n labels."""
    import csv  # only this reader needs it; keeps it out of every CLI start-up

    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if len(rows) < 2:
        raise ValueError(f"{path}: expected a header row plus n table rows")
    header = [cell.strip() for cell in rows[0]]
    if len(set(header)) != len(header):
        raise ValueError(f"{path}: duplicate labels in header")
    pos = {lab: i for i, lab in enumerate(header)}
    body = rows[1:]
    if len(body) != len(header):
        raise ValueError(
            f"{path}: expected {len(header)} table rows, got {len(body)}")
    table = []
    for rownum, row in enumerate(body):
        cells = [cell.strip() for cell in row]
        if len(cells) != len(header):
            raise ValueError(f"{path}: row {rownum + 2} has {len(cells)} cells")
        try:
            table.append([pos[c] for c in cells])
        except KeyError as exc:
            raise ValueError(f"{path}: unknown label {exc.args[0]!r} "
                             f"in row {rownum + 2}") from None
    return from_cayley_table(table, header)


def generated_subgroup(g: FiniteGroup, seed: ElementSet | Iterable[int]) -> ElementSet:
    """Smallest subgroup of g containing the seed elements.

    Product closure over the Cayley table; in a finite group it contains
    the identity and is closed under inverses.
    """
    if isinstance(seed, ElementSet):
        if seed.group is not g and seed.group != g:
            raise ValueError("seed belongs to a different group")
        start = list(seed.members)
    else:
        start = sorted({as_int(i, "seed index") for i in seed})
    if not start:
        raise ValueError("generated_subgroup requires a nonempty seed")

    for i in start:
        if not 0 <= i < g.order:
            raise ValueError(f"seed index {i} out of range")
    mask = _closure(g.table, np.array([g.identity, *start]))
    return ElementSet(group=g, members=tuple(np.flatnonzero(mask).tolist()))
