"""Finite groups as validated Cayley tables.

Groups are immutable value objects: an element is an index into a fixed
basis, multiplication is a lookup in one read-only numpy table, and every
constructor runs the full invariant suite (identity, Latin square,
inverses, associativity) before returning.  Associativity is decided
exactly at every order by Light's test (Clifford & Preston I, 1961,
section 1.2): (x*a)*y = x*(a*y) for all x, y and every a of a greedy
generating set, whose size a group keeps within floor(log2 n); the cost
is O(n^2 log n) time and O(n^2) memory.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import InternalConsistencyError

MAX_SYMMETRIC_DEGREE = 6


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group presented by its Cayley table.

    Fields:
        order: number of elements n.
        labels: n distinct display strings, one per element index.
        table: read-only n x n integer array (any integer array-like is
            copied in); table[i, j] is the index of g_i * g_j.
        identity: index of the neutral element.
        inverses: inverses[i] is the index of g_i^{-1}.

    Validation checks every group axiom exactly, associativity by Light's
    test.  Groups are equal when labels, identity and table agree.
    """

    order: int
    labels: tuple[str, ...]
    table: np.ndarray
    identity: int
    inverses: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", _as_table(self.table))
        _validate_group(self)

    @cached_property
    def conv_index(self) -> np.ndarray:
        """Gather table for convolution: conv_index[h, g] = index of h^{-1} g."""
        arr = self.table[np.asarray(self.inverses, dtype=np.intp)]
        arr.setflags(write=False)
        return arr

    def mul(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def inv(self, i: int) -> int:
        return self.inverses[i]

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown element label {label!r}") from None

    def element_order(self, i: int) -> int:
        """Smallest k >= 1 with g_i^k = identity."""
        column = self.table[:, i].tolist()
        k, cur = 1, i
        while cur != self.identity:
            cur = column[cur]
            k += 1
            if k > self.order:
                raise InternalConsistencyError(
                    f"element {i} has no order <= group order {self.order}")
        return k

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


@dataclass(frozen=True)
class ElementSet:
    """A duplicate-free, sorted set of element indices of one group."""

    group: FiniteGroup
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        mem = tuple(sorted(set(self.members)))
        if mem != self.members:
            object.__setattr__(self, "members", mem)
        for i in self.members:
            if not 0 <= i < self.group.order:
                raise ValueError(
                    f"element index {i} out of range for group of order {self.group.order}")

    def __contains__(self, i: int) -> bool:
        return i in self._member_set

    def __len__(self) -> int:
        return len(self.members)

    def __le__(self, other: "ElementSet") -> bool:
        return self._member_set <= other._member_set

    @cached_property
    def _member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def label_list(self) -> list[str]:
        return [self.group.labels[i] for i in self.members]


def _as_table(table) -> np.ndarray:
    """A read-only square intp copy of an integer table, or ValueError."""
    arr = np.asarray(table)  # ragged rows raise ValueError
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"cayley table must be square, got shape {arr.shape}")
    if arr.dtype.kind not in "iu":
        raise ValueError(f"cayley table entries must be integers, got {arr.dtype}")
    arr = arr.astype(np.intp)
    arr.setflags(write=False)
    return arr


def _validate_group(g: FiniteGroup) -> None:
    n = g.order
    if n < 1:
        raise ValueError(f"group order must be positive, got {n}")
    if len(g.labels) != n or len(set(g.labels)) != n:
        raise ValueError("labels must be exactly one distinct string per element")
    table = g.table
    if table.shape != (n, n):
        raise ValueError(f"cayley table must be {n}x{n}")
    if table.min() < 0 or table.max() >= n:
        raise ValueError("cayley table entries must be element indices in range")

    e = g.identity
    if not 0 <= e < n:
        raise ValueError(f"identity index {e} out of range")
    idx = np.arange(n)
    if not (np.array_equal(table[e], idx) and np.array_equal(table[:, e], idx)):
        raise ValueError(f"element {g.labels[e]!r} is not a two-sided identity")

    in_row = np.zeros((n, n), dtype=bool)
    in_row[idx[:, None], table] = True
    in_col = np.zeros((n, n), dtype=bool)
    in_col[table, idx] = True
    if not (in_row.all() and in_col.all()):
        raise ValueError("cayley table is not a Latin square")

    if len(g.inverses) != n:
        raise ValueError("inverses must list one index per element")
    inv = np.asarray(g.inverses, dtype=np.intp)
    if inv.min() < 0 or inv.max() >= n:
        raise ValueError("inverses must be element indices in range")
    if not ((table[idx, inv] == e).all() and (table[inv, idx] == e).all()):
        raise ValueError("inverses are not two-sided inverses")

    _check_associative(table, e)


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


def make_cyclic(n: int) -> FiniteGroup:
    """Cyclic group Z_n with labels t^0 .. t^{n-1} and addition mod n."""
    if n < 1:
        raise ValueError(f"cyclic group order must be >= 1, got {n}")
    idx = np.arange(n)
    return FiniteGroup(
        order=n,
        labels=tuple(f"t^{i}" for i in range(n)),
        table=(idx[:, None] + idx) % n,
        identity=0,
        inverses=tuple(((-idx) % n).tolist()),
    )


def make_dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: rotations r0..r{n-1}, reflections s0..s{n-1}.

    Index k encodes the rotation r^k, index n+k the reflection s*r^k, so
    (f1, k1) * (f2, k2) = (f1 xor f2, k2 + (-1)^f2 * k1 mod n).
    """
    if n < 1:
        raise ValueError(f"dihedral parameter must be >= 1, got {n}")
    flip, rot = np.divmod(np.arange(2 * n), n)
    sign = 1 - 2 * flip
    table = n * (flip[:, None] ^ flip) + (rot + sign * rot[:, None]) % n
    labels = tuple(f"r{k}" for k in range(n)) + tuple(f"s{k}" for k in range(n))
    inverses = tuple((-k) % n for k in range(n)) + tuple(n + k for k in range(n))
    return FiniteGroup(order=2 * n, labels=labels, table=table,
                       identity=0, inverses=inverses)


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
    if not 1 <= n <= MAX_SYMMETRIC_DEGREE:
        raise ValueError(
            f"symmetric degree must be in 1..{MAX_SYMMETRIC_DEGREE}, got {n}")
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    # Base-n digits read left to right order codes like the permutations.
    weights = n ** np.arange(n - 1, -1, -1)
    codes = perms @ weights

    def rank(images: np.ndarray) -> np.ndarray:
        return np.searchsorted(codes, images @ weights)

    composed = perms[np.arange(len(perms))[:, None, None], perms[None, :, :]]
    return FiniteGroup(
        order=len(perms),
        labels=tuple(_cycle_label(p) for p in perms.tolist()),
        table=rank(composed),
        identity=0,
        inverses=tuple(rank(np.argsort(perms, axis=1)).tolist()),
    )


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Direct product with componentwise multiplication; index (i,j) -> i*|b|+j."""
    na, nb = a.order, b.order
    table = a.table[:, None, :, None] * nb + b.table[None, :, None, :]
    return FiniteGroup(
        order=na * nb,
        labels=tuple(f"({la},{lb})" for la in a.labels for lb in b.labels),
        table=table.reshape(na * nb, na * nb),
        identity=a.identity * nb + b.identity,
        inverses=tuple(np.add.outer(np.multiply(a.inverses, nb), b.inverses).ravel().tolist()))


def from_cayley_table(table: Sequence[Sequence[int]],
                      labels: Sequence[str] | None = None) -> FiniteGroup:
    """Build and fully validate a group from a raw index table.

    The identity is inferred as the first index e with e*x = x*e = x for
    all x; inverses are then read off the table.  Entries must be
    integers and rows of equal length.  Any violation of the group
    axioms raises ValueError.
    """
    arr = _as_table(table)
    n = len(arr)
    labels = tuple(f"g{i}" for i in range(n)) if labels is None else tuple(labels)
    idx = np.arange(n)
    is_identity = (arr == idx).all(axis=1) & (arr == idx[:, None]).all(axis=0)
    if not is_identity.any():
        raise ValueError("table has no two-sided identity element")
    ident = int(np.argmax(is_identity))

    two_sided = (arr == ident) & (arr.T == ident)
    has_inverse = two_sided.any(axis=1)
    if not has_inverse.all():
        raise ValueError(f"element {int(np.argmin(has_inverse))} has no two-sided inverse")
    return FiniteGroup(order=n, labels=labels, table=arr, identity=ident,
                       inverses=tuple(np.argmax(two_sided, axis=1).tolist()))


def read_cayley_csv(path: str) -> FiniteGroup:
    """Ingest a Cayley table CSV: a header row of labels, then n rows of n labels."""
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
        start = sorted(set(int(i) for i in seed))
    if not start:
        raise ValueError("generated_subgroup requires a nonempty seed")

    for i in start:
        if not 0 <= i < g.order:
            raise ValueError(f"seed index {i} out of range")
    mask = _closure(g.table, np.array([g.identity, *start]))
    return ElementSet(group=g, members=tuple(np.flatnonzero(mask).tolist()))
