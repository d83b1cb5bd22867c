"""Finite groups stored extensionally as validated multiplication tables."""

from __future__ import annotations

from itertools import permutations

from .errors import NoIdentity, NoInverse, NotAssociative


class FiniteGroup:
    """A finite group: element i*j is table[i][j]; elements are indices."""

    __slots__ = ("order", "labels", "table", "identity", "inverse_table")

    def __init__(self, order, labels, table, identity, inverse_table):
        self.order = order
        self.labels = tuple(labels)
        self.table = tuple(tuple(r) for r in table)
        self.identity = identity
        self.inverse_table = tuple(inverse_table)

    def mul(self, g, h):
        return self.table[g][h]

    def inv(self, g):
        return self.inverse_table[g]

    def label(self, g):
        return self.labels[g]

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return f"FiniteGroup(order={self.order}, labels={list(self.labels)})"


def make_group(table, labels=None):
    """Validate a Cayley table and return the group.

    Checks closure, associativity on all triples, a two-sided identity and
    two-sided inverses; failures name the witnessing element or triple.
    Entries must be integers (a boolean is refused), and labels must be
    distinct as printed, so that every witness names one element.
    """
    n = len(table)
    if n == 0:
        raise NoIdentity()
    if labels is None:
        labels = [str(i) for i in range(n)]
    check_labels(labels, n)
    for row in table:
        if len(row) != n:
            raise ValueError("Cayley table is not square")
        for x in row:
            if isinstance(x, bool) or not isinstance(x, int):
                raise ValueError(f"table entry {x!r} is not an integer")
            if not 0 <= x < n:
                raise ValueError(f"table entry {x!r} out of range")

    identity = None
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise NoIdentity()

    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            row_a = table[a]
            for c in range(n):
                if table[ab][c] != row_a[table[b][c]]:
                    raise NotAssociative("Cayley table", labels[a], labels[b], labels[c])

    inverse_table = []
    for g in range(n):
        inv = None
        for h in range(n):
            if table[g][h] == identity and table[h][g] == identity:
                inv = h
                break
        if inv is None:
            raise NoInverse(labels[g])
        inverse_table.append(inv)

    return FiniteGroup(n, labels, table, identity, inverse_table)


def check_labels(labels, n):
    """ValueError unless there are n labels, distinct as printed."""
    if len(labels) != n:
        raise ValueError(f"{len(labels)} labels for {n} elements")
    seen = set()
    for label in map(str, labels):
        if label in seen:
            raise ValueError(f"label {label!r} is repeated")
        seen.add(label)


def cyclic(n):
    """Cyclic group of order n, element i being i mod n, labelled e, g1,
    ..., g{n-1} (e, g when n = 2)."""
    if n < 1:
        raise ValueError("order must be at least 1")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    labels = ["e"] + [f"g{i}" if n > 2 else "g" for i in range(1, n)]
    return make_group(table, labels)


def symmetric(m):
    """Symmetric group on m letters; composition (p*q)(x) = p(q(x))."""
    if m < 1:
        raise ValueError("need at least one letter")
    perms = sorted(permutations(range(m)))
    index = {p: i for i, p in enumerate(perms)}
    table = []
    for p in perms:
        table.append([index[tuple(p[q[x]] for x in range(m))] for q in perms])
    labels = ["".join(str(x) for x in p) for p in perms]
    return make_group(table, labels)


def direct_product(g, h):
    """Direct product with elements ordered lexicographically (g-major)."""
    n, m = g.order, h.order
    table = []
    for a in range(n):
        for b in range(m):
            row = []
            for c in range(n):
                for d in range(m):
                    row.append(g.mul(a, c) * m + h.mul(b, d))
            table.append(row)
    labels = [f"({g.label(a)},{h.label(b)})" for a in range(n) for b in range(m)]
    return make_group(table, labels)
