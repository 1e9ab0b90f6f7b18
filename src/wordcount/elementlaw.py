"""Groups above `groups.COMPACT_ROWS_ABOVE` elements before their Cayley
table is built.

Such a group is a `LawTable`: it keeps its element law (the element list,
its index and `combine`), `inv`, and the packed rows of the identity, its
greedy generators and their inverses.  That is all classes, Z(G),
power maps and one-letter counts read.  The first read of `mul` composes
the table from those generator rows with the same composers as the eager
build (`groups._compose_rows`), drops the law and makes the object a plain
`GroupTable`.  `groups._table_from_elements` imports this module only for
such a group, so a process that builds none compiles none of it.
"""
from __future__ import annotations

from . import groups


class LawTable(groups.GroupTable):
    """A `GroupTable` whose `mul` is unset while it keeps its law, and
    whose `row`, `product` and `power` read the law.  A class with
    `__getattr__` loses the interpreter's fast attribute reads (`power`
    took twice as long), so the built table is a plain `GroupTable`."""

    __slots__ = ()

    def __getattr__(self, name):
        if name != "mul":
            raise AttributeError(name)
        self.generating_set()  # recorded by the law, memoized before it goes
        self.mul = self.law.table()
        self.law = None
        self.__class__ = groups.GroupTable
        return self.mul

    def row(self, a):
        """Only the rows the law holds: the identity's, the generators'
        and their inverses'."""
        return self.law.rows[a]

    def product(self, a, b):
        return self.law.product(a, b)

    def power(self, a, k):
        if k < 0:
            a, k = self.inv[a], -k
        return self.law.power(a, k)


def law_table(elements, index, combine, labels, pack):
    law = ElementLaw(elements, index, combine, pack)
    return LawTable(len(elements), None, law.inv, labels, law)


class ElementLaw:
    """A group's element list, its index and `combine`, with what a
    `LawTable` reads in place of the table.

    A breadth-first search through the law, one `combine` per element and
    generator, finds the greedy generators `gens` and the steps that give
    `inv`.  `rows` holds the packed rows of the identity, the generators
    (|G| law calls each) and their inverses, `composers` each generator's
    composer.  A generator's inverse is its last power, so its row is
    composed from the generator's, o(s) - 2 times, as the table would.
    """

    __slots__ = ("elements", "index", "combine", "gens", "rows",
                 "composers", "inv")

    def __init__(self, elements, index, combine, pack):
        self.elements, self.index, self.combine = elements, index, combine
        n = len(elements)
        product = self.product
        rows = self.rows = {0: pack(range(n))}
        composers = self.composers = {}
        gens = []
        reached = bytearray(n)
        reached[0] = 1
        members = [0]
        steps = []  # (c, a, s) with c = a * s, in the order reached
        for g in range(n):
            if reached[g]:
                continue
            x = elements[g]
            rows[g] = pack([index[combine(x, y)] for y in elements])
            composers[g] = groups._composer(rows[g], pack)
            # the members so far need only the new generator; what it
            # reaches needs every generator
            old = len(members)
            gens.append(g)
            reached[g] = 1
            steps.append((g, None, None))
            frontier = [g]
            for a in members[1:old]:
                c = product(a, g)
                if not reached[c]:
                    reached[c] = 1
                    steps.append((c, a, g))
                    frontier.append(c)
            while frontier:
                members += frontier
                nxt = []
                for a in frontier:
                    for s in gens:
                        c = product(a, s)
                        if not reached[c]:
                            reached[c] = 1
                            steps.append((c, a, s))
                            nxt.append(c)
                frontier = nxt
        self.gens = tuple(gens)
        for s in gens:
            t = rows[s].index(0)  # s^-1
            row, times_s = rows[s], composers[s]
            while row[0] != t:  # row(s^k)[0] = s^k
                row = times_s(row)
            rows[t] = row
        self.inv = groups._inverses(n, rows, steps)

    def product(self, a, b):
        """a*b: one `combine` call."""
        elements = self.elements
        return self.index[self.combine(elements[a], elements[b])]

    def power(self, a, k):
        """a^k for k >= 0 by squaring, about 2 log2(k) products."""
        result = 0
        while k:
            if k & 1:
                result = self.product(result, a) if result else a
            k >>= 1
            if k:
                a = self.product(a, a)
        return result

    def table(self):
        """The rows of the table, composed by `groups._compose_rows` from
        the generator rows and composers kept."""
        rows = [None] * len(self.elements)
        rows[0] = self.rows[0]
        groups._compose_rows(rows,
                             lambda g: (self.rows[g], self.composers[g]))
        return tuple(rows)
