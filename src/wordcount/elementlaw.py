"""Groups above `groups.COMPACT_ROWS_ABOVE` elements before their Cayley
table is built, and the 2-byte rows that table is made of.

Such a group is a `LawTable`: it keeps its element law (the element list,
its index and `combine`), `inv`, its greedy generators and the packed rows
of the identity, the generators and their inverses.  That is all classes,
Z(G), power maps (`GroupTable.power` over the law's `product`) and
one-letter counts read.  The first read of `mul` composes
the table from those generator rows as the eager build does
(`groups._compose_rows`), drops the law and makes the object a plain
`GroupTable`.  `groups._table_from_elements` imports this module only for
such a group, so a process that builds none compiles none of it.

This module is the one owner of the row format: every row is an
`array('H')` of exactly |G| entries (`_row_packer`; the order cap is below
2**16).  A composition with a generator row made of few arithmetic runs,
for its length, copies one slice of the other row per run into place
(`_sliced`); any other gathers entry by entry with `itemgetter` and packs
(`_composer` counts the runs and chooses).
"""

from array import array
from operator import itemgetter
from struct import Struct

from . import groups


class LawTable(groups.GroupTable):
    """A `GroupTable` whose `mul` is unset while it keeps its law, and
    whose `row` and `product` read the law, so `GroupTable.power` does
    too.  A class with `__getattr__` loses the interpreter's fast
    attribute reads (`power` took twice as long), so the built table is a
    plain `GroupTable`."""

    __slots__ = ()

    def __getattr__(self, name):
        if name != "mul":
            raise AttributeError(name)
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


def law_table(elements, index, combine, labels):
    law = ElementLaw(elements, index, combine)
    return LawTable(len(elements), None, law.inv, labels, law, law.gens)


class ElementLaw:
    """A group's element list, its index and `combine`, with what a
    `LawTable` reads in place of the table.

    A breadth-first search through the law, one `combine` per element and
    generator, finds the greedy generators `gens` and the steps that give
    `inv`.  `rows` holds the packed rows of the identity, the generators
    (|G| law calls each) and their inverses.  Row(s^-1) is row(s)
    inverted, so it calls no law and composes no row.
    """

    __slots__ = ("elements", "index", "combine", "gens", "rows", "inv")

    def __init__(self, elements, index, combine):
        self.elements, self.index, self.combine = elements, index, combine
        n = len(elements)
        pack = _row_packer(n)
        product = self.product
        rows = self.rows = {0: pack(range(n))}
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
            inverse = [0] * n  # s^-1 * (s*y) = y, and s^-1 * 1 = s^-1
            for y, sy in enumerate(rows[s]):
                inverse[sy] = y
            rows[inverse[0]] = pack(inverse)
        self.inv = groups._inverses(n, rows, steps)

    def product(self, a, b):
        """a*b: one `combine` call."""
        elements = self.elements
        return self.index[self.combine(elements[a], elements[b])]

    def table(self):
        """The rows of the table, composed by `groups._compose_rows` from
        the generator rows kept."""
        rows = [None] * len(self.elements)
        rows[0] = self.rows[0]
        groups._compose_rows(rows, self.rows.__getitem__, _composer)
        return tuple(rows)


def _composer(row):
    """row(a) -> row(a) o row, for a generator's packed row: `_sliced` if
    `row` has at most n/32 runs, else an `itemgetter` over it and a pack.

    Measured on single rows (Python 3.11.7, 2 vCPUs, runs of equal length):
    an `array('H')` row gathers and packs in about 21 ns an entry, while
    its slices cost about 0.09 us a run and copy each entry twice, so
    slices win up to about n/5 runs at n = 2000, 8192 and 20480; at n/32
    runs they take a seventh of the gather's time.
    """
    gather, pack = itemgetter(*row), _row_packer(len(row))
    return _sliced(row, len(row) // 32) or (lambda r: pack(gather(r)))


def _sliced(row, most):
    """r -> r o row for `array('H')` rows r and `row` (a permutation of its
    indices): a copy of `row`, overwritten run by run with one extended
    slice of r per maximal arithmetic run of `row`, or None if `row` has
    more than `most` runs.  The copy holds no spare capacity and makes no
    int object per entry; each entry is copied twice, whatever the runs."""
    runs = []  # (positions in row, the slice of r they read)
    n = len(row)
    i = 0
    while i < n:
        if len(runs) == most:
            return None
        start = row[i]
        step = row[i + 1] - start if i + 1 < n else 1
        j = i + 1
        while j < n and row[j] - row[j - 1] == step:
            j += 1
        stop = start + step * (j - i)
        # a run falling to 0 stops past the front: -1 would mean the end
        runs.append((slice(i, j), slice(start, stop if stop >= 0 else None,
                                        step)))
        i = j

    def compose(r):
        out = row[:]
        for into, read in runs:
            out[into] = r[read]
        return out
    return compose


def _row_packer(n):
    """row -> the same n entries as an `array('H')`.  One `struct` pack is
    several times faster than `array('H', row)`; the slice copy drops the
    over-allocation that building an array from bytes leaves."""
    to_bytes = Struct(f"{n}H").pack

    def pack(row):
        return array("H", to_bytes(*row))[:]
    return pack
