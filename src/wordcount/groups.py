"""Finite groups as indexed multiplication tables.

Everything downstream works with element indices into a Cayley table whose
identity sits at index 0.  Subgroups are index sets over the parent's
numbering.  Two tables are the same group exactly when they have the same
order and multiplication table; labels do not count.  `GroupTable.__eq__`
and `__hash__` are the only place that decides it, from the order, the
generating set and the generators' rows, which determine the table, so
neither builds one.  A subgroup or class function built over a separately
built but equal table is accepted, and one over any other table raises
`MismatchedGroup`.

Every table, Cayley input and quotients included, is built by
`_table_from_elements`, the one place a `GroupTable` is constructed.  It
composes the table from the rows of a small generating set
(`_compose_rows`): only those rows call the law, every other row is a
composition of rows already built, which assumes only that the law is
associative.  The group keeps that generating set, which
`GroupTable.generating_set` returns.  Rows here are tuples, each
composition an `itemgetter` over a generator's row (`_composer`).  Every
constructor refuses an order above DEFAULT_ORDER_CAP before it builds a
table.

Above COMPACT_ROWS_ABOVE elements a group keeps its element law
(`elementlaw`: the element list, its index and `combine`) with only the
rows of the identity, the generators and their inverses, and `inv`; its
table is composed by `_compose_rows` on the first read of `mul`, of the
2-byte rows and composers `elementlaw` makes.  On every group
`conjugacy_classes` reads only `inv` and the rows of the generators'
inverses, y*s being inv[row(s^-1)[inv[y]]] (`right_multiple`), and
`center` only the classes; the rest read `mul`, and build the table.

Structure that depends on the group alone (the generating set, classes,
rational classes, center, derived subgroup, central series, normal
subgroups, the character table, the hash), or on the group and a level
(the isoclinism commutator table), is computed once per group object and
arguments by `structure_memo` and shared by every caller, so callers must
not mutate it.  Z(G), each Z_i, normality and normal closures are read
off the classes, which keep their members: a normal closure is the
subgroup the classes meeting its seed generate.
"""

import itertools
import math
from collections import namedtuple
from collections.abc import Sequence
from functools import wraps
from operator import itemgetter

from .errors import (
    BadSubgroup,
    InternalInconsistency,
    MismatchedGroup,
    NotAGroup,
    NotAPermutation,
    NotNormal,
    OrderLimitExceeded,
    UnknownFamily,
    UnsupportedParameter,
    read_ints,
)

DEFAULT_ORDER_CAP = 20480
# Most tuple entries (elements x degree) a permutation closure may hold.
MAX_PERM_ENTRIES = 2**24
# A table with more elements than this is built on the first read of `mul`,
# of 2-byte rows (`elementlaw`; the cap is below 2**16); smaller tables
# keep tuple rows, which index faster, built with the group.
COMPACT_ROWS_ABOVE = 1024
DEFAULT_BUDGET = 2**26   # most assignments brute force may count
MAX_SPEC_NESTING = 100   # deepest parenthesis nesting of a builtin spec


def structure_memo(fn):
    """Compute fn(G, *args) once per group and arguments, into G.structure."""
    @wraps(fn)
    def memo(G, *args):
        key = (fn, args)
        cache = G.structure
        if key not in cache:
            cache[key] = fn(G, *args)
        return cache[key]
    return memo


class _Labels(Sequence):
    """The labels of a table's elements, each `label(element)` formatted when
    it is read, so a group formats only the labels a command prints.  Equal
    to the tuple of them all."""

    __slots__ = ("elements", "label")

    def __init__(self, elements, label):
        self.elements = elements
        self.label = label

    def __len__(self):
        return len(self.elements)

    def __getitem__(self, a):
        return self.label(self.elements[a])

    def __eq__(self, other):
        if isinstance(other, (tuple, _Labels)):
            return tuple(self) == tuple(other)
        return NotImplemented


class GroupTable:
    """A finite group given by its multiplication table.

    Index 0 is always the identity.  `mul` is a tuple of rows, each a tuple
    or, above COMPACT_ROWS_ABOVE elements, a 2-byte row of `elementlaw`;
    readers only index rows.  `inv` is a tuple.  Such a group is an
    `elementlaw.LawTable` until `mul` is first read: `law` stands in for
    `mul`, and that read composes the table, drops the law and makes the
    object a `GroupTable`.  No other attribute is reassigned after
    construction.  `gens` is the greedy generating set the build found, or
    None for a table made outside `_table_from_elements`.
    `structure` holds the results of the `structure_memo` functions for this
    object.  Equality is the group's identity: the same order, generating
    set and generator rows, which determine the table (`inv`, `labels` and
    `structure` take no part).
    """

    __slots__ = ("order", "mul", "inv", "labels", "structure", "law", "gens")

    def __init__(self, order, mul, inv, labels=None, law=None, gens=None):
        self.order = order
        if mul is not None:
            self.mul = mul
        self.inv = inv
        self.labels = labels
        self.structure = {}
        self.law = law
        self.gens = gens

    def __repr__(self):
        return f"GroupTable(order={self.order})"

    def row(self, a):
        """a's row, a*y for every y."""
        return self.mul[a]

    def product(self, a, b):
        return self.mul[a][b]

    def power(self, a, k):
        """a^k by squaring over `product`, which a `LawTable` reads off its
        law: at most 2 log2(|k| + 1) products, none with the identity."""
        if k < 0:
            a, k = self.inv[a], -k
        result = 0
        while k:
            if k & 1:
                result = self.product(result, a) if result else a
            k >>= 1
            if k:
                a = self.product(a, a)
        return result

    def conjugate(self, g, x):
        """x^-1 g x."""
        return self.mul[self.mul[self.inv[x]][g]][x]

    def commutator(self, a, b):
        """[a, b] = a^-1 b^-1 a b."""
        return self.mul[self.mul[self.mul[self.inv[a]][self.inv[b]]][a]][b]

    def element_order(self, a):
        o, x = 1, a
        while x != 0:
            x = self.mul[x][a]
            o += 1
        return o

    def exponent(self):
        """The lcm of the element orders, read from one representative per
        rational class."""
        return math.lcm(*(len(rc.powers) for rc in rational_classes(self)))

    def label(self, a):
        if self.labels is not None:
            return self.labels[a]
        return str(a)

    @structure_memo
    def generating_set(self):
        """A greedy generating set: each element, in index order, that the
        ones before it do not generate.  Each one at least doubles the
        subgroup generated, so there are at most log2(order) of them.  A
        group built by `_table_from_elements` found them while it was
        built; only a table made otherwise is searched."""
        if self.gens is None:
            return tuple(_closure_indices(self, range(self.order))[1])
        return self.gens

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, GroupTable):
            return NotImplemented
        if self.order != other.order:
            return False
        gens = self.generating_set()
        return (gens == other.generating_set()
                and all(self.row(g) == other.row(g) for g in gens))

    @structure_memo
    def __hash__(self):
        """The order, the generating set and its rows, which determine the
        table; equal tables have the same generating set."""
        gens = self.generating_set()
        return hash((self.order, gens, tuple(tuple(self.row(g)) for g in gens)))


class Subgroup:
    """An index set inside a parent group, closed under product and inverse."""

    __slots__ = ("parent", "members", "_member_set")

    def __init__(self, parent, members):
        self.parent = parent
        self.members = members  # sorted element indices
        self._member_set = frozenset(members)

    def __repr__(self):
        return f"Subgroup(order={self.order}, members={self.members!r})"

    @property
    def order(self):
        return len(self.members)

    def __contains__(self, a):
        return a in self._member_set

    def __eq__(self, other):
        return (isinstance(other, Subgroup)
                and self.members == other.members
                and self.parent == other.parent)

    def __hash__(self):
        return hash((self.parent, self.members))

    def is_normal(self):
        """Normal exactly when the classes meeting H hold |H| elements."""
        classes = conjugacy_classes(self.parent)
        met = {classes.class_of[h] for h in self.members}
        return sum(classes.sizes[c] for c in met) == self.order


class ConjugacyData(namedtuple("ConjugacyData",
                               "class_of reps sizes inverse_class members")):
    """Conjugacy class partition: identity class first, then by (size, min).

    `class_of` maps element -> class index, `reps` class index ->
    representative element; `sizes`, `inverse_class` and `members` (the
    class's elements in rising order, `reps` first) are per class.
    """

    __slots__ = ()

    @property
    def num_classes(self):
        return len(self.reps)


class RationalClass(namedtuple("RationalClass", "first powers generators")):
    """`powers[a]` is the class of g^a, a = 0..o(g)-1, for g the
    representative of class `first`; `generators` lists (c, a) for the a
    prime to o(g), each class c once: the classes of the rational class."""

    __slots__ = ()


class ClassFunction:
    """Exact rational values, one per conjugacy class."""

    __slots__ = ("group", "classes", "values")

    def __init__(self, group, classes, values):
        self.group = group
        self.classes = classes
        self.values = values  # Fractions or ints

    def __repr__(self):
        return f"ClassFunction(values={self.values!r})"

    def at_element(self, g):
        return self.values[self.classes.class_of[g]]

    def total_mass(self):
        return sum(s * v for s, v in zip(self.classes.sizes, self.values))

    def __eq__(self, other):
        return (isinstance(other, ClassFunction)
                and self.group == other.group
                and self.values == other.values)

    def __hash__(self):
        return hash((self.group, self.values))


def _closure_indices(G, seed):
    """Closure of a set of indices under multiplication (finite group, so
    inverses come for free), and the seed elements that generate it.

    A breadth-first search from the identity that multiplies on the right by
    generators only: the seed elements not already reached, taken in turn.
    Each new generator restarts the search from everything reached so far.
    Returns (members, generators).
    """
    members = {0}
    gens = []
    for g in seed:
        if g in members:
            continue
        gens.append(g)
        frontier = list(members)
        while frontier:
            nxt = []
            for a in frontier:
                row = G.mul[a]
                for b in gens:
                    c = row[b]
                    if c not in members:
                        members.add(c)
                        nxt.append(c)
            frontier = nxt
    return members, gens


def subgroup_closure(G, seed):
    """Smallest subgroup of G containing `seed`."""
    return Subgroup(G, tuple(sorted(_closure_indices(G, seed)[0])))


def require_subgroup_of(G, H):
    """Refuse H unless it is a subgroup of G, or of a table equal to G."""
    if not isinstance(H, Subgroup) or H.parent != G:
        raise MismatchedGroup("subgroup belongs to a different group")


def trivial_subgroup(G):
    return Subgroup(G, (0,))


def whole_subgroup(G):
    return Subgroup(G, tuple(range(G.order)))


# ---------------------------------------------------------------------------
# construction


def from_cayley_table(table):
    """Validate a raw n x n index matrix and build it as a GroupTable.

    The identity need not be at index 0; the table is relabeled if
    required.  `_table_from_elements` reads its generators' rows off the
    input and composes the rest.  Light's test over those generators holds
    exactly when the input is associative, and then the rows composed are
    the input's.  Equal rows alone would not show it: some non-associative
    tables of order 6 compose to themselves.
    """
    n = len(table)
    if n == 0:
        raise NotAGroup("empty table")
    refuse_oversize(n)
    # Latin square check
    full = set(range(n))
    for i, row in enumerate(table):
        if len(row) != n:
            raise NotAGroup(f"row {i} has length {len(row)}, expected {n}")
        if set(row) != full:
            raise NotAGroup(f"row {i} is not a permutation of 0..{n - 1}")
    for i, column in enumerate(zip(*table)):
        if set(column) != full:
            raise NotAGroup(f"column {i} is not a permutation of 0..{n - 1}")

    # locate two-sided identity
    e = None
    for cand in range(n):
        if all(table[cand][a] == a and table[a][cand] == a for a in range(n)):
            e = cand
            break
    if e is None:
        raise NotAGroup("no two-sided identity element")

    if e != 0:
        perm = [e] + [a for a in range(n) if a != e]
        pos = {a: i for i, a in enumerate(perm)}
        table = [[pos[table[perm[i]][perm[j]]] for j in range(n)] for i in range(n)]

    mul = tuple(map(tuple, table))
    G = _table_from_elements(range(n), lambda a, b: mul[a][b])
    # Light's test: the g with (x*g)*y = x*(g*y) for all x, y are closed
    # under products; for one g it is row(x*g) = row(x) o row(g).
    for g in G.generating_set():
        rg = mul[g]
        times_g = itemgetter(*rg)  # row(x) -> row(x) o row(g)
        for a, ra in enumerate(mul):
            rag = mul[ra[g]]
            if rag != times_g(ra):
                c = next(c for c, d in enumerate(rg) if rag[c] != ra[d])
                raise NotAGroup(
                    f"associativity fails at ({a},{g},{c}): "
                    f"({a}*{g})*{c} != {a}*({g}*{c})")
    G.mul  # a law over the input would keep it: compose the table now
    return G


def _compose(p, q):
    """Permutation product: (p*q)(i) = p(q(i))."""
    return tuple(map(p.__getitem__, q))


def _permutation_order(p):
    """The lcm of the cycle lengths of the permutation p."""
    seen = bytearray(len(p))
    order = 1
    for start in range(len(p)):
        length = 0
        i = start
        while not seen[i]:
            seen[i] = 1
            i = p[i]
            length += 1
        if length:
            order = math.lcm(order, length)
    return order


def from_permutation_generators(degree, gens):
    """Closure of permutation generators, as a GroupTable.

    Element 0 is the identity permutation; the rest appear in BFS order,
    which makes the numbering deterministic.  A closure that outgrows
    DEFAULT_ORDER_CAP elements, or MAX_PERM_ENTRIES entries over its
    degree-tuples, is refused as soon as it does, before any table is built,
    and before the search when one generator's order already does.
    """
    most = min(DEFAULT_ORDER_CAP, MAX_PERM_ENTRIES // max(degree, 1))

    def refuse(elements):
        if most == DEFAULT_ORDER_CAP:
            return OrderLimitExceeded(f"closure exceeds order cap {most}")
        return OrderLimitExceeded(
            f"closure of at least {elements} elements x degree {degree} "
            f"exceeds {MAX_PERM_ENTRIES} permutation entries")

    ident = tuple(range(degree))
    checked = []
    for g in gens:
        t = tuple(g)
        if sorted(t) != list(range(degree)):
            raise NotAPermutation(f"{g!r} is not a permutation of 0..{degree - 1}")
        order = _permutation_order(t)
        if order > most:
            raise refuse(order)
        checked.append(t)

    # p -> p * g for each generator g; every permutation of degree < 2 is
    # the identity, and `itemgetter` of one index returns no tuple
    times = [itemgetter(*g) for g in checked] if degree > 1 else []
    elements = [ident]
    index = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for times_g in times:
                q = times_g(p)
                if q not in index:
                    if len(elements) >= most:
                        raise refuse(len(elements) + 1)
                    index[q] = len(elements)
                    elements.append(q)
                    nxt.append(q)
        frontier = nxt
    return _table_from_elements(elements, _compose, index=index)


def _table_from_elements(elements, combine, label=str, index=None):
    """Cayley table over an explicit element list (identity must be first).

    `combine` is called only for the rows of the generating set picked
    greedily (each element, in list order, not yet reached), |G| calls per
    row and at most log2|G| rows.  Every other row is composed from rows
    already built, row(a*s) = row(a) o row(s), which assumes only that
    `combine` is associative (`_compose_rows`).  The inverses follow the
    same steps, inv(a*s) = inv(s) * inv(a), once each generator's is read
    off its row, and the group keeps the generators as its generating set.
    Rows are tuples, gathered by an `itemgetter` over the generator's row.

    Above COMPACT_ROWS_ABOVE elements the group keeps its element law
    instead (`elementlaw`), which finds the same generators, and composes
    its table on the first read of `mul`.  `index`, each element's
    position, is built here unless the caller has it.
    """
    if index is None:
        index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    labels = _Labels(elements, label)
    if n > COMPACT_ROWS_ABOVE:
        from .elementlaw import law_table
        return law_table(elements, index, combine, labels)

    def generator(g):
        x = elements[g]
        return tuple([index[combine(x, y)] for y in elements])

    rows = [None] * n
    rows[0] = tuple(range(n))
    steps = _compose_rows(rows, generator, _composer)
    gens = tuple([c for c, a, _ in steps if a is None])
    return GroupTable(n, tuple(rows), _inverses(n, rows, steps), labels,
                      gens=gens)


def _inverses(n, rows, steps):
    """`inv` along the steps (c, a, s), c = a*s, in the order reached: a
    generator's off its row, else inv(a*s) = inv(s) * inv(a)."""
    inv = [0] * n
    for c, a, s in steps:
        inv[c] = rows[c].index(0) if a is None else rows[inv[s]][inv[a]]
    return tuple(inv)


def _compose_rows(rows, generator, composer):
    """Fill in the None entries of `rows`, whose entry 0 is the identity's
    row.  Each element not reached by the generators so far becomes the
    next one, `generator(g)` gives its row and `composer` makes that row's
    composer, row(a) -> row(a) o row(g); a breadth-first search then
    composes row(a*s) = times_s(row(a)) for every element it reaches.
    Returns the steps (c, a, s), c = a*s, in the order the rows were
    filled, with (g, None, None) for a generator.
    """
    reached = [0]
    steps = []
    gens = []  # (generator, row(a) -> row(a * generator))
    for g in range(len(rows)):
        if rows[g] is not None:
            continue
        rows[g] = generator(g)
        gens.append((g, composer(rows[g])))
        steps.append((g, None, None))
        reached.append(g)
        frontier = reached[:]
        while frontier:
            nxt = []
            for a in frontier:
                row = rows[a]
                for s, times_s in gens:
                    c = row[s]
                    if rows[c] is None:
                        rows[c] = times_s(row)
                        steps.append((c, a, s))
                        nxt.append(c)
            reached += nxt
            frontier = nxt
    return steps


def _composer(row):
    """row(a) -> row(a) o row for tuple rows: an `itemgetter` over `row`.
    It takes about 7 ns an entry, and concatenated slices beat it only
    below 5 runs, by 1-3% (Python 3.11.7, 2 vCPUs), so tuple rows are not
    sliced."""
    return itemgetter(*row)


# ---------------------------------------------------------------------------
# builtin families


def refuse_oversize(base, exp=1):
    """Refuse a group of order base**exp above DEFAULT_ORDER_CAP before
    anything is built, and before a primality test of a huge parameter.
    The builtins `cyclic`, `dihedral`, `quaternion`, `metacyclic` (of order
    m*n), `elementary_abelian`, `heisenberg`, `extraspecial_plus`,
    `extraspecial_minus` and `direct_product`, `from_cayley_table` and the
    `cayley` file header share it.

    The exponent is clipped at the cap's bit length, where base >= 2 is
    already over the cap.  `symmetric` and `agl1` need no check: their
    parameter limits keep them at 720 and 992 elements.
    """
    cap = DEFAULT_ORDER_CAP
    if base > 1 and base ** min(exp, cap.bit_length()) > cap:
        order = f"{base}^{exp}" if exp > 1 else str(base)
        raise OrderLimitExceeded(f"order {order} exceeds order cap {cap}")


def _cyclic(n):
    if n < 1:
        raise UnsupportedParameter("cyclic order must be >= 1")
    refuse_oversize(n)
    return _table_from_elements(list(range(n)), lambda a, b: (a + b) % n)


def _dihedral(order):
    # parameter is the group order: rotations r^i and reflections r^i s
    if order < 4 or order % 2:
        raise UnsupportedParameter("dihedral order must be even and >= 4")
    refuse_oversize(order)
    return _metacyclic_group(order // 2, 2, order // 2 - 1, 0, "r", "s")


def _quaternion(order):
    # generalized quaternion: a of order m = order/2, b^2 = a^(m/2), a^b = a^-1
    if order < 8 or order & (order - 1):
        raise UnsupportedParameter("quaternion order must be a power of 2, >= 8")
    refuse_oversize(order)
    return _metacyclic_group(order // 2, 2, order // 2 - 1, order // 4)


def _metacyclic(m, n, r, s):
    if m < 1 or n < 1 or not (0 <= r < m and 0 <= s < m):
        raise UnsupportedParameter(
            "metacyclic(m,n,r,s) needs m, n >= 1 and 0 <= r, s < m")
    if pow(r, n, m) != 1 % m or s * (r - 1) % m:
        raise UnsupportedParameter(
            "metacyclic(m,n,r,s) needs r^n = 1 and s(r - 1) = 0 (mod m)")
    refuse_oversize(m * n)
    return _metacyclic_group(m, n, r, s)


def _metacyclic_group(m, n, r, s, a="a", b="b"):
    """<a, b | a^m = 1, b^n = a^s, b a b^-1 = a^r> on the elements a^i b^j,
    j outer and i inner, labelled with the letters `a` and `b`: a{i}, then
    b or b{j}."""
    elements = [(i, j) for j in range(n) for i in range(m)]
    return _table_from_elements(
        elements, _metacyclic_law(m, n, r, s),
        lambda e: f"{a}{e[0]}" + ("" if not e[1] else b if e[1] == 1
                                  else f"{b}{e[1]}"))


def _metacyclic_law(m, n, r, s):
    """`combine` of <a, b | a^m = 1, b^n = a^s, b a b^-1 = a^r> on the
    pairs (i, j) = a^i b^j: a^i b^j * a^k b^l = a^(i + k r^j) b^(j+l), and
    b^n = a^s once j + l reaches n.  It is a group law when r^n = 1 and
    s(r - 1) = 0 (mod m), which the callers ensure."""
    powers = [pow(r, j, m) for j in range(n)]

    def combine(x, y):
        i, j = x
        k, l = y
        # a^i * a^k b^l needs no power of r: half the products of a
        # dihedral group, whose builds take about 7% less time with it
        if not j:
            return ((i + k) % m, l)
        i += k * powers[j]
        j += l
        if j < n:
            return (i % m, j)
        return ((i + s) % m, j - n)

    return combine


def _symmetric(n):
    if not 1 <= n <= 6:
        raise UnsupportedParameter("symmetric degree must be 1..6")
    elements = list(itertools.permutations(range(n)))  # identity first
    return _table_from_elements(elements, _compose)


def _elementary_abelian(p, k):
    refuse_oversize(p, k)
    if not _is_prime(p) or k < 1:
        raise UnsupportedParameter("need a prime p and k >= 1")
    elements = list(itertools.product(range(p), repeat=k))

    def combine(a, b):
        return tuple((x + y) % p for x, y in zip(a, b))

    return _table_from_elements(elements, combine)


def _heisenberg(p):
    refuse_oversize(p, 3)
    if not _is_prime(p):
        raise UnsupportedParameter("heisenberg parameter must be prime")
    elements = list(itertools.product(range(p), repeat=3))

    def combine(x, y):
        a, b, c = x
        d, e, f = y
        return ((a + d) % p, (b + e) % p, (c + f + a * e) % p)

    return _table_from_elements(elements, combine)


def _extraspecial_plus(p):
    if p == 2:
        return _dihedral(8)
    return _heisenberg(p)


def _extraspecial_minus(p):
    if p == 2:
        return _quaternion(8)
    refuse_oversize(p, 3)
    if not _is_prime(p):
        raise UnsupportedParameter("extraspecial parameter must be prime")
    # exponent p^2 group of order p^3: a of order p^2, b of order p,
    # a^b = a^(1+p); the elements (i, j) = a^i b^j in sorted order
    pp = p * p
    elements = [(i, j) for i in range(pp) for j in range(p)]
    return _table_from_elements(elements, _metacyclic_law(pp, p, 1 + p, 0))


def _prime_factors(n):
    """{p: k} with n = prod p^k over primes p, by trial division; {} for
    n < 2."""
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = 1
    return factors


def _prime_power(q):
    """(p, k) with q = p^k for a prime p and k >= 1, else None."""
    factors = _prime_factors(q)
    return next(iter(factors.items())) if len(factors) == 1 else None


def _is_prime(n):
    return _prime_power(n) == (n, 1)


# The irreducible modulus x^k + tail[k-1] x^(k-1) + ... + tail[0] of each
# non-prime field agl1 allows, keyed by (p, k).  The element numbering, and
# so every agl1 table and cached character table, depends on the choice.
_MODULI = {
    (2, 2): (1, 1), (2, 3): (1, 0, 1), (3, 2): (1, 0), (2, 4): (1, 0, 0, 1),
    (5, 2): (1, 1), (3, 3): (1, 0, 2), (2, 5): (1, 0, 0, 1, 0),
}


class _GF:
    """Small finite field GF(p^k) on the indices of its elements, the
    coefficient tuples (constant term first) in `itertools.product` order,
    so 0 is zero.  `add` and `mul` are its tables, built once."""

    def __init__(self, p, k):
        self.elements = list(itertools.product(range(p), repeat=k))
        index = {a: i for i, a in enumerate(self.elements)}
        self.one = index[(1,) + (0,) * (k - 1)]
        modpoly = _MODULI[p, k] if k > 1 else None

        def product(a, b):
            prod = [0] * (2 * k - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        prod[i + j] = (prod[i + j] + x * y) % p
            # reduce by x^k = -tail
            for i in range(2 * k - 2, k - 1, -1):
                c = prod[i]
                if c:
                    prod[i] = 0
                    for j in range(k):
                        prod[i - k + j] = (prod[i - k + j] - c * modpoly[j]) % p
            return index[tuple(prod[:k])]

        self.add = [[index[tuple([(x + y) % p for x, y in zip(a, b)])]
                     for b in self.elements] for a in self.elements]
        self.mul = [[product(a, b) for b in self.elements]
                    for a in self.elements]


def _agl1(q):
    pk = _prime_power(q)
    if pk is None or q > 32 or q < 2:
        raise UnsupportedParameter("agl1 parameter must be a prime power <= 32")
    F = _GF(*pk)
    fadd, fmul = F.add, F.mul
    units = sorted(range(1, q), key=lambda u: (u != F.one, u))
    elements = [(a, b) for a in units for b in range(q)]

    def combine(x, y):
        a, b = x
        c, d = y
        # x -> a(cx + d) + b
        return (fmul[a][c], fadd[fmul[a][d]][b])

    return _table_from_elements(
        elements, combine,
        lambda e: str((F.elements[e[0]], F.elements[e[1]])))


def direct_product(A, B):
    refuse_oversize(A.order * B.order)
    elements = [(a, b) for a in range(A.order) for b in range(B.order)]

    def combine(x, y):
        return (A.product(x[0], y[0]), B.product(x[1], y[1]))

    return _table_from_elements(
        elements, combine,
        lambda e: f"({A.label(e[0])},{B.label(e[1])})")


_FAMILIES = {
    "cyclic": (_cyclic, 1),
    "dihedral": (_dihedral, 1),
    "quaternion": (_quaternion, 1),
    "metacyclic": (_metacyclic, 4),
    "symmetric": (_symmetric, 1),
    "elementary_abelian": (_elementary_abelian, 2),
    "extraspecial_plus": (_extraspecial_plus, 1),
    "extraspecial_minus": (_extraspecial_minus, 1),
    "heisenberg": (_heisenberg, 1),
    "agl1": (_agl1, 1),
}


def builtin(family, *params):
    """Construct a builtin group.  For direct_product, params are GroupTables."""
    if family == "direct_product":
        if len(params) != 2 or not all(isinstance(p, GroupTable) for p in params):
            raise UnsupportedParameter("direct_product takes two groups")
        return direct_product(*params)
    try:
        fn, arity = _FAMILIES[family]
    except KeyError:
        raise UnknownFamily(f"unknown family {family!r}") from None
    if len(params) != arity:
        raise UnsupportedParameter(
            f"{family} takes {arity} parameter(s), got {len(params)}")
    return fn(*params)


def parse_builtin_spec(text):
    """Parse a spec like 'symmetric(3)' or 'direct_product(quaternion(8),cyclic(2))'.

    Parentheses nesting deeper than MAX_SPEC_NESTING are refused before the
    recursive descent starts."""
    text = text.strip()
    depth = 0
    for pos, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if depth > MAX_SPEC_NESTING:
            raise UnknownFamily(f"builtin spec nests parentheses more than "
                                f"{MAX_SPEC_NESTING} deep at position {pos}")
    spec, rest = _parse_spec(text, 0)
    if rest != len(text):
        raise UnknownFamily(f"trailing input in builtin spec: {text[rest:]!r}")
    return spec


def _parse_spec(text, i):
    j = i
    while j < len(text) and (text[j].isalnum() or text[j] == "_"):
        j += 1
    name = text[i:j]
    if not name:
        raise UnknownFamily(f"expected family name at position {i}")
    if j >= len(text) or text[j] != "(":
        raise UnknownFamily(f"expected '(' after {name!r}")
    j += 1
    args = []
    while True:
        if j < len(text) and text[j].isdigit():
            k = j
            while k < len(text) and text[k].isdigit():
                k += 1
            where = f"builtin spec parameter at position {j}"
            args += read_ints([text[j:k]], DEFAULT_ORDER_CAP,
                              lambda m: UnknownFamily(f"{where}: {m}"))
            j = k
        else:
            sub, j = _parse_spec(text, j)
            args.append(sub)
        if j < len(text) and text[j] == ",":
            j += 1
            continue
        break
    if j >= len(text) or text[j] != ")":
        raise UnknownFamily(f"expected ')' at position {j}")
    return builtin(name, *args), j + 1


# ---------------------------------------------------------------------------
# structure


def right_multiple(G, s):
    """(y*s for every y), read as inv[row(s^-1)[inv[y]]]: from `inv` and the
    row of s^-1, which a group holds whether or not its table is built, for
    s a generator.  Two gathers, no product per entry."""
    inv = G.inv
    return itemgetter(*itemgetter(*inv)(G.row(inv[s])))(inv)


@structure_memo
def conjugacy_classes(G):
    """Orbits of conjugation by the generating set, which are the classes."""
    n = G.order
    # conj[i][x] = (s^-1 x) s for the i-th generator s
    conj = [itemgetter(*G.row(G.inv[s]))(right_multiple(G, s))
            for s in G.generating_set()]
    seen = set()
    classes = []  # found in rising order of their least element
    for a in range(n):
        if a in seen:
            continue
        orbit = {a}
        frontier = [a]
        while frontier:
            x = frontier.pop()
            for c in conj:
                y = c[x]
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    # a stable sort: by (size, least element), so the identity class first
    classes.sort(key=len)
    class_of = [0] * n
    for idx, cls in enumerate(classes):
        for x in cls:
            class_of[x] = idx
    reps = tuple(cls[0] for cls in classes)
    sizes = tuple(len(cls) for cls in classes)
    inverse_class = tuple(class_of[G.inv[rep]] for rep in reps)
    return ConjugacyData(tuple(class_of), reps, sizes, inverse_class,
                         tuple(classes))


@structure_memo
def rational_classes(G):
    """The rational classes, identity first, then by first class.  h is
    rationally conjugate to g when it is conjugate to g^a with a prime to
    o(g), that is when <h> and <g> are conjugate.  `chartab` and
    `exponent()` read them."""
    classes = conjugacy_classes(G)
    class_of = classes.class_of
    covered = [False] * classes.num_classes
    out = []
    for m, g in enumerate(classes.reps):
        if covered[m]:
            continue
        powers, x = [0], g
        while x:
            powers.append(class_of[x])
            x = G.mul[x][g]
        generators = []
        for a, c in enumerate(powers):
            if not covered[c] and math.gcd(a, len(powers)) == 1:
                covered[c] = True
                generators.append((c, a))
        out.append(RationalClass(m, tuple(powers), tuple(generators)))
    return tuple(out)


@structure_memo
def center(G):
    """The classes of size 1, which come first, by their one element."""
    classes = conjugacy_classes(G)
    return Subgroup(G, classes.reps[:classes.sizes.count(1)])


def centralizer_of_subgroup_mod(G, lower):
    """Elements g with [g, x] in `lower` for every x (preimage of the center
    of G / lower).  `lower` must be normal: then [g, xy] = [g, y][g, x]^y
    and [g^y, x] = [g, x^(y^-1)]^y, so testing the generators and one g
    per class is enough."""
    lset, gens = lower._member_set, G.generating_set()
    classes = conjugacy_classes(G)
    passes = [all(G.commutator(r, s) in lset for s in gens)
              for r in classes.reps]
    return Subgroup(G, tuple(sorted([g for c, m in enumerate(classes.members)
                                    if passes[c] for g in m])))


def _normal_closure(G, seed):
    """Members of the smallest normal subgroup containing `seed`: the
    subgroup the classes meeting `seed` generate, which a union of classes
    makes normal."""
    classes = conjugacy_classes(G)
    met = dict.fromkeys(classes.class_of[x] for x in seed)
    return _closure_indices(G, [x for c in met
                                for x in classes.members[c]])[0]


def commutator_of(G, A):
    """[A, G] for a normal subgroup A of G.

    It is the normal closure of the commutators of a generating set of A
    with `G.generating_set()`: that closure lies in [A, G], which is
    normal, and contains the closure in <A, G> = G, which is [A, G].
    """
    gens_G = G.generating_set()
    gens_A = (gens_G if A.order == G.order
              else _closure_indices(G, A.members)[1])
    seed = [G.commutator(a, b) for a in gens_A for b in gens_G]
    return Subgroup(G, tuple(sorted(_normal_closure(G, seed))))


@structure_memo
def commutator_subgroup(G):
    return commutator_of(G, whole_subgroup(G))


@structure_memo
def upper_central_series(G):
    """(Z_0, Z_1, ...) until stabilization, with Z_1 = `center(G)`."""
    series = [trivial_subgroup(G)]
    nxt = center(G)
    while nxt.members != series[-1].members:
        series.append(nxt)
        nxt = centralizer_of_subgroup_mod(G, nxt)
    return tuple(series)


@structure_memo
def lower_central_series(G):
    """(gamma_1, gamma_2, ...) until stabilization, with gamma_2 = G'."""
    series = [whole_subgroup(G)]
    nxt = commutator_subgroup(G)
    while nxt.members != series[-1].members:
        series.append(nxt)
        nxt = commutator_of(G, nxt)
    return tuple(series)


@structure_memo
def nilpotency_class(G):
    """Least c with Z_c = G, or None if G is not nilpotent.

    Both central series are computed and must agree.
    """
    ucs = upper_central_series(G)
    lcs = lower_central_series(G)
    upper_c = len(ucs) - 1 if ucs[-1].order == G.order else None
    lower_c = len(lcs) - 1 if lcs[-1].order == 1 else None
    if upper_c != lower_c:
        raise InternalInconsistency(
            "central series disagree on nilpotency class")
    return upper_c


def zn(G, n):
    """Z_n(G), n >= 0; the series is extended by its stable tail for large
    n.  Z_1 is `center(G)`, read without the rest of the series."""
    if n < 0:
        raise UnsupportedParameter(f"Z_n needs n >= 0, got n = {n}")
    if n == 1:
        return center(G)
    series = upper_central_series(G)
    return series[min(n, len(series) - 1)]


def gamma(G, i):
    """gamma_i(G), i >= 1; stable tail for large i.  gamma_2 is
    `commutator_subgroup(G)`, read without the rest of the series."""
    if i < 1:
        raise UnsupportedParameter(f"gamma_i needs i >= 1, got i = {i}")
    if i == 2:
        return commutator_subgroup(G)
    series = lower_central_series(G)
    return series[min(i - 1, len(series) - 1)]


@structure_memo
def quotient(G, N):
    """Quotient group on coset representatives plus the projection map,
    built once per group and normal subgroup: the isoclinism search and the
    central-quotient check ask for the same G/Z(G).

    Each coset is represented by its least element, and Q numbers the
    cosets by representative, so the identity coset comes first."""
    require_subgroup_of(G, N)
    if not N.is_normal():
        raise NotNormal("subgroup is not normal")
    coset_rep = [None] * G.order
    for a in range(G.order):
        if coset_rep[a] is None:
            coset = [G.mul[a][h] for h in N.members]
            rep = min(coset)
            for x in coset:
                coset_rep[x] = rep
    reps = sorted(set(coset_rep))
    Q = _table_from_elements(reps, lambda a, b: coset_rep[G.mul[a][b]],
                             lambda r: G.label(r) + "N")
    rep_index = {r: i for i, r in enumerate(reps)}
    return Q, tuple(rep_index[r] for r in coset_rep)


def is_camina_pair(G, H):
    """True iff gH is contained in the conjugacy class of g for all g not in H.

    H is normal, so (gH)^x = g^x H and the condition holds for g exactly
    when it holds for its conjugates: one representative per class outside
    H is enough.
    """
    require_subgroup_of(G, H)
    if H.order <= 1 or H.order >= G.order:
        raise BadSubgroup("Camina pair needs 1 < H < G")
    if not H.is_normal():
        raise BadSubgroup("Camina pair needs H normal in G")
    classes = conjugacy_classes(G)
    class_of = classes.class_of
    for cg, g in enumerate(classes.reps):
        if g in H:
            continue
        row = G.mul[g]
        if any(class_of[row[h]] != cg for h in H.members):
            return False
    return True


@structure_memo
def normal_subgroups(G):
    """All normal subgroups, as joins of the normal closures of the
    nontrivial conjugacy classes, each join taken by `subgroup_closure`."""
    atoms = dict.fromkeys(subgroup_closure(G, c).members
                          for c in conjugacy_classes(G).members[1:])
    found = {(0,): trivial_subgroup(G)}
    todo = [(0,)]
    while todo:
        N = todo.pop()
        for A in atoms:
            J = subgroup_closure(G, N + A)
            if J.members not in found:
                found[J.members] = J
                todo.append(J.members)
    return tuple(sorted(found.values(), key=lambda s: (s.order, s.members)))
