"""Brute-force fiber counting: the ground-truth oracle.

One enumeration pass over the assignment space produces the whole
distribution g -> #solutions of w(x1..xn) = g.  Every assignment is
counted, once per distinct residual word: the word is held as group
constants interleaved with the letters of the variables not yet fixed,
fixing a variable folds its letters into the neighbouring constants, and
assignments of the fixed variables that leave the same constants are
merged and carried on as one state with a multiplicity.  Variables are
fixed in order of falling occurrence count.

Central elements factor out first.  For z central, x_v -> x_v z
multiplies the word's value by z^e_v, e_v the exponent sum of x_v.  So each
variable runs over a transversal of Z_v = Z(G) & D_v in its domain D_v, and
the counts are then convolved with the image of the uniform measure on each
Z_v under z -> z^e_v, which is a factor |Z_v| when e_v = 0, as for every
variable of a commutator word.  Z(G) comes from a scan of its own, not from
`groups.center`, which reads the classes of size 1; both rest on
`G.generating_set()`, so a wrong generating set would bias both.

A word that reduces to one letter x^k is counted as the fibers of the
power map over the transversal, with no fold.  The scan for Z(G), the
transversals, the power maps and the spread over Z(G) read only `inv`,
the generators' rows and single products (`G.product`, `G.power`), so on
a group that keeps its element law (above `groups.COMPACT_ROWS_ABOVE`
elements) a one-letter count builds no Cayley table; the folds of longer
words read `mul`.  Beyond that only associativity of the group law is
used, which `groups.from_cayley_table` checks for a table.
"""
from __future__ import annotations

import math
from collections import Counter, namedtuple

from . import groups
from .errors import BudgetExceeded, InternalInconsistency, MismatchedGroup
from .groups import DEFAULT_BUDGET, ClassFunction


class DomainSpec(namedtuple("DomainSpec", "domains")):
    """Per-variable domains: a tuple of entries None (the whole group) or
    Subgroup."""

    __slots__ = ()

    @staticmethod
    def whole(arity):
        return DomainSpec((None,) * arity)

    def member_lists(self, G):
        out = []
        for d in self.domains:
            if d is None:
                out.append(range(G.order))
            else:
                groups.require_subgroup_of(G, d)
                out.append(d.members)
        return out

    def all_whole(self):
        return all(d is None for d in self.domains)


def require_budget(assignments, budget):
    """Refuse to count more than `budget` assignments."""
    if assignments > budget:
        raise BudgetExceeded(
            f"{assignments} assignments exceed budget {budget}")


@groups.structure_memo
def central_elements(G):
    """The z with z s = s z for every generator s of G, in rising order;
    z s is read off `groups.right_multiple`, s z off s's row."""
    pairs = [(groups.right_multiple(G, s), G.row(s))
             for s in G.generating_set()]
    return tuple([z for z in range(G.order)
                  if all(times[z] == row[z] for times, row in pairs)])


def _transversal(G, members, central):
    """The least element of each coset of the central elements `central`
    in the sorted `members`, so the identity comes first.

    It is held like the table's rows.  Past `groups.COMPACT_ROWS_ABOVE`
    elements it is a 2-byte array, which holds no int object per entry (a
    list raised the peak RSS of a `count` on dihedral(2000) by about
    0.13 MB); below, `array` is not imported, which costs about 0.3 ms of
    a brute-force process's start."""
    if len(central) == 1:
        return members
    covered = bytearray(G.order)
    reps = []
    if G.order > groups.COMPACT_ROWS_ABOVE:
        from array import array
        reps = array("H")
    product = G.product  # one per element of the cosets: |G| in all
    for a in members:
        if not covered[a]:
            reps.append(a)
            for z in central:
                covered[product(a, z)] = 1
    return reps


def zeta_element_counts(G, word, domains=None, budget=DEFAULT_BUDGET):
    """Raw per-element fiber counts as a length-|G| integer list."""
    if domains is None:
        domains = DomainSpec.whole(word.arity)
    if len(domains.domains) != word.arity:
        raise MismatchedGroup(
            f"domain spec has {len(domains.domains)} entries for arity {word.arity}")
    member_lists = domains.member_lists(G)
    central = central_elements(G)
    parts = [central if d is None else [z for z in central if z in d]
             for d in domains.domains]
    reps = [_transversal(G, lst, zd) for lst, zd in zip(member_lists, parts)]
    require_budget(math.prod(map(len, reps)), budget)

    counts = [0] * G.order
    _count_assignments(G, word, reps, counts)
    counts = _spread_over_center(G, word, parts, counts)
    if sum(counts) != math.prod(map(len, member_lists)):
        raise InternalInconsistency("total mass of fiber counts is wrong")
    return counts


def _spread_over_center(G, word, central_parts, counts):
    """Counts over the whole domains from the counts over the transversals:
    their convolution with the image of the uniform measure on each
    variable's Z_v under z -> z^e_v, which is |Z_v| times the point mass
    at 1 when e_v = 0."""
    exponents = [0] * len(central_parts)
    for v, e in word.letters:
        exponents[v - 1] += e
    product = G.product
    factor = 1
    shift = {0: 1}  # the image measure over the variables with e_v != 0
    for zd, e in zip(central_parts, exponents):
        if e == 0:
            factor *= len(zd)
        elif len(zd) > 1:
            nxt = {}
            for z in zd:
                ze = G.power(z, e)
                for y, m in shift.items():
                    c = product(ze, y)
                    nxt[c] = nxt.get(c, 0) + m
            shift = nxt
    if len(shift) == 1:
        factor *= shift[0]
        return [c * factor for c in counts] if factor > 1 else counts
    reached = [(g, c * factor) for g, c in enumerate(counts) if c]
    out = [0] * G.order
    for y, m in shift.items():
        for g, c in reached:
            out[product(y, g)] += c * m  # y is central: g y = y g
    return out


def _power_map(G, e):
    """g -> g^e for every g, a tuple, which the folds index faster than a
    range: the identity and `inv` for e = 1 and -1, else `G.power`, which
    reads the law while the table is unbuilt."""
    if e == 1:
        return tuple(range(G.order))
    if e == -1:
        return G.inv
    return tuple([G.power(a, e) for a in range(G.order)])


def _fold_plan(letters, var, rows):
    """Plan for fixing `var` in a word held as c0 L1 c1 ... Lm cm.

    Each maximal run of `var`'s letters merges with the constants around it
    into one constant.  Returns the letters left and, per new constant, the
    index of its first old constant and the (power row, next constant index)
    pair of every letter folded into it.
    """
    kept = []
    plan = [(0, [])]
    for i, (v, e) in enumerate(letters):
        if v == var:
            plan[-1][1].append((rows[e], i + 1))
        else:
            kept.append((v, e))
            plan.append((i + 1, []))
    return kept, plan


def _count_assignments(G, word, member_lists, counts):
    """Add w(x) to `counts` for every x in the product of `member_lists`.

    The variables are fixed one level at a time.  `states` maps each tuple
    of constants the word holds once the variables so far are fixed to the
    number of their assignments that leave it.  Fixing the next variable
    folds every (state, value) pair once, so assignments that leave the
    same residual word share all later work.  The last variable's folds
    give the word's value, which takes the state's multiplicity.
    """
    # A variable confined to the trivial subgroup is the identity.
    letters = [(v, e) for v, e in word.letters
               if len(member_lists[v - 1]) > 1]
    if not letters:
        counts[0] += 1
        return
    rows = {e: _power_map(G, e) for e in {e for _, e in letters}}
    if len(letters) == 1:
        # x^e: the fibers of the power map, with no fold and no table
        ((v, e),) = letters
        row = rows[e]
        for a in member_lists[v - 1]:
            counts[row[a]] += 1
        return
    mul = G.mul
    occurrences = Counter(v for v, _ in letters)
    order = sorted(occurrences, key=lambda v: (-occurrences[v], v))
    states = {(0,) * (len(letters) + 1): 1}
    for v in order[:-1]:
        letters, plan = _fold_plan(letters, v, rows)
        folded = Counter()
        for c, mult in states.items():
            steps = [(c[first], [(row, c[i]) for row, i in run])
                     for first, run in plan]
            for a in member_lists[v - 1]:
                state = []
                for acc, run in steps:
                    for row, ci in run:
                        acc = mul[mul[acc][row[a]]][ci]
                    state.append(acc)
                folded[tuple(state)] += mult
        states = folded
    last = member_lists[order[-1] - 1]
    last_rows = [rows[e] for _, e in letters]
    # One or two letters left, as for the last variable of every w_n: the
    # folds are written out over the letters' values at each a.
    if len(last_rows) == 1:
        values = [last_rows[0][a] for a in last]
        for (c0, c1), mult in states.items():
            r0 = mul[c0]
            for p in values:
                counts[mul[r0[p]][c1]] += mult
        return
    if len(last_rows) == 2:
        pairs = list(zip(*[[row[a] for a in last] for row in last_rows]))
        for (c0, c1, c2), mult in states.items():
            r0 = mul[c0]
            for p, q in pairs:
                counts[mul[mul[mul[r0[p]][c1]][q]][c2]] += mult
        return
    for c, mult in states.items():
        steps = list(zip(last_rows, c[1:]))
        for a in last:
            acc = c[0]
            for row, ci in steps:
                acc = mul[mul[acc][row[a]]][ci]
            counts[acc] += mult


def zeta_brute(G, word, budget=DEFAULT_BUDGET, classes=None):
    """Exact fiber counts over whole-group domains, asserted constant on
    conjugacy classes and returned as a ClassFunction."""
    counts = zeta_element_counts(G, word, budget=budget)
    if classes is None:
        classes = groups.conjugacy_classes(G)
    values = tuple(counts[rep] for rep in classes.reps)
    for g in range(G.order):
        if counts[g] != values[classes.class_of[g]]:
            raise InternalInconsistency(
                "fiber counts are not constant on conjugacy classes")
    return ClassFunction(G, classes, values)


def is_measure_preserving(G, word, budget=DEFAULT_BUDGET):
    """True iff every fiber has size |G|^(arity-1)."""
    counts = zeta_element_counts(G, word, budget=budget)
    expected = G.order ** (word.arity - 1)
    return all(c == expected for c in counts)


def nilpotency_degree(G, n, budget=DEFAULT_BUDGET):
    """Probability that a random left-normed n-fold commutator is trivial."""
    from fractions import Fraction

    from .words import wn

    zeta = zeta_brute(G, wn(n), budget=budget)
    return Fraction(zeta.values[0], G.order ** n)

