"""Brute-force fiber counting: the ground-truth oracle.

One enumeration pass over the assignment space produces the whole
distribution g -> #solutions of w(x1..xn) = g.  Every assignment is
counted, once per distinct residual word: the word is held as group
constants interleaved with the letters of the variables not yet fixed,
fixing a variable folds its letters into the neighbouring constants, and
assignments of the fixed variables that leave the same constants are
merged and carried on as one state with a multiplicity.  Variables are
fixed in order of falling occurrence count.  Only associativity of the
table is used, which `groups.from_cayley_table` checks.
"""
from __future__ import annotations

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


def zeta_element_counts(G, word, domains=None, budget=DEFAULT_BUDGET):
    """Raw per-element fiber counts as a length-|G| integer list."""
    if domains is None:
        domains = DomainSpec.whole(word.arity)
    if len(domains.domains) != word.arity:
        raise MismatchedGroup(
            f"domain spec has {len(domains.domains)} entries for arity {word.arity}")
    member_lists = domains.member_lists(G)
    total = 1
    for lst in member_lists:
        total *= len(lst)
    require_budget(total, budget)

    counts = [0] * G.order
    _count_assignments(G, word, member_lists, counts)
    if sum(counts) != total:
        raise InternalInconsistency("total mass of fiber counts is wrong")
    return counts


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
    mul = G.mul
    # A variable confined to the trivial subgroup is the identity.
    letters = [(v, e) for v, e in word.letters
               if len(member_lists[v - 1]) > 1]
    if not letters:
        counts[0] += 1
        return
    rows = {e: tuple(G.power(a, e) for a in range(G.order))
            for e in {e for _, e in letters}}
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
    last_rows = [rows[e] for _, e in letters]
    for c, mult in states.items():
        steps = list(zip(last_rows, c[1:]))
        for a in member_lists[order[-1] - 1]:
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

