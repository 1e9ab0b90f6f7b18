"""Brute-force fiber counting: the ground-truth oracle.

One enumeration pass over the assignment space produces the whole
distribution g -> #solutions of w(x1..xn) = g.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import groups
from .chartab import ClassFunction
from .errors import BudgetExceeded, InternalInconsistency, MismatchedGroup
from .groups import GroupTable, Subgroup

DEFAULT_BUDGET = 2**30


@dataclass(frozen=True)
class DomainSpec:
    """Per-variable domains: None means the whole group."""

    domains: tuple  # entries None or Subgroup

    @staticmethod
    def whole(arity):
        return DomainSpec((None,) * arity)

    def member_lists(self, G):
        out = []
        for d in self.domains:
            if d is None:
                out.append(range(G.order))
            else:
                if d.parent.canonical_key() != G.canonical_key():
                    raise MismatchedGroup(
                        "domain subgroup belongs to a different group")
                out.append(d.members)
        return out

    def all_whole(self):
        return all(d is None for d in self.domains)


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
    if total > budget:
        raise BudgetExceeded(f"{total} evaluations exceed budget {budget}")

    counts = [0] * G.order
    mul = G.mul
    power = G.power
    # precompile: list of (var index 0-based, exponent)
    letters = [(v - 1, e) for v, e in word.letters]
    for assignment in itertools.product(*member_lists):
        acc = 0
        for vi, e in letters:
            a = assignment[vi]
            acc = mul[acc][a if e == 1 else power(a, e)]
        counts[acc] += 1
    if sum(counts) != total:
        raise InternalInconsistency("total mass of fiber counts is wrong")
    return counts


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


def probability(zeta, n):
    """The distribution P(g) = zeta(g) / |G|^n as exact rationals."""
    denom = zeta.group.order ** n
    return ClassFunction(
        zeta.group, zeta.classes,
        tuple(Fraction(v, denom) for v in zeta.values))


def nilpotency_degree(G, n, budget=DEFAULT_BUDGET):
    """Probability that a random left-normed n-fold commutator is trivial."""
    from .words import wn

    zeta = zeta_brute(G, wn(n), budget=budget)
    return Fraction(zeta.values[0], G.order ** n)


def export_csv(G, classes, counts, n, stream):
    """One row per class: rep label, size, count, probability num/den."""
    denom = G.order ** n
    per_class = counts.values
    stream.write("rep_label,class_size,count,probability_numerator,"
                 "probability_denominator\n")
    for m in range(classes.num_classes):
        prob = Fraction(int(per_class[m]), denom)
        label = str(G.label(classes.reps[m])).replace(",", " ")
        stream.write(f"{label},{classes.sizes[m]},{per_class[m]},"
                     f"{prob.numerator},{prob.denominator}\n")
