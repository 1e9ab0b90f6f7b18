"""The generator-based table builder and structure functions against the
per-entry and all-pairs definitions they replace, kept here as references."""

import functools
import importlib.util
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from operator import itemgetter, mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordcount import (chartab, counting, cyclotomic, formulas, groups,
                       verification, words)
from wordcount.cyclotomic import Cyclotomic
from wordcount.cli import main
from wordcount.errors import (NonIntegral, NotAGroup, OrderLimitExceeded,
                              PredicateFailed)

# ---------------------------------------------------------------------------
# references: one combine call per Cayley entry, all pairs of elements


def per_entry_table(elements, combine, label=str):
    index = {e: i for i, e in enumerate(elements)}
    mul = tuple(tuple([index[combine(a, b)] for b in elements])
                for a in elements)
    inv = tuple(row.index(0) for row in mul)
    return groups.GroupTable(len(elements), mul, inv,
                             tuple(label(e) for e in elements))


def ref_inverses(mul):
    """Each element's inverse by scanning its row for the identity, and
    checking that it is two-sided."""
    inv = []
    for a, row in enumerate(mul):
        try:
            b = row.index(0)
        except ValueError:
            b = None
        if b is None or mul[b][a] != 0:
            raise NotAGroup(f"element {a} has no two-sided inverse")
        inv.append(b)
    return tuple(inv)


def ref_quotient(G, N):
    """G/N on the sorted least coset elements, one lookup per entry."""
    coset_rep = [min(G.mul[a][h] for h in N.members) for a in range(G.order)]
    reps = sorted(set(coset_rep))
    Q = per_entry_table(reps, lambda a, b: coset_rep[G.mul[a][b]],
                        lambda r: G.label(r) + "N")
    return Q, tuple(reps.index(r) for r in coset_rep)


def ref_classes(G):
    # conjugates[g][a] = g^-1 a g, so a's class is the column of a
    mul, n = G.mul, G.order
    conjugates = [[mul[x][g] for x in mul[G.inv[g]]] for g in range(n)]
    classes = set(map(frozenset, zip(*conjugates)))
    return sorted((sorted(c) for c in classes),
                  key=lambda c: (0 not in c, len(c), c[0]))


def ref_center(G):
    mul = G.mul
    return tuple(a for a in range(G.order)
                 if all(mul[a][b] == mul[b][a] for b in range(G.order)))


def ref_centralizer_mod(G, lower):
    mul, inv, lower = G.mul, G.inv, set(lower)
    return tuple(g for g in range(G.order)
                 if all(mul[mul[mul[inv[g]][inv[x]]][g]][x] in lower
                        for x in range(G.order)))


def ref_commutator_of(G, A, B):
    mul, inv = G.mul, G.inv
    seed = {mul[mul[mul[inv[a]][inv[b]]][a]][b] for a in A for b in B}
    return groups.subgroup_closure(G, seed).members


def ref_upper_series(G):
    series = [(0,)]
    while True:
        nxt = ref_centralizer_mod(G, series[-1])
        if nxt == series[-1]:
            return series
        series.append(nxt)


def ref_lower_series(G):
    series = [tuple(range(G.order))]
    while True:
        nxt = ref_commutator_of(G, series[-1], range(G.order))
        if nxt == series[-1]:
            return series
        series.append(nxt)


def ref_is_normal(H):
    G = H.parent
    mul, inv, members = G.mul, G.inv, set(H.members)
    return all(mul[mul[inv[g]][h]][g] in members
               for h in H.members for g in range(G.order))


def ref_is_camina_pair(G, H):
    class_of = groups.conjugacy_classes(G).class_of
    return all(class_of[G.mul[g][h]] == class_of[g]
               for g in range(G.order) if g not in H for h in H.members)


def ref_normal_subgroups(G):
    """Every normal subgroup: the closures of unions of conjugacy classes,
    which are normal since the union is closed under conjugation."""
    classes = ref_classes(G)
    found = {(0,)}
    frontier = [(0,)]
    while frontier:
        nxt = []
        for N in frontier:
            for c in classes[1:]:
                J = groups.subgroup_closure(G, N + tuple(c)).members
                if J not in found:
                    found.add(J)
                    nxt.append(J)
        frontier = nxt
    return sorted(found, key=lambda m: (len(m), m))


def build_by_reference(monkeypatch, build):
    with monkeypatch.context() as m:
        m.setattr(groups, "_table_from_elements", per_entry_table)
        return build()


def check_structure(G):
    classes = groups.conjugacy_classes(G)
    by_class = [[] for _ in range(classes.num_classes)]
    for a, c in enumerate(classes.class_of):
        by_class[c].append(a)
    assert by_class == ref_classes(G)
    assert groups.center(G).members == ref_center(G)
    lower = ref_lower_series(G)
    assert [s.members for s in groups.lower_central_series(G)] == lower
    derived = lower[1] if len(lower) > 1 else lower[0]
    assert groups.commutator_subgroup(G).members == derived
    assert [s.members for s in groups.upper_central_series(G)] == \
        ref_upper_series(G)
    normals = groups.normal_subgroups(G)
    assert [N.members for N in normals] == ref_normal_subgroups(G)
    for L in normals[:-1]:  # G itself is normals[-1], trivially all of G
        assert groups.centralizer_of_subgroup_mod(G, L).members == \
            ref_centralizer_mod(G, L.members)
        if L.order > 1:
            assert groups.is_camina_pair(G, L) == ref_is_camina_pair(G, L)
    # normal and non-normal subgroups: cyclic ones and joins of two, on a
    # sample of about a dozen elements
    sample = range(0, G.order, max(1, G.order // 12))
    subgroups = {groups.subgroup_closure(G, [a, b])
                 for a in sample for b in sample}
    for H in subgroups | set(normals[:-1]):
        if H.order < G.order:
            assert H.is_normal() == ref_is_normal(H)


SMALL_BUILTINS = [
    "cyclic(1)", "cyclic(6)", "dihedral(4)", "dihedral(12)",
    "quaternion(8)", "quaternion(16)", "symmetric(1)", "symmetric(3)",
    "symmetric(4)", "elementary_abelian(2,3)", "elementary_abelian(3,2)",
    "heisenberg(3)", "extraspecial_plus(2)", "extraspecial_plus(3)",
    "extraspecial_minus(2)", "extraspecial_minus(3)", "agl1(2)", "agl1(5)",
    "agl1(8)", "agl1(9)", "agl1(16)",
    "direct_product(symmetric(3),cyclic(4))",
    "direct_product(quaternion(8),elementary_abelian(2,2))",
    "direct_product(agl1(4),dihedral(6))",
]


@pytest.mark.parametrize("spec", SMALL_BUILTINS)
def test_builtins_match_references(spec, monkeypatch):
    G = groups.parse_builtin_spec(spec)
    R = build_by_reference(monkeypatch,
                           lambda: groups.parse_builtin_spec(spec))
    assert (G.mul, G.inv, G.labels) == (R.mul, R.inv, R.labels)
    check_structure(G)


@pytest.mark.parametrize("spec", SMALL_BUILTINS)
def test_quotients_match_reference(spec):
    G = groups.parse_builtin_spec(spec)
    for N in groups.normal_subgroups(G):
        Q, proj = groups.quotient(G, N)
        R, ref_proj = ref_quotient(G, N)
        assert (Q.mul, Q.inv, Q.labels, proj) == \
            (R.mul, R.inv, R.labels, ref_proj)


def ref_rational_class(G, g):
    """The classes holding a power g^a with a prime to the order of g."""
    class_of = groups.conjugacy_classes(G).class_of
    o = G.element_order(g)
    return {class_of[G.power(g, a)] for a in range(o) if math.gcd(a, o) == 1}


@pytest.mark.parametrize("spec", SMALL_BUILTINS)
def test_rational_classes_match_reference(spec):
    G = groups.parse_builtin_spec(spec)
    classes = groups.conjugacy_classes(G)
    entries = groups.rational_classes(G)
    assert entries[0] == (0, (0,), ((0, 0),))
    assert [rc.first for rc in entries] == sorted(rc.first for rc in entries)
    entry_of = {}
    for rc in entries:
        g = classes.reps[rc.first]
        o = G.element_order(g)
        assert rc.powers == tuple(classes.class_of[G.power(g, a)]
                                  for a in range(o))
        assert all(rc.powers[a] == c and math.gcd(a, o) == 1
                   for c, a in rc.generators)
        for c, _ in rc.generators:
            entry_of[c] = rc
    # classes share an entry iff one class holds a generator of the
    # other's representative
    assert sorted(entry_of) == list(range(classes.num_classes))
    assert sum(len(rc.generators) for rc in entries) == classes.num_classes
    for c, rep in enumerate(classes.reps):
        assert {d for d, _ in entry_of[c].generators} == \
            ref_rational_class(G, rep)


@pytest.mark.parametrize("spec", SMALL_BUILTINS)
def test_exponent_is_lcm_of_element_orders(spec):
    G = groups.parse_builtin_spec(spec)
    assert G.exponent() == math.lcm(*map(G.element_order, range(G.order)))


def per_entry_permutation_table(elements):
    """`per_entry_table` for permutations under `groups._compose`, with one
    `itemgetter` call per entry in place of a Python-level composition:
    p o q = itemgetter(*q)(p)."""
    if len(elements[0]) < 2:  # the identity alone; itemgetter(0) is no tuple
        return per_entry_table(elements, groups._compose)
    index = {e: i for i, e in enumerate(elements)}
    right = [itemgetter(*q) for q in elements]
    mul = tuple(tuple([index[times_q(p)] for times_q in right])
                for p in elements)
    inv = tuple(row.index(0) for row in mul)
    return groups.GroupTable(len(elements), mul, inv,
                             tuple(map(str, elements)))


# Several generator lists close to the same element list, and so to the
# same reference table and structure (at seed 0, 3 of the 8 examples that
# draw S6 do): each reference table is built once, and each table's
# structure checked once.
cached_per_entry_table = functools.cache(per_entry_permutation_table)
STRUCTURE_CHECKED = set()  # the tables check_structure has passed


@settings(max_examples=25, deadline=None)
@given(data=st.data(), degree=st.integers(1, 6))
def test_permutation_groups_match_references(data, degree):
    gens = data.draw(st.lists(st.permutations(range(degree)),
                              min_size=1, max_size=3))
    G = groups.from_permutation_generators(degree, gens)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(groups, "_table_from_elements", lambda elements, combine:
                  cached_per_entry_table(tuple(elements)))
        R = groups.from_permutation_generators(degree, gens)
    assert (G.mul, G.inv, G.labels) == (R.mul, R.inv, R.labels)
    if G.mul not in STRUCTURE_CHECKED:
        check_structure(G)
        STRUCTURE_CHECKED.add(G.mul)


@pytest.mark.parametrize("spec", ["dihedral(200)", "agl1(27)"])
def test_normal_subgroups_match_reference_on_larger_groups(spec):
    # larger groups than SMALL_BUILTINS: 53 classes on D200, 27 on agl1(27)
    G = groups.parse_builtin_spec(spec)
    normals = groups.normal_subgroups(G)
    assert [N.members for N in normals] == ref_normal_subgroups(G)


def ref_class_mult(G, classes):
    """a[i][j][m] = #{x in C_i : x^-1 rep(C_m) in C_j}, one entry at a
    time."""
    k, class_of = classes.num_classes, classes.class_of
    members = [[x for x in range(G.order) if class_of[x] == i]
               for i in range(k)]
    return [[[sum(1 for x in members[i]
                  if class_of[G.mul[G.inv[x]][classes.reps[m]]] == j)
              for m in range(k)] for j in range(k)] for i in range(k)]


@pytest.mark.parametrize("spec", SMALL_BUILTINS)
def test_sparse_class_mult_matches_reference(spec):
    G = groups.parse_builtin_spec(spec)
    classes = groups.conjugacy_classes(G)
    for i, ref_row in enumerate(ref_class_mult(G, classes)):
        row = chartab.class_mult_coefficients(G, classes, i)
        assert len(row) == len(ref_row)
        for pairs, ref in zip(row, ref_row):
            assert pairs == [(m, a) for m, a in enumerate(ref) if a]


def ref_compute_table(G, classes):
    """Dixon's table from the dense class matrices, splitting in class
    order and lifting every character by its own Fourier sums, one per
    rational class."""
    n, k, e = G.order, classes.num_classes, G.exponent()
    p = chartab._smallest_dixon_prime(n, e)
    a = ref_class_mult(G, classes)
    subspaces = [([[int(i == j) for j in range(k)] for i in range(k)],
                  list(range(k)))]
    for i in range(1, k):
        nxt = []
        for B, piv in subspaces:
            if len(B) == 1:
                nxt.append((B, piv))
                continue
            X = [chartab._coords([sum(map(mul, a[i][c], b)) % p
                                  for c in range(k)], B, piv, p) for b in B]
            XT = [list(col) for col in zip(*X)]
            for lam in chartab._poly_roots(chartab._charpoly(XT, p), p):
                shifted = [[(x - (lam if r == c else 0)) % p
                            for c, x in enumerate(row)]
                           for r, row in enumerate(XT)]
                kernel = chartab._kernel(shifted, p)[0]
                if kernel:
                    nxt.append(chartab._rref(
                        [[sum(map(mul, kv, col)) % p for col in zip(*B)]
                         for kv in kernel], p))
        subspaces = nxt
    assert all(len(B) == 1 for B, _ in subspaces)
    inv_sizes = [pow(s, p - 2, p) for s in classes.sizes]
    z = chartab._primitive_root(p)
    rows = []
    for (u,), _ in subspaces:
        om = [v * pow(u[0], p - 2, p) % p for v in u]
        s = sum(om[m] * om[classes.inverse_class[m]] * inv_sizes[m]
                for m in range(k)) % p
        d2 = n * pow(s, p - 2, p) % p
        d = next(x for x in range(1, (p + 1) // 2) if x * x % p == d2)
        chi = [d * om[m] * inv_sizes[m] % p for m in range(k)]
        values = [None] * k
        for _, powers, generators in groups.rational_classes(G):
            o = len(powers)
            roots = [pow(z, (p - 1) // o * (o - i), p) for i in range(o)]
            # multiplicity of zeta_o^t: (1/o) sum_s chi(g^s) zeta_o^(-st)
            mus = [sum(chi[c] * roots[s * t % o] for s, c in enumerate(powers))
                   * pow(o, p - 2, p) % p for t in range(o)]
            for c, b in generators:
                coeffs = [0] * e
                for t, mu in enumerate(mus):
                    coeffs[t * b % o * (e // o)] += mu
                values[c] = Cyclotomic(e, tuple(coeffs))
        rows.append((d, values))
    rows.sort(key=lambda r: (r[0], [v.reduced() for v in r[1]]))
    return chartab.CharacterTable(G, classes, e,
                                  tuple(tuple(v) for _, v in rows),
                                  tuple(d for d, _ in rows))


# groups where the linear characters are most of the table
LINEAR_HEAVY = [
    "elementary_abelian(2,5)", "cyclic(30)",
    "direct_product(dihedral(8),cyclic(4))",
    "direct_product(quaternion(8),cyclic(3))", "agl1(13)", "heisenberg(5)",
]


@pytest.mark.parametrize("spec", SMALL_BUILTINS + LINEAR_HEAVY
                         + ["dihedral(200)"])
def test_orbit_lift_matches_per_row_lift(spec):
    G = groups.parse_builtin_spec(spec)
    classes = groups.conjugacy_classes(G)
    assert chartab.dump_table(chartab._compute_table(G, classes)) == \
        chartab.dump_table(ref_compute_table(G, classes))


@pytest.mark.parametrize("spec", SMALL_BUILTINS + LINEAR_HEAVY)
def test_linear_rows_are_the_homomorphisms_trivial_on_the_derived_group(spec):
    G = groups.parse_builtin_spec(spec)
    classes = groups.conjugacy_classes(G)
    e = G.exponent()
    derived = groups.commutator_subgroup(G)
    rows = chartab._linear_characters(G, classes, e)
    assert len(rows) == G.order // derived.order
    assert len(set(map(tuple, rows))) == len(rows)
    cls = classes.class_of
    for row in rows:
        assert all(row[cls[h]] == 0 for h in derived.members)
        for g in range(G.order):
            for h in range(G.order):
                assert row[cls[G.mul[g][h]]] == (row[cls[g]] + row[cls[h]]) % e
    # and zeta_e^row are the table's rows of degree 1
    unit = [tuple(int(i == x) for i in range(e)) for x in range(e)]
    table = chartab.character_table(G)
    assert {tuple(v.coeffs for v in table.values[r])
            for r, lin in enumerate(table.linear_mask) if lin} == \
        {tuple(unit[x] for x in row) for row in rows}


def ref_has_abelian_half(G):
    """Whether some subgroup of index 2 is abelian, over every normal
    subgroup (a subgroup of index 2 is normal), all pairs of members."""
    mul = G.mul
    return any(2 * len(N) == G.order
               and all(mul[a][b] == mul[b][a] for a in N for b in N)
               for N in ref_normal_subgroups(G))


def _seeded_permutation_groups():
    """Subgroups of small builtins generated by 1-3 seeded random
    elements, each acting on the group's elements by left multiplication
    under a seeded relabeling."""
    rng = random.Random(42)
    specs = ["symmetric(4)", "dihedral(12)", "quaternion(16)", "agl1(5)",
             "direct_product(symmetric(3),cyclic(4))", "extraspecial_plus(2)",
             "heisenberg(3)", "direct_product(quaternion(8),cyclic(2))"]
    for _ in range(24):
        H = groups.parse_builtin_spec(rng.choice(specs))
        label = rng.sample(range(H.order), H.order)
        gens = []
        for g in rng.sample(range(H.order), rng.randint(1, 3)):
            perm = [0] * H.order
            for x, y in enumerate(H.mul[g]):
                perm[label[x]] = label[y]
            gens.append(tuple(perm))
        yield groups.from_permutation_generators(H.order, gens)


def test_induction_is_chosen_exactly_when_an_abelian_half_exists(monkeypatch):
    dixon = chartab._nonlinear_rows
    called = []

    def recorded(*args):
        called.append(True)
        return dixon(*args)

    monkeypatch.setattr(chartab, "_nonlinear_rows", recorded)
    outcomes = Counter()
    for G in [G for _, G in verification.catalog()] + list(
            _seeded_permutation_groups()):
        classes = groups.conjugacy_classes(G)
        e = G.exponent()
        linear = chartab._linear_characters(G, classes, e)
        half = chartab._abelian_half(G, classes, e, linear)
        expected = ref_has_abelian_half(G)
        assert (half is not None) == expected
        if expected:
            # the class-size rejection never refuses such a group
            assert 2 * sum(s for s in classes.sizes if s <= 2) >= G.order
            members, gens = half
            assert 2 * len(members) == G.order
            assert all(G.mul[a][b] == G.mul[b][a]
                       for a in members for b in members)
        if len(linear) != classes.num_classes:
            del called[:]
            chartab._compute_table(G, classes)
            assert bool(called) != expected
            outcomes[expected] += 1
    # 17 catalog and 7 permutation groups take induction; 7 and 5 do not
    assert outcomes == {True: 24, False: 12}


@pytest.mark.parametrize("spec", SMALL_BUILTINS + [
    "agl1(27)", "heisenberg(5)", "direct_product(symmetric(4),quaternion(8))",
    "dihedral(200)",
])
def test_camina_group_is_the_pair_with_the_derived_subgroup(spec):
    # the class-size rule against the coset scan, element by element
    G = groups.parse_builtin_spec(spec)
    derived = groups.commutator_subgroup(G)
    expected = (1 < derived.order < G.order
                and ref_is_camina_pair(G, derived))
    assert formulas.classify(G).is_camina_group == expected


def ref_vanish_scan(G, table):
    """For each element, whether G has a nonlinear character and every one
    is 0 there, read from the character values."""
    nl = [r for r, lin in enumerate(table.linear_mask) if not lin]
    cls = table.classes.class_of
    return [bool(nl) and not any(any(table.values[r][cls[g]].reduced())
                                 for r in nl)
            for g in range(G.order)]


@pytest.mark.parametrize("spec", SMALL_BUILTINS + [
    "agl1(27)", "heisenberg(5)", "direct_product(symmetric(4),quaternion(8))",
])
def test_class_size_rule_matches_character_values(spec):
    G = groups.parse_builtin_spec(spec)
    table = chartab.character_table(G)
    vanishes = ref_vanish_scan(G, table)
    has_nonlinear = not all(table.linear_mask)
    normals = groups.normal_subgroups(G)
    for N in normals:
        expected = has_nonlinear and all(
            vanishes[g] for g in range(G.order) if g not in N)
        assert formulas._nonlinear_vanish_off(G, N) == expected, N.members
    # classify's fields the way they were read from the character values:
    # the normal N < G containing the subgroup the nonvanishing set generates
    report = formulas.classify(G, table)
    support = [g for g in range(G.order) if not vanishes[g]]
    V = set(groups.subgroup_closure(G, support).members)
    targets = ([N for N in normals if N.order < G.order
                and V <= set(N.members)] if has_nonlinear else [])
    assert report.is_vz == any(N == groups.center(G) for N in targets)
    assert report.unique_nonlinear == (table.linear_mask.count(False) == 1)


def ref_tower_predicate(G):
    """Why the tower form refuses G, or None: (G, Z(G)) a Camina pair, then
    (G/Z, Z(G/Z)) a GCP decided on the quotient group itself."""
    z = groups.center(G)
    if z.order <= 1 or z.order >= G.order or not groups.is_camina_pair(G, z):
        return "(G, Z(G)) is not a Camina pair"
    Q, _ = groups.quotient(G, z)
    if not formulas._nonlinear_vanish_off(Q, groups.center(Q)):
        return "(G/Z, Z(G/Z)) is not a GCP"
    return None


# C2 wr C2 wr C2 on 8 points, a Sylow 2-subgroup of S8 (order 128)
SYLOW2_S8 = [(1, 0, 2, 3, 4, 5, 6, 7), (2, 3, 0, 1, 4, 5, 6, 7),
             (4, 5, 6, 7, 0, 1, 2, 3)]


def test_tower_predicate_matches_the_quotient():
    candidates = list(verification.catalog()) + [
        (spec, groups.parse_builtin_spec(spec)) for spec in (
            "heisenberg(5)", "extraspecial_minus(5)", "quaternion(32)",
            "direct_product(heisenberg(3),cyclic(3))")] + [
        ("sylow2(S8)", groups.from_permutation_generators(8, SYLOW2_S8))]
    reached = set()
    for spec, G in candidates:
        try:
            formulas.closed_zeta_tower(G, 2)
            got = None
        except PredicateFailed as exc:
            got = str(exc)
        assert got == ref_tower_predicate(G), spec
        reached.add(got)
    assert reached == {None, "(G, Z(G)) is not a Camina pair",
                       "(G/Z, Z(G/Z)) is not a GCP"}


ONE = ((0, 1),)  # the kernel terms of 1: (w, a, ONE) sums w * a


def ref_zeta_chain(G, table, top):
    """[zeta^{w_2}, ..., zeta^{w_top}] values and C^{w_n}(chi) per n and
    character, by the per-character recursion: one cyclotomic sum per
    nonlinear character and one per class at every step."""
    e, rows = table.exponent, table.sparse_rows
    sizes = table.classes.sizes
    chain, coefficients = [], {}
    for n in range(2, top + 1):
        c = []
        for r in range(table.num_characters):
            if n == 2:
                c.append(Fraction(1))
            elif table.linear_mask[r]:
                c.append(Fraction(G.order ** (n - 2)))
            else:
                total = cyclotomic.rational_sum(e, (
                    (size * z, rows[r][j], rows[r][j])
                    for j, (size, z) in enumerate(zip(sizes, chain[-1]))
                    if z))
                c.append(total / G.order)
        coefficients[n] = c
        terms = [(G.order * c[r] / table.degrees[r], r)
                 for r in range(table.num_characters)]
        values = [cyclotomic.rational_sum(
                      e, ((coef, rows[r][j], ONE) for coef, r in terms))
                  for j in range(table.classes.num_classes)]
        assert all(v.denominator == 1 and v >= 0 for v in values)
        chain.append(tuple(v.numerator for v in values))
    return chain, coefficients


@pytest.mark.parametrize("spec", SMALL_BUILTINS + [
    "dihedral(200)", "agl1(27)", "heisenberg(5)",
    "direct_product(symmetric(4),quaternion(8))",
])
def test_orbit_recursion_matches_per_character_recursion(spec):
    G = groups.parse_builtin_spec(spec)
    table = chartab.character_table(G)
    chain, coefficients = ref_zeta_chain(G, table, 8)
    for n in range(2, 9):
        assert formulas.zeta_wn_char(G, table, n).values == chain[n - 2], n
        assert [formulas.c_wn(G, table, r, n)
                for r in range(table.num_characters)] == coefficients[n], n


def ref_inner_product(table, phi, psi):
    """<phi, psi> by one cyclotomic sum over the classes, whatever phi is."""
    a = chartab._class_terms(table, phi)
    b = chartab._class_terms(table, psi)
    total = cyclotomic.rational_sum(table.exponent,
                                    zip(table.classes.sizes, a, b))
    return total / table.group.order


def ref_mixed(G, H, w1, w2, table):
    """Counts of [w1(vars in H), w2(vars in G)] per element: one sparse
    cyclotomic sum per character for |H| <zeta1 chi, chi>_H, which is
    real, and one rational sum over the characters per class."""
    zeta1 = counting.zeta_element_counts(
        G, w1, counting.DomainSpec((H,) * w1.arity))
    cls, e = table.classes.class_of, table.exponent
    weights = [0] * table.classes.num_classes
    for g in H.members:
        weights[cls[g]] += zeta1[g]
    scale = G.order ** (w2.arity - 1)
    scales = [Fraction(scale, d) for d in table.degrees]
    coefs = []
    for row in table.sparse_rows:
        acc, den = cyclotomic.product_sum(
            e, ((w, row[j], row[j]) for j, w in enumerate(weights) if w))
        assert den == 1
        coefs.append(tuple((i, c) for i, c in enumerate(acc) if c))
    per_class = [cyclotomic.rational_sum(
                     e, ((s, row[j], c) for s, c, row
                         in zip(scales, coefs, table.sparse_rows)))
                 for j in range(table.classes.num_classes)]
    return [per_class[cls[g]] for g in range(G.order)]


def _outcome(fn, *args):
    """fn's value, or NonIntegral's message: an unstable class function
    can have an irrational inner product with a character."""
    try:
        return fn(*args)
    except NonIntegral as exc:
        return str(exc)


def ref_galois_stable(table, values):
    """The walk over every rational class and its classes."""
    return len(values) == table.classes.num_classes and all(
        isinstance(v, (int, Fraction)) for v in values) and all(
        values[c] == values[rc.first]
        for rc in groups.rational_classes(table.group)
        for c, _ in rc.generators)


@pytest.mark.parametrize("spec", SMALL_BUILTINS)
def test_galois_stable_matches_the_rational_class_walk(spec):
    G = groups.parse_builtin_spec(spec)
    table = chartab.character_table(G)
    k = table.num_characters
    rational_of = [0] * k
    for i, rc in enumerate(groups.rational_classes(G)):
        for c, _ in rc.generators:
            rational_of[c] = i
    stable = [3 * i + 1 for i in rational_of]
    inputs = [
        stable, tuple(stable), [Fraction(v, 2) for v in stable],
        [Fraction(v) if v % 2 else v for v in stable],
        stable[:-1], stable + [1], [], list(range(k)),
        [float(v) for v in stable], list(table.values[k - 1]),
        list(table.classes.sizes),
        formulas.zeta_wn_char(G, table, 2).values,
    ]
    for c in range(1, k):  # one class off its rational class's value
        inputs.append([v + (j == c) for j, v in enumerate(stable)])
    for values in inputs:
        assert chartab.galois_stable(table, values) == \
            ref_galois_stable(table, values), values


PAIRING_GROUPS = SMALL_BUILTINS + [
    "dihedral(200)", "agl1(27)", "heisenberg(5)",
    "direct_product(symmetric(4),quaternion(8))",
]


@pytest.mark.parametrize("spec", PAIRING_GROUPS)
def test_orbit_pairings_match_cyclotomic_sums(spec, monkeypatch):
    G = groups.parse_builtin_spec(spec)
    table = chartab.character_table(G)
    classes, k = table.classes, table.num_characters
    zetas = [formulas.zeta_wn_char(G, table, n) for n in (2, 3)]
    assert all(chartab.galois_stable(table, z.values) for z in zetas)
    # inputs that fall back to the cyclotomic sum: a character row, and a
    # class function that differs within a rational class (where one has
    # several classes)
    row = table.values[k - 1]
    by_index = groups.ClassFunction(G, classes, tuple(range(k)))
    assert not chartab.galois_stable(table, row)
    split_class = len(groups.rational_classes(G)) < k
    assert chartab.galois_stable(table, by_index.values) != split_class
    for phi in zetas + [row, by_index]:
        for r in range(k):
            assert _outcome(chartab.inner_product, table, phi, r) == \
                _outcome(ref_inner_product, table, phi, r)
    x1, w2 = words.parse("x1"), words.wn(2)
    cases = [(groups.commutator_subgroup(G), x1), (groups.center(G), x1),
             (groups.commutator_subgroup(G), w2), (groups.center(G), w2),
             (groups.subgroup_closure(G, range(G.order)), x1)]
    for H, w1 in cases:
        expected = ref_mixed(G, H, w1, x1, table)
        assert formulas.zeta_mixed_theorem21(G, H, w1, x1, table) == expected
        # these weights are all Galois-stable; the per-character sums they
        # would fall back to give the same counts
        with monkeypatch.context() as m:
            m.setattr(chartab, "galois_stable", lambda table, values: False)
            assert formulas.zeta_mixed_theorem21(G, H, w1, x1, table) == \
                expected


@pytest.mark.parametrize("spec", PAIRING_GROUPS)
def test_stability_is_decided_once_per_input(spec, monkeypatch):
    G = groups.parse_builtin_spec(spec)
    table = chartab.character_table(G)
    classes, k = table.classes, table.num_characters
    zeta = formulas.zeta_wn_char(G, table, 2)
    halves = groups.ClassFunction(
        G, classes, tuple(Fraction(v, 2) for v in zeta.values))
    by_index = groups.ClassFunction(G, classes, tuple(range(k)))
    row = groups.ClassFunction(G, classes, table.values[k - 1])
    # a class function whose values a caller changes in place between asks
    mutable = groups.ClassFunction(G, classes, list(zeta.values))
    split = [c for rc in groups.rational_classes(G)
             for c, _ in rc.generators if c != rc.first]
    decided = Counter()
    stable = chartab.galois_stable

    def counted(table, values):
        decided[id(values)] += 1
        return stable(table, values)

    def answers(phi):
        return [_outcome(chartab.inner_product, table, phi, r)
                for r in range(k)]

    monkeypatch.setattr(chartab, "galois_stable", counted)
    table.last_stable_input = None  # the memoized table may hold an input
    for phi in (zeta, halves, by_index, row, mutable, zeta):
        want = [_outcome(ref_inner_product, table, phi, r) for r in range(k)]
        assert answers(phi) == answers(phi) == want, phi
        if phi is mutable and split:
            mutable.values[split[0]] += 1  # no longer constant on its class
            want = [_outcome(ref_inner_product, table, phi, r)
                    for r in range(k)]
            assert answers(phi) == want
    with monkeypatch.context() as m:  # without the per-input decision
        m.setattr(chartab, "_stable", stable)
        for phi in (zeta, halves, by_index, row):
            assert answers(phi) == [_outcome(ref_inner_product, table, phi, r)
                                    for r in range(k)]
    # the tuples are decided once per run of asks; zeta is asked in two
    assert decided[id(zeta.values)] == 2
    assert [decided[id(phi.values)] for phi in (halves, by_index, row)] == \
        [1, 1, 1]
    assert chartab.galois_stable(table, halves.values)
    assert chartab.galois_stable(table, by_index.values) == (not split)


# ---------------------------------------------------------------------------
# references: the linear characters one orbit and one row at a time


def ref_orbit_sums(table):
    """{r: (|O|, T_O, N_O)} for every Galois orbit, linear ones included:
    the integer rows of sum chi and sum |chi|^2 over the orbit, each value
    read through the field trace, |O| Tr(v) / phi(e)."""
    e = table.exponent
    tr = chartab._field_traces(e)
    out = {}
    for r, size in Counter(r for r, _ in table.galois_orbits).items():
        traces, norms = [], []
        for t in table.sparse_rows[r]:
            norm, _ = cyclotomic.product_sum(e, [(1, t, t)])
            trace = sum(c * tr[i] for i, c in t)
            norm = sum(map(mul, norm, tr))
            assert size * trace % tr[0] == size * norm % tr[0] == 0
            traces.append(size * trace // tr[0])
            norms.append(size * norm // tr[0])
        out[r] = (size, traces, norms)
    return out


def ref_orbit_chain(G, table, sums, top):
    """[zeta^{w_2}, ..., zeta^{w_top}] values by the orbit recursion over
    every orbit of `ref_orbit_sums`: (|G|, chi(1)) at n = 2,
    (|G|^{n-1}, 1) for a linear orbit, else
    (sum_j |C_j| zeta^{w_{n-1}}(g_j) N_O(j), |O| chi(1))."""
    sizes = table.classes.sizes
    chain = []
    for n in range(2, top + 1):
        coefs = []
        for r, (size, traces, norms) in sums.items():
            d = table.degrees[r]
            if n == 2:
                coefs.append((Fraction(G.order, d), traces))
            elif d == 1:
                coefs.append((Fraction(G.order ** (n - 1)), traces))
            else:
                total = sum(map(mul, sizes, map(mul, chain[-1], norms)))
                coefs.append((Fraction(total, size * d), traces))
        values = [sum(c * traces[j] for c, traces in coefs)
                  for j in range(table.num_characters)]
        assert all(v.denominator == 1 and v >= 0 for v in values)
        chain.append(tuple(v.numerator for v in values))
    return chain


def ref_orbit_inner(table, sums, phi, r):
    """<phi, chi_r> for a Galois-stable phi, as the mean over chi_r's orbit
    of `ref_orbit_sums`."""
    size, traces, _ = sums[table.galois_orbits[r][0]]
    total = sum(map(mul, table.classes.sizes, map(mul, phi, traces)))
    return Fraction(total, size * table.group.order)


def ref_orbit_mixed(G, H, w1, w2, table, sums):
    """The mixed-domain counts for Galois-stable weights, one term per
    orbit of `ref_orbit_sums`."""
    zeta1 = counting.zeta_element_counts(
        G, w1, counting.DomainSpec((H,) * w1.arity))
    cls = table.classes.class_of
    weights = [0] * table.classes.num_classes
    for g in H.members:
        weights[cls[g]] += zeta1[g]
    assert chartab.galois_stable(table, weights)
    scale = G.order ** (w2.arity - 1)
    per_class = [Fraction(0)] * table.classes.num_classes
    for r, (size, traces, norms) in sums.items():
        coef = Fraction(scale * sum(map(mul, weights, norms)),
                        size * table.degrees[r])
        per_class = [v + coef * t for v, t in zip(per_class, traces)]
    return [per_class[c] for c in cls]


def ref_first_failing_pair(table):
    """The row-by-row check: each nonlinear orbit representative paired
    with every row by the sparse kernel, less the nonlinear representatives
    before it; the first pair that fails, or None."""
    e, n, k = table.exponent, table.group.order, table.num_characters
    rows, sizes = table.sparse_rows, table.classes.sizes
    reps = [r for r, (rep, _) in enumerate(table.galois_orbits)
            if r == rep and not table.linear_mask[r]]
    for r in reps:
        for s in range(k):
            if s < r and s in reps:
                continue
            try:
                total = cyclotomic.rational_sum(
                    e, zip(sizes, rows[r], rows[s]))
            except NonIntegral:
                total = None
            if total != (n if r == s else 0):
                return min(r, s), max(r, s)
    return None


@functools.cache
def _session_plan(seed):
    """The groups of the benchmark's catalog session for a seed."""
    # workloads.py imports oracle.py by name from its own directory, and
    # its dataclass looks its module up in sys.modules
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", perfbench / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(perfbench))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(perfbench))
    return module.catalog_session(seed).plan


def _session_group(entry):
    if "spec" in entry:
        return groups.parse_builtin_spec(entry["spec"][len("builtin:"):])
    return groups.from_permutation_generators(*entry["perm"])


# the verify catalog, the groups of the benchmark's catalog session for seed
# 7 (its permutation groups from seeded generators), and larger groups
LINEAR_REFERENCE_GROUPS = (
    [f"catalog:{spec}" for spec, _ in verification.catalog()]
    + [f"session7:{i}" for i in range(49)]
    + ["dihedral(200)", "agl1(27)", "heisenberg(5)",
       "direct_product(symmetric(4),quaternion(8))", "cyclic(30)",
       "elementary_abelian(2,5)"])


def _linear_reference_group(key):
    kind, _, name = key.partition(":")
    if kind == "catalog":
        return dict(verification.catalog())[name]
    if kind == "session7":
        return _session_group(_session_plan(7)[int(name)])
    return groups.parse_builtin_spec(key)


@pytest.mark.parametrize("key", LINEAR_REFERENCE_GROUPS)
def test_linear_closed_forms_match_the_per_orbit_path(key):
    G = _linear_reference_group(key)
    table = chartab.character_table(G)
    assert ref_first_failing_pair(table) is None
    sums = ref_orbit_sums(table)
    assert {r: (o.size, list(o.traces), list(o.norms))
            for r, o in table.orbit_sums.items()} == {
        r: sums[r] for r in sums if not table.linear_mask[r]}
    chain = ref_orbit_chain(G, table, sums, 8)
    for n in range(2, 9):
        zeta = formulas.zeta_wn_char(G, table, n)
        assert zeta.values == chain[n - 2], n
        for r in range(table.num_characters):
            assert chartab.inner_product(table, zeta, r) == \
                ref_orbit_inner(table, sums, zeta.values, r), (n, r)
    x1, w2 = words.parse("x1"), words.wn(2)
    for H in (groups.commutator_subgroup(G), groups.center(G)):
        for w1 in (x1, w2):
            assert formulas.zeta_mixed_theorem21(G, H, w1, x1, table) == \
                ref_orbit_mixed(G, H, w1, x1, table, sums)


def _shifted(table, r, moves):
    values = [list(row) for row in table.values]
    for j, delta in moves:
        values[r][j] = values[r][j] + delta
    return chartab.CharacterTable(
        table.group, table.classes, table.exponent,
        tuple(tuple(row) for row in values), table.degrees)


@pytest.mark.parametrize("spec, later", [
    ("symmetric(4)", False), ("dihedral(12)", False), ("quaternion(8)", True),
    ("extraspecial_plus(2)", True),
    ("direct_product(symmetric(3),symmetric(3))", True),
    ("direct_product(quaternion(8),elementary_abelian(2,2))", True)])
def test_coset_sums_name_the_pair_the_per_row_check_names(spec, later):
    # Every class is rational, so a table moved at a few values stays
    # closed under the (no) power maps and reaches the row pairs.  Each
    # nonlinear row is moved by +-1 at one class, which breaks its pair with
    # the first linear row, and by +1 and -1 at two classes of one size,
    # which breaks a pair with the first linear row that differs on them.
    # `later`: some move names a linear row after the first.
    from wordcount.errors import InternalInconsistency
    G = groups.parse_builtin_spec(spec)
    table = chartab.character_table(G)
    assert chartab._galois_maps(G) == ()
    k, sizes = table.num_characters, table.classes.sizes
    moves = [[(j, delta)] for j in range(k) for delta in (1, -1)]
    moves += [[(a, 1), (b, -1)] for a in range(k) for b in range(a + 1, k)
              if sizes[a] == sizes[b]]
    linear = {r for r in range(k) if table.linear_mask[r]}
    named = set()
    for r in set(range(k)) - linear:
        for move in moves:
            bad = _shifted(table, r, move)
            with pytest.raises(InternalInconsistency) as info:
                chartab._verify_table(G, bad)
            pair = ref_first_failing_pair(bad)
            assert str(info.value) == \
                "row orthogonality fails for characters %d,%d" % pair
            named.add(pair[0])
    assert (len(named & linear) > 1) == later


@pytest.mark.parametrize("spec", [spec for spec, _ in verification.catalog()]
                         + ["dihedral(2000)"])
def test_inverses_from_the_build_match_the_scan(spec):
    G = dict(verification.catalog()).get(spec) or \
        groups.parse_builtin_spec(spec)
    assert G.inv == ref_inverses(G.mul)


def test_transposition_is_not_normal_in_s3():
    S3 = groups.builtin("symmetric", 3)
    H = groups.subgroup_closure(S3, [S3.labels.index("(1, 0, 2)")])
    assert H.order == 2
    assert not H.is_normal() and not ref_is_normal(H)
    assert groups.commutator_subgroup(S3).is_normal()


def test_agl1_27_build_calls_combine_at_most_n_log_n_times(monkeypatch):
    calls = 0
    build = groups._table_from_elements

    def counting_build(elements, combine, label=str):
        def counted(a, b):
            nonlocal calls
            calls += 1
            return combine(a, b)
        return build(elements, counted, label)

    monkeypatch.setattr(groups, "_table_from_elements", counting_build)
    G = groups.builtin("agl1", 27)
    assert G.order == 702
    assert 0 < calls <= G.order * (G.order - 1).bit_length()


# ---------------------------------------------------------------------------
# oversize builtins are refused before anything is built


def _refuse_to_build(*args, **kwargs):
    raise AssertionError("an oversize group reached the table builder")


@pytest.mark.parametrize("family, params", [
    ("cyclic", (20481,)), ("dihedral", (20482,)), ("quaternion", (32768,)),
    ("elementary_abelian", (2, 15)), ("elementary_abelian", (3, 10**9)),
    ("heisenberg", (29,)), ("extraspecial_plus", (29,)),
    ("extraspecial_minus", (29,)), ("heisenberg", (10**30 + 57,)),
])
def test_oversize_builtins_are_refused_up_front(family, params, monkeypatch):
    monkeypatch.setattr(groups, "_table_from_elements", _refuse_to_build)
    with pytest.raises(OrderLimitExceeded):
        groups.builtin(family, *params)


def test_oversize_direct_product_is_refused_up_front(monkeypatch):
    C200 = groups.builtin("cyclic", 200)
    monkeypatch.setattr(groups, "_table_from_elements", _refuse_to_build)
    with pytest.raises(OrderLimitExceeded):
        groups.direct_product(C200, C200)
    with pytest.raises(OrderLimitExceeded):
        groups.builtin("direct_product", C200, C200)


def test_cap_itself_is_allowed(monkeypatch):
    monkeypatch.setattr(groups, "_table_from_elements", _refuse_to_build)
    with pytest.raises(AssertionError, match="reached the table builder"):
        groups.builtin("cyclic", groups.DEFAULT_ORDER_CAP)


def test_cli_refuses_oversize_builtin(monkeypatch, capsys):
    # the largest parameter with as many digits as the cap; one more digit
    # is a usage error (test_cli.py::test_digit_runs_are_one_line_usage_errors)
    monkeypatch.setattr(groups, "_table_from_elements", _refuse_to_build)
    assert main(["info", "--group", "builtin:cyclic(99999)"]) == 1
    err = capsys.readouterr().err
    assert err == ("error: OrderLimitExceeded: "
                   "order 99999 exceeds order cap 20480\n")


# ---------------------------------------------------------------------------
# associativity


def octonion_unit_table():
    """The 16 octonion units as the Cayley-Dickson double of Q8:
    (a, b)(c, d) = (ac - d*b, da + bc*), with q* = q^-1 for a unit q."""
    Q8 = groups.builtin("quaternion", 8)
    minus = next(z for z in groups.center(Q8).members if z)
    mul, inv = Q8.mul, Q8.inv
    elements = [(q, 0) for q in range(8)] + [(q, 1) for q in range(8)]

    def times(x, y):
        (a, s), (c, t) = x, y
        if not s and not t:
            return (mul[a][c], 0)
        if not s:
            return (mul[c][a], 1)                 # (a,0)(0,d) = (0, da)
        if not t:
            return (mul[a][inv[c]], 1)            # (0,b)(c,0) = (0, bc*)
        return (mul[minus][mul[inv[c]][a]], 0)    # (0,b)(0,d) = (-d*b, 0)

    index = {e: i for i, e in enumerate(elements)}
    return [[index[times(x, y)] for y in elements] for x in elements]


def test_octonion_units_are_rejected():
    O = octonion_unit_table()
    # O x C2, numbered so that the first generator, (1, c) with c central,
    # associates with everything: only a later generator shows the failure
    pairs = [(x, c) for x in range(16) for c in range(2)]
    index = {p: i for i, p in enumerate(pairs)}
    OxC2 = [[index[(O[x][y], c ^ d)] for y, d in pairs] for x, c in pairs]
    for table in (O, OxC2):
        n = len(table)
        assert all(sorted(row) == list(range(n)) for row in table)
        assert all(sorted(col) == list(range(n)) for col in zip(*table))
        with pytest.raises(NotAGroup, match="associativity fails"):
            groups.from_cayley_table(table)


def test_light_test_is_needed_past_the_rows_the_builder_composes():
    # A non-associative loop of order 6 whose rows the builder composes back
    # to themselves: the table built from its generators' rows is the input,
    # so only Light's test over every row refuses it.
    loop = [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 4, 0, 5, 3, 1],
            [3, 5, 1, 4, 2, 0], [4, 2, 5, 0, 1, 3], [5, 3, 4, 1, 0, 2]]
    built = groups._table_from_elements(range(6), lambda a, b: loop[a][b])
    assert built.mul == tuple(map(tuple, loop))
    assert loop[loop[2][2]][1] != loop[2][loop[2][1]]  # (2*2)*1 != 2*(2*1)
    with pytest.raises(NotAGroup, match="associativity fails"):
        groups.from_cayley_table(loop)


def test_oversize_cayley_table_is_refused_before_any_row_is_read():
    # None has no length and no entries: reading any row would raise
    with pytest.raises(OrderLimitExceeded,
                       match="^order 20481 exceeds order cap 20480$"):
        groups.from_cayley_table([None] * 20481)


def test_light_test_accepts_groups_of_every_size():
    for spec in ("symmetric(4)", "agl1(16)", "dihedral(600)"):
        G = groups.parse_builtin_spec(spec)
        H = groups.from_cayley_table([list(row) for row in G.mul])
        assert H.mul == G.mul and H.inv == G.inv
