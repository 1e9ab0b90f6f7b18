import functools
import hashlib
import math
from collections import Counter
from fractions import Fraction

import pytest

from test_group_reference import ref_first_refusal
from wordcount import chartab, formulas, groups, verification, words
from wordcount.chartab import ClassFunction, character_table
from wordcount.cyclotomic import Cyclotomic


def test_s3_table():
    S3 = groups.builtin("symmetric", 3)
    table = character_table(S3)
    assert sorted(table.degrees) == [1, 1, 2]
    assert table.linear_mask == (True, True, False)
    # the degree-2 character: 2 at 1, -1 on 3-cycles, 0 on transpositions
    chi = table.values[2]
    assert chi[0] == 2 and chi[1] == -1 and chi[2] == 0


def test_orthogonality_random_groups():
    for spec in ["quaternion(8)", "symmetric(4)", "agl1(5)", "heisenberg(3)",
                 "dihedral(12)", "cyclic(8)"]:
        G = groups.parse_builtin_spec(spec)
        table = character_table(G)
        k = table.num_characters
        assert sum(d * d for d in table.degrees) == G.order
        for r in range(k):
            for s in range(k):
                assert chartab.inner_product(table, r, s) == int(r == s)


def test_degrees_divide_order():
    for spec in ["symmetric(4)", "agl1(4)", "extraspecial_minus(3)"]:
        G = groups.parse_builtin_spec(spec)
        table = character_table(G)
        assert all(G.order % d == 0 for d in table.degrees)


def test_character_ordering_deterministic():
    G = groups.builtin("dihedral", 8)
    t1 = chartab._compute_table(G, groups.conjugacy_classes(G))
    t2 = chartab._compute_table(G, groups.conjugacy_classes(G))
    assert [v.reduced() for row in t1.values for v in row] == \
        [v.reduced() for row in t2.values for v in row]
    assert t1.degrees == (1, 1, 1, 1, 2)


def test_inner_product_on_subgroup():
    S3 = groups.builtin("symmetric", 3)
    table = character_table(S3)
    A3 = groups.commutator_subgroup(S3)
    # the degree-2 character restricted to A3 splits into two linears
    assert chartab.inner_product_on(table, A3, 2, 2) == 2
    assert chartab.inner_product_on(table, A3, 0, 0) == 1


def test_frobenius_schur():
    # sum of nu(chi) chi(1) = 1 + #involutions, with
    # nu(chi) = sum_j |C_j| chi(g_j^2) / |G| through the sparse kernel
    from wordcount import cyclotomic
    for spec in ["symmetric(3)", "symmetric(4)", "quaternion(8)",
                 "dihedral(10)", "cyclic(7)", "agl1(8)", "heisenberg(3)",
                 "dihedral(200)"]:
        G = groups.parse_builtin_spec(spec)
        table = character_table(G)
        classes = table.classes
        sq_class = [classes.class_of[G.mul[g][g]] for g in classes.reps]
        one = ((0, 1),)
        nu = [cyclotomic.rational_sum(
                  table.exponent,
                  ((size, row[c], one)
                   for size, c in zip(classes.sizes, sq_class))) / G.order
              for row in table.sparse_rows]
        assert all(nu[s] == nu[r]
                   for s, (r, _) in enumerate(table.galois_orbits))
        total = sum(v * d for v, d in zip(nu, table.degrees))
        involutions = sum(1 for g in range(1, G.order) if G.mul[g][g] == 0)
        assert total == 1 + involutions


def test_class_function_basics():
    S3 = groups.builtin("symmetric", 3)
    cf = ClassFunction(S3, (18, 9, 0))
    assert cf.total_mass() == 36
    assert cf.at_element(0) == 18
    assert [cf.at_element(g) for g in range(S3.order)] == [18, 0, 0, 9, 9, 0]


def test_irrational_entries_are_exact():
    # C5 character values live in Q(zeta_5) and are irrational
    C5 = groups.builtin("cyclic", 5)
    table = character_table(C5)
    vals = [table.values[r][1] for r in range(5)]
    total = sum(vals[1:], vals[0])
    assert total.to_rational() == 0  # column orthogonality against identity


def test_dump_load_roundtrip():
    for spec in ["symmetric(3)", "quaternion(8)", "cyclic(12)"]:
        G = groups.parse_builtin_spec(spec)
        table = character_table(G)
        text = chartab.dump_table(table)
        reloaded = chartab.load_table(G, text)
        assert reloaded.degrees == table.degrees
        assert all(a == b for ra, rb in zip(reloaded.values, table.values)
                   for a, b in zip(ra, rb))


def test_load_rejects_tampered_table():
    from wordcount.errors import InternalInconsistency
    G = groups.builtin("symmetric", 3)
    text = chartab.dump_table(character_table(G))
    lines = text.splitlines()
    bad = lines[:-1] + [lines[-1].replace("2", "3", 1)]
    with pytest.raises(InternalInconsistency):
        chartab.load_table(G, "\n".join(bad))


def test_inner_product_accepts_class_functions():
    S3 = groups.builtin("symmetric", 3)
    table = character_table(S3)
    zeta = ClassFunction(S3, (18, 9, 0))
    # <zeta, chi> = |G|/chi(1) by the classical formula
    for r in range(table.num_characters):
        assert chartab.inner_product(table, zeta, r) == \
            Fraction(6, table.degrees[r])


def test_inner_products_take_a_class_function_or_an_index():
    from wordcount.errors import MismatchedGroup
    S3 = groups.builtin("symmetric", 3)
    table = character_table(S3)
    A3 = groups.commutator_subgroup(S3)
    chi = ClassFunction(S3, table.values[2])
    assert chartab.inner_product(table, chi, 2) == 1
    assert chartab.inner_product_on(table, A3, chi, 2) == 2
    # a bare value sequence pairs nothing, whatever its length, and psi is
    # a character index
    for phi, psi in [(table.values[2], 2), ([6, 0], 0), ((18, 9, 0), 0),
                     (0, chi), (chi, chi), (2, table.values[2])]:
        with pytest.raises(MismatchedGroup):
            chartab.inner_product(table, phi, psi)
        with pytest.raises(MismatchedGroup):
            chartab.inner_product_on(table, A3, phi, psi)


def test_conjugates_are_compared_on_their_stored_terms():
    # as galois_orbits compares rows: sigma_3 sends dihedral(10)'s
    # z^4 + z^6 to z^2 + z^8, and -1 - z^4 - z^6, the same number in
    # another coefficient form, is not that value
    table = character_table(groups.builtin("dihedral", 10))
    v, w = table.values[2][1], table.values[2][2]
    assert (v.terms, w.terms) == (((4, 1), (6, 1)), ((2, 1), (8, 1)))
    other = Cyclotomic(10, (-1, 0, 0, 0, -1, 0, -1, 0, 0, 0))
    assert other == w
    assert chartab._is_conjugate(10, 3, v, w)
    assert not chartab._is_conjugate(10, 3, v, other)


def test_trivial_group_table():
    G = groups.builtin("cyclic", 1)
    one = Cyclotomic.from_rational(1, 1)
    table = character_table(G)
    assert table == chartab.CharacterTable(G, ((one,),))
    assert table.linear_mask == (True,)
    assert chartab.dump_table(table) == "chartab e=1 k=1\nclass 0 1\n1\n"


def _perturbed(table, r, j, delta):
    values = [list(row) for row in table.values]
    values[r][j] = values[r][j] + delta
    return chartab.CharacterTable(
        table.group, tuple(tuple(row) for row in values))


@pytest.mark.parametrize("spec", ["dihedral(20)", "agl1(5)",
                                  "direct_product(symmetric(3),cyclic(4))"])
def test_verify_rejects_one_perturbed_entry(spec):
    from wordcount import cyclotomic
    from wordcount.errors import InternalInconsistency
    G = groups.parse_builtin_spec(spec)
    table = character_table(G)
    e, k, n = table.exponent, table.num_characters, G.order
    sizes = table.classes.sizes
    cases = [(k - 1, 1, Cyclotomic.root(e, 1)), (0, k - 1, 1),
             (k // 2, k // 2, -Cyclotomic.root(e, e - 1))]
    for r, j, delta in cases:
        bad = _perturbed(table, r, j, delta)
        if bad.galois_orbits is None:
            message = "character rows are not closed under the power maps"
        elif table.linear_mask[r]:
            # the linear rows are checked as roots of unity
            message = f"linear character {r} is not a root of unity at " \
                f"class {j}"
        else:
            message = ref_first_refusal(bad)
        with pytest.raises(InternalInconsistency) as info:
            chartab._verify_table(bad)
        assert str(info.value) == message
        # A table that passes is Irr(G), so both orthogonality relations
        # hold and no column check can fire first; check that the column
        # relation catches the same entry through the sparse kernel.
        rows = bad.sparse_rows
        got = cyclotomic.product_sum(
            e, [(1, rows[s][j], rows[s][j]) for s in range(k)])
        assert Cyclotomic(e, tuple(got[0])) != Fraction(n, sizes[j])


@pytest.mark.parametrize("mangle", [
    lambda t: "",
    lambda t: t[:len(t) // 2],
    lambda t: t.replace("chartab", "chartable", 1),
    lambda t: t.replace("e=6", "e=12", 1),
    lambda t: t.rstrip("\n").rsplit(",", 1)[0] + "\n",
    lambda t: t.rstrip("\n").rsplit(":", 1)[0] + "\n",
    lambda t: t.rstrip("\n") + "x\n",
])
def test_load_rejects_malformed_text(mangle):
    from wordcount.errors import ParseError
    G = groups.builtin("symmetric", 3)
    text = chartab.dump_table(character_table(G))
    with pytest.raises(ParseError):
        chartab.load_table(G, mangle(text))


def test_load_rejects_negated_character():
    from wordcount.errors import InternalInconsistency
    G = groups.builtin("symmetric", 3)
    lines = chartab.dump_table(character_table(G)).splitlines()
    # -chi for the degree-2 character keeps both orthogonality relations,
    # sum chi(1)^2 = |G| and the linear-character count; only its degree
    # -2 gives it away.  The coefficients are multiplicities of the powers
    # of zeta, and -zeta^j is the sum of the other e - 1 powers, so -v has
    # the multiplicities sum(v) - v_i, all of them non-negative.
    def negated(chunk):
        coeffs = list(map(int, chunk.split(":")))
        return ":".join(str(sum(coeffs) - c) for c in coeffs)
    lines[-1] = ",".join(map(negated, lines[-1].split(",")))
    with pytest.raises(InternalInconsistency, match="degree -2"):
        chartab.load_table(G, "\n".join(lines))


def test_load_rejects_columns_swapped_off_the_power_maps():
    # C5's classes have size 1, so swapping the values of two classes in
    # every row keeps every orthogonality relation, the degrees and the
    # linear-character count; the rows are no longer closed under the
    # power maps
    from wordcount.errors import InternalInconsistency
    G = groups.builtin("cyclic", 5)
    lines = chartab.dump_table(character_table(G)).splitlines()
    for i in range(1 + G.order, len(lines)):
        v = lines[i].split(",")
        v[1], v[2] = v[2], v[1]
        lines[i] = ",".join(v)
    with pytest.raises(InternalInconsistency,
                       match="^character rows are not closed under the "
                             "power maps$"):
        chartab.load_table(G, "\n".join(lines))


@pytest.mark.parametrize("spec", ["cyclic(5)", "dihedral(20)", "agl1(8)"])
def test_verify_rejects_a_perturbation_shared_by_a_galois_orbit(spec):
    # Adding 1 at class j to an orbit representative, and at the class
    # carried to j to every other row of its orbit, keeps the rows closed
    # under the power maps, so only the representatives are checked: the
    # moved rows are no longer its Galois conjugates, or it fails a
    # relation.  A linear orbit leaves the roots of unity instead.
    from wordcount.errors import InternalInconsistency
    G = groups.parse_builtin_spec(spec)
    table = character_table(G)
    maps = chartab._galois_maps(G)
    orbit = chartab._orbits(maps, table.sparse_rows)
    r = next(r for r, (rep, _) in enumerate(orbit)
             if sum(rep == r for rep, _ in orbit) > 1)
    j = table.num_characters - 1
    values = [list(row) for row in table.values]
    for s, (rep, perm) in enumerate(orbit):
        if rep == r:
            for c in range(len(perm)):
                if perm[c] == j:
                    values[s][c] = values[s][c] + 1
    bad = chartab.CharacterTable(G, tuple(tuple(row) for row in values))
    assert chartab._orbits(maps, bad.sparse_rows) is not None
    with pytest.raises(InternalInconsistency) as info:
        chartab._verify_table(bad)
    if table.linear_mask[r]:
        assert str(info.value).startswith(
            f"linear character {r} is not a root of unity at class ")
    else:
        assert str(info.value) == ref_first_refusal(bad)


def test_verify_checks_orbit_representatives_against_every_row(monkeypatch):
    # D200: 53 characters, 4 linear, and the 49 nonlinear ones in 7 Galois
    # orbits.  The linear rows are checked as homomorphisms of G.  Its
    # generators lie in 2 classes, whose joint eigenvalues tell all 53 rows
    # apart, so S is those 2 classes and 2 class-matrix rows are built.
    # Each orbit representative is checked in 2 * 53 relations, 742 in
    # all, of which 294 need a reduction mod Phi_100, and against its 2
    # Galois maps: value by value for the 6 irrational ones, 6 * 106 = 636
    # values, and in ints for the rational one, which also takes its norm
    # in ints; the other 6 norms go through the sparse kernel.
    from wordcount import cyclotomic
    G = groups.builtin("dihedral", 200)
    table = character_table(G)
    calls = Counter()

    def counted(module, name):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args: calls.update([name]) or fn(*args))

    for name in ("class_mult_coefficients", "_is_conjugate",
                 "_relation_holds", "integer_class_sum"):
        counted(chartab, name)
    counted(cyclotomic, "rational_sum")
    counted(cyclotomic, "vanishes")
    chartab._verify_table(table)
    assert len(chartab._galois_maps(G)) == 2
    assert calls == {"class_mult_coefficients": 2, "_is_conjugate": 636,
                     "_relation_holds": 742, "vanishes": 294,
                     "rational_sum": 6, "integer_class_sum": 1}


@pytest.mark.parametrize("spec", ["symmetric(4)", "quaternion(8)",
                                  "dihedral(8)", "extraspecial_plus(2)"])
def test_verify_rejects_a_perturbed_rational_table(spec):
    # Every row is rational, so every relation is checked in ints; the
    # refusal is the one the reference check, over exact values and the
    # dense class multiplication coefficients, names first.  A linear
    # entry moved by 1 is 0 or 2, which the linear check refuses.
    from wordcount.errors import InternalInconsistency
    G = groups.parse_builtin_spec(spec)
    table = character_table(G)
    assert chartab._galois_maps(G) == ()
    k = table.num_characters
    for r, j, delta in [(k - 1, 1, 1), (0, k - 1, 1), (k // 2, k // 2, -1)]:
        bad = _perturbed(table, r, j, delta)
        with pytest.raises(InternalInconsistency) as info:
            chartab._verify_table(bad)
        if table.linear_mask[r]:
            assert str(info.value) == \
                f"linear character {r} is not a root of unity at class {j}"
            continue
        assert str(info.value) == ref_first_refusal(bad)


def test_no_column_swap_of_a_catalog_table_is_accepted():
    # The swap census: in each catalog table, the values of two equal-size
    # non-identity classes swapped in every row.  All 2,254 swaps that
    # change the table are refused, among them the 9 between rotation
    # classes of dihedral(14), (18), (20) and (24), which move nonlinear
    # values only, where the linear rows agree.
    from wordcount.errors import InternalInconsistency, NonIntegral
    changed, accepted = 0, []
    for spec, G in verification.catalog():
        table = character_table(G)
        sizes, k = table.classes.sizes, table.num_characters
        for a in range(1, k):
            for b in range(a + 1, k):
                if sizes[a] != sizes[b]:
                    continue
                rows = []
                for row in table.values:
                    row = list(row)
                    row[a], row[b] = row[b], row[a]
                    rows.append(tuple(row))
                if set(rows) == set(table.values):
                    continue
                changed += 1
                try:
                    chartab._checked_table(G, rows)
                except (InternalInconsistency, NonIntegral):
                    continue
                accepted.append((spec, a, b))
    assert (changed, accepted) == (2254, [])


def test_verify_refuses_rows_scaled_off_norm_one():
    # D8 x S3, whose classes are all rational: psi of degree 2 doubled and
    # the degree-4 phi = theta_D8 x theta_S3, whose values are all even,
    # halved.  Their central characters are psi's and phi's, so every
    # relation and joint eigenvalue holds; the degrees swap, so the sum of
    # their squares holds too.  Only <2 psi, 2 psi> = 4 and
    # <phi / 2, phi / 2> = 1/4 give them away.
    from wordcount.errors import InternalInconsistency
    G = groups.parse_builtin_spec("direct_product(dihedral(8),symmetric(3))")
    table = character_table(G)
    e = table.exponent
    assert chartab._galois_maps(G) == ()
    ints = [[v.to_rational() for v in row] for row in table.values]
    psi = table.degrees.index(2)
    phi = table.degrees.index(4)
    assert table.degrees.count(4) == 1 and all(x % 2 == 0 for x in ints[phi])
    rows = list(table.values)
    for r, scale in [(psi, Fraction(2)), (phi, Fraction(1, 2))]:
        rows[r] = tuple(Cyclotomic.from_rational(e, int(x * scale))
                        for x in ints[r])
    with pytest.raises(InternalInconsistency,
                       match=r"^character \d+ has norm other than 1$") as info:
        chartab._checked_table(G, rows)
    rows.sort(key=lambda row: [v.reduced() for v in row])  # as checked
    bad = chartab.CharacterTable(G, tuple(rows))
    assert ref_first_refusal(bad) == str(info.value)


def test_verify_reads_a_negated_row_as_a_negative_degree():
    # Q8's degree-2 character negated keeps every relation that is
    # homogeneous in chi, the sum of squared degrees and the norm; the
    # degree the table reads off the identity column is -2.
    from wordcount.errors import InternalInconsistency
    G = groups.builtin("quaternion", 8)
    table = character_table(G)
    r = table.degrees.index(2)
    rows = list(table.values)
    rows[r] = tuple(-v for v in rows[r])
    bad = chartab.CharacterTable(G, tuple(rows))
    assert bad.degrees[r] == -2
    with pytest.raises(InternalInconsistency,
                       match="^degree -2 does not divide \\|G\\|$"):
        chartab._verify_table(bad)


def test_verify_refuses_a_character_irrational_at_1():
    # S3's degree-2 character with chi(1) = 2 + zeta_6: the rational part,
    # which the table reads as the degree, is still 2
    from wordcount.errors import InternalInconsistency
    G = groups.builtin("symmetric", 3)
    table = character_table(G)
    r = table.degrees.index(2)
    coeffs = list(table.values[r][0].coeffs)
    coeffs[1] += 1
    rows = list(table.values)
    rows[r] = (Cyclotomic(table.exponent, tuple(coeffs)),) + rows[r][1:]
    assert chartab.CharacterTable(G, tuple(rows)).degrees == table.degrees
    with pytest.raises(InternalInconsistency,
                       match="^a character is irrational at 1$"):
        chartab._checked_table(G, rows)


def test_verify_refuses_a_row_repeated_in_another_form():
    # S4's second character of degree 3 replaced by the first, with its
    # value at the identity written 3 + 1 + zeta^4 + zeta^8 (zeta of order
    # 12): the rows are distinct as written, closed under the (no) power
    # maps, of the right degrees, and each a character, but two of them
    # have one central character.
    from wordcount.errors import InternalInconsistency
    G = groups.builtin("symmetric", 4)
    table = character_table(G)
    e = table.exponent
    first, second = [r for r, d in enumerate(table.degrees) if d == 3]
    one = table.values[first][0]
    coeffs = list(one.coeffs)
    for j in (0, e // 3, 2 * e // 3):
        coeffs[j] += 1
    rows = list(table.values)
    rows[second] = (Cyclotomic(e, tuple(coeffs)),) + rows[first][1:]
    assert rows[second] == rows[first]
    assert rows[second][0].terms != rows[first][0].terms
    with pytest.raises(InternalInconsistency,
                       match="^central characters of rows repeat$"):
        chartab._checked_table(G, rows)


@pytest.mark.parametrize("spec", ["extraspecial_minus(3)", "tower-32",
                                  "symmetric(6)"])
def test_generator_classes_need_not_tell_the_characters_apart(spec):
    # On these groups two characters have the same central character on
    # the classes of the generators, so the check reads further classes.
    G = dict(verification.catalog()).get(spec) or \
        groups.parse_builtin_spec(spec)
    table = character_table(G)
    gens = {table.classes.class_of[s] for s in G.generating_set()}
    joint = {tuple(tuple(Fraction(x, d) for x in row[a].reduced())
                   for a in sorted(gens))
             for row, d in zip(table.values, table.degrees)}
    assert len(joint) < table.num_characters


@pytest.mark.parametrize("spec", ["cyclic(5)", "dihedral(20)", "agl1(8)",
                                  "heisenberg(3)", "symmetric(4)",
                                  "direct_product(symmetric(3),cyclic(4))"])
def test_orbit_sums_add_the_rows_of_each_orbit(spec):
    # the nonlinear orbits; the linear rows add up to `linear_sum`
    G = groups.parse_builtin_spec(spec)
    table = character_table(G)
    orbit = table.galois_orbits
    sums = table.orbit_sums
    assert list(sums) == sorted({r for r, _ in orbit
                                 if not table.linear_mask[r]})
    linear = [row for row, lin in zip(table.values, table.linear_mask) if lin]
    derived = groups.commutator_subgroup(G)
    for j, rep in enumerate(table.classes.reps):
        assert sum([row[j] for row in linear[1:]], linear[0][j]) == \
            table.linear_sum[j] == (len(linear) if rep in derived else 0)
    for r, o in sums.items():
        members = [s for s, (rep, _) in enumerate(orbit) if rep == r]
        assert o.size == len(members)
        for j in range(table.num_characters):
            values = [table.values[s][j] for s in members]
            assert sum(values[1:], values[0]) == o.traces[j]
            norms = [v * v.conjugate() for v in values]
            assert sum(norms[1:], norms[0]) == o.norms[j]


def test_orbit_sums_need_rows_closed_under_the_power_maps():
    from wordcount.errors import InternalInconsistency
    G = groups.builtin("cyclic", 5)
    table = character_table(G)
    values = list(table.values)
    values[1] = values[0]  # a repeated row has no orbit partition
    bad = chartab.CharacterTable(G, tuple(values))
    assert bad.galois_orbits is None
    with pytest.raises(InternalInconsistency, match="not closed"):
        bad.orbit_sums


@pytest.mark.parametrize("bad", ["1:0:x:0", "1:0:0"])
def test_load_reports_the_line_of_a_malformed_value(bad):
    # Each distinct value is parsed once; a bad one is reported on the
    # first line that holds it, after rows of values already parsed.
    from wordcount.errors import ParseError
    G = groups.builtin("dihedral", 8)
    lines = chartab.dump_table(character_table(G)).splitlines()
    for i in (-3, -2):
        lines[i] = lines[i].rsplit(",", 1)[0] + "," + bad
    with pytest.raises(ParseError) as info:
        chartab.load_table(G, "\n".join(lines))
    assert info.value.line == len(lines) - 2


def test_galois_orbits_must_number_the_rational_classes(monkeypatch):
    # C5 has 2 rational classes, so its characters fall into 2 orbits.
    from wordcount.errors import InternalInconsistency
    G = groups.builtin("cyclic", 5)
    classes = groups.conjugacy_classes(G)
    assert len(groups.rational_classes(G)) == 2
    # five constant rows are closed under the power maps, one orbit each
    rows = tuple(tuple(Cyclotomic.from_rational(5, 1 if c == 0 else j)
                       for c in range(5)) for j in range(1, 6))
    fake = chartab.CharacterTable(G, rows)
    with pytest.raises(InternalInconsistency,
                       match="5 Galois orbits of characters but 2 rational"):
        chartab._verify_table(fake)
    # without the power maps every character is its own orbit
    monkeypatch.setattr(chartab, "_galois_maps", lambda G: ())
    with pytest.raises(InternalInconsistency, match="5 Galois orbits"):
        chartab._verify_table(chartab._compute_table(G, classes))


@pytest.mark.parametrize("spec", ["cyclic(1)", "cyclic(30)",
                                  "elementary_abelian(2,5)", "symmetric(3)",
                                  "agl1(5)", "agl1(8)", "agl1(13)"])
def test_at_most_one_nonlinear_character_needs_no_class_matrix(spec,
                                                                monkeypatch):
    # k - |G:G'| <= 1: the linear characters and the one-dimensional
    # kernel they leave give every central character, so Dixon's split
    # builds no class matrix (the exact check after it reads a few)
    G = groups.parse_builtin_spec(spec)
    classes = groups.conjugacy_classes(G)
    expected = chartab.dump_table(chartab._compute_table(G, classes))
    split = chartab._nonlinear_rows

    def refuse(G, classes, i):
        raise AssertionError("class matrices built")

    def guarded_split(*args):
        with monkeypatch.context() as patch:
            patch.setattr(chartab, "class_mult_coefficients", refuse)
            return split(*args)

    monkeypatch.setattr(chartab, "_nonlinear_rows", guarded_split)
    table = chartab._compute_table(G, classes)
    assert chartab.dump_table(table) == expected
    S4 = groups.builtin("symmetric", 4)
    with pytest.raises(AssertionError, match="class matrices built"):
        chartab._compute_table(S4, groups.conjugacy_classes(S4))


@pytest.mark.parametrize("spec", ["cyclic(2)", "cyclic(6)",
                                  "elementary_abelian(2,3)", "symmetric(3)",
                                  "agl1(5)", "quaternion(8)", "dihedral(10)",
                                  "symmetric(4)", "heisenberg(3)",
                                  "direct_product(quaternion(8),cyclic(3))"])
def test_a_wrong_linear_character_never_gives_a_table(spec, monkeypatch):
    # Each linear exponent in turn is moved by one, which changes one omega
    # value: the span check in the split, or a later check, fails first.
    from wordcount.errors import InternalInconsistency
    G = groups.parse_builtin_spec(spec)
    classes = groups.conjugacy_classes(G)
    e = G.exponent()
    good = chartab._linear_characters(G, classes, e)
    for r, row in enumerate(good):
        for c in range(len(row)):
            bad = [list(x) for x in good]
            bad[r][c] = (bad[r][c] + 1) % e
            monkeypatch.setattr(chartab, "_linear_characters",
                                lambda *args: bad)
            with pytest.raises(InternalInconsistency):
                chartab._verify_table(chartab._compute_table(G, classes))


ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__neg__", "conjugate")


def _answers(spec):
    """What the package answers about a freshly built group."""
    G = groups.parse_builtin_spec(spec)
    table = character_table(G)
    text = chartab.dump_table(table)
    reloaded = chartab.load_table(G, text)
    assert reloaded == table and hash(reloaded) == hash(table)
    zetas = [formulas.zeta_wn_char(G, table, n) for n in range(2, 6)]
    x1 = words.parse("x1")
    mixed = formulas.zeta_mixed_theorem21(
        G, groups.commutator_subgroup(G), x1, x1, table)
    k = table.num_characters
    inner = [chartab.inner_product(table, phi, r)
             for phi in list(range(k)) + zetas for r in range(k)]
    return (table, hash(table), text, [z.values for z in zetas], mixed,
            inner, formulas.classify(G, table))


@pytest.mark.parametrize("spec", ["symmetric(4)", "dihedral(20)", "agl1(8)",
                                  "heisenberg(3)", "cyclic(5)"])
def test_no_answer_uses_cyclotomic_arithmetic(spec, monkeypatch):
    # Character values are a value record: equality, hashing and the cache
    # text read coefficient tuples, and every character sum goes through
    # the sparse integer kernel.
    expected = _answers(spec)

    def refuse(*args):
        raise AssertionError("Cyclotomic arithmetic called")

    for name in ARITHMETIC:
        monkeypatch.setattr(Cyclotomic, name, refuse)
    with pytest.raises(AssertionError, match="arithmetic called"):
        Cyclotomic.root(4) + 1
    assert _answers(spec) == expected


def _with_linear_values(table, change):
    """The table with each linear row's values replaced by change(r, j, v)."""
    values = tuple(
        tuple(change(r, j, v) for j, v in enumerate(row))
        if table.linear_mask[r] else row
        for r, row in enumerate(table.values))
    return chartab.CharacterTable(table.group, values)


def test_linear_check_refuses_a_moved_exponent():
    # S4's linear rows are the trivial one and the sign, and its classes
    # are all rational, so no power map sees a move.  Sign -1 -> 1 on the
    # transpositions leaves {1, sign'} a group of functions, and sign
    # -1 -> zeta_12^7 leaves none; in both sign' is no homomorphism of S4.
    from wordcount.errors import InternalInconsistency
    G = groups.builtin("symmetric", 4)
    table = character_table(G)
    e = table.exponent
    sign = next(r for r, lin in enumerate(table.linear_mask)
                if lin and any(v != 1 for v in table.values[r]))
    j = next(j for j, v in enumerate(table.values[sign]) if v == -1)
    for moved in [Cyclotomic.root(e, 0), Cyclotomic.root(e, e // 2 + 1)]:
        bad = _with_linear_values(
            table, lambda r, c, v: moved if (r, c) == (sign, j) else v)
        with pytest.raises(InternalInconsistency,
                           match=f"^linear character {sign} is not a "
                                 "homomorphism$"):
            chartab._verify_table(bad)


def test_linear_check_refuses_rows_not_closed_under_products():
    # EA(2,3): eight classes of size 1, the linear rows the eight +-1
    # homomorphisms.  Replace one by a +-1 row that also sums to 0 but is no
    # homomorphism: the rows stay distinct, |G:G'| in number, hold the
    # trivial one and leave the power maps alone, and the new row is named.
    from wordcount.errors import InternalInconsistency
    G = groups.builtin("elementary_abelian", 2, 3)
    table = character_table(G)
    rows = {tuple(v.to_rational() for v in row) for row in table.values}
    fake = next(row for row in
                [tuple(1 if (m >> i) & 1 else -1 for i in range(8))
                 for m in range(256)]
                if row[0] == 1 and sum(row) == 0 and row not in rows)
    r = next(r for r, row in enumerate(table.values)
             if any(v != 1 for v in row))
    bad = _with_linear_values(
        table, lambda s, c, v: Cyclotomic.root(2, int(fake[c] < 0))
        if s == r else v)
    with pytest.raises(InternalInconsistency,
                       match=f"^linear character {r} is not a "
                             "homomorphism$"):
        chartab._verify_table(bad)


def test_linear_check_refuses_a_zero_sum_row_with_uneven_fibers():
    # C4 x C2 through (lambda, mu): G -> Z/4 x Z/2, lambda of order 4 and mu
    # of order 2 with lambda^2 != mu.  The fake row v takes exponents
    # 0,1,2,3 on the classes with mu = 0 and 0,2,0,2 on the others: the
    # fibers of 0, 1, 2, 3 weigh 3, 1, 3, 1, so sum zeta^v = 0, but 2v sums
    # to 4.  The rows <v, mu> are a group Z/4 x Z/2 of odd functions
    # (v(g^-1) = -v(g)), so they are closed under the power map g -> g^3
    # and fall into 6 orbits, as the rational classes do.  v follows the
    # trivial row and is no homomorphism, so it is named, not the first row
    # whose sum is not 0.
    from wordcount import cyclotomic
    from wordcount.errors import InternalInconsistency
    G = groups.parse_builtin_spec("direct_product(cyclic(4),cyclic(2))")
    table = character_table(G)
    e, sizes = table.exponent, table.classes.sizes
    assert e == 4
    rows = table.exponent_rows
    lam = next(row for row in rows if 1 in row)
    mu = next(row for row in rows
              if set(row) == {0, 2} and row != tuple(2 * l % 4 for l in lam))
    fake = {(0, 0): 0, (1, 0): 1, (2, 0): 2, (3, 0): 3,
            (0, 2): 0, (1, 2): 2, (2, 2): 0, (3, 2): 2}
    v = tuple(fake[pair] for pair in zip(lam, mu))
    group = [tuple((a * x + b * y) % e for x, y in zip(v, mu))
             for b in (0, 1) for a in (0, 1, 2, 3)]
    order = [group[0], group[1], group[2]] + group[3:]
    assert len(set(order)) == 8

    def row_sum(row):
        acc = [0] * e
        for size, l in zip(sizes, row):
            acc[l] += size
        return acc

    assert cyclotomic.vanishes(e, row_sum(v))
    assert not cyclotomic.vanishes(e, row_sum(order[2]))
    bad = chartab.CharacterTable(
        G, tuple(tuple(Cyclotomic.root(e, l) for l in row) for row in order))
    with pytest.raises(InternalInconsistency,
                       match="^linear character 1 is not a homomorphism$"):
        chartab._verify_table(bad)


@pytest.mark.parametrize("spec, a, b", [
    ("cyclic(5)", 1, 4), ("heisenberg(3)", 3, 4),
    ("direct_product(quaternion(8),cyclic(3))", 1, 2)])
def test_linear_check_refuses_columns_swapped_against_the_classes(spec, a,
                                                                   b):
    # Two classes of one size swapped in every row keep the degrees, the
    # power maps' orbits and every orthogonality relation, and the linear
    # rows stay a group of roots of unity; only G's multiplication shows
    # that one of them is no longer a homomorphism.
    from wordcount.errors import InternalInconsistency
    G = groups.parse_builtin_spec(spec)
    table = character_table(G)
    assert table.classes.sizes[a] == table.classes.sizes[b]
    values = [list(row) for row in table.values]
    for row in values:
        row[a], row[b] = row[b], row[a]
    bad = chartab.CharacterTable(G, tuple(tuple(row) for row in values))
    assert set(bad.values) != set(table.values)
    assert bad.galois_orbits is not None
    with pytest.raises(InternalInconsistency,
                       match=r"^linear character \d+ is not a "
                             "homomorphism$") as info:
        chartab._verify_table(bad)
    r = int(str(info.value).split()[2])
    e, class_of = table.exponent, table.classes.class_of
    l = [bad.exponent_rows[r][class_of[x]] for x in range(G.order)]
    assert any((l[x] + l[y] - l[G.product(x, y)]) % e
               for x in range(G.order) for y in range(G.order))


def test_linear_check_counts_the_rows_against_the_derived_subgroup(
        monkeypatch):
    # Distinct homomorphisms are all of Irr(G/G') only when they number
    # |G:G'|: S3's two linear rows pass against its own G' = A3, and are
    # refused against a derived subgroup of another order.
    from wordcount.errors import InternalInconsistency
    G = groups.builtin("symmetric", 3)
    table = character_table(G)
    chartab._verify_table(table)
    monkeypatch.setattr(groups, "commutator_subgroup", groups.trivial_subgroup)
    with pytest.raises(InternalInconsistency,
                       match="^linear characters repeat or do not number "
                             r"\|G : G'\|$"):
        chartab._verify_table(table)


@pytest.mark.parametrize("value", [0, 2, Cyclotomic.root(12, 1) + 1])
def test_linear_check_refuses_a_value_that_is_not_a_root_of_unity(value):
    # 1 + zeta_12 has absolute value 2 cos(pi/12), so no power of zeta_12
    from wordcount.errors import InternalInconsistency
    G = groups.builtin("symmetric", 4)
    table = character_table(G)
    value = value if isinstance(value, Cyclotomic) else \
        Cyclotomic.from_rational(12, value)
    bad = _with_linear_values(
        table, lambda r, c, v: value if (r, c) == (0, 2) else v)
    with pytest.raises(InternalInconsistency,
                       match="^linear character 0 is not a root of unity "
                             "at class 2$"):
        chartab._verify_table(bad)


@pytest.mark.parametrize("spec", ["cyclic(6)", "dihedral(20)", "agl1(8)",
                                  "direct_product(symmetric(3),cyclic(4))"])
def test_linear_check_refuses_another_form_of_a_root_of_unity(
        spec, tmp_path, monkeypatch, capsys):
    # zeta^a written as -zeta^(a + e/2): a computed table and its cache text
    # write each linear value as its one term zeta^a, so any other form is
    # refused, and a cache file that holds it is a miss that is rewritten
    from wordcount import fileio
    from wordcount.cli import main
    from wordcount.errors import InternalInconsistency
    G = groups.parse_builtin_spec(spec)
    table = character_table(G)
    e = table.exponent
    assert e % 2 == 0

    def other_form(r, j, v):
        a = v.coeffs.index(1)
        coeffs = [0] * e
        coeffs[(a + e // 2) % e] = -1
        return Cyclotomic(e, tuple(coeffs))

    other = _with_linear_values(table, other_form)
    assert other.sparse_rows != table.sparse_rows
    r = table.linear_mask.index(True)
    with pytest.raises(InternalInconsistency,
                       match=f"^linear character {r} is not a root of unity "
                             "at class 0$"):
        chartab._verify_table(other)

    monkeypatch.setenv(fileio.CACHE_ENV, str(tmp_path))
    assert main(["chartab", "--group", f"builtin:{spec}"]) == 0
    computed = capsys.readouterr()
    (path,) = tmp_path.glob("*.chartab")
    good = path.read_text(encoding="utf-8")
    assert good == chartab.dump_table(table)
    path.write_text(chartab.dump_table(other), encoding="utf-8")
    assert main(["chartab", "--group", f"builtin:{spec}"]) == 0
    assert capsys.readouterr() == computed
    assert path.read_text(encoding="utf-8") == good


def test_linear_rows_and_stable_pairings_make_no_cyclotomic_sum(monkeypatch):
    # Building and checking an abelian table, <zeta^{w_n}, chi> and the
    # mixed formula on (G, G') are integer sums: the linear rows are
    # checked as homomorphisms of G, and Galois-stable input pairs with the
    # orbit rows.
    from wordcount import cyclotomic, verification
    catalog = [G for _, G in verification.catalog()]
    tables = {G: character_table(G) for G in catalog}

    def refuse(*args):
        raise AssertionError("cyclotomic.rational_sum called")

    monkeypatch.setattr(cyclotomic, "rational_sum", refuse)
    abelian = 0
    for G in catalog:
        table = tables[G]
        if all(table.linear_mask):
            abelian += 1
            classes = groups.conjugacy_classes(G)
            chartab._verify_table(chartab._compute_table(G, classes))
        for n in (2, 3, 4):
            zeta = formulas.zeta_wn_char(G, table, n)
            for r in range(table.num_characters):
                assert chartab.inner_product(table, zeta, r).denominator == 1
        x1 = words.parse("x1")
        formulas.zeta_mixed_theorem21(
            G, groups.commutator_subgroup(G), x1, x1, table)
    assert abelian == 25


@pytest.mark.parametrize("spec", ["dihedral(200)", "agl1(13)"])
def test_each_value_object_is_reduced_once(spec, monkeypatch):
    # Values keep their reduced form and tables share one object per
    # distinct value, so computing or loading a table reduces each value
    # object once; the linear rows are checked by their exponents.  The
    # kernels' own reductions of their accumulators are not a value's.
    import sys
    from wordcount import cyclotomic
    reduce = cyclotomic._reduce
    kernels = (cyclotomic.rational_sum.__code__, cyclotomic.vanishes.__code__)
    made = []

    def counted(order, coeffs):
        if sys._getframe(1).f_code not in kernels:
            made.append(coeffs)
        return reduce(order, coeffs)

    monkeypatch.setattr(cyclotomic, "_reduce", counted)
    G = groups.parse_builtin_spec(spec)
    classes = groups.conjugacy_classes(G)
    text = chartab.dump_table(character_table(G))
    for build in (lambda: chartab._compute_table(G, classes),
                  lambda: chartab.load_table(G, text)):
        del made[:]
        t = build()
        objects = {id(v): v for row in t.values for v in row}.values()
        want = len(objects)
        assert len(made) == want
        for v in objects:
            assert v.reduced() is v.reduced() and v.terms is v.terms
        assert len(made) == want


# Groups whose tables the engine must keep byte for byte: the verify
# catalog as it stood when the digest below was pinned, then larger ones
# with many classes, fields and split steps.  The groups added to the
# catalog since are pinned on their own.
ENGINE_SPECS = ("dihedral(200)", "agl1(13)", "agl1(27)", "heisenberg(5)",
                "direct_product(symmetric(4),quaternion(8))", "symmetric(5)")
LATER_CATALOG = ("direct_product(quaternion(8),cyclic(3))",
                 "direct_product(dihedral(8),cyclic(3))")


@functools.cache
def _engine_groups():
    return tuple(G for spec, G in verification.catalog()
                 if spec not in LATER_CATALOG) + tuple(
        groups.parse_builtin_spec(spec) for spec in ENGINE_SPECS)


def test_table_texts_are_pinned():
    # The sha256 of the concatenated cache texts: a change to the table
    # engine that moves a byte of one of these tables fails here.
    digest = hashlib.sha256()
    for G in _engine_groups():
        digest.update(chartab.dump_table(character_table(G)).encode())
    assert digest.hexdigest() == (
        "9c9831045d5bcfc19418dc328734ba8b77458c686aa8fa0a60852f4310a3ee5b")


def test_later_catalog_table_texts_are_pinned():
    catalog = dict(verification.catalog())
    digest = hashlib.sha256()
    for spec in LATER_CATALOG:
        digest.update(chartab.dump_table(
            character_table(catalog[spec])).encode())
    assert digest.hexdigest() == (
        "f2df87455d20b997c1916e3a5a8199ae7d77194dada4c7ba609446bf8c651cd9")


def test_smallest_dixon_prime_is_the_least_prime_past_the_bound():
    # the least prime p > 2 sqrt(|G|) with p = 1 (mod e), by testing every
    # integer in turn
    for order in range(1, 400, 7):
        for e in range(1, 60):
            p = e + 1
            while not (p > 2 * math.isqrt(order) + 1 and (p - 1) % e == 0
                       and groups._is_prime(p)):
                p += 1
            assert chartab._smallest_dixon_prime(order, e) == p, (order, e)


def test_coset_kernel_is_the_kernel_of_the_conjugate_linear_rows():
    # The reference: reduce the conjugate linear rows mod p, with
    # lambda(g_c) = w[l(c)] and w[1] = z^((p-1)/e) standing for zeta_e.
    for G in _engine_groups():
        classes = groups.conjugacy_classes(G)
        e = G.exponent()
        p = chartab._smallest_dixon_prime(G.order, e)
        z = chartab._primitive_root(p)
        w = [pow(z, (p - 1) // e * x, p) for x in range(e)]
        linear = chartab._linear_characters(G, classes, e)
        conjugate = [[w[row[c]] for c in classes.inverse_class]
                     for row in linear]
        assert chartab._coset_kernel(linear, p) == \
            chartab._kernel(conjugate, p)


def _derived_sized(G, classes):
    """The classes of size |G'|: each is a whole coset of G'."""
    derived = groups.commutator_subgroup(G).order
    return {c for c, size in enumerate(classes.sizes) if size == derived}


def test_nonlinear_characters_vanish_on_classes_of_size_derived():
    seen = 0
    for G in _engine_groups():
        table = character_table(G)
        vanishing = _derived_sized(G, table.classes)
        for row, linear in zip(table.values, table.linear_mask):
            if not linear:
                assert all(row[c] == 0 for c in vanishing)
                seen += len(vanishing)
    assert seen


def test_no_split_step_reads_a_class_of_size_derived(monkeypatch):
    # Every nonlinear character vanishes on such a class, so its class
    # matrix is 0 on the nonlinear span: the split never reads it (the
    # exact check after it may).
    build = chartab.class_mult_coefficients
    split = chartab._nonlinear_rows
    guarded = []

    def class_mult(G, classes, i):
        vanishing = _derived_sized(G, classes)
        if i in vanishing:
            raise AssertionError(f"class matrix {i} read")
        guarded.append(len(vanishing))
        return build(G, classes, i)

    def guarded_split(*args):
        with monkeypatch.context() as patch:
            patch.setattr(chartab, "class_mult_coefficients", class_mult)
            return split(*args)

    expected = [chartab.dump_table(character_table(G))
                for G in _engine_groups()]
    monkeypatch.setattr(chartab, "_nonlinear_rows", guarded_split)
    for G, text in zip(_engine_groups(), expected):
        table = chartab._compute_table(G, groups.conjugacy_classes(G))
        assert chartab.dump_table(table) == text
    assert any(guarded)


def test_induced_rows_are_dixons_rows():
    # Dixon's split still runs on the families induction serves, so a
    # drift in either construction shows as different rows.
    def coefficients(rows):
        return sorted(tuple(v.coeffs for v in row) for row in rows)

    catalog = dict(verification.catalog())
    induced = []
    for G in _engine_groups() + tuple(catalog[spec] for spec in LATER_CATALOG):
        classes = groups.conjugacy_classes(G)
        e = G.exponent()
        linear = chartab._linear_characters(G, classes, e)
        half = chartab._abelian_half(G, classes, e, linear)
        if half is None or len(linear) == classes.num_classes:
            continue
        induced.append(G)
        assert coefficients(chartab._induced_rows(
            G, classes, e, linear, *half)) == coefficients(
            chartab._nonlinear_rows(G, classes, e, linear))
    assert len(induced) == 18
    assert groups.parse_builtin_spec("dihedral(200)") in induced


@pytest.mark.parametrize("change, message", [
    # lambda(g^2) + 1 is odd off A: no square root among the e-th roots
    (lambda rows: [[l + 1 for l in row] for row in rows],
     "no eigenvalue off A"),
    # the trivial character alone: every pair {lambda, lambda^t} missing
    (lambda rows: rows[:1] * len(rows), "do not number"),
])
def test_a_wrong_irr_a_never_gives_a_table(change, message, monkeypatch):
    from wordcount.errors import InternalInconsistency
    real = chartab._linear_rows

    def wrong(G, base, *args):
        rows = real(G, base, *args)
        return change(rows) if base == (0,) else rows

    monkeypatch.setattr(chartab, "_linear_rows", wrong)
    for spec in ("quaternion(8)", "dihedral(10)", "symmetric(3)",
                 "direct_product(quaternion(8),cyclic(3))"):
        G = groups.parse_builtin_spec(spec)
        with pytest.raises(InternalInconsistency, match=message):
            chartab._compute_table(G, groups.conjugacy_classes(G))
