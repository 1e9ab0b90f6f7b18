from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wordcount import chartab, counting, formulas, groups, verification, words
from wordcount.errors import (NonIntegral, NotMeasurePreserving, NotNormal,
                              PredicateFailed, WordcountError)
from wordcount.formulas import CaminaInvariants, GroupClassReport


def _table(G):
    return chartab.character_table(G)


def test_frobenius_formula_matches_brute():
    for spec in ["symmetric(3)", "symmetric(4)", "quaternion(8)",
                 "dihedral(10)", "agl1(5)", "cyclic(9)"]:
        G = groups.parse_builtin_spec(spec)
        table = _table(G)
        assert formulas.zeta_w2_frobenius(G, table) == \
            counting.zeta_brute(G, words.wn(2), classes=table.classes)


def test_recursion_matches_brute():
    for spec, n in [("symmetric(3)", 3), ("quaternion(8)", 3),
                    ("dihedral(12)", 3), ("agl1(4)", 3),
                    ("quaternion(8)", 4), ("cyclic(6)", 4)]:
        G = groups.parse_builtin_spec(spec)
        table = _table(G)
        assert formulas.zeta_wn_char(G, table, n) == \
            counting.zeta_brute(G, words.wn(n), classes=table.classes)


def test_integer_steps_equal_the_fraction_form_on_the_catalog():
    # Each step sums integer pairs per nonlinear Galois orbit and one term
    # for the linear characters; the public c_wn keeps the Fraction form
    # sum_O |G| C^{w_n}(chi_O) / chi_O(1) * T_O, in which every linear
    # chi has the same coefficient and their rows add up to `linear_sum`.
    for _, G in verification.catalog():
        table = _table(G)
        linear = [r for r, lin in enumerate(table.linear_mask) if lin]
        for n in range(2, 9):
            coefs = [(Fraction(G.order) * formulas.c_wn(G, table, r, n)
                      / table.degrees[r], orbit.traces)
                     for r, orbit in table.orbit_sums.items()]
            (linear_coef,) = {Fraction(G.order) * formulas.c_wn(G, table, r, n)
                              for r in linear}
            coefs.append((linear_coef, table.linear_sum))
            assert list(formulas.zeta_wn_char(G, table, n).values) == [
                sum(c * traces[j] for c, traces in coefs)
                for j in range(table.num_characters)], n


def test_c_wn_values():
    S3 = groups.builtin("symmetric", 3)
    table = _table(S3)
    chi = table.linear_mask.index(False)
    assert formulas.c_wn(S3, table, chi, 2) == 1
    assert formulas.c_wn(S3, table, chi, 3) == 15
    lin = table.linear_mask.index(True)
    assert formulas.c_wn(S3, table, lin, 4) == 36


def _count_steps(monkeypatch):
    """Count the steps of the chain, each ending in one natural-number and
    total-mass check, and the sums of both kernels."""
    from wordcount import cyclotomic
    calls = Counter()

    def counted(module, name):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args: calls.update([name]) or fn(*args))

    counted(formulas, "_as_integer_class_function")
    counted(cyclotomic, "rational_sum")
    counted(chartab, "integer_class_sum")
    return calls


def test_each_zeta_step_runs_once_per_table(monkeypatch):
    S3 = groups.builtin("symmetric", 3)
    table = chartab.load_table(S3, chartab.dump_table(_table(S3)))
    calls = _count_steps(monkeypatch)
    top = formulas.zeta_wn_char(S3, table, 5)
    # one step each for n = 2, 3, 4, 5, and one integer sum for the one
    # nonlinear orbit at n = 3, 4, 5; no cyclotomic sum
    assert calls == {"_as_integer_class_function": 4, "integer_class_sum": 3}
    assert formulas.zeta_w2_frobenius(S3, table) is table.zeta_chain[0]
    assert [formulas.zeta_wn_char(S3, table, n) for n in range(2, 6)] \
        == table.zeta_chain
    assert formulas.zeta_wn_char(S3, table, 5) is top
    for n in range(2, 6):
        for r in range(table.num_characters):
            formulas.c_wn(S3, table, r, n)
    assert calls["_as_integer_class_function"] == 4
    # the unique-nonlinear form reads class data, not the table
    _, zeta = formulas.unique_nonlinear_recursion(S3, 5)
    assert zeta == top and calls["_as_integer_class_function"] == 4
    assert calls["rational_sum"] == 0


def test_loaded_table_builds_its_own_chain():
    Q8 = groups.builtin("quaternion", 8)
    table = _table(Q8)
    zeta = formulas.zeta_wn_char(Q8, table, 3)
    loaded = chartab.load_table(Q8, chartab.dump_table(table))
    assert loaded == table and loaded.zeta_chain == []
    assert formulas.zeta_wn_char(Q8, loaded, 3) == zeta
    assert loaded.zeta_chain == table.zeta_chain[:2]
    assert loaded.zeta_chain[1] is not zeta


def test_mixed_domain_theorem():
    S3 = groups.builtin("symmetric", 3)
    table = _table(S3)
    A3 = groups.commutator_subgroup(S3)
    x = words.parse("x1")
    got = formulas.zeta_mixed_theorem21(S3, A3, x, x, table)
    assert got == [12, 0, 0, 3, 3, 0]


def test_mixed_domain_matches_brute_on_q8():
    Q8 = groups.builtin("quaternion", 8)
    table = _table(Q8)
    Z = groups.center(Q8)
    w1 = words.parse("x1 x2")
    w2 = words.parse("x1")
    got = formulas.zeta_mixed_theorem21(Q8, Z, w1, w2, table)
    combined = formulas.bracket_word(w1, w2)
    spec = counting.DomainSpec((Z, Z, None))
    assert got == counting.zeta_element_counts(Q8, combined, spec)


def _c7_by_c9():
    """C7 x| C9 (order 63, 15 classes): a 7-cycle on 0..6, and x -> 2x mod 7
    on 0..6 together with a 9-cycle on 7..15."""
    a = (*range(1, 7), 0, *range(7, 16))
    b = (*[2 * x % 7 for x in range(7)], *range(8, 16), 7)
    return groups.from_permutation_generators(16, [a, b])


def test_mixed_domain_counts_that_are_not_galois_stable():
    # on a real group, fiber counts that are not constant on rational
    # classes: the mixed formula takes its per-character cyclotomic sums
    G = _c7_by_c9()
    table = _table(G)
    assert (G.order, table.num_characters) == (63, 15)
    w1, x1 = words.parse("x2 x1 x2^2 x1^-4"), words.parse("x1")
    zeta = counting.zeta_brute(G, w1, classes=table.classes)
    weights = [s * v for s, v in zip(table.classes.sizes, zeta.values)]
    assert not chartab.galois_stable(table, weights)
    H = groups.whole_subgroup(G)
    assert formulas.zeta_mixed_theorem21(G, H, w1, x1, table) == \
        counting.zeta_element_counts(G, formulas.bracket_word(w1, x1),
                                     counting.DomainSpec((H, H, None)))
    # <zeta, chi> is irrational on four of the six degree-3 characters, and
    # inner_product returns rational values only
    linear, rational, refused = set(), [], 0
    for r, d in enumerate(table.degrees):
        try:
            value = chartab.inner_product(table, zeta, r)
        except NonIntegral as exc:
            assert d == 3 and str(exc) == "character sum is not rational"
            refused += 1
            continue
        if d == 1:
            linear.add(value)
        else:
            rational.append(value)
    assert (linear, rational, refused) == ({0, 63}, [21, 21], 4)


def test_mixed_domain_preconditions():
    S3 = groups.builtin("symmetric", 3)
    table = _table(S3)
    x = words.parse("x1")
    not_normal = groups.subgroup_closure(S3, [
        next(g for g in range(6) if S3.element_order(g) == 2)])
    with pytest.raises(NotNormal):
        formulas.zeta_mixed_theorem21(S3, not_normal, x, x, table)
    A3 = groups.commutator_subgroup(S3)
    with pytest.raises(NotMeasurePreserving):
        formulas.zeta_mixed_theorem21(S3, A3, x, words.wn(2), table)


# words in x1..x3 with repeated variables, exponents +-1 and +-2 and nested
# brackets, so that the lone-letter rule both applies and does not
_exponent = st.sampled_from([-2, -1, 1, 2])
_term = st.recursive(
    st.builds(lambda v, e: f"x{v}^{e}", st.integers(1, 3), _exponent),
    lambda inner: st.one_of(
        st.builds(lambda u, v: f"[{u},{v}]", inner, inner),
        st.builds(lambda u, e: f"({u})^{e}", inner, _exponent),
        st.lists(inner, min_size=2, max_size=3).map(" ".join)),
    max_leaves=5)
SMALL_CATALOG = [G for _, G in verification.catalog() if G.order <= 32]


def _contiguous_word(text):
    """The word with the variables it uses renamed x1..xk in rising
    order; None if it reduces away or loses a variable."""
    names = {}
    for v in range(1, 4):
        if f"x{v}" in text:
            names[v] = len(names) + 1
    text = text.replace("x", "y")
    for v, new in names.items():
        text = text.replace(f"y{v}", f"x{new}")
    try:
        return words.parse(text)
    except WordcountError:
        return None


@settings(max_examples=40, deadline=None)
@given(text=st.lists(_term, min_size=1, max_size=3).map(" ".join))
@example(text="x1 [x2,x3]")           # the rule applies
@example(text="x1^2 x2^-1 [x1,x3]^2")  # it applies to x2 only
@example(text="[x1,x2]")              # no lone letter, not preserving
@example(text="x1^2")                 # no lone letter, preserving on odd |G|
@example(text="x1 x2 x1^-1 x2")       # x1 twice, x2 twice
def test_lone_letter_rule_agrees_with_enumeration(text):
    word = _contiguous_word(text)
    if word is None:
        return
    # a lone letter claims preservation on every group; no lone letter
    # claims nothing, and the enumeration decides
    lone = formulas.has_lone_letter(word)
    for G in SMALL_CATALOG:
        assert counting.is_measure_preserving(G, word) or not lone, \
            (str(word), G.order)


def test_lone_letter_rule_reads_the_reduced_letters():
    assert formulas.has_lone_letter(words.parse("x1"))
    assert formulas.has_lone_letter(words.parse("x1^-1"))
    assert formulas.has_lone_letter(words.parse("x2 [x1,x3]"))
    assert not formulas.has_lone_letter(words.parse("x1^2"))
    assert not formulas.has_lone_letter(words.wn(3))
    # x2 x2 reduces to x2^2, and x1 x3 x1^-1 keeps x3 alone
    assert not formulas.has_lone_letter(words.parse("x1^-1 x2 x2 x1^2"))
    assert formulas.has_lone_letter(words.parse("x1 x3 x1^-1 x2^2"))


def test_mixed_domain_counts_nothing_for_a_lone_letter(monkeypatch):
    def refuse(G, word, budget=None):
        raise AssertionError(f"enumerated {word}")

    monkeypatch.setattr(counting, "is_measure_preserving", refuse)
    S4 = groups.builtin("symmetric", 4)
    table = _table(S4)
    A4 = groups.commutator_subgroup(S4)
    w1 = words.parse("x1")
    for text in ("x1", "x1^-1", "x1^2 x2 x1^-2", "[x1,x2] x3^-1"):
        w2 = words.parse(text)
        got = formulas.zeta_mixed_theorem21(S4, A4, w1, w2, table)
        spec = counting.DomainSpec((A4,) + (None,) * w2.arity)
        assert got == counting.zeta_element_counts(
            S4, formulas.bracket_word(w1, w2), spec), text
    monkeypatch.undo()
    S3 = groups.builtin("symmetric", 3)
    with pytest.raises(NotMeasurePreserving):
        formulas.zeta_mixed_theorem21(
            S3, groups.commutator_subgroup(S3), w1, words.wn(2), _table(S3))


def test_classify_q8():
    Q8 = groups.builtin("quaternion", 8)
    report = formulas.classify(Q8)
    assert not report.is_abelian
    assert report.nilpotency_class == 2
    assert report.is_camina_group
    assert report.is_vz
    assert report.unique_nonlinear
    assert report.cd == {1, 2}


def test_classify_s3_and_abelian():
    report = formulas.classify(groups.builtin("symmetric", 3))
    assert report.unique_nonlinear and not report.is_vz
    assert report.nilpotency_class is None
    for G in [groups.builtin("cyclic", 12),
              groups.builtin("elementary_abelian", 2, 5)]:
        report = formulas.classify(G)
        assert report.is_abelian and not report.is_camina_group


@pytest.mark.parametrize("spec, expected", [
    ("quaternion(8)", (False, 2, True, {1, 2}, True, True)),
    ("symmetric(4)", (False, None, False, {1, 2, 3}, False, False)),
    ("agl1(5)", (False, None, True, {1, 4}, False, True)),
    ("heisenberg(3)", (False, 2, True, {1, 3}, True, False)),
    ("direct_product(dihedral(8),cyclic(2))",
     (False, 2, False, {1, 2}, True, False)),
])
def test_classify_lists_no_normal_subgroups(spec, expected, monkeypatch):
    G = groups.parse_builtin_spec(spec)

    def unlisted(G):
        raise AssertionError("normal subgroups listed")

    monkeypatch.setattr(groups, "normal_subgroups", unlisted)
    assert formulas.classify(G) == GroupClassReport(*expected)


def test_closed_gcp_center_values():
    inv = CaminaInvariants(8, 2, 2, 8)
    assert formulas.closed_gcp_center(inv, 2) == {"identity": 40, "inner": 24}
    assert formulas.closed_gcp_center(inv, 3) == {"identity": 512, "inner": 0}


def test_closed_gcp_center_class_function():
    for spec in ["quaternion(8)", "dihedral(8)", "heisenberg(3)"]:
        G = groups.parse_builtin_spec(spec)
        table = _table(G)
        for n in (2, 3, 4):
            closed = formulas.closed_zeta_gcp_center(G, n)
            assert closed == formulas.zeta_wn_char(G, table, n)


def test_closed_gcp_center_rejects_non_vz():
    S3 = groups.builtin("symmetric", 3)
    with pytest.raises(PredicateFailed):
        formulas.closed_zeta_gcp_center(S3, 2)


def _no_table(*args, **kwargs):
    raise AssertionError("a class-data closed form read a character table")


@pytest.mark.parametrize("spec, values", [
    ("quaternion(8)", {2: (40, 24, 0, 0, 0), 3: (512, 0, 0, 0, 0)}),
    ("dihedral(8)", {2: (40, 24, 0, 0, 0), 3: (512, 0, 0, 0, 0)}),
    ("heisenberg(3)", {2: (297, 216, 216) + (0,) * 8,
                       3: (19683,) + (0,) * 10}),
])
def test_gcp_closed_form_needs_no_table(spec, values, monkeypatch):
    G = groups.parse_builtin_spec(spec)
    monkeypatch.setattr(chartab, "character_table", _no_table)
    monkeypatch.setattr(formulas, "classify", _no_table)
    for n, expected in values.items():
        assert formulas.closed_zeta_gcp_center(G, n).values == expected


@pytest.mark.parametrize("closed", [formulas.closed_zeta_gcp_center,
                                    formulas.closed_zeta_camina3,
                                    formulas.closed_zeta_tower,
                                    formulas.unique_nonlinear_recursion])
def test_class_data_predicates_fail_without_a_table(closed, monkeypatch):
    # S3 is of the unique-nonlinear family; S4 has three nonlinear characters
    degree = 4 if closed is formulas.unique_nonlinear_recursion else 3
    G = groups.builtin("symmetric", degree)
    monkeypatch.setattr(chartab, "character_table", _no_table)
    monkeypatch.setattr(formulas, "classify", _no_table)
    with pytest.raises(PredicateFailed):
        closed(G, 3)


def test_camina3_closed_forms():
    inv = CaminaInvariants(128, 8, 2, 0)
    assert formulas.closed_camina3(inv, 2) == {
        "identity": 2560, "inner": 2304, "derived_rest": 1920}
    assert formulas.closed_camina3(inv, 3) == {
        "identity": 1359872, "inner": 737280, "derived_rest": 0}
    # the published scalar identity display fails total mass; kept flagged
    assert formulas.camina3_identity_display(inv) == 1490944


def test_camina3_invariant_gates():
    with pytest.raises(PredicateFailed):
        formulas.closed_camina3(CaminaInvariants(64, 8, 2, 0), 2)
    with pytest.raises(PredicateFailed):
        formulas.camina3_parameters(CaminaInvariants(128, 8, 4, 0))


def test_tower_closed_form_total_mass():
    # shape: |G| = 2^9, |G'| = 2^4, |Z| = 2^2, |Z2| = 2^6
    inv = CaminaInvariants(512, 16, 4, 64)
    for n in (2, 3):
        vals = formulas.closed_camina_gcp_tower(inv, n)
        total = (vals["identity"]
                 + (inv.center_order - 1) * vals["inner"]
                 + (inv.derived_order - inv.center_order)
                 * vals["derived_rest"])
        assert total == inv.order ** n
    assert formulas.closed_camina_gcp_tower(inv, 3)["derived_rest"] == 0


def test_tower_form_builds_no_quotient(monkeypatch):
    # (G/Z, Z(G/Z)) is decided on G's own classes and Z_2(G)
    G = dict(verification.catalog())["tower-32"]

    def refuse(G, N):
        raise AssertionError("built a quotient group for a closed form")

    monkeypatch.setattr(groups, "quotient", refuse)
    for n in (2, 3):
        assert formulas.closed_form_zeta(G, n) == \
            counting.zeta_brute(G, words.wn(n))


def test_tower_degenerate_z2_equals_derived():
    inv = CaminaInvariants(512, 16, 4, 16)
    v = formulas.closed_camina_gcp_tower(inv, 2)["derived_rest"]
    assert v == inv.order * (inv.order - inv.z2_order) // inv.derived_order
    assert v >= 0


def test_unique_nonlinear_recursion():
    S3 = groups.builtin("symmetric", 3)
    c, zeta = formulas.unique_nonlinear_recursion(S3, 3)
    assert c == 15
    assert zeta.values == (162, 27, 0)
    A4 = groups.builtin("agl1", 4)
    c, zeta = formulas.unique_nonlinear_recursion(A4, 3)
    assert c == 44
    assert zeta.at_element(0) == 960
    c2, zeta2 = formulas.unique_nonlinear_recursion(S3, 2)
    assert c2 == 1
    assert zeta2.values == (18, 9, 0)


def test_unique_nonlinear_rejects_wrong_groups():
    Q8 = groups.builtin("quaternion", 8)  # unique nl but center not trivial
    with pytest.raises(PredicateFailed):
        formulas.unique_nonlinear_recursion(Q8, 3)
    S4 = groups.builtin("symmetric", 4)
    with pytest.raises(PredicateFailed):
        formulas.unique_nonlinear_recursion(S4, 3)



@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 13, 16, 27])
def test_unique_nonlinear_class_data_matches_the_character_path(q):
    # agl1(q) has one nonlinear character phi, of degree q - 1
    G = groups.builtin("agl1", q)
    table = _table(G)
    assert table.linear_mask.count(False) == 1
    phi = table.linear_mask.index(False)
    for n in (2, 3, 5, 8):
        c, zeta = formulas.unique_nonlinear_recursion(G, n)
        assert zeta == formulas.zeta_wn_char(G, table, n), n
        assert c == formulas.c_wn(G, table, phi, n), n


def test_unique_nonlinear_refusals_name_the_count():
    with pytest.raises(PredicateFailed,
                       match="^group has no nonlinear character$"):
        formulas.unique_nonlinear_recursion(groups.builtin("cyclic", 6), 3)
    with pytest.raises(PredicateFailed,
                       match="^group has more than one nonlinear character$"):
        formulas.unique_nonlinear_recursion(groups.builtin("symmetric", 4), 3)
    with pytest.raises(PredicateFailed, match="^center is not trivial$"):
        formulas.unique_nonlinear_recursion(groups.builtin("quaternion", 8), 3)

def test_appl_values():
    assert formulas.appl_identity_value(6, 3, 3) == 162
    assert formulas.appl_identity_value(12, 4, 4) == 960
    assert formulas.appl_offidentity_value(6, 3, 3, 15) == 27
    assert formulas.appl_offidentity_value(12, 4, 4, 44) == 256
    # the published off-identity display disagrees (flagged, not used)
    assert formulas.appl_offidentity_display(6, 3, 3) == -18
    assert formulas.appl_offidentity_display(8, 4, 2) is None


def test_invariants_of():
    Q8 = groups.builtin("quaternion", 8)
    inv = formulas.invariants_of(Q8)
    assert (inv.order, inv.derived_order, inv.center_order, inv.z2_order) == \
        (8, 2, 2, 8)
