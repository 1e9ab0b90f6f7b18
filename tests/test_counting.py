import io
import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wordcount import counting, groups, words
from wordcount.cli import main
from wordcount.counting import DomainSpec
from wordcount.errors import BudgetExceeded, MismatchedGroup, WordcountError


def test_s3_commutator_counts():
    S3 = groups.builtin("symmetric", 3)
    zeta = counting.zeta_brute(S3, words.wn(2))
    assert zeta.values == (18, 9, 0)
    assert zeta.total_mass() == 36


def test_abelian_counts():
    C6 = groups.builtin("cyclic", 6)
    zeta = counting.zeta_brute(C6, words.wn(3))
    assert zeta.values[0] == 6 ** 3
    assert sum(zeta.values[1:]) == 0


def test_mixed_domain_example():
    S3 = groups.builtin("symmetric", 3)
    A3 = groups.commutator_subgroup(S3)
    counts = counting.zeta_element_counts(S3, words.wn(2),
                                          DomainSpec((A3, None)))
    assert counts == [12, 0, 0, 3, 3, 0]
    assert sum(counts) == 3 * 6


def test_domain_validation():
    S3 = groups.builtin("symmetric", 3)
    C4 = groups.builtin("cyclic", 4)
    other = groups.center(C4)
    with pytest.raises(MismatchedGroup):
        counting.zeta_element_counts(S3, words.wn(2), DomainSpec((other, None)))
    with pytest.raises(MismatchedGroup):
        counting.zeta_element_counts(S3, words.wn(2), DomainSpec((None,)))


def test_budget():
    S4 = groups.builtin("symmetric", 4)
    with pytest.raises(BudgetExceeded):
        counting.zeta_brute(S4, words.wn(3), budget=1000)


def test_is_measure_preserving():
    S3 = groups.builtin("symmetric", 3)
    assert counting.is_measure_preserving(S3, words.parse("x1"))
    assert counting.is_measure_preserving(S3, words.parse("x1 x2"))
    assert not counting.is_measure_preserving(S3, words.wn(2))


def test_probability_and_nilpotency_degree():
    S3 = groups.builtin("symmetric", 3)
    zeta = counting.zeta_brute(S3, words.wn(2))
    prob = counting.probability(zeta, 2)
    assert prob.values[0] == Fraction(1, 2)
    assert sum(s * v for s, v in zip(prob.classes.sizes, prob.values)) == 1
    assert counting.nilpotency_degree(S3, 2) == Fraction(1, 2)
    assert counting.nilpotency_degree(S3, 3) == Fraction(3, 4)
    assert counting.nilpotency_degree(groups.builtin("cyclic", 5), 4) == 1


def test_csv_export():
    S3 = groups.builtin("symmetric", 3)
    classes = groups.conjugacy_classes(S3)
    zeta = counting.zeta_brute(S3, words.wn(2), classes=classes)
    out = io.StringIO()
    counting.export_csv(S3, classes, zeta, 2, out)
    lines = out.getvalue().splitlines()
    assert lines[0] == ("rep_label,class_size,count,"
                        "probability_numerator,probability_denominator")
    assert len(lines) == 4
    assert lines[1].endswith(",1,18,1,2")


# ---------------------------------------------------------------------------
# enumeration against a per-assignment reference


def reference_counts(G, word, member_lists):
    """Evaluate the word letter by letter at every assignment."""
    counts = [0] * G.order
    for x in itertools.product(*member_lists):
        counts[words.evaluate(word, G, x)] += 1
    return counts


GROUPS = {
    "S3": groups.builtin("symmetric", 3),
    "D8": groups.builtin("dihedral", 8),
    "Q8": groups.builtin("quaternion", 8),
    "S4": groups.builtin("symmetric", 4),
    "AGL(1,5)": groups.builtin("agl1", 5),
    "trivial": groups.builtin("cyclic", 1),
}
DOMAINS = {
    "whole": lambda G: None,
    "derived": groups.commutator_subgroup,
    "center": groups.center,
}

# Large exponents go on single variables only: a bracket or a parenthesized
# word raised to e is expanded into |e| copies.
small_exp = st.sampled_from([-3, -2, -1, 1, 2, 3])
large_exp = st.one_of(small_exp, st.integers(-words.MAX_EXPONENT,
                                             words.MAX_EXPONENT))
variable = st.builds(lambda v, e: f"x{v}^{e}", st.integers(1, 3), large_exp)
term = st.recursive(variable, lambda inner: st.one_of(
    st.builds(lambda u, v: f"[{u},{v}]", inner, inner),
    st.builds(lambda u, e: f"({u})^{e}", inner, small_exp),
    st.lists(inner, min_size=2, max_size=3).map(" ".join),
), max_leaves=6)
word_text = st.lists(term, min_size=1, max_size=3).map(" ".join)


def parse_relabelled(text):
    """Parse `text` after renaming its variables to x1..xk in order of
    first use; None if the word reduces away or loses a variable."""
    names = {}
    text = re.sub(r"x(\d+)", lambda m: "x%d" % names.setdefault(
        m.group(1), len(names) + 1), text)
    try:
        return words.parse(text)
    except WordcountError:
        return None


@settings(max_examples=60, deadline=None)
@given(text=word_text, group=st.sampled_from(sorted(GROUPS)),
       kinds=st.lists(st.sampled_from(sorted(DOMAINS)), min_size=3,
                      max_size=3))
def test_enumeration_matches_reference(text, group, kinds):
    word = parse_relabelled(text)
    assume(word is not None)
    G = GROUPS[group]
    spec = DomainSpec(tuple(DOMAINS[k](G) for k in kinds[:word.arity]))
    member_lists = spec.member_lists(G)
    assume(len(list(itertools.product(*member_lists))) <= 3000)
    assert counting.zeta_element_counts(G, word, spec) == \
        reference_counts(G, word, member_lists)


@pytest.mark.parametrize("group", ["S3", "D8", "Q8"])
@pytest.mark.parametrize("kinds", [("whole", "whole"), ("whole", "center"),
                                   ("derived", "whole")])
@pytest.mark.parametrize("text", [
    "x1 x2^-1 x1^3",                        # innermost x2 once
    "x1^2 x2 x1^-1 x2^-2 x1",               # twice
    "x1 x2 x1^2 x2^-1 x1^-2 x2^3 x1",       # three times
])
def test_innermost_shapes_match_reference(group, kinds, text):
    G = GROUPS[group]
    word = words.parse(text)
    spec = DomainSpec(tuple(DOMAINS[k](G) for k in kinds))
    assert counting.zeta_element_counts(G, word, spec) == \
        reference_counts(G, word, spec.member_lists(G))


@pytest.mark.parametrize("group", sorted(GROUPS))
@pytest.mark.parametrize("text", ["x1", "x1^-1", "x1^2 x1^-5",
                                  "x1^2147483647", "(x1^3 x1^-1)^-4"])
def test_arity_one_matches_reference(group, text):
    G = GROUPS[group]
    word = words.parse(text)
    assert counting.zeta_element_counts(G, word) == \
        reference_counts(G, word, [range(G.order)])


@pytest.mark.parametrize("text",
                         ["[x1,x2]", "x1^5 x2^-3 x3 x2", "[[x1,x2],x3]^2"])
def test_trivial_group(text):
    word = words.parse(text)
    assert counting.zeta_element_counts(GROUPS["trivial"], word) == [1]


def drawing_domains(order, arity, limit):
    """Whole-group domains that count the values drawn from them all and
    fail once more than `limit` are drawn; returns (domains, drawn)."""
    drawn = [0]

    class Domain:
        def __len__(self):
            return order

        def __iter__(self):
            for a in range(order):
                drawn[0] += 1
                assert drawn[0] <= limit, f"more than {limit} values drawn"
                yield a

    return [Domain() for _ in range(arity)], drawn


@pytest.mark.parametrize("G, n", [(groups.builtin("agl1", 13), 4),
                                  (GROUPS["S4"], 5)])
def test_wn_folds_each_distinct_residual_word_once(G, n):
    # Once x1, x2 are fixed, the residual word of w_n depends only on the
    # value of w_2, and so on up: at most |G| states after each level.
    limit = G.order + (n - 1) * G.order ** 2
    domains, drawn = drawing_domains(G.order, n, limit)
    counts = [0] * G.order
    counting._count_assignments(G, words.wn(n), domains, counts)
    assert 0 < drawn[0] <= limit
    assert sum(counts) == G.order ** n


def test_low_merging_word_matches_reference():
    # After x1 and x2 are fixed, all 24^2 assignments leave distinct
    # residual words of S4, so nothing merges there.
    S4 = GROUPS["S4"]
    word = words.parse("x1 x2 x3 x1 x2 x3 x4 x1")
    domains, drawn = drawing_domains(S4.order, 4, 24 ** 4)
    counts = [0] * S4.order
    counting._count_assignments(S4, word, domains, counts)
    assert drawn[0] == 24 + 24 * 24 + 24 ** 2 * 24 + 288 * 24
    assert counts == reference_counts(S4, word, [range(24)] * 4)


def test_brute_force_past_the_old_loops_reach():
    # 156^4 = 592M assignments: too many to evaluate one by one.
    from wordcount import chartab, formulas

    G = groups.builtin("agl1", 13)
    table = chartab.character_table(G)
    assert counting.zeta_brute(G, words.wn(4), budget=2**30) == \
        formulas.zeta_wn_char(G, table, 4)


def test_checks_run_before_enumeration(monkeypatch):
    def enumerate_anyway(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(counting, "_count_assignments", enumerate_anyway)
    S4 = GROUPS["S4"]
    with pytest.raises(BudgetExceeded):
        counting.zeta_element_counts(S4, words.wn(3), budget=1000)
    other = groups.center(groups.builtin("cyclic", 4))
    with pytest.raises(MismatchedGroup):
        counting.zeta_element_counts(S4, words.wn(2),
                                     DomainSpec((other, None)))
    with pytest.raises(MismatchedGroup):
        counting.zeta_element_counts(S4, words.wn(2), DomainSpec((None,)))


def test_domain_of_equal_group_built_twice():
    S3 = groups.builtin("symmetric", 3)
    S3_again = groups.builtin("symmetric", 3)
    spec = DomainSpec((groups.commutator_subgroup(S3_again), None))
    assert counting.zeta_element_counts(S3, words.wn(2), spec) == \
        [12, 0, 0, 3, 3, 0]


def test_many_variables_do_not_recurse(capsys):
    text = " ".join(f"x{i}" for i in range(1, 1501))
    C1 = GROUPS["trivial"]
    assert counting.zeta_element_counts(C1, words.parse(text)) == [1]
    code = main(["count", "--group", "builtin:cyclic(1)", "--word", text])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[1].split("\t") == \
        ["0", "1", "1"]
