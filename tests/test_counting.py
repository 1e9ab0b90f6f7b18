import io
from fractions import Fraction

import pytest

from wordcount import counting, groups, words
from wordcount.counting import DomainSpec
from wordcount.errors import BudgetExceeded, MismatchedGroup


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
