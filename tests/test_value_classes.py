"""Construction, equality, hashing and immutability of the package's
value classes.

Records are named tuples: equal fields make equal instances with equal
hashes, keyword and positional construction agree, and a field cannot be
assigned.  The other classes keep their own equality: a group is its order
and multiplication table, subgroups and class functions over equal tables
are equal, and cyclotomics compare by their reduced coefficients.
"""

import pytest

from wordcount import chartab, counting, formulas, groups, isoclinism, words
from wordcount.cyclotomic import Cyclotomic

S3 = groups.builtin("symmetric", 3)
S3_AGAIN = groups.builtin("symmetric", 3)
C6 = groups.builtin("cyclic", 6)
C3 = groups.builtin("cyclic", 3)


def _witness():
    return isoclinism.find_isoclinism(groups.builtin("dihedral", 8),
                                      groups.builtin("quaternion", 8), 1)


# (class, keyword fields, one field changed, hashable)
RECORDS = [
    (groups.ConjugacyData,
     dict(class_of=(0, 1, 1), reps=(0, 1), sizes=(1, 2), inverse_class=(0, 1),
          members=((0,), (1, 2))),
     dict(sizes=(1, 3)), True),
    (formulas.CaminaInvariants,
     dict(order=8, derived_order=2, center_order=2, z2_order=8),
     dict(z2_order=4), True),
    (counting.DomainSpec, dict(domains=(None, groups.center(S3))),
     dict(domains=(None, None)), True),
    (words.Word, dict(arity=2, letters=((1, -1), (2, -1), (1, 1), (2, 1))),
     dict(arity=3), True),
    (formulas.GroupClassReport,
     formulas.classify(S3)._asdict(), dict(is_vz=True), False),
    (isoclinism.IsoclinismWitness, _witness()._asdict(), dict(n=2), False),
]


@pytest.mark.parametrize("cls, fields, change, hashable", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record(cls, fields, change, hashable):
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    assert by_keyword == by_position
    assert not by_keyword != by_position
    other = cls(**dict(fields, **change))
    assert other != by_keyword
    if hashable:
        assert hash(by_keyword) == hash(by_position)
        assert len({by_keyword, by_position, other}) == 2
    for name in fields:
        assert getattr(by_keyword, name) is fields[name]
        with pytest.raises(AttributeError):
            setattr(by_keyword, name, None)
    with pytest.raises(AttributeError):
        by_keyword.extra = 1


def test_word_prints_its_letters():
    assert str(words.parse("[x1,x2]")) == "x1^-1 x2^-1 x1 x2"
    assert words.wn(2) == words.Word(2, words.parse("[x1,x2]").letters)


def test_group_table():
    G = groups.GroupTable(order=S3.order, mul=S3.mul, inv=S3.inv,
                          gens=S3.gens)
    assert G.label(5) == "5" and G.structure == {}
    H = groups.GroupTable(S3.order, S3.mul, S3.inv, S3.gens, lambda a: "a")
    assert H.label(5) == "a"
    assert G == H == S3 and hash(G) == hash(H) == hash(S3)
    assert G.structure is not H.structure
    assert G != C6 and S3 != C6
    assert G.__eq__(S3.mul) is NotImplemented
    with pytest.raises(AttributeError):
        G.extra = 1


def test_subgroup():
    A3 = groups.commutator_subgroup(S3)
    again = groups.Subgroup(parent=S3_AGAIN, members=A3.members)
    assert again == A3 and hash(again) == hash(A3)
    assert 1 not in groups.Subgroup(S3, (0,)) and 0 in again
    assert groups.Subgroup(S3, (0,)) != A3
    assert groups.Subgroup(C6, A3.members) != A3
    with pytest.raises(AttributeError):
        again.extra = 1


def test_class_function():
    f = groups.ClassFunction(S3, (1, 0, -1))
    same = groups.ClassFunction(group=S3_AGAIN, values=(1, 0, -1))
    assert f == same and hash(f) == hash(same)
    assert f != groups.ClassFunction(S3, (1, 0, 1))
    assert f != groups.ClassFunction(C3, (1, 0, -1))
    with pytest.raises(AttributeError):
        f.extra = 1


def test_a_class_function_holds_one_value_per_class():
    from wordcount.errors import MismatchedGroup
    for values in [(6, 0), (), (6, 0, 0, 0)]:
        with pytest.raises(MismatchedGroup,
                           match=f"{len(values)} values for 3 classes"):
            groups.ClassFunction(S3, values)
    f = groups.ClassFunction(S3, [18, 9, 0])
    assert type(f.values) is tuple and f.values == (18, 9, 0)
    assert f.total_mass() == 36


def test_cyclotomic():
    # 1 + zeta_4^2 = 0, so an unreduced zero equals zero and hashes alike
    zero = Cyclotomic(order=4, coeffs=(1, 0, 1, 0))
    assert zero == Cyclotomic(4, (0,) * 4) == 0
    assert hash(zero) == hash(Cyclotomic(4, (0, 0, 0, 0)))
    i = Cyclotomic.root(4)
    assert i != Cyclotomic.root(4, 3) and i * i == -1
    assert Cyclotomic(4, (2, 0, 0, 0)) == 2
    with pytest.raises(AttributeError):
        zero.extra = 1


def test_character_table():
    table = chartab.character_table(S3)
    again = chartab.character_table(S3_AGAIN)
    assert table is not again
    assert table == again and hash(table) == hash(again)
    fields = dict(group=table.group, values=table.values)
    assert chartab.CharacterTable(**fields) == table
    swapped = dict(fields, values=table.values[::-1])
    assert chartab.CharacterTable(*swapped.values()) != table
    assert table.sparse_rows is table.sparse_rows  # cached on the instance
