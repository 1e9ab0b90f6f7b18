from fractions import Fraction

import pytest

from wordcount import groups, isoclinism
from wordcount.errors import (SearchBoundExceeded, UnsupportedParameter,
                              WitnessInvalid)


def test_identity_witness():
    S3 = groups.builtin("symmetric", 3)
    for n in (1, 2):
        w = isoclinism.find_isoclinism(S3, S3, n)
        assert w is not None
        report = isoclinism.verify_scaling(w)
        assert report["factor"] == 1


def test_d8_q8_isoclinic():
    D8 = groups.builtin("dihedral", 8)
    Q8 = groups.builtin("quaternion", 8)
    w = isoclinism.find_isoclinism(D8, Q8, 1)
    assert w is not None
    report = isoclinism.verify_scaling(w)
    assert report["factor"] == 1
    values = {v for _, _, v in report["checked"]}
    assert values == {40, 24}


def test_q8_c8_not_isoclinic():
    Q8 = groups.builtin("quaternion", 8)
    C8 = groups.builtin("cyclic", 8)
    assert isoclinism.find_isoclinism(Q8, C8, 1) is None


def test_scaling_with_abelian_factor():
    Q8 = groups.builtin("quaternion", 8)
    big = groups.direct_product(Q8, groups.builtin("cyclic", 2))
    w = isoclinism.find_isoclinism(big, Q8, 1)
    assert w is not None
    report = isoclinism.verify_scaling(w)
    assert report["factor"] == Fraction(4)
    # zeta^{w2}_{Q8xC2} on the image of -1 is 96 = 4 * 24
    assert any(v == 96 for _, _, v in report["checked"])


def test_abelian_factors_generally_isoclinic():
    S3 = groups.builtin("symmetric", 3)
    for spec in ["cyclic(2)", "cyclic(3)", "cyclic(4)"]:
        A = groups.parse_builtin_spec(spec)
        w = isoclinism.find_isoclinism(groups.direct_product(S3, A), S3, 1)
        assert w is not None
        isoclinism.verify_scaling(w)


def test_search_bound():
    big = groups.builtin("dihedral", 24)  # trivial center: quotient order 24
    huge = groups.direct_product(big, groups.builtin("dihedral", 6))
    with pytest.raises(SearchBoundExceeded):
        isoclinism.find_isoclinism(huge, huge, 1)


@pytest.mark.parametrize("n", [0, -1])
def test_level_below_one_is_refused_before_any_structure(n):
    S3 = groups.builtin("symmetric", 3)
    with pytest.raises(UnsupportedParameter, match="at least 1"):
        isoclinism.find_isoclinism(S3, S3, n)
    assert S3.structure == {}


def test_tuple_bound():
    # S4 has trivial center: 24^4 tuples at n = 3 pass, 24^5 at n = 4 do not
    S4 = groups.builtin("symmetric", 4)
    assert 24 ** 4 <= isoclinism.TUPLE_BOUND < 24 ** 5
    with pytest.raises(SearchBoundExceeded,
                       match=f"7962624 tuples .* exceed {2**20}"):
        isoclinism.find_isoclinism(S4, S4, 4)


def test_tampered_witness_rejected():
    D8 = groups.builtin("dihedral", 8)
    Q8 = groups.builtin("quaternion", 8)
    w = isoclinism.find_isoclinism(D8, Q8, 1)
    gamma = groups.commutator_subgroup(D8)
    nontrivial = next(g for g in gamma.members if g)
    bad_psi = dict(w.psi)
    bad_psi[nontrivial] = 0
    bad = isoclinism.IsoclinismWitness(
        w.n, w.G, w.H, w.phi, bad_psi, w.quotient_G, w.quotient_H)
    with pytest.raises(WitnessInvalid):
        isoclinism.verify_witness(bad)


def test_level_2_isoclinism():
    D16 = groups.builtin("dihedral", 16)
    w = isoclinism.find_isoclinism(
        groups.direct_product(D16, groups.builtin("cyclic", 3)), D16, 2)
    assert w is not None
    report = isoclinism.verify_scaling(w)
    assert report["factor"] == Fraction(27)


def test_witness_with_another_quotient_rejected():
    D8 = groups.builtin("dihedral", 8)
    Q8 = groups.builtin("quaternion", 8)
    w = isoclinism.find_isoclinism(D8, Q8, 1)
    C4 = groups.builtin("cyclic", 4)  # D8 / Z(D8) is the Klein group
    assert C4.order == w.quotient_G.order
    bad = isoclinism.IsoclinismWitness(
        w.n, w.G, w.H, w.phi, w.psi, C4, w.quotient_H)
    with pytest.raises(WitnessInvalid, match="quotients do not match"):
        isoclinism.verify_witness(bad)
