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


def test_search_skips_isomorphisms_that_do_not_carry_commutators(
        monkeypatch):
    # D8 x D8 as permutations of 8 points, against the builtin product: the
    # first isomorphism of the central quotients tried sends two equal
    # commutators of coset representatives to different ones, so it is
    # refused before one that is compatible is found.
    G = groups.from_permutation_generators(8, [
        (1, 2, 3, 0, 4, 5, 6, 7), (0, 1, 2, 3, 5, 6, 7, 4),
        (0, 3, 2, 1, 4, 5, 6, 7), (0, 1, 2, 3, 4, 7, 6, 5)])
    H = groups.parse_builtin_spec("direct_product(dihedral(8),dihedral(8))")
    isomorphisms = isoclinism._isomorphisms
    tried = []

    def recorded(A, B):
        for phi in isomorphisms(A, B):
            tried.append(phi)
            yield phi

    monkeypatch.setattr(isoclinism, "_isomorphisms", recorded)
    w = isoclinism.find_isoclinism(G, H, 1)
    assert w is not None and len(tried) > 1 and w.phi == tried[-1]
    QG, projG = groups.quotient(G, groups.zn(G, 1))
    QH, projH = groups.quotient(H, groups.zn(H, 1))
    repsG = isoclinism._coset_reps(QG, projG, G.order)
    repsH = isoclinism._coset_reps(QH, projH, H.order)
    phi = tried[0]
    pairs = {(G.commutator(repsG[a], repsG[b]),
               H.commutator(repsH[phi[a]], repsH[phi[b]]))
             for a in range(QG.order) for b in range(QG.order)}
    assert len(pairs) > len({g for g, _ in pairs})  # no map g -> h
    isoclinism.verify_witness(w)
    assert isoclinism.verify_scaling(w)["factor"] == 1


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
