from fractions import Fraction

import pytest

from wordcount import groups, isoclinism
from wordcount.cli import main
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


def d8_squared_pair():
    """D8 x D8 as permutations of 8 points, and the builtin product: the
    first isomorphism of their central quotients that the search tries
    sends two equal commutators of coset representatives to different
    ones."""
    G = groups.from_permutation_generators(8, [
        (1, 2, 3, 0, 4, 5, 6, 7), (0, 1, 2, 3, 5, 6, 7, 4),
        (0, 3, 2, 1, 4, 5, 6, 7), (0, 1, 2, 3, 4, 7, 6, 5)])
    H = groups.parse_builtin_spec("direct_product(dihedral(8),dihedral(8))")
    return G, H


def test_search_skips_isomorphisms_that_do_not_carry_commutators(
        monkeypatch):
    G, H = d8_squared_pair()
    isomorphisms = isoclinism._isomorphisms
    tried = []

    def recorded(A, B):
        for phi in isomorphisms(A, B):
            tried.append(phi)
            yield phi

    monkeypatch.setattr(isoclinism, "_isomorphisms", recorded)
    w = isoclinism.find_isoclinism(G, H, 1)
    assert w is not None and len(tried) > 1 and w.phi == tried[-1]
    QG, tableG = isoclinism._commutator_table(G, 1)
    QH, tableH = isoclinism._commutator_table(H, 1)
    m, phi = QG.order, tried[0]
    pairs = {(tableG[a * m + b], tableH[phi[a] * m + phi[b]])
             for a in range(m) for b in range(m)}
    assert len(pairs) > len({g for g, _ in pairs})  # no map g -> h
    isoclinism.verify_witness(w)
    assert isoclinism.verify_scaling(w)["factor"] == 1
    monkeypatch.undo()
    assert isoclinism.search_isoclinism(G, H, 1) == (w, len(tried))


def test_search_counts_no_isomorphism_for_unequal_invariants():
    Q8 = groups.builtin("quaternion", 8)
    C8 = groups.builtin("cyclic", 8)
    assert isoclinism.search_isoclinism(Q8, C8, 1) == (None, 0)


def test_commutator_table_reads_least_coset_representatives():
    G, _ = d8_squared_pair()
    for n in (1, 2):
        Q, proj = groups.quotient(G, groups.zn(G, n))
        reps = [min(g for g in range(G.order) if proj[g] == q)
                for q in range(Q.order)]
        expected = reps
        for _ in range(n):
            expected = [G.commutator(a, r) for a in expected for r in reps]
        assert isoclinism._commutator_table(G, n) == (Q, expected)


def test_search_builds_each_commutator_table_once(monkeypatch):
    """Trying the failing isomorphism five times costs no more commutators
    than trying it once."""
    isomorphisms = isoclinism._isomorphisms
    commutator = groups.GroupTable.commutator
    calls = []

    def counted(self, a, b):
        calls.append(1)
        return commutator(self, a, b)

    def commutators_with_first_repeated(k):
        def repeated(A, B):
            phis = isomorphisms(A, B)
            first = next(phis)
            yield from [first] * k
            yield from phis

        G, H = d8_squared_pair()  # fresh groups: no memoized structure
        monkeypatch.setattr(isoclinism, "_isomorphisms", repeated)
        calls.clear()
        w = isoclinism.find_isoclinism(G, H, 1)
        assert w is not None and w.phi != next(isomorphisms(
            w.quotient_G, w.quotient_H))
        return len(calls)

    monkeypatch.setattr(groups.GroupTable, "commutator", counted)
    assert commutators_with_first_repeated(1) == \
        commutators_with_first_repeated(5)


def test_isoclinic_builds_one_quotient_per_group(monkeypatch, capsys):
    # the search, the witness check and the scaling check share each
    # group's commutator table, and with it G/Z(G); level 1 reads Z(G) and
    # G' without either central series
    quotient = groups.quotient
    built = []

    def counted(G, N):
        built.append(G)
        return quotient(G, N)

    def refuse(G):
        raise AssertionError("computed a central series for level 1")

    monkeypatch.setattr(groups, "quotient", counted)
    for series in ("upper_central_series", "lower_central_series"):
        monkeypatch.setattr(groups, series, refuse)
    assert main(["isoclinic", "--group", "builtin:dihedral(8)", "--other",
                 "builtin:quaternion(8)", "--n", "1"]) == 0
    assert capsys.readouterr().out.startswith("isoclinic at level 1\n")
    assert len(built) == 2 and built[0] != built[1]


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
