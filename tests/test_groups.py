import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordcount import elementlaw, groups, verification
from wordcount.cli import main
from wordcount.errors import (BadSubgroup, NotAGroup, NotNormal,
                              OrderLimitExceeded, UnknownFamily,
                              UnsupportedParameter)


def test_cyclic_basics():
    G = groups.builtin("cyclic", 6)
    assert G.order == 6
    assert G.mul[2][5] == 1
    assert G.inv[2] == 4
    assert G.element_order(2) == 3
    assert G.exponent() == 6


def test_symmetric_group():
    S3 = groups.builtin("symmetric", 3)
    assert S3.order == 6
    orders = sorted(S3.element_order(g) for g in range(6))
    assert orders == [1, 2, 2, 2, 3, 3]
    assert groups.center(S3).order == 1
    assert groups.commutator_subgroup(S3).order == 3


def test_dihedral_and_quaternion():
    D8 = groups.builtin("dihedral", 8)
    Q8 = groups.builtin("quaternion", 8)
    assert D8.order == Q8.order == 8
    assert groups.center(D8).order == groups.center(Q8).order == 2
    # D8 has five involutions, Q8 exactly one
    assert sum(D8.element_order(g) == 2 for g in range(8)) == 5
    assert sum(Q8.element_order(g) == 2 for g in range(8)) == 1


def test_builtin_parameter_validation():
    with pytest.raises(UnsupportedParameter):
        groups.builtin("dihedral", 7)
    with pytest.raises(UnsupportedParameter):
        groups.builtin("quaternion", 12)
    with pytest.raises(UnknownFamily):
        groups.builtin("sporadic", 1)
    with pytest.raises(UnsupportedParameter):
        groups.builtin("agl1", 6)


def test_readme_names_every_builtin_family():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("Groups come from `builtin:NAME(args)` specs",
                           1)[1].split("A group also comes from", 1)[0]
    named = re.findall(r"^- `([a-z0-9_]+)\(", section, re.M)
    assert named == list(dict.fromkeys(named))
    assert sorted(named) == sorted([*groups._FAMILIES, "direct_product"])


def test_parse_builtin_spec():
    G = groups.parse_builtin_spec("direct_product(quaternion(8),cyclic(2))")
    assert G.order == 16
    assert groups.parse_builtin_spec("symmetric(4)").order == 24


def test_from_cayley_table_relabels_identity():
    C2 = groups.builtin("cyclic", 2)
    # swap the roles of 0 and 1 so the identity sits at index 1
    table = [[1, 0], [0, 1]]
    G = groups.from_cayley_table(table)
    assert G.mul[0][0] == 0
    assert G.order == 2


def test_from_cayley_table_rejects_non_group():
    with pytest.raises(NotAGroup):
        groups.from_cayley_table([[0, 1], [1, 1]])  # not a Latin square
    with pytest.raises(NotAGroup):
        # Latin square with identity but not associative (order 5 quasigroup)
        groups.from_cayley_table([
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ])


def test_permutation_generators():
    S3 = groups.from_permutation_generators(3, [[1, 0, 2], [1, 2, 0]])
    assert S3.order == 6
    # S8, of order 40320, passes DEFAULT_ORDER_CAP = 20480
    swap = [1, 0] + list(range(2, 8))
    cycle = list(range(1, 8)) + [0]
    with pytest.raises(OrderLimitExceeded,
                       match="closure exceeds order cap 20480"):
        groups.from_permutation_generators(8, [swap, cycle])


@pytest.mark.parametrize("degree, gens, elements", [
    (0, [()], [()]), (1, [(0,)], [(0,)]), (2, [(0, 1)], [(0, 1)]),
    (2, [(1, 0)], [(0, 1), (1, 0)]), (2, [(1, 0), (1, 0)], [(0, 1), (1, 0)]),
])
def test_permutation_groups_of_degree_below_3(degree, gens, elements):
    # the closure gathers p * g with `itemgetter(*g)`, which returns no
    # tuple for one index
    G = groups.from_permutation_generators(degree, gens)
    assert tuple(G.labels) == tuple(map(str, elements))
    assert G.mul == (((0,),) if len(elements) == 1 else ((0, 1), (1, 0)))


def test_permutation_closure_entry_bound(monkeypatch):
    # S4 on 4 points holds 24 x 4 = 96 entries; the bound is inclusive
    swap, cycle = [1, 0, 2, 3], [1, 2, 3, 0]
    monkeypatch.setattr(groups, "MAX_PERM_ENTRIES", 96)
    assert groups.from_permutation_generators(4, [swap, cycle]).order == 24
    monkeypatch.setattr(groups, "MAX_PERM_ENTRIES", 95)
    with pytest.raises(OrderLimitExceeded, match="closure of at least 24 "
                       "elements x degree 4 exceeds 95 permutation entries"):
        groups.from_permutation_generators(4, [swap, cycle])
    # a generator whose order alone passes the bound is refused unsearched
    monkeypatch.setattr(groups, "MAX_PERM_ENTRIES", 15)
    with pytest.raises(OrderLimitExceeded, match="closure of at least 4 "
                       "elements x degree 4 exceeds 15"):
        groups.from_permutation_generators(4, [swap, cycle])


def test_conjugacy_classes_ordering():
    S3 = groups.builtin("symmetric", 3)
    classes = groups.conjugacy_classes(S3)
    assert classes.reps[0] == 0
    assert classes.sizes == (1, 2, 3)  # identity, 3-cycles, transpositions
    assert classes.num_classes == 3
    # inverse classes are tracked
    for m in range(classes.num_classes):
        rep = classes.reps[m]
        assert classes.class_of[S3.inv[rep]] == classes.inverse_class[m]


def _assert_members_partition_class_of(G):
    classes = groups.conjugacy_classes(G)
    by_class = [[] for _ in classes.reps]
    for g, c in enumerate(classes.class_of):
        by_class[c].append(g)
    assert classes.members == tuple(map(tuple, by_class))
    assert tuple(m[0] for m in classes.members) == classes.reps
    assert tuple(map(len, classes.members)) == classes.sizes


CATALOG = verification.catalog()
CATALOG_IDS = [spec for spec, _ in CATALOG]


@pytest.mark.parametrize("spec, G", CATALOG, ids=CATALOG_IDS)
def test_class_members_are_the_partition_class_of_describes(spec, G):
    _assert_members_partition_class_of(G)


def test_class_members_of_a_group_without_its_table():
    G = groups.builtin("dihedral", 2000)
    groups.conjugacy_classes(G)
    assert isinstance(G, elementlaw.LawTable) and G.law is not None
    _assert_members_partition_class_of(G)
    assert G.law is not None


def _fixpoint_normal_closure(G, seed):
    """The normal closure as a fixpoint: conjugates of the generators by
    G's generating set join the generators until none is new."""
    mul, inv, gens_G = G.mul, G.inv, G.generating_set()
    members, gens = groups._closure_indices(G, seed)
    while True:
        new = [y for x in gens for s in gens_G
               if (y := mul[mul[inv[s]][x]][s]) not in members]
        if not new:
            return members
        members, gens = groups._closure_indices(G, gens + new)


@pytest.mark.parametrize("spec, G", CATALOG, ids=CATALOG_IDS)
def test_normal_closure_is_the_fixpoint(spec, G, monkeypatch):
    # commutator seeds: [a, b] for a in a generating set of each term of
    # the lower central series and b in G's, and one class representative
    # at a time
    gens_G = G.generating_set()
    seeds = [[G.commutator(a, b)
              for a in groups._closure_indices(G, A.members)[1]
              for b in gens_G]
             for A in groups.lower_central_series(G)]
    seeds += [[r] for r in groups.conjugacy_classes(G).reps]
    want = [_fixpoint_normal_closure(G, seed) for seed in seeds]
    closures = []
    closure = groups._closure_indices

    def counted(H, seed):
        closures.append(seed)
        return closure(H, seed)

    def refuse(*args):
        raise AssertionError("a normal closure conjugated an element")

    monkeypatch.setattr(groups, "_closure_indices", counted)
    monkeypatch.setattr(groups.GroupTable, "conjugate", refuse)
    for seed, members in zip(seeds, want):
        del closures[:]
        assert groups._normal_closure(G, seed) == members
        assert len(closures) == 1


def test_central_series_and_nilpotency():
    D8 = groups.builtin("dihedral", 8)
    assert groups.nilpotency_class(D8) == 2
    assert groups.nilpotency_class(groups.builtin("dihedral", 16)) == 3
    assert groups.nilpotency_class(groups.builtin("symmetric", 3)) is None
    assert groups.nilpotency_class(groups.builtin("cyclic", 12)) == 1
    assert groups.nilpotency_class(groups.builtin("cyclic", 1)) == 0


def test_series_levels_below_their_range_are_refused():
    D16, S4 = groups.builtin("dihedral", 16), groups.builtin("symmetric", 4)
    with pytest.raises(UnsupportedParameter, match="got i = 0"):
        groups.gamma(D16, 0)
    with pytest.raises(UnsupportedParameter, match="got n = -1"):
        groups.zn(D16, -1)
    with pytest.raises(UnsupportedParameter, match="got i = -3"):
        groups.gamma(S4, -3)
    for G in (D16, S4):
        assert groups.gamma(G, 1) == groups.whole_subgroup(G)
        assert groups.zn(G, 0) == groups.trivial_subgroup(G)


def test_info_scans_one_element_per_class_above_the_center(monkeypatch,
                                                           capsys):
    # Z(G) is the classes of size 1, so no centralizer scan finds Z_1, and
    # each scan for Z_{i+1} commutes one element per class with each
    # generator
    scans = {}
    tested = None
    centralizer = groups.centralizer_of_subgroup_mod
    commutator = groups.GroupTable.commutator

    def counted(G, lower):
        nonlocal tested
        tested = scans[lower.members] = []
        try:
            return centralizer(G, lower)
        finally:
            tested = None

    def recorded(G, a, b):
        if tested is not None:
            tested.append((a, b))
        return commutator(G, a, b)

    monkeypatch.setattr(groups, "centralizer_of_subgroup_mod", counted)
    monkeypatch.setattr(groups.GroupTable, "commutator", recorded)
    assert main(["info", "--group", "builtin:agl1(27)"]) == 0
    assert "upper_central_series [1]\n" in capsys.readouterr().out
    assert scans == {}
    assert main(["info", "--group", "builtin:heisenberg(3)"]) == 0
    assert "upper_central_series [1, 3, 27]\n" in capsys.readouterr().out
    G = groups.builtin("heisenberg", 3)
    z1 = groups.center(G).members
    assert set(scans) == {z1, tuple(range(27))}
    # Z_2 = G: every representative commutes with both generators mod Z_1
    reps, gens = groups.conjugacy_classes(G).reps, G.generating_set()
    assert len(reps) == 11
    assert scans[z1] == [(r, s) for r in reps for s in gens]


@pytest.mark.parametrize("spec", ["dihedral(16)", "symmetric(4)",
                                  "heisenberg(3)", "agl1(5)"])
def test_lower_series_closes_no_seed_of_the_whole_group(spec, monkeypatch):
    # gamma_2 is commutator_subgroup(G), and every [gamma_i, G] reads G's
    # side from the generating set, the one closure over all of G
    G = groups.parse_builtin_spec(spec)
    G.generating_set()
    closure = groups._closure_indices

    def partial(H, seed):
        seed = list(seed)
        assert len(seed) < H.order, "closed a seed of the whole group"
        return closure(H, seed)

    monkeypatch.setattr(groups, "_closure_indices", partial)
    assert groups.lower_central_series(G)[1] is \
        groups.commutator_subgroup(G)


def test_quotient():
    D8 = groups.builtin("dihedral", 8)
    Z = groups.center(D8)
    Q, proj = groups.quotient(D8, Z)
    assert Q.order == 4
    assert all(proj[D8.mul[a][b]] == Q.mul[proj[a]][proj[b]]
               for a in range(8) for b in range(8))
    # D8 / Z(D8) is the Klein four-group
    assert all(Q.mul[q][q] == 0 for q in range(4))
    with pytest.raises(NotNormal):
        groups.quotient(*_s3_and_a_transposition())


def _s3_and_a_transposition():
    """S3 and the subgroup of order 2 that one transposition generates,
    which is not normal."""
    S3 = groups.builtin("symmetric", 3)
    t = next(a for a in range(1, 6) if S3.mul[a][a] == 0)
    return S3, groups.subgroup_closure(S3, [t])


def test_camina_pair():
    Q8 = groups.builtin("quaternion", 8)
    assert groups.is_camina_pair(Q8, groups.center(Q8))
    S3 = groups.builtin("symmetric", 3)
    A3 = groups.commutator_subgroup(S3)
    assert groups.is_camina_pair(S3, A3)
    C6 = groups.builtin("cyclic", 6)
    C2 = groups.subgroup_closure(C6, [3])
    assert not groups.is_camina_pair(C6, C2)
    with pytest.raises(BadSubgroup, match="normal"):
        groups.is_camina_pair(*_s3_and_a_transposition())


def test_normal_subgroups():
    S3 = groups.builtin("symmetric", 3)
    orders = sorted(N.order for N in groups.normal_subgroups(S3))
    assert orders == [1, 3, 6]
    Q8 = groups.builtin("quaternion", 8)
    orders = sorted(N.order for N in groups.normal_subgroups(Q8))
    assert orders == [1, 2, 4, 4, 4, 8]


CLOSURE_GROUPS = [groups.builtin("symmetric", 4),
                  groups.builtin("agl1", 5),
                  groups.builtin("quaternion", 8),
                  groups.builtin("elementary_abelian", 2, 3)]


@settings(max_examples=50, deadline=None)
@given(data=st.data(), G=st.sampled_from(CLOSURE_GROUPS))
def test_subgroup_closure_axioms(data, G):
    seed = data.draw(st.lists(st.integers(0, G.order - 1), max_size=3))
    H = groups.subgroup_closure(G, seed)
    members = set(H.members)
    assert H.members == tuple(sorted(members))
    assert 0 in members and members >= set(seed)
    for a in members:
        assert G.inv[a] in members
        assert all(G.mul[a][b] in members for b in members)
    # Smallest: every member is a product of seed elements.
    products = {0}
    while True:
        grown = products | {G.mul[a][b] for a in products for b in seed}
        if grown == products:
            break
        products = grown
    assert products == members


@pytest.mark.parametrize("spec, count", [
    ("elementary_abelian(2,5)", 374),
    ("direct_product(symmetric(4),quaternion(8))", 31),
    ("agl1(27)", 5),
])
def test_normal_subgroup_counts(spec, count):
    G = groups.parse_builtin_spec(spec)
    normals = groups.normal_subgroups(G)
    assert len(normals) == count
    assert all(N.is_normal() for N in normals)


def test_heisenberg_and_extraspecial():
    H = groups.builtin("heisenberg", 3)
    assert H.order == 27
    assert groups.nilpotency_class(H) == 2
    assert H.exponent() == 3
    M = groups.builtin("extraspecial_minus", 3)
    assert M.order == 27
    assert M.exponent() == 9
    assert groups.builtin("extraspecial_plus", 2).order == 8


def test_field_moduli_are_irreducible():
    # multiplying by a nonzero element permutes the nonzero elements
    # exactly when the modulus is irreducible
    for q in range(2, 33):
        pk = groups._prime_power(q)
        if pk is None:
            continue
        F = groups._GF(*pk)
        units = list(range(1, q))
        for a in units:
            assert sorted(F.mul[a][1:]) == units, (q, a)


def test_agl1():
    A4 = groups.builtin("agl1", 4)
    assert A4.order == 12
    assert groups.center(A4).order == 1
    assert groups.commutator_subgroup(A4).order == 4
    F20 = groups.builtin("agl1", 5)
    assert F20.order == 20


def test_labels_are_formatted_when_read():
    formatted = []

    def label(x):
        formatted.append(x)
        return f"<{x}>"

    G = groups._table_from_elements(list(range(6)),
                                    lambda a, b: (a + b) % 6, label)
    assert formatted == []
    assert G.label(4) == "<4>" and formatted == [4]
    assert G.labels == tuple(f"<{x}>" for x in range(6))
    assert G.labels != ("<0>",) * 6 and len(G.labels) == 6
    assert G.labels.index("<2>") == 2
    S3 = groups.from_permutation_generators(3, [(1, 0, 2), (1, 2, 0)])
    assert S3.labels == ("(0, 1, 2)", "(1, 0, 2)", "(1, 2, 0)", "(0, 2, 1)",
                         "(2, 1, 0)", "(2, 0, 1)")
