"""Groups above `groups.COMPACT_ROWS_ABOVE` elements keep their element law
and build the Cayley table on the first read of `mul`.

Every value a one-letter count reads without the table (products by the
generators, the rows the law keeps, power maps, classes, Z(G), transversals
and the counts themselves) must equal the value read off the built table
of the same group, and computing them must compose no table.
"""

import hashlib
import tracemalloc
from collections import Counter

import pytest

from wordcount import cli, counting, elementlaw, groups, words

LARGE = ["dihedral(1026)", "cyclic(1025)", "quaternion(2048)",
         "heisenberg(11)", "dihedral(2000)"]


@pytest.fixture
def composed(monkeypatch):
    """The sizes of the tables composed while the test runs."""
    sizes = []
    compose = groups._compose_rows

    def recording(rows, generator, composer):
        sizes.append(len(rows))
        return compose(rows, generator, composer)
    monkeypatch.setattr(groups, "_compose_rows", recording)
    return sizes


@pytest.fixture
def composers(monkeypatch):
    """The generator rows a composer is made for while the test runs."""
    rows = []
    make = elementlaw._composer

    def recording(row):
        rows.append(row)
        return make(row)
    monkeypatch.setattr(elementlaw, "_composer", recording)
    return rows


def built(spec):
    """A copy of the group whose table has been read."""
    T = groups.parse_builtin_spec(spec)
    assert T.mul and T.law is None
    return T


@pytest.mark.parametrize("spec", LARGE)
def test_values_without_the_table_are_the_tables(spec, composed):
    T = built(spec)
    del composed[:]
    G = groups.parse_builtin_spec(spec)
    n, mul = G.order, T.mul
    gens = groups._closure_indices(T, range(n))[1]
    assert G.generating_set() == tuple(gens)
    assert G.inv == T.inv
    for s in gens:
        assert groups.right_multiple(G, s) == tuple(mul[y][s]
                                                    for y in range(n))
    assert all(G.row(a) == mul[a] for a in G.law.rows)
    assert len(G.law.rows) == len({0, *gens, *(T.inv[s] for s in gens)})
    central = tuple(z for z in range(n)
                    if all(mul[z][s] == mul[s][z] for s in gens))
    assert counting.central_elements(G) == central
    assert groups.center(G).members == central
    for z in central[:4]:
        assert [G.product(z, y) for y in range(n)] == list(mul[z])
    for k in (-2, -1, 2, 3):
        powers = tuple(T.power(a, k) for a in range(n))
        assert tuple(counting._power_map(G, k)) == powers
        fibers = Counter(powers)
        assert counting.zeta_element_counts(G, words.parse(f"x1^{k}")) == \
            [fibers[g] for g in range(n)]
    covered, reps = set(), []
    for a in range(n):
        if a not in covered:
            reps.append(a)
            covered.update(mul[a][z] for z in central)
    assert list(counting._transversal(G, range(n), central)) == reps
    assert groups.conjugacy_classes(G) == groups.conjugacy_classes(T)
    assert composed == [] and G.law is not None


def test_first_read_of_mul_composes_the_table_once(composed):
    G = groups.builtin("quaternion", 2048)
    classes = groups.conjugacy_classes(G)
    assert composed == []
    rows = G.mul
    assert composed == [2048] and G.mul is rows and G.law is None
    assert groups.conjugacy_classes(G) is classes
    assert G.generating_set() == (1, 1024)


def test_a_law_composes_no_row_before_mul_is_read(composers):
    laws = [groups.parse_builtin_spec(spec)
            for spec in ("dihedral(2000)", "cyclic(1025)", "heisenberg(11)")]
    # a 2000-cycle on 5000 points: the closure hands the law its index
    cycle = [*range(1, 2000), 0, *range(2000, 5000)]
    laws.append(groups.from_permutation_generators(5000, [cycle]))
    assert composers == []
    for G in laws:
        gens = G.generating_set()
        assert composers == [] and len(G.mul) == G.order
        assert composers == [G.mul[s] for s in gens]
        del composers[:]
    C = groups.builtin("cyclic", 2000)  # c^a c^b = c^(a+b)
    assert (laws[-1].mul, laws[-1].inv) == (C.mul, C.inv)


def test_identity_and_hash_compose_no_table(composed):
    G, H = groups.builtin("dihedral", 2048), groups.builtin("dihedral", 2048)
    Q = groups.builtin("quaternion", 2048)
    # the same order and generators (1 and 1024), another row for 1024
    assert Q.generating_set() == G.generating_set()
    assert G == H and hash(G) == hash(H) and len({G, H}) == 1
    assert G != Q and G != groups.builtin("cyclic", 2048)
    assert composed == []
    T = built("dihedral(2048)")
    assert T == G and hash(T) == hash(G) and T != Q


# sha256 of what `count` printed for D2000 and x1^2 while every table was
# built up front: 504 lines, the header and one per class
D2000_SQUARES = ("05eab285df219d78803e8bb66402356c"
                 "63cfd8fcf21f6735d52537918ca8767d")


def test_one_letter_count_on_dihedral_2000_builds_no_table(capsys, composed):
    tracemalloc.start()
    try:
        code = cli.main(["count", "--group", "builtin:dihedral(2000)",
                         "--word", "x1^2"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out.splitlines()[:3] == ["class_rep\tsize\tcount",
                                    "r0\t1\t1002", "r500\t1\t2"]
    assert hashlib.sha256(out.encode()).hexdigest() == D2000_SQUARES
    assert composed == []
    # the 2,000 packed rows alone take 8 MB
    assert peak < 2 * 2**20


def test_center_domain_on_dihedral_2000_builds_no_table(monkeypatch, capsys,
                                                        composed):
    # Z(G) is read off the classes, which need no table
    loaded = []
    load = cli.load_group
    monkeypatch.setattr(cli, "load_group",
                        lambda spec: loaded.append(load(spec)) or loaded[-1])
    tracemalloc.start()
    try:
        code = cli.main(["count", "--group", "builtin:dihedral(2000)",
                         "--word", "x1^2", "--domain", "x1=center"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    # x1 runs over Z = {r0, r500}, and both square to r0
    lines = out.splitlines()
    assert lines[:3] == ["element\tcount", "r0\t2", "r1\t0"]
    assert len(lines) == 2001
    assert sum(int(line.split("\t")[1]) for line in lines[1:]) == 2
    assert isinstance(loaded[0], elementlaw.LawTable)
    assert composed == []
    assert peak < 2**20, peak


def test_a_direct_product_keeps_its_factors_laws(composed):
    A, B = groups.builtin("cyclic", 1025), groups.builtin("cyclic", 2)
    G = groups.direct_product(A, B)
    counts = counting.zeta_element_counts(G, words.parse("x1^2"))
    # (a, b)^2 = (2a, 0), and doubling is a bijection of C1025
    assert counts == [2 if b == 0 else 0
                      for a in range(1025) for b in range(2)]
    assert isinstance(A, elementlaw.LawTable)
    assert isinstance(G, elementlaw.LawTable)
    assert composed == [2]  # C2's, built with it
