"""How Cayley rows are stored, and that nothing depends on it.

A table of more than `groups.COMPACT_ROWS_ABOVE` elements keeps its rows
as 2-byte arrays, a smaller one as tuples.  Every reader only indexes
rows, and `hash(G)` and the cache file name, which read the generators'
rows, give the same answer either way.  A row composed from slices of
another row is the row gathered entry by entry, and a packed row holds
no spare capacity.
"""

import sys
from array import array
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordcount import (chartab, counting, elementlaw, fileio, formulas,
                       groups, isoclinism, verification, words)
from wordcount.errors import PredicateFailed

# Isoclinic at n = 1, with scaling factors 1 and 4.
ISOCLINIC_PAIRS = [
    ("dihedral(8)", "quaternion(8)"),
    ("direct_product(quaternion(8),cyclic(2))", "quaternion(8)"),
]


def test_rows_are_tuples_up_to_the_threshold_and_arrays_above():
    assert groups.COMPACT_ROWS_ABOVE == 1024
    small = groups.builtin("cyclic", 1024)
    assert all(type(row) is tuple for row in small.mul)
    large = groups.builtin("dihedral", 1026)
    assert all(type(row) is array and row.typecode == "H"
               and row.itemsize == 2 for row in large.mul)


def test_compact_rows_take_about_two_bytes_an_entry():
    G = groups.builtin("dihedral", 1026)
    n = G.order
    assert sum(sys.getsizeof(row) for row in G.mul) <= 2.1 * n * n + 128 * n


# for each group, which of its generator rows compose from slices; the
# others are gathered by `itemgetter` and packed
SLICED = {"dihedral(1026)": [True, True], "cyclic(1025)": [True],
          "quaternion(2048)": [True, True],
          "heisenberg(11)": [False, True, False]}


@pytest.mark.parametrize("spec", SLICED)
def test_compact_table_is_the_tuple_table(spec, monkeypatch):
    # tuple rows are always gathered, and test_builtins_match_references
    # checks the gather against one group-law call per entry
    composers, composed = [], []
    make = elementlaw._sliced

    def recording(row, most):
        compose = make(row, most)
        composers.append(compose is not None)
        if compose is None:
            return None

        def counted(r):
            composed.append(row)
            return compose(r)
        return counted
    monkeypatch.setattr(elementlaw, "_sliced", recording)
    G = groups.parse_builtin_spec(spec)
    assert composers == []  # the law composes no row: the table does
    G.mul
    assert composers == SLICED[spec] and composed
    monkeypatch.setattr(groups, "COMPACT_ROWS_ABOVE", groups.DEFAULT_ORDER_CAP)
    H = groups.parse_builtin_spec(spec)
    assert all(type(row) is array for row in G.mul)
    assert all(type(row) is tuple for row in H.mul)
    assert G.mul == tuple(array("H", row) for row in H.mul)
    assert (G.inv, G.labels) == (H.inv, H.labels)


@pytest.mark.parametrize("spec", ["dihedral(2000)", "cyclic(1025)",
                                  "heisenberg(11)"])
def test_packed_rows_hold_no_spare_capacity(spec):
    # rows from slices, from a gather and its pack, and both mixed
    G = groups.parse_builtin_spec(spec)
    exact = sys.getsizeof(array("H", [0]) * G.order)
    assert all(sys.getsizeof(row) == exact for row in G.mul)


def test_dihedral_rows_are_composed_from_slices(monkeypatch):
    # only row 0, the two generator rows and their inverses (the
    # reflection is its own) are packed, with the group: the table's 1,997
    # other rows are slices of packed rows
    packed = []
    packer = elementlaw._row_packer

    def counting_packer(n):
        pack = packer(n)
        return lambda row: packed.append(row) or pack(row)
    monkeypatch.setattr(elementlaw, "_row_packer", counting_packer)
    G = groups.builtin("dihedral", 2000)
    assert len(packed) == 5
    assert all(type(row) is array for row in G.mul)
    assert len(packed) == 5


@st.composite
def rows_of_runs(draw):
    """A permutation of range(n) made of arithmetic runs: the residues mod
    k, each cut into pieces, some reversed (so some runs fall to 0), and
    shuffled.  Returns (row, number of pieces)."""
    n = draw(st.integers(1, 200))
    k = draw(st.integers(1, min(n, 8)))
    pieces = []
    for r in range(k):
        residues = list(range(r, n, k))
        cuts = sorted(draw(st.sets(st.integers(1, len(residues) - 1),
                                   max_size=3))) if len(residues) > 1 else []
        for i, j in zip([0] + cuts, cuts + [len(residues)]):
            piece = residues[i:j]
            pieces.append(piece[::-1] if draw(st.booleans()) else piece)
    order = draw(st.permutations(range(len(pieces))))
    return tuple(x for i in order for x in pieces[i]), len(pieces)


def random_rows():
    return st.integers(1, 200).flatmap(
        lambda n: st.permutations(range(n)).map(lambda p: (tuple(p), n)))


@settings(max_examples=300, deadline=None)
@given(case=st.one_of(rows_of_runs(), random_rows()), data=st.data())
def test_sliced_composition_is_the_gather(case, data):
    row, pieces = case
    n = len(row)
    row = array("H", row)
    assert elementlaw._sliced(row, 0) is None
    compose = elementlaw._sliced(row, pieces)  # no more runs than pieces
    assert compose is not None
    # any row of distinct entries tells a wrong index from the right one,
    # so a seeded shuffle serves as well as a permutation drawn entry by
    # entry, at a fraction of the draws
    other = data.draw(st.randoms(use_true_random=True)).sample(range(n), n)
    got = compose(array("H", other))
    assert type(got) is array and got.typecode == "H"
    assert tuple(got) == tuple(other[i] for i in row)
    assert sys.getsizeof(got) == sys.getsizeof(array("H", [0]) * n)


def test_tuple_rows_are_gathered():
    # D512's generator rows are 2 and 4 runs, but its rows are tuples
    G = groups.builtin("dihedral", 512)
    assert all(type(groups._composer(G.mul[s])) is itemgetter
               for s in G.generating_set())


def test_hash_and_equality_do_not_depend_on_the_constructor():
    G = groups.builtin("dihedral", 1026)
    H = groups.from_cayley_table([list(row) for row in G.mul])
    assert G is not H and G == H and hash(G) == hash(H)
    assert G != groups.builtin("cyclic", 1026)


def test_cache_key_does_not_depend_on_row_storage(monkeypatch):
    compact = groups.builtin("dihedral", 1026)
    monkeypatch.setattr(groups, "COMPACT_ROWS_ABOVE", 2048)
    plain = groups.builtin("dihedral", 1026)
    assert fileio.cache_key(plain) == fileio.cache_key(compact)
    assert type(plain.mul[1]) is tuple and type(compact.mul[1]) is array


def test_cache_key_keeps_the_element_law():
    G = groups.parse_builtin_spec("dihedral(2000)")
    fileio.cache_key(G)
    assert type(G) is elementlaw.LawTable and G.law is not None


def answers(G):
    """Everything the equivalence test compares, as plain values."""
    table = chartab.character_table(G)
    out = {
        "classes": groups.conjugacy_classes(G),
        "rational": groups.rational_classes(G),
        "center": groups.center(G).members,
        "derived": groups.commutator_subgroup(G).members,
        "upper": [H.members for H in groups.upper_central_series(G)],
        "lower": [H.members for H in groups.lower_central_series(G)],
        "values": [[v.reduced() for v in row] for row in table.values],
        "degrees": table.degrees,
        "key": fileio.cache_key(G),
    }
    for n in (2, 3, 4):
        out[f"brute{n}"] = counting.zeta_brute(G, words.wn(n)).values
        out[f"char{n}"] = formulas.zeta_wn_char(G, table, n).values
        try:
            out[f"closed{n}"] = formulas.closed_form_zeta(G, n).values
        except PredicateFailed as exc:
            out[f"closed{n}"] = str(exc)
    return out


def scaling(spec, other):
    G = groups.parse_builtin_spec(spec)
    H = groups.parse_builtin_spec(other)
    return isoclinism.verify_scaling(isoclinism.find_isoclinism(G, H, 1))


def test_array_rows_give_the_same_answers_on_the_catalog(monkeypatch):
    plain = verification.catalog()
    expected = [answers(G) for _, G in plain]
    expected_scaling = [scaling(*pair) for pair in ISOCLINIC_PAIRS]
    monkeypatch.setattr(groups, "COMPACT_ROWS_ABOVE", 0)
    compact = verification.catalog.__wrapped__()
    assert [spec for spec, _ in compact] == [spec for spec, _ in plain]
    for (spec, G), want in zip(compact, expected):
        assert all(type(row) is array for row in G.mul), spec
        assert answers(G) == want, spec
    assert [scaling(*pair) for pair in ISOCLINIC_PAIRS] == expected_scaling
