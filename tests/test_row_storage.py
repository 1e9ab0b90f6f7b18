"""How Cayley rows are stored, and that nothing depends on it.

A table of more than `groups.COMPACT_ROWS_ABOVE` elements keeps its rows
as 2-byte arrays, a smaller one as tuples.  Every reader only indexes
rows, and the two places that read a whole table, `GroupTable.__hash__`
and the cache file name, give the same answer either way.
"""

import hashlib
import sys
from array import array

import pytest

from wordcount import (chartab, counting, fileio, formulas, groups,
                       isoclinism, verification, words)
from wordcount.errors import PredicateFailed

# Isoclinic at n = 1, with scaling factors 1 and 4.
ISOCLINIC_PAIRS = [
    ("dihedral(8)", "quaternion(8)"),
    ("direct_product(quaternion(8),cyclic(2))", "quaternion(8)"),
]


def reference_key(G):
    """The cache name as the whole-table text it is defined by."""
    text = repr((G.order, tuple(map(tuple, G.mul))))
    return hashlib.sha256(text.encode()).hexdigest()


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


@pytest.mark.parametrize("spec", ["dihedral(1026)", "heisenberg(11)"])
def test_compact_table_is_the_tuple_table(spec, monkeypatch):
    G = groups.parse_builtin_spec(spec)
    monkeypatch.setattr(groups, "LOOSE_ROWS", 1)
    tight = groups.parse_builtin_spec(spec)
    monkeypatch.setattr(groups, "COMPACT_ROWS_ABOVE", groups.DEFAULT_ORDER_CAP)
    H = groups.parse_builtin_spec(spec)
    assert all(type(row) is tuple for row in H.mul)
    for K in (G, tight):
        assert all(type(row) is array for row in K.mul)
        assert tuple(map(tuple, K.mul)) == H.mul
        assert (K.inv, K.labels) == (H.inv, H.labels)


def test_hash_and_equality_do_not_depend_on_the_constructor():
    G = groups.builtin("dihedral", 1026)
    H = groups.from_cayley_table([list(row) for row in G.mul])
    assert G is not H and G == H and hash(G) == hash(H)
    assert G != groups.builtin("cyclic", 1026)


def test_cache_key_is_the_sha256_of_the_tuple_table_text():
    named = [groups.builtin("cyclic", 1), groups.builtin("dihedral", 200),
             groups.builtin("dihedral", 1026)]
    for G in named + [G for _, G in verification.catalog()]:
        assert fileio.cache_key(G) == reference_key(G), G


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
