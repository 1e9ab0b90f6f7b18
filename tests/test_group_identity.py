"""One rule for "same group": equal order and multiplication table.

A subgroup or class function over a separately built but equal table is
accepted everywhere; one over any other table raises MismatchedGroup.
"""
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from wordcount import chartab, counting, fileio, formulas, groups, words
from wordcount.chartab import ClassFunction
from wordcount.counting import DomainSpec
from wordcount.errors import MismatchedGroup

ROOT = Path(__file__).resolve().parent.parent
X = words.parse("x1")

# every function that takes a subgroup of G, called on (G, H)
TAKES_SUBGROUP = {
    "quotient": lambda G, H: groups.quotient(G, H),
    "is_camina_pair": lambda G, H: groups.is_camina_pair(G, H),
    "inner_product_on": lambda G, H: chartab.inner_product_on(
        chartab.character_table(G), H, 2, 2),
    "zeta_mixed_theorem21": lambda G, H: formulas.zeta_mixed_theorem21(
        G, H, X, X),
    "DomainSpec": lambda G, H: counting.zeta_element_counts(
        G, words.wn(2), DomainSpec((H, None))),
}


@pytest.mark.parametrize("name", sorted(TAKES_SUBGROUP))
def test_subgroup_of_an_equal_group_is_accepted(name):
    call = TAKES_SUBGROUP[name]
    S3 = groups.builtin("symmetric", 3)
    S3_again = groups.builtin("symmetric", 3)
    assert S3_again is not S3
    A3 = groups.commutator_subgroup(S3)
    A3_again = groups.commutator_subgroup(S3_again)
    assert A3_again == A3 and hash(A3_again) == hash(A3)
    assert call(S3, A3_again) == call(S3, A3)


@pytest.mark.parametrize("name", sorted(TAKES_SUBGROUP))
def test_subgroup_of_another_group_is_refused(name):
    S3 = groups.builtin("symmetric", 3)
    # S3 renumbered by swapping two transpositions: not an automorphism, so
    # another table, but A3 keeps its indices
    swap = (0, 2, 1, 3, 4, 5)
    other = groups.from_cayley_table(
        [[swap[S3.mul[swap[a]][swap[b]]] for b in range(6)]
         for a in range(6)])
    assert other != S3
    A3 = groups.commutator_subgroup(other)
    assert A3.members == groups.commutator_subgroup(S3).members
    with pytest.raises(MismatchedGroup,
                       match="subgroup belongs to a different group"):
        TAKES_SUBGROUP[name](S3, A3)


def test_class_function_of_another_group_is_refused():
    S3 = groups.builtin("symmetric", 3)
    C3 = groups.builtin("cyclic", 3)
    zeta = counting.zeta_brute(C3, words.wn(2))
    assert len(zeta.values) == groups.conjugacy_classes(S3).num_classes
    with pytest.raises(MismatchedGroup):
        chartab.inner_product(chartab.character_table(S3), zeta, 0)


def test_groups_that_differ_only_in_labels_are_one_group(tmp_path,
                                                         monkeypatch):
    G = groups.builtin("symmetric", 3)
    H = groups.GroupTable(G.order, G.mul, G.inv,
                          tuple(f"s{a}" for a in range(G.order)))
    assert H.labels != G.labels
    assert H == G and hash(H) == hash(G) and len({G, H}) == 1
    monkeypatch.setenv(fileio.CACHE_ENV, str(tmp_path))
    table = fileio.cached_character_table(G)

    def recompute(G):
        raise AssertionError("the cache file was not shared")

    monkeypatch.setattr(chartab, "character_table", recompute)
    assert fileio.cached_character_table(H).values == table.values
    assert len(list(tmp_path.glob("*.chartab"))) == 1


def test_different_tables_are_different_groups():
    S3, C6 = groups.builtin("symmetric", 3), groups.builtin("cyclic", 6)
    assert S3 != C6 and S3.order == C6.order
    assert S3 != groups.builtin("symmetric", 4)
    assert S3 != S3.mul and S3 != "symmetric(3)"


# pinned: the order and hash(G) as 64 hex bits; hash(G) hashes only ints
# and tuples, so the name is the same under every PYTHONHASHSEED
CACHE_NAMES = {"cyclic(3)": "3-40089ed819ed54b9",
               "quaternion(8)": "8-5b7efff1109a12b4"}


def test_cache_file_names_are_the_order_and_identity_hash(tmp_path,
                                                          monkeypatch):
    monkeypatch.setenv(fileio.CACHE_ENV, str(tmp_path))
    for spec in CACHE_NAMES:
        fileio.cached_character_table(groups.parse_builtin_spec(spec))
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        sorted(f"{name}.chartab" for name in CACHE_NAMES.values())


def test_one_cache_name_for_every_construction_of_a_group():
    G = groups.builtin("symmetric", 3)
    relabelled = groups.GroupTable(G.order, G.mul, G.inv,
                                   tuple(f"s{a}" for a in range(G.order)))
    names = {fileio.cache_key(H) for H in
             (G, groups.from_cayley_table(G.mul), relabelled)}
    assert names == {f"6-{hash(G) % 2**64:016x}"}
    assert fileio.cache_key(groups.builtin("cyclic", 6)) not in names


@pytest.mark.parametrize("seed", ["0", "1"])
def test_cache_names_do_not_depend_on_the_hash_seed(seed):
    code = ("from wordcount import fileio, groups\n"
            f"for spec in {sorted(CACHE_NAMES)!r}:\n"
            "    print(fileio.cache_key(groups.parse_builtin_spec(spec)))\n")
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == [CACHE_NAMES[s] for s in sorted(CACHE_NAMES)]


def test_groups_that_share_a_cache_name_each_get_their_table(tmp_path,
                                                             monkeypatch):
    # a name collision costs a recomputation, never a wrong table
    monkeypatch.setenv(fileio.CACHE_ENV, str(tmp_path))
    monkeypatch.setattr(fileio, "cache_key", lambda G: "shared")
    S3, C6 = groups.builtin("symmetric", 3), groups.builtin("cyclic", 6)
    for G in (S3, C6, S3):
        table = chartab.character_table(G)
        assert fileio.cached_character_table(G) == table
        # the file holds the last table asked for
        assert (tmp_path / "shared.chartab").read_text(encoding="utf-8") \
            == table.text
    assert [p.name for p in tmp_path.iterdir()] == ["shared.chartab"]


def test_class_function_prefix_is_not_equal():
    S3 = groups.builtin("symmetric", 3)
    classes = groups.conjugacy_classes(S3)
    full = ClassFunction(S3, classes, (18, 9, 0))
    assert full != ClassFunction(S3, classes, (18, 9))
    as_fractions = ClassFunction(S3, classes, tuple(map(Fraction, (18, 9, 0))))
    assert full == as_fractions and hash(full) == hash(as_fractions)
    again = groups.builtin("symmetric", 3)
    assert full == ClassFunction(again, groups.conjugacy_classes(again),
                                 (18, 9, 0))


def test_character_table_of_another_group_is_refused():
    # S3 and C6 have the same order, so total mass cannot tell them apart
    C6, S3 = groups.builtin("cyclic", 6), groups.builtin("symmetric", 3)
    table = chartab.character_table(S3)
    with pytest.raises(MismatchedGroup,
                       match="character table belongs to a different group"):
        formulas.zeta_wn_char(C6, table, 3)
    assert table.zeta_chain == []
    # nor may a wrong group read the chain the right one left on the table
    formulas.zeta_wn_char(S3, table, 3)
    for n in (2, 3):
        with pytest.raises(MismatchedGroup):
            formulas.zeta_wn_char(C6, table, n)
        with pytest.raises(MismatchedGroup):
            formulas.c_wn(C6, table, 2, n)
    assert formulas.zeta_wn_char(C6, chartab.character_table(C6), 3).values \
        == (216, 0, 0, 0, 0, 0)


def test_character_table_of_an_equal_group_is_accepted():
    S3 = groups.builtin("symmetric", 3)
    S3_again = groups.builtin("symmetric", 3)
    table = chartab.character_table(S3_again)
    assert formulas.zeta_wn_char(S3, table, 3).values == (162, 27, 0)
    assert formulas.c_wn(S3, table, table.linear_mask.index(False), 3) == 15
