"""Each group's structure is computed once, on the group object, and shared."""
from collections import Counter

from wordcount import chartab, counting, groups, words
from wordcount.cli import main

# (module, name) of every function memoized on the group object
STRUCTURE = [(groups, "conjugacy_classes"), (groups, "center"),
             (groups, "commutator_subgroup"),
             (groups, "upper_central_series"),
             (groups, "lower_central_series"), (groups, "nilpotency_class"),
             (groups, "normal_subgroups"), (chartab, "character_table")]


def test_structure_is_shared():
    G = groups.builtin("agl1", 5)
    assert G.generating_set() is G.generating_set()
    assert groups.conjugacy_classes(G) is groups.conjugacy_classes(G)
    assert chartab.character_table(G) is chartab.character_table(G)
    for fn in (groups.upper_central_series, groups.lower_central_series,
               groups.normal_subgroups):
        assert isinstance(fn(G), tuple)


def test_structure_stays_out_of_equality():
    G, H = groups.builtin("symmetric", 3), groups.builtin("symmetric", 3)
    zeta_G = counting.zeta_brute(G, words.wn(2))
    assert G.structure and not H.structure
    assert G == H and hash(G) == hash(H)
    zeta_H = counting.zeta_brute(H, words.wn(2))
    assert zeta_G.classes is not zeta_H.classes
    assert zeta_G == zeta_H and hash(zeta_G) == hash(zeta_H)


def test_info_computes_each_structure_once(monkeypatch, capsys):
    calls = Counter()
    for module, name in STRUCTURE:
        body = getattr(module, name).__wrapped__

        def counted(G, body=body, name=name):
            calls[name] += 1
            return body(G)

        monkeypatch.setattr(module, name, groups.structure_memo(counted))
    assert main(["info", "--group", "builtin:agl1(5)"]) == 0
    assert "camina_group" in capsys.readouterr().out
    # no command lists the normal subgroups
    assert calls["normal_subgroups"] == 0
    assert calls == Counter({name: 1 for _, name in STRUCTURE
                             if name != "normal_subgroups"})
