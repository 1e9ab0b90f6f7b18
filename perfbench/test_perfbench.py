"""Self-tests of the benchmark: the reference against hand anchors and the
package's brute force, the table check against a corrupted table, the span
self-time arithmetic and the speed scaling.  Run from the repository root:

    python3 -m pytest perfbench
"""
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from wordcount import chartab, counting, groups, words  # noqa: E402


def ref_of(spec):
    G = groups.parse_builtin_spec(spec)
    return G, oracle.Reference(G.mul)


def test_hand_anchors():
    assert ref_of("symmetric(3)")[1].zeta_wn(3) == [162, 27, 0]
    for spec in ("quaternion(8)", "dihedral(8)"):
        assert ref_of(spec)[1].zeta_wn(2) == [40, 24, 0, 0, 0]
    assert oracle.isoclinism_factor(8, 8, 1) == 1
    assert oracle.isoclinism_factor(16, 8, 1) == 4
    # the scaling law behind the factor 4, on G' = {1, z} of both groups
    _, big = ref_of("direct_product(quaternion(8),cyclic(2))")
    _, small = ref_of("quaternion(8)")
    zb, zs = big.zeta_wn(2), small.zeta_wn(2)
    (db,), (ds,) = big.derived() - {0}, small.derived() - {0}
    assert (zb[0], zb[big.class_of[db]]) == (160, 96)
    assert (zb[0], zb[big.class_of[db]]) == \
        (4 * zs[0], 4 * zs[small.class_of[ds]])


def test_structure_anchors():
    # (classes, |Z|, |G'|) from the families' known structure
    want = {"dihedral(200)": (53, 2, 50), "agl1(13)": (13, 1, 13),
            "heisenberg(5)": (29, 5, 5), "symmetric(4)": (5, 1, 12),
            "quaternion(8)": (5, 2, 2), "cyclic(12)": (12, 12, 1)}
    for spec, (k, z, d) in want.items():
        _, ref = ref_of(spec)
        assert (ref.k, len(ref.center()), len(ref.derived())) == (k, z, d)
    _, s4 = ref_of("symmetric(4)")
    assert s4.lower_central_series() == [24, 12]
    assert s4.upper_central_series() == [1]
    _, q8 = ref_of("quaternion(8)")
    assert q8.nilpotency_class() == 2 and q8.is_camina_group() and q8.is_vz()


def test_recursion_matches_brute_force():
    for spec, n in (("symmetric(3)", 4), ("dihedral(8)", 3), ("agl1(4)", 3)):
        G, ref = ref_of(spec)
        brute = counting.zeta_brute(G, words.wn(n))
        got = {ref.class_of[rep]: v
               for rep, v in zip(brute.classes.reps, brute.values)}
        assert got == dict(enumerate(ref.zeta_wn(n)))
        per_element = ref.word_counts(oracle.wn_tree(n))
        assert per_element == [ref.zeta_wn(n)[ref.class_of[g]]
                               for g in range(ref.n)]


def test_block_words_match_brute_force():
    G, ref = ref_of("dihedral(12)")
    v, c, m, p = (lambda i: ("var", i)), (lambda a, b: ("comm", a, b)), \
        (lambda a, b: ("mul", a, b)), (lambda a, k: ("pow", a, k))
    cases = [(m(p(v(1), 2), c(v(2), p(v(3), -1))), {}),
             (c(c(v(1), v(2)), p(v(3), 3)), {1: "derived"}),
             (m(p(c(v(1), v(2)), 2), v(3)), {2: "center"})]
    named = {"derived": groups.commutator_subgroup(G),
             "center": groups.center(G)}
    for expr, domains in cases:
        word = words.parse(oracle.render(expr))
        spec = counting.DomainSpec(tuple(
            named.get(domains.get(i)) for i in range(1, word.arity + 1)))
        assert ref.word_counts(expr, domains) == \
            counting.zeta_element_counts(G, word, spec)


def test_table_check_catches_a_wrong_table():
    G, ref = ref_of("symmetric(4)")
    text = chartab.dump_table(chartab.character_table(G))
    e, classes, rows = oracle.parse_table_text(text)
    assert oracle.table_problems(ref, e, classes, rows) == []
    bad = [list(r) for r in rows]
    bad[-1][1], bad[-1][2] = bad[-1][2], bad[-1][1]
    assert oracle.table_problems(ref, e, classes, bad)


def test_self_times_on_a_synthetic_tree():
    # a [0,100] holds b [10,40] and d [50,60]; b holds c [15,25], which
    # holds e [17,22]
    rows = [("a", "L1", 0, 100, -1), ("b", "L2", 10, 40, 0),
            ("c", "L2", 15, 25, 1), ("e", "L1", 17, 22, 2),
            ("d", "L1", 50, 60, 0)]
    tree = [[n, lay, s, e, parent, "r", None] for n, lay, s, e, parent in rows]
    assert spans.self_times(tree) == [60, 20, 5, 5, 10]
    acc = spans.summarize(tree, {})
    assert acc["time"] == {"L1": 75, "L2": 25}
    # c and d sit directly inside their own layer; a and e enter L1 from
    # outside it, b enters L2
    assert acc["calls"] == {"L1": 2, "L2": 1}


def test_speed_factor_is_the_mean_over_the_request():
    s = speed.Sampler()
    ref = speed.REFERENCE_S
    s.samples = [(10.0, ref), (10.5, ref / 2), (11.0, 2 * ref), (20.0, ref)]
    # 10.5 and 11.0 fall in [10.4, 10.98] widened by MARGIN_S; 10.0 does not
    assert s.factor(10.4, 10.98) == (2 + 0.5) / 2
    # no sample from 15.0 to 15.1: the nearest one, at 11.0, counts
    assert s.factor(15.0, 15.1) == 0.5


def test_tail_percentile():
    value, pct = run.tail([float(i) for i in range(20, 0, -1)])
    assert (value, pct) == (10.0, 50.0)


def test_benchmark_json_lists_every_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == spans.LAYER_METRICS
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        run.END_TO_END
    assert tuple(w["name"] for w in bench["workloads"]) == workloads.NAMES
    assert set(spans.DRIVEN_ON) == {m for m, _, _ in spans.LAYER_METRICS}
