"""The names and keywords that perfbench/ calls must stay in the package,
so that a refactor which drops one fails here rather than in a traced
benchmark run (`perfbench/run.py --trace 1`)."""
import importlib
import importlib.util
import sys
from pathlib import Path

from wordcount import (chartab, cli, counting, cyclotomic, formulas, groups,
                       words)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spans():
    # spans.py imports only the standard library
    return _load("perfbench_spans", PERFBENCH / "spans.py")


def _child():
    # child.py imports spans.py by name from its own directory
    sys.path.insert(0, str(PERFBENCH))
    try:
        return _load("perfbench_child", PERFBENCH / "child.py")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_span_layers_name_existing_functions():
    for layer, (modname, names) in _spans().SPAN_LAYERS.items():
        module = importlib.import_module(f"wordcount.{modname}")
        missing = [n for n in names if not callable(getattr(module, n, None))]
        assert not missing, f"{layer}: {missing}"


def test_zeta_brute_accepts_classes():
    S3 = groups.builtin("symmetric", 3)
    classes = groups.conjugacy_classes(S3)
    zeta = counting.zeta_brute(S3, words.wn(2), classes=classes)
    assert zeta.classes is classes and zeta.values == (18, 9, 0)


def test_counted_methods_exist_on_cyclotomic():
    for key, methods in _spans().COUNTED.items():
        missing = [m for m in methods
                   if not callable(getattr(cyclotomic.Cyclotomic, m, None))]
        assert not missing, f"{key}: {missing}"


def test_session_calls_take_the_table_positionally():
    # perfbench/child.py: classify(G, table), closed_form_zeta(G, table, n)
    Q8 = groups.builtin("quaternion", 8)
    table = chartab.character_table(Q8)
    assert formulas.classify(Q8, table).is_vz
    assert cli.closed_form_zeta(Q8, table, 3).values == (512, 0, 0, 0, 0)


def test_session_zeta_calls_are_positional():
    # perfbench/child.py: zeta_wn_char(G, table, n),
    # zeta_mixed_theorem21(G, H, w1, w2, table), inner_product(table, zeta, r)
    S3 = groups.builtin("symmetric", 3)
    table = chartab.character_table(S3)
    zeta = formulas.zeta_wn_char(S3, table, 2)
    assert zeta.values == (18, 9, 0)
    x1 = words.parse("x1")
    assert formulas.zeta_mixed_theorem21(
        S3, groups.commutator_subgroup(S3), x1, x1, table) == \
        [12, 0, 0, 3, 3, 0]
    # <zeta^{w_2}, chi> = |G| / chi(1)
    assert [chartab.inner_product(table, zeta, r)
            for r in range(table.num_characters)] == [6, 6, 3]


def test_session_reads_these_table_fields():
    # perfbench/child.py `_table` and the `inner2` question
    S3 = groups.builtin("symmetric", 3)
    table = chartab.character_table(S3)
    assert table.exponent == 6 and table.num_characters == 3
    assert (table.classes.reps, table.classes.sizes) == ((0, 3, 1), (1, 2, 3))
    assert table.values[2][1].coeffs == (0, 0, 1, 0, 1, 0)
    assert _child()._table(table) == {
        "e": 6,
        "classes": [[0, 1], [3, 2], [1, 3]],
        "rows": [[[1, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0]],
                 [[1, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0]],
                 [[2, 0, 0, 0, 0, 0], [0, 0, 1, 0, 1, 0],
                  [1, 0, 0, 1, 0, 0]]]}


def test_session_reads_these_class_function_fields():
    # perfbench/child.py `_class_values`
    S3 = groups.builtin("symmetric", 3)
    zeta = formulas.zeta_wn_char(S3, chartab.character_table(S3), 2)
    assert (zeta.classes.reps, zeta.values) == ((0, 3, 1), (18, 9, 0))
    assert _child()._class_values(zeta) == {"0": 18, "3": 9, "1": 0}


def test_session_reads_these_report_fields():
    # perfbench/child.py `_report`, and `is_abelian` to ask `mixed`
    Q8 = groups.builtin("quaternion", 8)
    report = formulas.classify(Q8, chartab.character_table(Q8))
    assert (report.is_abelian, report.nilpotency_class,
            report.is_camina_group, report.is_vz, report.cd,
            report.unique_nonlinear) == (False, 2, True, True, {1, 2}, True)
    assert _child()._report(report) == {
        "is_abelian": False, "nilpotency_class": 2, "is_camina_group": True,
        "is_vz": True, "cd": [1, 2], "unique_nonlinear": True}
