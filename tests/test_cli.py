import argparse
import contextlib
import gc
import importlib.util
import io
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from wordcount import chartab, cli, fileio, formulas, groups, verification
from wordcount.cli import main
from wordcount.errors import (OrderLimitExceeded, ParseError, PredicateFailed,
                              UnsupportedParameter, read_ints)


ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_trivial_group(capsys):
    code, out, err = run(capsys, "info", "--group", "builtin:cyclic(1)")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "order 1", "classes 1", "exponent 1", "center 1", "derived 1",
        "class 0", "upper_central_series [1]", "lower_central_series [1]",
        "abelian True", "camina_group False", "vz_group False",
        "character_degrees [1]", "unique_nonlinear False"]


def test_zeta_all_methods_agree(capsys):
    code, out, _ = run(capsys, "zeta", "--group", "builtin:symmetric(3)",
                       "--n", "3", "--method", "all")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split("\t") == ["class_rep", "size", "brute", "char",
                                    "closed"]
    assert lines[1].split("\t")[2:] == ["162", "162", "162"]
    assert lines[2].split("\t")[2:] == ["27", "27", "27"]
    assert lines[3].split("\t")[2:] == ["0", "0", "0"]


def test_zeta_csv(capsys):
    code, out, _ = run(capsys, "zeta", "--group", "builtin:symmetric(3)",
                       "--n", "2", "--method", "brute", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1].endswith(",1,18,1,2")


def test_zeta_paths_that_disagree_exit_1_with_one_line(monkeypatch, capsys):
    exact = formulas.zeta_wn_char

    def off_by_one(G, table, n):
        zeta = exact(G, table, n)
        return groups.ClassFunction(zeta.group,
                                    tuple(v + 1 for v in zeta.values))

    monkeypatch.setattr(formulas, "zeta_wn_char", off_by_one)
    code, out, err = run(capsys, "zeta", "--group", "builtin:symmetric(3)",
                         "--n", "3", "--method", "all")
    assert (code, out, err) == (1, "", "methods disagree\n")


def test_count_csv(capsys):
    # a word of arity 1: the probabilities are over |G|^1 assignments
    code, out, err = run(capsys, "count", "--group", "builtin:symmetric(3)",
                         "--word", "x1^2", "--format", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "rep_label,class_size,count,probability_numerator,"
        "probability_denominator",
        "(0  1  2),1,4,2,3", "(1  2  0),2,1,1,6", "(0  2  1),3,0,0,1"]
    # [x1,x2] is w_2, so its export is zeta's
    code, out, _ = run(capsys, "count", "--group", "builtin:symmetric(3)",
                       "--word", "[x1,x2]", "--format", "csv")
    assert code == 0
    assert run(capsys, "zeta", "--group", "builtin:symmetric(3)", "--n", "2",
               "--method", "brute", "--format", "csv") == (0, out, "")



def test_zeta_all_csv_prints_the_first_column_only(capsys):
    code, out, err = run(capsys, "zeta", "--group", "builtin:dihedral(8)",
                         "--n", "3", "--method", "all", "--format", "csv")
    assert (code, err) == (0, "")
    assert out == (
        "rep_label,class_size,count,probability_numerator,"
        "probability_denominator\n"
        "r0,1,512,1,1\nr2,1,0,0,1\nr1,2,0,0,1\nr0s,2,0,0,1\nr1s,2,0,0,1\n")


def test_count_csv_of_a_three_variable_word(capsys):
    # probabilities over the 24^3 assignments
    code, out, err = run(capsys, "count", "--group", "builtin:symmetric(4)",
                         "--word", "[[x1,x2],x3]", "--format", "csv")
    assert (code, err) == (0, "")
    assert out == (
        "rep_label,class_size,count,probability_numerator,"
        "probability_denominator\n"
        "(0  1  2  3),1,5088,53,144\n(1  0  3  2),3,1760,55,432\n"
        "(0  1  3  2),6,0,0,1\n(1  2  3  0),6,0,0,1\n"
        "(0  2  3  1),8,432,1,32\n")

def test_zeta_brute_builds_no_character_table(monkeypatch, capsys):
    argv = ["zeta", "--group", "builtin:symmetric(4)", "--n", "3"]
    code, all_table, _ = run(capsys, *argv, "--method", "all")
    assert code == 0
    code, char_csv, _ = run(capsys, *argv, "--method", "char",
                            "--format", "csv")
    assert code == 0

    def refuse(G):
        raise AssertionError("built a character table for brute force")

    monkeypatch.setattr(chartab, "character_table", refuse)
    code, out, err = run(capsys, *argv, "--method", "brute")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["\t".join(line.split("\t")[:3])
                                for line in all_table.splitlines()]
    code, out, err = run(capsys, *argv, "--method", "brute", "--format", "csv")
    assert (code, out, err) == (0, char_csv, "")


@pytest.mark.parametrize("group", ["builtin:heisenberg(5)",
                                   "builtin:agl1(13)"])
def test_closed_zeta_builds_no_table_before_the_unique_nonlinear_form(
        group, monkeypatch, capsys):
    argv = ["zeta", "--group", group, "--n", "3", "--method", "closed"]
    code, expected, _ = run(capsys, *argv)
    assert code == 0

    def refuse(G):
        raise AssertionError("built a character table for a closed form")

    monkeypatch.setattr(chartab, "character_table", refuse)
    assert run(capsys, *argv) == (0, expected, "")


def test_closed_zeta_refuses_from_the_classes(monkeypatch, capsys):
    # D200 has 53 - 4 nonlinear characters, which the classes show
    def refuse(G):
        raise AssertionError("built a character table to refuse a form")

    monkeypatch.setattr(chartab, "character_table", refuse)
    code, out, err = run(capsys, "zeta", "--group", "builtin:dihedral(200)",
                         "--n", "3", "--method", "closed")
    assert (code, out) == (1, "")
    assert err == (
        "error: PredicateFailed: no closed form applies: GCP: (G, Z(G)) is "
        "not a GCP; unique-nonlinear: group has more than one nonlinear "
        "character; Camina class-3: not a Camina group of nilpotency class "
        "3; Camina/GCP tower: (G, Z(G)) is not a Camina pair\n")


def test_closed_zeta_says_when_there_is_no_nonlinear_character(capsys):
    code, out, err = run(capsys, "zeta", "--group", "builtin:cyclic(1)",
                         "--n", "3", "--method", "closed")
    assert (code, out) == (1, "")
    assert err == (
        "error: PredicateFailed: no closed form applies: GCP: (G, Z(G)) is "
        "not a GCP; unique-nonlinear: group has no nonlinear character; "
        "Camina class-3: not a Camina group of nilpotency class 3; "
        "Camina/GCP tower: (G, Z(G)) is not a Camina pair\n")


def test_closed_form_zeta_reads_no_table(monkeypatch):
    groups_by_spec = dict(verification.catalog())
    for spec in ("agl1(13)", "agl1(27)", "heisenberg(5)"):
        groups_by_spec[spec] = groups.parse_builtin_spec(spec)
    char = {spec: formulas.zeta_wn_char(G, chartab.character_table(G), 3)
            for spec, G in groups_by_spec.items()}
    monkeypatch.setattr(chartab, "character_table", None)
    answered = []
    for spec, G in groups_by_spec.items():
        try:
            zeta = cli.closed_form_zeta(G, None, 3)
        except PredicateFailed as exc:
            assert str(exc).startswith("no closed form applies: "), spec
            continue
        assert zeta == char[spec], spec
        answered.append(spec)
    assert {"symmetric(3)", "agl1(5)", "agl1(13)", "agl1(27)",
            "heisenberg(5)", "quaternion(8)"} <= set(answered)


@pytest.mark.parametrize("argv", [
    ["chartab"], ["info"], ["zeta", "--n", "3", "--method", "char"],
])
def test_table_past_the_class_bound_is_refused_up_front(
        argv, tmp_path, monkeypatch, capsys):
    def refuse(G, classes):
        raise AssertionError("started Dixon's method past the bound")

    monkeypatch.setenv(fileio.CACHE_ENV, str(tmp_path))
    monkeypatch.setattr(chartab, "MAX_TABLE_CLASSES", 7)
    monkeypatch.setattr(chartab, "_compute_table", refuse)
    code, out, err = run(capsys, argv[0], "--group", "builtin:dihedral(20)",
                         *argv[1:])
    assert (code, out) == (1, "")
    assert err == ("error: BudgetExceeded: 8 classes exceed the "
                   "character-table bound 7 (estimated 0 s)\n")
    assert list(tmp_path.iterdir()) == []


def test_info_past_the_class_bound_is_refused(monkeypatch, capsys):
    monkeypatch.setattr(chartab, "_compute_table", None)
    code, out, err = run(capsys, "info", "--group", "builtin:cyclic(513)")
    assert (code, out) == (1, "")
    assert err == ("error: BudgetExceeded: 513 classes exceed the "
                   "character-table bound 512 (estimated 37 s)\n")


def test_count_with_domain(capsys):
    code, out, _ = run(capsys, "count", "--group", "builtin:symmetric(3)",
                       "--word", "[x1,x2]", "--domain", "x1=derived")
    assert code == 0
    counts = [int(line.split("\t")[1]) for line in out.splitlines()[1:]]
    assert sorted(counts) == [0, 0, 0, 3, 3, 12]


def test_count_builds_only_named_domains(monkeypatch, capsys):
    def refuse(G):
        raise AssertionError("built a subgroup no --domain names")

    monkeypatch.setattr(groups, "commutator_subgroup", refuse)
    code, out, _ = run(capsys, "count", "--group", "builtin:symmetric(3)",
                       "--word", "[x1,x2]", "--domain", "x1=center")
    assert code == 0
    counts = [int(line.split("\t")[1]) for line in out.splitlines()[1:]]
    assert counts == [6, 0, 0, 0, 0, 0]
    monkeypatch.setattr(groups, "center", refuse)
    code, out, _ = run(capsys, "count", "--group", "builtin:symmetric(3)",
                       "--word", "[x1,x2]")
    assert code == 0
    assert [line.split("\t")[2] for line in out.splitlines()[1:]] == \
        ["18", "9", "0"]


def test_over_budget_zeta_is_refused_before_any_table(monkeypatch, capsys):
    def refuse(G):
        raise AssertionError("built classes or a table for a refused request")

    monkeypatch.setattr(chartab, "character_table", refuse)
    monkeypatch.setattr(groups, "conjugacy_classes", refuse)
    code, out, err = run(capsys, "zeta", "--group", "builtin:agl1(27)",
                         "--n", "3", "--method", "all")
    assert (code, out) == (1, "")
    assert err == ("error: BudgetExceeded: 345948408 assignments exceed "
                   "budget 67108864\n")
    monkeypatch.undo()
    # the budget bounds brute force only
    code, out, err = run(capsys, "zeta", "--group", "builtin:symmetric(3)",
                         "--n", "3", "--method", "char", "--budget", "1")
    assert (code, err) == (0, "")


def test_zeta_brute_runs_over_a_transversal_of_the_center(monkeypatch,
                                                          capsys):
    # heisenberg(5), w_4: 125^4 assignments, refused before; each variable
    # now runs over a transversal of Z(G), so 25^4 are counted.
    code, out, err = run(capsys, "zeta", "--group", "builtin:heisenberg(5)",
                         "--n", "4", "--method", "all")
    assert (code, err) == (0, "")
    rows = [line.split("\t") for line in out.splitlines()]
    assert rows[0] == ["class_rep", "size", "brute", "char", "closed"]
    assert len(rows) == 30 and all(row[2] == row[3] for row in rows[1:])
    # The budget counts the reduced assignments, 25^6 at n = 6, and still
    # refuses before any classes are built.
    def refuse(G):
        raise AssertionError("built classes for a refused request")

    monkeypatch.setattr(groups, "conjugacy_classes", refuse)
    code, out, err = run(capsys, "zeta", "--group", "builtin:heisenberg(5)",
                         "--n", "6", "--method", "brute")
    assert (code, out) == (1, "")
    assert err == ("error: BudgetExceeded: 244140625 assignments exceed "
                   "budget 67108864\n")


@pytest.mark.parametrize("budget", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ("count", "--group", "builtin:symmetric(3)", "--word", "[x1,x2]"),
    ("zeta", "--group", "builtin:symmetric(3)", "--n", "2"),
], ids=["count", "zeta"])
def test_budget_must_be_positive(capsys, argv, budget):
    code, out, err = run(capsys, *argv, "--budget", budget)
    assert (code, out) == (2, "")
    assert err == f"error: --budget must be positive, got {budget}\n"


def test_count_csv_with_domain_is_refused(capsys):
    code, out, err = run(capsys, "count", "--group", "builtin:symmetric(3)",
                         "--word", "[x1,x2]", "--domain", "x1=center",
                         "--format", "csv")
    assert (code, out) == (2, "")
    assert err == ("error: --format csv needs whole-group domains; with "
                   "--domain, count prints per-element counts\n")


def test_verify_closed_forms_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "closed-forms")
    assert code == 0
    assert "FAIL" not in out.replace("0 failed", "")
    assert "FLAGGED" in out
    assert "display=-18 recomputed=27" in out
    assert "display=1490944 class-function=1359872" in out


def test_unknown_suite_is_a_one_line_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--suite", "bogus")
    assert (code, out) == (2, "")
    assert err == ("error: unknown suite 'bogus'; valid suites: frobenius, "
                   "recursion, closed-forms, isoclinism, all\n")
    with pytest.raises(UnsupportedParameter, match="valid suites: frobenius"):
        verification.run_suite("bogus")


def test_isoclinic_command(capsys):
    code, out, _ = run(capsys, "isoclinic", "--group", "builtin:dihedral(8)",
                       "--other", "builtin:quaternion(8)", "--n", "1")
    assert code == 0
    assert "scaling_factor 1" in out
    code, out, _ = run(capsys, "isoclinic", "--group", "builtin:quaternion(8)",
                       "--other", "builtin:cyclic(8)", "--n", "1")
    assert code == 1
    assert "not isoclinic" in out


def test_isoclinic_refuses_bad_or_huge_level(capsys):
    code, out, err = run(capsys, "isoclinic", "--group", "builtin:symmetric(3)",
                         "--other", "builtin:symmetric(3)", "--n", "0")
    assert (code, out) == (2, "")
    assert err == "error: n must be at least 1, got 0\n"
    code, out, err = run(capsys, "isoclinic", "--group", "builtin:symmetric(4)",
                         "--other", "builtin:symmetric(4)", "--n", "4")
    assert (code, out) == (1, "")
    assert err == ("error: SearchBoundExceeded: 7962624 tuples of coset "
                   "representatives exceed 1048576\n")


def test_usage_errors(capsys):
    code, _, err = run(capsys, "zeta", "--group", "builtin:nosuch(3)",
                       "--n", "2")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "count", "--group", "builtin:symmetric(3)",
                       "--word", "x1^")
    assert code == 2
    code, _, err = run(capsys, "zeta", "--group", "symmetric(3)", "--n", "2")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nosuch"])
    assert exc.value.code == 2


@pytest.mark.parametrize("word", ["x1^-0", "[x1,x1]", "(x1)^0"])
def test_empty_word_is_a_usage_error(capsys, word):
    code, out, err = run(capsys, "count", "--group", "builtin:symmetric(3)",
                         "--word", word)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def _nested_spec(depth):
    """A builtin spec whose parentheses nest `depth` deep."""
    spec = "cyclic(1)"
    for _ in range(depth - 1):
        spec = f"direct_product({spec},cyclic(1))"
    return spec


def test_deep_nesting_is_a_one_line_usage_error(capsys):
    word = "(" * 500 + "x1" + ")" * 500
    code, out, err = run(capsys, "count", "--group", "builtin:cyclic(2)",
                         "--word", word)
    assert (code, out) == (2, "")
    assert err == "error: brackets nest more than 100 deep (at position 100)\n"
    spec = _nested_spec(1201)
    code, out, err = run(capsys, "info", "--group", f"builtin:{spec}")
    assert (code, out) == (2, "")
    assert err == (f"error: builtin spec nests parentheses more than 100 "
                   f"deep at position {101 * len('direct_product(') - 1}\n")


def test_nesting_up_to_the_bound_parses(capsys):
    word = "[x1," + "(" * 99 + "x2" + ")" * 99 + "]"
    code, out, _ = run(capsys, "count", "--group", "builtin:symmetric(3)",
                       "--word", word)
    assert (code, out) == run(capsys, "count", "--group",
                              "builtin:symmetric(3)", "--word", "[x1,x2]")[:2]
    assert code == 0
    code, out, _ = run(capsys, "info", "--group",
                       f"builtin:{_nested_spec(100)}")
    assert code == 0 and out.startswith("order 1\n")


def test_repeated_domain_is_a_usage_error(capsys):
    code, out, err = run(capsys, "count", "--group", "builtin:symmetric(3)",
                         "--word", "[x1,x2]", "--domain", "x1=derived",
                         "--domain", "x1=center")
    assert (code, out) == (2, "")
    assert err == "error: variable x1 has more than one --domain\n"


def test_group_file_roundtrip(tmp_path):
    S3 = groups.builtin("symmetric", 3)
    path = tmp_path / "s3.group"
    path.write_text(f"cayley {S3.order}\n" + "".join(
        " ".join(map(str, row)) + "\n" for row in S3.mul))
    G = fileio.import_group(path)
    assert G.mul == S3.mul


def test_perm_file(tmp_path):
    path = tmp_path / "s3perm.group"
    path.write_text("# symmetric group on 3 points\nperm 3 2\n1 0 2\n1 2 0\n")
    G = fileio.import_group(path)
    assert G.order == 6


def test_parse_errors_have_line_numbers(tmp_path):
    bad = tmp_path / "bad.group"
    bad.write_text("cayley 3\n0 1 2\n1 2 0\n")
    with pytest.raises(ParseError):
        fileio.import_group(bad)
    bad.write_text("cayley 2\n0 1\n1 x\n")
    with pytest.raises(ParseError) as err:
        fileio.import_group(bad)
    assert err.value.line == 3
    with pytest.raises(ParseError):
        fileio.parse_group("widget 3\n")


def test_oversize_cayley_header_is_refused_before_any_row(tmp_path, capsys):
    with pytest.raises(OrderLimitExceeded):
        fileio.parse_group("cayley 20481\n")
    path = tmp_path / "big.group"
    path.write_text("cayley 20481\n0 1\n")
    code, out, err = run(capsys, "info", "--group", f"file:{path}")
    assert (code, out) == (1, "")
    assert err == ("error: OrderLimitExceeded: "
                   "order 20481 exceeds order cap 20480\n")


def test_nul_byte_in_a_file_path_is_a_usage_error(capsys):
    code, out, err = run(capsys, "info", "--group", "file:a\0b")
    assert (code, out) == (2, "")
    assert err == "error: line 0: cannot read a\0b: embedded null byte\n"


def test_perm_file_past_the_entry_bound_is_refused_in_under_a_second(
        tmp_path, capsys):
    # one 20480-cycle: its closure would hold 20480 tuples of 20480 entries
    path = tmp_path / "cycle.group"
    path.write_text("perm 20480 1\n" + " ".join(
        map(str, [*range(1, 20480), 0])) + "\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "info", "--group", f"file:{path}")
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == ("error: OrderLimitExceeded: closure of at least 20480 "
                   "elements x degree 20480 exceeds 16777216 permutation "
                   "entries\n")


def test_non_utf8_group_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "latin1.group"
    path.write_bytes(b"# caf\xe9\ncayley 1\n0\n")
    code, out, err = run(capsys, "info", "--group", f"file:{path}")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: line 0: cannot read {path}: 'utf-8' codec")
    assert err.count("\n") == 1


def test_unwritable_cache_directory_is_one_line(tmp_path, monkeypatch, capsys):
    # the cache only saves time: the table is printed after one warning
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv(fileio.CACHE_ENV, str(blocker / "x"))
    code, out, err = run(capsys, "chartab", "--group", "builtin:symmetric(3)")
    assert (code, out) == (0, chartab.dump_table(chartab.character_table(
        groups.builtin("symmetric", 3))))
    assert err == (f"warning: table not cached: NotADirectoryError: "
                   f"[Errno 20] Not a directory: '{blocker / 'x'}'\n")


def _process_env():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)  # buffered stdout is flushed at exit
    return env


def test_process_exit_runs_atexit_handlers_on_a_frozen_heap(tmp_path):
    # `run` freezes the heap and returns, so shutdown still runs atexit
    # handlers (os._exit would skip them) but not full collections
    code = ("import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
            "sys.argv = ['wordcount', 'zeta', '--group', "
            "'builtin:symmetric(3)', '--n', '2']\n"
            "runpy.run_module('wordcount.cli', run_name='__main__')\n")
    done = subprocess.run([sys.executable, "-c", code], env=_process_env(),
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[-1] == "frozen True"


def _process(tmp_path, argv):
    """(exit code, stdout, stderr) of `python -m wordcount.cli argv`, its
    buffered stdout redirected to a file."""
    path = tmp_path / "stdout"
    with path.open("w") as out:
        done = subprocess.run([sys.executable, "-m", "wordcount.cli", *argv],
                              stdout=out, stderr=subprocess.PIPE,
                              env=_process_env(), cwd=tmp_path, text=True,
                              timeout=60)
    return done.returncode, path.read_text(), done.stderr


@pytest.mark.parametrize("argv, code", [
    (["zeta", "--group", "builtin:symmetric(3)", "--n", "3",
      "--method", "all"], 0),
    (["count", "--group", "builtin:symmetric(3)", "--word", "[x1,x2]",
      "--format", "csv"], 0),
    (["zeta", "--group", "builtin:symmetric(3)", "--n", "2",
      "--method", "brute", "--budget", "1"], 1),
    (["info", "--group", "builtin:nonesuch(3)"], 2),
    (["zeta", "--group", "builtin:symmetric(3)"], 2),
], ids=["zeta-all", "count-csv", "over-budget", "bad-spec",
        "missing-option"])
def test_process_prints_what_main_prints(tmp_path, capsys, argv, code):
    expected = _run_argv(capsys, argv)
    assert expected[0] == code
    assert expected[2].count("\n") == (1 if code else 0)
    assert _process(tmp_path, argv) == expected


def test_main_freezes_nothing(capsys):
    frozen = gc.get_freeze_count()
    assert run(capsys, "zeta", "--group", "builtin:symmetric(3)",
               "--n", "2")[0] == 0
    assert gc.get_freeze_count() == frozen


def test_closed_stdout_is_one_line(tmp_path):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout now fails with EPIPE
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)  # buffered stdout is flushed at exit
    try:
        done = subprocess.run(
            [sys.executable, "-m", "wordcount.cli", "zeta", "--group",
             "builtin:symmetric(3)", "--n", "3"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, cwd=tmp_path,
            text=True, timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == "error: BrokenPipeError: [Errno 32] Broken pipe\n"


def test_chartab_cache(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(fileio.CACHE_ENV, str(tmp_path / "cache"))
    code, out1, _ = run(capsys, "chartab", "--group", "builtin:quaternion(8)")
    assert code == 0
    files = list((tmp_path / "cache").glob("*.chartab"))
    assert len(files) == 1
    # second run loads from the cache and prints identical output
    code, out2, _ = run(capsys, "chartab", "--group", "builtin:quaternion(8)")
    assert code == 0 and out1 == out2
    Q8 = groups.builtin("quaternion", 8)
    table = fileio.cached_character_table(Q8)
    assert table.degrees == chartab.character_table(Q8).degrees


def test_cold_chartab_formats_the_table_once(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(fileio.CACHE_ENV, str(tmp_path))
    texts = []
    dump = chartab.dump_table
    monkeypatch.setattr(chartab, "dump_table",
                        lambda table: texts.append(dump(table)) or texts[-1])
    code, out, _ = run(capsys, "chartab", "--group", "builtin:dihedral(10)")
    (path,) = tmp_path.glob("*.chartab")
    assert code == 0 and texts == [out] == [path.read_text(encoding="utf-8")]


def _swap_columns(text, a=1, b=2):
    """Cache text with the values of classes a and b swapped in every row.
    On C5, whose classes have size 1, the table stays orthogonal; classes
    1 and 2 leave it not closed under the power maps, and classes 1 and 4
    keep it closed but leave a linear row that is no homomorphism.  On
    D20, classes 2 and 4 are rotation classes where every linear row
    agrees: only nonlinear values move, and a relation of the class
    algebra fails."""
    lines = text.splitlines()
    k = int(lines[0].rsplit("=", 1)[1])
    for i in range(1 + k, len(lines)):
        v = lines[i].split(",")
        v[a], v[b] = v[b], v[a]
        lines[i] = ",".join(v)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("spec, corrupt", [
    ("symmetric(3)", lambda t: t[:len(t) // 2]),
    ("symmetric(3)", lambda t: ""),
    ("symmetric(3)", lambda t: t.replace("2:0:0", "3:0:0", 1)),
    ("cyclic(5)", _swap_columns),
    ("cyclic(5)", lambda t: _swap_columns(t, 1, 4)),
    ("dihedral(20)", lambda t: _swap_columns(t, 2, 4)),
    # int() reads each of these coefficients as the 2 it replaces
    *[("dihedral(8)", lambda t, digits=digits: t.replace(
        ",0:0:2:0,", f",0:0:{digits}:0,", 1))
      for digits in ("+2", "0_2", " 2", "\u0662")],
], ids=["truncated", "empty", "tampered", "swapped", "swapped-linear",
        "swapped-nonlinear", "sign", "underscore", "space",
        "non-ascii-digit"])
def test_corrupt_cache_file_is_a_miss(tmp_path, monkeypatch, capsys, spec,
                                      corrupt):
    monkeypatch.setenv(fileio.CACHE_ENV, str(tmp_path))
    code, good_out, _ = run(capsys, "chartab", "--group", f"builtin:{spec}")
    assert code == 0
    (path,) = tmp_path.glob("*.chartab")
    good = path.read_text(encoding="utf-8")
    assert corrupt(good) != good
    path.write_text(corrupt(good), encoding="utf-8")
    code, out, err = run(capsys, "chartab", "--group", f"builtin:{spec}")
    assert (code, out, err) == (0, good_out, "")
    assert path.read_text(encoding="utf-8") == good
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_internal_inconsistency_is_one_line(monkeypatch, capsys):
    # central series that disagree on nilpotency
    monkeypatch.setattr(groups, "lower_central_series",
                        lambda G: [groups.whole_subgroup(G)])
    code, out, err = run(capsys, "info", "--group", "builtin:cyclic(4)")
    assert code == 1
    assert err == ("error: InternalInconsistency: central series disagree "
                   "on nilpotency class\n")


NINES = "9" * 5000  # past the 4,300 digits int() reads


def _run_argv(capsys, argv):
    """Exit code and streams of cli.main, the command line's own exits
    included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, files", [
    (["info", "--group", f"builtin:cyclic({NINES})"], {}),
    (["info", "--group", "builtin:cyclic(100000)"], {}),
    (["count", "--group", "builtin:cyclic(2)", "--word", f"x{NINES}"], {}),
    (["count", "--group", "builtin:cyclic(2)", "--word", f"x1^{NINES}"], {}),
    (["count", "--group", "builtin:cyclic(2)", "--word", f"x1^-{NINES}"], {}),
    (["info", "--group", "file:{g}"], {"g": f"perm 3 {NINES}\n"}),
    (["info", "--group", "file:{g}"], {"g": f"cayley {NINES}\n"}),
    (["count", "--group", "builtin:cyclic(2)", "--word", "[x1,x2]",
      "--domain", f"x{NINES}=derived"], {}),
    (["zeta", "--group", "builtin:cyclic(2)", "--n", "2", "--budget", NINES],
     {}),
    (["isoclinic", "--group", "builtin:cyclic(2)",
      "--other", "builtin:cyclic(2)", "--n", NINES], {}),
    (["info", "--group", "builtin:cyclic(٣)"], {}),
    (["count", "--group", "builtin:cyclic(2)", "--word", "x١"], {}),
    (["count", "--group", "builtin:cyclic(2)", "--word", "[x1,x2]",
      "--domain", "x١=derived"], {}),
    (["zeta", "--group", "builtin:cyclic(2)", "--n", "٣"], {}),
    (["info", "--group", "file:{g}"], {"g": "cayley 1\n٠\n"}),
], ids=["spec-nines", "spec-six-digits", "index-nines", "exponent-nines",
        "negative-exponent-nines", "perm-header-nines", "cayley-header-nines",
        "domain-nines", "budget-nines", "level-nines", "spec-arabic-digit",
        "index-arabic-digit", "domain-arabic-digit", "n-arabic-digit",
        "cayley-entry-arabic-digit"])
def test_digit_runs_are_one_line_usage_errors(tmp_path, capsys, argv, files):
    # int() reads Unicode digits and raises ValueError past 4,300 digits;
    # every integer the CLI reads takes ASCII digits only, no more than its
    # bound has, and anything else is one usage line
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / f"{name}.group"
        paths[name].write_text(text, encoding="utf-8")
    argv = [arg.format(**paths) for arg in argv]
    code, out, err = _run_argv(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and len(err) < 200


@pytest.mark.parametrize("argv, files, code, message", [
    (["info", "--group", "file:{g}"], {"g": "cayley 0\n"}, 1,
     "NotAGroup: empty table"),
    (["info", "--group", "file:{g}"], {"g": "cayley 3 1\n"}, 2,
     "line 1: expected 'cayley <n>'"),
    (["info", "--group", "file:{g}"], {"g": "perm 3\n"}, 2,
     "line 1: expected 'perm <degree> <k>'"),
    (["info", "--group", "file:{g}"], {"g": "cayley 1\n0\n0\n"}, 2,
     "line 3: trailing input"),
    (["info", "--group", "file:{g}"], {"g": "cayley 2\n0 1\n1\n"}, 2,
     "line 3: cayley row has 1 entries, expected 2"),
    (["info", "--group", "file:{g}"],
     {"g": "cayley 3\n0 2 1\n2 1 0\n1 0 2\n"}, 1,
     "NotAGroup: no two-sided identity element"),
    (["info", "--group", "file:{g}"], {"g": "perm 3 1\n0 0 1\n"}, 1,
     "NotAPermutation: [0, 0, 1] is not a permutation of 0..2"),
    (["info", "--group", "builtin:symmetric(7)"], {}, 2,
     "symmetric degree must be 1..6"),
    (["info", "--group", "builtin:elementary_abelian(4,2)"], {}, 2,
     "need a prime p and k >= 1"),
    (["info", "--group", "builtin:heisenberg(4)"], {}, 2,
     "heisenberg parameter must be prime"),
    (["info", "--group", "builtin:extraspecial_minus(4)"], {}, 2,
     "extraspecial parameter must be prime"),
    (["info", "--group", "builtin:direct_product(cyclic(2))"], {}, 2,
     "direct_product takes two groups"),
    (["info", "--group", "builtin:cyclic(2)x"], {}, 2,
     "trailing input in builtin spec: 'x'"),
    (["info", "--group", "builtin:cyclic(2"], {}, 2,
     "expected ')' at position 8"),
    (["count", "--group", "builtin:cyclic(2)", "--word", "[x1,x2]",
      "--domain", "x1=foo"], {}, 2,
     "domain must look like x1=derived or x1=center, got 'x1=foo'"),
    (["count", "--group", "builtin:cyclic(2)", "--word", "[x1,x2]",
      "--domain", "x9=center"], {}, 2, "variable x9 out of range"),
    (["count", "--group", "builtin:cyclic(2)", "--word", "[x1"], {}, 2,
     "expected ',' (at position 3)"),
    (["count", "--group", "builtin:cyclic(2)", "--word", "[x1,x2"], {}, 2,
     "expected ']' (at position 6)"),
    (["count", "--group", "builtin:cyclic(2)", "--word", "(x1"], {}, 2,
     "expected ')' (at position 3)"),
    (["info", "--group", "builtin:(3)"], {}, 2,
     "expected family name at position 0"),
    (["info", "--group", "file:{g}"], {"g": "# only\n# comments\n"}, 2,
     "line 0: empty group file"),
    (["info", "--group", "file:{g}"], {"g": "cayley 2\n0 1\n0 1\n"}, 1,
     "NotAGroup: column 0 is not a permutation of 0..1"),
    (["info", "--group", "file:{g}"], {"g": "perm 3 1\n1 0 2\n0 2 1\n"}, 2,
     "line 3: trailing input"),
], ids=["cayley-0", "cayley-header-fields", "perm-header-fields",
        "cayley-trailing-row", "cayley-ragged-row", "cayley-no-identity",
        "perm-not-a-permutation", "symmetric-7", "elementary-abelian-4-2",
        "heisenberg-4", "extraspecial-minus-4", "direct-product-one-group",
        "spec-trailing-text", "spec-missing-paren", "domain-name",
        "domain-variable", "word-missing-comma", "word-missing-bracket",
        "word-missing-paren", "spec-no-family", "comments-only",
        "cayley-column-repeats", "perm-trailing-row"])
def test_outside_input_is_refused_in_one_line(tmp_path, capsys, argv, files,
                                              code, message):
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / f"{name}.group"
        paths[name].write_text(text, encoding="utf-8")
    argv = [arg.format(**paths) for arg in argv]
    assert _run_argv(capsys, argv) == (code, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, echoed", [
    (["info", "--group", "file:{missing}"], "cannot read {missing}: "),
    (["info", "--group", "builtin:cyclic(3)", "x\ny"], "'x\\ny'"),
    (["info", "--group", "builtin:cyclic(3)", "--gr\r\noup", "x"],
     "'--gr\\r\\noup'"),
], ids=["file-path", "token", "option"])
def test_a_line_break_in_an_error_is_escaped(tmp_path, capsys, argv, echoed):
    missing = tmp_path / "no\nsuch"
    argv = [arg.format(missing=missing) for arg in argv]
    code, out, err = _run_argv(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert echoed.format(missing=str(missing).replace("\n", "\\n")) in err


@pytest.mark.parametrize("spec", ["symmetric(3)", "dihedral(200)"])
def test_row_permuted_cache_file_is_the_computed_table(
        tmp_path, monkeypatch, capsys, spec):
    # the loaded rows are sorted as computed rows are, so a cache file in
    # another row order is a hit that prints what the cold run printed
    monkeypatch.setenv(fileio.CACHE_ENV, str(tmp_path))
    code, cold, _ = run(capsys, "chartab", "--group", f"builtin:{spec}")
    assert code == 0
    (path,) = tmp_path.glob("*.chartab")
    lines = path.read_text(encoding="utf-8").splitlines()
    k = int(lines[0].rsplit("=", 1)[1])
    permuted = "\n".join(lines[:1 + k] + lines[1 + k:][::-1]) + "\n"
    path.write_text(permuted, encoding="utf-8")
    G = groups.parse_builtin_spec(spec)
    assert chartab.load_table(G, permuted) == chartab.character_table(G)
    monkeypatch.setattr(chartab, "_compute_table", None)  # a hit computes none
    code, warm, err = run(capsys, "chartab", "--group", f"builtin:{spec}")
    assert (code, warm, err) == (0, cold, "")
    assert path.read_text(encoding="utf-8") == permuted


def test_cayley_file_relabeled_to_put_the_identity_first(tmp_path, capsys):
    # S3 with the identity at index 4: elements are labeled by their index
    # after the identity is moved to 0, the others keeping their order
    S3 = groups.builtin("symmetric", 3)
    order = [1, 2, 3, 4, 0, 5]  # position in the file -> index in S3
    where = {a: i for i, a in enumerate(order)}
    rows = [[where[S3.mul[a][b]] for b in order] for a in order]
    path = tmp_path / "s3.group"
    path.write_text("cayley 6\n" + "".join(
        " ".join(map(str, row)) + "\n" for row in rows), encoding="utf-8")
    code, out, err = run(capsys, "count", "--group", f"file:{path}",
                         "--word", "x1^2")
    assert (code, err) == (0, "")
    assert out == "class_rep\tsize\tcount\n0\t1\t4\n3\t2\t1\n1\t3\t0\n"
    G = fileio.import_group(path)
    assert tuple(map(G.label, range(6))) == ("0", "1", "2", "3", "4", "5")


# ---------------------------------------------------------------------------
# `cli.parse_args` against this argparse parser as the reference: every line
# it reads as values argparse reads as the same values, and it prints help
# only where argparse printed help or refused.  Its grammar is stricter, and
# its refusals are its own: one `error: ...` line and exit code 2.


class _OneLineParser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _argparse_number(bound):
    def read(text):
        digits = text.removeprefix("-")
        (value,) = read_ints([digits], bound, argparse.ArgumentTypeError)
        return value if digits == text else -value
    return read


def build_parser():
    parser = _OneLineParser(prog="wordcount")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        return p

    def budget_arg(p):
        p.add_argument("--budget", type=_argparse_number(cli.MAX_BUDGET),
                       default=groups.DEFAULT_BUDGET)

    p = add("info", cli.cmd_info)
    p.add_argument("--group", required=True)
    p = add("chartab", cli.cmd_chartab)
    p.add_argument("--group", required=True)
    p = add("count", cli.cmd_count)
    p.add_argument("--group", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--domain", action="append")
    p.add_argument("--format", choices=("table", "csv"), default="table")
    budget_arg(p)
    p = add("zeta", cli.cmd_zeta)
    p.add_argument("--group", required=True)
    p.add_argument("--n", type=_argparse_number(cli.MAX_N), required=True)
    p.add_argument("--method", choices=("brute", "char", "closed", "all"),
                   default="all")
    p.add_argument("--format", choices=("table", "csv"), default="table")
    budget_arg(p)
    p = add("verify", cli.cmd_verify)
    p.add_argument("--suite", default="all")
    p = add("isoclinic", cli.cmd_isoclinic)
    p.add_argument("--group", required=True)
    p.add_argument("--other", required=True)
    p.add_argument("--n", type=_argparse_number(cli.MAX_LEVEL), default=1)
    return parser


def _benchmark_requests():
    """The argv of every tables-cli and brute-cli request of seeds 1 and 2."""
    perfbench, name = str(ROOT / "perfbench"), "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # workloads imports oracle by name, and its dataclasses look their
    # module up in sys.modules
    sys.path.insert(0, perfbench)
    sys.modules[name] = workloads
    try:
        spec.loader.exec_module(workloads)
    finally:
        sys.path.remove(perfbench)
        del sys.modules[name]
    return [request.argv for seed in (1, 2)
            for wl in (workloads.tables_cli(seed, "tmp"),
                       workloads.brute_cli(seed))
            for request in wl.requests]


# Spellings the grammar reads in more than one way: prefixes, '=' forms,
# -h joined to a value, a bare '--' or '-', negative numbers (Unicode digits
# and a final newline included), text with a space or a line break, and no
# option at all.
ODD_TOKENS = [
    "", "-", "--", "---", "---x", "--=", "--=x", "-=", "-x", "-x=y", "-g",
    "--x", "--x=1", "-h", "--help", "--h", "--he", "-hh", "-hhh", "-hx",
    "-h-", "-h=", "-h=x", "-hh=x", "--help=", "--help=x", "--he=1", "-5",
    "-0", "-1.5", "-.5", "-5.", "-\u0663", "-5\n", "-5\n\n", "x y", "-x y",
    "--g x", "nosuch", "5", "1.5", "9" * 25, "-" + "9" * 25, "x\ny", "\r",
    "--g\n", "--g=\r\n"]
OPTIONS = {"info": ["group"], "chartab": ["group"],
           "count": ["group", "word", "domain", "format", "budget"],
           "zeta": ["group", "n", "method", "format", "budget"],
           "verify": ["suite"], "isoclinic": ["group", "other", "n"]}
VALUES = {
    "group": ["builtin:cyclic(3)", "-x", "x y", ""], "other": ["x"],
    "word": ["[x1,x2]", "x1^-1", "-x1"], "domain": ["x1=center", "x2=derived"],
    "format": ["table", "csv", "xml"], "method": ["all", "char", "bogus"],
    "budget": ["5", "-5", "0", "\u0663", "-0", "9" * 25],
    "n": ["3", "-3", "10", "x", "1.5", "-1.5"], "suite": ["all", "bogus"]}


def _seeded_command_lines(count, seed=35):
    """Command lines of one command whose options are spelled in full, cut
    to a prefix or joined with '=', repeated or left out, some with an odd
    token put in or a token dropped; and shuffled lines of odd tokens."""
    rng = random.Random(seed)
    lines = []
    for _ in range(count):
        command = rng.choice(list(OPTIONS))
        argv = [command]
        for _ in range(rng.randrange(7)):
            name = rng.choice(OPTIONS[command])
            spelled = "--" + name[:rng.randrange(1, len(name) + 1)]
            value = rng.choice(VALUES[name])
            argv += ([f"{spelled}={value}"] if rng.random() < 0.3
                     else [spelled, value])
        if rng.random() < 0.2:
            argv.insert(rng.randrange(len(argv) + 1), rng.choice(ODD_TOKENS))
        if rng.random() < 0.05:
            del argv[rng.randrange(len(argv))]
        lines.append(argv)
        odd = rng.choices(ODD_TOKENS + list(OPTIONS) + [
            f"--{name}" for name in VALUES], k=rng.randrange(5))
        if rng.random() < 0.7:
            odd.insert(0, command)
        lines.append(odd)
    return lines


def _parsed(parse, argv):
    """('values', the namespace's attributes), or ('exit', code, stderr)
    of a refusal, or ('exit', 0, '') of a help request."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            return "values", vars(parse(list(argv)))
        except SystemExit as exc:
            return "exit", exc.code, err.getvalue() if exc.code else ""


def test_command_lines_read_as_argparse_reads_them():
    reference = build_parser()
    benchmark = _benchmark_requests()
    assert len(benchmark) == 102
    for argv in benchmark:
        assert _parsed(cli.parse_args, argv) == \
            _parsed(reference.parse_args, argv), argv
    seen = {"values": 0, 0: 0, 2: 0}
    for argv in _seeded_command_lines(1500):
        got, expected = (_parsed(cli.parse_args, argv),
                         _parsed(reference.parse_args, argv))
        if got[0] == "values":
            assert got == expected, argv
        elif got[1] == 0:  # help
            assert expected[0] == "exit", argv
        else:
            assert got[1] == 2, argv
            assert got[2].startswith("error: "), argv
            assert got[2].count("\n") == 1, argv
        seen[got[0] if got[0] == "values" else got[1]] += 1
    assert min(seen.values()) > 50  # read, help and refused lines alike


CHOOSE = "(choose from info, chartab, count, zeta, verify, isoclinic)"


@pytest.mark.parametrize("argv, message", [
    ([], f"missing command {CHOOSE}"),
    (["--", "info"], f"invalid command '--' {CHOOSE}"),
    (["--he"], f"invalid command '--he' {CHOOSE}"),
    (["info", "--", "--group", "x"], "unrecognized argument '--'"),
    (["info", "--group", "x", "-hh"], "unrecognized argument '-hh'"),
    (["info", "--help=x"], "unrecognized argument '--help=x'"),
    (["info", "--group"], "argument --group: expected a value"),
    (["zeta", "--group", "x", "--n", "-1.5"], "argument --n: expected a "
     "value, got '-1.5' (write --n=VALUE for it)"),
    (["zeta", "--group", "x", "--n", "-\u0663"], "argument --n: expected a "
     "value, got '-\u0663' (write --n=VALUE for it)"),
    (["zeta", "--group", "x", "--n=-1.5"], "argument --n: expected a "
     "number in ASCII digits, got '-1.5'"),
    (["zeta", "--group", "x", "--n=-"], "argument --n: expected a number "
     "in ASCII digits, got '-'"),
    (["zeta", "--group", "x", "--n", "3", "--f", "xml"], "argument "
     "--format: invalid choice: 'xml' (choose from 'table', 'csv')"),
    (["zeta", "--group", "x"], "the following arguments are required: --n"),
], ids=["no-command", "dash-dash-first", "help-prefix-first",
        "dash-dash", "hh", "help-value", "no-value", "decimal-value",
        "unicode-digit-value", "negative-decimal", "bare-minus", "choice",
        "missing-option"])
def test_command_line_refusals_are_one_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_help_is_printed_when_it_is_reached(capsys):
    for argv in (["info", "--he", "--bogus"], ["info", "-h", "--group"]):
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: wordcount info ")


@pytest.mark.parametrize("command", [None, *cli.COMMANDS])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_usage_on_stdout_and_exits_0(capsys, command, flag):
    argv = [flag] if command is None else [command, flag]
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    if command is None:
        assert out.startswith("usage: wordcount COMMAND")
        assert all(f"\n  {name} " in out for name in cli.COMMANDS)
    else:
        assert out.startswith(f"usage: wordcount {command} ")
        _, about, options = cli.COMMANDS[command]
        assert about in out
        assert all(f"\n  --{name} " in out for name, *_ in options)
