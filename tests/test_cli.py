import os
import subprocess
import sys
from pathlib import Path

import pytest

from wordcount import chartab, cli, fileio, formulas, groups, verification
from wordcount.cli import main
from wordcount.errors import (OrderLimitExceeded, ParseError, PredicateFailed,
                              UnsupportedParameter)


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
        return groups.ClassFunction(zeta.group, zeta.classes,
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


def _swap_columns(text):
    """Cache text with the values of classes 1 and 2 swapped in every row:
    on C5, whose classes have size 1, still orthogonal, but not closed
    under the power maps."""
    lines = text.splitlines()
    k = int(lines[0].rsplit("=", 1)[1])
    for i in range(1 + k, len(lines)):
        v = lines[i].split(",")
        v[1], v[2] = v[2], v[1]
        lines[i] = ",".join(v)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("spec, corrupt", [
    ("symmetric(3)", lambda t: t[:len(t) // 2]),
    ("symmetric(3)", lambda t: ""),
    ("symmetric(3)", lambda t: t.replace("2:0:0", "3:0:0", 1)),
    ("cyclic(5)", _swap_columns),
], ids=["truncated", "empty", "tampered", "swapped"])
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
    """Exit code and streams of cli.main, argparse's own exits included."""
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
    assert fileio.import_group(path).labels == ("0", "1", "2", "3", "4", "5")
