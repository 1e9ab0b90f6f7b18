"""What each kind of process imports.

Every case runs in a fresh interpreter, since this test session has long
since imported the whole package, and reports the modules it loaded.  With
bytecode caching off a process compiles each module it imports, so a short
CLI request should load only what its command runs, and nothing pulls in
`dataclasses` with the `inspect` chain behind it.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TABLE_ENGINE = {"chartab", "cyclotomic", "formulas", "isoclinism",
                "verification", "fileio"}
SLOW_STDLIB = {"dataclasses", "inspect"}


def modules_after(code, **env):
    """Every module loaded by running `code` in a new process."""
    probe = code + ("\nimport json, sys\n"
                    "print(json.dumps(sorted(sys.modules)))\n")
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True)
    return set(json.loads(done.stdout.splitlines()[-1]))


def package_modules(modules):
    return {m.split(".", 1)[1] for m in modules if m.startswith("wordcount.")}


def loaded_after(code):
    """The wordcount submodules loaded by running `code` in a new process."""
    return package_modules(modules_after(code))


def cli_call(*argv):
    return ("import contextlib, io\n"
            "from wordcount import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({list(argv)!r}) == 0\n")


def test_import_wordcount_loads_no_submodule():
    assert loaded_after("import wordcount") == set()


@pytest.mark.parametrize("argv", [
    ("count", "--group", "builtin:symmetric(4)", "--word", "[x1,x2]"),
    ("zeta", "--group", "builtin:symmetric(4)", "--n", "3",
     "--method", "brute"),
    ("zeta", "--group", "builtin:symmetric(4)", "--n", "3",
     "--method", "brute", "--format", "csv"),
], ids=["count", "zeta-brute", "zeta-brute-csv"])
def test_brute_force_commands_load_no_table_engine(argv):
    modules = modules_after(cli_call(*argv))
    loaded = package_modules(modules)
    assert {"cli", "groups", "counting", "words"} <= loaded
    assert not loaded & TABLE_ENGINE
    assert not modules & SLOW_STDLIB
    assert "array" not in modules  # tuple rows below 1025 elements
    if "csv" not in argv:  # only the csv export writes rationals
        assert not modules & {"fractions", "decimal"}


@pytest.mark.parametrize("argv", [
    ("info", "--group", "builtin:symmetric(4)"),
    ("zeta", "--group", "builtin:symmetric(4)", "--n", "3",
     "--method", "char"),
    ("zeta", "--group", "builtin:quaternion(8)", "--n", "3",
     "--method", "closed"),
], ids=["info", "zeta-char", "zeta-closed"])
def test_table_commands_load_no_brute_force_module(argv):
    loaded = loaded_after(cli_call(*argv))
    assert {"chartab", "formulas"} <= loaded
    assert not loaded & {"counting", "words"}


@pytest.mark.parametrize("argv", [
    ("info", "--group", "builtin:symmetric(4)"),
    ("chartab", "--group", "builtin:symmetric(4)"),
    ("count", "--group", "builtin:dihedral(8)", "--word", "[x1,x2]",
     "--domain", "x1=center"),
    ("count", "--group", "builtin:symmetric(3)", "--word", "[x1,x2]",
     "--format", "csv"),
    ("zeta", "--group", "builtin:symmetric(4)", "--n", "3"),
    ("verify", "--suite", "isoclinism"),
    ("isoclinic", "--group", "builtin:dihedral(8)",
     "--other", "builtin:quaternion(8)"),
], ids=["info", "chartab", "count-domain", "count-csv", "zeta-all",
        "verify", "isoclinic"])
def test_no_command_loads_dataclasses_or_inspect(argv, tmp_path):
    loaded = modules_after(cli_call(*argv), WORDCOUNT_CACHE=str(tmp_path))
    assert {"wordcount.cli", "wordcount.groups"} <= loaded
    assert not loaded & SLOW_STDLIB


def test_no_module_loads_dataclasses_or_inspect():
    names = sorted(p.stem for p in (ROOT / "src" / "wordcount").glob("*.py")
                   if p.stem != "__init__")
    assert "verification" in names
    code = "".join(f"import wordcount.{name}\n" for name in names)
    loaded = modules_after(code)
    assert {f"wordcount.{name}" for name in names} <= loaded
    assert not loaded & SLOW_STDLIB


def test_group_file_loads_no_table_engine(tmp_path):
    path = tmp_path / "s3.group"
    path.write_text("perm 3 2\n1 0 2\n1 2 0\n")
    loaded = loaded_after(cli_call("count", "--group", f"file:{path}",
                                   "--word", "[x1,x2]"))
    assert "fileio" in loaded
    assert not loaded & (TABLE_ENGINE - {"fileio"})


def test_chartab_loads_no_formula_or_counting_module():
    loaded = loaded_after("import wordcount.chartab")
    assert loaded == {"chartab", "cyclotomic", "errors", "groups"}


def test_every_public_name_is_its_module_attribute():
    code = (
        "import importlib, wordcount\n"
        "for name in wordcount.__all__:\n"
        "    value = getattr(wordcount, name)\n"
        "    if name in wordcount._EXPORTS:\n"
        "        assert value is importlib.import_module('wordcount.' + name)\n"
        "    else:\n"
        "        module = importlib.import_module(\n"
        "            'wordcount.' + wordcount._MODULE_OF[name])\n"
        "        assert value is getattr(module, name), name\n"
        "from wordcount import *\n"
        "from wordcount import chartab, groups\n"
        "assert chartab.ClassFunction is groups.ClassFunction\n")
    loaded_after(code)  # raises if an assertion fails


def test_unknown_name_is_an_attribute_error():
    import wordcount

    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        wordcount.nosuch


def test_readme_library_snippet():
    """Run the README's Library snippet and check every value it states."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    snippet = readme.split("## Library", 1)[1]
    snippet = snippet.split("```python\n", 1)[1].split("```", 1)[0]
    namespace, checked = {}, 0
    for line in snippet.splitlines():
        code, _, comment = line.partition("#")
        code = code.strip()
        try:
            expression = compile(code, "README.md", "eval")
        except SyntaxError:
            exec(code, namespace)
            continue
        value = eval(expression, namespace)
        stated = comment.split("—")[0].strip()
        if code.startswith("wc.unique_nonlinear_recursion"):
            assert stated == "(15, the same class function)"
            zeta = namespace["wc"].zeta_brute(namespace["G"],
                                              namespace["wc"].wn(3))
            assert value == (15, zeta)
        else:
            assert value == eval(stated, {"Fraction": Fraction}), code
        checked += 1
    assert checked == 4
