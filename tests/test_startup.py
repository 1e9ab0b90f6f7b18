"""What each kind of process imports.

Every probe runs in a fresh interpreter, since this test session has long
since imported the whole package, and reports the modules it loaded.  With
bytecode caching off a process compiles each module it imports, so a short
CLI request should load only what its command runs, and nothing pulls in
`dataclasses` with the `inspect` chain behind it.  Each probe starts one
interpreter for the whole module (the `loaded` fixture), and every test
reads its result.
"""

import json
import os
import subprocess
import sys
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TABLE_ENGINE = {"chartab", "cyclotomic", "formulas", "isoclinism",
                "verification", "fileio"}
SLOW_STDLIB = {"dataclasses", "inspect"}
ARGPARSE_CHAIN = {"argparse", "gettext", "locale"}
MODULES = sorted(p.stem for p in (ROOT / "src" / "wordcount").glob("*.py")
                 if p.stem != "__init__")

# the command lines whose module sets README states
COMMANDS = {
    "count": ("count", "--group", "builtin:symmetric(4)", "--word", "[x1,x2]"),
    "zeta-brute": ("zeta", "--group", "builtin:symmetric(4)", "--n", "3",
                   "--method", "brute"),
    "zeta-char": ("zeta", "--group", "builtin:symmetric(4)", "--n", "3",
                  "--method", "char"),
    "zeta-closed": ("zeta", "--group", "builtin:quaternion(8)", "--n", "3",
                    "--method", "closed"),
    "zeta-all": ("zeta", "--group", "builtin:symmetric(4)", "--n", "3"),
    "info": ("info", "--group", "builtin:symmetric(4)"),
    "chartab": ("chartab", "--group", "builtin:symmetric(4)"),
    "verify": ("verify", "--suite", "isoclinism"),
    "isoclinic": ("isoclinic", "--group", "builtin:dihedral(8)",
                  "--other", "builtin:quaternion(8)"),
}
# command lines that run, beyond COMMANDS
RUNS = {
    **COMMANDS,
    "zeta-brute-csv": COMMANDS["zeta-brute"] + ("--format", "csv"),
    "count-domain": ("count", "--group", "builtin:dihedral(8)", "--word",
                     "[x1,x2]", "--domain", "x1=center"),
    "count-csv": ("count", "--group", "builtin:symmetric(3)", "--word",
                  "[x1,x2]", "--format", "csv"),
    "group-file": ("count", "--group", "file:s3.group", "--word", "[x1,x2]"),
}
# command lines that print help or are refused -> exit status
EXITS = {"help": (("-h",), 0), "command-help": (("count", "--help"), 0),
         "missing-option": (("zeta", "--group", "builtin:symmetric(3)"), 2),
         "unknown-command": (("nosuch",), 2)}
CLI_PROBES = {**{name: (argv, 0) for name, argv in RUNS.items()}, **EXITS}


def cli_probe(argv):
    """cli.main(argv) with its output swallowed; the process exits with
    its status."""
    return ("import contextlib, io\n"
            "from wordcount import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), \\\n"
            "        contextlib.redirect_stderr(io.StringIO()):\n"
            "    try:\n"
            f"        status = cli.main({list(argv)!r})\n"
            "    except SystemExit as exc:\n"
            "        status = exc.code\n")


PROBES = {
    "import": "import wordcount\n",
    "import-each": "".join(f"import wordcount.{name}\n" for name in MODULES),
    "import-chartab": "import wordcount.chartab\n",
    "import-cli": "import wordcount.cli\n",
    "public-names": (
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
        "assert chartab.ClassFunction is groups.ClassFunction\n"),
    **{name: cli_probe(argv) for name, (argv, _) in CLI_PROBES.items()},
}


Probe = namedtuple("Probe", "status modules stderr")


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """Probe name -> its exit status, every module its process loaded, and
    its stderr.  Every probe runs in one directory, which holds the group
    file and the table cache; gettext's catalogue lookups would import
    locale once LANG names a locale."""
    directory = tmp_path_factory.mktemp("probes")
    (directory / "s3.group").write_text("perm 3 2\n1 0 2\n1 2 0\n")
    env = dict(os.environ, LANG="en_US.UTF-8",
               WORDCOUNT_CACHE=str(directory / "cache"),
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    out = {}
    for name, code in PROBES.items():
        probe = "status = 0\n" + code + (
            "import json, sys\n"
            "print(json.dumps(sorted(sys.modules)))\n"
            "raise SystemExit(status)\n")
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              cwd=directory, capture_output=True, text=True)
        modules = done.stdout.splitlines()[-1:] or ["[]"]
        out[name] = Probe(done.returncode, set(json.loads(modules[0])),
                          done.stderr)
    return out


def package_modules(modules):
    return {m.split(".", 1)[1] for m in modules if m.startswith("wordcount.")}


def test_import_wordcount_loads_no_submodule(loaded):
    assert loaded["import"].status == 0
    assert package_modules(loaded["import"].modules) == set()


def source_lines(modules):
    """Lines of package source a process compiles for these submodules,
    the package's `__init__` included."""
    return sum(len((ROOT / "src" / "wordcount" / f"{name}.py").read_text(
        encoding="utf-8").splitlines()) for name in modules | {"__init__"})


def test_each_command_loads_only_what_it_runs(loaded):
    """The package source each command compiles with bytecode caching off.
    README lists the line sums as a snapshot; this test checks only the
    module sets README states."""
    modules = {name: loaded[name].modules for name in RUNS}
    package = {name: package_modules(m) for name, m in modules.items()}
    lines = {name: source_lines(package[name]) for name in COMMANDS}
    for name in RUNS:
        assert {"cli", "groups"} <= package[name], name
    brute = {"cli", "errors", "groups", "words", "counting"}
    assert package["count"] == package["zeta-brute"] == \
        package["zeta-brute-csv"] == brute
    for name in ("count", "zeta-brute", "zeta-brute-csv"):
        assert "array" not in modules[name]  # tuple rows below 1025 elements
    # only the csv export writes rationals
    assert not (modules["count"] | modules["zeta-brute"]) & {"fractions",
                                                              "decimal"}
    for name in ("zeta-char", "zeta-closed", "info"):
        assert "formulas" in package[name], name
        assert not package[name] & {"counting", "words"}, name
    # the closed forms read class data only
    assert {"chartab", "cyclotomic"} <= package["info"]
    assert package["zeta-char"] - package["zeta-closed"] == {"chartab",
                                                             "cyclotomic"}
    assert not package["zeta-closed"] & {"chartab", "cyclotomic"}
    assert package["zeta-all"] == package["zeta-char"] | brute
    assert lines["count"] < lines["zeta-closed"] < lines["zeta-char"] \
        < lines["zeta-all"]
    assert "fileio" in package["group-file"]
    assert not package["group-file"] & (TABLE_ENGINE - {"fileio"})


@pytest.mark.parametrize("name", CLI_PROBES)
def test_no_command_loads_argparse_gettext_or_locale(loaded, name):
    # the command line is read from cli.COMMANDS
    probe = loaded[name]
    assert probe.status == CLI_PROBES[name][1], probe.stderr
    assert "wordcount.cli" in probe.modules
    assert not probe.modules & ARGPARSE_CHAIN


@pytest.mark.parametrize("name", PROBES)
def test_no_process_loads_dataclasses_or_inspect(loaded, name):
    assert not loaded[name].modules & SLOW_STDLIB


def test_every_module_imports(loaded):
    assert "verification" in MODULES
    assert loaded["import-each"].status == 0
    assert package_modules(loaded["import-each"].modules) == set(MODULES)


def test_import_cli_loads_no_future(loaded):
    # no module carries an annotation, so none needs `__future__`
    assert loaded["import-cli"].status == 0
    assert "__future__" not in loaded["import-cli"].modules


def test_chartab_loads_no_formula_or_counting_module(loaded):
    assert package_modules(loaded["import-chartab"].modules) == {
        "chartab", "cyclotomic", "errors", "groups"}


def test_every_public_name_is_its_module_attribute(loaded):
    assert loaded["public-names"].status == 0, loaded["public-names"].stderr


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
