"""Seeded grammar fuzz of the command line.

Arguments are drawn from the word grammar (with `--domain`), the builtin
group spec grammar, group files with `cayley` and `perm` headers, and the
numeric options of `count`, `zeta` and `isoclinic`, then one of them may be
mutated: truncated, given a digit run past int()'s 4,300 digits, nested
past 100, given Unicode digits, a NUL byte, a stray comma or a line break.
A group file's text may be mutated too: a line dropped or repeated, an
entry swapped or replaced, a header number changed, or a byte that is not
UTF-8.  Each command line runs through `cli.main` in process.  Whatever the
input, the exit code is 0, 1 or 2, no exception escapes, and an error is
one stderr line; the one exit 1 without it is `isoclinic`'s `not isoclinic`
answer on stdout.  Groups have order at most 24 and `--budget` is at most
10^4, so each command line is cheap.
"""
import contextlib
import io
import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from wordcount import cli, groups

def mostly(valid, other):
    """Draws from `valid` about twice as often as from `other`."""
    return st.one_of(valid, valid, other)


# every spec names a group of order at most 24, or none
VALID_LEAF = st.sampled_from([
    "cyclic(1)", "cyclic(7)", "cyclic(24)", "dihedral(4)", "dihedral(8)",
    "dihedral(18)", "quaternion(8)", "quaternion(16)", "symmetric(3)",
    "symmetric(4)", "agl1(4)", "agl1(5)", "heisenberg(2)",
    "extraspecial_plus(2)", "extraspecial_minus(2)",
    "elementary_abelian(2,4)", "elementary_abelian(3,2)"])
LEAF = mostly(VALID_LEAF, st.builds(
    "{}({})".format,
    st.sampled_from(["cyclic", "dihedral", "quaternion", "symmetric", "agl1",
                     "heisenberg", "elementary_abelian", "nonesuch"]),
    st.sampled_from(["0", "3", "5", "6", "2,2", "2,1,1", ""])))
PRODUCT = st.builds(
    "direct_product({},{})".format,
    st.sampled_from(["cyclic(1)", "cyclic(3)", "cyclic(4)",
                     "elementary_abelian(2,2)"]),
    st.sampled_from(["cyclic(5)", "cyclic(6)", "symmetric(3)",
                     "dihedral(6)"]))
BUILTIN = st.one_of(LEAF, PRODUCT).map(lambda spec: "builtin:" + spec)


def _lines(header, rows):
    return [header] + [" ".join(map(str, row)) for row in rows]


# group files of order at most 24, as lists of lines
CAYLEY_FILE = st.sampled_from([
    _lines(f"cayley {G.order}", G.mul) for G in (
        groups.builtin(name, n) for name, n in (
            ("cyclic", 1), ("cyclic", 5), ("symmetric", 3),
            ("dihedral", 8), ("quaternion", 8), ("agl1", 4)))])
PERM_FILE = st.integers(0, 4).flatmap(lambda degree: st.lists(
    st.permutations(range(degree)), max_size=3).map(
        lambda gens: _lines(f"perm {degree} {len(gens)}", gens)))


@st.composite
def group_files(draw):
    """(text as bytes) of a group file, perhaps mutated."""
    lines = list(draw(st.one_of(CAYLEY_FILE, PERM_FILE)))
    at = draw(st.integers(0, len(lines) - 1))
    kind = draw(mostly(st.just("none"), st.sampled_from(
        ["drop", "repeat", "swap", "entry", "header", "comment", "latin1"])))
    fields = lines[at].split()
    if kind == "drop":
        del lines[at]
    elif kind == "repeat":
        lines.insert(at, lines[at])
    elif kind == "swap" and len(fields) > 1:
        fields[0], fields[-1] = fields[-1], fields[0]
        lines[at] = " ".join(fields)
    elif kind == "entry" and fields:
        fields[-1] = draw(st.sampled_from(["x", "-1", "24", "٣", "9" * 4301]))
        lines[at] = " ".join(fields)
    elif kind == "header":
        fields = lines[0].split()
        fields[draw(st.integers(1, len(fields) - 1))] = draw(
            st.sampled_from(["0", "2", "7", "20481"]))
        lines[0] = " ".join(fields)
    elif kind == "comment":
        lines.insert(at, "# a comment")
    text = "\n".join(lines).encode() + b"\n"
    return b"# caf\xe9\n" + text if kind == "latin1" else text


VAR = st.sampled_from(["x1", "x1", "x2"])
EXPONENT = st.integers(-2, 3).map(str)
WORD = st.recursive(
    st.one_of(VAR, st.builds("{}^{}".format, VAR, EXPONENT)),
    lambda inner: st.one_of(
        st.builds("[{},{}]".format, inner, inner),
        st.builds("({})".format, inner),
        st.builds("({})^{}".format, inner, EXPONENT),
        st.builds("{} {}".format, inner, inner)),
    max_leaves=4)
DOMAIN = mostly(st.sampled_from(["x1=derived", "x1=center", "x2=derived"]),
                st.sampled_from(["x3=center", "x1=centre", "x0=center",
                                 "=derived", "x1"]))
BUDGET = st.sampled_from(["10000", "4000", "600", "30", "1", "0", "-1"])
FORMAT = st.sampled_from(["table", "csv"])


@st.composite
def command_lines(draw):
    """(argv, index of the value that a mutation may change, {file name:
    bytes} of the group files that argv names relative to its directory)."""
    files = {}

    def group():
        if draw(st.integers(0, 2)):  # a builtin spec twice as often
            return draw(BUILTIN)
        name = f"g{len(files)}.group"
        files[name] = draw(group_files())
        return f"file:{name}"

    command = draw(st.sampled_from(
        ["count", "zeta", "isoclinic", "info", "chartab"]))
    argv = [command, "--group", group()]
    if command == "count":
        argv += ["--word", draw(WORD)]
        for domain in draw(st.lists(DOMAIN, max_size=1)):
            argv += ["--domain", domain]
        argv += ["--format", draw(FORMAT), "--budget", draw(BUDGET)]
    elif command == "zeta":
        argv += ["--n", str(draw(mostly(st.integers(2, 8),
                                        st.integers(-1, 9)))),
                 "--method", draw(st.sampled_from(
                     ["brute", "char", "closed", "all"])),
                 "--format", draw(FORMAT), "--budget", draw(BUDGET)]
    elif command == "isoclinic":
        argv += ["--other", group(),
                 "--n", str(draw(mostly(st.integers(1, 3),
                                        st.integers(-1, 99))))]
    return argv, draw(st.sampled_from(range(2, len(argv), 2))), files


def _digits(text, draw):
    """text with its first ASCII digit run replaced by `draw`'s digits."""
    start = next((i for i, c in enumerate(text) if c in "0123456789"), None)
    if start is None:
        return text + draw
    end = start
    while end < len(text) and text[end] in "0123456789":
        end += 1
    return text[:start] + draw + text[end:]


@st.composite
def mutated(draw):
    argv, i, files = draw(command_lines())
    value = argv[i]
    at = draw(st.integers(0, len(value)))
    kind = draw(mostly(st.just("none"), st.sampled_from(
        ["truncate", "long-digits", "nest", "unicode-digit", "nul",
         "comma", "newline"])))
    if kind == "truncate":
        value = value[:at]
    elif kind == "long-digits":
        value = _digits(value, "9" * 4301)
    elif kind == "nest":
        opener = draw(st.sampled_from(["(", "["]))
        value = value[:at] + opener * 101 + value[at:]
    elif kind == "unicode-digit":
        value = _digits(value, draw(st.sampled_from(["٣", "३", "３", "²"])))
    elif kind == "nul":
        value = value[:at] + "\0" + value[at:]
    elif kind == "comma":
        value = value[:at] + "," + value[at:]
    elif kind == "newline":
        value = value[:at] + draw(st.sampled_from(["\n", "\r\n"])) \
            + value[at:]
    argv[i] = value
    return argv, files


def _run(argv, directory):
    """cli.main(argv) run in directory, which also holds the table cache."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with mock.patch.dict(os.environ, {"WORDCOUNT_CACHE": "cache"}), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # the command line's own refusals
                code = exc.code
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(mutated())
def test_every_command_line_exits_cleanly(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as directory:
        for name, data in files.items():
            Path(directory, name).write_bytes(data)
        code, out, err = _run(argv, directory)
    assert code in (0, 1, 2), (argv, code, err)
    if code == 0:
        assert err == "", argv
    elif code == 1 and argv[0] == "isoclinic" and err == "":
        assert out == "not isoclinic\n", argv
    else:
        assert err.startswith("error: "), (argv, err)
        assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
