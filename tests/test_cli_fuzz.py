"""Seeded grammar fuzz of the command line.

Arguments are drawn from the word grammar (with `--domain`), the builtin
group spec grammar and the numeric options of `count`, `zeta` and
`isoclinic`, then one of them may be mutated: truncated, given a digit run
past int()'s 4,300 digits, nested past 100, given Unicode digits, a NUL byte
or a stray comma.  Each command line runs through `cli.main` in process.
Whatever the input, the exit code is 0, 1 or 2, no exception escapes, and
an error is one stderr line; the one exit 1 without it is `isoclinic`'s
`not isoclinic` answer on stdout.  Groups have order at most 24 and
`--budget` is at most 10^4, so each command line is cheap.
"""
import contextlib
import io
import os
import tempfile
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from wordcount import cli

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
GROUP = st.one_of(LEAF, PRODUCT).map(lambda spec: "builtin:" + spec)

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
    """(argv, index of the value that a mutation may change)."""
    command = draw(st.sampled_from(
        ["count", "zeta", "isoclinic", "info", "chartab"]))
    argv = [command, "--group", draw(GROUP)]
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
        argv += ["--other", draw(GROUP),
                 "--n", str(draw(mostly(st.integers(1, 3),
                                        st.integers(-1, 99))))]
    return argv, draw(st.sampled_from(range(2, len(argv), 2)))


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
    argv, i = draw(command_lines())
    value = argv[i]
    at = draw(st.integers(0, len(value)))
    kind = draw(mostly(st.just("none"), st.sampled_from(
        ["truncate", "long-digits", "nest", "unicode-digit", "nul",
         "comma"])))
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
    argv[i] = value
    return argv


def _run(argv, cache):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"WORDCOUNT_CACHE": cache}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own refusals
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(mutated())
def test_every_command_line_exits_cleanly(argv):
    with tempfile.TemporaryDirectory() as cache:
        code, out, err = _run(argv, cache)
    assert code in (0, 1, 2), (argv, code, err)
    if code == 0:
        assert err == "", argv
    elif code == 1 and argv[0] == "isoclinic" and err == "":
        assert out == "not isoclinic\n", argv
    else:
        assert err.startswith("error: "), (argv, err)
        assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
