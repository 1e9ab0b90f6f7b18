"""Command-line interface.

Exit codes: 0 all checks pass, 1 a computation or verification failed,
2 usage error.  FLAGGED verification lines never affect the exit code.
Every error is one stderr line, the command line's own included: `_error`
writes a line break in what it echoes as its escape.  Every integer
argument is read by `errors.read_ints`: ASCII digits only (an optional '-'
for options), and no more digits than its bound has.

The command line is read from one table, `COMMANDS`, by `parse_args` in
one pass from left to right, without importing argparse (and gettext and
locale behind it) or building a parser in every process.

Each command imports the modules it runs inside its function, and nothing
but `errors` is imported here: with bytecode caching off, every process
compiles each module it imports, which would otherwise cost a short
request more than its answer.  Modules are imported whole (`from . import
chartab`), never as bound functions, so a function patched on its module
is the one called.

A process enters through `run` (`python -m wordcount.cli` and the
`wordcount` script), which calls `main` and then freezes the heap, so that
interpreter shutdown does not spend its full garbage collections on
objects the OS frees anyway.  `main` is the in-process entry point.
"""

import gc
import os
import sys
from types import SimpleNamespace

from .errors import (EmptyWord, ParseError, PredicateFailed, UnknownFamily,
                     UnsupportedParameter, WordcountError, WordSyntaxError,
                     read_ints)

USAGE_ERRORS = (ParseError, WordSyntaxError, EmptyWord, UnknownFamily,
                UnsupportedParameter)
MAX_N = 8
# Digit bounds of `isoclinic --n` (past it, any nontrivial quotient needs
# more than the search's 2^20 coset tuples) and of `--budget`.
MAX_LEVEL = 19
MAX_BUDGET = 2**64


def load_group(spec):
    if spec.startswith("builtin:"):
        from . import groups
        return groups.parse_builtin_spec(spec[len("builtin:"):])
    if spec.startswith("file:"):
        from . import fileio
        return fileio.import_group(spec[len("file:"):])
    raise UnsupportedParameter(
        f"group spec must be builtin:NAME(args) or file:PATH, got {spec!r}")


def _parse_domains(entries, G, arity):
    """Build only the subgroups that the entries name."""
    from . import counting, groups, words

    domains = [None] * arity
    for entry in entries or ():
        var, _, name = entry.partition("=")
        if not var.startswith("x") or name not in ("derived", "center"):
            raise UnsupportedParameter(
                f"domain must look like x1=derived or x1=center, got {entry!r}")
        (i,) = read_ints([var[1:]], words.MAX_LETTERS, lambda m:
                         UnsupportedParameter(f"--domain variable: {m}"))
        if not 1 <= i <= arity:
            raise UnsupportedParameter(f"variable x{i} out of range")
        if domains[i - 1] is not None:
            raise UnsupportedParameter(f"variable x{i} has more than one "
                                       "--domain")
        domains[i - 1] = (groups.commutator_subgroup(G) if name == "derived"
                          else groups.center(G))
    return counting.DomainSpec(tuple(domains))


def _print_class_values(columns, n, fmt, out):
    """Print whole-group answers, each a (name, ClassFunction) pair on the
    same classes: the class table with one column per answer, or the first
    answer as CSV with its probability over the |G|^n assignments."""
    G, classes = columns[0][1].group, columns[0][1].classes
    if fmt == "csv":
        from fractions import Fraction

        values, denom = columns[0][1].values, G.order ** n
        out.write("rep_label,class_size,count,probability_numerator,"
                  "probability_denominator\n")
        for m in range(classes.num_classes):
            prob = Fraction(int(values[m]), denom)
            label = str(G.label(classes.reps[m])).replace(",", " ")
            out.write(f"{label},{classes.sizes[m]},{values[m]},"
                      f"{prob.numerator},{prob.denominator}\n")
        return
    headers = ["class_rep", "size"] + [name for name, _ in columns]
    out.write("\t".join(headers) + "\n")
    for m in range(classes.num_classes):
        row = [str(G.label(classes.reps[m])), str(classes.sizes[m])]
        row += [str(zeta.values[m]) for _, zeta in columns]
        out.write("\t".join(row) + "\n")


def cmd_info(args, out):
    from . import formulas, groups

    G = load_group(args.group)
    classes = groups.conjugacy_classes(G)
    report = formulas.classify(G)
    nclass = report.nilpotency_class
    out.write(f"order {G.order}\n")
    out.write(f"classes {classes.num_classes}\n")
    out.write(f"exponent {G.exponent()}\n")
    out.write(f"center {groups.center(G).order}\n")
    out.write(f"derived {groups.commutator_subgroup(G).order}\n")
    out.write(f"class {nclass if nclass is not None else 'not-nilpotent'}\n")
    upper = [s.order for s in groups.upper_central_series(G)]
    lower = [s.order for s in groups.lower_central_series(G)]
    out.write(f"upper_central_series {upper}\n")
    out.write(f"lower_central_series {lower}\n")
    out.write(f"abelian {report.is_abelian}\n")
    out.write(f"camina_group {report.is_camina_group}\n")
    out.write(f"vz_group {report.is_vz}\n")
    out.write(f"character_degrees {sorted(report.cd)}\n")
    out.write(f"unique_nonlinear {report.unique_nonlinear}\n")
    return 0


def cmd_chartab(args, out):
    from . import fileio

    G = load_group(args.group)
    out.write(fileio.cached_character_table(G).text)
    return 0


def _check_budget(args):
    if args.budget <= 0:
        raise UnsupportedParameter(
            f"--budget must be positive, got {args.budget}")


def cmd_count(args, out):
    from . import counting, words

    _check_budget(args)
    if args.domain and args.format == "csv":
        raise UnsupportedParameter(
            "--format csv needs whole-group domains; with --domain, count "
            "prints per-element counts")
    G = load_group(args.group)
    word = words.parse(args.word)
    domains = _parse_domains(args.domain, G, word.arity)
    if domains.all_whole():
        result = counting.zeta_brute(G, word, budget=args.budget)
        _print_class_values([("count", result)], word.arity, args.format,
                            out)
    else:
        counts = counting.zeta_element_counts(G, word, domains,
                                              budget=args.budget)
        out.write("element\tcount\n")
        for g in range(G.order):
            out.write(f"{G.label(g)}\t{counts[g]}\n")
    return 0


def cmd_zeta(args, out):
    if not 2 <= args.n <= MAX_N:
        raise UnsupportedParameter(f"--n must be in 2..{MAX_N}")
    _check_budget(args)
    G = load_group(args.group)
    # brute first: it refuses over budget before anything else is built
    methods = ["brute", "char", "closed"] if args.method == "all" \
        else [args.method]
    columns = []
    for method in methods:
        if method == "brute":
            from . import counting, words
            zeta = counting.zeta_brute(G, words.wn(args.n),
                                       budget=args.budget)
        elif method == "char":
            from . import chartab, formulas
            zeta = formulas.zeta_wn_char(G, chartab.character_table(G),
                                         args.n)
        else:
            from . import formulas
            try:
                zeta = formulas.closed_form_zeta(G, args.n)
            except PredicateFailed:
                if args.method == "all":
                    continue
                raise
        columns.append((method, zeta))
    if len({zeta.values for _, zeta in columns}) != 1:
        sys.stderr.write("methods disagree\n")
        return 1
    _print_class_values(columns, args.n, args.format, out)
    return 0


def closed_form_zeta(G, table, n):
    """`formulas.closed_form_zeta`, which reads no table."""
    from . import formulas
    return formulas.closed_form_zeta(G, n)


def cmd_verify(args, out):
    from . import verification

    results = verification.run_suite(args.suite)
    for line in verification.format_results(results):
        out.write(line + "\n")
    failed = sum(1 for r in results if r.status == "FAIL")
    passed = sum(1 for r in results if r.status == "PASS")
    flagged = sum(1 for r in results if r.status == "FLAGGED")
    out.write(f"# {passed} passed, {failed} failed, {flagged} flagged\n")
    return 1 if failed else 0


def cmd_isoclinic(args, out):
    from . import isoclinism

    G = load_group(args.group)
    H = load_group(args.other)
    witness = isoclinism.find_isoclinism(G, H, args.n)
    if witness is None:
        out.write("not isoclinic\n")
        return 1
    out.write(f"isoclinic at level {args.n}\n")
    out.write(f"phi {list(witness.phi)}\n")
    out.write(f"psi {dict(sorted(witness.psi.items()))}\n")
    report = isoclinism.verify_scaling(witness)
    out.write(f"scaling_factor {report['factor']}\n")
    for g, h, value in report["checked"]:
        out.write(f"scaling {G.label(g)} -> {H.label(h)}: {value}\n")
    return 0


def _number(text, bound):
    """An integer as `read_ints` reads it, after an optional '-' that the
    command itself refuses where it must.  A refusal quotes the text as
    given, sign included."""
    digits = text.removeprefix("-")
    (value,) = read_ints([digits if digits.isascii() and digits.isdigit()
                          else text], bound, ValueError)
    return value if digits == text else -value


def _default_budget():
    from .groups import DEFAULT_BUDGET
    return DEFAULT_BUDGET


REQUIRED = object()
GROUP = ("group", None, REQUIRED, "builtin:NAME(args) or file:PATH")
FORMAT = ("format", ("table", "csv"), "table", "output layout")
BUDGET = ("budget", MAX_BUDGET, _default_budget,
          "most assignments brute force may count")
# command: (function, one-line help, options).  An option is (name, kind,
# default, help); its kind is None for text, a tuple of choices, an int
# (the bound `read_ints` reads it under) or `list` for text that may
# repeat, and its default REQUIRED, a value or a function giving one.
COMMANDS = {
    "info": (cmd_info, "group structure summary", [GROUP]),
    "chartab": (cmd_chartab, "print (and cache) the character table",
                [GROUP]),
    "count": (cmd_count, "brute-force fiber counts for a word", [
        GROUP, ("word", None, REQUIRED, "e.g. [x1,x2] or x1^2 x2^-1"),
        ("domain", list, None, "restrict a variable, e.g. x1=derived"),
        FORMAT, BUDGET]),
    "zeta": (cmd_zeta, "iterated-commutator counts by any method", [
        GROUP, ("n", MAX_N, REQUIRED, f"the word w_n, 2 <= n <= {MAX_N}"),
        ("method", ("brute", "char", "closed", "all"), "all",
         "all cross-checks the others"), FORMAT, BUDGET]),
    "verify": (cmd_verify, "run a verification suite", [
        ("suite", None, "all", "one suite, or all")]),
    "isoclinic": (cmd_isoclinic, "search for an n-isoclinism", [
        GROUP, ("other", None, REQUIRED, "the second group, as --group"),
        ("n", MAX_LEVEL, 1, "the level, at least 1")]),
}


def _error(message):
    """Write `error: message` as one stderr line, whatever the message
    echoes: a line break in it is written as its escape."""
    sys.stderr.write("error: " + message.replace("\r", "\\r")
                     .replace("\n", "\\n") + "\n")


def _refuse(message):
    _error(message)
    raise SystemExit(2)


def _usage(command):
    """The help text of one command, or of all of them for None."""
    if command is None:
        head = ("COMMAND [--OPTION VALUE]...\n\nExact solution counts of "
                "commutator word equations in finite groups.\n\ncommands:")
        rows = [(name, about) for name, (_, about, _) in COMMANDS.items()]
        tail = ("\nAn option is --name VALUE or --name=VALUE, and its name "
                "may be cut to\nany prefix no other option of the command "
                "starts with.\n`wordcount COMMAND -h` lists a command's "
                "options.\n")
    else:
        _, about, options = COMMANDS[command]
        head = f"{command} [--OPTION VALUE]...\n\n{about}\n\noptions:"
        rows, tail = [], ""
        for name, kind, default, text in options:
            value = ("{" + ",".join(kind) + "}" if isinstance(kind, tuple)
                     else "N" if isinstance(kind, int) else name.upper())
            note = ("required" if default is REQUIRED
                    else "may repeat" if kind is list else
                    f"default {default() if callable(default) else default}")
            rows.append((f"--{name} {value}", f"{text} ({note})"))
        rows.append(("-h, --help", "print this help and exit"))
    width = max(len(left) for left, _ in rows)
    return "".join([f"usage: wordcount {head}\n",
                    *(f"  {left:{width}}  {text}\n" for left, text in rows),
                    tail])


def parse_args(argv=None):
    """The command line read from `COMMANDS`: `-h` or `--help` alone, or
    `COMMAND (--NAME VALUE | --NAME=VALUE | -h)...`.  NAME is an option of
    the command, in full or cut to a prefix no other option starts with; a
    VALUE given as its own token may start with '-' only as '-' and ASCII
    digits; a repeated option keeps its last value, and `--domain` collects
    them all.  `-h`, or a prefix of `--help`, prints the command's help and
    exits 0 when it is reached.  Anything else is refused with one
    `error: ...` line and SystemExit(2).  Returns a namespace of `command`,
    `fn` and one attribute per option of the command."""
    tokens = sys.argv[1:] if argv is None else list(argv)
    command = tokens[0] if tokens else None
    if command in ("-h", "--help"):
        sys.stdout.write(_usage(None))
        raise SystemExit(0)
    if command not in COMMANDS:
        _refuse(("missing command" if command is None else
                 f"invalid command {command!r}")
                + f" (choose from {', '.join(COMMANDS)})")
    fn, _, options = COMMANDS[command]
    kinds = {name: kind for name, kind, _, _ in options}
    values = {name: default for name, _, default, _ in options}
    rest = iter(tokens[1:])
    for token in rest:
        if token == "-h":
            token = "--help"
        name, eq, value = token[2:].partition("=")
        found = [n for n in (*kinds, "help") if n.startswith(name)]
        if token[:2] != "--" or len(found) != 1 or found == ["help"] and eq:
            _refuse(f"unrecognized argument {token!r}")
        if found == ["help"]:
            sys.stdout.write(_usage(command))
            raise SystemExit(0)
        name, kind = found[0], kinds[found[0]]
        if not eq:
            value = next(rest, None)
            if value is None:
                _refuse(f"argument --{name}: expected a value")
            if value[:1] == "-" and not (value[1:].isdigit()
                                         and value.isascii()):
                _refuse(f"argument --{name}: expected a value, got "
                        f"{value!r} (write --{name}=VALUE for it)")
        if kind is list:
            value = [*(values[name] or ()), value]
        elif isinstance(kind, int):
            try:
                value = _number(value, kind)
            except ValueError as exc:
                _refuse(f"argument --{name}: {exc}")
        elif kind and value not in kind:
            _refuse(f"argument --{name}: invalid choice: {value!r} (choose "
                    f"from {', '.join(map(repr, kind))})")
        values[name] = value
    missing = [f"--{name}" for name, value in values.items()
               if value is REQUIRED]
    if missing:
        _refuse("the following arguments are required: "
                + ", ".join(missing))
    return SimpleNamespace(command=command, fn=fn, **{
        name: value() if callable(value) else value
        for name, value in values.items()})


def main(argv=None):
    args = parse_args(argv)
    try:
        code = args.fn(args, sys.stdout)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except USAGE_ERRORS as exc:
        _error(str(exc))
        return 2
    except (WordcountError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            # the interpreter flushes stdout again at exit; let that succeed
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _error(f"{type(exc).__name__}: {exc}")
        return 1


def run():
    """`main`, then `gc.freeze()` whatever happens: every live object moves
    to the collector's permanent generation, which shutdown's collections
    skip.  Shutdown still runs `atexit` handlers, flushes stdio and frees
    what reference counting reaches."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
