"""Command-line interface.

Exit codes: 0 all checks pass, 1 a computation or verification failed,
2 usage error.  FLAGGED verification lines never affect the exit code.
Every error is one stderr line, argparse's own included.  Every integer
argument is read by `errors.read_ints`: ASCII digits only (an optional '-'
for options), and no more digits than its bound has.

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
from __future__ import annotations

import argparse
import gc
import os
import sys

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
    from . import chartab, fileio

    G = load_group(args.group)
    table = fileio.cached_character_table(G)
    out.write(chartab.dump_table(table))
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


class _OneLineParser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _number(bound):
    """argparse type: an integer as `read_ints` reads it, after an optional
    '-' that the command itself refuses where it must."""
    def read(text):
        digits = text.removeprefix("-")
        (value,) = read_ints([digits], bound, argparse.ArgumentTypeError)
        return value if digits == text else -value
    return read


def build_parser():
    from .groups import DEFAULT_BUDGET

    parser = _OneLineParser(
        prog="wordcount",
        description="Exact solution counts of commutator word equations "
                    "in finite groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    def group_arg(p, name="--group"):
        p.add_argument(name, required=True,
                       help="builtin:NAME(args) or file:PATH")

    def budget_arg(p):
        p.add_argument("--budget", type=_number(MAX_BUDGET),
                       default=DEFAULT_BUDGET,
                       help="most assignments brute force may count")

    p = add("info", cmd_info, help="group structure summary")
    group_arg(p)
    p = add("chartab", cmd_chartab, help="print (and cache) the character table")
    group_arg(p)
    p = add("count", cmd_count, help="brute-force fiber counts for a word")
    group_arg(p)
    p.add_argument("--word", required=True)
    p.add_argument("--domain", action="append",
                   help="restrict a variable, e.g. x1=derived")
    p.add_argument("--format", choices=("table", "csv"), default="table")
    budget_arg(p)
    p = add("zeta", cmd_zeta, help="iterated-commutator counts by any method")
    group_arg(p)
    p.add_argument("--n", type=_number(MAX_N), required=True)
    p.add_argument("--method", choices=("brute", "char", "closed", "all"),
                   default="all")
    p.add_argument("--format", choices=("table", "csv"), default="table")
    budget_arg(p)
    p = add("verify", cmd_verify, help="run a verification suite")
    p.add_argument("--suite", default="all",
                   help="one suite, or all (the default)")
    p = add("isoclinic", cmd_isoclinic, help="search for an n-isoclinism")
    group_arg(p)
    group_arg(p, "--other")
    p.add_argument("--n", type=_number(MAX_LEVEL), default=1)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args, sys.stdout)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except USAGE_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (WordcountError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            # the interpreter flushes stdout again at exit; let that succeed
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
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
