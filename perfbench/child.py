"""Processes the benchmark starts: a traced CLI request, or a catalog session.

    python3 perfbench/child.py cli SPANS REQUEST_ID -- ARGS...
    python3 perfbench/child.py session PLAN OUT [SPANS]

`cli` runs `wordcount.cli.main(ARGS)` with span recording on and writes
the spans to SPANS.  `session` asks the library the catalog questions about
every group of PLAN (JSON) in one process, writes the answers, their CPU
times and their start and end on the monotonic clock to OUT, and records
spans when SPANS is given.
Untraced CLI requests do not come here: they run `python3 -m wordcount.cli`.
"""
from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

import spans

BRUTE_MAX = 4096   # |G|^n at or below this gets the brute-force question


def run_cli(spans_path, request, argv):
    rec = spans.Recorder()
    rec.install()
    rec.request = request
    from wordcount import cli
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        rec.dump(spans_path)
    return code


def _class_values(cf):
    return {str(rep): int(v) for rep, v in zip(cf.classes.reps, cf.values)}


def _table(t):
    return {"e": t.exponent,
            "classes": [[r, s] for r, s in zip(t.classes.reps,
                                               t.classes.sizes)],
            "rows": [[list(v.coeffs) for v in row] for row in t.values]}


def _report(r):
    return {"is_abelian": r.is_abelian, "nilpotency_class": r.nilpotency_class,
            "is_camina_group": r.is_camina_group, "is_vz": r.is_vz,
            "cd": sorted(r.cd), "unique_nonlinear": r.unique_nonlinear}


def session(plan, rec=None):
    """Answer every question of the plan; returns the answer records."""
    from wordcount import chartab, cli, counting, formulas, groups, words
    from wordcount.errors import PredicateFailed

    records = []   # [group, question, start, end, cpu_s, status, result,
    #                 serializer]

    def ask(gname, question, fn, serialize):
        if rec is not None:
            rec.request = f"{gname}/{question}"
        t0, c0 = time.monotonic(), time.process_time()
        try:
            result, status = fn(), "ok"
        except PredicateFailed:
            result, status = None, "none"
        except Exception as exc:  # noqa: BLE001 - a failed request is data
            result, status = f"{type(exc).__name__}: {exc}", "error"
        cpu = time.process_time() - c0
        records.append([gname, question, t0, time.monotonic(), cpu, status,
                        result, serialize])
        return result if status == "ok" else None

    for entry in plan:
        name = entry["name"]
        if "spec" in entry:
            G = ask(name, "build", lambda: groups.parse_builtin_spec(
                entry["spec"][len("builtin:"):]), lambda G: G.order)
        else:
            degree, gens = entry["perm"]
            G = ask(name, "build", lambda: groups.from_permutation_generators(
                degree, gens), lambda G: G.order)
        if G is None:
            continue
        table = ask(name, "table", lambda: chartab.character_table(G), _table)
        if table is None:
            continue
        zeta2 = None
        for n in range(2, 6):
            z = ask(name, f"char{n}", lambda n=n: formulas.zeta_wn_char(
                G, chartab.character_table(G), n), _class_values)
            zeta2 = z if n == 2 else zeta2
        for n in (2, 3):
            if G.order ** n <= BRUTE_MAX:
                ask(name, f"brute{n}", lambda n=n: counting.zeta_brute(
                    G, words.wn(n),
                    classes=chartab.character_table(G).classes), _class_values)
        report = ask(name, "classify", lambda: formulas.classify(
            G, chartab.character_table(G)), _report)
        ask(name, "closed3", lambda: cli.closed_form_zeta(
            G, chartab.character_table(G), 3), _class_values)
        if report is not None and not report.is_abelian:
            ask(name, "mixed", lambda: formulas.zeta_mixed_theorem21(
                G, groups.commutator_subgroup(G), words.parse("x1"),
                words.parse("x1"), chartab.character_table(G)), list)
        if zeta2 is not None:
            ask(name, "inner2", lambda: [
                chartab.inner_product(chartab.character_table(G), zeta2, r)
                for r in range(table.num_characters)],
                lambda v: [str(Fraction(x)) for x in v])
    return [{"group": g, "q": q, "start": t0, "end": t1, "cpu_s": cpu,
             "status": status, "value": ser(res) if status == "ok" else res}
            for g, q, t0, t1, cpu, status, res, ser in records]


def main(argv):
    if argv[0] == "cli":
        if argv[3] != "--":
            raise SystemExit("usage: child.py cli SPANS REQUEST_ID -- ARGS")
        return run_cli(argv[1], argv[2], argv[4:])
    if argv[0] == "session":
        with open(argv[1], encoding="utf-8") as fh:
            plan = json.load(fh)
        rec = None
        if len(argv) > 3:
            rec = spans.Recorder()
            rec.install()
        records = session(plan, rec)
        with open(argv[2], "w", encoding="utf-8") as fh:
            json.dump({"requests": records}, fh)
        if rec is not None:
            rec.dump(argv[3])
        return 0
    raise SystemExit(f"unknown mode {argv[0]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
