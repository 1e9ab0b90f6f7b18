"""wordcount benchmark: three seeded workloads, checked against an
independent reference, with a separate traced run for per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ./src.  With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced pass, the tracing overhead against an untraced pass and
the `verify --suite all` gate timing.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracle
import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
# A setup probe (a fresh interpreter importing wordcount.cli) runs before
# every SETUP_EVERY-th CLI request and SESSION_PROBES times before each
# catalog session, so the probes sample the whole run.
SETUP_CMD = [sys.executable, "-c", "import wordcount.cli"]
SETUP_EVERY = 3
SESSION_PROBES = 5
GATE_LIMIT_S = 120.0
END_TO_END = [("setup_s", "s"), ("total_s", "s"), ("task_p50_s", "s"),
              ("task_tail_s", "s"), ("peak_rss_mb", "MB")]


# ---------------------------------------------------------------------------
# processes


class Finished:
    """One finished child process."""

    def __init__(self, start, end, cpu, code, timed_out, rss_kb, out, err):
        self.start, self.end, self.latency = start, end, end - start
        self.cpu, self.code, self.timed_out = cpu, code, timed_out
        self.rss_mb = rss_kb / 1024
        self.out, self.err = out, err


def spawn(cmd, env, limit, scratch, sampler):
    """Run `cmd` to completion or until `limit` seconds pass, then kill it,
    taking a speed sample every speed.INTERVAL_S meanwhile.  Returns its
    start and end, CPU time, exit code and peak RSS (from wait4)."""
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    killed = False
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env,
                                stdin=subprocess.DEVNULL)
        pidfd = os.pidfd_open(proc.pid)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if not killed and time.monotonic() - t0 > limit:
                    proc.kill()
                    killed = True
                sampler.take()
                select.select([pidfd], [], [], speed.INTERVAL_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(pidfd)
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(t0, t1, usage.ru_utime + usage.ru_stime,
                    proc.returncode, killed, usage.ru_maxrss,
                    out_path.read_text(encoding="utf-8", errors="replace"),
                    err_path.read_text(encoding="utf-8", errors="replace"))


def probe_setup(env, scratch, sampler):
    """CPU seconds for a fresh interpreter to import wordcount.cli, scaled
    to reference speed."""
    done = spawn(SETUP_CMD, env, 60, scratch, sampler)
    if done.code != 0:
        raise RuntimeError(f"import wordcount.cli failed: {done.err}")
    return done.cpu * sampler.factor(done.start, done.end)


def run_gate(env, scratch, sampler):
    scratch.mkdir(parents=True)
    done = spawn([sys.executable, "-m", "wordcount.cli", "verify",
                  "--suite", "all"], env, GATE_LIMIT_S, scratch, sampler)
    counts = {s: sum(1 for ln in done.out.splitlines() if ln.startswith(s))
              for s in ("PASS", "FAIL", "FLAGGED")}
    state = ("timed out" if done.timed_out else f"exit {done.code}")
    print(f"gate  verify --suite all: {done.latency:.2f} s, {state}, "
          f"PASS={counts['PASS']} FAIL={counts['FAIL']} "
          f"FLAGGED={counts['FLAGGED']} (informational, not gated)")


# ---------------------------------------------------------------------------
# passes


class Pass:
    """One run through a workload's request list.  Times in `times` and
    `setup` are CPU seconds scaled to reference speed (see speed.py)."""

    def __init__(self):
        self.times = {}        # request id -> time, finished requests only
        self.wall = 0.0        # wall seconds of all requests, unscaled
        self.factors = []      # speed factor of each request
        self.rss_mb = 0.0
        self.outcomes = []     # (Request, Finished) or ("group", answers)
        self.span_files = []
        self.traced_latency = {}   # span file -> latency of its CLI request
        self.setup = []            # setup probe times


def cli_pass(wl, env, scratch, traced, sampler):
    p = Pass()
    probe_env = env
    env = dict(env, WORDCOUNT_CACHE=str(scratch / "cache"))
    for i, req in enumerate(wl.requests):
        if not traced and i % SETUP_EVERY == 0:
            p.setup.append(probe_setup(probe_env, scratch, sampler))
        if traced:
            span_file = scratch / f"spans-{req.rid}.json"
            cmd = [sys.executable, str(HERE / "child.py"), "cli",
                   str(span_file), req.rid, "--", *req.argv]
            p.span_files.append(span_file)
        else:
            cmd = [sys.executable, "-m", "wordcount.cli", *req.argv]
        done = spawn(cmd, env, workloads.REQUEST_LIMIT_S[wl.name], scratch,
                     sampler)
        p.wall += done.latency
        if not done.timed_out:
            factor = sampler.factor(done.start, done.end)
            p.factors.append(factor)
            p.times[req.rid] = done.cpu * factor
        p.rss_mb = max(p.rss_mb, done.rss_mb)
        p.outcomes.append((req, done))
        if traced:
            p.traced_latency[span_file] = done.latency
    return p


def session_pass(wl, env, scratch, traced, sampler):
    p = Pass()
    plan_path, out_path = scratch / "plan.json", scratch / "answers.json"
    plan_path.write_text(json.dumps(wl.plan), encoding="utf-8")
    cmd = [sys.executable, str(HERE / "child.py"), "session", str(plan_path),
           str(out_path)]
    if traced:
        p.span_files.append(scratch / "spans-session.json")
        cmd.append(str(p.span_files[0]))
    else:
        p.setup = [probe_setup(env, scratch, sampler)
                   for _ in range(SESSION_PROBES)]
    done = spawn(cmd, env, workloads.SESSION_LIMIT_S, scratch, sampler)
    p.rss_mb = done.rss_mb
    if done.code != 0:
        p.outcomes.append(("session", done))
        return p
    answers = json.loads(out_path.read_text(encoding="utf-8"))
    # A request is one group's questions, asked back to back.
    by_group = {}
    for rec in answers["requests"]:
        by_group.setdefault(rec["group"], []).append(rec)
    for name, records in by_group.items():
        factor = sampler.factor(min(rec["start"] for rec in records),
                                max(rec["end"] for rec in records))
        p.factors.append(factor)
        p.times[name] = factor * sum(rec["cpu_s"] for rec in records)
        p.wall += sum(rec["end"] - rec["start"] for rec in records)
        p.outcomes.append(("group", records))
    return p


def run_pass(wl, env, scratch, traced, sampler):
    scratch.mkdir(parents=True)
    if wl.name == "catalog-session":
        return session_pass(wl, env, scratch, traced, sampler)
    return cli_pass(wl, env, scratch, traced, sampler)


# ---------------------------------------------------------------------------
# checking against the reference


class Checker:
    """Builds each group once through the package's constructors (the input)
    and checks answers against `oracle.Reference` on its Cayley table."""

    def __init__(self):
        from wordcount import fileio, groups
        self._fileio, self._groups = fileio, groups
        self._cache = {}

    def group(self, key):
        if key not in self._cache:
            if isinstance(key, tuple):
                G = self._groups.from_permutation_generators(
                    key[0], [list(g) for g in key[1]])
            elif key.startswith("builtin:"):
                G = self._groups.parse_builtin_spec(key[len("builtin:"):])
            else:
                G = self._fileio.import_group(key[len("file:"):])
            labels = {G.label(a): a for a in range(G.order)}
            self._cache[key] = (G, oracle.Reference(G.mul), labels)
        return self._cache[key]

    # -- CLI outputs ------------------------------------------------------

    def cli(self, check, out):
        """Problems with one CLI request's standard output."""
        kind = check[0]
        if kind == "chartab":
            _, ref, _ = self.group(check[1])
            return oracle.table_problems(ref, *oracle.parse_table_text(out))
        if kind == "info":
            _, ref, _ = self.group(check[1])
            return self._info(ref, out)
        if kind == "zeta":
            _, spec, n, method = check
            _, ref, labels = self.group(spec)
            return self._class_table(ref, labels, out, ref.zeta_wn(n),
                                     method)
        if kind == "count":
            _, spec, expr, domains = check
            _, ref, labels = self.group(spec)
            counts = ref.word_counts(expr, domains)
            if not domains:
                per_class = [counts[c[0]] for c in ref.classes]
                return self._class_table(ref, labels, out, per_class, "count")
            rows = [ln.split("\t") for ln in out.splitlines()[1:]]
            got = {labels[lab]: int(v) for lab, v in rows}
            return [] if got == dict(enumerate(counts)) else \
                ["element counts differ from the reference"]
        if kind == "isoclinic":
            return self._isoclinic(check, out)
        raise ValueError(kind)

    def _info(self, ref, out):
        lines = dict(ln.split(" ", 1) for ln in out.splitlines())
        problems = [f"{key} is {lines.get(key)!r}, expected {want!r}"
                    for key, want in oracle.info_expected(ref).items()
                    if lines.get(key) != want]
        if ref.n > 1:
            cd = set(json.loads(lines.get("character_degrees", "[]")))
            problems += oracle.degree_set_problems(ref, cd)
            unique = ref.k - ref.n // len(ref.derived()) == 1
            if lines.get("unique_nonlinear") != str(unique):
                problems.append(f"unique_nonlinear should be {unique}")
        return problems

    def _class_table(self, ref, labels, out, want, method):
        rows = [ln.split("\t") for ln in out.splitlines()]
        columns = rows[0][2:]
        expected = {"all": ["brute", "char", "closed"]}.get(method, [method])
        if columns != expected and not (
                method == "all" and columns == ["brute", "char"]):
            return [f"columns {columns}, expected {expected}"]
        seen = set()
        for row in rows[1:]:
            g = labels[row[0]]
            c = ref.class_of[g]
            seen.add(c)
            if int(row[1]) != ref.sizes[c]:
                return [f"class of {row[0]} has size {ref.sizes[c]}"]
            if any(int(v) != want[c] for v in row[2:]):
                return [f"counts at {row[0]} are {row[2:]}, "
                        f"expected {want[c]}"]
        return [] if len(seen) == ref.k == len(rows) - 1 else \
            ["rows do not cover every class once"]

    def _isoclinic(self, check, out):
        _, g_spec, h_spec, n = check
        G, ref_g, labels_g = self.group(g_spec)
        H, ref_h, labels_h = self.group(h_spec)
        lines = out.splitlines()
        if not lines or lines[0] != f"isoclinic at level {n}":
            return ["no isoclinism found"]
        factor = oracle.isoclinism_factor(G.order, H.order, n)
        zg, zh = ref_g.zeta_wn(n + 1), ref_h.zeta_wn(n + 1)
        scaled = 0
        for ln in lines:
            if ln.startswith("scaling_factor "):
                if Fraction(ln.split(" ", 1)[1]) != factor:
                    return [f"{ln}, expected {factor}"]
            elif ln.startswith("scaling "):
                pair, value = ln[len("scaling "):].rsplit(": ", 1)
                g, h = pair.split(" -> ")
                gi, hi = labels_g[g], labels_h[h]
                if Fraction(value) != zg[ref_g.class_of[gi]] or \
                        Fraction(value) != factor * zh[ref_h.class_of[hi]]:
                    return [f"scaling at {g} -> {h} is {value}"]
                scaled += 1
        if scaled != len(ref_g.derived()):
            return [f"{scaled} scaling lines, expected |G'|"]
        return []

    # -- catalog-session answers ------------------------------------------

    def record(self, entry, rec, state):
        """Problems with one catalog answer; `state` carries the group's
        character degrees from its table answer."""
        key = entry.get("spec") or (entry["perm"][0],
                                    tuple(map(tuple, entry["perm"][1])))
        _, ref, _ = self.group(key)
        q, value, status = rec["q"], rec["value"], rec["status"]
        if status == "none" and q == "closed3":
            return ["no closed form for a VZ group"] if ref.is_vz() else []
        if status != "ok":
            return [f"{status}: {value}"]
        if q == "build":
            return [] if value == ref.n else ["wrong order"]
        if q == "table":
            ident = [rep for rep, _ in value["classes"]].index(0)
            state["degrees"] = [row[ident][0] for row in value["rows"]]
            return oracle.table_problems(
                ref, value["e"], [tuple(c) for c in value["classes"]],
                [[tuple(v) for v in row] for row in value["rows"]])
        if q.startswith(("char", "brute", "closed")):
            n = int(q[-1])
            want = ref.zeta_wn(n)
            got = {ref.class_of[int(rep)]: v for rep, v in value.items()}
            return [] if got == dict(enumerate(want)) else \
                [f"zeta_{n} differs from the reference"]
        if q == "classify":
            degrees = state.get("degrees", [])
            want = {"is_abelian": len(ref.center()) == ref.n,
                    "nilpotency_class": ref.nilpotency_class(),
                    "is_camina_group": ref.is_camina_group(),
                    "is_vz": ref.is_vz(), "cd": sorted(set(degrees)),
                    "unique_nonlinear":
                        sum(1 for d in degrees if d > 1) == 1}
            return [f"{k} is {value[k]}, expected {v}"
                    for k, v in want.items() if value[k] != v]
        if q == "mixed":
            want = ref.word_counts(("comm", ("var", 1), ("var", 2)),
                                   {1: "derived"})
            return [] if value == want else ["mixed counts differ"]
        if q == "inner2":
            # <zeta_2, chi> = |G|/chi(1) by Frobenius' formula
            mults = [Fraction(v) for v in value]
            if any(m.denominator != 1 or m <= 0 or ref.n % m for m in mults):
                return ["a multiplicity is not a divisor of |G|"]
            degrees = [ref.n // int(m) for m in mults]
            return oracle.degrees_problems(ref, degrees)
        raise ValueError(q)


def check_pass(wl, p, checker, failures):
    """Count failed requests of one pass; returns (attempted, failed, wrong).
    A documented known defect that fails is failed but not wrong."""
    attempted = failed = wrong = 0
    names = {e["name"]: e for e in wl.plan}
    for label, done in p.outcomes:
        attempted += 1
        state = {}
        if label == "session":
            failed += 1
            wrong += 1
            failures.append(f"session exited {done.code}: {done.err[-300:]}")
            continue
        if label == "group":
            problems = []
            for rec in done:
                try:
                    problems += [f"{rec['group']}/{rec['q']}: {why}"
                                 for why in checker.record(
                                     names[rec["group"]], rec, state)]
                except (KeyError, ValueError, IndexError, TypeError) as exc:
                    problems.append(f"{rec['group']}/{rec['q']}: "
                                    f"unreadable answer: {exc!r}")
            if problems:
                failed += 1
                wrong += 1
                failures.append(problems[0])
            continue
        req = label
        if done.timed_out or done.code != 0:
            failed += 1
            why = "timed out" if done.timed_out else f"exit {done.code}"
            if req.known_defect:
                failures.append(f"{req.rid} known defect, {why}: "
                                f"{' '.join(req.argv)}")
            else:
                wrong += 1
                failures.append(f"{req.rid} {why}: {' '.join(req.argv)} "
                                f"{done.err.strip()[-300:]}")
            continue
        try:
            problems = checker.cli(req.check, done.out)
        except (KeyError, ValueError, IndexError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            failed += 1
            wrong += 1
            failures.append(f"{req.rid} {' '.join(req.argv)}: {problems[0]}")
    return attempted, failed, wrong


# ---------------------------------------------------------------------------
# report


def tail(latencies):
    """(value, percentile): the highest percentile with >= 10 samples above."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[0], 0.0
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(passes):
    """Each request's time is its median over the passes it finished in,
    which filters out a load burst that hit one pass; total_s is the sum
    of those.  A request killed at its time limit has no time."""
    rids = list(dict.fromkeys(r for p in passes for r in p.times))
    lat = [statistics.median(p.times[r] for p in passes if r in p.times)
           for r in rids]
    value, pct = tail(lat) if lat else (0.0, 0.0)
    metrics = {
        "setup_s": statistics.median(x for p in passes for x in p.setup),
        "total_s": sum(lat),
        "task_p50_s": statistics.median(lat) if lat else 0.0,
        "task_tail_s": value,
        "peak_rss_mb": max(p.rss_mb for p in passes),
    }
    return metrics, pct, len(lat)


def layer_summary(p):
    """Per-layer metrics of a traced pass.  A request killed at its time
    limit leaves no spans and is left out."""
    acc = spans.summarize([], dict.fromkeys(spans.COUNTED, 0))
    latency = 0.0
    for path in p.span_files:
        if path.is_file():
            data = json.loads(path.read_text(encoding="utf-8"))
            acc = spans.merge(acc, spans.summarize(data["spans"],
                                                   data["counts"]))
            latency += p.traced_latency.get(path, 0.0)
    return spans.layer_metrics(acc, latency)


def write_spans(p, path):
    """All spans of a traced pass, one JSON object per line; `parent` is the
    `id` of the parent span in the same `file`."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for span_file in p.span_files:
            if not span_file.is_file():
                continue
            data = json.loads(span_file.read_text(encoding="utf-8"))
            for i, s in enumerate(data["spans"]):
                fh.write(json.dumps({
                    "file": span_file.name, "id": i, "name": s[0],
                    "layer": s[1], "start_ns": s[2], "end_ns": s[3],
                    "parent": s[4], "request": s[5], "extra": s[6]}) + "\n")


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run(args, root, tmp, env):
    rel_tmp = tmp.relative_to(root).as_posix()
    wl = workloads.build(args.workload, args.seed, rel_tmp)
    for rel, text in wl.files.items():
        (root / rel).write_text(text, encoding="utf-8")
    checker = Checker()
    failures = []
    print(f"workload {wl.name}  seed {wl.seed}  closed loop, 1 client")
    for r in wl.requests:
        if r.known_defect:
            print(f"known defect {r.rid}: {' '.join(r.argv)} -- "
                  f"{r.known_defect}")

    sampler = speed.Sampler()
    if args.trace:
        run_gate(env, tmp / "gate", sampler)
        plain = run_pass(wl, env, tmp / "plain", False, sampler)
        traced = run_pass(wl, env, tmp / "traced", True, sampler)
        passes = [plain, traced]
    else:
        probe_setup(env, tmp, sampler)    # writes the bytecode caches
        count = max(1, round(args.seconds / workloads.NOMINAL_PASS_S[wl.name]))
        passes = [run_pass(wl, env, tmp / f"pass{i}", False, sampler)
                  for i in range(count)]

    attempted = failed = wrong = 0
    for p in passes:
        a, f, w = check_pass(wl, p, checker, failures)
        attempted, failed, wrong = attempted + a, failed + f, wrong + w
    for line in failures[:20]:
        print(f"FAIL {line}")

    if args.trace:
        metrics = layer_summary(traced)
        out_path = root / ".perfbench-out" / \
            f"spans-{wl.name}-seed{wl.seed}.jsonl"
        write_spans(traced, out_path)
        print(f"{'per-layer metric':30s} {'value':>14s}  unit")
        for name, unit, _ in spans.LAYER_METRICS:
            print(f"{name:30s} {fmt(metrics[name]):>14s}  {unit}")
        idle = [name for name, _, _ in spans.LAYER_METRICS
                if wl.name in spans.DRIVEN_ON[name] and not metrics[name]]
        print(f"metrics this workload drives that read 0: {idle or 'none'}")
        t, u = sum(traced.times.values()), sum(plain.times.values())
        print(f"tracing overhead: traced {t:.3f} s - untraced {u:.3f} s = "
              f"{t - u:.3f} s of scaled CPU time (wall: {traced.wall:.3f} s "
              f"- {plain.wall:.3f} s)")
        print(f"spans written to {out_path.relative_to(root).as_posix()}")
        units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
    else:
        metrics, pct, samples = end_to_end(passes)
        units = dict(END_TO_END)
        factors = [f for p in passes for f in p.factors]
        print(f"{len(passes)} pass(es) of {samples} timed requests; wall "
              f"time of the requests per pass: "
              f"{', '.join(f'{p.wall:.2f} s' for p in passes)}")
        print(f"times below are CPU seconds scaled to reference speed by "
              f"factors {min(factors):.3f}..{max(factors):.3f} "
              f"(median {statistics.median(factors):.3f}); a request's time "
              f"is its median over the passes")
        for name, unit in END_TO_END:
            note = (f"  (p{pct:.1f} of {samples} requests)"
                    if name == "task_tail_s" else "")
            print(f"{name:12s} {metrics[name]:12.6f} {unit}{note}")
        print(f"{'fail_frac':12s} {failed / attempted:12.6f}      "
              f"({failed} of {attempted} requests)")
    print(json.dumps({
        "correct": wrong == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "wordcount" / "cli.py").is_file():
        print("perfbench: ./src/wordcount not found; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    speed.pin()
    # turn SIGTERM into SystemExit so the cleanup below and in spawn runs
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    tmp = root / ".perfbench-tmp" / str(os.getpid())
    tmp.mkdir(parents=True)
    try:
        return run(args, root, tmp, env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
