"""The three benchmark workloads, generated from a seed.

Every workload is a closed loop with one client: the next request is sent
only after the previous one has finished.  No request passes --workers, so
the program's default is what gets measured.

The seed picks generating sets of permutation groups, groups from pools of
equal brute-force cost and the request order.  It picks nothing whose cost
differs, so the amount of work does not depend on the seed and a run's
times stay comparable across seeds.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from oracle import render

# Nominal wall seconds of one pass on 2 vCPUs of a shared Xeon host with
# Python 3.11; a run makes round(--seconds / nominal) passes, at least one.
NOMINAL_PASS_S = {"catalog-session": 6.5, "tables-cli": 32.0,
                  "brute-cli": 28.0}
# Per-request limit for CLI requests; a request over it is killed and
# counted as failed.
REQUEST_LIMIT_S = {"tables-cli": 90.0, "brute-cli": 10.0}
SESSION_LIMIT_S = 150.0


@dataclass
class Request:
    """One CLI request: its arguments and what the reference checks."""

    rid: str
    argv: list
    check: tuple
    known_defect: str = ""


@dataclass
class Workload:
    name: str
    seed: int
    requests: list = field(default_factory=list)   # CLI workloads
    plan: list = field(default_factory=list)       # catalog-session
    files: dict = field(default_factory=dict)      # relative path -> text


# ---------------------------------------------------------------------------
# permutation groups from seeded random generators


def perm_closure(degree, gens):
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(p[g[i]] for i in range(degree))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def random_generators(rng, degree, gens):
    """As many random elements as `gens` has that generate the same group,
    conjugated by a random relabeling of the points."""
    elements = sorted(perm_closure(degree, gens))
    order = len(elements)
    for _ in range(10000):
        pick = [rng.choice(elements) for _ in gens]
        if len(perm_closure(degree, pick)) == order:
            break
    else:
        raise RuntimeError("no generating set found")
    relabel = list(range(degree))
    rng.shuffle(relabel)
    inverse = [0] * degree
    for i, r in enumerate(relabel):
        inverse[r] = i
    # sigma^-1 g sigma as an image list
    return [[relabel[g[inverse[i]]] for i in range(degree)] for g in pick]


def perm_file(degree, gens):
    lines = [f"perm {degree} {len(gens)}"]
    lines += [" ".join(map(str, g)) for g in gens]
    return "\n".join(lines) + "\n"


# Fixed permutation groups; a seed picks random generators for each.
PERM_TARGETS = [
    (4, [(1, 0, 2, 3), (1, 2, 3, 0)]),                    # S4
    (4, [(1, 2, 0, 3), (0, 2, 3, 1)]),                    # A4
    (4, [(1, 2, 3, 0), (3, 2, 1, 0)]),                    # D8
    (5, [(1, 2, 3, 4, 0), (0, 2, 4, 1, 3)]),              # AGL(1,5)
    (5, [(1, 2, 3, 4, 0), (0, 4, 3, 2, 1)]),              # D10
    (6, [(1, 0, 2, 3, 4, 5), (1, 2, 0, 3, 4, 5),
         (0, 1, 2, 4, 5, 3)]),                            # S3 x C3
    (6, [(1, 2, 3, 0, 4, 5), (3, 2, 1, 0, 4, 5),
         (0, 1, 2, 3, 5, 4)]),                            # D8 x C2
    (6, [(1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1)]),        # D12
    (7, [(1, 0, 2, 3, 4, 5, 6), (1, 2, 0, 3, 4, 5, 6),
         (0, 1, 2, 4, 5, 6, 3)]),                         # S3 x C4
]

# Builtin groups of order <= 32 that every catalog pass visits.
CATALOG_BUILTINS = [
    "cyclic(2)", "cyclic(5)", "cyclic(7)", "cyclic(12)", "cyclic(16)",
    "cyclic(30)",
    "dihedral(6)", "dihedral(8)", "dihedral(10)", "dihedral(12)",
    "dihedral(16)", "dihedral(18)", "dihedral(20)", "dihedral(24)",
    "dihedral(30)", "dihedral(32)",
    "quaternion(8)", "quaternion(16)", "quaternion(32)",
    "symmetric(3)", "symmetric(4)",
    "elementary_abelian(2,2)", "elementary_abelian(3,2)",
    "elementary_abelian(2,4)", "elementary_abelian(2,5)",
    "agl1(3)", "agl1(4)", "agl1(5)",
    "heisenberg(3)", "extraspecial_minus(3)",
    "extraspecial_plus(2)", "extraspecial_minus(2)",
    "direct_product(symmetric(3),cyclic(2))",
    "direct_product(symmetric(3),cyclic(3))",
    "direct_product(quaternion(8),cyclic(2))",
    "direct_product(dihedral(8),cyclic(2))",
    "direct_product(quaternion(8),cyclic(3))",
    "direct_product(agl1(4),cyclic(2))",
    "direct_product(dihedral(8),cyclic(4))",
    "direct_product(dihedral(16),cyclic(2))",
]


def catalog_session(seed):
    rng = random.Random(seed)
    groups = [{"name": spec, "spec": "builtin:" + spec}
              for spec in CATALOG_BUILTINS]
    for i, (degree, gens) in enumerate(PERM_TARGETS):
        groups.append({"name": f"perm{i}", "perm": [
            degree, random_generators(rng, degree, gens)]})
    rng.shuffle(groups)
    return Workload("catalog-session", seed, plan=groups)


# ---------------------------------------------------------------------------
# CLI workloads


def _zeta(spec, n, method):
    return (["zeta", "--group", spec, "--n", str(n), "--method", method],
            ("zeta", spec, n, method))


def _count(spec, expr, domains=None):
    argv = ["count", "--group", spec, "--word", render(expr)]
    for var, name in sorted((domains or {}).items()):
        argv += ["--domain", f"x{var}={name}"]
    return argv, ("count", spec, expr, dict(domains or {}))


# Pairs isoclinic at n = 1, with scaling factors 1 and 4; the reference
# checks the factor (|G|/|H|)^2 and every scaled count.  The search costs
# differ from pair to pair, so every seed asks about the same two.
ISOCLINIC_PAIRS = [
    ("builtin:dihedral(8)", "builtin:quaternion(8)"),
    ("builtin:direct_product(quaternion(8),cyclic(2))",
     "builtin:quaternion(8)"),
]

S5 = (5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])
# Light groups get every tables-cli question; a closed form applies to the
# ones marked True (Frobenius with one nonlinear character, or VZ).
TABLES_LIGHT = [("builtin:agl1(13)", True), ("builtin:heisenberg(5)", True),
                ("builtin:direct_product(symmetric(4),quaternion(8))", False)]


def tables_cli(seed, tmpdir):
    rng = random.Random(seed)
    path = f"{tmpdir}/s5.perm"
    wl = Workload("tables-cli", seed)
    wl.files[path] = perm_file(S5[0], random_generators(rng, *S5))
    items = []
    # The expensive requests: Dixon's method, exact table verification and
    # exponent-100 cyclotomic arithmetic (D200, cold then warm cache);
    # construction, classify and structure (agl1(27)); O(|G|^2) classes and
    # Cayley storage (order 2000).
    items += [(["chartab", "--group", "builtin:dihedral(200)"],
               ("chartab", "builtin:dihedral(200)"))] * 2
    items.append((["info", "--group", "builtin:agl1(27)"],
                  ("info", "builtin:agl1(27)")))
    items.append(_count("builtin:dihedral(2000)", ("pow", ("var", 1), 2)))
    for spec, closed in TABLES_LIGHT + [(f"file:{path}", False)]:
        items += [(["chartab", "--group", spec], ("chartab", spec))] * 2
        items.append((["info", "--group", spec], ("info", spec)))
        items += [_zeta(spec, 3, "char"), _zeta(spec, 8, "char")]
        if closed:
            items.append(_zeta(spec, 3, "closed"))
    for g, h in ISOCLINIC_PAIRS:
        items.append((["isoclinic", "--group", g, "--other", h, "--n", "1"],
                      ("isoclinic", g, h, 1)))
    rng.shuffle(items)
    wl.requests = [Request(f"t{i:02d}", argv, check)
                   for i, (argv, check) in enumerate(items)]
    return wl


# Groups of one order cost the same to enumerate over whole-group domains,
# so a seed may pick any of them; the pools used with a --domain also agree
# on |Z(G)| and |G'|.  The character path's cost depends on the group's
# classes, so `--method all` requests use each pool's first group.
BRUTE_POOLS = {
    5: ["cyclic(5)"],
    6: ["symmetric(3)", "cyclic(6)"],
    8: ["dihedral(8)", "quaternion(8)"],
    12: ["agl1(4)", "dihedral(12)", "cyclic(12)",
         "direct_product(symmetric(3),cyclic(2))"],
    16: ["dihedral(16)", "quaternion(16)"],
    20: ["agl1(5)", "dihedral(20)", "cyclic(20)"],
    24: ["symmetric(4)", "direct_product(agl1(4),cyclic(2))", "dihedral(24)",
         "direct_product(quaternion(8),cyclic(3))"],
}
OVER_BUDGET = ("builtin:agl1(27)", 3, "all")
OVER_BUDGET_NOTE = ("zeta --method all on agl1(27) at n=3 enumerates 346M "
                    "assignments, under the 2^30 default budget, and runs "
                    "for minutes instead of refusing up front")


def _v(i):
    return ("var", i)


def _c(a, b):
    return ("comm", a, b)


def _m(*terms):
    expr = terms[0]
    for t in terms[1:]:
        expr = ("mul", expr, t)
    return expr


def _p(a, k):
    return ("pow", a, k)


def brute_cli(seed):
    rng = random.Random(seed)

    def pick(order):
        return "builtin:" + rng.choice(BRUTE_POOLS[order])

    def first(order):
        return "builtin:" + BRUTE_POOLS[order][0]

    items = [
        _zeta(pick(24), 4, "brute"),                  # 331,776 assignments
        _zeta(first(20), 4, "all"),                   # 160,000
        _zeta(first(12), 5, "all"),                   # 248,832
        _zeta(first(8), 6, "all"),                    # 262,144
        _zeta(pick(5), 7, "brute"),                   # 78,125
        # No factor of a product is a lone variable or a power coprime to
        # the exponent: either would make every count equal.
        _count(pick(24), _c(_c(_v(1), _v(2)), _c(_v(3), _v(4)))),
        _count(pick(24), _m(_p(_c(_v(1), _v(2)), 3), _p(_v(3), 2),
                            _p(_v(4), 6))),
        _count(pick(20), _m(_p(_v(1), 2), _p(_v(2), 4), _p(_v(3), 5),
                            _p(_v(4), 10))),
        _count(pick(20), _m(_c(_v(1), _v(2)), _c(_v(3), _v(4)))),
        _count(pick(20), _m(_p(_c(_v(1), _v(2)), 2), _p(_v(3), 2),
                            _p(_v(4), 5))),
        _count(pick(12), _c(_c(_c(_v(1), _v(2)), _v(3)), _c(_v(4), _v(5)))),
        _count(pick(12), _m(_p(_v(1), -2), _c(_v(2), _p(_v(3), 2)),
                            _p(_v(4), 3), _p(_v(5), 4))),
        _count(pick(8), _m(_p(_c(_v(1), _v(2)), 2), _c(_v(3), _v(4)),
                           _p(_v(5), 2), _p(_v(6), 2))),
        _count(pick(6), _m(_p(_v(1), 2), _p(_v(2), 3), _c(_v(3), _v(4)),
                           _c(_v(5), _v(6)), _p(_v(7), 2))),
        # restricted domains: 262,144 / 131,072 / 131,072 / 262,144 /
        # 221,184 / 131,072 / 139,968 / 139,968 assignments
        _count(pick(16), _m(_c(_c(_v(1), _v(2)), _c(_v(3), _v(4))),
                            _p(_v(5), 2)), {1: "derived"}),
        _count(pick(16), _m(_c(_p(_v(1), 2), _v(2)), _c(_v(3), _v(4)),
                            _p(_v(5), 2)), {1: "center"}),
        _count(pick(16), _m(_c(_v(1), _c(_v(2), _v(3))), _p(_v(4), 2),
                            _p(_v(5), 4)), {1: "center"}),
        _count(pick(16), _m(_p(_c(_v(1), _v(2)), 3), _c(_v(3), _v(4)),
                            _p(_v(5), 2)), {1: "derived"}),
        _count("builtin:direct_product(symmetric(4),cyclic(2))",
               _m(_p(_v(1), 3), _c(_v(2), _v(3)), _p(_v(4), 2)),
               {1: "center"}),
        _count(pick(8), _m(_c(_c(_v(1), _v(2)), _c(_v(3), _v(4))),
                           _c(_v(5), _v(6)), _p(_v(7), 2)),
               {1: "derived", 2: "center"}),
        _count("builtin:symmetric(3)",
               _m(_c(_c(_c(_v(1), _v(2)), _c(_v(3), _v(4))),
                     _c(_v(5), _v(6))), _p(_v(7), 2)), {3: "derived"}),
        _count("builtin:symmetric(3)",
               _m(_p(_c(_v(1), _v(2)), 2), _p(_v(3), 2), _p(_v(4), 3),
                  _c(_v(5), _v(6)), _p(_v(7), 2)), {1: "derived"}),
    ]
    items = [(argv, check, "") for argv, check in items]
    argv, check = _zeta(*OVER_BUDGET)
    items.append((argv, check, OVER_BUDGET_NOTE))
    rng.shuffle(items)
    wl = Workload("brute-cli", seed)
    wl.requests = [Request(f"b{i:02d}", argv, check, note)
                   for i, (argv, check, note) in enumerate(items)]
    return wl


def build(name, seed, tmpdir):
    if name == "catalog-session":
        return catalog_session(seed)
    if name == "tables-cli":
        return tables_cli(seed, tmpdir)
    if name == "brute-cli":
        return brute_cli(seed)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("catalog-session", "tables-cli", "brute-cli")
