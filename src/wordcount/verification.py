"""Verification sweeps: every check cross-validates two independent paths.

Each check yields `(status, check_id, group, details)` with status PASS,
FAIL, or FLAGGED.  FLAGGED is reserved for the two formula-audit items
whose published displays disagree with the mass-consistent recomputation;
they never affect the exit code.
"""
from __future__ import annotations

import functools
from collections import namedtuple
from fractions import Fraction

from . import chartab, counting, formulas, groups, isoclinism, words
from .errors import PredicateFailed, UnsupportedParameter

CheckResult = namedtuple("CheckResult", "status check_id group details")

SUITES = ("frobenius", "recursion", "closed-forms", "isoclinism", "all")


@functools.cache
def catalog():
    """All small groups the checks run over, built once per process so the
    checks share each group's structure: builtins under their specs, and
    `tower-32`, built from permutations, on which (G, Z(G)) is a Camina
    pair and (G/Z, Z(G/Z)) a GCP, the tower closed form's family."""
    specs = ([f"cyclic({n})" for n in range(1, 25)]
             + [f"dihedral({n})" for n in range(4, 25, 2)]
             + ["quaternion(8)", "symmetric(3)", "symmetric(4)",
                "agl1(3)", "agl1(4)", "agl1(5)",
                "extraspecial_plus(2)", "extraspecial_minus(2)",
                "extraspecial_plus(3)", "extraspecial_minus(3)",
                "heisenberg(3)"])
    tower = groups.from_permutation_generators(
        8, [(4, 5, 6, 7, 0, 1, 2, 3), (5, 4, 6, 7, 2, 3, 1, 0)])
    return tuple((spec, groups.parse_builtin_spec(spec)) for spec in specs) \
        + (("tower-32", tower),)


def _run(results, check_id, group, fn):
    try:
        details = fn()
        results.append(CheckResult("PASS", check_id, group, details or "ok"))
    except Exception as exc:  # noqa: BLE001 - verification must not abort
        results.append(CheckResult(
            "FAIL", check_id, group, f"{type(exc).__name__}: {exc}"))


def _per_group(check_id, body, nilpotent_only=False):
    """Run body(G, table) on every catalog group (or only the nilpotent
    ones), one result each."""
    results = []
    for spec, G in catalog():
        if nilpotent_only and groups.nilpotency_class(G) is None:
            continue
        _run(results, check_id, spec,
             lambda G=G: body(G, chartab.character_table(G)))
    return results


def check_zeta_sweep(ns):
    """Brute force, the character recursion and, where one of its families
    applies, `formulas.closed_form_zeta` give the same zeta^{w_n}, for each
    n in ns on every catalog group.  n = 2 reports as frobenius-sweep, n >= 3
    as recursion-n{n}; the details name the paths that agreed."""
    results = []
    for n in ns:
        def body(G, table, n=n):
            zetas = {"brute": counting.zeta_brute(G, words.wn(n)),
                     "char": formulas.zeta_wn_char(G, table, n)}
            try:
                zetas["closed"] = formulas.closed_form_zeta(G, n)
            except PredicateFailed:
                pass
            if len({zeta.values for zeta in zetas.values()}) != 1:
                raise AssertionError(", ".join(
                    f"{path}={zeta.values}" for path, zeta in zetas.items()))
            return f"n={n} " + "=".join(zetas)
        results += _per_group(
            "frobenius-sweep" if n == 2 else f"recursion-n{n}", body)
    return results


def check_chartab_exactness():
    """Row orthogonality (which implies column orthogonality for the square
    table), the degree checks and the linear-character count, re-verified."""
    def body(G, table):
        chartab._verify_table(G, table)
        if sum(d * d for d in table.degrees) != G.order:
            raise AssertionError()
        return f"k={table.num_characters}"
    return _per_group("chartab-orthogonality", body)


def check_first_moment():
    """<zeta^{w_{n-1}}, 1_G> = |G|^{n-2} for n in {3,4,5}."""
    def body(G, table):
        for n in (3, 4, 5):
            zeta = formulas.zeta_wn_char(G, table, n - 1)
            ip = Fraction(sum(s * v for s, v in
                              zip(table.classes.sizes, zeta.values)),
                          G.order)
            if ip != G.order ** (n - 2):
                raise AssertionError(f"n={n}: {ip}")
        return "n=3,4,5"
    return _per_group("first-moment", body)


def check_character_coefficients():
    """<zeta^{w_n}, chi> is a nonnegative integer for n in {2,3}."""
    def body(G, table):
        for n in (2, 3):
            zeta = formulas.zeta_wn_char(G, table, n)
            for r in range(table.num_characters):
                ip = chartab.inner_product(table, zeta, r)
                if ip.denominator != 1 or ip < 0:
                    raise AssertionError(f"n={n} chi_{r}: {ip}")
        return "n=2,3"
    return _per_group("char-coefficients", body)


def check_stabilization():
    """C^{w_{m+1}}(chi) = chi(1)^2 |G|^{m-1} past the nilpotency class."""
    def body(G, table):
        c = groups.nilpotency_class(G)
        for m in (c + 1, c + 2):
            for r in range(table.num_characters):
                got = formulas.c_wn(G, table, r, m + 1)
                want = table.degrees[r] ** 2 * G.order ** (m - 1)
                if got != want:
                    raise AssertionError(f"m={m} chi_{r}: {got} != {want}")
        return f"class={c} m={c + 1},{c + 2}"
    return _per_group("stabilization", body, nilpotent_only=True)


def check_gcp_closed_form():
    """The published GCP values on Q8 and D8, at 1 and at 1 != g in G'."""
    results = []
    expected = {2: (40, 24), 3: (512, 0)}
    for spec in ("quaternion(8)", "dihedral(8)"):
        G = dict(catalog())[spec]
        def one(G=G):
            derived = groups.commutator_subgroup(G)
            nontrivial = next(g for g in derived.members if g)
            for n, anchor in expected.items():
                closed = formulas.closed_zeta_gcp_center(G, n)
                if (closed.at_element(0),
                        closed.at_element(nontrivial)) != anchor:
                    raise AssertionError(f"n={n}")
            return "n=2: (40,24); n=3: (512,0)"
        _run(results, "gcp-closed-form", spec, one)
    return results


def check_unique_nonlinear():
    """S3 and A4 anchors for the class-data form, plus the flag."""
    results = []
    anchors = [("symmetric(3)", 3, 15, 162, 27),
               ("agl1(4)", 4, 44, 960, 256)]
    flagged = []
    for spec, pm, c3, at_one, off in anchors:
        G = dict(catalog())[spec]
        def one(G=G, pm=pm, c3=c3, at_one=at_one, off=off):
            c, _ = formulas.unique_nonlinear_recursion(G, 3)
            if c != c3:
                raise AssertionError(f"C={c}")
            inv = formulas.invariants_of(G)
            if formulas.appl_identity_value(
                    G.order, inv.derived_order, pm) != at_one or \
                    formulas.appl_offidentity_value(
                        G.order, inv.derived_order, pm, c) != off:
                raise AssertionError()
            display = formulas.appl_offidentity_display(
                G.order, inv.derived_order, pm)
            flagged.append(CheckResult(
                "FLAGGED", formulas.FLAG_UNIQUE_NL_OFFIDENTITY, spec,
                f"display={display} recomputed={off}"))
            return f"C^w3={c3} zeta(1)={at_one} off-identity={off}"
        _run(results, "unique-nonlinear", spec, one)
    return results + flagged


def check_camina3_audit():
    """Total-mass audit of the class-3 closed forms on (128, 8, 2)."""
    inv = formulas.CaminaInvariants(128, 8, 2, 0)
    group = "(|G|,|G'|,|Z|)=(128,8,2)"
    results = []
    def one():
        n2 = formulas.closed_camina3(inv, 2)
        if n2 != {"identity": 2560, "inner": 2304, "derived_rest": 1920}:
            raise AssertionError()
        n3 = formulas.closed_camina3(inv, 3)
        if n3 != {"identity": 1359872, "inner": 737280, "derived_rest": 0}:
            raise AssertionError()
        return "n=2 total 16384; n=3 total 2097152"
    _run(results, "camina3-audit", group, one)
    display = formulas.camina3_identity_display(inv)
    results.append(CheckResult(
        "FLAGGED", formulas.FLAG_CAMINA3_IDENTITY, group,
        f"display={display} class-function=1359872"))
    return results


def check_mixed_domain():
    """The (S3, A3) example of the mixed-domain formula, against brute force."""
    results = []
    def one():
        G = dict(catalog())["symmetric(3)"]
        table = chartab.character_table(G)
        H = groups.subgroup_closure(
            G, [g for g in range(6) if G.element_order(g) != 2])
        w1, w2 = words.parse("x1"), words.parse("x1")
        got = formulas.zeta_mixed_theorem21(G, H, w1, w2, table)
        combined = formulas.bracket_word(w1, w2)
        spec = counting.DomainSpec((H, None))
        brute = counting.zeta_element_counts(G, combined, spec)
        if got != brute:
            raise AssertionError(f"{got} != {brute}")
        cls = table.classes.class_of
        for h in H.members:
            for g in range(G.order):
                if cls[g] == cls[h] and got[g] != got[h]:
                    raise AssertionError()
        return f"counts={got}"
    _run(results, "mixed-domain", "symmetric(3)/A3", one)
    return results


def check_isoclinism():
    """Witnesses and exact scaling for (D8, Q8) and (Q8xC2, Q8) at n=1."""
    results = []
    built = dict(catalog())
    Q8 = built["quaternion(8)"]
    cases = [("dihedral(8)~quaternion(8)", built["dihedral(8)"], Fraction(1)),
             ("quaternion(8)xC2~quaternion(8)",
              groups.direct_product(Q8, built["cyclic(2)"]), Fraction(4))]
    for name, G, factor in cases:
        def one(G=G, factor=factor):
            witness = isoclinism.find_isoclinism(G, Q8, 1)
            if witness is None:
                raise AssertionError("no witness found")
            report = isoclinism.verify_scaling(witness)
            if report["factor"] != factor:
                raise AssertionError(report["factor"])
            return f"factor={report['factor']} checked={len(report['checked'])}"
        _run(results, "isoclinism-scaling", name, one)
    return results


def check_central_quotient():
    """Let N <= Z(G) meet G' trivially, grown from the central elements in
    rising order.  Then G/N is isoclinic to G, and brute force on G at g in
    G' is |N|^n times brute force on G/N at gN, for w_2 and w_3.  Checked
    on every catalog group where N != 1, through `groups.quotient`."""
    results = []
    for spec, G in catalog():
        derived = groups.commutator_subgroup(G)
        N = groups.trivial_subgroup(G)
        for z in groups.center(G).members:
            if z not in N:
                grown = groups.subgroup_closure(G, N.members + (z,))
                if set(grown.members).isdisjoint(derived.members[1:]):
                    N = grown
        if N.order == 1:
            continue

        def one(G=G, N=N, derived=derived):
            Q, proj = groups.quotient(G, N)
            for n in (2, 3):
                on_g = counting.zeta_element_counts(G, words.wn(n))
                on_q = counting.zeta_element_counts(Q, words.wn(n))
                for g in derived.members:
                    if on_g[g] != N.order ** n * on_q[proj[g]]:
                        raise AssertionError(
                            f"n={n} g={g}: {on_g[g]} != "
                            f"{N.order}^{n} * {on_q[proj[g]]}")
            return f"|N|={N.order} n=2,3"
        _run(results, "central-quotient", spec, one)
    return results


def run_suite(suite):
    if suite not in SUITES:
        raise UnsupportedParameter(
            f"unknown suite {suite!r}; valid suites: {', '.join(SUITES)}")
    results = []
    if suite in ("frobenius", "all"):
        results += check_zeta_sweep((2,))
        results += check_chartab_exactness()
    if suite in ("recursion", "all"):
        results += check_zeta_sweep((3, 4, 5))
        results += check_first_moment()
        results += check_character_coefficients()
        results += check_stabilization()
    if suite in ("closed-forms", "all"):
        results += check_gcp_closed_form()
        results += check_unique_nonlinear()
        results += check_camina3_audit()
    if suite in ("isoclinism", "all"):
        results += check_isoclinism()
    if suite == "all":
        results += check_mixed_domain()
    if suite in ("isoclinism", "all"):
        results += check_central_quotient()
    return results


def format_results(results):
    return [f"{r.status} {r.check_id} {r.group} {r.details}" for r in results]
