"""Verification sweeps: every check cross-validates two independent paths.

Each check yields `(status, check_id, group, details)` with status PASS,
FAIL, or FLAGGED.  FLAGGED is reserved for the two formula-audit items
whose published displays disagree with the mass-consistent recomputation;
they never affect the exit code.
"""

import functools
import itertools
import random
from collections import Counter, namedtuple
from fractions import Fraction

from . import chartab, counting, formulas, groups, isoclinism, words
from .errors import (PredicateFailed, SearchBoundExceeded,
                     UnsupportedParameter, WordcountError)

CheckResult = namedtuple("CheckResult", "status check_id group details")


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
                "heisenberg(3)", "direct_product(quaternion(8),cyclic(3))",
                "direct_product(dihedral(8),cyclic(3))"])
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


@groups.structure_memo
def _brute_wn(G, n):
    """Brute-force zeta^{w_n} on G, counted once for every check."""
    return counting.zeta_brute(G, words.wn(n))


def check_zeta_sweep(ns):
    """Brute force, the character recursion and, where one of its families
    applies, `formulas.closed_form_zeta` give the same zeta^{w_n}, for each
    n in ns on every catalog group.  n = 2 reports as frobenius-sweep, n >= 3
    as recursion-n{n}; the details name the paths that agreed."""
    results = []
    for n in ns:
        def body(G, table, n=n):
            zetas = {"brute": _brute_wn(G, n),
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


def check_character_coefficients():
    """<zeta^{w_n}, chi> is a natural number for n = 2..8, the n that
    `zeta --n` accepts: the paper's theorem that zeta^{w_n} is a
    character."""
    def body(G, table):
        for n in range(2, 9):
            zeta = formulas.zeta_wn_char(G, table, n)
            for r in range(table.num_characters):
                ip = chartab.inner_product(table, zeta, r)
                if ip.denominator != 1 or ip < 0:
                    raise AssertionError(f"n={n} chi_{r}: {ip}")
        return "n=2..8"
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


def check_isoclinism_families():
    """For n = 1, 2, 3, every pair of catalog groups with gamma_{n+1} != 1
    and equal (|G : Z_n|, |gamma_{n+1}|): the search, which returns a
    witness only once `verify_witness` accepts it, and
    zeta^{w_{n+1}}(g) / |G|^{n+1} = zeta^{w_{n+1}}(psi(g)) / |H|^{n+1} on
    gamma_{n+1}(G) with brute force on both groups (P. Hall).  A pair with
    no witness is not a failure, as isoclinism is sufficient for the
    scaling, not necessary: its line names the isomorphisms tried.  A pair
    the search refuses (`isoclinism.TUPLE_BOUND`, `SEARCH_BOUND`) is
    reported as refused."""
    results = []
    for n in (1, 2, 3):
        families = {}
        for spec, G in catalog():
            gamma = groups.gamma(G, n + 1)
            if gamma.order > 1:
                key = (G.order // groups.zn(G, n).order, gamma.order)
                families.setdefault(key, []).append((spec, G))
        for family in families.values():
            for (a, G), (b, H) in itertools.combinations(family, 2):
                _run(results, "isoclinism-family", f"{a}~{b}",
                     lambda G=G, H=H, n=n: _family_line(G, H, n))
    return results


def _family_line(G, H, n):
    try:
        witness, tried = isoclinism.search_isoclinism(G, H, n)
    except SearchBoundExceeded as exc:
        return f"n={n} refused: {exc}"
    if witness is None:
        return f"n={n} no isoclinism after {tried} isomorphisms tried"
    on_g, on_h = _brute_wn(G, n + 1), _brute_wn(H, n + 1)
    for g, h in witness.psi.items():
        if on_g.at_element(g) * H.order ** (n + 1) != \
                on_h.at_element(h) * G.order ** (n + 1):
            raise AssertionError(
                f"n={n} g={g}: {on_g.at_element(g)} / {G.order}^{n + 1} != "
                f"{on_h.at_element(h)} / {H.order}^{n + 1}")
    factor = Fraction(G.order, H.order) ** (n + 1)
    return f"n={n} factor={factor} checked={len(witness.psi)}"


# the product rule's seeded cases: pairs of catalog groups with
# |G| |H| <= PRODUCT_ORDER, each with a seeded word
PRODUCT_SEED, PRODUCT_CASES, PRODUCT_ORDER = 20, 12, 200
DOMAINS = {"whole": lambda G: None, "center": groups.center,
           "derived": groups.commutator_subgroup}


def _seeded_word(rng):
    """A product of one to three powers of variables and brackets, nested
    up to two deep, in x1..x3, renamed x1..xk in order of first use; None
    if it reduces away or loses a variable."""
    def term(depth):
        if depth and rng.random() < 0.5:
            return words.commutator(term(depth - 1), term(depth - 1))
        return [(rng.randint(1, 3), rng.choice([-3, -2, -1, 1, 2, 4]))]

    letters = [x for _ in range(rng.randint(1, 3)) for x in term(2)]
    names = {}
    for v, _ in letters:
        names.setdefault(v, len(names) + 1)
    try:
        return words.make_word([(names[v], e) for v, e in letters])
    except WordcountError:
        return None


def _counts_vary(word):
    """True iff some variable has exponent sum 0, as every variable of a
    bracket has, and no variable is a lone letter, which would make every
    count on whole groups the same (`formulas.has_lone_letter`)."""
    sums = Counter()
    for v, e in word.letters:
        sums[v] += e
    return 0 in sums.values() and not formulas.has_lone_letter(word)


def check_product_rule():
    """N_w on G x H with product domains (whole groups, centers, derived
    subgroups) is N_w^G(g) N_w^H(h) at every (g, h), by brute force on the
    three groups, for seeded pairs of catalog groups, at least one of them
    non-abelian, and seeded words whose counts vary (`_counts_vary`).
    (a, b) is element a |H| + b of `groups.direct_product(G, H)`, and that
    map is checked against the product's table once per pair of groups, so
    the check does not rest on the constructor's bookkeeping."""
    rng = random.Random(PRODUCT_SEED)
    factors = [(spec, G) for spec, G in catalog() if G.order > 1]
    products = {}
    results = []
    while len(results) < PRODUCT_CASES:
        (a, G), (b, H) = rng.choice(factors), rng.choice(factors)
        word = _seeded_word(rng)
        if G.order * H.order > PRODUCT_ORDER or word is None \
                or not _counts_vary(word) \
                or groups.commutator_subgroup(G).order \
                * groups.commutator_subgroup(H).order == 1:
            continue
        names = [rng.choice(sorted(DOMAINS)) for _ in range(word.arity)]

        def one(G=G, H=H, word=word, names=names, key=(a, b)):
            if key not in products:
                products[key] = _checked_product(G, H)
            P, m = products[key], H.order
            for domains in (["whole"] * word.arity, names):
                g_counts, h_counts, p_counts = [
                    counting.zeta_element_counts(X, word, counting.DomainSpec(
                        tuple(DOMAINS[name](X) for name in domains)))
                    for X in (G, H, P)]
                for g, h in itertools.product(range(G.order), range(m)):
                    if p_counts[g * m + h] != g_counts[g] * h_counts[h]:
                        raise AssertionError(
                            f"{'/'.join(domains)} at ({g},{h}): "
                            f"{p_counts[g * m + h]} != "
                            f"{g_counts[g]} * {h_counts[h]}")
            return f"word={word} domains={'/'.join(names)}"
        _run(results, "product-rule", f"{a}x{b}", one)
    return results


def _checked_product(G, H):
    """`groups.direct_product(G, H)`, with (a, b) -> a |H| + b checked to
    multiply as the pairs do."""
    P, m = groups.direct_product(G, H), H.order
    for a, c in itertools.product(range(G.order), repeat=2):
        ac = G.mul[a][c] * m
        for b, d in itertools.product(range(m), repeat=2):
            if P.mul[a * m + b][c * m + d] != ac + H.mul[b][d]:
                raise AssertionError(
                    f"({a},{b})({c},{d}) is not element "
                    f"{ac + H.mul[b][d]} of the product")
    return P


def check_central_quotient():
    """Let N <= Z(G) meet G' trivially, grown from the central elements in
    rising order.  Then G/N is isoclinic to G, and brute force on G at g in
    G' is |N|^n times brute force on G/N at gN, for w_2 and w_3.  Checked
    on every non-abelian catalog group where N != 1, through
    `groups.quotient`; G's side is the zeta sweep's brute-force count.  On
    an abelian group G' = 1, and the identity's count |G|^n on both sides
    is the total mass that brute force checks itself."""
    results = []
    for spec, G in catalog():
        derived = groups.commutator_subgroup(G)
        if derived.order == 1:
            continue
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
                on_g = _brute_wn(G, n)
                on_q = counting.zeta_element_counts(Q, words.wn(n))
                for g in derived.members:
                    at_g = on_g.at_element(g)
                    if at_g != N.order ** n * on_q[proj[g]]:
                        raise AssertionError(
                            f"n={n} g={g}: {at_g} != "
                            f"{N.order}^{n} * {on_q[proj[g]]}")
            return f"|N|={N.order} n=2,3"
        _run(results, "central-quotient", spec, one)
    return results


# each suite's checks in the order they print; `all` runs the four
# suites in turn, then the checks that belong to none of them
SUITES = {
    "frobenius": (functools.partial(check_zeta_sweep, (2,)),),
    "recursion": (functools.partial(check_zeta_sweep, (3, 4, 5)),
                  check_character_coefficients, check_stabilization),
    "closed-forms": (check_gcp_closed_form, check_unique_nonlinear,
                     check_camina3_audit),
    "isoclinism": (check_isoclinism, check_isoclinism_families,
                   check_central_quotient),
}
SUITES["all"] = (*itertools.chain(*SUITES.values()), check_mixed_domain,
                 check_product_rule)


def run_suite(suite):
    if suite not in SUITES:
        raise UnsupportedParameter(
            f"unknown suite {suite!r}; valid suites: {', '.join(SUITES)}")
    return [result for check in SUITES[suite] for result in check()]


def format_results(results):
    return [f"{r.status} {r.check_id} {r.group} {r.details}" for r in results]
