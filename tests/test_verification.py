"""The lines `verify` prints: which checks run on which groups, the FLAGGED
audit report, and that the zeta sweep catches a wrong closed form."""
import functools
import itertools
from collections import Counter

from wordcount import formulas, groups, verification
from wordcount.cli import main

BUILTINS = ([f"cyclic({n})" for n in range(1, 25)]
            + [f"dihedral({n})" for n in range(4, 25, 2)]
            + ["quaternion(8)", "symmetric(3)", "symmetric(4)",
               "agl1(3)", "agl1(4)", "agl1(5)",
               "extraspecial_plus(2)", "extraspecial_minus(2)",
               "extraspecial_plus(3)", "extraspecial_minus(3)",
               "heisenberg(3)", "direct_product(quaternion(8),cyclic(3))",
               "direct_product(dihedral(8),cyclic(3))"])
CATALOG = BUILTINS + ["tower-32"]
NILPOTENT = [spec for spec in CATALOG
             if not spec.startswith(("dihedral", "symmetric", "agl1"))
             or spec in ("dihedral(4)", "dihedral(8)", "dihedral(16)")]
CAMINA3 = "(|G|,|G'|,|Z|)=(128,8,2)"
FLAGGED = [
    "FLAGGED unique-nonlinear-offidentity-display symmetric(3) "
    "display=-18 recomputed=27",
    "FLAGGED unique-nonlinear-offidentity-display agl1(4) "
    "display=168 recomputed=256",
    "FLAGGED camina3-identity-display (|G|,|G'|,|Z|)=(128,8,2) "
    "display=1490944 class-function=1359872",
]


def _each(check_ids, specs):
    return [("PASS", check_id, spec) for check_id in check_ids
            for spec in specs]


# The catalog groups with a central N != 1 that meets G' trivially: the
# abelian ones, the dihedral groups whose center is not in G', and Q8 x C3
# and D8 x C3 over their C3.
CENTRAL_QUOTIENT = _each(["central-quotient"],
                         [f"cyclic({n})" for n in range(2, 25)]
                         + ["dihedral(4)", "dihedral(12)", "dihedral(20)",
                            "direct_product(quaternion(8),cyclic(3))",
                            "direct_product(dihedral(8),cyclic(3))"])


def _family(*specs):
    return [("PASS", "isoclinism-family", f"{a}~{b}")
            for a, b in itertools.combinations(specs, 2)]


D8xC3 = "direct_product(dihedral(8),cyclic(3))"
Q8xC3 = "direct_product(quaternion(8),cyclic(3))"
# the family with |G:Z_n| = 6 and |gamma_{n+1}| = 3, at n = 1 and n >= 2
SIX = ("dihedral(6)", "dihedral(12)", "symmetric(3)", "agl1(3)")
SIX_AT_2 = ("dihedral(6)", "dihedral(12)", "dihedral(24)", "symmetric(3)",
            "agl1(3)")
# the catalog's pairs with gamma_{n+1} != 1 and equal (|G:Z_n|,
# |gamma_{n+1}|), n = 1, 2, 3; every pair is n-isoclinic
FAMILIES = (
    _family(*SIX)  # n = 1
    + _family("dihedral(8)", "quaternion(8)", "extraspecial_plus(2)",
              "extraspecial_minus(2)", Q8xC3, D8xC3)
    + _family("dihedral(10)", "dihedral(20)")
    + _family("extraspecial_plus(3)", "extraspecial_minus(3)",
              "heisenberg(3)")
    + _family(*SIX_AT_2)  # n = 2
    + _family("dihedral(10)", "dihedral(20)")
    + _family("dihedral(16)", "tower-32")
    + _family(*SIX_AT_2)  # n = 3
    + _family("dihedral(10)", "dihedral(20)"))
# the seeded pairs of the product rule
PRODUCTS = _each(["product-rule"], [
    "dihedral(10)xdihedral(10)", "extraspecial_plus(2)xdihedral(24)",
    "cyclic(3)xcyclic(19)", "cyclic(2)xcyclic(6)", "dihedral(8)xcyclic(8)",
    "cyclic(23)xdihedral(6)", "tower-32xdihedral(4)",
    "cyclic(7)xextraspecial_minus(2)", "cyclic(10)xcyclic(10)",
    f"{Q8xC3}xcyclic(4)", "dihedral(14)xcyclic(7)",
    "quaternion(8)xsymmetric(3)"])


SUITE_LINES = {
    "frobenius": _each(["frobenius-sweep", "chartab-orthogonality"], CATALOG),
    "recursion": _each(["recursion-n3", "recursion-n4", "recursion-n5",
                        "first-moment", "char-coefficients"], CATALOG)
    + _each(["stabilization"], NILPOTENT),
    "closed-forms": _each(["gcp-closed-form"],
                          ["quaternion(8)", "dihedral(8)"])
    + _each(["unique-nonlinear"], ["symmetric(3)", "agl1(4)"])
    + [("FLAGGED", "unique-nonlinear-offidentity-display", spec)
       for spec in ("symmetric(3)", "agl1(4)")]
    + [("PASS", "camina3-audit", CAMINA3),
       ("FLAGGED", "camina3-identity-display", CAMINA3)],
    "isoclinism": _each(["isoclinism-scaling"], [
        "dihedral(8)~quaternion(8)", "quaternion(8)xC2~quaternion(8)"])
    + FAMILIES + CENTRAL_QUOTIENT,
}


def _lines(results):
    return [(r.status, r.check_id, r.group) for r in results]


def test_catalog_names_its_groups_in_order():
    assert [spec for spec, _ in verification.catalog()] == CATALOG


def test_each_suite_prints_its_lines():
    for suite, lines in SUITE_LINES.items():
        assert _lines(verification.run_suite(suite)) == lines, suite
    assert _lines(verification.run_suite("all")) == [
        line for suite in SUITE_LINES for line in SUITE_LINES[suite]
        if line not in CENTRAL_QUOTIENT] + [
        ("PASS", "mixed-domain", "symmetric(3)/A3")] + PRODUCTS \
        + CENTRAL_QUOTIENT


def test_flagged_report_is_pinned(capsys):
    assert main(["verify", "--suite", "all"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("FLAGGED")] == FLAGGED
    assert out[-1] == "# 475 passed, 0 failed, 3 flagged"


def test_verify_builds_each_quotient_and_centralizer_once(monkeypatch,
                                                          capsys):
    # a fresh catalog, so no structure is memoized yet
    monkeypatch.setattr(verification, "catalog",
                        functools.cache(verification.catalog.__wrapped__))
    # G/N is memoized per (G, N) by `groups.quotient`; `_quotient` builds it
    calls = {"_quotient": Counter(), "centralizer_of_subgroup_mod": Counter()}
    alive = []  # keeps each group, so no id is reused
    for name, counter in calls.items():
        def counted(G, N, fn=getattr(groups, name), counter=counter):
            alive.append(G)
            counter[id(G), N.members] += 1
            return fn(G, N)
        monkeypatch.setattr(groups, name, counted)
    assert main(["verify", "--suite", "all"]) == 0
    assert capsys.readouterr().out.endswith("# 475 passed, 0 failed, "
                                            "3 flagged\n")
    # 28 central-quotient lines, Q8xC2 over its center, and the 18 distinct
    # G/Z_n(G) of the isoclinism families (D8 and Q8 over their centers
    # among them), of which D12 and D20 over their centers are
    # central-quotient lines too
    assert sum(calls["_quotient"].values()) == 45
    for counter in calls.values():
        assert set(counter.values()) == {1}


def test_tower_group_reaches_the_tower_closed_form():
    G = dict(verification.catalog())["tower-32"]
    inv = formulas.invariants_of(G)
    assert (inv.order, inv.derived_order, inv.center_order,
            inv.z2_order) == (32, 4, 2, 8)
    for n in (2, 3):
        assert formulas.closed_form_zeta(G, n) == \
            formulas.closed_zeta_tower(G, n)
    swept = {(r.check_id, r.details) for r in verification.check_zeta_sweep(
        (2, 3, 4, 5)) if r.group == "tower-32"}
    assert swept == {("frobenius-sweep", "n=2 brute=char=closed"),
                     ("recursion-n3", "n=3 brute=char=closed"),
                     ("recursion-n4", "n=4 brute=char"),
                     ("recursion-n5", "n=5 brute=char")}


def test_sweep_fails_exactly_where_a_wrong_closed_form_joins(monkeypatch):
    exact = verification.run_suite("all")
    closed = {(r.check_id, r.group) for r in exact
              if r.details.endswith("=closed")}
    assert len(closed) == 58
    right = formulas.closed_form_zeta

    def off_by_one(G, n):
        zeta = right(G, n)
        return groups.ClassFunction(zeta.group, zeta.classes,
                                    tuple(v + 1 for v in zeta.values))

    monkeypatch.setattr(formulas, "closed_form_zeta", off_by_one)
    patched = verification.run_suite("all")
    assert _lines(patched) == [
        ("FAIL" if (r.check_id, r.group) in closed else r.status,
         r.check_id, r.group) for r in exact]


def test_family_lines_report_no_witness_and_refusals(monkeypatch):
    monkeypatch.setattr(verification.isoclinism, "search_isoclinism",
                        lambda G, H, n: (None, 5))
    results = verification.check_isoclinism_families()
    assert _lines(results) == FAMILIES
    assert {r.details.split(" ", 1)[1] for r in results} == {
        "no isoclinism after 5 isomorphisms tried"}
    monkeypatch.undo()
    # past 100 tuples: the (6,3) and (10,5) pairs at n = 2 (6^3 and 10^3)
    # and at n = 3; at n = 1, (10,5) is exactly 10^2
    monkeypatch.setattr(verification.isoclinism, "TUPLE_BOUND", 100)
    results = verification.check_isoclinism_families()
    assert _lines(results) == FAMILIES
    refused = [r.details for r in results if "refused" in r.details]
    assert len(refused) == 10 + 1 + 11
    assert refused[0] == ("n=2 refused: 216 tuples of coset representatives "
                          "exceed 100")


def test_family_lines_fail_where_psi_breaks_the_scaling(monkeypatch):
    search = verification.isoclinism.search_isoclinism

    def moved(G, H, n):
        witness, tried = search(G, H, n)
        # psi sends the identity where g goes, and g to the identity
        g = next(g for g in witness.psi if g)
        psi = {**witness.psi, 0: witness.psi[g], g: 0}
        return witness._replace(psi=psi), tried

    monkeypatch.setattr(verification.isoclinism, "search_isoclinism", moved)
    results = verification.check_isoclinism_families()
    assert {r.status for r in results} == {"FAIL"}
    assert results[0].details.startswith("AssertionError: n=1 g=0: ")


def test_product_lines_check_the_pair_order_of_the_product(monkeypatch):
    product = groups.direct_product
    monkeypatch.setattr(verification.groups, "direct_product",
                        lambda G, H: product(H, G))
    results = verification.check_product_rule()
    # only a product of a group with itself keeps its pair order
    same = ("dihedral(10)xdihedral(10)", "cyclic(10)xcyclic(10)")
    assert _lines(results) == [("PASS" if spec in same else "FAIL", check_id,
                                spec) for _, check_id, spec in PRODUCTS]
    assert all("is not element" in r.details for r in results
               if r.status == "FAIL")
