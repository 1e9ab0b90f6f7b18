"""The lines `verify` prints: which checks run on which groups, the FLAGGED
audit report, that the zeta sweep catches a wrong closed form, a table
that fails its check and a recursion step that fails total mass, and that
the README names every check id."""
import functools
import itertools
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from wordcount import (chartab, counting, formulas, groups, verification,
                       words)
from wordcount.cli import main
from wordcount.errors import InternalInconsistency

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


# The non-abelian catalog groups with a central N != 1 that meets G'
# trivially: the dihedral groups whose center is not in G', and Q8 x C3
# and D8 x C3 over their C3.
CENTRAL_QUOTIENT = _each(["central-quotient"],
                         ["dihedral(12)", "dihedral(20)",
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
    "dihedral(10)xdihedral(10)", "cyclic(7)xdihedral(14)",
    "extraspecial_minus(2)xcyclic(10)", "symmetric(3)xsymmetric(4)",
    "cyclic(15)xsymmetric(3)", f"{Q8xC3}xcyclic(3)",
    "cyclic(5)xdihedral(18)", "cyclic(16)xdihedral(10)",
    "extraspecial_minus(2)xcyclic(21)", "agl1(3)xsymmetric(3)",
    "symmetric(4)xextraspecial_minus(2)", "extraspecial_plus(2)xcyclic(18)"])


SUITE_LINES = {
    "frobenius": _each(["frobenius-sweep"], CATALOG),
    "recursion": _each(["recursion-n3", "recursion-n4", "recursion-n5",
                        "char-coefficients"], CATALOG)
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
        line for suite in SUITE_LINES for line in SUITE_LINES[suite]] + [
        ("PASS", "mixed-domain", "symmetric(3)/A3")] + PRODUCTS


def test_flagged_report_is_pinned(capsys):
    assert main(["verify", "--suite", "all"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("FLAGGED")] == FLAGGED
    assert out[-1] == "# 353 passed, 0 failed, 3 flagged"


def test_verify_builds_each_quotient_and_centralizer_once(monkeypatch,
                                                          capsys):
    # a fresh catalog, so no structure is memoized yet
    monkeypatch.setattr(verification, "catalog",
                        functools.cache(verification.catalog.__wrapped__))
    # G/N is memoized per (G, N) by `groups.quotient`: count the builds in
    # its body, as test_structure.py counts structure
    calls = {"quotient": Counter(), "centralizer_of_subgroup_mod": Counter()}
    alive = []  # keeps each group, so no id is reused

    def counting(name, fn):
        def counted(G, N):
            alive.append(G)
            calls[name][id(G), N.members] += 1
            return fn(G, N)
        return counted
    monkeypatch.setattr(groups, "quotient", groups.structure_memo(
        counting("quotient", groups.quotient.__wrapped__)))
    monkeypatch.setattr(groups, "centralizer_of_subgroup_mod", counting(
        "centralizer_of_subgroup_mod", groups.centralizer_of_subgroup_mod))
    assert main(["verify", "--suite", "all"]) == 0
    assert capsys.readouterr().out.endswith("# 353 passed, 0 failed, "
                                            "3 flagged\n")
    # 4 central-quotient lines, Q8xC2 over its center, and the 18 distinct
    # G/Z_n(G) of the isoclinism families (D8 and Q8 over their centers
    # among them), of which D12 and D20 over their centers are
    # central-quotient lines too
    assert sum(calls["quotient"].values()) == 21
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
        return groups.ClassFunction(zeta.group,
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
    assert _lines(results) == [
        ("PASS" if spec == "dihedral(10)xdihedral(10)" else "FAIL", check_id,
         spec) for _, check_id, spec in PRODUCTS]
    assert all("is not element" in r.details for r in results
               if r.status == "FAIL")


def test_product_lines_pair_a_non_abelian_group_with_a_word_whose_counts_vary():
    built = dict(verification.catalog())
    for r in verification.check_product_rule():
        G, H = next((built[r.group[:i]], built[r.group[i + 1:]])
                    for i, c in enumerate(r.group) if c == "x"
                    and r.group[:i] in built and r.group[i + 1:] in built)
        assert groups.commutator_subgroup(G).order > 1 \
            or groups.commutator_subgroup(H).order > 1
        word = words.parse(r.details[len("word="):r.details.index(" domains")])
        counts = counting.zeta_element_counts(groups.direct_product(G, H),
                                              word)
        assert len(set(counts)) > 1, r


# the catalog groups the GCP form applies to
GCP = ["dihedral(8)", "quaternion(8)", "extraspecial_plus(2)",
       "extraspecial_minus(2)", "extraspecial_plus(3)",
       "extraspecial_minus(3)", "heisenberg(3)", Q8xC3, D8xC3]


def test_a_closed_value_that_is_no_natural_number_fails(monkeypatch, capsys):
    regions = formulas._regions

    def shifted(inv, n, inner_order, family, vals):
        if family == "GCP":
            vals = {**vals, "identity": vals["identity"] + Fraction(1, 2)}
        return regions(inv, n, inner_order, family, vals)

    monkeypatch.setattr(formulas, "_regions", shifted)
    results = verification.check_zeta_sweep((2,))
    failed = {r.group: r.details for r in results if r.status == "FAIL"}
    assert list(failed) == GCP
    assert failed["quaternion(8)"] == ("InternalInconsistency: closed form "
                                       "produced non-natural value 81/2")
    assert main(["zeta", "--group", "builtin:quaternion(8)", "--n", "2",
                 "--method", "all"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: InternalInconsistency: closed form "
                          "produced non-natural value 81/2\n")


def _fresh_catalog(monkeypatch):
    """The catalog built anew, so no table or zeta is memoized for it."""
    monkeypatch.setattr(verification, "catalog",
                        functools.cache(verification.catalog.__wrapped__))
    return dict(verification.catalog())


# the lines of a nilpotent group that read its table
CHAR_LINES = ["frobenius-sweep", "recursion-n3", "recursion-n4",
              "recursion-n5", "char-coefficients", "stabilization"]


def test_a_table_that_fails_its_check_fails_every_char_line(monkeypatch,
                                                            capsys):
    Q8 = _fresh_catalog(monkeypatch)["quaternion(8)"]
    verify_table = chartab._verify_table

    def broken(table):
        if table.group is Q8:
            raise InternalInconsistency("rows are not orthogonal")
        verify_table(table)

    monkeypatch.setattr(chartab, "_verify_table", broken)
    assert main(["verify", "--suite", "all"]) == 1
    out = capsys.readouterr().out.splitlines()
    # `isoclinism.verify_scaling` reads both groups' tables
    scaling = [("isoclinism-scaling", pair) for pair in (
        "dihedral(8)~quaternion(8)", "quaternion(8)xC2~quaternion(8)")]
    assert [line.split(" ", 3) for line in out if line.startswith("FAIL")] \
        == [["FAIL", check_id, group,
             "InternalInconsistency: rows are not orthogonal"]
            for check_id, group in [(check_id, "quaternion(8)")
                                    for check_id in CHAR_LINES] + scaling]
    assert out[-1] == "# 345 passed, 8 failed, 3 flagged"


def test_a_step_that_fails_total_mass_fails_its_lines(monkeypatch):
    Q8 = _fresh_catalog(monkeypatch)["quaternion(8)"]
    combine = formulas._orbit_combination

    def one_more_at_w3(table, linear, coefs):
        numerators, den = combine(table, linear, coefs)
        if table.group is Q8 and len(table.zeta_chain) == 1:
            numerators[0] += den  # one more count at the identity
        return numerators, den

    monkeypatch.setattr(formulas, "_orbit_combination", one_more_at_w3)
    with pytest.raises(InternalInconsistency, match="total mass"):
        formulas.zeta_wn_char(Q8, chartab.character_table(Q8), 3)
    assert [(r.check_id, r.group) for r in verification.run_suite("all")
            if r.status == "FAIL"] == [(check_id, "quaternion(8)")
                                       for check_id in CHAR_LINES[1:]]


def test_readme_names_every_check_id_verify_prints():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Verification", 1)[1].split("\n## ", 1)[0]
    named = re.findall(r"^\| `([a-z0-9-]+)` \|", section, re.M)
    printed = [r.check_id for r in verification.run_suite("all")]
    assert named == list(dict.fromkeys(printed))
