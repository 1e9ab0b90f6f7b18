"""The lines `verify` prints: which checks run on which groups, the FLAGGED
audit report, and that the zeta sweep catches a wrong closed form."""
from wordcount import formulas, groups, verification
from wordcount.cli import main

BUILTINS = ([f"cyclic({n})" for n in range(1, 25)]
            + [f"dihedral({n})" for n in range(4, 25, 2)]
            + ["quaternion(8)", "symmetric(3)", "symmetric(4)",
               "agl1(3)", "agl1(4)", "agl1(5)",
               "extraspecial_plus(2)", "extraspecial_minus(2)",
               "extraspecial_plus(3)", "extraspecial_minus(3)",
               "heisenberg(3)"])
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
# abelian ones and the dihedral groups whose center is not in G'.
CENTRAL_QUOTIENT = _each(["central-quotient"],
                         [f"cyclic({n})" for n in range(2, 25)]
                         + ["dihedral(4)", "dihedral(12)", "dihedral(20)"])


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
    + CENTRAL_QUOTIENT,
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
        ("PASS", "mixed-domain", "symmetric(3)/A3")] + CENTRAL_QUOTIENT


def test_flagged_report_is_pinned(capsys):
    assert main(["verify", "--suite", "all"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("FLAGGED")] == FLAGGED
    assert out[-1] == "# 397 passed, 0 failed, 3 flagged"


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
    assert len(closed) == 50
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
