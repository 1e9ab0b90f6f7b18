"""Acceptance gate: exact, cross-verified criteria.

Each test prints one PASS/FAIL line.  FLAGGED entries (the two known
formula-audit items) are reported but never fail a criterion.  Criteria
05 (the first moment law) and 11 (character-table exactness) are checked
inside the computation, by the character recursion's total-mass check and
by `character_table`; `tests/test_verification.py` breaks each and sees
`verify` fail.
"""
import sys
import time

from wordcount import verification


def _report(num, title, results, max_seconds=None, elapsed=None):
    fails = [r for r in results if r.status == "FAIL"]
    ok = not fails and (max_seconds is None or elapsed <= max_seconds)
    line = f"{'PASS' if ok else 'FAIL'} criterion-{num:02d} {title}"
    if elapsed is not None:
        line += f" ({elapsed:.2f}s)"
    print(line, file=sys.stderr)
    for r in results:
        if r.status == "FLAGGED":
            print(f"  FLAGGED {r.check_id} {r.group} {r.details}",
                  file=sys.stderr)
    assert not fails, fails
    if max_seconds is not None:
        assert elapsed <= max_seconds, f"took {elapsed:.2f}s"
    return results


def test_criterion_01_frobenius_sweep():
    start = time.perf_counter()
    results = verification.check_zeta_sweep((2,))
    _report(1, "frobenius-sweep", results, 10.0, time.perf_counter() - start)


def test_criterion_02_recursion_sweep():
    start = time.perf_counter()
    results = verification.check_zeta_sweep((3, 4, 5))
    _report(2, "recursion-sweep", results, 30.0, time.perf_counter() - start)


def test_criterion_03_gcp_closed_form():
    _report(3, "gcp-closed-form", verification.check_gcp_closed_form())


def test_criterion_04_unique_nonlinear():
    results = verification.check_unique_nonlinear()
    flagged = [r for r in results if r.status == "FLAGGED"]
    assert any("display=-18" in r.details and "recomputed=27" in r.details
               for r in flagged)
    _report(4, "unique-nonlinear-family", results)


def test_criterion_06_character_property():
    _report(6, "character-coefficients",
            verification.check_character_coefficients())


def test_criterion_07_stabilization():
    _report(7, "stabilization", verification.check_stabilization())


def test_criterion_08_mixed_domain():
    _report(8, "mixed-domain", verification.check_mixed_domain())


def test_criterion_09_isoclinism_scaling():
    results = verification.check_isoclinism()
    assert any("factor=4" in r.details for r in results)
    _report(9, "isoclinism-scaling", results)


def test_criterion_10_camina3_audit():
    results = verification.check_camina3_audit()
    flagged = [r for r in results if r.status == "FLAGGED"]
    assert any("display=1490944" in r.details
               and "class-function=1359872" in r.details for r in flagged)
    _report(10, "camina-class3-audit", results)
