"""The package's checks hold under `python -O`, which strips `assert`.

A failed check raises explicitly, so a wrong count is reported as a FAIL
whatever the interpreter's optimization level.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wordcount"

# zeta_wn_char off by one everywhere: every recursion line must FAIL
OFF_BY_ONE = """
import json, sys
from wordcount import formulas, groups, verification
exact = formulas.zeta_wn_char

def off_by_one(G, table, n):
    zeta = exact(G, table, n)
    return groups.ClassFunction(zeta.group,
                                tuple(v + 1 for v in zeta.values))

formulas.zeta_wn_char = off_by_one
results = verification.check_zeta_sweep((3, 4, 5))
print(json.dumps([sys.flags.optimize, [r.status for r in results],
                  len(verification.catalog())]))
"""


def test_recursion_checks_fail_under_optimize():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-O", "-c", OFF_BY_ONE], env=env,
                          cwd=ROOT, capture_output=True, text=True, check=True)
    optimize, statuses, groups = json.loads(done.stdout.splitlines()[-1])
    assert optimize == 1
    assert len(statuses) == 3 * groups
    assert set(statuses) == {"FAIL"}


def test_package_has_no_assert_statement():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
