"""The mutant table: each row breaks one certified check in a copy of the
package and names the tests that must fail on the broken copy.

A row copies src/ to a temporary directory, asserts that its source text
occurs exactly once in the named module (so a refactor that moves the
text fails the row loudly), applies the one edit, and runs only the named
tests in a subprocess against the copy.  The row passes when pytest
reports exactly those tests failed.  Never make a row pass by weakening
the test it names.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

TRIAL = "tests/test_io_cli.py::TestCli::test_the_trial_checks_each_residual"
WINDOW = "tests/test_gleason.py::TestDivisionWindow"

# (row id, module under src/ultrametrica, source text, replacement,
#  the node ids that must fail)
MUTANTS = [
    ("is_adapted drops |beta| <= 1", "series.py",
     "value_lt(s, nb) and value_le(nb, one_value(profile))", "value_lt(s, nb)",
     ["tests/test_series.py::TestIsAdapted::test_norm_above_one_fails_condition_1"]),
    ("the trial drops its residual bound check", "cli.py",
     "                if not value_le(res_norm, bound):\n                    ok = False\n", "",
     [f"{TRIAL}[first above its bound-1]"]),
    ("the trial drops its monotonicity check", "cli.py",
     "                if prev is not None and not value_le(res_norm, prev):\n"
     "                    ok = False\n", "",
     [f"{TRIAL}[last rises under its bound-1]"]),
    ("reconstruct_preimage drops its |beta| <= s refusal", "gleason.py",
     "    if nb is not None and not value_le(nb, s):\n"
     "        raise InputValidationError(\"reconstruct_preimage requires |beta| <= s\")\n", "",
     ["tests/test_gleason.py::TestReconstruct::test_norm_above_s_rejected"]),
    ("the window refuses a term at upper", "gleason.py",
     "        if a < lo_hi[0]:", "        if a <= lo_hi[0]:",
     [f"{WINDOW}::test_a_term_at_upper_clears_into_a_residual_at_the_cut"]),
    ("the window keeps a term at the cut", "gleason.py",
     "        if a <= lo_hi[1]:", "        if a < lo_hi[1]:",
     [f"{WINDOW}::test_a_term_at_the_cut_clears",
      "tests/test_gleason.py::TestDivideStep::test_term_exactly_at_the_cut_is_cleared"]),
    ("the decimal memo key drops digits", "valuegroup.py",
     "key = (w.c0, tuple(w.irr.items()), w.den, digits)",
     "key = (w.c0, tuple(w.irr.items()), w.den)",
     ["tests/test_valuegroup.py::TestDecimalMemo::test_each_digit_count_has_its_own_string"]),
]


@pytest.mark.parametrize("module, text, replacement, nodes", [row[1:] for row in MUTANTS],
                         ids=[row[0] for row in MUTANTS])
def test_the_named_tests_fail_the_mutant(tmp_path, module, text, replacement, nodes):
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "ultrametrica" / module
    code = path.read_text()
    assert code.count(text) == 1, f"the source text occurs {code.count(text)} times"
    path.write_text(code.replace(text, replacement))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *nodes],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    failed = sorted(line[len("FAILED "):].split(" - ")[0]  # "FAILED <node> - <reason>"
                    for line in proc.stdout.splitlines() if line.startswith("FAILED "))
    assert proc.returncode == 1 and failed == sorted(nodes), proc.stdout[-3000:]
