"""The mutant table: each row breaks one certified check in a copy of the
package and names the tests that must fail on the broken copy.

A row copies src/, tests/ and pyproject.toml to a temporary directory,
asserts that its source text occurs exactly once in the named module (so
a refactor that moves the text fails the row loudly), applies the one
edit, and runs only the named tests in a subprocess in that directory,
so that the Hypothesis database of a mutated run stays there too.  The
subprocess runs pytest with plain asserts: a row reads only which tests
failed, and rewriting the asserts of every module of the Hypothesis
distribution took about 0.45 s of a row's 0.7 s where no bytecode is
written (PYTHONDONTWRITEBYTECODE).  The row passes when pytest
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
HEIGHTS = "tests/test_gleason.py::TestHeights"
PELL = "tests/test_laws.py::test_sign_kernel_on_near_cancelling_pell_pairs"

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
    ("schedule condition (1) admits |term| = |t|**m", "gleason.py",
     "sign(a_term - m * F, xs) > 0", "sign(a_term - m * F, xs) >= 0",
     [f"{HEIGHTS}::test_standard_surjection_at_sigma_one[2]",
      f"{HEIGHTS}::test_standard_surjection_at_sigma_one[3]"]),
    ("schedule condition (3) drops s < |head|", "gleason.py",
     "\n                    and sign(a_term + d - sig * pb, xs) < 0", "",
     [f"{HEIGHTS}::test_standard_surjection[30-1-2]"]),
    ("schedule condition (4) dropped", "gleason.py",
     "\n                    and (not bs or sign(a_term - (sig + F) * p ** bs[-1], xs) > 0)", "",
     [f"{HEIGHTS}::test_gplus_and_gminus[2]", f"{HEIGHTS}::test_gplus_and_gminus[3]"]),
    ("schedule condition (5) dropped", "gleason.py",
     "\n                    and _scaled_key(v, scale, pb) not in exps_taken", "",
     ["tests/test_gleason.py::TestBuildGplus::test_exponent_distinctness",
      f"{HEIGHTS}::test_gplus_and_gminus[2]", f"{HEIGHTS}::test_gplus_and_gminus[3]"]),
    ("the window reads hi as the ceiling of D w(cut / |x**xs|)", "gleason.py",
     "floor + (m + 1) * D", "ceil + (m + 1) * D",
     [f"{WINDOW}::test_window_bounds_decide_both_comparisons"]),
    ("the window reads lo as the floor of D w(upper / |x**xs|)", "gleason.py",
     "ceil + m * D", "floor + m * D",
     [f"{WINDOW}::test_window_bounds_decide_both_comparisons"]),
    ("the window shifts hi by m D, not (m + 1) D", "gleason.py",
     "floor + (m + 1) * D", "floor + m * D",
     [f"{WINDOW}::test_window_of_the_half_profile", f"{WINDOW}::test_a_term_at_the_cut_clears"]),
    ("the step's cut reads |pi|**m s", "gleason.py",
     "value_t_shift(s_value(self.profile), m + 1)", "value_t_shift(s_value(self.profile), m)",
     ["tests/test_gleason.py::TestDivideStep::test_an_image_that_misses_beta_is_an_invariant_break"]),
    ("the picker admits the window's lower end", "valuegroup.py",
     "if sign(al * scale - u * den, tuple(x * scale for x in ql)) < 0:",
     "if sign(al * scale - u * den, tuple(x * scale for x in ql)) <= 0:",
     ["tests/test_valuegroup.py::TestWeightTools::test_zp_pick_excludes_the_lower_end"]),
    ("divide_step drops its residual invariant", "gleason.py",
     "    if nres is not None and not value_le(nres, cut):\n"
     "        raise InvariantViolationError(\"residual did not drop below |pi|**(m+1) s\")\n", "",
     ["tests/test_gleason.py::TestDivideStep::test_an_image_that_misses_beta_is_an_invariant_break"]),
    ("the lifted loop, the Tate accumulator's, keeps a term whose sum is 0 mod p",
     "series.py",
     "            k = (t1 + t2, xs2)\n"
     "            s = (terms.get(k, 0) + c1 * c2) % p\n"
     "            if s == 0:\n"
     "                terms.pop(k, None)\n"
     "            else:\n"
     "                terms[k] = s\n",
     "            k = (t1 + t2, xs2)\n"
     "            terms[k] = (terms.get(k, 0) + c1 * c2) % p\n",
     ["tests/test_laws.py::test_two_parts_that_cancel_a_coefficient_leave_none"]),
    ("the rescale shifts by (k - 1) D", "gleason.py",
     "    kD = k * profile.den\n", "    kD = (k - 1) * profile.den\n",
     ["tests/test_gleason.py::TestReconstruct::"
      "test_rescale_and_reconstruction_need_no_t_scale_t_sum_or_mul"]),
    ("the sign kernel reads a + floor(r) = 0 as negative", "valuegroup.py",
     "return 1 if a + f >= 0 else -1", "return 1 if a + f > 0 else -1",
     [f"{PELL}[free1]", f"{PELL}[free2]", f"{PELL}[free3]", f"{PELL}[mixed]"]),
    ("the enclosure of a negative c * sqrt(d) starts one unit high", "valuegroup.py",
     "lo += s if c > 0 else -s - 1", "lo += s if c > 0 else -s",
     [f"{PELL}[free2]", f"{PELL}[free3]", f"{PELL}[mixed]"]),
    ("divide_step admits a coefficient at the bound", "gleason.py",
     "if min(b_terms) - t0 <= bound:", "if min(b_terms) - t0 < bound:",
     ["tests/test_gleason.py::TestDivideStep::"
      "test_coefficient_at_the_bound_is_an_invariant_break[0-True]"]),
    ("divide_step drops the inverse of c0", "gleason.py",
     "inv = pow(c0, -1, p)", "inv = 1",
     ["tests/test_gleason.py::TestDivideStep::"
      "test_a_non_unit_coefficient_is_divided_by_its_inverse"]),
    ("the decimal memo key drops digits", "valuegroup.py",
     "text = w._text.get(digits)", "text = next(iter(w._text.values()), None)",
     ["tests/test_valuegroup.py::TestDecimalMemo::test_each_digit_count_has_its_own_string"]),
    ("the weight memo key drops den", "valuegroup.py",
     "key = (v.an, v.qn, v.den)", "key = (v.an, v.qn)",
     ["tests/test_valuegroup.py::TestDecimalMemo::"
      "test_the_weight_memo_tells_denominators_apart"]),
    ("the exponent-string memo key drops the denominator", "io.py",
     "key = (num, den)", "key = num",
     ["tests/test_io_cli.py::TestExponentText::test_the_memo_tells_caps_apart"]),
    ("the default c reads the floor of sum sqrt(d_i)", "gleason.py",
     "w_c = Fraction(_floor_ceil(profile, 0, (1,) * n, 1)[1])",
     "w_c = Fraction(_floor_ceil(profile, 0, (1,) * n, 1)[0])",
     [f"{HEIGHTS}::test_standard_surjection[1-1-2]"]),
    ("the irrational rounding takes the lower end of its unit, not the midpoint",
     "valuegroup.py",
     "_decimal(2 * m + 1, 2 * n2 * w.den, digits)", "_decimal(2 * m, 2 * n2 * w.den, digits)",
     ["tests/test_valuegroup.py::TestOneWeightPath::"
      "test_printing_takes_one_floor_and_no_enclosure"]),
]


@pytest.mark.parametrize("module, text, replacement, nodes", [row[1:] for row in MUTANTS],
                         ids=[row[0] for row in MUTANTS])
def test_the_named_tests_fail_the_mutant(tmp_path, module, text, replacement, nodes):
    src = tmp_path / "src"
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    path = src / "ultrametrica" / module
    code = path.read_text()
    assert code.count(text) == 1, f"the source text occurs {code.count(text)} times"
    path.write_text(code.replace(text, replacement))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
         "--assert=plain", *nodes],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    failed = sorted(line[len("FAILED "):].split(" - ")[0]  # "FAILED <node> - <reason>"
                    for line in proc.stdout.splitlines() if line.startswith("FAILED "))
    assert proc.returncode == 1 and failed == sorted(nodes), proc.stdout[-3000:]
