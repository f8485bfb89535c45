import ast
import dataclasses
import math
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    float_weight,
    lift,
    only_x,
    ref_decimal,
    ref_heights,
    ref_reconstruct,
    ref_sign,
    ref_tate_norm,
    ref_weight_sum,
    ref_zp_pick,
)
import ultrametrica
from ultrametrica import gleason
from ultrametrica.errors import (
    DenominatorCapError,
    DepthError,
    InputValidationError,
    InvariantViolationError,
    OracleError,
    WindowError,
)
from ultrametrica.gleason import (
    IndependentRep,
    MinZeroRep,
    OracleAnswer,
    SurjectionSpec,
    WellOrder,
    build_gminus,
    build_gmultivar,
    divide_step,
    reconstruct_preimage,
    rescale_into_window,
    standard_surjection,
    verify_schedule,
)
from ultrametrica.sampling import random_series
from ultrametrica.series import (
    AdaptedCertificate,
    SeriesElement,
    gauss_norm,
    make_series,
    monomial,
    mul,
    one,
    res_ge,
    series_frac_pow,
    series_zero,
    sub,
    with_floor,
)
from ultrametrica.tatealg import HomSpec, evaluate, t_scale, t_sum, tate_monomial
from ultrametrica.valuegroup import (
    FreeRadius,
    RationalRadius,
    make_profile,
    pi_value,
    s_value,
    t_power,
    value,
    value_le,
    value_lt,
    value_mul,
    value_pow,
    zero_value,
)


@pytest.fixture(scope="module")
def prof():
    return make_profile(2, [FreeRadius(2)], max_denom_log=32)


def make_norm(profile, key):
    return value(profile, key[0], key[1])


@pytest.fixture(scope="module")
def spec21(prof):
    """Standard surjection deep enough to schedule q = 4 (index 21)."""
    return standard_surjection(prof, 21)


@pytest.fixture(scope="module")
def spec25():
    """Deeper build: q = 4 sits mid-schedule, so its adapted tail is
    nonempty."""
    prof = make_profile(2, [FreeRadius(2)], max_denom_log=40)
    return standard_surjection(prof, 25)


def shell(q, p):
    """The shell max(k, R) of an exponent q: p**k its least common
    p-power denominator, R the largest |numerator| over p**k."""
    k = 0
    while any((x * p**k).denominator != 1 for x in q):
        k += 1
    return max(k, max((abs(int(x * p**k)) for x in q), default=0))


def check_omega_prefix(w, count):
    """omega(1..count) are members of J, none repeated, in shell order."""
    qs = [w.omega(m) for m in range(1, count + 1)]
    assert len(set(qs)) == count
    assert all(w.rule.rep(q) is not None for q in qs)
    shells = [shell(q, w.p) for q in qs]
    assert shells == sorted(shells)
    return qs


class TestWellOrder:
    def test_omega_index_mutually_inverse(self):
        # no member repeats, so each has one index m with omega(m) = q
        check_omega_prefix(WellOrder(1, 2, MinZeroRep(1)), 60)

    def test_nonneg_axis_prefix(self):
        w = WellOrder(1, 2, IndependentRep([(1,)], 2))
        got = [w.omega(m)[0] for m in range(1, 6)]
        assert got == [0, 1, Fraction(1, 2), 2, Fraction(1, 4)]

    def test_every_member_has_finite_index(self):
        qs = check_omega_prefix(WellOrder(2, 2, MinZeroRep(2)), 500)
        for q in [(0, 0), (3, 3), (Fraction(-1, 2), 2), (Fraction(5, 4), 0)]:
            assert tuple(map(Fraction, q)) in qs


class TestRepresentationRules:
    def test_min_zero_covers_lattice(self):
        rule = MinZeroRep(2)
        rng = random.Random(8)
        for _ in range(200):
            q = tuple(Fraction(rng.randint(-12, 12), 1 << rng.randint(0, 3))
                      for _ in range(2))
            h = rule.rep(q)
            assert h is not None and len(h) == 3
            assert min(h) == 0
            # independent reconstruction: q = (h_1 - h_0, h_2 - h_0)
            h0 = max(Fraction(0), -min(q))
            assert h == (q[0] + h0, q[1] + h0, h0)

    def test_min_zero_one_variable(self):
        rule = MinZeroRep(1)
        rng = random.Random(80)
        for _ in range(100):
            q = Fraction(rng.randint(-20, 20), 1 << rng.randint(0, 4))
            h = rule.rep((q,))
            assert h[0] - h[1] == q and min(h) == 0

    def test_independent_rep_solving(self):
        rule = IndependentRep([(1, 0), (1, 1)], 2)
        assert rule.rep((Fraction(3, 2), Fraction(1, 2))) == \
            (Fraction(1), Fraction(1, 2))
        assert rule.rep((0, 1)) is None  # would need a negative coefficient

    def test_dependent_exponents_rejected(self):
        with pytest.raises(InputValidationError):
            IndependentRep([(1,), (-1,)], 2)


class TestBuildGplus:
    def test_depth_one_minimal_b(self, prof):
        sched, G = build_gmultivar(prof, only_x(prof), 1)
        # independent checker: smallest b with 2**b * w(alpha_1) > 1 and
        # the head window already holds at b = 0 because delta_1 = 0
        w_alpha = float_weight(gauss_norm(sched.term(1))) / 2 ** sched.b[0]
        assert sched.b[0] == 0
        assert w_alpha > 1
        assert len(G.terms) == 1

    def test_depth_five_all_adapted(self, prof):
        sched, G = build_gmultivar(prof, only_x(prof), 5)
        certs = verify_schedule(sched, G)
        assert len(certs) == 5 and all(c.passed for c in certs)

    def test_exponent_distinctness(self, prof):
        sched, _ = build_gmultivar(prof, only_x(prof), 10)
        exps = [q[0] * 2 ** b for q, b in zip(sched.omegas, sched.b)]
        assert len(set(exps)) == len(exps)

    def test_b_monotone(self, prof):
        sched, _ = build_gmultivar(prof, only_x(prof), 10)
        assert all(b2 > b1 for b1, b2 in zip(sched.b, sched.b[1:]))

    def test_d_coefficients_bounded(self, prof):
        sched, _ = build_gmultivar(prof, only_x(prof), 8)
        for m in range(1, 9):
            for i in range(1, m):
                nd = gauss_norm(sched.d(m, i))
                assert value_le(nd, t_power(prof.base(), 0))

    def test_epsilon_property(self, prof):
        # s <= |eps_m ** (1/p**b_m)| for every m
        sched, _ = build_gmultivar(prof, only_x(prof), 8)
        for m in range(1, 9):
            delta = sched.deltas[m - 1]
            assert delta / 2 ** sched.b[m - 1] <= prof.sigma_s

    def test_argnorm_property(self, prof):
        # eps_m G - sum_{i<m} d_{m,i} W_i**(p**b_i) peaks at W_m**(p**b_m)
        sched, G = build_gmultivar(prof, only_x(prof), 6)
        p = prof.p
        for m in range(1, 7):
            expr = mul(monomial(prof, 1, sched.deltas[m - 1]), G)
            for i in range(1, m):
                wpow = series_frac_pow(sched.W(i), p ** sched.b[i - 1])
                expr = sub(expr, mul(lift(sched.d(m, i), prof), wpow))
            (_, xs), = res_ge(expr, gauss_norm(expr)).terms
            assert xs == (sched.omegas[m - 1][0] * p ** sched.b[m - 1],)

    def test_structure_decomposition(self, prof):
        # G = sum beta_i W_i**(p**b_i) rebuilt from raw schedule fields
        sched, G = build_gmultivar(prof, only_x(prof), 6)
        rebuilt = {}
        for m in range(1, 7):
            gamma = sched.gammas[m - 1]
            pb = 2 ** sched.b[m - 1]
            key = (gamma * pb, (sched.omegas[m - 1][0] * pb,))
            rebuilt[key] = 1
        assert G.terms == rebuilt

    def test_norm_below_pi(self, prof):
        _, G = build_gmultivar(prof, only_x(prof), 6)
        assert value_lt(gauss_norm(G), pi_value(prof))

    def test_p3_build(self):
        prof3 = make_profile(3, [FreeRadius(2)], max_denom_log=24)
        sched, G = build_gmultivar(prof3, only_x(prof3), 6)
        assert all(c.passed for c in verify_schedule(sched, G))


class TestThresholdBelowPi:
    """Alpha mode needs sigma_s >= 1 (s <= |pi|): below it step 1's height
    scan never ends, so the build refuses before step 1."""

    @pytest.mark.parametrize("sigma_s", ["1/2", "99/100", "1/1000"])
    def test_below_one_is_an_input_error(self, sigma_s):
        prof = make_profile(2, [FreeRadius(2)], sigma_s=Fraction(sigma_s), max_denom_log=32)
        with pytest.raises(InputValidationError, match="below 1"):
            build_gmultivar(prof, only_x(prof), 3)
        with pytest.raises(InputValidationError, match="below 1"):
            standard_surjection(prof, 3)

    def test_standard_surjection_refuses_before_picking_c(self):
        # s = |t|**(1/10**6) leaves c a window too narrow for the default
        # cap, so picking c first would raise a cap error instead
        prof = make_profile(2, [FreeRadius(2)], sigma_s=Fraction(1, 10**6))
        with pytest.raises(InputValidationError) as refused:
            standard_surjection(prof, 3)
        assert str(refused.value) == ("sigma_s = 1/1000000 is below 1: no Frobenius height"
                                      " meets |term| < |t| at step 1")

    def test_one_still_builds(self):
        prof = make_profile(2, [FreeRadius(2)], sigma_s=1, max_denom_log=32)
        spec = standard_surjection(prof, 3)
        assert all(c.passed for c in verify_schedule(spec.schedule, spec.G))


class TestVerifySchedule:
    def test_standard_schedule_closed_form_matches(self, spec21):
        certs = verify_schedule(spec21.schedule, spec21.G)
        assert len(certs) == 21 and all(c.passed for c in certs)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("n", [1, 2])
    def test_certifies_the_served_preimages(self, p, n):
        prof = make_profile(p, [FreeRadius(d) for d in (2, 3)[:n]], max_denom_log=64)
        spec = standard_surjection(prof, 8)
        certs = verify_schedule(spec.schedule, spec.G)
        assert len(certs) == 8 and all(c.passed for c in certs)
        for m, q in enumerate(spec.schedule.omegas, 1):
            ans = spec.schedule_answer(q)
            assert ans.preimage == spec.schedule.preimage(m)
            assert evaluate(ans.preimage, spec.hom, zero_value(prof)) == ans.image

    @pytest.mark.parametrize("p", [2, 3])
    def test_gminus_certifies(self, p):
        prof_p = make_profile(p, [FreeRadius(2)], max_denom_log=32)
        sched, G, _ = build_gminus(prof_p, monomial(prof_p.base(), 1, 2), 6)
        assert all(c.passed for c in verify_schedule(sched, G))

    def test_other_element_rejected(self, prof):
        sched, G = build_gmultivar(prof, only_x(prof), 5)
        _, deeper = build_gmultivar(prof, only_x(prof), 6)  # G plus one more term
        with pytest.raises(InvariantViolationError, match="subtractive"):
            verify_schedule(sched, deeper)
        with pytest.raises(TypeError):
            verify_schedule(sched)

    def test_altered_delta_rejected(self, prof):
        sched, G = build_gmultivar(prof, only_x(prof), 5)
        deltas = list(sched.deltas)
        deltas[2] += 64 * 2 ** sched.b[2]  # head weight +64: |expr| drops below s
        bad = dataclasses.replace(sched, deltas=tuple(deltas))
        with pytest.raises(InvariantViolationError, match="not adapted"):
            verify_schedule(bad, G)

    def test_altered_gamma_breaks_subtractive_form(self, prof):
        sched, G = build_gmultivar(prof, only_x(prof), 5)
        gammas = list(sched.gammas)
        gammas[1] += 1
        bad = dataclasses.replace(sched, gammas=tuple(gammas))
        with pytest.raises(InvariantViolationError, match="subtractive"):
            verify_schedule(bad, G)

    def test_d_above_one_rejected(self, prof):
        sched, G = build_gmultivar(prof, only_x(prof), 8)
        assert len(verify_schedule(sched, G)) == 8
        deltas = list(sched.deltas)
        deltas[6] -= Fraction(1, 64)  # d(7, 6) = t**(-1/64), norm above 1
        bad = dataclasses.replace(sched, deltas=tuple(deltas))
        with pytest.raises(InvariantViolationError, match="step 7:"):
            verify_schedule(bad, G)


class TestHeights:
    """Every schedule's heights equal a full scan from 0 (conftest's
    ref_heights) and strictly increase."""

    def check(self, sched):
        assert sched.b == ref_heights(sched)
        assert all(b2 > b1 for b1, b2 in zip(sched.b, sched.b[1:]))

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("depth", [1, 5, 12, 30])
    def test_standard_surjection(self, p, n, depth):
        prof = make_profile(p, [FreeRadius(d) for d in (2, 3)[:n]], max_denom_log=64)
        self.check(standard_surjection(prof, depth).schedule)

    @pytest.mark.parametrize("p", [2, 3])
    def test_standard_surjection_at_sigma_one(self, p):
        """At sigma_s = 1 step 1 picks gamma_1 in (0, 1/2) with
        gamma_1 p**(b_1 - 1) = 1 (1/4 for p = 2, 1/3 for p = 3): one height
        below b_1, |term| = |t|**(gamma_1 p**b) is |t| exactly, and (1),
        |term| < |t|**m, is strict."""
        prof = make_profile(p, [FreeRadius(2)], sigma_s=1, max_denom_log=32)
        sched = standard_surjection(prof, 12).schedule
        assert sched.gammas[0] * p ** (sched.b[0] - 1) == 1
        self.check(sched)

    @pytest.mark.parametrize("p", [2, 3])
    def test_gplus_and_gminus(self, p):
        prof = make_profile(p, [FreeRadius(2)], max_denom_log=32)
        self.check(build_gmultivar(prof, only_x(prof), 20)[0])
        self.check(build_gminus(prof, monomial(prof.base(), 1, 2), 20)[0])


class TestWindowsOnNorms:
    """build_schedule decides every window on integer weights, from the
    keys of V: with SeriesElement._raw, which every series constructor
    reaches, raising, it returns the schedule it returns without it."""

    @pytest.mark.parametrize("case", ["G+", "two-variable lattice", "standard"])
    def test_builds_no_series_element(self, monkeypatch, case):
        prof1 = make_profile(2, [FreeRadius(2)], max_denom_log=32)
        prof2 = make_profile(2, [FreeRadius(2), FreeRadius(3)], max_denom_log=32)
        xy = (monomial(prof2, 1, 0, (1, 0)), monomial(prof2, 1, 0, (0, 1)))
        args = {
            "G+": (prof1, only_x(prof1), gleason._lattice_rule(prof1, only_x(prof1)), 12),
            "two-variable lattice": (prof2, xy, gleason._lattice_rule(prof2, xy), 12),
            "standard": (prof2, standard_surjection(prof2, 1).schedule.V, MinZeroRep(2), 30),
        }[case]
        want = gleason.build_schedule(*args)

        def refuse(*_):
            raise AssertionError("build_schedule computed with a series element")

        monkeypatch.setattr(SeriesElement, "_raw", refuse)
        assert gleason.build_schedule(*args) == want

    def test_refuses_the_step_whose_lattice_monomial_leaves_the_cap(self):
        # omega(9) = 1/8 needs x**(1/8), past the cap p**2: G could not hold
        # it, so the build stops at step 9 rather than running on
        prof = make_profile(2, [FreeRadius(2)], max_denom_log=2)
        rule = gleason._lattice_rule(prof, only_x(prof))
        assert len(gleason.build_schedule(prof, only_x(prof), rule, 8).b) == 8
        with pytest.raises(DenominatorCapError) as refused:
            gleason.build_schedule(prof, only_x(prof), rule, 12)
        assert str(refused.value) == "exponent with denominator p**3 exceeds the cap p**2"


class TestBuildGmultivar:
    def test_minus_lattice_coverage(self, prof):
        # V = (x, c x**-1) with the min-zero rule covers Z[1/p]
        c = monomial(prof.base(), 1, 2)
        V = (monomial(prof, 1, 0, (1,)), monomial(prof, 1, 2, (-1,)))
        sched, G = build_gmultivar(prof, V, 6, rule=MinZeroRep(1))
        assert all(c_.passed for c_ in verify_schedule(sched, G))
        rng = random.Random(6)
        for _ in range(50):
            q = (Fraction(rng.randint(-16, 16), 1 << rng.randint(0, 3)),)
            h = MinZeroRep(1).rep(q)
            assert h[0] - h[1] == q[0]

    def test_two_variable_lattice(self):
        prof2 = make_profile(2, [FreeRadius(2), FreeRadius(3)], max_denom_log=32)
        cxy = monomial(prof2, 1, 4, (-1, -1))
        V = (
            monomial(prof2, 1, 0, (1, 0)),
            monomial(prof2, 1, 0, (0, 1)),
            cxy,
        )
        sched, G = build_gmultivar(prof2, V, 5, rule=MinZeroRep(2))
        assert all(c.passed for c in verify_schedule(sched, G))

    def test_norm_window_validated(self, prof):
        too_big = monomial(prof, 1, -2, (1,))  # weight -2 + sqrt2 < 0: norm > 1
        with pytest.raises(WindowError):
            build_gmultivar(prof, (too_big,), 3)


class TestBuildGminus:
    @pytest.fixture
    def cm(self, prof):
        return monomial(prof.base(), 1, 2)  # |c x**-1| = |t|**(2 - sqrt2)

    def test_depth_one_exact_substitution(self, prof, cm):
        sched, G, pre = build_gminus(prof, cm, 1)
        hom = HomSpec((mul(lift(cm, prof), monomial(prof, 1, 0, (-1,))),))
        got = evaluate(pre, hom, t_power(prof, 40))
        assert got == G
        assert len(G.terms) == 1

    def test_depth_six_roundtrip(self, prof, cm):
        sched, G, pre = build_gminus(prof, cm, 6)
        hom = HomSpec((mul(lift(cm, prof), monomial(prof, 1, 0, (-1,))),))
        # the deepest stored term is tiny; evaluate below all of them
        deepest = 2 * max(int(float_weight(make_norm(prof, k))) for k in G.terms) + 2
        got = evaluate(pre, hom, t_power(prof, deepest))
        assert got.terms == G.terms

    def test_norm_bounded(self, prof, cm):
        _, G, pre = build_gminus(prof, cm, 6)
        assert value_le(gauss_norm(G), t_power(prof, 0))
        assert value_le(ref_tate_norm(pre), t_power(prof.base(), 0))

    def test_adapted_within_reach(self, prof, cm):
        sched, G, _ = build_gminus(prof, cm, 6)
        certs = verify_schedule(sched, G)
        assert all(c.passed for c in certs)

    def test_bad_c_rejected(self, prof):
        with pytest.raises(WindowError):
            build_gminus(prof, monomial(prof.base(), 1, 20), 2)  # |c x**-1| < s

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.data())
    def test_each_gamma_is_the_pick_of_the_direct_window(self, data):
        """Over p in {2, 3, 5}, one free radius sqrt(d) and sigma_s in (1, 4],
        with half the draws in the band w(c x**-1) < 1 < sigma_s <= 2, where
        step 1's W_1 = 1 folds |e_1| < |t| into the lower end: each gamma_m
        of build_gminus to depth 1-4 is ref_zp_pick on (w_lo, sigma_s), for
        w_lo = w(c x**-1), or max(w(c x**-1), m) when h_m = 0, with every
        weight signed by ref_sign.  The build refuses step m, with
        WindowError, exactly at the first step whose |W_m| = |c x**-1|**h_m
        is <= s or whose window has no pick."""
        p = data.draw(st.sampled_from((2, 3, 5)))
        d = data.draw(st.sampled_from((2, 3, 5, 7)))
        band = data.draw(st.booleans())
        sigma = Fraction(data.draw(st.integers(5, 8 if band else 16)), 4)
        # w_c = u / p**j with 0 < w_c - sqrt(d) < (1 if band else sigma)
        j = data.draw(st.integers(0, 3))
        top = math.floor(ref_decimal(p**j * (1 if band else sigma), {d: Fraction(p**j)}))
        w_c = Fraction(data.draw(st.integers(math.isqrt(d * p ** (2 * j)) + 1, top)), p**j)
        prof = make_profile(p, [FreeRadius(d)], sigma, max_denom_log=32)
        c = monomial(prof.base(), 1, w_c)
        well = WellOrder(1, p, gleason._lattice_rule(prof, (monomial(prof, 1, w_c, (-1,)),)))
        w_v, s = (w_c, {d: Fraction(-1)}), (sigma, {})
        depth, want = data.draw(st.integers(1, 4)), []
        for m in range(1, depth + 1):
            h = -well.omega(m)[0]  # V_1 = c x**-1, so h_m = -omega(m)
            if ref_sign(*ref_weight_sum((h, w_v), (-1, s))) >= 0:
                break  # |W_m| <= s
            w_lo = w_v
            if h == 0 and ref_sign(*ref_weight_sum((1, w_v), (-1, (m, {})))) < 0:
                w_lo = (Fraction(m), {})
            pick = ref_zp_pick(p, w_lo, s)
            if pick is None:
                break
            want.append(pick)
        if len(want) < depth:
            with pytest.raises(WindowError):
                build_gminus(prof, c, len(want) + 1)
        if want:
            assert build_gminus(prof, c, len(want))[0].gammas == tuple(want)


class TestStandardSurjection:
    def test_three_images_for_n1(self, spec21, prof):
        assert spec21.hom.m == 3
        x, cx, G = spec21.hom.images
        assert x == monomial(prof, 1, 0, (1,))
        assert cx == monomial(prof, 1, 2, (-1,))
        assert G == spec21.G

    def test_oracle_q1_monomial(self, spec21):
        ans = spec21((Fraction(1),))
        assert ans.certificate.passed
        assert len(ans.preimage.terms) == 1

    def test_oracle_negative_half_uses_pth_root(self, spec21):
        ans = spec21((Fraction(-1, 2),))
        assert ans.certificate.passed
        (exps,) = ans.preimage.terms
        # min-zero rep of -1/2 is (0, 1/2): T_2**(1/2), a p-th root
        assert exps == (Fraction(0), Fraction(1, 2), Fraction(0))

    def test_oracle_images_match_evaluate(self, spec21, prof):
        floor = t_power(prof, 60)
        for q in [(Fraction(1),), (Fraction(-1, 2),), (Fraction(4),)]:
            ans = spec21(q)
            ev = evaluate(ans.preimage, spec21.hom, floor)
            assert ev.terms == ans.image.terms

    def test_depth_error_beyond_schedule(self, prof):
        shallow = standard_surjection(prof, 4)
        with pytest.raises(DepthError):
            shallow((Fraction(4),))

    def test_c_exponent_outside_the_window_is_an_input_error(self, prof):
        for w_c in (100, 1):  # |c x**-1| below s, and above 1
            with pytest.raises(InputValidationError, match="c_exponent"):
                standard_surjection(prof, 3, c_exponent=w_c)

    def test_preimages_power_bounded(self, spec21):
        for q in [(Fraction(0),), (Fraction(2),), (Fraction(-2),), (Fraction(4),)]:
            ans = spec21(q)
            assert value_le(ref_tate_norm(ans.preimage), t_power(spec21.base, 0))


def numerators(spec, q):
    """The key of the rational exponent q in spec's answer memo: its
    numerators over the profile denominator D."""
    return tuple(x.numerator * (spec.profile.den // x.denominator) for x in q)


class TestMemosBehaveAsIfAbsent:
    """Oracle answers and adapted expressions from a spec or schedule that
    has served other queries equal those of a fresh one."""

    def queries(self, spec):
        extra = [(Fraction(k, 2),) for k in range(-6, 9)]
        return list(spec.schedule.omegas) + extra

    def test_oracle_answers_match_a_fresh_spec(self, spec21, prof):
        used = spec21
        qs = self.queries(used)
        for q in qs:
            used(q)
        fresh = standard_surjection(prof, 21)
        kinds = set()
        for q in reversed(qs):
            kinds.add(used.monomial_answer(q) is None)
            assert used(q) == fresh(q)
        assert kinds == {True, False}  # both monomial and schedule answers

    def test_adapted_expressions_match_a_fresh_schedule(self, spec21):
        used = spec21.schedule
        for q in self.queries(spec21):
            spec21(q)
        verify_schedule(used, spec21.G)
        fresh = dataclasses.replace(used)
        for m in range(used.depth, 0, -1):
            assert used.adapted_expression(m) == fresh.adapted_expression(m)
        for m in (0, used.depth + 1):
            with pytest.raises(DepthError):
                used.adapted_expression(m)

    def test_altered_copy_of_a_used_schedule_is_still_rejected(self, prof):
        sched, G = build_gmultivar(prof, only_x(prof), 5)
        verify_schedule(sched, G)
        gammas = list(sched.gammas)
        gammas[1] += 1
        bad = dataclasses.replace(sched, gammas=tuple(gammas))
        with pytest.raises(InvariantViolationError, match="subtractive"):
            verify_schedule(bad, G)

    def test_repeated_query_returns_the_stored_answer(self, spec21):
        kinds = set()
        for q in self.queries(spec21):
            ans = spec21(q)
            kinds.add(spec21.monomial_answer(q) is None)
            assert spec21(q) is ans
            assert spec21._memo[numerators(spec21, q)] is ans
        assert kinds == {True, False}  # both monomial and schedule answers

    def test_depth_error_is_raised_every_time_and_never_stored(self, prof):
        shallow = standard_surjection(prof, 4)
        shallow((Fraction(1),))
        stored = dict(shallow._memo)
        for _ in range(2):
            with pytest.raises(DepthError, match="beyond the schedule's depth 4"):
                shallow((Fraction(4),))
            assert shallow._memo == stored
            assert numerators(shallow, (Fraction(4),)) not in shallow._memo

    def test_depth_error_leaves_the_well_order_as_built(self, prof, monkeypatch):
        """An exponent past the schedule is refused from the schedule's
        omegas alone: no well-order is enumerated."""
        shallow = standard_surjection(prof, 4)

        def no_growth(self):
            raise AssertionError("a well-order was enumerated")

        monkeypatch.setattr(WellOrder, "_grow", no_growth)
        for q in [(Fraction(4),), (Fraction(45),), (Fraction(45, 8),)]:
            with pytest.raises(DepthError):
                shallow(q)

    def test_depth_errors_write_exponents_as_the_wire_format_does(self, prof):
        """(45), not (Fraction(45, 1),), in the oracle's DepthError and in
        the OracleError divide_step raises for an exponent it needs."""
        shallow = standard_surjection(prof, 4)
        with pytest.raises(DepthError) as depth:
            shallow((Fraction(45),))
        # x**45 has weight 45 sqrt(2) = 63.6..., inside the step-58 window [63, 64]
        beta = make_series(prof, {(Fraction(0), (Fraction(45),)): 1})
        with pytest.raises(OracleError) as oracle:
            divide_step(shallow, beta, 58)
        for exc in (depth, oracle):
            message = str(exc.value)
            assert "(45)" in message and "Fraction(" not in message
        assert str(oracle.value).startswith("oracle failed for required exponent (45): ")
        with pytest.raises(DepthError, match=r"adapted oracle for \(45/8\): "):
            shallow((Fraction(45, 8),))

    def test_answer_memo_is_capped(self, prof):
        spec = standard_surjection(prof, 4)
        qs = [(Fraction(j, 256),) for j in range(600)]  # |x**q| > s for all of them
        for q in qs:
            assert spec(q) == spec.monomial_answer(q)
        assert len(spec._memo) == gleason._ANSWER_MEMO_CAP == 512
        assert numerators(spec, qs[-1]) not in spec._memo
        assert spec(qs[-1]) == spec.monomial_answer(qs[-1])

    def test_used_hom_evaluates_as_a_fresh_one(self, spec21, prof):
        beta = make_series(prof, {(Fraction(6), (Fraction(1),)): 1,
                                  (Fraction(7), (Fraction(0),)): 1,
                                  (Fraction(9), (Fraction(-1, 2),)): 1})
        preimage = reconstruct_preimage(spec21, beta, 8).preimage
        fresh = HomSpec(spec21.hom.images)
        floor = t_power(prof, 40)
        for _ in range(2):
            assert spec21.hom._powers
            assert evaluate(preimage, spec21.hom, floor) == evaluate(preimage, fresh, floor)

    def test_monomial_answer_image_is_the_entry_evaluate_reads(self, spec21, prof):
        for q in [(Fraction(1),), (Fraction(-1, 2),), (Fraction(3, 4),)]:
            ans = spec21(q)
            (e,) = ans.preimage._terms  # one exponent tuple, numerators over D
            assert spec21.hom._powers[e] is ans.image
            assert evaluate(ans.preimage, spec21.hom, zero_value(prof)) == ans.image

    def test_rule_is_built_once(self, prof, monkeypatch):
        shallow = standard_surjection(prof, 4)
        built = []

        class CountingRule(MinZeroRep):
            def __init__(self, n):
                built.append(n)
                super().__init__(n)

        monkeypatch.setattr(gleason, "MinZeroRep", CountingRule)
        for q in [(Fraction(1),), (Fraction(-1, 2),), (Fraction(0),)]:
            shallow(q)
        with pytest.raises(DepthError, match="beyond the schedule's depth 4"):
            shallow((Fraction(4),))
        assert built == []


class ScaledAnswers:
    """An oracle that answers as spec does, with the preimage, the image and
    the certificate's b_q of each answer scaled by the base-field monomial
    u, or only the image when image_only: scaled together they still map
    onto each other, and divide_step must divide the scale back out."""

    def __init__(self, spec, u, image_only=False):
        self.spec, self.u, self.image_only = spec, u, image_only

    def __getattr__(self, name):
        return getattr(self.spec, name)

    def answer(self, qn):
        ans = self.spec.answer(qn)
        image = mul(lift(self.u, self.spec.profile), ans.image)
        if self.image_only:
            return OracleAnswer(ans.preimage, image, ans.certificate)
        cert = dataclasses.replace(ans.certificate, b_q=mul(ans.certificate.b_q, self.u))
        return OracleAnswer(t_scale(ans.preimage, self.u), image, cert)


class TestDivideStep:
    def test_single_monomial_zero_residual(self, spec21, prof):
        beta = make_series(prof, {(Fraction(6), (Fraction(1),)): 1})
        # weight 6 + 1.41 = 7.41 sits in the m = 2 window [7, 8)
        f, residual = divide_step(spec21, beta, 2)
        assert residual.terms == {}
        assert len(f.terms) == 1

    def test_two_term_beta(self, spec21, prof):
        beta = make_series(prof, {
            (Fraction(6), (Fraction(1),)): 1,
            (Fraction(7), (Fraction(0),)): 1,
        })
        f, residual = divide_step(spec21, beta, 2)
        cut = value_mul(value_pow(pi_value(prof), 3), s_value(prof))
        nr = gauss_norm(residual)
        assert nr is None or value_le(nr, cut)
        nf = ref_tate_norm(f)
        assert value_le(nf, t_power(prof.base(), 2))

    def test_below_cut_untouched(self, spec21, prof):
        beta = make_series(prof, {(Fraction(30), (Fraction(1),)): 1})
        f, residual = divide_step(spec21, beta, 2)
        assert f.terms == {}
        assert residual == beta

    def test_window_violation_raises(self, spec21, prof):
        beta = make_series(prof, {(Fraction(0), (Fraction(1),)): 1})  # norm > s
        with pytest.raises(InputValidationError):
            divide_step(spec21, beta, 2)

    @pytest.mark.parametrize("sigma_s", [None, Fraction(16, 3)])
    def test_step_values_match_the_value_arithmetic(self, sigma_s):
        """upper and cut against t_power and value_mul, also for a sigma_s
        outside D**-1 Z, whose values carry lcm(D, 3)."""
        profile = make_profile(2, [FreeRadius(2)], sigma_s, max_denom_log=8)
        s = s_value(profile)
        for m in range(6):
            assert gleason._step_values(profile, m) == (
                value_mul(t_power(profile, m), s),
                value_mul(t_power(profile, m + 1), s),
            )

    def test_step_values_are_kept_for_at_most_max_steps(self, prof):
        spec = standard_surjection(prof, 4)
        for m in range(gleason.MAX_STEPS + 3):
            assert spec.step_values(m) == gleason._step_values(prof, m)
        assert len(spec._steps) == gleason.MAX_STEPS
        assert spec.step_values(5) is spec.step_values(5)

    def test_empty_windows_share_one_tate_part(self, spec21, prof):
        below = make_series(prof, {(Fraction(30), (Fraction(1),)): 1})
        assert divide_step(spec21, below, 2)[0] is divide_step(spec21, below, 3)[0]

    def test_non_monomial_coefficient_is_an_invariant_break(self, spec21, prof):
        """An oracle whose certificate for x**1 gives b_q = 1 + t: the
        division coefficient of beta = t**6 x would need an inverse that no
        exact finite preimage has, so the step refuses it by name."""
        base = prof.base()
        two_terms = make_series(base, {(0, ()): 1, (1, ()): 1})

        class TwoTermCoefficient:
            def __getattr__(self, name):
                return getattr(spec21, name)

            def answer(self, qn):
                ans = spec21.answer(qn)
                cert = dataclasses.replace(ans.certificate, b_q=two_terms)
                return OracleAnswer(ans.preimage, ans.image, cert)

        beta = make_series(prof, {(Fraction(6), (Fraction(1),)): 1})
        with pytest.raises(InvariantViolationError) as exc:
            divide_step(TwoTermCoefficient(), beta, 2)
        assert str(exc.value) == "the coefficient b_q of x**(1) is not a monomial"

    @pytest.mark.parametrize("extra, breaks", [(0, True), (1, False)])
    def test_coefficient_at_the_bound_is_an_invariant_break(self, spec21, prof,
                                                             extra, breaks):
        """beta = t**6 x at m = 2 over an oracle whose x**1 answer is scaled
        by u = t**(4 - extra / D): b_q = u puts the division coefficient
        t**(2 + extra / D) at least t numerator m D + extra.  m D itself is
        |d| = |pi|**m, which the step refuses; one numerator more passes,
        and the scaled image still clears beta, with the same f."""
        u = make_series(prof.base(), {(Fraction(4 * prof.den - extra, prof.den), ()): 1})
        beta = make_series(prof, {(Fraction(6), (Fraction(1),)): 1})
        if breaks:
            with pytest.raises(InvariantViolationError) as exc:
                divide_step(ScaledAnswers(spec21, u), beta, 2)
            assert str(exc.value) == "division coefficient |d| >= |pi|**m"
            return
        f, residual = divide_step(ScaledAnswers(spec21, u), beta, 2)
        assert residual.terms == {}
        assert f == divide_step(spec21, beta, 2)[0]

    def test_an_image_that_misses_beta_is_an_invariant_break(self, spec21, prof):
        """An oracle whose x**1 image is t times the certified one: the
        division coefficient passes its bound, but beta's term stays in the
        residual, above the cut."""
        t = make_series(prof.base(), {(Fraction(1), ()): 1})
        beta = make_series(prof, {(Fraction(6), (Fraction(1),)): 1})
        with pytest.raises(InvariantViolationError) as exc:
            divide_step(ScaledAnswers(spec21, t, image_only=True), beta, 2)
        assert str(exc.value) == "residual did not drop below |pi|**(m+1) s"

    def test_a_non_unit_coefficient_is_divided_by_its_inverse(self):
        """Over p = 3 an oracle that scales each answer's preimage, image and
        b_q by 2: every division coefficient carries 2**-1 = 2, and each
        step's residual is still beta minus the image of its part."""
        profile = make_profile(3, [FreeRadius(2)], max_denom_log=20)
        spec = standard_surjection(profile, 6)
        two = make_series(profile.base(), {(Fraction(0), ()): 2})
        oracle = ScaledAnswers(spec, two)
        beta = make_series(profile, {
            (Fraction(4), (Fraction(1),)): 1,
            (Fraction(5), (Fraction(0),)): 2,
            (Fraction(6), (Fraction(-1),)): 1,
        })
        beta, _ = rescale_into_window(beta)
        exact = zero_value(profile)
        cleared = 0
        for m in range(4):
            f, residual = divide_step(oracle, beta, m)
            assert residual == sub(beta, evaluate(f, spec.hom, exact))
            cleared += len(f.terms)
            beta = residual
        assert cleared and beta.terms == {}

    def test_term_exactly_at_the_cut_is_cleared(self, spec21, prof):
        # |t**(m+1+sigma_s)| is the cut itself: the window holds it
        beta = make_series(prof, {(3 + prof.sigma_s, (Fraction(0),)): 1})
        f, residual = divide_step(spec21, beta, 2)
        assert residual.terms == {}
        assert len(f.terms) == 1

    def test_below_cut_returns_beta_itself(self, spec21, prof):
        beta = make_series(prof, {(Fraction(30), (Fraction(1),)): 1})
        f, residual = divide_step(spec21, beta, 2)
        assert residual is beta
        assert f == t_sum(spec21.num_vars, spec21.base, ())

    def test_floored_beta_without_terms_comes_back_as_itself(self, spec21, prof):
        beta = series_zero(prof, t_power(prof, 6))
        f, residual = divide_step(spec21, beta, 2)
        assert residual is beta
        assert f == t_sum(spec21.num_vars, spec21.base, ())

    def test_over_window_floored_beta_raises(self, spec21, prof):
        # norm above |pi|**2 s, with a floor above the step's cut
        beta = make_series(prof, {(Fraction(6), (Fraction(0),)): 1}, t_power(prof, 7))
        with pytest.raises(InputValidationError, match="window"):
            divide_step(spec21, beta, 2)


class MonomialOracle:
    """The parts of a SurjectionSpec that divide_step reads, over any
    profile, rational radii included: the spec's own step_values, window
    and step_windows, with their memos, the empty Tate part, and for x**q
    the answer image x**q * factor (factor a base-field element, 1 by
    default) with b_q = 1 and the constant preimage 1, which divide_step
    does not check."""

    step_values = SurjectionSpec.step_values
    window = SurjectionSpec.window
    step_windows = SurjectionSpec.step_windows

    def __init__(self, profile, factor=None):
        self.profile, self.base = profile, profile.base()
        self.num_vars = profile.n + 2
        self._steps, self._windows = {}, {}
        self._empty = t_sum(self.num_vars, self.base, ())
        self.factor = factor or one(self.base)

    def answer(self, qn):
        D = self.profile.den
        q = tuple(Fraction(x, D) for x in qn)
        image = mul(lift(self.factor, self.profile), monomial(self.profile, 1, 0, q))
        cert = AdaptedCertificate(q, s_value(self.profile), one(self.base), None,
                                  (True, True, True))
        pre = tate_monomial(self.num_vars, one(self.base), (0,) * self.num_vars)
        return OracleAnswer(pre, image, cert)


class TestDivisionWindow:
    """divide_step decides its window on the integers (lo, hi) of
    SurjectionSpec.window, per step and x exponent."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_window_bounds_decide_both_comparisons(self, data):
        """a < lo exactly when |term| > upper and a <= hi exactly when
        |term| >= cut, over p = 2 and 3, free and rational radii and a
        sigma_s outside D**-1 Z."""
        p = data.draw(st.sampled_from((2, 3)))
        cap = data.draw(st.integers(1, 5))
        free = [FreeRadius(d) for d in data.draw(
            st.lists(st.sampled_from((2, 3, 5)), max_size=2, unique=True))]
        rational = [RationalRadius(Fraction(data.draw(st.integers(0, 9)),
                                            data.draw(st.sampled_from((1, 2, 3, p)))))
                    for _ in range(data.draw(st.integers(0, 2)))]
        radii = data.draw(st.permutations(free + rational))
        finer = data.draw(st.sampled_from((p ** (cap + 1), 5 * p, 7)))
        sigma_s = Fraction(data.draw(st.integers(1, 6 * finer)), finer)
        profile = make_profile(p, radii, sigma_s, max_denom_log=cap)
        D = profile.den
        oracle = MonomialOracle(profile)
        m = data.draw(st.integers(0, 6))
        xs = tuple(data.draw(st.integers(-3 * D, 3 * D)) for _ in radii)
        upper, cut = oracle.step_values(m)
        lo, hi = oracle.window(m, xs)
        drawn = data.draw(st.integers(lo - 2 * D, hi + 2 * D))
        for a in (lo - 1, lo, hi, hi + 1, drawn):
            norm = value(profile, Fraction(a, D), tuple(Fraction(x, D) for x in xs))
            assert (a < lo) == value_lt(upper, norm)
            assert (a <= hi) == value_le(cut, norm)

    @pytest.fixture(scope="class")
    def half(self):
        """|x| = |t|**(1/2) and s = |t|**3: at m = 2, upper = |t|**5 and
        cut = |t|**6, so t**(a/D) x has norm upper at a = 9D/2 = lo and
        cut at a = 11D/2 = hi."""
        return make_profile(2, [RationalRadius(Fraction(1, 2))], 3, max_denom_log=4)

    @staticmethod
    def term(profile, a):
        D = profile.den
        return make_series(profile, {(Fraction(a, D), (Fraction(1),)): 1})

    def test_window_of_the_half_profile(self, half):
        assert MonomialOracle(half).window(2, (half.den,)) == (72, 88)

    def test_a_term_above_upper_is_refused(self, half):
        with pytest.raises(InputValidationError, match="step-2 window"):
            divide_step(MonomialOracle(half), self.term(half, 71), 2)

    def test_a_term_at_upper_clears_into_a_residual_at_the_cut(self, half):
        """a = lo: the norm is upper itself, inside the window; an image
        x (1 + t) leaves -t**(a/D + 1) x, of norm exactly the cut."""
        factor = make_series(half.base(), {(Fraction(0), ()): 1, (Fraction(1), ()): 1})
        f, residual = divide_step(MonomialOracle(half, factor), self.term(half, 72), 2)
        assert len(f.terms) == 1
        assert gauss_norm(residual) == MonomialOracle(half).step_values(2)[1]

    def test_a_term_at_the_cut_clears(self, half):
        f, residual = divide_step(MonomialOracle(half), self.term(half, 88), 2)
        assert len(f.terms) == 1
        assert residual.terms == {}

    def test_a_term_just_below_the_cut_stays(self, half):
        oracle = MonomialOracle(half)
        beta = self.term(half, 89)
        f, residual = divide_step(oracle, beta, 2)
        assert f is oracle._empty
        assert residual is beta

    def test_a_floor_above_the_cut_bounds_the_residual(self, half):
        """With the floor |t|**(11/2) above the cut |t|**6, the image
        x (1 + t**(1/2)) leaves a residual term of norm the floor itself:
        the cut clamps at the floor, so the step accepts it."""
        floor = t_power(half, Fraction(11, 2))
        factor = make_series(half.base(), {(Fraction(0), ()): 1, (Fraction(1, 2), ()): 1})
        beta = make_series(half, {(Fraction(9, 2), (Fraction(1),)): 1}, floor)
        f, residual = divide_step(MonomialOracle(half, factor), beta, 2)
        assert len(f.terms) == 1
        assert gauss_norm(residual) == floor

    def test_a_floor_that_swallows_the_cut_clears_every_stored_term(self, spec21, prof):
        # m = 2: upper |t|**7, cut |t|**8, floor |t|**(15/2); both terms lie
        # between the floor and upper
        floor = t_power(prof, Fraction(15, 2))
        beta = make_series(prof, {
            (Fraction(6), (Fraction(1),)): 1,
            (Fraction(7), (Fraction(0),)): 1,
        }, floor)
        f, residual = divide_step(spec21, beta, 2)
        assert residual.terms == {}
        assert residual.floor == floor
        assert residual == sub(beta, evaluate(f, spec21.hom, zero_value(prof)))

    def test_windows_are_kept_for_at_most_the_cap(self, prof, monkeypatch):
        monkeypatch.setattr(gleason, "_WINDOW_MEMO_CAP", 3)
        spec = standard_surjection(prof, 4)
        pairs = [(m, (x * prof.den,)) for m in range(3) for x in range(-1, 2)]
        fresh = [MonomialOracle(prof).window(m, xs) for m, xs in pairs]
        assert [spec.window(m, xs) for m, xs in pairs] == fresh
        assert {m: list(table) for m, table in spec._windows.items()} == {
            0: [xs for _, xs in pairs[:3]]}
        assert spec.step_windows(0) == dict(zip([xs for _, xs in pairs[:3]], fresh))
        assert spec.step_windows(1) == {}
        assert spec.window(*pairs[0]) is spec.window(*pairs[0])

    @pytest.mark.parametrize("radii, cap, depth, steps", [
        ((2,), 32, 21, 8),      # the surject-n1 benchmark configuration
        ((2, 3), 110, 81, 4),   # surject-n2
    ])
    def test_an_exact_beta_makes_no_value_comparison(self, monkeypatch, radii, cap,
                                                     depth, steps):
        """Design guard: with gleason.res_ge and gleason.value_lt patched to
        raise, reconstruction of exact drawn betas over a fresh spec (empty
        memos) gives the results of an unpatched run."""
        profile = make_profile(2, [FreeRadius(d) for d in radii], max_denom_log=cap)
        warm, cold = standard_surjection(profile, depth), standard_surjection(profile, depth)
        rng = random.Random(1)
        pool = list(warm.schedule.omegas)
        betas = [rescale_into_window(random_series(profile, rng, x_pool=pool,
                                                   max_t_weight=12))[0]
                 for _ in range(30)]
        expected = [reconstruct_preimage(warm, beta, steps) for beta in betas]

        def refuse(*args):
            raise AssertionError("a Value comparison in a division window")

        monkeypatch.setattr(gleason, "res_ge", refuse, raising=False)
        monkeypatch.setattr(gleason, "value_lt", refuse)
        assert [reconstruct_preimage(cold, beta, steps) for beta in betas] == expected
        assert sum(len(r.preimage.terms) for r in expected) > 0


class TestReconstruct:
    def test_zero_input(self, spec21, prof):
        from ultrametrica.series import series_zero

        res = reconstruct_preimage(spec21, series_zero(prof), 4)
        assert res.preimage.terms == {}
        assert all(r is None for r in res.residuals)

    def test_roundtrip_of_stored_element(self, spec21, prof):
        # beta = phi(g) for a simple g: residuals vanish once its terms clear
        base = prof.base()
        from ultrametrica.tatealg import make_tate

        g = make_tate(3, base, {
            (Fraction(1), Fraction(0), Fraction(0)): monomial(base, 1, 6),
            (Fraction(0), Fraction(2), Fraction(0)): monomial(base, 1, 7),
        })
        beta = evaluate(g, spec21.hom, t_power(prof, 40))
        beta, _ = rescale_into_window(beta)
        res = reconstruct_preimage(spec21, beta, 6)
        assert res.residuals[-1] is None
        ev = evaluate(res.preimage, spec21.hom, t_power(prof, 40))
        assert ev.terms == beta.terms

    def test_random_betas_depth8(self, spec21, prof):
        rng = random.Random(99)
        pool = [spec21.schedule.omegas[i] for i in range(21)]
        s = s_value(prof)
        pi = pi_value(prof)
        for _ in range(20):
            terms = {}
            for _ in range(rng.randint(1, 6)):
                q = rng.choice(pool)
                t = Fraction(rng.randint(0, 24), 1 << rng.randint(0, 2))
                terms[(t, q)] = 1
            beta = make_series(prof, terms)
            if not beta.terms:
                continue
            beta, _ = rescale_into_window(beta)
            res = reconstruct_preimage(spec21, beta, 8)
            prev = None
            for m, rn in enumerate(res.residuals):
                bound = value_mul(value_pow(pi, m + 1), s)
                if rn is not None:
                    assert value_le(rn, bound)
                    if prev is not None:
                        assert value_le(rn, prev)
                    prev = rn
            ev = evaluate(res.preimage, spec21.hom, t_power(prof, 40))
            diff = sub(ev, beta)
            nd = gauss_norm(diff)
            final = value_mul(value_pow(pi, 8), s)
            assert nd is None or value_le(nd, final)

    def test_rescale_and_reconstruction_need_no_t_scale_t_sum_or_mul(self, monkeypatch):
        """Design guard: with gleason.t_scale, gleason.t_sum and gleason.mul
        patched to raise, the rescale and the reconstruction of exact betas
        drawn for the surject-n1 configuration (p = 2, sqrt 2, cap 2**32,
        depth 21, M = 8) give the laws' references: mul(t**k, beta) and
        conftest.ref_reconstruct, which also fills the spec's answer memo."""
        profile = make_profile(2, [FreeRadius(2)], max_denom_log=32)
        spec = standard_surjection(profile, 21)
        rng = random.Random(1)
        pool = list(spec.schedule.omegas)
        betas = [random_series(profile, rng, x_pool=pool, max_t_weight=12)
                 for _ in range(30)]
        expected = []
        for beta in betas:
            k = rescale_into_window(beta)[1]
            rescaled = mul(monomial(profile, 1, k), beta)
            expected.append((rescaled, k, ref_reconstruct(spec, rescaled, 8)))

        def refuse(*args):
            raise AssertionError("a Tate element or a product built apart")

        for name in ("t_scale", "t_sum", "mul"):
            monkeypatch.setattr(gleason, name, refuse, raising=False)
        for beta, (want, k, (preimage, norms)) in zip(betas, expected):
            rescaled, shift = rescale_into_window(beta)
            assert shift == k and rescaled == want and rescaled._norm == gauss_norm(want)
            result = reconstruct_preimage(spec, rescaled, 8)
            assert result.preimage == preimage and result.residuals == norms
        assert any(k for _, k, _ in expected)
        assert sum(bool(preimage.terms) for _, _, (preimage, _) in expected) > 20

    def test_norm_above_s_rejected(self, spec21, prof):
        beta = make_series(prof, {(Fraction(0), (Fraction(1),)): 1})
        with pytest.raises(InputValidationError, match=r"requires \|beta\| <= s"):
            reconstruct_preimage(spec21, beta, 4)

    def test_unknown_beta_is_floor_exhaustion(self, spec21, prof):
        from ultrametrica.errors import FloorTooCoarseError
        from ultrametrica.series import series_zero, with_floor

        # no stored terms and a floor coarser than s: nothing can clear
        beta = with_floor(series_zero(prof), t_power(prof, 2))
        with pytest.raises(FloorTooCoarseError):
            reconstruct_preimage(spec21, beta, 4)

    def test_floored_beta_clears_all_known_terms(self, spec21, prof):
        # a floor between the cuts: stored terms clear, bound clamps there
        floor = t_power(prof, 8)
        beta = make_series(prof, {
            (Fraction(6), (Fraction(0),)): 1,
            (Fraction(4), (Fraction(1),)): 1,
        }, floor)
        res = reconstruct_preimage(spec21, beta, 6)
        assert res.residuals[-1] is None


class TestMidScheduleTails:
    """Oracle answers from the middle of a schedule carry nonempty
    adapted tails; division must spawn them into the residual below
    the cut."""


    def test_tail_present_and_adapted(self, spec25):
        ans = spec25((Fraction(4),))
        assert len(ans.image.terms) > 1  # head plus scheduled tail terms
        assert ans.certificate.passed

    def test_preimage_matches_image(self, spec25):
        ans = spec25((Fraction(4),))
        ev = evaluate(ans.preimage, spec25.hom, t_power(spec25.profile, 200))
        assert ev.terms == ans.image.terms

    def test_spawned_tail_stays_below_cut(self, spec25):
        prof = spec25.profile
        beta = make_series(prof, {(Fraction(5), (Fraction(4),)): 1})
        f, residual = divide_step(spec25, beta, 5)
        nr = gauss_norm(residual)
        assert nr is not None  # the tail really was spawned
        cut = value_mul(value_pow(pi_value(prof), 6), s_value(prof))
        assert value_le(nr, cut)


class TestP3Surjection:
    def test_end_to_end(self):
        prof3 = make_profile(3, [FreeRadius(2)], max_denom_log=48)
        spec3 = standard_surjection(prof3, 10)
        beta = make_series(prof3, {
            (Fraction(6), (Fraction(1),)): 2,
            (Fraction(7), (Fraction(-1, 3),)): 1,
            (Fraction(8), (Fraction(0),)): 2,
        })
        beta, _ = rescale_into_window(beta)
        res = reconstruct_preimage(spec3, beta, 5)
        ev = evaluate(res.preimage, spec3.hom, t_power(prof3, 30))
        assert sub(ev, beta).terms == {}


class TestWellOrderP3:
    def test_nonneg_axis_enumeration(self):
        w = WellOrder(1, 3, IndependentRep([(1,)], 3))
        got = [w.omega(m)[0] for m in range(1, 9)]
        assert got == [0, 1, Fraction(1, 3), 2, Fraction(2, 3),
                       Fraction(1, 9), Fraction(2, 9), 3]

    def test_index_inverse(self):
        check_omega_prefix(WellOrder(1, 3, IndependentRep([(1,)], 3)), 40)


def well_order_callers(path):
    """The functions in the module at path that call WellOrder(...)."""
    with open(path) as src:
        tree = ast.parse(src.read())
    return {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn) if isinstance(node, ast.Call)
            and "WellOrder" in (getattr(node.func, "id", None),
                                getattr(node.func, "attr", None))}


def test_only_build_schedule_builds_a_well_order():
    """Callers pass a representation rule and build_schedule owns the
    well-order: no other function of the package calls WellOrder(...)."""
    package = os.path.dirname(ultrametrica.__file__)
    callers = {f"{name[:-3]}.{fn}" for name in sorted(os.listdir(package))
               if name.endswith(".py")
               for fn in well_order_callers(os.path.join(package, name))}
    assert callers == {"gleason.build_schedule"}


@settings(max_examples=25, deadline=None)
@given(terms_spec=st.lists(
    st.tuples(st.integers(0, 20), st.integers(1, 10), st.sampled_from([1, 2, 4])),
    min_size=1, max_size=4,
))
def test_reconstruction_property(spec21, terms_spec):
    """phi(reconstruct(beta)) recovers beta below |pi|**M s for any target
    drawn from the schedule's exponent segment."""
    spec = spec21
    profile = spec.profile
    terms = {}
    for t_num, pos, den in terms_spec:
        q = spec.schedule.omegas[pos - 1]
        terms[(Fraction(t_num, den), q)] = 1
    beta = make_series(profile, terms)
    if not beta.terms:
        return
    beta, _ = rescale_into_window(beta)
    result = reconstruct_preimage(spec, beta, 6)
    ev = evaluate(result.preimage, spec.hom, t_power(profile, 40))
    diff = sub(ev, beta)
    nd = gauss_norm(diff)
    bound = value_mul(value_pow(pi_value(profile), 6), s_value(profile))
    assert nd is None or value_le(nd, bound)
