import ast
import math
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ultrametrica
from conftest import (
    count_calls,
    float_weight,
    ref_bounds,
    ref_decimal,
    ref_sign,
    ref_weight_decimal,
    ref_weight_sum,
    ref_zp_pick,
)
from ultrametrica import gleason, series, tatealg, valuegroup
from ultrametrica.abhyankar import _free_class
from ultrametrica.errors import (
    InputValidationError,
    ProfileMismatchError,
    WindowError,
)
from ultrametrica.valuegroup import (
    MAX_PRIME,
    MAX_SQUAREFREE,
    ZP_SEARCH_MAX_K,
    FreeRadius,
    Ordering,
    RadiusProfile,
    RationalRadius,
    Weight,
    ceil_weight,
    compare,
    floor_weight,
    in_sqrt_K,
    make_profile,
    value,
    value_lift,
    value_mul,
    value_pow,
    weight_decimal,
    weight_of,
    zero_value,
    zp_in_weight_window,
)
from ultrametrica.valuegroup import _is_prime


class TestCompare:
    def test_irrational_weight_orders_against_rational(self, prof1):
        # weight 1 + sqrt(2) = 2.414.. > 2, so the norm is smaller
        u = value(prof1, 1, (1,))
        v = value(prof1, 2, (0,))
        assert float_weight(u) > float_weight(v)
        assert compare(u, v) is Ordering.LESS

    def test_identical_vectors_equal(self, prof1):
        assert compare(value(prof1, 3, (0,)), value(prof1, 3, (0,))) is Ordering.EQUAL

    def test_sqrt2_exceeds_one(self, prof1):
        u = value(prof1, 0, (1,))
        v = value(prof1, 1, (0,))
        assert float_weight(u) > float_weight(v)
        assert compare(u, v) is Ordering.LESS

    def test_zero_is_smallest(self, prof1):
        z = zero_value(prof1)
        assert compare(z, value(prof1, 100, (50,))) is Ordering.LESS
        assert compare(z, z) is Ordering.EQUAL

    def test_profile_mismatch_raises(self, prof1, prof2):
        with pytest.raises(ProfileMismatchError):
            compare(value(prof1, 0, (1,)), value(prof2, 0, (1, 0)))

    def test_rational_radius_folds_into_t_exponent(self, prof_rational):
        # r = |t|: x and t have the same norm
        assert compare(
            value(prof_rational, 0, (1,)), value(prof_rational, 1, (0,))
        ) is Ordering.EQUAL

    def test_total_order_on_random_triples(self, prof2):
        rng = random.Random(7)
        vals = [
            value(prof2, Fraction(rng.randint(-8, 8), 1 << rng.randint(0, 3)),
                  (Fraction(rng.randint(-6, 6)), Fraction(rng.randint(-6, 6))))
            for _ in range(60)
        ]
        for _ in range(1000):
            u, v, w = rng.choice(vals), rng.choice(vals), rng.choice(vals)
            cuv, cvu = compare(u, v), compare(v, u)
            assert cuv.value == -cvu.value  # antisymmetry
            if compare(u, v) is not Ordering.GREATER and \
                    compare(v, w) is not Ordering.GREATER:
                assert compare(u, w) is not Ordering.GREATER  # transitivity

    def test_translation_invariance(self, prof2):
        rng = random.Random(11)
        for _ in range(200):
            mk = lambda: value(
                prof2, Fraction(rng.randint(-8, 8)),
                (Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))),
            )
            u, v, w = mk(), mk(), mk()
            assert compare(u, v) is compare(value_mul(u, w), value_mul(v, w))


class TestMulPow:
    def test_exponent_addition(self, prof1):
        got = value_mul(value(prof1, 1, (1,)), value(prof1, 2, (-1,)))
        assert (got.a, got.q) == (Fraction(3), (Fraction(0),))

    def test_pow_scales(self, prof1):
        got = value_pow(value(prof1, 1, (2,)), Fraction(1, 2))
        assert (got.a, got.q) == (Fraction(1, 2), (Fraction(1),))

    def test_zero_absorbs(self, prof1):
        assert value_mul(zero_value(prof1), value(prof1, 1, (0,))).zero

    def test_pow_zero_nonpositive_raises(self, prof1):
        with pytest.raises(InputValidationError):
            value_pow(zero_value(prof1), 0)

    def test_commutative_associative(self, prof2):
        rng = random.Random(3)
        for _ in range(100):
            mk = lambda: value(
                prof2, Fraction(rng.randint(-9, 9), 2),
                (Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))),
            )
            u, v, w = mk(), mk(), mk()
            assert value_mul(u, v) == value_mul(v, u)
            assert value_mul(value_mul(u, v), w) == value_mul(u, value_mul(v, w))

    def test_div_cancels(self, prof1):
        u = value(prof1, Fraction(7, 4), (Fraction(-3),))
        v = value(prof1, 1, (1,))
        assert value_mul(value_mul(u, value_pow(v, -1)), v) == u


class TestInSqrtK:
    def test_pure_t_power(self, prof1):
        assert in_sqrt_K(value(prof1, Fraction(3, 2), (0,)))

    def test_free_radius_escapes(self, prof1):
        assert not in_sqrt_K(value(prof1, 0, (1,)))

    def test_rational_radius_stays(self):
        prof = make_profile(2, [RationalRadius(Fraction(1, 2))])
        assert in_sqrt_K(value(prof, 0, (1,)))

    def test_zero_raises(self, prof1):
        with pytest.raises(InputValidationError):
            in_sqrt_K(zero_value(prof1))

    def test_independence_certificate(self, prof2):
        # a + q1*sqrt(2) + q2*sqrt(3) = 0 only for the zero vector
        rng = random.Random(5)
        for _ in range(200):
            q = (Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)))
            a = Fraction(rng.randint(-5, 5))
            v = value(prof2, a, q)
            if q != (0, 0):
                assert not in_sqrt_K(v)
                assert compare(v, value(prof2, a, (0, 0))) is not Ordering.EQUAL


class TestMixedProfiles:
    @pytest.fixture
    def mixed(self):
        return make_profile(2, [RationalRadius(Fraction(1, 2)), FreeRadius(2)])

    def test_rational_component_folds(self, mixed):
        # |t| * r_1 = |t|**(3/2): equal to the pure t-power
        u = value(mixed, 1, (1, 0))
        v = value(mixed, Fraction(3, 2), (0, 0))
        assert compare(u, v) is Ordering.EQUAL

    def test_in_sqrt_sees_only_free_part(self, mixed):
        assert in_sqrt_K(value(mixed, 0, (7, 0)))
        assert not in_sqrt_K(value(mixed, 0, (7, 1)))

    def test_mixed_comparison(self, mixed):
        # weight 1/2 + sqrt2 = 1.914 vs 2
        u = value(mixed, 0, (1, 1))
        v = value(mixed, 2, (0, 0))
        assert compare(u, v) is Ordering.GREATER


class TestProfiles:
    def test_squarefree_validation(self):
        with pytest.raises(InputValidationError):
            FreeRadius(4)
        with pytest.raises(InputValidationError):
            FreeRadius(12)

    def test_primality_matches_sieve(self):
        n = 20000
        sieve = [False, False] + [True] * (n - 2)
        for i in range(2, 142):
            if sieve[i]:
                sieve[i * i::i] = [False] * len(range(i * i, n, i))
        assert [_is_prime(k) for k in range(n)] == sieve

    def test_strong_pseudoprimes_are_composite(self):
        for k in (2047, 1373653, 25326001, 3215031751, 2152302898747,
                  3474749660383, 341550071728321, 3825123056546413051):
            assert not _is_prime(k)

    def test_input_caps(self):
        assert make_profile(2**61 - 1, [FreeRadius(2)]).p == 2**61 - 1
        with pytest.raises(InputValidationError):
            make_profile(MAX_PRIME, [FreeRadius(2)])
        with pytest.raises(InputValidationError):
            FreeRadius(MAX_SQUAREFREE + 1)

    def test_duplicate_free_radii_rejected(self):
        with pytest.raises(InputValidationError):
            make_profile(2, [FreeRadius(2), FreeRadius(2)])

    def test_malformed_radius_rejected(self):
        """A radius that is neither kind is an input error, also when
        make_profile derives the default sigma_s from the radii."""
        for sigma_s in (None, 4):
            with pytest.raises(InputValidationError, match="bad radius spec"):
                make_profile(2, [FreeRadius(2), "sqrt(3)"], sigma_s)

    def test_default_sigma_s(self, prof1, prof2):
        # ceil(2 * (1 + sqrt 2)) = 5, ceil(2 * (1 + sqrt2 + sqrt3)) = 9
        assert prof1.sigma_s == 5
        assert prof2.sigma_s == 9

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3]), st.integers(0, 4), st.integers(0, 2))
    def test_base_is_built_once(self, p, kind, cap):
        radii = [[], [FreeRadius(2)], [FreeRadius(2), FreeRadius(3)],
                 [RationalRadius(Fraction(1))], [FreeRadius(3), RationalRadius(Fraction(1, 2))]]
        prof = make_profile(p, radii[kind], max_denom_log=8 + cap)
        base = prof.base()
        assert base is prof.base() and base.base() is base
        assert (base is prof) == (prof.n == 0)
        fresh = RadiusProfile(p, (), prof.sigma_s, prof.max_denom_log)
        assert base == fresh and fresh == base and hash(base) == hash(fresh)
        assert repr(base) == repr(fresh)
        assert prof == make_profile(p, radii[kind], max_denom_log=8 + cap)
        assert (prof != fresh) == (prof.n > 0)

    def test_lift(self, prof1):
        base = prof1.base()
        v = value(base, Fraction(3, 2), ())
        lifted = value_lift(v, prof1)
        assert lifted.q == (Fraction(0),)
        assert lifted.a == Fraction(3, 2)

    @pytest.mark.parametrize("zero", [False, True])
    def test_lift_from_a_non_prefix_raises(self, prof2, zero):
        other = make_profile(2, [FreeRadius(3)])
        u = zero_value(other) if zero else value(other, 1, (1,))
        with pytest.raises(ProfileMismatchError):
            value_lift(u, prof2)


@st.composite
def zp_windows(draw):
    """(p, lo, hi, w_lo, w_hi): a profile over p in {2, 3, 5} with 0-3
    radii, each free (sqrt of 2, 3, 5 or 7) or rational (of exponent 1,
    1/2, 1/3 or 2/5); Values lo and hi whose exponents differ by a small
    step, so the window is often narrow (1 - 2 sqrt(2) / 3 is about
    0.057) or empty; and their weights as (rational, {d: c_d}) pairs, each
    rational radius folded into the rational part."""
    p = draw(st.sampled_from((2, 3, 5)))
    ds = iter(draw(st.permutations((2, 3, 5, 7))))
    rational = st.sampled_from((1, Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)))
    radii = [FreeRadius(next(ds)) if draw(st.booleans()) else RationalRadius(draw(rational))
             for _ in range(draw(st.integers(0, 3)))]
    prof = make_profile(p, radii)
    step = st.fractions(-1, 1, max_denominator=16)
    a, q = draw(small_fracs), [draw(small_fracs) for _ in radii]
    ends = [(a, q), (a + draw(st.fractions(-1, 2, max_denominator=16)),
                     [x + draw(step) for x in q])]

    def weight(a, q):
        folded = a + sum(x * r.exponent for x, r in zip(q, radii)
                         if isinstance(r, RationalRadius))
        return folded, {r.d: x for x, r in zip(q, radii) if isinstance(r, FreeRadius)}

    lo, hi = (value(prof, a, q) for a, q in ends)
    return p, lo, hi, weight(*ends[0]), weight(*ends[1])


def zp_pick(lo, hi, p):
    """zp_in_weight_window on the weights of the Values lo and hi, given as
    exponent numerators over one denominator."""
    al, ql, ah, qh, den = valuegroup._over_one_den(lo, hi)
    return zp_in_weight_window(lo.profile, (al, ql), (ah, qh), den, p)


class TestWeightTools:
    def test_zp_pick_lands_inside(self, prof1):
        lo = value(prof1, 0, (1,))                   # weight sqrt 2
        hi = value(prof1, Fraction(1, 3), (1,))      # weight sqrt 2 + 1/3
        x = zp_pick(lo, hi, 2)
        assert ref_sign(x, {2: Fraction(-1)}) > 0
        assert ref_sign(Fraction(1, 3) - x, {2: Fraction(1)}) > 0
        assert x.denominator & (x.denominator - 1) == 0  # power of 2

    def test_zp_pick_excludes_the_lower_end(self, prof1):
        """w_lo < x is strict: in the window of weights (0, 1/2) the
        largest numerators at p**0 and p**1 give 0, its lower end, and the
        pick is 1/4."""
        lo, hi = value(prof1, 0, (0,)), value(prof1, Fraction(1, 2), (0,))
        assert zp_pick(lo, hi, 2) == Fraction(1, 4)

    def test_zp_pick_empty_window(self, prof1):
        v = value(prof1, 1, (0,))
        with pytest.raises(WindowError):
            zp_pick(v, v, 2)
        with pytest.raises(WindowError):
            zp_pick(v, value(prof1, 0, (0,)), 2)  # |hi| > |lo|

    @settings(max_examples=150, deadline=None)
    @given(zp_windows())
    def test_zp_pick_is_the_largest_numerator_at_the_least_denominator(self, window):
        """Over profiles with 0-3 radii, free or rational, and endpoints
        given as the numerators of Values lo and hi over one denominator:
        zp_in_weight_window picks conftest's ref_zp_pick point (mpmath, no
        library code), so it lies strictly inside the window w_lo < x <
        w_hi, its denominator p**k is the least with a point inside, and
        its numerator is the largest at that k.  An empty
        window, or one with no point up to p**ZP_SEARCH_MAX_K, raises
        WindowError."""
        p, lo, hi, w_lo, w_hi = window
        gap = ref_weight_sum((1, w_hi), (-1, w_lo))
        want = None if ref_sign(*gap) <= 0 else ref_zp_pick(p, w_lo, w_hi, ZP_SEARCH_MAX_K)
        if want is None:
            with pytest.raises(WindowError):
                zp_pick(lo, hi, p)
            return
        x = zp_pick(lo, hi, p)
        assert x == want
        assert ref_sign(*ref_weight_sum((1, w_hi), (-1, (x, {})))) > 0
        assert ref_sign(*ref_weight_sum((1, (x, {})), (-1, w_lo))) > 0

    def test_weight_decimal(self, prof1):
        s = weight_decimal(weight_of(value(prof1, 0, (1,))), 12)
        assert s.startswith("1.414213562373")

    @given(st.fractions(min_value=-50, max_value=50),
           st.fractions(min_value=-20, max_value=20))
    @settings(max_examples=60, deadline=None)
    def test_sign_matches_float(self, a, q):
        prof = make_profile(2, [FreeRadius(2)])
        v = value(prof, a, (q,))
        approx = float(a) + float(q) * 2**0.5
        if abs(approx) > 1e-9:
            got = compare(v, value(prof, 0, (0,)))
            # weight > 0 means norm < 1
            expected = Ordering.LESS if approx > 0 else Ordering.GREATER
            assert got is expected


SQUAREFREE = (2, 3, 5, 6, 7, 10, 11)
small_fracs = st.fractions(min_value=-20, max_value=20, max_denominator=64)


@st.composite
def weight_parts(draw):
    """(c0, cancel, {d: c_d}) over 0-3 distinct free radii.  When cancel
    is (k, below), the test replaces c0 by the rational that brings the
    weight into [0, 2**-k), or into [-2**-k, 0) when below, so the
    refinement loop has to run past its first rounds."""
    ds = draw(st.lists(st.sampled_from(SQUAREFREE), max_size=3, unique=True))
    irr = {d: draw(small_fracs.filter(bool)) for d in ds}
    cancel = None
    if irr and draw(st.booleans()):
        cancel = (draw(st.integers(1, 80)), draw(st.booleans()))
    return draw(small_fracs), cancel, irr


class TestOneWeightPath:
    @settings(max_examples=150, deadline=None)
    @given(weight_parts(), st.integers(0, 14))
    def test_weight_tools_match_sympy(self, parts, digits):
        sympy = pytest.importorskip("sympy")
        c0, cancel, irr = parts
        irr_expr = sum((sympy.Rational(c.numerator, c.denominator) * sympy.sqrt(d)
                        for d, c in irr.items()), sympy.Integer(0))
        if cancel is not None:
            k, below = cancel
            c0 = Fraction(-int(sympy.floor(irr_expr * 2**k)) - below, 2**k)
        w = Weight(c0, irr)
        expr = sympy.Rational(c0.numerator, c0.denominator) + irr_expr
        approx = sympy.N(expr, 100)
        assert w.sign() == int(sympy.sign(approx))
        fl, ce = int(sympy.floor(expr)), int(sympy.ceiling(expr))
        assert floor_weight(w) == fl
        assert ceil_weight(w) == ce
        # weight_decimal rounds |w| half up and writes w's sign.
        text = weight_decimal(w, digits)
        got = abs(sympy.Rational(text)) * 10**digits
        assert got == int(sympy.floor(abs(approx) * 10**digits + sympy.Rational(1, 2)))
        assert text.startswith("-") == bool(approx < 0)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_weight_of_matches_the_direct_formula(self, data):
        """weight_of(value(prof, a, q)) against a + sum(q_i e_i) over the
        rational radii r_i = |t|**e_i and {d_i: q_i} over the free radii
        sqrt(d_i), over profiles mixing both."""
        free = iter(data.draw(st.permutations(SQUAREFREE)))
        radii = [
            FreeRadius(next(free)) if data.draw(st.booleans())
            else RationalRadius(data.draw(st.fractions(0, 5, max_denominator=8)))
            for _ in range(data.draw(st.integers(0, 3)))
        ]
        prof = make_profile(2, radii)
        exps = st.one_of(st.just(Fraction(0)), small_fracs)
        a, q = data.draw(small_fracs), tuple(data.draw(exps) for _ in radii)
        rational = a + sum(qi * spec.exponent for spec, qi in zip(radii, q)
                           if isinstance(spec, RationalRadius))
        irrational = {spec.d: qi for spec, qi in zip(radii, q)
                      if isinstance(spec, FreeRadius) and qi}
        w = weight_of(value(prof, a, q))
        assert (w.rational, w.irrational) == (rational, irrational)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.sampled_from((16, 32, 64, 128)))
    def test_integer_bounds_match_the_fraction_enclosure(self, data, k):
        """bounds(k) against conftest.ref_bounds over profiles mixing 0-3
        free radii with rational radii of denominators 3 and 5, so the
        coefficient denominators are not all powers of p."""
        free = [FreeRadius(d) for d in data.draw(
            st.lists(st.sampled_from(SQUAREFREE), max_size=3, unique=True))]
        rational = [RationalRadius(Fraction(data.draw(st.integers(1, 14)),
                                            data.draw(st.sampled_from((3, 5)))))
                    for _ in range(data.draw(st.integers(0, 2)))]
        radii = data.draw(st.permutations(free + rational))
        prof = make_profile(2, radii)
        exps = st.one_of(st.just(Fraction(0)), small_fracs)
        w = weight_of(value(prof, data.draw(small_fracs), tuple(data.draw(exps) for _ in radii)))
        lo, hi, den = w.bounds(k)
        D = math.lcm(w.rational.denominator, *(c.denominator for c in w.irrational.values()))
        assert den == D << k
        assert (Fraction(lo, den), Fraction(hi, den)) == ref_bounds(w, k)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(0, 30))
    def test_weight_decimal_is_the_exact_rounding(self, data, digits):
        """weight_decimal against conftest.ref_weight_decimal, |w| rounded
        half up from an mpmath sum with w's sign, over profiles mixing 0-3
        free radii with rational radii."""
        free = [FreeRadius(d) for d in data.draw(
            st.lists(st.sampled_from(SQUAREFREE), max_size=3, unique=True))]
        rational = [RationalRadius(Fraction(data.draw(st.integers(1, 14)),
                                            data.draw(st.sampled_from((1, 3, 5)))))
                    for _ in range(data.draw(st.integers(0, 2)))]
        radii = data.draw(st.permutations(free + rational))
        prof = make_profile(2, radii)
        exps = st.one_of(st.just(Fraction(0)), small_fracs)
        w = weight_of(value(prof, data.draw(small_fracs), tuple(data.draw(exps) for _ in radii)))
        assert weight_decimal(w, digits) == ref_weight_decimal(w.rational, w.irrational, digits)

    # Weights (c0 + sum c_d sqrt(d)) / den that an enclosure midpoint printed
    # one unit off at 12 digits; each id is the exact string.
    @pytest.mark.parametrize("c0, irr, den", [
        (-236594500173273, {2: 127771296807}, 2**52),
        (0, {2: 31268402337, 3: -138024431404}, 2**20),
        (-151261373303429, {2: 158936245453}, 2**52),
        (-12331971362431, {2: 129532615720}, 2**52),
        (-109013781795551, {2: 157710711248}, 2**52),
        (78241916077039, {2: 101379461511}, 2**52),
    ], ids=["-0.052494409768", "-185818.795412835433", "-0.033536862955",
            "-0.002697572072", "-0.024156398030", "0.017405030370"])
    def test_weights_near_a_rounding_boundary_print_exactly(self, c0, irr, den):
        w = Weight._raw(c0, irr, den)
        assert weight_decimal(w, 12) == ref_weight_decimal(w.rational, w.irrational, 12)

    def test_printing_takes_one_floor_and_no_enclosure(self, prof1, monkeypatch):
        """Design guard: with Weight.bounds patched to raise, weight_decimal
        prints irrational weights of either sign, from one
        _floor_root_sum call each."""
        def refuse(self, k):
            raise AssertionError("an enclosure search")

        monkeypatch.setattr(Weight, "bounds", refuse)
        calls = count_floors(monkeypatch)
        assert weight_decimal(weight_of(value(prof1, 0, (1,))), 12) == "1.414213562373"
        assert weight_decimal(Weight(1, {2: -1}), 1) == "-0.4"  # 1 - sqrt(2) = -0.414...
        assert len(calls) == 2

    @pytest.mark.parametrize("w, text", [
        (Weight(Fraction(3, 2)), "2"),
        (Weight(1, {2: 1}), "2"),  # 1 + sqrt(2) = 2.414...
        (Weight(Fraction(-1, 3)), "-0"),
    ], ids=["3/2", "1+sqrt2", "-1/3"])
    def test_zero_digits_print_an_integer_with_no_point(self, w, text):
        """|w| rounded half up to an integer, with w's sign and no point."""
        assert weight_decimal(w, 0) == text
        assert ref_weight_decimal(w.rational, w.irrational, 0) == text


def count_floors(monkeypatch):
    """Record each call of valuegroup._floor_root_sum."""
    return count_calls(monkeypatch, valuegroup, "_floor_root_sum")


class TestDecimalMemo:
    """weight_of keeps each norm's Weight in its profile's _weights, for up
    to _PROFILE_MEMO_CAP norms, and each Weight keeps its printed strings
    by digit count."""

    def test_an_equal_weight_takes_the_kept_string(self, prof1, monkeypatch):
        """Two equal norms built apart take one _weight build and one
        _floor_root_sum."""
        u, v = (value(prof1, Fraction(7, 3), (Fraction(5, 4),)) for _ in range(2))
        assert u == v and u is not v
        builds = count_calls(monkeypatch, valuegroup, "_weight")
        floors = count_floors(monkeypatch)
        text = weight_decimal(weight_of(u), 12)
        assert weight_decimal(weight_of(v), 12) is text
        assert weight_of(v) is weight_of(u)
        assert (len(builds), len(floors)) == (1, 1)

    def test_each_digit_count_has_its_own_string(self, prof1):
        w = weight_of(value(prof1, 0, (1,)))
        assert weight_decimal(w, 12) == "1.414213562373"
        assert weight_decimal(w, 3) == "1.414"
        assert weight_decimal(w, 12) == "1.414213562373"
        assert w._text == {12: "1.414213562373", 3: "1.414"}

    def test_a_full_memo_computes_and_keeps_nothing(self, prof1, monkeypatch):
        full = {("kept", i): None for i in range(4)}
        object.__setattr__(prof1, "_weights", full)
        monkeypatch.setattr(valuegroup, "_PROFILE_MEMO_CAP", 4)
        v = value(prof1, 0, (1,))
        builds = count_calls(monkeypatch, valuegroup, "_weight")
        floors = count_floors(monkeypatch)
        for _ in range(2):
            assert weight_decimal(weight_of(v), 12) == "1.414213562373"
        assert (len(builds), len(floors)) == (2, 2)  # built and printed again
        assert len(full) == 4 and weight_of(v) is not weight_of(v)

    def test_the_weight_memo_tells_denominators_apart(self, prof1):
        """value_pow(v, 1/2) has v's numerators over twice its denominator."""
        D = prof1.den
        v = value(prof1, Fraction(1, D), (Fraction(1, D),))
        half = value_pow(v, Fraction(1, 2))
        assert (half.an, half.qn, half.den) == (v.an, v.qn, 2 * v.den)
        assert weight_of(v).rational == Fraction(1, D)
        w = weight_of(half)
        assert (w.rational, w.irrational) == (Fraction(1, 2 * D), {2: Fraction(1, 2 * D)})

    def test_a_caller_that_mutates_its_free_class_leaves_the_weight(self, prof2):
        """abhyankar._free_class builds its own dict from the Value's
        numerators, so mutating it leaves the next weight_of unchanged."""
        v = value(prof2, 1, (Fraction(1, 2), Fraction(-3, 4)))
        cls = _free_class(v)
        want = dict(weight_of(v).irr)
        cls[2] = 99
        cls.clear()
        assert weight_of(v).irr == want
        assert _free_class(v) == want


class TestFloorMemo:
    """Each profile keeps the floor of the free part of each q its sign
    kernel meets, for up to _PROFILE_MEMO_CAP vectors."""

    def test_floors_are_kept_for_at_most_the_cap(self, monkeypatch):
        monkeypatch.setattr(valuegroup, "_PROFILE_MEMO_CAP", 3)
        prof = make_profile(2, [FreeRadius(2), FreeRadius(3)])
        qs = [(x, y) for x in range(-2, 2) for y in (-1, 1)]
        for q in qs:
            r = ref_decimal(Fraction(0), {2: Fraction(q[0]), 3: Fraction(q[1])})
            for a in range(-int(r) - 2, -int(r) + 3):
                want = ref_sign(Fraction(a), {2: Fraction(q[0]), 3: Fraction(q[1])})
                assert prof._sign(a, q) == want, (a, q)
        assert list(prof._floors) == qs[:3]
        assert all(prof._floors[q] == math.floor(ref_decimal(
            Fraction(0), {2: Fraction(q[0]), 3: Fraction(q[1])})) for q in qs[:3])


def imported_or_read_names(path):
    """The names a module imports from another and the attribute names it
    reads, from its source at path."""
    with open(path) as src:
        tree = ast.parse(src.read())
    used = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}
    return used | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_only_valuegroup_imports_weight():
    """Norms are combined and ordered as Values: no module of the package
    but valuegroup imports Weight or reads it off a module; the others
    reach a weight only through weight_of and the rounding helpers."""
    package = os.path.dirname(ultrametrica.__file__)
    offenders = [name for name in sorted(os.listdir(package))
                 if name.endswith(".py") and name != "valuegroup.py"
                 and "Weight" in imported_or_read_names(os.path.join(package, name))]
    assert offenders == []


def test_only_valuegroup_admits_exponents():
    """The exponent cap has one owner: no module of the package but
    valuegroup imports exponent_numerator or reads it off a module, and
    only valuegroup.py writes the cap message."""
    package = os.path.dirname(ultrametrica.__file__)
    paths = {name: os.path.join(package, name)
             for name in sorted(os.listdir(package)) if name.endswith(".py")}
    callers = [name for name, path in paths.items() if name != "valuegroup.py"
               and "exponent_numerator" in imported_or_read_names(path)]
    assert callers == []
    writers = []
    for name, path in paths.items():
        with open(path) as src:
            if "exceeds the cap" in src.read():
                writers.append(name)
    assert writers == ["valuegroup.py"]


# The names through which a module would do arithmetic on a Value's
# numerators and canonical denominator itself.
VALUE_LAYOUT_NAMES = {"_value", "_value_pow", "_fold", "_lcm"}


@pytest.mark.parametrize("module", [series, tatealg, gleason], ids=lambda m: m.__name__)
def test_only_valuegroup_knows_the_value_layout(module):
    """No other arithmetic module imports valuegroup's numerator-level
    constructors (_value, _value_pow, _fold) or reads a profile's _lcm."""
    assert not imported_or_read_names(module.__file__) & VALUE_LAYOUT_NAMES


# Public names that nothing outside the tests reaches yet, each kept for the
# open ROADMAP item that is to give it a caller.
KEPT_FOR_ROADMAP = {
    "verify_schedule": 1,     # `gleason verify`
    "schedule_from_json": 1,  # `gleason verify` reads the schedule
    "FieldDescriptor": 3,     # the theorem record
    "is_semi_immediate": 3,   # the theorem record
    "build_gminus": 7,        # height 0
}
# Public names that only the acceptance suite reaches, each with the number
# of the criterion that checks it.
KEPT_FOR_ACCEPTANCE = {
    "frobenius": 4,  # pth_root undoes it, exactly
    "res_ge": 2,     # the leading term is unique
}


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def bound_names(fn):
    """The names the function fn binds itself: its parameters and the
    targets of its assignments, loops and comprehensions, outside the
    functions nested in it."""
    bound = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))
    return bound


def read_names(node, bound=frozenset()):
    """The names node reads as a Name or an Attribute, less the names that
    the reading function binds itself (a local named like a library
    function reads nothing of it); a docstring or an import reads none."""
    if isinstance(node, FUNCTIONS):
        bound = bound | bound_names(node)
    if isinstance(node, ast.Attribute):
        names = {node.attr}
    elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        names = set() if node.id in bound else {node.id}
    else:
        names = set()
    for child in ast.iter_child_nodes(node):
        names |= read_names(child, bound)
    return names


def traced_names(path):
    """The top-level library names in the span TARGETS of perfbench/spans.py,
    which its tracer looks up by attribute path."""
    with open(path) as src:
        tree = ast.parse(src.read())
    targets, = (node.value for node in tree.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TARGETS"])
    return {row.elts[1].value.split(".")[0] for row in targets.elts}


DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def reach(statements, roots):
    """The names read from roots on by statements, a list of (top-level
    statement, the names it reads): a statement that defines a name reads
    only once that name is reached, and any other runs at import."""
    reached, grew = set(roots), True
    while grew:
        grew = False
        for node, names in statements:
            if (not isinstance(node, DEFINITIONS) or node.name in reached) \
                    and not names <= reached:
                reached |= names
                grew = True
    return reached


def test_every_public_name_is_reached():
    """Every public top-level function and class of the package is read, as
    a name or an attribute, by cli, a perfbench module that is no test or a
    script, or by library code that they reach in turn; a read from its own
    body or an __init__ export does not count.  The exceptions are
    KEPT_FOR_ROADMAP and KEPT_FOR_ACCEPTANCE, each still defined and still
    unreached, and what they read is reached through them."""
    package = os.path.dirname(ultrametrica.__file__)
    root = os.path.dirname(os.path.dirname(package))
    outside = set()
    for folder in ("perfbench", "scripts"):
        for name in sorted(os.listdir(os.path.join(root, folder))):
            if name.endswith(".py") and not name.startswith("test_"):
                with open(os.path.join(root, folder, name)) as src:
                    outside |= read_names(ast.parse(src.read()))
    outside |= traced_names(os.path.join(root, "perfbench", "spans.py"))
    statements, public = [], {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(package, name)) as src:
                for node in ast.parse(src.read()).body:
                    statements.append((node, read_names(node)))
                    if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
                        public[node.name] = f"{name[:-3]}.{node.name}"
    kept = {**KEPT_FOR_ROADMAP, **KEPT_FOR_ACCEPTANCE}
    reached = reach(statements, outside | set(kept))
    stray = sorted(path for name, path in public.items() if name not in reached)
    assert not stray, f"no caller reaches {', '.join(stray)}"
    reached = reach(statements, outside)
    assert sorted(name for name in public if name not in reached) == sorted(kept)


def test_every_import_is_read():
    """Every name that a module of the package other than __init__ binds
    with a top-level import (annotations aside) is read as a name somewhere
    in that module."""
    package = os.path.dirname(ultrametrica.__file__)
    unread = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(package, name)) as src:
                tree = ast.parse(src.read())
            read = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread += [f"{name}: {alias.asname or alias.name}" for node in tree.body
                       if isinstance(node, (ast.Import, ast.ImportFrom))
                       for alias in node.names
                       if (alias.asname or alias.name.split(".")[0]) not in read | {"annotations"}]
    assert not unread, f"imported and never read: {', '.join(unread)}"
