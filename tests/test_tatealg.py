import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ref_evaluate,
    ref_evaluate_by_factors,
    ref_gauss_norm,
    ref_make_tate,
    ref_max,
    ref_product_floor,
)
from ultrametrica import tatealg
from ultrametrica.errors import InputValidationError
from ultrametrica.io import hom_from_json, hom_to_json
from ultrametrica.series import (
    add,
    frobenius,
    gauss_norm,
    make_series,
    monomial,
    mul,
    one,
    series_frac_pow,
    series_zero,
    sub,
)
from ultrametrica.tatealg import (
    HomSpec,
    evaluate,
    make_tate,
    t_frobenius,
    t_gauss_norm,
    t_add,
    t_mul,
    t_pth_root,
    t_scale,
    t_sum,
    tate_variable,
)
from ultrametrica.valuegroup import (
    FreeRadius,
    Ordering,
    RationalRadius,
    compare,
    make_profile,
    t_power,
    value,
    value_le,
    value_lift,
    value_max,
    zero_value,
)


def x_var(profile, i=0, e=1):
    xs = [0] * profile.n
    xs[i] = e
    return make_series(profile, {(Fraction(0), tuple(Fraction(v) for v in xs)): 1})


def rand_tate(base, m, rng, nterms=4):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        e = tuple(Fraction(rng.randint(0, 4), 1 << rng.randint(0, 1)) for _ in range(m))
        coeff = monomial(base, 1, Fraction(rng.randint(0, 6), 1 << rng.randint(0, 1)))
        terms[e] = coeff
    return make_tate(m, base, terms)


class TestArithmetic:
    def test_variable_has_unit_norm(self, prof1):
        T1 = tate_variable(1, prof1.base(), 0)
        assert t_gauss_norm(T1) == value(prof1.base(), 0, ())

    def test_pth_root_of_variable(self, prof1):
        T1 = tate_variable(1, prof1.base(), 0)
        assert list(t_pth_root(T1).terms) == [(Fraction(1, 2),)]

    def test_sup_norm(self, prof1):
        base = prof1.base()
        f = make_tate(2, base, {
            (Fraction(1), Fraction(0)): monomial(base, 1, 1),   # t * T1
            (Fraction(0), Fraction(1)): one(base),               # T2
        })
        assert t_gauss_norm(f) == value(base, 0, ())

    def test_frobenius_root_roundtrip(self, prof1):
        rng = random.Random(5)
        base = prof1.base()
        for _ in range(50):
            f = rand_tate(base, 2, rng)
            assert t_pth_root(t_frobenius(f)) == f

    def test_negative_exponent_rejected(self, prof1):
        with pytest.raises(InputValidationError):
            make_tate(1, prof1.base(), {(Fraction(-1),): one(prof1.base())})


class TestHomSpec:
    def test_unbounded_image_rejected(self, prof1):
        bad = monomial(prof1, 1, -1)  # |t**-1| > 1
        with pytest.raises(InputValidationError):
            HomSpec((bad,))

    def test_bounded_images_accepted(self, prof1):
        HomSpec((x_var(prof1), monomial(prof1, 1, 2, (-1,))))

    def test_image_norms_are_derived_and_invisible(self, prof1):
        images = (x_var(prof1), series_zero(prof1, t_power(prof1, 3)),
                  monomial(prof1, 1, 2, (-1,)))
        hom = HomSpec(images)
        assert hom.image_norms == (gauss_norm(images[0]), None, gauss_norm(images[2]))
        assert "image_norms" not in repr(hom)
        back = hom_from_json(hom_to_json(hom), prof1)
        assert back == hom
        assert back.image_norms == hom.image_norms


class TestEvaluate:
    def test_identity_substitution(self, prof1):
        T1 = tate_variable(1, prof1.base(), 0)
        hom = HomSpec((x_var(prof1),))
        got = evaluate(T1, hom, t_power(prof1, 30))
        assert got == x_var(prof1)

    def test_telescoping_constant(self, prof1):
        base = prof1.base()
        f = make_tate(2, base, {(Fraction(1), Fraction(1)): one(base)})
        hom = HomSpec((x_var(prof1), monomial(prof1, 1, 2, (-1,))))
        got = evaluate(f, hom, t_power(prof1, 30))
        assert got == monomial(prof1, 1, 2)

    def test_direct_substitution_oracle(self, prof1):
        # sum t^k T^k -> sum t^k x^k, checked against scratch arithmetic
        base = prof1.base()
        f = make_tate(1, base, {(Fraction(k),): monomial(base, 1, k) for k in range(4)})
        hom = HomSpec((x_var(prof1),))
        got = evaluate(f, hom, t_power(prof1, 30))
        expected = {(Fraction(k), (Fraction(k),)): 1 for k in range(4)}
        assert got.terms == expected

    def test_image_below_its_floor(self, prof1):
        # T_2 maps to 0 known only up to |t|**3 (norm None), so its terms
        # are computed, not bounded; T_3**(1/4) with coefficient t**20 is
        # skipped.  The expected value was computed by hand.
        base = prof1.base()
        g1 = make_series(prof1, {(Fraction(0), (Fraction(1),)): 1,
                                 (Fraction(1), (Fraction(0),)): 1})
        g2 = series_zero(prof1, t_power(prof1, 3))
        g3 = make_series(prof1, {(Fraction(1, 2), (Fraction(1, 2),)): 1},
                         t_power(prof1, 9))
        hom = HomSpec((g1, g2, g3))
        f = make_tate(3, base, {
            (0, 0, 0): one(base),
            (Fraction(3, 2), 0, 0): monomial(base, 1, 1),
            (0, 1, 0): monomial(base, 1, 2),
            (1, Fraction(1, 2), 2): monomial(base, 1, Fraction(1, 2)),
            (0, 0, Fraction(1, 4)): monomial(base, 1, 20),
        })
        # t * (x + t)**(3/2) = t x^(3/2) + t^(3/2) x + t^2 x^(1/2) + t^(5/2);
        # t**2 * g2 leaves the floor |t|**5.
        expected = make_series(prof1, {
            (Fraction(0), (Fraction(0),)): 1,
            (Fraction(1), (Fraction(3, 2),)): 1,
            (Fraction(3, 2), (Fraction(1),)): 1,
            (Fraction(2), (Fraction(1, 2),)): 1,
            (Fraction(5, 2), (Fraction(0),)): 1,
        }, t_power(prof1, 5))
        for target in (6, 10):
            assert evaluate(f, hom, t_power(prof1, target)) == expected

    def test_floor_representation_follows_the_grouping_under_a_rational_radius(self):
        # Under r = |t| (p = 2), x and t tie; (x + t)(t + x) = x**2 + t**2
        # has the first key x**2, while one factor at a time the floor
        # |t|**0 * |x + t| * |t + x| is written x * t.  The norms agree.
        prof = make_profile(2, [RationalRadius(1)], max_denom_log=8)
        base = prof.base()
        x, t = (Fraction(0), (Fraction(1),)), (Fraction(1), (Fraction(0),))
        images = [make_series(prof, {x: 1, t: 1}), make_series(prof, {t: 1, x: 1})]
        c = make_series(base, {(Fraction(0), ()): 1}, t_power(base, 0))
        f = make_tate(2, base, {(1, 1): c})
        got = evaluate(f, HomSpec(tuple(images)), zero_value(prof))
        want = ref_evaluate_by_factors(f, images, zero_value(prof))
        assert got.terms == want.terms
        assert got.floor == value(prof, 0, (2,))
        assert want.floor == value(prof, 1, (1,))
        assert compare(got.floor, want.floor) is Ordering.EQUAL

    def test_ring_homomorphism_up_to_floors(self, prof1):
        rng = random.Random(13)
        base = prof1.base()
        hom = HomSpec((x_var(prof1), monomial(prof1, 1, 2, (-1,))))
        floor = t_power(prof1, 30)
        for _ in range(200):
            f, g = rand_tate(base, 2, rng), rand_tate(base, 2, rng)
            lhs = evaluate(t_mul(f, g), hom, floor)
            rhs = mul(evaluate(f, hom, floor), evaluate(g, hom, floor))
            diff = sub(lhs, rhs)
            nd = gauss_norm(diff)
            assert nd is None or value_le(nd, diff.floor)

    def test_evaluate_commutes_with_frobenius(self, prof1):
        rng = random.Random(29)
        base = prof1.base()
        hom = HomSpec((x_var(prof1),))
        floor = t_power(prof1, 40)
        for _ in range(100):
            f = rand_tate(base, 1, rng)
            lhs = evaluate(t_frobenius(f), hom, floor)
            rhs = frobenius(evaluate(f, hom, floor))
            assert lhs.terms == rhs.terms

    def test_norm_bounds_evaluation(self, prof1):
        rng = random.Random(37)
        base = prof1.base()
        hom = HomSpec((x_var(prof1), monomial(prof1, 1, 2, (-1,))))
        floor = t_power(prof1, 30)
        for _ in range(100):
            f = rand_tate(base, 2, rng)
            nf = t_gauss_norm(f)
            nev = gauss_norm(evaluate(f, hom, floor))
            if nev is not None:
                assert value_le(nev, value_lift(nf, prof1))


def base_exp(p):
    return st.builds(lambda u, i: Fraction(u, p**i), st.integers(0, 12), st.integers(0, 2))


def draw_coeff(draw, base):
    """A base-field series with a zero or nonzero floor."""
    exp = base_exp(base.p)
    terms = draw(st.dictionaries(st.tuples(exp, st.just(())),
                                 st.integers(1, base.p - 1), max_size=3))
    floor = t_power(base, draw(exp) + 4) if draw(st.booleans()) else None
    return make_series(base, terms, floor)


def draw_tate(draw, base, m):
    """A Tate element with a zero or nonzero floor; its coefficients
    carry zero and nonzero floors too."""
    exps = st.tuples(*[base_exp(base.p)] * m)
    keys = draw(st.lists(exps, max_size=4, unique=True))
    floor = t_power(base, draw(base_exp(base.p)) + 8) if draw(st.booleans()) else None
    return make_tate(m, base, {e: draw_coeff(draw, base) for e in keys}, floor)


@st.composite
def tate_operands(draw):
    """(f, g, d): two Tate elements in m in {1, 2} variables and a scalar,
    over the base field (n = 0) of p in {2, 3}."""
    base = make_profile(draw(st.sampled_from([2, 3])), [], max_denom_log=12)
    m = draw(st.integers(1, 2))
    return draw_tate(draw, base, m), draw_tate(draw, base, m), draw_coeff(draw, base)


def ref_t_norm(f):
    """Reference Tate Gauss norm: the largest coefficient norm."""
    return ref_max(n for n in map(ref_gauss_norm, f.terms.values()) if n is not None)


def draw_image(draw, p, n):
    """Raw data (c, a, xs) of a monomial c t**a x**xs of norm <= 1 in a
    profile whose radii sqrt(2), sqrt(3) have weight below 2."""
    xs = tuple(Fraction(draw(st.integers(-4, 4)), p ** draw(st.integers(0, 1)))
               for _ in range(n))
    a = draw(base_exp(p)) + 2 * sum(abs(x) for x in xs)
    return draw(st.integers(1, p - 1)), a, xs


@st.composite
def exact_evaluations(draw):
    """(f, g, images, profile): two exact Tate elements in m in {1, 2, 3}
    variables over p in {2, 3}, and raw monomial images in a free profile
    with n in {0, 1, 2} radii."""
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(0, 2))
    profile = make_profile(p, [FreeRadius(d) for d in (2, 3)[:n]], max_denom_log=12)
    m = draw(st.integers(1, 3))
    base = profile.base()

    def tate():
        keys = draw(st.lists(st.tuples(*[base_exp(p)] * m), max_size=4, unique=True))
        coeff = st.dictionaries(st.tuples(base_exp(p), st.just(())),
                                st.integers(1, p - 1), min_size=1, max_size=2)
        return make_tate(m, base, {e: make_series(base, draw(coeff)) for e in keys})

    images = [draw_image(draw, p, n) for _ in range(m)]
    return tate(), tate(), images, profile


class TestEvaluateLaws:
    """evaluate against a reference that adds exponents by hand, and as an
    exact ring homomorphism."""

    @staticmethod
    def hom(images, profile):
        return HomSpec(tuple(make_series(profile, {(a, xs): c}) for c, a, xs in images))

    @settings(max_examples=150, deadline=None)
    @given(exact_evaluations())
    def test_matches_reference_substitution(self, ops):
        f, _, images, profile = ops
        got = evaluate(f, self.hom(images, profile), zero_value(profile))
        assert got.floor.zero
        assert got.terms == ref_evaluate(f, images, profile.p)

    @settings(max_examples=200, deadline=None)
    @given(exact_evaluations(), st.integers(0, 24))
    def test_skip_rule_matches_reference_bound(self, ops, target_exp):
        """Above a target floor |t|**a, a term T**e with coefficient c is
        skipped when |c| prod |g_i|**e_i, summed here by hand, lies below
        it; a skip puts the target into the result floor."""
        f, _, images, profile = ops
        target = t_power(profile, Fraction(target_exp, 2))
        kept = {}
        for e, coeff in f.terms.items():
            a = min(t for t, _ in coeff.terms)
            xs = [Fraction(0)] * profile.n
            for ei, (_, ai, xsi) in zip(e, images):
                a += ei * ai
                xs = [x + ei * xi for x, xi in zip(xs, xsi)]
            if compare(value(profile, a, xs), target) is not Ordering.LESS:
                kept[e] = coeff
        floor = target if len(kept) < len(f.terms) else zero_value(profile)
        terms = ref_evaluate(make_tate(f.m, f.base, kept), images, profile.p)
        got = evaluate(f, self.hom(images, profile), target)
        assert got.floor == floor
        assert got.terms == {k: c for k, c in terms.items()
                             if compare(value(profile, *k), floor) is not Ordering.LESS}

    @settings(max_examples=100, deadline=None)
    @given(exact_evaluations())
    def test_additive_and_multiplicative(self, ops):
        f, g, images, profile = ops
        hom = self.hom(images, profile)
        exact = zero_value(profile)
        ev_f, ev_g = evaluate(f, hom, exact), evaluate(g, hom, exact)
        assert evaluate(t_add(f, g), hom, exact) == add(ev_f, ev_g)
        assert evaluate(t_mul(f, g), hom, exact) == mul(ev_f, ev_g)


class TestProductFloors:
    @settings(max_examples=150, deadline=None)
    @given(tate_operands())
    def test_t_mul_and_t_scale_floors_match_three_candidate_formula(self, ops):
        f, g, d = ops
        nf, ng = ref_t_norm(f), ref_t_norm(g)
        assert t_mul(f, g).floor == ref_product_floor(f.floor, g.floor, nf, ng)
        assert t_scale(f, d).floor == ref_product_floor(
            f.floor, d.floor, nf, ref_gauss_norm(d))
        assert t_gauss_norm(f) == nf

    @settings(max_examples=100, deadline=None)
    @given(tate_operands())
    def test_products_and_sums_match_make_tate(self, ops):
        f, g, d = ops
        m, base = f.m, f.base
        nf, ng = ref_t_norm(f), ref_t_norm(g)
        sums = list(f.terms.items()) + list(g.terms.items())
        assert t_add(f, g) == make_tate(m, base, sums, value_max(f.floor, g.floor))
        products = [(tuple(a + b for a, b in zip(e1, e2)), mul(c1, c2))
                    for e1, c1 in f.terms.items() for e2, c2 in g.terms.items()]
        assert t_mul(f, g) == make_tate(
            m, base, products, ref_product_floor(f.floor, g.floor, nf, ng))
        scaled = [(e, mul(c, d)) for e, c in f.terms.items()]
        assert t_scale(f, d) == make_tate(
            m, base, scaled, ref_product_floor(f.floor, d.floor, nf, ref_gauss_norm(d)))
        acc = f
        for _ in range(base.p - 1):
            acc = t_add(acc, f)
        assert acc.terms == {}

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_make_tate_matches_reference_drop_rule(self, data):
        base = make_profile(data.draw(st.sampled_from([2, 3])), [], max_denom_log=12)
        m = data.draw(st.integers(1, 2))
        keys = data.draw(st.lists(st.tuples(*[base_exp(base.p)] * m),
                                  min_size=1, max_size=3, unique=True))
        pairs = [(e, draw_coeff(data.draw, base))
                 for e in data.draw(st.lists(st.sampled_from(keys), max_size=6))]
        floor = t_power(base, data.draw(base_exp(base.p)) + data.draw(st.integers(0, 8)))
        assert make_tate(m, base, pairs, floor) == ref_make_tate(m, base, pairs, floor)

    def test_hash_raises(self, prof1):
        with pytest.raises(TypeError):
            hash(tate_variable(1, prof1.base(), 0))


@st.composite
def tate_families(draw):
    """(m, base, list of Tate elements) over p in {2, 3}, m in {1, 2}.
    Exponents and coefficient keys come from small pools, so exponents
    repeat and coefficients cancel across the list; coefficient and Tate
    floors sit among the coefficient norms, so a coefficient can fall
    below the floor so far and climb back above it with a later addend."""
    p = draw(st.sampled_from([2, 3]))
    base = make_profile(p, [], max_denom_log=12)
    m = draw(st.integers(1, 2))
    exps = draw(st.lists(st.tuples(*[base_exp(p)] * m), min_size=1, max_size=3, unique=True))
    ts = draw(st.lists(base_exp(p), min_size=1, max_size=4, unique=True))
    floor = st.builds(lambda a: t_power(base, a), st.integers(2, 6))

    def coeff():
        terms = draw(st.dictionaries(st.sampled_from(ts), st.integers(1, p - 1), min_size=1))
        return make_series(base, {(t, ()): c for t, c in terms.items()},
                           draw(st.none() | floor))

    fs = [make_tate(m, base, {e: coeff() for e in draw(st.sets(st.sampled_from(exps)))},
                    draw(st.none() | floor))
          for _ in range(draw(st.integers(0, 5)))]
    return m, base, fs


@settings(max_examples=300, deadline=None)
@given(tate_families())
def test_t_sum_is_the_fold_of_t_add(family):
    m, base, fs = family
    got = t_sum(m, base, fs)
    if not fs:
        assert got.terms == {} and got.floor == zero_value(base)
        return
    want = functools.reduce(t_add, fs)
    assert list(got.terms) == list(want.terms)
    for e, c in want.terms.items():
        assert list(got.terms[e].terms.items()) == list(c.terms.items())
        assert got.terms[e].floor == c.floor
    assert got.floor == want.floor


class TestPowerMemo:
    """HomSpec.power memoizes image powers; results must not depend on it."""

    @staticmethod
    def images(prof):
        x_plus_t = make_series(prof, {(Fraction(0), (Fraction(1),)): 1,
                                      (Fraction(1), (Fraction(0),)): 1})
        return (x_var(prof), monomial(prof, 1, 2, (-1,)), x_plus_t)

    def test_used_hom_evaluates_as_a_fresh_one(self, prof1):
        rng = random.Random(41)
        images = self.images(prof1)
        used = HomSpec(images)
        floor = t_power(prof1, 30)
        fs = [rand_tate(prof1.base(), 3, rng) for _ in range(60)]
        first = [evaluate(f, used, floor) for f in fs]
        assert used._powers
        for f, ev in zip(reversed(fs), reversed(first)):
            assert evaluate(f, used, floor) == ev == evaluate(f, HomSpec(images), floor)

    def test_cap_is_reached_and_respected(self, prof1):
        hom = HomSpec(self.images(prof1))
        cap = tatealg._POWER_MEMO_CAP
        exps = [Fraction(k, 4) for k in range(cap + 20)]
        for _ in range(2):
            for e in exps:
                assert hom.power(0, e) == series_frac_pow(hom.images[0], e)
            assert len(hom._powers) == cap

    def test_small_cap_leaves_evaluate_unchanged(self, prof1, monkeypatch):
        rng = random.Random(43)
        images = self.images(prof1)
        floor = t_power(prof1, 30)
        fs = [rand_tate(prof1.base(), 3, rng) for _ in range(40)]
        expected = [evaluate(f, HomSpec(images), floor) for f in fs]
        monkeypatch.setattr(tatealg, "_POWER_MEMO_CAP", 3)
        capped = HomSpec(images)
        for _ in range(2):
            assert [evaluate(f, capped, floor) for f in fs] == expected
            assert len(capped._powers) == 3
