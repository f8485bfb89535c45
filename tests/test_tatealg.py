import functools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ref_evaluate, ref_make_tate, ref_tate_norm
from ultrametrica import tatealg
from ultrametrica.errors import InputValidationError, ProfileMismatchError
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
    t_add,
    t_scale,
    t_sum,
    tate_monomial,
)
from ultrametrica.valuegroup import (
    FreeRadius,
    make_profile,
    t_power,
    value,
    value_le,
    value_lift,
    zero_value,
)


def t_var(base):
    """The Tate variable T1 of a one-variable algebra over base."""
    return tate_monomial(1, one(base), (1,))


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


def tate_product(f, g):
    """f g, for exact f and g, built by make_tate from the products of
    their terms."""
    return make_tate(f.m, f.base, [(tuple(a + b for a, b in zip(e1, e2)), mul(c1, c2))
                                   for e1, c1 in f.terms.items()
                                   for e2, c2 in g.terms.items()])


class TestArithmetic:
    def test_variable_has_unit_norm(self, prof1):
        T1 = t_var(prof1.base())
        assert ref_tate_norm(T1) == value(prof1.base(), 0, ())

    def test_sup_norm(self, prof1):
        base = prof1.base()
        f = make_tate(2, base, {
            (Fraction(1), Fraction(0)): monomial(base, 1, 1),   # t * T1
            (Fraction(0), Fraction(1)): one(base),               # T2
        })
        assert ref_tate_norm(f) == value(base, 0, ())

    def test_negative_exponent_rejected(self, prof1):
        with pytest.raises(InputValidationError):
            make_tate(1, prof1.base(), {(Fraction(-1),): one(prof1.base())})

    def test_floored_coefficient_rejected(self, prof1):
        base = prof1.base()
        floored = make_series(base, {(0, ()): 1}, t_power(base, 4))
        with pytest.raises(InputValidationError) as exc:
            make_tate(1, base, {(1,): floored})
        assert str(exc.value) == "Tate coefficients must be exact (zero floor)"

    def test_floored_scalar_rejected(self, prof1):
        base = prof1.base()
        with pytest.raises(InputValidationError) as exc:
            t_scale(t_var(base), series_zero(base, t_power(base, 4)))
        assert str(exc.value) == "Tate scalars must be exact (zero floor)"


class TestHomSpec:
    def test_unbounded_image_rejected(self, prof1):
        bad = monomial(prof1, 1, -1)  # |t**-1| > 1
        with pytest.raises(InputValidationError):
            HomSpec((bad,))

    def test_bounded_images_accepted(self, prof1):
        HomSpec((x_var(prof1), monomial(prof1, 1, 2, (-1,)), series_zero(prof1)))

    def test_floored_image_rejected(self, prof1):
        for floor in (t_power(prof1, 3), t_power(prof1, -1)):
            with pytest.raises(InputValidationError) as exc:
                HomSpec((x_var(prof1), series_zero(prof1, floor)))
            assert str(exc.value) == "hom images must be exact (zero floor)"


class TestEvaluate:
    def test_identity_substitution(self, prof1):
        T1 = t_var(prof1.base())
        hom = HomSpec((x_var(prof1),))
        got = evaluate(T1, hom, t_power(prof1, 30))
        assert got == x_var(prof1)

    def test_target_over_another_profile_raises(self, prof1, prof2):
        hom = HomSpec((x_var(prof1),))
        with pytest.raises(ProfileMismatchError):
            evaluate(t_var(prof1.base()), hom, value(prof2, 3, (0, 0)))

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
        # T_2 maps to the zero image (norm None), so its terms add
        # nothing; T_3**(1/4) with coefficient t**20 lies far below both
        # targets and is still evaluated, and the result is exact.  The
        # expected value was computed by hand.
        base = prof1.base()
        g1 = make_series(prof1, {(Fraction(0), (Fraction(1),)): 1,
                                 (Fraction(1), (Fraction(0),)): 1})
        g3 = make_series(prof1, {(Fraction(1, 2), (Fraction(1, 2),)): 1})
        hom = HomSpec((g1, series_zero(prof1), g3))
        f = make_tate(3, base, {
            (0, 0, 0): one(base),
            (Fraction(3, 2), 0, 0): monomial(base, 1, 1),
            (0, 1, 0): monomial(base, 1, 2),
            (1, Fraction(1, 2), 2): monomial(base, 1, Fraction(1, 2)),
            (0, 0, Fraction(1, 4)): monomial(base, 1, 20),
        })
        # t * (x + t)**(3/2) = t x^(3/2) + t^(3/2) x + t^2 x^(1/2) + t^(5/2),
        # and t**20 * (t^(1/2) x^(1/2))**(1/4) = t^(161/8) x^(1/8)
        terms = {
            (Fraction(0), (Fraction(0),)): 1,
            (Fraction(1), (Fraction(3, 2),)): 1,
            (Fraction(3, 2), (Fraction(1),)): 1,
            (Fraction(2), (Fraction(1, 2),)): 1,
            (Fraction(5, 2), (Fraction(0),)): 1,
            (Fraction(161, 8), (Fraction(1, 8),)): 1,
        }
        for target in (6, 10):
            assert evaluate(f, hom, t_power(prof1, target)) == make_series(prof1, terms)

    def test_ring_homomorphism_up_to_floors(self, prof1):
        rng = random.Random(13)
        base = prof1.base()
        hom = HomSpec((x_var(prof1), monomial(prof1, 1, 2, (-1,))))
        floor = t_power(prof1, 30)
        for _ in range(200):
            f, g = rand_tate(base, 2, rng), rand_tate(base, 2, rng)
            lhs = evaluate(tate_product(f, g), hom, floor)
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
            frob = make_tate(1, base, {tuple(x * base.p for x in e): frobenius(c)
                                       for e, c in f.terms.items()})
            lhs = evaluate(frob, hom, floor)
            rhs = frobenius(evaluate(f, hom, floor))
            assert lhs.terms == rhs.terms

    def test_norm_bounds_evaluation(self, prof1):
        rng = random.Random(37)
        base = prof1.base()
        hom = HomSpec((x_var(prof1), monomial(prof1, 1, 2, (-1,))))
        floor = t_power(prof1, 30)
        for _ in range(100):
            f = rand_tate(base, 2, rng)
            nf = ref_tate_norm(f)
            nev = gauss_norm(evaluate(f, hom, floor))
            if nev is not None:
                assert value_le(nev, value_lift(nf, prof1))


def base_exp(p):
    return st.builds(lambda u, i: Fraction(u, p**i), st.integers(0, 12), st.integers(0, 2))


def draw_coeff(draw, base):
    """An exact base-field series of up to three terms."""
    terms = draw(st.dictionaries(st.tuples(base_exp(base.p), st.just(())),
                                 st.integers(1, base.p - 1), max_size=3))
    return make_series(base, terms)


def draw_tate(draw, base, m):
    """A Tate element with up to four exact coefficients."""
    exps = st.tuples(*[base_exp(base.p)] * m)
    keys = draw(st.lists(exps, max_size=4, unique=True))
    return make_tate(m, base, {e: draw_coeff(draw, base) for e in keys})


@st.composite
def tate_operands(draw):
    """(f, g, d): two exact Tate elements in m in {1, 2} variables and an
    exact scalar, over the base field (n = 0) of p in {2, 3}."""
    base = make_profile(draw(st.sampled_from([2, 3])), [], max_denom_log=12)
    m = draw(st.integers(1, 2))
    return draw_tate(draw, base, m), draw_tate(draw, base, m), draw_coeff(draw, base)


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
    @given(exact_evaluations(), st.integers(-1, 24))
    def test_skip_rule_matches_reference_bound(self, ops, target_exp):
        """Whatever the target floor, the zero one (-1) or |t|**a, evaluate
        skips no term, even one whose bound |c| prod |g_i|**e_i, summed
        here by hand, lies below the target: it returns the exact
        substitution with the zero floor."""
        f, _, images, profile = ops
        target = zero_value(profile) if target_exp < 0 else \
            t_power(profile, Fraction(target_exp, 2))
        for e, coeff in f.terms.items():
            a = min(t for t, _ in coeff.terms)
            xs = [Fraction(0)] * profile.n
            for ei, (_, ai, xsi) in zip(e, images):
                a += ei * ai
                xs = [x + ei * xi for x, xi in zip(xs, xsi)]
            term = make_tate(f.m, f.base, {e: coeff})
            got = evaluate(term, self.hom(images, profile), target)
            assert got.floor.zero
            assert got.terms == ref_evaluate(term, images, profile.p)
            # the bound is the value of the leading term, kept whether it
            # lies below the target or not
            bound = value(profile, a, xs)
            assert bound in [value(profile, *k) for k in got.terms]
            assert all(value_le(value(profile, *k), bound) for k in got.terms)
        got = evaluate(f, self.hom(images, profile), target)
        assert got.floor.zero
        assert got.terms == ref_evaluate(f, images, profile.p)

    @settings(max_examples=100, deadline=None)
    @given(exact_evaluations())
    def test_additive_and_multiplicative(self, ops):
        f, g, images, profile = ops
        hom = self.hom(images, profile)
        exact = zero_value(profile)
        ev_f, ev_g = evaluate(f, hom, exact), evaluate(g, hom, exact)
        assert evaluate(t_add(f, g), hom, exact) == add(ev_f, ev_g)
        assert evaluate(tate_product(f, g), hom, exact) == mul(ev_f, ev_g)


class TestProductFloors:
    @settings(max_examples=100, deadline=None)
    @given(tate_operands())
    def test_products_and_sums_match_make_tate(self, ops):
        f, g, d = ops
        m, base = f.m, f.base
        assert t_add(f, g) == make_tate(m, base, list(f.terms.items()) + list(g.terms.items()))
        assert t_scale(f, d) == make_tate(m, base, [(e, mul(c, d)) for e, c in f.terms.items()])
        # p * f cancels every term
        acc = f
        for _ in range(base.p - 1):
            acc = t_add(acc, f)
        assert acc == tatealg.TateElement(m, base, {})

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_make_tate_matches_reference_drop_rule(self, data):
        base = make_profile(data.draw(st.sampled_from([2, 3])), [], max_denom_log=12)
        m = data.draw(st.integers(1, 2))
        keys = data.draw(st.lists(st.tuples(*[base_exp(base.p)] * m),
                                  min_size=1, max_size=3, unique=True))
        pairs = [(e, draw_coeff(data.draw, base))
                 for e in data.draw(st.lists(st.sampled_from(keys), max_size=6))]
        assert make_tate(m, base, pairs) == ref_make_tate(m, base, pairs)

    def test_hash_raises(self, prof1):
        with pytest.raises(TypeError):
            hash(t_var(prof1.base()))


# The shapes of d that scale_operands draws: the key shift's, and the one
# that must keep the per-coefficient mul.
KEY_SHIFT, MULTI_TERM_D = "monomial d", "multi-term d"


@st.composite
def scale_operands(draw):
    """(shape, f, d): a Tate element f in m in {1, 2} variables and a
    scalar d over the base field of p in {2, 3, 5}, d drawn in one of the
    shapes above."""
    p = draw(st.sampled_from([2, 3, 5]))
    base = make_profile(p, [], max_denom_log=12)
    m = draw(st.integers(1, 2))
    shape = draw(st.sampled_from((KEY_SHIFT, MULTI_TERM_D)))
    exp = base_exp(p)

    def series(min_size, max_size):
        return make_series(base, draw(st.dictionaries(
            st.tuples(exp, st.just(())), st.integers(1, p - 1),
            min_size=min_size, max_size=max_size)))

    keys = draw(st.lists(st.tuples(*[exp] * m), max_size=5, unique=True))
    f = make_tate(m, base, {e: series(1, 4) for e in keys})
    multi = shape == MULTI_TERM_D
    return shape, f, series(2 if multi else 1, 3 if multi else 1)


@settings(max_examples=300, deadline=None)
@given(scale_operands())
def test_t_scale_is_coefficientwise_mul_in_order(ops):
    """t_scale equals make_tate of the coefficient-wise products, with the
    Tate exponents and every coefficient's terms in the same order.  The
    key shift builds no product by mul and does not regroup through
    _build_tate."""
    shape, f, d = ops
    want = make_tate(f.m, f.base, [(e, mul(c, d)) for e, c in f.terms.items()])
    if shape == KEY_SHIFT:
        with mock.patch.object(tatealg, "mul", side_effect=AssertionError("mul")), \
                mock.patch.object(tatealg, "_build_tate",
                                  side_effect=AssertionError("_build_tate")):
            got = t_scale(f, d)
    else:
        got = t_scale(f, d)
    assert list(got._terms.items()) == list(want._terms.items())
    for c, w in zip(got._terms.values(), want._terms.values()):
        assert list(c._terms.items()) == list(w._terms.items())
        assert c.floor.zero


@st.composite
def tate_families(draw):
    """(m, base, list of Tate elements) over p in {2, 3}, m in {1, 2}.
    Exponents and coefficient keys come from small pools, so exponents
    repeat and coefficients cancel across the list."""
    p = draw(st.sampled_from([2, 3]))
    base = make_profile(p, [], max_denom_log=12)
    m = draw(st.integers(1, 2))
    exps = draw(st.lists(st.tuples(*[base_exp(p)] * m), min_size=1, max_size=3, unique=True))
    ts = draw(st.lists(base_exp(p), min_size=1, max_size=4, unique=True))

    def coeff():
        terms = draw(st.dictionaries(st.sampled_from(ts), st.integers(1, p - 1), min_size=1))
        return make_series(base, {(t, ()): c for t, c in terms.items()})

    fs = [make_tate(m, base, {e: coeff() for e in draw(st.sets(st.sampled_from(exps)))})
          for _ in range(draw(st.integers(0, 5)))]
    return m, base, fs


@settings(max_examples=300, deadline=None)
@given(tate_families())
def test_t_sum_is_the_fold_of_t_add(family):
    m, base, fs = family
    got = t_sum(m, base, fs)
    if not fs:
        assert got.terms == {}
        return
    want = functools.reduce(t_add, fs)
    assert set(got.terms) == set(want.terms)
    for e, c in want.terms.items():
        assert got.terms[e] == c


class TestPowerMemo:
    """HomSpec._monomial memoizes monomial images; results must not depend
    on it."""

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
                en = e.numerator * (prof1.den // e.denominator)
                assert hom._monomial((en, 0, 0)) == series_frac_pow(hom.images[0], e)
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
