"""Laws that must hold whatever the exponent representation: the Gauss
norm is multiplicative under free radii, invert meets its residual bound
with a floor that certifies it, t_frobenius and t_pth_root undo each
other, evaluate above a nonzero floor does not depend on how each term's
product is grouped, and neither does a sum of Tate elements.  Each runs
over p in {2, 3} and n in {0, 1, 2} (radii, or Tate variables) against a
conftest reference, the last over m in {1, 2} Tate variables against
itself; the first three references call no library code."""

import functools
import operator
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    ref_evaluate_by_factors,
    ref_leading_key,
    ref_mul,
    ref_tate_raw,
    ref_tate_scaled,
    ref_weight_cmp,
)
from ultrametrica.errors import DenominatorCapError
from ultrametrica.series import gauss_norm, invert, make_series, mul, one, series_zero, sub
from test_tatealg import tate_families
from ultrametrica.tatealg import (
    HomSpec,
    evaluate,
    make_tate,
    t_add,
    t_frobenius,
    t_pth_root,
    t_sum,
)
from ultrametrica.valuegroup import (
    FreeRadius,
    Ordering,
    RationalRadius,
    compare,
    make_profile,
    t_power,
    value,
    value_mul,
    zero_value,
)

FREE = (2, 3)


def free_profile(p, n, cap=12):
    return make_profile(p, [FreeRadius(d) for d in FREE[:n]], max_denom_log=cap)


def exps(p, lo=-8, hi=16):
    return st.builds(lambda u, i: Fraction(u, p**i), st.integers(lo, hi), st.integers(0, 2))


@st.composite
def free_series_pairs(draw):
    """(profile, f, g): two series over a free profile with p in {2, 3} and
    n in {0, 1, 2}, each with a zero or nonzero floor."""
    p, n = draw(st.sampled_from([2, 3])), draw(st.integers(0, 2))
    prof = free_profile(p, n)
    key = st.tuples(exps(p), st.tuples(*[exps(p)] * n))

    def series():
        terms = draw(st.dictionaries(key, st.integers(1, p - 1), min_size=1, max_size=5))
        floor = None
        if draw(st.booleans()):
            floor = value(prof, draw(exps(p)) + 24, [draw(exps(p)) for _ in range(n)])
        return make_series(prof, terms, floor)

    return prof, series(), series()


@settings(max_examples=200, deadline=None)
@given(free_series_pairs())
def test_gauss_norm_is_multiplicative_under_free_radii(ops):
    prof, f, g = ops
    assume(f.terms and g.terms)
    ds = FREE[:prof.n]
    lead_f, lead_g = ref_leading_key(ds, f.terms), ref_leading_key(ds, g.terms)
    lead = (lead_f[0] + lead_g[0], tuple(map(operator.add, lead_f[1], lead_g[1])))
    assert ref_leading_key(ds, ref_mul(f.terms, g.terms, prof.p)) == lead
    nh = gauss_norm(mul(f, g))
    assert (nh.a, nh.q) == lead
    assert nh == value_mul(gauss_norm(f), gauss_norm(g))


@st.composite
def units(draw):
    """(profile, f, k): an exact f = c M (1 + h) over a free profile with
    |h| <= |t|, and a target exponent k for the floor |t|**k."""
    p, n = draw(st.sampled_from([2, 3])), draw(st.integers(0, 2))
    prof = free_profile(p, n)
    coeff = st.integers(1, p - 1)
    a0, x0 = draw(exps(p)), tuple(draw(exps(p)) for _ in range(n))
    terms = {(a0, x0): draw(coeff)}
    for _ in range(draw(st.integers(0, 3))):
        # sqrt(2), sqrt(3) < 2, so the weight of t**dt x**dx is at least 1
        dx = tuple(draw(exps(p, -8, 8)) for _ in range(n))
        dt = 1 + 2 * sum(map(abs, dx)) + draw(exps(p, 0, 8))
        terms[(a0 + dt, tuple(map(operator.add, x0, dx)))] = draw(coeff)
    return prof, make_series(prof, terms), Fraction(draw(st.integers(1, 16)), 2)


@settings(max_examples=150, deadline=None)
@given(units())
def test_invert_meets_its_residual_bound(ops):
    """|f invert(f, eta) - 1| < eta, term by term on the exact product, and
    the library's own residual carries a floor no coarser than eta."""
    prof, f, k = ops
    ds, p = FREE[:prof.n], prof.p
    eta = t_power(prof, k)
    g = invert(f, eta)
    unit_key = (Fraction(0), (Fraction(0),) * prof.n)
    residual = ref_mul(f.terms, g.terms, p)
    residual[unit_key] = (residual.get(unit_key, 0) - 1) % p
    eta_key = (k, unit_key[1])
    assert all(ref_weight_cmp(ds, key, eta_key) > 0 for key, c in residual.items() if c)
    r = sub(mul(f, g), one(prof))
    assert r.floor.zero or ref_weight_cmp(ds, (r.floor.a, r.floor.q), eta_key) >= 0
    assert all(ref_weight_cmp(ds, key, eta_key) > 0 for key in r.terms)


@st.composite
def tate_elements(draw):
    """A Tate element in m in {0, 1, 2} variables over p in {2, 3}, with a
    cap of 2 or 12 and zero or nonzero floors on it and its coefficients."""
    p, m = draw(st.sampled_from([2, 3])), draw(st.integers(0, 2))
    base = make_profile(p, [], max_denom_log=draw(st.sampled_from([2, 12])))
    exp = exps(p, 0, 12)

    def coeff():
        terms = draw(st.dictionaries(st.tuples(exp, st.just(())), st.integers(1, p - 1),
                                     max_size=3))
        floor = t_power(base, draw(exp) + 4) if draw(st.booleans()) else None
        return make_series(base, terms, floor)

    keys = draw(st.lists(st.tuples(*[exp] * m), max_size=4, unique=True))
    floor = t_power(base, draw(exp) + 8) if draw(st.booleans()) else None
    return make_tate(m, base, {e: coeff() for e in keys}, floor)


@settings(max_examples=200, deadline=None)
@given(tate_elements())
def test_frobenius_and_pth_root_undo_each_other(f):
    """Both orders, each step against the reference's scaled exponents;
    t_pth_root raises DenominatorCapError exactly when a Tate exponent or
    a coefficient exponent over p leaves the cap."""
    p, cap = f.base.p, f.base.max_denom_log
    up = t_frobenius(f)
    assert ref_tate_raw(up) == ref_tate_scaled(f, p)
    assert t_pth_root(up) == f
    exponents = [x for e, c in f.terms.items() for x in e + tuple(t for t, _ in c.terms)]
    if any((x / p).denominator > p**cap for x in exponents):
        with pytest.raises(DenominatorCapError):
            t_pth_root(f)
        return
    down = t_pth_root(f)
    assert ref_tate_raw(down) == ref_tate_scaled(f, Fraction(1, p))
    assert t_frobenius(down) == f


@st.composite
def floored_evaluations(draw):
    """(f, images, target): a Tate element in m in {1, 2, 3} variables with a
    zero or nonzero floor and floored coefficients; images of up to three
    terms, each with a zero or nonzero floor, one of them below its floor,
    over p in {2, 3} and n in {0, 1, 2} radii, each free or rational; and a
    zero or nonzero target floor."""
    p, n, m = draw(st.sampled_from([2, 3])), draw(st.integers(0, 2)), draw(st.integers(1, 3))
    radii = [draw(st.sampled_from([FreeRadius(d), RationalRadius(1),
                                   RationalRadius(Fraction(1, 2))]))
             for d in FREE[:n]]
    prof = make_profile(p, radii, max_denom_log=12)
    base = prof.base()
    exp = exps(p, 0, 8)

    def floor(profile, lo):
        return t_power(profile, draw(exp) + lo) if draw(st.booleans()) else None

    def image():
        # every radius has weight at most 2, so t**a x**xs has norm <= 1
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            xs = tuple(draw(exps(p, -4, 4)) for _ in range(n))
            terms[(draw(exp) + 2 * sum(map(abs, xs)), xs)] = draw(st.integers(1, p - 1))
        return make_series(prof, terms, floor(prof, 2))

    below = draw(st.integers(0, m - 1))
    images = [series_zero(prof, t_power(prof, draw(exp))) if i == below else image()
              for i in range(m)]

    def coeff():
        terms = draw(st.dictionaries(st.tuples(exp, st.just(())), st.integers(1, p - 1),
                                     max_size=3))
        return make_series(base, terms, floor(base, 4))

    # zero exponents are frequent, so that many terms miss the image below its floor
    tate_exp = st.one_of(st.just(Fraction(0)), exps(p, 0, 4))
    keys = draw(st.lists(st.tuples(*[tate_exp] * m), max_size=4, unique=True))
    f = make_tate(m, base, {e: coeff() for e in keys}, floor(base, 8))
    target = t_power(prof, Fraction(draw(st.integers(0, 24)), 2)) if draw(st.booleans()) \
        else zero_value(prof)
    return f, images, target


@settings(max_examples=200, deadline=None)
@given(floored_evaluations())
def test_evaluate_above_a_nonzero_floor_multiplies_factor_by_factor(ops):
    """evaluate equals the term-by-term product taken one image power at a
    time, terms and floor alike.  Under free radii == on the floors compares
    their exponents, the one representation of a norm.  Under a rational
    radius a norm has many, and which one a product floor carries depends
    on the grouping (as it depends on the order of mul's arguments), so
    there the floors are compared as norms; test_tatealg's
    test_floor_representation_follows_the_grouping_under_a_rational_radius
    shows such a pair."""
    f, images, target = ops
    got = evaluate(f, HomSpec(tuple(images)), target)
    want = ref_evaluate_by_factors(f, images, target)
    if got.profile.is_free:
        assert got == want
    else:
        assert got.terms == want.terms
        assert compare(got.floor, want.floor) is Ordering.EQUAL


@settings(max_examples=300, deadline=None)
@given(tate_families())
def test_tate_sums_do_not_depend_on_grouping(family):
    """t_sum, the left and the right fold of t_add, and both groupings of
    three elements are ==: each coefficient is cut term by term and keeps
    its floor when no term is left, so no grouping loses what another
    keeps."""
    m, base, fs = family
    total = t_sum(m, base, fs)
    if fs:
        assert functools.reduce(t_add, fs) == total
        assert functools.reduce(lambda acc, f: t_add(f, acc), reversed(fs)) == total
    if len(fs) >= 3:
        a, b, c = fs[:3]
        assert t_add(t_add(a, b), c) == t_add(a, t_add(b, c))
