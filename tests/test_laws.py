"""Laws that must hold whatever the exponent representation: the Gauss
norm is multiplicative under free radii, invert meets its residual bound
with a floor that certifies it, and t_frobenius and t_pth_root undo each
other.  Each runs over p in {2, 3} and n in {0, 1, 2} (free radii, or Tate
variables) against a conftest reference that calls no library code."""

import operator
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import ref_leading_key, ref_mul, ref_tate_raw, ref_tate_scaled, ref_weight_cmp
from ultrametrica.errors import DenominatorCapError
from ultrametrica.series import gauss_norm, invert, make_series, mul, one, sub
from ultrametrica.tatealg import make_tate, t_frobenius, t_pth_root
from ultrametrica.valuegroup import FreeRadius, make_profile, t_power, value, value_mul

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
