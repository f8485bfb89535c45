import math
from fractions import Fraction

import pytest

from ultrametrica.series import add, make_series
from ultrametrica.tatealg import TateElement
from ultrametrica.valuegroup import (
    FreeRadius,
    Ordering,
    RationalRadius,
    compare,
    make_profile,
    value,
    value_max,
    value_mul,
)


@pytest.fixture
def prof1():
    """p = 2, one free radius alpha = sqrt(2), default sigma_s."""
    return make_profile(2, [FreeRadius(2)])


@pytest.fixture
def prof1_cap24():
    return make_profile(2, [FreeRadius(2)], max_denom_log=24)


@pytest.fixture
def prof2():
    """p = 2, radii sqrt(2) and sqrt(3)."""
    return make_profile(2, [FreeRadius(2), FreeRadius(3)])


@pytest.fixture
def prof_rational():
    """p = 2, one rational radius r = |t|."""
    return make_profile(2, [RationalRadius(Fraction(1))])


def float_weight(v):
    """Independent floating-point weight oracle for norm comparisons."""
    w = float(v.a)
    for spec, qi in zip(v.profile.radii, v.q):
        if isinstance(spec, FreeRadius):
            w += float(qi) * math.sqrt(spec.d)
        else:
            w += float(qi) * float(spec.exponent)
    return w


def ref_max(values):
    """The largest of the values under compare, or None when there are none."""
    best = None
    for v in values:
        if best is None or compare(best, v) is Ordering.LESS:
            best = v
    return best


def ref_gauss_norm(f):
    """Reference Gauss norm of a series: its largest term norm."""
    return ref_max(value(f.profile, t, xs) for t, xs in f.terms)


def ref_product_floor(ff, fg, nf, ng):
    """The three-candidate floor of a product of elements with floors
    ff, fg and norms nf, ng: max(ff*fg, ff*ng, fg*nf)."""
    cands = [value_mul(ff, fg)]
    if ng is not None:
        cands.append(value_mul(ff, ng))
    if nf is not None:
        cands.append(value_mul(fg, nf))
    return value_max(*cands)


def ref_res_ge(f, cut):
    """Reference res_ge: the exact sub-sum of the terms whose norm is not
    below cut under compare."""
    kept = {k: c for k, c in f.terms.items()
            if compare(value(f.profile, *k), cut) is not Ordering.LESS}
    return make_series(f.profile, kept)


def ref_make_tate(m, base, pairs, floor):
    """Reference Tate constructor for valid (exponent, coefficient) pairs:
    sums the coefficients of a repeated exponent, then keeps a coefficient
    when it has terms above its own floor and its norm is not below floor."""
    summed = {}
    for e, c in pairs:
        e = tuple(Fraction(x) for x in e)
        summed[e] = add(summed[e], c) if e in summed else c
    kept = {}
    for e, c in summed.items():
        n = ref_gauss_norm(c)
        if n is not None and compare(n, floor) is not Ordering.LESS:
            kept[e] = c
    return TateElement(m, base, kept, floor)
