import math
from fractions import Fraction

import pytest

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
