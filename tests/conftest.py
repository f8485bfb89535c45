import math
from fractions import Fraction

import pytest

from ultrametrica.series import add, gauss_norm, make_series
from ultrametrica.tatealg import TateElement
from ultrametrica.valuegroup import (
    FreeRadius,
    Ordering,
    RationalRadius,
    Weight,
    compare,
    make_profile,
    value,
    value_max,
    value_mul,
    weight_of,
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


def ref_heights(schedule):
    """Reference Frobenius heights: for each step m, the least b >= 0 with
    (1) w_term > m, (3) 0 < w_head < sigma, (4) w_term / p**B > sigma + 1
    for B the largest earlier height, and (5) omega(m) p**b unlike every
    earlier omega(i) p**b_i.  w_term is the weight of beta W_m**(p**b)
    and w_head that of (eps_m beta)**(1/p**b) W_m, with beta = e_m**(p**b)
    in alpha mode and e_m in direct mode.  A full scan from 0 for every
    step, from the schedule's gamma, delta, h and omega alone."""
    p = schedule.profile.p
    sigma = Weight(schedule.profile.sigma_s)
    w_v = [weight_of(gauss_norm(v)) for v in schedule.V]
    heights, taken = [], set()
    for m in range(1, schedule.depth + 1):
        gamma, delta = schedule.gammas[m - 1], schedule.deltas[m - 1]
        q = schedule.omegas[m - 1]
        w_w = Weight(Fraction(0))
        for hk, wk in zip(schedule.h_reps[m - 1], w_v):
            w_w = w_w.add(wk.scaled(hk))
        for b in range(1000):
            pb = Fraction(p**b)
            beta = gamma * pb if schedule.mode == "alpha" else gamma
            w_term = Weight(beta).add(w_w.scaled(pb))
            w_head = Weight((delta + beta) / pb).add(w_w)
            exps = tuple(x * pb for x in q)
            if (w_term.sub(Weight(Fraction(m))).sign() > 0
                    and w_head.sign() > 0 and sigma.sub(w_head).sign() > 0
                    and (not heights or w_term.scaled(Fraction(1, p ** max(heights)))
                         .sub(sigma.add_rational(1)).sign() > 0)
                    and exps not in taken):
                break
        else:
            raise AssertionError(f"no height below 1000 at step {m}")
        heights.append(b)
        taken.add(exps)
    return tuple(heights)


def ref_evaluate(f, images, p):
    """Reference evaluate of an exact Tate element under monomial images,
    each given as raw data (c, a, xs) for c t**a x**xs.  The coefficient
    term c_e t**b of T**e maps to c_e prod c_i**u_i t**(b + sum e_i a_i)
    x**(sum e_i xs_i) with e_i = u_i / p**k_i, because c**(1/p) = c in
    F_p.  Exponents add and coefficients multiply mod p; returns the
    {(t, xs): c} terms that do not cancel."""
    n = len(images[0][2])
    out = {}
    for e, coeff in f.terms.items():
        for (b, _), c in coeff.terms.items():
            t, xs = Fraction(b), [Fraction(0)] * n
            for ei, (ci, ai, xsi) in zip(e, images):
                c = c * ci ** ei.numerator % p
                t += ei * ai
                xs = [x + ei * xi for x, xi in zip(xs, xsi)]
            key = (t, tuple(xs))
            out[key] = (out.get(key, 0) + c) % p
    return {k: c for k, c in out.items() if c}
