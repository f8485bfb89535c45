import decimal
import functools
import math
from fractions import Fraction

import pytest

from ultrametrica.series import (
    add,
    gauss_norm,
    lift_base,
    make_series,
    mul,
    series_frac_pow,
    series_zero,
    with_floor,
)
from ultrametrica.tatealg import TateElement
from ultrametrica.valuegroup import (
    FreeRadius,
    Ordering,
    RationalRadius,
    Weight,
    compare,
    make_profile,
    value,
    value_lift,
    value_max,
    value_mul,
    value_pow,
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


def ref_bounds(w, k):
    """Reference enclosure (lo, hi) of the weight c0 + sum c_d sqrt(d) at
    precision k, in Fractions: with r = isqrt(d << 2k), sqrt(d) lies in
    [r/2**k, (r+1)/2**k], so c_d sqrt(d) lies between c_d r/2**k and
    c_d (r+1)/2**k; the +1 raises hi when c_d > 0 and lowers lo when c_d < 0."""
    lo = hi = Fraction(w.rational)
    for d, c in w.irrational.items():
        r = math.isqrt(d << (2 * k))
        if c > 0:
            lo += Fraction(c * r, 2**k)
            hi += Fraction(c * (r + 1), 2**k)
        else:
            lo += Fraction(c * (r + 1), 2**k)
            hi += Fraction(c * r, 2**k)
    return lo, hi


def ref_mul(f, g, p):
    """Reference product terms of two term dicts {(t, xs): c} over F_p:
    every pair of terms, exponents added and coefficients multiplied by
    hand, repeated keys summed; keys whose sum is 0 are left out."""
    out = {}
    for (t1, xs1), c1 in f.items():
        for (t2, xs2), c2 in g.items():
            key = (t1 + t2, tuple(a + b for a, b in zip(xs1, xs2)))
            out[key] = (out.get(key, 0) + c1 * c2) % p
    return {k: c for k, c in out.items() if c}


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
            # TateElement keys its terms by exponent numerators over base.den
            kept[tuple(x.numerator * (base.den // x.denominator) for x in e)] = c
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


def ref_evaluate_by_factors(f, images, target):
    """Reference evaluate of a floored Tate element f under floored images
    (series over one profile) above the target floor, one factor at a time.

    A coefficient below its own floor is skipped.  So is a term whose bound
    |c| prod |g_i|**e_i lies below target, unless an image with e_i != 0
    is below its floor (then the term has no bound and is kept).  A kept
    term contributes lift_base(c) times images[i]**e_i for i ascending, one
    mul per factor; the contributions add left to right.  The result floor
    is the largest of f's floor, the sum's floor and, after a skip, target."""
    profile = images[0].profile
    contribs, skipped = [], False
    for e, c in f.terms.items():
        nc = gauss_norm(c)
        if nc is None:
            skipped = True
            continue
        bound = value_lift(nc, profile)
        for ei, g in zip(e, images):
            if ei:
                ng = gauss_norm(g)
                if ng is None:
                    bound = None
                    break
                bound = value_mul(bound, value_pow(ng, ei))
        if bound is not None and compare(bound, target) is Ordering.LESS:
            skipped = True
            continue
        contrib = lift_base(c, profile)
        for ei, g in zip(e, images):
            if ei:
                contrib = mul(contrib, series_frac_pow(g, ei))
        contribs.append(contrib)
    acc = functools.reduce(add, contribs) if contribs else series_zero(profile)
    floor = value_lift(f.floor, profile)
    if skipped:
        floor = value_max(floor, target)
    return with_floor(acc, floor)


# ---------------------------------------------------------------------------
# References for the laws in test_laws.py.  They read elements only through
# their Fraction views (terms, Value.a and Value.q) and call no library
# function: weights are summed here and signed by decimal arithmetic.
# ---------------------------------------------------------------------------


def ref_sign(rational, irr):
    """Sign of rational + sum c_d sqrt(d) over distinct squarefree d: zero
    exactly when every coefficient is zero (the square roots are linearly
    independent over Q), else the sign of a 100-digit decimal sum, far
    finer than any gap between the small weights the laws draw."""
    if rational == 0 and not any(irr.values()):
        return 0
    with decimal.localcontext() as ctx:
        ctx.prec = 100
        total = decimal.Decimal(rational.numerator) / rational.denominator
        for d, c in irr.items():
            total += decimal.Decimal(c.numerator) / c.denominator * decimal.Decimal(d).sqrt()
    return (total > 0) - (total < 0)


def ref_weight(ds, a, xs):
    """Weight of |t|**a x**xs over free radii sqrt(d), d in ds: (a, {d: x})."""
    return Fraction(a), {d: Fraction(x) for d, x in zip(ds, xs)}


def ref_weight_cmp(ds, u, v):
    """Sign of weight(u) - weight(v) for exponent pairs u = (a, xs), v."""
    (ru, iu), (rv, iv) = ref_weight(ds, *u), ref_weight(ds, *v)
    return ref_sign(ru - rv, {d: iu[d] - iv[d] for d in ds})


def ref_leading_key(ds, keys):
    """The key (a, xs) of smallest weight, i.e. of largest norm; under free
    radii it is unique."""
    best = None
    for k in keys:
        if best is None or ref_weight_cmp(ds, k, best) < 0:
            best = k
    return best


def ref_tate_scaled(f, scale):
    """Raw data of the Tate element f with every exponent multiplied by
    scale: ({e: (coefficient terms, coefficient floor exponent)}, floor
    exponent), a floor exponent being None for the zero floor."""
    def floor_exp(v):
        return None if v.zero else v.a * scale

    terms = {tuple(x * scale for x in e): (
        {(t * scale, ()): c for (t, _), c in coeff.terms.items()}, floor_exp(coeff.floor))
        for e, coeff in f.terms.items()}
    return terms, floor_exp(f.floor)


def ref_tate_raw(f):
    """The same raw data of f, unscaled."""
    return ref_tate_scaled(f, 1)
