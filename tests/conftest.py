import decimal
import functools
import math
from fractions import Fraction

import pytest

from ultrametrica.series import (
    add,
    make_series,
    monomial,
    mul,
    series_frac_pow,
    series_zero,
    sub,
)
from ultrametrica.tatealg import TateElement, t_scale, t_sum
from ultrametrica.valuegroup import (
    FreeRadius,
    Ordering,
    RationalRadius,
    compare,
    make_profile,
    s_value,
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


def lift(c, profile):
    """Reference embedding of the exact base-field element c into profile,
    read through its Fraction view: each term c_a t**a becomes c_a t**a x**0."""
    assert c.floor.zero
    zeros = (0,) * profile.n
    return make_series(profile, {(t, zeros): coeff for (t, _), coeff in c.terms.items()})


def only_x(profile):
    """The one monomial x of a one-radius profile: build_gmultivar over it
    builds the Gleason element for J = Z[1/p]_{>=0}."""
    return (monomial(profile, 1, 0, (1,)),)


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


def ref_make_tate(m, base, pairs):
    """Reference Tate constructor for valid (exponent, exact coefficient)
    pairs: sums the coefficients of a repeated exponent and keeps each sum
    that has a term left."""
    summed = {}
    for e, c in pairs:
        e = tuple(Fraction(x) for x in e)
        summed[e] = add(summed[e], c) if e in summed else c
    # TateElement keys its terms by exponent numerators over base.den
    return TateElement(m, base, {
        tuple(x.numerator * (base.den // x.denominator) for x in e): c
        for e, c in summed.items() if c.terms})


def ref_reconstruct(oracle, beta, steps):
    """Reference reconstruction from the public t_scale and t_sum, one Tate
    element per part and per step: at step m the terms of norm >= |t|**(m+1)
    s (clamped at beta's floor) are grouped by x exponent; each group's
    coefficient b, divided by the monomial b_q = c0 t**t0 of its oracle
    answer, gives d, and the step's part is the t_sum of t_scale(answer
    preimage, d) over its groups.  The residual is the last one minus each
    lift(d) * image.  Returns the t_sum of the step parts and the residual
    norms."""
    profile, base = beta.profile, beta.profile.base()
    D, p = profile.den, profile.p
    zeros = (0,) * profile.n
    res, parts, norms = beta, [], []
    for m in range(steps):
        cut = value_max(value_mul(value(profile, m + 1, zeros), s_value(profile)), res.floor)
        groups = {}
        for (t, xs), c in res.terms.items():
            if compare(value(profile, t, xs), cut) is not Ordering.LESS:
                groups.setdefault(xs, {})[t] = c
        step = []
        for xs, b in sorted(groups.items()):
            ans = oracle.answer(tuple(int(x * D) for x in xs))
            ((t0, _), c0), = ans.certificate.b_q.terms.items()
            d = make_series(base, {(t - t0, ()): c * pow(c0, -1, p) for t, c in b.items()})
            step.append(t_scale(ans.preimage, d))
            res = sub(res, mul(lift(d, profile), ans.image))
        parts.append(t_sum(oracle.num_vars, base, step))
        norms.append(ref_gauss_norm(res))
    return t_sum(oracle.num_vars, base, parts), tuple(norms)


def ref_tate_norm(f):
    """Reference Gauss norm of a Tate element: its largest coefficient
    norm (all radii are 1), or None when it has no coefficients."""
    return ref_max(ref_gauss_norm(c) for c in f.terms.values())


def ref_heights(schedule):
    """Reference Frobenius heights: for each step m, the least b >= 0 with
    (1) w_term > m, (3) 0 < w_head < sigma, (4) w_term / p**B > sigma + 1
    for B the largest earlier height, and (5) omega(m) p**b unlike every
    earlier omega(i) p**b_i.  w_term is the weight of beta W_m**(p**b)
    and w_head that of (eps_m beta)**(1/p**b) W_m, with beta = e_m**(p**b)
    in alpha mode and e_m in direct mode.  A full scan from 0 for every
    step, from the schedule's gamma, delta, h, omega and the terms of its
    monomials V alone: weights are (Fraction, {d: Fraction}) pairs summed
    here and signed by ref_sign."""
    p, sigma = schedule.profile.p, schedule.profile.sigma_s
    ds = [r.d for r in schedule.profile.radii]
    w_v = []
    for v in schedule.V:
        ((t, xs),) = v.terms
        w_v.append((t, dict(zip(ds, xs))))
    heights, taken = [], set()
    for m in range(1, schedule.depth + 1):
        gamma, delta = schedule.gammas[m - 1], schedule.deltas[m - 1]
        q = schedule.omegas[m - 1]
        w_w = ref_weight_sum(*zip(schedule.h_reps[m - 1], w_v))
        for b in range(1000):
            pb = p**b
            beta = gamma * pb if schedule.mode == "alpha" else gamma
            w_term = ref_weight_sum((1, (beta, {})), (pb, w_w))
            w_head = ref_weight_sum((1, ((delta + beta) / pb, {})), (1, w_w))
            exps = tuple(x * pb for x in q)
            if (ref_sign(*ref_weight_sum((1, w_term), (-1, (m, {})))) > 0
                    and ref_sign(*w_head) > 0
                    and ref_sign(*ref_weight_sum((1, (sigma, {})), (-1, w_head))) > 0
                    and (not heights or ref_sign(*ref_weight_sum(
                        (Fraction(1, p ** max(heights)), w_term), (-1, (sigma + 1, {})))) > 0)
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


def ref_evaluate_by_factors(f, images):
    """Reference evaluate of a Tate element f under exact images (series
    over one profile), one factor at a time: each term contributes
    lift(c) times images[i]**e_i for i ascending, one mul per factor,
    and the contributions add left to right.  The result is exact."""
    profile = images[0].profile
    contribs = []
    for e, c in f.terms.items():
        contrib = lift(c, profile)
        for ei, g in zip(e, images):
            if ei:
                contrib = mul(contrib, series_frac_pow(g, ei))
        contribs.append(contrib)
    return functools.reduce(add, contribs) if contribs else series_zero(profile)


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
    total = ref_decimal(rational, irr)
    return (total > 0) - (total < 0)


def ref_decimal(rational, irr):
    """rational + sum c_d sqrt(d) as a 100-digit decimal."""
    with decimal.localcontext() as ctx:
        ctx.prec = 100
        total = decimal.Decimal(rational.numerator) / rational.denominator
        for d, c in irr.items():
            total += decimal.Decimal(c.numerator) / c.denominator * decimal.Decimal(d).sqrt()
    return total


def ref_weight_decimal(rational, irr, digits):
    """rational + sum c_d sqrt(d) with digits after the point: |w| rounded
    half up, with w's sign.  A rational w is rounded exactly; any other is
    read from an 80-digit mpmath sum, and refused when that sum cannot
    decide the rounding (|w| 10**digits within 10**-40 of a boundary)."""
    if not any(irr.values()):
        neg = rational < 0
        n = math.floor(abs(Fraction(rational)) * 10**digits + Fraction(1, 2))
    else:
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(80):
            w = mpmath.mpf(rational.numerator) / rational.denominator
            for d, c in irr.items():
                w += mpmath.mpf(c.numerator) / c.denominator * mpmath.sqrt(d)
            scaled = abs(w) * 10**digits + mpmath.mpf(1) / 2
            n = int(mpmath.floor(scaled))
            assert min(scaled - n, n + 1 - scaled) > mpmath.mpf(10) ** -40, "undecided"
            neg = w < 0
    whole, frac = divmod(n, 10**digits)
    return f"{'-' if neg else ''}{whole}.{str(frac).rjust(digits, '0')}"


def ref_weight_sum(*terms):
    """The weight sum(c * w) over (c, w) pairs, each weight w a pair
    (rational, {d: c_d}) standing for rational + sum c_d sqrt(d)."""
    rational, irr = Fraction(0), {}
    for c, (r, i) in terms:
        rational += c * r
        for d, x in i.items():
            irr[d] = irr.get(d, 0) + c * x
    return rational, irr


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


def ref_zp_pick(p, lo, hi, max_k=64):
    """Reference for zp_in_weight_window on weights lo < hi, each a pair
    (rational, {d: c_d}) standing for rational + sum c_d sqrt(d): for the
    least k in 0..max_k at which one exists, the rational u / p**k with
    the largest u such that u / p**k < hi, if it exceeds lo; None when no
    k up to max_k has one.  A weight with no square-root part is read in
    Fractions; any other in mpmath at 60 digits more than p**max_k has,
    so that hi * p**k keeps 60 digits after the point (it is irrational,
    never an integer).  Calls no library code."""
    import mpmath

    def rational_only(w):
        return not any(w[1].values())

    with mpmath.workdps(60 + len(str(p**max_k))):
        def real(w):
            rational, irr = w
            return (mpmath.mpf(rational.numerator) / rational.denominator
                    + mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator * mpmath.sqrt(d)
                                  for d, c in irr.items()))

        for k in range(max_k + 1):
            scale = p**k
            if rational_only(hi):
                u = math.ceil(hi[0] * scale) - 1
            else:
                u = int(mpmath.floor(real(hi) * scale))
            x = Fraction(u, scale)
            if (x > lo[0]) if rational_only(lo) else (mpmath.mpf(u) / scale > real(lo)):
                return x
    return None
