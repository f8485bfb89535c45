"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line per criterion (run pytest with -s to see them live)."""

import random
import time
from fractions import Fraction

import pytest

from conftest import only_x
from ultrametrica.abhyankar import (
    FieldDescriptor,
    GaussCoordinate,
    TowerPoint,
    TypeIVCoordinate,
    _free_class,
    _rank,
    check_main_theorem_bound,
    d_K,
    factor_temkin,
    is_abhyankar,
    is_semi_immediate,
)
from ultrametrica.berkovich import (
    DiskPoint,
    NestedPrefix,
    PointType,
    classify,
)
from ultrametrica.gleason import (
    build_gmultivar,
    reconstruct_preimage,
    rescale_into_window,
    standard_surjection,
    verify_schedule,
)
from ultrametrica.series import (
    frobenius,
    gauss_norm,
    invert,
    make_series,
    mul,
    one,
    pth_root,
    res_ge,
    series_zero,
    sub,
)
from ultrametrica.tatealg import evaluate
from ultrametrica.valuegroup import (
    FreeRadius,
    Ordering,
    compare,
    make_profile,
    pi_value,
    s_value,
    t_power,
    value,
    value_le,
    value_lt,
    value_mul,
    value_pow,
    zero_value,
)


def report(num, name, ok, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"{status}  criterion {num}: {name} ({elapsed:.2f}s)")
    assert ok, f"criterion {num} failed: {name}"


def sample_element(prof, rng, *, n_terms, t_span, x_span, x_denom_log=2,
                   floor_exp=None):
    terms = {}
    for _ in range(rng.randint(1, n_terms)):
        t = Fraction(rng.randint(0, t_span * 4), 4)
        q = Fraction(rng.randint(-x_span * 4, x_span * 4), 1 << x_denom_log)
        terms[(t, (q,))] = rng.randint(1, prof.p - 1)
    floor = t_power(prof, floor_exp) if floor_exp is not None else None
    return make_series(prof, terms, floor)


def sample_nonzero(prof, rng, **kw):
    for _ in range(64):
        f = sample_element(prof, rng, **kw)
        if f.terms:
            return f
    raise RuntimeError("sampler exhausted")


@pytest.fixture(scope="module")
def prof():
    return make_profile(2, [FreeRadius(2)], max_denom_log=32)


@pytest.fixture(scope="module")
def surjection_n1(prof):
    # depth 21 reaches q = 4, the first exponent past the monomial zone
    return standard_surjection(prof, 21)


def test_criterion_1_norm_multiplicativity(prof):
    t0 = time.monotonic()
    rng = random.Random(101)
    ok = True
    for _ in range(500):
        # term weights <= 8 keep |f g| above the propagated floor <24;0>
        f = sample_nonzero(prof, rng, n_terms=6, t_span=5, x_span=2, floor_exp=24)
        g = sample_nonzero(prof, rng, n_terms=6, t_span=5, x_span=2, floor_exp=24)
        expected = value_mul(gauss_norm(f), gauss_norm(g))
        got = gauss_norm(mul(f, g))
        if got is None or compare(got, expected) is not Ordering.EQUAL:
            ok = False
            break
    elapsed = time.monotonic() - t0
    report(1, "norm multiplicativity on 500 random pairs", ok and elapsed < 5.0,
           elapsed)


def test_criterion_2_leading_term_uniqueness(prof):
    t0 = time.monotonic()
    rng = random.Random(202)
    failures = 0
    for _ in range(500):
        f = sample_nonzero(prof, rng, n_terms=8, t_span=6, x_span=4, floor_exp=24)
        if len(res_ge(f, gauss_norm(f)).terms) != 1:
            failures += 1
    elapsed = time.monotonic() - t0
    report(2, "leading-term uniqueness on 500 random elements",
           failures == 0 and elapsed < 5.0, elapsed)


def test_criterion_3_inversion(prof):
    t0 = time.monotonic()
    rng = random.Random(303)
    target = t_power(prof, 20)
    ok = True
    for _ in range(200):
        # an anchor of weight <= 3.5 keeps the residual floor certifiable
        terms = {
            (Fraction(rng.randint(0, 2)), (Fraction(rng.choice([0, 1, 2]), 2),)): 1
        }
        for _ in range(rng.randint(1, 5)):
            t = Fraction(rng.randint(0, 10), rng.choice([1, 1, 2]))
            q = Fraction(rng.randint(-3, 6), rng.choice([1, 1, 2]))
            terms[(t, (q,))] = 1
        f = make_series(prof, terms)
        g = invert(f, target)
        r = sub(mul(f, g), one(prof))
        nr = gauss_norm(r)
        if not (nr is None or value_lt(nr, target)):
            ok = False
            break
        if value_lt(target, r.floor):
            ok = False  # the check would not be certified
            break
    elapsed = time.monotonic() - t0
    report(3, "inversion residuals below <20;0> on 200 units",
           ok and elapsed < 10.0, elapsed)


def test_criterion_4_frobenius_roundtrip(prof):
    t0 = time.monotonic()
    rng = random.Random(404)
    ok = True
    for _ in range(200):
        f = sample_nonzero(prof, rng, n_terms=8, t_span=6, x_span=4)
        if pth_root(frobenius(f)) != f or frobenius(pth_root(f)) != f:
            ok = False
            break
    elapsed = time.monotonic() - t0
    report(4, "frobenius/pth_root exact roundtrip on 200 elements", ok, elapsed)


def test_criterion_5_gleason_adaptedness():
    ok = True
    total = 0.0
    for p in (2, 3):
        t0 = time.monotonic()
        prof = make_profile(p, [FreeRadius(2)], max_denom_log=24)
        schedule, G = build_gmultivar(prof, only_x(prof), 12)
        certs = verify_schedule(schedule, G)
        elapsed = time.monotonic() - t0
        total += elapsed
        if len(certs) != 12 or not all(c.passed for c in certs):
            ok = False
        # conditions (1)-(5): convergence, eps bound, head window
        # (covered by the certificates), tails, distinct exponents
        pi = pi_value(prof)
        s = s_value(prof)
        exps = set()
        for m in range(1, 13):
            term = schedule.term(m)
            if not value_lt(gauss_norm(term), value_pow(pi, m)):
                ok = False  # (1)
            for i in range(1, m):
                d = schedule.d(m, i)
                if not value_le(gauss_norm(d), t_power(prof.base(), 0)):
                    ok = False  # (2)
            exps.add(schedule.omegas[m - 1][0] * p ** schedule.b[m - 1])
            for i in range(m + 1, 13):
                tail_term = value_pow(gauss_norm(schedule.term(i)),
                                      Fraction(1, p ** schedule.b[m - 1]))
                if not value_lt(tail_term, value_mul(pi, s)):
                    ok = False  # (4)
        if len(exps) != 12:
            ok = False  # (5)
        if elapsed >= 10.0:
            ok = False
    report(5, "G+ depth 12 adapted for p=2 and p=3", ok, total)


def test_criterion_6_division_convergence(prof, surjection_n1):
    t0 = time.monotonic()
    rng = random.Random(606)
    spec = surjection_n1
    pool = list(spec.schedule.omegas)
    s = s_value(prof)
    pi = pi_value(prof)
    ok = True
    for _ in range(50):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            q = rng.choice(pool)
            t = Fraction(rng.randint(0, 40), 1 << rng.randint(0, 2))
            terms[(t, q)] = 1
        beta = make_series(prof, terms)
        if not beta.terms:
            continue
        beta, _ = rescale_into_window(beta)
        result = reconstruct_preimage(spec, beta, 8)
        prev = None
        for m, rn in enumerate(result.residuals):
            bound = value_mul(value_pow(pi, m + 1), s)
            if rn is not None and not value_le(rn, bound):
                ok = False
            if rn is not None and prev is not None and not value_le(rn, prev):
                ok = False
            if rn is not None:
                prev = rn
        if not ok:
            break
    elapsed = time.monotonic() - t0
    report(6, "division convergence on 50 betas, M=8",
           ok and elapsed < 30.0, elapsed)


def test_criterion_7_end_to_end_surjectivity(surjection_n1):
    t0 = time.monotonic()
    ok = True
    configs = [
        (surjection_n1, 8),
        (standard_surjection(
            make_profile(2, [FreeRadius(2), FreeRadius(3)], max_denom_log=110),
            81,
        ), 4),
    ]
    rng = random.Random(707)
    from ultrametrica.valuegroup import ceil_weight, floor_weight, weight_of

    for spec, steps in configs:
        profile = spec.profile
        floor_value = t_power(profile, 12)
        pool = list(spec.schedule.omegas)
        trials = 0
        while trials < 20:
            # sample directly inside the window: term weights in [sigma_s, 12]
            terms = {}
            for _ in range(rng.randint(1, 5)):
                q = rng.choice(pool)
                minus_q = tuple(-x for x in q)
                t_lo = max(0, ceil_weight(weight_of(value(profile, profile.sigma_s, minus_q))))
                t_hi = floor_weight(weight_of(value(profile, 12, minus_q)))
                if t_lo > t_hi:
                    continue
                t = Fraction(rng.randint(t_lo * 4, t_hi * 4), 4)
                terms[(t, q)] = rng.randint(1, profile.p - 1)
            beta = make_series(profile, terms, floor_value)
            if not beta.terms:
                continue
            trials += 1
            result = reconstruct_preimage(spec, beta, steps)
            ev = evaluate(result.preimage, spec.hom,
                          value_mul(value_pow(pi_value(profile), steps),
                                    s_value(profile)))
            diff = sub(ev, beta)
            nd = gauss_norm(diff)
            if not (nd is None or value_lt(nd, beta.floor)):
                ok = False
                break
    elapsed = time.monotonic() - t0
    report(7, "end-to-end surjectivity at precision, n in {1, 2}",
           ok and elapsed < 120.0, elapsed)


def test_criterion_8_classification_golden(prof):
    t0 = time.monotonic()
    base = prof.base()
    zero_center = series_zero(base)
    got = [
        classify(DiskPoint(zero_center, t_power(base, Fraction(3, 2)))),
        classify(DiskPoint(zero_center, value(prof, 0, (1,)))),
        classify(DiskPoint(zero_center, zero_value(base))),
        classify(NestedPrefix(tuple(
            DiskPoint(zero_center, t_power(base, k)) for k in (1, 2, 3)
        ))),
    ]
    expected = [PointType.II, PointType.III, PointType.I, PointType.IV_CANDIDATE]
    report(8, "classification golden cases", got == expected,
           time.monotonic() - t0)


def test_criterion_9_abhyankar_bookkeeping(prof):
    t0 = time.monotonic()
    base = prof.base()
    gauss = lambda k: GaussCoordinate(t_power(base, k))
    iv = TypeIVCoordinate(NestedPrefix(tuple(
        DiskPoint(series_zero(base), t_power(base, k)) for k in (1, 2, 3)
    )))
    all_gauss = TowerPoint((gauss(1), gauss(2), gauss(3)))
    ok = d_K(all_gauss) == 3 and is_abhyankar(all_gauss)
    mixed = TowerPoint((gauss(1), iv, gauss(3)))
    fac = factor_temkin(mixed)
    ok = ok and d_K(mixed) == 2 and not is_abhyankar(mixed) and fac.l == 2
    # The realized field's radius count l is the rank of the free classes
    # of the image norms: l = n free radii in N = n + 2 variables.  A
    # record that claims l = N must fail the bound.
    for radii in ((2,), (2, 3)):
        spec = standard_surjection(
            make_profile(2, [FreeRadius(d) for d in radii], max_denom_log=32), 5)
        l = _rank([_free_class(v) for v in map(gauss_norm, spec.hom.images)])
        ok = ok and l == spec.profile.n and check_main_theorem_bound(spec.num_vars, l)
        ok = ok and not check_main_theorem_bound(spec.num_vars, spec.num_vars)
    report(9, "abhyankar bookkeeping on m=3 towers and realized radius counts", ok,
           time.monotonic() - t0)


def test_criterion_10_semi_immediate(prof):
    t0 = time.monotonic()
    r = value(prof, 0, (1,))
    K = FieldDescriptor(prof, (), 0)
    K_r = FieldDescriptor(prof, (r,), 0)
    K_r_perfd = FieldDescriptor(prof, (r,), 0)
    ok = (
        is_semi_immediate(K_r, K) is False
        and is_semi_immediate(K, K) is True
        and is_semi_immediate(K_r_perfd, K_r) is True
    )
    report(10, "semi-immediate detector", ok, time.monotonic() - t0)
