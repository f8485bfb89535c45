import functools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import float_weight, ref_gauss_norm, ref_mul, ref_product_floor, ref_res_ge
from ultrametrica.errors import (
    DenominatorCapError,
    FloorTooCoarseError,
    InputValidationError,
    LeadingTermTieError,
)
from ultrametrica import series
from ultrametrica.io import series_to_json
from ultrametrica.series import (
    add,
    coefficient_at,
    frobenius,
    gauss_norm,
    invert,
    is_adapted,
    make_series,
    monomial,
    mul,
    one,
    pth_root,
    res_ge,
    root_pk,
    series_frac_pow,
    series_int_pow,
    series_sum,
    sub,
    with_floor,
)
from ultrametrica.valuegroup import (
    MAX_DENOM_LOG,
    FreeRadius,
    Ordering,
    RationalRadius,
    compare,
    make_profile,
    t_power,
    value,
    value_le,
    value_lt,
    value_mul,
    zero_value,
)


def S(profile, *terms, floor=None):
    """Terse element builder: terms are (coeff, t_exp, *x_exps)."""
    d = {}
    for c, t, *xs in terms:
        d[(Fraction(t), tuple(Fraction(x) for x in xs))] = c
    return make_series(profile, d, floor)


def brute_convolve(f, g):
    """Independent sparse-convolution oracle (dict arithmetic from scratch)."""
    p = f.profile.p
    out = {}
    for (t1, x1), c1 in f.terms.items():
        for (t2, x2), c2 in g.terms.items():
            k = (t1 + t2, tuple(a + b for a, b in zip(x1, x2)))
            out[k] = (out.get(k, 0) + c1 * c2) % p
    return {k: c for k, c in out.items() if c}


def rand_series(profile, rng, nterms=5, span=6):
    d = {}
    for _ in range(rng.randint(1, nterms)):
        t = Fraction(rng.randint(0, span * 4), 1 << rng.randint(0, 2))
        xs = tuple(
            Fraction(rng.randint(-span, span), 1 << rng.randint(0, 2))
            for _ in range(profile.n)
        )
        d[(t, xs)] = rng.randint(1, profile.p - 1)
    return make_series(profile, d)


class TestAddMul:
    def test_char2_cancellation(self, prof1):
        f = S(prof1, (1, 0, 1), (1, 1, 0))   # x + t
        g = S(prof1, (1, 0, 1), (1, 2, 0))   # x + t^2
        got = add(f, g)
        assert got == S(prof1, (1, 1, 0), (1, 2, 0))  # t + t^2

    def test_frobenius_square(self, prof1):
        f = S(prof1, (1, 0, 0), (1, 1, 1))   # 1 + t x
        got = mul(f, f)
        assert got == S(prof1, (1, 0, 0), (1, 2, 2))  # 1 + t^2 x^2

    def test_sparse_product_matches_brute_force(self, prof1):
        # (t + x)(t + x^{1/2}) with floor <10;0>
        f = S(prof1, (1, 1, 0), (1, 0, 1))
        g = S(prof1, (1, 1, 0), (1, 0, Fraction(1, 2)))
        expected = brute_convolve(f, g)
        got = mul(with_floor(f, t_power(prof1, 10)), with_floor(g, t_power(prof1, 10)))
        kept = {k: c for k, c in expected.items()
                if float_weight(value(prof1, *k)) <= 10 + 1e-9}
        assert got.terms == kept
        assert got.terms == {
            (Fraction(2), (Fraction(0),)): 1,
            (Fraction(1), (Fraction(1, 2),)): 1,
            (Fraction(1), (Fraction(1),)): 1,
            (Fraction(0), (Fraction(3, 2),)): 1,
        }

    def test_random_products_match_brute_force(self, prof2):
        rng = random.Random(23)
        for _ in range(50):
            f, g = rand_series(prof2, rng), rand_series(prof2, rng)
            assert mul(f, g).terms == brute_convolve(f, g)

    def test_ultrametric_inequality(self, prof1):
        rng = random.Random(9)
        for _ in range(200):
            f, g = rand_series(prof1, rng), rand_series(prof1, rng)
            nf, ng, nsum = gauss_norm(f), gauss_norm(g), gauss_norm(add(f, g))
            bound = nf if compare(nf, ng) is not Ordering.LESS else ng
            if nsum is not None:
                assert value_le(nsum, bound)
            if compare(nf, ng) is not Ordering.EQUAL:
                assert nsum is not None and compare(nsum, bound) is Ordering.EQUAL

    def test_multiplicativity_free_profile(self, prof1):
        rng = random.Random(31)
        for _ in range(200):
            f, g = rand_series(prof1, rng), rand_series(prof1, rng)
            assert compare(
                gauss_norm(mul(f, g)), value_mul(gauss_norm(f), gauss_norm(g))
            ) is Ordering.EQUAL


class TestNormArgnorm:
    def test_weight_comparison(self, prof1):
        f = S(prof1, (1, 1, 1), (1, 2, 0))  # t x + t^2: weights 2.414 vs 2
        assert gauss_norm(f) == value(prof1, 2, (0,))
        assert res_ge(f, gauss_norm(f)) == S(prof1, (1, 2, 0))

    def test_norm_of_one(self, prof1):
        assert gauss_norm(one(prof1)) == value(prof1, 0, (0,))

    def test_below_floor_returns_none(self, prof1):
        f = make_series(prof1, {}, t_power(prof1, 4))
        assert gauss_norm(f) is None

    def test_rational_radius_no_tie(self, prof_rational):
        # x vs t*x: weights 1 vs 2 under r = |t|
        f = S(prof_rational, (1, 0, 1), (1, 1, 1))
        assert res_ge(f, gauss_norm(f)) == S(prof_rational, (1, 0, 1))

    def test_rational_radius_tie(self, prof_rational):
        # x and t tie at weight 1 under r = |t|
        f = S(prof_rational, (1, 0, 1), (1, 1, 0))
        assert res_ge(f, gauss_norm(f)) == f
        with pytest.raises(LeadingTermTieError):
            invert(f, t_power(prof_rational, 4))

    def test_gauss_norm_tie_is_one_value_in_either_key_order(self, prof_rational):
        # x and t tie at weight 1 under r = |t|; |t| = r is one Value
        x_t = S(prof_rational, (1, 0, 1), (1, 1, 0))
        t_x = S(prof_rational, (1, 1, 0), (1, 0, 1))
        assert gauss_norm(x_t) == gauss_norm(t_x) == value(prof_rational, 0, (1,)) \
            == value(prof_rational, 1, (0,))

    def test_product_floor_tie_is_one_value_in_either_order(self, prof_rational):
        # floor(f) * |g| = |t|**5 * |t| and floor(g) * |f| = |t|**5 * r tie
        floor = t_power(prof_rational, 5)
        x, t = S(prof_rational, (1, 0, 1), floor=floor), S(prof_rational, (1, 1, 0), floor=floor)
        assert mul(x, t).floor == mul(t, x).floor == value(prof_rational, 6, (0,)) \
            == value(prof_rational, 5, (1,))

    def test_leading_part_unique_under_free_profile(self, prof1):
        rng = random.Random(17)
        for _ in range(300):
            f = rand_series(prof1, rng)
            assert len(res_ge(f, gauss_norm(f)).terms) == 1


class TestInvert:
    def test_monomial_inverse(self, prof1):
        g = invert(monomial(prof1, 1, 1), t_power(prof1, 20))
        assert (Fraction(-1), (Fraction(0),)) in g.terms

    def test_one_plus_tx(self, prof1):
        f = S(prof1, (1, 0, 0), (1, 1, 1))
        target = t_power(prof1, 20)
        g = invert(f, target)
        r = sub(mul(f, g), one(prof1))
        nr = gauss_norm(r)
        assert nr is None or value_lt(nr, target)
        # geometric series in (tx)^k
        assert (Fraction(2), (Fraction(2),)) in g.terms

    def test_t_plus_x(self, prof1):
        # |x| < |t| here, so the leading term is t
        f = S(prof1, (1, 1, 0), (1, 0, 1))
        target = t_power(prof1, 20)
        g = invert(f, target)
        r = sub(mul(f, g), one(prof1))
        nr = gauss_norm(r)
        assert nr is None or value_lt(nr, target)

    def test_random_units_multiply_back(self, prof1):
        rng = random.Random(41)
        target = t_power(prof1, 20)
        for _ in range(60):
            f = with_floor(rand_series(prof1, rng), t_power(prof1, 24))
            if not f.terms:
                continue
            g = invert(f, target)
            r = sub(mul(f, g), one(prof1))
            nr = gauss_norm(r)
            assert nr is None or value_lt(nr, target)

    def test_below_floor_raises(self, prof1):
        f = make_series(prof1, {}, t_power(prof1, 4))
        with pytest.raises(FloorTooCoarseError):
            invert(f, t_power(prof1, 20))


class TestFrobenius:
    def test_frobenius_example(self, prof1):
        f = S(prof1, (1, Fraction(1, 2), 0), (1, 0, 1))  # t^{1/2} + x
        assert frobenius(f) == S(prof1, (1, 1, 0), (1, 0, 2))

    def test_pth_root_example(self, prof1):
        f = S(prof1, (1, 1, 0), (1, 0, 2))
        assert pth_root(f) == S(prof1, (1, Fraction(1, 2), 0), (1, 0, 1))

    def test_roundtrip_random(self, prof2):
        rng = random.Random(53)
        for _ in range(200):
            f = rand_series(prof2, rng)
            assert pth_root(frobenius(f)) == f
            assert frobenius(pth_root(f)) == f

    def test_floor_scales(self, prof1):
        f = S(prof1, (1, 0, 1), floor=t_power(prof1, 8))
        assert frobenius(f).floor == t_power(prof1, 16)
        assert pth_root(f).floor == t_power(prof1, 4)

    def test_denominator_cap(self):
        prof = make_profile(2, [FreeRadius(2)], max_denom_log=2)
        f = S(prof, (1, Fraction(1, 4), 0))
        with pytest.raises(DenominatorCapError):
            pth_root(f)


def ref_root(f, k):
    """Reference p**k-th root: plain Fraction division, rebuilt by make_series."""
    q = Fraction(1, f.profile.p ** k)
    terms = {(t * q, tuple(x * q for x in xs)): c for (t, xs), c in f.terms.items()}
    floor = f.floor
    if not floor.zero:
        floor = value(f.profile, floor.a * q, [x * q for x in floor.q])
    return make_series(f.profile, terms, floor)


def looped_root(f, k):
    for _ in range(k):
        f = pth_root(f)
    return f


def raised_cap(fn, *args):
    try:
        return fn(*args)
    except DenominatorCapError:
        return DenominatorCapError


def p_profile(p, n, cap=12):
    return make_profile(p, [FreeRadius(d) for d in (2, 3)[:n]], max_denom_log=cap)


def draw_series(draw, prof, max_terms=6, cap=12, max_mult=0):
    """A series over prof with a zero or nonzero floor.

    Exponents are u * p**j / p**i with i <= min(2, cap) and j <= max_mult,
    so integer exponents divisible by p occur when max_mult > 0.
    """
    p, n = prof.p, prof.n
    exp = st.builds(lambda u, j, i: Fraction(u * p**j, p**i), st.integers(-8, 16),
                    st.integers(0, max_mult), st.integers(0, min(2, cap)))
    key = st.tuples(exp, st.tuples(*[exp] * n))
    terms = draw(st.dictionaries(key, st.integers(1, p - 1), max_size=max_terms))
    floor = None
    if draw(st.booleans()):
        floor = value(prof, draw(exp) + 12, [draw(exp) for _ in range(n)])
    return make_series(prof, terms, floor)


@st.composite
def p_series(draw, max_terms=6, cap=12, max_mult=0):
    """A series over p in {2, 3}, n in {0, 1, 2}, with a zero or nonzero floor."""
    prof = p_profile(draw(st.sampled_from([2, 3])), draw(st.integers(0, 2)), cap)
    return draw_series(draw, prof, max_terms, cap, max_mult)


@st.composite
def p_series_pair(draw, max_terms=6):
    """Two series over one profile (p in {2, 3}, n in {0, 1, 2})."""
    prof = p_profile(draw(st.sampled_from([2, 3])), draw(st.integers(0, 2)))
    return (draw_series(draw, prof, max_terms), draw_series(draw, prof, max_terms))


@settings(max_examples=150, deadline=None)
@given(p_series(), st.integers(0, 5))
def test_root_pk_matches_reference_and_loop(f, k):
    root = root_pk(f, k)
    assert root == ref_root(f, k)
    assert root == looped_root(f, k)
    back = root
    for _ in range(k):
        back = frobenius(back)
    assert back == f


@settings(max_examples=60, deadline=None)
@given(p_series(max_terms=3), st.integers(0, 5), st.integers(0, 4))
def test_frac_pow_is_one_root_of_the_integer_power(g, u, k):
    # u divisible by p would reduce u / p**k, and g**p then differs from
    # frobenius(g) in its floor; the law is stated for u / p**k reduced.
    assume(u == 0 or u % g.profile.p)
    e = Fraction(u, g.profile.p ** k)
    assert series_frac_pow(g, e) == ref_root(series_int_pow(g, u), k)


class TestRootPkCap:
    @pytest.mark.parametrize("terms,crossing", [
        ([(8, 0)], 6),                   # t**8: 4, 2, 1, 1/2, 1/4, then 1/8
        ([(Fraction(1, 4), 0)], 1),      # already at the cap
        ([(8, Fraction(3, 2))], 2),      # x**(3/2) crosses before t**8
        ([(16, 0), (0, 12)], 5),         # 12 = 4 * 3: 6, 3, 3/2, 3/4, 3/8
        ([(0, 0)], None),                # exponent 0 never crosses
    ])
    def test_one_shot_raises_where_the_loop_does(self, terms, crossing):
        prof = make_profile(2, [FreeRadius(2)], max_denom_log=2)
        f = S(prof, *[(1, *exps) for exps in terms])
        for k in range(9):
            raises = crossing is not None and k >= crossing
            assert (raised_cap(looped_root, f, k) is DenominatorCapError) == raises
            assert (raised_cap(root_pk, f, k) is DenominatorCapError) == raises

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(0, 3), st.integers(0, 7))
    def test_random_cap_matches_loop(self, data, cap, k):
        f = data.draw(p_series(cap=cap, max_mult=3))
        assert raised_cap(root_pk, f, k) == raised_cap(looped_root, f, k)

    def test_negative_order_rejected(self, prof1):
        with pytest.raises(InputValidationError):
            root_pk(one(prof1), -1)

    def test_profile_cap_bounded(self):
        make_profile(2, [FreeRadius(2)], max_denom_log=MAX_DENOM_LOG)
        with pytest.raises(InputValidationError):
            make_profile(2, [FreeRadius(2)], max_denom_log=MAX_DENOM_LOG + 1)


class TestResGe:
    def test_weight_cut(self, prof1):
        beta = S(prof1, (1, 0, 1), (1, 1, Fraction(1, 2)), (1, 5, 0))
        got = res_ge(beta, t_power(prof1, 2))
        # weights 1.414 and 1.707 stay; weight 5 is cut
        assert got == S(prof1, (1, 0, 1), (1, 1, Fraction(1, 2)))

    def test_cut_at_norm_gives_leading_part(self, prof1):
        beta = S(prof1, (1, 0, 1), (1, 5, 0))
        assert res_ge(beta, gauss_norm(beta)) == S(prof1, (1, 0, 1))

    def test_cut_above_norm_gives_zero(self, prof1):
        beta = S(prof1, (1, 2, 0))
        assert res_ge(beta, t_power(prof1, 1)).terms == {}

    def test_cut_below_floor_raises(self, prof1):
        beta = S(prof1, (1, 0, 0), floor=t_power(prof1, 4))
        with pytest.raises(FloorTooCoarseError):
            res_ge(beta, t_power(prof1, 6))

    def test_monotone_in_cut(self, prof1):
        rng = random.Random(71)
        for _ in range(100):
            beta = rand_series(prof1, rng)
            r1 = res_ge(beta, t_power(prof1, 3))
            r2 = res_ge(beta, t_power(prof1, 7))
            assert set(r1.terms) <= set(r2.terms)


@settings(max_examples=200, deadline=None)
@given(p_series(), st.data())
def test_res_ge_matches_reference_filter(f, data):
    prof = f.profile
    if f.terms and data.draw(st.booleans()):
        cut = value(prof, *data.draw(st.sampled_from(list(f.terms))))
    elif data.draw(st.booleans()):
        cut = zero_value(prof)
    else:
        exp = st.builds(lambda u, i: Fraction(u, prof.p**i),
                        st.integers(-8, 24), st.integers(0, 2))
        cut = value(prof, data.draw(exp), [data.draw(exp) for _ in range(prof.n)])
    if value_lt(cut, f.floor):
        with pytest.raises(FloorTooCoarseError):
            res_ge(f, cut)
    else:
        assert res_ge(f, cut) == ref_res_ge(f, cut)


class TestIsAdapted:
    @pytest.fixture
    def prof_s2(self):
        return make_profile(2, [FreeRadius(2)], sigma_s=2)

    def test_single_monomial_passes(self, prof_s2):
        cert = is_adapted(S(prof_s2, (1, 0, 1)), (1,))
        assert cert.passed
        assert cert.tail_norm is None
        assert cert.b_q.terms == {(Fraction(0), ()): 1}

    def test_small_tail_passes(self, prof_s2):
        # tail t^4 x^2 has weight 4 + 2 sqrt2 = 6.83 > sigma_s + 1 = 3
        cert = is_adapted(S(prof_s2, (1, 0, 1), (1, 4, 2)), (1,))
        assert cert.passed

    def test_big_tail_fails_condition_3(self, prof_s2):
        # tail x^2 has weight 2 sqrt2 = 2.83 < 3 = sigma_s + 1
        cert = is_adapted(S(prof_s2, (1, 0, 1), (1, 0, 2)), (1,))
        assert cert.checks == (True, True, False)
        assert not cert.passed

    def test_norm_window_fails_condition_1(self, prof_s2):
        cert = is_adapted(S(prof_s2, (1, 3, 0)), (0,))  # |t^3| < s
        assert not cert.checks[0]

    def test_norm_above_one_fails_condition_1(self, prof_s2):
        # t^-2 x has weight sqrt2 - 2 < 0, so its norm is above 1, while
        # its one term is the x^1 term and there is no tail
        cert = is_adapted(S(prof_s2, (1, -2, 1)), (1,))
        assert cert.checks == (False, True, True)
        assert not cert.passed

    def test_coarse_floor_raises(self, prof_s2):
        # s*|pi| has weight 3; a floor at weight 2 cannot decide the tail
        beta = S(prof_s2, (1, 0, 1), floor=t_power(prof_s2, 2))
        with pytest.raises(FloorTooCoarseError):
            is_adapted(beta, (1,))

    def test_coefficient_extraction(self, prof1):
        beta = S(prof1, (1, 0, 1), (1, 2, 1), (1, 1, 0))
        bq = coefficient_at(beta, (1,))
        assert bq.terms == {(Fraction(0), ()): 1, (Fraction(2), ()): 1}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 12), st.integers(0, 12), st.integers(1, 3))
def test_frac_pow_matches_repeated_mul(tnum, xnum, denlog):
    prof = make_profile(2, [FreeRadius(2)], max_denom_log=8)
    g = S(prof, (1, Fraction(tnum, 2), Fraction(xnum, 2)), (1, Fraction(tnum + 3), 0))
    e = Fraction(3, 1 << denlog)
    direct = series_frac_pow(g, e)
    cubed = mul(mul(g, g), g)
    for _ in range(denlog):
        cubed = pth_root(cubed)
    assert direct == cubed


def fresh_copy(f):
    return make_series(f.profile, dict(f.terms), f.floor)


@settings(max_examples=150, deadline=None)
@given(p_series())
def test_gauss_norm_matches_reference_before_and_after_storing(f):
    ref = ref_gauss_norm(f)
    assert gauss_norm(f) == ref
    assert gauss_norm(f) == ref
    assert gauss_norm(fresh_copy(f)) == ref


@settings(max_examples=150, deadline=None)
@given(p_series_pair())
def test_mul_floor_matches_three_candidate_formula(pair):
    f, g = pair
    expected = ref_product_floor(f.floor, g.floor, ref_gauss_norm(f), ref_gauss_norm(g))
    assert mul(f, g).floor == expected
    assert mul(fresh_copy(f), fresh_copy(g)).floor == expected


class TestElementsAreEqOnly:
    def test_hash_raises(self, prof1):
        with pytest.raises(TypeError):
            hash(S(prof1, (1, 1, 0)))

    @settings(max_examples=60, deadline=None)
    @given(p_series())
    def test_stored_norm_is_invisible(self, f):
        before = repr(f), series_to_json(f)
        gauss_norm(f)
        copy = fresh_copy(f)
        assert f == copy and copy == f
        assert repr(f) == repr(copy) == before[0]
        assert series_to_json(f) == series_to_json(copy) == before[1]


# Radii of the law profiles: none, free, rational (whose norms can tie:
# |t| = r under r = |t|), and free beside rational.
LAW_RADII = ((), (FreeRadius(2),), (FreeRadius(2), FreeRadius(3)),
             (RationalRadius(Fraction(1)),), (FreeRadius(2), RationalRadius(Fraction(1, 2))))


def law_floors(prof):
    """None or one of a few floors that tie under rational radii and sit
    among the term norms of series_families, so some terms fall below."""
    return st.none() | st.builds(lambda a, q: value(prof, a, q), st.integers(6, 9),
                                 st.tuples(*[st.integers(0, 2)] * prof.n))


@st.composite
def series_families(draw, max_size=5):
    """(profile, series list) over p in {2, 3} and one of LAW_RADII, with
    floors from law_floors.  Term keys come from one small pool, so keys
    repeat and cancel across the list."""
    p = draw(st.sampled_from([2, 3]))
    prof = make_profile(p, LAW_RADII[draw(st.integers(0, len(LAW_RADII) - 1))],
                        max_denom_log=12)
    exp = st.builds(lambda u, i: Fraction(u, p**i), st.integers(-4, 12), st.integers(0, 1))
    keys = draw(st.lists(st.tuples(exp, st.tuples(*[exp] * prof.n)),
                         min_size=1, max_size=6, unique=True))
    fs = []
    for _ in range(draw(st.integers(0, max_size))):
        terms = draw(st.dictionaries(st.sampled_from(keys), st.integers(1, p - 1)))
        fs.append(make_series(prof, terms, draw(law_floors(prof))))
    return prof, fs


@settings(max_examples=300, deadline=None)
@given(series_families())
def test_series_sum_is_the_fold_of_add(family):
    prof, fs = family
    got = series_sum(prof, fs)
    if not fs:
        assert got.terms == {} and got.floor == zero_value(prof)
        return
    want = functools.reduce(add, fs)
    assert list(got.terms.items()) == list(want.terms.items())
    assert got.floor == want.floor
    assert add(fs[0], fs[-1]) == series_sum(prof, (fs[0], fs[-1]))


@settings(max_examples=300, deadline=None)
@given(series_families(max_size=1), st.data())
def test_one_term_mul_matches_the_double_loop(family, data):
    prof, fs = family
    f = fs[0] if fs else make_series(prof, {})
    key = data.draw(st.sampled_from(list(f.terms) or [(Fraction(1), (Fraction(0),) * prof.n)]))
    g = make_series(prof, {key: data.draw(st.integers(1, prof.p - 1))},
                    data.draw(law_floors(prof)))
    for a, b in ((f, g), (g, f)):
        if data.draw(st.booleans()):
            gauss_norm(a), gauss_norm(b)  # stored before the product
        floor = ref_product_floor(a.floor, b.floor, ref_gauss_norm(a), ref_gauss_norm(b))
        h = mul(a, b)
        assert h.floor == floor
        kept = {k: c for k, c in ref_mul(a.terms, b.terms, prof.p).items()
                if compare(value(prof, *k), floor) is not Ordering.LESS}
        assert list(h.terms.items()) == list(kept.items())
        assert gauss_norm(h) == ref_gauss_norm(h)


def test_a_one_term_product_runs_the_one_loop(prof1, monkeypatch):
    """Design guard: mul by a one-term factor, on either side, runs
    series._mul_into, the one multiply-accumulate loop, once per product,
    and gives the double loop's terms in order."""
    f = S(prof1, (1, 0, 0), (1, 2, 1), (1, Fraction(1, 2), Fraction(-1, 4)))
    g = S(prof1, (1, 3, Fraction(1, 8)))
    calls = []

    def recording(terms, f_items, g_terms, p):
        calls.append(len(g_terms))
        return loop(terms, f_items, g_terms, p)

    loop = series._mul_into
    monkeypatch.setattr(series, "_mul_into", recording)
    for a, b in ((f, g), (g, f)):
        assert list(mul(a, b).terms.items()) == list(ref_mul(a.terms, b.terms, prof1.p).items())
    assert calls == [1, 3]
