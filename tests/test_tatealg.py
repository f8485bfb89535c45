import random
from fractions import Fraction

import pytest

from ultrametrica.errors import InputValidationError
from ultrametrica.io import hom_from_json, hom_to_json
from ultrametrica.series import (
    frobenius,
    gauss_norm,
    make_series,
    monomial,
    mul,
    one,
    series_zero,
    sub,
)
from ultrametrica.tatealg import (
    HomSpec,
    evaluate,
    make_tate,
    t_frobenius,
    t_gauss_norm,
    t_mul,
    t_pth_root,
    tate_variable,
)
from ultrametrica.valuegroup import (
    t_power,
    value,
    value_le,
    value_lift,
)


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


class TestArithmetic:
    def test_variable_has_unit_norm(self, prof1):
        T1 = tate_variable(1, prof1.base(), 0)
        assert t_gauss_norm(T1) == value(prof1.base(), 0, ())

    def test_pth_root_of_variable(self, prof1):
        T1 = tate_variable(1, prof1.base(), 0)
        assert list(t_pth_root(T1).terms) == [(Fraction(1, 2),)]

    def test_sup_norm(self, prof1):
        base = prof1.base()
        f = make_tate(2, base, {
            (Fraction(1), Fraction(0)): monomial(base, 1, 1),   # t * T1
            (Fraction(0), Fraction(1)): one(base),               # T2
        })
        assert t_gauss_norm(f) == value(base, 0, ())

    def test_frobenius_root_roundtrip(self, prof1):
        rng = random.Random(5)
        base = prof1.base()
        for _ in range(50):
            f = rand_tate(base, 2, rng)
            assert t_pth_root(t_frobenius(f)) == f

    def test_negative_exponent_rejected(self, prof1):
        with pytest.raises(InputValidationError):
            make_tate(1, prof1.base(), {(Fraction(-1),): one(prof1.base())})


class TestHomSpec:
    def test_unbounded_image_rejected(self, prof1):
        bad = monomial(prof1, 1, -1)  # |t**-1| > 1
        with pytest.raises(InputValidationError):
            HomSpec((bad,))

    def test_bounded_images_accepted(self, prof1):
        HomSpec((x_var(prof1), monomial(prof1, 1, 2, (-1,))))

    def test_image_norms_are_derived_and_invisible(self, prof1):
        images = (x_var(prof1), series_zero(prof1, t_power(prof1, 3)),
                  monomial(prof1, 1, 2, (-1,)))
        hom = HomSpec(images)
        assert hom.image_norms == (gauss_norm(images[0]), None, gauss_norm(images[2]))
        assert "image_norms" not in repr(hom)
        back = hom_from_json(hom_to_json(hom), prof1)
        assert back == hom
        assert back.image_norms == hom.image_norms


class TestEvaluate:
    def test_identity_substitution(self, prof1):
        T1 = tate_variable(1, prof1.base(), 0)
        hom = HomSpec((x_var(prof1),))
        got = evaluate(T1, hom, t_power(prof1, 30))
        assert got == x_var(prof1)

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
        # T_2 maps to 0 known only up to |t|**3 (norm None), so its terms
        # are computed, not bounded; T_3**(1/4) with coefficient t**20 is
        # skipped.  The expected value was computed by hand.
        base = prof1.base()
        g1 = make_series(prof1, {(Fraction(0), (Fraction(1),)): 1,
                                 (Fraction(1), (Fraction(0),)): 1})
        g2 = series_zero(prof1, t_power(prof1, 3))
        g3 = make_series(prof1, {(Fraction(1, 2), (Fraction(1, 2),)): 1},
                         t_power(prof1, 9))
        hom = HomSpec((g1, g2, g3))
        f = make_tate(3, base, {
            (0, 0, 0): one(base),
            (Fraction(3, 2), 0, 0): monomial(base, 1, 1),
            (0, 1, 0): monomial(base, 1, 2),
            (1, Fraction(1, 2), 2): monomial(base, 1, Fraction(1, 2)),
            (0, 0, Fraction(1, 4)): monomial(base, 1, 20),
        })
        # t * (x + t)**(3/2) = t x^(3/2) + t^(3/2) x + t^2 x^(1/2) + t^(5/2);
        # t**2 * g2 leaves the floor |t|**5.
        expected = make_series(prof1, {
            (Fraction(0), (Fraction(0),)): 1,
            (Fraction(1), (Fraction(3, 2),)): 1,
            (Fraction(3, 2), (Fraction(1),)): 1,
            (Fraction(2), (Fraction(1, 2),)): 1,
            (Fraction(5, 2), (Fraction(0),)): 1,
        }, t_power(prof1, 5))
        for target in (6, 10):
            assert evaluate(f, hom, t_power(prof1, target)) == expected

    def test_ring_homomorphism_up_to_floors(self, prof1):
        rng = random.Random(13)
        base = prof1.base()
        hom = HomSpec((x_var(prof1), monomial(prof1, 1, 2, (-1,))))
        floor = t_power(prof1, 30)
        for _ in range(200):
            f, g = rand_tate(base, 2, rng), rand_tate(base, 2, rng)
            lhs = evaluate(t_mul(f, g), hom, floor)
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
            lhs = evaluate(t_frobenius(f), hom, floor)
            rhs = frobenius(evaluate(f, hom, floor))
            assert lhs.terms == rhs.terms

    def test_norm_bounds_evaluation(self, prof1):
        rng = random.Random(37)
        base = prof1.base()
        hom = HomSpec((x_var(prof1), monomial(prof1, 1, 2, (-1,))))
        floor = t_power(prof1, 30)
        for _ in range(100):
            f = rand_tate(base, 2, rng)
            nf = t_gauss_norm(f)
            nev = gauss_norm(evaluate(f, hom, floor))
            if nev is not None:
                assert value_le(nev, value_lift(nf, prof1))
