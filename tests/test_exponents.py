"""Exponents as integers over the profile denominator D = p**max_denom_log:
results at the largest p and cap, an op path that builds no Fraction, and
the errors of every entry point that admits an exponent."""

import functools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import ref_mul
from ultrametrica import cli, gleason, sampling, valuegroup
from ultrametrica import io as uio
from ultrametrica.errors import DenominatorCapError, InputValidationError
from ultrametrica.series import (
    add,
    frobenius,
    make_series,
    monomial,
    mul,
    one,
    pth_root,
    root_pk,
    series_frac_pow,
)
from ultrametrica.tatealg import evaluate, make_tate, tate_monomial
from ultrametrica.valuegroup import (
    MAX_DENOM_LOG,
    MAX_PRIME,
    FreeRadius,
    Ordering,
    _is_prime,
    compare,
    make_profile,
    value,
)


@pytest.fixture(scope="module")
def extreme():
    """The largest prime below MAX_PRIME, one free radius, cap MAX_DENOM_LOG:
    D has about 20 000 bits."""
    p = MAX_PRIME - 1
    while not _is_prime(p):
        p -= 1
    return make_profile(p, [FreeRadius(2)], max_denom_log=MAX_DENOM_LOG)


def test_extreme_profile_results(extreme):
    prof, p = extreme, extreme.p
    assert prof.den.bit_length() > 19_000
    last = Fraction(1, p**MAX_DENOM_LOG)
    f = make_series(prof, {(last, (Fraction(3, p),)): 2, (Fraction(5), (-last,)): p - 1,
                           (Fraction(7, p**200), (Fraction(0),)): 1})
    g = make_series(prof, {(Fraction(1, p), (last * p,)): 3, (Fraction(0), (Fraction(1),)): 1})
    assert pth_root(frobenius(f)) == f
    assert frobenius(pth_root(g)) == g
    assert dict(mul(f, g).terms) == ref_mul(f.terms, g.terms, p)
    # two exponents that differ only in their last p-adic digit
    a = Fraction(p**MAX_DENOM_LOG - 2, p**MAX_DENOM_LOG)
    assert compare(value(prof, a, (1,)), value(prof, a + last, (1,))) is Ordering.GREATER
    assert compare(value(prof, 1, (a,)), value(prof, 1, (a + last,))) is Ordering.GREATER
    assert compare(value(prof, a + last, (a,)), value(prof, a + last, (a,))) is Ordering.EQUAL


def test_extreme_cap_is_exact(extreme):
    prof, p = extreme, extreme.p
    base = prof.base()
    at_cap, beyond = Fraction(1, p**MAX_DENOM_LOG), Fraction(1, p**(MAX_DENOM_LOG + 1))
    make_series(prof, {(at_cap, (at_cap,)): 1})
    make_tate(1, base, {(at_cap,): make_series(base, {(at_cap, ()): 1})})
    root_pk(make_series(prof, {(Fraction(1, p**(MAX_DENOM_LOG - 1)), (0,)): 1}), 1)
    with pytest.raises(DenominatorCapError):
        make_series(prof, {(beyond, (0,)): 1})
    with pytest.raises(DenominatorCapError):
        make_series(prof, {(0, (beyond,)): 1})
    with pytest.raises(DenominatorCapError):
        make_tate(1, base, {(beyond,): make_series(base, {(0, ()): 1})})
    with pytest.raises(DenominatorCapError):
        root_pk(make_series(prof, {(at_cap, (0,)): 1}), 1)


def test_op_path_builds_no_fraction(monkeypatch):
    """A warmed reconstruct_preimage plus evaluate on the surject-n1
    configuration (p = 2, sqrt(2), cap 32, depth 21, floor exponent 12)
    creates no Fraction: every exponent on the op path is an int."""
    profile = make_profile(2, [FreeRadius(2)], max_denom_log=32)
    config = cli.Config(profile=profile, depth=21, floor_exponent=Fraction(12))
    spec = gleason.standard_surjection(profile, 21)
    steps = config.division_steps()
    eval_floor = valuegroup.value_mul(
        valuegroup.value_pow(valuegroup.pi_value(profile), steps), valuegroup.s_value(profile))
    rng = random.Random(1)
    betas = [gleason.rescale_into_window(
        sampling.random_series(profile, rng, x_pool=list(spec.schedule.omegas),
                               max_t_weight=12))[0] for _ in range(40)]

    def run():
        for beta in betas:
            result = gleason.reconstruct_preimage(spec, beta, steps)
            evaluate(result.preimage, spec.hom, eval_floor)

    run()  # warm: oracle answers and image powers are stored
    created = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        created.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    if hasattr(Fraction, "_from_coprime_ints"):
        coprime = Fraction._from_coprime_ints

        def counting_coprime(cls, *args):
            created.append(args)
            return coprime(*args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
    run()
    assert created == []


# The admission table: every entry point that takes an exponent into a
# profile, with the error and the exact message it gives.  P2 is p = 2,
# sqrt(2), cap 32.
P2 = make_profile(2, [FreeRadius(2)], max_denom_log=32)
BASE = P2.base()
X = monomial(P2, 1, 0, (1,))
PAST, THIRD = Fraction(1, 2**40), Fraction(1, 3)
NOT_P = "1/3 does not have a p-power denominator (p=2)"


@functools.cache
def _spec():
    return gleason.standard_surjection(P2, 4)


def _schedule_read(e):
    data = uio.schedule_to_json(_spec().schedule)
    data["delta"][0] = uio.frac_to_str(e)
    return uio.schedule_from_json(data)


def _schedule_write(e):
    schedule = _spec().schedule
    return uio.schedule_to_json(replace(schedule, deltas=(e,) + schedule.deltas[1:]))


# entry point -> (admit the rational exponent e, the name its message gives
# e, the type of its error past the cap).  A reader of input reports an
# exponent past the cap as an input error, with the cap's message.
RATIONAL_ADMISSIONS = {
    "make_series t": (lambda e: make_series(P2, {(e, (0,)): 1}), "exponent",
                      DenominatorCapError),
    "make_series x": (lambda e: make_series(P2, {(0, (e,)): 1}), "exponent",
                      DenominatorCapError),
    "monomial": (lambda e: monomial(P2, 1, e), "exponent", DenominatorCapError),
    "make_tate": (lambda e: make_tate(1, BASE, {(e,): one(BASE)}), "Tate exponent",
                  DenominatorCapError),
    "tate_monomial": (lambda e: tate_monomial(1, one(BASE), (e,)), "Tate exponent",
                      DenominatorCapError),
    "series_frac_pow monomial": (lambda e: series_frac_pow(X, e), "exponent",
                                 DenominatorCapError),
    "series_frac_pow two terms": (lambda e: series_frac_pow(add(one(P2), X), e),
                                  "exponent", DenominatorCapError),
    "schedule_to_json": (_schedule_write, "exponent", DenominatorCapError),
    "schedule_from_json": (_schedule_read, "exponent", InputValidationError),
    "SurjectionSpec.__call__": (lambda e: _spec()((e,)), "exponent", DenominatorCapError),
}


@pytest.mark.parametrize("name", RATIONAL_ADMISSIONS)
def test_rational_exponent_refusals(name):
    """One exponent past the cap and one whose denominator is no power of p."""
    admit, what, error = RATIONAL_ADMISSIONS[name]
    with pytest.raises(error) as past:
        admit(PAST)
    assert past.type is error
    assert str(past.value) == f"{what} with denominator p**40 exceeds the cap p**32"
    with pytest.raises(InputValidationError) as not_p:
        admit(THIRD)
    assert not_p.type is InputValidationError
    assert str(not_p.value) == NOT_P


# Admissions of exponents derived from admitted ones: a root divides them
# by a power of p, so their denominators are powers of p and only the cap
# can refuse them.  The last
# rows pin the order of the checks.
DERIVED_ADMISSIONS = {
    "root_pk": (lambda: root_pk(X, 40), DenominatorCapError,
                "exponent with denominator p**40 exceeds the cap p**32"),
    "make_tate cap before a later sign":
        (lambda: make_tate(2, BASE, {(PAST, Fraction(-1)): one(BASE)}),
         DenominatorCapError, "Tate exponent with denominator p**40 exceeds the cap p**32"),
    "make_tate sign before a later cap":
        (lambda: make_tate(2, BASE, {(Fraction(-1), PAST): one(BASE)}),
         InputValidationError, "Tate exponents must be >= 0"),
}


@pytest.mark.parametrize("name", DERIVED_ADMISSIONS)
def test_derived_exponent_refusals(name):
    admit, error, message = DERIVED_ADMISSIONS[name]
    with pytest.raises(error) as refused:
        admit()
    assert refused.type is error
    assert str(refused.value) == message
