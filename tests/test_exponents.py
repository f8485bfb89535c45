"""Exponents as integers over the profile denominator D = p**max_denom_log:
results at the largest p and cap, and an op path that builds no Fraction."""

import random
from fractions import Fraction

import pytest

from conftest import ref_mul
from ultrametrica import cli, gleason, sampling, valuegroup
from ultrametrica.errors import DenominatorCapError
from ultrametrica.series import frobenius, make_series, mul, pth_root, root_pk
from ultrametrica.tatealg import evaluate, make_tate
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
