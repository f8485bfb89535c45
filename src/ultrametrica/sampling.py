"""Deterministic random element generators for verification suites.

Shared by the CLI verifier and the benchmark; every draw is a pure
function of the supplied random.Random instance, so reports are
reproducible from (config, seed).
"""

from __future__ import annotations

import random
from fractions import Fraction

from .series import SeriesElement, make_series
from .valuegroup import RadiusProfile

# Each element has between 2 and 8 terms (fewer when draws collide).
N_TERMS = (2, 8)


def random_series(profile: RadiusProfile, rng: random.Random, *,
                  x_pool, max_t_weight) -> SeriesElement:
    """Exact sparse random element with x-exponents drawn from x_pool and
    t-exponents u/p**k in [0, max_t_weight], k <= 2."""
    terms = {}
    want = rng.randint(*N_TERMS)
    for _ in range(want):
        q = rng.choice(x_pool)
        k = rng.randint(0, 2)
        t = Fraction(rng.randint(0, max_t_weight * profile.p**k), profile.p**k)
        c = rng.randint(1, profile.p - 1)
        terms[(t, tuple(q))] = c
    return make_series(profile, terms)
