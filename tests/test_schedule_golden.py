"""Golden schedules: a change that alters any byte of the schedule JSON of
the named constructions fails here.

The hashes are sha256 of ``io.schedule_to_json`` (sorted keys, compact
separators) for build_gplus and build_gminus (c = t**2) over one radius
sqrt(2), and build_gmultivar over the monomials (x, y) with radii
sqrt(2), sqrt(3), each at depth 12 and cap p**32; and the schedule of
standard_surjection over sqrt(2) at depth 30 and cap p**16, whose steps
from 16 on have preimages past the cap but are written all the same.
"""

import hashlib
import json

import pytest

from ultrametrica import io as uio
from ultrametrica.gleason import (
    build_gminus, build_gmultivar, build_gplus, standard_surjection,
)
from ultrametrica.series import monomial
from ultrametrica.valuegroup import FreeRadius, make_profile

DEPTH = 12

GOLDEN = {
    ("gplus", 2):
        "e348371c2d1e8cf5807b91730f9ae5c58ed4d5114fa0b9f5caa30dcff6343889",
    ("gplus", 3):
        "f8b77e50f03f4434b13be39781f2eb072903917a31f8be1a1f2945e97a69c306",
    ("gplus", 5):
        "af22e3f96c2329667d47e5f478cb60dede622932ce53f48119580d1d12525a09",
    ("gminus", 2):
        "56d644deb92decf102c55d07cc9abe8a49dafad3ff40478dfa36903dfae31925",
    ("gminus", 3):
        "3507d325791bdec48b859c9d67bbb714231a937f26a2e407251bc8e9553ce220",
    ("gmultivar", 2):
        "d752d0f55a26e865b9fcd03766541a3b5a45d00e95cece32ccb9fa4db2b09a98",
    ("gmultivar", 3):
        "3db97ef86482e6b8455446cdaf9cb1b8de84ab4aa0aae3f2793d0a68fac541ab",
    ("standard-cap16-depth30", 2):
        "c07038c07ac485a5b214b91be785699dab607952d72ea037ca8ab833e17de9db",
}


def build(kind, p):
    if kind == "standard-cap16-depth30":
        prof = make_profile(p, [FreeRadius(2)], max_denom_log=16)
        return standard_surjection(prof, 30).schedule
    if kind == "gmultivar":
        prof = make_profile(p, [FreeRadius(2), FreeRadius(3)], max_denom_log=32)
        V = (monomial(prof, 1, 0, (1, 0)), monomial(prof, 1, 0, (0, 1)))
        return build_gmultivar(prof, V, DEPTH)[0]
    prof = make_profile(p, [FreeRadius(2)], max_denom_log=32)
    if kind == "gplus":
        return build_gplus(prof, DEPTH)[0]
    return build_gminus(prof, monomial(prof.base(), 1, 2), DEPTH)[0]


def schedule_hash(schedule) -> str:
    blob = json.dumps(uio.schedule_to_json(schedule), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("kind,p", sorted(GOLDEN), ids=lambda x: str(x))
def test_schedule_json_matches_the_recorded_hash(kind, p):
    assert schedule_hash(build(kind, p)) == GOLDEN[kind, p]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("kind", ["gplus", "gminus", "gmultivar"])
def test_written_d_is_the_reference_d(kind, p):
    """Every written d[m-1][i-1] is GleasonSchedule.d(m, i) as series JSON,
    in alpha mode (beta_i = e_i**(p**b_i)) and direct mode (beta_i = e_i)."""
    s = build(kind, p)
    assert s.mode == ("direct" if kind == "gminus" else "alpha")
    d = uio.schedule_to_json(s)["d"]
    assert [len(row) for row in d] == list(range(s.depth))
    for m in range(1, s.depth + 1):
        for i in range(1, m):
            assert d[m - 1][i - 1] == uio.series_to_json(s.d(m, i), include_profile=False)
