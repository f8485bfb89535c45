"""Golden schedules: a change that alters any byte of the schedule JSON of
the named constructions fails here, and so does a change to the scalars
that define a schedule, whatever the wire format.

The hashes are sha256 (sorted keys, compact separators) of
``io.schedule_to_json`` (GOLDEN) and of the defining scalars read off the
GleasonSchedule object (SCALARS): its profile, mode, depth, V, omega, h,
b, gamma and delta.  The schedules are build_gmultivar over the one
monomial x (gplus) and build_gminus (c = t**2) over one radius sqrt(2),
and build_gmultivar over the monomials (x, y) with radii sqrt(2),
sqrt(3), each at depth 12 and cap
p**32; and the schedule of standard_surjection over sqrt(2) at depth 30
and cap p**16, whose steps from 16 on have preimages past the cap but
are written all the same.
"""

import hashlib
import itertools
import json
from fractions import Fraction

import pytest

from ultrametrica import io as uio
from ultrametrica.errors import UltrametricaError
from ultrametrica.gleason import build_gminus, build_gmultivar, standard_surjection
from ultrametrica.series import monomial
from ultrametrica.valuegroup import FreeRadius, make_profile

DEPTH = 12

GOLDEN = {
    ("gplus", 2):
        "28a672c692cbf82dc37e6690676121383e8100f93e89942261fbaedc04d223a0",
    ("gplus", 3):
        "79d4abebb5c00f63fea20efad900379d5b37cfad6df832265f79214a6055cd84",
    ("gplus", 5):
        "11b9fabfa4c54846dc7f3019b6002397d59539e7e913e796334da4ca228f1263",
    ("gminus", 2):
        "1083272260b1e68d7f6819b3fe06b97330482400429abf764c984b7f0b568361",
    ("gminus", 3):
        "579eae494f24a975f3dcfca6330e40879f37f06887ddefbb889a6a2b7231826b",
    ("gmultivar", 2):
        "07bf48aa99a4289a2f68215c6b8d5b3409ce804ce353117a494fc52c281dd68a",
    ("gmultivar", 3):
        "855bacbd2189198a868bb82b4bcc71a3fe418372f806b12ecb98be8c7090a265",
    ("standard-cap16-depth30", 2):
        "3d71961f70db690122853a383848ea88a68ee7522bcd7ad388fcae9212d0128f",
}


SCALARS = {
    ("gplus", 2):
        "43883b4d4769c1f8554396785845977b4a4bac0f7295dc14a459e403f8abeb8e",
    ("gplus", 3):
        "cf72ec1137817515d638f79b13d8a9d65b1e69aaa2eb8d8d12c8b48811de5b06",
    ("gplus", 5):
        "7249a002ca493f7de747a2210586e191d7bee4c75eb88010ae63248041e01866",
    ("gminus", 2):
        "4bd7d3eae6cf530aa8e8828abb46dcfd6f798758409915756d8f9b535e849f2a",
    ("gminus", 3):
        "2a1fde12306689e897ac7ee44614cb9c4f9338f613e7fe8c4a32f3a29874b053",
    ("gmultivar", 2):
        "c2433069abdeb0aa87b09d4f2724e9e08a1610f8a2d7fc71aaa7fb8ce70fb62b",
    ("gmultivar", 3):
        "df5796966987f56b0125d23ab0a0d3c759774e722197b44ca8db8e63a4c8fc5a",
    ("standard-cap16-depth30", 2):
        "da68cb39d520eca3922a10409ba66e64c2a3db10fa447368cd61e82fcea1ecff",
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
        return build_gmultivar(prof, (monomial(prof, 1, 0, (1,)),), DEPTH)[0]
    return build_gminus(prof, monomial(prof.base(), 1, 2), DEPTH)[0]


def _sha256(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def schedule_hash(schedule) -> str:
    return _sha256(uio.schedule_to_json(schedule))


def scalars_hash(s) -> str:
    """The defining scalars, taken from the object, not from a document."""
    fracs = uio.frac_to_str
    return _sha256({
        "profile": uio.profile_to_json(s.profile),
        "mode": s.mode,
        "depth": s.depth,
        "V": [uio.series_to_json(v, include_profile=False) for v in s.V],
        "omega": [[fracs(x) for x in q] for q in s.omegas],
        "h": [[fracs(x) for x in h] for h in s.h_reps],
        "b": list(s.b),
        "gamma": [fracs(x) for x in s.gammas],
        "delta": [fracs(x) for x in s.deltas],
    })


@pytest.mark.parametrize("kind,p", sorted(GOLDEN), ids=lambda x: str(x))
def test_schedule_json_matches_the_recorded_hash(kind, p):
    assert schedule_hash(build(kind, p)) == GOLDEN[kind, p]


@pytest.mark.parametrize("kind,p", sorted(SCALARS), ids=lambda x: str(x))
def test_defining_scalars_match_the_recorded_hash(kind, p):
    assert scalars_hash(build(kind, p)) == SCALARS[kind, p]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("kind", ["gplus", "gminus", "gmultivar"])
def test_written_d_is_the_reference_d(kind, p):
    """The document carries d only through its scalars: the schedule read
    back from it gives d(m, i) = t**(delta_m + beta_i) with beta_i =
    gamma_i * p**b_i in alpha mode and gamma_i in direct mode."""
    s = build(kind, p)
    assert s.mode == ("direct" if kind == "gminus" else "alpha")
    back = uio.schedule_from_json(json.loads(json.dumps(uio.schedule_to_json(s))))
    base = s.profile.base()
    for m in range(1, s.depth + 1):
        for i in range(1, m):
            beta = s.gammas[i - 1] * (p ** s.b[i - 1] if s.mode == "alpha" else 1)
            assert back.d(m, i) == monomial(base, 1, s.deltas[m - 1] + beta)


# The sweep: one hash over many builds, so a rewrite of the builder is held
# to every schedule (or refusal) it made before.  Standard surjections run
# over p in {2, 3, 5} with the first 1-3 of the radii sqrt(2), sqrt(3),
# sqrt(5), every cap in SWEEP_CAPS and depth in SWEEP_DEPTHS; depth 5 takes
# every sigma_s in SWEEP_SIGMAS and the deeper builds one each, in turn by
# cap, which keeps the sweep near a second.  G+ (build_gmultivar over x) and
# G- (build_gminus, c = t**2) over sqrt(2) run over the same p, caps and
# depths.  Each build contributes one line: its key and the sha256 of its
# schedule JSON, or its key and its error's type and message.

SWEEP_CAPS = (2, 4, 16, 32, 110)
SWEEP_DEPTHS = (5, 30, 81)
SWEEP_SIGMAS = (Fraction(1), Fraction(7, 2), None)  # None: default_sigma_s

SWEEP_SHA256 = "f48aeff929dbef381488afca5661d18124dad8ff5c96f7af45551b001e317d14"


def sweep_builds():
    """(kind, p, n, cap, depth, sigma_s) for every build of the sweep."""
    for p, n, cap, depth in itertools.product((2, 3, 5), (1, 2, 3), SWEEP_CAPS, SWEEP_DEPTHS):
        for i, sigma in enumerate(SWEEP_SIGMAS):
            if depth == 5 or i == SWEEP_CAPS.index(cap) % 3:
                yield "standard", p, n, cap, depth, sigma
    for kind, p, cap, depth in itertools.product(("G+", "G-"), (2, 3, 5), SWEEP_CAPS,
                                                 SWEEP_DEPTHS):
        yield kind, p, 1, cap, depth, None


def sweep_line(kind, p, n, cap, depth, sigma) -> str:
    key = f"{kind} p={p} n={n} cap={cap} depth={depth} sigma_s={sigma}"
    prof = make_profile(p, [FreeRadius(d) for d in (2, 3, 5)[:n]], sigma_s=sigma,
                        max_denom_log=cap)
    try:
        if kind == "standard":
            schedule = standard_surjection(prof, depth).schedule
        elif kind == "G+":
            schedule = build_gmultivar(prof, (monomial(prof, 1, 0, (1,)),), depth)[0]
        else:
            schedule = build_gminus(prof, monomial(prof.base(), 1, 2), depth)[0]
        return f"{key}: {schedule_hash(schedule)}"
    except UltrametricaError as exc:
        return f"{key}: {type(exc).__name__}: {exc}"


def test_the_sweep_matches_the_recorded_hash():
    lines = "\n".join(sweep_line(*build) for build in sweep_builds())
    assert hashlib.sha256(lines.encode()).hexdigest() == SWEEP_SHA256
