"""JSON serialization for all wire formats.

Fractions render as "num/den" strings (p-power denominators where the
format requires them); exponent vectors as string lists.  Exponents
stored as integer numerators over a denominator render the same way,
and their keys sort as their Fractions do.  Parsing validates against
the profile invariants and raises InputValidationError with the
offending path.
"""

from __future__ import annotations

import functools
import json
import sys
from fractions import Fraction
from math import gcd, log10

from .abhyankar import GaussCoordinate, TowerPoint, TypeIVCoordinate
from .berkovich import DiskPoint, NestedPrefix
from .errors import DenominatorCapError, InputValidationError
from .gleason import GleasonSchedule, SurjectionSpec
from .series import SeriesElement, make_series
from .tatealg import HomSpec
from .valuegroup import (
    DEFAULT_DENOM_LOG,
    FreeRadius,
    RadiusProfile,
    RationalRadius,
    Value,
    make_profile,
    numerator,
    value,
    zero_value,
)


def frac_to_str(x: Fraction) -> str:
    x = Fraction(x)
    return ratio_to_str(x.numerator, x.denominator)


def ratio_to_str(num: int, den: int) -> str:
    """num / den (den > 0) in lowest terms, as "num/den", or "num" for an
    integer; a rational past the digit limit is refused."""
    g = gcd(num, den)
    num, den = num // g, den // g
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:  # past the digit limit of int -> str
        raise _digit_limit_error(num, den) from None


# The strings ratio_to_str writes for exponent numerators over their
# denominator, keyed by (num, den), for up to _EXPONENT_TEXT_CAP pairs: a
# surject-verify trial writes each beta it divides, whose exponents repeat
# (101 distinct of 8 070 in a seed-1 surject-n1 benchmark pass).
_EXPONENT_TEXT = {}
_EXPONENT_TEXT_CAP = 4096


def _exponent_str(num: int, den: int) -> str:
    """ratio_to_str(num, den), kept in _EXPONENT_TEXT while it has room; a
    refusal past the digit limit raises and keeps nothing."""
    key = (num, den)
    text = _EXPONENT_TEXT.get(key)
    if text is None:
        text = ratio_to_str(num, den)
        if len(_EXPONENT_TEXT) < _EXPONENT_TEXT_CAP:
            _EXPONENT_TEXT[key] = text
    return text


def _digit_limit_error(num: int, den: int) -> InputValidationError:
    """The refusal of a rational num / den whose numerator or denominator
    has more digits than Python converts to a string
    (sys.get_int_max_str_digits(), 4300 by default), naming the count."""
    n = max(abs(num), den)
    digits = max(1, int(n.bit_length() * log10(2)))  # at most n's digit count
    while 10**digits <= n:
        digits += 1
    return InputValidationError(
        f"cannot write a rational whose numerator or denominator has {digits} digits,"
        f" past the {sys.get_int_max_str_digits()}-digit limit of integer string conversion")


def frac_from_str(s) -> Fraction:
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputValidationError(f"bad rational {s!r}: {exc}")


def int_from_json(x, what: str) -> int:
    """A JSON integer: int() would truncate 2.9 and accept true or "3",
    and bool is an int subclass."""
    if type(x) is not int:
        raise InputValidationError(f"{what} must be a JSON integer, got {json.dumps(x)}")
    return x


def parse_guard(fn):
    """Report malformed JSON structure (a missing key, a list where an
    object belongs, a non-numeric string) as InputValidationError, and an
    exponent past the cap as InputValidationError with its message."""

    @functools.wraps(fn)
    def wrapper(data, *args, **kwargs):
        try:
            return fn(data, *args, **kwargs)
        except DenominatorCapError as exc:
            raise InputValidationError(str(exc)) from exc
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            raise InputValidationError(
                f"{fn.__name__}: malformed input ({type(exc).__name__}: {exc})"
            ) from exc

    return wrapper


# -- profiles ---------------------------------------------------------------


def profile_to_json(profile: RadiusProfile) -> dict:
    radii = []
    for r in profile.radii:
        if isinstance(r, FreeRadius):
            radii.append({"sqrt": r.d})
        else:
            radii.append({"exp": frac_to_str(r.exponent)})
    return {
        "p": profile.p,
        "radii": radii,
        "sigma_s": frac_to_str(profile.sigma_s),
        "max_denom_log": profile.max_denom_log,
    }


# The keys of a profile object; any other key is an input error, so a
# misspelt key cannot leave its value at the default.
PROFILE_KEYS = ("p", "radii", "sigma_s", "max_denom_log")


@parse_guard
def profile_from_json(data: dict) -> RadiusProfile:
    unknown = sorted(data.keys() - set(PROFILE_KEYS))
    if unknown:
        raise InputValidationError(f"unknown profile key {', '.join(map(repr, unknown))};"
                                   f" a profile holds only {', '.join(PROFILE_KEYS)}")
    radii = []
    for spec in data.get("radii", []):
        if "sqrt" in spec:
            radii.append(FreeRadius(int_from_json(spec["sqrt"], "sqrt")))
        elif "exp" in spec:
            radii.append(RationalRadius(frac_from_str(spec["exp"])))
        else:
            raise InputValidationError(f"radius spec needs 'sqrt' or 'exp': {spec}")
    return make_profile(
        int_from_json(data["p"], "p"),
        radii,
        sigma_s=frac_from_str(data["sigma_s"]) if "sigma_s" in data else None,
        max_denom_log=int_from_json(data.get("max_denom_log", DEFAULT_DENOM_LOG),
                                    "max_denom_log"),
    )


_ZERO = {"zero": True}


# -- values -----------------------------------------------------------------


def value_to_json(v: Value) -> dict:
    if v.zero:
        return {"zero": True}
    return {"a": _exponent_str(v.an, v.den), "q": [_exponent_str(x, v.den) for x in v.qn]}


@parse_guard
def value_from_json(data: dict, profile: RadiusProfile) -> Value:
    if data.get("zero"):
        return zero_value(profile)
    q = [frac_from_str(x) for x in data.get("q", [])]
    if len(q) != profile.n:
        raise InputValidationError(
            f"value has {len(q)} radius exponents, profile has {profile.n}"
        )
    return value(profile, frac_from_str(data["a"]), q)


# -- series elements --------------------------------------------------------


def series_to_json(f: SeriesElement, include_profile: bool = True) -> dict:
    D = f.profile.den
    out = {
        "floor": value_to_json(f.floor),
        "terms": [
            {"t": _exponent_str(t, D), "x": [_exponent_str(e, D) for e in xs], "c": c}
            for (t, xs), c in sorted(f._terms.items())
        ],
    }
    if include_profile:
        out["profile"] = profile_to_json(f.profile)
    return out


@parse_guard
def series_from_json(data: dict, profile: RadiusProfile = None) -> SeriesElement:
    if profile is None:
        if "profile" not in data:
            raise InputValidationError("series JSON needs an embedded profile")
        profile = profile_from_json(data["profile"])
    if "terms" not in data:
        raise InputValidationError("series JSON needs a 'terms' list")
    terms = {}
    for item in data["terms"]:
        key = (frac_from_str(item["t"]), tuple(frac_from_str(e) for e in item.get("x", [])))
        terms[key] = terms.get(key, 0) + int_from_json(item["c"], "c")
    return make_series(profile, terms, value_from_json(data.get("floor", _ZERO), profile))


def hom_to_json(hom: HomSpec) -> list:
    return [series_to_json(g, include_profile=False) for g in hom.images]


# -- Berkovich points -------------------------------------------------------


@parse_guard
def point_from_json(data: dict):
    """A disk, or a nested prefix whose "disks" entries are read as disks."""
    if "disks" in data:
        return NestedPrefix(tuple(_disk_from_json(d) for d in data["disks"]))
    return _disk_from_json(data)


def _disk_from_json(data: dict) -> DiskPoint:
    center = series_from_json(data["center"])
    rprof = (
        profile_from_json(data["radius_profile"])
        if "radius_profile" in data
        else center.profile
    )
    radius = value_from_json(data["radius"], rprof)
    return DiskPoint(center, radius)


# -- towers -----------------------------------------------------------------


@parse_guard
def tower_from_json(data: list) -> TowerPoint:
    coords = []
    for spec in data:
        if "gauss" in spec:
            prof = profile_from_json(spec["radius_profile"])
            coords.append(GaussCoordinate(value_from_json(spec["gauss"], prof)))
        elif "type_iv" in spec:
            coords.append(TypeIVCoordinate(point_from_json(spec["type_iv"])))
        else:
            raise InputValidationError(f"coordinate needs 'gauss' or 'type_iv': {spec}")
    return TowerPoint(tuple(coords))


# -- Gleason schedules ------------------------------------------------------


SCHEDULE_VERSION = 2


def schedule_to_json(s: GleasonSchedule) -> dict:
    """The scalars that define s; W_m, e_m, eps_m, beta_m and d_{m,i} are
    derived from them.  An omega, h, gamma or delta past the cap raises
    DenominatorCapError."""
    def exponent(x):
        numerator(s.profile, x)
        return ratio_to_str(x.numerator, x.denominator)

    return {
        "version": SCHEDULE_VERSION,
        "profile": profile_to_json(s.profile),
        "mode": s.mode,
        "depth": s.depth,
        "V": [series_to_json(v, include_profile=False) for v in s.V],
        "omega": [list(map(exponent, q)) for q in s.omegas],
        "h": [list(map(exponent, h)) for h in s.h_reps],
        "b": list(s.b),
        "gamma": list(map(exponent, s.gammas)),
        "delta": list(map(exponent, s.deltas)),
    }


@parse_guard
def schedule_from_json(data: dict) -> GleasonSchedule:
    """The schedule whose scalars schedule_to_json wrote.  Only version 2
    reads; an exponent past the cap is an input error (see parse_guard)."""
    version = data.get("version")
    if type(version) is not int or version != SCHEDULE_VERSION:
        raise InputValidationError(
            f"schedule JSON version {json.dumps(version)} is not {SCHEDULE_VERSION}:"
            f" rebuild the schedule with `ultrametrica gleason build`"
        )
    profile = profile_from_json(data["profile"])

    def exponent(text):
        x = frac_from_str(text)
        numerator(profile, x)
        return x

    depth = int_from_json(data["depth"], "depth")
    if data["mode"] not in ("alpha", "direct"):
        raise InputValidationError(f"schedule mode {data['mode']!r}")
    if {len(data[key]) for key in ("omega", "h", "b", "gamma", "delta")} != {depth}:
        raise InputValidationError(f"schedule step lists do not all have depth {depth}")
    V = tuple(series_from_json(v, profile) for v in data["V"])
    omegas = tuple(tuple(map(exponent, q)) for q in data["omega"])
    h_reps = tuple(tuple(map(exponent, h)) for h in data["h"])
    if any(len(q) != profile.n for q in omegas) or any(len(h) != len(V) for h in h_reps):
        raise InputValidationError(
            f"each schedule omega needs {profile.n} entries and each h {len(V)}"
        )
    return GleasonSchedule(
        profile=profile,
        mode=data["mode"],
        depth=depth,
        V=V,
        omegas=omegas,
        h_reps=h_reps,
        gammas=tuple(map(exponent, data["gamma"])),
        deltas=tuple(map(exponent, data["delta"])),
        b=tuple(int_from_json(b, "b") for b in data["b"]),
    )


def surjection_to_json(spec: SurjectionSpec) -> dict:
    return {
        "n": spec.n,
        "profile": profile_to_json(spec.profile),
        "c": series_to_json(spec.c, include_profile=False),
        "images": hom_to_json(spec.hom),
        "schedule": schedule_to_json(spec.schedule),
    }


def _json_int(text: str) -> int:
    """A JSON integer literal as an int; one past the digit limit of
    str -> int raises ValueError naming its digit count, the limit and the
    environment variable that sets it (Python's own text names a function)."""
    try:
        return int(text)
    except ValueError:  # a JSON integer literal is well formed: the limit
        raise ValueError(
            f"an integer literal has {len(text.lstrip('-'))} digits, past the"
            f" {sys.get_int_max_str_digits()}-digit limit of integer string conversion;"
            f" the environment variable PYTHONINTMAXSTRDIGITS sets the limit") from None


def load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh, parse_int=_json_int)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: malformed JSON, or an integer literal past the digit
        # limit (see _json_int); RecursionError: nested too deeply
        raise InputValidationError(f"{path}: {exc}")


def write_text(text: str, path: str):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputValidationError(f"{path}: {exc}")


def dump_json(obj, path: str):
    write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", path)
