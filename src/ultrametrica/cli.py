"""Batch front-end: element I/O, norms, classification, schedules,
surjection verification, and report emission.

Exit codes: 0 success, 1 verification failure, 2 input error.  JSON in,
JSON/TSV out; no interactive mode.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction

from . import io as uio
from .abhyankar import check_main_theorem_bound, d_K, factor_temkin, is_abhyankar
from .berkovich import classify
from .errors import UltrametricaError, InputValidationError
from .gleason import reconstruct_preimage, rescale_into_window, standard_surjection
from .sampling import random_series
from .series import gauss_norm, invert, sub
from .tatealg import evaluate
from .valuegroup import (
    FreeRadius,
    RadiusProfile,
    ceil_weight,
    make_profile,
    pi_value,
    s_value,
    t_power,
    value_le,
    value_mul,
    value_pow,
    weight_decimal,
    weight_of,
)

ENV_CONFIG = "ULTRAMETRICA_CONFIG"

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2

# Run-size caps, checked where the values enter (Config, which the CLI
# overrides go through, and the gleason build flags); each bounds one
# axis of the work.  Timings are from a 2-core x86-64 machine, Python 3.11.
# The largest depth in use is 81 (the n=2 benchmark); gleason build
# --depth 1000 takes about 25 s for n = 1 and 2, and its cost grows about
# quadratically with the depth.
MAX_DEPTH = 1000
# A surject-verify trial on either benchmark configuration takes 6-9 ms,
# so 10**4 trials stay within a few minutes; the largest count in use is 50.
MAX_TRIALS = 10_000
# Division steps M, given or derived from floor_exponent; the largest in
# use is 8.  One trial with M = 10**5 took 14 s, nearly all of it on steps
# past the floor that have nothing left to clear.
MAX_STEPS = 1000
# gleason build --n takes the radii sqrt(d) for the first n of these.
BUILD_RADII = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def _check_range(name: str, value: int, lo: int, hi: int):
    if not lo <= value <= hi:
        raise InputValidationError(f"{name} must lie in [{lo}, {hi}], got {value}")


@dataclass
class Config:
    """Verification-run configuration (JSON file or ULTRAMETRICA_CONFIG)."""

    profile: RadiusProfile
    c_exponent: Fraction = None
    depth: int = 12
    floor_exponent: Fraction = Fraction(12)
    seed: int = 0
    trials: int = 20
    steps: int = None  # division depth M; default derived from the floor

    def __post_init__(self):
        _check_range("depth", self.depth, 1, MAX_DEPTH)
        _check_range("trials", self.trials, 1, MAX_TRIALS)
        _check_range("steps", self.division_steps(), 1, MAX_STEPS)

    @classmethod
    @uio.parse_guard
    def from_json(cls, data: dict) -> "Config":
        profile = uio.profile_from_json(data)
        kwargs = {}
        if data.get("c_exponent") is not None:
            kwargs["c_exponent"] = uio.frac_from_str(data["c_exponent"])
        for key in ("depth", "seed", "trials", "steps"):
            if data.get(key) is not None:
                kwargs[key] = int(data[key])
        if data.get("floor_exponent") is not None:
            kwargs["floor_exponent"] = uio.frac_from_str(data["floor_exponent"])
        return cls(profile=profile, **kwargs)

    def division_steps(self) -> int:
        if self.steps is not None:
            return self.steps
        # Smallest M with |pi|**M * s strictly below the floor.
        return max(1, math.floor(self.floor_exponent - self.profile.sigma_s) + 1)


def _load_config(path: str) -> Config:
    if path is None:
        path = os.environ.get(ENV_CONFIG)
    if not path:
        raise InputValidationError(
            f"no config given (use --config or {ENV_CONFIG})"
        )
    return Config.from_json(uio.load_json(path))


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def cmd_norm(args) -> int:
    f = uio.series_from_json(uio.load_json(args.element))
    n = gauss_norm(f)
    out = {"below_floor": True, "floor": uio.value_to_json(f.floor)} if n is None \
        else uio.value_to_json(n)
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def cmd_invert(args) -> int:
    f = uio.series_from_json(uio.load_json(args.element))
    floor = t_power(f.profile, uio.frac_from_str(args.floor))
    g = invert(f, floor)
    payload = uio.series_to_json(g)
    if args.out:
        uio.dump_json(payload, args.out)
    else:
        print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_classify(args) -> int:
    pt = uio.point_from_json(uio.load_json(args.point))
    print(classify(pt).label)
    return EXIT_OK


def cmd_abhyankar(args) -> int:
    tower = uio.tower_from_json(uio.load_json(args.tower))
    fac = factor_temkin(tower)
    out = {
        "m": tower.m,
        "d_K": d_K(tower),
        "is_abhyankar": is_abhyankar(tower),
        "B": list(fac.B),
        "polyradius": [uio.value_to_json(r) for r in fac.polyradius],
        "kernel_height": fac.kernel_height,
    }
    if args.n_vars is not None:
        out["main_theorem_bound_ok"] = check_main_theorem_bound(args.n_vars, fac.l)
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def _residual_weight_str(v) -> str:
    if v is None:
        return "inf"
    return weight_decimal(weight_of(v), 12)


def _beta_digest(beta) -> str:
    blob = json.dumps(uio.series_to_json(beta, include_profile=False),
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def run_surjection_trials(config: Config, trials: int, depth: int, seed: int):
    """Build the standard surjection and run reconstruction trials.

    Returns (report dict, tsv rows).  Per-trial oracle failures are
    recorded, not fatal.
    """
    config = replace(config, trials=trials, depth=depth, seed=seed)  # range checks
    profile = config.profile
    t_start = time.monotonic()
    spec = standard_surjection(profile, depth, c_exponent=config.c_exponent)
    steps = config.division_steps()
    s = s_value(profile)
    pi = pi_value(profile)
    floor_value = t_power(profile, config.floor_exponent)
    max_t_weight = int(ceil_weight(weight_of(floor_value)))
    bounds = [value_mul(value_pow(pi, m + 1), s) for m in range(steps)]
    eval_floor = value_mul(value_pow(pi, steps), s)
    pool = list(spec.schedule.omegas)
    rng = random.Random(seed)
    cases = []
    tsv_rows = []
    for trial in range(trials):
        record = {"trial": trial, "ok": False}
        try:
            beta = random_series(profile, rng, x_pool=pool, max_t_weight=max_t_weight)
            beta, shift = rescale_into_window(beta)
            record["rescaled_by"] = shift
            record["beta_digest"] = _beta_digest(beta)
            record["beta_terms"] = len(beta.terms)
            result = reconstruct_preimage(spec, beta, steps)
            ok = True
            prev = None
            for res_norm, bound in zip(result.residuals, bounds):
                if res_norm is None:
                    continue
                if not value_le(res_norm, bound):
                    ok = False
                if prev is not None and not value_le(res_norm, prev):
                    ok = False
                prev = res_norm
            weights = [_residual_weight_str(r) for r in result.residuals]
            tsv_rows += [(trial, m, w) for m, w in enumerate(weights, 1)]
            record["residual_weights"] = weights
            ev = evaluate(result.preimage, spec.hom, eval_floor)
            diff = sub(ev, beta)
            nd = gauss_norm(diff)
            agreement = nd is None or not value_le(floor_value, nd)
            record["agrees_above_floor"] = agreement
            record["ok"] = ok and agreement
        except UltrametricaError as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
        cases.append(record)
    report = {
        "profile": uio.profile_to_json(profile),
        "depth": depth,
        "steps": steps,
        "seed": seed,
        "trials": trials,
        "passes": sum(1 for c in cases if c["ok"]),
        "failures": sum(1 for c in cases if not c["ok"]),
        "cases": cases,
        "wall_clock_s": round(time.monotonic() - t_start, 3),
    }
    return report, tsv_rows


def _check_out_dir(path: str):
    """Reject an output path whose directory is missing, before any work."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise InputValidationError(f"{path}: output directory {folder!r} does not exist")


def cmd_surject_verify(args) -> int:
    if args.out:
        _check_out_dir(args.out)
    overrides = {key: value for key in ("trials", "depth", "seed")
                 if (value := getattr(args, key)) is not None}
    config = replace(_load_config(args.config), **overrides)
    report, tsv_rows = run_surjection_trials(config, config.trials, config.depth,
                                             config.seed)
    tsv_lines = ["trial\tstep\tresidual_weight"]
    tsv_lines += [f"{t}\t{s}\t{w}" for t, s, w in tsv_rows]
    if args.out:
        uio.dump_json(report, args.out + ".report.json")
        uio.write_text("\n".join(tsv_lines) + "\n", args.out + ".residuals.tsv")
    else:
        print(json.dumps(report, sort_keys=True))
        print("\n".join(tsv_lines))
    return EXIT_OK if report["failures"] == 0 else EXIT_VERIFICATION


def cmd_gleason_build(args) -> int:
    if args.out:
        _check_out_dir(args.out)
    _check_range("depth", args.depth, 1, MAX_DEPTH)
    if args.config:
        config = _load_config(args.config)
        profile = config.profile
        c_exponent = config.c_exponent
    else:
        _check_range("n", args.n, 1, len(BUILD_RADII))
        radii = [FreeRadius(d) for d in BUILD_RADII[:args.n]]
        profile = make_profile(args.p, radii, max_denom_log=args.max_denom_log)
        c_exponent = None
    spec = standard_surjection(profile, args.depth, c_exponent=c_exponent)
    payload = uio.surjection_to_json(spec)
    if args.out:
        uio.dump_json(payload, args.out)
    else:
        print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultrametrica",
        description="Exact norms, Berkovich classification, and verified "
                    "perfectoid surjections at desk scale.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_norm = subs.add_parser("norm", help="Gauss norm of a series element")
    p_norm.add_argument("element", help="element JSON file")
    p_norm.set_defaults(func=cmd_norm)

    p_inv = subs.add_parser("invert", help="invert a unit to a target floor")
    p_inv.add_argument("element", help="element JSON file")
    p_inv.add_argument("--floor", required=True,
                       help="target floor t-exponent (rational)")
    p_inv.add_argument("--out", help="write the inverse to this JSON file")
    p_inv.set_defaults(func=cmd_invert)

    p_cls = subs.add_parser("classify", help="classify a disk point or prefix")
    p_cls.add_argument("point", help="point JSON file")
    p_cls.set_defaults(func=cmd_classify)

    p_abh = subs.add_parser("abhyankar", help="tower invariants and factorization")
    p_abh.add_argument("tower", help="tower JSON file")
    p_abh.add_argument("--n-vars", type=int, default=None,
                       help="check the radius-count bound against this variable count")
    p_abh.set_defaults(func=cmd_abhyankar)

    p_ver = subs.add_parser("surject-verify",
                            help="randomized preimage reconstruction trials")
    p_ver.add_argument("--config", help=f"config JSON (default ${ENV_CONFIG})")
    p_ver.add_argument("--trials", type=int, default=None)
    p_ver.add_argument("--depth", type=int, default=None)
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--out", help="output prefix for .report.json/.residuals.tsv")
    p_ver.set_defaults(func=cmd_surject_verify)

    p_gle = subs.add_parser("gleason", help="schedule construction")
    gle_subs = p_gle.add_subparsers(dest="gleason_command", required=True)
    p_build = gle_subs.add_parser("build", help="build a standard surjection")
    p_build.add_argument("--n", type=int, default=1, help="number of radii")
    p_build.add_argument("--depth", type=int, required=True)
    p_build.add_argument("--p", type=int, default=2)
    p_build.add_argument("--max-denom-log", type=int, default=64)
    p_build.add_argument("--config", help="optional config JSON for the profile")
    p_build.add_argument("--out", help="write the surjection spec JSON here")
    p_build.set_defaults(func=cmd_gleason_build)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputValidationError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except UltrametricaError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
