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
from .gleason import MAX_STEPS, reconstruct_preimage, rescale_into_window, standard_surjection
from .sampling import random_series
from .series import gauss_norm, invert, sub
from .tatealg import evaluate
from .valuegroup import (
    RadiusProfile,
    numerator,
    t_power,
    value_le,
    weight_decimal,
    weight_of,
)

ENV_CONFIG = "ULTRAMETRICA_CONFIG"

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2

# Run-size caps, checked where the values enter (Config, which the CLI
# overrides go through); each bounds one axis of the work.  Timings are
# from a 2-core x86-64 machine, Python 3.11.  The largest depth in use is
# 81 (the n=2 benchmark); gleason build --depth 1000 from a config of
# sqrt(2) (and sqrt(3)) at cap 64 takes under 1 s and peaks below 30 MB.  The
# schedule document holds only the defining scalars, one entry per step in
# each list: 0.76 MB (n = 1) and 1.0 MB (n = 2) at depth 1000, most of it
# the digits of the integer delta_m, which grow with the heights b_m.
MAX_DEPTH = 1000
# A surject-verify trial on either benchmark configuration takes 6-9 ms,
# so 10**4 trials stay within a few minutes; the largest count in use is 50.
MAX_TRIALS = 10_000
# Division steps M are capped at gleason.MAX_STEPS.
# A config holds the profile's keys and these run keys, each with the reader
# of its value (in reading order).  Any other key is an input error, so a
# misspelt run key cannot leave its value at the default.
RUN_READERS = {"c_exponent": lambda x, key: uio.frac_from_str(x),
               **dict.fromkeys(("depth", "seed", "trials", "steps"), uio.int_from_json),
               "floor_exponent": lambda x, key: uio.frac_from_str(x)}


def _check_range(name: str, value: int, lo: int, hi: int):
    if not lo <= value <= hi:
        raise InputValidationError(f"{name} must lie in [{lo}, {hi}], got {value}")


@dataclass
class Config:
    """Run configuration of surject-verify and gleason build (JSON file or
    ULTRAMETRICA_CONFIG)."""

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
        if self.c_exponent is not None:
            numerator(self.profile, self.c_exponent, "c_exponent")  # under parse_guard: exit 2
        if self.floor_exponent < 0:
            raise InputValidationError(
                f"floor_exponent must be >= 0, got {self.floor_exponent}")
        _check_range("steps", self.division_steps(), 1, MAX_STEPS)

    @classmethod
    @uio.parse_guard
    def from_json(cls, data: dict) -> "Config":
        keys = (*uio.PROFILE_KEYS, *RUN_READERS)
        unknown = sorted(data.keys() - set(keys))
        if unknown:
            raise InputValidationError(f"unknown config key {', '.join(map(repr, unknown))};"
                                       f" a config holds only {', '.join(keys)}")
        profile = uio.profile_from_json({key: data[key] for key in uio.PROFILE_KEYS
                                         if key in data})
        return cls(profile=profile, **{key: read(data[key], key)
                                       for key, read in RUN_READERS.items()
                                       if data.get(key) is not None})

    def division_steps(self) -> int:
        if self.steps is not None:
            return self.steps
        # Smallest M with |pi|**M * s strictly below the floor.
        return max(1, math.floor(self.floor_exponent - self.profile.sigma_s) + 1)


def _load_config(args) -> Config:
    """The config from --config or else ULTRAMETRICA_CONFIG, with whichever
    of --trials, --depth and --seed the command has and was given."""
    path = args.config if args.config is not None else os.environ.get(ENV_CONFIG)
    if not path:
        raise InputValidationError(f"no config given (use --config or {ENV_CONFIG})")
    overrides = {key: value for key in ("trials", "depth", "seed")
                 if (value := getattr(args, key, None)) is not None}
    return replace(Config.from_json(uio.load_json(path)), **overrides)  # range checks


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
    if args.out:
        _check_out_dir(args.out)
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
    floor_value = t_power(profile, config.floor_exponent)
    max_t_weight = math.ceil(config.floor_exponent)
    bounds = [spec.step(m)[0] for m in range(steps)]
    eval_floor = bounds[-1]
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
            record["beta_terms"] = len(beta._terms)
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
    config = _load_config(args)
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
    config = _load_config(args)
    spec = standard_surjection(config.profile, config.depth, c_exponent=config.c_exponent)
    payload = uio.surjection_to_json(spec)
    if args.out:
        uio.dump_json(payload, args.out)
    else:
        print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: one line and exit 2, from main."""

    def error(self, message):
        raise InputValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_build.add_argument("--config", help=f"config JSON (default ${ENV_CONFIG})")
    p_build.add_argument("--depth", type=int, default=None)
    p_build.add_argument("--out", help="write the surjection spec JSON here")
    p_build.set_defaults(func=cmd_gleason_build)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InputValidationError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except UltrametricaError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
