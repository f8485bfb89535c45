"""The three benchmark workloads: input generation, set-up and the op.

Every workload is a closed loop with one caller.  Inputs are drawn from
``random.Random(seed)`` before anything is timed; ``setup`` is the work a
user waits for before the first op can run; ``op`` is one unit of user
work and returns ``(ok, output)``, where ``output`` is a JSON-ready,
deterministic record of what the op produced.

Library functions are always reached through their module
(``series.invert``, not a name imported here), so the tracer's wrappers
see every call the benchmark makes.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

from ultrametrica import cli, gleason, sampling, series, tatealg, valuegroup
from ultrametrica import io as uio
from ultrametrica.errors import UltrametricaError


def _sha256(blob: str) -> str:
    return hashlib.sha256(blob.encode()).hexdigest()


class InvertWorkload:
    """Criterion 3's unit generator: p = 2, sqrt(2), cap 2**32, target |t|**20.

    One op inverts a unit and checks the residual |f*g - 1| against the
    target, with a floor fine enough to certify that check.
    """

    name = "invert"

    def __init__(self, n_inputs=500):
        self.n_inputs = n_inputs
        self.profile = valuegroup.make_profile(
            2, [valuegroup.FreeRadius(2)], max_denom_log=32)
        self.target = valuegroup.t_power(self.profile, 20)

    def generate(self, seed: int, count: int):
        """Term dictionaries, drawn exactly as criterion 3 draws its units."""
        rng = random.Random(seed)
        units = []
        for _ in range(count):
            # an anchor of weight <= 3.5 keeps the residual floor certifiable
            terms = {
                (Fraction(rng.randint(0, 2)), (Fraction(rng.choice([0, 1, 2]), 2),)): 1
            }
            for _ in range(rng.randint(1, 5)):
                t = Fraction(rng.randint(0, 10), rng.choice([1, 1, 2]))
                q = Fraction(rng.randint(-3, 6), rng.choice([1, 1, 2]))
                terms[(t, (q,))] = 1
            units.append(terms)
        return units

    def setup(self, inputs):
        return [series.make_series(self.profile, terms) for terms in inputs]

    def spec_json(self, state) -> str:
        return json.dumps([uio.series_to_json(f, include_profile=False)
                           for f in state], sort_keys=True)

    def items(self, state):
        return state

    def op(self, state, index, f):
        target = self.target
        try:
            g = series.invert(f, target)
            r = series.sub(series.mul(f, g), series.one(self.profile))
            nr = series.gauss_norm(r)
        except UltrametricaError as exc:
            return False, {"unit": index, "error": f"{type(exc).__name__}: {exc}"}
        below = nr is None or valuegroup.value_lt(nr, target)
        certified = not valuegroup.value_lt(target, r.floor)
        return below and certified, (g, nr)

    def output_json(self, output):
        if isinstance(output, dict):
            return output
        g, nr = output
        return {"inverse": uio.series_to_json(g, include_profile=False),
                "residual": None if nr is None else uio.value_to_json(nr)}


class SurjectWorkload:
    """One ``surject-verify`` configuration: set-up builds the standard
    surjection and its ``gleason build`` JSON; one op is one trial."""

    def __init__(self, name, radii, max_denom_log, depth, n_inputs,
                 floor_exponent=12):
        self.name = name
        self.n_inputs = n_inputs
        profile = valuegroup.make_profile(
            2, [valuegroup.FreeRadius(d) for d in radii],
            max_denom_log=max_denom_log)
        self.config = cli.Config(profile=profile, depth=depth,
                                 floor_exponent=Fraction(floor_exponent))
        self.profile = profile
        self.depth = depth
        self.steps = self.config.division_steps()
        self.s = valuegroup.s_value(profile)
        self.pi = valuegroup.pi_value(profile)
        self.floor_value = valuegroup.t_power(profile, self.config.floor_exponent)
        self.eval_floor = valuegroup.value_mul(
            valuegroup.value_pow(self.pi, self.steps), self.s)
        self.bounds = [valuegroup.value_mul(valuegroup.value_pow(self.pi, m + 1),
                                            self.s)
                       for m in range(self.steps)]

    def generate(self, seed: int, count: int):
        """Targets beta, drawn as ``cli.run_surjection_trials`` draws them."""
        profile = self.profile
        well = gleason.WellOrder(profile.n, profile.p,
                                 gleason.MinZeroRep(profile.n))
        pool = [well.omega(m) for m in range(1, self.depth + 1)]
        max_t = int(valuegroup.ceil_weight(valuegroup.weight_of(self.floor_value)))
        rng = random.Random(seed)
        return [sampling.random_series(profile, rng, x_pool=pool, max_t_weight=max_t)
                for _ in range(count)]

    def setup(self, inputs):
        spec = gleason.standard_surjection(self.profile, self.depth,
                                           c_exponent=self.config.c_exponent)
        blob = json.dumps(uio.surjection_to_json(spec), sort_keys=True)
        return spec, blob, inputs

    def spec_json(self, state) -> str:
        return state[1]

    def items(self, state):
        return state[2]

    def _residual_weight(self, v) -> str:
        if v is None:
            return "inf"
        return valuegroup.weight_decimal(valuegroup.weight_of(v), 12)

    def op(self, state, trial, beta):
        """One reconstruction trial; the record matches the CLI report's."""
        spec = state[0]
        record = {"trial": trial, "ok": False}
        try:
            beta, shift = gleason.rescale_into_window(beta)
            record["rescaled_by"] = shift
            blob = json.dumps(uio.series_to_json(beta, include_profile=False),
                              sort_keys=True)
            record["beta_digest"] = _sha256(blob)[:12]
            record["beta_terms"] = len(beta.terms)
            result = gleason.reconstruct_preimage(spec, beta, self.steps)
            ok = True
            prev = None
            for m, res_norm in enumerate(result.residuals):
                if res_norm is None:
                    continue
                if not valuegroup.value_le(res_norm, self.bounds[m]):
                    ok = False
                if prev is not None and not valuegroup.value_le(res_norm, prev):
                    ok = False
                prev = res_norm
            record["residual_weights"] = [
                self._residual_weight(r) for r in result.residuals
            ]
            ev = tatealg.evaluate(result.preimage, spec.hom, self.eval_floor)
            nd = series.gauss_norm(series.sub(ev, beta))
            agreement = nd is None or not valuegroup.value_le(self.floor_value, nd)
            record["agrees_above_floor"] = agreement
            record["ok"] = ok and agreement
        except UltrametricaError as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
        return record["ok"], record

    def output_json(self, output):
        return output


def make_workload(name: str, n_inputs: int = None):
    """The named workload; ``n_inputs`` overrides its ops per pass."""
    if name == "invert":
        return InvertWorkload(n_inputs or 500)
    if name == "surject-n1":
        w = SurjectWorkload(name, [2], 32, 21, n_inputs or 800)
    elif name == "surject-n2":
        w = SurjectWorkload(name, [2, 3], 110, 81, n_inputs or 600)
    else:
        raise KeyError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    expected_steps = {"surject-n1": 8, "surject-n2": 4}[name]
    if w.steps != expected_steps:
        raise ValueError(f"{name}: derived M={w.steps}, expected {expected_steps}")
    return w


NAMES = ("invert", "surject-n1", "surject-n2")
