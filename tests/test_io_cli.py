import functools
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction

import pytest

import ultrametrica
from conftest import count_calls, only_x
from ultrametrica import io as uio
from ultrametrica.berkovich import NestedPrefix
from ultrametrica import cli
from ultrametrica.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VERIFICATION,
    MAX_DEPTH,
    MAX_STEPS,
    MAX_TRIALS,
    Config,
    main,
)
from ultrametrica.errors import InputValidationError, InvariantViolationError
from ultrametrica.gleason import build_gmultivar, standard_surjection, verify_schedule
from ultrametrica.series import gauss_norm, make_series, monomial, mul, one, series_zero, sub
from ultrametrica.tatealg import TateElement
from ultrametrica.valuegroup import (
    MAX_DENOM_LOG,
    MAX_SQUAREFREE,
    FreeRadius,
    RationalRadius,
    make_profile,
    t_power,
    value,
    value_le,
    value_lift,
    value_lt,
    value_mul,
    zero_value,
)


# The zero series over the base field of p = 2, as a disk center; disks
# centred on it with t-power radii, and with the radius |x| under sqrt(2).
ZERO_CENTER = {"profile": {"p": 2, "radii": []}, "terms": []}
PREFIX_DISKS = [{"center": ZERO_CENTER, "radius": {"a": str(k), "q": []}} for k in (1, 2)]
X_RADIUS_DISK = {"center": ZERO_CENTER, "radius": {"a": "0", "q": ["1"]},
                 "radius_profile": {"p": 2, "radii": [{"sqrt": 2}]}}


def cap64_config(n: int) -> str:
    """A config of p = 2 and the first n of sqrt(2), sqrt(3), at cap 64."""
    return json.dumps({"p": 2, "radii": [{"sqrt": d} for d in (2, 3)[:n]],
                       "max_denom_log": 64})


@pytest.fixture
def sample_series(prof1):
    return make_series(
        prof1,
        {
            (Fraction(1), (Fraction(1, 2),)): 1,
            (Fraction(0), (Fraction(2),)): 1,
        },
        t_power(prof1, 12),
    )


class TestSerialization:
    def test_profile_roundtrip(self, prof2):
        data = uio.profile_to_json(prof2)
        assert uio.profile_from_json(data) == prof2

    def test_value_roundtrip(self, prof1):
        v = value(prof1, Fraction(3, 4), (Fraction(-5, 2),))
        assert uio.value_from_json(uio.value_to_json(v), prof1) == v
        z = zero_value(prof1)
        assert uio.value_from_json(uio.value_to_json(z), prof1) == z

    def test_series_roundtrip(self, sample_series):
        data = uio.series_to_json(sample_series)
        assert uio.series_from_json(data) == sample_series

    def test_point_reads_a_disk_and_a_prefix(self, prof1):
        base = make_profile(2, [])
        pt = uio.point_from_json(X_RADIUS_DISK)
        assert pt.radius == value(prof1, 0, (1,)) and pt.center == series_zero(base)
        prefix = uio.point_from_json({"disks": PREFIX_DISKS})
        assert isinstance(prefix, NestedPrefix)
        assert [(d.center, d.radius) for d in prefix.disks] == \
            [(series_zero(base), t_power(base, k)) for k in (1, 2)]

    def test_schedule_roundtrip(self, prof1_cap24):
        sched, _ = build_gmultivar(prof1_cap24, only_x(prof1_cap24), 4)
        back = uio.schedule_from_json(uio.schedule_to_json(sched))
        assert back == sched
        text = json.dumps(uio.schedule_to_json(sched), sort_keys=True)
        assert uio.schedule_from_json(json.loads(text)) == sched

    def test_schedule_without_version_2_rejected(self, prof1_cap24):
        """A version-1 document (it carried W, e, eps, d and conditions and
        no version) is refused with one message that says to rebuild it."""
        data = uio.schedule_to_json(build_gmultivar(prof1_cap24, only_x(prof1_cap24), 4)[0])
        for version in (None, 1, 2.0, "2"):
            edited = dict(data, version=version)
            if version is None:
                del edited["version"]
            with pytest.raises(InputValidationError,
                               match="is not 2: rebuild the schedule with"
                                     " `ultrametrica gleason build`"):
                uio.schedule_from_json(edited)

    @pytest.mark.parametrize("key", ["delta", "gamma", "omega", "h"])
    def test_schedule_exponent_past_the_cap_raises_cap_error(self, key):
        """The reader reports the cap's error as an input error."""
        prof = make_profile(2, [FreeRadius(2)], max_denom_log=32)
        data = uio.schedule_to_json(build_gmultivar(prof, only_x(prof), 4)[0])
        past = str(Fraction(1, 2**40))
        data[key][1] = [past] * len(data[key][1]) if key in ("omega", "h") else past
        with pytest.raises(InputValidationError,
                           match=r"^exponent with denominator p\*\*40 exceeds the cap p\*\*32$"):
            uio.schedule_from_json(data)

    @pytest.mark.parametrize("key", ["omega", "h"])
    def test_schedule_step_vector_of_wrong_arity_rejected(self, prof1_cap24, key):
        """omega has one entry per radius, h one per monomial in V."""
        data = uio.schedule_to_json(build_gmultivar(prof1_cap24, only_x(prof1_cap24), 4)[0])
        for bad in (data[key][2] + ["0"], data[key][2][:-1]):
            edited = dict(data, **{key: data[key][:2] + [bad] + data[key][3:]})
            with pytest.raises(InputValidationError, match="each schedule omega needs"):
                uio.schedule_from_json(edited)

    @pytest.mark.parametrize("key", ["gamma", "b"])
    def test_schedule_edited_scalar_loads_and_fails_verification(self, key):
        """The reader checks types, lengths and the cap, not the Gleason
        windows: an edited gamma or b loads, and verify_schedule against
        the spec's G refuses it."""
        prof = make_profile(2, [FreeRadius(2)], max_denom_log=32)
        spec = standard_surjection(prof, 4)
        data = uio.schedule_to_json(spec.schedule)
        data[key][1] = data[key][1] + 1 if key == "b" else str(Fraction(data[key][1]) + 1)
        edited = uio.schedule_from_json(data)
        assert edited != spec.schedule
        with pytest.raises(InvariantViolationError, match="schedule step 1"):
            verify_schedule(edited, spec.G)

    # The benchmark's two specs, as perfbench's set-up writes them.
    @pytest.mark.parametrize("radii,cap,depth,digest", [
        pytest.param((2,), 32, 21,
                     "08f615df06966a15ef8b7961841e930b534ad748dc6ad08072b147f0bf601c00",
                     id="n1"),
        pytest.param((2, 3), 110, 81,
                     "0448ba32279bb4534f943dbdbddc9b14b37a5b58ff3b34d927063b625f27e6da",
                     id="n2"),
    ])
    def test_surjection_spec_golden(self, radii, cap, depth, digest):
        prof = make_profile(2, [FreeRadius(d) for d in radii], max_denom_log=cap)
        payload = uio.surjection_to_json(standard_surjection(prof, depth))
        blob = json.dumps(payload, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == digest

    def test_json_integers_required(self, prof1_cap24):
        """A schedule's depth and b are JSON integers."""
        schedule = uio.schedule_to_json(build_gmultivar(prof1_cap24, only_x(prof1_cap24), 4)[0])
        assert uio.schedule_from_json(schedule) is not None
        edits = [("depth", "4"), ("depth", 4.0)]
        edits += [("b", schedule["b"][:-1] + [float(schedule["b"][-1])])]
        for key, bad in edits:
            with pytest.raises(InputValidationError, match="JSON integer"):
                uio.schedule_from_json(dict(schedule, **{key: bad}))

    def test_bad_rational_rejected(self):
        with pytest.raises(InputValidationError):
            uio.frac_from_str("3/0")


class TestExponentText:
    """series_to_json and value_to_json read each exponent's string over
    its denominator from io._EXPONENT_TEXT, for up to _EXPONENT_TEXT_CAP
    pairs."""

    def test_a_serialized_element_writes_no_exponent_again(self, sample_series, monkeypatch):
        """Design guard: its terms and its floor read kept strings."""
        monkeypatch.setattr(uio, "_EXPONENT_TEXT", {})
        first = uio.series_to_json(sample_series, include_profile=False)
        calls = count_calls(monkeypatch, uio, "ratio_to_str")
        assert uio.series_to_json(sample_series, include_profile=False) == first
        assert calls == []

    def test_the_memo_tells_caps_apart(self, monkeypatch):
        """t**(1/2**16) at cap 16 and t**(1/2**24) at cap 24 share the
        numerator 1 over their profiles' denominators."""
        monkeypatch.setattr(uio, "_EXPONENT_TEXT", {})
        texts = []
        for cap in (16, 24):
            prof = make_profile(2, [FreeRadius(2)], max_denom_log=cap)
            f = monomial(prof, 1, Fraction(1, 2**cap))
            assert next(iter(f._terms))[0] == 1
            texts.append(uio.series_to_json(f, include_profile=False)["terms"][0]["t"])
        assert texts == ["1/65536", "1/16777216"]

    def test_a_full_memo_computes_and_keeps_nothing(self, sample_series, monkeypatch):
        full = {("kept", i): None for i in range(4)}
        monkeypatch.setattr(uio, "_EXPONENT_TEXT", full)
        monkeypatch.setattr(uio, "_EXPONENT_TEXT_CAP", 4)
        calls = count_calls(monkeypatch, uio, "ratio_to_str")
        want = uio.series_to_json(sample_series, include_profile=False)
        assert len(calls) == 6  # t and x of two terms, a and q of the floor
        assert uio.series_to_json(sample_series, include_profile=False) == want
        assert len(calls) == 12 and len(full) == 4

    def test_a_refusal_past_the_digit_limit_is_not_kept(self, monkeypatch):
        monkeypatch.setattr(uio, "_EXPONENT_TEXT", {})
        big = 10**5000
        for _ in range(2):
            with pytest.raises(InputValidationError, match="has 5001 digits, past the"):
                uio.value_to_json(value(make_profile(2, []), Fraction(1, big)))
        assert uio._EXPONENT_TEXT == {}


class TestCli:
    def test_norm_command(self, tmp_path, sample_series, capsys):
        path = tmp_path / "f.json"
        uio.dump_json(uio.series_to_json(sample_series), str(path))
        assert main(["norm", str(path)]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        # weights: t*x**(1/2) at 1.707 beats x**2 at 2.828
        assert out == {"a": "1", "q": ["1/2"]}

    def test_norm_of_one(self, tmp_path, prof1, capsys):
        path = tmp_path / "one.json"
        uio.dump_json(uio.series_to_json(one(prof1)), str(path))
        main(["norm", str(path)])
        assert json.loads(capsys.readouterr().out) == {"a": "0", "q": ["0"]}

    def test_rational_radius_norms_are_written_folded(self, tmp_path, capsys):
        # r = |t|**(1/3), p = 2: x has norm r = |t|**(1/3), written with q = 0
        prof = make_profile(2, [RationalRadius(Fraction(1, 3))])
        x = make_series(prof, {(Fraction(0), (Fraction(1),)): 1}, t_power(prof, 5))
        path = tmp_path / "x.json"
        uio.dump_json(uio.series_to_json(x), str(path))
        assert main(["norm", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == '{"a": "1/3", "q": ["0"]}\n'
        # floor max(|t|**4 / r, |t|**5 / r**2) = |t|**(11/3)
        assert main(["invert", str(path), "--floor", "4"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["floor"] == {"a": "11/3", "q": ["0"]}
        # the unfolded form still reads, into the same Value
        assert uio.value_from_json({"a": "0", "q": ["1"]}, prof) == value(prof, Fraction(1, 3), (0,))
        assert uio.value_from_json({"a": "0", "q": ["1"]}, prof) == gauss_norm(x)

    def test_classify_command(self, tmp_path, capsys):
        path = tmp_path / "pt.json"
        uio.dump_json(X_RADIUS_DISK, str(path))
        assert main(["classify", str(path)]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "III"

    def test_invert_roundtrip_via_files(self, tmp_path, prof1, capsys):
        f = make_series(prof1, {
            (Fraction(0), (Fraction(0),)): 1,
            (Fraction(1), (Fraction(1),)): 1,
        })
        fp = tmp_path / "f.json"
        gp = tmp_path / "g.json"
        uio.dump_json(uio.series_to_json(f), str(fp))
        assert main(["invert", str(fp), "--floor", "20", "--out", str(gp)]) == EXIT_OK
        g = uio.series_from_json(uio.load_json(str(gp)))
        r = sub(mul(f, g), one(prof1))
        nr = gauss_norm(r)
        assert nr is None or value_lt(nr, t_power(prof1, 20))

    def test_abhyankar_command(self, tmp_path, prof1, capsys):
        base = prof1.base()
        tower = [
            {"gauss": {"a": "1", "q": []},
             "radius_profile": uio.profile_to_json(base)},
            {"type_iv": {"disks": PREFIX_DISKS}},
        ]
        path = tmp_path / "tower.json"
        uio.dump_json(tower, str(path))
        assert main(["abhyankar", str(path), "--n-vars", "4"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["d_K"] == 1
        assert out["is_abhyankar"] is False
        assert out["B"] == [1]
        assert out["main_theorem_bound_ok"] is True

    def test_abhyankar_prints_only_decided_keys(self, tmp_path, prof1, capsys):
        tower = [{"gauss": {"a": "1", "q": []},
                  "radius_profile": uio.profile_to_json(prof1.base())}]
        path = tmp_path / "tower.json"
        uio.dump_json(tower, str(path))
        assert main(["abhyankar", str(path), "--n-vars", "4"]) == EXIT_OK
        assert set(json.loads(capsys.readouterr().out)) == {
            "m", "d_K", "is_abhyankar", "B", "polyradius", "main_theorem_bound_ok"}

    def test_missing_file_is_input_error(self, capsys):
        assert main(["norm", "/nonexistent/f.json"]) == EXIT_INPUT

    def test_invert_below_floor_is_verification_error(self, tmp_path, prof1, capsys):
        from ultrametrica.series import series_zero, with_floor

        f = with_floor(series_zero(prof1), t_power(prof1, 4))
        path = tmp_path / "f.json"
        uio.dump_json(uio.series_to_json(f), str(path))
        assert main(["invert", str(path), "--floor", "20"]) == EXIT_VERIFICATION

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"p": 2}')  # no radii: n = 0 profile is invalid here
        code = main(["surject-verify", "--config", str(cfg), "--trials", "1"])
        assert code == EXIT_INPUT

    def test_env_config_fallback(self, tmp_path, monkeypatch, capsys):
        cfg = {
            "p": 2,
            "radii": [{"sqrt": 2}],
            "max_denom_log": 32,
            "depth": 6,
            "floor_exponent": "10",
            "trials": 2,
            "seed": 1,
        }
        path = tmp_path / "cfg.json"
        uio.dump_json(cfg, str(path))
        monkeypatch.setenv("ULTRAMETRICA_CONFIG", str(path))
        code = main(["surject-verify", "--trials", "2"])
        captured = capsys.readouterr().out
        assert code == EXIT_OK
        report = json.loads(captured.splitlines()[0])
        assert report["failures"] == 0

    def test_a_changed_preimage_coefficient_fails_the_trial(self, tmp_path, monkeypatch,
                                                           capsys):
        """The final evaluate checks the element reconstruct_preimage
        returns: with the coefficient c of the term whose bound |c| * |image|
        is largest replaced by c * t**-1, every trial records
        agrees_above_floor false, and surject-verify exits 1."""
        cfg = {"p": 2, "radii": [{"sqrt": 2}], "max_denom_log": 32, "depth": 6,
               "floor_exponent": "10", "trials": 3, "seed": 1}
        path = tmp_path / "cfg.json"
        uio.dump_json(cfg, str(path))
        real = cli.reconstruct_preimage
        changed = []

        def reconstruct_then_change(spec, beta, steps):
            result = real(spec, beta, steps)
            f, profile = result.preimage, spec.profile
            bounds = {e: value_mul(value_lift(gauss_norm(c), profile),
                                   gauss_norm(spec.hom._monomial(e)))
                      for e, c in f._terms.items()}
            e = functools.reduce(lambda e, k: k if value_lt(bounds[e], bounds[k]) else e, bounds)
            # the change (t**-1 - 1) c * image has norm |t|**-1 |c| |image|,
            # not below the floor |t|**10
            assert value_le(t_power(profile, 11), bounds[e])
            terms = dict(f._terms)
            terms[e] = mul(terms[e], monomial(f.base, 1, -1))
            changed.append(e)
            return replace(result, preimage=TateElement(f.m, f.base, terms))

        monkeypatch.setattr(cli, "reconstruct_preimage", reconstruct_then_change)
        assert main(["surject-verify", "--config", str(path)]) == EXIT_VERIFICATION
        report = json.loads(capsys.readouterr().out.splitlines()[0])
        assert len(changed) == report["failures"] == 3
        assert [c["agrees_above_floor"] for c in report["cases"]] == [False] * 3

    @pytest.mark.parametrize("change, code", [
        ("none", EXIT_OK),
        ("first above its bound", EXIT_VERIFICATION),
        ("last rises under its bound", EXIT_VERIFICATION),
    ])
    def test_the_trial_checks_each_residual(self, tmp_path, monkeypatch, capsys,
                                            change, code):
        """Each step's residual norm is replaced by that step's bound, which
        passes; then one more change.  A first residual above its bound,
        the sequence still nonincreasing, fails the trial; so does a last
        residual that rises over the one before it (lowered below the last
        bound) but stays under its own bound.  The preimage is unchanged,
        so every trial still agrees above the floor."""
        cfg = {"p": 2, "radii": [{"sqrt": 2}], "max_denom_log": 32, "depth": 6,
               "floor_exponent": "10", "trials": 3, "seed": 1}
        path = tmp_path / "cfg.json"
        uio.dump_json(cfg, str(path))
        real = cli.reconstruct_preimage

        def reconstruct_then_change(spec, beta, steps):
            result = real(spec, beta, steps)
            norms = [spec.step(m)[0] for m in range(steps)]
            if change == "first above its bound":
                norms[0] = value_mul(norms[0], t_power(spec.profile, -1))
            elif change == "last rises under its bound":
                norms[-2] = value_mul(norms[-1], t_power(spec.profile, 1))
                assert value_lt(norms[-2], norms[-1])
            return replace(result, residuals=tuple(norms))

        monkeypatch.setattr(cli, "reconstruct_preimage", reconstruct_then_change)
        assert main(["surject-verify", "--config", str(path)]) == code
        report = json.loads(capsys.readouterr().out.splitlines()[0])
        assert [c["ok"] for c in report["cases"]] == [code == EXIT_OK] * 3
        assert [c["agrees_above_floor"] for c in report["cases"]] == [True] * 3

    def test_surject_verify_writes_report_and_tsv(self, tmp_path, capsys):
        cfg = {
            "p": 2,
            "radii": [{"sqrt": 2}],
            "max_denom_log": 32,
            "depth": 8,
            "floor_exponent": "10",
            "trials": 3,
            "seed": 7,
        }
        cfg_path = tmp_path / "cfg.json"
        uio.dump_json(cfg, str(cfg_path))
        out_prefix = str(tmp_path / "run")
        code = main([
            "surject-verify", "--config", str(cfg_path), "--out", out_prefix,
        ])
        assert code == EXIT_OK
        report = json.load(open(out_prefix + ".report.json"))
        assert report["trials"] == 3 and report["failures"] == 0
        lines = open(out_prefix + ".residuals.tsv").read().splitlines()
        assert lines[0] == "trial\tstep\tresidual_weight"
        assert len(lines) == 1 + 3 * report["steps"]

    def test_reports_deterministic(self, tmp_path):
        cfg = {
            "p": 2,
            "radii": [{"sqrt": 2}],
            "max_denom_log": 32,
            "depth": 6,
            "floor_exponent": "10",
            "trials": 3,
            "seed": 13,
        }
        cfg_path = tmp_path / "cfg.json"
        uio.dump_json(cfg, str(cfg_path))
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        main(["surject-verify", "--config", str(cfg_path), "--out", a])
        main(["surject-verify", "--config", str(cfg_path), "--out", b])
        ra = json.load(open(a + ".report.json"))
        rb = json.load(open(b + ".report.json"))
        ra.pop("wall_clock_s")
        rb.pop("wall_clock_s")
        assert ra == rb
        assert open(a + ".residuals.tsv").read() == open(b + ".residuals.tsv").read()

    def test_gleason_build_command(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(cap64_config(1))
        out = tmp_path / "sched.json"
        code = main([
            "gleason", "build", "--config", str(cfg), "--depth", "6", "--out", str(out),
        ])
        assert code == EXIT_OK
        data = json.load(open(out))
        assert data["schedule"]["depth"] == 6
        assert len(data["images"]) == 3


# A valid config, for the rows whose --out goes into a missing directory.
SMALL_CONFIG = '{"p": 2, "radii": [{"sqrt": 2}], "depth": 3, "floor_exponent": "3"}'
MISSING_DIR = "no-such-output-dir"

STEPS_CONFIG = '{"p": 2, "radii": [{"sqrt": 2}], "depth": 3, "floor_exponent": "3", "steps": %d}'
# A one-trial config with the run values given in %s; a value that int()
# would accept is still no JSON integer.
RUN_VALUES_CONFIG = '{"p": 2, "radii": [{"sqrt": 2}], "floor_exponent": "3", %s}'
# The same with the profile values given in %s.
PROFILE_VALUES_CONFIG = '{"depth": 3, "trials": 1, "floor_exponent": "3", %s}'
# A one-term n = 0 series whose coefficient is given in %s.
TERM_C_SERIES = '{"profile": {"p": 3, "radii": []}, "terms": [{"t": "1", "x": [], "c": %s}]}'
# A one-term n = 0 series over p = 2 whose profile entries are given in %s.
PROFILE_SERIES = '{"profile": {"p": 2, "radii": [], %s}, "terms": [{"t": "1/131072", "c": 1}]}'
# x + t over p = 2, sqrt(2), cap 8: invert writes it as t (1 + h) with
# |h| = |t|**(sqrt(2) - 1), so a floor |t|**F needs about 2.4 F terms.
X_PLUS_T_SERIES = ('{"profile": {"p": 2, "radii": [{"sqrt": 2}], "max_denom_log": 8},'
                   ' "terms": [{"t": "0", "x": ["1"], "c": 1}, {"t": "1", "x": ["0"], "c": 1}]}')
# 1 + x + t over p = 3: |h| = |t| with two terms, so its powers grow and
# the floor |t|**9000 needs products far past MAX_INVERT_PRODUCTS.
ONE_X_T_SERIES = ('{"profile": {"p": 3, "radii": [{"sqrt": 2}]}, "terms": [{"t": "0", "x": ["0"],'
                  ' "c": 1}, {"t": "0", "x": ["1"], "c": 1}, {"t": "1", "x": ["0"], "c": 1}]}')
# 1 + t**(1/2**256) at cap 256: |h| = |t|**(1/2**256), so the floor |t|
# needs 2**256 terms.
NEAR_ONE_SERIES = ('{"profile": {"p": 2, "radii": [], "max_denom_log": 256},'
                   ' "terms": [{"t": "0", "c": 1}, {"t": "1/%d", "c": 1}]}' % 2**256)
# JSON nested deeper than json.load recurses.
DEEP_JSON = "[" * 200000 + "]" * 200000
# A disk of radius 1 about 0, for the Berkovich rows.
DISK = '{"center": {"profile": {"p": 2, "radii": []}, "terms": []}, "radius": {"a": "1", "q": []}}'
# A profile whose heights b_m grow by about 12 a step: at depth 1000 the
# term exponents of G pass Python's 4 300-digit limit for str(int).
DEEP_HEIGHTS_CONFIG = '{"p": 3, "radii": [{"sqrt": 2}], "max_denom_log": 32, "sigma_s": "1"}'
# A one-run config with two trials and one more key, given in %s.
TWO_TRIALS_CONFIG = ('{"p": 2, "radii": [{"sqrt": 2}], "depth": 3, "trials": 2,'
                     ' "floor_exponent": "3", %s}')


def nested_disks(depth: int) -> str:
    """DISK inside depth levels of {"disks": [...]}."""
    text = DISK
    for _ in range(depth):
        text = '{"disks": [%s]}' % text
    return text


# (test id, command, input file text[, a pattern the error line matches]);
# the input file is the command's last argument, and a row whose text is
# None gives no file.
MALFORMED_INPUTS = [
    ("norm", ["norm"], '{"profile": [2], "terms": []}'),
    ("norm without a file", ["norm"], None),
    ("gleason build unknown flag", ["gleason", "build", "--depth", "3", "--bogus", "1",
                                    "--config"], SMALL_CONFIG),
    ("invert --floor", ["invert", "--floor", "3"],
     '{"profile": {"p": "two", "radii": []}, "terms": []}'),
    ("classify", ["classify"], '{"radius": {"a": "1", "q": []}}'),
    ("abhyankar", ["abhyankar"], "[1, 2]"),
    ("surject-verify --config", ["surject-verify", "--config"],
     '{"p": 2, "radii": [{"sqrt": 2}], "depth": "deep"}'),
    ("gleason build", ["gleason", "build", "--depth", "3", "--config"], '["p", 2]'),
    ("gleason build --config max_denom_log above cap", ["gleason", "build", "--depth", "3",
                                                        "--config"],
     '{"p": 2, "radii": [{"sqrt": 2}], "max_denom_log": %d}' % (MAX_DENOM_LOG + 1)),
    ("surject-verify --out",
     ["surject-verify", "--trials", "1", "--out", os.path.join(MISSING_DIR, "n1"),
      "--config"], SMALL_CONFIG),
    ("gleason build --out",
     ["gleason", "build", "--depth", "3", "--out", os.path.join(MISSING_DIR, "spec.json"),
      "--config"], SMALL_CONFIG),
    ("gleason build --n 11 is a usage error",
     ["gleason", "build", "--n", "11", "--depth", "1", "--config"], SMALL_CONFIG),
    ("gleason build --depth 0", ["gleason", "build", "--depth", "0", "--config"], SMALL_CONFIG),
    ("gleason build --depth above cap",
     ["gleason", "build", "--depth", str(MAX_DEPTH + 1), "--config"], SMALL_CONFIG),
    ("surject-verify --depth 0", ["surject-verify", "--depth", "0", "--config"], SMALL_CONFIG),
    ("surject-verify --depth above cap",
     ["surject-verify", "--depth", str(MAX_DEPTH + 1), "--config"], SMALL_CONFIG),
    ("surject-verify --trials -5", ["surject-verify", "--trials", "-5", "--config"],
     SMALL_CONFIG),
    ("surject-verify --trials above cap",
     ["surject-verify", "--trials", str(MAX_TRIALS + 1), "--config"], SMALL_CONFIG),
    ("config steps 0", ["surject-verify", "--config"], STEPS_CONFIG % 0),
    ("config steps -1", ["surject-verify", "--config"], STEPS_CONFIG % -1),
    ("config steps above cap", ["surject-verify", "--config"], STEPS_CONFIG % (MAX_STEPS + 1)),
    ("config sigma_s 1/2", ["surject-verify", "--config"],
     RUN_VALUES_CONFIG % '"depth": 3, "trials": 1, "sigma_s": "1/2"'),
    ("config sigma_s 99/100", ["surject-verify", "--config"],
     RUN_VALUES_CONFIG % '"depth": 3, "trials": 1, "sigma_s": "99/100"'),
    ("gleason build --config sigma_s 1/2", ["gleason", "build", "--depth", "3", "--config"],
     RUN_VALUES_CONFIG % '"sigma_s": "1/2"'),
    ("config c_exponent 100", ["surject-verify", "--config"],
     RUN_VALUES_CONFIG % '"depth": 3, "trials": 1, "c_exponent": "100"'),
    ("config floor_exponent -100", ["surject-verify", "--config"],
     '{"p": 2, "radii": [{"sqrt": 2}], "depth": 3, "floor_exponent": "-100"}'),
    ("config depth 3.9", ["surject-verify", "--config"],
     RUN_VALUES_CONFIG % '"depth": 3.9, "trials": 1'),
    ("config seed string", ["surject-verify", "--config"],
     RUN_VALUES_CONFIG % '"depth": 3, "trials": 1, "seed": "7"'),
    ("config trials true", ["surject-verify", "--config"],
     RUN_VALUES_CONFIG % '"depth": 3, "trials": true'),
    ("config steps 2.0", ["surject-verify", "--config"],
     RUN_VALUES_CONFIG % '"depth": 3, "trials": 1, "steps": 2.0'),
    ("config p 2.9", ["surject-verify", "--config"],
     PROFILE_VALUES_CONFIG % '"p": 2.9, "radii": [{"sqrt": 2}]'),
    ("config p string", ["surject-verify", "--config"],
     PROFILE_VALUES_CONFIG % '"p": "2", "radii": [{"sqrt": 2}]'),
    ("config sqrt 2.7", ["surject-verify", "--config"],
     PROFILE_VALUES_CONFIG % '"p": 2, "radii": [{"sqrt": 2.7}]'),
    ("config max_denom_log 32.5", ["surject-verify", "--config"],
     PROFILE_VALUES_CONFIG % '"p": 2, "radii": [{"sqrt": 2}], "max_denom_log": 32.5'),
    ("gleason build --config sqrt string", ["gleason", "build", "--depth", "1", "--config"],
     '{"p": 2, "radii": [{"sqrt": "3"}]}'),
    ("norm term c 1.5", ["norm"], TERM_C_SERIES % "1.5"),
    ("norm term c true", ["norm"], TERM_C_SERIES % "true"),
    ("norm term past the cap", ["norm"], PROFILE_SERIES % '"max_denom_log": 16'),
    ("norm profile key sigma", ["norm"], PROFILE_SERIES % '"max_denom_log": 17, "sigma": "9"'),
    ("norm profile key max_denom_lg", ["norm"], PROFILE_SERIES % '"max_denom_lg": 32'),
    ("invert --floor 1e11", ["invert", "--floor", "100000000000"], X_PLUS_T_SERIES),
    ("invert --floor 1e400", ["invert", "--floor", "1e400"], X_PLUS_T_SERIES),
    ("invert h near 1", ["invert", "--floor", "1"], NEAR_ONE_SERIES),
    ("invert --floor 9000 with growing powers", ["invert", "--floor", "9000"], ONE_X_T_SERIES),
    ("config unknown key", ["surject-verify", "--config"],
     '{"p": 2, "radii": [{"sqrt": 2}], "max_denom_log": 32, "depht": 3, "trials": 1}'),
    ("gleason build --config unknown key", ["gleason", "build", "--depth", "1", "--config"],
     '{"p": 2, "radii": [{"sqrt": 2}], "max_denom_log": 16, "cap": 32}'),
    ("gleason build --n with --config is a usage error",
     ["gleason", "build", "--depth", "1", "--n", "1", "--config"], SMALL_CONFIG),
    ("gleason build --p with --config is a usage error",
     ["gleason", "build", "--depth", "1", "--p", "2", "--config"], SMALL_CONFIG),
    ("gleason build --max-denom-log with --config is a usage error",
     ["gleason", "build", "--depth", "1", "--max-denom-log", "16", "--config"], SMALL_CONFIG),
    ("norm deeply nested JSON", ["norm"], DEEP_JSON),
    ("classify deeply nested JSON", ["classify"], DEEP_JSON),
    ("abhyankar deeply nested JSON", ["abhyankar"], DEEP_JSON),
    ("surject-verify --config deeply nested JSON", ["surject-verify", "--config"], DEEP_JSON),
    ("classify prefix of prefixes", ["classify"], nested_disks(2)),
    ("abhyankar type_iv disk", ["abhyankar"], '[{"type_iv": %s}]' % DISK),
    ("classify disks nested 450 deep", ["classify"], nested_disks(450)),
    ("config sigma_s 0.000001", ["surject-verify", "--config"],
     TWO_TRIALS_CONFIG % '"sigma_s": "0.000001"'),
    ("gleason build --config sigma_s 0.000001", ["gleason", "build", "--config"],
     TWO_TRIALS_CONFIG % '"sigma_s": "0.000001"'),
    ("config c_exponent past the cap", ["surject-verify", "--config"],
     TWO_TRIALS_CONFIG % '"c_exponent": "262145/131072"'),
    ("gleason build --config c_exponent past the cap", ["gleason", "build", "--config"],
     TWO_TRIALS_CONFIG % '"c_exponent": "262145/131072"'),
    ("norm term c of 5000 digits", ["norm"],
     '{"profile": {"p": 2, "radii": []}, "terms": [{"t": "0", "c": %s}]}' % ("7" * 5000),
     r"^input error: \S+: an integer literal has 5000 digits, past the"
     rf" {sys.get_int_max_str_digits()}-digit limit"
     r" of integer string conversion; the environment variable PYTHONINTMAXSTRDIGITS"
     r" sets the limit$"),
    ("gleason build --depth 1000 past the digit limit",
     ["gleason", "build", "--depth", "1000", "--config"], DEEP_HEIGHTS_CONFIG),
]


@pytest.mark.parametrize("command,text,match", [(*row[1:3], row[3] if len(row) > 3 else None)
                                                for row in MALFORMED_INPUTS],
                         ids=[row[0] for row in MALFORMED_INPUTS])
def test_malformed_input_exits_2(tmp_path, command, text, match):
    if text is not None:
        path = tmp_path / "input.json"
        path.write_text(text)
        command = [*command, str(path)]
    src = os.path.dirname(os.path.dirname(ultrametrica.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "ultrametrica", *command],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == EXIT_INPUT
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("input error:")
    assert len(proc.stderr.splitlines()) == 1
    if match is not None:
        assert re.search(match, proc.stderr.rstrip("\n")), proc.stderr


@pytest.mark.parametrize("n", [1, 2])
def test_gleason_build_at_the_depth_cap_finishes(tmp_path, n):
    """The document holds only the scalars that define the schedule, one
    entry per step in each list, so at MAX_DEPTH it is about 1 MB, and it
    reads back."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(cap64_config(n))
    out = tmp_path / "spec.json"
    src = os.path.dirname(os.path.dirname(ultrametrica.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "ultrametrica", "gleason", "build", "--config", str(cfg),
         "--depth", str(MAX_DEPTH), "--out", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert proc.returncode == EXIT_OK
    assert "Traceback" not in proc.stderr
    assert out.stat().st_size < 2_000_000
    schedule = uio.schedule_from_json(json.loads(out.read_text())["schedule"])
    assert schedule.depth == MAX_DEPTH and len(schedule.V) == n + 1


def test_the_writer_refuses_an_integer_past_the_digit_limit(tmp_path, capsys):
    """io writes no rational whose numerator or denominator str() cannot
    convert; it names the digit count.  gleason build refuses before it
    opens --out: over p = 999999000001 the term exponents of G pass the
    limit at depth 150."""
    big = 10**5000
    for write in (lambda: uio.ratio_to_str(big + 1, 3), lambda: uio.ratio_to_str(7, big),
                  lambda: uio.frac_to_str(Fraction(1, big))):
        with pytest.raises(InputValidationError, match="has 5001 digits, past the"):
            write()
    assert uio.ratio_to_str(-big // 2, big) == "-1/2"
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"p": 999999000001, "radii": [{"sqrt": 2}], "max_denom_log": 32,'
                   ' "sigma_s": "1"}')
    out = tmp_path / "spec.json"
    assert main(["gleason", "build", "--depth", "150", "--config", str(cfg),
                 "--out", str(out)]) == EXIT_INPUT
    limit = sys.get_int_max_str_digits()
    assert f"digits, past the {limit}-digit limit" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture
def no_run(monkeypatch):
    """Make any start of a surjection run or an inversion fail the test."""
    def fail(*args, **kwargs):
        raise AssertionError("the run started")
    monkeypatch.setattr(cli, "run_surjection_trials", fail)
    monkeypatch.setattr(cli, "standard_surjection", fail)
    monkeypatch.setattr(cli, "invert", fail)


def test_caps_rejected_before_the_run(tmp_path, no_run, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(SMALL_CONFIG)
    for flag, cap in (("--trials", MAX_TRIALS), ("--depth", MAX_DEPTH)):
        assert main(["surject-verify", "--config", str(cfg), flag, str(cap + 1)]) == EXIT_INPUT
    assert main(["gleason", "build", "--config", str(cfg),
                 "--depth", str(MAX_DEPTH + 1)]) == EXIT_INPUT
    cfg.write_text(STEPS_CONFIG % (MAX_STEPS + 1))
    assert main(["surject-verify", "--config", str(cfg)]) == EXIT_INPUT
    assert "steps must lie in [1, 1000]" in capsys.readouterr().err


def test_unknown_config_key_and_profile_flags_named(tmp_path, no_run, capsys):
    """A config key outside the profile and run keys is refused by name, as
    are profile flags given to gleason build, which takes its profile only
    from the config."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"p": 2, "radii": [{"sqrt": 2}], "depht": 3, "Seed": 1}')
    assert main(["surject-verify", "--config", str(cfg)]) == EXIT_INPUT
    assert "unknown config key 'Seed', 'depht';" in capsys.readouterr().err
    cfg.write_text(SMALL_CONFIG)
    assert main(["gleason", "build", "--depth", "3", "--config", str(cfg),
                 "--p", "3", "--max-denom-log", "16"]) == EXIT_INPUT
    assert capsys.readouterr().err == ("input error: unrecognized arguments:"
                                       " --p 3 --max-denom-log 16\n")


def test_usage_error_is_one_input_error_line(capsys):
    """main returns 2 for bad arguments, with one line, and raises no
    SystemExit."""
    assert main(["norm"]) == EXIT_INPUT
    assert capsys.readouterr().err == ("input error: the following arguments are"
                                       " required: element\n")
    assert main(["gleason", "build", "--n", "1"]) == EXIT_INPUT
    assert capsys.readouterr().err == "input error: unrecognized arguments: --n 1\n"


# A depth-5 config over p = 3, sqrt(2) and cap 20, unlike every default.
RUN_CONFIG = '{"p": 3, "radii": [{"sqrt": 2}], "max_denom_log": 20, "depth": 5}'


@pytest.mark.parametrize("via_env,depth_flag,depth", [
    pytest.param(False, [], 5, id="--config depth"),
    pytest.param(True, [], 5, id="env config"),
    pytest.param(True, ["--depth", "3"], 3, id="--depth override"),
])
def test_gleason_build_loads_its_run_as_surject_verify_does(tmp_path, monkeypatch, via_env,
                                                            depth_flag, depth):
    """The profile and depth come from --config or else ULTRAMETRICA_CONFIG;
    --depth overrides the config's depth."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(RUN_CONFIG)
    if via_env:
        monkeypatch.setenv("ULTRAMETRICA_CONFIG", str(cfg))
    out = tmp_path / "spec.json"
    config_flag = [] if via_env else ["--config", str(cfg)]
    assert main(["gleason", "build", *config_flag, *depth_flag, "--out", str(out)]) == EXIT_OK
    spec = json.loads(out.read_text())
    assert spec["profile"] == uio.profile_to_json(Config.from_json(json.loads(RUN_CONFIG)).profile)
    assert spec["schedule"]["depth"] == depth


def test_cap_error_past_the_readers_is_a_verification_failure(tmp_path, capsys):
    """Only a reader turns a DenominatorCapError into an input error: a
    build whose schedule leaves the cap still exits 1."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"p": 2, "radii": [{"sqrt": 2}], "max_denom_log": 16, "depth": 400}')
    out = tmp_path / "spec.json"
    assert main(["gleason", "build", "--config", str(cfg),
                 "--out", str(out)]) == EXIT_VERIFICATION
    assert capsys.readouterr().err == ("verification error: exponent with denominator"
                                       " p**17 exceeds the cap p**16\n")


def test_direct_run_checks_its_values(prof1, monkeypatch):
    monkeypatch.setattr(cli, "standard_surjection", None)  # any start fails
    config = Config(profile=prof1, depth=3)
    for trials, depth in ((1, 0), (-5, 3), (MAX_TRIALS + 1, 3), (1, MAX_DEPTH + 1)):
        with pytest.raises(InputValidationError):
            cli.run_surjection_trials(config, trials, depth, 0)


def test_caps_themselves_accepted(prof1):
    config = Config(profile=prof1, depth=MAX_DEPTH, trials=MAX_TRIALS, steps=MAX_STEPS)
    assert config.division_steps() == MAX_STEPS
    with pytest.raises(InputValidationError):
        Config(profile=prof1, floor_exponent=Fraction(MAX_STEPS + 6))  # derived M > cap


def test_missing_output_directory_rejected_before_the_run(tmp_path, no_run):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(SMALL_CONFIG)
    missing = str(tmp_path / MISSING_DIR / "out")
    series = tmp_path / "f.json"
    series.write_text(ONE_X_T_SERIES)
    assert main(["invert", str(series), "--floor", "500", "--out", missing]) == EXIT_INPUT
    assert main(["surject-verify", "--config", str(cfg), "--out", missing]) == EXIT_INPUT
    assert main(["gleason", "build", "--depth", "3", "--out", missing]) == EXIT_INPUT
    assert main(["gleason", "build", "--depth", "3", "--config", str(cfg),
                 "--out", missing]) == EXIT_INPUT


def _norm_timed(tmp_path, p, d):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "profile": {"p": p, "radii": [{"sqrt": d}]},
        "terms": [{"t": "1", "x": ["3"], "c": 1}],
    }))
    t0 = time.monotonic()
    code = main(["norm", str(path)])
    return code, time.monotonic() - t0


def test_huge_prime_decided_fast(tmp_path, capsys):
    code, elapsed = _norm_timed(tmp_path, 10**18 + 3, 2)  # prime
    assert code == EXIT_OK and elapsed < 1.0
    code, elapsed = _norm_timed(tmp_path, 10**18 + 1, 2)  # 101 * 9901 * ...
    assert code == EXIT_INPUT and elapsed < 1.0


def test_huge_radius_rejected_fast(tmp_path, capsys):
    code, elapsed = _norm_timed(tmp_path, 2, 10**18 + 3)
    assert code == EXIT_INPUT and elapsed < 1.0
    assert str(MAX_SQUAREFREE) in capsys.readouterr().err
    code, elapsed = _norm_timed(tmp_path, 2, MAX_SQUAREFREE - 2)  # 2*17*14033*20959
    assert code == EXIT_OK and elapsed < 1.0


def test_berkovich_tour_script_runs():
    src = os.path.dirname(os.path.dirname(ultrametrica.__file__))
    script = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "scripts", "berkovich_tour.py")
    proc = subprocess.run(
        [sys.executable, script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    cases = [json.loads(line)["case"] for line in proc.stdout.splitlines()]
    assert cases == ["gauss_point", "rational_radius", "irrational_radius",
                     "evaluation_point", "nested_prefix", "all_gauss_m3", "mixed_m3"]
