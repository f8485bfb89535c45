import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import ultrametrica
from ultrametrica import io as uio
from ultrametrica.berkovich import DiskPoint, NestedPrefix
from ultrametrica import cli
from ultrametrica.cli import (
    EXIT_INPUT,
    EXIT_OK,
    MAX_DEPTH,
    MAX_STEPS,
    MAX_TRIALS,
    Config,
    main,
)
from ultrametrica.errors import InputValidationError
from ultrametrica.gleason import build_gplus, standard_surjection
from ultrametrica.series import gauss_norm, make_series, monomial, mul, one, series_zero, sub
from ultrametrica.tatealg import make_tate
from ultrametrica.valuegroup import (
    MAX_DENOM_LOG,
    MAX_SQUAREFREE,
    FreeRadius,
    make_profile,
    t_power,
    value,
    value_lt,
    zero_value,
)


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

    def test_tate_roundtrip(self, prof1):
        base = prof1.base()
        f = make_tate(2, base, {
            (Fraction(1, 2), Fraction(0)): monomial(base, 1, 3),
            (Fraction(0), Fraction(2)): one(base),
        })
        assert uio.tate_from_json(uio.tate_to_json(f)) == f

    def test_point_roundtrip(self, prof1):
        base = prof1.base()
        pt = DiskPoint(series_zero(base), value(prof1, 0, (1,)))
        back = uio.point_from_json(uio.point_to_json(pt))
        assert back.radius == pt.radius and back.center == pt.center
        prefix = NestedPrefix(tuple(
            DiskPoint(series_zero(base), t_power(base, k)) for k in (1, 2)
        ))
        back2 = uio.point_from_json(uio.point_to_json(prefix))
        assert len(back2.disks) == 2

    def test_schedule_roundtrip(self, prof1_cap24):
        sched, _ = build_gplus(prof1_cap24, 4)
        back = uio.schedule_from_json(uio.schedule_to_json(sched))
        assert back == sched
        text = json.dumps(uio.schedule_to_json(sched), sort_keys=True)
        assert uio.schedule_from_json(json.loads(text)) == sched

    @pytest.mark.parametrize("key,path", [("d", (3, 1)), ("eps", (2,))])
    def test_schedule_edited_derived_field_rejected(self, prof1_cap24, key, path):
        sched, _ = build_gplus(prof1_cap24, 4)
        data = uio.schedule_to_json(sched)
        entry = data[key]
        for k in path:
            entry = entry[k]
        entry["terms"][0]["t"] = str(Fraction(entry["terms"][0]["t"]) + 1)
        with pytest.raises(InputValidationError, match=repr(key)):
            uio.schedule_from_json(data)

    @pytest.mark.parametrize("radii,cap,depth,digest", [
        ((2,), 32, 21,
         "dd274fe1b2484eec27332d5116a21977cd9245d40937bcda68b04a436e1eae3b"),
        ((2, 3), 110, 81,
         "888c75495316d732ecb08a2c80a98236b827af40303c7b825480de537a55520b"),
    ])
    def test_surjection_spec_golden(self, radii, cap, depth, digest):
        prof = make_profile(2, [FreeRadius(d) for d in radii], max_denom_log=cap)
        payload = uio.surjection_to_json(standard_surjection(prof, depth))
        blob = json.dumps(payload, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == digest

    def test_bad_rational_rejected(self):
        with pytest.raises(InputValidationError):
            uio.frac_from_str("3/0")


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

    def test_classify_command(self, tmp_path, prof1, capsys):
        base = prof1.base()
        pt = DiskPoint(series_zero(base), value(prof1, 0, (1,)))
        path = tmp_path / "pt.json"
        uio.dump_json(uio.point_to_json(pt), str(path))
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
            {"type_iv": uio.point_to_json(NestedPrefix(tuple(
                DiskPoint(series_zero(base), t_power(base, k)) for k in (1, 2)
            )))},
        ]
        path = tmp_path / "tower.json"
        uio.dump_json(tower, str(path))
        assert main(["abhyankar", str(path), "--n-vars", "4"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["d_K"] == 1
        assert out["is_abhyankar"] is False
        assert out["B"] == [1]
        assert out["main_theorem_bound_ok"] is True

    def test_missing_file_is_input_error(self, capsys):
        assert main(["norm", "/nonexistent/f.json"]) == EXIT_INPUT

    def test_invert_below_floor_is_verification_error(self, tmp_path, prof1, capsys):
        from ultrametrica.cli import EXIT_VERIFICATION
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
        out = tmp_path / "sched.json"
        code = main([
            "gleason", "build", "--n", "1", "--depth", "6", "--out", str(out),
        ])
        assert code == EXIT_OK
        data = json.load(open(out))
        assert data["schedule"]["depth"] == 6
        assert len(data["images"]) == 3


# A valid config, for the rows whose --out goes into a missing directory.
SMALL_CONFIG = '{"p": 2, "radii": [{"sqrt": 2}], "depth": 3, "floor_exponent": "3"}'
MISSING_DIR = "no-such-output-dir"

STEPS_CONFIG = '{"p": 2, "radii": [{"sqrt": 2}], "depth": 3, "floor_exponent": "3", "steps": %d}'

# (test id, command, input file text).  In the rows that end in --out the
# file is the --out target: the range checks reject the run before anything
# is written.
MALFORMED_INPUTS = [
    ("norm", ["norm"], '{"profile": [2], "terms": []}'),
    ("invert --floor", ["invert", "--floor", "3"],
     '{"profile": {"p": "two", "radii": []}, "terms": []}'),
    ("classify", ["classify"], '{"radius": {"a": "1", "q": []}}'),
    ("abhyankar", ["abhyankar"], "[1, 2]"),
    ("surject-verify --config", ["surject-verify", "--config"],
     '{"p": 2, "radii": [{"sqrt": 2}], "depth": "deep"}'),
    ("gleason build", ["gleason", "build", "--depth", "3", "--config"], '["p", 2]'),
    ("gleason build --max-denom-log",
     ["gleason", "build", "--depth", "3", "--max-denom-log", str(MAX_DENOM_LOG + 1),
      "--out"], ""),
    ("surject-verify --out",
     ["surject-verify", "--trials", "1", "--out", os.path.join(MISSING_DIR, "n1"),
      "--config"], SMALL_CONFIG),
    ("gleason build --out",
     ["gleason", "build", "--depth", "3", "--out", os.path.join(MISSING_DIR, "spec.json"),
      "--config"], SMALL_CONFIG),
    ("gleason build --n 11", ["gleason", "build", "--n", "11", "--depth", "1", "--out"], ""),
    ("gleason build --depth 0", ["gleason", "build", "--depth", "0", "--out"], ""),
    ("gleason build --depth above cap",
     ["gleason", "build", "--depth", str(MAX_DEPTH + 1), "--out"], ""),
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
]


@pytest.mark.parametrize("command,text", [row[1:] for row in MALFORMED_INPUTS],
                         ids=[row[0] for row in MALFORMED_INPUTS])
def test_malformed_input_exits_2(tmp_path, command, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    src = os.path.dirname(os.path.dirname(ultrametrica.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "ultrametrica", *command, str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == EXIT_INPUT
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("input error:")


@pytest.fixture
def no_run(monkeypatch):
    """Make any start of a surjection run fail the test."""
    def fail(*args, **kwargs):
        raise AssertionError("the run started")
    monkeypatch.setattr(cli, "run_surjection_trials", fail)
    monkeypatch.setattr(cli, "standard_surjection", fail)


def test_caps_rejected_before_the_run(tmp_path, no_run, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(SMALL_CONFIG)
    for flag, cap in (("--trials", MAX_TRIALS), ("--depth", MAX_DEPTH)):
        assert main(["surject-verify", "--config", str(cfg), flag, str(cap + 1)]) == EXIT_INPUT
    assert main(["gleason", "build", "--depth", str(MAX_DEPTH + 1)]) == EXIT_INPUT
    cfg.write_text(STEPS_CONFIG % (MAX_STEPS + 1))
    assert main(["surject-verify", "--config", str(cfg)]) == EXIT_INPUT
    assert "steps must lie in [1, 1000]" in capsys.readouterr().err


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
