"""Golden CLI outputs: a change that alters any byte of them fails here.

The hashes were recorded from the benchmark's two configurations: p = 2
with sqrt(2) (cap 2**32, depth 21) and with sqrt(2), sqrt(3) (cap 2**110,
depth 81), both with floor exponent 12.  The report's wall_clock_s is
the only field left out; it is a timing, not a result.
"""

import hashlib
import json

import pytest

from ultrametrica.cli import EXIT_OK, main

N1 = {"p": 2, "radii": [{"sqrt": 2}], "max_denom_log": 32, "depth": 21,
      "floor_exponent": "12"}
N2 = {"p": 2, "radii": [{"sqrt": 2}, {"sqrt": 3}], "max_denom_log": 110, "depth": 81,
      "floor_exponent": "12"}

GOLDEN = {
    "n1": (N1, {
        "build": "cd29ced518b24aeccd4e8bca317c98021ae04add5481a623a734b27337067cf6",
        "report": "43bff88f8d3dda0e1220394ee57dce2a03c0647a3debbb60b6f18aecfbc2e5f6",
        "tsv": "70b458ff9bac8214142f3ec57e843af1675ca25a727b6979d10f634fe33af1f5",
    }),
    "n2": (N2, {
        "build": "fc5cca4fe84f07b878cde7a2ec8f7e3cd4b2f6a196a1f6d236ce021cf6d3855d",
        "report": "38dcffd20e1cf763f18958516079fe4905a96694e17a015ce71d5f887cb99f22",
        "tsv": "e123ad64d752e49fb5a5afbd5166915d9e5d47181ddb514d082334373c9f5858",
    }),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_hashes(tmp_path, config: dict) -> dict:
    """sha256 of the gleason build JSON, of a 30-trial seed-3 surject-verify
    report without wall_clock_s, and of its residuals TSV."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    spec = tmp_path / "spec.json"
    assert main(["gleason", "build", "--depth", str(config["depth"]),
                 "--config", str(cfg), "--out", str(spec)]) == EXIT_OK
    out = tmp_path / "run"
    assert main(["surject-verify", "--config", str(cfg), "--trials", "30",
                 "--seed", "3", "--out", str(out)]) == EXIT_OK
    report = json.loads((tmp_path / "run.report.json").read_text())
    report.pop("wall_clock_s")
    return {
        "build": _sha256(spec.read_bytes()),
        "report": _sha256(json.dumps(report, sort_keys=True).encode()),
        "tsv": _sha256((tmp_path / "run.residuals.tsv").read_bytes()),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_outputs_match_the_recorded_hashes(tmp_path, name):
    config, expected = GOLDEN[name]
    assert golden_hashes(tmp_path, config) == expected
