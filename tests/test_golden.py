"""Golden sha256 of every artifact of the three benchmark workloads.

The configs are those of ``benchmarks/workloads.py`` at seed 20260517 and
their smoke grids, written out here so that this test does not move when
the benchmark does.  A change that promises byte-identical artifacts is
checked by this test; a change meant to move an artifact records its new
hash here and says why.  The hashes were recorded with numpy 2.4.6 on
x86-64 Linux: the last bits of a float64 result, and so a file's hash, may
differ with another numpy build or CPU.
"""

import hashlib
import json

import pytest

from pencil_lab.cli import main

BOX = [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]

GOLDEN = {
    "pencil-check": (
        "check-compat",
        {"chart": {"n": 3, "box": BOX, "shape": [9, 9, 9]},
         "metric": {"diag": ["1", "1", "1"]},
         "metric_tilde": {"diag": ["1+R1^2", "3+R2^2", "6+R3^2"]},
         "lambdas": [0.3, 0.85, 1.55, 2.5, 2.85]},
        {"report.json": "39384f5fd9289ce77c7faa1c581114438ae136cd728ca043373c594e3980fbd4"}),
    "frame-sweep": (
        "frame",
        {"chart": {"n": 3, "box": BOX, "shape": [17, 17, 17]},
         "etas": ["1", "2", "4"],
         "beta_boundary": {"1,2": "0.2", "2,1": "0.1*R1", "3,1": "0.15",
                           "1,3": "0.1+0.05*R3", "2,3": "0.2", "3,2": "0.25"},
         "lambdas": [0.45, 0.55, 0.8, 2.7]},
        {"lame.csv": "680b22e28b5938232df4cab0a39200595989aecdb006add512b861c771f596d4",
         "report.json": "314e976aacfbb89e5314940fd32abb3486cd2f257353a709e158ce9980fcb252",
         "slice_lambda_0.45.obj": "065ea6efef51440a44f78837649cf2c8ee8db0fc959c08994d3446968ed561a9",
         "slice_lambda_0.55.obj": "f283f3fab4b5dbfc51b096b57cd091ea2477e09a1adb35f4de05d03052de09dc",
         "slice_lambda_0.8.obj": "f4f63575abb0b20bdf9159ad1b2d3fb8aae77ee145bb030d34444c9bec57ecff",
         "slice_lambda_2.7.obj": "0533b11fd9bbfd706109ea4a872fdccf38200332040f52bcd5c910dce7a031af"}),
    "surface-family": (
        "deform-surface",
        {"chart": {"n": 2, "box": [[0.5, 1.5], [0.0, 1.0]], "shape": [33, 33]},
         "surface": {"g11": "1", "g22": "R1^2", "eta1": "5-R1^2",
                     "eta2": "1+R2^2", "k1_line": "2+2*R1", "k2_line": "2.5"},
         "lambdas": [0.7, 1.15, 1.35, 1.5]},
        {"report.json": "d56ad35dadf0ebce12dd1065be0ea5446236ba102d26f55fe92a3c484cdd7c24",
         "surface_lambda_0.7.obj": "60169957807f3678cd0b7fdb97c90a40a75ff63a0055820ebee037c78bf43331",
         "surface_lambda_1.15.obj": "1052d2d66dfe144c958c937af12fb3f44233cb48fa4fa5db566635e697b789da",
         "surface_lambda_1.35.obj": "bc729568ee6ff7802d0aab26309ce04c34cdba2be2e7c7abd9a27ccc7568da41",
         "surface_lambda_1.5.obj": "894e7d754bd3bbaa10af17f29a3ad15dcd69fb354d4dc061b512ad67ae811608"}),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_workload_artifacts_keep_their_sha256(tmp_path, monkeypatch,
                                              workload, threads):
    # two threads also split the CSV and OBJ files between two processes
    monkeypatch.setenv("PENCIL_LAB_THREADS", threads)
    command, cfg, want = GOLDEN[workload]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in out.iterdir()}
    assert got == want
