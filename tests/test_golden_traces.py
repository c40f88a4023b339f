"""Golden traces: noisy runs must keep their exact bytes.

Each config runs through ``optdec run`` and the sha256 digests of the trace
CSV and the summary JSON are compared with digests recorded before the
batched sampling path existed (numpy 2.4, x86-64).  The configs use
built-in problem kinds only, so ``config_hash`` hashes no file paths.  Any
change to how a sample is seeded, drawn or summed changes a digest.
"""

import hashlib
import json

import pytest

from optdec.cli import main

GOLDEN = {
    "spdstm_gaussian_delta": (
        {"method": "spdstm", "problem": {"kind": "penalty", "dim": 6, "m_rows": 3, "cond": 5.0},
         "noise": {"kind": "gaussian", "sigma": 0.3, "delta": 0.001},
         "eps": 0.02, "N": 12, "seed": 3},
        "9e5ce9934a972f325bf679b376faf4e013c445e847fc238bfb012e5e369afce2",
        "db7130617811fbf2703b7487eba7d8d6e89dbb3074689d8d2bae4180078da4cd"),
    "sstm_bounded": (
        {"method": "sstm", "problem": {"kind": "quadratic", "dim": 5, "cond": 10.0},
         "noise": {"kind": "bounded", "sigma": 0.2}, "eps": 0.001, "N": 15, "seed": 5},
        "bae35ab5a8002da4839bfaa9bcb6ccc48b12c144a3bf9fcab4d336d21a0c4d7c",
        "a9d474f8e2fd14b8f32e0c56a9f37a5b2147be19f0c74a85b05d84a2bcfe54a0"),
    "sstm_sc_ring4": (
        {"method": "sstm_sc", "problem": {"kind": "consensus_quadratic", "n": 3, "cond": 4.0,
                                          "topology": {"kind": "ring", "m": 4}},
         "noise": {"kind": "gaussian", "sigma": 0.1, "delta": 0.001},
         "eps": 0.05, "N": 10, "seed": 7},
        "6439ffbb0a35ed1c07f1530d8d9f23a7c96a4c357e947c7bad214362bebb01a8",
        "34ff086840310f8c5690d64aa3b8c50f3cc8bb33116bd4fc1b76bacf3ee9a63b"),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_noisy_run_is_byte_identical_to_golden(tmp_path, capsys, name):
    cfg, csv_digest, summary_digest = GOLDEN[name]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    (csv,), (summary,) = list(out.glob("*.trace.csv")), list(out.glob("*.summary.json"))
    assert json.loads(summary.read_text())["stoch_samples"] > 0
    assert _sha256(csv) == csv_digest
    assert _sha256(summary) == summary_digest
