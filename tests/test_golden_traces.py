"""Golden traces: noisy and deterministic runs must keep their exact bytes.

Each config runs through ``optdec run`` and the sha256 digests of the trace
CSV and the summary JSON are compared with recorded digests (numpy 2.4,
x86-64).  The configs use built-in problem kinds only, so ``config_hash``
hashes no file paths.

``GOLDEN`` holds noisy runs, recorded before the batched sampling path
existed: any change to how a sample is seeded, drawn or summed changes a
digest.  ``GOLDEN_DETERMINISTIC`` holds noiseless runs of the similar-triangles
kernel, recorded before its in-place step: any change to the order of a
floating-point operation in ``schedules.triangle``, the mirror updates or
the inner prox of ``stm_ips`` changes a digest; its two ``spdstm`` runs
with ``N: "auto"``, one on a single machine and one on a ring with
``stop_gap``, pin the dual planning and run path.  The single-machine
``ac_sa`` and ``rrma`` runs in both tables, recorded before these methods
ran through ``dual.run_dual``, pin how their budget ``m_iters`` and
weight ``lambda`` follow from ``N`` and the constants.  The
``consensus_quadratic`` runs on a ring of 12 nodes with ``n`` 8 and at
``cond`` 1, recorded before the node quadratics were built as one stack,
pin how each node's ``Q`` and ``b`` are drawn and decomposed.
``GOLDEN_BARYCENTER`` holds a decentralized ``barycenter`` run whose auto
``N`` follows from ``R_y``, the bound centred on the minimisers of the
local objectives; its measure and cost CSVs are written next to the config
and named by relative paths, so ``config_hash`` does not depend on where
the test runs.
"""

import hashlib
import json
from pathlib import Path

import pytest

import optdec.oracles as oracles
from conftest import count_seeding
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
    "ac_sa_gaussian_delta": (
        {"method": "ac_sa", "problem": {"kind": "penalty", "dim": 6, "m_rows": 3, "cond": 5.0},
         "noise": {"kind": "gaussian", "sigma": 0.3, "delta": 0.001},
         "eps": 0.02, "N": 40, "seed": 3},
        "871ae662bada2d5ddb6787d4239bdb7871757f953fb74a3fc7a521775dcd41b5",
        "40f5402a4bc03150d8df0f3a1c22310a4f588fda1ead4d6f3e157c9e0cfccc17"),
    "rrma_gaussian_delta": (
        {"method": "rrma", "problem": {"kind": "penalty", "dim": 6, "m_rows": 3, "cond": 5.0},
         "noise": {"kind": "gaussian", "sigma": 0.3, "delta": 0.001},
         "eps": 0.02, "N": 40, "seed": 3},
        "d8364798e99da17ff37c63e6b75a397100b72672146432ce67fcbe686ec1b411",
        "9cb090357d40ff8b2a9d854f46cd3e0ec69115f780ff03da8aa1d486ab23b7cb"),
    "spdstm_ring12_gaussian": (
        {"method": "spdstm", "problem": {"kind": "consensus_quadratic", "n": 8, "cond": 10.0,
                                         "topology": {"kind": "ring", "m": 12}},
         "noise": {"kind": "gaussian", "sigma": 0.1, "delta": 0.001},
         "eps": 0.05, "N": 12, "seed": 11},
        "944becfb23a28a3d8c9c5bf6806f1c1088e59fc0c0b0f792832e01a5018a1b40",
        "e4be4c00bc96a79fb59aac221569f6a66e64f4696c08c71f3a933d2644e852f0"),
}


GOLDEN_DETERMINISTIC = {
    # inner_T = 3 exhausts every inner-prox budget: 12 flags in the trace
    "stm_ips_budget_exhausted": (
        {"method": "stm_ips", "problem": {"kind": "penalty", "dim": 6, "m_rows": 3, "cond": 5.0},
         "eps": 0.02, "N": 12, "seed": 3, "constants": {"inner_T": 3}},
        "02df234a3f794642768d48639ed7ff573f6edb0faaee6d663816cd533a33ef7b",
        "5bd15ba00d6a39bc9760a27add8e5c2d9a581f10c5ea1d57b1cffd1a82596b72"),
    # default budgets: every inner prox is certified before its budget runs out
    "stm_ips_default_budget": (
        {"method": "stm_ips", "problem": {"kind": "penalty", "dim": 6, "m_rows": 3, "cond": 5.0},
         "eps": 0.02, "N": 12, "seed": 4},
        "3ca6e5052972b11011cb222788baed0cd8cd349e19566aa0a3b314047808807a",
        "9bdcba1f10d2d7b4772db0523e7b2f3f2721be3a960e5aa05d7c10042b282049"),
    "stm_auto": (
        {"method": "stm", "problem": {"kind": "quadratic", "dim": 5, "cond": 10.0},
         "eps": 0.001, "N": "auto", "seed": 5},
        "5e19526f5f6f5e8f5c0fbaedcc132a317f6427c7dd6afbbbb789d843724cee86",
        "8f930c0865220011d237e98930138f1d123f9a44230e8a6417f84d78180812c1"),
    "sstm_sc_ring4_noiseless": (
        {"method": "sstm_sc", "problem": {"kind": "consensus_quadratic", "n": 3, "cond": 4.0,
                                          "topology": {"kind": "ring", "m": 4}},
         "eps": 0.05, "N": 10, "seed": 7},
        "8231d03c4fa75a97cd5532d04d91f75dccc5699783f3ad8f12ce27bf05453310",
        "35af60740746c94b373b1502dec531c339119bc7a292106315647927111f38b7"),
    # cond 1: every node's Q is the identity
    "sstm_sc_ring4_identity": (
        {"method": "sstm_sc", "problem": {"kind": "consensus_quadratic", "n": 3, "cond": 1.0,
                                          "topology": {"kind": "ring", "m": 4}},
         "eps": 0.05, "N": 10, "seed": 7},
        "f2f64cb7042089163baa843f3ec2ea402160a333ac8adba64b969f3412a00057",
        "87d5e0f4caf17c5f4a4153d397c7c3578e8a4be873e26b6d275b4f1d3859340e"),
    "sstm_sc_ring12_noiseless": (
        {"method": "sstm_sc", "problem": {"kind": "consensus_quadratic", "n": 8, "cond": 10.0,
                                          "topology": {"kind": "ring", "m": 12}},
         "eps": 0.05, "N": 20, "seed": 11},
        "d76ea72143f81925ee5e7826a513aaafe9e893838187e4b99bc842aded20237d",
        "465b35e6cfdb9afe9b1f8634a34ff16a2ff6a1202bc2239fd6d21e7d80e9617b"),
    # auto N from the gap certificate: 251 steps
    "spdstm_penalty_auto": (
        {"method": "spdstm", "problem": {"kind": "penalty", "dim": 6, "m_rows": 3, "cond": 5.0},
         "eps": 0.02, "N": "auto", "seed": 3},
        "c218c06d798d666c8c798090d32e2017b7f4fea848af6dcf89c56a6eeb27d7a3",
        "c55a3707ecb1729faa5f23d7f54e99dadc519c07687344615618d3d6fdabb67a"),
    # auto N plans 47 steps; the measured gap reaches stop_gap after 5
    "spdstm_ring4_auto_stop_gap": (
        {"method": "spdstm", "problem": {"kind": "consensus_quadratic", "n": 3, "cond": 4.0,
                                         "topology": {"kind": "ring", "m": 4}},
         "eps": 0.05, "N": "auto", "seed": 7, "constants": {"stop_gap": -0.3}},
        "564abc3a1c95d7f2a40c7ec018e364bc82d8424d6b380e71bda55c8f6f44d645",
        "086eef32672b0d9ba656860ab8678b45b6527721184f819a73ef01abdfea1982"),
    # auto N gives ac_sa a budget of 100 steps and the default lambda
    "ac_sa_penalty_auto": (
        {"method": "ac_sa", "problem": {"kind": "penalty", "dim": 6, "m_rows": 3, "cond": 5.0},
         "eps": 0.02, "N": "auto", "seed": 3},
        "937516638e9f2d35e7a5e57f441440c368480dd963a4a08b010298289545e61b",
        "05919c6070043039132018db7df43f1c4fc1f43c03fa7f4eae54604d8a83b413"),
    # lambda and m_iters override the budget N and the default lambda
    "rrma_penalty_lambda": (
        {"method": "rrma", "problem": {"kind": "penalty", "dim": 6, "m_rows": 3, "cond": 5.0},
         "eps": 0.02, "N": 40, "seed": 3, "constants": {"lambda": 0.05, "m_iters": 30}},
        "aa83b957340629799c0b4e4b2ffe0b45f3f444db29977acf062c5226f8c364cd",
        "ebb17696b3b70c1642afeeb907a005c5cb64f3a99cbc4972bc9d5bebab12713b"),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_noisy_golden(tmp_path, capsys, name):
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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_noisy_run_is_byte_identical_to_golden(tmp_path, capsys, name):
    _check_noisy_golden(tmp_path, capsys, name)


def test_noisy_golden_without_batch_seeding(tmp_path, capsys, monkeypatch):
    # one default_rng per sample, the fallback path, gives the same bytes
    monkeypatch.setattr(oracles, "_BATCH_SEEDING", False)
    widths = []
    generators = oracles.RngStreams.generators
    monkeypatch.setattr(oracles.RngStreams, "generators",
                        lambda self, r: widths.append(r) or generators(self, r))
    _check_noisy_golden(tmp_path, capsys, "spdstm_gaussian_delta")
    assert max(widths) >= oracles._BATCH_MIN  # batches the batch path would have taken


@pytest.mark.parametrize("name", sorted(GOLDEN_DETERMINISTIC))
def test_deterministic_run_is_byte_identical_to_golden(tmp_path, capsys, name):
    cfg, csv_digest, summary_digest = GOLDEN_DETERMINISTIC[name]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    (csv,), (summary,) = list(out.glob("*.trace.csv")), list(out.glob("*.summary.json"))
    flags = csv.read_text().count("inner prox budget exhausted")
    assert flags == (12 if name == "stm_ips_budget_exhausted" else 0)
    assert _sha256(csv) == csv_digest
    assert _sha256(summary) == summary_digest


# four measures on five atoms, and the cost |x_i - x_j| on x = 0, 1/4, ..., 1
BARYCENTER_MEASURES = ((0.1, 0.2, 0.3, 0.2, 0.2), (0.3, 0.3, 0.2, 0.1, 0.1),
                       (0.05, 0.15, 0.2, 0.3, 0.3), (0.2, 0.2, 0.2, 0.2, 0.2))
BARYCENTER_COST = tuple(tuple(abs(i - j) / 4 for j in range(5)) for i in range(5))

GOLDEN_BARYCENTER = {
    "spdstm_barycenter_ring4_auto": (
        {"method": "spdstm",
         "problem": {"kind": "barycenter", "measures": "measures.csv", "cost": "cost.csv",
                     "mu": 0.2, "topology": {"kind": "ring", "m": 4}},
         "eps": 0.01, "N": "auto", "seed": 2},
        "c603cc2ef375378b2ffd6da68f72059de834eca5c333a103a8062d27839d4bfb",
        "a4c16243c20e315dd9c88a136089c92f615afa0192913313e4d34efc7bb3569a"),
}


def _csv_text(rows) -> str:
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)


@pytest.mark.parametrize("name", sorted(GOLDEN_BARYCENTER))
def test_barycenter_run_is_byte_identical_to_golden(tmp_path, capsys, monkeypatch, name):
    cfg, csv_digest, summary_digest = GOLDEN_BARYCENTER[name]
    monkeypatch.chdir(tmp_path)
    Path("measures.csv").write_text(_csv_text(BARYCENTER_MEASURES))
    Path("cost.csv").write_text(_csv_text(BARYCENTER_COST))
    Path("cfg.json").write_text(json.dumps(cfg))
    assert main(["run", "cfg.json", "--out", "out"]) == 0
    capsys.readouterr()
    (csv,), (summary,) = list(Path("out").glob("*.trace.csv")), list(Path("out").glob("*.summary.json"))
    assert _sha256(csv) == csv_digest
    assert _sha256(summary) == summary_digest


def _run_summary(cfg) -> dict:
    Path("cfg.json").write_text(json.dumps(cfg))
    assert main(["run", "cfg.json", "--out", "out"]) == 0
    (summary,) = list(Path("out").glob("*.summary.json"))
    return json.loads(summary.read_text())


def test_noisy_spdstm_seeds_a_pass_per_pass_width_of_samples(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    counts = count_seeding(monkeypatch)
    cfg = dict(GOLDEN["spdstm_gaussian_delta"][0], N=60)
    samples = _run_summary(cfg)["stoch_samples"]
    capsys.readouterr()
    assert samples > 2 * oracles._PASS  # several passes
    assert counts["_pcg64_words"] <= -(-samples // oracles._PASS) + 1
    assert counts["_raw_generator"] == 1


@pytest.mark.parametrize("cfg", [
    GOLDEN_BARYCENTER["spdstm_barycenter_ring4_auto"][0],
    GOLDEN_DETERMINISTIC["sstm_sc_ring12_noiseless"][0],
    GOLDEN_DETERMINISTIC["ac_sa_penalty_auto"][0],
], ids=["spdstm_barycenter", "sstm_sc_consensus", "ac_sa"])
def test_noiseless_runs_seed_nothing(tmp_path, capsys, monkeypatch, cfg):
    monkeypatch.chdir(tmp_path)
    Path("measures.csv").write_text(_csv_text(BARYCENTER_MEASURES))
    Path("cost.csv").write_text(_csv_text(BARYCENTER_COST))
    counts = count_seeding(monkeypatch)
    assert _run_summary(cfg)["iterations"] > 0
    capsys.readouterr()
    assert counts == {"_pcg64_words": 0, "_raw_generator": 0}
