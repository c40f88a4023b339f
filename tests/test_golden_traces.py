"""Golden traces: noisy and deterministic runs must keep their exact bytes.

Each config runs through ``optdec run`` and the sha256 digests of the trace
CSV and the summary JSON are compared with recorded digests (numpy 2.4,
x86-64).  The configs use built-in problem kinds only, so ``config_hash``
hashes no file paths.

``GOLDEN`` holds noisy runs, recorded when each batch first drew all its
rows from its one stream ``SeedSequence(seed, spawn_key=path)``: any change
to how a batch is seeded, drawn or summed changes a digest.  Its bias-only
run (``delta`` 0.01, ``sigma`` 0) was recorded while such an oracle still
drew zero rows; since ``sigma = 0`` became the one spelling of "no noise"
it draws none, with the same bytes.
``GOLDEN_DETERMINISTIC`` holds noiseless runs of the similar-triangles
kernel, recorded before its in-place step: any change to the order of a
floating-point operation in ``schedules.triangle``, the mirror updates or
the inner prox of ``stm_ips`` changes a digest; its two ``spdstm`` runs
with ``N: "auto"``, one on a single machine and one on a ring with
``stop_gap``, pin the dual planning and run path.  The ``stop_gap`` run
was re-recorded when a stop came to need the feasibility target
``||A x~|| R_y <= eps`` besides the gap.  The two ``stm_ips`` runs were
re-recorded when the inner prox took its split form, ``grad g(z) = (z - c0)
+ alpha grad_h(z)`` with ``grad_h`` the one product of the prescaled
penalty matrix ``2 coeff A^T A``, whose mirror update no longer goes
through ``x~``: that rounds differently.  Their steps and counters stayed
(``matvec_AtA`` 96 and 1976) and their metrics moved by at most 1.1e-13
relative, as
``test_stm_ips_golden_moves_only_by_rounding_off_the_expression_form``
checks against the digests the expression form still writes.  They were
re-recorded again when the inner prox became one table of step
coefficients over a stacked ``(6, n)`` buffer of rows, whose products
round differently again: steps, counters and the 12 flags stayed, and the
metrics moved by at most 1.1e-13 relative, as
``test_stm_ips_golden_moves_only_by_rounding_off_the_split_form`` checks
against the digests the split form still writes.  The single-machine
``ac_sa`` and ``rrma`` runs in both tables, recorded before these methods
ran through the one run path ``methods.run_method``, pin how their budget
and weight ``lambda`` follow from ``N`` and the constants.  The
``rrma_penalty_lambda`` config once set the budget with a constant
``m_iters`` of 30 beside ``N`` 40; since the budget is ``N`` alone it sets
``N`` 30, and its two digests in each table were re-recorded: its trace and
summary differ from the old ones only in ``config_hash``.
Six runs on a single machine's quadratic were re-recorded when its conjugate
argmax became a product with the inverse cached at build time, instead of
one ``solve`` per call, and the restart regulariser became one quadratic
``s y - t``, instead of a loop over its list of shifts: both round
differently.  Their steps and counters stayed, and their metrics moved by
rounding, as ``test_golden_moves_only_by_rounding_off_the_solve_and_shift_list``
checks against the digests the old forms still write.  The
``consensus_quadratic`` runs on a ring of 12 nodes with ``n`` 8 and at
``cond`` 1, recorded before the node quadratics were built as one stack,
pin how each node's ``Q`` and ``b`` are drawn and decomposed.
``GOLDEN_BARYCENTER`` holds a decentralized ``barycenter`` run whose auto
``N`` follows from ``R_y``, the bound centred on the minimisers of the
local objectives; its measure and cost CSVs are written next to the config
and named by relative paths, so ``config_hash`` does not depend on where
the test runs.  It was re-recorded when the node marginals came to be
computed from a cached Gibbs kernel instead of the log-domain plan: its
steps and counters stayed, and its metrics moved by rounding
(``dual_gap`` by 1.1e-16), as
``test_barycenter_golden_moves_only_by_rounding_off_the_log_domain`` checks
against the digests the log-domain path still writes.  Both its tables were
re-recorded again when a barycenter node came to declare its conjugate
``W*`` in closed form, so that ``psi`` is the declared value instead of
``<u, x(u)> - f(x(u))`` with ``f`` from a dual ascent to 1e-10: the final
``dual_gap`` moved by 1.1e-16 on the kernel path, and steps and counters
stayed, as ``test_barycenter_golden_moves_only_by_rounding_off_the_ascent_psi``
checks against the digests both paths still write without the declared value.

The summaries of decentralized runs, in every table, were recorded when
the summary first read each ``final_*`` metric from the last row that
carries it; the noiseless ones kept their older trace CSVs.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import optdec.dual
import optdec.methods
import optdec.network
import optdec.oracles as oracles
import optdec.primal
import optdec.problems
from conftest import (ShiftByShiftRegularizedDual, count_seeding, expression_form_inner_prox,
                      solve_argmax, split_form_inner_prox)
from optdec.cli import main

GOLDEN = {
    "spdstm_gaussian_delta": (
        {"method": "spdstm", "problem": {"kind": "penalty", "dim": 6, "m_rows": 3, "cond": 5.0},
         "noise": {"kind": "gaussian", "sigma": 0.3, "delta": 0.001},
         "eps": 0.02, "N": 12, "seed": 3},
        "4b60822551bc8f8fb027585d8be7ded9b01b3e0a659cdfaa1440a29f4b6fbaf9",
        "ddd9849c8e9687025eeefcd4064b87c58a2bdc3fffee21750fcda1fddf14a9cb"),
    "sstm_bounded": (
        {"method": "sstm", "problem": {"kind": "quadratic", "dim": 5, "cond": 10.0},
         "noise": {"kind": "bounded", "sigma": 0.2}, "eps": 0.001, "N": 15, "seed": 5},
        "a62c053fa70c9753beb8f721a080b59f3fd58a982b9fe58b4e7b776113beb2f6",
        "efb6e78793a12b58fad2d37141418beed12b5a10fff687a4606b5d41bdb90312"),
    "sstm_sc_ring4": (
        {"method": "sstm_sc", "problem": {"kind": "consensus_quadratic", "n": 3, "cond": 4.0,
                                          "topology": {"kind": "ring", "m": 4}},
         "noise": {"kind": "gaussian", "sigma": 0.1, "delta": 0.001},
         "eps": 0.05, "N": 10, "seed": 7},
        "86b9daa67d1c686a392b4572364e1a5585e6c9b87ae4dbfaaed25bb8b69e7c0b",
        "69e182f5c8e482393c26033aaf7649724189875368c721d2059b4eac92663762"),
    "ac_sa_gaussian_delta": (
        {"method": "ac_sa", "problem": {"kind": "penalty", "dim": 6, "m_rows": 3, "cond": 5.0},
         "noise": {"kind": "gaussian", "sigma": 0.3, "delta": 0.001},
         "eps": 0.02, "N": 40, "seed": 3},
        "36f344c78e2c7eb5187f63673460ce57a797b41fa0730681395a8fea3b785878",
        "72da388d41bf373311e60d6f41af8b8241bee3c463e73e56b89bd279043b998a"),
    "rrma_gaussian_delta": (
        {"method": "rrma", "problem": {"kind": "penalty", "dim": 6, "m_rows": 3, "cond": 5.0},
         "noise": {"kind": "gaussian", "sigma": 0.3, "delta": 0.001},
         "eps": 0.02, "N": 40, "seed": 3},
        "95b9cf8ff34f8245582a9829c94555a2b464f8731ac0dc011882f3e30e17b1bc",
        "2a1b7d9f17ba852e463c914ad7c1308f3e2a5b93fd009915f3215a34d71fd132"),
    # bias only (sigma 0): each sample is its batch's centre, drawn from no stream
    "spdstm_penalty_bias_only": (
        {"method": "spdstm", "problem": {"kind": "penalty", "dim": 6, "m_rows": 3, "cond": 5.0},
         "noise": {"delta": 0.01}, "eps": 0.02, "N": 30, "seed": 3},
        "2d41cd1e420eb88b2087533c6e52f8126c3e55e481c3e4aae8f5774f47ea657a",
        "5c1474de8aed786bbdceaee9f32391036b4e6a15e8fe211bb11261bc4579b14d"),
    "spdstm_ring12_gaussian": (
        {"method": "spdstm", "problem": {"kind": "consensus_quadratic", "n": 8, "cond": 10.0,
                                         "topology": {"kind": "ring", "m": 12}},
         "noise": {"kind": "gaussian", "sigma": 0.1, "delta": 0.001},
         "eps": 0.05, "N": 12, "seed": 11},
        "b3d769e79ffa42c6b2ce04e1b7d5ed7ec9b206e70fe21bc81938bce8369278a9",
        "9d89b7828ff04ae0f5221b1b7c1ef2cdbc98df9fa1a5492dbe5def08e0b0cdb4"),
}


GOLDEN_DETERMINISTIC = {
    # inner_T = 3 exhausts every inner-prox budget: 12 flags in the trace
    "stm_ips_budget_exhausted": (
        {"method": "stm_ips", "problem": {"kind": "penalty", "dim": 6, "m_rows": 3, "cond": 5.0},
         "eps": 0.02, "N": 12, "seed": 3, "constants": {"inner_T": 3}},
        "6ef07c1d0bf07c0cc70e08ef53a7a22143015b8b792266e5e66e5272aa60cc8d",
        "83de0b2c5ac19a79fba652703c95fbd80aad6be7cbd5461357638b1f556176ab"),
    # default budgets: every inner prox is certified before its budget runs out
    "stm_ips_default_budget": (
        {"method": "stm_ips", "problem": {"kind": "penalty", "dim": 6, "m_rows": 3, "cond": 5.0},
         "eps": 0.02, "N": 12, "seed": 4},
        "3c6c95fd9e80f28d49669c9bb81c5229e7725939bb8440f2d1ec6af65770c52e",
        "2ebccb47af5d4cde2fb92b7e2095ce3497e93b8111d3f82d679c0d20abf6c634"),
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
        "dd4981605f24e6198049c2dea666791599095fe748135ad6b805c66e07612919"),
    # cond 1: every node's Q is the identity
    "sstm_sc_ring4_identity": (
        {"method": "sstm_sc", "problem": {"kind": "consensus_quadratic", "n": 3, "cond": 1.0,
                                          "topology": {"kind": "ring", "m": 4}},
         "eps": 0.05, "N": 10, "seed": 7},
        "f2f64cb7042089163baa843f3ec2ea402160a333ac8adba64b969f3412a00057",
        "2c63c4df3ba4faf309c81c251159041cccec158743b1196d1bc970ab48db5328"),
    "sstm_sc_ring12_noiseless": (
        {"method": "sstm_sc", "problem": {"kind": "consensus_quadratic", "n": 8, "cond": 10.0,
                                          "topology": {"kind": "ring", "m": 12}},
         "eps": 0.05, "N": 20, "seed": 11},
        "d76ea72143f81925ee5e7826a513aaafe9e893838187e4b99bc842aded20237d",
        "de36d6b74f4d505f30577c411709b7a401b38b6302b0647e24637dadbbc6d9e0"),
    # auto N from the gap certificate: 251 steps
    "spdstm_penalty_auto": (
        {"method": "spdstm", "problem": {"kind": "penalty", "dim": 6, "m_rows": 3, "cond": 5.0},
         "eps": 0.02, "N": "auto", "seed": 3},
        "327ee1bf138308704bf07fc0510cd685d30d16b428209bf7f9d3a47f7d1c65a4",
        "ca17507e002d0a4ee2345b75508ea11a78617c0ce3a47e3d1994c54c5c287008"),
    # auto N plans 47 steps; the measured gap is at most stop_gap only at steps
    # 5-10, where ||A x~|| R_y is 0.53-0.96 > eps, and a stop needs both: all 47 run
    "spdstm_ring4_auto_stop_gap": (
        {"method": "spdstm", "problem": {"kind": "consensus_quadratic", "n": 3, "cond": 4.0,
                                         "topology": {"kind": "ring", "m": 4}},
         "eps": 0.05, "N": "auto", "seed": 7, "constants": {"stop_gap": -0.3}},
        "c9de5508dece6ab01f462cf7fa993acf4aca5ffefec68dd016093dbe5934a8ac",
        "eb5d39c4c1de0df23d0d13507c68d7bcfd46d29a07dcfbeb530f30cbd48a7a0d"),
    # auto N gives ac_sa a budget of 100 steps and the default lambda
    "ac_sa_penalty_auto": (
        {"method": "ac_sa", "problem": {"kind": "penalty", "dim": 6, "m_rows": 3, "cond": 5.0},
         "eps": 0.02, "N": "auto", "seed": 3},
        "4ca88bcac8e7af5090dcbf259be49b21237b19a4fce419f2afc6d93a1b6bfdc7",
        "2be033c5d0ae704f3395f5300935d62a7b0de53feb68b3586c4662ce5decdb01"),
    # lambda overrides the default lambda
    "rrma_penalty_lambda": (
        {"method": "rrma", "problem": {"kind": "penalty", "dim": 6, "m_rows": 3, "cond": 5.0},
         "eps": 0.02, "N": 30, "seed": 3, "constants": {"lambda": 0.05}},
        "0a8d894f16686072f943569011747860e4e252b2b722df048e4b2934ba1a5be3",
        "12660efba8894c5ea899795883620cb041c3f0b573eb011625a82ee8db27b654"),
}

# the digests of the two stm_ips runs when the inner prox runs in expression form
EXPRESSION_FORM_STM_IPS = {
    "stm_ips_budget_exhausted": (
        "02df234a3f794642768d48639ed7ff573f6edb0faaee6d663816cd533a33ef7b",
        "5bd15ba00d6a39bc9760a27add8e5c2d9a581f10c5ea1d57b1cffd1a82596b72"),
    "stm_ips_default_budget": (
        "3ca6e5052972b11011cb222788baed0cd8cd349e19566aa0a3b314047808807a",
        "9bdcba1f10d2d7b4772db0523e7b2f3f2721be3a960e5aa05d7c10042b282049"),
}

# the digests of the two stm_ips runs when the inner prox runs in split form
SPLIT_FORM_STM_IPS = {
    "stm_ips_budget_exhausted": (
        "7ade303ee844f84b71ed30b7b69fd908c7b57ce29f2171584067ecc26facac0b",
        "db900965379f47a64b77056b10ad0d1ffca9caa9801d890b280a93938905f24c"),
    "stm_ips_default_budget": (
        "012a25ddb197069bd37afb41ab221f1c5bf584daaefe7f21f614d1ee44037b96",
        "7824956b5a1f44b871530e8951a463cfccc86b0113bf5a8536e96d729d4a8e10"),
}

# the digests of the moved runs with a per-call ``solve`` argmax and the shift-by-shift regulariser
SOLVE_AND_SHIFT_LIST = {
    "ac_sa_gaussian_delta": (
        "2fa3963635eccd468387e8d8dd8eae25c7c9e372cb073193d761572e7156b95a",
        "c6ad184b172d72bd65b401bc73a839d2df5e35f0dad15f2803f53418c22a9ef1"),
    "ac_sa_penalty_auto": (
        "937516638e9f2d35e7a5e57f441440c368480dd963a4a08b010298289545e61b",
        "05919c6070043039132018db7df43f1c4fc1f43c03fa7f4eae54604d8a83b413"),
    "rrma_penalty_lambda": (
        "e86660738b12bb128126bbc69f346d1fe8577223151f8ed20dbdc06d1537579b",
        "2d8b4aac974c39527bcad5c0225d87770ba54e5e2766456ad116fd47a5c9389c"),
    "spdstm_gaussian_delta": (
        "c52c41db97fd97a1fe65767bf462c4ff59166930ca53badb7434d064cd3725ea",
        "fcf9f8d1284ce7adee2d7d225d374fef753577527f45e25c9a7c46966fc7c735"),
    "spdstm_penalty_auto": (
        "c218c06d798d666c8c798090d32e2017b7f4fea848af6dcf89c56a6eeb27d7a3",
        "c55a3707ecb1729faa5f23d7f54e99dadc519c07687344615618d3d6fdabb67a"),
    "spdstm_penalty_bias_only": (
        "08bc917153de66fb4ab4223955c260575cf6bf0ded69cfa03c860048087cc93e",
        "483e89980aa44bbc303e248c8b6ebb94a1858436d83ef84cb79aba4edb2cfca1"),
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
        "37554ed0dfb579e57d8c5158db988c46d6e3cda6f3c6abbeeeb8870a1d7f3602",
        "e328c3fa42396b1bb8b3c52b8383bcb605cb63ccf38f4d71a0c9867164f9ad68"),
}
# the digests of that run when every marginal takes the log-domain plan
LOG_DOMAIN_BARYCENTER = {
    "spdstm_barycenter_ring4_auto": (
        "bf5a01159bff154a46370f7bbc5f84dbc9ecbe353e5b5bb2ea62e876e190c325",
        "b8253e99532d699c076fdbb6ad3461dc28a29c11b6e3ed42159a25dbcdc3c0e7"),
}
# the digests both paths wrote while psi came from <u, x(u)> - f(x(u)), f by dual ascent
ASCENT_PSI_BARYCENTER = {
    ("spdstm_barycenter_ring4_auto", "kernel"): (
        "39dae6def80d3ffc232151768ebe9568e45a03d95ff5b3c2ff57ca262885a5f3",
        "23f2433e36b8e5553ab85319506ce787b1aff5ef9610ce577c0e3e857b856901"),
    ("spdstm_barycenter_ring4_auto", "log_domain"): (
        "c603cc2ef375378b2ffd6da68f72059de834eca5c333a103a8062d27839d4bfb",
        "f0eb1e467b57f73c91304bcf3ac6cc8ec68e5344372159369af0c8ebab7b0aa9"),
}


def _csv_text(rows) -> str:
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)


def _golden_run(cfg, out):
    """Run ``cfg`` in the working directory; the trace CSV and summary paths."""
    Path("cfg.json").write_text(json.dumps(cfg))
    assert main(["run", "cfg.json", "--out", out]) == 0
    (csv,), (summary,) = list(Path(out).glob("*.trace.csv")), list(Path(out).glob("*.summary.json"))
    return csv, summary


def _barycenter_run(cfg, out):
    """Run ``cfg`` on the golden measures and cost; the trace CSV and summary paths."""
    Path("measures.csv").write_text(_csv_text(BARYCENTER_MEASURES))
    Path("cost.csv").write_text(_csv_text(BARYCENTER_COST))
    return _golden_run(cfg, out)


@pytest.mark.parametrize("name", sorted(GOLDEN_BARYCENTER))
def test_barycenter_run_is_byte_identical_to_golden(tmp_path, capsys, monkeypatch, name):
    cfg, csv_digest, summary_digest = GOLDEN_BARYCENTER[name]
    monkeypatch.chdir(tmp_path)
    csv, summary = _barycenter_run(cfg, "out")
    capsys.readouterr()
    assert _sha256(csv) == csv_digest
    assert _sha256(summary) == summary_digest


def _trace_rows(csv) -> list:
    return [line.split(",") for line in csv.read_text().splitlines() if not line.startswith("#")]


def _assert_moved_only_by_rounding(csv, csv_before, rel):
    """Equal ``iter``, ``A_k`` and counters, digit for digit, and metrics within ``rel``."""
    (header, *rows), (header_before, *rows_before) = _trace_rows(csv), _trace_rows(csv_before)
    assert header == header_before and len(rows) == len(rows_before)
    metrics = {"f_gap", "dual_gap", "grad_norm", "constraint_norm"}
    for row, row_before in zip(rows, rows_before):
        for key, value, value_before in zip(header, row, row_before):
            if key in metrics and value != value_before:
                assert abs(float(value) - float(value_before)) <= rel * abs(float(value_before))
            else:
                assert value == value_before


@pytest.mark.parametrize("name", sorted(GOLDEN_BARYCENTER))
def test_barycenter_golden_moves_only_by_rounding_off_the_log_domain(tmp_path, capsys, monkeypatch,
                                                                     name):
    # a range limit of 0 sends every marginal down the log-domain path, which
    # still writes the digests recorded before the Gibbs kernel
    monkeypatch.chdir(tmp_path)
    kernel, _ = _barycenter_run(GOLDEN_BARYCENTER[name][0], "kernel")
    monkeypatch.setattr(optdec.problems, "KERNEL_RANGE", 0.0)
    log_domain, summary = _barycenter_run(GOLDEN_BARYCENTER[name][0], "log_domain")
    capsys.readouterr()
    assert (_sha256(log_domain), _sha256(summary)) == LOG_DOMAIN_BARYCENTER[name]
    _assert_moved_only_by_rounding(kernel, log_domain, 1e-12)


@pytest.mark.parametrize("name, path", sorted(ASCENT_PSI_BARYCENTER))
def test_barycenter_golden_moves_only_by_rounding_off_the_ascent_psi(tmp_path, capsys,
                                                                     monkeypatch, name, path):
    # a stacked oracle that declares no conjugate value takes psi from the
    # ascents, which still writes the digests recorded before W* was declared
    monkeypatch.chdir(tmp_path)
    if path == "log_domain":
        monkeypatch.setattr(optdec.problems, "KERNEL_RANGE", 0.0)
    declared, _ = _barycenter_run(GOLDEN_BARYCENTER[name][0], "declared")
    build = optdec.network.DecentralizedInstance.__init__

    def undeclared(self, *args, **kwargs):
        build(self, *args, **kwargs)
        self.stacked.conjugate_value = None

    monkeypatch.setattr(optdec.network.DecentralizedInstance, "__init__", undeclared)
    ascent, summary = _barycenter_run(GOLDEN_BARYCENTER[name][0], "ascent")
    capsys.readouterr()
    assert (_sha256(ascent), _sha256(summary)) == ASCENT_PSI_BARYCENTER[name, path]
    _assert_moved_only_by_rounding(declared, ascent, 1e-12)


def _counting(reference):
    """``reference`` as a drop-in ``_inner_prox_stm``; it counts its products itself."""
    def inner_prox(problem, z_k, alpha, lin, delta, budget):
        z, gap, converged, products, _ = reference(problem, z_k, alpha, lin, delta, budget)
        problem.counter.matvec_AtA += products
        return z, gap, converged
    return inner_prox


def _assert_stm_ips_moved_only_by_rounding(monkeypatch, name, reference, digests):
    table, _ = _golden_run(GOLDEN_DETERMINISTIC[name][0], "table")
    monkeypatch.setattr(optdec.primal, "_inner_prox_stm", _counting(reference))
    before, summary = _golden_run(GOLDEN_DETERMINISTIC[name][0], "reference")
    assert (_sha256(before), _sha256(summary)) == digests
    _assert_moved_only_by_rounding(table, before, 1e-10)


@pytest.mark.parametrize("name", sorted(EXPRESSION_FORM_STM_IPS))
def test_stm_ips_golden_moves_only_by_rounding_off_the_expression_form(tmp_path, capsys,
                                                                       monkeypatch, name):
    # the expression-form inner prox still writes the digests recorded before the split form
    monkeypatch.chdir(tmp_path)
    _assert_stm_ips_moved_only_by_rounding(monkeypatch, name, expression_form_inner_prox,
                                           EXPRESSION_FORM_STM_IPS[name])
    capsys.readouterr()


@pytest.mark.parametrize("name", sorted(SPLIT_FORM_STM_IPS))
def test_stm_ips_golden_moves_only_by_rounding_off_the_split_form(tmp_path, capsys, monkeypatch,
                                                                  name):
    # the split-form inner prox still writes the digests recorded before the table form
    monkeypatch.chdir(tmp_path)
    _assert_stm_ips_moved_only_by_rounding(monkeypatch, name, split_form_inner_prox,
                                           SPLIT_FORM_STM_IPS[name])
    capsys.readouterr()


@pytest.mark.parametrize("name", sorted(SOLVE_AND_SHIFT_LIST))
def test_golden_moves_only_by_rounding_off_the_solve_and_shift_list(tmp_path, capsys, monkeypatch,
                                                                    name):
    # a per-call solve and the shift-by-shift regulariser still write the
    # digests recorded before the cached inverse and the one-quadratic regulariser
    monkeypatch.chdir(tmp_path)
    cfg = {**GOLDEN, **GOLDEN_DETERMINISTIC}[name][0]
    cached, _ = _golden_run(cfg, "cached")
    monkeypatch.setattr(optdec.problems.QuadraticProblem, "conjugate_argmax", solve_argmax)
    monkeypatch.setattr(optdec.dual, "RegularizedDual", ShiftByShiftRegularizedDual)
    monkeypatch.setattr(optdec.methods, "RegularizedDual", ShiftByShiftRegularizedDual)
    solved, summary = _golden_run(cfg, "solved")
    capsys.readouterr()
    assert (_sha256(solved), _sha256(summary)) == SOLVE_AND_SHIFT_LIST[name]
    _assert_moved_only_by_rounding(cached, solved, 1e-12)


def _run_summary(cfg) -> dict:
    Path("cfg.json").write_text(json.dumps(cfg))
    assert main(["run", "cfg.json", "--out", "out"]) == 0
    (summary,) = list(Path("out").glob("*.summary.json"))
    return json.loads(summary.read_text())


def test_noisy_spdstm_builds_one_stream_per_batch(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    counts = count_seeding(monkeypatch)
    cfg = dict(GOLDEN["spdstm_gaussian_delta"][0], N=60)
    samples = _run_summary(cfg)["stoch_samples"]
    capsys.readouterr()
    assert samples > 2000  # batches of many rows
    assert counts["streams"] == 60  # one batch per step


@pytest.mark.parametrize("cfg", [
    GOLDEN_BARYCENTER["spdstm_barycenter_ring4_auto"][0],
    GOLDEN_DETERMINISTIC["sstm_sc_ring12_noiseless"][0],
    GOLDEN_DETERMINISTIC["ac_sa_penalty_auto"][0],
    GOLDEN["spdstm_penalty_bias_only"][0],
], ids=["spdstm_barycenter", "sstm_sc_consensus", "ac_sa", "spdstm_bias_only"])
def test_noiseless_runs_seed_nothing(tmp_path, capsys, monkeypatch, cfg):
    monkeypatch.chdir(tmp_path)
    Path("measures.csv").write_text(_csv_text(BARYCENTER_MEASURES))
    Path("cost.csv").write_text(_csv_text(BARYCENTER_COST))
    counts = count_seeding(monkeypatch)
    assert _run_summary(cfg)["iterations"] > 0
    capsys.readouterr()
    assert counts == {"streams": 0}


# One noisy run of each batched dual method.  Between them they build every
# build stream (``(seed, i)`` for i = 0, ..., 3) and the topology stream
# ``(seed, 7)``, next to their batches' streams.
SEEDED_RUNS = {
    "spdstm": GOLDEN["spdstm_gaussian_delta"][0],
    "sstm_sc": {"method": "sstm_sc",
                "problem": {"kind": "consensus_quadratic", "n": 3, "cond": 4.0,
                            "topology": {"kind": "erdos_renyi", "m": 5, "p": 0.6}},
                "noise": {"kind": "gaussian", "sigma": 0.1}, "eps": 0.05, "N": 10, "seed": 7},
    "ac_sa": GOLDEN["ac_sa_gaussian_delta"][0],
    # two restarts: probes, trajectories and selection batches
    "restarted_rrma": {"method": "restarted_rrma",
                       "problem": {"kind": "penalty", "dim": 6, "m_rows": 3, "cond": 5.0},
                       "noise": {"kind": "gaussian", "sigma": 0.02}, "eps": 0.5, "seed": 3},
}


@pytest.mark.parametrize("name", sorted(SEEDED_RUNS))
def test_every_stream_of_a_noisy_run_is_distinct(tmp_path, capsys, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    states, paths = [], []
    default_rng, generator = np.random.default_rng, oracles.RngStreams.generator

    def recorded_rng(seed):
        key = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        states.append(key.generate_state(4).tobytes())
        return default_rng(key)

    def recorded_generator(self, *index):
        paths.append(self.path + index)
        return generator(self, *index)

    monkeypatch.setattr(np.random, "default_rng", recorded_rng)
    monkeypatch.setattr(oracles.RngStreams, "generator", recorded_generator)
    assert _run_summary(SEEDED_RUNS[name])["stoch_samples"] > 0
    capsys.readouterr()
    assert paths and () not in paths  # no batch draws from the seed's own stream
    assert len(set(states)) == len(states)
