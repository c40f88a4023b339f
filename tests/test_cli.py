import csv
import gc
import importlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import optdec.cli as cli
import optdec.dual
import optdec.methods
from optdec.cli import (ConfigError, apply_sweep_value, config_hash, main,
                        validate_config)
from optdec.methods import CONSTANTS, METHODS, RUN_SETTINGS, Machine, run_method
from optdec.network import (DistributedDualOracle, Topology, _dual_norm_bound, chi,
                            laplacian, run_distributed)
from optdec.oracles import COUNTERS, NoiseSpec
from optdec.schedules import grad_certificate_N
from optdec.trace import RunTrace


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def quad_config(**over):
    cfg = {"method": "stm", "problem": {"kind": "quadratic", "dim": 6, "cond": 20.0},
           "eps": 1e-3, "seed": 1}
    cfg.update(over)
    return cfg


# ---------------------------------------------------------------------------
# validation


def test_validate_rejects_unknown_top_level_key():
    with pytest.raises(ConfigError):
        validate_config(quad_config(bogus=3))


def test_validate_rejects_unknown_problem_key():
    cfg = quad_config()
    cfg["problem"]["weird"] = 1
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_validate_rejects_unknown_method():
    with pytest.raises(ConfigError):
        validate_config(quad_config(method="sgd"))


def test_validate_requires_topology_for_decentralized():
    cfg = {"method": "sstm_sc", "problem": {"kind": "consensus_quadratic", "n": 2}}
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_validate_method_problem_compatibility():
    with pytest.raises(ConfigError):
        validate_config({"method": "stm",
                         "problem": {"kind": "consensus_quadratic", "n": 2,
                                     "topology": {"kind": "ring", "m": 3}}})


# ---------------------------------------------------------------------------
# run command


def test_run_writes_summary_and_certificate(tmp_path):
    cfgp = write_config(tmp_path, quad_config())
    assert main(["run", str(cfgp), "--out", str(tmp_path)]) == 0
    summary = json.loads(next(tmp_path.glob("*.summary.json")).read_text())
    assert summary["final_f_gap"] <= summary["certificate_bound"]
    assert summary["grad_calls"] == summary["iterations"]


def test_run_byte_identical_traces(tmp_path):
    cfgp = write_config(tmp_path, quad_config(method="sstm",
                                              noise={"sigma": 0.2}, N=60))
    assert main(["run", str(cfgp), "--out", str(tmp_path)]) == 0
    trace_path = next(tmp_path.glob("*.trace.csv"))
    first = trace_path.read_bytes()
    assert main(["run", str(cfgp), "--out", str(tmp_path)]) == 0
    assert trace_path.read_bytes() == first


def test_run_seed_changes_hash(tmp_path):
    cfgp = write_config(tmp_path, quad_config())
    main(["run", str(cfgp), "--out", str(tmp_path)])
    main(["run", str(cfgp), "--out", str(tmp_path), "--seed", "99"])
    assert len(list(tmp_path.glob("*.summary.json"))) == 2


def test_run_invalid_config_exit_2(tmp_path):
    cfgp = write_config(tmp_path, quad_config(bogus=1))
    assert main(["run", str(cfgp), "--out", str(tmp_path)]) == 2


def test_run_missing_topology_exit_2(tmp_path):
    cfgp = write_config(tmp_path, {"method": "spdstm",
                                   "problem": {"kind": "consensus_quadratic", "n": 2}})
    assert main(["run", str(cfgp), "--out", str(tmp_path)]) == 2


def test_run_decentralized_consensus(tmp_path):
    cfg = {"method": "sstm_sc",
           "problem": {"kind": "consensus_quadratic", "n": 2,
                       "topology": {"kind": "ring", "m": 4}},
           "eps": 1e-4, "N": 300, "seed": 2,
           "constants": {"metric_every": 50}}
    cfgp = write_config(tmp_path, cfg)
    assert main(["run", str(cfgp), "--out", str(tmp_path)]) == 0
    summary = json.loads(next(tmp_path.glob("*.summary.json")).read_text())
    assert summary["consensus_residual"] <= 1e-3
    assert summary["chi"] == pytest.approx(chi(laplacian(Topology.ring(4))))
    assert summary["comm_rounds"] > 0


def test_run_dual_methods_on_penalty_problem(tmp_path):
    for method in ("spdstm", "sstm_sc", "restarted_rrma", "ac_sa", "rrma"):
        # each method gets the constants of its own record
        constants = {key: value for key, value in {"metric_every": 50, "m_iters": 60}.items()
                     if key in cli.METHODS[method].constants}
        cfg = {"method": method,
               "problem": {"kind": "penalty", "dim": 4, "cond": 5.0, "m_rows": 2},
               "eps": 1e-3, "N": 200, "seed": 3, "constants": constants}
        cfgp = write_config(tmp_path, cfg, name=f"{method}.json")
        assert main(["run", str(cfgp), "--out", str(tmp_path)]) == 0, method


def run_summary(tmp_path, cfg, name="cfg.json"):
    """Summary and trace rows of one `optdec run` of ``cfg``."""
    out = tmp_path / name.removesuffix(".json")
    assert main(["run", str(write_config(tmp_path, cfg, name)), "--out", str(out)]) == 0
    summary = json.loads(next(out.glob("*.summary.json")).read_text())
    lines = [line for line in next(out.glob("*.trace.csv")).read_text().splitlines()
             if not line.startswith("#")]
    header = lines[0].split(",")
    return summary, [dict(zip(header, line.split(","))) for line in lines[1:]]


def penalty_config(method, **constants):
    return {"method": method, "problem": {"kind": "penalty", "dim": 6, "m_rows": 3, "cond": 5.0},
            "eps": 0.02, "N": "auto", "seed": 3, "constants": constants}


def test_stop_gap_ends_single_machine_spdstm_early(tmp_path, capsys):
    # the measured gap is negative while x~ is infeasible, so a stop also
    # needs the feasibility target ||A x~|| R_y <= eps: here it first holds at 206
    eps = 0.02
    full, _ = run_summary(tmp_path, penalty_config("spdstm"), "full.json")
    stopped, rows = run_summary(tmp_path, penalty_config("spdstm", stop_gap=eps), "stop.json")
    assert 1 < stopped["iterations"] < full["iterations"]
    assert stopped["final_dual_gap"] <= eps
    assert stopped["final_constraint_norm"] * stopped["R_y"] <= eps
    before = rows[-2]
    assert (float(before["dual_gap"]) > eps
            or float(before["constraint_norm"]) * stopped["R_y"] > eps)


def test_stop_grad_norm_ends_single_machine_sstm_sc_early(tmp_path, capsys):
    cfg = {**penalty_config("sstm_sc", stop_grad_norm=0.05), "N": 200}
    summary, _ = run_summary(tmp_path, cfg)
    assert summary["iterations"] < 200
    assert summary["final_grad_norm"] <= 0.05


def test_spdstm_measures_its_last_step(tmp_path, capsys):
    # with N 20 and metric_every 7 spdstm measured rows 7 and 14 only, and its summary read
    # row 14 as final (dual gap -1.8546 where row 20 reads -1.6110)
    cfg = {**penalty_config("spdstm", metric_every=7), "eps": 0.01, "N": 20}
    summary, rows = run_summary(tmp_path, cfg, "every7.json")
    every, every_rows = run_summary(tmp_path, {**cfg, "constants": {"metric_every": 1}},
                                    "every1.json")
    assert [row["iter"] for row in rows if row["dual_gap"]] == ["7", "14", "20"]
    assert rows[-1]["iter"] == every_rows[20]["iter"] == "20" and rows[-1]["constraint_norm"]
    for name in ("dual_gap", "constraint_norm"):
        assert summary[f"final_{name}"] == every[f"final_{name}"] == float(every_rows[20][name])


def test_decentralized_summary_reads_each_metric_from_its_last_row(tmp_path, capsys):
    # metrics every 10 steps, then the network runner's closing row of counters only
    cfg = {"method": "spdstm", "problem": {"kind": "consensus_quadratic", "n": 3, "cond": 5.0,
                                           "topology": {"kind": "ring", "m": 6}},
           "eps": 1e-2, "N": 60, "seed": 1, "constants": {"metric_every": 10}}
    summary, rows = run_summary(tmp_path, cfg)
    assert rows[-1]["dual_gap"] == rows[-1]["constraint_norm"] == ""
    assert summary["final_dual_gap"] == float(rows[-2]["dual_gap"]) == pytest.approx(-0.0164, abs=1e-4)
    assert summary["final_constraint_norm"] == float(rows[-2]["constraint_norm"])
    assert summary["final_grad_norm"] is None  # spdstm records no gradient norm


def auto_config(method, **constants):
    if method in ("stm", "sstm"):
        return quad_config(method=method, N="auto", constants=constants)
    return penalty_config(method, **constants)


@pytest.mark.parametrize("method", ["spdstm", "sstm_sc", "stm", "sstm", "stm_ips"])
def test_max_N_caps_single_machine_auto_N(tmp_path, capsys, method):
    full, _ = run_summary(tmp_path, auto_config(method), "full.json")
    capped, _ = run_summary(tmp_path, auto_config(method, max_N=30), "capped.json")
    assert full["iterations"] > 30
    assert capped["iterations"] == 30
    assert full["flags"] == []
    assert capped["flags"] == ["auto N stopped at max_N 30 before its certificate held"]
    # a cap the certificate is met at is not a stop
    exact, _ = run_summary(tmp_path, auto_config(method, max_N=full["iterations"]),
                           "exact.json")
    assert exact["iterations"] == full["iterations"]
    assert exact["flags"] == []


def _custom_with_A(tmp_path, name, A):
    """``spdstm`` on ``Q = diag(1, 2, 3, 4)``, ``b = 1`` under the constraint rows ``A``."""
    for stem, array in (("Q", np.diag([1.0, 2.0, 3.0, 4.0])), ("b", np.ones(4)), (name, A)):
        np.savetxt(tmp_path / f"{stem}.csv", array, delimiter=",")
    return {"method": "spdstm", "eps": 0.01, "N": "auto", "seed": 1,
            "problem": {"kind": "custom", "Q_csv": str(tmp_path / "Q.csv"),
                        "b_csv": str(tmp_path / "b.csv"), "A_csv": str(tmp_path / f"{name}.csv")},
            "constants": {"max_N": 2000}}


def test_near_duplicate_rows_have_the_rank_of_repeated_rows(tmp_path, capsys):
    # one rank rule: R_y, L_psi and mu_psi all see rank 1, so the second row
    # adds nothing; a rank-2 R_y of about 4e8 would run auto N into max_N
    r, v = np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, -1.0, 1.0, -1.0])
    repeated, _ = run_summary(tmp_path, _custom_with_A(tmp_path, "A_rep", np.stack([r, r])),
                              "repeated.json")
    near_rows = np.stack([r, r + 1e-9 * v])
    near, _ = run_summary(tmp_path, _custom_with_A(tmp_path, "A_near", near_rows), "near.json")
    # the optimum under r x = 0 has grad f = -lam r with lam = (r Q^-1 b) / (r Q^-1 r) = 0.4,
    # and the least-norm y with A^T y = -lam r is -(lam/2, lam/2)
    assert repeated["R_y"] == pytest.approx(0.2 * 2 ** 0.5, rel=1e-12)
    assert near["R_y"] == pytest.approx(repeated["R_y"], rel=1e-6)
    assert near["iterations"] == repeated["iterations"] < 2000
    assert near["flags"] == repeated["flags"] == []


def test_L_tilde_factor_changes_decentralized_spdstm(tmp_path, capsys):
    cfg = {"method": "spdstm",
           "problem": {"kind": "consensus_quadratic", "n": 3, "cond": 4.0,
                       "topology": {"kind": "ring", "m": 4}},
           "eps": 0.05, "N": "auto", "seed": 7}
    runs = {factor: run_summary(tmp_path, {**cfg, "constants": {"L_tilde_factor": factor}},
                                f"factor_{factor}.json")
            for factor in (1.0, 2.0)}
    (tight, tight_rows), (default, default_rows) = runs[1.0], runs[2.0]
    assert tight["iterations"] < default["iterations"]
    # L~ = L_psi takes larger steps: A_k grows faster from the first step on
    assert float(tight_rows[1]["A_k"]) == pytest.approx(2 * float(default_rows[1]["A_k"]))


def test_sstm_sc_auto_N_has_one_planner(tmp_path, capsys, monkeypatch):
    planned = []

    def planner(*args):
        planned.append(grad_certificate_N(*args))
        return planned[-1]

    monkeypatch.setattr(optdec.methods, "grad_certificate_N", planner)
    single, _ = run_summary(tmp_path, penalty_config("sstm_sc"), "single.json")
    ring = {"method": "sstm_sc",
            "problem": {"kind": "consensus_quadratic", "n": 3, "cond": 4.0,
                        "topology": {"kind": "ring", "m": 4}},
            "eps": 0.05, "N": "auto", "seed": 7}
    network, _ = run_summary(tmp_path, ring, "ring.json")
    assert planned == [single["iterations"], network["iterations"]]


def test_readme_example_plans_57_steps(monkeypatch):
    # the README example draws about 88M samples, so only its planner runs
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    workloads = importlib.import_module("perfbench.workloads")
    cfg = validate_config(workloads.UNRUNNABLE["readme_example"]["config"])
    instance = cli.build_problem(cfg["problem"], cfg["seed"])
    dual = DistributedDualOracle(instance, NoiseSpec(**cfg["noise"]))
    N = grad_certificate_N(_dual_norm_bound(instance), dual.L_psi, dual.mu_psi, cfg["eps"],
                           optdec.methods.CONSTANTS["max_N"].default)
    assert N == 57


def test_run_stm_ips_penalty(tmp_path):
    cfg = {"method": "stm_ips",
           "problem": {"kind": "penalty", "dim": 4, "cond": 5.0, "m_rows": 2},
           "eps": 1e-2, "seed": 4}
    cfgp = write_config(tmp_path, cfg)
    assert main(["run", str(cfgp), "--out", str(tmp_path)]) == 0
    summary = json.loads(next(tmp_path.glob("*.summary.json")).read_text())
    assert summary["final_f_gap"] <= 1e-2 * (1 + 1e-9)


# A^T A products of stm_ips at N 30 with default inner budgets, by seed.
# Recorded from the expression-form inner prox; a digest re-record must not move them.
STM_IPS_MATVEC_AtA = {1: 6114, 2: 10150, 3: 16012, 4: 8082, 5: 4890, 6: 15566, 7: 5368,
                      8: 29748}


@pytest.mark.parametrize("seed", sorted(STM_IPS_MATVEC_AtA))
def test_stm_ips_counts_its_recorded_products(tmp_path, capsys, seed):
    cfg = {"method": "stm_ips", "problem": {"kind": "penalty", "dim": 6, "m_rows": 3, "cond": 5.0},
           "eps": 0.02, "N": 30, "seed": seed}
    assert main(["run", str(write_config(tmp_path, cfg)), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    (csv,) = tmp_path.glob("*.trace.csv")
    assert RunTrace.from_csv(csv).final["matvec_AtA"] == STM_IPS_MATVEC_AtA[seed]


@pytest.mark.parametrize("R_y", [1e150, 1e300])
def test_a_penalty_that_is_not_finite_exits_3(tmp_path, capsys, R_y):
    # R_y^2/eps is inf: at 1e150 the run once exited 0 with every metric nan,
    # at 1e300 R_y ** 2 overflowed and printed only the errno text
    cfg = {"method": "stm_ips", "problem": {"kind": "penalty", "dim": 4, "m_rows": 2, "cond": 5.0},
           "eps": 1e-10, "N": 3, "seed": 1, "constants": {"R_y": R_y, "inner_T": 5}}
    assert main(["run", str(write_config(tmp_path, cfg)), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime error: penalty coefficient R_y^2/eps = inf (R_y ")
    assert "Traceback" not in err and not list(tmp_path.glob("*.trace.csv"))


def test_run_barycenter_from_files(tmp_path):
    measures = np.array([[0.3, 0.7], [0.6, 0.4]])
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.savetxt(tmp_path / "measures.csv", measures, delimiter=",")
    np.savetxt(tmp_path / "cost.csv", C, delimiter=",")
    topo_rc = main(["gen-topology", "--kind", "path", "--m", "2",
                    "--out", str(tmp_path)])
    assert topo_rc == 0
    cfg = {"method": "spdstm",
           "problem": {"kind": "barycenter",
                       "measures": str(tmp_path / "measures.csv"),
                       "cost": str(tmp_path / "cost.csv"),
                       "mu": 0.5,
                       "topology": str(tmp_path / "topology_path_2.json")},
           "eps": 1e-4, "N": 2000, "seed": 0,
           "constants": {"metric_every": 0}}
    cfgp = write_config(tmp_path, cfg)
    assert main(["run", str(cfgp), "--out", str(tmp_path)]) == 0


def test_finished_runs_are_freed_without_the_cyclic_gc(tmp_path, capsys):
    # no run leaves its problem or instance in a reference cycle, so
    # reference counting alone frees them once the run returns
    from optdec import CompositeProblem, DecentralizedInstance

    def alive():
        return [o for o in gc.get_objects()
                if isinstance(o, (CompositeProblem, DecentralizedInstance))]

    np.savetxt(tmp_path / "measures.csv", np.array([[0.3, 0.7], [0.6, 0.4]]), delimiter=",")
    np.savetxt(tmp_path / "cost.csv", np.array([[0.0, 1.0], [1.0, 0.0]]), delimiter=",")
    configs = [
        {"method": "stm_ips", "problem": {"kind": "penalty", "dim": 4, "cond": 5.0, "m_rows": 2},
         "eps": 1e-2, "seed": 4},
        {"method": "sstm_sc", "problem": {"kind": "consensus_quadratic", "n": 3, "cond": 4.0,
                                          "topology": {"kind": "ring", "m": 4}},
         "eps": 0.05, "N": 20, "seed": 7},
        {"method": "spdstm", "problem": {"kind": "barycenter", "measures": str(tmp_path / "measures.csv"),
                                         "cost": str(tmp_path / "cost.csv"), "mu": 0.5,
                                         "topology": {"kind": "path", "m": 2}},
         "eps": 1e-3, "N": 20, "seed": 0},
    ]
    gc.collect()
    before = alive()
    gc.disable()
    try:
        for i, cfg in enumerate(configs):
            assert main(["run", str(write_config(tmp_path, cfg, f"cfg{i}.json")),
                         "--out", str(tmp_path)]) == 0
            left = [o for o in alive() if not any(o is b for b in before)]
            assert left == [], f"{cfg['method']} on {cfg['problem']['kind']} left {left}"
    finally:
        gc.enable()


def test_run_divergent_exit_3(tmp_path, monkeypatch):
    # force divergence through a tiny guard threshold
    import optdec.dual as dual_mod
    monkeypatch.setattr(dual_mod, "DIVERGENCE_FACTOR", 1e-12)
    cfg = {"method": "spdstm",
           "problem": {"kind": "penalty", "dim": 4, "cond": 5.0, "m_rows": 2},
           "eps": 1e-3, "N": 50, "seed": 3, "constants": {"metric_every": 0}}
    cfgp = write_config(tmp_path, cfg)
    assert main(["run", str(cfgp), "--out", str(tmp_path)]) == 3
    assert list(tmp_path.glob("*.trace.csv"))  # partial trace persisted


def test_a_step_size_overflow_exits_3_with_one_line_naming_its_step(tmp_path):
    # A_k reaches 2.9e154 at iteration 2040 and the next step size overflows to inf; inf / inf
    # turned the iterate NaN, and numpy's warning reached stderr before the guard's line
    cfg = {"method": "sstm_sc", "problem": {"kind": "penalty", "dim": 6, "m_rows": 3, "cond": 5.0},
           "eps": 0.01, "seed": 3, "N": 3200, "constants": {"metric_every": 400}}
    path = os.pathsep.join([str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-m", "optdec.cli", "run",
                           str(write_config(tmp_path, cfg)), "--out", str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
                          timeout=120)
    message = "sstm_sc: step size overflow at step 2041: A = 2.8559636854211654e+154 gives A' = inf"
    assert (proc.returncode, proc.stderr) == (3, f"runtime error: {message}\n")
    (csv,) = tmp_path.glob("*.trace.csv")
    trace = RunTrace.from_csv(csv)
    assert trace.flags == [message]
    assert trace.final["iter"] == 2040 and trace.final["A_k"] == 2.8559636854211654e+154


@pytest.mark.parametrize("eps", [1e-20, 1e-60, 1e-100])
def test_a_singular_penalty_system_exits_3_naming_it(tmp_path, capsys, eps):
    # 2 (R_y^2/eps) A^T A swamps Q: numpy's bare "Singular matrix" named neither the system nor eps
    cfg = {"method": "stm_ips", "problem": {"kind": "penalty", "dim": 3, "m_rows": 1}, "eps": eps}
    assert main(["run", str(write_config(tmp_path, cfg)), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"runtime error: penalty system Q + 2 (R_y^2/eps) A^T A at eps {eps:g} ")
    assert err.endswith(": Singular matrix\n") and err.count("\n") == 1
    assert not list(tmp_path.glob("*.trace.csv"))


@pytest.mark.parametrize("N, message", [
    ("auto", r"inner prox budget sqrt\(kappa\) log\(kappa N\^3\) is not finite: kappa = alpha L_h "
             r"\+ 1 = \d\.\d+e\+297, N = 200000; at outer step 1, penalty eps 1e-300"),
    (2, r"inner prox gap bound \|\|grad g\|\|\^2/2 = inf is not finite at outer step 1")],
    ids=["auto_N", "N_2"])
def test_a_tiny_eps_stm_ips_exits_3_with_one_line(tmp_path, capsys, N, message):
    # at eps 1e-300 the planned budget's kappa N^3 overflows (math.ceil(inf) read "cannot convert
    # float infinity to integer"); at N 2 the prox's products overflow, and numpy's two warnings,
    # errors under this suite's filter, reached stderr before the line
    cfg = {"method": "stm_ips", "problem": {"kind": "penalty", "dim": 3, "m_rows": 1},
           "eps": 1e-300, "N": N}
    assert main(["run", str(write_config(tmp_path, cfg)), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(f"runtime error: {message}\n", err), err


@pytest.mark.parametrize("method, rule", [("spdstm", "stop_gap"), ("sstm_sc", "stop_grad_norm")])
def test_a_stop_rule_never_measured_exits_2(tmp_path, capsys, method, rule):
    cfg = penalty_config(method, **{rule: 0.02, "metric_every": 0})
    assert main(["run", str(write_config(tmp_path, cfg)), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"config error: {rule} is never measured with metric_every 0\n")
    assert not list(tmp_path.glob("*.trace.csv"))


IDENTITY_RUNS = {
    "single_machine": {"method": "spdstm",
                       "problem": {"kind": "penalty", "dim": 4, "cond": 5.0, "m_rows": 2},
                       "eps": 1e-3, "N": 5, "seed": 3},
    "network": {"method": "sstm_sc",
                "problem": {"kind": "consensus_quadratic", "n": 2, "cond": 4.0,
                            "topology": {"kind": "ring", "m": 4}},
                "eps": 0.05, "N": 5, "seed": 4},
}


@pytest.mark.parametrize("diverged", [False, True], ids=["finished", "diverged"])
@pytest.mark.parametrize("name", sorted(IDENTITY_RUNS))
def test_every_trace_names_its_run(tmp_path, capsys, monkeypatch, name, diverged):
    cfg = IDENTITY_RUNS[name]
    if diverged:
        monkeypatch.setattr(optdec.dual, "DIVERGENCE_FACTOR", 1e-12)
    assert main(["run", str(write_config(tmp_path, cfg)), "--out", str(tmp_path)]) == (
        3 if diverged else 0)
    capsys.readouterr()
    (csv,) = tmp_path.glob("*.trace.csv")
    h = config_hash(validate_config(cfg))
    assert csv.name == f"{h}.trace.csv"
    meta = RunTrace.from_csv(csv).metadata
    assert {key: meta.get(key) for key in ("config_hash", "seed", "version")} == {
        "config_hash": h, "seed": str(cfg["seed"]), "version": f"optdec-{optdec.__version__}"}


def _bad_barycenter(tmp_path, mu=0.5, measures=None, cost=None, topology=None):
    measures = np.array([[0.3, 0.7], [0.6, 0.4], [0.5, 0.5]]) if measures is None else measures
    cost = np.array([[0.0, 1.0], [1.0, 0.0]]) if cost is None else cost
    np.savetxt(tmp_path / "measures.csv", measures, delimiter=",")
    np.savetxt(tmp_path / "cost.csv", cost, delimiter=",")
    return {"method": "spdstm",
            "problem": {"kind": "barycenter", "measures": str(tmp_path / "measures.csv"),
                        "cost": str(tmp_path / "cost.csv"), "mu": mu,
                        "topology": topology or {"kind": "ring", "m": 3}},
            "eps": 1e-3, "N": 10, "seed": 0}


def _custom_without_A(tmp_path, method):
    np.savetxt(tmp_path / "Q.csv", np.diag([1.0, 2.0, 4.0]), delimiter=",")
    np.savetxt(tmp_path / "b.csv", np.array([1.0, -1.0, 0.5]), delimiter=",")
    return {"method": method, "N": 5,
            "problem": {"kind": "custom", "Q_csv": str(tmp_path / "Q.csv"),
                        "b_csv": str(tmp_path / "b.csv")}}


def _bad_custom(tmp_path, method="stm", **files):
    """The problem of ``_custom_without_A`` with the ``Q``, ``b`` or ``A`` CSVs given.

    A file given as ``None`` is named but never written.
    """
    cfg = _custom_without_A(tmp_path, method)
    for name, value in files.items():
        path = tmp_path / f"{name}.csv"
        if value is not None:
            np.savetxt(path, value, delimiter=",")
        cfg["problem"][f"{name}_csv"] = str(path)
    return cfg


def _noisy_sstm():
    return {"method": "sstm", "problem": {"kind": "quadratic", "dim": 4}, "N": 3}


def _single_node_file(tmp_path):
    path = tmp_path / "single.json"
    path.write_text(json.dumps({"m": 1, "edges": []}))
    return str(path)


BAD_INPUTS = {
    "mu_zero": lambda t: _bad_barycenter(t, mu=0),
    "mu_negative": lambda t: _bad_barycenter(t, mu=-1),
    "measure_off_simplex": lambda t: _bad_barycenter(
        t, measures=np.array([[0.3, 0.7], [0.6, 0.6], [0.5, 0.5]])),
    "cost_not_n_by_n": lambda t: _bad_barycenter(t, cost=np.ones((3, 3)) - np.eye(3)),
    # NaN passes every comparison test and inf made the run diverge: exit 3 after minutes
    "measure_nan": lambda t: _bad_barycenter(
        t, measures=np.array([[0.3, 0.7], [np.nan, 0.5], [0.5, 0.5]])),
    "cost_nan": lambda t: _bad_barycenter(t, cost=np.array([[0.0, np.nan], [1.0, 0.0]])),
    "cost_inf": lambda t: _bad_barycenter(t, cost=np.array([[0.0, np.inf], [1.0, 0.0]])),
    "ring_m_differs_from_measures": lambda t: _bad_barycenter(t, topology={"kind": "ring", "m": 4}),
    "single_node_barycenter": lambda t: _bad_barycenter(
        t, measures=np.array([[0.3, 0.7]]), topology=_single_node_file(t)),
    "single_node_consensus": lambda t: {
        "method": "sstm_sc", "N": 10,
        "problem": {"kind": "consensus_quadratic", "n": 2, "topology": _single_node_file(t)}},
    "eps_not_a_number": lambda t: quad_config(eps="abc"),
    "seed_not_an_integer": lambda t: quad_config(seed="s"),
    "dim_not_an_integer": lambda t: quad_config(problem={"kind": "quadratic", "dim": "x"}),
    "dim_zero": lambda t: quad_config(problem={"kind": "quadratic", "dim": 0}),
    "metric_every_not_an_integer": lambda t: quad_config(constants={"metric_every": "x"}),
    "step_factor_zero": lambda t: quad_config(constants={"step_factor": 0}),
    "N_boolean": lambda t: quad_config(N=True),
    "inner_T_negative": lambda t: {
        "method": "stm_ips", "problem": {"kind": "penalty", "dim": 4, "m_rows": 2},
        "N": 5, "constants": {"inner_T": -1}},
    "noise_sigma_not_a_number": lambda t: {**_noisy_sstm(), "noise": {"sigma": "x"}},
    "noise_sigma_negative": lambda t: {**_noisy_sstm(), "noise": {"sigma": -1}},
    "noise_delta_nan": lambda t: {**_noisy_sstm(), "noise": {"delta": "nan"}},
    "noise_kind_unknown": lambda t: {**_noisy_sstm(), "noise": {"sigma": 0.1, "kind": "cauchy"}},
    # "no noise" is sigma 0 or no noise key; there is no kind for it
    "noise_kind_none": lambda t: {**_noisy_sstm(), "noise": {"sigma": 0.3, "kind": "none"}},
    "noise_not_an_object": lambda t: {**_noisy_sstm(), "noise": 5},
    "noise_empty_list": lambda t: {**_noisy_sstm(), "noise": []},
    "noise_zero": lambda t: {**_noisy_sstm(), "noise": 0},
    "noise_false": lambda t: {**_noisy_sstm(), "noise": False},
    "constants_false": lambda t: quad_config(constants=False),
    "constants_empty_string": lambda t: quad_config(constants=""),
    "dim_fractional": lambda t: quad_config(problem={"kind": "quadratic", "dim": 2.5}),
    # numpy refuses a 4e9 x 4e9 array before it allocates anything
    "dim_too_big": lambda t: quad_config(problem={"kind": "quadratic", "dim": 4e9}),
    "seed_fractional": lambda t: quad_config(seed=1.7),
    "custom_without_A_spdstm": lambda t: _custom_without_A(t, "spdstm"),
    "custom_without_A_stm_ips": lambda t: _custom_without_A(t, "stm_ips"),
    "custom_Q_not_symmetric": lambda t: _bad_custom(t, Q=np.triu(np.ones((3, 3)))),
    "custom_Q_indefinite": lambda t: _bad_custom(t, Q=np.diag([1.0, -1.0, 2.0])),
    "custom_b_wrong_length": lambda t: _bad_custom(t, b=np.array([1.0, 2.0])),
    "custom_A_csv_missing": lambda t: _bad_custom(t, "spdstm", A=None),
    "custom_A_wrong_width": lambda t: _bad_custom(t, "spdstm", A=np.ones((2, 4))),
    # numpy reads a list as the lines of a file: a list of numbers raised TypeError
    "custom_Q_csv_a_list": lambda t: {"method": "stm", "N": 2, "problem": {
        "kind": "custom", "Q_csv": [[1.0]], "b_csv": str(t / "b.csv")}},
    "barycenter_measures_a_list": lambda t: {
        "method": "spdstm", "N": 2,
        "problem": {"kind": "barycenter", "measures": [[0.5, 0.5]], "cost": str(t / "cost.csv"),
                    "mu": 1.0, "topology": {"kind": "ring", "m": 3}}},
    "ring_m_fractional": lambda t: {
        "method": "sstm_sc", "N": 10,
        "problem": {"kind": "consensus_quadratic", "n": 2, "topology": {"kind": "ring", "m": 4.5}}},
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_run_bad_decentralized_input_exit_2(tmp_path, capsys, case):
    cfgp = write_config(tmp_path, BAD_INPUTS[case](tmp_path))
    assert main(["run", str(cfgp), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not list(tmp_path.glob("*.trace.csv"))


@pytest.mark.parametrize("payload, field", [
    ([1, 2], "topology.m and topology.edges, got list"),
    ("ring", "topology.m and topology.edges, got str"),
    ({"m": 3, "edges": [[1, 2], [2, 3]], "extra": 1}, "got ['edges', 'extra', 'm']"),
    ({"edges": [[1, 2]]}, "got ['edges']"),
    ({"m": 3.7, "edges": [[1, 2], [2, 3]]}, "topology.m must be an integer, got 3.7"),
    ({"m": True, "edges": []}, "topology.m must be an integer, got True"),
    ({"m": 0, "edges": []}, "topology.m must be finite and >= 2, got 0"),
    ({"m": 3, "edges": 5}, "topology.edges must be a list of node pairs [i, j] in [1, 3], got 5"),
    ({"m": 3, "edges": [["a", "b"]]}, "topology.edges must be a list of node pairs [i, j] in "
                                      "[1, 3], got ['a', 'b']"),
    ({"m": 3, "edges": [[1, 2], [2, 3], None]}, "topology.edges must be a list of node pairs "
                                                "[i, j] in [1, 3], got None"),
    ({"m": 3, "edges": [[1, 2], [2, 3, 1]]}, "got [2, 3, 1]"),
    ({"m": 3, "edges": [[1, 2], [3, 4]]}, "got [3, 4]"),
    ({"m": 3, "edges": [[0, 1], [1, 2]]}, "got [0, 1]"),
    ({"m": 3, "edges": [[1, True], [2, 3]]}, "got [1, True]"),
    ({"m": 3, "edges": [[1.0, 2], [2, 3]]}, "got [1.0, 2]"),
], ids=["list", "string", "extra_key", "no_m", "m_fractional", "m_boolean", "m_zero",
        "edges_a_number", "edges_strings", "edges_null", "edge_of_three", "node_above_m",
        "node_zero", "node_boolean", "node_float"])
def test_a_malformed_topology_file_exits_2_naming_the_field(tmp_path, capsys, payload, field):
    # a list, a string, a number of edges or a null edge raised TypeError and a float node
    # IndexError (exit 1); a fractional m ran as int(m), a boolean m as 1 node, and an
    # extra key was ignored
    path = tmp_path / "topology.json"
    path.write_text(json.dumps(payload))
    cfg = {"method": "sstm_sc", "N": 5,
           "problem": {"kind": "consensus_quadratic", "n": 2, "topology": str(path)}}
    assert main(["run", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid consensus_quadratic problem: ")
    assert err.endswith(f"{field}\n") and "topology." in err
    assert not list(tmp_path.glob("**/*.trace.csv"))


@pytest.mark.parametrize("method", ["stm", "stm_ips"])
@pytest.mark.parametrize("name, value", [
    ("b", np.array([1.0, np.nan, 0.5])),
    ("Q", np.diag([np.inf, 2.0, 4.0])),
    ("Q", np.array([[1.0, np.nan, 0.0], [np.nan, 2.0, 0.0], [0.0, 0.0, 4.0]])),
    ("A", np.array([[1.0, np.nan, 1.0]])),
    ("A", np.array([[1.0, 1.0, -np.inf]])),
], ids=["b_nan", "Q_inf", "Q_nan", "A_nan", "A_inf"])
def test_a_non_finite_custom_array_exits_2_naming_it(tmp_path, capsys, method, name, value):
    # a NaN b wrote NaN gaps and bounds, an inf Q a NaN A_N (exit 0), and a NaN A
    # exited 3 with "SVD did not converge"
    files = {"A": np.array([[1.0, 1.0, 1.0]]), name: value}
    cfgp = write_config(tmp_path, _bad_custom(tmp_path, method, **files))
    assert main(["run", str(cfgp), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: invalid custom problem: {name} must be finite\n"
    assert not list(tmp_path.glob("**/*.trace.csv"))


def test_an_all_zero_custom_A_exits_2_for_every_method(tmp_path, capsys):
    # a solver that reads A raised an uncaught ValueError (exit 1); stm, which reads none, ran
    for method in ("stm", "spdstm"):
        cfgp = write_config(tmp_path, _bad_custom(tmp_path, method, A=np.zeros((1, 3))))
        assert main(["run", str(cfgp), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == ("config error: invalid custom problem: "
                                           "A must not be identically zero\n")


_RING4 = {"kind": "consensus_quadratic", "topology": {"kind": "ring", "m": 4}}

# configs that once ended in a traceback, with the exit code each has now
EXIT_CODES = {
    # at N = 0 the sstm_sc batch rule gives 1: the run records its step-0 row
    "sstm_sc_N0_noisy_penalty": (
        {"method": "sstm_sc", "problem": {"kind": "penalty"}, "N": 0, "noise": {"sigma": 0.1}}, 0),
    "sstm_sc_N0_noisy_ring4": (
        {"method": "sstm_sc", "problem": _RING4, "N": 0, "noise": {"sigma": 0.1}}, 0),
    # sigma ** 2 overflows in the batch rules
    "sstm_sigma_overflow": ({**_noisy_sstm(), "N": 2, "noise": {"sigma": 1e200}}, 3),
    "spdstm_sigma_overflow": (
        {"method": "spdstm", "problem": {"kind": "penalty"}, "N": 2, "noise": {"sigma": 1e200}}, 3),
}


@pytest.mark.parametrize("case", sorted(EXIT_CODES))
def test_former_crashes_exit_with_a_code(tmp_path, capsys, case):
    cfg, expected = EXIT_CODES[case]
    assert main(["run", str(write_config(tmp_path, cfg)), "--out", str(tmp_path)]) == expected
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if expected == 3:
        assert err.startswith("runtime error:")
    else:
        (csv,) = tmp_path.glob("*.trace.csv")
        # the step-0 row, and on a network the closing row after primal recovery
        assert {row["iter"] for row in RunTrace.from_csv(csv).rows} == {0}


@pytest.mark.parametrize("key", ["noise", "constants"])
def test_null_noise_and_constants_run(tmp_path, key):
    cfgp = write_config(tmp_path, {**_noisy_sstm(), key: None})
    assert main(["run", str(cfgp), "--out", str(tmp_path)]) == 0


def _matrix_problem(tmp_path, kind):
    if kind == "custom":
        problem = _custom_without_A(tmp_path, "stm")["problem"]
        np.savetxt(tmp_path / "A.csv", np.array([[1.0, 1.0, 1.0]]), delimiter=",")
        return {**problem, "A_csv": str(tmp_path / "A.csv")}
    if kind == "barycenter":
        return _bad_barycenter(tmp_path)["problem"]
    return {"quadratic": {"kind": "quadratic", "dim": 3},
            "penalty": {"kind": "penalty", "dim": 4, "m_rows": 2},
            "consensus_quadratic": {"kind": "consensus_quadratic", "n": 2,
                                    "topology": {"kind": "ring", "m": 3}}}[kind]


@pytest.mark.parametrize("kind", cli.PROBLEM_KINDS)
@pytest.mark.parametrize("method", cli.METHODS)
def test_method_kind_matrix(tmp_path, capsys, method, kind):
    cfg = {"method": method, "problem": _matrix_problem(tmp_path, kind), "eps": 0.1, "N": 3,
           "seed": 1}
    code = main(["run", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if kind in cli.METHODS[method].kinds:
        assert code == 0, err
        assert len(list((tmp_path / "out").glob("*.trace.csv"))) == 1
    else:
        assert code == 2
        assert err.startswith("config error:") and "Traceback" not in err
        assert not list(tmp_path.glob("**/*.trace.csv"))


@pytest.mark.parametrize("method", ["stm", "stm_ips"])
@pytest.mark.parametrize("key", ["Q_csv", "b_csv", "A_csv"])
def test_an_empty_file_path_exits_2_naming_it(tmp_path, capsys, method, key):
    # an A_csv of "" once ran stm unconstrained, and stm_ips exited 2 without naming it
    cfg = _custom_without_A(tmp_path, method)
    cfg["problem"] = {**cfg["problem"], "A_csv": str(tmp_path / "b.csv"), key: ""}
    assert main(["run", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "out")]) == 2
    kind = "file path or null" if key == "A_csv" else "file path"
    assert capsys.readouterr().err == f"config error: problem.{key} must be a {kind}, got ''\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("method", cli.METHODS)
def test_custom_without_A_runs_only_unconstrained_methods(tmp_path, capsys, method):
    cfgp = write_config(tmp_path, _custom_without_A(tmp_path, method))
    code = main(["run", str(cfgp), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if method in ("stm", "sstm"):
        assert code == 0, err
    else:
        assert code == 2 and err == f"config error: method {method} needs a constraint matrix\n"


def test_run_distributed_serves_every_network_method(tmp_path):
    # every record names known kinds and constants, and the network runs
    # exactly the methods whose record names a network kind
    for name, method in cli.METHODS.items():
        assert set(method.kinds) <= set(cli.PROBLEM_KINDS)
        assert method.constants <= set(CONSTANTS)
        instance = cli.build_problem(_matrix_problem(tmp_path, "consensus_quadratic"), 0)
        if set(method.kinds) & set(cli.DECENTRALIZED_KINDS):
            _, trace, counter = run_distributed(name, instance, {"N": 2, "eps": 0.1})
            assert trace.final["comm_rounds"] == counter.comm_rounds > 0
        else:
            with pytest.raises(ValueError, match=f"method '{name}' does not run on a network"):
                run_distributed(name, instance, {"N": 2, "eps": 0.1})


def test_run_distributed_defaults_are_optdec_runs(tmp_path, capsys):
    # one default per run setting: without eps, run_distributed plans and writes what
    # optdec run does (at eps 1e-4 it once took 75 steps here where optdec run took 62)
    problem = {"kind": "consensus_quadratic", "n": 2, "cond": 4,
               "topology": {"kind": "ring", "m": 4}}
    cfgp = write_config(tmp_path, {"method": "sstm_sc", "problem": problem, "seed": 1})
    assert main(["run", str(cfgp), "--out", str(tmp_path / "cli")]) == 0
    capsys.readouterr()
    (csv,) = (tmp_path / "cli").glob("*.trace.csv")
    _, trace, _ = run_distributed("sstm_sc", cli.build_problem(problem, 1), {"seed": 1})
    trace.to_csv(tmp_path / "library.csv")
    rows = [[line for line in path.read_text().splitlines() if not line.startswith("#")]
            for path in (csv, tmp_path / "library.csv")]
    assert rows[0] == rows[1]
    assert trace.final["iter"] == 62


# each solver's keyword default of a constant: (module, solver, keyword and constant)
SOLVER_DEFAULTS = [("dual", "spdstm", "C_hat"), ("dual", "spdstm", "L_tilde_factor"),
                   ("dual", "spdstm", "metric_every"), ("dual", "sstm_sc", "metric_every"),
                   ("primal", "stm", "step_factor"), ("primal", "sstm", "step_factor"),
                   ("dual", "restarted_rrma", "C")]


@pytest.mark.parametrize("module, solver, key", SOLVER_DEFAULTS)
def test_a_solver_keyword_default_is_its_constant_default(module, solver, key):
    # the library's solvers and optdec run cannot drift apart on a constant's default
    function = getattr(importlib.import_module(f"optdec.{module}"), solver)
    assert inspect.signature(function).parameters[key].default == CONSTANTS[key].default


# a valid value of every constant, so that only the method it is set on can be wrong
_CONSTANT_VALUES = {**{key: c.default for key, c in CONSTANTS.items() if c.default is not None},
                    "lambda": 0.05, "inner_T": 3, "m_iters": 5, "R_y": 1.0, "stop_gap": 0.1,
                    "stop_grad_norm": 0.1}


def _record_config(tmp_path, method, key, *value):
    """``method`` on the first problem kind it runs on, with the one constant ``key``
    (at ``value`` if given, else at its valid value)."""
    return {"method": method, "problem": _matrix_problem(tmp_path, cli.METHODS[method].kinds[0]),
            "eps": 0.1, "N": 3, "seed": 1, "constants": {key: (*value, _CONSTANT_VALUES[key])[0]}}


def _on_network(method):
    return bool(set(cli.METHODS[method].kinds) & set(cli.DECENTRALIZED_KINDS))


def assert_refused_alike(tmp_path, capsys, cfg):
    """``optdec run`` exits 2 on ``cfg``, and the library raises ValueError (not a subclass)
    with the message the CLI prints: ``run_method`` on a single machine, and
    ``run_distributed`` when the method runs on a network.  Returns the message."""
    assert main(["run", str(write_config(tmp_path, cfg)), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert not list(tmp_path.glob("*.trace.csv"))
    message = err[len("config error: "):-1]
    method, constants = cfg["method"], cfg.get("constants", {})
    settings = {key: cfg[key] for key in RUN_SETTINGS if key in cfg}
    run = {**RUN_SETTINGS, **settings}
    qp, A = cli.build_problem({"kind": "penalty", "dim": 4, "m_rows": 2}, 0)
    calls = [lambda: run_method(method, Machine(qp, A, np.zeros(4), NoiseSpec()), run["N"],
                                run["eps"], run["beta"], constants, run["seed"])]
    if _on_network(method):
        instance = cli.build_problem(_matrix_problem(tmp_path, "consensus_quadratic"), 0)
        calls.append(lambda: run_distributed(method, instance, {**constants, **settings}))
    for call in calls:
        with pytest.raises(ValueError) as refused:
            call()
        assert refused.type is ValueError and str(refused.value) == message
    return message


@pytest.mark.parametrize("method, key", [(method, key) for method, record in cli.METHODS.items()
                                         for key in sorted(set(CONSTANTS) - record.constants)])
def test_a_constant_the_method_does_not_read_exits_2(tmp_path, capsys, method, key):
    message = assert_refused_alike(tmp_path, capsys, _record_config(tmp_path, method, key))
    assert message.startswith(f"method {method} does not read the constants ['{key}']")
    if not _on_network(method):
        instance = cli.build_problem(_matrix_problem(tmp_path, "consensus_quadratic"), 0)
        with pytest.raises(ValueError, match="does not run on a network"):
            run_distributed(method, instance, {"N": 2, key: _CONSTANT_VALUES[key]})


def _out_of_domain(key):
    """Values of the constant ``key`` outside its domain in ``optdec.methods.CONSTANTS``."""
    constant = CONSTANTS[key]
    values = ["1", True, [], {}, math.inf]
    if constant.default is not None:
        values.append(None)
    if constant.integer:
        values.append(2.5)
    if constant.low > -math.inf:
        values.append(constant.low if constant.strict else constant.low - 1)
    return values


@pytest.mark.parametrize("method, key", [(method, key) for method, record in cli.METHODS.items()
                                         for key in sorted(record.constants)])
def test_every_constant_in_the_record_is_accepted(tmp_path, capsys, method, key):
    # ... inside its domain, and null (the method's own choice) when its default is None
    assert validate_config(_record_config(tmp_path, method, key))["constants"] == {
        key: _CONSTANT_VALUES[key]}
    if CONSTANTS[key].default is None:  # null runs as if the key were not set
        bodies = []
        for name, constants in (("null", {key: None}), ("unset", {})):
            cfg = write_config(tmp_path, {**_record_config(tmp_path, method, key),
                                          "constants": constants})
            assert main(["run", str(cfg), "--out", str(tmp_path / name)]) == 0
            (csv,) = (tmp_path / name).glob("*.trace.csv")
            bodies.append([line for line in csv.read_text().splitlines()
                           if "config_hash" not in line])
        assert bodies[0] == bodies[1]
    # every value outside it is refused alike by optdec run and the library
    for value in _out_of_domain(key):
        message = assert_refused_alike(tmp_path, capsys, _record_config(tmp_path, method, key,
                                                                         value))
        assert message.startswith(f"constants.{key} must be ") and message.endswith(f"{value!r}")


_RING4_CONFIG = {"problem": {**_RING4, "n": 2}, "eps": 0.1, "N": 4}
# runs the library did or crashed on while optdec run refused them (but for the string),
# before each input had one check: (method, run settings, constants, refusal)
LIBRARY_RAN = {
    # ran 0 steps and flagged the cap
    "max_N_zero": ("sstm_sc", {"N": "auto"}, {"max_N": 0},
                   "constants.max_N must be finite and >= 1, got 0"),
    "max_N_fractional": ("sstm_sc", {"N": "auto"}, {"max_N": 2.7},  # ran 2 steps
                         "constants.max_N must be an integer, got 2.7"),
    "metric_every_fractional": ("sstm_sc", {}, {"metric_every": 2.5},  # measured every 2nd
                                "constants.metric_every must be an integer, got 2.5"),
    "metric_every_true": ("sstm_sc", {}, {"metric_every": True},  # counted as 1
                          "constants.metric_every must be an integer, got True"),
    "C_a_string": ("sstm_sc", {}, {"C": "1"},  # optdec run ran it too
                   "constants.C must be a number, got '1'"),
    "N_negative": ("sstm_sc", {"N": -3}, {}, "N must be finite and >= 0, got -3"),  # 0 steps
    "N_fractional": ("sstm_sc", {"N": 2.5}, {}, "N must be an integer, got 2.5"),  # TypeError
    "beta_above_1": ("sstm_sc", {"beta": 5.0}, {}, "beta must be in (0, 1), got 5.0"),
    "R_y_negative": ("sstm_sc", {"N": "auto"}, {"R_y": -2.0},  # planned 1 step
                     "constants.R_y must be finite and > 0, got -2.0"),
    "stop_gap_a_string": ("spdstm", {}, {"stop_gap": "x"},  # TypeError mid-run
                          "constants.stop_gap must be a number, got 'x'"),
    "R_y_zero": ("restarted_rrma", {}, {"R_y": 0.0},  # ZeroDivisionError
                 "constants.R_y must be finite and > 0, got 0.0"),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_RAN))
def test_the_library_refuses_what_optdec_run_refuses(tmp_path, capsys, monkeypatch, case):
    method, settings, constants, refusal = LIBRARY_RAN[case]
    for name, record in cli.METHODS.items():  # a refusal comes before any solve
        monkeypatch.setitem(cli.METHODS, name, record._replace(solve=None))
    assert assert_refused_alike(tmp_path, capsys, {
        **_RING4_CONFIG, "method": method, **settings, "constants": constants}) == refusal


@pytest.mark.parametrize("method", sorted(name for name, record in cli.METHODS.items()
                                          if "R_y" in record.constants))
def test_a_machine_runs_on_the_R_y_constant(method):
    # the constant reaches a Machine's solve through run_method alone
    qp, A = cli.build_problem({"kind": "penalty", "dim": 4, "m_rows": 2}, 0)
    runs = {}
    for R_y in (None, 50.0):
        machine = Machine(qp, A, np.zeros(4), NoiseSpec())
        trace, _, _ = run_method(method, machine, "auto", 0.1, 0.1,
                                 {} if R_y is None else {"R_y": R_y})
        runs[R_y] = machine, trace
    (bound, unset), (machine, trace) = runs[None], runs[50.0]
    assert machine.R_y == 50.0 and bound.R_y < 5.0  # the min-norm bound
    if method == "stm_ips":  # the penalty's R_y, in the trace; no dual oracle is built
        assert trace.metadata["R_y"] == "50" and unset.metadata["R_y"] == format(bound.R_y, ".17g")
        assert machine.summary == {}
    else:
        assert machine.summary == {"R_y": 50.0} and bound.summary == {"R_y": bound.R_y}
    assert trace.rows != unset.rows


def test_noisy_barycenter_with_metrics_reads_infinite_gap(tmp_path, capsys, monkeypatch):
    # a noisy primal average leaves the simplex, where W_mu(., q) is +inf
    from test_golden_traces import BARYCENTER_COST, BARYCENTER_MEASURES, _csv_text
    monkeypatch.chdir(tmp_path)
    Path("measures.csv").write_text(_csv_text(BARYCENTER_MEASURES))
    Path("cost.csv").write_text(_csv_text(BARYCENTER_COST))
    cfg = {"method": "spdstm",
           "problem": {"kind": "barycenter", "measures": "measures.csv", "cost": "cost.csv",
                       "mu": 0.2, "topology": {"kind": "ring", "m": 4}},
           "eps": 0.01, "N": 40, "seed": 2,
           "noise": {"kind": "gaussian", "sigma": 0.01, "delta": 0.001}}
    summary, rows = run_summary(tmp_path, cfg)
    assert "Traceback" not in capsys.readouterr().err
    assert summary["iterations"] == 40
    gaps = [row["dual_gap"] for row in rows if row["dual_gap"]]
    assert len(gaps) == 40 and "inf" in gaps


def test_run_integral_floats_are_integers(tmp_path, capsys):
    cfgp = write_config(tmp_path, quad_config(problem={"kind": "quadratic", "dim": 6.0}, seed=1.0))
    assert main(["run", str(cfgp), "--out", str(tmp_path / "float")]) == 0
    cfgp = write_config(tmp_path, quad_config(problem={"kind": "quadratic", "dim": 6}, seed=1))
    assert main(["run", str(cfgp), "--out", str(tmp_path / "int")]) == 0
    capsys.readouterr()
    (a,), (b,) = (list((tmp_path / d).glob("*.trace.csv")) for d in ("float", "int"))
    # the config hash differs (6.0 is not 6 in JSON); nothing else does
    def body(path):
        return [line for line in path.read_text().splitlines() if "config_hash" not in line]
    assert body(a) == body(b)


# ---------------------------------------------------------------------------
# gen-topology command


def test_gen_topology_path(tmp_path):
    assert main(["gen-topology", "--kind", "path", "--m", "3",
                 "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "topology_path_3.json").read_text())
    assert payload == {"edges": [[1, 2], [2, 3]], "m": 3}


def test_gen_topology_complete_edge_count(tmp_path):
    main(["gen-topology", "--kind", "complete", "--m", "4", "--out", str(tmp_path)])
    payload = json.loads((tmp_path / "topology_complete_4.json").read_text())
    assert len(payload["edges"]) == 6


def test_gen_topology_ring5_chi(tmp_path):
    main(["gen-topology", "--kind", "ring", "--m", "5", "--out", str(tmp_path)])
    topo = Topology.from_json((tmp_path / "topology_ring_5.json").read_text())
    # circulant eigenvalues 2 - 2 cos(2 pi k / 5)
    evs = sorted(2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(5) / 5))
    expected = evs[-1] / evs[1]
    assert chi(laplacian(topo)) == pytest.approx(expected)
    assert expected == pytest.approx(2.6180339887, rel=1e-9)


def test_gen_topology_unknown_kind_exit_2(tmp_path):
    assert main(["gen-topology", "--kind", "mesh", "--m", "4",
                 "--out", str(tmp_path)]) == 2


def test_gen_topology_sparse_random_exit_3(tmp_path):
    # p = 1e-12 all but never connects: rejection sampling must give up
    assert main(["gen-topology", "--kind", "erdos_renyi", "--m", "6",
                 "--p", "1e-12", "--out", str(tmp_path)]) == 3


# ---------------------------------------------------------------------------
# sweep command


def _sweep_rows(tmp_path):
    """The rows of the one sweep CSV in ``tmp_path``, each a dict keyed by its header."""
    return list(csv.DictReader(next(tmp_path.glob("*.sweep.csv")).read_text().splitlines()))


def test_sweep_eps_scaling_law(tmp_path):
    cfgp = write_config(tmp_path, quad_config(N="auto"))
    assert main(["sweep", str(cfgp), "--param", "eps",
                 "--values", "1e-1,1e-2,1e-3", "--out", str(tmp_path)]) == 0
    Ns = [int(r["iterations"]) for r in _sweep_rows(tmp_path)]
    for a, b in zip(Ns, Ns[1:]):
        assert 2.0 <= b / a <= 4.5


def test_sweep_sigma_zero_column_degenerates(tmp_path):
    cfg = quad_config(method="sstm", N=40)
    cfgp = write_config(tmp_path, cfg)
    assert main(["sweep", str(cfgp), "--param", "sigma",
                 "--values", "0.0,0.5", "--out", str(tmp_path)]) == 0
    rows = _sweep_rows(tmp_path)
    # noiseless row: one sample per iteration; noisy row: strictly more
    assert int(rows[0]["stoch_samples"]) == 40
    assert int(rows[1]["stoch_samples"]) > 40


def test_sweep_star_m_chi_scaling(tmp_path):
    cfg = {"method": "sstm_sc",
           "problem": {"kind": "consensus_quadratic", "n": 2,
                       "topology": {"kind": "star", "m": 4}},
           "eps": 1e-4, "seed": 3,
           "constants": {"stop_grad_norm": 1e-5}}
    cfgp = write_config(tmp_path, cfg)
    assert main(["sweep", str(cfgp), "--param", "m",
                 "--values", "4,8,16", "--out", str(tmp_path)]) == 0
    normalized = [float(r["comm_rounds"]) / np.sqrt(float(r["chi"])) for r in _sweep_rows(tmp_path)]
    assert max(normalized) / min(normalized) <= 1.5


def test_sweep_chi_topology_kinds(tmp_path):
    cfg = {"method": "sstm_sc",
           "problem": {"kind": "consensus_quadratic", "n": 2,
                       "topology": {"kind": "ring", "m": 6}},
           "eps": 1e-3, "seed": 2,
           "constants": {"stop_grad_norm": 1e-4}}
    cfgp = write_config(tmp_path, cfg)
    assert main(["sweep", str(cfgp), "--param", "chi-topology",
                 "--values", "complete,ring,path", "--out", str(tmp_path)]) == 0
    rows = _sweep_rows(tmp_path)
    chis = [float(r["chi"]) for r in rows]
    rounds = [int(r["comm_rounds"]) for r in rows]
    # worse conditioning costs more communication
    assert chis[0] < chis[1] < chis[2]
    assert rounds[0] <= rounds[1] <= rounds[2]


def test_sweep_writes_every_counter_of_each_run(tmp_path):
    # the sweep CSV once left out matvec_AtA: an stm_ips sweep showed its 20 gradient
    # calls but not the 840 penalty products each run's summary counts
    cfg = {"method": "stm_ips", "problem": {"kind": "penalty", "dim": 4, "m_rows": 2},
           "N": 20, "seed": 1, "constants": {"inner_T": 20}}
    values = ["0.1", "0.01"]
    assert main(["sweep", str(write_config(tmp_path, cfg)), "--param", "eps",
                 "--values", ",".join(values), "--out", str(tmp_path)]) == 0
    rows = _sweep_rows(tmp_path)
    assert tuple(rows[0]) == cli._SWEEP_COLUMNS
    for value, row in zip(values, rows, strict=True):
        _, summary = cli.execute_run(validate_config(apply_sweep_value(cfg, "eps", value)))
        for name in COUNTERS:
            assert int(row[name]) == summary[name]
        assert int(row["matvec_AtA"]) > int(row["grad_calls"]) == 20


def test_sweep_invalid_param_exit_2(tmp_path):
    cfgp = write_config(tmp_path, quad_config())
    assert main(["sweep", str(cfgp), "--param", "nope",
                 "--values", "1", "--out", str(tmp_path)]) == 2


BAD_SWEEPS = {
    "N_fractional": ("N", "2.5"),
    "sigma_not_a_number": ("sigma", "abc"),
    "N_second_value_bad": ("N", "3,x"),
    "eps_infinite": ("eps", "1e-2,inf"),
    # a value list that starts with "-" is not taken for an option
    "eps_negative_first": ("eps", "-1,0.5"),
    "eps_minus_inf": ("eps", "-inf"),
}


@pytest.mark.parametrize("name", sorted(BAD_SWEEPS))
def test_sweep_bad_value_exit_2_before_any_run(tmp_path, capsys, monkeypatch, name):
    param, values = BAD_SWEEPS[name]
    runs = []
    monkeypatch.setattr(cli, "execute_run", lambda cfg: runs.append(cfg))
    cfgp = write_config(tmp_path, quad_config(method="sstm", N=5))
    out = tmp_path / "out"
    assert main(["sweep", str(cfgp), "--param", param, "--values", values,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "Traceback" not in err
    assert runs == []
    assert not list(tmp_path.rglob("*.sweep.csv"))


def test_a_ring_of_2_exits_2_before_any_run(tmp_path, capsys, monkeypatch):
    # a ring needs 3 nodes: the m sweep once ran m = 3 to the end before m = 2 exited 2
    runs = []
    monkeypatch.setattr(cli, "execute_run", lambda cfg, run=cli.execute_run: runs.append(cfg)
                        or run(cfg))
    refusal = "config error: topology.m must be finite and >= 3, got 2\n"
    cfg = {"method": "sstm_sc", "problem": {"kind": "consensus_quadratic", "n": 2,
                                            "topology": {"kind": "ring", "m": 3}}, "N": 3}
    cfgp = write_config(tmp_path, cfg)
    assert main(["sweep", str(cfgp), "--param", "m", "--values", "3,2",
                 "--out", str(tmp_path / "sweep")]) == 2
    assert capsys.readouterr().err == refusal and runs == []
    cfg["problem"]["topology"]["m"] = 2
    assert main(["run", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == refusal and runs == []
    assert main(["gen-topology", "--kind", "ring", "--m", "2", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == refusal
    assert not list(tmp_path.rglob("*.csv")) and not list(tmp_path.glob("topology_*"))


@pytest.mark.parametrize("values, message", [
    ("-1,0.5", "eps must be finite and > 0, got -1.0"),
    ("-inf", "sweep value of eps must be finite, got '-inf'"),
])
def test_sweep_values_with_a_leading_minus_read_as_with_equals(tmp_path, capsys, values, message):
    cfgp = write_config(tmp_path, quad_config(method="sstm", N=5))
    errors = []
    for args in (["--values", values], [f"--values={values}"]):
        assert main(["sweep", str(cfgp), "--param", "eps", *args, "--out", str(tmp_path)]) == 2
        errors.append(capsys.readouterr().err)
    assert errors == [f"config error: {message}\n"] * 2


def test_sweep_runtime_error_exit_3(tmp_path, capsys):
    # p = 1e-12 all but never connects: building the topology raises RuntimeError,
    # which `run` and `sweep` both report with exit 3
    cfg = {"method": "sstm_sc",
           "problem": {"kind": "consensus_quadratic", "n": 2,
                       "topology": {"kind": "erdos_renyi", "m": 4, "p": 1e-12}},
           "eps": 1e-2, "N": 5, "seed": 1}
    cfgp = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", str(cfgp), "--out", str(out)]) == 3
    capsys.readouterr()
    assert main(["sweep", str(cfgp), "--param", "m", "--values", "4",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "runtime error:" in err and "Traceback" not in err
    assert not list(tmp_path.rglob("*.sweep.csv"))


class _CountingRng:
    """A generator that appends the arguments of each of its ``random`` calls to ``calls``."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def random(self, *args, **kwargs):
        self._calls.append(args)
        return self._rng.random(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("command", ["run", "sweep", "gen-topology"])
@pytest.mark.parametrize("p", ["0", "2"])
def test_an_erdos_renyi_p_outside_0_1_exits_2_before_any_draw(tmp_path, capsys, monkeypatch,
                                                             command, p):
    # p = 0 drew 10,000 graphs that could never connect and exited 3; p = 2 exited 2 with
    # "need m >= 2 and p in [0, 1]", which named no field
    draws, default_rng = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *args: _CountingRng(default_rng(*args), draws))
    out = ["--out", str(tmp_path / "out")]
    if command == "gen-topology":
        argv = ["gen-topology", "--kind", "erdos_renyi", "--m", "30", "--p", p]
    else:
        cfg = {"method": "sstm_sc", "N": 5, "problem": {
            "kind": "consensus_quadratic", "n": 2,
            "topology": {"kind": "erdos_renyi", "m": 30, "p": int(p)}}}
        argv = [command, str(write_config(tmp_path, cfg)),
                *(["--param", "m", "--values", "30,31"] if command == "sweep" else [])]
    assert main([*argv, *out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "topology.p must be " in err
    assert err.count("\n") == 1 and draws == []
    assert not list(tmp_path.glob("out/*"))
    # the count sees the draws of a p inside (0, 1]
    assert main(["gen-topology", "--kind", "erdos_renyi", "--m", "4", "--p", "0.5", *out]) == 0
    assert draws


@pytest.mark.parametrize("command", ["sweep", "gen-topology"])
def test_a_p_above_1_exits_2_on_any_kind_before_any_run(tmp_path, capsys, monkeypatch, command):
    # the p record had no upper bound: the sweep ran its ring before the erdos_renyi build
    # refused p 2, and gen-topology wrote a ring for --p 2
    solves, record = [], METHODS["sstm_sc"]
    monkeypatch.setitem(METHODS, "sstm_sc", record._replace(
        solve=lambda *args: solves.append(1) or record.solve(*args)))
    out = ["--out", str(tmp_path / "out")]

    def argv(p):
        if command == "gen-topology":
            return ["gen-topology", "--kind", "ring", "--m", "4", "--p", str(p), *out]
        cfg = {"method": "sstm_sc", "N": 5, "problem": {
            "kind": "consensus_quadratic", "n": 2, "topology": {"kind": "erdos_renyi", "m": 4,
                                                               "p": p}}}
        return ["sweep", str(write_config(tmp_path, cfg)), "--param", "chi-topology",
                "--values", "ring,erdos_renyi", *out]

    assert main(argv(2)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: topology.p must be ") and err.count("\n") == 1
    assert solves == [] and not list(tmp_path.glob("out/*"))
    # the same command with p 1 runs
    assert main(argv(1)) == 0
    assert len(solves) == (2 if command == "sweep" else 0)


@pytest.mark.parametrize("noise", [{"sigma": 5.0}, {"delta": 0.3}, {"sigma": 5.0, "delta": 0.3}],
                         ids=["sigma", "delta", "both"])
@pytest.mark.parametrize("method", ["stm", "stm_ips"])
def test_a_method_that_draws_no_sample_refuses_noise(tmp_path, capsys, monkeypatch, method, noise):
    # neither method draws a sample: a noisy config once ran to the rows of the noiseless one
    runs = []
    monkeypatch.setattr(cli, "execute_run", lambda cfg: runs.append(cfg))
    cfg = {"method": method, "problem": {"kind": "quadratic" if method == "stm" else "penalty",
                                         "dim": 4}, "N": 5, "noise": noise}

    def refusal(spec):
        return (f"method {method} draws no sample, so its noise must be zero, "
                f"got noise.delta {spec.delta!r} and noise.sigma {spec.sigma!r}")

    path, spec = write_config(tmp_path, cfg), NoiseSpec(**noise)
    calls = [(["run", str(path)], spec),
             (["sweep", str(path), "--param", "eps", "--values", "0.1,0.01"], spec),
             (["sweep", str(write_config(tmp_path, {**cfg, "noise": None}, "base.json")),
               "--param", "sigma", "--values", "0,5"], NoiseSpec(sigma=5.0))]
    for argv, refused_spec in calls:
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {refusal(refused_spec)}\n"
    assert runs == [] and not (tmp_path / "out").exists()
    qp, A = cli.build_problem(cfg["problem"], 0)
    with pytest.raises(ValueError) as refused:
        run_method(method, Machine(qp, A, np.zeros(4), spec), 5, 1e-3, 0.1, {})
    assert refused.type is ValueError and str(refused.value) == refusal(spec)
    # a zero noise is no noise
    validate_config({**cfg, "noise": {"delta": 0.0, "sigma": 0.0, "kind": "bounded"}})


# config files that once ended in a traceback: (arguments after the path, file bytes)
BAD_CONFIG_FILES = {
    "run_not_utf8": (["run"], b"\xff\xfe{}"),
    "run_seed_over_a_list": (["run", "--seed", "1"], b"[1]"),
    "sweep_a_list": (["sweep", "--param", "eps", "--values", "0.1"], b"[1]"),
    "sweep_m_problem_not_an_object": (["sweep", "--param", "m", "--values", "3"],
                                      json.dumps(quad_config(problem="x")).encode()),
    "sweep_sigma_noise_not_an_object": (["sweep", "--param", "sigma", "--values", "0.1"],
                                        json.dumps(quad_config(noise=5)).encode()),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIG_FILES))
def test_unusable_config_file_exit_2(tmp_path, capsys, case):
    args, content = BAD_CONFIG_FILES[case]
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    assert main([args[0], str(path), *args[1:], "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["run", "{cfg}"], ["sweep", "{cfg}", "--param", "eps", "--values", "0.1,0.2"],
    ["gen-topology", "--kind", "ring", "--m", "4"]])
def test_unusable_out_dir_exit_2(tmp_path, capsys, command):
    # an output directory under a regular file cannot be made
    cfgp = write_config(tmp_path, quad_config())
    argv = [arg.format(cfg=cfgp) for arg in command]
    assert main([*argv, "--out", str(cfgp / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot use output directory") and "Traceback" not in err


_DEEP = "[" * 100_000 + "]" * 100_000  # deeper than json can decode


def _argv(tmp_path, cfg, command="run"):
    """``command`` on a config file of ``cfg``, a dict or the file's text."""
    path = tmp_path / "cfg.json"
    path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    sweep = ["--param", "eps", "--values", "0.1"] if command == "sweep" else []
    return [command, str(path), *sweep]


def _topology_file(tmp_path, text):
    path = tmp_path / "topology.json"
    path.write_text(text)
    return _argv(tmp_path, {"method": "sstm_sc", "N": 5, "problem": {
        "kind": "consensus_quadratic", "n": 2, "topology": str(path)}})


def _empty_csv(tmp_path, key, text=""):
    """A run whose ``key`` file holds ``text``: of ``custom`` (with an ``A``) or ``barycenter``."""
    cfg = (_bad_custom(tmp_path, "spdstm", A=np.ones((1, 3))) if key.endswith("_csv")
           else _bad_barycenter(tmp_path))
    path = tmp_path / "empty.csv"
    path.write_text(text)
    cfg["problem"][key] = str(path)
    return _argv(tmp_path, cfg)


# input files that exited 1 with a traceback, 3, or 2 behind a numpy warning or naming no
# field: each now exits 2 with one line naming what is wrong
BAD_FILES = {
    "deep_config_run": (lambda t: _argv(t, '{"a": %s}' % _DEEP), "cannot read config: "
                        "maximum recursion depth exceeded while decoding a JSON array"),
    "deep_config_sweep": (lambda t: _argv(t, '{"a": %s}' % _DEEP, "sweep"),
                          "cannot read config: maximum recursion depth exceeded"),
    "deep_topology_file": (lambda t: _topology_file(t, '{"m": 3, "edges": %s}' % _DEEP),
                           "cannot read problem.topology: maximum recursion depth exceeded"),
    **{f"empty_{key}": (lambda t, key=key: _empty_csv(t, key), f"problem.{key} holds no data")
       for key in ("Q_csv", "b_csv", "A_csv", "measures", "cost")},
    "blank_b_csv": (lambda t: _empty_csv(t, "b_csv", " \n\t\n"), "problem.b_csv holds no data"),
    "comment_only_cost": (lambda t: _empty_csv(t, "cost", "# no rows\n"),
                          "problem.cost holds no data"),
    "self_loop": (lambda t: _topology_file(t, '{"m": 3, "edges": [[1, 1], [2, 3]]}'),
                  "topology.edges holds a self-loop [1, 1]"),
    "repeated_edge": (lambda t: _topology_file(t, '{"m": 3, "edges": [[1, 2], [2, 3], [3, 2]]}'),
                      "topology.edges holds a repeated edge [3, 2]"),
    "one_node": (lambda t: _topology_file(t, '{"m": 1, "edges": []}'),
                 "topology.m must be finite and >= 2, got 1"),
    "disconnected": (lambda t: _topology_file(t, '{"m": 4, "edges": [[1, 2], [3, 4]]}'),
                     "topology.edges must connect all 4 nodes"),
}


@pytest.mark.parametrize("case", sorted(BAD_FILES))
def test_a_bad_input_file_exits_2_with_one_line_naming_it(tmp_path, capsys, case):
    argv, message = BAD_FILES[case]
    assert main([*argv(tmp_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not list(tmp_path.glob("out/*"))


def test_the_module_entry_point_exits_2_without_a_traceback(tmp_path):
    # `python -m optdec.cli`, as a shell runs it: numpy's warning of an empty file reached stderr
    path = os.pathsep.join([str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    for case in ("deep_config_run", "empty_Q_csv"):
        argv = [*BAD_FILES[case][0](tmp_path), "--out", str(tmp_path / "out")]
        proc = subprocess.run([sys.executable, "-m", "optdec.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("config error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


def test_sweep_sigma_over_null_noise(tmp_path, capsys):
    cfgp = write_config(tmp_path, {**_noisy_sstm(), "noise": None})
    assert main(["sweep", str(cfgp), "--param", "sigma", "--values", "0,0.1",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()


def test_apply_sweep_value_deep_copies():
    cfg = {"method": "sstm_sc",
           "problem": {"kind": "consensus_quadratic", "n": 2,
                       "topology": {"kind": "star", "m": 3}}}
    out = apply_sweep_value(cfg, "m", "6")
    assert out["problem"]["topology"]["m"] == 6
    assert cfg["problem"]["topology"]["m"] == 3


def test_config_hash_stable_and_sensitive():
    cfg = validate_config(quad_config())
    assert config_hash(cfg) == config_hash(validate_config(quad_config()))
    assert config_hash(cfg) != config_hash(validate_config(quad_config(seed=2)))
