import gc
import importlib
import json
from pathlib import Path

import numpy as np
import pytest

import optdec.cli as cli
import optdec.dual
from optdec.cli import (ConfigError, apply_sweep_value, config_hash, main,
                        validate_config)
from optdec.network import (DistributedDualOracle, Topology, _dual_norm_bound, chi,
                            laplacian)
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
        cfg = {"method": method,
               "problem": {"kind": "penalty", "dim": 4, "cond": 5.0, "m_rows": 2},
               "eps": 1e-3, "N": 200, "seed": 3,
               "constants": {"metric_every": 50, "m_iters": 60}}
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

    monkeypatch.setattr(optdec.dual, "grad_certificate_N", planner)
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
    instance = cli._build_decentralized(cfg["problem"], cfg["seed"])
    dual = DistributedDualOracle(instance, cli._noise_spec(cfg["noise"]))
    N = grad_certificate_N(_dual_norm_bound(instance), dual.L_psi, dual.mu_psi, cfg["eps"],
                           optdec.dual.DUAL_CONSTANTS["max_N"])
    assert N == 57


def test_run_stm_ips_penalty(tmp_path):
    cfg = {"method": "stm_ips",
           "problem": {"kind": "penalty", "dim": 4, "cond": 5.0, "m_rows": 2},
           "eps": 1e-2, "seed": 4}
    cfgp = write_config(tmp_path, cfg)
    assert main(["run", str(cfgp), "--out", str(tmp_path)]) == 0
    summary = json.loads(next(tmp_path.glob("*.summary.json")).read_text())
    assert summary["final_f_gap"] <= 1e-2 * (1 + 1e-9)


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
    if kind in cli.METHOD_KINDS[method]:
        assert code == 0, err
        assert len(list((tmp_path / "out").glob("*.trace.csv"))) == 1
    else:
        assert code == 2
        assert err.startswith("config error:") and "Traceback" not in err
        assert not list(tmp_path.glob("**/*.trace.csv"))


@pytest.mark.parametrize("method", cli.METHODS)
def test_custom_without_A_runs_only_unconstrained_methods(tmp_path, capsys, method):
    cfgp = write_config(tmp_path, _custom_without_A(tmp_path, method))
    code = main(["run", str(cfgp), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if method in ("stm", "sstm"):
        assert code == 0, err
    else:
        assert code == 2 and err == f"config error: method {method} needs a constraint matrix\n"


def test_run_dual_serves_every_dual_cli_method():
    assert set(optdec.dual.DUAL_METHODS) == set(cli.METHODS) - {"stm", "sstm", "stm_ips"}


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
    # p = 0 can never connect: rejection sampling must give up
    assert main(["gen-topology", "--kind", "erdos_renyi", "--m", "6",
                 "--p", "0.0", "--out", str(tmp_path)]) == 3


# ---------------------------------------------------------------------------
# sweep command


def test_sweep_eps_scaling_law(tmp_path):
    cfgp = write_config(tmp_path, quad_config(N="auto"))
    assert main(["sweep", str(cfgp), "--param", "eps",
                 "--values", "1e-1,1e-2,1e-3", "--out", str(tmp_path)]) == 0
    text = next(tmp_path.glob("*.sweep.csv")).read_text()
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    Ns = [int(r[2]) for r in rows]
    for a, b in zip(Ns, Ns[1:]):
        assert 2.0 <= b / a <= 4.5


def test_sweep_sigma_zero_column_degenerates(tmp_path):
    cfg = quad_config(method="sstm", N=40)
    cfgp = write_config(tmp_path, cfg)
    assert main(["sweep", str(cfgp), "--param", "sigma",
                 "--values", "0.0,0.5", "--out", str(tmp_path)]) == 0
    text = next(tmp_path.glob("*.sweep.csv")).read_text()
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    # noiseless row: one sample per iteration; noisy row: strictly more
    assert int(rows[0][8]) == 40
    assert int(rows[1][8]) > 40


def test_sweep_star_m_chi_scaling(tmp_path):
    cfg = {"method": "sstm_sc",
           "problem": {"kind": "consensus_quadratic", "n": 2,
                       "topology": {"kind": "star", "m": 4}},
           "eps": 1e-4, "seed": 3,
           "constants": {"stop_grad_norm": 1e-5}}
    cfgp = write_config(tmp_path, cfg)
    assert main(["sweep", str(cfgp), "--param", "m",
                 "--values", "4,8,16", "--out", str(tmp_path)]) == 0
    text = next(tmp_path.glob("*.sweep.csv")).read_text()
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    normalized = [float(r[9]) / np.sqrt(float(r[10])) for r in rows]
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
    text = next(tmp_path.glob("*.sweep.csv")).read_text()
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    chis = [float(r[10]) for r in rows]
    rounds = [int(r[9]) for r in rows]
    # worse conditioning costs more communication
    assert chis[0] < chis[1] < chis[2]
    assert rounds[0] <= rounds[1] <= rounds[2]


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
    # p = 0 never connects: building the topology raises RuntimeError, which
    # `run` and `sweep` both report with exit 3
    cfg = {"method": "sstm_sc",
           "problem": {"kind": "consensus_quadratic", "n": 2,
                       "topology": {"kind": "erdos_renyi", "m": 4, "p": 0}},
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
