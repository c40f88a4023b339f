import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import fd_grad, rel_err
from optdec import (CallCounter, DualOracle, FirstOrderOracle, NoiseSpec,
                    DecentralizedInstance, DistributedDualOracle,
                    RngStreams, Topology, barycenter_problem, chi,
                    laplacian, laplacian_pair, lift_laplacian, QuadraticProblem,
                    random_quadratic, run_distributed, spdstm, sqrt_psd,
                    sstm_sc, stm)
from optdec.network import _dual_norm_bound
from optdec.problems import constrained_quadratic_optimum


def consensus_instance(m, n, topo=None, seed=0, counter=None):
    rng = np.random.default_rng(seed)
    cs = rng.standard_normal((m, n))
    locals_ = []
    for k in range(m):
        qp = QuadraticProblem(np.eye(n), cs[k])
        o = qp.oracle()
        o.x_star = qp.x_star
        locals_.append(o)
    topo = topo or Topology.ring(m)
    return DecentralizedInstance(locals_, topo, n), cs


# ---------------------------------------------------------------------------
# Laplacians and lifting


def test_laplacian_path():
    W = laplacian(Topology.path(3))
    assert np.array_equal(W, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])


def test_laplacian_complete_k3():
    W = laplacian(Topology.complete(3))
    assert np.array_equal(W, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])


def test_laplacian_star():
    W = laplacian(Topology.star(4))
    expected = np.diag([3.0, 1.0, 1.0, 1.0])
    for j in range(1, 4):
        expected[0, j] = expected[j, 0] = -1.0
    assert np.array_equal(W, expected)


def test_laplacian_rejects_disconnected():
    topo = Topology.normalized(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        laplacian(topo)


def test_laplacian_row_sums_zero():
    rng = np.random.default_rng(3)
    topo = Topology.erdos_renyi(6, 0.5, rng)
    W = laplacian(topo)
    assert np.allclose(W @ np.ones(6), 0.0)
    assert np.allclose(W, W.T)


def test_lift_swap_blocks():
    W = lift_laplacian(np.array([[0.0, 1.0], [1.0, 0.0]]), 2)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(W @ x, [3.0, 4.0, 1.0, 2.0])


def test_lift_n1_is_identity_lift():
    W_bar = laplacian(Topology.ring(4))
    assert np.array_equal(lift_laplacian(W_bar, 1), W_bar)


def test_lift_kills_consensus_vectors():
    W_bar = laplacian(Topology.path(3))
    W = lift_laplacian(W_bar, 2)
    c = np.array([0.3, -0.8])
    assert np.allclose(W @ np.tile(c, 3), 0.0, atol=1e-14)


def test_sqrt_psd_diagonal():
    assert np.allclose(sqrt_psd(np.diag([0.0, 4.0])), np.diag([0.0, 2.0]))


def test_sqrt_psd_pair_laplacian():
    W = np.array([[1.0, -1.0], [-1.0, 1.0]])
    expected = W / np.sqrt(2.0)
    assert np.allclose(sqrt_psd(W), expected)


def test_sqrt_psd_reconstruction_random_laplacians():
    rng = np.random.default_rng(4)
    for m in (5, 15, 50):
        topo = Topology.erdos_renyi(m, 0.3, rng)
        W = laplacian(topo)
        S = sqrt_psd(W)
        err = np.linalg.norm(S @ S - W) / np.linalg.norm(W)
        assert err <= 1e-8


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(ValueError):
        sqrt_psd(np.diag([1.0, -0.5]))
    with pytest.raises(ValueError):
        sqrt_psd(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_chi_values():
    assert chi(laplacian(Topology.path(3))) == pytest.approx(3.0)
    assert chi(laplacian(Topology.complete(3))) == pytest.approx(1.0)
    assert chi(laplacian(Topology.star(5))) == pytest.approx(5.0)


def test_chi_invariant_under_relabeling():
    rng = np.random.default_rng(5)
    topo = Topology.erdos_renyi(6, 0.4, rng)
    W = laplacian(topo)
    perm = rng.permutation(6)
    W_perm = W[np.ix_(perm, perm)]
    assert chi(W_perm) == pytest.approx(chi(W))


def test_kernel_dimension_of_lift():
    pair = laplacian_pair(Topology.ring(4), 3)
    evals = np.linalg.eigvalsh(pair.W)
    nullity = int(np.sum(evals < 1e-10 * evals[-1]))
    assert nullity == 3  # one consensus direction per coordinate


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 9), n=st.integers(1, 4), p=st.floats(0.3, 1.0),
       seed=st.integers(0, 2 ** 16))
def test_kron_operators_match_dense_lift(m, n, p, seed):
    rng = np.random.default_rng(seed)
    inst, _ = consensus_instance(m, n, topo=Topology.erdos_renyi(m, p, rng), seed=seed)
    pair = inst.pair
    x = rng.standard_normal(m * n)
    for op, M in ((pair.W, pair.W_bar), (pair.sqrtW, sqrt_psd(pair.W_bar))):
        dense = np.kron(M, np.eye(n))
        assert op.shape == dense.shape
        assert rel_err(op @ x, dense @ x) <= 1e-12
        assert rel_err(op.T @ x, dense.T @ x) <= 1e-12
        assert np.array_equal(np.asarray(op), dense)
    with pytest.raises(ValueError):
        pair.W @ np.zeros(m * n + 1)

    # the spectral constants from W_bar equal those of the dense lift
    dual = DistributedDualOracle(inst, NoiseSpec(0.0, 0.3))
    dense_dual = DualOracle(inst.stacked, np.kron(sqrt_psd(pair.W_bar), np.eye(n)),
                            inst.local_argmax, noise=NoiseSpec(0.0, math.sqrt(m) * 0.3),
                            counter=CallCounter())
    for name in ("L_psi", "mu_psi", "sigma_psi"):
        assert getattr(dual, name) == pytest.approx(getattr(dense_dual, name), rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# lifted instances


def test_lift_problem_consensus_mean():
    inst, cs = consensus_instance(2, 1, topo=Topology.complete(2), seed=7)
    x_c, f_c = constrained_quadratic_optimum(
        np.eye(2) / 2.0, np.concatenate(cs) / 2.0, inst.pair.sqrtW)
    assert np.allclose(x_c, np.full(2, cs.mean()), atol=1e-10)


def test_lift_problem_stacked_constants():
    inst, _ = consensus_instance(4, 3)
    assert inst.stacked.L == pytest.approx(1.0 / 4.0)
    assert inst.stacked.mu == pytest.approx(1.0 / 4.0)


def test_lift_problem_gradient_matches_fd():
    inst, _ = consensus_instance(3, 2)
    rng = np.random.default_rng(8)
    x = rng.standard_normal(6)
    assert rel_err(inst.stacked.gradient(x), fd_grad(inst.stacked.value, x)) <= 1e-6


def test_lift_problem_consensus_point_in_kernel():
    inst, _ = consensus_instance(4, 2)
    x = np.tile([0.5, -1.5], 4)
    assert np.linalg.norm(inst.pair.sqrtW @ x) <= 1e-12


def test_single_node_rejected_for_dual():
    inst, cs = consensus_instance(1, 2, topo=Topology(1, ()))
    with pytest.raises(ValueError):
        DistributedDualOracle(inst)
    # the degenerate instance is still solvable directly
    x, _ = stm(inst.locals[0], np.zeros(2), 60)
    assert np.allclose(x, cs[0], atol=1e-6)


def quadratic_locals(m, n, seed, cond=10.0):
    rng = np.random.default_rng(seed)
    return [random_quadratic(n, cond, rng).oracle() for _ in range(m)]


def per_node_argmax(locals_, u):
    m = len(locals_)
    return np.concatenate([f.conjugate_argmax(m * block)
                           for f, block in zip(locals_, u.reshape(m, -1))])


def test_lift_problem_leaves_locals_without_a_conjugate_unchanged():
    m, n = 3, 2
    rng = np.random.default_rng(30)
    qps = [random_quadratic(n, 5.0, rng) for _ in range(m)]
    plain = [FirstOrderOracle(n, qp.value, qp.gradient, qp.L, qp.mu) for qp in qps]
    before = [dict(vars(f)) for f in plain]
    inst = DecentralizedInstance(plain, Topology.ring(m), n)
    assert [vars(f) for f in plain] == before
    assert all(f.conjugate_argmax is None for f in plain)
    # solved node by node by inner accelerated solves, to the closed form
    assert inst.batched_argmax is None
    for _ in range(3):
        u = rng.standard_normal(m * n)
        closed = np.concatenate([qp.conjugate_argmax(m * block)
                                 for qp, block in zip(qps, u.reshape(m, n))])
        assert rel_err(inst.local_argmax(u), closed) <= 1e-8


def test_dual_norm_bound_centres_on_declared_minimisers():
    m, n = 4, 3
    rng = np.random.default_rng(31)
    qps = [random_quadratic(n, 10.0, rng) for _ in range(m)]
    inst = DecentralizedInstance([qp.oracle() for qp in qps], Topology.ring(m), n)
    center = np.mean([qp.x_star for qp in qps], axis=0)
    g = inst.stacked.gradient(np.tile(center, m))
    expected = float(np.linalg.norm(g)) / math.sqrt(inst.pair.lambda_min_plus)
    assert _dual_norm_bound(inst) == expected


def test_batched_local_argmax_matches_per_node_loop():
    m, n = 7, 4
    stacked = DecentralizedInstance(quadratic_locals(m, n, seed=16, cond=50.0), Topology.ring(m), n)
    # the same locals without Q/b: the per-node conjugate_argmax path
    plain = [FirstOrderOracle(n, f.value, f.gradient, f.L, f.mu) for f in stacked.locals]
    for g, f in zip(plain, stacked.locals):
        g.conjugate_argmax = f.conjugate_argmax
    looped = DecentralizedInstance(plain, Topology.ring(m), n)
    rng = np.random.default_rng(17)
    for _ in range(20):
        u = 3.0 * rng.standard_normal(m * n)
        reference = per_node_argmax(stacked.locals, u)
        assert rel_err(stacked.local_argmax(u), reference) <= 1e-12
        assert np.array_equal(looped.local_argmax(u), reference)
    # barycenter nodes: one stacked softmax against the per-node marginals
    x = np.linspace(0.0, 1.0, n)
    for mu in (0.02, 0.3):
        measures = rng.dirichlet(np.full(n, 0.5), size=m)
        bary = barycenter_problem(measures, np.abs(x[:, None] - x[None, :]), mu, Topology.ring(m))
        assert bary.batched_argmax is not None
        for _ in range(20):
            u = 3.0 * rng.standard_normal(m * n)
            assert np.abs(bary.local_argmax(u) - per_node_argmax(bary.locals, u)).max() <= 1e-15


@pytest.mark.parametrize("method", ["sstm_sc", "spdstm"])
def test_lifted_solvers_match_dense_reference(method):
    # the same solver on a plain DualOracle over the dense lift sqrt(W_bar) (x) I
    # with per-node argmax solves
    m, n, N = 6, 3, 40
    inst = DecentralizedInstance(quadratic_locals(m, n, seed=18), Topology.path(m), n)
    lifted = DistributedDualOracle(inst)
    dense = DualOracle(inst.stacked, np.kron(sqrt_psd(inst.pair.W_bar), np.eye(n)),
                       lambda u: per_node_argmax(inst.locals, u), counter=CallCounter())
    traces = []
    for dual in (lifted, dense):
        if method == "sstm_sc":
            _, trace = sstm_sc(dual, np.zeros(m * n), N)
        else:
            _, _, trace = spdstm(dual, N, 1e-4, 0.1)
        traces.append(trace)
    ours, ref = traces
    for col in ("A_k", "dual_gap", "grad_norm", "constraint_norm"):
        a, b = ours.column(col), ref.column(col)
        kept = ~np.isnan(b)
        assert np.array_equal(np.isnan(a), ~kept)
        assert np.linalg.norm(a[kept] - b[kept]) <= 1e-9 * np.linalg.norm(b[kept])
    for col in ("iter", "grad_calls", "stoch_samples"):
        assert np.array_equal(ours.column(col), ref.column(col))
    # two rounds per batched dual evaluation; sstm_sc makes one before its loop
    evaluations = ours.column("iter") + (1 if method == "sstm_sc" else 0)
    assert np.array_equal(ours.column("comm_rounds"), 2 * evaluations)


def test_building_pair_and_dual_allocates_no_lift():
    m, n = 100, 20
    locals_ = quadratic_locals(m, n, seed=19)
    tracemalloc.start()
    try:
        inst = DecentralizedInstance(locals_, Topology.ring(m), n)
        dual = DistributedDualOracle(inst)
        dual.grad(np.zeros(m * n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    lift_bytes = 8 * (m * n) ** 2  # one dense (mn) x (mn) lift: 32 MB
    assert peak < lift_bytes / 8


# ---------------------------------------------------------------------------
# distributed dual oracle


def test_distributed_dual_two_rounds_per_gradient():
    inst, _ = consensus_instance(3, 2)
    dual = DistributedDualOracle(inst)
    before = inst.counter.comm_rounds
    dual.grad(np.zeros(6))
    assert inst.counter.comm_rounds - before == 2
    assert dual.counter is inst.counter


def test_distributed_dual_consensus_at_optimum():
    # minimiser of the lifted dual maps to a consensus primal point
    inst, cs = consensus_instance(2, 2, topo=Topology.complete(2), seed=9)
    dual = DistributedDualOracle(inst)
    # closed-form solve of the dual: grad Psi(y) = sqrtW x(sqrtW y) = 0
    from optdec import sstm_sc
    y, _ = sstm_sc(dual, np.zeros(4), 80, metric_every=0)
    x = dual.x_exact(dual.A.T @ y)
    assert np.linalg.norm(inst.pair.sqrtW @ x) <= 1e-8
    assert np.allclose(x.reshape(2, 2), np.tile(cs.mean(axis=0), (2, 1)), atol=1e-6)


def test_distributed_dual_constant_on_kernel_cosets():
    inst, _ = consensus_instance(3, 2)
    dual = DistributedDualOracle(inst)
    y = np.random.default_rng(10).standard_normal(6)
    shift = np.tile([1.0, -0.5], 3)  # consensus direction spans Ker(sqrtW)
    g1 = dual.A @ dual.x_exact(dual.A.T @ y)
    g2 = dual.A @ dual.x_exact(dual.A.T @ (y + shift))
    assert np.allclose(g1, g2, atol=1e-10)


@pytest.mark.parametrize("m", [3, 4, 12])
@pytest.mark.parametrize("sigma", [0.0, 0.1, 0.3, 0.7, 2.5])
def test_distributed_sigma_psi_stacks_the_node_level(m, sigma):
    # the node spec goes in as it is; sigma_psi carries sqrt(m), bit for bit
    inst, _ = consensus_instance(m, 2)
    dual = DistributedDualOracle(inst, NoiseSpec(0.0, sigma, "gaussian"))
    assert dual.noise.sigma == sigma
    assert dual.sigma_psi == float(np.sqrt(inst.pair.lambda_max) * (math.sqrt(m) * sigma))


def test_distributed_noise_transfer_scaling():
    # complete graph: the dual noise scale sqrt(lambda_max(W)) sigma_Phi is
    # near-tight for isotropic per-node noise (within factor 1.3)
    m, n = 6, 2
    inst, _ = consensus_instance(m, n, topo=Topology.complete(m))
    sigma_node = 0.7
    dual = DistributedDualOracle(inst, NoiseSpec(0.0, sigma_node, "gaussian"))
    streams = RngStreams(11)
    y = np.zeros(m * n)
    u = dual.A.T @ y
    samples = np.array([dual.A @ dual.sample_x(u, streams.generator(t))
                        for t in range(4000)])
    emp_var = samples.var(axis=0).sum()
    sigma_phi = np.sqrt(m) * sigma_node
    bound = inst.pair.lambda_max * sigma_phi ** 2
    assert emp_var <= bound * 1.05
    assert emp_var >= bound / 1.3 ** 2


# ---------------------------------------------------------------------------
# distributed runs


def test_run_distributed_sstm_sc_reaches_consensus_mean():
    inst, cs = consensus_instance(4, 3)
    x_nodes, trace, comm = run_distributed(
        "sstm_sc", inst, {"eps": 1e-5, "stop_grad_norm": 1e-7, "max_N": 5000})
    mean = cs.mean(axis=0)
    assert np.abs(x_nodes - mean).max() <= 1e-3
    assert comm.comm_rounds == trace.final["comm_rounds"]


def test_run_distributed_round_accounting():
    inst, _ = consensus_instance(3, 2)
    N = 17
    x_nodes, trace, comm = run_distributed("sstm_sc", inst, {"N": N, "metric_every": 0})
    # one gradient per iteration plus the defining one, 2 rounds each, plus
    # one recovery evaluation (2 rounds)
    assert comm.comm_rounds == 2 * (N + 1) + 2


def test_metric_evaluations_are_free():
    # traces with and without per-iteration metrics count the same rounds
    N = 12
    inst_a, _ = consensus_instance(3, 2, seed=21)
    _, _, comm_a = run_distributed("spdstm", inst_a, {"N": N, "metric_every": 1})
    inst_b, _ = consensus_instance(3, 2, seed=21)
    _, _, comm_b = run_distributed("spdstm", inst_b, {"N": N, "metric_every": 0})
    assert comm_a.comm_rounds == comm_b.comm_rounds
    inst_c, _ = consensus_instance(3, 2, seed=21)
    _, tr_c, comm_c = run_distributed("sstm_sc", inst_c, {"N": N, "metric_every": 1})
    inst_d, _ = consensus_instance(3, 2, seed=21)
    _, _, comm_d = run_distributed("sstm_sc", inst_d, {"N": N, "metric_every": 0})
    assert comm_c.comm_rounds == comm_d.comm_rounds


def test_run_distributed_spdstm_barycenterless_quadratic():
    inst, cs = consensus_instance(3, 2, seed=12)
    x_nodes, trace, comm = run_distributed(
        "spdstm", inst, {"eps": 1e-4, "beta": 0.1, "metric_every": 0, "max_N": 4000})
    assert np.abs(x_nodes - cs.mean(axis=0)).max() <= 1e-2


def test_run_distributed_restarted_rrma():
    inst, cs = consensus_instance(3, 2, seed=13)
    x_nodes, trace, comm = run_distributed(
        "restarted_rrma", inst, {"eps": 1e-4, "beta": 0.1})
    assert np.abs(x_nodes - cs.mean(axis=0)).max() <= 1e-3


def test_run_distributed_rejects_unknown_keys():
    inst, _ = consensus_instance(3, 2)
    with pytest.raises(ValueError):
        run_distributed("sstm_sc", inst, {"bogus": 1})


def test_run_distributed_reproducible_rounds():
    cfg = {"N": 12, "eps": 0.1, "noise": NoiseSpec(0.0, 0.03), "seed": 5,
           "metric_every": 0}
    inst1, _ = consensus_instance(3, 2, seed=14)
    _, _, comm1 = run_distributed("sstm_sc", inst1, dict(cfg))
    inst2, _ = consensus_instance(3, 2, seed=14)
    _, _, comm2 = run_distributed("sstm_sc", inst2, dict(cfg))
    assert comm1.comm_rounds == comm2.comm_rounds


def test_chi_monotonicity_path_vs_complete():
    # the badly conditioned path topology needs more iterations than the
    # complete graph for the same gradient target
    iters = {}
    for name, topo in (("path", Topology.path(8)), ("complete", Topology.complete(8))):
        inst, _ = consensus_instance(8, 2, topo=topo, seed=15)
        _, trace, _ = run_distributed(
            "sstm_sc", inst, {"eps": 1e-4, "stop_grad_norm": 1e-5, "max_N": 20000})
        iters[name] = trace.final["iter"]
    assert iters["path"] >= 1.3 * iters["complete"]


def test_topology_rejects_self_loops_and_duplicates():
    with pytest.raises(ValueError):
        Topology(3, ((0, 0),))
    with pytest.raises(ValueError):
        Topology(3, ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        Topology(3, ((0, 5),))


def test_topology_json_round_trip():
    topo = Topology.ring(5)
    text = topo.to_json()
    assert '"m": 5' in text
    back = Topology.from_json(text)
    assert back == topo
