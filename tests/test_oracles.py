import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import optdec.oracles as oracles_mod
from conftest import fd_grad, rel_err
from optdec import (DualOracle, FirstOrderOracle, NoiseSpec, QuadraticProblem,
                    RngStreams, StochasticGradientOracle, random_quadratic)
from optdec.problems import entropic_ot_dual_grad, entropic_ot_dual_value

SRC = Path(__file__).resolve().parents[1] / "src"


def make_quadratic_oracle(c=None, dim=2):
    c = np.zeros(dim) if c is None else np.asarray(c, dtype=float)
    qp = QuadraticProblem(np.eye(len(c)), c)
    return qp.oracle(), qp


# ---------------------------------------------------------------------------
# exact gradients


def test_eval_grad_identity():
    oracle, _ = make_quadratic_oracle(dim=2)
    assert np.allclose(oracle.eval_grad(np.array([1.0, 2.0])), [1.0, 2.0])
    assert oracle.counter.grad_calls == 1


def test_eval_grad_shifted():
    oracle, _ = make_quadratic_oracle(c=[1.0, 3.0])
    assert np.allclose(oracle.eval_grad(np.zeros(2)), [-1.0, -3.0])


def test_eval_grad_dimension_mismatch():
    oracle, _ = make_quadratic_oracle(dim=2)
    with pytest.raises(ValueError):
        oracle.eval_grad(np.zeros(3))


def test_entropic_dual_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    q = rng.dirichlet(np.ones(4))
    C = rng.random((4, 4))
    lam = rng.standard_normal(4)
    g = entropic_ot_dual_grad(lam, q, C, mu=0.3)
    g_fd = fd_grad(lambda l: entropic_ot_dual_value(l, q, C, 0.3), lam)
    assert rel_err(g, g_fd) <= 1e-6


def test_gradient_matches_fd_on_random_quadratics():
    rng = np.random.default_rng(1)
    for _ in range(5):
        M = rng.standard_normal((3, 3))
        Q = M @ M.T + np.eye(3)
        qp = QuadraticProblem(Q, rng.standard_normal(3))
        x = rng.standard_normal(3)
        assert rel_err(qp.gradient(x), fd_grad(qp.value, x)) <= 1e-6


def test_strong_convexity_and_smoothness_inequalities():
    rng = np.random.default_rng(2)
    M = rng.standard_normal((4, 4))
    Q = M @ M.T + 0.5 * np.eye(4)
    qp = QuadraticProblem(Q, rng.standard_normal(4))
    for _ in range(20):
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        lower = qp.value(x) + qp.gradient(x) @ (y - x) + 0.5 * qp.mu * np.sum((y - x) ** 2)
        assert qp.value(y) >= lower - 1e-9
        assert (np.linalg.norm(qp.gradient(x) - qp.gradient(y))
                <= qp.L * np.linalg.norm(x - y) + 1e-9)


# ---------------------------------------------------------------------------
# noise model


def test_noiseless_sample_is_bitwise_exact():
    oracle, _ = make_quadratic_oracle(c=[0.3, -0.2])
    stoch = StochasticGradientOracle(oracle, NoiseSpec(0.0, 0.0, "gaussian"))
    x = np.array([0.7, -1.1])
    g = stoch.sample(x, RngStreams(0).generator(0, 0))
    exact = oracle.gradient(x)
    assert (g == exact).all()


def test_pure_bias_sample():
    oracle, _ = make_quadratic_oracle(dim=2)
    stoch = StochasticGradientOracle(oracle, NoiseSpec(delta=0.1, sigma=0.0))
    g = stoch.sample(np.array([1.0, 0.0]), RngStreams(0).generator(0, 0))
    assert np.allclose(g, [1.1, 0.0])


def test_sample_mean_norm_small_at_zero():
    # sigma=1 noise at the minimum: the mean of 1e4 samples concentrates
    oracle, _ = make_quadratic_oracle(dim=3)
    stoch = StochasticGradientOracle(oracle, NoiseSpec(0.0, 1.0, "gaussian"))
    streams = RngStreams(7)
    n = 10_000
    acc = np.zeros(3)
    for l in range(n):
        acc += stoch.sample(np.zeros(3), streams.generator(l))
    mean = acc / n
    assert np.linalg.norm(mean) <= 3.0 / np.sqrt(n) * np.sqrt(3)


@pytest.mark.parametrize("kind", ["gaussian", "bounded"])
def test_subgaussian_moment_bounds(kind):
    # (E||eta||^p)^{1/p} <= 2 sigma sqrt(p) for p in {2, 4}
    spec = NoiseSpec(0.0, 1.3, kind)
    streams = RngStreams(11)
    norms = np.array([np.linalg.norm(spec.sample_eta(6, streams.generator(l)))
                      for l in range(10_000)])
    for p in (2, 4):
        moment = np.mean(norms ** p) ** (1.0 / p)
        assert moment <= 2.0 * spec.sigma * np.sqrt(p)


@pytest.mark.parametrize("delta, sigma", [(float("nan"), 0.0), (0.0, float("nan")),
                                          (float("inf"), 0.0), (0.0, float("inf")),
                                          (-0.1, 0.0), (0.0, -1.0)])
def test_noise_spec_rejects_non_finite_and_negative_levels(delta, sigma):
    # the message optdec run prints for the same noise object
    with pytest.raises(ValueError, match=r"^noise\.(delta|sigma) must be finite and >= 0, got "):
        NoiseSpec(delta, sigma)


def test_bias_bound_estimated_over_samples():
    oracle, _ = make_quadratic_oracle(dim=2)
    delta, sigma = 0.25, 0.5
    stoch = StochasticGradientOracle(oracle, NoiseSpec(delta, sigma, "gaussian"))
    streams = RngStreams(5)
    x = np.array([0.2, -0.4])
    n = 10_000
    acc = np.zeros(2)
    for l in range(n):
        acc += stoch.sample(x, streams.generator(l))
    bias = np.linalg.norm(acc / n - oracle.gradient(x))
    assert bias <= delta + 3.0 * sigma / np.sqrt(n)


# ---------------------------------------------------------------------------
# batching


def test_batch_size_one_equals_single_sample():
    oracle, _ = make_quadratic_oracle(dim=2)
    stoch = StochasticGradientOracle(oracle, NoiseSpec(0.0, 1.0, "gaussian"))
    x = np.array([0.5, 0.5])
    streams = RngStreams(3).child(4)
    g_batch = stoch.batch(x, 1, streams)
    g_single = stoch.sample(x, streams.generator())
    assert np.allclose(g_batch, g_single)


def test_batch_noiseless_any_size_exact():
    oracle, _ = make_quadratic_oracle(c=[1.0, -1.0])
    stoch = StochasticGradientOracle(oracle, NoiseSpec(0.0, 0.0))
    x = np.array([0.1, 0.2])
    assert np.allclose(stoch.batch(x, 7, RngStreams(0).child(0)), oracle.gradient(x))


class _NoGenerators(RngStreams):
    def generator(self, *index):
        raise AssertionError("a silent batch built a generator")


def test_silent_batches_build_no_generator():
    oracle, qp = make_quadratic_oracle(c=[1.0, -1.0])
    stoch = StochasticGradientOracle(oracle, NoiseSpec(0.0, 0.0))
    x = np.array([0.1, 0.2])
    assert np.allclose(stoch.batch(x, 7, _NoGenerators(0)), oracle.gradient(x), rtol=0, atol=1e-15)
    dual = DualOracle(oracle, np.eye(2), qp.conjugate_argmax, NoiseSpec(0.0, 0.0))
    _, x_mean = dual.batch_grad_and_x(np.zeros(2), 5, _NoGenerators(0))
    assert np.allclose(x_mean, qp.conjugate_argmax(np.zeros(2)), rtol=0, atol=1e-15)
    # every sample is still counted
    assert oracle.counter.stoch_samples == 7 + 5


def test_batch_rejects_zero():
    oracle, _ = make_quadratic_oracle(dim=2)
    stoch = StochasticGradientOracle(oracle, NoiseSpec(0.0, 1.0))
    with pytest.raises(ValueError):
        stoch.batch(np.zeros(2), 0, RngStreams(0))


def test_batch_variance_reduction():
    oracle, _ = make_quadratic_oracle(dim=2)
    stoch = StochasticGradientOracle(oracle, NoiseSpec(0.0, 1.0, "gaussian"))
    x = np.zeros(2)
    streams = RngStreams(13)
    singles = np.array([stoch.sample(x, streams.generator(0, l)) for l in range(2000)])
    var_single = singles.var(axis=0).sum()
    r = 100
    batches = np.array([stoch.batch(x, r, streams.child(1, t)) for t in range(1000)])
    var_batch = batches.var(axis=0).sum()
    assert var_batch <= var_single / r * 1.2
    assert var_batch >= var_single / r / 1.2


def test_batch_schedule_independence():
    # a batch depends on its seed, path and size only: drawing the steps'
    # batches in any order, or again, gives the identical bits
    oracle, _ = make_quadratic_oracle(dim=3)
    stoch = StochasticGradientOracle(oracle, NoiseSpec(0.05, 0.8, "gaussian"))
    x = np.array([0.3, -0.2, 1.0])
    streams = RngStreams(21).child(5)
    sizes = [1, 16, 3, 40, 7]
    forward = [stoch.batch(x, r, streams.child(k)).tobytes() for k, r in enumerate(sizes)]
    order = np.random.default_rng(0).permutation(len(sizes)).tolist() + [2, 0]
    for k in order:
        assert stoch.batch(x, sizes[k], streams.child(k)).tobytes() == forward[k], k


def test_batch_counts_samples():
    oracle, _ = make_quadratic_oracle(dim=2)
    stoch = StochasticGradientOracle(oracle, NoiseSpec(0.0, 1.0))
    stoch.batch(np.zeros(2), 9, RngStreams(0).child(0))
    assert oracle.counter.stoch_samples == 9


def _silent_case(case, noise, rng):
    """A silent oracle, its batch ``r -> (mean, mapped mean or None)``, its exact part at
    the batch's point, its noise block, and the class and name of its per-sample method."""
    qp = random_quadratic(3, 10.0, rng)
    if case == "primal":
        stoch, x = StochasticGradientOracle(qp.oracle(), noise), rng.standard_normal(3)
        return (stoch, lambda r: (stoch.batch(x, r, RngStreams(5).child(1)), None),
                qp.gradient(x), 3, StochasticGradientOracle, "sample")
    if case == "dual":
        dual = DualOracle(qp.oracle(), rng.standard_normal((2, 3)), qp.conjugate_argmax, noise)
    else:
        dual = _distributed_dual(noise)
    y = rng.standard_normal(dual.dual_dim)
    return (dual, lambda r: dual.batch_grad_and_x(y, r, RngStreams(5).child(1))[::-1],
            dual.x_exact(dual.A.T @ y), dual.noise_block, type(dual), "sample_x")


@settings(max_examples=150, derandomize=True, deadline=None)
@given(case=st.sampled_from(["primal", "dual", "distributed"]), r=st.integers(1, 64),
       delta=st.sampled_from([0.0, 0.1]), seed=st.integers(0, 2 ** 32 - 1))
def test_a_silent_batch_is_its_centre_and_counts_every_sample(case, r, delta, seed):
    oracle, batch, exact, block, cls, name = _silent_case(case, NoiseSpec(delta, 0.0),
                                                          np.random.default_rng(seed))
    bias = np.zeros(block)
    bias[0] = delta
    center = (exact.reshape(-1, block) + bias).reshape(-1) if delta > 0 else exact
    calls, method = [], getattr(cls, name)

    def counted(self, *args):  # patched on the class, as perfbench's tracer patches it
        calls.append(args)
        return method(self, *args)

    def no_generator(self, *index):
        raise AssertionError("a silent batch built a generator")

    before = oracle.counter.stoch_samples
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cls, name, counted)
        mp.setattr(RngStreams, "generator", no_generator)
        mean, mapped = batch(r)
    assert mean.tobytes() == center.tobytes()
    if mapped is not None:
        assert mapped.tobytes() == (oracle.A @ center).tobytes()
    assert oracle.counter.stoch_samples - before == r and len(calls) == r
    # every call only counts: no generator, the batch's centre, no buffer row
    assert all(rng is None and c is mean and row is None for _, rng, c, row in calls)



# ---------------------------------------------------------------------------
# dual oracle


def test_dual_from_primal_identity_quadratic():
    # f = 0.5||x||^2 under A = [[1, -1]]: psi(y) = y^2, grad = 2y
    oracle, qp = make_quadratic_oracle(dim=2)
    A = np.array([[1.0, -1.0]])
    dual = DualOracle(oracle, A, qp.conjugate_argmax)
    y = np.array([0.7])
    assert abs(dual.psi_value(y) - 0.7 ** 2) <= 1e-12
    assert np.allclose(dual.grad(y), [1.4])
    assert dual.lam_max_AtA == pytest.approx(2.0)


def test_dual_from_primal_shifted_quadratic():
    oracle, qp = make_quadratic_oracle(c=[1.0, 3.0])
    A = np.array([[1.0, -1.0]])
    dual = DualOracle(oracle, A, qp.conjugate_argmax)
    # psi(y) = y^2 - 2y up to the constant f-offset convention
    y = np.array([1.0])
    x_rec = dual.x_exact(dual.A.T @ y)
    assert np.allclose(x_rec, [2.0, 2.0])
    assert np.allclose(dual.grad(y), [0.0], atol=1e-12)
    assert dual.psi_value(np.array([0.0])) - dual.psi_value(y) == pytest.approx(1.0)


def test_dual_gradient_zero_at_centered_origin():
    oracle, qp = make_quadratic_oracle(dim=3)
    A = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
    dual = DualOracle(oracle, A, qp.conjugate_argmax)
    assert np.allclose(dual.grad(np.zeros(2)), 0.0)


def test_dual_requires_strong_convexity():
    flat = FirstOrderOracle(2, lambda x: 0.0, lambda x: np.zeros(2), L=1.0, mu=0.0)
    with pytest.raises(ValueError):
        DualOracle(flat, np.array([[1.0, -1.0]]), lambda u: u)


def test_dual_rejects_zero_map():
    oracle, qp = make_quadratic_oracle(dim=2)
    with pytest.raises(ValueError):
        DualOracle(oracle, np.zeros((1, 2)), qp.conjugate_argmax)


def _dual_of_identity():
    oracle, qp = make_quadratic_oracle(dim=2)
    return DualOracle(oracle, np.array([[1.0, -1.0]]), qp.conjugate_argmax)


@pytest.mark.parametrize("call, message", [
    (lambda: FirstOrderOracle(2, None, None, L=-1.0), "L and mu must be non-negative"),
    (lambda: FirstOrderOracle(2, None, None, L=1.0, mu=-0.5), "L and mu must be non-negative"),
    (lambda: DualOracle(make_quadratic_oracle(dim=2)[0], np.ones((1, 3)), None),
     r"A must have one column per coordinate \(2\), got shape \(1, 3\)"),
    (lambda: DualOracle(make_quadratic_oracle(dim=2)[0], np.ones(2), None),
     r"A must have one column per coordinate \(2\), got shape \(2,\)"),
    (lambda: _dual_of_identity().batch_grad_and_x(np.zeros(1), 0, RngStreams(0)),
     "batch size must be >= 1"),
], ids=["L_negative", "mu_negative", "A_too_wide", "A_a_vector", "dual_batch_zero"])
def test_an_oracle_refuses_a_value_outside_its_domain(call, message):
    # optdec run builds its oracles only from checked problems; a library caller reaches these
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_demyanov_danskin_on_random_duals():
    rng = np.random.default_rng(21)
    M = rng.standard_normal((3, 3))
    qp = QuadraticProblem(M @ M.T + np.eye(3), rng.standard_normal(3))
    A = rng.standard_normal((2, 3))
    dual = DualOracle(qp.oracle(), A, qp.conjugate_argmax)
    for _ in range(20):
        y = rng.standard_normal(2)
        g = dual.A @ dual.x_exact(dual.A.T @ y)
        g_fd = fd_grad(dual.psi_value, y)
        assert np.linalg.norm(g - g_fd) / max(1.0, np.linalg.norm(g)) <= 1e-5


def test_dual_gradient_in_column_space():
    rng = np.random.default_rng(22)
    qp = QuadraticProblem(np.diag([1.0, 2.0, 3.0]), rng.standard_normal(3))
    # rank-1 A with a 2-dimensional dual space: Ker(A^T) is nontrivial
    u = rng.standard_normal((2, 1))
    v = rng.standard_normal((1, 3))
    A = u @ v
    dual = DualOracle(qp.oracle(), A, qp.conjugate_argmax)
    # orthonormal basis of Ker(A^T)
    U, s, _ = np.linalg.svd(A)
    kernel = U[:, 1:]
    for _ in range(10):
        y = rng.standard_normal(2)
        g = dual.A @ dual.x_exact(dual.A.T @ y)
        assert np.linalg.norm(kernel.T @ g) <= 1e-10 * max(1.0, np.linalg.norm(g))


def test_dual_constants_formulas():
    rng = np.random.default_rng(23)
    M = rng.standard_normal((3, 3))
    Q = M @ M.T + np.eye(3)
    qp = QuadraticProblem(Q, np.zeros(3))
    A = rng.standard_normal((2, 3))
    dual = DualOracle(qp.oracle(), A, qp.conjugate_argmax)
    evals = np.linalg.eigvalsh(A.T @ A)
    assert dual.L_psi == pytest.approx(evals[-1] / qp.mu)
    positive = evals[evals > 1e-10 * evals[-1]]
    assert dual.mu_psi == pytest.approx(positive[0] / qp.L)


@pytest.mark.parametrize("sigma", [0.0, 0.1, 0.3, 1.7, 1e-5])
def test_sigma_psi_has_the_bits_of_sqrt_lambda_max_times_sigma(sigma):
    rng = np.random.default_rng(25)
    M = rng.standard_normal((3, 3))
    qp = QuadraticProblem(M @ M.T + np.eye(3), np.zeros(3))
    dual = DualOracle(qp.oracle(), rng.standard_normal((2, 3)), qp.conjugate_argmax,
                      noise=NoiseSpec(0.0, sigma))
    assert dual.sigma_psi == float(np.sqrt(dual.lam_max_AtA) * sigma)


def test_min_norm_dual_certificate():
    # ||y*||^2 <= ||grad f(x*)||^2 / lambda_min_plus(A^T A)
    from optdec.problems import min_norm_dual_solution
    rng = np.random.default_rng(24)
    for _ in range(5):
        M = rng.standard_normal((4, 4))
        Q = M @ M.T + np.eye(4)
        b = rng.standard_normal(4)
        A = rng.standard_normal((2, 4))
        y_star, x_c = min_norm_dual_solution(Q, b, A)
        grad = Q @ x_c - b
        evals = np.linalg.eigvalsh(A.T @ A)
        lam_min_plus = evals[evals > 1e-10 * evals[-1]][0]
        assert np.sum(y_star ** 2) <= np.sum(grad ** 2) / lam_min_plus + 1e-9
        # consistency: A^T y* reproduces the gradient at the constrained optimum
        assert np.allclose(A.T @ y_star, grad, atol=1e-8)


@pytest.mark.parametrize("t", [0.0, 1e-14, 1e-9, 1e-7, 1e-4, 1e-1])
def test_one_rank_rule_for_the_dual_the_optimum_and_lstsq(monkeypatch, t):
    # A = [r; r + t v] with r orthogonal to v and |r| = |v|: sigma_2^2 / sigma_1^2 is
    # about t^2 / 4, against the cut RANK_TOL = 1e-10, so rank 2 from t = 1e-4 on
    from optdec.problems import min_norm_dual_solution
    r, v = np.array([1.0, 1.0, 1.0, 1.0]), np.array([1.0, -1.0, 1.0, -1.0])
    A = np.stack([r, r + t * v])
    qp = QuadraticProblem(np.diag([1.0, 2.0, 3.0, 4.0]), np.ones(4))
    dual = DualOracle(qp.oracle(), A, qp.conjugate_argmax)
    AtA = A.T @ A
    dual_rank = int(np.sum(np.linalg.eigvalsh((AtA + AtA.T) / 2.0) >= dual.lam_min_plus_AtA))
    # the kernel dimension is the size of the reduced system the optimum solves
    reduced, lstsq_ranks = [], []
    solve, lstsq = np.linalg.solve, np.linalg.lstsq

    def spy_solve(a, b):
        reduced.append(len(a))
        return solve(a, b)

    def spy_lstsq(*args, **kwargs):
        out = lstsq(*args, **kwargs)
        lstsq_ranks.append(int(out[2]))
        return out

    monkeypatch.setattr(np.linalg, "solve", spy_solve)
    monkeypatch.setattr(np.linalg, "lstsq", spy_lstsq)
    min_norm_dual_solution(qp.Q, qp.b, A)
    assert (dual_rank, 4 - reduced[0], lstsq_ranks[0]) == ((2,) * 3 if t >= 1e-4 else (1,) * 3)


def test_noisy_dual_reproducibility():
    oracle, qp = make_quadratic_oracle(c=[1.0, 3.0])
    A = np.array([[1.0, -1.0]])
    noise = NoiseSpec(0.05, 0.3, "gaussian")
    dual = DualOracle(oracle, A, qp.conjugate_argmax, noise=noise)
    y = np.array([0.4])
    g1, x1 = dual.batch_grad_and_x(y, 5, RngStreams(9).child(3))
    g2, x2 = dual.batch_grad_and_x(y, 5, RngStreams(9).child(3))
    assert (g1 == g2).all() and (x1 == x2).all()


# ---------------------------------------------------------------------------
# sampling contract: the batch at path p draws its rows from the one stream
# SeedSequence(seed, spawn_key=p)


def _reference(seed, path=()) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))


def _same_stream(gen, ref) -> bool:
    # the state, then a draw that uses it
    return (gen.bit_generator.state == ref.bit_generator.state
            and gen.standard_normal(3).tobytes() == ref.standard_normal(3).tobytes())


_WORD = st.integers(0, 2 ** 32 - 1)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 63), path=st.lists(_WORD, max_size=4), split=st.integers(0, 4))
def test_batched_streams_match_default_rng(seed, path, split):
    ref = lambda: _reference(seed, path)
    assert _same_stream(RngStreams(seed, tuple(path)).generator(), ref())
    # a child and an index extend the path alike
    head, tail = tuple(path[:split]), path[split:]
    assert _same_stream(RngStreams(seed, head).child(*tail).generator(), ref())
    assert _same_stream(RngStreams(seed, head).generator(*tail), ref())
    # a trailing zero word gives another stream
    longer = RngStreams(seed, tuple(path)).child(0).generator()
    assert longer.bit_generator.state != ref().bit_generator.state


def test_import_is_warning_free():
    code = "import optdec"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def _distributed_dual(noise):
    from optdec.network import DecentralizedInstance, DistributedDualOracle, Topology
    rng = np.random.default_rng(3)
    locals_ = [QuadraticProblem(np.eye(2) * (1.0 + k), rng.standard_normal(2)).oracle()
               for k in range(4)]
    return DistributedDualOracle(DecentralizedInstance(locals_, Topology.ring(4), 2), noise)


@pytest.mark.parametrize("r", [3, 16])
@pytest.mark.parametrize("distributed", [False, True])
def test_noisy_batch_solves_inner_maximiser_once(r, distributed):
    noise = NoiseSpec(0.01, 0.3, "gaussian")
    if distributed:
        dual = _distributed_dual(noise)
    else:
        oracle, qp = make_quadratic_oracle(c=[1.0, 3.0])
        dual = DualOracle(oracle, np.array([[1.0, -1.0]]), qp.conjugate_argmax, noise=noise)
    exact = dual.x_exact
    calls = []
    dual.x_exact = lambda u: calls.append(1) or exact(u)
    dual.batch_grad_and_x(np.ones(dual.dual_dim), r, RngStreams(4).child(1))
    assert len(calls) == 1
    assert dual.counter.stoch_samples == r


@pytest.mark.parametrize("r", [3, 16])
def test_primal_noisy_batch_evaluates_gradient_once(r):
    oracle, _ = make_quadratic_oracle(c=[1.0, -1.0])
    gradient = oracle.gradient
    calls = []
    oracle.gradient = lambda x: calls.append(1) or gradient(x)
    stoch = StochasticGradientOracle(oracle, NoiseSpec(0.02, 0.5, "bounded"))
    x = np.array([0.3, 0.1])
    streams = RngStreams(6).child(2)
    batch = stoch.batch(x, r, streams)
    assert len(calls) == 1 and oracle.counter.stoch_samples == r
    # sample l is still row l of the batch's stream
    rng, acc = _reference(6, (2,)), np.zeros(2)
    for l in range(r):
        acc += stoch.sample(x, rng)
    assert (batch == acc / r).all()


@pytest.mark.parametrize("r", [3, 16])
def test_network_noise_is_drawn_in_node_order(r):
    sigma, delta = 0.3, 0.01
    dual = _distributed_dual(NoiseSpec(delta, sigma, "gaussian"))
    m, n = dual.instance.m, dual.instance.n
    y = np.linspace(-1.0, 1.0, dual.dual_dim)
    _, x_mean = dual.batch_grad_and_x(y, r, RngStreams(8).child(5))
    # node k takes the k-th n draws of its sample's row, after its bias e_1
    center = dual.x_exact(dual.A @ y).reshape(m, n).copy()
    center[:, 0] += delta
    acc = np.zeros(m * n)
    etas = _reference(8, (5,)).standard_normal((r, m, n)) * (sigma / np.sqrt(n))
    for eta in etas:
        acc += (center + eta).reshape(-1)
    assert (x_mean == acc / r).all()


_SHARED = np.array([0.25, -0.5])  # the exact part, which the center is (no bias) or is built from


def _watch_centers(obj, seen):
    """Record every center ``obj`` computes, with a copy of its bytes at that time."""
    sample_center = obj._sample_center

    def watched(v):
        center = sample_center(v)
        seen.append((center, center.tobytes()))
        return center

    obj._sample_center = watched


def _noisy_batch(case, noise, seen):
    if case == "distributed":
        dual = _distributed_dual(noise)
        shared = np.tile(_SHARED, dual.instance.m)
        dual.x_exact = lambda u: shared
        _watch_centers(dual, seen)
        return lambda r, streams: dual.batch_grad_and_x(np.ones(dual.dual_dim), r, streams)
    oracle, qp = make_quadratic_oracle(dim=2)
    if case == "dual":
        dual = DualOracle(oracle, np.array([[1.0, -1.0]]), qp.conjugate_argmax, noise=noise)
        dual.x_exact = lambda u: _SHARED
        _watch_centers(dual, seen)
        return lambda r, streams: dual.batch_grad_and_x(np.ones(1), r, streams)
    oracle.gradient = lambda x: _SHARED
    stoch = StochasticGradientOracle(oracle, noise)
    _watch_centers(stoch, seen)
    return lambda r, streams: (stoch.batch(np.zeros(2), r, streams),)


@pytest.mark.parametrize("r", [3, 16])
@pytest.mark.parametrize("delta", [0.0, 0.01])
@pytest.mark.parametrize("case, kind", [("dual", "gaussian"), ("primal", "gaussian"),
                                        ("primal", "bounded"), ("distributed", "gaussian")])
def test_noisy_batch_never_writes_into_its_center(r, delta, case, kind):
    seen = []
    before = _SHARED.tobytes()
    batch = _noisy_batch(case, NoiseSpec(delta, 0.3, kind), seen)
    first = batch(r, RngStreams(12).child(4))
    second = batch(r, RngStreams(12).child(4))
    assert len(seen) == 2 and all(center.tobytes() == at_return for center, at_return in seen)
    assert _SHARED.tobytes() == before
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, second))


# ---------------------------------------------------------------------------
# the batch buffer: rows drawn in order from the batch's stream, added one by one


def _expected_sample(center, noise, block, rng):
    """``center + eta`` from the noise model itself: one draw per block, in block order."""
    out = np.empty_like(center)
    for k in range(0, center.shape[0], block):
        eta = rng.standard_normal(block)
        if noise.kind == "gaussian":
            eta *= noise.sigma / np.sqrt(block)
        else:
            eta *= noise.sigma / np.linalg.norm(eta)
        out[k:k + block] = center[k:k + block] + eta
    return out


def _in_order_mean(samples, r):
    acc = np.zeros_like(samples[0])
    for sample in samples:
        acc += sample
    return acc / r


def _sampling_case(case, noise, dim, exact):
    """An oracle whose exact part is ``exact``, with its batch, lone sample, counted call and block.

    ``case`` is ``dual``, ``distributed`` (``len(exact) // dim`` nodes of
    ``dim`` coordinates) or ``primal``.
    """
    if case == "distributed":
        from optdec.network import DecentralizedInstance, DistributedDualOracle, Topology
        m = exact.shape[0] // dim
        locals_ = [QuadraticProblem(np.eye(dim), np.zeros(dim)).oracle() for _ in range(m)]
        oracle = DistributedDualOracle(DecentralizedInstance(locals_, Topology.ring(m), dim), noise)
    if case == "dual":
        primal, qp = make_quadratic_oracle(dim=dim)
        oracle = DualOracle(primal, np.ones((1, dim)), qp.conjugate_argmax, noise=noise)
    if case == "primal":
        primal, _ = make_quadratic_oracle(dim=dim)
        primal.gradient = lambda x: exact
        oracle = StochasticGradientOracle(primal, noise)
        return (lambda r, streams: oracle.batch(np.zeros(dim), r, streams),
                lambda rng: oracle.sample(np.zeros(dim), rng), oracle, "sample", dim)
    oracle.x_exact = lambda u: exact
    y = np.ones(oracle.dual_dim)
    return (lambda r, streams: oracle.batch_grad_and_x(y, r, streams)[1],
            lambda rng: oracle.sample_x(oracle.A.T @ y, rng), oracle, "sample_x", dim)


def _count_calls(oracle, name):
    calls = []
    method = getattr(oracle, name)
    setattr(oracle, name, lambda *args: calls.append(1) or method(*args))
    return calls


def _check_batch_bits(case, kind, delta, sigma, dim, r, seed, path, exact):
    noise = NoiseSpec(delta, sigma, kind)
    batch, lone, oracle, name, block = _sampling_case(case, noise, dim, exact)
    bias = np.zeros(block)
    bias[0] = delta
    center = (exact.reshape(-1, block) + bias).reshape(-1) if delta > 0 else exact
    rng = _reference(seed, path)
    expected = [_expected_sample(center, noise, block, rng) for _ in range(r)]
    calls = _count_calls(oracle, name)
    before = oracle.counter.stoch_samples
    got = batch(r, RngStreams(seed, tuple(path)))
    assert len(calls) == r and oracle.counter.stoch_samples - before == r
    assert got.tobytes() == _in_order_mean(expected, r).tobytes()
    # a lone sample is a batch of one
    alone = lone(_reference(seed, path))
    assert alone.tobytes() == _in_order_mean(expected[:1], 1).tobytes()


@settings(max_examples=120, deadline=None)
@given(case=st.sampled_from(["dual", "distributed", "primal"]), kind=st.sampled_from(["gaussian", "bounded"]),
       delta=st.sampled_from([0.0, 0.03]), sigma=st.floats(1e-3, 1e3),
       dim=st.sampled_from([1, 2, 5]), r=st.sampled_from([1, 7, 8, 9, 100]),
       seed=st.integers(0, 2 ** 40), path=st.lists(_WORD, max_size=3),
       data=st.data())
def test_noisy_batch_has_the_bits_of_its_samples_added_in_order(case, kind, delta, sigma, dim,
                                                                  r, seed, path, data):
    size = dim * (3 if case == "distributed" else 1)
    exact = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=size, max_size=size)))
    _check_batch_bits(case, kind, delta, sigma, dim, r, seed, path, exact)


@pytest.mark.parametrize("case, dim, r", [
    ("dual", 1, oracles_mod._CHUNK + 3),   # past a buffer
    ("primal", 1, oracles_mod._CHUNK + 3),
    ("distributed", 50, 1400),             # 200 coordinates: past a buffer of 1310 rows
])
@pytest.mark.parametrize("kind", ["gaussian", "bounded"])
def test_noisy_batch_carries_its_sum_across_buffers(case, dim, r, kind):
    size = dim * (4 if case == "distributed" else 1)
    exact = 5.0 * np.random.default_rng(2).standard_normal(size)
    _check_batch_bits(case, kind, 0.01, 0.7, dim, r, 17, (3,), exact)


@pytest.mark.parametrize("case", ["dual", "distributed", "primal"])
@pytest.mark.parametrize("kind", ["gaussian", "bounded"])
def test_batch_rows_are_prefix_stable_in_r(case, kind):
    # row l of a batch does not depend on the batch size
    exact = np.linspace(-1.0, 1.0, 6 if case == "distributed" else 2)
    rows = {}
    for r in (5, 12):
        batch, _, oracle, name, _ = _sampling_case(case, NoiseSpec(0.01, 0.4, kind), 2, exact)
        method, drawn = getattr(oracle, name), rows.setdefault(r, [])

        def record(*args, method=method, drawn=drawn):
            row = method(*args)
            drawn.append(row.tobytes())
            return row

        setattr(oracle, name, record)
        batch(r, RngStreams(4, (9,)))
    assert len(rows[12]) == 12 and rows[12][:5] == rows[5]


class _CountingGenerator:
    """A generator that records the rows each ``standard_normal`` call fills."""

    def __init__(self, rng, filled):
        self.rng, self.filled = rng, filled

    def standard_normal(self, *args, out=None):
        self.filled.append(len(out))
        return self.rng.standard_normal(*args, out=out)


@pytest.mark.parametrize("case, dim, r", [
    *[(case, 2, r) for case in ("dual", "distributed", "primal")
      for r in (1, 7, oracles_mod._CHUNK, oracles_mod._CHUNK + 3)],
    ("distributed", 50, 1400),             # 200 coordinates: buffers of 1310 rows
])
@pytest.mark.parametrize("kind", ["gaussian", "bounded"])
def test_noisy_batch_fills_each_buffer_in_one_generator_call(monkeypatch, case, dim, r, kind):
    exact = np.linspace(-1.0, 1.0, dim * (4 if case == "distributed" else 1))
    d = exact.shape[0]
    filled, generator = [], RngStreams.generator
    monkeypatch.setattr(RngStreams, "generator",
                        lambda self, *index: _CountingGenerator(generator(self, *index), filled))
    batch, _, oracle, name, _ = _sampling_case(case, NoiseSpec(0.01, 0.4, kind), dim, exact)
    rows, method = [], getattr(oracle, name)
    setattr(oracle, name, lambda *args: rows.append(method(*args).copy()))
    batch(r, RngStreams(23, (6, 1)))
    chunk = min(oracles_mod._CHUNK, (1 << 18) // d)
    assert filled == [min(chunk, r - lo) for lo in range(0, r, chunk)]
    assert len(rows) == r
    if kind == "gaussian":
        # the README's contract: sample l is row l of the stream's standard_normal((r, d))
        raw = _reference(23, (6, 1)).standard_normal((r, d))
        assert np.array(rows).tobytes() == raw.tobytes()
