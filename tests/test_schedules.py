import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import expression_form_triangle
from optdec.schedules import (acsa_params, batch_size_spdstm,
                              batch_size_sstm, batch_size_sstm_sc,
                              gap_certificate_N, next_alpha_spdstm,
                              next_alpha_stm, next_alpha_strongly_convex,
                              stm_chain, stm_step, triangle)


def test_step_state_carrier():
    # (k, alpha_k, A_k) per step
    states = [(0, 0.0, 0.0)]
    A = 0.0
    for k in range(5):
        alpha, A = next_alpha_stm(A, 2.0, 0.0)
        states.append((k + 1, alpha, A))
    for (_, _, A_prev), (_, alpha, A_cur) in zip(states, states[1:]):
        assert A_cur == pytest.approx(A_prev + alpha)


# ---------------------------------------------------------------------------
# primal-dual step rule: 2 L~ alpha^2 = A + alpha


def test_spdstm_first_step():
    alpha, A = next_alpha_spdstm(0.0, 1.0)
    assert alpha == pytest.approx(0.5)
    assert A == pytest.approx(0.5)


def test_spdstm_second_step_golden_root():
    alpha, _ = next_alpha_spdstm(0.5, 1.0)
    assert alpha == pytest.approx((1.0 + math.sqrt(5.0)) / 4.0)


def test_spdstm_alpha_upper_bound():
    # alpha_{k+1} <= (k+2) / (2 L~)
    for L in (0.3, 1.0, 4.0):
        A = 0.0
        for k in range(200):
            alpha, A = next_alpha_spdstm(A, L)
            assert alpha <= (k + 2) / (2.0 * L) + 1e-12


def test_spdstm_rejects_bad_L():
    with pytest.raises(ValueError):
        next_alpha_spdstm(0.0, 0.0)


# ---------------------------------------------------------------------------
# strongly convex rule: A_{k+1}(1 + A_k mu) = L alpha^2, A_0 = 1/L


def test_strongly_convex_first_step_closed_form():
    alpha, A = next_alpha_strongly_convex(1.0, 1.0, 1.0)
    assert alpha == pytest.approx(1.0 + math.sqrt(3.0))
    assert A == pytest.approx(2.0 + math.sqrt(3.0))
    assert A * (1.0 + 1.0 * 1.0) == pytest.approx(1.0 * alpha ** 2)


def test_strongly_convex_mu_zero_degeneration():
    alpha, _ = next_alpha_stm(0.0, 1.0, 0.0, factor=1.0)
    assert alpha == pytest.approx(1.0)


def test_strongly_convex_geometric_lower_bound():
    # A_k >= (1/L)(1 + sqrt(mu/L)/2)^{2k}
    for L, mu in ((1.0, 1.0), (2.0, 0.5), (10.0, 0.1)):
        A = 1.0 / L
        rate = (1.0 + 0.5 * math.sqrt(mu / L)) ** 2
        for k in range(1, 101):
            _, A = next_alpha_strongly_convex(A, L, mu)
            assert A >= (1.0 / L) * rate ** k * (1.0 - 1e-12)


# ---------------------------------------------------------------------------
# direct rule


def test_stm_first_step():
    alpha, A = next_alpha_stm(0.0, 1.0, 0.0)
    assert alpha == pytest.approx(0.5 + math.sqrt(0.25))
    assert A == pytest.approx(1.0)


def test_stm_quadratic_growth():
    # A_N >= N^2 / (4 L) for the factor-1 convex rule
    L = 1.0
    A = 0.0
    for N in range(1, 1001):
        _, A = next_alpha_stm(A, L, 0.0)
    assert A >= 1000 ** 2 / (4.0 * L)


@pytest.mark.parametrize("L", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("mu", [0.1, 1.0, 10.0])
def test_stm_strictly_increasing(L, mu):
    # strictly increasing while representable (mu/L = 100 grows by ~1e2 per
    # step and exceeds the float64 range inside 100 steps)
    A = 0.0
    prev_alpha = 0.0
    for _ in range(100):
        alpha, A_next = next_alpha_stm(A, L, mu)
        assert alpha > prev_alpha
        assert A_next > A
        prev_alpha, A = alpha, A_next
        if A > 1e280:
            break


@pytest.mark.parametrize("L", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("mu", [0.1, 1.0, 10.0])
def test_quadratic_relation_residual(L, mu):
    # the coupling relation holds to 1e-12 relative to its own scale over
    # 1e3 steps (or until A_k approaches the float64 range limit: for
    # mu >> L the sum grows geometrically and overflows well before 1e3)
    A = 1.0 / L
    for _ in range(1000):
        if A > 1e140:  # alpha^2 must stay inside the float64 range
            break
        alpha, A_next = next_alpha_strongly_convex(A, L, mu)
        lhs = A_next * (1.0 + A * mu)
        residual = abs(lhs - L * alpha ** 2) / lhs
        assert residual <= 1e-12
        A = A_next


def test_convex_growth_spdstm_normalization():
    # A_N / N^2 >= 1 / (8 L~) for N in [10, 1000]
    L_tilde = 3.0
    A = 0.0
    for N in range(1, 1001):
        _, A = next_alpha_spdstm(A, L_tilde)
        if N >= 10:
            assert A / N ** 2 >= 1.0 / (8.0 * L_tilde)


# ---------------------------------------------------------------------------
# per-iteration parameters of the aggregated scheme


def test_acsa_params_values():
    assert acsa_params(1, 1.0) == pytest.approx((1.0, 2.0))
    assert acsa_params(3, 1.0) == pytest.approx((0.5, 1.0 / 3.0))


def test_acsa_params_rejects_zero():
    with pytest.raises(ValueError):
        acsa_params(0, 1.0)


@pytest.mark.parametrize("call, message", [
    (lambda: next_alpha_stm(-1.0, 1.0), "A_k must be non-negative"),
    (lambda: acsa_params(1, 0.0), "L_tilde_psi must be positive"),
    (lambda: batch_size_sstm(1.0, 1.0, 0.0, 1.0, 0.0, 10, 0.1), "eps must be positive"),
    (lambda: batch_size_spdstm(1.0, 1.0, 0.1, 10, 0.1, C_hat=0.0), "C_hat must be positive"),
    (lambda: batch_size_spdstm(1.0, 1.0, -0.1, 10, 0.1), "eps must be positive"),
    (lambda: batch_size_sstm_sc(1.0, 0.5, 1.0, 0.0, 10, 0.1), "eps and C must be positive"),
    (lambda: batch_size_sstm_sc(1.0, 0.5, 1.0, 0.1, 10, 0.1, C=0.0), "eps and C must be positive"),
], ids=["next_alpha_stm_A_k", "acsa_params_L", "batch_size_sstm_eps", "batch_size_spdstm_C_hat",
        "batch_size_spdstm_eps", "batch_size_sstm_sc_eps", "batch_size_sstm_sc_C"])
def test_a_schedule_refuses_a_value_outside_its_domain(call, message):
    # optdec run checks these before any schedule is read; a library caller reaches them first
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


# ---------------------------------------------------------------------------
# batch rules


def test_batch_sstm_noiseless_is_one():
    assert batch_size_sstm(5.0, 10.0, 1.0, 0.0, 0.1, 100, 0.05) == 1


def test_batch_sstm_formula():
    # sigma^2 = 1, alpha = 1, A mu = 0, eps = 0.1, ln(N/beta) = 3 -> 30
    N, beta = 1, 1.0 / math.exp(3.0)
    assert batch_size_sstm(1.0, 0.0, 0.0, 1.0, 0.1, N, beta) == 30


def test_batch_sstm_large_mu_denominator():
    assert batch_size_sstm(1.0, 1e9, 1.0, 1.0, 1e-3, 100, 0.05) == 1


def test_batch_spdstm_noiseless_is_one():
    assert batch_size_spdstm(2.0, 0.0, 0.5, 100, 0.05) == 1


def test_batch_spdstm_formula():
    # sigma^2 = 1, alpha~ = 2, eps = 0.5, ln(N/beta) = 2 -> 8
    N, beta = 1, 1.0 / math.exp(2.0)
    assert batch_size_spdstm(2.0, 1.0, 0.5, N, beta, C_hat=1.0) == 8


def test_batch_spdstm_halves_with_doubled_eps():
    N, beta = 100, 0.05
    r1 = batch_size_spdstm(2.0, 1.0, 0.2, N, beta)
    r2 = batch_size_spdstm(2.0, 1.0, 0.4, N, beta)
    assert r2 == math.ceil(r1 / 2) or abs(r2 - r1 / 2) <= 1


def test_batch_sstm_sc_noiseless_is_one():
    assert batch_size_sstm_sc(4.0, 1.0, 0.0, 1e-2, 50, 0.05) == 1


# ---------------------------------------------------------------------------
# the similar-triangles kernel and the gap planner


def _never_called(*args):
    raise AssertionError("called")


def test_triangle_zero_steps_returns_inputs():
    x, z = object(), object()
    assert triangle(_never_called, 0.5, x, z, 0, _never_called, _never_called,
                    _never_called) == (x, z, 0.5)


@pytest.mark.parametrize("stop_at", [0, 3, 9])
def test_triangle_after_stops_loop(stop_at):
    calls = []

    def gradient(k, x_tilde, alpha, A_next):
        calls.append(k)
        return x_tilde

    triangle(lambda A: next_alpha_stm(A, 1.0), 0.0, 1.0, 1.0, 20, gradient,
             lambda z, g, x_tilde, alpha, A_next: z - alpha * g,
             lambda k, x, z, A: k == stop_at)
    assert calls == list(range(stop_at + 1))


def test_triangle_matches_two_unrolled_steps_on_quadratic():
    # f(x) = (L/2)(x - 3)^2 in 1-D, plain mirror step
    L = 4.0

    def grad(x):
        return L * (x - 3.0)

    A, x, z = 0.0, 0.5, 0.5
    for _ in range(2):
        alpha, A_next = next_alpha_stm(A, L, 0.0, factor=2.0)
        x_tilde = (A * x + alpha * z) / A_next
        z = z - alpha * grad(x_tilde)
        x = (A * x + alpha * z) / A_next
        A = A_next

    seen = []
    got = triangle(lambda A: next_alpha_stm(A, L, 0.0, factor=2.0), 0.0, 0.5, 0.5, 2,
                   lambda k, x_tilde, alpha, A_next: grad(x_tilde),
                   lambda z, g, x_tilde, alpha, A_next: z - alpha * g,
                   lambda k, x, z, A: seen.append((k, x, z, A)))
    assert got == (x, z, A)
    assert seen[-1] == (1, x, z, A)


_coord = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dim=st.integers(1, 8), A=st.floats(0.0, 1e4),
       L=st.floats(1e-3, 1e3), mu=st.floats(0.0, 10.0), N=st.integers(0, 12))
def test_triangle_is_bitwise_the_expression_form(data, dim, A, L, mu, N):
    x, z, scale, shift = (np.array(data.draw(st.lists(_coord, min_size=dim, max_size=dim)))
                          for _ in range(4))
    x_in, z_in = x.copy(), z.copy()

    def run(kernel):
        seen = []

        def gradient(k, x_tilde, alpha, A_next):
            seen.append(x_tilde.tobytes())
            return scale * x_tilde - shift

        def mirror(z, g, x_tilde, alpha, A_next):
            # the strongly convex pull-back in expression form
            return z - alpha * (g - mu * (x_tilde - z)) / (1.0 + A_next * mu)

        def after(k, x, z, A):
            seen.append((x.tobytes(), z.tobytes(), A))

        x_N, z_N, A_N = kernel(lambda A: next_alpha_stm(A, L, mu), A, x, z, N,
                               gradient, mirror, after)
        return seen, x_N.tobytes(), z_N.tobytes(), A_N

    assert run(triangle) == run(expression_form_triangle)
    assert x.tobytes() == x_in.tobytes() and z.tobytes() == z_in.tobytes()


def test_triangle_hands_python_floats_to_every_callback():
    # the 0-d arrays the kernel scales by stay inside it: batch rules, trace
    # rows and CSV formatting get Python floats, even from a numpy start A
    seen = []
    stepper = stm_step(3.0, 0.5, 2.0)

    def step(A):
        seen.append(("step", A))
        return stepper(A)

    def gradient(k, x_tilde, alpha, A_next):
        seen.extend((("gradient", alpha), ("gradient", A_next)))
        return 2.0 * x_tilde - 1.0

    def mirror(z, g, x_tilde, alpha, A_next):
        seen.extend((("mirror", alpha), ("mirror", A_next)))
        return z - alpha * g

    def after(k, x, z, A):
        seen.append(("after", A))

    x0 = np.array([1.0, -2.0, 0.5])
    _, _, A = triangle(step, np.float64(0.25), x0, x0, 4, gradient, mirror, after)
    seen.append(("return", A))
    assert len(seen) == 4 * 6 + 1
    assert [(who, type(v)) for who, v in seen] == [(who, float) for who, _ in seen]


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_triangle_refuses_a_step_that_is_not_finite_before_forming_a_point(bad):
    # an A' (or alpha) past the double range raised inf / inf warnings and NaN iterates
    stepper = stm_step(1.0, 0.5)
    seen = []

    def step(A):
        return (bad, A + bad) if len(seen) == 3 else stepper(A)

    with pytest.raises(OverflowError, match=r"^step size overflow at step 4: A = .* gives A' = "):
        triangle(step, 1.0, np.ones(2), np.ones(2), 10,
                 lambda k, x_tilde, alpha, A_next: seen.append(k) or x_tilde,
                 lambda z, g, x_tilde, alpha, A_next: z - alpha * g, lambda k, x, z, A: False)
    assert seen == [0, 1, 2]


@settings(max_examples=300, deadline=None)
@given(A=st.floats(0.0, 1e12), L=st.floats(1e-6, 1e6), mu=st.floats(0.0, 50.0),
       factor=st.sampled_from([1.0, 2.0]), m=st.integers(0, 40))
def test_stm_chain_is_bitwise_the_stepper(A, L, mu, factor, m):
    step = stm_step(L, mu, factor)
    alphas, As = [], [A]
    for _ in range(m):
        alpha, A_next = step(As[-1])
        alphas.append(alpha)
        As.append(A_next)
    assert stm_chain(step, A, m) == (alphas, As)


def test_gap_certificate_N_is_first_certified_step():
    R0, L, eps = 2.0, 3.0, 1e-2
    N = gap_certificate_N(R0, L, eps, max_N=10_000)
    assert N < 10_000
    A = 0.0
    for k in range(1, N + 1):
        _, A = next_alpha_stm(A, L, 0.0, factor=2.0)
        assert (1.5 * R0 * R0 / A <= eps) == (k == N)


def test_gap_certificate_N_returns_cap_when_unreached():
    assert gap_certificate_N(1.0, 1.0, 1e-12, max_N=50) == 50


@settings(max_examples=300, deadline=None)
@given(A=st.floats(0.0, 1e12), L=st.floats(1e-6, 1e6))
def test_next_alpha_spdstm_is_bitwise_stm_with_factor_two(A, L):
    # the planner serves both schemes through next_alpha_stm(A, L, 0, 2); the
    # reference is the closed root of 2 L alpha^2 = A + alpha
    b, c = 1.0 / (4.0 * L), A / (2.0 * L)
    alpha = b + math.sqrt(b * b + c)
    assert next_alpha_spdstm(A, L) == (alpha, A + alpha)
    assert next_alpha_stm(A, L, 0.0, factor=2.0) == (alpha, A + alpha)


@settings(max_examples=300, deadline=None)
@given(A=st.floats(0.0, 1e12), L=st.floats(1e-6, 1e6), mu=st.floats(0.0, 50.0),
       factor=st.sampled_from([1.0, 2.0]))
def test_stm_step_is_bitwise_next_alpha_stm(A, L, mu, factor):
    # the reference is the root written out, in the order of its arithmetic
    cL = factor * L
    w = 1.0 + A * mu
    b, c = w / (2.0 * cL), A * w / cL
    alpha = b + math.sqrt(b * b + c)
    step = stm_step(L, mu, factor)
    assert step(A) == next_alpha_stm(A, L, mu, factor) == (alpha, A + alpha)
    # and along a run: the stepper fed its own A, step after step
    A_step = A_ref = A
    for _ in range(5):
        got, want = step(A_step), next_alpha_stm(A_ref, L, mu, factor)
        assert got == want and all(type(v) is float for v in got)
        A_step, A_ref = got[1], want[1]


@pytest.mark.parametrize("L, mu", [(0.0, 0.0), (-1.0, 0.0), (1.0, -0.5)])
def test_stm_step_checks_L_and_mu_once(L, mu):
    with pytest.raises(ValueError):
        stm_step(L, mu)
