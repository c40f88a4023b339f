"""First-order oracles, noise models and call accounting.

Every solver in this package consumes one of three oracle flavours:

* :class:`FirstOrderOracle` -- exact value/gradient access to a smooth
  convex function together with its smoothness ``L`` and strong-convexity
  ``mu`` constants, and the side data it declares: ``conjugate_argmax``,
  ``x_star`` and ``quadratic``, each ``None`` when unknown.
* :class:`StochasticGradientOracle` -- gradient samples contaminated by the
  bias field ``e_1`` (scaled by ``delta``) and sub-Gaussian noise (scale
  ``sigma``).
* :class:`DualOracle` -- access to the Fenchel-type dual of a strongly
  convex function composed with a linear map ``A``; its gradient is
  ``A x(A^T y)`` where ``x(u)`` maximises ``<u, x> - f(x)``.

Randomness is organised in explicit streams (:class:`RngStreams`).  The
contract:

* Sample ``l`` of a batch drawn from streams with seed ``s`` and path ``p``
  (e.g. ``(k,)`` for iteration ``k``) is a pure function of ``(s, p, l)``:
  its noise comes from the PCG64 stream ``np.random.default_rng((s, *p,
  l))`` and from nothing else.
* Batches are therefore order independent: their samples may be drawn in
  any order, or in parallel, and each is the same.
* Runs are byte-identical per ``(config, seed)``: a batch adds its samples
  in the order ``l = 0, ..., r-1``, and each sample is the batch's exact
  part (inner maximiser or gradient, plus bias) plus its own noise, so the
  sum does not depend on how the exact part or the streams were computed.
* The batch path (``RngStreams.generators``) seeds all streams of a large
  batch in one vectorised pass and moves one reused ``Generator`` from
  stream to stream.  No caller may keep a generator across samples.

A silent oracle (``NoiseSpec.silent``) draws nothing, and its batches build
no generator.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CallCounter",
    "RngStreams",
    "NoiseSpec",
    "FirstOrderOracle",
    "StochasticGradientOracle",
    "DualOracle",
    "eval_grad",
    "sample_stoch_grad",
    "batch_grad",
    "dual_from_primal",
]

# Eigenvalues below RANK_TOL * lambda_max are treated as exact zeros when
# deciding the rank / kernel of A^T A.
RANK_TOL = 1e-10


class CallCounter:
    """Monotone counters for oracle and communication accounting.

    Counters only grow during a run; ``reset`` is meant to be called once
    at run start.  Increments are plain integer additions, safe to share
    between threads under CPython for the accounting purposes here.
    """

    __slots__ = ("grad_calls", "stoch_samples", "matvec_AtA", "comm_rounds")

    def __init__(self):
        self.reset()

    def reset(self):
        self.grad_calls = 0
        self.stoch_samples = 0
        self.matvec_AtA = 0
        self.comm_rounds = 0

    def snapshot(self) -> dict:
        return {
            "grad_calls": self.grad_calls,
            "stoch_samples": self.stoch_samples,
            "matvec_AtA": self.matvec_AtA,
            "comm_rounds": self.comm_rounds,
        }

    def __repr__(self):
        return f"CallCounter({self.snapshot()})"


class RngStreams:
    """Factory of deterministic random generator streams.

    A stream is addressed by a tuple of non-negative integers appended to
    the run seed, e.g. ``streams.generator(k, l)`` is the generator for
    sample ``l`` of iteration ``k``.  ``child(...)`` fixes a path prefix,
    which lets nested procedures (restarts, trajectories) own disjoint
    stream families.  ``generators(r)`` yields the streams of samples
    ``0, ..., r-1`` of a batch at once.
    """

    __slots__ = ("seed", "path")

    def __init__(self, seed: int, path: tuple = ()):
        self.seed = int(seed)
        self.path = tuple(int(p) for p in path)

    def generator(self, *index: int) -> np.random.Generator:
        return np.random.default_rng((self.seed, *self.path, *(int(i) for i in index)))

    def generators(self, r: int):
        """Yield, for ``l = 0, ..., r-1``, a generator in the state of ``generator(l)``.

        A batch of at least ``_BATCH_MIN`` samples seeds all its streams in
        one vectorised pass and yields one reused ``Generator``, moved to
        each stream in turn: draw from it before advancing the iterator,
        and keep no reference to it.  Smaller batches, or a numpy whose
        seeding the import-time self-check does not reproduce, get a fresh
        ``generator(l)`` per sample.
        """
        if r < _BATCH_MIN or not _BATCH_SEEDING:
            for l in range(r):
                yield self.generator(l)
            return
        gen = np.random.Generator(np.random.PCG64(_SEED_TEMPLATE))
        bitgen = gen.bit_generator
        prefix = _uint32_words((self.seed, *self.path))
        for lo in range(0, r, _CHUNK):
            for state in _pcg64_states(prefix, np.arange(lo, min(r, lo + _CHUNK), dtype=np.uint32)):
                bitgen.state = state
                yield gen

    def child(self, *index: int) -> "RngStreams":
        return RngStreams(self.seed, self.path + tuple(int(i) for i in index))


# -- batched stream seeding ---------------------------------------------------
#
# ``np.random.default_rng(words)`` hashes the words with numpy's
# ``SeedSequence`` (a pool of four uint32 words filled and cross-mixed by
# ``hashmix`` and ``mix``, then ``generate_state`` of eight words) and seeds
# PCG64 from them: ``inc = 2 i + 1`` and ``state = ((inc + s) MULT + inc)
# mod 2^128`` for the 128-bit halves ``s`` and ``i`` of the state.  Within a
# batch the words differ only in the last one, the sample index, so the
# hash runs once over all indices of a chunk as uint32 arrays (which wrap
# mod 2^32 like the C code).  ``_batch_seeding_matches_numpy`` checks the
# result against ``default_rng`` at import.

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL = 4
# Smallest batch seeded in one pass.  The pass and its Generator cost about
# 150 us, and each sample then saves about 20 us against ``default_rng``,
# so below 8 samples it does not pay (dim 20, one core of a Xeon VM).
_BATCH_MIN = 8
_CHUNK = 4096
_SEED_TEMPLATE = np.random.SeedSequence(0)


def _uint32_words(values) -> list:
    """The uint32 words ``SeedSequence`` makes of non-negative ints, least significant first."""
    words = []
    for v in values:
        if v < 0:
            raise ValueError("stream words must be non-negative")
        words.append(v & _MASK32)
        v >>= 32
        while v:
            words.append(v & _MASK32)
            v >>= 32
    return words


@functools.lru_cache(maxsize=None)
def _hash_chain(init: int, mult: int, n: int):
    """Xor and multiplier constants of ``n`` successive ``hashmix`` calls, as (n, 1) columns."""
    xors, mults = [], []
    for _ in range(n):
        xors.append(init)
        init = (init * mult) & _MASK32
        mults.append(init)
    return (np.array(xors, dtype=np.uint32)[:, None], np.array(mults, dtype=np.uint32)[:, None])


_GENERATE_CHAIN = _hash_chain(_HASH_INIT_B, _HASH_MULT_B, 2 * _POOL)


def _hashmix(value, xor, mult):
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(16))


def _mix(x, y):
    out = x * _MIX_MULT_L - y * _MIX_MULT_R
    return out ^ (out >> np.uint32(16))


def _pcg64_states(prefix: list, index: np.ndarray) -> list:
    """PCG64 states of ``default_rng((*prefix, l))`` for every uint32 ``l`` in ``index``.

    ``prefix`` holds uint32 words (see ``_uint32_words``).  Rows of the
    pool are the four pool words, columns the samples.
    """
    n = len(prefix) + 1
    xors, mults = _hash_chain(_HASH_INIT_A, _HASH_MULT_A, _POOL * max(n, _POOL))
    entropy = np.zeros((max(n, _POOL), index.shape[0]), dtype=np.uint32)
    entropy[:n - 1] = np.array(prefix, dtype=np.uint32)[:, None]
    entropy[n - 1] = index
    pool = _hashmix(entropy[:_POOL], xors[:_POOL], mults[:_POOL])
    c = _POOL
    for src in range(_POOL):
        # the source row stays fixed while the three others mix with it
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xors[c:c + 3], mults[c:c + 3]))
        c += 3
    for src in range(_POOL, n):
        pool = _mix(pool, _hashmix(entropy[src], xors[c:c + _POOL], mults[c:c + _POOL]))
        c += _POOL
    words = _hashmix(np.concatenate([pool, pool]), *_GENERATE_CHAIN).astype(np.uint64)
    # the 128-bit step in Python ints, elementwise over object arrays
    halves = (words[0::2] | (words[1::2] << np.uint64(32))).astype(object)
    seeds = (halves[0] << 64) | halves[1]
    incs = ((((halves[2] << 64) | halves[3]) << 1) | 1) & _MASK128
    states = ((incs + seeds) * _PCG64_MULT + incs) & _MASK128
    return [{"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
             "has_uint32": 0, "uinteger": 0} for state, inc in zip(states.tolist(), incs.tolist())]


def _batch_seeding_matches_numpy() -> bool:
    """Whether batched seeding reproduces ``default_rng`` on this numpy.

    Compares states and a draw on streams with one- and two-word seeds,
    paths of depth 0-3 and indices up to ``2^32 - 1``.
    """
    gen = np.random.Generator(np.random.PCG64(_SEED_TEMPLATE))
    index = np.array([0, 1, 9, _MASK32], dtype=np.uint32)
    for key in ((0,), (12345, 7), (2 ** 40 + 3, 0, 2 ** 33), (1, 2, 3, 4)):
        try:
            states = _pcg64_states(_uint32_words(key), index)
            for l, state in zip(index.tolist(), states):
                ref = np.random.default_rng((*key, l))
                gen.bit_generator.state = state
                if ref.bit_generator.state != state or \
                        ref.standard_normal(3).tobytes() != gen.standard_normal(3).tobytes():
                    return False
        except (TypeError, ValueError, KeyError, OverflowError):
            return False
    return True


_BATCH_SEEDING = _batch_seeding_matches_numpy()


@dataclass(frozen=True)
class NoiseSpec:
    """Bias level and sub-Gaussian scale of a stochastic oracle.

    ``delta`` bounds the norm of the systematic error of the sample mean;
    ``sigma`` is the sub-Gaussian scale of the zero-mean part.  ``kind``
    selects the zero-mean distribution: ``gaussian`` draws from
    N(0, (sigma^2/dim) I) so that E||eta||^2 = sigma^2, ``bounded`` draws
    uniformly from the radius-``sigma`` sphere, ``none`` disables noise.
    """

    delta: float = 0.0
    sigma: float = 0.0
    kind: str = "gaussian"

    def __post_init__(self):
        if self.delta < 0 or self.sigma < 0:
            raise ValueError("noise levels must be non-negative")
        if self.kind not in ("gaussian", "bounded", "none"):
            raise ValueError(f"unknown noise kind {self.kind!r}")

    @property
    def silent(self) -> bool:
        return self.delta == 0.0 and self.sigma == 0.0

    def sample_eta(self, dim: int, rng: np.random.Generator) -> np.ndarray:
        if self.sigma == 0.0 or self.kind == "none":
            return np.zeros(dim)
        if self.kind == "gaussian":
            return rng.standard_normal(dim) * (self.sigma / np.sqrt(dim))
        # bounded: uniform on the sphere of radius sigma
        u = rng.standard_normal(dim)
        return u * (self.sigma / np.linalg.norm(u))


def e_1(x: np.ndarray) -> np.ndarray:
    """The bias field: the first unit vector, shaped like ``x``."""
    e = np.zeros_like(x)
    e[0] = 1.0
    return e


class FirstOrderOracle:
    """Exact first-order oracle for an L-smooth, mu-strongly convex function.

    ``value`` and ``gradient`` are raw callables; use :func:`eval_grad` (or
    the ``eval_grad`` method) inside solvers so that calls are counted.
    Diagnostic code may call the raw attributes freely without polluting
    the counters.

    The side data a problem knows in closed form is declared here and is
    ``None`` when unknown: ``conjugate_argmax`` maps ``u`` to
    ``argmax_x {<u, x> - f(x)}``, ``x_star`` is the minimiser and
    ``quadratic`` the :class:`~optdec.problems.QuadraticProblem` whose
    ``Q`` and ``b`` define ``f``.
    """

    def __init__(self, dim, value, gradient, L, mu=0.0, counter=None, *,
                 conjugate_argmax=None, x_star=None, quadratic=None):
        if L < 0 or mu < 0:
            raise ValueError("L and mu must be non-negative")
        self.dim = int(dim)
        self.value = value
        self.gradient = gradient
        self.L = float(L)
        self.mu = float(mu)
        self.counter = counter if counter is not None else CallCounter()
        self.conjugate_argmax = conjugate_argmax
        self.x_star = x_star
        self.quadratic = quadratic

    def _check_dim(self, x):
        if np.shape(x) != (self.dim,):
            raise ValueError(f"expected vector of length {self.dim}, got shape {np.shape(x)}")

    def eval_grad(self, x: np.ndarray) -> np.ndarray:
        self._check_dim(x)
        self.counter.grad_calls += 1
        return np.asarray(self.gradient(x), dtype=float)


class StochasticGradientOracle:
    """Gradient sampler with deterministic bias and sub-Gaussian noise.

    A sample at ``x`` is ``gradient(x) + delta * e_1 + eta`` with ``eta``
    drawn from the :class:`NoiseSpec` distribution.  The bias field is the
    fixed unit vector ``e_1``, so the bias bound holds with equality and is
    testable.
    """

    def __init__(self, base: FirstOrderOracle, noise: NoiseSpec):
        self.base = base
        self.noise = noise
        self.counter = base.counter

    @property
    def dim(self):
        return self.base.dim

    def _sample_center(self, x: np.ndarray) -> np.ndarray:
        """``gradient(x) + delta * e_1``: what every sample at ``x`` shares."""
        self.base._check_dim(x)
        g = np.asarray(self.base.gradient(x), dtype=float)
        if self.noise.delta > 0:
            g = g + self.noise.delta * e_1(x)
        return g

    def sample(self, x: np.ndarray, rng: np.random.Generator, center=None) -> np.ndarray:
        """One sample ``center + eta``; a batch passes the ``center`` it computed at ``x``."""
        self.counter.stoch_samples += 1
        if center is None:
            center = self._sample_center(x)
        if self.noise.silent:
            return center
        return center + self.noise.sample_eta(self.dim, rng)

    def batch(self, x: np.ndarray, r: int, streams: RngStreams) -> np.ndarray:
        if r < 1:
            raise ValueError("batch size must be >= 1")
        center = self._sample_center(x)
        acc = np.zeros(self.dim)
        # a noiseless sample draws nothing, so it needs no generator
        for rng in itertools.repeat(None, r) if self.noise.silent else streams.generators(r):
            acc += self.sample(x, rng, center)
        return acc / r


class DualOracle:
    """Oracle for the dual ``psi(y) = max_x {<A^T y, x> - f(x)}``.

    The dual gradient is ``A x(A^T y)``; noisy access perturbs the inner
    maximiser ``x`` by ``delta * e_1 + eta`` before mapping
    through ``A``, so the dual-side bias and noise scale with
    ``sqrt(lambda_max(A^T A))``.

    ``apply_A`` / ``apply_At`` are overridable hooks: the decentralized
    layer replaces them with communication-counting multiplications.
    """

    def __init__(self, primal: FirstOrderOracle, A: np.ndarray, argmax_solver,
                 noise: NoiseSpec | None = None, counter=None):
        if primal.mu <= 0:
            raise ValueError("dual oracle requires a strongly convex primal (mu > 0)")
        self.primal = primal
        self.A, self.lam_max_AtA, self.lam_min_plus_AtA = self._constraint_map(A)
        self.argmax_solver = argmax_solver
        self.noise = noise if noise is not None else NoiseSpec(0.0, 0.0, "none")
        self.counter = counter if counter is not None else primal.counter
        self.L_psi = self.lam_max_AtA / primal.mu
        self.mu_psi = self.lam_min_plus_AtA / primal.L if primal.L > 0 else 0.0

    def _constraint_map(self, A):
        """Checked ``A`` with ``lambda_max`` and ``lambda_min_plus`` of ``A^T A``.

        ``A`` becomes a dense matrix; eigenvalues below
        ``RANK_TOL * lambda_max`` count as zeros.  Subclasses that know the
        spectrum of a structured ``A`` override this.
        """
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[1] != self.primal.dim:
            raise ValueError("A must be a (m_rows x dim) matrix")
        if not np.any(A):
            raise ValueError("A must not be identically zero")
        AtA = A.T @ A
        evals = np.linalg.eigvalsh((AtA + AtA.T) / 2.0)
        lam_max = float(evals[-1])
        positive = evals[evals > RANK_TOL * lam_max]
        return A, lam_max, float(positive[0])

    # -- linear maps (hooks for the communication simulator) ---------------

    def apply_A(self, v: np.ndarray) -> np.ndarray:
        return self.A @ v

    def apply_At(self, y: np.ndarray) -> np.ndarray:
        return self.A.T @ y

    # -- noise transfer constants ------------------------------------------

    @property
    def sigma_psi(self) -> float:
        return float(np.sqrt(self.lam_max_AtA) * self.noise.sigma)

    @property
    def dual_dim(self) -> int:
        return self.A.shape[0]

    # -- exact access (diagnostics are free, solver steps go via ops) ------

    def x_exact(self, u: np.ndarray) -> np.ndarray:
        return np.asarray(self.argmax_solver(u), dtype=float)

    def psi_value(self, y: np.ndarray) -> float:
        # diagnostic path: raw multiplications, nothing is counted
        u = self.A.T @ np.asarray(y, dtype=float)
        x = self.x_exact(u)
        return float(u @ x - self.primal.value(x))

    def grad(self, y: np.ndarray) -> np.ndarray:
        """Exact dual gradient ``A x(A^T y)`` (counted as one gradient call)."""
        self.counter.grad_calls += 1
        u = self.apply_At(np.asarray(y, dtype=float))
        return self.apply_A(self.x_exact(u))

    # -- sampled access ------------------------------------------------------

    def _sample_center(self, u: np.ndarray) -> np.ndarray:
        """``x(u) + delta * e_1``: what every sample at ``u`` shares."""
        x = self.x_exact(u)
        if self.noise.delta > 0:
            x = x + self.noise.delta * e_1(x)
        return x

    def sample_x(self, u: np.ndarray, rng: np.random.Generator, center=None) -> np.ndarray:
        """One noisy inner maximiser ``x(u) + delta * e_1 + eta``.

        A batch passes the ``center`` it computed once at ``u``.
        """
        self.counter.stoch_samples += 1
        if center is None:
            center = self._sample_center(u)
        if self.noise.silent:
            return center
        return center + self.noise.sample_eta(center.shape[0], rng)

    def batch_grad_and_x(self, y, r, streams: RngStreams):
        """Batched dual gradient together with the batched inner maximiser.

        Returns ``(mean_l A xtilde_l, mean_l xtilde_l)``; the same samples
        feed both, which is what primal recovery by averaging requires.
        The maximiser and bias are computed once; each sample adds its own
        noise to them.
        """
        if r < 1:
            raise ValueError("batch size must be >= 1")
        u = self.apply_At(np.asarray(y, dtype=float))
        center = self._sample_center(u)
        acc = np.zeros(self.primal.dim)
        # a noiseless sample draws nothing, so it needs no generator
        for rng in itertools.repeat(None, r) if self.noise.silent else streams.generators(r):
            acc += self.sample_x(u, rng, center)
        x_mean = acc / r
        return self.apply_A(x_mean), x_mean


# ---------------------------------------------------------------------------
# operations


def eval_grad(oracle: FirstOrderOracle, x: np.ndarray) -> np.ndarray:
    """Exact gradient of ``oracle`` at ``x``; increments ``grad_calls``."""
    return oracle.eval_grad(x)


def sample_stoch_grad(oracle: StochasticGradientOracle, x, rng_stream) -> np.ndarray:
    """One stochastic gradient sample drawn from ``rng_stream``.

    ``rng_stream`` must be the generator derived from (run seed, iteration,
    sample index); the same stream always reproduces the same sample.
    """
    return oracle.sample(x, rng_stream)


def batch_grad(oracle, x_or_y, r: int, streams: RngStreams) -> np.ndarray:
    """Mean of ``r`` independent samples; one sub-stream per sample.

    Works for both the primal :class:`StochasticGradientOracle` (returns a
    batched gradient of ``f``) and the :class:`DualOracle` (returns a
    batched dual gradient ``A xtilde``).
    """
    if r < 1:
        raise ValueError("batch size must be >= 1")
    if isinstance(oracle, DualOracle):
        g, _ = oracle.batch_grad_and_x(x_or_y, r, streams)
        return g
    return oracle.batch(x_or_y, r, streams)


def dual_from_primal(primal: FirstOrderOracle, A, argmax_solver,
                     noise: NoiseSpec | None = None) -> DualOracle:
    """Construct the dual oracle of a strongly convex primal under ``A``.

    Rejects ``primal.mu == 0`` (the dual gradient is Lipschitz only for a
    strongly convex primal).
    """
    return DualOracle(primal, A, argmax_solver, noise=noise)
