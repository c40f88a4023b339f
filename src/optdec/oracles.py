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
* The batch path (``RngStreams.generators``) computes the PCG64 states of
  all streams of a large batch in one vectorised pass, as uint64 rows
  ``(state_lo, state_hi, inc_lo, inc_hi)``, and moves one reused
  ``Generator`` from stream to stream with one in-place 32-byte store of
  its row into the generator's state.  No caller may keep a generator
  across samples.
* The store goes through ``bit_generator.ctypes.state_address`` and is used
  only when two checks pass: the state must lie inside the bit-generator
  object, and an import-time self-check must reproduce ``default_rng``'s
  states and draws through such stores.  Otherwise every sample gets its
  own ``default_rng`` stream, with the same bytes.

A silent oracle (``NoiseSpec.silent``) draws nothing, and its batches build
no generator.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CallCounter",
    "RngStreams",
    "NoiseSpec",
    "FirstOrderOracle",
    "StochasticGradientOracle",
    "DualOracle",
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

        A batch of at least ``_BATCH_MIN`` samples computes the states of all
        its streams in one vectorised pass and yields one reused
        ``Generator``, whose state is overwritten in place for each stream
        in turn: draw from it before advancing the iterator, and keep no
        reference to it.  Smaller batches, or a numpy whose state layout or
        seeding the checks do not reproduce, get a fresh ``generator(l)``
        per sample.
        """
        gen, state = _raw_generator() if r >= _BATCH_MIN and _BATCH_SEEDING else (None, None)
        if state is None:
            for l in range(r):
                yield self.generator(l)
            return
        prefix = _uint32_words((self.seed, *self.path))
        for lo in range(0, r, _CHUNK):
            for row in _pcg64_words(prefix, np.arange(lo, min(r, lo + _CHUNK), dtype=np.uint32)):
                state[:] = row
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
# mod 2^32 like the C code), and the 128-bit step runs on pairs of uint64
# arrays (which wrap mod 2^64).  A state reaches the generator as one
# in-place store into its ``pcg64_random_t``; ``_batch_seeding_matches_numpy``
# checks states and draws made that way against ``default_rng`` at import.

_MASK32 = 0xFFFFFFFF
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL = 4
# Smallest batch seeded in one pass.  The pass and its Generator cost about
# 110 us, and each stream then costs about 1.4 us against about 14 us for
# its own ``default_rng``, so below 8 samples it does not pay (dim-20
# draws, one core of a 2-vCPU Xeon VM).
_BATCH_MIN = 8
_CHUNK = 4096
_SEED_TEMPLATE = np.random.SeedSequence(0)
_LOW32 = np.uint64(_MASK32)
_MULT_LO = np.uint64(_PCG64_MULT & ((1 << 64) - 1))
_MULT_HI = np.uint64(_PCG64_MULT >> 64)
_U1, _U32, _U63 = np.uint64(1), np.uint64(32), np.uint64(63)


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


def _mul_hi(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High 64 bits of the 128-bit products ``a * b``, from 32-bit limbs."""
    a0, a1 = a & _LOW32, a >> _U32
    b0, b1 = b & _LOW32, b >> _U32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    carry = ((p00 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)) >> _U32
    return a1 * b1 + (p01 >> _U32) + (p10 >> _U32) + carry


def _add128(a_lo, a_hi, b_lo, b_hi):
    """``a + b mod 2^128`` for 128-bit values held as (low, high) uint64 arrays."""
    lo = a_lo + b_lo
    return lo, a_hi + b_hi + (lo < a_lo)


def _pcg64_words(prefix: list, index: np.ndarray) -> np.ndarray:
    """PCG64 states of ``default_rng((*prefix, l))`` for every uint32 ``l`` in ``index``.

    ``prefix`` holds uint32 words (see ``_uint32_words``).  Row ``j`` of the
    ``(len(index), 4)`` uint64 result is ``(state_lo, state_hi, inc_lo,
    inc_hi)`` of stream ``index[j]``.  Rows of the pool are the four pool
    words, columns the samples.
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
    seed_hi, seed_lo, i_hi, i_lo = words[0::2] | (words[1::2] << _U32)
    inc_lo, inc_hi = (i_lo << _U1) | _U1, (i_hi << _U1) | (i_lo >> _U63)
    x_lo, x_hi = _add128(inc_lo, inc_hi, seed_lo, seed_hi)
    # x MULT mod 2^128: the low product in full, the cross products mod 2^64
    p_hi = _mul_hi(x_lo, _MULT_LO) + x_lo * _MULT_HI + x_hi * _MULT_LO
    state_lo, state_hi = _add128(x_lo * _MULT_LO, p_hi, inc_lo, inc_hi)
    return np.stack([state_lo, state_hi, inc_lo, inc_hi], axis=1)


class _PCG64Head(ctypes.Structure):
    """The head of numpy's ``pcg64_state``, at ``bit_generator.ctypes.state_address``."""

    _fields_ = [("pcg_state", ctypes.c_void_p),  # the pcg64_random_t: state, then inc
                ("has_uint32", ctypes.c_int),
                ("uinteger", ctypes.c_uint32)]


def _inside(obj, address, size: int) -> bool:
    """Whether the ``size`` bytes at ``address`` lie inside the object ``obj``."""
    start = id(obj)
    return address is not None and start <= address and address + size <= start + sys.getsizeof(obj)


def _state_view(bit_generator):
    """A writable uint64 view of a PCG64's ``(state_lo, state_hi, inc_lo, inc_hi)``.

    Clears the buffered 32-bit draw.  ``None`` unless both the head at
    ``ctypes.state_address`` and the 32 bytes it points to lie inside
    ``bit_generator``; nothing is read or written before that is known.
    The view is valid only while ``bit_generator`` lives.
    """
    address = bit_generator.ctypes.state_address
    if not _inside(bit_generator, address, ctypes.sizeof(_PCG64Head)):
        return None
    head = _PCG64Head.from_address(address)
    if not _inside(bit_generator, head.pcg_state, 32):
        return None
    head.has_uint32 = 0
    head.uinteger = 0
    return np.ctypeslib.as_array((ctypes.c_uint64 * 4).from_address(head.pcg_state))


def _raw_generator():
    """A fresh PCG64 ``Generator`` and the view of its state (``None`` if refused)."""
    gen = np.random.Generator(np.random.PCG64(_SEED_TEMPLATE))
    return gen, _state_view(gen.bit_generator)


def _batch_seeding_matches_numpy() -> bool:
    """Whether batched seeding with in-place stores reproduces ``default_rng`` on this numpy.

    Compares states and a draw on streams with one- and two-word seeds,
    paths of depth 0-3 and indices up to ``2^32 - 1``.
    """
    try:
        gen, state = _raw_generator()
        if state is None:
            return False
        index = np.array([0, 1, 9, _MASK32], dtype=np.uint32)
        for key in ((0,), (12345, 7), (2 ** 40 + 3, 0, 2 ** 33), (1, 2, 3, 4)):
            for l, row in zip(index.tolist(), _pcg64_words(_uint32_words(key), index)):
                ref = np.random.default_rng((*key, l))
                state[:] = row
                if ref.bit_generator.state != gen.bit_generator.state or \
                        ref.standard_normal(3).tobytes() != gen.standard_normal(3).tobytes():
                    return False
    except (AttributeError, TypeError, ValueError, KeyError, OverflowError):
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
        eta = rng.standard_normal(dim)
        if self.kind == "gaussian":
            eta *= _gaussian_scale(self.sigma, dim)
        else:
            # bounded: uniform on the sphere of radius sigma
            eta *= self.sigma / np.linalg.norm(eta)
        return eta


@functools.lru_cache(maxsize=64)
def _gaussian_scale(sigma: float, dim: int):
    """``sigma / sqrt(dim)``, the standard deviation of each coordinate of a Gaussian ``eta``."""
    return sigma / np.sqrt(dim)


def e_1(x: np.ndarray) -> np.ndarray:
    """The bias field: the first unit vector, shaped like ``x``."""
    e = np.zeros_like(x)
    e[0] = 1.0
    return e


class FirstOrderOracle:
    """Exact first-order oracle for an L-smooth, mu-strongly convex function.

    ``value`` and ``gradient`` are raw callables; use the ``eval_grad``
    method inside solvers so that calls are counted.
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
        eta = self.noise.sample_eta(self.dim, rng)
        eta += center
        return eta

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
        eta = self.noise.sample_eta(center.shape[0], rng)
        eta += center
        return eta

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


def dual_from_primal(primal: FirstOrderOracle, A, argmax_solver,
                     noise: NoiseSpec | None = None) -> DualOracle:
    """Construct the dual oracle of a strongly convex primal under ``A``.

    Rejects ``primal.mu == 0`` (the dual gradient is Lipschitz only for a
    strongly convex primal).
    """
    return DualOracle(primal, A, argmax_solver, noise=noise)
