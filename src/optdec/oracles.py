"""First-order oracles, noise models and call accounting.

Every solver in this package consumes one of three oracle flavours:

* :class:`FirstOrderOracle` -- exact value/gradient access to a smooth
  convex function together with its smoothness ``L`` and strong-convexity
  ``mu`` constants, and the side data it declares: ``conjugate_argmax``,
  ``conjugate_value``, ``x_star`` and ``quadratic``, each ``None`` when unknown.
* :class:`StochasticGradientOracle` -- gradient samples contaminated by the
  bias field ``e_1`` (scaled by ``delta``) and sub-Gaussian noise (scale
  ``sigma``).
* :class:`DualOracle` -- access to the Fenchel-type dual of a strongly
  convex function composed with a linear map ``A``; its gradient is
  ``A x(A^T y)`` where ``x(u)`` maximises ``<u, x> - f(x)``.

The noisy oracles (these two, and the network's ``DistributedDualOracle``)
share one sampler, ``_NoisySampler``: each supplies only its exact map (the
checked gradient, or ``x_exact``), its ``NoiseSpec`` and its noise block;
a sample is the exact part, plus ``delta * e_1`` on every noise block, plus
noise drawn block by block.  ``NoiseSpec`` is the per-block spec, so a
dual's ``sigma_psi`` carries the ``sqrt`` of its number of blocks.

Randomness is organised in explicit streams (:class:`RngStreams`).  The
contract:

* A stream is addressed by a path of non-negative integers below ``2^32``
  under the run seed: the stream at path ``p`` is the PCG64 generator
  ``np.random.default_rng(np.random.SeedSequence(seed, spawn_key=p))``.
  The words of ``spawn_key`` are hashed after the padded seed, one by
  one, so paths of different lengths give different streams.  (A plain
  tuple key would not: ``SeedSequence`` pads its entropy with zeros, so
  ``default_rng((s, k))`` and ``default_rng((s, k, 0))`` are one stream.)
* The batch at path ``p`` (e.g. ``(k,)`` for iteration ``k``) draws all its
  samples from the one stream at ``p``: sample ``l`` is row ``l`` of that
  stream's ``standard_normal((r, d))``, with bounded noise normed per row.
  numpy fills rows in order, so row ``l`` does not depend on ``r``, and a
  batch depends on nothing but its seed, path and size: batches may be
  drawn in any order.  What this gives up is sample-level addressing:
  sample ``l`` cannot be drawn without rows ``0, ..., l-1``.
* A network sample draws the noise blocks of its nodes in node order, in
  one row.
* A noisy batch mean adds its samples in the order ``l = 0, ..., r-1``:
  it is ``(0 + sample_0 + ... + sample_{r-1}) / r``, where each sample is
  the batch's shared centre (inner maximiser or gradient, plus bias) plus
  its own noise.
* So traces are byte-identical per ``(config, seed)``.

A noisy batch fills each chunk of its buffer in one ``standard_normal``
call, then scales, centres and sums the chunk once
(``NoiseSpec.sum_samples``).  ``sigma = 0`` is the one way to say "no
noise": a silent oracle (``NoiseSpec.silent``), bias or not, draws
nothing.  A silent batch of ``r`` counts ``r`` samples and is its centre,
exactly; it builds no generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "COUNTERS",
    "CallCounter",
    "RngStreams",
    "NoiseSpec",
    "FirstOrderOracle",
    "StochasticGradientOracle",
    "DualOracle",
    "spectrum",
]

# The rank rule of ``spectrum``: an eigenvalue at or below RANK_TOL * lambda_max
# is a zero, and so is a singular value at or below sqrt(RANK_TOL) * sigma_max.
RANK_TOL = 1e-10


def spectrum(M) -> tuple[float, float]:
    """``(lambda_max, lambda_min_plus)`` of a PSD matrix: the one place a rank is decided.

    ``lambda_min_plus`` is the least eigenvalue above ``RANK_TOL * lambda_max``
    (0.0 if none).  Symmetrising ``M`` first leaves a symmetric ``M`` as it is.
    """
    M = np.asarray(M, dtype=float)
    evals = np.linalg.eigvalsh((M + M.T) / 2.0)
    lam_max = float(evals[-1])
    positive = evals[evals > RANK_TOL * lam_max]
    return lam_max, float(positive[0]) if positive.size else 0.0


def number(value, where: str, integer=False, low=-math.inf, strict=False, high=math.inf,
           text=False):
    """``value`` as a finite int or float in ``[low, high]`` (above ``low`` when ``strict``), or
    a ValueError naming ``where``: the one numeric check.  An integer is integral (``3.0``, not
    ``2.5``); a boolean is no number, nor is a string unless ``text`` (a command-line value)."""
    try:
        if isinstance(value, bool) or isinstance(value, str) and not text:
            raise TypeError
        x = value if integer and isinstance(value, int) else float(value)
        if integer and x != int(x):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        kind = "an integer" if integer else "a number"
        raise ValueError(f"{where} must be {kind}, got {value!r}") from None
    x = int(x) if integer else x
    if not ((integer or math.isfinite(x)) and (x > low if strict else x >= low) and x <= high):
        bound = f" and {'>' if strict else '>='} {low}" if low > -math.inf else ""
        bound += f" and <= {high}" if high < math.inf else ""
        raise ValueError(f"{where} must be finite{bound}, got {value!r}")
    return x


def constraint_gram(A, dim: int):
    """Checked dense ``(m_rows x dim)`` matrix ``A``, finite and not all zero, and ``A^T A``."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[1] != dim:
        raise ValueError(f"A must have one column per coordinate ({dim}), got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("A must be finite")
    if not np.any(A):
        raise ValueError("A must not be identically zero")
    return A, A.T @ A


# The four counters of the paper's cost model: the one list of their names.
COUNTERS = ("grad_calls", "stoch_samples", "matvec_AtA", "comm_rounds")


class CallCounter:
    """Monotone counters for oracle and communication accounting, one per name in ``COUNTERS``.

    Counters only grow during a run; ``reset`` is meant to be called once at run start.
    Increments are plain integer additions, safe to share between threads under CPython for the
    accounting purposes here.  A trace row reads them all by name (``attrgetter(*COUNTERS)``).
    """

    __slots__ = COUNTERS

    def __init__(self):
        self.reset()

    def reset(self):
        for name in COUNTERS:
            setattr(self, name, 0)


class RngStreams:
    """Factory of deterministic random generator streams.

    A stream is addressed by a path of non-negative integers under the run
    seed (see the module docstring).  ``child(...)`` extends the path, which
    lets nested procedures (steps, restarts, trajectories) own disjoint
    stream families; a batch drawn from streams at path ``p`` takes all its
    samples from ``generator()``, the one stream at ``p``.
    """

    __slots__ = ("seed", "path")

    def __init__(self, seed: int, path: tuple = ()):
        self.seed = int(seed)
        self.path = tuple(map(int, path))

    def generator(self, *index: int) -> np.random.Generator:
        """The stream at path ``(*path, *index)``."""
        key = np.random.SeedSequence(self.seed, spawn_key=(*self.path, *map(int, index)))
        return np.random.default_rng(key)

    def child(self, *index: int) -> "RngStreams":
        return RngStreams(self.seed, self.path + index)


NOISE_KINDS = ("gaussian", "bounded")
# Most rows of a batch buffer (see ``NoiseSpec.sum_samples``).
_CHUNK = 4096


@dataclass(frozen=True)
class NoiseSpec:
    """Bias level and sub-Gaussian scale of a stochastic oracle.

    ``delta`` bounds the norm of the systematic error of the sample mean;
    ``sigma`` is the sub-Gaussian scale of the zero-mean part, and
    ``sigma = 0`` means no zero-mean part (:attr:`silent`).  ``kind``
    selects its distribution: ``gaussian`` draws from
    N(0, (sigma^2/dim) I) so that E||eta||^2 = sigma^2, ``bounded`` draws
    uniformly from the radius-``sigma`` sphere.  A sample may hold several
    independent draws of ``block`` coordinates each (one per node on the
    network), drawn one after the other.  The spec is the one check of its fields.
    """

    delta: float = 0.0
    sigma: float = 0.0
    kind: str = "gaussian"

    def __post_init__(self):
        for key in ("delta", "sigma"):
            object.__setattr__(self, key, number(getattr(self, key), f"noise.{key}", low=0))
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"noise.kind must be one of {NOISE_KINDS}, got {self.kind!r}")

    @property
    def silent(self) -> bool:
        """No zero-mean part: every sample is its batch's shared centre."""
        return self.sigma == 0.0

    def draw(self, rng: np.random.Generator, rows: np.ndarray, block: int) -> None:
        """Put the raw noise of a block of samples into ``rows``, in one ``rng`` call.

        ``rows`` holds one sample per row (or is one sample).  numpy fills
        them in order, so each row gets the bits it would get drawn alone.
        Gaussian noise stays standard normal until :meth:`scale`; bounded
        noise puts each ``block`` on its sphere here, one block at a time.
        """
        rng.standard_normal(out=rows)
        if self.kind == "bounded":
            for eta in rows.reshape(-1, block):
                eta *= self.sigma / np.linalg.norm(eta)

    def scale(self, rows: np.ndarray, block: int) -> None:
        """Scale raw Gaussian noise to N(0, (sigma^2/block) I), in place."""
        if self.kind == "gaussian":
            rows *= self.sigma / math.sqrt(block)

    def sample_eta(self, dim: int, rng: np.random.Generator) -> np.ndarray:
        """One noise vector of length ``dim``: a batch row before its centre is added."""
        eta = np.empty(dim)
        self.draw(rng, eta, dim)
        self.scale(eta, dim)
        return eta

    def sum_samples(self, center: np.ndarray, block: int, rng, r: int, sample=None) -> np.ndarray:
        """``sum_l (center + eta_l)`` over the ``r`` samples of a noisy batch.

        ``rng`` is the batch's one generator.  Each chunk of the batch
        buffer is filled by one :meth:`draw`, so sample ``l`` is row ``l``
        of ``rng.standard_normal((r, d))``; then ``sample(row)`` is called
        on each row in the order ``l = 0, ..., r-1`` (it may count the
        sample, but must not write the row).  The chunk is scaled and centred once, then summed as a
        running sum behind the carried total, which adds the samples in
        the order ``l = 0, ..., r-1`` with the bits of ``acc = 0; acc +=
        center + eta_l``.  (``np.add.reduce`` sums pairwise.)  At most
        ``_CHUNK`` rows and 2 MiB are held at a time.  A silent batch of
        ``r`` never comes here: it counts ``r`` samples and is its centre,
        exactly, with no generator (``_NoisySampler._batch_mean``).
        """
        d = center.shape[0]
        buf = np.empty((1 + max(1, min(r, _CHUNK, (1 << 18) // d)), d))
        buf[0] = 0.0  # the running sum
        for lo in range(0, r, len(buf) - 1):
            rows = buf[1:1 + r - lo]
            self.draw(rng, rows, block)
            if sample is not None:
                for row in rows:
                    sample(row)
            self.scale(rows, block)
            rows += center
            chunk = buf[:1 + len(rows)]
            np.add.accumulate(chunk, axis=0, out=chunk)
            buf[0] = chunk[-1]
        return buf[0]


class FirstOrderOracle:
    """Exact first-order oracle for an L-smooth, mu-strongly convex function.

    ``value`` and ``gradient`` are raw callables; use the ``eval_grad``
    method inside solvers so that calls are counted.
    Diagnostic code may call the raw attributes freely without polluting
    the counters.

    The side data a problem knows in closed form is declared here and is
    ``None`` when unknown: ``conjugate_argmax`` maps ``u`` to
    ``argmax_x {<u, x> - f(x)}``, ``conjugate_value`` maps it to the
    value ``f*(u)`` of that maximum, ``x_star`` is the minimiser and
    ``quadratic`` the :class:`~optdec.problems.QuadraticProblem` whose
    ``Q`` and ``b`` define ``f``.
    """

    def __init__(self, dim, value, gradient, L, mu=0.0, counter=None, *,
                 conjugate_argmax=None, conjugate_value=None, x_star=None, quadratic=None):
        if L < 0 or mu < 0:
            raise ValueError("L and mu must be non-negative")
        self.dim = int(dim)
        self.value = value
        self.gradient = gradient
        self.L = float(L)
        self.mu = float(mu)
        self.counter = counter if counter is not None else CallCounter()
        self.conjugate_argmax = conjugate_argmax
        self.conjugate_value = conjugate_value
        self.x_star = x_star
        self.quadratic = quadratic

    def _check_dim(self, x):
        if np.shape(x) != (self.dim,):
            raise ValueError(f"expected vector of length {self.dim}, got shape {np.shape(x)}")

    def eval_grad(self, x: np.ndarray) -> np.ndarray:
        self._check_dim(x)
        self.counter.grad_calls += 1
        return np.asarray(self.gradient(x), dtype=float)


class _NoisySampler:
    """The one sampling path of the noisy oracles: exact part, plus bias, plus noise.

    A sample at ``at`` is ``_exact(at)`` plus ``delta * e_1`` on every
    ``noise_block`` coordinates, plus ``eta`` drawn from ``noise``.  A
    subclass supplies ``_exact``, ``noise``, ``noise_block`` and ``counter``,
    and binds :meth:`_sample` as its public per-sample method.
    """

    def _sample_center(self, at: np.ndarray) -> np.ndarray:
        """The exact part plus ``delta * e_1`` on every noise block: what every sample at ``at`` shares."""
        x = self._exact(at)
        delta, block = self.noise.delta, self.noise_block
        if delta > 0:
            bias = np.zeros(block)
            bias[0] = delta
            x = (x.reshape(-1, block) + bias).reshape(-1)
        return x

    def _sample(self, at: np.ndarray, rng: np.random.Generator, center=None, row=None) -> np.ndarray:
        """One sample ``center + eta``; alone, a batch of one.

        A batch passes the ``center`` it computed once at ``at`` and the
        sample's ``row`` of its buffer, already filled with the sample's
        raw noise: the call only counts the sample and returns ``row``, and
        the batch scales, centres and sums all rows at once.  A silent batch
        passes no row and gets its ``center`` back.  A batch still makes one
        call per sample because perfbench's traced check matches
        ``sample_x`` calls against ``stoch_samples``.
        """
        self.counter.stoch_samples += 1
        if row is not None:
            return row
        if center is None:
            center = self._sample_center(at)
        if self.noise.silent:
            return center
        return self.noise.sum_samples(center, self.noise_block, rng, 1)

    def _batch_mean(self, at: np.ndarray, r: int, streams: RngStreams, sample) -> np.ndarray:
        """Mean of the ``r`` samples at ``at``, each one counted by ``sample(at, rng, center, row)``.

        The centre is computed once.  A silent batch is its centre, exactly:
        it makes ``r`` count-only calls ``sample(at, None, center, None)``
        and builds no generator.  A noisy batch draws its rows from the one
        generator of ``streams``, one ``standard_normal`` call per buffer
        chunk (see :meth:`NoiseSpec.sum_samples`).  The caller passes its
        per-sample method as looked up on ``self``, so that patches of it
        see every sample.
        """
        if r < 1:
            raise ValueError("batch size must be >= 1")
        center = self._sample_center(at)
        if self.noise.silent:
            for _ in range(r):
                sample(at, None, center, None)
            return center
        rng = streams.generator()
        return self.noise.sum_samples(center, self.noise_block, rng, r,
                                      lambda row: sample(at, rng, center, row)) / r


class StochasticGradientOracle(_NoisySampler):
    """Gradient sampler with deterministic bias and sub-Gaussian noise.

    A sample at ``x`` is ``gradient(x) + delta * e_1 + eta`` with ``eta``
    drawn from the :class:`NoiseSpec` distribution.  The bias field is the
    fixed unit vector ``e_1``, so the bias bound holds with equality and is
    testable.
    """

    def __init__(self, base: FirstOrderOracle, noise: NoiseSpec):
        self.base = base
        self.noise = noise
        self.noise_block = base.dim
        self.counter = base.counter

    def _exact(self, x: np.ndarray) -> np.ndarray:
        self.base._check_dim(x)
        return np.asarray(self.base.gradient(x), dtype=float)

    sample = _NoisySampler._sample

    def batch(self, x: np.ndarray, r: int, streams: RngStreams) -> np.ndarray:
        return self._batch_mean(x, r, streams, self.sample)


class DualOracle(_NoisySampler):
    """Oracle for the dual ``psi(y) = max_x {<A^T y, x> - f(x)}``.

    The dual gradient is ``A x(A^T y)``; noisy access perturbs the inner
    maximiser ``x`` by ``delta * e_1 + eta`` on every ``noise_block``
    coordinates (all of ``x`` here) before mapping through ``A``, so the
    dual-side bias and noise scale with ``sqrt(lambda_max(A^T A))``.

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
        self.noise = noise or NoiseSpec()
        self.noise_block = primal.dim
        self.counter = counter if counter is not None else primal.counter
        self.L_psi = self.lam_max_AtA / primal.mu
        self.mu_psi = self.lam_min_plus_AtA / primal.L if primal.L > 0 else 0.0

    def _constraint_map(self, A):
        """Checked dense ``A`` and the :func:`spectrum` of ``A^T A`` (a structured ``A`` overrides)."""
        A, AtA = constraint_gram(A, self.primal.dim)
        return (A, *spectrum(AtA))

    # -- linear maps (hooks for the communication simulator) ---------------

    def apply_A(self, v: np.ndarray) -> np.ndarray:
        return self.A @ v

    def apply_At(self, y: np.ndarray) -> np.ndarray:
        return self.A.T @ y

    # -- noise transfer constants ------------------------------------------

    @property
    def sigma_psi(self) -> float:
        """``sqrt(lambda_max(A^T A))`` times the level of all noise blocks stacked."""
        blocks = self.primal.dim // self.noise_block
        return float(np.sqrt(self.lam_max_AtA) * (math.sqrt(blocks) * self.noise.sigma))

    @property
    def dual_dim(self) -> int:
        return self.A.shape[0]

    # -- exact access (diagnostics are free, solver steps go via ops) ------

    def x_exact(self, u: np.ndarray) -> np.ndarray:
        return np.asarray(self.argmax_solver(u), dtype=float)

    def psi_value(self, y: np.ndarray) -> float:
        """``f*(A^T y)``: the declared ``conjugate_value``, else ``<u, x(u)> - f(x(u))``."""
        # diagnostic path: raw multiplications, nothing is counted
        u = self.A.T @ np.asarray(y, dtype=float)
        if self.primal.conjugate_value is not None:
            return float(self.primal.conjugate_value(u))
        x = self.x_exact(u)
        return float(u @ x - self.primal.value(x))

    def grad(self, y: np.ndarray) -> np.ndarray:
        """Exact dual gradient ``A x(A^T y)`` (counted as one gradient call)."""
        self.counter.grad_calls += 1
        u = self.apply_At(np.asarray(y, dtype=float))
        return self.apply_A(self.x_exact(u))

    # -- sampled access ------------------------------------------------------

    def _exact(self, u: np.ndarray) -> np.ndarray:
        return self.x_exact(u)  # looked up on ``self``, so patches of ``x_exact`` apply

    sample_x = _NoisySampler._sample

    def batch_grad_and_x(self, y, r, streams: RngStreams):
        """Batched dual gradient together with the batched inner maximiser.

        Returns ``(mean_l A xtilde_l, mean_l xtilde_l)``; the same samples
        feed both, which is what primal recovery by averaging requires.
        The maximiser and bias are computed once; each sample adds its own
        noise to them.
        """
        u = self.apply_At(np.asarray(y, dtype=float))
        x_mean = self._batch_mean(u, r, streams, self.sample_x)
        return self.apply_A(x_mean), x_mean
