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

The noisy oracles (these two, and the network's ``DistributedDualOracle``)
share one sampler, ``_NoisySampler``: each supplies only its exact map (the
checked gradient, or ``x_exact``), its ``NoiseSpec`` and its noise block;
a sample is the exact part, plus ``delta * e_1`` on every noise block, plus
noise drawn block by block.  ``NoiseSpec`` is the per-block spec, so a
dual's ``sigma_psi`` carries the ``sqrt`` of its number of blocks.

Randomness is organised in explicit streams (:class:`RngStreams`).  The
contract:

* Sample ``l`` of a batch drawn from streams with seed ``s`` and path ``p``
  (e.g. ``(k,)`` for iteration ``k``) is a pure function of ``(s, p, l)``:
  its noise comes from the PCG64 stream ``np.random.default_rng((s, *p,
  l))`` and from nothing else, so samples may be drawn in any order.  On a
  scheduled stream (``RngStreams.scheduled``) sample ``l`` of step ``k`` is
  still ``default_rng((s, *p, k, l))``, whichever pass seeds it and in
  whatever order the steps draw.
* A network sample draws the noise blocks of its nodes in node order from
  its one stream, in one draw for all of them.
* A batch mean adds its samples in the order ``l = 0, ..., r-1``: it is
  ``(0 + sample_0 + ... + sample_{r-1}) / r``, where each sample is the
  batch's shared centre (inner maximiser or gradient, plus bias) plus its
  own noise.
* So traces are byte-identical per ``(config, seed)``, however the centre,
  the streams and the sum of a batch are computed.

A batch draws each sample's raw noise into one row of a buffer, from one
generator moved from stream to stream by an in-place state store (see
``RngStreams.generators``), then scales, centres and sums the rows once
(``NoiseSpec.sum_samples``).  The streams' states are computed in
vectorised passes: a batch of an unscheduled stream is its own pass, with
its own generator; a solver whose batch sizes are known before its loop
(``spdstm``, ``sstm_sc``, ``ac_sa``) declares them, and its steps' batches
then share passes of about a thousand rows and one generator per run.  A
silent oracle (``NoiseSpec.silent``) draws nothing, and its batches seed
nothing and build no generator.
"""

from __future__ import annotations

import ctypes
import functools
import math
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
    ``0, ..., r-1`` of a batch at once.  A solver that knows the batch size
    of every step before its loop starts declares it with ``scheduled``, so
    that the batches of its steps ``child(k)`` share their seeding.
    """

    __slots__ = ("seed", "path", "_passes", "_step")

    def __init__(self, seed: int, path: tuple = ()):
        self.seed = int(seed)
        self.path = tuple(int(p) for p in path)
        self._passes = None  # the _Passes of a scheduled stream and of its steps
        self._step = None  # k on the step child(k) of a scheduled stream

    def generator(self, *index: int) -> np.random.Generator:
        return np.random.default_rng((self.seed, *self.path, *(int(i) for i in index)))

    def generators(self, r: int):
        """Yield, for ``l = 0, ..., r-1``, a generator in the state of ``generator(l)``.

        The states are computed in vectorised passes (``_Passes``) and
        yielded through one reused ``Generator``, whose state is overwritten
        in place for each stream in turn: draw from it before advancing
        this or any other iterator of the same scheduled stream, and keep
        no reference to it.  A pass holds up to ``_PASS`` rows.  A batch of
        an unscheduled stream is seeded in passes of its own, with a fresh
        ``Generator``; the batches of a scheduled stream's steps share
        passes and one ``Generator``.  A pass of fewer than
        ``_BATCH_MIN`` rows, or a numpy whose state layout or seeding the
        checks do not reproduce, gets a fresh ``generator(l)`` per sample.
        On the step ``child(k)`` of a scheduled stream, ``r`` must be the
        declared ``size_of(k)``; the first ``next`` raises ``ValueError``
        otherwise, before anything is drawn.
        """
        passes, k = self._passes, self._step
        if k is None:
            passes, k = _Passes((self.seed, *self.path), lambda _: r, 1, stepped=False), 0
        for lo, hi, rows in passes.segments(k, r):
            gen, state = passes.generator() if rows is not None else (None, None)
            if state is None:
                for l in range(lo, hi):
                    yield self.generator(l)
                continue
            for row in rows:
                state[:] = row
                yield gen

    def child(self, *index: int) -> "RngStreams":
        # built without ``__init__``, whose conversions the parent's seed and
        # path have had: solvers make one child per step
        child = RngStreams.__new__(RngStreams)
        child.seed, child.path = self.seed, self.path + tuple(map(int, index))
        child._passes = child._step = None
        passes = self._passes
        if passes is not None and self._step is None and len(index) == 1 \
                and 0 <= child.path[-1] < passes.stop:
            child._passes, child._step = passes, child.path[-1]
        return child

    def scheduled(self, size_of, stop: int) -> "RngStreams":
        """This stream, with the batch of each step ``child(k)``, ``k < stop``, declared.

        Step ``k`` draws ``size_of(k)`` samples, and its sample ``l`` is
        still ``generator(k, l)``, but the steps' batches are seeded in
        shared passes: a pass starts at the first row a batch needs and runs
        on through the batches of the steps after it, until it holds
        ``_PASS`` rows or reaches ``stop``, so it may span batches and split
        them.  ``size_of`` must be a pure function of ``k``; it is called
        for steps ahead of the one being drawn.  Passes are computed when a
        batch first draws, and only the latest is kept, so a run that draws
        nothing seeds nothing.  Other children (``k >= stop``, or more than
        one index) are plain streams.
        """
        if not 0 <= stop <= 1 << 32:
            raise ValueError("a schedule's steps must be uint32 words")
        streams = RngStreams(self.seed, self.path)
        streams._passes = _Passes((self.seed, *self.path), size_of, stop)
        return streams


class _Passes:
    """PCG64 states of the rows of consecutive batches, computed a pass at a time.

    Row ``l`` of the batch of step ``k < stop`` is the stream ``(*key, k,
    l)``, or ``(*key, l)`` for a lone batch (``stepped`` false, one step
    ``k = 0``); the batch of step ``k`` has ``size_of(k)`` rows.  A pass
    starts at a row ``(k, l)`` and takes the rows after it, on into the
    next steps' batches, until it holds ``_PASS`` rows or reaches step
    ``stop``.  Only the latest pass is kept, in ``rows``: for each step it
    touches, ``(first, end, size, states)`` for the rows ``first, ...,
    end-1`` of that step's batch of ``size``, with their states, or ``None``
    when each row is to be seeded on its own.
    """

    __slots__ = ("key", "size_of", "stop", "stepped", "rows", "gen", "state")

    def __init__(self, key: tuple, size_of, stop: int, stepped: bool = True):
        self.key, self.size_of, self.stop, self.stepped = key, size_of, stop, stepped
        self.rows = {}
        self.gen = self.state = None

    def generator(self):
        """The one ``Generator`` of these passes and its state view, made on first use."""
        if self.gen is None:
            self.gen, self.state = _raw_generator()
        return self.gen, self.state

    def segments(self, k: int, r: int):
        """Yield ``(lo, hi, states)`` over the rows ``0, ..., r-1`` of step ``k``, in order.

        ``states`` are the states of rows ``lo, ..., hi-1``, or ``None`` when
        they are to be seeded one by one.  Raises ``ValueError`` if ``r`` is
        not the size of step ``k``'s batch.
        """
        size = self.rows[k][2] if k in self.rows else self.size_of(k)
        if r != size:
            raise ValueError(f"step {k} is scheduled to draw {size} samples, not {r}")
        l = 0
        while l < r:
            first, end, _, states = self.rows.get(k, (0, 0, size, None))
            if not first <= l < end:
                self._seed(k, l)
                first, end, _, states = self.rows[k]
            yield l, end, None if states is None else states[l - first:]
            l = end

    def _seed(self, k: int, l: int) -> None:
        """Make the pass that starts at row ``l`` of step ``k`` the current one."""
        layout, n = [], 0
        while n < _PASS and k < self.stop:
            size = self.size_of(k)
            count = min(size - l, _PASS - n)
            layout.append((k, l, size, count))
            n += count
            k, l = k + 1, 0
        states = None
        if _BATCH_SEEDING and n >= _BATCH_MIN:
            steps, firsts, _, counts = (np.array(column, dtype=np.int64) for column in zip(*layout))
            starts = np.cumsum(counts) - counts
            index = (np.arange(n) - np.repeat(starts - firsts, counts)).astype(np.uint32)
            words = _uint32_words(self.key)
            if self.stepped:
                words.append(np.repeat(steps, counts).astype(np.uint32))
            states = _pcg64_words(words, index)
        self.rows, start = {}, 0
        for k, l, size, count in layout:
            rows = None if states is None else states[start:start + count]
            self.rows[k] = (l, l + count, size, rows)
            start += count


# -- batched stream seeding ---------------------------------------------------
#
# ``np.random.default_rng(words)`` hashes the words with numpy's
# ``SeedSequence`` (a pool of four uint32 words filled and cross-mixed by
# ``hashmix`` and ``mix``, then ``generate_state`` of eight words) and seeds
# PCG64 from them: ``inc = 2 i + 1`` and ``state = ((inc + s) MULT + inc)
# mod 2^128`` for the 128-bit halves ``s`` and ``i`` of the state.  Within a
# pass the words differ only in the last one, the sample index, or on a
# schedule in the last two, the step and the index.  So the hash runs on
# Python ints (masked to 32 bits) while its words are shared, and on uint32
# arrays over all rows of the pass from then on (they wrap mod 2^32 like
# the C code); the 128-bit step runs on pairs of
# uint64 arrays (which wrap mod 2^64).  A state reaches the generator as
# one in-place store into its ``pcg64_random_t``;
# ``_batch_seeding_matches_numpy`` checks states and draws made that way
# against ``default_rng`` at import.

_MASK32 = 0xFFFFFFFF
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL = 4
# Smallest pass seeded in one go, and the most rows a pass holds.  A pass
# costs about 150 us up to a few hundred rows and about 0.1 us a row
# beyond, a fresh Generator about 17 us, and each stream then costs about
# 1.5 us against about 17 us for its own ``default_rng``; so a pass of fewer
# than 8 rows does not pay (dim-20 draws, one core of a 2-vCPU Xeon VM).
# Passes of 1024 rows spread the fixed cost to about 0.15 us a row; on a
# 27,092-sample ``spdstm`` run they left the peak RSS unchanged, where
# 4096-row passes raised it by 0.6 MB for no speed.
_BATCH_MIN = 8
_PASS = 1024
# Most rows of a batch buffer (see ``NoiseSpec.sum_samples``).
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
    """Xor and multiplier constants of ``n`` successive ``hashmix`` calls, as ints and (n, 1) columns."""
    xors, mults = [], []
    for _ in range(n):
        xors.append(init)
        init = (init * mult) & _MASK32
        mults.append(init)
    return (tuple(xors), tuple(mults),
            np.array(xors, dtype=np.uint32)[:, None], np.array(mults, dtype=np.uint32)[:, None])


_GENERATE_CHAIN = _hash_chain(_HASH_INIT_B, _HASH_MULT_B, 2 * _POOL)[2:]


def _wrap32(value):
    """``value mod 2^32`` for a Python int; uint32 arrays wrap by themselves."""
    return value & _MASK32 if isinstance(value, int) else value


def _hashmix(value, xor, mult):
    value = _wrap32((value ^ xor) * mult)
    return value ^ (value >> 16)


def _mix(x, y):
    out = _wrap32(_wrap32(x * _MIX_MULT_L) - _wrap32(y * _MIX_MULT_R))
    return out ^ (out >> 16)


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

    ``prefix`` holds uint32 words (see ``_uint32_words``); a word may also be
    a uint32 array like ``index``, which gives row ``j`` its own word there
    (the step column of a schedule's pass).  Row ``j`` of the
    ``(len(index), 4)`` uint64 result is ``(state_lo, state_hi, inc_lo,
    inc_hi)`` of stream ``index[j]``.
    """
    n = len(prefix) + 1
    xors, mults, xor_col, mult_col = _hash_chain(_HASH_INIT_A, _HASH_MULT_A, _POOL * max(n, _POOL))
    words = [*prefix, index, *[0] * (_POOL - n)]
    # numpy's mix_entropy: step ``src`` mixes word ``src`` into pool words
    # ``targets``, one hash constant per target.  Each pool word mixes into
    # the three others, then each further word into all four
    steps = [[d for d in range(_POOL) if d != src] for src in range(_POOL)]
    steps += [list(range(_POOL))] * (n - _POOL)
    pool = [_hashmix(w, xors[i], mults[i]) for i, w in enumerate(words[:_POOL])]
    c = _POOL
    # steps before the index word's own are Python ints, except the mixes
    # into the index's pool word (when it has one) and those of a step column
    for src, targets in enumerate(steps[:n - 1]):
        value = pool[src] if src < _POOL else words[src]
        for d in targets:
            pool[d] = _mix(pool[d], _hashmix(value, xors[c], mults[c]))
            c += 1
    # the rest depends on the index: rows of the pool are the four pool
    # words, columns the samples
    rows = np.empty((_POOL, index.shape[0]), dtype=np.uint32)
    for d, value in enumerate(pool):
        rows[d] = value
    for src, targets in enumerate(steps[n - 1:], start=n - 1):
        value = rows[src] if src < _POOL else words[src]
        t = len(targets)
        rows[targets] = _mix(rows[targets], _hashmix(value, xor_col[c:c + t], mult_col[c:c + t]))
        c += t
    words = _hashmix(np.concatenate([rows, rows]), *_GENERATE_CHAIN).astype(np.uint64)
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
    paths of depth 0-3, indices up to ``2^32 - 1``, and the same with a
    step word per row before the index, as the passes of a schedule have.
    """
    try:
        gen, state = _raw_generator()
        if state is None:
            return False
        index = np.array([0, 1, 9, _MASK32], dtype=np.uint32)
        steps = np.array([3, 0, _MASK32, 3], dtype=np.uint32)
        for key in ((0,), (12345, 7), (2 ** 40 + 3, 0, 2 ** 33), (1, 2, 3, 4)):
            prefix = _uint32_words(key)
            for words, step in ((prefix, ()), ([*prefix, steps], steps.tolist())):
                for j, row in enumerate(_pcg64_words(words, index)):
                    ref = np.random.default_rng((*key, *step[j:j + 1], int(index[j])))
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
    A sample may hold several independent draws of ``block`` coordinates
    each (one per node on the network), drawn one after the other.
    """

    delta: float = 0.0
    sigma: float = 0.0
    kind: str = "gaussian"

    def __post_init__(self):
        if not (0.0 <= self.delta < math.inf and 0.0 <= self.sigma < math.inf):
            raise ValueError("noise levels must be finite and non-negative")
        if self.kind not in ("gaussian", "bounded", "none"):
            raise ValueError(f"unknown noise kind {self.kind!r}")

    @property
    def silent(self) -> bool:
        return self.delta == 0.0 and self.sigma == 0.0

    def draw(self, rng: np.random.Generator, row: np.ndarray, block: int) -> None:
        """Put one sample's raw noise into ``row``, drawn from ``rng``.

        Gaussian noise stays standard normal until :meth:`scale`; bounded
        noise puts each ``block`` on its sphere here; no noise is zeros.
        """
        if self.sigma == 0.0 or self.kind == "none":
            row.fill(0.0)
            return
        rng.standard_normal(out=row)
        if self.kind == "bounded":
            for eta in row.reshape(-1, block):
                eta *= self.sigma / np.linalg.norm(eta)

    def scale(self, rows: np.ndarray, block: int) -> None:
        """Scale raw Gaussian noise to N(0, (sigma^2/block) I), in place."""
        if self.kind == "gaussian" and self.sigma > 0.0:
            rows *= self.sigma / math.sqrt(block)

    def sample_eta(self, dim: int, rng: np.random.Generator) -> np.ndarray:
        """One noise vector of length ``dim``: a batch row before its centre is added."""
        eta = np.empty(dim)
        self.draw(rng, eta, dim)
        self.scale(eta, dim)
        return eta

    def sum_samples(self, center: np.ndarray, block: int, rngs, r: int, draw=None) -> np.ndarray:
        """``sum_l (center + eta_l)`` over the ``r`` samples of a batch.

        ``rngs`` yields the generators of samples ``0, ..., r-1``, and
        ``draw(rng, row)`` puts sample ``l``'s raw noise into its row of the
        batch buffer (by default :meth:`draw`).  The buffer is scaled and
        centred once, then summed as a running sum behind the carried total,
        which adds the samples in the order ``l = 0, ..., r-1`` with the
        bits of ``acc = 0; acc += center + eta_l``.  (``np.add.reduce`` sums
        pairwise.)  At most ``_CHUNK`` rows and 2 MiB are held at a time.
        Without noise each sample is ``draw(None, None)``, which must return
        ``center``: it takes no generator and no row.
        """
        draw = draw or (lambda rng, row: self.draw(rng, row, block))
        d = center.shape[0]
        if self.silent:
            acc = np.zeros(d)
            for _ in range(r):
                acc += draw(None, None)
            return acc
        rngs = iter(rngs)
        buf = np.empty((1 + max(1, min(r, _CHUNK, (1 << 18) // d)), d))
        buf[0] = 0.0  # the running sum
        for lo in range(0, r, len(buf) - 1):
            rows = buf[1:1 + r - lo]
            for row, rng in zip(rows, rngs):
                draw(rng, row)
            self.scale(rows, block)
            rows += center
            chunk = buf[:1 + len(rows)]
            np.add.accumulate(chunk, axis=0, out=chunk)
            buf[0] = chunk[-1]
        return buf[0]


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
            x = (x.reshape(-1, block) + delta * e_1(np.zeros(block))).reshape(-1)
        return x

    def _sample(self, at: np.ndarray, rng: np.random.Generator, center=None, row=None) -> np.ndarray:
        """One sample ``center + eta``; alone, a batch of one.

        A batch passes the ``center`` it computed once at ``at`` and the
        sample's ``row`` of its buffer: the call counts the sample and draws
        its raw noise into ``row``, and the batch scales, centres and sums
        all rows at once.  A batch still makes one call per sample because
        perfbench's traced check matches ``sample_x`` calls against
        ``stoch_samples``.
        """
        self.counter.stoch_samples += 1
        if row is not None:
            self.noise.draw(rng, row, self.noise_block)
            return row
        if center is None:
            center = self._sample_center(at)
        if self.noise.silent:
            return center
        return self.noise.sum_samples(center, self.noise_block, (rng,), 1)

    def _batch_mean(self, at: np.ndarray, r: int, streams: RngStreams, sample) -> np.ndarray:
        """Mean of the ``r`` samples at ``at``, each one ``sample(at, rng, center, row)``.

        The centre is computed once; the caller passes its per-sample method
        as looked up on ``self``, so that patches of it see every sample.
        """
        center = self._sample_center(at)
        return self.noise.sum_samples(center, self.noise_block, streams.generators(r), r,
                                      lambda rng, row: sample(at, rng, center, row)) / r


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

    @property
    def dim(self):
        return self.base.dim

    def _exact(self, x: np.ndarray) -> np.ndarray:
        self.base._check_dim(x)
        return np.asarray(self.base.gradient(x), dtype=float)

    sample = _NoisySampler._sample

    def batch(self, x: np.ndarray, r: int, streams: RngStreams) -> np.ndarray:
        if r < 1:
            raise ValueError("batch size must be >= 1")
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
        self.noise = noise if noise is not None else NoiseSpec(0.0, 0.0, "none")
        self.noise_block = primal.dim
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
        if r < 1:
            raise ValueError("batch size must be >= 1")
        u = self.apply_At(np.asarray(y, dtype=float))
        x_mean = self._batch_mean(u, r, streams, self.sample_x)
        return self.apply_A(x_mean), x_mean
