"""Consensus-constrained instances over graph Laplacians.

A decentralized problem ``min (1/m) sum_k f_k(x_k)  s.t.  x_1 = ... = x_m``
is encoded as the affinely constrained problem ``sqrt(W) x = 0`` where
``W = W_bar (x) I_n`` lifts the graph Laplacian blockwise.  The dual
oracle of the lifted problem evaluates blockwise local conjugate argmaxes
between two ``sqrt(W)`` multiplications; each multiplication is one
synchronous, lossless communication round and is counted in
``CallCounter.comm_rounds``.

Only ``m x m`` matrices are ever formed.  ``W`` and ``sqrt(W)`` are
:class:`KronOperator` objects: a product with a stacked vector ``x`` is
the node-mixing product ``M @ x.reshape(m, n)``, and the dense
``(mn) x (mn)`` lift is built only when asked for with ``np.asarray``
(tests and diagnostics).  The spectral constants of the dual come from
the eigenvalues of ``W_bar``, since ``lambda(A^T A) = lambda(W_bar)`` for
``A = sqrt(W_bar) (x) I_n``.  The blockwise argmax is one batched call
when the instance has one: quadratic local objectives, recognised by their
declared ``quadratic`` field, are inverted once as one stacked
``(m, n, n)`` array, and barycenter nodes evaluate their transport
marginals from one cached Gibbs kernel in two ``(m, n) x (n, n)``
products (:func:`optdec.problems.barycenter_problem`; costs wider than
``KERNEL_RANGE * mu`` keep the log-domain plan).  The instance reads the
local oracles' declared fields and never writes to them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dual import primal_recovery
from .dual import spdstm  # noqa: F401  (perfbench checks its wrapper is bound here)
from .methods import DECENTRALIZED_KINDS, METHODS, run_method
from .oracles import (RANK_TOL, CallCounter, DualOracle, FirstOrderOracle, NoiseSpec, RngStreams,
                      spectrum)
from .primal import argmax_solver_via_stm

__all__ = [
    "Topology",
    "LaplacianPair",
    "DecentralizedInstance",
    "KronOperator",
    "laplacian",
    "lift_laplacian",
    "sqrt_psd",
    "chi",
    "laplacian_pair",
    "DistributedDualOracle",
    "run_distributed",
]


# ---------------------------------------------------------------------------
# topologies


@dataclass(frozen=True)
class Topology:
    """Undirected simple graph on nodes ``0..m-1``."""

    m: int
    edges: tuple

    def __post_init__(self):
        seen = set()
        for i, j in self.edges:
            if i == j:
                raise ValueError("self-loops are not allowed")
            if not (0 <= i < self.m and 0 <= j < self.m):
                raise ValueError("edge endpoint out of range")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError("duplicate edge")
            seen.add(key)

    @property
    def connected(self) -> bool:
        if self.m == 1:
            return True
        adj = {i: [] for i in range(self.m)}
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        seen = {0}
        stack = [0]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return len(seen) == self.m

    # -- constructors --------------------------------------------------------

    @staticmethod
    def normalized(m, edges) -> "Topology":
        return Topology(m, tuple(sorted((min(i, j), max(i, j)) for i, j in edges)))

    @staticmethod
    def ring(m: int) -> "Topology":
        if m < 3:
            raise ValueError("ring needs m >= 3")
        return Topology.normalized(m, [(i, (i + 1) % m) for i in range(m)])

    @staticmethod
    def path(m: int) -> "Topology":
        if m < 2:
            raise ValueError("path needs m >= 2")
        return Topology.normalized(m, [(i, i + 1) for i in range(m - 1)])

    @staticmethod
    def star(m: int) -> "Topology":
        if m < 2:
            raise ValueError("star needs m >= 2")
        return Topology.normalized(m, [(0, i) for i in range(1, m)])

    @staticmethod
    def complete(m: int) -> "Topology":
        if m < 2:
            raise ValueError("complete needs m >= 2")
        return Topology.normalized(m, [(i, j) for i in range(m) for j in range(i + 1, m)])

    @staticmethod
    def erdos_renyi(m: int, p: float, rng: np.random.Generator) -> "Topology":
        """Random graph resampled until connected; fails after 10,000 samples."""
        if m < 2 or not (0.0 <= p <= 1.0):
            raise ValueError("need m >= 2 and p in [0, 1]")
        for _ in range(10_000):
            mask = rng.random((m, m)) < p
            edges = [(i, j) for i in range(m) for j in range(i + 1, m) if mask[i, j]]
            topo = Topology.normalized(m, edges)
            if topo.connected:
                return topo
        raise RuntimeError(f"no connected sample in 10000 attempts (p={p})")

    # -- file format (1-indexed nodes) ----------------------------------------

    def to_json(self) -> str:
        payload = {"m": self.m, "edges": [[i + 1, j + 1] for i, j in self.edges]}
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "Topology":
        payload = json.loads(text)
        edges = [(i - 1, j - 1) for i, j in payload["edges"]]
        return Topology.normalized(int(payload["m"]), edges)


def laplacian(topology: Topology) -> np.ndarray:
    """Integer-valued graph Laplacian (degree on the diagonal, -1 per edge)."""
    if not topology.connected:
        raise ValueError("topology must be connected")
    W = np.zeros((topology.m, topology.m))
    for i, j in topology.edges:
        W[i, j] -= 1.0
        W[j, i] -= 1.0
        W[i, i] += 1.0
        W[j, j] += 1.0
    return W


def lift_laplacian(W_bar: np.ndarray, n: int) -> np.ndarray:
    """Blockwise lift ``W_bar (x) I_n`` acting on stacked per-node vectors."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.kron(np.asarray(W_bar, dtype=float), np.eye(n))


def sqrt_psd(W: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root by dense eigendecomposition.

    Eigenvalues at or below ``RANK_TOL * lambda_max`` are zeroed, as in
    :func:`spectrum`; a negative one beyond that, or an asymmetry above
    ``1e-10`` of the largest entry (or of 1), is rejected.
    """
    W = np.asarray(W, dtype=float)
    if np.max(np.abs(W - W.T)) > 1e-10 * max(1.0, np.max(np.abs(W))):
        raise ValueError("matrix is not symmetric")
    evals, U = np.linalg.eigh((W + W.T) / 2.0)
    lam_max = float(evals[-1])
    if evals[0] < -RANK_TOL * max(1.0, lam_max):
        raise ValueError("matrix is not positive semidefinite")
    d = np.where(evals > RANK_TOL * lam_max, evals, 0.0)
    S = (U * np.sqrt(d)) @ U.T
    return (S + S.T) / 2.0  # exactly symmetric, so a lift of it is its own transpose


def chi(M: np.ndarray) -> float:
    """Condition number ``lambda_max / lambda_min_plus`` of a PSD matrix (:func:`spectrum`)."""
    return _condition(*spectrum(M))


def _condition(lam_max: float, lam_min_plus: float) -> float:
    return lam_max / lam_min_plus if lam_min_plus > 0 else math.inf


class KronOperator:
    """The lift ``M (x) I_n`` of a symmetric ``m x m`` matrix, kept as ``M``.

    ``K @ x`` on a stacked vector is the blockwise product
    ``M @ x.reshape(m, n)``: O(m^2 n) work and no ``(mn) x (mn)`` array.
    ``K.T`` is ``K``.  ``np.asarray(K)`` builds the dense lift, for tests
    and diagnostics only.
    """

    def __init__(self, M, n: int):
        M = np.asarray(M, dtype=float)
        if M.ndim != 2 or not np.array_equal(M, M.T):
            raise ValueError("M must be a symmetric matrix")
        if n < 1:
            raise ValueError("n must be >= 1")
        self.M = M
        self.n = int(n)
        size = M.shape[0] * self.n
        self.shape = (size, size)

    @property
    def T(self) -> "KronOperator":
        return self

    def __matmul__(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.shape[1],):
            raise ValueError(f"expected a stacked vector of length {self.shape[1]}, got shape {x.shape}")
        return (self.M @ x.reshape(-1, self.n)).reshape(-1)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(lift_laplacian(self.M, self.n), dtype=dtype)


@dataclass
class LaplacianPair:
    """Node Laplacian with the operators ``W = W_bar (x) I_n`` and ``sqrt(W)``.

    The eigenvalue fields are those of ``W_bar``, which are those of ``W``.
    """

    W_bar: np.ndarray
    W: KronOperator
    sqrtW: KronOperator
    lambda_max: float
    lambda_min_plus: float
    chi: float


def laplacian_pair(topology: Topology, n: int) -> LaplacianPair:
    W_bar = laplacian(topology)
    lam_max, lam_min_plus = spectrum(W_bar)
    return LaplacianPair(
        W_bar=W_bar, W=KronOperator(W_bar, n), sqrtW=KronOperator(sqrt_psd(W_bar), n),
        lambda_max=lam_max, lambda_min_plus=lam_min_plus,
        chi=_condition(lam_max, lam_min_plus))


# ---------------------------------------------------------------------------
# lifted instances


class DecentralizedInstance:
    """Per-node objectives plus the consensus constraint ``sqrt(W) x = 0``.

    The stacked objective is ``f(x) = (1/m) sum_k f_k(x_k)``; it inherits
    ``L/m`` smoothness and ``mu/m`` strong convexity from the worst local
    constants, and declares the conjugate ``f*(u) = (1/m) sum_k f_k*(m u_k)``
    when every local declares its ``conjugate_value``.  ``local_argmax``
    maps stacked dual inputs through the blockwise conjugate maximisers
    ``x_k(m u_k)``.  ``batched_argmax``, when
    given, maps the ``(m, n)`` stack of inputs ``m u_k`` to the ``(m, n)``
    stack of maximisers in one call; when every local declares its
    ``quadratic`` it defaults to one batched product with the stacked
    inverses.  Otherwise ``local_argmax`` calls the per-node maximisers of
    ``node_argmax``: each local's declared ``conjugate_argmax``, or inner
    accelerated solves (:func:`optdec.primal.argmax_solver_via_stm`) for a
    local that declares none.
    """

    def __init__(self, locals_, topology: Topology, n: int, batched_argmax=None):
        if any(f.dim != n for f in locals_):
            raise ValueError("all local oracles must share dimension n")
        if len(locals_) != topology.m:
            raise ValueError(f"the topology has {topology.m} nodes but there are "
                             f"{len(locals_)} local objectives")
        self.locals = list(locals_)
        self.topology = topology
        self.n = int(n)
        self.m = topology.m
        self.pair = laplacian_pair(topology, n)
        self.counter = CallCounter()
        # the closures hold the node list, not ``self``: no reference cycle
        m, nodes = self.m, self.locals

        def value(x):
            blocks = x.reshape(m, n)
            return sum(f.value(blocks[k]) for k, f in enumerate(nodes)) / m

        def gradient(x):
            blocks = x.reshape(m, n)
            return np.concatenate(
                [np.asarray(f.gradient(blocks[k]), dtype=float) for k, f in enumerate(nodes)]) / m

        values = [f.conjugate_value for f in nodes]

        def conjugate_value(u):
            U = m * u.reshape(m, n)
            return sum(f_star(U[k]) for k, f_star in enumerate(values)) / m

        L = max(f.L for f in self.locals) / m
        mu = min(f.mu for f in self.locals) / m
        self.stacked = FirstOrderOracle(
            m * n, value, gradient, L, mu, counter=self.counter,
            conjugate_value=conjugate_value if None not in values else None)
        self.A = self.pair.sqrtW
        if batched_argmax is None and all(f.quadratic is not None for f in self.locals):
            batched_argmax = _stacked_quadratic_argmax([f.quadratic for f in self.locals])
        self.batched_argmax = batched_argmax
        self.node_argmax = [f.conjugate_argmax or argmax_solver_via_stm(f) for f in self.locals]

    def local_argmax(self, u_stacked: np.ndarray) -> np.ndarray:
        U = self.m * u_stacked.reshape(self.m, self.n)
        if self.batched_argmax is not None:
            return self.batched_argmax(U).reshape(-1)
        out = np.empty_like(U)
        for k, argmax in enumerate(self.node_argmax):
            out[k] = argmax(U[k])
        return out.reshape(-1)

    def blocks(self, x_stacked) -> np.ndarray:
        return np.asarray(x_stacked, dtype=float).reshape(self.m, self.n)


def _stacked_quadratic_argmax(quadratics):
    """``U -> X`` with ``X_k = Q_k^{-1} (U_k + b_k)``, inverting every ``Q_k`` once."""
    Q_inv = np.linalg.inv(np.stack([qp.Q for qp in quadratics]))
    b = np.stack([qp.b for qp in quadratics])
    return lambda U: np.matmul(Q_inv, (U + b)[:, :, None])[:, :, 0]


class DistributedDualOracle(DualOracle):
    """Dual oracle of a lifted instance with communication accounting.

    One gradient evaluation is ``sqrt(W) x(sqrt(W) y)`` with blockwise
    local argmax solves in between: exactly two counted multiplications.
    ``noise`` is the per-node spec: each node block gets its own bias
    ``delta * e_1`` and noise of scale ``sigma``, so the stacked noise level
    is ``sqrt(m) sigma``, and ``sigma_psi`` carries that ``sqrt(m)`` and an
    extra ``sqrt(lambda_max(W))``.  A sample draws its ``m`` node blocks in
    node order, as one row of ``m n`` coordinates of its batch's stream.
    """

    def __init__(self, instance: DecentralizedInstance, noise: NoiseSpec | None = None):
        self.instance = instance
        super().__init__(instance.stacked, instance.pair.sqrtW, instance.local_argmax,
                         noise=noise, counter=instance.counter)
        self.noise_block = instance.n

    def _constraint_map(self, A):
        """``sqrt(W)`` stays an operator; ``lambda(A^T A) = lambda(W_bar)``."""
        pair = self.instance.pair
        if pair.lambda_min_plus == 0.0:
            raise ValueError("a single node has no consensus constraint to dualise")
        return A, pair.lambda_max, pair.lambda_min_plus

    def _comm_mult(self, v):
        self.counter.comm_rounds += 1
        return self.A @ v

    def apply_A(self, v):
        return self._comm_mult(v)

    def apply_At(self, y):
        return self._comm_mult(y)

    # its own entry, so that perfbench traces network samples as network.sample_x
    sample_x = DualOracle.sample_x


# the run settings of run_distributed; its other keys are the method's constants
_RUN_SETTINGS = {"N": "auto", "eps": 1e-4, "beta": 0.1, "seed": 0, "noise": None}


def run_distributed(method: str, instance: DecentralizedInstance, config: dict):
    """Run a method on the lifted instance over the simulated network.

    ``method``'s record in :data:`optdec.methods.METHODS` must name a
    network kind.  ``config`` may set the keys of ``_RUN_SETTINGS`` and the
    constants of the record, which ``run_method`` checks as ``optdec run``
    does (ValueError).  ``R_y`` defaults to :func:`_dual_norm_bound`.  Without
    a primal average, ``x`` is recovered from one sample at the final ``y``.
    Returns ``(x_per_node, trace, counter)`` where ``x_per_node`` has one
    row per node and ``counter`` is the instance's :class:`CallCounter`.
    Every counted communication round (``counter.comm_rounds``) is one
    ``W`` or ``sqrt(W)`` multiplication; metric evaluations are computed
    centrally by the simulator and are free.
    """
    if method not in METHODS or not set(DECENTRALIZED_KINDS) & set(METHODS[method].kinds):
        raise ValueError(f"method {method!r} does not run on a network")
    run = {key: config.get(key, value) for key, value in _RUN_SETTINGS.items()}
    constants = {key: value for key, value in config.items() if key not in _RUN_SETTINGS}

    dual = DistributedDualOracle(instance, run["noise"])
    instance.counter.reset()
    trace, y, x = run_method(method, _Lifted(dual), run["N"], run["eps"], run["beta"], constants,
                             seed=run["seed"])
    if x is None:
        # run_method has checked that the seed is integral
        x = primal_recovery(dual, y, 1, RngStreams(int(run["seed"])).child(999_999))

    # closing row: primal recovery rounds happen after the last iteration
    trace.record(trace.final["iter"], trace.final["A_k"], instance.counter)
    return instance.blocks(x), trace, instance.counter


class _Lifted:
    """The problem ``run_method`` solves on a network: its dual oracle and ``R_y``."""

    def __init__(self, dual: DistributedDualOracle):
        self.dual = dual

    @cached_property
    def R_y(self) -> float:
        return _dual_norm_bound(self.dual.instance)


def _dual_norm_bound(instance: DecentralizedInstance) -> float:
    """Bound on the minimal dual solution norm from local gradients at consensus.

    Uses ``||y*||^2 <= ||grad f(x*)||^2 / lambda_min_plus`` with the
    stacked gradient evaluated at the consensus average of the declared
    local minimisers ``x_star``, or at the origin when no local declares
    one (a cheap over-estimate adequate for batch sizing).
    """
    centers = [f.x_star for f in instance.locals if f.x_star is not None]
    center = np.mean(centers, axis=0) if centers else np.zeros(instance.n)
    x = np.tile(center, instance.m)
    g = instance.stacked.gradient(x)
    return max(1e-12, float(np.linalg.norm(g)) / math.sqrt(instance.pair.lambda_min_plus))

