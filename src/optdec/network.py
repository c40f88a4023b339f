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
``A = sqrt(W_bar) (x) I_n``.  The blockwise argmax is one call, which
the instance fixes when it is built: quadratic local objectives, recognised by their
declared ``quadratic`` field, take one product with the stack of the
problems' own inverses ``Q_inv``, and barycenter nodes evaluate their
transport marginals from one cached Gibbs kernel in two ``(m, n) x (n, n)``
products (:func:`optdec.problems.barycenter_problem`; costs wider than
``KERNEL_RANGE * mu`` keep the log-domain plan).  The instance reads the
local oracles' declared fields and never writes to them.  :func:`run_distributed`
runs :func:`optdec.methods.run_method` on a :class:`Network`, beside ``Machine``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dual import primal_recovery
from .dual import spdstm  # noqa: F401  (perfbench checks its wrapper is bound here)
from .methods import DECENTRALIZED_KINDS, METHODS, RUN_SETTINGS, run_method
from .oracles import (RANK_TOL, CallCounter, DualOracle, FirstOrderOracle, NoiseSpec, RngStreams,
                      number, spectrum)
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
    "Network",
    "run_distributed",
]


# ---------------------------------------------------------------------------
# topologies

# each constructor's fewest nodes: a ring closes on 3, the other graphs connect 2
LEAST_NODES = {"ring": 3, "path": 2, "star": 2, "complete": 2, "erdos_renyi": 2}
TOPOLOGY_KINDS = tuple(LEAST_NODES)


def _node_count(kind: str, m: int) -> int:
    if m < LEAST_NODES[kind]:
        raise ValueError(f"{kind} needs m >= {LEAST_NODES[kind]}")
    return m


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
        return Topology.normalized(_node_count("ring", m), [(i, (i + 1) % m) for i in range(m)])

    @staticmethod
    def path(m: int) -> "Topology":
        return Topology.normalized(_node_count("path", m), [(i, i + 1) for i in range(m - 1)])

    @staticmethod
    def star(m: int) -> "Topology":
        return Topology.normalized(_node_count("star", m), [(0, i) for i in range(1, m)])

    @staticmethod
    def complete(m: int) -> "Topology":
        return Topology.normalized(_node_count("complete", m),
                                   [(i, j) for i in range(m) for j in range(i + 1, m)])

    @staticmethod
    def erdos_renyi(m: int, p: float, rng: np.random.Generator) -> "Topology":
        """Random graph resampled until connected; fails after 10,000 samples."""
        _node_count("erdos_renyi", m)
        if not 0.0 < p <= 1.0:
            raise ValueError(f"topology.p must be in (0, 1], got {p!r}")
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
        """The topology of a ``to_json`` file: an object of exactly ``m``, an integer >= 2, and
        ``edges``, distinct int pairs ``[i, j]``, i != j, in ``[1, m]``; ValueError names it."""
        payload = json.loads(text)
        if not isinstance(payload, dict) or payload.keys() != {"m", "edges"}:
            got = sorted(payload) if isinstance(payload, dict) else type(payload).__name__
            raise ValueError(f"a topology file holds exactly topology.m and topology.edges, "
                             f"got {got}")
        m, pairs = number(payload["m"], "topology.m", integer=True, low=2), payload["edges"]
        seen = set()
        for pair in pairs if isinstance(pairs, list) else [pairs]:
            if not (isinstance(pair, list) and len(pair) == 2
                    and all(type(v) is int and 1 <= v <= m for v in pair)):
                raise ValueError(f"topology.edges must be a list of node pairs [i, j] in [1, {m}], "
                                 f"got {pair!r}")
            if pair[0] == pair[1] or frozenset(pair) in seen:  # named 1-indexed, as written
                what = "a self-loop" if pair[0] == pair[1] else "a repeated edge"
                raise ValueError(f"topology.edges holds {what} {pair!r}")
            seen.add(frozenset(pair))
        return Topology.normalized(m, [(i - 1, j - 1) for i, j in pairs])


def laplacian(topology: Topology) -> np.ndarray:
    """Integer-valued graph Laplacian (degree on the diagonal, -1 per edge)."""
    if not topology.connected:
        raise ValueError(f"topology.edges must connect all {topology.m} nodes")
    adjacency = np.zeros((topology.m, topology.m))
    for i, j in topology.edges:
        adjacency[i, j] = adjacency[j, i] = 1.0
    return np.diag(adjacency.sum(axis=1)) - adjacency


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
    maps stacked dual inputs to the blockwise conjugate maximisers
    ``x_k(m u_k)`` in one call of ``batched_argmax``, which maps the
    ``(m, n)`` stack ``m u_k`` to the ``(m, n)`` stack of maximisers: the one
    given, else one product with the stack of the problems' own ``Q_inv``
    when every local declares its ``quadratic``, else a loop over each local's
    declared ``conjugate_argmax`` or, where it declares none, inner
    accelerated solves (:func:`optdec.primal.argmax_solver_via_stm`).
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
        quadratics = [f.quadratic for f in nodes]
        if batched_argmax is None and None not in quadratics:
            batched_argmax = _stacked_quadratic_argmax(quadratics)
        elif batched_argmax is None:  # node by node
            solvers = [f.conjugate_argmax or argmax_solver_via_stm(f) for f in nodes]
            batched_argmax = lambda U: np.array([solve(u) for solve, u in zip(solvers, U)])
        self.batched_argmax = batched_argmax

    def local_argmax(self, u_stacked: np.ndarray) -> np.ndarray:
        return self.batched_argmax(self.m * u_stacked.reshape(self.m, self.n)).reshape(-1)

    def blocks(self, x_stacked) -> np.ndarray:
        return np.asarray(x_stacked, dtype=float).reshape(self.m, self.n)


def _stacked_quadratic_argmax(quadratics):
    """``U -> X`` with ``X_k = Q_inv_k (U_k + b_k)``, the problems' own inverses stacked, or
    uncopied where they are the consecutive slices of one array, as ``QuadraticProblem.stack``'s."""
    Q_inv = quadratics[0].Q_inv.base
    if not (isinstance(Q_inv, np.ndarray) and len(Q_inv) == len(quadratics) and all(
            qp.Q_inv.__array_interface__ == Q_inv[k].__array_interface__
            for k, qp in enumerate(quadratics))):
        Q_inv = np.stack([qp.Q_inv for qp in quadratics])
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


class Network:
    """A network run's ``instance`` and dual oracle on the per-node ``noise``; ``R_y`` defaults to
    :func:`_dual_norm_bound`, computed on first read (one local gradient per node: a dual ascent
    on a barycenter node) by a decision that needs it: an auto-``N`` plan, ``spdstm``'s
    ``stop_gap`` test once a gap reaches it, ``restarted_rrma``, or a divergence guard on a norm
    above ``DIVERGENCE_FACTOR``.  ``finish`` recovers ``x`` from one sample at the final ``y`` when
    the method keeps no primal average, closes the trace with a counter row and returns ``x``
    per node, with ``summary`` the Laplacian's ``chi``, ``m`` and ``||sqrt(W) x||``."""

    def __init__(self, instance: DecentralizedInstance, noise: NoiseSpec | None = None):
        self.instance, self.noise, self.summary = instance, noise, {}
        self.dual = DistributedDualOracle(instance, noise)
        instance.counter.reset()

    @cached_property
    def R_y(self) -> float:
        return _dual_norm_bound(self.instance)

    def finish(self, trace, y, x, seed):
        if x is None:
            x = primal_recovery(self.dual, y, 1, RngStreams(seed).child(999_999))
        trace.record(trace.final["iter"], trace.final["A_k"])
        pair = self.instance.pair  # sqrt(W) is the blockwise operator: no dense lift is formed
        self.summary = {"chi": pair.chi, "m": self.instance.m,
                        "consensus_residual": float(np.linalg.norm(pair.sqrtW @ x))}
        return self.instance.blocks(x)


def run_distributed(method: str, instance: DecentralizedInstance, config: dict):
    """:func:`optdec.methods.run_method` on a :class:`Network` of ``instance``.

    ``config`` may set ``noise``, the run settings (defaults
    :data:`optdec.methods.RUN_SETTINGS`, as in ``optdec run``) and the
    constants of ``method``'s record, which must name a network kind; all are
    checked as ``optdec run`` checks them (ValueError).  Returns
    ``(x_per_node, trace, counter)``: one row per node, and the instance's
    :class:`CallCounter`, whose ``comm_rounds`` counts each ``W`` or
    ``sqrt(W)`` multiplication; central metric evaluations are free.
    """
    if method not in METHODS or not set(DECENTRALIZED_KINDS) & set(METHODS[method].kinds):
        raise ValueError(f"method {method!r} does not run on a network")
    settings = {**RUN_SETTINGS, "noise": None}
    run = {key: config.get(key, value) for key, value in settings.items()}
    network = Network(instance, run.pop("noise"))
    trace, _, x_per_node = run_method(method, network, constants={
        key: value for key, value in config.items() if key not in settings}, **run)
    return x_per_node, trace, instance.counter


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

