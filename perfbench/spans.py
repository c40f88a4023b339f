"""Spans around calls into optdec's layers, taken from outside the package.

:class:`Tracer` replaces module attributes and class methods of ``optdec``
with wrappers that record one span per call -- name, start, end, parent
span and run id -- in flat in-memory arrays.  Nothing in ``optdec`` is
edited; :meth:`Tracer.uninstall` puts every original back.

Names imported by value into other modules (the solvers and the
``next_alpha_*`` schedules into ``cli``, ``dual``, ``primal`` and
``network``) are replaced wherever they are bound, and methods are
replaced on the class, so bound methods taken later (``local_argmax`` when
the distributed oracle is built) pick the wrapper up.  Install before the
run builds its objects.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array
from collections import Counter, defaultdict

# span name -> "module:attribute" or "module:Class.method" inside optdec
LAYER_TARGETS = [
    ("cli.cmd_run", "cli:cmd_run"),
    ("cli.validate_config", "cli:validate_config"),
    ("cli.execute_run", "cli:execute_run"),
    ("trace.record", "trace:RunTrace.record"),
    ("trace.to_csv", "trace:RunTrace.to_csv"),
    ("trace.summary", "trace:summary_from_trace"),
    ("dual.spdstm", "dual:spdstm"),
    ("dual.sstm_sc", "dual:sstm_sc"),
    ("dual.primal_recovery", "dual:primal_recovery"),
    ("primal.stm_ips", "primal:stm_ips"),
    ("primal.grad_h", "primal:CompositeProblem.grad_h"),
    ("primal.build_penalty", "primal:build_penalty"),
    ("network.run_distributed", "network:run_distributed"),
    ("network.laplacian_pair", "network:laplacian_pair"),
    ("network.sqrt_psd", "network:sqrt_psd"),
    ("network.comm_mult", "network:DistributedDualOracle._comm_mult"),
    ("network.local_argmax", "network:DecentralizedInstance.local_argmax"),
    ("network.sample_x", "network:DistributedDualOracle.sample_x"),
    ("schedules.next_alpha", "schedules:next_alpha_stm"),
    ("schedules.next_alpha", "schedules:next_alpha_strongly_convex"),
    ("schedules.next_alpha", "schedules:next_alpha_spdstm"),
    ("schedules.batch_size", "schedules:batch_size_sstm"),
    ("schedules.batch_size", "schedules:batch_size_spdstm"),
    ("schedules.batch_size", "schedules:batch_size_sstm_sc"),
    ("oracles.rng_generator", "oracles:RngStreams.generator"),
    ("oracles.sample_eta", "oracles:NoiseSpec.sample_eta"),
    ("oracles.sample_x", "oracles:DualOracle.sample_x"),
    ("oracles.batch_grad_and_x", "oracles:DualOracle.batch_grad_and_x"),
    ("oracles.eval_grad", "oracles:FirstOrderOracle.eval_grad"),
    ("oracles.psi_value", "oracles:DualOracle.psi_value"),
    ("oracles.x_exact", "oracles:DualOracle.x_exact"),
    ("oracles.dual_init", "oracles:DualOracle.__init__"),
    ("problems.conjugate_argmax", "problems:QuadraticProblem.conjugate_argmax"),
    ("problems.ot_dual_grad", "problems:entropic_ot_dual_grad"),
    ("problems.ot_dual_value", "problems:entropic_ot_dual_value"),
    ("problems.entropic_wasserstein", "problems:entropic_wasserstein"),
    ("problems.build", "problems:QuadraticProblem.__init__"),
    ("problems.build", "problems:random_quadratic"),
    ("problems.build", "problems:min_norm_dual_solution"),
    ("problems.build", "problems:barycenter_problem"),
    ("problems.build", "problems:load_measures_csv"),
    ("problems.build", "problems:load_cost_csv"),
]

# The end-to-end run wraps only these: the solver spans give solve time,
# and setup runs from the end of validate_config to the first solver span.
SOLVERS = ("dual.spdstm", "dual.sstm_sc", "primal.stm_ips")
ENTRY_TARGETS = [t for t in LAYER_TARGETS if t[0] in SOLVERS + ("cli.validate_config",)]

SAMPLERS = ("oracles.sample_x", "network.sample_x")


class Tracer:
    """Records spans of wrapped calls; single-threaded, like optdec itself."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def wrap(self, name: str, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        clock, stack = time.perf_counter, self._stack
        names, starts, ends, parents, runs = self.name, self.start, self.end, self.parent, self.run

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    # -- patching -------------------------------------------------------------

    def install(self, package: str, targets):
        """Wrap every target of ``package`` (e.g. ``optdec``); see module doc."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for name, where in targets:
            modname, _, attr = where.partition(":")
            owner = sys.modules[f"{package}.{modname}"]
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self.wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._patch(module, attr, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def outermost(self, name: str, run_id: int) -> list:
        """Spans named ``name`` in the run that are not nested in one of the same name."""
        nid = self._name_ids.get(name)
        return [i for i in range(len(self.start))
                if self.run[i] == run_id and self.name[i] == nid
                and (self.parent[i] < 0 or self.name[self.parent[i]] != nid)]

    def duration(self, i: int) -> float:
        return self.end[i] - self.start[i]


@contextlib.contextmanager
def tracing(package: str, targets):
    """A :class:`Tracer` installed on ``targets`` for the ``with`` block."""
    tracer = Tracer()
    try:
        tracer.install(package, targets)
        yield tracer
    finally:
        tracer.uninstall()


def layer_profile(tracer: Tracer, run_id: int, busy_within) -> dict:
    """Per-name calls and self seconds of one run, plus derived counts.

    Self time is a span's duration minus the time its direct children
    cover; ``busy_within(start, end)`` is time inside a span that belongs
    to neither (the speed probe's) and is taken out as well.  A call is a span not nested in a span of the same name (so
    ``next_alpha_strongly_convex`` delegating to ``next_alpha_stm`` counts
    once).  ``oracles.x_exact`` is split by its parent: under a sampler it
    is the per-sample argmax, elsewhere it is metric evaluation
    (``oracles.x_exact_diag``).
    """
    idx = [i for i in range(len(tracer.start)) if tracer.run[i] == run_id]
    names = [tracer.names[n] for n in tracer.name]
    duration = {i: tracer.duration(i) - busy_within(tracer.start[i], tracer.end[i]) for i in idx}
    child = defaultdict(float)
    for i in idx:
        if tracer.parent[i] >= 0:
            child[tracer.parent[i]] += duration[i]

    # a span is "in a solver" when it or an ancestor is a solver span;
    # parents are recorded before their children, so one pass suffices
    in_solver = {}
    for i in idx:
        p = tracer.parent[i]
        in_solver[i] = names[i] in SOLVERS or (p >= 0 and in_solver.get(p, False))

    calls, self_s, counts = Counter(), defaultdict(float), Counter()
    plan_s = 0.0
    for i in idx:
        name, p = names[i], tracer.parent[i]
        parent_name = names[p] if p >= 0 else None
        if name == "oracles.x_exact":
            if parent_name in SAMPLERS:
                counts["argmax_in_sample"] += 1
            else:
                name = "oracles.x_exact_diag"
        self_s[name] += duration[i] - child[i]
        if parent_name != name:
            calls[name] += 1
        if name == "problems.ot_dual_grad" and parent_name == "problems.entropic_wasserstein":
            counts["ot_steps_in_ascent"] += 1
        if name == "schedules.next_alpha" and parent_name != name and not in_solver[i]:
            counts["next_alpha_setup_calls"] += 1
            plan_s += duration[i]
    return {"calls": calls, "self_s": self_s, "counts": counts, "plan_s": plan_s}
