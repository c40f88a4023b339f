"""Harness: runs one workload through ``optdec.cli`` in-process and reports.

A repetition writes the workload's config and calls
``cli.main(["run", config, "--out", dir])`` with the speed probe
(``probe.py``) running.  The untraced mode repeats that for the requested
seconds (at least ``MIN_REPS`` times) with only ``validate_config`` and the
solver entry points wrapped, and reports medians of reference seconds.
The traced mode makes one untraced repetition, then one with every layer
wrapped (see ``spans.LAYER_TARGETS``), and reports per-layer metrics; it
also checks that the traced run writes the same trace CSV and that the
wrapper counts equal the program's own counters.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import spans as sp
from probe import SpeedProbe
from workloads import UNRUNNABLE, WORKLOADS, Trace, write_config

ROOT = Path(__file__).resolve().parent.parent
MIN_REPS = 3


class SetupError(RuntimeError):
    """The benchmark cannot run here (no optdec sources next to it)."""


def load_optdec(root: Path = ROOT):
    """Import optdec from ``root/src`` and nowhere else."""
    pkg = root / "src" / "optdec"
    if not (pkg / "__init__.py").is_file():
        raise SetupError(f"optdec sources not found at {pkg}")
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    import optdec
    import optdec.cli
    if Path(optdec.__file__).resolve().parent != pkg.resolve():
        raise SetupError(f"imported optdec from {optdec.__file__}, expected {pkg}")
    return optdec


# -- one repetition -----------------------------------------------------------


TIMES = ("setup_s", "solve_s", "run_s")


@dataclass
class RunResult:
    exit_code: int
    # TIMES in wall seconds without the probe's own time, and in reference
    # seconds; see probe.py
    wall: dict
    ref: dict
    probe: SpeedProbe
    summary: dict
    csv_sha: str
    csv_bytes: int
    failures: list = field(default_factory=list)

    @property
    def counted_ops(self) -> int:
        s = self.summary
        return sum(int(s.get(k) or 0) for k in ("grad_calls", "stoch_samples", "matvec_AtA", "comm_rounds"))


def run_once(optdec, tracer: sp.Tracer, workload, cfg_path: Path, cfg: dict, out_dir: Path) -> RunResult:
    """One in-process ``optdec run``; output checks go into ``failures``.

    The run carries a :class:`SpeedProbe`, whose time is taken out of every
    reported interval.

    Every repetition starts from a collected heap, as a fresh ``optdec run``
    would: the lifted consensus instance sits in a reference cycle that
    only the cyclic collector frees, and without this each repetition of
    ``consensus_network`` left about 34 MB behind, so peak RSS followed the
    number of repetitions that fit in the run.
    """
    tracer.run_id += 1
    rid = tracer.run_id
    stdout, stderr = io.StringIO(), io.StringIO()
    speed = SpeedProbe()
    gc.collect()
    with speed:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = optdec.cli.main(["run", str(cfg_path), "--out", str(out_dir)])
            except Exception:  # a crash is a failed run, not a crashed benchmark
                traceback.print_exc()
                code = 1
        t1 = time.perf_counter()

    failures, summary, text = [], {}, ""
    if code != 0:
        failures.append(f"exit code {code}: {stderr.getvalue().strip()[-300:]}")
    else:
        summary_path = Path(stdout.getvalue().strip().splitlines()[-1])
        summary = json.loads(summary_path.read_text())
        text = summary_path.with_name(summary_path.name.replace(".summary.json", ".trace.csv")).read_text()
        failures += workload.check(cfg, summary, Trace.parse(text))

    validated = tracer.outermost("cli.validate_config", rid)
    solves = [i for name in sp.SOLVERS for i in tracer.outermost(name, rid)]
    intervals = {"run_s": (t0, t1)}
    if validated and solves:
        intervals["setup_s"] = (tracer.end[validated[0]], min(tracer.start[i] for i in solves))
        intervals["solve_s"] = (min(tracer.start[i] for i in solves), max(tracer.end[i] for i in solves))
    elif code == 0:
        failures.append("solver entry point was never called")
    wall = dict.fromkeys(TIMES, float("nan"))
    ref = dict(wall)
    for key, (start, end) in intervals.items():
        wall[key] = end - start - speed.busy_within(start, end)
        ref[key] = speed.reference_s(start, end)
    return RunResult(code, wall, ref, speed, summary,
                     hashlib.sha256(text.encode()).hexdigest(), len(text.encode()), failures)


# -- modes ----------------------------------------------------------------------


def measure(optdec, workload, seed: int, seconds: float, work: Path, tiny=False) -> dict:
    """Untraced repetitions filling ``seconds`` (at least MIN_REPS).

    Each time metric is the median over repetitions of reference seconds.
    """
    cfg_path, cfg = write_config(workload, seed, work, tiny)
    results = []
    with sp.tracing("optdec", sp.ENTRY_TARGETS) as tracer:
        # stop before a repetition that would overrun the budget
        t_end = time.perf_counter() + seconds
        while len(results) < MIN_REPS or \
                time.perf_counter() + statistics.median(r.wall["run_s"] for r in results) <= t_end:
            results.append(run_once(optdec, tracer, workload, cfg_path, cfg, work))
    ok = [r for r in results if not r.failures]
    problems = [f for r in results for f in r.failures]
    if len({r.csv_sha for r in ok}) > 1:
        problems.append("repeated runs of one (config, seed) wrote different trace CSVs")
    if len({r.counted_ops for r in ok}) > 1:
        problems.append("repeated runs of one (config, seed) counted different work")
    metrics = {}
    if ok:
        med = {key: statistics.median(r.ref[key] for r in ok) for key in TIMES}
        solve = med["solve_s"]
        metrics = {
            "setup_s": (med["setup_s"], "s"),
            "solve_s": (solve, "s"),
            "run_s": (med["run_s"], "s"),
            "counted_ops_per_s": (ok[0].counted_ops / solve, "1/s"),
            "counted_ops": (ok[0].counted_ops, "count"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    return {"results": results, "problems": problems, "metrics": metrics, "config": cfg}


def traced(optdec, workload, seed: int, work: Path, tiny=False) -> dict:
    """One untraced and one traced repetition; per-layer metrics."""
    cfg_path, cfg = write_config(workload, seed, work, tiny)
    with sp.tracing("optdec", sp.ENTRY_TARGETS) as plain:
        base = run_once(optdec, plain, workload, cfg_path, cfg, work)
    with sp.tracing("optdec", sp.LAYER_TARGETS) as tracer:
        res = run_once(optdec, tracer, workload, cfg_path, cfg, work)

    problems = base.failures + res.failures
    if base.csv_sha != res.csv_sha:
        problems.append("traced run wrote a different trace CSV than the untraced run")
    metrics = {}
    if not problems:
        prof = sp.layer_profile(tracer, tracer.run_id, res.probe.busy_within)
        metrics = layer_metrics(prof, res, base, workload)
        problems += counter_cross_checks(prof, res.summary)
    return {"results": [base, res], "problems": problems, "metrics": metrics, "config": cfg}


def counter_cross_checks(prof, summary) -> list:
    calls = prof["calls"]
    pairs = [
        ("network.comm_mult calls", calls["network.comm_mult"], "comm_rounds"),
        ("primal.grad_h calls", calls["primal.grad_h"], "matvec_AtA"),
        ("sample_x calls", sum(calls[n] for n in sp.SAMPLERS), "stoch_samples"),
    ]
    return [f"{label} = {got} but {key} = {summary.get(key)}"
            for label, got, key in pairs if got != int(summary.get(key) or 0)]


def _per_layer() -> dict:
    """Per-layer metric -> (unit, better), in the report's order."""
    metrics = {}
    for layer, names in {
        "oracles": ["rng_generator", "sample_eta", "sample_x", "batch_grad_and_x", "eval_grad",
                    "psi_value", "x_exact_diag"],
        "problems": ["conjugate_argmax", "ot_dual_grad", "ot_dual_value", "entropic_wasserstein"],
        "network": ["comm_mult", "local_argmax", "sample_x"],
        "dual": ["primal_recovery"],
        "primal": ["grad_h"],
        "schedules": ["next_alpha", "batch_size"],
        "trace": ["record"],
    }.items():
        for name in names:
            metrics[f"{layer}.{name}.calls"] = ("count", "lower")
            metrics[f"{layer}.{name}.self_pct"] = ("%", "lower")
    for name in ("oracles.dual_init", "problems.build", "network.laplacian_pair", "network.sqrt_psd",
                 "network.run_distributed", "dual.spdstm", "dual.sstm_sc", "primal.stm_ips",
                 "primal.build_penalty", "trace.to_csv", "trace.summary", "cli.validate_config",
                 "cli.execute_run", "cli.cmd_run"):
        metrics[f"{name}.self_pct"] = ("%", "lower")
    metrics.update({
        "oracles.generators_per_sample": ("ratio", "lower"),
        "oracles.argmax_per_sample": ("ratio", "lower"),
        "oracles.samples_per_batch": ("ratio", "higher"),
        "problems.entropic_wasserstein.steps_per_solve": ("ratio", "lower"),
        "network.lift_bytes": ("B", "lower"),
        "network.comm_mult.operator_bytes": ("B", "lower"),
        "network.payload_bytes_per_round": ("B", "lower"),
        "network.comm_mult.gbps_computed": ("GB/s", "higher"),
        "primal.grad_h_per_outer": ("ratio", "lower"),
        "schedules.next_alpha.setup_calls": ("count", "lower"),
        "schedules.plan_pct": ("%", "lower"),
        "trace.csv_bytes": ("B", "lower"),
        "solver.iter_self_us": ("us", "lower"),
        "tracing.run_s": ("s", "lower"),
        "tracing.solve_s_traced": ("s", "lower"),
        "tracing.solve_s_untraced": ("s", "lower"),
        "tracing.overhead": ("ratio", "lower"),
    })
    return metrics


PER_LAYER = _per_layer()


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(prof, res: RunResult, base: RunResult, workload) -> dict:
    """Per-layer metrics of one traced repetition.

    Self time is reported as a percentage of the traced run's wall time,
    so a layer a workload never enters reads 0 % rather than 0 s.
    """
    calls, self_s, counts = prof["calls"], prof["self_s"], prof["counts"]
    wall = res.wall["run_s"]
    out = {}
    for name in PER_LAYER:
        stem, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = calls[stem]
        elif kind == "self_pct":
            out[name] = 100.0 * self_s[stem] / wall
    samples = sum(calls[n] for n in sp.SAMPLERS)
    iters = int(res.summary.get("iterations") or 0)
    m, n = workload.lift or (0, 0)
    operator_bytes = 8 * (m * n) ** 2
    out.update({
        "oracles.generators_per_sample": _ratio(calls["oracles.rng_generator"], samples),
        "oracles.argmax_per_sample": _ratio(counts["argmax_in_sample"], samples),
        "oracles.samples_per_batch": _ratio(samples, calls["oracles.batch_grad_and_x"]),
        "problems.entropic_wasserstein.steps_per_solve":
            _ratio(counts["ot_steps_in_ascent"], calls["problems.entropic_wasserstein"]),
        # W and sqrt(W), each a dense (mn) x (mn) float64 matrix
        "network.lift_bytes": 2 * operator_bytes,
        "network.comm_mult.operator_bytes": operator_bytes,
        "network.payload_bytes_per_round": 8 * m * n,
        "network.comm_mult.gbps_computed":
            _ratio(operator_bytes * calls["network.comm_mult"], self_s["network.comm_mult"]) / 1e9,
        "primal.grad_h_per_outer": _ratio(calls["primal.grad_h"], iters if calls["primal.stm_ips"] else 0),
        "schedules.next_alpha.setup_calls": counts["next_alpha_setup_calls"],
        "schedules.plan_pct": 100.0 * prof["plan_s"] / wall,
        "trace.csv_bytes": res.csv_bytes,
        "solver.iter_self_us": 1e6 * _ratio(sum(self_s[s] for s in sp.SOLVERS), iters),
        "tracing.run_s": res.ref["run_s"],
        "tracing.solve_s_traced": res.ref["solve_s"],
        "tracing.solve_s_untraced": base.ref["solve_s"],
        "tracing.overhead": _ratio(res.ref["solve_s"], base.ref["solve_s"]),
    })
    return {name: (out[name], PER_LAYER[name][0]) for name in PER_LAYER}


# -- environment ----------------------------------------------------------------


def _git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def _openblas(np) -> dict:
    """Version and live thread count of the OpenBLAS numpy loaded, if any."""
    for lib_path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(lib_path))
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.argtypes, get_config.argtypes = [], []
                get_threads.restype, get_config.restype = ctypes.c_int, ctypes.c_char_p
                return {"openblas_config": get_config().decode(), "blas_threads": get_threads()}
    return {"openblas_config": "unknown", "blas_threads": "unknown"}


def _cpu() -> dict:
    model, caches = "unknown", {}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
    return {"cpu_model": model, "caches": caches}


def environment(root: Path = ROOT) -> dict:
    import numpy as np
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(root),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **_openblas(np),
        "blas_thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        **_cpu(),
    }


# -- entry --------------------------------------------------------------------


def run(workload_name: str, seed: int, seconds: float, trace: bool, tiny=False, root: Path = ROOT) -> dict:
    """Run one workload; returns the result object the last output line carries."""
    optdec = load_optdec(root)
    workload = WORKLOADS[workload_name]
    with tempfile.TemporaryDirectory(dir=root, prefix=".perfbench-") as tmp:
        if trace:
            out = traced(optdec, workload, seed, Path(tmp), tiny)
        else:
            out = measure(optdec, workload, seed, seconds, Path(tmp), tiny)
    out["attempted"] = len(out["results"])
    out["failed"] = sum(1 for r in out["results"] if r.failures)
    out["correct"] = not out["problems"] and bool(out["metrics"])
    return out


def report(name: str, seed: int, trace: bool, out: dict, env: dict) -> str:
    """Human-readable lines for the run; the caller prints the JSON line last."""
    lines = [f"workload {name}  seed {seed}  mode {'traced' if trace else 'untraced'}",
             "environment " + json.dumps(env, sort_keys=True),
             "config " + json.dumps(out["config"], sort_keys=True)]
    for i, r in enumerate(out["results"]):
        s = r.summary
        lines.append(
            f"  rep {i}: exit {r.exit_code}  "
            + "  ".join(f"{k} {r.wall[k]:.4f} (ref {r.ref[k]:.4f})" for k in TIMES)
            + f"  iterations {s.get('iterations')}  grad_calls {s.get('grad_calls')}  "
            f"stoch_samples {s.get('stoch_samples')}  matvec_AtA {s.get('matvec_AtA')}  "
            f"comm_rounds {s.get('comm_rounds')}  {'FAILED ' + '; '.join(r.failures) if r.failures else 'ok'}")
    lines.append(f"  fail_rate {out['failed'] / max(out['attempted'], 1):.4f} "
                 f"({out['failed']} of {out['attempted']} runs)")
    if not trace:
        lines.append("  rep times are wall seconds (reference seconds); the time metrics are medians "
                     "of reference seconds (see probe.py)")
    for problem in out["problems"]:
        lines.append(f"  CHECK FAILED: {problem}")
    for metric, (value, unit) in out["metrics"].items():
        lines.append(f"  {metric:<48} {value:>16.6g} {unit}")
    if not trace:
        for key, note in UNRUNNABLE.items():
            lines.append(f"  not a workload yet: {key}: {note['note']}")
    return "\n".join(lines)


def result_line(out: dict) -> str:
    return json.dumps({
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    })
