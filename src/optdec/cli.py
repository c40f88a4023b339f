"""Configuration-driven experiment runner.

Subcommands::

    optdec run <config.json> [--out DIR] [--seed S]
    optdec gen-topology --kind K --m M [--p P] [--seed S] [--out DIR]
    optdec sweep <config.json> --param P --values v1,v2,... [--out DIR]

``run`` executes one configured solve and writes ``<hash>.trace.csv`` and
``<hash>.summary.json`` named by the config hash; identical (config, seed)
pairs produce byte-identical files.  ``sweep`` re-runs a base config over
one swept parameter and writes an aggregated CSV of final metrics.  The
output directory is ``--out``, else ``$OPTDEC_OUT``, else the current
directory.  Exit codes: 0 ok, 2 config error, 3 runtime error/divergence.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .dual import DUAL_CONSTANTS, DivergenceError, run_dual
from .dual import spdstm  # noqa: F401  (perfbench checks its wrapper is bound here)
from .network import DecentralizedInstance, Topology, run_distributed
from .oracles import DualOracle, NoiseSpec, StochasticGradientOracle
from .primal import build_penalty, sstm, stm, stm_ips
from .problems import (QuadraticProblem, barycenter_problem, load_cost_csv,
                       load_measures_csv, min_norm_dual_solution, random_quadratic,
                       random_quadratics)
from .schedules import CAP_FLAG, capped_N, gap_certificate_N
from .trace import summary_from_trace

PROBLEM_KINDS = ("quadratic", "consensus_quadratic", "penalty", "barycenter", "custom")
TOPOLOGY_KINDS = ("ring", "path", "star", "complete", "erdos_renyi")
NOISE_KINDS = ("gaussian", "bounded")
DECENTRALIZED_KINDS = ("consensus_quadratic", "barycenter")
# the problem kinds each method runs on; a method that runs on ``penalty``
# needs the constraint matrix ``A``, so on ``custom`` it needs ``A_csv``.
# sstm_sc and restarted_rrma need mu_psi > 0, which barycenter locals (no L) lack
_AFFINE, _CONSENSUS = ("penalty", "custom"), ("penalty", "custom", "consensus_quadratic")
METHOD_KINDS = {"stm": ("quadratic", "custom"), "stm_ips": _AFFINE, "sstm": ("quadratic", "custom"),
                "spdstm": _AFFINE + DECENTRALIZED_KINDS, "sstm_sc": _CONSENSUS, "ac_sa": _AFFINE,
                "rrma": _AFFINE, "restarted_rrma": _CONSENSUS}
METHODS = tuple(METHOD_KINDS)
SWEEP_PARAMS = ("eps", "sigma", "m", "chi-topology", "N")


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config schema


_TOP_KEYS = {"method", "problem", "noise", "eps", "beta", "N", "seed", "constants"}
_NOISE_KEYS = {"delta", "sigma", "kind"}
_CONSTANT_KEYS = {"C", "C_hat", "step_factor", "L_tilde_factor", "lambda",
                  "inner_T", "m_iters", "R_y", "stop_gap", "stop_grad_norm",
                  "metric_every", "max_N"}
_PROBLEM_KEYS = {
    "quadratic": {"kind", "dim", "cond", "b_scale"},
    "penalty": {"kind", "dim", "cond", "m_rows", "b_scale"},
    "consensus_quadratic": {"kind", "n", "cond", "topology", "spread"},
    "barycenter": {"kind", "measures", "cost", "mu", "topology"},
    "custom": {"kind", "Q_csv", "b_csv", "A_csv"},
}
_TOPOLOGY_INLINE_KEYS = {"kind", "m", "p"}
# numeric keys of ``problem`` and ``constants``: (integer, lowest value,
# lowest value excluded); keys in _NULLABLE may be null for the default
_NUMBERS = {
    "dim": (True, 1, False), "m_rows": (True, 1, False), "n": (True, 1, False),
    "inner_T": (True, 0, False), "m_iters": (True, 0, False),
    "metric_every": (True, 0, False), "max_N": (True, 1, False),
    "cond": (False, 0, True), "mu": (False, 0, True), "C": (False, 0, True),
    "C_hat": (False, 0, True), "step_factor": (False, 0, True),
    "L_tilde_factor": (False, 0, True), "lambda": (False, 0, True), "R_y": (False, 0, True),
    "b_scale": (False, -math.inf, False), "spread": (False, -math.inf, False),
    "stop_gap": (False, -math.inf, False), "stop_grad_norm": (False, -math.inf, False),
}
_NULLABLE = {"inner_T", "R_y", "stop_gap", "stop_grad_norm"}
# file paths of ``problem``; a missing or null ``A_csv`` means no constraint
_PATHS = {"Q_csv", "b_csv", "A_csv", "measures", "cost"}


def _reject_unknown(obj: dict, allowed: set, where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _number(value, where, integer=False, low=-math.inf, strict=False):
    """``value`` as a finite int or float of at least ``low`` (above it when ``strict``).

    An integer field takes integral values only (``3`` or ``3.0``, never ``2.5``).
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        x = value if integer and isinstance(value, int) else float(value)
        if integer:
            if x != int(x):
                raise ValueError
            x = int(x)
    except (TypeError, ValueError, OverflowError):
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"{where} must be {kind}, got {value!r}") from None
    if not ((integer or math.isfinite(x)) and (x > low if strict else x >= low)):
        bound = f" and {'>' if strict else '>='} {low}" if low > -math.inf else ""
        raise ConfigError(f"{where} must be finite{bound}, got {value!r}")
    return x


def validate_config(cfg: dict) -> dict:
    """Schema-check a run config and fill defaults; raises ConfigError."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(cfg, _TOP_KEYS, "config")
    for key in ("noise", "constants"):
        if not isinstance(cfg.get(key, {}), (dict, type(None))):
            raise ConfigError(f"{key} must be a JSON object or null")
    out = {
        "method": cfg.get("method"),
        "problem": cfg.get("problem"),
        "noise": dict(cfg.get("noise") or {}),
        "eps": _number(cfg.get("eps", 1e-3), "eps", low=0, strict=True),
        "beta": _number(cfg.get("beta", 0.1), "beta"),
        "N": cfg.get("N", "auto"),
        "seed": _number(cfg.get("seed", 0), "seed", integer=True, low=0),
        "constants": dict(cfg.get("constants") or {}),
    }
    if out["method"] not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {out['method']!r}")
    problem = out["problem"]
    if not isinstance(problem, dict) or problem.get("kind") not in PROBLEM_KINDS:
        raise ConfigError(f"problem.kind must be one of {PROBLEM_KINDS}")
    kind, method = problem["kind"], out["method"]
    if kind not in METHOD_KINDS[method]:
        raise ConfigError(f"method {method} runs on problem kinds {METHOD_KINDS[method]}, "
                          f"not {kind!r}")
    if kind == "custom" and not problem.get("A_csv") and "penalty" in METHOD_KINDS[method]:
        raise ConfigError(f"method {method} needs a constraint matrix")
    _reject_unknown(problem, _PROBLEM_KEYS[kind], f"problem ({kind})")
    _reject_unknown(out["noise"], _NOISE_KEYS, "noise")
    _reject_unknown(out["constants"], _CONSTANT_KEYS, "constants")
    for where, fields in (("problem", problem), ("constants", out["constants"])):
        for key, value in fields.items():
            if key in _NUMBERS and not (value is None and key in _NULLABLE):
                _number(value, f"{where}.{key}", *_NUMBERS[key])
    for key in _PATHS & set(problem):
        # numpy would read a list as the lines of a file
        if not (isinstance(problem[key], str) or key == "A_csv" and problem[key] is None):
            raise ConfigError(f"problem.{key} must be a file path, got {problem[key]!r}")
    for key in ("delta", "sigma"):
        if key in out["noise"]:
            _number(out["noise"][key], f"noise.{key}", low=0)
    if out["noise"].get("kind", "gaussian") not in NOISE_KINDS:
        raise ConfigError(f"noise.kind must be one of {NOISE_KINDS}, "
                          f"got {out['noise']['kind']!r}")
    if out["N"] != "auto" and (type(out["N"]) is not int or out["N"] < 0):
        raise ConfigError("N must be a non-negative integer or \"auto\"")
    if not (0 < out["beta"] < 1):
        raise ConfigError(f"beta must be in (0, 1), got {out['beta']!r}")

    if kind in DECENTRALIZED_KINDS:
        if "topology" not in problem or problem["topology"] is None:
            raise ConfigError(f"problem kind {kind!r} requires a topology")
        topo = problem["topology"]
        if isinstance(topo, dict):
            _reject_unknown(topo, _TOPOLOGY_INLINE_KEYS, "problem.topology")
            if topo.get("kind") not in TOPOLOGY_KINDS:
                raise ConfigError(f"topology.kind must be one of {TOPOLOGY_KINDS}")
            _number(topo.get("m"), "problem.topology.m", integer=True, low=1)
            if "p" in topo:
                _number(topo["p"], "problem.topology.p", low=0)
        elif not isinstance(topo, str):
            raise ConfigError("topology must be a file path or an inline spec")
        if kind == "barycenter":
            missing = sorted({"measures", "cost", "mu"} - set(problem))
            if missing:
                raise ConfigError(f"problem kind 'barycenter' requires {missing}")
    return out


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def run_identity(cfg: dict) -> dict:
    """The metadata that names the run of a validated config, stamped on its every trace."""
    return {"config_hash": config_hash(cfg), "seed": cfg["seed"], "version": f"optdec-{__version__}"}


# ---------------------------------------------------------------------------
# problem construction


def _resolve_topology(spec, seed) -> Topology:
    if isinstance(spec, str):
        return Topology.from_json(Path(spec).read_text())
    kind, m = spec["kind"], int(spec["m"])
    if kind == "erdos_renyi":
        return Topology.erdos_renyi(m, float(spec.get("p", 0.5)),
                                    np.random.default_rng((seed, 7)))
    return getattr(Topology, kind)(m)


@contextmanager
def _bad_input_is_config_error(problem):
    """Report a problem that cannot be built (bad files, shapes or sizes) as a ConfigError."""
    try:
        yield
    except (ValueError, KeyError, OSError, MemoryError) as exc:
        raise ConfigError(f"invalid {problem['kind']} problem: {exc}") from exc


def _build_random(problem, seed):
    """Random quadratic, and for ``penalty`` a random constraint matrix (else None)."""
    qp = random_quadratic(int(problem.get("dim", 10)), float(problem.get("cond", 10.0)),
                          np.random.default_rng((seed, 0)),
                          b_scale=float(problem.get("b_scale", 1.0)))
    if problem["kind"] != "penalty":
        return qp, None
    dim = qp.Q.shape[0]
    m_rows = int(problem.get("m_rows", max(1, dim // 2)))
    return qp, np.random.default_rng((seed, 2)).standard_normal((m_rows, dim))


def _build_custom(problem):
    """Quadratic and optional constraint matrix from CSV files."""
    Q = np.atleast_2d(np.loadtxt(problem["Q_csv"], delimiter=","))
    b = np.atleast_1d(np.loadtxt(problem["b_csv"], delimiter=","))
    qp = QuadraticProblem(Q, b)
    A = None
    if problem.get("A_csv"):
        A = np.loadtxt(problem["A_csv"], delimiter=",", ndmin=2)
        if A.shape[1] != b.size:
            raise ValueError(f"A must have one column per coordinate ({b.size}), "
                             f"got shape {A.shape}")
    return qp, A


def _build_decentralized(problem, seed):
    """Lifted instance of a decentralized problem."""
    topo = _resolve_topology(problem["topology"], seed)
    if topo.m < 2:
        raise ValueError("a single node has no consensus constraint; need m >= 2")
    if problem["kind"] == "consensus_quadratic":
        return _build_consensus(problem, topo, seed)
    measures = load_measures_csv(problem["measures"])
    cost = load_cost_csv(problem["cost"])
    return barycenter_problem(measures, cost, float(problem["mu"]), topo)


def _build_consensus(problem, topo, seed):
    n = int(problem.get("n", 2))
    cond = float(problem.get("cond", 1.0))
    spread = float(problem.get("spread", 1.0))
    rng = np.random.default_rng((seed, 3))
    if cond == 1.0:
        # identity locals: node k draws only its b_k, and the nodes draw in order
        qps = QuadraticProblem.stack(np.broadcast_to(np.eye(n), (topo.m, n, n)),
                                     spread * rng.standard_normal((topo.m, n)))
    else:
        qps = random_quadratics(topo.m, n, cond, rng, b_scale=spread)
    return DecentralizedInstance([qp.oracle() for qp in qps], topo, n)


def _noise_spec(noise_cfg) -> NoiseSpec:
    """The spec of a validated ``noise`` object; missing fields take the defaults of ``NoiseSpec()``."""
    return NoiseSpec(**{key: float(value) if key != "kind" else value
                        for key, value in (noise_cfg or {}).items()})


# ---------------------------------------------------------------------------
# run execution


def execute_run(cfg: dict):
    """Run a validated config; returns (trace, summary), both stamped with :func:`run_identity`."""
    trace, extra = _solve(cfg)
    trace.metadata.update(run_identity(cfg))
    return trace, {**summary_from_trace(trace), **extra}


def _solve(cfg: dict):
    """Build and solve a validated config; returns (trace, summary fields the trace lacks)."""
    method = cfg["method"]
    problem = cfg["problem"]
    kind = problem["kind"]
    seed = cfg["seed"]
    eps, beta = cfg["eps"], cfg["beta"]
    consts = cfg["constants"]
    noise = _noise_spec(cfg["noise"])

    if kind in DECENTRALIZED_KINDS:
        with _bad_input_is_config_error(problem):
            instance = _build_decentralized(problem, seed)
        run_cfg = {k: v for k, v in consts.items() if k in DUAL_CONSTANTS or k == "R_y"}
        run_cfg.update(N=cfg["N"], eps=eps, beta=beta, seed=seed, noise=noise)
        x_nodes, trace, _ = run_distributed(method, instance, run_cfg)
        return trace, {
            "chi": instance.pair.chi,
            "m": instance.m,
            # sqrt(W) is the blockwise operator: no dense lift is formed
            "consensus_residual": float(np.linalg.norm(instance.pair.sqrtW @ x_nodes.reshape(-1))),
        }

    # single-machine problems
    with _bad_input_is_config_error(problem):
        qp, A = _build_custom(problem) if kind == "custom" else _build_random(problem, seed)
    x0 = np.random.default_rng((seed, 1)).standard_normal(qp.Q.shape[0])

    oracle = qp.oracle()
    max_N = int(consts.get("max_N", DUAL_CONSTANTS["max_N"]))
    extra = {}

    if method in ("stm", "sstm"):
        step_factor = float(consts.get("step_factor", 2.0))
        N, capped = capped_N(cfg["N"], lambda cap: gap_certificate_N(
            float(np.linalg.norm(x0 - qp.x_star)), oracle.L, eps, cap, step_factor), max_N)
        if method == "stm":
            x, trace = stm(oracle, x0, N, f_star=qp.f_star, x_star=qp.x_star,
                           step_factor=step_factor)
        else:
            x, trace = sstm(StochasticGradientOracle(oracle, noise), x0, N, eps, beta,
                            seed=seed, step_factor=step_factor, f_star=qp.f_star,
                            x_star=qp.x_star)
    else:
        y_star, _ = min_norm_dual_solution(qp.Q, qp.b, A)
        R_y = float(consts.get("R_y") or max(np.linalg.norm(y_star), 1e-12))
        if method == "stm_ips":
            pen = build_penalty(oracle, A, R_y, eps)
            x_F = np.linalg.solve(qp.Q + 2.0 * pen.coeff * pen.AtA, qp.b)
            N, capped = capped_N(cfg["N"], lambda cap: gap_certificate_N(
                float(np.linalg.norm(x0 - x_F)), oracle.L, eps, cap), max_N)
            x, trace = stm_ips(pen, x0, N, inner_T=consts.get("inner_T"),
                               F_star=pen.F_value(x_F), x_star=x_F)
            trace.metadata["R_y"] = format(R_y, ".17g")
        else:  # run_dual plans, caps and flags the dual methods itself
            dual = DualOracle(oracle, A, qp.conjugate_argmax, noise=noise)
            capped, extra = False, {"R_y": R_y}
            _, _, trace = run_dual(method, dual, cfg["N"], eps, beta, R_y, consts, seed=seed)
    if capped:
        trace.flag(CAP_FLAG.format(max_N))
    return trace, extra


# ---------------------------------------------------------------------------
# sweep


def apply_sweep_value(cfg: dict, param: str, value: str) -> dict:
    out = json.loads(json.dumps(cfg))  # deep copy
    where = f"sweep value of {param}"
    if param == "eps":
        out["eps"] = _number(value, where)
    elif param == "sigma":
        noise = {} if out.get("noise") is None else out["noise"]
        if not isinstance(noise, dict):
            raise ConfigError("noise must be a JSON object or null")
        out["noise"] = {**noise, "sigma": _number(value, where)}
    elif param == "N":
        out["N"] = _number(value, where, integer=True)
    elif param in ("m", "chi-topology"):
        problem = out.get("problem")
        topo = problem.get("topology") if isinstance(problem, dict) else None
        if not isinstance(topo, dict):
            raise ConfigError(f"{param} sweep needs an inline topology spec")
        if param == "m":
            topo["m"] = _number(value, where, integer=True)
        elif value not in TOPOLOGY_KINDS:
            raise ConfigError(f"unknown topology kind {value!r}")
        else:
            topo["kind"] = value
    else:
        raise ConfigError(f"sweep param must be one of {SWEEP_PARAMS}")
    return out


# the swept parameter and value, then summary keys
_SWEEP_COLUMNS = ("param", "value", "iterations", "final_f_gap", "final_dual_gap",
                  "final_grad_norm", "final_constraint_norm", "grad_calls",
                  "stoch_samples", "comm_rounds", "chi")


def run_sweep(param: str, values: list[str], configs: list[dict]):
    """Run the validated ``configs``, one per swept value; one row of final metrics each."""
    rows = []
    for value, cfg in zip(values, configs):
        _, summary = execute_run(cfg)
        rows.append({"param": param, "value": value,
                     **{key: summary.get(key) for key in _SWEEP_COLUMNS[2:]}})
    return rows


def sweep_csv_text(rows) -> str:
    def fmt(v):
        if v is None:
            return ""
        if isinstance(v, float):
            return format(v, ".17g")
        return str(v)

    lines = [",".join(_SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(fmt(row[c]) for c in _SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry points


def _out_dir(arg) -> Path:
    out = Path(arg or os.environ.get("OPTDEC_OUT") or ".")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a path through a file, or no permission
        raise ConfigError(f"cannot use output directory: {exc}") from exc
    return out


def _load_config_file(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # a missing file, bad JSON or bytes that are not UTF-8
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


# errors reported with an exit code, not a traceback (divergence, singular systems, overflow)
_RUN_ERRORS = (ConfigError, RuntimeError, np.linalg.LinAlgError, ArithmeticError)


def _report(exc) -> int:
    """Print a run error on stderr; returns its exit code (2 config, 3 runtime)."""
    if isinstance(exc, ConfigError):
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(f"runtime error: {exc}", file=sys.stderr)
    return 3


def cmd_run(args) -> int:
    try:
        raw = _load_config_file(args.config)
        if args.seed is not None:
            raw["seed"] = args.seed
        cfg = validate_config(raw)
        out = _out_dir(args.out)
    except ConfigError as exc:
        return _report(exc)
    h = config_hash(cfg)
    try:
        trace, summary = execute_run(cfg)
    except _RUN_ERRORS as exc:
        if isinstance(exc, DivergenceError) and exc.trace is not None:
            exc.trace.metadata.update(run_identity(cfg))
            exc.trace.to_csv(out / f"{h}.trace.csv")
        return _report(exc)
    trace.to_csv(out / f"{h}.trace.csv")
    (out / f"{h}.summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=1, default=float) + "\n")
    print(out / f"{h}.summary.json")
    return 0


def cmd_gen_topology(args) -> int:
    if args.kind not in TOPOLOGY_KINDS:
        print(f"config error: unknown kind {args.kind!r}", file=sys.stderr)
        return 2
    if args.m < 2:
        print("config error: need m >= 2", file=sys.stderr)
        return 2
    try:
        if args.kind == "erdos_renyi":
            topo = Topology.erdos_renyi(args.m, args.p, np.random.default_rng(args.seed))
        else:
            topo = getattr(Topology, args.kind)(args.m)
        out = _out_dir(args.out)
    except RuntimeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # a ConfigError too
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    path = out / f"topology_{args.kind}_{args.m}.json"
    path.write_text(topo.to_json() + "\n")
    print(path)
    return 0


def cmd_sweep(args) -> int:
    try:
        raw = _load_config_file(args.config)
        if args.param not in SWEEP_PARAMS:
            raise ConfigError(f"sweep param must be one of {SWEEP_PARAMS}")
        values = [v for v in args.values.split(",") if v]
        if not values:
            raise ConfigError("no sweep values given")
        # every value is checked before the first run
        configs = [validate_config(apply_sweep_value(raw, args.param, v)) for v in values]
        out = _out_dir(args.out)
    except ConfigError as exc:
        return _report(exc)
    try:
        rows = run_sweep(args.param, values, configs)
    except _RUN_ERRORS as exc:
        return _report(exc)
    h = config_hash({"base": configs[0], "param": args.param, "values": values})
    path = out / f"{h}.sweep.csv"
    path.write_text(sweep_csv_text(rows))
    print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="optdec",
                                     description="accelerated (de)centralized convex solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured run")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.set_defaults(func=cmd_run)

    p_gen = sub.add_parser("gen-topology", help="write a topology JSON file")
    p_gen.add_argument("--kind", required=True)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--p", type=float, default=0.5)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=cmd_gen_topology)

    p_sweep = sub.add_parser("sweep", help="run a config across one parameter")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--values", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    # argparse takes a token that starts with "-" (a value list such as
    # "-1,0.5") for an option, so "--values V" goes in as "--values=V"
    argv, tokens = [], iter(sys.argv[1:] if argv is None else argv)
    for token in tokens:
        argv.append(f"--values={next(tokens, '')}" if token == "--values" else token)
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
