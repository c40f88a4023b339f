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
from .dual import DivergenceError
from .dual import spdstm  # noqa: F401  (perfbench checks its wrapper is bound here)
from .methods import (DECENTRALIZED_KINDS, METHODS, Machine, method_constants, run_method,
                      run_settings)
from .network import DecentralizedInstance, Topology, run_distributed
from .oracles import NoiseSpec, number
from .problems import (QuadraticProblem, barycenter_problem, load_cost_csv,
                       load_measures_csv, random_quadratic, random_quadratics)
from .trace import summary_from_trace

PROBLEM_KINDS = ("quadratic", "consensus_quadratic", "penalty", "barycenter", "custom")
TOPOLOGY_KINDS = ("ring", "path", "star", "complete", "erdos_renyi")
SWEEP_PARAMS = ("eps", "sigma", "m", "chi-topology", "N")


class ConfigError(ValueError):
    pass


_BAD_INPUT = (ValueError, KeyError, OSError, MemoryError)  # a problem's bad files, shapes, sizes


@contextmanager
def _config_errors(prefix="", errors=ValueError):
    """Report ``errors`` (the library refuses an input with ValueError) as a ConfigError of
    ``prefix`` and their message; a LinAlgError, a ValueError too, is a runtime error."""
    try:
        yield
    except np.linalg.LinAlgError:
        raise
    except errors as exc:
        raise ConfigError(f"{prefix}{exc}") from None


# ---------------------------------------------------------------------------
# config schema


_TOP_KEYS = {"method", "problem", "noise", "eps", "beta", "N", "seed", "constants"}
_NOISE_KEYS = set(NoiseSpec.__dataclass_fields__)
_PROBLEM_KEYS = {
    "quadratic": {"kind", "dim", "cond", "b_scale"},
    "penalty": {"kind", "dim", "cond", "m_rows", "b_scale"},
    "consensus_quadratic": {"kind", "n", "cond", "topology", "spread"},
    "barycenter": {"kind", "measures", "cost", "mu", "topology"},
    "custom": {"kind", "Q_csv", "b_csv", "A_csv"},
}
_TOPOLOGY_INLINE_KEYS = {"kind", "m", "p"}
# numeric keys of ``problem``: (integer, lowest value, lowest value excluded);
# the constants' domains are in ``optdec.methods.CONSTANTS``
_NUMBERS = {
    "dim": (True, 1, False), "m_rows": (True, 1, False), "n": (True, 1, False),
    "cond": (False, 0, True), "mu": (False, 0, True),
    "b_scale": (False, -math.inf, False), "spread": (False, -math.inf, False),
}
# file paths of ``problem``; a missing or null ``A_csv`` means no constraint
_PATHS = {"Q_csv", "b_csv", "A_csv", "measures", "cost"}


def _reject_unknown(obj: dict, allowed: set, where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


@_config_errors()
def validate_config(cfg: dict) -> dict:
    """Schema-check a run config and fill defaults; raises ConfigError.  The run settings,
    constants and noise are checked by their owners: run_settings, method_constants, NoiseSpec."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(cfg, _TOP_KEYS, "config")
    for key in ("noise", "constants"):
        if not isinstance(cfg.get(key, {}), (dict, type(None))):
            raise ConfigError(f"{key} must be a JSON object or null")
    out = {"method": cfg.get("method"), "problem": cfg.get("problem"),
           "noise": dict(cfg.get("noise") or {}), "N": cfg.get("N", "auto"),
           "constants": dict(cfg.get("constants") or {})}
    _, out["eps"], out["beta"], out["seed"] = run_settings(
        out["N"], cfg.get("eps", 1e-3), cfg.get("beta", 0.1), cfg.get("seed", 0))
    method_constants(out["method"], out["constants"])
    _reject_unknown(out["noise"], _NOISE_KEYS, "noise")
    NoiseSpec(**out["noise"])
    problem = out["problem"]
    if not isinstance(problem, dict) or problem.get("kind") not in PROBLEM_KINDS:
        raise ConfigError(f"problem.kind must be one of {PROBLEM_KINDS}")
    kind, method = problem["kind"], out["method"]
    kinds = METHODS[method].kinds
    if kind not in kinds:
        raise ConfigError(f"method {method} runs on problem kinds {kinds}, not {kind!r}")
    if kind == "custom" and not problem.get("A_csv") and "penalty" in kinds:
        raise ConfigError(f"method {method} needs a constraint matrix")
    _reject_unknown(problem, _PROBLEM_KEYS[kind], f"problem ({kind})")
    for key, value in problem.items():
        if key in _NUMBERS:
            number(value, f"problem.{key}", *_NUMBERS[key])
    for key in _PATHS & set(problem):
        # numpy would read a list as the lines of a file
        if not (isinstance(problem[key], str) or key == "A_csv" and problem[key] is None):
            raise ConfigError(f"problem.{key} must be a file path, got {problem[key]!r}")

    if kind in DECENTRALIZED_KINDS:
        if "topology" not in problem or problem["topology"] is None:
            raise ConfigError(f"problem kind {kind!r} requires a topology")
        topo = problem["topology"]
        if isinstance(topo, dict):  # its fields are checked where it is built (_topology)
            _reject_unknown(topo, _TOPOLOGY_INLINE_KEYS, "problem.topology")
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


def _topology(spec, rng) -> Topology:
    """The topology of ``run`` and ``gen-topology``, on at least two nodes: in the file at
    the path ``spec``, or of the inline ``spec`` (``rng`` draws an ``erdos_renyi`` one)."""
    if isinstance(spec, str):
        topo = Topology.from_json(Path(spec).read_text())
    elif (kind := spec.get("kind")) not in TOPOLOGY_KINDS:
        raise ConfigError(f"topology.kind must be one of {TOPOLOGY_KINDS}")
    else:
        m = number(spec.get("m"), "topology.m", integer=True, low=1)
        p = number(spec.get("p", 0.5), "topology.p", low=0)
        args = (m, p, rng) if kind == "erdos_renyi" else (m,)
        topo = getattr(Topology, kind)(*args)
    if topo.m < 2:
        raise ConfigError("a single node has no consensus constraint; need m >= 2")
    return topo


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
    topo = _topology(problem["topology"], np.random.default_rng((seed, 7)))
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
    return NoiseSpec(**(noise_cfg or {}))


# ---------------------------------------------------------------------------
# run execution


def execute_run(cfg: dict):
    """Run a validated config; returns (trace, summary), both stamped with :func:`run_identity`."""
    problem, seed, consts = cfg["problem"], cfg["seed"], cfg["constants"]
    noise = _noise_spec(cfg["noise"])
    if problem["kind"] in DECENTRALIZED_KINDS:
        with _config_errors(f"invalid {problem['kind']} problem: ", _BAD_INPUT):
            instance = _build_decentralized(problem, seed)
        x_nodes, trace, _ = run_distributed(cfg["method"], instance, {
            **consts, "N": cfg["N"], "eps": cfg["eps"], "beta": cfg["beta"], "seed": seed,
            "noise": noise})
        # sqrt(W) is the blockwise operator: no dense lift is formed
        residual = float(np.linalg.norm(instance.pair.sqrtW @ x_nodes.reshape(-1)))
        extra = {"chi": instance.pair.chi, "m": instance.m, "consensus_residual": residual}
    else:
        with _config_errors(f"invalid {problem['kind']} problem: ", _BAD_INPUT):
            qp, A = _build_custom(problem) if problem["kind"] == "custom" else _build_random(
                problem, seed)
        x0 = np.random.default_rng((seed, 1)).standard_normal(qp.Q.shape[0])
        machine = Machine(qp, A, x0, noise)
        trace, _, _ = run_method(cfg["method"], machine, cfg["N"], cfg["eps"], cfg["beta"],
                                 consts, seed=seed)
        extra = machine.summary
    trace.metadata.update(run_identity(cfg))
    return trace, {**summary_from_trace(trace), **extra}


# ---------------------------------------------------------------------------
# sweep


@_config_errors()
def apply_sweep_value(cfg: dict, param: str, value: str) -> dict:
    out = json.loads(json.dumps(cfg))  # deep copy
    where = f"sweep value of {param}"
    if param == "eps":
        out["eps"] = number(value, where, text=True)
    elif param == "sigma":
        noise = {} if out.get("noise") is None else out["noise"]
        if not isinstance(noise, dict):
            raise ConfigError("noise must be a JSON object or null")
        out["noise"] = {**noise, "sigma": number(value, where, text=True)}
    elif param == "N":
        out["N"] = number(value, where, integer=True, text=True)
    elif param in ("m", "chi-topology"):
        problem = out.get("problem")
        topo = problem.get("topology") if isinstance(problem, dict) else None
        if not isinstance(topo, dict):
            raise ConfigError(f"{param} sweep needs an inline topology spec")
        if param == "m":
            topo["m"] = number(value, where, integer=True, low=1, text=True)
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
    try:
        with _config_errors():
            topo = _topology({"kind": args.kind, "m": args.m, "p": args.p},
                             np.random.default_rng(args.seed))
        out = _out_dir(args.out)
    except _RUN_ERRORS as exc:
        return _report(exc)
    path = out / f"topology_{args.kind}_{args.m}.json"
    path.write_text(topo.to_json() + "\n")
    print(path)
    return 0


def cmd_sweep(args) -> int:
    try:
        raw = _load_config_file(args.config)
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
