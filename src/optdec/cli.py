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
directory.  Exit codes: 0 ok, 2 config error, 3 runtime error/divergence; the
commands raise, and :func:`main` alone turns an error into its code.

:data:`PROBLEMS` holds each problem kind's fields, defaults and domains and
its build; :func:`problem_fields` is the one check of a ``problem`` object.
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
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .dual import DivergenceError
from .dual import spdstm  # noqa: F401  (perfbench checks its wrapper is bound here)
from .methods import (DECENTRALIZED_KINDS, METHODS, RUN_SETTINGS, Constant, Machine,
                      method_constants, method_noise, run_method, run_settings)
from .network import LEAST_NODES, TOPOLOGY_KINDS, DecentralizedInstance, Network, Topology
from .oracles import COUNTERS, NoiseSpec, constraint_gram, number
from .problems import (QuadraticProblem, barycenter_problem, load_cost_csv,
                       load_measures_csv, random_quadratic, random_quadratics)
from .trace import METRICS, summary_from_trace

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


def _reject_unknown(obj: dict, allowed: set, where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


@_config_errors()
def validate_config(cfg: dict) -> dict:
    """Schema-check a run config and fill in its run settings' defaults; raises ConfigError.
    Each part is checked by its owner: run_settings, method_constants, NoiseSpec, method_noise and
    :func:`problem_fields`.  ``problem`` is kept as given: its defaults, filled in by
    :func:`build_problem`, do not enter the config hash."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(cfg, _TOP_KEYS, "config")
    for key in ("noise", "constants"):
        if not isinstance(cfg.get(key, {}), (dict, type(None))):
            raise ConfigError(f"{key} must be a JSON object or null")
    out = {"method": cfg.get("method"), "problem": cfg.get("problem"),
           "noise": dict(cfg.get("noise") or {}), "constants": dict(cfg.get("constants") or {}),
           **{key: cfg.get(key, value) for key, value in RUN_SETTINGS.items()}}
    _, out["eps"], out["beta"], out["seed"] = run_settings(
        **{key: out[key] for key in RUN_SETTINGS})
    method_constants(out["method"], out["constants"])
    _reject_unknown(out["noise"], _NOISE_KEYS, "noise")
    noise = NoiseSpec(**out["noise"])
    problem = problem_fields(out["problem"])
    kind, method = problem["kind"], out["method"]
    kinds = METHODS[method].kinds
    if kind not in kinds:
        raise ConfigError(f"method {method} runs on problem kinds {kinds}, not {kind!r}")
    if kind == "custom" and problem["A_csv"] is None and "penalty" in kinds:
        raise ConfigError(f"method {method} needs a constraint matrix")
    method_noise(method, noise)
    return out


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def run_identity(cfg: dict) -> dict:
    """The metadata that names the run of a validated config, stamped on its every trace."""
    return {"config_hash": config_hash(cfg), "seed": cfg["seed"], "version": f"optdec-{__version__}"}


# ---------------------------------------------------------------------------
# problem table


class Problem(NamedTuple):
    fields: dict  # key -> a Constant (default ...: must be given), FILE, FILE_OR_NULL, TOPOLOGY
    build: Callable  # (fields, seed) -> (qp, A or None), or the instance of a network kind


# the other fields: a file path (null in FILE_OR_NULL: no file) and the topology, a gen-topology
# file's path or an inline topology of its kind's fields (m: at least its kind's LEAST_NODES)
FILE, FILE_OR_NULL, TOPOLOGY = "file path", "file path or null", "file path or inline topology"
TOPOLOGIES = {kind: {"m": Constant(..., True, LEAST_NODES[kind], False),
                     "p": Constant(0.5, False, 0, True, 1.0)} for kind in TOPOLOGY_KINDS}


def _fields(obj, records: dict, where: str) -> dict:
    """``obj``, of a kind in ``records``, with each field of its record checked, or filled in
    with its default where not given; ValueError names the field.  Reads no file."""
    if not isinstance(obj, dict) or obj.get("kind") not in tuple(records):
        raise ConfigError(f"{where}.kind must be one of {tuple(records)}")
    kind, out = obj["kind"], {"kind": obj["kind"]}
    _reject_unknown(obj, {"kind", *records[kind]}, f"{where} ({kind})")
    for key, field in records[kind].items():
        # a Constant's default, else none for FILE_OR_NULL and ``...`` (must be given) for the rest
        default = getattr(field, "default", None if field is FILE_OR_NULL else ...)
        name, value = f"{where}.{key}", obj.get(key, default)
        if value is ...:
            raise ConfigError(f"{where} kind {kind!r} requires {name}")
        if isinstance(field, Constant):
            out[key] = field.check(value, name)
        elif field is TOPOLOGY and isinstance(value, dict):
            out[key] = _fields(value, TOPOLOGIES, "topology")
        elif value and isinstance(value, str) or field is FILE_OR_NULL and value is None:
            out[key] = value  # a non-empty path, not a list (numpy reads one as a file's lines)
        else:
            raise ConfigError(f"{name} must be a {field}, got {value!r}")
    return out


def problem_fields(problem) -> dict:
    """``problem`` checked against its record in :data:`PROBLEMS`, defaults filled in."""
    return _fields(problem, {kind: record.fields for kind, record in PROBLEMS.items()}, "problem")


def build_problem(problem: dict, seed: int):
    """A validated ``problem`` built: ``(qp, A or None)``, or a network kind's instance."""
    fields = problem_fields(problem)
    return PROBLEMS[fields["kind"]].build(fields, seed)


def _topology(spec, rng) -> Topology:
    """The topology of ``run`` and ``gen-topology``: in the file at the path ``spec``, or of the
    checked inline ``spec`` (``rng`` draws an ``erdos_renyi`` one)."""
    if isinstance(spec, str):
        try:
            return Topology.from_json(Path(spec).read_text())
        except RecursionError as exc:  # JSON nested too deeply to decode
            raise ValueError(f"cannot read problem.topology: {exc}") from None
    args = (spec["m"], spec["p"], rng) if spec["kind"] == "erdos_renyi" else (spec["m"],)
    return getattr(Topology, spec["kind"])(*args)


def _random(f, seed):
    """Random quadratic, and for ``penalty`` a random constraint matrix (else None)."""
    qp = random_quadratic(f["dim"], f["cond"], np.random.default_rng((seed, 0)),
                          b_scale=f["b_scale"])
    if f["kind"] != "penalty":
        return qp, None
    m_rows = f["m_rows"] or max(1, f["dim"] // 2)
    return qp, np.random.default_rng((seed, 2)).standard_normal((m_rows, f["dim"]))


def _csv(f, key) -> list:
    """The lines of file ``f[key]``, opened as ``np.loadtxt`` opens a path; a file that holds no
    data, of which ``loadtxt`` would only warn, is a ValueError naming the field."""
    with np.lib.npyio.DataSource().open(f[key], "rt") as fh:
        lines = fh.readlines()
    if not any(line.partition("#")[0].strip() for line in lines):
        raise ValueError(f"problem.{key} holds no data")
    return lines


def _custom(f, seed):
    """Quadratic and optional constraint matrix from CSV files."""
    Q = np.atleast_2d(np.loadtxt(_csv(f, "Q_csv"), delimiter=","))
    b = np.atleast_1d(np.loadtxt(_csv(f, "b_csv"), delimiter=","))
    qp = QuadraticProblem(Q, b)
    A = None
    if f["A_csv"] is not None:
        A = np.loadtxt(_csv(f, "A_csv"), delimiter=",", ndmin=2)
        if A.shape[1] != b.size:
            raise ValueError(f"A must have one column per coordinate ({b.size}), "
                             f"got shape {A.shape}")
        A, _ = constraint_gram(A, b.size)  # finite and not all zero, before any solver reads it
    return qp, A


def _consensus(f, seed):
    topo = _topology(f["topology"], np.random.default_rng((seed, 7)))
    n, rng = f["n"], np.random.default_rng((seed, 3))
    if f["cond"] == 1.0:
        # identity locals: node k draws only its b_k, and the nodes draw in order
        qps = QuadraticProblem.stack(np.broadcast_to(np.eye(n), (topo.m, n, n)),
                                     f["spread"] * rng.standard_normal((topo.m, n)))
    else:
        qps = random_quadratics(topo.m, n, f["cond"], rng, b_scale=f["spread"])
    return DecentralizedInstance([qp.oracle() for qp in qps], topo, n)


def _barycenter(f, seed):
    topo = _topology(f["topology"], np.random.default_rng((seed, 7)))
    measures, cost = load_measures_csv(_csv(f, "measures")), load_cost_csv(_csv(f, "cost"))
    return barycenter_problem(measures, cost, f["mu"], topo)


_SIZE, _COND, _ANY = (True, 1, False), (False, 1, False), (False, -math.inf, False)
_QUADRATIC = {"dim": Constant(10, *_SIZE), "cond": Constant(10.0, *_COND)}
PROBLEMS = {
    "quadratic": Problem({**_QUADRATIC, "b_scale": Constant(1.0, *_ANY)}, _random),
    "consensus_quadratic": Problem({"n": Constant(2, *_SIZE), "cond": Constant(1.0, *_COND),
                                    "topology": TOPOLOGY, "spread": Constant(1.0, *_ANY)},
                                   _consensus),
    "penalty": Problem({**_QUADRATIC, "m_rows": Constant(None, *_SIZE),  # null: max(1, dim // 2)
                        "b_scale": Constant(1.0, *_ANY)}, _random),
    "barycenter": Problem({"measures": FILE, "cost": FILE, "mu": Constant(..., False, 0, True),
                           "topology": TOPOLOGY}, _barycenter),
    "custom": Problem({"Q_csv": FILE, "b_csv": FILE, "A_csv": FILE_OR_NULL}, _custom),
}
PROBLEM_KINDS = tuple(PROBLEMS)


# ---------------------------------------------------------------------------
# run execution


def execute_run(cfg: dict):
    """Run a validated config; returns (trace, summary), both stamped with :func:`run_identity`."""
    problem, seed, noise = cfg["problem"], cfg["seed"], NoiseSpec(**cfg["noise"])
    with _config_errors(f"invalid {problem['kind']} problem: ", _BAD_INPUT):
        built = build_problem(problem, seed)
    if problem["kind"] in DECENTRALIZED_KINDS:  # built is the lifted instance
        run = Network(built, noise)
    else:  # built is (qp, A), and the start x0 draws from (seed, 1)
        x0 = np.random.default_rng((seed, 1)).standard_normal(built[0].Q.shape[0])
        run = Machine(*built, x0, noise)
    trace, _, _ = run_method(cfg["method"], run, cfg["N"], cfg["eps"], cfg["beta"],
                             cfg["constants"], seed)
    trace.metadata.update(run_identity(cfg))
    return trace, {**summary_from_trace(trace), **run.summary}


# ---------------------------------------------------------------------------
# sweep


@_config_errors()
def apply_sweep_value(cfg: dict, param: str, value: str) -> dict:
    out = dict(cfg)  # each object on the way to the swept entry is new: ``cfg`` is kept as is
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
        # validate_config checks m against its topology kind's record, and a kind against the table
        swept = number(value, where, integer=True, text=True) if param == "m" else value
        out["problem"] = {**problem, "topology": {**topo, "m" if param == "m" else "kind": swept}}
    else:
        raise ConfigError(f"sweep param must be one of {SWEEP_PARAMS}")
    return out


# the swept parameter and value, then summary keys: every final metric and every counter
_SWEEP_COLUMNS = ("param", "value", "iterations", *(f"final_{name}" for name in METRICS),
                  *COUNTERS, "chi")


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
        return "" if v is None else format(v, ".17g") if isinstance(v, float) else str(v)

    lines = [_SWEEP_COLUMNS, *([fmt(row[c]) for c in _SWEEP_COLUMNS] for row in rows)]
    return "".join(",".join(line) + "\n" for line in lines)


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
    except (OSError, ValueError, RecursionError) as exc:  # no file, not UTF-8, bad or deep JSON
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


# errors reported with an exit code, not a traceback (divergence, singular systems, overflow)
_RUN_ERRORS = (ConfigError, RuntimeError, np.linalg.LinAlgError, ArithmeticError)


def cmd_run(args) -> Path:
    """One configured run; returns the path of its summary.  A divergence writes its partial
    trace, then raises."""
    raw = _load_config_file(args.config)
    if args.seed is not None:
        raw["seed"] = args.seed
    cfg = validate_config(raw)
    out, h = _out_dir(args.out), config_hash(cfg)
    trace_csv, summary_json = out / f"{h}.trace.csv", out / f"{h}.summary.json"
    try:
        trace, summary = execute_run(cfg)
    except DivergenceError as exc:
        if exc.trace is not None:
            exc.trace.metadata.update(run_identity(cfg))
            exc.trace.to_csv(trace_csv)
        raise
    trace.to_csv(trace_csv)
    summary_json.write_text(json.dumps(summary, sort_keys=True, indent=1, default=float) + "\n")
    return summary_json


def cmd_gen_topology(args) -> Path:
    with _config_errors():
        spec = _fields({"kind": args.kind, "m": args.m, "p": args.p}, TOPOLOGIES, "topology")
        topo = _topology(spec, np.random.default_rng(args.seed))
    path = _out_dir(args.out) / f"topology_{args.kind}_{args.m}.json"
    path.write_text(topo.to_json() + "\n")
    return path


def cmd_sweep(args) -> Path:
    raw = _load_config_file(args.config)
    values = [v for v in args.values.split(",") if v]
    if not values:
        raise ConfigError("no sweep values given")
    # every value is checked before the first run
    configs = [validate_config(apply_sweep_value(raw, args.param, v)) for v in values]
    out = _out_dir(args.out)
    rows = run_sweep(args.param, values, configs)
    h = config_hash({"base": configs[0], "param": args.param, "values": values})
    path = out / f"{h}.sweep.csv"
    path.write_text(sweep_csv_text(rows))
    return path


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
    p_gen.add_argument("--p", type=float, default=TOPOLOGIES["erdos_renyi"]["p"].default)
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
    """The ``optdec`` command, and its one error boundary: a command returns the path it wrote,
    printed here, or raises; a run error is one stderr line and exit 2 (ConfigError) or 3."""
    # argparse takes a token that starts with "-" (a value list such as
    # "-1,0.5") for an option, so "--values V" goes in as "--values=V"
    argv, tokens = [], iter(sys.argv[1:] if argv is None else argv)
    for token in tokens:
        argv.append(f"--values={next(tokens, '')}" if token == "--values" else token)
    args = build_parser().parse_args(argv)
    try:
        print(args.func(args))
    except _RUN_ERRORS as exc:
        config = isinstance(exc, ConfigError)
        print(f"{'config' if config else 'runtime'} error: {exc}", file=sys.stderr)
        return 2 if config else 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
