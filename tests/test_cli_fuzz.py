"""Derandomized fuzz tests of ``optdec run`` and ``optdec sweep``: every call
ends in exit 0, 2 or 3, without a traceback.

Configs are drawn over every method and problem kind from small sets of
valid values, then up to two of their fields are corrupted: a value is
replaced by one of the wrong types, negatives, zeros, ``"nan"`` or the
nested list (which numpy reads as the lines of a file where a path is due)
of ``BAD_VALUES``, a key is deleted, an unknown key is added, or a constant
from another method's record is moved in.  The constants are drawn from the
method's record, and a config that sets one outside it must exit 2.  No
input may imply much work, since refusing that is a run budget's job and
not this test's: ``dim`` is at most 8, ``n`` at most 4, a topology has at
most 6 nodes, ``N`` is at most 6, ``N: "auto"`` comes with ``max_N`` at
most 20 where the method reads it, ``eps`` stays in the config, and
``restarted_rrma``, whose noisy work follows its draws, runs without noise.

The library path is fuzzed too: ``run_distributed`` on a 4-node ring, with
run settings and constants drawn from the same valid sets and
``BAD_VALUES``, must return, raise ValueError with the message ``optdec
run`` prints exactly when ``validate_config`` refuses the same config, or
raise one of the run errors ``optdec run`` reports with exit 3.

A sweep takes such a config, a ``--param`` (mostly a sweepable one) and
one to three ``--values``, mostly valid for the parameter, else drawn from
the corrupted entries of ``BAD_SWEEP_VALUES`` or empty; a sweep of the
network parameters ``m`` and ``chi-topology`` draws a network config.  Its
``--out`` is now and then a path through a file, which cannot be made.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from optdec.cli import (_RUN_ERRORS, DECENTRALIZED_KINDS, METHODS, PROBLEM_KINDS, SWEEP_PARAMS,
                        TOPOLOGY_KINDS, ConfigError, build_problem, main, validate_config)
from optdec.network import run_distributed

BAD_VALUES = ("x", [], {}, True, None, -1, 0, "nan", [[1.0]])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """CSV inputs of the ``barycenter`` (three nodes) and ``custom`` kinds."""
    root = tmp_path_factory.mktemp("fuzz_inputs")
    arrays = {"measures": [[0.3, 0.7], [0.6, 0.4], [0.5, 0.5]], "cost": [[0.0, 1.0], [1.0, 0.0]],
              "Q": np.diag([1.0, 2.0, 4.0]), "b": [1.0, -1.0, 0.5], "A": [[1.0, 1.0, 1.0]]}
    for name, array in arrays.items():
        np.savetxt(root / f"{name}.csv", np.asarray(array), delimiter=",")
    return {name: str(root / f"{name}.csv") for name in arrays}


def _topology():
    return st.fixed_dictionaries({"kind": st.sampled_from(TOPOLOGY_KINDS), "m": st.integers(2, 6)},
                                 optional={"p": st.sampled_from([0.5, 1.0])})


def _problem(kind, files):
    cond = st.sampled_from([1.0, 5.0])
    fields = {
        "quadratic": ({"dim": st.integers(1, 8), "cond": cond}, {"b_scale": st.just(0.5)}),
        "penalty": ({"dim": st.integers(1, 8), "cond": cond}, {"m_rows": st.integers(1, 4)}),
        "consensus_quadratic": ({"n": st.integers(1, 4), "cond": cond, "topology": _topology()},
                                {"spread": st.just(0.5)}),
        "barycenter": ({"measures": st.just(files["measures"]), "cost": st.just(files["cost"]),
                        "mu": st.sampled_from([0.2, 1.0]), "topology": _topology()}, {}),
        "custom": ({"Q_csv": st.just(files["Q"]), "b_csv": st.just(files["b"]),
                    "A_csv": st.just(files["A"])}, {}),
    }[kind]
    return st.fixed_dictionaries({"kind": st.just(kind), **fields[0]}, optional=fields[1])


_CONSTANTS = {
    "C": st.just(1.0), "C_hat": st.just(1.0), "step_factor": st.just(2.0),
    "L_tilde_factor": st.sampled_from([1.0, 2.0]), "lambda": st.just(0.05),
    "inner_T": st.sampled_from([None, 3]), "m_iters": st.just(5),
    "R_y": st.sampled_from([None, 1.0]), "stop_gap": st.sampled_from([None, -0.3]),
    "stop_grad_norm": st.sampled_from([None, 0.1]), "metric_every": st.integers(0, 2),
    "max_N": st.integers(1, 20)}


def _constants(method):
    return st.fixed_dictionaries({}, optional={key: value for key, value in _CONSTANTS.items()
                                               if key in METHODS[method].constants})


def _misplaced(cfg):
    """Whether ``cfg`` sets a constant that its method does not read."""
    method, constants = cfg.get("method"), cfg.get("constants")
    return (isinstance(method, str) and method in METHODS and isinstance(constants, dict)
            and not set(constants) <= METHODS[method].constants)


def _corrupt(draw, cfg):
    """Corrupt one field of one object of ``cfg``, in place."""
    objects = [cfg] + [v for v in cfg.values() if isinstance(v, dict)]
    if isinstance(cfg.get("problem"), dict):
        objects += [v for v in cfg["problem"].values() if isinstance(v, dict)]
    target = draw(st.sampled_from(objects))
    action = draw(st.sampled_from(["replace", "delete", "add", "misplace"]))
    if action == "misplace":
        # a valid value of a constant from another method's record
        method = cfg.get("method")
        reads = (METHODS[method].constants if isinstance(method, str) and method in METHODS
                 else frozenset())
        key = draw(st.sampled_from(sorted(set(_CONSTANTS) - reads)))
        if not isinstance(cfg.get("constants"), dict):
            cfg["constants"] = {}
        cfg["constants"][key] = draw(_CONSTANTS[key])
    elif action == "add" or not target:
        target[draw(st.sampled_from(["extra", "Sigma"]))] = 1
    elif action == "delete":
        del target[draw(st.sampled_from(sorted(target)))]
    else:
        target[draw(st.sampled_from(sorted(target)))] = draw(st.sampled_from(BAD_VALUES))


@st.composite
def configs(draw, files, decentralized=False):
    """A run config; with ``decentralized`` one on a network, with an inline topology."""
    if decentralized:
        method = draw(st.sampled_from([m for m in METHODS
                                       if set(DECENTRALIZED_KINDS) & set(METHODS[m].kinds)]))
        kind = draw(st.sampled_from([k for k in DECENTRALIZED_KINDS if k in METHODS[method].kinds]))
    else:
        method = draw(st.sampled_from(tuple(METHODS)))
        # mostly a kind the method runs on, so that most runs get past validation
        kind = draw(st.sampled_from(METHODS[method].kinds * 3 + PROBLEM_KINDS))
    cfg = {"method": method, "problem": draw(_problem(kind, files)),
           "eps": draw(st.sampled_from([0.1, 0.5])), "N": draw(st.sampled_from([*range(7), "auto"])),
           "seed": draw(st.integers(0, 3))}
    if method != "restarted_rrma" and draw(st.sampled_from([True, True, False])):
        cfg["noise"] = draw(st.fixed_dictionaries({"sigma": st.sampled_from([0.0, 0.1])}, optional={
            "delta": st.sampled_from([0.0, 0.01]), "kind": st.sampled_from(["gaussian", "bounded"])}))
    for key, value in (("constants", _constants(method)), ("beta", st.sampled_from([0.1, 0.5]))):
        if draw(st.booleans()):
            cfg[key] = draw(value)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        _corrupt(draw, cfg)
    consts = cfg.get("constants")
    max_N = consts.get("max_N") if isinstance(consts, dict) else None
    # an auto N is capped by max_N when the method reads it
    assume("eps" in cfg and (cfg.get("N", "auto") != "auto" or type(max_N) is int
                             or "max_N" not in METHODS[method].constants))
    return cfg


def _assert_clean_exit(cfg, command, *args, out="out"):
    """Run ``optdec <command> cfg.json <args> --out <out>`` in a fresh directory;
    it must exit 0, 2 or 3 without a traceback, and 2 for a misplaced constant."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, str(path), *args, "--out", str(Path(tmp) / out)])
    assert code in ((2,) if _misplaced(cfg) else (0, 2, 3)), err.getvalue()
    assert "Traceback" not in err.getvalue()


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(data=st.data())
def test_run_exits_0_2_or_3_without_a_traceback(files, data):
    _assert_clean_exit(data.draw(configs(files), label="config"), "run")


def test_a_constant_misplaced_into_a_config_of_an_unknown_method_exits_2(files):
    # the draws of _corrupt in turn: the target object, the action, the constant and its value;
    # an unknown method reads no constant, and its empty record once raised TypeError here
    cfg = {"method": "newton", "problem": {"kind": "quadratic", "dim": 2}, "eps": 0.1, "N": 2}
    draws = iter([cfg, "misplace", "max_N", 5])
    _corrupt(lambda strategy: next(draws), cfg)
    assert cfg["constants"] == {"max_N": 5}
    _assert_clean_exit(cfg, "run")


# ---------------------------------------------------------------------------
# run_distributed

_RING4 = {"kind": "consensus_quadratic", "n": 2, "topology": {"kind": "ring", "m": 4}}
_SETTINGS = {"N": st.sampled_from([*range(7), "auto"]), "eps": st.sampled_from([0.1, 0.5]),
             "beta": st.sampled_from([0.1, 0.5]), "seed": st.integers(0, 3)}


@st.composite
def library_runs(draw):
    """``(method, settings, constants)`` from the valid sets; then up to two values are
    replaced from ``BAD_VALUES``, or a constant from another method's record is moved in."""
    method = draw(st.sampled_from([m for m, record in METHODS.items()
                                   if "consensus_quadratic" in record.kinds]))
    reads = METHODS[method].constants
    run, constants = {"eps": draw(_SETTINGS["eps"])}, {}
    for key in draw(st.lists(st.sampled_from(["N", "beta", "seed", *sorted(reads)]), unique=True)):
        target, values = (run, _SETTINGS) if key in _SETTINGS else (constants, _CONSTANTS)
        target[key] = draw(values[key])
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        target = draw(st.sampled_from([run, constants, "misplace"]))
        if target == "misplace":
            key = draw(st.sampled_from(sorted(set(_CONSTANTS) - reads)))
            constants[key] = draw(_CONSTANTS[key])
        elif target:
            target[draw(st.sampled_from(sorted(target)))] = draw(st.sampled_from(BAD_VALUES))
    # an auto N is capped by max_N when the method reads it
    assume(run.get("N", "auto") != "auto" or type(constants.get("max_N")) is int
           or "max_N" not in reads)
    return method, run, constants


@settings(max_examples=300, derandomize=True, deadline=None)
@given(run=library_runs())
def test_run_distributed_refuses_exactly_what_optdec_run_refuses(run):
    method, run_settings, constants = run
    try:
        validate_config({"method": method, "problem": _RING4, **run_settings,
                         "constants": constants})
        refusal = None
    except ConfigError as exc:
        refusal = str(exc)
    try:
        run_distributed(method, build_problem(_RING4, 0), {**run_settings, **constants})
    except _RUN_ERRORS:  # a LinAlgError too: a run error, never a refusal
        assert refusal is None
    except ValueError as exc:
        assert type(exc) is ValueError and str(exc) == refusal
    else:
        assert refusal is None


# ---------------------------------------------------------------------------
# optdec sweep

# valid values per sweep parameter, each small enough to keep a run cheap
SWEEP_VALUES = {"eps": ["0.1", "0.5", "0.3"], "sigma": ["0", "0.1", "0.05"],
                "N": [str(n) for n in range(7)], "m": ["2", "3", "6"],
                "chi-topology": list(TOPOLOGY_KINDS)}
# corrupted entries: none of them may imply much work
BAD_SWEEP_VALUES = ("x", "nan", "inf", "-inf", "1e400", "-1", "0", "2.5", "true", "null",
                    "Ring", "0.1.2", "[]", "{}", "1/2")


@st.composite
def sweeps(draw, files):
    """``(config, param, values, out)`` of an ``optdec sweep`` call."""
    param = draw(st.sampled_from(SWEEP_PARAMS * 4 + ("Sigma", "")))
    # the network parameters need a network config to get past validation
    cfg = draw(configs(files, decentralized=param in ("m", "chi-topology")))
    valid, size = SWEEP_VALUES.get(param, ["0.1"]), 3
    if cfg.get("method") == "restarted_rrma":
        # its noisy work follows its draws, and a noiseless run can take a second
        valid, size = (["0"] if param == "sigma" else valid), 1
    # mostly valid entries; an empty one is dropped, so "" alone is an empty list
    entry = st.one_of(*[st.sampled_from(valid)] * 3, st.sampled_from(BAD_SWEEP_VALUES + ("",)))
    values = ",".join(draw(st.lists(entry, min_size=1, max_size=size)))
    # now and then an output directory under the config file, which cannot be made
    return cfg, param, values, draw(st.sampled_from(["out"] * 3 + ["cfg.json/out"]))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_sweep_exits_0_2_or_3_without_a_traceback(files, data):
    cfg, param, values, out = data.draw(sweeps(files), label="sweep")
    # a list that starts with "-" must still be read as the value of --values
    _assert_clean_exit(cfg, "sweep", f"--param={param}", "--values", values, out=out)
