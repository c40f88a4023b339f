"""Derandomized fuzz test of ``optdec run``: every config ends in exit 0, 2 or 3.

Configs are drawn over every method and problem kind from small sets of
valid values, then up to two of their fields are corrupted: a value is
replaced by one of the wrong types, negatives, zeros or ``"nan"`` of
``BAD_VALUES``, a key is deleted, or an unknown key is added.  No input may
imply much work, since refusing that is a run budget's job and not this
test's: ``dim`` is at most 8, ``n`` at most 4, a topology has at most 6
nodes, ``N`` is at most 6, ``N: "auto"`` comes with ``max_N`` at most 20,
``eps`` stays in the config, and ``restarted_rrma``, whose noisy work
follows its draws, runs without noise.
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

from optdec.cli import METHOD_KINDS, METHODS, PROBLEM_KINDS, TOPOLOGY_KINDS, main

BAD_VALUES = ("x", [], {}, True, None, -1, 0, "nan")


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


_CONSTANTS = st.fixed_dictionaries({}, optional={
    "C": st.just(1.0), "C_hat": st.just(1.0), "step_factor": st.just(2.0),
    "L_tilde_factor": st.sampled_from([1.0, 2.0]), "lambda": st.just(0.05),
    "inner_T": st.sampled_from([None, 3]), "m_iters": st.just(5),
    "R_y": st.sampled_from([None, 1.0]), "stop_gap": st.sampled_from([None, -0.3]),
    "stop_grad_norm": st.sampled_from([None, 0.1]), "metric_every": st.integers(0, 2),
    "max_N": st.integers(1, 20)})


def _corrupt(draw, cfg):
    """Corrupt one field of one object of ``cfg``, in place."""
    objects = [cfg] + [v for v in cfg.values() if isinstance(v, dict)]
    if isinstance(cfg.get("problem"), dict):
        objects += [v for v in cfg["problem"].values() if isinstance(v, dict)]
    target = draw(st.sampled_from(objects))
    action = draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "add" or not target:
        target[draw(st.sampled_from(["extra", "Sigma"]))] = 1
    elif action == "delete":
        del target[draw(st.sampled_from(sorted(target)))]
    else:
        target[draw(st.sampled_from(sorted(target)))] = draw(st.sampled_from(BAD_VALUES))


@st.composite
def configs(draw, files):
    method = draw(st.sampled_from(METHODS))
    # mostly a kind the method runs on, so that most runs get past validation
    kind = draw(st.sampled_from(METHOD_KINDS[method] * 3 + PROBLEM_KINDS))
    cfg = {"method": method, "problem": draw(_problem(kind, files)),
           "eps": draw(st.sampled_from([0.1, 0.5])), "N": draw(st.sampled_from([*range(7), "auto"])),
           "seed": draw(st.integers(0, 3))}
    if method != "restarted_rrma" and draw(st.sampled_from([True, True, False])):
        cfg["noise"] = draw(st.fixed_dictionaries({"sigma": st.sampled_from([0.0, 0.1])}, optional={
            "delta": st.sampled_from([0.0, 0.01]), "kind": st.sampled_from(["gaussian", "bounded"])}))
    for key, value in (("constants", _CONSTANTS), ("beta", st.sampled_from([0.1, 0.5]))):
        if draw(st.booleans()):
            cfg[key] = draw(value)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        _corrupt(draw, cfg)
    consts = cfg.get("constants")
    max_N = consts.get("max_N") if isinstance(consts, dict) else None
    assume("eps" in cfg and (cfg.get("N", "auto") != "auto" or type(max_N) is int))
    return cfg


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(data=st.data())
def test_run_exits_0_2_or_3_without_a_traceback(files, data):
    cfg = data.draw(configs(files), label="config")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", str(path), "--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
