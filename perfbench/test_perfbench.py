"""Smoke test of the benchmark: every workload at a tiny size, checked and traced.

    python -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_workload_at_tiny_size(name, trace):
    out = bench.run(name, seed=3, seconds=0.0, trace=trace, tiny=True)
    assert out["problems"] == []
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] == (2 if trace else bench.MIN_REPS)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: u for k, (_, u) in out["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(v == v for v, _ in out["metrics"].values())  # no NaN


def test_workloads_match_declaration():
    assert [(w["name"], w["why"]) for w in DECLARED["workloads"]] == \
        [(w.name, w.why) for w in bench.WORKLOADS.values()]
    assert {m["name"]: m["better"] for m in DECLARED["per_layer"]} == \
        {k: better for k, (_, better) in bench.PER_LAYER.items()}


def test_tracer_restores_every_patched_attribute():
    optdec = bench.load_optdec()
    modules = [m for k, m in sys.modules.items() if k == "optdec" or k.startswith("optdec.")]
    before = [dict(vars(m)) for m in modules] + [dict(vars(c)) for c in _classes(optdec)]
    tracer = spans.Tracer()
    tracer.install("optdec", spans.LAYER_TARGETS)
    assert optdec.cli.spdstm is optdec.network.spdstm is optdec.dual.spdstm
    assert optdec.dual.spdstm.__wrapped__ is before[modules.index(optdec.dual)]["spdstm"]
    tracer.uninstall()
    after = [dict(vars(m)) for m in modules] + [dict(vars(c)) for c in _classes(optdec)]
    assert after == before


def test_probe_accounts_for_its_own_time():
    with probe.SpeedProbe() as speed:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
        t1 = time.perf_counter()
    assert len(speed.samples) >= 10
    spans_ = list(zip(speed.starts, speed.ends))
    for start, end in [(t0, t1), (t0, t0 + 0.05), (speed.starts[3] + 1e-6, speed.ends[7] - 1e-6), (t1, t1 + 1)]:
        slow = sum(min(b, end) - max(a, start) for a, b in spans_ if b > start and a < end)
        assert speed.busy_within(start, end) == pytest.approx(slow, abs=1e-12)
    assert 0 < speed.busy_within(t0, t1) < t1 - t0
    assert speed.reference_s(t0, t1) > 0


def _classes(optdec):
    return [optdec.oracles.DualOracle, optdec.oracles.FirstOrderOracle, optdec.oracles.RngStreams,
            optdec.oracles.NoiseSpec, optdec.network.DistributedDualOracle,
            optdec.network.DecentralizedInstance, optdec.problems.QuadraticProblem,
            optdec.primal.CompositeProblem, optdec.trace.RunTrace]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "dual_sampling",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "optdec sources not found" in proc.stderr
