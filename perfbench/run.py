"""optdec benchmark: one workload per call, result as the last output line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  --seed N --seconds S --trace 0|1

``--trace 0`` reports the end-to-end metrics (medians over repetitions),
``--trace 1`` the per-layer metrics of one traced repetition.  The last
line of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``all`` runs every workload, each in its own
process, and ends with one such object per workload.  The exit code is 0
when the benchmark ran, whatever it found; 2 when it cannot run here.
"""

import argparse
import json
import os
import subprocess
import sys

# One BLAS thread, below nproc.  On a 2-vCPU Xeon VM, the consensus
# workload at N=1500 repeated within 5.2-5.6 s on one thread and ranged over
# 3.6-4.3 s on two.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import bench  # noqa: E402  (after the thread pinning)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in a child process, so peak RSS stays per workload."""
    results = {}
    for name in bench.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        out = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
        env = bench.environment()
    except bench.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(bench.report(args.workload, args.seed, bool(args.trace), out, env))
    print(bench.result_line(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
