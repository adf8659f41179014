"""Benchmark of the apollonius package: four workloads, end to end and per layer.

    python3 bench/run.py --workload {montecarlo,witness,curves,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The package is imported from src/ (this
script sets PYTHONPATH for its workers and refuses any other copy).

Set-up is measured SETUPS times, each time by starting a fresh worker
process and waiting for its "ready" line; the last of those workers then
runs the timed phase. Times are scaled to the reference speed of a
calibration kernel (see worker.py). Printed, one per line, are the metrics with their
units, the op counts and the machine's versions; the last line is one
JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones (setup_s, ops_per_s,
op_p50_ms, peak_rss_mb); with --trace 1 the per-layer ones, from one
worker whose timed phase is half untraced and half traced.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import CAL_REF_S, calibration_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("montecarlo", "witness", "curves", "cli")
SETUPS = 5
RUN_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MiB"}


class BenchError(RuntimeError):
    pass


def start_worker(args, seconds: float, env: dict):
    """Start a worker and wait for "ready".

    Returns the set-up wall time, the factor that scales it to the
    calibration kernel's reference speed (by the mean of the kernel time
    taken here just before the start and the one the worker reports
    right after "ready"), and the process.
    """
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(args.trace),
    ]
    before = calibration_s()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    after = proc.stdout.readline().split()
    if line.strip() != "ready" or len(after) != 2:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    return setup, CAL_REF_S / (0.5 * (before + float(after[1]))), proc


def finish_worker(proc) -> str:
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker ran over {RUN_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    setups = []  # (wall seconds, scale to the reference speed)
    try:
        for _ in range(0 if args.trace else SETUPS - 1):
            *setup, proc = start_worker(args, 0, env)
            finish_worker(proc)
            setups.append(setup)
        *setup, proc = start_worker(args, args.seconds, env)
        setups.append(setup)
        out = finish_worker(proc)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])

    if args.trace:
        metrics = result["metrics"]
    else:
        values = {
            "setup_s": statistics.median(wall * scale for wall, scale in setups),
            "ops_per_s": result["ops_per_s"],
            "op_p50_ms": result["op_p50_ms"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    for line in result["errors"][:10]:
        print(f"check failed: {line}", file=sys.stderr)
    v = result["versions"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"attempted {result['attempted']} failed {result['failed']}, set-ups {len(setups)}")
    if not args.trace:
        print(f"op_p50_ms and ops_per_s over the {result['round_size']} ops of a round, each the median "
              f"of {result['rounds']} rounds; times scaled to the calibration kernel's reference speed")
        print(f"unscaled: setup_s {statistics.median(wall for wall, _ in setups):.6g} s, "
              f"median op {result['wall_op_p50_ms']:.6g} ms")
    print(f"nproc {v['nproc']} python {v['python']} numpy {v['numpy']} scipy {v['scipy']}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
