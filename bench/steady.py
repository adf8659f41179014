"""Steadiness mode: repeat the benchmark and report each metric's spread.

    python3 bench/steady.py [--runs 10]

Runs bench/run.py `--runs` times on every workload of BENCHMARK.json, for its
run_seconds, each time with another seed (1, 2, ...), alternating the
workload order from one repetition to the next so that slow drifts of
the machine fall on every workload alike. For each workload and metric it prints the
median, the quartiles (statistics.quantiles, n=4), the spread
(Q3 - Q1) / median and that spread as a share of the metric's bound in
BENCHMARK.json, and the distinct shares of failed operations. Raw
results go to .bench_out/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from reference import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(i + 1),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{w} seed {i + 1}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["wall_s"] = time.perf_counter() - t0
            results[w].append(result)
            print(f"run {i + 1}/{args.runs} {w}: correct {result['correct']} attempted {result['attempted']} "
                  f"failed {result['failed']} wall {result['wall_s']:.1f} s", flush=True)

    out = ROOT / ".bench_out" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    print(f"\n{'workload':<11} {'metric':<46} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'/bound':>7}")
    for w, runs in results.items():
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = quartiles(values) if len(values) > 1 else (values[0],) * 3
            spread = (q3 - q1) / med
            print(f"{w:<11} {metric:<46} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {spread / bounds[metric]:7.2f}")
        distinct = {r["failed"] / r["attempted"] for r in runs}
        walls = [r["wall_s"] for r in runs]
        print(f"{w:<11} failed share(s) {sorted(distinct)}; all correct {all(r['correct'] for r in runs)}; "
              f"wall {min(walls):.1f}-{max(walls):.1f} s")
    print(f"raw results: {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
