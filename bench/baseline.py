"""Run the benchmark over several seeds and record a baseline.

    python3 bench/baseline.py --label TEXT

Runs every workload for seeds 1-10 and writes ``bench/baseline.json``.
Each run is a separate ``bench/run.py`` process that measures for the
``run_seconds`` of ``BENCHMARK.json``.  For every (end-to-end
metric, workload) pair the file records the values, their median and
quartiles and the spread (interquartile distance over the median).  The two
traced runs use seed 1: they add every per-layer metric, must agree
exactly on the counts in ``EXACT_COUNTS``, and name the layer with the
largest self time.  The input properties printed by each run are kept per
seed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from run import BENCH, ROOT
from tracing import SPAN_METRICS
from workloads import WORKLOADS

SEEDS = range(1, 11)
TRACED_SEED = 1
TRACED_RUNS = 2
OUT_FILE = BENCH / "baseline.json"
# per-layer counts that must repeat exactly between runs of one seed
EXACT_COUNTS = ("cuts.b_s", "cuts.b_t", "connectivity.tscc_pass_calls",
                "connectivity.scc_pass_calls", "partition.meet_calls")


def one_run(workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.splitlines()
    graphs = [line.split(": ", 1)[1] for line in lines if line.startswith("graph ")]
    return json.loads(lines[-1]), graphs


def summary(values: list[float]) -> dict:
    out = {"values": values, "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / out["median"]
                   if out["median"] else 0.0)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True,
                        help="the code and machine measured")
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(
        encoding="utf-8"))["run_seconds"]

    result = {"label": args.label, "python": platform.python_version(),
              "machine": platform.machine(), "cpu_count": os.cpu_count(),
              "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        e2e: dict[str, list[float]] = {}
        layers: dict[str, list[float]] = {}
        inputs: dict[str, list[str]] = {}
        runs = [(seed, 0) for seed in SEEDS] + [(TRACED_SEED, 1)] * TRACED_RUNS
        for seed, trace in runs:
            report, graphs = one_run(workload, seed, seconds, trace)
            if not report["correct"] or report["failed"]:
                raise SystemExit(f"{workload} seed {seed}: run failed its checks")
            target = layers if trace else e2e
            for name, metric in report["metrics"].items():
                target.setdefault(name, []).append(metric["value"])
            inputs[str(seed)] = graphs
            print(f"{workload} seed {seed} trace {trace}: "
                  + " ".join(f"{k}={v['value']:.4g}"
                             for k, v in report["metrics"].items()), flush=True)
        for name in EXACT_COUNTS:
            if len(set(layers[name])) != 1:
                raise SystemExit(f"{workload}: {name} differs between traced runs")
        self_times = {SPAN_METRICS[name][0]: statistics.median(layers[name])
                      for name in SPAN_METRICS if SPAN_METRICS[name][1] == "self"}
        largest = max(self_times, key=self_times.get)
        print(f"{workload}: largest per-layer self time in {largest}")
        result["workloads"][workload] = {
            "end_to_end": {k: summary(v) for k, v in e2e.items()},
            "per_layer": {k: summary(v) for k, v in layers.items()},
            "largest_self_time": largest,
            "inputs": inputs,
        }
        for name, s in result["workloads"][workload]["end_to_end"].items():
            print(f"{workload:11s} {name:12s} median {s['median']:.4f} "
                  f"spread {s.get('spread', 0.0):.4f}")
    with open(OUT_FILE, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
