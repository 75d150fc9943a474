"""Regenerate ``pins.json``: output digests for the default seeds.

    python3 bench/pin.py

For each workload and seed 0-10, one pass over the corpus is checked the
way a benchmark run checks an unpinned seed (alg1 agrees with alg2-safe)
and, on sparse-any, every twinless-bridges output is compared with the
naive reference: remove the arc, re-test twinless strong connectivity from
scratch.  Only outputs that pass are pinned; any failure aborts without
writing.
"""
from __future__ import annotations

import json
import shutil
import sys

from run import BENCH, METRICS, OUT, Outputs, check, run_pass, set_up
from workloads import WORKLOADS

SEEDS = range(0, 11)
NAIVE_REFERENCE = ("sparse-any",)


def naive_twinless_bridges(tb, text: str) -> list[list[str]]:
    g = tb.parse_edge_list(text)
    return sorted(
        [g.labels[a.source], g.labels[a.target]] for a in g.arcs
        if not tb.is_twinless_strongly_connected(tb.remove_arcs(g, {a.arc_id})))


def pin(workload: str, seed: int) -> list[list[str]]:
    workdir = OUT / f"pin-{workload}-s{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        tb, cases, jobs, _warm_up = set_up(workload, seed, workdir)
        outputs = Outputs()
        run_pass(tb.cli, jobs, outputs)
    finally:
        shutil.rmtree(workdir)
    problems: list[str] = []
    _attempted, failed = check(workload, seed, cases, outputs, {}, problems)
    if workload in NAIVE_REFERENCE:
        for g, case in enumerate(cases):
            got = outputs.first[(g, "bridges_s")]["twinless_bridges"]
            if got != naive_twinless_bridges(tb, case.bridge_text):
                problems.append(f"graph {g}: bridges differ from the naive reference")
    if failed or problems:
        raise SystemExit(f"{workload} seed {seed}: " + "; ".join(problems))
    return [[outputs.seen[(g, metric)][0][1] for metric in METRICS]
            for g in range(len(cases))]


def main() -> int:
    OUT.mkdir(exist_ok=True)
    pins: dict[str, dict[str, list]] = {}
    for workload in sorted(WORKLOADS):
        for seed in SEEDS:
            pins.setdefault(workload, {})[str(seed)] = pin(workload, seed)
            print(f"pinned {workload} seed {seed}", flush=True)
    (BENCH / "pins.json").write_text(dumps(pins), encoding="utf-8")
    return 0


def dumps(pins: dict) -> str:
    """pins.json text: one line per (workload, seed)."""
    body = ",\n".join(
        f" {json.dumps(workload)}: {{\n"
        + ",\n".join(f"  {json.dumps(seed)}: {json.dumps(pins[workload][seed])}"
                     for seed in sorted(pins[workload], key=int))
        + "\n }"
        for workload in sorted(pins))
    return "{\n" + body + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
