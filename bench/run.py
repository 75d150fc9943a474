"""twinblocks benchmark: seeded graph workloads through the CLI request mix.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  One client sends requests in a closed loop: each
request is an in-process call to ``twinblocks.cli.run`` on an edge-list
file with ``--format json``, so it pays for reading, parsing, analysis and
rendering, and the next request starts only after the previous one
returned.  For every corpus graph the client issues ``2etb`` (alg2-safe),
``2etb --algorithm alg1`` and ``twinless-bridges``, in that order; a
request is repeated back to back until its repeats take 0.5 s.  After one
full pass over the corpus the client goes on, graph after graph, while the
next graph still fits in ``--seconds``.  The heap is collected before each
request, outside its timing, so every request starts from the same
garbage-collector state.

``--trace 0`` reports the end-to-end metrics:

* ``tetb_s``, ``tetb_alg1_s``, ``bridges_s``: per request kind, the sum
  over the corpus of each request's median time;
* ``peak_mem_mb``: how far serving the three requests of the graph with
  the largest TSCC raises the peak resident memory of a fresh process
  above its size after importing the package (untimed, after the timed
  passes);
* ``setup_s``: median of five set-ups (import, corpus generation, file
  writes, one warm-up request), each started without the previous one's
  objects.

``--trace 1`` reports per-layer metrics from traced passes over the corpus
(see ``tracing.py``) and a tracemalloc pass over the first graph's ``2etb``
request.  Each graph's ``2etb`` request is also sent untraced, just before
its traced requests, to measure the cost of tracing.

Every output is checked outside the timed section: against the digests
pinned in ``pins.json`` for the default seeds, for agreement of alg1 with
alg2-safe on any seed, and for being identical on every repetition.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from collections import defaultdict
from pathlib import Path

from tracing import ROOT_SPAN, SPAN_METRICS, Tracer
from workloads import WORKLOADS, corpus

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

REQUESTS = (
    ("tetb_s", ["2etb"]),
    ("tetb_alg1_s", ["2etb", "--algorithm", "alg1"]),
    ("bridges_s", ["twinless-bridges"]),
)
METRICS = [metric for metric, _args in REQUESTS]
SETUP_REPS = 5
MIN_SAMPLE_S = 0.5


def import_package():
    """Fresh import of twinblocks from this checkout's ``src/``."""
    for name in [m for m in sys.modules
                 if m == "twinblocks" or m.startswith("twinblocks.")]:
        del sys.modules[name]
    src = ROOT / "src"
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    import twinblocks
    import twinblocks.cli
    if not Path(twinblocks.__file__).resolve().is_relative_to(src):
        raise ImportError(f"twinblocks found at {twinblocks.__file__}, "
                          f"not under {src}")
    return twinblocks


def request(cli, argv: list[str]) -> tuple[float, int, str]:
    """One request: seconds taken, exit code, standard output.

    An exception escaping ``cli.run`` counts as exit code 1, as it would
    for the command-line program, and its traceback goes to stderr.
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        try:
            rc = cli.run(argv)
        except Exception:
            traceback.print_exc()
            rc = 1
        elapsed = time.perf_counter() - start
    return elapsed, rc, buf.getvalue()


def digest(out: str) -> str:
    """Digest of a JSON report with ``elapsed_ms`` removed."""
    try:
        report = json.loads(out)
    except ValueError:
        return "unparseable"
    report.pop("elapsed_ms", None)
    text = json.dumps(report, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def set_up(workload: str, seed: int, workdir: Path):
    """Import, generate and write the corpus, send one warm-up request.

    Returns the package, the corpus, per graph its ``(metric, argv)``
    requests, and the warm-up's exit code and output.
    """
    tb = import_package()
    cases = corpus(tb, workload, seed)
    jobs = []
    for i, case in enumerate(cases):
        graph = workdir / f"g{i}.txt"
        graph.write_text(case.text + "\n", encoding="utf-8")
        bridge_input = graph
        if case.bridge_text != case.text:
            bridge_input = workdir / f"g{i}-tscc.txt"
            bridge_input.write_text(case.bridge_text + "\n", encoding="utf-8")
        jobs.append([
            (metric, args + ["--input",
                             str(bridge_input if metric == "bridges_s" else graph),
                             "--format", "json"])
            for metric, args in REQUESTS])
    _elapsed, rc, out = request(tb.cli, jobs[0][-1][1])
    return tb, cases, jobs, (rc, out)


class Outputs:
    """Every output of a run and its time, per (graph, metric)."""

    def __init__(self) -> None:
        self.seen: dict[tuple[int, str], list[tuple[int, str]]] = defaultdict(list)
        self.times: dict[tuple[int, str], list[float]] = defaultdict(list)
        self.first: dict[tuple[int, str], dict] = {}

    def add(self, key: tuple[int, str], rc: int, out: str,
            elapsed: float | None = None) -> None:
        self.seen[key].append((rc, digest(out) if rc == 0 else f"exit {rc}"))
        if elapsed is not None:
            self.times[key].append(elapsed)
        if key not in self.first and rc == 0:
            with contextlib.suppress(ValueError):
                self.first[key] = json.loads(out)


def serve_graph(cli, g: int, jobs, outputs: Outputs,
                tracer: Tracer | None = None, min_sample: float = 0.0) -> dict:
    """Send graph ``g``'s requests in order; summed seconds per metric.

    Each request is sent again, back to back, until its repeats add up to
    ``min_sample`` seconds, so a cheap request collects enough samples
    for a steady median, and every sample follows the same request as on
    every other visit.
    """
    sums: dict[str, float] = defaultdict(float)
    for k, (metric, argv) in enumerate(jobs[g]):
        spent = 0.0
        while True:
            gc.collect()
            if tracer is None:
                elapsed, rc, out = request(cli, argv)
            else:
                tracer.request = g * len(REQUESTS) + k
                elapsed, rc, out = tracer.call(ROOT_SPAN, request, cli, argv)
                tracer.request = -1
            outputs.add((g, metric), rc, out, elapsed)
            sums[metric] += elapsed
            spent += elapsed
            if spent >= min_sample:
                break
    return sums


def run_pass(cli, jobs, outputs: Outputs, tracer: Tracer | None = None) -> dict:
    """One closed-loop pass over the corpus, each request sent once;
    summed seconds per metric."""
    sums: dict[str, float] = defaultdict(float)
    for g in range(len(jobs)):
        for metric, spent in serve_graph(cli, g, jobs, outputs, tracer).items():
            sums[metric] += spent
    return sums


def _edge_count(text: str) -> int:
    return sum(1 for line in text.splitlines() if line.strip())


def check(workload: str, seed: int, cases, outputs: Outputs, pins: dict,
          problems: list[str]) -> tuple[int, int]:
    """Check every output; returns (attempted, failed) requests."""
    pinned = pins.get(workload, {}).get(str(seed))
    if pinned is not None and len(pinned) != len(cases):
        problems.append("pins.json does not match the corpus size")
        pinned = None
    expected: dict[tuple[int, str], str] = {}
    bad: set[tuple[int, str]] = set()

    def reject(key, why: str) -> None:
        bad.add(key)
        problems.append(f"graph {key[0]} {key[1]}: {why}")

    for g, case in enumerate(cases):
        keys = {metric: (g, metric) for metric in METRICS}
        for k, metric in enumerate(METRICS):
            key = keys[metric]
            if pinned is not None:
                expected[key] = pinned[g][k]
            elif key in outputs.first:
                expected[key] = digest(json.dumps(outputs.first[key]))
        alg2 = outputs.first.get(keys["tetb_s"])
        alg1 = outputs.first.get(keys["tetb_alg1_s"])
        bridges = outputs.first.get(keys["bridges_s"])
        if alg2 is None or alg1 is None or alg1.get("blocks") != alg2.get("blocks"):
            reject(keys["tetb_s"], "alg1 and alg2-safe disagree")
            reject(keys["tetb_alg1_s"], "alg1 and alg2-safe disagree")
        elif alg2.get("m") != _edge_count(case.text):
            reject(keys["tetb_s"], "arc count differs from the input")
        if (bridges is None
                or bridges.get("m") != _edge_count(case.bridge_text)
                or bridges.get("b_t") != len(bridges.get("twinless_bridges", ()))):
            reject(keys["bridges_s"], "malformed twinless-bridges report")

    attempted = failed = 0
    for key, runs in outputs.seen.items():
        for rc, got in runs:
            attempted += 1
            if rc != 0 or key in bad or got != expected.get(key):
                failed += 1
                if key not in bad:
                    problems.append(f"graph {key[0]} {key[1]}: output {got}, "
                                    f"expected {expected.get(key)}")
    return attempted, failed


def memory_probe(requests) -> tuple[float, list[tuple[int, str]]]:
    """Growth of peak RSS (MB) while a fresh process, with the package
    imported, serves one graph's ``(metric, argv)`` requests."""
    argvs = [argv for _metric, argv in requests]
    proc = subprocess.run(
        [sys.executable, str(BENCH / "memprobe.py"), json.dumps(argvs)],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["growth_kb"] / 1024.0, [tuple(r) for r in result["runs"]]


def properties(tb, case) -> dict:
    """Input properties that drive cost (untimed)."""
    g = tb.parse_edge_list(case.text)
    tscc = tb.twinless_strongly_connected_components(g)
    report = tb.bridge_report(tb.parse_edge_list(case.bridge_text))
    return {"n": g.n, "m": g.m, "twin_pairs": len(tb.twin_pairs(g)),
            "largest_tscc": max(len(c) for c in tscc.classes),
            "b_s": report.b_s, "b_t": report.b_t}


def layer_metrics(tracer: Tracer) -> dict:
    self_s, calls = tracer.span_totals()
    out: dict[str, float] = {}
    for metric, (span, kind) in SPAN_METRICS.items():
        out[metric] = self_s.get(span, 0.0) if kind == "self" else calls[span]
    # bridge counts of the alg2-safe requests: one report per TSCC analysed
    alg2 = [(b_s, b_t) for req, b_s, b_t in tracer.reports
            if req % len(REQUESTS) == 0]
    out["cuts.b_s"] = sum(b_s for b_s, _ in alg2)
    out["cuts.b_t"] = sum(b_t for _, b_t in alg2)
    out["gc.collections"] = sum(tracer.gc_collections.values())
    out["gc.full_collections"] = tracer.gc_collections[2]
    out["gc.pause_s"] = tracer.gc_pause
    out["trace.absent_wraps"] = len(tracer.absent)
    return out


def timed_run(cli, jobs, seconds: float, outputs: Outputs) -> int:
    """One full pass over the corpus, then graph after graph, cycling, while
    the next graph's requests still fit in ``seconds``; returns the number
    of graph visits."""
    deadline = time.perf_counter() + seconds
    cost = [0.0] * len(jobs)
    visits = 0
    while True:
        g = visits % len(jobs)
        began = time.perf_counter()
        if visits >= len(jobs) and began + cost[g] > deadline:
            return visits
        serve_graph(cli, g, jobs, outputs, min_sample=MIN_SAMPLE_S)
        cost[g] = time.perf_counter() - began
        visits += 1


def traced_run(cli, jobs, seconds: float, outputs: Outputs,
               trace_file: Path) -> dict:
    """Traced passes over the corpus while ``seconds`` allows, at least one;
    per-layer medians.

    Each graph's ``2etb`` request is also sent once untraced, so the
    tracing overhead is a sum of traced-minus-untraced pairs.  A request
    that is not the first on its graph runs faster, traced or not, so the
    untraced one goes before the traced requests on every other graph and
    after them on the rest.
    """
    overheads: list[float] = []
    layers: list[dict] = []
    spans: list[list] = []
    absent: set[str] = set()
    start = time.perf_counter()
    last = 0.0
    while not layers or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        tracer = Tracer()
        overhead = 0.0
        for g in range(len(jobs)):
            metric, argv = jobs[g][0]
            untraced_first = (g + len(layers)) % 2 == 0
            for traced in ((False, True) if untraced_first else (True, False)):
                if traced:
                    tracer.install()
                    try:
                        overhead += serve_graph(cli, g, jobs, outputs, tracer)[metric]
                    finally:
                        tracer.uninstall()
                else:
                    gc.collect()
                    elapsed, rc, out = request(cli, argv)
                    outputs.add((g, metric), rc, out)
                    overhead -= elapsed
        overheads.append(overhead)
        layers.append(layer_metrics(tracer))
        spans.extend([len(layers) - 1] + span for span in tracer.spans)
        absent.update(tracer.absent)
        last = time.perf_counter() - began
    if absent:
        print(f"absent wrap points: {', '.join(sorted(absent))}")
    metrics = {name: statistics.median(layer[name] for layer in layers)
               for name in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(overheads)

    gc.collect()
    tracemalloc.start()
    try:
        _elapsed, rc, out = request(cli, jobs[0][0][1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs.add((0, jobs[0][0][0]), rc, out)
    metrics["mem.tetb_traced_peak_mb"] = peak / 1e6

    trace_file.write_text(json.dumps(
        {"fields": ["pass", "name", "start", "end", "parent", "request"],
         "spans": spans}), encoding="utf-8")
    print(f"{len(layers)} traced passes, {len(spans)} spans written to "
          f"{trace_file.relative_to(ROOT)}")
    return metrics


def unit_of(name: str) -> str:
    if name in ("cuts.b_s", "cuts.b_t"):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir()
    try:
        setups = []
        for _ in range(SETUP_REPS):
            ready = None  # each set-up starts without the previous one's heap
            gc.collect()
            began = time.perf_counter()
            ready = set_up(args.workload, args.seed, workdir)
            setups.append(time.perf_counter() - began)
        tb, cases, jobs, warm_up = ready
    except ImportError as exc:
        shutil.rmtree(workdir)
        print(f"error: cannot import twinblocks from src/: {exc}", file=sys.stderr)
        return 2
    try:
        outputs = Outputs()
        outputs.add((0, "bridges_s"), *warm_up)
        problems: list[str] = []
        if args.trace:
            metrics = traced_run(
                tb.cli, jobs, args.seconds, outputs,
                OUT / f"trace-{args.workload}-s{args.seed}.json")
        else:
            visits = timed_run(tb.cli, jobs, args.seconds, outputs)
            metrics = {metric: sum(statistics.median(outputs.times[(g, metric)])
                                   for g in range(len(jobs)))
                       for metric in METRICS}
            # the graph with the largest TSCC: its size varies less
            # between seeds than that of a fixed corpus position
            big = max(range(len(cases)),
                      key=lambda g: _edge_count(cases[g].bridge_text))
            metrics["peak_mem_mb"], probe = memory_probe(jobs[big])
            for (metric, _argv), (rc, got) in zip(jobs[big], probe):
                outputs.seen[(big, metric)].append((rc, got))
            metrics["setup_s"] = statistics.median(setups)
            print(f"{args.workload} seed {args.seed}: {len(jobs)} graphs, "
                  f"{visits} graph visits in the timed loop")
        for g, case in enumerate(cases):
            props = " ".join(f"{k}={v}" for k, v in properties(tb, case).items())
            print(f"graph {g}: {props}")
        pins = json.loads((BENCH / "pins.json").read_text(encoding="utf-8"))
        attempted, failed = check(args.workload, args.seed, cases, outputs,
                                  pins, problems)
    finally:
        shutil.rmtree(workdir)
    for line in problems:
        print(f"CHECK FAILED: {line}")
    for name, value in metrics.items():
        print(f"{name:36s} {value:14.6f} {unit_of(name)}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
