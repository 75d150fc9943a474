"""Command line front end.

Every analysis is exposed as a subcommand over edge-list input (file or
stdin) with deterministic text or JSON output.  Vertex references in
reports always use the original labels; blocks and classes are rendered in
canonical order (labels ascending inside a set, sets ascending by first
label), so repeated runs are byte-identical apart from ``elapsed_ms``.

Exit codes: 0 success, 1 usage error, 2 parse error, 3 precondition
violation (e.g. input not twinless strongly connected, budget exceeded),
141 when the reader closes standard output before it is all written, as a
shell reports a process killed by SIGPIPE.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import dataclass, fields

from .core import Digraph, GraphError, ParseError, parse_edge_list, serialize
from .connectivity import (strongly_connected_components,
                           twinless_strongly_connected_components)
from .cuts import _Separations, strong_bridges, twinless_bridges
from .blocks import (BlockSet, _two_edge_block_partition,
                     k_edge_twinless_blocks_bruteforce,
                     two_edge_twinless_blocks)
from .testkit import (GeneratorConfig, oracle_two_edge_twinless_blocks,
                      random_digraph)
from . import selftest as _selftest_mod

@dataclass
class AnalysisReport:
    """Label-based result bundle for one CLI analysis."""

    n: int
    m: int
    analysis: str
    algorithm: str
    blocks: list[list[str]] | None = None
    strong_bridges: list[list[str]] | None = None
    twinless_bridges: list[list[str]] | None = None
    b_s: int | None = None
    b_t: int | None = None
    elapsed_ms: float = 0.0

    def to_dict(self) -> dict:
        """The set fields in declaration order, which is the JSON schema."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None:
                out[f.name] = value
        return out

    def to_text(self) -> str:
        lines = [f"analysis: {self.analysis}",
                 f"algorithm: {self.algorithm}",
                 f"n: {self.n}",
                 f"m: {self.m}"]
        if self.blocks is not None:
            lines.append(f"blocks ({len(self.blocks)}):")
            lines.extend("  " + " ".join(b) for b in self.blocks)
        if self.strong_bridges is not None:
            lines.append(f"strong bridges ({len(self.strong_bridges)}):")
            lines.extend("  " + " ".join(e) for e in self.strong_bridges)
        if self.b_s is not None:
            lines.append(f"b_s: {self.b_s}")
        if self.twinless_bridges is not None:
            lines.append(f"twinless bridges ({len(self.twinless_bridges)}):")
            lines.extend("  " + " ".join(e) for e in self.twinless_bridges)
        if self.b_t is not None:
            lines.append(f"b_t: {self.b_t}")
        lines.append(f"elapsed_ms: {self.elapsed_ms}")
        return "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", default="-", metavar="PATH",
                     help="edge-list file, or - for stdin (default)")
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--min-size", type=int, default=None, metavar="S",
                     help="hide result sets smaller than S "
                          "(default 2 for blocks, 1 for partitions)")
    sub.add_argument("--include-singletons", action="store_true",
                     help="also list vertices outside every block")
    sub.add_argument("--threads", type=int, default=1, metavar="N",
                     help="accepted for compatibility and ignored")


def build_parser() -> _Parser:
    parser = _Parser(prog="twinblocks",
                     description="directed-graph connectivity analyses")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("scc", "tscc", "strong-bridges", "twinless-bridges",
                 "2-edge-blocks"):
        _add_common(subs.add_parser(name))
    tetb = subs.add_parser("2etb")
    _add_common(tetb)
    tetb.add_argument("--algorithm", default="alg2-safe",
                      choices=("alg1", "alg2-safe", "alg2-faithful",
                               "oracle"))
    ketb = subs.add_parser("ketb")
    _add_common(ketb)
    ketb.add_argument("--k", type=int, required=True)
    gen = subs.add_parser("gen")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--shape", default="any",
                     choices=("any", "strongly-connected",
                              "twinless-strongly-connected"))
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--twin-density", type=float, default=0.25)
    subs.add_parser("selftest")
    return parser


# built once per process: a build takes 1 to 2 ms, up to a fifth of a
# twinless-bridges request on a 650-vertex graph; parse_args keeps no
# state between calls
_shared_parser = functools.cache(build_parser)


def _read_graph(path: str) -> Digraph:
    """Parse UTF-8 edge-list input; a leading byte order mark is dropped."""
    try:
        if path == "-":
            data = getattr(sys.stdin, "buffer", sys.stdin).read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if isinstance(data, str):  # a replaced stdin without a byte buffer
        return parse_edge_list(data.removeprefix("\ufeff"))
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8 at byte {exc.start}: "
                         f"{exc.reason}") from exc
    return parse_edge_list(text)


def _sorted_arcs(g: Digraph, arc_ids) -> list[list[str]]:
    labels = g.labels
    ends = (g._ends[i] for i in arc_ids)
    return sorted([labels[u], labels[v]] for u, v in ends)


def _label_lists(g: Digraph, sets, min_size: int,
                 include_singletons: bool) -> list[list[str]]:
    """Sets of at least ``min_size`` vertices as sorted label lists, plus,
    on request, a one-label list per vertex that no set holds."""
    rendered = [sorted(g.labels[v] for v in c)
                for c in sets if len(c) >= min_size]
    if include_singletons:
        covered = {v for c in sets for v in c}
        rendered.extend([g.labels[v]] for v in range(g.n) if v not in covered)
    return sorted(rendered)


def _emit(report: AnalysisReport, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report.to_dict()))
    else:
        print(report.to_text())


def run(argv: list[str]) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.command == "selftest":
        return _selftest_mod.run_selftest()

    if args.command == "gen":
        try:
            cfg = GeneratorConfig(n_range=(args.n, args.n),
                                  m_range=(args.m, args.m),
                                  twin_density=args.twin_density,
                                  seed=args.seed, shape=args.shape)
            g = random_digraph(cfg)
        except GraphError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        print(serialize(g))
        return 0

    try:
        g = _read_graph(args.input)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    report = AnalysisReport(n=g.n, m=g.m, analysis=args.command, algorithm="")
    sets, min_size = None, 2  # vertex sets to render as report.blocks
    try:
        if args.command == "scc":
            report.algorithm = "tarjan"
            sets, min_size = strongly_connected_components(g).classes, 1
        elif args.command == "tscc":
            report.algorithm = "underlying-2ecc"
            sets = twinless_strongly_connected_components(g).classes
            min_size = 1
        elif args.command == "strong-bridges":
            report.algorithm = "per-arc-recheck"
            sb = strong_bridges(g)
            report.strong_bridges = _sorted_arcs(g, sb)
            report.b_s = len(sb)
        elif args.command == "twinless-bridges":
            report.algorithm = "per-arc-recheck"
            tb = twinless_bridges(g)
            report.twinless_bridges = _sorted_arcs(g, tb)
            report.b_t = len(tb)
        elif args.command == "2-edge-blocks":
            report.algorithm = "bridge-refinement"
            seps = _Separations(g)
            sb = seps.strong_bridges()
            sets = BlockSet.from_partition(
                _two_edge_block_partition(g, seps)).blocks
            report.strong_bridges = _sorted_arcs(g, sb)
            report.b_s = len(sb)
        elif args.command == "2etb":
            report.algorithm = args.algorithm
            if args.algorithm == "oracle":
                sets = oracle_two_edge_twinless_blocks(g).blocks
            else:
                sets = two_edge_twinless_blocks(g, args.algorithm).blocks
        elif args.command == "ketb":
            report.algorithm = "bruteforce"
            sets = k_edge_twinless_blocks_bruteforce(g, args.k).blocks
        else:  # pragma: no cover
            raise AssertionError(args.command)
    except GraphError as exc:  # PreconditionError included
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if sets is not None:
        report.blocks = _label_lists(g, sets, args.min_size or min_size,
                                     args.include_singletons)
    report.elapsed_ms = round((time.perf_counter() - started) * 1000.0, 3)
    _emit(report, args.format)
    return 0


def main() -> int:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; stdout goes to devnull so that the flush at
        # interpreter exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
