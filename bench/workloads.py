"""Seeded input corpora for the benchmark workloads.

The benchmark seed chooses every graph of a corpus; the program under test
only ever sees the edge-list files written from them.  Generation goes
through the package's public API (``GeneratorConfig``, ``random_digraph``,
``serialize``), so a refactor of the internals does not change the inputs.
"""
from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass
class Case:
    """One corpus graph: the 2etb input and the twinless-bridges input."""

    text: str
    bridge_text: str


def _dense_tsc(tb, gseed: int) -> Case:
    # Redundant network: few or no bridges, so the per-arc bridge scan in
    # cuts dominates and the per-bridge passes do almost nothing.
    g = tb.random_digraph(tb.GeneratorConfig(
        n_range=(2000, 2000), m_range=(20000, 20000), twin_density=0.1,
        seed=gseed, shape="twinless-strongly-connected"))
    text = tb.serialize(g)
    return Case(text, text)


def _sparse_any(tb, gseed: int) -> Case:
    # Arbitrary input through the whole decomposition pipeline; the largest
    # TSCC has hundreds of bridges, ~10% of them twinless but not strong.
    # twinless-bridges refuses inputs that are not twinless strongly
    # connected, so its request runs on the largest TSCC.
    g = tb.random_digraph(tb.GeneratorConfig(
        n_range=(1000, 1000), m_range=(2000, 2000), twin_density=0.3,
        seed=gseed, shape="any"))
    tp = tb.twinless_strongly_connected_components(g)
    largest = max(tp.classes, key=len)
    return Case(tb.serialize(g),
                tb.serialize(tb.induced_subgraph(g, largest)))


# name -> (graphs in the corpus, builder)
WORKLOADS = {
    "dense-tsc": (3, _dense_tsc),
    "sparse-any": (5, _sparse_any),
}


def corpus(tb, workload: str, seed: int) -> list[Case]:
    """The workload's corpus for ``seed``; same seed, same graphs."""
    count, build = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    return [build(tb, rng.randrange(2 ** 32)) for _ in range(count)]
