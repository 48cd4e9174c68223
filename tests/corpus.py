"""The example graphs of the test suite.

The fourteen named graphs have one home, ``fixtures/<name>.graph``:
``build(name)`` loads a fresh copy, and ``CORPUS`` maps each fixture name
to a zero-argument loader.  ``line``, ``clock`` and ``inverse_clock``
build the families that the fixtures sample, at any size."""

from __future__ import annotations

import functools
import pathlib

from leavitt.graph import Bundle, Graph
from leavitt.graphio import load_graph

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def build(name: str) -> Graph:
    """A fresh graph loaded from fixtures/<name>.graph."""
    return load_graph(str(FIXTURES / f"{name}.graph"))


CORPUS = {path.stem: functools.partial(build, path.stem)
          for path in sorted(FIXTURES.glob("*.graph"))}


def clock(m: int) -> Graph:
    """One center emitting a single edge to each of m sinks."""
    vs = ["v"] + [f"w{i}" for i in range(1, m + 1)]
    bs = [Bundle(f"e{i}", "v", f"w{i}") for i in range(1, m + 1)]
    return Graph(vs, bs)


def inverse_clock(m: int = 3) -> Graph:
    """m sources each emitting a single edge into one common sink."""
    vs = ["w"] + [f"w{i}" for i in range(1, m + 1)]
    bs = [Bundle(f"e{i}", f"w{i}", "w") for i in range(1, m + 1)]
    return Graph(vs, bs)


def line(n: int) -> Graph:
    """Path graph on n vertices."""
    vs = [f"u{i}" for i in range(1, n + 1)]
    bs = [Bundle(f"e{i}", f"u{i}", f"u{i + 1}") for i in range(1, n)]
    return Graph(vs, bs)
