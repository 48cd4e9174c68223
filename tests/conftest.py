import pytest

import corpus
from corpus import FIXTURES
from leavitt.graph import Bundle, Graph


@pytest.fixture(scope="session")
def fixture_dir():
    return FIXTURES


def fixture_path(name: str) -> str:
    return str(FIXTURES / f"{name}.graph")


@pytest.fixture(scope="session")
def corpus_graphs():
    return {name: build() for name, build in corpus.CORPUS.items()}


def tailed_cycle(k: int, t: int) -> Graph:
    """A k-cycle c0000 -> ... -> c0000 fed at c0000 by a t-vertex line;
    it has bounded index n = k + t."""
    cyc = [f"c{i:04d}" for i in range(k)]
    tail = [f"t{i}" for i in range(1, t + 1)]
    bundles = [Bundle(f"a{i:04d}", cyc[i], cyc[(i + 1) % k]) for i in range(k)]
    bundles += [Bundle(f"s{i}", tail[i], (tail + cyc[:1])[i + 1]) for i in range(t)]
    return Graph(cyc + tail, bundles)


def doubled_line(k: int) -> Graph:
    """u1 -> ... -> uk by bundles of multiplicity 2: n = 2^k - 1 legs."""
    vs = [f"u{i}" for i in range(1, k + 1)]
    return Graph(vs, [Bundle(f"e{i}", f"u{i}", f"u{i + 1}", 2) for i in range(1, k)])
