"""The loader and the component pass against copies of their earlier forms.

``parse_graph_document`` now checks each edge in one loop, loads the edges
as int columns and runs ``validate`` only when the numbering shows an
undeclared endpoint or a duplicate id; ``_components`` runs over those
int columns, emits a successor-free vertex where it meets it, and
``cycles`` walks each single-cycle component once and searches only the
components holding more than one cycle.  The copies below are the
straightforward forms they replace: the loader that validated every
graph, and the passes over name-keyed dicts of Bundle lists that gave
every vertex a DFS frame and a cycle search.  Both forms must agree on
every input, read back through the vertex names.  So must
``load_graph``, which reads a file as bytes and decodes it itself, and the
text-mode read it replaces.

``oracle._walk_stream`` yields each sampled element as raw kernel keys
from an endless generator that walks p and q in two loops written out,
over tables and a generator it makes itself; the copy here is one call
per element that walks both in one loop, over tables built here.  Both
must give the same keys from the same ``getrandbits`` calls.

The record types (``graph.Record`` subclasses) are plain classes; each has
a frozen dataclass twin here, and a record must construct, compare, hash,
order, print, refuse assignment and copy as its twin does.
"""

import copy
import inspect
import itertools
import json
import operator
import pickle
import random
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import corpus
from conftest import FIXTURES

from leavitt import algebra, oracle
from leavitt.algebra import (
    MatrixUnits,
    Monomial,
    NilpotentOfIndex,
    NotNilpotentWithin,
    ResourceLimit,
)
from leavitt.exprparse import Ident, Power, Product, ScalarLiteral, Star, Sum
from leavitt.graph import (
    OMEGA,
    AdmissiblePair,
    Bundle,
    Cycle,
    CycleTarget,
    CycleThroughOmegaBundle,
    CycleWithExit,
    EdgeRef,
    Graph,
    Path,
    Record,
    SinkTarget,
    _components,
    cycles,
)
from leavitt.graphio import (
    GraphFormatError,
    GraphSyntaxError,
    GraphValidationError,
    canonical_document,
    load_graph,
    parse_graph_document,
)
from leavitt.oracle import CrossCheckReport, Exit, RandomSpec, random_graph
from leavitt.structure import (
    BASE_K,
    BASE_LAURENT,
    Bounded,
    Decomposition,
    Factor,
    OmegaPathFamily,
    Unbounded,
)

# -- the loader -------------------------------------------------------------------


def _reference_validate(g: Graph) -> list:
    violations = []
    seen_v = set()
    for v in g.vertices:
        if v in seen_v:
            violations.append(f"duplicate vertex id: {v!r}")
        seen_v.add(v)
    seen_b = set()
    for b in g.bundles:
        if b.id in seen_b:
            violations.append(f"duplicate bundle id: {b.id!r}")
        seen_b.add(b.id)
        if b.src not in seen_v:
            violations.append(f"bundle {b.id!r}: src {b.src!r} is not a declared vertex")
        if b.dst not in seen_v:
            violations.append(f"bundle {b.id!r}: dst {b.dst!r} is not a declared vertex")
        if b.mult is not OMEGA and (not isinstance(b.mult, int) or b.mult < 1):
            violations.append(f"bundle {b.id!r}: multiplicity must be a positive integer or omega")
    return violations


def _reference_parse(text: str) -> Graph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise GraphSyntaxError(
            f"line {err.lineno}, column {err.colno}: {err.msg}") from None
    except ValueError:
        raise GraphSyntaxError("an integer has more than "
                               f"{sys.get_int_max_str_digits()} digits") from None
    if not isinstance(doc, dict):
        raise GraphFormatError("document must be an object")
    vertices = doc.get("vertices")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise GraphFormatError("'vertices' must be a list of strings")
    edges = doc.get("edges", [])
    if not isinstance(edges, list):
        raise GraphFormatError("'edges' must be a list")
    bundles = []
    for i, e in enumerate(edges):
        if not isinstance(e, dict):
            raise GraphFormatError(f"edges[{i}] must be an object")
        try:
            bid, src, dst = e["id"], e["src"], e["dst"]
        except KeyError as err:
            raise GraphFormatError(f"edges[{i}] is missing {err}") from None
        if not all(isinstance(x, str) for x in (bid, src, dst)):
            raise GraphFormatError(f"edges[{i}]: id/src/dst must be strings")
        raw = e.get("mult", 1)
        if raw == "omega":
            mult = OMEGA
        elif isinstance(raw, int) and not isinstance(raw, bool) and raw >= 1:
            mult = raw
        else:
            raise GraphFormatError(
                f"edges[{i}]: mult must be a positive integer or \"omega\"")
        bundles.append(Bundle(bid, src, dst, mult))
    g = Graph(vertices, bundles)
    violations = _reference_validate(g)
    if violations:
        raise GraphValidationError(violations)
    return g


def _outcome(parse, text: str):
    try:
        return "graph", parse(text)
    except (GraphSyntaxError, GraphFormatError, GraphValidationError) as err:
        return type(err), str(err)


_NAMES = ["u", "v", "w", "x1", "é"]
_names = st.sampled_from(_NAMES)
_not_strings = st.one_of(st.none(), st.booleans(), st.integers(-2, 3),
                         st.just(1.0), st.lists(st.integers(), max_size=2))
_ids = st.one_of(_names, st.sampled_from(["e1", "e2", "e3"]), _not_strings)
_ends = st.one_of(_names, st.just("nowhere"), _not_strings)
_MISSING = object()
_mults = st.sampled_from([_MISSING, True, False, 0, -1, 1.0, "omega", "x", None,
                          1, 2, 3, 10 ** 20])


@st.composite
def _edge(draw, well_formed: bool):
    """One entry of the edges list.  A well-formed entry passes the
    per-edge checks, but may still name an undeclared vertex or repeat an
    id, which only the validation step reports."""
    if well_formed:
        e = {"id": draw(st.sampled_from(["e1", "e2", "e3", "e4", "e5"])),
             "src": draw(_names), "dst": draw(_names)}
        mult = draw(st.sampled_from([_MISSING, 1, 2, "omega"]))
    else:
        if draw(st.integers(0, 9)) == 0:
            return draw(st.one_of(_not_strings, _names))  # not an object
        e = {"id": draw(_ids), "src": draw(_ends), "dst": draw(_ends)}
        for key in draw(st.sets(st.sampled_from(["id", "src", "dst"]), max_size=2)):
            del e[key]
        mult = draw(_mults)
    if mult is not _MISSING:
        e["mult"] = mult
    return e


@st.composite
def _documents(draw):
    shape = draw(st.integers(0, 19))
    if shape == 0:  # malformed text or a non-object document
        return draw(st.sampled_from(["", "{", "[]", "3", '"x"', "null",
                                     '{"vertices": [1e999999]}']))
    vertices = draw(st.lists(_names, max_size=6))  # duplicates included
    if shape == 1:
        vertices = draw(st.one_of(_not_strings, st.lists(st.one_of(_names, _not_strings),
                                                         min_size=1, max_size=3)))
    well_formed = shape >= 10
    edges = draw(st.lists(_edge(well_formed), max_size=6))
    doc = {"vertices": vertices, "edges": edges}
    if shape == 2:
        doc["edges"] = draw(_not_strings)
    if shape == 3:
        del doc["edges"]
    if shape == 4:
        del doc["vertices"]
    return json.dumps(doc)


@settings(max_examples=500, deadline=None)
@given(_documents())
def test_loader_matches_reference(text):
    """Equal graphs, or the same exception type with the same message."""
    assert _outcome(parse_graph_document, text) == _outcome(_reference_parse, text)


def test_loader_reference_sees_every_fault():
    """Documents that reach each outcome the loader has, one of them with
    six violations at once."""
    seen = set()
    examples = [
        '{"vertices": ["u", "v"], "edges": [{"id": "e", "src": "u", "dst": "v"}]}',
        '{"vertices": ["u", "u"], "edges": []}',
        '{"vertices": ["u"], "edges": [{"id": "e", "src": "u", "dst": "v"}]}',
        '{"vertices": ["u"], "edges": [{"id": "e", "src": "u", "dst": "u"},'
        ' {"id": "e", "src": "u", "dst": "u", "mult": 2}]}',
        '{"vertices": ["v", "u", "v"], "edges": [{"id": "b", "src": "w", "dst": "x"},'
        ' {"id": "b", "src": "v", "dst": "y"}, {"id": "a", "src": "z", "dst": "u"}]}',
        '{"vertices": ["u"], "edges": [{"id": "e", "src": "u", "dst": "u", "mult": true}]}',
        '{"vertices": ["u"], "edges": [{"id": "e", "src": "u", "dst": "u", "mult": 1.0}]}',
        '{"vertices": ["u"], "edges": [7]}',
        '{"vertices": ["u"], "edges": [{"id": 1, "src": "u", "dst": "u"}]}',
        '{"vertices": ["u"], "edges": [{"src": "u", "dst": "u"}]}',
        '{"vertices": [1]}', '{"edges": []}', "[", "[]", '[' + '9' * 5000 + ']',
    ]
    for text in examples:
        got = _outcome(parse_graph_document, text)
        assert got == _outcome(_reference_parse, text), text
        seen.add(got[0])
    assert seen == {"graph", GraphSyntaxError, GraphFormatError, GraphValidationError}
    # several violations at once are all named, in validate's order
    _, message = _outcome(parse_graph_document, examples[4])
    assert message.count(";") == 5 and message.startswith("duplicate vertex id: 'v'")


def _reference_load(path: str) -> Graph:
    """The file loader as a text-mode read."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as err:
            raise GraphSyntaxError(
                f"byte {err.start}: not UTF-8 text ({err.reason})") from None
    return parse_graph_document(text)


def _load_outcome(load, path: str):
    try:
        return "graph", load(path)
    except (OSError, GraphSyntaxError, GraphFormatError, GraphValidationError) as err:
        return type(err), str(err)


_PIECES = [b"\r", b"\n", b"\r\n", b"\r\r\n", b"\n\r", b" ", b"\xef\xbb\xbf", b"\xff",
           b"\xc3", b"\xe2\x82", b"\xc3\xa9", b"{", b",", b"]"]


@st.composite
def _document_bytes(draw):
    """A document of ``_documents``, indented or not, with up to four
    pieces inserted (line ends of each kind, a BOM, invalid or truncated
    UTF-8, stray JSON syntax), then possibly cut short, then possibly
    after a leading BOM."""
    text = draw(_documents())
    if draw(st.booleans()):
        try:
            text = json.dumps(json.loads(text), indent=draw(st.sampled_from([1, 2])))
        except ValueError:
            pass
    data = text.encode()
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(_PIECES)) + data[at:]
    if draw(st.integers(0, 4)) == 0:
        data = data[:draw(st.integers(0, len(data)))]
    if draw(st.integers(0, 4)) == 0:
        data = b"\xef\xbb\xbf" + data
    return data


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_document_bytes())
def test_file_loader_matches_text_mode_reference(tmp_path, data):
    """``load_graph`` reads bytes and translates line ends itself: the
    same graph as a text-mode read, or the same exception and message,
    line and column included."""
    path = str(tmp_path / "g.graph")
    with open(path, "wb") as fh:
        fh.write(data)
    assert _load_outcome(load_graph, path) == _load_outcome(_reference_load, path)


def test_file_loader_matches_text_mode_reference_without_a_file(tmp_path):
    """A missing path and a directory fail as the text-mode read fails."""
    for path in (str(tmp_path / "missing.graph"), str(tmp_path)):
        got = _load_outcome(load_graph, path)
        assert got == _load_outcome(_reference_load, path) and got[0] != "graph"


# -- the component pass -------------------------------------------------------------


def _reference_tables(g: Graph) -> tuple:
    """Successor lists (sorted, for every vertex) and in-bundle lists, built
    from the bundles alone."""
    out = {v: [] for v in g.vertices}
    into = {v: [] for v in g.vertices}
    for b in g.bundles:
        out[b.src].append(b)
        into[b.dst].append(b)
    succ = {v: sorted({b.dst for b in out[v]}) for v in g.vertices}
    return out, into, succ


def _reference_out_degree(g: Graph, v: str):
    total = 0
    for b in _reference_tables(g)[0][v]:
        if b.mult is OMEGA:
            return OMEGA
        total += b.mult
    return total


def _reference_components(g: Graph) -> tuple:
    """(comp, members, inner, sinks, paths): Tarjan with a frame for every
    vertex, then the path-count pass over the condensation."""
    _, into_of, succ = _reference_tables(g)
    index, low, comp, found, stack = {}, {}, {}, [], []
    for root in g.vertices:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if w not in comp:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    members = []
                    while v not in comp:
                        members.append(stack.pop())
                        comp[members[-1]] = len(found)
                    found.append(sorted(members))
    found.reverse()
    comp = {v: len(found) - 1 - i for v, i in comp.items()}

    inner = [0] * len(found)
    left = [False] * len(found)
    for b in g.bundles:
        i, j = comp[b.src], comp[b.dst]
        if i != j:
            left[i] = True
        else:
            inner[i] = OMEGA if OMEGA in (inner[i], b.mult) else inner[i] + b.mult

    paths, feed = {}, {}
    for i, members in enumerate(found):
        cnt = len(members)
        for v in members:
            for b in into_of[v]:
                if comp[b.src] != i:
                    f = feed[b.src]
                    cnt = OMEGA if OMEGA in (cnt, f, b.mult) else cnt + b.mult * f
        cyclic = inner[i] != 0
        if cyclic and inner[i] != len(members):
            cnt = OMEGA
        for v in members:
            paths[v], feed[v] = cnt, (OMEGA if cyclic else cnt)
    return comp, found, inner, left.count(False), paths


def _reference_vertex_cycles(g: Graph) -> list:
    """A cycle search from every vertex."""
    comp = _reference_components(g)[0]
    succ = _reference_tables(g)[2]
    found = []
    for start in g.vertices:
        trail, on_trail = [start], {start}
        work = [iter(succ[start])]
        while work:
            for nxt in work[-1]:
                if nxt == start:
                    found.append(trail[:])
                elif nxt > start and nxt not in on_trail and comp[nxt] == comp[start]:
                    trail.append(nxt)
                    on_trail.add(nxt)
                    work.append(iter(succ[nxt]))
                    break
            else:
                work.pop()
                on_trail.discard(trail.pop())
    return found


def _reference_cycles(g: Graph):
    comp = _reference_components(g)[0]
    if any(b.mult is OMEGA and comp[b.src] == comp[b.dst] for b in g.bundles):
        return CycleThroughOmegaBundle
    out_of = _reference_tables(g)[0]
    found = []
    for vcyc in _reference_vertex_cycles(g):
        arcs = zip(vcyc, vcyc[1:] + vcyc[:1])
        choices = [sorted(EdgeRef(b.id, i) for b in out_of[x] if b.dst == y
                          for i in range(b.mult)) for x, y in arcs]
        found.extend(Cycle(combo) for combo in itertools.product(*choices))
    found.sort(key=lambda c: (len(c.edges), c.edges))
    return found


def _skewed(seed: int, sinks: bool) -> Graph:
    """Mostly sinks (a few sources fanning out to many sinks) or mostly
    sources (many sources feeding a few vertices that may form cycles)."""
    rng = random.Random(seed)
    hubs = [f"h{i}" for i in range(rng.randint(1, 3))]
    leaves = [f"l{i:02d}" for i in range(rng.randint(5, 40))]
    bundles = []
    for i, leaf in enumerate(leaves):
        hub = rng.choice(hubs)
        src, dst = (hub, leaf) if sinks else (leaf, hub)
        bundles.append(Bundle(f"b{i:02d}", src, dst, rng.randint(1, 2)))
    for j in range(rng.randint(0, 3)):  # arcs among the hubs, loops included
        bundles.append(Bundle(f"c{j}", rng.choice(hubs), rng.choice(hubs)))
    return Graph(hubs + leaves, bundles)


def _component_graphs() -> list:
    graphs = [random_graph(RandomSpec(seed=seed, omega_probability=omega))
              for seed in range(150) for omega in (Fraction(0), Fraction(1, 4))]
    graphs += [random_graph(RandomSpec(seed=seed, max_vertices=30, max_bundles=45))
               for seed in range(30)]
    graphs += [corpus.clock(m) for m in (1, 2, 5, 60)]
    graphs += [corpus.line(k) for k in (1, 2, 7, 60)]
    graphs += [_skewed(seed, sinks) for seed in range(40) for sinks in (True, False)]
    graphs += [build() for build in corpus.CORPUS.values()]
    return graphs


def _int_core_graphs() -> list:
    """The shapes above, the fixtures, and 1000 seeded random graphs with
    and without omega bundles and multiplicities up to 3."""
    graphs = _component_graphs()
    graphs += [load_graph(str(path)) for path in sorted(FIXTURES.glob("*.graph"))]
    graphs += [random_graph(RandomSpec(seed=seed, max_mult=1 + seed % 3,
                                       omega_probability=omega))
               for seed in range(1000, 1500) for omega in (Fraction(0), Fraction(1, 5))]
    return graphs


def test_component_pass_matches_reference():
    """The int component table, read back through the vertex names,
    against the reference pass: the same vertex partition, each member
    list ascending; loops and tangles are the reference components whose
    inside multiplicity equals, or exceeds, their size; members in reverse
    topological order; the same sinks and path counts.  The Bundle records
    of each vertex's out and in bundle ints are the reference tables'
    lists."""
    for g in _int_core_graphs():
        s, name = _components(g), g.vertices.__getitem__
        _, members, inner, sinks, paths = _reference_components(g)
        named = [list(map(name, m)) for m in s.members]
        assert sorted(named) == sorted(members), g
        assert all(m == sorted(m) for m in s.members), g
        assert all(v in s.members[i] for v, i in enumerate(s.comp)), g
        assert len(s.comp) == len(g.vertices), g
        size = {tuple(m): k for m, k in zip(members, inner)}
        assert sorted(named[i] for i in s.loops) == \
            sorted(m for m in members if size[tuple(m)] == len(m)), g
        assert sorted(named[i] for i in s.tangles) == \
            sorted(m for m in members if size[tuple(m)] is OMEGA
                   or size[tuple(m)] > len(m)), g
        assert all(s.comp[u] >= s.comp[w] for u, w in zip(g.srcs, g.dsts)), g
        assert (s.sinks, dict(zip(g.vertices, s.paths))) == (sinks, paths), g
        try:
            got = cycles(g)
        except CycleThroughOmegaBundle:
            got = CycleThroughOmegaBundle
        assert got == _reference_cycles(g), g
        degrees = {v: _reference_out_degree(g, v) for v in g.vertices}
        assert {v: g.out_degree(v) for v in g.vertices} == degrees, g
        assert g.sinks() == [v for v in g.vertices if degrees[v] == 0], g
        out, into, _ = _reference_tables(g)
        bundles = g.bundles
        assert all([bundles[j] for j in g.out[i]] == out[v]
                   and [bundles[j] for j in g.into[i]] == into[v]
                   for i, v in enumerate(g.vertices)), g
        assert [g.bundle(b.id) for b in bundles] == list(bundles), g


def _bundles_of(text: str) -> tuple:
    """(vertices, Bundles) of a well-formed graph document."""
    doc = json.loads(text)
    return doc["vertices"], [Bundle(e["id"], e["src"], e["dst"], OMEGA if e.get("mult") == "omega"
                                    else e.get("mult", 1)) for e in doc.get("edges", [])]


def _assert_same_columns(g: Graph, h: Graph) -> None:
    assert (g.vertices, g.ids, g.srcs, g.dsts, g.mults) == \
        (h.vertices, h.ids, h.srcs, h.dsts, h.mults)
    assert (g.out, g.into, g.deg) == (h.out, h.into, h.deg)
    assert g == h and hash(g) == hash(h)


@settings(max_examples=300, deadline=None)
@given(_documents())
def test_loader_and_constructor_build_the_same_columns(text):
    """parse_graph_document and Graph(vertices, bundles) on the same
    document give the same columns, ==, hash and Bundle views, for valid
    documents and, through the views, for those only validate refuses."""
    try:
        g = parse_graph_document(text)
    except GraphValidationError:
        vertices, bundles = _bundles_of(text)
        assert _reference_validate(Graph(vertices, bundles))
        return
    except (GraphSyntaxError, GraphFormatError):
        return
    vertices, bundles = _bundles_of(text)
    h = Graph(vertices, bundles)
    _assert_same_columns(g, h)
    assert g.bundles == tuple(sorted(bundles, key=operator.attrgetter("id")))


def test_loader_and_constructor_agree_on_the_int_core_graphs():
    for g in _int_core_graphs():
        _assert_same_columns(g, parse_graph_document(canonical_document(g)))
        _assert_same_columns(g, Graph(reversed(g.vertices), reversed(g.bundles)))


class _CountingList(list):
    """A list that counts its item lookups."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def test_single_cycle_components_are_walked_once():
    """A component that is one cycle is walked once from its least vertex,
    not searched from each of its vertices: on a 300-cycle visiting its
    vertices in a shuffled order, beside a 3-cycle, a loop, a component of
    two cycles and tails into each, the cycles come out as the search from
    every vertex lists them, with O(V) out-list lookups."""
    rng = random.Random(7)
    ring = [f"c{i:03d}" for i in range(300)]
    rng.shuffle(ring)
    arcs = list(zip(ring, ring[1:] + ring[:1]))
    arcs += [("b1", "b3"), ("b3", "b2"), ("b2", "b1"), ("z", "z"),
             ("m", "n"), ("n", "m"), ("m", "o"), ("o", "m")]
    arcs += [(f"t{i}", target) for i, target in enumerate(("c150", "b2", "z", "o", "t0"))]
    bundles = [Bundle(f"e{i}", u, v) for i, (u, v) in enumerate(arcs)]
    g = Graph({v for arc in arcs for v in arc}, bundles)
    _components(g)
    g.out = out = _CountingList(g.out)
    found = cycles(g)
    assert found == _reference_cycles(g)
    assert sorted(len(c.edges) for c in found) == [1, 2, 2, 3, 300]
    assert 0 < out.lookups <= 2 * len(g.vertices)


def test_component_graphs_cover_the_shapes():
    """The corpus above has omega bundles on and off cycles, graphs with
    more sinks than other vertices and with more sources than others."""
    graphs = _component_graphs()
    omega_cycle = omega_tail = many_sinks = many_sources = 0
    for g in graphs:
        s = _components(g)
        on_cycle = [s.comp[u] == s.comp[w]
                    for u, w, m in zip(g.srcs, g.dsts, g.mults) if m is OMEGA]
        omega_cycle += any(on_cycle)
        omega_tail += not all(on_cycle)
        sources = sum(not js for js in g.into)
        many_sinks += 2 * len(g.sinks()) > len(g.vertices) > 4
        many_sources += 2 * sources > len(g.vertices) > 4
    assert min(omega_cycle, omega_tail, many_sinks, many_sources) >= 10


# -- the record types --------------------------------------------------------------
#
# Each record type has a frozen dataclass twin with the same fields and
# defaults, the form every record had before the records became plain
# classes.  A record and its twin built from the same arguments must behave
# alike; the twins' fields hold the same (real) nested records.


@dataclass(frozen=True, slots=True)
class RefBundle:
    id: str
    src: str
    dst: str
    mult: object = 1


@dataclass(frozen=True, order=True)
class RefEdgeRef:
    bundle: str
    index: int = 0


@dataclass(frozen=True)
class RefPath:
    base: str
    edges: tuple = ()


@dataclass(frozen=True)
class RefCycle:
    edges: tuple


@dataclass(frozen=True)
class RefAdmissiblePair:
    H: frozenset
    S: frozenset = frozenset()


@dataclass(frozen=True)
class RefCycleWithExit:
    cycle: object
    edge: object


@dataclass(frozen=True)
class RefSinkTarget:
    vertex: str


@dataclass(frozen=True)
class RefCycleTarget:
    cycle: object


@dataclass(frozen=True)
class RefMonomial:
    p: object
    q: object


@dataclass(frozen=True)
class RefNilpotentOfIndex:
    index: int


@dataclass(frozen=True)
class RefNotNilpotentWithin:
    bound: int


@dataclass(frozen=True)
class RefResourceLimit:
    power: int
    terms: int


@dataclass(frozen=True)
class RefMatrixUnits:
    graph: object
    legs: tuple
    provenance: object


@dataclass(frozen=True)
class RefOmegaPathFamily:
    vertex: str


@dataclass(frozen=True)
class RefBounded:
    n: int
    per_target: tuple
    witness_target: object


@dataclass(frozen=True)
class RefUnbounded:
    reason: object


@dataclass(frozen=True, order=True)
class RefFactor:
    size: int
    base: str


@dataclass(frozen=True)
class RefDecomposition:
    factors: tuple


@dataclass(frozen=True)
class RefSum:
    parts: tuple


@dataclass(frozen=True)
class RefProduct:
    factors: tuple


@dataclass(frozen=True)
class RefStar:
    inner: object


@dataclass(frozen=True)
class RefPower:
    inner: object
    exponent: int


@dataclass(frozen=True)
class RefScalarLiteral:
    value: Fraction


@dataclass(frozen=True)
class RefIdent:
    name: str
    index: int | None = None


@dataclass(frozen=True)
class RefExit:
    edge: object
    omega: bool = False


@dataclass(frozen=True)
class RefRandomSpec:
    seed: int
    max_vertices: int = 8
    max_bundles: int = 14
    max_mult: int = 2
    omega_probability: Fraction = Fraction(0)


@dataclass(frozen=True)
class RefCrossCheckReport:
    n: int
    trials: int
    probe_bound: int
    seed: int
    nilpotent_found: int
    resource_limited: int
    empirical_max_index: int
    witness_index: int
    violations: tuple


_LOOP = Cycle((EdgeRef("a"),))

# record type -> argument tuples to build it from, each with the required
# arguments first; some share their field values with another type's
_RECORD_ARGS = {
    Bundle: [("b1", "u", "v"), ("b1", "u", "v", 3), ("b2", "u", "u", OMEGA)],
    EdgeRef: [("a",), ("a", 1), ("b", 0), ("b1", 3)],
    Path: [("v",), ("u", (EdgeRef("a"),)), ((EdgeRef("a"),),)],
    Cycle: [((EdgeRef("a"),),), ((EdgeRef("a"), EdgeRef("b", 1)),)],
    AdmissiblePair: [(frozenset({"u"}),), (frozenset({"u"}), frozenset({"w"}))],
    CycleWithExit: [(_LOOP, EdgeRef("b"))],
    SinkTarget: [("v",), ("u",)],
    CycleTarget: [(_LOOP,)],
    Monomial: [(Path("v"), Path("v")), (Path("u", (EdgeRef("a"),)), Path("v"))],
    NilpotentOfIndex: [(2,), (3,)],
    NotNilpotentWithin: [(2,)],
    ResourceLimit: [(3, 100), (2, 3)],
    MatrixUnits: [(corpus.clock(2), (Path("w1"),), SinkTarget("w1"))],
    OmegaPathFamily: [("v",)],
    Bounded: [(2, ((SinkTarget("v"), 2),), SinkTarget("v")), (1, (), None)],
    Unbounded: [(OmegaPathFamily("v"),), (CycleWithExit(_LOOP, EdgeRef("b")),)],
    Factor: [(2, BASE_K), (1, BASE_LAURENT), (2, BASE_LAURENT), (3, BASE_K)],
    Decomposition: [((Factor(1, BASE_K),),), ((),)],
    Sum: [(((1, Ident("x")), (-1, Ident("y", 0))),)],
    Product: [((Ident("x"), Ident("y", 0)),), ((),)],
    Star: [(Ident("x"),)],
    Power: [(Ident("x"), 3), (Star(Ident("x")), 2)],
    ScalarLiteral: [(Fraction(1, 2),), (2,)],
    Ident: [("x",), ("x", 0), ("v", None)],
    Exit: [(EdgeRef("a"),), (EdgeRef("a"), True)],
    RandomSpec: [(7,), (7, 5, 6, 3, Fraction(1, 4))],
    CrossCheckReport: [(2, 10, 3, 0, 1, 0, 2, 2, ()), (2, 10, 3, 0, 1, 0, 2, 2, ((1, 3),))],
}
_TWIN = {cls: globals()[f"Ref{cls.__name__}"] for cls in _RECORD_ARGS}


def _samples() -> list:
    """(record, twin) pairs, each built twice from separate calls."""
    return [(cls(*args), _TWIN[cls](*args))
            for cls, arg_list in _RECORD_ARGS.items() for args in arg_list for _ in range(2)]


def _field_values(twin) -> tuple:
    return tuple(getattr(twin, f.name) for f in fields(twin))


def test_every_record_type_has_a_twin():
    assert set(Record.__subclasses__()) == set(_RECORD_ARGS)
    assert len(_RECORD_ARGS) == 27


def _parameters(cls) -> list:
    return [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]


def test_records_construct_like_their_twins():
    """Same parameters and defaults; positional, keyword and default-filled
    calls set the same field values."""
    for cls, arg_list in _RECORD_ARGS.items():
        twin = _TWIN[cls]
        assert _parameters(cls) == _parameters(twin), cls
        names = [f.name for f in fields(twin)]
        required = sum(default is inspect.Parameter.empty for _, _, default in _parameters(cls))
        for args in arg_list:
            calls = (args, {}), ((), dict(zip(names, args))), (args[:required], {})
            for positional, keywords in calls:
                record = cls(*positional, **keywords)
                assert tuple(getattr(record, name) for name in names) == \
                    _field_values(twin(*positional, **keywords)), (cls, positional, keywords)


def test_records_compare_hash_and_print_like_their_twins():
    samples = _samples()
    for record, twin in samples:
        assert hash(record) == hash(twin), record
        assert "Ref" + repr(record) == repr(twin)
    for (a, ref_a), (b, ref_b) in itertools.product(samples, repeat=2):
        assert (a == b) is (ref_a == ref_b), (a, b)
        assert (a != b) is (ref_a != ref_b), (a, b)
    assert NilpotentOfIndex(2) != NotNilpotentWithin(2)
    assert SinkTarget("v") != OmegaPathFamily("v")
    assert EdgeRef("a", 0) != ("a", 0)


def test_ordered_records_order_like_their_twins():
    for cls in (EdgeRef, Factor):
        samples = [pair for pair in _samples() if type(pair[0]) is cls]
        for (a, ref_a), (b, ref_b) in itertools.product(samples, repeat=2):
            for op in (operator.lt, operator.le, operator.gt, operator.ge):
                assert op(a, b) is op(ref_a, ref_b), (op, a, b)
        assert [twin for _, twin in sorted(samples, key=operator.itemgetter(0))] == \
            sorted(twin for _, twin in samples)
    unordered = [(EdgeRef("a"), Factor(1, BASE_K)), (EdgeRef("a"), Path("a")),
                 (Factor(1, BASE_K), (1, BASE_K)), (Path("a"), Path("b"))]
    for a, b in unordered:
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                op(a, b)
    with pytest.raises(TypeError):
        RefPath("a") < RefPath("b")


def test_records_are_frozen_like_their_twins():
    # A name that is not a field is refused too; the slotted dataclass twin
    # of Bundle raises TypeError there instead, so only records try it.
    for record, twin in _samples()[::2]:
        names = [f.name for f in fields(twin)]
        for obj, tried in ((record, names + ["other"]), (twin, names)):
            for name in tried:
                with pytest.raises(AttributeError) as assigned:
                    setattr(obj, name, 0)
                with pytest.raises(AttributeError) as deleted:
                    delattr(obj, name)
                assert str(assigned.value) == f"cannot assign to field {name!r}"
                assert str(deleted.value) == f"cannot delete field {name!r}"
        assert _field_values(twin) == tuple(getattr(record, name) for name in names)
    assert not hasattr(Bundle("b", "u", "v"), "__dict__")
    assert not hasattr(RefBundle("b", "u", "v"), "__dict__")


def test_records_copy_and_pickle_like_their_twins():
    for record, twin in _samples()[::2]:
        for obj in (record, twin):
            for made in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
                assert type(made) is type(obj) and made == obj, obj


def test_matrix_units_walk_their_legs_once(monkeypatch):
    g = corpus.clock(3)
    legs = (Path("w1"), Path("v", (EdgeRef("e1"),)))
    walks = []

    def counting(graph, p):
        walks.append(p)
        return path_key(graph, p)

    path_key = algebra._path_key
    monkeypatch.setattr(algebra, "_path_key", counting)
    units = MatrixUnits(g, legs, SinkTarget("w1"))
    assert "_leg_keys" not in vars(units)
    first = units._leg_keys
    assert units._leg_keys is first and vars(units)["_leg_keys"] is first
    assert walks == list(legs)
    assert units == MatrixUnits(g, legs, SinkTarget("w1"))


# -- the draw ------------------------------------------------------------------------

_COEFFICIENTS = (-3, -2, -1, 1, 2, 3)


def _reference_walk_tables(g: Graph) -> tuple:
    """The walk tables ``(out, into)``: per vertex int, ``(n, k, entries)``
    for its bundles in ``g.out``/``g.into`` order, with n their count and
    k its bit width, and an entry ``(other end, first, step, choices,
    width)`` that takes ``(first, step)`` from the kernel, ``choices`` from
    the bundle's multiplicity (4, its first four edges, for omega) and
    ``width`` as choices' bit width."""
    first = algebra._kernel(g).first
    tables = []
    for lists, ends in ((g.out, g.dsts), (g.into, g.srcs)):
        rows = []
        for js in lists:
            entries = []
            for j in js:
                choices = 4 if g.mults[j] is OMEGA else g.mults[j]
                entries.append((ends[j], first[j][0], first[j][1], choices,
                                choices.bit_length()))
            rows.append((len(entries), len(entries).bit_length(), tuple(entries)))
        tables.append(rows)
    return tuple(tables)


def _reference_random_keys(g: Graph, tables: tuple, max_terms: int,
                           max_path_len: int) -> list:
    """The draw of one element as raw (kernel key, coefficient) pairs, vertex
    ints for bases, as one function that built the keys as it walked."""
    out, into, rng = tables
    raw = []
    if not g.vertices:
        return raw
    bits = rng.getrandbits
    n_v = len(g.vertices)
    k_v = n_v.bit_length()
    n_len = max_path_len + 1
    k_len = n_len.bit_length()
    k_terms = max_terms.bit_length()
    r = bits(k_terms)
    while r >= max_terms:
        r = bits(k_terms)
    for _ in range(r + 1):
        r = bits(k_v)
        while r >= n_v:
            r = bits(k_v)
        base = at = r
        walks = []
        for steps in (out, into):  # p forward from base, then q back from p's end
            ids = []
            r = bits(k_len)
            while r >= n_len:
                r = bits(k_len)
            for _ in range(r):
                n, k, listed = steps[at]
                if not n:
                    break
                r = bits(k)
                while r >= n:
                    r = bits(k)
                at, first, step, n, k = listed[r]
                r = bits(k)
                while r >= n:
                    r = bits(k)
                ids.append(first + step * r)
            walks.append(ids)
        p, q = walks
        q.reverse()
        r = bits(3)  # a draw from the six coefficients
        while r >= 6:
            r = bits(3)
        raw.append(((base, tuple(p), at, tuple(q)), _COEFFICIENTS[r]))
    return raw


class _RecordingRandom(random.Random):
    """random.Random that lists its getrandbits calls as (k, r)."""

    def __init__(self, seed):
        self.draws = []
        super().__init__(seed)

    def getrandbits(self, k):
        r = super().getrandbits(k)
        self.draws.append((k, r))
        return r


def _draw_graphs() -> list:
    graphs = [load_graph(str(path)) for path in sorted(FIXTURES.glob("*.graph"))]
    assert len(graphs) == 14
    for omega in (Fraction(0), Fraction(1, 4)):
        graphs += [random_graph(RandomSpec(seed=s, max_mult=3, omega_probability=omega))
                   for s in range(200)]
    return graphs + [Graph([], [])]


def _recording_generators(monkeypatch) -> list:
    """A list that gains each generator ``oracle`` makes through
    ``random.Random`` from here on, each a _RecordingRandom."""
    made = []

    def making(seed):
        made.append(_RecordingRandom(seed))
        return made[-1]

    monkeypatch.setattr(oracle, "random", SimpleNamespace(Random=making))
    return made


@pytest.mark.parametrize("max_terms,max_path_len", [(4, 3), (6, 4), (1, 0)])
def test_walk_stream_draws_as_the_reference(max_terms, max_path_len, monkeypatch):
    """Trial for trial, the walk stream gives the reference's (key,
    coefficient) pairs from the same getrandbits calls, (k, r) in the
    same order, under the shape set in ``oracle.TRIAL_TERMS`` and
    ``oracle.TRIAL_PATH_LEN``, and makes exactly one generator, on its
    first draw: 30 trials of one stream on each fixture, and on 200 random
    graphs with multiplicities up to 3, without and with omega bundles,
    and on the empty graph."""
    omega = 0
    graphs = _draw_graphs()
    made = _recording_generators(monkeypatch)
    monkeypatch.setattr(oracle, "TRIAL_TERMS", max_terms)
    monkeypatch.setattr(oracle, "TRIAL_PATH_LEN", max_path_len)
    for i, g in enumerate(graphs):
        stream = oracle._walk_stream(g, i)
        theirs = _RecordingRandom(i)
        reference = _reference_walk_tables(g) + (theirs,)
        for t in range(30):
            assert next(stream) == \
                _reference_random_keys(g, reference, max_terms, max_path_len), (i, t)
            assert len(made) == i + 1, (i, t)
            assert made[i].draws == theirs.draws, (i, t)
        omega += any(m is OMEGA for m in g.mults)
    assert omega > 50
