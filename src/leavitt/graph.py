"""Finite directed graphs with edge-multiplicity bundles.

A graph here is a finite vertex set plus a list of *bundles*: a bundle with
multiplicity k stands for k parallel edges, addressed as (bundle id, index),
and multiplicity ``omega`` stands for countably many parallel edges.  This
module provides the structural algorithms the algebra layers are built on:
cycle enumeration, exit detection, path counting, hereditary saturated
subsets, breaking vertices and quotient graphs; :mod:`leavitt.algebra`
checks paths, in the walk that numbers their edges.  A path count is an
int, or OMEGA; the paths the bounded-index criterion counts end at a
SinkTarget or a CycleTarget (a cycle with no exit), and a CycleWithExit is
a cycle with one of its exits.

The structural predicates (cycle vertices, Conditions (K) and (L), downward
directedness, path counts) read one cached pass per graph: Tarjan's strongly
connected components without recursion, then one dynamic program over the
condensation in topological order.  A vertex without successors is its own
component, emitted where the search meets it with no DFS frame, and cycle
searches start only in components with a bundle inside.

A vertex is read through its total out-multiplicity,
:meth:`Graph.out_degree`: 0 at a sink, OMEGA at an infinite emitter, a
positive int at a regular vertex.  The out-degrees form one table, filled
in once by the constructor; ``is_sink``, ``is_regular`` and ``sinks`` read
it too.  A cycle has no exit exactly when every
vertex on it has out-degree 1.  Then a path that reaches the cycle stays on
it, so the cycle edges of a path into the cycle form its trailing run, and
the path contains the whole cycle exactly when that run has length at least
the cycle's length: callers test this with one set of the cycle's edges and
build no rotations (the window test over all rotations is kept in
:mod:`leavitt.oracle`).

Everything is immutable and iterates in lexicographic vertex/bundle order,
so all results are reproducible.  The package's value types (Bundle,
EdgeRef, Path, the verdicts, the expression tree) are :class:`Record`
subclasses: plain classes with written-out constructors, so importing the
package generates no code.
"""

from __future__ import annotations

import itertools
from collections import deque
from operator import attrgetter, ge, gt, le, lt
from typing import Iterable, NamedTuple


class LeavittError(Exception):
    """Base class for errors raised by this package."""


class UnknownVertex(LeavittError):
    pass


class UnknownBundle(LeavittError):
    pass


class InvalidPath(LeavittError):
    pass


class InvalidCycle(LeavittError):
    pass


class CycleThroughOmegaBundle(LeavittError):
    """An omega bundle lies on a closed walk; cycle enumeration is infinite."""


class NotHereditarySaturated(LeavittError):
    pass


class InvalidAdmissiblePair(LeavittError):
    pass


class CapExceeded(LeavittError):
    pass


class _Omega:
    """Singleton marker for countably infinite multiplicity."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "omega"


OMEGA = _Omega()


class Record:
    """Base of the package's immutable record types.

    A subclass lists its fields as annotations in the class body, names the
    same fields, in the same order, as its ``__slots__``, and writes out its
    own ``__init__``, which stores each field through the slot setters that
    :func:`slot_setters` binds once per class (``object.__setattr__`` would
    look the name up on every call, and ``__setattr__`` here refuses every
    assignment).  ``__init_subclass__`` reads the field names once and from
    them gives what ``@dataclass(frozen=True)`` would: ``==`` between
    records of the same type comparing the field tuples, ``hash`` of the
    field tuple, the dataclass ``repr`` text, AttributeError on assignment
    and deletion, pickling and copying through the constructor, and with
    ``order=True`` the four orderings of the field tuples.  Nothing is
    compiled: the dataclass decorator execs generated source for each
    class, about 1 ms per class on Python 3.11, paid at every start of the
    CLI.  A record without ``__slots__`` (only ``algebra.MatrixUnits``,
    whose ``cached_property`` needs an instance dict) stores its fields in
    its ``__dict__``.
    """

    __slots__ = ()

    def __init_subclass__(cls, order: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__dict__.get("__annotations__", ()))
        if tuple(cls.__dict__.get("__slots__", names)) != names:
            raise TypeError(f"{cls.__qualname__}: __slots__ must name the fields {names}")
        if len(names) == 1:  # attrgetter of one name gives the value, not a 1-tuple
            one = attrgetter(names[0])

            def fields(self):
                return (one(self),)
        else:
            fields = attrgetter(*names)
        form = f"{cls.__qualname__}({', '.join(n + '=%r' for n in names)})"

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return fields(self) == fields(other)
            return NotImplemented

        def __hash__(self):
            return hash(fields(self))

        def __repr__(self):
            return form % fields(self)

        def __reduce__(self):
            return self.__class__, fields(self)

        cls.__eq__, cls.__hash__, cls.__repr__, cls.__reduce__ = (
            __eq__, __hash__, __repr__, __reduce__)
        if order:
            cls.__lt__, cls.__le__, cls.__gt__, cls.__ge__ = (
                _ordering(fields, test) for test in (lt, le, gt, ge))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _ordering(fields, test):
    def compare(self, other):
        if other.__class__ is self.__class__:
            return test(fields(self), fields(other))
        return NotImplemented
    return compare


def slot_setters(cls) -> tuple:
    """The ``__set__`` of the slot descriptor of each field of the slotted
    record class cls, in field order: ``setter(record, value)`` stores a
    field as a plain slot assignment would, past ``Record.__setattr__``."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__dict__["__annotations__"])


class Bundle(Record):
    """A bundle of parallel edges from src to dst."""

    __slots__ = ("id", "src", "dst", "mult")

    id: str
    src: str
    dst: str
    mult: object  # positive int, or OMEGA

    def __init__(self, id: str, src: str, dst: str, mult: object = 1):
        _bundle_id(self, id)
        _bundle_src(self, src)
        _bundle_dst(self, dst)
        _bundle_mult(self, mult)


_bundle_id, _bundle_src, _bundle_dst, _bundle_mult = slot_setters(Bundle)


class EdgeRef(Record, order=True):
    """One edge of a bundle: (bundle id, index), with index < multiplicity."""

    __slots__ = ("bundle", "index")

    bundle: str
    index: int

    def __init__(self, bundle: str, index: int = 0):
        _edge_bundle(self, bundle)
        _edge_index(self, index)


_edge_bundle, _edge_index = slot_setters(EdgeRef)


class Path(Record):
    """A composable edge sequence; a bare vertex is the path of length 0.

    For nonempty paths ``base`` equals the source of the first edge.
    """

    __slots__ = ("base", "edges")

    base: str
    edges: tuple

    def __init__(self, base: str, edges: tuple = ()):
        _path_base(self, base)
        _path_edges(self, edges)

    def __len__(self) -> int:
        return len(self.edges)


_path_base, _path_edges = slot_setters(Path)


class Cycle(Record):
    """A closed path visiting no vertex twice, stored in the rotation that
    puts the lexicographically least source vertex first."""

    __slots__ = ("edges",)

    edges: tuple

    def __init__(self, edges: tuple):
        _cycle_edges(self, edges)


(_cycle_edges,) = slot_setters(Cycle)


class AdmissiblePair(Record):
    """A hereditary saturated vertex set H plus a subset S of its breaking
    vertices; names a graded ideal of the path algebra."""

    __slots__ = ("H", "S")

    H: frozenset
    S: frozenset

    def __init__(self, H: frozenset, S: frozenset = frozenset()):
        _pair_H(self, H)
        _pair_S(self, S)


_pair_H, _pair_S = slot_setters(AdmissiblePair)


class CycleWithExit(Record):
    """A cycle together with one of its exit edges."""

    __slots__ = ("cycle", "edge")

    cycle: Cycle
    edge: EdgeRef

    def __init__(self, cycle: Cycle, edge: EdgeRef):
        _exit_cycle(self, cycle)
        _exit_edge(self, edge)


_exit_cycle, _exit_edge = slot_setters(CycleWithExit)


class SinkTarget(Record):
    """A sink, where witness paths may end."""

    __slots__ = ("vertex",)

    vertex: str

    def __init__(self, vertex: str):
        _sink_vertex(self, vertex)


(_sink_vertex,) = slot_setters(SinkTarget)


class CycleTarget(Record):
    """A cycle with no exit, where witness paths may end."""

    __slots__ = ("cycle",)

    cycle: Cycle

    def __init__(self, cycle: Cycle):
        _target_cycle(self, cycle)


(_target_cycle,) = slot_setters(CycleTarget)


class Graph:
    """Immutable graph value; vertices and bundles are stored sorted.

    Construction is permissive (no invariant is enforced; the out-degree
    table only needs the multiplicities at a vertex to add up) so that
    :func:`validate` can report violations; every other operation assumes a
    valid graph.  The loader calls :func:`validate` only when its own
    per-edge checks have seen a fault.
    """

    __slots__ = ("vertices", "bundles", "_by_id", "_out", "_into", "_succ", "_deg",
                 "_scc", "_kernel", "_blocks")

    def __init__(self, vertices: Iterable[str], bundles: Iterable[Bundle] = ()):
        self.vertices = tuple(sorted(vertices))
        self.bundles = tuple(sorted(bundles, key=attrgetter("id")))
        self._by_id = {b.id: b for b in self.bundles}
        out = self._out = {v: [] for v in self.vertices}
        into = self._into = {v: [] for v in self.vertices}
        for b in self.bundles:
            src, dst = b.src, b.dst
            if src in out:
                out[src].append(b)
            if dst in into:
                into[dst].append(b)
        # successors and out-degrees (see out_degree), one vertex at a time;
        # only a vertex with two or more out-bundles sorts or sums
        succ, deg = {}, {}
        for v, bs in out.items():
            if len(bs) == 1:
                b = bs[0]
                succ[v], deg[v] = ((b.dst,) if b.dst in out else ()), b.mult
            elif bs:
                succ[v] = sorted({b.dst for b in bs if b.dst in out})
                mults = [b.mult for b in bs]
                deg[v] = OMEGA if OMEGA in mults else sum(mults)
            else:
                succ[v], deg[v] = (), 0
        self._succ, self._deg = succ, deg
        self._scc = None  # _Components, filled in on first use
        self._kernel = None  # algebra._Kernel, filled in on first use
        self._blocks = None  # structure.Blocks, filled in on first use

    def __eq__(self, other):
        return (isinstance(other, Graph)
                and self.vertices == other.vertices
                and self.bundles == other.bundles)

    def __hash__(self):
        return hash((self.vertices, self.bundles))

    def __repr__(self):
        return f"Graph(|V|={len(self.vertices)}, |B|={len(self.bundles)})"

    # -- lookups ----------------------------------------------------------

    def check_vertex(self, v: str) -> None:
        if v not in self._out:
            raise UnknownVertex(f"unknown vertex id: {v!r}")

    def bundle(self, bundle_id: str) -> Bundle:
        try:
            return self._by_id[bundle_id]
        except KeyError:
            raise UnknownBundle(f"unknown bundle id: {bundle_id!r}") from None

    def src(self, e: EdgeRef) -> str:
        return self.bundle(e.bundle).src

    def dst(self, e: EdgeRef) -> str:
        return self.bundle(e.bundle).dst

    def is_edge(self, e: EdgeRef) -> bool:
        b = self._by_id.get(e.bundle)
        if b is None or e.index < 0:
            return False
        return b.mult is OMEGA or e.index < b.mult

    def out_bundles(self, v: str) -> list:
        self.check_vertex(v)
        return list(self._out[v])

    def in_bundles(self, v: str) -> list:
        self.check_vertex(v)
        return list(self._into[v])

    def out_degree(self, v: str):
        """Total multiplicity of the bundles leaving v: an int, or OMEGA
        when one of them is an omega bundle.  Read from the table the
        constructor fills in."""
        d = self._deg.get(v)
        if d is None:
            self.check_vertex(v)
        return d

    def is_sink(self, v: str) -> bool:
        return self.out_degree(v) == 0

    def is_regular(self, v: str) -> bool:
        return self.out_degree(v) not in (0, OMEGA)

    def edges_out(self, v: str) -> list:
        """All EdgeRefs leaving v.  Only valid at vertices with finite
        out-multiplicity."""
        refs = []
        for b in self.out_bundles(v):
            if b.mult is OMEGA:
                raise LeavittError(
                    f"cannot enumerate edges of omega bundle {b.id!r}")
            refs.extend(EdgeRef(b.id, i) for i in range(b.mult))
        return sorted(refs)

    def sinks(self) -> list:
        return [v for v, d in self._deg.items() if d == 0]


# -- validation ------------------------------------------------------------

def validate(g: Graph) -> list:
    """Check all structural invariants; returns a list of violation strings,
    empty when the graph is well formed.  Each violation names the offending
    vertex or bundle id."""
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


# -- paths ------------------------------------------------------------------

def path_range(g: Graph, p: Path) -> str:
    return g.dst(p.edges[-1]) if p.edges else p.base


# -- cycles -----------------------------------------------------------------

def make_cycle(g: Graph, edges: Iterable[EdgeRef]) -> Cycle:
    """Build a cycle from its edges, validating and canonicalizing rotation."""
    edges = tuple(edges)
    if not edges:
        raise InvalidCycle("a cycle has at least one edge")
    srcs = []
    for e in edges:
        if not g.is_edge(e):
            raise InvalidCycle(f"not an edge of this graph: {e!r}")
        srcs.append(g.src(e))
    for e, nxt in zip(edges, edges[1:] + edges[:1]):
        if g.dst(e) != g.src(nxt):
            raise InvalidCycle("edges do not close up")
    if len(set(srcs)) != len(srcs):
        raise InvalidCycle("cycle passes through a vertex twice")
    k = srcs.index(min(srcs))
    return Cycle(edges[k:] + edges[:k])


def check_cycle(g: Graph, c: Cycle) -> None:
    if make_cycle(g, c.edges) != c:
        raise InvalidCycle(f"not a canonical cycle of this graph: {c!r}")


def cycle_vertices(g: Graph, c: Cycle) -> tuple:
    return tuple(g.src(e) for e in c.edges)


def rotate_cycle_to(g: Graph, c: Cycle, v: str) -> Path:
    """The cycle as a closed path based at its vertex v."""
    verts = cycle_vertices(g, c)
    if v not in verts:
        raise InvalidCycle(f"vertex {v!r} is not on the cycle")
    k = verts.index(v)
    return Path(v, c.edges[k:] + c.edges[:k])


# -- strongly connected components ----------------------------------------

class _Components(NamedTuple):
    """The strongly connected components of a graph and what is read off
    them; built once per graph by :func:`_components`."""

    comp: dict      # vertex -> index into members
    members: list   # vertex lists, in topological order (sources first)
    inner: list     # multiplicity of the bundles inside each component
    sinks: int      # components that no bundle leaves
    paths: dict     # vertex -> number of paths ending there
    # multiplicities and counts are ints or OMEGA


def _components(g: Graph) -> _Components:
    """Tarjan's algorithm with an explicit stack, then one pass over the
    condensation in topological order; cached on the graph.

    A vertex without successors is a component of its own: it is emitted
    where the search first meets it, which is where Tarjan's algorithm
    would emit it, and it takes neither a stack entry nor a work frame."""
    if g._scc is not None:
        return g._scc
    succ = g._succ
    index, low, comp, found, stack = {}, {}, {}, [], []
    for root in g.vertices:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        if not succ[root]:
            comp[root] = len(found)
            found.append([root])
            continue
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    if succ[w]:
                        index[w] = low[w] = len(index)
                        stack.append(w)
                        work.append((w, iter(succ[w])))
                        break
                    index[w] = len(index)
                    comp[w] = len(found)
                    found.append([w])
                elif w not in comp:  # still on the stack
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
    # Tarjan emits a component after every component it reaches
    found.reverse()
    comp = {v: len(found) - 1 - i for v, i in comp.items()}

    inner = [0] * len(found)
    left = [False] * len(found)
    for b in g.bundles:
        i, j = comp[b.src], comp[b.dst]
        if i != j:
            left[i] = True
        elif inner[i] is not OMEGA:
            inner[i] = OMEGA if b.mult is OMEGA else inner[i] + b.mult

    # paths ending at v: 1 + sum of mult * paths(src) over the bundles into
    # v, omega absorbing, where a source on a cycle feeds omega many (pump
    # the cycle).  All vertices of a component that is one simple cycle
    # share the sum of their own counts; any richer component gives omega.
    paths, feed, into = {}, {}, g._into
    for i, members in enumerate(found):
        cnt = len(members)  # the trivial path at each member
        for v in members:
            for b in into[v]:
                if comp[b.src] != i and cnt is not OMEGA:
                    f = feed[b.src]
                    cnt = OMEGA if f is OMEGA or b.mult is OMEGA else cnt + b.mult * f
        cyclic = inner[i] != 0
        if cyclic and inner[i] != len(members):
            cnt = OMEGA
        for v in members:
            paths[v], feed[v] = cnt, (OMEGA if cyclic else cnt)
    g._scc = _Components(comp, found, inner, left.count(False), paths)
    return g._scc


def _vertex_cycles(g: Graph) -> list:
    """Elementary vertex cycles, each once, minimal vertex first, listed by
    their minimal vertex.  Each search stays inside its start vertex's
    strongly connected component, and starts only in a component with a
    bundle inside it.  A component whose inside multiplicity equals its
    size is one cycle: it is walked once, from its least vertex, in time
    linear in its size (a search from each vertex would take quadratic
    time)."""
    s = _components(g)
    comp, inner, members, succ = s.comp, s.inner, s.members, g._succ
    found = []
    for start in g.vertices:
        i = comp[start]
        if inner[i] == 0:
            continue
        if inner[i] == len(members[i]):
            if start == members[i][0]:  # members are sorted
                trail, v = [], start
                while not trail or v != start:
                    trail.append(v)
                    v = next(w for w in succ[v] if comp[w] == i)
                found.append(trail)
            continue
        trail, on_trail = [start], {start}
        work = [iter(succ[start])]
        while work:
            for nxt in work[-1]:
                if nxt == start:
                    found.append(trail[:])
                elif nxt > start and nxt not in on_trail and comp[nxt] == i:
                    trail.append(nxt)
                    on_trail.add(nxt)
                    work.append(iter(succ[nxt]))
                    break
            else:
                work.pop()
                on_trail.discard(trail.pop())
    return found


def cycles(g: Graph) -> list:
    """All elementary cycles in canonical rotation, sorted; parallel edges
    give distinct cycles.

    Raises CycleThroughOmegaBundle when an omega bundle lies on a closed
    walk, in which case there are unboundedly many cycles.
    """
    comp = _components(g).comp
    for b in g.bundles:
        if b.mult is OMEGA and comp[b.src] == comp[b.dst]:
            raise CycleThroughOmegaBundle(
                f"omega bundle {b.id!r} lies on a closed walk")
    out = []
    for vcyc in _vertex_cycles(g):
        # one cycle per choice of parallel edge along each arc
        arcs = zip(vcyc, vcyc[1:] + vcyc[:1])
        choices = [sorted(EdgeRef(b.id, i) for b in g._out[x] if b.dst == y
                          for i in range(b.mult)) for x, y in arcs]
        out.extend(Cycle(combo) for combo in itertools.product(*choices))
    out.sort(key=lambda c: (len(c.edges), c.edges))
    return out


def component_cycles(g: Graph) -> list:
    """The cycles that form a whole strongly connected component (one per
    component whose inside multiplicity equals its vertex count), in
    canonical rotation and sorted as :func:`cycles` sorts.  When no cycle
    has an exit these are all the cycles of the graph."""
    s = _components(g)
    out = []
    for i, members in enumerate(s.members):
        if s.inner[i] != len(members):
            continue
        edges, v = [], members[0]
        while not edges or v != members[0]:
            b = next(b for b in g._out[v] if s.comp[b.dst] == i)
            edges.append(EdgeRef(b.id, 0))
            v = b.dst
        out.append(Cycle(tuple(edges)))
    out.sort(key=lambda c: (len(c.edges), c.edges))
    return out


def vertices_on_cycles(g: Graph) -> frozenset:
    """Vertices lying on some elementary cycle (equivalently, on any closed
    walk): those whose component has a bundle inside it."""
    s = _components(g)
    return frozenset(v for v, i in s.comp.items() if s.inner[i] != 0)


def cycle_exit_witness(g: Graph):
    """Find some CycleWithExit, or None when no cycle has an exit.

    Uses the out-degree test: a cycle vertex whose out-degree is not 1
    yields a witness.
    """
    for v in sorted(vertices_on_cycles(g)):
        if g.out_degree(v) == 1:
            continue
        walk = _shortest_closed_vertex_walk(g, v)
        edges = []
        for x, y in zip(walk, walk[1:] + walk[:1]):
            b = min((b for b in g._out[x] if b.dst == y), key=lambda b: b.id)
            edges.append(EdgeRef(b.id, 0))
        cyc = make_cycle(g, edges)
        cyc_edge = edges[0]
        for b in g._out[v]:
            limit = 2 if b.mult is OMEGA else b.mult
            for i in range(limit):
                e = EdgeRef(b.id, i)
                if e != cyc_edge:
                    return CycleWithExit(cyc, e)
    return None


def _shortest_closed_vertex_walk(g: Graph, v: str) -> list:
    """Vertex sequence of a shortest closed walk through v (elementary)."""
    parent = {}
    queue = deque()
    for w in g._succ[v]:
        if w == v:
            return [v]
        if w not in parent:
            parent[w] = None
            queue.append(w)
    while queue:
        at = queue.popleft()
        for w in g._succ[at]:
            if w == v:
                walk = [at]
                while parent[walk[-1]] is not None:
                    walk.append(parent[walk[-1]])
                walk.append(v)
                walk.reverse()
                return walk
            if w not in parent:
                parent[w] = at
                queue.append(w)
    raise InvalidCycle(f"no closed walk through {v!r}")


# -- reachability -----------------------------------------------------------

def reachable(g: Graph, u: str, v: str) -> bool:
    """True iff a (possibly trivial) path u -> v exists."""
    g.check_vertex(u)
    g.check_vertex(v)
    if u == v:
        return True
    seen = {u}
    queue = deque([u])
    while queue:
        for w in g._succ[queue.popleft()]:
            if w == v:
                return True
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return False


def downward_directed(g: Graph) -> bool:
    """True iff every pair of vertices has a common descendant: every
    vertex reaches a sink component, so this holds iff there is at most
    one."""
    return _components(g).sinks <= 1


# -- conditions (L) and (K) ---------------------------------------------------

def condition_L(g: Graph) -> bool:
    """Every cycle has at least one exit.  A cycle without one is a whole
    component in which every vertex emits exactly one edge."""
    s = _components(g)
    return not any(
        s.inner[i] != 0 and all(g.out_degree(v) == 1 for v in members)
        for i, members in enumerate(s.members))


def condition_K(g: Graph) -> bool:
    """Every vertex on a closed path is the base of at least two distinct
    closed simple paths.  A vertex bases only one exactly when its
    component is a single cycle: inside multiplicity equal to its size."""
    s = _components(g)
    return not any(s.inner[i] == len(members)
                   for i, members in enumerate(s.members))


# -- path counting -------------------------------------------------------------

def count_paths_ending_at(g: Graph, v: str):
    """Number of distinct paths ending at v, where a path containing v's
    unique cycle in full (as a contiguous window) is not counted: an int,
    or OMEGA.

    It is OMEGA when an omega bundle lies on a path into v, when a cycle
    not containing v reaches v, or when v lies on two or more distinct
    cycles.  Otherwise the count is finite; all counts come from one
    dynamic program over the strongly connected components.
    """
    g.check_vertex(v)
    return _components(g).paths[v]


# -- hereditary saturated machinery ---------------------------------------------

def hereditary_saturated_closure(g: Graph, X: Iterable[str]) -> frozenset:
    """Least superset of X closed downward under reachability and under
    saturation at regular vertices (sinks and infinite emitters are never
    forced in).

    One worklist pass, O(V + E): each regular vertex keeps the number of
    its bundles whose range is not yet in H, and enters H when that number
    reaches 0."""
    pending = {v: len(g._out[v]) for v, d in g._deg.items() if d not in (0, OMEGA)}
    work = []
    for v in X:
        g.check_vertex(v)
        work.append(v)
    H = set()
    while work:
        v = work.pop()
        if v in H:
            continue
        H.add(v)
        work.extend(g._succ[v])
        for b in g._into[v]:
            if b.src in pending:
                pending[b.src] -= 1
                if pending[b.src] == 0:
                    work.append(b.src)
    return frozenset(H)


def is_hereditary_saturated(g: Graph, X: Iterable[str]) -> bool:
    X = set(X)
    for v in X:
        g.check_vertex(v)
        if any(b.dst not in X for b in g._out[v]):
            return False
    for v in g.vertices:
        if v not in X and g.is_regular(v) \
                and all(b.dst in X for b in g._out[v]):
            return False
    return True


def all_hereditary_saturated(g: Graph, cap: int = 15) -> list:
    """Every hereditary saturated subset, as closures over the subset
    lattice; sorted by size then contents."""
    if len(g.vertices) > cap:
        raise CapExceeded(
            f"{len(g.vertices)} vertices exceeds enumeration cap {cap}")
    seen = set()
    for r in range(len(g.vertices) + 1):
        for combo in itertools.combinations(g.vertices, r):
            seen.add(hereditary_saturated_closure(g, combo))
    return sorted(seen, key=lambda H: (len(H), tuple(sorted(H))))


def breaking_vertices(g: Graph, H: Iterable[str]) -> frozenset:
    """Infinite emitters outside H with finitely many, and at least one,
    edges into the complement of H."""
    H = frozenset(H)
    if not is_hereditary_saturated(g, H):
        raise NotHereditarySaturated(f"not hereditary saturated: {sorted(H)}")
    result = set()
    for w in g.vertices:
        if w in H or g.out_degree(w) is not OMEGA:
            continue
        outside = [b for b in g._out[w] if b.dst not in H]
        if outside and all(b.mult is not OMEGA for b in outside):
            result.add(w)
    return frozenset(result)


def check_admissible_pair(g: Graph, p: AdmissiblePair) -> None:
    if not is_hereditary_saturated(g, p.H):
        raise InvalidAdmissiblePair(
            f"H is not hereditary saturated: {sorted(p.H)}")
    extra = p.S - breaking_vertices(g, p.H)
    if extra:
        raise InvalidAdmissiblePair(
            f"S contains non-breaking vertices: {sorted(extra)}")


def quotient_graph(g: Graph, p: AdmissiblePair) -> Graph:
    """The graph whose path algebra realizes the quotient by the graded
    ideal named by (H, S): vertices outside H, plus a primed duplicate for
    every breaking vertex not in S; bundles with range outside H survive,
    and bundles into a duplicated vertex gain a primed copy."""
    check_admissible_pair(g, p)
    keep = [v for v in g.vertices if v not in p.H]
    to_prime = sorted(breaking_vertices(g, p.H) - p.S)
    used = set(keep)
    prime_of = {}
    for v in to_prime:
        name = v + "'"
        while name in used:
            name += "'"
        prime_of[v] = name
        used.add(name)
    bundles = [b for b in g.bundles if b.dst not in p.H]
    used_ids = {b.id for b in bundles}
    for b in g.bundles:
        if b.dst in prime_of:
            name = b.id + "'"
            while name in used_ids:
                name += "'"
            used_ids.add(name)
            bundles.append(Bundle(name, b.src, prime_of[b.dst], b.mult))
    return Graph(keep + list(prime_of.values()), bundles)
