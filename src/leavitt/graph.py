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
condensation, which lists the *loops* (components that are one cycle) and
the *tangles* (more cycles, or an omega bundle).  A vertex without
successors is its own component, emitted where the search meets it with
no DFS frame, and cycle searches start only in tangles.

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
subclasses: each class is its annotated fields, and its constructor is a
renamed copy of one written out in this module, so importing the package
compiles no code.
"""

from __future__ import annotations

import itertools
from collections import deque
from operator import attrgetter, ge, gt, le, lt
from types import FunctionType
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


# The written-out initializers, one per field count in use; each record
# class's ``__init__`` is a copy of one (see :class:`_RecordType`).

def _init1(self, a):
    s0(self, a)


def _init2(self, a, b):
    s0(self, a)
    s1(self, b)


def _init3(self, a, b, c):
    s0(self, a)
    s1(self, b)
    s2(self, c)


def _init4(self, a, b, c, d):
    s0(self, a)
    s1(self, b)
    s2(self, c)
    s3(self, d)


def _init5(self, a, b, c, d, e):
    s0(self, a)
    s1(self, b)
    s2(self, c)
    s3(self, d)
    s4(self, e)


def _init9(self, a, b, c, d, e, f, g, h, i):
    s0(self, a)
    s1(self, b)
    s2(self, c)
    s3(self, d)
    s4(self, e)
    s5(self, f)
    s6(self, g)
    s7(self, h)
    s8(self, i)


_INITIALIZERS = {init.__code__.co_argcount - 1: init
                 for init in (_init1, _init2, _init3, _init4, _init5, _init9)}


class _RecordType(type):
    """Makes each :class:`Record` subclass from its annotated fields.

    Before the class exists, the defaults are popped from the class body,
    ``__slots__`` defaults to the field names, and the comparison, hash,
    repr and pickling functions are added; a definition that does not fit
    raises TypeError then, so it never becomes a subclass.  Then
    ``__init__`` is the initializer for the field count with its code's
    parameters renamed to the fields and its globals s0, s1, ... bound to
    the fields' slot setters: the bytecode of a hand-written ``__init__``
    calling module-level setters (closure cells would cost a cell load per
    field on every construction).
    """

    def __new__(mcls, name, bases, ns, order: bool = False, **kwargs):
        if not any(isinstance(base, _RecordType) for base in bases):
            return super().__new__(mcls, name, bases, ns, **kwargs)
        qualname = ns.get("__qualname__", name)
        names = tuple(ns.get("__annotations__", ()))
        defaults = []
        for field in names:
            if field in ns:
                defaults.append(ns.pop(field))
            elif defaults:
                raise TypeError(f"{qualname}: non-default field {field!r} "
                                "follows a field with a default")
        if len(names) not in _INITIALIZERS:
            raise TypeError(f"{qualname}: no initializer for {len(names)} fields; "
                            f"write out _init{len(names)} in leavitt.graph")
        if tuple(ns.setdefault("__slots__", names))[:len(names)] != names:
            raise TypeError(f"{qualname}: __slots__ must start with the fields {names}")

        if len(names) == 1:  # attrgetter of one name gives the value, not a 1-tuple
            one = attrgetter(names[0])

            def fields(self):
                return (one(self),)
        else:
            fields = attrgetter(*names)
        form = f"{qualname}({', '.join(n + '=%r' for n in names)})"

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

        ns.update(__eq__=__eq__, __hash__=__hash__, __repr__=__repr__,
                  __reduce__=__reduce__)
        if order:
            ns.update(__lt__=_ordering(fields, lt), __le__=_ordering(fields, le),
                      __gt__=_ordering(fields, gt), __ge__=_ordering(fields, ge))
        cls = super().__new__(mcls, name, bases, ns, **kwargs)

        code = _INITIALIZERS[len(names)].__code__
        renamed = {"co_name": "__init__", "co_varnames": ("self",) + names}
        if hasattr(code, "co_qualname"):  # Python 3.11+
            renamed["co_qualname"] = f"{qualname}.__init__"
        setters = {f"s{i}": cls.__dict__[field].__set__ for i, field in enumerate(names)}
        init = FunctionType(code.replace(**renamed), dict(setters, __name__=cls.__module__),
                            "__init__", tuple(defaults))
        init.__qualname__ = f"{qualname}.__init__"  # Python 3.10 takes it from here
        cls.__init__ = init
        return cls


def _ordering(fields, test):
    def compare(self, other):
        if other.__class__ is self.__class__:
            return test(fields(self), fields(other))
        return NotImplemented
    return compare


class Record(metaclass=_RecordType):
    """Base of the package's immutable record types.

    A subclass is its fields, annotated in the class body as ``name: type``
    or ``name: type = default``, and its methods.  It gets what
    ``@dataclass(frozen=True)`` would: ``__init__`` with the fields as
    parameters, ``==`` within one type and ``hash`` on the field tuple, the
    dataclass ``repr`` text, AttributeError on assignment and deletion,
    pickling and copying through the constructor, and with ``order=True``
    the orderings of the field tuples.  The fields are slots, stored by
    their slot descriptors (``object.__setattr__`` would look the name up
    on every call).  Nothing is compiled: the dataclass decorator execs
    generated source, about 1 ms per class on Python 3.11, paid at every
    start of the CLI.  A record that needs an instance dict (only
    ``algebra.MatrixUnits``, for a ``cached_property``) sets ``__slots__``
    to its fields, then ``"__dict__"``.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Bundle(Record):
    """A bundle of parallel edges from src to dst."""

    id: str
    src: str
    dst: str
    mult: object = 1  # positive int, or OMEGA


class EdgeRef(Record, order=True):
    """One edge of a bundle: (bundle id, index), with index < multiplicity."""

    bundle: str
    index: int = 0


class Path(Record):
    """A composable edge sequence; a bare vertex is the path of length 0.

    For nonempty paths ``base`` equals the source of the first edge.
    """

    base: str
    edges: tuple = ()

    def __len__(self) -> int:
        return len(self.edges)


class Cycle(Record):
    """A closed path visiting no vertex twice, stored in the rotation that
    puts the lexicographically least source vertex first."""

    edges: tuple


class AdmissiblePair(Record):
    """A hereditary saturated vertex set H plus a subset S of its breaking
    vertices; names a graded ideal of the path algebra."""

    H: frozenset
    S: frozenset = frozenset()


class CycleWithExit(Record):
    """A cycle together with one of its exit edges."""

    cycle: Cycle
    edge: EdgeRef


class SinkTarget(Record):
    """A sink, where witness paths may end."""

    vertex: str


class CycleTarget(Record):
    """A cycle with no exit, where witness paths may end."""

    cycle: Cycle


class Graph:
    """Immutable graph value; vertices and bundles are stored sorted.

    Construction is permissive (no invariant is enforced; the out-degree
    table only needs the multiplicities at a vertex to add up) so that
    :func:`validate` can report violations; every other operation assumes a
    valid graph.  The loader calls :func:`validate` only when its own
    per-edge checks have seen a fault.
    """

    __slots__ = ("vertices", "bundles", "_by_id", "_out", "_into", "_deg",
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
        # out-degrees (see out_degree); only two or more out-bundles sum
        deg = self._deg = {}
        for v, bs in out.items():
            if len(bs) == 1:
                deg[v] = bs[0].mult
            elif bs:
                mults = [b.mult for b in bs]
                deg[v] = OMEGA if OMEGA in mults else sum(mults)
            else:
                deg[v] = 0
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
    members: list   # sorted vertex lists, in Tarjan's order (sinks first)
    loops: list     # indices of the components that are one cycle
    tangles: list   # indices of those with more cycles, or an omega bundle
    sinks: int      # components that no bundle leaves
    paths: dict     # vertex -> number of paths ending there, an int or OMEGA


def _components(g: Graph) -> _Components:
    """Tarjan's algorithm with an explicit stack, then one pass over the
    condensation; cached on the graph, and the one place that decides
    which components are cycles.

    A vertex without successors is a component of its own: it is emitted
    where the search first meets it, which is where Tarjan's algorithm
    would emit it, and it takes neither a stack entry nor a work frame.
    Tarjan emits a component after every component it reaches, so every
    bundle between two components goes from the later index to the
    earlier.  A component with k vertices and a bundle inside holds at
    least k edges: it is a loop with exactly k, a tangle with more."""
    if g._scc is not None:
        return g._scc
    out = g._out
    index, low, comp, found, stack = {}, {}, {}, [], []
    for root in g.vertices:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        if not out[root]:
            comp[root] = len(found)
            found.append([root])
            continue
        stack.append(root)
        work = [(root, iter(out[root]))]
        while work:
            v, it = work[-1]
            for b in it:
                w = b.dst
                if w not in index:
                    if out[w]:
                        index[w] = low[w] = len(index)
                        stack.append(w)
                        work.append((w, iter(out[w])))
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

    inner = [0] * len(found)
    left = [False] * len(found)
    for b in g.bundles:
        i, j = comp[b.src], comp[b.dst]
        if i != j:
            left[i] = True
        elif inner[i] is not OMEGA:
            inner[i] = OMEGA if b.mult is OMEGA else inner[i] + b.mult
    loops = [i for i, k in enumerate(inner) if k == len(found[i])]
    tangles = [i for i, k in enumerate(inner) if k and k != len(found[i])]

    # paths ending at v: 1 + sum of mult * paths(src) over the bundles into
    # v, omega absorbing, where a source on a cycle feeds omega many (pump
    # the cycle), sources first.  All vertices of a loop share the sum of
    # their own counts; a tangle gives omega.
    paths, feed, into = {}, {}, g._into
    for i, members in reversed(list(enumerate(found))):
        cnt = len(members)  # the trivial path at each member
        for v in members:
            for b in into[v]:
                if comp[b.src] != i and cnt is not OMEGA:
                    f = feed[b.src]
                    cnt = OMEGA if f is OMEGA or b.mult is OMEGA else cnt + b.mult * f
        if inner[i] and inner[i] != len(members):
            cnt = OMEGA
        for v in members:
            paths[v], feed[v] = cnt, (OMEGA if inner[i] else cnt)
    g._scc = _Components(comp, found, loops, tangles, left.count(False), paths)
    return g._scc


def _vertex_cycles(g: Graph) -> list:
    """Elementary vertex cycles of the tangles, each once, minimal vertex
    first, listed by their minimal vertex.  The searches read one map of
    each tangle vertex's distinct successors in its own component (a
    loop is one cycle, which :func:`component_cycles` walks)."""
    s = _components(g)
    succ = {v: list(dict.fromkeys(b.dst for b in g._out[v] if s.comp[b.dst] == i))
            for i in s.tangles for v in s.members[i]}
    found = []
    for start in sorted(succ):
        trail, on_trail = [start], {start}
        work = [iter(succ[start])]
        while work:
            for nxt in work[-1]:
                if nxt == start:
                    found.append(trail[:])
                elif nxt > start and nxt not in on_trail:
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
    out = component_cycles(g)  # each loop walked once
    for vcyc in _vertex_cycles(g):
        # one cycle per choice of parallel edge along each arc
        arcs = zip(vcyc, vcyc[1:] + vcyc[:1])
        choices = [sorted(EdgeRef(b.id, i) for b in g._out[x] if b.dst == y
                          for i in range(b.mult)) for x, y in arcs]
        out.extend(Cycle(combo) for combo in itertools.product(*choices))
    out.sort(key=lambda c: (len(c.edges), c.edges))
    return out


def component_cycles(g: Graph) -> list:
    """The cycles that form a whole strongly connected component, one per
    loop of the component table, in canonical rotation and sorted as
    :func:`cycles` sorts.  When no cycle has an exit these are all the
    cycles of the graph."""
    s = _components(g)
    out = []
    for i in s.loops:
        members = s.members[i]
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
    walk): the members of the loops and the tangles."""
    s = _components(g)
    return frozenset(v for i in s.loops + s.tangles for v in s.members[i])


def cycle_exit_witness(g: Graph):
    """Find some CycleWithExit, or None when no cycle has an exit.

    Uses the out-degree test: the least cycle vertex whose out-degree is
    not 1 yields a witness.
    """
    s, deg = _components(g), g._deg
    v = min((v for i in s.loops + s.tangles for v in s.members[i] if deg[v] != 1),
            default=None)
    if v is None:
        return None
    walk = _shortest_closed_vertex_walk(g, v)
    edges = []
    for x, y in zip(walk, walk[1:] + walk[:1]):
        b = min((b for b in g._out[x] if b.dst == y), key=lambda b: b.id)
        edges.append(EdgeRef(b.id, 0))
    cyc = make_cycle(g, edges)
    cyc_edge = edges[0]
    for b in g._out[v]:  # v emits two edges or more
        limit = 2 if b.mult is OMEGA else b.mult
        for i in range(limit):
            e = EdgeRef(b.id, i)
            if e != cyc_edge:
                return CycleWithExit(cyc, e)


def _shortest_closed_vertex_walk(g: Graph, v: str) -> list:
    """Vertex sequence of a shortest closed walk through v (elementary),
    visiting each vertex's successors in sorted order."""
    parent, queue = {}, deque([v])
    while queue:
        at = queue.popleft()
        for w in sorted({b.dst for b in g._out[at]}):
            if w == v:
                walk = [at]
                while walk[-1] != v:
                    walk.append(parent[walk[-1]])
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
        for b in g._out[queue.popleft()]:
            w = b.dst
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
    """Every cycle has at least one exit.  A cycle without one is a loop
    of the component table in which every vertex emits exactly one edge."""
    s, deg = _components(g), g._deg
    return not any(all(deg[v] == 1 for v in s.members[i]) for i in s.loops)


def condition_K(g: Graph) -> bool:
    """Every vertex on a closed path is the base of at least two distinct
    closed simple paths.  A vertex bases only one exactly when its
    component is a loop."""
    return not _components(g).loops


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
        work.extend(b.dst for b in g._out[v])
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
