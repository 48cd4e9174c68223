"""Finite directed graphs with edge-multiplicity bundles, held as int columns.

A graph is a finite vertex set plus a list of *bundles*: a bundle with
multiplicity k stands for k parallel edges, addressed as (bundle id, index),
and multiplicity ``omega`` stands for countably many parallel edges.
:class:`Graph` numbers the vertices 0..V-1 in sorted name order and the
bundles 0..B-1 in sorted id order, so int order is name order, and a
vertex's bundle ints ascend in EdgeRef order.  It holds the sorted names
``vertices`` and ``ids``; ``srcs``, ``dsts`` and ``mults`` per bundle; the
maps ``vindex`` and ``bindex`` from names to ints; per vertex the ascending
bundle ints ``out`` and ``into``, and ``deg``, the total out-multiplicity
(0 at a sink, OMEGA at an infinite emitter, a positive int at a regular
vertex).  Names enter at load and leave at output; the algorithms here, in
the layers above and in :mod:`leavitt.oracle` read the ints.  ``bundles``
and ``bundle(id)`` build Bundle records from the columns on each call.

The structural predicates (cycle vertices, Conditions (K) and (L), downward
directedness, path counts, each an int or OMEGA) read one cached pass per
graph: Tarjan's strongly connected components without recursion, then one
dynamic program over the condensation, which lists the *loops* (components
that are one cycle) and the *tangles* (more cycles, or an omega bundle);
cycle searches start only in tangles.  A cycle has no exit exactly when
every vertex on it has out-degree 1; a path that reaches it then stays on
it, and holds the whole cycle exactly when its trailing run of cycle edges
is at least the cycle's length (:mod:`leavitt.oracle` keeps the window test).

Everything is immutable and iterates in name order.  The package's value
types (Bundle, EdgeRef, Path, the verdicts, the expression tree) are
:class:`Record` subclasses: each class is its annotated fields, and its
constructor is a renamed copy of one written out in this module, so
importing the package compiles no code.
"""

from __future__ import annotations

import itertools
from collections import deque
from operator import attrgetter, ge, gt, itemgetter, le, lt
from types import FunctionType
from typing import Iterable, NamedTuple


class LeavittError(Exception):
    """Base class for errors raised by this package."""


class TooLarge(LeavittError):
    """Work past a fixed size limit, a module constant read at call time.
    Every resource limit raises this one type, which the CLI reports with
    exit 2; :func:`over_limit` words each refusal that states an amount."""


def over_limit(what: str, amount: int, unit: str, limit: int) -> str:
    """The message "<what> <amount> <unit>, over the limit of <limit>"."""
    return f"{what} {amount} {unit}, over the limit of {limit}"


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
    """Immutable graph value: sorted names and int columns.  Construction
    is permissive (the out-degree table only needs the multiplicities at a
    vertex to add up) so that :func:`validate` can report violations; every
    other operation assumes a valid graph.  An undeclared endpoint is
    numbered after the vertices, in name order, and is in no out-list."""

    __slots__ = ("vertices", "ids", "srcs", "dsts", "mults", "vindex", "bindex",
                 "out", "into", "deg", "_names", "_scc", "_kernel", "_blocks")

    def __init__(self, vertices: Iterable[str], bundles: Iterable[Bundle] = ()):
        bundles = list(bundles)
        self._fill(vertices, [b.id for b in bundles], [b.src for b in bundles],
                   [b.dst for b in bundles], [b.mult for b in bundles])

    @classmethod
    def from_columns(cls, vertices, ids, srcs, dsts, mults) -> "Graph":
        """The graph of the bundles (ids[j], srcs[j], dsts[j], mults[j]), in
        any order: what the constructor builds, with no Bundle made."""
        g = cls.__new__(cls)
        g._fill(vertices, ids, srcs, dsts, mults)
        return g

    def _fill(self, vertices, ids, srcs, dsts, mults) -> None:
        names = self.vertices = tuple(sorted(vertices))
        self.vindex = dict(zip(names, range(len(names))))
        extra = sorted(set(srcs).union(dsts).difference(self.vindex))  # undeclared
        self._names = names + tuple(extra)
        number = dict(zip(self._names, range(len(self._names)))) if extra else self.vindex
        order = sorted(range(len(ids)), key=ids.__getitem__)  # stable: repeated ids
        pick = itemgetter(*order) if len(order) > 1 else tuple
        self.ids, self.mults = pick(ids), pick(mults)
        self.srcs, self.dsts = pick(list(map(number.__getitem__, srcs))), \
            pick(list(map(number.__getitem__, dsts)))
        self.bindex = dict(zip(self.ids, range(len(order))))
        out, into = [[] for _ in self._names], [[] for _ in self._names]
        for j, (u, w) in enumerate(zip(self.srcs, self.dsts)):
            out[u].append(j)
            into[w].append(j)
        self.out, self.into = out[:len(names)], into[:len(names)]
        m = self.mults  # out-degrees (see out_degree); only two or more out-bundles sum
        self.deg = [m[js[0]] if len(js) == 1 else 0 if not js else
                    OMEGA if OMEGA in (ms := [m[j] for j in js]) else sum(ms) for js in self.out]
        self._scc = self._kernel = self._blocks = None  # built on first use

    def _key(self) -> tuple:
        return self._names, self.ids, self.srcs, self.dsts, self.mults

    def __eq__(self, other):
        return isinstance(other, Graph) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Graph(|V|={len(self.vertices)}, |B|={len(self.ids)})"

    # -- lookups ----------------------------------------------------------

    @property
    def bundles(self) -> tuple:
        """The Bundle records, sorted by id, built on each call."""
        names = self._names
        return tuple(map(Bundle, self.ids, [names[v] for v in self.srcs],
                         [names[v] for v in self.dsts], self.mults))

    def vertex_index(self, v: str) -> int:
        try:
            return self.vindex[v]
        except KeyError:
            raise UnknownVertex(f"unknown vertex id: {v!r}") from None

    def bundle_index(self, bundle_id: str) -> int:
        try:
            return self.bindex[bundle_id]
        except KeyError:
            raise UnknownBundle(f"unknown bundle id: {bundle_id!r}") from None

    def bundle(self, bundle_id: str) -> Bundle:
        j = self.bundle_index(bundle_id)
        return Bundle(bundle_id, self._names[self.srcs[j]], self._names[self.dsts[j]],
                      self.mults[j])

    def src(self, e: EdgeRef) -> str:
        return self._names[self.srcs[self.bundle_index(e.bundle)]]

    def dst(self, e: EdgeRef) -> str:
        return self._names[self.dsts[self.bundle_index(e.bundle)]]

    def is_edge(self, e: EdgeRef) -> bool:
        j = self.bindex.get(e.bundle)
        if j is None or e.index < 0:
            return False
        return self.mults[j] is OMEGA or e.index < self.mults[j]

    def out_degree(self, v: str):
        """Total multiplicity of the bundles leaving v: an int, or OMEGA
        when one of them is an omega bundle."""
        return self.deg[self.vertex_index(v)]

    def is_sink(self, v: str) -> bool:
        return self.out_degree(v) == 0

    def is_regular(self, v: str) -> bool:
        return self.out_degree(v) not in (0, OMEGA)

    def edges_out(self, v: str) -> list:
        """All EdgeRefs leaving v, in order (bundle ints ascend with ids).
        Only valid at vertices with finite out-multiplicity."""
        refs = []
        for j in self.out[self.vertex_index(v)]:
            if self.mults[j] is OMEGA:
                raise LeavittError(
                    f"cannot enumerate edges of omega bundle {self.ids[j]!r}")
            refs.extend(EdgeRef(self.ids[j], i) for i in range(self.mults[j]))
        return refs

    def sinks(self) -> list:
        return [self.vertices[v] for v, d in enumerate(self.deg) if d == 0]


# -- validation ------------------------------------------------------------

def validate(g: Graph) -> list:
    """Check all structural invariants; returns a list of violation strings,
    empty when the graph is well formed.  Each violation names the offending
    vertex or bundle id.  Repeated names are neighbours in the sorted
    columns, and an undeclared endpoint is numbered past the vertices."""
    names, ids, declared = g._names, g.ids, len(g.vertices)
    violations = [f"duplicate vertex id: {v!r}"
                  for u, v in zip(g.vertices, g.vertices[1:]) if u == v]
    for j, (bid, m) in enumerate(zip(ids, g.mults)):
        if j and ids[j - 1] == bid:
            violations.append(f"duplicate bundle id: {bid!r}")
        for end, v in (("src", g.srcs[j]), ("dst", g.dsts[j])):
            if v >= declared:
                violations.append(f"bundle {bid!r}: {end} {names[v]!r} is not a declared vertex")
        if m is not OMEGA and (type(m) is not int or m < 1):
            violations.append(f"bundle {bid!r}: multiplicity must be a positive integer or omega")
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
    them, all by vertex int; built once per graph by :func:`_components`."""

    comp: list      # vertex -> index into members
    members: list   # ascending vertex lists, in Tarjan's order (sinks first)
    loops: list     # indices of the components that are one cycle
    tangles: list   # indices of those with more cycles, or an omega bundle
    sinks: int      # components that no bundle leaves
    paths: list     # vertex -> number of paths ending there, an int or OMEGA


def _components(g: Graph) -> _Components:
    """Tarjan's algorithm with an explicit stack, then one pass over the
    condensation; cached on the graph, and the one place that decides
    which components are cycles.

    A vertex without successors is a component of its own: met as a
    successor, it is emitted there, which is where Tarjan's algorithm
    would emit it, and it takes neither a stack entry nor a work frame.
    Tarjan emits a component after every component it reaches, so every
    bundle between two components goes from the later index to the
    earlier.  A component with k vertices and a bundle inside holds at
    least k edges: it is a loop with exactly k, a tangle with more."""
    if g._scc is not None:
        return g._scc
    out, srcs, dsts, mults = g.out, g.srcs, g.dsts, g.mults
    n = len(out)
    index, low, comp, found, stack = [-1] * n, [0] * n, [-1] * n, [], []
    seen, work, resume = 0, [], [0] * n  # resume: v's next out-bundle position
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = seen
        seen += 1
        stack.append(root)
        work.append(root)
        while work:
            v = work[-1]
            js = out[v]
            for k in range(resume[v], len(js)):
                w = dsts[js[k]]
                if index[w] < 0:
                    index[w] = seen
                    seen += 1
                    if out[w]:
                        resume[v] = k + 1
                        low[w] = index[w]
                        stack.append(w)
                        work.append(w)
                        break
                    comp[w] = len(found)
                    found.append([w])
                elif comp[w] < 0 and index[w] < low[v]:  # w is still on the stack
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1]]:
                    low[work[-1]] = low[v]
                if low[v] == index[v]:
                    members = []
                    while comp[v] < 0:
                        members.append(stack.pop())
                        comp[members[-1]] = len(found)
                    members.sort()
                    found.append(members)

    # one pass over the in-lists, sources first: the multiplicity inside
    # each component (omega absorbing), and the paths ending at v, 1 + sum
    # of mult * paths(src) over the bundles into v from other components,
    # where a source on a cycle feeds omega many (pump the cycle).  All
    # vertices of a loop share the sum of their own counts; a tangle gives
    # omega.
    inner, left = [0] * len(found), [False] * len(found)
    paths, feed, into = [0] * n, [0] * n, g.into
    for i in range(len(found) - 1, -1, -1):
        members = found[i]
        cnt = k = len(members)  # the trivial path at each member
        for v in members:
            for j in into[v]:
                c, m = comp[srcs[j]], mults[j]
                if c == i:
                    inner[i] = OMEGA if inner[i] is OMEGA or m is OMEGA else inner[i] + m
                    continue
                left[c] = True
                if cnt is not OMEGA:
                    f = feed[srcs[j]]
                    cnt = OMEGA if f is OMEGA or m is OMEGA else cnt + m * f
        if inner[i] and inner[i] != k:
            cnt = OMEGA
        for v in members:
            paths[v], feed[v] = cnt, (OMEGA if inner[i] else cnt)
    loops = [i for i, k in enumerate(inner) if k == len(found[i])]
    tangles = [i for i, k in enumerate(inner) if k and k != len(found[i])]
    g._scc = _Components(comp, found, loops, tangles, left.count(False), paths)
    return g._scc


def _vertex_cycles(g: Graph) -> list:
    """Elementary vertex cycles of the tangles, each once, minimal vertex
    first, listed by their minimal vertex.  The searches read one map of
    each tangle vertex's distinct successors in its own component (a
    loop is one cycle, which :func:`component_cycles` walks)."""
    s, dsts = _components(g), g.dsts
    succ = {v: list(dict.fromkeys(dsts[j] for j in g.out[v] if s.comp[dsts[j]] == i))
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
    comp, ids, dsts = _components(g).comp, g.ids, g.dsts
    for j, m in enumerate(g.mults):
        if m is OMEGA and comp[g.srcs[j]] == comp[dsts[j]]:
            raise CycleThroughOmegaBundle(
                f"omega bundle {ids[j]!r} lies on a closed walk")
    out = component_cycles(g)  # each loop walked once
    for vcyc in _vertex_cycles(g):
        # one cycle per choice of parallel edge along each arc, in EdgeRef order
        arcs = zip(vcyc, vcyc[1:] + vcyc[:1])
        choices = [[EdgeRef(ids[j], i) for j in g.out[x] if dsts[j] == y
                    for i in range(g.mults[j])] for x, y in arcs]
        out.extend(Cycle(combo) for combo in itertools.product(*choices))
    out.sort(key=lambda c: (len(c.edges), c.edges))
    return out


def component_cycles(g: Graph) -> list:
    """The cycles that form a whole strongly connected component, one per
    loop of the component table, in canonical rotation and sorted as
    :func:`cycles` sorts.  When no cycle has an exit these are all the
    cycles of the graph."""
    s, dsts = _components(g), g.dsts
    out = []
    for i in s.loops:
        members = s.members[i]
        edges, v = [], members[0]
        while not edges or v != members[0]:
            j = next(j for j in g.out[v] if s.comp[dsts[j]] == i)
            edges.append(EdgeRef(g.ids[j], 0))
            v = dsts[j]
        out.append(Cycle(tuple(edges)))
    out.sort(key=lambda c: (len(c.edges), c.edges))
    return out


def vertices_on_cycles(g: Graph) -> frozenset:
    """Vertices lying on some elementary cycle (equivalently, on any closed
    walk): the members of the loops and the tangles."""
    s = _components(g)
    return frozenset(g.vertices[v] for i in s.loops + s.tangles for v in s.members[i])


def cycle_exit_witness(g: Graph):
    """Find some CycleWithExit, or None when no cycle has an exit.

    Uses the out-degree test: the least cycle vertex v whose out-degree is
    not 1 yields a witness, on a shortest closed walk through v, found by
    a breadth-first search that visits each vertex's successors in order.
    """
    s, deg, ids = _components(g), g.deg, g.ids
    v = min((v for i in s.loops + s.tangles for v in s.members[i] if deg[v] != 1),
            default=None)
    if v is None:
        return None
    parent, queue = {}, deque([v])
    while v not in parent:
        at = queue.popleft()
        for w in sorted({g.dsts[j] for j in g.out[at]}):
            if w not in parent:
                parent[w] = at
                queue.append(w)
    walk = [parent[v]]
    while walk[-1] != v:
        walk.append(parent[walk[-1]])
    walk.reverse()
    edges = [EdgeRef(ids[next(j for j in g.out[x] if g.dsts[j] == y)], 0)
             for x, y in zip(walk, walk[1:] + walk[:1])]  # least id on each arc
    cyc = make_cycle(g, edges)
    for j in g.out[v]:  # v emits two edges or more
        for i in range(2 if g.mults[j] is OMEGA else g.mults[j]):
            e = EdgeRef(ids[j], i)
            if e != edges[0]:
                return CycleWithExit(cyc, e)


# -- reachability -----------------------------------------------------------

def reachable(g: Graph, u: str, v: str) -> bool:
    """True iff a (possibly trivial) path u -> v exists."""
    u, v = g.vertex_index(u), g.vertex_index(v)
    seen, queue = {u}, deque([u])
    while queue and v not in seen:
        for w in map(g.dsts.__getitem__, g.out[queue.popleft()]):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return v in seen


def downward_directed(g: Graph) -> bool:
    """True iff every pair of vertices has a common descendant: every
    vertex reaches a sink component, so this holds iff there is at most
    one."""
    return _components(g).sinks <= 1


# -- conditions (L) and (K) ---------------------------------------------------

def condition_L(g: Graph) -> bool:
    """Every cycle has at least one exit.  A cycle without one is a loop
    of the component table in which every vertex emits exactly one edge."""
    s, deg = _components(g), g.deg
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
    return _components(g).paths[g.vertex_index(v)]


# -- hereditary saturated machinery ---------------------------------------------

def hereditary_saturated_closure(g: Graph, X: Iterable[str]) -> frozenset:
    """Least superset of X closed downward under reachability and under
    saturation at regular vertices (sinks and infinite emitters are never
    forced in).  One worklist pass, O(V + E): each regular vertex counts
    its bundles whose range is not yet in H, and enters H when the count
    reaches 0 (other vertices start at -1, which never does)."""
    srcs, dsts = g.srcs, g.dsts
    pending = [len(js) if d != 0 and d is not OMEGA else -1 for js, d in zip(g.out, g.deg)]
    work, H = [g.vertex_index(v) for v in X], set()
    while work:
        v = work.pop()
        if v in H:
            continue
        H.add(v)
        work.extend(map(dsts.__getitem__, g.out[v]))
        for u in map(srcs.__getitem__, g.into[v]):
            pending[u] -= 1
            if pending[u] == 0:
                work.append(u)
    return frozenset(map(g.vertices.__getitem__, H))


def is_hereditary_saturated(g: Graph, X: Iterable[str]) -> bool:
    X, names = set(X), g.vertices
    for v in X:
        if any(names[g.dsts[j]] not in X for j in g.out[g.vertex_index(v)]):
            return False
    for v, js in zip(names, g.out):
        if v not in X and g.is_regular(v) and all(names[g.dsts[j]] in X for j in js):
            return False
    return True


SUBSET_CAP = 15  # vertices of a graph whose subset lattice is listed


def all_hereditary_saturated(g: Graph) -> list:
    """Every hereditary saturated subset, as closures over the subset
    lattice; sorted by size then contents.  TooLarge for more than
    SUBSET_CAP (read at call time) vertices."""
    if len(g.vertices) > SUBSET_CAP:
        raise TooLarge(f"{len(g.vertices)} vertices exceeds enumeration cap {SUBSET_CAP}")
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
    for w, js, d in zip(g.vertices, g.out, g.deg):
        outside = [j for j in js if g.vertices[g.dsts[j]] not in H]
        if d is OMEGA and w not in H and outside \
                and all(g.mults[j] is not OMEGA for j in outside):
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
    prime_of = {v: _primed(v, used) for v in to_prime}
    bundles = [b for b in g.bundles if b.dst not in p.H]  # breaking vertices lie outside H
    used_ids = {b.id for b in bundles}
    bundles += [Bundle(_primed(b.id, used_ids), b.src, prime_of[b.dst], b.mult)
                for b in bundles if b.dst in prime_of]
    return Graph(keep + list(prime_of.values()), bundles)


def _primed(name: str, used: set) -> str:
    """name with primes appended until it is not in used, which it joins."""
    name += "'"
    while name in used:
        name += "'"
    used.add(name)
    return name
