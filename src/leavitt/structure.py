"""Structure-level classifiers for the path algebra of a finite graph.

The central decision: the algebra has bounded index of nilpotence exactly
when no cycle has an exit and the number of paths ending at every sink or
cycle stays finite; the bound n is the maximum such count.  The verdict
holds these counts only.  A family of n x n matrix units built from the
first n paths into a target with count n witnesses that the bound is
attained; those paths are listed only by the code that prints or
multiplies them, by one backward search (:func:`witness_tree`).  The
search lists them as a tree: dropping a path's first edge gives a path
one level up, its parent, so the printer builds each path's text from its
first edge and its parent's, and the matrix units build each Path record
from its parent's.  An exit or an omega path family witnesses
unboundedness.  On top of that sit the polynomial-identity and
direct-finiteness predicates, the graded spectrum, and the matrix-ring
decomposition available for row-finite graphs.

The graph facts come from its cached component pass (:mod:`leavitt.graph`):
with no exit the cycles are exactly the single-cycle components, so no
decision here enumerates cycles.  One cached table, :func:`blocks`, is
the one source of per-target data for the report, the spectrum and the
decomposition; the block trace's tables are built apart, and only for
``check``.  The spectrum takes one backward search per target, so nothing
here enumerates hereditary saturated sets (the subset enumeration is kept
as ``oracle.graded_spectrum_exhaustive``).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import NamedTuple

from . import algebra
from .graph import (
    OMEGA,
    AdmissiblePair,
    CycleTarget,
    CycleWithExit,
    EdgeRef,
    Graph,
    LeavittError,
    Path,
    Record,
    SinkTarget,
    TooLarge,
    _components,
    component_cycles,
    cycle_exit_witness,
    cycle_vertices,
    over_limit,
)


class PreconditionUnbounded(LeavittError):
    pass


class NotRowFinite(LeavittError):
    pass


# -- index report -------------------------------------------------------------

class OmegaPathFamily(Record):
    vertex: str


class Bounded(Record):
    """Bounded-index verdict: n, the path count at every sink and cycle
    target, and the first target whose count is n (None only for the empty
    graph, whose algebra is the zero ring).  The verdict holds no paths;
    :func:`witness_tree` lists a target's paths where they are used."""

    n: int
    per_target: tuple  # TargetCount rows
    witness_target: object  # SinkTarget | CycleTarget | None


class Unbounded(Record):
    reason: object  # CycleWithExit | OmegaPathFamily


class TargetCount(NamedTuple):
    """The number of paths ending at a sink or exitless-cycle target."""

    target: object  # SinkTarget | CycleTarget
    count: int


class PathTree:
    """The first paths into a target, listed in (length, edges, base) order
    as a tree.  Path 0 is the trivial path at the target's base (its first
    edge None, its parent -1); path i > 0 is the edge ``firsts[i]``
    followed by path ``parents[i]``, which lies one level up, and starts
    at the vertex ``names[bases[i]]``.  Level 0 is ``range(0, ends[0])``
    and level k > 0, the paths of length k, is ``range(ends[k - 1],
    ends[k])``; no level is empty.  The length of the tree is the number
    of paths listed."""

    __slots__ = ("names", "bases", "firsts", "parents", "ends")

    def __init__(self, names: tuple, bases: list, firsts: list, parents: list, ends: list):
        self.names, self.bases, self.firsts, self.parents, self.ends = \
            names, bases, firsts, parents, ends

    def __len__(self) -> int:
        return len(self.bases)

    def paths(self) -> list:
        """The listed paths as Path records, each built from its parent's."""
        names, bases = self.names, self.bases
        out = [Path(names[b]) for b in bases[:1]]
        for i in range(1, len(bases)):
            out.append(Path(names[bases[i]], (self.firsts[i],) + out[self.parents[i]].edges))
        return out


def witness_tree(g: Graph, target, size: int) -> PathTree:
    """The first `size` paths ending at a sink or exitless-cycle target, in
    the order (length, edges, base), leaving out paths that contain the
    cycle in full; the count at the target must be finite.  This backward
    search is the one listing of witness paths: :func:`witness_paths` reads
    its Path records off the tree, and JSON ``index`` prints the tree.

    Searches backwards one length at a time and stops at `size`, sorting
    nothing.  If a level is in order, so is the next one built thus: walk
    the bundles into the level's bases in bundle-id order (one merge of the
    id-sorted in-lists), each bundle's edges by index, and for each edge e
    list e.p for every p at e's range, in level order.  The paths compare
    by their first edge, then by the rest, and paths with equal edges have
    equal bases.

    A left-out path is not extended (every extension contains the cycle
    too).  The cycle has no exit, so a path that reaches it stays on it:
    an edge e from off the cycle keeps e.p's trailing run of cycle edges
    that of p, shorter than the cycle's length m, and an edge e from a
    cycle vertex is a cycle edge, as is every edge of p.  So e.p, of
    length k, is left out exactly when src(e) is on the cycle and k >= m.

    Raises TooLarge, before listing anything, when size - 1 exceeds
    ``algebra.POWER_EDGE_LIMIT``: every listed path but the trivial one
    holds an edge."""
    if size - 1 > algebra.POWER_EDGE_LIMIT:
        raise TooLarge(
            f"the witness has more than {algebra.POWER_EDGE_LIMIT + 1} paths to list, "
            f"holding more edges than the limit of {algebra.POWER_EDGE_LIMIT}")
    if isinstance(target, SinkTarget):
        base, m, on_cycle = g.vertex_index(target.vertex), 0, ()
    else:
        c = target.cycle
        base, m = g.srcs[g.bundle_index(c.edges[0].bundle)], len(c.edges)
        on_cycle = {g.srcs[g.bindex[e.bundle]] for e in c.edges}
    if size < 1:
        return PathTree(g.vertices, [], [], [], [])
    tree = PathTree(g.vertices, [base], [None], [-1], [1])
    bases, ends = tree.bases, tree.ends
    while len(bases) < size:
        _grow(g, tree, on_cycle if len(ends) >= m else (), size)
        if len(bases) == ends[-1]:  # no path of this length
            break
        ends.append(len(bases))
    return tree


def _grow(g: Graph, tree: PathTree, skip, size: int) -> None:
    """List the paths e.p, p in the tree's last level and src(e) not in
    `skip` (vertex ints), in order, until the tree holds `size` paths:
    the in-lists of the level's bases merge by bundle int, which is id
    order."""
    bases, firsts, parents = tree.bases, tree.firsts, tree.parents
    ids, srcs, dsts, mults = g.ids, g.srcs, g.dsts, g.mults
    at = {}  # vertex int -> the last level's paths based there
    for i in range(tree.ends[-2] if len(tree.ends) > 1 else 0, len(bases)):
        at.setdefault(bases[i], []).append(i)
    into = [g.into[v] for v in at]  # one in-list needs no merge
    for j in into[0] if len(into) == 1 else heapq.merge(*into):
        if srcs[j] in skip:
            continue
        below = at[dsts[j]]
        for i in range(mults[j]):
            below = below[:size - len(bases)]
            bases += [srcs[j]] * len(below)
            firsts += [EdgeRef(ids[j], i)] * len(below)
            parents += below
            if len(bases) == size:
                return


def witness_paths(g: Graph, target, size: int) -> list:
    """The paths of :func:`witness_tree` as Path records, in its order."""
    return witness_tree(g, target, size).paths()


class Blocks(NamedTuple):
    """A graph's per-target table, built once by :func:`blocks`."""

    report: object  # Bounded | Unbounded
    rows: tuple     # (target, base w_T as a vertex int, count t_T, ring); () if unbounded


def blocks(g: Graph) -> Blocks:
    """The one source of per-target data, cached on the graph: the
    bounded-index verdict, and a row per sink (in vertex order), then per
    exitless cycle (in ``component_cycles`` order), based at the sink or at
    the source of the cycle's first edge.  A cycle with an exit, or an
    infinite path family into a target, yields Unbounded; otherwise n is
    the largest count at a target (a path into any vertex extends to one).
    With no exit every cycle is a whole component, so the cycle targets are
    the component cycles."""
    if g._blocks is None:
        g._blocks = _fill_blocks(g)
    return g._blocks


def _fill_blocks(g: Graph) -> Blocks:
    w = cycle_exit_witness(g)
    if w is not None:
        return Blocks(Unbounded(w), ())
    s, names = _components(g), g.vertices
    rows = [(SinkTarget(names[v]), v, s.paths[v], BASE_K)
            for v, d in enumerate(g.deg) if d == 0]
    for c in component_cycles(g):
        v = g.srcs[g.bindex[c.edges[0].bundle]]
        rows.append((CycleTarget(c), v, s.paths[v], BASE_LAURENT))
    for _, v, cnt, _ in rows:
        if cnt is OMEGA:
            return Blocks(Unbounded(OmegaPathFamily(names[v])), ())
    per_target = tuple(TargetCount(t, cnt) for t, _, cnt, _ in rows)
    n = max((cnt for _, cnt in per_target), default=1)
    best = next((t for t, cnt in per_target if cnt == n), None)
    return Blocks(Bounded(n, per_target, best), tuple(rows))


def bounded_blocks(g: Graph) -> Blocks:
    """:func:`blocks` of a bounded graph; PreconditionUnbounded otherwise."""
    table = blocks(g)
    if not isinstance(table.report, Bounded):
        raise PreconditionUnbounded(f"graph is unbounded: {table.report.reason!r}")
    return table


def bounded_index_report(g: Graph):
    """The bounded-index verdict, from graph facts alone (:func:`blocks`)."""
    return blocks(g).report


def trace_tables(g: Graph) -> tuple:
    """:func:`block_trace`'s tables for a bounded graph, two lists: the
    legs, the number of paths from each vertex into the targets, by vertex
    int, and the legs at the range of each finite edge id.  The
    legs fill in one pass over the component table, sinks first: 1 at a
    sink or cycle vertex, else the sum of mult * legs[dst] over out-bundles."""
    s, out, dsts, mults = _components(g), g.out, g.dsts, g.mults
    legs, loops = [1] * len(g.vertices), set(s.loops)
    for i, members in enumerate(s.members):  # bounded, so no tangle
        if i not in loops and out[members[0]]:  # neither a cycle nor a sink
            k = 0
            for j in out[members[0]]:
                k += mults[j] * legs[dsts[j]]
            legs[members[0]] = k
    at_range = []
    for d, m in zip(dsts, mults):  # bundle ints ascend with the ids
        if m is not OMEGA:
            at_range += [legs[d]] * m
    return legs, at_range


def block_trace(tables: tuple, pairs) -> dict:
    """tau(a) = sum over targets T of tr M_T(a), for an element a of a
    bounded graph's algebra given as (kernel key, coefficient) pairs, as
    {exponent: coefficient} with no zero coefficient; ``tables`` are the
    graph's :func:`trace_tables`.  The pairs may be a term map's
    ``.items()`` or raw pairs, such as a draw of ``oracle._walk_stream``,
    not normalized, with keys repeated or cancelling: each key p q* with
    r(p) = r(q) gets the trace of its block matrices, which the rule below
    reads with no use of normal form, and tau is linear.

    The algebra is the direct sum of the M_t(K) and M_t(K[x,x^-1]), one
    block per sink or exitless cycle T, its rows the paths into T
    (Abrams, Aranda Pino and Siles Molina, Israel J. Math. 165 (2008)).
    A term k p q* lies on the diagonal only where p and q start at one
    vertex.  With p = q it is k times the legs from its range.  With one
    a proper prefix of the other the rest is a closed path on an exitless
    cycle, a whole number of turns, and the term is k x^(|p| - |q|),
    counting x by edges (which maps each block's trace into K[x,x^-1] by
    an injective K-linear map).  Any other term adds nothing.

    A nilpotent matrix over a commutative domain has trace 0, so an
    element with tau(a) != 0 has a block that is not nilpotent, and is not
    nilpotent itself."""
    legs, at_range = tables
    tau: dict = {}
    for (pb, pe, qb, qe), k in pairs:
        if pb != qb:
            continue
        if pe == qe:
            d, k = 0, k * (at_range[pe[-1]] if pe else legs[pb])
        else:
            lp, lq = len(pe), len(qe)
            if (qe[:lp] != pe) if lp < lq else (pe[:lq] != qe):
                continue
            d = lp - lq
        tau[d] = tau.get(d, 0) + k
    return {d: k for d, k in tau.items() if k} if tau else tau


def trace_settles(g: Graph, bound: int, width: int) -> bool:
    """Whether, on a bounded graph, :func:`block_trace` may settle the
    probe ``algebra.nilpotence_index(a, bound)`` of an element a whose keys
    hold at most ``width`` edges: whether no power the probe could form
    can pass its term limit or the edge limit, so that a non-nilpotent
    element gets ``NotNilpotentWithin(bound)`` from the probe too.

    A key p q* of a^k, k <= bound, holds at most L = bound * width edges,
    and the probe's powers are in normal form: p and q do not both end in
    the special edge of one vertex.  Off a cycle, the paths ending at r
    number cnt_r, the path count at r, so at most cnt_r^2 keys have range
    r.  On an exitless cycle C, a path ending at r is p0 c^i, a counted
    path p0 (one of cnt_r) followed by i whole turns c at r, with
    i <= L // |C|.  Every vertex of C emits one edge, so the cycle edge g
    into r is its source's special edge and has no siblings: (p g)(q g)*
    rewrites to p q*, and no normal-form key p0 c^i (q0 c^j)* has both
    i >= 1 and j >= 1.  So at most cnt_r^2 * (1 + 2 * (L // |C|)) keys
    have range r, and a power holds at most B, their sum over r, keys and
    B * L edges.  The limits are read at call time.

    A True answer is also what lets ``oracle.cross_check_index`` pass the
    block trace to the probe as its ``settle`` predicate: the trace of a
    square then decides the probe exactly as the full ladder would, since
    no power within the bound can meet a limit first."""
    s = _components(g)
    reach = bound * width
    keys = sum(cnt * cnt for cnt in s.paths)
    for i in s.loops:  # a bounded graph's cycles are its loops
        members = s.members[i]
        keys += 2 * (reach // len(members)) * sum(s.paths[v] ** 2 for v in members)
    return (keys <= algebra.TERM_LIMIT
            and keys * reach <= algebra.POWER_EDGE_LIMIT)


def is_PI(g: Graph) -> bool:
    """Whether the algebra satisfies a polynomial identity; equivalent to
    the bounded-index verdict."""
    return isinstance(bounded_index_report(g), Bounded)


def is_directly_finite(g: Graph) -> bool:
    """Whether one-sided inverses in the algebra are two-sided; holds
    exactly when no cycle has an exit."""
    return cycle_exit_witness(g) is None


# -- witness construction ----------------------------------------------------

def witness_matrix_units(g: Graph, size: int | None = None):
    """Instantiate matrix units from the graph's own index report,
    :func:`bounded_index_report` (cached on the graph).

    A bounded graph builds units from the witness target's first `size`
    paths (size defaults to n and may not exceed it).  A CycleWithExit
    reason builds exit units of any requested size; an OmegaPathFamily
    reason builds units of any requested size from paths through the omega
    bundle.  A size below 1 is rejected.  Raises TooLarge, before verifying
    anything, for a family too large to verify and probe: exit units whose
    Jordan element's square holds more than ``algebra.POWER_EDGE_LIMIT``
    edges, an omega family with more than that many pairs of legs, or a
    bounded family of more than that many paths plus one (see
    :func:`witness_tree`)."""
    if size is not None and size < 1:
        raise LeavittError(f"unit size must be at least 1, got {size}")
    report = bounded_index_report(g)
    if isinstance(report, Bounded):
        target = report.witness_target
        if target is None:
            raise LeavittError("the empty graph has no matrix-unit witness")
        n = size if size is not None else report.n
        if n > report.n:
            raise LeavittError(
                f"graph admits at most {report.n} x {report.n} units")
        return _target_units(g, target, witness_paths(g, target, n))
    reason = report.reason
    n = size if size is not None else 3
    if isinstance(reason, CycleWithExit):
        units = algebra.matrix_units_exit(g, reason.cycle, reason.edge, n)
        _exit_square_guard(g, reason, n)
        return units
    return _omega_family_units(g, reason.vertex, n)


def _exit_square_guard(g: Graph, reason: CycleWithExit, n: int) -> None:
    """TooLarge when the square of the Jordan element J of the n exit units
    c^i f f* (c*)^j holds more than POWER_EDGE_LIMIT edges, as the
    witness's nilpotence probe would find after verifying the units.

    When f is not the special edge of its source, each u_ij is a
    normal-form key, so J^k = u_1(k+1) + ... + u_(n-k)n holds
    (n - k)(|c| (n + 1) + 2) edges: most at k = 2, the largest power the
    probe forms.  When f is special the keys rewrite, their size is not
    known beforehand, and the probe's own edge guard decides."""
    f = reason.edge
    if algebra.special_edge(g, g.src(f)) == f:
        return
    edges = (n - 2) * (len(reason.cycle.edges) * (n + 1) + 2)
    if edges > algebra.POWER_EDGE_LIMIT:
        raise TooLarge(over_limit(
            f"the square of the Jordan element of {n} exit units holds",
            edges, "edges", algebra.POWER_EDGE_LIMIT))


def _target_units(g: Graph, target, paths):
    if isinstance(target, SinkTarget):
        return algebra.matrix_units_acyclic(g, paths)
    return algebra.matrix_units_no_exit_cycle(g, target.cycle, paths)


def _omega_family_units(g: Graph, v: str, n: int):
    """n parallel edges of the first omega bundle whose range reaches v,
    each followed by one shortest path to v.  Raises TooLarge, before any
    leg is built, when the n^2 pairs of legs that the product P* P of
    ``algebra.verify_matrix_units`` contracts exceed POWER_EDGE_LIMIT."""
    if n * n > algebra.POWER_EDGE_LIMIT:
        raise TooLarge(over_limit(f"{n} legs make", n * n, "pairs", algebra.POWER_EDGE_LIMIT))
    for j, m in enumerate(g.mults):
        if m is OMEGA:
            tail = _shortest_path(g, g.dsts[j], g.vindex[v])
            if tail is not None:
                break
    else:
        raise LeavittError(f"no omega bundle reaches {v!r}")
    paths = [Path(g.vertices[g.srcs[j]], (EdgeRef(g.ids[j], i),) + tail)
             for i in range(n)]
    cycle = next((c for c in component_cycles(g) if v in cycle_vertices(g, c)),
                 None)
    target = SinkTarget(v) if cycle is None else CycleTarget(cycle)
    return _target_units(g, target, paths)


def _shortest_path(g: Graph, u: int, v: int) -> tuple | None:
    """The edges of a shortest path u -> v, vertex ints, by breadth-first
    search, or None.  Each vertex reached keeps the bundle that reached it
    first, and the path is read back from v."""
    parent = {u: None}
    queue = deque([u])
    while queue and v not in parent:
        at = queue.popleft()
        for j in g.out[at]:
            if g.dsts[j] not in parent:
                parent[g.dsts[j]] = j
                queue.append(g.dsts[j])
    if v not in parent:
        return None
    edges = []
    while (j := parent[v]) is not None:
        edges.append(EdgeRef(g.ids[j], 0))
        v = g.srcs[j]
    return tuple(reversed(edges))


# -- matrix rings ---------------------------------------------------------------

BASE_K = "K"
BASE_LAURENT = "K[x,x^-1]"


class Factor(Record, order=True):
    """The matrix ring M_size(base), base K or the Laurent ring over K."""

    size: int
    base: str


# -- graded quotient classification -------------------------------------------

def graded_spectrum(g: Graph) -> list:
    """Classify every admissible pair whose quotient is downward directed,
    in (H, S) order (by the size of H, then its sorted contents), as pairs
    (AdmissiblePair, Factor): the quotient is M_t(K) or M_t(K[x,x^-1]).

    Each pair is read off a row of :func:`blocks`, one per sink or cycle
    target T, as (V minus the ancestors of T, empty S) classified by the
    count and ring of T.  This is the whole spectrum:

    1. S is empty.  A bounded graph has no omega bundle: the range of one
       reaches a sink or a terminal component, and the count there would
       be omega (or that component has a cycle with an exit).  So no vertex
       is an infinite emitter, and none is a breaking vertex.
    2. H = V minus ancestors(T).  The complement of a hereditary H is
       closed under predecessors, so the components of the quotient are
       components of the graph.  A downward-directed quotient has exactly
       one sink component T.  A vertex of T with all its edges into H
       would be regular (no emitter is infinite), so saturation would put
       it in H; hence T is a sink of the graph, or a cycle, which has no
       exit because the graph is bounded.  Every vertex of the quotient
       reaches T, and no vertex of H does (H is hereditary and T is not in
       it), so the quotient's vertices are exactly the ancestors of T.
    3. That H is hereditary saturated for every target T: a successor of a
       vertex that cannot reach T cannot reach T either, and a regular
       vertex outside H has an edge into the ancestors of T (its cycle
       edge if it lies on T, an edge on its path to T otherwise).  The
       quotient is nonempty and downward directed, since T is its only
       sink component.
    4. Every path ending at T runs through ancestors of T only, so T's
       count in the quotient is its count in the graph.

    The graph must be bounded (PreconditionUnbounded otherwise).  Nothing
    is enumerated, so no size bound applies."""
    out, srcs = [], g.srcs
    for _, start, cnt, ring in bounded_blocks(g).rows:
        ancestors = {start}
        stack = list(ancestors)
        while stack:
            for j in g.into[stack.pop()]:
                if srcs[j] not in ancestors:
                    ancestors.add(srcs[j])
                    stack.append(srcs[j])
        H = frozenset([v for i, v in enumerate(g.vertices) if i not in ancestors])
        out.append((AdmissiblePair(H), Factor(cnt, ring)))
    out.sort(key=lambda item: (len(item[0].H), tuple(sorted(item[0].H))))
    return out


# -- decomposition ------------------------------------------------------------

class Decomposition(Record):
    factors: tuple  # sorted Factor multiset, one object per distinct factor


def decompose(g: Graph) -> Decomposition:
    """Matrix-ring decomposition of a row-finite bounded-index algebra:
    one K factor per sink, one Laurent factor per no-exit cycle, sized by
    their path counts, read off the rows of :func:`blocks`.  The
    (size, base) pairs are sorted as tuples and each distinct pair becomes
    one Factor, repeated along its run.  Every vertex reaches a component
    that no bundle leaves, which is a row's sink or exitless cycle."""
    if OMEGA in g.mults:
        raise NotRowFinite("graph has an omega bundle")
    rows = bounded_blocks(g).rows
    assert len(rows) == _components(g).sinks, "sinks and cycles must generate the whole graph"
    pairs = sorted((cnt, ring) for _, _, cnt, ring in rows)
    made = {pair: Factor(*pair) for pair in set(pairs)}
    return Decomposition(tuple(made[pair] for pair in pairs))
