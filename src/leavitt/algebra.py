"""Exact arithmetic in the Leavitt path algebra of a graph.

Elements are finite rational combinations of normal-form monomials p q*,
where p and q are paths with a common range.  The normal form fixes, at
every regular vertex, a *special edge* (the lexicographically least
outgoing EdgeRef); a monomial whose two paths end in the same special edge
is rewritten through the relation that resolves a vertex into the sum of
its outgoing edge projections:

    (p g)(q g)*  ->  p q*  -  sum over e != g of (p e)(q e)*

with g the special edge at its source.  The rewriting terminates (the
replacement terms are either shorter or irreducible) and the resulting
representation is the unique normal form, so equality of elements is
literal equality of term maps.

Ghost edges never appear inside a single monomial; products contract the
inner ghost/real block by path prefix comparison.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .graph import (
    Cycle,
    EdgeRef,
    Graph,
    LeavittError,
    Path,
    check_cycle,
    check_path,
    concat_paths,
    cycle_vertices,
    exits,
    path_contains_cycle,
    path_range,
    repeat_closed_path,
    rotate_cycle_to,
    vertices_on_cycles,
)


class RangeMismatch(LeavittError):
    pass


class GraphMismatch(LeavittError):
    pass


class NotABreakingVertex(LeavittError):
    pass


class NotAnExit(LeavittError):
    pass


class UnverifiedUnits(LeavittError):
    pass


class BadMatrixUnitPaths(LeavittError):
    pass


def special_edge(g: Graph, v: str) -> EdgeRef | None:
    """The rewriting basis edge at v: least outgoing EdgeRef of a regular
    vertex, None at sinks and infinite emitters.

    Every rewrite step asks for it, so the answers for all vertices are
    computed on the first call and kept in the graph's ``_special`` slot.
    Raises UnknownVertex for a vertex not in g."""
    table = g._special
    if table is None:
        table = g._special = {
            u: g.edges_out(u)[0] if g.is_regular(u) else None
            for u in g.vertices}
    try:
        return table[v]
    except KeyError:
        g.check_vertex(v)
        raise


@dataclass(frozen=True)
class Monomial:
    """A spanning monomial p q* with r(p) = r(q)."""

    p: Path
    q: Path

    @property
    def degree(self) -> int:
        return len(self.p.edges) - len(self.q.edges)


def _mono_key(m: Monomial):
    return (len(m.p.edges), m.p.edges, m.p.base,
            len(m.q.edges), m.q.edges, m.q.base)


def _is_reducible(g: Graph, m: Monomial) -> bool:
    if not m.p.edges or not m.q.edges:
        return False
    last = m.p.edges[-1]
    if m.q.edges[-1] != last:
        return False
    return special_edge(g, g.src(last)) == last


def _reduce_once(g: Graph, m: Monomial) -> list:
    """Expansion of one reducible monomial as (monomial, sign) pairs."""
    last = m.p.edges[-1]
    v = g.src(last)
    p0 = Path(m.p.base, m.p.edges[:-1])
    q0 = Path(m.q.base, m.q.edges[:-1])
    out = [(Monomial(p0, q0), 1)]
    for e in g.edges_out(v):
        if e != last:
            out.append((Monomial(Path(p0.base, p0.edges + (e,)),
                                 Path(q0.base, q0.edges + (e,))), -1))
    return out


class Element:
    """Immutable element of the path algebra of a fixed graph.

    The term map is kept in normal form with no zero coefficients, so
    ``==`` decides algebra equality.
    """

    __slots__ = ("graph", "_terms")

    def __init__(self, graph: Graph, terms: dict):
        self.graph = graph
        self._terms = terms

    @classmethod
    def zero(cls, graph: Graph) -> "Element":
        return cls(graph, {})

    def terms(self) -> list:
        """Term list sorted in the canonical monomial order."""
        return sorted(self._terms.items(), key=lambda kv: _mono_key(kv[0]))

    def coefficient(self, m: Monomial) -> Fraction:
        return self._terms.get(m, Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def support_size(self) -> int:
        return len(self._terms)

    def _require_same_graph(self, other: "Element") -> None:
        if self.graph != other.graph:
            raise GraphMismatch("elements live over different graphs")

    def __eq__(self, other):
        return (isinstance(other, Element)
                and self.graph == other.graph
                and self._terms == other._terms)

    def __add__(self, other: "Element") -> "Element":
        self._require_same_graph(other)
        terms = dict(self._terms)
        for m, k in other._terms.items():
            c = terms.get(m, Fraction(0)) + k
            if c:
                terms[m] = c
            else:
                terms.pop(m, None)
        return Element(self.graph, terms)

    def __neg__(self) -> "Element":
        return Element(self.graph, {m: -k for m, k in self._terms.items()})

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def scale(self, k) -> "Element":
        k = Fraction(k)
        if k == 0:
            return Element.zero(self.graph)
        return Element(self.graph, {m: k * c for m, c in self._terms.items()})

    def __rmul__(self, k):
        if isinstance(k, (int, Fraction)):
            return self.scale(k)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Element):
            return NotImplemented
        self._require_same_graph(other)
        g = self.graph
        raw = {}
        for m1, k1 in self._terms.items():
            for m2, k2 in other._terms.items():
                m = _mono_product(g, m1, m2)
                if m is not None:
                    c = raw.get(m, Fraction(0)) + k1 * k2
                    if c:
                        raw[m] = c
                    else:
                        del raw[m]
        return normal_form(g, raw.items())

    def involution(self) -> "Element":
        """Reverse every monomial: sum k p q*  ->  sum k q p*."""
        return Element(self.graph,
                       {Monomial(m.q, m.p): k for m, k in self._terms.items()})

    def degree_components(self) -> dict:
        """Split into homogeneous pieces keyed by degree |p| - |q|."""
        parts: dict = {}
        for m, k in self._terms.items():
            parts.setdefault(m.degree, {})[m] = k
        return {d: Element(self.graph, t) for d, t in sorted(parts.items())}

    def __repr__(self):
        return f"Element({element_text(self)})"


def _mono_product(g: Graph, a: Monomial, b: Monomial) -> Monomial | None:
    """Product of two normal-form monomials before renormalization:
    (p q*)(r s*) contracts to (p t) s* when r = q t, to p (s u)* when
    q = r u, and to None (zero) otherwise."""
    q, r = a.q, b.p
    if q.base != r.base:
        return None
    lq, lr = len(q.edges), len(r.edges)
    if lq <= lr:
        if r.edges[:lq] != q.edges:
            return None
        t = Path(path_range(g, q), r.edges[lq:])
        return Monomial(concat_paths(g, a.p, t), b.q)
    if q.edges[:lr] != r.edges:
        return None
    u = Path(path_range(g, r), q.edges[lr:])
    return Monomial(a.p, concat_paths(g, b.q, u))


def normal_form(g: Graph, raw: Iterable, strategy: str = "leftmost",
                seed: int = 0) -> Element:
    """Normalize a formal combination of (Monomial, coefficient) pairs.

    ``strategy`` picks which pending reducible monomial to expand next:
    "leftmost" (insertion order) or "random" (seeded).  Both reach the same
    normal form; the choice exists so tests can cross-check confluence.
    """
    rng = random.Random(seed) if strategy == "random" else None
    pending = []
    for m, k in raw:
        k = Fraction(k)
        if k == 0:
            continue
        if path_range(g, m.p) != path_range(g, m.q):
            raise RangeMismatch(
                f"monomial paths end at different vertices: {m}")
        pending.append((m, k))
    result: dict = {}
    while pending:
        i = rng.randrange(len(pending)) if rng is not None else 0
        m, k = pending.pop(i)
        if _is_reducible(g, m):
            for m2, sign in _reduce_once(g, m):
                pending.append((m2, sign * k))
        else:
            c = result.get(m, Fraction(0)) + k
            if c:
                result[m] = c
            else:
                del result[m]
    return Element(g, result)


# -- generators --------------------------------------------------------------

def vertex_element(g: Graph, v: str) -> Element:
    g.check_vertex(v)
    p = Path(v)
    return Element(g, {Monomial(p, p): Fraction(1)})


def edge_element(g: Graph, e: EdgeRef) -> Element:
    p = Path(g.src(e), (e,))
    check_path(g, p)
    return normal_form(g, [(Monomial(p, Path(g.dst(e))), 1)])


def ghost_edge_element(g: Graph, e: EdgeRef) -> Element:
    return edge_element(g, e).involution()


def identity_element(g: Graph) -> Element:
    """Sum of all vertex idempotents; the identity of the algebra of a
    finite nonempty graph."""
    if not g.vertices:
        raise LeavittError("the empty graph's algebra has no identity")
    out = Element.zero(g)
    for v in g.vertices:
        out = out + vertex_element(g, v)
    return out


def monomial(g: Graph, p: Path, q: Path) -> Element:
    """The element p q*, in normal form."""
    check_path(g, p)
    check_path(g, q)
    if path_range(g, p) != path_range(g, q):
        raise RangeMismatch(
            f"paths end at {path_range(g, p)!r} and {path_range(g, q)!r}")
    return normal_form(g, [(Monomial(p, q), 1)])


def path_element(g: Graph, p: Path) -> Element:
    return monomial(g, p, Path(path_range(g, p)))


# -- serialization -----------------------------------------------------------

def path_text(g: Graph, p: Path) -> str:
    if not p.edges:
        return p.base
    parts = []
    for e in p.edges:
        b = g.bundle(e.bundle)
        parts.append(e.bundle if b.mult == 1 else f"{e.bundle}[{e.index}]")
    return ".".join(parts)


def element_text(a: Element) -> str:
    """Canonical sorted term list, `coeff * p . q^*` joined by ' + '."""
    if a.is_zero():
        return "0"
    bits = []
    for m, k in a.terms():
        bits.append(f"{k} * {path_text(a.graph, m.p)} . {path_text(a.graph, m.q)}^*")
    return " + ".join(bits)


# -- nilpotence ----------------------------------------------------------------

@dataclass(frozen=True)
class NilpotentOfIndex:
    index: int


@dataclass(frozen=True)
class NotNilpotentWithin:
    bound: int


@dataclass(frozen=True)
class ResourceLimit:
    """Power-iteration support outgrew the term budget before a verdict."""
    power: int
    terms: int


def nilpotence_index(a: Element, k_max: int, term_limit: int = 10 ** 6):
    """Least k <= k_max with a^k = 0 (and a^(k-1) != 0), else
    NotNilpotentWithin(k_max); the zero element has index 1."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if a.is_zero():
        return NilpotentOfIndex(1)
    power = a
    for k in range(2, k_max + 1):
        power = power * a
        if power.is_zero():
            return NilpotentOfIndex(k)
        if power.support_size() > term_limit:
            return ResourceLimit(k, power.support_size())
    return NotNilpotentWithin(k_max)


# -- distinguished idempotents --------------------------------------------------

def breaking_vertex_element(g: Graph, H, v: str) -> Element:
    """The idempotent of a breaking vertex: v minus the projections of its
    finitely many edges landing outside H."""
    from .graph import breaking_vertices
    if v not in breaking_vertices(g, H):
        raise NotABreakingVertex(f"{v!r} is not a breaking vertex of H")
    out = vertex_element(g, v)
    for b in g.out_bundles(v):
        if b.dst in H:
            continue
        for i in range(b.mult):
            e = EdgeRef(b.id, i)
            p = Path(v, (e,))
            out = out - monomial(g, p, p)
    return out


# -- matrix units ----------------------------------------------------------------

@dataclass(frozen=True)
class Acyclic:
    """n distinct paths into a vertex off all closed paths."""
    paths: tuple


@dataclass(frozen=True)
class CycleExit:
    """Powers of a cycle around an exit projection."""
    cycle: Cycle
    exit: EdgeRef
    n: int


@dataclass(frozen=True)
class NoExitCycle:
    """n distinct paths into a no-exit cycle, none through the full cycle."""
    paths: tuple
    cycle: Cycle


@dataclass(frozen=True)
class MatrixUnits:
    n: int
    units: tuple  # n x n grid of Elements
    provenance: object


def _check_unit_paths(g: Graph, paths) -> str:
    paths = list(paths)
    if not paths:
        raise BadMatrixUnitPaths("need at least one path")
    if len(set(paths)) != len(paths):
        raise BadMatrixUnitPaths("paths are not pairwise distinct")
    for p in paths:
        check_path(g, p)
    targets = {path_range(g, p) for p in paths}
    if len(targets) != 1:
        raise BadMatrixUnitPaths(f"paths end at several vertices: {sorted(targets)}")
    return targets.pop()


def matrix_units_acyclic(g: Graph, paths: Iterable[Path]) -> MatrixUnits:
    """Matrix units p_i p_j* from distinct paths ending at a common vertex
    that lies on no closed path."""
    paths = tuple(paths)
    v = _check_unit_paths(g, paths)
    if v in vertices_on_cycles(g):
        raise BadMatrixUnitPaths(f"target vertex {v!r} lies on a closed path")
    grid = tuple(tuple(monomial(g, pi, pj) for pj in paths) for pi in paths)
    return MatrixUnits(len(paths), grid, Acyclic(paths))


def matrix_units_exit(g: Graph, c: Cycle, f: EdgeRef, n: int) -> MatrixUnits:
    """Matrix units c^i f f* (c*)^j, 1 <= i,j <= n, for an exit f of the
    cycle c; the cycle is rotated to be based at the exit's source."""
    check_cycle(g, c)
    if n < 1:
        raise ValueError("n must be >= 1")
    if not g.is_edge(f):
        raise NotAnExit(f"not an edge of this graph: {f!r}")
    v = g.src(f)
    verts = cycle_vertices(g, c)
    if v not in verts or f in c.edges:
        raise NotAnExit(f"{f!r} is not an exit of the cycle")
    loop = rotate_cycle_to(g, c, v)
    f_path = Path(v, (f,))
    legs = [concat_paths(g, repeat_closed_path(g, loop, i), f_path)
            for i in range(1, n + 1)]
    grid = tuple(tuple(monomial(g, pi, pj) for pj in legs) for pi in legs)
    return MatrixUnits(n, grid, CycleExit(c, f, n))


def matrix_units_no_exit_cycle(g: Graph, c: Cycle,
                               paths: Iterable[Path]) -> MatrixUnits:
    """Matrix units p_i p_j* from distinct paths ending on a no-exit cycle,
    none of which runs through the entire cycle."""
    check_cycle(g, c)
    if exits(g, c):
        raise BadMatrixUnitPaths("the cycle has an exit")
    paths = tuple(paths)
    v = _check_unit_paths(g, paths)
    if v not in cycle_vertices(g, c):
        raise BadMatrixUnitPaths(f"target vertex {v!r} is not on the cycle")
    for p in paths:
        if path_contains_cycle(g, p, c):
            raise BadMatrixUnitPaths("a path runs through the entire cycle")
    grid = tuple(tuple(monomial(g, pi, pj) for pj in paths) for pi in paths)
    return MatrixUnits(len(paths), grid, NoExitCycle(paths, c))


def verify_matrix_units(m: MatrixUnits) -> bool:
    """Decide by exact arithmetic whether the grid is an n x n family of
    matrix units: every u_ij is nonzero and u_ij u_kl = delta_jk u_il.

    Only 2n^2 products are formed:

        u_i1 u_1j = u_ij   and   u_1i u_j1 = delta_ij u_11   for all i, j.

    These imply every identity, by associativity: the first family
    contains u_i1 u_11 = u_i1 and u_11 u_1l = u_1l, so
    u_ij u_kl = u_i1 (u_1j u_k1) u_1l = delta_jk u_i1 u_11 u_1l
    = delta_jk u_il.  Both families are among the n^4 identities, so the
    answer is that of the exhaustive check
    (``oracle.verify_matrix_units_exhaustive``)."""
    n = m.n
    u = m.units
    if len(u) != n or any(len(row) != n for row in u):
        return False
    if any(x.is_zero() for row in u for x in row):
        return False
    zero = Element.zero(u[0][0].graph)
    for i in range(n):
        for j in range(n):
            if u[i][0] * u[0][j] != u[i][j]:
                return False
            if u[0][i] * u[j][0] != (u[0][0] if i == j else zero):
                return False
    return True


def jordan_element(m: MatrixUnits) -> Element:
    """The superdiagonal sum of a family of matrix units; its nilpotence
    index is exactly n.  Raises UnverifiedUnits unless
    :func:`verify_matrix_units` accepts the family."""
    if not verify_matrix_units(m):
        raise UnverifiedUnits("matrix unit identities fail")
    g = m.units[0][0].graph
    out = Element.zero(g)
    for i in range(m.n - 1):
        out = out + m.units[i][i + 1]
    return out
