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

Inside an Element a monomial is the plain tuple of ints
``(p_base, p_edge_ids, q_base, q_edge_ids)``: vertices numbered as the
graph numbers them, in name order, and edges by a per-graph table built
on first use (:class:`_Kernel`): finite edges are 0..nfin-1 in EdgeRef
order, edge i of a finite bundle being its bundle's offset plus i, and
edge k of the j-th of the W omega bundles is nfin + k*W + j, so equal
graphs give equal keys.  A path enters the kernel through
:func:`_path_key`, one walk that checks it and numbers it.  Coefficients
are ints while they are integral; a Fraction appears only once a
non-integer scalar comes in.  :class:`Monomial`, :meth:`Element.terms`,
:meth:`Element.coefficient`, :func:`normal_form` and the printed text
convert at that boundary and see names, EdgeRefs and Fractions.
"""

from __future__ import annotations

import functools
import sys
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from math import lcm
from typing import Iterable

from .graph import (
    OMEGA,
    Cycle,
    CycleTarget,
    CycleWithExit,
    EdgeRef,
    Graph,
    InvalidPath,
    LeavittError,
    Path,
    Record,
    SinkTarget,
    TooLarge,
    check_cycle,
    cycle_vertices,
    over_limit,
    rotate_cycle_to,
)


class RangeMismatch(LeavittError):
    pass


class GraphMismatch(LeavittError):
    pass


class NotAnExit(LeavittError):
    pass


class UnverifiedUnits(LeavittError):
    pass


class BadMatrixUnitPaths(LeavittError):
    pass


class _Kernel:
    """Edge numbering and rewriting data of one graph, kept in its
    ``_kernel`` slot, in O(bundles) space whatever the multiplicities,
    read off the graph's int columns.

    ``first`` holds, per bundle int, ``(first, step, mult)``: edge i of
    the bundle has id ``first + i*step``, with step 1 for a finite bundle
    (first is the running total of the finite multiplicities before it)
    and step W, the number of omega bundles, for an omega bundle (mult is
    None then).  ``rewrite`` maps the id of each regular vertex's special
    edge to the ids of the other edges out of that vertex, one ``range``
    per out-bundle, and ``fanout`` maps it to their number, the out-degree
    minus one (a range past sys.maxsize has no len); a monomial is
    reducible exactly when both its paths end in a key of ``rewrite``.
    The special edge is edge 0 of the first bundle of the vertex's
    out-list, as :func:`special_edge` reads it."""

    __slots__ = ("first", "offsets", "finite", "nfin", "omega", "rewrite",
                 "fanout")

    def __init__(self, g: Graph):
        # bundle ints ascend with the ids, so the ids follow EdgeRef order
        mults, ids = g.mults, g.ids
        finite = [j for j, m in enumerate(mults) if m is not OMEGA]
        omega = [j for j, m in enumerate(mults) if m is OMEGA]
        self.finite = [ids[j] for j in finite]
        self.omega = [ids[j] for j in omega]
        self.offsets = []   # first id of each finite bundle, ascending
        self.nfin = 0
        first = self.first = [None] * len(mults)
        for j in finite:
            self.offsets.append(self.nfin)
            first[j] = (self.nfin, 1, mults[j])
            self.nfin += mults[j]
        for k, j in enumerate(omega):
            first[j] = (self.nfin + k, len(omega), None)
        self.rewrite = {}   # special edge id -> ranges of its siblings' ids
        self.fanout = {}    # special edge id -> number of its siblings
        for js, d in zip(g.out, g.deg):
            if d == 0 or d is OMEGA:
                continue
            spans = [range(first[j][0], first[j][0] + mults[j]) for j in js]
            special = spans[0][0]
            spans[0] = spans[0][1:]
            self.rewrite[special] = tuple(r for r in spans if r)
            self.fanout[special] = d - 1

    def edge_ref(self, i: int) -> EdgeRef:
        if i < self.nfin:
            j = bisect_right(self.offsets, i) - 1
            return EdgeRef(self.finite[j], i - self.offsets[j])
        k, j = divmod(i - self.nfin, len(self.omega))
        return EdgeRef(self.omega[j], k)


def _kernel(g: Graph) -> _Kernel:
    table = g._kernel
    if table is None:
        table = g._kernel = _Kernel(g)
    return table


def special_edge(g: Graph, v: str) -> EdgeRef | None:
    """The rewriting basis edge at v: least outgoing EdgeRef of a regular
    vertex, None at sinks and infinite emitters.

    Edge 0 of the first bundle of v's out-list, the edge whose id keys
    ``_Kernel.rewrite``; builds no kernel.  Raises UnknownVertex for a
    vertex not in g."""
    i = g.vertex_index(v)
    d = g.deg[i]
    return None if d == 0 or d is OMEGA else EdgeRef(g.ids[g.out[i][0]], 0)


class Monomial(Record):
    """A spanning monomial p q* with r(p) = r(q)."""

    p: Path
    q: Path

    @property
    def degree(self) -> int:
        return len(self.p.edges) - len(self.q.edges)


def _mono_key(m: Monomial):
    return (len(m.p.edges), m.p.edges, m.p.base,
            len(m.q.edges), m.q.edges, m.q.base)


def _path_key(g: Graph, p: Path) -> tuple:
    """(base, edge ids, range) of p, vertex ints and ids numbered by
    ``_Kernel.first``, from one walk over the graph's columns; how every
    path enters the kernel.  Raises InvalidPath unless p is a path of g."""
    first, bindex, srcs, dsts, mults = _kernel(g).first, g.bindex, g.srcs, g.dsts, g.mults
    at, ids = g.vindex.get(p.base), []
    for e in p.edges:
        j = bindex.get(e.bundle)
        if (j is None or srcs[j] != at or e.index < 0
                or mults[j] is not OMEGA and e.index >= mults[j]):
            break
        start, step, _ = first[j]
        ids.append(start + e.index * step)
        at = dsts[j]
    else:
        if at is not None:
            return g.vindex[p.base], tuple(ids), at
    raise InvalidPath(f"not a path of this graph: {p!r}")


def _monomial(names: tuple, table: _Kernel, key: tuple) -> Monomial:
    pb, pe, qb, qe = key
    return Monomial(Path(names[pb], tuple(map(table.edge_ref, pe))),
                    Path(names[qb], tuple(map(table.edge_ref, qe))))


def _scalar(k):
    """k as an int when it is integral, else as a Fraction."""
    if type(k) is int:
        return k
    k = Fraction(k)
    return k.numerator if k.denominator == 1 else k


def coefficient_text(k) -> str:
    """str(k), or TooLarge when k has too many digits to print."""
    try:
        return str(k)
    except ValueError:  # the interpreter's integer string conversion limit
        raise TooLarge("number has more than "
                       f"{sys.get_int_max_str_digits()} digits") from None


class Element:
    """Immutable element of the path algebra of a fixed graph.

    The term map is kept in normal form with no zero coefficients, so
    ``==`` decides algebra equality.
    """

    __slots__ = ("graph", "_terms")

    def __init__(self, graph: Graph, terms: dict):
        self.graph = graph
        self._terms = terms  # (p_base, p_ids, q_base, q_ids), ints -> int | Fraction

    @classmethod
    def zero(cls, graph: Graph) -> "Element":
        return cls(graph, {})

    def terms(self) -> list:
        """(Monomial, Fraction) pairs sorted in the canonical monomial
        order."""
        table, names = _kernel(self.graph), self.graph.vertices
        return sorted(((_monomial(names, table, key), Fraction(k))
                       for key, k in self._terms.items()),
                      key=lambda kv: _mono_key(kv[0]))

    def coefficient(self, m: Monomial) -> Fraction:
        try:
            pb, p, _ = _path_key(self.graph, m.p)
            qb, q, _ = _path_key(self.graph, m.q)
        except InvalidPath:  # not a path of the graph: not a term either
            return Fraction(0)
        return Fraction(self._terms.get((pb, p, qb, q), 0))

    def is_zero(self) -> bool:
        return not self._terms

    def support_size(self) -> int:
        return len(self._terms)

    def _same_graph(self, other: "Element") -> bool:
        return self.graph is other.graph or self.graph == other.graph

    def _require_same_graph(self, other: "Element") -> None:
        if not self._same_graph(other):
            raise GraphMismatch("elements live over different graphs")

    def __eq__(self, other):
        return (isinstance(other, Element)
                and self._same_graph(other)
                and self._terms == other._terms)

    def __add__(self, other: "Element") -> "Element":
        self._require_same_graph(other)
        terms = dict(self._terms)
        for m, k in other._terms.items():
            c = terms.get(m, 0) + k
            if c:
                terms[m] = c
            else:
                del terms[m]
        return Element(self.graph, terms)

    def __neg__(self) -> "Element":
        return Element(self.graph, {m: -k for m, k in self._terms.items()})

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def scale(self, k) -> "Element":
        k = _scalar(k)
        if k == 0:
            return Element.zero(self.graph)
        return Element(self.graph, {m: k * c for m, c in self._terms.items()})

    def __rmul__(self, k):
        if isinstance(k, (int, Fraction)):
            return self.scale(k)
        return NotImplemented

    def __mul__(self, other):
        """The product in normal form; see :func:`_product`."""
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Element):
            return NotImplemented
        self._require_same_graph(other)
        return Element(self.graph,
                       _product(_kernel(self.graph), self._terms, other._terms))

    def involution(self) -> "Element":
        """Reverse every monomial: sum k p q*  ->  sum k q p*."""
        return Element(self.graph, {(qb, qe, pb, pe): k for (pb, pe, qb, qe), k
                                    in self._terms.items()})

    def degree_components(self) -> dict:
        """Split into homogeneous pieces keyed by degree |p| - |q|."""
        parts: dict = {}
        for m, k in self._terms.items():
            parts.setdefault(len(m[1]) - len(m[3]), {})[m] = k
        return {d: Element(self.graph, t) for d, t in sorted(parts.items())}

    def __repr__(self):
        return f"Element({element_text(self)})"


def _product(table: _Kernel, left: dict, right: dict) -> dict:
    """The normal-form term map of the product of two normal-form term maps
    over the graph of ``table``.  Contract every pair of terms,
    (p q*)(r s*): to (p t) s* when r = q t, to p (s u)* when q = r u, else
    to zero; then normalize.  The right factor's terms are listed once,
    grouped by the base of r and each with the length of r, so a left
    term meets only the right terms whose r starts where its q does; a
    bare vertex q or r (no edges) contracts with no slice compared."""
    raw = {}
    by_base: dict = {}
    for (rb, re, sb, se), k2 in right.items():
        by_base.setdefault(rb, []).append((re, len(re), sb, se, k2))
    for (pb, pe, qb, qe), k1 in left.items():
        meets = by_base.get(qb)
        if meets is None:
            continue
        lq = len(qe)
        for re, lr, sb, se, k2 in meets:
            if not lq:
                key = (pb, pe + re, sb, se)
            elif not lr:
                key = (pb, pe, sb, se + qe)
            elif lq <= lr:
                if re[:lq] != qe:
                    continue
                key = (pb, pe + re[lq:], sb, se)
            else:
                if qe[:lr] != re:
                    continue
                key = (pb, pe, sb, se + qe[lr:])
            c = raw.get(key, 0) + k1 * k2
            if c:
                raw[key] = c
            else:
                del raw[key]
    return _normalize(table, raw.items())


def _normalize(table: _Kernel, raw: Iterable) -> dict:
    """Normal-form term map of (key, nonzero coefficient) pairs.

    Each key is filed as it comes: one whose two paths end in the same
    special edge (a key of ``table.rewrite``) goes on a pending stack, and
    any other is in normal form, so its coefficient goes straight into the
    result.  A pending (p g)(q g)* is rewritten to
    p q* - sum over e != g of (p e)(q e)*: the (p e)(q e)* go straight
    into the result, as a sibling e of g is special nowhere, and p q* is
    filed again.  A special edge with no siblings (the one edge out of its
    source, as on lines and exitless cycles) rewrites (p g)(q g)* to
    p q* alone, so the whole run of such edges that p and q share at
    their ends is stripped in one slice.  Every rewrite order reaches the
    same normal form (``oracle.normal_form_reference`` takes others).

    Raises TooLarge before a rewrite whose siblings alone would add more
    than TERM_LIMIT (read at call time) terms."""
    rewrite, fanout, limit = table.rewrite, table.fanout, TERM_LIMIT
    result: dict = {}
    pending = []
    for key, k in raw:
        pe = key[1]
        if pe and key[3] and pe[-1] == key[3][-1] and pe[-1] in rewrite:
            pending.append((key, k))
            continue
        c = result.get(key, 0) + k
        if c:
            result[key] = c
        else:
            del result[key]
    while pending:
        (pb, pe, qb, qe), k = pending.pop()
        # (p g)(q g)*  ->  p q*  -  sum over e != g of (p e)(q e)*
        siblings = rewrite[pe[-1]]
        if siblings:
            if fanout[pe[-1]] > limit:
                raise TooLarge(over_limit(
                    f"a rewrite at bundle {table.edge_ref(pe[-1]).bundle!r} adds",
                    fanout[pe[-1]], "terms", limit))
            pe, qe = pe[:-1], qe[:-1]
            for span in siblings:
                for e in span:
                    key = (pb, pe + (e,), qb, qe + (e,))
                    c = result.get(key, 0) - k
                    if c:
                        result[key] = c
                    else:
                        del result[key]
        else:  # strip the shared run of sibling-free special edges at once
            j, most = 1, min(len(pe), len(qe))
            while j < most and pe[-j - 1] == qe[-j - 1] \
                    and rewrite.get(pe[-j - 1]) == ():
                j += 1
            pe, qe = pe[:-j], qe[:-j]
        key = (pb, pe, qb, qe)
        if pe and qe and pe[-1] == qe[-1] and pe[-1] in rewrite:
            pending.append((key, k))
            continue
        c = result.get(key, 0) + k
        if c:
            result[key] = c
        else:
            del result[key]
    return result


def normal_form(g: Graph, raw: Iterable) -> Element:
    """Normalize a formal combination of (Monomial, coefficient) pairs.

    Raises InvalidPath when p or q of a monomial with a nonzero
    coefficient is not a path of g, and RangeMismatch when the two end at
    different vertices."""
    keyed = []
    for m, k in raw:
        k = _scalar(k)
        if k == 0:
            continue
        pb, p, p_range = _path_key(g, m.p)
        qb, q, q_range = _path_key(g, m.q)
        if p_range != q_range:
            raise RangeMismatch(
                f"monomial paths end at different vertices: {m}")
        keyed.append(((pb, p, qb, q), k))
    return Element(g, _normalize(_kernel(g), keyed))


# -- generators --------------------------------------------------------------

def vertex_element(g: Graph, v: str) -> Element:
    v = g.vertex_index(v)
    return Element(g, {(v, (), v, ()): 1})


def edge_element(g: Graph, e: EdgeRef) -> Element:
    src, ids, dst = _path_key(g, Path(g.src(e), (e,)))
    return Element(g, {(src, ids, dst, ()): 1})


def ghost_edge_element(g: Graph, e: EdgeRef) -> Element:
    return edge_element(g, e).involution()


def identity_element(g: Graph) -> Element:
    """Sum of all vertex idempotents; the identity of the algebra of a
    finite nonempty graph."""
    if not g.vertices:
        raise LeavittError("the empty graph's algebra has no identity")
    return Element(g, {(v, (), v, ()): 1 for v in range(len(g.vertices))})


def monomial(g: Graph, p: Path, q: Path) -> Element:
    """The element p q*, in normal form."""
    return normal_form(g, [(Monomial(p, q), 1)])


# -- serialization -----------------------------------------------------------

def edge_text(g: Graph, e: EdgeRef) -> str:
    """The bundle id alone at multiplicity 1, else ``id[index]``."""
    return e.bundle if g.mults[g.bundle_index(e.bundle)] == 1 else f"{e.bundle}[{e.index}]"


def path_text(g: Graph, p: Path) -> str:
    if not p.edges:
        return p.base
    return ".".join(edge_text(g, e) for e in p.edges)


def term_text(g: Graph, m: Monomial, coefficient: str) -> str:
    """One term of :func:`element_text`, ``coeff * p . q^*``, with the
    coefficient already printed."""
    return f"{coefficient} * {path_text(g, m.p)} . {path_text(g, m.q)}^*"


def element_text(a: Element) -> str:
    """Canonical sorted term list, `coeff * p . q^*` joined by ' + '."""
    if a.is_zero():
        return "0"
    return " + ".join([term_text(a.graph, m, coefficient_text(k))
                       for m, k in a.terms()])


# -- nilpotence ----------------------------------------------------------------

class NilpotentOfIndex(Record):
    index: int


class NotNilpotentWithin(Record):
    bound: int


class ResourceLimit(Record):
    """Power-iteration support outgrew the term budget before a verdict."""

    power: int
    terms: int


class _Verdict(Exception):
    """Raised by :func:`_limit_guard` to end the ladder with its ResourceLimit."""


TERM_LIMIT = 10 ** 6  # terms of a probed power, and of the siblings a rewrite adds
POWER_EDGE_LIMIT = 10 ** 6  # edges of a power formed, and of the legs and units built
POWER_BIT_LIMIT = 10 ** 6  # bits of a coefficient of a power formed, and of a scalar power


def _ladder(a: Element, k: int, probe: bool = False, settle=None) -> tuple:
    """(j, a^j) for the largest j <= k with a^j != 0, as a term map; (1, {})
    when a is zero.  An exit that proves a not nilpotent gives (k, None):
    a^k != 0, not formed.

    The squares a, a^2, a^4, ... are formed while the exponent is at most
    k, up to the first square that is zero.  Then one binary-lifting pass
    starts from j, the exponent of the last nonzero square: for each
    smaller square a^(2^i), highest first, a^j a^(2^i) is formed when
    j + 2^i <= k, and kept as a^(j + 2^i) when it is nonzero.  While every
    product is nonzero this builds a^k from the bits of k; after the first
    zero product it tries every lower bit, a binary search for the largest
    nonzero power.  So every nonzero power formed has exponent at most j,
    and O(log k) products are formed in all.

    With ``probe``, the ladder exits when a^2 is a scalar multiple of a.
    With ``settle``, a predicate on a square's term map that holds only
    where that square, and so a, is not nilpotent, it exits at the first
    nonzero square that satisfies it.

    Each product z = a^e is checked as it is formed, before either exit,
    by :func:`_limit_guard` (squaring doubles path lengths and coefficient
    bits, so memory would run out long before time does), with a bound on
    its coefficient bits carried from its factors."""
    table, terms = _kernel(a.graph), a._terms
    width = _width(terms)
    squares = [terms]  # squares[i] = a^(2^i), all nonzero
    bits = [_bits(terms)]  # bits[i] bounds the bits of each coefficient of squares[i]
    j = 1
    while 2 * j <= k:
        x = squares[-1]
        z = _product(table, x, x)
        b = _limit_guard(z, 2 * j, width, 2 * bits[-1] + (len(x) ** 2).bit_length(), probe)
        if probe and j == 1 and _is_multiple(z, terms):
            return k, None
        if not z:
            break
        if settle is not None and settle(z):
            return k, None
        squares.append(z)
        bits.append(b)
        j *= 2
    x, b = squares.pop(), bits.pop()
    for i in reversed(range(len(squares))):
        e = j + 2 ** i
        if e <= k:
            y = squares[i]
            z = _product(table, x, y)
            z_bits = _limit_guard(z, e, width, b + bits[i] + (len(x) * len(y)).bit_length(),
                                  probe)
            if z:
                j, x, b = e, z, z_bits
    return j, x


def nilpotence_index(a: Element, k_max: int, settle=None):
    """Least k <= k_max with a^k = 0 (and a^(k-1) != 0), else
    NotNilpotentWithin(k_max); the zero element has index 1.

    Read off :func:`_ladder`: a^j != 0 with j the largest such j <= k_max
    gives NotNilpotentWithin(k_max) when j = k_max, else index j + 1.
    Every nonzero power formed has exponent at most min(k_max, index - 1):
    the sequential probe (``oracle.nilpotence_index_sequential``) forms it
    too, and the verdict is the same wherever that probe gives one.

    When the first square is a scalar multiple of a, a^2 = c a with c != 0,
    the probe stops there: every power is c^(m-1) a, nonzero and with the
    support and edge count of a^2, which have passed both limits, so a is
    not nilpotent within k_max, as the rest of the ladder would find.

    ``settle``, when given, is a predicate on a square's term map that
    holds only where the square is not nilpotent, such as a nonzero block
    trace (``structure.block_trace``): a^(2^i) not nilpotent makes a not
    nilpotent, so the probe stops at the first nonzero square where it
    holds, with NotNilpotentWithin(k_max).  Every power formed is still
    checked against both limits below.

    ResourceLimit names the first power formed with more than TERM_LIMIT
    terms (read at call time).  Raises TooLarge, as :func:`power` does,
    when a power formed holds more than POWER_EDGE_LIMIT edges or a
    coefficient of more than POWER_BIT_LIMIT bits.  The
    powers are term maps multiplied by :func:`_product`; no Element is built."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if a.is_zero():
        return NilpotentOfIndex(1)
    try:
        j, _ = _ladder(a, k_max, probe=True, settle=settle)
    except _Verdict as verdict:
        return verdict.args[0]
    return NotNilpotentWithin(k_max) if j == k_max else NilpotentOfIndex(j + 1)


def _is_multiple(x: dict, a: dict) -> bool:
    """Whether the term map x is c a for a scalar c; c is nonzero when a
    and x are, as term maps hold no zero coefficients."""
    if x.keys() != a.keys():
        return False
    m = next(iter(a))
    cx, ca = x[m], a[m]
    return all(x[key] * ca == k * cx for key, k in a.items())


def power(a: Element, k: int) -> Element:
    """a^k for k >= 1, by the squaring ladder of :func:`_ladder`: a^k when
    its largest nonzero power is a^k itself, else zero.  Raises TooLarge
    when a power formed holds more than POWER_EDGE_LIMIT edges over all
    its monomials, or a coefficient of more than POWER_BIT_LIMIT bits."""
    if k < 1:
        raise ValueError("k must be >= 1")
    j, x = _ladder(a, k)
    return Element(a.graph, x if j == k else {})


def _width(terms: dict) -> int:
    """The most edges, |p| + |q|, that a key of the term map holds."""
    return max((len(key[1]) + len(key[3]) for key in terms), default=0)


def _coefficient_bits(k) -> int:
    """The bits of a coefficient: its numerator's, plus its denominator's
    when that is not 1."""
    d = k.denominator
    return abs(k.numerator).bit_length() + (d.bit_length() if d > 1 else 0)


def _bits(terms: dict) -> int:
    """A bound on the bits of each coefficient of a term map, in one pass
    when they are all ints: with d their least common denominator (1 for
    ints), the bits of the sum of the |c| d, plus d's when d is not 1.
    Every coefficient is an integer over d, no larger than that sum, so
    its numerator and denominator in lowest terms are no larger."""
    total = sum(map(abs, terms.values()))
    if type(total) is int:  # every coefficient is an int
        return total.bit_length()
    d = lcm(*[k.denominator for k in terms.values()])
    return int(total * d).bit_length() + d.bit_length()


def _limit_guard(terms: dict, k: int, width: int, bits: int, probe: bool) -> int:
    """With ``probe``, _Verdict(ResourceLimit) when terms, the term map of
    a power a^k, has more than TERM_LIMIT terms; else TooLarge when, where
    each key of a holds at most width edges, it holds more than
    POWER_EDGE_LIMIT edges over all its monomials, or when, where bits
    bounds the bits of its coefficients, one holds more than
    POWER_BIT_LIMIT bits (:func:`_coefficient_bits`).  Returns a bound on
    the bits of its coefficients.

    A key of a^k holds at most k * width edges.  Contracting (p q*)(r s*)
    gives (p t) s* with r = q t, or p (s u)* with q = r u: at most
    |p| + |q| + |r| + |s| edges, so key lengths at most add up over the k
    factors.  A rewrite of (p g)(q g)* gives p q* and the (p e)(q e)*,
    never a longer key.  So the edges are summed only when
    len(terms) * k * width exceeds the limit; below it they cannot.

    A rewrite gives each key of its expansion once, with the sign + or -,
    so a coefficient of a product x y is a signed sum of at most
    T(x) T(y) products of a coefficient of x and one of y.  Over the
    product of the two factors' common denominators (see :func:`_bits`),
    it holds at most the sum of the factors' bounds plus
    (T(x) T(y)).bit_length() bits, the bound the ladder passes.  So the
    bits are counted only when that bound exceeds the limit."""
    if probe and len(terms) > TERM_LIMIT:
        raise _Verdict(ResourceLimit(k, len(terms)))
    if len(terms) * k * width > POWER_EDGE_LIMIT:
        edges = sum(len(key[1]) + len(key[3]) for key in terms)
        if edges > POWER_EDGE_LIMIT:
            raise TooLarge(over_limit("a power holds", edges, "edges", POWER_EDGE_LIMIT))
    if bits > POWER_BIT_LIMIT:
        most = max(map(_coefficient_bits, terms.values()), default=0)
        if most > POWER_BIT_LIMIT:
            raise TooLarge(over_limit("a power holds a coefficient of", most, "bits",
                                      POWER_BIT_LIMIT))
        bits = _bits(terms)
    return bits


# -- matrix units ----------------------------------------------------------------

class MatrixUnits(Record):
    """The n x n matrix units u_ij = p_i p_j* of n legs p_1..p_n, paths
    ending at one vertex.  The legs are the whole family: each unit is
    built only when :meth:`unit` asks for it.  ``provenance`` holds what
    the legs do not say: the SinkTarget or CycleTarget where they end, or,
    for the legs c^i f, the CycleWithExit (c, f).  The one record type
    with an instance dict, where ``_leg_keys`` is cached, so it names its
    slots: the fields, then ``__dict__``."""

    __slots__ = ("graph", "legs", "provenance", "__dict__")

    graph: Graph
    legs: tuple
    provenance: object

    @property
    def n(self) -> int:
        return len(self.legs)

    def unit(self, i: int, j: int) -> Element:
        """u_ij = p_i p_j*, counting from 0."""
        return monomial(self.graph, self.legs[i], self.legs[j])

    @functools.cached_property
    def _leg_keys(self) -> tuple:
        """(the legs' ranges, each leg's (base, edge ids)), vertex ints, from
        one :func:`_path_key` walk per leg; InvalidPath for a non-path."""
        walks = [_path_key(self.graph, p) for p in self.legs]
        return frozenset(r for *_, r in walks), [(b, ids) for b, ids, _ in walks]


def _check_unit_paths(m: MatrixUnits) -> str:
    if not m.legs:
        raise BadMatrixUnitPaths("need at least one path")
    ranges, keys = m._leg_keys
    if len(set(keys)) != len(keys):
        raise BadMatrixUnitPaths("paths are not pairwise distinct")
    names = m.graph.vertices
    if len(ranges) != 1:
        raise BadMatrixUnitPaths(
            f"paths end at several vertices: {[names[r] for r in sorted(ranges)]}")
    return names[next(iter(ranges))]


def matrix_units_acyclic(g: Graph, paths: Iterable[Path]) -> MatrixUnits:
    """Matrix units p_i p_j* from distinct paths ending at a common sink."""
    paths = tuple(paths)
    v = g.vertices[_path_key(g, paths[0])[2]] if paths else None
    units = MatrixUnits(g, paths, SinkTarget(v))
    _check_unit_paths(units)
    if not g.is_sink(v):
        raise BadMatrixUnitPaths(f"target vertex {v!r} is not a sink")
    return units


def matrix_units_exit(g: Graph, c: Cycle, f: EdgeRef, n: int) -> MatrixUnits:
    """Matrix units c^i f f* (c*)^j, 1 <= i,j <= n, for an exit f of the
    cycle c; the cycle is rotated to be based at the exit's source.
    Raises TooLarge, before any leg is built, when the legs would hold
    more than POWER_EDGE_LIMIT edges: |c| n (n + 1) / 2 + n."""
    check_cycle(g, c)
    if n < 1:
        raise ValueError("n must be >= 1")
    if not g.is_edge(f):
        raise NotAnExit(f"not an edge of this graph: {f!r}")
    v = g.src(f)
    verts = cycle_vertices(g, c)
    if v not in verts or f in c.edges:
        raise NotAnExit(f"{f!r} is not an exit of the cycle")
    edges = len(c.edges) * n * (n + 1) // 2 + n
    if edges > POWER_EDGE_LIMIT:
        raise TooLarge(over_limit("the legs c^i f hold", edges, "edges", POWER_EDGE_LIMIT))
    loop = rotate_cycle_to(g, c, v).edges
    legs = tuple(Path(v, loop * i + (f,)) for i in range(1, n + 1))
    return MatrixUnits(g, legs, CycleWithExit(c, f))


def matrix_units_no_exit_cycle(g: Graph, c: Cycle,
                               paths: Iterable[Path]) -> MatrixUnits:
    """Matrix units p_i p_j* from distinct paths ending on a no-exit cycle,
    none of which runs through the entire cycle.

    The cycle has no exit when each of its vertices has out-degree 1; then
    a path that reaches it stays on it, so a path runs through all m of
    its edges exactly when its last m edge ids are cycle edge ids."""
    check_cycle(g, c)
    verts = cycle_vertices(g, c)
    if any(g.out_degree(v) != 1 for v in verts):
        raise BadMatrixUnitPaths("the cycle has an exit")
    units = MatrixUnits(g, tuple(paths), CycleTarget(c))
    v = _check_unit_paths(units)
    if v not in verts:
        raise BadMatrixUnitPaths(f"target vertex {v!r} is not on the cycle")
    m, on_cycle = len(c.edges), set(_path_key(g, Path(verts[0], c.edges))[1])
    for _, ids in units._leg_keys[1]:
        if len(ids) >= m and on_cycle.issuperset(ids[-m:]):
            raise BadMatrixUnitPaths("a path runs through the entire cycle")
    return units


def verify_matrix_units(m: MatrixUnits) -> bool:
    """Decide by exact arithmetic whether the legs give an n x n family of
    matrix units: every u_ij is nonzero and u_ij u_kl = delta_jk u_il.

    One product is formed: P* P = n w, where P = p_1 + ... + p_n and w is
    the legs' common range (legs with several ranges give False).  Each
    p_j* p_k is w (j = k), 0, a nontrivial path or a nontrivial ghost
    path, a normal-form monomial with coefficient +1, so nothing cancels:
    the equation holds exactly when the legs are distinct and none is a
    prefix of another, that is, when p_j* p_k = delta_jk w.  Then
    u_ij u_kl = p_i (p_j* p_k) p_l* = delta_jk u_il, and each u_ij, a
    monomial, is nonzero.  Conversely, matrix units have
    u_jj u_kk = p_j (p_j* p_k) p_k* = 0 for j != k, so p_j* p_k = 0.
    The answer is that of the exhaustive check
    (``oracle.verify_matrix_units_exhaustive``).

    P's terms p_i w* are in normal form, read off the legs' keys.  Raises
    InvalidPath when a leg is not a path."""
    g = m.graph
    ranges, keys = m._leg_keys
    if len(ranges) != 1:
        return False
    (w,) = ranges
    P = Element(g, {key + (w, ()): k for key, k in Counter(keys).items()})
    return P.involution() * P == Element(g, {(w, (), w, ()): m.n})


def jordan_element(m: MatrixUnits) -> Element:
    """The superdiagonal sum u_12 + ... + u_(n-1)n; its nilpotence index
    is exactly n.  Raises UnverifiedUnits unless
    :func:`verify_matrix_units` accepts the family.

    Verification has walked every leg, so the n-1 terms are formed from
    the legs' cached keys and normalized together."""
    if not verify_matrix_units(m):
        raise UnverifiedUnits("matrix unit identities fail")
    keys = m._leg_keys[1]
    raw = [(keys[i] + keys[i + 1], 1) for i in range(m.n - 1)]
    return Element(m.graph, _normalize(_kernel(m.graph), raw))
