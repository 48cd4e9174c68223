"""Independent brute-force checks for the main modules.

The enumerators here deliberately share no traversal logic with the
component pass, path counter or rewriting engine they validate: path
enumeration walks reversed edges breadth-first, cycle detection is a fresh
depth-first search, a path contains a cycle when one of its windows is a
rotation of it, exits are listed edge by edge rather than read off
out-degrees, closed simple paths are counted level by level,
basis enumeration lists paths forward, normal forms and products are
rewritten on Monomial/Fraction values with the special edge taken from
its definition, matrix units are checked through all n^4 products,
hereditary saturated closures are intersections of supersets, and the
graded spectrum classifies the quotient of every admissible pair.
Random generation is fully determined by its seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import algebra, structure
from .graph import (
    OMEGA,
    AdmissiblePair,
    Bundle,
    Cycle,
    EdgeRef,
    Graph,
    LeavittError,
    Path,
    Record,
    TooLarge,
    all_hereditary_saturated,
    breaking_vertices,
    component_cycles,
    count_paths_ending_at,
    cycle_vertices,
    downward_directed,
    is_hereditary_saturated,
    over_limit,
    path_range,
    quotient_graph,
)


class Exit(Record):
    """An exit edge of a cycle.  When the edge comes from an omega bundle,
    ``omega`` is set and the EdgeRef is a representative index."""

    edge: EdgeRef
    omega: bool = False


def exits(g: Graph, c: Cycle) -> list:
    """Every edge leaving a cycle vertex other than the cycle's own edge
    there, as Exit records.  Omega bundles contribute one representative
    Exit flagged omega=True.  The reference for the out-degree test of
    ``graph.condition_L`` and ``graph.cycle_exit_witness``."""
    result = []
    around = {g.src(e): e for e in c.edges}
    for v in cycle_vertices(g, c):
        cyc_edge = around[v]
        for j in g.out[g.vindex[v]]:
            bid, mult = g.ids[j], g.mults[j]
            if mult is OMEGA:
                rep = 0 if not (bid == cyc_edge.bundle and cyc_edge.index == 0) else 1
                result.append(Exit(EdgeRef(bid, rep), omega=True))
                continue
            for i in range(mult):
                e = EdgeRef(bid, i)
                if e != cyc_edge:
                    result.append(Exit(e))
    result.sort(key=lambda x: x.edge)
    return result


@lru_cache(maxsize=16)
def _rotations(cycle: tuple) -> frozenset:
    """All rotations of a cycle's edges.  Cached, and
    :func:`enumerate_paths_ending_at` passes each cycle in the rotation
    that starts at its least edge, so each cycle builds them once."""
    return frozenset(cycle[k:] + cycle[:k] for k in range(len(cycle)))


def contains_cycle(edges: tuple, cycle: tuple) -> bool:
    """Whether some contiguous window of `edges` is a rotation of the
    cycle edges `cycle`: the window test of
    :func:`enumerate_paths_ending_at`, and the reference for the
    trailing-run test of ``structure.witness_paths`` and
    ``algebra.matrix_units_no_exit_cycle``."""
    m = len(cycle)
    if len(edges) < m:
        return False
    rotations = _rotations(cycle)
    return any(edges[i:i + m] in rotations for i in range(len(edges) - m + 1))


def _out_edges(g: Graph, at: str, reach: set):
    """(range, edge) for the edges from `at` into `reach`, an omega bundle giving two."""
    return iter([(g.vertices[g.dsts[j]], EdgeRef(g.ids[j], i))
                 for j in g.out[g.vindex[at]] if g.vertices[g.dsts[j]] in reach
                 for i in range(2 if g.mults[j] is OMEGA else g.mults[j])])


def _cycles_through(g: Graph, v: str) -> list:
    """Elementary edge cycles through v, by a depth-first search from v
    with an explicit stack, in the order a recursive search finds them.

    A cycle through v stays among the vertices that reach v, so those are
    collected first, by a search over reversed bundles, and the depth-first
    search enters no other vertex."""
    reach, stack = {v}, [v]
    while stack:
        for u in [g.vertices[g.srcs[j]] for j in g.into[g.vindex[stack.pop()]]]:
            if u not in reach:
                reach.add(u)
                stack.append(u)
    found, trail, on_trail = [], [], {v}
    work = [_out_edges(g, v, reach)]
    while work:
        for dst, e in work[-1]:
            if dst == v:
                found.append(tuple(trail) + (e,))
            elif dst not in on_trail:
                trail.append(e)
                on_trail.add(dst)
                work.append(_out_edges(g, dst, reach))
                break
        else:
            work.pop()
            if trail:
                on_trail.discard(g.dst(trail.pop()))
    return found


PATH_LIMIT = 100_000  # paths listed into one vertex
BASIS_LIMIT = 200_000  # paths listed, and monomials, for a basis


def enumerate_paths_ending_at(g: Graph, v: str, length_cap: int) -> list:
    """All paths of length <= length_cap ending at v, excluding those that
    run through v's unique cycle in full (when v lies on exactly one
    cycle).  Walks reversed edges breadth-first; TooLarge as soon as
    the paths listed and pending pass PATH_LIMIT (read at call time)."""
    g.vertex_index(v)
    through = _cycles_through(g, v)
    exclude = ()
    if len(through) == 1:
        k = through[0].index(min(through[0]))
        exclude = through[0][k:] + through[0][:k]

    collected = []
    frontier = [Path(v)]
    while frontier:
        nxt = []
        for p in frontier:
            collected.append(p)
            if len(collected) > PATH_LIMIT:
                raise TooLarge(f"more than {PATH_LIMIT} paths into {v!r}")
            if len(p.edges) >= length_cap:
                continue
            for j in g.into[g.vindex[p.base]]:
                if g.mults[j] is OMEGA:
                    raise TooLarge(
                        f"omega bundle {g.ids[j]!r} feeds paths into {v!r}")
                for i in range(g.mults[j]):
                    cand = Path(g.vertices[g.srcs[j]], (EdgeRef(g.ids[j], i),) + p.edges)
                    if not (exclude and contains_cycle(cand.edges, exclude)):
                        nxt.append(cand)
                        if len(collected) + len(nxt) > PATH_LIMIT:
                            raise TooLarge(f"more than {PATH_LIMIT} paths into {v!r}")
        frontier = nxt
    collected.sort(key=lambda p: (len(p.edges), p.edges, p.base))
    return collected


def closed_simple_path_counts(g: Graph) -> dict:
    """For each vertex v, the number of closed paths at v of length at most
    2|V| that do not pass back through v before their end, counting an
    omega bundle as two edges.  Counts walks out of v level by level."""
    limit = 2 * len(g.vertices)
    counts = {}
    for v, name in enumerate(g.vertices):
        total, frontier = 0, {v: 1}
        for _ in range(limit):
            nxt = {}
            for at, k in frontier.items():
                for j in g.out[at]:
                    k_b = k * (2 if g.mults[j] is OMEGA else g.mults[j])
                    if g.dsts[j] == v:
                        total += k_b
                    else:
                        nxt[g.dsts[j]] = nxt.get(g.dsts[j], 0) + k_b
            frontier = nxt
        counts[name] = total
    return counts


def _all_paths(g: Graph, length_cap: int) -> list:
    paths = [Path(v) for v in g.vertices]
    frontier = list(paths)
    while frontier:
        nxt = []
        for p in frontier:
            at = p.edges and g.dst(p.edges[-1]) or p.base
            if len(p.edges) >= length_cap:
                continue
            for j in g.out[g.vindex[at]]:
                if g.mults[j] is OMEGA:
                    raise TooLarge(f"omega bundle {g.ids[j]!r} on a path")
                for i in range(g.mults[j]):
                    nxt.append(Path(p.base, p.edges + (EdgeRef(g.ids[j], i),)))
                    if len(paths) + len(nxt) > BASIS_LIMIT:
                        raise TooLarge(f"more than {BASIS_LIMIT} paths")
        paths.extend(nxt)
        if len(paths) > BASIS_LIMIT:
            raise TooLarge(f"more than {BASIS_LIMIT} paths")
        frontier = nxt
    return paths


def basis_monomials(g: Graph, length_cap: int) -> list:
    """All normal-form monomials with |p| + |q| <= length_cap.  For a
    finite acyclic graph a cap of twice the longest path length yields the
    complete linear basis of the algebra.  TooLarge past BASIS_LIMIT (read
    at call time) paths or monomials."""
    by_range: dict = {}
    for p in _all_paths(g, length_cap):
        at = g.dst(p.edges[-1]) if p.edges else p.base
        by_range.setdefault(at, []).append(p)
    out = []
    for v, paths in sorted(by_range.items()):
        for p in paths:
            for q in paths:
                if len(p.edges) + len(q.edges) > length_cap:
                    continue
                m = algebra.Monomial(p, q)
                if p.edges and q.edges and p.edges[-1] == q.edges[-1] \
                        and algebra.special_edge(g, g.src(p.edges[-1])) == p.edges[-1]:
                    continue
                out.append(m)
                if len(out) > BASIS_LIMIT:
                    raise TooLarge(f"more than {BASIS_LIMIT} monomials")
    out.sort(key=algebra._mono_key)
    return out


class LaurentFactorPresent(LeavittError):
    pass


def acyclic_dimension(d: structure.Decomposition) -> int:
    """Total dimension sum of t^2 over the factors; defined only when all
    factors are over K."""
    for f in d.factors:
        if f.base != structure.BASE_K:
            raise LaurentFactorPresent(f"factor M_{f.size}({f.base})")
    return sum(f.size ** 2 for f in d.factors)


# -- random generation ---------------------------------------------------------

class RandomSpec(Record):
    seed: int
    max_vertices: int = 8
    max_bundles: int = 14
    max_mult: int = 2
    omega_probability: Fraction = Fraction(0)


def random_graph(spec: RandomSpec) -> Graph:
    rng = random.Random(spec.seed)
    n = rng.randint(1, spec.max_vertices)
    vertices = [f"v{i:02d}" for i in range(n)]
    m = rng.randint(0, spec.max_bundles)
    p = Fraction(spec.omega_probability)
    bundles = []
    for j in range(m):
        src = rng.choice(vertices)
        dst = rng.choice(vertices)
        if p and rng.randrange(p.denominator) < p.numerator:
            mult = OMEGA
        else:
            mult = rng.randint(1, spec.max_mult)
        bundles.append(Bundle(f"b{j:02d}", src, dst, mult))
    return Graph(vertices, bundles)


_COEFFICIENTS = (-3, -2, -1, 1, 2, 3)


TRIAL_TERMS = 4  # the most monomials of a sampled element
TRIAL_PATH_LEN = 3  # the most edges of each walk of a sampled monomial


def _walk_stream(g: Graph, seed):
    """The endless stream of random elements of g that
    ``random.Random(seed)`` draws, each a list of raw (kernel key,
    coefficient) pairs, not normalized: a key (base, p ids, q base, q ids)
    joins a forward walk p from base and a backward walk q to p's end, a
    path by construction.  An element has 1 to TRIAL_TERMS terms and each
    walk 0 to TRIAL_PATH_LEN edges, both read on the first draw, when the
    tables and the generator are made; the generator is made here and
    nowhere else, so every element drawn continues its one stream.

    The walk reads two tables, ``out`` and ``into``, that map each vertex
    int to ``(n, k, entries)``: its out-bundles or in-bundles, in the
    order of ``g.out``/``g.into`` (ascending bundle ints, which is id
    order), their count n and n's bit width k.  An entry is ``(other end,
    first, step, choices, width)``, the other end a vertex int and
    ``(first, step)`` read from the graph's kernel, so edge i of the
    bundle has the id ``first + i*step``; ``choices`` is the bundle's
    multiplicity, or 4 for an omega bundle (a walk takes one of its first
    four edges), and ``width`` its bit width.
    A step chooses a bundle, then one of its edges.  Each draw from
    range(n) is the stdlib's rejection rule of ``randint``, ``choice``
    and ``randrange`` written out: ``r = getrandbits(k)`` again while
    ``r >= n``, k = n.bit_length()."""
    slots = algebra._kernel(g).first

    def entries(js, ends):
        listed = []
        for j in js:
            first, step, mult = slots[j]
            choices = 4 if mult is None else mult
            listed.append((ends[j], first, step, choices, choices.bit_length()))
        return len(listed), len(listed).bit_length(), tuple(listed)

    out = [entries(js, g.dsts) for js in g.out]
    into = [entries(js, g.srcs) for js in g.into]
    bits = random.Random(seed).getrandbits
    n_v = len(g.vertices)
    k_v = n_v.bit_length()
    n_terms = TRIAL_TERMS
    k_terms = n_terms.bit_length()
    n_len = TRIAL_PATH_LEN + 1
    k_len = n_len.bit_length()
    while not n_v:
        yield []
    while True:
        walks = []
        r = bits(k_terms)
        while r >= n_terms:
            r = bits(k_terms)
        for _ in range(r + 1):
            r = bits(k_v)
            while r >= n_v:
                r = bits(k_v)
            base = at = r
            p, q = [], []
            r = bits(k_len)
            while r >= n_len:
                r = bits(k_len)
            for _ in range(r):  # p forward from base
                n, k, listed = out[at]
                if not n:
                    break
                r = bits(k)
                while r >= n:
                    r = bits(k)
                at, first, step, n, k = listed[r]
                r = bits(k)
                while r >= n:
                    r = bits(k)
                p.append(first + step * r)
            r = bits(k_len)
            while r >= n_len:
                r = bits(k_len)
            for _ in range(r):  # q back from p's end, written out apart from p:
                n, k, listed = into[at]  # a loop over both walks took 10% longer
                if not n:
                    break
                r = bits(k)
                while r >= n:
                    r = bits(k)
                at, first, step, n, k = listed[r]
                r = bits(k)
                while r >= n:
                    r = bits(k)
                q.append(first + step * r)
            q.reverse()  # in place: tuple(reversed(q)) made a draw 15% slower
            r = bits(3)  # a draw from the six coefficients
            while r >= 6:
                r = bits(3)
            walks.append(((base, tuple(p), at, tuple(q)), _COEFFICIENTS[r]))
        yield walks


def random_raw_terms(g: Graph, spec: RandomSpec) -> list:
    """The raw terms of :func:`random_element` as (Monomial, coefficient)
    pairs, not normalized."""
    table = algebra._kernel(g)
    return [(algebra._monomial(g.vertices, table, key), k) for key, k in
            next(_walk_stream(g, spec.seed))]


def random_element(g: Graph, spec: RandomSpec) -> algebra.Element:
    """Reproducible random element in normal form: the first element of
    the stream that ``spec.seed`` seeds, so trial 0 of a check with that
    seed."""
    raw = next(_walk_stream(g, spec.seed))
    return algebra.Element(g, algebra._normalize(algebra._kernel(g), raw))


def nilpotence_index_sequential(a: algebra.Element, k_max: int):
    """The nilpotence probe one power at a time: a^2, a^3, ... up to the
    first that is zero, to k_max, or to the first with more than
    ``algebra.TERM_LIMIT`` terms; the reference for ``algebra.nilpotence_index``."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if a.is_zero():
        return algebra.NilpotentOfIndex(1)
    power = a
    for k in range(2, k_max + 1):
        power = power * a
        if power.is_zero():
            return algebra.NilpotentOfIndex(k)
        if power.support_size() > algebra.TERM_LIMIT:
            return algebra.ResourceLimit(k, power.support_size())
    return algebra.NotNilpotentWithin(k_max)


# -- the rewriting kernel, on Monomial and Fraction values -----------------------

def _special_edge_reference(g: Graph, v: str):
    return g.edges_out(v)[0] if g.is_regular(v) else None


def _is_reducible(g: Graph, m: algebra.Monomial) -> bool:
    if not m.p.edges or not m.q.edges:
        return False
    last = m.p.edges[-1]
    if m.q.edges[-1] != last:
        return False
    return _special_edge_reference(g, g.src(last)) == last


def _reduce_once(g: Graph, m: algebra.Monomial) -> list:
    """Expansion of one reducible monomial as (monomial, sign) pairs."""
    last = m.p.edges[-1]
    v = g.src(last)
    p0 = Path(m.p.base, m.p.edges[:-1])
    q0 = Path(m.q.base, m.q.edges[:-1])
    out = [(algebra.Monomial(p0, q0), 1)]
    for e in g.edges_out(v):
        if e != last:
            out.append((algebra.Monomial(Path(p0.base, p0.edges + (e,)),
                                 Path(q0.base, q0.edges + (e,))), -1))
    return out


def _mono_product(a: algebra.Monomial,
                  b: algebra.Monomial) -> algebra.Monomial | None:
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
        return algebra.Monomial(Path(a.p.base, a.p.edges + r.edges[lq:]), b.q)
    if q.edges[:lr] != r.edges:
        return None
    return algebra.Monomial(a.p, Path(b.q.base, b.q.edges + q.edges[lr:]))


def normal_form_reference(g: Graph, raw, strategy: str = "leftmost",
                          seed: int = 0) -> list:
    """The normal form of (Monomial, coefficient) pairs, rewritten on
    Monomial values with Fraction coefficients; the reference for
    ``algebra.normal_form``.  ``strategy`` expands the oldest pending
    monomial ("leftmost") or a seeded random one ("random"): every order
    gives the same sorted term list, as ``Element.terms()`` gives it."""
    rng = random.Random(seed) if strategy == "random" else None
    pending = []
    for m, k in raw:
        k = Fraction(k)
        if k == 0:
            continue
        if path_range(g, m.p) != path_range(g, m.q):
            raise algebra.RangeMismatch(
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
    return sorted(result.items(), key=lambda kv: algebra._mono_key(kv[0]))


def product_reference(g: Graph, a, b) -> list:
    """The product of two term lists of (Monomial, coefficient) pairs, by
    contracting every pair and renormalizing with
    :func:`normal_form_reference`; the reference for ``Element.__mul__``."""
    raw = {}
    for m1, k1 in a:
        for m2, k2 in b:
            m = _mono_product(m1, m2)
            if m is not None:
                c = raw.get(m, Fraction(0)) + k1 * k2
                if c:
                    raw[m] = c
                else:
                    del raw[m]
    return normal_form_reference(g, raw.items())


# -- matrix units ----------------------------------------------------------------

def verify_matrix_units_exhaustive(m: algebra.MatrixUnits) -> bool:
    """Build the n x n grid u_ij = p_i p_j* from the legs and check
    nonzeroness and all n^4 product identities u_ij u_kl = delta_jk u_il
    by exact arithmetic; legs with several ranges give no grid.  The
    reference for ``algebra.verify_matrix_units``."""
    n = m.n
    try:
        u = [[m.unit(i, j) for j in range(n)] for i in range(n)]
    except algebra.RangeMismatch:
        return False
    if not u or any(x.is_zero() for row in u for x in row):
        return False
    zero = algebra.Element.zero(m.graph)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    expected = u[i][l] if j == k else zero
                    if u[i][j] * u[k][l] != expected:
                        return False
    return True


# -- hereditary saturated sets and the graded spectrum -----------------------------

def hereditary_saturated_closure_exhaustive(g: Graph, X) -> frozenset:
    """The intersection of every hereditary saturated superset of X, found
    by listing all subsets of the remaining vertices; the reference for
    ``graph.hereditary_saturated_closure`` on small graphs."""
    X = frozenset(X)
    rest = [v for v in g.vertices if v not in X]
    H = frozenset(g.vertices)
    for k in range(1 << len(rest)):
        Y = X | {rest[i] for i in range(len(rest)) if k >> i & 1}
        if is_hereditary_saturated(g, Y):
            H &= Y
    return H


class NotABreakingVertex(LeavittError):
    pass


def breaking_vertex_element(g: Graph, H, v: str) -> algebra.Element:
    """The idempotent of a breaking vertex: v minus the projections of its
    finitely many edges landing outside H."""
    if v not in breaking_vertices(g, H):
        raise NotABreakingVertex(f"{v!r} is not a breaking vertex of H")
    out = algebra.vertex_element(g, v)
    for j in g.out[g.vindex[v]]:
        if g.vertices[g.dsts[j]] in H:
            continue
        for i in range(g.mults[j]):
            p = Path(v, (EdgeRef(g.ids[j], i),))
            out = out - algebra.monomial(g, p, p)
    return out


def classify_quotient(q: Graph):
    """Classify a quotient graph q of a bounded graph: None when q is empty
    or not downward directed, else the Factor M_t(K) or M_t(K[x,x^-1]) of
    its one sink or no-exit cycle, t the path count there."""
    if not q.vertices or not downward_directed(q):
        return None
    sinks = q.sinks()
    qcycles = component_cycles(q)
    assert len(sinks) + len(qcycles) == 1, "downward-directed bounded quotient must have one target"
    if sinks:
        return structure.Factor(count_paths_ending_at(q, sinks[0]), structure.BASE_K)
    base = q.src(qcycles[0].edges[0])
    return structure.Factor(count_paths_ending_at(q, base), structure.BASE_LAURENT)


def graded_spectrum_exhaustive(g: Graph) -> list:
    """Classify every admissible pair whose quotient is downward directed,
    in deterministic (H, S) order, by listing every hereditary saturated
    set and every subset of its breaking vertices and classifying each
    quotient graph; the reference for ``structure.graded_spectrum``."""
    structure.bounded_blocks(g)
    out = []
    for H in all_hereditary_saturated(g):
        B = sorted(breaking_vertices(g, H))
        for k in range(1 << len(B)):
            S = frozenset(B[i] for i in range(len(B)) if k >> i & 1)
            pair = AdmissiblePair(H, S)
            cls = classify_quotient(quotient_graph(g, pair))
            if cls is not None:
                out.append((pair, cls))
    return out


# -- cross-checking --------------------------------------------------------------

def path_count_agreement(g: Graph) -> tuple:
    """(vertices checked, mismatches): at each vertex v whose path count
    ``graph.count_paths_ending_at`` is finite, the count against the paths
    :func:`enumerate_paths_ending_at` lists into v up to length
    max(1, |V|) * (count + 1); a mismatch is (v, count, listed)."""
    checked, mismatches = 0, []
    for v in g.vertices:
        count = count_paths_ending_at(g, v)
        if count is OMEGA:
            continue
        cap = max(1, len(g.vertices)) * (count + 1)
        listed = len(enumerate_paths_ending_at(g, v, cap))
        checked += 1
        if listed != count:
            mismatches.append((v, count, listed))
    return checked, mismatches


class CrossCheckReport(Record):
    n: int
    trials: int
    probe_bound: int
    seed: int
    nilpotent_found: int
    resource_limited: int
    empirical_max_index: int
    witness_index: int
    violations: tuple


def _scalar_class(terms: dict) -> frozenset:
    """An int term map up to a nonzero scalar: its items with the
    coefficients divided by their gcd, and signed so that the least key's
    is positive."""
    if not terms:
        return frozenset()
    d = gcd(*terms.values())
    if terms[min(terms)] < 0:
        d = -d
    return frozenset(terms.items() if d == 1 else [(key, k // d) for key, k in terms.items()])


def cross_check_index(g: Graph, trials: int, seed: int) -> CrossCheckReport:
    """Sample random elements of a bounded-index algebra and confirm no
    nilpotent element exceeds the reported bound n, probing each to
    ``probe_bound`` = n + 3 powers; also build the witness and confirm it
    attains the bound exactly.  A trial whose normalization or probe meets
    a resource limit (too many terms, or a power over the edge limit)
    counts under ``resource_limited``; the witness's probe raises
    ``TooLarge`` at either limit.

    The trials draw from one stream: :func:`_walk_stream` with ``seed``
    makes one generator, and trial t's element is the stream's next
    element, so trial 0 is ``random_element`` with that seed and a check
    seeds no generator per trial.

    An element whose block trace (``structure.block_trace``) is nonzero is
    not nilpotent, and gets ``NotNilpotentWithin(bound)`` with no probe.
    This runs only when ``structure.trace_settles`` finds that no power
    the probe could form can pass a limit, for keys of at most
    2 * TRIAL_PATH_LEN edges (a trial's p and q walks), so the probe would
    give that verdict too, and the report is the probe's in every case.  The trace
    is read off the trial's raw keys (:func:`_walk_stream`), before any
    normalization (tau is linear, and its rule for a key needs no normal
    form), so a settled trial builds no term map or Element.

    Every other trial is normalized and probed, once per scalar class: c a
    reuses the verdict of a, resource limits included, as (c a)^k = c^k a^k
    has the support and edge count of a^k.  The memo holds at most
    ``trials`` entries, all of them probed elements.

    Where the guard admits the graph, the probe gets the block trace as
    its ``settle`` predicate: a square a^(2^i) of nonzero trace is not
    nilpotent, so neither is a, and the probe stops there with
    ``NotNilpotentWithin(bound)``, forming no further power.  The
    witness's probe, and every probe on a graph the guard refuses, take
    no predicate; every probe keeps every limit check."""
    report = structure.bounded_blocks(g).report
    n = report.n
    bound = n + 3
    violations = []
    found = 0
    limited = 0
    empirical = 0
    table = algebra._kernel(g)
    stream = _walk_stream(g, seed)
    traces = settle = None
    if structure.trace_settles(g, bound, 2 * TRIAL_PATH_LEN):
        traces = structure.trace_tables(g)

        def settle(z):
            return structure.block_trace(traces, z.items())
    verdicts = {}  # scalar class of a probed term map -> verdict, None for TooLarge
    for t, raw in zip(range(trials), stream):
        if traces is not None and structure.block_trace(traces, raw):
            continue  # NotNilpotentWithin(bound), which counts nothing
        try:
            terms = algebra._normalize(table, raw)
        except TooLarge:  # a rewrite past the term limit
            limited += 1
            continue
        key = _scalar_class(terms)
        if key in verdicts:
            verdict = verdicts[key]
        else:
            try:
                verdict = algebra.nilpotence_index(
                    algebra.Element(g, terms), bound, settle=settle)
            except TooLarge:  # a power over the edge limit
                verdict = None
            verdicts[key] = verdict
        if verdict is None or isinstance(verdict, algebra.ResourceLimit):
            limited += 1
        elif isinstance(verdict, algebra.NilpotentOfIndex):
            found += 1
            empirical = max(empirical, verdict.index)
            if verdict.index > n:
                violations.append(
                    f"trial {t}: nilpotent of index {verdict.index} > {n}")
    if report.witness_target is None:
        witness_index = 1
    else:
        units = structure.witness_matrix_units(g)
        j = algebra.jordan_element(units)
        verdict = algebra.nilpotence_index(j, n + 1)
        if isinstance(verdict, algebra.ResourceLimit):
            raise TooLarge(over_limit(
                f"power {verdict.power} of the witness's Jordan element holds",
                verdict.terms, "terms", algebra.TERM_LIMIT))
        witness_index = verdict.index if isinstance(
            verdict, algebra.NilpotentOfIndex) else -1
    if witness_index != n:
        violations.append(
            f"witness jordan element has index {witness_index}, expected {n}")
    return CrossCheckReport(
        n=n, trials=trials, probe_bound=bound, seed=seed,
        nilpotent_found=found, resource_limited=limited,
        empirical_max_index=empirical, witness_index=witness_index,
        violations=tuple(violations))
