"""Graph families for the benchmark and the answers each job must produce.

Every graph is built here as a plain graph document (the JSON the CLI
reads), from the workload seed alone; the program only ever sees the
documents.  The scale families carry closed-form answers.  For the seeded
random families the answers are derived in this file from the document
(strongly connected components, reachability, longest paths) and, for path
counts, from the independent enumerator in ``leavitt.oracle``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

K = "K"
LAURENT = "K[x,x^-1]"


@dataclass
class Graph:
    """A generated graph document plus the facts its jobs are checked
    against.  ``targets`` maps each sink or cycle base vertex to its path
    count; it is filled for bounded graphs only."""

    family: str
    size: int
    vertices: list
    edges: list  # (id, src, dst, mult)
    bounded: bool = True
    n: int | None = None
    targets: dict = field(default_factory=dict)  # base vertex -> (base, count)
    cycles: int | None = None  # exact elementary-cycle count when known
    min_cycles: int = 0
    facts: dict = field(default_factory=dict)  # analyze booleans and sinks

    @property
    def name(self) -> str:
        return f"{self.family}-{self.size}"

    def document(self) -> dict:
        return {"vertices": list(self.vertices),
                "edges": [{"id": i, "src": s, "dst": d, "mult": m}
                          for i, s, d, m in self.edges]}

    def out_mult(self) -> dict:
        out = {v: 0 for v in self.vertices}
        for _, s, _, m in self.edges:
            out[s] += m
        return out

    def succ(self) -> dict:
        out = {v: set() for v in self.vertices}
        for _, s, d, _ in self.edges:
            out[s].add(d)
        return out

    def pred(self) -> dict:
        into = {v: set() for v in self.vertices}
        for _, s, d, _ in self.edges:
            into[d].add(s)
        return into

    def factors(self) -> dict:
        """Expected decomposition as {(size, base): count}."""
        out: dict = {}
        for base, cnt in self.targets.values():
            out[(cnt, base)] = out.get((cnt, base), 0) + 1
        return out

    def spectrum(self) -> set:
        """Expected graded spectrum of a bounded graph without omega
        bundles: one quotient per sink or cycle T, with H the vertices that
        cannot reach T and S empty, classified by T's path count."""
        pred = self.pred()
        out = set()
        for t, (base, cnt) in self.targets.items():
            anc = {t}
            stack = [t]
            while stack:
                for u in pred[stack.pop()]:
                    if u not in anc:
                        anc.add(u)
                        stack.append(u)
            H = tuple(sorted(v for v in self.vertices if v not in anc))
            out.add((H, (), base, cnt))
        return out


# -- scale families with closed-form answers --------------------------------------

def _line_facts(g: Graph, sink: str) -> Graph:
    g.cycles = 0
    g.facts = {"sinks": [sink], "no_exit_cycles": True, "condition_L": True,
               "condition_K": True, "downward_directed": True}
    return g


def clock(m: int) -> Graph:
    """A centre with one edge to each of m sinks: n = 2, M_2(K) x m."""
    vs = ["v"] + [f"w{i}" for i in range(1, m + 1)]
    es = [(f"e{i}", "v", f"w{i}", 1) for i in range(1, m + 1)]
    g = Graph("clock", m, vs, es, n=2,
              targets={f"w{i}": (K, 2) for i in range(1, m + 1)}, cycles=0)
    g.facts = {"sinks": sorted(vs[1:]), "no_exit_cycles": True,
               "condition_L": True, "condition_K": True,
               "downward_directed": m == 1}
    return g


def line(k: int, mult: int = 1) -> Graph:
    """Path on k vertices: n = k.  With every edge of multiplicity 2 (the
    doubled line) there are 2^k - 1 paths into the sink, so n = 2^k - 1."""
    vs = [f"u{i}" for i in range(1, k + 1)]
    es = [(f"e{i}", f"u{i}", f"u{i + 1}", mult) for i in range(1, k)]
    n = k if mult == 1 else (mult ** k - 1) // (mult - 1)
    family = "line" if mult == 1 else "doubled_line"
    return _line_facts(Graph(family, k, vs, es, n=n, targets={f"u{k}": (K, n)}),
                       f"u{k}")


def cycle(k: int, tail: int, rng: random.Random) -> Graph:
    """A k-cycle without exit fed by an in-forest of `tail` vertices whose
    shape comes from the seed.  Every forest vertex adds one path into the
    cycle base, so n = k + tail, classified over K[x,x^-1]."""
    vs = [f"c{i}" for i in range(1, k + 1)] + [f"t{i}" for i in range(1, tail + 1)]
    es = [(f"a{i}", f"c{i}", f"c{i % k + 1}", 1) for i in range(1, k + 1)]
    for i in range(1, tail + 1):
        # each tail vertex feeds a later tail vertex or a cycle vertex
        later = [f"t{j}" for j in range(i + 1, min(tail, i + 3) + 1)]
        dst = rng.choice(later + [f"c{rng.randint(1, k)}"]) if later \
            else f"c{rng.randint(1, k)}"
        es.append((f"s{i}", f"t{i}", dst, 1))
    n = k + tail
    g = Graph("cycle", k, vs, es, n=n, targets={"c1": (LAURENT, n)}, cycles=1)
    g.facts = {"sinks": [], "no_exit_cycles": True, "condition_L": False,
               "condition_K": False, "downward_directed": True}
    return g


def omega_gadget() -> Graph:
    """An infinite emitter with an omega bundle into one sink: unbounded
    through an infinite path family, with matrix units of any size."""
    return Graph("omega_gadget", 3, ["h", "v", "w"],
                 [("a", "v", "h", "omega"), ("e", "v", "w", 1)], bounded=False)


def graph_f() -> Graph:
    """Two 4-cycles joined by edge f: unbounded because cycle a1.a2.a3.a4
    has exit f."""
    vs = [f"g{i}" for i in range(1, 5)] + [f"c{i}" for i in range(1, 5)]
    es = [(f"a{i}", f"g{i}", f"g{i % 4 + 1}", 1) for i in range(1, 5)]
    es += [(f"b{i}", f"c{i}", f"c{i % 4 + 1}", 1) for i in range(1, 5)]
    es.append(("f", "g1", "c1", 1))
    return Graph("graph_f", 8, vs, es, bounded=False)


# -- seeded random families --------------------------------------------------------

def random_bounded(rng: random.Random, size: int, n_range: tuple,
                   cycles: bool = True) -> Graph:
    """Bounded by construction: exitless cycles (about one per ten vertices,
    none if `cycles` is off) and sinks fed by a DAG in which every third
    vertex has two out-bundles and the others one, of multiplicity 1-2,
    towards later vertices or targets.  The counts are fixed by the size so
    that the cost varies little between seeds; the shape comes from `rng`.
    Drawn again until the largest path count n lies in `n_range`, so that
    the witness listing and the nilpotence probes stay a fixed size."""
    while True:
        vs, es, targets = [], [], []
        ncyc = max(1, size // 10) if cycles else 0
        for c in range(ncyc):
            length = rng.randint(1, 4)
            cv = [f"z{c}_{i}" for i in range(length)]
            vs += cv
            es += [(f"y{c}_{i}", cv[i], cv[(i + 1) % length], 1)
                   for i in range(length)]
            targets.append(cv)
        nsink = max(1, min(size // 10, size - len(vs)))
        targets += [[f"s{i}"] for i in range(nsink)]
        vs += [f"s{i}" for i in range(nsink)]
        ends = [v for t in targets for v in t]
        dag = [f"x{i:03d}" for i in range(max(0, size - len(vs)))]
        vs += dag
        # paths ending at each vertex; DAG edges only point forward, so
        # list order is a topological order
        into = {v: 0 for v in vs}
        for i, x in enumerate(dag):
            into[x] += 1
            later = dag[i + 1:i + 6]
            for j in range(1 + (i % 3 == 0)):
                dst = rng.choice(later) if later and rng.random() < 0.7 \
                    else rng.choice(ends)
                mult = 2 if rng.random() < 0.15 else 1
                es.append((f"b{i:03d}_{j}", x, dst, mult))
                into[dst] += mult * into[x]
        lo, hi = n_range
        if lo <= max(sum(1 + into[v] for v in t) for t in targets) <= hi:
            return Graph("random_bounded", size, vs, es)


def random_sparse(rng: random.Random, size: int) -> Graph:
    """A sparse general digraph: about one bundle per vertex with uniformly
    random ends and multiplicity 1-2; usually unbounded."""
    vs = [f"v{i:03d}" for i in range(size)]
    es = []
    for j in range(size):
        mult = 2 if rng.random() < 0.15 else 1
        es.append((f"b{j:03d}", rng.choice(vs), rng.choice(vs), mult))
    return Graph("random_sparse", size, vs, es, bounded=False)


def _sccs(g: Graph) -> list:
    """Strongly connected components, by an iterative Tarjan search."""
    succ = {v: sorted(s) for v, s in g.succ().items()}
    index, low, on, stack, out = {}, {}, set(), [], []
    counter = 0
    for root in g.vertices:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, i = work.pop()
            if i == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on.add(v)
            if i < len(succ[v]):
                work.append((v, i + 1))
                w = succ[v][i]
                if w not in index:
                    work.append((w, 0))
                elif w in on:
                    low[v] = min(low[v], index[w])
                continue
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)
    return out


def derive_facts(g: Graph, count_paths) -> Graph:
    """Fill in the answers for a random graph without omega bundles.

    A cycle has an exit exactly when one of its vertices has out-multiplicity
    2 or more; with none, every cyclic component is a single exitless cycle
    and the algebra has bounded index.  Condition (K) fails exactly when a
    cyclic component has as many internal edges as vertices; the graph is
    downward directed exactly when its condensation has one sink component.
    ``count_paths(v)`` gives the number of paths ending at v."""
    comps = _sccs(g)
    where = {v: i for i, c in enumerate(comps) for v in c}
    inner = [0] * len(comps)
    has_out = [False] * len(comps)  # some edge leaves the component
    loops = set()
    for _, s, d, m in g.edges:
        if where[s] == where[d]:
            inner[where[s]] += m
            if s == d:
                loops.add(s)
        else:
            has_out[where[s]] = True
    cyclic = [i for i, c in enumerate(comps) if len(c) > 1 or c[0] in loops]
    out_mult = g.out_mult()
    cyc_vertices = [v for i in cyclic for v in comps[i]]
    no_exit = all(out_mult[v] == 1 for v in cyc_vertices)
    sinks = sorted(v for v in g.vertices if out_mult[v] == 0)
    g.bounded = no_exit
    g.facts = {
        "sinks": sinks,
        "no_exit_cycles": no_exit,
        "condition_L": not any(all(out_mult[v] == 1 for v in comps[i])
                               for i in cyclic),
        "condition_K": not any(inner[i] == len(comps[i]) for i in cyclic),
        "downward_directed": has_out.count(False) == 1,
    }
    g.min_cycles = len(cyclic)
    if no_exit:
        g.cycles = len(cyclic)
        g.targets = {v: (K, count_paths(v)) for v in sinks}
        for i in cyclic:
            base = min(comps[i])
            g.targets[base] = (LAURENT, count_paths(base))
        g.n = max((c for _, c in g.targets.values()), default=1)
    return g


def longest_path(g: Graph) -> int:
    """Edges on a longest path of an acyclic graph."""
    succ = g.succ()
    depth: dict = {}
    for root in g.vertices:
        stack = [root]
        while stack:
            v = stack[-1]
            todo = [w for w in succ[v] if w not in depth]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            depth[v] = max((1 + depth[w] for w in succ[v]), default=0)
    return max(depth.values(), default=0)
