"""Metamorphic checks: graph moves whose effect on every verdict is known.

Renaming the vertices and the bundle ids of a graph by a bijection gives
an isomorphic graph, so its algebra is the same.  The renaming is chosen
to change the sort order of the names, which the code uses to order
vertices, bundles, targets and paths; no verdict may depend on it.

The algebra of a disjoint union is the direct product of the parts'
algebras, so its index is bounded exactly when both are, its bound is the
larger one, and its targets, factors and cycles are the parts' together."""

import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import corpus
from leavitt import cli
from leavitt.graph import Bundle, Graph
from leavitt.graphio import canonical_document
from leavitt.oracle import RandomSpec, random_graph


def _shuffled_names(names, prefix: str, rng: random.Random) -> dict:
    """A bijection from the sorted ``names`` to new names whose sort order
    is a seeded shuffle of theirs, reversed when the shuffle left it as it
    was (so two or more names always change order)."""
    order = list(range(len(names)))
    rng.shuffle(order)
    if order == sorted(order):
        order.reverse()
    return {name: f"{prefix}{k:03d}" for name, k in zip(sorted(names), order)}


def _relabelled(g: Graph, rng: random.Random) -> tuple:
    """(the renamed graph, the vertex map, the bundle-id map)."""
    vmap = _shuffled_names(g.vertices, "x", rng)
    bmap = _shuffled_names([b.id for b in g.bundles], "z", rng)
    h = Graph([vmap[v] for v in g.vertices],
              [Bundle(bmap[b.id], vmap[b.src], vmap[b.dst], b.mult) for b in g.bundles])
    return h, vmap, bmap


def _run_json(capsys, path: str, command: str) -> dict:
    code = cli.main([command, path, "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 0, (command, err)
    return json.loads(out)


def _invariants(capsys, g: Graph, path, vmap: dict, bmap: dict) -> tuple:
    """What `index`, `decompose` and `ideals` print that no renaming may
    change, with the names in it read through the maps: the verdicts, n,
    the reason kind, the targets with their counts, the factors, and the
    quotients with their classifications."""
    path.write_text(canonical_document(g))
    index = _run_json(capsys, str(path), "index")
    decomposed = _run_json(capsys, str(path), "decompose")
    ideals = _run_json(capsys, str(path), "ideals")
    targets = Counter()
    for t in index.get("per_target", ()):
        if t["kind"] == "sink":
            targets[("sink", vmap[t["vertex"]], t["count"])] += 1
        else:
            cycle = frozenset(bmap[e["bundle"]] for e in t["cycle"]["edges"])
            targets[("cycle", cycle, t["count"])] += 1
    quotients = Counter(
        (frozenset(map(vmap.get, q["H"])), frozenset(map(vmap.get, q["S"])),
         q["classification"]["size"], q["classification"]["base"])
        for q in ideals.get("quotients", ()))
    return (index["verdict"], index.get("n"), index.get("reason", {}).get("kind"),
            targets, decomposed["verdict"], decomposed.get("factors"),
            ideals["verdict"], quotients)


def _graphs() -> list:
    """The fixtures, and 240 seeded random graphs with 1 to 12 bundles,
    a third of them with omega bundles."""
    graphs = [build() for _, build in sorted(corpus.CORPUS.items())]
    graphs += [random_graph(RandomSpec(seed=s, max_bundles=1 + s % 12,
                                       omega_probability=Fraction(s % 3 // 2, 3)))
               for s in range(240)]
    return graphs


def test_relabelling_changes_no_verdict(capsys, tmp_path):
    """On the fixtures and 240 seeds, `index`, `decompose` and `ideals`
    give the same verdicts, n, per-target counts, factors and quotient
    classifications before and after renaming vertices and bundle ids by
    a bijection that changes their sort order."""
    rng = random.Random(11)
    kinds = Counter()
    for i, g in enumerate(_graphs()):
        h, vmap, bmap = _relabelled(g, rng)
        assert len(g.vertices) < 2 or [vmap[v] for v in g.vertices] != list(h.vertices)
        before = _invariants(capsys, g, tmp_path / "g.graph", vmap, bmap)
        after = _invariants(capsys, h, tmp_path / "h.graph",
                            dict(zip(h.vertices, h.vertices)),
                            {b.id: b.id for b in h.bundles})
        assert before == after, i
        kinds[before[0], before[2]] += 1
    assert kinds["bounded", None] >= 60, kinds
    assert kinds["unbounded", "cycle_with_exit"] >= 60, kinds
    assert kinds["unbounded", "omega_path_family"] >= 5, kinds


def _run(capsys, path: str, *args) -> tuple:
    """(exit code, the JSON printed or None) of one command."""
    code = cli.main([args[0], path, "--format", "json", *args[1:]])
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def _witness_and_check(capsys, g: Graph, path) -> tuple:
    """What `witness` and `check --trials 20` print that no renaming may
    change: witness's exit code, n, verified, Jordan index and provenance
    kind; check's ok, n, witness index, vertices checked and mismatches.
    The sampled counts depend on the order of the labels, and are left
    out."""
    path.write_text(canonical_document(g))
    code, witness = _run(capsys, str(path), "witness")
    if witness is not None:
        witness = (witness["n"], witness["verified"], witness["jordan_index"],
                   witness["provenance"]["kind"])
    _, check = _run(capsys, str(path), "check", "--trials", "20")
    sampling = check["sampling"] or {}
    return (code, witness, check["ok"], sampling.get("n"),
            sampling.get("witness_index"), check["dp_agreement"]["vertices_checked"],
            check["dp_agreement"]["mismatches"])


def test_relabelling_keeps_witness_and_check(capsys, tmp_path):
    """On the fixtures and 240 seeds, `witness` and `check` agree before
    and after renaming, and every check is ok."""
    rng = random.Random(11)
    kinds = Counter()
    for i, g in enumerate(_graphs()):
        h, _, _ = _relabelled(g, rng)
        before = _witness_and_check(capsys, g, tmp_path / "g.graph")
        assert before == _witness_and_check(capsys, h, tmp_path / "h.graph"), i
        assert before[2] and before[6] == [], i
        kinds[before[0], before[1] and before[1][3]] += 1
    assert kinds[0, "acyclic_paths"] >= 100, kinds
    assert kinds[0, "cycle_exit_powers"] >= 100, kinds
    assert kinds[0, "no_exit_cycle_paths"] >= 5, kinds


def _prefixed(g: Graph, prefix: str) -> tuple:
    """g's vertices and bundles with every name prefixed."""
    return ([prefix + v for v in g.vertices],
            [Bundle(prefix + b.id, prefix + b.src, prefix + b.dst, b.mult)
             for b in g.bundles])


def _union_facts(capsys, g: Graph, path, prefix: str) -> tuple:
    """What `index`, `decompose` and `analyze` print about g, with every
    name prefixed: bounded, n, the per-target rows and the factors as
    multisets, the cycles as a set (or the omega-cycle error) and
    Conditions (L) and (K)."""
    path.write_text(canonical_document(g))
    index = _run_json(capsys, str(path), "index")
    decomposed = _run_json(capsys, str(path), "decompose")
    analyzed = _run_json(capsys, str(path), "analyze")
    rows = Counter()
    for t in index.get("per_target", ()):
        where = (prefix + t["vertex"] if t["kind"] == "sink" else
                 tuple((prefix + e["bundle"], e["index"]) for e in t["cycle"]["edges"]))
        rows[t["kind"], where, t["count"]] += 1
    factors = Counter()
    for f in decomposed.get("factors", ()):
        factors[f["size"], f["base"]] += f["count"]
    cycles = analyzed["cycles"]
    if isinstance(cycles, dict):
        cycles = cycles["error"]
    else:
        cycles = {tuple((prefix + e["bundle"], e["index"]) for e in c["edges"])
                  for c in cycles}
    return (index["verdict"] == "bounded", index.get("n"), rows,
            decomposed["verdict"], factors, cycles,
            analyzed["condition_L"], analyzed["condition_K"])


def _union_pairs() -> list:
    """Every pair of fixtures, a fixture with itself included, and 120
    pairs of the seeded graphs of :func:`_graphs`."""
    fixtures = [build() for _, build in sorted(corpus.CORPUS.items())]
    seeded = _graphs()[len(fixtures):]
    return (list(itertools.combinations_with_replacement(fixtures, 2))
            + list(zip(seeded[::2], seeded[1::2])))


def test_disjoint_union_combines_the_parts(capsys, tmp_path):
    """On every pair of fixtures and 120 seeded pairs, the disjoint union
    of G and H (names prefixed apart) is bounded exactly when both are,
    with the larger n; then its targets and factors are the multiset
    unions of theirs.  Its cycles are the union of theirs, and Conditions (L) and (K) hold
    exactly when they hold on both."""
    verdicts = Counter()
    for i, (g, h) in enumerate(_union_pairs()):
        vg, bg = _prefixed(g, "g:")
        vh, bh = _prefixed(h, "h:")
        u = _union_facts(capsys, Graph(vg + vh, bg + bh), tmp_path / "u.graph", "")
        a = _union_facts(capsys, g, tmp_path / "g.graph", "g:")
        b = _union_facts(capsys, h, tmp_path / "h.graph", "h:")
        bounded = a[0] and b[0]
        assert u[0] == bounded, i
        assert u[1] == (max(a[1], b[1]) if bounded else None), i
        assert u[2] == (a[2] + b[2] if bounded else Counter()), i
        if "not_row_finite" in (a[3], b[3]):
            assert u[3] == "not_row_finite", i
        else:
            assert u[3] == ("decomposed" if bounded else "unbounded"), i
        assert u[4] == (a[4] + b[4] if u[3] == "decomposed" else Counter()), i
        if "cycle_through_omega_bundle" in (a[5], b[5]):
            assert u[5] == "cycle_through_omega_bundle", i
        else:
            assert u[5] == a[5] | b[5], i
        undecided = a[6] is None or b[6] is None  # an omega bundle on a cycle
        assert u[6] == (None if undecided else a[6] and b[6]), i
        assert u[7] == (a[7] and b[7]), i
        verdicts[a[0], b[0]] += 1
    assert min(verdicts[True, True], verdicts[True, False], verdicts[False, False]) >= 15, verdicts
