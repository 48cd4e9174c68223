from fractions import Fraction

import hashlib
import inspect
import itertools
import json
import random

import pytest

import corpus
from conftest import doubled_line, fixture_path, tailed_cycle
from leavitt import algebra, cli, oracle
from leavitt.algebra import (
    BadMatrixUnitPaths,
    MatrixUnits,
    Monomial,
    jordan_element,
    matrix_units_exit,
    matrix_units_no_exit_cycle,
    nilpotence_index,
    normal_form,
    verify_matrix_units,
)
from leavitt import structure
from leavitt.graph import (
    OMEGA,
    Bundle,
    EdgeRef,
    Graph,
    InvalidPath,
    Path,
    component_cycles,
    count_paths_ending_at,
    cycle_vertices,
    cycles,
    path_range,
)
from leavitt.graphio import canonical_document, load_graph
from leavitt.oracle import (
    CrossCheckReport,
    RandomSpec,
    _all_paths,
    _cycles_through,
    _rotations,
    acyclic_dimension,
    basis_monomials,
    contains_cycle,
    cross_check_index,
    enumerate_paths_ending_at,
    graded_spectrum_exhaustive,
    nilpotence_index_sequential,
    normal_form_reference,
    product_reference,
    random_element,
    random_graph,
    random_raw_terms,
    verify_matrix_units_exhaustive,
)
from leavitt.structure import (
    Bounded,
    CycleTarget,
    PreconditionUnbounded,
    SinkTarget,
    bounded_index_report,
    decompose,
    graded_spectrum,
    witness_matrix_units,
    witness_paths,
    witness_tree,
)


def test_enumerate_clock3():
    g = corpus.clock(3)
    paths = enumerate_paths_ending_at(g, "w1", 10)
    assert paths == [Path("w1"), Path("v", (EdgeRef("e1"),))]


def test_enumerate_line4():
    assert len(enumerate_paths_ending_at(corpus.line(4), "u4", 10)) == 4


def test_enumerate_cap_zero():
    g = corpus.clock(3)
    assert enumerate_paths_ending_at(g, "w1", 0) == [Path("w1")]


def test_enumerate_excludes_full_cycle():
    lt = corpus.build("loop_with_tail")
    paths = enumerate_paths_ending_at(lt, "v", 12)
    assert paths == [Path("v"), Path("u", (EdgeRef("t"),))]


def test_enumerate_guards(monkeypatch):
    og = corpus.build("omega_gadget")
    with pytest.raises(algebra.TooLarge):
        enumerate_paths_ending_at(og, "h", 3)
    monkeypatch.setattr(oracle, "PATH_LIMIT", 20)
    with pytest.raises(algebra.TooLarge):
        # two loops at v: unboundedly many paths, tiny budget
        enumerate_paths_ending_at(corpus.build("two_loops"), "v", 50)


def test_path_listings_stop_at_the_budget(monkeypatch):
    """On one bundle of 10^5 edges from u to v, the listing into v and the
    listing of every path stop as soon as the paths listed and pending
    pass a budget of 20, having made 21 Paths, not one per edge; and the
    cycle search from u makes no EdgeRef, as v does not reach u."""
    g = Graph(["u", "v"], [Bundle("a", "u", "v", 10 ** 5)])
    made, path, edge_ref = [], oracle.Path, oracle.EdgeRef

    def counting(make):
        def counted(*args):
            made.append(make)
            return make(*args)
        return counted

    monkeypatch.setattr(oracle, "Path", counting(path))
    monkeypatch.setattr(oracle, "EdgeRef", counting(edge_ref))
    monkeypatch.setattr(oracle, "PATH_LIMIT", 20)
    monkeypatch.setattr(oracle, "BASIS_LIMIT", 20)
    for listing in (lambda: enumerate_paths_ending_at(g, "v", 2),
                    lambda: _all_paths(g, 2)):
        made.clear()
        with pytest.raises(algebra.TooLarge):
            listing()
        assert made.count(path) == 21
    made.clear()
    assert enumerate_paths_ending_at(g, "u", 2) == [Path("u")]
    assert edge_ref not in made


def test_enumerate_on_deep_graphs():
    """The cycle search from u1 runs 3000 vertices deep without recursion."""
    assert enumerate_paths_ending_at(corpus.line(3000), "u1", 1) == [Path("u1")]


def test_cycle_search_enters_only_vertices_that_reach_v(monkeypatch):
    """A source s feeding the complete digraph on 8 vertices: no cycle
    passes s, and the search expands s alone, not the 8! simple paths
    below it."""
    ks = [f"k{i}" for i in range(8)]
    g = Graph(["s"] + ks,
              [Bundle("s", "s", "k0")]
              + [Bundle(f"{x}{y}", x, y) for x in ks for y in ks if x != y])
    expanded = []
    out_edges = oracle._out_edges

    def recording(g, at, reach):
        expanded.append(at)
        return out_edges(g, at, reach)

    monkeypatch.setattr(oracle, "_out_edges", recording)
    assert enumerate_paths_ending_at(g, "s", 8) == [Path("s")]
    assert expanded == ["s"]


def _cycles_through_recursive(g, v) -> list:
    found = []

    def dfs(at, edges, visited):
        for j in g.out[g.vindex[at]]:
            dst = g.vertices[g.dsts[j]]
            for i in range(2 if g.mults[j] is OMEGA else g.mults[j]):
                e = EdgeRef(g.ids[j], i)
                if dst == v:
                    found.append(edges + (e,))
                elif dst not in visited:
                    dfs(dst, edges + (e,), visited | {dst})

    dfs(v, (), {v})
    return found


@pytest.mark.parametrize("omega", [Fraction(0), Fraction(1, 4)])
def test_cycle_search_keeps_the_recursive_order(omega):
    for seed in range(200):
        g = random_graph(RandomSpec(seed=seed, omega_probability=omega))
        for v in g.vertices:
            assert _cycles_through(g, v) == _cycles_through_recursive(g, v), (seed, v)


def test_rotations_built_once_per_cycle():
    g = tailed_cycle(40, 3)
    _rotations.cache_clear()
    for v in g.vertices:
        enumerate_paths_ending_at(g, v, 2 * len(g.vertices))
    assert _rotations.cache_info().misses == 1


def test_basis_counts():
    assert len(basis_monomials(corpus.clock(3), 2)) == 12
    assert len(basis_monomials(corpus.line(1), 4)) == 1
    assert len(basis_monomials(corpus.line(2), 2)) == 4


def test_basis_matches_dimension_on_acyclic_corpus():
    for name in ["clock3", "clock5", "inverse_clock3", "line1", "line2",
                 "line3", "line4", "line5", "line6"]:
        g = corpus.build(name)
        cap = 2 * len(g.vertices)
        assert len(basis_monomials(g, cap)) == acyclic_dimension(decompose(g)), name


def test_random_graph_determinism():
    spec = RandomSpec(seed=2024)
    assert random_graph(spec) == random_graph(spec)
    g = random_graph(RandomSpec(seed=5, max_vertices=8))
    assert len(g.vertices) <= 8


def test_random_graph_omega_probability_zero():
    from leavitt.graph import OMEGA
    for seed in range(30):
        g = random_graph(RandomSpec(seed=seed, omega_probability=Fraction(0)))
        assert all(b.mult is not OMEGA for b in g.bundles)


def test_random_element_determinism():
    g = corpus.clock(5)
    spec = RandomSpec(seed=99)
    assert random_element(g, spec) == random_element(g, spec)


def test_cross_check_clock5():
    rep = cross_check_index(corpus.clock(5), trials=500, seed=7)
    assert rep.violations == ()
    assert rep.witness_index == 2
    assert rep.empirical_max_index <= 2


def test_cross_check_line4():
    rep = cross_check_index(corpus.line(4), trials=200, seed=8)
    assert rep.violations == ()
    assert rep.witness_index == 4


def test_cross_check_single_vertex():
    rep = cross_check_index(corpus.line(1), trials=50, seed=9)
    assert rep.violations == ()
    assert rep.witness_index == 1


def test_cross_check_requires_bounded():
    with pytest.raises(PreconditionUnbounded):
        cross_check_index(corpus.build("graph_f"), trials=5, seed=0)


def test_dp_agreement_on_random_graphs():
    # independent brute-force enumeration equals the DP on every
    # finite-count vertex of 200 seeded omega-free graphs
    checked = 0
    for seed in range(200):
        g = random_graph(RandomSpec(seed=seed))
        for v in g.vertices:
            cnt = count_paths_ending_at(g, v)
            if cnt is OMEGA:
                continue
            cap = len(g.vertices) * (cnt + 1)
            assert len(enumerate_paths_ending_at(g, v, cap)) == cnt, (seed, v)
            checked += 1
    assert checked > 100


# -- matrix-unit check against the n^4 oracle -----------------------------------

def _closed_path_at(g, w):
    """A shortest closed path at w, or None when w lies on no cycle."""
    level, seen = [Path(w)], set()
    while level:
        nxt = []
        for p in level:
            for j in g.out[g.vindex[path_range(g, p)]]:
                q, dst = Path(w, p.edges + (EdgeRef(g.ids[j], 0),)), g.vertices[g.dsts[j]]
                if dst == w:
                    return q
                if dst not in seen:
                    seen.add(dst)
                    nxt.append(q)
        level = nxt
    return None


def _corrupted_legs(m: MatrixUnits) -> dict:
    """Copies of the family with one extra leg each: a duplicate of the
    last leg, and, where the legs end on a cycle, the first leg followed
    by that full cycle, which it is then a prefix of."""
    g, legs = m.graph, m.legs
    families = {"duplicated": legs + legs[-1:]}
    loop = _closed_path_at(g, path_range(g, legs[0]))
    if loop is not None:
        families["extended"] = legs + (Path(legs[0].base, legs[0].edges + loop.edges),)
    return {name: MatrixUnits(m.graph, bad, m.provenance) for name, bad in families.items()}


def _assert_fast_check_matches_oracle(m: MatrixUnits) -> None:
    assert m.n <= 8
    assert verify_matrix_units(m) and verify_matrix_units_exhaustive(m)
    for name, bad in _corrupted_legs(m).items():
        assert not verify_matrix_units(bad), name
        assert not verify_matrix_units_exhaustive(bad), name


@pytest.mark.parametrize("name", sorted(corpus.CORPUS))
def test_fast_unit_check_matches_oracle_on_fixture_witnesses(name):
    g = corpus.CORPUS[name]()
    report = bounded_index_report(g)
    n = report.n if isinstance(report, Bounded) else 6
    for size in range(1, min(n, 6) + 1):
        _assert_fast_check_matches_oracle(witness_matrix_units(g, size))


@pytest.mark.parametrize("n", range(1, 7))
def test_fast_unit_check_matches_oracle_on_exit_units(n):
    f = corpus.build("graph_f")
    _assert_fast_check_matches_oracle(
        matrix_units_exit(f, cycles(f)[0], EdgeRef("f"), n))


@pytest.mark.parametrize("omega", [Fraction(0), Fraction(1, 4)])
def test_fast_unit_check_matches_oracle_on_random_graphs(omega):
    kinds = set()
    for seed in range(300):
        g = random_graph(RandomSpec(seed=seed, omega_probability=omega))
        report = bounded_index_report(g)
        if isinstance(report, Bounded):
            if report.witness_target is None:
                continue
            size = min(report.n, 6)
        else:
            size = 3
        units = witness_matrix_units(g, size)
        _assert_fast_check_matches_oracle(units)
        kinds.add(type(units.provenance).__name__)
    assert len(kinds) == 3, kinds


# -- witness paths against the breadth-first enumeration -------------------------

def _assert_witness_paths_match_oracle(g) -> int:
    """Every prefix of every target's witness paths equals the sorted
    enumeration; returns the number of targets checked."""
    report = bounded_index_report(g)
    if not isinstance(report, Bounded):
        return 0
    for target, cnt in report.per_target:
        v = target.vertex if isinstance(target, SinkTarget) \
            else g.src(target.cycle.edges[0])
        listed = enumerate_paths_ending_at(g, v, len(g.vertices) * (cnt + 1))
        assert len(listed) == cnt, target
        for size in range(1, cnt + 1):
            assert witness_paths(g, target, size) == listed[:size], (target, size)
    return len(report.per_target)


@pytest.mark.parametrize("name", sorted(corpus.CORPUS))
def test_witness_paths_match_oracle_on_fixtures(name):
    _assert_witness_paths_match_oracle(corpus.CORPUS[name]())


@pytest.mark.parametrize("omega", [Fraction(0), Fraction(1, 4)])
def test_witness_paths_match_oracle_on_random_graphs(omega):
    targets = sum(
        _assert_witness_paths_match_oracle(
            random_graph(RandomSpec(seed=seed, omega_probability=omega)))
        for seed in range(300))
    assert targets > 100


def _interleaved_graph(loop: bool) -> Graph:
    """Bundle-id order differs from vertex order at every level: into c come
    a9 (from a), m (from b, mult 3) and x1 (from z, mult 2); into b and z
    come q (from a) and d (from a, mult 2), so the next level starts with
    d.x1 although b < z.  With `loop`, c carries the exitless loop k."""
    bundles = [Bundle("x1", "z", "c", 2), Bundle("a9", "a", "c"),
               Bundle("m", "b", "c", 3), Bundle("q", "a", "b"),
               Bundle("d", "a", "z", 2)]
    if loop:
        bundles.append(Bundle("k", "c", "c"))
    return Graph(["a", "b", "c", "z"], bundles)


@pytest.mark.parametrize("loop", [False, True], ids=["sink", "cycle"])
def test_witness_paths_follow_bundle_ids_not_vertices(loop):
    g = _interleaved_graph(loop)
    assert _assert_witness_paths_match_oracle(g) == 1
    target = bounded_index_report(g).witness_target
    second_level = [p.edges[0] for p in witness_paths(g, target, 14)
                    if len(p) == 2]
    assert second_level == [EdgeRef("d", 0)] * 2 + [EdgeRef("d", 1)] * 2 \
        + [EdgeRef("q")] * 3


def test_witness_paths_stop_inside_a_level(monkeypatch):
    """A bundle of multiplicity 10^6: three paths are built, not a level
    of a million."""
    g = Graph(["u", "v"], [Bundle("a", "u", "v", 10 ** 6)])
    built = []
    path = structure.Path

    def counting(*args):
        built.append(args)
        return path(*args)

    monkeypatch.setattr(structure, "Path", counting)
    assert witness_paths(g, SinkTarget("v"), 3) == [
        Path("v"), Path("u", (EdgeRef("a", 0),)), Path("u", (EdgeRef("a", 1),))]
    assert len(built) <= 4


def test_witness_target_is_first_with_count_n():
    for seed in range(300):
        report = bounded_index_report(random_graph(RandomSpec(seed=seed)))
        if isinstance(report, Bounded) and report.per_target:
            firsts = [t for t, cnt in report.per_target if cnt == report.n]
            assert report.witness_target == firsts[0], seed
    assert bounded_index_report(corpus.clock(5)).witness_target == SinkTarget("w1")


# -- the path tree and JSON index against the enumeration --------------------------

def _path_json(p: Path) -> dict:
    return {"base": p.base,
            "edges": [{"bundle": e.bundle, "index": e.index} for e in p.edges]}


def _assert_index_listing_matches_oracle(g, tmp_path, capsys) -> int:
    """JSON index lists, path for path, the first n paths the enumeration
    gives into the witness target; and at every target the tree holds the
    enumeration's first paths, level by level, each path's parent being
    that path minus its first edge.  Returns the number of paths listed."""
    report = bounded_index_report(g)
    if not isinstance(report, Bounded) or report.witness_target is None:
        return 0
    listed = {}
    for target, cnt in report.per_target:
        v = target.vertex if isinstance(target, SinkTarget) \
            else g.src(target.cycle.edges[0])
        paths = enumerate_paths_ending_at(g, v, len(g.vertices) * (cnt + 1))[:cnt]
        tree = witness_tree(g, target, cnt)
        assert len(tree) == cnt and tree.ends[-1] == cnt, target
        assert tree.names is g.vertices, target
        assert tree.bases == [g.vindex[p.base] for p in paths], target
        assert tree.firsts[0] is None and tree.parents[0] == -1 and paths[0].edges == ()
        starts = [0] + tree.ends[:-1]
        for k, (lo, hi) in enumerate(zip(starts, tree.ends)):
            assert lo < hi and all(len(paths[i]) == k for i in range(lo, hi)), target
            for i in range(max(lo, 1), hi):
                p, j = paths[i], tree.parents[i]
                assert starts[k - 1] <= j < lo, (target, i)
                assert tree.firsts[i] == p.edges[0], (target, i)
                assert paths[j] == Path(g.dst(p.edges[0]), p.edges[1:]), (target, i)
        listed[target] = paths
    doc = tmp_path / "g.graph"
    doc.write_text(canonical_document(g))
    assert cli.main(["index", str(doc), "--format", "json"]) == 0
    witness = json.loads(capsys.readouterr().out)["witness"]
    assert witness["paths"] == [_path_json(p) for p in listed[report.witness_target]]
    return report.n


@pytest.mark.parametrize("name", sorted(corpus.CORPUS))
def test_index_listing_matches_oracle_on_fixtures(name, tmp_path, capsys):
    _assert_index_listing_matches_oracle(corpus.CORPUS[name](), tmp_path, capsys)


def test_index_listing_matches_oracle_on_random_graphs(tmp_path, capsys):
    """200 bounded graphs with bundles of multiplicity up to 3, so that
    some listed edges have index > 0."""
    bounded, indexed = 0, 0
    for seed in itertools.count():
        g = random_graph(RandomSpec(seed=seed, max_mult=3))
        report = bounded_index_report(g)
        if not isinstance(report, Bounded):
            continue
        n = _assert_index_listing_matches_oracle(g, tmp_path, capsys)
        if n:
            firsts = witness_tree(g, report.witness_target, n).firsts[1:]
            indexed += any(e.index > 0 for e in firsts)
        bounded += 1
        if bounded == 200:
            break
    assert indexed > 50


@pytest.mark.parametrize("k", range(1, 10))
def test_index_listing_matches_oracle_on_doubled_lines(k, tmp_path, capsys):
    assert _assert_index_listing_matches_oracle(doubled_line(k), tmp_path, capsys) \
        == 2 ** k - 1


@pytest.mark.parametrize("m, t", [(1, 0), (1, 3), (2, 2), (3, 1), (4, 4), (6, 2)])
def test_index_listing_matches_oracle_on_tailed_cycles(m, t, tmp_path, capsys):
    """The listing stops short of a whole turn: the paths on the cycle end
    one edge short of it, so the longest path has max(m - 1, t) edges."""
    g = tailed_cycle(m, t)
    assert _assert_index_listing_matches_oracle(g, tmp_path, capsys) == m + t
    (c,) = component_cycles(g)
    tree = witness_tree(g, CycleTarget(c), m + t)
    assert len(tree.ends) == max(m, t + 1)
    assert not any(contains_cycle(p.edges, c.edges) for p in tree.paths())


# -- the trailing-run rule against the window test ---------------------------------

def _assert_leg_rule_matches_window_test(g, c, length_cap: int) -> int:
    """Every path of length <= length_cap ending on the exitless cycle c is
    refused as a leg exactly when a window of it is a rotation of c;
    returns the number refused."""
    verts = set(cycle_vertices(g, c))
    refused = 0
    for p in _all_paths(g, length_cap):
        if path_range(g, p) not in verts:
            continue
        whole = contains_cycle(p.edges, c.edges)
        try:
            matrix_units_no_exit_cycle(g, c, [p])
        except BadMatrixUnitPaths:
            assert whole, p
            refused += 1
        else:
            assert not whole, p
    return refused


@pytest.mark.parametrize("m", [1, 2, 3, 5])
@pytest.mark.parametrize("t", [0, 1, 4])
def test_trailing_run_rule_on_tailed_cycles(m, t):
    g = tailed_cycle(m, t)
    (c,) = component_cycles(g)
    assert _assert_witness_paths_match_oracle(g) == 1
    target = CycleTarget(c)
    assert witness_paths(g, target, m + t + 5) == \
        enumerate_paths_ending_at(g, g.src(c.edges[0]), 3 * (m + t))
    assert _assert_leg_rule_matches_window_test(g, c, 2 * m + t + 1) > 0


def test_leg_from_the_tail_round_the_cycle_is_refused():
    g = tailed_cycle(3, 2)
    (c,) = component_cycles(g)
    into = (EdgeRef("s0"), EdgeRef("s1"))
    short = Path("t1", into + c.edges[:2])  # ends at c0002, one edge short
    full = Path("t1", into + c.edges)  # back at c0000: the whole cycle
    assert not contains_cycle(short.edges, c.edges)
    assert contains_cycle(full.edges, c.edges)
    assert verify_matrix_units(matrix_units_no_exit_cycle(g, c, [short]))
    with pytest.raises(BadMatrixUnitPaths):
        matrix_units_no_exit_cycle(g, c, [full])
    assert full not in witness_paths(g, CycleTarget(c), 100)
    assert Path("t1", into) in witness_paths(g, CycleTarget(c), 100)


def test_trailing_run_rule_on_random_graphs():
    """Each exitless component cycle of a seeded graph, whatever the rest
    of the graph does."""
    checked = refused = 0
    for seed in range(600):
        g = random_graph(RandomSpec(seed=seed, max_vertices=6, max_bundles=8))
        for c in component_cycles(g):
            if all(g.out_degree(v) == 1 for v in cycle_vertices(g, c)):
                try:
                    refused += _assert_leg_rule_matches_window_test(
                        g, c, len(g.vertices) + len(c.edges))
                except algebra.TooLarge:
                    continue
                checked += 1
    assert checked > 50 and refused > checked


# -- graded spectrum against the exhaustive enumeration ----------------------------

def _spectrum_rows(spectrum) -> list:
    return [(sorted(p.H), sorted(p.S), cls) for p, cls in spectrum]


def _assert_spectrum_matches_oracle(g) -> bool:
    """True when g is bounded and both spectra agree; both must raise
    PreconditionUnbounded otherwise."""
    try:
        want = _spectrum_rows(graded_spectrum_exhaustive(g))
    except PreconditionUnbounded:
        with pytest.raises(PreconditionUnbounded):
            graded_spectrum(g)
        return False
    assert _spectrum_rows(graded_spectrum(g)) == want
    return True


@pytest.mark.parametrize("name", sorted(corpus.CORPUS))
def test_spectrum_matches_oracle_on_fixtures(name):
    _assert_spectrum_matches_oracle(corpus.CORPUS[name]())


@pytest.mark.parametrize("k", range(1, 9))
def test_spectrum_matches_oracle_on_lines_and_clocks(k):
    assert _assert_spectrum_matches_oracle(corpus.line(k))
    assert _assert_spectrum_matches_oracle(corpus.clock(k))


@pytest.mark.parametrize("omega", [Fraction(0), Fraction(1, 4)])
def test_spectrum_matches_oracle_on_random_graphs(omega):
    bounded = sum(
        _assert_spectrum_matches_oracle(
            random_graph(RandomSpec(seed=seed, omega_probability=omega)))
        for seed in range(1000))
    assert bounded > 100


def _kernel_graphs(omega):
    if omega is None:
        return [(name, build()) for name, build in corpus.CORPUS.items()]
    return [(f"random omega={omega} seed={seed}",
              random_graph(RandomSpec(seed=seed, omega_probability=omega)))
             for seed in range(150)]


@pytest.mark.parametrize("omega", [None, Fraction(0), Fraction(1, 4)])
def test_kernel_matches_reference(omega):
    """The interned kernel against the Monomial/Fraction one it replaced:
    normal forms (both strategies), products, sums, scaling, involution,
    grading and coefficients, compared as term lists on the
    14 fixtures (omega None) or 150 seeded random graphs."""
    for name, g in _kernel_graphs(omega):
        raws = [random_raw_terms(g, RandomSpec(seed=77_000 + i)) for i in range(3)]
        refs = [normal_form_reference(g, raw) for raw in raws]
        elems = [normal_form(g, raw) for raw in raws]
        for i, (raw, ref, a) in enumerate(zip(raws, refs, elems)):
            assert a.terms() == ref, name
            assert all(type(k) is Fraction for _, k in a.terms()), name
            assert normal_form_reference(g, raw, strategy="random", seed=i + 1) == ref
            assert a.scale(3).terms() == [(m, 3 * k) for m, k in ref], name
            assert a.scale(Fraction(1, 2)).terms() == \
                [(m, k / 2) for m, k in ref], name
            assert a.involution().terms() == normal_form_reference(
                g, [(Monomial(m.q, m.p), k) for m, k in ref]), name
            parts = {}
            for m, k in ref:
                parts.setdefault(m.degree, []).append((m, k))
            assert {d: x.terms() for d, x in a.degree_components().items()} == \
                dict(sorted(parts.items())), name
            for m, k in ref:
                assert a.coefficient(m) == k and type(a.coefficient(m)) is Fraction
            present = {m for m, _ in ref}
            for v in g.vertices:
                idem = Monomial(Path(v), Path(v))
                if idem not in present:
                    assert a.coefficient(idem) == Fraction(0)
        a, b, c = elems
        ab = product_reference(g, refs[0], refs[1])
        assert (a * b).terms() == ab, name
        star = [(Monomial(m.q, m.p), k) for m, k in refs[0]]
        assert (a.involution() * a).terms() == product_reference(g, star, refs[0])
        assert (a * a.involution()).terms() == product_reference(g, refs[0], star)
        assert (a * b * c).terms() == product_reference(g, ab, refs[2]), name
        assert (b * a.scale(Fraction(1, 2))).terms() == product_reference(
            g, refs[1], [(m, k / 2) for m, k in refs[0]]), name
        assert (a + b).terms() == normal_form_reference(g, refs[0] + refs[1]), name
        assert (a - a).is_zero() and (a + b.scale(-1)).terms() == \
            normal_form_reference(g, refs[0] + [(m, -k) for m, k in refs[1]]), name


def _enumerated_edge_ids(g: Graph) -> dict:
    """The edge numbering by listing every edge: finite edges 0..nfin-1 in
    EdgeRef order, and edge k of the j-th of W omega bundles at
    nfin + k*W + j (k < 5 here)."""
    refs = [EdgeRef(b.id, i) for b in g.bundles if b.mult is not OMEGA
            for i in range(b.mult)]
    ids = {e: i for i, e in enumerate(refs)}
    omega = [b.id for b in g.bundles if b.mult is OMEGA]
    for j, bid in enumerate(omega):
        for k in range(5):
            ids[EdgeRef(bid, k)] = len(refs) + k * len(omega) + j
    return ids


def _edge_id(g: Graph, e: EdgeRef) -> int:
    """The kernel id of e, read off the one-edge path e."""
    return algebra._path_key(g, Path(g.src(e), (e,)))[1][0]


@pytest.mark.parametrize("omega", [None, Fraction(0), Fraction(1, 4)])
def test_kernel_numbering_matches_enumeration(omega):
    """The path key of one edge, edge_ref, the special edges and the
    rewrite siblings of the bundle-offset kernel equal those read off the
    list of every edge."""
    graphs = _kernel_graphs(omega)
    if omega is not None:
        graphs += [(f"mult 3 seed={seed}", random_graph(RandomSpec(
            seed=seed, max_mult=3, omega_probability=omega))) for seed in range(150)]
    for name, g in graphs:
        table = algebra._Kernel(g)
        ids = _enumerated_edge_ids(g)
        for e, i in ids.items():
            assert _edge_id(g, e) == i and table.edge_ref(i) == e, name
        for b in g.bundles:
            for bad in ([-1] if b.mult is OMEGA else [-1, b.mult]):
                with pytest.raises(InvalidPath):
                    _edge_id(g, EdgeRef(b.id, bad))
        for v in g.vertices:
            out = [e for e in ids if g.src(e) == v]
            if not out or any(g.bundle(e.bundle).mult is OMEGA for e in out):
                assert algebra.special_edge(g, v) is None, name
                continue
            out.sort()
            assert algebra.special_edge(g, v) == out[0], name
            siblings = [i for span in table.rewrite[ids[out[0]]] for i in span]
            assert siblings == [ids[e] for e in out[1:]], name
        assert len(table.rewrite) == sum(
            algebra.special_edge(g, v) is not None for v in g.vertices)


def test_kernel_does_not_list_the_edges_of_a_bundle():
    g = Graph(["u", "v", "w"], [Bundle("a", "u", "v", 10 ** 8),
                                Bundle("b", "u", "w", 10 ** 8),
                                Bundle("c", "v", "w", 2)])
    table = algebra._Kernel(g)
    assert table.rewrite == {0: (range(1, 10 ** 8), range(10 ** 8, 2 * 10 ** 8)),
                             2 * 10 ** 8: (range(2 * 10 ** 8 + 1, 2 * 10 ** 8 + 2),)}
    for e, i in [(EdgeRef("a", 10 ** 8 - 1), 10 ** 8 - 1),
                 (EdgeRef("b", 7), 10 ** 8 + 7), (EdgeRef("c", 1), 2 * 10 ** 8 + 1)]:
        assert _edge_id(g, e) == i and table.edge_ref(i) == e


# -- the kernel's fast paths against the reference kernel --------------------------

def _fast_path_graphs(which):
    if which == "fixtures":
        return _kernel_graphs(None)
    if which == "doubled line":
        return [("doubled line 5", doubled_line(5))]
    return [(f"random omega={which} seed={seed}",
             random_graph(RandomSpec(seed=seed, omega_probability=which)))
            for seed in range(200)]


FAST_PATH_GRAPHS = pytest.mark.parametrize(
    "which", ["fixtures", Fraction(0), Fraction(1, 4), "doubled line"],
    ids=["fixtures", "random omega 0", "random omega 1/4", "doubled line"])


def _grown(g, key):
    """key with the special edge at its range appended to both paths, so
    that it must be rewritten; None when the range has no special edge."""
    table = algebra._kernel(g)
    pb, pe, qb, qe = key
    special = algebra.special_edge(
        g, g.dst(table.edge_ref(pe[-1])) if pe else g.vertices[pb])
    if special is None:
        return None
    e = table.first[g.bindex[special.bundle]][0]
    return (pb, pe + (e,), qb, qe + (e,))


def _raw_lists(g, seed):
    """Raw (key, nonzero coefficient) lists for ``_normalize``, by kind:
    drawn keys, each once or twice, rewriting keys (one and two rewrites
    deep) mixed in among them, and lists that cancel to zero."""
    table = algebra._kernel(g)
    rng = random.Random(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "TRIAL_TERMS", 6)
        mp.setattr(oracle, "TRIAL_PATH_LEN", 4)
        drawn = next(oracle._walk_stream(g, seed))
    once = [_grown(g, key) for key, _ in drawn]
    twice = [_grown(g, key) for key in once if key is not None]
    rewriting = [(key, rng.choice([-2, -1, 1, 3]))
                 for key in once + twice if key is not None]
    mixed = drawn + rewriting
    rng.shuffle(mixed)
    lists = {"drawn": drawn, "duplicates": drawn + drawn[::-1], "mixed": mixed,
             "cancelled": mixed + [(key, -k) for key, k in reversed(mixed)],
             "fractions": [(key, Fraction(k, rng.choice([1, 2, 3]))) for key, k in mixed]}
    # (p g)(q g)* - p q* + sum over e != g of (p e)(q e)*, which is zero
    expansions = []
    for key in once:
        if key is not None:
            pb, pe, qb, qe = key
            expansions += [(key, 1), ((pb, pe[:-1], qb, qe[:-1]), -1)]
            expansions += [((pb, pe[:-1] + (e,), qb, qe[:-1] + (e,)), 1)
                           for span in table.rewrite[pe[-1]] for e in span]
    if expansions:
        lists["expansion"] = expansions
        lists["expansion, fractions"] = [(key, Fraction(k, 3)) for key, k in expansions]
    return lists, sum(key is not None for key in twice)


@FAST_PATH_GRAPHS
def test_normalize_files_keys_as_the_reference_rewrites_them(which):
    """algebra._normalize against oracle.normal_form_reference on raw
    lists with repeated keys, keys that need one or two rewrites among
    keys that need none, lists that cancel to zero, and int and Fraction
    coefficients."""
    seen, two_deep = set(), 0
    for name, g in _fast_path_graphs(which):
        table = algebra._kernel(g)
        for seed in range(3):
            lists, deep = _raw_lists(g, seed)
            two_deep += deep
            for kind, raw in lists.items():
                got = algebra._normalize(table, iter(raw))
                ref = normal_form_reference(
                    g, [(algebra._monomial(g.vertices, table, key), k) for key, k in raw])
                assert algebra.Element(g, got).terms() == ref, (name, seed, kind)
                if not any(type(k) is Fraction for _, k in raw):
                    assert all(type(k) is int for k in got.values()), (name, kind)
                if kind in ("cancelled", "expansion", "expansion, fractions"):
                    assert got == {}, (name, seed, kind)
                seen.add(kind)
    assert {"expansion", "expansion, fractions"} <= seen and two_deep > 0


def _back_walk(g, v, steps: int, rng) -> Path:
    """A path of at most ``steps`` edges ending at v, walked back from v
    by seeded choices of in-edge; shorter where it reaches a source."""
    base, edges = v, []
    for _ in range(steps):
        ins = g.into[g.vindex[base]]
        if not ins:
            break
        j = rng.choice(ins)
        edges.append(EdgeRef(g.ids[j], rng.randrange(g.mults[j])))
        base = g.vertices[g.srcs[j]]
    return Path(base, tuple(reversed(edges)))


def _long_run_graphs() -> list:
    """line(60); exitless cycles with tails, where walks back wind round
    the cycle; a line whose runs of lone edges are broken by bundles of
    multiplicity 2, whose special edge has a sibling; and the doubled
    line with k = 6, where every special edge has one."""
    broken = Graph([f"u{i}" for i in range(1, 41)],
                   [Bundle(f"e{i}", f"u{i}", f"u{i + 1}", 2 if i in (10, 25) else 1)
                    for i in range(1, 40)])
    return ([("line 60", corpus.line(60))]
            + [(f"tailed cycle {m} {t}", tailed_cycle(m, t))
               for m, t in ((1, 3), (3, 2), (4, 0), (5, 5))]
            + [("broken line", broken), ("doubled line 6", doubled_line(6))])


def _assert_normalizes_as_reference(g, raw, where) -> None:
    """_normalize on the keys of the (Monomial, coefficient) pairs ``raw``
    gives the reference's normal form, and zero with their negations."""
    table = algebra._kernel(g)
    keyed = [(algebra._path_key(g, m.p)[:2] + algebra._path_key(g, m.q)[:2], k)
             for m, k in raw]
    got = algebra._normalize(table, keyed)
    assert algebra.Element(g, got).terms() == normal_form_reference(g, raw), where
    assert algebra._normalize(
        table, keyed + [(key, -k) for key, k in keyed]) == {}, where


def test_normalize_strips_long_shared_runs_as_the_reference_does():
    """algebra._normalize against oracle.normal_form_reference on keys p
    q* whose paths share a long suffix, in lists of up to four keys and
    in lists that cancel: suffixes of line(60), walks back round exitless
    cycles, runs broken by an edge with a sibling, and tail c^k against
    tail c^j on exitless cycles with tails."""
    rng = random.Random(3)
    long_runs = broken = 0
    for name, g in _long_run_graphs():
        for trial in range(40):
            raw = []
            for _ in range(rng.randint(1, 4)):
                shared = _back_walk(g, rng.choice(g.vertices), rng.randint(0, 59), rng)
                long_runs += len(shared.edges) >= 20
                # a special edge with a sibling inside the shared run
                broken += any(g.bundle(e.bundle).mult == 2 and e.index == 0
                              for e in shared.edges[1:-1])
                p0, q0 = (_back_walk(g, shared.base, rng.randint(0, 12), rng)
                          for _ in range(2))
                m = Monomial(Path(p0.base, p0.edges + shared.edges),
                             Path(q0.base, q0.edges + shared.edges))
                raw.append((m, rng.choice([-2, -1, 1, 3])))
            _assert_normalizes_as_reference(g, raw, (name, trial))
    assert long_runs > 100 and broken > 20, (long_runs, broken)
    for m, t in ((1, 3), (3, 2), (4, 0), (5, 5)):
        g = tailed_cycle(m, t)
        c = tuple(EdgeRef(f"a{i:04d}") for i in range(m))
        tails = [Path("c0000")] + [
            Path(f"t{a}", tuple(EdgeRef(f"s{i}") for i in range(a - 1, t)))
            for a in range(1, t + 1)]
        for k in range(0, 40, 3):
            for j in range(0, 40, 7):
                p, q = rng.choice(tails), rng.choice(tails)
                raw = [(Monomial(Path(p.base, p.edges + c * k),
                                 Path(q.base, q.edges + c * j)), 1)]
                _assert_normalizes_as_reference(g, raw, (m, t, k, j))


def _contractions(left: dict, right: dict) -> set:
    """The kinds of (p q*)(r s*) contractions that a product of the two
    term maps meets, r starting where q does."""
    kinds = set()
    for _, _, qb, qe in left:
        for rb, re, _, _ in right:
            if qb != rb:
                continue
            if not qe:
                kinds.add("q a vertex")
            elif not re:
                kinds.add("r a vertex")
            elif len(qe) < len(re) and re[:len(qe)] == qe:
                kinds.add("q a proper prefix of r")
            elif len(re) < len(qe) and qe[:len(re)] == re:
                kinds.add("r a proper prefix of q")
    return kinds


@FAST_PATH_GRAPHS
def test_product_contracts_as_the_reference_does(which):
    """algebra._product against oracle.product_reference, on products of
    random elements with each other, with their involutions, with vertices
    and with Fraction multiples: a bare vertex q or r, and q and r proper
    prefixes of each other, all occur."""
    kinds = set()
    for name, g in _fast_path_graphs(which):
        if not g.vertices:
            continue
        table = algebra._kernel(g)
        elems = [random_element(g, RandomSpec(seed=61_000 + i)) for i in range(3)]
        elems += [a.involution() for a in elems[:2]]
        elems.append(algebra.vertex_element(g, g.vertices[0]))
        elems.append(elems[0].scale(Fraction(1, 2)) + elems[1])
        for a, b in [(elems[i], elems[j]) for i in range(len(elems))
                     for j in range(len(elems)) if (i + j) % 2 or i == j]:
            got = algebra._product(table, a._terms, b._terms)
            assert algebra.Element(g, got).terms() == \
                product_reference(g, a.terms(), b.terms()), name
            kinds |= _contractions(a._terms, b._terms)
    assert kinds == {"q a vertex", "r a vertex", "q a proper prefix of r",
                     "r a proper prefix of q"}


# -- the one-walk path key against the rule it replaced ---------------------------

def _path_key_reference(g: Graph, p: Path):
    """(base, edge ids, range) of p, vertex ints and ids, by the two-step
    rule the one-walk key replaced: a walk that only checks p is a path,
    then each edge numbered on its own from a fresh kernel table; None
    when p is not a path."""
    if p.base not in g.vindex:
        return None
    at = p.base
    for e in p.edges:
        if not g.is_edge(e) or g.bundle(e.bundle).src != at:
            return None
        at = g.bundle(e.bundle).dst
    table = algebra._Kernel(g)
    ids = []
    for e in p.edges:
        first, step, _ = table.first[g.bindex[e.bundle]]
        ids.append(first + e.index * step)
    return (g.vindex[p.base], tuple(ids),
            g.vindex[g.dst(p.edges[-1]) if p.edges else p.base])


def _path_variants(g: Graph, p: Path, rng: random.Random) -> dict:
    """p and copies of it changed in one place; most are no longer paths."""
    variants = {"valid": p, "unknown base": Path("no such vertex", p.edges),
                "other base": Path(rng.choice(g.vertices), p.edges)}
    if not p.edges:
        return variants
    i = rng.randrange(len(p.edges))
    e, b = p.edges[i], g.bundle(p.edges[i].bundle)

    def swap(ref):
        return Path(p.base, p.edges[:i] + (ref,) + p.edges[i + 1:])

    variants.update({
        "unknown bundle": swap(EdgeRef("no such bundle", e.index)),
        "negative index": swap(EdgeRef(e.bundle, -1)),
        "other edge": swap(EdgeRef(rng.choice(g.bundles).id, 0)),
        "break": Path(p.base, p.edges[:i] + p.edges[i + 1:]),
        "same range": Path(p.base, p.edges[1:]),  # ends where p ends
    })
    if b.mult is OMEGA:
        variants["large omega index"] = swap(EdgeRef(e.bundle, 10 ** 12))
    else:
        variants["index at mult"] = swap(EdgeRef(e.bundle, b.mult))
    return variants


@pytest.mark.parametrize("omega", [None, Fraction(0), Fraction(1, 4)])
def test_path_key_matches_the_check_then_number_rule(omega, monkeypatch):
    """algebra._path_key accepts and refuses the paths the separate check
    and numbering did, with the same ids and range, on valid paths and on
    their corruptions: the 14 fixtures (omega None) or 300 seeded random
    graphs."""
    graphs = _kernel_graphs(omega)
    if omega is not None:
        graphs = [(f"random omega={omega} seed={seed}",
                   random_graph(RandomSpec(seed=seed, omega_probability=omega)))
                  for seed in range(300)]
    rng = random.Random(15)
    seen = {True: set(), False: set()}
    monkeypatch.setattr(oracle, "TRIAL_TERMS", 6)
    monkeypatch.setattr(oracle, "TRIAL_PATH_LEN", 5)
    for name, g in graphs:
        paths = {path for seed in range(3) for m, _ in random_raw_terms(
            g, RandomSpec(seed=seed)) for path in (m.p, m.q)}
        for p in sorted(paths, key=repr):
            for kind, q in _path_variants(g, p, rng).items():
                expected = _path_key_reference(g, q)
                seen[expected is not None].add(kind)
                if expected is None:
                    with pytest.raises(InvalidPath):
                        algebra._path_key(g, q)
                else:
                    assert algebra._path_key(g, q) == expected, (name, kind, q)
    assert {"unknown base", "unknown bundle", "negative index", "index at mult",
            "break", "same range"} <= seen[False]
    assert "valid" in seen[True]
    if omega:
        assert "large omega index" in seen[True]


# -- the nilpotence probe against the sequential one -----------------------------

def _first_sequential_power_too_large(a, k_max):
    """The least k <= k_max, if any, such that the sequential probe forms
    a^k and a^k holds more than POWER_EDGE_LIMIT edges."""
    p = a
    for k in range(2, k_max + 1):
        p = p * a
        if p.is_zero():
            return None
        if sum(len(pe) + len(qe) for _, pe, _, qe in p._terms) > algebra.POWER_EDGE_LIMIT:
            return k
    return None


@pytest.mark.parametrize("name", sorted(corpus.CORPUS))
def test_nilpotence_index_matches_sequential_on_random_elements(name):
    """Equal verdicts; where the squaring probe refuses a power over the
    edge limit, the sequential probe forms such a power too."""
    g = corpus.CORPUS[name]()
    for seed in range(25):
        a = random_element(g, RandomSpec(seed=seed))
        too_large = None
        for k_max in range(1, 13):
            try:
                verdict = nilpotence_index(a, k_max)
            except algebra.TooLarge:
                if too_large is None:
                    too_large = _first_sequential_power_too_large(a, 12)
                assert too_large is not None and too_large <= k_max, (seed, k_max)
                continue
            assert verdict == nilpotence_index_sequential(a, k_max), (seed, k_max)


def test_nilpotence_index_matches_sequential_on_jordan_elements():
    for k in range(1, 31):
        g = corpus.line(k)
        j = jordan_element(structure.witness_matrix_units(g))
        for k_max in range(1, k + 3):
            assert nilpotence_index(j, k_max) == \
                nilpotence_index_sequential(j, k_max), (k, k_max)


_SCALARS = (1, -1, 2, -2, 3, -3, Fraction(1, 2), Fraction(-3, 7))


def _probe_or_too_large(a, k_max):
    try:
        return nilpotence_index(a, k_max)
    except algebra.TooLarge:
        return "TooLarge"


def test_probe_verdict_is_invariant_under_nonzero_scalars(monkeypatch):
    """nilpotence_index(c a, k) = nilpotence_index(a, k) for every c != 0
    tried, on random elements of every fixture and of 40 random graphs:
    the sequential probe's verdict at the default limits, the same
    ResourceLimit (power and term count) at a term limit of 3, and at an
    edge limit of 20 both refuse with TooLarge or neither does.  For an
    int c the check's memo files c a and a under one scalar class."""
    cases = [(random_element(corpus.CORPUS[name](), RandomSpec(seed=s)), 8)
             for name in sorted(corpus.CORPUS) for s in range(8)]
    cases += [(random_element(random_graph(RandomSpec(seed=s, max_mult=3)),
                              RandomSpec(seed=500 + s)), 6) for s in range(40)]
    seen = set()
    for limit, value in [(None, None), ("TERM_LIMIT", 3), ("POWER_EDGE_LIMIT", 20)]:
        with monkeypatch.context() as m:
            if limit is not None:
                m.setattr(algebra, limit, value)
            for i, (a, k) in enumerate(cases):
                expected = _probe_or_too_large(a, k)
                if limit is None:
                    assert expected == nilpotence_index_sequential(a, k), i
                seen.add((limit, type(expected).__name__))
                for c in _SCALARS:
                    assert _probe_or_too_large(c * a, k) == expected, (limit, i, c)
                    if limit is None and type(c) is int:
                        assert oracle._scalar_class((c * a)._terms) == \
                            oracle._scalar_class(a._terms), (i, c)
    assert {("TERM_LIMIT", "ResourceLimit"), ("POWER_EDGE_LIMIT", "str"),
            ("POWER_EDGE_LIMIT", "NotNilpotentWithin"),
            (None, "NilpotentOfIndex"), (None, "NotNilpotentWithin")} <= seen, seen


def test_nilpotence_index_forms_logarithmically_many_products(monkeypatch):
    """On the loop e, never nilpotent: a^k_max from the squares of a, at
    most 2 log2(k_max) products where the sequential probe forms k_max - 1."""
    g = corpus.build("single_loop")
    a = algebra.edge_element(g, EdgeRef("e"))
    products = _count_products(monkeypatch)
    for k_max in [1, 2, 3, 7, 8, 1000, 1023, 1024]:
        products.clear()
        assert nilpotence_index(a, k_max) == algebra.NotNilpotentWithin(k_max)
        assert len(products) <= 2 * (k_max.bit_length() - 1), k_max
    assert products  # the counter sees the probe's products


def _count_products(monkeypatch) -> list:
    """A list that gains an entry at each ``algebra._product`` call, which
    every product of two elements or term maps makes."""
    products = []
    product = algebra._product

    def counting(table, left, right):
        products.append(1)
        return product(table, left, right)

    monkeypatch.setattr(algebra, "_product", counting)
    return products


def _probe_without_exit(a, k_max, term_limit, first_square_exit=False):
    """The squaring probe on Elements as it was before the early exit at
    the first square; TooLarge is returned, not raised.  With
    first_square_exit it takes that exit, a^2 = c a, as the three-phase
    probe (squares, the bits of k_max, a binary search) did before it
    was read off ``algebra._ladder``."""
    def times(x, y, k):
        z = x * y
        if z.support_size() > term_limit:
            raise _Over(algebra.ResourceLimit(k, z.support_size()))
        if sum(len(pe) + len(qe) for _, pe, _, qe in z._terms) > algebra.POWER_EDGE_LIMIT:
            raise _Over(algebra.TooLarge)
        return z

    if a.is_zero():
        return algebra.NilpotentOfIndex(1)
    squares, lo, low, hi = [a], 1, a, None
    try:
        while 2 * lo <= k_max and hi is None:
            sq = times(low, low, 2 * lo)
            if sq.is_zero():
                hi = 2 * lo
            elif (first_square_exit and lo == 1
                  and algebra._is_multiple(sq._terms, a._terms)):
                return algebra.NotNilpotentWithin(k_max)
            else:
                squares.append(sq)
                lo, low = 2 * lo, sq
        if hi is None:
            for i in reversed(range(len(squares) - 1)):
                if k_max >> i & 1:
                    p = times(low, squares[i], lo + (1 << i))
                    if p.is_zero():
                        hi = lo + (1 << i)
                        break
                    lo, low = lo + (1 << i), p
            else:
                return algebra.NotNilpotentWithin(k_max)
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            p = times(low, squares[(mid - lo).bit_length() - 1], mid)
            if p.is_zero():
                hi = mid
            else:
                lo, low = mid, p
    except _Over as over:
        return over.args[0]
    return algebra.NilpotentOfIndex(hi)


class _Over(Exception):
    pass


def _probe_outcome(a, k_max):
    try:
        return nilpotence_index(a, k_max)
    except algebra.TooLarge:
        return algebra.TooLarge


def _exit_cases():
    """(element, whether a^2 = c a with c != 0)."""
    line2, clock3, loop = corpus.line(2), corpus.clock(3), corpus.build("single_loop")
    v, u1, u2 = (algebra.vertex_element(g, x) for g, x in
                 ((clock3, "v"), (line2, "u1"), (line2, "u2")))
    e2 = algebra.edge_element(clock3, EdgeRef("e2"))
    e3 = algebra.edge_element(clock3, EdgeRef("e3"))
    e = algebra.edge_element(loop, EdgeRef("e"))
    cases = [(-3 * v, True), (2 * u1, True), (5 * (e2 * e2.involution()), True),
             (-2 * (e3 * e3.involution()), True), (u1 + u2, True),
             (2 * v + 3 * (e2 * e2.involution()), False),
             (e, False), (e.involution(), False), (e + e.involution(), False),
             (algebra.vertex_element(loop, "v") + e, False)]
    # L(single_loop) = K[x, x^-1], a domain: a^2 = c a only when a = c v
    for s in range(20):
        a = random_element(loop, RandomSpec(seed=s))
        cases.append((a, set(a._terms) == set(algebra.vertex_element(loop, "v")._terms)))
    return cases


def test_near_miss_has_the_keys_of_its_square():
    clock3 = corpus.clock(3)
    v = algebra.vertex_element(clock3, "v")
    e2 = algebra.edge_element(clock3, EdgeRef("e2"))
    a = 2 * v + 3 * (e2 * e2.involution())
    assert a * a == 4 * v + 21 * (e2 * e2.involution())


@pytest.mark.parametrize("case", range(len(_exit_cases())))
def test_probe_exits_at_a_square_that_is_a_multiple(case, monkeypatch):
    """When a^2 = c a the probe forms a^2 only, and its verdict is the
    sequential probe's for every k_max; otherwise it goes on."""
    a, exits = _exit_cases()[case]
    products = _count_products(monkeypatch)
    for k_max in range(1, 9):
        expected = nilpotence_index_sequential(a, k_max)
        products.clear()
        assert nilpotence_index(a, k_max) == expected
        if k_max >= 4 and not a.is_zero():
            assert (len(products) == 1) == exits, (k_max, len(products))


@pytest.mark.parametrize("case", range(len(_exit_cases())))
def test_probe_exit_keeps_resource_outcomes(case, monkeypatch):
    """With low term and edge limits, ResourceLimit and TooLarge come out
    as they do from the probe without the exit."""
    a, _ = _exit_cases()[case]
    for edge_limit in (0, 1, 2, 4, 6, 10 ** 6):
        monkeypatch.setattr(algebra, "POWER_EDGE_LIMIT", edge_limit)
        for term_limit in (1, 2, 3, 10 ** 6):
            monkeypatch.setattr(algebra, "TERM_LIMIT", term_limit)
            for k_max in range(1, 9):
                assert _probe_outcome(a, k_max) == \
                    _probe_without_exit(a, k_max, term_limit), \
                    (edge_limit, term_limit, k_max)


def _recorded_products(monkeypatch) -> list:
    """A list that gains (left, right) at each ``algebra._product`` call."""
    calls = []
    product = algebra._product

    def recording(table, left, right):
        calls.append((left, right))
        return product(table, left, right)

    monkeypatch.setattr(algebra, "_product", recording)
    return calls


def _ladder_cases() -> list:
    """(name, element): sampled elements of every fixture, one element on
    each of 200 seeded random graphs for each omega probability 0 and
    1/4, and the Jordan elements of sizes 2..14 on lines and graph_f."""
    cases = [(f"{name} seed={seed}", random_element(corpus.CORPUS[name](),
                                                    RandomSpec(seed=seed)))
             for name in sorted(corpus.CORPUS) for seed in range(8)]
    for omega in (Fraction(0), Fraction(1, 4)):
        for seed in range(200):
            g = random_graph(RandomSpec(seed=seed, omega_probability=omega))
            cases.append((f"random omega={omega} seed={seed}",
                          random_element(g, RandomSpec(seed=9_000 + seed))))
    f = corpus.build("graph_f")
    for n in range(2, 15):
        g = corpus.line(n)
        cases.append((f"jordan line({n})", jordan_element(
            structure.witness_matrix_units(g))))
        cases.append((f"jordan graph_f {n}", jordan_element(
            structure.witness_matrix_units(f, n))))
    return cases


def test_probe_forms_the_products_of_the_three_phase_probe(monkeypatch):
    """nilpotence_index, read off the squaring ladder, makes the same
    _product calls in the same order, and reaches the same verdict, as
    the probe that squared, walked down the bits of k_max and then
    searched; so every ResourceLimit and TooLarge stays as it was.  Low
    term and edge limits keep k_max = 1024 quick on growing powers."""
    cases = _ladder_cases()
    calls = _recorded_products(monkeypatch)
    monkeypatch.setattr(algebra, "TERM_LIMIT", 60)
    outcomes = set()
    for edge_limit in (40, 50_000):
        monkeypatch.setattr(algebra, "POWER_EDGE_LIMIT", edge_limit)
        for name, a in cases:
            for k_max in [*range(1, 21), 1023, 1024]:
                calls.clear()
                expected = _probe_without_exit(a, k_max, 60,
                                               first_square_exit=True)
                expected_calls = calls[:]
                calls.clear()
                assert _probe_outcome(a, k_max) == expected, (name, k_max)
                assert calls == expected_calls, (name, k_max)
                outcomes.add(expected if expected is algebra.TooLarge
                             else type(expected))
    assert outcomes == {algebra.NilpotentOfIndex, algebra.NotNilpotentWithin,
                        algebra.ResourceLimit, algebra.TooLarge}


# -- the random stream, pinned -------------------------------------------------

RAW_TERM_SHA256 = {
    "clock3": "7643510234e2ae8697e1de0337b683215a96d468da7e4e914d07a8bdd0b66fef",
    "clock5": "e1510aab9ed272b145dde6f97df5ffc4b7559079adcc062a518a3d989a46c500",
    "graph_f": "8ffb9363fedc93f7537cdaf992aaf30012d7852eb6cd27358f625addc8d85347",
    "inverse_clock3": "621f320d6067f6856632be784a4f335086e49e860c8bd0f92ba582eb6465bc8a",
    "line1": "47e3ae88c0614648a63d50d3dc16737f8605213d4d06bca089a115df5ae4dd81",
    "line2": "0e76a6d70b94267646ad3203291b261118b8041f637f3ddf4438871460fb6b79",
    "line3": "d0f2ddfb6b905b74ba16bff51160c89b6bb6656a3bc867268e3f7d19e49a67df",
    "line4": "bdd6d6fe387f69cf83fc896ceafd17f26dbe06d481344d10fc246ecc9d43cf8c",
    "line5": "eb0187e1d4360f66a818d746eaa6b57adbd051f7a99cffcd047794e32e625b7e",
    "line6": "73f3c756e76b53630914833f30fbecdb73c3fd2686996344ad8dff8027bbf46e",
    "loop_with_tail": "3d117e371f3caf0efa722e08ad386a657bc11dbe30d9c1cb0d287d8c0072b352",
    "omega_gadget": "7e1b44537989a9f228ac1769b0f3529d3e641b3d796df929f663b8926062f199",
    "single_loop": "dca490c8e37da39294a31dde0ccb7f2533947fbc3191bf8fd0075032ca9c6b30",
    "two_loops": "a0917be19767a953244366362183e12e25f27819874355ec143617253f7186ff",
}


def _sha256_lines(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(corpus.CORPUS))
def test_random_raw_terms_stream_is_pinned(name):
    """The raw terms for seeds 0..49, as the Path/Monomial walker drew
    them before random elements were drawn as kernel keys."""
    g = corpus.CORPUS[name]()
    assert _sha256_lines(repr(random_raw_terms(g, RandomSpec(seed=s)))
                         for s in range(50)) == RAW_TERM_SHA256[name]


def test_random_raw_terms_stream_is_pinned_on_random_graphs():
    """As above on 200 seeded graphs with multiplicities up to 3 and omega
    bundles."""
    assert _sha256_lines(
        repr(random_raw_terms(random_graph(RandomSpec(
            seed=s, max_mult=3, omega_probability=Fraction(1, 4))), RandomSpec(seed=s)))
        for s in range(200)) == \
        "f050e76df5b71508eb851e26cee505d78bb0d27e9a46e81a7f9a82e6ad55b31c"


# (n, nilpotent_found, empirical_max_index, witness_index) of
# `check --trials 300 --seed 12345` on each bounded fixture
SAMPLING_SEED_12345 = {
    "clock3": (2, 88, 2, 2), "clock5": (2, 101, 2, 2),
    "inverse_clock3": (4, 108, 4, 4), "line1": (1, 16, 1, 1),
    "line2": (2, 58, 2, 2), "line3": (3, 90, 3, 3), "line4": (4, 105, 4, 4),
    "line5": (5, 114, 4, 5), "line6": (6, 116, 4, 6),
    "loop_with_tail": (2, 24, 2, 2), "single_loop": (1, 3, 1, 1),
}


@pytest.mark.parametrize("name", sorted(SAMPLING_SEED_12345))
def test_sampling_is_pinned(name):
    rep = cross_check_index(corpus.CORPUS[name](), trials=300, seed=12345)
    assert (rep.n, rep.nilpotent_found, rep.empirical_max_index,
            rep.witness_index) == SAMPLING_SEED_12345[name]
    assert rep.violations == () and rep.resource_limited == 0


def test_sampling_pins_cover_every_bounded_fixture():
    bounded = {name for name, build in corpus.CORPUS.items()
               if isinstance(bounded_index_report(build()), Bounded)}
    assert bounded == set(SAMPLING_SEED_12345)


# -- the sampled trial loop ------------------------------------------------------

def test_str_seed_draws_as_random_random_seeds_it():
    """Int seeds go straight to the C seed; a str seed still takes the
    int that random.Random derives from it (its bytes, then their
    SHA-512)."""
    as_int = int.from_bytes(b"trial" + hashlib.sha512(b"trial").digest(), "big")
    for g in (corpus.line(3), corpus.build("omega_gadget")):
        assert random_raw_terms(g, RandomSpec(seed="trial")) == \
            random_raw_terms(g, RandomSpec(seed=as_int))


def _stream_elements(g, trials, seed):
    """The elements of a check's trials: each the next element drawn from
    the one stream of ``random.Random(seed)``, built as Monomials and
    normalized by the public ``normal_form``."""
    table = algebra._kernel(g)
    for _, raw in zip(range(trials), oracle._walk_stream(g, seed)):
        yield normal_form(g, [(algebra._monomial(g.vertices, table, key), k)
                              for key, k in raw])


def _cross_check_unmemoised(g, trials, seed):
    """cross_check_index as one draw and one probe per trial, with no memo
    and no trace certificate."""
    report = bounded_index_report(g)
    n, bound = report.n, report.n + 3
    found = limited = empirical = 0
    violations = []
    for t, a in enumerate(_stream_elements(g, trials, seed)):
        try:
            verdict = nilpotence_index(a, bound)
        except algebra.TooLarge:
            limited += 1
            continue
        if isinstance(verdict, algebra.NilpotentOfIndex):
            found += 1
            empirical = max(empirical, verdict.index)
            if verdict.index > n:
                violations.append(f"trial {t}: nilpotent of index "
                                  f"{verdict.index} > {n}")
        elif isinstance(verdict, algebra.ResourceLimit):
            limited += 1
    witness_index = 1
    if report.witness_target is not None:
        j = jordan_element(witness_matrix_units(g))
        verdict = nilpotence_index(j, n + 1)
        if isinstance(verdict, algebra.ResourceLimit):
            raise algebra.TooLarge("the witness's probe passed the term limit")
        witness_index = verdict.index if isinstance(
            verdict, algebra.NilpotentOfIndex) else -1
    if witness_index != n:
        violations.append(
            f"witness jordan element has index {witness_index}, expected {n}")
    return CrossCheckReport(n, trials, bound, seed, found, limited, empirical,
                            witness_index, tuple(violations))


def _bounded_random_graphs(count, max_mult=2):
    graphs, s = [], 0
    while len(graphs) < count:
        g = random_graph(RandomSpec(seed=s, max_mult=max_mult))
        if isinstance(bounded_index_report(g), Bounded):
            graphs.append(g)
        s += 1
    return graphs


def test_memoised_cross_check_matches_unmemoised_loop():
    """On the bounded fixtures, on bounded random graphs (multiplicities
    up to 3 make the rewriting run through several sibling edges), on the
    empty graph, where every trial's element is zero, and on a lone
    vertex."""
    graphs = [corpus.CORPUS[name]() for name in sorted(SAMPLING_SEED_12345)]
    graphs += _bounded_random_graphs(40)
    triple = _bounded_random_graphs(30, max_mult=3)
    assert any(sum(map(len, spans)) >= 2 for g in triple
               for spans in algebra._kernel(g).rewrite.values())
    empty, lone = Graph([], []), Graph(["v"], [])
    for i, g in enumerate(graphs + triple + [empty, lone]):
        assert cross_check_index(g, trials=150, seed=i) == \
            _cross_check_unmemoised(g, 150, i), i
    rep = cross_check_index(empty, trials=150, seed=3)
    assert rep.nilpotent_found == 150 and rep.empirical_max_index == 1


def test_check_seeds_one_generator_once(monkeypatch):
    """cross_check_index builds one generator and seeds it once, with the
    check's seed: every getrandbits call of its 300 trials, replayed on a
    fresh random.Random(7), gives the same bits, so no trial reseeds it,
    and no trial goes through random_element."""
    made = []

    class Counting(random.Random):
        seeds = 0

        def __init__(self, *args):
            self.draws = []
            made.append(self)
            super().__init__(*args)

        def seed(self, *args, **kwargs):
            self.seeds += 1
            super().seed(*args, **kwargs)

        def getrandbits(self, k):
            r = super().getrandbits(k)
            self.draws.append((k, r))
            return r

    def no_draw(*args, **kwargs):
        raise AssertionError("a trial called random_element")

    g = load_graph(fixture_path("line4"))
    expected = cross_check_index(g, trials=300, seed=7)
    monkeypatch.setattr(oracle.random, "Random", Counting)
    monkeypatch.setattr(oracle, "random_element", no_draw)
    assert cross_check_index(g, trials=300, seed=7) == expected
    assert len(made) == 1 and made[0].seeds == 1
    replay = random.Random(7)
    assert len(made[0].draws) > 300 * 6
    assert all(replay.getrandbits(k) == r for k, r in made[0].draws)


def test_first_trial_is_the_seeds_random_element():
    """Trial 0 of a check is random_element with the check's seed."""
    for name in ("line4", "clock3", "omega_gadget"):
        g = corpus.CORPUS[name]()
        for seed in (0, 7, 12345):
            assert next(_stream_elements(g, 1, seed)) == \
                random_element(g, RandomSpec(seed=seed))


def test_trial_shape_is_read_from_its_two_constants(monkeypatch):
    """oracle.TRIAL_TERMS and oracle.TRIAL_PATH_LEN are the one home of a
    trial's shape, read at run time: under TRIAL_PATH_LEN = 2 the check
    hands structure.trace_settles a width of 4 and no walk of its stream,
    of random_raw_terms or of random_element holds more than 2 edges;
    under TRIAL_TERMS = 1 every draw has exactly one term.  Both bounds
    are reached, and random_element is the normal form of
    random_raw_terms' draw, so a copy of either value kept by the stream,
    random_element or the guard fails."""
    widths, drawn = [], []
    settles, stream = structure.trace_settles, oracle._walk_stream

    def spying(g, bound, width):
        widths.append(width)
        return settles(g, bound, width)

    def recording(g, seed):
        for raw in stream(g, seed):
            drawn.append([(len(p), len(q)) for (_, p, _, q), _ in raw])
            yield raw

    monkeypatch.setattr(structure, "trace_settles", spying)
    monkeypatch.setattr(oracle, "_walk_stream", recording)
    graphs = [corpus.line(6), corpus.clock(3), doubled_line(4), tailed_cycle(2, 3)]

    def draw_all():
        widths.clear()
        drawn.clear()
        for g in graphs:
            for seed in range(5):
                cross_check_index(g, trials=40, seed=seed)
                raw = random_raw_terms(g, RandomSpec(seed=seed))
                a = random_element(g, RandomSpec(seed=seed))
                assert a == normal_form(g, raw), seed
                assert all(len(m.p.edges) <= oracle.TRIAL_PATH_LEN and
                           len(m.q.edges) <= oracle.TRIAL_PATH_LEN for m, _ in a.terms())
        assert len(drawn) == len(graphs) * 5 * (40 + 2)
        return [n for lengths in drawn for pair in lengths for n in pair], \
            [len(lengths) for lengths in drawn]

    monkeypatch.setattr(oracle, "TRIAL_PATH_LEN", 2)
    walks, terms = draw_all()
    assert widths == [4] * len(graphs) * 5
    assert max(walks) == 2 and max(terms) == 4
    monkeypatch.setattr(oracle, "TRIAL_PATH_LEN", 3)
    monkeypatch.setattr(oracle, "TRIAL_TERMS", 1)
    walks, terms = draw_all()
    assert widths == [6] * len(graphs) * 5
    assert max(walks) == 3 and set(terms) == {1}


def test_negative_seed_draws_the_trials_of_its_absolute_value(capsys):
    """random.Random seeds an int by its absolute value, so check --seed s
    and --seed -s draw the same trials and print the same report."""
    g = corpus.line(4)
    for s in (1, 9, 12345):
        rep = cross_check_index(g, trials=100, seed=-s)
        assert rep.seed == -s
        assert CrossCheckReport(rep.n, rep.trials, rep.probe_bound, s,
                                rep.nilpotent_found, rep.resource_limited,
                                rep.empirical_max_index, rep.witness_index,
                                rep.violations) == cross_check_index(g, trials=100, seed=s)
    outs = []
    for s in ("9", "-9"):
        assert cli.main(["check", fixture_path("line4"), "--trials", "100",
                         "--seed", s, "--format", "json"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_memoised_cross_check_matches_unmemoised_loop_at_the_edge_limit(monkeypatch):
    """Trials whose probe raises TooLarge are memoised as resource-limited."""
    monkeypatch.setattr(algebra, "POWER_EDGE_LIMIT", 20)
    limited = 0
    for name in ["clock3", "clock5", "loop_with_tail", "single_loop", "line2"]:
        g = corpus.CORPUS[name]()
        rep = cross_check_index(g, trials=200, seed=5)
        assert rep == _cross_check_unmemoised(g, 200, 5), name
        limited += rep.resource_limited
    assert limited > 0


# -- the block trace certificate -------------------------------------------------

def _trace_families() -> list:
    """The bounded fixtures, 300 bounded random graphs with multiplicities
    up to 3, the doubled line with k <= 8 and cycles with tails."""
    graphs = [corpus.CORPUS[name]() for name in sorted(SAMPLING_SEED_12345)]
    graphs += _bounded_random_graphs(300, max_mult=3)
    graphs += [doubled_line(k) for k in range(1, 9)]
    graphs += [tailed_cycle(m, t) for m in (1, 2, 3, 5) for t in (0, 1, 3)]
    return graphs


def _trace_by_corners(g, a) -> dict:
    """tau(a) by its definition: the sum over targets T, and over the
    paths p_i into T (the rows of T's block), of p_i* a p_i, an element of
    the corner at T's vertex w, read as a scalar (w at a sink) or as a
    Laurent polynomial in the cycle c based at w, c^j giving exponent
    j * |c|, as ``structure.block_trace`` counts x by edges."""
    tau = {}
    for target, cnt in bounded_index_report(g).per_target:
        legs = witness_paths(g, target, cnt)
        w = path_range(g, legs[0])
        at = g.vindex[w]
        for p in legs:
            leg = algebra.monomial(g, p, Path(w))
            for (pb, pe, qb, qe), k in (leg.involution() * a * leg)._terms.items():
                assert pb == qb == at and not (pe and qe), (target, p)
                tau[len(pe) - len(qe)] = tau.get(len(pe) - len(qe), 0) + k
    return {d: k for d, k in tau.items() if k}


def test_block_trace_is_the_sum_of_the_block_traces():
    """Against the corner products p_i* a p_i, on random elements and on
    the identity, whose trace is the sum of the path counts."""
    for i, g in enumerate(_trace_families()[::4]):
        tables = structure.trace_tables(g)
        one = algebra.identity_element(g)
        total = sum(cnt for _, cnt in bounded_index_report(g).per_target)
        assert structure.block_trace(tables, one._terms.items()) == {0: total}
        for s in range(6):
            a = random_element(g, RandomSpec(seed=100 * i + s))
            assert structure.block_trace(tables, a._terms.items()) == _trace_by_corners(g, a), (i, s)


def test_block_trace_is_a_linear_trace():
    """tau(ab) = tau(ba) and tau(a + 2b) = tau(a) + 2 tau(b) on seeded
    pairs."""
    nonzero = 0
    for i, g in enumerate(_trace_families()[::3]):
        tables = structure.trace_tables(g)

        def tau(x):
            return structure.block_trace(tables, x._terms.items())

        for s in range(8):
            a = random_element(g, RandomSpec(seed=2 * (100 * i + s)))
            b = random_element(g, RandomSpec(seed=2 * (100 * i + s) + 1))
            assert tau(a * b) == tau(b * a), (i, s)
            combined = dict(tau(a))
            for d, k in tau(b).items():
                combined[d] = combined.get(d, 0) + 2 * k
            assert tau(a + 2 * b) == {d: k for d, k in combined.items() if k}
            nonzero += bool(tau(a * b))
    assert nonzero > 100


def test_trace_certificate_agrees_with_the_sequential_probe():
    """Every element with a nonzero block trace is not nilpotent within
    n + 1 by the sequential probe, and every element it finds nilpotent
    has trace 0.  Both kinds occur."""
    settled = nilpotent = 0
    for i, g in enumerate(_trace_families()):
        n = bounded_index_report(g).n
        tables = structure.trace_tables(g)
        for s in range(12):
            a = random_element(g, RandomSpec(seed=1000 * i + s))
            verdict = nilpotence_index_sequential(a, n + 1)
            if structure.block_trace(tables, a._terms.items()):
                settled += 1
                assert verdict == algebra.NotNilpotentWithin(n + 1), (i, s)
            else:
                nilpotent += isinstance(verdict, algebra.NilpotentOfIndex)
    assert settled > 2000 and nilpotent > 500, (settled, nilpotent)


def test_block_trace_reads_raw_draws():
    """tau of a trial's raw draw, not normalized, equals tau of its normal
    form, and (on every 20th draw) tau by the corner products: 200 draws
    on each bounded fixture, 300 bounded random graphs with multiplicities
    up to 3, the doubled line with k <= 5 and cycles with tails.  A draw
    with its keys repeated has twice its tau, and a draw followed by its
    negation has tau 0."""
    graphs = [corpus.CORPUS[name]() for name in sorted(SAMPLING_SEED_12345)]
    graphs += _bounded_random_graphs(300, max_mult=3)
    graphs += [doubled_line(k) for k in range(1, 6)]
    graphs += [tailed_cycle(m, t) for m in (1, 2, 3, 5) for t in (0, 1, 3)]
    settled = rewritten = 0
    for i, g in enumerate(graphs):
        table, traces = algebra._kernel(g), structure.trace_tables(g)
        for s, raw in zip(range(200), oracle._walk_stream(g, i)):
            terms = algebra._normalize(table, raw)
            tau = structure.block_trace(traces, raw)
            assert tau == structure.block_trace(traces, terms.items()), (i, s)
            if s % 20 == 0:
                assert tau == _trace_by_corners(g, algebra.Element(g, terms)), (i, s)
            assert structure.block_trace(traces, raw + raw) == \
                {d: 2 * k for d, k in tau.items()}, (i, s)
            assert structure.block_trace(
                traces, raw + [(key, -k) for key, k in raw]) == {}, (i, s)
            settled += bool(tau)
            rewritten += any(key not in terms for key, _ in raw)
    assert settled > 40_000 and rewritten > 10_000, (settled, rewritten)


def _count_probes(monkeypatch) -> list:
    """A list that gains, at each ``algebra.nilpotence_index`` call,
    whether the call passed a ``settle`` predicate."""
    probes = []
    probe = algebra.nilpotence_index
    signature = inspect.signature(probe)

    def counting(*args, **kwargs):
        settle = signature.bind(*args, **kwargs).arguments.get("settle")
        probes.append(settle is not None)
        return probe(*args, **kwargs)

    monkeypatch.setattr(algebra, "nilpotence_index", counting)
    return probes


def _scalar_class(terms: dict) -> frozenset:
    """A term map up to a nonzero scalar: its items divided by the
    coefficient of the least key."""
    return frozenset((key, Fraction(k, terms[min(terms)])) for key, k in terms.items())


def _distinct_classes(g, trials: int, seed: int) -> int:
    """The number of distinct elements up to a nonzero scalar among a
    check's sampled trials."""
    return len({_scalar_class(a._terms) for a in _stream_elements(g, trials, seed)})


def _distinct_open_classes(g, trials: int, seed: int) -> int:
    """The number of distinct elements up to a nonzero scalar among a
    check's sampled trials whose block trace is 0: the trials that the
    trace certificate leaves to the probe."""
    traces = structure.trace_tables(g)
    return len({_scalar_class(a._terms) for a in _stream_elements(g, trials, seed)
                if not structure.block_trace(traces, a._terms.items())})


def test_certified_cross_check_matches_unmemoised_loop(monkeypatch):
    """With the certificate on, the report is the probe's on doubled lines
    and tailed cycles; the certificate settles trials on each graph the
    guard admits, and on no other.  Each element up to a scalar that the
    certificate leaves open is probed once, with ``settle`` exactly when
    the guard admits the graph; the witness's probe never takes it."""
    graphs = [doubled_line(k) for k in range(1, 9)]
    graphs += [tailed_cycle(m, t) for m in (1, 2, 3, 5) for t in (0, 1, 3)]
    probes = _count_probes(monkeypatch)
    admitted = 0
    for i, g in enumerate(graphs):
        expected = _cross_check_unmemoised(g, 120, i)
        settles = structure.trace_settles(g, expected.probe_bound, 6)
        probes.clear()
        assert cross_check_index(g, trials=120, seed=i) == expected, i
        trial_probes = len(probes) - 1  # the witness's probe
        assert probes == [settles] * trial_probes + [False], i
        distinct = _distinct_classes(g, 120, i)
        if settles:
            admitted += 1
            assert trial_probes == _distinct_open_classes(g, 120, i) < distinct, i
        else:
            assert trial_probes == distinct, i
    assert 5 <= admitted < len(graphs)


def _exact_key_bound(g, reach: int) -> int:
    """The number of normal-form keys p q* with |p|, |q| <= ``reach``, by
    listing the paths: the pairs of paths at one range that do not both
    end in one special edge.  At most this many keys can a power hold
    whose keys hold at most ``reach`` edges."""
    by_range, by_special = {}, {}
    for p in _all_paths(g, reach):
        r = path_range(g, p)
        by_range[r] = by_range.get(r, 0) + 1
        if p.edges and p.edges[-1] == algebra.special_edge(g, g.src(p.edges[-1])):
            by_special[p.edges[-1]] = by_special.get(p.edges[-1], 0) + 1
    return (sum(c * c for c in by_range.values())
            - sum(c * c for c in by_special.values()))


@pytest.mark.parametrize("name", sorted(SAMPLING_SEED_12345))
def test_trace_guard_bounds_the_powers(name, monkeypatch):
    """Every power a^k, k <= n + 3, of a sampled element has at most the
    listed key bound of terms, and a term limit below that bound makes
    the guard refuse."""
    g = corpus.CORPUS[name]()
    bound = bounded_index_report(g).n + 3
    exact = _exact_key_bound(g, bound * 6)
    for s in range(20):
        a = power = random_element(g, RandomSpec(seed=s))
        for _ in range(bound - 1):
            power = power * a
            assert power.support_size() <= exact, s
    monkeypatch.setattr(algebra, "POWER_EDGE_LIMIT", 10 ** 12)
    monkeypatch.setattr(algebra, "TERM_LIMIT", exact - 1)
    assert not structure.trace_settles(g, bound, 6)


def test_trace_guard_counts_at_least_the_normal_form_keys(monkeypatch):
    """On 200 bounded random graphs and on cycles with tails, at bounds 1,
    2 and n + 3, the guard refuses when the term limit is one below the
    exact normal-form key count, so its key bound is at least that count.
    On the single loop the bound is the exact count."""
    graphs = _bounded_random_graphs(200)
    graphs += [tailed_cycle(m, t) for m in (1, 2, 3, 5) for t in (0, 1, 3)]
    monkeypatch.setattr(algebra, "POWER_EDGE_LIMIT", 10 ** 12)
    for i, g in enumerate(graphs):
        for bound in sorted({1, 2, bounded_index_report(g).n + 3}):
            exact = _exact_key_bound(g, bound * 6)
            monkeypatch.setattr(algebra, "TERM_LIMIT", exact - 1)
            assert not structure.trace_settles(g, bound, 6), (i, bound)
    loop = corpus.build("single_loop")
    assert _exact_key_bound(loop, 24) == 1 + 2 * 24
    monkeypatch.setattr(algebra, "TERM_LIMIT", 1 + 2 * 24)
    assert structure.trace_settles(loop, 4, 6)


def test_certificate_settles_trials_on_exitless_cycles(monkeypatch):
    """At the default limits the guard admits the loop with a 3-vertex
    tail and bounded random graphs with an exitless cycle, and every
    report is the probe's.  The probes, the witness's aside, number the
    distinct scalar classes among the trials of trace 0, so the
    certificate settles every other trial and the memo probes each class
    once, each probe with ``settle``.  The guard still refuses the doubled
    line from k = 6 on."""
    graphs = [tailed_cycle(1, 3)]
    graphs += [g for g in _bounded_random_graphs(150)
               if any(isinstance(t, CycleTarget)
                      for t, _ in bounded_index_report(g).per_target)][:12]
    assert len(graphs) == 13
    probes = _count_probes(monkeypatch)
    for i, g in enumerate(graphs):
        expected = _cross_check_unmemoised(g, 100, i)
        assert structure.trace_settles(g, expected.probe_bound, 6), i
        probes.clear()
        assert cross_check_index(g, trials=100, seed=i) == expected, i
        assert len(probes) - 1 == _distinct_open_classes(g, 100, i), i
        assert probes == [True] * (len(probes) - 1) + [False], i
    assert structure.trace_settles(doubled_line(5), 34, 6)
    for k in (6, 7, 8):
        assert not structure.trace_settles(doubled_line(k), 2 ** k + 2, 6), k


def test_settled_probe_gives_the_guarded_probes_verdict():
    """On every bounded fixture, on the first 200 bounded random graphs
    that the guard admits at bound n + 3 and on cycles with tails, the
    guard admits n + 3, and every trial of trace 0 in a 300-trial stream
    gets from ``nilpotence_index(a, n + 3, settle=...)`` the verdict of
    the guarded probe and of the sequential probe.  The random graphs
    include ones with and without exitless cycles, and the probe settles
    trials at a square: tau(a) = 0 but tau(a^(2^i)) != 0."""
    graphs = [corpus.CORPUS[name]() for name in sorted(SAMPLING_SEED_12345)]
    graphs += [g for g in _bounded_random_graphs(230) if structure.trace_settles(
        g, bounded_index_report(g).n + 3, 6)][:200]
    graphs += [tailed_cycle(m, t) for m in (1, 2, 3, 5) for t in (0, 1, 3)]
    assert len(graphs) == 11 + 200 + 12
    with_cycles = sum(any(isinstance(t, CycleTarget) for t, _ in
                          bounded_index_report(g).per_target) for g in graphs[11:211])
    assert 0 < with_cycles < 200, with_cycles
    probed = settled = 0
    for i, g in enumerate(graphs):
        bound = bounded_index_report(g).n + 3
        assert structure.trace_settles(g, bound, 6), i
        traces = structure.trace_tables(g)
        hits = []

        def settle(z):
            tau = structure.block_trace(traces, z.items())
            hits.append(bool(tau))
            return tau

        for a in _stream_elements(g, 300, i):
            if structure.block_trace(traces, a._terms.items()):
                continue
            probed += 1
            expected = nilpotence_index(a, bound)
            assert nilpotence_index(a, bound, settle=settle) == expected == \
                nilpotence_index_sequential(a, bound), i
        settled += sum(hits)
    assert probed > 10_000 and settled > 1_000, (probed, settled)


def test_probe_settles_at_the_first_square_of_nonzero_trace(monkeypatch):
    """On clock3, a = e1 + e1* has tau(a) = 0 and tau(a^2) = {0: 2}: with
    ``settle`` the probe forms a^2 alone, where the guarded probe forms 3
    products; both give NotNilpotentWithin(n + 3)."""
    g = corpus.clock(3)
    bound = bounded_index_report(g).n + 3
    traces = structure.trace_tables(g)
    e1 = algebra.edge_element(g, EdgeRef("e1"))
    a = e1 + e1.involution()
    assert structure.block_trace(traces, a._terms.items()) == {}
    assert structure.block_trace(traces, (a * a)._terms.items()) == {0: 2}
    products = _count_products(monkeypatch)
    assert nilpotence_index(a, bound) == algebra.NotNilpotentWithin(bound)
    assert len(products) == 3
    products.clear()
    assert nilpotence_index(a, bound, settle=lambda z: structure.block_trace(
        traces, z.items())) == algebra.NotNilpotentWithin(bound)
    assert len(products) == 1


def test_trace_guard_refuses_at_low_limits(monkeypatch):
    """At the default limits the guard admits every bounded fixture and
    refuses the doubled line with k=10.  With the edge limit at 20, or a
    term limit of 3, it refuses (but on line1, whose powers hold one term
    at most), every trial distinct up to a scalar runs the probe, with no
    ``settle``, and the report is the probe's.  At the edge limit of 20 the other fixtures' witness probes
    raise TooLarge; at the term limit of 3, those of line6 and of the
    doubled line do, after the same trials."""
    fixtures = [corpus.CORPUS[name]() for name in sorted(SAMPLING_SEED_12345)]
    for g in fixtures:
        assert structure.trace_settles(g, bounded_index_report(g).n + 3, 6)
    assert not structure.trace_settles(doubled_line(10), 1026, 6)
    edge_limited = [corpus.CORPUS[name]() for name in
                    ["clock3", "clock5", "loop_with_tail", "single_loop", "line2"]]
    probes = _count_probes(monkeypatch)
    limited, refused = 0, []
    for limit, value, graphs in [("POWER_EDGE_LIMIT", 20, edge_limited),
                                 ("TERM_LIMIT", 3, fixtures + [doubled_line(10)])]:
        with monkeypatch.context() as m:
            m.setattr(algebra, limit, value)
            for i, g in enumerate(graphs):
                if structure.trace_settles(g, bounded_index_report(g).n + 3, 6):
                    assert g == corpus.line(1), (limit, i)
                    continue
                expected = _report_or_too_large(_cross_check_unmemoised, g, 40, i)
                probes.clear()
                rep = _report_or_too_large(cross_check_index, g, 40, i)
                assert rep == expected, (limit, i)
                assert len(probes) - 1 == _distinct_classes(g, 40, i), (limit, i)
                assert not any(probes), (limit, i)
                if rep == "TooLarge":
                    refused.append(i)
                else:
                    limited += rep.resource_limited
    assert limited > 0 and refused == [8, 11]


def _report_or_too_large(check, g, trials, seed):
    try:
        return check(g, trials, seed)
    except algebra.TooLarge:
        return "TooLarge"


def test_probe_and_trace_guard_read_one_term_limit(monkeypatch):
    """nilpotence_index's term limit is algebra.TERM_LIMIT, read at call
    time, as the guard and the sequential probe read it."""
    assert algebra.TERM_LIMIT == 10 ** 6
    g = corpus.clock(3)
    v = algebra.vertex_element(g, "v")
    e2 = algebra.edge_element(g, EdgeRef("e2"))
    a = 2 * v + 3 * (e2 * e2.involution())  # a^2 has two terms
    assert nilpotence_index(a, 4) == algebra.NotNilpotentWithin(4)
    assert structure.trace_settles(g, 4, 6)
    monkeypatch.setattr(algebra, "TERM_LIMIT", 1)
    assert nilpotence_index(a, 4) == algebra.ResourceLimit(2, 2) == \
        nilpotence_index_sequential(a, 4)
    assert not structure.trace_settles(g, 4, 6)


# algebra._product calls of cross_check_index on fixtures/line4.graph, 300
# trials, seed 7: as the code stands, with the probe squaring on past a
# square of nonzero block trace, without the trace certificate, without
# the verdict memo, and without the early exit at the first square; and the
# nilpotence_index calls as the code stands (the witness's included)
PRODUCTS_LINE4_CERTIFIED = 139
PRODUCTS_LINE4_UNSETTLED = 172
PRODUCTS_LINE4 = 743
PRODUCTS_LINE4_UNMEMOISED = 778
PRODUCTS_LINE4_NO_EXIT = 872
PROBES_LINE4_CERTIFIED = 109


def test_cross_check_product_count_is_guarded(monkeypatch):
    """The sampled trials and the witness form at most
    PRODUCTS_LINE4_CERTIFIED products in PROBES_LINE4_CERTIFIED probes, so
    losing the settled squares, the trace certificate, the memo or the
    early exit fails here."""
    g = load_graph(fixture_path("line4"))
    products = _count_products(monkeypatch)
    probes = _count_probes(monkeypatch)
    cross_check_index(g, trials=300, seed=7)
    assert len(probes) <= PROBES_LINE4_CERTIFIED
    assert len(products) <= PRODUCTS_LINE4_CERTIFIED < PRODUCTS_LINE4_UNSETTLED \
        < PRODUCTS_LINE4 < PRODUCTS_LINE4_UNMEMOISED < PRODUCTS_LINE4_NO_EXIT


# algebra._normalize calls of the same check: as the code stands, with the
# trace read off each trial's raw draw, and with every trial normalized
# before its trace is read
NORMALIZE_LINE4_RAW_TRACE = 261
NORMALIZE_LINE4 = 505


def test_settled_trials_are_not_normalized(monkeypatch):
    """The check of line4 (300 trials, seed 7) calls _normalize at most
    NORMALIZE_LINE4_RAW_TRACE times.  Of the raw draws of its walk stream
    it normalizes exactly those whose block trace is 0, by identity and in
    order.  It builds one Element per distinct normal form up to a scalar
    among them, each of trace 0; a trial with a nonzero trace builds
    none."""
    g = load_graph(fixture_path("line4"))
    trials, normalized, built = [], [], []
    stream = oracle._walk_stream
    normalize, init = algebra._normalize, algebra.Element.__init__

    def recording(*args):
        for raw in stream(*args):
            trials.append(raw)
            yield raw

    def counting(table, raw):
        normalized.append(raw)
        return normalize(table, raw)

    def building(self, graph, terms):
        built.append(terms)
        init(self, graph, terms)

    monkeypatch.setattr(oracle, "_walk_stream", recording)
    monkeypatch.setattr(algebra, "_normalize", counting)
    monkeypatch.setattr(algebra.Element, "__init__", building)
    cross_check_index(g, trials=0, seed=7)
    witness_built = len(built)
    normalized.clear()
    built.clear()
    cross_check_index(g, trials=300, seed=7)
    assert len(normalized) <= NORMALIZE_LINE4_RAW_TRACE < NORMALIZE_LINE4
    traces = structure.trace_tables(g)
    open_trials = [raw for raw in trials if not structure.block_trace(traces, raw)]
    assert len(trials) == 300 and 0 < len(open_trials) < 200
    drawn = {id(raw) for raw in trials}
    trial_raw = [raw for raw in normalized if id(raw) in drawn]
    assert len(trial_raw) == len(open_trials)
    assert all(x is y for x, y in zip(trial_raw, open_trials))
    trial_built = built[:len(built) - witness_built]
    assert len(trial_built) == len({_scalar_class(normalize(algebra._kernel(g), raw))
                                    for raw in trial_raw})
    assert not any(structure.block_trace(traces, terms.items()) for terms in trial_built)
