from dataclasses import replace
from fractions import Fraction

import pytest

from leavitt import corpus
from leavitt.algebra import (
    MatrixUnits,
    Monomial,
    matrix_units_exit,
    normal_form,
    verify_matrix_units,
)
from leavitt import structure
from leavitt.graph import (
    Bundle,
    EdgeRef,
    Graph,
    Path,
    concat_paths,
    count_paths_ending_at,
    cycles,
    path_range,
)
from leavitt.oracle import (
    CrossCheckReport,
    ExplosionGuard,
    RandomSpec,
    basis_monomials,
    cross_check_index,
    enumerate_paths_ending_at,
    graded_spectrum_exhaustive,
    normal_form_reference,
    product_reference,
    random_element,
    random_graph,
    random_raw_terms,
    verify_matrix_units_exhaustive,
)
from leavitt.structure import (
    Bounded,
    PreconditionUnbounded,
    SinkTarget,
    acyclic_dimension,
    bounded_index_report,
    decompose,
    graded_spectrum,
    witness_matrix_units,
    witness_paths,
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
    lt = corpus.loop_with_tail()
    paths = enumerate_paths_ending_at(lt, "v", 12)
    assert paths == [Path("v"), Path("u", (EdgeRef("t"),))]


def test_enumerate_guards():
    og = corpus.omega_gadget()
    with pytest.raises(ExplosionGuard):
        enumerate_paths_ending_at(og, "h", 3)
    with pytest.raises(ExplosionGuard):
        # two loops at v: unboundedly many paths, tiny budget
        enumerate_paths_ending_at(corpus.two_loops(), "v", 50, max_paths=20)


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
        cross_check_index(corpus.graph_f(), trials=5)


def test_dp_agreement_on_random_graphs():
    # independent brute-force enumeration equals the DP on every
    # finite-count vertex of 200 seeded omega-free graphs
    checked = 0
    for seed in range(200):
        g = random_graph(RandomSpec(seed=seed))
        for v in g.vertices:
            cnt = count_paths_ending_at(g, v)
            if not cnt.finite:
                continue
            cap = len(g.vertices) * (cnt.value + 1)
            assert len(enumerate_paths_ending_at(g, v, cap)) == cnt.value, (seed, v)
            checked += 1
    assert checked > 100


# -- matrix-unit check against the n^4 oracle -----------------------------------

def _closed_path_at(g, w):
    """A shortest closed path at w, or None when w lies on no cycle."""
    level, seen = [Path(w)], set()
    while level:
        nxt = []
        for p in level:
            for b in g.out_bundles(path_range(g, p)):
                q = Path(w, p.edges + (EdgeRef(b.id, 0),))
                if b.dst == w:
                    return q
                if b.dst not in seen:
                    seen.add(b.dst)
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
        families["extended"] = legs + (concat_paths(g, legs[0], loop),)
    return {name: replace(m, legs=bad) for name, bad in families.items()}


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
        _assert_fast_check_matches_oracle(witness_matrix_units(g, report, size))


@pytest.mark.parametrize("n", range(1, 7))
def test_fast_unit_check_matches_oracle_on_exit_units(n):
    f = corpus.graph_f()
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
        units = witness_matrix_units(g, report, size)
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
            assert normal_form(g, raw, strategy="random", seed=i + 1).terms() == ref
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
