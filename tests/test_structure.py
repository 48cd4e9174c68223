import pytest

import corpus
from conftest import fixture_path, tailed_cycle
from leavitt import cli, structure
from leavitt.algebra import (
    NilpotentOfIndex,
    jordan_element,
    nilpotence_index,
    verify_matrix_units,
)
from leavitt.graph import (
    AdmissiblePair,
    Bundle,
    EdgeRef,
    Graph,
    hereditary_saturated_closure,
    quotient_graph,
)
from leavitt.oracle import (
    LaurentFactorPresent,
    RandomSpec,
    acyclic_dimension,
    classify_quotient,
    enumerate_paths_ending_at,
    random_graph,
)
from leavitt.structure import (
    BASE_K,
    BASE_LAURENT,
    Bounded,
    CycleTarget,
    CycleWithExit,
    Decomposition,
    Factor,
    NotRowFinite,
    OmegaPathFamily,
    PreconditionUnbounded,
    SinkTarget,
    Unbounded,
    blocks,
    bounded_index_report,
    decompose,
    graded_spectrum,
    is_PI,
    is_directly_finite,
    witness_matrix_units,
)


def test_clock5_bounded():
    report = bounded_index_report(corpus.clock(5))
    assert isinstance(report, Bounded)
    assert report.n == 2
    assert all(cnt == 2 for _, cnt in report.per_target)
    assert len(report.per_target) == 5


def test_graph_f_unbounded():
    report = bounded_index_report(corpus.build("graph_f"))
    assert isinstance(report, Unbounded)
    reason = report.reason
    assert isinstance(reason, CycleWithExit)
    assert [e.bundle for e in reason.cycle.edges] == ["a1", "a2", "a3", "a4"]
    assert reason.edge == EdgeRef("f")


@pytest.mark.parametrize("n", range(1, 7))
def test_line_bounded(n):
    report = bounded_index_report(corpus.line(n))
    assert isinstance(report, Bounded) and report.n == n


def test_omega_gadget_unbounded():
    report = bounded_index_report(corpus.build("omega_gadget"))
    assert report == Unbounded(OmegaPathFamily("h")) or \
        isinstance(report.reason, OmegaPathFamily)
    assert report.reason.vertex == "h"


def test_empty_graph_bounded_one():
    report = bounded_index_report(Graph([]))
    assert isinstance(report, Bounded)
    assert report.n == 1 and report.per_target == () and report.witness_target is None


def test_is_PI():
    assert is_PI(corpus.clock(5))
    assert not is_PI(corpus.build("graph_f"))
    assert is_PI(Graph([]))


def test_directly_finite():
    assert not is_directly_finite(corpus.build("graph_f"))
    assert is_directly_finite(corpus.build("single_loop"))
    og = corpus.build("omega_gadget")
    assert is_directly_finite(og) and not is_PI(og)  # strict implication


def test_classify_clock3():
    g = corpus.clock(3)
    H = hereditary_saturated_closure(g, ["w2", "w3"])
    assert classify_quotient(quotient_graph(g, AdmissiblePair(H))) == Factor(2, BASE_K)


def test_classify_empty_quotient():
    g = corpus.clock(3)
    pair = AdmissiblePair(frozenset(g.vertices))
    assert classify_quotient(quotient_graph(g, pair)) is None


def test_classify_loop_with_tail():
    lt = corpus.build("loop_with_tail")
    assert classify_quotient(quotient_graph(lt, AdmissiblePair(frozenset()))) == \
        Factor(2, BASE_LAURENT)


def test_spectrum_clock3():
    spec = graded_spectrum(corpus.clock(3))
    assert spec  # some downward-directed quotient exists
    for pair, cls in spec:
        assert cls.base == BASE_K and cls.size <= 2
        assert pair.S == frozenset()


def test_spectrum_single_loop():
    spec = graded_spectrum(corpus.build("single_loop"))
    assert spec == [(AdmissiblePair(frozenset()), Factor(1, BASE_LAURENT))]


def test_spectrum_single_vertex():
    spec = graded_spectrum(corpus.line(1))
    assert spec == [(AdmissiblePair(frozenset()), Factor(1, BASE_K))]


def test_spectrum_on_deep_graphs():
    spec = graded_spectrum(corpus.line(1500))
    assert spec == [(AdmissiblePair(frozenset()), Factor(1500, BASE_K))]
    spec = graded_spectrum(tailed_cycle(1200, 3))
    assert spec == [(AdmissiblePair(frozenset()), Factor(1203, BASE_LAURENT))]


def test_decompose_clock5():
    d = decompose(corpus.clock(5))
    assert d.factors == (Factor(2, BASE_K),) * 5


def test_decompose_loop_with_tail():
    d = decompose(corpus.build("loop_with_tail"))
    assert d.factors == (Factor(2, BASE_LAURENT),)


def test_decompose_single_vertex():
    assert decompose(corpus.line(1)).factors == (Factor(1, BASE_K),)


def test_decompose_factor_count_is_targets():
    g = Graph(["a", "b", "s1", "s2"],
              [Bundle("e", "a", "a"), Bundle("t", "b", "s1"),
               Bundle("u", "b", "s2", 1)])
    report = bounded_index_report(g)
    d = decompose(g)
    assert len(d.factors) == len(report.per_target) == 3
    assert max(f.size for f in d.factors) == report.n


def test_decompose_repeats_one_factor_per_distinct_ring():
    """The factors are the sorted tuple of one Factor per target, with one
    object for each distinct (size, base)."""
    mixed = Graph(["a", "b", "c", "s1", "s2", "s3"],
                  [Bundle("e", "a", "a"), Bundle("f", "c", "c"), Bundle("t", "b", "s1"),
                   Bundle("u", "b", "s2"), Bundle("w", "s1", "s3")])
    for g in (corpus.clock(1200), corpus.clock(5), corpus.line(4), mixed,
              corpus.build("loop_with_tail"), tailed_cycle(3, 2)):
        report = bounded_index_report(g)
        expected = tuple(sorted(
            Factor(cnt, BASE_K if isinstance(target, SinkTarget) else BASE_LAURENT)
            for target, cnt in report.per_target))
        d = decompose(g)
        assert d.factors == expected
        assert len({id(f) for f in d.factors}) == len(set(expected))
    assert len({id(f) for f in decompose(corpus.clock(1200)).factors}) == 1
    assert len(set(decompose(mixed).factors)) == 3


def test_decompose_errors():
    with pytest.raises(NotRowFinite):
        decompose(corpus.build("omega_gadget"))
    with pytest.raises(PreconditionUnbounded):
        decompose(corpus.build("graph_f"))


def test_acyclic_dimension():
    assert acyclic_dimension(decompose(corpus.clock(5))) == 20
    assert acyclic_dimension(decompose(corpus.line(4))) == 16
    assert acyclic_dimension(Decomposition((Factor(1, BASE_K),))) == 1
    with pytest.raises(LaurentFactorPresent):
        acyclic_dimension(decompose(corpus.build("loop_with_tail")))


def test_witness_recipe_attains_bound():
    for name in ["clock5", "line4", "loop_with_tail", "inverse_clock3",
                 "single_loop"]:
        g = corpus.build(name)
        report = bounded_index_report(g)
        units = witness_matrix_units(g)
        assert verify_matrix_units(units), name
        j = jordan_element(units)
        assert nilpotence_index(j, report.n + 1) == NilpotentOfIndex(report.n), name


def test_witness_any_size_when_unbounded():
    f = corpus.build("graph_f")
    for n in (2, 5):
        units = witness_matrix_units(f, n)
        assert units.n == n and verify_matrix_units(units)
    og = corpus.build("omega_gadget")
    units = witness_matrix_units(og, 4)
    assert verify_matrix_units(units)
    assert nilpotence_index(jordan_element(units), 5) == NilpotentOfIndex(4)


def test_witness_size_capped_when_bounded():
    g = corpus.clock(5)
    units = witness_matrix_units(g, 1)
    assert units.n == 1
    with pytest.raises(Exception):
        witness_matrix_units(g, 3)  # only n=2 paths exist


def test_bound_attained_at_targets_only():
    # n computed over sinks/cycles equals the maximum over ALL vertices
    from leavitt.graph import count_paths_ending_at
    from leavitt.oracle import RandomSpec, random_graph
    for seed in range(120):
        g = random_graph(RandomSpec(seed=seed))
        report = bounded_index_report(g)
        if isinstance(report, Bounded) and g.vertices:
            per_vertex = max(count_paths_ending_at(g, v)
                             for v in g.vertices)
            assert per_vertex == report.n, seed


def test_spectrum_sizes_bounded_by_global_n():
    from leavitt.oracle import RandomSpec, random_graph
    corpus_and_random = [corpus.build(n) for n in
                         ["clock3", "clock5", "line3", "loop_with_tail",
                          "single_loop", "inverse_clock3"]]
    corpus_and_random += [random_graph(RandomSpec(seed=s)) for s in range(40)]
    for g in corpus_and_random:
        report = bounded_index_report(g)
        if not isinstance(report, Bounded):
            continue
        for _, cls in graded_spectrum(g):
            assert cls.size <= report.n


def test_report_on_deep_tailed_cycle():
    report = bounded_index_report(tailed_cycle(1200, 3))
    assert isinstance(report, Bounded) and report.n == 1203
    (target, count), = report.per_target
    assert isinstance(target, CycleTarget) and count == 1203


# -- the block table ------------------------------------------------------------

def _bounded_graphs(seeds=200):
    """The bounded fixtures, then the first `seeds` bounded random graphs."""
    fixtures = [build() for _, build in sorted(corpus.CORPUS.items())]
    graphs = [g for g in fixtures if isinstance(bounded_index_report(g), Bounded)]
    wanted, s = len(graphs) + seeds, 0
    while len(graphs) < wanted:
        g = random_graph(RandomSpec(seed=s, max_mult=3))
        if isinstance(bounded_index_report(g), Bounded):
            graphs.append(g)
        s += 1
    return graphs


def test_legs_count_the_listed_paths_into_the_targets():
    """legs[v], from trace_tables, is the number of paths from v among
    those the oracle lists into the targets' bases; the legs add up to the
    sum of the counts, and the rows' (count, ring) pairs are decompose's
    factors."""
    rings = set()
    for g in _bounded_graphs():
        table = blocks(g)
        rings.update(ring for _, _, _, ring in table.rows)
        listed = [0] * len(g.vertices)
        for target, w, cnt, _ in table.rows:
            paths = enumerate_paths_ending_at(g, g.vertices[w], len(g.vertices) * (cnt + 1))
            assert len(paths) == cnt, target
            for p in paths:
                listed[g.vindex[p.base]] += 1
        legs = structure.trace_tables(g)[0]
        assert legs == listed
        assert sum(legs) == sum(cnt for _, _, cnt, _ in table.rows)
        assert (sorted((cnt, ring) for _, _, cnt, ring in table.rows)
                == [(f.size, f.base) for f in decompose(g).factors])
    assert rings == {BASE_K, BASE_LAURENT}


def test_rows_follow_the_report():
    for g in _bounded_graphs()[:60]:
        table = blocks(g)
        assert table.report is bounded_index_report(g)
        assert tuple((t, cnt) for t, _, cnt, _ in table.rows) == table.report.per_target
        for target, w, _, ring in table.rows:
            if isinstance(target, SinkTarget):
                assert (w, ring) == (g.vindex[target.vertex], BASE_K)
            else:
                assert (w, ring) == (g.vindex[g.src(target.cycle.edges[0])], BASE_LAURENT)


def test_unbounded_table_has_no_rows():
    for g in (corpus.build("graph_f"), corpus.build("omega_gadget")):
        table = blocks(g)
        assert isinstance(table.report, Unbounded)
        assert table == (table.report, ())


def test_blocks_is_cached_and_check_builds_it_once(monkeypatch, capsys):
    g = corpus.clock(5)
    assert blocks(g) is blocks(g)
    built = []
    fill = structure._fill_blocks

    def counting(g):
        built.append(g)
        return fill(g)

    monkeypatch.setattr(structure, "_fill_blocks", counting)
    for name in ("clock5", "loop_with_tail", "graph_f"):
        built.clear()
        assert cli.main(["check", fixture_path(name), "--trials", "20"]) == 0
        assert len(built) == 1, name
    capsys.readouterr()
