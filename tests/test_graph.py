import pytest

import corpus
from leavitt.graph import (
    OMEGA,
    AdmissiblePair,
    Bundle,
    CycleThroughOmegaBundle,
    EdgeRef,
    Graph,
    InvalidAdmissiblePair,
    NotHereditarySaturated,
    TooLarge,
    UnknownVertex,
    all_hereditary_saturated,
    breaking_vertices,
    condition_K,
    condition_L,
    count_paths_ending_at,
    cycle_exit_witness,
    cycle_vertices,
    cycles,
    downward_directed,
    hereditary_saturated_closure,
    is_hereditary_saturated,
    quotient_graph,
    reachable,
    validate,
)
from leavitt.oracle import exits
from leavitt.structure import is_directly_finite


def test_validate_ok_on_corpus():
    for name, build in corpus.CORPUS.items():
        assert validate(build()) == [], name


def test_validate_empty_graph():
    assert validate(Graph([])) == []


def test_validate_names_offenders():
    g = Graph(["v"], [Bundle("e", "v", "nowhere")])
    violations = validate(g)
    assert len(violations) == 1 and "'e'" in violations[0]

    g = Graph(["v", "v"], [Bundle("e", "v", "v", 0)])
    violations = validate(g)
    assert any("'v'" in x for x in violations)
    assert any("'e'" in x for x in violations)

    # the loader's rule: a bool is not a multiplicity
    g = Graph(["u", "v"], [Bundle("e", "u", "v", True)])
    assert validate(g) == ["bundle 'e': multiplicity must be a positive integer or omega"]


def test_out_degree():
    g = corpus.clock(3)
    assert g.out_degree("v") == 3 and g.is_regular("v")
    assert g.out_degree("w1") == 0 and g.is_sink("w1")
    og = corpus.build("omega_gadget")
    assert og.out_degree("v") is OMEGA
    assert not og.is_regular("v") and not og.is_sink("v")
    assert Graph(["u"], [Bundle("d", "u", "u", 2)]).out_degree("u") == 2
    with pytest.raises(UnknownVertex):
        g.out_degree("zz")


def test_reachable():
    g = corpus.clock(3)
    for v in g.vertices:
        assert reachable(g, v, v)
    assert not reachable(g, "w1", "v")
    f = corpus.build("graph_f")
    assert reachable(f, "g1", "c1")
    assert not reachable(f, "c1", "g1")
    with pytest.raises(UnknownVertex):
        reachable(g, "v", "zz")


def test_downward_directed():
    f = corpus.build("graph_f")
    assert downward_directed(f)
    assert not downward_directed(corpus.clock(3))


def test_cycles_basic():
    assert cycles(corpus.line(4)) == []
    two = cycles(corpus.build("two_loops"))
    assert len(two) == 2
    f = corpus.build("graph_f")
    cs = cycles(f)
    assert [[e.bundle for e in c.edges] for c in cs] == [
        ["a1", "a2", "a3", "a4"], ["b1", "b2", "b3", "b4"]]


def test_cycles_parallel_edges():
    g = Graph(["u", "w"], [Bundle("d", "u", "w", 2), Bundle("r", "w", "u")])
    assert len(cycles(g)) == 2  # one per index of the double bundle


def test_cycles_canonical_and_order_independent():
    f = corpus.build("graph_f")
    rev = Graph(f.vertices, list(reversed(f.bundles)))
    assert cycles(rev) == cycles(f)
    for c in cycles(f):
        srcs = cycle_vertices(f, c)
        assert srcs[0] == min(srcs)
        assert len(set(srcs)) == len(srcs)


def test_cycles_omega_on_closed_walk():
    g = Graph(["u", "w"], [Bundle("a", "u", "w", OMEGA), Bundle("r", "w", "u")])
    with pytest.raises(CycleThroughOmegaBundle):
        cycles(g)


def test_exits():
    sl = corpus.build("single_loop")
    assert exits(sl, cycles(sl)[0]) == []
    f = corpus.build("graph_f")
    a_cycle, b_cycle = cycles(f)
    xs = exits(f, a_cycle)
    assert [x.edge for x in xs] == [EdgeRef("f", 0)]
    assert exits(f, b_cycle) == []


def test_exits_within_bundle_and_omega_flag():
    g = Graph(["u"], [Bundle("d", "u", "u", 2)])
    c = cycles(g)[0]
    xs = exits(g, c)
    assert len(xs) == 1 and not xs[0].omega
    og = Graph(["u", "w"], [Bundle("e", "u", "u"), Bundle("a", "u", "w", OMEGA)])
    xs = exits(og, cycles(og)[0])
    assert len(xs) == 1 and xs[0].omega


def test_no_exit_cycles():
    f = corpus.build("graph_f")
    w = cycle_exit_witness(f)
    assert [e.bundle for e in w.cycle.edges] == ["a1", "a2", "a3", "a4"]
    assert w.edge == EdgeRef("f", 0)
    assert is_directly_finite(corpus.build("loop_with_tail"))
    assert is_directly_finite(corpus.line(3))
    assert not is_directly_finite(corpus.build("two_loops"))


def test_conditions_L_K():
    acyclic = corpus.line(3)
    assert condition_L(acyclic) and condition_K(acyclic)
    sl = corpus.build("single_loop")
    assert not condition_L(sl) and not condition_K(sl)
    tl = corpus.build("two_loops")
    assert condition_L(tl) and condition_K(tl)
    f = corpus.build("graph_f")
    assert not condition_L(f) and not condition_K(f)


def test_condition_K_repeated_intermediate():
    # one elementary closed path at u, but its intermediate w carries a loop,
    # so u still bases two distinct closed simple paths
    g = Graph(["u", "w"], [Bundle("a", "u", "w"), Bundle("b", "w", "u"),
                           Bundle("l", "w", "w")])
    assert condition_K(g)


@pytest.mark.parametrize("m", [3, 5])
def test_count_clock_sinks(m):
    g = corpus.clock(m)
    for i in range(1, m + 1):
        assert count_paths_ending_at(g, f"w{i}") == 2


def test_count_examples():
    f = corpus.build("graph_f")
    assert count_paths_ending_at(f, "c1") is OMEGA
    lt = corpus.build("loop_with_tail")
    assert count_paths_ending_at(lt, "v") == 2
    sl = corpus.build("single_loop")
    assert count_paths_ending_at(sl, "v") == 1
    og = corpus.build("omega_gadget")
    assert count_paths_ending_at(og, "h") is OMEGA
    assert count_paths_ending_at(og, "w") == 2


def test_count_multi_cycle_vertex_is_omega():
    assert count_paths_ending_at(corpus.build("two_loops"), "v") is OMEGA


def test_count_on_deep_line():
    # deeper than the interpreter's recursion limit
    assert count_paths_ending_at(corpus.line(3000), "u3000") == 3000


def test_count_loop_with_exit_to_sink():
    # the loop is the whole cycle, so only the trivial path counts at u
    g = Graph(["u", "s"], [Bundle("e", "u", "u"), Bundle("x", "u", "s")])
    assert count_paths_ending_at(g, "u") == 1
    assert count_paths_ending_at(g, "s") is OMEGA  # pump the loop


def test_closure():
    g = corpus.clock(3)
    assert hereditary_saturated_closure(g, []) == frozenset()
    assert hereditary_saturated_closure(g, ["w1", "w2", "w3"]) == frozenset(g.vertices)
    og = corpus.build("omega_gadget")
    assert hereditary_saturated_closure(og, ["h"]) == frozenset({"h"})


def test_all_hereditary_saturated():
    single = corpus.line(1)
    assert all_hereditary_saturated(single) == [frozenset(), frozenset({"u1"})]
    sl = corpus.build("single_loop")
    assert all_hereditary_saturated(sl) == [frozenset(), frozenset({"v"})]
    got = all_hereditary_saturated(corpus.clock(3))
    assert len(got) == 8
    # brute force over the subset lattice with the direct predicate
    import itertools
    g = corpus.clock(3)
    brute = [frozenset(c) for r in range(5)
             for c in itertools.combinations(g.vertices, r)
             if is_hereditary_saturated(g, c)]
    assert sorted(got, key=sorted) == sorted(brute, key=sorted)


def test_all_hereditary_saturated_cap():
    g = Graph([f"x{i}" for i in range(20)])
    with pytest.raises(TooLarge):
        all_hereditary_saturated(g)


def test_breaking_vertices():
    g = corpus.clock(3)
    for H in all_hereditary_saturated(g):
        assert breaking_vertices(g, H) == frozenset()
    og = corpus.build("omega_gadget")
    assert breaking_vertices(og, frozenset({"h"})) == frozenset({"v"})
    assert breaking_vertices(og, frozenset()) == frozenset()
    with pytest.raises(NotHereditarySaturated):
        breaking_vertices(og, frozenset({"v"}))


def test_quotient_identity_pair():
    for name, build in corpus.CORPUS.items():
        g = build()
        assert quotient_graph(g, AdmissiblePair(frozenset())) == g, name


def test_quotient_full_pair_empty():
    g = corpus.clock(3)
    q = quotient_graph(g, AdmissiblePair(frozenset(g.vertices)))
    assert q.vertices == () and q.bundles == ()


def test_quotient_omega_gadget():
    og = corpus.build("omega_gadget")
    q = quotient_graph(og, AdmissiblePair(frozenset({"h"}), frozenset({"v"})))
    assert q.vertices == ("v", "w")
    assert [(b.id, b.src, b.dst, b.mult) for b in q.bundles] == [("e", "v", "w", 1)]

    q = quotient_graph(og, AdmissiblePair(frozenset({"h"})))
    assert q.vertices == ("v", "v'", "w")
    assert [(b.id, b.src, b.dst) for b in q.bundles] == [("e", "v", "w")]
    assert q.is_sink("v'")  # nothing ends at v in the gadget, so v' is isolated


def test_quotient_primed_edges():
    # an omega emitter that is itself a range: its primed copy receives
    # primed duplicates of the incoming bundles
    g = Graph(["t", "u", "h", "s"],
              [Bundle("i", "t", "u"), Bundle("a", "u", "h", OMEGA),
               Bundle("e", "u", "s")])
    q = quotient_graph(g, AdmissiblePair(frozenset({"h"})))
    assert q.vertices == ("s", "t", "u", "u'")
    assert [(b.id, b.src, b.dst) for b in q.bundles] == [
        ("e", "u", "s"), ("i", "t", "u"), ("i'", "t", "u'")]


def test_quotient_rejects_bad_pair():
    og = corpus.build("omega_gadget")
    with pytest.raises(InvalidAdmissiblePair):
        quotient_graph(og, AdmissiblePair(frozenset({"v"})))
    with pytest.raises(InvalidAdmissiblePair):
        quotient_graph(og, AdmissiblePair(frozenset(), frozenset({"v"})))

