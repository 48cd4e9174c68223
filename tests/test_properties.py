"""Law and invariant suites: graph-operation properties over random
inputs, and the exact algebra laws (confluence, associativity,
distributivity, involution, grading) over seeded random elements of every
corpus graph."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import corpus
from leavitt.algebra import Element, normal_form, special_edge
from leavitt.graph import (
    CycleThroughOmegaBundle,
    Graph,
    _components,
    breaking_vertices,
    cycles,
    condition_K,
    condition_L,
    cycle_exit_witness,
    downward_directed,
    hereditary_saturated_closure,
    is_hereditary_saturated,
    vertices_on_cycles,
)
from leavitt.oracle import (
    RandomSpec,
    closed_simple_path_counts,
    exits,
    hereditary_saturated_closure_exhaustive,
    normal_form_reference,
    random_element,
    random_graph,
    random_raw_terms,
)
from leavitt.structure import is_directly_finite

CORPUS_NAMES = sorted(corpus.CORPUS)

seeds = st.integers(min_value=0, max_value=10 ** 6)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, data=st.data())
def test_closure_idempotent_and_monotone(seed, data):
    g = random_graph(RandomSpec(seed=seed, omega_probability=Fraction(1, 8)))
    X = data.draw(st.sets(st.sampled_from(g.vertices)))
    Y = X | data.draw(st.sets(st.sampled_from(g.vertices)))
    cX = hereditary_saturated_closure(g, X)
    assert hereditary_saturated_closure(g, cX) == cX
    assert cX <= hereditary_saturated_closure(g, Y)
    assert is_hereditary_saturated(g, cX)


@pytest.mark.parametrize("omega", [Fraction(0), Fraction(1, 4)])
@settings(max_examples=80, deadline=None)
@given(seed=seeds, data=st.data())
def test_closure_matches_intersection_of_supersets(omega, seed, data):
    g = random_graph(RandomSpec(seed=seed, omega_probability=omega))
    X = data.draw(st.sets(st.sampled_from(g.vertices)))
    assert hereditary_saturated_closure(g, X) == \
        hereditary_saturated_closure_exhaustive(g, X)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, data=st.data())
def test_breaking_vertices_disjoint_from_H_and_regulars(seed, data):
    g = random_graph(RandomSpec(seed=seed, omega_probability=Fraction(1, 4)))
    X = data.draw(st.sets(st.sampled_from(g.vertices)))
    H = hereditary_saturated_closure(g, X)
    B = breaking_vertices(g, H)
    assert not (B & H)
    assert all(not g.is_regular(w) and not g.is_sink(w) for w in B)


@settings(max_examples=60, deadline=None)
@given(seed=seeds)
def test_no_exit_shortcut_agrees_with_direct_search(seed):
    g = random_graph(RandomSpec(seed=seed, omega_probability=Fraction(1, 8)))
    try:
        direct = all(not exits(g, c) for c in cycles(g))
    except CycleThroughOmegaBundle:
        # an omega bundle on a closed walk forces an exit at its source
        direct = False
    assert is_directly_finite(g) == direct


@settings(max_examples=60, deadline=None)
@given(seed=seeds)
def test_exit_witness_is_genuine(seed):
    g = random_graph(RandomSpec(seed=seed))
    w = cycle_exit_witness(g)
    if w is None:
        return
    from leavitt.graph import cycle_vertices
    assert g.src(w.edge) in cycle_vertices(g, w.cycle)
    assert w.edge not in w.cycle.edges


@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_cycles_canonical_on_random_graphs(seed):
    g = random_graph(RandomSpec(seed=seed))
    rev = Graph(g.vertices, list(reversed(g.bundles)))
    try:
        cs = cycles(g)
    except CycleThroughOmegaBundle:
        return
    assert cs == cycles(rev)
    assert len(set(cs)) == len(cs)
    for c in cs:
        srcs = [g.src(e) for e in c.edges]
        assert srcs[0] == min(srcs)


# -- component-pass predicates against independent references -----------------

omega_rates = pytest.mark.parametrize("omega", [Fraction(0), Fraction(1, 4)])


@omega_rates
@settings(max_examples=80, deadline=None)
@given(seed=seeds)
def test_cycle_predicates_match_closed_path_counts(omega, seed):
    g = random_graph(RandomSpec(seed=seed, omega_probability=omega))
    counts = closed_simple_path_counts(g)
    assert vertices_on_cycles(g) == {v for v, n in counts.items() if n >= 1}
    assert condition_K(g) == (1 not in counts.values())


@omega_rates
@settings(max_examples=80, deadline=None)
@given(seed=seeds)
def test_loops_and_tangles_match_closed_path_counts(omega, seed):
    """Each vertex of a loop of the component table (members are vertex
    ints) bases one closed simple path, and each vertex of a tangle more
    than one."""
    g = random_graph(RandomSpec(seed=seed, omega_probability=omega))
    counts = closed_simple_path_counts(g)
    s = _components(g)
    assert all(counts[g.vertices[v]] == 1 for i in s.loops for v in s.members[i])
    assert all(counts[g.vertices[v]] > 1 for i in s.tangles for v in s.members[i])


@omega_rates
@settings(max_examples=80, deadline=None)
@given(seed=seeds)
def test_condition_L_matches_cycle_exits(omega, seed):
    g = random_graph(RandomSpec(seed=seed, omega_probability=omega))
    try:
        direct = all(exits(g, c) for c in cycles(g))
    except CycleThroughOmegaBundle:
        return
    assert condition_L(g) == direct


def _reach(g, v):
    seen, todo = {v}, [v]
    while todo:
        for w in [g.vertices[g.dsts[j]] for j in g.out[g.vindex[todo.pop()]]]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


@omega_rates
@settings(max_examples=80, deadline=None)
@given(seed=seeds)
def test_downward_directed_matches_pairwise_check(omega, seed):
    g = random_graph(RandomSpec(seed=seed, omega_probability=omega))
    reach = {v: _reach(g, v) for v in g.vertices}
    pairwise = all(reach[u] & reach[v] for u in g.vertices for v in g.vertices)
    assert downward_directed(g) == pairwise


# -- algebra laws -----------------------------------------------------------------

def elements_for(name, count, seed_base):
    g = corpus.build(name)
    return g, [random_element(g, RandomSpec(seed=seed_base + i))
               for i in range(count)]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_confluence_two_strategies(name):
    g = corpus.build(name)
    for i in range(100):
        raw = random_raw_terms(g, RandomSpec(seed=31_000 + i))
        rand = normal_form_reference(g, raw, strategy="random", seed=17 * i + 1)
        assert normal_form(g, raw).terms() == rand, (name, i)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_normal_form_has_no_reducible_monomials(name):
    g = corpus.build(name)
    for i in range(25):
        a = random_element(g, RandomSpec(seed=47_000 + i))
        for m, _ in a.terms():
            if m.p.edges and m.q.edges and m.p.edges[-1] == m.q.edges[-1]:
                assert special_edge(g, g.src(m.p.edges[-1])) != m.p.edges[-1]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_associativity_and_distributivity(name):
    g = corpus.build(name)
    for i in range(100):
        a = random_element(g, RandomSpec(seed=3 * i))
        b = random_element(g, RandomSpec(seed=3 * i + 1))
        c = random_element(g, RandomSpec(seed=3 * i + 2))
        assert (a * b) * c == a * (b * c), (name, i)
        assert a * (b + c) == a * b + a * c, (name, i)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_involution_laws(name):
    g = corpus.build(name)
    for i in range(100):
        a = random_element(g, RandomSpec(seed=5 * i))
        b = random_element(g, RandomSpec(seed=5 * i + 3))
        assert (a * b).involution() == b.involution() * a.involution(), (name, i)
        assert a.involution().involution() == a
        assert (a + b).involution() == a.involution() + b.involution()


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_grading_multiplicativity(name):
    g = corpus.build(name)
    for i in range(40):
        a = random_element(g, RandomSpec(seed=7 * i))
        b = random_element(g, RandomSpec(seed=7 * i + 2))
        for m, x in a.degree_components().items():
            for n, y in b.degree_components().items():
                prod = x * y
                comps = prod.degree_components()
                assert set(comps) <= {m + n}, (name, i, m, n)
        total = Element.zero(g)
        for part in a.degree_components().values():
            total = total + part
        assert total == a


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_ck_soundness(name):
    from leavitt.algebra import Monomial, vertex_element
    from leavitt.graph import Path
    g = corpus.build(name)
    for v in g.vertices:
        if not g.is_regular(v):
            continue
        raw = []
        for e in g.edges_out(v):
            p = Path(v, (e,))
            raw.append((Monomial(p, p), Fraction(1)))
        assert normal_form(g, raw) == vertex_element(g, v), (name, v)
    from leavitt.algebra import edge_element
    from leavitt.graph import OMEGA, EdgeRef
    edges = []
    for b in g.bundles:
        top = 2 if b.mult is OMEGA else min(b.mult, 2)
        edges.extend(EdgeRef(b.id, i) for i in range(top))
    for e in edges:
        ee = edge_element(g, e)
        assert ee.involution() * ee == vertex_element(g, g.dst(e)), (name, e)
        for f in edges:
            if f != e:
                assert (ee.involution() * edge_element(g, f)).is_zero(), (name, e, f)
