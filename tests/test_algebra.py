from fractions import Fraction

import pytest

import corpus
from leavitt import algebra
from leavitt.algebra import (
    BadMatrixUnitPaths,
    Element,
    GraphMismatch,
    MatrixUnits,
    Monomial,
    NilpotentOfIndex,
    NotAnExit,
    NotNilpotentWithin,
    POWER_EDGE_LIMIT,
    RangeMismatch,
    ResourceLimit,
    TooLarge,
    UnverifiedUnits,
    edge_element,
    element_text,
    ghost_edge_element,
    identity_element,
    jordan_element,
    matrix_units_acyclic,
    matrix_units_exit,
    matrix_units_no_exit_cycle,
    monomial,
    nilpotence_index,
    normal_form,
    power,
    special_edge,
    verify_matrix_units,
    vertex_element,
)
from conftest import fixture_path, tailed_cycle
from leavitt.graph import (
    CycleTarget,
    CycleWithExit,
    EdgeRef,
    InvalidPath,
    Path,
    SinkTarget,
    UnknownVertex,
    cycles,
)
from leavitt.graphio import load_graph
from leavitt.oracle import (
    NotABreakingVertex,
    RandomSpec,
    breaking_vertex_element,
    random_element,
    random_graph,
    verify_matrix_units_exhaustive,
)
from leavitt.structure import bounded_index_report, witness_matrix_units


def line_paths(n):
    """The n paths ending at the last vertex of Line(n)."""
    g = corpus.line(n)
    paths = [Path(f"u{n}")]
    for start in range(n - 1, 0, -1):
        edges = tuple(EdgeRef(f"e{i}") for i in range(start, n))
        paths.append(Path(f"u{start}", edges))
    return g, paths


def test_monomial_vertex_idempotent():
    g = corpus.clock(3)
    v = monomial(g, Path("v"), Path("v"))
    assert v == vertex_element(g, "v")
    assert v * v == v


def test_monomial_single_edge_projection_reduces():
    g = corpus.line(2)
    e = Path("u1", (EdgeRef("e1"),))
    assert monomial(g, e, e) == vertex_element(g, "u1")


def test_monomial_range_mismatch():
    g = corpus.clock(3)
    with pytest.raises(RangeMismatch):
        monomial(g, Path("w1"), Path("w2"))


def test_ck2_relation():
    g = corpus.clock(3)
    raw = []
    for i in (1, 2, 3):
        p = Path("v", (EdgeRef(f"e{i}"),))
        raw.append((Monomial(p, p), Fraction(1)))
    assert normal_form(g, raw) == vertex_element(g, "v")


def test_ck1_relations():
    g = corpus.clock(3)
    e1 = edge_element(g, EdgeRef("e1"))
    e2 = edge_element(g, EdgeRef("e2"))
    assert e1.involution() * e1 == vertex_element(g, "w1")
    assert (e1.involution() * e2).is_zero()


def test_normal_form_fixed_point():
    g = corpus.clock(3)
    a = edge_element(g, EdgeRef("e2"))
    assert normal_form(g, a.terms()) == a


def test_special_edge():
    g = corpus.clock(3)
    assert special_edge(g, "v") == EdgeRef("e1", 0)
    assert special_edge(g, "w1") is None
    og = corpus.build("omega_gadget")
    assert special_edge(og, "v") is None  # infinite emitter: no CK-2


@pytest.mark.parametrize("omega", [Fraction(0), Fraction(1, 4)])
def test_special_edge_table_matches_definition(omega):
    graphs = [build() for build in corpus.CORPUS.values()]
    graphs += [random_graph(RandomSpec(seed=seed, omega_probability=omega))
               for seed in range(300)]
    for g in graphs:
        for v in g.vertices:
            if g.is_regular(v):
                assert special_edge(g, v) == min(g.edges_out(v)), (g, v)
            else:
                assert special_edge(g, v) is None, (g, v)


def test_special_edge_unknown_vertex():
    with pytest.raises(UnknownVertex):
        special_edge(corpus.clock(3), "nowhere")  # before the table exists
    g = corpus.clock(3)
    special_edge(g, "v")
    with pytest.raises(UnknownVertex):
        special_edge(g, "nowhere")  # after


def test_linear_structure():
    g = corpus.clock(3)
    a = edge_element(g, EdgeRef("e1")) + 2 * vertex_element(g, "v")
    assert (a + (-a)).is_zero()
    assert a.scale(1) == a
    assert a.scale(0).is_zero()
    assert a + Element.zero(g) == a


def test_graph_mismatch():
    a = vertex_element(corpus.clock(3), "v")
    b = vertex_element(corpus.clock(5), "v")
    with pytest.raises(GraphMismatch):
        a + b
    with pytest.raises(GraphMismatch):
        a * b


def test_multiply_edge_kills_itself_on_line():
    g = corpus.line(2)
    e = edge_element(g, EdgeRef("e1"))
    assert (e * e).is_zero()


def test_projection_idempotent():
    g = corpus.clock(3)
    p = edge_element(g, EdgeRef("e2"))
    proj = p * p.involution()
    assert proj * proj == proj


def test_involution():
    g = corpus.clock(3)
    assert vertex_element(g, "v").involution() == vertex_element(g, "v")
    e = edge_element(g, EdgeRef("e1"))
    assert e.involution() == ghost_edge_element(g, EdgeRef("e1"))
    assert e.involution().involution() == e


def test_degree_components():
    g = corpus.clock(3)
    v = vertex_element(g, "v")
    assert v.degree_components() == {0: v}
    e = edge_element(g, EdgeRef("e1"))
    comps = (e + e.involution()).degree_components()
    assert set(comps) == {1, -1}
    assert comps[1] == e and comps[-1] == e.involution()
    assert Element.zero(g).degree_components() == {}


def test_degree_components_reassemble():
    g = corpus.clock(3)
    a = edge_element(g, EdgeRef("e1")) + 3 * vertex_element(g, "w2") \
        - ghost_edge_element(g, EdgeRef("e3"))
    total = Element.zero(g)
    for part in a.degree_components().values():
        total = total + part
    assert total == a


def test_nilpotence_index():
    g = corpus.line(2)
    assert nilpotence_index(edge_element(g, EdgeRef("e1")), 5) == NilpotentOfIndex(2)
    assert nilpotence_index(vertex_element(g, "u1"), 7) == NotNilpotentWithin(7)
    assert nilpotence_index(Element.zero(g), 3) == NilpotentOfIndex(1)


def test_nilpotence_resource_limit(monkeypatch):
    g = corpus.build("two_loops")
    a = edge_element(g, EdgeRef("a")) + edge_element(g, EdgeRef("b"))
    monkeypatch.setattr(algebra, "TERM_LIMIT", 8)
    verdict = nilpotence_index(a, 30)
    assert isinstance(verdict, ResourceLimit)


def test_nilpotence_resource_limit_names_the_first_power_formed(monkeypatch):
    """(a + b)^k has 2^k terms.  The probe forms a^2 and a^4 only, so with
    a budget of 5 terms it reports a^4, where one power at a time would
    report a^3."""
    g = corpus.build("two_loops")
    a = edge_element(g, EdgeRef("a")) + edge_element(g, EdgeRef("b"))
    monkeypatch.setattr(algebra, "TERM_LIMIT", 5)
    assert nilpotence_index(a, 30) == ResourceLimit(4, 16)
    assert nilpotence_index(a, 3) == ResourceLimit(3, 8)


def test_breaking_vertex_element():
    og = corpus.build("omega_gadget")
    b = breaking_vertex_element(og, frozenset({"h"}), "v")
    e = Path("v", (EdgeRef("e"),))
    assert b == vertex_element(og, "v") - monomial(og, e, e)
    assert b * b == b
    with pytest.raises(NotABreakingVertex):
        breaking_vertex_element(og, frozenset({"h"}), "w")


def test_matrix_units_acyclic():
    g = corpus.clock(3)
    units = matrix_units_acyclic(g, (Path("w1"), Path("v", (EdgeRef("e1"),))))
    assert units.n == 2
    assert verify_matrix_units(units)
    assert units.provenance == SinkTarget("w1")

    one = matrix_units_acyclic(g, (Path("w2"),))
    assert one.unit(0, 0) == vertex_element(g, "w2")
    assert verify_matrix_units(one)

    with pytest.raises(BadMatrixUnitPaths):
        matrix_units_acyclic(g, (Path("w1"), Path("w1")))
    with pytest.raises(BadMatrixUnitPaths):
        matrix_units_acyclic(g, (Path("w1"), Path("w2")))
    sl = corpus.build("single_loop")
    with pytest.raises(BadMatrixUnitPaths):
        matrix_units_acyclic(sl, (Path("v"),))
    with pytest.raises(BadMatrixUnitPaths):  # on no cycle, but not a sink
        matrix_units_acyclic(g, (Path("v"),))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_matrix_units_exit(n):
    f = corpus.build("graph_f")
    a_cycle = cycles(f)[0]
    units = matrix_units_exit(f, a_cycle, EdgeRef("f"), n)
    assert verify_matrix_units(units)
    assert units.provenance == CycleWithExit(a_cycle, EdgeRef("f"))


def test_matrix_units_exit_rejects_non_exit():
    f = corpus.build("graph_f")
    a_cycle = cycles(f)[0]
    with pytest.raises(NotAnExit):
        matrix_units_exit(f, a_cycle, EdgeRef("a1"), 2)  # the cycle's own edge
    with pytest.raises(NotAnExit):
        matrix_units_exit(f, a_cycle, EdgeRef("b1"), 2)  # not at a cycle vertex


def test_matrix_units_no_exit_cycle():
    lt = corpus.build("loop_with_tail")
    c = cycles(lt)[0]
    units = matrix_units_no_exit_cycle(lt, c, (Path("v"), Path("u", (EdgeRef("t"),))))
    assert verify_matrix_units(units)
    assert units.provenance == CycleTarget(c)

    with pytest.raises(BadMatrixUnitPaths):
        matrix_units_no_exit_cycle(
            lt, c, (Path("v"), Path("v", (EdgeRef("e"),))))  # runs through c
    f = corpus.build("graph_f")
    with pytest.raises(BadMatrixUnitPaths):
        matrix_units_no_exit_cycle(f, cycles(f)[0], (Path("g1"),))


def test_verify_rejects_duplicated_leg():
    g = corpus.clock(3)
    units = matrix_units_acyclic(g, (Path("w1"), Path("v", (EdgeRef("e1"),))))
    broken = MatrixUnits(units.graph, units.legs + units.legs[:1], units.provenance)
    assert not verify_matrix_units(broken)


def test_verify_forms_one_product(monkeypatch):
    """P* P = n w decides a family with one product, whatever its size or
    provenance; legs with two ranges give False, not an error."""
    f = corpus.build("graph_f")
    families = [witness_matrix_units(g)
                for g in (corpus.line(6), corpus.build("loop_with_tail"))]
    families.append(matrix_units_exit(f, cycles(f)[0], EdgeRef("f"), 6))
    calls = []
    mul = Element.__mul__

    def counting(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(Element, "__mul__", counting)
    for units in families:
        calls.clear()
        assert verify_matrix_units(units)
        assert len(calls) == 1, units.provenance
    g = corpus.clock(3)
    two_ranges = MatrixUnits(g, (Path("w1"), Path("w2")), SinkTarget("w1"))
    assert verify_matrix_units(two_ranges) is False
    assert verify_matrix_units_exhaustive(two_ranges) is False


@pytest.mark.parametrize("build,size", [
    (lambda: corpus.line(40), None),
    (lambda: tailed_cycle(30, 10), None),
    (lambda: corpus.build("graph_f"), 8),  # the exit family c^i f
], ids=["line40", "tailed_cycle_30_10", "graph_f_exit"])
def test_legs_are_walked_once_on_the_way_to_the_jordan_element(build, size, monkeypatch):
    """From witness_matrix_units through jordan_element, the n legs enter
    the kernel through at most 2n path walks, not four per leg."""
    g = build()
    walks = []
    path_key = algebra._path_key

    def counting(graph, p):
        walks.append(p)
        return path_key(graph, p)

    monkeypatch.setattr(algebra, "_path_key", counting)
    units = witness_matrix_units(g, size)
    assert nilpotence_index(jordan_element(units), units.n + 1) == \
        NilpotentOfIndex(units.n)
    assert units.n == (size or bounded_index_report(g).n)
    assert len(walks) <= 2 * units.n, (units.provenance, len(walks))


def test_verify_refuses_a_leg_that_is_not_a_path():
    """e1 leaves v, not w2, so the second leg is no path of clock(3), though
    it ends at w1 like the first: both checks raise InvalidPath."""
    g = corpus.clock(3)
    units = MatrixUnits(g, (Path("w1"), Path("w2", (EdgeRef("e1"),))),
                        SinkTarget("w1"))
    with pytest.raises(InvalidPath):
        verify_matrix_units(units)
    with pytest.raises(InvalidPath):
        verify_matrix_units_exhaustive(units)
    with pytest.raises(InvalidPath):
        normal_form(g, [(Monomial(Path("w1"), units.legs[1]), 1)])


def test_jordan_element_is_the_sum_of_its_units():
    f = corpus.build("graph_f")
    families = [witness_matrix_units(g)
                for g in (corpus.line(6), corpus.build("loop_with_tail"),
                          load_graph(fixture_path("omega_gadget")))]
    families.append(matrix_units_exit(f, cycles(f)[0], EdgeRef("f"), 5))
    for units in families:
        total = Element.zero(units.graph)
        for i in range(units.n - 1):
            total = total + units.unit(i, i + 1)
        assert jordan_element(units) == total, units.provenance


def test_jordan_element():
    g = corpus.clock(3)
    legs = (Path("w1"), Path("v", (EdgeRef("e1"),)))
    units = matrix_units_acyclic(g, legs)
    assert jordan_element(units) == monomial(g, legs[0], legs[1])
    assert nilpotence_index(jordan_element(units), 4) == NilpotentOfIndex(2)

    one = matrix_units_acyclic(g, (Path("w1"),))
    assert jordan_element(one).is_zero()

    g4, paths = line_paths(4)
    units4 = matrix_units_acyclic(g4, paths)
    assert nilpotence_index(jordan_element(units4), 6) == NilpotentOfIndex(4)


def test_jordan_requires_verified_units():
    g = corpus.clock(3)
    units = matrix_units_acyclic(g, (Path("w1"), Path("v", (EdgeRef("e1"),))))
    broken = MatrixUnits(units.graph, units.legs + units.legs[:1], units.provenance)
    with pytest.raises(UnverifiedUnits):
        jordan_element(broken)


def test_identity_element():
    g = corpus.clock(3)
    one = identity_element(g)
    a = edge_element(g, EdgeRef("e2")) - 2 * vertex_element(g, "w1")
    assert one * a == a and a * one == a


def test_identity_element_is_one_term_map(fixture_dir, monkeypatch):
    """On every fixture the identity is the sum of the vertex elements,
    built as one term map: each ``+`` copies the running total's terms, so
    adding the vertices one at a time costs quadratic time in |V|."""
    graphs = [load_graph(str(path)) for path in sorted(fixture_dir.glob("*.graph"))]
    sums = []
    for g in graphs:
        total = Element.zero(g)
        for v in g.vertices:
            total = total + vertex_element(g, v)
        sums.append(total)
    adds = []
    add = Element.__add__

    def counting(a, b):
        adds.append(b)
        return add(a, b)

    monkeypatch.setattr(Element, "__add__", counting)
    assert [identity_element(g) for g in graphs] == sums
    assert adds == []


def test_element_text():
    g = corpus.clock(3)
    assert element_text(Element.zero(g)) == "0"
    assert element_text(vertex_element(g, "v")) == "1 * v . v^*"
    a = edge_element(g, EdgeRef("e1")).scale(Fraction(-3, 2))
    assert element_text(a) == "-3/2 * e1 . w1^*"


def test_elements_over_omega_graphs():
    og = corpus.build("omega_gadget")
    e5 = edge_element(og, EdgeRef("a", 5))
    e7 = edge_element(og, EdgeRef("a", 7))
    assert (e5.involution() * e7).is_zero()
    assert e5.involution() * e5 == vertex_element(og, "h")
    # no CK-2 collapse at the infinite emitter
    proj = e5 * e5.involution()
    assert proj != vertex_element(og, "v")
    assert proj * proj == proj


def test_equal_graphs_give_equal_elements():
    """Two equal Graph objects number their edges alike, whatever order
    their elements are built in, so elements over them mix freely."""
    g1 = load_graph(fixture_path("omega_gadget"))
    g2 = load_graph(fixture_path("omega_gadget"))
    assert g1 == g2 and g1 is not g2

    def build(g, order):
        a = {i: edge_element(g, EdgeRef("a", i)) for i in order}
        e = edge_element(g, EdgeRef("e"))
        return a[3] + 2 * a[1].involution() + e - a[0] * a[2].involution(), a[0]

    x1, y1 = build(g1, range(4))
    x2, y2 = build(g2, reversed(range(4)))
    assert x1 == x2 and x1.terms() == x2.terms()
    assert (x1 * x2.involution()).terms() == (x1 * x1.involution()).terms()
    assert (y2.involution() * x1) == (y1.involution() * x1) == \
        -edge_element(g1, EdgeRef("a", 2)).involution()
    assert (x2 + x1).terms() == x1.scale(2).terms()
    with pytest.raises(GraphMismatch):
        x1 * vertex_element(corpus.clock(3), "v")


def test_coefficient_of_absent_monomials_is_zero():
    og = corpus.build("omega_gadget")
    x = edge_element(og, EdgeRef("a", 3)).scale(Fraction(5, 2))
    a3 = Monomial(Path("v", (EdgeRef("a", 3),)), Path("h"))
    assert x.coefficient(a3) == Fraction(5, 2)
    for m in (Monomial(Path("v", (EdgeRef("a", 9),)), Path("h")),  # index never used
              Monomial(Path("h"), Path("h")),
              Monomial(Path("v", (EdgeRef("nope"),)), Path("h"))):
        assert x.coefficient(m) == 0 and type(x.coefficient(m)) is Fraction


def test_integral_coefficients_stay_int():
    g = corpus.clock(3)
    a = edge_element(g, EdgeRef("e1")) * 3 - vertex_element(g, "v")
    assert all(type(k) is int for k in (a * a.involution())._terms.values())
    half = a.scale(Fraction(1, 2))
    assert half.scale(2) == a and element_text(half.scale(2)) == element_text(a)


@pytest.mark.parametrize("omega", [Fraction(0), Fraction(1, 4)])
def test_power_matches_repeated_products(omega):
    for seed in range(60):
        g = random_graph(RandomSpec(seed=seed, omega_probability=omega))
        a = random_element(g, RandomSpec(seed=5_000 + seed))
        a = a + a.involution()
        expected = a
        for k in range(1, 8):
            assert power(a, k) == expected, (seed, k)
            expected = expected * a


@pytest.mark.parametrize("omega", [Fraction(0), Fraction(1, 4)])
def test_power_keys_hold_at_most_k_times_the_widest_key(omega):
    """Why the edge guard may skip its sum: every key of a^k holds at most
    k * w edges, w the most edges of a key of a, so a^k holds at most
    len(a^k) * k * w edges."""
    widest = 0
    for seed in range(60):
        g = random_graph(RandomSpec(seed=seed, omega_probability=omega))
        a = random_element(g, RandomSpec(seed=7_000 + seed))
        a = a * a.involution() + a
        w = algebra._width(a._terms)
        x = a
        for k in range(1, 6):
            edges = [len(pe) + len(qe) for _, pe, _, qe in x._terms]
            assert max(edges, default=0) <= k * w, (seed, k)
            widest = max(widest, max(edges, default=0))
            x = x * a
    assert widest > 6  # the sample has keys long enough to matter


def test_power_stops_at_zero_and_bounds_size():
    g = corpus.line(3)
    e1 = edge_element(g, EdgeRef("e1"))
    assert power(e1, 10 ** 8).is_zero()
    u1 = vertex_element(g, "u1")
    assert power(u1, 200_000) == u1
    loop = edge_element(corpus.build("single_loop"), EdgeRef("e"))
    assert power(loop, 5).terms()[0][0].p.edges == (EdgeRef("e"),) * 5
    with pytest.raises(TooLarge):
        power(loop, 2 * POWER_EDGE_LIMIT)


def _power_lsb_first(a, k):
    """power as it was before it shared the probe's squaring ladder: the
    bits of k from the lowest, stopping at the first zero square or
    partial product; TooLarge is returned, not raised."""
    def guarded(z):
        edges = sum(len(pe) + len(qe) for _, pe, _, qe in z._terms)
        if edges > algebra.POWER_EDGE_LIMIT:
            raise TooLarge
        return z

    x, out = a, None
    try:
        while True:
            if k & 1:
                out = x if out is None else guarded(out * x)
                if out.is_zero():
                    return out
            k >>= 1
            if not k:
                return out
            x = guarded(x * x)
            if x.is_zero():
                return x
    except TooLarge:
        return TooLarge


def test_power_matches_the_lsb_first_power(monkeypatch):
    """The ladder's power returns the element the LSB-first loop did, and
    raises TooLarge exactly where that loop did, under edge limits from 0
    up, on sampled elements of every fixture and of seeded random graphs."""
    elements = [random_element(corpus.CORPUS[name](), RandomSpec(seed=seed))
                for name in sorted(corpus.CORPUS) for seed in range(8)]
    elements += [random_element(random_graph(RandomSpec(
        seed=seed, omega_probability=omega)), RandomSpec(seed=11_000 + seed))
        for omega in (Fraction(0), Fraction(1, 4)) for seed in range(100)]
    refused = 0
    for limit in (0, 1, 2, 3, 5, 8, 13, 20, 40, 80, 10 ** 6):
        monkeypatch.setattr(algebra, "POWER_EDGE_LIMIT", limit)
        for i, a in enumerate(elements):
            for k in range(1, 13):
                expected = _power_lsb_first(a, k)
                if expected is TooLarge:
                    refused += 1
                    with pytest.raises(TooLarge):
                        power(a, k)
                else:
                    assert power(a, k) == expected, (limit, i, k)
    assert refused  # the low limits refuse some powers
