"""Acceptance suite: one test per criterion, all checks exact (zero
tolerance).  Run with `pytest tests/test_acceptance.py -v` for one
pass/fail line per criterion."""

from fractions import Fraction

import pytest

import corpus
from leavitt import oracle
from leavitt.algebra import (
    NilpotentOfIndex,
    jordan_element,
    matrix_units_exit,
    nilpotence_index,
    verify_matrix_units,
)
from leavitt.graph import (
    OMEGA,
    AdmissiblePair,
    EdgeRef,
    TooLarge,
    breaking_vertices,
    count_paths_ending_at,
    cycles,
    quotient_graph,
)
from leavitt.oracle import (
    RandomSpec,
    acyclic_dimension,
    basis_monomials,
    classify_quotient,
    cross_check_index,
    enumerate_paths_ending_at,
    exits,
    normal_form_reference,
    random_graph,
    random_raw_terms,
)
from leavitt.structure import (
    BASE_K,
    BASE_LAURENT,
    Bounded,
    CycleWithExit,
    Factor,
    OmegaPathFamily,
    PreconditionUnbounded,
    Unbounded,
    bounded_index_report,
    decompose,
    is_PI,
    is_directly_finite,
    witness_matrix_units,
)


@pytest.fixture(scope="module")
def random_suite():
    """The 200 seeded omega-free graphs shared by criteria 7 and 8."""
    return [random_graph(RandomSpec(seed=seed)) for seed in range(200)]


def _passed(k, msg):
    print(f"ACCEPTANCE {k} PASS: {msg}")


def test_criterion_01_clock5(capsys):
    g = corpus.clock(5)
    report = bounded_index_report(g)
    assert isinstance(report, Bounded) and report.n == 2
    d = decompose(g)
    assert d.factors == (Factor(2, BASE_K),) * 5
    dim = acyclic_dimension(d)
    assert dim == 20
    assert len(basis_monomials(g, 2 * len(g.vertices))) == dim
    units = witness_matrix_units(g)
    assert verify_matrix_units(units)
    assert nilpotence_index(jordan_element(units), 3) == NilpotentOfIndex(2)
    with capsys.disabled():
        _passed(1, "clock5: n=2, five M_2(K) factors, dimension 20, witness index 2")


def test_criterion_02_graph_f(capsys):
    f = corpus.build("graph_f")
    report = bounded_index_report(f)
    assert isinstance(report, Unbounded)
    assert isinstance(report.reason, CycleWithExit)
    assert [e.bundle for e in report.reason.cycle.edges] == ["a1", "a2", "a3", "a4"]
    assert report.reason.edge == EdgeRef("f")
    for n in (2, 3, 4):
        units = matrix_units_exit(f, report.reason.cycle, report.reason.edge, n)
        assert verify_matrix_units(units), n
    assert not is_PI(f)
    assert not is_directly_finite(f)
    with capsys.disabled():
        _passed(2, "graph F: unbounded via (a-cycle, f); exit units verify for n=2,3,4")


@pytest.mark.parametrize("n", range(1, 7))
def test_criterion_03_lines(n, capsys):
    g = corpus.line(n)
    d = decompose(g)
    assert d.factors == (Factor(n, BASE_K),)
    units = witness_matrix_units(g)
    assert nilpotence_index(jordan_element(units), n + 1) == NilpotentOfIndex(n)
    assert len(basis_monomials(g, 2 * n)) == n * n == acyclic_dimension(d)
    with capsys.disabled():
        _passed(3, f"line{n}: M_{n}(K), witness index {n}, dimension {n * n}")


def test_criterion_04_loop_with_tail(capsys):
    g = corpus.build("loop_with_tail")
    report = bounded_index_report(g)
    assert isinstance(report, Bounded) and report.n == 2
    assert decompose(g).factors == (Factor(2, BASE_LAURENT),)
    (c,) = cycles(g)
    assert exits(g, c) == []
    with capsys.disabled():
        _passed(4, "loop-with-tail: n=2, M_2(K[x,x^-1]), cycle exitless")


def test_criterion_05_inverse_clock(capsys):
    g = corpus.inverse_clock(3)
    assert decompose(g).factors == (Factor(4, BASE_K),)
    report = bounded_index_report(g)
    assert report.n == 4
    with capsys.disabled():
        _passed(5, "inverse_clock3: M_4(K), index exactly 4")


def test_criterion_06_omega_gadget(capsys):
    g = corpus.build("omega_gadget")
    assert is_directly_finite(g)
    report = bounded_index_report(g)
    assert isinstance(report, Unbounded)
    assert isinstance(report.reason, OmegaPathFamily)
    assert breaking_vertices(g, frozenset({"h"})) == frozenset({"v"})

    q_keep = quotient_graph(g, AdmissiblePair(frozenset({"h"})))
    assert "v'" in q_keep.vertices and q_keep.is_sink("v'")
    assert not q_keep.into[q_keep.vindex["v'"]]

    q = quotient_graph(g, AdmissiblePair(frozenset({"h"}), frozenset({"v"})))
    # the ambient graph is unbounded, so the quotient is classified as a
    # graph in its own right: one sink w with two paths ending there
    assert classify_quotient(quotient_graph(q, AdmissiblePair(frozenset()))) == \
        Factor(2, BASE_K)
    assert count_paths_ending_at(q, "w") == 2
    with capsys.disabled():
        _passed(6, "omega gadget: directly finite yet unbounded; quotients as derived")


def test_criterion_07_equivalence_suite(random_suite, capsys):
    from leavitt.structure import NotRowFinite
    graphs = [build() for build in corpus.CORPUS.values()] + random_suite
    omega_free = 0
    for i, g in enumerate(graphs):
        bounded = isinstance(bounded_index_report(g), Bounded)
        assert is_PI(g) == bounded, i
        try:
            decompose(g)
            decomposed = True
        except (PreconditionUnbounded, NotRowFinite):
            decomposed = False
        if all(isinstance(b.mult, int) for b in g.bundles):
            # the four predicates coincide on omega-free graphs; with an
            # omega bundle present, no-exit may hold strictly (criterion 6)
            assert bounded == is_directly_finite(g) == decomposed, i
            omega_free += 1
        else:
            assert not decomposed, i
    assert omega_free >= 200 + len(corpus.CORPUS) - 1
    with capsys.disabled():
        _passed(7, f"equivalence of PI/bounded/decompose/no-exit on "
                   f"{omega_free} omega-free graphs (corpus + 200 random)")


def test_criterion_08_oracle_agreement(random_suite, capsys, monkeypatch):
    # a finite count is the exact number of paths; an omega count means the
    # paths do not stop short of |V| + 1 edges (no finite family reaches
    # that length without running round v's cycle in full)
    omega_suite = [random_graph(RandomSpec(seed=seed, omega_probability=Fraction(1, 4)))
                   for seed in range(100)]
    checked = unbounded = 0
    for i, g in enumerate(random_suite + omega_suite):
        for v in g.vertices:
            cnt = count_paths_ending_at(g, v)
            if cnt is not OMEGA:
                cap = len(g.vertices) * (cnt + 1)
                assert len(enumerate_paths_ending_at(g, v, cap)) == cnt, (i, v)
                checked += 1
                continue
            try:
                with monkeypatch.context() as m:
                    m.setattr(oracle, "PATH_LIMIT", 500)
                    paths = enumerate_paths_ending_at(g, v, len(g.vertices) + 1)
            except TooLarge:
                continue
            assert len(paths[-1].edges) == len(g.vertices) + 1, (i, v)
            unbounded += 1
    with capsys.disabled():
        _passed(8, f"DP equals brute-force enumeration at {checked} vertices; "
                   f"{unbounded} omega counts grow past |V| edges")


def test_criterion_09_algebra_properties(capsys):
    from leavitt.algebra import normal_form
    from leavitt.oracle import random_element
    total = 0
    for name in sorted(corpus.CORPUS):
        g = corpus.build(name)
        for i in range(100):
            raw = random_raw_terms(g, RandomSpec(seed=91_000 + i))
            assert normal_form(g, raw).terms() == \
                normal_form_reference(g, raw, strategy="random", seed=i + 1), (name, i)
            a = random_element(g, RandomSpec(seed=3 * i))
            b = random_element(g, RandomSpec(seed=3 * i + 1))
            c = random_element(g, RandomSpec(seed=3 * i + 2))
            assert (a * b) * c == a * (b * c), (name, i)
            assert a * (b + c) == a * b + a * c, (name, i)
            assert (a * b).involution() == b.involution() * a.involution(), (name, i)
            for m, x in a.degree_components().items():
                for n, y in b.degree_components().items():
                    assert set((x * y).degree_components()) <= {m + n}, (name, i)
            total += 1
    with capsys.disabled():
        _passed(9, f"confluence + ring laws + grading on {total} random draws")


def test_criterion_10_sampling_soundness(capsys):
    for name, trials in (("clock5", 500), ("line4", 500)):
        g = corpus.build(name)
        rep = cross_check_index(g, trials=trials, seed=2026)
        assert rep.violations == (), name
        n = bounded_index_report(g).n
        assert rep.witness_index == n, name
        assert rep.empirical_max_index <= n, name
    with capsys.disabled():
        _passed(10, "500-trial sampling on clock5 and line4: no nilpotent exceeds n")
