import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import corpus
from conftest import fixture_path, tailed_cycle
from leavitt import algebra, cli, oracle, structure
from leavitt.cli import _json_chunks, main
from leavitt.graph import (
    OMEGA,
    Bundle,
    Cycle,
    CycleTarget,
    EdgeRef,
    Graph,
    LeavittError,
    Path,
    SinkTarget,
)
from leavitt.graphio import (
    GraphFormatError,
    GraphSyntaxError,
    GraphValidationError,
    canonical_document,
    load_graph,
    parse_graph_document,
)
from leavitt.structure import PathTree, TargetCount


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- document format ---------------------------------------------------------

def test_parse_clock3_fixture():
    with open(fixture_path("clock3")) as fh:
        g = parse_graph_document(fh.read())
    assert len(g.vertices) == 4 and len(g.bundles) == 3


def test_parse_omega_mult():
    g = parse_graph_document(
        '{"vertices": ["u", "w"],'
        ' "edges": [{"id": "a", "src": "u", "dst": "w", "mult": "omega"}]}')
    assert g.bundle("a").mult is OMEGA


def test_parse_defaults_mult_to_one():
    g = parse_graph_document(
        '{"vertices": ["u"], "edges": [{"id": "a", "src": "u", "dst": "u"}]}')
    assert g.bundle("a").mult == 1


def test_parse_unknown_dst_is_validation_error():
    with pytest.raises(GraphValidationError) as err:
        parse_graph_document(
            '{"vertices": ["u"],'
            ' "edges": [{"id": "a", "src": "u", "dst": "zz"}]}')
    assert "'a'" in str(err.value)


def test_parse_syntax_error_has_position():
    with pytest.raises(GraphSyntaxError) as err:
        parse_graph_document('{"vertices": [,]}')
    assert "line 1" in str(err.value)


def test_parse_schema_errors():
    with pytest.raises(GraphFormatError):
        parse_graph_document('[1, 2]')
    with pytest.raises(GraphFormatError):
        parse_graph_document('{"vertices": "v"}')
    with pytest.raises(GraphFormatError):
        parse_graph_document(
            '{"vertices": ["u"], "edges": [{"id": "a", "src": "u",'
            ' "dst": "u", "mult": 0}]}')


def test_round_trip_all_fixtures():
    for name, build in corpus.CORPUS.items():
        g = build()
        doc = canonical_document(g)
        assert parse_graph_document(doc) == g, name
        with open(fixture_path(name)) as fh:
            assert fh.read() == doc, name  # shipped fixtures stay in sync


# -- commands ------------------------------------------------------------------

def test_index_text(capsys):
    code, out, _ = run(capsys, "index", fixture_path("clock5"))
    assert code == 0
    assert out.splitlines()[0] == "Bounded n=2"

    code, out, _ = run(capsys, "index", fixture_path("graph_f"))
    assert code == 0
    assert out.startswith("Unbounded: cycle a1.a2.a3.a4 has exit f")


@pytest.mark.parametrize("command", ["index", "analyze", "decompose", "ideals"])
def test_json_builds_no_text_lines(command, capsys, monkeypatch):
    """These commands print no cycle, edge or factor text under --format
    json, so they format none: such a text fails here if it is built."""
    def refuse(*args):
        raise AssertionError("text built for JSON output")

    monkeypatch.setattr(cli, "_cycle_text", refuse)
    monkeypatch.setattr(cli, "_factor_text", refuse)
    monkeypatch.setattr(algebra, "edge_text", refuse)
    for name in ("loop_with_tail", "graph_f", "clock5", "omega_gadget"):
        code, out, _ = run(capsys, command, fixture_path(name), "--format", "json")
        assert code == 0 and json.loads(out)["command"] == command, name


def test_decompose_text(capsys):
    code, out, _ = run(capsys, "decompose", fixture_path("line4"))
    assert code == 0 and out.strip() == "M_4(K)"
    code, out, _ = run(capsys, "decompose", fixture_path("clock5"))
    assert out.strip() == "M_2(K) x5"
    code, out, _ = run(capsys, "decompose", fixture_path("loop_with_tail"))
    assert out.strip() == "M_2(K[x,x^-1])"
    code, out, _ = run(capsys, "decompose", fixture_path("omega_gadget"))
    assert code == 0 and "Not row-finite" in out
    code, out, _ = run(capsys, "decompose", fixture_path("graph_f"))
    assert code == 0 and out.startswith("Unbounded")


def test_analyze_json(capsys):
    code, out, _ = run(capsys, "analyze", fixture_path("graph_f"),
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["no_exit_cycles"] is False
    assert doc["condition_L"] is False and doc["condition_K"] is False
    assert doc["downward_directed"] is True
    assert len(doc["cycles"]) == 2


def test_analyze_omega_cycle_marker(capsys, tmp_path):
    doc_text = ('{"vertices": ["u", "w"], "edges": ['
                '{"id": "a", "src": "u", "dst": "w", "mult": "omega"},'
                '{"id": "r", "src": "w", "dst": "u", "mult": 1}]}')
    path = tmp_path / "omega_cycle.graph"
    path.write_text(doc_text)
    code, out, _ = run(capsys, "analyze", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["cycles"]["error"] == "cycle_through_omega_bundle"
    assert doc["no_exit_cycles"] is False


def test_ideals(capsys):
    code, out, _ = run(capsys, "ideals", fixture_path("clock3"))
    assert code == 0
    assert all("M_" in line for line in out.strip().splitlines())
    code, out, _ = run(capsys, "ideals", fixture_path("graph_f"))
    assert code == 0 and out.startswith("Unbounded")


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", fixture_path("clock3"), "e1* e1")
    assert code == 0
    assert out.splitlines()[0] == "1 * w1 . w1^*"

    code, out, _ = run(capsys, "eval", fixture_path("line2"), "e1",
                       "--format", "json")
    doc = json.loads(out)
    assert doc["nilpotence"] == {"kind": "nilpotent", "index": 2}


def test_eval_bad_expr_exit_code(capsys):
    code, _, err = run(capsys, "eval", fixture_path("clock3"), "e1 +")
    assert code == 1 and "error" in err


def test_witness(capsys):
    code, out, _ = run(capsys, "witness", fixture_path("clock5"))
    assert code == 0
    assert "verified: True" in out and "index: 2" in out

    code, out, _ = run(capsys, "witness", fixture_path("graph_f"),
                       "--size", "4", "--format", "json")
    doc = json.loads(out)
    assert doc["n"] == 4 and doc["verified"] and doc["jordan_index"] == 4
    assert doc["provenance"]["kind"] == "cycle_exit_powers"


def test_witness_refuses_exit_units_over_the_edge_limit(capsys, monkeypatch):
    """Exit units c^i f whose legs would hold more than POWER_EDGE_LIMIT
    edges exit 2 before any leg is built or verified.  On graph_f (a
    4-cycle) n legs hold 2 n^2 + 3 n edges: 706 legs are built, 707 are
    refused."""
    reason = structure.bounded_index_report(corpus.build("graph_f")).reason
    units = algebra.matrix_units_exit(corpus.build("graph_f"), reason.cycle, reason.edge, 706)
    assert sum(len(p.edges) for p in units.legs) == 2 * 706 ** 2 + 3 * 706 <= 10 ** 6
    with pytest.raises(algebra.TooLarge, match="1001819 edges"):
        algebra.matrix_units_exit(corpus.build("graph_f"), reason.cycle, reason.edge, 707)

    def unreachable(*args):
        raise AssertionError("units were verified")

    monkeypatch.setattr(algebra, "verify_matrix_units", unreachable)
    for size in ("707", "2000", str(10 ** 9)):
        code, out, err = run(capsys, "witness", fixture_path("graph_f"), "--size", size)
        assert code == 2 and out == "", size
        assert err.startswith("resource limit: the legs c^i f hold"), size


def _witness_bytes(capsys, graph: str, sizes, formats=("text", "json")) -> str:
    """The sha256 of witness's exit code and stdout at each size and format."""
    h = hashlib.sha256()
    for n in sizes:
        for fmt in formats:
            code, out, _ = run(capsys, "witness", graph, "--size", str(n), "--format", fmt)
            h.update(f"{code}\n{out}".encode())
    return h.hexdigest()


def test_witness_refuses_omega_families_too_large_to_verify(capsys, monkeypatch):
    """An omega family of n legs, whose P* P contracts n^2 pairs of legs,
    exits 2 before any leg is built when n^2 exceeds POWER_EDGE_LIMIT; the
    bench's sizes 6-14 print the bytes they printed before the guard."""
    def unreachable(*args):
        raise AssertionError("a leg was built")

    with monkeypatch.context() as m:
        m.setattr(structure, "_shortest_path", unreachable)
        for size in ("1001", "100000"):
            code, out, err = run(capsys, "witness", fixture_path("omega_gadget"),
                                 "--size", size)
            assert code == 2 and out == "", size
            assert err.startswith(f"resource limit: {size} legs make "), size
    assert _witness_bytes(capsys, fixture_path("omega_gadget"), range(6, 15)) == \
        "f5e85a9fc36f83ab4384a9c8c11784ff2b90ddea93e2f2c37a11fbd7a8bc1d4b"
    monkeypatch.setattr(algebra, "POWER_EDGE_LIMIT", 36)
    assert run(capsys, "witness", fixture_path("omega_gadget"), "--size", "6")[0] == 0
    assert run(capsys, "witness", fixture_path("omega_gadget"), "--size", "7")[0] == 2


def _probe_refuses_exit_units(g, n) -> bool:
    """Whether building, verifying and probing n exit units meets TooLarge."""
    reason = structure.bounded_index_report(g).reason
    try:
        units = algebra.matrix_units_exit(g, reason.cycle, reason.edge, n)
        algebra.nilpotence_index(algebra.jordan_element(units), n + 1)
    except algebra.TooLarge:
        return True
    return False


def test_witness_refuses_exit_units_by_their_jordan_square(capsys, monkeypatch, tmp_path):
    """With POWER_EDGE_LIMIT at 400, witness on exit units exits 2 at the
    sizes 1-24 where building and probing the units meets TooLarge, and
    at no other, on graph_f and on random graphs whose exit is (seeds 1, 3
    and 11) or is not (0 and 39) its source's special edge.  When it is
    not, the refusal comes before verification.  Every size that exits 0
    prints the bytes it printed before the up-front refusal."""
    graphs = {fixture_path("graph_f"): load_graph(fixture_path("graph_f"))}
    for s in (0, 1, 3, 11, 39):
        g = oracle.random_graph(oracle.RandomSpec(seed=s, max_mult=3))
        doc = tmp_path / f"random{s}.graph"
        doc.write_text(canonical_document(g))
        graphs[str(doc)] = g
    monkeypatch.setattr(algebra, "POWER_EDGE_LIMIT", 400)
    verify, verified = algebra.verify_matrix_units, []

    def counting(units):
        verified.append(units.n)
        return verify(units)

    early = 0
    for path, g in graphs.items():
        reason = structure.bounded_index_report(g).reason
        special = algebra.special_edge(g, g.src(reason.edge)) == reason.edge
        for n in range(1, 25):
            refused = _probe_refuses_exit_units(g, n)
            with monkeypatch.context() as m:
                m.setattr(algebra, "verify_matrix_units", counting)
                verified.clear()
                code, out, err = run(capsys, "witness", path, "--size", str(n))
            assert code == (2 if refused else 0), (path, n)
            if refused and not special:
                assert verified == [] and out == "", (path, n)
                early += err.startswith("resource limit: the square of the Jordan")
    assert early >= 10  # the rest met the legs guard first
    assert [_witness_bytes(capsys, path, range(1, 25)) for path in graphs] == \
        EXIT_WITNESS_SHA256


# _witness_bytes on graph_f and on random graphs 0, 1, 3, 11 and 39 at
# sizes 1-24 with POWER_EDGE_LIMIT at 400, before the up-front refusal
EXIT_WITNESS_SHA256 = [
    "16a987863c2dd1b5c1cc8dd41eaf412c78e1d363c98c24d9d326dc1d8035f424",
    "09bea881160d4d86277783c382aa2861d6d33bab026f7a4feb9bddda28889133",
    "5e226fb79878963af54ec5c3610483b04b0b3b24438b0dc5d9c48b5bd9a627b5",
    "c23f08223a0b4f8bbd5835bb8ad6c3be03ac4f7327e417bac21a0db02b07863d",
    "f556dd5a997c85af816af62947cc7be2794b60f777a7a16ee11b762785d41b77",
    "6ad73c535177dc0ff672f6be12aaca13ffbf6db63670ff3da95a91500b73fbcb",
]


@pytest.mark.parametrize("size", ["0", "-1"])
@pytest.mark.parametrize("fixture", ["line4", "graph_f", "omega_gadget"])
def test_witness_rejects_size_below_one(fixture, size, capsys):
    code, out, err = run(capsys, "witness", fixture_path(fixture), "--size", size)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_eval_rejects_nilpotence_max_below_one(capsys):
    code, out, err = run(capsys, "eval", fixture_path("line4"), "e1",
                         "--nilpotence-max", "0")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


_DIGITS = "9" * 5000  # past the interpreter's 4300-digit int conversion limit
_MALFORMED = {
    "not-utf8": ("analyze", b"\xff\xfe{}", None),
    "long-mult": ("analyze", ('{"vertices": ["u", "v"], "edges": [{"id": "a", '
                              f'"src": "u", "dst": "v", "mult": {_DIGITS}}}]}}'), None),
    "long-exponent": ("eval", None, f"u1^{_DIGITS}"),
    "long-scalar": ("eval", None, f"{_DIGITS} u1"),
    "long-index": ("eval", None, f"e1[{_DIGITS}]"),
    "nested-brackets": ("analyze", "[" * 100_000, None),
    "unknown-ident": ("eval", None, "zz"),
    "duplicate-vertex": ("analyze", '{"vertices": ["u", "u"], "edges": []}', None),
    "zero-denominator": ("eval", None, "1/0"),
    "zero-denominator-in-sum": ("eval", None, "e1 + 3/0"),
    "zero-over-zero": ("eval", None, "0/0"),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_malformed_input_gives_one_error_line(case, fmt, capsys, tmp_path):
    """Each malformed graph document or expression exits 1 or 2 with one
    ``error:`` or ``resource limit:`` line on stderr and nothing on stdout.
    Eval cases run on fixtures/line3.graph."""
    command, document, expr = _MALFORMED[case]
    graph = fixture_path("line3")
    if document is not None:
        graph = tmp_path / "g.graph"
        if isinstance(document, bytes):
            graph.write_bytes(document)
        else:
            graph.write_text(document)
    argv = [command, str(graph)] + ([expr] if expr is not None else [])
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code in (1, 2) and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(("error: ", "resource limit: ")), err[:200]


# -- fuzzing every command ---------------------------------------------------------

_NAMES = ["u", "v", "w", "x", "a", "e1"]  # vertex names and bundle ids overlap
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 4), st.floats(), st.text(max_size=3),
              st.sampled_from(_NAMES + ["omega"])),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)


def _expressions(names: list):
    """Element expressions over the given identifiers, by the grammar of
    ``exprparse`` with scalars, indices and exponents kept small, or any
    short text over its symbols."""
    atoms = st.one_of(
        st.sampled_from(names),
        st.builds("{}[{}]".format, st.sampled_from(names), st.integers(0, 3)),
        st.sampled_from(["0", "1", "2", "1/2", "-3/2", "0/1", "2/0"]))
    grammar = st.recursive(atoms, lambda e: st.one_of(
        st.builds("({})".format, e), st.builds("{}*".format, e),
        st.builds("{}^{}".format, e, st.integers(0, 9)), st.builds("{} {}".format, e, e),
        st.builds("{} + {}".format, e, e), st.builds("{} - {}".format, e, e)), max_leaves=6)
    text = st.text(alphabet="".join(sorted(set("".join(names)))) + "[]()*^+-/ 0123",
                   max_size=12)
    return st.one_of(grammar, grammar, grammar, text)


@st.composite
def _fuzz_inputs(draw):
    """(graph document bytes, expression).  The document is a valid graph
    of at most 4 vertices and 5 bundles of multiplicity 1-3 or omega, or
    that graph with one field replaced by any JSON value or removed, or
    any JSON value, or the graph's text cut short or with one byte
    changed.  The expression mostly names the graph's vertices and
    bundles.  Multiplicities stay small because `witness` and JSON
    `index` do work that grows with the path count n, which one bundle
    of multiplicity m already makes m + 1."""
    vertices = draw(st.lists(st.sampled_from(_NAMES[:4]), min_size=1, max_size=4, unique=True))
    edges = []
    for i in range(draw(st.integers(min_value=0, max_value=5))):
        edge = {"id": draw(st.sampled_from([f"b{i}"] * 4 + ["a", "e1"])),
                "src": draw(st.sampled_from(vertices)), "dst": draw(st.sampled_from(vertices))}
        mult = draw(st.one_of(st.integers(min_value=1, max_value=3), st.just("omega"), st.none()))
        if mult is not None:
            edge["mult"] = mult
        edges.append(edge)
    expr = draw(_expressions(vertices + [e["id"] for e in edges] + ["x"]))
    doc = {"vertices": vertices, "edges": edges}
    kind = draw(st.sampled_from(["valid"] * 4 + ["field", "value", "text"]))
    if kind == "field":
        holder = draw(st.sampled_from([doc] + edges))
        key = draw(st.sampled_from(sorted(holder)))
        if draw(st.booleans()):
            del holder[key]
        else:
            holder[key] = draw(_json_values)
    elif kind == "value":
        doc = draw(_json_values)
    data = json.dumps(doc).encode()
    if kind == "text":
        at = draw(st.integers(min_value=0, max_value=len(data) - 1))
        if draw(st.booleans()):
            data = data[:at]
        else:
            data = data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
    return data, expr


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(inputs=_fuzz_inputs(), fmt=st.sampled_from(["text", "json"]),
       size=st.sampled_from([None, 2, 1, 4, 0, -1]), bound=st.sampled_from([3, 1, 2, 4, 0]),
       trials=st.sampled_from([2, 0, 1, 3, -1]), seed=st.integers(0, 3))
def test_cli_fuzz(inputs, fmt, size, bound, trials, seed, capsys, tmp_path):
    """Every command, on generated graph documents (valid and malformed)
    and expressions, exits 0, 1 or 2 without raising, and prints the same
    bytes when run twice."""
    document, expr = inputs
    graph = tmp_path / "fuzz.graph"
    graph.write_bytes(document)
    path = str(graph)
    commands = [["analyze", path], ["index", path], ["decompose", path], ["ideals", path],
                ["eval", path, "--nilpotence-max", str(bound), "--", expr],
                ["witness", path] + ([] if size is None else ["--size", str(size)]),
                ["check", path, "--trials", str(trials), "--seed", str(seed)]]
    for argv in commands:
        argv = argv[:2] + ["--format", fmt] + argv[2:]
        runs = [run(capsys, *argv) for _ in range(2)]
        assert runs[0][0] in (0, 1, 2), argv
        assert runs[0][:2] == runs[1][:2], argv


def test_witness_verifies_units_once(capsys, monkeypatch):
    calls = []
    verify = algebra.verify_matrix_units

    def counting(m):
        calls.append(m.n)
        return verify(m)

    monkeypatch.setattr(algebra, "verify_matrix_units", counting)
    for args in (["clock5"], ["graph_f", "--size", "4"],
                 ["omega_gadget", "--size", "3"], ["loop_with_tail"]):
        calls.clear()
        code, _, _ = run(capsys, "witness", fixture_path(args[0]), *args[1:])
        assert code == 0 and len(calls) == 1, args


def test_witness_paths_listed_only_where_used(capsys, monkeypatch, tmp_path):
    """Verdict-only commands list no witness path; JSON index lists n of
    them, and witness --size 2 lists two, even when n = 4095."""
    calls = []
    listing = structure.witness_tree

    def counting(g, target, size):
        calls.append(size)
        return listing(g, target, size)

    monkeypatch.setattr(structure, "witness_tree", counting)
    for name in ("clock5", "line4", "loop_with_tail", "inverse_clock3"):
        for args in (["decompose"], ["ideals"], ["index"],
                     ["decompose", "--format", "json"],
                     ["ideals", "--format", "json"]):
            calls.clear()
            code, _, _ = run(capsys, args[0], fixture_path(name), *args[1:])
            assert code == 0 and calls == [], (name, args)
        calls.clear()
        code, out, _ = run(capsys, "index", fixture_path(name), "--format", "json")
        n = json.loads(out)["n"]
        assert code == 0 and calls == [n], name
    doubled = tmp_path / "doubled.graph"
    vs = [f"u{i:02d}" for i in range(1, 13)]
    doubled.write_text(canonical_document(Graph(
        vs, [Bundle(f"e{i:02d}", vs[i - 1], vs[i], 2) for i in range(1, 12)])))
    calls.clear()
    code, out, _ = run(capsys, "witness", str(doubled), "--size", "2")
    assert code == 0 and calls == [2]
    assert out.startswith("matrix units 2x2") and "verified: True" in out


def test_check_rejects_negative_trials(capsys):
    code, out, err = run(capsys, "check", fixture_path("line2"), "--trials", "-1")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "--trials" in err and "Traceback" not in err
    code, out, _ = run(capsys, "check", fixture_path("line2"), "--trials", "0",
                       "--format", "json")
    doc = json.loads(out)
    assert code == 0 and doc["sampling"]["trials"] == 0 and doc["ok"]


def test_check(capsys):
    code, out, _ = run(capsys, "check", fixture_path("loop_with_tail"),
                       "--trials", "50")
    assert code == 0 and out.strip().endswith("ok")


def test_check_counts_trials_over_the_edge_limit(capsys, monkeypatch):
    """A sampled trial whose probe forms a power over the edge limit counts
    as resource-limited; the rest of the report still prints.  The count
    appears only when it is positive."""
    argv = ("check", fixture_path("loop_with_tail"), "--trials", "20", "--seed", "0")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0 and "resource_limited" not in json.loads(out)["sampling"]
    monkeypatch.setattr(algebra, "POWER_EDGE_LIMIT", 20)
    code, out, err = run(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    assert code == 0 and err == ""
    assert doc["sampling"]["resource_limited"] == 9 and doc["sampling"]["trials"] == 20
    assert doc["dp_agreement"] == {"vertices_checked": 2, "mismatches": []}
    assert doc["sampling"]["witness_index"] == 2 and doc["ok"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "  resource-limited trials: 9\n" in out
    # the witness's own probe over the limit still aborts the command
    monkeypatch.setattr(algebra, "POWER_EDGE_LIMIT", 5)
    code, out, err = run(capsys, "check", fixture_path("line5"), "--trials", "1")
    assert code == 2 and out == "" and err.startswith("resource limit:")


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "index", "/no/such/file.graph")
    assert code == 1 and "error" in err


def test_ideals_has_no_vertex_cap(capsys, tmp_path):
    """The spectrum enumerates nothing, so no vertex count is refused."""
    code, out, err = run(capsys, "ideals", _line_document(tmp_path, 1000),
                         "--format", "json")
    assert code == 0 and err == ""
    assert json.loads(out)["quotients"] == [
        {"H": [], "S": [], "classification": {"base": "K", "size": 1000}}]


def test_json_outputs_are_byte_stable(capsys):
    for args in (
        ["index", fixture_path("clock5")],
        ["analyze", fixture_path("graph_f")],
        ["decompose", fixture_path("clock5")],
        ["ideals", fixture_path("clock3")],
        ["eval", fixture_path("clock3"), "e1 e1*"],
        ["witness", fixture_path("line4")],
        ["check", fixture_path("line2"), "--trials", "20", "--seed", "5"],
    ):
        _, first, _ = run(capsys, *args, "--format", "json")
        _, second, _ = run(capsys, *args, "--format", "json")
        assert first == second, args


@pytest.mark.parametrize("command", ["analyze", "decompose"])
def test_deep_tailed_cycle_runs(command, capsys, tmp_path):
    doc = tmp_path / "deep.graph"
    doc.write_text(canonical_document(tailed_cycle(1200, 3)))
    code, out, err = run(capsys, command, str(doc))
    assert code == 0 and "Traceback" not in err
    if command == "decompose":
        assert out == "M_1203(K[x,x^-1])\n"


DEEP_VERDICTS = {  # (graph, command) -> a line the text output holds
    ("line", "analyze"): "no_exit_cycles: true", ("line", "index"): "Bounded n=20000",
    ("line", "decompose"): "M_20000(K)", ("line", "ideals"): "H={} S={} -> M_20000(K)",
    ("cycle", "analyze"): "condition_L: False", ("cycle", "index"): "Bounded n=20005",
    ("cycle", "decompose"): "M_20005(K[x,x^-1])",
    ("cycle", "ideals"): "H={} S={} -> M_20005(K[x,x^-1])",
}


@pytest.mark.parametrize("command", ["analyze", "index", "decompose", "ideals"])
def test_deep_graphs_stay_iterative(command, capsys, tmp_path):
    """line(20000) and an exitless 20000-cycle with a tail, far deeper than
    the recursion limit, get their verdicts in-process with no
    RecursionError (which main would report as a resource limit)."""
    for name, g in (("line", corpus.line(20000)), ("cycle", tailed_cycle(20000, 5))):
        doc = tmp_path / f"{name}.graph"
        doc.write_text(canonical_document(g))
        code, out, err = run(capsys, command, str(doc))
        assert (code, err) == (0, ""), (name, err)
        assert DEEP_VERDICTS[name, command] in out.splitlines(), name


def test_verdicts_build_no_bundle(capsys, monkeypatch, tmp_path, fixture_dir):
    """index, analyze, decompose and ideals, text and JSON, read the int
    columns only: no Bundle record is made on any fixture or on clock(50).
    Nor do ``check --trials 20`` (the oracle's walks included), ``witness``
    and ``eval`` of the first vertex, on every fixture."""
    clock = tmp_path / "clock50.graph"
    clock.write_text(canonical_document(corpus.clock(50)))
    fixtures = sorted(map(str, fixture_dir.glob("*.graph")))
    first = {path: load_graph(path).vertices[0] for path in fixtures}
    made = []
    init = Bundle.__init__

    def counting(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(Bundle, "__init__", counting)
    paths = fixtures + [str(clock)]
    for path in paths:
        for command in ("index", "analyze", "decompose", "ideals"):
            for fmt in ("text", "json"):
                assert run(capsys, command, path, "--format", fmt)[0] == 0, (command, path)
    for path in fixtures:
        for argv in (["check", path, "--trials", "20"], ["witness", path],
                     ["eval", path, first[path]]):
            for fmt in ("text", "json"):
                assert run(capsys, *argv, "--format", fmt)[0] == 0, argv
    assert made == [] and len(paths) == 15
    Graph(["v"], [Bundle("e", "v", "v")])
    assert len(made) == 1  # the count sees a construction


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(enabled, capsys, monkeypatch, tmp_path):
    """main pauses the cyclic garbage collector while a command runs, and
    after exit 0, 1 or 2 leaves it on or off as it was before; a handler
    put into the command table runs with it paused."""
    seen = []

    def probe(args):
        seen.append(gc.isenabled())
        return 0

    monkeypatch.setitem(cli.COMMANDS, "probe", (probe, "probe", ()))
    line3 = fixture_path("line3")
    cases = [(["index", line3], 0), (["index", str(tmp_path / "missing.graph")], 1),
             (["eval", line3, "(2)^30000000 u1"], 2), (["probe", line3], 0)]
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for argv, code in cases:
            assert run(capsys, *argv)[0] == code, argv
            assert gc.isenabled() is enabled, argv
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]


def test_exit_code_contract(capsys, monkeypatch):
    """main returns 2 for TooLarge, the one error type of a resource
    limit, and 1 for LeavittError and every other subclass of it in the
    package, whichever module raises it."""
    classes, todo = [], [LeavittError]
    while todo:
        cls = todo.pop()
        if cls.__module__.partition(".")[0] == "leavitt":
            classes.append(cls)
        todo += cls.__subclasses__()
    assert algebra.TooLarge.__module__ == "leavitt.graph"
    assert algebra.TooLarge in classes and len(classes) > 20
    line3 = fixture_path("line3")
    for cls in classes:
        def raising(args, cls=cls):
            raise cls.__new__(cls)

        monkeypatch.setitem(cli.COMMANDS, "probe", (raising, "probe", ()))
        code = run(capsys, "probe", line3)[0]
        assert code == (2 if cls is algebra.TooLarge else 1), cls


@pytest.mark.parametrize("big,small", [("e1^100000000", "e1^2"),
                                       ("u1^200000", "u1^2")])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_eval_large_exponent(big, small, fmt, capsys, monkeypatch):
    """Powers take O(log k) products and stop at the first zero square:
    e1^2 = 0 and u1 is idempotent, so both print what the small powers do."""
    products = []
    product = algebra._product

    def counting(table, left, right):
        products.append(1)
        assert len(products) <= 100, "a power took more than 100 products"
        return product(table, left, right)

    monkeypatch.setattr(algebra, "_product", counting)
    _, expected, _ = run(capsys, "eval", fixture_path("line3"), small, "--format", fmt)
    code, out, err = run(capsys, "eval", fixture_path("line3"), big, "--format", fmt)
    assert code == 0 and out == expected and err == ""


def test_eval_probe_exits_at_a_square_that_is_a_multiple(capsys, monkeypatch):
    """(2 u1)^2 = 2 (2 u1): the probe stops at that first square, so a
    bound of 10^8 powers costs one product, not a walk down its bits."""
    products = []
    product = algebra._product

    def counting(table, left, right):
        products.append(1)
        return product(table, left, right)

    monkeypatch.setattr(algebra, "_product", counting)
    code, out, err = run(capsys, "eval", fixture_path("line3"), "2 u1",
                         "--nilpotence-max", "100000000")
    assert code == 0 and err == ""
    assert "not nilpotent within 100000000 powers" in out
    assert len(products) == 1


@pytest.mark.parametrize("expr", [
    "(" * 1200 + "e1" + ")" * 1200,  # deeper than the interpreter's recursion limit
    "(2)^20000 u1",  # a coefficient of 6021 digits
    "e^2000000",  # a path of 2 million edges
], ids=["nested-parens", "long-coefficient", "long-path"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_eval_resource_limits(expr, fmt, capsys):
    graph = "single_loop" if expr.startswith("e^") else "line3"
    code, out, err = run(capsys, "eval", fixture_path(graph), expr, "--format", fmt)
    assert code == 2 and out == ""
    assert err.startswith("resource limit: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [["index", "text"], ["decompose", "text"],
                                  ["decompose", "json"], ["ideals", "text"],
                                  ["ideals", "json"]])
def test_counts_past_the_digit_limit_are_resource_limits(argv, capsys, tmp_path):
    """The doubled line of 2300 vertices has n = 2^2300 - 1 paths into its
    end, 693 digits: over a digit limit of 640, each command that prints
    that count exits 2 before it prints anything.  (JSON index and witness
    would list all n paths first; the next test covers them.)"""
    doc = _line_document(tmp_path, 2300, mult=2)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, argv[0], doc, "--format", argv[1])
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2 and out == ""
    assert err.startswith("resource limit: ") and "Traceback" not in err


def test_witness_listing_past_the_edge_limit_is_refused(capsys, tmp_path):
    """On the doubled line of 2300 vertices, listing the n = 2^2300 - 1
    witness paths would not end: JSON index and witness exit 2 before
    listing any, as all but one of those paths hold an edge.  The
    commands that list no paths, and witness at size 3, still answer."""
    doc = _line_document(tmp_path, 2300, mult=2)
    limit = algebra.POWER_EDGE_LIMIT
    for argv in (["index", "--format", "json"], ["witness"], ["witness", "--format", "json"]):
        code, out, err = run(capsys, argv[0], doc, *argv[1:])
        assert code == 2 and out == "", argv
        assert err == (f"resource limit: the witness has more than {limit + 1} paths "
                       f"to list, holding more edges than the limit of {limit}\n"), argv
    for argv in (["index"], ["decompose", "--format", "json"], ["ideals", "--format", "json"],
                 ["witness", "--size", "3"]):
        code, out, err = run(capsys, argv[0], doc, *argv[1:])
        assert code == 0 and out and err == "", argv


def test_witness_listing_limit_boundary(capsys, monkeypatch):
    """line6 has n = 6 witness paths, five of them holding an edge: JSON
    index lists them under an edge limit of 5 and refuses under 4."""
    monkeypatch.setattr(algebra, "POWER_EDGE_LIMIT", 5)
    code, out, err = run(capsys, "index", fixture_path("line6"), "--format", "json")
    assert code == 0 and err == "" and len(json.loads(out)["witness"]["paths"]) == 6
    monkeypatch.setattr(algebra, "POWER_EDGE_LIMIT", 4)
    code, out, err = run(capsys, "index", fixture_path("line6"), "--format", "json")
    assert code == 2 and out == "" and err.startswith("resource limit: the witness has more")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_eval_probe_refuses_a_power_over_the_edge_limit(fmt, capsys, monkeypatch):
    """The loop e is never nilpotent: the probe squares it up to the first
    power over 10^6 edges, e^(2^20), and stops there, instead of forming
    10^8 powers."""
    products = []
    product = algebra._product

    def counting(table, left, right):
        products.append(1)
        assert len(products) <= 100, "the probe took more than 100 products"
        return product(table, left, right)

    monkeypatch.setattr(algebra, "_product", counting)
    code, out, err = run(capsys, "eval", fixture_path("single_loop"), "e",
                         "--nilpotence-max", "100000000", "--format", fmt)
    assert code == 2 and out == ""
    assert err.startswith("resource limit: ") and err.count("\n") == 1


def _bundle_document(tmp_path, mult) -> str:
    """Two vertices u and v joined by one bundle a of multiplicity mult."""
    doc = tmp_path / "bundle.graph"
    doc.write_text(canonical_document(Graph(["u", "v"], [Bundle("a", "u", "v", mult)])))
    return str(doc)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_eval_refuses_a_rewrite_over_the_term_limit(fmt, capsys, tmp_path):
    """a[0] a[0]* rewrites to u minus the other TERM_LIMIT + 1 edges of
    the bundle: normalization refuses before it writes a term."""
    doc = _bundle_document(tmp_path, algebra.TERM_LIMIT + 2)
    code, out, err = run(capsys, "eval", doc, "a[0] a[0]*", "--nilpotence-max", "1",
                         "--format", fmt)
    assert code == 2 and out == ""
    limit = algebra.TERM_LIMIT
    assert err == (f"resource limit: a rewrite at bundle 'a' adds {limit + 1} terms, "
                   f"over the limit of {limit}\n")


def test_check_counts_trials_over_the_term_limit(capsys, monkeypatch, tmp_path):
    """With a term limit of 3, a sampled trial whose normalization rewrites
    the special edge a[0] (four siblings, the bundle b to another sink)
    counts as resource-limited, and check exits 0.  The witness, the five
    paths into w, stays under the limit: its largest power, J^2, has 3
    terms."""
    doc = tmp_path / "two_sinks.graph"
    doc.write_text(canonical_document(Graph(
        ["u", "v", "w"], [Bundle("a", "u", "v"), Bundle("b", "u", "w", 4)])))
    refused = []
    normalize = algebra._normalize

    def counting(table, raw):
        try:
            return normalize(table, raw)
        except algebra.TooLarge:
            refused.append(1)
            raise

    monkeypatch.setattr(algebra, "_normalize", counting)
    monkeypatch.setattr(algebra, "TERM_LIMIT", 3)
    code, out, err = run(capsys, "eval", str(doc), "a[0] a[0]*")
    assert code == 2 and out == "" and err.startswith("resource limit: ")
    code, out, err = run(capsys, "check", str(doc), "--trials", "30", "--format", "json")
    sampling = json.loads(out)["sampling"]
    assert code == 0 and err == ""
    assert sampling["resource_limited"] > 0 and len(refused) > 1
    assert sampling["n"] == sampling["witness_index"] == 5
    assert sampling["violations"] == []


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_check_witness_probe_over_the_term_limit_is_a_resource_limit(fmt, capsys,
                                                                     monkeypatch, tmp_path):
    """The witness of u => v by a bundle of 5 edges is the 6 paths into v,
    and its J^2 has 4 terms: with a term limit of 3 the witness's own
    probe stops short of a verdict, and check exits 2, as it does when
    that probe passes the edge limit."""
    doc = _bundle_document(tmp_path, 5)
    monkeypatch.setattr(algebra, "TERM_LIMIT", 3)
    code, out, err = run(capsys, "check", doc, "--trials", "0", "--format", fmt)
    assert code == 2 and out == ""
    assert err == ("resource limit: power 2 of the witness's Jordan element holds 4 terms, "
                   "over the limit of 3\n")


@pytest.mark.parametrize("argv,expected", [
    (["witness", "--size", "2"], "matrix units 2x2 (acyclic paths)\nverified: True\n"
                                 "jordan element nilpotence index: 2\n"),
    (["eval", "v"], "1 * v . v^*\n  degree 0: 1 * v . v^*\n"
                    "  not nilpotent within 8 powers\n"),
    (["eval", "a[99999999]* a[99999999]"], "1 * v . v^*\n  degree 0: 1 * v . v^*\n"
                                           "  not nilpotent within 8 powers\n"),
], ids=["witness", "eval-vertex", "eval-edge"])
def test_large_multiplicity_is_not_enumerated(argv, expected, capsys, tmp_path):
    """A bundle of 10^8 edges: the algebra kernel numbers them by offset,
    so nothing lists them."""
    doc = tmp_path / "wide.graph"
    doc.write_text(canonical_document(Graph(["u", "v"], [Bundle("a", "u", "v", 10 ** 8)])))
    code, out, err = run(capsys, argv[0], str(doc), *argv[1:])
    assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize("argv,expected", [
    (["index"], "Bounded n=100000001\n  sink v: 100000001\n"),
    (["decompose"], "M_100000001(K)\n"),
    (["ideals"], "H={} S={} -> M_100000001(K)\n"),
])
def test_large_multiplicity_verdicts_build_no_kernel(argv, expected, capsys,
                                                    tmp_path, monkeypatch):
    """The block table holds no entry per edge: on a bundle of 10^8 edges
    the verdicts never number them.  The legs are built apart, by
    ``trace_tables``, whose second table has one entry per edge, so they
    are read on the same shape with 10^5 edges."""
    def refuse(g):
        raise AssertionError("the kernel was built")

    monkeypatch.setattr(algebra, "_kernel", refuse)
    doc = tmp_path / "wide.graph"
    doc.write_text(canonical_document(Graph(["u", "v"], [Bundle("a", "u", "v", 10 ** 8)])))
    code, out, err = run(capsys, argv[0], str(doc))
    assert (code, out, err) == (0, expected, "")
    table = structure.blocks(load_graph(str(doc)))
    assert table.rows == ((SinkTarget("v"), 1, 10 ** 8 + 1, structure.BASE_K),)
    legs, at_range = structure.trace_tables(Graph(["u", "v"], [Bundle("a", "u", "v", 10 ** 5)]))
    assert legs == [10 ** 5, 1] and at_range == [1] * 10 ** 5


def test_huge_multiplicity_commands_end(capsys, tmp_path):
    """On a bundle of 10^30 edges, more than a range's length can hold:
    eval and witness number no sibling one by one, a rewrite through the
    bundle is refused as a resource limit, and check's listing into v
    stops at its path budget.  check comes last: without that budget its
    listing would not end."""
    doc = tmp_path / "huge.graph"
    doc.write_text(canonical_document(Graph(["u", "v"], [Bundle("a", "u", "v", 10 ** 30)])))
    code, out, err = run(capsys, "eval", str(doc), "u")
    assert code == 0 and out.endswith("\n  not nilpotent within 8 powers\n") and err == ""
    code, out, err = run(capsys, "eval", str(doc), "a[0] a[0]*")
    assert (code, out) == (2, "") and err == (
        f"resource limit: a rewrite at bundle 'a' adds {10 ** 30 - 1} terms, "
        f"over the limit of {algebra.TERM_LIMIT}\n")
    code, out, err = run(capsys, "witness", str(doc), "--size", "2")
    assert code == 0 and "\nverified: True\n" in out and err == ""
    assert run(capsys, "check", str(doc)) == \
        (2, "", "resource limit: more than 100000 paths into 'v'\n")


@pytest.mark.parametrize("expr", ["(2)^30000000 u1", "(2)^10000000000 u1"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_eval_refuses_scalar_power_before_computing(expr, fmt, capsys):
    code, out, err = run(capsys, "eval", fixture_path("line3"), expr, "--format", fmt)
    assert code == 2 and out == ""
    assert err.startswith("resource limit: ") and "Traceback" not in err


@pytest.mark.parametrize("expr,plain", [("(1)^3000000 u1", "u1"),
                                        ("(-1)^3000001 u1", "(-1) u1"),
                                        ("(0)^3000000 u1", "(0) u1")])
def test_eval_unit_scalar_powers_are_not_refused(expr, plain, capsys):
    _, expected, _ = run(capsys, "eval", fixture_path("line3"), plain)
    code, out, _ = run(capsys, "eval", fixture_path("line3"), expr)
    assert code == 0 and out == expected


# -- the JSON writer -------------------------------------------------------------

def _reference_dump(obj) -> str:
    """The stdlib dump the CLI's writer must reproduce byte for byte."""
    return json.dumps(obj, indent=2, sort_keys=True)


def _dumps(obj) -> str:
    """The CLI writer's whole text of obj."""
    return "".join(_json_chunks(obj))


def _line_document(tmp_path, k: int, mult: int = 1) -> str:
    """corpus.line(k) with every bundle of multiplicity `mult`."""
    g = corpus.line(k)
    doc = tmp_path / f"line{k}x{mult}.graph"
    doc.write_text(canonical_document(
        Graph(g.vertices, [Bundle(b.id, b.src, b.dst, mult) for b in g.bundles])))
    return str(doc)


def _json_commands(name: str) -> list:
    g = corpus.CORPUS[name]()
    v = g.vertices[0]
    expr = f"{g.bundles[0].id}[0] {g.bundles[0].id}[0]* + (-3/2) {v}" \
        if g.bundles else v
    path = fixture_path(name)
    return [["analyze", path], ["index", path], ["decompose", path],
            ["ideals", path], ["witness", path], ["witness", path, "--size", "2"],
            ["check", path, "--trials", "5"], ["eval", path, expr]]


def test_json_output_matches_stdlib_dump(capsys, tmp_path):
    """Every JSON document the CLI prints is the stdlib's indent-2,
    sorted-key dump of itself: the fixtures under every command, and the
    long witness listings of line(200) and the doubled line with k=11."""
    commands = [argv for name in sorted(corpus.CORPUS)
                for argv in _json_commands(name)]
    commands += [["index", _line_document(tmp_path, 200)],
                 ["index", _line_document(tmp_path, 11, mult=2)]]
    refused = []
    for argv in commands:
        code, out, _ = run(capsys, *argv, "--format", "json")
        if code != 0:  # an input error prints nothing on stdout
            assert code == 1 and out == "", argv
            refused.append(argv)
            continue
        assert out == _reference_dump(json.loads(out)) + "\n", argv
    # only witness --size 2 on the two fixtures with n = 1
    assert refused == [["witness", fixture_path(name), "--size", "2"]
                       for name in ("line1", "single_loop")]
    assert json.loads(out)["n"] == 2 ** 11 - 1  # the doubled line lists n paths


_texts = st.text(st.one_of(
    st.characters(exclude_categories=()),  # lone surrogates included
    st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u00e9", "%",
                     "\u2028", "\ud800", "\udfff", "\U0001f600"])))
_edges = st.builds(EdgeRef, _texts, st.integers(min_value=0, max_value=10 ** 6))
_edge_tuples = st.lists(_edges, max_size=4).map(tuple)


@st.composite
def _trees(draw):
    """PathTrees: the empty listing, the lone trivial path, and small trees
    whose every path hangs off one in the level above, the paths of a level
    drawing their first edges from a few shared ones, and their bases from
    a few names."""
    names = tuple(draw(st.lists(_texts, min_size=1, max_size=4)))
    _bases = st.integers(min_value=0, max_value=len(names) - 1)
    levels = draw(st.integers(min_value=0, max_value=4))
    if not levels:
        return PathTree(names, [], [], [], [])
    bases, firsts, parents, ends = [draw(_bases)], [None], [-1], [1]
    for _ in range(levels - 1):
        lo, hi = ends[-2] if len(ends) > 1 else 0, ends[-1]
        shared = draw(st.lists(_edges, min_size=1, max_size=3))
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            bases.append(draw(_bases))
            firsts.append(draw(st.sampled_from(shared)))
            parents.append(draw(st.integers(min_value=lo, max_value=hi - 1)))
        ends.append(len(bases))
    return PathTree(names, bases, firsts, parents, ends)


_target_counts = st.builds(
    TargetCount,
    st.one_of(st.builds(SinkTarget, _texts), st.builds(CycleTarget, st.builds(Cycle, _edge_tuples))),
    st.integers(min_value=0, max_value=2 ** 70))
_leaves = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.integers(min_value=-2 ** 200, max_value=2 ** 200),
                    _texts, _edges,
                    st.builds(Path, _texts, _edge_tuples), st.builds(Cycle, _edge_tuples),
                    _trees(), _target_counts)
_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_texts, inner, max_size=4)),
    max_leaves=25)


def _plain(obj):
    """obj with every EdgeRef, Path, Cycle and TargetCount replaced by the
    dict the CLI prints for it, and every PathTree by its list of paths."""
    if isinstance(obj, EdgeRef):
        return {"bundle": obj.bundle, "index": obj.index}
    if isinstance(obj, Path):
        return {"base": obj.base, "edges": _plain(obj.edges)}
    if isinstance(obj, Cycle):
        return {"edges": _plain(obj.edges)}
    if isinstance(obj, PathTree):
        paths = []
        for base, first, parent in zip(obj.bases, obj.firsts, obj.parents):
            edges = [] if first is None else [_plain(first)] + paths[parent]["edges"]
            paths.append({"base": obj.names[base], "edges": edges})
        return paths
    if isinstance(obj, TargetCount):
        if isinstance(obj.target, SinkTarget):
            return {"kind": "sink", "vertex": obj.target.vertex, "count": obj.count}
        return {"kind": "cycle", "cycle": _plain(obj.target.cycle), "count": obj.count}
    if isinstance(obj, dict):
        return {k: _plain(x) for k, x in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    return obj


_keysets = st.lists(_texts, min_size=1, max_size=3, unique=True)
_small = st.one_of(_leaves, st.lists(_leaves, max_size=3).map(tuple),
                   st.dictionaries(_texts, _leaves, max_size=2))


@st.composite
def _repeating(draw):
    """Payloads for the emitter's caches and fast paths: one key set at two
    depths, one EdgeRef at two depths, EdgeRefs mixed with other values in
    one tuple, empty dicts and tuples nested in each other, and one path
    tree and target rows, each streamed from a dict and rendered whole in
    a list."""
    keys, edge, tree = draw(_keysets), draw(_edges), draw(_trees())
    rows = draw(st.lists(_target_counts, min_size=1, max_size=3))

    def keyed():
        return {k: draw(_small) for k in keys}

    mixed = draw(st.permutations([edge, draw(_edges), draw(_leaves), draw(_small),
                                  (), {}]))
    empties = draw(st.sampled_from([{}, (), [], {"": {}}, ((),), ({}, ()),
                                    {"a": ({}, [()])}, [[{"b": ()}]]]))
    payload = {"outer": keyed(), "deep": [{"inner": keyed()}, (keyed(),)],
               "edge": edge, "path": {"edges": (edge, edge)},
               "mixed": tuple(mixed[:draw(st.integers(1, len(mixed)))]),
               "empties": empties,
               "witness": {"paths": tree, "per_target": rows},
               "nested": [tree, (rows[0], tree), {"paths": tree}]}
    drop = draw(st.sets(st.sampled_from(sorted(payload)), max_size=3))
    return {k: x for k, x in payload.items() if k not in drop}


def test_writer_refuses_types_outside_its_table():
    """The writer's table is closed: a value of any other type, such as a
    float, which no command prints, is a KeyError wherever it sits."""
    for value in (0.5, [0.5], {"a": (0.5,)}, {"a": {"b": [0.5]}}):
        with pytest.raises(KeyError):
            _dumps(value)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_values, _repeating()))
def test_dumps_matches_stdlib(value):
    assert _dumps(value) == _reference_dump(_plain(value))
    assert _dumps(_plain(value)) == _reference_dump(_plain(value))


def test_dumps_edge_at_two_depths():
    """One EdgeRef printed at two indentations in one payload."""
    e, f = EdgeRef("a", 0), EdgeRef("b\u00e9", 12)
    payload = {"exit": e, "cycle": {"edges": (e, f)},
               "paths": [{"base": "v", "edges": [f, e]}, []], "w": {}}
    assert _dumps(payload) == _reference_dump(_plain(payload))


def test_dumps_paths_and_cycles_at_two_depths():
    """Paths and Cycles print as leaves, with and without edges, with bases
    that need escaping, at the top of a listing and nested in dicts and
    lists, next to the same edges printed on their own."""
    e, f = EdgeRef("a", 0), EdgeRef('b"\\', 3)
    paths = [Path("v"), Path('u"\\\u00e9%s\n', (e, f)), Path("\ud800", (f,))]
    cycles = [Cycle((e,)), Cycle(()), Cycle((f, e))]
    payload = {"paths": paths, "cycles": cycles, "exit": e,
               "witness": {"kind": "x", "paths": paths, "cycle": cycles[2]},
               "deep": [{"p": paths[1], "q": paths[0]}, (cycles[0], [paths[2], f])]}
    assert _dumps(payload) == _reference_dump(_plain(payload))
    assert _dumps(paths) == _reference_dump(_plain(paths))
    assert _dumps(cycles[2]) == _reference_dump(_plain(cycles[2]))


def test_json_is_written_in_batches(monkeypatch, tmp_path):
    """JSON output reaches stdout in writes of at least _BATCH characters
    (the last may be shorter), and a small document in one write."""
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)

    monkeypatch.setattr(sys, "stdout", Recorder())
    assert main(["index", _line_document(tmp_path, 200), "--format", "json"]) == 0
    out = "".join(writes)
    assert out == _reference_dump(json.loads(out)) + "\n"
    assert len(writes) > 1 and min(map(len, writes[:-1])) >= cli._BATCH
    writes.clear()
    assert main(["index", fixture_path("line3"), "--format", "json"]) == 0
    assert len(writes) == 1 and writes[0].endswith("}\n")


def test_json_writes_are_bounded(monkeypatch, tmp_path):
    """JSON index on line(300) streams its 300 witness paths: every write
    but the last holds at least _BATCH characters, and none over 256 KB."""
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)

    monkeypatch.setattr(sys, "stdout", Recorder())
    assert main(["index", _line_document(tmp_path, 300), "--format", "json"]) == 0
    out = "".join(writes)
    assert out == _reference_dump(json.loads(out)) + "\n"
    assert len(json.loads(out)["witness"]["paths"]) == 300
    assert len(writes) > 2 and min(map(len, writes[:-1])) >= cli._BATCH
    assert max(map(len, writes)) <= 256 * 1024


def test_json_witness_legs_stream(monkeypatch, tmp_path):
    """JSON witness on the doubled line with k=9 streams its list of 511
    legs, each a Path rendered through the writer's table: every write but
    the last holds at least _BATCH characters."""
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)

    monkeypatch.setattr(sys, "stdout", Recorder())
    assert main(["witness", _line_document(tmp_path, 9, mult=2), "--format", "json"]) == 0
    out = "".join(writes)
    assert out == _reference_dump(json.loads(out)) + "\n"
    assert len(json.loads(out)["provenance"]["paths"]) == 511
    assert len(writes) > 1 and min(map(len, writes[:-1])) >= cli._BATCH


def test_json_index_memory_is_bounded(monkeypatch, tmp_path):
    """JSON index on line(1500) prints 1500 paths, 88 MB, holding the edge
    lists of two levels of the path tree at most: its allocation peak,
    loading and search included, stays under 5 MB."""
    doc = _line_document(tmp_path, 1500)
    written, tail = [0, 0], []

    class Counter:
        def write(self, text):
            written[0] += len(text)
            written[1] += 1
            tail[:] = [text[-2:]]

    monkeypatch.setattr(sys, "stdout", Counter())
    tracemalloc.start()
    try:
        assert main(["index", doc, "--format", "json"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert written[0] > 80 * 10 ** 6 and written[1] > 500 and tail == ["}\n"]
    assert peak < 5 * 10 ** 6, peak


def test_omega_family_leg_search_memory_is_linear(tmp_path, capsys):
    """witness --size 3 on an omega bundle a: x -> u1 feeding the line
    u1 -> ... -> u4000 reads its one shortest tail back from parent links,
    holding no path per vertex reached: its allocation peak, loading
    included, stays under 10 MB."""
    k = 4000
    g = Graph(["x"] + [f"u{i}" for i in range(1, k + 1)],
              [Bundle("a", "x", "u1", OMEGA)]
              + [Bundle(f"e{i}", f"u{i}", f"u{i + 1}") for i in range(1, k)])
    doc = tmp_path / "omega_line.graph"
    doc.write_text(canonical_document(g))
    tracemalloc.start()
    try:
        code = main(["witness", str(doc), "--size", "3"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out == ("matrix units 3x3 (acyclic paths)\nverified: True\n"
                                       "jordan element nilpotence index: 3\n")
    assert peak < 10 * 10 ** 6, peak


# -- the parser -----------------------------------------------------------------

def _in_process(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's exit on a bad argument
        code = exc.code
    out, err = capsys.readouterr()
    return out, err, code


def test_reused_parser_keeps_no_state(capsys, monkeypatch):
    """Calls sharing one parser, defaults after explicit values and after an
    argparse error, print what a fresh process prints."""
    g = fixture_path("line5")
    sequence = [["check", g, "--trials", "x"],
                ["check", g, "--trials", "5", "--seed", "7"], ["check", g],
                ["eval", g, "e1 + e1*", "--nilpotence-max", "3"], ["eval", g, "e1 + e1*"],
                ["witness", g, "--size", "4"], ["witness", g]]
    monkeypatch.setenv("COLUMNS", "80")  # usage text wraps at the terminal width
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    seen = []
    for argv in sequence:
        fresh = subprocess.run([sys.executable, "-m", "leavitt", *argv], env=env,
                               capture_output=True, text=True, timeout=120)
        got = _in_process(capsys, argv)
        assert got == (fresh.stdout, fresh.stderr, fresh.returncode), argv
        seen.append(got)
    assert seen[0][2] == 2 and "invalid int value: 'x'" in seen[0][1]
    assert seen[1] != seen[2] and seen[3] != seen[4] and seen[5] != seen[6]


def test_table_path_does_not_import_argparse():
    """``leavitt index`` on well-formed argv, in a fresh process, runs off
    the command table and never imports argparse."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    probe = ("import sys\nfrom leavitt import cli\n"
             "code = cli.main(['index', sys.argv[1]])\n"
             "print(code, 'argparse' in sys.modules)")
    fresh = subprocess.run([sys.executable, "-c", probe, fixture_path("line3")],
                           env=dict(os.environ, PYTHONPATH=src),
                           capture_output=True, text=True, timeout=120)
    assert fresh.stdout.splitlines()[-1] == "0 False", fresh


def test_parser_is_built_once(capsys, monkeypatch):
    """Well-formed argv is read off the command table and builds no
    parser; an argv the table refuses builds the 8 parsers (the main one
    and one per command) once, for that call."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    g = fixture_path("loop_with_tail")
    calls = [["analyze", g], ["index", g, "--format", "json"], ["decompose", g],
             ["ideals", g], ["eval", g, "e", "--nilpotence-max", "2"],
             ["witness", g], ["check", g, "--trials", "1"], ["index", g],
             ["witness", g, "--size", "1", "--format", "json"], ["analyze", g]]
    for argv in calls:
        assert main(argv) == 0, argv
    assert built == []
    assert main(["index", g, "--format=json"]) == 0  # an = form goes to argparse
    assert len(built) == 8
    assert main(["index", g, "--form", "json"]) == 0
    assert len(built) == 16
    for argv in calls:
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert len(built) == 16


_SIMPLE_HELP = """usage: leavitt {command} [-h] [--format {{text,json}}] graph

positional arguments:
  graph                 graph document file

options:
  -h, --help            show this help message and exit
  --format {{text,json}}
"""
_HELP = {
    "": """usage: leavitt [-h] {analyze,index,decompose,ideals,eval,witness,check} ...

Structure analysis of Leavitt path algebras of finite graphs.

positional arguments:
  {analyze,index,decompose,ideals,eval,witness,check}
    analyze             structural report
    index               bounded-index verdict with witnesses
    decompose           matrix-ring decomposition
    ideals              graded quotient classifications
    eval                evaluate an element expression
    witness             build and verify matrix units
    check               oracle agreement and sampling suites

options:
  -h, --help            show this help message and exit
""",
    **{command: _SIMPLE_HELP.format(command=command)
       for command in ("analyze", "index", "decompose", "ideals")},
    "eval": """usage: leavitt eval [-h] [--format {text,json}]
                    [--nilpotence-max NILPOTENCE_MAX]
                    graph expr

positional arguments:
  graph                 graph document file
  expr                  element expression

options:
  -h, --help            show this help message and exit
  --format {text,json}
  --nilpotence-max NILPOTENCE_MAX
                        nilpotence probe bound
""",
    "witness": """usage: leavitt witness [-h] [--format {text,json}] [--size SIZE] graph

positional arguments:
  graph                 graph document file

options:
  -h, --help            show this help message and exit
  --format {text,json}
  --size SIZE           requested unit size (defaults to n when bounded, 3
                        otherwise)
""",
    "check": """usage: leavitt check [-h] [--format {text,json}] [--trials TRIALS]
                     [--seed SEED]
                     graph

positional arguments:
  graph                 graph document file

options:
  -h, --help            show this help message and exit
  --format {text,json}
  --trials TRIALS
  --seed SEED
""",
}


@pytest.mark.parametrize("command", list(_HELP))
def test_help_text_is_pinned(command, capsys, monkeypatch):
    """The parsers built from the command table print the help that the
    hand-written parsers printed, at a terminal width of 80."""
    monkeypatch.setenv("COLUMNS", "80")
    argv = [command, "--help"] if command else ["--help"]
    assert _in_process(capsys, argv) == (_HELP[command], "", 0)


_ARGV_WORDS = ["g", "", "-", "-g", "--", "-h", "--help", "--format", "--size", "--trials",
               "--seed", "--nilpotence-max", "--form", "--s", "--si", "--tr", "--nil",
               "--format=json", "--size=3", "text", "json", "xml", "3", "-3", "0", "x",
               "\u0663", "\uff13", "1_0", " 5", "+4", "1e3", "-1.5", "9" * 5000,
               "e1 + e1*", "-e1 + e1*", "index", "eval"]
_INT_VALUES = ["0", "1", "7", "12", "\u0663", "+4", " 5", "1_0"]


@st.composite
def _argvs(draw):
    """(argv, well_formed).  A command of the table (or a near miss), its
    positionals and some of its options with valid values, the positionals
    in order and each option as one unit, in any order; then, unless the
    draw is well formed, up to three tokens inserted, deleted or replaced
    from words that near-miss the table's shape, or any short text."""
    command = draw(st.sampled_from(list(cli.COMMANDS) + ["ind", "Index", "-h", ""]))
    extra = cli.COMMANDS[command][2] if command in cli.COMMANDS else ()
    units, positionals = [], []
    for name, _, kind, _, choices in (cli._GRAPH, cli._FORMAT) + extra:
        if not name.startswith("-"):
            positionals.append([draw(st.sampled_from(["g", "x y", "e1 e1*", "\u0663", ""]))])
        elif draw(st.booleans()):
            value = draw(st.sampled_from(choices if choices else _INT_VALUES))
            units.append([name, value])
    order = draw(st.permutations(range(len(units) + len(positionals))))
    kept = iter(positionals)
    tokens = [command]
    for i in order:
        tokens += units[i] if i < len(units) else next(kept)
    edits = draw(st.integers(0, 3))
    words = st.one_of(st.sampled_from(_ARGV_WORDS), st.text(max_size=4))
    for _ in range(edits):
        at = draw(st.integers(0, len(tokens)))
        how = draw(st.sampled_from(["insert", "delete", "replace"]))
        if how == "insert" or at == len(tokens):
            tokens.insert(at, draw(words))
        elif how == "delete":
            del tokens[at]
        else:
            tokens[at] = draw(words)
    return tokens, edits == 0 and command in cli.COMMANDS


def _parsed(argv, parser=None):
    """vars() of the Namespace that parser, by default a new one from
    ``cli.build_parser``, gives for argv, or None where it exits."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return vars((parser or cli.build_parser()).parse_args(argv))
    except SystemExit:
        return None


def test_read_argv_matches_argparse():
    """The table reader gives argparse's Namespace or refuses; it reads
    every well-formed draw.  One parser serves every draw: parsing leaves
    it as it was."""
    parser = cli.build_parser()

    @settings(max_examples=1000, deadline=None)
    @given(_argvs())
    def reads_as_argparse(draw):
        argv, well_formed = draw
        got = cli._read_argv(argv)
        if got is not None:
            assert vars(got) == _parsed(argv, parser), argv
        assert got is not None or not well_formed, argv

    reads_as_argparse()


def test_read_argv_refuses_each_near_miss():
    """Each of these is refused, and left to argparse, which reads the
    first four as the table would read ``index g --format json``."""
    g = "g"
    want = vars(cli._read_argv(["index", g, "--format", "json"]))
    for argv in (["index", g, "--format=json"], ["index", g, "--form", "json"],
                 ["index", "--format", "json", "--", g], ["index", "--fo=json", g]):
        assert cli._read_argv(argv) is None and _parsed(argv) == want, argv
    for argv in (["index"], ["index", g, g], ["index", g, "--format"],
                 ["index", g, "--format", "xml"], ["index", "-g"], ["witness", g, "--size", "-3"],
                 ["witness", g, "--size", "x"], ["index", g, "--size", "3"], ["-h"], [],
                 ["ind", g], ["index", g, "-h"], ["eval", g, "-e1"]):
        assert cli._read_argv(argv) is None, argv


def test_bench_argv_takes_the_table_path():
    """Every argv the benchmark's workloads build is read off the table,
    to argparse's Namespace."""
    bench = str(pathlib.Path(__file__).resolve().parent.parent / "bench")
    sys.path.insert(0, bench)
    try:
        import run as bench_run
        import workloads
    finally:
        sys.path.remove(bench)
    from leavitt import graphio
    ctx = bench_run.Context(bench_run.ROOT, graphio, oracle)
    parser = cli.build_parser()
    shapes = 0
    for name, build in workloads.WORKLOADS.items():
        jobs, probe = build(random.Random(1), ctx)
        for job in jobs + probe:
            argv = job.argv(f"{name}.graph")
            got = cli._read_argv(argv)
            assert got is not None and vars(got) == _parsed(argv, parser), argv
            shapes += 1
    assert shapes > 100
