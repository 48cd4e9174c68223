"""Every resource-limit refusal, pinned in full.

Each row reaches one ``TooLarge`` raise site and states its message byte
for byte: through the CLI, as the one ``resource limit: ...`` stderr line
of an exit-2 run, wherever a command reaches the site, and as ``str(err)``
of a library call elsewhere.  A limit a row lowers is a module constant
set with ``monkeypatch``.
"""

import ast
import inspect
import pathlib
import sys

import pytest

import leavitt
import corpus
from conftest import fixture_path
from leavitt import algebra, oracle
from leavitt.cli import main
from leavitt.graph import Bundle, Graph, TooLarge, all_hereditary_saturated
from leavitt.graphio import canonical_document


def _bundle(mult) -> Graph:
    """u -> v by one bundle a of multiplicity mult."""
    return Graph(["u", "v"], [Bundle("a", "u", "v", mult)])


def _three_bundles(mult) -> Graph:
    """a: x -> v, b: y -> v of multiplicity mult, c: w -> x: 3 + mult
    paths into v.  The b-paths join the listing after the last path of
    their level is made, and c a one level on, so under a limit of
    2 + mult only the check on each listed path refuses."""
    return Graph(["v", "w", "x", "y"], [Bundle("a", "x", "v", 1),
                                        Bundle("b", "y", "v", mult),
                                        Bundle("c", "w", "x", 1)])


# (row id, argv with a fixture name or a Graph in the graph's place,
#  algebra constants lowered for the run, the stderr line after the prefix)
CLI_REFUSALS = [
    ("rewrite", ["eval", _bundle(5), "a[0] a[0]*"], {"TERM_LIMIT": 3},
     "a rewrite at bundle 'a' adds 4 terms, over the limit of 3"),
    ("power", ["eval", "single_loop", "e", "--nilpotence-max", "100000000"], {},
     "a power holds 1048576 edges, over the limit of 1000000"),
    ("legs", ["witness", "graph_f", "--size", "800"], {},
     "the legs c^i f hold 1282400 edges, over the limit of 1000000"),
    ("square", ["witness", "graph_f", "--size", "600"], {},
     "the square of the Jordan element of 600 exit units holds 1438788 edges, "
     "over the limit of 1000000"),
    ("omega-pairs", ["witness", "omega_gadget", "--size", "1001"], {},
     "1001 legs make 1002001 pairs, over the limit of 1000000"),
    ("witness-listing", ["witness", _bundle(10 ** 30)], {},
     "the witness has more than 1000001 paths to list, holding more edges "
     "than the limit of 1000000"),
    ("jordan-probe", ["check", _bundle(5), "--trials", "0"], {"TERM_LIMIT": 3},
     "power 2 of the witness's Jordan element holds 4 terms, over the limit of 3"),
    ("paths-into", ["check", _bundle(10 ** 30)], {},
     "more than 100000 paths into 'v'"),
    ("paths-into-listed", ["check", _three_bundles(99_998)], {},
     "more than 100000 paths into 'v'"),
    ("coefficient-bits", ["eval", "line1", "(u1 + u1)^100000000"], {},
     "a power holds a coefficient of 1048577 bits, over the limit of 1000000"),
    ("probe-coefficient-bits",
     ["eval", "line2", "2 u1 + 3 u2", "--nilpotence-max", "60000000"], {},
     "a power holds a coefficient of 1661954 bits, over the limit of 1000000"),
    ("fraction-coefficient-bits",
     ["eval", "line2", "1/3 u1 + 2/5 u2", "--nilpotence-max", "1000"],
     {"POWER_BIT_LIMIT": 100},
     "a power holds a coefficient of 108 bits, over the limit of 100"),
    ("scalar-power", ["eval", "line3", "(2)^30000000 u1"], {},
     "a scalar power holds at least 30000000 bits, over the limit of 1000000"),
    ("digits", ["eval", "line3", "(10)^5000 u1"], {},
     f"number has more than {sys.get_int_max_str_digits()} digits"),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv,limits,message", [row[1:] for row in CLI_REFUSALS],
                         ids=[row[0] for row in CLI_REFUSALS])
def test_cli_refusals_are_pinned(argv, limits, message, fmt, capsys, monkeypatch,
                                 tmp_path):
    for name, value in limits.items():
        monkeypatch.setattr(algebra, name, value)
    command, graph, *rest = argv
    if isinstance(graph, Graph):
        doc = tmp_path / "graph.graph"
        doc.write_text(canonical_document(graph))
        graph = str(doc)
    else:
        graph = fixture_path(graph)
    code = main([command, graph, *rest, "--format", fmt])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", f"resource limit: {message}\n")


# (row id, a call no command makes, oracle constants lowered for the call,
#  the message)
LIBRARY_REFUSALS = [
    ("omega-feeds",
     lambda: oracle.enumerate_paths_ending_at(corpus.build("omega_gadget"), "h", 3), {},
     "omega bundle 'a' feeds paths into 'h'"),
    ("paths-listed",
     lambda: oracle.enumerate_paths_ending_at(_three_bundles(1), "v", 5),
     {"PATH_LIMIT": 3},
     "more than 3 paths into 'v'"),
    ("omega-on-a-path",
     lambda: oracle.basis_monomials(corpus.build("omega_gadget"), 2), {},
     "omega bundle 'a' on a path"),
    ("all-paths-pending",
     lambda: oracle.basis_monomials(_bundle(200_001), 2), {},
     "more than 200000 paths"),
    ("all-paths-listed",
     lambda: oracle.basis_monomials(Graph([f"x{i}" for i in range(200_001)]), 0), {},
     "more than 200000 paths"),
    ("monomials",
     lambda: oracle.basis_monomials(_bundle(448), 2), {},
     "more than 200000 monomials"),
    ("subset-cap",
     lambda: all_hereditary_saturated(Graph([f"x{i}" for i in range(16)])), {},
     "16 vertices exceeds enumeration cap 15"),
]


@pytest.mark.parametrize("call,limits,message", [row[1:] for row in LIBRARY_REFUSALS],
                         ids=[row[0] for row in LIBRARY_REFUSALS])
def test_library_refusals_are_pinned(call, limits, message, monkeypatch):
    for name, value in limits.items():
        monkeypatch.setattr(oracle, name, value)
    with pytest.raises(TooLarge) as err:
        call()
    assert str(err.value) == message


def _refusal_sites() -> tuple:
    """Walk every module under src/leavitt.  Returns (worded, own, texts):
    the module.function names with a ``raise TooLarge(over_limit(...))``,
    those with any other raise of TooLarge (spelled as a bare name or an
    attribute), and those whose string literals hold ", over the limit of"."""
    worded, own, texts = set(), set(), set()

    def visit(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name if scope is None else f"{scope}.{node.name}"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            call = node.exc if isinstance(node.exc, ast.Call) else None
            exc = node.exc if call is None else call.func
            if (isinstance(exc, ast.Name) and exc.id == "TooLarge"
                    or isinstance(exc, ast.Attribute) and exc.attr == "TooLarge"):
                arg = call.args[0] if call is not None and call.args else None
                by_over_limit = (isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name)
                                 and arg.func.id == "over_limit")
                (worded if by_over_limit else own).add(f"{module}.{scope}")
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and ", over the limit of" in node.value):
            texts.add(f"{module}.{scope}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in pathlib.Path(leavitt.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem, None)
    return worded, own, texts


def test_refusals_live_in_one_function_and_the_no_amount_sites():
    """Every refusal that states an amount raises TooLarge(over_limit(...)),
    and over_limit alone holds its wording; the other raises of TooLarge
    are the refusals that state none: the listing budgets and omega
    listings of the oracle, the witness listing, the subset cap and the
    digit limit."""
    worded, own, texts = _refusal_sites()
    assert worded == {
        "algebra._normalize",
        "algebra._limit_guard",
        "algebra.matrix_units_exit",
        "structure._exit_square_guard",
        "structure._omega_family_units",
        "oracle.cross_check_index",
        "exprparse._eval",
    }
    assert own == {
        "graph.all_hereditary_saturated",
        "algebra.coefficient_text",
        "structure.witness_tree",
        "oracle.enumerate_paths_ending_at",
        "oracle._all_paths",
        "oracle.basis_monomials",
    }
    assert texts == {"graph.over_limit"}


def test_no_function_takes_a_per_call_limit():
    """Each limit is a module constant read at call time, so no function
    takes one as a parameter, and the ladder's probe is one flag."""
    functions = [algebra.nilpotence_index, algebra._ladder, algebra._limit_guard,
                 oracle.nilpotence_index_sequential, oracle.enumerate_paths_ending_at,
                 oracle._all_paths, oracle.basis_monomials,
                 all_hereditary_saturated, oracle.graded_spectrum_exhaustive]
    for f in functions:
        params = set(inspect.signature(f).parameters)
        assert not params & {"term_limit", "max_paths", "max_size", "cap", "multiple"}, \
            f.__qualname__
