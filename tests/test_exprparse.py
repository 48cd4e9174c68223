from fractions import Fraction

import pytest

import corpus
from leavitt.algebra import edge_element, identity_element, vertex_element
from leavitt.exprparse import (
    BundleNeedsIndex,
    ExprSyntaxError,
    Ident,
    OmegaBundleNeedsIndex,
    Power,
    Product,
    ScalarLiteral,
    Star,
    Sum,
    UnknownIdent,
    _eval,
    eval_expr,
    parse_expr,
)
from leavitt.graph import Bundle, EdgeRef, Graph


def test_golden_parse_trees():
    assert parse_expr("e1* e1") == Product((Star(Ident("e1")), Ident("e1")))
    assert parse_expr("e1 + e2 e3") == Sum((
        (1, Ident("e1")),
        (1, Product((Ident("e2"), Ident("e3")))),
    ))
    # postfix binds tighter than juxtaposition, which binds tighter than +/-
    assert parse_expr("a b^2* - c") == Sum((
        (1, Product((Ident("a"), Star(Power(Ident("b"), 2))))),
        (-1, Ident("c")),
    ))
    assert parse_expr("-3/2 v") == Product((ScalarLiteral(Fraction(-3, 2)),
                                            Ident("v")))
    assert parse_expr("(a + b)*") == Star(Sum(((1, Ident("a")), (1, Ident("b")))))
    assert parse_expr("d[2]*") == Star(Ident("d", 2))


def test_parse_errors():
    for bad in ["", "e1 +", "(e1", "e1 ) v", "^2", "e1^", "d[", "d[x]", "%"]:
        with pytest.raises(ExprSyntaxError):
            parse_expr(bad)


def test_zero_denominator_names_its_position():
    for text, pos in [("1/0", 2), ("e1 + 3/0", 7), ("0/0", 2), ("-2/00 v", 3)]:
        with pytest.raises(ExprSyntaxError, match="zero denominator") as err:
            parse_expr(text)
        assert err.value.pos == pos, text


def test_unexpected_character_names_its_position():
    """The position is the character's own index, not that of the
    whitespace before it."""
    for text, pos in [("u1 +   $", 7), ("  %", 2), ("%", 0)]:
        with pytest.raises(ExprSyntaxError, match="unexpected character") as err:
            parse_expr(text)
        assert err.value.pos == pos, text


def test_eval_ck_identities():
    g = corpus.clock(3)
    assert eval_expr(parse_expr("e1* e1"), g) == vertex_element(g, "w1")
    assert eval_expr(parse_expr("e1 e1* + e2 e2* + e3 e3*"), g) == \
        vertex_element(g, "v")


def test_eval_power_zero_is_identity():
    g = corpus.clock(3)
    one = eval_expr(parse_expr("(e1 + e2)^0"), g)
    assert one == identity_element(g)
    a = eval_expr(parse_expr("2 e1 - 1/2 w2"), g)
    assert one * a == a


def test_eval_power_zero_on_empty_graph_errors():
    with pytest.raises(Exception):
        eval_expr(parse_expr("x^0"), Graph([]))


def test_eval_scalars_and_subtraction():
    g = corpus.clock(3)
    a = eval_expr(parse_expr("2 e1 - 1/2 e1"), g)
    assert a == edge_element(g, EdgeRef("e1")).scale(Fraction(3, 2))
    assert eval_expr(parse_expr("0 - v"), g) == -vertex_element(g, "v")


def test_eval_keeps_integral_coefficients_as_ints():
    """Integral expressions evaluate with int coefficients, outside and
    in the element's terms; fractional literals and scalar powers stay
    exact Fractions."""
    g = corpus.clock(3)
    for text in ["e1", "3 e1 e1*", "e1 + 2 e2", "-2 (e1 - v)^2", "e1^0", "4",
                 "(2 v)^3 e1", "4/2 e1"]:
        coeff, _ = _eval(parse_expr(text), g)
        assert type(coeff) is int, text
        terms = eval_expr(parse_expr(text), g)._terms
        assert terms and all(type(k) is int for k in terms.values()), text
    assert _eval(parse_expr("(2 v)^3 e1"), g)[0] == 8
    for text, value in [("1/2 e1", Fraction(1, 2)), ("(2/3)^3", Fraction(8, 27)),
                        ("-1/2 e1 3/5", Fraction(-3, 10))]:
        coeff, _ = _eval(parse_expr(text), g)
        assert type(coeff) is Fraction and coeff == value, text


def test_eval_star_reverses_products():
    g = corpus.clock(3)
    ab = eval_expr(parse_expr("(v e1)*"), g)
    ba = eval_expr(parse_expr("e1* v"), g)
    assert ab == ba


def test_eval_ident_resolution():
    og = corpus.build("omega_gadget")
    assert eval_expr(parse_expr("a[3]* a[3]"), og) == vertex_element(og, "h")
    with pytest.raises(OmegaBundleNeedsIndex):
        eval_expr(parse_expr("a"), og)
    with pytest.raises(UnknownIdent):
        eval_expr(parse_expr("nope"), og)
    with pytest.raises(UnknownIdent):
        eval_expr(parse_expr("e[5]"), og)  # index out of range
    g2 = Graph(["u", "w"], [Bundle("d", "u", "w", 2)])
    with pytest.raises(BundleNeedsIndex):
        eval_expr(parse_expr("d"), g2)
    assert eval_expr(parse_expr("d[1]* d[0]"), g2).is_zero()


def test_primed_idents_parse():
    # quotient graphs introduce primed vertex ids; they are valid idents
    og = corpus.build("omega_gadget")
    from leavitt.graph import AdmissiblePair, quotient_graph
    q = quotient_graph(og, AdmissiblePair(frozenset({"h"})))
    assert eval_expr(parse_expr("v'"), q) == vertex_element(q, "v'")


def _pairwise_sum(node: Sum, g):
    """A Sum as a running total of its parts, one Element ``+`` per part."""
    total = None
    for sign, part in node.parts:
        piece = eval_expr(part, g).scale(sign)
        total = piece if total is None else total + piece
    return total


def test_sums_equal_the_pairwise_sum():
    """Long sums, and sums whose parts cancel in full or in part, equal the
    running total of their parts and hold no zero coefficient."""
    line = corpus.line(301)
    edges = " + ".join(b.id for b in line.bundles)
    signed = " - ".join(f"{k % 3 + 1} {b.id}" for k, b in enumerate(line.bundles))
    cases = [(line, edges), (line, signed), (line, f"{edges} - ({edges})"),
             (line, f"{edges} + {signed} - 2 ({edges}) + u1 e1 e1*")]
    clock = corpus.clock(3)
    cases += [(clock, text) for text in (
        "e1 - e1 + 2 e1", "v - v", "e1 e1* - e1 e1*", "1/2 v + 1/2 v - v + w1",
        "2 - 2 + v", "e1 e1* + e2 e2* + e3 e3* - v + 3", "1/3 e1 - 2/3 e1 + 1/3 e1")]
    for g, text in cases:
        node = parse_expr(text)
        assert isinstance(node, Sum), text
        value = eval_expr(node, g)
        assert value == _pairwise_sum(node, g), text
        assert all(value._terms.values()), text
    assert eval_expr(parse_expr("e1 - e1 + 2 e1"), clock) == 2 * edge_element(clock, EdgeRef("e1"))
    assert eval_expr(parse_expr(f"{edges} - ({edges})"), line).is_zero()
