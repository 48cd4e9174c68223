"""Expression surface syntax for algebra elements.

Grammar (whitespace between tokens is free):

    expr    := product (('+'|'-') product)*
    product := atom+                       -- juxtaposition is multiplication
    atom    := scalar | primary postfix*
    primary := IDENT | IDENT '[' NAT ']' | '(' expr ')'
    postfix := '*' | '^' NAT               -- '*' is the involution
    scalar  := ['-'] NAT ('/' NAT)?

Postfix binds tighter than juxtaposition, which binds tighter than '+'/'-'.
An IDENT names a vertex, a multiplicity-1 bundle, or an indexed edge
`id[k]`.  `x^0` is the identity (the sum of all vertices), defined for
nonempty graphs only.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from . import algebra
from .graph import OMEGA, EdgeRef, Graph, LeavittError, Record, TooLarge, over_limit


SCALAR_POWER_BIT_LIMIT = 10 ** 6  # a larger scalar power is refused unevaluated


class ExprSyntaxError(LeavittError):
    def __init__(self, message, pos):
        super().__init__(f"at position {pos}: {message}")
        self.pos = pos


class UnknownIdent(LeavittError):
    pass


class BundleNeedsIndex(LeavittError):
    pass


class OmegaBundleNeedsIndex(BundleNeedsIndex):
    pass


# -- AST ----------------------------------------------------------------------

class Sum(Record):
    parts: tuple  # pairs (sign, node), sign in {+1, -1}


class Product(Record):
    factors: tuple


class Star(Record):
    inner: object


class Power(Record):
    inner: object
    exponent: int


class ScalarLiteral(Record):
    value: Fraction


class Ident(Record):
    name: str
    index: int | None = None


_TOKEN = re.compile(r"\s*(?:(?P<nat>\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9']*)"
                    r"|(?P<sym>[-+*^()\[\]/]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ExprSyntaxError(
                    f"unexpected character {text[pos:].strip()[0]!r}", pos)
            break
        kind = m.lastgroup
        val, start = m.group(kind), m.start(kind)
        if kind == "nat":
            try:
                val = int(val)
            except ValueError:  # past the interpreter's digit limit
                raise ExprSyntaxError(
                    f"number has more than {sys.get_int_max_str_digits()} digits",
                    start) from None
        tokens.append((kind, val, start))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, length):
        self.tokens = tokens
        self.i = 0
        self.length = length

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, self.length)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_sym(self, sym):
        kind, val, pos = self.take()
        if kind != "sym" or val != sym:
            raise ExprSyntaxError(f"expected {sym!r}", pos)

    def parse_expr(self):
        parts = [(1, self.parse_product())]
        while True:
            kind, val, _ = self.peek()
            if kind == "sym" and val in "+-":
                self.take()
                parts.append((1 if val == "+" else -1, self.parse_product()))
            else:
                break
        return parts[0][1] if len(parts) == 1 else Sum(tuple(parts))

    def parse_product(self):
        factors = [self.parse_atom()]
        while self._starts_atom():
            factors.append(self.parse_atom())
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def _starts_atom(self):
        kind, val, _ = self.peek()
        if kind in ("nat", "ident"):
            return True
        return kind == "sym" and val == "("

    def parse_atom(self):
        kind, val, pos = self.peek()
        if kind == "sym" and val == "-" or kind == "nat":
            return self.parse_scalar()
        node = self.parse_primary()
        while True:
            kind, val, _ = self.peek()
            if kind == "sym" and val == "*":
                self.take()
                node = Star(node)
            elif kind == "sym" and val == "^":
                self.take()
                k, v, p = self.take()
                if k != "nat":
                    raise ExprSyntaxError("expected an exponent", p)
                node = Power(node, v)
            else:
                return node

    def parse_scalar(self):
        kind, val, pos = self.take()
        sign = 1
        if kind == "sym" and val == "-":
            sign = -1
            kind, val, pos = self.take()
        if kind != "nat":
            raise ExprSyntaxError("expected a number", pos)
        num = val
        den = 1
        k, v, _ = self.peek()
        if k == "sym" and v == "/":
            self.take()
            k, v, p = self.take()
            if k != "nat":
                raise ExprSyntaxError("expected a denominator", p)
            if v == 0:
                raise ExprSyntaxError("zero denominator", p)
            den = v
        return ScalarLiteral(Fraction(sign * num, den))

    def parse_primary(self):
        kind, val, pos = self.take()
        if kind == "ident":
            k, v, _ = self.peek()
            if k == "sym" and v == "[":
                self.take()
                k, v, p = self.take()
                if k != "nat":
                    raise ExprSyntaxError("expected an edge index", p)
                self.expect_sym("]")
                return Ident(val, v)
            return Ident(val)
        if kind == "sym" and val == "(":
            inner = self.parse_expr()
            self.expect_sym(")")
            return inner
        raise ExprSyntaxError(f"expected an identifier, number or '('", pos)


def parse_expr(text: str) -> object:
    tokens = _tokenize(text)
    if not tokens:
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(tokens, len(text))
    node = parser.parse_expr()
    kind, _, pos = parser.peek()
    if kind is not None:
        raise ExprSyntaxError("trailing input", pos)
    return node


# -- evaluation ----------------------------------------------------------------

def _resolve_ident(g: Graph, node: Ident) -> algebra.Element:
    name = node.name
    if node.index is None:
        if name in g.vindex:
            return algebra.vertex_element(g, name)
        j = g.bindex.get(name)
        if j is None:
            raise UnknownIdent(f"{name!r} names no vertex or bundle")
        mult = g.mults[j]
        if mult is OMEGA:
            raise OmegaBundleNeedsIndex(
                f"omega bundle {name!r} needs an index: {name}[k]")
        if mult != 1:
            raise BundleNeedsIndex(
                f"bundle {name!r} has multiplicity {mult}; write {name}[k]")
        return algebra.edge_element(g, EdgeRef(name, 0))
    if name not in g.bindex:
        raise UnknownIdent(f"{name!r} names no bundle")
    e = EdgeRef(name, node.index)
    if not g.is_edge(e):
        raise UnknownIdent(
            f"index {node.index} out of range for bundle {name!r}")
    return algebra.edge_element(g, e)


def eval_expr(node, g: Graph) -> algebra.Element:
    """Evaluate an AST to a normal-form element.  Scalars occurring as
    standalone factors scale the product; a purely scalar expression is a
    multiple of the identity."""
    coeff, elem = _eval(node, g)
    if elem is None:
        return algebra.identity_element(g).scale(coeff)
    return elem.scale(coeff)


def _eval(node, g: Graph):
    """Returns (coefficient, Element | None); None means the scalar
    multiple of the (implicit) identity.  Integral coefficients stay
    ints, as the kernel keeps its coefficients; a fractional literal
    brings in a Fraction."""
    if isinstance(node, ScalarLiteral):
        return algebra._scalar(node.value), None
    if isinstance(node, Ident):
        return 1, _resolve_ident(g, node)
    if isinstance(node, Star):
        coeff, elem = _eval(node.inner, g)
        return coeff, (None if elem is None else elem.involution())
    if isinstance(node, Power):
        coeff, elem = _eval(node.inner, g)
        if node.exponent == 0:
            return 1, algebra.identity_element(g)
        # exponent * (bit length - 1) is a lower bound on the result's bits,
        # so 0, 1 and -1 are never refused
        bits = node.exponent * (max(abs(coeff.numerator).bit_length(),
                                    coeff.denominator.bit_length()) - 1)
        if bits > SCALAR_POWER_BIT_LIMIT:
            raise TooLarge(over_limit("a scalar power holds at least", bits, "bits",
                                      SCALAR_POWER_BIT_LIMIT))
        if elem is None:
            return coeff ** node.exponent, None
        return coeff ** node.exponent, algebra.power(elem, node.exponent)
    if isinstance(node, Product):
        coeff = 1
        elem = None
        for factor in node.factors:
            c, e = _eval(factor, g)
            coeff *= c
            if e is not None:
                elem = e if elem is None else elem * e
        return coeff, elem
    if isinstance(node, Sum):
        # the parts add into one term map and zeros go once, at the end, so
        # a sum costs time linear in its parts' terms
        total = {}
        for sign, part in node.parts:
            c, e = _eval(part, g)
            k = algebra._scalar(sign * c)
            for m, v in (algebra.identity_element(g) if e is None else e)._terms.items():
                total[m] = total.get(m, 0) + k * v
        return 1, algebra.Element(g, {m: v for m, v in total.items() if v})
    raise TypeError(f"not an expression node: {node!r}")
