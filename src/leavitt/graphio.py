"""Graph document format: JSON text with `vertices` and `edges` fields.

    {
      "vertices": ["v", "w1", "w2"],
      "edges": [
        {"id": "e1", "src": "v", "dst": "w1", "mult": 1},
        {"id": "e2", "src": "v", "dst": "w2", "mult": "omega"}
      ]
    }

`mult` is a positive integer or the string "omega" (it may be omitted and
defaults to 1).  Canonical serialization sorts vertices and bundle ids
lexicographically, so parse -> serialize -> parse is the identity.

Loading checks each edge once, with exact-type tests on the parsed JSON
(which holds only exact dicts, lists, strings, ints, floats, bools and
None), and collects the edges as four columns (ids, endpoint names,
multiplicities) that :meth:`leavitt.graph.Graph.from_columns` numbers;
no Bundle record is made.  A duplicate vertex, a duplicate bundle id or
an undeclared endpoint shows in the graph's name maps, and only then does
:func:`leavitt.graph.validate` run, so that the error names every
violation in its order.
"""

from __future__ import annotations

import json
import sys

from .graph import OMEGA, Graph, LeavittError, validate


class GraphSyntaxError(LeavittError):
    """Malformed document text; carries line/column when known."""


class GraphFormatError(LeavittError):
    """Well-formed text that does not match the document schema."""


class GraphValidationError(LeavittError):
    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


def parse_graph_document(text: str) -> Graph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise GraphSyntaxError(
            f"line {err.lineno}, column {err.colno}: {err.msg}") from None
    except ValueError:  # an integer past the interpreter's digit limit
        raise GraphSyntaxError("an integer has more than "
                               f"{sys.get_int_max_str_digits()} digits") from None
    if not isinstance(doc, dict):
        raise GraphFormatError("document must be an object")
    vertices = doc.get("vertices")
    if type(vertices) is not list or not set(map(type, vertices)) <= {str}:
        raise GraphFormatError("'vertices' must be a list of strings")
    edges = doc.get("edges", [])
    if type(edges) is not list:
        raise GraphFormatError("'edges' must be a list")
    ids, srcs, dsts, mults = [], [], [], []
    for i, e in enumerate(edges):
        if type(e) is not dict:
            raise GraphFormatError(f"edges[{i}] must be an object")
        try:
            bid, src, dst = e["id"], e["src"], e["dst"]
        except KeyError as err:
            raise GraphFormatError(f"edges[{i}] is missing {err}") from None
        if type(bid) is not str or type(src) is not str or type(dst) is not str:
            raise GraphFormatError(f"edges[{i}]: id/src/dst must be strings")
        mult = e.get("mult", 1)
        if type(mult) is not int or mult < 1:
            if mult != "omega":
                raise GraphFormatError(
                    f"edges[{i}]: mult must be a positive integer or \"omega\"")
            mult = OMEGA
        ids.append(bid)
        srcs.append(src)
        dsts.append(dst)
        mults.append(mult)
    g = Graph.from_columns(vertices, ids, srcs, dsts, mults)
    # a repeated vertex or bundle id, or an undeclared endpoint (numbered
    # after the vertices), leaves a name map shorter than the names it numbers
    if len(g.vindex) < len(g._names) or len(g.bindex) < len(g.ids):
        raise GraphValidationError(validate(g))  # every violation, in its order
    return g


def canonical_document(g: Graph) -> str:
    doc = {
        "vertices": list(g.vertices),
        "edges": [
            {"id": bid, "src": g.vertices[u], "dst": g.vertices[w],
             "mult": "omega" if m is OMEGA else m}
            for bid, u, w, m in zip(g.ids, g.srcs, g.dsts, g.mults)
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_graph(path: str) -> Graph:
    """The graph in the file at path, read as bytes and decoded as UTF-8,
    each CR LF and each lone CR read as LF, which is the text a text-mode
    read gives, so that syntax errors name the same line and column."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise GraphSyntaxError(
            f"byte {err.start}: not UTF-8 text ({err.reason})") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return parse_graph_document(text)
