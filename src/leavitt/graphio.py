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
"""

from __future__ import annotations

import json
import sys

from .graph import OMEGA, Bundle, Graph, LeavittError, validate


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
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise GraphFormatError("'vertices' must be a list of strings")
    edges = doc.get("edges", [])
    if not isinstance(edges, list):
        raise GraphFormatError("'edges' must be a list")
    bundles = []
    for i, e in enumerate(edges):
        if not isinstance(e, dict):
            raise GraphFormatError(f"edges[{i}] must be an object")
        try:
            bid, src, dst = e["id"], e["src"], e["dst"]
        except KeyError as err:
            raise GraphFormatError(f"edges[{i}] is missing {err}") from None
        if not all(isinstance(x, str) for x in (bid, src, dst)):
            raise GraphFormatError(f"edges[{i}]: id/src/dst must be strings")
        raw = e.get("mult", 1)
        if raw == "omega":
            mult = OMEGA
        elif isinstance(raw, int) and not isinstance(raw, bool) and raw >= 1:
            mult = raw
        else:
            raise GraphFormatError(
                f"edges[{i}]: mult must be a positive integer or \"omega\"")
        bundles.append(Bundle(bid, src, dst, mult))
    g = Graph(vertices, bundles)
    violations = validate(g)
    if violations:
        raise GraphValidationError(violations)
    return g


def canonical_document(g: Graph) -> str:
    doc = {
        "vertices": list(g.vertices),
        "edges": [
            {"id": b.id, "src": b.src, "dst": b.dst,
             "mult": "omega" if b.mult is OMEGA else b.mult}
            for b in g.bundles
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as err:
            raise GraphSyntaxError(
                f"byte {err.start}: not UTF-8 text ({err.reason})") from None
    return parse_graph_document(text)
