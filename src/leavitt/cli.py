"""Command line interface.

    leavitt analyze   GRAPH            structural report
    leavitt index     GRAPH            bounded-index verdict with witnesses
    leavitt decompose GRAPH            matrix-ring decomposition
    leavitt ideals    GRAPH            graded quotient classifications
    leavitt eval      GRAPH EXPR       evaluate an element expression
    leavitt witness   GRAPH [--size N] build and verify matrix units
    leavitt check     GRAPH            oracle agreement and sampling suites

All commands take `--format text|json`; JSON output is byte-stable for
fixed inputs and seeds.  Exit codes: 0 success (mathematical verdicts such
as "unbounded" are ordinary output), 1 input error, 2 resource-limit abort.
"""

from __future__ import annotations

import functools
import gc
import sys
from itertools import groupby
from json.encoder import encode_basestring_ascii as _quote
from types import SimpleNamespace

from . import algebra, exprparse, graphio, oracle, structure
from .graph import (
    OMEGA,
    Cycle,
    CycleThroughOmegaBundle,
    CycleWithExit,
    EdgeRef,
    Graph,
    LeavittError,
    Path,
    SinkTarget,
    TooLarge,
    condition_K,
    condition_L,
    cycle_exit_witness,
    cycles,
    downward_directed,
)


def _cycle_text(g: Graph, c: Cycle) -> str:
    return ".".join(algebra.edge_text(g, e) for e in c.edges)


class _Memo(dict):
    """A dict that fills in a missing key with make(key)."""

    __slots__ = ("make",)

    def __init__(self, make):  # a dict subclass starts empty without dict.__init__
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _edge_text(bundle: str, index: int, indent: str) -> str:
    """The JSON object text of the edge (bundle, index) at indent."""
    inner = indent + "  "
    return f'{{{inner}"bundle": {_quote(bundle)},{inner}"index": {index}{indent}}}'


# A JSON document goes to stdout in writes of at least _BATCH characters (a
# smaller document in one), so it is never held whole as text.
_BATCH = 1 << 16


def _write_json(obj, write, end: str = "") -> None:
    """Write the stdlib's sorted-key dump of obj at indent 2, then end,
    through write, in strings of at least _BATCH characters (the last may
    be shorter), in time linear in its size.  The stdlib's C encoder runs
    only without an indent; with one, it walks several Python generator
    frames per value, and a listing of n witness paths has Theta(n L)
    edges.

    One recursive function writes every dict (keys sorted), list and
    tuple element by element, and a PathTree as its list of paths, piece
    by piece (see :func:`_tree_pieces`).  A string prints through
    ``_quote``, and every other leaf through one table, keyed by exact
    type: ints through ``algebra.coefficient_text`` (a count past the
    digit limit is TooLarge), bools and None as their words, and the
    records as one f-string each: an EdgeRef is ``{"bundle": ...,
    "index": ...}``, built once per edge and indentation, a Path
    ``{"base": ..., "edges": [...]}``, a Cycle ``{"edges": [...]}`` and a
    TargetCount ``{"count": ..., "kind": "sink", "vertex": ...}`` or
    ``{"count": ..., "cycle": ..., "kind": "cycle"}``.  A value of any
    other type is a KeyError.  The pending text is written once it
    reaches _BATCH characters."""
    edges = _Memo(lambda indent: _Memo(lambda e: _edge_text(*e, indent)))

    def edge_list(es: tuple, indent: str) -> str:
        """The text of EdgeRefs es, a path's or a cycle's edges."""
        if not es:
            return "[]"
        inner = indent + "  "
        texts = edges[inner]
        items = [texts[e.bundle, e.index] for e in es]
        return f"[{inner}{(',' + inner).join(items)}{indent}]"

    def path(p: Path, indent: str) -> str:
        inner = indent + "  "
        return (f'{{{inner}"base": {_quote(p.base)},'
                f'{inner}"edges": {edge_list(p.edges, inner)}{indent}}}')

    def cycle(c: Cycle, indent: str) -> str:
        inner = indent + "  "
        return f'{{{inner}"edges": {edge_list(c.edges, inner)}{indent}}}'

    def target_count(r: structure.TargetCount, indent: str) -> str:
        inner = indent + "  "
        head = f'{{{inner}"count": {algebra.coefficient_text(r.count)},{inner}'
        t = r.target
        if type(t) is SinkTarget:
            return f'{head}"kind": "sink",{inner}"vertex": {_quote(t.vertex)}{indent}}}'
        return f'{head}"cycle": {cycle(t.cycle, inner)},{inner}"kind": "cycle"{indent}}}'

    # type -> f(value, indent: a newline and spaces) -> the value's text
    leaves = {
        int: lambda o, indent: algebra.coefficient_text(o),
        bool: lambda o, indent: "true" if o else "false",
        type(None): lambda o, indent: "null",
        EdgeRef: lambda o, indent: edges[indent][o.bundle, o.index],
        Path: path,
        Cycle: cycle,
        structure.TargetCount: target_count,
    }
    out, size = [], 0

    def put(o, indent: str) -> None:
        """Append the text of o at indent, writing each full batch."""
        nonlocal size
        kind = type(o)
        if kind is str:
            text = _quote(o)
        elif kind is dict or kind is list or kind is tuple:
            if not o:
                text = "{}" if kind is dict else "[]"
            else:
                inner = indent + "  "
                comma = "," + inner
                if kind is dict:
                    sep = "{" + inner
                    for k, x in sorted(o.items()):
                        text = f"{sep}{_quote(k)}: "
                        out.append(text)
                        size += len(text)
                        put(x, inner)
                        sep = comma
                    text = indent + "}"
                else:
                    sep = "[" + inner
                    for x in o:
                        out.append(sep)
                        size += len(sep)
                        put(x, inner)
                        sep = comma
                    text = indent + "]"
        elif kind is structure.PathTree:
            for text in _tree_pieces(o, indent):
                out.append(text)
                size += len(text)
                if size >= _BATCH:
                    write("".join(out))
                    out.clear()
                    size = 0
            return
        else:
            text = leaves[kind](o, indent)
        out.append(text)
        size += len(text)
        if size >= _BATCH:
            write("".join(out))
            out.clear()
            size = 0

    put(obj, "\n")
    out.append(end)
    write("".join(out))


def _tree_pieces(tree: structure.PathTree, indent: str):
    """The text of tree's list of paths at indent, in pieces.

    A path's edge list is its first edge's text, a separator, then its
    parent's edge list, so each is one concatenation of two strings (the
    trivial path's list and those of length 1 are built directly) and is
    yielded as a piece of its own, not copied into its path's text.  The
    edge lists of one level are kept until the next level is done, and
    those of the last level are not kept."""
    names, bases, firsts, parents, ends = \
        tree.names, tree.bases, tree.firsts, tree.parents, tree.ends
    if not bases:
        yield "[]"
        return
    inner = indent + "  "  # a path's
    field = inner + "  "   # its fields'
    deep = field + "  "    # its edges'
    sep, close = "," + deep, field + "]" + inner + "}"
    head = f',{inner}{{{field}"base": '
    mid = f',{field}"edges": [{deep}'
    yield f'[{inner}{{{field}"base": {_quote(names[bases[0]])},{field}"edges": []{inner}}}'
    above, start, last = None, 1, len(ends) - 1  # above: the level above's lists
    for k in range(1, len(ends)):
        stop = ends[k]
        level = [] if k < last else None
        edge = text = None
        for i in range(start, stop):
            e = firsts[i]
            if e is not edge:  # a level lists each edge's paths together
                edge = e
                text = _edge_text(e.bundle, e.index, deep)
                if above is not None:
                    text += sep
            edges = text if above is None else text + above[parents[i] - ends[k - 2]]
            if level is not None:
                level.append(edges)
            yield f"{head}{_quote(names[bases[i]])}{mid}"
            yield edges
            yield close
        above, start = level, stop
    yield indent + "]"


def _factor_text(f: structure.Factor) -> str:
    return f"M_{algebra.coefficient_text(f.size)}({f.base})"


# -- commands -------------------------------------------------------------------

def _cmd_analyze(args) -> tuple:
    g = graphio.load_graph(args.graph)
    payload: dict = {
        "command": "analyze",
        "vertices": list(g.vertices),
        "bundles": len(g.ids),
        "sinks": g.sinks(),
        "infinite_emitters": [v for v, d in zip(g.vertices, g.deg) if d is OMEGA],
    }
    try:
        payload["cycles"] = cycles(g)
        payload["condition_L"] = condition_L(g)
    except CycleThroughOmegaBundle as err:
        payload["cycles"] = {"error": "cycle_through_omega_bundle", "detail": str(err)}
        payload["condition_L"] = None
    w = cycle_exit_witness(g)
    payload["no_exit_cycles"] = w is None
    if w is not None:
        payload["exit_witness"] = {"cycle": w.cycle, "exit": w.edge}
    payload["condition_K"] = condition_K(g)
    payload["downward_directed"] = downward_directed(g)
    return payload, _analyze_lines(g, payload) if args.format == "text" else ()


def _analyze_lines(g: Graph, payload: dict) -> list:
    """The text of ``analyze``, read off its payload."""
    lines = [f"vertices: {len(g.vertices)}  bundles: {len(g.ids)}",
             f"sinks: {', '.join(payload['sinks']) or '(none)'}"]
    if payload["infinite_emitters"]:
        lines.append(f"infinite emitters: {', '.join(payload['infinite_emitters'])}")
    cs = payload["cycles"]
    if isinstance(cs, dict):
        lines.append(f"cycles: unboundedly many ({cs['detail']})")
    else:
        lines.append("cycles: " + (", ".join(_cycle_text(g, c) for c in cs) or "(none)"))
    w = payload.get("exit_witness")
    if w is not None:
        lines.append(f"no_exit_cycles: false  (cycle {_cycle_text(g, w['cycle'])}"
                     f" has exit {algebra.edge_text(g, w['exit'])})")
    else:
        lines.append("no_exit_cycles: true")
    lines.append(f"condition_L: {payload['condition_L']}")
    lines.append(f"condition_K: {payload['condition_K']}")
    lines.append(f"downward_directed: {payload['downward_directed']}")
    return lines


def _family_json(target, paths) -> dict:
    """Paths into a SinkTarget or a CycleTarget."""
    if isinstance(target, SinkTarget):
        return {"kind": "acyclic_paths", "paths": paths}
    return {"kind": "no_exit_cycle_paths", "cycle": target.cycle, "paths": paths}


def _cmd_index(args) -> tuple:
    g = graphio.load_graph(args.graph)
    report = structure.bounded_index_report(g)
    if isinstance(report, structure.Bounded):
        payload = {
            "command": "index",
            "verdict": "bounded",
            "n": report.n,
            "per_target": report.per_target,
            "witness": None,
        }
        target = report.witness_target
        if args.format == "text":  # text lists no paths
            lines = [f"Bounded n={algebra.coefficient_text(report.n)}"]
            for t, c in report.per_target:
                c = algebra.coefficient_text(c)
                if isinstance(t, SinkTarget):
                    lines.append(f"  sink {t.vertex}: {c}")
                else:
                    lines.append(f"  cycle {_cycle_text(g, t.cycle)}: {c}")
        else:
            lines = ()
            if target is not None:
                payload["witness"] = _family_json(
                    target, structure.witness_tree(g, target, report.n))
        return payload, lines
    reason = report.reason
    if isinstance(reason, CycleWithExit):
        rj = {"kind": "cycle_with_exit", "cycle": reason.cycle, "exit": reason.edge}
    else:
        rj = {"kind": "omega_path_family", "vertex": reason.vertex}
    payload = {"command": "index", "verdict": "unbounded", "reason": rj}
    return payload, [f"Unbounded: {_reason_text(g, reason)}"] if args.format == "text" else ()


def _reason_text(g: Graph, reason) -> str:
    if isinstance(reason, CycleWithExit):
        return (f"cycle {_cycle_text(g, reason.cycle)} has exit "
                f"{algebra.edge_text(g, reason.edge)}")
    return f"infinitely many paths end at {reason.vertex}"


def _cmd_decompose(args) -> tuple:
    g = graphio.load_graph(args.graph)
    try:
        d = structure.decompose(g)
    except structure.NotRowFinite as err:
        return ({"command": "decompose", "verdict": "not_row_finite", "detail": str(err)},
                [f"Not row-finite: {err}; decomposition undefined"])
    except structure.PreconditionUnbounded as err:
        return ({"command": "decompose", "verdict": "unbounded", "detail": str(err)},
                [f"Unbounded: {err}; no matrix-ring decomposition"])
    counted = [(f, len(list(run))) for f, run in groupby(d.factors)]  # factors are sorted
    payload = {
        "command": "decompose",
        "verdict": "decomposed",
        "factors": [{"size": f.size, "base": f.base, "count": c} for f, c in counted],
    }
    lines = ()
    if args.format == "text":
        bits = [_factor_text(f) + (f" x{c}" if c > 1 else "") for f, c in counted]
        lines = [" + ".join(bits) if bits else "0 (empty graph)"]
    return payload, lines


def _cmd_ideals(args) -> tuple:
    g = graphio.load_graph(args.graph)
    try:
        spectrum = structure.graded_spectrum(g)
    except structure.PreconditionUnbounded as err:
        return ({"command": "ideals", "verdict": "unbounded", "detail": str(err)},
                [f"Unbounded: {err}; graded spectrum not computed"])
    payload = {
        "command": "ideals",
        "verdict": "classified",
        "quotients": [
            {"H": sorted(p.H), "S": sorted(p.S),
             "classification": {"base": f.base, "size": f.size}}
            for p, f in spectrum
        ],
    }
    lines = ()
    if args.format == "text":
        lines = [f"H={{{', '.join(sorted(p.H))}}} S={{{', '.join(sorted(p.S))}}}"
                 f" -> {_factor_text(f)}" for p, f in spectrum
                 ] or ["(no downward-directed quotients)"]
    return payload, lines


def _cmd_eval(args) -> tuple:
    if args.nilpotence_max < 1:
        raise LeavittError("--nilpotence-max must be at least 1")
    g = graphio.load_graph(args.graph)
    ast = exprparse.parse_expr(args.expr)
    elem = exprparse.eval_expr(ast, g)
    verdict = algebra.nilpotence_index(elem, args.nilpotence_max)
    if isinstance(verdict, algebra.NilpotentOfIndex):
        nil_j = {"kind": "nilpotent", "index": verdict.index}
        nil_t = f"nilpotent of index {verdict.index}"
    elif isinstance(verdict, algebra.ResourceLimit):
        nil_j = {"kind": "resource_limit", "power": verdict.power,
                 "terms": verdict.terms}
        nil_t = f"resource limit at power {verdict.power}"
    else:
        nil_j = {"kind": "not_nilpotent_within", "bound": verdict.bound}
        nil_t = f"not nilpotent within {verdict.bound} powers"
    # one sorted term list gives the terms, the element's text and each
    # degree's text: a homogeneous component's terms keep the same order
    terms, texts, by_degree = [], [], {}
    for m, k in elem.terms():
        coeff = algebra.coefficient_text(k)
        text = algebra.term_text(g, m, coeff)
        terms.append({"coeff": coeff, "p": m.p, "q": m.q})
        texts.append(text)
        by_degree.setdefault(m.degree, []).append(text)
    degrees = {str(d): " + ".join(by_degree[d]) for d in sorted(by_degree)}
    payload = {
        "command": "eval",
        "element": " + ".join(texts) or "0",
        "terms": terms,
        "degrees": degrees,
        "nilpotence": nil_j,
    }
    lines = [payload["element"]]
    lines += [f"  degree {d}: {text}" for d, text in degrees.items()]
    lines.append(f"  {nil_t}")
    return payload, lines


def _cmd_witness(args) -> tuple:
    g = graphio.load_graph(args.graph)
    units = structure.witness_matrix_units(g, args.size)
    try:
        j = algebra.jordan_element(units)  # verifies the units first
    except algebra.UnverifiedUnits:
        ok, jordan_index = False, None
    else:
        ok = True
        verdict = algebra.nilpotence_index(j, units.n + 1)
        jordan_index = verdict.index if isinstance(
            verdict, algebra.NilpotentOfIndex) else None
    prov = units.provenance
    if isinstance(prov, CycleWithExit):
        pj = {"kind": "cycle_exit_powers", "cycle": prov.cycle,
              "exit": prov.edge, "n": units.n}
        pt = (f"powers of cycle {_cycle_text(g, prov.cycle)} around exit "
              f"{algebra.edge_text(g, prov.edge)}")
    else:
        pj = _family_json(prov, units.legs)
        pt = ("acyclic paths" if isinstance(prov, SinkTarget)
              else f"paths into no-exit cycle {_cycle_text(g, prov.cycle)}")
    payload = {
        "command": "witness",
        "n": units.n,
        "provenance": pj,
        "verified": ok,
        "jordan_index": jordan_index,
    }
    return payload, [f"matrix units {units.n}x{units.n} ({pt})",
                     f"verified: {ok}",
                     f"jordan element nilpotence index: {jordan_index}"]


def _cmd_check(args) -> tuple:
    if args.trials < 0:
        raise LeavittError("--trials must be at least 0")
    g = graphio.load_graph(args.graph)
    checked, mismatches = oracle.path_count_agreement(g)
    mismatches = [{"vertex": v, "count": c, "listed": n} for v, c, n in mismatches]
    payload = {
        "command": "check",
        "dp_agreement": {"vertices_checked": checked, "mismatches": mismatches},
    }
    lines = [f"path-count agreement: {checked} vertices checked, "
             f"{len(mismatches)} mismatches"]
    report = structure.bounded_index_report(g)
    if isinstance(report, structure.Bounded):
        rep = oracle.cross_check_index(g, trials=args.trials, seed=args.seed)
        payload["sampling"] = {
            "n": rep.n, "trials": rep.trials,
            "nilpotent_found": rep.nilpotent_found,
            "empirical_max_index": rep.empirical_max_index,
            "witness_index": rep.witness_index,
            "violations": list(rep.violations),
        }
        lines.append(f"bounded n={rep.n}: {rep.trials} trials, "
                     f"{rep.nilpotent_found} nilpotent, empirical max "
                     f"{rep.empirical_max_index}, witness index {rep.witness_index}")
        if rep.resource_limited:
            payload["sampling"]["resource_limited"] = rep.resource_limited
            lines.append(f"  resource-limited trials: {rep.resource_limited}")
        if rep.violations:
            lines.extend(f"  VIOLATION: {v}" for v in rep.violations)
    else:
        payload["sampling"] = None
        lines.append("graph is unbounded; sampling suite skipped")
    sampling_violations = payload["sampling"]["violations"] if payload["sampling"] else []
    ok = not mismatches and not sampling_violations
    payload["ok"] = ok
    lines.append("ok" if ok else "FAILED")
    return payload, lines


# name -> (handler, help, arguments after the graph and --format).  An
# argument is (name, help, type, default, choices); a name that starts with
# "--" is an option, and a type of None keeps the string.  The parser and
# the argv reader are both built from this table.  A handler returns its
# JSON payload and its text lines (it may skip the lines, and the work only
# they need, when the format is json), and main prints the one asked for.
_GRAPH = ("graph", "graph document file", None, None, None)
_FORMAT = ("--format", None, None, "text", ("text", "json"))
COMMANDS = {
    "analyze": (_cmd_analyze, "structural report", ()),
    "index": (_cmd_index, "bounded-index verdict with witnesses", ()),
    "decompose": (_cmd_decompose, "matrix-ring decomposition", ()),
    "ideals": (_cmd_ideals, "graded quotient classifications", ()),
    "eval": (_cmd_eval, "evaluate an element expression", (
        ("expr", "element expression", None, None, None),
        ("--nilpotence-max", "nilpotence probe bound", int, 8, None))),
    "witness": (_cmd_witness, "build and verify matrix units", (
        ("--size", "requested unit size (defaults to n when bounded, 3 otherwise)",
         int, None, None),)),
    "check": (_cmd_check, "oracle agreement and sampling suites", (
        ("--trials", None, int, 500, None),
        ("--seed", None, int, 0, None))),
}


@functools.cache
def _reader(extra: tuple) -> tuple:
    """(positional dests, option name -> (dest, type, choices), the
    Namespace's defaults) of the arguments of a command of ``COMMANDS``
    whose arguments after the graph and --format are ``extra``."""
    positionals, options, defaults = [], {}, {}
    for name, _, kind, default, choices in (_GRAPH, _FORMAT) + extra:
        if name.startswith("--"):
            dest = name[2:].replace("-", "_")
            options[name] = (dest, kind, choices)
            defaults[dest] = default
        else:
            positionals.append(name)
    return tuple(positionals), options, defaults


def _read_argv(argv) -> SimpleNamespace | None:
    """The attributes of the Namespace ``build_parser().parse_args(argv)``
    gives, as a plain namespace (argparse is not imported), when argv
    is a command of the table followed by exactly its positionals and
    ``--option value`` pairs, in any order, each option spelt in full and
    each value not starting with "-", converting by the option's type and
    within its choices; None for any other argv, which is left to
    argparse: help, usage errors, abbreviations, ``--opt=value``, ``--``,
    and values or positionals that start with "-".  A repeated option
    keeps its last value, as in argparse."""
    if not argv or argv[0] not in COMMANDS:
        return None
    positionals, options, defaults = _reader(COMMANDS[argv[0]][2])
    values = dict(defaults, command=argv[0])
    given = []
    i, end = 1, len(argv)
    while i < end:
        token = argv[i]
        if not token.startswith("-"):
            given.append(token)
            i += 1
            continue
        option = options.get(token)
        if option is None or i + 1 == end or argv[i + 1].startswith("-"):
            return None
        dest, kind, choices = option
        value = argv[i + 1]
        if kind is not None:
            try:
                value = kind(value)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
        i += 2
    if len(given) != len(positionals):
        return None
    values.update(zip(positionals, given))
    return SimpleNamespace(**values)


def build_parser():
    """The parser of every command, built from the table ``COMMANDS``.
    ``main`` builds one, on each call, only for argv that
    :func:`_read_argv` refuses: help, usage errors and the spellings only
    argparse reads.  argparse is imported only here."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="leavitt",
        description="Structure analysis of Leavitt path algebras of finite graphs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, extra) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, arg_help, kind, default, choices in (_GRAPH, _FORMAT) + extra:
            p.add_argument(name, help=arg_help, type=kind, default=default,
                           choices=choices)
    return parser


def main(argv=None) -> int:
    """Run the command argv names and print its payload as JSON or its
    text lines, one per line; return its exit code: 0, or 2 for TooLarge
    (printing too: a number past the digit limit), RecursionError and
    MemoryError (a resource limit), 1 for OSError and every other
    LeavittError.  It runs with the cyclic garbage collector paused,
    enabled again only if it was on at the start: a graph's lists per
    vertex form no cycle to collect."""
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        payload, lines = COMMANDS[args.command][0](args)
        if args.format == "json":
            _write_json(payload, sys.stdout.write, "\n")
        else:
            for line in lines:
                print(line)
        return 0
    except TooLarge as err:
        print(f"resource limit: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        print("resource limit: input nested too deeply (recursion limit)",
              file=sys.stderr)
        return 2
    except MemoryError:
        print("resource limit: out of memory", file=sys.stderr)
        return 2
    except (OSError, LeavittError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
