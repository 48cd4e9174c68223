"""Span tracer that times calls into the leavitt modules from outside.

``Tracer.install()`` replaces each traced function in every ``leavitt``
module namespace that holds a reference to it (so calls made through
``from .graph import cycles`` are caught too) and wraps ``Element.__mul__``
and ``Graph.__init__`` on their classes; ``uninstall()`` puts the originals
back.  Each call records a span (id, parent id, job id, name, start, end,
failed) and adds to per-function call counts and self time, where self time
is the span's duration minus the time covered by its child spans.  Nothing
under ``src/`` changes.
"""

from __future__ import annotations

import sys
from time import perf_counter

MODULES = ("graphio", "graph", "structure", "algebra", "exprparse", "oracle", "cli")

# Functions named in the benchmark's per-layer metrics, plus the entry points
# the CLI calls directly (so their time is not booked as cli self time).
TRACED = {
    "graphio": ("load_graph", "parse_graph_document"),
    "graph": ("Graph.__init__", "downward_directed", "vertices_on_cycles",
              "reachable", "cycles", "condition_K", "condition_L",
              "cycle_exit_witness", "count_paths_ending_at",
              "hereditary_saturated_closure", "quotient_graph",
              "all_hereditary_saturated"),
    "structure": ("bounded_index_report", "graded_spectrum", "decompose",
                  "witness_matrix_units"),
    "algebra": ("Element.__mul__", "monomial", "normal_form", "nilpotence_index",
                "verify_matrix_units", "jordan_element", "element_text"),
    "exprparse": ("parse_expr", "eval_expr"),
    "oracle": ("enumerate_paths_ending_at", "random_element", "cross_check_index"),
    "cli": ("main",),
}

# Counters derived inside traced calls, besides calls and self time.
COUNTERS = ("algebra.normal_form.terms_in", "algebra.normal_form.terms_out",
            "graph.all_hereditary_saturated.distinct",
            "graph.all_hereditary_saturated.closures")

SPAN_CAP = 100_000


def metric_names() -> list:
    """Names of the per-layer metrics, in report order."""
    names = []
    for mod in MODULES:
        names += [f"{mod}.calls", f"{mod}.self_s", f"{mod}.failed"]
        if mod == "cli":
            continue  # cli.main is the whole module
        for fn in TRACED[mod]:
            names += [f"{mod}.{fn}.calls", f"{mod}.{fn}.self_s"]
    names += ["algebra.normal_form.terms_in", "algebra.normal_form.terms_out",
              "graph.all_hereditary_saturated.useful_ratio"]
    return names


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


class Tracer:
    def __init__(self):
        self.keys = [f"{mod}.{fn}" for mod in MODULES for fn in TRACED[mod]]
        self.stack = []  # open spans: [key index, start, child time, span id]
        self.spans = []
        self.dropped = 0
        self.next_id = 1
        self.job = 0
        self._saved = []
        self.reset()

    def reset(self) -> None:
        """Start a new accounting period (one traced pass)."""
        self.stats = [[0, 0.0, 0] for _ in self.keys]  # calls, self_s, failed
        self.counters = dict.fromkeys(COUNTERS, 0)

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, k: int, fn):
        stack, spans = self.stack, self.spans
        tracer = self
        observe = _OBSERVERS.get(self.keys[k])

        def traced(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id = sid + 1
            frame = [k, perf_counter(), 0.0, sid]
            parent = stack[-1] if stack else None
            stack.append(frame)
            failed = 0
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(tracer, args, result, parent)
                return result
            except BaseException:
                failed = 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[1]
                if parent is not None:
                    parent[2] += dur
                st = tracer.stats[k]
                st[0] += 1
                st[1] += dur - frame[2]
                st[2] += failed
                if len(spans) < SPAN_CAP:
                    spans.append((sid, parent[3] if parent else 0, tracer.job,
                                  k, frame[1], end, failed))
                else:
                    tracer.dropped += 1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self) -> None:
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "leavitt" or name.startswith("leavitt.")}
        for k, key in enumerate(self.keys):
            mod_name, attr = key.split(".", 1)
            home = mods[f"leavitt.{mod_name}"]
            if "." in attr:  # a method: wrap it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(k, orig))
                continue
            orig = getattr(home, attr)
            wrapper = self._wrap(k, orig)
            for mod in mods.values():
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, name, orig))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._saved):
            setattr(owner, name, orig)
        self._saved.clear()

    # -- results ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-layer metrics accumulated since the last reset."""
        out = {}
        for mod in MODULES:
            rows = [(key, st) for key, st in zip(self.keys, self.stats)
                    if key.startswith(mod + ".")]
            out[f"{mod}.calls"] = sum(st[0] for _, st in rows)
            out[f"{mod}.self_s"] = sum(st[1] for _, st in rows)
            out[f"{mod}.failed"] = sum(st[2] for _, st in rows)
            if mod == "cli":
                continue
            for key, st in rows:
                out[f"{key}.calls"] = st[0]
                out[f"{key}.self_s"] = st[1]
        c = self.counters
        out["algebra.normal_form.terms_in"] = c["algebra.normal_form.terms_in"]
        out["algebra.normal_form.terms_out"] = c["algebra.normal_form.terms_out"]
        closures = c["graph.all_hereditary_saturated.closures"]
        out["graph.all_hereditary_saturated.useful_ratio"] = (
            c["graph.all_hereditary_saturated.distinct"] / closures if closures else 0.0)
        return out

    def dump(self) -> dict:
        return {"names": self.keys,
                "columns": ["id", "parent", "job", "name", "start", "end", "failed"],
                "spans": self.spans, "dropped": self.dropped}


def _normal_form_terms(tracer, args, result, parent) -> None:
    c = tracer.counters
    c["algebra.normal_form.terms_in"] += len(args[1])
    c["algebra.normal_form.terms_out"] += result.support_size()


def _closure_under_enumeration(tracer, args, result, parent) -> None:
    if parent is not None and tracer.keys[parent[0]] == "graph.all_hereditary_saturated":
        tracer.counters["graph.all_hereditary_saturated.closures"] += 1


def _distinct_sets(tracer, args, result, parent) -> None:
    tracer.counters["graph.all_hereditary_saturated.distinct"] += len(result)


_OBSERVERS = {
    "algebra.normal_form": _normal_form_terms,
    "graph.hereditary_saturated_closure": _closure_under_enumeration,
    "graph.all_hereditary_saturated": _distinct_sets,
}
