"""Benchmark for the leavitt CLI: one workload per run, in-process.

    python3 bench/run.py --workload verdicts --seed 1 --seconds 15 --trace 0

Runs every job of the workload through ``leavitt.cli.main(argv)`` with
``--format json`` and stdout captured, checks each output, and prints one
JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
untraced and traced passes alternate and the metrics are the per-layer ones
(see README.md).  Graph documents, a per-job table and the spans go to
``.bench_out/<workload>/`` under the checkout root.  Exit code 2 means the
benchmark could not run (for example, no ``src/leavitt`` next to it).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import statistics
import sys
from time import perf_counter
from typing import NamedTuple

import families
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 3
MIN_SAMPLES = 110  # so that at least 10 samples lie beyond p90

# The CPU this benchmark runs on changes speed by up to 1.65x for seconds
# at a time (other tenants of the host), which moved raw per-run medians by
# 26% between runs.  So each timed interval is bracketed by a fixed
# pure-Python calibration loop, and the end-to-end times are scaled to the
# speed at which that loop takes CAL_REF_S: "reference seconds".  Raw wall
# times stay in rows.json and on the summary line.
CAL_REF_S = 0.00055


def _calibration_loop() -> int:
    s = 0
    d: dict = {}
    for i in range(4000):
        d[i % 97] = d.get(i % 97, 0) + i
        s += i * i
    return s


def calibrate() -> float:
    """Seconds the calibration loop takes now; a first, untimed run brings
    it back into cache after the job before."""
    _calibration_loop()
    t = perf_counter()
    _calibration_loop()
    return perf_counter() - t


def scaled(seconds: float, before: float, after: float) -> float:
    """Wall seconds converted to reference seconds."""
    return seconds * 2 * CAL_REF_S / (before + after)


class Sample(NamedTuple):
    wall: float
    ref: float  # reference seconds
    outcome: str  # "ok" or why the job failed
    nbytes: int
    sha: str


class Context:
    """What job construction needs from the program at set-up time: the
    independent oracle for path counts, and the checkout root."""

    def __init__(self, root: str, graphio, oracle):
        self.root = root
        self._graphio = graphio
        self._oracle = oracle

    def _graph(self, g: families.Graph):
        return self._graphio.parse_graph_document(json.dumps(g.document()))

    def facts(self, g: families.Graph) -> families.Graph:
        lg = self._graph(g)
        cap = len(g.vertices)
        return families.derive_facts(
            g, lambda v: len(self._oracle.enumerate_paths_ending_at(lg, v, cap)))

    def paths_into(self, g: families.Graph, v: str) -> list:
        paths = self._oracle.enumerate_paths_ending_at(self._graph(g), v, len(g.vertices))
        return [(p.base, [(e.bundle, e.index) for e in p.edges]) for p in paths]


class Runner:
    """Runs jobs through the CLI and keeps the verified output hash per job,
    so a repeated output is checked by hash and a changed one in full."""

    def __init__(self, cli, jobs: list, paths: list):
        self.cli = cli
        self.jobs = jobs
        self.paths = paths
        self.verified = [None] * len(jobs)

    def run(self, i: int) -> Sample:
        job = self.jobs[i]
        argv = job.argv(self.paths[i])
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        before = calibrate()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
            outcome = "ok" if code == 0 else f"exit {code}"
        except (Exception, SystemExit) as exc:  # a failing job never stops the run
            outcome = type(exc).__name__
        wall = perf_counter() - t0
        ref = scaled(wall, before, calibrate())
        data = out.getvalue().encode()
        sha = hashlib.sha256(data).hexdigest()
        if outcome == "ok" and sha != self.verified[i]:
            outcome = self._check(job, data)
            if outcome == "ok":
                self.verified[i] = sha
        return Sample(wall, ref, outcome, len(data), sha)

    @staticmethod
    def _check(job, data: bytes) -> str:
        try:
            problem = job.check(job.graph, json.loads(data), job.expect)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problem = f"malformed output ({type(exc).__name__}: {exc})"
        return "ok" if problem is None else f"wrong: {problem}"


def write_graphs(out_dir: str, jobs: list) -> list:
    gdir = os.path.join(out_dir, "graphs")
    os.makedirs(gdir, exist_ok=True)
    paths = []
    for i, job in enumerate(jobs):
        path = os.path.join(gdir, f"{i:03d}-{job.graph.name}.graph")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(job.graph.document(), fh)
        paths.append(path)
    return paths


def setup(name: str, seed: int, ctx: Context, cli, out_dir: str) -> tuple:
    """Build inputs and expected answers from the seed, write the graph
    documents and make one warm-up pass.  Returns (runner, probe runner,
    reference seconds taken)."""
    before = calibrate()
    t = perf_counter()
    jobs, probe = workloads.WORKLOADS[name](random.Random(seed), ctx)
    paths = write_graphs(out_dir, jobs + probe)
    build = scaled(perf_counter() - t, before, calibrate())
    runner = Runner(cli, jobs, paths[:len(jobs)])
    warm = sum(runner.run(i).ref for i in range(len(jobs)))
    return runner, Runner(cli, probe, paths[len(jobs):]), build + warm


def quantile(values: list, q: int) -> float:
    """The q-th decile (q in 1..9) by statistics.quantiles."""
    return statistics.quantiles(values, n=10)[q - 1] if len(values) > 1 else values[0]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "leavitt", "__init__.py")):
        print(f"error: no leavitt package under {src}", file=sys.stderr)
        return 2
    before = calibrate()
    t0 = perf_counter()
    sys.path.insert(0, src)
    from leavitt import cli, graphio, oracle
    import_s = scaled(perf_counter() - t0, before, calibrate())
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"error: imported leavitt from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    out_dir = os.path.join(ROOT, ".bench_out", args.workload)
    ctx = Context(ROOT, graphio, oracle)
    setups = []
    for _ in range(SETUP_REPEATS):
        runner, probe_runner, took = setup(args.workload, args.seed, ctx, cli, out_dir)
        setups.append(took)
    setup_s = import_s + statistics.median(setups)

    jobs = runner.jobs
    tracer = tracing.Tracer() if args.trace else None
    samples = [[] for _ in jobs]
    pass_s = {False: [], True: []}  # traced? -> reference seconds of each pass
    layer = []
    stdout_bytes = 0
    min_passes = max(2, -(-MIN_SAMPLES // len(jobs)))
    deadline = perf_counter() + args.seconds
    npass = 0
    while npass < min_passes or perf_counter() < deadline:
        traced = bool(tracer) and npass % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        took = 0.0
        try:
            for i in range(len(jobs)):
                if tracer:
                    tracer.job = i + 1
                s = runner.run(i)
                samples[i].append(s)
                took += s.ref
                stdout_bytes += s.nbytes if traced else 0
        finally:
            if traced:
                tracer.uninstall()
        pass_s[traced].append(took)
        if traced:
            layer.append(tracer.snapshot())
        npass += 1

    probe = [probe_runner.run(i) for i in range(len(probe_runner.jobs))]

    ref = [s.ref for row in samples for s in row]
    attempted = len(ref)
    failed = sum(s.outcome != "ok" for row in samples for s in row)
    probe_failed = sum(s.outcome != "ok" for s in probe)
    probe_wrong = sum(s.outcome.startswith("wrong") for s in probe)
    medians = [statistics.median(s.ref for s in row) for row in samples]

    def row(job, rows, is_probe=False):
        return {"family": job.graph.family, "size": job.graph.size,
                "command": " ".join(job.command), "samples": len(rows),
                "median_ms": 1e3 * statistics.median(s.wall for s in rows),
                "median_ref_ms": 1e3 * statistics.median(s.ref for s in rows),
                "outcome": next((s.outcome for s in rows if s.outcome != "ok"), "ok"),
                "stdout_sha256": rows[-1].sha, "probe": is_probe}

    table = [row(job, rows) for job, rows in zip(jobs, samples)]
    table += [row(job, [s], True) for job, s in zip(probe_runner.jobs, probe)]
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "rows.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "rows": table}, fh, indent=1)
    for r in table:
        print(f"{r['median_ms']:10.2f} ms {r['median_ref_ms']:10.2f} ref-ms  "
              f"{r['outcome']:<14} {r['command']} {r['family']}({r['size']})"
              + (" [probe]" if r["probe"] else ""), file=sys.stderr)

    if tracer:
        with open(os.path.join(out_dir, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
        metrics = {name: {"value": statistics.median(p[name] for p in layer),
                          "unit": tracing.unit(name)} for name in tracing.metric_names()}
        metrics["cli.stdout_bytes"] = {"value": stdout_bytes / len(layer), "unit": "bytes"}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(pass_s[True]) - statistics.median(pass_s[False]),
            "unit": "s"}
        metrics["probe.failed"] = {"value": probe_failed, "unit": "count"}
    else:
        metrics = {
            "jobs_per_s": {"value": len(jobs) / sum(medians), "unit": "1/s"},
            "job_ms_p50": {"value": 1e3 * statistics.median(ref), "unit": "ms"},
            "job_ms_p90": {"value": 1e3 * quantile(ref, 9), "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    wall = [s.wall for row in samples for s in row]
    print(json.dumps({"workload": args.workload, "jobs": len(jobs), "passes": npass,
                      "samples": attempted, "samples_beyond_p90": attempted // 10,
                      "failed_ratio": failed / attempted, "probe_failed": probe_failed,
                      "probe_jobs": len(probe), "wall_job_ms_p50": 1e3 * statistics.median(wall),
                      "wall_job_ms_p90": 1e3 * quantile(wall, 9)}))
    print(json.dumps({"correct": failed == 0 and probe_wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
