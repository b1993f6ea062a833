"""Rounds, timing, answer tallies and the result record.

A run makes its inputs once (untimed), sets up SETUP_REPEATS times to time
set-up, then repeats whole rounds until the time is up.  A round starts
from a fresh import of groupalg, so table builds that groupalg caches per
process (extension fields, embeddings) are paid in every round, as they are
by every CLI call.  Every operation's answer is checked; an operation that
raises or answers wrongly counts as failed, and a wrong answer also makes
`correct` false.

A traced run spends the first half of its time on untraced rounds and the
second half on rounds with tracing.Tracer installed; the difference of the
two medians of operation time is the tracing overhead.  Both halves repeat
each CLI call in this process through cli.main: the untraced calls time
cli.main without wrappers, the traced ones give the cli.* spans.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import os
import resource
import statistics
import sys
import time
from collections import defaultdict

import tracing
import workloads as W

SETUP_REPEATS = 9

END_TO_END = [  # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
    ("rank_gf2_s", "s", "lower", 0.25),
    ("rank_gfp_s", "s", "lower", 0.25),
    ("rank_gfext_s", "s", "lower", 0.25),
    ("idempotent_s", "s", "lower", 0.25),
    ("charpoly_s", "s", "lower", 0.25),
    ("code_build_s", "s", "lower", 0.25),
    ("mulmuley_random_s", "s", "lower", 0.25),
    ("mulmuley_exact_s", "s", "lower", 0.25),
    ("small_ops_per_s", "ops/s", "higher", 0.25),
    ("cli_call_ms", "ms", "lower", 0.25),
    ("min_distance_s", "s", "lower", 0.25),
]
TIMED = [name for name, unit, _, _ in END_TO_END if unit == "s" and name != "setup_s"]

DIM_FUNCS = ("dim_ideal", "dim_bound_charpoly", "idempotent_generator", "annihilator_basis",
             "ideal_membership", "dim_mulmuley_exact", "dim_mulmuley_random")
MODULES = ("field", "linalg", "groups", "algebra", "representation", "dimension", "gcode",
           "cli", "selftest")
PER_LAYER = (  # name, unit, better
    [("field.calls", "count", "lower"), ("field.elements", "count", "lower"),
     ("field.make_field_s", "s", "lower"),
     ("linalg.rank.s", "s", "lower"), ("linalg.rank.calls", "count", "lower"),
     ("linalg.rank.cells", "count", "lower"),
     ("linalg.rref.s", "s", "lower"), ("linalg.solve.s", "s", "lower"),
     ("linalg.kernel_basis.s", "s", "lower"), ("linalg.matmul.s", "s", "lower"),
     ("linalg.charpoly.s", "s", "lower"), ("linalg.charpoly.calls", "count", "lower"),
     ("linalg.charpoly_xm.s", "s", "lower"), ("linalg.charpoly_xm.nodes", "count", "lower"),
     ("groups.make_group.s", "s", "lower"),
     ("algebra.mul.s", "s", "lower"), ("algebra.mul.calls", "count", "lower"),
     ("representation.calls", "count", "lower")]
    + [(f"dimension.{fn}.{what}", unit, "lower") for fn in DIM_FUNCS
       for what, unit in (("s", "s"), ("calls", "count"))]
    + [("dimension.mulmuley_random.trials", "count", "lower"),
       ("dimension.mulmuley_random.misses", "count", "lower"),
       ("gcode.build_code.s", "s", "lower"), ("gcode.min_distance.s", "s", "lower"),
       ("cli.main.s", "s", "lower"), ("cli.startup_s", "s", "lower")]
    + [(f"{mod}.self_s", "s", "lower") for mod in MODULES]
    + [("trace.overhead_s", "s", "lower")]
)


class Tally:
    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.notes = []

    def fail(self, op, what: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        if len(self.notes) < 20:
            self.notes.append(f"{op.metric or 'op'} {op.argv or ''}: {what}"[:300])


class Round:
    def __init__(self):
        self.sums = defaultdict(float)
        self.small_n, self.small_t, self.op_time = 0, 0.0, 0.0
        self.cli, self.cli_inproc = [], []
        self.misses = 0
        self.wall = 0.0  # set-up plus operations and checks


def _checked(op, result) -> bool:
    try:
        return bool(op.check(result))
    except Exception:  # a malformed answer is a wrong answer
        return False


def _cli_in_process(ga_cli, tracer, cli_spans, argv, expected: bytes):
    """Run cli.main(argv) in this process; under a tracer, with its spans
    kept apart from the operations' spans."""
    if tracer is not None:
        saved, tracer.spans = tracer.spans, cli_spans
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = ga_cli.main(list(argv))
    finally:
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.spans = saved
    return code == 0 and buf.getvalue().encode() == expected, dt


def schedule(ops) -> list:
    """Every execution of every operation, each metric's executions spread
    evenly over the round, so that each metric samples the whole round."""
    runs = [op for op in ops for _ in range(op.reps)]
    by_metric = defaultdict(list)
    for i, op in enumerate(runs):
        by_metric[op.metric].append(i)
    pos = {i: (j + 0.5) / len(idx) for idx in by_metric.values() for j, i in enumerate(idx)}
    return [runs[i] for i in sorted(range(len(runs)), key=lambda i: (pos[i], i))]


def run_round(ops, tally: Tally, cli_in_process=False, tracer=None, cli_spans=None) -> Round:
    """One pass over the schedule, with the cyclic garbage collector paused
    (as timeit does) so that its passes do not land on some operations.
    With cli_in_process, each CLI call is repeated through cli.main."""
    gc.collect()
    gc.disable()
    try:
        return _run_schedule(ops, tally, cli_in_process, tracer, cli_spans)
    finally:
        gc.enable()


def _run_schedule(ops, tally: Tally, cli_in_process, tracer, cli_spans) -> Round:
    rnd = Round()
    ga_cli = sys.modules.get("groupalg.cli")
    for op in schedule(ops):
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            result = op.fn()
        except Exception as exc:  # counted as a failed operation, the run goes on
            tally.fail(op, f"raised {exc!r}", wrong=False)
            continue
        dt = time.perf_counter() - t0
        ok = _checked(op, result)
        if op.argv is not None:
            rnd.cli.append(dt)
            if cli_in_process and ok:
                ok, t_in = _cli_in_process(ga_cli, tracer, cli_spans, op.argv, result.stdout)
                rnd.cli_inproc.append(t_in)
        else:
            rnd.op_time += dt
            if op.metric:
                rnd.sums[op.metric] += dt
            if op.small:
                rnd.small_n += 1
                rnd.small_t += dt
        if not ok:
            tally.fail(op, f"wrong answer {str(result)[:120]}", wrong=True)
        elif op.expect is not None and result < op.expect:
            rnd.misses += 1
    return rnd


# -- fresh imports --

def _groupalg_modules() -> dict:
    return {k: v for k, v in sys.modules.items() if k == "groupalg" or k.startswith("groupalg.")}


def fresh_import(src: str, with_cli: bool):
    for name in _groupalg_modules():
        del sys.modules[name]
    ga = importlib.import_module("groupalg")
    if not os.path.abspath(ga.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"groupalg was imported from {ga.__file__}, not from {src}")
    if with_cli:
        importlib.import_module("groupalg.cli")
        importlib.import_module("groupalg.selftest")
    return ga


def setup(setup_fn, raw, src: str, with_cli=False, tracer=None):
    """Import groupalg afresh and build the inputs; returns (ops, seconds)."""
    t0 = time.perf_counter()
    ga = fresh_import(src, with_cli)
    if tracer is not None:
        tracer.install()
    ops = setup_fn(ga, raw)
    return ops, time.perf_counter() - t0


# -- metrics --

def e2e_metrics(rounds, setup_samples) -> dict:
    med = statistics.median
    out = {"setup_s": med(setup_samples),
           "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    for name in TIMED:
        out[name] = med(r.sums[name] for r in rounds)
    out["small_ops_per_s"] = med(r.small_n / r.small_t for r in rounds)
    out["cli_call_ms"] = 1000 * med(t for r in rounds for t in r.cli)
    return out


def layer_metrics(spans: tracing.Spans, cli_spans: tracing.Spans, traced, untraced) -> dict:
    """Per traced round, except the cli.* figures, which are per CLI call;
    cli.main.s and cli.startup_s come from the untraced rounds."""
    n = len(traced)
    tot, calls, work = spans.total, spans.calls, spans.work
    out = {
        "field.calls": work["field.calls"] / n,
        "field.elements": work["field.elements"] / n,
        "field.make_field_s": tot["field.make_field"] / n,
        "linalg.rank.cells": work["linalg.rank.cells"] / n,
        "linalg.charpoly_xm.nodes": work["linalg.charpoly_xm.nodes"] / n,
        "representation.calls": sum(c for k, c in calls.items()
                                    if k.startswith("representation.")) / n,
        "dimension.mulmuley_random.trials": work["dimension.mulmuley_random.trials"] / n,
        "dimension.mulmuley_random.misses": sum(r.misses for r in traced) / n,
        "trace.overhead_s": (statistics.median(r.op_time for r in traced)
                             - statistics.median(r.op_time for r in untraced)),
    }
    for key in ("linalg.rank", "linalg.rref", "linalg.solve", "linalg.kernel_basis",
                "linalg.matmul", "linalg.charpoly", "linalg.charpoly_xm", "groups.make_group",
                "algebra.mul", "gcode.build_code", "gcode.min_distance"):
        out[f"{key}.s"] = tot[key] / n
        out[f"{key}.calls"] = calls[key] / n
    for fn in DIM_FUNCS:
        out[f"dimension.{fn}.s"] = tot[f"dimension.{fn}"] / n
        out[f"dimension.{fn}.calls"] = calls[f"dimension.{fn}"] / n
    ncli = max(1, cli_spans.calls["cli.main"])
    inproc = [t for r in untraced for t in r.cli_inproc]
    sub = [t for r in untraced for t in r.cli]
    out["cli.main.s"] = statistics.median(inproc) if inproc else 0.0
    out["cli.startup_s"] = statistics.median(sub) - out["cli.main.s"] if sub else 0.0
    for mod in MODULES:
        if mod in ("cli", "selftest"):
            out[f"{mod}.self_s"] = cli_spans.self_s[mod] / ncli
        else:
            out[f"{mod}.self_s"] = spans.self_s[mod] / n
    return {name: out[name] for name, _, _ in PER_LAYER}


def _room(rounds, start: float, until: float) -> bool:
    """Whether one more round, as long as the mean so far, ends by `until`."""
    mean = sum(r.wall for r in rounds) / len(rounds)
    return time.perf_counter() + mean <= until


def run(workload: str, seed: int, seconds: float, trace: bool, root: str,
        small: bool = False) -> tuple:
    """One benchmark run; returns the result record and a detail record."""
    make_raw, setup_fn = W.WORKLOADS[workload]
    src = os.path.join(root, "src")
    raw = make_raw(seed, small)
    raw.update(root=root, cli_env=W.cli_env(root), cli_seen={})
    saved = _groupalg_modules()
    tally, setup_samples, untraced, traced = Tally(), [], [], []
    tracer = cli_spans = None
    try:
        for _ in range(SETUP_REPEATS):
            gc.collect()
            setup_samples.append(setup(setup_fn, raw, src)[1])
        start = time.perf_counter()
        plain_until = start + (seconds / 2 if trace else seconds)
        while not untraced or _room(untraced, start, plain_until):
            gc.collect()
            t0 = time.perf_counter()
            ops, t = setup(setup_fn, raw, src, with_cli=trace)
            setup_samples.append(t)
            untraced.append(run_round(ops, tally, cli_in_process=trace))
            untraced[-1].wall = time.perf_counter() - t0
            del ops  # the next round's set-up starts from an empty slate
        if trace:
            tracer, cli_spans = tracing.Tracer(), tracing.Spans()
            while not traced or _room(traced, start, start + seconds):
                gc.collect()
                t0 = time.perf_counter()
                ops, _ = setup(setup_fn, raw, src, with_cli=True, tracer=tracer)
                traced.append(run_round(ops, tally, True, tracer, cli_spans))
                traced[-1].wall = time.perf_counter() - t0
                del ops
    finally:
        for name in _groupalg_modules():
            del sys.modules[name]
        sys.modules.update(saved)
    if trace:
        values = layer_metrics(tracer.spans, cli_spans, traced, untraced)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values = e2e_metrics(untraced, setup_samples)
        units = {name: unit for name, unit, _, _ in END_TO_END}
    result = {"correct": tally.wrong == 0, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    detail = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "rounds": len(untraced), "traced_rounds": len(traced),
              "setup_samples": setup_samples, "failures": tally.notes,
              "round_sums": [dict(r.sums) for r in untraced],
              "spans": tracer.spans.as_dict() if tracer else None,
              "cli_spans": cli_spans.as_dict() if cli_spans else None}
    return result, detail
