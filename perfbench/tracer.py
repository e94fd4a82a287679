"""Span recorder for the traced benchmark pass.

Wraps public functions of each poisonring layer at the module attribute their
callers look up, records one span per call (name, start, end, parent) in flat
arrays, and computes self time afterwards as span time minus the time of its
direct child spans. Counters that classify calls (clean, suppressed, poisoned
binops; firing updates; events per run) are taken at the same boundaries.
Spans stay in memory while the pass runs and are written out at the end.
"""

from __future__ import annotations

import gc
import json
import time
from array import array
from collections import Counter

SPAN_FORMAT = "perfbench-spans-1"

# Array layout of a span file, after its one-line JSON header.
_ARRAYS = (("name", "H"), ("parent", "i"), ("start", "d"), ("end", "d"))


class Tracer:
    """Records spans and counters while installed; restores every wrapped attribute on uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self.gc_s = 0.0
        self.gc_collections = 0
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self._gc_started = 0.0

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _begin(self, name_id: int) -> int:
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(time.perf_counter())
        return index

    def _end(self, index: int) -> None:
        self.span_end[index] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn):
        """fn wrapped so that every call records one span named `name`."""
        name_id = self._name_id(name)
        begin, end = self._begin, self._end

        def traced(*args, **kwargs):
            index = begin(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                end(index)

        return traced

    def scope(self, name: str, make_cm):
        """A context-manager factory wrapped so that each scope, enter to exit, is one span."""
        name_id = self._name_id(name)
        tracer = self

        class _Scope:
            __slots__ = ("cm", "index")

            def __enter__(self):
                return self.cm.__enter__()

            def __exit__(self, *exc):
                try:
                    return self.cm.__exit__(*exc)
                finally:
                    tracer._end(self.index)

        def traced(*args, **kwargs):
            scope = _Scope()
            scope.index = tracer._begin(name_id)
            scope.cm = make_cm(*args, **kwargs)
            return scope

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _gc_callback(self, phase, info):
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_started
            self.gc_collections += 1

    def start_gc(self) -> None:
        gc.callbacks.append(self._gc_callback)

    def uninstall(self) -> None:
        """Restore every patched attribute, most recent first, and stop GC timing."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    # -- analysis ------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        return span_totals(self.names, self.span_name, self.span_parent,
                           self.span_start, self.span_end)

    def write(self, path) -> None:
        header = {
            "format": SPAN_FORMAT,
            "clock": "time.perf_counter, seconds",
            "count": len(self.span_start),
            "names": self.names,
            "arrays": [f"{field}:{code}" for field, code in _ARRAYS],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
                column.tofile(fh)


def span_totals(names, span_name, span_parent, span_start, span_end):
    """Aggregate spans by name; self time is duration minus direct children's duration."""
    durations = array("d", (end - start for start, end in zip(span_start, span_end)))
    self_time = array("d", durations)
    for index, parent in enumerate(span_parent):
        if parent >= 0:
            self_time[parent] -= durations[index]
    totals = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in names}
    for name_id, duration, own in zip(span_name, durations, self_time):
        entry = totals[names[name_id]]
        entry["calls"] += 1
        entry["s"] += duration
        entry["self_s"] += own
    return totals


def read_spans(path):
    """Read a span file written by Tracer.write: (names, name ids, parents, starts, ends)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        if header.get("format") != SPAN_FORMAT:
            raise ValueError(f"{path}: not a {SPAN_FORMAT} file")
        count = header["count"]
        columns = []
        for _, code in _ARRAYS:
            column = array(code)
            column.fromfile(fh, count)
            columns.append(column)
    return (header["names"], *columns)


def install(tracer: Tracer) -> None:
    """Wrap each layer of poisonring at the attributes its callers read."""
    import poisonring as pkg
    from poisonring import cli, poison_core, ring_sim, trace_metrics

    kernel = poison_core.kernel
    counts = tracer.counts
    is_poisoned = poison_core.is_poisoned

    for name in ("clean_binop", "bernoulli", "apply_deviation", "stream_child"):
        tracer.patch(kernel, name, tracer.span(f"kernel.{name}", getattr(kernel, name)))

    binop = ring_sim.binop

    def classified_binop(op, lhs, rhs, ctx):
        # Classified on entry from the operands and ctx; "deviated" refines
        # "poisoned" from the event the call appends, when the sink keeps it.
        if ctx.suppression_depth > 0:
            counts["binop.suppressed"] += 1
            return binop(op, lhs, rhs, ctx)
        if not (is_poisoned(lhs) or is_poisoned(rhs)):
            counts["binop.clean"] += 1
            return binop(op, lhs, rhs, ctx)
        counts["binop.poisoned"] += 1
        step = ctx.step_counter
        result = binop(op, lhs, rhs, ctx)
        sink = ctx.event_sink
        if sink and sink[-1].step == step and sink[-1].deviated:
            counts["binop.deviated"] += 1
        return result

    tracer.patch(ring_sim, "binop", tracer.span("poison_core.binop", classified_binop))
    tracer.patch(poison_core.EvalContext, "suppression",
                 tracer.scope("poison_core.suppression", poison_core.EvalContext.suppression))

    update = ring_sim.update

    def counted_update(state, node, ctx, snapshots):
        before = len(snapshots)
        result = update(state, node, ctx, snapshots)
        if len(snapshots) != before:
            counts["update.fired"] += 1
        return result

    tracer.patch(ring_sim, "update", tracer.span("ring_sim.update", counted_update))
    for name in ("has_privilege", "out"):
        tracer.patch(ring_sim, name, tracer.span(f"ring_sim.{name}", getattr(ring_sim, name)))

    run = ring_sim.run

    def counted_run(config, injections=(), ctx=None):
        before = ctx.step_counter if ctx is not None else 0
        result = run(config, injections, ctx)
        counts["run.calls"] += 1
        if ctx is not None:
            counts["run.events"] += ctx.step_counter - before
        return result

    traced_run = tracer.span("ring_sim.run", counted_run)
    tracer.patch(cli, "run", traced_run)
    tracer.patch(pkg, "run", traced_run)

    tracer.patch(trace_metrics, "dumps_record",
                 tracer.span("trace_metrics.dumps_record", trace_metrics.dumps_record))
    tracer.patch(cli, "write_record", tracer.span("trace_metrics.write_record", cli.write_record))
    tracer.patch(pkg, "read_record", tracer.span("trace_metrics.read_record", pkg.read_record))
    for name in ("deviation_stats", "convergence_point"):
        tracer.patch(cli, name, tracer.span(f"trace_metrics.{name}", getattr(cli, name)))
    for name in ("scenario_digest", "execute_scenario", "cmd_run", "cmd_sweep",
                 "load_scenario", "main"):
        tracer.patch(cli, name, tracer.span(f"cli.{name}", getattr(cli, name)))
    tracer.start_gc()
