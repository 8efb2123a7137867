"""Span recorder for the traced benchmark pass.

`instrument` rebinds the module attributes through which wsnsim calls its own
layers (for example `engine.elect_heads`, which the engine imported from
`protocols`) to wrappers that record one span per call: id, parent, name,
start, end and a tuple of counters.  Spans stay in memory until the pass
writes them out.  Counters come only from a call's arguments, its return value
and the size of the file it wrote, and each costs O(1), so computing them does
not inflate the parent's self time.

Under the fork start method, pool workers inherit the wrappers together with
the open parent span.  A recorder given a `flush_dir` writes each worker's
spans to that directory whenever the worker's outermost span closes, so the
launching process can merge them.

`LayerStats` folds a unit's spans into per-layer totals and checks their
structure: every engine.simulate_round, engine.run and cli.run_batch span must
have exactly the children its call makes (merged worker spans included), and
every child must lie inside its parent.
"""

from __future__ import annotations

import csv
import functools
import itertools
import os
import pickle
import statistics
import time
from collections import Counter, defaultdict

clock = time.perf_counter

# fields of a span tuple; sid and parent are (pid, serial) pairs
SID, PARENT, NAME, T0, T1, COUNTERS = range(6)

REPORT_WRITERS = (
    "write_series",
    "write_summary",
    "write_comparison",
    "write_mean_curves",
    "write_sweep",
)


def clock_resolution() -> float:
    """Smallest step the span clock shows: the declared resolution or the
    smallest positive difference between back-to-back reads, whichever is
    larger."""
    step = float("inf")
    for _ in range(1000):
        a = clock()
        b = clock()
        while b == a:
            b = clock()
        step = min(step, b - a)
    return max(time.get_clock_info("perf_counter").resolution, step)


class Recorder:
    def __init__(self, flush_dir: str | None = None):
        self.pid = os.getpid()
        self.ids = itertools.count()
        self.stack: list[tuple[int, int]] = []
        self.spans: list[tuple] = []
        self.flush_dir = flush_dir
        self.fork_depth: int | None = None
        if flush_dir is not None:
            os.register_at_fork(after_in_child=self._after_fork_in_child)

    def _after_fork_in_child(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self.fork_depth = len(self.stack)

    def flush(self) -> None:
        path = os.path.join(self.flush_dir, f"{self.pid}-{next(self.ids)}.pkl")
        with open(path, "wb") as fh:
            pickle.dump(self.spans, fh)
        self.spans = []

    def call(self, name, fn, count, args, kwargs):
        stack = self.stack
        parent = stack[-1] if stack else None
        sid = (self.pid, next(self.ids))
        stack.append(sid)
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = clock()
            stack.pop()
        self.spans.append(
            (sid, parent, name, t0, t1, count(args, result) if count else None)
        )
        if self.fork_depth is not None and len(stack) == self.fork_depth:
            self.flush()
        return result

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, count, args, kwargs)

        return wrapper


# Counter functions: (args, result) -> tuple.  Positional indices follow the
# call sites in wsnsim.engine and wsnsim.cli.


def _elect(args, heads):
    # engine passes only alive nodes, and every alive node draws once
    return (len(args[1]), len(heads))


def _form(args, assignment):
    nodes, heads = args[0], args[1]
    h = len(heads)
    return ((len(nodes) - h) * h, int(h == 0))


def _costs(args, tr):
    return (len(tr.costs),)


def _run(args, result):
    config = args[0]
    return (config.n - result.series[-1].alive_total, len(result.series))


def _batch(args, results):
    return (sum(len(pickle.dumps(r)) for r in results), len(args[0]))


def _file_bytes(args, result):
    return (os.path.getsize(args[1]),)


def instrument(recorder: Recorder, cli, engine, report):
    """Install the wrappers; returns a function that removes them."""
    targets = [
        (engine, "elect_heads", "protocols.elect_heads", _elect),
        (engine, "form_clusters", "protocols.form_clusters", _form),
        (engine, "transmission_costs", "engine.transmission_costs", _costs),
        (engine, "simulate_round", "engine.simulate_round", None),
        (engine, "deploy", "model.deploy", None),
        (engine, "initial_state", "engine.initial_state", None),
        (engine, "run", "engine.run", _run),
        (cli, "run_batch", "cli.run_batch", _batch),
        (report, "aggregate", "report.aggregate", None),
    ] + [(report, f, f"report.{f}", _file_bytes) for f in REPORT_WRITERS]
    saved = []
    for module, attr, name, count in targets:
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, recorder.wrap(name, original, count))

    def restore():
        for module, attr, original in saved:
            setattr(module, attr, original)

    return restore


def load_flushed(directory: str) -> list[tuple]:
    """All spans pickled into `directory` by `Recorder.flush`."""
    spans: list[tuple] = []
    for entry in sorted(os.listdir(directory)):
        if entry.endswith(".pkl"):
            with open(os.path.join(directory, entry), "rb") as fh:
                spans.extend(pickle.load(fh))
    return spans


def write_csv(spans, path, unit) -> None:
    """Append one unit's spans to the CSV at `path`, creating it if needed."""
    new = not os.path.exists(path)
    with open(path, "a", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        if new:
            w.writerow(["unit", "pid", "id", "parent_pid", "parent_id", "name",
                        "start", "end", "counters"])
        for sid, parent, name, t0, t1, counters in spans:
            pp, pk = parent if parent else ("", "")
            w.writerow([unit, sid[0], sid[1], pp, pk, name, repr(t0), repr(t1),
                        "" if counters is None else " ".join(map(str, counters))])


def _union(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def expected_children(span) -> dict[str, int] | None:
    """The children, by name and count, that the call behind `span` makes;
    None for spans whose children are not checked."""
    name, c = span[NAME], span[COUNTERS]
    if name == "engine.simulate_round":
        return {"protocols.elect_heads": 1, "protocols.form_clusters": 1,
                "engine.transmission_costs": 1}
    if name == "engine.run":  # counters: deaths, rounds
        return {"model.deploy": 1, "engine.initial_state": 1, "engine.simulate_round": c[1]}
    if name == "cli.run_batch":  # counters: result pickle bytes, configs
        return {"engine.run": c[1]}
    return None


class LayerStats:
    """Per-layer totals over every traced unit of a pass."""

    def __init__(self):
        self.resolution = clock_resolution()
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.bookkeeping_s = 0.0
        self.batch_busy = 0.0
        self.batch_capacity = 0.0
        self.problems: list[str] = []
        self.counters: dict[str, int] = defaultdict(int)

    def add_unit(self, spans) -> dict[str, int]:
        """Fold one unit's spans in; returns that unit's counters."""
        res = self.resolution
        children = defaultdict(list)
        unit = defaultdict(int)
        for s in spans:
            children[s[PARENT]].append(s)
            name, c = s[NAME], s[COUNTERS]
            self.durations[name].append(s[T1] - s[T0])
            if name == "protocols.elect_heads":
                unit["draws"] += c[0]
                unit["heads"] += c[1]
            elif name == "protocols.form_clusters":
                unit["pairs"] += c[0]
                unit["zero_head_rounds"] += c[1]
            elif name == "engine.transmission_costs":
                unit["cost_entries"] += c[0]
            elif name == "engine.run":
                unit["deaths"] += c[0]
            elif name == "cli.run_batch":
                unit["result_pickle_bytes"] += c[0]
            elif name.startswith("report.write_"):
                unit["bytes_written"] += c[0]
        for s in spans:
            want = expected_children(s)
            if want is None:
                continue
            kids = children.get(s[SID], [])
            got = Counter(k[NAME] for k in kids)
            if got != want:
                self._problem(f"{s[NAME]} has children {dict(got)}, expected {want}")
            for k in kids:
                if k[T0] < s[T0] - res or k[T1] > s[T1] + res or k[T1] < k[T0]:
                    self._problem(f"{k[NAME]} span lies outside its parent {s[NAME]}")
            dur = s[T1] - s[T0]
            self_time = dur - _union((k[T0], k[T1]) for k in kids)
            if self_time < -res:
                self._problem(f"{s[NAME]} self time is negative")
            if s[NAME] == "engine.simulate_round":
                self.bookkeeping_s += self_time
            elif s[NAME] == "cli.run_batch":
                pids = {k[SID][0] for k in kids}
                self.batch_busy += sum(k[T1] - k[T0] for k in kids)
                self.batch_capacity += dur * max(1, len(pids))
        for key, value in unit.items():
            self.counters[key] += value
        return dict(unit)

    def _problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)
        elif len(self.problems) == 20:
            self.problems.append("(further span problems not listed)")

    def metrics(self) -> dict[str, tuple[float, str]]:
        d = self.durations
        rounds = len(d["engine.simulate_round"]) or 1

        def per_round_us(name):
            return sum(d[name]) / rounds * 1e6

        def median(name, scale):
            return statistics.median(d[name]) * scale if d[name] else 0.0

        steps = sorted(d["engine.simulate_round"]) or [0.0]
        c = self.counters
        return {
            "protocols.elect_heads.us_per_round": (per_round_us("protocols.elect_heads"), "us"),
            "protocols.elect_heads.draws": (c["draws"], "count"),
            "protocols.elect_heads.heads": (c["heads"], "count"),
            "protocols.form_clusters.us_per_round": (per_round_us("protocols.form_clusters"), "us"),
            "protocols.form_clusters.pairs": (c["pairs"], "count"),
            "protocols.form_clusters.zero_head_rounds": (c["zero_head_rounds"], "count"),
            "engine.transmission_costs.us_per_round": (per_round_us("engine.transmission_costs"), "us"),
            "engine.transmission_costs.cost_entries": (c["cost_entries"], "count"),
            "engine.bookkeeping.us_per_round": (self.bookkeeping_s / rounds * 1e6, "us"),
            "engine.simulate_round.us_p50": (statistics.median(steps) * 1e6, "us"),
            "engine.simulate_round.us_p99": (steps[min(len(steps) - 1, int(0.99 * len(steps)))] * 1e6, "us"),
            "engine.deaths": (c["deaths"], "count"),
            "model.deploy.us": (median("model.deploy", 1e6), "us"),
            "engine.initial_state.us": (median("engine.initial_state", 1e6), "us"),
            "report.write_series.ms": (median("report.write_series", 1e3), "ms"),
            "report.aggregate.ms": (median("report.aggregate", 1e3), "ms"),
            "report.bytes_written": (c["bytes_written"], "B"),
            "cli.run_batch.s": (median("cli.run_batch", 1.0), "s"),
            "cli.result_pickle_bytes": (c["result_pickle_bytes"], "B"),
            "cli.worker_busy_frac": (
                self.batch_busy / self.batch_capacity if self.batch_capacity else 0.0,
                "frac",
            ),
        }
