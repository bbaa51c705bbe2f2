"""Per-layer spans recorded from outside the library.

``Tracer`` swaps selected module functions and class methods of an imported
``dsplan`` package for timing wrappers, and puts the originals back when its
``installed()`` context ends.  A module function is replaced under every
name that binds it in any loaded ``dsplan`` module, because modules import
each other's functions by name (``objectives`` calls its own binding of
``constraints.check_idx``).  A target that no longer exists is listed in
``missing`` and records nothing, so a later refactor that renames or stops
calling a function shows up as a count of 0, not as a crash.

Spans are recorded only while a ``Spans`` sink is attached; with no sink a
wrapper calls straight through.  Self time is a span's duration minus the
time of the spans it directly contains.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (span name, module, attribute path under the module, unit of the per-call
# metric).  The unit only scales the reported median.
SPANS = (
    ("model.load_dataset", "model", "load_dataset", "s"),
    ("model.validate", "model", "RelationMatrices.validate", "s"),
    ("model.save_dataset", "model", "save_dataset", "s"),
    ("geomsim.generate", "geomsim", "generate_synthetic", "s"),
    ("geomsim.build", "geomsim", "build_dataset", "s"),
    ("geomsim.x_if", "geomsim", "interference_free_matrices", "s"),
    ("geomsim.x_cf", "geomsim", "constraint_free_matrices", "s"),
    ("geomsim.contact", "geomsim", "contact_matrix", "s"),
    ("geomsim.motions", "geomsim", "synth_motion_table", "s"),
    ("ccg.build_ccg", "ccg", "build_ccg", "ms"),
    ("ccg.ccgi", "ccg", "ccgi_init", "us"),
    ("ccg.ri", "ccg", "random_init", "us"),
    ("ccg.fr", "ccg", "fr_init", "us"),
    ("ccg.sfr", "ccg", "sfr_init", "us"),
    ("constraints.check", "constraints", "check_idx", "us"),
    ("constraints.order", "constraints", "order_terms_idx", "us"),
    ("constraints.motion", "constraints", "motion_terms_idx", "us"),
    ("constraints.stability", "constraints", "stability_terms_idx", "us"),
    ("objectives.evaluator_init", "objectives", "Evaluator.__init__", "ms"),
    ("objectives.evaluate", "objectives", "Evaluator.evaluate_idx", "us"),
    ("objectives.objectives", "objectives", "Evaluator.objectives_idx", "us"),
    ("nsga3.run", "nsga3", "run", "s"),
    ("nsga3.sort", "nsga3", "non_dominated_sort", "ms"),
    ("nsga3.niche", "nsga3", "niche_select", "ms"),
    ("nsga3.crossover", "nsga3", "crossover", "us"),
    ("nsga3.mutate", "nsga3", "mutate", "us"),
    ("nsga3.cut_and_paste", "nsga3", "cut_and_paste", "us"),
    ("nsga3.break_and_join", "nsga3", "break_and_join", "us"),
    ("nsga3.to_json", "nsga3", "PlanResult.to_json", "ms"),
    ("nsga3.history_csv", "nsga3", "PlanResult.history_csv", "ms"),
    ("bench.init_benchmark", "bench", "init_benchmark", "s"),
)

# Spans that only orchestrate other layers.  Their own time is reported as
# self time; the spans directly beneath them count as top-level layer spans.
CONTAINERS = frozenset({"nsga3.run", "bench.init_benchmark", "geomsim.build"})

# The per-call metric of these spans is the median self time, because their
# duration is mostly the child spans reported on their own.
SELF_PER_CALL = frozenset({"objectives.evaluate"})

# Counters kept where the work happens: a count-only wrapper per pair sweep
# (geomsim's pair loops call it once per uncached part pair and axis), and
# hooks that read the arguments or result of a span.
PAIR_SWEEP = ("geomsim", "_blocked_offsets")


def _count_cells(counters: Counter, args, result) -> None:
    assembly = args[0]
    counters["geomsim.cells"] += sum(len(c) for c in assembly.cells.values())


def _count_flags(counters: Counter, args, flags) -> None:
    counters["constraints.checks"] += 1
    counters["constraints.available"] += bool(flags.available)
    if flags.first_violation is not None:
        counters["constraints.first_violation." + flags.first_violation[0]] += 1


HOOKS = {"geomsim.build": _count_cells, "constraints.check": _count_flags}

SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


class Spans:
    """Durations, self times and counters of the spans of one phase."""

    def __init__(self):
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.selfs: dict[str, list[float]] = defaultdict(list)
        self.counters: Counter = Counter()
        self.layer_time = 0.0
        self._stack: list[list] = []

    def enter(self, name: str) -> list:
        inside_layer = bool(self._stack) and (
            self._stack[-1][3] or self._stack[-1][0] not in CONTAINERS)
        frame = [name, time.perf_counter(), 0.0, inside_layer]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        duration = time.perf_counter() - frame[1]
        self._stack.pop()
        name, _, child_time, inside_layer = frame
        self.durations[name].append(duration)
        self.selfs[name].append(duration - child_time)
        if self._stack:
            self._stack[-1][2] += duration
        if not inside_layer and name not in CONTAINERS:
            self.layer_time += duration

    def total(self, name: str) -> float:
        return sum(self.durations.get(name, ()))


class Tracer:
    """Installs the span wrappers on one imported ``dsplan`` package."""

    def __init__(self, package):
        self.package = package
        self.sink: Spans | None = None
        self.missing: list[str] = []
        self._undo: list = []

    @contextmanager
    def installed(self):
        self.missing = []
        try:
            for name, module, path, _ in SPANS:
                original = self._lookup(module, path)
                if original is None:
                    self.missing.append(f"{name} ({module}.{path})")
                    continue
                self._replace(module, path, original,
                              self._span(name, original, HOOKS.get(name)))
            original = self._lookup(*PAIR_SWEEP)
            if original is None:
                self.missing.append("geomsim.pairs ({}.{})".format(*PAIR_SWEEP))
            else:
                self._replace(*PAIR_SWEEP, original, self._count(original))
            yield self
        finally:
            self.sink = None
            while self._undo:
                self._undo.pop()()

    @contextmanager
    def recording(self, sink: Spans):
        self.sink = sink
        try:
            yield sink
        finally:
            self.sink = None

    @contextmanager
    def tracing(self, sink: Spans):
        """Wrappers installed and recording into ``sink``."""
        with self.installed(), self.recording(sink):
            yield sink

    def _lookup(self, module: str, path: str):
        owner = getattr(self.package, module, None)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        return owner

    def _replace(self, module: str, path: str, original, wrapper) -> None:
        *outer, attr = path.split(".")
        if outer:
            cls = self._lookup(module, ".".join(outer))
            own = attr in vars(cls)
            setattr(cls, attr, wrapper)
            if own:
                self._undo.append(lambda: setattr(cls, attr, original))
            else:
                self._undo.append(lambda: delattr(cls, attr))
            return
        prefix = self.package.__name__
        for key, mod in list(sys.modules.items()):
            if mod is None or not (key == prefix
                                   or key.startswith(prefix + ".")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    self._undo.append(
                        functools.partial(setattr, mod, name, original))

    def _span(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sink = tracer.sink
            if sink is None:
                return fn(*args, **kwargs)
            frame = sink.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                sink.exit(frame)
            if hook is not None:
                hook(sink.counters, args, result)
            return result

        return wrapper

    def _count(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.sink is not None:
                tracer.sink.counters["geomsim.pairs"] += 1
            return fn(*args, **kwargs)

        return wrapper


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(ops: Spans, setup: Spans, n_ops: int) -> dict[str, float]:
    """Per-span metrics: calls per op, median per call, self time per op.

    ``ops`` holds the spans recorded inside timed ops and ``setup`` those of
    the set-up; the per-call medians take both.
    """
    out: dict[str, float] = {}
    for name, _, _, unit in SPANS:
        if name in SELF_PER_CALL:
            label, table = f"{name}.self_{unit}", "selfs"
        else:
            label, table = f"{name}.{unit}", "durations"
        samples = (getattr(ops, table).get(name, [])
                   + getattr(setup, table).get(name, []))
        out[f"{name}.count"] = len(ops.durations.get(name, ())) / n_ops
        out[label] = _median(samples) * SCALE[unit]
        out[f"{name}.self_s"] = sum(ops.selfs.get(name, ())) / n_ops
    return out
