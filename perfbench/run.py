"""The dsplan benchmark: one workload, closed loop, every output checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload plan-36 --seed 1 --seconds 20 --trace 0

The workload's inputs are made from ``--seed``.  One process runs one
operation at a time for ``--seconds`` seconds after an untimed warm-up
operation, checks the output of every operation, and prints what it
measured.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics; with ``--trace 1``
they are the per-layer metrics, recorded by the wrappers in ``spans.py``
while half of the time runs untraced for comparison.

The library is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import logging
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from spans import CONTAINERS, SELF_PER_CALL, SPANS, Spans, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPS = 9
GENERATE_TIMEOUT_S = 120
INIT_METHODS = ("ri", "fr", "sfr", "ccgi")
TAIL_PERCENTILE = 80
# The planner workloads run on the tower of acceptance criterion 12.  Its
# labels stay fixed: a different label draw is a different product, whose
# median op time differed by up to 30 %, so the workload seed drives every
# op's planner and initializer seed instead.  The build's cost does not
# depend on the labels.
CRITERION_12_TOWER_SEED = 12


@dataclass(frozen=True)
class Workload:
    """A screw tower (base plate, blocks, four screws per block) and an op."""

    name: str
    kind: str
    layers: int
    why: str
    mode: str = "as-written"
    generations: int = 0
    iterations: int = 1
    pop: int = 100
    trials: int = 0
    screws: int = 4
    manual: float = 0.3
    priority: int = 2
    # generate_synthetic seed of the tower; None takes the workload seed
    tower_seed: int | None = CRITERION_12_TOWER_SEED

    @property
    def parts(self) -> int:
        return 1 + self.layers * (1 + self.screws)

    def tower(self, seed: int) -> dict:
        return {"n_layers": self.layers, "screws_per_layer": self.screws,
                "manual_fraction": self.manual,
                "priority_count": self.priority,
                "seed": seed if self.tower_seed is None else self.tower_seed}


WORKLOADS = {w.name: w for w in (
    Workload("plan-36", "plan", 7, generations=10,
             why="The 36-part reference product in as-written mode, where "
                 "evaluation dominates the planner's time."),
    Workload("plan-76-strict", "plan", 15, mode="strict", generations=8,
             why="Strict mode on 76 parts: the constraint kernels, which "
                 "scale with n, do nearly all the work."),
    Workload("init-bench", "init", 7, trials=20,
             why="The fr/sfr repair loops and checks of mostly unavailable "
                 "random orders run here and nowhere else."),
    Workload("build-76", "build", 15, tower_seed=None,
             why="geomsim's O(n^2) pair sweeps build the 76-part tower, "
                 "and the model layer writes and reads it back."),
)}

END_TO_END = (
    # (name, unit, better, bound)
    ("setup_s", "s", "lower", 0.25),
    ("op_s.p50", "s", "lower", 0.25),
    ("op_s.tail", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

RATIOS = tuple(f"ccg.{m}.available_ratio" for m in INIT_METHODS) + (
    "constraints.available_ratio",
    "constraints.first_violation.order",
    "constraints.first_violation.motion",
    "constraints.first_violation.stability",
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = []
    for name, _, _, unit in SPANS:
        per_call = (f"{name}.self_{unit}" if name in SELF_PER_CALL
                    else f"{name}.{unit}")
        spec += [(f"{name}.count", "count", "lower"),
                 (per_call, unit, "lower"),
                 (f"{name}.self_s", "s", "lower")]
    spec += [("model.dataset_bytes", "bytes", "lower"),
             ("geomsim.pairs", "count", "lower"),
             ("geomsim.cells", "count", "lower")]
    spec += [(name, "ratio", "higher") for name in RATIOS]
    spec += [("cli.plan.self_s", "s", "lower"),
             ("trace.overhead_frac", "ratio", "lower"),
             ("trace.coverage", "ratio", "higher"),
             ("trace.residual_frac", "ratio", "lower")]
    return spec


def op_seed(seed: int, index: int) -> int:
    """Planner / initializer seed of op ``index``; op 0 is the warm-up."""
    return seed * 100_000 + index


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    """What one op produced, after its output checks."""

    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    # initializer name -> [available draws, draws]
    draws: dict[str, list[int]] = field(default_factory=dict)


def generate_file(wl: Workload, seed: int, path: Path) -> None:
    """Build the workload's dataset file in a child process (tower.py)."""
    subprocess.run([sys.executable, str(Path(__file__).with_name("tower.py")),
                    str(SRC), str(path), json.dumps(wl.tower(seed))],
                   check=True, timeout=GENERATE_TIMEOUT_S)


def import_dsplan():
    """A fresh import of the library from src/."""
    for key in [k for k in sys.modules
                if k == "dsplan" or k.startswith("dsplan.")]:
        del sys.modules[key]
    dsplan = importlib.import_module("dsplan")
    if not Path(dsplan.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"dsplan was imported from {dsplan.__file__}, "
                           f"not from {SRC}")
    return dsplan


class Runner:
    """Set-up, ops and output checks of one workload in this process."""

    def __init__(self, wl: Workload, seed: int, work: Path):
        self.wl = wl
        self.seed = seed
        self.work = work
        self.path = work / "dataset.json"
        self.dsplan = None
        self.dataset = None
        self.tower = None
        self.digest = None

    def setup(self) -> list[float]:
        """Set up SETUP_REPS times; returns the time of each."""
        if self.wl.kind == "build":
            self.dsplan = import_dsplan()
            return [self._timed(self.setup_work)[0]
                    for _ in range(SETUP_REPS)]
        generate_file(self.wl, self.seed, self.path)
        times = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            self.dsplan = import_dsplan()
            self.setup_work()
            times.append(time.perf_counter() - start)
        self.digest = self.dsplan.model.dataset_content_digest(self.dataset)
        return times

    def setup_work(self) -> None:
        """The set-up after the import: generate the tower for build-76,
        load the generated file otherwise."""
        if self.wl.kind == "build":
            self.tower = self.dsplan.geomsim.generate_synthetic(
                **self.wl.tower(self.seed))
        else:
            self.dataset = self.dsplan.model.load_dataset(self.path)

    @staticmethod
    def _timed(fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        return time.perf_counter() - start, result

    def attempt(self, index: int,
                record=contextlib.nullcontext) -> tuple[float, Outcome]:
        """Run op ``index`` timed inside ``record()``, then check its output
        untimed."""
        op = getattr(self, f"_op_{self.wl.kind}")
        check = getattr(self, f"_check_{self.wl.kind}")
        try:
            with record():
                elapsed, produced = self._timed(op, op_seed(self.seed, index))
            return elapsed, check(produced)
        except Exception:  # an op that raises is a failed op, not a crash
            traceback.print_exc(file=sys.stderr)
            return 0.0, Outcome(problems=["op raised an exception"])

    def _op_plan(self, seed):
        nsga3 = self.dsplan.nsga3
        config = nsga3.GaConfig(
            pop_size=self.wl.pop, generations=self.wl.generations,
            iterations=self.wl.iterations, seed=seed, mode=self.wl.mode)
        result = nsga3.run(self.dataset, config)
        return result, result.to_json(), result.history_csv()

    def _check_plan(self, produced) -> Outcome:
        result, plan_json, history = produced
        wl = self.wl
        out = Outcome(digests={"plan_result.json": sha256(plan_json),
                               "history.csv": sha256(history)})
        best = tuple(result.best_sequence)
        if sorted(best) != sorted(self.dataset.matrices.part_order):
            out.problems.append("champion is not a permutation of part_order")
        else:
            fresh = self.dsplan.evaluate(best, self.dataset, wl.mode)
            if fresh != result.best_evaluation:
                out.problems.append("a fresh evaluation of the champion "
                                    "differs from the recorded one")
            if not fresh.available:
                out.problems.append("the champion is not available")
        rows = wl.iterations * (wl.generations + 1)
        if len(result.history) != rows or history.count("\n") != rows + 1:
            out.problems.append(f"history does not have {rows} rows")
        if json.loads(plan_json)["best_sequence"] != list(best):
            out.problems.append("plan_result.json does not hold the champion")
        initial = [r for r in result.history if r.generation == 0]
        out.draws["ccgi"] = [
            sum(round(r.available_rate * wl.pop / 100) for r in initial),
            wl.pop * len(initial)]
        return out

    def _op_init(self, seed):
        return self.dsplan.bench.init_benchmark(
            self.dataset, self.wl.trials, seed=seed, mode=self.wl.mode)

    def _check_init(self, report) -> Outcome:
        trials = self.wl.trials
        out = Outcome()
        methods = tuple(r.method for r in report.rows)
        if methods != INIT_METHODS:
            out.problems.append(f"report rows are {methods}")
        if report.dataset_digest != self.digest:
            out.problems.append("report names another dataset digest")
        for row in report.rows:
            feasible, stable, available = row.counts
            if not (0 <= available <= min(feasible, stable)
                    and max(feasible, stable) <= trials == row.trials):
                out.problems.append(f"{row.method}: counts {row.counts} are "
                                    f"inconsistent with {trials} trials")
            out.draws[row.method] = [available, trials]
        if out.draws.get("ccgi", [0])[0] != trials:
            out.problems.append("ccgi available rate is below 100 %")
        return out

    def _op_build(self, seed):
        model = self.dsplan.model
        built = self.dsplan.geomsim.build_dataset(*self.tower)
        model.save_dataset(built, self.path)
        return built, model.load_dataset(self.path)

    def _check_build(self, produced) -> Outcome:
        built, loaded = produced
        model = self.dsplan.model
        text = model.dataset_to_json(built)
        out = Outcome(digests={"dataset": sha256(text)})
        if model.dataset_to_json(loaded) != text:
            out.problems.append("the saved dataset does not load back equal")
        if len(built.catalog) != self.wl.parts:
            out.problems.append(f"built {len(built.catalog)} parts, "
                                f"expected {self.wl.parts}")
        if self.digest is None:
            self.digest = out.digests["dataset"]
        elif out.digests["dataset"] != self.digest:
            out.problems.append("the build differs from the warm-up build")
        return out

    def cli_plan(self, tracer: Tracer, sink: Spans) -> tuple[float, Outcome]:
        """One in-process ``dsplan plan`` on the workload's dataset with op
        0's seed; returns its time minus its load and run spans."""
        wl = self.wl
        out_dir = self.work / "cli"
        argv = ["plan", "--dataset", str(self.path), "--pop", str(wl.pop),
                "--generations", str(wl.generations),
                "--iterations", str(wl.iterations), "--mode", wl.mode,
                "--seed", str(op_seed(self.seed, 0)), "--out", str(out_dir)]
        handlers = logging.root.handlers[:]
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()), \
                    tracer.recording(sink):
                elapsed, code = self._timed(self.dsplan.cli.main, argv)
        finally:
            logging.root.handlers[:] = handlers
        out = Outcome(digests={
            name: sha256((out_dir / name).read_text(encoding="utf-8"))
            for name in ("plan_result.json", "history.csv")
            if (out_dir / name).is_file()})
        if code != 0:
            out.problems.append(f"dsplan plan exited with {code}")
        own = elapsed - sink.total("model.load_dataset") - sink.total("nsga3.run")
        return own, out


def measure(runner: Runner, seconds: float, record_for=None):
    """Closed loop: ops back to back until ``seconds`` have passed.

    ``record_for(index)`` gives the context each op runs in; the times of
    the ops that passed their checks come back keyed by that context."""
    times: dict = {}
    outcomes = []
    deadline = time.perf_counter() + seconds
    index = 1
    while not outcomes or time.perf_counter() < deadline:
        record = record_for(index) if record_for else contextlib.nullcontext
        elapsed, outcome = runner.attempt(index, record)
        outcomes.append(outcome)
        group = times.setdefault(record, [])
        if not outcome.problems:
            group.append(elapsed)
        index += 1
    return times, outcomes


def tail(times: list[float]) -> tuple[float, int]:
    """The nearest-rank TAIL_PERCENTILE of ``times`` and how many samples
    lie beyond it.  The percentile is fixed, not the highest with ten
    samples beyond it, so that it stays comparable when ops get faster."""
    ordered = sorted(times)
    rank = max(math.ceil(TAIL_PERCENTILE / 100 * len(ordered)), 1)
    return ordered[rank - 1], len(ordered) - rank


def draws_ratio(outcomes: list[Outcome], method: str) -> float:
    available = sum(o.draws.get(method, [0, 0])[0] for o in outcomes)
    draws = sum(o.draws.get(method, [0, 0])[1] for o in outcomes)
    return available / draws if draws else 0.0


def describe(wl: Workload, seed: int) -> str:
    if wl.kind == "plan":
        op = (f"nsga3.run pop {wl.pop}, {wl.generations} gens x "
              f"{wl.iterations} iter, {wl.mode}, ccgi")
    elif wl.kind == "init":
        op = f"bench.init_benchmark {wl.trials} trials x {len(INIT_METHODS)}"
    else:
        op = "geomsim.build_dataset + save_dataset + load_dataset"
    return (f"workload {wl.name}, seed {seed}: {wl.parts}-part tower "
            f"({wl.layers} layers x {wl.screws} screws, manual {wl.manual}, "
            f"priority {wl.priority}, tower seed {wl.tower(seed)['seed']}); "
            f"op: {op}")


def provenance() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dsplan" / "__init__.py").is_file():
        print(f"perfbench: the dsplan sources are missing ({SRC}); run from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # numpy is imported before set-up is timed, so set-up times dsplan alone
    importlib.import_module("numpy")
    wl = WORKLOADS[args.workload]
    work = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(wl, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def run(wl: Workload, seed: int, seconds: float, traced: bool,
        work: Path) -> int:
    print(describe(wl, seed))
    print("machine: " + json.dumps(provenance(), sort_keys=True))
    runner = Runner(wl, seed, work)
    setup_times = runner.setup()
    if runner.digest is not None:
        print(f"dataset_content_digest {runner.digest}")
    _, warm = runner.attempt(0)
    for name, digest in sorted(warm.digests.items()):
        print(f"op 0 (seed {op_seed(seed, 0)}) {name} sha256 {digest}")
    outcomes = [warm]
    if not traced:
        groups, timed = measure(runner, seconds)
        outcomes += timed
        times = groups.get(contextlib.nullcontext, [])
        metrics = end_to_end(wl, setup_times, times)
    else:
        metrics, outcomes = trace_run(runner, seconds, outcomes)
    failed = sum(bool(o.problems) for o in outcomes)
    for o in outcomes:
        for problem in o.problems:
            print(f"check failed: {problem}")
    print(f"failed_frac {failed / len(outcomes)} ({failed} of "
          f"{len(outcomes)} ops, warm-up included)")
    expected = ([(n, u) for n, u, _, _ in END_TO_END] if not traced
                else [(n, u) for n, u, _ in per_layer_spec()])
    assert [(n, u) for n, (_, u) in metrics.items()] == expected
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": len(outcomes), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


def end_to_end(wl: Workload, setup_times, times) -> dict:
    """The end-to-end metrics of an untraced run: name -> (value, unit)."""
    times = times or [0.0]
    value, beyond = tail(times)
    print(f"setup_s is the median of {len(setup_times)} set-ups")
    print(f"op_s.p50 and op_s.tail (p{TAIL_PERCENTILE}) are taken over "
          f"{len(times)} ops; {beyond} lie beyond the tail")
    if wl.kind == "plan" and sum(times):
        gens_per_s = len(times) * wl.iterations * wl.generations / sum(times)
        print(f"gens_per_s {gens_per_s} 1/s")
        print(f"criterion 12 (500 generations x 10 iterations) projected at "
              f"{5000 / gens_per_s:.1f} s")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"setup_s": (statistics.median(setup_times), "s"),
            "op_s.p50": (statistics.median(times), "s"),
            "op_s.tail": (value, "s"),
            "peak_rss_mb": (rss_mb, "MB")}


def trace_run(runner: Runner, seconds: float, outcomes: list[Outcome]):
    """Traced and untraced ops in turn, then traced set-ups and, on plan-36,
    one traced ``dsplan plan``; returns the per-layer metrics.  The wrappers
    are in place only around the traced ops, and alternating the two kinds
    keeps a drift in machine speed out of the overhead estimate."""
    wl = runner.wl
    # imported before the wrappers go in, so that its bindings get them too
    importlib.import_module("dsplan.cli")
    tracer = Tracer(runner.dsplan)
    ops, setup, cli = Spans(), Spans(), Spans()

    def traced_op():
        return tracer.tracing(ops)

    groups, timed = measure(
        runner, seconds,
        lambda index: traced_op if index % 2 else contextlib.nullcontext)
    traced = groups.get(traced_op, [])
    plain = groups.get(contextlib.nullcontext, [])
    outcomes += timed
    for name in tracer.missing:
        print(f"trace: {name} is not in the library; it reports 0")
    with tracer.tracing(setup):
        for _ in range(SETUP_REPS):
            runner.setup_work()
    cli_self = 0.0
    if wl.name == "plan-36":
        with tracer.installed():
            cli_self, out = runner.cli_plan(tracer, cli)
        if out.digests != outcomes[0].digests:
            out.problems.append("dsplan plan wrote other bytes than op 0")
        outcomes.append(out)
    n_ops = max(len(traced), 1)
    op_time = sum(traced) or 1.0
    metrics = layer_metrics(ops, setup, n_ops)
    metrics["model.dataset_bytes"] = runner.path.stat().st_size
    metrics["geomsim.pairs"] = ops.counters["geomsim.pairs"] / n_ops
    metrics["geomsim.cells"] = ops.counters["geomsim.cells"] / n_ops
    for method in INIT_METHODS:
        metrics[f"ccg.{method}.available_ratio"] = draws_ratio(timed, method)
    checks = ops.counters["constraints.checks"]
    metrics["constraints.available_ratio"] = (
        ops.counters["constraints.available"] / checks if checks else 0.0)
    for term in ("order", "motion", "stability"):
        key = f"constraints.first_violation.{term}"
        metrics[key] = ops.counters[key] / checks if checks else 0.0
    metrics["cli.plan.self_s"] = cli_self
    overhead = (statistics.median(traced) / statistics.median(plain) - 1.0
                if traced and plain else 0.0)
    metrics["trace.overhead_frac"] = overhead
    coverage = ops.layer_time / op_time
    container_self = sum(sum(ops.selfs.get(name, ())) for name in CONTAINERS)
    metrics["trace.coverage"] = coverage
    metrics["trace.residual_frac"] = 1.0 - coverage - container_self / op_time
    print(f"traced {len(traced)} ops, untraced {len(plain)} ops")
    units = {name: unit for name, unit, _ in per_layer_spec()}
    return {name: (metrics[name], units[name])
            for name, _, _ in per_layer_spec()}, outcomes


if __name__ == "__main__":
    sys.exit(main())
