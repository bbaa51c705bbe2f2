"""Experiment harness: initializer benchmark, ablations, single-objective
runs, and plot-ready report emission.

Every number in a report is recomputable from the recorded seed, mode, and
dataset digest.  Rates are exact rational counts rendered at fixed
precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .ccg import INIT_METHODS, make_initializer
from .draws import Draws
from .model import Dataset, dataset_content_digest
from .nsga3 import GaConfig, HistoryRow, history_csv, run
from .objectives import OBJECTIVE_KEYS, Evaluator

# draws held at once by init_benchmark: all of them at once would be a list
# of ``trials`` arrays and then a (trials, n) int64 array, unbounded in
# ``--trials``
_DRAW_BLOCK = 1000

ABLATION_VARIANTS = ("proposed", "wo_ccgi", "wo_nsga3",
                     "wo_fd", "wo_fe", "wo_fp", "wo_fa")


@dataclass
class MethodResult:
    """One comparison row: rates plus objective statistics where relevant."""

    method: str
    trials: int
    feasible_rate: float
    stable_rate: float
    available_rate: float
    counts: tuple[int, int, int] | None = None
    obj_mean: tuple[float, float, float, float] | None = None
    obj_sd: tuple[float, float, float, float] | None = None
    objective_sum: float | None = None
    normalized_sigma: float | None = None


@dataclass
class ExperimentReport:
    kind: str
    seed: int
    mode: str
    dataset_digest: str
    rows: list[MethodResult] = field(default_factory=list)
    curves: dict[str, list[HistoryRow]] = field(default_factory=dict)

    def row(self, method: str) -> MethodResult:
        for r in self.rows:
            if r.method == method:
                return r
        raise KeyError(method)


def check_methods(methods: tuple[str, ...], trials: int, seed: int) -> None:
    """Raise ValueError unless ``trials`` is positive, ``seed`` is one that
    ``GaConfig`` takes, and ``methods`` names at least one initializer, each
    known and none twice (a report holds one row per method)."""
    for name, v in (("trials", trials), ("seed", seed)):
        if type(v) is not int:
            raise ValueError(f"{name} must be an int, got {v!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not methods:
        raise ValueError("methods must name at least one initializer")
    for j, m in enumerate(methods):
        if m not in INIT_METHODS:
            raise ValueError(f"unknown initializer {m!r}")
        if m in methods[:j]:
            raise ValueError(f"initializer {m!r} is named twice")


def init_benchmark(dataset: Dataset, trials: int,
                   methods: tuple[str, ...] = INIT_METHODS,
                   seed: int = 0, mode: str = "as-written") -> ExperimentReport:
    """Score feasible/stable/available rates of seeded initializer draws."""
    check_methods(methods, trials, seed)
    evaluator = Evaluator(dataset, mode)
    report = ExperimentReport(kind="init-bench", seed=seed, mode=mode,
                              dataset_digest=dataset_content_digest(dataset))
    for method in methods:
        # stream indexed by the canonical method position so that method
        # subsets reproduce the same draws
        rng = np.random.default_rng([seed, INIT_METHODS.index(method)])
        init = make_initializer(method, dataset.catalog, dataset.matrices)
        n_feasible = n_stable = n_available = 0
        with Draws(rng) as draws:
            for start in range(0, trials, _DRAW_BLOCK):
                s = evaluator.score(evaluator.to_indices(np.array([init(draws)
                    for _ in range(min(_DRAW_BLOCK, trials - start))])))
                n_feasible += int(s.feasible.sum())
                n_stable += int(s.stable.sum())
                n_available += int(s.available.sum())
        report.rows.append(MethodResult(
            method=method, trials=trials,
            feasible_rate=100.0 * n_feasible / trials,
            stable_rate=100.0 * n_stable / trials,
            available_rate=100.0 * n_available / trials,
            counts=(n_feasible, n_stable, n_available)))
    return report


def _planner_report(kind: str, dataset: Dataset,
                    configs: dict[str, GaConfig]) -> ExperimentReport:
    """One planner run per named config, all of one seed and mode: a row of
    its iteration bests' rates and objective statistics, with the mean
    available rate of its final populations, and its generation curve."""
    some = next(iter(configs.values()))
    report = ExperimentReport(kind=kind, seed=some.seed, mode=some.mode,
                              dataset_digest=dataset_content_digest(dataset))
    for name, cfg in configs.items():
        result = run(dataset, cfg)
        bests = [b.evaluation for b in result.iteration_bests]
        finals = np.array([b.objectives for b in bests], dtype=np.float64)
        mean = finals.mean(axis=0)
        report.rows.append(MethodResult(
            method=name, trials=len(bests),
            feasible_rate=100.0 * np.mean([b.feasible for b in bests]),
            stable_rate=100.0 * np.mean([b.stable for b in bests]),
            available_rate=float(np.mean(
                [row.available_rate for row in result.history
                 if row.generation == result.config.generations])),
            obj_mean=tuple(float(v) for v in mean),
            obj_sd=tuple(float(v) for v in finals.std(axis=0)),
            objective_sum=float(mean.sum())))
        report.curves[name] = result.history
    return report


def ablation_variant_config(base: GaConfig, variant: str) -> GaConfig:
    if variant == "proposed":
        return replace(base)
    if variant == "wo_ccgi":
        return replace(base, init="fr")
    if variant == "wo_nsga3":
        return replace(base, selection="crowding")
    if variant.startswith("wo_f") and variant[-1] in OBJECTIVE_KEYS:
        kept = tuple(k for k in base.objectives if k != variant[-1])
        return replace(base, objectives=kept)
    raise ValueError(f"unknown ablation variant {variant!r}")


def ablation_configs(base: GaConfig) -> dict[str, GaConfig]:
    """The config of every variant in ``ABLATION_VARIANTS``; a
    ``ValueError`` names the first variant that is not runnable."""
    configs = {}
    for variant in ABLATION_VARIANTS:
        try:
            configs[variant] = ablation_variant_config(base, variant)
        except ValueError as exc:
            raise ValueError(f"ablation variant {variant}: {exc}") from exc
    return configs


def ablation_run(dataset: Dataset, base_config: GaConfig) -> ExperimentReport:
    """Run the planner under the proposed setup and its six ablations.

    The normalized sigma per method is the standard deviation of its four
    mean final objective values after min-max normalizing each objective so
    the maximum over all methods except wo_ccgi equals 1.
    """
    report = _planner_report("ablation", dataset,
                             ablation_configs(base_config))
    means = np.array([r.obj_mean for r in report.rows], dtype=np.float64)
    include = np.array([r.method != "wo_ccgi" for r in report.rows])
    denom = means[include].max(axis=0)
    safe = np.where(denom > 0, denom, 1.0)
    normalized = means / safe
    for r, vec in zip(report.rows, normalized):
        r.normalized_sigma = float(vec.std())
    return report


def single_objective_run(dataset: Dataset, config: GaConfig,
                         objective: str) -> ExperimentReport:
    """Optimize under the constraints plus a single objective; report all
    four evaluation values of the per-iteration bests."""
    cfg = replace(config, objectives=(objective,))
    return _planner_report("single-objective", dataset,
                           {f"w_{objective}": cfg})


_INIT_HEADER = "method,trials,feasible_rate,stable_rate,available_rate"
_RUN_HEADER = ("method,iterations,available_rate,"
               "mean_fd,sd_fd,mean_fe,sd_fe,mean_fp,sd_fp,mean_fa,sd_fa,"
               "objective_sum,normalized_sigma")


def summary_csv(report: ExperimentReport) -> str:
    """The per-kind summary table as CSV text."""
    if report.kind == "init-bench":
        lines = [_INIT_HEADER]
        for r in report.rows:
            lines.append(f"{r.method},{r.trials},"
                         f"{r.feasible_rate:.4f},{r.stable_rate:.4f},"
                         f"{r.available_rate:.4f}")
    else:
        lines = [_RUN_HEADER]
        for r in report.rows:
            stats = []
            for m, s in zip(r.obj_mean, r.obj_sd):
                stats.append(f"{m:.6f},{s:.6f}")
            sigma = ("" if r.normalized_sigma is None
                     else f"{r.normalized_sigma:.6f}")
            lines.append(f"{r.method},{r.trials},{r.available_rate:.4f},"
                         + ",".join(stats)
                         + f",{r.objective_sum:.6f},{sigma}")
    return "\n".join(lines) + "\n"


def summary_text(report: ExperimentReport) -> str:
    lines = [f"kind: {report.kind}",
             f"seed: {report.seed}",
             f"mode: {report.mode}",
             f"dataset: sha256:{report.dataset_digest}",
             ""]
    for r in report.rows:
        lines.append(f"[{r.method}] trials={r.trials} "
                     f"feasible={r.feasible_rate:.4f}% "
                     f"stable={r.stable_rate:.4f}% "
                     f"available={r.available_rate:.4f}%")
        if r.obj_mean is not None:
            pairs = " ".join(
                f"f{k}={m:.6f}+/-{s:.6f}"
                for k, m, s in zip(OBJECTIVE_KEYS, r.obj_mean, r.obj_sd))
            lines.append(f"    {pairs}")
            sigma = ("" if r.normalized_sigma is None
                     else f" normalized_sigma={r.normalized_sigma:.6f}")
            lines.append(f"    objective_sum={r.objective_sum:.6f}{sigma}")
    return "\n".join(lines) + "\n"


def emit_report(report: ExperimentReport, out_dir: str | Path) -> list[Path]:
    """Write the csv and text summaries and the per-method generation
    curves; returns the paths, the csv summary first."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {f"{report.kind}_summary.csv": summary_csv(report),
             f"{report.kind}_summary.txt": summary_text(report)}
    for method, rows in sorted(report.curves.items()):
        files[f"{report.kind}_curve_{method}.csv"] = history_csv(rows)
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")
    return [out / name for name in files]
