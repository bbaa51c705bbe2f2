"""Command-line front end.

Subcommands: gen-synthetic, plan, init-bench, ablate, single-obj, validate.
Every subcommand but validate takes ``--seed``, and the four that write a
report directory (plan, init-bench, ablate, single-obj) take ``--out``.
Exit codes: 0 success, 1 usage or output error, 2 dataset error.
Sequences are printed in removal order (first removed first); the stored
convention keeps the last-removed part at position 1.  Output files carry
no timestamps so reruns with the same seed are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .bench import (
    ExperimentReport,
    ablation_configs,
    ablation_run,
    check_methods,
    emit_report,
    init_benchmark,
    single_objective_run,
)
from .ccg import INIT_METHODS, build_ccg
from .constraints import MODES
from .geomsim import build_dataset, generate_synthetic
from .model import DatasetError, dataset_digest, load_dataset, save_dataset
from .nsga3 import MATING_METHODS, SELECTION_METHODS, GaConfig, PlanResult, run
from .objectives import OBJECTIVE_KEYS, check_weight_budget

log = logging.getLogger("dsplan")

OUT_DIR_ENV = "DSPLAN_OUT_DIR"


class _UsageError(Exception):
    pass


class _Printed(Exception):
    """``-h`` or ``--version`` printed its text, which ends the command."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def exit(self, status=0, message=None):
        # argparse exits here only after -h or --version, because ``error``
        # raises first
        raise _Printed


def _seed(text: str) -> int:
    """The ``--seed`` value: numpy seeds are non-negative integers."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}")
    return int(text)


def _rates(text: str) -> dict[str, float]:
    """The ``--rates`` value as the four ``GaConfig`` rate fields."""
    values = text.split(",")
    if len(values) != 4:
        raise argparse.ArgumentTypeError("needs four comma-separated values")
    try:
        return dict(zip(("crossover_rate", "mutation_rate", "cut_paste_rate",
                         "break_join_rate"), map(float, values)))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _objectives(text: str) -> tuple[str, ...]:
    return tuple(k for k in text.split(",") if k)


def _add_ga_flags(p: argparse.ArgumentParser, objectives=True) -> None:
    """GA flags; each one's dest is the ``GaConfig`` field it sets."""
    p.add_argument("--generations", type=int, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--pop", dest="pop_size", metavar="POP", type=int,
                   default=None)
    p.add_argument("--divisions", type=int, default=None)
    p.add_argument("--rates", type=_rates, default=None,
                   metavar="CX,MUT,CAP,BAJ",
                   help="operator rates, comma separated")
    p.add_argument("--mode", choices=MODES, default=None)
    if objectives:
        p.add_argument("--objectives", type=_objectives, default=None,
                       metavar="d,e,p,a", help="enabled objective subset")
    p.add_argument("--init", choices=INIT_METHODS, default=None)
    p.add_argument("--selection", choices=SELECTION_METHODS, default=None)
    p.add_argument("--mating", choices=MATING_METHODS, default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="dsplan", description=__doc__)
    parser.add_argument("--version", action="version",
                        version=f"dsplan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-synthetic",
                       help="emit a synthetic screw-tower dataset file")
    g.add_argument("--layers", type=int, default=3)
    g.add_argument("--screws", type=int, default=2)
    g.add_argument("--manual-fraction", type=float, default=0.0)
    g.add_argument("--priority-count", type=int, default=0)
    g.add_argument("--pitch", type=float, default=1.0)
    g.add_argument("--clearance", type=float, default=None,
                   help="translation clearance (default: the pitch)")
    g.add_argument("--angle", type=float, default=5.0)
    g.add_argument("--dataset-out", required=True, metavar="FILE",
                   help="path of the dataset file to write")

    p = sub.add_parser("plan", help="optimize a removal sequence")
    p.add_argument("--dataset", required=True)
    _add_ga_flags(p)

    b = sub.add_parser("init-bench", help="compare initializer success rates")
    b.add_argument("--dataset", required=True)
    b.add_argument("--methods", default=",".join(INIT_METHODS))
    b.add_argument("--trials", type=int, default=1000)
    b.add_argument("--mode", choices=MODES, default="as-written")

    a = sub.add_parser("ablate", help="run the planner and its ablations")
    a.add_argument("--dataset", required=True)
    _add_ga_flags(a)

    s = sub.add_parser("single-obj", help="optimize one objective only")
    s.add_argument("--dataset", required=True)
    s.add_argument("--objective", required=True, choices=OBJECTIVE_KEYS)
    _add_ga_flags(s, objectives=False)

    v = sub.add_parser("validate", help="load and validate a dataset file")
    v.add_argument("--dataset", required=True)

    for cmd in (g, p, b, a, s):
        cmd.add_argument(
            "--seed", type=_seed, default=None,
            help="random seed (default: drawn from entropy, echoed)")
    # the commands that write a report directory
    for cmd in (p, b, a, s):
        cmd.add_argument(
            "--out", default=os.environ.get(OUT_DIR_ENV, "."),
            help=f"output directory (default: ${OUT_DIR_ENV} or .)")
    return parser


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(np.random.SeedSequence().entropy % (2 ** 32))


def _ga_config(args) -> GaConfig:
    """The GA flags that were given over the ``GaConfig`` defaults."""
    given = {f.name: getattr(args, f.name) for f in fields(GaConfig)
             if getattr(args, f.name, None) is not None}
    given.update(args.rates or {})
    try:
        return GaConfig(**{**given, "seed": _resolve_seed(args)})
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _log_provenance(seed: int | None, dataset_path: str | None,
                    extra: dict) -> str | None:
    """Log the run's version, seed (unless None), dataset digest and
    ``extra``; return the digest (None without a dataset)."""
    log.info("version %s", __version__)
    if seed is not None:
        log.info("seed %d", seed)
    digest = None
    if dataset_path:
        digest = dataset_digest(dataset_path)
        log.info("dataset sha256:%s", digest)
    for key, value in extra.items():
        log.info("%s %s", key, value)
    return digest


def _emit(report: ExperimentReport, out_dir: str) -> int:
    """Write the report's files and print its summary table."""
    paths = emit_report(report, out_dir)
    for p in paths:
        log.info("wrote %s", p)
    sys.stdout.write(paths[0].read_text(encoding="utf-8"))
    return 0


def _plan_text(result: PlanResult, seed: int, digest: str) -> str:
    ev = result.best_evaluation
    lines = [
        f"dsplan {__version__}",
        f"seed: {seed}",
        f"dataset: sha256:{digest}",
        f"config: {json.dumps(asdict(result.config), sort_keys=True)}",
        f"available: {str(ev.available).lower()}",
        "objectives: " + " ".join(
            f"f{k}={v:.9f}" for k, v in zip(OBJECTIVE_KEYS, ev.objectives)),
        f"objective_sum: {ev.objective_sum:.9f}",
        "# stored order keeps the LAST-removed part at position 1;",
        "# the listing below is the removal order (first removed first)",
        "removal_order: " + " ".join(str(i) for i in result.removal_order()),
        "removal_labels: " + " ".join(reversed(result.best_labels)),
        "iteration_bests:",
    ]
    for b in result.iteration_bests:
        lines.append(
            f"  {b.iteration}: available={str(b.evaluation.available).lower()}"
            f" sum={b.evaluation.objective_sum:.9f}")
    return "\n".join(lines) + "\n"


def _cmd_gen_synthetic(args) -> int:
    seed = _resolve_seed(args)
    _log_provenance(seed, None, {"generator": {
        "layers": args.layers, "screws": args.screws,
        "manual_fraction": args.manual_fraction,
        "priority_count": args.priority_count, "pitch": args.pitch,
        "clearance": args.clearance, "angle": args.angle}})
    try:
        assembly, catalog = generate_synthetic(
            n_layers=args.layers, screws_per_layer=args.screws,
            manual_fraction=args.manual_fraction,
            priority_count=args.priority_count, seed=seed, pitch=args.pitch)
        dataset = build_dataset(assembly, catalog, clearance=args.clearance,
                                angle=args.angle)
    except ValueError as exc:
        raise _UsageError(f"generator settings: {exc}") from exc
    out_path = Path(args.dataset_out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(dataset, out_path)
    log.info("wrote %s (%d parts)", out_path, len(catalog))
    print(out_path)
    return 0


def _cmd_plan(args) -> int:
    cfg = _ga_config(args)
    digest = _log_provenance(cfg.seed, args.dataset, {"config": asdict(cfg)})
    dataset = load_dataset(args.dataset)
    result = run(dataset, cfg)
    violation = result.best_evaluation.first_violation
    if violation is not None:
        criterion, position = violation
        log.warning("champion unavailable: %s fails at storage position %d "
                    "(part %d); final population available_rate %.4f%%",
                    criterion, position, result.best_sequence[position - 1],
                    result.history[-1].available_rate)
    text = _plan_text(result, cfg.seed, digest)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "plan_result.txt").write_text(text, encoding="utf-8")
    (out / "plan_result.json").write_text(result.to_json(), encoding="utf-8")
    (out / "history.csv").write_text(result.history_csv(), encoding="utf-8")
    print(text, end="")
    return 0


def _cmd_init_bench(args) -> int:
    seed = _resolve_seed(args)
    methods = tuple(m for m in args.methods.split(",") if m)
    try:
        check_methods(methods, args.trials, seed)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    _log_provenance(seed, args.dataset,
                    {"methods": methods, "trials": args.trials})
    dataset = load_dataset(args.dataset)
    report = init_benchmark(dataset, args.trials, methods, seed, args.mode)
    return _emit(report, args.out)


def _cmd_ablate(args) -> int:
    cfg = _ga_config(args)
    try:
        ablation_configs(cfg)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    _log_provenance(cfg.seed, args.dataset, {"config": asdict(cfg)})
    dataset = load_dataset(args.dataset)
    report = ablation_run(dataset, cfg)
    return _emit(report, args.out)


def _cmd_single_obj(args) -> int:
    # the config that runs, and so the one logged
    args.objectives = (args.objective,)
    cfg = _ga_config(args)
    _log_provenance(cfg.seed, args.dataset,
                    {"objective": args.objective, "config": asdict(cfg)})
    dataset = load_dataset(args.dataset)
    report = single_objective_run(dataset, cfg, args.objective)
    return _emit(report, args.out)


def _cmd_validate(args) -> int:
    _log_provenance(None, args.dataset, {})
    dataset = catalog, matrices, motions = load_dataset(args.dataset)
    # raises DisconnectedProduct: no stable removal order exists then
    build_ccg(catalog, matrices)
    # the weight budget that every planning command checks, in either mode
    check_weight_budget(dataset)
    n_motions = sum(len(v) for v in motions.motions.values())
    print(f"ok: {len(catalog)} parts, {matrices.n} non-ignored, "
          f"{n_motions} candidate motions")
    return 0


_COMMANDS = {
    "gen-synthetic": _cmd_gen_synthetic,
    "plan": _cmd_plan,
    "init-bench": _cmd_init_bench,
    "ablate": _cmd_ablate,
    "single-obj": _cmd_single_obj,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                            format="%(name)s: %(message)s")
        return _COMMANDS[args.command](args)
    except _Printed:
        return 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DatasetError as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:   # an output file or directory cannot be written
        print(f"output error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
