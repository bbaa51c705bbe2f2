"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here; fixtures are the synthetic screw towers from
the voxel generator.  Budget-sensitive criteria carry wall-clock guards.
"""

import itertools
import json
import time

import numpy as np

import oracle
from dsplan.bench import ablation_run, emit_report, init_benchmark, single_objective_run
from dsplan.ccg import build_ccg, ccgi_init
from dsplan.cli import main
from dsplan.geomsim import generate_synthetic, build_dataset
from dsplan.model import save_dataset
from dsplan.nsga3 import GaConfig, das_dennis_points, non_dominated_sort, run
from dsplan.objectives import Evaluator, PENALTY
from conftest import make_tower


def _report(criterion: int, description: str, ok: bool):
    print(f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - "
          f"{description}")
    assert ok, f"criterion {criterion} failed: {description}"


SMALL_CONFIGS = [
    (1, 0, 0.0, 0, 0), (1, 0, 1.0, 1, 1),
    (1, 1, 0.0, 0, 2), (1, 1, 1.0, 1, 3),
    (2, 0, 0.5, 1, 4), (2, 0, 0.0, 0, 5),
    (1, 2, 0.0, 1, 6), (1, 2, 1.0, 0, 7),
    (3, 0, 0.67, 1, 8), (3, 0, 0.33, 2, 9),
    (1, 3, 0.0, 0, 10), (1, 3, 1.0, 1, 11),
    (2, 1, 0.5, 1, 12), (2, 1, 0.0, 2, 13),
    (1, 4, 1.0, 1, 14), (1, 4, 0.0, 0, 15),
    (2, 2, 0.5, 1, 16), (2, 2, 1.0, 2, 17),
    (3, 1, 0.33, 1, 18), (3, 1, 0.67, 3, 19),
]


def test_criterion_01_oracle_equivalence():
    """Engine flags (both modes) and objectives match the brute-force
    evaluator on every permutation of 20 small assemblies."""
    start = time.time()
    assert len(SMALL_CONFIGS) == 20
    for layers, screws, manual, priority, seed in SMALL_CONFIGS:
        ds = make_tower(layers, screws, manual=manual, priority=priority,
                        seed=seed)
        n = ds.matrices.n
        assert n <= 7
        tab = oracle.extract(ds)
        perms = np.array(list(itertools.permutations(range(n))))
        for mode in ("as-written", "strict"):
            score = Evaluator(ds, mode).score(perms)
            for p, perm in enumerate(perms.tolist()):
                o, m, s, objs = oracle.evaluate(perm, tab, mode)
                assert score.order[p] == o
                assert score.motion[p] == m
                assert score.stable[p] == s
                assert all(abs(a - b) <= 1e-12
                           for a, b in zip(score.objectives[p], objs))
    elapsed = time.time() - start
    _report(1, f"oracle equivalence on 20 assemblies, both modes "
               f"({elapsed:.1f}s <= 120s)", elapsed <= 120)


def _peel_fronts(objs):
    """Independent numpy peeling: repeatedly extract the maximal set."""
    rank = np.full(len(objs), -1, dtype=int)
    remaining = np.arange(len(objs))
    level = 0
    while remaining.size:
        sub = objs[remaining]
        le = (sub[:, None, :] <= sub[None, :, :]).all(-1)
        lt = (sub[:, None, :] < sub[None, :, :]).any(-1)
        dominated = (le & lt).any(axis=0)
        front = remaining[~dominated]
        rank[front] = level
        remaining = remaining[dominated]
        level += 1
    return rank


def test_criterion_02_sorting_matches_oracle():
    ok = True
    for seed in range(10):
        rng = np.random.default_rng(seed)
        objs = rng.random((1000, 4))
        fronts = non_dominated_sort(objs)
        rank = np.empty(len(objs), dtype=int)
        for r, front in enumerate(fronts):
            rank[front] = r
        ok = ok and (rank == _peel_fronts(objs)).all()
    _report(2, "fast non-dominated sort equals pairwise-domination oracle "
               "on 1000 vectors x 10 seeds", bool(ok))


def test_criterion_03_reference_points():
    pts = das_dennis_points(4, 6)
    ok = (len(pts) == 84
          and np.abs(pts.sum(axis=1) - 1.0).max() <= 1e-12)
    _report(3, "das_dennis_points(4, 6) gives 84 points summing to 1",
            bool(ok))


def test_criterion_04_ccgi_guarantees(tower5, tower7, tower10):
    start = time.time()
    fixtures = [tower5, tower7, tower10, make_tower(1, 3, seed=21),
                make_tower(4, 1, seed=22)]
    stable_ok = True
    for i, ds in enumerate(fixtures):
        graph = build_ccg(ds.catalog, ds.matrices)
        ev = Evaluator(ds)
        rng = np.random.default_rng(100 + i)
        draws = [ev.to_indices(ccgi_init(graph, rng)) for _ in range(1000)]
        stable_ok = stable_ok and bool(ev.score(np.array(draws)).stable.all())
    report = init_benchmark(tower10, trials=1000, methods=("ri", "ccgi"),
                            seed=0)
    ri = report.row("ri").available_rate
    ccgi = report.row("ccgi").available_rate
    elapsed = time.time() - start
    ok = stable_ok and ccgi >= 5 * ri and elapsed <= 60
    _report(4, f"CCGI stable 100% on 5 fixtures; available {ccgi:.1f}% >= "
               f"5x RI {ri:.1f}% ({elapsed:.1f}s <= 60s)", ok)


def test_criterion_05_initializer_ordering(tower10):
    passing = 0
    for seed in range(10):
        report = init_benchmark(tower10, trials=1000, seed=seed)
        rates = {r.method: r.available_rate for r in report.rows}
        if (rates["ri"] <= rates["fr"] <= rates["sfr"] <= rates["ccgi"]):
            passing += 1
    _report(5, f"available rates RI <= FR <= SFR <= CCGI on the 10-part "
               f"tower for {passing}/10 seeds (need >= 9)", passing >= 9)


def test_criterion_06_global_optimum_recovery(tower7):
    score = Evaluator(tower7).score(
        np.array(list(itertools.permutations(range(7)))))
    available = score.feasible & score.stable
    exhaustive = min(sum(v) for v in score.objectives[available].tolist())
    hits = 0
    worst_time = 0.0
    for seed in range(10):
        t0 = time.time()
        result = run(tower7, GaConfig(pop_size=100, generations=200,
                                      iterations=1, seed=seed))
        worst_time = max(worst_time, time.time() - t0)
        if result.best_evaluation.objective_sum <= exhaustive + 1e-9:
            hits += 1
    ok = hits >= 9 and worst_time <= 60
    _report(6, f"200-generation run reaches the exhaustive optimum "
               f"{exhaustive:.6f} for {hits}/10 seeds "
               f"(worst {worst_time:.1f}s <= 60s)", ok)


def test_criterion_07_convergence_shape(tower10):
    reach = 0
    monotone = True
    for seed in range(10):
        result = run(tower10, GaConfig(pop_size=40, generations=25,
                                       iterations=1, seed=seed))
        rates = {r.generation: r.available_rate for r in result.history}
        if any(rates[g] == 100.0 for g in range(0, 21) if g in rates):
            reach += 1
        sums = [r.best_sum for r in result.history]
        monotone = monotone and all(b <= a for a, b in zip(sums, sums[1:]))
    ok = reach >= 9 and monotone
    _report(7, f"population availability reaches 100% within 20 generations "
               f"for {reach}/10 seeds; best-so-far non-increasing "
               f"({'yes' if monotone else 'no'})", ok)


def test_criterion_08_ablation_ordinals(tower10_labeled):
    cfg = GaConfig(pop_size=24, generations=12, iterations=10, divisions=4)
    rate_ok = True
    sigma_hits = 0
    for seed in range(10):
        report = ablation_run(tower10_labeled,
                              GaConfig(**{**cfg.__dict__, "seed": seed}))
        proposed = report.row("proposed")
        if proposed.available_rate < report.row("wo_ccgi").available_rate:
            rate_ok = False
        ablation_sigmas = [report.row(f"wo_f{k}").normalized_sigma
                           for k in "depa"]
        beaten = sum(proposed.normalized_sigma <= s for s in ablation_sigmas)
        if beaten >= 3:
            sigma_hits += 1
    ok = rate_ok and sigma_hits >= 7
    _report(8, f"proposed >= wo-CCGI available rate every seed "
               f"({'yes' if rate_ok else 'no'}); normalized sigma beats >=3 "
               f"of 4 ablations for {sigma_hits}/10 seeds (need >= 7)", ok)


def test_criterion_09_single_objective_dominance(tower10_labeled):
    keys = "depa"
    hits = 0
    for seed in range(10):
        cfg = GaConfig(pop_size=24, generations=12, iterations=10,
                       divisions=4, seed=seed)
        finals = {}
        for k in keys:
            report = single_objective_run(tower10_labeled, cfg, k)
            finals[k] = report.row(f"w_{k}").obj_mean
        seed_ok = True
        for i, k in enumerate(keys):
            own = finals[k][i]
            if any(finals[other][i] < own - 1e-12
                   for other in keys if other != k):
                seed_ok = False
        hits += seed_ok
    _report(9, f"each single-objective run minimizes its own objective "
               f"for {hits}/10 seeds (need >= 8)", hits >= 8)


def test_criterion_10_determinism(tower10_labeled, tmp_path):
    cfg = dict(pop_size=20, generations=6, iterations=2, seed=77)
    a = run(tower10_labeled, GaConfig(**cfg, parallel=False))
    b = run(tower10_labeled, GaConfig(**cfg, parallel=True))
    c = run(tower10_labeled, GaConfig(**cfg, parallel=False))
    same_rerun = a.to_json() == c.to_json()
    da, db = json.loads(a.to_json()), json.loads(b.to_json())
    da.pop("config")
    db.pop("config")
    same_parallel = da == db

    data_path = tmp_path / "tower.json"
    save_dataset(tower10_labeled, data_path)
    args = ["plan", "--dataset", str(data_path), "--pop", "16",
            "--generations", "4", "--iterations", "1", "--seed", "9"]
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args + ["--out", str(d1)]) == 0
    assert main(args + ["--out", str(d2)]) == 0
    cli_same = all((d1 / n).read_bytes() == (d2 / n).read_bytes()
                   for n in ("plan_result.txt", "plan_result.json",
                             "history.csv"))
    r1 = init_benchmark(tower10_labeled, trials=50, seed=5)
    r2 = init_benchmark(tower10_labeled, trials=50, seed=5)
    e1, e2 = tmp_path / "b1", tmp_path / "b2"
    emit_report(r1, e1)
    emit_report(r2, e2)
    report_same = all(p1.read_bytes() == p2.read_bytes()
                      for p1, p2 in zip(sorted(e1.iterdir()),
                                        sorted(e2.iterdir())))
    ok = same_rerun and same_parallel and cli_same and report_same
    _report(10, "identical seeds give byte-identical results and reports, "
                "with and without parallel evaluation", ok)


def test_criterion_11_penalty_exactness(tower5, tower10):
    ok = True
    seen_unavailable = 0
    rng = np.random.default_rng(0)
    for ds, perms in (
            (tower5, list(itertools.permutations(range(5)))),
            (tower10, [rng.permutation(10) for _ in range(300)])):
        score = Evaluator(ds).score(np.array(perms))
        unavailable = ~(score.feasible & score.stable)
        seen_unavailable += int(unavailable.sum())
        ok = ok and all(tuple(v) == PENALTY
                        for v in score.objectives[unavailable].tolist())
    ok = ok and seen_unavailable > 0
    _report(11, f"every constraint-violating sequence scores exactly "
                f"(1,1,1,1) ({seen_unavailable} cases)", ok)


def test_criterion_12_scale_smoke():
    assembly, catalog = generate_synthetic(
        n_layers=7, screws_per_layer=4, manual_fraction=0.3,
        priority_count=2, seed=12)
    dataset = build_dataset(assembly, catalog)
    assert len(dataset.catalog) == 36
    t0 = time.time()
    result = run(dataset, GaConfig(pop_size=100, generations=500,
                                   iterations=10, seed=0))
    elapsed = time.time() - t0
    every_iteration = all(b.evaluation.available
                          for b in result.iteration_bests)
    ok = elapsed <= 300 and every_iteration and len(
        result.iteration_bests) == 10
    _report(12, f"36 parts, 500 generations x 10 iterations in "
                f"{elapsed:.0f}s <= 300s, available best in every iteration",
            ok)
