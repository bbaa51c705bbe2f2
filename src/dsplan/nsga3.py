"""Many-objective GA: non-dominated sorting, reference-line niching, the
four permutation operators, and the outer iteration / generation loops.

A population is held as arrays: ``(P, n)`` index permutations (positions
into part_order; part ids appear only at the API boundary), the feasible
and stable flags and the ``(P, 4)`` objectives, all from one
``Evaluator.score`` call.  Each generation sorts once: survivor selection
admits whole fronts in order, so the survivors keep their pool front ranks
and mating reuses them; only an iteration's initial population is sorted
on its own.  Offspring are made in two passes: a scalar pass draws every
random number in a fixed order (none depends on chromosome contents), and
each operator's ``_*_rows`` function then applies its draws to all its
children at once as ``(k, n)`` gathers.  The champion (``_best_member``)
and the history rows are reductions over the arrays.  All randomness flows
through one explicitly seeded generator, read scalar by scalar through one
``draws.Draws`` reader per ``run``, so a fixed seed gives a
bitwise-identical result per numpy version.  ``GaConfig.parallel``
selects no code path; it is kept because the serialized config in
``plan_result.json`` records it.
"""

from __future__ import annotations

import itertools
import json
import math
from bisect import insort
from dataclasses import dataclass, field, asdict
from typing import NamedTuple

import numpy as np

from .ccg import INIT_METHODS, make_initializer
from .constraints import MODES
from .draws import Draws
from .model import Dataset
from .objectives import OBJECTIVE_KEYS, Evaluation, Evaluator

SELECTION_METHODS = ("reference-line", "crowding")
MATING_METHODS = ("tournament", "random")
# _associate holds three (2 * pop_size, points) float64 arrays, 160 MB each
# at pop 100 and this many reference points
MAX_REFERENCE_POINTS = 100_000


@dataclass
class GaConfig:
    """Planner parameters; defaults are declared, not tuned to any source."""

    pop_size: int = 100
    crossover_rate: float = 0.9
    mutation_rate: float = 0.3
    cut_paste_rate: float = 0.2
    break_join_rate: float = 0.2
    generations: int = 500
    iterations: int = 10
    divisions: int = 6
    seed: int = 0
    mode: str = "as-written"
    objectives: tuple[str, ...] = OBJECTIVE_KEYS
    init: str = "ccgi"
    selection: str = "reference-line"
    mating: str = "tournament"
    adaptive_normalize: bool = False
    # recorded in the serialized config only; evaluation is always batched
    parallel: bool = False

    def __post_init__(self):
        self.objectives = tuple(self.objectives)

    def validate(self) -> None:
        if self.pop_size < 4:
            raise ValueError("pop_size must be >= 4")
        for name in ("crossover_rate", "mutation_rate", "cut_paste_rate",
                     "break_join_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.generations < 0 or self.iterations < 1 or self.divisions < 1:
            raise ValueError("generations >= 0, iterations >= 1, "
                             "divisions >= 1 required")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if (not self.objectives
                or any(k not in OBJECTIVE_KEYS for k in self.objectives)
                or len(set(self.objectives)) != len(self.objectives)):
            raise ValueError("objectives must be a non-empty subset of "
                             f"{OBJECTIVE_KEYS}")
        k = len(self.objectives)
        points = math.comb(self.divisions + k - 1, k - 1)
        if points > MAX_REFERENCE_POINTS:
            raise ValueError(f"divisions {self.divisions} over {k} objectives "
                             f"make {points} reference points, more than "
                             f"{MAX_REFERENCE_POINTS}")
        if self.init not in INIT_METHODS:
            raise ValueError(f"unknown init method {self.init!r}")
        if self.selection not in SELECTION_METHODS:
            raise ValueError(f"unknown selection {self.selection!r}")
        if self.mating not in MATING_METHODS:
            raise ValueError(f"unknown mating scheme {self.mating!r}")

    def objective_mask(self) -> np.ndarray:
        return np.array([k in self.objectives for k in OBJECTIVE_KEYS])


def das_dennis_points(n_objectives: int, divisions: int) -> np.ndarray:
    """Simplex lattice {k/p : sum k = p} in lexicographic order."""
    if n_objectives < 1 or divisions < 1:
        raise ValueError("need n_objectives >= 1 and divisions >= 1")
    # stars and bars: each choice of n_objectives - 1 bars among the slots,
    # in lexicographic order, leaves k stars between two bars
    slots = divisions + n_objectives - 1
    points = [[b - a - 1 for a, b in zip((-1, *bars), (*bars, slots))]
              for bars in itertools.combinations(range(slots),
                                                 n_objectives - 1)]
    return np.array(points, dtype=np.float64) / divisions


def non_dominated_sort(objs: np.ndarray) -> list[np.ndarray]:
    """Partition objective vectors into fronts (minimization).

    x dominates y iff x <= y componentwise and x != y.
    """
    objs = np.asarray(objs, dtype=np.float64)
    m = objs.shape[0]
    if m == 0:
        return []
    # one objective column at a time: (m, m) planes, no (m, m, k) cube
    le = np.ones((m, m), dtype=bool)
    lt = np.zeros((m, m), dtype=bool)
    for col in objs.T:
        le &= col[:, None] <= col[None, :]
        lt |= col[:, None] < col[None, :]
    dominates = le & lt
    counts = dominates.sum(axis=0).astype(np.int64)
    fronts: list[np.ndarray] = []
    assigned = np.zeros(m, dtype=bool)
    front = np.flatnonzero(counts == 0)
    while front.size:
        fronts.append(front)
        assigned[front] = True
        counts = counts - dominates[front].sum(axis=0)
        counts[assigned] = -1
        front = np.flatnonzero(counts == 0)
    return fronts


def _front_ranks(fronts: list[np.ndarray], m: int) -> np.ndarray:
    rank = np.empty(m, dtype=np.int64)
    for r, front in enumerate(fronts):
        rank[front] = r
    return rank


def _associate(objs: np.ndarray, refs: np.ndarray):
    """Nearest reference line per vector: (line index, perpendicular distance)."""
    unit = refs / np.linalg.norm(refs, axis=1, keepdims=True)
    proj = objs @ unit.T
    sq = (objs ** 2).sum(axis=1, keepdims=True) - proj ** 2
    dist = np.sqrt(np.maximum(sq, 0.0))
    idx = dist.argmin(axis=1)
    return idx, dist[np.arange(len(objs)), idx]


def _adaptive_normalize(objs: np.ndarray) -> np.ndarray:
    lo = objs.min(axis=0)
    span = objs.max(axis=0) - lo
    span[span <= 1e-12] = 1.0
    return (objs - lo) / span


def _admit_fronts(fronts: list[np.ndarray],
                  n_select: int) -> tuple[list[int], np.ndarray | None]:
    """Whole fronts in order while they fit, then the splitting front."""
    total = sum(len(f) for f in fronts)
    if total < n_select:
        raise ValueError(f"cannot select {n_select} from {total} members")
    chosen: list[int] = []
    for front in fronts:
        if len(chosen) == n_select:
            break
        if len(chosen) + len(front) > n_select:
            return chosen, front
        chosen += front.tolist()
    return chosen, None


def niche_select(objs: np.ndarray, fronts: list[np.ndarray],
                 refs: np.ndarray, n_select: int, rng,
                 normalize: bool = False) -> np.ndarray:
    """Reference-line environmental selection over pre-sorted fronts.

    Whole fronts are admitted until the splitting front; within it, niches
    are filled least-crowded-first with random tie-breaks from ``rng``
    (Deb & Jain 2014, Sec. IV-E).  ``buckets[r]`` lists the live niches with
    niche count r; a niche without candidates is dropped when drawn.
    Objective space is used as-is by default (the objectives are already
    normalized with the ideal point at the origin).
    """
    chosen, split = _admit_fronts(fronts, n_select)
    if split is None:
        return np.array(chosen, dtype=np.int64)
    split = split.tolist()
    pts = _adaptive_normalize(objs) if normalize else objs
    assoc, dist = _associate(pts[chosen + split], refs)
    rho = np.bincount(assoc[:len(chosen)], minlength=len(refs)).tolist()
    pools: list[list[int]] = [[] for _ in refs]    # candidates, front order
    for pos, a in enumerate(assoc[len(chosen):].tolist()):
        pools[a].append(pos)
    dist = dist[len(chosen):].tolist()
    buckets: list[list[int]] = [[] for _ in range(max(rho) + n_select + 1)]
    for j, r in enumerate(rho):
        buckets[r].append(j)
    r = 0
    while len(chosen) < n_select:
        while not buckets[r]:
            r += 1
        best = buckets[r]
        at = rng.integers(len(best))
        pool = pools[best[at]]
        if pool:
            # the nearest candidate opens a niche; later picks are random
            sel = (min(pool, key=dist.__getitem__) if r == 0
                   else pool[rng.integers(len(pool))])
            pool.remove(sel)
            chosen.append(split[sel])
            insort(buckets[r + 1], best[at])
        del best[at]
    return np.array(chosen, dtype=np.int64)


def crowding_distance(objs: np.ndarray) -> np.ndarray:
    """NSGA-II crowding distance within one front."""
    m, n_obj = objs.shape
    d = np.zeros(m, dtype=np.float64)
    if m <= 2:
        d[:] = np.inf
        return d
    for c in range(n_obj):
        vals = objs[:, c]
        order = np.argsort(vals, kind="stable")
        d[order[0]] = d[order[-1]] = np.inf
        span = vals[order[-1]] - vals[order[0]]
        if span <= 0:
            continue
        d[order[1:-1]] += (vals[order[2:]] - vals[order[:-2]]) / span
    return d


def crowding_select(objs: np.ndarray, fronts: list[np.ndarray],
                    n_select: int) -> np.ndarray:
    """NSGA-II-style environmental selection (the w/o reference-line baseline)."""
    chosen, split = _admit_fronts(fronts, n_select)
    if split is not None:
        d = crowding_distance(objs[split])
        order = np.argsort(-d, kind="stable")
        chosen += split[order[:n_select - len(chosen)]].tolist()
    return np.array(chosen, dtype=np.int64)


def _draw_window(rng, n: int) -> tuple[int, int]:
    i, j = rng.integers(n + 1), rng.integers(n + 1)
    return (i, j) if i <= j else (j, i)


def _draw_cut(rng, n: int) -> tuple[int, int, int]:
    i, j = _draw_window(rng, n)
    return i, j, rng.integers(n - (j - i) + 1)


def _ox_rows(keepers: np.ndarray, fillers: np.ndarray, i, j) -> np.ndarray:
    """Order crossover per row: keep ``keepers[r, i_r:j_r]`` in place and
    fill the other positions with the rest of ``fillers[r]`` in its order."""
    k, n = keepers.shape
    pos = np.arange(n)
    window = (pos >= np.asarray(i)[:, None]) & (pos < np.asarray(j)[:, None])
    # chromosomes hold non-negative ids, so a mask over 0..max marks each
    # row's kept window
    kept = np.zeros((k, max(keepers.max(initial=0),
                            fillers.max(initial=0)) + 1), dtype=bool)
    kept[np.nonzero(window)[0], keepers[window]] = True
    children = keepers.copy()
    children[~window] = fillers[~kept[np.arange(k)[:, None], fillers]]
    return children


def _swap_rows(rows: np.ndarray, i, j) -> np.ndarray:
    """Swap positions ``i_r`` and ``j_r`` of each row."""
    out = rows.copy()
    r = np.arange(len(rows))
    out[r, i], out[r, j] = rows[r, j], rows[r, i]
    return out


def _cut_paste_rows(rows: np.ndarray, i, j, g) -> np.ndarray:
    """Move each row's window ``i_r:j_r`` to gap ``g_r`` of the rest."""
    q = np.arange(rows.shape[1])
    i, j, g = (np.asarray(v)[:, None] for v in (i, j, g))
    w = j - i
    rest = np.where(q < g, q, q - w)
    src = np.where(rest < i, rest, rest + w)
    src = np.where((q >= g) & (q < g + w), i + q - g, src)
    return np.take_along_axis(rows, src, axis=1)


def _rotate_rows(rows: np.ndarray, p) -> np.ndarray:
    """Each row split at ``p_r`` with its two segments swapped."""
    n = rows.shape[1]
    src = (np.arange(n) + np.asarray(p)[:, None]) % n
    return np.take_along_axis(rows, src, axis=1)


def _best_member(feasible: np.ndarray, stable: np.ndarray,
                 objectives: np.ndarray,
                 mask: np.ndarray) -> tuple[int, tuple]:
    """Index of the first best member and its key as a comparable tuple.

    Key columns, most significant first: available before unavailable,
    then the enabled-objective sum (the number of violated criteria when
    unavailable), then the objective vector.
    """
    available = feasible & stable
    violations = (~feasible).astype(np.float64) + ~stable
    keys = (~available,
            np.where(available, objectives[:, mask].sum(axis=1), violations),
            *objectives.T)
    i = int(np.lexsort(keys[::-1])[0])
    return i, tuple(col[i].item() for col in keys)


@dataclass(frozen=True)
class HistoryRow:
    """Population statistics after one generation (generation 0 = initial)."""

    iteration: int
    generation: int
    feasible_rate: float
    stable_rate: float
    available_rate: float
    mean_fd: float
    mean_fe: float
    mean_fp: float
    mean_fa: float
    best_sum: float
    sd_fd: float = 0.0
    sd_fe: float = 0.0
    sd_fp: float = 0.0
    sd_fa: float = 0.0


def history_csv(rows: list[HistoryRow]) -> str:
    """History rows as CSV text, one line per generation."""
    lines = ["iter,gen,feasible_rate,stable_rate,available_rate,"
             "mean_fd,mean_fe,mean_fp,mean_fa,best_sum"]
    for row in rows:
        vals = (row.feasible_rate, row.stable_rate, row.available_rate,
                row.mean_fd, row.mean_fe, row.mean_fp, row.mean_fa,
                row.best_sum)
        lines.append(f"{row.iteration},{row.generation}," + ",".join(
            format(v, ".6f") for v in vals))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class IterationBest:
    iteration: int
    sequence: tuple[int, ...]
    evaluation: Evaluation


@dataclass
class PlanResult:
    """Planner output: global best, per-iteration bests, full history."""

    best_sequence: tuple[int, ...]
    best_evaluation: Evaluation
    best_labels: tuple[str, ...]
    iteration_bests: list[IterationBest] = field(default_factory=list)
    history: list[HistoryRow] = field(default_factory=list)
    config: GaConfig | None = None

    def removal_order(self) -> tuple[int, ...]:
        return tuple(reversed(self.best_sequence))

    def history_csv(self) -> str:
        return history_csv(self.history)

    def to_json(self) -> str:
        doc = {
            "best_sequence": list(self.best_sequence),
            "removal_order": list(self.removal_order()),
            "best_labels": list(self.best_labels),
            "best_evaluation": {
                "feasible": self.best_evaluation.feasible,
                "stable": self.best_evaluation.stable,
                "available": self.best_evaluation.available,
                "objectives": list(self.best_evaluation.objectives),
            },
            "iteration_bests": [
                {"iteration": b.iteration, "sequence": list(b.sequence),
                 "available": b.evaluation.available,
                 "objectives": list(b.evaluation.objectives)}
                for b in self.iteration_bests],
            "config": asdict(self.config) if self.config else None,
            "history": [asdict(r) for r in self.history],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


class _Population(NamedTuple):
    """Index permutations ``(P, n)`` with their flags and ``(P, 4)``
    objectives (the penalty vector where unavailable)."""

    perms: np.ndarray
    feasible: np.ndarray
    stable: np.ndarray
    objectives: np.ndarray

    def take(self, idx: np.ndarray) -> "_Population":
        return _Population(*(a[idx] for a in self))

    def concat(self, other: "_Population") -> "_Population":
        return _Population(*map(np.concatenate, zip(self, other)))

    def evaluation(self, i: int) -> Evaluation:
        f, s = bool(self.feasible[i]), bool(self.stable[i])
        return Evaluation(f, s, f and s, tuple(self.objectives[i].tolist()))


class _Champion:
    """Best-so-far tracker; earlier discoveries win ties."""

    def __init__(self, mask: np.ndarray):
        self.mask = mask
        self.key = None
        self.perm: np.ndarray | None = None
        self.evaluation: Evaluation | None = None

    def offer(self, key: tuple, perm: np.ndarray,
              evaluation: Evaluation) -> None:
        if self.key is None or key < self.key:
            self.key = key
            self.perm = perm.copy()
            self.evaluation = evaluation

    @property
    def best_sum(self) -> float:
        vec = np.asarray(self.evaluation.objectives)
        return float(vec[self.mask].sum())


def _select(objs: np.ndarray, config: GaConfig, refs: np.ndarray,
            rng: Draws) -> tuple[np.ndarray, np.ndarray]:
    """Survivors of the pool ``objs`` and their front ranks.

    Selection admits whole fronts in order, so every member dominating a
    survivor (and so on down its longest dominance chain) survives too:
    the pool ranks of the survivors are their ranks among themselves.
    """
    fronts = non_dominated_sort(objs)
    if config.selection == "crowding":
        keep = crowding_select(objs, fronts, config.pop_size)
    else:
        keep = niche_select(objs, fronts, refs, config.pop_size, rng,
                            config.adaptive_normalize)
    return keep, _front_ranks(fronts, len(objs))[keep]


def run(dataset: Dataset, config: GaConfig) -> PlanResult:
    """Full planning loop: seeded populations, evaluation, sorting, niching,
    offspring generation, across the configured iterations."""
    config.validate()
    evaluator = Evaluator(dataset, config.mode)
    init = make_initializer(config.init, dataset.catalog, dataset.matrices)
    mask = config.objective_mask()
    refs = das_dennis_points(int(mask.sum()), config.divisions)

    def score(perms: np.ndarray) -> _Population:
        s = evaluator.score(perms)
        return _Population(perms, s.feasible, s.stable, s.objectives)

    def offer(pop: _Population) -> None:
        i, key = _best_member(pop.feasible, pop.stable, pop.objectives, mask)
        evaluation = pop.evaluation(i)
        iter_champ.offer(key, pop.perms[i], evaluation)
        global_champ.offer(key, pop.perms[i], evaluation)

    def stats_row(iteration, generation, pop: _Population) -> HistoryRow:
        arr = pop.objectives
        pct = 100.0 / len(arr)
        return HistoryRow(
            iteration=iteration, generation=generation,
            feasible_rate=int(pop.feasible.sum()) * pct,
            stable_rate=int(pop.stable.sum()) * pct,
            available_rate=int((pop.feasible & pop.stable).sum()) * pct,
            mean_fd=float(arr[:, 0].mean()), mean_fe=float(arr[:, 1].mean()),
            mean_fp=float(arr[:, 2].mean()), mean_fa=float(arr[:, 3].mean()),
            best_sum=global_champ.best_sum,
            sd_fd=float(arr[:, 0].std()), sd_fe=float(arr[:, 1].std()),
            sd_fp=float(arr[:, 2].std()), sd_fa=float(arr[:, 3].std()))

    global_champ = _Champion(mask)
    history: list[HistoryRow] = []
    iteration_bests: list[IterationBest] = []

    with Draws(np.random.default_rng(config.seed)) as rng:
        for iteration in range(1, config.iterations + 1):
            pop = score(np.array([evaluator.to_indices(init(rng))
                                  for _ in range(config.pop_size)]))
            iter_champ = _Champion(mask)
            offer(pop)
            history.append(stats_row(iteration, 0, pop))
            rank = _front_ranks(non_dominated_sort(pop.objectives[:, mask]),
                                config.pop_size)

            for generation in range(1, config.generations + 1):
                offspring = score(_make_offspring(pop, rank, config, mask,
                                                  refs, rng))
                offer(offspring)
                pool = pop.concat(offspring)
                keep, rank = _select(pool.objectives[:, mask], config, refs,
                                     rng)
                pop = pool.take(keep)
                history.append(stats_row(iteration, generation, pop))

            iteration_bests.append(IterationBest(
                iteration=iteration,
                sequence=evaluator.to_ids(iter_champ.perm),
                evaluation=iter_champ.evaluation))

    best_ids = evaluator.to_ids(global_champ.perm)
    labels = tuple(dataset.catalog.by_id(pid).task_label for pid in best_ids)
    return PlanResult(
        best_sequence=best_ids,
        best_evaluation=global_champ.evaluation,
        best_labels=labels,
        iteration_bests=iteration_bests,
        history=history,
        config=config)


def _make_offspring(pop: _Population, rank: np.ndarray, config: GaConfig,
                    mask: np.ndarray, refs: np.ndarray, rng) -> np.ndarray:
    """Binary tournament on (front rank, niche distance) plus the four
    operators at their configured rates; always emits pop_size children.

    Every draw is made first, pair by pair in a fixed order; then each
    operator is applied to all the children it drew for.
    """
    perms = pop.perms
    size, n = perms.shape
    objs = pop.objectives[:, mask]
    if config.selection == "crowding":
        tie = np.empty(size, dtype=np.float64)
        for r in range(int(rank.max()) + 1):
            front = np.flatnonzero(rank == r)
            tie[front] = -crowding_distance(objs[front])  # larger wins ties
    else:
        _, tie = _associate(objs, refs)
    rank_of, tie_of = rank.tolist(), tie.tolist()

    def pick() -> int:
        if config.mating == "random":
            return rng.integers(size)
        # the same pair as integers(0, size, size=2)
        i, j = rng.integers(size), rng.integers(size)
        return i if (rank_of[i], tie_of[i]) <= (rank_of[j], tie_of[j]) else j

    pairs = (config.pop_size + 1) // 2
    parents, windows, swaps, cuts, breaks = [], [], [], [], []
    for k in range(pairs):
        parents.append((pick(), pick()))
        if rng.random() < config.crossover_rate:
            windows.append((k, *_draw_window(rng, n)))
        for child in (2 * k, 2 * k + 1):
            if rng.random() < config.mutation_rate:
                swaps.append((child, rng.integers(n), rng.integers(n)))
            if rng.random() < config.cut_paste_rate:
                cuts.append((child, *_draw_cut(rng, n)))
            if rng.random() < config.break_join_rate:
                breaks.append((child, rng.integers(n + 1)))

    children = perms[np.array(parents).reshape(-1)]
    if windows:
        k, i, j = np.array(windows).T
        rows = np.concatenate((2 * k, 2 * k + 1))
        children[rows] = _ox_rows(children[rows], children[rows ^ 1],
                                  np.tile(i, 2), np.tile(j, 2))
    for draws, apply in ((swaps, _swap_rows), (cuts, _cut_paste_rows),
                         (breaks, _rotate_rows)):
        if draws:
            rows, *args = np.array(draws).T
            children[rows] = apply(children[rows], *args)
    return children[:config.pop_size]
