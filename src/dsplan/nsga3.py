"""Many-objective GA: non-dominated sorting, reference-line niching, the
four permutation operators, and the outer iteration / generation loops.

The population is a ``(P, n)`` array of index permutations (positions into
part_order); part ids appear only at the API boundary.  Each population is
scored by one ``Evaluator.evaluate_batch`` call.  All randomness flows
through one explicitly seeded generator, so a fixed seed gives a
bitwise-identical result.  ``GaConfig.parallel`` selects no code path; it is
kept because the serialized config in ``plan_result.json`` records it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .ccg import INIT_METHODS, make_initializer
from .model import Dataset
from .objectives import OBJECTIVE_KEYS, Evaluation, Evaluator

SELECTION_METHODS = ("reference-line", "crowding")
MATING_METHODS = ("tournament", "random")


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
        if self.mode not in ("as-written", "strict"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if (not self.objectives
                or any(k not in OBJECTIVE_KEYS for k in self.objectives)
                or len(set(self.objectives)) != len(self.objectives)):
            raise ValueError("objectives must be a non-empty subset of "
                             f"{OBJECTIVE_KEYS}")
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
    points: list[list[int]] = []

    def rec(prefix: list[int], remaining: int, slots: int) -> None:
        if slots == 1:
            points.append(prefix + [remaining])
            return
        for k in range(remaining + 1):
            rec(prefix + [k], remaining - k, slots - 1)

    rec([], divisions, n_objectives)
    return np.array(points, dtype=np.float64) / divisions


def non_dominated_sort(objs: np.ndarray) -> list[np.ndarray]:
    """Partition objective vectors into fronts (minimization).

    x dominates y iff x <= y componentwise and x != y.
    """
    objs = np.asarray(objs, dtype=np.float64)
    m = objs.shape[0]
    if m == 0:
        return []
    le = (objs[:, None, :] <= objs[None, :, :]).all(axis=-1)
    lt = (objs[:, None, :] < objs[None, :, :]).any(axis=-1)
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


def niche_select(objs: np.ndarray, fronts: list[np.ndarray],
                 refs: np.ndarray, n_select: int,
                 rng: np.random.Generator,
                 normalize: bool = False) -> np.ndarray:
    """Reference-line environmental selection over pre-sorted fronts.

    Whole fronts are admitted until the splitting front; within it, niches
    are filled least-crowded-first with random tie-breaks from ``rng``.
    Objective space is used as-is by default (the objectives are already
    normalized with the ideal point at the origin).
    """
    total = sum(len(f) for f in fronts)
    if total < n_select:
        raise ValueError(f"cannot select {n_select} from {total} members")
    chosen: list[int] = []
    l = 0
    while l < len(fronts) and len(chosen) + len(fronts[l]) <= n_select:
        chosen.extend(int(i) for i in fronts[l])
        l += 1
    if len(chosen) == n_select:
        return np.array(chosen, dtype=np.int64)

    split = [int(i) for i in fronts[l]]
    need = n_select - len(chosen)
    pts = _adaptive_normalize(objs) if normalize else objs
    members = np.array(chosen + split, dtype=np.int64)
    assoc, dist = _associate(pts[members], refs)
    n_chosen = len(chosen)
    rho = np.zeros(len(refs), dtype=np.int64)
    for a in assoc[:n_chosen]:
        rho[a] += 1
    cand_by_ref: dict[int, list[int]] = {}
    for pos, a in enumerate(assoc[n_chosen:]):
        cand_by_ref.setdefault(int(a), []).append(pos)

    active = np.ones(len(refs), dtype=bool)
    picked: list[int] = []
    taken = np.zeros(len(split), dtype=bool)
    while len(picked) < need:
        live = np.flatnonzero(active)
        best = live[rho[live] == rho[live].min()]
        j = int(best[rng.integers(len(best))])
        pool = [p for p in cand_by_ref.get(j, ()) if not taken[p]]
        if not pool:
            active[j] = False
            continue
        if rho[j] == 0:
            pool_dist = dist[n_chosen + np.array(pool)]
            sel = pool[int(pool_dist.argmin())]
        else:
            sel = pool[int(rng.integers(len(pool)))]
        taken[sel] = True
        picked.append(split[sel])
        rho[j] += 1
    return np.array(chosen + picked, dtype=np.int64)


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
    total = sum(len(f) for f in fronts)
    if total < n_select:
        raise ValueError(f"cannot select {n_select} from {total} members")
    chosen: list[int] = []
    l = 0
    while l < len(fronts) and len(chosen) + len(fronts[l]) <= n_select:
        chosen.extend(int(i) for i in fronts[l])
        l += 1
    if len(chosen) < n_select:
        split = fronts[l]
        d = crowding_distance(objs[split])
        order = np.argsort(-d, kind="stable")
        chosen.extend(int(split[i]) for i in order[:n_select - len(chosen)])
    return np.array(chosen, dtype=np.int64)


def crossover(a: np.ndarray, b: np.ndarray,
              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Order crossover: keep a random window, fill the rest in mate order."""
    n = len(a)
    i, j = sorted(rng.integers(0, n + 1, size=2))
    return _ox(a, b, i, j), _ox(b, a, i, j)


def _ox(keeper: np.ndarray, filler: np.ndarray, i: int, j: int) -> np.ndarray:
    child = np.empty_like(keeper)
    child[i:j] = keeper[i:j]
    # chromosomes hold non-negative ids, so a mask over 0..max marks the
    # kept window
    kept = np.zeros(max(keeper.max(initial=0), filler.max(initial=0)) + 1,
                    dtype=bool)
    kept[keeper[i:j]] = True
    rest = filler[~kept[filler]]
    child[:i] = rest[:i]
    child[j:] = rest[i:]
    return child


def mutate(s: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Swap two uniformly random positions (possibly the same)."""
    out = s.copy()
    i, j = rng.integers(0, len(s), size=2)
    out[i], out[j] = out[j], out[i]
    return out


def cut_and_paste(s: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Excise a random contiguous window and reinsert it at a random gap."""
    n = len(s)
    i, j = sorted(rng.integers(0, n + 1, size=2))
    window = s[i:j]
    rest = np.concatenate((s[:i], s[j:]))
    g = int(rng.integers(0, len(rest) + 1))
    return np.concatenate((rest[:g], window, rest[g:]))


def break_and_join(s: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Split at a random point and swap the two segments."""
    p = int(rng.integers(0, len(s) + 1))
    return np.concatenate((s[p:], s[:p]))


def _champion_key(evaluation: Evaluation, mask: np.ndarray):
    vec = np.asarray(evaluation.objectives)
    if evaluation.available:
        return (0, float(vec[mask].sum()), tuple(evaluation.objectives))
    violations = int(not evaluation.feasible) + int(not evaluation.stable)
    return (1, float(violations), tuple(evaluation.objectives))


def best_solution(evaluations: list[Evaluation],
                  objectives: tuple[str, ...] = OBJECTIVE_KEYS) -> int:
    """Index of the best member: available with minimal enabled-objective
    sum, lexicographic vector then lowest index on ties; with no available
    member, the fewest constraint violations."""
    if not evaluations:
        raise ValueError("empty population")
    mask = np.array([k in objectives for k in OBJECTIVE_KEYS])
    keys = [_champion_key(e, mask) for e in evaluations]
    return min(range(len(keys)), key=lambda i: keys[i])


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


HISTORY_CSV_HEADER = ("iter,gen,feasible_rate,stable_rate,available_rate,"
                      "mean_fd,mean_fe,mean_fp,mean_fa,best_sum")


def history_csv_line(row: HistoryRow) -> str:
    vals = (row.feasible_rate, row.stable_rate, row.available_rate,
            row.mean_fd, row.mean_fe, row.mean_fp, row.mean_fa, row.best_sum)
    return f"{row.iteration},{row.generation}," + ",".join(
        format(v, ".6f") for v in vals)


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
        lines = [HISTORY_CSV_HEADER]
        lines.extend(history_csv_line(r) for r in self.history)
        return "\n".join(lines) + "\n"

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


class _Champion:
    """Best-so-far tracker; earlier discoveries win ties."""

    def __init__(self, mask: np.ndarray):
        self.mask = mask
        self.key = None
        self.perm: np.ndarray | None = None
        self.evaluation: Evaluation | None = None

    def offer(self, perm: np.ndarray, evaluation: Evaluation) -> None:
        key = _champion_key(evaluation, self.mask)
        if self.key is None or key < self.key:
            self.key = key
            self.perm = perm.copy()
            self.evaluation = evaluation

    @property
    def best_sum(self) -> float:
        vec = np.asarray(self.evaluation.objectives)
        return float(vec[self.mask].sum())


def run(dataset: Dataset, config: GaConfig) -> PlanResult:
    """Full planning loop: seeded populations, evaluation, sorting, niching,
    offspring generation, across the configured iterations."""
    config.validate()
    evaluator = Evaluator(dataset, config.mode)
    rng = np.random.default_rng(config.seed)
    init = make_initializer(config.init, dataset.catalog, dataset.matrices)
    mask = config.objective_mask()
    refs = das_dennis_points(int(mask.sum()), config.divisions)

    def masked(evals: list[Evaluation]) -> np.ndarray:
        arr = np.array([e.objectives for e in evals], dtype=np.float64)
        return arr[:, mask]

    def stats_row(iteration, generation, evals, champion) -> HistoryRow:
        arr = np.array([e.objectives for e in evals], dtype=np.float64)
        pct = 100.0 / len(evals)
        return HistoryRow(
            iteration=iteration, generation=generation,
            feasible_rate=sum(e.feasible for e in evals) * pct,
            stable_rate=sum(e.stable for e in evals) * pct,
            available_rate=sum(e.available for e in evals) * pct,
            mean_fd=float(arr[:, 0].mean()), mean_fe=float(arr[:, 1].mean()),
            mean_fp=float(arr[:, 2].mean()), mean_fa=float(arr[:, 3].mean()),
            best_sum=champion.best_sum,
            sd_fd=float(arr[:, 0].std()), sd_fe=float(arr[:, 1].std()),
            sd_fp=float(arr[:, 2].std()), sd_fa=float(arr[:, 3].std()))

    global_champ = _Champion(mask)
    history: list[HistoryRow] = []
    iteration_bests: list[IterationBest] = []

    for iteration in range(1, config.iterations + 1):
        pop = np.array([evaluator.to_indices(init(rng))
                        for _ in range(config.pop_size)])
        evals = evaluator.evaluate_batch(pop)
        iter_champ = _Champion(mask)
        for perm, ev in zip(pop, evals):
            iter_champ.offer(perm, ev)
            global_champ.offer(perm, ev)
        history.append(stats_row(iteration, 0, evals, global_champ))

        for generation in range(1, config.generations + 1):
            offspring = _make_offspring(pop, evals, config, mask, refs, rng)
            off_evals = evaluator.evaluate_batch(offspring)
            for perm, ev in zip(offspring, off_evals):
                iter_champ.offer(perm, ev)
                global_champ.offer(perm, ev)
            pool = np.concatenate((pop, offspring))
            pool_evals = evals + off_evals
            fronts = non_dominated_sort(masked(pool_evals))
            if config.selection == "crowding":
                keep = crowding_select(masked(pool_evals), fronts,
                                       config.pop_size)
            else:
                keep = niche_select(masked(pool_evals), fronts, refs,
                                    config.pop_size, rng,
                                    config.adaptive_normalize)
            pop = pool[keep]
            evals = [pool_evals[i] for i in keep]
            history.append(stats_row(iteration, generation, evals,
                                     global_champ))

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


def _make_offspring(pop, evals, config: GaConfig, mask: np.ndarray,
                    refs: np.ndarray, rng: np.random.Generator):
    """Binary tournament on (front rank, niche distance) plus the four
    operators at their configured rates; always emits pop_size children."""
    objs = np.array([e.objectives for e in evals], dtype=np.float64)[:, mask]
    fronts = non_dominated_sort(objs)
    rank = np.empty(len(pop), dtype=np.int64)
    for r, front in enumerate(fronts):
        rank[front] = r
    if config.selection == "crowding":
        tie = np.empty(len(pop), dtype=np.float64)
        for front in fronts:
            d = crowding_distance(objs[front])
            tie[front] = -d  # larger crowding distance wins ties
    else:
        _, tie = _associate(objs, refs)

    def pick() -> int:
        if config.mating == "random":
            return int(rng.integers(len(pop)))
        i, j = rng.integers(0, len(pop), size=2)
        if rank[i] != rank[j]:
            return int(i if rank[i] < rank[j] else j)
        return int(i if tie[i] <= tie[j] else j)

    offspring: list[np.ndarray] = []
    while len(offspring) < config.pop_size:
        a, b = pop[pick()], pop[pick()]
        if rng.random() < config.crossover_rate:
            c1, c2 = crossover(a, b, rng)
        else:
            c1, c2 = a.copy(), b.copy()
        for child in (c1, c2):
            if rng.random() < config.mutation_rate:
                child = mutate(child, rng)
            if rng.random() < config.cut_paste_rate:
                child = cut_and_paste(child, rng)
            if rng.random() < config.break_join_rate:
                child = break_and_join(child, rng)
            offspring.append(child)
    return np.array(offspring[:config.pop_size])
