"""The four normalized objectives and the one verdict path.

All objectives are minimized and normalized to [0, 1].  A sequence that
fails any constraint scores exactly (1, 1, 1, 1).  Vector order throughout:
difficulty, efficiency, prioritization, allocability.  ``Evaluator.score``
holds the one implementation of every verdict over a whole population at
once: the three constraint criteria, the first violation and the
objectives, counted from the ``constraints`` rows of the evaluator's mode
and the f_d degree rows in one matmul.  ``check`` and ``evaluate`` are row
0 of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constraints import (
    TERMS,
    ConstraintFlags,
    before_matrix,
    motion_rows,
    order_rows,
    positions,
    stability_rows,
)
from .model import Dataset, validate_sequence

OBJECTIVE_KEYS = ("d", "e", "p", "a")
PENALTY = (1.0, 1.0, 1.0, 1.0)


@dataclass(frozen=True)
class Evaluation:
    """Constraint flags plus the four-objective vector of one sequence."""

    feasible: bool
    stable: bool
    available: bool
    objectives: tuple[float, float, float, float]

    def __post_init__(self):
        if self.available != (self.feasible and self.stable):
            raise ValueError("available must equal feasible and stable")
        if not self.available and self.objectives != PENALTY:
            raise ValueError("unavailable sequences must score exactly "
                             f"{PENALTY}")
        if any(not 0.0 <= v <= 1.0 for v in self.objectives):
            raise ValueError("objective values must lie in [0, 1]")

    @property
    def objective_sum(self) -> float:
        return float(sum(self.objectives))


class Score(NamedTuple):
    """Verdicts of every row of a ``(P, n)`` population.

    ``order``, ``motion`` and ``stable`` are one ``(P,)`` flag per
    criterion.  ``violated`` indexes ``TERMS`` for the first criterion a
    row fails (-1 where available), and ``position`` is the 1-based
    storage position of its first failing term (0 where available).
    ``objectives`` is ``(P, 4)``, the penalty vector where unavailable.
    """

    order: np.ndarray
    motion: np.ndarray
    stable: np.ndarray
    violated: np.ndarray
    position: np.ndarray
    objectives: np.ndarray

    @property
    def feasible(self) -> np.ndarray:
        return self.order & self.motion


class Evaluator:
    """Precomputed tables for repeated sequence evaluation on one dataset.

    The weight rows ``W[a, m, b]`` of every term in ``TERMS`` in this
    evaluator's mode, plus the f_d rows (part b below part a adds its
    degree ``x_cs[b, a]``), are stacked into one ``(n, M, n)`` float32
    array, so ``score`` rates a whole population with one batched matmul:
    ``count[a, m, p] = sum_b W[a, m, b] * E[a, b, p]``.  The counts are sums
    of 0/1 products or small integers, which float32 holds exactly.  The
    other objectives are gathers over the ``(P, n)`` index array.  The
    single-sequence answers are row 0 of a population of one.
    """

    def __init__(self, dataset: Dataset, mode: str = "as-written"):
        catalog, matrices, motions = dataset
        self.dataset = dataset
        self.part_order = order = matrices.part_order
        self.index = {pid: j for j, pid in enumerate(order)}
        self.n = len(order)
        blocks = (order_rows(matrices, mode), motion_rows(motions, mode),
                  stability_rows(matrices),
                  matrices.constraint_degree.T[:, None, :])
        self.weights = np.concatenate(
            [rows.astype(np.float32) for rows in blocks], axis=1)
        # where each block's options end along axis 1 of the weights
        self._cuts = np.cumsum([rows.shape[1] for rows in blocks])[:-1]

        parts = [catalog.by_id(pid) for pid in order]
        labels = [part.task_label for part in parts]
        uniq = {t: c for c, t in enumerate(sorted(set(labels)))}
        self.task_codes = np.array([uniq[t] for t in labels], dtype=np.int64)
        self.manual = np.array([t == "manual" for t in labels], dtype=bool)
        self.coms = np.array([part.com for part in parts], dtype=np.float64)
        if self.n > 1:
            deltas = self.coms[:, None, :] - self.coms[None, :, :]
            self.d_max = float(np.sqrt((deltas ** 2).sum(-1)).max())
        else:
            self.d_max = 0.0
        self.priority_idx = np.array(
            [j for j, part in enumerate(parts) if part.priority],
            dtype=np.int64)
        npp = len(self.priority_idx)
        # largest attainable sum of priority-part positions
        self.r_max = float(sum(range(self.n - npp + 1, self.n + 1)))

    def to_indices(self, seq) -> np.ndarray:
        index = self.index
        return np.fromiter((index[int(x)] for x in seq), dtype=np.int64,
                           count=len(seq))

    def to_ids(self, perm: np.ndarray) -> tuple[int, ...]:
        return tuple(self.part_order[j] for j in perm)

    def counts(self, pos: np.ndarray) -> dict[str, np.ndarray]:
        """``(n, M, P)`` counts of each term's rows and of the f_d rows
        (key ``"degree"``) for the ``positions`` ``pos`` of a population."""
        stacked = np.matmul(self.weights, before_matrix(pos))
        return dict(zip((*TERMS, "degree"),
                        np.split(stacked, self._cuts, axis=1)))

    def terms_at(self, perms: np.ndarray,
                 counts: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """``(P, n)`` boolean terms at storage positions, one per term.

        Order and motion terms hold when some option's count is 0, the
        stability term when the count is positive.  Manual parts are exempt
        from the motion term, and position 1 is vacuously true.
        """
        out = {}
        for term in TERMS:
            if term == "stability":
                holds = counts[term][:, 0] > 0
            else:
                holds = (counts[term] == 0).any(axis=1)
            if term == "motion":
                holds |= self.manual[:, None]
            at = np.take_along_axis(holds.T, perms, axis=1)
            at[:, 0] = True
            out[term] = at
        return out

    def _objectives(self, perms: np.ndarray, pos: np.ndarray,
                    degree: np.ndarray) -> np.ndarray:
        """``(P, 4)`` objective values of ``perms`` assuming availability;
        ``pos`` is their ``positions`` and ``degree`` the ``(n, 1, P)``
        accumulated degree."""
        n = self.n
        out = np.zeros((len(perms), 4), dtype=np.float64)
        if n < 2:
            return out
        # the part at position 1 counts 0, so the max over all parts is the
        # peak over positions 2..n
        out[:, 0] = degree[:, 0].max(axis=0).astype(np.float64) / (
            12.0 * (n - 1))

        codes = self.task_codes[perms]
        changes = np.count_nonzero(codes[:, 1:] != codes[:, :-1], axis=1)
        steps = self.coms[perms[:, 1:]] - self.coms[perms[:, :-1]]
        travel = np.sqrt((steps ** 2).sum(-1)).sum(axis=1)
        dist_term = travel / (n * self.d_max) if self.d_max > 0 else 0.0
        out[:, 1] = (changes / (n - 1) + dist_term) / 2.0

        # positions are integers below 2**24, so float32 sums are exact
        if len(self.priority_idx):
            r = pos[:, self.priority_idx].sum(axis=1).astype(np.float64)
            out[:, 2] = 1.0 - r / self.r_max
        if np.count_nonzero(self.manual) >= 2:
            mpos = pos[:, self.manual]
            span = mpos.max(axis=1) - mpos.min(axis=1)
            out[:, 3] = span.astype(np.float64) / (n - 1)
        return out

    def score(self, perms: np.ndarray) -> Score:
        """The ``Score`` of every row of the index permutations ``perms``."""
        perms = np.asarray(perms, dtype=np.int64)
        pos = positions(perms)
        counts = self.counts(pos)
        terms = self.terms_at(perms, counts)
        held = np.stack([terms[t] for t in TERMS], axis=1)      # (P, 3, n)
        ok = held.all(axis=2)
        available = ok.all(axis=1)
        violated = np.where(available, -1, np.argmin(ok, axis=1))
        first = np.argmin(held[np.arange(len(perms)), violated], axis=1)
        position = np.where(available, 0, first + 1)
        objectives = self._objectives(perms, pos, counts["degree"])
        objectives[~available] = PENALTY
        return Score(*ok.T, violated, position, objectives)

    def _score_one(self, seq) -> Score:
        """The ``Score`` of the id sequence ``seq`` as a population of one."""
        seq = validate_sequence(seq, self.dataset.catalog)
        return self.score(self.to_indices(seq)[None])

    def evaluate(self, seq) -> Evaluation:
        s = self._score_one(seq)
        feasible, stable = bool(s.feasible[0]), bool(s.stable[0])
        return Evaluation(feasible, stable, feasible and stable,
                          tuple(s.objectives[0].tolist()))


def evaluate(seq, dataset: Dataset, mode: str = "as-written") -> Evaluation:
    """Constraint check plus objectives; the all-ones penalty when blocked."""
    return Evaluator(dataset, mode).evaluate(seq)


def check(seq, dataset: Dataset, mode: str = "as-written") -> ConstraintFlags:
    """Full constraint check of an id sequence against a dataset."""
    s = Evaluator(dataset, mode)._score_one(seq)
    order, motion, stable = (bool(a[0]) for a in (s.order, s.motion, s.stable))
    first = (None if s.violated[0] < 0
             else (TERMS[s.violated[0]], int(s.position[0])))
    return ConstraintFlags(order, motion, stable, order and motion and stable,
                           first)
