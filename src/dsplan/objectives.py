"""The four normalized objectives and the one verdict path.

All objectives are minimized and normalized to [0, 1].  A sequence that
fails any constraint scores exactly (1, 1, 1, 1).  Vector order throughout:
difficulty, efficiency, prioritization, allocability.  ``Evaluator.score``
holds the one implementation of every verdict over a whole population at
once: the three constraint criteria, the first violation and the
objectives, counted from the ``constraints`` rows of the evaluator's mode
and the f_d degree rows in one matmul, over row blocks whose position
matrix fits ``MAX_POOL_BYTES``.  ``Evaluator.terms`` is the one place that
turns those counts into per-position terms and the accumulated degree.
The ``Score`` of ``score`` is the population the planner carries, and
``Score.evaluation`` reads one row of it as an ``Evaluation``;
``evaluate`` is row 0 of a population of one.
``Evaluator.to_indices`` is the one boundary from part ids to the index
rows that ``score`` reads: one gather through an id lookup table, and the
one check that a sequence, or each row of a population, holds every
planned id exactly once, as integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constraints import (
    TERMS,
    before_matrix,
    motion_rows,
    order_rows,
    positions,
    stability_rows,
)
from .model import Dataset

OBJECTIVE_KEYS = ("d", "e", "p", "a")
PENALTY = (1.0, 1.0, 1.0, 1.0)
# bytes of one pool-sized working array: a block of ``Evaluator.score``
# rows, and each of the planner's pool kernels (``nsga3.GaConfig``)
MAX_POOL_BYTES = 1 << 30


@dataclass(frozen=True)
class Evaluation:
    """The verdict on one sequence: its three constraint criteria, the
    first violation (criterion in ``TERMS``, 1-based storage position) when
    it is unavailable, and its four-objective vector."""

    order_feasible: bool
    motion_feasible: bool
    stable: bool
    objectives: tuple[float, float, float, float]
    first_violation: tuple[str, int] | None = None

    def __post_init__(self):
        if (self.first_violation is None) != self.available:
            raise ValueError("first_violation must be given exactly when "
                             "the sequence is unavailable")
        if not self.available and self.objectives != PENALTY:
            raise ValueError("unavailable sequences must score exactly "
                             f"{PENALTY}")
        if any(not 0.0 <= v <= 1.0 for v in self.objectives):
            raise ValueError("objective values must lie in [0, 1]")

    @property
    def feasible(self) -> bool:
        return self.order_feasible and self.motion_feasible

    @property
    def available(self) -> bool:
        return self.feasible and self.stable

    @property
    def objective_sum(self) -> float:
        return float(sum(self.objectives))


class Score(NamedTuple):
    """A population of ``(P, n)`` index permutations ``perms`` and their
    verdicts.

    ``order``, ``motion`` and ``stable`` are one ``(P,)`` flag per
    criterion.  ``violated`` indexes ``TERMS`` for the first criterion a
    row fails (-1 where available), and ``position`` is the 1-based
    storage position of its first failing term (0 where available).
    ``objectives`` is ``(P, 4)``, the penalty vector where unavailable.
    """

    perms: np.ndarray
    order: np.ndarray
    motion: np.ndarray
    stable: np.ndarray
    violated: np.ndarray
    position: np.ndarray
    objectives: np.ndarray

    @property
    def feasible(self) -> np.ndarray:
        return self.order & self.motion

    @property
    def available(self) -> np.ndarray:
        return self.feasible & self.stable

    def take(self, idx: np.ndarray) -> "Score":
        return Score(*(a[idx] for a in self))

    def concat(self, other: "Score") -> "Score":
        return Score(*map(np.concatenate, zip(self, other)))

    def evaluation(self, i: int) -> Evaluation:
        """Row ``i`` as an ``Evaluation``; the one place that builds one."""
        v = int(self.violated[i])
        return Evaluation(
            bool(self.order[i]), bool(self.motion[i]), bool(self.stable[i]),
            tuple(self.objectives[i].tolist()),
            None if v < 0 else (TERMS[v], int(self.position[i])))


class Evaluator:
    """Precomputed tables for repeated sequence evaluation on one dataset.

    The weight rows ``W[a, m, b]`` of every term in ``TERMS`` in this
    evaluator's mode, plus the f_d rows (part b below part a adds its
    degree ``x_cs[b, a]``), are stacked into one ``(n, M, n)`` float32
    array, so ``terms`` reads a whole population from one batched matmul:
    ``count[a, m, p] = sum_b W[a, m, b] * E[a, b, p]``.  The counts are sums
    of 0/1 products or small integers, which float32 holds exactly.
    ``score`` reduces the terms to verdicts and the degree to f_d; the
    other objectives are gathers over the ``(P, n)`` index array.  The
    single-sequence answers are row 0 of a population of one.
    """

    def __init__(self, dataset: Dataset, mode: str = "as-written"):
        catalog, matrices, motions = dataset
        self.dataset = dataset
        self.part_order = order = matrices.part_order
        self.n = len(order)
        self._lookup = np.full(max(order, default=0) + 2, -1, dtype=np.int64)
        self._lookup[list(order)] = np.arange(self.n)
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

    def to_indices(self, seqs) -> np.ndarray:
        """The index rows of an id sequence or a ``(P, n)`` array of them;
        ValueError unless the ids are integers, each planned one once a row."""
        arr = np.asarray(seqs)
        # numpy reads a bool among Python ints as 0 or 1
        if (arr.dtype.kind in "iu" and arr.ndim in (1, 2)
                and arr.shape[-1] == self.n and (arr is seqs or not any(
                    isinstance(x, (bool, np.bool_))
                    for x in np.asarray(seqs, dtype=object).flat))):
            # an id past either end clips to the table's extra last entry, -1
            idx = self._lookup[arr.clip(-1, len(self._lookup) - 1)]
            hit = np.zeros(idx.shape, dtype=bool)
            np.put_along_axis(hit, idx, True, axis=-1)
            if (idx >= 0).all() and hit.all():
                return idx
        raise ValueError("sequence is not a permutation of the non-ignored "
                         "part ids")

    def to_ids(self, perm: np.ndarray) -> tuple[int, ...]:
        return tuple(self.part_order[j] for j in perm)

    def terms(self, perms: np.ndarray,
              pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ``(P, 3, n)`` boolean terms of ``perms`` in ``TERMS`` order at
        storage positions, and the ``(n, P)`` accumulated degree of each
        part; ``pos`` is their ``positions``.

        Order and motion terms hold when some option's count is 0, the
        stability term when the count is positive.  Manual parts are exempt
        from the motion term, and position 1 is vacuously true.
        """
        order, motion, stability, degree = np.split(
            np.matmul(self.weights, before_matrix(pos)), self._cuts, axis=1)
        held = np.empty((len(perms), len(TERMS), self.n), dtype=bool)
        for t, holds in enumerate(((order == 0).any(axis=1),
                                   (motion == 0).any(axis=1)
                                   | self.manual[:, None],
                                   stability[:, 0] > 0)):
            held[:, t] = np.take_along_axis(holds.T, perms, axis=1)
        held[:, :, 0] = True
        return held, degree[:, 0]

    def _objectives(self, perms: np.ndarray, pos: np.ndarray,
                    degree: np.ndarray) -> np.ndarray:
        """``(P, 4)`` objective values of ``perms`` assuming availability;
        ``pos`` is their ``positions`` and ``degree`` the ``(n, P)``
        accumulated degree."""
        n = self.n
        out = np.zeros((len(perms), 4), dtype=np.float64)
        if n < 2:
            return out
        # the part at position 1 counts 0, so the max over all parts is the
        # peak over positions 2..n
        out[:, 0] = degree.max(axis=0).astype(np.float64) / (
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
        """The ``Score`` of every row of the index permutations ``perms``.

        Rows are independent, so they are scored in blocks whose
        ``before_matrix`` fits ``MAX_POOL_BYTES``: 4 * n * n float32 bytes
        per row plus its n * n bool temporary.
        """
        perms = np.asarray(perms, dtype=np.int64)
        block = max(1, MAX_POOL_BYTES // max(5 * self.n ** 2, 1))
        # an empty population is one empty block
        return Score(*map(np.concatenate, zip(*(
            self._score(perms[i:i + block])
            for i in range(0, max(len(perms), 1), block)))))

    def _score(self, perms: np.ndarray) -> Score:
        pos = positions(perms)
        held, degree = self.terms(perms, pos)
        ok = held.all(axis=2)
        available = ok.all(axis=1)
        violated = np.where(available, -1, np.argmin(ok, axis=1))
        first = np.argmin(held[np.arange(len(perms)), violated], axis=1)
        position = np.where(available, 0, first + 1)
        objectives = self._objectives(perms, pos, degree)
        objectives[~available] = PENALTY
        return Score(perms, *ok.T, violated, position, objectives)

    def evaluate(self, seq) -> Evaluation:
        """The verdict on the id sequence ``seq``."""
        return self.score(self.to_indices([seq])).evaluation(0)


def evaluate(seq, dataset: Dataset, mode: str = "as-written") -> Evaluation:
    """The flags, first violation and objectives of an id sequence; the
    all-ones penalty when it is unavailable."""
    return Evaluator(dataset, mode).evaluate(seq)
