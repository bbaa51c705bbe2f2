"""Order feasibility, motion feasibility, and stability of a sequence.

Per-position semantics: the term at storage position k (1-based) inspects the
parts at positions 1..k-1, which are exactly the parts still assembled when
position k's part is removed.  Two readings of the interference and motion
conditions are supported:

* ``as-written``: every still-assembled obstacle admits some free direction /
  avoiding motion (obstacles may each pick a different one).  For the
  interference condition this predicate is pairwise-symmetric, so a product
  is order-feasible either for every permutation or for none.
* ``strict``: one single direction / motion must clear every obstacle at
  once, which is the physically meaningful escape condition and does depend
  on the order.

Stability is the connection condition: each removed part must still touch at
least one part that remains.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import MotionTable, PartCatalog, RelationMatrices

MODES = ("as-written", "strict")
TERMS = ("order", "motion", "stability")


@dataclass(frozen=True)
class ConstraintFlags:
    """Outcome of the full constraint check for one sequence."""

    order_feasible: bool
    motion_feasible: bool
    stable: bool
    available: bool
    first_violation: tuple[str, int] | None = None

    def __post_init__(self):
        if self.available != (self.order_feasible and self.motion_feasible
                              and self.stable):
            raise ValueError("available must equal the conjunction of the "
                             "three criteria")


class ConstraintTables:
    """Dense lookups shared by repeated sequence checks.

    Every per-position term is held as weight rows ``W[a, m, b]`` for
    ``TermKernel``: entry 1 means part b, still assembled when part a is
    removed, counts against option m of part a.
    """

    def __init__(self, matrices: RelationMatrices,
                 catalog: PartCatalog | None = None,
                 motions: MotionTable | None = None):
        self.part_order = matrices.part_order
        self.index = {pid: j for j, pid in enumerate(self.part_order)}
        n = len(self.part_order)
        self.n = n
        if_layers = matrices.interference_free.astype(bool)
        # pair_free[i, k]: some translation layer frees mover k w.r.t. i
        pair_free = if_layers.any(axis=0)
        np.fill_diagonal(pair_free, True)
        self.contact = matrices.contact.astype(bool)

        self.manual = np.zeros(n, dtype=bool)
        if catalog is not None:
            for j, pid in enumerate(self.part_order):
                self.manual[j] = catalog.by_id(pid).task_label == "manual"

        # the six directions are the strict options; as written, one
        # option per part that every blocking obstacle counts against
        self.weights = {
            ("order", "strict"): ~if_layers.transpose(2, 0, 1),
            ("order", "as-written"): ~pair_free.T[:, None, :],
        }
        for mode in MODES:
            self.weights["stability", mode] = self.contact.T[:, None, :]
        if motions is not None:
            counts = [motions.count(pid) for pid in self.part_order]
            # a part's motions are its strict options; rows beyond its own
            # count stay fully blocked, so a part without motions fails
            blocked = np.ones((n, max(counts, default=0) or 1, n), dtype=bool)
            # motion_pair[k, i]: some candidate motion of part k avoids i
            motion_pair = np.zeros((n, n), dtype=bool)
            for j, pid in enumerate(self.part_order):
                for r, m in enumerate(motions.motions.get(pid, ())):
                    blocked[j, r] = m.row == 0
                motion_pair[j] = ~blocked[j, :counts[j]].all(axis=0)
                motion_pair[j, j] = True
            self.weights["motion", "strict"] = blocked
            self.weights["motion", "as-written"] = ~motion_pair[:, None, :]
        self._bit_rows: dict[tuple, list[list[int]]] = {}

    def bit_rows(self, term: str, mode: str) -> list[list[int]]:
        """The cached weight rows of ``term`` in ``mode`` as Python ints.

        ``rows[a][m]`` has bit b set when ``weights[term, mode][a, m, b]``
        is, so a term check against a bit mask of the parts below costs one
        integer AND per option.
        """
        key = (term, mode)
        if key not in self._bit_rows:
            packed = np.packbits(self.weights[key], axis=2, bitorder="little")
            self._bit_rows[key] = [
                [int.from_bytes(row.tobytes(), "little") for row in options]
                for options in packed]
        return self._bit_rows[key]

    @cached_property
    def touching(self) -> list[list[int]]:
        """``touching[a]``: the parts in contact with part a, ascending."""
        return [np.flatnonzero(row).tolist() for row in self.contact]


def before_matrix(perms: np.ndarray) -> np.ndarray:
    """``E[a, b, p] = 1.0`` when part b sits below part a in ``perms[p]``.

    Those are the parts still assembled when part a is removed.  The layout
    puts the population last, so ``W @ E`` is one batched matmul over a.
    """
    n = perms.shape[1]
    pos = np.empty(perms.shape, dtype=np.float32)
    np.put_along_axis(pos, perms, np.arange(n, dtype=np.float32), axis=1)
    pos = pos.T
    return (pos[None, :, :] < pos[:, None, :]).astype(np.float32)


class TermKernel:
    """Scores the per-position terms of a whole population at once.

    The weight rows of every term in ``TERMS``, plus any ``extra`` rows to
    be counted alongside, are stacked into one ``(n, M, n)`` float32 array,
    so a population costs one batched matmul:
    ``count[a, m, p] = sum_b W[a, m, b] * E[a, b, p]``.  The counts are sums
    of 0/1 products or small integers, which float32 holds exactly.
    """

    def __init__(self, tables: ConstraintTables, mode: str,
                 extra: dict[str, np.ndarray] | None = None):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if ("motion", mode) not in tables.weights:
            raise ValueError("tables were built without a motion table")
        blocks = {t: tables.weights[t, mode] for t in TERMS}
        blocks.update(extra or {})
        self.manual = tables.manual
        self.slices: dict[str, slice] = {}
        start = 0
        for name, rows in blocks.items():
            self.slices[name] = slice(start, start + rows.shape[1])
            start += rows.shape[1]
        self.weights = np.concatenate(
            [rows.astype(np.float32) for rows in blocks.values()], axis=1)

    def counts(self, perms: np.ndarray) -> dict[str, np.ndarray]:
        """``(n, M, P)`` counts of every block for ``perms (P, n)``."""
        stacked = np.matmul(self.weights, before_matrix(perms))
        return {name: stacked[:, s] for name, s in self.slices.items()}

    def terms_at(self, perms: np.ndarray,
                 counts: dict[str, np.ndarray] | None = None
                 ) -> dict[str, np.ndarray]:
        """``(P, n)`` boolean terms at storage positions, one per term.

        Order and motion terms hold when some option's count is 0, the
        stability term when the count is positive.  Manual parts are exempt
        from the motion term, and position 1 is vacuously true.
        """
        if counts is None:
            counts = self.counts(perms)
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
