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

from .model import Dataset, MotionTable, PartCatalog, RelationMatrices, validate_sequence

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


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


class ConstraintTables:
    """Dense lookups shared by repeated sequence checks.

    ``pair_free[i, k]``  - some translation layer frees mover k w.r.t. i.
    ``motion_pair[k, i]`` - some candidate motion of part k avoids part i
    (note the reversed orientation: motions belong to the moving part).

    Every per-position term is also held as weight rows ``W[a, m, b]`` for
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
        self.if_layers = matrices.interference_free.astype(bool)
        self.pair_free = self.if_layers.any(axis=0)
        np.fill_diagonal(self.pair_free, True)
        self.contact = matrices.contact.astype(bool)

        self.manual = np.zeros(n, dtype=bool)
        if catalog is not None:
            for j, pid in enumerate(self.part_order):
                self.manual[j] = catalog.by_id(pid).task_label == "manual"

        # the six directions are the strict options; as written, one
        # option per part that every blocking obstacle counts against
        self.weights = {
            ("order", "strict"): ~self.if_layers.transpose(2, 0, 1),
            ("order", "as-written"): ~self.pair_free.T[:, None, :],
        }
        for mode in MODES:
            self.weights["stability", mode] = self.contact.T[:, None, :]
        self.motion_pair: np.ndarray | None = None
        if motions is not None:
            counts = [motions.count(pid) for pid in self.part_order]
            # a part's motions are its strict options; rows beyond its own
            # count stay fully blocked, so a part without motions fails
            blocked = np.ones((n, max(counts, default=0) or 1, n), dtype=bool)
            pair = np.zeros((n, n), dtype=bool)
            for j, pid in enumerate(self.part_order):
                for r, m in enumerate(motions.motions.get(pid, ())):
                    blocked[j, r] = m.row == 0
                pair[j] = ~blocked[j, :counts[j]].all(axis=0)
                pair[j, j] = True
            self.motion_pair = pair
            self.weights["motion", "strict"] = blocked
            self.weights["motion", "as-written"] = ~pair[:, None, :]
        self._kernels: dict[tuple, TermKernel] = {}
        self._bit_rows: dict[tuple, list[list[int]]] = {}

    def to_indices(self, seq) -> np.ndarray:
        return np.fromiter((self.index[int(x)] for x in seq),
                           dtype=np.int64, count=len(seq))

    def kernel(self, mode: str, terms: tuple[str, ...] = TERMS) -> TermKernel:
        """The cached kernel over ``terms`` in ``mode``."""
        key = (mode, terms)
        if key not in self._kernels:
            self._kernels[key] = TermKernel(self, mode, terms)
        return self._kernels[key]

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

    The weight rows of each term, plus any ``extra`` rows to be counted
    alongside, are stacked into one ``(n, M, n)`` float32 array, so a
    population costs one batched matmul:
    ``count[a, m, p] = sum_b W[a, m, b] * E[a, b, p]``.  The counts are sums
    of 0/1 products or small integers, which float32 holds exactly.
    """

    def __init__(self, tables: ConstraintTables, mode: str,
                 terms: tuple[str, ...] = TERMS,
                 extra: dict[str, np.ndarray] | None = None):
        _check_mode(mode)
        if "motion" in terms and tables.motion_pair is None:
            raise ValueError("tables were built without a motion table")
        blocks = {t: tables.weights[t, mode] for t in terms}
        blocks.update(extra or {})
        self.terms = terms
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
        for term in self.terms:
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

    def flags(self, perms: np.ndarray,
              counts: dict[str, np.ndarray] | None = None
              ) -> list[ConstraintFlags]:
        """Full constraint flags of every row of ``perms``."""
        terms = self.terms_at(perms, counts)
        return [_flags(*(terms[t][p] for t in TERMS))
                for p in range(len(perms))]


def _flags(o: np.ndarray, m: np.ndarray, s: np.ndarray) -> ConstraintFlags:
    order_ok = bool(o.all())
    motion_ok = bool(m.all())
    stable_ok = bool(s.all())
    first = None
    for name, terms, ok in (("order", o, order_ok),
                            ("motion", m, motion_ok),
                            ("stability", s, stable_ok)):
        if not ok:
            first = (name, int(np.argmin(terms)) + 1)
            break
    return ConstraintFlags(order_ok, motion_ok, stable_ok,
                           order_ok and motion_ok and stable_ok, first)


def _terms_of_one(perm: np.ndarray, tables: ConstraintTables, mode: str,
                  term: str) -> np.ndarray:
    perms = np.asarray(perm, dtype=np.int64)[None]
    return tables.kernel(mode, (term,)).terms_at(perms)[term][0]


def order_terms_idx(perm: np.ndarray, tables: ConstraintTables,
                    mode: str = "as-written") -> np.ndarray:
    """Per-position interference terms; index 0 is vacuously true."""
    return _terms_of_one(perm, tables, mode, "order")


def motion_terms_idx(perm: np.ndarray, tables: ConstraintTables,
                     mode: str = "as-written") -> np.ndarray:
    """Per-position motion terms; manual-labeled parts are exempt."""
    return _terms_of_one(perm, tables, mode, "motion")


def stability_terms_idx(perm: np.ndarray,
                        tables: ConstraintTables) -> np.ndarray:
    """Per-position connection terms: touch something removed later."""
    return _terms_of_one(perm, tables, "as-written", "stability")


def check_idx(perm: np.ndarray, tables: ConstraintTables,
              mode: str = "as-written") -> ConstraintFlags:
    """Evaluate all three criteria on an index permutation."""
    perms = np.asarray(perm, dtype=np.int64)[None]
    return tables.kernel(mode).flags(perms)[0]


def order_feasible(seq, matrices: RelationMatrices,
                   mode: str = "as-written") -> bool:
    """Interference condition over the whole sequence (part ids)."""
    tables = ConstraintTables(matrices)
    perm = tables.to_indices(seq)
    return bool(order_terms_idx(perm, tables, mode).all())


def motion_feasible(seq, catalog: PartCatalog, motions: MotionTable,
                    matrices: RelationMatrices,
                    mode: str = "as-written") -> bool:
    """Motion condition over the whole sequence; manual parts exempt.

    A non-manual part with zero candidate motions fails at any checked
    position (that is a verdict, not an error).
    """
    tables = ConstraintTables(matrices, catalog, motions)
    perm = tables.to_indices(seq)
    return bool(motion_terms_idx(perm, tables, mode).all())


def stable(seq, matrices: RelationMatrices) -> bool:
    """Connection condition: every prefix subassembly stays connected."""
    tables = ConstraintTables(matrices)
    perm = tables.to_indices(seq)
    return bool(stability_terms_idx(perm, tables).all())


def check(seq, dataset: Dataset, mode: str = "as-written") -> ConstraintFlags:
    """Full constraint check of an id sequence against a dataset."""
    catalog, matrices, motions = dataset
    seq = validate_sequence(seq, catalog)
    tables = ConstraintTables(matrices, catalog, motions)
    return check_idx(tables.to_indices(seq), tables, mode)
