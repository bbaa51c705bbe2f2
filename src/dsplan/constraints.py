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

Each term is a set of boolean weight rows ``W[a, m, b]``, built for one mode
by ``order_rows``, ``motion_rows`` or ``stability_rows``: part b, still in
place when part a is removed, counts against option m of part a.  The
as-written order and motion rows are derived from the strict ones in one
place: the single option that an obstacle counts against when it blocks
every strict option.
``objectives.Evaluator`` counts its mode's rows over a whole population, and
its ``Score`` and ``Evaluation`` report the first violated criterion as
one of ``TERMS``; this module holds no verdict of its own.  ``ccg`` packs
the strict order rows and the stability rows into the bit masks of its
fr/sfr repair.
"""

from __future__ import annotations

import numpy as np

from .model import MotionTable, RelationMatrices

MODES = ("as-written", "strict")
TERMS = ("order", "motion", "stability")


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def _as_written(strict: np.ndarray) -> np.ndarray:
    """The single as-written option of the strict rows ``strict``: an
    obstacle counts against part a when it blocks every strict option of a,
    and no part blocks itself."""
    rows = strict.all(axis=1, keepdims=True)
    diagonal = np.arange(len(rows))
    rows[diagonal, 0, diagonal] = False
    return rows


def order_rows(matrices: RelationMatrices, mode: str) -> np.ndarray:
    """Boolean weight rows ``W[a, m, b]`` of the order term in ``mode``.

    The six directions are the strict options; as written, part a has one
    option that every blocking obstacle counts against.
    """
    _check_mode(mode)
    strict = ~matrices.interference_free.astype(bool).transpose(2, 0, 1)
    return strict if mode == "strict" else _as_written(strict)


def motion_rows(motions: MotionTable, part_order: tuple[int, ...],
                mode: str) -> np.ndarray:
    """Boolean weight rows of the motion term over ``part_order`` in ``mode``.

    A part's motions are its strict options; rows beyond its own count stay
    fully blocked, so a part without motions fails.
    """
    _check_mode(mode)
    n = len(part_order)
    counts = [motions.count(pid) for pid in part_order]
    blocked = np.ones((n, max(counts, default=0) or 1, n), dtype=bool)
    for j, pid in enumerate(part_order):
        for r, m in enumerate(motions.motions.get(pid, ())):
            blocked[j, r] = m.row == 0
    # padding rows block every part, so as written they change no verdict
    return blocked if mode == "strict" else _as_written(blocked)


def stability_rows(matrices: RelationMatrices) -> np.ndarray:
    """Boolean weight rows of the stability term, one option per part:
    the parts in contact with it, which hold when any remains."""
    return matrices.contact.astype(bool).T[:, None, :]


def positions(perms: np.ndarray) -> np.ndarray:
    """1-based storage position of each part index (position 1 = removed
    last), per row of ``perms``, as float32 for ``before_matrix``."""
    pos = np.empty(perms.shape, dtype=np.float32)
    np.put_along_axis(pos, perms,
                      np.arange(1, perms.shape[1] + 1, dtype=np.float32),
                      axis=1)
    return pos


def before_matrix(pos: np.ndarray) -> np.ndarray:
    """``E[a, b, p] = 1.0`` when part b sits below part a in row p of the
    ``positions`` array ``pos``.

    Those are the parts still assembled when part a is removed.  The layout
    puts the population last, so ``W @ E`` is one batched matmul over a.
    """
    pos = pos.T
    return (pos[None, :, :] < pos[:, None, :]).astype(np.float32)
