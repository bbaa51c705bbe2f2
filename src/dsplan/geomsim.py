"""Desk-scale geometric simulation over axis-aligned voxel assemblies.

Produces every pairwise relation layer (translation sweeps, small-clearance
constraint directions, contacts) plus straight-line extraction motions, so
the full planning pipeline can be exercised on synthetic products without
any CAD input.

``build_dataset`` puts the planned parts on one dense ``int32`` label grid
over their occupied bounding box (a cell holds its part's index, or -1)
and passes it to every layer function.  A relation is a gather of moved
cells into that grid and a scatter of the labels hit into an (n, n)
matrix, so a layer costs O(cells) per displacement instead of a loop over
part pairs.  A border of one empty cell lets a gather clip moved cells onto
it instead of masking those that left the box.  Each axis is swept once,
one cell at a time (a teleport could tunnel through thin walls), moving
only the last cell of each run of a part, and the sweep keeps each pair's
first hit step: x_if (never hit), x_cf's translations (no hit within the
clearance), the contacts (a hit at step one) and the motion rows read it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    Dataset,
    Motion,
    MotionTable,
    Part,
    PartCatalog,
    RelationMatrices,
    derive_constraint_degree,
    parse_labels,
)

TRANSLATION_KINDS = ("+x", "+y", "+z", "-x", "-y", "-z")

_EEF_BY_TASK = {"screw": "E5", "bolt": "E6", "nut": "E6",
                "plate": "E7", "graspable": "E2", "manual": None}


@dataclass
class VoxelAssembly:
    """Parts as sets of occupied integer lattice cells on a common grid.

    ``cells`` maps part id to an (M, 3) integer array; ``bounds`` is the
    workspace box as (lo, hi) with hi exclusive.  The assembled state must
    be interference-free: no two parts share a cell.
    """

    pitch: float
    cells: dict[int, np.ndarray]
    bounds: tuple[tuple[int, int, int], tuple[int, int, int]]

    def __post_init__(self):
        self.cells = {int(pid): np.asarray(arr, dtype=np.int64).reshape(-1, 3)
                      for pid, arr in self.cells.items()}

    def validate(self) -> None:
        """Raise ValueError for the first part, in ``cells`` order, that is
        empty, leaves the workspace or shares a cell with an earlier part."""
        if not (math.isfinite(self.pitch) and self.pitch > 0):
            raise ValueError(f"grid pitch must be a positive finite number, "
                             f"got {self.pitch}")
        lo = np.asarray(self.bounds[0])
        hi = np.asarray(self.bounds[1])
        pids = list(self.cells)
        arrays = list(self.cells.values())
        bad = next((j for j, arr in enumerate(arrays) if arr.shape[0] == 0
                    or ((arr < lo) | (arr >= hi)).any()), len(arrays))
        if bad:
            # overlaps among the parts checked before the first bad one: an
            # entry clashes when the first entry holding its cell is another
            # part's
            stacked = np.vstack(arrays[:bad])
            owner = np.repeat(np.arange(bad), [len(a) for a in arrays[:bad]])
            flat = np.ravel_multi_index(tuple((stacked - lo).T),
                                        tuple(hi - lo))
            _, first, cell_of = np.unique(flat, return_index=True,
                                          return_inverse=True)
            first = first[cell_of]
            clash = np.flatnonzero(owner != owner[first])
            if clash.size:
                entry = clash[0]
                cell = tuple(int(c) for c in stacked[entry])
                raise ValueError(
                    f"parts {pids[owner[first[entry]]]} and "
                    f"{pids[owner[entry]]} overlap at cell {cell}")
        if bad < len(arrays):
            if arrays[bad].shape[0] == 0:
                raise ValueError(f"part {pids[bad]} has no cells")
            raise ValueError(f"part {pids[bad]} extends outside the workspace")

    def part_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.cells))

    def com_mm(self, part_id: int) -> tuple[float, float, float]:
        centers = self.cells[part_id] + 0.5
        return tuple(float(c) for c in centers.mean(axis=0) * self.pitch)


class _LabelGrid:
    """The parts of ``order`` on a dense grid over their occupied box.

    ``grid`` holds each cell's part index into ``order`` (-1 where no listed
    part is) over the box ``lo``..``hi`` and a border of one empty cell on
    every side.  ``cells`` holds every occupied cell in assembly
    coordinates, part by part, ``labels`` its part index and ``flat`` its
    index into ``grid.ravel()``; ``part_lo``..``part_hi`` is each part's box
    and ``com`` the mean of its cell centers.  Parts left out of ``order``
    (ignored parts) are not in the grid, so they block nothing.  A listed
    part that is missing, empty, outside the workspace or sharing a cell
    with another listed part is a ValueError.
    """

    def __init__(self, assembly: VoxelAssembly, order):
        self.order = tuple(order)
        self.pitch, self.bounds = assembly.pitch, assembly.bounds
        parts = [assembly.cells.get(pid, ()) for pid in self.order]
        self.n = len(parts)
        counts = np.array([len(c) for c in parts])
        # ``validate`` raises the message of every fault checked here but a
        # missing part; it runs only once a check has fired
        if not counts.all():
            assembly.validate()
            raise ValueError(f"part {self.order[counts.argmin()]} has no "
                             f"cells")
        self.cells = np.vstack(parts)
        self.labels = np.repeat(np.arange(self.n, dtype=np.int32), counts)
        starts = np.cumsum(counts) - counts
        self.part_lo = np.minimum.reduceat(self.cells, starts)
        self.part_hi = np.maximum.reduceat(self.cells, starts) + 1
        if ((self.part_lo < self.bounds[0]).any()
                or (self.part_hi > self.bounds[1]).any()):
            assembly.validate()
        # sums of half-integers are exact, so this is each part's own
        # float64 mean bit for bit
        self.com = np.add.reduceat(self.cells + 0.5, starts) / counts[:, None]
        self.lo = self.part_lo.min(axis=0)
        self.hi = self.part_hi.max(axis=0)
        self.size = self.hi - self.lo
        self.grid = np.full(self.size + 2, -1, dtype=np.int32)
        # the flat index step along each axis
        self.stride = [s // self.grid.itemsize for s in self.grid.strides]
        self.flat = self._flat(self.cells)
        self.grid.ravel()[self.flat] = self.labels
        # a shared cell keeps the label of only one of its parts
        if (self.grid.ravel()[self.flat] != self.labels).any():
            assembly.validate()

    def term(self, axis: int, coord: np.ndarray) -> np.ndarray:
        """Flat-index term of integer coordinates ``coord`` along ``axis``.
        One outside the box is clipped onto the border: the cell stays
        outside along the axis it left by, so it reads -1."""
        lo, hi = int(self.lo[axis]) - 1, int(self.hi[axis])
        return (np.clip(coord, lo, hi) - lo) * self.stride[axis]

    def _flat(self, cells: np.ndarray) -> np.ndarray:
        """Index into ``grid.ravel()`` of each of ``cells`` (M, 3)."""
        return sum(self.term(a, cells[:, a]) for a in range(3))

    def hits(self, flat: np.ndarray, labels: np.ndarray) -> tuple:
        """Index (i, k) into an (n, n) matrix of each cell of part k in
        ``labels`` that, moved to its entry of the flat grid indices
        ``flat``, lands on another part i."""
        found = self.grid.ravel()[flat]
        keep = (found >= 0) & (found != labels)
        return found[keep], labels[keep]

    def sweep(self, axis: int) -> np.ndarray:
        """(n, n) first-hit steps along +axis: entry (i, k) is the fewest
        one-cell steps after which a cell of part k lands on part i, or 0
        when none does before every cell has left the box."""
        grid = self.grid.ravel()
        stride = self.stride[axis]
        size = self.size[axis]
        out = np.zeros((self.n, self.n), dtype=np.min_scalar_type(size))
        # a cell followed along the axis by its own part lands, t steps on,
        # where that successor landed one step earlier, so only the last
        # cell of each run needs moving
        last = grid[self.flat + stride] != self.labels
        # cells sorted by their offset along the axis, so the cells still
        # inside after t steps are a prefix; numpy radix-sorts a key this
        # narrow
        offset = (self.cells[last, axis] - self.lo[axis]).astype(out.dtype)
        by_offset = np.argsort(offset, kind="stable")
        flat = self.flat[last][by_offset]
        labels = self.labels[last][by_offset]
        # no cell is still inside the box after size - 1 steps
        steps = np.arange(size - 1, 0, -1)
        inside = np.searchsorted(offset[by_offset],
                                 (size - 1 - steps).astype(out.dtype),
                                 side="right")
        # the last step first, so each hit overwrites a later one
        for t, m in zip(steps, inside):
            out[self.hits(flat[:m] + t * stride, labels[:m])] = t
        return out

    @functools.cached_property
    def first_hit(self) -> np.ndarray:
        """(3, n, n) ``sweep`` of each axis, swept on first use."""
        return np.stack([self.sweep(a) for a in range(3)])

    def translations(self, steps: int) -> np.ndarray:
        """(6, n, n) uint8 layers +x, +y, +z, -x, -y, -z: entry (i, k) is 1
        when no cell of part k, displaced 1..steps cells along the layer's
        direction, lands on part i.  Negative layers are the transposes."""
        free = (self.first_hit == 0) | (self.first_hit > steps)
        return np.concatenate([free, free.transpose(0, 2, 1)]).astype(
            np.uint8)


def interference_free_matrices(g: _LabelGrid) -> np.ndarray:
    """Six binary layers of full-extent translation freedom.

    Layer order +x, +y, +z, -x, -y, -z.  Entry (i, k) of a positive layer is
    1 when sweeping part k cell-by-cell out of the occupied bounding box
    never overlaps part i; negative layers are the transposes.
    """
    return g.translations(int(g.size.max()))


def constraint_free_matrices(g: _LabelGrid, clearance: float,
                             angle: float = 5.0) -> np.ndarray:
    """Twelve binary layers of small-displacement freedom.

    Translation layers sweep ceil(clearance / pitch) one-cell steps; rotation
    layers test a single +/-angle pose about each moving part's COM with
    nearest-cell resampling.  Rotation entries are evaluated for both
    orderings of a pair and combined, which keeps the negative layers exact
    transposes of the positive ones and the derived constraint degree
    symmetric.
    """
    if not (math.isfinite(clearance) and clearance >= g.pitch):
        raise ValueError(f"clearance must be a finite number of at least one "
                         f"grid pitch, got {clearance}")
    if not (math.isfinite(angle) and angle > 0):
        raise ValueError(f"rotation angle must be a positive finite number, "
                         f"got {angle}")
    out = np.empty((12, g.n, g.n), dtype=np.uint8)
    out[:6] = g.translations(math.ceil(clearance / g.pitch))
    # each cell turns about its own part's COM, so a part's resampled pose
    # does not depend on the other parts
    com = g.com[g.labels]
    rel = (g.cells + 0.5) - com
    for a in range(3):
        # mover k rotated +angle is the same relative motion as mover i
        # rotated -angle; block the pair if either view hits
        blocked = np.zeros((g.n, g.n), dtype=bool)
        blocked[g.hits(_rotate(g, rel, com, a, angle), g.labels)] = True
        blocked.T[g.hits(_rotate(g, rel, com, a, -angle), g.labels)] = True
        out[6 + a] = ~blocked
        out[9 + a] = out[6 + a].T
    return out


def _rotate(g: _LabelGrid, rel: np.ndarray, com: np.ndarray, axis: int,
            angle_deg: float) -> np.ndarray:
    """Flat grid indices of the nearest cells of the centers ``com + rel``
    of ``g.cells`` rotated about ``axis`` through their ``com``; only the
    two coordinates across the axis move."""
    theta = math.radians(angle_deg)
    c, s = math.cos(theta), math.sin(theta)
    u, v = [i for i in range(3) if i != axis]
    flat = g.term(axis, g.cells[:, axis])
    for w, moved in ((u, c * rel[:, u] - s * rel[:, v]),
                     (v, s * rel[:, u] + c * rel[:, v])):
        flat += g.term(w, np.rint(moved + com[:, w] - 0.5).astype(np.int64))
    return flat


def contact_matrix(g: _LabelGrid) -> np.ndarray:
    """Binary face-adjacency between part pairs: one part hits the other
    at the first step of a sweep."""
    touch = (g.first_hit == 1).any(axis=0)
    return (touch | touch.T).astype(np.uint8)


def synth_motion_table(g: _LabelGrid, x_if: np.ndarray) -> MotionTable:
    """One straight-line extraction candidate per axis direction.

    A direction is a candidate only when the part can slide fully out of the
    assembly's occupied bounding box without any intermediate pose leaving
    the workspace bounds (a flush workspace floor therefore rules out
    downward extraction).  The per-part feasibility row marks which other
    parts the full swept volume avoids, which for straight-line extraction
    is the part's column of the full-extent translation sweep ``x_if``, the
    ``interference_free_matrices`` of the grid's parts.
    """
    # each part's full exit travel out of the occupied box, and whether the
    # workspace holds it: columns +x, +y, +z, -x, -y, -z
    ws_lo, ws_hi = g.bounds
    fits = np.hstack([g.part_hi + g.hi - g.part_lo <= ws_hi,
                      g.part_lo - g.part_hi + g.lo >= ws_lo])
    table = {pid: tuple(Motion(id=j, kind=TRANSLATION_KINDS[d],
                               row=x_if[d, :, k].copy())
                        for j, d in enumerate(np.flatnonzero(fits[k])))
             for k, pid in enumerate(g.order)}
    return MotionTable(g.order, table)


def _cells_of(box: np.ndarray, origin) -> np.ndarray:
    """The occupied cells of a boolean ``box`` placed at ``origin``, in
    lexicographic order."""
    return np.argwhere(box) + np.asarray(origin, dtype=np.int64)


def generate_synthetic(n_layers: int, screws_per_layer: int = 2,
                       manual_fraction: float = 0.0, priority_count: int = 0,
                       seed: int = 0, pitch: float = 1.0
                       ) -> tuple[VoxelAssembly, PartCatalog]:
    """Deterministic screw-tower product: a base plate plus stacked blocks.

    Each block is locked by up to four corner set screws whose heads sit in
    counterbores and whose shanks occupy interior columns, so one in-place
    screw blocks every candidate extraction of its block by itself.  Screws
    are contained in their block's body (contact degree one): orders that
    strand a screw or pull a block out from under its neighbors violate the
    connection condition, so stability does real work on these fixtures.
    Footprints shrink per layer when screws are present so every screw head
    stays exposed from above.  Manual task labels are sprinkled over a
    fraction of the blocks (never screws, which must stay fixing parts) and
    ``priority_count`` blocks get a value label.
    """
    if n_layers < 1:
        raise ValueError("n_layers must be >= 1")
    if not 0 <= screws_per_layer <= 4:
        raise ValueError("screws_per_layer must be in 0..4")
    if not 0.0 <= manual_fraction <= 1.0:
        raise ValueError("manual_fraction must be in [0, 1]")
    if priority_count > n_layers:
        raise ValueError("priority_count cannot exceed the number of blocks")

    rng = np.random.default_rng(seed)
    shrink = 2 if screws_per_layer > 0 else 0
    block_h, base_h, top_size = 3, 2, 6
    sizes = [top_size + 2 * shrink * (n_layers - level)
             for level in range(1, n_layers + 1)]
    base_size = sizes[0] + 4

    cells: dict[int, np.ndarray] = {
        1: _cells_of(np.ones((base_size, base_size, base_h), bool), (0, 0, 0))}
    names = {1: "base_plate"}
    block_ids = []
    zb = base_h
    for level, size in enumerate(sizes, start=1):
        off = (base_size - size) // 2
        far = off + size - 2
        block = np.ones((size, size, block_h), bool)
        block_id = max(cells) + 1
        block_ids.append(block_id)
        corners = [(off, off), (far, off), (off, far), (far, far)]
        for j, (x0, y0) in enumerate(corners[:screws_per_layer]):
            # a 2x2 head on top of a two-cell shank, cut out of the block;
            # the shank takes the head's inward cell, an interior column,
            # so it blocks its block's lateral escape in all directions
            screw = np.zeros((2, 2, 3), bool)
            screw[:, :, 2] = True
            screw[int(x0 == off), int(y0 == off), :2] = True
            block[x0 - off:x0 - off + 2, y0 - off:y0 - off + 2] &= ~screw
            cells[block_id + 1 + j] = _cells_of(screw, (x0, y0, zb))
            names[block_id + 1 + j] = f"fastener{level}{'abcd'[j]}_screw"
        cells[block_id] = _cells_of(block, (off, off, zb))
        zb += block_h

    margin = max(base_size, zb) + 2
    bounds = ((-margin, -margin, 0),
              (base_size + margin, base_size + margin, zb + margin))
    assembly = VoxelAssembly(pitch=pitch, cells=cells, bounds=bounds)
    assembly.validate()

    manual_count = int(round(manual_fraction * n_layers))
    manual_blocks = set(rng.choice(block_ids, size=manual_count,
                                   replace=False).tolist()) if manual_count else set()
    value_blocks = set(rng.choice(block_ids, size=priority_count,
                                  replace=False).tolist()) if priority_count else set()
    for level, pid in enumerate(block_ids, start=1):
        task = "manual" if pid in manual_blocks else "graspable"
        name = f"block{level}_{task}"
        names[pid] = name + "_value" if pid in value_blocks else name

    parts = []
    for pid in sorted(cells):
        labels = parse_labels(names[pid])
        parts.append(Part(
            id=pid, name=names[pid], task_label=labels.task,
            priority=labels.priority, base=labels.base, ignore=labels.ignore,
            com=assembly.com_mm(pid), eef=_EEF_BY_TASK[labels.task],
            size=float(len(cells[pid]))))
    return assembly, PartCatalog(tuple(parts))


def build_dataset(assembly: VoxelAssembly, catalog: PartCatalog,
                  clearance: float | None = None,
                  angle: float = 5.0) -> Dataset:
    """Run all matrix generators over the assembly and bundle a Dataset."""
    if clearance is None:
        clearance = assembly.pitch
    g = _LabelGrid(assembly, catalog.non_ignored_ids())
    x_if = interference_free_matrices(g)
    x_cf = constraint_free_matrices(g, clearance, angle)
    x_ct = contact_matrix(g)
    matrices = RelationMatrices(g.order, x_if, x_cf, x_ct,
                                derive_constraint_degree(x_cf))
    matrices.validate(catalog)
    return Dataset(catalog, matrices, synth_motion_table(g, x_if))
