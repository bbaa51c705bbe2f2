import dataclasses
import hashlib

import numpy as np
import pytest

import oracle
from dsplan import geomsim
from dsplan.geomsim import (
    MAX_GRID_CELLS,
    VoxelAssembly,
    _LabelGrid,
    build_dataset,
    constraint_free_matrices,
    contact_matrix,
    generate_synthetic,
    interference_free_matrices,
)
from dsplan.model import (
    Part,
    PartCatalog,
    ValidationError,
    dataset_to_json,
    parse_labels,
)
from conftest import make_tower


def _assembly(parts, bounds=((-40, -40, 0), (40, 40, 40)), pitch=1.0):
    return VoxelAssembly(pitch=pitch,
                         cells={pid: np.array(sorted(cells))
                                for pid, cells in parts.items()},
                         bounds=bounds)


def _grid(asm):
    """The label grid of every part of ``asm``."""
    return _LabelGrid(asm, asm.part_ids())


def _catalog(n):
    """Parts 1..n, all graspable."""
    return PartCatalog(tuple(Part(pid, f"part{pid}_graspable", "graspable")
                             for pid in range(1, n + 1)))


def _cube(x0, y0, z0, n):
    return [(x, y, z) for x in range(x0, x0 + n)
            for y in range(y0, y0 + n) for z in range(z0, z0 + n)]


def _peg_in_sleeve():
    sleeve = [(x, y, z) for x in range(3) for y in range(3)
              for z in range(1, 5) if not (x == 1 and y == 1)]
    sleeve += [(x, y, 0) for x in range(3) for y in range(3)]
    peg = [(1, 1, z) for z in range(1, 5)]
    return sleeve, peg


def _pin_through_plate():
    plate = [(x, y, 1) for x in range(5) for y in range(5)
             if not (x == 2 and y == 2)]
    # pin with a wider cap on top: only upward extraction stays free
    pin = [(2, 2, z) for z in (0, 1)] + [(x, y, 2)
                                         for x in (1, 2, 3)
                                         for y in (1, 2, 3)]
    return plate, pin


class TestValidation:
    def test_overlap_rejected(self):
        asm = _assembly({1: _cube(0, 0, 0, 2), 2: _cube(1, 1, 1, 2)})
        with pytest.raises(ValueError, match=r"parts 1 and 2 overlap at "
                                             r"cell \(1, 1, 1\)"):
            asm.validate()

    def test_first_faulty_part_is_reported(self):
        # parts are checked in insertion order: an overlap found at part 3
        # is reported before the empty part 4 and the stray part 5
        asm = _assembly({2: _cube(0, 0, 0, 2), 3: [(5, 5, 5), (1, 0, 1)],
                         4: [], 5: _cube(0, 0, -3, 1)})
        with pytest.raises(ValueError, match=r"parts 2 and 3 overlap at "
                                             r"cell \(1, 0, 1\)"):
            asm.validate()
        del asm.cells[3]
        with pytest.raises(ValueError, match="part 4 has no cells"):
            asm.validate()

    def test_part_may_repeat_its_own_cell(self):
        _assembly({1: [(0, 0, 0), (0, 0, 0)], 2: [(1, 0, 0)]}).validate()

    def test_empty_part_rejected(self):
        asm = _assembly({1: []})
        with pytest.raises(ValueError, match="part 1 has no cells"):
            asm.validate()

    def test_out_of_bounds_rejected(self):
        asm = _assembly({1: _cube(0, 0, -3, 2)})
        with pytest.raises(ValueError, match="part 1 extends outside"):
            asm.validate()

    def test_no_parts_pass(self):
        _assembly({}).validate()

    def test_grid_over_the_cell_limit_rejected(self):
        # two cells far apart: the check reads the part boxes and allocates
        # no grid
        asm = _assembly({1: [(0, 0, 0)], 2: [(400, 400, 400)]},
                        bounds=((0, 0, 0), (401, 401, 401)))
        assert 403 ** 3 > MAX_GRID_CELLS
        with pytest.raises(ValueError, match=(
                r"the occupied box \(401, 401, 401\) needs a label grid of "
                f"{403 ** 3} cells, more than {MAX_GRID_CELLS}")):
            asm.validate()


class TestBuildRejects:
    """``build_dataset`` raises ``validate``'s message for a bad planned
    part instead of building from it."""

    def test_shared_cell(self):
        asm = _assembly({1: _cube(0, 0, 0, 2), 2: _cube(1, 1, 1, 2)})
        with pytest.raises(ValueError, match=r"parts 1 and 2 overlap at "
                                             r"cell \(1, 1, 1\)"):
            build_dataset(asm, _catalog(2))

    def test_part_outside_the_workspace(self):
        asm = _assembly({1: _cube(0, 0, 0, 2), 2: _cube(0, 0, -3, 2)})
        with pytest.raises(ValueError, match="part 2 extends outside"):
            build_dataset(asm, _catalog(2))

    def test_catalog_part_missing_from_the_assembly(self):
        asm = _assembly({1: _cube(0, 0, 0, 2), 2: _cube(0, 0, 2, 2)})
        with pytest.raises(ValueError, match="part 3 has no cells"):
            build_dataset(asm, _catalog(3))

    def test_empty_part(self):
        asm = _assembly({1: _cube(0, 0, 0, 2), 2: []})
        with pytest.raises(ValueError, match="part 2 has no cells"):
            build_dataset(asm, _catalog(2))

    @pytest.mark.parametrize("pitch", [0.0, -1.0])
    def test_pitch_not_positive(self, pitch):
        asm = _assembly({1: _cube(0, 0, 0, 2), 2: _cube(0, 0, 2, 2)},
                        pitch=pitch)
        with pytest.raises(ValueError, match="grid pitch must be a positive "
                                             f"finite number, got {pitch}"):
            build_dataset(asm, _catalog(2))

    def test_first_faulty_part_in_catalog_order(self):
        # the assembly lists the stray part 2 before the empty part 1, but
        # the catalog plans part 1 first
        asm = _assembly({2: _cube(0, 0, -3, 2), 1: []})
        with pytest.raises(ValueError, match="part 1 has no cells"):
            build_dataset(asm, _catalog(2))

    def test_every_part_ignored(self):
        asm, catalog = generate_synthetic(2, 1, seed=1)
        ignored = PartCatalog(tuple(dataclasses.replace(p, ignore=True)
                                    for p in catalog))
        with pytest.raises(ValidationError, match="^part_order is empty: "
                                                  "no part is planned$"):
            build_dataset(asm, ignored)


def _at(g, cells):
    """Part index at each of ``cells`` (M, 3); -1 when empty or outside."""
    return g.grid.ravel()[g._flat(cells)]


class TestLabelGrid:
    def test_cells_beyond_the_box_read_empty(self):
        # a solid cube fills its whole box, so a cell that clipped onto the
        # box's face instead of its border would read the cube
        asm = _assembly({1: _cube(2, 3, 4, 3), 2: [(5, 4, 5)]})
        g = _grid(asm)
        assert (g.lo == (2, 3, 4)).all() and (g.hi == (6, 6, 7)).all()
        inside = np.array(_cube(2, 3, 4, 3) + [(5, 4, 5), (5, 3, 4)])
        assert _at(g, inside).tolist() == [0] * 27 + [1, -1]
        for a in range(3):
            for side, edge in ((-1, g.lo[a]), (1, g.hi[a] - 1)):
                for beyond in (1, 5, 6, 50):
                    cells = inside.copy()
                    cells[:, a] = edge + side * beyond
                    assert (_at(g, cells) == -1).all(), (a, side, beyond)
        corners = np.array([[-9, -9, -9], [99, 99, 99], [-9, 4, 99]])
        assert (_at(g, corners) == -1).all()


class TestInterferenceFree:
    def test_side_by_side_cubes(self):
        # part 2 sits to the +x side of part 1
        asm = _assembly({1: _cube(0, 0, 0, 2), 2: _cube(5, 0, 0, 2)})
        x_if = interference_free_matrices(_grid(asm))
        # layers: 0 +x, 1 +y, 2 +z, 3 -x, 4 -y, 5 -z; entry (i, k): k moves
        assert x_if[0, 1, 0] == 0   # left cube moving +x hits right cube
        assert x_if[3, 1, 0] == 1   # left cube escapes -x
        for j in (1, 2, 4, 5):
            assert x_if[j, 1, 0] == 1 and x_if[j, 0, 1] == 1

    def test_peg_in_sleeve_open_top(self):
        sleeve, peg = _peg_in_sleeve()
        asm = _assembly({1: sleeve, 2: peg})
        asm.validate()
        x_if = interference_free_matrices(_grid(asm))
        dirs = {0: (1, 0, 0), 1: (0, 1, 0), 2: (0, 0, 1),
                3: (-1, 0, 0), 4: (0, -1, 0), 5: (0, 0, -1)}
        for j, d in dirs.items():
            blocked = oracle.sweep_blocked(sleeve, peg, d, 12)
            assert x_if[j, 0, 1] == (0 if blocked else 1)
        assert x_if[2, 0, 1] == 1                    # free only upward
        assert sum(x_if[j, 0, 1] for j in range(6)) == 1

    def test_negative_layers_are_transposes(self):
        ds = make_tower(2, 2, seed=9)
        x_if = ds.matrices.interference_free
        for j in range(3):
            assert (x_if[j + 3] == x_if[j].T).all()


class TestConstraintFree:
    def test_distant_parts_fully_free(self):
        asm = _assembly({1: _cube(0, 0, 0, 2), 2: _cube(10, 10, 10, 2)})
        x_cf = constraint_free_matrices(_grid(asm), clearance=2.0)
        assert (x_cf[:, 0, 1] == 1).all()
        assert (x_cf[:, 1, 0] == 1).all()

    def test_pin_through_plate_hole(self):
        plate, pin = _pin_through_plate()
        asm = _assembly({1: plate, 2: pin})
        asm.validate()
        x_cf = constraint_free_matrices(_grid(asm), clearance=1.0)
        translations = x_cf[:6, 0, 1]
        assert translations[2] == 1          # +z free
        assert translations.sum() == 1       # everything else blocked
        assert 12 - x_cf[:, 0, 1].sum() >= 5     # the constraint degree
        # independent check of each translation layer via the sweep oracle
        dirs = {0: (1, 0, 0), 1: (0, 1, 0), 2: (0, 0, 1),
                3: (-1, 0, 0), 4: (0, -1, 0), 5: (0, 0, -1)}
        for j, d in dirs.items():
            assert x_cf[j, 0, 1] == (0 if oracle.sweep_blocked(plate, pin, d, 1)
                                     else 1)

    def test_clearance_monotonicity(self):
        g = _grid(generate_synthetic(2, 2, seed=11)[0])
        for c1, c2 in ((1.0, 2.0), (2.0, 4.0)):
            a = constraint_free_matrices(g, clearance=c1)
            b = constraint_free_matrices(g, clearance=c2)
            assert (b[:6] <= a[:6]).all()

    def test_single_step_equals_teleport(self):
        # with clearance = 1 pitch the sweep degenerates to one displacement
        asm, _ = generate_synthetic(2, 1, seed=3)
        x_cf = constraint_free_matrices(_grid(asm), clearance=1.0)
        order = asm.part_ids()
        dirs = {0: (1, 0, 0), 1: (0, 1, 0), 2: (0, 0, 1),
                3: (-1, 0, 0), 4: (0, -1, 0), 5: (0, 0, -1)}
        for j, d in dirs.items():
            for a, pa in enumerate(order):
                for b, pb in enumerate(order):
                    if a == b:
                        continue
                    static = set(map(tuple, asm.cells[pa].tolist()))
                    moved = {(x + d[0], y + d[1], z + d[2])
                             for (x, y, z) in map(tuple, asm.cells[pb].tolist())}
                    assert x_cf[j, a, b] == (0 if static & moved else 1)

    def test_constraint_degree_symmetric(self):
        ds = make_tower(3, 2, seed=13)
        cs = ds.matrices.constraint_degree
        assert (cs == cs.T).all()

    def test_rotation_layers_transpose(self):
        ds = make_tower(2, 2, seed=13)
        x_cf = ds.matrices.constraint_free
        for a in range(3):
            assert (x_cf[9 + a] == x_cf[6 + a].T).all()

    def test_clearance_below_pitch_rejected(self):
        g = _grid(generate_synthetic(1, 0, seed=0)[0])
        with pytest.raises(ValueError):
            constraint_free_matrices(g, clearance=0.5)
        with pytest.raises(ValueError):
            constraint_free_matrices(g, clearance=1.0, angle=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    @pytest.mark.parametrize("setting", ["pitch", "clearance", "angle"])
    def test_non_finite_setting_rejected(self, setting, value):
        # every comparison with NaN is false, so a range check alone lets
        # it through to the int casts
        message = {
            "pitch": "grid pitch must be a positive finite number",
            "clearance": "clearance must be a finite number of at least one "
                         "grid pitch",
            "angle": "rotation angle must be a positive finite number",
        }[setting]
        with pytest.raises(ValueError, match=f"{message}, got {value}"):
            if setting == "pitch":
                generate_synthetic(1, 0, seed=0, pitch=value)
            else:
                asm, catalog = generate_synthetic(1, 0, seed=0)
                build_dataset(asm, catalog, **{setting: value})


class TestContact:
    def test_stacked_and_separated(self):
        stacked = _assembly({1: _cube(0, 0, 0, 2), 2: _cube(0, 0, 2, 2)})
        assert contact_matrix(_grid(stacked))[0, 1] == 1
        apart = _assembly({1: _cube(0, 0, 0, 2), 2: _cube(4, 0, 0, 2)})
        assert contact_matrix(_grid(apart))[0, 1] == 0

    def test_tower_contact_graph_connected(self, tower10):
        ct = tower10.matrices.contact
        n = ct.shape[0]
        seen = {0}
        frontier = [0]
        while frontier:
            i = frontier.pop()
            for k in range(n):
                if ct[i, k] and k not in seen:
                    seen.add(k)
                    frontier.append(k)
        assert len(seen) == n

    def test_contact_implies_constraint_degree(self, tower10):
        ct = tower10.matrices.contact
        cs = tower10.matrices.constraint_degree
        assert (cs[ct == 1] >= 1).all()


class TestMotionTable:
    def test_no_downward_extraction(self, tower5):
        kinds = {m.kind for entries in tower5.motions.motions.values()
                 for m in entries}
        assert "-z" not in kinds

    def test_top_block_rises_freely(self, plain_tower4):
        catalog, matrices, motions = plain_tower4
        top_id = matrices.part_order[-1]
        up = [m for m in motions.motions[top_id] if m.kind == "+z"]
        assert len(up) == 1
        assert (up[0].row == 1).all()

    def test_bottom_block_fully_pinned(self, tower10):
        catalog, matrices, motions = tower10
        bottom = catalog.by_id(2)
        assert bottom.task_label == "graspable"
        for m in motions.motions[2]:
            assert (m.row == 0).any()

    def test_rows_match_full_sweeps(self, tower5):
        # straight-line extraction coincides with the full-extent sweep
        catalog, matrices, motions = tower5
        x_if = matrices.interference_free
        kinds = {"+x": 0, "+y": 1, "+z": 2, "-x": 3, "-y": 4, "-z": 5}
        for pid, entries in motions.motions.items():
            k = matrices.part_order.index(pid)
            for m in entries:
                j = kinds[m.kind]
                expected = x_if[j, :, k].copy()
                expected[k] = 1
                assert (m.row == expected).all()

    def test_build_sweeps_x_if_once(self, monkeypatch):
        calls = []
        sweep = _LabelGrid.sweep

        def counted(g, axis, *rest):
            calls.append(axis)
            return sweep(g, axis, *rest)

        monkeypatch.setattr(_LabelGrid, "sweep", counted)
        build_dataset(*generate_synthetic(2, 1, seed=7))
        # x_if, x_cf's translations and the contacts read the same sweeps
        assert calls == [0, 1, 2]

    def test_build_makes_one_grid(self, monkeypatch):
        product = generate_synthetic(2, 1, seed=7)
        grids, checks = [], []
        init = _LabelGrid.__init__

        def counted(g, *args):
            grids.append(g)
            init(g, *args)

        monkeypatch.setattr(_LabelGrid, "__init__", counted)
        monkeypatch.setattr(VoxelAssembly, "validate",
                            lambda asm: checks.append(asm))
        build_dataset(*product)
        # a valid assembly is not run through the full ``validate``
        assert len(grids) == 1 and checks == []


class TestGenerator:
    def test_two_part_product(self):
        asm, cat = generate_synthetic(1, 0, seed=0)
        assert len(cat) == 2
        assert cat.by_id(1).base
        ds = build_dataset(asm, cat)
        # both storage orders pass the pairwise interference condition
        from dsplan.objectives import evaluate
        assert evaluate([1, 2], ds).order_feasible
        assert evaluate([2, 1], ds).order_feasible

    def test_five_part_counts(self):
        asm, cat = generate_synthetic(2, 1, seed=7)
        assert len(cat) == 5
        labels = sorted(p.task_label for p in cat)
        assert labels == ["graspable", "graspable", "plate", "screw", "screw"]

    def test_determinism(self):
        a1, c1 = generate_synthetic(3, 2, manual_fraction=0.5,
                                    priority_count=1, seed=42)
        a2, c2 = generate_synthetic(3, 2, manual_fraction=0.5,
                                    priority_count=1, seed=42)
        assert c1 == c2
        for pid in a1.cells:
            assert (a1.cells[pid] == a2.cells[pid]).all()

    def test_emitted_matrices_satisfy_all_invariants(self):
        for layers, screws, seed in ((1, 0, 0), (2, 1, 7), (3, 2, 3),
                                     (2, 4, 1)):
            ds = make_tower(layers, screws, seed=seed)
            ds.matrices.validate(ds.catalog)
            ds.motions.validate(ds.matrices.part_order)

    def test_label_sprinkling(self):
        _, cat = generate_synthetic(4, 1, manual_fraction=0.5,
                                    priority_count=2, seed=6)
        manuals = [p for p in cat if p.task_label == "manual"]
        values = [p for p in cat if p.priority]
        assert len(manuals) == 2
        assert len(values) == 2
        for p in manuals + values:
            assert not p.base
            assert p.task_label != "screw"

    def test_centers_are_each_parts_mean(self):
        asm, cat = generate_synthetic(3, 2, seed=3, pitch=0.37)
        for part in cat:
            centers = asm.cells[part.id] + 0.5
            assert part.com == tuple(centers.mean(axis=0) * 0.37)

    def test_workspace_over_the_cell_limit_rejected(self, monkeypatch):
        # a 12006 x 12006 x 2 base plate: the box is checked from the
        # parameters before any cell is made
        def no_cells(*args):
            raise AssertionError("cells made before the box was checked")

        monkeypatch.setattr(geomsim, "_cells_of", no_cells)
        with pytest.raises(ValueError, match=(
                r"the occupied box \(12006, 12006, 9002\) needs a label grid "
                f"of {12008 * 12008 * 9004} cells")):
            generate_synthetic(3000, 4)

    def test_151_part_tower_fits_the_grid_limit(self):
        # 151 parts on a 128 x 128 x 94 grid
        asm, cat = generate_synthetic(30, 4, seed=12)
        assert len(cat) == 151

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_synthetic(0, 1)
        with pytest.raises(ValueError):
            generate_synthetic(1, 5)
        with pytest.raises(ValueError):
            generate_synthetic(1, 1, manual_fraction=1.5)
        with pytest.raises(ValueError):
            generate_synthetic(1, 1, priority_count=2)
        with pytest.raises(ValueError, match="priority_count must be in"):
            generate_synthetic(1, 1, priority_count=-2 ** 64)

    def test_pitch_past_the_float_range(self):
        # raised before the centres are scaled, so no overflow warning
        with pytest.raises(ValueError, match="pitch 1e[+]308 scales a part "
                                             "centre past the float range"):
            generate_synthetic(1, 1, pitch=1e308)
        # every centre is a few cells from the origin: 1e300 still fits
        unit, scaled = (generate_synthetic(1, 1, pitch=pitch)[1]
                        for pitch in (1.0, 1e300))
        assert [p.com for p in scaled] == [
            tuple(c * 1e300 for c in p.com) for p in unit]

    def test_clearance_of_too_many_pitches(self):
        asm, catalog = generate_synthetic(1, 0, pitch=1e-300)
        with pytest.raises(ValueError, match="clearance must be a finite "
                                             "number of at least one grid "
                                             "pitch, got 1e[+]300"):
            build_dataset(asm, catalog, clearance=1e300)


DIRECTIONS = ((1, 0, 0), (0, 1, 0), (0, 0, 1),
              (-1, 0, 0), (0, -1, 0), (0, 0, -1))


def _oracle_dataset_layers(asm, order, steps, angle):
    """x_if, x_cf, x_ct and the motion table recomputed pair by pair with
    the naive cell-set functions of the oracle."""
    cells = {pid: asm.cells[pid].tolist() for pid in order}
    occupied = np.vstack([asm.cells[pid] for pid in order])
    lo, hi = occupied.min(axis=0), occupied.max(axis=0) + 1
    reach = int((hi - lo).max())
    n = len(order)
    x_if = np.ones((6, n, n), dtype=np.uint8)
    x_cf = np.ones((12, n, n), dtype=np.uint8)
    x_ct = np.zeros((n, n), dtype=np.uint8)
    for i, pi in enumerate(order):
        for k, pk in enumerate(order):
            if i == k:
                continue
            static, mover = cells[pi], cells[pk]
            for j, d in enumerate(DIRECTIONS):
                x_if[j, i, k] = not oracle.sweep_blocked(static, mover, d,
                                                         reach)
                x_cf[j, i, k] = not oracle.sweep_blocked(static, mover, d,
                                                         steps)
            for a in range(3):
                # column k turns +angle: k's own +angle pose, or i's -angle
                x_cf[6 + a, i, k] = not (
                    oracle.rotation_blocked(static, mover, a, angle)
                    or oracle.rotation_blocked(mover, static, a, -angle))
                x_cf[9 + a, i, k] = not (
                    oracle.rotation_blocked(static, mover, a, -angle)
                    or oracle.rotation_blocked(mover, static, a, angle))
            x_ct[i, k] = oracle.face_contact(static, mover)
    ws_lo, ws_hi = asm.bounds
    motions = {}
    for k, pk in enumerate(order):
        p_lo = asm.cells[pk].min(axis=0)
        p_hi = asm.cells[pk].max(axis=0) + 1
        motions[pk] = []
        for j, kind in enumerate(("+x", "+y", "+z", "-x", "-y", "-z")):
            a = j % 3
            if j < 3:
                fits = p_hi[a] + (hi[a] - p_lo[a]) <= ws_hi[a]
            else:
                fits = p_lo[a] - (p_hi[a] - lo[a]) >= ws_lo[a]
            if fits:
                motions[pk].append((kind, x_if[j, :, k].tolist()))
    return x_if, x_cf, x_ct, motions


def _spacer_assembly(with_spacer=True):
    """A base plate, a 14-cell bar resting on it and an ignore-labelled
    spacer beside the bar's +x end: in the bar's +x sweep, in the path of
    its +rz rotation (the end cell swings into y = 3) and touching it."""
    parts = {1: [(x, y, 0) for x in range(16) for y in range(6)],
             2: [(x, 2, 1) for x in range(14)]}
    if with_spacer:
        parts[3] = [(13, 3, 1), (14, 3, 1), (14, 2, 1)]
    catalog = PartCatalog(tuple(
        Part(pid, name, parse_labels(name).task, base=(pid == 1),
             ignore=(pid == 3))
        for pid, name in ((1, "plate_base"), (2, "bar_graspable"),
                          (3, "spacer_graspable_ignore")) if pid in parts))
    return _assembly(parts), catalog


def _gapped_assembly(gap, seed):
    """Four random boxes on the workspace floor, each placed beyond the one
    before along x, y and z in turn, ``gap`` empty cells away from it and
    facing it across at least one cell."""
    rng = np.random.default_rng(seed)
    parts, lo = {}, np.zeros(3, dtype=np.int64)
    for pid in range(1, 5):
        size = rng.integers(2, 4, 3)
        parts[pid] = [tuple(lo + c) for c in np.ndindex(*size)]
        step = rng.integers(0, 2, 3)
        step[(pid - 1) % 3] = size[(pid - 1) % 3] + gap
        lo = lo + step
    return _assembly(parts), _catalog(4)


TOWERS = {"tower5": (2, 1, 0.0, 0, 7), "tower7": (2, 2, 0.5, 1, 5),
          "tower10": (3, 2, 0.0, 0, 3)}
GAPS = {"gap0": (0, 21), "gap1": (1, 22), "gap2": (2, 23)}
ORACLE_CASES = [*TOWERS, "peg_in_sleeve", "pin_through_plate", "spacer",
                *GAPS]


def _oracle_case(name):
    if name in TOWERS:
        layers, screws, manual, priority, seed = TOWERS[name]
        return generate_synthetic(layers, screws, manual, priority, seed)
    if name == "spacer":
        return _spacer_assembly()
    if name in GAPS:
        return _gapped_assembly(*GAPS[name])
    static, mover = {"peg_in_sleeve": _peg_in_sleeve,
                     "pin_through_plate": _pin_through_plate}[name]()
    asm = _assembly({1: static, 2: mover})
    return asm, PartCatalog((Part(1, "a_plate", "plate"),
                             Part(2, "b_graspable", "graspable")))


class TestOracleCrossCheck:
    # one-step clearance keeps the case's bare name
    @pytest.mark.parametrize("name, steps", [
        pytest.param(name, steps, id=name if steps == 1
                     else f"{name}-{steps}steps")
        for steps in (1, 2, 3, 5) for name in ORACLE_CASES])
    def test_every_layer_matches_the_oracle(self, name, steps):
        asm, catalog = _oracle_case(name)
        asm.validate()
        ds = build_dataset(asm, catalog, clearance=steps * asm.pitch)
        order = catalog.non_ignored_ids()
        x_if, x_cf, x_ct, motions = _oracle_dataset_layers(
            asm, order, steps=steps, angle=5.0)
        assert (ds.matrices.interference_free == x_if).all()
        assert (ds.matrices.constraint_free == x_cf).all()
        assert (ds.matrices.contact == x_ct).all()
        got = {pid: [(m.kind, m.row.tolist()) for m in entries]
               for pid, entries in ds.motions.motions.items()}
        assert got == motions

    def test_wider_clearance_and_angle_match_the_oracle(self):
        asm, catalog = _oracle_case("tower5")
        order = catalog.non_ignored_ids()
        _, x_cf, _, _ = _oracle_dataset_layers(asm, order, steps=3,
                                               angle=20.0)
        got = constraint_free_matrices(_LabelGrid(asm, order), 3.0, 20.0)
        assert (got == x_cf).all()

    def test_ignored_spacer_blocks_nothing(self):
        asm, catalog = _spacer_assembly()
        spacer, bar = asm.cells[3].tolist(), asm.cells[2].tolist()
        # the spacer would block the bar if it were planned
        assert oracle.sweep_blocked(spacer, bar, (1, 0, 0), 4)
        assert oracle.rotation_blocked(spacer, bar, 2, 5.0)
        assert oracle.face_contact(spacer, bar)
        built = build_dataset(asm, catalog)
        assert built.matrices.part_order == (1, 2)
        # every layer and motion equals the build without the spacer
        bare = build_dataset(*_spacer_assembly(with_spacer=False))
        assert (dataset_to_json(built._replace(catalog=bare.catalog))
                == dataset_to_json(bare))
        assert built.matrices.interference_free[0, :, 1].all()
        assert built.matrices.constraint_free[8, :, 1].all()


class TestGoldenDigests:
    """sha256 of the serialized datasets of three screw towers, 10, 36 and
    76 parts; any change in a relation layer changes these bytes."""

    @pytest.mark.parametrize("args, kwargs, digest", [
        ((3, 2), dict(seed=3),
         "70107b047bb0a221ca4202c8df25dd2a8e91c9a2d272f2cb1997d774de02606f"),
        ((7, 4), dict(manual_fraction=0.3, priority_count=2, seed=12),
         "19f8a861ad2cccf0777733d54f03862a7b4c429e1f6aebfc8fab2c0a97692c8b"),
        ((15, 4, 0.3, 2), dict(seed=12),
         "9870c1fb10eb5a8f941fd52b2c158a28953b04b8e530df0a3ec73d932fb7627c"),
    ])
    def test_dataset_digest(self, args, kwargs, digest):
        ds = build_dataset(*generate_synthetic(*args, **kwargs))
        text = dataset_to_json(ds)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("layers, settings, digest", [
        (15, dict(clearance=3.0, angle=20.0),
         "f030e961e39dd8f151866faba1425091a151b285336c203ce6191ea251f820cd"),
        (30, {},
         "fd366325134dd08fbf885abcb9adc6e3bf1f248ba6ed5af4f935142822e2a0ea"),
        (30, dict(clearance=3.0, angle=20.0),
         "13e21e728d04998487c50849b49e1e1a78d8344d613e3c3bf1e5032976ad792f"),
    ])
    def test_rotation_digests(self, layers, settings, digest):
        # the 76- and 151-part towers at the settings the digests above
        # leave out
        ds = build_dataset(*generate_synthetic(layers, 4, 0.3, 2, seed=12),
                           **settings)
        text = dataset_to_json(ds)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_wide_clearance_and_angle_digest(self):
        ds = build_dataset(*generate_synthetic(
            7, 4, manual_fraction=0.3, priority_count=2, seed=12),
            clearance=3.0, angle=20.0)
        text = dataset_to_json(ds)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "62b3e3356f330c3a9cabd44e5c56bdf2d3c3117000fc8a036de9346a935c44d1")
