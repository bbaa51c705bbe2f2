import itertools

import numpy as np
import pytest

import oracle
from dsplan.constraints import positions
from dsplan.model import (
    Dataset,
    Motion,
    MotionTable,
    Part,
    PartCatalog,
    RelationMatrices,
    derive_constraint_degree,
)
from dsplan.objectives import (
    OBJECTIVE_KEYS,
    PENALTY,
    Evaluation,
    Evaluator,
    evaluate,
)
from test_constraints import chain_product


def objective(ds, seq, key):
    """One objective of an id sequence, assuming it is available: the
    objective half of ``Evaluator.score``, before the penalty."""
    ev = Evaluator(ds)
    perms = ev.to_indices(seq)[None]
    pos = positions(perms)
    degree = ev.counts(pos)["degree"]
    return ev._objectives(perms, pos, degree)[0, OBJECTIVE_KEYS.index(key)]


def custom_product(specs, cs_pairs=None):
    """Dataset with hand-picked labels/coms; all constraints permissive.

    specs: list of (task_label, priority, com) per part, ids 1..n.
    cs_pairs: {(a, b): degree} entries forced into the degree matrix by
    blocking that many constraint directions.
    """
    parts = []
    for i, (task, prio, com) in enumerate(specs, start=1):
        parts.append(Part(i, f"p{i}_{task}" + ("_value" if prio else ""),
                          task, priority=prio, com=com))
    catalog = PartCatalog(tuple(parts))
    n = len(parts)
    x_if = np.ones((6, n, n), dtype=np.uint8)
    x_cf = np.ones((12, n, n), dtype=np.uint8)
    x_ct = np.zeros((n, n), dtype=np.uint8)
    for (a, b), degree in (cs_pairs or {}).items():
        assert degree <= 6
        x_ct[a - 1, b - 1] = x_ct[b - 1, a - 1] = 1
        for j in range(degree):
            # block translation j for both orderings, transpose-consistent
            x_cf[j, a - 1, b - 1] = 0
            x_cf[(j + 3) % 6, b - 1, a - 1] = 0
    if cs_pairs is None:
        # chain contacts so every order is stable-checkable; pair them with
        # a +/-z block to keep the contact=>degree invariant intact
        for a in range(1, n):
            x_ct[a - 1, a] = x_ct[a, a - 1] = 1
            for j in (2, 5):
                x_cf[j, a - 1, a] = 0
                x_cf[j, a, a - 1] = 0
    matrices = RelationMatrices(tuple(range(1, n + 1)), x_if, x_cf, x_ct,
                                derive_constraint_degree(x_cf))
    matrices.validate(catalog)
    motions = MotionTable(matrices.part_order, {
        i: (Motion(0, "+z", np.ones(n, dtype=np.uint8)),)
        for i in range(1, n + 1)})
    return Dataset(catalog, matrices, motions)


class TestDifficulty:
    def test_zero_degrees(self):
        ds = chain_product(3)
        m = ds.matrices
        m.constraint_degree = np.zeros_like(m.constraint_degree)
        assert objective(ds, [1, 2, 3], "d") == 0.0

    def test_two_parts_half(self):
        ds = chain_product(2)
        ds.matrices.constraint_degree = np.array([[0, 6], [6, 0]],
                                                 dtype=np.int16)
        assert objective(ds, [1, 2], "d") == pytest.approx(0.5)

    def test_unavailable_is_one(self):
        # without contacts the part removed first touches nothing that
        # remains, so the sequence is unstable
        ds = chain_product(2, contacts=[])
        result = Evaluator(ds).evaluate([1, 2])
        assert not result.available
        assert result.objectives[0] == 1.0

    def test_peak_bound(self, tower10):
        # every pair leaves at least one free direction, so the peak stays
        # strictly below the 12-per-pair ceiling
        rng = np.random.default_rng(1)
        ids = np.array(tower10.matrices.part_order)
        for _ in range(50):
            seq = rng.permutation(ids)
            val = objective(tower10, seq, "d")
            assert 0.0 <= val < 1.0


class TestEfficiency:
    def test_uniform_labels_coincident_parts(self):
        ds = custom_product([("graspable", False, (0, 0, 0))] * 3)
        assert objective(ds, [1, 2, 3], "e") == 0.0

    def test_one_task_change(self):
        ds = custom_product([("screw", False, (0, 0, 0)),
                             ("screw", False, (0, 0, 0)),
                             ("graspable", False, (0, 0, 0))])
        # task term 1/2, distance term 0
        assert objective(ds, [1, 2, 3], "e") == pytest.approx(0.25)

    def test_unavailable_is_one(self):
        ds = custom_product([("screw", False, (0, 0, 0))] * 2, cs_pairs={})
        result = Evaluator(ds).evaluate([1, 2])
        assert not result.available
        assert result.objectives[1] == 1.0

    def test_distance_term_strictly_below_one(self):
        ds = custom_product([("graspable", False, (0.0, 0, 0)),
                             ("graspable", False, (10.0, 0, 0)),
                             ("graspable", False, (20.0, 0, 0))])
        for perm in itertools.permutations([1, 2, 3]):
            assert objective(ds, list(perm), "e") < 0.5  # task term 0


class TestPrioritization:
    def test_priority_first_removed(self):
        specs = [("graspable", False, (0, 0, 0))] * 4 + [
            ("graspable", True, (0, 0, 0))]
        ds = custom_product(specs)
        # part 5 at storage position 5 = removed first
        assert objective(ds, [1, 2, 3, 4, 5], "p") == 0.0

    def test_priority_last_removed(self):
        specs = [("graspable", True, (0, 0, 0))] + [
            ("graspable", False, (0, 0, 0))] * 4
        ds = custom_product(specs)
        # priority part at position 1 = removed last
        assert objective(ds, [1, 2, 3, 4, 5], "p") == pytest.approx(0.8)

    def test_no_priority_parts(self):
        ds = custom_product([("graspable", False, (0, 0, 0))] * 3)
        assert objective(ds, [1, 2, 3], "p") == 0.0


class TestAllocability:
    def test_spread(self):
        specs = [("graspable", False, (0, 0, 0))] * 6
        specs[0] = ("manual", False, (0, 0, 0))
        specs[1] = ("manual", False, (0, 0, 0))
        ds = custom_product(specs)
        # manual parts at storage positions 3 and 5 of 6
        seq = [3, 4, 1, 5, 2, 6]
        assert objective(ds, seq, "a") == pytest.approx(0.4)

    def test_single_manual(self):
        specs = [("manual", False, (0, 0, 0))] + [
            ("graspable", False, (0, 0, 0))] * 3
        ds = custom_product(specs)
        assert objective(ds, [1, 2, 3, 4], "a") == 0.0

    def test_adjacent_manual_minimum(self):
        specs = [("manual", False, (0, 0, 0)),
                 ("manual", False, (0, 0, 0))] + [
            ("graspable", False, (0, 0, 0))] * 3
        ds = custom_product(specs)
        assert objective(ds, [1, 2, 3, 4, 5], "a") == pytest.approx(1 / 4)


class TestEvaluate:
    def test_penalty_is_exact(self, tower5):
        rng = np.random.default_rng(3)
        ids = np.array(tower5.matrices.part_order)
        ev = Evaluator(tower5)
        seen_unavailable = False
        for _ in range(100):
            seq = rng.permutation(ids)
            result = ev.evaluate(seq)
            if not result.available:
                seen_unavailable = True
                assert result.objectives == PENALTY
        assert seen_unavailable

    def test_single_part_all_zero(self):
        ds = chain_product(1)
        result = evaluate([1], ds)
        assert result.available
        assert result.objectives == (0.0, 0.0, 0.0, 0.0)

    def test_matches_oracle_components(self, tower7):
        tab = oracle.extract(tower7)
        ev = Evaluator(tower7)
        rng = np.random.default_rng(5)
        ids = np.array(tower7.matrices.part_order)
        for _ in range(200):
            perm = rng.permutation(7)
            mine = ev.evaluate(ids[perm])
            o, m, s, objs = oracle.evaluate(list(perm), tab, "as-written")
            assert mine.feasible == (o and m)
            assert mine.stable == s
            np.testing.assert_allclose(mine.objectives, objs, atol=1e-12)

    def test_coincident_same_label_swap_invariance(self):
        # permuting two identical-label coincident parts leaves the vector
        specs = [("graspable", False, (0.0, 0.0, 0.0)),
                 ("graspable", False, (0.0, 0.0, 0.0)),
                 ("screw", False, (1.0, 2.0, 0.0)),
                 ("manual", False, (3.0, 1.0, 0.0)),
                 ("manual", True, (2.0, 2.0, 2.0))]
        # parts 1 and 2 must have identical relation rows to be truly
        # interchangeable: both hang off part 3 the same way
        ds = custom_product(specs, cs_pairs={(1, 3): 2, (2, 3): 2,
                                             (3, 4): 2, (4, 5): 2})
        ev = Evaluator(ds)
        for perm in itertools.permutations(range(5)):
            perm = np.array(perm)
            swapped = perm.copy()
            a, b = np.flatnonzero((perm == 0) | (perm == 1))
            swapped[a], swapped[b] = swapped[b], swapped[a]
            score = ev.score(np.stack((perm, swapped)))
            np.testing.assert_allclose(score.objectives[0],
                                       score.objectives[1], atol=1e-15)

    def test_invalid_evaluation_rejected(self):
        with pytest.raises(ValueError):
            Evaluation(False, False, False, (0.5, 1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            Evaluation(True, True, False, PENALTY)
        with pytest.raises(ValueError):
            Evaluation(True, True, True, (1.5, 0.0, 0.0, 0.0))
