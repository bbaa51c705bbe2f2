import itertools

import numpy as np
import pytest

import oracle
from dsplan.constraints import MODES, TERMS, ConstraintFlags, positions
from dsplan.model import (
    Dataset,
    Motion,
    MotionTable,
    Part,
    PartCatalog,
    RelationMatrices,
    derive_constraint_degree,
)
from dsplan.objectives import Evaluator, check


def chain_product(n, contacts=None):
    """Hand-built dataset: n graspable parts, all translations free, chain
    contacts by default."""
    parts = tuple(Part(i, f"p{i}_graspable", "graspable",
                       com=(float(i), 0.0, 0.0)) for i in range(1, n + 1))
    catalog = PartCatalog(parts)
    x_if = np.ones((6, n, n), dtype=np.uint8)
    x_cf = np.ones((12, n, n), dtype=np.uint8)
    x_ct = np.zeros((n, n), dtype=np.uint8)
    pairs = contacts if contacts is not None else [(i, i + 1)
                                                   for i in range(1, n)]
    for a, b in pairs:
        x_ct[a - 1, b - 1] = x_ct[b - 1, a - 1] = 1
        for j in (2, 5):    # block +/-z at small clearance so cs >= 1
            x_cf[j, a - 1, b - 1] = 0
            x_cf[j, b - 1, a - 1] = 0
    matrices = RelationMatrices(tuple(range(1, n + 1)), x_if, x_cf, x_ct,
                                derive_constraint_degree(x_cf))
    matrices.validate(catalog)
    motions = MotionTable(matrices.part_order, {
        i: (Motion(0, "+z", np.ones(n, dtype=np.uint8)),)
        for i in range(1, n + 1)})
    return Dataset(catalog, matrices, motions)


def terms_at(ds, perms, mode="as-written"):
    """``(P, n)`` per-position terms of index permutations, by term."""
    perms = np.atleast_2d(np.asarray(perms, dtype=np.int64))
    ev = Evaluator(ds, mode)
    return ev.terms_at(perms, ev.counts(positions(perms)))


ALL_5 = np.array(list(itertools.permutations(range(5))))


class TestOrderFeasibility:
    def test_single_part_vacuous(self):
        ds = chain_product(1)
        assert check([1], ds).order_feasible
        assert check([1], ds, mode="strict").order_feasible

    def test_all_free_every_permutation(self):
        ds = chain_product(4)
        for perm in itertools.permutations([1, 2, 3, 4]):
            assert check(list(perm), ds).order_feasible

    def test_matches_oracle_on_five_part_fixture(self, tower5):
        tab = oracle.extract(tower5)
        for mode in MODES:
            got = terms_at(tower5, ALL_5, mode)["order"].all(axis=1)
            for perm, ok in zip(ALL_5.tolist(), got):
                assert ok == oracle.order_ok(perm, tab, mode)

    def test_aswritten_is_order_independent(self, tower5):
        # each unordered pair is tested once, so the verdict is shared by
        # all permutations of a given product
        ids = list(tower5.matrices.part_order)
        verdicts = {check(list(p), tower5).order_feasible
                    for p in itertools.permutations(ids)}
        assert len(verdicts) == 1

    def test_strict_implies_as_written(self, tower10):
        rng = np.random.default_rng(0)
        n = tower10.matrices.n
        perms = [rng.permutation(n) for _ in range(200)]
        strict = terms_at(tower10, perms, "strict")["order"]
        loose = terms_at(tower10, perms, "as-written")["order"]
        assert (loose | ~strict).all()

    def test_block_before_screw_infeasible_when_base_outlives(self, tower5):
        # strict reading; base held at position 1 (removed last)
        screws_of = {2: [3], 4: [5]}
        others = [2, 3, 4, 5]
        n_checked = 0
        for perm in itertools.permutations(others):
            seq = [1, *perm]
            block_first = any(
                seq.index(block) > seq.index(s)
                for block, screws in screws_of.items() for s in screws)
            feasible = check(seq, tower5, mode="strict").order_feasible
            if block_first:
                assert not feasible
                n_checked += 1
        assert n_checked > 0

    def test_bad_mode_rejected(self, tower5):
        with pytest.raises(ValueError):
            check([1, 2, 3, 4, 5], tower5, mode="weird")


class TestMotionFeasibility:
    def test_all_ones_motion_row_never_fails(self):
        ds = chain_product(3)
        for perm in itertools.permutations([1, 2, 3]):
            assert check(list(perm), ds).motion_feasible

    def test_bottom_block_before_top_false_in_both_modes(self, tower10):
        # bottom block (id 2) removed first, top block (id 8) last-ish
        seq = [1, 8, 9, 10, 5, 6, 7, 3, 4, 2]
        for mode in MODES:
            assert not check(seq, tower10, mode=mode).motion_feasible

    def test_zero_motion_part_fails_at_checked_position(self):
        ds = chain_product(3)
        motions = MotionTable(ds.matrices.part_order, {
            1: (Motion(0, "+z", np.ones(3, dtype=np.uint8)),),
            2: (Motion(0, "+z", np.ones(3, dtype=np.uint8)),),
            3: (),
        })
        ds = Dataset(ds.catalog, ds.matrices, motions)
        # part 3 checked whenever it is not at position 1
        assert not check([1, 2, 3], ds).motion_feasible
        assert check([3, 1, 2], ds).motion_feasible

    def test_manual_parts_exempt(self):
        parts = (Part(1, "a_graspable", "graspable"),
                 Part(2, "b_manual", "manual"))
        catalog = PartCatalog(parts)
        base = chain_product(2)
        motions = MotionTable((1, 2), {
            1: (Motion(0, "+z", np.ones(2, dtype=np.uint8)),),
            2: (),   # no robot motion exists for the manual part
        })
        ds = Dataset(catalog, base.matrices, motions)
        assert check([1, 2], ds).motion_feasible
        assert check([2, 1], ds).motion_feasible

    def test_matches_oracle_both_modes(self, tower5):
        tab = oracle.extract(tower5)
        for mode in MODES:
            got = terms_at(tower5, ALL_5, mode)["motion"].all(axis=1)
            for perm, ok in zip(ALL_5.tolist(), got):
                assert ok == oracle.motion_ok(perm, tab, mode)

    def test_rows_for_already_removed_parts_irrelevant(self, tower5):
        # flipping feasibility entries against parts removed earlier can
        # never change a verdict: the term at position k only reads
        # positions below k
        catalog, matrices, motions = tower5
        rng = np.random.default_rng(17)
        for _ in range(20):
            perm = rng.permutation(5)
            baseline = terms_at(tower5, perm)["motion"][0]
            k = int(rng.integers(1, 5))
            part = perm[k]
            doctored = {pid: list(entries)
                        for pid, entries in motions.motions.items()}
            pid = matrices.part_order[part]
            new_entries = []
            for m in doctored[pid]:
                row = m.row.copy()
                row[perm[k + 1:]] ^= 1   # parts removed before this one
                new_entries.append(type(m)(m.id, m.kind, row))
            doctored[pid] = tuple(new_entries)
            tampered = Dataset(catalog, matrices,
                               type(motions)(motions.part_order, doctored))
            assert (terms_at(tampered, perm)["motion"][0][k]
                    == baseline[k])


class TestStability:
    def test_chain_leaf_first(self):
        ds = chain_product(3)
        # removal c, b, a  -> storage (a, b, c)
        assert check([1, 2, 3], ds).stable

    def test_middle_first_order(self):
        ds = chain_product(3)
        # storage (a, c, b): removal b, c, a; c touches nothing remaining
        assert not check([1, 3, 2], ds).stable

    def test_matches_oracle(self, tower5):
        tab = oracle.extract(tower5)
        got = terms_at(tower5, ALL_5)["stability"].all(axis=1)
        for perm, ok in zip(ALL_5.tolist(), got):
            assert ok == oracle.stable_ok(perm, tab)


class TestCheck:
    def test_flags_compose(self, tower5):
        for perm in ALL_5:
            flags = check(np.array(tower5.matrices.part_order)[perm],
                          tower5, mode="as-written")
            assert flags.available == (flags.order_feasible
                                       and flags.motion_feasible
                                       and flags.stable)
            if flags.available:
                assert flags.first_violation is None
            else:
                criterion, k = flags.first_violation
                assert criterion in TERMS
                assert 2 <= k <= 5

    def test_first_violation_position(self):
        ds = chain_product(3)
        flags = check([1, 3, 2], ds)
        assert flags.first_violation == ("stability", 2)

    def test_inconsistent_flags_rejected(self):
        with pytest.raises(ValueError):
            ConstraintFlags(True, True, True, False)


class TestLocality:
    def test_adjacent_flip_only_touches_two_terms(self, tower10):
        rng = np.random.default_rng(7)
        n = tower10.matrices.n
        for _ in range(25):
            perm = rng.permutation(n)
            k = int(rng.integers(0, n - 1))
            flipped = perm.copy()
            flipped[k], flipped[k + 1] = flipped[k + 1], flipped[k]
            for mode in MODES:
                before = terms_at(tower10, perm, mode)
                after = terms_at(tower10, flipped, mode)
                for term in TERMS:
                    # incremental recompute: copy old terms, redo k, k+1
                    incremental = before[term][0].copy()
                    incremental[[k, k + 1]] = after[term][0][[k, k + 1]]
                    assert (incremental == after[term][0]).all()
