import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from dsplan.nsga3 import (
    GaConfig,
    best_solution,
    break_and_join,
    crossover,
    crowding_select,
    cut_and_paste,
    das_dennis_points,
    mutate,
    niche_select,
    non_dominated_sort,
    run,
)
from dsplan.objectives import Evaluation, Evaluator


class TestConfig:
    def test_defaults(self):
        cfg = GaConfig()
        assert cfg.pop_size == 100
        assert cfg.generations == 500
        assert cfg.iterations == 10
        assert cfg.divisions == 6
        cfg.validate()

    def test_rejections(self):
        for bad in (dict(pop_size=2), dict(crossover_rate=1.5),
                    dict(mode="x"), dict(objectives=()),
                    dict(objectives=("d", "d")), dict(init="zzz"),
                    dict(selection="zzz"), dict(mating="zzz"),
                    dict(iterations=0), dict(divisions=0)):
            with pytest.raises(ValueError):
                GaConfig(**bad).validate()


class TestNonDominatedSort:
    def test_identical_vectors_single_front(self):
        objs = np.tile([0.3, 0.3, 0.3, 0.3], (5, 1))
        fronts = non_dominated_sort(objs)
        assert len(fronts) == 1
        assert sorted(fronts[0].tolist()) == [0, 1, 2, 3, 4]

    def test_dominance_chain(self):
        objs = np.array([[0, 0, 0, 0], [.5, .5, .5, .5], [1, 1, 1, 1]])
        fronts = non_dominated_sort(objs)
        assert [f.tolist() for f in fronts] == [[0], [1], [2]]

    def test_matches_peeling_oracle(self):
        rng = np.random.default_rng(0)
        objs = rng.random((300, 4))
        fronts = non_dominated_sort(objs)
        rank = np.empty(len(objs), dtype=int)
        for r, front in enumerate(fronts):
            rank[front] = r
        assert rank.tolist() == oracle.front_ranks(objs.tolist())


class TestDasDennis:
    def test_unit_vectors_at_one_division(self):
        pts = das_dennis_points(4, 1)
        assert pts.shape == (4, 4)
        assert (np.sort(pts, axis=0)[-1] == 1).all()
        np.testing.assert_allclose(pts.sum(axis=1), 1.0, atol=1e-12)

    def test_count_formula(self):
        for m, p in ((4, 6), (3, 4), (2, 7), (1, 6)):
            pts = das_dennis_points(m, p)
            assert len(pts) == math.comb(p + m - 1, m - 1)
            np.testing.assert_allclose(pts.sum(axis=1), 1.0, atol=1e-12)

    def test_unique_points(self):
        pts = das_dennis_points(4, 6)
        assert len(np.unique(pts, axis=0)) == len(pts)


class TestNicheSelect:
    def test_whole_first_front_returned(self):
        objs = np.array([[0.1, 0.9], [0.9, 0.1], [0.5, 0.5],
                         [0.95, 0.95]])
        fronts = non_dominated_sort(objs)
        refs = das_dennis_points(2, 4)
        keep = niche_select(objs, fronts, refs, 3, np.random.default_rng(0))
        assert sorted(keep.tolist()) == [0, 1, 2]

    def test_first_front_always_survives(self):
        rng = np.random.default_rng(1)
        objs = rng.random((40, 4))
        fronts = non_dominated_sort(objs)
        refs = das_dennis_points(4, 4)
        if len(fronts[0]) <= 20:
            keep = niche_select(objs, fronts, refs, 20, rng)
            assert set(fronts[0].tolist()) <= set(keep.tolist())

    def test_one_point_per_line_distinct_niches(self):
        refs = das_dennis_points(2, 3)
        objs = refs * 0.5          # one member exactly on each line
        fronts = non_dominated_sort(objs)
        assert len(fronts) == 1
        keep = niche_select(objs, fronts, refs, 2, np.random.default_rng(2))
        unit = refs / np.linalg.norm(refs, axis=1, keepdims=True)
        proj = objs[keep] @ unit.T
        d = np.sqrt(np.maximum(
            (objs[keep] ** 2).sum(1, keepdims=True) - proj ** 2, 0))
        assert len(set(d.argmin(axis=1).tolist())) == len(keep)

    def test_reorder_invariance_without_ties(self):
        refs = das_dennis_points(2, 3)
        objs = np.vstack([refs * 0.4, refs * 0.9])
        fronts = non_dominated_sort(objs)
        keep_a = niche_select(objs, fronts, refs, 6,
                              np.random.default_rng(5))
        perm = np.random.default_rng(9).permutation(len(objs))
        objs_p = objs[perm]
        fronts_p = non_dominated_sort(objs_p)
        keep_b = niche_select(objs_p, fronts_p, refs, 6,
                              np.random.default_rng(5))
        got_a = sorted(map(tuple, objs[keep_a].tolist()))
        got_b = sorted(map(tuple, objs_p[keep_b].tolist()))
        assert got_a == got_b

    def test_too_few_members_rejected(self):
        objs = np.array([[0.5, 0.5]])
        fronts = non_dominated_sort(objs)
        with pytest.raises(ValueError):
            niche_select(objs, fronts, das_dennis_points(2, 2), 2,
                         np.random.default_rng(0))

    def test_crowding_select_prefers_spread(self):
        objs = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5],
                         [0.45, 0.55]])
        fronts = non_dominated_sort(objs)
        keep = crowding_select(objs, fronts, 3)
        assert 0 in keep and 1 in keep    # extremes kept first


def _perm(n, seed):
    return np.random.default_rng(seed).permutation(np.arange(1, n + 1))


class TestOperators:
    def test_identical_parents_clone(self):
        a = _perm(8, 0)
        c1, c2 = crossover(a, a.copy(), np.random.default_rng(1))
        assert (c1 == a).all() and (c2 == a).all()

    def test_whole_window_clones(self):
        a, b = _perm(6, 2), _perm(6, 3)

        class FullWindow:
            def integers(self, lo, hi, size=None):
                return np.array([0, hi - 1]) if size == 2 else 0
        c1, c2 = crossover(a, b, FullWindow())
        assert (c1 == a).all() and (c2 == b).all()

    def test_swap_same_position_identity(self):
        s = _perm(5, 4)

        class SameIdx:
            def integers(self, lo, hi, size=None):
                return np.array([2, 2]) if size == 2 else 2
        assert (mutate(s, SameIdx()) == s).all()

    def test_break_at_ends_identity(self):
        s = _perm(5, 5)

        class AtZero:
            def integers(self, lo, hi, size=None):
                return 0
        class AtEnd:
            def integers(self, lo, hi, size=None):
                return hi - 1
        assert (break_and_join(s, AtZero()) == s).all()
        assert (break_and_join(s, AtEnd()) == s).all()

    def test_multiset_preservation_bulk(self):
        rng = np.random.default_rng(6)
        base = np.arange(1, 11)
        for _ in range(10_000):
            a = rng.permutation(base)
            b = rng.permutation(base)
            c1, c2 = crossover(a, b, rng)
            assert sorted(c1.tolist()) == list(range(1, 11))
            assert sorted(c2.tolist()) == list(range(1, 11))
            for op in (mutate, cut_and_paste, break_and_join):
                out = op(a, rng)
                assert sorted(out.tolist()) == list(range(1, 11))

    @given(st.integers(2, 30), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_operators_always_permutations(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.permutation(np.arange(1, n + 1))
        b = rng.permutation(np.arange(1, n + 1))
        c1, c2 = crossover(a, b, rng)
        outs = [c1, c2, mutate(a, rng), cut_and_paste(a, rng),
                break_and_join(a, rng)]
        for out in outs:
            assert sorted(out.tolist()) == list(range(1, n + 1))


    @given(st.lists(st.integers(0, 500), min_size=1, max_size=40,
                    unique=True),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_crossover_matches_isin_formulation(self, ids, seed):
        rng = np.random.default_rng(seed)
        a = rng.permutation(np.array(ids))
        b = rng.permutation(np.array(ids))

        def ox(keeper, filler, i, j):
            child = np.empty_like(keeper)
            child[i:j] = keeper[i:j]
            rest = filler[~np.isin(filler, keeper[i:j])]
            child[:i] = rest[:i]
            child[j:] = rest[i:]
            return child

        i, j = sorted(np.random.default_rng(seed).integers(
            0, len(ids) + 1, size=2))
        c1, c2 = crossover(a, b, np.random.default_rng(seed))
        assert (c1 == ox(a, b, i, j)).all()
        assert (c2 == ox(b, a, i, j)).all()


def _eval(available, objs):
    if not available:
        return Evaluation(False, False, False, (1.0, 1.0, 1.0, 1.0))
    return Evaluation(True, True, True, tuple(objs))


class TestBestSolution:
    def test_single_member(self):
        assert best_solution([_eval(True, (0.5, 0.5, 0.5, 0.5))]) == 0

    def test_sum_ordering(self):
        evals = [_eval(True, (0.3, 0.3, 0.3, 0.3)),
                 _eval(True, (0.2, 0.2, 0.2, 0.3))]
        assert best_solution(evals) == 1

    def test_available_beats_unavailable(self):
        evals = [_eval(False, None), _eval(True, (0.9, 0.9, 0.9, 0.9))]
        assert best_solution(evals) == 1

    def test_ties_break_lexicographic_then_index(self):
        evals = [_eval(True, (0.4, 0.2, 0.2, 0.2)),
                 _eval(True, (0.2, 0.4, 0.2, 0.2)),
                 _eval(True, (0.2, 0.4, 0.2, 0.2))]
        assert best_solution(evals) == 1

    def test_fewest_violations_when_none_available(self):
        both_bad = Evaluation(False, False, False, (1.0,) * 4)
        one_bad = Evaluation(True, False, False, (1.0,) * 4)
        assert best_solution([both_bad, one_bad]) == 1

    def test_subset_objectives(self):
        evals = [_eval(True, (0.1, 0.9, 0.0, 0.0)),
                 _eval(True, (0.2, 0.1, 0.0, 0.0))]
        assert best_solution(evals, objectives=("d",)) == 0
        assert best_solution(evals, objectives=("e",)) == 1


class TestRun:
    def test_zero_generations_returns_initial_best(self, tower5):
        cfg = GaConfig(pop_size=20, generations=0, iterations=1, seed=0)
        result = run(tower5, cfg)
        assert result.best_evaluation.available
        assert len(result.history) == 1
        assert result.history[0].generation == 0

    def test_best_always_available_with_ccgi(self, tower5):
        for seed in range(5):
            cfg = GaConfig(pop_size=12, generations=5, iterations=1,
                           seed=seed)
            assert run(tower5, cfg).best_evaluation.available

    def test_history_shape_and_monotone_best(self, tower10_labeled):
        cfg = GaConfig(pop_size=24, generations=12, iterations=2, seed=3)
        result = run(tower10_labeled, cfg)
        assert len(result.history) == 2 * 13
        sums = [r.best_sum for r in result.history]
        assert all(b <= a + 1e-15 for a, b in zip(sums, sums[1:]))
        assert len(result.iteration_bests) == 2
        csv = result.history_csv()
        header = csv.splitlines()[0]
        assert header.count(",") == 9
        assert len(csv.splitlines()) == 1 + len(result.history)

    def test_every_member_valid_permutation(self, tower5):
        # exercised indirectly: evaluator raises on invalid sequences, and
        # the best sequence must be a permutation of the part ids
        cfg = GaConfig(pop_size=16, generations=8, iterations=1, seed=1)
        result = run(tower5, cfg)
        assert sorted(result.best_sequence) == sorted(
            tower5.catalog.non_ignored_ids())
        assert result.best_labels == tuple(
            tower5.catalog.by_id(i).task_label for i in result.best_sequence)

    def test_determinism_and_parallel_equivalence(self, tower10_labeled):
        cfg = dict(pop_size=20, generations=8, iterations=2, seed=11)
        a = run(tower10_labeled, GaConfig(**cfg, parallel=False))
        b = run(tower10_labeled, GaConfig(**cfg, parallel=True))
        c = run(tower10_labeled, GaConfig(**cfg, parallel=False))
        assert a.to_json() == c.to_json()
        da, db = json.loads(a.to_json()), json.loads(b.to_json())
        da.pop("config"), db.pop("config")
        assert da == db

    def test_single_objective_degenerates(self, tower10_labeled):
        # a single enabled objective: best of the run never exceeds the
        # multi-objective run's value for that objective (same seed)
        wins = 0
        for seed in range(5):
            multi = run(tower10_labeled, GaConfig(
                pop_size=24, generations=15, iterations=1, seed=seed))
            single = run(tower10_labeled, GaConfig(
                pop_size=24, generations=15, iterations=1, seed=seed,
                objectives=("e",)))
            if (single.best_evaluation.objectives[1]
                    <= multi.best_evaluation.objectives[1] + 1e-12):
                wins += 1
        assert wins >= 4

    def test_final_rate_not_below_initial(self, tower10):
        good = 0
        for seed in range(10):
            cfg = GaConfig(pop_size=20, generations=10, iterations=1,
                           seed=seed, init="ri")
            hist = run(tower10, cfg).history
            if hist[-1].available_rate >= hist[0].available_rate:
                good += 1
        assert good >= 9

    def test_crowding_selection_runs(self, tower5):
        cfg = GaConfig(pop_size=16, generations=6, iterations=1, seed=2,
                       selection="crowding")
        assert run(tower5, cfg).best_evaluation.available

    def test_random_mating_runs(self, tower5):
        cfg = GaConfig(pop_size=16, generations=6, iterations=1, seed=2,
                       mating="random")
        assert run(tower5, cfg).best_evaluation.available

    def test_adaptive_normalization_runs(self, tower10_labeled):
        cfg = GaConfig(pop_size=16, generations=6, iterations=1, seed=2,
                       adaptive_normalize=True)
        assert run(tower10_labeled, cfg).best_evaluation.available
