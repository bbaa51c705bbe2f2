import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from dsplan.draws import Draws
from dsplan.nsga3 import (
    GaConfig,
    _Population,
    _adaptive_normalize,
    _associate,
    _best_member,
    _cut_paste_rows,
    _draw_cut,
    _draw_window,
    _front_ranks,
    _make_offspring,
    _ox_rows,
    _rotate_rows,
    _select,
    _swap_rows,
    crowding_distance,
    crowding_select,
    das_dennis_points,
    niche_select,
    non_dominated_sort,
    run,
)
from dsplan.objectives import PENALTY
from test_ccg import criterion12_tower


@pytest.fixture(scope="module")
def tower36():
    return criterion12_tower(7)


def grid_objectives(draw, rows, k):
    """Objective rows on a coarse grid, so ties and duplicate vectors are
    common, with some rows equal to the penalty vector."""
    values = st.sampled_from([0.0, 0.25, 0.5, 1.0])
    return np.array([
        PENALTY[:k] if draw(st.booleans()) and draw(st.booleans())
        else [draw(values) for _ in range(k)] for _ in range(rows)],
        dtype=np.float64).reshape(rows, k)


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

    def test_reference_lattice_must_fit(self):
        # C(D + 3, 3) points over four objectives: 98,770 at D = 82 and
        # 102,340 at D = 83; only the count is computed, never the lattice
        GaConfig(divisions=82).validate()
        GaConfig(divisions=1000, objectives=("d", "a")).validate()
        for divisions, points in ((83, 102340), (1000, 167668501)):
            with pytest.raises(ValueError, match=(
                    f"divisions {divisions} over 4 objectives make {points} "
                    f"reference points, more than 100000")):
                GaConfig(divisions=divisions).validate()


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

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_ties_duplicates_and_penalty_rows_match_oracle(self, data):
        rows = data.draw(st.integers(1, 40))
        k = data.draw(st.integers(1, 4))
        objs = grid_objectives(data.draw, rows, k)
        rank = _front_ranks(non_dominated_sort(objs), rows)
        assert rank.tolist() == oracle.front_ranks(objs.tolist())

    def test_all_penalty_rows_single_front(self):
        fronts = non_dominated_sort(np.tile(PENALTY, (6, 1)))
        assert [f.tolist() for f in fronts] == [[0, 1, 2, 3, 4, 5]]


class TestSurvivorRanks:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_carried_ranks_equal_ranks_among_survivors(self, data):
        # the generation loop mates the survivors on the pool ranks that
        # selection returns instead of sorting them again
        size = data.draw(st.integers(4, 20))
        k = data.draw(st.integers(1, 4))
        objs = grid_objectives(data.draw, 2 * size, k)
        config = GaConfig(
            pop_size=size,
            selection=data.draw(st.sampled_from(("reference-line",
                                                 "crowding"))),
            adaptive_normalize=data.draw(st.booleans()))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        keep, rank = _select(objs, config, das_dennis_points(k, 4), rng)
        assert len(keep) == size
        assert rank.tolist() == oracle.front_ranks(objs[keep].tolist())


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


def ref_niche_select(objs, fronts, refs, n_select, rng, normalize=False):
    """niche_select as a pick-by-pick loop over numpy masks: the niches at
    the least count among the live ones, a draw among them, and a filter of
    the drawn niche's untaken candidates."""
    chosen = []
    l = 0
    while l < len(fronts) and len(chosen) + len(fronts[l]) <= n_select:
        chosen.extend(int(i) for i in fronts[l])
        l += 1
    if len(chosen) == n_select:
        return np.array(chosen, dtype=np.int64)
    split = [int(i) for i in fronts[l]]
    need = n_select - len(chosen)
    pts = _adaptive_normalize(objs) if normalize else objs
    assoc, dist = _associate(pts[np.array(chosen + split)], refs)
    n_chosen = len(chosen)
    rho = np.zeros(len(refs), dtype=np.int64)
    for a in assoc[:n_chosen]:
        rho[a] += 1
    cand_by_ref = {}
    for pos, a in enumerate(assoc[n_chosen:]):
        cand_by_ref.setdefault(int(a), []).append(pos)
    active = np.ones(len(refs), dtype=bool)
    picked = []
    taken = np.zeros(len(split), dtype=bool)
    while len(picked) < need:
        live = np.flatnonzero(active)
        best = live[rho[live] == rho[live].min()]
        j = int(best[rng.integers(len(best))])
        pool = [p for p in cand_by_ref.get(j, ()) if not taken[p]]
        if not pool:
            active[j] = False
            continue
        if rho[j] == 0:
            sel = pool[int(dist[n_chosen + np.array(pool)].argmin())]
        else:
            sel = pool[int(rng.integers(len(pool)))]
        taken[sel] = True
        picked.append(split[sel])
        rho[j] += 1
    return np.array(chosen + picked, dtype=np.int64)


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

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_pick_by_pick_reference(self, data):
        k = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(1, 60))
        objs = grid_objectives(data.draw, m, k)
        if data.draw(st.booleans()):     # off-grid rows: distinct distances
            objs = objs * data.draw(st.floats(0.1, 3.0))
        fronts = non_dominated_sort(objs)
        refs = das_dennis_points(k, data.draw(st.integers(1, 6)))
        n_select = data.draw(st.integers(1, m))
        normalize = data.draw(st.booleans())
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = niche_select(objs, fronts, refs, n_select, rng, normalize)
        want = ref_niche_select(objs, fronts, refs, n_select, ref, normalize)
        assert got.tolist() == want.tolist()
        assert rng.bit_generator.state == ref.bit_generator.state
        with Draws(np.random.default_rng(seed)) as d:
            assert niche_select(objs, fronts, refs, n_select, d,
                                normalize).tolist() == want.tolist()

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


def ox_pair(a, b, i, j):
    """Both order-crossover children of ``a`` and ``b`` over window i:j."""
    return _ox_rows(np.stack((a, b)), np.stack((b, a)), [i, i], [j, j])


class TestOperators:
    def test_identical_parents_clone(self):
        a = _perm(8, 0)
        c1, c2 = ox_pair(a, a.copy(), *_draw_window(
            np.random.default_rng(1), 8))
        assert (c1 == a).all() and (c2 == a).all()

    def test_whole_window_clones(self):
        a, b = _perm(6, 2), _perm(6, 3)
        c1, c2 = ox_pair(a, b, 0, 6)
        assert (c1 == a).all() and (c2 == b).all()

    def test_swap_same_position_identity(self):
        s = _perm(5, 4)
        assert (_swap_rows(s[None], [2], [2])[0] == s).all()

    def test_break_at_ends_identity(self):
        s = _perm(5, 5)
        assert (_rotate_rows(s[None], [0])[0] == s).all()
        assert (_rotate_rows(s[None], [5])[0] == s).all()

    def test_multiset_preservation_bulk(self):
        rng = np.random.default_rng(6)
        base = np.arange(1, 11)
        a = np.array([rng.permutation(base) for _ in range(10_000)])
        b = np.array([rng.permutation(base) for _ in range(10_000)])
        i, j = np.sort(rng.integers(0, 11, size=(2, 10_000)), axis=0)
        g = rng.integers(0, 11 - (j - i))
        outs = [_ox_rows(a, b, i, j), _ox_rows(b, a, i, j),
                _swap_rows(a, *rng.integers(0, 10, size=(2, 10_000))),
                _cut_paste_rows(a, i, j, g),
                _rotate_rows(a, rng.integers(0, 11, size=10_000))]
        for out in outs:
            assert (np.sort(out, axis=1) == base).all()

    @given(st.integers(2, 30), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_operators_always_permutations(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.permutation(np.arange(1, n + 1))
        b = rng.permutation(np.arange(1, n + 1))
        c1, c2 = ox_pair(a, b, *_draw_window(rng, n))
        outs = [c1, c2,
                _swap_rows(a[None], [rng.integers(n)], [rng.integers(n)])[0],
                _cut_paste_rows(a[None], *([v] for v in _draw_cut(rng, n)))[0],
                _rotate_rows(a[None], [rng.integers(n + 1)])[0]]
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
        c1, c2 = ox_pair(a, b, *_draw_window(np.random.default_rng(seed),
                                             len(ids)))
        assert (c1 == ox(a, b, i, j)).all()
        assert (c2 == ox(b, a, i, j)).all()


# The operators as they were before the batched apply: slices and
# concatenations over one chromosome, with the draws made child by child.
def ref_ox(keeper, filler, i, j):
    child = np.empty_like(keeper)
    child[i:j] = keeper[i:j]
    rest = filler[~np.isin(filler, keeper[i:j])]
    child[:i] = rest[:i]
    child[j:] = rest[i:]
    return child


def ref_swap(s, i, j):
    out = s.copy()
    out[i], out[j] = out[j], out[i]
    return out


def ref_cut_and_paste(s, i, j, g):
    rest = np.concatenate((s[:i], s[j:]))
    return np.concatenate((rest[:g], s[i:j], rest[g:]))


def ref_break_and_join(s, p):
    return np.concatenate((s[p:], s[:p]))


def ref_offspring(perms, objs, config, refs, rng):
    """Variation that sorts the population itself, then draws and applies
    every operator one child at a time."""
    size, n = perms.shape
    fronts = non_dominated_sort(objs)
    rank = _front_ranks(fronts, size)
    if config.selection == "crowding":
        tie = np.empty(size)
        for front in fronts:
            tie[front] = -crowding_distance(objs[front])
    else:
        _, tie = _associate(objs, refs)

    def pick():
        if config.mating == "random":
            return int(rng.integers(size))
        i, j = rng.integers(0, size, size=2)
        if rank[i] != rank[j]:
            return int(i if rank[i] < rank[j] else j)
        return int(i if tie[i] <= tie[j] else j)

    offspring = []
    while len(offspring) < config.pop_size:
        a, b = perms[pick()], perms[pick()]
        if rng.random() < config.crossover_rate:
            i, j = sorted(rng.integers(0, n + 1, size=2))
            c1, c2 = ref_ox(a, b, i, j), ref_ox(b, a, i, j)
        else:
            c1, c2 = a.copy(), b.copy()
        for child in (c1, c2):
            if rng.random() < config.mutation_rate:
                child = ref_swap(child, *rng.integers(0, n, size=2))
            if rng.random() < config.cut_paste_rate:
                i, j = sorted(rng.integers(0, n + 1, size=2))
                g = int(rng.integers(0, n - (j - i) + 1))
                child = ref_cut_and_paste(child, i, j, g)
            if rng.random() < config.break_join_rate:
                child = ref_break_and_join(child, int(rng.integers(0, n + 1)))
            offspring.append(child)
    return np.array(offspring[:config.pop_size])


class TestBatchedOperators:
    @given(st.integers(1, 20), st.integers(1, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_row_apply_matches_references(self, n, k, seed):
        # random decision lists, applied to k rows at once and one by one
        rng = np.random.default_rng(seed)
        ids = rng.choice(10 * n, size=n, replace=False)
        rows = np.array([rng.permutation(ids) for _ in range(k)])
        mates = np.array([rng.permutation(ids) for _ in range(k)])
        i, j = np.sort(rng.integers(0, n + 1, size=(2, k)), axis=0)
        g = np.array([rng.integers(0, n - (b - a) + 1) for a, b in zip(i, j)])
        s1, s2 = rng.integers(0, n, size=(2, k))
        p = rng.integers(0, n + 1, size=k)
        ox = _ox_rows(rows, mates, i, j)
        swapped = _swap_rows(rows, s1, s2)
        cut = _cut_paste_rows(rows, i, j, g)
        rotated = _rotate_rows(rows, p)
        for r in range(k):
            assert (ox[r] == ref_ox(rows[r], mates[r], i[r], j[r])).all()
            assert (swapped[r] == ref_swap(rows[r], s1[r], s2[r])).all()
            assert (cut[r] == ref_cut_and_paste(rows[r], i[r], j[r],
                                                g[r])).all()
            assert (rotated[r] == ref_break_and_join(rows[r], p[r])).all()

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_offspring_match_child_by_child_reference(self, data):
        size = data.draw(st.integers(4, 25))
        n = data.draw(st.integers(1, 12))
        k = data.draw(st.integers(1, 4))
        rate = st.sampled_from((0.0, 0.3, 1.0))
        config = GaConfig(
            pop_size=size, crossover_rate=data.draw(rate),
            mutation_rate=data.draw(rate), cut_paste_rate=data.draw(rate),
            break_join_rate=data.draw(rate),
            selection=data.draw(st.sampled_from(("reference-line",
                                                 "crowding"))),
            mating=data.draw(st.sampled_from(("tournament", "random"))),
            objectives=("d", "e", "p", "a")[:k])
        seed = data.draw(st.integers(0, 2**32 - 1))
        setup = np.random.default_rng(seed)
        perms = np.array([setup.permutation(n) for _ in range(size)])
        objs = np.ones((size, 4))
        objs[:, :k] = grid_objectives(data.draw, size, k)
        mask = config.objective_mask()
        refs = das_dennis_points(k, 3)
        flags = np.ones(size, dtype=bool)
        pop = _Population(perms, flags, flags, objs)
        rank = _front_ranks(non_dominated_sort(objs[:, mask]), size)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _make_offspring(pop, rank, config, mask, refs, rng)
        want = ref_offspring(perms, objs[:, mask], config, refs, ref)
        assert got.shape == (size, n)
        assert (got == want).all()
        assert rng.integers(2**62) == ref.integers(2**62)


def best(members, objectives=("d", "e", "p", "a")):
    """``_best_member``'s index over ``(feasible, stable, objectives)``
    members; ``objectives`` None is an unavailable member's penalty."""
    feasible, stable, objs = zip(*members)
    objs = np.array([PENALTY if v is None else v for v in objs])
    mask = GaConfig(objectives=objectives).objective_mask()
    return _best_member(np.array(feasible), np.array(stable), objs, mask)[0]


class TestBestSolution:
    def test_single_member(self):
        assert best([(True, True, (0.5, 0.5, 0.5, 0.5))]) == 0

    def test_sum_ordering(self):
        assert best([(True, True, (0.3, 0.3, 0.3, 0.3)),
                     (True, True, (0.2, 0.2, 0.2, 0.3))]) == 1

    def test_available_beats_unavailable(self):
        assert best([(False, False, None),
                     (True, True, (0.9, 0.9, 0.9, 0.9))]) == 1

    def test_ties_break_lexicographic_then_index(self):
        assert best([(True, True, (0.4, 0.2, 0.2, 0.2)),
                     (True, True, (0.2, 0.4, 0.2, 0.2)),
                     (True, True, (0.2, 0.4, 0.2, 0.2))]) == 1

    def test_fewest_violations_when_none_available(self):
        both_bad = (False, False, None)
        one_bad = (True, False, None)
        assert best([both_bad, one_bad]) == 1

    def test_subset_objectives(self):
        members = [(True, True, (0.1, 0.9, 0.0, 0.0)),
                   (True, True, (0.2, 0.1, 0.0, 0.0))]
        assert best(members, objectives=("d",)) == 0
        assert best(members, objectives=("e",)) == 1


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


class TestGoldenDigests:
    """sha256 of plan_result.json + history.csv, computed before the
    generation loop carried its population as arrays; seeded outputs must
    not move."""

    @pytest.mark.parametrize("product, overrides, digest", [
        ("tower10_labeled", {},
         "9fa03b24d4d6211ae6dfcb33cd1ddda3"
         "a4765b25154e49a8abc7fffd4da1fc7f"),
        ("tower10_labeled", {"mode": "strict"},
         "d9a70ac0686ab4a1fbca4aab8c95369c"
         "259aa84fba82a90efa74b633d659753c"),
        ("tower10_labeled", {"selection": "crowding"},
         "8c5af719c45de2448f0f0a178da15d1a"
         "cd90a2f40465ee1481a9bd86b4adedc7"),
        ("tower10_labeled", {"pop_size": 7},
         "a77e5e6e23ddb9c20eea1189a1d25ad4"
         "0d63ec4dd3ef0d713ad99fa5a41313ce"),
        ("tower10_labeled", {"pop_size": 33},
         "7a7aee50ae71cb99d8e40749655a20c2"
         "7a6efd65653f7700d48e5f0efb87d509"),
        ("tower10_labeled", {"divisions": 3, "mating": "random",
                             "pop_size": 9, "selection": "crowding"},
         "07eb7aae78e027606dc4dd5250dfb150"
         "293fdd89f81a561657a81f22d6c974f3"),
        ("tower36", {},
         "72fa24368c346d3dd4311b54d9532a30"
         "50d33513d86517dcc21c1a8d1148f272"),
        ("tower36", {"mode": "strict"},
         "32e13ee91e1506e1a1305162ef7bd568"
         "73217383c11528cca2f7d0d8c5d490a9"),
        ("tower36", {"selection": "crowding"},
         "dcf8bdbfc129dc4828b420424d9cdb4e"
         "bdbb93a6ca72bad8a9cbb8eee87db784"),
        ("tower36", {"mating": "random"},
         "edb3f3255c40e7df5275bfb203a3f6c3"
         "d4a5cfe44472752b1422d26272cd6adf"),
        ("tower36", {"pop_size": 7},
         "9d15090291e4db2726e8efe0b4190d6e"
         "2defcce722a576cefaa9ed8ce4ed076e"),
        ("tower36", {"pop_size": 33},
         "52843c7b361d8acc72ec8b3d8f238995"
         "23ec8c191b9fdf94ad452605bfca34d3"),
        ("tower36", {"objectives": ("d", "e")},
         "91abda8d622a8df582bb706207566e71"
         "75fa2fb2642d99dc55262dc431bf659b"),
        ("tower36", {"objectives": ("p",)},
         "aecf8d2274d55a8b5255aa00642257fe"
         "e17762e509555fc5e64cdd4f04563599"),
        ("tower36", {"adaptive_normalize": True},
         "c1c046678f7e02fb68bbfc15aff1efda"
         "46e7a7f5649d447ad10c8cc4123bb30d"),
        ("tower36", {"init": "ri"},
         "213bcc74a8dcd7ae56335759d5107733"
         "8850230f8d10f0b50d81b918a03dbc44"),
        ("tower36", {"init": "sfr", "mode": "strict"},
         "f4063e7f5d90c0b9d143e26138750b99"
         "ca6c3c812e1647a7e62e35a4b7e6dc81"),
        ("tower36", {"init": "fr"},
         "71761ba960e65cc3915a4955ef6a6ae4"
         "41d3213ca3d6e3e2d071c2f5fd3d0533"),
        ("tower36", {"divisions": 3, "mating": "random",
                     "pop_size": 9, "selection": "crowding"},
         "a6a2edc836946bc479993e7af79550e0"
         "234e66aacf935b1532954a8c1362edaa"),
    ])
    def test_plan_outputs(self, product, overrides, digest, request):
        config = GaConfig(**{**dict(pop_size=20, generations=6,
                                    iterations=2, seed=5), **overrides})
        result = run(request.getfixturevalue(product), config)
        text = result.to_json() + result.history_csv()
        assert hashlib.sha256(text.encode()).hexdigest() == digest
