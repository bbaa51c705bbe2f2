"""Cross-checks of the population-wide evaluation kernel.

Each row of a ``(P, n)`` batch must equal the batch of that row alone
exactly, and both must equal the brute-force oracle: flags, per-position
terms, the first violation, and the objectives.
"""

import itertools

import numpy as np
import pytest

import oracle
from dsplan.ccg import RepairMasks, _pack_rows, build_ccg, ccgi_init
from dsplan.constraints import (
    TERMS,
    motion_rows,
    order_rows,
    positions,
    stability_rows,
)
from dsplan.model import (
    Dataset,
    Motion,
    MotionTable,
    Part,
    PartCatalog,
    RelationMatrices,
)
from dsplan import objectives
from dsplan.objectives import Evaluator, Score
from conftest import make_tower
from test_constraints import chain_product

MODES = ("as-written", "strict")


@pytest.fixture(scope="module")
def tower36():
    """The 36-part tower of acceptance criterion 12."""
    return make_tower(7, 4, manual=0.3, priority=2, seed=12)


def row_objectives(ev, perm):
    """The objectives of one sequence with 1-D numpy reductions.

    Saved plans stay byte-identical only if the batched sums round exactly
    like these, so the comparison is exact.
    """
    n = len(perm)
    if n < 2:
        return (0.0, 0.0, 0.0, 0.0)
    cs = ev.dataset.matrices.constraint_degree.astype(np.int64)
    peak = max(int(cs[perm[:k], perm[k]].sum()) for k in range(1, n))
    codes = ev.task_codes[perm]
    changes = int(np.count_nonzero(codes[1:] != codes[:-1]))
    travel = float(np.sqrt(
        ((ev.coms[perm[1:]] - ev.coms[perm[:-1]]) ** 2).sum(-1)).sum())
    dist_term = travel / (n * ev.d_max) if ev.d_max > 0 else 0.0
    pos = np.empty(n, dtype=np.int64)
    pos[perm] = np.arange(1, n + 1)
    f_p = (1.0 - float(pos[ev.priority_idx].sum()) / ev.r_max
           if len(ev.priority_idx) else 0.0)
    mpos = pos[ev.manual]
    f_a = (float(mpos.max() - mpos.min()) / (n - 1)
           if ev.manual.sum() >= 2 else 0.0)
    return (peak / (12.0 * (n - 1)), (changes / (n - 1) + dist_term) / 2.0,
            f_p, f_a)


def assert_kernel_matches(ds, perms, mode):
    tab = oracle.extract(ds)
    ev = Evaluator(ds, mode)
    perms = np.asarray(perms, dtype=np.int64)
    score = ev.score(perms)
    terms, degree = ev.terms(perms, positions(perms))
    cs = ds.matrices.constraint_degree.astype(np.int64)
    assert all(len(column) == len(perms) for column in score)
    for p, perm in enumerate(perms):
        row = perm.tolist()
        one = ev.score(perms[p:p + 1])
        for name, column, single in zip(Score._fields, score, one):
            assert np.array_equal(column[p], single[0]), name
        for t, ref in enumerate((oracle.order_terms(row, tab, mode),
                                 oracle.motion_terms(row, tab, mode),
                                 oracle.stability_terms(row, tab))):
            assert terms[p, t].tolist() == ref, TERMS[t]
        # the degree each part accumulates from the parts below it
        assert [degree[j, p] for j in perm] == [
            cs[perm[:k], j].sum() for k, j in enumerate(perm)]
        o, m, s, objs = oracle.evaluate(row, tab, mode)
        assert (score.order[p], score.motion[p], score.stable[p]) == (o, m, s)
        assert score.feasible[p] == (o and m)
        first = oracle.first_violation(row, tab, mode)
        if first is None:
            assert (score.violated[p], score.position[p]) == (-1, 0)
        else:
            assert (TERMS[score.violated[p]], score.position[p]) == first
        if o and m and s:
            assert (tuple(score.objectives[p].tolist())
                    == row_objectives(ev, perm))
        assert score.objectives[p] == pytest.approx(objs, abs=1e-12)


@pytest.mark.parametrize("mode", MODES)
def test_random_permutations_of_36_part_tower(tower36, mode):
    rng = np.random.default_rng(36)
    perms = [rng.permutation(tower36.matrices.n) for _ in range(200)]
    assert_kernel_matches(tower36, perms, mode)


@pytest.mark.parametrize("mode", MODES)
def test_ccgi_draws_of_36_part_tower(tower36, mode):
    graph = build_ccg(tower36.catalog, tower36.matrices)
    ev = Evaluator(tower36, mode)
    rng = np.random.default_rng(12)
    perms = [ev.to_indices(ccgi_init(graph, rng)) for _ in range(100)]
    assert_kernel_matches(tower36, perms, mode)
    # the draws are stable, so their objectives are live in as-written mode
    score = ev.score(np.array(perms))
    assert mode == "strict" or (score.feasible & score.stable).any()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("block", [1, 7, 23])
def test_score_in_row_blocks(tower36, mode, block, monkeypatch):
    # rows are independent, so any block size gives the same Score; the
    # budget is `block` rows of the float32 before-matrix and its bool
    # temporary, 5 * n * n bytes a row
    graph = build_ccg(tower36.catalog, tower36.matrices)
    ev = Evaluator(tower36, mode)
    rng = np.random.default_rng(23)
    perms = np.array([ev.to_indices(ccgi_init(graph, rng)) for _ in range(12)]
                     + [rng.permutation(ev.n) for _ in range(11)])
    whole = ev.score(perms)
    assert whole.available.any() and not whole.available.all()
    calls = []
    score_block = Evaluator._score

    def counted(self, rows):
        calls.append(len(rows))
        return score_block(self, rows)

    monkeypatch.setattr(Evaluator, "_score", counted)
    monkeypatch.setattr(objectives, "MAX_POOL_BYTES", block * 5 * ev.n ** 2)
    blocked = ev.score(perms)
    assert calls == [min(block, 23 - i) for i in range(0, 23, block)]
    for name, a, b in zip(Score._fields, whole, blocked):
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize("mode", MODES)
def test_empty_population_scores_empty(tower36, mode):
    ev = Evaluator(tower36, mode)
    one = ev.score(np.arange(ev.n)[None])
    empty = ev.score(np.empty((0, ev.n), dtype=np.int64))
    for name, a, b in zip(Score._fields, one, empty):
        assert b.shape == (0, *a.shape[1:]) and a.dtype == b.dtype, name


def _all_perms(n):
    return list(itertools.permutations(range(n)))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n", [1, 2, 4])
def test_small_chains(n, mode):
    assert_kernel_matches(chain_product(n), _all_perms(n), mode)


@pytest.mark.parametrize("mode", MODES)
def test_part_without_motions(mode):
    ds = chain_product(4)
    motions = MotionTable(ds.matrices.part_order, {
        pid: (Motion(0, "+z", np.ones(4, dtype=np.uint8)),)
        for pid in (1, 2, 4)})
    ds = Dataset(ds.catalog, ds.matrices, motions)
    assert_kernel_matches(ds, _all_perms(4), mode)


@pytest.mark.parametrize("mode", MODES)
def test_no_part_has_motions(mode):
    ds = chain_product(3)
    ds = Dataset(ds.catalog, ds.matrices,
                 MotionTable(ds.matrices.part_order, {}))
    assert_kernel_matches(ds, _all_perms(3), mode)


@pytest.mark.parametrize("mode", MODES)
def test_all_manual_product(mode):
    base = chain_product(4)
    catalog = PartCatalog(tuple(
        Part(p.id, f"p{p.id}_manual", "manual", com=p.com)
        for p in base.catalog))
    ds = Dataset(catalog, base.matrices,
                 MotionTable(base.matrices.part_order, {}))
    assert_kernel_matches(ds, _all_perms(4), mode)
    score = Evaluator(ds, mode).score(np.array(_all_perms(4)))
    assert (score.stable == (score.feasible & score.stable)).all()


def random_product(n, seed):
    """Random relation matrices (not a physical product) with 0-3 motions
    per part and random manual labels, so the strict rows are padded."""
    rng = np.random.default_rng(seed)
    parts = tuple(Part(i, f"p{i}", task, com=tuple(rng.normal(size=3)),
                       priority=bool(rng.random() < 0.3))
                  for i, task in enumerate(
                      rng.choice(["graspable", "manual", "screw"], n), 1))
    contact = np.triu(rng.random((n, n)) < 0.5, 1)
    matrices = RelationMatrices(
        tuple(range(1, n + 1)),
        (rng.random((6, n, n)) < 0.7).astype(np.uint8),
        np.ones((12, n, n), dtype=np.uint8),
        (contact | contact.T).astype(np.uint8),
        rng.integers(0, 13, (n, n)).astype(np.int16))
    motions = MotionTable(matrices.part_order, {
        pid: tuple(Motion(r, "+z", (rng.random(n) < 0.8).astype(np.uint8))
                   for r in range(rng.integers(0, 4)))
        for pid in matrices.part_order})
    return Dataset(PartCatalog(parts), matrices, motions)


@pytest.mark.parametrize("seed", range(4))
def test_random_products(seed):
    ds = random_product(6, seed)
    for mode in MODES:
        assert_kernel_matches(ds, _all_perms(6), mode)


@pytest.mark.parametrize("product", ["tower36", "random", "single"])
def test_bit_rows_match_weight_rows(product, request):
    ds = {"tower36": lambda: request.getfixturevalue("tower36"),
          "random": lambda: random_product(9, 11),
          "single": lambda: chain_product(1)}[product]()
    n = ds.matrices.n
    for mode in MODES:
        for term, weights in (
                ("order", order_rows(ds.matrices, mode)),
                ("motion", motion_rows(ds.motions, mode)),
                ("stability", stability_rows(ds.matrices))):
            rows = _pack_rows(weights)
            bits = [[[bool(mask >> b & 1) for b in range(n)]
                     for mask in options] for options in rows]
            assert np.array_equal(
                np.array(bits, dtype=bool).reshape(n, -1, n),
                weights), (term, mode)
            assert all(mask >> n == 0 for options in rows for mask in options)
    masks = RepairMasks.of(ds.matrices)
    assert masks.order == _pack_rows(order_rows(ds.matrices, "strict"))
    assert masks.support == [
        options[0] for options in _pack_rows(stability_rows(ds.matrices))]
    assert masks.touching == [np.flatnonzero(ds.matrices.contact[a]).tolist()
                              for a in range(n)]
