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
from dsplan.cli import main
from dsplan.model import (
    Dataset,
    DatasetError,
    Motion,
    MotionTable,
    Part,
    PartCatalog,
    save_dataset,
)
from dsplan import objectives
from dsplan.objectives import Evaluator, Score
from conftest import chain_product, make_tower, random_product

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
    coms = np.array([ev.dataset.catalog.by_id(pid).com
                     for pid in ev.part_order], dtype=np.float64)
    travel = float(np.sqrt(
        ((coms[perm[1:]] - coms[perm[:-1]]) ** 2).sum(-1)).sum())
    # in input units: the evaluator's power-of-two scale cancels exactly
    d_max = float(np.sqrt(((coms[:, None] - coms[None]) ** 2).sum(-1)).max())
    dist_term = travel / (n * d_max) if d_max > 0 else 0.0
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
    cs = np.array(tab["x_cs"], dtype=np.int64)
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


def assert_scored_in_blocks(ev, perms, block, monkeypatch):
    """Score ``perms`` under a budget of ``block`` rows: 5 * n * (n + M)
    bytes a row, for the float32 before-matrix and counts over the M weight
    options and their bool temporaries.  Rows are independent, so the
    blocks give the Score of the whole population."""
    whole = ev.score(perms)
    calls = []
    score_block = Evaluator._score

    def counted(self, rows):
        calls.append(len(rows))
        return score_block(self, rows)

    monkeypatch.setattr(Evaluator, "_score", counted)
    monkeypatch.setattr(objectives, "MAX_POOL_BYTES",
                        block * 5 * ev.n * (ev.n + ev.weights.shape[1]))
    blocked = ev.score(perms)
    assert calls == [min(block, len(perms) - i)
                     for i in range(0, len(perms), block)]
    for name, a, b in zip(Score._fields, whole, blocked):
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("block", [1, 7, 23])
def test_score_in_row_blocks(tower36, mode, block, monkeypatch):
    graph = build_ccg(tower36.catalog, tower36.matrices)
    ev = Evaluator(tower36, mode)
    rng = np.random.default_rng(23)
    perms = np.array([ev.to_indices(ccgi_init(graph, rng)) for _ in range(12)]
                     + [rng.permutation(ev.n) for _ in range(11)])
    available = ev.score(perms).available
    assert available.any() and not available.all()
    assert_scored_in_blocks(ev, perms, block, monkeypatch)


def test_score_blocks_count_the_motion_options(tower36, monkeypatch):
    # 1,000 extra motions on one part make 1,000 strict options, so the
    # counts, not the n * n before-matrix, take most of a row's bytes
    ev = Evaluator(with_extra_motions(tower36, 5, 1000), "strict")
    assert ev.weights.shape[1] > 1000
    rng = np.random.default_rng(4)
    perms = np.array([rng.permutation(ev.n) for _ in range(10)])
    assert_scored_in_blocks(ev, perms, 3, monkeypatch)


def with_extra_motions(ds, k, count):
    """``ds`` with ``count`` extra all-zero motions on its k-th part."""
    order = ds.matrices.part_order
    motions = dict(ds.motions.motions)
    motions[order[k]] += tuple(Motion(r, "+z", np.zeros(len(order), np.uint8))
                               for r in range(1000, 1000 + count))
    return ds._replace(motions=MotionTable(motions))


def test_over_budget_weights_are_a_dataset_error(tower36, tmp_path,
                                                 monkeypatch, capsys):
    ds = with_extra_motions(tower36, 5, 100)
    pid = ds.matrices.part_order[5]
    most = ds.motions.count(pid)
    weight_bytes = 4 * 36 * 36 * (most + 8)
    monkeypatch.setattr(objectives, "MAX_POOL_BYTES", weight_bytes)
    for mode in MODES:
        assert Evaluator(ds, mode).weights.nbytes <= weight_bytes
    monkeypatch.setattr(objectives, "MAX_POOL_BYTES", weight_bytes - 1)
    for mode in MODES:
        with pytest.raises(DatasetError, match=(
                f"^part {pid} has {most} motions, so the weights of 36 parts "
                f"take about {weight_bytes} bytes, more than "
                f"{weight_bytes - 1}$")):
            Evaluator(ds, mode)
    path = tmp_path / "probe.json"
    save_dataset(ds, path)
    capsys.readouterr()
    for argv in (["plan", "--pop", "8", "--generations", "1",
                  "--iterations", "1"], ["init-bench", "--trials", "5"]):
        assert main(argv + ["--dataset", str(path),
                            "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"dataset error: part {pid} has {most} motions" in err
        assert "Traceback" not in err


def test_motion_probe_weights_and_blocks_within_budget(tower36):
    # ROADMAP item 2's probe: 3,000 extra motions on one part of the tower
    ds = with_extra_motions(tower36, 5, 3000)
    n, most = 36, ds.motions.count(ds.matrices.part_order[5])
    weight_bytes = 4 * n * n * (most + 8)
    assert 15_500_000 < weight_bytes < 15_700_000
    assert weight_bytes <= objectives.MAX_POOL_BYTES
    ev = Evaluator(ds, "strict")
    assert ev.weights.nbytes == weight_bytes
    # init_benchmark's 1,000-row blocks fit the score budget too
    assert 1000 * 5 * n * (n + ev.weights.shape[1]) <= objectives.MAX_POOL_BYTES


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
    motions = MotionTable({
        pid: (Motion(0, "+z", np.ones(4, dtype=np.uint8)),)
        for pid in (1, 2, 4)})
    ds = Dataset(ds.catalog, ds.matrices, motions)
    assert_kernel_matches(ds, _all_perms(4), mode)


@pytest.mark.parametrize("mode", MODES)
def test_no_part_has_motions(mode):
    ds = chain_product(3)
    ds = Dataset(ds.catalog, ds.matrices, MotionTable({}))
    assert_kernel_matches(ds, _all_perms(3), mode)


@pytest.mark.parametrize("mode", MODES)
def test_all_manual_product(mode):
    base = chain_product(4)
    catalog = PartCatalog(tuple(
        Part(p.id, f"p{p.id}_manual", "manual", com=p.com)
        for p in base.catalog))
    ds = Dataset(catalog, base.matrices, MotionTable({}))
    assert_kernel_matches(ds, _all_perms(4), mode)
    score = Evaluator(ds, mode).score(np.array(_all_perms(4)))
    assert (score.stable == (score.feasible & score.stable)).all()


# in strict mode seeds 0-3 have no available row; 4-7 have 4, 13, 50 and 122
_RANDOM_SEEDS = range(8)


@pytest.mark.parametrize("seed", _RANDOM_SEEDS)
def test_random_products(seed):
    ds = random_product(6, seed)
    for mode in MODES:
        assert_kernel_matches(ds, _all_perms(6), mode)


def _random_product_scores(mode):
    return [Evaluator(random_product(6, seed), mode).score(
        np.array(_all_perms(6))) for seed in _RANDOM_SEEDS]


# the cross-check compares the objectives on available rows only
def test_random_products_reach_a_nonzero_difficulty():
    assert any((s.available & (s.objectives[:, 0] > 0)).any()
               for mode in MODES for s in _random_product_scores(mode))


@pytest.mark.parametrize("mode", MODES)
def test_random_products_compare_objectives(mode):
    assert any(s.available.any() for s in _random_product_scores(mode))


@pytest.mark.parametrize("product", ["tower36", "random", "single"])
def test_bit_rows_match_weight_rows(product, request):
    ds = {"tower36": lambda: request.getfixturevalue("tower36"),
          "random": lambda: random_product(9, 11),
          "single": lambda: chain_product(1)}[product]()
    n = ds.matrices.n
    for mode in MODES:
        for term, weights in (
                ("order", order_rows(ds.matrices, mode)),
                ("motion", motion_rows(ds.motions, ds.matrices.part_order,
                                       mode)),
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
