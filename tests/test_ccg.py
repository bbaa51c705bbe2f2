import hashlib
from collections import Counter

import numpy as np
import pytest

import oracle
from dsplan.bench import init_benchmark, summary_csv
from dsplan.ccg import (
    DisconnectedProduct,
    build_ccg,
    ccgi_init,
    fr_init,
    make_initializer,
    random_init,
    sfr_init,
)
from dsplan.model import (
    Part,
    PartCatalog,
    RelationMatrices,
    derive_constraint_degree,
)
from dsplan.objectives import Evaluator
from conftest import make_tower
from test_constraints import chain_product
from test_kernel import random_product


def graph_product(contacts, n, fixing=(), base=None, sizes=None):
    parts = []
    for i in range(1, n + 1):
        task = "screw" if i in fixing else "graspable"
        name = f"p{i}_{task}" + ("_base" if i == base else "")
        parts.append(Part(i, name, task, base=(i == base),
                          size=None if sizes is None else sizes[i - 1]))
    catalog = PartCatalog(tuple(parts))
    x_if = np.ones((6, n, n), dtype=np.uint8)
    x_cf = np.ones((12, n, n), dtype=np.uint8)
    x_ct = np.zeros((n, n), dtype=np.uint8)
    for a, b in contacts:
        x_ct[a - 1, b - 1] = x_ct[b - 1, a - 1] = 1
        for j in (2, 5):
            x_cf[j, a - 1, b - 1] = 0
            x_cf[j, b - 1, a - 1] = 0
    matrices = RelationMatrices(tuple(range(1, n + 1)), x_if, x_cf, x_ct,
                                derive_constraint_degree(x_cf))
    matrices.validate(catalog)
    return catalog, matrices


class TestBuildCcg:
    def test_fixing_nodes_are_screws_and_bolts(self, tower10):
        graph = build_ccg(tower10.catalog, tower10.matrices)
        expected = {p.id for p in tower10.catalog
                    if p.task_label in ("screw", "bolt")}
        assert graph.fixing == expected
        for edge in graph.edges:
            touches_fixing = edge[0] in graph.fixing or edge[1] in graph.fixing
            assert (edge in graph.connection_edges) == touches_fixing

    def test_two_part_product(self):
        catalog, matrices = graph_product([(1, 2)], 2, base=1)
        graph = build_ccg(catalog, matrices)
        assert graph.edges == ((1, 2),)
        assert graph.root == 1

    def test_disconnected_product_rejected(self):
        catalog, matrices = graph_product([(1, 2)], 3, base=1)
        with pytest.raises(DisconnectedProduct):
            build_ccg(catalog, matrices)

    def test_largest_part_is_root_without_base(self):
        catalog, matrices = graph_product([(1, 2), (2, 3)], 3,
                                          sizes=[5.0, 20.0, 1.0])
        graph = build_ccg(catalog, matrices)
        assert graph.root == 2

    def test_edges_match_contact_matrix(self, tower5):
        graph = build_ccg(tower5.catalog, tower5.matrices)
        ct = tower5.matrices.contact
        order = tower5.matrices.part_order
        expected = {(order[i], order[k])
                    for i in range(len(order)) for k in range(i + 1, len(order))
                    if ct[i, k]}
        assert set(graph.edges) == expected

    def test_dot_output(self, tower5):
        dot = build_ccg(tower5.catalog, tower5.matrices).to_dot()
        assert dot.startswith("graph product {")
        assert "shape=box" in dot and "color=red" in dot


class TestCcgi:
    def test_chain_forced_order(self):
        # base - block - screw: only one choice at every step
        catalog, matrices = graph_product([(1, 2), (2, 3)], 3,
                                          fixing={3}, base=1)
        graph = build_ccg(catalog, matrices)
        rng = np.random.default_rng(0)
        for _ in range(20):
            seq = ccgi_init(graph, rng)
            assert seq.tolist() == [1, 2, 3]  # removal order: 3, 2, 1

    def test_root_always_last_removed(self, tower10):
        graph = build_ccg(tower10.catalog, tower10.matrices)
        rng = np.random.default_rng(1)
        for _ in range(50):
            assert ccgi_init(graph, rng)[0] == graph.root

    def test_all_draws_stable_and_multiple_orders(self):
        # five parts with interchangeable screws, so several orders exist
        ds = make_tower(1, 3, seed=2)
        assert len(ds.catalog) == 5
        graph = build_ccg(ds.catalog, ds.matrices)
        ev = Evaluator(ds)
        rng = np.random.default_rng(2)
        seen = set()
        for _ in range(1000):
            seq = ccgi_init(graph, rng)
            assert ev.score(ev.to_indices(seq)[None]).stable[0]
            seen.add(tuple(seq))
        assert len(seen) >= 2

    def test_fixing_neighbor_substitution(self):
        # star: root 1 - hub 2; hub fastened by screw 3; leaf 4 beyond hub
        catalog, matrices = graph_product(
            [(1, 2), (2, 3), (2, 4)], 4, fixing={3}, base=1)
        graph = build_ccg(catalog, matrices)
        rng = np.random.default_rng(3)
        for _ in range(50):
            seq = ccgi_init(graph, rng)
            removal = seq[::-1].tolist()
            # leaf 4 and screw 3 are both at distance 2; when 4 is picked it
            # has no fixing neighbor, when 2 would be picked (distance 1,
            # never max while 3 or 4 remain) the screw shields it
            assert removal.index(3) < removal.index(2)

    def test_distances_recomputed_after_removal(self):
        # root 1 with screw 2 bridging to part 3 (cut vertex), plus a
        # separate chain 1-4-5-6.  After removing screw 2, part 3 is cut
        # off and must count as maximum-distance (removed immediately);
        # stale distances would sometimes prefer node 5 or 6.
        catalog, matrices = graph_product(
            [(1, 2), (2, 3), (1, 4), (4, 5), (5, 6)], 6,
            fixing={2}, base=1)
        graph = build_ccg(catalog, matrices)
        rng = np.random.default_rng(4)
        for _ in range(60):
            removal = ccgi_init(graph, rng)[::-1].tolist()
            after_screw = removal.index(2)
            assert removal.index(3) == after_screw + 1

    @pytest.mark.parametrize("product", ["tower10", "tower36", "fixer",
                                         "cut_vertex"])
    def test_matches_recompute_every_step_reference(self, product, request):
        # "fixer": the swap removes screw 2 (distance 1) in place of block 3
        # (distance 2), which cuts block 3 off from the root
        if product == "fixer":
            catalog, matrices = graph_product(
                [(1, 2), (2, 3), (1, 4), (4, 5)], 5, fixing={2}, base=1)
        elif product == "cut_vertex":
            catalog, matrices = graph_product(
                [(1, 2), (2, 3), (1, 4), (4, 5), (5, 6)], 6,
                fixing={2}, base=1)
        elif product == "tower36":
            ds = make_tower(7, 4, manual=0.3, priority=2, seed=12)
            catalog, matrices = ds.catalog, ds.matrices
        else:
            ds = request.getfixturevalue(product)
            catalog, matrices = ds.catalog, ds.matrices
        graph = build_ccg(catalog, matrices)
        seen = set()
        for seed in range(100):
            got = ccgi_init(graph, np.random.default_rng(seed)).tolist()
            assert got == oracle.ccgi_reference(
                graph, np.random.default_rng(seed))
            seen.add(tuple(got))
        assert len(seen) >= 2

    def test_ccgi_outputs_always_available_on_towers(self, tower10):
        graph = build_ccg(tower10.catalog, tower10.matrices)
        ev = Evaluator(tower10)
        rng = np.random.default_rng(5)
        for _ in range(300):
            seq = ccgi_init(graph, rng)
            assert ev.evaluate(seq).available


class TestRandomInit:
    def test_singleton(self):
        ds = chain_product(1)
        rng = np.random.default_rng(0)
        assert random_init(ds.catalog, rng).tolist() == [1]

    def test_seeded_reproducibility(self, tower10):
        a = random_init(tower10.catalog, np.random.default_rng(7))
        b = random_init(tower10.catalog, np.random.default_rng(7))
        assert (a == b).all()

    def test_uniformity_within_five_sigma(self, tower5):
        rng = np.random.default_rng(11)
        counts = Counter()
        trials = 1000
        for _ in range(trials):
            counts[tuple(random_init(tower5.catalog, rng))] += 1
        n_perms = 120
        p = 1.0 / n_perms
        expect = trials * p
        sigma = (trials * p * (1 - p)) ** 0.5
        assert all(abs(c - expect) <= 5 * sigma for c in counts.values())
        missing = n_perms - len(counts)
        assert expect <= 5 * sigma or missing == 0


class TestRearrangement:
    def test_feasible_fixpoint_unchanged(self):
        # every permutation satisfies both term families here, so the
        # rearrangement must return its own starting draw untouched
        ds = chain_product(4)
        full = np.ones((6, 4, 4), dtype=np.uint8)
        ds.matrices.contact[:] = 1
        np.fill_diagonal(ds.matrices.contact, 0)
        for fn in (fr_init, sfr_init):
            seq = fn(ds.catalog, ds.matrices, np.random.default_rng(3))
            start = np.random.default_rng(3).permutation(
                np.array(ds.matrices.part_order))
            assert (seq == start).all()

    def test_outputs_are_permutations(self, tower10):
        ids = sorted(tower10.matrices.part_order)
        rng = np.random.default_rng(9)
        for fn in (fr_init, sfr_init):
            for _ in range(50):
                assert sorted(fn(tower10.catalog, tower10.matrices,
                                 rng).tolist()) == ids

    def test_sfr_beats_fr_on_towers(self, tower5):
        ev = Evaluator(tower5)
        rng = np.random.default_rng(13)
        rates = {}
        for name, fn in (("fr", fr_init), ("sfr", sfr_init)):
            wins = 0
            for _ in range(1000):
                seq = fn(tower5.catalog, tower5.matrices, rng)
                wins += ev.evaluate(seq).available
            rates[name] = wins
        assert rates["sfr"] >= rates["fr"]

    def test_make_initializer_rejects_unknown(self, tower5):
        with pytest.raises(ValueError):
            make_initializer("nope", tower5.catalog, tower5.matrices)


def criterion12_tower(layers):
    """The screw tower of acceptance criterion 12 with ``layers`` layers."""
    return make_tower(layers, 4, manual=0.3, priority=2, seed=12)


def _all_free_chain():
    # every permutation satisfies both term families
    ds = chain_product(4)
    ds.matrices.contact[:] = 1
    np.fill_diagonal(ds.matrices.contact, 0)
    return ds.catalog, ds.matrices


def _part_without_contacts():
    # part 4 touches nothing, so sfr finds it stranded but cannot move it
    return graph_product([(1, 2), (2, 3)], 4, base=1)


def _one_direction_part():
    # part 1 blocks part 2 in every direction but +x, and part 3 blocks +x
    catalog, matrices = graph_product([(1, 2), (2, 3)], 3, base=1)
    x_if = matrices.interference_free
    x_if[1:, 0, 1] = 0
    x_if[0, 2, 1] = 0
    for j in range(3):
        x_if[j] &= x_if[j + 3].T
        x_if[j + 3] = x_if[j].T
    matrices.validate(catalog)
    return catalog, matrices


def _rearrange_products(case, request):
    """The (catalog, matrices) pairs of one cross-check case."""
    if case == "tower10":
        ds = request.getfixturevalue("tower10")
    elif case in ("tower36", "tower76"):
        ds = criterion12_tower({"tower36": 7, "tower76": 15}[case])
    elif case == "random-products":
        return [random_product(n, n)[:2] for n in range(1, 9)]
    else:
        return [{"all-free-chain": _all_free_chain,
                 "part-without-contacts": _part_without_contacts,
                 "one-direction-part": _one_direction_part}[case]()]
    return [(ds.catalog, ds.matrices)]


# seeds per case: every draw on the 76-part tower costs tens of ms in the
# reference loop
REARRANGE_SEEDS = {"tower10": 300, "tower36": 100, "tower76": 20,
                   "all-free-chain": 50, "part-without-contacts": 100,
                   "one-direction-part": 100, "random-products": 10}


class TestRearrangementReference:
    """fr/sfr draw for draw against the numpy prefix rescan in the oracle,
    with the generator left in the same state."""

    @pytest.mark.parametrize("case", REARRANGE_SEEDS)
    def test_draws_and_rng_state_match(self, case, request):
        for catalog, matrices in _rearrange_products(case, request):
            for fn, with_stability in ((fr_init, False), (sfr_init, True)):
                for seed in range(REARRANGE_SEEDS[case]):
                    rng = np.random.default_rng(seed)
                    ref_rng = np.random.default_rng(seed)
                    got = fn(catalog, matrices, rng)
                    want = oracle.rearrange_reference(matrices, ref_rng, 50,
                                                      with_stability)
                    assert got.tolist() == want.tolist(), (fn, seed)
                    assert rng.integers(2**62) == ref_rng.integers(2**62)

    def test_stranded_parts_without_contacts_draw_nothing(self):
        # no part touches another, so every term past position 1 fails
        # stability and none can be repaired: the start draw comes back
        catalog, matrices = graph_product([], 3)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            start_rng = np.random.default_rng(seed)
            start = start_rng.permutation(np.array(matrices.part_order))
            assert sfr_init(catalog, matrices, rng).tolist() == start.tolist()
            assert rng.integers(2**62) == start_rng.integers(2**62)

    def test_make_initializer_matches_direct_calls(self, tower10):
        for method, fn in (("fr", fr_init), ("sfr", sfr_init)):
            init = make_initializer(method, tower10.catalog, tower10.matrices)
            for seed in range(20):
                assert (init(np.random.default_rng(seed)) == fn(
                    tower10.catalog, tower10.matrices,
                    np.random.default_rng(seed))).all()


class TestRearrangementGoldenDigests:
    """Digests of fr/sfr draws and of an init-bench summary computed before
    the repair scanned bit masks; seeded outputs must not move."""

    @pytest.mark.parametrize("layers, draws, fn, digest", [
        (7, 200, fr_init, "bb83232e94f2d21b86d59811d93e188b"
                          "36fca3744b86c64e65e1dd11a4b37d9a"),
        (7, 200, sfr_init, "8c5bac50da9d4c2730a6e70084bd3331"
                           "d53ced173bd851a3eb6b6c237d808df3"),
        (15, 50, fr_init, "4e5a5bf661815c3c0b291bf8851dd39e"
                          "faa7ff55663e4920d167b735301236f7"),
        (15, 50, sfr_init, "999ce78eaf0b061f3748aceb1a7409e5"
                           "557a02c1ddfe82e1650c46f29508add7"),
    ])
    def test_draws(self, layers, draws, fn, digest):
        ds = criterion12_tower(layers)
        rng = np.random.default_rng(7)
        h = hashlib.sha256()
        for _ in range(draws):
            h.update(fn(ds.catalog, ds.matrices, rng).astype("<i8").tobytes())
        assert h.hexdigest() == digest

    def test_init_benchmark_summary(self):
        report = init_benchmark(criterion12_tower(7), trials=200, seed=3)
        assert hashlib.sha256(summary_csv(report).encode()).hexdigest() == (
            "5e45721c4a91335dfd074388510924c20d163be4f244c833d4cd36e14e4c7be2")


class TestCcgiGoldenDigests:
    """Digests of 200 ccgi draws and the next generator value, computed
    before the whole-graph layers and fixer lists were kept on the graph
    and single-item picks stopped calling the generator."""

    @pytest.mark.parametrize("layers, digest, after", [
        (7, "b7249b15d85c5cf3ef651c26672251f2"
            "2b4d09ede73a54de4fd55b5435c78b5a", 3687675650141883799),
        (15, "e80e6cf2334eb63bd51addff66f186e4"
             "f1021225e4a03e795240d4bcfce5ad05", 982605145615329110),
    ])
    def test_draws(self, layers, digest, after):
        ds = criterion12_tower(layers)
        graph = build_ccg(ds.catalog, ds.matrices)
        rng = np.random.default_rng(11)
        h = hashlib.sha256()
        for _ in range(200):
            h.update(ccgi_init(graph, rng).astype("<i8").tobytes())
        assert h.hexdigest() == digest
        assert rng.integers(2**62) == after
