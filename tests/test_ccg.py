import itertools
from collections import Counter

import numpy as np
import pytest

import oracle
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
    Motion,
    MotionTable,
    Part,
    PartCatalog,
    RelationMatrices,
    derive_constraint_degree,
)
from dsplan.objectives import Evaluator
from conftest import make_tower
from test_constraints import chain_product


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
            flags = ev.flags_idx(ev.to_indices(seq))
            assert flags.stable
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
