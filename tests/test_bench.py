import numpy as np
import pytest

from dsplan import bench
from dsplan.bench import (
    ABLATION_VARIANTS,
    ablation_run,
    ablation_variant_config,
    emit_report,
    init_benchmark,
    single_objective_run,
)
from dsplan.ccg import INIT_METHODS, make_initializer
from dsplan.nsga3 import GaConfig
from dsplan.objectives import check


def small_cfg(seed=0, **kw):
    base = dict(pop_size=20, generations=8, iterations=3, divisions=4,
                seed=seed)
    base.update(kw)
    return GaConfig(**base)


class TestInitBenchmark:
    def test_zero_trials_rejected(self, tower5):
        with pytest.raises(ValueError):
            init_benchmark(tower5, trials=0)

    def test_unknown_method_rejected(self, tower5):
        with pytest.raises(ValueError):
            init_benchmark(tower5, trials=5, methods=("zzz",))

    def test_no_method_rejected(self, tower5):
        with pytest.raises(ValueError, match="at least one initializer"):
            init_benchmark(tower5, trials=5, methods=())

    def test_ccgi_perfectly_stable(self, tower10):
        report = init_benchmark(tower10, trials=300, methods=("ccgi",),
                                seed=4)
        row = report.row("ccgi")
        assert row.stable_rate == 100.0
        assert row.available_rate == 100.0

    def test_ri_below_ccgi(self, tower10):
        report = init_benchmark(tower10, trials=300, methods=("ri", "ccgi"),
                                seed=5)
        assert report.row("ri").available_rate < report.row(
            "ccgi").available_rate

    def test_counts_are_exact_rationals(self, tower5):
        report = init_benchmark(tower5, trials=160, seed=6)
        for row in report.rows:
            feas, stab, avail = row.counts
            assert row.feasible_rate == pytest.approx(100.0 * feas / 160)
            assert row.stable_rate == pytest.approx(100.0 * stab / 160)
            assert row.available_rate == pytest.approx(100.0 * avail / 160)

    def test_block_scoring_matches_per_draw_flags(self, tower10,
                                                  monkeypatch):
        # blocks of 7 rows, so the last block of the 20 trials is partial
        monkeypatch.setattr(bench, "_SCORE_BLOCK", 7)
        report = init_benchmark(tower10, trials=20, seed=8)
        for row in report.rows:
            rng = np.random.default_rng([8, INIT_METHODS.index(row.method)])
            init = make_initializer(row.method, tower10.catalog,
                                    tower10.matrices)
            flags = [check(init(rng), tower10) for _ in range(20)]
            assert row.counts == (
                sum(f.order_feasible and f.motion_feasible for f in flags),
                sum(f.stable for f in flags),
                sum(f.available for f in flags))

    def test_method_subsets_reproduce_rows(self, tower5):
        full = init_benchmark(tower5, trials=100, seed=7)
        only = init_benchmark(tower5, trials=100, methods=("sfr",), seed=7)
        assert only.row("sfr").counts == full.row("sfr").counts


class TestAblation:
    def test_variant_configs(self):
        base = small_cfg()
        assert ablation_variant_config(base, "wo_ccgi").init == "fr"
        assert ablation_variant_config(base, "wo_nsga3").selection == "crowding"
        assert ablation_variant_config(base, "wo_fd").objectives == (
            "e", "p", "a")
        with pytest.raises(ValueError):
            ablation_variant_config(base, "wo_zz")

    def test_unrunnable_variant_rejected_before_any_run(self, tower5,
                                                        monkeypatch):
        # wo_fd of a d-only config has no objective left
        runs = []
        monkeypatch.setattr(bench, "run", lambda *args: runs.append(args))
        with pytest.raises(ValueError, match="ablation variant wo_fd: "
                           "objectives must be a non-empty subset"):
            ablation_run(tower5, small_cfg(objectives=("d",)))
        assert runs == []

    def test_report_structure_and_determinism(self, tower10_labeled):
        r1 = ablation_run(tower10_labeled, small_cfg(seed=3))
        r2 = ablation_run(tower10_labeled, small_cfg(seed=3))
        assert [row.method for row in r1.rows] == list(ABLATION_VARIANTS)
        for a, b in zip(r1.rows, r2.rows):
            assert a.obj_mean == b.obj_mean
            assert a.normalized_sigma == b.normalized_sigma
        for row in r1.rows:
            assert len(row.obj_mean) == 4
            assert row.trials == 3
            assert row.normalized_sigma is not None

    def test_proposed_at_least_wo_ccgi(self, tower10_labeled):
        report = ablation_run(tower10_labeled, small_cfg(seed=1))
        assert (report.row("proposed").available_rate
                >= report.row("wo_ccgi").available_rate)


class TestSingleObjective:
    def test_four_values_reported(self, tower10_labeled):
        report = single_objective_run(tower10_labeled, small_cfg(seed=2), "d")
        row = report.row("w_d")
        assert len(row.obj_mean) == 4
        assert len(row.obj_sd) == 4

    def test_bad_objective_rejected(self, tower5):
        with pytest.raises(ValueError):
            single_objective_run(tower5, small_cfg(), "x")


class TestEmitReport:
    def test_init_bench_csv_schema(self, tower5, tmp_path):
        report = init_benchmark(tower5, trials=50, seed=8)
        paths = emit_report(report, tmp_path)
        csv = (tmp_path / "init-bench_summary.csv").read_text()
        lines = csv.strip().splitlines()
        assert lines[0] == ("method,trials,feasible_rate,stable_rate,"
                            "available_rate")
        assert len(lines) == 5
        for line in lines[1:]:
            method, trials, f, s, a = line.split(",")
            assert method in ("ri", "fr", "sfr", "ccgi")
            assert int(trials) == 50
            assert 0.0 <= float(f) <= 100.0

    def test_history_curves_ten_columns(self, tower5, tmp_path):
        report = single_objective_run(tower5, small_cfg(seed=4,
                                                        iterations=2), "e")
        emit_report(report, tmp_path)
        curve = (tmp_path / "single-objective_curve_w_e.csv").read_text()
        lines = curve.strip().splitlines()
        assert lines[0].count(",") == 9
        for line in lines:
            assert line.count(",") == 9
        assert len(lines) == 1 + 2 * 9   # header + iterations x (gens+1)

    def test_round_trip_parse(self, tower5, tmp_path):
        report = init_benchmark(tower5, trials=40, seed=9)
        emit_report(report, tmp_path)
        csv = (tmp_path / "init-bench_summary.csv").read_text()
        reparsed = [line.split(",") for line in csv.strip().splitlines()[1:]]
        for row, parsed in zip(report.rows, reparsed):
            assert parsed[0] == row.method
            assert float(parsed[4]) == pytest.approx(row.available_rate,
                                                     abs=1e-4)

    def test_emitted_bytes_deterministic(self, tower5, tmp_path):
        r1 = init_benchmark(tower5, trials=30, seed=10)
        r2 = init_benchmark(tower5, trials=30, seed=10)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        emit_report(r1, d1)
        emit_report(r2, d2)
        for p1, p2 in zip(sorted(d1.iterdir()), sorted(d2.iterdir())):
            assert p1.read_bytes() == p2.read_bytes()

    def test_text_summary_contains_provenance(self, tower5, tmp_path):
        report = init_benchmark(tower5, trials=30, seed=11)
        emit_report(report, tmp_path)
        text = (tmp_path / "init-bench_summary.txt").read_text()
        assert "seed: 11" in text
        assert "sha256:" in text
