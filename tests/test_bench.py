import hashlib
import re

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
from dsplan.objectives import evaluate


def small_cfg(seed=0, **kw):
    base = dict(pop_size=20, generations=8, iterations=3, divisions=4,
                seed=seed)
    base.update(kw)
    return GaConfig(**base)


class TestInitBenchmark:
    def test_zero_trials_rejected(self, tower5):
        with pytest.raises(ValueError):
            init_benchmark(tower5, trials=0)

    @pytest.mark.parametrize("trials", [2.0, True, np.int64(2), "2"])
    def test_trials_must_be_an_int(self, tower5, trials):
        with pytest.raises(ValueError, match="^trials must be an int, got "):
            init_benchmark(tower5, trials=trials)

    @pytest.mark.parametrize("seed, message", [
        (True, "seed must be an int, got True"),
        (1.5, "seed must be an int, got 1.5"),
        (np.int64(1), "seed must be an int, got np.int64(1)"),
        (-1, "seed must be >= 0, got -1"),
    ])
    def test_seed_rule_of_ga_config(self, tower5, seed, message):
        # True ran as seed 1; 1.5 and -1 failed inside numpy
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            init_benchmark(tower5, trials=2, seed=seed)

    def test_unknown_method_rejected(self, tower5):
        with pytest.raises(ValueError):
            init_benchmark(tower5, trials=5, methods=("zzz",))

    def test_no_method_rejected(self, tower5):
        with pytest.raises(ValueError, match="at least one initializer"):
            init_benchmark(tower5, trials=5, methods=())

    def test_repeated_method_rejected(self, tower5):
        # a report holds one row per method
        with pytest.raises(ValueError, match="initializer 'ri' is named "
                                             "twice"):
            init_benchmark(tower5, trials=5, methods=("ri", "ri"))

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
        monkeypatch.setattr(bench, "_DRAW_BLOCK", 7)
        report = init_benchmark(tower10, trials=20, seed=8)
        for row in report.rows:
            rng = np.random.default_rng([8, INIT_METHODS.index(row.method)])
            init = make_initializer(row.method, tower10.catalog,
                                    tower10.matrices)
            flags = [evaluate(init(rng), tower10) for _ in range(20)]
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

    def test_unknown_row_is_a_key_error(self, tower5):
        report = init_benchmark(tower5, trials=5, methods=("ri",))
        assert report.row("ri").trials == 5
        with pytest.raises(KeyError, match="nope"):
            report.row("nope")

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


class TestPlannerReportGoldenDigests:
    """sha256 of every file ``emit_report`` writes for an ablation and a
    single-objective report, computed before both ran through one runner.
    After two generations wo_ccgi's final populations are 100 % and 8.3 %
    available and its first ones 25 % and 8.3 %, so the digests read which
    generation the available rate comes from."""

    DIGESTS = {
        "ablation": {
            "ablation_summary.csv":
                "2fa1f1380be1eeb074ee3725a22c8986"
                "874189a73c48fb2d66ff3f7dde32d590",
            "ablation_summary.txt":
                "57ebd3eb05e7c1631768c0c397b2fb86"
                "39913a06491dcdaab91510c3a4a7f70b",
            "ablation_curve_proposed.csv":
                "e409b324d9807b0777ee0c411f692295"
                "3fc7f6d5511efd7d6ef0cbd4a463edbf",
            "ablation_curve_wo_ccgi.csv":
                "9ea78cf53732fe1534db439bac85f96f"
                "2d2d6b3c76f43876d5d956916aa16d23",
            "ablation_curve_wo_fa.csv":
                "9d3e60c935640239ec6f22d65a154829"
                "11fec80d12a6aaaf7381ecc18d44e521",
            "ablation_curve_wo_fd.csv":
                "7fb72901df03f496c140f8132f152fff"
                "d8e52e896bd4992df0e2fd26df5cd59c",
            "ablation_curve_wo_fe.csv":
                "65d96c9d29b5ab812bffe0a339c27afb"
                "902ce73cb454c0d4c5e900f18397242f",
            "ablation_curve_wo_fp.csv":
                "4d96ce2f05ba77e3d8c36eef958cf4f2"
                "bb3592f72cec5586ed76a51df6d3e2e0",
            "ablation_curve_wo_nsga3.csv":
                "5d914fc3fb45610144f6f09fbff8f40f"
                "e14c1632fc02eeab87ecb75be443271c",
        },
        "single-objective": {
            "single-objective_summary.csv":
                "ca359e611ccf5a27e9df74354789fc06"
                "8f3d9f05df26c51bf574ca379078bd0f",
            "single-objective_summary.txt":
                "852f8ca1f84dc1d75259020f2a300b27"
                "f268182a255f6df7d6d70736f611caa9",
            "single-objective_curve_w_e.csv":
                "4665ec49eef066790e22bd08090783e0"
                "e81501754877f56344f58e5e6ac22e9f",
        },
    }

    @pytest.mark.parametrize("kind", DIGESTS)
    def test_emitted_files(self, kind, tower10_labeled, tmp_path):
        cfg = small_cfg(seed=3, pop_size=12, generations=2, iterations=2)
        report = (ablation_run(tower10_labeled, cfg) if kind == "ablation"
                  else single_objective_run(tower10_labeled, cfg, "e"))
        paths = emit_report(report, tmp_path)
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in paths} == self.DIGESTS[kind]
