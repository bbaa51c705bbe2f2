import copy
import dataclasses
import errno
import functools
import json
import logging
import operator
import os
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracle
from dsplan import __version__, cli, geomsim, objectives
from dsplan.ccg import INIT_METHODS
from dsplan.cli import main
from dsplan.constraints import MODES
from dsplan.model import (
    Dataset,
    DatasetError,
    MotionTable,
    Part,
    PartCatalog,
    RelationMatrices,
    dataset_to_json,
    load_dataset,
    save_dataset,
)
from dsplan.nsga3 import MATING_METHODS, SELECTION_METHODS, GaConfig
from dsplan.objectives import OBJECTIVE_KEYS
from conftest import MALFORMED, make_tower, write_both


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "tower.json"
    save_dataset(make_tower(2, 1, seed=7), path)
    return path


# the commands that write a report directory, and so take --out
WRITERS = ("plan", "init-bench", "ablate", "single-obj")


def _out(command, path):
    """``--out path`` for a command that takes it, else nothing."""
    return ["--out", str(path)] if command in WRITERS else []


class TestExitCodes:
    def test_validate_ok(self, dataset_file, capsys):
        assert main(["validate", "--dataset", str(dataset_file)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_usage_error_missing_dataset(self):
        assert main(["plan"]) == 1

    def test_usage_error_unknown_flag(self, dataset_file):
        assert main(["validate", "--dataset", str(dataset_file),
                     "--bogus"]) == 1

    def test_usage_error_bad_rates(self, dataset_file, capsys):
        for rates in ("0.5,0.5", "a,b,c,d"):
            assert main(["plan", "--dataset", str(dataset_file),
                         "--rates", rates]) == 1
            assert "usage error:" in capsys.readouterr().err

    def test_usage_error_lattice_too_large(self, dataset_file, capsys):
        assert main(["plan", "--dataset", str(dataset_file),
                     "--divisions", "1000"]) == 1
        assert ("usage error: divisions 1000 over 4 objectives make "
                "167668501 reference points" in capsys.readouterr().err)

    def test_dataset_error_missing_file(self, tmp_path):
        assert main(["validate", "--dataset", str(tmp_path / "no.json")]) == 2

    def test_dataset_error_directory(self, tmp_path, capsys):
        # the path is read twice, for its digest and its content; neither
        # read may end in a traceback
        for command in ("validate", "plan"):
            assert main([command, "--dataset", str(tmp_path),
                         *_out(command, tmp_path / "out")]) == 2
            assert (f"dataset error: cannot read {tmp_path}"
                    in capsys.readouterr().err)

    def test_dataset_error_invalid_content(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 1}')
        assert main(["validate", "--dataset", str(bad)]) == 2

    def test_pretty_printed_copy_gives_the_same_verdict(
            self, dataset_file, tmp_path, capsys):
        # an indented file is not in the canonical layout, so it loads
        # through json.loads
        pretty = tmp_path / "pretty.json"
        pretty.write_text(json.dumps(json.loads(dataset_file.read_text()),
                                     indent=4))
        verdicts = []
        for path in (dataset_file, pretty):
            assert main(["validate", "--dataset", str(path)]) == 0
            verdicts.append(capsys.readouterr().out)
        assert verdicts[0] == verdicts[1] and verdicts[0].startswith("ok:")

    def test_dataset_error_constraint_degree_in_canonical_layout(
            self, dataset_file, tmp_path, capsys):
        # an x_cs entry that x_cf does not give, read from the arrays
        doc = json.loads(dataset_file.read_text())
        doc["x_cs"][0][1] += 1
        bad = write_both(doc, tmp_path)[1]
        assert main(["validate", "--dataset", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "dataset error: " in err and "x_cs" in err

    @pytest.mark.parametrize("command", ["validate", "plan"])
    def test_dataset_error_bad_com(self, dataset_file, tmp_path, command,
                                   capsys):
        doc = json.loads(dataset_file.read_text())
        doc["parts"][0]["com"] = [float("nan"), 0.0, 0.0]
        bad = tmp_path / "nan_com.json"
        bad.write_text(json.dumps(doc))
        args = [command, "--dataset", str(bad), *_out(command, tmp_path)]
        assert main(args) == 2
        assert "part 1: com" in capsys.readouterr().err

    @pytest.mark.parametrize("mutation", sorted(MALFORMED))
    @pytest.mark.parametrize("command", ["validate", "plan"])
    def test_dataset_error_malformed_field(self, dataset_file, tmp_path,
                                          command, mutation, capsys):
        doc = json.loads(dataset_file.read_text())
        message = MALFORMED[mutation](doc)
        bad = tmp_path / "malformed.json"
        bad.write_text(json.dumps(doc))
        args = [command, "--dataset", str(bad), *_out(command, tmp_path)]
        assert main(args) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["parts"][0].update(id=0) or doc,
         "part id must be >= 1, got 0"),
        (lambda doc: [], "top-level value must be an object"),
    ], ids=["part-id-0", "top-level-list"])
    def test_dataset_error_named(self, dataset_file, tmp_path, edit, message,
                                 capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edit(json.loads(dataset_file.read_text()))))
        assert main(["validate", "--dataset", str(bad)]) == 2
        assert f"dataset error: {message}" in capsys.readouterr().err

    def test_dataset_error_deep_nesting(self, dataset_file, tmp_path,
                                        capsys):
        doc = json.loads(dataset_file.read_text())
        doc["parts"][0]["eef"] = "deep"
        bad = tmp_path / "deep.json"
        bad.write_text(json.dumps(doc).replace(
            '"deep"', "[" * 100_000 + "]" * 100_000))
        assert main(["validate", "--dataset", str(bad)]) == 2
        assert "dataset error: not valid JSON" in capsys.readouterr().err

    def test_validate_rejects_disconnected_contact_graph(
            self, dataset_file, tmp_path, capsys):
        doc = json.loads(dataset_file.read_text())
        n = len(doc["x_ct"])
        doc["x_ct"] = [[0] * n for _ in range(n)]
        bad = tmp_path / "disconnected.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--dataset", str(bad)]) == 2
        err = capsys.readouterr().err
        first = doc["part_order"][0]
        unreachable = sorted(p for p in doc["part_order"] if p != first)
        assert (f"contact graph is disconnected; unreachable parts "
                f"{unreachable}") in err

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("argv, printed", [
        (["--version"], f"dsplan {__version__}"),
        (["-h"], "usage: dsplan"),
        (["plan", "-h"], "usage: dsplan plan"),
        (["validate", "--help"], "usage: dsplan validate")])
    def test_help_and_version_return_zero(self, argv, printed, capsys):
        assert main(argv) == 0
        assert printed in capsys.readouterr().out

    def test_dataset_error_unreadable_file(self, dataset_file, monkeypatch,
                                           capsys):
        # a file without read permission, which a process running as root
        # could still read
        def refuse(path):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES),
                                  str(path))
        monkeypatch.setattr(Path, "read_bytes", refuse)
        with pytest.raises(DatasetError) as err:
            load_dataset(dataset_file)
        assert str(err.value) == f"cannot read {dataset_file}: Permission denied"
        assert main(["validate", "--dataset", str(dataset_file)]) == 2
        assert (f"dataset error: cannot read {dataset_file}: Permission "
                "denied" in capsys.readouterr().err)


class TestBadArguments:
    @pytest.mark.parametrize("command", ("gen-synthetic", *WRITERS))
    def test_negative_seed_is_a_usage_error(self, dataset_file, tmp_path,
                                            capsys, command):
        inputs = {"gen-synthetic": ["--dataset-out", str(tmp_path / "t.json")],
                  "single-obj": ["--dataset", str(dataset_file),
                                 "--objective", "d"]}.get(
            command, ["--dataset", str(dataset_file)])
        assert main([command, *inputs, "--seed", "-1",
                     *_out(command, tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert ("usage error: argument --seed: must be a non-negative "
                "integer, got '-1'" in err)
        assert "Traceback" not in err
        assert not any(tmp_path.iterdir())

    def test_ablate_without_objectives_left(self, dataset_file, tmp_path,
                                            capsys):
        out = tmp_path / "a"
        assert main(["ablate", "--dataset", str(dataset_file),
                     "--objectives", "d", "--pop", "8", "--generations", "1",
                     "--iterations", "1", "--seed", "1",
                     "--out", str(out)]) == 1
        assert ("usage error: ablation variant wo_fd: objectives must be a "
                "non-empty subset" in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("methods", [",", ""])
    def test_init_bench_without_methods(self, dataset_file, tmp_path, capsys,
                                        methods):
        assert main(["init-bench", "--dataset", str(dataset_file),
                     "--methods", methods, "--trials", "5", "--seed", "1",
                     "--out", str(tmp_path / "ib")]) == 1
        assert ("usage error: methods must name at least one initializer"
                in capsys.readouterr().err)
        assert not (tmp_path / "ib").exists()

    def test_non_integer_pop_is_a_usage_error(self, dataset_file, tmp_path,
                                              capsys):
        assert main(["plan", "--dataset", str(dataset_file), "--pop", "two",
                     "--out", str(tmp_path / "out")]) == 1
        assert ("usage error: argument --pop: invalid int value: 'two'"
                in capsys.readouterr().err)
        assert not any(tmp_path.iterdir())

    def test_pool_sort_over_budget_is_a_usage_error(
            self, dataset_file, tmp_path, capsys, monkeypatch):
        # rejected from the count before the dataset is read or a
        # population is made
        def refuse(*args):
            raise AssertionError("ran before the config was checked")

        monkeypatch.setattr(cli, "load_dataset", refuse)
        monkeypatch.setattr(cli, "run", refuse)
        assert main(["plan", "--dataset", str(dataset_file), "--pop",
                     "20000", "--out", str(tmp_path / "out")]) == 1
        assert ("usage error: pop_size 20000 makes a pool sort of about "
                "4800000000 bytes" in capsys.readouterr().err)
        assert not any(tmp_path.iterdir())

    def test_pool_association_over_budget_is_a_usage_error(
            self, dataset_file, tmp_path, capsys, monkeypatch):
        # 98,770 reference points at 82 divisions; each of the pool sort and
        # the reference lattice alone fits, their association does not
        def refuse(*args):
            raise AssertionError("ran before the config was checked")

        monkeypatch.setattr(cli, "load_dataset", refuse)
        monkeypatch.setattr(cli, "run", refuse)
        assert main(["plan", "--dataset", str(dataset_file), "--pop", "9000",
                     "--divisions", "82", "--out", str(tmp_path / "out")]) == 1
        assert ("usage error: pop_size 9000 and 98770 reference points make a "
                "pool association of about 42668640000 bytes, more than "
                "1073741824" in capsys.readouterr().err)
        assert not any(tmp_path.iterdir())

    def test_init_bench_zero_trials(self, dataset_file, tmp_path, capsys,
                                    monkeypatch):
        def refuse(*args):
            raise AssertionError("loaded before the arguments were checked")

        monkeypatch.setattr(cli, "load_dataset", refuse)
        assert main(["init-bench", "--dataset", str(dataset_file),
                     "--trials", "0", "--out", str(tmp_path / "ib")]) == 1
        assert "usage error: trials must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "ib").exists()

    def test_init_bench_repeated_method(self, dataset_file, tmp_path, capsys):
        assert main(["init-bench", "--dataset", str(dataset_file),
                     "--methods", "ri,ccgi,ri", "--trials", "5", "--seed",
                     "1", "--out", str(tmp_path / "ib")]) == 1
        assert ("usage error: initializer 'ri' is named twice"
                in capsys.readouterr().err)
        assert not (tmp_path / "ib").exists()


def _removed(command, *flags):
    """A case of ``command`` with its required flags and the removed
    ``flags``, which it rejects as unrecognized."""
    required = {"gen-synthetic": ["--dataset-out", "t.json"],
                "single-obj": ["--dataset", "t.json", "--objective", "d"]}
    return pytest.param(
        [command, *required.get(command, ["--dataset", "t.json"]), *flags],
        " ".join(flags), id=f"{command} {flags[0]}")


class TestGenSynthetic:
    def test_writes_valid_dataset(self, tmp_path):
        out = tmp_path / "gen.json"
        code = main(["gen-synthetic", "--layers", "2", "--screws", "1",
                     "--seed", "3", "--dataset-out", str(out)])
        assert code == 0
        ds = load_dataset(out)
        assert len(ds.catalog) == 5

    def test_wide_clearance_and_angle(self, tmp_path):
        # a clearance of three cells reads the sweeps' first hits past step
        # one
        out = tmp_path / "wide.json"
        assert main(["gen-synthetic", "--layers", "2", "--screws", "1",
                     "--seed", "1", "--clearance", "3", "--angle", "20",
                     "--dataset-out", str(out)]) == 0
        assert main(["validate", "--dataset", str(out)]) == 0

    def test_workspace_over_the_cell_limit(self, tmp_path, capsys,
                                           monkeypatch):
        def no_cells(*args):
            raise AssertionError("cells made before the box was checked")

        monkeypatch.setattr(geomsim, "_cells_of", no_cells)
        out = tmp_path / "huge.json"
        assert main(["gen-synthetic", "--layers", "3000", "--screws", "4",
                     "--seed", "0", "--dataset-out", str(out)]) == 1
        assert ("usage error: generator settings: the occupied box "
                "(12006, 12006, 9002) needs a label grid of"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--layers", "0"],
        ["--angle", "nan"],
        ["--angle", "inf"],
        ["--pitch", "nan"],
        ["--clearance=-inf"],
        # a centre at this pitch is past the float range
        ["--layers", "1", "--pitch", "1e308"],
        # an int of any size passes argparse
        ["--priority-count", str(-2 ** 64)],
    ], ids=" ".join)
    def test_bad_settings_are_usage_errors(self, tmp_path, capsys, flags):
        code = main(["gen-synthetic", *flags, "--seed", "0",
                     "--dataset-out", str(tmp_path / "gen.json")])
        assert code == 1
        assert "usage error: generator settings:" in capsys.readouterr().err
        assert not (tmp_path / "gen.json").exists()

    def test_flag_defaults_are_the_library_defaults(self, tmp_path):
        out = tmp_path / "gen.json"
        assert main(["gen-synthetic", "--layers", "2", "--seed", "4",
                     "--dataset-out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == dataset_to_json(
            geomsim.build_dataset(*geomsim.generate_synthetic(2, seed=4)))

    @pytest.mark.parametrize("argv, unknown", [
        pytest.param(["gen-synthetic", "--config", "cfg.json",
                      "--dataset-out", "t.json"], "--config cfg.json",
                     id="gen-synthetic"),
        pytest.param(["ablate", "--dataset", "t.json", "--trials", "2"],
                     "--trials 2", id="ablate"),
        *[_removed(command, "-v")
          for command in ("gen-synthetic", *WRITERS, "validate")],
        *[_removed(command, "--parallel")
          for command in ("plan", "ablate", "single-obj")],
        _removed("validate", "--seed", "1"),
        _removed("validate", "--out", "out"),
        _removed("gen-synthetic", "--out", "out"),
        # single-obj runs its one --objective
        _removed("single-obj", "--objectives", "d,e"),
    ])
    def test_removed_flags_are_unrecognized(self, tmp_path, capsys,
                                            monkeypatch, argv, unknown):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text("{}")
        assert main(argv) == 1
        assert (f"usage error: unrecognized arguments: {unknown}\n"
                in capsys.readouterr().err)
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


class TestOutputErrors:
    """An output that cannot be written is an output error, exit 1."""

    def test_gen_synthetic_under_a_regular_file(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "t.json"
        code = main(["gen-synthetic", "--layers", "1", "--screws", "0",
                     "--seed", "0", "--dataset-out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"output error: [Errno 17] File exists: " \
               f"'{tmp_path / 'file'}'" in err
        assert "dataset error" not in err

    def test_gen_synthetic_onto_a_directory(self, tmp_path, capsys):
        code = main(["gen-synthetic", "--layers", "1", "--screws", "0",
                     "--seed", "0", "--dataset-out", str(tmp_path)])
        assert code == 1
        assert f"output error: [Errno 21] Is a directory: '{tmp_path}'" in (
            capsys.readouterr().err)

    def test_plan_out_under_a_regular_file(self, dataset_file, tmp_path,
                                           capsys):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "plan"
        code = main(["plan", "--dataset", str(dataset_file), "--pop", "8",
                     "--generations", "1", "--iterations", "1", "--seed", "1",
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "output error: [Errno 20] Not a directory: " in err
        assert str(out) in err and "dataset error" not in err


class TestPlan:
    def test_outputs_and_determinism(self, dataset_file, tmp_path):
        args = ["plan", "--dataset", str(dataset_file), "--pop", "16",
                "--generations", "5", "--iterations", "1", "--seed", "42"]
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert main(args + ["--out", str(d1)]) == 0
        assert main(args + ["--out", str(d2)]) == 0
        for name in ("plan_result.txt", "plan_result.json", "history.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_result_text_shows_removal_order(self, dataset_file, tmp_path,
                                             capsys):
        out = tmp_path / "r"
        main(["plan", "--dataset", str(dataset_file), "--pop", "12",
              "--generations", "2", "--iterations", "1", "--seed", "1",
              "--out", str(out)])
        text = (out / "plan_result.txt").read_text()
        assert "removal_order:" in text
        assert "position 1" in text          # convention header
        assert "seed: 1" in text
        captured = capsys.readouterr().out
        assert "removal_order:" in captured

    def test_objective_subset_flag(self, dataset_file, tmp_path):
        out = tmp_path / "r"
        code = main(["plan", "--dataset", str(dataset_file), "--pop", "12",
                     "--generations", "2", "--iterations", "1",
                     "--seed", "2", "--objectives", "d,e",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "plan_result.json").read_text())
        assert doc["config"]["objectives"] == ["d", "e"]

    def test_every_ga_flag_sets_its_config_field(self, dataset_file,
                                                 tmp_path):
        out = tmp_path / "r"
        assert main(["plan", "--dataset", str(dataset_file),
                     "--generations", "1", "--iterations", "1", "--pop", "8",
                     "--divisions", "3", "--rates", "0.1,0.2,0.3,0.4",
                     "--mode", "strict", "--objectives", "d,a",
                     "--init", "fr", "--selection", "crowding",
                     "--mating", "random", "--seed", "4",
                     "--out", str(out)]) == 0
        config = json.loads((out / "plan_result.json").read_text())["config"]
        assert config == {
            "generations": 1, "iterations": 1, "pop_size": 8,
            "divisions": 3, "crossover_rate": 0.1, "mutation_rate": 0.2,
            "cut_paste_rate": 0.3, "break_join_rate": 0.4, "mode": "strict",
            "objectives": ["d", "a"], "init": "fr", "selection": "crowding",
            "mating": "random", "parallel": False, "seed": 4,
            "adaptive_normalize": False}


class TestBenchCommands:
    def test_init_bench_csv(self, dataset_file, tmp_path, capsys):
        code = main(["init-bench", "--dataset", str(dataset_file),
                     "--trials", "40", "--seed", "5",
                     "--methods", "ri,ccgi", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("method,trials,feasible_rate")
        csv = (tmp_path / "init-bench_summary.csv").read_text()
        assert "ccgi,40," in csv

    def test_init_bench_rejects_bad_method(self, dataset_file, tmp_path):
        assert main(["init-bench", "--dataset", str(dataset_file),
                     "--methods", "nope", "--out", str(tmp_path)]) == 1

    def test_ablate_and_single_obj(self, dataset_file, tmp_path):
        common = ["--dataset", str(dataset_file), "--pop", "12",
                  "--generations", "3", "--iterations", "2",
                  "--divisions", "3", "--seed", "3"]
        assert main(["ablate", *common, "--out", str(tmp_path / "a")]) == 0
        assert (tmp_path / "a" / "ablation_summary.csv").exists()
        assert main(["single-obj", *common, "--objective", "p",
                     "--out", str(tmp_path / "s")]) == 0
        csv = (tmp_path / "s" / "single-objective_summary.csv").read_text()
        assert "w_p," in csv

    def test_single_obj_logs_the_config_it_runs(self, dataset_file,
                                                 tmp_path, caplog):
        # 200 divisions make 1,373,701 points over four objectives, too
        # many, and one point over the one objective that runs
        caplog.set_level(logging.INFO)
        assert main(["single-obj", "--dataset", str(dataset_file),
                     "--objective", "p", "--pop", "8", "--generations", "1",
                     "--iterations", "1", "--divisions", "200", "--seed", "2",
                     "--out", str(tmp_path)]) == 0
        cfg = GaConfig(pop_size=8, generations=1, iterations=1,
                       divisions=200, seed=2, objectives=("p",))
        assert [r.getMessage() for r in caplog.records
                if r.getMessage().startswith("config ")] == [
            f"config {dataclasses.asdict(cfg)}"]

    def test_out_dir_env_default(self, dataset_file, tmp_path, monkeypatch):
        monkeypatch.setenv("DSPLAN_OUT_DIR", str(tmp_path / "env_out"))
        assert main(["init-bench", "--dataset", str(dataset_file),
                     "--trials", "10", "--seed", "0",
                     "--methods", "ccgi"]) == 0
        assert (tmp_path / "env_out" / "init-bench_summary.csv").exists()


# the canonical 5-part tower document
_DOC = json.loads(dataset_to_json(make_tower(2, 1, seed=7)))


def _one_part_doc():
    matrices = RelationMatrices((1,), np.ones((6, 1, 1), dtype=np.uint8),
                                np.ones((12, 1, 1), dtype=np.uint8),
                                np.zeros((1, 1), dtype=np.uint8))
    catalog = PartCatalog((Part(1, "block_plate_base", "plate", base=True),))
    return json.loads(dataset_to_json(
        Dataset(catalog, matrices, MotionTable({}))))


def _all_x_if_blocked_doc():
    doc = copy.deepcopy(_DOC)
    doc["x_if"] = [[[0] * len(row) for row in layer] for layer in doc["x_if"]]
    return doc


def _no_motions_doc():
    doc = copy.deepcopy(_DOC)
    doc["motions"] = {}
    return doc


class TestDegenerateProducts:
    """Products with one part, with no part free to move, or with no
    candidate motion run every command to a verdict."""

    @pytest.mark.parametrize("make_doc, available", [
        (_one_part_doc, True),
        (_all_x_if_blocked_doc, False),
        (_no_motions_doc, False),
    ])
    def test_commands_exit_zero(self, tmp_path, capsys, make_doc, available):
        path = tmp_path / "product.json"
        path.write_text(json.dumps(make_doc()))
        common = ["--dataset", str(path), "--seed", "1"]
        assert main(["validate", "--dataset", str(path)]) == 0
        for mode in ("as-written", "strict"):
            capsys.readouterr()
            assert main(["plan", *common, "--mode", mode, "--pop", "8",
                         "--generations", "2", "--iterations", "1",
                         "--out", str(tmp_path / mode)]) == 0
            verdict = f"available: {str(available).lower()}"
            assert verdict in capsys.readouterr().out
        assert main(["init-bench", *common, "--trials", "10",
                     "--out", str(tmp_path / "bench")]) == 0

    @pytest.mark.parametrize("mode", MODES)
    def test_unavailable_champion_is_warned(self, tmp_path, caplog, mode):
        # no part can leave along any translation, so the champion fails
        # and the warning names the oracle's first violation
        ds = make_tower(3, 2, seed=3)
        ds = ds._replace(matrices=dataclasses.replace(
            ds.matrices,
            interference_free=np.zeros_like(ds.matrices.interference_free)))
        path = tmp_path / "blocked.json"
        save_dataset(ds, path)
        out = tmp_path / mode
        assert main(["plan", "--dataset", str(path), "--mode", mode,
                     "--pop", "8", "--generations", "3", "--iterations", "2",
                     "--seed", "4", "--out", str(out)]) == 0
        result = json.loads((out / "plan_result.json").read_text())
        best = result["best_sequence"]
        order = list(ds.matrices.part_order)
        criterion, position = oracle.first_violation(
            [order.index(pid) for pid in best], oracle.extract(ds), mode)
        rate = result["history"][-1]["available_rate"]
        warnings = [r.getMessage() for r in caplog.records
                    if r.levelno == logging.WARNING]
        assert warnings == [
            f"champion unavailable: {criterion} fails at storage position "
            f"{position} (part {best[position - 1]}); final population "
            f"available_rate {rate:.4f}%"]

    def test_available_champion_is_not_warned(self, dataset_file, tmp_path,
                                              caplog):
        assert main(["plan", "--dataset", str(dataset_file), "--pop", "8",
                     "--generations", "2", "--iterations", "1", "--seed",
                     "1", "--out", str(tmp_path)]) == 0
        assert "available: true" in (tmp_path / "plan_result.txt").read_text()
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


def _paths(value, path=()):
    if isinstance(value, (dict, list)):
        keys = value if isinstance(value, dict) else range(len(value))
        for key in keys:
            yield path + (key,)
            yield from _paths(value[key], path + (key,))


def _at(doc, path):
    return functools.reduce(operator.getitem, path, doc)


_PATHS = list(_paths(_DOC))
_LIST_PATHS = [p for p in _PATHS if isinstance(_at(_DOC, p), list)]


class _Edit(NamedTuple):
    """Drop the value at ``path``, replace it with ``value`` ("set"), or
    append a copy of a list's last item or remove it ("grow"/"shrink")."""

    path: tuple
    op: str
    value: object = None

    def __call__(self, doc) -> None:
        parent, key = _at(doc, self.path[:-1]), self.path[-1]
        if self.op == "drop":
            del parent[key]
        elif self.op == "set":
            parent[key] = self.value
        elif self.op == "grow":
            parent[key].append(copy.deepcopy(parent[key][-1])
                               if parent[key] else 0)
        elif parent[key]:
            parent[key].pop()


_EDITS = st.one_of(
    st.builds(_Edit, st.sampled_from(_PATHS), st.just("drop")),
    st.builds(_Edit, st.sampled_from(_PATHS), st.just("set"),
              st.sampled_from([None, True, "1", [], {}, 10**20,
                               float("nan")])),
    st.builds(_Edit, st.sampled_from(_LIST_PATHS),
              st.sampled_from(["grow", "shrink"])))


def _malformed_examples(test):
    for name in sorted(MALFORMED):
        test = example(edit=MALFORMED[name])(test)
    return test


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _validate_and_plan(path, out) -> tuple[int, int]:
    """The exit codes of ``validate`` and of a one-generation ``plan`` on
    the dataset file ``path``; they must agree."""
    return (main(["validate", "--dataset", str(path)]),
            main(["plan", "--dataset", str(path), "--generations", "1",
                  "--iterations", "1", "--pop", "4", "--seed", "0",
                  "--out", str(out)]))


class TestEditedDocuments:
    @settings(max_examples=300, deadline=None)
    @given(edit=_EDITS)
    @_malformed_examples
    def test_loads_or_is_a_dataset_error(self, fuzz_dir, edit):
        """One edit of the canonical tower document either loads or raises
        a DatasetError, and ``validate`` exits 0 or 2; a MALFORMED edit
        must raise, with the text it returns.  Its canonical rendering
        loads or fails alike, and ``plan`` exits as ``validate`` does."""
        doc = copy.deepcopy(_DOC)
        expected = edit(doc)
        with tempfile.TemporaryDirectory(dir=fuzz_dir) as tmp:
            # the canonical rendering must load as the json.loads path does
            paths = write_both(doc, tmp)
            try:
                load_dataset(paths[0])
            except DatasetError as exc:
                assert expected is None or expected in str(exc)
            else:
                assert expected is None
            codes = (main(["validate", "--dataset", str(paths[0])]),
                     *_validate_and_plan(paths[1], Path(tmp) / "out"))
            assert codes[0] in (0, 2) and codes == (codes[0],) * 3

    @pytest.mark.parametrize("pitch", [1.0, 1e-200, 1e300, 2.0 ** -700,
                                       2.0 ** 900])
    def test_generator_products_plan(self, tmp_path, pitch):
        # at 1e-200 and 1e300 the squared centre distances leave the float
        # range in input units
        path = tmp_path / "tower.json"
        assert main(["gen-synthetic", "--layers", "3", "--manual-fraction",
                     "0.34", "--priority-count", "1", "--seed", "3",
                     "--pitch", repr(pitch), "--dataset-out", str(path)]) == 0
        assert _validate_and_plan(path, tmp_path / "out") == (0, 0)

    @pytest.mark.parametrize("spare, code", [(0, 0), (-1, 2)])
    def test_weight_budget(self, dataset_file, tmp_path, monkeypatch, capsys,
                           spare, code):
        _, matrices, motions = load_dataset(dataset_file)
        n = matrices.n
        most = max(map(motions.count, matrices.part_order))
        monkeypatch.setattr(objectives, "MAX_POOL_BYTES",
                            4 * n * n * (most + 8) + spare)
        assert _validate_and_plan(dataset_file, tmp_path) == (code, code)
        assert capsys.readouterr().err.count("weights of") == 2 * (code == 2)


# placeholders that the argv fuzz replaces by real paths
DATASET, OUT = "<dataset>", "<out>"


class _Flag(NamedTuple):
    """One flag of the argv fuzz: a strategy for its good values and a list
    of bad ones, where None leaves the flag out.  A ``given`` flag is
    always passed a value, because its default is a full-length run."""

    name: str
    good: st.SearchStrategy
    bad: tuple = ()
    given: bool = False


def _argv(command, *flags):
    """Argv of ``command``: every flag good, or one flag bad."""
    breakable = [f for f in flags if f.bad]

    @st.composite
    def build(draw):
        broken = (draw(st.sampled_from(breakable))
                  if breakable and draw(st.booleans()) else None)
        argv = [command]
        for flag in flags:
            if flag is broken:
                value = draw(st.sampled_from(flag.bad))
            elif flag.given or draw(st.booleans()):
                value = draw(flag.good)
            else:
                value = None
            # a switch draws True or False; 0 is a value, not False
            if value is True:
                argv.append(flag.name)
            elif value is not None and value is not False:
                argv += [flag.name, str(value)]
        return argv
    return build()


def _one_of(*values):
    return st.sampled_from(values)


_SEED = _Flag("--seed", st.integers(0, 2 ** 70), (-1, -3, "x"))
# always given: the default is the working directory
_OUT = _Flag("--out", st.just(OUT), given=True)
# help, or a subcommand's unknown --version, ends the command before it
# runs, so each is drawn rarely
_COMMON = (_Flag("-h", _one_of(False, False, False, True)),
           _Flag("--version", _one_of(False, False, False, True)))
_DATASET = _Flag("--dataset", st.just(DATASET),
                 (DATASET + "/missing.json", OUT, None), given=True)
_MODE = _Flag("--mode", _one_of(*MODES), ("bogus",))
_GA = (_Flag("--generations", st.integers(0, 3), (-1, "two"), given=True),
       _Flag("--iterations", st.integers(1, 2), (0, -1), given=True),
       # small sizes only: a population too large to sort is rejected
       # before a run, which TestBadArguments tests without allocating it
       _Flag("--pop", st.integers(4, 16), (3, -1), given=True),
       _Flag("--divisions", st.integers(1, 8), (0, 1000)),
       _Flag("--rates", _one_of("0.9,0.3,0.2,0.2", "1,1,1,1", "0,0,0,0"),
             ("2,0,0,0", "nan,0,0,0", "0.5,0.5", "a,b,c,d")),
       _MODE,
       _Flag("--init", _one_of(*INIT_METHODS), ("nope",)),
       _Flag("--selection", _one_of(*SELECTION_METHODS), ("nope",)),
       _Flag("--mating", _one_of(*MATING_METHODS), ("nope",)))
_OBJECTIVES = _Flag("--objectives",
                    _one_of("d", "e", "d,a", "p,a", "d,e,p,a"),
                    (",", "", "d,d", "x"))

_GENERATOR = (
    _Flag("--layers", st.integers(1, 2), (0, -1), given=True),
    _Flag("--screws", st.integers(0, 4), (5, -1)),
    _Flag("--manual-fraction", _one_of(0, 0.5, 1), (2, "nan")),
    _Flag("--priority-count", st.integers(0, 1), (3, -1)),
    _Flag("--pitch", _one_of(1, 0.5), (0, -1, "nan", "1e308")),
    _Flag("--clearance", _one_of(1, 3), (0.5, 0, "inf")),
    _Flag("--angle", _one_of(5, 20, 90, 720), (0, -5, "nan", "inf")),
    _Flag("--dataset-out", st.just(OUT + "/t.json"), (OUT, None),
          given=True),
    _SEED)
# pitches whose squared centre distances leave the float range in input
# units, and powers of two, which scale f_e exactly
_PITCHES = (1, 1e-200, 1e300, 2.0 ** -700, 2.0 ** 900)

_ARGV = st.one_of(
    _argv("gen-synthetic", *_GENERATOR, *_COMMON),
    _argv("plan", _DATASET, *_GA, _OBJECTIVES, _SEED, _OUT, *_COMMON),
    _argv("init-bench", _DATASET,
          _Flag("--methods", _one_of("ri", "fr,sfr", "ccgi", "ri,ccgi"),
                (",", "", "nope", "ri,ri")),
          _Flag("--trials", st.integers(1, 20), (0, -1), given=True),
          _MODE, _SEED, _OUT, *_COMMON),
    _argv("ablate", _DATASET, *_GA, _OBJECTIVES, _SEED, _OUT, *_COMMON),
    _argv("single-obj", _DATASET,
          _Flag("--objective", _one_of(*OBJECTIVE_KEYS), ("z", None),
                given=True),
          *_GA, _SEED, _OUT, *_COMMON),
    _argv("validate", _DATASET, *_COMMON))
# gen-synthetic with good values only; --pitch is always given, from its
# good values or the ladder
_PRODUCTS = _argv("gen-synthetic", *(
    flag._replace(bad=(), given=True,
                  good=st.one_of(flag.good, _one_of(*_PITCHES)))
    if flag.name == "--pitch" else flag._replace(bad=())
    for flag in _GENERATOR))


class TestArgvFuzz:
    @settings(max_examples=300, deadline=None)
    @given(argv=_ARGV)
    @example(argv=["plan", "--dataset", DATASET, "--seed", "-1",
                   "--pop", "8", "--generations", "1", "--iterations", "1",
                   "--out", OUT])
    @example(argv=["ablate", "--dataset", DATASET, "--objectives", "d",
                   "--pop", "8", "--generations", "1", "--iterations", "1",
                   "--out", OUT])
    @example(argv=["init-bench", "--dataset", DATASET, "--methods", ",",
                   "--trials", "5", "--out", OUT])
    @example(argv=["init-bench", "--dataset", DATASET, "--methods", "ri,ri",
                   "--trials", "5", "--out", OUT])
    @example(argv=["--version"])
    @example(argv=["plan", "--dataset", DATASET, "-h"])
    def test_every_argv_exits_0_1_or_2(self, dataset_file, fuzz_dir, argv):
        """A subcommand with small sizes and any mix of good and bad flag
        values exits 0, 1 or 2 and raises nothing."""
        with tempfile.TemporaryDirectory(dir=fuzz_dir) as tmp:
            argv = [a.replace(DATASET, str(dataset_file)).replace(OUT, tmp)
                    for a in argv]
            assert main(argv) in (0, 1, 2)

    @settings(max_examples=25, deadline=None)
    @given(argv=_PRODUCTS)
    @example(argv=["gen-synthetic", "--layers", "2", "--pitch", "1e300",
                   "--dataset-out", OUT + "/t.json"])
    def test_generator_products_are_judged_alike(self, fuzz_dir, argv):
        """``validate`` and a one-generation ``plan`` exit alike on every
        product that ``gen-synthetic`` writes from good flag values."""
        with tempfile.TemporaryDirectory(dir=fuzz_dir) as tmp:
            argv = [a.replace(OUT, tmp) for a in argv]
            assume(main(argv) == 0)
            codes = _validate_and_plan(Path(tmp) / "t.json", Path(tmp))
            assert codes[0] == codes[1]
