import copy
import functools
import json
import operator
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    derive_constraint_degree,
    load_dataset,
    save_dataset,
)
from dsplan.nsga3 import MATING_METHODS, SELECTION_METHODS
from dsplan.objectives import OBJECTIVE_KEYS
from conftest import MALFORMED, make_tower


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "tower.json"
    save_dataset(make_tower(2, 1, seed=7), path)
    return path


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
                         "--out", str(tmp_path / "out")]) == 2
            assert (f"dataset error: cannot read {tmp_path}"
                    in capsys.readouterr().err)

    def test_dataset_error_invalid_content(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 1}')
        assert main(["validate", "--dataset", str(bad)]) == 2

    @pytest.mark.parametrize("command", ["validate", "plan"])
    def test_dataset_error_bad_com(self, dataset_file, tmp_path, command,
                                   capsys):
        doc = json.loads(dataset_file.read_text())
        doc["parts"][0]["com"] = [float("nan"), 0.0, 0.0]
        bad = tmp_path / "nan_com.json"
        bad.write_text(json.dumps(doc))
        args = [command, "--dataset", str(bad), "--out", str(tmp_path)]
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
        args = [command, "--dataset", str(bad), "--out", str(tmp_path)]
        assert main(args) == 2
        assert message in capsys.readouterr().err

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


SUBCOMMANDS = ("gen-synthetic", "plan", "init-bench", "ablate", "single-obj",
               "validate")


class TestBadArguments:
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_negative_seed_is_a_usage_error(self, dataset_file, tmp_path,
                                            capsys, command):
        inputs = {"gen-synthetic": ["--dataset-out", str(tmp_path / "t.json")],
                  "single-obj": ["--dataset", str(dataset_file),
                                 "--objective", "d"]}.get(
            command, ["--dataset", str(dataset_file)])
        assert main([command, *inputs, "--seed", "-1",
                     "--out", str(tmp_path / "out")]) == 1
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
        assert ("usage error: --methods names no initializer"
                in capsys.readouterr().err)
        assert not (tmp_path / "ib").exists()


class TestGenSynthetic:
    def test_writes_valid_dataset(self, tmp_path):
        out = tmp_path / "gen.json"
        code = main(["gen-synthetic", "--layers", "2", "--screws", "1",
                     "--seed", "3", "--dataset-out", str(out)])
        assert code == 0
        ds = load_dataset(out)
        assert len(ds.catalog) == 5

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"layers": 1, "screws": 0}))
        out = tmp_path / "gen.json"
        code = main(["gen-synthetic", "--config", str(cfg),
                     "--layers", "2", "--seed", "0",
                     "--dataset-out", str(out)])
        assert code == 0
        assert len(load_dataset(out).catalog) == 3  # layers overridden to 2

    @pytest.mark.parametrize("config, flags", [
        ('{"layers": 2', []),       # malformed JSON
        ("[2, 1]", []),             # valid JSON, but not an object
        ('{"layers": null}', []),
        ('{"clearance": "x"}', []),
        (None, ["--layers", "0"]),
        (None, ["--config", "no-such-dir/cfg.json"]),   # unreadable
        ('{"layer": 2}', []),       # misspelled setting
        (None, ["--angle", "nan"]),
        (None, ["--pitch", "nan"]),
        (None, ["--clearance=-inf"]),
        ('{"angle": 1e999}', []),   # JSON's overflow to inf
    ])
    def test_bad_settings_are_usage_errors(self, tmp_path, capsys, config,
                                           flags):
        if config is not None:
            (tmp_path / "cfg.json").write_text(config)
            flags = ["--config", str(tmp_path / "cfg.json"), *flags]
        code = main(["gen-synthetic", *flags, "--seed", "0",
                     "--dataset-out", str(tmp_path / "gen.json")])
        assert code == 1
        assert "usage error:" in capsys.readouterr().err
        assert not (tmp_path / "gen.json").exists()


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
                     "--mating", "random", "--parallel", "--seed", "4",
                     "--out", str(out)]) == 0
        config = json.loads((out / "plan_result.json").read_text())["config"]
        assert config == {
            "generations": 1, "iterations": 1, "pop_size": 8,
            "divisions": 3, "crossover_rate": 0.1, "mutation_rate": 0.2,
            "cut_paste_rate": 0.3, "break_join_rate": 0.4, "mode": "strict",
            "objectives": ["d", "a"], "init": "fr", "selection": "crowding",
            "mating": "random", "parallel": True, "seed": 4,
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

    def test_trials_overrides_iterations(self, dataset_file, tmp_path):
        # --trials is applied before the config is validated, so the 0
        # that it replaces is never seen
        assert main(["ablate", "--dataset", str(dataset_file), "--pop", "8",
                     "--generations", "1", "--iterations", "0",
                     "--trials", "2", "--seed", "3",
                     "--out", str(tmp_path)]) == 0
        csv = (tmp_path / "ablation_summary.csv").read_text()
        assert "proposed,2," in csv

    def test_out_dir_env_default(self, dataset_file, tmp_path, monkeypatch):
        monkeypatch.setenv("DSPLAN_OUT_DIR", str(tmp_path / "env_out"))
        assert main(["init-bench", "--dataset", str(dataset_file),
                     "--trials", "10", "--seed", "0",
                     "--methods", "ccgi"]) == 0
        assert (tmp_path / "env_out" / "init-bench_summary.csv").exists()


# the canonical 5-part tower document
_DOC = json.loads(dataset_to_json(make_tower(2, 1, seed=7)))


def _one_part_doc():
    x_cf = np.ones((12, 1, 1), dtype=np.uint8)
    matrices = RelationMatrices((1,), np.ones((6, 1, 1), dtype=np.uint8),
                                x_cf, np.zeros((1, 1), dtype=np.uint8),
                                derive_constraint_degree(x_cf))
    catalog = PartCatalog((Part(1, "block_plate_base", "plate", base=True),))
    return json.loads(dataset_to_json(
        Dataset(catalog, matrices, MotionTable((1,), {}))))


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
        assert main(["validate", *common]) == 0
        for mode in ("as-written", "strict"):
            capsys.readouterr()
            assert main(["plan", *common, "--mode", mode, "--pop", "8",
                         "--generations", "2", "--iterations", "1",
                         "--out", str(tmp_path / mode)]) == 0
            verdict = f"available: {str(available).lower()}"
            assert verdict in capsys.readouterr().out
        assert main(["init-bench", *common, "--trials", "10",
                     "--out", str(tmp_path / "bench")]) == 0


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


class TestEditedDocuments:
    @settings(max_examples=300, deadline=None)
    @given(edit=_EDITS)
    @_malformed_examples
    def test_loads_or_is_a_dataset_error(self, fuzz_dir, edit):
        """One edit of the canonical tower document either loads or raises
        a DatasetError, and ``validate`` exits 0 or 2; a MALFORMED edit
        must raise, with the text it returns."""
        doc = copy.deepcopy(_DOC)
        expected = edit(doc)
        with tempfile.TemporaryDirectory(dir=fuzz_dir) as tmp:
            path = Path(tmp) / "edited.json"
            path.write_text(json.dumps(doc))
            try:
                load_dataset(path)
            except DatasetError as exc:
                assert expected is None or expected in str(exc)
            else:
                assert expected is None
            assert main(["validate", "--dataset", str(path)]) in (0, 2)


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
        broken = (draw(st.sampled_from(breakable)) if draw(st.booleans())
                  else None)
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


_COMMON = (_Flag("--seed", st.integers(0, 2 ** 70), (-1, -3, "x")),
           _Flag("-v", st.booleans()))
_DATASET = _Flag("--dataset", st.just(DATASET),
                 (DATASET + "/missing.json", OUT, None), given=True)
_MODE = _Flag("--mode", _one_of(*MODES), ("bogus",))
_GA = (_Flag("--generations", st.integers(0, 3), (-1, "two"), given=True),
       _Flag("--iterations", st.integers(1, 2), (0, -1), given=True),
       # small sizes only: a population too large to fit is not bounded
       _Flag("--pop", st.integers(4, 16), (3, -1), given=True),
       _Flag("--divisions", st.integers(1, 8), (0, 1000)),
       _Flag("--rates", _one_of("0.9,0.3,0.2,0.2", "1,1,1,1", "0,0,0,0"),
             ("2,0,0,0", "nan,0,0,0", "0.5,0.5", "a,b,c,d")),
       _MODE,
       _Flag("--objectives", _one_of("d", "e", "d,a", "p,a", "d,e,p,a"),
             (",", "", "d,d", "x")),
       _Flag("--init", _one_of(*INIT_METHODS), ("nope",)),
       _Flag("--selection", _one_of(*SELECTION_METHODS), ("nope",)),
       _Flag("--mating", _one_of(*MATING_METHODS), ("nope",)),
       _Flag("--parallel", st.booleans()))
_TRIALS = _Flag("--trials", st.integers(1, 2), (0, -1))

_ARGV = st.one_of(
    _argv("gen-synthetic",
          _Flag("--layers", st.integers(1, 2), (0, -1), given=True),
          _Flag("--screws", st.integers(0, 4), (5, -1)),
          _Flag("--manual-fraction", _one_of(0, 0.5, 1), (2, "nan")),
          _Flag("--priority-count", st.integers(0, 1), (3, -1)),
          _Flag("--pitch", _one_of(1, 0.5), (0, -1, "nan")),
          _Flag("--clearance", _one_of(1, 3), (0.5, 0, "inf")),
          _Flag("--angle", _one_of(5, 20, 90, 720), (0, -5, "nan")),
          _Flag("--dataset-out", st.just(OUT + "/t.json"), (OUT, None),
                given=True),
          *_COMMON),
    _argv("plan", _DATASET, *_GA, *_COMMON),
    _argv("init-bench", _DATASET,
          _Flag("--methods", _one_of("ri", "fr,sfr", "ccgi", "ri,ri"),
                (",", "", "nope")),
          _Flag("--trials", st.integers(1, 20), (0, -1), given=True),
          _MODE, *_COMMON),
    _argv("ablate", _DATASET, _TRIALS, *_GA, *_COMMON),
    _argv("single-obj", _DATASET, _TRIALS,
          _Flag("--objective", _one_of(*OBJECTIVE_KEYS), ("z", None),
                given=True),
          *_GA, *_COMMON),
    _argv("validate", _DATASET, *_COMMON))


class TestArgvFuzz:
    @settings(max_examples=300, deadline=None)
    @given(argv=_ARGV)
    @example(argv=["plan", "--dataset", DATASET, "--seed", "-1",
                   "--pop", "8", "--generations", "1", "--iterations", "1"])
    @example(argv=["ablate", "--dataset", DATASET, "--objectives", "d",
                   "--pop", "8", "--generations", "1", "--iterations", "1"])
    @example(argv=["init-bench", "--dataset", DATASET, "--methods", ",",
                   "--trials", "5"])
    def test_every_argv_exits_0_1_or_2(self, dataset_file, fuzz_dir, argv):
        """A subcommand with small sizes and any mix of good and bad flag
        values exits 0, 1 or 2 and raises nothing."""
        with tempfile.TemporaryDirectory(dir=fuzz_dir) as tmp:
            argv = [a.replace(DATASET, str(dataset_file)).replace(OUT, tmp)
                    for a in argv]
            assert main([*argv, "--out", tmp]) in (0, 1, 2)
