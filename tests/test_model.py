import dataclasses
import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from dsplan import model
from dsplan.geomsim import VoxelAssembly, build_dataset, generate_synthetic
from dsplan.model import (
    Dataset,
    MissingTaskLabel,
    Motion,
    MotionTable,
    Part,
    PartCatalog,
    RelationMatrices,
    SchemaError,
    TransposeViolation,
    ValidationError,
    dataset_to_json,
    load_dataset,
    parse_labels,
    removal_order,
    save_dataset,
)
from dsplan.objectives import Evaluator, evaluate
from conftest import (
    MALFORMED,
    canonical_text,
    load_both,
    load_outcome,
    make_tower,
)


class TestParseLabels:
    def test_manual_value(self):
        labels = parse_labels("motor_manual_value")
        assert labels.task == "manual"
        assert labels.priority
        assert not labels.base and not labels.ignore
        assert labels.unknown == ("motor",)

    def test_base_token(self):
        labels = parse_labels("base_plate_base_plate")
        assert labels.base
        assert labels.task == "plate"

    def test_ignore(self):
        labels = parse_labels("spacer_ignore_graspable")
        assert labels.ignore
        assert labels.task == "graspable"

    def test_missing_task(self):
        with pytest.raises(MissingTaskLabel):
            parse_labels("motor_value")
        with pytest.raises(MissingTaskLabel):
            parse_labels("")

    def test_conflicting_task_tokens_surface_in_unknown(self):
        labels = parse_labels("plate_screw")
        assert labels.task == "plate"
        assert "screw" in labels.unknown

    @given(st.lists(st.sampled_from(
        ["screw", "bolt", "plate", "graspable", "manual", "value",
         "base", "ignore", "shaft", "x12"]), min_size=1, max_size=6))
    def test_token_roundtrip(self, tokens):
        name = "_".join(tokens)
        task_tokens = [t for t in tokens
                       if t in ("screw", "bolt", "plate", "graspable",
                                "manual", "nut")]
        if not task_tokens:
            with pytest.raises(MissingTaskLabel):
                parse_labels(name)
            return
        labels = parse_labels(name)
        assert labels.task == task_tokens[0]
        assert labels.priority == ("value" in tokens)
        assert labels.base == ("base" in tokens)
        assert labels.ignore == ("ignore" in tokens)


class TestCatalog:
    def test_ids_must_be_contiguous(self):
        parts = (Part(1, "a_screw", "screw"), Part(3, "b_screw", "screw"))
        with pytest.raises(ValidationError):
            PartCatalog(parts)

    def test_single_base(self):
        parts = (Part(1, "a_plate_base", "plate", base=True),
                 Part(2, "b_plate_base", "plate", base=True))
        with pytest.raises(ValidationError):
            PartCatalog(parts)

    def test_non_ignored_excludes_ignore(self):
        parts = (Part(1, "a_plate", "plate"),
                 Part(2, "b_graspable_ignore", "graspable", ignore=True))
        cat = PartCatalog(parts)
        assert cat.non_ignored_ids() == (1,)

    def test_bad_task_label(self):
        with pytest.raises(ValidationError):
            Part(1, "x", "widget")

    @pytest.mark.parametrize("field, value", [
        ("com", (float("inf"), 0.0, 0.0)), ("com", (0.0, float("nan"), 0.0)),
        ("size", float("inf")), ("size", float("nan"))])
    def test_non_finite_com_or_size(self, field, value):
        # save_dataset would write Infinity or NaN, which no loader reads
        with pytest.raises(ValidationError, match="part 2: com and size "
                                                  "must be finite"):
            Part(2, "x", "graspable", **{field: value})


def _catalog(n):
    """A catalog of the graspable parts 1..n."""
    return PartCatalog(tuple(Part(pid, f"p{pid}_graspable", "graspable")
                             for pid in range(1, n + 1)))


def _free_matrices(layers):
    """Relation matrices over the x_cf ``layers``, every translation free
    and no contacts."""
    n = layers.shape[1]
    return RelationMatrices(tuple(range(1, n + 1)),
                            np.ones((6, n, n), dtype=np.uint8), layers,
                            np.zeros((n, n), dtype=np.uint8))


class TestConstraintDegree:
    """``RelationMatrices.constraint_degree`` is derived from x_cf."""

    def test_translation_layers_rejected(self):
        # the six translation layers of x_if are not the twelve of x_cf
        m = _free_matrices(np.ones((6, 2, 2), dtype=np.uint8))
        with pytest.raises(ValidationError, match=re.escape(
                "x_cf must have shape (12, 2, 2), got (6, 2, 2)")) as err:
            m.validate(_catalog(2))
        assert err.value.matrix == "x_cf"

    def test_fully_free_pair(self):
        layers = np.ones((12, 2, 2), dtype=np.uint8)
        assert _free_matrices(layers).constraint_degree[0, 1] == 0

    def test_fully_constrained_pair(self):
        layers = np.zeros((12, 2, 2), dtype=np.uint8)
        out = _free_matrices(layers).constraint_degree
        assert out[0, 1] == 12
        assert out[0, 0] == 0  # diagonal forced

    def test_five_free(self):
        layers = np.zeros((12, 2, 2), dtype=np.uint8)
        for j in range(5):
            layers[j, 0, 1] = 1
        assert _free_matrices(layers).constraint_degree[0, 1] == 7

    def test_symmetry_under_transpose_rule(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            layers = np.zeros((12, 4, 4), dtype=np.uint8)
            for j in range(3):
                block = rng.integers(0, 2, (4, 4)).astype(np.uint8)
                layers[j] = block
                layers[j + 3] = block.T
            for j in range(6, 9):
                sym = rng.integers(0, 2, (4, 4)).astype(np.uint8)
                sym = (sym | sym.T).astype(np.uint8)
                layers[j] = sym
                layers[j + 3] = sym.T
            out = _free_matrices(layers).constraint_degree
            assert (out == out.T).all()

    def test_degree_is_not_stored(self):
        m = _free_matrices(np.ones((12, 2, 2), dtype=np.uint8))
        degree = m.constraint_degree
        with pytest.raises(TypeError):
            RelationMatrices(m.part_order, m.interference_free,
                             m.constraint_free, m.contact, degree)
        with pytest.raises(TypeError):
            dataclasses.replace(m, constraint_degree=degree)
        with pytest.raises(AttributeError):
            m.constraint_degree = degree
        # editing x_cf moves the degree with it
        m.constraint_free[:3] = 0
        assert m.constraint_degree.tolist() == [[0, 3], [3, 0]]

    def test_difficulty_follows_x_cf(self):
        # a degree of 12 on every pair that x_cf constrains would give
        # f_d = 0.5 here; evaluation reads the degree that x_cf gives
        ds = build_dataset(*generate_synthetic(2, 1, seed=1))
        order = ds.matrices.part_order
        f_d = oracle.objective_values(range(len(order)),
                                      oracle.extract(ds))[0]
        assert evaluate(order, ds).objectives[0] == f_d == 0.125


def _tiny_dataset():
    return make_tower(1, 1, seed=2)


class TestDatasetIO:
    def test_misshapen_x_if_named(self):
        catalog, matrices, _ = _tiny_dataset()
        n = matrices.n
        matrices.interference_free = matrices.interference_free[:, :, :-1]
        with pytest.raises(ValidationError, match=re.escape(
                f"x_if must have shape (6, {n}, {n}), got (6, {n}, {n - 1})")
                ) as err:
            matrices.validate(catalog)
        assert err.value.matrix == "x_if"

    def test_minimal_two_part_dataset(self, tmp_path):
        ds = make_tower(1, 0, seed=0)
        assert len(ds.catalog) == 2
        assert ds.matrices.interference_free.shape == (6, 2, 2)
        assert ds.matrices.constraint_free.shape == (12, 2, 2)
        assert ds.matrices.contact.shape == (2, 2)
        path = tmp_path / "two.json"
        save_dataset(ds, path)
        again = load_dataset(path)
        assert again.matrices.part_order == ds.matrices.part_order

    def test_round_trip_is_identity(self, tmp_path, tower5):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_dataset(tower5, p1)
        loaded = load_dataset(p1)
        save_dataset(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_30_part_tower_round_trip(self, tmp_path):
        ds = make_tower(29, 0, seed=4)
        assert len(ds.catalog) == 30
        p1 = tmp_path / "tall.json"
        save_dataset(ds, p1)
        loaded = load_dataset(p1)
        p2 = tmp_path / "tall2.json"
        save_dataset(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_transpose_violation_reported(self, tmp_path):
        ds = _tiny_dataset()
        doc = json.loads(dataset_to_json(ds))
        doc["x_if"][3][0][1] ^= 1
        with pytest.raises(TransposeViolation) as err:
            load_both(doc, tmp_path)
        assert err.value.matrix == "x_if"
        assert err.value.index is not None

    @pytest.mark.parametrize("with_x_cs", [True, False])
    def test_rotation_twin_violation_reported(self, tmp_path, with_x_cs):
        # layer 10 (-ry) must be the transpose of layer 7 (+ry); without
        # x_cs in the file the error must still name x_cf, not x_cs
        doc = json.loads(dataset_to_json(_tiny_dataset()))
        doc["x_cf"][9][0][1] ^= 1
        if not with_x_cs:
            del doc["x_cs"]
        message = "x_cf layer 10 != transpose of layer 7"
        with pytest.raises(TransposeViolation, match=message) as err:
            load_both(doc, tmp_path)
        assert err.value.matrix == "x_cf"
        assert err.value.index == (9, 0, 1)

    def test_constraint_degree_cross_check(self, tmp_path):
        ds = _tiny_dataset()
        doc = json.loads(dataset_to_json(ds))
        doc["x_cs"][0][1] += 1
        with pytest.raises(ValidationError) as err:
            load_both(doc, tmp_path)
        assert err.value.matrix == "x_cs"

    @pytest.mark.parametrize("fault, message, index", [
        ("repeated", "part_order contains duplicate ids: 1 is repeated",
         (2,)),
        ("extra", "part_order must list exactly the non-ignored part ids: "
                  "99 is not one", None),
        ("missing", "part_order must list exactly the non-ignored part ids: "
                    "4 is missing", None),
    ])
    def test_part_order_fault_named(self, tmp_path, fault, message, index):
        doc = json.loads(dataset_to_json(_tiny_dataset()))
        assert doc["part_order"] == [1, 2, 3]
        if fault == "repeated":
            doc["part_order"][2] = 1
        elif fault == "extra":
            doc["part_order"][1] = 99
        else:
            doc["parts"].append({**doc["parts"][1], "id": 4,
                                 "name": "block2_graspable"})
        with pytest.raises(ValidationError, match=f"^{message}$") as err:
            load_both(doc, tmp_path)
        assert err.value.matrix == "part_order"
        assert err.value.index == index

    def test_missing_x_cs_is_rederived(self, tmp_path):
        ds = _tiny_dataset()
        doc = json.loads(dataset_to_json(ds))
        del doc["x_cs"]
        loaded = load_both(doc, tmp_path)
        assert (loaded.matrices.constraint_degree
                == ds.matrices.constraint_degree).all()

    def test_version_mismatch(self, tmp_path):
        ds = _tiny_dataset()
        doc = json.loads(dataset_to_json(ds))
        doc["version"] = 99
        with pytest.raises(SchemaError):
            load_both(doc, tmp_path)

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_version_must_be_an_integer(self, tmp_path, version):
        doc = json.loads(dataset_to_json(_tiny_dataset()))
        doc["version"] = version
        with pytest.raises(SchemaError, match="unsupported dataset version"):
            load_both(doc, tmp_path)

    def test_missing_field(self, tmp_path):
        ds = _tiny_dataset()
        doc = json.loads(dataset_to_json(ds))
        del doc["x_ct"]
        with pytest.raises(SchemaError):
            load_both(doc, tmp_path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("not json at all{")
        with pytest.raises(SchemaError):
            load_dataset(path)

    @pytest.mark.parametrize("canonical", [True, False])
    def test_deep_nesting_is_not_valid_json(self, tmp_path, canonical):
        # json.loads gives up on this depth with a RecursionError
        doc = json.loads(dataset_to_json(_tiny_dataset()))
        doc["parts"][0]["eef"] = "deep"
        text = canonical_text(doc) if canonical else json.dumps(doc)
        path = tmp_path / "deep.json"
        path.write_text(text.replace('"deep"',
                                     "[" * 100_000 + "]" * 100_000))
        with pytest.raises(SchemaError, match="^not valid JSON: "):
            load_dataset(path)

    @pytest.mark.parametrize("com", [
        [float("nan"), 0.0, 0.0], [0.0, float("inf"), 0.0], [1.0],
        [0.0, "x", 0.0], "abc", None])
    def test_bad_com_rejected(self, tmp_path, com):
        ds = _tiny_dataset()
        doc = json.loads(dataset_to_json(ds))
        doc["parts"][1]["com"] = com
        with pytest.raises(SchemaError, match="part 2: com"):
            load_both(doc, tmp_path)

    @pytest.mark.parametrize("mutation", sorted(MALFORMED))
    def test_malformed_field_rejected(self, tmp_path, mutation):
        doc = json.loads(dataset_to_json(_tiny_dataset()))
        message = MALFORMED[mutation](doc)
        with pytest.raises(SchemaError) as err:
            load_both(doc, tmp_path)
        assert message in str(err.value)

    @pytest.mark.parametrize("key, value, bound", [
        ("x_ct", 0.5, 255), ("x_ct", 1.7, 255), ("x_ct", -1, 255),
        ("x_ct", 256, 255), ("x_ct", float("nan"), 255),
        ("x_ct", float("inf"), 255), ("x_cs", 40000, 32767),
        ("x_cs", 2.5, 32767)])
    def test_non_integer_matrix_entry_rejected(self, tmp_path, key, value,
                                               bound):
        doc = json.loads(dataset_to_json(_tiny_dataset()))
        doc[key][0][1] = value
        with pytest.raises(SchemaError) as err:
            load_both(doc, tmp_path)
        assert str(err.value).startswith(
            f"{key}[0][1] must be an integer in [")
        assert f", {bound}], got {value!r}" in str(err.value)

    def test_string_matrix_entry_rejected(self, tmp_path):
        doc = json.loads(dataset_to_json(_tiny_dataset()))
        doc["x_if"][1][2][0] = "1"
        with pytest.raises(SchemaError, match=r"x_if\[1\]\[2\]\[0\] does not"):
            load_both(doc, tmp_path)

    def test_integral_floats_and_booleans_load_as_integers(self, tmp_path):
        ds = _tiny_dataset()
        doc = json.loads(dataset_to_json(ds))
        doc["x_if"] = [[[float(v) for v in row] for row in layer]
                       for layer in doc["x_if"]]
        doc["x_ct"] = [[bool(v) for v in row] for row in doc["x_ct"]]
        assert dataset_to_json(load_both(doc, tmp_path)) == dataset_to_json(ds)

    @pytest.mark.parametrize("size", ["abc", float("nan"), float("inf"),
                                      [1.0], {}])
    def test_bad_size_rejected(self, tmp_path, size):
        doc = json.loads(dataset_to_json(_tiny_dataset()))
        doc["parts"][2]["size"] = size
        with pytest.raises(SchemaError, match=r"parts\[2\]\.size must be"):
            load_both(doc, tmp_path)

    @pytest.mark.parametrize("flag", ["priority", "base", "ignore"])
    @pytest.mark.parametrize("value", ["false", 1, None])
    def test_label_flag_must_be_boolean(self, tmp_path, flag, value):
        doc = json.loads(dataset_to_json(_tiny_dataset()))
        doc["parts"][1]["labels"][flag] = value
        with pytest.raises(SchemaError, match=rf"parts\[1\]\.labels\.{flag} "
                                              "must be a boolean"):
            load_both(doc, tmp_path)

    def test_repeated_motion_part_id_rejected(self, tmp_path):
        doc = json.loads(dataset_to_json(_tiny_dataset()))
        key = next(k for k, entries in sorted(doc["motions"].items())
                   if entries)
        doc["motions"]["0" + key] = []
        with pytest.raises(SchemaError,
                           match=f"motion key '0{key}' repeats part id {key}"):
            load_both(doc, tmp_path)

    @pytest.mark.parametrize("field", ["part_order", "motion id"])
    def test_boolean_id_rejected(self, tmp_path, field):
        doc = json.loads(dataset_to_json(_tiny_dataset()))
        if field == "part_order":
            doc["part_order"][1], where = True, r"part_order\[1\]"
        else:
            key = next(k for k, entries in sorted(doc["motions"].items())
                       if entries)
            doc["motions"][key][0]["id"] = True
            where = rf"motions\['{key}'\]\[0\]\.id"
        with pytest.raises(SchemaError,
                           match=where + " must be an integer, got True"):
            load_both(doc, tmp_path)

    @pytest.mark.parametrize("field, where", [
        ("name", r"parts\[1\]\.name must be a string"),
        ("com", "part 2: com must be 3 finite numbers"),
        ("size", r"parts\[1\]\.size must be a finite number")],
        ids=["name", "com", "size"])
    def test_huge_bad_value_gives_a_short_message(self, tmp_path, field,
                                                  where):
        # the value's repr is shortened, not printed whole (689 KB here)
        doc = json.loads(dataset_to_json(_tiny_dataset()))
        doc["parts"][1][field] = list(range(100_000))
        shortened = r", got \[0, 1, 2, 3, 4, 5, \.\.\.\]$"
        with pytest.raises(SchemaError, match=f"^{where}{shortened}"):
            load_both(doc, tmp_path)
        doc["parts"][1][field] = {str(k): k for k in range(100_000)}
        with pytest.raises(SchemaError) as err:
            load_both(doc, tmp_path)
        assert len(str(err.value)) < 200

    def test_asymmetric_contact_rejected(self, tmp_path):
        doc = json.loads(dataset_to_json(_tiny_dataset()))
        doc["x_ct"][0][1] ^= 1
        with pytest.raises(ValidationError,
                           match=r"x_ct is not symmetric at \(0, 1\)") as err:
            load_both(doc, tmp_path)
        assert err.value.index == (0, 1)

    def test_contact_without_constraint_rejected(self):
        order = (1, 2)
        x_if = np.ones((6, 2, 2), dtype=np.uint8)
        x_cf = np.ones((12, 2, 2), dtype=np.uint8)  # degree 0 everywhere
        x_ct = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        m = RelationMatrices(order, x_if, x_cf, x_ct)
        with pytest.raises(ValidationError, match="parts in contact must "
                                                  "have constraint degree"):
            m.validate(_catalog(2))


def _one_part_dataset():
    assembly = VoxelAssembly(pitch=1.0, cells={1: [(0, 0, 0), (1, 0, 0)]},
                             bounds=((-4, -4, 0), (6, 6, 6)))
    return build_dataset(assembly, PartCatalog(
        (Part(1, "block_graspable", "graspable"),)))


def _without_motions(ds, table):
    return ds._replace(motions=MotionTable(table))


def _writer_case(name):
    """A dataset whose canonical text the writer must match."""
    if name == "one-part":
        return _one_part_dataset()
    if name == "two-part":
        return make_tower(1, 0, seed=0)
    towers = {"tower10": (3, 2, 0.0, 0, 3), "tower36": (7, 4, 0.3, 2, 12),
              "tower76": (15, 4, 0.3, 2, 12)}
    if name in towers:
        return make_tower(*towers[name])
    ds = make_tower(3, 2, seed=3)
    motions = dict(ds.motions.motions)
    if name == "part-without-motions":
        motions[10] = ()       # listed with no motions
        del motions[4]         # not listed at all
        return _without_motions(ds, motions)
    if name == "empty-motion-table":
        return _without_motions(ds, {})
    if name == "two-digit-x_cs":
        # three pairs keep 2, 1 and 0 of their 12 directions free, each
        # with its twin
        x_cf = ds.matrices.constraint_free.copy()
        for (i, k), free in (((0, 1), (0, 3)), ((2, 5), (0,)), ((3, 9), ())):
            x_cf[:, [i, k], [k, i]] = 0
            for j in free:
                x_cf[j, i, k] = x_cf[(j + 3) % 6, k, i] = 1
        matrices = dataclasses.replace(ds.matrices, constraint_free=x_cf)
        matrices.validate(ds.catalog)
        assert matrices.constraint_degree.max() >= 10
        return ds._replace(matrices=matrices)
    if name == "key-text-in-names":
        # the text that the canonical reader cuts at, inside strings
        names = [',"x_cf":[', '"row":[0,1]', ',"x_if":[[[1]]]}\n']
        parts = tuple(dataclasses.replace(p, name=f"{names[j % 3]}_"
                                          f"{p.task_label}")
                      for j, p in enumerate(ds.catalog))
        pid, entries = next(iter(motions.items()))
        motions[pid] = tuple(dataclasses.replace(m, kind='"row":[1]')
                             for m in entries)
        return Dataset(PartCatalog(parts), ds.matrices,
                       MotionTable(motions))
    assert name == "escaped-text"
    names = ['a"quote_screw', "back\\slash_plate", "new\nline_graspable",
             "tab\t\u00e9\u2603_manual", "ctrl\x01_nut"]
    parts = tuple(dataclasses.replace(p, name=names[j % len(names)])
                  for j, p in enumerate(ds.catalog))
    pid, entries = next(iter(motions.items()))
    motions[pid] = tuple(dataclasses.replace(m, kind='k"\\\u00fc')
                         for m in entries)
    return Dataset(PartCatalog(parts), ds.matrices,
                   MotionTable(motions))


class TestCanonicalText:
    """``dataset_to_json`` renders integer blocks from their arrays; its
    bytes must equal ``json.dumps`` of the nested-list document."""

    @pytest.mark.parametrize("name", [
        "tower10", "tower36", "tower76", "one-part", "two-part",
        "part-without-motions", "empty-motion-table", "two-digit-x_cs",
        "escaped-text", "key-text-in-names"])
    def test_matches_json_dumps(self, name):
        ds = _writer_case(name)
        assert dataset_to_json(ds) == oracle.dataset_json(ds)

    def test_motion_keys_in_string_order(self):
        text = dataset_to_json(make_tower(3, 2, seed=3))
        motions = json.loads(text)["motions"]
        assert list(motions) == sorted(motions) != sorted(motions, key=int)
        assert text.index('"10":[') < text.index('"2":[')

    @pytest.mark.parametrize("seed", range(6))
    def test_random_blocks_match_json_dumps(self, seed):
        # unvalidated random content: every entry value, row length and
        # motion count the writer accepts
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 14))
        order = tuple(int(i) for i in rng.permutation(n) + 1)
        matrices = RelationMatrices(
            order, rng.integers(0, 2, (6, n, n), dtype=np.uint8),
            rng.integers(0, 2, (12, n, n), dtype=np.uint8),
            rng.integers(0, 2, (n, n), dtype=np.uint8))
        table = {pid: tuple(
            Motion(j, str(rng.choice(["+x", "-z", "twist"])),
                   rng.integers(0, 2, n, dtype=np.uint8))
            for j in range(int(rng.integers(0, 4))))
            for pid in order if rng.random() < 0.8}
        catalog = PartCatalog(tuple(Part(pid, f"p{pid}_screw", "screw")
                                    for pid in range(1, n + 1)))
        ds = Dataset(catalog, matrices, MotionTable(table))
        assert dataset_to_json(ds) == oracle.dataset_json(ds)

    @pytest.mark.parametrize("field, index, value, where", [
        ("interference_free", (2, 0, 1), 2, r"x_if\[2\]\[0\]\[1\]"),
        ("constraint_free", (7, 1, 0), 3, r"x_cf\[7\]\[1\]\[0\]"),
        ("contact", (0, 2), -1, r"x_ct\[0\]\[2\]"),
    ])
    def test_entry_out_of_range_writes_nothing(self, tmp_path, field, index,
                                               value, where):
        ds = _tiny_dataset()
        block = getattr(ds.matrices, field).astype(np.int16)
        block[index] = value
        bad = ds._replace(matrices=dataclasses.replace(
            ds.matrices, **{field: block}))
        path = tmp_path / "bad.json"
        with pytest.raises(ValueError, match=where + r" must be in 0\.\.\d+ "
                           f"to be written, got {value}"):
            save_dataset(bad, path)
        assert not path.exists()

    def test_motion_entry_out_of_range_writes_nothing(self, tmp_path):
        ds = _tiny_dataset()
        motions = dict(ds.motions.motions)
        pid = max(pid for pid, entries in motions.items() if entries)
        first, *rest = motions[pid]
        row = first.row.copy()
        row[1] = 2
        motions[pid] = (dataclasses.replace(first, row=row), *rest)
        path = tmp_path / "bad.json"
        with pytest.raises(ValueError, match=rf"motion {first.id} of part "
                                             rf"{pid} row\[1\] must be in "
                                             r"0\.\.1 to be written, got 2"):
            save_dataset(_without_motions(ds, motions), path)
        assert not path.exists()


def _doc_edit(change):
    """The text edit that applies ``change`` to the document and writes it
    in the canonical layout."""
    def edit(text):
        doc = json.loads(text)
        change(doc)
        return canonical_text(doc)
    return edit


def _motion_rows(doc):
    return [m["row"] for entries in doc["motions"].values() for m in entries]


def _trade_entry(rows):
    """Move the first entry of ``rows[1]`` to the end of ``rows[0]``: the
    digits stay in the same order, but neither row has the right length."""
    rows[0].append(rows[1].pop(0))


def _set_entry(key, value):
    def change(doc):
        doc[key][0][1] = value
    return change


def _repeat_motion_key(text):
    key = next(k for k, v in json.loads(text)["motions"].items() if v)
    return text.replace('{"motions":{', f'{{"motions":{{"{key}":[],', 1)


def _pretty(text):
    return json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n"


def _float_x_ct(doc):
    doc["x_ct"] = [[float(v) for v in row] for row in doc["x_ct"]]


def _add_x_cs(doc):
    doc["x_cs"][0][1] += 1


# Edits of the tiny tower's canonical text, and the error that loading the
# edited text raises (None: it loads).  Each must load, or fail, exactly as
# the json.loads path does.
_TEXT_EDITS = {
    "key-after-x_if": (_doc_edit(lambda doc: doc.update(zz=1)), None),
    "key-before-motions": (_doc_edit(lambda doc: doc.update(aa=[])), None),
    "no-x_cs": (_doc_edit(lambda doc: doc.pop("x_cs")), None),
    "no-trailing-newline": (lambda text: text[:-1], None),
    "utf-8-bom": (lambda text: "\ufeff" + text, SchemaError),
    "pretty-printed": (_pretty, None),
    "float-entries": (_doc_edit(_float_x_ct), None),
    "repeated-motion-key": (_repeat_motion_key, None),
    "x_cs-mismatch": (_doc_edit(_add_x_cs), ValidationError),
    "negative-x_ct": (_doc_edit(_set_entry("x_ct", -1)), SchemaError),
    "two-digit-x_ct": (_doc_edit(_set_entry("x_ct", 10)), ValidationError),
    "motion-rows-trade-an-entry": (
        _doc_edit(lambda doc: _trade_entry(_motion_rows(doc))), SchemaError),
    "x_if-rows-trade-an-entry": (
        _doc_edit(lambda doc: _trade_entry(doc["x_if"][0])), SchemaError),
    "motion-without-row": (_doc_edit(MALFORMED["motion-without-row"]),
                           SchemaError),
    "text-after-the-object": (lambda text: text + "{}", SchemaError),
    "truncated": (lambda text: text[:-3], SchemaError),
}


def _json_loads_outcome(path):
    """``load_outcome`` of ``path`` with the canonical reader off."""
    with mock.patch.object(model, "_canonical_doc", return_value=None):
        return load_outcome(path)


class TestCanonicalReader:
    """``load_dataset`` reads canonical text from its arrays and keeps that
    dataset only when it renders back to the same bytes; any other text,
    and every error, goes through ``json.loads``."""

    @pytest.mark.parametrize("name", [
        "tower10", "tower76", "one-part", "two-part", "part-without-motions",
        "empty-motion-table", "escaped-text", "key-text-in-names"])
    def test_saved_file_is_read_from_its_arrays(self, tmp_path, monkeypatch,
                                                name):
        path = tmp_path / "saved.json"
        save_dataset(_writer_case(name), path)

        def no_json_loads(data):
            raise AssertionError("read through json.loads")
        monkeypatch.setattr(model, "_json_doc", no_json_loads)
        assert dataset_to_json(load_dataset(path)) == path.read_text()

    def test_x_cs_is_compared_on_the_render_back(self, tmp_path,
                                                  monkeypatch, tower10):
        # the canonical reader leaves x_cs to the derivation, so a file
        # whose x_cs differs renders back to other bytes and fails on the
        # json.loads path; an untouched file never reaches that path
        text = dataset_to_json(tower10)
        path = tmp_path / "tower.json"
        path.write_text(text)
        with monkeypatch.context() as patch:
            patch.setattr(model, "_json_doc", mock.Mock(
                side_effect=AssertionError("read through json.loads")))
            assert dataset_to_json(load_dataset(path)) == text
        doc = json.loads(text)
        value = doc["x_cs"][0][1]
        doc["x_cs"][0][1] += 1
        path.write_text(canonical_text(doc))
        doc = model._canonical_doc(path.read_bytes())
        assert doc is not None and "x_cs" not in doc
        with pytest.raises(ValidationError, match=re.escape(
                f"x_cs(0, 1) = {value + 1} does not match the value "
                f"{value} derived from x_cf")) as err:
            load_dataset(path)
        assert (err.value.matrix, err.value.index) == ("x_cs", (0, 1))

    @pytest.mark.parametrize("edit", sorted(_TEXT_EDITS))
    def test_edited_text_loads_as_json_loads_reads_it(self, tmp_path, edit):
        change, error = _TEXT_EDITS[edit]
        path = tmp_path / "edited.json"
        path.write_text(change(dataset_to_json(_tiny_dataset())),
                        encoding="utf-8")
        outcome = load_outcome(path)
        assert outcome == _json_loads_outcome(path)
        if error is None:
            assert isinstance(outcome, str)
        else:
            assert outcome[0] is error

    @settings(max_examples=200, deadline=None)
    @given(edit=st.tuples(st.integers(0, 10 ** 6), st.sampled_from(
        [b"", b"0", b"1", b"2", b"-", b".", b",", b"[", b"]", b"{", b"}",
         b'"', b" "]), st.booleans()))
    def test_byte_edits_load_as_json_loads_reads_them(self, tmp_path_factory,
                                                      edit):
        """One byte of the canonical text replaced, deleted or inserted."""
        at, new, replace = edit
        text = dataset_to_json(_tiny_dataset()).encode()
        at %= len(text)
        path = tmp_path_factory.mktemp("edit") / "edited.json"
        path.write_bytes(text[:at] + new + text[at + replace:])
        assert load_outcome(path) == _json_loads_outcome(path)


class TestMotionTableValidate:
    """One 0/1 check covers every row; the error still names the first bad
    motion in table order."""

    @staticmethod
    def _table(*rows, unknown=False):
        motions = {1: tuple(Motion(j, "+x", np.array(row))
                            for j, row in enumerate(rows))}
        if unknown:
            motions[9] = ()
        return MotionTable(motions)

    @pytest.mark.parametrize("rows, unknown, message", [
        (([1, 1, 0], [0, 2, 1], [1, 1]), False,
         "motion 1 of part 1 has non-binary entries"),
        (([1, 1, 0], [0, 1], [0, 2, 1]), False,
         "motion 1 of part 1 has row length 2, expected 3"),
        (([1, 1, 0], [1, 0, 1], [1, -1, 1]), False,
         "motion 2 of part 1 has non-binary entries"),
        (([1, 0, 1], [0.5, 1, 1]), True,
         "motion 1 of part 1 has non-binary entries"),
        (([1, 0, 1],), True, "motion table lists unknown part id 9"),
    ])
    def test_first_bad_motion_named(self, rows, unknown, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            self._table(*rows, unknown=unknown).validate((1, 2, 3))

    def test_binary_rows_pass(self):
        self._table([1, 0, 1], [0, 0, 0]).validate((1, 2, 3))
        self._table().validate((1, 2, 3))


class TestSequences:
    def test_sequence_validation(self, tower5):
        ids = tower5.catalog.non_ignored_ids()
        ev = Evaluator(tower5)
        ev.to_indices(np.array(ids))
        with pytest.raises(ValueError):
            ev.to_indices(np.array(ids[:-1]))
        with pytest.raises(ValueError):
            ev.to_indices(np.array(ids + ids[:1]))

    def test_removal_order_flips(self):
        assert removal_order([1, 2, 3]).tolist() == [3, 2, 1]

    def test_ignored_parts_never_in_part_order(self):
        parts = (Part(1, "a_plate_base", "plate", base=True),
                 Part(2, "b_graspable", "graspable"),
                 Part(3, "c_graspable_ignore", "graspable", ignore=True))
        cat = PartCatalog(parts)
        n = 2
        x_if = np.ones((6, n, n), dtype=np.uint8)
        x_cf = np.ones((12, n, n), dtype=np.uint8)
        x_ct = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        x_cf[0, 0, 1] = x_cf[3, 1, 0] = 0
        x_cf[2, 0, 1] = x_cf[5, 1, 0] = 0
        x_cf[2, 1, 0] = x_cf[5, 0, 1] = 0
        x_cf[0, 1, 0] = x_cf[3, 0, 1] = 0
        m = RelationMatrices((1, 2), x_if, x_cf, x_ct)
        m.validate(cat)
        rows = MotionTable({1: (Motion(0, "+z", np.ones(2, np.uint8)),)})
        rows.validate((1, 2))
        ds = Dataset(cat, m, rows)
        assert len(ds.catalog.non_ignored_ids()) == 2
