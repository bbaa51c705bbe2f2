import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracle
from dsplan.geomsim import VoxelAssembly, build_dataset
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
    derive_constraint_degree,
    load_dataset,
    parse_labels,
    removal_order,
    save_dataset,
    validate_sequence,
)
from conftest import MALFORMED, make_tower


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


class TestConstraintDegree:
    def test_fully_free_pair(self):
        layers = np.ones((12, 2, 2), dtype=np.uint8)
        assert derive_constraint_degree(layers)[0, 1] == 0

    def test_fully_constrained_pair(self):
        layers = np.zeros((12, 2, 2), dtype=np.uint8)
        out = derive_constraint_degree(layers)
        assert out[0, 1] == 12
        assert out[0, 0] == 0  # diagonal forced

    def test_five_free(self):
        layers = np.zeros((12, 2, 2), dtype=np.uint8)
        for j in range(5):
            layers[j, 0, 1] = 1
        assert derive_constraint_degree(layers)[0, 1] == 7

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
            out = derive_constraint_degree(layers)
            assert (out == out.T).all()


def _tiny_dataset():
    return make_tower(1, 1, seed=2)


class TestDatasetIO:
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
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(TransposeViolation) as err:
            load_dataset(path)
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
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        message = "x_cf layer 10 != transpose of layer 7"
        with pytest.raises(TransposeViolation, match=message) as err:
            load_dataset(path)
        assert err.value.matrix == "x_cf"
        assert err.value.index == (9, 0, 1)

    def test_constraint_degree_cross_check(self, tmp_path):
        ds = _tiny_dataset()
        doc = json.loads(dataset_to_json(ds))
        doc["x_cs"][0][1] += 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError) as err:
            load_dataset(path)
        assert err.value.matrix == "x_cs"

    def test_missing_x_cs_is_rederived(self, tmp_path):
        ds = _tiny_dataset()
        doc = json.loads(dataset_to_json(ds))
        del doc["x_cs"]
        path = tmp_path / "nocs.json"
        path.write_text(json.dumps(doc))
        loaded = load_dataset(path)
        assert (loaded.matrices.constraint_degree
                == ds.matrices.constraint_degree).all()

    def test_version_mismatch(self, tmp_path):
        ds = _tiny_dataset()
        doc = json.loads(dataset_to_json(ds))
        doc["version"] = 99
        path = tmp_path / "v.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            load_dataset(path)

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_version_must_be_an_integer(self, tmp_path, version):
        doc = json.loads(dataset_to_json(_tiny_dataset()))
        doc["version"] = version
        path = tmp_path / "v.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="unsupported dataset version"):
            load_dataset(path)

    def test_missing_field(self, tmp_path):
        ds = _tiny_dataset()
        doc = json.loads(dataset_to_json(ds))
        del doc["x_ct"]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            load_dataset(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("not json at all{")
        with pytest.raises(SchemaError):
            load_dataset(path)

    @pytest.mark.parametrize("com", [
        [float("nan"), 0.0, 0.0], [0.0, float("inf"), 0.0], [1.0],
        [0.0, "x", 0.0], "abc", None])
    def test_bad_com_rejected(self, tmp_path, com):
        ds = _tiny_dataset()
        doc = json.loads(dataset_to_json(ds))
        doc["parts"][1]["com"] = com
        path = tmp_path / "com.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="part 2: com"):
            load_dataset(path)

    @pytest.mark.parametrize("mutation", sorted(MALFORMED))
    def test_malformed_field_rejected(self, tmp_path, mutation):
        doc = json.loads(dataset_to_json(_tiny_dataset()))
        message = MALFORMED[mutation](doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as err:
            load_dataset(path)
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
        path = tmp_path / "entry.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as err:
            load_dataset(path)
        assert str(err.value).startswith(
            f"{key}[0][1] must be an integer in [")
        assert f", {bound}], got {value!r}" in str(err.value)

    def test_string_matrix_entry_rejected(self, tmp_path):
        doc = json.loads(dataset_to_json(_tiny_dataset()))
        doc["x_if"][1][2][0] = "1"
        path = tmp_path / "entry.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=r"x_if\[1\]\[2\]\[0\] does not"):
            load_dataset(path)

    def test_integral_floats_and_booleans_load_as_integers(self, tmp_path):
        ds = _tiny_dataset()
        doc = json.loads(dataset_to_json(ds))
        doc["x_if"] = [[[float(v) for v in row] for row in layer]
                       for layer in doc["x_if"]]
        doc["x_ct"] = [[bool(v) for v in row] for row in doc["x_ct"]]
        path = tmp_path / "floats.json"
        path.write_text(json.dumps(doc))
        assert dataset_to_json(load_dataset(path)) == dataset_to_json(ds)

    @pytest.mark.parametrize("size", ["abc", float("nan"), float("inf"),
                                      [1.0], {}])
    def test_bad_size_rejected(self, tmp_path, size):
        doc = json.loads(dataset_to_json(_tiny_dataset()))
        doc["parts"][2]["size"] = size
        path = tmp_path / "size.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=r"parts\[2\]\.size must be"):
            load_dataset(path)

    @pytest.mark.parametrize("flag", ["priority", "base", "ignore"])
    @pytest.mark.parametrize("value", ["false", 1, None])
    def test_label_flag_must_be_boolean(self, tmp_path, flag, value):
        doc = json.loads(dataset_to_json(_tiny_dataset()))
        doc["parts"][1]["labels"][flag] = value
        path = tmp_path / "flag.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=rf"parts\[1\]\.labels\.{flag} "
                                              "must be a boolean"):
            load_dataset(path)

    def test_repeated_motion_part_id_rejected(self, tmp_path):
        doc = json.loads(dataset_to_json(_tiny_dataset()))
        key = next(k for k, entries in sorted(doc["motions"].items())
                   if entries)
        doc["motions"]["0" + key] = []
        path = tmp_path / "motions.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError,
                           match=f"motion key '0{key}' repeats part id {key}"):
            load_dataset(path)

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
        path = tmp_path / "ids.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError,
                           match=where + " must be an integer, got True"):
            load_dataset(path)

    def test_asymmetric_contact_rejected(self, tmp_path):
        doc = json.loads(dataset_to_json(_tiny_dataset()))
        doc["x_ct"][0][1] ^= 1
        path = tmp_path / "contact.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError,
                           match=r"x_ct is not symmetric at \(0, 1\)") as err:
            load_dataset(path)
        assert err.value.index == (0, 1)

    def test_contact_without_constraint_rejected(self):
        order = (1, 2)
        x_if = np.ones((6, 2, 2), dtype=np.uint8)
        x_cf = np.ones((12, 2, 2), dtype=np.uint8)  # degree 0 everywhere
        x_ct = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        m = RelationMatrices(order, x_if, x_cf, x_ct,
                             derive_constraint_degree(x_cf))
        with pytest.raises(ValidationError):
            m.validate()


def _one_part_dataset():
    assembly = VoxelAssembly(pitch=1.0, cells={1: [(0, 0, 0), (1, 0, 0)]},
                             bounds=((-4, -4, 0), (6, 6, 6)))
    return build_dataset(assembly, PartCatalog(
        (Part(1, "block_graspable", "graspable"),)))


def _without_motions(ds, table):
    return ds._replace(motions=MotionTable(ds.matrices.part_order, table))


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
        n = ds.matrices.n
        degree = (np.arange(n * n) % 13).reshape(n, n).astype(np.int16)
        return ds._replace(matrices=dataclasses.replace(
            ds.matrices, constraint_degree=degree))
    assert name == "escaped-text"
    names = ['a"quote_screw', "back\\slash_plate", "new\nline_graspable",
             "tab\t\u00e9\u2603_manual", "ctrl\x01_nut"]
    parts = tuple(dataclasses.replace(p, name=names[j % len(names)])
                  for j, p in enumerate(ds.catalog))
    pid, entries = next(iter(motions.items()))
    motions[pid] = tuple(dataclasses.replace(m, kind='k"\\\u00fc')
                         for m in entries)
    return Dataset(PartCatalog(parts), ds.matrices,
                   MotionTable(ds.matrices.part_order, motions))


class TestCanonicalText:
    """``dataset_to_json`` renders integer blocks from their arrays; its
    bytes must equal ``json.dumps`` of the nested-list document."""

    @pytest.mark.parametrize("name", [
        "tower10", "tower36", "tower76", "one-part", "two-part",
        "part-without-motions", "empty-motion-table", "two-digit-x_cs",
        "escaped-text"])
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
            rng.integers(0, 2, (n, n), dtype=np.uint8),
            rng.integers(0, 13, (n, n), dtype=np.int16))
        table = {pid: tuple(
            Motion(j, str(rng.choice(["+x", "-z", "twist"])),
                   rng.integers(0, 2, n, dtype=np.uint8))
            for j in range(int(rng.integers(0, 4))))
            for pid in order if rng.random() < 0.8}
        catalog = PartCatalog(tuple(Part(pid, f"p{pid}_screw", "screw")
                                    for pid in range(1, n + 1)))
        ds = Dataset(catalog, matrices, MotionTable(order, table))
        assert dataset_to_json(ds) == oracle.dataset_json(ds)

    @pytest.mark.parametrize("field, index, value, where", [
        ("interference_free", (2, 0, 1), 2, r"x_if\[2\]\[0\]\[1\]"),
        ("constraint_free", (7, 1, 0), 3, r"x_cf\[7\]\[1\]\[0\]"),
        ("contact", (0, 2), -1, r"x_ct\[0\]\[2\]"),
        ("constraint_degree", (1, 0), 13, r"x_cs\[1\]\[0\]"),
        ("constraint_degree", (2, 1), -1, r"x_cs\[2\]\[1\]"),
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


class TestSequences:
    def test_sequence_validation(self, tower5):
        ids = tower5.catalog.non_ignored_ids()
        validate_sequence(np.array(ids), tower5.catalog)
        with pytest.raises(ValueError):
            validate_sequence(np.array(ids[:-1]), tower5.catalog)
        with pytest.raises(ValueError):
            validate_sequence(np.array(ids + ids[:1]), tower5.catalog)

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
        m = RelationMatrices((1, 2), x_if, x_cf, x_ct,
                             derive_constraint_degree(x_cf))
        m.validate(cat)
        rows = MotionTable((1, 2), {1: (Motion(0, "+z", np.ones(2, np.uint8)),)})
        rows.validate()
        ds = Dataset(cat, m, rows)
        assert len(ds.catalog.non_ignored_ids()) == 2
