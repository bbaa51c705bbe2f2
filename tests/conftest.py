import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dsplan.geomsim import build_dataset, generate_synthetic
from dsplan.model import (
    Dataset,
    DatasetError,
    Motion,
    MotionTable,
    Part,
    PartCatalog,
    RelationMatrices,
    dataset_to_json,
    load_dataset,
)


def make_tower(layers, screws, manual=0.0, priority=0, seed=0):
    assembly, catalog = generate_synthetic(
        n_layers=layers, screws_per_layer=screws, manual_fraction=manual,
        priority_count=priority, seed=seed)
    return build_dataset(assembly, catalog)


def criterion12_tower(layers):
    """The screw tower of acceptance criterion 12 with ``layers`` layers."""
    return make_tower(layers, 4, manual=0.3, priority=2, seed=12)


def free_product(parts, contacts, blocked=None):
    """Hand-built dataset over ``parts``, ids 1..n, in which every
    translation is free and each part has one free +z motion.  The pairs of
    ``contacts`` touch, and each ``(layer, a, b)`` of ``blocked`` is a
    small-clearance constraint direction blocked for part b against part
    a; by default +/-z both ways for each contact, so that cs >= 1."""
    catalog = PartCatalog(tuple(parts))
    n = len(parts)
    x_if = np.ones((6, n, n), dtype=np.uint8)
    x_cf = np.ones((12, n, n), dtype=np.uint8)
    x_ct = np.zeros((n, n), dtype=np.uint8)
    for a, b in contacts:
        x_ct[a - 1, b - 1] = x_ct[b - 1, a - 1] = 1
    if blocked is None:
        blocked = [(j, *pair) for a, b in contacts for j in (2, 5)
                   for pair in ((a, b), (b, a))]
    for j, a, b in blocked:
        x_cf[j, a - 1, b - 1] = 0
    matrices = RelationMatrices(tuple(range(1, n + 1)), x_if, x_cf, x_ct)
    matrices.validate(catalog)
    motions = MotionTable({
        i: (Motion(0, "+z", np.ones(n, dtype=np.uint8)),)
        for i in range(1, n + 1)})
    return Dataset(catalog, matrices, motions)


def chain_product(n, contacts=None):
    """Hand-built dataset: n graspable parts, all translations free, chain
    contacts by default."""
    parts = [Part(i, f"p{i}_graspable", "graspable",
                  com=(float(i), 0.0, 0.0)) for i in range(1, n + 1)]
    pairs = contacts if contacts is not None else [(i, i + 1)
                                                   for i in range(1, n)]
    return free_product(parts, pairs)


def custom_product(specs, cs_pairs=None):
    """Dataset with hand-picked labels/coms; all constraints permissive.

    specs: list of (task_label, priority, com) per part, ids 1..n.
    cs_pairs: {(a, b): degree} entries forced into the degree matrix by
    blocking that many constraint directions.
    """
    parts = []
    for i, (task, prio, com) in enumerate(specs, start=1):
        parts.append(Part(i, f"p{i}_{task}" + ("_value" if prio else ""),
                          task, priority=prio, com=com))
    if cs_pairs is None:
        # chain contacts so every order is stable-checkable; pair them with
        # a +/-z block to keep the contact=>degree invariant intact
        return free_product(parts, [(a, a + 1) for a in range(1, len(parts))])
    blocked = []
    for (a, b), degree in cs_pairs.items():
        assert degree <= 6
        # block translation j for both orderings, transpose-consistent
        blocked += [(j, a, b) for j in range(degree)]
        blocked += [((j + 3) % 6, b, a) for j in range(degree)]
    return free_product(parts, list(cs_pairs), blocked)


def graph_product(contacts, n, fixing=(), base=None, sizes=None):
    parts = []
    for i in range(1, n + 1):
        task = "screw" if i in fixing else "graspable"
        name = f"p{i}_{task}" + ("_base" if i == base else "")
        parts.append(Part(i, name, task, base=(i == base),
                          size=None if sizes is None else sizes[i - 1]))
    return free_product(parts, contacts)[:2]


def random_product(n, seed):
    """Random relation matrices (not a physical product) with 0-3 motions
    per part and random manual labels, so the strict rows are padded.  Each
    pair blocks a random number (0-12) of its x_cf directions, so the
    constraint degree varies."""
    rng = np.random.default_rng(seed)
    parts = tuple(Part(i, f"p{i}", task, com=tuple(rng.normal(size=3)),
                       priority=bool(rng.random() < 0.3))
                  for i, task in enumerate(
                      rng.choice(["graspable", "manual", "screw"], n), 1))
    contact = np.triu(rng.random((n, n)) < 0.5, 1)
    matrices = RelationMatrices(
        tuple(range(1, n + 1)),
        (rng.random((6, n, n)) < 0.7).astype(np.uint8),
        (np.arange(12)[:, None, None]
         >= rng.integers(0, 13, (n, n))).astype(np.uint8),
        (contact | contact.T).astype(np.uint8))
    motions = MotionTable({
        pid: tuple(Motion(r, "+z", (rng.random(n) < 0.8).astype(np.uint8))
                   for r in range(rng.integers(0, 4)))
        for pid in matrices.part_order})
    return Dataset(PartCatalog(parts), matrices, motions)


def canonical_text(doc) -> str:
    """``doc`` laid out as ``dataset_to_json`` lays out a dataset: sorted
    keys, compact separators and a trailing newline."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def load_outcome(path):
    """What loading ``path`` gives: the dataset's canonical text, or the
    error's type, text, matrix and index."""
    try:
        return dataset_to_json(load_dataset(path))
    except DatasetError as exc:
        return (type(exc), str(exc), getattr(exc, "matrix", None),
                getattr(exc, "index", None))


def write_both(doc, directory) -> tuple[Path, Path]:
    """``doc`` written as ``json.dumps`` writes it by default and in the
    canonical layout, which the loader reads from its arrays.  The canonical
    file must load to the same dataset, or fail with the same error, as the
    same keys in the same order with ``json.dumps``'s default separators,
    which the loader reads through ``json.loads``.  (A repeated motion key
    is named in key order, so the comparison sorts the keys too.)"""
    paths = [Path(directory) / name for name in (
        "default.json", "canonical.json", "spaced.json")]
    paths[0].write_text(json.dumps(doc))
    paths[1].write_text(canonical_text(doc))
    paths[2].write_text(json.dumps(doc, sort_keys=True))
    assert load_outcome(paths[1]) == load_outcome(paths[2])
    return paths[0], paths[1]


def load_both(doc, directory):
    """Load ``doc`` from both renderings of ``write_both``: the dataset of
    the default one, or its error."""
    return load_dataset(write_both(doc, directory)[0])


@pytest.fixture(scope="session")
def tower5():
    """Two layers, one screw each: the smallest interesting screw tower."""
    return make_tower(2, 1, seed=7)


@pytest.fixture(scope="session")
def tower7():
    """Seven parts with a manual+value block: every objective is live."""
    return make_tower(2, 2, manual=0.5, priority=1, seed=5)


@pytest.fixture(scope="session")
def tower10():
    """The benchmark screw tower: three layers, two screws per layer."""
    return make_tower(3, 2, seed=3)


@pytest.fixture(scope="session")
def tower10_labeled():
    """Benchmark tower with two manual blocks and one value label."""
    return make_tower(3, 2, manual=0.67, priority=1, seed=3)


@pytest.fixture(scope="session")
def plain_tower4():
    """Screwless four-part stack (base plus three resting blocks)."""
    return make_tower(3, 0, seed=1)


def _motion_without_row(doc):
    key = next(k for k, entries in sorted(doc["motions"].items()) if entries)
    del doc["motions"][key][0]["row"]
    return f"motions['{key}'][0] missing field 'row'"


def _parts_not_a_list(doc):
    doc["parts"] = {str(p["id"]): p for p in doc["parts"]}
    return "parts must be a list, got dict"


def _ragged_x_if(doc):
    doc["x_if"][2][1].pop()
    return "x_if[2][1] does not fit"


def _non_integer_part_order(doc):
    doc["part_order"][1] = "two"
    return "part_order[1] must be an integer, got 'two'"


def _part_not_an_object(doc):
    doc["parts"][1] = 2
    return "parts[1] must be an object, got int"


def _motions_not_an_object(doc):
    doc["motions"] = list(doc["motions"].values())
    return "motions must be an object keyed by part id"


def _non_numeric_size(doc):
    doc["parts"][1]["size"] = "abc"
    return "parts[1].size must be a finite number, got 'abc'"


def _fractional_x_if(doc):
    doc["x_if"][0][0][1] = 0.5
    return "x_if[0][0][1] must be an integer in [0, 255], got 0.5"


def _fractional_motion_row(doc):
    key = next(k for k, entries in sorted(doc["motions"].items()) if entries)
    doc["motions"][key][0]["row"][2] = 1.7
    return f"motions['{key}'][0].row[2] must be an integer in [0, 255], got 1.7"


def _null_part_name(doc):
    doc["parts"][1]["name"] = None
    return "parts[1].name must be a string, got None"


def _numeric_task_label(doc):
    doc["parts"][2]["labels"]["task"] = 10**20
    return f"parts[2].labels.task must be a string, got {10**20}"


def _list_motion_kind(doc):
    key = next(k for k, entries in sorted(doc["motions"].items()) if entries)
    doc["motions"][key][0]["kind"] = []
    return f"motions['{key}'][0].kind must be a string, got []"


def _numeric_eef(doc):
    doc["parts"][1]["eef"] = 7
    return "parts[1].eef must be a string, got 7"


def _list_eef(doc):
    doc["parts"][1]["eef"] = [1, {"a": 2}]
    return "parts[1].eef must be a string, got [1, {'a': 2}]"


def _com_int_too_large_for_a_float(doc):
    doc["parts"][0]["com"] = [10**400, 0, 0]
    return "part 1: com must be 3 finite numbers, got [1000"


def _motion_key_not_a_part_id(doc):
    doc["motions"]["x"] = []
    return "motion key 'x' is not a part id"


def _empty_part_order(doc):
    # a product that plans no part: every part ignored
    for part in doc["parts"]:
        part["labels"]["ignore"] = True
    doc["part_order"] = []
    return "part_order is empty: no part is planned"


# Mutations of a saved dataset document that the loader must reject with a
# SchemaError; each edits the document in place and returns the text the
# error message must contain.
MALFORMED = {"motion-without-row": _motion_without_row,
             "parts-not-a-list": _parts_not_a_list,
             "ragged-x_if": _ragged_x_if,
             "non-integer-part_order": _non_integer_part_order,
             "part-not-an-object": _part_not_an_object,
             "motions-not-an-object": _motions_not_an_object,
             "non-numeric-size": _non_numeric_size,
             "fractional-x_if": _fractional_x_if,
             "fractional-motion-row": _fractional_motion_row,
             "null-part-name": _null_part_name,
             "numeric-task-label": _numeric_task_label,
             "list-motion-kind": _list_motion_kind,
             "numeric-eef": _numeric_eef,
             "list-eef": _list_eef,
             "com-int-too-large-for-a-float": _com_int_too_large_for_a_float,
             "motion-key-not-a-part-id": _motion_key_not_a_part_id,
             "empty-part_order": _empty_part_order}
