import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dsplan.geomsim import build_dataset, generate_synthetic


def make_tower(layers, screws, manual=0.0, priority=0, seed=0):
    assembly, catalog = generate_synthetic(
        n_layers=layers, screws_per_layer=screws, manual_fraction=manual,
        priority_count=priority, seed=seed)
    return build_dataset(assembly, catalog)


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
             "list-motion-kind": _list_motion_kind}
