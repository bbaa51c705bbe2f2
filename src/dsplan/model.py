"""Domain types, label parsing, dataset file I/O, and matrix validation.

Conventions used across the package:

* A *sequence* is a 1-D integer array of non-ignored part ids in reversed
  storage order: position 1 (index 0) holds the part removed LAST, the final
  position holds the part removed FIRST.  Use ``removal_order`` to flip.
* Relation matrices are indexed by ``part_order``, the declared list of
  non-ignored part ids.  Entry (i, k) always reads "row part i is the
  still-assembled obstacle, column part k is the part being moved".
* Translation layers are ordered +x, +y, +z, -x, -y, -z; the twelve
  constraint-direction layers append +rx, +ry, +rz, -rx, -ry, -rz
  (rotations about the object axes through the moving part's COM).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

TASK_LABELS = ("screw", "bolt", "nut", "plate", "graspable", "manual")
FIXING_LABELS = frozenset({"screw", "bolt"})

DATASET_VERSION = 1

N_TRANSLATIONS = 6
N_DIRECTIONS = 12
MAX_CONSTRAINT_DEGREE = 12


class DatasetError(Exception):
    """Base class for dataset file and invariant problems."""


class SchemaError(DatasetError):
    """Dataset file is missing fields or declares an unsupported version."""


class ValidationError(DatasetError):
    """An invariant is violated; carries the matrix name and indices."""

    def __init__(self, message: str, matrix: str | None = None,
                 index: tuple | None = None):
        super().__init__(message)
        self.matrix = matrix
        self.index = index


class TransposeViolation(ValidationError):
    """A negative-direction layer is not the transpose of its positive twin."""


class MissingTaskLabel(ValueError):
    """A part name contains no recognizable task-label token."""


@dataclass(frozen=True)
class ParsedLabels:
    """Labels recovered from an underscore-delimited part name."""

    task: str
    priority: bool = False
    base: bool = False
    ignore: bool = False
    unknown: tuple[str, ...] = ()


def parse_labels(name: str) -> ParsedLabels:
    """Split ``name`` on underscores and classify the tokens.

    The first task-label token becomes the task; ``value``/``base``/``ignore``
    tokens set the corresponding flags.  Anything else (including a second,
    different task token) is surfaced in ``unknown`` rather than dropped.

    Raises MissingTaskLabel when no task token is present.
    """
    if not name:
        raise MissingTaskLabel("empty part name")
    task = None
    priority = base = ignore = False
    unknown: list[str] = []
    for token in name.split("_"):
        if token in TASK_LABELS:
            if task is None:
                task = token
            elif token != task:
                unknown.append(token)
        elif token == "value":
            priority = True
        elif token == "base":
            base = True
        elif token == "ignore":
            ignore = True
        else:
            unknown.append(token)
    if task is None:
        raise MissingTaskLabel(f"no task label token in part name {name!r}")
    return ParsedLabels(task, priority, base, ignore, tuple(unknown))


@dataclass(frozen=True)
class Part:
    """A single product part with its labels and bookkeeping fields."""

    id: int
    name: str
    task_label: str
    priority: bool = False
    base: bool = False
    ignore: bool = False
    com: tuple[float, float, float] = (0.0, 0.0, 0.0)
    eef: str | None = None
    size: float | None = None

    def __post_init__(self):
        if self.id < 1:
            raise ValidationError(f"part id must be >= 1, got {self.id}")
        if self.task_label not in TASK_LABELS:
            raise ValidationError(
                f"part {self.id}: unknown task label {self.task_label!r}")


@dataclass(frozen=True)
class PartCatalog:
    """All parts of a product, with unique contiguous ids 1..N."""

    parts: tuple[Part, ...]

    def __post_init__(self):
        ids = sorted(p.id for p in self.parts)
        if ids != list(range(1, len(self.parts) + 1)):
            raise ValidationError("part ids must be unique and contiguous 1..N")
        if sum(p.base for p in self.parts) > 1:
            raise ValidationError("at most one part may carry the base label")
        object.__setattr__(self, "_by_id", {p.id: p for p in self.parts})

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[Part]:
        return iter(self.parts)

    def by_id(self, part_id: int) -> Part:
        return self._by_id[part_id]

    def non_ignored_ids(self) -> tuple[int, ...]:
        return tuple(p.id for p in self.parts if not p.ignore)

    def base_part(self) -> Part | None:
        for p in self.parts:
            if p.base:
                return p
        return None


@dataclass
class RelationMatrices:
    """The pairwise relation layers over ``part_order``.

    interference_free: (6, N, N) binary, full-extent translation sweeps.
    constraint_free:   (12, N, N) binary, small-clearance translations and
                       small-angle rotations.
    contact:           (N, N) binary face-adjacency.
    constraint_degree: (N, N) integers in 0..12, 12 minus the count of free
                       constraint directions for the pair.
    """

    part_order: tuple[int, ...]
    interference_free: np.ndarray
    constraint_free: np.ndarray
    contact: np.ndarray
    constraint_degree: np.ndarray

    def __post_init__(self):
        self.part_order = tuple(int(i) for i in self.part_order)

    @property
    def n(self) -> int:
        return len(self.part_order)

    def validate(self, catalog: PartCatalog | None = None) -> None:
        """Check every structural invariant; raise ValidationError on failure."""
        n = self.n
        if len(set(self.part_order)) != n:
            raise ValidationError("part_order contains duplicate ids")
        if catalog is not None and (sorted(self.part_order)
                                    != sorted(catalog.non_ignored_ids())):
            raise ValidationError(
                "part_order must list exactly the non-ignored part ids")
        for name, arr, shape in (
                ("x_if", self.interference_free, (N_TRANSLATIONS, n, n)),
                ("x_cf", self.constraint_free, (N_DIRECTIONS, n, n)),
                ("x_ct", self.contact, (n, n))):
            if arr.shape != shape:
                raise ValidationError(f"{name} must have shape {shape}, "
                                      f"got {arr.shape}", matrix=name)
            _raise_at((arr != 0) & (arr != 1), name, lambda *index: (
                f"{name}{''.join(f'[{i}]' for i in index)} must be 0 or 1, "
                f"got {arr[index]}"))
        for name, arr in (("x_if", self.interference_free),
                          ("x_cf", self.constraint_free)):
            # in each block of six layers (translations, then rotations),
            # layer j + 3 is the transpose of layer j for j = 0, 1, 2
            pairs = arr.reshape(len(arr) // 6, 2, 3, n, n)
            bad = np.zeros(arr.shape, dtype=bool)
            bad.reshape(pairs.shape)[:, 1] = (
                pairs[:, 1] != pairs[:, 0].transpose(0, 1, 3, 2))
            _raise_at(bad, name, lambda j, i, k: (
                f"{name} layer {j + 1} != transpose of layer {j - 2} "
                f"at ({i}, {k})"), TransposeViolation)
        _raise_at(self.contact != self.contact.T, "x_ct",
                  lambda i, k: f"x_ct is not symmetric at ({i}, {k})")
        _raise_at(np.eye(n, dtype=bool) & (self.contact == 1), "x_ct",
                  lambda i, k: f"x_ct diagonal must be zero, violated at "
                               f"({i}, {k})")
        # with every twin checked, the derived degree is symmetric, and so
        # is an x_cs equal to it
        derived = derive_constraint_degree(self.constraint_free)
        _raise_at(self.constraint_degree != derived, "x_cs", lambda i, k: (
            f"x_cs({i}, {k}) = {int(self.constraint_degree[i, k])} does "
            f"not match the value {int(derived[i, k])} derived from x_cf"))
        _raise_at((self.contact == 1) & (self.constraint_degree < 1), "x_cs",
                  lambda i, k: ("parts in contact must have constraint "
                                f"degree >= 1, violated at ({i}, {k})"))


def _raise_at(bad: np.ndarray, matrix: str, message,
              error: type[ValidationError] = ValidationError) -> None:
    """Raise ``error`` at the first true entry of ``bad``, if there is one;
    ``message`` maps that entry's index to the error text."""
    if bad.any():
        index = tuple(int(i) for i in np.argwhere(bad)[0])
        raise error(message(*index), matrix=matrix, index=index)


def derive_constraint_degree(constraint_free: np.ndarray) -> np.ndarray:
    """Constraint degree = 12 minus the number of free directions per pair.

    The diagonal is forced to zero regardless of the layer contents.
    """
    if constraint_free.shape[0] != N_DIRECTIONS:
        raise ValueError(f"expected {N_DIRECTIONS} layers, "
                         f"got {constraint_free.shape[0]}")
    degree = (MAX_CONSTRAINT_DEGREE
              - constraint_free.sum(axis=0)).astype(np.int16)
    np.fill_diagonal(degree, 0)
    return degree


@dataclass(frozen=True)
class Motion:
    """One candidate extraction motion and its per-part collision row.

    ``row`` is indexed by ``part_order``; entry 1 means the swept motion
    avoids that part.  The entry for the moving part itself is meaningless
    and stored as 1.
    """

    id: int
    kind: str
    row: np.ndarray


@dataclass
class MotionTable:
    """Candidate motions per part id; a part may legitimately have none."""

    part_order: tuple[int, ...]
    motions: dict[int, tuple[Motion, ...]]

    def __post_init__(self):
        self.part_order = tuple(int(i) for i in self.part_order)

    def count(self, part_id: int) -> int:
        return len(self.motions.get(part_id, ()))

    def validate(self) -> None:
        n = len(self.part_order)
        known = set(self.part_order)
        for pid, entries in self.motions.items():
            if pid not in known:
                raise ValidationError(
                    f"motion table lists unknown part id {pid}")
            for m in entries:
                if m.row.shape != (n,):
                    raise ValidationError(
                        f"motion {m.id} of part {pid} has row length "
                        f"{m.row.shape[0]}, expected {n}")
                if ((m.row != 0) & (m.row != 1)).any():
                    raise ValidationError(
                        f"motion {m.id} of part {pid} has non-binary entries")


class Dataset(NamedTuple):
    """The loaded product description: catalog, matrices, motion table."""

    catalog: PartCatalog
    matrices: RelationMatrices
    motions: MotionTable


def is_sequence(seq, catalog: PartCatalog) -> bool:
    """True when ``seq`` is a permutation of the non-ignored part ids."""
    return sorted(int(x) for x in seq) == sorted(catalog.non_ignored_ids())


def validate_sequence(seq, catalog: PartCatalog) -> np.ndarray:
    arr = np.asarray(seq, dtype=np.int64)
    if not is_sequence(arr, catalog):
        raise ValueError("sequence is not a permutation of the non-ignored "
                         "part ids")
    return arr


def removal_order(seq) -> np.ndarray:
    """Flip a stored sequence into first-removed-first order (and back)."""
    return np.asarray(seq)[::-1].copy()


def _part_to_json(p: Part) -> dict:
    labels = {"task": p.task_label, "priority": p.priority,
              "base": p.base, "ignore": p.ignore}
    out = {"id": p.id, "name": p.name, "labels": labels,
           "com": [float(c) for c in p.com], "eef": p.eef}
    if p.size is not None:
        out["size"] = float(p.size)
    return out


def _typed_from_json(value, kind: type, where: str):
    """``value`` when it is a JSON integer (``kind`` int), boolean (bool) or
    string (str); a boolean is not an integer here."""
    if type(value) is not kind:
        what = {int: "an integer", bool: "a boolean", str: "a string"}[kind]
        raise SchemaError(f"{where} must be {what}, got {value!r}")
    return value


def _items_from_json(value, where: str) -> list[tuple[str, object]]:
    """(location, item) pairs of the JSON list ``value``."""
    if not isinstance(value, list):
        raise SchemaError(
            f"{where} must be a list, got {type(value).__name__}")
    return [(f"{where}[{j}]", item) for j, item in enumerate(value)]


def _fields_from_json(obj, fields, where: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where} must be an object, got "
                          f"{type(obj).__name__}")
    for name in fields:
        if name not in obj:
            raise SchemaError(f"{where} missing field {name!r}")
    return obj


def _finite_from_json(value, where: str, count: int | None = None):
    """A finite JSON number as a float or, when ``count`` is given, a list
    of ``count`` of them as a tuple of floats."""
    items = [value] if count is None else value
    floats = ()
    if isinstance(items, list) and not any(
            type(x) not in (int, float) for x in items):
        try:
            floats = tuple(map(float, items))
        except OverflowError:      # an integer beyond the float range
            pass
    if len(floats) != (count or 1) or not all(map(math.isfinite, floats)):
        what = ("a finite number" if count is None
                else f"{count} finite numbers")
        raise SchemaError(f"{where} must be {what}, got {value!r}")
    return floats[0] if count is None else floats


def _misfit(value, shape, where: str) -> str | None:
    """Location of the first entry of nested lists ``value`` that does not
    fit ``shape``, or None when the nesting fits."""
    if not shape:
        return None if isinstance(value, (int, float)) else where
    if not isinstance(value, list) or len(value) != shape[0]:
        return where
    for j, item in enumerate(value):
        bad = _misfit(item, shape[1:], f"{where}[{j}]")
        if bad is not None:
            return bad
    return None


def _array_from_json(value, shape, dtype, where: str) -> np.ndarray:
    """Nested lists as a ``dtype`` array.  Every entry must be an integer
    (an integral float passes) in the range of ``dtype``; the dtype is
    inferred first, so nothing is truncated or wrapped on the way."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or arr.shape != shape or arr.dtype.kind not in "biuf":
        bad = _misfit(value, shape, where)
        raise SchemaError(f"{where} must hold {np.dtype(dtype).name} numbers "
                          f"in shape {shape}"
                          + (f"; {bad} does not fit" if bad else ""))
    info = np.iinfo(dtype)
    ok = (arr >= info.min) & (arr <= info.max)
    if arr.dtype.kind == "f":
        ok &= arr == np.floor(arr)
    if not ok.all():
        index = np.argwhere(~ok)[0]
        raise SchemaError(
            f"{where}{''.join(f'[{i}]' for i in index)} must be an integer "
            f"in [{info.min}, {info.max}], got {arr[tuple(index)].item()!r}")
    return arr.astype(dtype)


def _part_from_json(obj, where: str) -> Part:
    obj = _fields_from_json(obj, ("id", "name", "labels", "com"), where)
    labels = _fields_from_json(obj["labels"], ("task",), f"{where}.labels")
    part_id = _typed_from_json(obj["id"], int, f"{where}.id")
    flags = {key: _typed_from_json(labels.get(key, False), bool,
                                   f"{where}.labels.{key}")
             for key in ("priority", "base", "ignore")}
    size = obj.get("size")
    return Part(
        id=part_id,
        name=_typed_from_json(obj["name"], str, f"{where}.name"),
        task_label=_typed_from_json(labels["task"], str,
                                    f"{where}.labels.task"),
        com=_finite_from_json(obj["com"], f"part {part_id}: com", 3),
        eef=obj.get("eef"),
        size=None if size is None else _finite_from_json(size,
                                                         f"{where}.size"),
        **flags,
    )


def _rows_json(block: np.ndarray, top: int, where) -> list[str]:
    """The entries of each last-axis row of ``block``, in C order, as JSON
    integers joined by commas.  An entry outside 0..``top`` raises
    ValueError naming ``where(*index)``."""
    bad = ~((block >= 0) & (block <= top))     # NaN too
    if bad.any():
        index = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValueError(f"{where(*index)} must be in 0..{top} to be "
                         f"written, got {block[index]}")
    # each entry is ``width`` ASCII digits and a separator byte: a comma,
    # or a newline after the last entry of a row; leading zeros are dropped
    values = block.reshape(-1, block.shape[-1]).astype(np.uint8)
    width = len(str(top))
    text = np.empty(values.shape + (width + 1,), dtype=np.uint8)
    keep = np.ones(text.shape, dtype=bool)
    for d in range(width):
        power = 10 ** (width - 1 - d)
        text[..., d] = values // power % 10 + ord("0")
        if d < width - 1:
            keep[..., d] = values >= power
    text[..., width] = ord(",")
    text[:, -1, width] = ord("\n")
    return text[keep].tobytes().decode("ascii").split("\n")[:-1]


def _block_json(block: np.ndarray, top: int, name: str) -> str:
    """JSON text of the nested lists of the integer array ``block``."""
    items = _rows_json(block, top, lambda *index: name + "".join(
        f"[{i}]" for i in index))
    # an item is the text of a list without its brackets
    for size in reversed(block.shape[:-1]):
        items = ["[" + "],[".join(items[i:i + size]) + "]"
                 for i in range(0, len(items), size)]
    return "[" + items[0] + "]"


def dataset_to_json(dataset: Dataset) -> str:
    """Canonical JSON text of a dataset: the bytes that ``json.dumps`` gives
    for its document with sorted keys and compact separators, with every
    integer block rendered from its array."""
    catalog, matrices, motions = dataset
    # sorted as the strings they are written as, so "10" precedes "2"
    keys = sorted((str(pid), pid) for pid in motions.motions)
    listed = [(key, m) for key, pid in keys for m in motions.motions[pid]]
    rows = iter(_rows_json(
        np.array([m.row for _, m in listed]).reshape(len(listed), matrices.n),
        1, lambda r, c: (f"motion {listed[r][1].id} of part {listed[r][0]} "
                         f"row[{c}]")))
    # motion ids and kinds repeat, so each distinct one is encoded once
    encoded = {v: json.dumps(v)
               for v in {v for _, m in listed for v in (m.id, m.kind)}}
    motion_json = ",".join(
        f'"{key}":['
        + ",".join(f'{{"id":{encoded[m.id]},"kind":{encoded[m.kind]},'
                   f'"row":[{next(rows)}]}}' for m in motions.motions[pid])
        + "]" for key, pid in keys)
    compact = {"sort_keys": True, "separators": (",", ":")}
    fields = {  # in sorted key order
        "motions": "{" + motion_json + "}",
        "part_order": json.dumps(list(matrices.part_order), **compact),
        "parts": json.dumps([_part_to_json(p) for p in catalog], **compact),
        "version": json.dumps(DATASET_VERSION),
        **{name: _block_json(block, top, name) for name, block, top in (
            ("x_cf", matrices.constraint_free, 1),
            ("x_cs", matrices.constraint_degree, MAX_CONSTRAINT_DEGREE),
            ("x_ct", matrices.contact, 1),
            ("x_if", matrices.interference_free, 1))},
    }
    return "{" + ",".join(f'"{key}":{text}'
                          for key, text in fields.items()) + "}\n"


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    Path(path).write_text(dataset_to_json(dataset), encoding="utf-8")


def load_dataset(path: str | Path) -> Dataset:
    """Load and fully validate a dataset file.

    Raises DatasetError for a file that cannot be read, SchemaError for
    malformed or version-mismatched files and ValidationError (with matrix
    name and indices) for invariant violations.
    """
    try:
        doc = json.loads(_read_bytes(path).decode("utf-8"))
    except ValueError as exc:      # not UTF-8, or not JSON
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top-level value must be an object")
    version = doc.get("version")
    if type(version) is not int or version != DATASET_VERSION:
        raise SchemaError(
            f"unsupported dataset version {version!r}, "
            f"expected {DATASET_VERSION}")
    _fields_from_json(doc, ("parts", "part_order", "x_if", "x_cf", "x_ct",
                            "motions"), "dataset")

    catalog = PartCatalog(tuple(
        _part_from_json(p, where)
        for where, p in _items_from_json(doc["parts"], "parts")))
    part_order = tuple(
        _typed_from_json(pid, int, where)
        for where, pid in _items_from_json(doc["part_order"], "part_order"))
    n = len(part_order)

    def as_array(key, shape, dtype):
        return _array_from_json(doc[key], shape, dtype, key)

    x_if = as_array("x_if", (N_TRANSLATIONS, n, n), np.uint8)
    x_cf = as_array("x_cf", (N_DIRECTIONS, n, n), np.uint8)
    x_ct = as_array("x_ct", (n, n), np.uint8)
    if doc.get("x_cs") is not None:
        x_cs = as_array("x_cs", (n, n), np.int16)
    else:
        x_cs = derive_constraint_degree(x_cf)
    matrices = RelationMatrices(part_order, x_if, x_cf, x_ct, x_cs)
    matrices.validate(catalog)

    if not isinstance(doc["motions"], dict):
        raise SchemaError("motions must be an object keyed by part id")
    fields: dict[int, list[tuple]] = {}
    for key, entries in doc["motions"].items():
        try:
            pid = int(key)
        except ValueError as exc:
            raise SchemaError(f"motion key {key!r} is not a part id") from exc
        if pid in fields:
            raise SchemaError(f"motion key {key!r} repeats part id {pid}")
        fields[pid] = []
        for where, m in _items_from_json(entries, f"motions[{key!r}]"):
            m = _fields_from_json(m, ("id", "kind", "row"), where)
            fields[pid].append((_typed_from_json(m["id"], int, f"{where}.id"),
                                _typed_from_json(m["kind"], str,
                                                 f"{where}.kind"),
                                m["row"], where))
    # every row in one conversion; when it fails, the rows are converted
    # one at a time so that the error names the first bad motion
    raw = [row for entries in fields.values() for _, _, row, _ in entries]
    try:
        rows = iter(_array_from_json(raw, (len(raw), n), np.uint8, "rows")
                    if raw else ())
    except SchemaError:
        for entries in fields.values():
            for _, _, row, where in entries:
                _array_from_json(row, (n,), np.uint8, f"{where}.row")
        raise
    motion_map = {pid: tuple(Motion(id=i, kind=kind, row=next(rows))
                             for i, kind, _, _ in entries)
                  for pid, entries in fields.items()}
    motions = MotionTable(part_order, motion_map)
    motions.validate()
    return Dataset(catalog, matrices, motions)


def _read_bytes(path: str | Path) -> bytes:
    """The bytes of the dataset file at ``path``; a file that cannot be read
    (missing, a directory, no permission) is a DatasetError naming it."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc.strerror}") from exc


def dataset_digest(path: str | Path) -> str:
    """Hex SHA-256 of the dataset file bytes, for run provenance logs."""
    return hashlib.sha256(_read_bytes(path)).hexdigest()


def dataset_content_digest(dataset: Dataset) -> str:
    """Digest of an in-memory dataset's canonical serialization."""
    return hashlib.sha256(dataset_to_json(dataset).encode()).hexdigest()
