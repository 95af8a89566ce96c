"""Dataset ingestion (text and streaming binary) and model persistence.

Text datasets are CSV with header ``group_id,label,is_key,f1..fd``. Binary
datasets are little-endian fixed-width records sorted by group id, sized for
the hundreds-of-millions-of-rows regime: sortedness makes every group one
contiguous run, so the reader can stream group-aligned blocks in one pass
within a fixed memory ceiling. Models are stored as JSON; floats round-trip
bit-exactly via their shortest repr.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataFormatError,
    MalformedRecordError,
    UnsortedGroupError,
    VersionMismatchError,
)
from .expansion import AffineScaler, ExpansionSpec, monomial_exponents
from .model import (
    DEFAULT_BLOCK_ROWS,
    Dataset,
    GroupBlock,
    Hyperparams,
    LinearModel,
    _column_major_copy,
)

BINARY_MAGIC = b"GCMB"
BINARY_VERSION = 1
_HEADER_DTYPE = np.dtype([
    ("magic", "S4"), ("version", "<u4"), ("d", "<u4"), ("n_rows", "<u8"),
])

MODEL_FORMAT = "gcm-model"
MODEL_VERSION = 1


def _record_dtype(d: int) -> np.dtype:
    return np.dtype([
        ("group_id", "<u8"),
        ("label", "i1"),
        ("is_key", "u1"),
        ("features", "<f8", (d,)),
    ])


# -- text format ---------------------------------------------------------------


def save_text(data: Dataset, path):
    """Write a dataset in the CSV text format."""
    header = "group_id,label,is_key," + ",".join(
        f"f{j + 1}" for j in range(data.d)
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for i in range(data.n_rows):
            feats = ",".join(repr(float(v)) for v in data.X[i])
            fh.write(
                f"{data.group_ids[i]},{'+1' if data.labels[i] == 1 else '-1'},"
                f"{1 if data.is_key[i] else 0},{feats}\n"
            )


def load_text(path) -> Dataset:
    """Parse the CSV text format; rows are sorted by group id on ingest."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        cols = header.split(",")
        if cols[:3] != ["group_id", "label", "is_key"] or len(cols) < 4:
            raise MalformedRecordError(
                "header must be group_id,label,is_key,f1..fd", "line 1"
            )
        d = len(cols) - 3
        group_ids, labels, is_key, rows = [], [], [], []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3 + d:
                raise MalformedRecordError(
                    f"expected {3 + d} fields, got {len(parts)}", f"line {lineno}"
                )
            try:
                gid = int(parts[0])
                label = int(parts[1])
                key = int(parts[2])
                feats = [float(v) for v in parts[3:]]
            except ValueError as exc:
                raise MalformedRecordError(str(exc), f"line {lineno}") from exc
            if label not in (1, -1):
                raise MalformedRecordError(
                    f"label must be +1 or -1, got {parts[1]}", f"line {lineno}"
                )
            if key not in (0, 1):
                raise MalformedRecordError(
                    f"is_key must be 0 or 1, got {parts[2]}", f"line {lineno}"
                )
            group_ids.append(gid)
            labels.append(label)
            is_key.append(bool(key))
            rows.append(feats)
    if not rows:
        raise MalformedRecordError("dataset has no rows", "line 2")
    return Dataset(np.array(rows, dtype=np.float64), labels, group_ids, is_key)


# -- binary format ---------------------------------------------------------------


def save_binary(data: Dataset, path):
    """Write the fixed-width binary format (rows already sorted by group)."""
    header = np.zeros(1, dtype=_HEADER_DTYPE)
    header["magic"] = BINARY_MAGIC
    header["version"] = BINARY_VERSION
    header["d"] = data.d
    header["n_rows"] = data.n_rows
    records = np.empty(data.n_rows, dtype=_record_dtype(data.d))
    records["group_id"] = data.group_ids
    records["label"] = data.labels
    records["is_key"] = data.is_key
    records["features"] = data.X
    with open(path, "wb") as fh:
        header.tofile(fh)
        records.tofile(fh)


def _read_header(fh, path) -> tuple[int, int]:
    raw = fh.read(_HEADER_DTYPE.itemsize)
    if len(raw) < _HEADER_DTYPE.itemsize:
        raise MalformedRecordError("file too short for header", str(path))
    header = np.frombuffer(raw, dtype=_HEADER_DTYPE)[0]
    if bytes(header["magic"]) != BINARY_MAGIC:
        raise MalformedRecordError("not a binary dataset file", str(path))
    if int(header["version"]) != BINARY_VERSION:
        raise VersionMismatchError(
            f"binary dataset version {int(header['version'])} is not supported",
            str(path),
        )
    return int(header["d"]), int(header["n_rows"])


class BinaryDatasetReader:
    """Single-pass streaming access to a binary dataset file.

    Iterating yields the same group-aligned blocks as
    :meth:`Dataset.iter_group_blocks` over the identical data, so objective
    values computed either way agree bit-for-bit. Each block's features are
    a column-major copy, as in :class:`Dataset`, and a NaN feature raises
    :class:`MalformedRecordError` at ``group <id> in <path>``. Memory stays
    bounded by the block budget plus one group.
    """

    def __init__(self, path, read_chunk_rows: int = DEFAULT_BLOCK_ROWS):
        self.path = path
        self.read_chunk_rows = read_chunk_rows
        with open(path, "rb") as fh:
            self.d, self.n_rows = _read_header(fh, path)
        self._dtype = _record_dtype(self.d)

    def _iter_groups(self):
        """Yield one complete group (structured array) at a time."""
        with open(self.path, "rb") as fh:
            fh.seek(_HEADER_DTYPE.itemsize)
            tail = np.empty(0, dtype=self._dtype)
            seen = 0
            last_emitted_gid = -1
            while True:
                chunk = np.fromfile(fh, dtype=self._dtype,
                                    count=self.read_chunk_rows)
                seen += len(chunk)
                eof = len(chunk) < self.read_chunk_rows
                buf = np.concatenate([tail, chunk]) if len(tail) else chunk
                if len(buf) == 0:
                    break
                gids = buf["group_id"].astype(np.int64)
                if np.any(np.diff(gids) < 0) or gids[0] < last_emitted_gid:
                    raise UnsortedGroupError(
                        "rows are not sorted by group id", str(self.path)
                    )
                # Groups are complete up to the start of the final run unless
                # the file ended.
                boundaries = np.flatnonzero(np.diff(gids)) + 1
                cut = len(buf) if eof else (boundaries[-1] if len(boundaries) else 0)
                lo = 0
                for hi in [*list(boundaries[boundaries <= cut]), cut]:
                    if hi > lo:
                        last_emitted_gid = int(gids[lo])
                        yield self._validated(buf[lo:hi])
                    lo = hi
                tail = buf[cut:]
                if eof:
                    if len(tail):
                        yield self._validated(tail)
                    break
            if seen != self.n_rows:
                raise MalformedRecordError(
                    f"header promises {self.n_rows} rows, file holds {seen}",
                    str(self.path),
                )

    def _validated(self, group: np.ndarray) -> np.ndarray:
        gid = int(group["group_id"][0])
        labels = group["label"]
        if np.any(np.abs(labels) != 1):
            raise MalformedRecordError(
                "label must be +1 or -1", f"group {gid} in {self.path}"
            )
        if np.any(labels != labels[0]):
            raise DataFormatError(
                "group mixes positive and negative rows",
                f"group {gid} in {self.path}",
            )
        n_keys = int(np.count_nonzero(group["is_key"]))
        if labels[0] == 1 and n_keys != 1:
            raise DataFormatError(
                f"positive group must have exactly one key, found {n_keys}",
                f"group {gid} in {self.path}",
            )
        if labels[0] == -1 and n_keys:
            raise MalformedRecordError(
                "is_key is only valid on positive rows",
                f"group {gid} in {self.path}",
            )
        return group

    def iter_group_blocks(self, max_rows: int = DEFAULT_BLOCK_ROWS):
        """Yield blocks of whole groups, each at most ``max_rows`` rows."""
        pending: list[np.ndarray] = []
        pending_rows = 0
        row_offset = 0
        for group in self._iter_groups():
            if pending and pending_rows + len(group) > max_rows:
                yield self._as_block(pending, row_offset)
                row_offset += pending_rows
                pending, pending_rows = [], 0
            pending.append(group)
            pending_rows += len(group)
        if pending:
            yield self._as_block(pending, row_offset)

    def _as_block(self, groups: list[np.ndarray], row_offset: int) -> GroupBlock:
        rows = np.concatenate(groups) if len(groups) > 1 else groups[0]
        sizes = np.array([len(g) for g in groups], dtype=np.int64)
        starts = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        group_ids = rows["group_id"].astype(np.int64)
        return GroupBlock(
            X=_column_major_copy(rows["features"], group_ids, self.path),
            labels=rows["label"].astype(np.int8),
            is_key=rows["is_key"].astype(bool),
            group_ids=group_ids,
            starts=starts,
            row_offset=row_offset,
        )


def load_binary(path) -> Dataset:
    """Load a whole binary dataset into memory.

    The features go to :class:`Dataset` as a strided view of the records, so
    its column-major copy is the only copy of them.
    """
    with open(path, "rb") as fh:
        d, n_rows = _read_header(fh, path)
        records = np.fromfile(fh, dtype=_record_dtype(d), count=n_rows)
        if len(records) != n_rows:
            raise MalformedRecordError(
                f"header promises {n_rows} rows, file holds {len(records)}",
                str(path),
            )
    gids = records["group_id"].astype(np.int64)
    if np.any(np.diff(gids) < 0):
        raise UnsortedGroupError("rows are not sorted by group id", str(path))
    return Dataset(
        records["features"],
        records["label"].astype(np.int8),
        gids,
        records["is_key"].astype(bool),
    )


def load_dataset(path, fmt: str = "auto") -> Dataset:
    """Load a dataset file; ``fmt`` is ``text``, ``binary`` or ``auto``."""
    if fmt == "auto":
        with open(path, "rb") as fh:
            fmt = "binary" if fh.read(4) == BINARY_MAGIC else "text"
    if fmt == "binary":
        return load_binary(path)
    if fmt == "text":
        return load_text(path)
    raise MalformedRecordError(f"unknown dataset format {fmt!r}")


# -- model persistence -----------------------------------------------------------


@dataclass(frozen=True)
class SavedModel:
    """A trained model plus everything needed to apply it."""

    model: LinearModel
    hyperparams: Hyperparams
    expansion: ExpansionSpec | None
    input_d: int
    feature_order: list[tuple[int, ...]] | None
    scaler: AffineScaler | None
    provenance: dict


def save_model(path, model: LinearModel, hyperparams: Hyperparams, *,
               expansion: ExpansionSpec | None = None,
               input_d: int | None = None,
               scaler: AffineScaler | None = None,
               provenance: dict | None = None):
    """Persist a model with its hyperparameters and feature pipeline."""
    input_d = model.d if input_d is None else input_d
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "d": model.d,
        "w": [float(v) for v in model.w],
        "b": model.b,
        "hyperparams": {
            "lambda": hyperparams.lam,
            "epsilon": hyperparams.epsilon,
            "delta": hyperparams.delta,
        },
        "expansion": None if expansion is None else {
            "degree": expansion.degree,
            "input_d": input_d,
            "feature_order": [
                list(e) for e in monomial_exponents(input_d, expansion.degree)
            ],
        },
        "scaler": None if scaler is None else {
            "shift": [float(v) for v in scaler.shift],
            "scale": [float(v) for v in scaler.scale],
        },
        "provenance": provenance or {},
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path) -> SavedModel:
    """Load a model file, checking format and version."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MalformedRecordError(f"not a model file: {exc}", str(path))
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise MalformedRecordError("not a model file", str(path))
    if doc.get("version") != MODEL_VERSION:
        raise VersionMismatchError(
            f"model version {doc.get('version')} is not supported", str(path)
        )
    model = LinearModel(w=np.array(doc["w"], dtype=np.float64), b=doc["b"])
    if model.d != doc["d"]:
        raise MalformedRecordError("weight count disagrees with d", str(path))
    hp = doc["hyperparams"]
    hyperparams = Hyperparams(hp["lambda"], hp["epsilon"], hp["delta"])
    expansion = None
    input_d = model.d
    feature_order = None
    if doc.get("expansion"):
        expansion = ExpansionSpec(degree=doc["expansion"]["degree"])
        input_d = doc["expansion"]["input_d"]
        feature_order = [tuple(e) for e in doc["expansion"]["feature_order"]]
    scaler = None
    if doc.get("scaler"):
        scaler = AffineScaler(
            np.array(doc["scaler"]["shift"], dtype=np.float64),
            np.array(doc["scaler"]["scale"], dtype=np.float64),
        )
    return SavedModel(
        model=model,
        hyperparams=hyperparams,
        expansion=expansion,
        input_d=input_d,
        feature_order=feature_order,
        scaler=scaler,
        provenance=doc.get("provenance", {}),
    )
