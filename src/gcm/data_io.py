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
    DomainError,
    MalformedRecordError,
    UnsortedGroupError,
    VersionMismatchError,
)
from .expansion import (AffineScaler, ExpansionSpec, FeaturePipeline,
                        monomial_exponents)
from .model import (
    DEFAULT_BLOCK_ROWS,
    Dataset,
    GroupBlock,
    Hyperparams,
    LinearModel,
    _column_major_copy,
    group_starts,
    partition_groups,
    validate_groups,
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


def _group_ids(records: np.ndarray, path) -> np.ndarray:
    """The records' u64 group ids as int64, checked to be sorted.

    Ids of 2**63 and above are refused. The order is checked after the cast,
    because differences of unsigned ids wrap instead of going negative.
    """
    ids = records["group_id"]
    if len(ids) and ids.max() > np.iinfo(np.int64).max:
        raise MalformedRecordError("group_id must be below 2**63", str(path))
    ids = ids.astype(np.int64)
    if np.any(np.diff(ids) < 0):
        raise UnsortedGroupError("rows are not sorted by group id", str(path))
    return ids


class BinaryDatasetReader:
    """Single-pass streaming access to a binary dataset file.

    Iterating yields the same group-aligned blocks as
    :meth:`Dataset.iter_group_blocks` over the identical data, cut by the
    same :func:`~gcm.model.partition_groups`, so objective values computed
    either way agree bit-for-bit. Each block goes through the same
    :func:`~gcm.model.validate_groups` as :class:`Dataset`, so a broken group
    invariant raises the same error type, located at ``group <id> in
    <path>``. Each block's features are a column-major copy, as in
    :class:`Dataset`, and a NaN or infinite feature raises
    :class:`MalformedRecordError` at the same location. Memory stays bounded
    by one read chunk plus two blocks, where a group larger than the block
    budget counts as a block.
    """

    def __init__(self, path, read_chunk_rows: int = DEFAULT_BLOCK_ROWS):
        self.path = path
        self.read_chunk_rows = read_chunk_rows
        with open(path, "rb") as fh:
            self.d, self.n_rows = _read_header(fh, path)
        self._dtype = _record_dtype(self.d)

    def iter_group_blocks(self, max_rows: int = DEFAULT_BLOCK_ROWS):
        """Yield blocks of whole groups, each at most ``max_rows`` rows.

        Each read chunk is appended to the rows not yet yielded, and those
        rows are cut into blocks. The last block holds the last group, which
        the next chunk may continue, so it is held back until end of file.
        A read takes at least as many rows as are held back, so copying them
        forward costs no more than the read itself.
        """
        with open(self.path, "rb") as fh:
            fh.seek(_HEADER_DTYPE.itemsize)
            tail = np.empty(0, dtype=self._dtype)
            seen = 0
            eof = False
            while not eof:
                want = max(self.read_chunk_rows, len(tail))
                buf = np.empty(len(tail) + want, dtype=self._dtype)
                buf[:len(tail)] = tail
                # a partial record at a truncated end is dropped here and
                # caught by the row count check
                got = fh.readinto(buf[len(tail):].view(np.uint8))
                got //= self._dtype.itemsize
                seen += got
                eof = got < want
                buf = buf[:len(tail) + got]
                if len(buf) == 0:
                    break
                gids = _group_ids(buf, self.path)
                starts = group_starts(gids)
                cuts = partition_groups(starts, max_rows)
                if not eof:
                    cuts = cuts[:-1]
                for k, j in zip(cuts[:-1], cuts[1:]):
                    lo, hi = starts[k], starts[j]
                    rows = buf[lo:hi]
                    labels = rows["label"].astype(np.int8)
                    is_key = rows["is_key"].astype(bool)
                    block_ids = gids[lo:hi]
                    block_starts = starts[k:j + 1] - lo
                    validate_groups(labels, is_key, block_ids, block_starts,
                                    self.path)
                    yield GroupBlock(
                        X=_column_major_copy(rows["features"], block_ids,
                                             self.path),
                        labels=labels,
                        is_key=is_key,
                        group_ids=block_ids,
                        starts=block_starts,
                    )
                tail = buf[starts[cuts[-1]]:]
            if seen != self.n_rows:
                raise MalformedRecordError(
                    f"header promises {self.n_rows} rows, file holds {seen}",
                    str(self.path),
                )


def load_binary(path) -> Dataset:
    """Load a whole binary dataset into memory.

    The record fields go to :class:`Dataset` as strided views, so its copies
    are the only copies of them.
    """
    with open(path, "rb") as fh:
        d, n_rows = _read_header(fh, path)
        records = np.fromfile(fh, dtype=_record_dtype(d), count=n_rows)
        if len(records) != n_rows:
            raise MalformedRecordError(
                f"header promises {n_rows} rows, file holds {len(records)}",
                str(path),
            )
    return Dataset(records["features"], records["label"],
                   _group_ids(records, path), records["is_key"])


def load_dataset(path) -> Dataset:
    """Load a dataset file: binary if it starts with the magic, else text."""
    with open(path, "rb") as fh:
        is_binary = fh.read(4) == BINARY_MAGIC
    return load_binary(path) if is_binary else load_text(path)


# -- model persistence -----------------------------------------------------------


@dataclass(frozen=True)
class SavedModel:
    """A trained model, its hyperparameters, and the feature pipeline it
    applies behind; the model's width must be the pipeline's output width."""

    model: LinearModel
    hyperparams: Hyperparams
    pipeline: FeaturePipeline
    provenance: dict

    def __post_init__(self):
        if self.model.d != self.pipeline.output_d:
            raise DomainError(f"model has {self.model.d} weights, its feature "
                              f"pipeline outputs {self.pipeline.output_d}")


def save_model(path, model: LinearModel, hyperparams: Hyperparams, *,
               pipeline: FeaturePipeline | None = None,
               provenance: dict | None = None):
    """Persist a model with its hyperparameters and feature pipeline; no
    pipeline means the identity on the model's features."""
    pipeline = FeaturePipeline(model.d) if pipeline is None else pipeline
    saved = SavedModel(model, hyperparams, pipeline, provenance or {})
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
        "expansion": None if pipeline.expansion is None else {
            "degree": pipeline.expansion.degree,
            "input_d": pipeline.input_d,
            "feature_order": [list(e) for e in monomial_exponents(
                pipeline.input_d, pipeline.expansion.degree)],
        },
        "scaler": None if pipeline.scaler is None else {
            "shift": [float(v) for v in pipeline.scaler.shift],
            "scale": [float(v) for v in pipeline.scaler.scale],
        },
        "provenance": saved.provenance,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path) -> SavedModel:
    """Load a model file; a bad format, version or field (the monomial
    order included) raises a :class:`DataFormatError` located at ``path``."""
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
    try:
        model = LinearModel(w=np.array(doc["w"], dtype=np.float64), b=doc["b"])
        if model.d != doc["d"]:
            raise DomainError("weight count disagrees with d")
        hp = doc["hyperparams"]
        lift, scaler = doc.get("expansion"), doc.get("scaler")
        pipeline = FeaturePipeline(
            lift["input_d"] if lift else model.d,
            ExpansionSpec(lift["degree"]) if lift else None,
            AffineScaler(scaler["shift"], scaler["scale"]) if scaler else None)
        saved = SavedModel(
            model, Hyperparams(hp["lambda"], hp["epsilon"], hp["delta"]),
            pipeline, doc.get("provenance", {}))
        # last, so that the weight count bounds the order's length
        if lift and [tuple(e) for e in lift["feature_order"]] != \
                monomial_exponents(lift["input_d"], lift["degree"]):
            raise DomainError("recorded monomial order is not the expansion's")
    except (KeyError, TypeError, ValueError) as exc:
        # missing, of the wrong kind, or out of range (a DomainError)
        raise MalformedRecordError(
            f"model field missing or malformed: {exc}", str(path)) from None
    return saved
