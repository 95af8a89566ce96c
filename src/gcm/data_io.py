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
import os
import warnings
from dataclasses import dataclass

import numpy as np

from ._floattext import csv_lines, float_text, int_text
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
#: Most features a record can hold: numpy item sizes are C ints, and a
#: record is 10 bytes plus 8 per feature.
_MAX_D = (np.iinfo(np.intc).max - 10) // 8

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


#: Features formatted per write of :func:`save_text`.
_TEXT_CHUNK_VALUES = 1 << 16
#: The text of a label (-1, +1) and of a key flag (0, 1), by index.
_LABEL_TEXT = np.frombuffer(b"-1+1", dtype=np.uint8).reshape(2, 2)
_KEY_TEXT = np.frombuffer(b"01", dtype=np.uint8).reshape(2, 1)


def save_text(data: Dataset, path):
    """Write a dataset in the CSV text format, each feature as its ``repr``,
    in chunks of about ``_TEXT_CHUNK_VALUES`` features."""
    header = "group_id,label,is_key," + ",".join(
        f"f{j + 1}" for j in range(data.d)
    )
    rows = max(1, _TEXT_CHUNK_VALUES // data.d)
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for lo in range(0, data.n_rows, rows):
            hi = min(lo + rows, data.n_rows)
            feats = float_text(data.X[lo:hi]).reshape(hi - lo, data.d, -1)
            fh.write(csv_lines([
                int_text(data.group_ids[lo:hi]),
                _LABEL_TEXT[(data.labels[lo:hi] == 1).view(np.uint8)],
                _KEY_TEXT[data.is_key[lo:hi].view(np.uint8)],
                *feats.transpose(1, 0, 2)]))


def load_text(path) -> Dataset:
    """Parse the CSV text format, in UTF-8, all rows at once; rows are sorted
    by group id on ingest. A bad row is found by bisection and named."""
    with open(path, "rb") as fh:  # lines end at \n, \r or \r\n
        lines = fh.read().splitlines() or [b""]
    cols = lines[0].strip().split(b",")
    if cols[:3] != [b"group_id", b"label", b"is_key"] or len(cols) < 4:
        raise MalformedRecordError(
            "header must be group_id,label,is_key,f1..fd", "line 1")
    dtype = _record_dtype(len(cols) - 3)
    rows = [line for line in lines[1:] if line.strip()]
    if not rows:
        raise MalformedRecordError("dataset has no rows", "line 2")
    try:
        records = _text_records(rows, dtype)
    except ValueError as exc:
        lo, hi = 0, len(rows)  # rows parse alone: rows[lo:hi] holds a bad one
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                _text_records(rows[lo:mid], dtype)
                lo = mid
            except ValueError as first:
                hi, exc = mid, first
        lineno = [n for n, line in enumerate(lines[1:], 2) if line.strip()][lo]
        raise MalformedRecordError(  # numpy's row number counts within rows
            str(exc).split(" at row ")[0], f"line {lineno}") from None
    return Dataset(records["features"], records["label"],
                   records["group_id"].astype(np.int64), records["is_key"])


def _oversized(ids: np.ndarray) -> np.ndarray:
    """Per u64 group id, whether it is 2**63 or more, past int64."""
    return ids > np.iinfo(np.int64).max


def _text_records(rows: list, dtype: np.dtype) -> np.ndarray:
    """CSV ``rows`` as records of the binary layout ``dtype``; ValueError if
    a row does not parse or holds an id, label or key flag out of range."""
    with warnings.catch_warnings():  # numpy 1.x reads int "1.5" as 1, warned
        warnings.filterwarnings("error", ".*integer via a float",
                                DeprecationWarning)
        records = np.loadtxt(rows, dtype, delimiter=",", comments=None,
                             ndmin=1, encoding="utf-8")
    if np.any(_oversized(records["group_id"])
              | (np.abs(records["label"]) != 1) | (records["is_key"] > 1)):
        raise ValueError("need group_id < 2**63, label +1 or -1, is_key 0 or 1")
    return records


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
    """Check an open binary dataset file whole; return its ``d, n_rows``.

    The header must promise ``1 <= d <= _MAX_D`` and ``n_rows >= 1``, and the
    file must be exactly ``20 + n_rows * (10 + 8 * d)`` bytes. Leaves ``fh``
    at row 0.
    """
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
    d, n_rows = int(header["d"]), int(header["n_rows"])
    if not 1 <= d <= _MAX_D or n_rows < 1:
        raise MalformedRecordError(
            f"header must promise 1 <= d <= {_MAX_D} and n_rows >= 1, "
            f"got d = {d} and n_rows = {n_rows}", str(path))
    # a record is a u8 group id, an i1 label, a u1 key flag and d float64s
    expected = _HEADER_DTYPE.itemsize + n_rows * (10 + 8 * d)
    size = os.fstat(fh.fileno()).st_size
    if size != expected:
        raise MalformedRecordError(
            f"header promises {n_rows} rows of {d} features in {expected} "
            f"bytes, file has {size} bytes", str(path))
    return d, n_rows


def _read_records(fh, records: np.ndarray, path):
    """Fill ``records`` from ``fh``; after :func:`_read_header`, a short read
    means the file shrank while it was read."""
    if fh.readinto(records.view(np.uint8)) != records.nbytes:
        raise MalformedRecordError("file shrank while it was read", str(path))


def _group_ids(records: np.ndarray, path) -> np.ndarray:
    """The records' u64 group ids as int64, checked to be sorted.

    Ids of 2**63 and above are refused. The order is checked after the cast,
    because differences of unsigned ids wrap instead of going negative.
    """
    ids = records["group_id"]
    if _oversized(ids).any():
        raise MalformedRecordError("group_id must be below 2**63", str(path))
    ids = ids.astype(np.int64)
    if np.any(np.diff(ids) < 0):
        raise UnsortedGroupError("rows are not sorted by group id", str(path))
    return ids


class BinaryDatasetReader:
    """Single-pass streaming access to a binary dataset file.

    The file is checked whole (:func:`_read_header`) at construction and at
    every pass. Iterating yields the same group-aligned blocks as
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
        if read_chunk_rows < 1:
            raise DomainError(f"read_chunk_rows must be >= 1, got {read_chunk_rows}")
        self.path = path
        self.read_chunk_rows = read_chunk_rows
        with open(path, "rb") as fh:
            self.d, self.n_rows = _read_header(fh, path)
        self._dtype = _record_dtype(self.d)

    def iter_group_blocks(self, max_rows: int = DEFAULT_BLOCK_ROWS):
        """Yield blocks of whole groups, each at most ``max_rows`` rows.

        Each read chunk is appended to the rows not yet yielded, and those
        rows are cut into blocks. The last block holds the last group, which
        the next chunk may continue, so it is held back until the last chunk.
        A read takes at least as many rows as are held back, so copying them
        forward costs no more than the read itself.
        """
        with open(self.path, "rb") as fh:
            if _read_header(fh, self.path) != (self.d, self.n_rows):
                raise MalformedRecordError("file changed since it was opened",
                                           str(self.path))
            tail = np.empty(0, dtype=self._dtype)
            left = self.n_rows
            while left:
                want = min(max(self.read_chunk_rows, len(tail)), left)
                buf = np.empty(len(tail) + want, dtype=self._dtype)
                buf[:len(tail)] = tail
                _read_records(fh, buf[len(tail):], self.path)
                left -= want
                gids = _group_ids(buf, self.path)
                starts = group_starts(gids)
                cuts = partition_groups(starts, max_rows)
                if left:
                    cuts = cuts[:-1]
                for k, j in zip(cuts[:-1], cuts[1:]):
                    lo, hi = starts[k], starts[j]
                    rows = buf[lo:hi]
                    labels = rows["label"].astype(np.int8)
                    is_key = rows["is_key"].copy()  # contiguous: checks fast
                    block_ids = gids[lo:hi]
                    block_starts = starts[k:j + 1] - lo
                    validate_groups(labels, is_key, block_ids, block_starts,
                                    self.path)
                    yield GroupBlock(
                        X=_column_major_copy(rows["features"], block_ids,
                                             self.path),
                        labels=labels,
                        is_key=is_key.astype(bool),
                        group_ids=block_ids,
                        starts=block_starts,
                    )
                tail = buf[starts[cuts[-1]]:]


def load_binary(path) -> Dataset:
    """Load a whole binary dataset into memory.

    The record fields go to :class:`Dataset` as strided views, so its copies
    are the only copies of them.
    """
    with open(path, "rb") as fh:
        d, n_rows = _read_header(fh, path)
        records = np.empty(n_rows, dtype=_record_dtype(d))
        _read_records(fh, records, path)
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
        except ValueError as exc:  # not JSON, or not UTF-8
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
