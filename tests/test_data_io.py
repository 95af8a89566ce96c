import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcm import (
    BinaryDatasetReader,
    DataFormatError,
    Dataset,
    DomainError,
    ExpansionSpec,
    FeaturePipeline,
    GeneratorSpec,
    Hyperparams,
    LinearModel,
    MalformedRecordError,
    MissingKeyError,
    MixedLabelGroupError,
    MultipleKeysError,
    UnsortedGroupError,
    VersionMismatchError,
    eval_grouped,
    generate,
    load_binary,
    load_dataset,
    load_model,
    load_text,
    save_binary,
    save_model,
    save_text,
)
from gcm.data_io import (BINARY_MAGIC, _HEADER_DTYPE, _record_dtype,
                         _text_records)
from gcm.expansion import AffineScaler, monomial_exponents
from conftest import build_grouped_dataset


class TestTextFormat:
    def test_round_trip(self, tmp_path, rng):
        ds = build_grouped_dataset(rng, 3, 4, 1, 4, 3)
        path = tmp_path / "data.csv"
        save_text(ds, path)
        again = load_text(path)
        assert np.array_equal(again.X, ds.X)
        assert np.array_equal(again.labels, ds.labels)
        assert np.array_equal(again.group_ids, ds.group_ids)
        assert np.array_equal(again.is_key, ds.is_key)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,key,f1\n0,1,1,0.5\n")
        with pytest.raises(MalformedRecordError, match="line 1"):
            load_text(path)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("group_id,label,is_key,f1,f2\n0,+1,1,0.5\n")
        with pytest.raises(MalformedRecordError, match="line 2"):
            load_text(path)

    def test_non_numeric_feature_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "group_id,label,is_key,f1\n0,+1,1,0.5\n1,-1,0,oops\n")
        with pytest.raises(MalformedRecordError, match="line 3"):
            load_text(path)

    def test_bad_label_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("group_id,label,is_key,f1\n0,2,0,0.5\n")
        with pytest.raises(MalformedRecordError, match="line 2"):
            load_text(path)

    def test_negative_group_id_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("group_id,label,is_key,f1,f2\n0,+1,1,0.5,0.5\n"
                        "-3,1,0,1,2\n")
        with pytest.raises(MalformedRecordError) as err:
            load_text(path)
        assert err.value.location == "line 3"

    def test_group_id_from_2_to_the_63_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("group_id,label,is_key,f1\n0,+1,1,0.5\n"
                        "9223372036854775808,-1,0,1.0\n")
        with pytest.raises(MalformedRecordError) as err:
            load_text(path)
        assert err.value.location == "line 3"

    @pytest.mark.parametrize("text, line", [
        (b"group_id,label,is_key,f1\n0,+1,1,0.5\n1,-1,0,\xff\n", 3),
        (b"group_\xe9id,label,is_key,f1\n0,+1,1,0.5\n", 1),
        (b"group_id,label,is_key,f1\r\n\r\n0,+1,1,0.5\r1,-1,0,\xc3\n", 4),
        # Python's int() and float() take digit underscores; the format not
        (b"group_id,label,is_key,f1\n0,+1,1,0.5\n1_0,-1,0,1.0\n", 3),
        (b"group_id,label,is_key,f1\n0,+1,1,0.5\n1,-1,0,1_0.5\n", 3),
        # ids, labels and key flags are integers, never read through a float
        (b"group_id,label,is_key,f1\n0,1.5,1,0.5\n", 2),
        (b"group_id,label,is_key,f1\n0,+1,0.9,0.5\n", 2),
        (b"group_id,label,is_key,f1\n0,257,1,0.5\n", 2),
        (b"group_id,label,is_key,f1\n0,+1,1,0.5\n1e1,-1,0,1.0\n", 3),
        (b"group_id,label,is_key,f1\n0,+1,1,0.5\n1,-1.9,0,1.0\n", 3),
        # the first bad line is named, whichever check it fails
        (b"group_id,label,is_key,f1\n0,+1,1,0.5\n\n1,2,0,1\n1,-1,0,x\n", 4),
        (b"group_id,label,is_key,f1\n" + b"0,+1,1,0.5\n" * 40
         + b"1,-1,0,x\n" + b"1,-1,0,1\n" * 9 + b"2,-1,2,1\n", 42),
    ])
    def test_bytes_that_do_not_parse_name_their_line(self, tmp_path, text,
                                                     line):
        path = tmp_path / "bad.csv"
        path.write_bytes(text)
        with pytest.raises(MalformedRecordError) as err:
            load_text(path)
        assert err.value.location == f"line {line}"

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=8),
           st.sampled_from(["{!r}", "{:.17g}", "{:.25g}", "{:.3e}"]))
    def test_features_parse_as_python_floats(self, values, form):
        texts = [form.format(v) for v in values]
        records = _text_records([",".join(["0", "+1", "1", *texts]).encode()],
                                _record_dtype(len(texts)))
        assert records["features"].tobytes() == np.array(
            [float(t) for t in texts]).tobytes()

    def test_features_written_as_repr(self, tmp_path):
        X = np.array([[0.1, -2.5e-300], [1e16, -0.0], [5e-324, 123.0]])
        ds = Dataset(X, [1, -1, -1], [2**62, 7, 7], [1, 0, 0])
        path = tmp_path / "data.csv"
        save_text(ds, path)
        lines = [f"{gid},{label:+d},{int(key)},{a!r},{b!r}" for gid, label,
                 key, (a, b) in zip(ds.group_ids.tolist(), ds.labels.tolist(),
                                    ds.is_key.tolist(), ds.X.tolist())]
        assert path.read_text() == "\n".join(
            ["group_id,label,is_key,f1,f2", *lines]) + "\n"

    def test_missing_key_names_group(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "group_id,label,is_key,f1\n7,+1,0,0.5\n7,+1,0,0.6\n8,-1,0,0.1\n")
        with pytest.raises(MissingKeyError, match="group 7"):
            load_text(path)

    def test_unsorted_text_is_sorted_on_ingest(self, tmp_path):
        path = tmp_path / "shuffled.csv"
        path.write_text(
            "group_id,label,is_key,f1\n"
            "9,-1,0,1.5\n0,+1,1,2.5\n9,-1,0,3.5\n")
        ds = load_text(path)
        assert list(ds.group_ids) == [0, 9, 9]
        assert list(ds.X[:, 0]) == [2.5, 1.5, 3.5]


class TestBinaryFormat:
    def test_round_trip_byte_identical(self, tmp_path, rng):
        ds = build_grouped_dataset(rng, 4, 5, 1, 6, 5)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_binary(ds, p1)
        save_binary(load_binary(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(MalformedRecordError):
            load_binary(path)

    def test_rejects_unsupported_version(self, tmp_path, rng):
        ds = build_grouped_dataset(rng, 1, 1, 1, 2, 2)
        path = tmp_path / "v9.bin"
        save_binary(ds, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatchError):
            load_binary(path)

    def test_rejects_truncated_file(self, tmp_path, rng):
        ds = build_grouped_dataset(rng, 2, 2, 2, 3, 3)
        path = tmp_path / "cut.bin"
        save_binary(ds, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - 17])
        with pytest.raises(MalformedRecordError):
            load_binary(path)
        with pytest.raises(MalformedRecordError):
            list(BinaryDatasetReader(path, read_chunk_rows=4).iter_group_blocks())

    def test_rejects_unsorted_rows(self, tmp_path):
        d = 2
        records = np.zeros(3, dtype=_record_dtype(d))
        records["group_id"] = [5, 1, 1]
        records["label"] = [-1, -1, -1]
        header = np.zeros(1, dtype=np.dtype(
            [("magic", "S4"), ("version", "<u4"), ("d", "<u4"),
             ("n_rows", "<u8")]))
        header["magic"] = BINARY_MAGIC
        header["version"] = 1
        header["d"] = d
        header["n_rows"] = 3
        path = tmp_path / "unsorted.bin"
        with open(path, "wb") as fh:
            header.tofile(fh)
            records.tofile(fh)
        with pytest.raises(UnsortedGroupError):
            load_binary(path)
        with pytest.raises(UnsortedGroupError):
            for _ in BinaryDatasetReader(path).iter_group_blocks():
                pass

    @pytest.mark.parametrize("ids", [[1, 2**63], [2**63, 2**63 + 1]],
                             ids=["last-id", "all-ids"])
    @pytest.mark.parametrize("streamed", [False, True],
                             ids=["load_binary", "reader"])
    def test_rejects_group_ids_from_2_to_the_63(self, tmp_path, ids, streamed):
        # an int64 cast would wrap them to negative ids
        records = np.zeros(2, dtype=_record_dtype(1))
        records["group_id"] = ids
        records["label"] = -1
        path = tmp_path / "big_ids.bin"
        write_records(path, records)
        with pytest.raises(MalformedRecordError) as err:
            if streamed:
                list(BinaryDatasetReader(path).iter_group_blocks())
            else:
                load_binary(path)
        assert err.value.location == str(path)

    def test_auto_format_detection(self, tmp_path, rng):
        ds = build_grouped_dataset(rng, 2, 2, 1, 3, 2)
        bin_path, text_path = tmp_path / "d.bin", tmp_path / "d.csv"
        save_binary(ds, bin_path)
        save_text(ds, text_path)
        assert np.array_equal(load_dataset(bin_path).X, ds.X)
        assert np.array_equal(load_dataset(text_path).X, ds.X)


class TestStreaming:
    def test_blocks_match_in_memory_blocks(self, tmp_path, rng):
        ds = build_grouped_dataset(rng, 6, 10, 2, 9, 4)
        path = tmp_path / "s.bin"
        save_binary(ds, path)
        reader = BinaryDatasetReader(path, read_chunk_rows=7)
        for max_rows in (1, 5, 16, 1000):
            mem = list(ds.iter_group_blocks(max_rows=max_rows))
            stream = list(reader.iter_group_blocks(max_rows=max_rows))
            assert len(mem) == len(stream)
            for mb, sb in zip(mem, stream):
                assert np.array_equal(mb.X, sb.X)
                assert np.array_equal(mb.labels, sb.labels)
                assert np.array_equal(mb.is_key, sb.is_key)
                assert np.array_equal(mb.group_ids, sb.group_ids)
                assert np.array_equal(mb.starts, sb.starts)

    def test_streaming_objective_bit_identical(self, tmp_path, rng):
        ds = build_grouped_dataset(rng, 8, 20, 3, 9, 5)
        path = tmp_path / "s.bin"
        save_binary(ds, path)
        model = LinearModel(rng.normal(size=5), 0.3)
        hp = Hyperparams(lam=0.7)
        in_memory = eval_grouped(model, ds, hp)
        for chunk in (4, 64, 100000):
            reader = BinaryDatasetReader(path, read_chunk_rows=chunk)
            streamed = eval_grouped(model, reader, hp)
            assert streamed.total == in_memory.total
            assert streamed.positive_loss_term == in_memory.positive_loss_term
            assert streamed.negative_loss_term == in_memory.negative_loss_term

    def test_streaming_subgradient_bit_identical(self, tmp_path, rng):
        ds = build_grouped_dataset(rng, 5, 9, 2, 6, 3)
        path = tmp_path / "s.bin"
        save_binary(ds, path)
        model = LinearModel(rng.normal(size=3), -0.1)
        hp = Hyperparams(lam=0.5)
        g_mem = eval_grouped(model, ds, hp).gradient()
        g_stream = eval_grouped(model, BinaryDatasetReader(path), hp).gradient()
        assert np.array_equal(g_mem[:-1], g_stream[:-1])
        assert g_mem[-1] == g_stream[-1]

    @pytest.mark.parametrize("chunk", [0, -1])
    def test_read_chunk_below_one_row_rejected(self, tmp_path, chunk):
        path = tmp_path / "s.bin"
        path.write_bytes(VALID_FILE)
        with pytest.raises(DomainError, match="read_chunk_rows"):
            BinaryDatasetReader(path, read_chunk_rows=chunk)

    def test_streaming_validates_group_invariants(self, tmp_path):
        d = 1
        records = np.zeros(2, dtype=_record_dtype(d))
        records["group_id"] = [0, 0]
        records["label"] = [1, -1]
        records["is_key"] = [1, 0]
        header = np.zeros(1, dtype=np.dtype(
            [("magic", "S4"), ("version", "<u4"), ("d", "<u4"),
             ("n_rows", "<u8")]))
        header["magic"] = BINARY_MAGIC
        header["version"] = 1
        header["d"] = d
        header["n_rows"] = 2
        path = tmp_path / "mixed.bin"
        with open(path, "wb") as fh:
            header.tofile(fh)
            records.tofile(fh)
        with pytest.raises(DataFormatError):
            for _ in BinaryDatasetReader(path).iter_group_blocks():
                pass


def binary_header(d, n_rows):
    """The header bytes of a binary dataset file promising these counts."""
    header = np.zeros(1, dtype=_HEADER_DTYPE)
    header["magic"] = BINARY_MAGIC
    header["version"] = 1
    header["d"] = d
    header["n_rows"] = n_rows
    return header.tobytes()


def write_records(path, records):
    """A binary dataset file holding ``records`` exactly as given."""
    path.write_bytes(binary_header(records["features"].shape[1], len(records))
                     + records.tobytes())


def valid_records(d):
    """Six valid rows of ``d`` features in four groups."""
    records = np.zeros(6, dtype=_record_dtype(d))
    records["group_id"] = [0, 0, 1, 2, 2, 3]
    records["label"] = [1, 1, -1, 1, 1, -1]
    records["is_key"] = [1, 0, 0, 0, 1, 0]
    records["features"] = np.arange(6.0 * d).reshape(6, d)
    return records


#: A valid file of six records of d = 2, 26 bytes each.
VALID_FILE = binary_header(2, 6) + valid_records(2).tobytes()

#: Files that disagree with their own header.
BAD_FILES = {
    "one extra record": VALID_FILE + VALID_FILE[-26:],
    "5 trailing bytes": VALID_FILE + bytes(5),
    "cut by one record": VALID_FILE[:-26],
    "cut by 17 bytes": VALID_FILE[:-17],
    "d = 0": binary_header(0, 6) + valid_records(0).tobytes(),
    "n_rows = 0": binary_header(2, 0),
    "header only, d = 2**31": binary_header(2**31, 1),
    "header only, n_rows = 2**62": binary_header(2, 2**62),
}


class TestHeaderCheck:
    """A binary file is checked whole against its header when it is opened."""

    def test_valid_file_loads(self, tmp_path):
        path = tmp_path / "ok.bin"
        path.write_bytes(VALID_FILE)
        assert load_binary(path).n_rows == 6
        assert len(list(BinaryDatasetReader(path).iter_group_blocks())) == 1

    @staticmethod
    def assert_rejected_at_open(path):
        for open_file in (load_binary, BinaryDatasetReader):
            with pytest.raises(MalformedRecordError) as err:
                open_file(path)
            assert err.value.location == str(path)

    @pytest.mark.parametrize("case", BAD_FILES)
    def test_rejected_at_open(self, tmp_path, case):
        path = tmp_path / "bad.bin"
        path.write_bytes(BAD_FILES[case])
        self.assert_rejected_at_open(path)

    def test_rejects_records_too_wide_for_numpy(self, tmp_path):
        # sized as promised, but numpy item sizes are C ints, < 2**31 bytes
        d = 2**28
        path = tmp_path / "wide.bin"
        with open(path, "wb") as fh:
            fh.write(binary_header(d, 1))
            fh.truncate(_HEADER_DTYPE.itemsize + 10 + 8 * d)  # sparse
        self.assert_rejected_at_open(path)

    def test_every_pass_checks_the_file_again(self, tmp_path):
        path = tmp_path / "s.bin"
        path.write_bytes(VALID_FILE)
        reader = BinaryDatasetReader(path)
        list(reader.iter_group_blocks())
        path.write_bytes(VALID_FILE[:-17])
        with pytest.raises(MalformedRecordError):
            next(reader.iter_group_blocks())
        path.write_bytes(binary_header(3, 6) + valid_records(3).tobytes())
        with pytest.raises(MalformedRecordError, match="changed"):
            next(reader.iter_group_blocks())

    def test_file_shrinking_mid_pass_fails_at_the_short_read(self, tmp_path):
        # larger than the read buffer, so the cut is seen by a later read
        records = np.zeros(2000, dtype=_record_dtype(2))
        records["group_id"] = np.arange(2000)
        records["label"] = -1
        path = tmp_path / "s.bin"
        write_records(path, records)
        blocks = BinaryDatasetReader(path, read_chunk_rows=16).iter_group_blocks(
            max_rows=16)
        next(blocks)
        os.truncate(path, _HEADER_DTYPE.itemsize + 100 * records.itemsize)
        with pytest.raises(MalformedRecordError, match="shrank") as err:
            list(blocks)
        assert err.value.location == str(path)


class TestNanFeatures:
    def test_text_loader_names_the_group(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("group_id,label,is_key,f1,f2\n"
                        "0,+1,1,1.0,2.0\n5,-1,0,nan,0.5\n5,-1,0,1.0,0.5\n")
        with pytest.raises(MalformedRecordError, match="NaN.*group 5"):
            load_text(path)

    @pytest.fixture
    def nan_file(self, tmp_path):
        records = np.zeros(6, dtype=_record_dtype(2))
        records["group_id"] = [0, 0, 1, 2, 2, 2]
        records["label"] = [1, 1, -1, -1, -1, -1]
        records["is_key"] = [1, 0, 0, 0, 0, 0]
        records["features"][4, 0] = np.nan
        path = tmp_path / "nan.bin"
        write_records(path, records)
        return path

    def test_binary_loader_names_the_group(self, nan_file):
        with pytest.raises(MalformedRecordError, match="NaN.*group 2"):
            load_binary(nan_file)

    def test_streaming_reader_names_group_and_file(self, nan_file):
        reader = BinaryDatasetReader(nan_file, read_chunk_rows=2)
        with pytest.raises(MalformedRecordError,
                           match=f"NaN.*group 2 in {nan_file}"):
            for _ in reader.iter_group_blocks(max_rows=3):
                pass


#: Groups of the fault fixture: (group id, label, key flag per row).
FAULT_GROUPS = [(10, 1, [1, 0]), (11, -1, [0, 0]), (12, -1, [0, 0, 0]),
                (13, 1, [0, 1, 0]), (14, -1, [0])]

#: One fault per entry: (error type, its group, row, field, new value).
FAULTS = {
    "mixed-label group": (MixedLabelGroupError, 12, 5, "label", 1),
    "missing key": (MissingKeyError, 13, 8, "is_key", 0),
    "two keys": (MultipleKeysError, 10, 1, "is_key", 1),
    "key on a negative row": (MalformedRecordError, 11, 3, "is_key", 1),
    "label not +1 or -1": (MalformedRecordError, 12, 6, "label", 2),
    "key flag not 0 or 1": (MalformedRecordError, 13, 9, "is_key", 2),
    "NaN feature": (MalformedRecordError, 13, 9, "features", np.nan),
    "+inf feature": (MalformedRecordError, 13, 8, "features", np.inf),
    "-inf feature": (MalformedRecordError, 11, 3, "features", -np.inf),
}


class TestOneFaultOneError:
    """Every source raises the same error type, at the same group, for a fault."""

    @staticmethod
    def faulty_records(fault):
        _, _, row, field, value = FAULTS[fault]
        rows = [(gid, label, key) for gid, label, keys in FAULT_GROUPS
                for key in keys]
        records = np.zeros(len(rows), dtype=_record_dtype(2))
        records["group_id"] = [r[0] for r in rows]
        records["label"] = [r[1] for r in rows]
        records["is_key"] = [r[2] for r in rows]
        records["features"] = np.arange(2.0 * len(rows)).reshape(-1, 2)
        if field == "features":
            records["features"][row, 1] = value
        else:
            records[field][row] = value
        return records

    @pytest.mark.parametrize("fault", FAULTS)
    def test_every_source_raises_the_same_error(self, tmp_path, fault):
        error, gid, row, _, _ = FAULTS[fault]
        records = self.faulty_records(fault)
        bin_path, text_path = tmp_path / "fault.bin", tmp_path / "fault.csv"
        write_records(bin_path, records)
        lines = ["group_id,label,is_key,f1,f2"] + [
            f"{r['group_id']},{r['label']:+d},{r['is_key']},"
            f"{float(r['features'][0])!r},{float(r['features'][1])!r}"
            for r in records]
        text_path.write_text("\n".join(lines) + "\n")
        # the CSV parser checks a label and a key flag on its own line,
        # before grouping
        text_at = (f"line {row + 2}" if fault in (
            "label not +1 or -1", "key flag not 0 or 1") else f"group {gid}")
        attempts = [
            (lambda: Dataset(records["features"], records["label"],
                             records["group_id"].astype(np.int64),
                             records["is_key"]), f"group {gid}"),
            (lambda: load_binary(bin_path), f"group {gid}"),
            (lambda: load_text(text_path), text_at),
        ]
        for chunk in (1, 2, 3, 65536):
            # a small block budget cuts blocks before the end of the file
            reader = BinaryDatasetReader(bin_path, read_chunk_rows=chunk)
            attempts.append((lambda reader=reader: list(
                reader.iter_group_blocks(max_rows=4)),
                f"group {gid} in {bin_path}"))
        for attempt, location in attempts:
            with pytest.raises(DataFormatError) as err:
                attempt()
            assert type(err.value) is error
            assert err.value.location == location


class TestGenerator:
    def test_deterministic_per_seed(self, tmp_path):
        spec = GeneratorSpec(seed=7, n_pos_groups=4, n_neg_groups=9,
                             group_size_min=3, group_size_max=6, d=4,
                             outlier_rate=0.5, outlier_shift=2.0)
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.group_ids, b.group_ids)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_binary(a, p1)
        save_binary(b, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_group_counts_exact(self):
        ds = generate(GeneratorSpec(seed=1, n_pos_groups=5, n_neg_groups=11,
                                    group_size_min=2, group_size_max=4, d=3))
        assert ds.n_pos_groups == 5 and ds.n_neg_groups == 11

    def test_sizes_within_bounds(self):
        ds = generate(GeneratorSpec(seed=2, n_pos_groups=4, n_neg_groups=4,
                                    group_size_min=3, group_size_max=5, d=2))
        sizes = np.diff(ds.group_starts)
        assert np.all((sizes >= 3) & (sizes <= 5))

    def test_no_positive_groups_rejected(self):
        with pytest.raises(DomainError) as err:
            GeneratorSpec(seed=0, n_pos_groups=0, n_neg_groups=5)
        assert err.type is DomainError

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="seed") as err:
            GeneratorSpec(seed=-1, n_pos_groups=1, n_neg_groups=1)
        assert err.type is DomainError

    @pytest.mark.parametrize("field", ["key_shift", "outlier_shift",
                                       "decoy_shift", "noise_scale"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_shift_or_scale_rejected(self, field, value):
        with pytest.raises(DomainError, match="finite"):
            GeneratorSpec(seed=0, n_pos_groups=1, n_neg_groups=1,
                          **{field: value})

    def test_key_rows_shifted(self):
        spec = GeneratorSpec(seed=3, n_pos_groups=30, n_neg_groups=5,
                             group_size_min=5, group_size_max=8, d=3,
                             key_shift=50.0)
        ds = generate(spec)
        assert ds.X[ds.is_key, 0].mean() > 25
        non_key = ~ds.is_key
        assert abs(ds.X[non_key, 0].mean()) < 5

    def test_outliers_hit_one_row_per_group(self):
        spec = GeneratorSpec(seed=4, n_pos_groups=2, n_neg_groups=50,
                             group_size_min=4, group_size_max=6, d=2,
                             outlier_rate=1.0, outlier_shift=40.0)
        ds = generate(spec)
        for k in range(ds.n_groups):
            lo, hi = ds.group_starts[k], ds.group_starts[k + 1]
            if ds.group_labels[k] == -1:
                assert int(np.sum(ds.X[lo:hi, 0] > 20)) == 1

    def test_easy_regime_trains_to_high_group_auc(self):
        from gcm import Hyperparams, SolverConfig, easy_spec, evaluate_model, train_gcm
        train = generate(easy_spec(seed=0, n_pos_groups=25, n_neg_groups=120,
                                   group_size_min=30, group_size_max=60, d=6))
        test = generate(easy_spec(seed=1, n_pos_groups=40, n_neg_groups=160,
                                  group_size_min=30, group_size_max=60, d=6))
        model, _ = train_gcm(train, Hyperparams(lam=0.5),
                             SolverConfig(max_iterations=300))
        assert evaluate_model(model, test).group_auc >= 0.99

    def test_decoy_shift_moves_non_key_positive_rows(self):
        spec = GeneratorSpec(seed=5, n_pos_groups=20, n_neg_groups=20,
                             group_size_min=5, group_size_max=7, d=3,
                             decoy_shift=30.0, outlier_rate=1.0,
                             outlier_shift=25.0)
        ds = generate(spec)
        pos_non_key = (ds.labels == 1) & ~ds.is_key
        assert ds.X[pos_non_key, 1].mean() > 15
        assert abs(ds.X[ds.is_key, 1].mean()) < 5
        # outliers follow the decoy axis when decoys are enabled
        neg = ds.labels == -1
        assert np.sum(ds.X[neg, 1] > 12) == ds.n_neg_groups


class TestModelPersistence:
    def test_bit_exact_round_trip(self, tmp_path, rng):
        w = np.concatenate([rng.normal(size=5) * 1e-200,
                            rng.normal(size=5) * 1e100])
        model = LinearModel(w, b=float(rng.normal()) * 1e-7)
        hp = Hyperparams(lam=0.123456789012345, epsilon=0.9999999999,
                         delta=0.3333333333333333)
        path = tmp_path / "m.json"
        save_model(path, model, hp, provenance={"algo": "gcm"})
        saved = load_model(path)
        assert np.array_equal(saved.model.w, model.w)
        assert saved.model.b == model.b
        assert saved.hyperparams == hp

    def test_metadata_fields_present(self, tmp_path, rng):
        model = LinearModel(rng.normal(size=9), 0.5)
        hp = Hyperparams(lam=0.4, epsilon=1.0, delta=0.5)
        scaler = AffineScaler(np.zeros(9), np.ones(9))
        path = tmp_path / "m.json"
        save_model(path, model, hp,
                   pipeline=FeaturePipeline(3, ExpansionSpec(degree=2), scaler),
                   provenance={"algo": "gcm", "termination": "GradTolerance"})
        saved = load_model(path)
        assert saved.hyperparams.lam == 0.4
        assert saved.hyperparams.epsilon == 1.0
        assert saved.hyperparams.delta == 0.5
        assert saved.pipeline.expansion.degree == 2
        assert saved.pipeline.input_d == 3
        assert np.array_equal(saved.pipeline.scaler.shift, scaler.shift)
        assert saved.provenance["algo"] == "gcm"

    def test_version_mismatch(self, tmp_path, rng):
        model = LinearModel(rng.normal(size=2), 0.0)
        path = tmp_path / "m.json"
        save_model(path, model, Hyperparams(lam=0.5))
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(VersionMismatchError):
            load_model(path)

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text("{\"something\": 1}")
        with pytest.raises(MalformedRecordError):
            load_model(path)

    def test_not_utf8_rejected_at_path(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_bytes(b"\xff{}")
        with pytest.raises(MalformedRecordError) as err:
            load_model(path)
        assert err.value.location == str(path)

    def test_reordered_monomials_rejected(self, tmp_path, rng):
        # weights trained on one monomial order must not be applied to another
        path = tmp_path / "m.json"
        save_model(path, LinearModel(rng.normal(size=9), 0.0),
                   Hyperparams(lam=0.5),
                   pipeline=FeaturePipeline(3, ExpansionSpec(degree=2)))
        doc = json.loads(path.read_text())
        assert doc["expansion"]["feature_order"] == [
            list(e) for e in monomial_exponents(3, 2)]
        doc["expansion"]["feature_order"].reverse()
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedRecordError) as err:
            load_model(path)
        assert str(path) in str(err.value)

    def test_inconsistent_d_rejected(self, tmp_path, rng):
        model = LinearModel(rng.normal(size=3), 0.0)
        path = tmp_path / "m.json"
        save_model(path, model, Hyperparams(lam=0.5))
        doc = json.loads(path.read_text())
        doc["d"] = 7
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedRecordError):
            load_model(path)

    @pytest.mark.parametrize("keys", [
        ("d",), ("w",), ("b",), ("hyperparams",), ("hyperparams", "lambda"),
        ("hyperparams", "epsilon"), ("hyperparams", "delta"),
        ("expansion", "degree"), ("expansion", "input_d"),
        ("expansion", "feature_order"), ("scaler", "shift"),
        ("scaler", "scale"),
    ])
    def test_missing_field_rejected_at_path(self, keys, tmp_path, rng):
        path = tmp_path / "m.json"
        save_model(path, LinearModel(rng.normal(size=9), 0.0),
                   Hyperparams(lam=0.5), pipeline=FeaturePipeline(
                       3, ExpansionSpec(degree=2),
                       AffineScaler(np.zeros(9), np.ones(9))))
        doc = json.loads(path.read_text())
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        del parent[keys[-1]]
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedRecordError) as err:
            load_model(path)
        assert str(path) in str(err.value) and keys[-1] in str(err.value)

    def test_field_of_wrong_kind_rejected_at_path(self, tmp_path, rng):
        path = tmp_path / "m.json"
        save_model(path, LinearModel(rng.normal(size=2), 0.0),
                   Hyperparams(lam=0.5))
        doc = json.loads(path.read_text())
        doc["hyperparams"] = [0.5, 1.0, 0.5]
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedRecordError) as err:
            load_model(path)
        assert str(path) in str(err.value)
