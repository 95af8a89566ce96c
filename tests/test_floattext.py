"""The vectorised float and int text matches Python's ``repr`` and ``str``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcm._floattext import FLOAT_WIDTH, csv_lines, float_text, int_text


def float_lines(x):
    return csv_lines([float_text(x)]).decode().split("\n")[:-1]


def assert_reprs(x):
    x = np.asarray(x, dtype=np.float64)
    assert float_lines(x) == [repr(v) for v in x.tolist()]


def from_bits(exponent, fraction, negative=False):
    bits = (np.uint64(exponent) << np.uint64(52)) | np.uint64(fraction)
    if negative:
        bits = bits | np.uint64(1 << 63)
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


class TestFloatText:
    def test_special_values_and_extremes(self):
        info = np.finfo(np.float64)
        assert_reprs([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                       info.smallest_normal, -info.smallest_normal,
                       info.max, -info.max, 1.0, 0.1, 1e16, 1e-4, 1e-5,
                       9007199254740993.0, 123456789012345680.0])

    @pytest.mark.parametrize("fraction", [0, 1, (1 << 52) - 1],
                             ids=["mantissa-0", "mantissa-1", "mantissa-max"])
    @pytest.mark.parametrize("negative", [False, True], ids=["pos", "neg"])
    def test_every_exponent(self, fraction, negative):
        assert_reprs(from_bits(np.arange(1, 2047, dtype=np.uint64), fraction,
                               negative))

    def test_powers_of_ten_and_a_grid(self):
        assert_reprs([float(f"1e{e}") for e in range(-307, 309)])
        n = 199_999
        assert_reprs(np.arange(n + 1) / n)

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(15).integers(
            0, 2**64, size=200_000, dtype=np.uint64)
        assert_reprs(bits.view(np.float64))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_matches_repr(self, values):
        assert_reprs(values)

    def test_rows_hold_one_run_of_text(self):
        rows = float_text([-1.5e-300, 0.001, -123.0, 1e22, np.nan, 5e-324])
        assert rows.shape == (6, FLOAT_WIDTH)
        for row in rows:
            on = np.flatnonzero(row)
            assert np.array_equal(on, np.arange(on[0], on[-1] + 1))

    def test_takes_any_shape_and_order(self):
        x = np.asfortranarray(np.arange(12.0).reshape(3, 4) / 7)
        assert float_lines(x) == [repr(v) for v in x.ravel().tolist()]

    def test_empty(self):
        assert float_text(np.empty(0)).shape == (0, FLOAT_WIDTH)


class TestIntText:
    def test_matches_str(self):
        x = np.concatenate([
            [0, 1, -1, 9, 10, -10, 99, 100, 2**63 - 1, -2**63],
            np.random.default_rng(3).integers(-2**63, 2**63 - 1, 10_000,
                                              dtype=np.int64)])
        lines = csv_lines([int_text(x)]).decode().split("\n")[:-1]
        assert lines == [str(v) for v in x.tolist()]

    def test_casts_small_types(self):
        text = csv_lines([int_text(np.array([-1, 1], dtype=np.int8))])
        assert text == b"-1\n1\n"


class TestCsvLines:
    def test_joins_fields_and_shared_bytes(self):
        text = csv_lines([b"level", float_text([0.5, -2.0]), int_text([3, 40])])
        assert text == b"level,0.5,3\nlevel,-2.0,40\n"

    def test_no_rows(self):
        assert csv_lines([b"level", float_text([])]) == b""
