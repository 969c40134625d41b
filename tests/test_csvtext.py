"""The CSV writer's array path against the %-format it reproduces."""
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from starscatter import csvtext

# any 64-bit pattern: subnormals, +-0.0, +-inf and NaNs among them
RAW = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0])
# an integer of up to 12 digits times a power of ten: every count of
# trailing zeros, and exponents on both sides of the fast path's range
SCALED = st.builds(lambda m, e: m * 10.0 ** e,
                   st.integers(-10 ** 12, 10 ** 12), st.integers(-16, 36))
# 13 significant decimal digits, read to the nearest double: the 12-digit
# ties that are not exact, where the rounding turns on the last bits
DECIMAL = st.builds(lambda m, e: float(f"{m}e{e}"),
                    st.integers(10 ** 12, 10 ** 13 - 1), st.integers(-25, 22))
VALUES = st.one_of(RAW, st.floats(), SCALED, DECIMAL)

EDGES = [
    100000000000.5, 100000000001.5,  # exact 12-digit ties
    9.9999999999995, 999999999999.5,  # carries to a 13th digit
    # both sides of the switch between fixed and exponent notation
    9.99999999999e-05, 1e-4, 99999999999.95, 999999999999.4, 1e12,
    1e-12, 1e-11, 1e22, 1e23, 1e33, 1e34,  # the exact powers' limits
    60.005,  # zeros across all four 3-digit groups
    # 12-digit ties in decimal, a little above or below in binary
    1.000000000005, 2.000000000005, 0.1000000000005, 7.500000000005e-3,
]
# one value for each count of trailing zeros in the 12 digits, 0 to 11
EDGES += [float("123456789123"[:12 - z].ljust(4, "0")[:4] + "."
                + "123456789123"[4:12 - z]) for z in range(12)]


def percent_text(rows):
    """The rows in one %-format, as forward wrote them before."""
    n, c = rows.shape
    row_fmt = ",".join(["%.12g"] * c) + "\n"
    return ((row_fmt * n) % tuple(rows.ravel().tolist())).encode()


@settings(max_examples=300, deadline=None)
@given(columns=st.sampled_from([4, 6, 8]), data=st.data())
def test_rows_text_is_the_percent_format(columns, data):
    values = data.draw(st.lists(VALUES, min_size=columns,
                                max_size=12 * columns))
    n = len(values) // columns
    rows = np.array(values[:n * columns]).reshape(n, columns)
    assert csvtext.rows_text(rows) == percent_text(rows)


@settings(max_examples=50, deadline=None)
@given(columns=st.sampled_from([4, 6, 8]), data=st.data())
def test_nan_rows_write_their_first_value(columns, data):
    n = data.draw(st.integers(1, 12))
    rows = np.array(data.draw(st.lists(SCALED, min_size=n * columns,
                                       max_size=n * columns)))
    rows = rows.reshape(n, columns)
    nan = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                      max_size=n)))
    want = b"".join(
        ("%.12g" % row[0] + ",NaN" * (columns - 1) + "\n").encode()
        if flag else percent_text(row[None]) for row, flag in zip(rows, nan))
    assert csvtext.rows_text(rows, nan) == want


@pytest.mark.parametrize("columns", [4, 6, 8])
def test_edge_values(columns):
    # each edge value, of either sign, in each column of a row whose other
    # values take the array path, so that no fallback hides it
    values = [sign * x for x in EDGES for sign in (1, -1)]
    rows = np.full((len(values), columns, columns), 0.5)
    for j in range(columns):
        rows[:, j, j] = values
    rows = rows.reshape(-1, columns)
    assert csvtext.rows_text(rows) == percent_text(rows)


def test_edge_values_cover_every_trailing_zero_count():
    digits = {("%.11e" % x).split("e")[0].replace(".", "") for x in EDGES}
    assert {len(d) - len(d.rstrip("0")) for d in digits} >= set(range(12))


def test_ties_leave_the_fast_path_and_the_rest_stay(monkeypatch):
    rows = []
    real = csvtext._percent_row
    monkeypatch.setattr(csvtext, "_percent_row",
                        lambda row, nan: rows.append(row[0]) or real(row, nan))
    ties = [100000000000.5, 100000000001.5, 999999999999.5]
    values = np.array([[x] for x in EDGES])
    assert csvtext.rows_text(values) == percent_text(values)
    assert set(ties) <= set(rows)
    # a carry and both sides of the notation switch take the array path
    assert not {9.9999999999995, 1e-4, 1e12, 60.005} & set(rows)
