"""The bulk CSV number formatter against Python's own ``%.17g`` and ``%d``."""
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bandspec.harness as harness
import bandspec.output as output
from bandspec.narula_chain import simulate_chain

BLOCK = output._BLOCK_ROWS


def lines(texts) -> bytes:
    return "".join(t + "\n" for t in texts).encode()


def floats_text(values) -> bytes:
    return lines(format(float(v), ".17g") for v in values)


def ints_text(values) -> bytes:
    return lines(str(int(v)) for v in values)


def spy_text():
    """Patch ``output.text`` with a mock that records each value it formats."""
    return mock.patch.object(output, "text", wraps=output.text)


def texted(spy) -> list[str]:
    """The values ``spy`` saw, as reprs (so NaN and signed zeros compare)."""
    return [repr(float(call.args[0])) for call in spy.call_args_list]


def powers_of_ten():
    """10^k for k = -6..17 and the doubles one ulp either side."""
    for k in range(-6, 18):
        p = float(f"1e{k}")
        yield from (np.nextafter(p, 0.0), p, np.nextafter(p, np.inf))


def exact_ties():
    """Doubles whose 18th significant digit is an exact 5 with nothing after
    it: ``x = odd / 2^(17 - X)`` in ``[10^X, 10^(X+1))`` makes
    ``x * 10^(16 - X) = odd * 5^(16 - X) / 2``."""
    for x in range(-4, 16):
        shift = 17 - x
        first = math.ceil(Fraction(10) ** x * 2**shift) | 1
        for odd in range(first, first + 40, 2):
            yield x, odd / 2**shift
    yield 15, 1e15 + 0.25


def test_ties_are_exact_halves():
    for x, value in exact_ties():
        assert 10.0**x <= value < 10.0 ** (x + 1)
        assert Fraction(value) * Fraction(10) ** (16 - x) % 1 == Fraction(1, 2)


def test_fixed_families_take_the_kernel():
    values = np.array(list(powers_of_ten()) + [v for _, v in exact_ties()])
    values = np.concatenate([values, -values])
    in_range = values[(np.abs(values) >= 1e-4) & (np.abs(values) < 1e16)]
    with spy_text() as text:
        assert output._format_block([in_range]) == floats_text(in_range)
    assert text.call_count == 0
    # one value per block: each in-range value in bulk, each other one through text
    for v in values:
        assert output._format_block([np.array([v])]) == floats_text([v])


ODD_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e16, -1e16,
    np.nextafter(1e-4, 0.0), 1e300, np.inf, -np.inf, np.nan,
]


@pytest.mark.parametrize("value", ODD_VALUES)
def test_values_outside_the_kernel_fall_back(value):
    # a nonzero value outside the digit arithmetic goes through text in its
    # own cell; a zero is written by the kernel; the other cells stay in bulk
    column = np.array([1.5, value, 2.5])
    with spy_text() as text:
        assert output._format_block([column]) == floats_text(column)
    assert texted(text) == ([] if value == 0 else [repr(float(value))])


def test_one_value_of_each_odd_family_per_block():
    rng = np.random.default_rng(3)
    column = rng.standard_normal(BLOCK) * 100.0
    rows = rng.choice(BLOCK, len(ODD_VALUES), replace=False)
    column[rows] = ODD_VALUES
    with spy_text() as text:
        assert output._format_block([column]) == floats_text(column)
    nonzero = np.sort(rows[[v != 0 for v in ODD_VALUES]])
    assert texted(text) == [repr(float(v)) for v in column[nonzero]]


def test_mixed_blocks(tmp_path):
    # block 0 is all in the kernel's range, block 1 holds a zero and an
    # integer beyond int64, block 2 ends in a NaN
    rng = np.random.default_rng(7)
    floats = rng.standard_normal(3 * BLOCK) * 100.0
    floats[BLOCK + 17] = 0.0
    floats[-1] = np.nan
    ints = rng.integers(0, 2**62, 3 * BLOCK).astype(np.uint64)
    ints[BLOCK + 5] = 2**64 - 1
    for block, odd in ((floats[:BLOCK], []), (floats[BLOCK:2 * BLOCK], []),
                       (floats[2 * BLOCK:], ["nan"])):
        with spy_text() as text:
            output._float_cells(block)
        assert texted(text) == odd
    # signed integers beside the floats: one bulk path, only the NaN through text
    signed = ints.astype(np.int64)
    with spy_text() as text:
        path = output.write_csv(tmp_path / "signed.csv", ("x", "n"), (floats, signed), {})
    expected = [f"{format(float(f), '.17g')},{int(n)}" for f, n in zip(floats, signed)]
    assert path.read_bytes() == lines(["x,n"] + expected)
    assert texted(text) == ["nan"]
    # an unsigned column goes through text value by value; the floats beside
    # it stay in bulk, so of them only the NaN reaches text
    with spy_text() as text:
        path = output.write_csv(tmp_path / "mixed.csv", ("x", "n"), (floats, ints), {})
    expected = [f"{format(float(f), '.17g')},{int(n)}" for f, n in zip(floats, ints)]
    assert path.read_bytes() == lines(["x,n"] + expected)
    seen = [call.args[0] for call in text.call_args_list]
    assert [v for v in seen if isinstance(v, np.uint64)] == list(ints)
    assert [repr(float(v)) for v in seen if not isinstance(v, np.uint64)] == ["nan"]


def test_python_column_leaves_numpy_columns_in_bulk(tmp_path):
    # one Python list beside numpy float columns, over three blocks: only the
    # list's values reach text, and the bytes are the per-value rule's
    rng = np.random.default_rng(11)
    n_rows = 9000
    left, right = rng.standard_normal((2, n_rows)) * 100.0
    labels = [i * 3 - 5000 for i in range(n_rows)]
    with spy_text() as text:
        path = output.write_csv(tmp_path / "t.csv", ("a", "i", "b"), (left, labels, right), {})
    expected = [f"{format(float(a), '.17g')},{i},{format(float(b), '.17g')}"
                for a, i, b in zip(left, labels, right)]
    assert path.read_bytes() == lines(["a,i,b"] + expected)
    assert [call.args[0] for call in text.call_args_list] == labels


def test_block_boundaries_through_write_csv(tmp_path):
    # three blocks and a remainder: the int64 column has 2, 4, 6 and 8 digits
    # in turn, and each float column holds one odd value at the first row,
    # at both sides of the first two block boundaries and at the last row
    rng = np.random.default_rng(13)
    n_rows = 3 * BLOCK + 17
    block = np.arange(n_rows) // BLOCK
    ints = rng.integers(10 ** (2 * block + 1), 10 ** (2 * block + 2)) * np.where(block % 2, -1, 1)
    edges = [0, BLOCK - 1, BLOCK, 2 * BLOCK, n_rows - 1]
    floats = []
    for odd in (np.nan, -0.0, 1e-5, 1e16):
        column = rng.standard_normal(n_rows) * 100.0
        column[edges] = odd
        floats.append(column)
    names = ("n", "nan", "negative_zero", "small", "big")
    with spy_text() as text:
        path = output.write_csv(tmp_path / "edges.csv", names, (ints, *floats), {"k": 1})
    assert text.call_count == 3 * len(edges)  # -0.0 is the kernel's
    expected = [",".join(output.text(v) for v in row) for row in zip(ints, *floats)]
    assert path.read_bytes() == b"# k=1\n" + lines([",".join(names)] + expected)


def test_narula_shaped_table_over_three_blocks(tmp_path):
    # step, d >= 1 and log d as the narula runner writes them, over two whole
    # blocks and a partial one
    run = simulate_chain(10.0, 3 * BLOCK + 95, 100, np.random.default_rng(17))
    steps = np.arange(101, 3 * BLOCK + 96)
    with spy_text() as text:
        path = output.write_csv(tmp_path / "chain.csv", ("step", "d", "log_d"),
                                (steps, run.samples, run.logs), {})
    expected = [f"{s},{output.text(d)},{output.text(log_d)}"
                for s, d, log_d in zip(steps, run.samples, run.logs)]
    assert path.read_bytes() == lines(["step,d,log_d"] + expected)
    # only a log below 1e-4, where %.17g writes an exponent, leaves the kernel
    assert all(abs(call.args[0]) < 1e-4 for call in text.call_args_list)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=16))
def test_float64_matches_percent(values):
    column = np.array(values, dtype=np.float64)
    assert output._format_block([column]) == floats_text(values)
    for v in values:
        assert output._format_block([np.array([v])]) == floats_text([v])


kernel_floats = st.builds(
    lambda magnitude, negative: -magnitude if negative else magnitude,
    st.floats(1e-4, 1e16, exclude_max=True),
    st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(kernel_floats, min_size=1, max_size=64))
def test_kernel_range_matches_percent(values):
    column = np.array(values)
    with spy_text() as text:
        assert output._format_block([column]) == floats_text(values)
    assert text.call_count == 0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=64))
def test_int64_matches_str(values):
    column = np.array(values, dtype=np.int64)
    assert output._format_block([column]) == ints_text(values)


def test_int64_extremes():
    column = np.array([0, 1, -1, 9, 10, -10, 9999, 10_000, 10**18, -(2**63), 2**63 - 1])
    assert output._format_block([column]) == ints_text(column)


@pytest.mark.parametrize("cell", ["a\x00b", "\x00", "trailing\x00"])
def test_a_nul_in_a_text_cell_raises(tmp_path, cell):
    # NUL pads the cells and is deleted with the padding: "a\0b" was written "ab"
    with pytest.raises(ValueError, match="NUL"):
        output._format_block([[cell, "c"], np.array([1.5, 2.5])])
    with pytest.raises(ValueError, match="NUL"):
        output.write_csv(tmp_path / "t.csv", ("quantity",), [[cell]], {})


RAYLEIGH_WYNER = {"users_per_cell": 1, "alpha": 0.5, "beta": 0.5, "fading": "rayleigh",
                  "power": 10.0}


def text_calls(tmp_path, config) -> int:
    """How many values a run formats through ``text``."""
    config = harness.ExperimentConfig.from_dict({**config, "out_dir": str(tmp_path)})
    with spy_text() as text:
        harness.run_experiment(config)
    return text.call_count


def test_wyner_spectrum_formats_few_values_through_text(tmp_path):
    # the benchmark's wyner-spectrum run: 6 pooled eigenvalues lie below
    # 1e-4 and ecdf.csv's bin_left starts at 0; whole blocks used to take %
    calls = text_calls(tmp_path, {
        "kind": "spectrum", "channel": {**RAYLEIGH_WYNER, "n_cells": 2048},
        "p_grid": [1.0, 10.0, 100.0], "replications": 8, "seed": 3,
    })
    assert calls <= 25


def test_power_profile_grid_needs_no_text(tmp_path):
    # profile_n*.csv lists the band's cells as arrays; only power_profile.csv's
    # Python sequences (two cells per N) go through text
    calls = text_calls(tmp_path, {
        "kind": "power_profile", "channel": {**RAYLEIGH_WYNER, "n_cells": 64},
        "n_grid": [64], "seed": 3,
    })
    assert calls == 2
