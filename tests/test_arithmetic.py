"""Sieve table and the divisor-transform coefficient against brute force."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zdl import (
    arithmetic,
    beta_closed_form,
    beta_definition_table,
    build_table,
    liouville,
    omega,
)
from zdl.arithmetic import beta_closed_table
from zdl.errors import InvalidBoundError, TableRangeError

from oracles import beta_brute, beta_definition_per_m, liouville_brute, omega_brute


def test_build_table_basics(table2k):
    assert table2k.n_max == 2000
    assert omega(table2k, 1) == 0
    assert liouville(table2k, 1) == 1


def test_sieve_matches_trial_division_across_square_steps():
    # The loop bound isqrt(n_max) steps at p**2 = 4, 9, 25, 49, 121 and 961,
    # so these bounds put each such p just outside and just inside the loop.
    for n_max in [*range(1, 131), 960, 961, 962]:
        table = build_table(n_max)
        ns = range(1, n_max + 1)
        assert table.omega.tolist() == [0] + [omega_brute(n) for n in ns], n_max
        assert table.liouville.tolist() == [0] + [liouville_brute(n) for n in ns], n_max


def test_sieve_large_prime_leftovers(table1m):
    assert omega(table1m, 999983) == 1 == omega_brute(999983)
    for n in (2 * 499979, 3 * 333331):
        assert omega(table1m, n) == 2 == omega_brute(n)
        assert liouville(table1m, n) == 1 == liouville_brute(n)


def test_sieve_keeps_three_bytes_per_n():
    # int8 omega, liouville and beta; the int32 cofactor is the peak.
    n_max = 10**6
    tracemalloc.start()
    try:
        table = build_table(n_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n_max, peak / n_max
    assert table.omega.dtype == np.int8
    assert table.liouville.dtype == np.int8
    assert table.beta.dtype == np.int8


def test_omega_matches_brute_force(table2k):
    for n in range(1, 2001):
        assert omega(table2k, n) == omega_brute(n)


def test_liouville_matches_brute_force(table2k):
    for n in range(1, 2001):
        assert liouville(table2k, n) == liouville_brute(n)


def test_beta_definition_table_matches_brute_force(table2k):
    by_def = beta_definition_table(table2k)
    assert by_def[1:].tolist() == [beta_brute(n) for n in range(1, 2001)]


@pytest.mark.parametrize("n_max", [1, 2, 3, 10, 99, 100, 1000, 4096, 4097, 20011])
def test_beta_definition_table_is_the_per_row_sum(n_max):
    # Rows grouped by quotient n_max // m give the row-by-row integers.
    table = build_table(n_max)
    by_def = beta_definition_table(table)
    assert by_def.dtype == np.int64
    assert by_def.tolist() == beta_definition_per_m(table.liouville, n_max)


def test_beta_closed_form_trichotomy():
    # +1 on squares, -2 on twice-squares, 0 everywhere else
    for n in range(1, 2001):
        root = math.isqrt(n)
        if root * root == n:
            assert beta_closed_form(n) == 1
        elif n % 2 == 0 and math.isqrt(n // 2) ** 2 == n // 2:
            assert beta_closed_form(n) == -2
        else:
            assert beta_closed_form(n) == 0


def test_beta_closed_table_windows_are_slices_of_the_whole():
    whole = beta_closed_table(5000)
    for lo, hi in ((0, 0), (0, 1), (1, 1), (2, 2), (3, 8), (8, 8), (17, 50), (49, 51),
                   (50, 50), (1000, 5000), (4999, 5000)):
        window = beta_closed_table(hi, lo)
        assert (window.dtype, window.tolist()) == (np.int8, whole[lo : hi + 1].tolist())


def test_beta_routes_agree_in_bulk(table2k):
    by_def = beta_definition_table(table2k)
    assert np.array_equal(by_def[1:], table2k.beta[1:])


def test_rejects_nonpositive_bound():
    with pytest.raises(InvalidBoundError):
        build_table(0)


def test_rejects_bound_beyond_int32_before_allocating(no_numpy):
    no_numpy(arithmetic)
    with pytest.raises(InvalidBoundError, match=r"<= 2\*\*31 - 1"):
        build_table(2**31)


def test_rejects_out_of_range_index(table2k):
    with pytest.raises(TableRangeError):
        omega(table2k, 0)
    with pytest.raises(TableRangeError):
        liouville(table2k, 2001)
    with pytest.raises(InvalidBoundError):
        beta_closed_form(0)


@given(a=st.integers(1, 1000), b=st.integers(1, 1000))
def test_liouville_completely_multiplicative(table1m, a, b):
    assert liouville(table1m, a * b) == liouville(table1m, a) * liouville(table1m, b)
    assert omega(table1m, a * b) == omega(table1m, a) + omega(table1m, b)
