"""The sieve and the divisor-transform coefficient against brute force."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zdl import arithmetic, beta_definition_table, sieve
from zdl.arithmetic import beta_closed_table
from zdl.errors import InvalidBoundError

from oracles import beta_brute, beta_definition_per_m, liouville_brute, omega_brute


def test_sieve_rows_start_at_zero(sieve2k):
    omega, lam = sieve2k
    assert (len(omega), len(lam)) == (2001, 2001)
    assert (omega[:2].tolist(), lam[:2].tolist()) == ([0, 0], [0, 1])


# Square and cube steps p**2 and p**3, where isqrt(n_max) admits p to the
# loop or p**3 joins it, and products p * q of consecutive primes.
_EDGES = (4, 6, 8, 9, 15, 25, 27, 35, 49, 77, 121, 125, 143, 343, 899, 961)


def test_sieve_matches_trial_division_across_square_steps():
    # Whole sieves up to each bound, then windows whose ends sit just
    # below, on and just above every edge.
    omegas = [0] + [omega_brute(n) for n in range(1, 2001)]
    lams = [0] + [liouville_brute(n) for n in range(1, 2001)]
    for n_max in [*range(1, 131), 960, 961, 962, 2000]:
        omega, lam = sieve(n_max)
        assert omega.tolist() == omegas[: n_max + 1], n_max
        assert lam.tolist() == lams[: n_max + 1], n_max
    ends = sorted({0} | {e + d for e in _EDGES for d in (-1, 0, 1)})
    for n_lo in ends:
        for n_max in (e for e in ends if e >= n_lo):
            omega, lam = sieve(n_max, n_lo)
            assert (omega.dtype, lam.dtype) == (np.int8, np.int8)
            assert omega.tolist() == omegas[n_lo : n_max + 1], (n_lo, n_max)
            assert lam.tolist() == lams[n_lo : n_max + 1], (n_lo, n_max)


@given(ends=st.lists(st.integers(0, 1_000_000), min_size=2, max_size=2))
def test_sieve_windows_are_slices_of_the_whole(sieve1m, ends):
    n_lo, n_max = sorted(ends)
    n_max = min(n_max, n_lo + 50_000)
    omega, lam = sieve(n_max, n_lo)
    assert omega.tobytes() == sieve1m[0][n_lo : n_max + 1].tobytes()
    assert lam.tobytes() == sieve1m[1][n_lo : n_max + 1].tobytes()


def test_sieve_large_prime_leftovers(sieve1m):
    omega, lam = sieve1m
    assert omega[999983] == 1 == omega_brute(999983)
    for n in (2 * 499979, 3 * 333331):
        assert omega[n] == 2 == omega_brute(n)
        assert lam[n] == 1 == liouville_brute(n)


@pytest.mark.parametrize("n_lo", [0, 1, 999_900])
def test_sieve_segments_match_trial_division(n_lo, monkeypatch):
    # Rows on both sides of the first segment boundary, which lies
    # _SIEVE_SEGMENT rows above n_lo.
    boundary = n_lo + arithmetic._SIEVE_SEGMENT
    omega, lam = sieve(boundary + 300, n_lo)
    rows = range(max(boundary - 300, 1), boundary + 301)
    assert omega[rows[0] - n_lo :].tolist() == [omega_brute(n) for n in rows]
    assert lam[rows[0] - n_lo :].tolist() == [liouville_brute(n) for n in rows]
    # Segments of 97 rows: a boundary at every residue of the primes.
    monkeypatch.setattr(arithmetic, "_SIEVE_SEGMENT", 97)
    omega, lam = sieve(n_lo + 3000, n_lo)
    rows = range(n_lo, n_lo + 3001)
    assert omega.tolist() == [omega_brute(n) if n else 0 for n in rows]
    assert lam.tolist() == [liouville_brute(n) if n else 0 for n in rows]


def test_sieve_keeps_two_bytes_per_n():
    # int8 omega and liouville; the int32 cofactor is the peak.
    n_max = 10**6
    tracemalloc.start()
    try:
        omega, lam = sieve(n_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n_max, peak / n_max
    assert omega.dtype == np.int8
    assert lam.dtype == np.int8


def test_beta_definition_table_matches_brute_force(sieve2k):
    by_def = beta_definition_table(sieve2k[1])
    assert by_def[1:].tolist() == [beta_brute(n) for n in range(1, 2001)]


@pytest.mark.parametrize("n_max", [1, 2, 3, 10, 99, 100, 1000, 4096, 4097, 20011])
def test_beta_definition_table_is_the_per_row_sum(n_max):
    # Rows grouped by quotient n_max // m give the row-by-row integers.
    lam = sieve(n_max)[1]
    by_def = beta_definition_table(lam)
    assert by_def.dtype == np.int64
    assert by_def.tolist() == beta_definition_per_m(lam, n_max)


def test_beta_closed_form_trichotomy():
    # +1 on squares, -2 on twice-squares, 0 everywhere else
    table = beta_closed_table(2000)
    assert table[0] == 0
    for n in range(1, 2001):
        root = math.isqrt(n)
        if root * root == n:
            assert table[n] == 1
        elif n % 2 == 0 and math.isqrt(n // 2) ** 2 == n // 2:
            assert table[n] == -2
        else:
            assert table[n] == 0


def test_beta_closed_table_windows_are_slices_of_the_whole():
    whole = beta_closed_table(5000)
    for lo, hi in ((0, 0), (0, 1), (1, 1), (2, 2), (3, 8), (8, 8), (17, 50), (49, 51),
                   (50, 50), (1000, 5000), (4999, 5000)):
        window = beta_closed_table(hi, lo)
        assert (window.dtype, window.tolist()) == (np.int8, whole[lo : hi + 1].tolist())


def test_beta_routes_agree_in_bulk(sieve2k):
    by_def = beta_definition_table(sieve2k[1])
    assert np.array_equal(by_def[1:], beta_closed_table(2000)[1:])


@pytest.mark.parametrize(
    "n_max, n_lo, message",
    [(2**31, 0, r"<= 2\*\*31 - 1"), (2**31, 2**31 - 5, r"<= 2\*\*31 - 1"),
     (10, 11, "n_lo <= n_max"), (10, -1, "0 <= n_lo"), (-1, 0, "0 <= n_lo")],
)
def test_sieve_rejects_bad_ranges_before_allocating(no_numpy, n_max, n_lo, message):
    no_numpy(arithmetic)
    with pytest.raises(InvalidBoundError, match=message):
        sieve(n_max, n_lo)


@given(a=st.integers(1, 1000), b=st.integers(1, 1000))
def test_liouville_completely_multiplicative(sieve1m, a, b):
    omega, lam = sieve1m
    assert lam[a * b] == lam[a] * lam[b]
    assert omega[a * b] == omega[a] + omega[b]
