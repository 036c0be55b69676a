"""Double arrays, partial-sum grids, and the three summation modes."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from zdl import (
    CesaroArray,
    LeeArray,
    SyntheticArray,
    classify_trace,
    diagnostics_report,
    double_array,
    eta,
    iterated_sum,
    pringsheim_trace,
    slabs,
)
from zdl.cli import _jsonable
from zdl.double_array import MAX_GRID_CELLS, DoubleArray
from zdl.errors import DomainError, InvalidBoundError

from oracles import (
    beta_brute,
    cesaro_rectangle,
    cesaro_term,
    dense_grid_reference,
    grid_cell_replay,
    iterated_trace_reference,
    lee_pairs_per_row,
    lee_term_brute,
    liouville_brute,
    negated_cesaro,
    slab_cell,
)

S_TEST = 0.8 + 0.5j


@pytest.fixture(scope="module")
def lee():
    return LeeArray(S_TEST)


@pytest.fixture(scope="module")
def lee_window(lee):
    return lee, 40, 300


def test_term_supported_on_divisors(lee):
    block = lee.rectangle(1, 30, 120)
    for m in range(1, 31):
        for n in range(1, 121):
            assert abs(block[m - 1, n - 1] - lee_term_brute(S_TEST, m, n)) <= 1e-15


def test_column_limit_is_exact_coefficient(lee):
    limits = lee.column_limits(200)
    for n in (1, 2, 4, 8, 12, 37, 50, 98, 200):
        # same scaling route as the implementation, so the integer
        # combination in front must match exactly for equality to hold
        expected = beta_brute(n) * np.exp(-S_TEST * np.log(float(n)))
        assert limits[n - 1] == expected
        assert lee.column_limits(n)[n - 1] == limits[n - 1]


def test_row_limit_factorizes_through_eta(lee):
    base = eta(S_TEST).value
    limits = lee.row_limits(16)
    for m in (1, 3, 7, 16):
        expected = liouville_brute(m) * m ** -S_TEST * base
        assert abs(limits[m - 1] - expected) <= 1e-14
        assert lee.row_limits(m, m)[0] == limits[m - 1]


def test_row_values_supported_on_multiples(lee):
    values = lee.rectangle(6, 6, 100)[0]
    for n in range(1, 101):
        if n % 6:
            assert values[n - 1] == 0
        else:
            assert abs(values[n - 1] - lee_term_brute(S_TEST, 6, n)) <= 1e-15
    partial = np.cumsum(values)
    assert abs(np.sum(lee.pairs(6, 6, 100)[2]) - partial[-1]) <= 1e-15


def test_pairs_enumerates_divisor_hits(lee):
    m_arr, n_arr, v_arr = lee.pairs(1, 40, 300)
    assert np.all(n_arr % m_arr == 0)
    for i in (0, len(m_arr) // 2, len(m_arr) - 1):
        brute = lee_term_brute(S_TEST, int(m_arr[i]), int(n_arr[i]))
        assert abs(v_arr[i] - brute) <= 1e-15


@pytest.fixture(params=["lee", "cesaro", "zeros", "interchange_ratio"])
def any_array(request, lee):
    if request.param == "lee":
        return lee
    if request.param == "cesaro":
        return CesaroArray()
    return SyntheticArray(request.param)


# (m_lo, m_hi, n_max): from row 1, from a later row, rows past n_max,
# rows that Lee leaves empty, and an empty rectangle.
@pytest.mark.parametrize(
    "m_lo, m_hi, n_max", [(1, 12, 40), (5, 9, 60), (3, 50, 20), (30, 40, 20), (6, 5, 10)]
)
def test_pairs_are_the_nonzero_terms(any_array, m_lo, m_hi, n_max):
    m_col, n_col, values = any_array.pairs(m_lo, m_hi, n_max)
    rect = any_array.rectangle(m_lo, m_hi, n_max)
    hit_m, hit_n = np.nonzero(rect)
    assert np.array_equal(m_col, hit_m + m_lo)
    assert np.array_equal(n_col, hit_n + 1)
    assert values.dtype == np.complex128
    assert values.tobytes() == rect[hit_m, hit_n].tobytes()
    # A window n_lo..n_max is bit for bit the slice of the full rectangle.
    for n_lo in (2, n_max // 3 + 1, n_max, n_max + 1):
        w_m, w_n, w_values = any_array.pairs(m_lo, m_hi, n_max, n_lo)
        keep = n_col >= n_lo
        assert np.array_equal(w_m, m_col[keep])
        assert np.array_equal(w_n, n_col[keep])
        assert w_values.tobytes() == values[keep].tobytes()


def test_pairs_rejects_row_zero(any_array):
    with pytest.raises(InvalidBoundError):
        any_array.pairs(0, 3, 10)
    with pytest.raises(InvalidBoundError):
        any_array.pairs(1, 3, 10, 0)
    with pytest.raises(InvalidBoundError):
        any_array.rectangle(1, 3, 10, 0)
    # The limits start at row and column 1, with no slot 0.
    with pytest.raises(InvalidBoundError):
        any_array.row_limits(5, 0)
    with pytest.raises(InvalidBoundError):
        any_array.column_limits(5, 0)


@pytest.mark.parametrize("m_lo, m_hi, n_max", [(1, 1, 1), (1, 97, 97), (3, 40, 97), (50, 60, 1000)])
def test_divisor_hits_counts_lee_entries(lee, m_lo, m_hi, n_max):
    hits = lee.pair_bound(m_lo, m_hi, n_max)
    assert hits == sum(n_max // m for m in range(m_lo, m_hi + 1))
    assert hits == len(lee.pairs(m_lo, m_hi, n_max)[0])
    # Windows n_lo..n_max count only their own multiples.
    for n_lo in (2, max(1, n_max // 2), n_max, n_max + 1):
        hits = lee.pair_bound(m_lo, m_hi, n_max, n_lo)
        assert hits == sum(n_max // m - (n_lo - 1) // m for m in range(m_lo, m_hi + 1))
        assert hits == len(lee.pairs(m_lo, m_hi, n_max, n_lo)[0])


# (m_lo, m_hi, n_max, n_lo): rows m >= max(width, isqrt(n_max)) are
# listed by quotient.  Rows all below that split, all above it, across
# it, rows past n_max, one column, no rows, and n_lo past n_max.
@pytest.mark.parametrize("window", [
    (1, 30, 2000, 1),
    (50, 400, 2000, 1990),
    (1, 500, 10_000, 9990),
    (1, 3000, 2000, 1901),
    (7, 900, 1500, 1500),
    (200, 100, 500, 1),
    (10, 40, 300, 301),
    (10, 40, 300, 500),
])
def test_lee_pairs_match_a_per_row_listing(lee, window):
    got = lee.pairs(*window)
    want = lee_pairs_per_row(S_TEST, *window)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


def test_lee_pairs_match_a_per_row_listing_on_random_windows(lee):
    rng = np.random.default_rng(22)
    for _ in range(300):
        n_max = int(rng.integers(1, 3000))
        m_lo = int(rng.integers(1, n_max + 2))
        m_hi = m_lo + int(rng.integers(-1, n_max + 1))
        n_lo = int(rng.integers(max(1, n_max - 40), n_max + 2))
        if rng.random() < 0.5:
            n_lo = int(rng.integers(1, n_max + 2))
        got = lee.pairs(m_lo, m_hi, n_max, n_lo)
        want = lee_pairs_per_row(S_TEST, m_lo, m_hi, n_max, n_lo)
        window = (m_lo, m_hi, n_max, n_lo)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want)), window


# (m_lo, n_max): more rows than the cap, then 5e6 rows (below the cap)
# holding about 7.8e7 divisor hits (above it).
@pytest.mark.parametrize(
    "m_lo, n_max", [(MAX_GRID_CELLS, 2 * MAX_GRID_CELLS), (1, 5_000_000)]
)
def test_lee_pairs_rejects_entries_above_the_cap_before_allocating(
    no_numpy, no_sieve, m_lo, n_max
):
    lee = LeeArray(2.0)
    no_numpy(double_array)
    with pytest.raises(InvalidBoundError, match="divisor hits"):
        lee.pairs(m_lo, n_max, n_max)


def test_term_is_bitwise_the_pairs_and_grid_value():
    lee = LeeArray(0.5 + 14.134725j)
    # At n = 9170, cmath.exp and np.exp differ in the last bit.
    n = 9170
    m_col, n_col, values = lee.pairs(1, n, n)
    at_n = n_col == n
    assert np.array_equal(m_col[at_n], [1, 2, 5, 7, 10, 14, 35, 70, 131, 262, 655,
                                        917, 1310, 1834, 4585, 9170])
    for m, v in zip(m_col[at_n], values[at_n]):
        assert lee.rectangle(int(m), int(m), n, n)[0, 0] == v
    # A grid cell replays row-then-column running sums of the same entries.
    replay = grid_cell_replay(lambda m: lee.rectangle(m, m, 40)[0].tolist(), 6)
    assert slab_cell((lee, 6, 40), 6, 40) == replay


def test_grid_matches_brute_double_sum(lee_window):
    total = 0j
    for m in range(1, 13):
        for n in range(1, 38):
            total += lee_term_brute(S_TEST, m, n)
    assert abs(slab_cell(lee_window, 12, 37) - total) <= 1e-13


def test_column_sum_matches_grid(lee, lee_window):
    # Column n holds entries only at rows m | n, so for n <= 20 every
    # column lies inside the 40-row grid and its limit is a finite sum.
    limits = lee.column_limits(20)
    running = 0j
    for n in range(1, 21):
        running += limits[n - 1]
        assert abs(slab_cell(lee_window, 40, n) - running) <= 1e-13


def test_recompute_cell_is_bit_exact(lee, lee_window):
    rng = np.random.default_rng(7)
    for _ in range(25):
        m = int(rng.integers(1, 41))
        n = int(rng.integers(1, 301))
        replay = grid_cell_replay(lambda r: lee.rectangle(r, r, n)[0].tolist(), m)
        assert slab_cell(lee_window, m, n) == replay


def test_cesaro_grid_matches_closed_form():
    window = (CesaroArray(), 64, 64)
    for m in (1, 3, 17, 64):
        for n in (1, 2, 33, 64):
            assert abs(slab_cell(window, m, n) - cesaro_rectangle(m, n)) <= 1e-15


def test_cesaro_row_and_column_limits():
    ces = CesaroArray()
    rows = ces.row_limits(10)
    cols = ces.column_limits(8)
    for m in (1, 2, 10):
        assert rows[m - 1] == 2.0 ** -m
        assert ces.row_limits(m, m)[0] == 2.0 ** -m
    for n in (1, 2, 3, 8):
        assert cols[n - 1] == (1.0 if n % 2 else -1.0)
        assert ces.column_limits(n)[n - 1] == cols[n - 1]


def test_cesaro_terms_match_closed_form():
    ces = CesaroArray()
    block = ces.rectangle(1, 9, 11)
    assert block.shape == (9, 11) and block.dtype == np.complex128
    for m in (1, 4, 9):
        for n in (2, 3, 10, 11):
            assert abs(block[m - 1, n - 1] - cesaro_term(m, n)) <= 1e-18
            assert ces.rectangle(m, m, n, n)[0, 0] == block[m - 1, n - 1]


def test_zeros_array_is_identically_zero():
    zeros = SyntheticArray("zeros")
    assert np.all(dense_grid_reference(zeros, 16, 16) == 0)
    assert all(np.all(sums == 0) for _, sums in slabs(zeros, 16, 16))


def test_ratio_grid_is_m_over_m_plus_n():
    window = (SyntheticArray("interchange_ratio"), 50, 50)
    for m in (1, 7, 50):
        for n in (1, 29, 50):
            assert abs(slab_cell(window, m, n) - m / (m + n)) <= 1e-14


def test_lee_rejects_bad_parameters(no_sieve):
    with pytest.raises(DomainError):
        LeeArray(complex("nan"))
    with pytest.raises(DomainError):
        LeeArray(-1.0 + 0j)
    lee = LeeArray(2.0 + 0j)
    # The array sieves the rows it reads, up to MAX_GRID_CELLS; a row
    # above that is refused before any sieve.
    row = MAX_GRID_CELLS + 1
    with pytest.raises(InvalidBoundError, match="row m = "):
        lee.rectangle(row, row, row)
    with pytest.raises(InvalidBoundError, match="row m = "):
        lee.rectangle(row - 3, row, row, row)
    with pytest.raises(InvalidBoundError, match="row m = "):
        lee.pairs(row, row + 5, 2 * row)
    with pytest.raises(InvalidBoundError, match="row m = "):
        lee.row_limits(row)
    # Rows past n_max hold no hit, so they need no sieve.
    assert len(lee.pairs(2001, 5000, 2000)[0]) == 0
    assert not lee.rectangle(2001, 2100, 2000, 1901).any()
    # float64 holds n exactly only up to 2**53.
    with pytest.raises(InvalidBoundError, match="2\\*\\*53"):
        lee.rectangle(1, 1, 2**53 + 2, 2**53 + 2)
    with pytest.raises(InvalidBoundError, match="2\\*\\*53"):
        lee.pairs(2**52, 2**52, 2**53 + 2, 2**53 + 1)
    with pytest.raises(InvalidBoundError):
        lee.rectangle(0, 3, 12)
    assert no_sieve == []


class _Band(DoubleArray):
    """Two diagonals: a(m, m) = v(m) and a(m, m + 1) = v(m) / 2, with
    v(m) = (1 + 0.5i) (-1)**m / m; each twin below defines them once."""

    label = "band"

    @staticmethod
    def _entries(m, n):
        return np.where(n == m, 1.0, 0.5) * (1 + 0.5j) * (-1.0) ** m / m

    def row_limits(self, m_max, m_lo=1):
        m = np.arange(m_lo, m_max + 1)
        return 1.5 * self._entries(m, m)

    def column_limits(self, n_max, n_lo=1):
        n = np.arange(n_lo, n_max + 1)
        below = np.where(n > 1, self._entries(np.maximum(n - 1, 1), n), 0)
        return self._entries(n, n) + below


class _SparseBand(_Band):
    """The band by its entries alone: pairs and pair_bound."""

    def pairs(self, m_lo, m_hi, n_max, n_lo=1):
        m = np.repeat(np.arange(m_lo, m_hi + 1), 2)
        n = m + np.tile([0, 1], len(m) // 2)
        keep = (n_lo <= n) & (n <= n_max)
        m, n = m[keep], n[keep]
        return m, n, self._entries(m, n)

    def pair_bound(self, m_lo, m_hi, n_max, n_lo=1):
        return 2 * max(m_hi - m_lo + 1, 0)


class _DenseBand(_Band):
    """The band as dense blocks: rectangle alone."""

    def rectangle(self, m_lo, m_hi, n_max, n_lo=1):
        m = np.arange(m_lo, m_hi + 1)[:, None]
        n = np.arange(n_lo, n_max + 1)
        return np.where((n == m) | (n == m + 1), self._entries(m, n), 0)


def test_one_definition_serves_every_consumer():
    # The base class derives a sparse array's rectangle and a dense
    # array's pairs, so both twins read the same through every consumer.
    sparse, dense = _SparseBand(), _DenseBand()
    for window in ((1, 40, 50), (3, 40, 50, 7), (45, 60, 50)):
        assert sparse.rectangle(*window).tobytes() == dense.rectangle(*window).tobytes()
        for got, want in zip(sparse.pairs(*window), dense.pairs(*window)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    report = [
        json.dumps(diagnostics_report(a, 64, 128, scan_reach=512), default=_jsonable)
        for a in (sparse, dense)
    ]
    assert report[0] == report[1]
    for order in ("rows_then_m", "columns_then_n"):
        got, want = (iterated_sum(a, order, 300) for a in (sparse, dense))
        assert got.trace.tobytes() == want.trace.tobytes()
        assert repr(got.verdict) == repr(want.verdict)
    for aspect in (Fraction(1), Fraction(3, 2)):
        got, want = (pringsheim_trace(a, 200, aspect) for a in (sparse, dense))
        assert got.trace.tobytes() == want.trace.tobytes()
        assert repr(got.verdict) == repr(want.verdict)
        got, want = (double_array._rectangle_trace(a, 200, aspect)[1] for a in (sparse, dense))
        assert repr(got) == repr(want)


def _same_pairs(a, b, *window):
    return all(x.tobytes() == y.tobytes() for x, y in zip(a.pairs(*window), b.pairs(*window)))


def test_lee_row_limits_refuse_a_row_before_allocating(monkeypatch, traced_peak):
    # The float64 span of rows 1..1e6 took 7.6 MiB before the sieve
    # refused its top row; at the real cap, rows to 2**27 would take 1 GiB.
    monkeypatch.setattr(double_array, "MAX_GRID_CELLS", 4096)
    lee = LeeArray(2)

    def refused():
        with pytest.raises(InvalidBoundError, match="the most rows the lee array sieves"):
            lee.row_limits(10**6)

    _, peak = traced_peak(refused)
    assert peak <= 2**16, peak


def test_lee_entries_past_the_sieve_match_a_sieve_to_n(sieved):
    # One sieve grows from row 2000 to row 3e6, the other covers 3e6 rows
    # from its first read: every entry, pair and row limit keeps its bits.
    n_far = 3_000_000
    s = 0.5 + 14.134725j
    grown, direct = LeeArray(s), LeeArray(s)
    whole = direct.row_limits(n_far)
    assert grown.row_limits(2000).tobytes() == whole[:2000].tobytes()
    # Columns 1500 times further out than the rows, and rows past n_max,
    # need no more sieve.
    assert _same_pairs(grown, direct, 1, 2000, n_far, n_far - 5000)
    assert len(grown.pairs(1999, 5000, 2000)[0]) == 2
    assert sieved == [(1, n_far), (1, 2000)]
    assert grown.row_limits(n_far).tobytes() == whole.tobytes()
    assert sieved == [(1, n_far), (1, 2000), (2001, n_far)]
    assert _same_pairs(grown, direct, 1, n_far, n_far, n_far - 5000)
    # Columns read beta's closed form, bit for bit a square / twice-square
    # array built here.
    cols = np.arange(1, 100_001)
    roots = np.arange(1, math.isqrt(100_000) + 1)
    beta = np.zeros(100_001, dtype=np.int8)
    beta[roots**2] = 1
    beta[2 * roots[2 * roots**2 <= 100_000] ** 2] = -2
    by_rule = beta[1:] * np.exp(-s * np.log(cols.astype(np.float64)))
    assert grown.column_limits(100_000).tobytes() == by_rule.tobytes()


def test_lee_sieves_each_row_once_as_rows_climb(sieved):
    lee = LeeArray(0.5 + 14.134725j)
    for lo in range(1, 2**20 + 1, 64):
        lee.row_limits(lo + 63, lo)
    # Contiguous segments from row 1, none overlapping, that make up the
    # whole sieve; growth at least doubles it, so there are few of them.
    assert [lo for lo, _ in sieved] == [1] + [hi + 1 for _, hi in sieved[:-1]], sieved
    assert sum(hi - lo + 1 for lo, hi in sieved) + 1 == len(lee._liouville(0))
    assert sieved[-1][1] >= 2**20 and len(sieved) <= 21, sieved


def test_synthetic_rejects_unknown_rule():
    with pytest.raises(InvalidBoundError):
        SyntheticArray("spiral")


def test_classify_trace_converged():
    verdict = classify_trace(np.full(32, 0.25 + 0.25j))
    assert verdict.kind == "converged"
    assert verdict.value == 0.25 + 0.25j
    assert verdict.residual == 0.0


def test_classify_trace_oscillating():
    trace = np.array([1.0, 0.0] * 16, dtype=np.complex128)
    verdict = classify_trace(trace)
    assert verdict.kind == "oscillating"
    assert verdict.band is not None
    lo, hi = verdict.band
    assert lo.real == 0.0 and hi.real == 1.0


def test_classify_trace_inconclusive_on_slow_drift():
    trace = np.linspace(0.0, 1e-5, 64).astype(np.complex128)
    verdict = classify_trace(trace, tolerance=1e-6)
    assert verdict.kind == "inconclusive"


def test_classify_trace_needs_two_entries():
    with pytest.raises(InvalidBoundError):
        classify_trace(np.array([1.0 + 0j]))


def test_iterated_sums_on_cesaro():
    ces = CesaroArray()
    rows = iterated_sum(ces, "rows_then_m", 32)
    assert rows.verdict.kind == "converged"
    assert abs(rows.verdict.value - 1.0) <= 1e-9
    cols = iterated_sum(ces, "columns_then_n", 16)
    assert [v.real for v in cols.trace] == [1.0, 0.0] * 8


def test_iterated_sums_on_ratio():
    ratio = SyntheticArray("interchange_ratio")
    rows = iterated_sum(ratio, "rows_then_m", 16)
    assert rows.verdict.kind == "converged"
    assert abs(rows.verdict.value) <= 1e-12
    cols = iterated_sum(ratio, "columns_then_n", 16)
    assert cols.verdict.kind == "converged"
    assert abs(cols.verdict.value - 1.0) <= 1e-12


def test_iterated_sum_guards():
    with pytest.raises(InvalidBoundError):
        iterated_sum(CesaroArray(), "sideways", 16)
    with pytest.raises(InvalidBoundError):
        iterated_sum(CesaroArray(), "rows_then_m", 1)
    # refused before the limits array is allocated
    with pytest.raises(InvalidBoundError):
        iterated_sum(CesaroArray(), "rows_then_m", MAX_GRID_CELLS + 1)
    with pytest.raises(InvalidBoundError):
        iterated_sum(SyntheticArray("zeros"), "columns_then_n", 10**12)


class _NegatedLimits(CesaroArray):
    """Cesaro row limits negated, so each imaginary part is -0.0."""

    def row_limits(self, m_max, m_lo=1):
        return -super().row_limits(m_max, m_lo)


@pytest.mark.parametrize("order", ["rows_then_m", "columns_then_n"])
@pytest.mark.parametrize("name", ["lee", "lee_zero", "cesaro", "interchange_ratio"])
def test_iterated_sum_is_bitwise_one_cumulative_sum(name, order, monkeypatch):
    if name.startswith("lee"):
        array = LeeArray(0.5 + 14.134725141734695j if name == "lee_zero" else 1.75 + 12.5j)
    else:
        array = CesaroArray() if name == "cesaro" else SyntheticArray(name)
    limits = array.row_limits if order == "rows_then_m" else array.column_limits
    for outer in (2, 65536, 65537, 300_000):
        expected = iterated_trace_reference(limits, outer)
        assert iterated_sum(array, order, outer).trace.tobytes() == expected.tobytes()
    # Windows of 7 slots, each starting off its neighbours' alignment.
    monkeypatch.setattr(double_array, "_LIMIT_SLOTS", 7)
    for outer in (2, 7, 8, 1000):
        expected = iterated_trace_reference(limits, outer)
        assert iterated_sum(array, order, outer).trace.tobytes() == expected.tobytes()
        lo = outer // 3 + 1
        assert limits(outer, lo).tobytes() == limits(outer)[lo - 1 :].tobytes()


def test_iterated_sum_keeps_a_leading_signed_zero(monkeypatch):
    monkeypatch.setattr(double_array, "_LIMIT_SLOTS", 5)
    array = _NegatedLimits()
    trace = iterated_sum(array, "rows_then_m", 23).trace
    assert np.signbit(trace.imag).all()
    assert trace.tobytes() == iterated_trace_reference(array.row_limits, 23).tobytes()


def test_iterated_sum_memory_is_the_trace(traced_peak):
    lee = LeeArray(1.75 + 12.5j)
    for order in ("rows_then_m", "columns_then_n"):
        _, peak = traced_peak(iterated_sum, lee, order, 1_000_000)
        # The 16 MB trace and one window of 2**16 limits; the whole
        # limits table and its temporaries were about 70 MB.
        assert peak <= 24 * 2**20, f"{order} peaked at {peak / 2**20:.1f} MB"


def test_pringsheim_diagonal_trap_demoted():
    # the pure diagonal settles near 1 but the rectangle corners disagree
    rep = pringsheim_trace(CesaroArray(), 64)
    assert rep.verdict.kind == "inconclusive"
    # a demoted verdict carries the corner spread as its residual
    assert rep.verdict.residual > 1e-4
    assert abs(rep.trace[-1] - 1.0) <= 1e-6


def test_pringsheim_aspect_changes_the_answer():
    ratio = SyntheticArray("interchange_ratio")
    finals = {}
    for aspect, expected in ((Fraction(1), 0.5), (Fraction(2), 2 / 3), (Fraction(1, 2), 1 / 3)):
        rep = pringsheim_trace(ratio, 64, aspect)
        assert rep.verdict.kind != "converged"
        finals[aspect] = rep.trace[-1]
        assert abs(rep.trace[-1] - expected) <= 1e-9
    assert len({complex(v) for v in finals.values()}) == 3


def test_pringsheim_on_the_zero_array_converges_to_zero():
    rep = pringsheim_trace(SyntheticArray("zeros"), 16)
    assert rep.verdict.kind == "converged"
    assert rep.verdict.value == 0
    assert not np.any(rep.trace)


@pytest.mark.parametrize("aspect", [Fraction(1), Fraction(3, 2), Fraction(2, 3)])
def test_pringsheim_trace_matches_closed_forms(aspect):
    ces = pringsheim_trace(CesaroArray(), 64, aspect)
    ratio = pringsheim_trace(SyntheticArray("interchange_ratio"), 64, aspect)
    for k in range(1, 65):
        m = -((-k * aspect.numerator) // aspect.denominator)
        assert abs(ces.trace[k - 1] - cesaro_rectangle(m, k)) <= 1e-13
        assert abs(ratio.trace[k - 1] - m / (m + k)) <= 1e-13
    for m, n, value in double_array._rectangle_trace(CesaroArray(), 64, aspect)[1]:
        assert abs(value - cesaro_rectangle(m, n)) <= 1e-13


def test_pringsheim_needs_a_real_rectangle(no_numpy):
    with pytest.raises(InvalidBoundError):
        pringsheim_trace(CesaroArray(), 3)
    # 81e6 cells, refused before the first window allocates anything
    no_numpy(double_array)
    with pytest.raises(InvalidBoundError, match="rectangle of rows 1..9000"):
        pringsheim_trace(CesaroArray(), 9000)


def test_pringsheim_caps_k_max_before_counting(monkeypatch):
    # Lee's pair_bound is a loop of about 2 * isqrt(k_max) steps: k_max
    # 1e14 was refused after 10.8 s, and 1e20 would take hours.
    lee = LeeArray(2)

    def count(*args):
        raise AssertionError("the rectangle was counted before k_max was checked")

    monkeypatch.setattr(double_array, "_quotient_sum", count)
    with pytest.raises(InvalidBoundError, match=f"k_max must be in 4..{MAX_GRID_CELLS}"):
        pringsheim_trace(lee, 10**20)


def test_rectangle_trace_refuses_an_aspect_past_int64(no_numpy):
    # An entry joins at K = (m - 1) * q // p + 1, taken in int64.  The
    # largest denominator still traces.
    trace = pringsheim_trace(CesaroArray(), 4, Fraction(1, 2**63 - 1)).trace
    assert np.allclose(trace, [cesaro_rectangle(1, k) for k in range(1, 5)], rtol=0, atol=1e-13)
    # A term past int64 raised OverflowError, and a product past it
    # wrapped: row 4 of the last Lee rectangle joined at K = 4, not 6,
    # and the trace was 0.11 off at K = 3.
    lee = LeeArray(2)
    no_numpy(double_array)
    for array, k_max, aspect in ((CesaroArray(), 4, Fraction(1, 10**20)),
                                 (lee, 4, Fraction(10**20)),
                                 (lee, 8, Fraction(2**61 + 1, 2**62))):
        with pytest.raises(InvalidBoundError, match="use an aspect with smaller terms"):
            pringsheim_trace(array, k_max, aspect)


def _reference_rectangle_trace(array, k_max, aspect):
    """The whole-rectangle trace: every entry at once, one global sort."""
    p, q = aspect.numerator, aspect.denominator
    m_col, n_col, values = array.pairs(1, -((-k_max * p) // q), k_max)
    enter = np.maximum(n_col, (m_col - 1) * q // p + 1)
    order = np.argsort(enter, kind="stable")
    enter = enter[order]
    values = values[order]
    m_col = m_col[order]
    n_col = n_col[order]
    csum = np.concatenate(([0j], np.cumsum(values)))
    trace = csum[np.searchsorted(enter, np.arange(1, k_max + 1), side="right")]
    corners = []
    k_half = max(1, k_max // 2)
    for kk in (k_max, k_half):
        for nn in (k_max, k_half):
            mm = -((-kk * p) // q)
            # The corner's running sum in trace order, as the trace sums.
            running = np.cumsum(values[(m_col <= mm) & (n_col <= nn)])
            corners.append((mm, nn, complex(running[-1]) if len(running) else 0j))
    return trace, corners


_TRACE_ARRAYS = {
    "lee_s2": lambda: LeeArray(2.0),
    "lee_off_line": lambda: LeeArray(1.7 + 12.3j),
    "lee_near_zero": lambda: LeeArray(0.5 + 14.134725j),
    "cesaro": CesaroArray,
    "interchange_ratio": lambda: SyntheticArray("interchange_ratio"),
    "zeros": lambda: SyntheticArray("zeros"),
}


@pytest.mark.parametrize("k_max", [4, 5, 17, 1000, 20_011])
@pytest.mark.parametrize("aspect", [Fraction(1), Fraction(2), Fraction(1, 2),
                                    Fraction(3, 2), Fraction(2, 3)],
                         ids=["1", "2", "1_2", "3_2", "2_3"])
@pytest.mark.parametrize("name", list(_TRACE_ARRAYS))
def test_rectangle_trace_is_bitwise_the_whole_rectangle(
    name, aspect, k_max, monkeypatch
):
    array = _TRACE_ARRAYS[name]()
    if name in ("cesaro", "interchange_ratio", "zeros") and k_max > 1000:
        # dense rectangles of 20011 columns hold over 4e8 cells
        for trace_of in (_reference_rectangle_trace, double_array._rectangle_trace):
            with pytest.raises(InvalidBoundError):
                trace_of(array, k_max, aspect)
        return
    expected_trace, expected_corners = _reference_rectangle_trace(array, k_max, aspect)
    expected_values = np.array([c[2] for c in expected_corners])
    pairs = array.pairs
    # A budget of 5 entries makes many windows, at k_max 1000 one per K
    # step; at k_max 20011 that would be 20011 windows, so 2**10 (about
    # 200 windows) stands in there.  The default makes one or two.
    small = 5 if k_max <= 1000 else 1 << 10
    for budget in (small, double_array._TRACE_ENTRIES):
        sizes = []
        monkeypatch.setattr(array, "pairs", lambda *a: sizes.append(len((r := pairs(*a))[0])) or r)
        monkeypatch.setattr(double_array, "_TRACE_ENTRIES", budget)
        trace, corners = double_array._rectangle_trace(array, k_max, aspect)
        assert trace.tobytes() == expected_trace.tobytes()
        assert [c[:2] for c in corners] == [c[:2] for c in expected_corners]
        assert np.array([c[2] for c in corners]).tobytes() == expected_values.tobytes()
        # The on-ray corners (m_max, k_max) and (m_half, k_half) are the
        # trace at k_max and k_half.
        on_ray = np.array([corners[0][2], corners[3][2]])
        assert on_ray.tobytes() == trace[[-1, max(1, k_max // 2) - 1]].tobytes()
        windows = [a + b for a, b in zip(sizes[::2], sizes[1::2])]
        if budget == small:
            assert len(windows) > 1
        if budget == small and k_max == 1000:
            assert len(windows) == k_max
            # (1, 1) alone, unless aspect > 1 adds row 2 at K = 1; the
            # zeros array leaves every window empty
            if aspect <= 1:
                assert windows[0] == (name != "zeros")
    # Accuracy apart from any order: a running sum of count entries is
    # off by at most (count - 1) * 2**-53 * sum|a| in each part, so each
    # part must lie within count * 2**-52 * sum|a| of the exact sum.
    for mm, nn, value in corners:
        entries = pairs(1, mm, nn)[2]
        bound = len(entries) * 2.0**-52 * math.fsum(np.abs(entries))
        assert abs(value.real - math.fsum(entries.real)) <= bound
        assert abs(value.imag - math.fsum(entries.imag)) <= bound


def test_rectangle_trace_keys_fit_in_sixteen_bits():
    # 35,002 entries over 70,001 steps: one window would hold them all,
    # but its entries' K less k0 + 1 would not fit in a 16-bit sort key.
    array, k_max, aspect = _SparseBand(), 70_001, Fraction(1, 4)
    assert array.pair_bound(1, -(-k_max // 4), k_max) <= double_array._TRACE_ENTRIES < k_max
    expected_trace, expected_corners = _reference_rectangle_trace(array, k_max, aspect)
    trace, corners = double_array._rectangle_trace(array, k_max, aspect)
    assert trace.tobytes() == expected_trace.tobytes()
    assert [c[:2] for c in corners] == [c[:2] for c in expected_corners]
    values = [np.array([c[2] for c in cs]).tobytes() for cs in (corners, expected_corners)]
    assert values[0] == values[1]


def test_rectangle_trace_keeps_signed_zeros(monkeypatch):
    # 0.0 + -0.0 is +0.0, so a running sum started from a zero carry
    # would flip every imaginary part of this trace.
    array = negated_cesaro()
    expected_trace, _ = _reference_rectangle_trace(array, 17, Fraction(1))
    assert np.signbit(expected_trace.imag).all()
    for budget in (5, double_array._TRACE_ENTRIES):
        monkeypatch.setattr(double_array, "_TRACE_ENTRIES", budget)
        trace, corners = double_array._rectangle_trace(array, 17, Fraction(1))
        assert trace.tobytes() == expected_trace.tobytes()
        assert np.signbit([c[2].imag for c in corners]).all()


@pytest.mark.parametrize("k_max, aspect", [(64, Fraction(1)), (3000, Fraction(1)),
                                           (1000, Fraction(3, 2))])
def test_dense_rectangle_trace_evaluates_each_cell_once(k_max, aspect, monkeypatch):
    array = CesaroArray()
    rectangle, cells = array.rectangle, []
    monkeypatch.setattr(array, "rectangle", lambda *a: cells.append((r := rectangle(*a)).size) or r)
    double_array._rectangle_trace(array, k_max, aspect)
    assert sum(cells) == -((-k_max * aspect.numerator) // aspect.denominator) * k_max


def test_rectangle_trace_memory_is_windowed(traced_peak):
    lee = LeeArray(1.7 + 12.3j)
    _, peak = traced_peak(pringsheim_trace, lee, 200_000)
    # 2,472,113 divisor hits, none of them held past its window: the
    # trace (3.1 MiB) and one window peak at about 12.2 MiB; listing every
    # old row of a window took 18.1 MiB.
    assert peak <= 16 * 2**20, f"rectangle trace peaked at {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("k0, k1", [(100_000, 105_264), (199_000, 200_000),
                                    (150_000, 150_001)])
def test_lee_pairs_memory_follows_the_hits(k0, k1, traced_peak):
    # The old rows of one rectangle-trace window at k_max 200000.
    lee = LeeArray(1.7 + 12.3j)
    lee.row_limits(200_000, 200_000)
    hits = lee.pair_bound(1, 200_000, k1, k0 + 1)
    _, peak = traced_peak(lee.pairs, 1, 200_000, k1, k0 + 1)
    # 32 B per hit returned and about 45 B of temporaries, not some 30 B
    # for each of the 200,000 rows (6.0 MB for 2 hits when listed by row).
    assert peak <= 96 * hits + 2**18, f"{hits} hits took {peak} B"


def test_dense_rectangle_trace_memory_is_windowed(traced_peak):
    _, peak = traced_peak(pringsheim_trace, CesaroArray(), 3000)
    # About 6.4e6 nonzero cells (Cesaro terms underflow past n = 2146),
    # summed window by window in one pass: about 11 MB.
    assert peak <= 24 * 2**20, f"rectangle trace peaked at {peak / 2**20:.1f} MB"
