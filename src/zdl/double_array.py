"""Double arrays and the three summation orders applied to them.

A double array here is a map (m, n) -> a(m, n) over positive integer
pairs.  Every array meets one contract (DoubleArray) and defines its
entries once: a dense array as the complex block rectangle(m_lo, m_hi,
n_max, n_lo=1), a sparse one as the nonzero entries of that rectangle,
pairs(m_lo, m_hi, n_max, n_lo=1), with pair_bound, the bound on what
such a call holds; the base class derives the other view.  Row and
column limits, row_limits and column_limits, complete the contract.
Slabs, the rectangle trace and both uniformity scans reach an array
only through it, so each keeps one code path for every array; the
block-tail scan walks n, and the rectangle trace K, in windows of pairs
sized by pair_bound.

Three ways of attaching a value to the whole array are compared:

* row-iterated: sum each row to its limit, then add the row sums,
* column-iterated: sum each column to its limit, then add the column sums,
* rectangle (Pringsheim-style): partial sums S(M, N) over growing
  rectangles, traced along a fixed aspect ratio.

The arrays provided:

* LeeArray: a(m, n) = liouville(m) * (-1)**(n/m + 1) / n**s on divisor
  hits m | n, else 0.  Rows collapse to liouville(m) * m**(-s) * eta(s);
  column n is a finite sum equal to the signed divisor transform of n
  over n**s.  The three orders agree where everything converges
  absolutely and pull apart as re(s) shrinks.  It defines its entries
  by pairs, which enumerate the divisor hits directly, and it sieves
  liouville itself, each row once and only as far as the rows it reads:
  columns read beta's closed form.
* CesaroArray: the classical counterexample whose rows sum to 2**(-m)
  (total 1) while its columns sum to (-1)**(n+1) (oscillating partials).
* SyntheticArray: calibration rules with known behavior ("zeros" and the
  interchange counterexample whose partial sums are m/(m+n)).
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arithmetic import beta_closed_table, sieve
from .dirichlet_eval import _capped, eta
from .errors import DomainError, InvalidBoundError

# Largest number of cells of a partial-sum window, of a rectangle and of
# a scan.  Windows are walked in slabs, so for them it bounds time (about
# 5 s at the cap on 2 vCPUs), not memory.
MAX_GRID_CELLS = 1 << 26

# Rows of one slab of a partial-sum grid, also the block height of the
# column settle profiles, whose block extents the slabs supply.
SLAB_ROWS = 64

# Cells of one rectangle call of a slab.
_RECTANGLE_CELLS = 1 << 16

# Slots of row or column limits an iterated sum takes at a time; the
# limits and their temporaries hold about 64 B per slot, 1 MiB at once.
_LIMIT_SLOTS = 1 << 14

# Entries of one K-window of the rectangle trace; its working arrays
# hold about 150 B per entry, 9 MiB at once, whatever the rectangle holds.
_TRACE_ENTRIES = 1 << 16

# Largest column index of LeeArray: float64 holds every n <= 2**53
# exactly, so n**(-s) is taken at n itself.
MAX_LEE_COLUMN = 1 << 53

ROW_ITERATED = "row_iterated"
COLUMN_ITERATED = "column_iterated"
PRINGSHEIM_DIAGONAL = "pringsheim_diagonal"


@dataclass(frozen=True)
class Verdict:
    """Outcome of inspecting a partial-sum trace.

    kind is one of "converged", "oscillating", "inconclusive".  Converged
    verdicts carry the settled value and the tail diameter as residual;
    oscillating verdicts carry the bounding-box corners of the tail as
    band = (low corner, high corner).
    """

    kind: str
    value: complex | None = None
    residual: float | None = None
    band: tuple | None = None


@dataclass
class SummationReport:
    """One summation mode applied to one array: the trace and its verdict, nothing else."""

    mode: str
    trace: np.ndarray
    verdict: Verdict


def _tail(trace: np.ndarray) -> np.ndarray:
    start = min(3 * len(trace) // 4, len(trace) - 2)
    return trace[max(start, 0):]


def _box_diameter(values: np.ndarray) -> float:
    re = values.real
    im = values.imag
    return math.hypot(float(re.max() - re.min()), float(im.max() - im.min()))


def _direction_reversals(tail: np.ndarray) -> int:
    steps = np.diff(tail)
    steps = steps[np.abs(steps) > 0]
    if len(steps) < 2:
        return 0
    dots = (steps[1:] * np.conj(steps[:-1])).real
    return int(np.sum(dots < 0.0))


def classify_trace(trace: np.ndarray, tolerance: float = 1e-6) -> Verdict:
    """Converged / oscillating / inconclusive for a partial-sum trace.

    Converged: the last quarter of the trace has diameter <= tolerance.
    Oscillating: that diameter exceeds 100x tolerance and the tail bends
    back on itself at least three times.  Anything else is inconclusive,
    the honest state for a window that has not decided.
    """
    trace = np.asarray(trace)
    if len(trace) < 2:
        raise InvalidBoundError("a trace needs at least two entries")
    tail = _tail(trace)
    diam = _box_diameter(tail)
    if diam <= tolerance:
        return Verdict("converged", value=complex(trace[-1]), residual=diam)
    if diam > 100.0 * tolerance and _direction_reversals(tail) >= 3:
        lo = complex(float(tail.real.min()), float(tail.imag.min()))
        hi = complex(float(tail.real.max()), float(tail.imag.max()))
        return Verdict("oscillating", band=(lo, hi), residual=diam)
    return Verdict("inconclusive", residual=diam)


class DoubleArray:
    """The one contract every array meets and every consumer goes through.

    An array defines its entries once, by one of the first two methods,
    and the base class derives the other from it:

    * rectangle(m_lo, m_hi, n_max, n_lo=1): the entries of rows m_lo..m_hi
      x columns n_lo..n_max (m_lo, n_lo >= 1) as one dense complex128
      block, 0 where the array has no support.  A dense array overrides
      it; the base scatters the entries of pairs into zeros.
    * pairs(m_lo, m_hi, n_max, n_lo=1): the nonzero entries of that
      rectangle as COO arrays (m, n, value), sorted by m and then n.  A
      window n_lo > 1 returns bit for bit the entries of the full
      rectangle that fall in it.  A sparse array overrides it, and
      pair_bound, with a direct enumeration; the base keeps the nonzeros
      of rectangle.
    * pair_bound(m_lo, m_hi, n_max, n_lo=1): an upper bound on the
      entries that pairs call holds and on the cells it evaluates to
      find them; pairs refuses a bound above MAX_GRID_CELLS before it
      allocates anything.  The base counts the cells; a sparse array
      counts its entries exactly.
    * row_limits(m_max, m_lo=1) / column_limits(n_max, n_lo=1): rows
      (columns) m_lo..m_max summed to their limits, m_lo >= 1, as one
      complex128 array.  A window has the bits of the same entries of
      the whole table.

    Class attributes carry the rest of what sets arrays apart: s, the
    array parameter (None for an array without one); reach, the default
    scan reach in n; outer and k_max, the default outer limit and
    rectangle trace length of the summation modes.
    """

    label = "generic"
    s = None
    reach = 4096
    outer = 512
    k_max = 64

    def rectangle(self, m_lo: int, m_hi: int, n_max: int, n_lo: int = 1) -> np.ndarray:
        m, n, values = self.pairs(m_lo, m_hi, n_max, n_lo)
        shape = (max(m_hi - m_lo + 1, 0), max(n_max - n_lo + 1, 0))
        block = np.zeros(shape, dtype=np.complex128)
        block[m - m_lo, n - n_lo] = values
        return block

    def pairs(self, m_lo: int, m_hi: int, n_max: int, n_lo: int = 1):
        if self.pair_bound(m_lo, m_hi, n_max, n_lo) > MAX_GRID_CELLS:
            raise InvalidBoundError(
                f"rectangle of rows {m_lo}..{m_hi} x columns {n_lo}..{n_max} "
                "exceeds the dense limit"
            )
        block = self.rectangle(m_lo, m_hi, n_max, n_lo)
        hit_m, hit_n = np.nonzero(block)
        return hit_m + m_lo, hit_n + n_lo, block[hit_m, hit_n]

    def pair_bound(self, m_lo: int, m_hi: int, n_max: int, n_lo: int = 1) -> int:
        return max(m_hi - m_lo + 1, 0) * max(n_max - n_lo + 1, 0)

    def row_limits(self, m_max: int, m_lo: int = 1) -> np.ndarray:
        raise NotImplementedError

    def column_limits(self, n_max: int, n_lo: int = 1) -> np.ndarray:
        raise NotImplementedError


def _check_start(lo: int) -> None:
    if lo < 1:
        raise InvalidBoundError(f"array indices start at 1, got {lo}")


def _span(lo: int, hi: int, dtype=np.int64) -> np.ndarray:
    """Indices lo..hi (lo >= 1)."""
    _check_start(lo)
    return np.arange(lo, hi + 1, dtype=dtype)


def _axes(m_lo: int, m_hi: int, n_max: int, n_lo: int):
    """Rows m_lo..m_hi as a column and columns n_lo..n_max as a row."""
    return _span(m_lo, m_hi)[:, None], _span(n_lo, n_max)


def _quotient_sum(m_lo: int, m_hi: int, n: int) -> int:
    """Sum of n // m over m_lo <= m <= m_hi (m_lo >= 1).

    Steps over runs of equal quotient, at most 2 * isqrt(n) of them.
    """
    total = 0
    m = m_lo
    m_hi = min(m_hi, n)
    while m <= m_hi:
        q = n // m
        last = min(m_hi, n // q)
        total += q * (last - m + 1)
        m = last + 1
    return total


class LeeArray(DoubleArray):
    """Divisor-supported array tying the Liouville series to eta.

    a(m, n) = liouville(m) * (-1)**(n/m + 1) * n**(-s) when m divides n,
    else 0.  Requires re(s) > 0.  The array defines its entries by pairs,
    an enumeration of the divisor hits, so a rectangle, a slab or a
    row-tail block tests no cell for divisibility.  liouville is read
    only at the row, and the array sieves it itself, 1 byte per row:
    pairs and row_limits first make every refusal of the call, then
    grow the sieve to the highest row they read, at least doubling it
    and sieving only the rows it lacks, so each row is sieved once.
    Rows go up to MAX_GRID_CELLS, more than any window, scan or
    rectangle reads; columns read beta's closed form, no sieve, and go
    up to MAX_LEE_COLUMN.  A window of pairs holds about 32 B per
    divisor hit and O(width + isqrt(n_max)) besides, however many rows
    it spans.
    """

    label = "lee"
    # A block-tail start M keeps reach // M terms per row.
    reach = 10**6
    outer = 100000
    k_max = 100000

    def __init__(self, s: complex):
        s = complex(s)
        if not (math.isfinite(s.real) and math.isfinite(s.imag)):
            raise DomainError(f"array parameter must be finite, got {s}")
        if s.real <= 0.0:
            raise DomainError(f"array requires re(s) > 0, got {s}")
        self.s = s
        self._eta_value = eta(s).value
        # liouville at 0..len - 1 (slot 0 reads 0), grown by _liouville.
        self._lam = np.zeros(1, dtype=np.int8)

    def _liouville(self, m_max: int) -> np.ndarray:
        """liouville at rows 0..m_max at least; a row past the sieve grows it.

        The sieve grows to the larger of m_max and twice its length, at
        most MAX_GRID_CELLS, by sieving only the rows it lacks, so each
        row is sieved once.  A row above MAX_GRID_CELLS is refused before
        any sieve.
        """
        if m_max > MAX_GRID_CELLS:
            raise InvalidBoundError(
                f"row m = {m_max} is above {MAX_GRID_CELLS}, the most rows the "
                "lee array sieves; use a smaller window, reach or outer limit"
            )
        if m_max >= len(self._lam):
            rows = min(max(m_max, 2 * len(self._lam)), MAX_GRID_CELLS)
            self._lam = np.concatenate((self._lam, sieve(rows, len(self._lam))[1]))
        return self._lam

    @staticmethod
    def _check_columns(n_max: int) -> None:
        if n_max > MAX_LEE_COLUMN:
            raise InvalidBoundError(
                f"column n = {n_max} is above 2**53, where float64 no longer "
                "holds n exactly; use a smaller reach"
            )

    def _powers(self, n: np.ndarray) -> np.ndarray:
        """n**(-s) at float64 n, taken at _capped(s): no overflow at any re(s)."""
        return np.exp(-_capped(self.s) * np.log(n))

    def _entries(self, m, j, n, n_lo: int, n_max: int) -> np.ndarray:
        """a(m, n) at divisor hits n = m * j, all in columns n_lo..n_max.

        n**(-s) is taken once per column and gathered when the hits
        outnumber the columns, else once per hit: the same bits either way.
        """
        signs = np.where(j % 2 == 1, 1.0, -1.0)
        lam = self._lam[m]
        if len(n) > n_max - n_lo + 1:
            power = self._powers(_span(n_lo, n_max, np.float64))[n - n_lo]
        else:
            power = self._powers(n.astype(np.float64))
        return lam * signs * power

    def row_limits(self, m_max: int, m_lo: int = 1) -> np.ndarray:
        # Sieved first, so a row past the sieve's cap is refused before
        # the span is allocated.
        _check_start(m_lo)
        lam = self._liouville(m_max)[m_lo : m_max + 1]
        return lam * self._powers(_span(m_lo, m_max, np.float64)) * self._eta_value

    def column_limits(self, n_max: int, n_lo: int = 1) -> np.ndarray:
        """Column sums through the closed form of the divisor transform.

        Column n is the finite sum over the divisors of n; its exact
        integer part sum(liouville(d) * (-1)**(n/d + 1)) = beta(n), 1 on
        squares, -2 on twice-squares and 0 otherwise, is scaled by
        n**(-s).  No sieve is read.
        """
        self._check_columns(n_max)
        return beta_closed_table(n_max, n_lo) * self._powers(_span(n_lo, n_max, np.float64))

    def pair_bound(self, m_lo: int, m_hi: int, n_max: int, n_lo: int = 1) -> int:
        """The exact count of divisor hits m | n in the window (m_lo >= 1).

        That is the sum of n_max // m - (n_lo - 1) // m over the rows; 0
        for an empty window.
        """
        if n_lo > n_max:
            return 0
        return _quotient_sum(m_lo, m_hi, n_max) - _quotient_sum(m_lo, m_hi, n_lo - 1)

    def pairs(self, m_lo: int, m_hi: int, n_max: int, n_lo: int = 1):
        """Divisor enumeration: row m holds n = m * j for n_lo <= m * j <= n_max.

        A row m at or above the window width w = n_max - n_lo + 1 holds at
        most one hit, so the rows from max(w, isqrt(n_max)) up are listed
        by quotient j, largest j (lowest row) first, and only the rows
        below them one by one.  A window's working set is then O(hits + w
        + isqrt(n_max)) whatever its row count: the returned arrays take
        32 B per hit and their temporaries at most about 45 B more.  The
        entry count, pair_bound, is checked against MAX_GRID_CELLS, and
        the rows are sieved, before any array is allocated.
        """
        _check_start(min(m_lo, n_lo))
        self._check_columns(n_max)
        # Rows past n_max hold no hit, so their liouville is never read.
        m_hi = min(m_hi, n_max)
        n_lo = min(n_lo, n_max + 1)
        entries = self.pair_bound(m_lo, m_hi, n_max, n_lo)
        if entries > MAX_GRID_CELLS:
            raise InvalidBoundError(
                f"rows {m_lo}..{m_hi} over n = {n_lo}..{n_max} hold {entries} "
                f"divisor hits, above the limit of {MAX_GRID_CELLS}; "
                "use a smaller window"
            )
        if entries:
            self._liouville(m_hi)
        split = min(max(m_lo, n_max - n_lo + 1, math.isqrt(max(n_max, 0))), m_hi + 1)
        # Rows m_lo..split - 1, each over its quotients j = j_lo..n_max // m.
        rows = np.arange(m_lo, split, dtype=np.int64)
        j_lo = (n_lo - 1) // rows + 1
        per_row = n_max // rows - j_lo + 1
        # Rows split..m_hi, each quotient j over rows ceil(n_lo / j)..n_max // j.
        if split <= m_hi:
            quotients = np.arange(n_max // split, (n_lo - 1) // m_hi, -1, dtype=np.int64)
        else:
            quotients = np.zeros(0, dtype=np.int64)
        m_first = np.maximum((n_lo - 1) // quotients + 1, split)
        per_j = np.maximum(np.minimum(n_max // quotients, m_hi) - m_first + 1, 0)
        m_col = np.concatenate((np.repeat(rows, per_row), _runs(m_first, per_j)))
        j_col = np.concatenate((_runs(j_lo, per_row), np.repeat(quotients, per_j)))
        n_col = m_col * j_col
        return m_col, n_col, self._entries(m_col, j_col, n_col, n_lo, n_max)


def _runs(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """starts[i], starts[i] + 1, ..., counts[i] of them, for each i in turn."""
    offsets = np.cumsum(counts) - counts
    return np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(offsets - starts, counts)


class CesaroArray(DoubleArray):
    """Counterexample with absolutely convergent rows and oscillating columns.

    a(m, n) = (-1)**(n+1) * b(n) * (1 - b(n))**(m-1) with
    b(n) = 2**(-floor(n/2) - 1).  Row m sums to 2**(-m); column n sums to
    (-1)**(n+1).
    """

    label = "cesaro"
    outer = 4096

    def rectangle(self, m_lo: int, m_hi: int, n_max: int, n_lo: int = 1) -> np.ndarray:
        m, n = _axes(m_lo, m_hi, n_max, n_lo)
        b = 2.0 ** (-(n // 2) - 1)
        signs = np.where(n % 2 == 1, 1.0, -1.0)
        return ((signs * b) * (1.0 - b) ** (m - 1)).astype(np.complex128)

    def row_limits(self, m_max: int, m_lo: int = 1) -> np.ndarray:
        return (2.0 ** -_span(m_lo, m_max, np.float64)).astype(np.complex128)

    def column_limits(self, n_max: int, n_lo: int = 1) -> np.ndarray:
        n = _span(n_lo, n_max)
        return np.where(n % 2 == 1, 1.0, -1.0).astype(np.complex128)


class SyntheticArray(DoubleArray):
    """Calibration arrays with hand-checkable behavior.

    Rules:
        "zeros": every term 0; all modes converge to 0 immediately.
        "interchange_ratio": partial sums S(M, N) = M / (M + N), the
            classical sequence whose two iterated limits are 1 and 0 and
            whose double limit does not exist.  Terms are the second
            differences of that surface.
    """

    RULES = ("zeros", "interchange_ratio")

    def __init__(self, rule: str):
        if rule not in self.RULES:
            raise InvalidBoundError(
                f"unknown rule {rule!r}; expected one of {self.RULES}"
            )
        self.rule = rule
        self.label = rule

    def rectangle(self, m_lo: int, m_hi: int, n_max: int, n_lo: int = 1) -> np.ndarray:
        m, n = _axes(m_lo, m_hi, n_max, n_lo)
        if self.rule == "zeros":
            return np.zeros((m.size, n.size), dtype=np.complex128)
        # S once over rows m_lo - 1..m_hi and columns n_lo - 1..n_max, 0 on
        # row and column 0; the terms are its second differences.
        rows = np.arange(m_lo - 1, m_hi + 1, dtype=np.float64)[:, None]
        cols = np.arange(n_lo - 1, n_max + 1, dtype=np.float64)
        f = np.where((rows >= 1) & (cols >= 1), rows / np.maximum(rows + cols, 1.0), 0.0)
        return (f[1:, 1:] - f[:-1, 1:] - f[1:, :-1] + f[:-1, :-1]).astype(np.complex128)

    def row_limits(self, m_max: int, m_lo: int = 1) -> np.ndarray:
        # Both rules have vanishing row tails; the ratio rows telescope to
        # lim_N [f(m, N) - f(m-1, N)] = 0.
        _check_start(m_lo)
        return np.zeros(m_max - m_lo + 1, dtype=np.complex128)

    def column_limits(self, n_max: int, n_lo: int = 1) -> np.ndarray:
        _check_start(n_lo)
        out = np.zeros(n_max - n_lo + 1, dtype=np.complex128)
        if self.rule == "interchange_ratio" and n_lo == 1 <= n_max:
            out[0] = 1.0
        return out


def slab(
    array: DoubleArray, lo: int, m_max: int, above: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """S(m, 0..n) for rows m = lo..lo + SLAB_ROWS - 1 (at most m_max).

    above is S(lo - 1, 0..n); its length sets n.  The slab is written
    into out when given, an array of that shape.

    The slab takes its rows' entries from array.rectangle, sums them
    along n from an explicit +0 in column 0, adds the row above to its
    first row and sums down m.  Those are the additions, in the order,
    of one cumulative sum along rows and then down columns over the
    whole window with a zero row 0 and column 0, which realizes

        S(M, N) = S(M-1, N) + S(M, N-1) - S(M-1, N-1) + a(M, N)

    in telescoped form: B(m, n) = B(m, n-1) + a(m, n) per row, then
    S(m, n) = S(m-1, n) + B(m, n).  So every cell has the same bits
    whatever slab computes it, and a replay of those operations must
    match it bit for bit.
    """
    n = len(above) - 1
    rows = min(SLAB_ROWS, m_max + 1 - lo)
    sums = np.empty((rows, n + 1), dtype=np.complex128) if out is None else out
    sums[:, 0] = 0
    # A few rows at a time keep the rectangles small next to the slab.
    step = max(1, _RECTANGLE_CELLS // n)
    for i in range(0, rows, step):
        top = min(i + step, rows)
        sums[i:top, 1:] = array.rectangle(lo + i, lo + top - 1, n)
    np.cumsum(sums, axis=1, out=sums)
    np.add(above, sums[0], out=sums[0])
    np.cumsum(sums, axis=0, out=sums)
    return sums


def slabs(array: DoubleArray, m_max: int, n_max: int):
    """(lo, S(lo.., 0..n_max)) for every slab of rows 1..m_max, from the top down.

    A walk holds one slab of SLAB_ROWS x (n_max + 1) cells at a time,
    not the window: each slab is written over the one before it, so a
    consumer copies what it keeps.
    """
    buffer = np.empty((SLAB_ROWS, n_max + 1), dtype=np.complex128)
    above = np.zeros(n_max + 1, dtype=np.complex128)
    for lo in range(1, m_max + 1, SLAB_ROWS):
        sums = slab(array, lo, m_max, above, buffer[: min(SLAB_ROWS, m_max + 1 - lo)])
        yield lo, sums
        above[:] = sums[-1]


def _check_outer_limit(outer_limit: int) -> None:
    if not 2 <= outer_limit <= MAX_GRID_CELLS:
        raise InvalidBoundError(
            f"outer limit must be in 2..{MAX_GRID_CELLS}, got {outer_limit}"
        )


def iterated_sum(
    array: DoubleArray,
    order: str,
    outer_limit: int,
    tolerance: float = 1e-6,
) -> SummationReport:
    """Sum inner limits first, then trace the outer partial sums.

    order "rows_then_m" sums each row to its limit and traces the partial
    sums over m; "columns_then_n" does the transpose.  The verdict is the
    trace classification at the given tolerance.  The limits are taken
    _LIMIT_SLOTS at a time and summed in the trace as _running_sum
    carries them, with the bits of one cumulative sum over all of them,
    so memory is the trace's 16 B per step plus one window.
    """
    _check_outer_limit(outer_limit)
    if order == "rows_then_m":
        limits, mode = array.row_limits, ROW_ITERATED
    elif order == "columns_then_n":
        limits, mode = array.column_limits, COLUMN_ITERATED
    else:
        raise InvalidBoundError(
            f"order must be 'rows_then_m' or 'columns_then_n', got {order!r}"
        )
    # One slot first, so an array that refuses an outer limit past its
    # reach does so before the trace is allocated, and LeeArray sieves
    # its rows at once.
    limits(outer_limit, outer_limit)
    trace = np.empty(outer_limit, dtype=np.complex128)
    carry = None
    for lo in range(1, outer_limit + 1, _LIMIT_SLOTS):
        part = trace[lo - 1 : lo - 1 + _LIMIT_SLOTS]
        part[:] = limits(lo + len(part) - 1, lo)
        carry = _running_sum(carry, part)
    verdict = classify_trace(trace, tolerance)
    return SummationReport(mode, trace, verdict)


def _ceil_fraction(k: int, aspect: Fraction) -> int:
    return -((-k * aspect.numerator) // aspect.denominator)


def pringsheim_trace(
    array: DoubleArray,
    k_max: int,
    aspect=1,
    tolerance: float = 1e-6,
) -> SummationReport:
    """Rectangle partial sums S(ceil(aspect*K), K) for K = 1..k_max.

    A converged trace alone does not certify a rectangle limit: the trace
    walks one ray through the rectangle lattice.  The verdict therefore
    also reads the four corners (half/full window in each direction) and
    turns "converged" into "inconclusive" when they disagree by more than
    the tolerance, with the corner spread as residual.  The corners go
    into the verdict only; _rectangle_trace returns them.

    aspect is interpreted exactly (as a Fraction), so row counts
    ceil(aspect*K) never suffer float boundary wobble.

    The trace walks K in windows of array.pairs (see _rectangle_trace),
    with the same bits as one pass over the whole rectangle, corners
    included.  Its memory is the 16 B per step of the trace plus one
    window's working arrays, about 150 B for each of its _TRACE_ENTRIES
    entries (9 MiB), however many entries the rectangle holds.
    A k_max outside 4..MAX_GRID_CELLS is refused before the rectangle is
    counted, as every package array's pair_bound is at least k_max; an
    aspect past the trace's int64 range, and a rectangle whose
    pair_bound exceeds MAX_GRID_CELLS, are refused before any window.
    """
    if not 4 <= k_max <= MAX_GRID_CELLS:
        raise InvalidBoundError(f"k_max must be in 4..{MAX_GRID_CELLS}, got {k_max}")
    aspect = Fraction(aspect)
    if aspect <= 0:
        raise InvalidBoundError(f"aspect must be positive, got {aspect}")

    trace, corners = _rectangle_trace(array, k_max, aspect)

    verdict = classify_trace(trace, tolerance)
    spread = _box_diameter(np.array([v for _, _, v in corners]))
    if verdict.kind == "converged" and spread > tolerance:
        verdict = Verdict("inconclusive", residual=spread)
    return SummationReport(PRINGSHEIM_DIAGONAL, trace, verdict)


def _rectangle_trace(array: DoubleArray, k_max: int, aspect: Fraction):
    """Event-driven rectangle trace over the nonzero entries, K-window by K-window.

    Entry (m, n) joins the rectangle R(K) = rows 1..ceil(aspect*K) x
    columns 1..K at the first K with n <= K and ceil(aspect*K) >= m; the
    trace is the running sum over the entries ordered by that K (ties in
    (m, n) order), never a dense grid.  K is walked in windows (k0, k1]
    of about _TRACE_ENTRIES entries and at most 2**16 steps: R(k1) minus
    R(k0) is the new columns of the old rows plus the new rows whole, two
    pairs calls whose concatenation is sorted by (m, n), so a stable sort
    by entry K inside each window, on K - k0 - 1 as a 16-bit key, gives
    the order of one sort over the whole rectangle.

    The four corners (half/full window in each direction) are running
    sums in that order too.  The entries at K <= k_half are exactly the
    corner (m_half, k_half), so it and (m_max, k_max) are the trace at
    k_half and k_max; (m_max, k_half) and (m_half, k_max) sum the ordered
    entries with n <= k_half and m <= m_half.  Each sum carries across
    windows as _running_sum says, so every corner has the bits of one
    cumulative sum over its entries whatever the window size.  A
    rectangle whose pair_bound exceeds MAX_GRID_CELLS is refused before
    any window, and so is an aspect p/q with p, q or (m_max - 1) * q past
    2**63 - 1: an entry's K takes (m - 1) * q // p in int64.
    """
    m_max = _ceil_fraction(k_max, aspect)
    p, q = aspect.numerator, aspect.denominator
    if max(p, q, (m_max - 1) * q) >= 1 << 63:
        raise InvalidBoundError(
            "the aspect's numerator, or its denominator times ceil(aspect * k_max) - 1, "
            "is past 2**63 - 1, the trace's int64 range; use an aspect with smaller terms"
        )
    bound = array.pair_bound(1, m_max, k_max)
    if bound > MAX_GRID_CELLS:
        raise InvalidBoundError(
            f"rectangle of rows 1..{m_max} x columns 1..{k_max} holds up to "
            f"{bound} entries, above the limit of {MAX_GRID_CELLS}; "
            "use a smaller k_max"
        )
    # One row limit at the highest row first, as iterated_sum does: LeeArray
    # (whose rows past column k_max hold no hit) then sieves once, before
    # the windows, and no sieve grown between windows pins their freed
    # arrays in the heap.
    top = min(m_max, k_max)
    array.row_limits(top, top)
    k_half = max(1, k_max // 2)
    m_half = _ceil_fraction(k_half, aspect)
    # Equal-width windows in K, each holding about _TRACE_ENTRIES entries
    # and at most 2**16 steps, so an entry's K less k0 + 1 fits in 16 bits.
    count = max(1, -(-bound // _TRACE_ENTRIES), -(-k_max // (1 << 16)))
    width = -(-k_max // count)
    trace = np.empty(k_max, dtype=np.complex128)
    # csum[0] is the running sum before the window, csum[1:] its entries
    # in order, summed in place; the buffer grows to the largest window.
    buffer = np.empty(0, dtype=np.complex128)
    # Running sums of the trace and of corners (m_max, k_half) and
    # (m_half, k_max); None until their first entry.
    total = by_cols = by_rows = None
    for k0 in range(0, k_max, width):
        k1 = min(k0 + width, k_max)
        m0, m1 = _ceil_fraction(k0, aspect), _ceil_fraction(k1, aspect)
        # The new columns of rows 1..m0, then the new rows whole.
        m_col, n_col, vals = (
            np.concatenate(part)
            for part in zip(array.pairs(1, m0, k1, k0 + 1), array.pairs(m0 + 1, m1, k1))
        )
        enter = np.maximum(n_col, (m_col - 1) * q // p + 1)
        # Every entry of the window joins at some K in k0 + 1..k1; a
        # stable sort of 16-bit keys is a radix sort.
        order = np.argsort((enter - (k0 + 1)).astype(np.uint16), kind="stable")
        if len(buffer) <= len(order):
            buffer = np.empty(len(order) + 1, dtype=np.complex128)
        csum = buffer[: len(order) + 1]
        csum[0] = 0 if total is None else total
        ordered = np.take(vals, order, out=csum[1:])
        by_cols = _running_sum(by_cols, ordered[n_col[order] <= k_half])
        by_rows = _running_sum(by_rows, ordered[m_col[order] <= m_half])
        total = _running_sum(total, ordered)
        steps = np.arange(k0 + 1, k1 + 1)
        trace[k0:k1] = csum[np.searchsorted(enter[order], steps, side="right")]
    corners = [
        (m_max, k_max, trace[-1]),
        (m_max, k_half, 0 if by_cols is None else by_cols),
        (m_half, k_max, 0 if by_rows is None else by_rows),
        (m_half, k_half, trace[k_half - 1]),
    ]
    return trace, [(mm, nn, complex(v)) for mm, nn, v in corners]


def _running_sum(carry, entries: np.ndarray):
    """carry + entries[0] + entries[1] + ..., left to right, summed in place.

    Returns the last partial sum, which has the bits of one cumulative
    sum over every entry so far.  A carry of None starts the sum with the
    first entry as it is, since adding it to a zero would flip a -0.0
    part to +0.0; no entries return the carry unchanged.
    """
    if not len(entries):
        return carry
    if carry is not None:
        entries[0] = carry + entries[0]
    return np.cumsum(entries, out=entries)[-1]
