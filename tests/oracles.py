"""Independent reference values for the test suite.

Nothing in this file touches the package's accelerated evaluator or its
sieve: zeta comes from Euler-Maclaurin summation of the plain Dirichlet
series, arithmetic functions from trial division, and rectangle sums
from closed forms derived by hand.  Agreement between these slow routes
and the package is what the tests actually assert.

The dense partial-sum grid, the running-extent settle profile, the
whole-table iterated sum and the row-by-row divisor listing at the end
are the exception: they are the package's former code, frozen as the
bitwise references of the slab walk, the block-extent settle profiles,
the windowed limits and the quotient listing that replaced them.
Three helpers import the package: settle_profile_reference fills in
its settle-profile record, analyze_reference builds its probes from
those profiles with summation_diagnostics' own verdict helpers, and
slab_cell reads a cell off the package's own slabs.
"""

import cmath
import math

import numpy as np

# Bernoulli numbers B_2, B_4, ..., B_14 for the Euler-Maclaurin tail.
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)


def zeta_em(s: complex, cut: int = 60) -> complex:
    """zeta(s) by direct summation to `cut` plus the Euler-Maclaurin tail.

    Good to near machine precision for re(s) > 0 at moderate |im(s)|,
    which covers every point the tests evaluate.  Completely independent
    of the package's accelerated alternating-series route.
    """
    s = complex(s)
    if s == 1.0:
        raise ValueError("zeta has a pole at s = 1")
    head = sum(cmath.exp(-s * math.log(n)) for n in range(1, cut))
    ncut = float(cut)
    tail = cmath.exp(-s * math.log(ncut))
    total = head + 0.5 * tail + ncut * tail / (s - 1.0)
    # rising holds s(s+1)...(s+2k-2) * cut**(-s-2k+1) as k advances.
    rising = tail * s / ncut
    inv_factorial = 1.0
    for i, b in enumerate(_BERNOULLI):
        k = 2 * i + 2
        inv_factorial = inv_factorial / ((k - 1) * k)
        total += b * inv_factorial * rising
        rising = rising * (s + k - 1) * (s + k) / (ncut * ncut)
    return total


def zeta_direct_even(power: int, cut: int = 10**6) -> float:
    """zeta at a positive even integer by compensated direct summation.

    The tail past `cut` is replaced by the integral plus half-term
    correction, leaving an error around cut**-(power+1).
    """
    total = math.fsum(n ** (-float(power)) for n in range(1, cut + 1))
    tail = float(cut) ** (1 - power) / (power - 1) - 0.5 * float(cut) ** (-power)
    return total + tail


def eta_reference(s: complex) -> complex:
    """eta(s) through the product form with the Euler-Maclaurin zeta."""
    s = complex(s)
    if s == 1.0:
        return complex(math.log(2.0))
    return (1.0 - cmath.exp((1.0 - s) * math.log(2.0))) * zeta_em(s)


def omega_brute(n: int) -> int:
    """Prime factors with multiplicity, by trial division."""
    count = 0
    d = 2
    while d * d <= n:
        while n % d == 0:
            n //= d
            count += 1
        d += 1
    if n > 1:
        count += 1
    return count


def liouville_brute(n: int) -> int:
    return -1 if omega_brute(n) % 2 else 1


def divisors_brute(n: int) -> list:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def beta_brute(n: int) -> int:
    """The signed divisor transform of the Liouville function, literally."""
    total = 0
    for d in divisors_brute(n):
        sign = 1 if (n // d) % 2 == 1 else -1
        total += liouville_brute(d) * sign
    return total


def beta_definition_per_m(liouville, n_max: int) -> list:
    """The divisor-sum route one row m at a time, as the package once did.

    Adds liouville[m] * (-1)**(l+1) into slot m*l for l = 1..n_max // m,
    row by row; slot 0 is 0.  Frozen as the integer-exact reference of
    the grouped implementation.
    """
    acc = [0] * (n_max + 1)
    for m in range(1, n_max + 1):
        lam = int(liouville[m])
        for l in range(1, n_max // m + 1):
            acc[m * l] += lam if l % 2 else -lam
    return acc


def cesaro_rectangle(m: int, n: int) -> float:
    """Closed-form rectangle sum for the row/column counterexample.

    Summing the geometric rows first gives
    S(M, N) = sum_{n<=N} (-1)**(n+1) * (1 - (1 - b_n)**M)
    with b_n = 2**(-(n//2) - 1).
    """
    total = 0.0
    for j in range(1, n + 1):
        b = 2.0 ** (-(j // 2) - 1)
        sign = 1.0 if j % 2 == 1 else -1.0
        total += sign * (1.0 - (1.0 - b) ** m)
    return total


def lee_term_brute(s: complex, m: int, n: int) -> complex:
    if n % m != 0:
        return 0j
    j = n // m
    sign = 1.0 if j % 2 == 1 else -1.0
    return liouville_brute(m) * sign * cmath.exp(-complex(s) * math.log(n))


def cesaro_term(m: int, n: int) -> float:
    """(-1)**(n+1) * b(n) * (1 - b(n))**(m-1) with b(n) = 2**(-(n//2) - 1)."""
    b = 2.0 ** (-(n // 2) - 1)
    sign = 1.0 if n % 2 == 1 else -1.0
    return sign * b * (1.0 - b) ** (m - 1)


def ratio_term(m: int, n: int) -> float:
    """Second difference of f(m, n) = m / (m + n), with f = 0 off m, n >= 1."""

    def f(i, k):
        return i / (i + k) if i >= 1 and k >= 1 else 0.0

    return f(m, n) - f(m - 1, n) - f(m, n - 1) + f(m - 1, n - 1)


def grid_cell_replay(row_terms, m: int) -> complex:
    """Rectangle sum S(m, n) by the dense grid's own additions, in its order.

    row_terms(r) yields row r's entries a(r, 1..n).  Each row is summed
    from n = 1 upward, then the row sums from r = 1 upward: the running
    sums along rows, then down columns, that build the grid.  IEEE
    additions in that order must give the stored cell bit for bit.
    """
    total = 0j
    for r in range(1, m + 1):
        row = 0j
        for value in row_terms(r):
            row += value
        total += row
    return total


def slab_cell(window, m: int, n: int) -> complex:
    """S(m, n) of an (array, m_max, n_max) window, read off its slabs (m >= 1).

    Not an oracle: it walks the package's own slabs, the path every
    probe takes, so a test comparing it with one keeps that path under
    test.
    """
    from zdl.double_array import slabs

    array, m_max, n_max = window
    for lo, sums in slabs(array, m_max, n_max):
        if m < lo + len(sums):
            return complex(sums[m - lo, n])
    raise IndexError(f"row {m} is past the window's {m_max} rows")


def needed_sup_brute(term, m_start: int, block: int, n_reach: int) -> float:
    """Block-tail sup by its definition, one term at a time.

    max over q <= block and N <= n_reach of
    |sum_{m=M}^{M+q} sum_{n=m}^{N} term(m, n)| with M = m_start.
    """
    block_sums = [0j] * (n_reach + 1)
    best = 0.0
    for m in range(m_start, m_start + block + 1):
        row = 0j
        for n in range(1, n_reach + 1):
            if n >= m:
                row += term(m, n)
            block_sums[n] += row
            best = max(best, abs(block_sums[n]))
    return best


def verified_sup_brute(term, n_start: int, block: int, m_reach: int) -> float:
    """Row-tail sup by its definition, one term at a time.

    max over m <= m_reach and q <= block of |sum_{n=N}^{N+q} term(m, n)|
    with N = n_start.
    """
    best = 0.0
    for m in range(1, m_reach + 1):
        run = 0j
        for n in range(n_start, n_start + block + 1):
            run += term(m, n)
            best = max(best, abs(run))
    return best


def dense_grid_reference(array, m_max: int, n_max: int) -> np.ndarray:
    """Every S(m, n), 0 <= m <= m_max and 0 <= n <= n_max, in one array.

    The former build_grid: rectangles of about 2**16 cells into a
    grid with a zero row 0 and column 0, then one cumulative sum along
    rows and one down columns over the whole grid.
    """
    a = np.zeros((m_max + 1, n_max + 1), dtype=np.complex128)
    step = max(1, (1 << 16) // n_max)
    for lo in range(1, m_max + 1, step):
        hi = min(lo + step, m_max + 1)
        a[lo:hi, 1:] = array.rectangle(lo, hi - 1, n_max)
    np.cumsum(a, axis=1, out=a)
    np.cumsum(a, axis=0, out=a)
    return a


def settle_profile_reference(traces: np.ndarray, tolerance: float):
    """The settle profile as a running max/min over every cell.

    The former summation_diagnostics._settle_profile: slabs of 256
    rows, four reversed running extents and a hypot at every cell.
    Returns the package's profile record, filled in here, and every
    trace's settle index, the first i with diam(trace[i:]) <= tolerance
    (the trace length if there is none), whose max the record keeps.
    """
    from zdl.summation_diagnostics import _SettleProfile

    k, length = traces.shape
    settled = np.zeros(k, dtype=bool)
    settle_index = np.zeros(k, dtype=np.int64)
    half_diam = np.zeros(k, dtype=np.float64)
    estimate = np.array(traces[:, -1], dtype=np.complex128)
    half = length // 2
    for lo in range(0, k, 256):
        hi = min(lo + 256, k)
        slab = np.ascontiguousarray(traces[lo:hi])
        re = slab.real[:, ::-1]
        im = slab.imag[:, ::-1]
        re_span = np.maximum.accumulate(re, axis=1) - np.minimum.accumulate(re, axis=1)
        im_span = np.maximum.accumulate(im, axis=1) - np.minimum.accumulate(im, axis=1)
        diam = np.hypot(re_span, im_span)[:, ::-1]
        ok = diam <= tolerance
        settled[lo:hi] = ok[:, half]
        settle_index[lo:hi] = length - np.count_nonzero(ok, axis=1)
        half_diam[lo:hi] = diam[:, half]
    profile = _SettleProfile(settled, half_diam, estimate, length, int(settle_index.max()))
    return profile, settle_index


def analyze_reference(sums: np.ndarray, tolerance: float):
    """The former summation_diagnostics._analyze on a dense grid.

    Returns (probes, row_profile, col_profile) as _analyze does: both
    settle profiles over the whole grid body, the partial limits read
    from its last row and column, the double limit from its diagonal
    and corners.
    """
    from zdl import summation_diagnostics as sd

    body = sums[1:, 1:]
    m_max, n_max = body.shape
    col_profile = settle_profile_reference(body.T, tolerance)[0]
    row_profile = settle_profile_reference(body, tolerance)[0]

    steps = min(m_max, n_max)
    ks = np.arange(1, steps + 1)
    trace = sums[-((-ks * m_max) // steps), -((-ks * n_max) // steps)]
    m_half, n_half = max(1, m_max // 2), max(1, n_max // 2)
    corners = [(m_max, n_max), (m_max, n_half), (m_half, n_max), (m_half, n_half)]
    corner_vals = np.array([sums[m, n] for m, n in corners])
    spread = sd._box_diameter(corner_vals)
    tail_diam = sd._box_diameter(trace[len(trace) // 2 :])
    detail = {
        "corner_samples": [
            {"m": m, "n": n, "re": float(v.real), "im": float(v.imag)}
            for (m, n), v in zip(corners, corner_vals)
        ],
        "corner_spread": spread,
        "tail_diameter": tail_diam,
    }
    probes = {
        "first_partial": sd._probe_from_trace(
            "first_partial", body[:, -1], tolerance, sd._profile_detail(col_profile)
        ),
        "second_partial": sd._probe_from_trace(
            "second_partial", body[-1, :], tolerance, sd._profile_detail(row_profile)
        ),
        "first_iterated": sd._iterated_probe("first_iterated", col_profile, tolerance),
        "second_iterated": sd._iterated_probe("second_iterated", row_profile, tolerance),
        "double": sd._probe("double", trace, max(spread, tail_diam), tolerance, detail),
    }
    return probes, row_profile, col_profile


def iterated_trace_reference(limits, outer: int) -> np.ndarray:
    """The former iterated-sum trace: one cumulative sum over the whole
    limits table, rows 1..outer of limits(outer)."""
    return np.cumsum(limits(outer))


def lee_pairs_per_row(s: complex, m_lo: int, m_hi: int, n_max: int, n_lo: int = 1):
    """The former LeeArray.pairs: the hits n = m * j of n_lo..n_max listed
    row by row, each row's j rising, as (m, n, value) arrays.

    liouville comes from trial division; the values are the package's
    expression for a hit, so another listing of the same hits must
    match these arrays bit for bit.
    """
    m_col, j_col = [], []
    for m in range(m_lo, m_hi + 1):
        j = range((n_lo - 1) // m + 1, n_max // m + 1)
        m_col += [m] * len(j)
        j_col += j
    m = np.array(m_col, dtype=np.int64)
    j = np.array(j_col, dtype=np.int64)
    n = m * j
    liouville = {r: liouville_brute(r) for r in set(m_col)}
    lam = np.array([liouville[r] for r in m_col], dtype=np.int8)
    signs = np.where(j % 2 == 1, 1.0, -1.0)
    return m, n, lam * signs * np.exp(-complex(s) * np.log(n.astype(np.float64)))


# Frozen targets derived from the oracles above (and only from them).
ZETA2 = zeta_direct_even(2)
ZETA4 = zeta_direct_even(4)
LAMBDA_SERIES_AT_2 = ZETA4 / ZETA2            # limit of the Liouville series at s=2
LEE_COMMON_VALUE_AT_2 = 0.5 * ZETA4           # (1 - 2**(1-2)) * zeta(4)

# Known low critical-line zero ordinates, to the precision the suite needs.
FIRST_ZERO_T = 14.134725
SECOND_ZERO_T = 21.022040

# Ordinates of zeros 72 through 79, the ones in [185, 200], printed to 20
# digits by mpmath.zetazero; refinement there runs at the order cap.
ZEROS_185_200 = (
    185.59878367770747332,
    187.22892258350185557,
    189.41615865601693258,
    192.02665636071378685,
    193.07972660384569963,
    195.26539667952923196,
    196.87648184095831994,
    198.01530967625191693,
)
