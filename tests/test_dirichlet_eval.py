"""Accelerated alternating-series evaluator against an Euler-Maclaurin oracle."""

import cmath
import math
import sys

import numpy as np
import pytest

import zdl.dirichlet_eval as dirichlet_eval
from zdl import (
    EXCEPTIONAL_SPACING,
    beta_series_partial,
    bridge_factor,
    default_order,
    eta,
    eta_line,
    lambda_series_partial,
    sieve,
    truncation_bound,
    zeta,
    zeta_at_exceptional,
)
from zdl.dirichlet_eval import MAX_SQUARE_INDEX
from zdl.errors import DomainError, ExceptionalPointError, InvalidBoundError, PoleError

from oracles import ZETA2, eta_reference, liouville_brute, zeta_em

POINTS = (2.0 + 0j, 1.5 + 0j, 4.0 + 0j, 0.75 + 10j, 0.6 + 3j)


def test_eta_fills_the_pole_point():
    assert abs(eta(1.0).value - math.log(2.0)) <= 1e-12


def test_eta_at_two():
    assert abs(eta(2.0).value - 0.5 * ZETA2) <= 1e-13


def test_eta_matches_reference():
    for s in POINTS:
        assert abs(eta(s).value - eta_reference(s)) <= 1e-12


def test_error_estimate_covers_actual_error():
    for s in POINTS:
        result = eta(s)
        actual = abs(result.value - eta_reference(s))
        assert actual <= result.error_estimate
        assert type(result.error_estimate) is float


def test_truncation_bound_decreases_with_order():
    s = 0.5 + 14.0j
    bounds = [truncation_bound(order, s) for order in (20, 60, 120, 240)]
    assert all(b > 0 for b in bounds)
    assert bounds == sorted(bounds, reverse=True)


def test_truncation_bound_grows_with_height():
    assert truncation_bound(80, 0.5 + 30j) > truncation_bound(80, 0.5 + 5j)


def test_default_order_stays_in_range():
    for s in POINTS + (0.5 + 40j,):
        assert 1 <= default_order(s) <= 380


@pytest.mark.parametrize("t", [1e300, 2.99e307, 3e307, 1e308, sys.float_info.max])
def test_default_order_refuses_every_height_past_its_reach(t):
    # From |im(s)| = 3e307 on the needed order is infinite, and its ceil
    # overflowed; near 1e300 the message printed two 300-digit numbers.
    with pytest.raises(DomainError, match="beyond the supported 380") as info:
        default_order(complex(2.0, t))
    assert len(str(info.value)) < 100


def test_eta_domain_and_order_guards():
    with pytest.raises(DomainError):
        eta(-0.5 + 3j)
    with pytest.raises(InvalidBoundError):
        eta(2.0, order=0)
    with pytest.raises(InvalidBoundError):
        eta(2.0, order=381)
    # far up the line no admissible order reaches the tolerance target
    with pytest.raises(DomainError):
        eta(0.5 + 500j)


def test_eta_conjugate_symmetry():
    for s in (0.5 + 14.13j, 2 + 3j, 0.75 + 10j):
        assert abs(eta(s.conjugate()).value - eta(s).value.conjugate()) <= 1e-14


def test_eta_line_matches_pointwise():
    ts = np.array([5.0, 10.0, 14.1, 20.0])
    line = eta_line(0.5, ts)
    for i, t in enumerate(ts):
        assert abs(line[i] - eta(complex(0.5, t)).value) <= 1e-13


@pytest.mark.parametrize(
    "sigma, ts", [(0.5, [math.nan]), (math.nan, [14.0]), (math.inf, [1.0])]
)
def test_eta_line_refuses_non_finite_points(sigma, ts):
    with pytest.raises(DomainError):
        eta_line(sigma, ts)


@pytest.mark.parametrize("order", [0, -3, 1000])
def test_eta_line_refuses_orders_eta_refuses(order):
    with pytest.raises(InvalidBoundError, match=r"1\.\.380"):
        eta_line(0.5, [14.0], order)


C = dirichlet_eval._LINE_CHUNK


@pytest.mark.parametrize(
    "length, t0, dt, order",
    [pytest.param(n, 10.0, 0.01, 120, id=str(n)) for n in (0, 1, C - 1, C, C + 1, 2 * C + 3)]
    # every t in [401.7, 401.9) takes the default order 380, the cap, so the
    # whole grid and its slices run at the same order
    + [pytest.param(n, 401.7, 1e-5, None, id=f"cap-{n}") for n in (1, C + 1)],
)
def test_eta_line_rows_do_not_depend_on_chunking(length, t0, dt, order):
    # slices start mid-chunk, so every length but 0 and 1 crosses a boundary
    ts = t0 + dt * np.arange(3 * C)
    full = eta_line(0.5, ts, order)
    i = C // 2 + 7
    part = eta_line(0.5, ts[i : i + length], order)
    assert part.tobytes() == full[i : i + length].tobytes()


def _eta_line_peak(traced_peak, ts):
    """Traced peak bytes of eta_line(0.5, ts), its plan built beforehand."""
    eta_line(0.5, ts[-3:])  # same order: weights and plan cached outside the trace
    return traced_peak(eta_line, 0.5, ts)[1]


def test_eta_line_peak_memory_is_one_chunk(traced_peak):
    # A whole-grid phase matrix traces 58.6 MB on this grid, and one
    # 4096-row chunk of every phase 6.2 MB; one 2048-row chunk of the
    # phases later products read (order 74, 47 rows) traced 2.49 MB, one
    # 1024-row chunk of the live rows (29) 1.21 MB.
    assert _eta_line_peak(traced_peak, np.arange(10.5, 60.0, 0.002)) <= 1.5e6


def test_eta_line_peak_memory_at_the_order_cap(traced_peak):
    # Order 380, the cap: one 4096-row chunk of every phase traced 27.8
    # MB, one 2048-row chunk of the 224 rows later products read 8.95
    # MB, one 1024-row chunk of the 133 live rows 3.14 MB.
    assert _eta_line_peak(traced_peak, np.arange(390.0, 402.0, 0.002)) <= 4e6


def test_eta_line_against_mpmath_across_a_chunk_boundary():
    _check_eta_line_against_mpmath(150.0, 184.2)


def test_eta_line_against_mpmath_near_the_order_cap():
    _check_eta_line_against_mpmath(380.0, 402.0)


def _check_eta_line_against_mpmath(t_lo, t_hi):
    mpmath = pytest.importorskip("mpmath")
    ts = np.linspace(t_lo, t_hi, C + 500)
    line = eta_line(0.5, ts)
    picks = sorted(set(np.linspace(0, len(ts) - 1, 23).astype(int)) | {C - 1, C})
    with mpmath.workdps(30):
        for i in picks:
            expected = complex(mpmath.altzeta(mpmath.mpc(0.5, float(ts[i]))))
            assert abs(line[i] - expected) <= 1e-12, float(ts[i])


def _eta_line_direct(sigma, ts):
    """eta_line as it was before prime phases: cos and sin at every k.

    Frozen here as a reference: chunks of rows times all `order` columns,
    reduced by a BLAS matrix-vector product.
    """
    order = default_order(complex(sigma, float(np.max(np.abs(ts)))))
    w, logk = dirichlet_eval._weights(order)
    amp = w * np.exp(-sigma * logk)
    grid = np.repeat(ts, 2) if ts.size == 1 else ts
    out = np.empty(grid.size, dtype=np.complex128)
    for lo in range(0, grid.size, C):
        hi = min(lo + C, grid.size)
        lo = min(lo, hi - 2)
        x = np.multiply.outer(grid[lo:hi], logk)
        out[lo:hi] = (np.cos(x) - 1j * np.sin(x)) @ amp
    return out[: ts.size]


def _brackets(vals):
    inner = vals[1:-1]
    is_min = (inner < vals[:-2]) & (inner < vals[2:]) & (inner < 0.5)
    return np.flatnonzero(is_min).tolist()


@pytest.mark.parametrize(
    "t_lo, t_hi, step", [(10.5, 184.2, 0.002), (172.5, 200.0, 0.01), (390.0, 402.0, 0.002)]
)
def test_eta_line_keeps_the_direct_phase_brackets(t_lo, t_hi, step):
    ts = np.arange(t_lo, t_hi + 0.5 * step, step)
    line = eta_line(0.5, ts)
    direct = _eta_line_direct(0.5, ts)
    assert np.max(np.abs(line - direct)) <= 1e-12
    assert _brackets(np.abs(line)) == _brackets(np.abs(direct))
    assert _brackets(np.abs(line))  # every window holds zeros


def test_eta_line_takes_cos_and_sin_only_at_the_primes(monkeypatch):
    angles = {"cos": 0, "sin": 0}

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def cos(self, x, **kwargs):
            angles["cos"] += x.size
            return np.cos(x, **kwargs)

        def sin(self, x, **kwargs):
            angles["sin"] += x.size
            return np.sin(x, **kwargs)

    monkeypatch.setattr(dirichlet_eval, "np", CountingNumpy())
    ts = 10.0 + 0.01 * np.arange(C + 5)
    # pi(186) = 42 and pi(380) = 75 primes
    for order, primes in ((186, 42), (380, 75)):
        angles.update(cos=0, sin=0)
        eta_line(0.5, ts, order)
        assert angles == {"cos": primes * ts.size, "sin": primes * ts.size}


def _primes_by_trial_division(n):
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]


def test_eta_line_plan_holds_each_phase_in_a_live_row():
    for order in range(1, dirichlet_eval._MAX_ORDER + 1):
        w, logk, n_primes, n_rows, steps = dirichlet_eval._line_plan(order)
        primes = _primes_by_trial_division(order)
        composites = sorted(set(range(4, order + 1)) - set(primes))
        assert n_primes == len(primes)
        assert len(steps) == len(composites)
        factors = [(k, min(d for d in primes if k % d == 0)) for k in composites]
        # The last step that reads each phase, as a factor or to sum it.
        last = {}
        for i, (k, p) in enumerate(factors):
            last[p] = last[k // p] = last[k] = i
        # Rows 0..pi(order) are written before any step; None is unwritten.
        held = [1, *primes] + [None] * (n_rows - 1 - n_primes)
        summed = held[: n_primes + 1]
        live_max = len(summed)
        for i, ((k, p), (row, row_p, row_q)) in enumerate(zip(factors, steps)):
            assert (held[row_p], held[row_q]) == (p, k // p), (order, k)
            # Nothing this step or a later one reads is written over, so
            # no step writes over its own factors (see _line_plan).
            assert last.get(held[row], -1) < i, (order, k)
            held[row] = held[row_p] * held[row_q]
            summed.append(held[row])
            assert held[0] == 1, (order, k)
            # Live at this step: k = 1, and each phase read from here on.
            live_max = max(live_max, 1 + sum(last[v] >= i for v in held if v in last))
        # Every k <= order is summed once, in slot order.
        assert summed == [1, *primes, *composites]
        assert n_rows == live_max, order
        full_w, full_logk = dirichlet_eval._weights(order)
        index = np.array(summed) - 1
        assert w.tobytes() == full_w[index].tobytes()
        assert logk.tobytes() == full_logk[index].tobytes()


def _eta_line_in_own_rows(sigma, ts, order):
    """eta_line's sum with every phase in its own row, the whole grid at once.

    The same products, multiply-adds and slot order as eta_line; only
    the layout differs: row j holds the j-th k in slot order.
    """
    primes = _primes_by_trial_division(order)
    composites = sorted(set(range(4, order + 1)) - set(primes))
    slots = [1, *primes, *composites]
    row = {k: j for j, k in enumerate(slots)}
    w, logk = dirichlet_eval._weights(order)
    amp = (w * np.exp(-sigma * logk))[np.array(slots) - 1].tolist()
    rows = slice(1, len(primes) + 1)
    x = np.multiply.outer(logk[np.array(primes, dtype=int) - 1], ts)
    phase = np.empty((order, ts.size), dtype=np.complex128)
    phase[0] = 1.0
    np.cos(x, out=phase.real[rows])
    np.sin(x, out=phase.imag[rows])
    total = np.zeros(ts.size, dtype=np.complex128)
    for j, k in enumerate(slots):
        if j > len(primes):
            p = min(d for d in primes if k % d == 0)
            np.multiply(phase[row[p]], phase[row[k // p]], out=phase[j])
        total += phase[j] * amp[j]
    return np.conjugate(total)


@pytest.mark.parametrize("order", [60, 186, 380])
@pytest.mark.parametrize("length", [1, C - 1, C, C + 1, 3 * C + 7])
def test_eta_line_is_bitwise_its_sum_with_every_phase_in_its_own_row(order, length):
    # eta_line writes row 0 = 1 once per buffer, so a plan that put a
    # composite there would lose the k = 1 term of every chunk after the
    # first: only grids past one chunk show it.
    ts = 10.0 + 0.037 * np.arange(length)
    line = eta_line(0.5, ts, order)
    assert line.tobytes() == _eta_line_in_own_rows(0.5, ts, order).tobytes()


@pytest.mark.parametrize(
    "sigma, ts, order, error",
    [
        (0.0, [14.0], None, DomainError),
        (0.5, [14.0, math.inf], None, DomainError),
        (0.5, [500.0], None, DomainError),
        (0.5, [14.0], 381, InvalidBoundError),
    ],
)
def test_eta_line_refuses_before_building_a_buffer(monkeypatch, sigma, ts, order, error):
    class NoBuffers:
        def __getattr__(self, name):
            if name == "empty":
                raise AssertionError("buffer built before the input check")
            return getattr(np, name)

    monkeypatch.setattr(dirichlet_eval, "np", NoBuffers())
    monkeypatch.setattr(dirichlet_eval, "_line_plan", None)
    with pytest.raises(error):
        eta_line(sigma, ts, order)


def test_zeta_through_the_bridge():
    for s in POINTS:
        result = zeta(s)
        assert abs(result.value - zeta_em(s)) <= 1e-12
        # A plain float, as eta's: 4 * eps * |value| once made it np.float64.
        assert type(result.error_estimate) is float


def test_zeta_guards_pole_and_exceptional_points():
    with pytest.raises(PoleError):
        zeta(1.0)
    with pytest.raises(ExceptionalPointError) as info:
        zeta(complex(1.0, 2.0 * EXCEPTIONAL_SPACING))
    assert info.value.k == 2


def test_zeta_refuses_an_overflow_next_to_the_pole():
    # The bridge factor is about 7e-311 and eta / factor overflows.
    with pytest.raises(PoleError, match="from its pole at s = 1"):
        zeta(complex(1.0, 1e-310))
    near = zeta(complex(1.0, 1e-300))
    assert cmath.isfinite(near.value) and math.isfinite(near.error_estimate)


def test_zeta_at_the_last_float_below_the_pole():
    # 1 - exp((1 - s) log 2) rounded to 0 at s = 1 - 2**-53, which was
    # refused.  There zeta = 1 / (s - 1) + Euler's gamma + O(2**-53).
    s = 1.0 - 2.0**-53
    result = zeta(s)
    assert cmath.isfinite(result.value) and math.isfinite(result.error_estimate)
    assert abs(result.value - (1.0 / (s - 1.0) + 0.5772156649015329)) <= result.error_estimate


def test_zeta_estimate_bounds_the_error_next_to_the_pole():
    # Without expm1 in the bridge factor, 335 of these points missed, the
    # worst by 6.7e12 times its estimate.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(22)
    radius = 10.0 ** rng.uniform(-15.0, 0.0, size=400)
    angle = rng.uniform(0.0, 2.0 * math.pi, size=400)
    misses = []
    with mpmath.workdps(40):
        for s in 1.0 + radius * np.exp(1j * angle):
            result = zeta(complex(s))
            actual = abs(result.value - complex(mpmath.zeta(mpmath.mpc(s))))
            if not actual <= result.error_estimate:
                misses.append((s, actual / result.error_estimate))
    assert misses == []


@pytest.mark.parametrize("sigma", [1100.0, 1100.5, 4000.0, 1e300, 1e308])
def test_the_re_s_cap_changes_no_bit(sigma):
    # Past the cap every n**(-s) with n >= 2 underflows to 0 either way.
    logn = np.log(np.arange(1.0, 2.0**53, 2.0**40))
    for s in (complex(sigma, 0.0), complex(sigma, 14.5)):
        with np.errstate(over="ignore"):
            uncapped = np.exp(-s * logn)
        capped = np.exp(-dirichlet_eval._capped(s) * logn)
        assert capped.tobytes() == uncapped.tobytes()


@pytest.mark.parametrize(
    "order, t_finite, t_refused",
    [(1, 441.7, 441.8), (60, 507.8, 507.9), (380, 866.6, 866.7), (380, 866.6, 1e6),
     (380, 866.6, 1e308)],
)
def test_eta_refuses_an_order_whose_bound_overflows(order, t_finite, t_refused):
    # truncation_bound is inf past these heights; an explicit order gets
    # there, the default order refuses first, near |t| = 402.  At 1e308
    # the rounding bound, once taken first, was NaN (inf * log 1), and
    # eta returned a NaN estimate.
    assert math.isfinite(eta(complex(0.5, t_finite), order).error_estimate)
    with pytest.raises(DomainError, match=rf"\|im\(s\)\| = .* at acceleration order {order} "):
        eta(complex(0.5, t_refused), order)


def test_bridge_factor_vanishes_at_exceptional_points():
    for k in (1, -1, 3):
        assert abs(bridge_factor(complex(1.0, k * EXCEPTIONAL_SPACING))) <= 1e-13


def test_exceptional_value_by_independent_route():
    # direct Euler-Maclaurin never touches the vanishing bridge factor
    s0 = complex(1.0, EXCEPTIONAL_SPACING)
    assert abs(zeta_at_exceptional(1).value - zeta_em(s0)) <= 1e-9


def test_exceptional_values_are_the_inline_eta_prime_sum_bitwise():
    # The value at every accepted k, repr for repr, is the inline sum
    # -sum w_k log k k**(-s0) / log 2 frozen here; eta's own sum at power
    # 1 negates each term and the pairwise sum exactly.
    for k in [*range(-44, 0), *range(1, 45)]:
        s0 = complex(1.0, k * EXCEPTIONAL_SPACING)
        order = default_order(complex(0.5, abs(s0.imag) + 0.5))
        w, logk = dirichlet_eval._weights(order)
        frozen = -complex(np.sum(w * logk * np.exp(-s0 * logk))) / math.log(2.0)
        result = zeta_at_exceptional(k)
        assert (repr(result.value), result.terms_used) == (repr(frozen), order), k


def test_exceptional_rejects_pole_index():
    with pytest.raises(PoleError):
        zeta_at_exceptional(0)


@pytest.mark.parametrize("k", [44, -44])
def test_exceptional_reaches_k_44(k):
    # one sum, at the default order at 1/2 + i(|t0| + 1/2)
    result = zeta_at_exceptional(k)
    assert result.terms_used == default_order(complex(0.5, 44 * EXCEPTIONAL_SPACING + 0.5)) == 378
    assert math.isfinite(result.error_estimate)
    assert type(result.error_estimate) is float


@pytest.mark.parametrize("k", [45, -45])
def test_exceptional_refuses_k_45(k):
    # 1/2 + i(|t0| + 1/2) needs order 386, past the cap
    with pytest.raises(DomainError):
        default_order(complex(0.5, abs(k) * EXCEPTIONAL_SPACING + 0.5))
    with pytest.raises(DomainError):
        zeta_at_exceptional(k)


def test_exceptional_refuses_a_k_past_float_before_forming_its_point():
    # k * EXCEPTIONAL_SPACING overflowed before k was refused.
    for k in (10**400, -(10**400)):
        with pytest.raises(DomainError, match="must be in -44..44"):
            zeta_at_exceptional(k)


def test_estimates_bound_the_error_against_mpmath():
    # An eta estimate without the phase error of t * log k misses at 46
    # of these points, by up to 4.6x; a finite-difference eta' with one
    # Richardson step missed its own estimate at k = 12 and -12.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(28)
    points = rng.uniform((0.05, 0.0), (2.0, 400.0), size=(240, 2))
    eta_misses, exceptional_misses = [], []
    with mpmath.workdps(30):
        for sigma, t in points:
            result = eta(complex(sigma, t))
            actual = abs(result.value - complex(mpmath.altzeta(mpmath.mpc(sigma, t))))
            if not actual <= result.error_estimate:
                eta_misses.append((sigma, t, actual / result.error_estimate))
        for k in [*range(-44, 0), *range(1, 45)]:
            result = zeta_at_exceptional(k)
            # zeta(s, 2) + 1: mpmath.zeta(s) is off by about 1e-6 here
            s0 = 1 + 2j * mpmath.pi * k / mpmath.log(2)
            actual = abs(result.value - complex(mpmath.zeta(s0, 2) + 1))
            if not actual <= result.error_estimate:
                exceptional_misses.append((k, actual / result.error_estimate))
    assert eta_misses == []
    assert exceptional_misses == []


def test_lambda_series_small_prefix():
    manual = sum(liouville_brute(m) * m ** -2.0 for m in range(1, 51))
    assert abs(lambda_series_partial(2.0, 50) - manual) <= 1e-14
    with pytest.raises(InvalidBoundError):
        lambda_series_partial(2.0, 0)


@pytest.mark.parametrize("M", [2**31, 10**12])
def test_lambda_series_rejects_M_above_int32_before_allocating(no_numpy, M):
    no_numpy(dirichlet_eval)
    with pytest.raises(InvalidBoundError, match=r"2\*\*31 - 1"):
        lambda_series_partial(2.0, M)


@pytest.mark.parametrize("s", [2.0, 0.5 + 14.134725j])
def test_lambda_series_is_bitwise_the_chunked_table_sum(s):
    # The former route: one sieve of 1e6 rows, chunk sums added in order.
    lam = sieve(10**6)[1]
    total = 0j
    for lo in range(1, 10**6 + 1, 1 << 18):
        hi = min(lo + (1 << 18) - 1, 10**6)
        m = np.arange(lo, hi + 1, dtype=np.float64)
        total += complex(np.sum(lam[lo : hi + 1] * np.exp(-s * np.log(m))))
    got = np.complex128(lambda_series_partial(s, 10**6))
    assert got.tobytes() == np.complex128(total).tobytes()


def test_lambda_series_memory_is_one_chunk(traced_peak):
    _, peak = traced_peak(lambda_series_partial, 2.0, 4 * 10**6)
    # One 2**18-row chunk peaked at 10.3 MiB, as at M = 1e6; a table of
    # 4e6 rows alone took 12 MB.
    assert peak <= 11 * 2**20, f"lambda series peaked at {peak / 2**20:.1f} MiB"


def test_beta_series_is_the_paired_square_series():
    # rearranged support: +1 at k*k, -2 at 2*k*k, both cut at root index K
    for s in (2.0 + 0j, 0.8 + 5j):
        expected = (1 - 2 ** (1 - s)) * sum(j ** (-2 * s) for j in range(1, 201))
        assert abs(beta_series_partial(s, 200) - expected) <= 1e-12


def test_beta_series_residual_against_bridge_product():
    series = beta_series_partial(2.0, 1000)
    bridge = bridge_factor(2.0) * zeta(4.0).value
    assert abs(series - bridge) <= 1e-9


def test_beta_series_guards():
    with pytest.raises(DomainError):
        beta_series_partial(-1.0, 100)
    with pytest.raises(InvalidBoundError):
        beta_series_partial(2.0, 0)


@pytest.mark.parametrize("K", [MAX_SQUARE_INDEX + 1, 10**13])
def test_beta_series_rejects_K_above_the_cap_before_allocating(no_numpy, K):
    no_numpy(dirichlet_eval)
    with pytest.raises(InvalidBoundError, match=r"1\.\.4194304"):
        beta_series_partial(2.0, K)


def _beta_series_terms(s, K):
    """Every term of the signed-square series at once, sorted by n."""
    k = np.arange(1, K + 1, dtype=np.float64)
    kpow = np.exp(-2.0 * s * np.log(k))
    twice_terms = -2.0 * cmath.exp(-s * math.log(2.0)) * kpow
    ns = np.concatenate([k * k, 2.0 * k * k])
    return np.concatenate([kpow, twice_terms])[np.argsort(ns, kind="stable")]


def _beta_series_reference(s, K):
    """The signed-square series as one np.sum over all its terms in n order."""
    return complex(np.sum(_beta_series_terms(s, K)))


# K up to 46340 keeps every term in the first chunk (2*K*K <= 2**32), so
# the chunked sum is this one np.sum bit for bit.
@pytest.mark.parametrize("K", [1, 2, 7, 64, 65, 1000, 46340])
@pytest.mark.parametrize("s", [2.0, 0.75 + 3j, 1.5 - 20j, 0.51 + 100.25j])
def test_beta_series_is_bitwise_one_sorted_sum(s, K):
    got = np.complex128(beta_series_partial(s, K))
    assert got.tobytes() == np.complex128(_beta_series_reference(complex(s), K)).tobytes()


# Past the first chunk the sum is grouped by chunk, so each part is held
# to c * eps * sum|t| of the exactly rounded sum of the same terms, with
# c = 3.  Measured: at most 1.38 on these cases, and 2.20 over eight
# values of s and thirteen K up to 2**21.
@pytest.mark.parametrize("K", [46341, 65536, 65537, 92682, 300_001])
@pytest.mark.parametrize("s", [2.0, 0.75 + 3j, 1.5 - 20j, 0.51 + 100.25j])
def test_beta_series_chunk_sums_are_near_the_exact_sum(s, K):
    terms = _beta_series_terms(complex(s), K)
    got = beta_series_partial(s, K)
    eps = np.finfo(float).eps
    for part, value in ((terms.real, got.real), (terms.imag, got.imag)):
        assert abs(value - math.fsum(part)) <= 3.0 * eps * math.fsum(np.abs(part))


def test_beta_series_memory_is_chunked(traced_peak):
    _, peak = traced_peak(beta_series_partial, 0.75 + 3j, 10**6)
    # One chunk of about 1.1e5 terms at a time: 6.68 MiB measured, and
    # 7.54 MiB while a chunk's arrays stayed alive into the next one's
    # build.  The whole series would be 2e6 terms.
    assert peak <= 7 * 2**20, f"beta series peaked at {peak / 2**20:.2f} MiB"
