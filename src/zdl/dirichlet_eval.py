"""Accelerated evaluation of the alternating zeta (eta) function and friends.

eta(s) = sum (-1)**(n+1) / n**s converges for re(s) > 0 and is summed here
with the Chebyshev-weighted acceleration scheme: integer coefficients d_k
turn the first `order` terms into an approximation whose error shrinks
geometrically like (3 + sqrt(8))**(-order).  The Riemann zeta function is
recovered through the bridge

    zeta(s) = eta(s) / (1 - 2**(1-s)),

which degenerates at s = 1 (pole) and at the off-axis zeros of the bridge
factor, s = 1 + 2*pi*i*k/log(2) for k != 0.  At those exceptional points
zeta is instead the limit eta'(s) / log(2), the same accelerated sum
with log k weights.

Also provided: partial sums of the Liouville Dirichlet series and of the
sparse signed-square series, the two series whose comparison drives the
double-array experiments.  Both stream by one rule: each chunk of terms
is one np.sum, and the chunk sums are added in order.
"""

import cmath
import functools
import math
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .arithmetic import sieve
from .errors import DomainError, ExceptionalPointError, InvalidBoundError, PoleError

# Geometric rate of the acceleration scheme; one accelerated term gains
# log10(3+sqrt(8)) ~ 0.77 digits.
_RATE = 3.0 + math.sqrt(8.0)
_LOG_RATE = math.log(_RATE)

# Spacing of the exceptional points along im(s).
EXCEPTIONAL_SPACING = 2.0 * math.pi / math.log(2.0)

# A policy bound, not an overflow: (top - dk) / top is exact big-integer
# true division and _weights(800) is finite.  It caps default_order, and
# so the zero scan, near |t| = 402 on the critical line, until a cap
# derived from the phase rounding (about eps * t * log k per term, which
# error_estimate counts) replaces it.
_MAX_ORDER = 380

# Guard radius around exceptional points for the bridge evaluator.
EXCEPTIONAL_RADIUS = 1e-8

# Rows per chunk of lambda_series_partial.  Each chunk is one np.sum, so
# the value sets the grouping of the sum, and so its bits.
_SERIES_CHUNK = 1 << 18

# Square roots per chunk of beta_series_partial: a chunk holds about
# 1.7 times as many terms, squares and twice-squares.  As _SERIES_CHUNK
# does for lambda, the value sets the grouping of the sum, and so its
# bits for K >= 46341, where the terms first span two chunks.
_SQUARE_CHUNK = 1 << 16

# Rows of t per eta_line chunk.  Its buffers hold pi(order) * _LINE_CHUNK
# angles plus _LINE_CHUNK complex phases per buffer row (see _line_plan):
# 0.3 + 1.1 MB at order 186 (42 primes, 68 rows), 0.6 + 2.2 MB at 380
# (75 primes, 133 rows).
_LINE_CHUNK = 1024

# Largest square-root index K that beta_series_partial accepts.
MAX_SQUARE_INDEX = 1 << 22


@dataclass(frozen=True)
class EvalResult:
    """A value together with its error budget.

    error_estimate is an a-priori bound on the acceleration truncation
    (for eta', Cauchy's estimate of it) plus a rounding allowance that
    counts the phase error of t * log k; it is deliberately conservative.
    """

    value: complex
    error_estimate: float
    terms_used: int


def _require_point(s: complex) -> complex:
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise DomainError(f"evaluation point must be finite, got {s}")
    return s


@functools.cache
def _weights(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Signed acceleration weights and log k for k = 1..order, cached per order.

    The weight of k is (-1)**(k+1) c_(k-1), with c_j = (d_order - d_j) /
    d_order and the d_j the exact integer partial sums of the
    Chebyshev-derived coefficient recurrence; eta(s) ~ sum w_k k**(-s).
    """
    d = 1
    partial = [1]
    for i in range(1, order + 1):
        d = d * 4 * (order + i - 1) * (order - i + 1) // ((2 * i) * (2 * i - 1))
        partial.append(partial[-1] + d)
    top = partial[-1]
    c = np.array([(top - dk) / top for dk in partial[:-1]], dtype=np.float64)
    signs = np.where(np.arange(order) % 2 == 0, 1.0, -1.0)
    return signs * c, np.log(np.arange(1, order + 1, dtype=np.float64))


def _eta_value(s: complex, order: int, power: int = 0) -> complex:
    """Derivative `power` of the accelerated sum at s, unchecked and without an error budget."""
    w, logk = _weights(order)
    if power:
        w = w * (-logk) ** power
    return complex(np.sum(w * np.exp(-s * logk)))


def _rounding_bound(s: complex, order: int, power: int) -> float:
    """Rounding allowance for the sum of w_k (log k)**power k**(-s).

    eps * sum |w_k| (log k)**power k**(-sigma) * (8 + 2|t| log k): eight
    roundings per term plus the phase error, taken twice for margin; log
    k and t * log k are each rounded, so a phase is off by eps * |t| log k.
    """
    w, logk = _weights(order)
    size = np.abs(w) * logk**power * np.exp(-s.real * logk)
    phase = 8.0 + 2.0 * abs(s.imag) * logk
    return float(np.finfo(float).eps * np.sum(size * phase))


def _log_growth(t: float) -> float:
    """log(3 * (1 + 2t)) + pi * t / 2, the log of the bound's growth in t = |im(s)|."""
    return math.log(3.0 * (1.0 + 2.0 * t)) + 0.5 * math.pi * t


def truncation_bound(order: int, s: complex) -> float:
    """A-priori bound on the acceleration error at the given order.

    3 * (1 + 2|t|) * exp(pi |t| / 2) / (3 + sqrt(8))**order, inflated by
    4**(1/2 - sigma) left of the critical line where the sharp constant
    is not available.
    """
    log_bound = _log_growth(abs(s.imag)) - order * _LOG_RATE
    if s.real < 0.5:
        log_bound += (0.5 - s.real) * math.log(4.0)
    if log_bound > 700.0:
        return math.inf
    return math.exp(log_bound)


def default_order(s: complex) -> int:
    """Smallest order (at least 60) whose a-priori bound is below 1e-13."""
    t = abs(s.imag)
    need = (
        _log_growth(t)
        + 13.0 * math.log(10.0)
        + (0.5 - min(s.real, 0.5)) * math.log(4.0)
    ) / _LOG_RATE
    order = max(60, math.ceil(need))
    if order > _MAX_ORDER:
        raise DomainError(
            f"|im(s)| = {t:.1f} needs acceleration order {order}, "
            f"beyond the supported {_MAX_ORDER}"
        )
    return order


def eta(s: complex, order: int | None = None) -> EvalResult:
    """Alternating zeta function for re(s) > 0.

    Args:
        s: evaluation point with positive real part.
        order: acceleration order; default picks one from the error bound.

    Returns:
        EvalResult; error_estimate covers truncation plus rounding.

    Raises:
        DomainError: if re(s) <= 0, if s is not finite, or if the
            truncation bound at this order and |im(s)| overflows.
    """
    s = _require_point(s)
    if s.real <= 0.0:
        raise DomainError(f"eta is evaluated only for re(s) > 0, got {s}")
    if order is None:
        order = default_order(s)
    elif not 1 <= order <= _MAX_ORDER:
        raise InvalidBoundError(f"order must be in 1..{_MAX_ORDER}, got {order}")
    estimate = truncation_bound(order, s) + _rounding_bound(s, order, 0)
    if estimate == math.inf:
        raise DomainError(
            f"|im(s)| = {abs(s.imag):.1f} at acceleration order {order} has no "
            "finite error bound; use a smaller |im(s)| or the default order"
        )
    return EvalResult(_eta_value(s, order), estimate, order)


@functools.cache
def _line_plan(order: int) -> tuple:
    """How eta_line builds and sums its phases at one order, cached per order.

    Terms are summed in slot order: k = 1, the primes, then the
    composites, each group in increasing k.  A composite k is built as
    p * (k/p), p its smallest prime factor, and summed at once.  Row 0
    keeps k = 1 and rows 1..pi(order) the primes, rewritten each chunk;
    a row is free after the last step that reads its phase, as a factor
    or to sum it, and each composite takes a free row, else a new one.
    Primes above order // 2 are no factor, so their rows are free from
    the first composite on.  A step's factor rows are freed only after
    it takes its own: a complex multiply over one of its inputs takes
    another loop on a one-row chunk, with other rounding.  Returns the
    weights and log k in slot order, pi(order), the number of buffer
    rows, and one (row of k, row of p, row of k/p) step per composite in
    increasing k.
    """
    primes = np.flatnonzero(sieve(order)[0] == 1).tolist()
    smallest = {}
    for p in reversed(primes):
        for k in range(p * p, order + 1, p):
            smallest[k] = p
    composites = sorted(smallest)
    last = {k: k for k in composites}
    for k in composites:
        last[smallest[k]] = last[k // smallest[k]] = k
    row = {p: j for j, p in enumerate(primes, 1)}
    free = [row[p] for p in primes if p not in last]
    n_rows = len(primes) + 1
    steps = []
    for k in composites:
        p, q = smallest[k], k // smallest[k]
        if not free:
            free.append(n_rows)
            n_rows += 1
        row[k] = free.pop()
        steps.append((row[k], row[p], row[q]))
        # p == q at k = p * p, so dict.fromkeys frees that row once.
        free += [row[f] for f in dict.fromkeys((p, q, k)) if last[f] == k]
    w, logk = _weights(order)
    index = np.array([1, *primes, *composites]) - 1
    return w[index], logk[index], len(primes), n_rows, steps


def eta_line(sigma: float, ts: np.ndarray, order: int | None = None) -> np.ndarray:
    """Vectorized eta along the vertical line re(s) = sigma.

    Used by the zero scanner, which needs thousands of samples.  Each term
    splits into a real amplitude w_k k**(-sigma) and a unit phase
    k**(-it).  The phase is completely multiplicative in k, so cos and sin
    are taken only at the primes p <= order; each composite phase is one
    complex product p**(-it) * (k/p)**(-it), p its smallest prime factor,
    built in increasing k.  Each phase is added to the sum as soon as it
    is built, as elementwise multiply-adds in one fixed k order, so a
    row's bits never depend on the grid around it or on chunking;
    agreement with eta() is tested to 1e-13.  A phase holds a buffer
    row only until the last product that reads it (see _line_plan).
    The grid is walked in chunks of _LINE_CHUNK rows through that one
    reused buffer, so peak memory is one chunk whatever len(ts) is:
    about 1.5 MB at order 186 and 2.8 MB at the cap.  One order, picked
    from the largest |t|, serves every row.

    Raises:
        DomainError: if sigma is not finite and positive, if any t is
            not finite, or if the default order for the largest |t| would
            exceed _MAX_ORDER.
        InvalidBoundError: if order is outside 1.._MAX_ORDER.
    """
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise DomainError(f"eta_line needs a finite sigma > 0, got sigma={sigma}")
    ts = np.asarray(ts, dtype=np.float64)
    if not np.all(np.isfinite(ts)):
        raise DomainError("eta_line needs finite t, got a nan or an infinity")
    if order is None:
        t_peak = float(np.max(np.abs(ts))) if ts.size else 0.0
        order = default_order(complex(sigma, t_peak))
    elif not 1 <= order <= _MAX_ORDER:
        raise InvalidBoundError(f"order must be in 1..{_MAX_ORDER}, got {order}")
    w, logk, n_primes, n_rows, steps = _line_plan(order)
    amp = (w * np.exp(-sigma * logk)).tolist()
    primes = slice(1, n_primes + 1)
    rows = min(ts.size, _LINE_CHUNK)
    x = np.empty((n_primes, rows))
    # Each row holds k**(+it) for the k that _line_plan puts there; the
    # sum is conjugated once.
    phase = np.empty((n_rows, rows), dtype=np.complex128)
    phase[0] = 1.0
    acc = np.empty(rows, dtype=np.complex128)
    term = np.empty(rows, dtype=np.complex128)
    out = np.empty(ts.size, dtype=np.complex128)
    for lo in range(0, ts.size, _LINE_CHUNK):
        hi = min(lo + _LINE_CHUNK, ts.size)
        n = hi - lo
        np.multiply.outer(logk[primes], ts[lo:hi], out=x[:, :n])
        np.cos(x[:, :n], out=phase.real[primes, :n])
        np.sin(x[:, :n], out=phase.imag[primes, :n])
        held, total, part = list(phase[:, :n]), acc[:n], term[:n]
        total[:] = 0.0
        for j, a in enumerate(amp[: n_primes + 1]):
            np.multiply(held[j], a, out=part)
            np.add(total, part, out=total)
        for (k, p, q), a in zip(steps, amp[n_primes + 1 :]):
            np.multiply(held[p], held[q], out=held[k])
            np.multiply(held[k], a, out=part)
            np.add(total, part, out=total)
        np.conjugate(total, out=out[lo:hi])
    return out


def _nearest_exceptional(s: complex) -> tuple[int, float]:
    k = round(s.imag / EXCEPTIONAL_SPACING)
    if k == 0:
        return 0, math.inf
    return k, abs(s - complex(1.0, k * EXCEPTIONAL_SPACING))


def bridge_factor(s: complex) -> complex:
    """The eta-to-zeta conversion factor 1 - 2**(1-s)."""
    return 1.0 - cmath.exp((1.0 - s) * math.log(2.0))


def zeta(s: complex) -> EvalResult:
    """Riemann zeta via the alternating-series bridge, for re(s) > 0.

    Raises:
        PoleError: at s = 1, and next to it where the bridge factor
            rounds to 0 or the value or its estimate overflows.
        ExceptionalPointError: within EXCEPTIONAL_RADIUS of a zero of the
            bridge factor with k != 0; use zeta_at_exceptional there.
        DomainError: if re(s) <= 0.
    """
    s = _require_point(s)
    if s == 1:
        raise PoleError("zeta has its pole at s = 1")
    k, dist = _nearest_exceptional(s)
    if dist < EXCEPTIONAL_RADIUS:
        raise ExceptionalPointError(
            f"s = {s} is within {EXCEPTIONAL_RADIUS:g} of the exceptional "
            f"point 1 + {k}*2*pi*i/log(2); use zeta_at_exceptional({k})",
            k=k,
        )
    base = eta(s)
    factor = bridge_factor(s)
    if factor:
        value = base.value / factor
        rounding = 4.0 * float(np.finfo(float).eps) * abs(value)
        estimate = base.error_estimate / abs(factor) + rounding
        if cmath.isfinite(value) and math.isfinite(estimate):
            return EvalResult(value, estimate, base.terms_used)
    raise PoleError(
        f"zeta overflows at s = {s}, {abs(s - 1):.3g} from its pole at s = 1; "
        "move s further from 1"
    )


def zeta_at_exceptional(k: int) -> EvalResult:
    """zeta at the exceptional point s0 = 1 + 2*pi*i*k/log(2), k != 0.

    Both eta and the bridge factor vanish there, so zeta continues to
    eta'(s0) / log(2): eta's own sum with weights -w_k log k, at
    the default order at 1/2 + i(|t0| + 1/2).  Its truncation part is
    Cauchy's estimate, twice truncation_bound there (the circle of
    radius 1/2 about s0 stays in re(s) >= 1/2); its rounding part counts
    the phase error of t * log k.

    Raises:
        PoleError: at k = 0.
        DomainError: for |k| > 44, past _MAX_ORDER.
    """
    if k == 0:
        raise PoleError("k = 0 is the pole at s = 1, not an exceptional point")
    s0 = complex(1.0, k * EXCEPTIONAL_SPACING)
    rim = complex(0.5, abs(s0.imag) + 0.5)
    order = default_order(rim)
    ln2 = math.log(2.0)
    estimate = (2.0 * truncation_bound(order, rim) + _rounding_bound(s0, order, 1)) / ln2
    return EvalResult(_eta_value(s0, order, 1) / ln2, estimate, order)


def _add_in_order(chunk_sums) -> complex:
    """The chunk sums added left to right, starting from 0j.

    The rule both reference series follow: each chunk is one np.sum,
    and the chunk sums meet here one at a time, so a result's bits are
    set by the chunk size alone.  The builtin sum is not used, as from
    Python 3.12 it compensates float sums.
    """
    total = 0j
    for chunk_sum in chunk_sums:
        total += chunk_sum
    return total


def _liouville_chunks(s: complex, M: int):
    """Per-chunk sums of liouville(m) / m**s for m <= M, in increasing m.

    Each chunk of _SERIES_CHUNK rows sieves its own liouville.  Only its
    sum is yielded, so its terms are freed before the next chunk is built.
    """
    for lo in range(1, M + 1, _SERIES_CHUNK):
        hi = min(lo + _SERIES_CHUNK - 1, M)
        m = np.arange(lo, hi + 1, dtype=np.float64)
        yield complex(np.sum(sieve(hi, lo)[1] * np.exp(-s * np.log(m))))


def lambda_series_partial(s: complex, M: int) -> complex:
    """Partial sum of liouville(m) / m**s for m <= M.

    A finite sum, evaluated for any finite s; the full series converges
    only for re(s) > 1, so results deeper in the strip are exploratory.
    Summed chunk by chunk (_SERIES_CHUNK rows, each one np.sum, the
    chunk sums added in order), so the result is reproducible bit for
    bit.  Memory is one chunk's sieve, whatever M.

    Raises:
        InvalidBoundError: if M < 1 or M > 2**31 - 1, before anything is
            allocated.
    """
    s = _require_point(s)
    if not 1 <= M <= 2**31 - 1:
        raise InvalidBoundError(f"M must be in 1..2**31 - 1 (int32 sieve), got {M}")
    return _add_in_order(_liouville_chunks(s, M))


def _signed_square_chunks(s: complex, K: int):
    """Per-chunk sums of the signed-square series, in increasing n.

    A chunk covers n_lo < n <= n_hi with isqrt(n_hi) = isqrt(n_lo) +
    _SQUARE_CHUNK: the squares k*k and twice-squares 2*j*j there (k, j
    <= K), merged by n and summed in that order.  The two never tie, as
    k*k = 2*j*j has no solution in positive integers.
    """
    twice = -2.0 * cmath.exp(-s * math.log(2.0))
    n_lo, n_end = 0, 2 * K * K
    while n_lo < n_end:
        n_hi = min((isqrt(n_lo) + _SQUARE_CHUNK) ** 2, n_end)
        k = np.arange(isqrt(n_lo) + 1, min(isqrt(n_hi), K) + 1, dtype=np.float64)
        j = np.arange(isqrt(n_lo // 2) + 1, min(isqrt(n_hi // 2), K) + 1, dtype=np.float64)
        ns = np.concatenate([k * k, 2.0 * j * j])
        # Named, so numpy cannot reuse the temporary in place: an in-place
        # complex multiply takes another loop, with other rounding.
        jpow = np.exp(-2.0 * s * np.log(j))
        terms = np.concatenate([np.exp(-2.0 * s * np.log(k)), twice * jpow])
        chunk_sum = complex(np.sum(terms[np.argsort(ns, kind="stable")]))
        # Freed here, or they would stay alive across the yield while
        # the caller has the next chunk built.
        del k, j, ns, jpow, terms
        yield chunk_sum
        n_lo = n_hi


def beta_series_partial(s: complex, K: int) -> complex:
    """Partial sum of the sparse signed-square series.

    The series runs over the support of the divisor transform: +1 at each
    square k*k and -2 at each twice-square 2*k*k.  Both families are
    truncated at square-root index K and the terms are added in increasing
    order of the underlying index n, matching how the series is written
    out term by term.  It is summed by lambda_series_partial's rule: each
    chunk of _SQUARE_CHUNK square roots is one np.sum in n order, and the
    chunk sums are added in order, so memory stays a few MB.  For K <=
    46340 (2*K*K <= 2**32) the first chunk holds every term, and the sum
    is one np.sum over all 2K terms.  K must lie in 1..MAX_SQUARE_INDEX =
    2**22, which bounds the time; a larger K raises InvalidBoundError.
    """
    s = _require_point(s)
    if s.real <= 0.0:
        raise DomainError(f"series requires re(s) > 0, got {s}")
    if not 1 <= K <= MAX_SQUARE_INDEX:
        raise InvalidBoundError(f"K must be in 1..{MAX_SQUARE_INDEX}, got {K}")
    return _add_in_order(_signed_square_chunks(s, K))
