"""Zeros of the alternating zeta series.

Two families matter here.  On the critical line re(s) = 1/2 the
alternating series vanishes exactly where zeta does, and those points are
found by scanning |eta(1/2 + it)| on a grid and polishing each local
minimum with golden-section search.  On the line re(s) = 1 the factor
1 - 2**(1-s) vanishes at s = 1 + 2*k*pi*i/log(2), producing zeros of eta
that say nothing about zeta; those need no search at all.

The critical-line zeros double as the experimental regime for the
divisor-supported double array: at such an s every row sum carries the
factor eta(s) and collapses to zero, while column partial sums keep
oscillating.  Strictly speaking the interesting hypothetical regime is
1/2 < re(s) < 1, where no zero is expected to exist; a sweep over
re(s) in {0.6, 0.75} confirming |eta| stays well above zero is provided
so that the substitution is explicit rather than silent.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dirichlet_eval import (
    _MAX_ORDER,
    EXCEPTIONAL_SPACING,
    _eta_value,
    default_order,
    eta,
    eta_line,
)
from .errors import InvalidBoundError, NotAZeroError, ScanStepError

# A grid local minimum of |eta| must dip below this to count as a bracket.
BRACKET_CEILING = 0.5
# Golden-section interval width at which refinement stops.
REFINE_WIDTH = 1e-11
# A polished candidate must push |eta| at doubled order below this.
REFINE_TOL = 1e-9
# Most grid points one scan accepts.  A scan holds about 32 B per point
# for its whole grid (t, complex eta and |eta|), so ~0.5 GB at the cap.
MAX_SCAN_POINTS = 1 << 24

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ZeroCandidate:
    """A located zero of eta with its measured residual.

    kind is "critical_line" (s = 1/2 + it from scan + refine) or
    "exceptional" (s = 1 + 2*k*pi*i/log 2, with k recorded).
    """

    s: complex
    residual: float
    kind: str
    k: int | None = None


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    """The scan grid lo, lo + step, ... through hi, counted before it is allocated."""
    points = math.ceil((hi + 0.5 * step - lo) / step)
    if points > MAX_SCAN_POINTS:
        raise InvalidBoundError(
            f"a grid of {points} points from t = {lo} to {hi} at step {step:g} "
            f"exceeds the {MAX_SCAN_POINTS} accepted; use a larger step or a "
            "shorter window"
        )
    return np.arange(lo, hi + 0.5 * step, step)


def scan_critical_line(t_lo: float, t_hi: float, step: float) -> list:
    """Brackets around dips of |eta(1/2 + it)| on a regular t grid.

    Returns (a, b) intervals around strict local minima whose value is
    below 0.5; everything else on the critical line sits well above that.
    A grid of more than MAX_SCAN_POINTS points raises InvalidBoundError
    before it is allocated.
    """
    if not 0.0 < t_lo < t_hi < math.inf:
        raise InvalidBoundError(
            f"need 0 < t_lo < t_hi finite, got t_lo={t_lo}, t_hi={t_hi}"
        )
    if not 0.0 < step <= 0.1:
        raise ScanStepError(
            f"grid step must be in (0, 0.1], got {step}; coarser grids skip zeros"
        )
    default_order(complex(0.5, t_hi))  # DomainError past the evaluator's reach
    ts = _grid(t_lo, t_hi, step)
    if len(ts) < 3:
        return []
    vals = np.abs(eta_line(0.5, ts))
    inner = vals[1:-1]
    is_min = (inner < vals[:-2]) & (inner < vals[2:]) & (inner < BRACKET_CEILING)
    return [(float(ts[i]), float(ts[i + 2])) for i in np.flatnonzero(is_min)]


def _abs_eta_sq(t: float, order: int) -> float:
    v = _eta_value(complex(0.5, t), order)
    return v.real * v.real + v.imag * v.imag


def refine(bracket) -> ZeroCandidate:
    """Polish a scan bracket to a critical-line zero candidate.

    Golden-section minimization of |eta(1/2 + it)|**2 down to an interval
    of width 1e-11.  The reported residual is |eta| re-evaluated at twice
    the acceleration order (at most the evaluator's cap of 380, reached
    from t ~ 189.7 on), so an evaluator artifact cannot masquerade as a
    zero; a residual above 1e-9 raises NotAZeroError instead of returning
    a candidate.
    """
    a, b = float(bracket[0]), float(bracket[1])
    if not b > a:
        raise InvalidBoundError(f"bracket must satisfy a < b, got ({a}, {b})")
    order = default_order(complex(0.5, 0.5 * (a + b)))

    h = b - a
    c = b - _INV_PHI * h
    d = a + _INV_PHI * h
    fc = _abs_eta_sq(c, order)
    fd = _abs_eta_sq(d, order)
    while h > REFINE_WIDTH:
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = b - _INV_PHI * h
            fc = _abs_eta_sq(c, order)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INV_PHI * h
            fd = _abs_eta_sq(d, order)
    t = 0.5 * (a + b)
    s = complex(0.5, t)
    residual = abs(eta(s, min(2 * order, _MAX_ORDER)).value)
    if residual > REFINE_TOL:
        raise NotAZeroError(
            f"|eta| stalls at {residual:.3e} near t = {t:.9f}; "
            "the dip is not a zero"
        )
    return ZeroCandidate(s, residual, "critical_line")


def exceptional_zero(k: int) -> ZeroCandidate:
    """The zero of eta at s = 1 + 2*k*pi*i/log 2, k nonzero.

    No refinement is involved: the vanishing factor pins the location
    exactly, and the returned residual is simply the measured |eta(s)|.
    """
    if k == 0:
        raise InvalidBoundError("k = 0 is the pole of zeta, not a zero of eta")
    s = complex(1.0, k * EXCEPTIONAL_SPACING)
    residual = abs(eta(s).value)
    return ZeroCandidate(s, residual, "exceptional", k=int(k))


def zeros_between(t_lo: float, t_hi: float, step: float = 0.01) -> list:
    """Scan and refine: all critical-line zero candidates in [t_lo, t_hi]."""
    out = []
    for bracket in scan_critical_line(t_lo, t_hi, step):
        out.append(refine(bracket))
    return out


def off_line_sweep(
    sigmas=(0.6, 0.75), t_max: float = 50.0, step: float = 0.05
) -> list:
    """Smallest |eta(sigma + it)| over |t| <= t_max, per off-line sigma.

    Returns (sigma, min |eta|, t at the minimum) triples.  By conjugate
    symmetry only t >= 0 is evaluated.  The expected outcome is a floor
    well above zero: these lines host no zeros, which is exactly why the
    critical-line zeros are used as the stand-in experimental regime.
    The grid is capped at MAX_SCAN_POINTS points, as in scan_critical_line.
    """
    if not 0.0 < step <= 0.1:
        raise ScanStepError(f"grid step must be in (0, 0.1], got {step}")
    if not 0.0 < t_max < math.inf:
        raise InvalidBoundError(f"t_max must be positive and finite, got {t_max}")
    for sigma in sigmas:
        default_order(complex(sigma, t_max))  # DomainError past the evaluator's reach
    ts = _grid(0.0, t_max, step)
    out = []
    for sigma in sigmas:
        vals = np.abs(eta_line(float(sigma), ts))
        i = int(np.argmin(vals))
        out.append((float(sigma), float(vals[i]), float(ts[i])))
    return out
