"""Empirical probes for limit interchange on finite windows.

Everything here works on the partial-sum surface f(M, N) = S(M, N) of a
double array, over a declared finite window.  Vocabulary used throughout
(and in the JSON reports):

* first partial limit: lim over m of S(m, n), one value per column n;
* second partial limit: lim over n of S(m, n), one value per row m;
* first iterated limit: outer limit over n of the first partials;
* second iterated limit: outer limit over m of the second partials;
* double limit: the rectangle limit, min(m, n) large jointly.

A limit "settles" on the window when the second half of its trace fits
in a box of diameter at most the tolerance.  "Settles uniformly" adds
that every settle index stays clear of the window edge.  None of this
decides convergence in the mathematical sense; every verdict is a
statement about the window, and the window is always reported alongside.

The two uniformity scans measure the competing Cauchy-block quantities
for the divisor-supported array: the block-tail criterion the limit
interchange actually needs, and the row-tail criterion that is easy to
verify but insufficient.  At arguments on the critical line the first
stalls while the second decays, which is the whole story told by this
package in one pair of curves.
"""

from dataclasses import asdict, dataclass, field
from itertools import combinations
from math import isqrt

import numpy as np

from .double_array import (
    MAX_GRID_CELLS,
    SLAB_ROWS,
    _RECTANGLE_CELLS,
    DoubleArray,
    _box_diameter,
    slab,
    slabs,
)
from .errors import InsufficientWindowError, InvalidBoundError

PROBE_KINDS = (
    "first_partial",
    "second_partial",
    "double",
    "first_iterated",
    "second_iterated",
)

NEEDED_CRITERION = "needed_criterion"
VERIFIED_CRITERION = "lee_verified_criterion"

# A settle index in the last quarter of a trace counts as drifting into
# the window edge, so it never supports a uniformity claim.
_UNIFORM_EDGE_FRACTION = 0.75

# Width of the blocks whose extents the settle profiles are built from: a
# slab of the grid, so each slab holds one block of every column.
_BLOCK = SLAB_ROWS

# Traces the settle profiles take at a time where their working arrays
# grow with the trace count: the exact diameters' gather, spans and
# diameters hold about 40 B for each of a trace's _BLOCK entries, so a
# chunk holds about as much as one rectangle call of a slab.
_SETTLE_CHUNK = _RECTANGLE_CELLS // (4 * _BLOCK)

# Working cells (block heights x pairs) of one n-window of the block-tail
# scan.  Each cell takes 16 B of running sums, 1 B of the mask that fills
# them and 8 B of their modulus, so a window holds about 3 MiB.  The
# value also sets the largest block the scan takes, 356, which the
# refusal quotes.
_SCAN_CELLS = 127_875

# Fewest terms a block-tail start M's row must hold, by the array's
# pair_bound, for the report to keep M: a row of the divisor-supported
# array holds only reach // M of them, and past that the sup measures
# truncation, not the tail.
_ROW_TERMS = 128


@dataclass
class LimitProbe:
    """One of the five limit kinds measured on the window.

    verdict is "exists" (trace tail diameter <= tolerance, value and
    residual filled in), "fails_to_settle" (tail diameter beyond 10x
    tolerance), or "inconclusive".
    """

    kind: str
    trace: np.ndarray
    verdict: str
    value: complex | None = None
    residual: float | None = None
    detail: dict = field(default_factory=dict)


@dataclass
class UniformityScan:
    """Sup of a Cauchy-block quantity per outer index, with a verdict.

    verdict "decays_below" means the sup trace is below the threshold
    from at_index onward; "stalls_above" means it never stays below, and
    floor records the smallest sup seen.
    """

    quantity: str
    outer_label: str
    outer_values: np.ndarray
    sup_trace: np.ndarray
    threshold: float
    verdict: str
    at_index: int | None
    floor: float | None
    window: dict


@dataclass
class TheoremCheck:
    """One interchange theorem checked hypothesis by hypothesis.

    asserted is True only when every hypothesis holds on the window;
    consistent compares the predicted equality against the measured
    probe values when both sides settled, else stays None.
    """

    theorem: str
    hypotheses: list
    conclusion: str
    asserted: bool
    observed: dict
    consistent: bool | None


@dataclass
class _SettleProfile:
    """Settling data for one sweep direction of the grid, and its largest settle index."""

    settled: np.ndarray
    half_diameter: np.ndarray
    estimate: np.ndarray
    length: int
    max_settle_index: int


def _extents(part: np.ndarray, axis: int):
    """Max and min of re, then max and min of im, of part along axis."""
    re, im = part.real, part.imag
    return re.max(axis), re.min(axis), im.max(axis), im.min(axis)


def _suffix_spans(part, tail_top, tail_bottom):
    """Span of part[i:, r] joined with column r's tail extents, for every i.

    One elementwise step per row of `part`: a running accumulate along
    axis 0 is several times slower at block height.
    """
    top, bottom = tail_top.copy(), tail_bottom.copy()
    spans = np.empty(part.shape)
    for i in range(len(part) - 1, -1, -1):
        np.maximum(top, part[i], out=top)
        np.minimum(bottom, part[i], out=bottom)
        np.subtract(top, bottom, out=spans[i])
    return spans


class _SettleBlocks:
    """Block extents of k traces of `length`, and the settle profile they give.

    The traces arrive a block of _BLOCK entries at a time, in any
    grouping (add); profile then finds the largest settle index without
    a running max/min over every entry.  Holds 32 B per trace per block.
    """

    def __init__(self, k: int, length: int):
        self.length = length
        blocks = -(-length // _BLOCK)
        # re top, re bottom, im top and im bottom at every block, one row
        # per block and the empty suffix last.
        self.extents = np.empty((4, blocks + 1, k))
        self.extents[0::2, blocks] = -np.inf
        self.extents[1::2, blocks] = np.inf

    def add(self, j: int, entries: np.ndarray) -> None:
        """Blocks j, j + 1, ... of every trace, entries[b, i, r] the i-th entry
        of block j + b of trace r: a stack of full blocks, or the ragged
        last one alone.  The stack holding entry length // 2 also gives
        the extents of the rest of that entry's block.
        """
        self.extents[:, j : j + len(entries)] = _extents(entries, 1)
        half = self.length // 2
        if j <= half // _BLOCK < j + len(entries):
            self.half = _extents(entries[half // _BLOCK - j, half % _BLOCK :], 0)

    def profile(self, last, tolerance: float, gather) -> _SettleProfile:
        """The settle profile; last holds each trace's last entry.

        diam(i), the box diameter of trace[i:], never grows with i (a NaN
        entry makes it NaN, too wide, up to there), so the block starts
        where some trace is too wide form a prefix, found from the suffix
        extents at each block start.  Every trace fits the tolerance from
        the first start past it on, so the largest settle index lies in
        the block `first` - 1, at a trace too wide at its start, one of
        `wide`.  The extents are freed before gather(first, wide) gives
        that block, one entry per row and one trace per column, at least
        through trace wide[-1]; exact diam is taken there only, from the
        block's entries and the suffix extents after it, _SETTLE_CHUNK
        traces at a time.  A trace fails at a prefix of the block, so the
        index is the block start plus the entries where some trace fails.
        The half-trace diameter likewise joins the rest of its block with
        the suffix extents after it.  Max and min are exact, so every
        span, and every hypot of two spans, is the float64 value a
        running max/min over all entries gives, and verdicts keep their
        bits at the tolerance boundary.
        """
        extents = self.extents
        del self.extents
        # Suffix extents at every block start, accumulated in place.
        for ext, extreme in zip(extents, (np.maximum, np.minimum) * 2):
            extreme.accumulate(ext[::-1], axis=0, out=ext[::-1])
        del ext
        re_top, re_bottom, im_top, im_bottom = extents
        blocks, k = re_top.shape[0] - 1, re_top.shape[1]

        def diam(j, at):
            return np.hypot(re_top[j, at] - re_bottom[j, at], im_top[j, at] - im_bottom[j, at])

        too_wide = np.zeros(blocks, dtype=bool)
        for lo in range(0, k, _SETTLE_CHUNK):
            part = slice(lo, lo + _SETTLE_CHUNK)
            too_wide |= ~np.all(diam(slice(blocks), part) <= tolerance, axis=1)
        first = int(np.count_nonzero(too_wide))
        # At start 0 no trace is too wide when first is 0.
        wide = np.flatnonzero(~(diam(max(first, 1) - 1, slice(None)) <= tolerance))
        tails = np.stack([ext[first, wide] for ext in extents])
        after = self.length // 2 // _BLOCK + 1
        re_max, re_min, im_max, im_min = self.half
        half_diam = np.hypot(
            np.maximum(re_top[after], re_max) - np.minimum(re_bottom[after], re_min),
            np.maximum(im_top[after], im_max) - np.minimum(im_bottom[after], im_min),
        )
        del extents, re_top, re_bottom, im_top, im_bottom, self.half

        failing = 0
        if first:
            block = gather(first, wide)
            # Both indices are arrays, so a gather is C-ordered, as its
            # float view needs.
            rows = np.arange(len(block))[:, None]
            for lo in range(0, len(wide), _SETTLE_CHUNK):
                part = slice(lo, lo + _SETTLE_CHUNK)
                # re and im side by side: the float view of the complex entries.
                seg = block[rows, wide[part]].view(np.float64)
                top, bottom = tails[0::2, part].T.ravel(), tails[1::2, part].T.ravel()
                spans = _suffix_spans(seg, top, bottom)
                fits = np.hypot(spans[:, 0::2], spans[:, 1::2]) <= tolerance
                failing = max(failing, int(np.count_nonzero(~np.all(fits, axis=1))))
        estimate = np.array(last, dtype=np.complex128)
        settle = max(first - 1, 0) * _BLOCK + failing
        return _SettleProfile(half_diam <= tolerance, half_diam, estimate, self.length, settle)


def _settle_profile(traces: np.ndarray, tolerance: float) -> _SettleProfile:
    """Settling analysis of many traces at once (rows of `traces`).

    The traces go through _SettleBlocks, the routine the columns of the
    probe walk take too: one add of the full blocks of every trace, a
    strided view, so a transposed `traces` is read in place, and one of
    the ragged last block.  The gather reads the block where the last
    trace settles off `traces` itself.
    """
    k, length = traces.shape
    full = length // _BLOCK
    blocks = _SettleBlocks(k, length)
    blocks.add(0, traces[:, : full * _BLOCK].reshape(k, full, _BLOCK).transpose(1, 2, 0))
    if full * _BLOCK < length:
        blocks.add(full, traces[:, full * _BLOCK :].T[None])
    return blocks.profile(
        traces[:, -1], tolerance,
        lambda first, wide: traces[:, (first - 1) * _BLOCK : first * _BLOCK].T,
    )


def _profile_detail(profile: _SettleProfile) -> dict:
    return {
        "settled": int(np.count_nonzero(profile.settled)),
        "total": int(len(profile.settled)),
        "max_settle_index": int(profile.max_settle_index),
        "trace_length": int(profile.length),
    }


def _probe(kind, trace, worst, tolerance, detail) -> LimitProbe:
    """Verdict from the worst diameter measured on a limit's trace."""
    if worst <= tolerance:
        return LimitProbe(kind, trace, "exists", complex(trace[-1]), worst, detail)
    verdict = "fails_to_settle" if worst > 10.0 * tolerance else "inconclusive"
    return LimitProbe(kind, trace, verdict, None, worst, detail)


def _probe_from_trace(kind, trace, tolerance, detail=None) -> LimitProbe:
    trace = np.asarray(trace, dtype=np.complex128)
    diam = _box_diameter(trace[len(trace) // 2 :])
    return _probe(kind, trace, diam, tolerance, {**(detail or {}), "tail_diameter": diam})


def _iterated_probe(kind, profile, tolerance) -> LimitProbe:
    est = profile.estimate[profile.settled]
    detail = _profile_detail(profile)
    if len(est) < 2:
        return LimitProbe(
            kind,
            est,
            "inconclusive",
            detail={**detail, "reason": "fewer than two settled partial limits"},
        )
    return _probe_from_trace(kind, est, tolerance, detail)


def _double_probe(trace, corners, corner_vals, tolerance) -> LimitProbe:
    spread = _box_diameter(corner_vals)
    tail_diam = _box_diameter(trace[len(trace) // 2 :])
    detail = {
        "corner_samples": [
            {"m": m, "n": n, "re": float(v.real), "im": float(v.imag)}
            for (m, n), v in zip(corners, corner_vals)
        ],
        "corner_spread": spread,
        "tail_diameter": tail_diam,
    }
    return _probe("double", trace, max(spread, tail_diam), tolerance, detail)


def _check_window(m_max: int, n_max: int) -> None:
    """Refuse a probe window before any of its rows is read."""
    if m_max < 1 or n_max < 1:
        raise InvalidBoundError(f"grid needs positive extents, got {m_max} x {n_max}")
    if (m_max + 1) * (n_max + 1) > MAX_GRID_CELLS:
        raise InvalidBoundError(
            f"grid of {m_max} x {n_max} cells exceeds the window limit; "
            f"use a window with (m_max + 1) * (n_max + 1) <= {MAX_GRID_CELLS}"
        )
    if m_max < 16 or n_max < 16:
        raise InsufficientWindowError(
            f"probe window {m_max} x {n_max} is below the 16 x 16 minimum"
        )


def _analyze(array: DoubleArray, m_max: int, n_max: int, tolerance: float):
    """The five probes and both settle profiles from one walk over the window's slabs.

    Each slab of _BLOCK rows is one block of every column, and holds its
    rows whole: it finishes its rows' settle profiles (_settle_profile),
    adds itself to the columns' _SettleBlocks, and gives up its cells on
    the diagonal trace and the corners.  The column profile then needs
    the entries of one block only, where the last column settles; its
    gather recomputes that block's slab alone, from the stored row above
    it and only up to the last column read.  So the walk holds a slab
    plus about 48 B per column per slab, and the second pass one slab
    and a chunk; every value has the bits a whole grid in memory gives.
    """
    # The double limit's samples: the diagonal through the window, then
    # the four corners (half/full window in each direction).
    steps = min(m_max, n_max)
    ks = np.arange(1, steps + 1)
    m_half, n_half = max(1, m_max // 2), max(1, n_max // 2)
    corners = [(m_max, n_max), (m_max, n_half), (m_half, n_max), (m_half, n_half)]
    sample_m = np.append(-((-ks * m_max) // steps), [m for m, _ in corners])
    sample_n = np.append(-((-ks * n_max) // steps), [n for _, n in corners])
    samples = np.empty(len(sample_m), dtype=np.complex128)

    columns = _SettleBlocks(n_max, m_max)
    above = np.zeros((-(-m_max // _BLOCK), n_max + 1), dtype=np.complex128)
    row_profiles = []
    for j, (lo, sums) in enumerate(slabs(array, m_max, n_max)):
        body = sums[:, 1:]
        row_profiles.append(_settle_profile(body, tolerance))
        columns.add(j, body[None])
        if j + 1 < len(above):
            above[j + 1] = sums[-1]
        here = (sample_m >= lo) & (sample_m < lo + len(sums))
        samples[here] = sums[sample_m[here] - lo, sample_n[here]]
    last_row = body[-1].copy()
    # The slab buffer goes before the gather computes its slab.
    del sums, body

    def gather(first, wide):
        # Columns up to the last one read: a cell needs none after it.
        lo = (first - 1) * _BLOCK + 1
        return slab(array, lo, m_max, above[first - 1, : wide[-1] + 2])[:, 1:]

    col_profile = columns.profile(last_row, tolerance, gather)
    row_profile = _SettleProfile(
        *(np.concatenate([getattr(p, name) for p in row_profiles])
          for name in ("settled", "half_diameter", "estimate")),
        n_max,
        max(p.max_settle_index for p in row_profiles),
    )
    # A profile's estimates are its traces' last entries: the last row
    # for the columns, the last column for the rows.
    probes = {
        "first_partial": _probe_from_trace(
            "first_partial", row_profile.estimate, tolerance, _profile_detail(col_profile)
        ),
        "second_partial": _probe_from_trace(
            "second_partial", col_profile.estimate, tolerance, _profile_detail(row_profile)
        ),
        "first_iterated": _iterated_probe("first_iterated", col_profile, tolerance),
        "second_iterated": _iterated_probe("second_iterated", row_profile, tolerance),
        "double": _double_probe(samples[:steps], corners, samples[steps:], tolerance),
    }
    return probes, row_profile, col_profile


def _scan_verdict(quantity, outer_label, outer_values, sups, threshold, window):
    threshold = float(threshold)
    sups = np.asarray(sups, dtype=np.float64)
    outer_values = np.asarray(outer_values, dtype=np.int64)
    below = sups < threshold
    if below[-1]:
        above = np.flatnonzero(~below)
        at = int(above[-1]) + 1 if len(above) else 0
        return UniformityScan(
            quantity, outer_label, outer_values, sups, threshold,
            "decays_below", at, None, window,
        )
    return UniformityScan(
        quantity, outer_label, outer_values, sups, threshold,
        "stalls_above", None, float(sups.min()), window,
    )


def _check_outer_list(values, name):
    if not values:
        raise InvalidBoundError(f"{name} must not be empty")
    arr = [int(v) for v in values]
    if any(v < 1 for v in arr):
        raise InvalidBoundError(f"{name} entries must be >= 1, got {arr}")
    if sorted(arr) != arr:
        raise InvalidBoundError(f"{name} must be sorted ascending, got {arr}")
    return arr


def _needed_sup(array: DoubleArray, m_start: int, block: int, n_reach: int) -> float:
    # Rows past the reach hold no tail entries, so higher blocks repeat
    # the sums of the block that ends at the reach.
    q_max = min(block, n_reach - m_start)
    m_end = m_start + q_max
    entries = array.pair_bound(m_start, m_end, n_reach, m_start)
    if entries > MAX_GRID_CELLS:
        raise InvalidBoundError(
            f"block tail of rows {m_start}..{m_end} over n = {m_start}..{n_reach} "
            f"holds up to {entries} terms, above the limit of {MAX_GRID_CELLS}; "
            "use a smaller reach or block"
        )
    # Equal-width windows over n >= m_start (no row enters its tail
    # earlier), each holding about _SCAN_CELLS // (q_max + 1) pairs.
    cells = entries * (q_max + 1)
    windows = max(1, -(-cells // _SCAN_CELLS))
    width = -(-(n_reach - m_start + 1) // windows)
    heights = np.arange(q_max + 1)[:, None]
    carry = np.zeros(q_max + 1, dtype=np.complex128)
    best = 0.0
    for n_lo in range(m_start, n_reach + 1, width):
        m_col, n_col, vals = array.pairs(
            m_start, m_end, min(n_lo + width - 1, n_reach), n_lo
        )
        if not len(n_col):
            continue
        order = np.argsort(n_col, kind="stable")
        m_s = m_col[order]
        n_s = n_col[order]
        # Row m enters the block tail at n = m; entries before that join
        # no block.  Row q of run is the running sum of blocks M..M+q.
        rank = np.where(n_s >= m_s, m_s - m_start, q_max + 1)
        run = np.where(rank <= heights, vals[order], 0)
        run[:, 0] += carry
        np.cumsum(run, axis=1, out=run)
        # Partial sums are only observable at a completed n, so only the
        # last entry of each tied-n group counts toward the sup.
        size = np.abs(run)
        size[:, :-1][:, n_s[1:] == n_s[:-1]] = 0.0
        best = max(best, float(size.max()))
        carry = run[:, -1].copy()
        # Freed here, or they would stay alive while the next window is built.
        del run, size
    return best


def needed_uniformity_scan(
    array: DoubleArray,
    m_list,
    block: int = 8,
    n_reach: int | None = None,
    threshold: float = 1e-2,
) -> UniformityScan:
    """Block-tail criterion: the uniformity the interchange really needs.

    For each M in m_list, the supremum over block heights q <= block and
    over N <= n_reach of |sum_{m=M}^{M+q} sum_{n=m}^{N} a(m, n)|.  Rows
    enter the inner sum at n = m, matching the triangular tail whose
    uniform smallness in M is the missing step this scan makes visible.
    n_reach defaults to array.reach.  An n_reach below the largest M
    raises InvalidBoundError: rows past the reach hold no terms, so
    their sup of 0 would certify nothing.

    Each M is one pass over n = M..n_reach in windows of array.pairs,
    sized by array.pair_bound so that a window's (block height x pair)
    running sums and their temporaries, 25 B per cell, hold about 3 MiB
    at once.  All block heights advance together and carry their sums
    across windows, so memory stays flat in n_reach and every sup is bit
    for bit that of one sorted cumulative sum per height over the whole
    reach.  A window is at least one column, which may hold a pair for
    every height, so a block whose heights squared exceed a window's
    cells (block >= 357 at the smallest M) raises InvalidBoundError
    before any M is scanned; a window then stays within about twice its
    cells.  A block tail whose pair_bound exceeds MAX_GRID_CELLS raises
    InvalidBoundError before its arrays are allocated.
    """
    m_list = _check_outer_list(m_list, "m_list")
    if block < 0:
        raise InvalidBoundError(f"block length must be >= 0, got {block}")
    if n_reach is None:
        n_reach = array.reach
    if n_reach < m_list[-1]:
        raise InvalidBoundError(
            f"n_reach {n_reach} is below the largest M {m_list[-1]}; "
            "the block tails there would be empty"
        )
    # The smallest M has the most block heights.
    heights = min(block, n_reach - m_list[0]) + 1
    if heights**2 > _SCAN_CELLS:
        raise InvalidBoundError(
            f"{heights} block heights x one column of up to {heights} terms exceed "
            f"the {_SCAN_CELLS} cells of one scan window; "
            f"use a block of at most {isqrt(_SCAN_CELLS) - 1}"
        )
    sups = [_needed_sup(array, m, block, n_reach) for m in m_list]
    window = {"block": block, "n_reach": int(n_reach)}
    return _scan_verdict(NEEDED_CRITERION, "M", m_list, sups, threshold, window)


def _verified_sup(array: DoubleArray, n_start: int, block: int, m_reach: int) -> float:
    entries = array.rectangle(1, m_reach, n_start + block, n_start)
    return float(np.max(np.abs(np.cumsum(entries, axis=1))))


def lee_verified_scan(
    array: DoubleArray,
    n_list,
    block: int = 8,
    m_reach: int = 4096,
    threshold: float = 1e-2,
) -> UniformityScan:
    """Row-tail criterion: the uniformity that was actually checked.

    For each N in n_list, the supremum over rows m <= m_reach and block
    widths q <= block of |sum_{n=N}^{N+q} a(m, n)|.  For the divisor-
    supported array this decays like the alternating-series remainder
    N**(-re(s)) regardless of where s sits, which is why passing this
    scan certifies nothing about the block-tail criterion above.
    """
    n_list = _check_outer_list(n_list, "n_list")
    if block < 0:
        raise InvalidBoundError(f"block length must be >= 0, got {block}")
    if m_reach < 1:
        raise InvalidBoundError(f"m_reach must be >= 1, got {m_reach}")
    if m_reach * (block + 1) > MAX_GRID_CELLS:
        raise InvalidBoundError(
            f"row-tail block of {m_reach} x {block + 1} terms exceeds the dense limit"
        )
    sups = [_verified_sup(array, n, block, m_reach) for n in n_list]
    window = {"block": block, "m_reach": int(m_reach)}
    return _scan_verdict(VERIFIED_CRITERION, "N", n_list, sups, threshold, window)


def _uniform_status(profile: _SettleProfile):
    """Empirical exists-uniformly: settled everywhere, away from the edge."""
    evidence = _profile_detail(profile)
    if bool(np.all(profile.settled)):
        cap = int(_UNIFORM_EDGE_FRACTION * profile.length)
        if evidence["max_settle_index"] <= cap:
            return "holds", evidence
        evidence["reason"] = "settle indices drift into the window edge"
        return "inconclusive", evidence
    evidence["reason"] = "unsettled indices remain on the window"
    return "fails", evidence


def _pointwise_status(profile: _SettleProfile, tolerance: float):
    evidence = _profile_detail(profile)
    if bool(np.all(profile.settled)):
        return "holds", evidence
    worst = float(profile.half_diameter[~profile.settled].max())
    evidence["worst_unsettled_diameter"] = worst
    if worst > 10.0 * tolerance:
        return "fails", evidence
    return "inconclusive", evidence


def _probe_status(probe: LimitProbe):
    status = {
        "exists": "holds",
        "fails_to_settle": "fails",
        "inconclusive": "inconclusive",
    }[probe.verdict]
    evidence = {"verdict": probe.verdict, "residual": probe.residual}
    if probe.value is not None:
        evidence["value"] = probe.value
    return status, evidence


# theorem -> (hypotheses, conclusion, limits whose values it equates).
# Each check is named by what it claims:
#
# * uniform_rows_give_double: row limits settling uniformly plus a
#   settled second iterated limit would force the double limit.
# * uniform_rows_transfer_double_to_iterated: the converse transfer
#   from a settled double limit to the second iterated limit.
# * two_sided_uniform_limits_equate_iterated: both partial-limit
#   families settling uniformly lets the two iterated limits agree.
# * moore_symmetric_limits: pointwise row limits plus uniformly
#   settling column limits force all three limits to exist and agree.
THEOREMS = {
    "uniform_rows_give_double": (
        ("row_limits_settle_uniformly", "second_iterated_limit_settles"),
        "double limit exists and equals the second iterated limit",
        ("double", "second_iterated"),
    ),
    "uniform_rows_transfer_double_to_iterated": (
        ("row_limits_settle_uniformly", "double_limit_settles"),
        "second iterated limit exists and equals the double limit",
        ("double", "second_iterated"),
    ),
    "two_sided_uniform_limits_equate_iterated": (
        (
            "second_iterated_limit_settles",
            "row_limits_settle_uniformly",
            "column_limits_settle_uniformly",
        ),
        "first iterated limit exists and equals the second",
        ("first_iterated", "second_iterated"),
    ),
    "moore_symmetric_limits": (
        ("row_limits_settle_pointwise", "column_limits_settle_uniformly"),
        "double and both iterated limits exist and coincide",
        ("double", "first_iterated", "second_iterated"),
    ),
}


def probe_window(array: DoubleArray, m_max: int, n_max: int, tolerance: float = 1e-6):
    """The five limit probes, keyed by kind, and the theorem checks, from one walk.

    The window is rows 1..m_max x columns 1..n_max.  An extent below 1,
    or more than MAX_GRID_CELLS cells counting row and column 0, raises
    InvalidBoundError, and an extent below 16 InsufficientWindowError,
    before any row is read.

    Iterated probes are built from the settled partial limits only; the
    count of settled indices rides along in the probe detail so a thin
    settled subset is visible in the report.  There is one check per
    row of THEOREMS, and a conclusion is asserted only when every
    hypothesis holds on the window.  Everything is window-relative: a
    hypothesis can hold here and fail in the large, which is precisely
    the failure mode these reports are built to expose, so the window
    always travels with the verdicts.
    """
    _check_window(m_max, n_max)
    probes, row_profile, col_profile = _analyze(array, m_max, n_max, tolerance)
    statuses = {
        "row_limits_settle_uniformly": _uniform_status(row_profile),
        "column_limits_settle_uniformly": _uniform_status(col_profile),
        "row_limits_settle_pointwise": _pointwise_status(row_profile, tolerance),
        "second_iterated_limit_settles": _probe_status(probes["second_iterated"]),
        "double_limit_settles": _probe_status(probes["double"]),
    }
    checks = []
    for theorem, (names, conclusion, compared) in THEOREMS.items():
        hypotheses = [
            {"name": name, "status": statuses[name][0], "evidence": statuses[name][1]}
            for name in names
        ]
        asserted = all(h["status"] == "holds" for h in hypotheses)
        observed = {kind: probes[kind].value for kind in compared}
        settled = [v for v in observed.values() if v is not None]
        gaps = [abs(a - b) for a, b in combinations(settled, 2)]
        consistent = max(gaps) <= 10.0 * tolerance if asserted and gaps else None
        checks.append(
            TheoremCheck(theorem, hypotheses, conclusion, asserted, observed, consistent)
        )
    return probes, checks


def _default_outer(limit: int, block: int):
    values = [v for v in (16, 64, 256, 1024, 4096, 16384, 65536, 262144, 10**6)
              if v + block <= limit]
    return values or [max(1, limit - block)]


def diagnostics_report(
    array: DoubleArray,
    m_max: int,
    n_max: int,
    tolerance: float = 1e-6,
    block: int = 8,
    scan_reach: int | None = None,
    threshold: float = 1e-2,
) -> dict:
    """Probes, both scans, and the classification as one dict of Python values.

    scan_reach defaults to array.reach.  The window is checked first
    and the scans run before the probes, so a refused window, or a
    refused first block tail, reads no row.
    """
    _check_window(m_max, n_max)
    if scan_reach is None:
        scan_reach = array.reach
    outer = _default_outer(scan_reach, block)
    needed_outer = [
        m for m in outer if array.pair_bound(m, m, scan_reach) >= _ROW_TERMS
    ] or outer
    needed = needed_uniformity_scan(array, needed_outer, block, scan_reach, threshold)
    verified = lee_verified_scan(
        array, outer, block, min(m_max, 4096), threshold
    )
    probes, checks = probe_window(array, m_max, n_max, tolerance)

    return {
        "array": array.label,
        "s": array.s,
        "window": {"m_max": m_max, "n_max": n_max, "tolerance": float(tolerance)},
        "probes": [
            {
                "kind": p.kind,
                "verdict": p.verdict,
                "value": p.value,
                "residual": p.residual,
                "trace_length": len(p.trace),
                "detail": p.detail,
            }
            for p in (probes[kind] for kind in PROBE_KINDS)
        ],
        "scans": [asdict(needed), asdict(verified)],
        "classification": [asdict(c) for c in checks],
    }
