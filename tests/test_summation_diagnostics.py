"""Limit probes, uniformity scans, and the interchange-theorem classifier."""

import functools
import json

import numpy as np
import pytest

from zdl import (
    CesaroArray,
    LeeArray,
    SyntheticArray,
    diagnostics_report,
    lee_verified_scan,
    needed_uniformity_scan,
    probe_window,
    sieve,
    slabs,
)
from zdl import double_array, summation_diagnostics
from zdl.cli import _jsonable
from zdl.double_array import MAX_GRID_CELLS
from zdl.errors import InsufficientWindowError, InvalidBoundError
from zdl.summation_diagnostics import PROBE_KINDS

from oracles import (
    LEE_COMMON_VALUE_AT_2,
    analyze_reference,
    cesaro_term,
    dense_grid_reference,
    lee_term_brute,
    needed_sup_brute,
    negated_cesaro,
    ratio_term,
    settle_profile_reference,
    slab_cell,
    verified_sup_brute,
)


@pytest.fixture(scope="module")
def ratio_window():
    return SyntheticArray("interchange_ratio"), 512, 512


@pytest.fixture(scope="module")
def lee_window_s2():
    return LeeArray(2.0 + 0j), 512, 4096


def test_ratio_probes_separate_the_limits(ratio_window):
    probes, _ = probe_window(*ratio_window, tolerance=0.02)
    first = probes["first_iterated"]
    second = probes["second_iterated"]
    assert first.verdict == "exists"
    assert abs(first.value - 1.0) <= 0.06
    assert second.verdict == "exists"
    assert abs(second.value) <= 0.06
    assert probes["double"].verdict == "fails_to_settle"
    assert probes["double"].value is None


def test_ratio_classifier_withholds_every_conclusion(ratio_window):
    _, checks = probe_window(*ratio_window, tolerance=0.02)
    assert len(checks) == 4
    assert all(not c.asserted for c in checks)
    moore = next(c for c in checks if c.theorem == "moore_symmetric_limits")
    columns = next(
        h for h in moore.hypotheses if h["name"] == "column_limits_settle_uniformly"
    )
    assert columns["status"] == "fails"


def test_lee_window_asserts_all_four(lee_window_s2):
    tol = 1e-3
    probes, checks = probe_window(*lee_window_s2, tolerance=tol)
    assert set(probes) == set(PROBE_KINDS)
    values = []
    for probe in probes.values():
        assert probe.verdict == "exists"
        assert probe.residual <= tol
        values.append(probe.value)
    spread = max(abs(a - b) for a in values for b in values)
    assert spread <= 1e-9
    assert abs(values[0] - LEE_COMMON_VALUE_AT_2) <= 1e-4

    for check in checks:
        assert check.asserted
        assert check.consistent


def test_exists_always_carries_value_and_residual(ratio_window, lee_window_s2):
    for window, tol in ((ratio_window, 0.02), (lee_window_s2, 1e-3)):
        for probe in probe_window(*window, tolerance=tol)[0].values():
            if probe.verdict == "exists":
                assert probe.value is not None
                assert probe.residual <= tol
            else:
                assert probe.value is None


def test_cesaro_window_asserts_row_side_only():
    checks = {c.theorem: c for c in probe_window(CesaroArray(), 512, 128)[1]}
    assert checks["uniform_rows_give_double"].asserted
    assert checks["uniform_rows_transfer_double_to_iterated"].asserted
    assert not checks["two_sided_uniform_limits_equate_iterated"].asserted
    assert not checks["moore_symmetric_limits"].asserted
    for name in ("two_sided_uniform_limits_equate_iterated", "moore_symmetric_limits"):
        columns = next(
            h
            for h in checks[name].hypotheses
            if h["name"] == "column_limits_settle_uniformly"
        )
        assert columns["status"] == "fails"


@pytest.mark.parametrize(
    "window, error, message",
    [
        ((0, 5), InvalidBoundError, "grid needs positive extents, got 0 x 5"),
        ((16, 0), InvalidBoundError, "grid needs positive extents, got 16 x 0"),
        # An extent below 1 is refused before the cell count.
        ((0, 1 << 30), InvalidBoundError, "grid needs positive extents, got 0 x 1073741824"),
        ((1 << 14, 1 << 13), InvalidBoundError,
         "grid of 16384 x 8192 cells exceeds the window limit; "
         f"use a window with (m_max + 1) * (n_max + 1) <= {MAX_GRID_CELLS}"),
        # The cell count is refused before the 16 x 16 minimum.
        ((8, 1 << 23), InvalidBoundError,
         "grid of 8 x 8388608 cells exceeds the window limit; "
         f"use a window with (m_max + 1) * (n_max + 1) <= {MAX_GRID_CELLS}"),
        ((8, 16), InsufficientWindowError, "probe window 8 x 16 is below the 16 x 16 minimum"),
        ((16, 8), InsufficientWindowError, "probe window 16 x 8 is below the 16 x 16 minimum"),
    ],
)
def test_refused_windows_read_no_row(no_sieve, window, error, message):
    # The report refuses the window before its scans read a row.
    array = LeeArray(2.0)
    for probe in (probe_window, diagnostics_report):
        with pytest.raises(error) as refusal:
            probe(array, *window)
        assert str(refusal.value) == message
    assert no_sieve == []


def test_zero_array_probes_and_scans():
    zeros = SyntheticArray("zeros")
    for probe in probe_window(zeros, 64, 64)[0].values():
        assert probe.verdict == "exists"
        assert probe.value == 0
        assert probe.residual == 0.0
    needed = needed_uniformity_scan(zeros, (4, 16), block=4, n_reach=256)
    assert needed.verdict == "decays_below"
    assert needed.at_index == 0
    assert all(v == 0.0 for v in needed.sup_trace)
    verified = lee_verified_scan(zeros, (4, 16), block=4, m_reach=64)
    assert verified.verdict == "decays_below"
    assert all(v == 0.0 for v in verified.sup_trace)


def test_needed_scan_monotone_in_reach():
    lee = LeeArray(2.0 + 0j)
    m_list = (4, 16, 64)
    near = needed_uniformity_scan(lee, m_list, block=8, n_reach=512)
    far = needed_uniformity_scan(lee, m_list, block=8, n_reach=2000)
    assert np.all(far.sup_trace >= near.sup_trace)


def test_needed_scan_decays_where_convergence_is_absolute():
    lee = LeeArray(2.0 + 0j)
    scan = needed_uniformity_scan(
        lee, (10, 100, 1000), block=8, n_reach=100_000, threshold=1e-3
    )
    assert scan.verdict == "decays_below"
    assert scan.sup_trace[0] > 1e-3
    assert scan.sup_trace[-1] < 1e-3
    assert scan.floor is None


def test_verified_scan_decays_for_the_divisor_array():
    lee = LeeArray(2.0 + 0j)
    scan = lee_verified_scan(lee, (16, 256, 1024), block=8, m_reach=256)
    assert scan.verdict == "decays_below"
    assert scan.window == {"block": 8, "m_reach": 256}


@pytest.mark.parametrize("name", ["lee", "cesaro", "interchange_ratio"])
def test_scans_match_brute_oracles(name):
    if name == "lee":
        array = LeeArray(0.6 + 3.0j)
        brute = functools.partial(lee_term_brute, 0.6 + 3.0j)
    elif name == "cesaro":
        array, brute = CesaroArray(), cesaro_term
    else:
        array, brute = SyntheticArray(name), ratio_term
    needed = needed_uniformity_scan(array, (1, 5, 16), block=4, n_reach=200)
    for m, sup in zip(needed.outer_values, needed.sup_trace):
        expected = needed_sup_brute(brute, int(m), 4, 200)
        assert expected > 0
        assert abs(sup - expected) <= 1e-12 * expected
    verified = lee_verified_scan(array, (1, 7, 30), block=4, m_reach=50)
    for n, sup in zip(verified.outer_values, verified.sup_trace):
        expected = verified_sup_brute(brute, int(n), 4, 50)
        assert expected > 0
        assert abs(sup - expected) <= 1e-12 * expected


def test_needed_scan_tall_blocks_match_brute():
    # block 300 runs past the reach at M = 1800; the rows that exist set the sup.
    s = 0.6 + 3.0j
    needed = needed_uniformity_scan(LeeArray(s), (1, 1800), block=300, n_reach=2000)
    for m, sup in zip(needed.outer_values, needed.sup_trace):
        expected = needed_sup_brute(functools.partial(lee_term_brute, s), int(m), 300, 2000)
        assert expected > 0
        assert abs(sup - expected) <= 1e-12 * expected


@pytest.mark.parametrize("name", ["lee_zero", "lee_s2", "cesaro"])
def test_needed_scan_is_bitwise_window_invariant(name, first_zero, monkeypatch):
    if name == "cesaro":
        array, reach = CesaroArray(), 4096
    else:
        s = first_zero.s if name == "lee_zero" else 2.0
        array, reach = LeeArray(s), 3000
    m_list = (1, 16, 256)
    default = needed_uniformity_scan(array, m_list, block=8, n_reach=reach)
    windows = []
    pairs = array.pairs
    monkeypatch.setattr(array, "pairs", lambda *a: windows.append(a) or pairs(*a))
    # One column of the 9 block heights per window, the fewest cells the
    # scan takes, so every sup is reached through a carry.
    monkeypatch.setattr(summation_diagnostics, "_SCAN_CELLS", 81)
    small = needed_uniformity_scan(array, m_list, block=8, n_reach=reach)
    assert len(windows) > 100 * len(m_list)
    assert small.sup_trace.tobytes() == default.sup_trace.tobytes()


def test_needed_scan_refuses_oversized_tails_and_windows(monkeypatch):
    monkeypatch.setattr(summation_diagnostics, "MAX_GRID_CELLS", 20_000)
    # 9 rows x 2500 columns of a dense block tail.
    with pytest.raises(InvalidBoundError, match="block tail"):
        needed_uniformity_scan(CesaroArray(), (1,), block=8, n_reach=2500)
    # One column may hold a pair for each of 2000 block heights, more
    # cells than one scan window, though the tail's 1.6e4 hits pass.
    with pytest.raises(InvalidBoundError, match="one scan window"):
        needed_uniformity_scan(LeeArray(2.0), (1,), block=2000, n_reach=2000)


def test_needed_scan_refuses_blocks_past_one_scan_window(no_sieve):
    # 357 heights squared fit the 127875 cells of a window, 358 do not;
    # the heights are set by the smallest M and the reach, not the block.
    cesaro, lee = CesaroArray(), LeeArray(2.0)
    assert needed_uniformity_scan(cesaro, (1,), block=356, n_reach=400).sup_trace[0] > 0
    assert needed_uniformity_scan(cesaro, (1, 300), block=357, n_reach=357).sup_trace[0] > 0
    for array in (cesaro, lee):
        with pytest.raises(InvalidBoundError, match="use a block of at most 356"):
            needed_uniformity_scan(array, (1, 300), block=357, n_reach=400)
    assert no_sieve == []


def test_needed_scan_memory_is_flat_in_reach(traced_peak):
    lee = LeeArray(0.5 + 14.134725141734695j)
    _, peak = traced_peak(needed_uniformity_scan, lee, (16, 256), 8, 4_000_000)
    # Windows of 127,875 cells peak at 3.8 MiB; they peaked at 5.6 MiB
    # while a window's sums stayed alive as the next was built, and
    # windows of 2**19 cells at 20.9 MiB.
    assert peak <= 10 * 2**20, f"block-tail scan peaked at {peak / 2**20:.1f} MiB"


def test_scan_input_guards(no_sieve, monkeypatch):
    lee = LeeArray(2.0 + 0j)
    with pytest.raises(InvalidBoundError):
        needed_uniformity_scan(lee, (), block=8, n_reach=512)
    with pytest.raises(InvalidBoundError):
        needed_uniformity_scan(lee, (64, 16), block=8, n_reach=512)
    for reach in (63, 0, -5):  # rows past the reach would read sup 0
        with pytest.raises(InvalidBoundError):
            needed_uniformity_scan(lee, (16, 64), block=8, n_reach=reach)
    # A row above MAX_GRID_CELLS is refused before any sieve.
    row = MAX_GRID_CELLS + 1
    with pytest.raises(InvalidBoundError, match="row m = "):
        needed_uniformity_scan(lee, (row,), block=0, n_reach=row)
    with pytest.raises(InvalidBoundError):
        lee_verified_scan(lee, (16,), block=1 << 14, m_reach=1 << 13)
    assert no_sieve == []
    # The sieve follows the rows read, not the columns.
    monkeypatch.setattr(double_array, "sieve", sieve)
    assert lee_verified_scan(lee, (1999,), block=8, m_reach=64).sup_trace[0] > 0


def test_diagnostics_report_shape():
    report = diagnostics_report(
        SyntheticArray("zeros"), 32, 32, scan_reach=64, block=4
    )
    assert report["array"] == "zeros"
    assert report["s"] is None
    assert report["window"]["m_max"] == 32
    kinds = [p["kind"] for p in report["probes"]]
    assert kinds == list(PROBE_KINDS)
    quantities = [s["quantity"] for s in report["scans"]]
    assert quantities == ["needed_criterion", "lee_verified_criterion"]
    theorems = {c["theorem"] for c in report["classification"]}
    assert len(theorems) == 4


def test_report_at_zero_keeps_needed_scan_honest(first_zero):
    # The needed-criterion sup over blocks starting at m is only meaningful
    # while m stays far below the reach: past that, each row holds a handful
    # of terms and the sup shrinks for lack of data, not because the tails
    # became uniform. The report must trim those block starts rather than
    # report a spurious decay at a zero.
    report = diagnostics_report(
        LeeArray(first_zero.s), 512, 4096, tolerance=1e-3
    )
    needed, verified = report["scans"]
    assert needed["quantity"] == "needed_criterion"
    assert needed["verdict"] == "stalls_above"
    assert needed["floor"] > 1e-2
    assert max(needed["outer_values"]) * 128 <= 10**6
    assert verified["verdict"] == "decays_below"
    assert max(verified["outer_values"]) > max(needed["outer_values"])


@pytest.mark.parametrize(
    "array, reach, kept",
    [
        # reach // M terms per row: 128 at M = 256, 32 at M = 1024
        (LeeArray(2.0), 32768, [16, 64, 256]),
        (CesaroArray(), 32768, [16, 64, 256, 1024, 4096, 16384]),
        # rows of 100 terms: no start keeps 128, so all are kept
        (LeeArray(2.0), 100, [16, 64]),
        (CesaroArray(), 100, [16, 64]),
    ],
    ids=["lee", "cesaro", "lee_short", "cesaro_short"],
)
def test_report_keeps_block_starts_whose_rows_hold_128_terms(array, reach, kept):
    report = diagnostics_report(array, 16, 16, scan_reach=reach)
    needed, verified = report["scans"]
    assert needed["outer_values"].tolist() == kept
    assert verified["outer_values"].tolist() == summation_diagnostics._default_outer(reach, 8)


def test_probe_detail_reports_settling(ratio_window):
    probes, _ = probe_window(*ratio_window, tolerance=0.02)
    detail = probes["first_iterated"].detail
    assert detail["total"] == 512
    assert 0 < detail["settled"] <= detail["total"]
    assert detail["max_settle_index"] >= 0


def _assert_same_profile(got, want, *context):
    assert (got.length, got.max_settle_index) == (want.length, want.max_settle_index), context
    assert type(got.max_settle_index) is int
    for name in ("settled", "half_diameter", "estimate"):
        g, w = getattr(got, name), getattr(want, name)
        assert (g.dtype, g.shape) == (w.dtype, w.shape), name
        assert g.tobytes() == w.tobytes(), (name, *context)


def _assert_profiles_bitwise_equal(traces, tolerance):
    got = summation_diagnostics._settle_profile(traces, tolerance)
    want = settle_profile_reference(traces, tolerance)[0]
    _assert_same_profile(got, want, tolerance, traces.shape)
    return got


def _boundary_tolerances(traces, r, i):
    """0, and the diameter of traces[r, i:] with its float neighbours,
    which put the tolerance exactly on, just above and just below a
    boundary."""
    re, im = traces.real[r, i:], traces.imag[r, i:]
    diam = float(np.hypot(re.max() - re.min(), im.max() - im.min()))
    if not np.isfinite(diam):
        return [0.0]
    return [0.0, diam, np.nextafter(diam, np.inf), np.nextafter(diam, -np.inf)]


def _random_traces(rng, k, length):
    """Seeded partial-sum walks: decaying steps, some rounded to create
    ties and flat tails, some with NaN entries, and some read through a
    transposed or offset view rather than a contiguous array."""
    transposed = rng.random() < 0.3
    shape = (length, k + 1) if transposed else (k + 1, length + 3)
    axis = 0 if transposed else 1
    decay = rng.uniform(0.9, 1.0) ** np.arange(shape[axis])
    steps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    steps *= decay[:, None] if transposed else decay
    if rng.random() < 0.5:
        steps = np.round(steps * 8) / 8
    if rng.random() < 0.2:
        steps[rng.random(shape) < 0.6] = 0
    walk = np.cumsum(steps, axis=axis)
    if rng.random() < 0.15:
        walk.real[rng.random(shape) < 0.002] = np.nan
        walk.imag[rng.random(shape) < 0.002] = np.nan
    return walk.T[1:] if transposed else walk[1:, 2:-1]


@pytest.mark.parametrize("seed", range(4))
def test_settle_profile_matches_running_extents_bitwise(seed):
    rng = np.random.default_rng(seed)
    for _ in range(250):
        k, length = int(rng.integers(1, 41)), int(rng.integers(1, 701))
        traces = _random_traces(rng, k, length)
        assert traces.shape == (k, length)
        r, i = int(rng.integers(k)), int(rng.integers(length))
        for tolerance in _boundary_tolerances(traces, r, i):
            _assert_profiles_bitwise_equal(traces, tolerance)


def test_settle_profile_when_every_trace_settles_at_block_zero():
    # More traces than a chunk, so the block starts are taken in two.
    rng = np.random.default_rng(5)
    traces = _random_traces(rng, summation_diagnostics._SETTLE_CHUNK + 44, 300)
    traces = traces[np.isfinite(traces).all(axis=1)]
    assert len(traces) > summation_diagnostics._SETTLE_CHUNK
    widest = max(
        float(np.hypot(np.ptp(trace.real), np.ptp(trace.imag))) for trace in traces
    )
    assert _assert_profiles_bitwise_equal(traces, widest).max_settle_index == 0
    # Just below it, the widest trace settles past 0.
    assert _assert_profiles_bitwise_equal(traces, np.nextafter(widest, 0)).max_settle_index > 0


@pytest.mark.parametrize("length", [1, 2, 37, 63])
def test_settle_profile_of_traces_shorter_than_one_block(length):
    rng = np.random.default_rng(length)
    for _ in range(40):
        traces = _random_traces(rng, int(rng.integers(1, 41)), length)
        r, i = int(rng.integers(len(traces))), int(rng.integers(length))
        for tolerance in _boundary_tolerances(traces, r, i):
            _assert_profiles_bitwise_equal(traces, tolerance)


def _profile_by_stacks(traces, tolerance, cuts):
    """The settle profile of traces fed to _SettleBlocks as one stack of
    full blocks from each cut to the next, then the ragged block alone."""
    k, length = traces.shape
    width = summation_diagnostics._BLOCK
    blocks = summation_diagnostics._SettleBlocks(k, length)
    for lo, hi in zip(cuts, cuts[1:]):
        part = traces[:, lo * width : hi * width].reshape(k, hi - lo, width)
        blocks.add(lo, np.ascontiguousarray(part.transpose(1, 2, 0)))
    full = length // width
    if full * width < length:
        blocks.add(full, traces[:, full * width :].T[None])
    return blocks.profile(
        traces[:, -1], tolerance,
        lambda first, wide: traces[:, (first - 1) * width : first * width].T,
    )


@pytest.mark.parametrize("length", [37, 64, 100, 128, 130, 320, 333, 700])
def test_settle_blocks_are_the_same_in_any_grouping(length):
    # The half entry lies in the ragged block at 37, in the one full
    # block at 64 and 100, and otherwise in a later block of the whole
    # stack, and first in a stack when the stacks are cut at its block.
    width = summation_diagnostics._BLOCK
    full, half_block = length // width, length // 2 // width
    groupings = {
        "each": list(range(full + 1)),
        "split": sorted({0, half_block, full}),
    }
    rng = np.random.default_rng(length)
    for _ in range(20):
        traces = _random_traces(rng, int(rng.integers(1, 41)), length)
        r, i = int(rng.integers(len(traces))), int(rng.integers(length))
        for tolerance in _boundary_tolerances(traces, r, i):
            whole = _profile_by_stacks(traces, tolerance, [0, full])
            _assert_same_profile(summation_diagnostics._settle_profile(traces, tolerance), whole)
            for name, cuts in groupings.items():
                _assert_same_profile(
                    _profile_by_stacks(traces, tolerance, cuts), whole, name, tolerance
                )


REPORT_GRIDS = ["lee_zero", "lee_s2", "cesaro", "zeros", "interchange_ratio"]


@pytest.fixture(scope="module", params=REPORT_GRIDS)
def report_grid(request, first_zero):
    """(array, m_max, n_max, dense sums) of a window the reports run on."""
    name = request.param
    if name == "lee_zero":
        array = LeeArray(first_zero.s)
    elif name == "lee_s2":
        array = LeeArray(2.0 + 0j)
    elif name == "cesaro":
        array = CesaroArray()
    else:
        array = SyntheticArray(name)
    m_max, n_max = (1024, 1024) if name == "interchange_ratio" else (512, 4096)
    return array, m_max, n_max, dense_grid_reference(array, m_max, n_max)


def test_settle_profile_matches_running_extents_on_report_grids(report_grid):
    body = report_grid[3][1:, 1:]
    for tolerance in (1e-7, 5e-7, 1e-6, 2e-6):
        _assert_profiles_bitwise_equal(body, tolerance)
        _assert_profiles_bitwise_equal(body.T, tolerance)


def _assert_analyses_bitwise_equal(got, want):
    """Probes and both settle profiles of _analyze, field by field, bit for bit."""
    got_probes, *got_profiles = got
    want_probes, *want_profiles = want
    assert list(got_probes) == list(want_probes)
    for kind, probe in want_probes.items():
        mine = got_probes[kind]
        assert (mine.kind, mine.verdict) == (probe.kind, probe.verdict), kind
        assert mine.trace.dtype == probe.trace.dtype, kind
        assert mine.trace.tobytes() == probe.trace.tobytes(), kind
        fields = [(p.value, p.residual, p.detail) for p in (mine, probe)]
        assert json.dumps(fields[0], default=_jsonable) == json.dumps(
            fields[1], default=_jsonable
        ), kind
    for mine, profile in zip(got_profiles, want_profiles):
        _assert_same_profile(mine, profile)


def _assert_report_is_the_dense_reference(monkeypatch, array, m_max, n_max, sums, tolerance):
    """diagnostics_report, its probes, profiles and theorem checks equal the dense path's."""
    analyses = {}
    slab_analyze = summation_diagnostics._analyze
    with monkeypatch.context() as patch:
        patch.setattr(
            summation_diagnostics, "_analyze",
            lambda a, m, n, tol: analyses.setdefault("slab", slab_analyze(a, m, n, tol)),
        )
        report = diagnostics_report(array, m_max, n_max, tolerance, scan_reach=4096)
        patch.setattr(
            summation_diagnostics, "_analyze",
            lambda a, m, n, tol: analyses.setdefault("dense", analyze_reference(sums, tol)),
        )
        reference = diagnostics_report(array, m_max, n_max, tolerance, scan_reach=4096)
    _assert_analyses_bitwise_equal(analyses["slab"], analyses["dense"])
    assert json.dumps(report, default=_jsonable) == json.dumps(reference, default=_jsonable)


def test_slab_probes_are_the_dense_reference_on_report_grids(report_grid, monkeypatch):
    for tolerance in (1e-7, 5e-7, 1e-6, 2e-6):
        _assert_report_is_the_dense_reference(monkeypatch, *report_grid, tolerance)


@pytest.mark.parametrize(
    "window", [(16, 16), (63, 200), (65, 37), (100, 4097), (513, 4096), (1024, 1024)]
)
@pytest.mark.parametrize("name", ["lee", "cesaro", "interchange_ratio"])
def test_slab_probes_are_the_dense_reference_on_ragged_windows(
    name, window, monkeypatch
):
    array = LeeArray(0.6 + 3.0j) if name == "lee" else (
        CesaroArray() if name == "cesaro" else SyntheticArray(name)
    )
    m_max, n_max = window
    sums = dense_grid_reference(array, m_max, n_max)
    walked = [s.copy() for _, s in slabs(array, m_max, n_max)]
    assert np.concatenate(walked).tobytes() == sums[1:].tobytes()
    for tolerance in (1e-6, 2e-6):
        _assert_report_is_the_dense_reference(monkeypatch, array, m_max, n_max, sums, tolerance)


class _NegativeZeros(CesaroArray):
    """Every entry -0.0 - 0.0j."""

    def rectangle(self, m_lo, m_hi, n_max, n_lo=1):
        return np.full((m_hi - m_lo + 1, n_max - n_lo + 1), complex(-0.0, -0.0))


@pytest.mark.parametrize("array", [_NegativeZeros(), negated_cesaro()], ids=["zeros", "cesaro"])
def test_slab_probes_keep_the_signed_zeros_of_the_dense_grid(array, monkeypatch):
    # The dense grid sums from a +0 row and column, so -0.0 parts become
    # +0.0 on the grid edges; a slab summed without them keeps -0.0.
    sums = dense_grid_reference(array, 70, 130)
    assert not np.signbit(sums.imag).any()
    assert np.signbit(array.rectangle(1, 70, 130).imag).all()
    _assert_report_is_the_dense_reference(monkeypatch, array, 70, 130, sums, 1e-6)
    for m, n in ((1, 1), (1, 130), (70, 1), (64, 65), (65, 130), (70, 130)):
        assert np.complex128(slab_cell((array, 70, 130), m, n)).tobytes() == sums[m, n].tobytes()


@pytest.mark.parametrize(
    "array, chunks", [(LeeArray(0.6 + 3.0j), 2), (CesaroArray(), 1)], ids=["lee", "cesaro"]
)
def test_slab_probes_chunk_the_settle_blocks_bitwise(array, chunks, monkeypatch):
    # On 300 x 700 the last column settles in block B - 1.  For Lee, 443
    # columns are still too wide at its start, more than a chunk, so the
    # second pass gathers from its one slab chunk by chunk; for Cesaro 21
    # columns up to column 47 are, so the slab stops far short of n_max.
    m_max, n_max, tolerance = 300, 700, 1e-6
    block = summation_diagnostics._BLOCK
    sums = dense_grid_reference(array, m_max, n_max)
    want, settle_index = settle_profile_reference(sums[1:, 1:].T, tolerance)
    start = (want.max_settle_index - 1) // block * block
    wide = np.flatnonzero(settle_index > start)
    assert -(-len(wide) // summation_diagnostics._SETTLE_CHUNK) == chunks, len(wide)
    slab, computed = summation_diagnostics.slab, []
    with monkeypatch.context() as patch:
        patch.setattr(
            summation_diagnostics, "slab",
            lambda a, lo, m, above: computed.append((lo, len(above))) or slab(a, lo, m, above),
        )
        col_profile = summation_diagnostics._analyze(array, m_max, n_max, tolerance)[2]
    # One slab, at block B - 1, cut after the last column too wide there.
    assert computed == [(start + 1, wide[-1] + 2)]
    _assert_same_profile(col_profile, want)
    assert col_profile.max_settle_index == settle_index.max()
    _assert_report_is_the_dense_reference(monkeypatch, array, m_max, n_max, sums, tolerance)


def test_analyze_memory_is_block_extents(traced_peak):
    _, peak = traced_peak(summation_diagnostics._analyze, CesaroArray(), 512, 4096, 1e-6)
    # A 4 MiB slab and its terms in either pass, and one chunk of the
    # last settle block's columns in the second: 7.5 MiB measured; the
    # grid would be 32 MiB.
    assert peak <= 10 * 2**20, f"probes peaked at {peak / 2**20:.1f} MiB"


def test_analyze_memory_at_the_window_cap(traced_peak):
    _, peak = traced_peak(summation_diagnostics._analyze, CesaroArray(), 8191, 8191, 1e-6)
    # The first pass: the column block extents (34 MiB), the row above
    # each slab (17 MiB) and an 8 MiB slab, 59.0 MiB measured; the grid
    # would be 1 GiB.
    assert peak <= 66 * 2**20, f"probes peaked at {peak / 2**20:.1f} MiB"
