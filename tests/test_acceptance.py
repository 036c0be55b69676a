"""Eight gate checks, one test per numbered criterion.

Each test prints a single PASS line once its assertions hold, so a
verbose run reads as a checklist.  Targets come from tests/oracles.py
(direct summation, Euler-Maclaurin, brute-force arithmetic), never from
the code under test.
"""

import time

import numpy as np

from zdl import (
    CesaroArray,
    LeeArray,
    SyntheticArray,
    beta_definition_table,
    beta_series_partial,
    bridge_factor,
    exceptional_zero,
    iterated_sum,
    lambda_series_partial,
    lee_verified_scan,
    needed_uniformity_scan,
    pringsheim_trace,
    probe_window,
    sieve,
    zeros_between,
    zeta,
)
from zdl.arithmetic import beta_closed_table

from oracles import (
    FIRST_ZERO_T,
    LAMBDA_SERIES_AT_2,
    LEE_COMMON_VALUE_AT_2,
    SECOND_ZERO_T,
)


def test_criterion_1_beta_routes_agree_to_1e5():
    started = time.perf_counter()
    by_definition = beta_definition_table(sieve(100_000)[1])
    closed = beta_closed_table(100_000)
    elapsed = time.perf_counter() - started
    mismatches = int(np.count_nonzero(by_definition[1:] != closed[1:]))
    assert mismatches == 0
    assert elapsed < 30.0
    print(f"PASS 1/8: both beta routes agree on 1..100000 ({elapsed:.2f}s)")


def test_criterion_2_identity_residual_within_tail_bound():
    K = 10**6
    for s in (0.75 + 0j, 1.0 + 0j, 2.0 + 0j, 0.8 + 5j, 0.6 + 3j):
        series = beta_series_partial(s, K)
        if s == 1.0:
            bridge = 0j  # the bridge factor vanishes identically
            bound = 1e-12
        else:
            bridge = bridge_factor(s) * zeta(2 * s).value
            sigma = s.real
            bound = K ** (1.0 - 2.0 * sigma) / (2.0 * sigma - 1.0) + 1e-8
        residual = abs(series - bridge)
        assert residual <= bound, f"s={s}: residual {residual} above {bound}"
    print("PASS 2/8: squared-argument identity holds at all five points")


def test_criterion_3_liouville_series_hits_the_zeta_ratio():
    value = lambda_series_partial(2.0, 10**6)
    assert abs(value - LAMBDA_SERIES_AT_2) <= 1e-5
    print("PASS 3/8: Liouville series at s=2 within 1e-5 of the direct-sum target")


def test_criterion_4_cesaro_modes_disagree():
    array = CesaroArray()
    rows = iterated_sum(array, "rows_then_m", 64)
    assert rows.verdict.kind == "converged"
    assert abs(rows.verdict.value - 1.0) <= 1e-12

    cols = iterated_sum(array, "columns_then_n", 64)
    expected = [1.0 if k % 2 == 0 else 0.0 for k in range(64)]
    assert [v.real for v in cols.trace] == expected
    assert [v.imag for v in cols.trace] == [0.0] * 64
    assert cols.verdict.kind == "oscillating"

    diagonal = pringsheim_trace(array, 64)
    assert diagonal.verdict.kind != "converged"
    print("PASS 4/8: geometric array sums to 1, oscillates, and defeats the rectangle")


def test_criterion_5_absolutely_convergent_modes_agree():
    array = LeeArray(2.0 + 0j)
    reports = (
        iterated_sum(array, "rows_then_m", 10**6),
        iterated_sum(array, "columns_then_n", 10**6),
        pringsheim_trace(array, 200_000),
    )
    values = []
    for report in reports:
        assert report.verdict.kind == "converged"
        values.append(report.verdict.value)
    for a in values:
        for b in values:
            assert abs(a - b) <= 1e-8
        assert abs(a - LEE_COMMON_VALUE_AT_2) <= 1e-8
    print("PASS 5/8: three modes at s=2 agree with each other and the target")


def test_criterion_6_zero_table():
    zeros = zeros_between(10.0, 25.0, 0.01)
    assert len(zeros) == 2
    assert abs(zeros[0].s.imag - FIRST_ZERO_T) <= 1e-4
    assert abs(zeros[1].s.imag - SECOND_ZERO_T) <= 1e-4
    for z in zeros:
        assert z.s.real == 0.5
        assert z.residual <= 1e-9
    assert exceptional_zero(1).residual <= 1e-10
    print("PASS 6/8: both refined zeros and the exceptional point check out")


def test_criterion_7_scan_verdicts_at_the_first_zero(first_zero):
    array = LeeArray(first_zero.s)

    worst_row = float(np.abs(array.row_limits(4096)).max())
    assert worst_row <= 1e-9

    verified = lee_verified_scan(
        array, (16, 256, 4096, 65536, 262144), block=8, m_reach=4096
    )
    assert verified.verdict == "decays_below"

    needed = needed_uniformity_scan(
        array, (16, 64, 256, 1024, 4096), block=8, n_reach=10**6
    )
    assert needed.verdict == "stalls_above"
    assert needed.floor is not None
    assert needed.floor > 1e-2
    print(
        "PASS 7/8: at the first zero rows vanish, the row-tail scan decays, "
        f"the block-tail scan stalls at {needed.floor:.4f}"
    )


def test_criterion_8_interchange_counterexample():
    tol = 0.02
    probes, checks = probe_window(SyntheticArray("interchange_ratio"), 512, 512, tolerance=tol)
    first = probes["first_iterated"]
    second = probes["second_iterated"]
    assert first.verdict == "exists" and abs(first.value - 1.0) <= 3 * tol
    assert second.verdict == "exists" and abs(second.value) <= 3 * tol
    assert probes["double"].verdict == "fails_to_settle"

    moore = next(c for c in checks if c.theorem == "moore_symmetric_limits")
    assert not moore.asserted
    assert any(h["status"] == "fails" for h in moore.hypotheses)
    print("PASS 8/8: ratio array separates 1, 0, and a failed double limit")
