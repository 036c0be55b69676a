"""Critical-line zero location and the exceptional family."""

import math

import pytest

import zdl.zero_finder as zero_finder
from zdl import (
    EXCEPTIONAL_SPACING,
    eta,
    exceptional_zero,
    off_line_sweep,
    refine,
    scan_critical_line,
    zeros_between,
)
from zdl.errors import DomainError, InvalidBoundError, NotAZeroError, ScanStepError

from oracles import FIRST_ZERO_T, SECOND_ZERO_T, ZEROS_185_200


def test_scan_brackets_the_first_zero():
    brackets = scan_critical_line(14.0, 14.3, 0.01)
    assert len(brackets) == 1
    lo, hi = brackets[0]
    assert lo < FIRST_ZERO_T < hi


def test_scan_is_empty_below_the_first_zero():
    assert scan_critical_line(0.1, 5.0, 0.01) == []


def test_first_two_zeros_refined():
    zeros = zeros_between(10.0, 25.0, 0.01)
    assert len(zeros) == 2
    assert abs(zeros[0].s.imag - FIRST_ZERO_T) <= 5e-7
    assert abs(zeros[1].s.imag - SECOND_ZERO_T) <= 5e-7
    for z in zeros:
        assert z.s.real == 0.5
        assert z.kind == "critical_line"
        assert z.residual <= 1e-9


def test_zeros_past_the_doubled_order_cap():
    # From t ~ 189.7 twice the default order exceeds the evaluator's cap.
    zeros = zeros_between(185.0, 200.0)
    assert len(zeros) == len(ZEROS_185_200)
    for z, t in zip(zeros, ZEROS_185_200):
        assert abs(z.s.imag - t) <= 1e-9
        assert z.residual <= 1e-9


def test_refined_zero_mirrors_to_the_conjugate(first_zero):
    assert abs(eta(first_zero.s.conjugate()).value) <= 1e-9


def test_refine_is_deterministic():
    bracket = (14.12, 14.15)
    once = refine(bracket)
    again = refine(bracket)
    assert once.s == again.s
    assert once.residual == again.residual
    assert abs(once.s.imag - FIRST_ZERO_T) <= 5e-7


def test_plain_minimum_is_not_a_zero():
    with pytest.raises(NotAZeroError):
        refine((17.0, 18.0))


def test_refine_rejects_inverted_bracket():
    with pytest.raises(InvalidBoundError):
        refine((14.2, 14.1))


def test_exceptional_zeros_sit_at_exact_points():
    for k in (1, -1, 2):
        candidate = exceptional_zero(k)
        assert candidate.s == complex(1.0, k * EXCEPTIONAL_SPACING)
        assert candidate.kind == "exceptional"
        assert candidate.k == k
        assert candidate.residual <= 1e-10


def test_exceptional_rejects_zero_index():
    with pytest.raises(InvalidBoundError):
        exceptional_zero(0)


def test_scan_guards():
    with pytest.raises(InvalidBoundError):
        scan_critical_line(-1.0, 5.0, 0.01)
    with pytest.raises(InvalidBoundError):
        scan_critical_line(5.0, 5.0, 0.01)
    with pytest.raises(ScanStepError):
        scan_critical_line(1.0, 5.0, 0.0)
    with pytest.raises(ScanStepError):
        scan_critical_line(1.0, 5.0, 0.2)


@pytest.mark.parametrize(
    "t_lo, t_hi, step, error",
    [
        (10.0, 25.0, math.nan, ScanStepError),
        (10.0, math.inf, 0.01, InvalidBoundError),
        (math.nan, 25.0, 0.01, InvalidBoundError),
        (10.0, math.nan, 0.01, InvalidBoundError),
        (10.0, 1e9, 0.01, DomainError),  # past eta's reach, t ~ 414
        (10.0, 20.0, 1e-12, InvalidBoundError),  # 1e13 grid points
    ],
)
def test_scan_rejects_bad_input_before_allocating(no_numpy, t_lo, t_hi, step, error):
    no_numpy(zero_finder)
    with pytest.raises(error):
        scan_critical_line(t_lo, t_hi, step)


@pytest.mark.parametrize(
    "t_max, step, error",
    [
        (math.nan, 0.05, InvalidBoundError),
        (math.inf, 0.05, InvalidBoundError),
        (1e9, 0.05, DomainError),
        (50.0, math.nan, ScanStepError),
        (50.0, 1e-12, InvalidBoundError),  # 5e13 grid points
    ],
)
def test_off_line_sweep_rejects_bad_input_before_allocating(
    no_numpy, t_max, step, error
):
    no_numpy(zero_finder)
    with pytest.raises(error):
        off_line_sweep(t_max=t_max, step=step)


def test_off_line_sweep_stays_well_above_zero():
    sweep = off_line_sweep()
    assert [entry[0] for entry in sweep] == [0.6, 0.75]
    for sigma, floor, t_at in sweep:
        assert floor > 0.1
        assert 0.0 <= t_at <= 50.0
