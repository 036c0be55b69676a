"""Numerical laboratory for Dirichlet series and double-array summation.

The package splits into five layers:

* arithmetic: one sieve of prime-factor counts and the Liouville
  function over a row range, and its signed divisor transform.
* dirichlet_eval: accelerated evaluation of the alternating zeta series,
  the bridge to zeta, and the partial Dirichlet sums used as references.
* double_array: the divisor-supported array, the classical row/column
  counterexample, synthetic calibration arrays, the slabs of rectangle
  partial sums, and the three summation modes with convergence verdicts.
* summation_diagnostics: uniformity scans, and one walk over a window's
  slabs that gives the limit probes and checks the interchange theorems
  hypothesis by hypothesis.
* zero_finder: critical-line and exceptional zeros of the alternating
  series, the experimental regime for the array diagnostics.
"""

from .arithmetic import beta_definition_table, sieve
from .dirichlet_eval import (
    EXCEPTIONAL_SPACING,
    EvalResult,
    beta_series_partial,
    bridge_factor,
    default_order,
    eta,
    eta_line,
    lambda_series_partial,
    truncation_bound,
    zeta,
    zeta_at_exceptional,
)
from .double_array import (
    CesaroArray,
    LeeArray,
    SummationReport,
    SyntheticArray,
    Verdict,
    classify_trace,
    iterated_sum,
    pringsheim_trace,
    slab,
    slabs,
)
from .errors import (
    DomainError,
    ExceptionalPointError,
    InsufficientWindowError,
    InvalidBoundError,
    NotAZeroError,
    OutputError,
    PoleError,
    ScanStepError,
    ZdlError,
)
from .summation_diagnostics import (
    LimitProbe,
    TheoremCheck,
    UniformityScan,
    diagnostics_report,
    lee_verified_scan,
    needed_uniformity_scan,
    probe_window,
)
from .zero_finder import (
    ZeroCandidate,
    exceptional_zero,
    off_line_sweep,
    refine,
    scan_critical_line,
    zeros_between,
)

__version__ = "0.1.0"

__all__ = [
    "CesaroArray",
    "DomainError",
    "EXCEPTIONAL_SPACING",
    "EvalResult",
    "ExceptionalPointError",
    "InsufficientWindowError",
    "InvalidBoundError",
    "LeeArray",
    "LimitProbe",
    "NotAZeroError",
    "OutputError",
    "PoleError",
    "ScanStepError",
    "SummationReport",
    "SyntheticArray",
    "TheoremCheck",
    "UniformityScan",
    "Verdict",
    "ZdlError",
    "ZeroCandidate",
    "beta_definition_table",
    "beta_series_partial",
    "bridge_factor",
    "classify_trace",
    "default_order",
    "diagnostics_report",
    "eta",
    "eta_line",
    "exceptional_zero",
    "iterated_sum",
    "lambda_series_partial",
    "lee_verified_scan",
    "needed_uniformity_scan",
    "off_line_sweep",
    "pringsheim_trace",
    "probe_window",
    "refine",
    "scan_critical_line",
    "sieve",
    "slab",
    "slabs",
    "truncation_bound",
    "zeros_between",
    "zeta",
    "zeta_at_exceptional",
]
