"""Numerical laboratory for Dirichlet series and double-array summation.

The package splits into five layers:

* arithmetic: one sieve of prime-factor counts and the Liouville
  function over a row range, and its signed divisor transform.
* dirichlet_eval: accelerated evaluation of the alternating zeta series,
  the bridge to zeta, and the partial Dirichlet sums used as references.
* double_array: the divisor-supported array, the classical row/column
  counterexample, synthetic calibration arrays, and the three summation
  modes with convergence verdicts.
* summation_diagnostics: limit probes, uniformity scans, and the
  hypothesis-by-hypothesis interchange-theorem classifier.
* zero_finder: critical-line and exceptional zeros of the alternating
  series, the experimental regime for the array diagnostics.
"""

from .arithmetic import beta_closed_form, beta_definition_table, sieve
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
    PartialSumGrid,
    SummationReport,
    SyntheticArray,
    Verdict,
    build_grid,
    classify_trace,
    iterated_sum,
    pringsheim_trace,
    row_sum,
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
    classify,
    diagnostics_report,
    lee_verified_scan,
    needed_uniformity_scan,
    probe_limits,
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
    "PartialSumGrid",
    "PoleError",
    "ScanStepError",
    "SummationReport",
    "SyntheticArray",
    "TheoremCheck",
    "UniformityScan",
    "Verdict",
    "ZdlError",
    "ZeroCandidate",
    "beta_closed_form",
    "beta_definition_table",
    "beta_series_partial",
    "bridge_factor",
    "build_grid",
    "classify",
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
    "probe_limits",
    "refine",
    "row_sum",
    "scan_critical_line",
    "sieve",
    "zeros_between",
    "zeta",
    "zeta_at_exceptional",
    "truncation_bound",
]
