"""Command-line front end: reproducible experiments, CSV or JSON out.

Subcommands map one-to-one onto the library layers:

* beta        arithmetic table with both beta routes and a mismatch flag
* identity    the squared-argument identity, residual and tail bound
* modes       the three summation modes applied to one double array
* uniformity  limit probes, both uniformity scans, theorem classification
* zeros       critical-line zero table plus the exceptional pair
* eta, zeta   single evaluations with error estimates

Output is deterministic for a fixed invocation: fixed key order in JSON,
repr-formatted floats in CSV, newline line endings.  Domain failures
print one machine-readable JSON object to stderr and exit with status 2;
a beta table mismatch exits with status 1.
"""

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction

import numpy as np

from .arithmetic import beta_definition_table, build_table
from .dirichlet_eval import (
    EXCEPTIONAL_SPACING,
    beta_series_partial,
    bridge_factor,
    eta,
    zeta,
    zeta_at_exceptional,
)
from .double_array import (
    CesaroArray,
    LeeArray,
    SyntheticArray,
    iterated_sum,
    pringsheim_trace,
)
from .errors import DomainError, ZdlError
from .summation_diagnostics import diagnostics_report
from .zero_finder import exceptional_zero, zeros_between

ARRAY_CHOICES = ("lee", "cesaro", "zeros", "interchange_ratio")


def parse_complex(text: str) -> complex:
    """Parse "a+bi" (decimal forms, optional signs, bare real or bi)."""
    raw = text.strip().replace(" ", "")
    if raw.endswith(("i", "I")):
        raw = raw[:-1] + "j"
    try:
        value = complex(raw)
    except ValueError:
        raise DomainError(
            f"cannot parse {text!r} as a complex number; "
            "expected forms like 2, 0.75, 0.5+14.13i, -3i"
        ) from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise DomainError(f"complex parameter must be finite, got {text!r}")
    return value


def parse_window(text: str):
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise DomainError(f"window must look like 512x4096, got {text!r}")
    try:
        m, n = int(parts[0]), int(parts[1])
    except ValueError:
        raise DomainError(f"window must look like 512x4096, got {text!r}") from None
    if m < 1 or n < 1:
        raise DomainError(f"window extents must be positive, got {text!r}")
    return m, n


def parse_aspect(text: str) -> Fraction:
    try:
        aspect = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"aspect must be a ratio like 1, 2/3, 1.5; got {text!r}") from None
    if aspect <= 0:
        raise DomainError(f"aspect must be positive, got {text!r}")
    return aspect


def _c(value) -> dict | None:
    if value is None:
        return None
    value = complex(value)
    return {"re": float(value.real), "im": float(value.imag)}


def _fmt(value) -> str:
    """CSV cell: repr for floats (round-trip exact), empty for None."""
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, out_path) -> None:
    _emit(json.dumps(payload, indent=2) + "\n", out_path)


def _emit_csv(header, rows, out_path) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(cell) for cell in row])
    _emit(buf.getvalue(), out_path)


def _verdict_json(verdict) -> dict:
    band = None
    if verdict.band is not None:
        band = {"low": _c(verdict.band[0]), "high": _c(verdict.band[1])}
    return {
        "kind": verdict.kind,
        "value": _c(verdict.value),
        "residual": None if verdict.residual is None else float(verdict.residual),
        "band": band,
    }


def cmd_beta(args) -> int:
    table = build_table(args.n_max)
    by_def = beta_definition_table(table)
    closed = table.beta[1:]
    mismatch = by_def[1:] != closed
    count = int(np.count_nonzero(mismatch))
    if args.format == "json":
        rows = [
            {
                "n": n,
                "omega": int(table.omega[n]),
                "liouville": int(table.liouville[n]),
                "beta_definition": int(by_def[n]),
                "beta_closed": int(table.beta[n]),
                "mismatch": bool(mismatch[n - 1]),
            }
            for n in range(1, args.n_max + 1)
        ]
        _emit_json(
            {
                "schema": 1,
                "command": "beta",
                "n_max": int(args.n_max),
                "mismatches": count,
                "rows": rows,
            },
            args.out,
        )
    else:
        rows = (
            (
                n,
                int(table.omega[n]),
                int(table.liouville[n]),
                int(by_def[n]),
                int(table.beta[n]),
                int(mismatch[n - 1]),
            )
            for n in range(1, args.n_max + 1)
        )
        _emit_csv(
            ("n", "omega", "liouville", "beta_definition", "beta_closed", "mismatch"),
            rows,
            args.out,
        )
    return 1 if count else 0


def cmd_identity(args) -> int:
    s = args.s
    if s.real <= 0.5:
        raise DomainError(
            f"identity comparison needs re(s) > 1/2 for a convergent series, got {s}"
        )
    series = beta_series_partial(s, args.K)
    bridge = bridge_factor(s) * zeta(2 * s).value
    residual = abs(series - bridge)
    sigma = s.real
    tail_bound = float(args.K) ** (1.0 - 2.0 * sigma) / (2.0 * sigma - 1.0)
    if args.format == "json":
        _emit_json(
            {
                "schema": 1,
                "command": "identity",
                "s": _c(s),
                "K": int(args.K),
                "series": _c(series),
                "bridge_product": _c(bridge),
                "residual": residual,
                "tail_bound": tail_bound,
            },
            args.out,
        )
    else:
        _emit_csv(
            (
                "re_s", "im_s", "K", "series_re", "series_im",
                "bridge_re", "bridge_im", "residual", "tail_bound",
            ),
            [
                (
                    s.real, s.imag, args.K, series.real, series.imag,
                    bridge.real, bridge.imag, residual, tail_bound,
                )
            ],
            args.out,
        )
    return 0


_MODES_DEFAULTS = {
    "lee": (100000, 100000),
    "cesaro": (4096, 64),
    "zeros": (512, 64),
    "interchange_ratio": (512, 64),
}


def _make_array(name, s, sieve_need, n_max_flag):
    if name == "lee":
        if s is None:
            raise DomainError("the lee array needs --s")
        bound = n_max_flag if n_max_flag is not None else sieve_need
        if bound < sieve_need:
            raise DomainError(
                f"--n-max {bound} is below the requested range {sieve_need}"
            )
        return LeeArray(s, build_table(bound))
    if s is not None:
        raise DomainError(f"--s applies only to the lee array, not {name!r}")
    if name == "cesaro":
        return CesaroArray()
    return SyntheticArray(name)


def cmd_modes(args) -> int:
    outer_default, k_default = _MODES_DEFAULTS[args.array]
    outer = args.outer if args.outer is not None else outer_default
    k_max = args.k_max if args.k_max is not None else k_default
    array = _make_array(args.array, args.s, max(outer, k_max), args.n_max)
    reports = [
        iterated_sum(array, "rows_then_m", outer, args.tolerance),
        iterated_sum(array, "columns_then_n", outer, args.tolerance),
        pringsheim_trace(array, k_max, args.aspect, args.tolerance),
    ]
    if args.format == "json":
        payload = {
            "schema": 1,
            "command": "modes",
            "array": array.label,
            "s": _c(getattr(array, "s", None)),
            "outer_limit": int(outer),
            "k_max": int(k_max),
            "aspect": str(args.aspect),
            "tolerance": float(args.tolerance),
            "reports": [
                {
                    "mode": rep.mode,
                    "verdict": _verdict_json(rep.verdict),
                    "final": _c(rep.trace[-1]),
                    "trace_length": int(len(rep.trace)),
                }
                for rep in reports
            ],
        }
        _emit_json(payload, args.out)
    else:
        rows = []
        for rep in reports:
            v = rep.verdict
            band_lo = v.band[0] if v.band else None
            band_hi = v.band[1] if v.band else None
            rows.append(
                (
                    rep.mode,
                    v.kind,
                    None if v.value is None else v.value.real,
                    None if v.value is None else v.value.imag,
                    v.residual,
                    None if band_lo is None else band_lo.real,
                    None if band_lo is None else band_lo.imag,
                    None if band_hi is None else band_hi.real,
                    None if band_hi is None else band_hi.imag,
                    len(rep.trace),
                )
            )
        _emit_csv(
            (
                "mode", "verdict", "value_re", "value_im", "residual",
                "band_lo_re", "band_lo_im", "band_hi_re", "band_hi_im",
                "trace_length",
            ),
            rows,
            args.out,
        )
    return 0


def cmd_uniformity(args) -> int:
    m_max, n_max = args.window
    reach = args.reach
    sieve_need = n_max
    if args.array == "lee":
        sieve_need = max(n_max, reach if reach is not None else 10**6)
    array = _make_array(args.array, args.s, sieve_need, args.n_max)
    report = diagnostics_report(
        array,
        m_max,
        n_max,
        tolerance=args.tolerance,
        block=args.block,
        scan_reach=reach,
        threshold=args.threshold,
    )
    if args.format == "json":
        payload = {"schema": 1, "command": "uniformity"}
        payload.update((k, v) for k, v in report.items() if k != "schema")
        _emit_json(payload, args.out)
    else:
        rows = []
        for scan in report["scans"]:
            for outer_value, sup in zip(scan["outer_values"], scan["sup_trace"]):
                rows.append(
                    (
                        scan["quantity"],
                        scan["outer_label"],
                        outer_value,
                        sup,
                        scan["threshold"],
                        scan["verdict"],
                    )
                )
        _emit_csv(
            ("quantity", "outer_label", "outer_value", "sup", "threshold", "verdict"),
            rows,
            args.out,
        )
    return 0


def cmd_zeros(args) -> int:
    candidates = zeros_between(args.t_lo, args.t_hi, args.step)
    candidates.extend(exceptional_zero(k) for k in (1, -1))
    if args.format == "json":
        _emit_json(
            {
                "schema": 1,
                "command": "zeros",
                "window": {
                    "t_lo": float(args.t_lo),
                    "t_hi": float(args.t_hi),
                    "step": float(args.step),
                },
                "zeros": [
                    {
                        "kind": c.kind,
                        "k": c.k,
                        "t": None if c.kind != "critical_line" else float(c.s.imag),
                        "s": _c(c.s),
                        "residual": float(c.residual),
                    }
                    for c in candidates
                ],
            },
            args.out,
        )
    else:
        rows = [
            (
                c.kind,
                c.s.imag if c.kind == "critical_line" else c.k,
                c.s.real,
                c.s.imag,
                c.residual,
            )
            for c in candidates
        ]
        _emit_csv(("kind", "k_or_t", "re_s", "im_s", "residual"), rows, args.out)
    return 0


def cmd_eta(args) -> int:
    result = eta(args.s, args.order)
    if args.format == "json":
        _emit_json(
            {
                "schema": 1,
                "command": "eta",
                "s": _c(args.s),
                "value": _c(result.value),
                "error_estimate": float(result.error_estimate),
                "terms_used": int(result.terms_used),
            },
            args.out,
        )
    else:
        _emit_csv(
            ("re_s", "im_s", "value_re", "value_im", "error_estimate", "terms_used"),
            [
                (
                    args.s.real, args.s.imag, result.value.real,
                    result.value.imag, result.error_estimate, result.terms_used,
                )
            ],
            args.out,
        )
    return 0


def cmd_zeta(args) -> int:
    if (args.s is None) == (args.k is None):
        raise DomainError("zeta needs exactly one of --s or --k")
    if args.k is not None:
        result = zeta_at_exceptional(args.k)
        s = complex(1.0, args.k * EXCEPTIONAL_SPACING)
    else:
        result = zeta(args.s)
        s = args.s
    if args.format == "json":
        _emit_json(
            {
                "schema": 1,
                "command": "zeta",
                "s": _c(s),
                "exceptional_k": args.k,
                "value": _c(result.value),
                "error_estimate": float(result.error_estimate),
                "terms_used": int(result.terms_used),
            },
            args.out,
        )
    else:
        _emit_csv(
            (
                "re_s", "im_s", "exceptional_k", "value_re", "value_im",
                "error_estimate", "terms_used",
            ),
            [
                (
                    None if s is None else s.real,
                    None if s is None else s.imag,
                    args.k,
                    result.value.real,
                    result.value.imag,
                    result.error_estimate,
                    result.terms_used,
                )
            ],
            args.out,
        )
    return 0


def _add_common(sub):
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", default=None, help="output path (default stdout)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zdl",
        description="Numerical experiments on Dirichlet series and double arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("beta", help="arithmetic table with both beta routes")
    p.add_argument("--n-max", type=int, default=20)
    _add_common(p)
    p.set_defaults(func=cmd_beta)

    p = sub.add_parser("identity", help="squared-argument identity check")
    p.add_argument("--s", type=parse_complex, required=True)
    p.add_argument("--K", type=int, default=1000, help="square-index cutoff")
    _add_common(p)
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("modes", help="three summation modes on one array")
    p.add_argument("--array", choices=ARRAY_CHOICES, default="lee")
    p.add_argument("--s", type=parse_complex, default=None)
    p.add_argument("--outer", type=int, default=None, help="iterated outer limit")
    p.add_argument("--k-max", type=int, default=None, help="rectangle trace length")
    p.add_argument("--aspect", type=parse_aspect, default=Fraction(1))
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.add_argument("--n-max", type=int, default=None, help="sieve bound override")
    _add_common(p)
    p.set_defaults(func=cmd_modes)

    p = sub.add_parser("uniformity", help="limit probes, scans, classification")
    p.add_argument("--array", choices=ARRAY_CHOICES, default="lee")
    p.add_argument("--s", type=parse_complex, default=None)
    p.add_argument("--window", type=parse_window, default=(512, 4096),
                   help="grid extents as MxN")
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.add_argument("--block", type=int, default=8)
    p.add_argument("--reach", type=int, default=None, help="scan reach in N")
    p.add_argument("--threshold", type=float, default=1e-2)
    p.add_argument("--n-max", type=int, default=None, help="sieve bound override")
    _add_common(p)
    p.set_defaults(func=cmd_uniformity)

    p = sub.add_parser("zeros", help="critical-line zero table")
    p.add_argument("--t-lo", type=float, default=10.0)
    p.add_argument("--t-hi", type=float, default=25.0)
    p.add_argument("--step", type=float, default=0.01)
    _add_common(p)
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("eta", help="evaluate the alternating series")
    p.add_argument("--s", type=parse_complex, required=True)
    p.add_argument("--order", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_eta)

    p = sub.add_parser("zeta", help="evaluate zeta, or its exceptional-point value")
    p.add_argument("--s", type=parse_complex, default=None)
    p.add_argument("--k", type=int, default=None,
                   help="exceptional point index instead of --s")
    _add_common(p)
    p.set_defaults(func=cmd_zeta)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ZdlError as err:
        payload = {"schema": 1, "error": type(err).__name__, "message": str(err)}
        sys.stderr.write(json.dumps(payload) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
