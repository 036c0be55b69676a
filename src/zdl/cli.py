"""Command-line front end: reproducible experiments, CSV or JSON out.

Subcommands map one-to-one onto the library layers:

* beta        arithmetic table with both beta routes and a mismatch flag
* identity    the squared-argument identity, residual and tail bound
* modes       the three summation modes applied to one double array
* uniformity  limit probes, both uniformity scans, theorem classification
* zeros       critical-line zero table plus the exceptional pair
* eta, zeta   single evaluations with error estimates

Each cmd_* computes once and returns (record, csv_header, csv_rows_of),
csv_rows_of mapping the record to row tuples; _write, the only writer,
streams a record field that is an iterator of rows in either format.
JSON opens with "schema" and "command" and carries complex numbers as
{"re", "im"}; CSV cells are repr for floats, empty for None and 0/1 for
flags.  Output is deterministic for a fixed invocation.  Domain
failures, an unwritable --out included, print one JSON object to stderr
and exit with status 2; a beta table mismatch exits with status 1.
"""

import argparse
import csv
import json
import math
import sys
from collections.abc import Iterator
from fractions import Fraction
from itertools import chain, islice

import numpy as np

from .arithmetic import beta_closed_table, beta_definition_table, sieve
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
    _check_outer_limit,
    iterated_sum,
    pringsheim_trace,
)
from .errors import DomainError, InvalidBoundError, OutputError, ZdlError
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


def parse_positive(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DomainError(f"expected a positive number, got {text!r}") from None
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"value must be positive and finite, got {text!r}")
    return value


def _parts(value) -> tuple:
    """(re, im) of a complex CSV field, (None, None) when absent."""
    return (None, None) if value is None else (value.real, value.imag)


def _cell(value) -> str:
    """CSV cell: repr for floats (round-trip exact), empty for None, 0/1 for flags."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


_SCHEMA = {"schema": 1}


class _RowStream(list):
    """A row iterator as a list that json's encoder walks one row at a time.

    It holds the first row, taken before any output, so it tests true, as
    json's encoder asks before walking a list, exactly when rows exist.
    """

    def __init__(self, rows):
        super().__init__(islice(rows, 1))
        self.rows = rows

    def __iter__(self):
        return chain(super().__iter__(), self.rows)


def _jsonable(value):
    """json's fallback: complex -> {"re", "im"}, numpy values -> Python."""
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON data")


def _write(args, record: dict, header, rows_of) -> None:
    """The one writer: the record as JSON, or its CSV view, streamed to stdout or --out."""
    if args.format == "json":
        # Wrapped here, not in the default hook, which adds two generators per chunk.
        fields = {k: _RowStream(v) if isinstance(v, Iterator) else v for k, v in record.items()}
        # With an indent, json.dumps runs this same pure-Python encoder.
        encoder = json.JSONEncoder(indent=2, default=_jsonable)
        chunks = chain(encoder.iterencode({**_SCHEMA, "command": args.command, **fields}), ("\n",))

        def render(handle):
            # One write per 2**14 chunks: a write per chunk costs more than the join.
            while batch := list(islice(chunks, 1 << 14)):
                handle.write("".join(batch))
    else:
        def render(handle):
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([_cell(cell) for cell in row] for row in rows_of(record))
    if not args.out:
        render(sys.stdout)
        return
    try:
        with open(args.out, "w", newline="") as handle:
            render(handle)
    except OSError as err:
        raise OutputError(f"cannot write --out {args.out!r}: {err.strerror or err}") from None


MAX_BETA_ROWS = 1 << 20

_BETA_HEADER = ("n", "omega", "liouville", "beta_definition", "beta_closed", "mismatch")
_BETA_CHUNK = 1 << 14


def _beta_rows(columns):
    """The beta table's row dicts from n = 1 on, built _BETA_CHUNK rows at a time."""
    for lo in range(1, len(columns[0]), _BETA_CHUNK):
        chunk = (c[lo:lo + _BETA_CHUNK].tolist() for c in columns)
        for row in zip(range(lo, lo + _BETA_CHUNK), *chunk):
            yield dict(zip(_BETA_HEADER, row))


def cmd_beta(args) -> tuple:
    # The rows stream, so the cap bounds time, not memory: 2**20 rows take
    # about 12 s as JSON and 6.5 s as CSV on 2 vCPUs.
    if args.n_max < 1:
        raise InvalidBoundError(f"beta --n-max must be >= 1, got {args.n_max}")
    if args.n_max > MAX_BETA_ROWS:
        raise InvalidBoundError(
            f"beta --n-max must be <= 2**20 ({MAX_BETA_ROWS}) rows, got {args.n_max}"
        )
    omega, liouville = sieve(args.n_max)
    by_def = beta_definition_table(liouville)
    closed = beta_closed_table(args.n_max)
    mismatch = by_def != closed
    record = {
        "n_max": args.n_max,
        "mismatches": int(np.count_nonzero(mismatch[1:])),
        "rows": _beta_rows((omega, liouville, by_def, closed, mismatch)),
    }
    return record, _BETA_HEADER, lambda r: (row.values() for row in r["rows"])


def cmd_identity(args) -> tuple:
    s = args.s
    if s.real <= 0.5:
        raise DomainError(
            f"identity comparison needs re(s) > 1/2 for a convergent series, got {s}"
        )
    series = beta_series_partial(s, args.K)
    bridge = bridge_factor(s) * zeta(2 * s).value
    record = {
        "s": s,
        "K": args.K,
        "series": series,
        "bridge_product": bridge,
        "residual": abs(series - bridge),
        "tail_bound": float(args.K) ** (1.0 - 2.0 * s.real) / (2.0 * s.real - 1.0),
    }
    header = (
        "re_s", "im_s", "K", "series_re", "series_im",
        "bridge_re", "bridge_im", "residual", "tail_bound",
    )
    return record, header, lambda r: [(
        *_parts(r["s"]), r["K"], *_parts(r["series"]), *_parts(r["bridge_product"]),
        r["residual"], r["tail_bound"],
    )]


def _make_array(name, s):
    """The named array; the lee array sieves liouville itself as rows are read."""
    if name == "lee":
        if s is None:
            raise DomainError("the lee array needs --s")
        return LeeArray(s)
    if s is not None:
        raise DomainError(f"--s applies only to the lee array, not {name!r}")
    if name == "cesaro":
        return CesaroArray()
    return SyntheticArray(name)


def _mode_record(rep) -> dict:
    v = rep.verdict
    band = None if v.band is None else dict(zip(("low", "high"), v.band))
    return {
        "mode": rep.mode,
        "verdict": {"kind": v.kind, "value": v.value, "residual": v.residual, "band": band},
        "final": rep.trace[-1],
        "trace_length": len(rep.trace),
    }


def _modes_rows(record):
    for rep in record["reports"]:
        v = rep["verdict"]
        band = v["band"] or {"low": None, "high": None}
        yield (rep["mode"], v["kind"], *_parts(v["value"]), v["residual"],
               *_parts(band["low"]), *_parts(band["high"]), rep["trace_length"])


def cmd_modes(args) -> tuple:
    # A given outer limit is refused first, and an oversized rectangle as
    # its trace opens, both before a row is read, so neither sieves.
    if args.outer is not None:
        _check_outer_limit(args.outer)
    array = _make_array(args.array, args.s)
    outer = args.outer if args.outer is not None else array.outer
    k_max = args.k_max if args.k_max is not None else array.k_max
    # Each report shrinks to its record at once, so no trace (16 B per
    # step) outlives its mode.
    rectangle = _mode_record(pringsheim_trace(array, k_max, args.aspect, args.tolerance))
    reports = [
        _mode_record(iterated_sum(array, "rows_then_m", outer, args.tolerance)),
        _mode_record(iterated_sum(array, "columns_then_n", outer, args.tolerance)),
        rectangle,
    ]
    record = {
        "array": array.label,
        "s": array.s,
        "outer_limit": outer,
        "k_max": k_max,
        "aspect": str(args.aspect),
        "tolerance": args.tolerance,
        "reports": reports,
    }
    header = (
        "mode", "verdict", "value_re", "value_im", "residual",
        "band_lo_re", "band_lo_im", "band_hi_re", "band_hi_im",
        "trace_length",
    )
    return record, header, _modes_rows


def cmd_uniformity(args) -> tuple:
    m_max, n_max = args.window
    report = diagnostics_report(
        _make_array(args.array, args.s),
        m_max,
        n_max,
        tolerance=args.tolerance,
        block=args.block,
        scan_reach=args.reach,
        threshold=args.threshold,
    )
    header = ("quantity", "outer_label", "outer_value", "sup", "threshold", "verdict")
    return report, header, lambda r: [
        (scan["quantity"], scan["outer_label"], outer_value, sup,
         scan["threshold"], scan["verdict"])
        for scan in r["scans"]
        for outer_value, sup in zip(scan["outer_values"], scan["sup_trace"])
    ]


def cmd_zeros(args) -> tuple:
    candidates = zeros_between(args.t_lo, args.t_hi, args.step)
    candidates.extend(exceptional_zero(k) for k in (1, -1))
    record = {
        "window": {"t_lo": args.t_lo, "t_hi": args.t_hi, "step": args.step},
        "zeros": [
            {
                "kind": c.kind,
                "k": c.k,
                "t": c.s.imag if c.kind == "critical_line" else None,
                "s": c.s,
                "residual": c.residual,
            }
            for c in candidates
        ],
    }
    header = ("kind", "k_or_t", "re_s", "im_s", "residual")
    return record, header, lambda r: [
        (z["kind"], z["t"] if z["kind"] == "critical_line" else z["k"], *_parts(z["s"]),
         z["residual"])
        for z in r["zeros"]
    ]


def _evaluation(s, result, **selector) -> tuple:
    """Record of one eta or zeta evaluation; zeta's exceptional_k follows s."""
    record = {
        "s": s,
        **selector,
        "value": result.value,
        "error_estimate": result.error_estimate,
        "terms_used": result.terms_used,
    }
    header = ("re_s", "im_s", *selector, "value_re", "value_im",
              "error_estimate", "terms_used")
    return record, header, lambda r: [(
        *_parts(r["s"]), *(r[key] for key in selector), *_parts(r["value"]),
        r["error_estimate"], r["terms_used"],
    )]


def cmd_eta(args) -> tuple:
    return _evaluation(args.s, eta(args.s, args.order))


def cmd_zeta(args) -> tuple:
    if (args.s is None) == (args.k is None):
        raise DomainError("zeta needs exactly one of --s or --k")
    if args.k is not None:
        s = complex(1.0, args.k * EXCEPTIONAL_SPACING)
        return _evaluation(s, zeta_at_exceptional(args.k), exceptional_k=args.k)
    return _evaluation(args.s, zeta(args.s), exceptional_k=None)


def _add_common(sub):
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", default=None, help="output path (default stdout)")


def _arg(parse):
    """argparse type from `parse`; the usage error keeps its DomainError text."""

    def convert(text):
        try:
            return parse(text)
        except DomainError as err:
            raise argparse.ArgumentTypeError(str(err)) from None

    return convert


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
    p.add_argument("--s", type=_arg(parse_complex), required=True)
    p.add_argument("--K", type=int, default=1000, help="square-index cutoff")
    _add_common(p)
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("modes", help="three summation modes on one array")
    p.add_argument("--array", choices=ARRAY_CHOICES, default="lee")
    p.add_argument("--s", type=_arg(parse_complex), default=None)
    p.add_argument("--outer", type=int, default=None, help="iterated outer limit")
    p.add_argument("--k-max", type=int, default=None, help="rectangle trace length")
    p.add_argument("--aspect", type=_arg(parse_aspect), default=Fraction(1))
    p.add_argument("--tolerance", type=_arg(parse_positive), default=1e-6)
    _add_common(p)
    p.set_defaults(func=cmd_modes)

    p = sub.add_parser("uniformity", help="limit probes, scans, classification")
    p.add_argument("--array", choices=ARRAY_CHOICES, default="lee")
    p.add_argument("--s", type=_arg(parse_complex), default=None)
    p.add_argument("--window", type=_arg(parse_window), default=(512, 4096),
                   help="grid extents as MxN")
    p.add_argument("--tolerance", type=_arg(parse_positive), default=1e-6)
    p.add_argument("--block", type=int, default=8)
    p.add_argument("--reach", type=int, default=None, help="scan reach in N")
    p.add_argument("--threshold", type=_arg(parse_positive), default=1e-2)
    _add_common(p)
    p.set_defaults(func=cmd_uniformity)

    p = sub.add_parser("zeros", help="critical-line zero table")
    p.add_argument("--t-lo", type=float, default=10.0)
    p.add_argument("--t-hi", type=float, default=25.0)
    p.add_argument("--step", type=float, default=0.01)
    _add_common(p)
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("eta", help="evaluate the alternating series")
    p.add_argument("--s", type=_arg(parse_complex), required=True)
    p.add_argument("--order", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_eta)

    p = sub.add_parser("zeta", help="evaluate zeta, or its exceptional-point value")
    p.add_argument("--s", type=_arg(parse_complex), default=None)
    p.add_argument("--k", type=int, default=None,
                   help="exceptional point index instead of --s")
    _add_common(p)
    p.set_defaults(func=cmd_zeta)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        record, header, rows_of = args.func(args)
        _write(args, record, header, rows_of)
    except ZdlError as err:
        failure = {**_SCHEMA, "error": type(err).__name__, "message": str(err)}
        sys.stderr.write(json.dumps(failure) + "\n")
        return 2
    return 1 if record.get("mismatches") else 0  # beta table mismatch


if __name__ == "__main__":
    sys.exit(main())
