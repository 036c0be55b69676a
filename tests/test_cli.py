"""Command-line behavior through the in-process entry point."""

import argparse
import csv
import io
import json
import math
import re
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from zdl import arithmetic, cli, double_array, summation_diagnostics, zeta_at_exceptional
from zdl.cli import main, parse_aspect, parse_complex, parse_positive, parse_window

from oracles import ZETA2


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_parse_complex_forms():
    assert parse_complex("2") == 2 + 0j
    assert parse_complex("0.5+14.13i") == 0.5 + 14.13j
    assert parse_complex("-3i") == -3j
    assert parse_complex("1+2j") == 1 + 2j
    assert parse_complex(" 0.75 ") == 0.75 + 0j
    with pytest.raises(argparse.ArgumentTypeError):
        parse_complex("abc")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_complex("nan")


def test_parse_window_and_aspect():
    assert parse_window("512x4096") == (512, 4096)
    assert parse_window("16X32") == (16, 32)
    with pytest.raises(argparse.ArgumentTypeError):
        parse_window("512")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_window("0x16")
    assert parse_aspect("2/3") == Fraction(2, 3)
    with pytest.raises(argparse.ArgumentTypeError):
        parse_aspect("-1")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_aspect("zero")


def test_beta_json_golden_rows(capsys):
    code, out, err = run(capsys, "beta", "--n-max", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["mismatches"] == 0
    rows = {row["n"]: row for row in payload["rows"]}
    assert rows[1] == {
        "n": 1, "omega": 0, "liouville": 1,
        "beta_definition": 1, "beta_closed": 1, "mismatch": False,
    }
    assert rows[2]["beta_closed"] == -2
    assert rows[3]["beta_closed"] == 0
    assert rows[4]["beta_closed"] == 1
    assert rows[8]["beta_closed"] == -2


def test_beta_csv_golden_rows(capsys):
    code, out, err = run(capsys, "beta", "--n-max", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,omega,liouville,beta_definition,beta_closed,mismatch"
    assert lines[1] == "1,0,1,1,1,0"
    assert lines[2] == "2,1,-1,-2,-2,0"
    assert lines[3] == "3,1,-1,0,0,0"


def test_beta_mismatch_forces_exit_one(capsys, monkeypatch):
    import zdl.cli as cli_module

    real = cli_module.beta_definition_table

    def broken(liouville):
        out = real(liouville).copy()
        out[5] += 1
        return out

    monkeypatch.setattr(cli_module, "beta_definition_table", broken)
    code, out, err = run(capsys, "beta", "--n-max", "10")
    assert code == 1
    assert json.loads(out)["mismatches"] == 1


def test_identity_command(capsys):
    code, out, err = run(capsys, "identity", "--s", "2", "--K", "1000")
    assert code == 0
    payload = json.loads(out)
    assert payload["residual"] <= 1e-9
    assert payload["residual"] <= payload["tail_bound"]


def test_identity_rejects_left_of_half(capsys):
    code, out, err = run(capsys, "identity", "--s", "0.4")
    assert code == 2
    assert out == ""
    failure = json.loads(err)
    assert failure["error"] == "DomainError"
    assert failure["schema"] == 1


def test_eta_command(capsys):
    code, out, err = run(capsys, "eta", "--s", "1")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"]["re"] - math.log(2.0)) <= 1e-12
    assert payload["value"]["im"] == 0.0


def test_zeta_command_regular_and_exceptional(capsys):
    code, out, err = run(capsys, "zeta", "--s", "2")
    assert code == 0
    assert abs(json.loads(out)["value"]["re"] - ZETA2) <= 1e-12

    code, out, err = run(capsys, "zeta", "--k", "1")
    assert code == 0
    payload = json.loads(out)
    expected = zeta_at_exceptional(1).value
    assert abs(payload["value"]["re"] - expected.real) <= 1e-15
    assert abs(payload["value"]["im"] - expected.imag) <= 1e-15
    assert payload["exceptional_k"] == 1


@pytest.mark.parametrize(
    "argv, error",
    [(("eta", "--s", "0.5+1000000i", "--order", "380"), "DomainError"),
     (("zeta", "--s", "1+1e-310i", "--format", "csv"), "PoleError")],
)
def test_evaluations_without_a_finite_result_exit_two(capsys, argv, error):
    # Each printed an inf once: an error_estimate of Infinity, and a
    # zeta value of -inf with an estimate of inf.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize(
    "argv",
    [
        # From |im s| = 3e307 on, default_order took the ceil of an
        # infinite order; near 1e300 it printed two 300-digit numbers.
        ("eta", "--s", "2+1e308i"),
        ("eta", "--s", "2+1e300i"),
        ("zeta", "--s", "2+1e308i"),
        ("modes", "--array", "lee", "--s", "2+1e308i"),
        ("uniformity", "--array", "lee", "--s", "2+1e308i"),
        ("zeros", "--t-hi", "1e308"),
        # _grid took the ceil of an infinite point count.
        ("zeros", "--t-lo", "10", "--t-hi", "20", "--step", "1e-310"),
        # cmd_zeta formed k * EXCEPTIONAL_SPACING before k was refused.
        ("zeta", "--k", str(10**400)),
        # _rectangle_trace multiplied int64 rows by a term past int64.
        ("modes", "--array", "cesaro", "--aspect", "1/100000000000000000000", "--k-max", "4"),
        ("modes", "--array", "zeros", "--aspect", "1e-300", "--k-max", "4"),
        # The signed-square series overflowed, with four RuntimeWarnings,
        # before zeta(2s) refused.
        ("identity", "--s", "1e308"),
    ],
)
def test_numbers_the_parser_takes_are_refused_with_one_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    failure = json.loads(err)
    assert list(failure) == ["schema", "error", "message"]
    assert len(failure["message"]) < 200


def test_identity_names_the_s_whose_double_overflows(capsys):
    code, out, err = run(capsys, "identity", "--s", "1e308")
    assert (code, out) == (2, "")
    assert "--s (1e+308+0j)" in json.loads(err)["message"]


@pytest.mark.parametrize(
    "argv",
    [
        # Each took -re(s) log n past the float range, with a RuntimeWarning.
        ("eta", "--s", "1e308"),
        ("zeta", "--s", "1e308"),
        ("eta", "--s", "1e308+1i"),
        ("modes", "--array", "lee", "--s", "1e308"),
        ("uniformity", "--array", "lee", "--s", "1e308", "--window", "16x16"),
        ("identity", "--s", "5e307"),
        # The bridge factor rounded to 0 here, and zeta was refused.
        ("zeta", "--s", "0.9999999999999999"),
    ],
)
def test_extreme_accepted_numbers_run_without_a_warning(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    json.loads(out, parse_constant=lambda c: pytest.fail(f"non-finite {c}"))


def test_zeta_needs_exactly_one_selector(capsys):
    code, out, err = run(capsys, "zeta", "--s", "2", "--k", "1")
    assert code == 2
    code, out, err = run(capsys, "zeta")
    assert code == 2


def test_modes_on_the_zero_array(capsys):
    code, out, err = run(
        capsys, "modes", "--array", "zeros", "--outer", "16", "--k-max", "8"
    )
    assert code == 0
    payload = json.loads(out)
    assert [r["mode"] for r in payload["reports"]] == [
        "row_iterated", "column_iterated", "pringsheim_diagonal",
    ]
    for report in payload["reports"]:
        assert report["verdict"]["kind"] == "converged"
        assert report["verdict"]["value"] == {"re": 0.0, "im": 0.0}


def test_modes_array_parameter_rules(capsys):
    code, out, err = run(capsys, "modes", "--array", "lee", "--outer", "64",
                         "--k-max", "8")
    assert code == 2
    assert json.loads(err)["error"] == "DomainError"
    code, out, err = run(capsys, "modes", "--array", "cesaro", "--s", "2",
                         "--outer", "16", "--k-max", "8")
    assert code == 2


def test_uniformity_on_the_zero_array(capsys):
    args = ("uniformity", "--array", "zeros", "--window", "32x32",
            "--reach", "64", "--block", "4")
    code, out, err = run(capsys, *args)
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "uniformity"
    assert len(payload["probes"]) == 5
    assert [s["quantity"] for s in payload["scans"]] == [
        "needed_criterion", "lee_verified_criterion",
    ]
    assert len(payload["classification"]) == 4

    code, out, err = run(capsys, *args, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "quantity,outer_label,outer_value,sup,threshold,verdict"
    assert len(lines) == 1 + sum(len(s["outer_values"]) for s in payload["scans"])


def test_zeros_command(capsys):
    code, out, err = run(capsys, "zeros", "--t-lo", "14", "--t-hi", "15")
    assert code == 0
    payload = json.loads(out)
    kinds = [z["kind"] for z in payload["zeros"]]
    assert kinds == ["critical_line", "exceptional", "exceptional"]
    assert abs(payload["zeros"][0]["t"] - 14.134725) <= 1e-4
    assert {z["k"] for z in payload["zeros"][1:]} == {1, -1}
    for z in payload["zeros"]:
        assert z["residual"] <= 1e-9

    code, out, err = run(capsys, "zeros", "--t-lo", "14", "--t-hi", "15",
                         "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "kind,k_or_t,re_s,im_s,residual"
    assert len(lines) == 4


def test_zeros_command_past_the_doubled_order_cap(capsys):
    code, out, err = run(capsys, "zeros", "--t-lo", "185", "--t-hi", "200")
    assert code == 0
    kinds = [z["kind"] for z in json.loads(out)["zeros"]]
    assert kinds.count("critical_line") == 8


@pytest.mark.parametrize(
    "argv",
    [
        # a reach below the largest M would leave empty block tails at a zero
        ("uniformity", "--array", "lee", "--s", "0.5+14.134725i",
         "--window", "64x256", "--reach", "0"),
        ("uniformity", "--array", "lee", "--s", "0.5+14.134725i",
         "--window", "64x256", "--reach", "-5"),
        ("identity", "--s", "2", "--K", "10000000000000"),
        # about 7.8e7 divisor hits, above MAX_GRID_CELLS
        ("modes", "--array", "lee", "--s", "2", "--k-max", "5000000"),
        # 16001 block heights, a one-column scan window of 2.6e8 cells;
        # then a dense block tail of 9 x 1e7 terms, above MAX_GRID_CELLS
        ("uniformity", "--array", "interchange_ratio", "--window", "64x256",
         "--block", "16000", "--reach", "20000"),
        ("uniformity", "--array", "cesaro", "--window", "64x256",
         "--reach", "10000000"),
        # a dense 9000 x 9000 rectangle, 8.1e7 cells
        ("modes", "--array", "cesaro", "--k-max", "9000"),
        # a zero-scan grid of 1e13 points, above MAX_SCAN_POINTS
        ("zeros", "--t-lo", "10", "--t-hi", "20", "--step", "1e-12"),
        # one row past MAX_BETA_ROWS, and tables with no row
        ("beta", "--n-max", "1048577"),
        ("beta", "--n-max", "0"),
        ("beta", "--n-max", "-1"),
    ],
)
def test_refused_bounds_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "InvalidBoundError"


@pytest.mark.parametrize(
    "n_max, message",
    [("5000000", "beta --n-max must be <= 2**20 (1048576) rows, got 5000000"),
     ("0", "beta --n-max must be >= 1, got 0"),
     ("-1", "beta --n-max must be >= 1, got -1")],
)
def test_beta_table_is_refused_before_the_sieve(capsys, no_numpy, n_max, message):
    # The rows stream, so the cap bounds time: 2**20 rows take about 13 s
    # as JSON on 2 vCPUs, though the sieve itself accepts any bound up to
    # 2**31 - 1.  The sieve would also take n_max = 0, a table of no rows.
    no_numpy(cli)
    no_numpy(arithmetic)
    code, out, err = run(capsys, "beta", "--n-max", n_max)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"schema": 1, "error": "InvalidBoundError", "message": message}


@pytest.mark.parametrize(
    "argv",
    [
        ("modes", "--array", "lee", "--s", "2", "--k-max", "5000000"),
        ("modes", "--array", "lee", "--s", "2", "--k-max", "10000000", "--aspect", "1/2"),
        ("modes", "--array", "cesaro", "--k-max", "9000"),
        # an outer limit above 2**26: a sieve of its 1e8 rows took 6 s and
        # 603 MB only to be refused
        ("modes", "--array", "lee", "--s", "2", "--outer", "100000000"),
        # a window of 1.7e9 cells, above 2**26; 1e8 rows were sieved
        ("uniformity", "--array", "lee", "--s", "2", "--window", "100000000x16"),
        # 2e9 block heights; a sieve to the reach would take about 10 GB
        ("uniformity", "--array", "lee", "--s", "2", "--block", "2000000000",
         "--reach", "2000000000"),
        # a block tail of about 3e8 divisor hits, at a block the scan takes
        ("uniformity", "--array", "lee", "--s", "2", "--block", "300",
         "--reach", "100000000"),
    ],
)
def test_oversized_rectangle_is_refused_before_the_sieve(capsys, no_sieve, argv):
    # pair_bound and the window and outer-limit checks read no row, so
    # the array the command builds never sieves.
    code, out, err = run(capsys, *argv)
    assert (code, out, json.loads(err)["error"]) == (2, "", "InvalidBoundError")
    assert no_sieve == []


def test_block_past_one_scan_window_is_refused_at_once(capsys):
    # A dense column holds a pair for every one of the 4001 block
    # heights, so one scan window would hold 1.6e7 cells: a scan that
    # takes them runs for minutes at over 500 MB.
    start = time.perf_counter()
    code, out, err = run(capsys, "uniformity", "--array", "cesaro", "--block", "4000")
    assert time.perf_counter() - start < 1.0
    assert (code, out, json.loads(err)["error"]) == (2, "", "InvalidBoundError")
    assert json.loads(err)["message"].endswith("use a block of at most 356")


@pytest.mark.parametrize("m_max, n_max", [(8, 16), (16, 8)])
def test_small_window_is_refused_before_the_sieve(capsys, no_sieve, m_max, n_max):
    code, out, err = run(
        capsys, "uniformity", "--array", "lee", "--s", "2", "--window", f"{m_max}x{n_max}"
    )
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "schema": 1,
        "error": "InsufficientWindowError",
        "message": f"probe window {m_max} x {n_max} is below the 16 x 16 minimum",
    }
    assert no_sieve == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (("eta", "--s", "nan"), "argument --s: complex parameter must be finite, got 'nan'"),
        (("uniformity", "--window", "5x"),
         "argument --window: window must look like 512x4096, got '5x'"),
        (("modes", "--n-max", "10"), "unrecognized arguments: --n-max 10"),
        (("uniformity", "--n-max", "10"), "unrecognized arguments: --n-max 10"),
    ],
)
def test_usage_errors_say_what_to_change(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err


def test_output_is_deterministic_and_file_equal(capsys, tmp_path):
    args = ("modes", "--array", "cesaro", "--outer", "16", "--k-max", "8")
    code, first, _ = run(capsys, *args)
    code, second, _ = run(capsys, *args)
    assert first == second

    out_path = tmp_path / "modes.json"
    code, piped, _ = run(capsys, *args, "--out", str(out_path))
    assert piped == ""
    assert out_path.read_text() == first



def test_parse_positive():
    assert parse_positive("1e-6") == 1e-6
    assert parse_positive("0.02") == 0.02
    for bad in ("nan", "inf", "-1", "0", "-0.0", "small"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_positive(bad)


@pytest.mark.parametrize("bad", ["nan", "-1", "inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ("modes", "--array", "zeros", "--tolerance"),
        ("uniformity", "--array", "zeros", "--tolerance"),
        ("uniformity", "--array", "zeros", "--threshold"),
    ],
)
def test_tolerance_and_threshold_must_be_positive_and_finite(capsys, argv, bad):
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, bad])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "positive" in err


def test_unwritable_out_exits_two(capsys, tmp_path):
    for fmt in ("json", "csv"):
        target = tmp_path / "missing" / f"beta.{fmt}"
        code, out, err = run(capsys, "beta", "--n-max", "5", "--format", fmt,
                             "--out", str(target))
        assert code == 2
        assert out == ""
        failure = json.loads(err)
        assert list(failure) == ["schema", "error", "message"]
        assert failure["error"] == "OutputError"
        assert str(target) in failure["message"]
        assert not target.exists()


def test_json_opens_with_schema_then_command(capsys):
    for argv in (("beta", "--n-max", "2"), ("eta", "--s", "2"),
                 ("uniformity", "--array", "zeros", "--window", "16x16", "--reach", "32")):
        code, out, err = run(capsys, *argv)
        assert list(json.loads(out))[:2] == ["schema", "command"]
        assert json.loads(out)["command"] == argv[0]


def _writer_rows(count):
    """Row dicts mixing complex, None, bool, NaN and numpy scalar values."""
    nan = float("nan")
    values = (0.5 + 0j, np.complex128(-1.5 + 2.25j), None, 1e-300j)
    flags = (True, np.bool_(False), False)
    return [
        {"n": np.int64(i) if i % 2 else i, "value": values[i % 4],
         "flag": flags[i % 3], "x": np.float64(nan) if i % 5 else nan}
        for i in range(count)
    ]


def _writer_csv_rows(record):
    return ((r["n"], *cli._parts(r["value"]), r["flag"], r["x"]) for r in record["rows"])


def _plain_tree(value):
    """The whole record converted to plain JSON data before encoding."""
    if isinstance(value, dict):
        return {k: _plain_tree(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain_tree(v) for v in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return _plain_tree(value.tolist())
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return value


@pytest.mark.parametrize("count", [0, 1, 1000])
def test_streamed_rows_write_the_bytes_of_the_whole_record(capsys, count):
    header = ("n", "value_re", "value_im", "flag", "x")
    record = {"z": np.complex128(1 - 2j), "missing": None, "count": np.int64(count),
              "trace": np.array([1 + 1j, 2]), "pair": (np.float64(0.1), True)}
    for fmt in ("json", "csv"):
        args = SimpleNamespace(format=fmt, out=None, command="test")
        rows = cli._RowStream(iter(_writer_rows(count)))
        cli._write(args, {**record, "rows": rows}, header, _writer_csv_rows)
        out, err = capsys.readouterr()
        whole = {**record, "rows": _writer_rows(count)}
        if fmt == "json":
            want = json.dumps(_plain_tree({"schema": 1, "command": "test", **whole}),
                              indent=2) + "\n"
        else:
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([cli._cell(c) for c in row] for row in list(_writer_csv_rows(whole)))
            want = buf.getvalue()
        assert out == want, fmt
        assert err == ""


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_beta_table_streams_in_flat_memory(tmp_path, fmt, traced_peak):
    # Holding every row took 197 MiB (JSON) and 60 MiB (CSV) at this size.
    target = tmp_path / f"beta.{fmt}"
    code, peak = traced_peak(
        main, ["beta", "--n-max", "131072", "--format", fmt, "--out", str(target)]
    )
    assert code == 0
    assert peak <= 16 * 2**20, peak
    lines = target.read_text().splitlines()
    assert len(lines) == (8 * 131072 + 8 if fmt == "json" else 131073)


GOLDEN = Path(__file__).parent / "golden"

# name -> (argv, exit status).  Status 0 goldens hold stdout, status 2
# goldens hold the JSON error line written to stderr.
GOLDEN_CASES = {
    "beta": (("beta", "--n-max", "30"), 0),
    "identity": (("identity", "--s", "0.75", "--K", "1000"), 0),
    # Three chunks of the signed-square series, so a moved chunk sum shows.
    "identity_chunks": (("identity", "--s", "0.6+3i", "--K", "100000"), 0),
    "modes_lee": (("modes", "--array", "lee", "--s", "2", "--outer", "2000",
                   "--k-max", "500"), 0),
    "modes_lee_zero": (("modes", "--array", "lee", "--s", "0.5+14.134725i",
                        "--outer", "2000", "--k-max", "500", "--tolerance", "1e-3"), 0),
    "modes_cesaro": (("modes", "--array", "cesaro"), 0),
    "modes_zeros": (("modes", "--array", "zeros", "--aspect", "2"), 0),
    "modes_ratio": (("modes", "--array", "interchange_ratio", "--aspect", "2/3"), 0),
    "uniformity_lee_zero": (("uniformity", "--array", "lee", "--s", "0.5+14.134725i",
                             "--window", "64x256", "--reach", "20000"), 0),
    "uniformity_lee_s2": (("uniformity", "--array", "lee", "--s", "2",
                           "--window", "64x256", "--reach", "20000"), 0),
    "uniformity_cesaro": (("uniformity", "--array", "cesaro", "--window", "64x256",
                           "--reach", "2000"), 0),
    # The default 512x4096 window, a 1024x1024 one and one whose extents
    # leave a partial block of the settle profiles on both axes.
    "uniformity_cesaro_wide": (("uniformity", "--array", "cesaro", "--tolerance", "1e-7"), 0),
    "uniformity_ratio_1024": (("uniformity", "--array", "interchange_ratio",
                               "--window", "1024x1024", "--tolerance", "2e-6"), 0),
    "uniformity_cesaro_ragged": (("uniformity", "--array", "cesaro", "--window", "300x1001"), 0),
    "uniformity_zeros": (("uniformity", "--array", "zeros", "--window", "32x32",
                          "--reach", "64", "--block", "4"), 0),
    "uniformity_ratio": (("uniformity", "--array", "interchange_ratio",
                          "--window", "64x64", "--tolerance", "0.02",
                          "--threshold", "0.05", "--reach", "1000"), 0),
    "zeros": (("zeros", "--t-lo", "14", "--t-hi", "40"), 0),
    "zeros_scan": (("zeros", "--t-lo", "10", "--t-hi", "184", "--step", "0.002"), 0),
    "eta": (("eta", "--s", "0.5+14.13i"), 0),
    "eta_order": (("eta", "--s", "0.75+3i", "--order", "80"), 0),
    "zeta": (("zeta", "--s", "2"), 0),
    "zeta_k": (("zeta", "--k", "1"), 0),
    "identity_domain_error": (("identity", "--s", "0.4"), 2),
}

_INT = re.compile(r"-?\d+")


def _same_float(got, want, where):
    # numpy's SIMD exp/log may differ in the last bit between CPUs; values
    # at roundoff level (zero residuals, tail diameters) get an absolute floor.
    assert isinstance(got, float), where
    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-13), (where, got, want)


def _same_json(got, want, where="$"):
    if isinstance(want, float):
        _same_float(got, want, where)
        return
    assert type(got) is type(want), (where, got, want)
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            _same_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _same_json(g, w, f"{where}[{i}]")
    else:
        assert got == want, (where, got, want)


def _same_csv(got, want):
    got_rows = list(csv.reader(got.splitlines()))
    want_rows = list(csv.reader(want.splitlines()))
    assert got_rows[0] == want_rows[0]
    assert len(got_rows) == len(want_rows)
    for r, (g_row, w_row) in enumerate(zip(got_rows, want_rows)):
        assert len(g_row) == len(w_row), r
        for c, (g, w) in enumerate(zip(g_row, w_row)):
            where = (r, want_rows[0][c])
            if w == "" or _INT.fullmatch(w):
                assert g == w, where
                continue
            try:
                w_float = float(w)
            except ValueError:
                assert g == w, where
                continue
            assert not _INT.fullmatch(g), where
            _same_float(float(g), w_float, where)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_output(capsys, name, fmt):
    argv, status = GOLDEN_CASES[name]
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == status
    got, silent = (err, out) if status == 2 else (out, err)
    assert silent == ""
    want = (GOLDEN / f"{name}.{fmt}").read_text()
    if fmt == "json":
        def indents(text):
            return [len(line) - len(line.lstrip()) for line in text.splitlines()]

        assert indents(got) == indents(want)
        _same_json(json.loads(got), json.loads(want))
    else:
        _same_csv(got, want)


# Golden cases whose output streams through windows of LeeArray.pairs:
# the block-tail scan, the rectangle trace and the iterated sums.
_WINDOWED_CASES = ("uniformity_lee_zero", "uniformity_lee_s2", "modes_lee", "modes_lee_zero")


@pytest.mark.parametrize("name", _WINDOWED_CASES)
def test_window_budgets_leave_output_bytes_unchanged(capsys, monkeypatch, name):
    # Unlike the golden comparison, this sees a last-bit change, and on
    # any CPU: both runs take the same path through numpy.
    argv, _ = GOLDEN_CASES[name]
    code, default, _ = run(capsys, *argv)
    assert code == 0
    # 81 cells: one column of the 9 block heights per scan window.
    monkeypatch.setattr(summation_diagnostics, "_SCAN_CELLS", 81)
    monkeypatch.setattr(double_array, "_TRACE_ENTRIES", 5)
    monkeypatch.setattr(double_array, "_LIMIT_SLOTS", 7)
    code, tiny, _ = run(capsys, *argv)
    assert code == 0
    assert tiny == default


if __name__ == "__main__":
    # Write the golden files from the code on PYTHONPATH into DIR, by
    # default tests/golden itself:
    #   PYTHONPATH=src python tests/test_cli.py [DIR]
    # Two runs into fresh directories must agree byte for byte.
    import contextlib
    import io
    import sys

    target = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN
    target.mkdir(parents=True, exist_ok=True)
    for name, (argv, status) in GOLDEN_CASES.items():
        for fmt in ("json", "csv"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                assert main([*argv, "--format", fmt]) == status, name
            text = (err if status == 2 else out).getvalue()
            (target / f"{name}.{fmt}").write_text(text)
