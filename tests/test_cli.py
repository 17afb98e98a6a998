import csv
import io
import json
import math
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from antibidiag import (
    ReconstructionTrace,
    cli,
    errors,
    inversesolver,
    recurrence,
    solve,
    solve_weights,
    spectral,
    validate_spectrum,
)
from antibidiag.cli import main
from antibidiag.sampling import (
    MAX_DEFAULT_N,
    case_rng,
    random_moduli,
    random_rational_spectrum,
    random_spectrum,
)


def run(args):
    out = io.StringIO()
    code = main(args, out=out)
    return code, out.getvalue()


def _fresh(code: str) -> subprocess.CompletedProcess:
    """``code`` run in a fresh isolated interpreter that finds the package in src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = f"import sys; sys.path.insert(0, {src!r})\n{code}"
    return subprocess.run([sys.executable, "-I", "-c", probe], capture_output=True, text=True)


def test_a_cold_float64_call_loads_no_module_it_does_not_use():
    # a cold call pays for every import: fractions (with decimal and numbers)
    # serves only the rational backend and p/q tokens, csv only --format csv,
    # and a bare isolated interpreter loads none of these six
    probed = _fresh(
        "import io, antibidiag.cli as cli\n"
        "run = lambda *args: cli.main(list(args), out=io.StringIO())\n"
        "cli.build_parser()\n"
        "print(run('solve', '--spectrum', '3,-2,1'), run('signreg', '--spectrum', '3,-2,1'), *sys.modules)\n"
        "print(run('solve', '--backend', 'rational', '--spectrum', '3,-2,1'), *sys.modules)\n"
    )
    cold, exact = (line.split() for line in probed.stdout.splitlines())
    deferred = {"fractions", "decimal", "numbers", "csv", "dataclasses", "inspect"}
    assert (probed.returncode, cold[:2], exact[0]) == (0, ["0", "0"], "0")
    assert "antibidiag.cli" in cold and not set(cold) & deferred
    assert "fractions" in exact  # the probe sees an import once it happens


@pytest.mark.parametrize("args", [
    ["solve", "--backend", "rational", "--spectrum", "3/2,-1/2"],
    ["solve", "--spectrum", "3/2,-1/2"],
    ["solve", "--spectrum", "3,-2,1", "--format", "csv"],
    ["signreg", "--spectrum", "3,-2,1", "--format", "csv"],
])
def test_a_deferred_import_serves_the_first_request_of_a_fresh_interpreter(args):
    fresh = _fresh(f"import antibidiag.cli as cli\nsys.exit(cli.main({args!r}))")
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (*run(args), "")


def test_solve_worked_example():
    code, text = run(["solve", "--spectrum", "3,-2,1"])
    assert code == 0
    report = json.loads(text)
    assert report["a"] == pytest.approx([2.0, 2**0.5, 3**0.5], abs=1e-12)
    assert report["a_squared"] == pytest.approx([2.0, 2.0, 3.0], abs=1e-12)
    assert report["jacobi"][0][0] == pytest.approx(2.0)
    assert report["diagnostics"]["min_modulus_gap"] == 1.0
    assert report["warnings"] == []


def test_solve_rejects_with_exit_1(capsys):
    for args in (["solve", "--spectrum", "1,2"],
                 ["solve", "--spectrum", "2,-2"],
                 ["solve", "--spectrum", "-1"],
                 ["solve", "--spectrum", ""]):
        code, text = run(args)
        assert code == 1
        assert text == ""  # no partial report


def test_usage_error_exit_3():
    code, _ = run(["solve"])  # neither --spectrum nor --input
    assert code == 3
    code, _ = run(["bogus-command"])
    assert code == 3


def test_json_report_roundtrips():
    code, text = run(["solve", "--spectrum", "5,-3.5,2,-0.25"])
    assert code == 0
    report = json.loads(text)
    assert json.loads(json.dumps(report)) == report


def test_rational_solve_exact_strings():
    code, text = run(["solve", "--spectrum", "3,-2,1", "--backend", "rational"])
    assert code == 0
    report = json.loads(text)
    assert report["a"] is None
    assert report["a_squared"] == ["2", "2", "3"]
    assert report["antibidiagonal"] is None


def test_rational_rejects_root_extraction_commands():
    code, _ = run(["roundtrip", "--spectrum", "3,-2,1", "--backend", "rational"])
    assert code == 3
    code, _ = run(["sqrt", "--mus", "9,4,1", "--backend", "rational"])
    assert code == 3
    for spectrum in ("3,-2,1", "1,2"):  # the status does not depend on the input
        code, _ = run(["solve", "--roundtrip", "--spectrum", spectrum, "--backend", "rational"])
        assert code == 3


def test_roundtrip_command():
    code, text = run(["roundtrip", "--spectrum", "3,-2,1"])
    assert code == 0
    report = json.loads(text)
    assert report["max_error"] <= 1e-10
    assert sorted(report["recovered"]) == pytest.approx([-2.0, 1.0, 3.0], abs=1e-10)


def test_sqrt_command():
    code, text = run(["sqrt", "--mus", "9,4,1"])
    assert code == 0
    report = json.loads(text)
    want = [[3.0, 6**0.5, 0.0], [6**0.5, 6.0, 2 * 2**0.5], [0.0, 2 * 2**0.5, 5.0]]
    for got_r, want_r in zip(report["jacobi"], want):
        assert got_r == pytest.approx(want_r, abs=1e-12)


def test_forward_command():
    code, text = run(["forward", "--a", "2,1.4142135623730951,1.7320508075688772", "--eigs"])
    assert code == 0
    report = json.loads(text)
    assert report["systems_match"]
    assert report["p_coeffs"] == pytest.approx([6.0, -5.0, -2.0, 1.0], abs=1e-12)
    assert report["eigenvalues"] == pytest.approx([-2.0, 1.0, 3.0], abs=1e-10)


def test_forward_rejects_nonpositive():
    code, _ = run(["forward", "--a", "1,-2"])
    assert code == 1


def test_signreg_command():
    code, text = run(["signreg", "--spectrum", "3,-2,1"])
    assert code == 0
    report = json.loads(text)
    assert report["all_minors_conforming"]
    assert report["signature"] == [1, -1, -1]
    assert report["class_plus_power"] is not None and report["class_plus_power"] <= 2


def test_file_inputs(tmp_path):
    doc = tmp_path / "spec.json"
    doc.write_text(json.dumps({"spectrum": [3, -2, 1]}))
    code, text = run(["solve", "--input", str(doc)])
    assert code == 0
    assert json.loads(text)["a_squared"] == pytest.approx([2.0, 2.0, 3.0], abs=1e-12)
    csvdoc = tmp_path / "spec.csv"
    csvdoc.write_text("3\n-2\n1\n")
    code2, text2 = run(["solve", "--input", str(csvdoc)])
    assert code2 == 0 and json.loads(text2)["a_squared"] == json.loads(text)["a_squared"]


@pytest.mark.parametrize("suffix", ["csv", "json"])
@pytest.mark.parametrize("backend", ["float64", "rational"])
def test_an_input_file_with_a_byte_order_mark_reads_as_without(suffix, backend):
    inputs = Path(__file__).resolve().parent / "inputs"
    with_bom, plain = inputs / f"spectrum-bom.{suffix}", inputs / f"spectrum.{suffix}"
    assert with_bom.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    solved = run(["solve", "--backend", backend, "--input", str(plain)])
    assert solved[0] == 0 and run(["solve", "--backend", backend, "--input", str(with_bom)]) == solved


def test_csv_and_pretty_formats():
    code, text = run(["solve", "--spectrum", "3,-2,1", "--format", "csv"])
    assert code == 0
    assert any(line.startswith("a,") for line in text.splitlines())
    code, text = run(["solve", "--spectrum", "3,-2,1", "--format", "pretty"])
    assert code == 0
    assert "jacobi" in text


def test_conditioning_warning():
    code, text = run(["solve", "--spectrum", "1.0000000001,-1"])
    assert code == 0
    report = json.loads(text)
    assert any("modulus gap" in w for w in report["warnings"])


def test_roundtrip_reports_the_gap_warning():
    code, text = run(["roundtrip", "--spectrum=3,-2,1.9999999"])
    assert code == 0
    assert any("modulus gap" in w for w in json.loads(text)["warnings"])


def test_gap_warning_is_relative_to_lambda_1():
    # The spectrum 3,-2,1 scaled by 1e-9: its gaps are below 1e-6 in absolute
    # terms, but the reconstruction is as well conditioned as the unscaled one.
    code, text = run(["solve", "--roundtrip", "--spectrum=3e-9,-2e-9,1e-9"])
    assert code == 0
    report = json.loads(text)
    assert report["warnings"] == []
    assert report["diagnostics"]["roundtrip_error"] < 1e-12


def test_verify_all_deterministic():
    args = ["verify-all", "--sizes", "1,2,3", "--cases", "3", "--seed", "7"]
    code1, text1 = run(args)
    code2, text2 = run(args)
    assert code1 == code2 == 0
    assert text1 == text2
    assert json.loads(text1)["passed"]


@pytest.mark.parametrize(
    "args, status",
    [
        (["solve", "--spectrum", "inf,-1"], 1),  # rejected by validation
        (["solve", "--spectrum", "3,-nan"], 1),
        (["solve", "--spectrum", "1e200,-1e199"], 2),  # a_2^2 overflows
        (["forward", "--a", "1e200,1e200,1e200"], 2),  # a_k^2 overflows
        # graded r = 1e-16: a square underflows in both float64 passes
        (["solve", "--spectrum=" + ",".join(repr((-1e-16) ** k) for k in range(12))], 2),
        (["sqrt", "--mus", "1e-300,1e-301"], 2),
        (["solve", "--spectrum", "1/0,-1"], 3),  # unreadable input
        (["solve", "--spectrum", "1/0,-1", "--backend", "rational"], 3),
        (["solve", "--spectrum", "3,-two,1"], 3),
        (["solve", "--spectrum", "1e5000,-1,1/2"], 1),  # float64 reads inf
        (["solve", "--spectrum", "3,-2,1", "--tol-abs", "-1"], 3),
        (["verify-all", "--sizes", "1,x"], 3),
    ],
)
def test_exit_status_classes(args, status):
    assert run(args)[0] == status


def test_unreadable_input_files_are_usage_errors(tmp_path):
    assert run(["solve", "--input", str(tmp_path / "missing.json")])[0] == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["solve", "--input", str(bad)])[0] == 3
    scalar = tmp_path / "scalar.json"
    scalar.write_text("3")
    assert run(["solve", "--input", str(scalar)])[0] == 3


def test_exact_report_renders_past_the_int_str_limit():
    spectrum = random_rational_spectrum(case_rng(0, "render", 64), 64, max_num=4000)
    limit = sys.get_int_max_str_digits()
    code, text = run(
        ["solve", "--backend", "rational", "--spectrum=" + ",".join(map(str, spectrum))]
    )
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    report = json.loads(text)
    assert len(report["a_squared"]) == 64
    assert max(len(v) for v in report["a_squared"]) > limit
    assert report["diagnostics"]["max_residual"] == "0"


@pytest.mark.parametrize(
    "args, status",
    [
        (["forward", "--a", "inf,1"], 1),
        (["forward", "--a", "1,nan"], 1),
        (["signreg", "--a", "inf,1"], 1),
        (["forward", "--a", "1e300,1e-300"], 2),  # a_2^2 underflows to 0.0
        (["forward", "--a", "1e200,1e200"], 2),  # a_2^2 overflows
        (["verify-all", "--sizes", "100"], 3),
        (["verify-all", "--sizes", "0"], 3),
        (["verify-all", "--sizes", "3,-2"], 3),
        (["verify-all", "--sizes", "2,3", "--cases", "0"], 3),
        (["verify-all", "--cases", "-1"], 3),
        (["verify-all", "--sizes", ","], 3),
        (["verify-all", "--sizes="], 3),
        (["signreg", "--a", "1,2,3", "--tol-abs", "nan"], 3),
        (["solve", "--spectrum", "3,-2,1", "--root-tol", "inf"], 3),
    ],
)
def test_entry_range_and_size_range_statuses(args, status):
    assert run(args)[0] == status


def test_tiny_spectrum_solves_at_its_own_scale():
    # root separation is relative to the largest modulus, not absolute
    code, text = run(["solve", "--roundtrip", "--spectrum=3e-13,-2e-13,1e-13"])
    assert code == 0
    assert json.loads(text)["diagnostics"]["roundtrip_error"] < 1e-12


@pytest.mark.parametrize("v", ["2.5", "1e-300", "1e300"])
def test_n1_requests_return_the_one_entry_as_the_eigenvalue(v):
    # a 1 x 1 matrix (c) has the point Gershgorin interval [c, c], which the
    # eigensolve returns as it is; at 1e-300 a widened interval would not round back
    x = float(v)
    report = json.loads(run(["roundtrip", "--spectrum", v])[1])
    assert report["recovered"] == [x] and report["max_error"] == 0.0
    report = json.loads(run(["solve", "--roundtrip", "--spectrum", v])[1])
    assert report["diagnostics"]["roundtrip_error"] == 0.0
    assert json.loads(run(["forward", "--a", v, "--eigs"])[1])["eigenvalues"] == [x]
    report = json.loads(run(["sqrt", "--mus", v])[1])
    (j,), = report["jacobi"]  # (sqrt(x))**2, which may round off x
    assert report["diagnostics"]["spectrum_error"] == abs(j - x) / x


def test_sqrt_whose_codiagonal_squares_underflow_is_a_breakdown(capsys):
    code, text = run(["sqrt", "--mus", "1e-200,1e-201"])
    assert code == 2 and text == ""
    assert "[SquareOutOfRange]" in capsys.readouterr().err


def test_sqrt_whose_square_roots_round_to_one_float_is_a_breakdown(capsys):
    # the tuple is strictly decreasing, but both square roots are 1.7320508075688772
    code, text = run(["sqrt", "--mus", "3,2.9999999999999996"])
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert "[DuplicateRoots]: mu_1 = 3.0 and mu_2 = 2.9999999999999996" in err
    assert "lambda" not in err


@pytest.mark.parametrize("mus, named", [("inf,1", "mu_1 = inf"), ("1e400,1", "mu_1 = inf"), ("4,nan", "mu_2 = nan")])
def test_sqrt_rejects_a_non_finite_mu_by_its_own_name(capsys, mus, named):
    # 1e400 reads as inf in float64; nan is not finite, not "not strictly positive"
    assert run(["sqrt", "--mus", mus]) == (1, "")
    err = capsys.readouterr().err
    assert f"rejected [NonFiniteValue]: {named} is not finite" in err and "lambda" not in err


@pytest.mark.parametrize("spectrum, named", [("nan", "nan"), ("-inf", "-inf"), ("nan,-1", "nan")])
def test_solve_rejects_a_non_finite_lambda_1_as_non_finite(capsys, spectrum, named):
    assert run(["solve", "--spectrum=" + spectrum]) == (1, "")
    assert f"rejected [NonFiniteValue]: lambda_1 = {named} is not finite" in capsys.readouterr().err


@pytest.mark.xfail(strict=True, reason="the sqrt report has no warnings key, so a J whose "
                   "spectrum is off by more than ROUNDTRIP_TOL exits 0 unwarned")
@pytest.mark.parametrize("mus", ["4,1e-20", "4,1e-300"])
def test_sqrt_warns_of_a_spectrum_error_above_the_round_trip_tolerance(mus):
    # spectrum_error is 1.97e-6 at 1e-20 and 1.36e134 at 1e-300
    code, text = run(["sqrt", "--mus", mus])
    assert code == 0
    report = json.loads(text)
    assert report["diagnostics"]["spectrum_error"] <= inversesolver.ROUNDTRIP_TOL or report.get("warnings")


def test_sqrt_whose_codiagonal_squares_overflow_is_a_breakdown(capsys):
    # J = A A has the codiagonal entry 1e225, which squares to inf
    code, text = run(["sqrt", "--mus", "1e300,1"])
    assert code == 2 and text == ""
    assert "[SquareOutOfRange]" in capsys.readouterr().err


@pytest.mark.parametrize("spectrum", ["1e60,-1", "1e20,-1,0.5", "1.5e308,-1,0.5"])
def test_wide_range_spectrum_solves(spectrum):
    # bisection runs to its width however wide the Gershgorin interval, its
    # midpoints stay finite near the largest float, and roots are separated
    # relative to each pair, not to the largest modulus
    code, text = run(["solve", "--roundtrip", "--spectrum", spectrum])
    assert code == 0
    assert json.loads(text)["diagnostics"]["roundtrip_error"] <= 1e-12


# Every command, with an output that holds a list of dicts (signreg's orders,
# verify-all's results) or a field with a comma (the gap warning).
_CSV_REQUESTS = [
    ["solve", "--roundtrip", "--spectrum", "3,-2,1"],
    ["solve", "--spectrum", "1.0000000001,-1"],
    ["solve", "--backend", "rational", "--spectrum", "3,-2,1"],
    ["forward", "--a", "2,1,3", "--eigs"],
    ["roundtrip", "--spectrum", "3,-2,1"],
    ["sqrt", "--mus", "9,4,1"],
    ["signreg", "--a", "1,2,3"],
    ["verify-all", "--sizes", "2,3", "--cases", "2"],
]


@pytest.mark.parametrize("args", _CSV_REQUESTS, ids=lambda a: a[0])
def test_csv_rows_start_with_a_key(args):
    code, text = run(args + ["--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(text)))
    assert rows and all(row and row[0] and row[0][0].isalpha() for row in rows)
    assert not any("{" in field for row in rows for field in row)


def test_csv_renders_lists_of_dicts_as_indexed_keys_and_quotes_commas():
    rows = {row[0]: row[1:] for row in csv.reader(io.StringIO(
        run(["signreg", "--a", "1,2,3", "--format", "csv"])[1]))}
    assert rows["orders.1.order"] == ["1"] and rows["orders.3.strict"] == ["True"]
    text = run(["verify-all", "--sizes", "2,3", "--cases", "2", "--format", "csv"])[1]
    rows = {row[0]: row[1:] for row in csv.reader(io.StringIO(text))}
    assert rows["results.6.battery"] == ["jacobi-sqrt"]
    (warning,) = json.loads(run(["solve", "--spectrum", "1.0000000001,-1"])[1])["warnings"]
    assert "," in warning
    text = run(["solve", "--spectrum", "1.0000000001,-1", "--format", "csv"])[1]
    assert ["warnings", warning] in csv.reader(io.StringIO(text))


def test_pretty_renders_lists_of_dicts_as_indexed_blocks():
    code, text = run(["signreg", "--a", "1,2,3", "--format", "pretty"])
    assert code == 0
    assert "{" not in text
    assert "orders:\n  1:\n    order: 1\n    conforming: True\n" in text


# verify-all's report at seed 7, fixed as a reference.  n = 13 lies outside
# the recurrence (n <= 12) and square-root (n <= 10) batteries and inside the
# sigma battery (n >= 3).
_VERIFY_ALL_PINNED = {
    "seed": 7,
    "sizes": [1, 2, 3, 4, 5, 13],
    "results": [
        {"battery": "roundtrip", "passed": True,
         "detail": "worst relative eigenvalue error 2.145e-14"},
        {"battery": "recurrence-equivalence", "passed": True,
         "detail": "p- and q-systems agree exactly"},
        {"battery": "sigma-inequality", "passed": True,
         "detail": "sigma_3 > sigma_1*sigma_2 on all samples"},
        {"battery": "sign-regularity", "passed": True,
         "detail": "reconstructed matrices conform to the signature sequence"},
        {"battery": "cauchy-binet", "passed": True,
         "detail": "Cauchy-Binet identity exact on all samples"},
        {"battery": "jacobi-sqrt", "passed": True,
         "detail": "squares are Jacobi with the prescribed spectrum"},
    ],
    "passed": True,
}


@pytest.mark.parametrize("backend", ["float64", "rational"])
def test_verify_all_report_is_pinned(backend):
    code, text = run(["verify-all", "--seed", "7", "--sizes", "1,2,3,4,5,13", "--cases", "4",
                      "--backend", backend])
    assert code == 0
    assert json.loads(text) == _VERIFY_ALL_PINNED


def test_verify_all_draws_the_pinned_cases(monkeypatch):
    # The report above cannot show which samples a passing battery drew, so
    # pin the (seed, label, index) of every case rng as well.
    drawn = []
    monkeypatch.setattr(cli, "case_rng", lambda *key: drawn.append(key) or case_rng(*key))
    sizes = (1, 2, 3, 4, 5, 13)
    run(["verify-all", "--seed", "7", "--sizes", ",".join(map(str, sizes)), "--cases", "4"])
    plan = [("roundtrip", sizes, 4), ("recur", [n for n in sizes if n <= 12], 4),
            ("sigma", [n for n in sizes if n >= 3], 4), ("signreg", (2, 3, 4), 1)]
    want = [(7, f"{label}{n}", i) for label, ns, k in plan for n in ns for i in range(k)]
    want += [(7, "cb", i) for i in range(4)]
    want += [(7, f"sqrt{n}", i) for n in sizes if n <= 10 for i in range(2)]
    assert drawn == want


def test_verify_all_size_limit_is_the_samplers():
    rng = case_rng(0, "limit", 0)
    assert len(random_moduli(rng, MAX_DEFAULT_N)) == MAX_DEFAULT_N
    with pytest.raises(ValueError):
        random_moduli(rng, MAX_DEFAULT_N + 1)


def test_verify_all_reports_a_roundtrip_breakdown():
    # float64 breaks down on the n = 99 sample; the other batteries still run
    code, text = run(["verify-all", "--sizes", "99", "--cases", "1"])
    assert code == 2
    results = {r["battery"]: r for r in json.loads(text)["results"]}
    roundtrip = results.pop("roundtrip")
    assert not roundtrip["passed"]
    assert roundtrip["detail"].startswith("breakdown at n=99 case 0: NonPositiveA: a_14^2 = ")
    assert len(results) == 5 and all(r["passed"] for r in results.values())


# (check patched in cli, its failing replacement, battery, detail); with
# --sizes 1,2,3 --cases 1 each battery fails on its first case
_FAILING_CHECKS = [
    ("solve_roundtrip", lambda spec, b: SimpleNamespace(
        max_error=0.0, trace=SimpleNamespace(certificates=())),
     "roundtrip", "incomplete interlacing chain at n=2"),
    ("forward_p", lambda cv, b: SimpleNamespace(top=SimpleNamespace(coeffs=None)),
     "recurrence-equivalence", "p/q mismatch at n=1 case 0"),
    ("check_sigma_inequality", lambda spec: SimpleNamespace(holds=False),
     "sigma-inequality", "sigma inequality failed at n=3 case 0"),
    ("classify_sign_regular", lambda *args: SimpleNamespace(all_conforming=False),
     "sign-regularity", "sign-regularity failed at n=2 case 0"),
    ("cauchy_binet_check", lambda *args: (0, 1, False),
     "cauchy-binet", "Cauchy-Binet failed at case 0"),
    ("relative_spectrum_error", lambda eig, target: 1.0,
     "jacobi-sqrt", "square spectrum error 1.000e+00 at n=1"),
]


@pytest.mark.parametrize("name, failing, battery, detail", _FAILING_CHECKS, ids=[c[2] for c in _FAILING_CHECKS])
def test_verify_all_reports_a_failing_battery(monkeypatch, name, failing, battery, detail):
    monkeypatch.setattr(cli, name, failing)
    code, text = run(["verify-all", "--sizes", "1,2,3", "--cases", "1", "--format", "pretty"])
    lines = text.splitlines()
    assert code == 2 and lines[-1] == "FAILURES present"
    assert [line for line in lines if line.startswith("FAIL ")] == [f"FAIL  {battery}: {detail}"]


@pytest.mark.parametrize("exc", [ZeroDivisionError("division by zero"), ValueError("math domain error")])
def test_an_arithmetic_error_escaping_a_command_is_a_breakdown(monkeypatch, capsys, exc):
    def raises(args, backend, out):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "solve", raises)
    assert run(["solve", "--spectrum", "3,-2,1"]) == (2, "")
    assert capsys.readouterr().err == f"numerical breakdown [{type(exc).__name__}]: {exc}\n"


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"{name} is not a JSON value (RFC 8259)")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize(
    "args", [["solve", "--spectrum=1e200,-1,0.5"], ["solve", "--roundtrip", "--spectrum=1.5e308,-1,0.5"]]
)
def test_where_the_coefficient_pass_answers_the_residuals_read_null(args):
    # the weights pass breaks down on these spectra, so it leaves no residuals;
    # the report stays valid JSON and warns only of the gap
    code, text = run(args)
    report = _strict_json(text)
    assert code == 0
    assert report["diagnostics"]["structural_residual"] is None
    assert report["diagnostics"]["weight_defect"] is None
    assert report["warnings"] == [
        "minimum modulus gap 5.000e-01 is below 1e-06 * lambda_1; "
        "reconstruction is ill-conditioned, consider --backend rational"
    ]


def test_a_float64_solve_report_takes_as_many_encoder_calls_at_any_size(monkeypatch):
    # the windowed matrices' cells are encoded in one call, not one per cell
    # or per row: the count of calls does not grow with n
    reports, calls = [], []
    emit, dumps = cli._emit, cli._dumps
    monkeypatch.setattr(cli, "_emit", lambda report, *_: reports.append(report))
    for n in (8, 256):
        run(["solve", "--spectrum=" + ",".join(map(repr, random_spectrum(case_rng(1, "encoder", n), n)))])
    monkeypatch.setattr(cli, "_dumps", lambda *args, **kw: calls.append(1) or dumps(*args, **kw))
    counts = []
    for report in reports:
        calls.clear()
        emit(report, "json", io.StringIO())
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_an_accurate_solve_at_n_400_reports_finite_residuals_and_no_warning():
    # the residuals are scaled: an unscaled max |q_n(lambda)| grows like
    # |lambda|^n and overflows float64 from n of about 310
    spectrum = ",".join(map(repr, random_spectrum(case_rng(1, "sweep400", 0), 400)))
    code, text = run(["solve", "--spectrum=" + spectrum])
    report = _strict_json(text)
    diagnostics = report["diagnostics"]
    assert code == 0 and report["warnings"] == [] and diagnostics["roundtrip_error"] <= 1e-14
    assert math.isfinite(diagnostics["structural_residual"]) and math.isfinite(diagnostics["weight_defect"])


def test_rational_exponent_literals_obey_the_int_str_digit_limit(capsys):
    # 10**4300 has 4301 digits, one more than the default limit allows an integer literal
    rational = ["solve", "--backend", "rational", "--spectrum"]
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        for spectrum in ("1e4300,-1,1/2", "1e-4300,-1e-4301", "1E+4_300,-1"):
            assert run([*rational, spectrum]) == (3, "")
            assert "10**4300 has more digits than the limit 4300" in capsys.readouterr().err
        code, text = run([*rational, "1e4299,-1,1/2"])
        assert code == 0 and json.loads(text)["input"][0] == "1" + "0" * 4299
        sys.set_int_max_str_digits(0)  # no limit, no guard
        assert run([*rational, "1e4300,-1,1/2"])[0] == 0
    finally:
        sys.set_int_max_str_digits(limit)


def test_rational_solve_draws_no_gap_warning():
    # an exact reconstruction is never ill-conditioned
    code, text = run(["solve", "--backend", "rational", "--spectrum", "1.0000000001,-1"])
    assert code == 0
    assert json.loads(text)["warnings"] == []


@pytest.mark.parametrize("backend", ["float64", "rational"])
def test_signreg_class_plus_power_is_n_minus_1(backend):
    code, text = run(["signreg", "--a", "1,2,3,4,5,6", "--backend", backend])
    assert code == 0
    assert json.loads(text)["class_plus_power"] == 5


def test_signreg_max_power_below_n_minus_1_reads_null():
    code, text = run(["signreg", "--a", "1,2,3,4,5,6", "--max-power", "4"])
    assert code == 0
    assert json.loads(text)["class_plus_power"] is None


def _input_file(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_signreg_input_reads_the_coefficients(tmp_path):
    a = [2, 1.4142135623730951, 1.7320508075688772]
    code, text = run(["signreg", "--input", _input_file(tmp_path, {"a": a})])
    assert code == 0
    assert text == run(["signreg", "--a", ",".join(map(str, a))])[1]
    code, text = run(["signreg", "--input", _input_file(tmp_path, {"spectrum": [3, -2, 1]})])
    assert code == 0
    assert text == run(["signreg", "--spectrum", "3,-2,1"])[1]


def test_input_reads_the_key_of_its_command(tmp_path):
    code, text = run(["sqrt", "--input", _input_file(tmp_path, {"mus": [9, 4, 1]})])
    assert code == 0 and text == run(["sqrt", "--mus", "9,4,1"])[1]
    code, text = run(["forward", "--input", _input_file(tmp_path, {"a": [2, 1, 3]})])
    assert code == 0 and text == run(["forward", "--a", "2,1,3"])[1]


@pytest.mark.parametrize(
    "command, doc",
    [
        ("solve", {"mus": [9, 4, 1]}),
        ("roundtrip", {"a": [2, 1, 3]}),
        ("forward", {"spectrum": [3, -2, 1]}),
        ("sqrt", {"spectrum": [3, -2, 1]}),
        ("signreg", {"mus": [9, 4, 1]}),
    ],
)
def test_input_without_the_commands_key_is_a_usage_error(tmp_path, capsys, command, doc):
    code, text = run([command, "--input", _input_file(tmp_path, doc)])
    assert code == 3 and text == ""
    assert "[SizeMismatch]: input file has no key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, doc",
    [("forward", {"a": "12"}), ("solve", {"spectrum": 3}), ("sqrt", {"mus": {"1": 9}})],
)
def test_input_key_that_is_not_an_array_is_a_usage_error(tmp_path, capsys, command, doc):
    # a string would otherwise be read one character at a time: "12" as a = (1, 2)
    code, text = run([command, "--input", _input_file(tmp_path, doc)])
    assert code == 3 and text == ""
    key = next(iter(doc))
    assert f"[UsageError]: key '{key}' of " in capsys.readouterr().err


def test_readme_cli_examples_exit_0():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("antibidiag ")]
    assert len(lines) >= 7
    for line in lines:
        assert run(shlex.split(line)[1:])[0] == 0, line


def test_parser_is_built_once(monkeypatch):
    build_parser = cli.build_parser
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    try:
        assert run(["solve", "--spectrum", "3,-2,1"])[0] == 0
        assert run(["signreg", "--a", "1,2"])[0] == 0
    finally:
        cli._parser.cache_clear()
    assert built == [1]


def test_options_of_one_call_do_not_carry_into_the_next():
    # --roundtrip is a usage error under --backend rational, so a carried flag would exit 3
    assert run(["solve", "--roundtrip", "--backend", "rational", "--spectrum", "3,-2,1"]) == (3, "")
    assert run(["solve", "--backend", "rational", "--spectrum", "3,-2,1"])[0] == 0
    assert json.loads(run(["solve", "--spectrum", "3,-2,1"])[1])["a"] is not None


def test_usage_error_after_a_successful_call_exits_3(capsys):
    assert run(["solve", "--spectrum", "3,-2,1"])[0] == 0
    assert run(["solve", "--bogus"]) == (3, "")
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert run(["solve", "--spectrum", "3,-2,1"])[0] == 0


_PINNED = Path(__file__).resolve().parent / "pinned"
_PINNED_SPECTRA = {
    "worked": "3,-2,1",
    # random_rational_spectrum(case_rng(8, "pinned", 0), 16)
    "n16": "333/16,-117/8,47/4,-75/8,137/16,-133/16,63/8,-15/2,"
    "113/16,-109/16,39/8,-69/16,25/16,-17/16,7/8,-1/16",
}


def _assert_pinned(capsys, args, filename):
    code, text = run(args)
    assert (code, capsys.readouterr().err) == (0, "")
    assert text == (_PINNED / filename).read_text()


@pytest.mark.parametrize("fmt", ["json", "pretty", "csv"])
@pytest.mark.parametrize("name", list(_PINNED_SPECTRA))
def test_rational_solve_text_is_pinned(capsys, name, fmt):
    args = ["solve", "--backend", "rational", "--spectrum", _PINNED_SPECTRA[name], "--format", fmt]
    _assert_pinned(capsys, args, f"rational-solve-{name}.{fmt}")


_PINNED_FLOAT_SPECTRA = {
    "worked": "3,-2,1",
    # the f64-roundtrip workload's spectra at n = 16 and 48, seed 1
    "n16": ",".join(map(repr, random_spectrum(case_rng(1, "f64-roundtrip", 1), 16))),
    "n48": ",".join(map(repr, random_spectrum(case_rng(1, "f64-roundtrip", 4), 48))),
}


@pytest.mark.parametrize("fmt", ["json", "pretty"])
@pytest.mark.parametrize("name", list(_PINNED_FLOAT_SPECTRA))
def test_float_solve_text_is_pinned(capsys, name, fmt):
    # a and jacobi carry the weights pass's rounding, and so do its two residuals
    args = ["solve", "--roundtrip", "--spectrum=" + _PINNED_FLOAT_SPECTRA[name], "--format", fmt]
    _assert_pinned(capsys, args, f"float-solve-{name}.{fmt}")


def test_float_solve_csv_is_pinned(capsys):
    # the CSV flattener prints every entry of both matrices
    args = ["solve", "--roundtrip", "--spectrum=" + _PINNED_FLOAT_SPECTRA["n16"], "--format", "csv"]
    _assert_pinned(capsys, args, "float-solve-n16.csv")


@pytest.mark.parametrize("name", list(_PINNED_FLOAT_SPECTRA))
def test_float_roundtrip_text_is_pinned(capsys, name):
    # every recovered eigenvalue, which the eigensolve computes
    args = ["roundtrip", "--spectrum=" + _PINNED_FLOAT_SPECTRA[name]]
    _assert_pinned(capsys, args, f"float-roundtrip-{name}.json")


def test_float_roundtrip_graded_text_is_pinned(capsys):
    # moduli from 1 down to 1e-12: each recovered eigenvalue is right to its
    # own scale, so max_error reads a few ulps
    _assert_pinned(capsys, ["roundtrip", "--spectrum=1,-1e-4,1e-8,-1e-12"],
                   "float-roundtrip-graded.json")


@pytest.mark.parametrize("name", list(_PINNED_FLOAT_SPECTRA))
def test_float_sqrt_text_is_pinned(capsys, name):
    # mus are the squared moduli, so the square root's spectrum is the pinned one
    mus = ",".join(repr(float(v) ** 2) for v in _PINNED_FLOAT_SPECTRA[name].split(","))
    _assert_pinned(capsys, ["sqrt", "--mus=" + mus], f"float-sqrt-{name}.json")


@pytest.mark.parametrize("name", list(_PINNED_FLOAT_SPECTRA))
def test_float_forward_eigs_text_is_pinned(capsys, name):
    # the unseeded eigensolve, on the a that the pinned solve text reports
    a = json.loads((_PINNED / f"float-solve-{name}.json").read_text())["a"]
    args = ["forward", "--eigs", "--a=" + ",".join(map(repr, a))]
    _assert_pinned(capsys, args, f"float-forward-eigs-{name}.json")


@pytest.mark.parametrize("name", list(_PINNED_FLOAT_SPECTRA))
def test_roundtrip_commands_eigensolve_the_band_of_a(capsys, monkeypatch, name):
    """solve --roundtrip, roundtrip and forward --eigs read J's band off a:
    they scan no dense matrix, and their texts stay the pinned ones."""

    def no_dense_scan(*args):
        raise AssertionError("a dense matrix was scanned for its band")

    monkeypatch.setattr(spectral, "_extract_tridiagonal", no_dense_scan)
    spectrum = "--spectrum=" + _PINNED_FLOAT_SPECTRA[name]
    _assert_pinned(capsys, ["solve", "--roundtrip", spectrum], f"float-solve-{name}.json")
    _assert_pinned(capsys, ["roundtrip", spectrum], f"float-roundtrip-{name}.json")
    a = json.loads((_PINNED / f"float-solve-{name}.json").read_text())["a"]
    args = ["forward", "--eigs", "--a=" + ",".join(map(repr, a))]
    _assert_pinned(capsys, args, f"float-forward-eigs-{name}.json")


_PINNED_SIGNREG = {
    # the signreg workload's n = 6 spectrum at seed 1
    "float-signreg-n6": [
        "signreg", "--spectrum=" + ",".join(map(repr, random_spectrum(case_rng(1, "signreg", 4), 6)))
    ],
    "rational-signreg-n5": ["signreg", "--backend", "rational", "--a", "3/2,5,7/3,1/4,2"],
}


@pytest.mark.parametrize("fmt", ["json", "pretty", "csv"])
@pytest.mark.parametrize("name", list(_PINNED_SIGNREG))
def test_signreg_text_is_pinned(capsys, name, fmt):
    _assert_pinned(capsys, [*_PINNED_SIGNREG[name], "--format", fmt], f"{name}.{fmt}")


@pytest.mark.xfail(strict=True, reason="the float64 order threshold of spectral._order_scale "
                   "exceeds true positive minors; the product rule's exact signs would mend it")
@pytest.mark.parametrize("a", [(1e200, 1e-200, 3.0, 1e150, 2.0), (1e-300, 1e300, 1e-300, 1e300)])
def test_float_signreg_verdicts_agree_with_the_exact_ones_on_extreme_a(a):
    reports = {}
    for backend, text in (("float64", map(repr, a)), ("rational", map(str, map(Fraction, a)))):
        code, out = run(["signreg", "--backend", backend, "--a", ",".join(text)])
        assert code == 0
        reports[backend] = json.loads(out)
    assert reports["float64"] == reports["rational"]


def test_rational_solve_reports_a_residual_when_a_square_is_off(monkeypatch):
    solve = cli.solve

    def perturbed(spectrum, backend):
        trace = solve(spectrum, backend)
        a_sq = (trace.a_squared[0] + Fraction(1, 10**9),) + trace.a_squared[1:]
        return ReconstructionTrace(trace.spectrum, trace.chain, trace.a1, a_sq, trace.backend)

    monkeypatch.setattr(cli, "solve", perturbed)
    code, text = run(["solve", "--backend", "rational", "--spectrum", "3,-2,1"])
    assert code == 0
    assert json.loads(text)["diagnostics"]["max_residual"] == "1"


@pytest.mark.parametrize("n", [8, 32])
def test_a_rational_solve_takes_no_content_gcd_of_a_level_it_proves(monkeypatch, n):
    # n in the backward pass, then q_0, q_1 and q_n of the forward check: its
    # levels 2..n-1 are the backward pass's, proved without a gcd
    primitive_part, contents = recurrence.primitive_part, []

    def counted(ints):
        contents.append(len(ints))
        return primitive_part(ints)

    monkeypatch.setattr(recurrence, "primitive_part", counted)
    lam = random_rational_spectrum(case_rng(0, "gcd", n), n)
    code, text = run(["solve", "--backend", "rational", "--spectrum=" + ",".join(map(str, lam))])
    assert code == 0 and json.loads(text)["diagnostics"]["max_residual"] == "0"
    assert len(contents) == n + 3, contents


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
@pytest.mark.parametrize("a", ["1e100,1e100,1e100,1e100", "1e100,1e100,1e100,1e100,1e100"])
def test_a_non_finite_float_in_a_report_is_a_breakdown(capsys, a, fmt):
    # the forward pass overflows; no format prints Infinity or NaN
    assert run(["forward", "--a", a, "--format", fmt]) == (2, "")
    err = capsys.readouterr().err
    assert err == "numerical breakdown [NonFiniteResult]: p_coeffs holds inf or NaN in float64\n"


def test_the_breakdown_names_the_first_non_finite_key():
    report = {"a": (1.0,), "d": {"m": ((0.0, 1.0), (math.nan, 2.0))}, "z": math.inf}
    with pytest.raises(errors.NonFiniteResult, match=r"^d\.m holds inf or NaN"):
        cli._emit(report, "json", io.StringIO())


def _pinned_float_args(command, name):
    spectrum = _PINNED_FLOAT_SPECTRA[name]
    if command == "roundtrip":
        return ["roundtrip", "--spectrum=" + spectrum]
    if command == "sqrt":  # mus are the squared moduli, as in the pinned JSON
        return ["sqrt", "--mus=" + ",".join(repr(float(v) ** 2) for v in spectrum.split(","))]
    a = json.loads((_PINNED / f"float-solve-{name}.json").read_text())["a"]
    return ["forward", "--eigs", "--a=" + ",".join(map(repr, a))]


@pytest.mark.parametrize("fmt", ["csv", "pretty"])
@pytest.mark.parametrize("name", ["worked", "n16"])
@pytest.mark.parametrize("command", ["roundtrip", "sqrt", "forward-eigs"])
def test_float_csv_and_pretty_texts_are_pinned(capsys, command, name, fmt):
    args = [*_pinned_float_args(command, name), "--format", fmt]
    _assert_pinned(capsys, args, f"float-{command}-{name}.{fmt}")


@pytest.mark.parametrize("fmt", ["csv", "pretty"])
def test_float_roundtrip_n48_csv_and_pretty_are_pinned(capsys, fmt):
    args = [*_pinned_float_args("roundtrip", "n48"), "--format", fmt]
    _assert_pinned(capsys, args, f"float-roundtrip-n48.{fmt}")
    # the graded spectrum draws the gap note, so every renderer prints a warning
    args = ["roundtrip", "--spectrum=1,-1e-4,1e-8,-1e-12", "--format", fmt]
    _assert_pinned(capsys, args, f"float-roundtrip-graded.{fmt}")


def _one_square_off(monkeypatch, factor=1 + 1e-4):
    """Make the CLI's weights pass return a_2^2 times ``factor``: a wrong a."""
    solve_weights = cli.solve_weights

    def perturbed(spectrum, backend):
        t = solve_weights(spectrum, backend)
        a_sq = (t.a_squared[0] * factor, *t.a_squared[1:])
        return ReconstructionTrace(t.spectrum, t.chain, t.a1, a_sq, t.backend)

    monkeypatch.setattr(cli, "solve_weights", perturbed)


def _roundtrip_error(report):
    return report["max_error"] if "max_error" in report else report["diagnostics"]["roundtrip_error"]


_GAP_NOTE = ("minimum modulus gap 9.999e-09 is below 1e-06 * lambda_1; "
             "reconstruction is ill-conditioned, consider --backend rational")


@pytest.mark.parametrize("command", [["solve", "--roundtrip"], ["roundtrip"]])
@pytest.mark.parametrize(
    "spectrum, notes",
    [
        # the coefficient pass solved it wrong by 1e-2; the weights pass solves it clean
        (",".join(map(repr, random_spectrum(case_rng(11, "ladder64", 22), 64))), []),
        # accurate to a few ulps: only the flat gap note
        ("1,-1e-4,1e-8,-1e-12", [_GAP_NOTE]),
        ("3e-9,-2e-9,1e-9", []),
    ],
    ids=["ladder64", "graded", "tiny"],
)
def test_round_trip_reports_warn_on_their_measured_error(monkeypatch, command, spectrum, notes):
    code, text = run([*command, "--spectrum=" + spectrum])
    report = json.loads(text)
    assert code == 0 and report["warnings"] == notes and _roundtrip_error(report) <= 1e-14
    # a wrong a draws the measured error's warning, before the gap note
    _one_square_off(monkeypatch)
    code, text = run([*command, "--spectrum=" + spectrum])
    report = json.loads(text)
    err = _roundtrip_error(report)
    assert code == 0 and err > 1e-8
    assert report["warnings"] == [f"round-trip error {err:.3e} exceeds 1e-08", *notes]


def test_plain_solve_warns_on_the_ladder_spectrum_that_solves_wrong(monkeypatch):
    spectrum = "--spectrum=" + ",".join(map(repr, random_spectrum(case_rng(11, "ladder64", 22), 64)))
    code, text = run(["solve", spectrum])
    assert (code, text) == run(["solve", "--roundtrip", spectrum])
    assert json.loads(text)["warnings"] == []  # the weights pass solves it clean
    _one_square_off(monkeypatch)
    code, text = run(["solve", spectrum])
    assert (code, text) == run(["solve", "--roundtrip", spectrum])
    err = json.loads(text)["diagnostics"]["roundtrip_error"]
    assert json.loads(text)["warnings"] == [f"round-trip error {err:.3e} exceeds 1e-08"]


@pytest.mark.parametrize("n", [32, 40, 48])
def test_plain_solve_warns_on_every_result_its_round_trip_finds_wrong(monkeypatch, fb, n):
    """Plain float64 solve warns from its measured round trip: on every result
    whose round-trip error exceeds 1e-8, and on the others only with the
    trace's own notes.  The weights pass solves all 20 spectra at each n
    clean (the coefficient pass solved 3, 17 and 20 of them wrong at n = 32,
    40 and 48), so a perturbed a_2^2 supplies the wrong results."""
    spectra = [random_spectrum(case_rng(1, "silent", i), n) for i in range(20)]
    for lam in spectra:
        code, text = run(["solve", "--spectrum=" + ",".join(map(repr, lam))])
        report, trace = json.loads(text), solve_weights(validate_spectrum(lam), fb)
        diagnostics = report["diagnostics"]
        assert code == 0 and diagnostics["roundtrip_error"] <= 1e-14
        assert report["warnings"] == list(trace.warnings)
        # the report's residuals are the trace's, bit for bit
        reported = (diagnostics["structural_residual"], diagnostics["weight_defect"])
        assert list(map(float.hex, reported)) == list(map(float.hex, (trace.structural_residual, trace.weight_defect)))
    _one_square_off(monkeypatch)
    for lam in spectra:
        code, text = run(["solve", "--spectrum=" + ",".join(map(repr, lam))])
        report = json.loads(text)
        err = report["diagnostics"]["roundtrip_error"]
        assert code == 0 and err > 1e-8
        assert f"round-trip error {err:.3e} exceeds 1e-08" in report["warnings"]


@pytest.mark.parametrize("command", [["solve"], ["solve", "--roundtrip"]])
@pytest.mark.parametrize("spectrum, square", [("1e-150,-1e-160", "1e-310"), ("1e-155,-5e-156", "5e-311")])
def test_solve_reports_a_when_the_round_trip_cannot_run(capsys, command, spectrum, square):
    # a_2^2 is subnormal, so J's band cannot be eigensolved (SquareOutOfRange);
    # solve still prints a, and warns between the two a-priori notes
    code, text = run([*command, "--spectrum=" + spectrum])
    assert (code, capsys.readouterr().err) == (0, "")
    report = json.loads(text)
    assert report["a_squared"][1] == float(square)
    assert report["diagnostics"]["roundtrip_error"] is None
    underflow, failed = report["warnings"]
    assert underflow.startswith("q_2 coefficient 0 = ") and "below the normal float64 range" in underflow
    assert failed.startswith("the round trip could not run: codiagonal entry ")
    assert failed.endswith(f" squares to {square} in float64")
    assert run(["roundtrip", "--spectrum=" + spectrum]) == (2, "")  # its whole report is the round trip


# spectrum: (exit status of solve, of solve --roundtrip, of roundtrip; roundtrip's stderr label)
_WEIGHTS_BREAKDOWNS = {
    "1e200,-1,0.5": (0, 0, 0, ""),  # squares span more than the float range in scaled units
    "1.5e308,-1,0.5": (0, 0, 0, ""),
    "1e308,-1e307,1": (2, 2, 2, "NonFiniteA"),  # a_2^2 overflows float64 itself
    "1e-150,-1e-160": (0, 0, 2, "SquareOutOfRange"),  # a_2^2 is subnormal
    "1e-155,-5e-156": (0, 0, 2, "SquareOutOfRange"),
}


@pytest.mark.parametrize("spectrum", list(_WEIGHTS_BREAKDOWNS))
def test_where_the_weights_pass_breaks_down_the_coefficient_pass_answers(monkeypatch, capsys, fb, spectrum):
    with pytest.raises(errors.NotNormalA):
        solve_weights(validate_spectrum(map(float, spectrum.split(","))), fb)
    *codes, label = _WEIGHTS_BREAKDOWNS[spectrum]
    commands = [["solve"], ["solve", "--roundtrip"], ["roundtrip"]]
    texts = [(*run([*c, "--spectrum=" + spectrum]), capsys.readouterr().err) for c in commands]
    assert [code for code, _, _ in texts] == codes
    assert texts[-1][2].startswith(f"numerical breakdown [{label}]: " if label else "")

    def coefficient_pass_only(spectrum, backend):
        raise errors.NotNormalA("off")

    monkeypatch.setattr(cli, "solve_weights", coefficient_pass_only)
    assert texts == [(*run([*c, "--spectrum=" + spectrum]), capsys.readouterr().err) for c in commands]


def test_solve_runs_the_backward_pass_once_when_the_round_trip_cannot_run(monkeypatch):
    passes, from_roots = [], inversesolver.from_roots
    monkeypatch.setattr(inversesolver, "from_roots", lambda *args: passes.append(args) or from_roots(*args))
    assert run(["solve", "--spectrum=1e-150,-1e-160"])[0] == 0
    assert len(passes) == 1


_PINNED_RATIONAL_A = {"worked": "2,1/3,3", "n5": "3/2,5,7/3,1/4,2"}


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
@pytest.mark.parametrize("name", list(_PINNED_RATIONAL_A))
def test_rational_forward_text_is_pinned(capsys, name, fmt):
    args = ["forward", "--backend", "rational", "--a", _PINNED_RATIONAL_A[name], "--format", fmt]
    _assert_pinned(capsys, args, f"rational-forward-{name}.{fmt}")


@pytest.mark.parametrize("fmt", ["csv", "pretty"])
def test_exact_report_renders_past_the_int_str_limit_in_csv_and_pretty(fmt):
    spectrum = random_rational_spectrum(case_rng(0, "render", 64), 64, max_num=4000)
    args = ["solve", "--backend", "rational", "--spectrum=" + ",".join(map(str, spectrum)), "--format", fmt]
    limit = sys.get_int_max_str_digits()
    code, text = run(args)
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    json_report = json.loads(run(args[:-2])[1])
    longest = max(json_report["a_squared"], key=len)
    assert len(longest) > limit and longest in text


def test_the_int_str_limit_is_restored_when_rendering_raises(monkeypatch):
    seen = []

    def fail(v):
        seen.append(sys.get_int_max_str_digits())
        raise RuntimeError("render")

    monkeypatch.setattr(cli, "_pretty", fail)
    limit = sys.get_int_max_str_digits()
    with pytest.raises(RuntimeError, match="render"):
        run(["forward", "--backend", "rational", "--a", "2,1/3,3", "--format", "pretty"])
    assert seen == [0] and sys.get_int_max_str_digits() == limit
    assert run(["forward", "--a", "1e100,1e100,1e100,1e100"])[0] == 2
    assert sys.get_int_max_str_digits() == limit
