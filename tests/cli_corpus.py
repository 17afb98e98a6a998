"""Byte-identity corpus for the command line.

Runs a fixed list of requests through ``antibidiag.cli.main`` in this process
and prints one line per request: the SHA-256 of its (exit status, stdout,
stderr), then its argv.  A ``diff`` of the outputs of two checkouts names
every request whose output changed:

    python tests/cli_corpus.py > corpus.txt

``tests/corpus.txt`` is its output at this commit, and ``tests/test_corpus.py``
fails naming each request whose line changed; a change that means to change
an output regenerates the file with the command above.

It takes no options.  pytest does not collect it (its name does not start
with ``test_``).  The requests are the benchmark's three workload mixes at
seeds 1-3, every command in every format (also at n = 1, and a float64
forward pass that overflows), edge and error inputs, the accuracy
ladder, the scaled, near-range, subnormal and graded spectra, ``verify-all``,
``roundtrip`` in every format on the spectra with the largest errors,
plain ``solve`` where its round trip cannot run or finds a wrong result,
``--input`` from the JSON and CSV files under ``tests/inputs`` (also with a
byte-order mark), ``--help`` for the program and for each command, and
float64 ``solve`` in CSV and text at n = 24 and 48.  It runs in the
repository root, so that those paths and the printed argv are the same in
every checkout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT / "perfbench")]
os.chdir(_ROOT)
os.environ["COLUMNS"] = "80"  # argparse wraps its usage text to the terminal width

from antibidiag.cli import main  # noqa: E402
from antibidiag.sampling import (  # noqa: E402
    case_rng,
    random_coefficients,
    random_positive_tuple,
    random_rational_spectrum,
    random_spectrum,
)
from workloads import WORKLOADS  # noqa: E402

FORMATS = ("json", "csv", "pretty")


def _join(values) -> str:
    return ",".join(repr(v) if isinstance(v, float) else str(v) for v in values)


def _every_format(argv):
    return [[*argv, "--format", fmt] for fmt in FORMATS]


def requests():
    reqs = []
    for seed in (1, 2, 3):  # the benchmark's request mixes
        for workload in WORKLOADS.values():
            reqs += [list(r.argv) for r in workload.requests(seed, 100)]

    for argv in (  # every command, in every format
        ["solve", "--spectrum", "3,-2,1"],
        ["solve", "--spectrum", "5,-3.5,2,-0.25"],
        ["solve", "--spectrum", "1.0000000001,-1"],
        ["solve", "--roundtrip", "--spectrum", "3,-2,1"],
        ["solve", "--backend", "rational", "--spectrum", "3,-2,1"],
        ["solve", "--backend", "rational", "--spectrum", "3/2,-1,1/3,-1/4"],
        # the coefficient pass's fallback: null residuals in every renderer
        ["solve", "--spectrum", "1e200,-1,0.5"],
        ["solve", "--roundtrip", "--spectrum", "1.5e308,-1,0.5"],
        ["forward", "--a", "2,1,3"],
        ["forward", "--a", "2,1,3", "--eigs"],
        ["forward", "--backend", "rational", "--a", "2,1/3,3"],
        ["roundtrip", "--spectrum", "3,-2,1"],
        ["sqrt", "--mus", "9,4,1"],
        ["signreg", "--a", "1,2,3"],
        ["signreg", "--spectrum", "3,-2,1", "--max-power", "1"],
        ["signreg", "--backend", "rational", "--a", "3/2,5,7/3,1/4,2"],
        ["verify-all", "--sizes", "2,3", "--cases", "2"],
        # n = 1
        ["solve", "--spectrum", "2.5"],
        ["solve", "--roundtrip", "--spectrum", "2.5"],
        ["solve", "--backend", "rational", "--spectrum", "5/2"],
        ["forward", "--a", "2.5", "--eigs"],
        ["forward", "--backend", "rational", "--a", "5/2"],
        ["roundtrip", "--spectrum", "2.5"],
        ["sqrt", "--mus", "6.25"],
        ["signreg", "--a", "2.5"],
        ["signreg", "--backend", "rational", "--a", "5/2"],
        # a float64 forward pass that overflows
        ["forward", "--a", "1e100,1e100,1e100,1e100"],
        ["forward", "--a", "1e100,1e100,1e100,1e100,1e100"],
    ):
        reqs += _every_format(argv)
    for v in ("1e-300", "1e300"):  # n = 1 at both ends of the point-interval path
        for argv in (["roundtrip", "--spectrum", v], ["forward", "--a", v, "--eigs"], ["sqrt", "--mus", v]):
            reqs += _every_format(argv)

    reqs += [  # edge and error inputs
        ["solve", "--spectrum", "1,2"],
        ["solve", "--spectrum", "2,-2"],
        ["solve", "--spectrum", "-1"],
        ["solve", "--spectrum", ""],
        ["solve", "--spectrum", "3,-2,abc"],
        ["solve", "--spectrum", "1/0"],
        ["solve", "--spectrum", "1e5000,-1"],
        ["solve", "--spectrum", "nan"],
        ["solve"],
        ["bogus-command"],
        ["solve", "--spectrum", "3,-2,1", "--tol-abs", "0"],
        ["solve", "--input", "no-such-file.json"],
        ["solve", "--roundtrip", "--backend", "rational", "--spectrum", "3,-2,1"],
        ["solve", "--backend", "rational", "--spectrum", "1e4299,-1,1/2"],
        ["solve", "--backend", "rational", "--spectrum", "1e4300,-1,1/2"],
        ["solve", "--backend", "rational", "--spectrum", "1e-4300,-1e-4301"],
        ["solve", "--backend", "rational", "--spectrum", "1" + "0" * 4300],
        ["forward", "--a", "2,0,3"],
        ["forward", "--a", "1e200,1e200"],
        ["forward", "--backend", "rational", "--a", "2,1,3", "--eigs"],
        ["roundtrip", "--backend", "rational", "--spectrum", "3,-2,1"],
        ["sqrt", "--backend", "rational", "--mus", "9,4,1"],
        ["sqrt", "--mus", "1,4"],
        ["sqrt", "--mus", "1e-200,1e-201"],
        ["sqrt", "--mus", "1e300,1"],
        ["sqrt", "--mus", "3,2.9999999999999996"],
        ["sqrt", "--mus", "4,1e-20"],  # exit 0 with a spectrum error of 2e-6, unwarned
        ["sqrt", "--mus", "4,1e-300"],  # and of 1e134
        ["signreg", "--a", "1,2,3,4,5,6,7,8,9,10,11,12,13"],
        ["verify-all", "--sizes", "0"],
        ["verify-all", "--sizes", ""],
        ["verify-all", "--cases", "0"],
    ]

    near_range = ["1.5e308,-1,0.5", "1e308,-1e307,1", "1e60,-1", "1e20,-1,0.5"]
    subnormal = ["5e-324", "1.5e-323", "1e-320", "1e-150,-1e-155", "1e-150,-1e-160",
                 "1e-155,-5e-156", "1e-30,-5e-31"]
    for spectrum in near_range + subnormal:
        reqs += [["solve", "--roundtrip", "--spectrum=" + spectrum],
                 ["roundtrip", "--spectrum=" + spectrum]]
    graded = {  # spectrum: the a that the float64 coefficient pass returns for it
        "1,-1e-5,1e-10": "0.9999900001,0.0031622618487405483,3.162293471517151e-08",
        "1,-0.5,1e-9": "0.500000001,0.7071067801258873,3.162277657006102e-05",
        "1,-1e-4,1e-8,-1e-12": "0.9999000099990001,0.009999500037496875,9.999999949995e-07,"
                               "1.0000499987500624e-10",
    }
    for spectrum, a in graded.items():
        reqs += [["roundtrip", "--spectrum=" + spectrum], ["forward", "--eigs", "--a=" + a]]

    for n in range(8, 97, 8):  # the accuracy ladder to n = 96
        for i in range(2):
            reqs.append(["solve", "--roundtrip", "--spectrum=" + _join(
                random_spectrum(case_rng(1, f"ladder{n}", i), n))])
    for n in (8, 24, 48):  # the scaled corpus
        base = random_spectrum(case_rng(5, f"scaled{n}", 0), n)
        for e in range(-16, 6):
            reqs.append(["solve", "--roundtrip", "--spectrum=" + _join(v * 10.0**e for v in base)])
    for n in (16, 32, 48, 64):  # the exact ladder
        lam = random_rational_spectrum(case_rng(1, f"exact-ladder{n}", 0), n, max_num=4000)
        reqs.append(["solve", "--backend", "rational", "--spectrum=" + _join(lam)])
    for n in range(1, 11):
        rng = case_rng(1, f"corpus{n}", 0)
        reqs += [["sqrt", "--mus=" + _join(random_positive_tuple(rng, n))],
                 ["forward", "--eigs", "--a=" + _join(random_coefficients(rng, n))]]
    for n in (16, 32):  # larger bands: sqrt's seeded eigensolve, forward's unseeded one
        reqs.append(["sqrt", "--mus=" + _join(random_positive_tuple(case_rng(1, f"corpus{n}", 0), n))])
    for n in (24, 48, 96):
        reqs.append(["forward", "--eigs", "--a=" + _join(random_coefficients(case_rng(1, f"corpus{n}", 0), n))])

    for seed in ("0", "1"):
        for fmt in ("json", "pretty"):
            reqs.append(["verify-all", "--cases", "5", "--seed", seed, "--format", fmt])

    # roundtrip where the coefficient pass's error was largest: the f64-roundtrip
    # n = 48 spectra at seed 1 and the ladder spectrum that it solved wrong by 1e-2
    spectra = [r.spectrum for r in WORKLOADS["f64-roundtrip"].requests(1, 100) if r.n == 48]
    ladder64 = random_spectrum(case_rng(11, "ladder64", 22), 64)
    for spectrum in (*spectra, ladder64):
        reqs += _every_format(["roundtrip", "--spectrum=" + _join(spectrum)])

    # plain solve where its round trip cannot run (a_2^2 is subnormal) and where
    # the coefficient pass's result was wrong
    for spectrum in ("1e-150,-1e-160", "1e-155,-5e-156", _join(ladder64)):
        reqs.append(["solve", "--spectrum=" + spectrum])

    reqs += [  # --input, by a path relative to the repository root
        ["solve", "--input", "tests/inputs/spectrum.json"],
        ["solve", "--backend", "rational", "--input", "tests/inputs/spectrum.json"],
        ["solve", "--input", "tests/inputs/spectrum.csv"],
        ["solve", "--input", "tests/inputs/spectrum-bom.json"],  # a UTF-8 byte-order mark
        ["solve", "--input", "tests/inputs/spectrum-bom.csv"],
        ["signreg", "--input", "tests/inputs/a.json"],
        ["signreg", "--input", "tests/inputs/spectrum.json"],
        ["forward", "--input", "tests/inputs/a.json"],
        ["sqrt", "--input", "tests/inputs/mus.json"],
    ]
    # the help texts: the program's and each command's, shared options included
    reqs += [["--help"]] + [[command, "--help"] for command in
                            ("solve", "forward", "roundtrip", "sqrt", "signreg", "verify-all")]
    # float64 solve's matrices expanded to rows, long zero runs included: the
    # f64-roundtrip n = 24 and n = 48 spectra at seed 1, in csv and pretty
    for r in WORKLOADS["f64-roundtrip"].requests(1, 100):
        if r.n in (24, 48):
            reqs += [["solve", "--spectrum=" + _join(r.spectrum), "--format", fmt] for fmt in ("csv", "pretty")]
    return reqs


def run(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv, out=out)
    blob = f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode()
    return hashlib.sha256(blob).hexdigest()


if __name__ == "__main__":
    for argv in requests():
        print(run(argv), shlex.join(argv))
