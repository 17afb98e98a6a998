"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench
"""

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import run
import spans

run.load_library()  # puts this checkout's src/ first on sys.path
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent


@pytest.fixture
def cli(monkeypatch):
    monkeypatch.setattr(workloads, "F64_SIZES", (3, 4, 5, 6, 7))
    monkeypatch.setattr(workloads, "EXACT_SIZES", (2, 3, 4))
    monkeypatch.setattr(workloads, "SIGNREG_SIZES", (2, 3, 3, 4, 4))
    monkeypatch.setattr(run, "MIN_REQUESTS", 1)
    monkeypatch.setattr(run, "LADDER_SIZES", (8, 16))
    monkeypatch.setattr(run, "LADDER_DENSE", 2)
    monkeypatch.setattr(run, "PROBE_PER_SIZE", 1)
    monkeypatch.setattr(run, "EXACT_LADDER_SIZES", (2, 3, 4))
    monkeypatch.setattr(run, "EXACT_LADDER_PER_SIZE", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    run.accuracy_probe.cache_clear()
    yield run.load_library()
    run.accuracy_probe.cache_clear()


def test_end_to_end_report_lists_every_metric(cli):
    buf = io.StringIO()
    with redirect_stdout(buf):
        run.main(["--workload", "f64-roundtrip", "--seed", "3", "--seconds", "0.001"])
    result = json.loads(buf.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 5
    wanted = {m["name"]: m["unit"] for m in run.spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize(
    "name, layer_call",
    [
        ("f64-roundtrip", "spectral.sturm_count"),
        ("exact-solve", "recurrence.forward_q_squared"),
        ("signreg", "matrixkit.minor"),
    ],
)
def test_traced_run_counts_layers_and_restores(cli, monkeypatch, tmp_path, name, layer_call):
    monkeypatch.setattr(run, "OUT", tmp_path)
    original = cli.main
    correct, count, failed, metrics, _ = run.run_traced(
        cli, workloads.WORKLOADS[name], 5, 0.001
    )
    assert cli.main is original
    assert correct and failed == 0 and count == workloads.WORKLOADS[name].cycle
    assert metrics["cli.main.calls"] == 1
    assert metrics[f"{layer_call}.calls"] > 0
    assert set(run.select(metrics, run.spec()["per_layer"])) == {
        m["name"] for m in run.spec()["per_layer"]
    }
    assert (tmp_path / f"spans-{name}-s5.csv").read_text().startswith("id,name,")


def test_exact_ladder_stops_at_the_first_nonzero_exit(cli, monkeypatch):
    send = run.send

    def send_failing_from_n4(cli, req):
        if req.argv[:3] == ("solve", "--backend", "rational") and req.n >= 4:
            return 3, 0.0, ""
        return send(cli, req)

    monkeypatch.setattr(run, "send", send_failing_from_n4)
    acc = run.accuracy_probe(cli, 9)
    assert acc["metrics"]["exact_clean_n_max"] == 3
    assert acc["info"]["exact_ladder_exit_nonzero"] == 1
    assert acc["info"]["exact_ladder_bad_outputs"] == 0


def test_tracer_self_time_excludes_children():
    tracer = spans.Tracer()
    inner = tracer._timed("m.inner", lambda: sum(range(20000)))
    outer = tracer._timed("m.outer", lambda: inner() + inner())
    outer()
    (_, outer_self), (calls, inner_self) = tracer.stats["m.outer"], tracer.stats["m.inner"]
    first, second, root = tracer.spans  # recorded as each call returns
    assert calls == 2
    assert outer_self + inner_self == pytest.approx(root[3] - root[2])
    assert (first[4], second[4], root[4]) == (root[0], root[0], 0)
    assert {s[5] for s in tracer.spans} == {root[0]}


def test_scales_average_the_reference_samples_near_each_request():
    refs = [(0.5, 1e-3), (1.2, 2e-3), (8.0, 0.5e-3)]
    got = run.scales([0.1, 1.0, 5.0, 9.0], refs)
    nominal = run.NOMINAL_S
    assert got == pytest.approx([nominal / 1e-3, nominal / 1.5e-3, nominal / 2e-3, nominal / 0.5e-3])


def _corrupt(name, rep):
    if name == "f64-roundtrip":
        rep["jacobi"][0][1] *= 1.5
    elif name == "exact-solve":
        rep["a_squared"][-1] = rep["a_squared"][-1] + "1"
    else:
        rep["achieved_class"] -= 1
    return rep


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_oracles_accept_outputs_and_reject_corruptions(cli, name):
    w = workloads.WORKLOADS[name]
    for req in w.requests(7, w.cycle):
        rc, _, text = run.send(cli, req)
        assert rc == 0
        assert w.check(req, text).ok
        assert not w.check(req, json.dumps(_corrupt(name, json.loads(text)))).ok


def test_exact_oracle_reads_integers_beyond_the_str_digit_limit():
    # n = 2, spectrum (-B, 2B): the recurrence gives a_1 = B and a_2^2 = 2B^2.
    limit = sys.get_int_max_str_digits()
    digits = limit + 100
    big = 10**digits
    req = workloads.Request(2, (Fraction(-big), Fraction(2 * big)), ())
    a_sq = ["1" + "0" * digits, "2" + "0" * (2 * digits)]
    assert workloads.check_exact(req, json.dumps({"a_squared": a_sq})).ok
    a_sq[1] = "3" + a_sq[1][1:]
    assert not workloads.check_exact(req, json.dumps({"a_squared": a_sq})).ok
    assert sys.get_int_max_str_digits() == limit


def test_select_refuses_a_metric_that_was_not_measured():
    wanted = [{"name": "poly.gone.self_ms", "unit": "ms"}]
    with pytest.raises(KeyError):
        run.select({"poly.other.self_ms": 0.0}, wanted)


def test_fails_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "signreg", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0 and proc.stdout == ""
