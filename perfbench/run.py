"""Closed-loop benchmark of the antibidiag command line.

    python3 perfbench/run.py --workload f64-roundtrip --seed 1 --seconds 20 --trace 0

One client in one process sends one CLI command at a time through
``antibidiag.cli.main(argv, out=buffer)`` and sends the next only after the
previous one returned.  Inputs are generated from ``--seed`` before timing.
Every exit-0 output is checked by the benchmark's own oracle outside the
timed region; a nonzero exit or an oracle mismatch is a failed request and
counts as +inf latency.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json: latency,
throughput, success share, set-up time and peak memory from fresh
interpreters, and the float64 accuracy and the exact-solve size limit from
untimed, seeded probes that every workload runs the same way.  ``--trace 1``
sends each request untraced and then traced, prints the per-layer metrics of
BENCHMARK.json per request and the tracing overhead, and writes the spans to
``perfbench/out/``.
``--workload all`` runs every workload in turn.  The last line of standard
output is always one JSON object.  See DESIGN.md for the choices.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import io
import itertools
import json
import math
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr
from pathlib import Path

from calib import NOMINAL_S, reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_REQUESTS = 100  # so that p90 has at least 10 samples beyond it
POOL = 4000  # requests generated per run; the loop wraps round after them
# Set-up is timed in this many fresh interpreters at each of three points of
# a run, so that no single slow phase of the host sets the median.
SETUP_REPEATS = 5
# Host-speed samples (calib.py): how often the loop takes one, and over how
# long a window around a request they are averaged to scale its time.
REF_EVERY_S = 0.25
REF_WINDOW_S = 2.0

# Accuracy ladder: sizes 8, 16, ..., 128; it stops at the first size that is
# not clean.  Sizes up to 48 get many spectra because at n = 32 about one
# spectrum in fourteen already misses the bound: with a few, the ladder's
# answer would flip between 24 and 32 from one seed to the next.
LADDER_SIZES = tuple(range(8, 129, 8))
LADDER_DENSE_MAX_N, LADDER_DENSE, LADDER_SPARSE = 48, 48, 4
# Accuracy probe: the f64-roundtrip size mix, this many spectra per size.
PROBE_PER_SIZE = 8
DIGITS_CAP = 16.0
# Exact ladder: rational solves with numerators up to EXACT_LADDER_MAX_NUM at
# these sizes, this many spectra each; it stops at the first request that
# exits nonzero or gives a wrong answer.  Numbers this wide pass the interpreter's int-to-str
# digit limit near n = 64, so the ladder shows the rendering defect without
# putting a request that fails into the timed loop.
EXACT_LADDER_SIZES = (16, 32, 48, 56, 64, 72)
EXACT_LADDER_MAX_NUM = 4000
EXACT_LADDER_PER_SIZE = 3


def load_library():
    """Import antibidiag from this checkout's src/, never from elsewhere."""
    if not (SRC / "antibidiag" / "cli.py").is_file():
        sys.exit(f"perfbench: no antibidiag sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import antibidiag.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "antibidiag":
        sys.exit(f"perfbench: imported {cli.__file__}, not the checkout's copy")
    return cli


def send(cli, req):
    """One request: (exit code, seconds inside cli.main, stdout)."""
    out = io.StringIO()
    t = time.perf_counter()
    rc = cli.main(list(req.argv), out=out)
    return rc, time.perf_counter() - t, out.getvalue()


def closed_loop(step, reqs, seconds, cycle):
    """Apply ``step`` to one request after another until ``seconds`` have
    passed, stopping only after whole cycles of the size mix and at least
    MIN_REQUESTS.  Between requests it times the reference work every
    REF_EVERY_S.  Returns the step results, the time each ended, and the
    (time, reference seconds) samples."""
    results, ends, refs = [], [], []
    i = 0
    start = last_ref = time.perf_counter()
    with redirect_stderr(io.StringIO()):
        while True:
            results.append(step(reqs[i % len(reqs)]))
            now = time.perf_counter()
            ends.append(now)
            if now - last_ref >= REF_EVERY_S:
                refs.append((now, reference_seconds()))
                last_ref = now
            i += 1
            if i % cycle == 0 and i >= MIN_REQUESTS and now - start >= seconds:
                break
    refs.append((time.perf_counter(), reference_seconds()))
    return results, ends, refs


def scales(ends, refs):
    """For each request, NOMINAL_S over the mean reference time sampled within
    REF_WINDOW_S / 2 of its end, or the last earlier sample if none is."""
    times = [t for t, _ in refs]
    prefix = list(itertools.accumulate((r for _, r in refs), initial=0.0))
    out = []
    for t in ends:
        lo = bisect.bisect_left(times, t - REF_WINDOW_S / 2)
        hi = bisect.bisect_right(times, t + REF_WINDOW_S / 2)
        if lo == hi:
            lo = min(max(0, lo - 1), len(times) - 1)
            hi = lo + 1
        out.append(NOMINAL_S * (hi - lo) / (prefix[hi] - prefix[lo]))
    return out


def check(workload, req, rc, text):
    """Oracle verdict for one output, or None for a nonzero exit."""
    from workloads import Verdict

    if rc != 0:
        return None
    try:
        return workload.check(req, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return Verdict(False, f"unreadable report: {exc!r}")


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def fresh(*args):
    """Run fresh.py in a new interpreter and return the numbers it prints."""
    proc = subprocess.run(
        [sys.executable, "-I", str(HERE / "fresh.py"), *args],
        capture_output=True,
        text=True,
        timeout=150,
        check=True,
    )
    return [float(v) for v in proc.stdout.split()]


@functools.cache
def accuracy_probe(cli, seed):
    """Untimed accuracy, identical for every workload: the float64 clean-size
    ladder, the honest share and digits on the f64-roundtrip size mix, and
    the exact ladder of wide rational solves.  It depends only on the seed,
    so ``--workload all`` works it out once."""
    from antibidiag.sampling import case_rng, random_rational_spectrum, random_spectrum
    from workloads import CLEAN_TOL, F64_SIZES, WORKLOADS, exact_request, roundtrip_request

    def roundtrip(label, n, i):
        req = roundtrip_request(n, random_spectrum(case_rng(seed, label, i), n))
        rc, _, text = send(cli, req)
        return check(WORKLOADS["f64-roundtrip"], req, rc, text)

    def clean(v):
        return v is not None and v.ok and v.rel_err <= CLEAN_TOL

    clean_n_max, ladder_bad = 0, 0
    for n in LADDER_SIZES:
        k = LADDER_DENSE if n <= LADDER_DENSE_MAX_N else LADDER_SPARSE
        rung = [roundtrip(f"ladder{n}", n, i) for i in range(k)]
        ladder_bad += sum(1 for v in rung if v is not None and not v.ok)
        if not all(clean(v) for v in rung):
            break
        clean_n_max = n

    def exact_rung(n):
        """Verdicts of the rung's requests, up to the first that fails."""
        verdicts = []
        for i in range(EXACT_LADDER_PER_SIZE):
            rng = case_rng(seed, f"exact-ladder{n}", i)
            req = exact_request(n, random_rational_spectrum(rng, n, max_num=EXACT_LADDER_MAX_NUM))
            rc, _, text = send(cli, req)
            verdicts.append(check(WORKLOADS["exact-solve"], req, rc, text))
            if verdicts[-1] is None or not verdicts[-1].ok:
                break
        return verdicts

    exact_n_max, exact_bad, exact_exit_nonzero = 0, 0, 0
    for n in EXACT_LADDER_SIZES:
        rung = exact_rung(n)
        exact_bad += sum(1 for v in rung if v is not None and not v.ok)
        exact_exit_nonzero += sum(1 for v in rung if v is None)
        if exact_bad or exact_exit_nonzero:
            break
        exact_n_max = n

    probe = [roundtrip(f"probe{n}", n, i) for n in F64_SIZES for i in range(PROBE_PER_SIZE)]
    good = [v for v in probe if v is not None and v.ok]
    honest = sum(1 for v in good if v.rel_err <= CLEAN_TOL or v.warned) / len(probe)
    # A failed request counts as 0 correct digits.
    digits = [min(DIGITS_CAP, -math.log10(max(v.rel_err, 1e-300))) for v in good]
    digits += [0.0] * (len(probe) - len(good))
    return {
        "metrics": {
            "clean_n_max": float(clean_n_max),
            "honest_frac": honest,
            "f64_digits": statistics.fmean(digits),
            "exact_clean_n_max": float(exact_n_max),
        },
        "info": {
            "probe_rel_err_max": max((v.rel_err for v in good), default=math.inf),
            "probe_silent_bad_frac": 1 - honest,
            "probe_bad_outputs": sum(1 for v in probe if v is not None and not v.ok),
            "ladder_bad_outputs": ladder_bad,
            "exact_ladder_bad_outputs": exact_bad,
            "exact_ladder_exit_nonzero": exact_exit_nonzero,
        },
    }


def run_untraced(cli, workload, seed, seconds):
    from workloads import CLEAN_TOL

    def time_setup():
        return [fresh("setup", str(SRC)) for _ in range(SETUP_REPEATS)]

    reqs = workload.requests(seed, POOL)
    setup = time_setup()
    (peak_rss_mb,) = fresh("rss", str(SRC), workload.name, str(seed))
    with redirect_stderr(io.StringIO()):
        acc = accuracy_probe(cli, seed)
    setup += time_setup()
    results, ends, refs = closed_loop(
        lambda req: send(cli, req), reqs, seconds, workload.cycle
    )
    setup += time_setup()

    latencies, raw_latencies, failed, mismatches, f64 = [], [], 0, [], []
    busy_s = raw_busy_s = 0.0
    for i, ((rc, dt, text), scale) in enumerate(zip(results, scales(ends, refs))):
        req = reqs[i % len(reqs)]
        scaled = dt * scale
        busy_s += scaled
        raw_busy_s += dt
        v = check(workload, req, rc, text)
        if v is None or not v.ok:
            failed += 1
            latencies.append(math.inf)
            raw_latencies.append(math.inf)
            if v is not None:
                mismatches.append(f"n={req.n}: {v.detail}")
        else:
            latencies.append(scaled * 1e3)
            raw_latencies.append(dt * 1e3)
            if v.rel_err is not None:
                f64.append(v)
    latencies.sort()
    raw_latencies.sort()
    attempted = len(results)
    metrics = {
        "setup_s": statistics.median(raw * NOMINAL_S / ref for raw, ref in setup),
        "latency_p50_ms": percentile(latencies, 0.50),
        "latency_p90_ms": percentile(latencies, 0.90),
        "throughput_rps": (attempted - failed) / busy_s,
        "success_frac": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb,
        **acc["metrics"],
    }
    info = {
        "host_speed": statistics.fmean(r for _, r in refs) / NOMINAL_S,
        "raw_setup_s": statistics.median(raw for raw, _ in setup),
        "raw_latency_p50_ms": percentile(raw_latencies, 0.50),
        "raw_latency_p90_ms": percentile(raw_latencies, 0.90),
        "raw_throughput_rps": (attempted - failed) / raw_busy_s,
        "fail_frac": failed / attempted,
        "exit_nonzero": sum(1 for rc, _, _ in results if rc != 0),
        "oracle_mismatches": len(mismatches),
        **acc["info"],
    }
    if f64:
        info["timed_rel_err_max"] = max(v.rel_err for v in f64)
        info["timed_silent_bad_frac"] = sum(
            1 for v in f64 if v.rel_err > CLEAN_TOL and not v.warned
        ) / attempted
    for m in mismatches[:5]:
        print(f"{workload.name}: oracle mismatch {m}", file=sys.stderr)
    correct = (
        not mismatches
        and acc["info"]["probe_bad_outputs"] == 0
        and acc["info"]["ladder_bad_outputs"] == 0
        and acc["info"]["exact_ladder_bad_outputs"] == 0
    )
    return correct, attempted, failed, metrics, info


def run_traced(cli, workload, seed, seconds):
    from spans import Tracer

    reqs = workload.requests(seed, POOL)
    tracer = Tracer()
    turn = itertools.count()

    def traced_send(req):
        with tracer.installed():
            return send(cli, req)

    def step(req):
        # Untraced and traced back to back, so drift in the host's speed
        # cancels out of the overhead; which goes first alternates, because
        # a repeat of the same request runs slightly faster.
        if next(turn) % 2:
            traced, plain = traced_send(req), send(cli, req)
        else:
            plain, traced = send(cli, req), traced_send(req)
        return plain, traced

    pairs, _, _ = closed_loop(step, reqs, seconds, workload.cycle)
    tracer.write_spans(OUT / f"spans-{workload.name}-s{seed}.csv")

    count, failed, mismatches, overhead = len(pairs), 0, 0, 0.0
    for i, ((rc, dt, text), (trc, tdt, ttext)) in enumerate(pairs):
        v = check(workload, reqs[i % len(reqs)], rc, text)
        failed += v is None or not v.ok
        mismatches += (v is not None and not v.ok) or (rc, text) != (trc, ttext)
        overhead += tdt - dt

    metrics = {"trace.overhead_ms": overhead * 1e3 / count}
    for layer, self_s in tracer.layer_self().items():
        metrics[f"{layer}.self_ms"] = self_s * 1e3 / count
    for name, (calls, self_s) in tracer.stats.items():
        metrics[f"{name}.calls"] = calls / count
        metrics[f"{name}.self_ms"] = self_s * 1e3 / count
    info = {
        "untraced_ms_per_request": sum(p[0][1] for p in pairs) * 1e3 / count,
        "spans_recorded": len(tracer.spans),
        "spans_not_recorded": tracer.dropped,
    }
    top = sorted(tracer.stats.items(), key=lambda kv: -kv[1][1])
    for name, (calls, self_s) in top:
        if calls:
            info[f"all.{name}"] = f"{self_s * 1e3 / count:.4f} ms self, {calls / count:.1f} calls"
    return mismatches == 0, count, failed, metrics, info


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def select(metrics, wanted):
    """Exactly the metrics BENCHMARK.json lists, with their units.  A traced
    function that was never called reads 0, because the tracer lists every
    public function when it installs; one that no longer exists raises."""
    out = {}
    for m in wanted:
        if m["name"] not in metrics:
            raise KeyError(f"metric {m['name']} was not measured")
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
    return out


def report(name, metrics, info):
    for key, m in metrics.items():
        print(f"{name:14s} {key:44s} {m['value']:>16.6g} {m['unit']}")
    for key, value in info.items():
        shown = f"{value:>16.6g}" if isinstance(value, (int, float)) else value
        print(f"{name:14s} {'(info) ' + key:44s} {shown}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_library()
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    wanted = spec()["per_layer" if args.trace else "end_to_end"]
    run = run_traced if args.trace else run_untraced

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        correct, attempted, failed, metrics, info = run(
            cli, WORKLOADS[name], args.seed, args.seconds
        )
        chosen = select(metrics, wanted)
        report(name, chosen, {"attempted": attempted, "failed": failed, **info})
        total["correct"] &= correct
        total["attempted"] += attempted
        total["failed"] += failed
        prefix = "" if len(names) == 1 else f"{name}."
        total["metrics"].update({prefix + k: v for k, v in chosen.items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
