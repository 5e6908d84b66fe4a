"""The bredonkit benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; bredonkit is imported from ``src/``.
Workloads are hempel_hnn, long_relator_fox, snf_homology and small_cli (see
perfbench/NOTES.md for why each exists).  Each is a closed loop with one
client and one thread, run in a fresh worker process so that its peak RSS is
its own.

--trace 0 measures the end-to-end metrics: one worker for S seconds, and
set-up time over fresh interpreter launches before and after it.  --trace 1 runs an
untraced worker for S/2 seconds, then a traced worker over exactly the same
cases, and reports per-layer self times, counts and the tracing overhead.
Spans go to .perfbench_out/.  Either way the last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.

``--self-check`` instead verifies the benchmark itself: one seed gives
byte-identical inputs, another seed gives different ones, and a deliberately
wrong answer is counted as a failure on every workload.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import gen  # noqa: E402

SETUP_LAUNCHES = 8  # before the worker, and again after it
SETUP_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150
SETUP_CODE = "import bredonkit.cli as cli; cli.build_parser()"


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_times() -> list[float]:
    """Wall times of fresh interpreters importing the CLI and building its parser.

    One unmeasured launch first writes the bytecode cache, as an installed
    package would have it."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    _launch(cmd)
    times = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        _launch(cmd)
        times.append(time.perf_counter() - start)
    return times


def _launch(cmd) -> None:
    """Run cmd to completion with a blocking wait.

    subprocess.run(timeout=...) polls with sleeps of up to 50 ms, which would
    round every launch up to the next poll; a timer kills a hung child instead."""
    proc = subprocess.Popen(cmd, env=_env(), cwd=ROOT)
    timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        status = proc.wait()
    finally:
        timer.cancel()
    if status != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with status {status}")


def run_worker(workload: str, seed: int, seconds: float, mode: str, limit=None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), str(seconds), mode]
    if limit is not None:
        cmd.append(str(limit))
    proc = subprocess.run(
        cmd, env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- sympy cross-check of the expected answers --------------------------------------

CROSSCHECK_MAX_SIDE = 20


def _matrices_with_answers(case):
    """(rows, ncols, free rank, torsion) claims made by a case's expected answer."""
    e = case.get("expect", {})
    kind = case["kind"]
    if kind == "hempel":
        yield e["exponent_rows"], len(e["exponent_rows"][0]), *e["H1"]
    elif kind == "fox":
        yield [e["vec"]], len(e["vec"]), *e["H1"]
    elif kind in ("dense", "sparse"):
        yield case["entries"], case["cols"], e["free"], e["torsion"]
    elif kind == "chain":
        yield case["d_in"], case["dims"][1], None, e["torsion"]
    elif kind == "cli" and "diag" in case:
        m = json.loads(case["argv"][2])
        rows = [m["entries"][i * m["cols"] : (i + 1) * m["cols"]] for i in range(m["rows"])]
        nonzero = [d for d in case["diag"] if d]
        yield rows, m["cols"], m["cols"] - len(nonzero), [d for d in nonzero if d > 1]


def crosscheck(workload: str, seed: int) -> int:
    """Compare the first cycle's small expected answers with sympy's SNF.

    Returns the number of matrices checked; raises if one disagrees, since
    that is a fault in the benchmark's generator, not in bredonkit."""
    try:
        from sympy import ZZ, Matrix
        from sympy.matrices.normalforms import smith_normal_form
    except ImportError:
        print("note: sympy is not installed; cross-check skipped", file=sys.stderr)
        return 0

    def invariants(rows, ncols):
        d = smith_normal_form(Matrix(rows), domain=ZZ)
        nonzero = [abs(d[i, i]) for i in range(min(d.shape)) if d[i, i]]
        return ncols - len(nonzero), sorted(x for x in nonzero if x > 1)

    checked = 0
    for case in itertools.islice(gen.cases(workload, seed), gen.cycle_length(workload)):
        for rows, ncols, free, torsion in _matrices_with_answers(case):
            if len(rows) > CROSSCHECK_MAX_SIDE or ncols > CROSSCHECK_MAX_SIDE:
                continue
            got_free, got_torsion = invariants(rows, ncols)
            if got_torsion != sorted(torsion) or free not in (None, got_free):
                raise RuntimeError(
                    f"generator fault in case {case['id']}: expected {free} {torsion},"
                    f" sympy gives {got_free} {got_torsion}"
                )
            checked += 1
    return checked


# -- metrics -------------------------------------------------------------------------


def cycle_rate(result: dict, cycle_length: int) -> tuple[float, int]:
    """Median over complete cycles of correct operations per second of operation time.

    A cycle runs every size slot of the workload once, so each complete
    cycle does the same mix of work; a partly run last cycle is left out.
    Returns the rate and the number of complete cycles (0: whole-run rate)."""
    time_by_cycle: dict[int, float] = {}
    ok_by_cycle: dict[int, int] = {}
    count: dict[int, int] = {}
    for t, c, good in zip(result["latencies_s"], result["cycles"], result["ok"]):
        time_by_cycle[c] = time_by_cycle.get(c, 0.0) + t
        ok_by_cycle[c] = ok_by_cycle.get(c, 0) + good
        count[c] = count.get(c, 0) + 1
    complete = [c for c, n in count.items() if n == cycle_length]
    if not complete:
        return sum(result["ok"]) / sum(result["latencies_s"]), 0
    return statistics.median(ok_by_cycle[c] / time_by_cycle[c] for c in complete), len(complete)


def end_to_end(result: dict, setup_s: float, cycle_length: int) -> tuple[dict, list[str]]:
    lat_ms = [t * 1000 for t in result["latencies_s"]]
    cuts = statistics.quantiles(lat_ms, n=20, method="inclusive")
    p50, p95 = statistics.median(lat_ms), cuts[18]
    attempted, failed = result["attempted"], result["failed"]
    correct_ops = attempted - failed
    beyond = sum(1 for t in lat_ms if t > p95)
    rate, cycles = cycle_rate(result, cycle_length)
    metrics = {
        "ops_per_s": rate,
        "latency_ms_p50": p50,
        "latency_ms_p95": p95,
        "peak_rss_mb": result["peak_rss_kib"] / 1024,
        "answer_rate": correct_ops / attempted,
        "setup_s": setup_s,
    }
    notes = [
        f"samples: {len(lat_ms)} operations, {beyond} above p95"
        + ("" if beyond >= 10 else " (fewer than 10: p95 is not resolved)"),
        f"ops_per_s is the median over {cycles} complete cycles of {cycle_length} operations",
        f"error_rate: {failed / attempted} ({failed} of {attempted} operations failed)",
        f"cpu/wall: {result['cpu_s']:.3f} s / {result['wall_s']:.3f} s",
    ]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bredonkit", "__init__.py")):
        print(f"error: no bredonkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")

    try:
        checked = crosscheck(args.workload, args.seed)
        if args.trace:
            plain = run_worker(args.workload, args.seed, args.seconds / 2, "plain")
            traced = run_worker(args.workload, args.seed, 0, "traced", plain["attempted"])
        else:
            # Half the launches before the worker and half after it, so that
            # one slow second of the host does not decide the median.
            setup = setup_times()
            result = run_worker(args.workload, args.seed, args.seconds, "plain")
            setup_s = statistics.median(setup + setup_times())
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, 1 thread")
    print(f"sympy cross-check: {checked} expected answers agree")
    if args.trace:
        metrics = dict(traced["layers"])
        plain_rate = plain["attempted"] / sum(plain["latencies_s"])
        traced_rate = traced["attempted"] / sum(traced["latencies_s"])
        metrics["trace.overhead_pct"] = (plain_rate / traced_rate - 1) * 100
        metrics["trace.op_ms"] = 1000 / traced_rate
        notes = [
            f"traced {traced['attempted']} operations ({traced['spans']} spans,"
            f" written to {traced['spans_file']})",
            f"untraced ops_per_s {plain_rate}, traced {traced_rate}",
        ]
        runs = (plain, traced)
    else:
        metrics, notes = end_to_end(result, setup_s, gen.cycle_length(args.workload))
        runs = (result,)
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)

    units = metric_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with"
              " BENCHMARK.json", file=sys.stderr)
        return 1
    for name, unit in units.items():
        print(f"  {name:<48} {metrics[name]:>14.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    for r in runs:
        for failure in r["failures"]:
            print(f"  FAILED {failure}")
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(summary))
    return 0


def metric_units(section: str) -> dict[str, str]:
    """Metric names and units, in the order BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def self_check() -> int:
    problems = []
    for workload in gen.WORKLOADS:
        def dump(seed):
            return json.dumps(list(itertools.islice(gen.cases(workload, seed), 60))).encode()

        first = dump(7)
        if dump(7) != first:
            problems.append(f"{workload}: seed 7 gave different inputs on a second pass")
        if dump(8) == first:
            problems.append(f"{workload}: seeds 7 and 8 gave identical inputs")
        clean = run_worker(workload, 7, 1.0, "plain")
        faulty = run_worker(workload, 7, 1.0, "fault")
        if clean["failed"]:
            problems.append(f"{workload}: failures without a fault: {clean['failures']}")
        if not faulty["failed"]:
            problems.append(f"{workload}: a wrong cokernel went unnoticed")
        print(
            f"{workload}: inputs deterministic; clean run {clean['failed']}/{clean['attempted']}"
            f" failed, faulty run {faulty['failed']}/{faulty['attempted']} failed"
        )
    for problem in problems:
        print(f"SELF-CHECK FAILED: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
