"""Run one workload in a fresh process: closed loop, one client, one thread.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE [LIMIT]

MODE is ``plain`` (no tracing), ``traced`` (spans around bredonkit's public
functions) or ``fault`` (plain, with a deliberately wrong cokernel on every
other call, for the self-check).  The loop takes the next case from the
seeded stream until SECONDS of wall time have passed, or, when LIMIT is
given, until LIMIT cases have run.  Each case is prepared, timed and then
checked; only the operation itself is inside the clock.  The last line of
stdout is one JSON object with the raw results.

bredonkit is imported from the ``src`` directory next to this benchmark, and
the worker refuses to run against any other copy.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import bredonkit  # noqa: E402

if not os.path.realpath(bredonkit.__file__).startswith(os.path.realpath(SRC) + os.sep):
    sys.exit(f"bredonkit imported from {bredonkit.__file__}, not from {SRC}")

import gen  # noqa: E402
import ops  # noqa: E402
import tracing  # noqa: E402

MAX_FAILURES_SHOWN = 5


def peak_rss_kib() -> int:
    """This process's own peak resident set size.

    VmHWM restarts at exec; ru_maxrss can carry over the parent's peak from
    before the exec, so it is only the fallback."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _install_fault() -> None:
    import bredonkit.int_linalg as int_linalg

    original = int_linalg.cokernel_invariants
    calls = [0]

    def wrong_every_other_call(m):
        calls[0] += 1
        g = original(m)
        if calls[0] % 2:
            return int_linalg.AbelianGroupInvariants(g.rank + 1, g.torsion)
        return g

    tracing.replace_everywhere(original, wrong_every_other_call)


def main(argv: list[str]) -> int:
    workload, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    limit = int(argv[4]) if len(argv) > 4 else None
    tracer = tracing.Tracer() if mode == "traced" else None
    if tracer is not None:
        tracing.install(tracer)
    if mode == "fault":
        _install_fault()

    stream = gen.cases(workload, seed)
    latencies: list[float] = []
    cycles: list[int] = []
    ok: list[bool] = []
    failures: list[str] = []
    clock = time.perf_counter
    cpu_start, wall_start = time.process_time(), clock()
    deadline = wall_start + seconds
    while (len(latencies) < limit) if limit is not None else (clock() < deadline):
        case = next(stream)
        prepared = ops.prepare(case)
        if tracer is not None:
            tracer.op, tracer.on = case["id"], True
        start = clock()
        try:
            result = ops.run(case, prepared)
            error = None
        except Exception as exc:  # an unexpected raise is a failed operation
            error = f"case {case['id']} ({case['kind']}): raised {exc!r}"
        latencies.append(clock() - start)
        cycles.append(case["cycle"])
        if tracer is not None:
            tracer.on = False
        if error is None:
            try:
                ops.check(case, result)
            except Exception as exc:
                error = f"case {case['id']} ({case['kind']}): {exc}"
        ok.append(error is None)
        if error is not None:
            failures.append(error)
        # Drop the answer before the next operation, so that peak memory is
        # that of one operation at a time.
        result = prepared = None

    report = {
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures[:MAX_FAILURES_SHOWN],
        "latencies_s": latencies,
        "cycles": cycles,
        "ok": ok,
        "wall_s": clock() - wall_start,
        "cpu_s": time.process_time() - cpu_start,
        "peak_rss_kib": peak_rss_kib(),
    }
    if tracer is not None:
        report["layers"] = tracer.metrics(len(latencies))
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl")
        tracer.write_spans(spans_path)
        report["spans_file"] = os.path.relpath(spans_path, ROOT)
        report["spans"] = len(tracer.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
