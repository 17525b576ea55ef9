"""Self-tests of the benchmark itself, on tiny grids (about ten seconds).

    python3 perfbench/selftest.py

Checks that a tiny run of each workload prints every metric name with
its unit, that an operation made to fail is counted without stopping
the run, and that the self times of a traced pass add up to its wall
time measured apart from the spans. Exits 1 if any check fails.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402

FAILURES = []
# installing and removing the patches is all that lies outside the root span;
# the margin leaves room for the odd preemption on a shared machine
ADDITIVITY_TOL_S = 5e-3


def check(ok, message):
    print("[%s] %s" % ("PASS" if ok else "FAIL", message))
    if not ok:
        FAILURES.append(message)


def tiny_run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = out.stdout.strip().splitlines()
    return out.returncode, lines[:-1], json.loads(lines[-1]) if lines else None


def test_tiny_runs():
    import tracing
    import workloads

    printed = dict(run.END_TO_END, op_fail_ratio="ratio", **workloads.FIGURES)
    per_layer = dict(tracing.LAYER_METRICS, **workloads.FIGURES)
    for w in workloads.WORKLOADS:
        for trace, expected in ((0, run.END_TO_END), (1, per_layer)):
            rc, head, doc = tiny_run(w, trace)
            ok = rc == 0 and doc is not None and doc["correct"] and doc["failed"] == 0
            ok = ok and set(doc["metrics"]) == set(expected)
            ok = ok and all(doc["metrics"][k]["unit"] == u for k, u in expected.items())
            ok = ok and all(isinstance(v["value"], float) for v in doc["metrics"].values())
            shown = {ln.split()[1]: ln.split()[-1] for ln in head if ln.startswith("metric ")}
            ok = ok and shown == printed
            check(ok, "tiny %s run, trace %d: exit 0, correct, every metric with its unit" % (w, trace))
            if trace:
                check_additivity(w)


def check_additivity(workload):
    """Self times of each traced pass, less the pool workers' overlap, sum to
    the pass time taken outside the tracer, within ADDITIVITY_TOL_S."""
    with open(run.TMP_ROOT / ("trace-%s.json" % workload)) as fh:
        dump = json.load(fh)
    ok, worst = True, 0.0
    for p in dump["passes"]:
        spans = {s["id"]: s for s in p["spans"]}
        nested = all(
            s["parent"] is None
            or (spans[s["parent"]]["start"] <= s["start"] and s["end"] <= spans[s["parent"]]["end"])
            for s in spans.values()
        )
        roots = [s for s in spans.values() if s["parent"] is None]
        in_op = all((s["op"] is None) == (s["parent"] is None) for s in spans.values())
        m = p["metrics"]
        gap = abs(p["self_sum_s"] - m["trace.concurrency_s"] - p["outer_s"])
        worst = max(worst, gap)
        ok = ok and nested and len(roots) == 1 and in_op and gap <= ADDITIVITY_TOL_S
    check(ok, "%s: spans of %d traced pass(es) nest under one root, self times sum to the "
          "separately timed pass (largest gap %.1e s)" % (workload, len(dump["passes"]), worst))


def test_injected_failure():
    import workloads

    tmp = tempfile.mkdtemp(dir=run.TMP_ROOT)
    try:
        wl = workloads.make("radial", 7, "tiny", tmp, 1)
        wl.solve_argv += ["--max-iters", "1"]
        res = wl.run_pass(run.no_span, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    ok = res.attempted == 3 and res.failed == 2
    ok = ok and any("solve exited 2" in e for e in res.errors)
    check(ok, "--max-iters 1 fails the solve and its oracle check, the sweep still runs: %s"
          % res.errors)


def main():
    nproc = len(os.sched_getaffinity(0))
    run.pin_threads(nproc)
    run.TMP_ROOT.mkdir(exist_ok=True)
    test_injected_failure()
    test_tiny_runs()
    print("%d check(s) failed" % len(FAILURES) if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
