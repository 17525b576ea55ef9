"""pmcsurf benchmark: seeded workloads, verified results, optional traced run.

    python3 perfbench/run.py --workload radial --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports the package from its
`src/` directory. Set-up is timed in fresh interpreters; then the
workload's operations are replayed pass after pass for --seconds, each
pass checked against closed forms and independent routes. The last line
of standard output is one JSON object: `correct`, `attempted`, `failed`
and `metrics` (the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1). See perfbench/README.md.
"""

import argparse
import contextlib
import json
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# every file a run writes lives here, inside the checkout, and is removed
# at the end except the span dump of a traced run
TMP_ROOT = ROOT / ".perfbench-tmp"

PROBE_TIMEOUT_S = 60
PROBES_PER_PASS = 2
MIN_PASSES = {"full": 3, "tiny": 1}
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs the same operations on small grids (self-tests)")
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def pin_threads(nproc):
    """One BLAS thread; the program's own pool gets min(2, nproc)."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    os.environ["PMC_THREADS"] = str(min(2, nproc))


def environment(nproc):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "pmc_threads": os.environ["PMC_THREADS"],
    }


def probe(args, nproc):
    """Child side of a set-up measurement: import, build inputs, say ready."""
    t0 = time.perf_counter()
    import pmcsurf.cli  # noqa: F401  (the import is what is timed)

    import_s = time.perf_counter() - t0
    import workloads

    tmp = tempfile.mkdtemp(dir=TMP_ROOT)
    try:
        workloads.make(args.workload, args.seed, args.size, tmp, nproc)
        print(json.dumps({"import_s": import_s}), flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


class SetupProbe:
    """Times fresh interpreters from start to inputs ready.

    One probe runs before the passes to warm the caches and is not
    counted; after that PROBES_PER_PASS probes follow each pass, so the
    set-up samples span the same stretch of time as the passes.
    """

    def __init__(self, args):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
                    "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
        self.totals, self.imports = [], []
        self.once()  # warms the caches; not counted
        self.totals.clear()
        self.imports.clear()

    def once(self):
        t0 = time.perf_counter()
        with subprocess.Popen(self.cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
            line = ""
            if select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)[0]:
                line = proc.stdout.readline()
            t1 = time.perf_counter()
            if not line:
                proc.kill()
            proc.stdout.read()
            rc = proc.wait()
        if rc != 0 or not line.strip():
            raise RuntimeError("set-up probe failed with exit code %d" % rc)
        self.totals.append(t1 - t0)
        self.imports.append(json.loads(line)["import_s"])


def no_span(name):
    return contextlib.nullcontext()


def run_passes(wl, tmp, seconds, traced, min_passes, setup):
    """Replay the workload until --seconds have passed.

    Untraced and traced passes alternate when tracing; end-to-end times
    come from the untraced ones only. Set-up probes follow each pass
    and are not part of --seconds.
    """
    import tracing

    untraced_walls, traced_passes, results = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        outdir = os.path.join(tmp, "pass-%d" % i)
        os.mkdir(outdir)
        if traced and i % 2 == 1:
            tr = tracing.Tracer()
            t0 = time.perf_counter()
            with tr.installed(), tr.span("bench") as root:
                res = wl.run_pass(tr.span, outdir)
            # timed apart from the spans, for the self-test's additivity check
            traced_passes.append((tr, root, time.perf_counter() - t0))
        else:
            t0 = time.perf_counter()
            res = wl.run_pass(no_span, outdir)
            untraced_walls.append(time.perf_counter() - t0)
        shutil.rmtree(outdir)
        results.append(res)
        i += 1
        probe_start = time.perf_counter()
        for _ in range(PROBES_PER_PASS):
            setup.once()
        deadline += time.perf_counter() - probe_start
        enough = len(untraced_walls) >= min_passes and (not traced or len(traced_passes) >= min_passes)
        if enough and time.perf_counter() >= deadline:
            return untraced_walls, traced_passes, results


def per_layer(traced_passes, wall_s, import_s, figures, workload):
    """Median per-layer metrics over the traced passes; span dump to disk."""
    import tracing
    import workloads

    per_pass, sums = [], []
    for tr, root, _ in traced_passes:
        metrics, self_sum = tracing.layer_metrics(tr.spans, tr.counts, root)
        per_pass.append(metrics)
        sums.append(self_sum)
    layer = {k: statistics.median(p[k] for p in per_pass) for k in tracing.LAYER_METRICS}
    layer["cli.import_s"] = import_s
    layer["trace.overhead_s"] = layer["trace.wall_s"] - wall_s
    layer.update(figures)
    dump = TMP_ROOT / ("trace-%s.json" % workload)
    with open(dump, "w") as fh:
        json.dump(
            {
                "passes": [
                    {"metrics": m, "self_sum_s": total, "outer_s": outer, "spans": [
                        {"id": sid, "name": name, "start": start, "end": end, "parent": parent,
                         "op": op}
                        for sid, name, start, end, parent, op in tr.spans
                    ]}
                    for (tr, _, outer), m, total in zip(traced_passes, per_pass, sums)
                ]
            },
            fh,
        )
    print("trace: overhead %.4f s on a traced wall of %.4f s; spans in %s"
          % (layer["trace.overhead_s"], layer["trace.wall_s"], dump))
    units = dict(tracing.LAYER_METRICS, **workloads.FIGURES)
    return {k: {"value": layer.get(k, 0.0), "unit": u} for k, u in units.items()}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "pmcsurf" / "cli.py").is_file():
        print("error: no pmcsurf sources under %s; run from a source checkout" % SRC, file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    pin_threads(nproc)
    sys.path.insert(0, str(SRC))
    TMP_ROOT.mkdir(exist_ok=True)
    if args.probe:
        return probe(args, nproc)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r (%s)" % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 64
    setup = SetupProbe(args)
    tmp = tempfile.mkdtemp(dir=TMP_ROOT)
    try:
        wl = workloads.make(args.workload, args.seed, args.size, tmp, nproc)
        walls, traced_passes, results = run_passes(
            wl, tmp, args.seconds, bool(args.trace), MIN_PASSES[args.size], setup
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setup_s, import_s = statistics.median(setup.totals), statistics.median(setup.imports)

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    errors = sorted({e for r in results for e in r.errors})
    figures = {}
    for r in results:
        for k, v in r.figures.items():
            figures[k] = max(figures.get(k, 0.0), v)
    wall_s = statistics.median(walls)
    e2e = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }

    print("env: %s" % json.dumps(environment(nproc), sort_keys=True))
    print("run: workload=%s seed=%d size=%s passes=%d untraced, %d traced; wall_s quartiles %s"
          % (args.workload, args.seed, args.size, len(walls), len(traced_passes),
             ", ".join("%.4f" % q for q in (statistics.quantiles(walls, n=4) if len(walls) > 1 else walls))))
    for e in errors:
        print("failed op: %s" % e)
    for k, unit in END_TO_END.items():
        print("metric %-18s %.6g %s" % (k, e2e[k], unit))
    print("metric %-18s %.6g ratio" % ("op_fail_ratio", failed / attempted))
    for k, unit in workloads.FIGURES.items():
        print("metric %-18s %s %s" % (k, "%.6g" % figures[k] if k in figures else "n/a", unit))

    if args.trace:
        metrics = per_layer(traced_passes, wall_s, import_s, figures, args.workload)
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
