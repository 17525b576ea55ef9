"""Spans around the program's layer entry points, recorded from outside.

`Tracer.installed()` patches each layer's public entry points with a
wrapper that records a span: name, start, end, parent span and
operation id. Names a consumer module imported by value are patched in
that consumer (`solver.spsolve`, `integrals.tilt_cartesian`,
`cli.dump_json`, ...). Spans stay in memory; `layer_metrics` folds one
traced pass into the per-layer metrics; the run writes the spans out
when it ends. Nothing under `src/` changes; the patches are undone
when the traced pass ends, so untraced passes run the program as is.
"""

import contextlib
import functools
import itertools
import os
import threading
import time
from collections import Counter, defaultdict

import numpy as np

from pmcsurf import cartesian, cli, fieldio, integrals, radial, solver

# per-layer metrics: name -> unit, in report order
LAYER_METRICS = {
    "cli.import_s": "s",
    "cli.solve.s": "s",
    "cli.exhaustion.s": "s",
    "cli.willmore.s": "s",
    "cli.growth.s": "s",
    "cli.identities.s": "s",
    "solver.solve_dirichlet.self_s": "s",
    "solver.solve_dirichlet.calls": "count",
    "solver.linear_solve.s": "s",
    "solver.linear_solve.calls": "count",
    "solver.jacobian.s": "s",
    "solver.jacobian.calls": "count",
    "solver.jacobian.nnz": "count",
    "solver.residual.s": "s",
    "solver.residual.calls": "count",
    "solver.slope_sq.s": "s",
    "solver.line_search.trials": "count",
    "solver.newton_iters": "count",
    "solver.step_accept_ratio": "ratio",
    "solver.check_hypotheses.s": "s",
    "solver.exhaustion.self_s": "s",
    "solver.oracle.s": "s",
    "solver.poincare_residual.s": "s",
    "integrals.willmore_integral.self_s": "s",
    "integrals.lp_growth.self_s": "s",
    "integrals.geodesic_distances.s": "s",
    "integrals.jet_points": "count",
    "integrals.slab.self_s": "s",
    "util.parallel_map.s": "s",
    "util.parallel_map.self_s": "s",
    "util.parallel_map.items": "count",
    "cartesian.surface_jets.s": "s",
    "cartesian.kernels.s": "s",
    "cartesian.field_jets.s": "s",
    "radial.identity_residuals.s": "s",
    "fieldio.write.s": "s",
    "fieldio.read.s": "s",
    "fieldio.bytes": "bytes",
    "util.dump_json.s": "s",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.concurrency_s": "s",
}


class Tracer:
    """In-memory span recorder; one per traced pass.

    A span named "op.<name>" marks one operation of the workload; spans
    opened inside it carry its id as their operation id. Pool workers
    record spans and counts too, so counts are updated under a lock.
    """

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, op)
        self.counts = Counter()
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @contextlib.contextmanager
    def span(self, name):
        st = self._stack()
        sid = next(self._ids)
        parent = st[-1] if st else None
        if name.startswith("op."):
            self.op = sid
        op = self.op
        st.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            st.pop()
            self.spans.append((sid, name, start, end, parent, op))

    @contextlib.contextmanager
    def adopt(self, sid):
        """Make sid the parent of spans this thread opens (pool workers)."""
        st = self._stack()
        st.append(sid)
        try:
            yield
        finally:
            st.pop()

    def wrap(self, fn, name, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                with self._lock:
                    after(self.counts, args, out)
            return out

        return traced

    def _patches(self):
        """(owner, attribute, replacement) for every traced entry point."""
        patches = []

        def add(owner, attr, name, after=None):
            patches.append((owner, attr, self.wrap(getattr(owner, attr), name, after)))

        def count_nnz(c, args, out):
            c["solver.jacobian.nnz"] += int(out.nnz)

        def count_iters(c, args, out):
            c["solver.newton_iters"] += int(out[1].iterations)

        def count_points(c, args, out):
            c["integrals.jet_points"] += int(np.prod(np.shape(args[0])[:-1]))

        def count_bytes(c, args, out):
            path = next(a for a in args if isinstance(a, str))
            c["fieldio.bytes"] += os.path.getsize(path)

        add(solver, "spsolve", "solver.linear_solve")
        add(solver.DiscreteProblem, "jacobian", "solver.jacobian", count_nnz)
        add(solver.DiscreteProblem, "residual", "solver.residual")
        add(solver.DiscreteProblem, "slope_sq", "solver.slope_sq")
        add(solver, "solve_dirichlet", "solver.solve_dirichlet", count_iters)
        add(solver, "check_hypotheses", "solver.check_hypotheses")
        add(solver, "exhaustion", "solver.exhaustion")
        add(solver, "radial_ode_oracle", "solver.oracle")
        add(solver, "poincare_residual", "solver.poincare_residual")
        add(integrals, "willmore_integral", "integrals.willmore_integral")
        add(integrals, "lp_growth", "integrals.lp_growth")
        add(integrals, "geodesic_distances", "integrals.geodesic_distances")
        add(integrals, "tilt_cartesian", "cartesian.kernels", count_points)
        add(integrals, "metric_cartesian", "cartesian.kernels")
        add(integrals, "field_jets", "cartesian.field_jets")
        add(radial, "laplacian_w_residual", "radial.identity_residuals")
        add(radial, "hessian_tau_residual", "radial.identity_residuals")
        for attr in ("write_radial_field", "write_series_csv"):
            add(fieldio, attr, "fieldio.write", count_bytes)
        for attr in ("read_radial_field", "read_cartesian_field"):
            add(fieldio, attr, "fieldio.read", count_bytes)
        add(cli, "dump_json", "util.dump_json")
        patches.append((integrals, "parallel_map", self._traced_parallel_map(integrals.parallel_map)))
        for attr in ("hyperboloid", "bumped_hyperboloid", "saddle_hyperboloid"):
            patches.append((cartesian, attr, self._traced_surface_factory(getattr(cartesian, attr))))
        return patches

    def _traced_parallel_map(self, pmap):
        """Each item runs in an `integrals.slab` span (the only caller is
        the Willmore quadrature), so the pool's self time is start-up,
        hand-off and waiting only."""

        @functools.wraps(pmap)
        def traced(fn, items, threads=1):
            items = list(items)
            with self._lock:
                self.counts["util.parallel_map.items"] += len(items)
            with self.span("util.parallel_map") as sid:

                def adopted(x):
                    with self.adopt(sid), self.span("integrals.slab"):
                        return fn(x)

                return pmap(adopted, items, threads)

        return traced

    def _traced_surface_factory(self, factory):
        """Surfaces are closures; wrap the grad/hess of each one built."""

        @functools.wraps(factory)
        def traced(*args, **kwargs):
            surf = factory(*args, **kwargs)
            return cartesian.AnalyticSurface(
                m=surf.m,
                value=surf.value,
                grad=self.wrap(surf.grad, "cartesian.surface_jets"),
                hess=self.wrap(surf.hess, "cartesian.surface_jets"),
            )

        return traced

    @contextlib.contextmanager
    def installed(self):
        patches = self._patches()
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, new in patches:
                setattr(owner, attr, new)
            yield
        finally:
            for owner, attr, old in reversed(saved):
                setattr(owner, attr, old)


def _union_length(intervals):
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def span_times(spans):
    """Per span id: (duration, self time, concurrency).

    Self time is the duration minus the part of it the children cover.
    Concurrency is how much the children overlap one another (pool
    workers), so that self times sum to the root's duration plus it.
    """
    kids = defaultdict(list)
    for sid, _, s, e, parent, _ in spans:
        if parent is not None:
            kids[parent].append((s, e))
    out = {}
    for sid, _, s, e, _, _ in spans:
        ch = kids.get(sid, [])
        covered = _union_length(ch)
        out[sid] = (e - s, e - s - covered, sum(b - a for a, b in ch) - covered)
    return out


def layer_metrics(spans, counts, root):
    """Per-layer numbers of one traced pass whose root span id is root.

    Returns (metrics, sum of all self times); the sum equals the root's
    duration plus trace.concurrency_s when the spans nest properly.
    """
    times = span_times(spans)
    by_id = {sp[0]: sp for sp in spans}
    m = Counter()

    def has_ancestor_named(sp, name):
        p = sp[4]
        while p is not None:
            if by_id[p][1] == name:
                return True
            p = by_id[p][4]
        return False

    for sp in spans:
        sid, name = sp[0], sp[1]
        dur, self_t, conc = times[sid]
        m[name + ".calls"] += 1
        m[name + ".self_s"] += self_t
        m["trace.concurrency_s"] += conc
        if not has_ancestor_named(sp, name):
            m[name + ".s"] += dur
    m.update(counts)
    out = {k: float(m.get(k, 0.0)) for k in LAYER_METRICS}
    out["bench.self_s"] = sum(times[sp[0]][1] for sp in spans if sp[1] == "bench" or sp[1].startswith("op."))
    out["trace.wall_s"] = times[root][0]
    trials = m["solver.slope_sq.calls"] - m["solver.solve_dirichlet.calls"]
    out["solver.line_search.trials"] = float(trials)
    out["solver.step_accept_ratio"] = m["solver.newton_iters"] / trials if trials > 0 else 0.0
    return out, sum(t[1] for t in times.values())
