"""The benchmark's tracer (perfbench/tracing.py) patches the program's layer
entry points by name. A rename that drops one of them must fail here, not
only in the much slower benchmark self-test."""

from pathlib import Path

import numpy as np

from pmcsurf import integrals, solver
from pmcsurf.cartesian import hyperboloid, surface_field
from pmcsurf.fields import BoxGrid

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_hooks_install_and_record(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    with tracer.installed():
        H = solver.rational_curvature(0.1)
        _, rep = solver.solve_dirichlet(H, 2.0, n_s=8, n_theta=16, precheck=False)
    assert rep.converged and rep.iterations > 0
    names = {span[1] for span in tracer.spans}
    assert {"solver.linear_solve", "solver.jacobian", "solver.residual", "solver.slope_sq"} <= names
    assert tracer.counts["solver.jacobian.nnz"] > 0
    assert tracer.counts["solver.newton_iters"] == rep.iterations
    # one linear solve per Newton step: the step and its rounding floor share it
    assert sum(span[1] == "solver.linear_solve" for span in tracer.spans) == rep.iterations


def test_tracer_hooks_cover_the_verifiers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    fld = surface_field(hyperboloid(1.0), BoxGrid.cube(2, 3.0, 41))
    tracer = tracing.Tracer()
    with tracer.installed():
        integrals.willmore_integral(hyperboloid(1.0, 2), truncation=4, threads=2)
        integrals.lp_growth(fld, 2.0, [0.5, 1.0])
    names = {span[1] for span in tracer.spans}
    assert {
        "integrals.slab",
        "cartesian.kernels",
        "cartesian.field_jets",
        "integrals.geodesic_distances",
    } <= names
    assert tracer.counts["integrals.jet_points"] > 0
    # the benchmark's integrals.slab span times the Willmore pool items
    assert tracer.counts["util.parallel_map.items"] > 0


def test_tracer_sees_one_linear_solve_per_step_on_fourier_data(monkeypatch):
    # non-radial iterates take the SuperLU path, inside the same traced name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    with tracer.installed():
        _, rep = solver.solve_dirichlet(
            solver.rational_curvature(0.1), 3.0, n_s=16, n_theta=32,
            boundary=lambda th: 0.3 * np.cos(3 * th) + 0.1 * np.sin(th), precheck=False,
        )
    assert rep.converged and rep.iterations > 0
    assert tracer.counts["solver.newton_iters"] == rep.iterations
    assert sum(span[1] == "solver.linear_solve" for span in tracer.spans) == rep.iterations
    assert sum(span[1] == "solver.jacobian" for span in tracer.spans) == rep.iterations
    assert tracer.counts["solver.jacobian.nnz"] == rep.iterations * (9 * 15 * 32 - 4 * 32 + 1)
