"""The benchmark's tracer (perfbench/tracing.py) patches the program's layer
entry points by name. A rename that drops one of them must fail here, not
only in the much slower benchmark self-test."""

from pathlib import Path

from pmcsurf import solver

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
