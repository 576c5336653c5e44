"""Per-layer metrics and cross-checks from the traces of one op.

A trace is the JSON a ``traced_cli.py`` process writes, plus the ``stage``
the benchmark ran it as.  Metric names are ``<module>.<function>.<quantity>``.
"""

from __future__ import annotations

from collections import defaultdict

MODULES = ("cli", "mesh_fem", "sparse", "synthetic_data", "benchmarks",
           "identify_reduced", "identify_vfm", "identify_aao", "materials", "uq")
STAGES = ("generate", "calibrate_reduced", "calibrate_vfm", "calibrate_aao",
          "uq_asymptotic", "uq_bayes", "uq_twostep", "uq_hierarchical")

# name -> unit of every per-layer metric a traced run reports.
LAYER_METRICS = {
    "cli.startup_s": "s",
    "cli.commands": "count",
    "mesh_fem.read_mesh_file.s": "s",
    "mesh_fem.assemble_stiffness.calls": "count",
    "mesh_fem.assemble_stiffness.s": "s",
    "mesh_fem.solve_linear.calls": "count",
    "mesh_fem.solve_linear.s": "s",
    "mesh_fem.decomposition_stiffness.calls": "count",
    "mesh_fem.decomposition_stiffness.s": "s",
    "mesh_fem.assemble_parameter_matrices.s": "s",
    "sparse.splu.calls": "count",
    "sparse.splu.s": "s",
    "sparse.splu.fill_nnz": "count",
    "synthetic_data.generate_plate_data.s": "s",
    "synthetic_data.interpolate_bilinear.s": "s",
    "synthetic_data.interpolate_bilinear.points": "count",
    "synthetic_data.write_observation_csv.s": "s",
    "synthetic_data.read_observation_csv.s": "s",
    "benchmarks.plate_displacements.calls": "count",
    "benchmarks.plate_displacements.s": "s",
    "benchmarks.uniaxial_response.calls": "count",
    "benchmarks.uniaxial_response.s": "s",
    "identify_reduced.solve_nls.s": "s",
    "identify_reduced.solve_nls.iterations": "count",
    "identify_reduced.solve_nls.forward_evals": "count",
    "identify_reduced.jacobian_external_nd.calls": "count",
    "identify_reduced.jacobian_external_nd.s": "s",
    "identify_vfm.solve_vfm.s": "s",
    "identify_aao.AaoOperators.s": "s",
    "identify_aao.aao_fem_solve.s": "s",
    "identify_aao.aao_fem_solve.iterations": "count",
    "materials.uniaxial_plastic_driver.calls": "count",
    "materials.uniaxial_plastic_driver.s": "s",
    "materials.integrate_viscoplastic_step.calls": "count",
    "materials.integrate_viscoplastic_step.s": "s",
    "materials.integrator_useful_ratio": "ratio",
    "uq.ensemble_sample.calls": "count",
    "uq.ensemble_sample.s": "s",
    "uq.ensemble_sample.self_s": "s",
    "uq.log_post.calls": "count",
    "uq.log_post.s": "s",
    "uq.acceptance_rate": "ratio",
    "uq.hierarchical_two_step_bayes.s": "s",
    "uq.hierarchical_two_step_bayes.n_failed": "count",
    "uq.covariance.s": "s",
}
LAYER_METRICS.update({f"{m}.errors": "count" for m in MODULES})

# Layers a workload leaves idle: they must report an explicit 0 there.
# Prefixes of metric names.
IDLE = {
    "plate-reference": ("materials.", "benchmarks.uniaxial_response", "uq.ensemble_sample",
                        "uq.log_post", "uq.hierarchical"),
    "plate-bayes": ("synthetic_data.generate_plate_data", "synthetic_data.interpolate",
                    "synthetic_data.write", "materials.", "benchmarks.uniaxial_response",
                    "identify_", "uq.hierarchical", "uq.covariance"),
    "twostep-uq": ("mesh_fem.", "sparse.", "synthetic_data.", "benchmarks.plate_displacements",
                   "identify_vfm.", "identify_aao."),
}


def _outermost(spans, name):
    """Indices of spans called ``name`` that have no ancestor of that name."""
    out = []
    for i, rec in enumerate(spans):
        if rec[0] != name:
            continue
        parent = rec[1]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][1]
        if parent < 0:
            out.append(i)
    return out


def trace_metrics(trace) -> dict:
    """Per-layer metrics of one traced command."""
    spans = trace["spans"]
    m = defaultdict(float)
    m["cli.startup_s"] = trace["startup_s"]
    m["cli.commands"] = 1
    m["cli.errors"] = int(trace["exit_code"] != 0)
    for module, count in trace["errors"].items():
        m[f"{module}.errors"] += count
    for name in {rec[0] for rec in spans[1:]}:
        m[f"{name}.calls"] = sum(1 for rec in spans if rec[0] == name)
        m[f"{name}.s"] = sum(spans[i][3] - spans[i][2] for i in _outermost(spans, name))
    for rec in spans:
        for key, value in (rec[4] or {}).items():
            if key in ("fill_nnz", "points", "iterations", "forward_evals", "n_failed",
                       "strain_steps"):
                m[f"{rec[0]}.{key}"] += value
    leaf_busy_under = defaultdict(float)  # span index -> log-posterior busy time
    for parent, name, calls, busy in trace["leaves"]:
        m[f"{name}.calls"] += calls
        m[f"{name}.s"] += busy
        if name == "uq.log_post":
            leaf_busy_under[parent] += busy
    ensembles = [i for i, rec in enumerate(spans) if rec[0] == "uq.ensemble_sample"]
    m["uq.ensemble_sample.self_s"] = sum(
        spans[i][3] - spans[i][2] - leaf_busy_under[i] for i in ensembles)
    m["uq.acceptance_rate_sum"] = sum(spans[i][4]["acceptance_rate"] for i in ensembles)
    return m


def op_metrics(traces) -> dict:
    """Per-layer metrics of one op: the sum over its traced commands."""
    total = defaultdict(float)
    for trace in traces:
        for key, value in trace_metrics(trace).items():
            total[key] += value
    out = {name: float(total.get(name, 0.0)) for name in LAYER_METRICS}
    chains = total.get("uq.ensemble_sample.calls", 0.0)
    out["uq.acceptance_rate"] = total["uq.acceptance_rate_sum"] / chains if chains else 0.0
    steps = total.get("materials.uniaxial_plastic_driver.strain_steps", 0.0)
    calls = total.get("materials.integrate_viscoplastic_step.calls", 0.0)
    out["materials.integrator_useful_ratio"] = steps / calls if calls else 0.0
    return out


def stage_breakdown(traces) -> dict:
    """Per-layer metrics of each stage, with the stage's traced wall time."""
    out = {}
    for trace in traces:
        metrics = op_metrics([trace])
        spans = trace["spans"]
        metrics["stage_traced_s"] = trace["startup_s"] + trace["install_s"] + (
            spans[0][3] - spans[0][2])
        out[trace["stage"]] = metrics
    return out


def cross_check(workload, traces, metrics, reports) -> list:
    """Failures of the trace cross-checks for one traced op.

    ``reports`` maps a stage to its parsed report (``read_report``).
    """
    fail = []
    for trace in traces:
        stage = trace["stage"]
        if stage not in ("calibrate_reduced", "uq_asymptotic"):
            continue
        single = op_metrics([trace])
        forward = single["benchmarks.plate_displacements.calls"]
        nls = single["identify_reduced.solve_nls.forward_evals"]
        if forward != nls:
            fail.append(f"{stage}: {forward:.0f} plate_displacements calls but solve_nls "
                        f"reports {nls:.0f} forward evaluations")
        reported = reports.get(stage, {}).get("forward_evaluations")
        if reported is not None and forward != float(reported):
            fail.append(f"{stage}: {forward:.0f} plate_displacements calls but the report "
                        f"says forward_evaluations = {reported}")
    for trace in traces:
        spans = trace["spans"]
        calls_under = defaultdict(int)
        for parent, name, calls, _ in trace["leaves"]:
            if name == "uq.log_post":
                calls_under[parent] += calls
        for i, rec in enumerate(spans):
            if rec[0] == "uq.ensemble_sample":
                limit = rec[4]["walkers"] * (rec[4]["steps"] + 1)
                if calls_under[i] > limit:
                    fail.append(f"{trace['stage']}: chain made {calls_under[i]} log-posterior "
                                f"calls, more than walkers x (steps + 1) = {limit}")
    for name in LAYER_METRICS:
        if name.startswith(IDLE[workload]) and metrics[name] != 0.0:
            fail.append(f"{workload}: layer metric {name} = {metrics[name]} "
                        f"but the layer should be idle here")
    return fail
