"""Run one calibrix CLI command with its public functions wrapped in spans.

Usage: python traced_cli.py <calibrix cli arguments...>

The wrappers are installed from outside the program: every calibrix module
that binds a traced function (``from .x import f`` binds it again) gets the
wrapper, and ``scipy.sparse.linalg.splu`` is replaced on its module because
calibrix calls it as ``spla.splu``.  Spans stay in memory and are written as
JSON to $PERFBENCH_TRACE_OUT when the command ends.  $PERFBENCH_SPAWN_T is
the parent's ``time.monotonic()`` just before it started this process, so
the interpreter start-up is part of ``startup_s``.
"""

import functools
import json
import os
import sys
import time

# (module, attribute) -> metric prefix.  A dotted attribute is a method.
SPANS = {
    ("calibrix.mesh_fem", "read_mesh_file"): "mesh_fem.read_mesh_file",
    ("calibrix.mesh_fem", "assemble_stiffness"): "mesh_fem.assemble_stiffness",
    ("calibrix.mesh_fem", "solve_linear"): "mesh_fem.solve_linear",
    ("calibrix.mesh_fem", "StiffnessDecomposition.stiffness"):
        "mesh_fem.decomposition_stiffness",
    ("calibrix.mesh_fem", "assemble_parameter_matrices"):
        "mesh_fem.assemble_parameter_matrices",
    ("scipy.sparse.linalg", "splu"): "sparse.splu",
    ("calibrix.synthetic_data", "generate_plate_data"): "synthetic_data.generate_plate_data",
    ("calibrix.synthetic_data", "interpolate_bilinear"): "synthetic_data.interpolate_bilinear",
    ("calibrix.synthetic_data", "write_observation_csv"):
        "synthetic_data.write_observation_csv",
    ("calibrix.synthetic_data", "read_observation_csv"): "synthetic_data.read_observation_csv",
    ("calibrix.benchmarks", "plate_displacements"): "benchmarks.plate_displacements",
    ("calibrix.benchmarks", "uniaxial_response"): "benchmarks.uniaxial_response",
    ("calibrix.identify_reduced", "solve_nls"): "identify_reduced.solve_nls",
    ("calibrix.identify_reduced", "jacobian_external_nd"):
        "identify_reduced.jacobian_external_nd",
    ("calibrix.identify_vfm", "solve_vfm"): "identify_vfm.solve_vfm",
    ("calibrix.identify_aao", "AaoOperators.__init__"): "identify_aao.AaoOperators",
    ("calibrix.identify_aao", "aao_fem_solve"): "identify_aao.aao_fem_solve",
    ("calibrix.materials", "uniaxial_plastic_driver"): "materials.uniaxial_plastic_driver",
    ("calibrix.uq", "ensemble_sample"): "uq.ensemble_sample",
    ("calibrix.uq", "hierarchical_two_step_bayes"): "uq.hierarchical_two_step_bayes",
    ("calibrix.uq", "covariance_and_ci"): "uq.covariance",
    ("calibrix.uq", "two_step_covariance"): "uq.covariance",
}
# Hot leaf calls: counted and timed per parent span instead of one span each.
LEAVES = {
    ("calibrix.materials", "integrate_viscoplastic_step"):
        "materials.integrate_viscoplastic_step",
}
# Factories whose returned callable is the log posterior.
LOG_POST_FACTORIES = (
    ("calibrix.benchmarks", "plate_log_posterior"),
    ("calibrix.benchmarks", "PlasticLogPosterior.__call__"),
)
LOG_POST = "uq.log_post"


def _splu_extra(args, kwargs, lu):
    return {"fill_nnz": int(lu.L.nnz + lu.U.nnz)}


def _points_extra(args, kwargs, result):
    return {"points": int(len(result))}


def _nls_extra(args, kwargs, result):
    return {"iterations": int(result.iterations), "forward_evals": int(result.n_evals)}


def _aao_extra(args, kwargs, result):
    return {"iterations": int(result.iterations)}


def _driver_extra(args, kwargs, result):
    return {"strain_steps": int(len(result[0]) - 1)}


def _ensemble_extra(args, kwargs, chain):
    walkers, steps = chain.samples.shape[:2]
    return {"acceptance_rate": float(chain.acceptance_rate),
            "walkers": int(walkers), "steps": int(steps)}


def _hierarchical_extra(args, kwargs, result):
    return {"n_failed": int(result.n_failed)}


EXTRAS = {
    "sparse.splu": _splu_extra,
    "synthetic_data.interpolate_bilinear": _points_extra,
    "identify_reduced.solve_nls": _nls_extra,
    "identify_aao.aao_fem_solve": _aao_extra,
    "materials.uniaxial_plastic_driver": _driver_extra,
    "uq.ensemble_sample": _ensemble_extra,
    "uq.hierarchical_two_step_bayes": _hierarchical_extra,
}


class Tracer:
    """In-memory spans: [name, parent index, start, end, extra]; index 0 is
    the command itself.  Leaf calls are summed per (parent, name)."""

    def __init__(self, error_type):
        self.error_type = error_type
        self.spans = [["cli.main", -1, 0.0, 0.0, None]]
        self.stack = [0]
        self.leaves = {}
        self.errors = {}

    def _count_error(self, name, exc):
        # One error passing several wrappers of one module counts once there.
        module = name.split(".", 1)[0]
        seen = exc.__dict__.setdefault("_perfbench_modules", set())
        if module not in seen:
            seen.add(module)
            self.errors[module] = self.errors.get(module, 0) + 1

    def span(self, name, fn):
        extra = EXTRAS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, self.stack[-1], 0.0, 0.0, None]
            self.spans.append(rec)
            self.stack.append(len(self.spans) - 1)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except self.error_type as exc:
                self._count_error(name, exc)
                raise
            finally:
                rec[3] = clock()
                rec[2] = t0
                self.stack.pop()
            if extra is not None:
                rec[4] = extra(args, kwargs, result)
            return result

        return wrapper

    def leaf(self, name, fn):
        clock = time.perf_counter
        leaves = self.leaves

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except self.error_type as exc:
                self._count_error(name, exc)
                raise
            finally:
                key = (self.stack[-1], name)
                agg = leaves.get(key)
                if agg is None:
                    agg = leaves[key] = [0, 0.0]
                agg[0] += 1
                agg[1] += clock() - t0

        return wrapper

    def log_post_factory(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.leaf(LOG_POST, fn(*args, **kwargs))

        return wrapper

    def install(self):
        import importlib

        plan = [(key, self.span, name) for key, name in SPANS.items()]
        plan += [(key, self.leaf, name) for key, name in LEAVES.items()]
        plan += [(key, None, None) for key in LOG_POST_FACTORIES]
        for (module_name, attr), make, name in plan:
            module = importlib.import_module(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, method)
            wrapped = (self.log_post_factory(original) if make is None
                       else make(name, original))
            setattr(owner, method, wrapped)
            if owner_name:
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("calibrix") and getattr(mod, method, None) is original:
                    setattr(mod, method, wrapped)

    def dump(self, path, header):
        leaves = [[parent, name, calls, busy]
                  for (parent, name), (calls, busy) in self.leaves.items()]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(header, spans=self.spans, leaves=leaves, errors=self.errors), fh)


def main():
    spawn_t = float(os.environ["PERFBENCH_SPAWN_T"])
    out_path = os.environ["PERFBENCH_TRACE_OUT"]
    import calibrix.cli as cli
    from calibrix.errors import CalibrixError

    t_ready = time.monotonic()
    tracer = Tracer(CalibrixError)
    tracer.install()
    t_main = time.monotonic()
    header = {"startup_s": t_ready - spawn_t, "install_s": t_main - t_ready, "exit_code": 1}
    root = tracer.spans[0]
    root[2] = time.perf_counter()
    try:
        code = cli.main(sys.argv[1:])
        header["exit_code"] = code
    finally:
        root[3] = time.perf_counter()
        tracer.dump(out_path, header)
    return code


if __name__ == "__main__":
    sys.exit(main())
