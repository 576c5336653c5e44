"""The benchmark's workloads: set-up, the CLI command chain of one op, and
the checks each op's outputs must pass.

Every config uses paths relative to the op's own directory and is run from
there, so the bytes of every output file (including the ``config_hash``
lines of the reports) depend only on the workload and the op seed.
"""

from __future__ import annotations

import ast
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

# Identification mesh and the finer, non-nested data mesh of each plate
# workload (quarter_plate_mesh arguments).  plate-reference is the acceptance
# suite's reference plate at half its resolution in each direction; the
# plate-bayes mesh is small so the sampler makes many tiny forward solves.
PLATE_MESHES = {
    "plate-reference": (dict(n_c=30, n_r=25), dict(n_c=120, n_r=103, grading=1.3)),
    "plate-bayes": (dict(n_c=12, n_r=10), dict(n_c=24, n_r=23, grading=1.3)),
}

E_TRUE = 210000.0
NU_TRUE = 0.3
E_BAND = 0.03 * E_TRUE
NU_BAND = 0.01
AAO_E_BAND = 0.01 * E_TRUE
BAYES_WALKERS = 50
BAYES_STEPS = 50
# The hierarchical run is cut from the CLI defaults (10 outer draws x 10
# walkers x 80 steps, about 220 s) so that a run holds several ops.
HIER = dict(n_outer=2, walkers=6, steps=20, elastic_samples=500)
DELTAS = 4.0  # how many reported deltas a UQ estimate may lie from the truth


@dataclass(frozen=True)
class Command:
    """One CLI process of an op: its stage name, config and arguments."""

    stage: str
    config: str
    args: tuple
    keys: dict


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    write_inputs: Callable | None  # (workdir, seed, run_cli) -> None, after the meshes
    commands: Callable  # op seed -> list[Command]
    check: Callable  # opdir -> list of failure messages


def twostep_truth() -> dict:
    """``calibrix.benchmarks.TWOSTEP_TRUTH``, read from the source file.

    The benchmark process never imports numpy: its resident set would be
    counted in the peak RSS of every command it starts afterwards.
    """
    path = importlib.util.find_spec("calibrix.benchmarks").origin
    with open(path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TWOSTEP_TRUTH" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"no TWOSTEP_TRUTH in {path}")


def write_config(path, keys: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{k} = {v}\n" for k, v in keys.items()))


def read_report(path) -> dict:
    """``key = value`` lines of a calibrix report; values kept as text."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or " = " not in line:
                continue
            key, value = line.rstrip("\n").split(" = ", 1)
            out[key] = value
    return out


def estimate_and_delta(value: str) -> tuple[float, float | None]:
    """Parse ``x delta = d`` (or a bare ``x``) from a report value."""
    head, _, tail = value.partition(" delta = ")
    est = float(head.split()[0])
    delta = float(tail.split()[0]) if tail else None
    return est, delta


def _generate_keys(seed: int, mesh: str, fine: str, data_out: str) -> dict:
    return dict(mesh_file=mesh, fine_mesh_file=fine, E_true=E_TRUE, nu_true=NU_TRUE,
                load=1500.0, sigma=2e-4, seed=seed, data_out=data_out,
                manifest_out="manifest.txt")


def _plate_band_failures(tag: str, E: float, nu: float, e_band: float) -> list:
    out = []
    if not (math.isfinite(E) and abs(E - E_TRUE) <= e_band):
        out.append(f"{tag}: E = {E} outside {E_TRUE} +- {e_band}")
    if not (math.isfinite(nu) and abs(nu - NU_TRUE) <= NU_BAND):
        out.append(f"{tag}: nu = {nu} outside {NU_TRUE} +- {NU_BAND}")
    return out


def _within(tag, name, est, delta, truth) -> list:
    if delta is None or not (math.isfinite(est) and math.isfinite(delta)):
        return [f"{tag}: {name} has no finite estimate and delta"]
    if abs(est - truth) > DELTAS * delta:
        return [f"{tag}: {name} = {est} is more than {DELTAS} delta ({delta}) from {truth}"]
    return []


# ---------------------------------------------------------------------------
# plate-reference
# ---------------------------------------------------------------------------


def _ref_commands(seed: int) -> list:
    cal = dict(mesh_file="../plate.mesh", data="observations.csv")
    return [
        Command("generate", "generate.cfg", ("generate",),
                _generate_keys(seed, "../plate.mesh", "../plate_fine.mesh",
                               "observations.csv")),
        Command("calibrate_reduced", "reduced.cfg",
                ("calibrate", "--method", "reduced"), dict(cal, report_out="reduced.txt")),
        Command("calibrate_vfm", "vfm.cfg",
                ("calibrate", "--method", "vfm"), dict(cal, report_out="vfm.txt")),
        Command("calibrate_aao", "aao.cfg",
                ("calibrate", "--method", "aao-fem"), dict(cal, report_out="aao.txt")),
        Command("uq_asymptotic", "asymptotic.cfg",
                ("uq", "--method", "asymptotic"), dict(cal, report_out="asymptotic.txt")),
    ]


def _ref_check(opdir) -> list:
    fail = []
    red = read_report(os.path.join(opdir, "reduced.txt"))
    if red.get("converged") != "True":
        fail.append(f"reduced: converged = {red.get('converged')}")
    E, nu = float(red["E"]), float(red["nu"])
    fail += _plate_band_failures("reduced", E, nu, E_BAND)
    if "ci95_E" not in red or "ci95_nu" not in red:
        fail.append("reduced: no confidence interval")
    asym = read_report(os.path.join(opdir, "asymptotic.txt"))
    for name, ref in (("E", E), ("nu", nu)):
        got, _ = estimate_and_delta(asym[name])
        if got != ref:
            fail.append(f"asymptotic: {name} = {got} differs from reduced {ref}")
    aao = read_report(os.path.join(opdir, "aao.txt"))
    if aao.get("converged") != "True":
        fail.append(f"aao-fem: converged = {aao.get('converged')}")
    fail += _plate_band_failures("aao-fem", float(aao["E"]), float(aao["nu"]), AAO_E_BAND)
    # VFM is recorded but not band-checked: on noisy data it is far off in nu
    # (see NOTES.md), and that is a finding about the method, not the run.
    vfm = read_report(os.path.join(opdir, "vfm.txt"))
    if not all(math.isfinite(float(vfm[k])) for k in ("E", "nu")):
        fail.append(f"vfm: non-finite estimate E = {vfm['E']}, nu = {vfm['nu']}")
    return fail


# ---------------------------------------------------------------------------
# plate-bayes
# ---------------------------------------------------------------------------


def _bayes_inputs(workdir, seed, run_cli) -> None:
    write_config(os.path.join(workdir, "generate.cfg"),
                 _generate_keys(seed, "plate.mesh", "plate_fine.mesh", "observations.csv"))
    run_cli(workdir, ("generate", "-c", "generate.cfg"))


def _bayes_commands(seed: int) -> list:
    keys = dict(mesh_file="../plate.mesh", data="../observations.csv", sigma_e=2e-4,
                walkers=BAYES_WALKERS, steps=BAYES_STEPS, seed=seed,
                chain_out="chain.csv", report_out="bayes.txt")
    return [Command("uq_bayes", "bayes.cfg", ("uq", "--method", "bayes"), keys)]


def _bayes_check(opdir) -> list:
    # The plate band, widened to 4 posterior deltas where the posterior is
    # wider than the band: on 264 dofs the posterior delta of nu is about
    # 0.005, so the +-0.01 band alone fails a share of seeds (see NOTES.md).
    rep = read_report(os.path.join(opdir, "bayes.txt"))
    fail = []
    for name, truth, band in (("E", E_TRUE, E_BAND), ("nu", NU_TRUE, NU_BAND)):
        est, delta = estimate_and_delta(rep[name])
        if delta is None or not (math.isfinite(est) and math.isfinite(delta)):
            fail.append(f"bayes: {name} has no finite posterior mean and delta")
        elif abs(est - truth) > max(band, DELTAS * delta):
            fail.append(f"bayes posterior mean: {name} = {est} is further than "
                        f"max({band}, {DELTAS} delta = {DELTAS * delta}) from {truth}")
    with open(os.path.join(opdir, "chain.csv"), "r", encoding="utf-8") as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != BAYES_WALKERS * BAYES_STEPS:
        fail.append(f"bayes: chain has {rows} rows, expected {BAYES_WALKERS * BAYES_STEPS}")
    return fail


# ---------------------------------------------------------------------------
# twostep-uq
# ---------------------------------------------------------------------------


def _twostep_commands(seed: int) -> list:
    hier = dict(seed=seed, means_out="hierarchical_means.csv",
                stds_out="hierarchical_stds.csv", report_out="hierarchical.txt", **HIER)
    return [
        Command("uq_twostep", "twostep.cfg", ("uq", "--method", "two-step"),
                dict(seed=seed, report_out="twostep.txt")),
        Command("uq_hierarchical", "hierarchical.cfg",
                ("uq", "--method", "hierarchical", "--jobs", "1"), hier),
    ]


def _twostep_check(opdir) -> list:
    truth = twostep_truth()
    fail = []
    two = read_report(os.path.join(opdir, "twostep.txt"))
    if two.get("converged") != "True":
        fail.append(f"two-step: converged = {two.get('converged')}")
    for name in ("k", "b", "c"):
        # "k = x Delta = d1 delta = d2": delta carries the elastic uncertainty.
        est, delta = estimate_and_delta(two[name])
        fail += _within("two-step", name, est, delta, truth[name])
    hier = read_report(os.path.join(opdir, "hierarchical.txt"))
    if hier.get("n_failed") != "0":
        fail.append(f"hierarchical: n_failed = {hier.get('n_failed')}")
    for name in ("k", "b", "c"):
        est, delta = estimate_and_delta(hier[name])
        fail += _within("hierarchical", name, est, delta, truth[name])
    return fail


WORKLOADS = {
    w.name: w
    for w in (
        Workload("plate-reference",
                 "plate chain generate, reduced, vfm, aao-fem, asymptotic: sparse "
                 "factorizations, fine-mesh data generation and file I/O",
                 None, _ref_commands, _ref_check),
        Workload("plate-bayes",
                 "ensemble sampler on a 264-dof plate: thousands of tiny solves where "
                 "per-call overhead outweighs LU flops",
                 _bayes_inputs, _bayes_commands, _bayes_check),
        Workload("twostep-uq",
                 "two-step and hierarchical UQ: the plastic point model does nearly all "
                 "the work, with no sparse algebra",
                 None, _twostep_commands, _twostep_check),
    )
}


def write_plate_meshes(workload: str) -> None:
    """Write plate.mesh and plate_fine.mesh of a plate workload here."""
    from calibrix.mesh_fem import write_mesh_file
    from calibrix.meshes import quarter_plate_mesh

    coarse, fine = PLATE_MESHES[workload]
    write_mesh_file("plate.mesh", quarter_plate_mesh(**coarse))
    write_mesh_file("plate_fine.mesh", quarter_plate_mesh(**fine))


if __name__ == "__main__":
    write_plate_meshes(sys.argv[1])
