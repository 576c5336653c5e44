"""Command-line interface: data generation, calibration, UQ, and reports.

Exit codes: 0 success, 2 usage/config error, 3 numerical non-convergence
(the best iterate is still written).  ``uq --method hierarchical`` also
exits 3, and writes no report, when every inner chain fails.  Data that leave
the parameters unidentifiable (IdentifiabilityError) also exit 2: the problem
as configured is ill-posed, which no solver setting can mend.

Each command imports only what it runs: ``--version``, ``--help``, ``report``
and config errors load no numpy, and every other command runs on numpy alone;
no command loads scipy.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .config import Config, file_hash, read_text_lines
from .errors import CalibrixError, ConfigError, DivergenceError

CALIBRATE_METHODS = ("reduced", "vfm", "aao-fem", "aao-vfm",
                     "landweber-reduced", "landweber-aao")
UQ_METHODS = ("asymptotic", "two-step", "bayes", "hierarchical")


def _fmt(x) -> str:
    return repr(float(x))


def _write_report(path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def _header(cfg: Config, kind: str) -> list:
    return [
        f"# calibrix {kind} report",
        f"version = {__version__}",
        f"config_hash = {file_hash(cfg.path)}",
    ]


def _load_mesh(cfg: Config, key: str = "mesh_file"):
    from .mesh_fem import read_mesh_file

    path = cfg.get_str(key)
    if not os.path.exists(path):
        raise ConfigError(f"{key} does not exist: {path}")
    return read_mesh_file(path)


def cmd_generate(cfg: Config) -> int:
    from .synthetic_data import generate_plate_data, write_observation_csv

    mesh = _load_mesh(cfg)
    if cfg.has("fine_mesh_file"):
        fine = _load_mesh(cfg, "fine_mesh_file")
    else:
        fine = mesh
    E_true = cfg.get_float("E_true")
    nu_true = cfg.get_float("nu_true")
    # Echoed in the manifest only: the mesh files' load lines set the applied load.
    load = cfg.get_float("load", 1500.0)
    sigma = cfg.get_float("sigma", 0.0)
    seed = cfg.get_seed()
    data = generate_plate_data(fine, mesh, (E_true, nu_true), sigma, seed)
    data_out = cfg.get_str("data_out", "observations.csv")
    write_observation_csv(data_out, data)
    manifest = [
        "# calibrix data manifest",
        f"version = {__version__}",
        f"config_hash = {file_hash(cfg.path)}",
        f"mesh_file = {cfg.get_str('mesh_file')}",
        f"mesh_hash = {file_hash(cfg.get_str('mesh_file'))}",
    ]
    if cfg.has("fine_mesh_file"):
        manifest.append(f"fine_mesh_file = {cfg.get_str('fine_mesh_file')}")
        manifest.append(f"fine_mesh_hash = {file_hash(cfg.get_str('fine_mesh_file'))}")
    manifest += [
        f"E_true = {_fmt(E_true)}",
        f"nu_true = {_fmt(nu_true)}",
        f"load = {_fmt(load)}",
        f"sigma = {_fmt(sigma)}",
        f"seed = {seed}",
        f"n_data = {data.n_data}",
        f"data_out = {data_out}",
    ]
    _write_report(cfg.get_str("manifest_out", "manifest.txt"), manifest)
    return 0


def _calibration_inputs(cfg: Config):
    from .mesh_fem import DofPartition
    from .synthetic_data import read_observation_csv

    mesh = _load_mesh(cfg)
    part = DofPartition.from_mesh(mesh)
    data_path = cfg.get_str("data")
    if not os.path.exists(data_path):
        raise ConfigError(f"data file does not exist: {data_path}")
    data = read_observation_csv(data_path)
    return mesh, part, data


def _reduced_case(mesh, part):
    from .benchmarks import PlateCase
    from .mesh_fem import StiffnessDecomposition, applied_forces, prescribed_values

    return PlateCase(
        coarse=mesh, part=part,
        decomp=StiffnessDecomposition.from_mesh(mesh, part),
        pbar=applied_forces(mesh, part),
        ubar=prescribed_values(mesh, part),
    )


def cmd_calibrate(cfg: Config, method: str) -> int:
    if method not in CALIBRATE_METHODS:
        raise ConfigError(f"unknown method {method!r}; choose from {CALIBRATE_METHODS}")
    import numpy as np

    mesh, part, data = _calibration_inputs(cfg)
    lines = _header(cfg, "calibration")
    lines.append(f"method = {method}")
    exit_code = 0

    if method in ("reduced", "landweber-reduced"):
        from .benchmarks import plate_forward_model
        from .identify_reduced import landweber_reduced, solve_nls

        case = _reduced_case(mesh, part)
        model = plate_forward_model(case)
        kappa0 = np.array([cfg.get_float("kappa0_E", 180000.0),
                           cfg.get_float("kappa0_nu", 0.35)])
        if method == "reduced":
            result = solve_nls(
                model, data, kappa0,
                gtol=cfg.get_float("gtol", 1e-6),
                ftol=cfg.get_float("ftol", 1e-8),
                xtol=cfg.get_float("xtol", 1e-8),
                max_iter=cfg.get_int("max_iter", 50),
            )
            lines += [
                f"converged = {result.converged}",
                f"message = {result.message}",
                f"iterations = {result.iterations}",
                f"forward_evaluations = {result.n_evals}",
                f"objective = {_fmt(result.objective)}",
                f"E = {_fmt(result.kappa[0])}",
                f"nu = {_fmt(result.kappa[1])}",
            ]
            if result.std is not None:
                lines += [
                    f"delta_E = {_fmt(result.std[0])}",
                    f"delta_nu = {_fmt(result.std[1])}",
                    f"ci95_E = [{_fmt(result.ci[0, 0])}, {_fmt(result.ci[0, 1])}]",
                    f"ci95_nu = [{_fmt(result.ci[1, 0])}, {_fmt(result.ci[1, 1])}]",
                    f"s2 = {_fmt(result.s2)}",
                ]
            lines += [
                f"identifiable = {result.identifiable}",
                f"det_hessian = {_fmt(result.det_hessian)}",
                f"eig_ratio = {_fmt(result.eig_ratio)}",
            ]
            exit_code = 0 if result.converged else 3
        else:
            out = landweber_reduced(model, data, kappa0,
                                    max_iter=cfg.get_int("max_iter", 2000),
                                    tol=cfg.get_float("tol", 1e-10))
            lines += [
                f"converged = {out.converged}",
                f"iterations = {out.iterations}",
                f"objective = {_fmt(out.objectives[-1])}",
                f"E = {_fmt(out.kappa[0])}",
                f"nu = {_fmt(out.kappa[1])}",
            ]
            exit_code = 0 if out.converged else 3

    elif method == "vfm":
        from .identify_vfm import solve_vfm

        result = solve_vfm(mesh, part, data, sigma_r=cfg.get_float("sigma_r", 1e4))
        lines += [
            "converged = True",
            f"E = {_fmt(result.E)}",
            f"nu = {_fmt(result.nu)}",
            f"C11 = {_fmt(result.kappa_c[0])}",
            f"C12 = {_fmt(result.kappa_c[1])}",
            f"residual_norm = {_fmt(result.residual_norm)}",
        ]

    elif method in ("aao-fem", "aao-vfm"):
        from .identify_aao import aao_fem_solve, aao_vfm_solve

        solver = aao_fem_solve if method == "aao-fem" else aao_vfm_solve
        sigma_d_default = 1e-5 if method == "aao-fem" else 1e-10
        sigma_s = cfg.get_float("sigma_s", 1.0)
        sigma_d = cfg.get_float("sigma_d", sigma_d_default)
        result = solver(
            mesh, part, data,
            sigma_s=sigma_s,
            sigma_d=sigma_d,
            sigma_r=cfg.get_float("sigma_r", 1e4),
            gamma_s=cfg.get_float("gamma_s", 0.0),
            gamma_p=cfg.get_float("gamma_p", 0.0),
            method=cfg.get_str("block_solver", "gauss_newton"),
            starts=cfg.get_int("starts", 1),
            seed=cfg.get_seed(),
        )
        lines += [
            f"converged = {result.converged}",
            f"message = {result.message}",
            f"iterations = {result.iterations}",
            f"sigma_s = {_fmt(sigma_s)}",
            f"sigma_d = {_fmt(sigma_d)}",
            f"E = {_fmt(result.E)}",
            f"nu = {_fmt(result.nu)}",
            f"C11 = {_fmt(result.kappa_c[0])}",
            f"C12 = {_fmt(result.kappa_c[1])}",
            f"objective = {_fmt(result.objective)}",
            f"foc_kappa = {_fmt(result.foc['kappa_equation'])}",
            f"foc_state = {_fmt(result.foc['state_equation'])}",
        ]
        if cfg.get_int("starts", 1) > 1:
            spread = result.diagnostics["kappa_spread"]
            lines.append(f"kappa_spread = [{_fmt(spread[0])}, {_fmt(spread[1])}]")
        exit_code = 0 if result.converged else 3

    elif method == "landweber-aao":
        from .identify_aao import landweber_aao

        result = landweber_aao(
            mesh, part, data,
            sigma_s=cfg.get_float("sigma_s", 1.0),
            sigma_d=cfg.get_float("sigma_d", 1e-5),
            sigma_r=cfg.get_float("sigma_r", 1e4),
            max_iter=cfg.get_int("max_iter", 100000),
            tol=cfg.get_float("tol", 1e-9),
        )
        lines += [
            f"converged = {result.converged}",
            f"iterations = {result.iterations}",
            f"E = {_fmt(result.E)}",
            f"nu = {_fmt(result.nu)}",
            f"objective = {_fmt(result.objectives[-1])}",
        ]
        exit_code = 0 if result.converged else 3

    _write_report(cfg.get_str("report_out", "calibration.txt"), lines)
    return exit_code


def _write_chain_csv(path, chain, names) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("walker,step," + ",".join(names) + ",log_post,accepted\n")
        n_walkers, n_steps, _ = chain.samples.shape
        for w in range(n_walkers):
            for s in range(n_steps):
                params = ",".join(repr(float(v)) for v in chain.samples[w, s])
                fh.write(f"{w},{s},{params},{float(chain.log_posts[w, s])!r},"
                         f"{int(chain.accepted[w, s])}\n")


def cmd_uq(cfg: Config, method: str, jobs: int = 1) -> int:
    if method not in UQ_METHODS:
        raise ConfigError(f"unknown method {method!r}; choose from {UQ_METHODS}")
    import numpy as np

    lines = _header(cfg, "uq")
    lines.append(f"method = {method}")

    if method == "asymptotic":
        from .benchmarks import plate_forward_model
        from .identify_reduced import solve_nls
        from .uq import covariance_and_ci

        mesh, part, data = _calibration_inputs(cfg)
        case = _reduced_case(mesh, part)
        model = plate_forward_model(case)
        kappa0 = np.array([cfg.get_float("kappa0_E", 180000.0),
                           cfg.get_float("kappa0_nu", 0.35)])
        result = solve_nls(model, data, kappa0)
        report = covariance_and_ci(result, level=cfg.get_float("level", 0.95))
        lines += report.format().splitlines()
        _write_report(cfg.get_str("report_out", "uq.txt"), lines)
        return 0 if result.converged else 3

    if method == "two-step":
        from .benchmarks import generate_twostep_data, two_step_identify

        data = generate_twostep_data(seed=cfg.get_seed())
        out = two_step_identify(data, mc_seed=cfg.get_int("mc_seed", 0))
        rp = out["result_p"]
        two = out["two_step_report"]
        mc = out["monte_carlo"]
        lines += [
            "# estimate / Delta (calibration) / delta (with elastic uncertainty)",
            f"K = {_fmt(out['kappa_e'][0])} delta = {_fmt(mc['K_std'])}",
            f"G = {_fmt(out['kappa_e'][1])} delta = {_fmt(mc['G_std'])}",
        ]
        for i, name in enumerate(rp.names):
            lines.append(
                f"{name} = {_fmt(rp.kappa[i])} Delta = {_fmt(rp.std[i])} "
                f"delta = {_fmt(two.std[i])}"
            )
        lines.append(f"converged = {rp.converged}")
        _write_report(cfg.get_str("report_out", "uq.txt"), lines)
        return 0 if rp.converged else 3

    if method == "bayes":
        from .benchmarks import plate_log_posterior
        from .uq import ensemble_sample

        sigma_e = cfg.get_float("sigma_e")
        if not 0.0 < sigma_e < float("inf"):
            raise ConfigError(f"sigma_e must be positive and finite, got {sigma_e!r}")
        variation = cfg.get_float("prior_variation", 0.10)
        if not 0.0 < variation < 1.0:
            raise ConfigError(f"prior_variation must lie in (0, 1), got {variation!r}")
        prior_E = cfg.get_float("prior_E", 210000.0)
        if not 0.0 < prior_E < float("inf"):
            raise ConfigError(f"prior_E must be positive and finite, got {prior_E!r}")
        prior_nu = cfg.get_float("prior_nu", 0.3)
        if not -1.0 < prior_nu < 0.5:
            raise ConfigError(f"prior_nu must lie in (-1, 0.5), got {prior_nu!r}")
        center = np.array([prior_E, prior_nu])
        # A negative prior_nu turns the two ends of its box around.
        ends = (center * (1.0 - variation), center * (1.0 + variation))
        lower, upper = np.minimum(*ends), np.maximum(*ends)
        if not lower[1] < upper[1]:
            raise ConfigError(
                f"prior box for nu must have positive width, got prior_nu={prior_nu!r}")
        if not (-1.0 < lower[1] and upper[1] < 0.5):
            raise ConfigError(f"prior box for nu, [{lower[1]:.6g}, {upper[1]:.6g}], "
                              "must lie in (-1, 0.5)")
        mesh, part, data = _calibration_inputs(cfg)
        case = _reduced_case(mesh, part)
        log_post = plate_log_posterior(case, data, sigma_e, lower, upper)
        chain = ensemble_sample(
            log_post, lower, upper,
            n_walkers=cfg.get_int("walkers", 50),
            n_steps=cfg.get_int("steps", 100),
            a=cfg.get_float("stretch", 2.0),
            seed=cfg.get_seed(),
        )
        _write_chain_csv(cfg.get_str("chain_out", "chain.csv"), chain, ("E", "nu"))
        mean = chain.mean()
        std = chain.std()
        lines += [
            f"walkers = {chain.samples.shape[0]}",
            f"steps = {chain.samples.shape[1]}",
            f"acceptance_rate = {_fmt(chain.acceptance_rate)}",
            f"E = {_fmt(mean[0])} delta = {_fmt(std[0])}",
            f"nu = {_fmt(mean[1])} delta = {_fmt(std[1])}",
        ]
        _write_report(cfg.get_str("report_out", "uq.txt"), lines)
        return 0

    # hierarchical
    from .benchmarks import (
        PlasticLogPosterior,
        TWOSTEP_TRUTH,
        convert_elastic,
        fit_elastic_modulus,
        fit_poisson_ratio,
        generate_twostep_data,
    )
    from .uq import hierarchical_two_step_bayes

    data = generate_twostep_data(seed=cfg.get_seed())
    # Only the elastic step of the two-step pipeline feeds the outer draws.
    kappa_e, sigma_kg, _ = convert_elastic(fit_elastic_modulus(data), fit_poisson_ratio(data))
    rng = np.random.default_rng(cfg.get_int("elastic_seed", 1))
    n_elastic = cfg.get_int("elastic_samples", 500)
    chain_e = rng.multivariate_normal(kappa_e, sigma_kg, size=n_elastic)
    center = np.array([TWOSTEP_TRUTH["k"], TWOSTEP_TRUTH["b"], TWOSTEP_TRUTH["c"]])
    var_k = cfg.get_float("prior_variation_k", 0.20)
    var_bc = cfg.get_float("prior_variation_bc", 0.30)
    lower = center * np.array([1.0 - var_k, 1.0 - var_bc, 1.0 - var_bc])
    upper = center * np.array([1.0 + var_k, 1.0 + var_bc, 1.0 + var_bc])
    result = hierarchical_two_step_bayes(
        chain_e, PlasticLogPosterior(data, lower, upper), lower, upper,
        n_outer=cfg.get_int("n_outer", 10),
        n_walkers=cfg.get_int("walkers", 10),
        n_steps=cfg.get_int("steps", 80),
        a=cfg.get_float("stretch", 2.0),
        seed=cfg.get_seed(),
        jobs=jobs,
    )
    means_out = cfg.get_str("means_out", "hierarchical_means.csv")
    stds_out = cfg.get_str("stds_out", "hierarchical_stds.csv")
    for path, table in ((means_out, result.means), (stds_out, result.stds)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("draw,k,b,c\n")
            for i, row in enumerate(table):
                fh.write(f"{i}," + ",".join(repr(float(v)) for v in row) + "\n")
    pooled_mean = result.pooled_mean()
    pooled_std = result.pooled_std()
    lines += [
        f"n_outer = {len(result.means)}",
        f"n_failed = {result.n_failed}",
        f"k = {_fmt(pooled_mean[0])} delta = {_fmt(pooled_std[0])}",
        f"b = {_fmt(pooled_mean[1])} delta = {_fmt(pooled_std[1])}",
        f"c = {_fmt(pooled_mean[2])} delta = {_fmt(pooled_std[2])}",
    ]
    _write_report(cfg.get_str("report_out", "uq.txt"), lines)
    return 0


def cmd_report(path) -> int:
    if not os.path.exists(path):
        print(f"report file not found: {path}", file=sys.stderr)
        return 2
    sys.stdout.write("".join(read_text_lines(path)))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="calibrix",
        description="Material parameter calibration from full-field displacement "
                    "and force data.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate synthetic observations")
    p_gen.add_argument("-c", "--config", required=True)

    p_cal = sub.add_parser("calibrate", help="identify material parameters")
    p_cal.add_argument("-c", "--config", required=True)
    p_cal.add_argument("--method", choices=CALIBRATE_METHODS)

    p_uq = sub.add_parser("uq", help="uncertainty quantification")
    p_uq.add_argument("-c", "--config", required=True)
    p_uq.add_argument("--method", choices=UQ_METHODS)
    p_uq.add_argument("--jobs", type=int, default=1)

    p_rep = sub.add_parser("report", help="print a report file")
    p_rep.add_argument("file")

    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args.file)
        cfg = Config.load(args.config)
        if args.command == "generate":
            return cmd_generate(cfg)
        if args.command == "calibrate":
            method = args.method or cfg.get_str("method")
            return cmd_calibrate(cfg, method)
        method = args.method or cfg.get_str("method")
        return cmd_uq(cfg, method, jobs=args.jobs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CalibrixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
