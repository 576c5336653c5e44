"""Acceptance suite: one test per criterion, with a printed pass/fail line.

Criteria run at their stated tolerances on the desk-scale benchmarks: the
plate with a hole (identification mesh at the ~3000-element scale, data from
a finer non-nested mesh) and the synthetic two-step plasticity case.
"""

import dataclasses
import time
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from calibrix.benchmarks import (
    TWOSTEP_TRUTH,
    fit_plastic,
    generate_twostep_data,
    plate_forward_model,
    plate_log_posterior,
    two_step_identify,
    uniaxial_response,
)
from calibrix.identify_aao import aao_fem_solve, aao_vfm_solve, landweber_aao
from calibrix.identify_reduced import (
    ForwardModel,
    jacobian_external_nd,
    landweber_reduced,
    reduced2_multiplier_residual,
    solve_nls,
)
from calibrix.identify_vfm import full_field_vectors, solve_vfm
from calibrix.materials import (
    ElasticParams,
    MaterialState,
    PlasticParams,
    c_coords_from_E_nu,
    integrate_viscoplastic_step,
    uniaxial_plastic_driver,
)
from calibrix.synthetic_data import ObservationSet, assemble_data_vector
from calibrix.uq import covariance_and_ci, ensemble_sample, gaussian_error_propagation, monte_carlo_convert, two_step_covariance
from oracle_plasticity import uniaxial_explicit_reference
from cases import make_plate_case, plate_observations

E_TRUE, NU_TRUE = 210000.0, 0.3
KAPPA0 = np.array([180000.0, 0.35])

warnings.filterwarnings("ignore", message="semi-norm")


def report(num, ok, desc, detail=""):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def big_case():
    return make_plate_case(60, 50, fine_factor=4)


@pytest.fixture(scope="module")
def big_clean(big_case):
    return plate_observations(big_case, 0.0, seed=0)


@pytest.fixture(scope="module")
def small_case():
    return make_plate_case(12, 10, fine_factor=2)


@pytest.fixture(scope="module")
def small_matched(small_case):
    return plate_observations(small_case, 0.0, seed=0, matched=True)


@pytest.fixture(scope="module")
def cov_case():
    case = make_plate_case(8, 6, fine_factor=2)
    clean = plate_observations(case, 0.0, seed=0, matched=True)
    return case, clean


@pytest.fixture(scope="module")
def twostep():
    data = generate_twostep_data(seed=0)
    return data, two_step_identify(data)


def _noisy_set(clean: ObservationSet, sigma: float, seed: int) -> ObservationSet:
    """Fresh noisy replication of a clean observation set (same layout)."""
    rng = np.random.default_rng(seed)
    u1 = clean.values("u1") + rng.normal(0.0, sigma, clean.block("u1").size)
    u2 = clean.values("u2") + rng.normal(0.0, sigma, clean.block("u2").size)
    d, W = assemble_data_vector(
        [(u1, np.abs(u1).max()), (u2, np.abs(u2).max()), (clean.values("F1"), 1.0)]
    )
    return ObservationSet(d=d, W=W, blocks=clean.blocks)


def test_criterion_01_reduced_clean(big_case, big_clean):
    model = plate_forward_model(big_case)
    t0 = time.time()
    result = solve_nls(model, big_clean, KAPPA0)
    elapsed = time.time() - t0
    ok = (
        result.converged
        and abs(result.kappa[0] - E_TRUE) <= 0.03 * E_TRUE
        and abs(result.kappa[1] - NU_TRUE) <= 0.01
        and elapsed <= 60.0
    )
    report(1, ok, "reduced NLS, clean plate data within bands",
           f"E*={result.kappa[0]:.0f}, nu*={result.kappa[1]:.4f}, "
           f"{result.n_evals} forward calls, {elapsed:.1f}s")


def test_criterion_02_reduced_noisy(big_case, big_clean):
    model = plate_forward_model(big_case)
    details = []
    ok = True
    for sigma in (2e-4, 4e-4):
        kappas = []
        for seed in range(5):
            noisy = _noisy_set(big_clean, sigma, 1000 + seed)
            kappas.append(solve_nls(model, noisy, KAPPA0).kappa)
        mean = np.mean(kappas, axis=0)
        ok &= abs(mean[0] - E_TRUE) <= 0.03 * E_TRUE and abs(mean[1] - NU_TRUE) <= 0.01
        details.append(f"sigma={sigma:g}: E={mean[0]:.0f}, nu={mean[1]:.4f}")
    report(2, ok, "reduced NLS, noisy data (5-seed averages) within bands",
           "; ".join(details))


def test_criterion_03_vfm_clean(big_case, big_clean):
    t0 = time.time()
    result = solve_vfm(big_case.coarse, big_case.part, big_clean)
    elapsed = time.time() - t0
    ok = (
        abs(result.E - E_TRUE) <= 0.01 * E_TRUE
        and abs(result.nu - NU_TRUE) <= 0.005
        and elapsed <= 5.0
    )
    report(3, ok, "direct (virtual-fields) solve within tight bands",
           f"E*={result.E:.0f}, nu*={result.nu:.4f}, {elapsed:.2f}s")


def test_criterion_04_aao_clean_and_limits(big_case, big_clean, small_case,
                                           small_matched):
    r_fem = aao_fem_solve(big_case.coarse, big_case.part, big_clean)
    r_vfm = aao_vfm_solve(big_case.coarse, big_case.part, big_clean)
    ok = (abs(r_fem.E - E_TRUE) <= 0.01 * E_TRUE
          and abs(r_vfm.E - E_TRUE) <= 0.01 * E_TRUE)

    # Weight limits on matched data (the exact block solver handles the
    # extreme ratios, which sit outside the joint solver's float comfort zone).
    vfm = solve_vfm(small_case.coarse, small_case.part, small_matched)
    lim_d = aao_fem_solve(small_case.coarse, small_case.part, small_matched,
                          sigma_s=1.0, sigma_d=1e8, method="gauss_seidel")
    ok_d = np.all(np.abs(lim_d.kappa_c - vfm.kappa_c) <= 1e-3 * np.abs(vfm.kappa_c))
    model = plate_forward_model(small_case)
    reduced = solve_nls(model, small_matched, KAPPA0)
    reduced_c = np.array(c_coords_from_E_nu(*reduced.kappa))
    lim_s = aao_fem_solve(small_case.coarse, small_case.part, small_matched,
                          sigma_s=1e8, sigma_d=1.0, method="gauss_seidel")
    ok_s = np.all(np.abs(lim_s.kappa_c - reduced_c) <= 1e-3 * np.abs(reduced_c))
    report(4, ok and ok_d and ok_s,
           "all-at-once solvers: E within 1%, weight limits recover the "
           "direct/reduced solutions",
           f"AAO-FEM E*={r_fem.E:.0f} (nu={r_fem.nu:.4f}), "
           f"AAO-VFM E*={r_vfm.E:.0f} (nu={r_vfm.nu:.4f})")


def test_criterion_05_landweber_agreement():
    case = make_plate_case(2, 1, fine_factor=2)
    data = plate_observations(case, 0.0, seed=0, matched=True)
    n_dof = case.part.n_free
    assert n_dof <= 100

    model = plate_forward_model(case)
    start = np.array([195000.0, 0.32])
    direct = solve_nls(model, data, start)
    lw_red = landweber_reduced(model, data, start, max_iter=5000, tol=1e-12)
    ok_red = np.all(np.abs(lw_red.kappa - direct.kappa) <= 1e-3 * np.abs(direct.kappa))
    mono_red = np.all(np.diff(lw_red.objectives) <= 0.0)

    weights = dict(sigma_s=1.0, sigma_d=8e10, sigma_r=1.0)
    direct_aao = aao_fem_solve(case.coarse, case.part, data, **weights)
    lw_aao = landweber_aao(case.coarse, case.part, data, **weights,
                           max_iter=100_000, tol=1e-14)
    ok_aao = np.all(np.abs(lw_aao.kappa_c - direct_aao.kappa_c)
                    <= 1e-3 * np.abs(direct_aao.kappa_c))
    mono_aao = np.all(np.diff(lw_aao.objectives) <= 0.0)
    report(5, ok_red and ok_aao and mono_red and mono_aao,
           "Landweber iterations agree with direct solvers, objectives monotone",
           f"{n_dof} dofs; reduced {lw_red.iterations} its, "
           f"all-at-once {lw_aao.iterations} its")


def test_criterion_06_sensitivity_correctness(big_case, big_clean):
    # Central-difference sensitivities of the displacement map in the linear
    # parameter coordinates against the implicit-differentiation form built
    # from the equilibrium map columns: du/dkappa_j = -K^{-1} A_S(u) e_j.
    # Error budget at steps h = r |kappa|: truncation is O(r^2); rounding is
    # about 1e-13 / r, from the double-precision entries of K(kappa) at
    # cond_1(K) ~ 1e5. Hence r = 1e-5, where the error is ~1.5e-8. A forward
    # difference has truncation O(r), so its best error here (~7e-7 near
    # r = 3e-7) sits at the bound and cannot resolve it. ubar = 0 on this
    # plate, so the Kbar ubar terms of a_matrices are not exercised here.
    case = big_case
    kappa_c = np.array(c_coords_from_E_nu(205000.0, 0.29))

    def simulate(kc):
        stiff = case.decomp.stiffness(kc)
        u = spla.splu(stiff.K.tocsc()).solve(case.pbar - stiff.Kbar @ case.ubar)
        return u

    stiff = case.decomp.stiffness(kappa_c)
    lu = spla.splu(stiff.K.tocsc())
    u = lu.solve(case.pbar - stiff.Kbar @ case.ubar)
    model = ForwardModel(simulate=simulate, names=("C11", "C12"))
    h = 1e-5 * np.abs(kappa_c)
    J_nd = 0.5 * (jacobian_external_nd(model, kappa_c, steps=h, base=u)
                  + jacobian_external_nd(model, kappa_c, steps=-h, base=u))
    a_s, _ = case.decomp.a_matrices(u, case.ubar)
    J_exact = np.column_stack([-lu.solve(a_s[:, 0]), -lu.solve(a_s[:, 1])])
    rel = np.linalg.norm(J_nd - J_exact) / np.linalg.norm(J_exact)

    # For the force map the sensitivity is the equilibrium-map matrix itself.
    d_u, p_check = full_field_vectors(case.coarse, case.part, big_clean)
    from calibrix.mesh_fem import assemble_vfm_system

    system = assemble_vfm_system(case.coarse, case.part, d_u, p_check, 1e4)
    force_model = ForwardModel(simulate=lambda kc: system.A @ kc, names=("C11", "C12"))
    J_force = jacobian_external_nd(force_model, kappa_c)
    rel_force = np.linalg.norm(J_force - system.A) / np.linalg.norm(system.A)
    ok = rel <= 1e-6 and rel_force <= 1e-6
    report(6, ok, "external-ND sensitivities match the analytic linear forms",
           f"displacement map {rel:.2e}, force map {rel_force:.2e}")


def test_criterion_07_plasticity_integrator():
    ep = ElasticParams.from_bulk_shear(TWOSTEP_TRUTH["K"], TWOSTEP_TRUTH["G"])
    pp = PlasticParams(k=TWOSTEP_TRUTH["k"], b=TWOSTEP_TRUTH["b"], c=TWOSTEP_TRUTH["c"])
    eps = np.linspace(0.0, 0.05, 51)
    sigma, _, state = uniaxial_plastic_driver(eps, 0.1, ep, pp)
    ref, _, _ = uniaxial_explicit_reference(eps, 0.1, TWOSTEP_TRUTH["K"],
                                            TWOSTEP_TRUTH["G"], pp.k, pp.b, pp.c,
                                            substeps=200)  # 10^4 total substeps
    dev = np.abs(sigma - ref).max() / np.abs(ref).max()
    ok_curve = dev <= 0.005

    # Post-step consistency and deviatoric exactness on a strain-driven ramp.
    st = MaterialState()
    ok_f = True
    for x in np.linspace(0.0, 0.05, 41)[1:]:
        e = np.diag([x, -0.44 * x, -0.44 * x])
        new_st, sig = integrate_viscoplastic_step(st, e, 0.1, ep, pp)
        if new_st.arc_length > st.arc_length:
            xi = sig - np.trace(sig) / 3.0 * np.eye(3) - new_st.backstress
            f = 0.5 * float(np.tensordot(xi, xi)) - pp.k**2 / 3.0
            ok_f &= abs(f) <= 1e-8 * pp.k**2
        st = new_st
    ok_tr = (abs(np.trace(st.viscous_strain)) <= 1e-12
             and abs(np.trace(st.backstress)) <= 1e-12)
    report(7, ok_curve and ok_f and ok_tr,
           "implicit integrator matches the fine-substep explicit oracle",
           f"curve deviation {dev * 100:.2f}% of full scale; |f| and traces in bounds")


def test_criterion_08_two_step_frequentist(twostep):
    data, out = twostep
    t0 = time.time()
    truth_p = np.array([TWOSTEP_TRUTH["k"], TWOSTEP_TRUTH["b"], TWOSTEP_TRUTH["c"]])
    rp = out["result_p"]
    ok_ident = np.all(np.abs(rp.kappa - truth_p) <= 0.01 * truth_p)

    # Exact reduction for vanishing elastic covariance.
    reduction = two_step_covariance(rp, out["J_pe"], np.zeros((2, 2)), rp.s2,
                                    dJp_dke=out["dJp_dke"])
    one_step = covariance_and_ci(rp)
    ok_red = np.allclose(reduction.covariance, one_step.covariance, rtol=1e-10)

    # Nested Monte-Carlo oracle: elastic estimates resampled around the truth
    # with the estimated covariance, fresh plastic noise per replication.
    kappa_e_true = np.array([TWOSTEP_TRUTH["K"], TWOSTEP_TRUTH["G"]])
    clean = uniaxial_response(kappa_e_true, truth_p, data.eps_plastic)
    rng = np.random.default_rng(314)
    draws = []
    for rep in range(500):
        ke = rng.multivariate_normal(kappa_e_true, out["sigma_kg"])
        d = clean + rng.normal(0.0, data.sigma_plastic, clean.size)
        rep_data = dataclasses.replace(data, stress_plastic=d)
        draws.append(fit_plastic(rep_data, ke, kappa0=truth_p).kappa)
    empirical = np.cov(np.array(draws).T)
    predicted = out["two_step_report"].covariance
    rel = np.abs(np.diag(predicted) - np.diag(empirical)) / np.diag(empirical)
    ok_cov = np.all(rel <= 0.25)
    elapsed = time.time() - t0
    report(8, ok_ident and ok_red and ok_cov and elapsed <= 600.0,
           "two-step identification and covariance against the nested oracle",
           f"kappa_p rel err {np.abs(rp.kappa / truth_p - 1).max() * 100:.2f}%, "
           f"cov diag rel dev {rel.max() * 100:.0f}%, {elapsed:.0f}s")


def test_criterion_09_error_propagation():
    kappa = np.array([202465.0, 0.2764])
    delta = np.array([1468.0, 0.0041])
    dK = gaussian_error_propagation(lambda k: k[0] / (3.0 * (1.0 - 2.0 * k[1])), kappa, delta)
    dG = gaussian_error_propagation(lambda k: k[0] / (2.0 * (1.0 + k[1])), kappa, delta)
    mc = monte_carlo_convert(202465.0, 1468.0, 0.2764, 0.0041, n=4000, seed=0)
    ok = (
        abs(dK - 2984.0) <= 0.02 * 2984.0
        and abs(dG - 629.0) <= 0.02 * 629.0
        and abs(mc["K_mean"] - 150991.0) <= 0.03 * 150991.0
        and abs(mc["G_mean"] - 79321.0) <= 0.03 * 79321.0
        and abs(mc["K_std"] - 2951.0) <= 0.03 * 2951.0
        and abs(mc["G_std"] - 628.0) <= 0.03 * 628.0
    )
    report(9, ok, "Gaussian error propagation and Monte-Carlo conversion",
           f"dK={dK:.0f}, dG={dG:.1f}, K={mc['K_mean']:.0f}+-{mc['K_std']:.0f}, "
           f"G={mc['G_mean']:.0f}+-{mc['G_std']:.0f}")


def test_criterion_10_sampler_and_coverage(cov_case):
    # Analytic 2-d Gaussian target.
    cov = np.array([[2.0, 0.8], [0.8, 1.0]])
    prec = np.linalg.inv(cov)
    chain = ensemble_sample(lambda x: -0.5 * float(x @ prec @ x),
                            np.array([-15.0, -15.0]), np.array([15.0, 15.0]),
                            n_walkers=40, n_steps=1500, seed=1)
    sample_cov = np.cov(chain.posterior().T)
    ok_gauss = np.abs(sample_cov - cov).max() <= 0.1 * np.abs(cov).max()

    case, clean = cov_case
    model = plate_forward_model(case)
    sigma = 2e-4

    # Posterior against the point estimate on one noisy replication.
    noisy = _noisy_set(clean, sigma, 123)
    nls = solve_nls(model, noisy, np.array([195000.0, 0.32]))
    lower = np.array([0.9 * E_TRUE, 0.27])
    upper = np.array([1.1 * E_TRUE, 0.33])
    log_post = plate_log_posterior(case, noisy, sigma, lower, upper)
    post = ensemble_sample(log_post, lower, upper, n_walkers=50, n_steps=100, seed=5)
    ok_mean = abs(post.mean()[0] - nls.kappa[0]) <= 2.0 * nls.std[0]

    # Frequentist coverage over 500 replications with the likelihood-consistent
    # (uniform) weighting that underlies the interval formula.
    d_clean = np.concatenate([clean.values("u1"), clean.values("u2")])
    W = np.full(d_clean.size, 1.0 / sigma)
    hits = 0
    for rep in range(500):
        rng = np.random.default_rng(20000 + rep)
        d = d_clean + rng.normal(0.0, sigma, d_clean.size)
        res = solve_nls(model, (d, W), np.array([195000.0, 0.32]))
        if res.ci is not None and res.ci[0, 0] <= E_TRUE <= res.ci[0, 1]:
            hits += 1
    coverage = hits / 500.0
    ok_cov = 0.90 <= coverage <= 0.99
    report(10, ok_gauss and ok_mean and ok_cov,
           "ensemble sampler: Gaussian target, posterior vs point estimate, coverage",
           f"cov dev {np.abs(sample_cov - cov).max() / np.abs(cov).max() * 100:.1f}%, "
           f"|mean-NLS| = {abs(post.mean()[0] - nls.kappa[0]):.0f} <= {2 * nls.std[0]:.0f}, "
           f"coverage {coverage:.3f}")


def test_criterion_11_foc_cross_checks(small_case, small_matched):
    # Multiplier form of the reduced optimality system at the solution.
    case = small_case
    noisy = plate_observations(case, 4e-4, seed=7, matched=True)
    model = plate_forward_model(case)
    result = solve_nls(model, noisy, KAPPA0)
    d_u, _ = full_field_vectors(case.coarse, case.part, noisy)
    full_w = np.empty(case.coarse.n_dofs)
    for comp, off in (("u1", 0), ("u2", 1)):
        b = noisy.block(comp)
        full_w[2 * b.points + off] = noisy.W[b.start:b.stop]
    W_free = full_w[case.part.free]
    kappa_c = np.array(c_coords_from_E_nu(*result.kappa))
    resid_red2 = reduced2_multiplier_residual(case.decomp, (d_u, W_free), kappa_c,
                                              case.pbar, case.ubar)

    # Multiplier rewrite of the all-at-once optimality system at the joint
    # solutions (both flavors).
    r_fem = aao_fem_solve(case.coarse, case.part, noisy)
    r_vfm = aao_vfm_solve(case.coarse, case.part, noisy)
    focs = [r_fem.foc["kappa_equation"], r_fem.foc["state_equation"],
            r_vfm.foc["kappa_equation"], r_vfm.foc["state_equation"]]
    ok = resid_red2 <= 1e-6 and max(focs) <= 1e-6
    report(11, ok, "first-order-condition rewrites hold at the solutions",
           f"reduced multiplier {resid_red2:.2e}, all-at-once max {max(focs):.2e}")


def test_criterion_12_pipeline_determinism(tmp_path):
    from calibrix.cli import main
    from calibrix.mesh_fem import write_mesh_file
    from calibrix.meshes import quarter_plate_mesh

    write_mesh_file(tmp_path / "plate.mesh", quarter_plate_mesh(8, 6))
    gen_cfg = tmp_path / "gen.cfg"
    gen_cfg.write_text(
        f"mesh_file = {tmp_path / 'plate.mesh'}\n"
        "E_true = 210000.0\nnu_true = 0.3\nsigma = 2e-4\nseed = 9\n"
        f"data_out = {tmp_path / 'data.csv'}\n"
        f"manifest_out = {tmp_path / 'manifest.txt'}\n"
    )
    cal_cfg = tmp_path / "cal.cfg"
    cal_cfg.write_text(
        f"mesh_file = {tmp_path / 'plate.mesh'}\n"
        f"data = {tmp_path / 'data.csv'}\n"
        f"report_out = {tmp_path / 'cal.txt'}\nmethod = reduced\n"
    )
    uq_cfg = tmp_path / "uq.cfg"
    uq_cfg.write_text(
        f"mesh_file = {tmp_path / 'plate.mesh'}\n"
        f"data = {tmp_path / 'data.csv'}\n"
        f"report_out = {tmp_path / 'uq.txt'}\nmethod = asymptotic\n"
    )
    snapshots = []
    for _ in range(2):
        assert main(["generate", "-c", str(gen_cfg)]) == 0
        assert main(["calibrate", "-c", str(cal_cfg)]) == 0
        assert main(["uq", "-c", str(uq_cfg)]) == 0
        snapshots.append(tuple(
            (tmp_path / name).read_bytes()
            for name in ("data.csv", "manifest.txt", "cal.txt", "uq.txt")
        ))
    ok = snapshots[0] == snapshots[1]
    report(12, ok, "seeded pipeline reproduces byte-identical artifacts",
           f"{len(snapshots[0])} files compared")
