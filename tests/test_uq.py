"""Tests for the statistical layer."""

import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from calibrix.benchmarks import (
    PlasticLogPosterior,
    TWOSTEP_TRUTH,
    fit_plastic,
    plastic_forward_model,
    plate_log_posterior,
    two_step_identify,
    uniaxial_response,
)
from calibrix.errors import DivergenceError, NumericalError, ParameterError, SolverError
from calibrix.identify_reduced import ForwardModel, jacobian_external_nd, solve_nls
from calibrix.materials import c_coords_from_E_nu
from calibrix.uq import (
    covariance_and_ci,
    ensemble_sample,
    gaussian_error_propagation,
    hierarchical_two_step_bayes,
    identifiability_check,
    monte_carlo_convert,
    two_step_covariance,
    z_value,
)
from oracle_posterior import lu_plate_log_posterior


class TestHessianAndIdentifiability:
    def test_rank_deficient_verdicts(self):
        assert not identifiability_check(np.diag([1.0, 0.0])).identifiable
        J = np.column_stack([np.ones(5), 2.0 * np.ones(5)])  # correlated columns
        assert not identifiability_check(J.T @ J).identifiable

    def test_plate_hessian_identifiable(self, plate_small, plate_small_noisy):
        from calibrix.benchmarks import plate_forward_model

        model = plate_forward_model(plate_small)
        result = solve_nls(model, plate_small_noisy, np.array([190000.0, 0.32]))
        verdict = identifiability_check(result.hessian)
        assert verdict.identifiable
        assert verdict.det > 0.0


class TestCovarianceAndCi:
    def test_zero_residual(self):
        result = type("R", (), {})()
        result.residual = np.zeros(10)
        result.jacobian = np.linspace(1.0, 2.0, 10)[:, None]
        result.kappa = np.array([1.0])
        result.names = ("a",)
        result.hessian = result.jacobian.T @ result.jacobian
        report = covariance_and_ci(result)
        assert_allclose(report.covariance, 0.0)
        assert_allclose(report.ci[:, 0], report.ci[:, 1])

    def test_scalar_linear_regression(self):
        rng = np.random.default_rng(1)
        x = np.linspace(0.5, 2.0, 40)
        d = 3.0 * x + rng.normal(0.0, 0.05, size=40)
        model = ForwardModel(simulate=lambda k: k[0] * x, names=("slope",))
        result = solve_nls(model, (d, np.ones(40)), np.array([1.0]))
        r = d - result.kappa[0] * x
        s2 = float(r @ r) / 39
        assert_allclose(result.covariance[0, 0], s2 / float(x @ x), rtol=1e-6)

    def test_z_values(self):
        assert z_value(0.95) == 1.96
        assert z_value(0.68) == 1.0

    @pytest.mark.parametrize("level", [0.5, 0.9, 0.99, 0.999])
    def test_z_value_matches_scipy(self, level):
        want = stats.norm.ppf(0.5 * (1.0 + level))
        assert abs(z_value(level) - want) <= 1e-14 * want


class TestTwoStepCovariance:
    def test_reduction_to_one_step(self, twostep_data):
        kappa_e = np.array([TWOSTEP_TRUTH["K"], TWOSTEP_TRUTH["G"]])
        result_p = fit_plastic(twostep_data, kappa_e)
        one_step = covariance_and_ci(result_p)
        report = two_step_covariance(result_p, np.zeros((50, 2)), np.zeros((2, 2)),
                                     result_p.s2)
        assert_allclose(report.covariance, one_step.covariance, rtol=1e-10)
        assert_allclose(report.std, one_step.std, rtol=1e-10)

    def test_shift_against_naive_interval(self, twostep_data):
        out = two_step_identify(twostep_data)
        naive = out["result_p"].std
        carried = out["two_step_report"].std
        # Elastic uncertainty widens the yield-stress interval by a few percent.
        assert carried[0] > naive[0]
        assert (carried[0] - naive[0]) / naive[0] < 0.3
        assert np.all(carried >= naive * 0.999)

    def test_fit_jacobian_is_the_cross_sensitivity_base(self, twostep_data):
        # plastic_cross_sensitivities takes J_p at kappa_e from the fit; a
        # fresh forward difference at the fitted point gives the same bits.
        kappa_e = np.array([TWOSTEP_TRUTH["K"], TWOSTEP_TRUTH["G"]])
        result_p = fit_plastic(twostep_data, kappa_e)
        base = uniaxial_response(kappa_e, result_p.kappa, twostep_data.eps_plastic)
        model = plastic_forward_model(kappa_e, twostep_data.eps_plastic)
        fresh = jacobian_external_nd(model, result_p.kappa, base=base)
        assert np.array_equal(fresh, result_p.jacobian)

    def test_non_psd_rejected(self, twostep_data):
        kappa_e = np.array([TWOSTEP_TRUTH["K"], TWOSTEP_TRUTH["G"]])
        result_p = fit_plastic(twostep_data, kappa_e)
        with pytest.raises(NumericalError):
            two_step_covariance(result_p, np.zeros((50, 2)), np.zeros((2, 2)), -1.0)


class TestGaussianPropagation:
    def test_single_coordinate(self):
        delta = gaussian_error_propagation(lambda k: k[0], np.array([2.0, 5.0]),
                                           np.array([0.3, 0.7]))
        assert_allclose(delta, 0.3, rtol=1e-6)

    def test_bulk_and_shear_moduli(self):
        kappa = np.array([202465.0, 0.2764])
        dk = np.array([1468.0, 0.0041])
        dK = gaussian_error_propagation(lambda k: k[0] / (3.0 * (1.0 - 2.0 * k[1])),
                                        kappa, dk)
        dG = gaussian_error_propagation(lambda k: k[0] / (2.0 * (1.0 + k[1])),
                                        kappa, dk)
        assert abs(dK - 2984.0) <= 0.02 * 2984.0
        assert abs(dG - 629.0) <= 0.02 * 629.0

    def test_agreement_with_monte_carlo(self):
        mc = monte_carlo_convert(202465.0, 1468.0, 0.2764, 0.0041, n=200_000, seed=4)
        dK = gaussian_error_propagation(lambda k: k[0] / (3.0 * (1.0 - 2.0 * k[1])),
                                        np.array([202465.0, 0.2764]),
                                        np.array([1468.0, 0.0041]))
        assert abs(mc["K_std"] - dK) <= 0.05 * dK


class TestMonteCarloConvert:
    def test_point_mass(self):
        mc = monte_carlo_convert(210000.0, 0.0, 0.3, 0.0, n=100, seed=0)
        assert_allclose(mc["K_mean"], 175000.0, rtol=1e-12)
        assert mc["K_std"] == 0.0

    def test_reference_row(self):
        mc = monte_carlo_convert(202465.0, 1468.0, 0.2764, 0.0041, n=4000, seed=0)
        assert abs(mc["K_mean"] - 150991.0) <= 0.005 * 150991.0
        assert abs(mc["G_mean"] - 79321.0) <= 0.005 * 79321.0
        assert abs(mc["K_std"] - 2951.0) <= 0.03 * 2951.0 + 0.03 * mc["K_std"]
        assert abs(mc["G_std"] - 628.0) <= 0.03 * 628.0 + 0.03 * mc["G_std"]

    def test_linear_scaling_of_spread(self):
        a = monte_carlo_convert(202465.0, 1468.0, 0.2764, 0.0041, n=50_000, seed=2)
        b = monte_carlo_convert(202465.0, 2 * 1468.0, 0.2764, 2 * 0.0041, n=50_000, seed=2)
        assert abs(b["K_std"] / a["K_std"] - 2.0) <= 0.1
        assert abs(b["G_std"] / a["G_std"] - 2.0) <= 0.1

    def test_rejection_logged(self):
        with pytest.warns(UserWarning, match="rejected"):
            mc = monte_carlo_convert(210000.0, 100.0, 0.49, 0.05, n=2000, seed=0)
        assert mc["n_rejected"] > 0


class TestEnsembleSampler:
    def test_empty_sweeps_at_healthy_rate_do_not_warn(self):
        # A target much narrower than the box rejects most stretch moves, so
        # whole sweeps accept nothing, but the acceptance rate (0.267) is
        # above the stretch move's usual lower bound: no warning.  The pinned
        # values were recorded when every empty sweep warned on its own: the
        # warnings changed, the chain did not.
        mu, s = np.array([0.3, -0.2]), np.array([1e-3, 2e-3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chain = ensemble_sample(lambda x: -0.5 * float(np.sum(((x - mu) / s) ** 2)),
                                    [-1.0, -1.0], [1.0, 1.0], n_walkers=4, n_steps=30,
                                    seed=3)
        per_step = chain.accepted.sum(axis=0)
        assert per_step.tolist() == [1, 1, 3, 2, 3, 0, 0, 0, 1, 2, 1, 1, 1, 2, 1,
                                     1, 1, 0, 0, 1, 2, 3, 0, 0, 2, 1, 0, 1, 1, 0]
        assert chain.acceptance_rate == 32 / 120
        assert_allclose(chain.samples[:, -1, :],
                        [[0.08710493344637382, -0.5465733334301663],
                         [0.33125449677403396, -0.09479979724414916],
                         [0.06408017214050021, -0.36489299744198106],
                         [0.3374724481723553, -0.19504946971361808]], rtol=1e-12)

    def test_empty_sweeps_warn_once(self):
        # The same target with a wider stretch: the rate falls below 0.2 and
        # the run warns once, at the end.  (The stretch move is affine
        # invariant, so narrowing the Gaussian alone leaves the rate as is.)
        mu, s = np.array([0.3, -0.2]), np.array([1e-3, 2e-3])
        with pytest.warns(UserWarning) as record:
            chain = ensemble_sample(lambda x: -0.5 * float(np.sum(((x - mu) / s) ** 2)),
                                    [-1.0, -1.0], [1.0, 1.0], n_walkers=4, n_steps=30,
                                    a=5.0, seed=3)
        assert chain.acceptance_rate == 23 / 120
        assert int(np.count_nonzero(~chain.accepted.any(axis=0))) == 12
        assert len(record) == 1
        assert str(record[0].message) == (
            "acceptance rate 0.192 is below 0.2 (12 of 30 ensemble sweeps accepted no "
            "proposal); consider a smaller stretch parameter (a = 5.0)")
        assert record[0].filename == __file__

    def test_flat_target_uniform(self):
        # KS needs near-independent draws: thin the post-burn-in chain down
        # to 5000 samples (the raw pooled walkers are autocorrelated).
        lower = np.array([-1.0, 2.0])
        upper = np.array([3.0, 5.0])
        chain = ensemble_sample(lambda x: 0.0, lower, upper, n_walkers=250,
                                n_steps=1800, seed=0)
        thinned = chain.samples[:, 900::45, :].reshape(-1, 2)
        assert thinned.shape[0] == 5000
        for dim in range(2):
            u = (thinned[:, dim] - lower[dim]) / (upper[dim] - lower[dim])
            assert stats.kstest(u, "uniform").pvalue > 0.01

    def test_gaussian_target_covariance(self):
        cov = np.array([[2.0, 0.8], [0.8, 1.0]])
        prec = np.linalg.inv(cov)

        def log_post(x):
            return -0.5 * float(x @ prec @ x)

        chain = ensemble_sample(log_post, np.array([-15.0, -15.0]),
                                np.array([15.0, 15.0]), n_walkers=40,
                                n_steps=1500, seed=1)
        sample_cov = np.cov(chain.posterior().T)
        assert np.abs(sample_cov - cov).max() <= 0.1 * np.abs(cov).max()

    def test_determinism_and_support(self):
        lower, upper = np.array([0.0]), np.array([1.0])
        a = ensemble_sample(lambda x: -x[0] ** 2, lower, upper, 8, 50, seed=3)
        b = ensemble_sample(lambda x: -x[0] ** 2, lower, upper, 8, 50, seed=3)
        assert np.array_equal(a.samples, b.samples)
        assert a.samples.min() >= 0.0 and a.samples.max() <= 1.0
        assert 0.0 < a.acceptance_rate < 1.0

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            ensemble_sample(lambda x: 0.0, np.zeros(2), np.ones(2), 3, 10)
        with pytest.raises(ParameterError):
            ensemble_sample(lambda x: 0.0, np.zeros(1), np.ones(1), 4, 10, a=1.0)
        for n_steps in (0, -1):
            with pytest.raises(ParameterError, match=f"need at least one step, got {n_steps}"):
                ensemble_sample(lambda x: 0.0, np.zeros(1), np.ones(1), 4, n_steps)


class TestBernsteinVonMises:
    def test_posterior_std_approaches_asymptotic_std(self):
        # As the noise shrinks, the posterior standard deviation of E moves
        # toward the asymptotic frequentist one (ratio -> 1 monotonically).
        from calibrix.benchmarks import plate_forward_model, plate_log_posterior
        from cases import make_plate_case, plate_observations
        from calibrix.synthetic_data import ObservationSet, assemble_data_vector

        case = make_plate_case(8, 6, fine_factor=2)
        model = plate_forward_model(case)
        clean = plate_observations(case, 0.0, seed=0, matched=True)
        u1c, u2c, fc = clean.values("u1"), clean.values("u2"), clean.values("F1")
        lower = np.array([0.9 * 210000.0, 0.27])
        upper = np.array([1.1 * 210000.0, 0.33])
        ratios = []
        for sigma in (4e-4, 2e-4, 1e-4):
            rng = np.random.default_rng(77)
            u1 = u1c + rng.normal(0.0, sigma, u1c.size)
            u2 = u2c + rng.normal(0.0, sigma, u2c.size)
            d, W = assemble_data_vector(
                [(u1, np.abs(u1).max()), (u2, np.abs(u2).max()), (fc, 1.0)]
            )
            noisy = ObservationSet(d=d, W=W, blocks=clean.blocks)
            nls = solve_nls(model, noisy, np.array([195000.0, 0.32]))
            log_post = plate_log_posterior(case, noisy, sigma, lower, upper)
            chain = ensemble_sample(log_post, lower, upper, n_walkers=40,
                                    n_steps=120, seed=9)
            ratios.append(chain.std()[0] / nls.std[0])
        deviations = [abs(r - 1.0) for r in ratios]
        assert deviations[0] > deviations[1] > deviations[2]


class TestPlateLogPosterior:
    """The spectral plate posterior against the LU oracle it replaced."""

    BOX = (np.array([0.9 * 210000.0, 0.27]), np.array([1.1 * 210000.0, 0.33]))

    def test_matches_lu_oracle_in_the_box(self, plate_small, plate_small_noisy):
        lower, upper = self.BOX
        spectral = plate_log_posterior(plate_small, plate_small_noisy, 4e-4, lower, upper)
        oracle = lu_plate_log_posterior(plate_small, plate_small_noisy, 4e-4, lower, upper)
        for kappa in np.random.default_rng(21).uniform(lower, upper, size=(100, 2)):
            expected = oracle(kappa)
            assert abs(spectral(kappa) - expected) <= 1e-10 * abs(expected), kappa
        outside = np.array([1.2 * 210000.0, 0.3])
        assert spectral(outside) == oracle(outside) == -np.inf

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_chain_identical_to_lu_chain(self, plate_small, plate_small_noisy, seed):
        lower, upper = self.BOX
        chains = [
            ensemble_sample(make(plate_small, plate_small_noisy, 4e-4, lower, upper),
                            lower, upper, n_walkers=10, n_steps=20, seed=seed)
            for make in (plate_log_posterior, lu_plate_log_posterior)
        ]
        spectral, lu = chains
        assert np.array_equal(spectral.samples.view(np.int64), lu.samples.view(np.int64))
        assert np.array_equal(spectral.accepted, lu.accepted)
        assert_allclose(spectral.log_posts, lu.log_posts, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("nu", [1.0, -1.0, 0.999999999, -0.999999])
    def test_near_singular_points_give_the_lu_result(self, plate_small, plate_small_noisy,
                                                     nu):
        # The box is widened to hold C11 = +-C12, where K(kappa) is singular.
        lower, upper = np.array([1e4, -1.0]), np.array([1e6, 1.0])
        outcomes = []
        for make in (plate_log_posterior, lu_plate_log_posterior):
            log_post = make(plate_small, plate_small_noisy, 4e-4, lower, upper)
            try:
                # At nu = +-1, C11 = E / (1 - nu^2) is inf, and K(kappa) nan.
                with np.errstate(divide="ignore", invalid="ignore"):
                    outcomes.append(log_post(np.array([210000.0, nu])))
            except SolverError as exc:
                outcomes.append(str(exc))
        spectral, lu = outcomes
        if isinstance(lu, str):
            assert spectral == lu
        else:
            # Both solves are backward stable, so each value is only good to
            # about cond(K) * eps here (cond(K) is near 2e8 at nu = -0.999999).
            K = plate_small.decomp.stiffness(c_coords_from_E_nu(210000.0, nu)).K
            tol = max(1e-10, np.linalg.cond(K.toarray()) * np.finfo(float).eps)
            assert abs(spectral - lu) <= tol * abs(lu)

    def test_rejected_spectral_solve_falls_back_to_lu(self, monkeypatch, plate_small,
                                                      plate_small_noisy):
        import calibrix.benchmarks as benchmarks
        from calibrix.mesh_fem import StiffnessDecomposition

        lower, upper = self.BOX
        oracle = lu_plate_log_posterior(plate_small, plate_small_noisy, 4e-4, lower, upper)
        kappas = np.random.default_rng(22).uniform(lower, upper, size=(5, 2))
        expected = [oracle(kappa) for kappa in kappas]
        monkeypatch.setattr(StiffnessDecomposition, "spectral_solver",
                            lambda self, pbar, ubar: lambda kappa: None)
        calls = []
        lu_displacements = benchmarks.plate_displacements
        monkeypatch.setattr(benchmarks, "plate_displacements",
                            lambda *args: calls.append(args) or lu_displacements(*args))
        log_post = plate_log_posterior(plate_small, plate_small_noisy, 4e-4, lower, upper)
        assert [log_post(kappa) for kappa in kappas] == expected
        assert len(calls) == len(kappas)


class _GaussianConditional:
    """Cheap picklable conditional target: kappa_p ~ N(offset + B kappa_e, s^2 I)."""

    def __init__(self, offset, coupling, width):
        self.offset = np.asarray(offset, dtype=float)
        self.coupling = np.asarray(coupling, dtype=float)
        self.width = width

    def __call__(self, kappa_e):
        center = self.offset + self.coupling @ np.asarray(kappa_e, dtype=float)
        width = self.width

        def log_post(kappa_p):
            d = kappa_p - center
            return -0.5 * float(d @ d) / width**2

        return log_post


class _FailingConditional(_GaussianConditional):
    """Picklable conditional whose log posterior raises for one elastic draw."""

    def __init__(self, bad_draw, *args):
        super().__init__(*args)
        self.bad_draw = np.asarray(bad_draw, dtype=float)

    def __call__(self, kappa_e):
        log_post = super().__call__(kappa_e)
        if not np.array_equal(kappa_e, self.bad_draw):
            return log_post

        def failing(kappa_p):
            raise NumericalError(f"no log posterior at kappa_p = {kappa_p[0]:.3f}")

        return failing


class _RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records ``max_workers`` and runs the
    tasks in this process, so no test starts the processes it asks for."""

    made = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


class TestHierarchicalBayes:
    lower = np.array([282.6 * 0.8, 41.04 * 0.7, 3499.8 * 0.7])
    upper = np.array([282.6 * 1.2, 41.04 * 1.3, 3499.8 * 1.3])

    def test_point_mass_equals_single_level(self):
        # Degenerate elastic posterior: every inner chain samples the same
        # conditional, so the hierarchical result collapses to a single-level
        # run up to Monte-Carlo error.
        lower = np.array([-3.0, -3.0])
        upper = np.array([3.0, 3.0])
        target = _GaussianConditional(np.zeros(2), np.zeros((2, 2)), 0.5)
        kappa_e = np.array([1.0, 2.0])
        single = ensemble_sample(target(kappa_e), lower, upper, n_walkers=16,
                                 n_steps=800, seed=17)
        out = hierarchical_two_step_bayes(np.tile(kappa_e, (5, 1)), target,
                                          lower, upper, n_outer=6, n_walkers=16,
                                          n_steps=800, seed=17)
        assert out.n_failed == 0
        assert np.all(np.abs(out.pooled_mean() - single.mean()) <= 0.05)
        assert np.all(np.abs(out.pooled_std() - single.std()) <= 0.05)

    def test_recovers_synthetic_truth(self, twostep_data):
        # Lower-noise, thinned-grid variant so the posterior concentrates and
        # short inner chains resolve its mean.
        import dataclasses

        from calibrix.benchmarks import uniaxial_response

        truth = np.array([TWOSTEP_TRUTH["k"], TWOSTEP_TRUTH["b"], TWOSTEP_TRUTH["c"]])
        kappa_e_true = (TWOSTEP_TRUTH["K"], TWOSTEP_TRUTH["G"])
        eps = twostep_data.eps_plastic[::2]
        clean = uniaxial_response(kappa_e_true, truth, eps)
        rng = np.random.default_rng(43)
        quiet = dataclasses.replace(
            twostep_data, eps_plastic=eps,
            stress_plastic=clean + rng.normal(0.0, 0.05, clean.size),
            sigma_plastic=0.05,
        )
        out = two_step_identify(quiet)
        chain_e = np.random.default_rng(0).multivariate_normal(
            out["kappa_e"], out["sigma_kg"], size=200
        )
        make_log_post = PlasticLogPosterior(quiet, self.lower, self.upper)
        res = hierarchical_two_step_bayes(chain_e, make_log_post, self.lower,
                                          self.upper, n_outer=4, n_walkers=10,
                                          n_steps=80, seed=5)
        assert res.n_failed == 0
        assert np.all(np.abs(res.pooled_mean() - truth) <= 0.02 * truth)

    def test_jobs_do_not_change_results(self, twostep_data):
        # Parallel outer draws must reproduce the sequential results exactly
        # (per-task RNG streams are spawned from the master seed).
        make_log_post = PlasticLogPosterior(twostep_data, self.lower, self.upper)
        kappa_e = np.array([TWOSTEP_TRUTH["K"], TWOSTEP_TRUTH["G"]])
        chain_e = np.tile(kappa_e, (3, 1))
        runs = [
            hierarchical_two_step_bayes(chain_e, make_log_post, self.lower,
                                        self.upper, n_outer=2, n_walkers=8,
                                        n_steps=10, seed=3, jobs=jobs)
            for jobs in (1, 2)
        ]
        assert np.array_equal(runs[0].pooled, runs[1].pooled)

    def test_programming_error_fails_its_inner_chain(self, twostep_data, monkeypatch):
        # A typed failure of the point model is zero posterior density; any
        # other exception is a programming error: it fails the inner chain
        # that met it, and its text lands in ``failures``.
        import calibrix.benchmarks as benchmarks
        from calibrix.errors import DriverError

        make_log_post = PlasticLogPosterior(twostep_data, self.lower, self.upper)
        kappa_e = np.array([TWOSTEP_TRUTH["K"], TWOSTEP_TRUTH["G"]])
        kappa_p = np.array([TWOSTEP_TRUTH["k"], TWOSTEP_TRUTH["b"], TWOSTEP_TRUTH["c"]])
        errors = [TypeError("unsupported operand"), DriverError("lateral-strain iteration failed")]

        def failing(ke, kp, eps):
            if errors:
                raise errors.pop(0)
            return uniaxial_response(ke, kp, eps)

        monkeypatch.setattr(benchmarks, "uniaxial_response", failing)
        log_post = make_log_post(kappa_e)
        with pytest.raises(TypeError, match="unsupported operand"):
            log_post(kappa_p)
        assert log_post(kappa_p) == -np.inf
        assert np.isfinite(log_post(kappa_p))

        errors.append(TypeError("unsupported operand"))  # the first chain's first point
        with pytest.warns(UserWarning, match="inner chain failed"):
            res = hierarchical_two_step_bayes(np.tile(kappa_e, (2, 1)), make_log_post,
                                              self.lower, self.upper, n_outer=2,
                                              n_walkers=8, n_steps=5, seed=3)
        assert res.failures == [(0, "unsupported operand")]
        assert res.means.shape == (1, 3)

    def test_jobs_do_not_change_failures(self):
        # A failing inner chain is skipped and counted on both paths, with the
        # same warning; the worker returns its failure instead of raising it.
        lower = np.array([-3.0, -3.0])
        upper = np.array([3.0, 3.0])
        chain_e = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 1.0]])
        target = _FailingConditional(chain_e[1], np.zeros(2), np.eye(2), 0.5)
        runs, messages = [], []
        for jobs in (1, 2):
            with pytest.warns(UserWarning, match="inner chain failed") as record:
                runs.append(hierarchical_two_step_bayes(
                    chain_e, target, lower, upper, n_outer=5, n_walkers=6,
                    n_steps=20, seed=3, jobs=jobs))
            messages.append([str(w.message) for w in record
                             if "inner chain failed" in str(w.message)])
        seq, par = runs
        assert 0 < seq.n_failed < 5
        assert par.n_failed == seq.n_failed == len(messages[0])
        assert messages[0] == messages[1]
        # The result keeps each failed draw's index and exception text, in draw order.
        assert seq.failures == par.failures
        assert [i for i, _ in seq.failures] == [
            i for i in range(5) if np.array_equal(seq.kappa_e_draws[i], chain_e[1])]
        assert all(text.startswith("no log posterior at kappa_p = ")
                   for _, text in seq.failures)
        assert np.array_equal(seq.means, par.means)
        assert np.array_equal(seq.stds, par.stds)
        assert np.array_equal(seq.pooled, par.pooled)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_all_chains_failed_raises_divergence(self, jobs):
        # Every elastic draw is the failing one, so no chain finishes: the run
        # raises instead of returning an empty pooled sample (a nan estimate).
        lower = np.array([-3.0, -3.0])
        upper = np.array([3.0, 3.0])
        bad = np.array([1.0, 0.5])
        target = _FailingConditional(bad, np.zeros(2), np.eye(2), 0.5)
        with pytest.warns(UserWarning, match="inner chain failed") as record:
            with pytest.raises(DivergenceError) as info:
                hierarchical_two_step_bayes(np.tile(bad, (3, 1)), target, lower, upper,
                                            n_outer=4, n_walkers=6, n_steps=5, seed=3,
                                            jobs=jobs)
        assert re.fullmatch(r"all 4 inner chains failed; the first, at draw 0: "
                            r"no log posterior at kappa_p = -?\d+\.\d{3}", str(info.value))
        assert sum("inner chain failed" in str(w.message) for w in record) == 4

    @pytest.mark.parametrize("jobs, n_outer, workers", [(64, 2, [2]), (3, 5, [3]),
                                                        (4, 1, []), (1, 3, [])])
    def test_worker_pool_is_bounded_by_draws(self, monkeypatch, jobs, n_outer, workers):
        import concurrent.futures

        lower, upper = np.array([-3.0, -3.0]), np.array([3.0, 3.0])
        target = _GaussianConditional(np.zeros(2), np.eye(2), 0.5)
        chain_e = np.array([[0.0, 0.0], [1.0, 0.5]])
        serial = hierarchical_two_step_bayes(chain_e, target, lower, upper, n_outer=n_outer,
                                             n_walkers=4, n_steps=5, seed=3)
        monkeypatch.setattr(_RecordingExecutor, "made", [])
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingExecutor)
        out = hierarchical_two_step_bayes(chain_e, target, lower, upper, n_outer=n_outer,
                                          n_walkers=4, n_steps=5, seed=3, jobs=jobs)
        assert _RecordingExecutor.made == workers
        assert np.array_equal(out.pooled, serial.pooled)

    @pytest.mark.parametrize("settings, message", [
        (dict(n_outer=0), "need at least one outer draw, got n_outer=0"),
        (dict(jobs=0), "need at least one job, got jobs=0"),
        (dict(jobs=-3), "need at least one job, got jobs=-3"),
        (dict(n_steps=0), "need at least one step, got 0"),
        (dict(n_steps=-1), "need at least one step, got -1"),
        (dict(n_walkers=3), "need at least 4 walkers for 2 parameters"),
    ], ids=["n_outer=0", "jobs=0", "jobs=-3", "n_steps=0", "n_steps=-1", "n_walkers=3"])
    def test_invalid_settings_raise_before_any_chain(self, settings, message):
        calls = []

        def make_log_post(kappa_e):
            calls.append(kappa_e)
            return lambda kappa_p: 0.0

        kwargs = dict(n_outer=2, n_walkers=4, n_steps=5, seed=3, jobs=1) | settings
        with pytest.raises(ParameterError, match=re.escape(message)):
            hierarchical_two_step_bayes(np.zeros((2, 2)), make_log_post, np.zeros(2),
                                        np.ones(2), **kwargs)
        assert calls == []

    def test_spread_grows_with_elastic_uncertainty(self):
        # Controlled inflation: the conditional center moves linearly with the
        # elastic draw, so the spread of the inner means tracks the elastic
        # covariance directly.
        lower = np.array([-10.0, -10.0])
        upper = np.array([10.0, 10.0])
        target = _GaussianConditional(np.zeros(2), np.eye(2), 0.3)
        rng = np.random.default_rng(9)
        spreads = []
        for factor in (1.0, 4.0):
            chain_e = rng.normal(0.0, np.sqrt(factor) * 0.8, size=(400, 2))
            res = hierarchical_two_step_bayes(chain_e, target, lower, upper,
                                              n_outer=12, n_walkers=8,
                                              n_steps=200, seed=21)
            spreads.append(res.means.std(axis=0))
        assert np.all(spreads[1] > spreads[0])
