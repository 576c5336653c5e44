"""Tests for the all-at-once joint state/parameter identification."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

import calibrix.identify_aao as identify_aao
import calibrix.mesh_fem as mesh_fem
from calibrix.benchmarks import plate_forward_model
from calibrix.errors import DivergenceError, SolverError
from calibrix.identify_aao import (
    DEFAULT_KAPPA0,
    AaoOperators,
    aao_fem_solve,
    aao_foc_residuals,
    aao_vfm_solve,
    landweber_aao,
)
from calibrix.identify_reduced import solve_nls
from calibrix.identify_vfm import equilibrium_gap, full_field_vectors, solve_vfm
from calibrix.materials import c_coords_from_E_nu
from calibrix.mesh_fem import DofPartition, _factor
from calibrix.meshes import quarter_plate_mesh
from cases import (calibrix_csr, general_lu, make_plate_case, plate_observations, scipy_csr,
                   symmetric_lu)

KAPPA_TRUE_C = np.array(c_coords_from_E_nu(210000.0, 0.3))


@pytest.fixture(autouse=True)
def _quiet_seminorm_warning():
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="semi-norm")
        yield


@pytest.fixture
def factor_calls(monkeypatch):
    """The matrix of every factorization AAO makes, in call order."""
    calls = []
    inner = identify_aao._factor
    monkeypatch.setattr(identify_aao, "_factor",
                        lambda M, *args, **kwargs: calls.append(M) or inner(M, *args, **kwargs))
    return calls


def scipy_kkt(K, s=1.0, delta=0.0):
    """s K K^T + delta I by scipy's sparse product: the oracle of ``AaoOperators.kkt``."""
    K = scipy_csr(K)
    return calibrix_csr(s * (K @ K.T) + delta * sp.identity(K.shape[0]))


class TestKktSolve:
    def test_bit_identical_to_fresh_factorization(self, factor_calls):
        # One factorization per solve, no state between solves, K K^T equal
        # to scipy's product to rounding, and the solution that of
        # symmetric-mode SuperLU to rounding: K K^T squares K's condition,
        # and the two differ by up to 1.4e-11 here.
        mesh = quarter_plate_mesh(30, 25)  # the plate-reference mesh, 1 545 rows
        ops = AaoOperators(mesh, DofPartition.from_mesh(mesh), 1500.0)
        rng = np.random.default_rng(0)
        for i in range(30):
            kappa = DEFAULT_KAPPA0 * rng.uniform(0.8, 1.2, 2)
            K = ops.k_fr(kappa)
            r0 = ops.p_vec - K.matvec(rng.uniform(-1e-3, 1e-3, ops.n_u))
            n_calls = len(factor_calls)
            M = ops.kkt(kappa)
            lam = ops.solve(M, r0)
            assert len(factor_calls) == n_calls + 1
            fresh = _factor(M, ops._order, border=1).solve(r0)
            assert np.array_equal(lam.view(np.int64), fresh.view(np.int64)), i
            oracle_M = scipy_kkt(K)
            assert np.abs(M.toarray() - oracle_M.toarray()).max() <= 1e-14 * np.abs(M.data).max()
            oracle = symmetric_lu(oracle_M).solve(r0)
            assert np.linalg.norm(lam - oracle) <= 1e-10 * np.linalg.norm(oracle), i

    def test_failed_factorization_raises_solver_error(self, plate_small):
        ops = AaoOperators(plate_small.coarse, plate_small.part, 1500.0)
        with pytest.raises(SolverError, match="condition estimate inf"):
            ops.solve(ops.kkt(np.zeros(2)), ops.p_vec)

    def test_resultant_row_is_eliminated_last(self):
        mesh = quarter_plate_mesh(30, 25)
        ops = AaoOperators(mesh, DofPartition.from_mesh(mesh), 1500.0)
        assert ops._order[-1] == ops.n_rows - 1
        assert np.array_equal(np.sort(ops._order), np.arange(ops.n_rows))


class TestStateSolve:
    def test_bit_identical_to_fresh_factorization(self):
        # M squares K's condition, so the general LU bounds the residual,
        # not the solution.
        mesh = quarter_plate_mesh(30, 25)
        ops = AaoOperators(mesh, DofPartition.from_mesh(mesh), 1500.0)
        rng = np.random.default_rng(1)
        for i in range(10):
            kappa = DEFAULT_KAPPA0 * rng.uniform(0.8, 1.2, 2)
            # The state subproblem's matrix s K K^T + delta I, as both AAO
            # flavors form it.
            s, delta = rng.uniform(1.0, 1e8), rng.uniform(0.0, 1.0)
            M = ops.kkt(kappa, s, delta)
            rhs = rng.normal(size=ops.n_rows)
            x = ops.solve(M, rhs)
            fresh = _factor(M, ops._order, border=1).solve(rhs)
            assert np.array_equal(x.view(np.int64), fresh.view(np.int64)), i
            oracle_M = scipy_kkt(ops.k_fr(kappa), s, delta)
            oracle = general_lu(oracle_M).solve(rhs)
            assert (np.linalg.norm(oracle_M.matvec(x) - rhs)
                    <= 10.0 * np.linalg.norm(oracle_M.matvec(oracle) - rhs)), i

    @pytest.mark.parametrize("n_c, n_r, sigma", [(12, 10, 0.0), (14, 12, 1e-6)])
    def test_state_solve_where_normal_matrix_is_singular_to_rounding(self, n_c, n_r, sigma):
        # At sigma_s = 1e8, sigma_d = 1 the state subproblem's normal matrix
        # sigma_s K^T K + sigma_d I is singular in double precision (K_fr has
        # fewer rows than columns), and its symmetric-mode factorization
        # failed as "exactly singular" on these plates.  Through K K^T the
        # block solver converges to the direct estimate.
        case = make_plate_case(n_c, n_r, fine_factor=2)
        data = plate_observations(case, sigma, seed=1, matched=True)
        vfm = solve_vfm(case.coarse, case.part, data)
        result = aao_fem_solve(case.coarse, case.part, data, sigma_s=1e8, sigma_d=1.0,
                               method="gauss_seidel")
        assert result.converged
        assert np.all(np.abs(result.kappa_c - vfm.kappa_c) <= 1e-3 * np.abs(vfm.kappa_c))


class TestAaoFem:
    def test_matched_data_recovers_truth(self, plate_small, plate_small_matched):
        result = aao_fem_solve(plate_small.coarse, plate_small.part, plate_small_matched)
        assert result.converged
        assert_allclose(result.kappa_c, KAPPA_TRUE_C, rtol=1e-6)

    def test_clean_data_modulus(self, plate_small, plate_small_clean):
        result = aao_fem_solve(plate_small.coarse, plate_small.part, plate_small_clean)
        assert abs(result.E - 210000.0) <= 0.01 * 210000.0
        assert np.isfinite(result.nu)  # reported, not asserted

    def test_foc_residuals_small(self, plate_small, plate_small_clean):
        result = aao_fem_solve(plate_small.coarse, plate_small.part, plate_small_clean)
        assert result.foc["kappa_equation"] <= 1e-6
        assert result.foc["state_equation"] <= 1e-6

    def test_sigma_d_limit_recovers_vfm(self, plate_small, plate_small_matched):
        vfm = solve_vfm(plate_small.coarse, plate_small.part, plate_small_matched)
        result = aao_fem_solve(plate_small.coarse, plate_small.part,
                               plate_small_matched, sigma_s=1.0, sigma_d=1e8)
        assert np.all(np.abs(result.kappa_c - vfm.kappa_c) <= 1e-3 * np.abs(vfm.kappa_c))
        d_u, _ = full_field_vectors(plate_small.coarse, plate_small.part,
                                    plate_small_matched)
        assert np.abs(result.u - d_u).max() <= 1e-6

    def test_sigma_s_limit_recovers_reduced(self, plate_small, plate_small_matched):
        model = plate_forward_model(plate_small)
        reduced = solve_nls(model, plate_small_matched, np.array([180000.0, 0.35]))
        reduced_c = np.array(c_coords_from_E_nu(*reduced.kappa))
        result = aao_fem_solve(plate_small.coarse, plate_small.part,
                               plate_small_matched, sigma_s=1e8, sigma_d=1.0)
        assert np.all(np.abs(result.kappa_c - reduced_c) <= 1e-3 * np.abs(reduced_c))

    def test_gauss_seidel_mode_agrees_on_balanced_weights(self, plate_small,
                                                          plate_small_matched):
        gn = aao_fem_solve(plate_small.coarse, plate_small.part, plate_small_matched,
                           sigma_s=1.0, sigma_d=1e8)
        gs = aao_fem_solve(plate_small.coarse, plate_small.part, plate_small_matched,
                           sigma_s=1.0, sigma_d=1e8, method="gauss_seidel")
        assert_allclose(gs.kappa_c, gn.kappa_c, rtol=1e-6)

    def test_multistart_reports_spread(self, plate_small, plate_small_clean):
        result = aao_fem_solve(plate_small.coarse, plate_small.part,
                               plate_small_clean, starts=5, seed=2)
        spread = result.diagnostics["kappa_spread"]
        assert spread.shape == (2,) and np.all(np.isfinite(spread))
        assert result.diagnostics["all_start_kappas"].shape == (5, 2)

    @pytest.mark.parametrize("kappa", [DEFAULT_KAPPA0, KAPPA_TRUE_C])
    def test_min_norm_jacobian_matches_central_difference(self, plate_small,
                                                          plate_small_noisy, kappa):
        # Central differences with h = 1e-4 kappa_j err by O(h^2), about 2e-8
        # relative here, well above the rounding of w through K K^T.
        d_u, p_check = full_field_vectors(plate_small.coarse, plate_small.part,
                                          plate_small_noisy)
        ops = AaoOperators(plate_small.coarse, plate_small.part, p_check)
        w, kept = ops.min_norm_correction(kappa, d_u)
        J = ops.min_norm_jacobian(d_u, w, kept)
        for j in range(2):
            h = np.zeros(2)
            h[j] = 1e-4 * kappa[j]
            central = (ops.min_norm_correction(kappa + h, d_u)[0]
                       - ops.min_norm_correction(kappa - h, d_u)[0]) / (2.0 * h[j])
            assert np.linalg.norm(J[:, j] - central) <= 1e-6 * np.linalg.norm(central), j

    def test_lexicographic_fit_stops_at_first_order_optimality(self, plate_small,
                                                               plate_small_noisy):
        result = aao_fem_solve(plate_small.coarse, plate_small.part, plate_small_noisy)
        assert result.converged
        assert result.message == "first-order optimality (lexicographic)"
        assert result.iterations <= 6

    def test_equilibrium_not_satisfied_on_noisy_data(self, plate_small):
        noisy = plate_observations(plate_small, 4e-4, seed=3)
        result = aao_fem_solve(plate_small.coarse, plate_small.part, noisy)
        gap = equilibrium_gap(plate_small.coarse, plate_small.part, noisy,
                              result.kappa_c)
        assert gap > 0.0


class TestAaoVfm:
    def test_matched_data_recovers_truth(self, plate_small, plate_small_matched):
        result = aao_vfm_solve(plate_small.coarse, plate_small.part, plate_small_matched)
        assert_allclose(result.kappa_c, KAPPA_TRUE_C, rtol=1e-8)

    def test_clean_data_modulus(self, plate_small, plate_small_clean):
        result = aao_vfm_solve(plate_small.coarse, plate_small.part, plate_small_clean)
        assert abs(result.E - 210000.0) <= 0.01 * 210000.0

    def test_parameter_equation_matches_direct_solution(self, plate_small,
                                                        plate_small_clean):
        # With the state fixed at the data the semi-norm term vanishes and the
        # parameter subproblem is exactly the direct normal-equation solve.
        vfm = solve_vfm(plate_small.coarse, plate_small.part, plate_small_clean)
        result = aao_vfm_solve(plate_small.coarse, plate_small.part, plate_small_clean)
        assert_allclose(result.kappa_c, vfm.kappa_c, rtol=1e-9)

    def test_equilibrium_gap_collapse_is_one_solve(self, plate_small, plate_small_noisy):
        # Without regularisation the joint problem collapses to the direct
        # least-squares problem, whose matrix does not depend on kappa: one
        # solve gives VFM's single-step estimate.
        vfm = solve_vfm(plate_small.coarse, plate_small.part, plate_small_noisy)
        result = aao_vfm_solve(plate_small.coarse, plate_small.part, plate_small_noisy)
        assert result.message == "equilibrium-gap collapse"
        assert result.iterations == 1
        assert (np.linalg.norm(result.kappa_c - vfm.kappa_c)
                <= 1e-10 * np.linalg.norm(vfm.kappa_c))

    def test_inner_state_subproblem_stationary(self, plate_small, plate_small_clean):
        # kappa fixed at the truth, state free: the returned state must make
        # the weighted state equation stationary.
        data = plate_small_clean
        d_u, p_check = full_field_vectors(plate_small.coarse, plate_small.part, data)
        result = aao_vfm_solve(plate_small.coarse, plate_small.part, data)
        ops = AaoOperators(plate_small.coarse, plate_small.part, p_check, sigma_r=1e4)
        foc = aao_foc_residuals(ops, "vfm", result.u, result.kappa_c, d_u,
                                sigma_s=1.0, sigma_d=1e-10)
        assert foc["state_equation"] <= 1e-6

    def test_limit_sequence_approaches_vfm(self, plate_small, plate_small_clean):
        vfm = solve_vfm(plate_small.coarse, plate_small.part, plate_small_clean)
        diffs = []
        for sigma_d in (1e2, 1e4, 1e6):
            result = aao_vfm_solve(plate_small.coarse, plate_small.part,
                                   plate_small_clean, sigma_s=1.0, sigma_d=sigma_d)
            diffs.append(np.abs(result.kappa_c - vfm.kappa_c).max()
                         / np.abs(vfm.kappa_c).max())
        assert diffs[-1] <= 1e-3
        assert diffs[0] >= diffs[-1] - 1e-12

    def test_seminorm_warning(self, plate_small, plate_small_clean):
        with pytest.warns(UserWarning, match="semi-norm"):
            aao_vfm_solve(plate_small.coarse, plate_small.part, plate_small_clean)


@pytest.fixture(scope="module")
def tiny():
    case = make_plate_case(2, 1, fine_factor=2)
    data = plate_observations(case, 0.0, seed=0, matched=True)
    return case, data


class TestLandweberAao:
    def test_agrees_with_direct_solver(self, tiny):
        case, data = tiny
        assert case.part.n_free <= 100
        kwargs = dict(sigma_s=1.0, sigma_d=8e10, sigma_r=1.0)
        direct = aao_fem_solve(case.coarse, case.part, data, **kwargs)
        lw = landweber_aao(case.coarse, case.part, data, **kwargs,
                           max_iter=100_000, tol=1e-14)
        assert np.all(np.abs(lw.kappa_c - direct.kappa_c)
                      <= 1e-3 * np.abs(direct.kappa_c))
        assert np.all(np.diff(lw.objectives) <= 0.0)

    def test_immediate_stop_at_minimizer(self, tiny):
        case, data = tiny
        kwargs = dict(sigma_s=1.0, sigma_d=8e10, sigma_r=1.0)
        direct = aao_fem_solve(case.coarse, case.part, data, **kwargs)
        lw = landweber_aao(case.coarse, case.part, data, **kwargs,
                           beta0=(direct.u, direct.kappa_c), max_iter=1000, tol=1e-8)
        assert lw.converged
        assert lw.iterations <= 2

    @pytest.mark.parametrize("flavor", ["fem", "vfm"])
    def test_equilibrium_map_once_per_state(self, monkeypatch, tiny, flavor):
        # A(u) once per state and A(d_u) once per run: at the parent the
        # gradient formed A(u) twice, and A(d_u) on every call (603 and 905
        # calls for these 301 states).
        case, data = tiny
        calls = []
        inner = mesh_fem.assemble_parameter_matrices
        monkeypatch.setattr(mesh_fem, "assemble_parameter_matrices",
                            lambda *args: calls.append(1) or inner(*args))
        lw = landweber_aao(case.coarse, case.part, data, sigma_s=1.0, sigma_d=8e10,
                           sigma_r=1.0, flavor=flavor, max_iter=300, tol=0.0)
        states = len(lw.objectives)
        assert states == 301
        assert len(calls) <= states + 1

    def test_non_finite_start_raises(self, tiny):
        case, data = tiny
        bad_u = np.full(case.part.n_free, np.nan)
        with pytest.raises(DivergenceError):
            landweber_aao(case.coarse, case.part, data,
                          beta0=(bad_u, np.array([2e5, 6e4])), max_iter=10)
