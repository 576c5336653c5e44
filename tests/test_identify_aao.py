"""Tests for the all-at-once joint state/parameter identification."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.linalg import splu
from numpy.testing import assert_allclose

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
from cases import general_lu, make_plate_case, plate_observations

KAPPA_TRUE_C = np.array(c_coords_from_E_nu(210000.0, 0.3))


@pytest.fixture(autouse=True)
def _quiet_seminorm_warning():
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="semi-norm")
        yield


@pytest.fixture
def splu_calls(monkeypatch):
    """The keyword arguments of every sparse factorization, in call order."""
    calls = []

    def counting_splu(*args, **kwargs):
        calls.append(kwargs)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    return calls


class TestKktSolve:
    def test_bit_identical_to_fresh_factorization(self, splu_calls):
        # One factorization per solve, no state between solves, and the
        # general-LU solution to rounding (K K^T squares K's condition).
        mesh = quarter_plate_mesh(30, 25)  # the plate-reference mesh, 1 545 rows
        ops = AaoOperators(mesh, DofPartition.from_mesh(mesh), 1500.0)
        rng = np.random.default_rng(0)
        for i in range(30):
            kappa = DEFAULT_KAPPA0 * rng.uniform(0.8, 1.2, 2)
            K = ops.k_fr(kappa)
            r0 = ops.p_vec - K @ rng.uniform(-1e-3, 1e-3, ops.n_u)
            n_calls = len(splu_calls)
            lam = ops.solve((K @ K.T).tocsc(), r0)
            assert len(splu_calls) == n_calls + 1
            fresh = _factor((K @ K.T).tocsc()).solve(r0)
            assert np.array_equal(lam.view(np.int64), fresh.view(np.int64)), i
            oracle = general_lu((K @ K.T).tocsc()).solve(r0)
            assert np.linalg.norm(lam - oracle) <= 1e-9 * np.linalg.norm(oracle), i

    def test_failed_factorization_raises_solver_error(self, plate_small):
        ops = AaoOperators(plate_small.coarse, plate_small.part, 1500.0)
        K = ops.k_fr(np.zeros(2))
        with pytest.raises(SolverError, match="condition estimate inf"):
            ops.solve((K @ K.T).tocsc(), ops.p_vec)


class TestStateSolve:
    def test_bit_identical_to_fresh_factorization(self):
        # H can be so ill-conditioned that two LUs agree in no digit, so the
        # general LU bounds the residual, not the solution.
        mesh = quarter_plate_mesh(30, 25)
        ops = AaoOperators(mesh, DofPartition.from_mesh(mesh), 1500.0)
        rng = np.random.default_rng(1)
        for i in range(10):
            K = ops.k_fr(DEFAULT_KAPPA0 * rng.uniform(0.8, 1.2, 2))
            # The state subproblem's normal matrix, as both AAO flavors form it.
            H = (K.T @ K + rng.uniform(1e-6, 1.0) * sp.identity(ops.n_u)).tocsc()
            rhs = rng.normal(size=ops.n_u)
            x = ops.solve(H, rhs)
            assert np.array_equal(x.view(np.int64), _factor(H).solve(rhs).view(np.int64)), i
            oracle = general_lu(H).solve(rhs)
            assert (np.linalg.norm(H @ x - rhs)
                    <= 10.0 * np.linalg.norm(H @ oracle - rhs)), i


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

    def test_non_finite_start_raises(self, tiny):
        case, data = tiny
        bad_u = np.full(case.part.n_free, np.nan)
        with pytest.raises(DivergenceError):
            landweber_aao(case.coarse, case.part, data,
                          beta0=(bad_u, np.array([2e5, 6e4])), max_iter=10)
