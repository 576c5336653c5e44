"""Tests for the reduced (forward-model-exact) calibration."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from calibrix.benchmarks import plate_forward_model
from calibrix.errors import JacobianError
from calibrix.identify_reduced import (
    ForwardModel,
    data_vectors,
    default_nd_steps,
    jacobian_external_nd,
    landweber_reduced,
    reduced2_multiplier_residual,
    solve_nls,
)
from calibrix.identify_vfm import full_field_vectors
from calibrix.materials import c_coords_from_E_nu
import calibrix.mesh_fem as mesh_fem
from calibrix.mesh_fem import assemble_parameter_matrices
from cases import calibrix_csr, general_lu, scipy_csr

KAPPA_TRUE = np.array([210000.0, 0.3])


def foc_residual(result, data, model: ForwardModel) -> float:
    """Scaled first-order optimality residual at the reported solution."""
    d, W = data_vectors(model, data)
    Jw = W[:, None] * result.jacobian
    g = Jw.T @ (W * result.residual)
    return float(np.linalg.norm(g) / (1.0 + np.linalg.norm(Jw.T @ (W * d))))


class TestResidual:
    def test_self_consistency_on_matched_data(self, plate_small, plate_small_matched):
        model = plate_forward_model(plate_small)
        d, _ = plate_small_matched.select(("u1", "u2"))[:2]
        r = model(KAPPA_TRUE) - d
        assert np.linalg.norm(r) <= 1e-8 * np.linalg.norm(d)

    def test_zero_for_model_generated_data(self, plate_small):
        model = plate_forward_model(plate_small)
        kappa = np.array([197000.0, 0.27])
        d = model(kappa)
        r = model(kappa) - d
        assert_allclose(r, 0.0, atol=1e-16)

    def test_objective_larger_away_from_truth(self, plate_small, plate_small_clean):
        model = plate_forward_model(plate_small)
        d, W = data_vectors(model, plate_small_clean)
        rw_true = W * (model(KAPPA_TRUE) - d)
        rw_off = W * (model(np.array([180000.0, 0.2])) - d)
        assert rw_off @ rw_off > rw_true @ rw_true


class TestJacobian:
    def test_identity_model(self):
        model = ForwardModel(simulate=lambda k: k.copy(), names=("a", "b", "c"))
        J = jacobian_external_nd(model, np.array([1.0, 2.0, 3.0]))
        assert_allclose(J, np.eye(3), rtol=1e-6, atol=1e-9)

    def test_linear_model_matches_matrix(self):
        A = np.array([[2.0, -1.0], [0.5, 3.0], [1.0, 1.0]])
        model = ForwardModel(simulate=lambda k: A @ k)
        J = jacobian_external_nd(model, np.array([4.0, -2.0]))
        assert_allclose(J, A, rtol=1e-9, atol=1e-12)

    def test_forward_difference_first_order(self):
        model = ForwardModel(
            simulate=lambda k: np.array([k[0] ** 2, k[0] * k[1], k[1] ** 3]),
            names=("a", "b"),
        )
        kappa = np.array([1.5, 2.0])
        exact = np.array([[2 * 1.5, 0.0], [2.0, 1.5], [0.0, 3 * 4.0]])
        err = []
        for h in (1e-3, 5e-4):
            J = jacobian_external_nd(model, kappa, steps=h)
            err.append(np.abs(J - exact).max())
        assert 1.5 <= err[0] / err[1] <= 2.5  # halving the step halves the error

    def test_failed_forward_names_parameter(self):
        def simulate(k):
            if k[1] > 2.0:
                raise RuntimeError("boom")
            return k.copy()

        model = ForwardModel(simulate=simulate, names=("alpha", "beta"))
        with pytest.raises(JacobianError, match="beta"):
            jacobian_external_nd(model, np.array([1.0, 2.0]), steps=1e-2)


class TestPlateJacobian:
    """The plate model's own Jacobian, from the factor of its last solve."""

    def test_modulus_column_is_minus_u_over_E(self, plate_small):
        # Every repo plate prescribes ubar = 0, so K(E, nu) = E K(1, nu) and
        # du/dE = -u / E exactly; the solve leaves only rounding.
        assert not np.any(plate_small.ubar)
        model = plate_forward_model(plate_small)
        for kappa in (KAPPA_TRUE, np.array([185000.0, 0.34])):
            s = model(kappa)
            J = model.jacobian(kappa)
            assert np.linalg.norm(J[:, 0] + s / kappa[0]) <= 1e-12 * np.linalg.norm(s / kappa[0])

    @pytest.mark.parametrize("kappa", [KAPPA_TRUE, np.array([185000.0, 0.34])])
    def test_agrees_with_forward_differences(self, plate_small, kappa):
        # Forward differences with step h err by about h |s''| / 2: 1e-6
        # relative in E (s is proportional to 1/E) and less in nu.
        model = plate_forward_model(plate_small)
        s = model(kappa)
        J = model.jacobian(kappa)
        J_nd = jacobian_external_nd(model, kappa, base=s)
        err = np.linalg.norm(J - J_nd, axis=0) / np.linalg.norm(J, axis=0)
        assert np.all(err <= 3e-6), err

    def test_at_a_point_not_just_evaluated(self, plate_small):
        model = plate_forward_model(plate_small)
        kappa = np.array([185000.0, 0.34])
        model(kappa)
        J = model.jacobian(kappa)
        model(KAPPA_TRUE)
        assert np.array_equal(model.jacobian(kappa), J)

    def test_solve_nls_takes_no_forward_differences(self, monkeypatch, plate_small,
                                                    plate_small_noisy):
        import calibrix.identify_reduced as identify_reduced

        def refuse(*args, **kwargs):
            raise AssertionError("forward differences on a model with a jacobian")

        monkeypatch.setattr(identify_reduced, "jacobian_external_nd", refuse)
        model = plate_forward_model(plate_small)
        result = solve_nls(model, plate_small_noisy, np.array([180000.0, 0.35]))
        assert result.converged
        assert np.array_equal(result.jacobian, model.jacobian(result.kappa))


class TestSolveNls:
    def test_exact_recovery_on_matched_data(self, plate_small, plate_small_matched):
        model = plate_forward_model(plate_small)
        result = solve_nls(model, plate_small_matched, np.array([180000.0, 0.35]))
        assert result.converged
        assert_allclose(result.kappa, KAPPA_TRUE, rtol=1e-6)

    def test_clean_interpolated_data_within_bands(self, plate_small, plate_small_clean):
        model = plate_forward_model(plate_small)
        result = solve_nls(model, plate_small_clean, np.array([180000.0, 0.35]))
        assert abs(result.kappa[0] - 210000.0) <= 0.03 * 210000.0
        assert abs(result.kappa[1] - 0.3) <= 0.01

    def test_noisy_data_recovery(self, plate_small, plate_small_noisy):
        # Small-mesh statistics: the estimate must sit within a few of its
        # own standard errors of the truth (the spec-band check runs at the
        # benchmark scale in the acceptance suite).
        model = plate_forward_model(plate_small)
        result = solve_nls(model, plate_small_noisy, np.array([180000.0, 0.35]))
        assert abs(result.kappa[0] - 210000.0) <= 4.0 * result.std[0]
        assert abs(result.kappa[1] - 0.3) <= 4.0 * result.std[1]
        assert abs(result.kappa[0] - 210000.0) <= 0.03 * 210000.0

    def test_first_order_optimality(self, plate_small, plate_small_clean):
        model = plate_forward_model(plate_small)
        result = solve_nls(model, plate_small_clean, np.array([180000.0, 0.35]))
        assert foc_residual(result, plate_small_clean, model) <= 1e-6

    def test_weight_rescaling_leaves_minimizer(self, plate_small, plate_small_noisy):
        model = plate_forward_model(plate_small)
        d, W = plate_small_noisy.select(("u1", "u2"))[:2]
        r1 = solve_nls(model, (d, W), np.array([190000.0, 0.33]))
        r2 = solve_nls(model, (d, 7.5 * W), np.array([190000.0, 0.33]))
        assert_allclose(r2.kappa, r1.kappa, rtol=1e-5)

    def test_result_carries_uncertainty(self, plate_small, plate_small_noisy):
        model = plate_forward_model(plate_small)
        result = solve_nls(model, plate_small_noisy, np.array([190000.0, 0.33]))
        assert result.std is not None and result.std.shape == (2,)
        assert result.covariance.shape == (2, 2)
        assert result.identifiable
        assert result.ci[0, 0] < result.kappa[0] < result.ci[0, 1]

    def test_degenerate_model_flags_identifiability(self):
        # Both parameters enter only through their sum: rank-deficient J.
        x = np.linspace(0.0, 1.0, 12)
        model = ForwardModel(simulate=lambda k: (k[0] + k[1]) * x, names=("a", "b"))
        d = 3.0 * x + 1e-3
        result = solve_nls(model, (d, np.ones_like(d)), np.array([1.0, 1.0]))
        assert result.identifiable is False

    def test_bounds_respected(self):
        model = ForwardModel(
            simulate=lambda k: np.array([k[0]]),
            names=("a",),
            lower=np.array([0.5]),
            upper=np.array([2.0]),
        )
        result = solve_nls(model, (np.array([-5.0]), np.ones(1)), np.array([1.0]))
        assert result.kappa[0] == 0.5


    @pytest.mark.parametrize("options, message", [
        (dict(), "first-order optimality"),
        (dict(gtol=0.0), "step/function change below tolerance"),
        (dict(gtol=0.0, ftol=0.0, xtol=0.0), "no acceptable step (stalled)"),
        (dict(max_iter=2), "max iterations reached"),
        (dict(max_iter=0), "max iterations reached"),
    ], ids=["optimality", "tolerance", "stalled", "max_iter=2", "max_iter=0"])
    def test_jacobian_is_at_the_returned_kappa(self, options, message):
        # Each exit returns the Jacobian at its kappa, formed once there.
        t = np.linspace(0.0, 2.0, 9)
        calls = []

        def simulate(k):
            calls.append(k.copy())
            return k[0] * np.exp(-k[1] * t)

        model = ForwardModel(simulate=simulate, names=("a", "b"))
        d = 2.0 * np.exp(-0.7 * t) + 0.01 * np.sin(7.0 * t)
        result = solve_nls(model, (d, np.ones_like(d)), np.array([1.0, 0.3]), **options)
        assert result.message == message
        assert result.n_evals == len(calls)
        for j, h in enumerate(default_nd_steps(result.kappa)):
            pert = result.kappa.copy()
            pert[j] += h
            assert sum(np.array_equal(k, pert) for k in calls) == 1
        J = jacobian_external_nd(model, result.kappa)
        assert np.array_equal(result.jacobian.view(np.int64), J.view(np.int64))

    def test_model_jacobian_replaces_forward_differences(self):
        # A model with its own Jacobian: only the iterates and trial points
        # are evaluated, and the result carries that Jacobian at its kappa.
        t = np.linspace(0.0, 2.0, 9)
        calls = []

        def simulate(k):
            calls.append(k.copy())
            return k[0] * np.exp(-k[1] * t)

        def jacobian(k):
            e = np.exp(-k[1] * t)
            return np.column_stack([e, -k[0] * t * e])

        model = ForwardModel(simulate=simulate, names=("a", "b"), jacobian=jacobian)
        d = 2.0 * np.exp(-0.7 * t) + 0.01 * np.sin(7.0 * t)
        result = solve_nls(model, (d, np.ones_like(d)), np.array([1.0, 0.3]))
        assert result.converged
        assert result.n_evals == len(calls) <= 1 + 2 * result.iterations
        assert np.array_equal(result.jacobian, jacobian(result.kappa))
        assert foc_residual(result, (d, np.ones_like(d)), model) <= 1e-6


class TestTracerContract:
    """The call points that an outside tracer wraps: one module-level
    ``plate_displacements`` and one ``mesh_fem._factor`` call per
    plate forward evaluation, and ``n_evals`` counting those evaluations."""

    @staticmethod
    def _count(monkeypatch, module, name):
        calls = []
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_one_solve_and_one_factorization_per_evaluation(self, monkeypatch, plate_small):
        import calibrix.benchmarks as benchmarks

        model = plate_forward_model(plate_small)
        model(KAPPA_TRUE)  # the first evaluation, outside the counts
        forward = self._count(monkeypatch, benchmarks, "plate_displacements")
        factor = self._count(monkeypatch, mesh_fem, "_factor")
        for n, E in enumerate((190000.0, 200000.0, 220000.0), start=1):
            model(np.array([E, 0.28]))
            assert (len(forward), len(factor)) == (n, n)

    def test_solve_nls_counts_every_forward_evaluation(self, monkeypatch, plate_small,
                                                        plate_small_noisy):
        import calibrix.benchmarks as benchmarks

        model = plate_forward_model(plate_small)
        model(KAPPA_TRUE)
        forward = self._count(monkeypatch, benchmarks, "plate_displacements")
        factor = self._count(monkeypatch, mesh_fem, "_factor")
        result = solve_nls(model, plate_small_noisy, np.array([180000.0, 0.35]))
        assert result.n_evals == len(forward) == len(factor) > 0


class TestLandweberReduced:
    def test_immediate_stop_at_solution(self, plate_small, plate_small_matched):
        model = plate_forward_model(plate_small)
        out = landweber_reduced(model, plate_small_matched, KAPPA_TRUE, max_iter=50)
        assert out.converged
        assert out.iterations <= 1

    def test_linear_problem_reaches_normal_equation_solution(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(30, 2)) @ np.diag([1.0, 0.6])
        d = rng.normal(size=30)
        model = ForwardModel(simulate=lambda k: A @ k)
        expected = np.linalg.lstsq(A, d, rcond=None)[0]
        out = landweber_reduced(model, (d, np.ones(30)), np.array([0.1, 0.1]),
                                scale=np.ones(2), max_iter=5000, tol=1e-12)
        assert_allclose(out.kappa, expected, rtol=1e-4)

    def test_objective_monotone(self, plate_small, plate_small_noisy):
        model = plate_forward_model(plate_small)
        out = landweber_reduced(model, plate_small_noisy,
                                np.array([190000.0, 0.32]), max_iter=40)
        assert np.all(np.diff(out.objectives) <= 0.0)

    def test_agrees_with_direct_solver(self, plate_small, plate_small_matched):
        model = plate_forward_model(plate_small)
        direct = solve_nls(model, plate_small_matched, np.array([195000.0, 0.32]))
        out = landweber_reduced(model, plate_small_matched,
                                np.array([195000.0, 0.32]), max_iter=3000, tol=1e-12)
        assert_allclose(out.kappa, direct.kappa, rtol=1e-3)

    def test_plate_fit_takes_no_forward_differences(self, monkeypatch, plate_small,
                                                    plate_small_noisy):
        import calibrix.identify_reduced as identify_reduced

        def refuse(*args, **kwargs):
            raise AssertionError("forward differences on a model with a jacobian")

        monkeypatch.setattr(identify_reduced, "jacobian_external_nd", refuse)
        out = landweber_reduced(plate_forward_model(plate_small), plate_small_noisy,
                                np.array([190000.0, 0.32]), max_iter=40)
        assert out.iterations == 40

    def test_exact_jacobian_agrees_with_forward_differences(self, plate_small,
                                                            plate_small_noisy):
        # Forward differences err by about 1e-6 relative in J; 40 iterations
        # from the same start stay close on either sensitivity.
        model = plate_forward_model(plate_small)
        differenced = dataclasses.replace(model, jacobian=None)
        start = np.array([190000.0, 0.32])
        exact = landweber_reduced(model, plate_small_noisy, start, max_iter=40)
        nd = landweber_reduced(differenced, plate_small_noisy, start, max_iter=40)
        assert exact.iterations == nd.iterations == 40
        assert_allclose(exact.kappa, nd.kappa, rtol=1e-6)
        assert_allclose(exact.objectives, nd.objectives, rtol=1e-6)


class TestMultiplierForm:
    def test_residual_vanishes_at_solution(self, plate_small, plate_small_noisy):
        model = plate_forward_model(plate_small)
        result = solve_nls(model, plate_small_noisy, np.array([190000.0, 0.33]))
        d_u, _ = full_field_vectors(plate_small.coarse, plate_small.part,
                                    plate_small_noisy)
        # Weighted observation of the free dofs, matching the NLS objective.
        W_free = np.empty_like(d_u)
        blocks = {b.comp: b for b in plate_small_noisy.blocks if b.comp in ("u1", "u2")}
        full_w = np.empty(plate_small.coarse.n_dofs)
        for comp, off in (("u1", 0), ("u2", 1)):
            b = blocks[comp]
            full_w[2 * b.points + off] = plate_small_noisy.W[b.start:b.stop]
        W_free = full_w[plate_small.part.free]
        kappa_c = np.array(c_coords_from_E_nu(*result.kappa))
        resid = reduced2_multiplier_residual(
            plate_small.decomp, (d_u, W_free), kappa_c,
            plate_small.pbar, plate_small.ubar,
        )
        assert resid <= 1e-6
        off = reduced2_multiplier_residual(
            plate_small.decomp, (d_u, W_free),
            np.array(c_coords_from_E_nu(180000.0, 0.2)),
            plate_small.pbar, plate_small.ubar,
        )
        assert off > 100 * resid

    def test_one_factorization_matches_transposed_oracle(self, plate_small, plate_small_noisy):
        # The multiplier solve reuses the factor of K; the oracle factors K^T anew.
        case = plate_small
        d_u, _ = full_field_vectors(case.coarse, case.part, plate_small_noisy)
        W_u = np.random.default_rng(2).uniform(0.5, 2.0, d_u.size)
        kappa_c = np.array(c_coords_from_E_nu(180000.0, 0.2))
        stiff = case.decomp.stiffness(kappa_c)
        u = general_lu(stiff.K).solve(case.pbar - stiff.Kbar.matvec(case.ubar))
        lam_u = general_lu(calibrix_csr(scipy_csr(stiff.K).T)).solve(-(W_u**2) * (u - d_u))
        a_s, _ = assemble_parameter_matrices(case.coarse, case.part, u, case.ubar)
        scale = 1.0 + np.linalg.norm(a_s.T @ ((W_u**2) * d_u))
        oracle = np.linalg.norm(a_s.T @ lam_u) / scale
        resid = reduced2_multiplier_residual(case.decomp, (d_u, W_u), kappa_c,
                                             case.pbar, case.ubar)
        assert abs(resid - oracle) <= 1e-12 * oracle
