"""Tests for the direct (virtual-fields) identification."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from calibrix.errors import DataCoverageError, IdentifiabilityError
from calibrix.identify_vfm import equilibrium_gap, full_field_vectors, solve_vfm
from calibrix.materials import c_coords_from_E_nu
from calibrix.mesh_fem import assemble_vfm_system
from calibrix.synthetic_data import ObservationBlock, ObservationSet

KAPPA_TRUE_C = np.array(c_coords_from_E_nu(210000.0, 0.3))


class TestSolveVfm:
    def test_exact_on_matched_data(self, plate_small, plate_small_matched):
        result = solve_vfm(plate_small.coarse, plate_small.part, plate_small_matched)
        assert_allclose(result.kappa_c, KAPPA_TRUE_C, rtol=1e-8)
        assert_allclose([result.E, result.nu], [210000.0, 0.3], rtol=1e-8)

    def test_clean_interpolated_data(self, plate_small, plate_small_clean):
        result = solve_vfm(plate_small.coarse, plate_small.part, plate_small_clean)
        assert abs(result.E - 210000.0) <= 0.01 * 210000.0
        assert abs(result.nu - 0.3) <= 0.01

    def test_duplicated_rows_leave_solution(self, plate_small, plate_small_clean):
        mesh, part = plate_small.coarse, plate_small.part
        d_u, p_check = full_field_vectors(mesh, part, plate_small_clean)
        system = assemble_vfm_system(mesh, part, d_u, p_check, 1e4)
        A2 = np.vstack([system.A, system.A])
        p2 = np.concatenate([system.p_vec, system.p_vec])
        kappa1 = np.linalg.solve(system.A.T @ system.A, system.A.T @ system.p_vec)
        kappa2 = np.linalg.solve(A2.T @ A2, A2.T @ p2)
        assert_allclose(kappa2, kappa1, rtol=1e-12)

    def test_multiple_load_steps_averaged(self, plate_small, plate_small_matched):
        # A second, half-scaled load step gives the same per-step estimate by
        # linearity; the result is the per-step average.
        data = plate_small_matched
        blocks = list(data.blocks)
        extra = []
        values = [data.d]
        weights = [data.W]
        cursor = data.n_data
        for b in data.blocks:
            extra.append(ObservationBlock(
                experiment=b.experiment, step=2, comp=b.comp, points=b.points,
                xy=b.xy, weight=b.weight, sigma=b.sigma,
                start=cursor, stop=cursor + b.size,
            ))
            values.append(0.5 * data.d[b.start:b.stop])
            weights.append(data.W[b.start:b.stop])
            cursor += b.size
        two_step_data = ObservationSet(
            d=np.concatenate(values), W=np.concatenate(weights),
            blocks=tuple(blocks + extra),
        )
        result = solve_vfm(plate_small.coarse, plate_small.part, two_step_data)
        assert len(result.per_step) == 2
        per_step = np.array([k for _, _, k in result.per_step])
        assert_allclose(per_step[0], per_step[1], rtol=1e-8)
        assert_allclose(result.kappa_c, per_step.mean(axis=0), rtol=1e-12)

    def test_noisy_case_runs_and_drift_logged(self, plate_small):
        # Strain differentiation of noisy data degrades the direct solve; no
        # accuracy bound is asserted, only that the drift is finite.
        from cases import plate_observations

        noisy = plate_observations(plate_small, 4e-4, seed=5)
        result = solve_vfm(plate_small.coarse, plate_small.part, noisy)
        drift = abs(result.E - 210000.0) / 210000.0
        assert np.isfinite(drift)

    def test_rank_deficiency_raises(self, plate_small, plate_small_matched):
        mesh, part = plate_small.coarse, plate_small.part
        data = plate_small_matched
        zero = ObservationSet(
            d=np.where([b.comp != "F1" for b in data.blocks for _ in range(b.size)],
                       0.0, data.d),
            W=data.W,
            blocks=data.blocks,
        )
        with pytest.raises(IdentifiabilityError):
            solve_vfm(mesh, part, zero)

    def test_missing_coverage_raises(self, plate_small, plate_small_matched):
        data = plate_small_matched
        # Drop the u2 block entirely.
        u1 = data.block("u1")
        f1 = data.block("F1")
        pruned = ObservationSet(
            d=np.concatenate([data.d[u1.start:u1.stop], data.d[f1.start:f1.stop]]),
            W=np.concatenate([data.W[u1.start:u1.stop], data.W[f1.start:f1.stop]]),
            blocks=(
                ObservationBlock(1, 1, "u1", u1.points, u1.xy, u1.weight, u1.sigma,
                                 0, u1.size),
                ObservationBlock(1, 1, "F1", f1.points, f1.xy, f1.weight, f1.sigma,
                                 u1.size, u1.size + 1),
            ),
        )
        with pytest.raises(DataCoverageError):
            solve_vfm(plate_small.coarse, plate_small.part, pruned)


class TestEquilibriumGap:
    def test_zero_at_exact_data_and_truth(self, plate_small, plate_small_matched):
        gap = equilibrium_gap(plate_small.coarse, plate_small.part,
                              plate_small_matched, KAPPA_TRUE_C)
        scale = equilibrium_gap(plate_small.coarse, plate_small.part,
                                plate_small_matched, 2.0 * KAPPA_TRUE_C)
        assert gap <= 1e-16 * scale

    def test_direct_solution_minimizes(self, plate_small, plate_small_clean):
        mesh, part = plate_small.coarse, plate_small.part
        result = solve_vfm(mesh, part, plate_small_clean)
        gap_star = equilibrium_gap(mesh, part, plate_small_clean, result.kappa_c)
        rng = np.random.default_rng(11)
        for _ in range(100):
            kappa = result.kappa_c * (1.0 + rng.uniform(-0.2, 0.2, size=2))
            assert gap_star <= equilibrium_gap(mesh, part, plate_small_clean, kappa)

    def test_quadratic_growth_around_minimizer(self, plate_small, plate_small_clean):
        mesh, part = plate_small.coarse, plate_small.part
        result = solve_vfm(mesh, part, plate_small_clean)
        gap0 = equilibrium_gap(mesh, part, plate_small_clean, result.kappa_c)
        delta = np.array([1e3, -4e2])
        g1 = equilibrium_gap(mesh, part, plate_small_clean, result.kappa_c + delta) - gap0
        g2 = equilibrium_gap(mesh, part, plate_small_clean, result.kappa_c + 2 * delta) - gap0
        assert_allclose(g2 / g1, 4.0, rtol=1e-6)
