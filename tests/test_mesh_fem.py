"""Tests for the Q4 plane-stress core: elements, assembly, solves, linear maps."""

import math
import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import calibrix.mesh_fem as mesh_fem
from calibrix.errors import (
    CalibrixError,
    ConfigError,
    DataCoverageError,
    GeometryError,
    SolverError,
)
from calibrix.identify_aao import AaoOperators
from calibrix.materials import ElasticParams, c_coords_from_E_nu, elasticity_matrix_plane_stress
from calibrix.mesh_fem import (
    DofPartition,
    Mesh,
    StiffnessDecomposition,
    _C_BASIS,
    _condition_estimate,
    _factor,
    applied_forces,
    assemble_parameter_matrices,
    assemble_stiffness,
    assemble_vfm_system,
    default_resultant_selector,
    prescribed_values,
    reaction_resultant,
    read_mesh_file,
    solve_linear,
    write_mesh_file,
    zero_force_rows,
)
from calibrix.meshes import quarter_plate_mesh
from cases import calibrix_csr, general_lu, rectangle_mesh, scipy_csr, uniaxial_patch_mesh
from oracle_fem import (
    element_stiffness,
    element_stiffness_from_coords,
    full_stiffness,
    parameter_matrices_from_strains,
)

C_STEEL = elasticity_matrix_plane_stress(ElasticParams(E=210000.0, nu=0.3))
KAPPA_STEEL = np.array(c_coords_from_E_nu(210000.0, 0.3))

# Unit-square Q4 stiffness for E = 210000, nu = 0.3, t = 1, derived by exact
# symbolic integration of B^T C B (independent of the quadrature code path).
K_UNIT_SQUARE_ORACLE = np.array([
    [103846.1538461538, 37500.0, -63461.5384615385, -2884.6153846154,
     -51923.0769230769, -37500.0, 11538.4615384615, 2884.6153846154],
    [37500.0, 103846.1538461538, 2884.6153846154, 11538.4615384615,
     -37500.0, -51923.0769230769, -2884.6153846154, -63461.5384615385],
    [-63461.5384615385, 2884.6153846154, 103846.1538461538, -37500.0,
     11538.4615384615, -2884.6153846154, -51923.0769230769, 37500.0],
    [-2884.6153846154, 11538.4615384615, -37500.0, 103846.1538461538,
     2884.6153846154, -63461.5384615385, 37500.0, -51923.0769230769],
    [-51923.0769230769, -37500.0, 11538.4615384615, 2884.6153846154,
     103846.1538461538, 37500.0, -63461.5384615385, -2884.6153846154],
    [-37500.0, -51923.0769230769, -2884.6153846154, -63461.5384615385,
     37500.0, 103846.1538461538, 2884.6153846154, 11538.4615384615],
    [11538.4615384615, -2884.6153846154, -51923.0769230769, 37500.0,
     -63461.5384615385, 2884.6153846154, 103846.1538461538, -37500.0],
    [2884.6153846154, -63461.5384615385, 37500.0, -51923.0769230769,
     -2884.6153846154, 11538.4615384615, -37500.0, 103846.1538461538],
])

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


@pytest.fixture(scope="module")
def plate():
    mesh = quarter_plate_mesh(12, 10)
    part = DofPartition.from_mesh(mesh)
    return mesh, part


@pytest.fixture(scope="module")
def plate_solution(plate):
    mesh, part = plate
    stiff = assemble_stiffness(mesh, part, C_STEEL)
    pbar = applied_forces(mesh, part)
    ubar = prescribed_values(mesh, part)
    u, p = solve_linear(stiff, pbar, ubar)
    return stiff, pbar, ubar, u, p


class TestElementStiffness:
    def test_rigid_translations_produce_no_force(self):
        C = elasticity_matrix_plane_stress(ElasticParams(E=1.0, nu=0.0))
        k = element_stiffness_from_coords(UNIT_SQUARE, C, 1.0)
        tx = np.tile([1.0, 0.0], 4)
        ty = np.tile([0.0, 1.0], 4)
        assert_allclose(k @ tx, 0.0, atol=1e-14)
        assert_allclose(k @ ty, 0.0, atol=1e-14)

    def test_linearity_in_C(self):
        k1 = element_stiffness_from_coords(UNIT_SQUARE, C_STEEL, 1.0)
        k2 = element_stiffness_from_coords(UNIT_SQUARE, 2.0 * C_STEEL, 1.0)
        assert_allclose(k2, 2.0 * k1, rtol=1e-14)

    def test_unit_square_matches_symbolic_oracle(self):
        k = element_stiffness_from_coords(UNIT_SQUARE, C_STEEL, 1.0)
        assert_allclose(k, K_UNIT_SQUARE_ORACLE, rtol=1e-10)

    def test_symmetry_and_rank(self):
        k = element_stiffness_from_coords(UNIT_SQUARE, C_STEEL, 1.0)
        assert_allclose(k, k.T, atol=1e-9)
        eigs = np.sort(np.abs(np.linalg.eigvalsh(k)))
        assert np.all(eigs[:3] < 1e-8 * eigs[-1])  # three rigid modes
        assert np.all(eigs[3:] > 1e-8 * eigs[-1])  # rank 5

    def test_degenerate_element_error(self):
        bowtie = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(GeometryError, match="element 7"):
            element_stiffness_from_coords(bowtie, C_STEEL, 1.0, label="element 7")
        with pytest.raises(GeometryError):
            Mesh(nodes=bowtie, elements=[[0, 1, 2, 3]], thickness=1.0)

    def test_mesh_indexed_element(self, plate):
        mesh, _ = plate
        k = element_stiffness(mesh, 3, C_STEEL)
        assert k.shape == (8, 8)
        assert_allclose(k, k.T, atol=1e-6)


class TestAssembly:
    def test_single_element_free_block(self):
        mesh = Mesh(nodes=UNIT_SQUARE, elements=[[0, 1, 2, 3]], thickness=1.0,
                    dirichlet=((0, 0, 0.0), (0, 1, 0.0), (3, 0, 0.0)))
        part = DofPartition.from_mesh(mesh)
        stiff = assemble_stiffness(mesh, part, C_STEEL)
        k = element_stiffness(mesh, 0, C_STEEL)
        assert_allclose(stiff.K.toarray(), k[np.ix_(part.free, part.free)], rtol=1e-14)

    def test_two_elements_share_edge_contributions(self):
        mesh = rectangle_mesh(2, 1, 2.0, 1.0)
        part = DofPartition.from_mesh(mesh)
        stiff = assemble_stiffness(mesh, part, C_STEEL)
        k0 = element_stiffness(mesh, 0, C_STEEL)
        k1 = element_stiffness(mesh, 1, C_STEEL)
        # Node 1 (dof 2) is shared: global diagonal = sum of both elements.
        d0 = list(2 * mesh.elements[0]).index(2)
        d1 = list(2 * mesh.elements[1]).index(2)
        full = full_stiffness(stiff)
        # With no dirichlet dofs the free block is the global matrix.
        assert_allclose(full[2, 2], k0[d0, d0] + k1[d1, d1], rtol=1e-13)

    def test_full_matrix_symmetry(self, plate_solution):
        stiff = plate_solution[0]
        full = full_stiffness(stiff)
        assert np.abs(full - full.T).max() <= 1e-12 * np.abs(full).max()

    def test_solved_state_satisfies_equilibrium(self, plate_solution):
        stiff, pbar, ubar, u, _ = plate_solution
        resid = stiff.K.matvec(u) + stiff.Kbar.matvec(ubar) - pbar
        assert np.linalg.norm(resid) <= 1e-9 * np.linalg.norm(pbar)


class TestSolveLinear:
    def test_homogeneous(self, plate_solution):
        stiff = plate_solution[0]
        u, p = solve_linear(stiff, np.zeros(stiff.K.shape[0]),
                            np.zeros(stiff.Kbar.shape[1]))
        assert_allclose(u, 0.0, atol=1e-15)
        assert_allclose(p, 0.0, atol=1e-15)

    def test_uniaxial_patch(self):
        mesh = uniaxial_patch_mesh(5, 4, 2.0, 1.0, traction=100.0, distort=0.3, seed=2)
        part = DofPartition.from_mesh(mesh)
        stiff = assemble_stiffness(mesh, part, C_STEEL)
        u, _ = solve_linear(stiff, applied_forces(mesh, part), prescribed_values(mesh, part))
        full = part.merge(u, prescribed_values(mesh, part))
        eps = 100.0 / 210000.0
        assert np.abs(full[0::2] - eps * mesh.nodes[:, 0]).max() < 1e-10
        assert np.abs(full[1::2] + 0.3 * eps * mesh.nodes[:, 1]).max() < 1e-10

    def test_plate_reaction_resultant(self, plate, plate_solution):
        mesh, part = plate
        _, pbar, _, _, p = plate_solution
        m = default_resultant_selector(mesh, part)
        assert abs(reaction_resultant(p, m) + 1500.0) < 1e-6
        # Global equilibrium: reactions balance the applied load.
        assert abs(p.sum() + pbar.sum()) <= 1e-8 * 1500.0

    def test_singular_system_raises(self):
        mesh = rectangle_mesh(2, 2, 1.0, 1.0)  # no supports at all
        part = DofPartition.from_mesh(mesh)
        stiff = assemble_stiffness(mesh, part, C_STEEL)
        with pytest.raises(SolverError, match="condition estimate"):
            solve_linear(stiff, np.ones(part.n_free), np.zeros(0))

    def test_energy_monotone_under_refinement(self):
        # Compliance of the displacement solution grows toward the continuum
        # limit under uniform refinement.
        energies = []
        for n_c, n_r in ((6, 5), (12, 10), (24, 20)):
            mesh = quarter_plate_mesh(n_c, n_r)
            part = DofPartition.from_mesh(mesh)
            stiff = assemble_stiffness(mesh, part, C_STEEL)
            pbar = applied_forces(mesh, part)
            u, _ = solve_linear(stiff, pbar, prescribed_values(mesh, part))
            energies.append(0.5 * float(pbar @ u))
        assert energies[0] < energies[1] < energies[2]


class TestReactionResultant:
    def test_zero_selector(self, plate_solution):
        p = plate_solution[4]
        assert reaction_resultant(p, np.zeros_like(p)) == 0.0

    def test_single_entry(self, plate_solution):
        p = plate_solution[4]
        m = np.zeros_like(p)
        m[3] = 1.0
        assert reaction_resultant(p, m) == p[3]

    def test_length_mismatch(self, plate_solution):
        p = plate_solution[4]
        with pytest.raises(DataCoverageError):
            reaction_resultant(p, np.ones(len(p) + 1))


class TestParameterMatrices:
    def test_zero_displacements(self, plate):
        mesh, part = plate
        a_s, abar_s = assemble_parameter_matrices(
            mesh, part, np.zeros(part.n_free), np.zeros(part.n_prescribed)
        )
        assert_allclose(a_s, 0.0, atol=1e-15)
        assert_allclose(abar_s, 0.0, atol=1e-15)

    def test_homogeneity(self, plate, plate_solution):
        mesh, part = plate
        _, _, ubar, u, _ = plate_solution
        a1, _ = assemble_parameter_matrices(mesh, part, u, ubar)
        a2, _ = assemble_parameter_matrices(mesh, part, 2.0 * u, 2.0 * ubar)
        assert_allclose(a2, 2.0 * a1, rtol=1e-13)

    def test_consistency_with_solve(self, plate, plate_solution):
        mesh, part = plate
        _, pbar, ubar, u, _ = plate_solution
        a_s, _ = assemble_parameter_matrices(mesh, part, u, ubar)
        assert np.linalg.norm(a_s @ KAPPA_STEEL - pbar) <= 1e-8 * np.linalg.norm(pbar)

    def test_random_linearity_identity(self, plate):
        # A_S(u, ubar) kappa == K(kappa) u + Kbar(kappa) ubar for random states.
        mesh, part = plate
        rng = np.random.default_rng(5)
        for _ in range(100):
            u = rng.normal(size=part.n_free)
            ubar = rng.normal(size=part.n_prescribed)
            kappa = rng.uniform(1e4, 3e5, size=2)
            kappa[1] = min(kappa[1], 0.45 * kappa[0])
            C = np.array([[kappa[0], kappa[1], 0.0],
                          [kappa[1], kappa[0], 0.0],
                          [0.0, 0.0, 0.5 * (kappa[0] - kappa[1])]])
            stiff = assemble_stiffness(mesh, part, C)
            a_s, abar_s = assemble_parameter_matrices(mesh, part, u, ubar)
            lhs = a_s @ kappa
            rhs = stiff.K.matvec(u) + stiff.Kbar.matvec(ubar)
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)
            lhs2 = abar_s @ kappa
            rhs2 = stiff.Kbar.rmatvec(u) + stiff.Kbarbar.matvec(ubar)
            assert np.linalg.norm(lhs2 - rhs2) <= 1e-10 * np.linalg.norm(rhs2)

    def test_decomposition_matches_direct_assembly(self, plate, plate_solution):
        mesh, part = plate
        _, _, ubar, u, _ = plate_solution
        decomp = StiffnessDecomposition.from_mesh(mesh, part)
        stiff = decomp.stiffness(KAPPA_STEEL)
        direct = assemble_stiffness(mesh, part, C_STEEL)
        assert np.abs(stiff.K.toarray() - direct.K.toarray()).max() <= 1e-9
        # The equilibrium map agrees with the sparse blocks it shares its
        # element matrices with.
        a_s, abar_s = assemble_parameter_matrices(mesh, part, u, ubar)
        a, b = decomp.blocks
        assert_allclose(a_s, np.column_stack([a.K.matvec(u) + a.Kbar.matvec(ubar),
                                              b.K.matvec(u) + b.Kbar.matvec(ubar)]),
                        rtol=1e-9, atol=1e-12)
        assert_allclose(abar_s, np.column_stack([a.Kbar.rmatvec(u) + a.Kbarbar.matvec(ubar),
                                                 b.Kbar.rmatvec(u) + b.Kbarbar.matvec(ubar)]),
                        rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("n_c, n_r", [(12, 10), (30, 25)])
    def test_decomposition_blocks_bit_identical_to_assembly(self, n_c, n_r):
        mesh = quarter_plate_mesh(n_c, n_r)
        part = DofPartition.from_mesh(mesh)
        decomp = StiffnessDecomposition.from_mesh(mesh, part)
        for block, C in zip(decomp.blocks, _C_BASIS):
            direct = assemble_stiffness(mesh, part, C)
            for name in ("K", "Kbar", "Kbarbar"):
                got, want = getattr(block, name), getattr(direct, name)
                assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64)), name
                assert np.array_equal(got.indices, want.indices), name
                assert np.array_equal(got.indptr, want.indptr), name

    @pytest.mark.parametrize("n_c, n_r", [(12, 10), (30, 25)])
    def test_matches_strain_oracle(self, n_c, n_r):
        # The element-matrix product against the independent Gauss-point
        # strain form, on random states with and without prescribed values.
        mesh = quarter_plate_mesh(n_c, n_r)
        part = DofPartition.from_mesh(mesh)
        rng = np.random.default_rng(n_c)
        for ubar in (np.zeros(part.n_prescribed), rng.normal(size=part.n_prescribed)):
            u = rng.normal(size=part.n_free)
            got = assemble_parameter_matrices(mesh, part, u, ubar)
            want = parameter_matrices_from_strains(mesh, part, u, ubar)
            for g, w in zip(got, want):
                assert np.linalg.norm(g - w) <= 1e-12 * np.linalg.norm(w)

    def test_element_matrices_computed_once_per_mesh(self, monkeypatch):
        mesh = quarter_plate_mesh(6, 5)
        part = DofPartition.from_mesh(mesh)
        calls = []
        kernel = mesh_fem._element_stiffness
        monkeypatch.setattr(mesh_fem, "_element_stiffness",
                            lambda *args: calls.append(len(args) - 1) or kernel(*args))
        StiffnessDecomposition.from_mesh(mesh, part)
        u, ubar = np.ones(part.n_free), np.ones(part.n_prescribed)
        for _ in range(3):
            assemble_parameter_matrices(mesh, part, u, ubar)
        assert calls == [len(_C_BASIS)]


def _plate_bayes_kappas(n, seed):
    """(C11, C12) draws from the plate-bayes prior box, (E, nu) within 10 %."""
    rng = np.random.default_rng(seed)
    E = rng.uniform(0.9 * 210000.0, 1.1 * 210000.0, n)
    nu = rng.uniform(0.9 * 0.3, 1.1 * 0.3, n)
    return [np.array(c_coords_from_E_nu(e, v)) for e, v in zip(E, nu)]


def _assert_general_lu_solution(u, stiff, rhs):
    """u is within 1e-12 relative of the general-LU solution of K u = rhs."""
    oracle = general_lu(stiff.K).solve(rhs)
    assert np.linalg.norm(u - oracle) <= 1e-12 * np.linalg.norm(oracle)


class TestDecompositionSolve:
    @pytest.mark.parametrize("n_c, n_r, draws", [(12, 10, 200), (30, 25, 20)])
    def test_bit_identical_to_fresh_factorization(self, n_c, n_r, draws):
        # Each solve factors afresh in symmetric mode and keeps no state
        # between calls; its result is also that of a general LU to rounding.
        mesh = quarter_plate_mesh(n_c, n_r)
        part = DofPartition.from_mesh(mesh)
        decomp = StiffnessDecomposition.from_mesh(mesh, part)
        pbar = applied_forces(mesh, part)
        ubar_plate = prescribed_values(mesh, part)
        ubar_random = np.random.default_rng(3).uniform(-1e-3, 1e-3, part.n_prescribed)
        for i, kappa in enumerate(_plate_bayes_kappas(draws, seed=n_c)):
            # Every other draw prescribes non-zero displacements, so the
            # Kbar ubar term is exercised too (the plate's own ubar is 0).
            ubar = ubar_random if i % 2 else ubar_plate
            stiff = decomp.stiffness(kappa)
            rhs = pbar - stiff.Kbar.matvec(ubar)
            fresh = _factor(stiff.K, stiff.order).solve(rhs)
            u, _ = decomp.solve(kappa, pbar, ubar)
            assert np.array_equal(u.view(np.int64), fresh.view(np.int64)), i
            _assert_general_lu_solution(u, stiff, rhs)

    def test_earlier_factors_survive_later_solves(self, plate):
        mesh, part = plate
        decomp = StiffnessDecomposition.from_mesh(mesh, part)
        pbar = applied_forces(mesh, part)
        ubar = np.random.default_rng(4).uniform(-1e-3, 1e-3, part.n_prescribed)
        kappas = _plate_bayes_kappas(6, seed=13)
        kept = [(kappa, *decomp.solve(kappa, pbar, ubar)) for kappa in kappas]
        for kappa, u, lu in kept:
            stiff = decomp.stiffness(kappa)
            rhs = pbar - stiff.Kbar.matvec(ubar)
            assert np.array_equal(lu.solve(rhs).view(np.int64), u.view(np.int64)), kappa
            _assert_general_lu_solution(u, stiff, rhs)

    @pytest.mark.parametrize("kappa, match", [
        (np.zeros(2), "sparse factorization failed"),
        (np.ones(2), "linear solve inaccurate"),
    ], ids=["kappa=0", "C11=C12"])
    def test_errors_unchanged_after_a_successful_solve(self, plate, kappa, match):
        mesh, part = plate
        pbar = applied_forces(mesh, part)
        ubar = prescribed_values(mesh, part)
        messages = []
        for warm in (False, True):
            decomp = StiffnessDecomposition.from_mesh(mesh, part)
            if warm:
                decomp.solve(KAPPA_STEEL, pbar, ubar)
            with pytest.raises(SolverError, match=match) as info:
                decomp.solve(kappa, pbar, ubar)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        # The failed call leaves nothing behind that a later solve would see.
        stiff = decomp.stiffness(KAPPA_STEEL)
        u, _ = decomp.solve(KAPPA_STEEL, pbar, ubar)
        _assert_general_lu_solution(u, stiff, pbar - stiff.Kbar.matvec(ubar))

    def test_alternating_prescribed_displacements_match_fresh_factorization(self, plate):
        # Each kappa is solved with a non-zero ubar and with the plate's own
        # ubar = 0 in turn; the oracles are formed only after every solve.
        mesh, part = plate
        decomp = StiffnessDecomposition.from_mesh(mesh, part)
        pbar = applied_forces(mesh, part)
        ubars = (np.random.default_rng(6).uniform(-1e-3, 1e-3, part.n_prescribed),
                 prescribed_values(mesh, part))
        assert not np.any(ubars[1])
        runs = [(kappa, ubar, decomp.solve(kappa, pbar, ubar)[0])
                for kappa in _plate_bayes_kappas(10, seed=17) for ubar in ubars]
        for kappa, ubar, u in runs:
            stiff = decomp.stiffness(kappa)
            _assert_general_lu_solution(u, stiff, pbar - stiff.Kbar.matvec(ubar))

    def test_transposed_solve_reuses_factors(self, plate):
        mesh, part = plate
        decomp = StiffnessDecomposition.from_mesh(mesh, part)
        pbar = applied_forces(mesh, part)
        ubar = prescribed_values(mesh, part)
        r = np.random.default_rng(5).standard_normal(part.n_free)
        for kappa in _plate_bayes_kappas(5, seed=11):
            _, lu = decomp.solve(kappa, pbar, ubar)
            lam = lu.solve(r)  # K is symmetric: one factor solves K^T too
            K_t = calibrix_csr(scipy_csr(decomp.stiffness(kappa).K).T)
            oracle = general_lu(K_t).solve(r)
            assert np.linalg.norm(lam - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_zero_coefficients_raise_solver_error(self, plate):
        # K = 0 does not factor, so there are no factors to estimate from.
        mesh, part = plate
        decomp = StiffnessDecomposition.from_mesh(mesh, part)
        with pytest.raises(SolverError, match="condition estimate inf$"):
            decomp.solve(np.zeros(2), applied_forces(mesh, part),
                         prescribed_values(mesh, part))

    def test_inaccurate_solve_reports_finite_condition_estimate(self, plate):
        # C11 = C12 makes C singular: K factors, but the solve fails its
        # residual check, and the estimate comes from those factors.
        mesh, part = plate
        decomp = StiffnessDecomposition.from_mesh(mesh, part)
        with pytest.raises(SolverError, match="inaccurate") as info:
            decomp.solve(np.ones(2), applied_forces(mesh, part),
                         prescribed_values(mesh, part))
        estimate = float(str(info.value).rsplit(" ", 1)[1])
        assert np.isfinite(estimate) and estimate > 1e12

    def test_condition_estimate_is_deterministic(self, plate):
        # The estimate's random start vectors come from a fixed seed, and the
        # caller's global RNG neither changes it nor is advanced by it.
        mesh, part = plate
        decomp = StiffnessDecomposition.from_mesh(mesh, part)
        messages = []
        for seed in (0, 1):
            np.random.seed(seed)
            before = np.random.get_state()
            with pytest.raises(SolverError, match="inaccurate") as info:
                decomp.solve(np.ones(2), applied_forces(mesh, part),
                             prescribed_values(mesh, part))
            after = np.random.get_state()
            assert after[0] == before[0] and after[2:] == before[2:]
            assert np.array_equal(after[1], before[1])
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_condition_estimate_from_factors(self, plate):
        mesh, part = plate
        stiff = StiffnessDecomposition.from_mesh(mesh, part).stiffness(KAPPA_STEEL)
        exact = np.linalg.cond(stiff.K.toarray(), 1)
        estimate = _condition_estimate(stiff.K, _factor(stiff.K, stiff.order))
        assert 0.5 * exact <= estimate <= 1.0000001 * exact

    def test_singular_mesh_raises_solver_error(self):
        mesh = rectangle_mesh(2, 2, 1.0, 1.0)  # no supports at all
        part = DofPartition.from_mesh(mesh)
        decomp = StiffnessDecomposition.from_mesh(mesh, part)
        with pytest.raises(SolverError, match="condition estimate"):
            decomp.solve(KAPPA_STEEL, np.ones(part.n_free), np.zeros(0))
        # K_a has rigid body modes, so there is no spectrum to solve through.
        assert decomp.spectrum is None
        assert decomp.spectral_solver(np.ones(part.n_free), np.zeros(0))(KAPPA_STEEL) is None


class TestSpectrum:
    def test_spectrum_diagonalizes_the_pencil(self, plate):
        mesh, part = plate
        decomp = StiffnessDecomposition.from_mesh(mesh, part)
        lam, V = decomp.spectrum
        K_a, K_b = (block.K.toarray() for block in decomp.blocks)
        assert_allclose(V.T @ K_a @ V, np.eye(part.n_free), rtol=0.0, atol=1e-12)
        assert np.abs(K_b @ V - (K_a @ V) * lam).max() <= 1e-12 * np.abs(K_b).max()
        assert -1.0 - 1e-12 <= lam.min() and lam.max() <= 1.0 + 1e-12

    def test_spectral_solver_matches_lu_solve(self, plate):
        # A non-zero ubar exercises the Kbar ubar terms (the plate's own ubar is 0).
        mesh, part = plate
        decomp = StiffnessDecomposition.from_mesh(mesh, part)
        pbar = applied_forces(mesh, part)
        ubar = np.random.default_rng(8).uniform(-1e-3, 1e-3, part.n_prescribed)
        solve = decomp.spectral_solver(pbar, ubar)
        for kappa in _plate_bayes_kappas(20, seed=19):
            u_lu, _ = decomp.solve(kappa, pbar, ubar)
            assert np.linalg.norm(solve(kappa) - u_lu) <= 1e-12 * np.linalg.norm(u_lu)

    @pytest.mark.parametrize("kappa", [np.zeros(2), np.ones(2), np.array([1.0, -1.0]),
                                       np.array([np.inf, np.inf]), np.array([np.nan, 1.0])],
                             ids=["kappa=0", "C11=C12", "C11=-C12", "inf", "nan"])
    def test_spectral_solver_rejects_singular_coefficients(self, plate, kappa):
        mesh, part = plate
        decomp = StiffnessDecomposition.from_mesh(mesh, part)
        solve = decomp.spectral_solver(applied_forces(mesh, part), prescribed_values(mesh, part))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert solve(kappa) is None


class TestVfmSystem:
    def test_exact_data_zero_residual(self, plate, plate_solution):
        mesh, part = plate
        _, _, _, u, p = plate_solution
        m = default_resultant_selector(mesh, part)
        system = assemble_vfm_system(mesh, part, u, reaction_resultant(p, m), 1.0)
        resid = system.A @ KAPPA_STEEL - system.p_vec
        assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(system.A @ KAPPA_STEEL)

    def test_sigma_r_scales_only_resultant_row(self, plate, plate_solution):
        mesh, part = plate
        _, _, _, u, p = plate_solution
        p_check = reaction_resultant(p, default_resultant_selector(mesh, part))
        s1 = assemble_vfm_system(mesh, part, u, p_check, 1.0)
        s4 = assemble_vfm_system(mesh, part, u, p_check, 4.0)
        assert_allclose(s4.A[:-1], s1.A[:-1], rtol=1e-14)
        assert_allclose(s4.A[-1], 2.0 * s1.A[-1], rtol=1e-14)
        assert_allclose(s4.p_vec[-1], 2.0 * s1.p_vec[-1], rtol=1e-14)

    def test_missing_data_raises(self, plate):
        mesh, part = plate
        with pytest.raises(DataCoverageError):
            assemble_vfm_system(mesh, part, np.zeros(part.n_free - 1), 0.0, 1.0)
        bad = np.zeros(part.n_free)
        bad[0] = np.nan
        with pytest.raises(DataCoverageError):
            assemble_vfm_system(mesh, part, bad, 0.0, 1.0)


def assemble_aao_matrices(mesh, part, kappa, p_check, sigma_r, m=None):
    """Row-reduced stiffness system K_fr u + Kbar_fr ubar = p_vec, assembled
    from scratch at kappa = (C11, C12).

    The oracle for ``AaoOperators``, which builds the same rows from the two
    coefficient blocks of the stiffness: the zero-load equilibrium rows plus
    the sqrt(sigma_r)-scaled resultant row.
    """
    if m is None:
        m = default_resultant_selector(mesh, part)
    C = kappa[0] * _C_BASIS[0] + kappa[1] * _C_BASIS[1]
    stiff = assemble_stiffness(mesh, part, C)
    zero = zero_force_rows(mesh, part)
    root = math.sqrt(sigma_r)
    K, Kbar, Kbarbar = (scipy_csr(b) for b in (stiff.K, stiff.Kbar, stiff.Kbarbar))
    K_fr = sp.vstack([K[zero], sp.csr_matrix(root * (m @ Kbar.T))]).tocsr()
    Kbar_fr = sp.vstack([Kbar[zero], sp.csr_matrix(root * (m @ Kbarbar))]).tocsr()
    p_vec = np.zeros(len(zero) + 1)
    p_vec[-1] = root * p_check
    return K_fr, Kbar_fr, p_vec


class TestAaoMatrices:
    def test_aao_operators_match_oracle(self, plate):
        mesh, part = plate
        ops = AaoOperators(mesh, part, -1500.0, sigma_r=1e4)
        K_fr, Kbar_fr, p_vec = assemble_aao_matrices(mesh, part, KAPPA_STEEL, -1500.0, 1e4)
        scale = np.abs(K_fr.data).max()
        assert_allclose(ops.k_fr(KAPPA_STEEL).toarray(), K_fr.toarray(),
                        rtol=0, atol=1e-12 * scale)
        kbar = sum(k * scipy_csr(block) for k, block in zip(KAPPA_STEEL, ops.Kbar_fr))
        assert_allclose(kbar.toarray(), Kbar_fr.toarray(), rtol=0, atol=1e-12 * scale)
        assert np.array_equal(ops.p_vec, p_vec)

    def test_exact_solution_residual(self, plate, plate_solution):
        mesh, part = plate
        _, _, ubar, u, p = plate_solution
        p_check = reaction_resultant(p, default_resultant_selector(mesh, part))
        K_fr, Kbar_fr, p_vec = assemble_aao_matrices(
            mesh, part, KAPPA_STEEL, p_check, 1e4
        )
        resid = K_fr @ u + Kbar_fr @ ubar - p_vec
        assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(p_vec)

    def test_linearity_in_kappa(self, plate):
        mesh, part = plate
        K_fr, Kbar_fr, _ = assemble_aao_matrices(mesh, part, np.zeros(2), 0.0, 1.0)
        assert K_fr.nnz == 0 or np.abs(K_fr.data).max() == 0.0
        assert Kbar_fr.nnz == 0 or np.abs(Kbar_fr.data).max() == 0.0

    def test_row_partition_sizes(self, plate):
        mesh, part = plate
        K_fr, _, p_vec = assemble_aao_matrices(mesh, part, KAPPA_STEEL, -1500.0, 1e4)
        n_zero = len(zero_force_rows(mesh, part))
        assert K_fr.shape == (n_zero + 1, part.n_free)
        assert p_vec.shape == (n_zero + 1,)
        assert np.all(p_vec[:-1] == 0.0)

    def test_consistency_with_vfm_matrix(self, plate, plate_solution):
        # A(u, ubar) kappa == K_fr(kappa) u + Kbar_fr(kappa) ubar
        mesh, part = plate
        _, _, ubar, u, p = plate_solution
        p_check = reaction_resultant(p, default_resultant_selector(mesh, part))
        system = assemble_vfm_system(mesh, part, u, p_check, 1e4)
        K_fr, Kbar_fr, _ = assemble_aao_matrices(mesh, part, KAPPA_STEEL, p_check, 1e4)
        assert_allclose(system.A @ KAPPA_STEEL, K_fr @ u + Kbar_fr @ ubar,
                        rtol=1e-9, atol=1e-9)


class TestMeshFile:
    def test_round_trip(self, tmp_path, plate):
        mesh, _ = plate
        path = tmp_path / "plate.mesh"
        write_mesh_file(path, mesh)
        loaded = read_mesh_file(path)
        assert_allclose(loaded.nodes, mesh.nodes, rtol=0, atol=0)
        assert np.array_equal(loaded.elements, mesh.elements)
        assert loaded.thickness == mesh.thickness
        assert loaded.dirichlet == mesh.dirichlet
        assert loaded.neumann == mesh.neumann

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("thickness 1.0\nnode 1 0 0\nwobble 3\n")
        with pytest.raises(ConfigError, match="wobble"):
            read_mesh_file(path)

    def test_non_contiguous_ids(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("thickness 1.0\nnode 1 0 0\nnode 3 1 0\n")
        with pytest.raises(ConfigError, match="contiguous"):
            read_mesh_file(path)

    @pytest.mark.parametrize("line, reason", [
        ("node 5 nan 0", "node 5 has a non-finite coordinate"),
        ("node 5 1 inf", "node 5 has a non-finite coordinate"),
        ("load 3 1 -inf", "not a finite number: '-inf'"),
        ("thickness 2.0", "repeated thickness line"),
        ("elem 1 1 2 3 4 5", "elem takes 5 fields, got 6"),
        ("elem 1 1 2 3", "elem takes 5 fields, got 4"),
        ("node 1 0 0", "repeated node id 1"),
    ])
    def test_bad_line_names_path_and_line(self, tmp_path, line, reason):
        path = tmp_path / "bad.mesh"
        path.write_text(f"thickness 1.0\nnode 1 0 0\nnode 2 1 0\nnode 3 1 1\n"
                        f"node 4 0 1\n{line}\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}:6: {reason}")):
            read_mesh_file(path)

    def test_element_node_beyond_int64(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("thickness 1.0\nnode 1 0 0\nnode 2 1 0\nnode 3 1 1\n"
                        "node 4 0 1\nelem 1 1 2 3 99999999999999999999\n")
        with pytest.raises(ConfigError, match="element node id is out of range"):
            read_mesh_file(path)

    def test_non_utf8_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_bytes(b"thickness 1.0\r\nnode 1 0 0\r\nnode 2 \xff 0\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}:3: not UTF-8 text (byte 0xff)")):
            read_mesh_file(path)


@pytest.fixture(scope="module")
def mesh_lines(tmp_path_factory):
    path = tmp_path_factory.mktemp("mesh") / "valid.mesh"
    write_mesh_file(path, uniaxial_patch_mesh(2, 2))
    return path, path.read_text().splitlines()


# Letters that cannot spell a keyword, nan, inf or infinity.
_NOT_A_NUMBER = st.text(alphabet="bgjkmpqrsuvwxz_?", min_size=1, max_size=6)


@st.composite
def _broken_mesh_line(draw, lines):
    kind = draw(st.sampled_from(("short", "extra", "text", "nonfinite")))
    if kind == "nonfinite":
        # The last field of every line but elem is a float.
        row = draw(st.sampled_from([i for i, l in enumerate(lines) if not l.startswith("elem")]))
    else:
        row = draw(st.integers(0, len(lines) - 1))
    fields = lines[row].split()
    if kind == "short":
        fields = fields[:-draw(st.integers(1, len(fields) - 1))]
    elif kind == "extra":
        fields += draw(st.lists(st.sampled_from(("1", "0.5", "x")), min_size=1, max_size=3))
    elif kind == "text":
        fields[draw(st.integers(0, len(fields) - 1))] = draw(_NOT_A_NUMBER)
    else:
        fields[-1] = draw(st.sampled_from(("nan", "inf", "-inf", "1e999", "NaN")))
    return row, " ".join(fields)


class TestMeshFileFuzz:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_broken_line_names_path_and_line(self, mesh_lines, data):
        path, lines = mesh_lines
        row, broken_line = data.draw(_broken_mesh_line(lines))
        broken = path.with_name("broken.mesh")
        broken.write_text("\n".join(lines[:row] + [broken_line] + lines[row + 1:]) + "\n")
        with pytest.raises(ConfigError, match=re.escape(f"{broken}:{row + 1}:")):
            read_mesh_file(broken)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_corrupted_bytes_parse_or_raise_typed(self, mesh_lines, data):
        path, lines = mesh_lines
        raw = ("\n".join(lines) + "\n").encode()
        at = data.draw(st.integers(0, len(raw)))
        cut = data.draw(st.integers(0, 8))
        junk = data.draw(st.binary(max_size=8))
        broken = path.with_name("corrupt.mesh")
        broken.write_bytes(raw[:at] + junk + raw[at + cut:])
        try:
            mesh = read_mesh_file(broken)
        except CalibrixError:
            return
        assert np.all(np.isfinite(mesh.nodes))

    @settings(max_examples=60, deadline=None)
    @given(raw=st.binary(max_size=120))
    def test_random_bytes_parse_or_raise_typed(self, mesh_lines, raw):
        path = mesh_lines[0].with_name("random.mesh")
        path.write_bytes(raw)
        try:
            read_mesh_file(path)
        except CalibrixError:
            pass


class TestGenerators:
    def test_quarter_plate_load_sums(self, plate):
        mesh, part = plate
        assert abs(applied_forces(mesh, part).sum() - 1500.0) < 1e-9

    def test_quarter_plate_corner_rule(self):
        with pytest.raises(GeometryError, match="corner"):
            quarter_plate_mesh(7, 5)

    def test_partition_coverage_violation(self):
        with pytest.raises(GeometryError):
            DofPartition(free=np.array([0, 1]), prescribed=np.array([1, 2]))

    def test_bc_overlap_rejected(self):
        with pytest.raises(GeometryError, match="both"):
            Mesh(nodes=UNIT_SQUARE, elements=[[0, 1, 2, 3]], thickness=1.0,
                 dirichlet=((0, 0, 0.0),), neumann=((0, 0, 1.0),))
