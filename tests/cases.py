"""Test geometries: structured rectangles, the uniaxial patch test, and
plate-with-a-hole cases (an identification mesh, a finer data-generation mesh
beside it, and synthetic observations generated on either)."""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from calibrix.benchmarks import PlateCase
from calibrix.mesh_fem import (
    DofPartition,
    Mesh,
    StiffnessDecomposition,
    _Csr,
    applied_forces,
    prescribed_values,
)
from calibrix.meshes import _edge_loads, quarter_plate_mesh
from calibrix.synthetic_data import ObservationSet, generate_plate_data

E_TRUE = 210000.0
NU_TRUE = 0.3
LOAD = 1500.0


def rectangle_mesh(
    nx: int,
    ny: int,
    lx: float,
    ly: float,
    thickness: float = 1.0,
    distort: float = 0.0,
    seed: int = 0,
    dirichlet=(),
    neumann=(),
) -> Mesh:
    """Structured rectangle on [0, lx] x [0, ly].

    ``distort`` jitters interior nodes by up to that fraction of half the
    local spacing (boundary nodes stay put), for mesh-robustness tests.
    """
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    X, Y = np.meshgrid(xs, ys)
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    if distort > 0.0:
        rng = np.random.default_rng(seed)
        interior = np.ones(len(nodes), dtype=bool)
        grid_i = np.tile(np.arange(nx + 1), ny + 1)
        grid_j = np.repeat(np.arange(ny + 1), nx + 1)
        interior &= (grid_i > 0) & (grid_i < nx) & (grid_j > 0) & (grid_j < ny)
        h = 0.5 * distort * np.array([lx / nx, ly / ny])
        nodes[interior] += rng.uniform(-1.0, 1.0, (interior.sum(), 2)) * h

    def nid(i, j):
        return j * (nx + 1) + i

    elements = np.array(
        [
            [nid(i, j), nid(i + 1, j), nid(i + 1, j + 1), nid(i, j + 1)]
            for j in range(ny)
            for i in range(nx)
        ],
        dtype=np.int64,
    )
    return Mesh(nodes=nodes, elements=elements, thickness=thickness,
                dirichlet=dirichlet, neumann=neumann)


def uniaxial_patch_mesh(
    nx: int,
    ny: int,
    lx: float = 2.0,
    ly: float = 1.0,
    thickness: float = 1.0,
    traction: float = 100.0,
    distort: float = 0.0,
    seed: int = 0,
) -> Mesh:
    """Rectangle under uniform axial traction with roller supports.

    Left edge u1 = 0, bottom edge u2 = 0, uniform traction (N/mm^2) on the
    right edge.  The exact solution is a constant-strain state.
    """

    def nid(i, j):
        return j * (nx + 1) + i

    dirichlet = [(nid(0, j), 0, 0.0) for j in range(ny + 1)]
    dirichlet += [(nid(i, 0), 1, 0.0) for i in range(nx + 1)]
    right = [nid(nx, j) for j in range(ny + 1)]
    ys = np.linspace(0.0, ly, ny + 1)
    neumann = _edge_loads(ys, right, 0, traction * ly * thickness)
    return rectangle_mesh(nx, ny, lx, ly, thickness, distort=distort, seed=seed,
                          dirichlet=tuple(dirichlet), neumann=neumann)


def scipy_csr(M: _Csr) -> sp.csr_matrix:
    """A calibrix CSR matrix as scipy's, on the same arrays."""
    return sp.csr_matrix((M.data, M.indices, M.indptr), shape=M.shape)


def calibrix_csr(S) -> _Csr:
    """A scipy sparse matrix as calibrix's CSR class, to pass to library code."""
    S = sp.csr_matrix(S)
    S.sum_duplicates()
    return _Csr(S.data, S.indices.astype(np.int64), S.indptr.astype(np.int64), S.shape)


def general_lu(M, order=None, border=0):
    """SuperLU at its defaults: COLAMD column order and partial pivoting,
    blind to symmetry.  The oracle for calibrix's Cholesky factors; it takes
    ``_factor``'s arguments and ignores the elimination order."""
    return spla.splu(scipy_csr(M).tocsc())


def symmetric_lu(M, order=None, border=0):
    """SuperLU in symmetric mode, with a minimum-degree order of M + M^T and
    diagonal pivots: calibrix's factorization before its band Cholesky, kept
    as the oracle of that path."""
    return spla.splu(scipy_csr(M).tocsc(), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0, options={"SymmetricMode": True})


@dataclass(eq=False)
class FinePlateCase(PlateCase):
    """A PlateCase together with its data-generation mesh."""

    fine: Mesh


def make_plate_case(
    n_c: int = 12,
    n_r: int = 10,
    fine_factor: int = 2,
    radius: float = 3.0,
    width: float = 10.0,
    height: float = 10.0,
    thickness: float = 1.0,
    load: float = LOAD,
    grading: float = 1.5,
    fine_grading: float = 1.3,
) -> FinePlateCase:
    """Identification mesh plus a finer, non-nested data-generation mesh.

    The fine mesh refines the circumferential direction by ``fine_factor``
    and uses a different radial grading, so interior measurement nodes are
    genuinely interpolated (boundary nodes coincide by construction).
    """
    coarse = quarter_plate_mesh(n_c, n_r, radius, width, height, thickness, load, grading)
    fine = quarter_plate_mesh(
        fine_factor * n_c, fine_factor * n_r + 3, radius, width, height,
        thickness, load, fine_grading,
    )
    part = DofPartition.from_mesh(coarse)
    decomp = StiffnessDecomposition.from_mesh(coarse, part)
    return FinePlateCase(
        coarse=coarse,
        part=part,
        decomp=decomp,
        pbar=applied_forces(coarse, part),
        ubar=prescribed_values(coarse, part),
        fine=fine,
    )


def plate_observations(case: FinePlateCase, sigma: float, seed: int,
                       E: float = E_TRUE, nu: float = NU_TRUE,
                       matched: bool = False) -> ObservationSet:
    """Synthetic observations; ``matched`` solves on the identification mesh."""
    source = case.coarse if matched else case.fine
    return generate_plate_data(source, case.coarse, (E, nu), sigma, seed)
