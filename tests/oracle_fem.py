"""Independent references for the vectorised finite-element assembly.

``element_stiffness_from_coords`` integrates one Q4 element with its own
Jacobian solve per Gauss point; ``full_stiffness`` rebuilds the dense global
matrix from the partitioned blocks; ``parameter_matrices_from_strains``
builds the equilibrium map A_S from Gauss-point strains and a coefficient map
written out by hand, not from element stiffness matrices.
"""

import numpy as np

from calibrix.errors import GeometryError
from calibrix.mesh_fem import (
    GAUSS_POINTS,
    GAUSS_WEIGHTS,
    DofPartition,
    Mesh,
    _element_gauss_data,
    shape_gradients,
)


def element_stiffness_from_coords(coords, C, thickness, label="element") -> np.ndarray:
    """8x8 stiffness of a single Q4 element from its node coordinates."""
    coords = np.asarray(coords, dtype=float)
    k = np.zeros((8, 8))
    for g, (xi, eta) in enumerate(GAUSS_POINTS):
        dN = shape_gradients(xi, eta)
        J = dN @ coords
        det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
        if det <= 0.0:
            raise GeometryError(
                f"{label} is degenerate (det J = {det:.3e} at Gauss point {g})"
            )
        dNx = np.linalg.solve(J, dN)
        B = np.zeros((3, 8))
        B[0, 0::2] = dNx[0]
        B[1, 1::2] = dNx[1]
        B[2, 0::2] = dNx[1]
        B[2, 1::2] = dNx[0]
        k += GAUSS_WEIGHTS[g] * det * thickness * (B.T @ C @ B)
    return k


def element_stiffness(mesh: Mesh, e: int, C: np.ndarray) -> np.ndarray:
    """8x8 stiffness of mesh element ``e`` for elasticity matrix ``C``."""
    return element_stiffness_from_coords(
        mesh.nodes[mesh.elements[e]], C, mesh.thickness, label=f"element {e}"
    )


def full_stiffness(stiff) -> np.ndarray:
    """Dense [[K, Kbar], [Kbar^T, Kbarbar]] of a PartitionedStiffness."""
    top = np.hstack([stiff.K.toarray(), stiff.Kbar.toarray()])
    bottom = np.hstack([stiff.Kbar.toarray().T, stiff.Kbarbar.toarray()])
    return np.vstack([top, bottom])


def parameter_matrices_from_strains(mesh: Mesh, part: DofPartition, u, ubar):
    """A_S (n_u x 2) and Abar_S (n_p x 2) from the Gauss-point strains.

    C(kappa) strain = kappa_1 (e11, e22, g/2) + kappa_2 (e22, e11, -g/2), so
    column j integrates B^T times the j-th of these vectors over each element
    and sums the results into the global dofs.
    """
    full = part.merge(np.asarray(u, dtype=float), np.asarray(ubar, dtype=float))
    B, w = _element_gauss_data(mesh)
    dofs = np.empty((mesh.n_elements, 8), dtype=np.int64)
    dofs[:, 0::2] = 2 * mesh.elements
    dofs[:, 1::2] = 2 * mesh.elements + 1
    strain = np.einsum("egai,ei->ega", B, full[dofs])  # (n_el, n_gp, 3)
    es = np.empty(strain.shape[:2] + (3, 2))
    es[..., 0, 0] = strain[..., 0]
    es[..., 1, 0] = strain[..., 1]
    es[..., 2, 0] = 0.5 * strain[..., 2]
    es[..., 0, 1] = strain[..., 1]
    es[..., 1, 1] = strain[..., 0]
    es[..., 2, 1] = -0.5 * strain[..., 2]
    contrib = np.einsum("egai,egak,eg->eik", B, es, w, optimize=True)  # (n_el, 8, 2)
    a_full = np.zeros((mesh.n_dofs, 2))
    np.add.at(a_full, dofs.ravel(), contrib.reshape(-1, 2))
    return a_full[part.free], a_full[part.prescribed]
