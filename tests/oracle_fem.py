"""Element-by-element references for the vectorised finite-element assembly.

``element_stiffness_from_coords`` integrates one Q4 element with its own
Jacobian solve per Gauss point; ``full_stiffness`` rebuilds the dense global
matrix from the partitioned blocks.
"""

import numpy as np

from calibrix.errors import GeometryError
from calibrix.mesh_fem import GAUSS_POINTS, GAUSS_WEIGHTS, Mesh, shape_gradients


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
    bottom = np.hstack([stiff.Kbar.T.toarray(), stiff.Kbarbar.toarray()])
    return np.vstack([top, bottom])
