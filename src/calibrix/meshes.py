"""Structured mesh of the built-in plate benchmark: a quarter plate with a hole."""

from __future__ import annotations

import math

import numpy as np

from .errors import GeometryError
from .mesh_fem import Mesh


def _edge_loads(positions: np.ndarray, node_ids, comp: int, total: float):
    """Trapezoidal equivalent nodal forces for a uniform edge traction.

    positions are arc-length coordinates along the edge (ascending); end
    nodes receive half the weight of their single adjacent segment.
    """
    seg = np.diff(positions)
    weights = np.zeros(len(positions))
    weights[:-1] += 0.5 * seg
    weights[1:] += 0.5 * seg
    forces = total * weights / (positions[-1] - positions[0])
    return tuple((int(n), comp, float(f)) for n, f in zip(node_ids, forces))


def quarter_plate_mesh(
    n_c: int,
    n_r: int,
    radius: float = 3.0,
    width: float = 10.0,
    height: float = 10.0,
    thickness: float = 1.0,
    load: float = 1500.0,
    grading: float = 1.5,
) -> Mesh:
    """Quarter of a plate with a central hole, loaded in tension.

    The quarter occupies [0, width] x [0, height] minus the hole quadrant at
    the origin.  Symmetry edges carry zero normal displacement (u1 = 0 on
    x = 0, u2 = 0 on y = 0); the edge x = width carries equivalent nodal
    forces for a uniform tension with resultant ``load``.

    The mesh maps an (n_c x n_r) grid between the hole arc and the outer
    right+top boundary; ``grading`` > 1 concentrates the radial node spacing
    near the hole.  n_c must place the outer corner on a grid line.
    """
    if radius >= min(width, height):
        raise GeometryError("hole radius must be smaller than the plate")
    corner = n_c * height / (height + width)
    if abs(corner - round(corner)) > 1e-9:
        raise GeometryError(
            f"n_c={n_c} does not place the outer corner on a grid line "
            f"(need n_c * height/(height+width) integral)"
        )
    s = np.linspace(0.0, 1.0, n_c + 1)
    phi = 0.5 * math.pi * s
    arc = radius * np.column_stack([np.cos(phi), np.sin(phi)])
    ell = s * (height + width)
    outer = np.where(
        (ell <= height)[:, None],
        np.column_stack([np.full_like(ell, width), ell]),
        np.column_stack([width - (ell - height), np.full_like(ell, height)]),
    )
    t = (np.arange(n_r + 1) / n_r) ** grading
    nodes = (1.0 - t[None, :, None]) * arc[:, None, :] + t[None, :, None] * outer[:, None, :]
    nodes = nodes.transpose(1, 0, 2).reshape(-1, 2)  # index = j * (n_c + 1) + i

    def nid(i, j):
        return j * (n_c + 1) + i

    elements = np.array(
        [
            [nid(i, j), nid(i, j + 1), nid(i + 1, j + 1), nid(i + 1, j)]
            for j in range(n_r)
            for i in range(n_c)
        ],
        dtype=np.int64,
    )

    dirichlet = [(nid(0, j), 1, 0.0) for j in range(n_r + 1)]        # y = 0: u2 = 0
    dirichlet += [(nid(n_c, j), 0, 0.0) for j in range(n_r + 1)]     # x = 0: u1 = 0
    i_corner = int(round(corner))
    right = [nid(i, n_r) for i in range(i_corner + 1)]               # x = width edge
    ys = ell[: i_corner + 1]
    neumann = _edge_loads(ys, right, 0, load)
    return Mesh(nodes=nodes, elements=elements, thickness=thickness,
                dirichlet=tuple(dirichlet), neumann=tuple(neumann))
