"""Synthetic full-field observations.

Solves a high-fidelity forward problem, interpolates the displacement field
onto a coarse measurement grid, adds seeded Gaussian noise, and assembles the
weighted data vector.  All randomness goes through numpy's PCG64 generator so
data files regenerate bit-exactly for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import read_text_lines
from .errors import DataCoverageError, InterpolationError, WeightingError
from .materials import elasticity_matrix_plane_stress, ElasticParams
from .mesh_fem import (
    DofPartition,
    Mesh,
    applied_forces,
    assemble_stiffness,
    default_resultant_selector,
    prescribed_values,
    reaction_resultant,
    shape_functions,
    shape_gradients,
    solve_linear,
)

CSV_HEADER = "exp,step,point,x,y,comp,value,weight"


@dataclass(frozen=True, eq=False)
class ObservationBlock:
    """One contiguous block of the data vector (single experiment/step/field)."""

    experiment: int
    step: int
    comp: str  # "u1", "u2" (mm) or "F1", "F2" (N)
    points: np.ndarray  # measurement point ids (-1 for resultants)
    xy: np.ndarray  # (k, 2) measurement coordinates
    weight: float  # block weight; the W entries are 1 / weight
    sigma: float  # noise standard deviation of this block
    start: int
    stop: int

    @property
    def size(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True, eq=False)
class ObservationSet:
    """Stacked measurement vector with diagonal weighting and layout."""

    d: np.ndarray
    W: np.ndarray  # diagonal entries of the weighting matrix
    blocks: tuple

    def __post_init__(self):
        if self.d.shape != self.W.shape:
            raise DataCoverageError("data and weight vectors must have equal length")
        if np.any(self.W <= 0.0):
            raise WeightingError("weighting matrix entries must be positive")
        total = sum(b.size for b in self.blocks)
        if total != self.d.size:
            raise DataCoverageError(
                f"layout covers {total} entries but data vector has {self.d.size}"
            )

    @property
    def n_data(self) -> int:
        return self.d.size

    def block(self, comp: str, experiment: int = 1, step: int = 1) -> ObservationBlock:
        for b in self.blocks:
            if b.comp == comp and b.experiment == experiment and b.step == step:
                return b
        raise DataCoverageError(f"no block comp={comp} exp={experiment} step={step}")

    def values(self, comp: str, experiment: int = 1, step: int = 1) -> np.ndarray:
        b = self.block(comp, experiment, step)
        return self.d[b.start:b.stop]

    def select(self, comps) -> tuple[np.ndarray, np.ndarray, tuple]:
        """Sub-vector (values, weights, blocks) for the given components."""
        keep = [b for b in self.blocks if b.comp in comps]
        idx = np.concatenate([np.arange(b.start, b.stop) for b in keep])
        return self.d[idx], self.W[idx], tuple(keep)


def assemble_data_vector(blocks) -> tuple[np.ndarray, np.ndarray]:
    """Stack (values, weight) pairs; the W entries are 1 / block weight."""
    if not blocks:
        raise DataCoverageError("at least one data block is required")
    values = []
    weights = []
    for vals, weight in blocks:
        vals = np.asarray(vals, dtype=float).ravel()
        if weight <= 0.0:
            raise WeightingError(f"block weight must be positive, got {weight}")
        values.append(vals)
        weights.append(np.full(vals.size, 1.0 / weight))
    return np.concatenate(values), np.concatenate(weights)


# ---------------------------------------------------------------------------
# Bilinear interpolation on the fine mesh
# ---------------------------------------------------------------------------


class _ElementLocator:
    """Uniform-grid bucket index over element bounding boxes.

    Bucket c = i * n + j lists, in ascending order, the elements whose box
    overlaps grid cell (i, j).  An element ``locate`` may return maps some
    |xi|, |eta| <= 1 + 1e-6 to within tol * (1 + |p|) of the point p, so p
    lies within about 1e-6 of the box's larger side plus that tolerance of
    the box.  ``locate`` tries only the candidates whose box, grown by 1e-3
    of its larger side plus the tolerance, holds p: the filter drops no
    element that could be returned and so never changes the result.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        coords = mesh.nodes[mesh.elements]  # (n_el, 4, 2)
        self.lo = coords.min(axis=(0, 1))
        self.hi = coords.max(axis=(0, 1))
        self.n = n = max(1, int(math.sqrt(mesh.n_elements / 2.0)))
        self.cell = (self.hi - self.lo) / np.array((n, n))
        self.cell[self.cell == 0.0] = 1.0
        el_lo = coords.min(axis=1)
        el_hi = coords.max(axis=1)
        first = self._cell_of(el_lo)
        span = self._cell_of(el_hi) - first + 1
        counts = span[:, 0] * span[:, 1]
        owner = np.repeat(np.arange(mesh.n_elements), counts)
        k = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        width = span[owner, 1]
        cells = (first[owner, 0] + k // width) * n + first[owner, 1] + k % width
        self.candidates = owner[np.argsort(cells, kind="stable")]
        self.start = np.concatenate([[0], np.cumsum(np.bincount(cells, minlength=n * n))])
        grow = 1e-3 * (el_hi - el_lo).max(axis=1, keepdims=True)
        self.box_lo = el_lo - grow
        self.box_hi = el_hi + grow

    def _cell_of(self, p):
        """Grid (i, j) of a point, or of each row of an array of points."""
        ij = np.floor((p - self.lo) / self.cell).astype(int)
        return np.clip(ij, 0, self.n - 1)

    def locate(self, p, tol=1e-10) -> tuple[int, float, float]:
        i, j = self._cell_of(p)
        c = i * self.n + j
        candidates = self.candidates[self.start[c]:self.start[c + 1]]
        slack = tol * (1.0 + np.linalg.norm(p))
        near = np.all((self.box_lo[candidates] - slack <= p)
                      & (p <= self.box_hi[candidates] + slack), axis=1)
        best = None
        for e in candidates[near]:
            coords = self.mesh.nodes[self.mesh.elements[e]]
            ref = _inverse_map(coords, p, tol)
            if ref is None:
                continue
            margin = max(abs(ref[0]), abs(ref[1]))
            if margin <= 1.0 + 1e-8:
                return e, ref[0], ref[1]
            if best is None or margin < best[0]:
                best = (margin, e, ref)
        # Tolerate slight excursions for points on faceted curved boundaries.
        if best is not None and best[0] <= 1.0 + 1e-6:
            return best[1], best[2][0], best[2][1]
        raise InterpolationError(f"point ({p[0]}, {p[1]}) is outside the mesh")


def _inverse_map(coords, p, tol):
    xi = np.zeros(2)
    for _ in range(30):
        N = shape_functions(xi[0], xi[1])
        r = N @ coords - p
        if np.linalg.norm(r) <= tol * (1.0 + np.linalg.norm(p)):
            return xi
        J = shape_gradients(xi[0], xi[1]) @ coords  # rows d/dxi, d/deta
        try:
            xi = xi - np.linalg.solve(J.T, r)
        except np.linalg.LinAlgError:
            return None
        if np.abs(xi).max() > 3.0:
            return None
    return None


def interpolate_bilinear(mesh: Mesh, u_full: np.ndarray, points) -> np.ndarray:
    """Displacements at query points from the nodal field (both components).

    u_full has length 2 * n_nodes (global dof ordering); the inverse
    isoparametric map is solved per point to tolerance 1e-10.
    """
    u_full = np.asarray(u_full, dtype=float)
    if u_full.shape != (mesh.n_dofs,):
        raise DataCoverageError(
            f"nodal field has {u_full.shape} entries, expected ({mesh.n_dofs},)"
        )
    points = np.atleast_2d(np.asarray(points, dtype=float))
    locator = _ElementLocator(mesh)
    out = np.empty((len(points), 2))
    ux = u_full[0::2]
    uy = u_full[1::2]
    for i, p in enumerate(points):
        e, xi, eta = locator.locate(p)
        N = shape_functions(xi, eta)
        nodes = mesh.elements[e]
        out[i, 0] = N @ ux[nodes]
        out[i, 1] = N @ uy[nodes]
    return out


# ---------------------------------------------------------------------------
# Plate data generation
# ---------------------------------------------------------------------------


def solve_elastic_plate(mesh: Mesh, E: float, nu: float):
    """Forward solve; returns (part, u_full, reactions, resultant)."""
    part = DofPartition.from_mesh(mesh)
    C = elasticity_matrix_plane_stress(ElasticParams(E=E, nu=nu))
    stiff = assemble_stiffness(mesh, part, C)
    pbar = applied_forces(mesh, part)
    ubar = prescribed_values(mesh, part)
    u, p = solve_linear(stiff, pbar, ubar)
    m = default_resultant_selector(mesh, part)
    return part, part.merge(u, ubar), p, reaction_resultant(p, m)


def generate_plate_data(
    fine_mesh: Mesh,
    coarse_mesh: Mesh,
    kappa_true,
    sigma: float,
    seed: int,
) -> ObservationSet:
    """Synthetic DIC-like observations for the plate benchmark.

    Solves the fine mesh at (E, nu) = kappa_true under the load of its own
    load lines, interpolates both displacement components onto the
    coarse-mesh nodes, and adds independent N(0, sigma^2) noise to every
    displacement entry.  The measured force resultant (load-cell reading) is
    appended noise-free.  Deterministic for fixed seed.
    """
    E, nu = kappa_true
    _, u_full, _, resultant = solve_elastic_plate(fine_mesh, E, nu)
    disp = interpolate_bilinear(fine_mesh, u_full, coarse_mesh.nodes)
    rng = np.random.default_rng(seed)
    if sigma > 0.0:
        disp = disp + rng.normal(0.0, sigma, size=disp.shape)
    w1 = float(np.abs(disp[:, 0]).max())
    w2 = float(np.abs(disp[:, 1]).max())
    n = coarse_mesh.n_nodes
    points = np.arange(n)
    blocks = []
    cursor = 0
    for comp, col, w in (("u1", 0, w1), ("u2", 1, w2)):
        blocks.append(
            ObservationBlock(
                experiment=1, step=1, comp=comp, points=points,
                xy=coarse_mesh.nodes, weight=w, sigma=sigma,
                start=cursor, stop=cursor + n,
            )
        )
        cursor += n
    blocks.append(
        ObservationBlock(
            experiment=1, step=1, comp="F1", points=np.array([-1]),
            xy=np.zeros((1, 2)), weight=1.0, sigma=0.0,
            start=cursor, stop=cursor + 1,
        )
    )
    d, W = assemble_data_vector(
        [(disp[:, 0], w1), (disp[:, 1], w2), ([resultant], 1.0)]
    )
    return ObservationSet(d=d, W=W, blocks=tuple(blocks))


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def write_observation_csv(path, data: ObservationSet) -> None:
    """One row per scalar observation; column order is part of the format."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for b in data.blocks:
            for i in range(b.size):
                point = int(b.points[i]) + 1 if b.points[i] >= 0 else 0
                x, y = b.xy[i]
                fh.write(
                    f"{b.experiment},{b.step},{point},{float(x)!r},{float(y)!r},"
                    f"{b.comp},{float(data.d[b.start + i])!r},"
                    f"{float(data.W[b.start + i])!r}\n"
                )


def read_observation_csv(path) -> ObservationSet:
    """Read a file written by ``write_observation_csv``.

    A row with the wrong number of fields, a field that does not parse as its
    number type, a non-positive weight, or bytes that are not UTF-8 raise
    DataCoverageError naming ``path:line``.
    """
    rows = []
    n_fields = len(CSV_HEADER.split(","))
    lines = read_text_lines(path, DataCoverageError)
    header = next(lines, "").strip()
    if header != CSV_HEADER:
        raise DataCoverageError(f"{path}: unexpected header {header!r}")
    for lineno, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != n_fields:
            raise DataCoverageError(
                f"{path}:{lineno}: expected {n_fields} fields, got {len(fields)}"
            )
        exp, step, point, x, y, comp, value, weight = fields
        try:
            row = (int(exp), int(step), comp, int(point) - 1,
                   float(x), float(y), float(value), float(weight))
        except ValueError as exc:
            raise DataCoverageError(f"{path}:{lineno}: {exc}") from None
        if not row[7] > 0.0:
            raise DataCoverageError(f"{path}:{lineno}: weight must be positive")
        rows.append(row)
    if not rows:
        raise DataCoverageError(f"{path}: no observations")
    d = np.array([r[6] for r in rows])
    W = np.array([r[7] for r in rows])
    blocks = []
    start = 0
    for i in range(1, len(rows) + 1):
        if i == len(rows) or rows[i][:3] != rows[start][:3]:
            group = rows[start:i]
            blocks.append(
                ObservationBlock(
                    experiment=group[0][0],
                    step=group[0][1],
                    comp=group[0][2],
                    points=np.array([g[3] for g in group]),
                    xy=np.array([[g[4], g[5]] for g in group]),
                    weight=1.0 / group[0][7],
                    sigma=0.0,
                    start=start,
                    stop=i,
                )
            )
            start = i
    return ObservationSet(d=d, W=W, blocks=tuple(blocks))
