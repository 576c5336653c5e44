"""Plane-stress Q4 finite element core.

Element stiffness with 2x2 Gauss quadrature, assembly of the partitioned
stiffness blocks (free/prescribed degrees of freedom), direct linear solves
with reaction-force recovery, and the matrices that express the discrete
equilibrium as a linear map in the elasticity coefficients (C11, C12).

Degrees of freedom are numbered ``2 * node + component``.  Everything runs on
numpy alone: the sparse blocks are the small ``_Csr`` class below, and every
matrix calibrix factors is symmetric positive definite, so ``_factor`` is a
block-band Cholesky in an elimination order computed from the mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import read_text_lines
from .errors import ConfigError, DataCoverageError, GeometryError, SolverError

# Reference-square node coordinates (counter-clockwise) and 2x2 Gauss points.
_XI_N = np.array([-1.0, 1.0, 1.0, -1.0])
_ETA_N = np.array([-1.0, -1.0, 1.0, 1.0])
_G = 1.0 / math.sqrt(3.0)
GAUSS_POINTS = np.array([[-_G, -_G], [_G, -_G], [_G, _G], [-_G, _G]])
GAUSS_WEIGHTS = np.ones(4)

# Basis matrices of the plane-stress elasticity matrix in the coefficients
# kappa = (C11, C12):  C(kappa) = C11 * _C_BASIS[0] + C12 * _C_BASIS[1].
_C_BASIS = (
    np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.5]]),
    np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -0.5]]),
)


def shape_functions(xi: float, eta: float) -> np.ndarray:
    return 0.25 * (1.0 + xi * _XI_N) * (1.0 + eta * _ETA_N)


def shape_gradients(xi: float, eta: float) -> np.ndarray:
    """Derivatives w.r.t. the reference coordinates, shape (2, 4)."""
    return np.vstack(
        [
            0.25 * _XI_N * (1.0 + eta * _ETA_N),
            0.25 * _ETA_N * (1.0 + xi * _XI_N),
        ]
    )


@dataclass(frozen=True, eq=False)
class Mesh:
    """2D quadrilateral mesh with boundary conditions.

    nodes      (n_nodes, 2) coordinates in mm
    elements   (n_el, 4) node indices, counter-clockwise
    thickness  plane-stress thickness in mm
    dirichlet  tuple of (node, component, prescribed value in mm)
    neumann    tuple of (node, component, equivalent nodal force in N)
    """

    nodes: np.ndarray
    elements: np.ndarray
    thickness: float
    dirichlet: tuple = ()
    neumann: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "elements", np.asarray(self.elements, dtype=np.int64))
        object.__setattr__(self, "dirichlet", tuple(tuple(e) for e in self.dirichlet))
        object.__setattr__(self, "neumann", tuple(tuple(e) for e in self.neumann))
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 2:
            raise GeometryError("nodes must be an (n, 2) array")
        if self.elements.ndim != 2 or self.elements.shape[1] != 4:
            raise GeometryError("elements must be an (n, 4) array")
        if self.elements.min(initial=0) < 0 or self.elements.max(initial=-1) >= len(self.nodes):
            raise GeometryError("element references a node index out of range")
        if not self.thickness > 0.0:
            raise GeometryError(f"thickness must be positive, got {self.thickness}")
        det = _jacobian_determinants(self.nodes, self.elements)
        bad = np.argwhere(np.any(det <= 0.0, axis=1))
        if bad.size:
            e = int(bad[0, 0])
            raise GeometryError(
                f"element {e} is degenerate (det J = {det[e].min():.3e} at a Gauss point)"
            )
        seen = {}
        for kind, entries in (("fix", self.dirichlet), ("load", self.neumann)):
            for node, comp, _ in entries:
                if not (0 <= node < len(self.nodes)) or comp not in (0, 1):
                    raise GeometryError(f"invalid {kind} entry at node {node}, component {comp}")
                key = (node, comp)
                if key in seen:
                    raise GeometryError(
                        f"(node {node}, component {comp}) appears in both "
                        f"{seen[key]} and {kind} entries"
                    )
                seen[key] = kind

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_dofs(self) -> int:
        return 2 * len(self.nodes)

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    @cached_property
    def _element_dofs(self) -> np.ndarray:
        """Global dofs of each element, (n_el, 8), two per node in node order."""
        dofs = np.empty((self.n_elements, 8), dtype=np.int64)
        dofs[:, 0::2] = 2 * self.elements
        dofs[:, 1::2] = 2 * self.elements + 1
        return dofs

    @cached_property
    def _basis_stiffness(self) -> tuple:
        """Element stiffness matrices (n_el, 8, 8), one stack per ``_C_BASIS``
        matrix, computed on first use."""
        return _element_stiffness(self, *_C_BASIS)

    @cached_property
    def _pattern(self) -> tuple:
        """The global stiffness pattern, computed on first use.

        Returns (indices, indptr, positions, node_ptr, node_adj): the sorted
        CSR columns and row pointers of every dof pair of nodes that share an
        element; the data position of each element matrix entry, (n_el, 8, 8);
        and the node graph in CSR form, each node's row holding itself.
        """
        n, e = self.n_nodes, self.elements
        keys = (np.repeat(e, 4, axis=1) * n + np.tile(e, (1, 4))).ravel()
        pairs, pair_of = np.unique(keys, return_inverse=True)
        node_adj = pairs % n
        node_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(pairs // n, minlength=n), out=node_ptr[1:])
        deg = np.diff(node_ptr)
        # Dof row 2a + c holds the pairs of node a in order, two columns each,
        # so entry (2a + c, 2b + d) of pair k sits at 2 ptr[a] + 2 k + 2 c deg[a] + d.
        a = np.repeat(np.arange(n), deg)
        k = np.arange(pairs.size)
        comp = np.arange(2)
        pos = ((2 * (node_ptr[a] + k))[:, None, None]
               + comp[:, None] * 2 * deg[a][:, None, None] + comp)
        indices = np.empty(4 * pairs.size, dtype=np.int64)
        indices[pos] = 2 * node_adj[:, None, None] + comp
        indptr = np.empty(2 * n + 1, dtype=np.int64)
        indptr[0::2] = 4 * node_ptr
        indptr[1::2] = 4 * node_ptr[:-1] + 2 * deg
        pair_of = pair_of.reshape(-1, 4, 1, 4, 1)
        ea = e[:, :, None, None, None]
        positions = (2 * (node_ptr[ea] + pair_of) + comp[:, None, None] * 2 * deg[ea]
                     + comp).reshape(-1, 8, 8)
        return indices, indptr, positions, node_ptr, node_adj

    @cached_property
    def _node_order(self) -> np.ndarray:
        """Node elimination order: the mesh's own node order or a reverse
        Cuthill-McKee order, whichever has the smaller semi-bandwidth.  The
        reverse Cuthill-McKee order takes the connected components of the
        node graph one after another, and the nodes no element uses last.

        The Cuthill-McKee sweep starts from the far level set of a breadth-first
        search from a node of least degree, not from one node: on a structured
        grid the levels are then grid lines, not L-shaped fronts (Cuthill &
        McKee 1969; George & Liu, Computer Solution of Large Sparse Positive
        Definite Systems, 1981, 4.3).
        """
        *_, ptr, adj = self._pattern
        deg = np.diff(ptr)
        left = deg > 0  # nodes no element uses have no row and go last
        parts = []
        while left.any():  # one connected component at a time
            start = np.flatnonzero(left)[np.argmin(deg[left])]
            far = _level_sets(ptr, adj, deg, np.array([start]))[-1]
            part = np.concatenate(_level_sets(ptr, adj, deg, far))
            left[part] = False
            parts.append(part[::-1])
        rcm = np.concatenate(parts + [np.flatnonzero(deg == 0)])
        natural = np.arange(self.n_nodes)
        return min((natural, rcm), key=lambda order: _node_bandwidth(self.elements, order))


def _level_sets(ptr, adj, deg, roots) -> list:
    """Breadth-first level sets of the graph (ptr, adj) from the node array
    roots.  Each level lists its nodes by the position of their first
    neighbour in the level before, then by degree, as Cuthill-McKee does."""
    rank = np.full(len(deg), -1, dtype=np.int64)
    rank[roots] = np.arange(roots.size)
    levels = [roots]
    while True:
        front = levels[-1]
        lens = ptr[front + 1] - ptr[front]
        first = np.repeat(ptr[front] - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())
        nbr, parent = adj[first], np.repeat(front, lens)
        new = rank[nbr] < 0
        nbr, parent = nbr[new], parent[new]
        if nbr.size == 0:
            return levels
        nbr = nbr[np.lexsort((nbr, deg[nbr], rank[parent]))]
        _, at = np.unique(nbr, return_index=True)
        level = nbr[np.sort(at)]
        rank[level] = rank[front].max() + 1 + np.arange(level.size)
        levels.append(level)


def _node_bandwidth(elements, order) -> int:
    """Largest distance in ``order`` between two nodes of one element."""
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    ranks = rank[elements]
    return int((ranks.max(axis=1) - ranks.min(axis=1)).max(initial=0))


def _jacobian_determinants(nodes, elements) -> np.ndarray:
    coords = nodes[elements]  # (n_el, 4, 2)
    det = np.empty((len(elements), len(GAUSS_POINTS)))
    for g, (xi, eta) in enumerate(GAUSS_POINTS):
        dN = shape_gradients(xi, eta)  # (2, 4)
        J = np.einsum("an,enk->eak", dN, coords)
        det[:, g] = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    return det


@dataclass(frozen=True, eq=False)
class DofPartition:
    """Free/prescribed split of the global degrees of freedom."""

    free: np.ndarray
    prescribed: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "free", np.asarray(self.free, dtype=np.int64))
        object.__setattr__(self, "prescribed", np.asarray(self.prescribed, dtype=np.int64))
        n = self.free.size + self.prescribed.size
        cover = np.zeros(n, dtype=int)
        cover[self.free] += 1
        cover[self.prescribed] += 1
        if not np.all(cover == 1):
            raise GeometryError("free and prescribed dofs must partition all dofs exactly once")
        pos = np.empty(n, dtype=np.int64)
        pos[self.free] = np.arange(self.free.size)
        pos[self.prescribed] = np.arange(self.prescribed.size)
        object.__setattr__(self, "_position", pos)
        mask = np.zeros(n, dtype=bool)
        mask[self.free] = True
        object.__setattr__(self, "_is_free", mask)

    @classmethod
    def from_mesh(cls, mesh: Mesh) -> "DofPartition":
        pres = np.array(sorted(2 * n + c for n, c, _ in mesh.dirichlet), dtype=np.int64)
        mask = np.ones(mesh.n_dofs, dtype=bool)
        mask[pres] = False
        return cls(free=np.flatnonzero(mask), prescribed=pres)

    @property
    def n_free(self) -> int:
        return self.free.size

    @property
    def n_prescribed(self) -> int:
        return self.prescribed.size

    def split(self, full: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        full = np.asarray(full)
        return full[self.free], full[self.prescribed]

    def merge(self, u: np.ndarray, ubar: np.ndarray) -> np.ndarray:
        full = np.empty(self.free.size + self.prescribed.size)
        full[self.free] = u
        full[self.prescribed] = ubar
        return full


def prescribed_values(mesh: Mesh, part: DofPartition) -> np.ndarray:
    """Prescribed displacement vector, ordered like ``part.prescribed``."""
    ubar = np.zeros(part.n_prescribed)
    pos = part._position
    for node, comp, value in mesh.dirichlet:
        ubar[pos[2 * node + comp]] = value
    return ubar


def applied_forces(mesh: Mesh, part: DofPartition) -> np.ndarray:
    """Equivalent nodal force vector on the free dofs."""
    pbar = np.zeros(part.n_free)
    pos = part._position
    for node, comp, value in mesh.neumann:
        pbar[pos[2 * node + comp]] += value
    return pbar


def zero_force_rows(mesh: Mesh, part: DofPartition) -> np.ndarray:
    """Positions (in free ordering) of free dofs that carry no applied load."""
    loaded = {2 * n + c for n, c, _ in mesh.neumann}
    return np.array(
        [i for i, dof in enumerate(part.free) if dof not in loaded], dtype=np.int64
    )


def resultant_selector(mesh: Mesh, part: DofPartition, comp: int) -> np.ndarray:
    """0/1 vector over prescribed dofs selecting one reaction component."""
    m = np.zeros(part.n_prescribed)
    m[np.flatnonzero(part.prescribed % 2 == comp)] = 1.0
    return m


def default_resultant_selector(mesh: Mesh, part: DofPartition) -> np.ndarray:
    """Selector for the reaction component opposing the net applied load."""
    net = np.zeros(2)
    for _, comp, value in mesh.neumann:
        net[comp] += value
    comp = int(np.argmax(np.abs(net)))
    return resultant_selector(mesh, part, comp)


# ---------------------------------------------------------------------------
# Element matrices and assembly
# ---------------------------------------------------------------------------


def _element_gauss_data(mesh: Mesh):
    """B matrices and scaled integration weights for all elements.

    Returns B with shape (n_el, n_gp, 3, 8) and w = weight * det(J) * t with
    shape (n_el, n_gp).  Voigt order (e11, e22, g12).
    """
    coords = mesh.nodes[mesh.elements]
    n_el = mesh.n_elements
    n_gp = len(GAUSS_POINTS)
    B = np.zeros((n_el, n_gp, 3, 8))
    w = np.empty((n_el, n_gp))
    for g, (xi, eta) in enumerate(GAUSS_POINTS):
        dN = shape_gradients(xi, eta)
        J = np.einsum("an,enk->eak", dN, coords)
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        inv = np.empty_like(J)
        inv[:, 0, 0] = J[:, 1, 1] / det
        inv[:, 0, 1] = -J[:, 0, 1] / det
        inv[:, 1, 0] = -J[:, 1, 0] / det
        inv[:, 1, 1] = J[:, 0, 0] / det
        dNx = np.einsum("eab,bn->ean", inv, dN)  # (n_el, 2, 4)
        B[:, g, 0, 0::2] = dNx[:, 0, :]
        B[:, g, 1, 1::2] = dNx[:, 1, :]
        B[:, g, 2, 0::2] = dNx[:, 1, :]
        B[:, g, 2, 1::2] = dNx[:, 0, :]
        w[:, g] = GAUSS_WEIGHTS[g] * det * mesh.thickness
    return B, w


class _Csr:
    """Compressed sparse rows: row i holds data[indptr[i]:indptr[i+1]] at the
    ascending columns indices[indptr[i]:indptr[i+1]].

    Products sum each row's terms in column order with ``np.bincount``, in
    the order scipy's CSR kernels use, so they give scipy's bits.
    """

    def __init__(self, data, indices, indptr, shape, rows=None):
        self.data, self.indices, self.indptr, self.shape = data, indices, indptr, shape
        # The row of each stored entry.
        self.rows = np.repeat(np.arange(shape[0]), np.diff(indptr)) if rows is None else rows

    def like(self, data) -> "_Csr":
        """The same pattern holding other data."""
        return _Csr(data, self.indices, self.indptr, self.shape, self.rows)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows, weights=self.data * x[self.indices],
                           minlength=self.shape[0])

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """The transpose product, M^T y."""
        return np.bincount(self.indices, weights=self.data * y[self.rows],
                           minlength=self.shape[1])

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows, self.indices] = self.data
        return out

    def select(self, rows: np.ndarray, cols: np.ndarray) -> "_Csr":
        """The submatrix of the given rows and of the columns marked in the
        boolean mask cols, both in their present order."""
        counts = np.diff(self.indptr)[rows]
        take = np.repeat(self.indptr[rows] - np.cumsum(counts) + counts, counts)
        take += np.arange(take.size)
        row_of = np.repeat(np.arange(rows.size), counts)
        keep = cols[self.indices[take]]
        take, row_of = take[keep], row_of[keep]
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(row_of, minlength=rows.size), out=indptr[1:])
        return _Csr(self.data[take], (np.cumsum(cols) - 1)[self.indices[take]], indptr,
                    (rows.size, int(cols.sum())), row_of)


def _combine(kappa, a: _Csr, b: _Csr) -> _Csr:
    """kappa_0 a + kappa_1 b for two matrices on one pattern."""
    return a.like(kappa[0] * a.data + kappa[1] * b.data)


@dataclass(frozen=True, eq=False)
class PartitionedStiffness:
    """Stiffness blocks of the free/prescribed partition (all ``_Csr``, N/mm).

    K (n_u x n_u), Kbar (n_u x n_p), Kbarbar (n_p x n_p); the full matrix
    [[K, Kbar], [Kbar^T, Kbarbar]] is symmetric.  order is the elimination
    order of K's rows, from ``_free_order``.
    """

    K: _Csr
    Kbar: _Csr
    Kbarbar: _Csr
    order: np.ndarray


def _element_stiffness(mesh: Mesh, *Cs: np.ndarray) -> tuple:
    """Element stiffness matrices (n_el, 8, 8) for each elasticity matrix in Cs."""
    B, w = _element_gauss_data(mesh)
    return tuple(np.einsum("egai,ab,egbj,eg->eij", B, C, B, w, optimize=True) for C in Cs)


def _assemble_global(mesh: Mesh, k_all: np.ndarray) -> _Csr:
    """Sum the element matrices k_all (n_el, 8, 8) into the global stiffness,
    each entry's terms in element order."""
    indices, indptr, positions, *_ = mesh._pattern
    data = np.bincount(positions.ravel(), weights=k_all.ravel(), minlength=indices.size)
    return _Csr(data, indices, indptr, (mesh.n_dofs, mesh.n_dofs))


def _free_order(mesh: Mesh, part: DofPartition) -> np.ndarray:
    """Elimination order of the free dofs (positions in ``part.free``): the
    mesh's node order, ``Mesh._node_order``, with a node's dofs adjacent."""
    rank = np.empty(mesh.n_nodes, dtype=np.int64)
    rank[mesh._node_order] = np.arange(mesh.n_nodes)
    return np.argsort(2 * rank[part.free // 2] + part.free % 2, kind="stable")


def _partition(S: _Csr, part: DofPartition, order: np.ndarray) -> PartitionedStiffness:
    free = part._is_free
    return PartitionedStiffness(
        K=S.select(part.free, free),
        Kbar=S.select(part.free, ~free),
        Kbarbar=S.select(part.prescribed, ~free),
        order=order,
    )


def assemble_stiffness(mesh: Mesh, part: DofPartition, C: np.ndarray) -> PartitionedStiffness:
    """Assemble and partition the global stiffness matrix."""
    S = _assemble_global(mesh, _element_stiffness(mesh, C)[0])
    return _partition(S, part, _free_order(mesh, part))


def _condition_estimate(K: _Csr, factor=None) -> float:
    """1-norm condition estimate of the symmetric K from its factor; inf if
    K did not factor.

    ||K^-1||_1 comes from Hager's estimator, in the form of Higham, Accuracy
    and Stability of Numerical Algorithms (2nd ed., 2002), Algorithm 15.4 and
    its alternative estimate; K^-T = K^-1, so each product is a solve.  It
    draws no random numbers, so the same K gives the same estimate.
    """
    if factor is None:
        return float("inf")
    n = K.shape[0]
    with np.errstate(all="ignore"):
        x = np.full(n, 1.0 / n)
        for _ in range(5):
            y = factor.solve(x)
            z = factor.solve(np.where(y >= 0.0, 1.0, -1.0))
            j = int(np.argmax(np.abs(z)))
            if abs(z[j]) <= z @ x:
                break
            x = np.zeros(n)
            x[j] = 1.0
        alt = (-1.0) ** np.arange(n) * (1.0 + np.arange(n) / max(n - 1, 1))
        inv_norm = max(np.abs(y).sum(), 2.0 * np.abs(factor.solve(alt)).sum() / (3.0 * n))
        norm = np.bincount(K.indices, weights=np.abs(K.data), minlength=n).max(initial=0.0)
    return float(norm * inv_norm)


def _root_inverse(D: np.ndarray, norm: float) -> np.ndarray:
    """F^-1 for a factor F F^T = D of a symmetric block (its lower half read);
    norm is the 1-norm of the whole matrix.

    The Cholesky factor where it exists.  A block that is positive
    semi-definite to rounding, its eigenvalues lam above -sqrt(eps) norm,
    gets F = Q diag(sqrt(max(|lam|, eps norm))), as a singular K got tiny
    pivots under LU: its factor exists, and the solve's residual check
    rejects what it gives.  Raises LinAlgError otherwise.
    """
    try:
        return np.linalg.inv(np.linalg.cholesky(D))
    except np.linalg.LinAlgError:
        eps = np.finfo(float).eps
        lam, Q = np.linalg.eigh(D)
        if not (norm > 0.0 and lam[0] >= -math.sqrt(eps) * norm):
            raise
        return (Q / np.sqrt(np.maximum(np.abs(lam), eps * norm))).T


class _BandFactor:
    """The factor of ``_factor``: the lower band of L in p x p blocks, each
    block column k holding F_k^-1, the inverse of its diagonal block, and the
    q blocks below it; then, for the trailing border rows, Z = L^-1 C and
    the inverse factor of their Schur complement."""

    def __init__(self, blocks: np.ndarray, order: np.ndarray, n_band: int):
        self.blocks, self.order, self.n_band = blocks, order, n_band
        self.q, self.p = blocks.shape[1] - 1, blocks.shape[2]
        self.Z = self.S_inv = None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with M x = rhs, for a vector rhs or an (n, m) array of m of them."""
        p, q, nb, order = self.p, self.q, self.n_band, self.order
        y = self._forward(rhs[order[:nb]])
        if self.Z is not None:
            w = self.S_inv.T @ (self.S_inv @ (rhs[order[nb:]] - self.Z.T @ y))
            y -= self.Z @ w
        blocks = self.blocks
        for k in range(len(blocks) - q - 1, -1, -1):
            below = y[(k + 1) * p:(k + 1 + q) * p]
            t = y[k * p:(k + 1) * p] - blocks[k, 1:].reshape(q * p, p).T @ below
            y[k * p:(k + 1) * p] = blocks[k, 0].T @ t
        x = np.empty((len(order), *rhs.shape[1:]))
        x[order[:nb]] = y[:nb]
        if self.Z is not None:
            x[order[nb:]] = w
        return x

    def _forward(self, b: np.ndarray) -> np.ndarray:
        """L^-1 b for the band rows, padded to whole blocks."""
        p, q, blocks = self.p, self.q, self.blocks
        y = np.zeros((blocks.shape[0] * p, *b.shape[1:]))
        y[:b.shape[0]] = b
        for k in range(len(blocks) - q):
            yk = y[k * p:(k + 1) * p] = blocks[k, 0] @ y[k * p:(k + 1) * p]
            y[(k + 1) * p:(k + 1 + q) * p] -= blocks[k, 1:].reshape(q * p, p) @ yk
        return y


def _factor(M: _Csr, order: np.ndarray, border: int = 0) -> _BandFactor:
    """Cholesky factor of the symmetric positive definite M, rows eliminated
    in ``order``; SolverError if M is not positive definite.

    Every matrix calibrix factors is symmetric positive definite: K(kappa),
    and K_fr K_fr^T plus a non-negative multiple of I in AAO.  The band rows,
    all but the last ``border`` of ``order``, are factored right-looking in
    p x p blocks, with p = ceil(b / ceil(b / 48)) for the semi-bandwidth b:
    each block column costs one Cholesky of its diagonal block, one product
    for the q = ceil(b / p) blocks below it and q trailing updates.  Only
    the lower band is stored.  Border rows (AAO's dense resultant row) are
    eliminated last through their Schur complement.
    """
    n = M.shape[0]
    nb = n - border
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    r, c = rank[M.rows], rank[M.indices]
    lower = c <= r
    r, c, v = r[lower], c[lower], M.data[lower]
    band = r < nb
    b = max(int((r[band] - c[band]).max(initial=0)), 1)
    q = -(-b // 48)
    p = -(-b // q)
    n_blocks = -(-nb // p)
    norm = np.bincount(M.indices, weights=np.abs(M.data), minlength=n).max(initial=0.0)
    try:
        if not np.all(np.isfinite(M.data)):
            raise np.linalg.LinAlgError("not finite")
        # Block column k holds rows k p .. (k + q + 1) p; q zero block columns
        # pad the end, with identity diagonals, so no update runs out of range.
        blocks = np.zeros((n_blocks + q, q + 1, p, p))
        rb, cb = r[band], c[band]
        k = cb // p
        blocks.reshape(-1)[((k * (q + 1) + rb // p - k) * p + rb % p) * p + cb % p] = v[band]
        pad = np.arange(nb, (n_blocks + q) * p)
        blocks[pad // p, 0, pad % p, pad % p] = 1.0
        for k in range(n_blocks):
            blocks[k, 0] = inv = _root_inverse(blocks[k, 0], norm)
            P = blocks[k, 1:].reshape(q * p, p) @ inv.T
            blocks[k, 1:] = P.reshape(q, p, p)
            for j in range(1, q + 1):
                Pj = P[(j - 1) * p:j * p]
                blocks[k + j, :q - j + 1].reshape(-1, p)[...] -= P[(j - 1) * p:] @ Pj.T
        factor = _BandFactor(blocks, order, nb)
        if border:
            C, D = np.zeros((nb, border)), np.zeros((border, border))
            to_band, inner = ~band & (c < nb), ~band & (c >= nb)
            C[c[to_band], r[to_band] - nb] = v[to_band]
            D[r[inner] - nb, c[inner] - nb] = v[inner]
            factor.Z = factor._forward(C)
            factor.S_inv = _root_inverse(D - factor.Z.T @ factor.Z, norm)
    except np.linalg.LinAlgError:
        raise SolverError(
            "sparse factorization failed (matrix is not positive definite); "
            f"condition estimate {_condition_estimate(M):.3e}"
        ) from None
    return factor


def _inaccurate(x: np.ndarray, r: np.ndarray, rhs: np.ndarray) -> float | None:
    """Relative residual ||r|| / ||rhs|| of a solution x with residual r when
    x is not finite or that residual exceeds 1e-8; None when x passes."""
    # The ddot and sqrt that np.linalg.norm runs on a vector, without its
    # dispatch overhead.
    scale = math.sqrt(rhs @ rhs)
    resid = math.sqrt(r @ r)
    if not np.all(np.isfinite(x)) or (scale > 0 and resid > 1e-8 * scale):
        return resid / max(scale, 1e-300)
    return None


def _factor_solve(K: _Csr, order: np.ndarray, rhs: np.ndarray):
    """Factor K in ``order`` and solve K x = rhs; returns (x, factor).

    Raises SolverError with a condition estimate when the factorization fails
    or the relative residual of x exceeds 1e-8.
    """
    factor = _factor(K, order)
    x = factor.solve(rhs)
    resid = _inaccurate(x, K.matvec(x) - rhs, rhs)
    if resid is not None:
        raise SolverError(
            f"linear solve inaccurate (relative residual {resid:.3e}); "
            f"condition estimate {_condition_estimate(K, factor):.3e}"
        )
    return x, factor


def solve_linear(
    stiff: PartitionedStiffness, pbar: np.ndarray, ubar: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve K u = pbar - Kbar ubar and recover reactions p.

    Returns (u, p) with u on the free dofs (mm) and p on the prescribed dofs
    (N).  Raises SolverError with a condition estimate when the factorization
    fails or the solution does not satisfy the system.
    """
    ubar = np.asarray(ubar, dtype=float)
    rhs = np.asarray(pbar, dtype=float) - stiff.Kbar.matvec(ubar)
    u, _ = _factor_solve(stiff.K, stiff.order, rhs)
    p = stiff.Kbar.rmatvec(u) + stiff.Kbarbar.matvec(ubar)
    return u, p


def reaction_resultant(p: np.ndarray, m: np.ndarray) -> float:
    """Summed reaction component, m^T p."""
    p = np.asarray(p, dtype=float)
    m = np.asarray(m, dtype=float)
    if m.shape != p.shape:
        raise DataCoverageError(f"selector length {m.shape} does not match reactions {p.shape}")
    return float(m @ p)


# ---------------------------------------------------------------------------
# Linear-in-parameter system matrices
# ---------------------------------------------------------------------------


def assemble_parameter_matrices(
    mesh: Mesh, part: DofPartition, u: np.ndarray, ubar: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Matrices A_S (n_u x 2) and Abar_S (n_p x 2) of the equilibrium map.

    For the coefficient vector kappa = (C11, C12):
        A_S(u, ubar) kappa    == K(kappa) u + Kbar(kappa) ubar
        Abar_S(u, ubar) kappa == Kbar(kappa)^T u + Kbarbar(kappa) ubar
    Column j multiplies each element's displacements by its stiffness matrix
    for ``_C_BASIS[j]`` and sums the products into the global dofs, element
    by element (Hughes, Levit & Winget, 1983).  The element matrices are
    computed once per mesh, and numpy alone runs here.
    """
    full = part.merge(np.asarray(u, dtype=float), np.asarray(ubar, dtype=float))
    dofs = mesh._element_dofs
    ue = full[dofs]
    a_full = np.column_stack([
        np.bincount(dofs.ravel(), weights=np.einsum("eij,ej->ei", k, ue).ravel(),
                    minlength=mesh.n_dofs)
        for k in mesh._basis_stiffness
    ])
    return a_full[part.free], a_full[part.prescribed]


class _EquilibriumRows:
    """The reduced equilibrium system A(u) kappa = p_vec that VFM and AAO
    solve.  Its rows are the free dofs that carry no applied load, plus one
    sqrt(sigma_r)-scaled row for the reaction resultant that ``m`` selects
    (default: the component opposing the net applied load); p_vec is zero
    except for the scaled measured resultant p_check.
    """

    def __init__(self, mesh: Mesh, part: DofPartition, p_check: float, sigma_r: float,
                 m: np.ndarray | None = None):
        self.mesh = mesh
        self.part = part
        self.m = default_resultant_selector(mesh, part) if m is None else m
        self.zero = zero_force_rows(mesh, part)
        self.root = math.sqrt(sigma_r)
        self.ubar = prescribed_values(mesh, part)
        self.p_vec = np.zeros(len(self.zero) + 1)
        self.p_vec[-1] = self.root * p_check

    def a_cols(self, u: np.ndarray) -> np.ndarray:
        """A(u, ubar) as a dense (n_rows, 2) matrix: the rows of A_S and Abar_S."""
        a_s, abar_s = assemble_parameter_matrices(self.mesh, self.part, u, self.ubar)
        return np.vstack([a_s[self.zero], self.root * (self.m @ abar_s)])


@dataclass(frozen=True, eq=False)
class VfmSystem:
    """Weighted overdetermined system A kappa = p_vec for the direct solve.

    Rows of A are the zero-load equilibrium rows plus one sqrt(sigma_r)-scaled
    resultant row; p_vec is zero except for the scaled measured resultant.
    """

    A: np.ndarray
    p_vec: np.ndarray
    sigma_r: float


def assemble_vfm_system(
    mesh: Mesh,
    part: DofPartition,
    d_u: np.ndarray,
    p_check: float,
    sigma_r: float,
    m: np.ndarray | None = None,
) -> VfmSystem:
    """Build the equilibrium system evaluated at measured displacements.

    d_u must cover all free dofs (length n_u, finite).  p_check is the
    measured reaction resultant selected by ``m`` (defaults to the component
    opposing the net applied load).
    """
    d_u = np.asarray(d_u, dtype=float)
    if d_u.shape != (part.n_free,):
        raise DataCoverageError(
            f"displacement data covers {d_u.shape} entries, need ({part.n_free},)"
        )
    if not np.all(np.isfinite(d_u)) or not np.isfinite(p_check):
        raise DataCoverageError("displacement or resultant data contains non-finite entries")
    rows = _EquilibriumRows(mesh, part, p_check, sigma_r, m)
    return VfmSystem(A=rows.a_cols(d_u), p_vec=rows.p_vec, sigma_r=sigma_r)


@dataclass(frozen=True, eq=False)
class StiffnessDecomposition:
    """The stiffness blocks split by elasticity coefficient.

    K(kappa) = kappa_1 K_a + kappa_2 K_b (same for the other blocks), so the
    blocks at any kappa cost only a combination on their shared pattern.
    ``from_mesh`` assembles the two from the mesh's element matrices per
    basis, the ones ``assemble_parameter_matrices`` multiplies.  ``solve``
    factors ``stiffness(kappa).K`` afresh on each call.

    ``spectrum`` caches, on first use, the eigenpairs of the pencil
    (K_b, K_a), which diagonalize K(kappa) for every kappa at once;
    ``spectral_solver`` solves through them where many kappa share one
    right-hand side, as a sampler's do.
    """

    mesh: Mesh
    part: DofPartition
    blocks: tuple  # two PartitionedStiffness instances, one per basis matrix

    @classmethod
    def from_mesh(cls, mesh: Mesh, part: DofPartition) -> "StiffnessDecomposition":
        order = _free_order(mesh, part)
        blocks = tuple(_partition(_assemble_global(mesh, k), part, order)
                       for k in mesh._basis_stiffness)
        return cls(mesh=mesh, part=part, blocks=blocks)

    def stiffness(self, kappa) -> PartitionedStiffness:
        """The three blocks at kappa, each kappa_0 a + kappa_1 b on the pattern
        the two basis blocks share."""
        a, b = self.blocks
        return PartitionedStiffness(
            K=_combine(kappa, a.K, b.K),
            Kbar=_combine(kappa, a.Kbar, b.Kbar),
            Kbarbar=_combine(kappa, a.Kbarbar, b.Kbarbar),
            order=a.order,
        )

    def solve(self, kappa, pbar, ubar):
        """Free-dof displacements u of K(kappa) u = pbar - Kbar(kappa) ubar.

        Returns (u, factor), where factor factors K(kappa), which is
        symmetric, so it solves the transposed system too.  Raises SolverError
        with a condition estimate like ``solve_linear``.
        """
        stiff = self.stiffness(kappa)
        rhs = np.asarray(pbar, dtype=float) - stiff.Kbar.matvec(np.asarray(ubar, dtype=float))
        return _factor_solve(stiff.K, stiff.order, rhs)

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Eigenpairs (lam, V) of the pencil (K_b, K_a): K_b V = K_a V diag(lam)
        and V^T K_a V = I, so K(kappa)^-1 = V diag(1 / (kappa_0 + kappa_1 lam)) V^T
        exactly (Golub & Van Loan, Matrix Computations, 8.7).

        K_a is symmetric positive definite (its C basis is diag(1, 1, 1/2)),
        and lam lies in [-1, 1]; K(kappa) is singular where
        kappa_0 + kappa_1 lam vanishes, at C11 = +-C12 among others.  Computed
        on first use with numpy.linalg alone: the Cholesky factor L of dense
        K_a, the symmetric eigenproblem L^-1 K_b L^-T W = W diag(lam), and
        V = L^-T W.  Dense: O(n_free^2) memory, O(n_free^3) time.  None when
        K_a is not positive definite (a mesh with a rigid body mode) or the
        eigensolver fails.
        """
        a, b = self.blocks
        try:
            L = np.linalg.cholesky(a.K.toarray())
            # L^-1 K_b L^-T, as L^-1 (L^-1 K_b)^T since K_b is symmetric.
            M = np.linalg.solve(L, np.linalg.solve(L, b.K.toarray()).T)
            lam, W = np.linalg.eigh(M)
            del M
            return lam, np.linalg.solve(L.T, W)
        except np.linalg.LinAlgError:
            return None

    def spectral_solver(self, pbar, ubar):
        """Solver kappa -> free-dof displacements u of
        K(kappa) u = pbar - Kbar(kappa) ubar through ``spectrum``.

        With c = V^T pbar, c_a = V^T Kbar_a ubar and c_b = V^T Kbar_b ubar,
        u = V [(c - kappa_0 c_a - kappa_1 c_b) / (kappa_0 + kappa_1 lam)]: two
        dense matrix-vector products, no factorization.  The solver returns
        None where ``solve`` would not accept u: u not finite, or its relative
        residual, with K(kappa) u formed as kappa_0 (K_a u) + kappa_1 (K_b u),
        above 1e-8.  It returns None for every kappa when there is no
        spectrum.  The caller then solves by ``solve``, which accepts or raises
        SolverError as it always does.
        """
        if self.spectrum is None:
            return lambda kappa: None
        lam, V = self.spectrum
        a, b = self.blocks
        pbar = np.asarray(pbar, dtype=float)
        ubar = np.asarray(ubar, dtype=float)
        fa, fb = a.Kbar.matvec(ubar), b.Kbar.matvec(ubar)
        c, ca, cb = V.T @ pbar, V.T @ fa, V.T @ fb

        def solve(kappa):
            k0, k1 = kappa
            # A singular or non-finite kappa gives inf or nan here; the check
            # rejects it, so numpy need not warn.
            with np.errstate(all="ignore"):
                u = V @ ((c - k0 * ca - k1 * cb) / (k0 + k1 * lam))
                rhs = pbar - (k0 * fa + k1 * fb)
                r = k0 * a.K.matvec(u) + k1 * b.K.matvec(u) - rhs
                return None if _inaccurate(u, r, rhs) is not None else u

        return solve


# ---------------------------------------------------------------------------
# Mesh file format
# ---------------------------------------------------------------------------


def write_mesh_file(path, mesh: Mesh) -> None:
    """Whitespace-delimited mesh file with 1-based, contiguous ids."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"thickness {float(mesh.thickness)!r}\n")
        for i, (x, y) in enumerate(mesh.nodes, start=1):
            fh.write(f"node {i} {float(x)!r} {float(y)!r}\n")
        for i, el in enumerate(mesh.elements, start=1):
            fh.write(f"elem {i} {el[0] + 1} {el[1] + 1} {el[2] + 1} {el[3] + 1}\n")
        for node, comp, value in mesh.dirichlet:
            fh.write(f"fix {node + 1} {comp + 1} {float(value)!r}\n")
        for node, comp, value in mesh.neumann:
            fh.write(f"load {node + 1} {comp + 1} {float(value)!r}\n")


# Fields after each mesh-file keyword.
_MESH_FIELDS = {"node": 3, "elem": 5, "fix": 3, "load": 3, "thickness": 1}


def read_mesh_file(path) -> Mesh:
    """Read a file written by :func:`write_mesh_file`.

    An unknown keyword, a wrong number of fields, a field that does not parse
    as its number type, a non-finite number, a repeated id or thickness line,
    or bytes that are not UTF-8 raise ConfigError naming ``path:line``.
    """
    nodes = {}
    elements = {}
    dirichlet = []
    neumann = []
    thickness = None
    for lineno, raw in enumerate(read_text_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind, args = parts[0], parts[1:]
        try:
            if kind not in _MESH_FIELDS:
                raise ValueError(f"unknown keyword {kind!r}")
            if len(args) != _MESH_FIELDS[kind]:
                raise ValueError(f"{kind} takes {_MESH_FIELDS[kind]} fields, got {len(args)}")
            if kind == "node":
                key, x, y = int(args[0]), float(args[1]), float(args[2])
                if key in nodes:
                    raise ValueError(f"repeated node id {key}")
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise ValueError(f"node {key} has a non-finite coordinate")
                nodes[key] = (x, y)
            elif kind == "elem":
                key = int(args[0])
                if key in elements:
                    raise ValueError(f"repeated elem id {key}")
                elements[key] = [int(a) - 1 for a in args[1:]]
            else:
                value = float(args[-1])
                if not math.isfinite(value):
                    raise ValueError(f"not a finite number: {args[-1]!r}")
                if kind == "thickness":
                    if thickness is not None:
                        raise ValueError("repeated thickness line")
                    thickness = value
                else:
                    entry = (int(args[0]) - 1, int(args[1]) - 1, value)
                    (dirichlet if kind == "fix" else neumann).append(entry)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    if thickness is None:
        raise ConfigError(f"{path}: missing thickness line")
    for name, table in (("node", nodes), ("elem", elements)):
        if sorted(table) != list(range(1, len(table) + 1)):
            raise ConfigError(f"{path}: {name} ids must be 1-based and contiguous")
    node_arr = np.array([nodes[i] for i in range(1, len(nodes) + 1)])
    try:
        elem_arr = np.array([elements[i] for i in range(1, len(elements) + 1)],
                            dtype=np.int64)
    except OverflowError:
        raise ConfigError(f"{path}: an element node id is out of range") from None
    return Mesh(
        nodes=node_arr,
        elements=elem_arr,
        thickness=thickness,
        dirichlet=tuple(dirichlet),
        neumann=tuple(neumann),
    )
