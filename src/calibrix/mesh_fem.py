"""Plane-stress Q4 finite element core.

Element stiffness with 2x2 Gauss quadrature, assembly of the partitioned
stiffness blocks (free/prescribed degrees of freedom), direct linear solves
with reaction-force recovery, and the matrices that express the discrete
equilibrium as a linear map in the elasticity coefficients (C11, C12).

Degrees of freedom are numbered ``2 * node + component``.  scipy is imported
only where a sparse matrix is built or factored; the rest runs on numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .config import read_text_lines
from .errors import ConfigError, DataCoverageError, GeometryError, SolverError

if TYPE_CHECKING:
    import scipy.sparse as sp

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


def _element_gauss_data(mesh: Mesh, elements=None):
    """B matrices and scaled integration weights for all elements.

    Returns B with shape (n_el, n_gp, 3, 8) and w = weight * det(J) * t with
    shape (n_el, n_gp).  Voigt order (e11, e22, g12).
    """
    els = mesh.elements if elements is None else elements
    coords = mesh.nodes[els]
    n_el = len(els)
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


@dataclass(frozen=True, eq=False)
class PartitionedStiffness:
    """Stiffness blocks of the free/prescribed partition (all sparse, N/mm).

    K (n_u x n_u), Kbar (n_u x n_p), Kbarbar (n_p x n_p); the full matrix
    [[K, Kbar], [Kbar^T, Kbarbar]] is symmetric.
    """

    K: sp.csr_matrix
    Kbar: sp.csr_matrix
    Kbarbar: sp.csr_matrix


def _assemble_global(mesh: Mesh, C: np.ndarray) -> sp.csr_matrix:
    import scipy.sparse as sp

    B, w = _element_gauss_data(mesh)
    k_all = np.einsum("egai,ab,egbj,eg->eij", B, C, B, w, optimize=True)
    dofs = np.empty((mesh.n_elements, 8), dtype=np.int64)
    dofs[:, 0::2] = 2 * mesh.elements
    dofs[:, 1::2] = 2 * mesh.elements + 1
    rows = np.repeat(dofs, 8, axis=1).ravel()
    cols = np.tile(dofs, (1, 8)).ravel()
    S = sp.coo_matrix((k_all.ravel(), (rows, cols)), shape=(mesh.n_dofs, mesh.n_dofs))
    return S.tocsr()


def assemble_stiffness(mesh: Mesh, part: DofPartition, C: np.ndarray) -> PartitionedStiffness:
    """Assemble and partition the global stiffness matrix."""
    S = _assemble_global(mesh, C)
    Sf = S[part.free]
    Sp = S[part.prescribed]
    return PartitionedStiffness(
        K=Sf[:, part.free].tocsr(),
        Kbar=Sf[:, part.prescribed].tocsr(),
        Kbarbar=Sp[:, part.prescribed].tocsr(),
    )


def _condition_estimate(K: sp.spmatrix, lu=None) -> float:
    """1-norm condition estimate of K from its factors lu; inf if K did not factor.

    ``onenormest`` draws its start vectors from numpy's global RNG and takes
    no generator, so the estimate runs under a fixed seed and the caller's RNG
    state is restored afterwards: the same K gives the same estimate, and the
    global RNG does not advance.
    """
    if lu is None:
        return float("inf")
    import scipy.sparse.linalg as spla

    rng_state = np.random.get_state()
    try:
        np.random.seed(0)
        op = spla.LinearOperator(K.shape, matvec=lu.solve,
                                 rmatvec=lambda x: lu.solve(x, trans="T"))
        return float(spla.onenormest(K) * spla.onenormest(op))
    except Exception:
        return float("nan")
    finally:
        np.random.set_state(rng_state)


def _factor(K: sp.csc_matrix):
    """SuperLU factors of K; SolverError with a condition estimate if singular.

    Every matrix calibrix factors is symmetric positive definite: K(kappa),
    K_fr K_fr^T and the AAO state subproblem's normal matrix.  So SuperLU runs
    in symmetric mode, with a minimum-degree order of K + K^T and diagonal
    pivots; ``_factor_solve``'s residual check catches the inaccurate factors
    this can give for an indefinite K.
    """
    import scipy.sparse.linalg as spla

    try:
        return spla.splu(K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(
            f"sparse factorization failed ({exc}); "
            f"condition estimate {_condition_estimate(K):.3e}"
        ) from None


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


def _factor_solve(K: sp.csc_matrix, rhs: np.ndarray):
    """Factor K and solve K x = rhs; returns (x, lu).

    Raises SolverError with a condition estimate when the factorization fails
    or the relative residual of x exceeds 1e-8.
    """
    lu = _factor(K)
    x = lu.solve(rhs)
    resid = _inaccurate(x, K @ x - rhs, rhs)
    if resid is not None:
        raise SolverError(
            f"linear solve inaccurate (relative residual {resid:.3e}); "
            f"condition estimate {_condition_estimate(K, lu):.3e}"
        )
    return x, lu


def solve_linear(
    stiff: PartitionedStiffness, pbar: np.ndarray, ubar: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve K u = pbar - Kbar ubar and recover reactions p.

    Returns (u, p) with u on the free dofs (mm) and p on the prescribed dofs
    (N).  Raises SolverError with a condition estimate when the factorization
    fails or the solution does not satisfy the system.
    """
    rhs = np.asarray(pbar, dtype=float) - stiff.Kbar @ np.asarray(ubar, dtype=float)
    u, _ = _factor_solve(stiff.K.tocsc(), rhs)
    p = stiff.Kbar.T @ u + stiff.Kbarbar @ ubar
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
    Built element-wise from the Gauss-point strains, independent of the
    stiffness assembly path.
    """
    full = part.merge(np.asarray(u, dtype=float), np.asarray(ubar, dtype=float))
    B, w = _element_gauss_data(mesh)
    dofs = np.empty((mesh.n_elements, 8), dtype=np.int64)
    dofs[:, 0::2] = 2 * mesh.elements
    dofs[:, 1::2] = 2 * mesh.elements + 1
    ue = full[dofs]  # (n_el, 8)
    strain = np.einsum("egai,ei->ega", B, ue)  # (n_el, n_gp, 3)
    # Columns of the 3x2 coefficient map applied to the strain:
    # C(kappa) strain = kappa_1 * (e11, e22, g/2) + kappa_2 * (e22, e11, -g/2)
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
    if m is None:
        m = default_resultant_selector(mesh, part)
    ubar = prescribed_values(mesh, part)
    a_s, abar_s = assemble_parameter_matrices(mesh, part, d_u, ubar)
    zero = zero_force_rows(mesh, part)
    root = math.sqrt(sigma_r)
    A = np.vstack([a_s[zero], root * (m @ abar_s)])
    p_vec = np.zeros(len(zero) + 1)
    p_vec[-1] = root * p_check
    return VfmSystem(A=A, p_vec=p_vec, sigma_r=sigma_r)


@dataclass(frozen=True, eq=False)
class StiffnessDecomposition:
    """The stiffness blocks split by elasticity coefficient.

    K(kappa) = kappa_1 K_a + kappa_2 K_b (same for the other blocks), so the
    blocks at any kappa and the equilibrium-map columns cost only sparse
    combinations.  ``solve`` factors ``stiffness(kappa).K`` afresh on each
    call.

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
        blocks = tuple(assemble_stiffness(mesh, part, C) for C in _C_BASIS)
        return cls(mesh=mesh, part=part, blocks=blocks)

    def stiffness(self, kappa) -> PartitionedStiffness:
        """The three blocks at kappa, each formed by scipy's sparse arithmetic."""
        a, b = self.blocks
        return PartitionedStiffness(
            K=(kappa[0] * a.K + kappa[1] * b.K).tocsr(),
            Kbar=(kappa[0] * a.Kbar + kappa[1] * b.Kbar).tocsr(),
            Kbarbar=(kappa[0] * a.Kbarbar + kappa[1] * b.Kbarbar).tocsr(),
        )

    def solve(self, kappa, pbar, ubar):
        """Free-dof displacements u of K(kappa) u = pbar - Kbar(kappa) ubar.

        Returns (u, lu), where lu factors K(kappa).  Raises SolverError with a
        condition estimate like ``solve_linear``.
        """
        stiff = self.stiffness(kappa)
        rhs = np.asarray(pbar, dtype=float) - stiff.Kbar @ np.asarray(ubar, dtype=float)
        return _factor_solve(stiff.K.tocsc(), rhs)

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
        spectrum.  The caller then solves by LU, which accepts or raises
        SolverError as it always does.
        """
        if self.spectrum is None:
            return lambda kappa: None
        lam, V = self.spectrum
        a, b = self.blocks
        pbar = np.asarray(pbar, dtype=float)
        ubar = np.asarray(ubar, dtype=float)
        fa, fb = a.Kbar @ ubar, b.Kbar @ ubar
        c, ca, cb = V.T @ pbar, V.T @ fa, V.T @ fb

        def solve(kappa):
            k0, k1 = kappa
            # A singular or non-finite kappa gives inf or nan here; the check
            # rejects it, so numpy need not warn.
            with np.errstate(all="ignore"):
                u = V @ ((c - k0 * ca - k1 * cb) / (k0 + k1 * lam))
                rhs = pbar - (k0 * fa + k1 * fb)
                r = k0 * (a.K @ u) + k1 * (b.K @ u) - rhs
                return None if _inaccurate(u, r, rhs) is not None else u

        return solve

    def a_matrices(self, u, ubar) -> tuple[np.ndarray, np.ndarray]:
        """A_S and Abar_S columns as stiffness-block matvecs."""
        a, b = self.blocks
        a_s = np.column_stack([a.K @ u + a.Kbar @ ubar, b.K @ u + b.Kbar @ ubar])
        abar_s = np.column_stack(
            [a.Kbar.T @ u + a.Kbarbar @ ubar, b.Kbar.T @ u + b.Kbarbar @ ubar]
        )
        return a_s, abar_s


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
