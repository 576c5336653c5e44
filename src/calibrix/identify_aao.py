"""All-at-once identification over the joint (displacement, parameter) vector.

Two flavors of the joint objective for linear elasticity:

* ``fem``: physics residual of the row-reduced equilibrium system plus a
  Euclidean displacement-data mismatch,
    sigma_s/2 ||K_fr(kappa) u + Kbar_fr(kappa) ubar - p_vec||^2
    + sigma_d/2 ||u - d_u||^2
* ``vfm``: the same physics residual, with the data mismatch measured in the
  stiffness semi-norm,
    + sigma_d/2 ||K_fr(kappa) (u - d_u)||^2

Both residuals are bilinear in (u, kappa); the default solver is damped
Gauss-Newton on the stacked residual, with a block Gauss-Seidel fallback and
a purely matrix-vector (Landweber) iteration.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError
from .materials import E_nu_from_c_coords
from .identify_vfm import full_field_vectors
from .mesh_fem import (
    DofPartition,
    Mesh,
    StiffnessDecomposition,
    _combine,
    _Csr,
    _EquilibriumRows,
    _factor,
)

DEFAULT_KAPPA0 = np.array([225000.0, 65000.0])  # (C11, C12) starting point


class AaoOperators(_EquilibriumRows):
    """Row-reduced stiffness operators split by elasticity coefficient.

    K_fr(kappa) = kappa_1 K_fr_a + kappa_2 K_fr_b holds the rows of the
    stiffness blocks that the reduced equilibrium system keeps, the rows of
    VFM's system; ``a_cols`` gives A(u), with A(u) kappa = K_fr(kappa) u +
    Kbar_fr(kappa) ubar, from the same rows of the element-by-element map.

    K_fr K_fr^T = kappa_1^2 K_a K_a^T + kappa_1 kappa_2 (K_a K_b^T + K_b K_a^T)
    + kappa_2^2 K_b K_b^T: the three products are formed once, on one
    pattern, and ``kkt`` combines them.  Its rows are eliminated in the
    mesh's order of their dofs, and the dense resultant row last.
    """

    def __init__(self, mesh: Mesh, part: DofPartition, p_check: float,
                 sigma_r: float = 1e4, m: np.ndarray | None = None):
        super().__init__(mesh, part, p_check, sigma_r, m)
        blocks = StiffnessDecomposition.from_mesh(mesh, part).blocks

        def rows(free, resultant):
            """free's zero-load rows, then the scaled resultant row."""
            top = free.select(self.zero, np.ones(free.shape[1], dtype=bool))
            last = self.root * resultant
            cols = np.flatnonzero(last)
            indptr = np.append(top.indptr, top.indptr[-1] + cols.size)
            return _Csr(np.append(top.data, last[cols]), np.append(top.indices, cols), indptr,
                        (top.shape[0] + 1, top.shape[1]))

        self.K_fr = [rows(b.K, b.Kbar.matvec(self.m)) for b in blocks]
        self.Kbar_fr = [rows(b.Kbar, b.Kbarbar.rmatvec(self.m)) for b in blocks]
        self.n_rows = len(self.p_vec)
        self.n_u = part.n_free
        self._gram, self._gram_terms = _gram_products(*self.K_fr)
        self._diagonal = self._gram.rows == self._gram.indices
        rank = np.empty(self.n_u, dtype=np.int64)
        rank[blocks[0].order] = np.arange(self.n_u)
        self._order = np.append(np.argsort(rank[self.zero], kind="stable"), self.n_rows - 1)

    def k_fr(self, kappa) -> _Csr:
        return _combine(kappa, *self.K_fr)

    def kkt(self, kappa, s: float = 1.0, delta: float = 0.0) -> _Csr:
        """s K_fr(kappa) K_fr(kappa)^T + delta I."""
        aa, ab, bb = self._gram_terms
        k0, k1 = kappa
        data = s * (k0 * k0 * aa + k0 * k1 * ab + k1 * k1 * bb)
        data[self._diagonal] += delta
        return self._gram.like(data)

    def factor(self, M: _Csr):
        """The factor of a system from ``kkt``: K K^T of the minimum-norm
        correction or s K K^T + delta I of the state subproblem.
        SolverError only when M does not factor."""
        return _factor(M, self._order, border=1)

    def solve(self, M: _Csr, r: np.ndarray) -> np.ndarray:
        """x with M x = r, for a system from ``kkt``."""
        return self.factor(M).solve(r)

    def data_residual(self, kappa, d_u):
        """K = K_fr(kappa) and r0 = p_vec - Kbar_fr(kappa) ubar - K d_u, the
        physics residual carried by the data state d_u."""
        K = self.k_fr(kappa)
        b = self.p_vec - _combine(kappa, *self.Kbar_fr).matvec(self.ubar)
        return K, b - K.matvec(d_u)

    def min_norm_correction(self, kappa, d_u):
        """The least-norm w with K_fr(kappa) (d_u + w) + Kbar_fr(kappa) ubar =
        p_vec: w = K^T lambda with (K K^T) lambda = r0.  Returns w and the
        (K, lambda, factor of K K^T) that ``min_norm_jacobian`` takes."""
        K, r0 = self.data_residual(kappa, d_u)
        factor = self.factor(self.kkt(kappa))
        lam = factor.solve(r0)
        return K.rmatvec(lam), (K, lam, factor)

    def min_norm_jacobian(self, d_u, w, kept) -> np.ndarray:
        """dw/dkappa (n_u x 2) of ``min_norm_correction``, from what it kept.

        With K_j = K_fr,j, dr0/dkappa_j = -Kbar_fr,j ubar - K_j d_u; so with
        u = d_u + w, differentiating K K^T lambda = r0 gives
        (K K^T) dlambda_j = -(K_j u + Kbar_fr,j ubar) - K K_j^T lambda, and
        dw_j = K_j^T lambda + K^T dlambda_j: one solve for two right-hand
        sides with the factor in hand, no factorization.  The products with
        the blocks, not ``a_cols``, keep w and kappa independent of how A_S
        is formed.
        """
        K, lam, factor = kept
        u = d_u + w
        back = [Kj.rmatvec(lam) for Kj in self.K_fr]
        rhs = np.column_stack([-(Kj.matvec(u) + Kbj.matvec(self.ubar)) - K.matvec(bj)
                               for Kj, Kbj, bj in zip(self.K_fr, self.Kbar_fr, back)])
        dlam = factor.solve(rhs)
        return np.column_stack([bj + K.rmatvec(dlam[:, j]) for j, bj in enumerate(back)])

    def physics_residual(self, u, kappa) -> np.ndarray:
        return self.a_cols(u) @ kappa - self.p_vec


def _gram_products(a: _Csr, b: _Csr):
    """The pattern of a a^T and the data of a a^T, a b^T + b a^T and b b^T on
    it, for a and b on one pattern: every pair of entries that share a
    column adds a product to the entry of their two rows."""
    by_col = np.argsort(a.indices, kind="stable")
    counts = np.bincount(a.indices, minlength=a.shape[1])
    start = np.cumsum(counts) - counts
    lens = counts[a.indices[by_col]]
    first = by_col[np.repeat(np.arange(by_col.size), lens)]
    offset = np.arange(lens.sum()) - np.repeat(np.cumsum(lens) - lens, lens)
    second = by_col[np.repeat(start[a.indices[by_col]], lens) + offset]
    n = a.shape[0]
    keys, slot = np.unique(a.rows[first] * n + a.rows[second], return_inverse=True)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])

    def total(values):
        return np.bincount(slot, weights=values, minlength=keys.size)

    terms = (total(a.data[first] * a.data[second]),
             total(a.data[first] * b.data[second] + b.data[first] * a.data[second]),
             total(b.data[first] * b.data[second]))
    return _Csr(terms[0], keys % n, indptr, (n, n)), terms


@dataclass(eq=False)
class AaoResult:
    u: np.ndarray
    kappa_c: np.ndarray
    E: float
    nu: float
    objective: float
    iterations: int
    converged: bool
    message: str
    foc: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)


def _stacked_residual(ops, flavor, u, kappa, d_u, sigma_s, sigma_d,
                      gamma_s, gamma_p, u0, kappa0):
    parts = [math.sqrt(sigma_s) * ops.physics_residual(u, kappa)]
    if flavor == "fem":
        parts.append(math.sqrt(sigma_d) * (u - d_u))
    else:
        parts.append(math.sqrt(sigma_d) * ops.k_fr(kappa).matvec(u - d_u))
    if gamma_s > 0.0:
        parts.append(math.sqrt(gamma_s) * (u - u0))
    if gamma_p > 0.0:
        parts.append(math.sqrt(gamma_p) * (kappa - kappa0))
    return np.concatenate(parts)


def aao_foc_residuals(ops: AaoOperators, flavor: str, u, kappa, d_u,
                      sigma_s: float, sigma_d: float) -> dict:
    """Multiplier-form optimality residuals at a candidate joint solution.

    With Lambda := sigma_s * (physics residual), the parameter equation
    A(u)^T Lambda = 0 and the state equation K_fr^T Lambda + (data-term
    gradient) = 0 must hold at a minimizer; both are returned scaled.
    """
    A = ops.a_cols(u)
    lam = sigma_s * (A @ kappa - ops.p_vec)
    r_kappa = np.linalg.norm(A.T @ lam)
    s_kappa = 1.0 + np.linalg.norm(A.T @ (sigma_s * ops.p_vec))
    K = ops.k_fr(kappa)
    if flavor == "fem":
        grad_data = sigma_d * (u - d_u)
        s_u = 1.0 + np.linalg.norm(K.rmatvec(sigma_s * ops.p_vec)) + sigma_d * np.linalg.norm(d_u)
    else:
        grad_data = sigma_d * K.rmatvec(K.matvec(u - d_u))
        s_u = 1.0 + np.linalg.norm(K.rmatvec(sigma_s * ops.p_vec))
    r_u = np.linalg.norm(K.rmatvec(lam) + grad_data)
    return {
        "kappa_equation": float(r_kappa / s_kappa),
        "state_equation": float(r_u / s_u),
        "multiplier_norm": float(np.linalg.norm(lam)),
    }


def _solve_joint(ops, flavor, d_u, sigma_s, sigma_d, u_init, kappa_init,
                 gamma_s, gamma_p, method, max_iter, gtol):
    u0, kappa0 = u_init.copy(), kappa_init.copy()
    A_d = ops.a_cols(d_u) if flavor == "vfm" else None  # A(d_u), constant

    def phi(u, kappa):
        r = _stacked_residual(ops, flavor, u, kappa, d_u, sigma_s, sigma_d,
                              gamma_s, gamma_p, u_init, kappa_init)
        return 0.5 * float(r @ r), r

    u, kappa = u0.copy(), kappa0.copy()
    obj, r = phi(u, kappa)
    history = [obj]
    converged = False
    message = "max iterations reached"
    it = 0
    rejected = 0  # trial points a step search turned down

    def kappa_subproblem(u):
        """Exact least-squares update of kappa at fixed state."""
        A = ops.a_cols(u)
        rows = [math.sqrt(sigma_s) * A]
        tgt = [math.sqrt(sigma_s) * ops.p_vec]
        if flavor == "vfm":
            rows.append(math.sqrt(sigma_d) * (A - A_d))
            tgt.append(np.zeros(ops.n_rows))
        if gamma_p > 0.0:
            rows.append(math.sqrt(gamma_p) * np.eye(2))
            tgt.append(math.sqrt(gamma_p) * kappa_init)
        return np.linalg.lstsq(np.vstack(rows), np.concatenate(tgt), rcond=None)[0]

    def state_subproblem(kappa):
        """Exact minimization over u at fixed kappa.

        In the offset w = u - d_u the normal equations read
        (s K^T K + delta I) w = sigma_s K^T r0 + gamma_s (u_init - d_u), with
        s = sigma_s (+ sigma_d for the semi-norm) and delta = gamma_s
        (+ sigma_d for the Euclidean mismatch).  K = K_fr(kappa) has fewer
        rows than columns, so that matrix is singular to rounding once
        s ||K||^2 exceeds delta / eps; the same w is w = K^T y + v, with
        v = gamma_s (u_init - d_u) / delta and the full-rank system
        (s K K^T + delta I) y = sigma_s r0 - s K v.
        """
        K, r0 = ops.data_residual(kappa, d_u)
        s = sigma_s + (sigma_d if flavor == "vfm" else 0.0)
        delta = gamma_s + (sigma_d if flavor == "fem" else 0.0)
        v = gamma_s / delta * (u_init - d_u) if gamma_s > 0.0 else np.zeros(ops.n_u)
        y = ops.solve(ops.kkt(kappa, s, delta), sigma_s * r0 - s * K.matvec(v))
        return d_u + K.rmatvec(y) + v

    if method == "gauss_seidel":
        for it in range(1, max_iter + 1):
            kappa_prev = kappa.copy()
            u_prev = u.copy()
            kappa = kappa_subproblem(u)
            u = state_subproblem(kappa)
            obj, r = phi(u, kappa)
            history.append(obj)
            settled_kappa = np.linalg.norm(kappa - kappa_prev) <= 1e-11 * (1.0 + np.linalg.norm(kappa))
            settled_u = np.linalg.norm(u - u_prev) <= 1e-11 * (1.0 + np.linalg.norm(u))
            if it > 1 and settled_kappa and settled_u:
                converged = True
                message = "block updates below tolerance"
                break
        foc = aao_foc_residuals(ops, flavor, u, kappa, d_u, sigma_s, sigma_d)
        return u, kappa, obj, it, converged, message, history, foc, rejected

    # Variable projection: both residual blocks are linear in u for fixed
    # kappa, so the state is eliminated exactly and the remaining problem
    # lives in the two parameter coordinates.  Joint Gauss-Newton steps on
    # the stacked residual stall in the curved, nearly flat valley around the
    # physics-exact manifold whenever one weight dominates; the projected
    # iteration has no such valley and its fixed point satisfies the same
    # joint first-order conditions (the state equation holds exactly by
    # construction of the inner solve).
    k2_scale = float((ops.k_fr(kappa0).data ** 2).sum()) / ops.n_rows

    if flavor == "vfm" and gamma_s == 0.0 and gamma_p == 0.0:
        # With v = K_fr w the inner minimum is v = sigma_s r0 / (sigma_s +
        # sigma_d), so the projected objective is proportional to ||r0||^2 --
        # the equilibrium-gap objective, minimized by one least-squares
        # solve of A(d_u) kappa = p_vec; the kernel part of the state stays
        # at the data.
        it = 1
        kappa = np.linalg.lstsq(A_d, ops.p_vec, rcond=None)[0]
        K, r0 = ops.data_residual(kappa, d_u)
        shrink = sigma_s / (sigma_s + sigma_d)
        u = d_u + K.rmatvec(ops.solve(ops.kkt(kappa), shrink * r0))
        obj, r = phi(u, kappa)
        history.append(obj)
        converged = True
        message = "equilibrium-gap collapse"
    elif flavor == "fem" and gamma_s == 0.0 and gamma_p == 0.0 and sigma_d < 1e-10 * sigma_s * k2_scale:
        # The data weight is below the resolvable trade-off against the
        # physics term, so the objective is lexicographic to machine
        # precision: enforce the physics rows exactly and minimize
        # ||u - d_u|| over the remaining freedom.  Gauss-Newton on the
        # minimum-norm correction w(kappa) = K^T (K K^T)^{-1} r0(kappa), with
        # its exact Jacobian from the factor of K K^T (``min_norm_jacobian``):
        # the factor of an accepted trial gives the next Jacobian, so the
        # iteration factors once per trial point.  It stops at first-order
        # optimality to rounding, ||J^T w|| <= 1e-8 ||J||_F ||w||; the
        # step-size and "stationary" exits remain for a start that cannot
        # get there.
        w, kept = ops.min_norm_correction(kappa, d_u)
        lam_damp = 1e-3
        for it in range(1, max_iter + 1):
            J = ops.min_norm_jacobian(d_u, w, kept)
            g = J.T @ w
            if np.linalg.norm(g) <= 1e-8 * np.linalg.norm(J) * np.linalg.norm(w):
                converged = True
                message = "first-order optimality (lexicographic)"
                break
            H = J.T @ J
            accepted = False
            for _ in range(40):
                step = np.linalg.solve(H + lam_damp * np.diag(np.diag(H)), -g)
                kappa_new = kappa + step
                w_new, kept_new = ops.min_norm_correction(kappa_new, d_u)
                if np.isfinite(w_new @ w_new) and w_new @ w_new <= w @ w:
                    accepted = True
                    break
                rejected += 1
                lam_damp *= 10.0
            if not accepted:
                converged = True
                message = "stationary (lexicographic)"
                break
            lam_damp = max(lam_damp / 10.0, 1e-12)
            dkappa = np.linalg.norm(kappa_new - kappa)
            kappa, w, kept = kappa_new, w_new, kept_new
            if dkappa <= 1e-10 * (1.0 + np.linalg.norm(kappa)):
                converged = True
                message = "step below tolerance (lexicographic)"
                break
        u = d_u + w
        obj, r = phi(u, kappa)
        history.append(obj)
    else:
        # Newton on the exact projected gradient (envelope theorem): at the
        # inner minimum, d(phi)/d(kappa) equals the partial derivative of the
        # objective at fixed state.
        def grad(kappa):
            u_star = state_subproblem(kappa)
            K = ops.k_fr(kappa)
            A = ops.a_cols(u_star)
            rphys = A @ kappa - ops.p_vec
            g = sigma_s * (A.T @ rphys)
            if flavor == "vfm":
                dA = A - A_d
                g = g + sigma_d * (dA.T @ K.matvec(u_star - d_u))
            if gamma_p > 0.0:
                g = g + gamma_p * (kappa - kappa_init)
            return u_star, g, A

        u, g, A = grad(kappa)
        g_scale = 1.0 + np.linalg.norm(A.T @ (sigma_s * ops.p_vec))
        for it in range(1, max_iter + 1):
            if np.linalg.norm(g) <= 1e-6 * gtol * g_scale:
                converged = True
                message = "projected gradient below tolerance"
                break
            h = 1e-5 * np.maximum(np.abs(kappa), 1.0)
            Gj = np.empty((2, 2))
            for j in range(2):
                pert = kappa.copy()
                pert[j] += h[j]
                Gj[:, j] = (grad(pert)[1] - g) / h[j]
            try:
                step = np.linalg.solve(Gj, -g)
            except np.linalg.LinAlgError:
                converged = True
                message = "singular projected Hessian (stationary)"
                break
            t = 1.0
            accepted = False
            for _ in range(25):
                kappa_new = kappa + t * step
                u_new, g_new, _ = grad(kappa_new)
                if np.all(np.isfinite(g_new)) and np.linalg.norm(g_new) < np.linalg.norm(g):
                    accepted = True
                    break
                rejected += 1
                t *= 0.5
            if not accepted:
                converged = True
                message = "gradient at noise floor"
                break
            dkappa = np.linalg.norm(kappa_new - kappa)
            u, kappa, g = u_new, kappa_new, g_new
            if dkappa <= 1e-10 * (1.0 + np.linalg.norm(kappa)):
                converged = True
                message = "step below tolerance"
                break
        obj, r = phi(u, kappa)
        history.append(obj)
    foc = aao_foc_residuals(ops, flavor, u, kappa, d_u, sigma_s, sigma_d)
    return u, kappa, obj, it, converged, message, history, foc, rejected


def _aao_solve(flavor, mesh, part, data, sigma_s, sigma_d, beta0, sigma_r, m,
               gamma_s, gamma_p, method, starts, seed, max_iter, gtol):
    d_u, p_check = full_field_vectors(mesh, part, data)
    ops = AaoOperators(mesh, part, p_check, sigma_r=sigma_r, m=m)
    if flavor == "vfm" and ops.n_rows < ops.n_u:
        warnings.warn(
            "semi-norm data term is rank deficient; the joint solution is "
            "unique only up to the physics-row kernel (consider gamma_s > 0)",
            stacklevel=2,
        )
    if beta0 is None:
        u_init, kappa_init = d_u.copy(), DEFAULT_KAPPA0.copy()
    else:
        u_init, kappa_init = np.asarray(beta0[0], float).copy(), np.asarray(beta0[1], float).copy()

    rng = np.random.default_rng(seed)
    runs = []
    for start in range(starts):
        if start == 0:
            u0, k0 = u_init, kappa_init
        else:
            k0 = kappa_init * rng.uniform(0.9, 1.1, size=2)
            u0 = u_init * rng.uniform(0.95, 1.05)
        runs.append(
            _solve_joint(ops, flavor, d_u, sigma_s, sigma_d, u0, k0,
                         gamma_s, gamma_p, method, max_iter, gtol)
        )
    best = min(runs, key=lambda t: t[2])
    u, kappa, obj, its, converged, message, history, foc, rejected = best
    E, nu = E_nu_from_c_coords(*kappa)
    kappas = np.array([r[1] for r in runs])
    diagnostics = {
        "history": history,
        "rejected_steps": rejected,
        "starts": starts,
        "kappa_spread": np.ptp(kappas, axis=0) if starts > 1 else np.zeros(2),
        "all_start_kappas": kappas,
        "sigma_s": sigma_s,
        "sigma_d": sigma_d,
        "sigma_r": sigma_r,
        "method": method,
        "flavor": flavor,
    }
    return AaoResult(u=u, kappa_c=kappa, E=E, nu=nu, objective=obj,
                     iterations=its, converged=converged, message=message,
                     foc=foc, diagnostics=diagnostics)


def aao_fem_solve(mesh, part, data, sigma_s=1.0, sigma_d=1e-5, beta0=None,
                  sigma_r=1e4, m=None, gamma_s=0.0, gamma_p=0.0,
                  method="gauss_newton", starts=1, seed=0,
                  max_iter=200, gtol=1e-6) -> AaoResult:
    """Joint state/parameter estimate with Euclidean displacement mismatch."""
    return _aao_solve("fem", mesh, part, data, sigma_s, sigma_d, beta0, sigma_r,
                      m, gamma_s, gamma_p, method, starts, seed, max_iter, gtol)


def aao_vfm_solve(mesh, part, data, sigma_s=1.0, sigma_d=1e-10, beta0=None,
                  sigma_r=1e4, m=None, gamma_s=0.0, gamma_p=0.0,
                  method="gauss_newton", starts=1, seed=0,
                  max_iter=200, gtol=1e-6) -> AaoResult:
    """Joint estimate with the stiffness semi-norm as data mismatch."""
    return _aao_solve("vfm", mesh, part, data, sigma_s, sigma_d, beta0, sigma_r,
                      m, gamma_s, gamma_p, method, starts, seed, max_iter, gtol)


# ---------------------------------------------------------------------------
# Landweber iteration (all-at-once setting)
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class AaoLandweberResult:
    u: np.ndarray
    kappa_c: np.ndarray
    E: float
    nu: float
    objectives: np.ndarray
    iterations: int
    converged: bool


def landweber_aao(mesh, part, data, sigma_s=1.0, sigma_d=1e-5, beta0=None,
                  sigma_r=1e4, m=None, flavor="fem", max_iter=100_000,
                  tol=1e-9, seed=0) -> AaoLandweberResult:
    """Gradient descent on the joint objective using only operator products.

    No linear system is factorized inside the iteration: the gradient and the
    step-size estimate (power iteration for ||J||^2, keeping mu ||J||^2 < 2)
    are assembled from sparse matrix-vector products alone.  A(u) is formed
    once per state, and A(d_u) once per run.  The objective is
    kept monotone by step halving.
    """
    d_u, p_check = full_field_vectors(mesh, part, data)
    ops = AaoOperators(mesh, part, p_check, sigma_r=sigma_r, m=m)
    if beta0 is None:
        u, kappa = d_u.copy(), DEFAULT_KAPPA0.copy()
    else:
        u, kappa = np.asarray(beta0[0], float).copy(), np.asarray(beta0[1], float).copy()
    su = max(np.abs(d_u).max(), 1e-12)
    sk = np.maximum(np.abs(kappa), 1.0)
    A_d = ops.a_cols(d_u) if flavor == "vfm" else None  # A(d_u), constant

    def gradient(u, kappa):
        """Objective and gradient at (u, kappa), and A(u)."""
        A = ops.a_cols(u)
        r1 = A @ kappa - ops.p_vec
        K = ops.k_fr(kappa)
        if flavor == "fem":
            gu = sigma_s * K.rmatvec(r1) + sigma_d * (u - d_u)
            obj = 0.5 * sigma_s * float(r1 @ r1) + 0.5 * sigma_d * float((u - d_u) @ (u - d_u))
        else:
            r2 = K.matvec(u - d_u)
            gu = sigma_s * K.rmatvec(r1) + sigma_d * K.rmatvec(r2)
            obj = 0.5 * sigma_s * float(r1 @ r1) + 0.5 * sigma_d * float(r2 @ r2)
        gk = sigma_s * (A.T @ r1)
        if flavor == "vfm":
            dA = A - A_d
            gk = gk + sigma_d * (dA.T @ K.matvec(u - d_u))
        return obj, gu, gk, A

    def gn_matvec(v, K, A, dA):
        # v -> S J^T J S v using only products with the residual blocks.
        vu = su * v[:-2]
        vk = sk * v[-2:]
        w1 = math.sqrt(sigma_s) * (K.matvec(vu) + A @ vk)
        out_u = math.sqrt(sigma_s) * K.rmatvec(w1)
        out_k = math.sqrt(sigma_s) * (A.T @ w1)
        if flavor == "fem":
            out_u = out_u + sigma_d * vu
        else:
            w2 = math.sqrt(sigma_d) * (K.matvec(vu) + dA @ vk)
            out_u = out_u + math.sqrt(sigma_d) * K.rmatvec(w2)
            out_k = out_k + math.sqrt(sigma_d) * (dA.T @ w2)
        return np.concatenate([su * out_u, sk * out_k])

    obj, gu, gk, A = gradient(u, kappa)
    objectives = [obj]
    converged = False
    mu = None
    rng = np.random.default_rng(seed)
    for it in range(1, max_iter + 1):
        if mu is None or it % 500 == 0:
            K = ops.k_fr(kappa)
            dA = (A - A_d) if flavor == "vfm" else None
            v = rng.normal(size=ops.n_u + 2)
            v /= np.linalg.norm(v)
            L = 0.0
            for _ in range(30):
                w = gn_matvec(v, K, A, dA)
                n = np.linalg.norm(w)
                if n == 0.0:
                    break
                v = w / n
                L = float(v @ gn_matvec(v, K, A, dA))
            mu = 1.0 / max(L, 1e-300)  # mu ||J||^2 = 1 < 2
        g_scaled = np.concatenate([su * gu, sk * gk])
        if not np.all(np.isfinite(g_scaled)):
            raise DivergenceError("Landweber gradient is not finite")
        step_norm = mu * np.linalg.norm(g_scaled)
        if step_norm <= tol * (1.0 + np.linalg.norm(np.concatenate([u / su, kappa / sk]))):
            converged = True
            break
        mu_try = mu
        accepted = False
        for _ in range(60):
            u_new = u - mu_try * su * su * gu
            kappa_new = kappa - mu_try * sk * sk * gk
            obj_new, gu_new, gk_new, A_new = gradient(u_new, kappa_new)
            if np.isfinite(obj_new) and obj_new <= obj:
                accepted = True
                break
            mu_try *= 0.5
        if not accepted:
            converged = True
            break
        u, kappa, obj, gu, gk, A = u_new, kappa_new, obj_new, gu_new, gk_new, A_new
        objectives.append(obj)
    E, nu = E_nu_from_c_coords(*kappa)
    return AaoLandweberResult(u=u, kappa_c=kappa, E=E, nu=nu,
                              objectives=np.array(objectives),
                              iterations=len(objectives) - 1, converged=converged)
