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
import scipy.sparse as sp

from .errors import DivergenceError
from .materials import E_nu_from_c_coords
from .identify_vfm import full_field_vectors
from .mesh_fem import (
    DofPartition,
    Mesh,
    StiffnessDecomposition,
    _factor,
    default_resultant_selector,
    prescribed_values,
    zero_force_rows,
)

DEFAULT_KAPPA0 = np.array([225000.0, 65000.0])  # (C11, C12) starting point


class AaoOperators:
    """Row-reduced stiffness operators split by elasticity coefficient.

    K_fr(kappa) = kappa_1 K_fr_a + kappa_2 K_fr_b, and the bilinear identity
    A(u) kappa = K_fr(kappa) u + Kbar_fr(kappa) ubar gives the parameter-side
    matrix A(u) as two matrix-vector products.
    """

    def __init__(self, mesh: Mesh, part: DofPartition, p_check: float,
                 sigma_r: float = 1e4, m: np.ndarray | None = None):
        self.mesh = mesh
        self.part = part
        self.sigma_r = sigma_r
        if m is None:
            m = default_resultant_selector(mesh, part)
        decomp = StiffnessDecomposition.from_mesh(mesh, part)
        zero = zero_force_rows(mesh, part)
        root = math.sqrt(sigma_r)
        self.K_fr = []
        self.Kbar_fr = []
        for block in decomp.blocks:
            self.K_fr.append(
                sp.vstack([block.K[zero], sp.csr_matrix(root * (m @ block.Kbar.T))]).tocsr()
            )
            self.Kbar_fr.append(
                sp.vstack([block.Kbar[zero], sp.csr_matrix(root * (m @ block.Kbarbar))]).tocsr()
            )
        self.ubar = prescribed_values(mesh, part)
        self.p_vec = np.zeros(len(zero) + 1)
        self.p_vec[-1] = root * p_check
        self.n_rows = len(zero) + 1
        self.n_u = part.n_free

    def k_fr(self, kappa) -> sp.csr_matrix:
        return (kappa[0] * self.K_fr[0] + kappa[1] * self.K_fr[1]).tocsr()

    def solve(self, M: sp.csc_matrix, r: np.ndarray) -> np.ndarray:
        """x with M x = r, for the solvers' two sparse systems: K K^T of the
        minimum-norm correction and the normal matrix of the state
        subproblem.  SolverError only when M does not factor."""
        return _factor(M).solve(r)

    def physics_residual(self, u, kappa) -> np.ndarray:
        return self.a_cols(u) @ kappa - self.p_vec

    def a_cols(self, u) -> np.ndarray:
        """A(u, ubar) as a dense (n_rows, 2) matrix of operator products."""
        return np.column_stack(
            [
                self.K_fr[0] @ u + self.Kbar_fr[0] @ self.ubar,
                self.K_fr[1] @ u + self.Kbar_fr[1] @ self.ubar,
            ]
        )


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
        parts.append(math.sqrt(sigma_d) * (ops.k_fr(kappa) @ (u - d_u)))
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
    lam = sigma_s * ops.physics_residual(u, kappa)
    A = ops.a_cols(u)
    r_kappa = np.linalg.norm(A.T @ lam)
    s_kappa = 1.0 + np.linalg.norm(A.T @ (sigma_s * ops.p_vec))
    K = ops.k_fr(kappa)
    if flavor == "fem":
        grad_data = sigma_d * (u - d_u)
        s_u = 1.0 + np.linalg.norm(K.T @ (sigma_s * ops.p_vec)) + sigma_d * np.linalg.norm(d_u)
    else:
        grad_data = sigma_d * (K.T @ (K @ (u - d_u)))
        s_u = 1.0 + np.linalg.norm(K.T @ (sigma_s * ops.p_vec))
    r_u = np.linalg.norm(K.T @ lam + grad_data)
    return {
        "kappa_equation": float(r_kappa / s_kappa),
        "state_equation": float(r_u / s_u),
        "multiplier_norm": float(np.linalg.norm(lam)),
    }


def _solve_joint(ops, flavor, d_u, sigma_s, sigma_d, u_init, kappa_init,
                 gamma_s, gamma_p, method, max_iter, gtol):
    u0, kappa0 = u_init.copy(), kappa_init.copy()

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

    def kappa_subproblem(u):
        """Exact least-squares update of kappa at fixed state."""
        rows = [math.sqrt(sigma_s) * ops.a_cols(u)]
        tgt = [math.sqrt(sigma_s) * ops.p_vec]
        if flavor == "vfm":
            rows.append(math.sqrt(sigma_d) * (ops.a_cols(u) - ops.a_cols(d_u)))
            tgt.append(np.zeros(ops.n_rows))
        if gamma_p > 0.0:
            rows.append(math.sqrt(gamma_p) * np.eye(2))
            tgt.append(math.sqrt(gamma_p) * kappa_init)
        return np.linalg.lstsq(np.vstack(rows), np.concatenate(tgt), rcond=None)[0]

    def state_subproblem(kappa):
        """Exact minimization over u at fixed kappa (sparse normal equations).

        Solved in the offset w = u - d_u: the right-hand side is then a
        residual-sized vector with no component along the weakly penalized
        kernel of the physics rows, which keeps the kernel part of the state
        at the data even for very small data weights.
        """
        K = ops.k_fr(kappa)
        b = ops.p_vec - (kappa[0] * ops.Kbar_fr[0] + kappa[1] * ops.Kbar_fr[1]) @ ops.ubar
        r0 = b - K @ d_u  # physics residual carried by the data state
        if flavor == "fem":
            H = (sigma_s * (K.T @ K) + (sigma_d + gamma_s) * sp.identity(ops.n_u)).tocsc()
            rhs = sigma_s * (K.T @ r0) + gamma_s * (u_init - d_u)
        else:
            # The semi-norm leaves ker(K_fr) free; a vanishing anchor keeps
            # those directions at the data.
            anchor = max(1e-12 * sigma_s * (K.power(2)).sum() / ops.n_u, 1e-300)
            H = ((sigma_s + sigma_d) * (K.T @ K)
                 + (anchor + gamma_s) * sp.identity(ops.n_u)).tocsc()
            rhs = sigma_s * (K.T @ r0) + gamma_s * (u_init - d_u)
        return d_u + ops.solve(H, rhs)

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
        return u, kappa, obj, it, converged, message, history, foc

    # Variable projection: both residual blocks are linear in u for fixed
    # kappa, so the state is eliminated exactly and the remaining problem
    # lives in the two parameter coordinates.  Joint Gauss-Newton steps on
    # the stacked residual stall in the curved, nearly flat valley around the
    # physics-exact manifold whenever one weight dominates; the projected
    # iteration has no such valley and its fixed point satisfies the same
    # joint first-order conditions (the state equation holds exactly by
    # construction of the inner solve).
    def r0_of(kappa):
        K = ops.k_fr(kappa)
        b = ops.p_vec - (kappa[0] * ops.Kbar_fr[0] + kappa[1] * ops.Kbar_fr[1]) @ ops.ubar
        return K, b - K @ d_u

    k2_scale = float((ops.k_fr(kappa0).power(2)).sum()) / ops.n_rows

    if flavor == "vfm" and gamma_s == 0.0 and gamma_p == 0.0:
        # With v = K_fr w the inner minimum is v = sigma_s r0 / (sigma_s +
        # sigma_d), so the projected objective is proportional to ||r0||^2 --
        # the equilibrium-gap objective.  Its minimizer solves the direct
        # normal equations; the kernel part of the state stays at the data.
        for it in range(1, max_iter + 1):
            kappa_prev = kappa.copy()
            K, r0 = r0_of(kappa)
            A = ops.a_cols(d_u)
            kappa = np.linalg.lstsq(A, ops.p_vec, rcond=None)[0]
            if np.linalg.norm(kappa - kappa_prev) <= 1e-12 * (1.0 + np.linalg.norm(kappa)):
                break
        K, r0 = r0_of(kappa)
        shrink = sigma_s / (sigma_s + sigma_d)
        lam_mn = ops.solve((K @ K.T).tocsc(), shrink * r0)
        u = d_u + K.T @ lam_mn
        obj, r = phi(u, kappa)
        history.append(obj)
        converged = True
        message = "equilibrium-gap collapse"
    elif flavor == "fem" and gamma_s == 0.0 and gamma_p == 0.0 and sigma_d < 1e-10 * sigma_s * k2_scale:
        # The data weight is below the resolvable trade-off against the
        # physics term, so the objective is lexicographic to machine
        # precision: enforce the physics rows exactly and minimize
        # ||u - d_u|| over the remaining freedom.  Gauss-Newton on the
        # minimum-norm correction w(kappa) = K^T (K K^T)^{-1} r0(kappa).
        def min_norm_w(kappa):
            K, r0 = r0_of(kappa)
            return K.T @ ops.solve((K @ K.T).tocsc(), r0)

        w = min_norm_w(kappa)
        lam_damp = 1e-3
        for it in range(1, max_iter + 1):
            h = 1e-6 * np.maximum(np.abs(kappa), 1.0)
            J = np.empty((w.size, 2))
            for j in range(2):
                pert = kappa.copy()
                pert[j] += h[j]
                J[:, j] = (min_norm_w(pert) - w) / h[j]
            g = J.T @ w
            H = J.T @ J
            accepted = False
            for _ in range(40):
                step = np.linalg.solve(H + lam_damp * np.diag(np.diag(H)), -g)
                kappa_new = kappa + step
                w_new = min_norm_w(kappa_new)
                if np.isfinite(w_new @ w_new) and w_new @ w_new <= w @ w:
                    accepted = True
                    break
                lam_damp *= 10.0
            if not accepted:
                converged = True
                message = "stationary (lexicographic)"
                break
            lam_damp = max(lam_damp / 10.0, 1e-12)
            dkappa = np.linalg.norm(kappa_new - kappa)
            kappa, w = kappa_new, w_new
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
                dA = A - ops.a_cols(d_u)
                g = g + sigma_d * (dA.T @ (K @ (u_star - d_u)))
            if gamma_p > 0.0:
                g = g + gamma_p * (kappa - kappa_init)
            return u_star, g

        u, g = grad(kappa)
        g_scale = 1.0 + np.linalg.norm(ops.a_cols(u).T @ (sigma_s * ops.p_vec))
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
                u_new, g_new = grad(kappa_new)
                if np.all(np.isfinite(g_new)) and np.linalg.norm(g_new) < np.linalg.norm(g):
                    accepted = True
                    break
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
    return u, kappa, obj, it, converged, message, history, foc


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
    u, kappa, obj, its, converged, message, history, foc = best
    E, nu = E_nu_from_c_coords(*kappa)
    kappas = np.array([r[1] for r in runs])
    diagnostics = {
        "history": history,
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
    are assembled from sparse matrix-vector products alone.  The objective is
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

    def gradient(u, kappa):
        r1 = ops.physics_residual(u, kappa)
        K = ops.k_fr(kappa)
        A = ops.a_cols(u)
        if flavor == "fem":
            gu = sigma_s * (K.T @ r1) + sigma_d * (u - d_u)
            obj = 0.5 * sigma_s * float(r1 @ r1) + 0.5 * sigma_d * float((u - d_u) @ (u - d_u))
        else:
            r2 = K @ (u - d_u)
            gu = sigma_s * (K.T @ r1) + sigma_d * (K.T @ r2)
            obj = 0.5 * sigma_s * float(r1 @ r1) + 0.5 * sigma_d * float(r2 @ r2)
        gk = sigma_s * (A.T @ r1)
        if flavor == "vfm":
            dA = A - ops.a_cols(d_u)
            gk = gk + sigma_d * (dA.T @ (K @ (u - d_u)))
        return obj, gu, gk

    def gn_matvec(v, K, A, dA):
        # v -> S J^T J S v using only products with the residual blocks.
        vu = su * v[:-2]
        vk = sk * v[-2:]
        w1 = math.sqrt(sigma_s) * (K @ vu + A @ vk)
        out_u = math.sqrt(sigma_s) * (K.T @ w1)
        out_k = math.sqrt(sigma_s) * (A.T @ w1)
        if flavor == "fem":
            out_u = out_u + sigma_d * vu
        else:
            w2 = math.sqrt(sigma_d) * (K @ vu + dA @ vk)
            out_u = out_u + math.sqrt(sigma_d) * (K.T @ w2)
            out_k = out_k + math.sqrt(sigma_d) * (dA.T @ w2)
        return np.concatenate([su * out_u, sk * out_k])

    obj, gu, gk = gradient(u, kappa)
    objectives = [obj]
    converged = False
    mu = None
    rng = np.random.default_rng(seed)
    for it in range(1, max_iter + 1):
        if mu is None or it % 500 == 0:
            K = ops.k_fr(kappa)
            A = ops.a_cols(u)
            dA = (A - ops.a_cols(d_u)) if flavor == "vfm" else None
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
            obj_new, gu_new, gk_new = gradient(u_new, kappa_new)
            if np.isfinite(obj_new) and obj_new <= obj:
                accepted = True
                break
            mu_try *= 0.5
        if not accepted:
            converged = True
            break
        u, kappa, obj, gu, gk = u_new, kappa_new, obj_new, gu_new, gk_new
        objectives.append(obj)
    E, nu = E_nu_from_c_coords(*kappa)
    return AaoLandweberResult(u=u, kappa_c=kappa, E=E, nu=nu,
                              objectives=np.array(objectives),
                              iterations=len(objectives) - 1, converged=converged)
