"""Reduced-approach calibration.

The forward model is enforced exactly (each evaluation solves the governing
system) and only the material parameters are optimized: damped Gauss-Newton
(Levenberg-Marquardt) on the weighted least-squares objective, and a
gradient-descent (Landweber) variant for comparison with the direct solver.
The sensitivities come from the model's own ``jacobian`` where it has one
(the plate differentiates its solve with the factor already in hand), and
otherwise by external forward-difference differentiation, the paper's
reference method.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DivergenceError, JacobianError


@dataclass(eq=False)
class ForwardModel:
    """Parameter-to-observable map s(kappa) with box bounds.

    ``simulate`` returns the stacked simulated observation vector in the same
    layout as the paired data.  ``comps`` names the observation blocks the
    model predicts, used to slice an ObservationSet.  ``jacobian``, where the
    model has one, returns the exact sensitivity matrix (n_data x n_params)
    at kappa without a forward evaluation when kappa is the point of the
    model's last evaluation; ``solve_nls`` uses it in place of
    ``jacobian_external_nd``.
    """

    simulate: Callable[[np.ndarray], np.ndarray]
    names: tuple = ("kappa_1", "kappa_2")
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    comps: tuple | None = None
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, kappa) -> np.ndarray:
        return np.asarray(self.simulate(np.asarray(kappa, dtype=float)), dtype=float)

    @property
    def n_params(self) -> int:
        return len(self.names)

    def clip(self, kappa) -> np.ndarray:
        kappa = np.asarray(kappa, dtype=float)
        if self.lower is not None:
            kappa = np.maximum(kappa, self.lower)
        if self.upper is not None:
            kappa = np.minimum(kappa, self.upper)
        return kappa


def data_vectors(model: ForwardModel, data) -> tuple[np.ndarray, np.ndarray]:
    """Extract (d, W) for the blocks the model predicts."""
    if hasattr(data, "select") and model.comps is not None:
        d, W, _ = data.select(model.comps)
        return d, W
    if hasattr(data, "d") and hasattr(data, "W"):
        return np.asarray(data.d, float), np.asarray(data.W, float)
    d, W = data
    return np.asarray(d, dtype=float), np.asarray(W, dtype=float)


def default_nd_steps(kappa) -> np.ndarray:
    """Forward-difference steps: max(1e-6 |kappa_i|, 1e-8)."""
    return np.maximum(1e-6 * np.abs(np.asarray(kappa, dtype=float)), 1e-8)


def jacobian_external_nd(
    model: ForwardModel, kappa, steps=None, base: np.ndarray | None = None
) -> np.ndarray:
    """Forward-difference sensitivity matrix (n_data x n_params).

    Costs n_params + 1 forward evaluations (n_params if ``base`` is supplied).
    A negative step gives the backward difference.
    """
    kappa = np.asarray(kappa, dtype=float)
    steps = default_nd_steps(kappa) if steps is None else np.broadcast_to(
        np.asarray(steps, dtype=float), kappa.shape
    )
    s0 = model(kappa) if base is None else base
    J = np.empty((s0.size, kappa.size))
    for j in range(kappa.size):
        pert = kappa.copy()
        pert[j] += steps[j]
        try:
            sj = model(pert)
        except Exception as exc:
            raise JacobianError(
                f"forward evaluation failed while perturbing parameter "
                f"{model.names[j] if j < len(model.names) else j} ({exc})"
            ) from exc
        J[:, j] = (sj - s0) / steps[j]
    return J


def _sensitivities(model: ForwardModel, kappa, s, nd_steps=None) -> tuple[np.ndarray, int]:
    """J at kappa, whose forward evaluation is s, and the forward evaluations
    spent: ``model.jacobian``'s where the model has one, else forward
    differences with ``nd_steps``."""
    if model.jacobian is not None:
        return np.asarray(model.jacobian(kappa), dtype=float), 0
    return jacobian_external_nd(model, kappa, nd_steps, base=s), model.n_params


@dataclass(eq=False)
class CalibrationResult:
    """Parameter estimate with solver diagnostics and (optional) uncertainty."""

    kappa: np.ndarray
    names: tuple
    objective: float
    iterations: int
    n_evals: int
    residual: np.ndarray
    jacobian: np.ndarray
    hessian: np.ndarray
    converged: bool
    message: str
    history: list = field(default_factory=list)
    covariance: np.ndarray | None = None
    std: np.ndarray | None = None
    ci: np.ndarray | None = None
    s2: float | None = None
    identifiable: bool | None = None
    eig_ratio: float | None = None
    det_hessian: float | None = None


def solve_nls(
    model: ForwardModel,
    data,
    kappa0,
    gtol: float = 1e-6,
    ftol: float = 1e-8,
    xtol: float = 1e-8,
    max_iter: int = 50,
    nd_steps=None,
    damping0: float = 1e-3,
    ci_level: float = 0.95,
) -> CalibrationResult:
    """Weighted nonlinear least squares by damped Gauss-Newton.

    Damping starts at 1e-3, grows x10 on step rejection and shrinks /10 on
    acceptance.  Terminates on the scaled gradient norm (gtol), on relative
    objective change (ftol), or on step size (xtol).  Always returns the best
    iterate; a singular normal matrix flags the result as non-identifiable.
    The sensitivities are ``model.jacobian``'s where the model has one, each
    taken at the point just evaluated, and forward differences with
    ``nd_steps`` otherwise; ``n_evals`` counts the forward evaluations.
    """
    d, W = data_vectors(model, data)
    kappa = model.clip(kappa0)
    s = model(kappa)
    n_evals = 1
    rw = W * (s - d)
    phi = 0.5 * float(rw @ rw)
    grad_scale = 1.0
    lam = damping0
    history = [phi]
    converged = False
    singular = False
    message = "max iterations reached"
    iterations = 0

    J = None  # the Jacobian at kappa; None once kappa has moved past it
    for iterations in range(1, max_iter + 1):
        J, spent = _sensitivities(model, kappa, s, nd_steps)
        n_evals += spent
        Jw = W[:, None] * J
        g = Jw.T @ rw
        grad_scale = 1.0 + np.linalg.norm(Jw.T @ (W * d))
        if np.linalg.norm(g) <= gtol * grad_scale:
            converged = True
            message = "first-order optimality"
            break
        H = Jw.T @ Jw
        diag = np.diag(H).copy()
        diag[diag <= 0.0] = max(diag.max(), 1.0)
        accepted = False
        for _ in range(40):
            try:
                step = np.linalg.solve(H + lam * np.diag(diag), -g)
            except np.linalg.LinAlgError:
                singular = True
                lam *= 10.0
                continue
            kappa_new = model.clip(kappa + step)
            s_new = model(kappa_new)
            n_evals += 1
            rw_new = W * (s_new - d)
            phi_new = 0.5 * float(rw_new @ rw_new)
            if np.isfinite(phi_new) and phi_new < phi:
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            message = "no acceptable step (stalled)"
            break
        lam = max(lam / 10.0, 1e-14)
        dphi = phi - phi_new
        dx = np.linalg.norm(kappa_new - kappa)
        kappa, s, rw, phi = kappa_new, s_new, rw_new, phi_new
        J = None
        history.append(phi)
        if dphi <= ftol * max(phi, 1e-30) or dx <= xtol * (1.0 + np.linalg.norm(kappa)):
            converged = True
            message = "step/function change below tolerance"
            break

    if J is None:
        J, spent = _sensitivities(model, kappa, s, nd_steps)
        n_evals += spent
    Jw = W[:, None] * J
    H = Jw.T @ Jw
    r = s - d
    result = CalibrationResult(
        kappa=kappa,
        names=model.names,
        objective=phi,
        iterations=iterations,
        n_evals=n_evals,
        residual=r,
        jacobian=J,
        hessian=H,
        converged=converged and not singular,
        message=message if not singular else message + "; singular normal equations",
        history=history,
    )
    from .uq import attach_uncertainty  # deferred: uq consumes this module's results

    attach_uncertainty(result, level=ci_level)
    return result


# ---------------------------------------------------------------------------
# Landweber iteration (reduced setting)
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class LandweberResult:
    kappa: np.ndarray
    history: np.ndarray  # iterates, shape (n_iter + 1, n_params)
    objectives: np.ndarray
    iterations: int
    converged: bool


def _power_iteration_norm(H: np.ndarray, iters: int = 50, seed: int = 0) -> float:
    """Largest eigenvalue estimate of a symmetric PSD matrix."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=H.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = H @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        lam = float(v @ H @ v)
    return lam


def landweber_reduced(
    model: ForwardModel,
    data,
    kappa0,
    scale=None,
    max_iter: int = 10_000,
    tol: float = 1e-10,
    nd_steps=None,
) -> LandweberResult:
    """Gradient descent kappa <- kappa - mu J^T W^2 r with adaptive step.

    ``scale`` non-dimensionalizes the parameters (default |kappa0|); the step
    satisfies mu ||J||^2 < 2 via a power-iteration estimate of the scaled
    normal matrix, and is halved until the objective decreases monotonically.
    The sensitivities are ``model.jacobian``'s where the model has one, each
    taken at the iterate just evaluated, and forward differences with
    ``nd_steps`` otherwise, as in ``solve_nls``.
    """
    d, W = data_vectors(model, data)
    kappa = np.asarray(kappa0, dtype=float).copy()
    S = np.abs(kappa) if scale is None else np.asarray(scale, dtype=float)
    S = np.where(S > 0.0, S, 1.0)
    iterates = [kappa.copy()]
    s = model(kappa)
    rw = W * (s - d)
    phi = 0.5 * float(rw @ rw)
    objectives = [phi]
    converged = False
    for it in range(1, max_iter + 1):
        J, _ = _sensitivities(model, kappa, s, nd_steps)
        Jw = (W[:, None] * J) * S[None, :]
        g_scaled = Jw.T @ rw  # gradient in the scaled variables
        L = _power_iteration_norm(Jw.T @ Jw)
        if L == 0.0:
            converged = True
            break
        mu = 1.0 / L  # mu * ||J||^2 = 1 < 2
        if np.linalg.norm(mu * g_scaled) <= tol * (1.0 + np.linalg.norm(kappa / S)):
            converged = True
            break
        accepted = False
        for _ in range(60):
            kappa_new = kappa - mu * S * g_scaled
            if not np.all(np.isfinite(kappa_new)):
                raise DivergenceError("Landweber iterate is not finite")
            s_new = model(kappa_new)
            rw_new = W * (s_new - d)
            phi_new = 0.5 * float(rw_new @ rw_new)
            if np.isfinite(phi_new) and phi_new <= phi:
                accepted = True
                break
            mu *= 0.5
        if not accepted:
            converged = True  # cannot descend further: at a stationary point
            break
        kappa, s, rw, phi = kappa_new, s_new, rw_new, phi_new
        iterates.append(kappa.copy())
        objectives.append(phi)
    return LandweberResult(
        kappa=kappa,
        history=np.array(iterates),
        objectives=np.array(objectives),
        iterations=len(iterates) - 1,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# Multiplier form of the first-order conditions (linear-elastic, matched grid)
# ---------------------------------------------------------------------------


def reduced2_multiplier_residual(decomp, data, kappa_c, pbar, ubar) -> float:
    """Consistency of the adjoint (multiplier) form of the optimality system.

    For the linear-elastic problem with displacements observed on all free
    dofs: solves the state, then the multiplier system
    K^T Lambda_u = -W^T W (u - d_u) with the same factor (K is symmetric),
    and returns
    the scaled norm of A_S^T Lambda_u, which must vanish at the
    least-squares solution.
    ``kappa_c`` is in (C11, C12) coordinates.
    """
    from .mesh_fem import assemble_parameter_matrices  # loaded with decomp's module

    d_u, W_u = data
    u, factor = decomp.solve(kappa_c, pbar, ubar)
    lam_u = factor.solve(-(W_u**2) * (u - d_u))
    a_s, _ = assemble_parameter_matrices(decomp.mesh, decomp.part, u, ubar)
    resid = a_s.T @ lam_u
    scale = 1.0 + np.linalg.norm(a_s.T @ ((W_u**2) * d_u))
    return float(np.linalg.norm(resid) / scale)
