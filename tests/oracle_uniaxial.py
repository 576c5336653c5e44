"""The secant-iteration uniaxial driver that ``materials.uniaxial_plastic_driver``
replaced for eta > 0, kept as its oracle.

Each step solves for the lateral strain at which the transverse stress
vanishes, by a secant iteration over :func:`uniaxial_step`, a scalar copy of
``materials.integrate_viscoplastic_step`` for diagonal states.  The corrector
is looked up on the ``materials`` module at each call, so a test that patches
``materials._solve_plastic_multiplier`` runs this driver over its patch.
Test-only; apart from that corrector it shares no code with the package
beyond ``MaterialState`` and the error types.  The step-size check and its
message are those of ``materials.integrate_viscoplastic_step``.
"""

import math

import numpy as np

from calibrix import materials
from calibrix.errors import DriverError, IntegrationError
from calibrix.materials import MaterialState

_SQ23 = math.sqrt(2.0 / 3.0)


def diag(x_ax, x_lat) -> np.ndarray:
    """The diagonal (x_ax, x_lat, x_lat) of a uniaxial tensor.

    The BLAS dot of two such diagonals accumulates in the same order as
    ``materials._inner`` on the full tensors, whose off-diagonal zeros add
    nothing, so the Frobenius product is bit-identical.  A plain float sum is
    not: the BLAS kernel accumulates with fused multiply-adds.
    """
    return np.array((x_ax, x_lat, x_lat))


def uniaxial_step(state, e_ax, e_lat, dt, K, G, pp, x, nbb):
    """``integrate_viscoplastic_step`` for a uniaxial state, on scalars.

    Every tensor of a uniaxial step is diag(x_ax, x_lat, x_lat), so the step
    is carried by its axial and lateral diagonal entries.  ``state`` is the
    tuple (viscous strain ax, lat, backstress ax, lat, arc length) and the
    total strain is diag(e_ax, e_lat, e_lat).  ``x`` is the state's backstress
    diagonal, ``diag(x_ax, x_lat)``, and ``nbb`` its X:X, ``float(x.dot(x))``:
    they depend on the state only, so a caller that evaluates one state at
    several strains builds them once.  The same floating-point operations run
    in the same order as in the 3x3 routine, so the results are
    bit-identical.  Returns (new state, axial stress, lateral stress).
    """
    if not 0.0 < dt < math.inf:
        raise IntegrationError(f"step size must be positive and finite, got dt={dt}")
    ev_ax, ev_lat, x_ax, x_lat, arc = state
    tr_e = (e_ax + e_lat) + e_lat
    mean = tr_e / 3.0
    dev_ax, dev_lat = e_ax - mean, e_lat - mean
    g2 = 2.0 * G
    a_ax, a_lat = g2 * (dev_ax - ev_ax), g2 * (dev_lat - ev_lat)
    xi = diag(a_ax - x_ax, a_lat - x_lat)
    f_trial = 0.5 * float(xi.dot(xi)) - pp.k * pp.k / 3.0
    p = K * tr_e

    if f_trial < 0.0:
        return state, p + a_ax, p + a_lat

    a = diag(a_ax, a_lat)
    dlam = materials._solve_plastic_multiplier(float(a.dot(a)), float(a.dot(x)), nbb, G, pp,
                                               dt)

    if dlam == 0.0:
        return state, p + a_ax, p + a_lat

    theta = 1.0 / (1.0 + pp.b * _SQ23 * dlam)
    h_ax, h_lat = a_ax - theta * x_ax, a_lat - theta * x_lat
    h = diag(h_ax, h_lat)
    nhat = math.sqrt(float(h.dot(h)))
    q_ax, q_lat = h_ax / nhat, h_lat / nhat
    q_mean = ((q_ax + q_lat) + q_lat) / 3.0
    n_ax, n_lat = q_ax - q_mean, q_lat - q_mean

    ev_ax, ev_lat = ev_ax + dlam * n_ax, ev_lat + dlam * n_lat
    cd = pp.c * dlam
    x_ax, x_lat = theta * (x_ax + cd * n_ax), theta * (x_lat + cd * n_lat)
    new_state = (ev_ax, ev_lat, x_ax, x_lat, arc + _SQ23 * dlam)
    return new_state, p + g2 * (dev_ax - ev_ax), p + g2 * (dev_lat - ev_lat)


def _driver_inputs(axial_strain, dt) -> tuple[np.ndarray, list]:
    """The strain history as a float array and the step sizes as a list of
    Python floats, one per step; raises DriverError for a history that is
    not a non-empty 1-d array starting at 0."""
    eps = np.asarray(axial_strain, dtype=float)
    if eps.ndim != 1 or eps.size == 0:
        raise DriverError("axial strain history must be a non-empty 1-d array")
    if eps[0] != 0.0:
        raise DriverError(f"strain history must start at 0, got {eps[0]}")
    n = eps.size
    dts = np.broadcast_to(np.asarray(dt, dtype=float), (n - 1,)).tolist() if n > 1 else []
    return eps, dts


def uniaxial_secant_driver(
    axial_strain: np.ndarray,
    dt,
    ep,
    pp,
    lateral_tol: float | None = None,
    max_iter: int = 30,
) -> tuple[np.ndarray, np.ndarray, MaterialState]:
    """``uniaxial_plastic_driver`` by a secant iteration on the lateral strain.

    Solves, at every step, for the lateral strain such that the transverse
    stresses vanish, seeded with the elastic slope d(sigma22)/d(eps_lat), to
    ``|sigma22| <= lateral_tol`` (default 1e-9 k) in at most ``max_iter``
    secant updates.  Each evaluation of the transverse stress is one
    :func:`uniaxial_step`, the scalar form of ``integrate_viscoplastic_step``
    for diagonal states, with bit-identical results; the state and stress of
    the step are those of the last (converged) evaluation.  The state does
    not change across a step's evaluations, so its backstress diagonal and
    X:X are built once per step.
    """
    eps, dts = _driver_inputs(axial_strain, dt)
    n = eps.size
    tol = lateral_tol if lateral_tol is not None else 1e-9 * pp.k

    K, G = ep.bulk, ep.shear
    eps_ax = eps.tolist()
    sigma_ax = [0.0] * n
    eps_lat = [0.0] * n
    state = (0.0, 0.0, 0.0, 0.0, 0.0)
    slope_elastic = 2.0 * K + 2.0 * G / 3.0
    trial = None

    for i in range(1, n):
        # Linear extrapolation of the previous lateral strains as the guess.
        if i >= 2:
            guess = 2.0 * eps_lat[i - 1] - eps_lat[i - 2]
        else:
            guess = -ep.nu * eps_ax[i]
        e_ax, dt_i = eps_ax[i], dts[i - 1]
        x = diag(state[2], state[3])
        nbb = float(x.dot(x))

        def transverse_stress(el):
            # Keeps (state, sigma_ax, sigma_lat) of the evaluation: the last
            # one is the step.
            nonlocal trial
            trial = uniaxial_step(state, e_ax, el, dt_i, K, G, pp, x, nbb)
            return trial[2]

        # Secant iteration, seeded with the elastic slope d(sigma22)/d(eps_lat).
        el0 = guess
        g0 = transverse_stress(el0)
        converged = abs(g0) <= tol
        el, g = el0, g0
        if not converged:
            el = el0 - g0 / slope_elastic
            for _ in range(max_iter):
                g = transverse_stress(el)
                if abs(g) <= tol:
                    converged = True
                    break
                if g == g0:
                    break
                el, el0, g0 = el - g * (el - el0) / (g - g0), el, g
        if not converged:
            raise DriverError(
                f"lateral-strain iteration failed at step {i} "
                f"(axial strain {eps[i]:.4g}, residual {g:.3e})"
            )

        state, sigma_ax[i], _ = trial
        eps_lat[i] = el

    ev_ax, ev_lat, x_ax, x_lat, arc = state
    final = MaterialState(viscous_strain=np.diag([ev_ax, ev_lat, ev_lat]),
                          backstress=np.diag([x_ax, x_lat, x_lat]), arc_length=arc)
    return np.array(sigma_ax), np.array(eps_lat), final
