"""Constitutive models and material-point drivers.

Isotropic linear elasticity in the (E, nu) and (K, G) parameterizations,
plane-stress reduction, and a small-strain von Mises viscoplasticity model
with Armstrong-Frederick kinematic hardening.  The viscoplastic update uses
an elastic-predictor / inelastic-corrector scheme whose corrector reduces to
a single scalar equation through the radial-return structure of the model.
The uniaxial driver reduces the model to one scalar recursion in the axial
plastic strain: closed-form for the rate-independent limit, and one scalar
viscous equation per step otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DriverError, IntegrationError, ParameterError

# Normalizer inside the Macauley bracket of the overstress function.  Fixed,
# not a material parameter; it only makes the bracket argument dimensionless.
SIGMA_0 = 1.0  # N/mm^2

_SQ23 = math.sqrt(2.0 / 3.0)
_EYE3 = np.eye(3)
# Relative bracket width (or, in the uniaxial viscous step, Newton step) at
# which a corrector accepts its iterate.
_BRACKET_RTOL = 4.0 * float(np.finfo(float).eps)

_NEWTON_MAX_ITER = 50
_NEWTON_TOL = 1e-10


def _store_floats(params) -> None:
    """Store each field of a frozen parameter dataclass as a Python float."""
    for f in fields(params):
        value = getattr(params, f.name)
        try:
            object.__setattr__(params, f.name, float(value))
        except (TypeError, ValueError, OverflowError):
            raise ParameterError(f"{f.name} must be a real number, got {value!r}") from None


@dataclass(frozen=True)
class ElasticParams:
    """Isotropic linear elasticity, stored as (E, nu).

    Units: E in N/mm^2, nu dimensionless.  Use :meth:`from_bulk_shear` to
    construct from (K, G).  Both fields are stored as Python floats, whatever
    number type is passed (callers pass array elements: sampler walkers, NLS
    iterates): the point model's scalar arithmetic gives the same bits on
    Python floats as on numpy scalars at about half the cost.  A value that
    ``float()`` rejects raises ParameterError.
    """

    E: float
    nu: float

    def __post_init__(self):
        _store_floats(self)
        if not (self.E > 0.0):
            raise ParameterError(f"Young's modulus must be positive, got E={self.E}")
        if not (-1.0 < self.nu < 0.5):
            raise ParameterError(f"Poisson's ratio must lie in (-1, 0.5), got nu={self.nu}")

    @classmethod
    def from_bulk_shear(cls, K: float, G: float) -> "ElasticParams":
        if not (K > 0.0 and G > 0.0):
            raise ParameterError(f"bulk and shear moduli must be positive, got K={K}, G={G}")
        E, nu = convert_K_G_to_E_nu(K, G)
        return cls(E=E, nu=nu)

    @property
    def bulk(self) -> float:
        return self.E / (3.0 * (1.0 - 2.0 * self.nu))

    @property
    def shear(self) -> float:
        return self.E / (2.0 * (1.0 + self.nu))


def convert_E_nu_to_K_G(E: float, nu: float) -> tuple[float, float]:
    """(E, nu) -> (K, G).  Raises for nu = 0.5 (incompressible limit)."""
    if nu >= 0.5:
        raise ParameterError(f"bulk modulus undefined for nu >= 0.5, got nu={nu}")
    return E / (3.0 * (1.0 - 2.0 * nu)), E / (2.0 * (1.0 + nu))


def convert_K_G_to_E_nu(K: float, G: float) -> tuple[float, float]:
    """(K, G) -> (E, nu), inverse of :func:`convert_E_nu_to_K_G`."""
    if K <= 0.0 or G <= 0.0:
        raise ParameterError(f"bulk and shear moduli must be positive, got K={K}, G={G}")
    E = 9.0 * K * G / (3.0 * K + G)
    nu = (3.0 * K - 2.0 * G) / (2.0 * (3.0 * K + G))
    return E, nu


def elasticity_matrix_plane_stress(params: ElasticParams) -> np.ndarray:
    """3x3 plane-stress elasticity matrix in Voigt order (e11, e22, g12)."""
    E, nu = params.E, params.nu
    f = E / (1.0 - nu * nu)
    return f * np.array(
        [
            [1.0, nu, 0.0],
            [nu, 1.0, 0.0],
            [0.0, 0.0, 0.5 * (1.0 - nu)],
        ]
    )


def c_coords_from_E_nu(E: float, nu: float) -> tuple[float, float]:
    """(E, nu) -> (C11, C12) plane-stress coordinates."""
    f = E / (1.0 - nu * nu)
    return f, nu * f


def E_nu_from_c_coords(c11: float, c12: float) -> tuple[float, float]:
    """(C11, C12) -> (E, nu), inverse of :func:`c_coords_from_E_nu`."""
    if c11 <= 0.0:
        raise ParameterError(f"C11 must be positive, got {c11}")
    nu = c12 / c11
    return c11 * (1.0 - nu * nu), nu


@dataclass(frozen=True)
class PlasticParams:
    """Von Mises viscoplasticity with Armstrong-Frederick kinematic hardening.

    k     yield stress (N/mm^2)
    b, c  kinematic-hardening saturation rate (-) and modulus (N/mm^2)
    eta   viscosity (s); eta = 0 selects the rate-independent limit
    r     overstress exponent (-)

    All fields are stored as Python floats, for the reason given in
    :class:`ElasticParams`: the return map and its Newton corrector do all
    their scalar arithmetic on them.
    """

    k: float
    b: float = 0.0
    c: float = 0.0
    eta: float = 0.0
    r: float = 1.0

    def __post_init__(self):
        _store_floats(self)
        if not (self.k > 0.0):
            raise ParameterError(f"yield stress must be positive, got k={self.k}")
        if self.b < 0.0 or self.c < 0.0 or self.eta < 0.0:
            raise ParameterError(
                f"hardening/viscosity parameters must be non-negative, got "
                f"b={self.b}, c={self.c}, eta={self.eta}"
            )
        if self.r < 1.0:
            raise ParameterError(f"overstress exponent must satisfy r >= 1, got r={self.r}")

    @property
    def rate_independent(self) -> bool:
        return self.eta == 0.0


@dataclass(frozen=True)
class MaterialState:
    """Internal variables at one material point.

    viscous_strain and backstress are symmetric deviatoric 3x3 tensors;
    arc_length is the accumulated viscous arc length (monotone in time).
    """

    viscous_strain: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
    backstress: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
    arc_length: float = 0.0


def _dev(t: np.ndarray) -> np.ndarray:
    return t - (t.trace() / 3.0) * _EYE3


def _inner(x: np.ndarray, y: np.ndarray) -> float:
    """Frobenius inner product x:y of two 3x3 tensors.

    The same length-9 BLAS dot that ``np.tensordot(x, y)`` reaches, so the
    result is bit-identical, without its reshape and transpose overhead.
    """
    return float(np.dot(x.ravel(), y.ravel()))


def _solve_plastic_multiplier(naa, nab, nbb, G, pp: PlasticParams, dt):
    """Scalar corrector equation for the plastic increment ``dlam``.

    naa, nab, nbb are the inner products a.a, a.X, X.X of the deviatoric
    trial stress a = 2G dev(E - E_v) and the old backstress X.  Returns the
    converged increment; the modified trial direction and norms follow from
    it in closed form.

    With theta = 1/(1 + b sqrt(2/3) dlam), the modified trial norm is
    |xi| = sqrt(naa - 2 theta nab + theta^2 nbb) - (2G + c theta) dlam.  The
    rate-independent residual |xi| - sqrt(2/3) k is solved first, on a
    bracket [0, hi] whose upper end doubles until the residual there is not
    positive: its root closes the consistency condition for eta = 0 and
    bounds the viscous root from above otherwise.  The viscous residual
    dlam/dt - <f/SIGMA_0>^r/eta, with f = |xi|^2/2 - k^2/3, is then solved on
    [0, dlam_ri].  One safeguarded-Newton loop finds both roots, evaluating
    the residual and its derivative inline.  It bisects whenever a Newton
    step leaves the bracket, and accepts the iterate once |residual| <= 1e-10
    or the bracket has shrunk to machine precision (the residual is then
    roundoff-limited); it raises IntegrationError after 50 iterates.
    ``over**r`` that overflows a Python float counts as inf, as numpy scalars
    return it, so such a step ends in that error.
    """
    k, c, r = pp.k, pp.c, pp.r
    bs = pp.b * _SQ23
    nbs = -pp.b * _SQ23
    g2 = 2.0 * G
    sq23k = _SQ23 * k
    # viscous: which residual; newton: False while the bracket's ends are
    # evaluated; grow: the rate-independent bracket's upper end is evaluated.
    # Tests read ``not (a <= b)`` rather than ``a > b`` so that a NaN takes
    # the branch it always took.
    viscous = newton = grow = False
    x = lo = hi = 0.0
    while True:
        theta = 1.0 / (1.0 + bs * x)
        q = naa - 2.0 * theta * nab + theta * theta * nbb
        nhat = math.sqrt(0.0 if 0.0 > q else q)
        h = g2 + c * theta
        nxi = nhat - h * x
        if viscous:
            over = (0.5 * nxi * nxi - k2_3) / SIGMA_0
            if 0.0 > over:
                over = 0.0
            try:
                p = over**r
            except OverflowError:
                p = math.inf
            res = x / dt - inv_eta * p
        else:
            res = nxi - sq23k

        if newton:
            if it == _NEWTON_MAX_ITER:
                raise IntegrationError(
                    f"plastic corrector did not converge in {_NEWTON_MAX_ITER} iterations "
                    f"(residual {res:.3e})"
                )
            it += 1
            if not (-_NEWTON_TOL <= res <= _NEWTON_TOL):
                # The residual keeps its sign at lo throughout.
                if (res > 0.0) == pos_lo:
                    lo = x
                else:
                    hi = x
                # hi >= 0 (G > 0), so this is max(abs(hi), 1e-300).
                if not (hi - lo <= _BRACKET_RTOL * (hi if hi > 1e-300 else 1e-300)):
                    dtheta = nbs * theta * theta
                    dnhat = ((theta * nbb - nab) * dtheta / nhat) if nhat > 0.0 else 0.0
                    d = dnhat - h - c * dtheta * x
                    if viscous:
                        try:
                            p = over**r1
                        except OverflowError:
                            p = math.inf
                        d = inv_dt - inv_eta_r * p * (nxi * d / SIGMA_0)
                    x_new = x - res / d if d != 0.0 else lo
                    x = x_new if lo < x_new < hi else 0.5 * (lo + hi)
                    continue
        elif viscous:  # the viscous residual at 0
            if res >= -_NEWTON_TOL:
                return 0.0
            newton, pos_lo, lo, hi, it = True, res > 0.0, 0.0, dlam_ri, 0
            x = 0.5 * (lo + hi)
            continue
        elif grow:  # the rate-independent residual at hi
            if res > 0.0:
                hi *= 2.0
                x = hi
                continue
            newton, lo, it = True, 0.0, 0
            x = 0.5 * (lo + hi)
            continue
        elif not (res <= _NEWTON_TOL):  # the rate-independent residual at 0
            grow, pos_lo, hi = True, res > 0.0, res / g2
            x = hi
            continue

        # x is the root of the current residual.
        if viscous or pp.rate_independent:
            return x
        viscous, newton, dlam_ri, x = True, False, x, 0.0
        k2_3 = k * k / 3.0
        inv_dt = 1.0 / dt
        inv_eta = 1.0 / pp.eta
        inv_eta_r = inv_eta * r
        r1 = r - 1.0


def integrate_viscoplastic_step(
    state: MaterialState,
    strain: np.ndarray,
    dt: float,
    ep: ElasticParams,
    pp: PlasticParams,
) -> tuple[MaterialState, np.ndarray]:
    """One implicit (backward Euler) step of the viscoplastic model.

    Given the state at the previous time and the total strain at the new
    time, returns the updated state and the 3x3 stress tensor.  ``dt`` must
    be positive and finite; for the rate-independent limit (eta = 0) it only
    labels the step.
    """
    if not 0.0 < dt < math.inf:
        raise IntegrationError(f"step size must be positive and finite, got dt={dt}")
    K, G = ep.bulk, ep.shear
    strain = np.asarray(strain, dtype=float)
    tr_e = strain.trace()
    dev_e = strain - (tr_e / 3.0) * _EYE3

    a = 2.0 * G * (dev_e - state.viscous_strain)
    xi_trial = a - state.backstress
    f_trial = 0.5 * _inner(xi_trial, xi_trial) - pp.k * pp.k / 3.0

    if f_trial < 0.0:
        sigma = K * tr_e * _EYE3 + a
        return state, sigma

    naa = _inner(a, a)
    nab = _inner(a, state.backstress)
    nbb = _inner(state.backstress, state.backstress)
    dlam = _solve_plastic_multiplier(naa, nab, nbb, G, pp, dt)

    if dlam == 0.0:
        sigma = K * tr_e * _EYE3 + a
        return state, sigma

    theta = 1.0 / (1.0 + pp.b * _SQ23 * dlam)
    xi_hat = a - theta * state.backstress
    nhat = math.sqrt(_inner(xi_hat, xi_hat))
    n_dir = _dev(xi_hat / nhat)

    ev_new = state.viscous_strain + dlam * n_dir
    x_new = theta * (state.backstress + pp.c * dlam * n_dir)
    s_new = state.arc_length + _SQ23 * dlam
    new_state = MaterialState(viscous_strain=ev_new, backstress=x_new, arc_length=s_new)
    sigma = K * tr_e * _EYE3 + 2.0 * G * (dev_e - ev_new)
    return new_state, sigma


def _viscous_increment(d_ri, phi, B, Eb, b, k, a, r):
    """The increment D = |dp| of a viscous uniaxial step, in (0, d_ri].

    At the end of a step with increment D the overstress norm is
    g(D) = (phi - B D - E b D^2)/(1 + b D), in the terms of
    :func:`uniaxial_plastic_driver`, and f(D) = g(2k + g)/3 is the 3x3 model's
    f = |xi|^2/2 - k^2/3, since |xi| = sqrt(2/3)|sigma - y|.  With
    dlam = sqrt(3/2) D, the 3x3 viscous residual dlam/dt - <f/SIGMA_0>^r/eta
    has the root of F(D) = f(D)/SIGMA_0 - (a D)^(1/r), a = eta sqrt(3/2)/dt,
    which does not span hundreds of decades for large r.  F is positive at 0
    (phi > 0) and negative at the rate-independent increment ``d_ri``.

    Safeguarded Newton runs on w = (a D)^(1/r), from w at ``d_ri``, bisecting
    whenever a step leaves the bracket: in w, F = f(w^r/a)/SIGMA_0 - w has
    slope -1 at 0, where (a D)^(1/r) has an infinite one, so a root far below
    ``d_ri`` takes a few iterates, not one bisection per halving.  It accepts
    its iterate once |F| is within 4 ulp of max(f, w), or once the bracket or
    the Newton step has shrunk to machine precision: f carries the rounding
    of phi - B D, far above its ulp when the step ends close to the yield
    surface.  It raises IntegrationError after 50 iterates.
    """
    two_k = 2.0 * k
    lo, hi = 0.0, (a * d_ri) ** (1.0 / r)
    w = hi
    for _ in range(_NEWTON_MAX_ITER):
        d = w**r / a
        q = 1.0 + b * d
        g = (phi - B * d - Eb * d * d) / q
        f = g * (two_k + g) / (3.0 * SIGMA_0)
        res = f - w
        if abs(res) <= _BRACKET_RTOL * (f if f > w else w):
            return d
        if res > 0.0:
            lo = w
        else:
            hi = w
        if hi - lo <= _BRACKET_RTOL * hi:
            return d
        dg = (-B - 2.0 * Eb * d - b * g) / q
        step = res / (2.0 * (k + g) * dg / (3.0 * SIGMA_0) * (r * d / w) - 1.0)
        if abs(step) <= _BRACKET_RTOL * w:
            # A step below w's resolution still moves d: dD/D = r dw/w.
            return d - r * d * step / w
        w_new = w - step
        w = w_new if lo < w_new < hi else 0.5 * (lo + hi)
    raise IntegrationError(
        f"plastic corrector did not converge in {_NEWTON_MAX_ITER} iterations "
        f"(residual {res:.3e})"
    )


def uniaxial_plastic_driver(
    axial_strain: np.ndarray,
    dt,
    ep: ElasticParams,
    pp: PlasticParams,
) -> tuple[np.ndarray, np.ndarray, MaterialState]:
    """Displacement-controlled uniaxial tension of a single material point.

    Drives the axial strain through ``axial_strain`` (which must start at 0)
    with the transverse stresses held at zero.  Returns the axial stress
    history, the lateral strain history, and the final state.

    In uniaxial stress every deviatoric tensor is proportional to
    diag(1, -1/2, -1/2), so the model reduces to a scalar recursion in the
    axial plastic strain p and y = 1.5 X_ax (Simo & Hughes, Computational
    Inelasticity, 1998, ch. 1-2).  Each step takes the trial stress
    s* = E(eps - p), xi* = s* - y and phi = |xi*| - k.  When phi > 0, the
    rate-independent increment D = |dp| is the positive root of
    E b D^2 + B D - phi = 0 with B = E + 1.5c - b(sign(xi*) s* - k), taken in
    its cancellation-free form; for eta > 0 the increment solves one scalar
    viscous equation on (0, D] (:func:`_viscous_increment`).  The lateral
    strain follows from the elastic law and plastic incompressibility, and
    the final state is p diag(1, -1/2, -1/2) and (y/1.5) diag(1, -1/2, -1/2).
    This is the 3x3 model of :func:`integrate_viscoplastic_step` at the
    exact lateral strain.

    ``dt`` is a scalar step duration or an array of length
    ``len(axial_strain) - 1``; any other shape raises DriverError, and a step
    that is not positive and finite raises IntegrationError at that step.
    Strains and step sizes are read as Python floats, as the parameters are
    stored, so every step runs on Python-float arithmetic.
    """
    eps = np.asarray(axial_strain, dtype=float)
    if eps.ndim != 1 or eps.size == 0:
        raise DriverError("axial strain history must be a non-empty 1-d array")
    if eps[0] != 0.0:
        raise DriverError(f"strain history must start at 0, got {eps[0]}")
    if not np.isfinite(eps).all():
        raise DriverError("axial strain history must be finite")
    n = eps.size
    dt = np.asarray(dt, dtype=float)
    if dt.ndim != 0 and dt.shape != (n - 1,):
        raise DriverError(f"dt must be a scalar or hold len(axial_strain) - 1 = {n - 1} "
                          f"step sizes, got shape {dt.shape}")
    dts = np.broadcast_to(dt, (n - 1,)).tolist()
    E, K, G = ep.E, ep.bulk, ep.shear
    k, b, c15 = pp.k, pp.b, 1.5 * pp.c
    viscous, rate = not pp.rate_independent, pp.eta * math.sqrt(1.5)
    lat_e, lat_p, lat_d = 3.0 * K - 2.0 * G, 3.0 * G, 6.0 * K + 2.0 * G
    eps_ax = eps.tolist()
    sigma_ax = [0.0] * n
    eps_lat = [0.0] * n
    p = y = arc = 0.0

    for i in range(1, n):
        dt_i = dts[i - 1]
        if not 0.0 < dt_i < math.inf:
            raise IntegrationError(f"step size must be positive and finite, got dt={dt_i}")
        e = eps_ax[i]
        sig = E * (e - p)
        xi = sig - y
        s = 1.0 if xi > 0.0 else -1.0
        phi = s * xi - k
        if phi > 0.0:
            B = E + c15 - b * (s * sig - k)
            root = math.sqrt(B * B + 4.0 * E * b * phi)
            d = 2.0 * phi / (B + root) if B >= 0.0 else (root - B) / (2.0 * E * b)
            if viscous:
                d = _viscous_increment(d, phi, B, E * b, b, k, rate / dt_i, pp.r)
            p += s * d
            y = (y + c15 * s * d) / (1.0 + b * d)
            arc += d
            sig = E * (e - p)
        sigma_ax[i] = sig
        eps_lat[i] = -(lat_e * e + lat_p * p) / lat_d

    x = y / 1.5
    final = MaterialState(viscous_strain=np.diag([p, -0.5 * p, -0.5 * p]),
                          backstress=np.diag([x, -0.5 * x, -0.5 * x]), arc_length=arc)
    return np.array(sigma_ax), np.array(eps_lat), final
