"""The closure-based plastic corrector that ``materials._solve_plastic_multiplier``
replaced, kept as its bit-for-bit oracle.

Same equations, operations and operation order as the library's flat loop,
written as the three nested closures (|xi| and its derivative, the
rate-independent residual, the viscous residual) and the safeguarded-Newton
helper it used to be.  Test-only; shares no code with the package beyond its
constants and error type.
"""

import math

from calibrix.errors import IntegrationError
from calibrix.materials import SIGMA_0

_SQ23 = math.sqrt(2.0 / 3.0)
_EPS = 2.220446049250313e-16  # float64 machine epsilon
_NEWTON_MAX_ITER = 50
_NEWTON_TOL = 1e-10


def _power(x, y):
    """x**y, or inf where the result overflows, as numpy scalars return it
    (Python floats raise OverflowError)."""
    try:
        return x**y
    except OverflowError:
        return math.inf


def solve_plastic_multiplier(naa, nab, nbb, G, pp, dt):
    """Scalar corrector equation for the plastic increment ``dlam``."""
    k = pp.k
    sq23k = _SQ23 * k

    def norms(dlam):
        # |xi| at dlam and its derivative, from one evaluation of theta.
        theta = 1.0 / (1.0 + pp.b * _SQ23 * dlam)
        nhat = math.sqrt(max(naa - 2.0 * theta * nab + theta * theta * nbb, 0.0))
        nxi = nhat - (2.0 * G + pp.c * theta) * dlam
        dtheta = -pp.b * _SQ23 * theta * theta
        dnhat = ((theta * nbb - nab) * dtheta / nhat) if nhat > 0.0 else 0.0
        return nxi, dnhat - (2.0 * G + pp.c * theta) - pp.c * dtheta * dlam

    def ri(dlam):
        nxi, dnxi = norms(dlam)
        return nxi - sq23k, dnxi

    def newton(fn, lo, hi, r_lo, r_hi):
        # Safeguarded Newton: bisect whenever the Newton step leaves [lo, hi].
        x = 0.5 * (lo + hi)
        for _ in range(_NEWTON_MAX_ITER):
            r, d = fn(x)
            if abs(r) <= _NEWTON_TOL:
                return x
            if (r > 0.0) == (r_lo > 0.0):
                lo, r_lo = x, r
            else:
                hi, r_hi = x, r
            if hi - lo <= 4.0 * _EPS * max(abs(hi), 1e-300):
                return x
            x_new = x - r / d if d != 0.0 else lo
            if not (lo < x_new < hi):
                x_new = 0.5 * (lo + hi)
            x = x_new
        raise IntegrationError(
            f"plastic corrector did not converge in {_NEWTON_MAX_ITER} iterations "
            f"(residual {fn(x)[0]:.3e})"
        )

    r0 = ri(0.0)[0]
    if r0 <= _NEWTON_TOL:
        dlam_ri = 0.0
    else:
        hi = r0 / (2.0 * G)
        r_hi = ri(hi)[0]
        while r_hi > 0.0:
            hi *= 2.0
            r_hi = ri(hi)[0]
        dlam_ri = newton(ri, 0.0, hi, r0, r_hi)

    if pp.rate_independent:
        return dlam_ri

    inv_eta = 1.0 / pp.eta

    def vp(dlam):
        nxi, dnxi = norms(dlam)
        f = 0.5 * nxi * nxi - k * k / 3.0
        over = max(f / SIGMA_0, 0.0)
        df = nxi * dnxi / SIGMA_0
        return (dlam / dt - inv_eta * _power(over, pp.r),
                1.0 / dt - inv_eta * pp.r * _power(over, pp.r - 1.0) * df)

    r_lo = vp(0.0)[0]
    if r_lo >= -_NEWTON_TOL:
        return 0.0
    return newton(vp, 0.0, dlam_ri, r_lo, vp(dlam_ri)[0])
