"""Tests for the constitutive models and material-point drivers."""

import contextlib
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from calibrix import materials
from calibrix.errors import DriverError, IntegrationError, ParameterError
from calibrix.materials import (
    ElasticParams,
    MaterialState,
    PlasticParams,
    SIGMA_0,
    c_coords_from_E_nu,
    convert_E_nu_to_K_G,
    convert_K_G_to_E_nu,
    E_nu_from_c_coords,
    elasticity_matrix_plane_stress,
    integrate_viscoplastic_step,
    uniaxial_plastic_driver,
)
import oracle_corrector
import oracle_uniaxial
from oracle_corrector import solve_plastic_multiplier as oracle_multiplier
from oracle_plasticity import explicit_path_reference, uniaxial_explicit_reference
from oracle_uniaxial import diag, uniaxial_secant_driver, uniaxial_step

STEEL = dict(K=150991.0, G=79321.0)
HARDENING = dict(k=282.6, b=41.04, c=3499.8)


# ---------------------------------------------------------------------------
# Linear elasticity
# ---------------------------------------------------------------------------


class TestElasticityMatrix:
    def test_unit_modulus_zero_poisson(self):
        C = elasticity_matrix_plane_stress(ElasticParams(E=1.0, nu=0.0))
        assert_allclose(C, np.diag([1.0, 1.0, 0.5]), atol=1e-15)

    def test_steel_values(self):
        C = elasticity_matrix_plane_stress(ElasticParams(E=210000.0, nu=0.3))
        assert_allclose(C[0, 0], 230769.23, atol=0.005)
        assert_allclose(C[0, 1], 69230.77, atol=0.005)
        assert_allclose(C[2, 2], 80769.23, atol=0.005)
        assert_allclose(C, C.T, atol=1e-9)
        assert np.all(np.linalg.eigvalsh(C) > 0.0)

    def test_linearity_in_modulus(self):
        C1 = elasticity_matrix_plane_stress(ElasticParams(E=123456.0, nu=0.27))
        C2 = elasticity_matrix_plane_stress(ElasticParams(E=2 * 123456.0, nu=0.27))
        assert_allclose(C2, 2.0 * C1, rtol=1e-14)

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            ElasticParams(E=-1.0, nu=0.3)
        with pytest.raises(ParameterError):
            ElasticParams(E=1.0, nu=0.5)
        with pytest.raises(ParameterError):
            ElasticParams(E=1.0, nu=-1.0)

    def test_c_coordinate_matrix(self):
        C = elasticity_matrix_plane_stress(ElasticParams(E=210000.0, nu=0.3))
        c11, c12 = c_coords_from_E_nu(210000.0, 0.3)
        assert_allclose([C[0, 0], C[0, 1]], [c11, c12], rtol=1e-14)
        assert_allclose(C[2, 2], 0.5 * (c11 - c12), rtol=1e-14)
        E, nu = E_nu_from_c_coords(*c_coords_from_E_nu(210000.0, 0.3))
        assert_allclose([E, nu], [210000.0, 0.3], rtol=1e-12)

    def test_c_coordinates_initial_guess_pair(self):
        # (C11, C12) = (225000, 65000) corresponds to E = 206222, nu = 0.28889.
        E, nu = E_nu_from_c_coords(225000.0, 65000.0)
        assert_allclose(E, 206222.22, atol=0.5)
        assert_allclose(nu, 0.28889, atol=1e-5)


class TestConversions:
    def test_steel(self):
        K, G = convert_E_nu_to_K_G(210000.0, 0.3)
        assert_allclose(K, 175000.0, rtol=1e-12)
        assert_allclose(G, 80769.23, atol=0.005)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            E = float(rng.uniform(1e3, 3e5))
            nu = float(rng.uniform(-0.5, 0.49))
            K, G = convert_E_nu_to_K_G(E, nu)
            E2, nu2 = convert_K_G_to_E_nu(K, G)
            assert_allclose([E2, nu2], [E, nu], rtol=1e-12)

    def test_tensile_test_estimates(self):
        # Rounded inputs reproduce the reference moduli to 0.1%.
        K, G = convert_E_nu_to_K_G(202465.0, 0.2764)
        assert abs(K - 150937.0) / 150937.0 < 1e-3
        assert abs(G - 79309.0) / 79309.0 < 1e-3

    def test_incompressible_limit_rejected(self):
        with pytest.raises(ParameterError):
            convert_E_nu_to_K_G(1.0, 0.5)


# ---------------------------------------------------------------------------
# Viscoplastic integrator
# ---------------------------------------------------------------------------


def steel_elastic():
    return ElasticParams.from_bulk_shear(**STEEL)


def ramp_path(n, amp=0.05, lateral=-0.45):
    a = np.linspace(0.0, amp, n + 1)
    return np.array([np.diag([x, lateral * x, lateral * x]) for x in a])


class TestIntegrator:
    def test_below_yield_elastic(self):
        ep = steel_elastic()
        pp = PlasticParams(**HARDENING)
        state = MaterialState()
        strain = np.diag([5e-4, -1.5e-4, -1.5e-4])
        new_state, sigma = integrate_viscoplastic_step(state, strain, 1.0, ep, pp)
        assert new_state is state
        dev = sigma - np.trace(sigma) / 3.0 * np.eye(3)
        assert float(np.tensordot(dev, dev)) < (2.0 / 3.0) * pp.k**2

    def test_perfect_plasticity_plateau(self):
        ep = steel_elastic()
        pp = PlasticParams(k=282.6)
        eps = np.linspace(0.0, 0.03, 31)
        sigma, _, _ = uniaxial_plastic_driver(eps, 0.1, ep, pp)
        assert_allclose(sigma[-10:], pp.k, rtol=1e-6)

    def test_matches_explicit_oracle_on_strain_path(self):
        # Implicit 50-step integration against a 10^4-substep explicit oracle.
        ep = steel_elastic()
        pp = PlasticParams(**HARDENING)
        strains = ramp_path(50)
        dts = np.full(50, 0.1)
        ref, _ = explicit_path_reference(strains, dts, STEEL["K"], STEEL["G"],
                                         pp.k, pp.b, pp.c, substeps=200)
        state = MaterialState()
        scale = np.abs(ref[:, 0, 0]).max()
        for i in range(1, 51):
            state, sigma = integrate_viscoplastic_step(state, strains[i], 0.1, ep, pp)
            assert abs(sigma[0, 0] - ref[i, 0, 0]) <= 0.002 * scale

    def test_rate_independent_consistency_post_step(self):
        ep = steel_elastic()
        pp = PlasticParams(**HARDENING)
        strains = ramp_path(40)
        state = MaterialState()
        for i in range(1, 41):
            new_state, sigma = integrate_viscoplastic_step(state, strains[i], 0.1, ep, pp)
            if new_state.arc_length > state.arc_length:
                xi = sigma - np.trace(sigma) / 3.0 * np.eye(3) - new_state.backstress
                f = 0.5 * float(np.tensordot(xi, xi)) - pp.k**2 / 3.0
                assert abs(f) <= 1e-8 * pp.k**2
            state = new_state

    def test_viscous_matches_explicit_oracle(self):
        # Soft material keeps the explicit overstress update stable.
        ep = ElasticParams.from_bulk_shear(2000.0, 1000.0)
        pp = PlasticParams(k=10.0, b=5.0, c=500.0, eta=2.0, r=1.5)
        a = np.linspace(0.0, 0.05, 21)
        strains = np.array([np.diag([x, -0.3 * x, -0.1 * x]) for x in a])
        dts = np.full(20, 0.05)
        ref, _ = explicit_path_reference(strains, dts, 2000.0, 1000.0,
                                         pp.k, pp.b, pp.c, eta=pp.eta, r=pp.r,
                                         substeps=2000)
        state = MaterialState()
        scale = np.abs(ref[:, 0, 0]).max()
        for i in range(1, 21):
            state, sigma = integrate_viscoplastic_step(state, strains[i], 0.05, ep, pp)
            assert abs(sigma[0, 0] - ref[i, 0, 0]) <= 1e-3 * scale

    def test_perzyna_residual_post_step(self):
        ep = ElasticParams.from_bulk_shear(2000.0, 1000.0)
        pp = PlasticParams(k=10.0, b=5.0, c=500.0, eta=2.0, r=1.5)
        a = np.linspace(0.0, 0.05, 21)
        state = MaterialState()
        checked = 0
        for i in range(1, 21):
            strain = np.diag([a[i], -0.3 * a[i], -0.1 * a[i]])
            new_state, sigma = integrate_viscoplastic_step(state, strain, 0.05, ep, pp)
            dlam = (new_state.arc_length - state.arc_length) / np.sqrt(2.0 / 3.0)
            if dlam > 0.0:
                lam = dlam / 0.05
                xi = sigma - np.trace(sigma) / 3.0 * np.eye(3) - new_state.backstress
                f = 0.5 * float(np.tensordot(xi, xi)) - pp.k**2 / 3.0
                assert abs(lam - max(f / SIGMA_0, 0.0) ** pp.r / pp.eta) <= 1e-10
                checked += 1
            state = new_state
        assert checked > 5

    def test_rate_independent_limit_monotone(self):
        ep = steel_elastic()
        eps = np.linspace(0.0, 0.05, 51)
        s0, _, _ = uniaxial_plastic_driver(eps, 0.1, ep, PlasticParams(**HARDENING))
        devs = []
        for eta in (1e-2, 1e-3, 1e-4):
            pp = PlasticParams(**HARDENING, eta=eta, r=1.0)
            s, _, _ = uniaxial_plastic_driver(eps, 0.1, ep, pp)
            devs.append(np.abs(s - s0).max())
        assert devs[0] > devs[1] > devs[2]

    def test_unload_reload_inside_yield_surface(self):
        ep = steel_elastic()
        pp = PlasticParams(**HARDENING)
        state = MaterialState()
        for x in (0.002, 0.004):
            state, _ = integrate_viscoplastic_step(
                state, np.diag([x, -0.4 * x, -0.4 * x]), 0.1, ep, pp
            )
        assert state.arc_length > 0.0
        frozen = state
        for x in (0.0039, 0.004):
            state, _ = integrate_viscoplastic_step(
                state, np.diag([x, -0.4 * 0.004, -0.4 * 0.004]), 0.1, ep, pp
            )
        assert state is frozen

    def test_deviatoric_traces_after_random_walk(self):
        ep = steel_elastic()
        pp = PlasticParams(**HARDENING)
        rng = np.random.default_rng(7)
        state = MaterialState()
        e = np.zeros((3, 3))
        for _ in range(100_000):
            d = rng.normal(scale=2e-4, size=(3, 3))
            e = e + 0.5 * (d + d.T)
            state, _ = integrate_viscoplastic_step(state, e, 0.01, ep, pp)
        assert abs(np.trace(state.viscous_strain)) <= 1e-12
        assert abs(np.trace(state.backstress)) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(
        x=arrays(np.float64, (3, 3), elements=st.floats(-1e150, 1e150)),
        y=arrays(np.float64, (3, 3), elements=st.floats(-1e150, 1e150)),
    )
    def test_flat_inner_product_is_tensordot_bit_for_bit(self, x, y):
        expected = float(np.tensordot(x, y))
        assert materials._inner(x, y) == expected
        assert materials._inner(x, x) == float(np.tensordot(x, x))
        # Transposed (non-contiguous) operands take the same route.
        assert materials._inner(x.T, y.T) == float(np.tensordot(x.T, y.T))

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            PlasticParams(k=-1.0)
        with pytest.raises(ParameterError):
            PlasticParams(k=1.0, r=0.5)
        with pytest.raises(Exception):
            integrate_viscoplastic_step(
                MaterialState(), np.zeros((3, 3)), 0.0,
                steel_elastic(), PlasticParams(**HARDENING),
            )
        # A non-finite step is rejected in the viscous branch too, where a
        # NaN used to pass the positivity test and reach the corrector.
        strain = np.diag([0.01, -0.003, -0.003])
        for dt in (math.nan, math.inf):
            for pp in (PlasticParams(**HARDENING), PlasticParams(**HARDENING, eta=0.1)):
                with pytest.raises(IntegrationError, match=re.escape(
                        f"step size must be positive and finite, got dt={dt}")):
                    integrate_viscoplastic_step(MaterialState(), strain, dt,
                                                steel_elastic(), pp)


# ---------------------------------------------------------------------------
# Scalar uniaxial step
# ---------------------------------------------------------------------------

def signed_floats(lo, hi):
    """Floats x with lo <= |x| <= hi, of either sign."""
    return st.floats(lo, hi) | st.floats(-hi, -lo)


def _bits(*values) -> np.ndarray:
    return np.array(values, dtype=float).view(np.int64)


class TestUniaxialStep:
    """``oracle_uniaxial.uniaxial_step`` against the 3x3 integrator on diagonal
    states, bit for bit.

    The plastic cases are built to yield: |e_ax - e_lat| >= 0.005 drives the
    deviatoric trial stress past every drawn yield stress, whatever the drawn
    viscous strain and backstress.  The elastic case never yields (k = 1e6).
    Non-positive steps must raise the same error in both routines.
    """

    @pytest.mark.parametrize("branch", ["elastic", "rate-independent", "viscous"])
    @settings(max_examples=300, deadline=None)
    @given(
        d=signed_floats(0.005, 0.05),
        e_lat=st.floats(-0.05, 0.05),
        ev=st.tuples(st.floats(-1e-3, 1e-3), st.floats(-1e-3, 1e-3)),
        x=st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)),
        arc=st.floats(0.0, 0.1),
        k=st.floats(20.0, 200.0),
        b=st.floats(0.0, 200.0),
        c=st.floats(0.0, 2e4),
        eta=st.floats(1e-3, 1.0),
        r=st.floats(1.0, 3.0),
        dt=st.floats(-0.1, 2.0),
    )
    def test_bit_identical_to_3x3_integrator(self, branch, d, e_lat, ev, x, arc,
                                             k, b, c, eta, r, dt):
        ep = steel_elastic()
        pp = PlasticParams(k=1e6 if branch == "elastic" else k, b=b, c=c,
                           eta=eta if branch == "viscous" else 0.0, r=r)
        e_ax = e_lat + d
        state = MaterialState(np.diag([ev[0], ev[1], ev[1]]), np.diag([x[0], x[1], x[1]]), arc)
        scalars = (ev[0], ev[1], x[0], x[1], arc)
        xd = diag(x[0], x[1])
        backstress = (xd, float(xd.dot(xd)))
        try:
            new, sig = integrate_viscoplastic_step(
                state, np.diag([e_ax, e_lat, e_lat]), dt, ep, pp)
        except IntegrationError as exc:
            with pytest.raises(IntegrationError, match=re.escape(str(exc))):
                uniaxial_step(scalars, e_ax, e_lat, dt, ep.bulk, ep.shear, pp, *backstress)
            return
        got, sig_ax, sig_lat = uniaxial_step(
            scalars, e_ax, e_lat, dt, ep.bulk, ep.shear, pp, *backstress)

        ev_ax, ev_lat, x_ax, x_lat, s = got
        assert np.array_equal(
            _bits(ev_ax, ev_lat, ev_lat, x_ax, x_lat, x_lat, s, sig_ax, sig_lat, sig_lat),
            _bits(*np.diag(new.viscous_strain), *np.diag(new.backstress), new.arc_length,
                  *np.diag(sig)))
        # The 3x3 state stays diagonal, with +0.0 off the diagonal.
        off = ~np.eye(3, dtype=bool)
        for t in (new.viscous_strain, new.backstress):
            assert np.array_equal(t[off].view(np.int64), np.zeros(6, dtype=np.int64))
        # The integrator returns its input state exactly when it stays
        # elastic: in the elastic case, and in the viscous one where eta/dt
        # overflows, so that the step takes no viscous flow.
        stays = branch == "elastic" or (branch == "viscous" and pp.eta / dt == math.inf)
        assert (new is state) == stays == (got is scalars)


class TestParametersStoreFloats:
    """Parameter fields are Python floats, so the point model runs on them."""

    def test_numpy_scalars_and_array_elements(self):
        values = np.array([2.1e5, 0.3, 250.0, 40.0, 3500.0, 0.5, 2.0])
        for E, nu in ((np.float64(2.1e5), np.float64(0.3)), tuple(values[:2])):
            ep = ElasticParams(E=E, nu=nu)
            assert type(ep.E) is float and type(ep.nu) is float
            assert (ep.E, ep.nu) == (2.1e5, 0.3)
        pp = PlasticParams(*values[2:])
        fields = (pp.k, pp.b, pp.c, pp.eta, pp.r)
        assert all(type(v) is float for v in fields)
        assert fields == tuple(values[2:])
        assert type(PlasticParams(k=np.int64(100)).k) is float
        ep = ElasticParams.from_bulk_shear(np.float64(STEEL["K"]), np.float64(STEEL["G"]))
        assert type(ep.E) is float and type(ep.bulk) is float

    @pytest.mark.parametrize("bad", ["steel", None, 1 + 2j, 10**400, object()],
                             ids=["text", "none", "complex", "huge-int", "object"])
    def test_value_float_rejects_raises_parameter_error(self, bad):
        with pytest.raises(ParameterError, match="must be a real number"):
            ElasticParams(E=bad, nu=0.3)
        with pytest.raises(ParameterError, match="must be a real number"):
            PlasticParams(k=100.0, c=bad)

    @pytest.mark.parametrize("make, name, value", [
        (PlasticParams, "k", math.inf), (PlasticParams, "b", math.nan),
        (PlasticParams, "c", math.nan), (PlasticParams, "c", math.inf),
        (PlasticParams, "eta", math.inf), (PlasticParams, "r", math.inf),
        (ElasticParams, "E", math.inf), (ElasticParams, "nu", math.nan),
        (ElasticParams, "E", np.float64(-np.inf)),
    ], ids=lambda v: v.__name__ if isinstance(v, type) else str(v))
    def test_non_finite_field_raises_parameter_error(self, make, name, value):
        # A NaN or infinite field used to pass the range checks and reach the
        # point model: b = nan gave a NaN stress, c = nan a ZeroDivisionError
        # and r = inf a stress of -1.7e8 N/mm^2.
        fields = dict(k=100.0, b=5.0, c=500.0, eta=1e-3, r=1.5) if make is PlasticParams \
            else dict(E=2.1e5, nu=0.3)
        with pytest.raises(ParameterError, match=re.escape(f"{name} must be finite, got")):
            make(**{**fields, name: value})
        if make is ElasticParams and name == "E":
            with pytest.raises(ParameterError, match=re.escape("E must be finite, got nan")):
                ElasticParams.from_bulk_shear(math.inf, 8e4)


def _numpy_plastic_params(k, b, c, eta, r):
    """PlasticParams' fields as numpy scalars: a namespace skips the coercion."""
    f = np.float64
    return SimpleNamespace(k=f(k), b=f(b), c=f(c), eta=f(eta), r=f(r),
                           rate_independent=eta == 0.0)


class TestMultiplierOnFloats:
    """The Newton corrector gives the same bits on Python floats as on numpy
    scalars, or raises the same error, in every branch: elastic (the
    rate-independent residual is already non-positive), rate-independent,
    viscous, and viscous at exponents where <f/SIGMA_0>^r overflows."""

    BRANCHES = {  # k, eta and r ranges
        "elastic": ((1e6, 1e6), (0.0, 0.0), (1.0, 1.0)),
        "rate-independent": ((20.0, 200.0), (0.0, 0.0), (1.0, 1.0)),
        "viscous": ((20.0, 200.0), (1e-3, 1.0), (1.0, 3.0)),
        "overflow": ((20.0, 200.0), (1e-4, 1e-2), (60.0, 150.0)),
    }

    @pytest.mark.parametrize("branch", list(BRANCHES))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(),
           a_ax=signed_floats(1e3, 2e4),
           x=st.tuples(st.floats(-200.0, 200.0), st.floats(-200.0, 200.0)),
           b=st.floats(0.0, 200.0),
           c=st.floats(0.0, 2e4),
           dt=st.floats(1e-3, 2.0))
    def test_bit_identical_to_numpy_scalars(self, branch, data, a_ax, x, b, c, dt):
        (k_lo, k_hi), (eta_lo, eta_hi), (r_lo, r_hi) = self.BRANCHES[branch]
        k = data.draw(st.floats(k_lo, k_hi))
        eta = data.draw(st.floats(eta_lo, eta_hi))
        r = data.draw(st.floats(r_lo, r_hi))
        a, xd = diag(a_ax, -0.5 * a_ax), diag(*x)
        norms = (float(a.dot(a)), float(a.dot(xd)), float(xd.dot(xd)))
        G = steel_elastic().shear

        def solve(naa, nab, nbb, G, pp, dt):
            try:
                return materials._solve_plastic_multiplier(naa, nab, nbb, G, pp, dt)
            except IntegrationError as exc:
                return exc

        with np.errstate(all="ignore"):
            expected = solve(*(np.float64(v) for v in (*norms, G)),
                             _numpy_plastic_params(k, b, c, eta, r), np.float64(dt))
        got = solve(*norms, G, PlasticParams(k=k, b=b, c=c, eta=eta, r=r), dt)
        if isinstance(expected, IntegrationError):
            assert isinstance(got, IntegrationError) and str(got) == str(expected)
        else:
            assert type(got) is float
            assert np.float64(got).view(np.int64) == np.float64(expected).view(np.int64)
        if branch == "elastic":
            assert got == 0.0


@contextlib.contextmanager
def converged_corrector():
    """Runs the 3x3 step over the closure-based oracle corrector with its
    absolute residual test off, so that it stops only once its bracket has
    shrunk to machine precision (200 iterates allowed).

    At its residual of 1e-10 the oracle leaves up to about E dt 1e-10 in the
    stress, and calls a step elastic while <f/SIGMA_0>^r/eta <= 1e-10: 5e-8
    of the scale at E = 1e4, k = 20, dt = 1.  Converged, it is the reference
    for the library's viscous root wherever its power form converges."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle_corrector, "_NEWTON_TOL", 0.0)
        mp.setattr(oracle_corrector, "_NEWTON_MAX_ITER", 200)
        mp.setattr(materials, "_solve_plastic_multiplier", oracle_multiplier)
        yield


def viscous_root_residual(naa, nab, nbb, G, pp, dt, dlam):
    """f/SIGMA_0 - (eta dlam/dt)^(1/r), the viscous equation
    eta dlam/dt = <f/SIGMA_0>^r in root form, written out from the model at
    the corrector's arguments; it falls through its root."""
    theta = 1.0 / (1.0 + pp.b * math.sqrt(2.0 / 3.0) * dlam)
    nxi = (math.sqrt(naa - 2.0 * theta * nab + theta**2 * nbb)
           - (2.0 * G + pp.c * theta) * dlam)
    return (0.5 * nxi**2 - pp.k**2 / 3.0) / SIGMA_0 - (pp.eta * dlam / dt) ** (1.0 / pp.r)


class TestCorrectorMatchesOracle:
    """The corrector against the closure-based corrector that it replaced
    (``tests/oracle_corrector.py``), in the branches of
    :class:`TestMultiplierOnFloats` and for overstress exponents 5-40.

    Where eta = 0 the two give the same bits, or the same error type and
    message.  Where eta > 0 the library solves the viscous equation in root
    form and the oracle in power form, so the reference is the oracle run to
    machine precision (:func:`converged_corrector`): the two agree within
    1e-12 of the increment wherever that oracle converges.  It does not
    converge at r >= 5 in most draws, nor ever where <f/SIGMA_0>^r overflows;
    there the library's increment must still bracket the root of the viscous
    equation within 1e-12 of itself, by :func:`viscous_root_residual`.
    """

    BRANCHES = {**TestMultiplierOnFloats.BRANCHES,
                "stiff-viscous": ((20.0, 200.0), (1e-3, 10.0), (5.0, 40.0))}
    DRAWS = dict(data=st.data(),
                 a_ax=signed_floats(1e3, 2e4),
                 x=st.tuples(st.floats(-200.0, 200.0), st.floats(-200.0, 200.0)),
                 b=st.floats(0.0, 200.0),
                 c=st.floats(0.0, 2e4),
                 dt=st.floats(1e-3, 2.0))

    def corrector_args(self, branch, data, a_ax, x, b, c, dt):
        (k_lo, k_hi), (eta_lo, eta_hi), (r_lo, r_hi) = self.BRANCHES[branch]
        pp = PlasticParams(k=data.draw(st.floats(k_lo, k_hi)), b=b, c=c,
                           eta=data.draw(st.floats(eta_lo, eta_hi)),
                           r=data.draw(st.floats(r_lo, r_hi)))
        a, xd = diag(a_ax, -0.5 * a_ax), diag(*x)
        return (float(a.dot(a)), float(a.dot(xd)), float(xd.dot(xd)),
                steel_elastic().shear, pp, dt)

    @pytest.mark.parametrize("branch", ["elastic", "rate-independent"])
    @settings(max_examples=300, deadline=None)
    @given(**DRAWS)
    def test_bit_identical_to_closure_oracle(self, branch, **draws):
        args = self.corrector_args(branch, **draws)
        try:
            expected = oracle_multiplier(*args)
        except IntegrationError as exc:
            with pytest.raises(IntegrationError) as info:
                materials._solve_plastic_multiplier(*args)
            assert str(info.value) == str(exc)
            return
        got = materials._solve_plastic_multiplier(*args)
        assert type(got) is float
        assert np.float64(got).view(np.int64) == np.float64(expected).view(np.int64)

    @pytest.mark.parametrize("branch", ["viscous", "overflow", "stiff-viscous"])
    @settings(max_examples=300, deadline=None)
    @given(**DRAWS)
    def test_matches_converged_oracle(self, branch, **draws):
        args = self.corrector_args(branch, **draws)
        naa, nab, nbb, G, pp, dt = args
        got = materials._solve_plastic_multiplier(*args)
        d_ri = materials._solve_plastic_multiplier(naa, nab, nbb, G,
                                                   PlasticParams(k=pp.k, b=pp.b, c=pp.c), dt)
        assert type(got) is float and 0.0 < got < d_ri
        with converged_corrector():
            try:
                ref = materials._solve_plastic_multiplier(*args)
            except IntegrationError:
                ref = None
        if ref is not None:
            assert abs(got - ref) <= 1e-12 * ref
        assert viscous_root_residual(*args, got * (1.0 - 1e-12)) > 0.0
        assert viscous_root_residual(*args, got * (1.0 + 1e-12)) < 0.0

    @settings(max_examples=200, deadline=None)
    @given(E=st.floats(1e4, 3e5), nu=st.floats(0.0, 0.45),
           k=st.floats(20.0, 300.0), b=st.floats(0.0, 200.0), c=st.floats(0.0, 2e4),
           eta=st.floats(1e-3, 10.0), r=st.floats(1.0, 3.0),
           amp=st.floats(0.002, 0.05), cycles=st.floats(0.25, 2.0),
           dt=st.floats(1e-3, 1.0))
    def test_driver_matches_converged_oracle(self, E, nu, k, b, c, eta, r, amp, cycles, dt):
        # A cyclic curve runs the corrector many times from evolving states,
        # some of which barely yield after a reversal.  Its replay through
        # the 3x3 step at the driver's lateral strains gives the same stresses
        # and final state within 1e-12 of the curve's scales over the library's
        # corrector and over the converged oracle.  Draws where the oracle
        # does not converge are discarded.
        eps = amp * np.sin(np.linspace(0.0, 2.0 * np.pi * cycles, 31))
        ep = ElasticParams(E=E, nu=nu)
        pp = PlasticParams(k=k, b=b, c=c, eta=eta, r=r)
        sigma, lat, _ = uniaxial_plastic_driver(eps, dt, ep, pp)

        def replay():
            state, stresses = MaterialState(), []
            for i in range(1, eps.size):
                state, sig = integrate_viscoplastic_step(
                    state, np.diag([eps[i], lat[i], lat[i]]), dt, ep, pp)
                stresses.append(sig)
            return np.array(stresses), state

        got, got_state = replay()
        with converged_corrector():
            try:
                ref, ref_state = replay()
            except IntegrationError:
                assume(False)
        stress_scale, strain_scale = curve_scales(eps, sigma, ep, pp)
        assert np.abs(got - ref).max() <= 1e-12 * stress_scale
        assert (np.abs(got_state.viscous_strain - ref_state.viscous_strain).max()
                <= 1e-12 * strain_scale)
        assert np.abs(got_state.backstress - ref_state.backstress).max() <= 1e-12 * stress_scale


# ---------------------------------------------------------------------------
# Closed-form rate-independent driver
# ---------------------------------------------------------------------------


def strain_history(shape, amp, cycles, n):
    """A cyclic curve, amp sin(2 pi cycles t), or a ramp to amp, from 0."""
    t = np.linspace(0.0, 1.0, n)
    return amp * (np.sin(2.0 * np.pi * cycles * t) if shape == "cyclic" else t)


def curve_scales(eps, sigma, ep, pp):
    """Stress and strain scales of a curve: its largest magnitudes, and at
    least the yield stress k and the yield strain k/E."""
    return max(np.abs(sigma).max(), pp.k), max(np.abs(eps).max(), pp.k / ep.E)


def assert_matches_on_scale(eps, got, ref, ep, pp, rtol):
    """Stresses and lateral strains of ``got`` within rtol of the scales of ``ref``."""
    stress_scale, strain_scale = curve_scales(eps, ref[0], ep, pp)
    assert np.abs(got[0] - ref[0]).max() <= rtol * stress_scale
    assert np.abs(got[1] - ref[1]).max() <= rtol * strain_scale


class TestClosedFormDriver:
    """The closed-form return map (eta = 0) against the secant path that it
    replaced, ``oracle_uniaxial.uniaxial_secant_driver``, and against a
    replay through the 3x3 integrator.

    The secant path is accurate to its lateral tolerance (1e-9 k by default),
    so the closed form must agree with it to 1e-8 of the curve's scale, and to
    1e-12 with the secant path converged to 1e-13 k.  Stresses are compared
    on the curve's stress scale and lateral strains on its axial strain
    scale (:func:`curve_scales`): the secant path's error is absolute, a
    fraction of k, and lateral strains vanish for nu = 0 on an elastic curve.

    The 3x3 corrector under the secant path and the replay accepts a yield
    residual of 1e-10 N/mm^2, which leaves up to about 1.2e-10 N/mm^2 in its
    stresses and 1.2e-10/E in its strains.  So the 1e-12 comparisons need a
    yield stress above 120 N/mm^2, and draw k from 150-400 N/mm^2 (the
    benchmark's truth is 282.6).
    """

    PARAMS = dict(E=st.floats(1e4, 3e5), nu=st.floats(0.0, 0.45),
                  b=st.just(0.0) | st.floats(0.0, 200.0),
                  c=st.just(0.0) | st.floats(0.0, 2e4),
                  shape=st.sampled_from(["cyclic", "ramp"]), amp=st.floats(0.002, 0.05),
                  cycles=st.floats(0.25, 2.0), n=st.integers(2, 51))

    @settings(max_examples=300, deadline=None)
    @given(k=st.floats(20.0, 400.0), **PARAMS)
    def test_matches_secant_path(self, E, nu, k, b, c, shape, amp, cycles, n):
        eps = strain_history(shape, amp, cycles, n)
        ep, pp = ElasticParams(E=E, nu=nu), PlasticParams(k=k, b=b, c=c)
        got = uniaxial_plastic_driver(eps, 0.1, ep, pp)
        ref = uniaxial_secant_driver(eps, 0.1, ep, pp)
        assert_matches_on_scale(eps, got, ref, ep, pp, 1e-8)

    @settings(max_examples=300, deadline=None)
    @given(k=st.floats(150.0, 400.0), **PARAMS)
    def test_matches_converged_secant_path(self, E, nu, k, b, c, shape, amp, cycles, n):
        # Curves where the secant path cannot reach 1e-13 k are discarded:
        # its transverse stress has a rounding floor there.
        eps = strain_history(shape, amp, cycles, n)
        ep, pp = ElasticParams(E=E, nu=nu), PlasticParams(k=k, b=b, c=c)
        try:
            ref = uniaxial_secant_driver(eps, 0.1, ep, pp, lateral_tol=1e-13 * k)
        except DriverError:
            assume(False)
        got = uniaxial_plastic_driver(eps, 0.1, ep, pp)
        assert_matches_on_scale(eps, got, ref, ep, pp, 1e-12)

    @settings(max_examples=100, deadline=None)
    @given(E=st.floats(1e5, 3e5), nu=st.floats(0.0, 0.45), k=st.floats(150.0, 400.0),
           b=st.floats(50.0, 200.0), c=st.floats(0.0, 2e4), over=st.floats(1.2, 3.0))
    def test_large_steps_with_negative_linear_coefficient(self, E, nu, k, b, c, over):
        # One step from zero overshoots the yield stress so far that
        # B = E + 1.5c - b(E e1 - k) < 0, and the increment takes the root
        # (sqrt(B^2 + 4 E b phi) - B) / (2 E b); the next steps reverse.
        e1 = over * ((E + 1.5 * c) / (b * E) + k / E)
        assert E + 1.5 * c - b * (E * e1 - k) < 0.0
        eps = np.array([0.0, e1, 0.0, -e1, 0.5 * e1])
        ep, pp = ElasticParams(E=E, nu=nu), PlasticParams(k=k, b=b, c=c)
        got = uniaxial_plastic_driver(eps, 1.0, ep, pp)
        for tol, rtol in ((None, 1e-8), (1e-13 * k, 1e-12)):
            try:
                ref = uniaxial_secant_driver(eps, 1.0, ep, pp, lateral_tol=tol)
            except DriverError:
                if tol is None:
                    raise
                assume(False)
            assert_matches_on_scale(eps, got, ref, ep, pp, rtol)

    @settings(max_examples=200, deadline=None)
    @given(k=st.floats(150.0, 400.0), **PARAMS)
    def test_final_state_matches_integrator_replay(self, E, nu, k, b, c, shape, amp,
                                                   cycles, n):
        # Replaying the curve through the 3x3 integrator at the closed form's
        # lateral strains gives its final state, and a transverse stress that
        # passes the secant path's default test, |sigma22| <= 1e-9 k.
        eps = strain_history(shape, amp, cycles, n)
        ep, pp = ElasticParams(E=E, nu=nu), PlasticParams(k=k, b=b, c=c)
        sigma, lat, state = uniaxial_plastic_driver(eps, 0.1, ep, pp)
        fresh = MaterialState()
        for i in range(1, eps.size):
            fresh, sig = integrate_viscoplastic_step(
                fresh, np.diag([eps[i], lat[i], lat[i]]), 0.1, ep, pp)
            assert abs(sig[1, 1]) <= 1e-9 * k
        stress_scale, strain_scale = curve_scales(eps, sigma, ep, pp)
        assert np.abs(state.viscous_strain - fresh.viscous_strain).max() <= 1e-12 * strain_scale
        assert np.abs(state.backstress - fresh.backstress).max() <= 1e-12 * stress_scale
        assert abs(state.arc_length - fresh.arc_length) <= 1e-12 * max(fresh.arc_length,
                                                                        strain_scale)

    def test_nonfinite_strain_raises_driver_error(self):
        eps = np.array([0.0, 0.01, np.nan])
        with pytest.raises(DriverError, match="must be finite"):
            uniaxial_plastic_driver(eps, 0.1, steel_elastic(), PlasticParams(**HARDENING))


class TestViscousDriver:
    """The scalar viscous recursion (eta > 0) against the secant path that it
    replaced, ``oracle_uniaxial.uniaxial_secant_driver``, against a replay
    through the 3x3 integrator, and against its own step equation.

    Against the secant path the bounds are 1e-8 of the curve's scale at its
    default lateral tolerance (1e-9 k), and 1e-11 with the path converged to
    1e-13 k; draws where the secant path fails to converge are discarded.
    The secant path and the replay run the library's own 3x3 step, whose
    viscous root shares the driver's solver but not its overstress form.
    """

    PARAMS = dict(E=st.floats(1e4, 3e5), nu=st.floats(0.0, 0.45), k=st.floats(20.0, 300.0),
                  b=st.floats(0.0, 200.0), c=st.floats(0.0, 2e4),
                  log_eta=st.floats(-3.0, 1.0), r=st.floats(1.0, 3.0),
                  amp=st.floats(0.002, 0.05), cycles=st.floats(0.25, 2.0),
                  dt=st.floats(1e-3, 1.0))

    @staticmethod
    def case(E, nu, k, b, c, log_eta, r, amp, cycles):
        return (strain_history("cyclic", amp, cycles, 31), ElasticParams(E=E, nu=nu),
                PlasticParams(k=k, b=b, c=c, eta=10.0**log_eta, r=r))

    @settings(max_examples=300, deadline=None)
    @given(**PARAMS)
    def test_matches_secant_path(self, dt, **params):
        eps, ep, pp = self.case(**params)
        got = uniaxial_plastic_driver(eps, dt, ep, pp)
        for tol, rtol in ((None, 1e-8), (1e-13 * pp.k, 1e-11)):
            try:
                ref = uniaxial_secant_driver(eps, dt, ep, pp, lateral_tol=tol)
            except DriverError:
                assume(False)
            assert_matches_on_scale(eps, got, ref, ep, pp, rtol)

    @settings(max_examples=200, deadline=None)
    @given(**PARAMS)
    def test_final_state_matches_integrator_replay(self, dt, **params):
        # Replaying the curve through the 3x3 integrator at the driver's
        # lateral strains gives its final state, and a transverse stress that
        # passes the secant path's default test, |sigma22| <= 1e-9 k.
        eps, ep, pp = self.case(**params)
        sigma, lat, state = uniaxial_plastic_driver(eps, dt, ep, pp)
        fresh = MaterialState()
        for i in range(1, eps.size):
            fresh, sig = integrate_viscoplastic_step(
                fresh, np.diag([eps[i], lat[i], lat[i]]), dt, ep, pp)
            assert abs(sig[1, 1]) <= 1e-9 * pp.k
        stress_scale, strain_scale = curve_scales(eps, sigma, ep, pp)
        assert np.abs(state.viscous_strain - fresh.viscous_strain).max() <= 1e-10 * strain_scale
        assert np.abs(state.backstress - fresh.backstress).max() <= 1e-10 * stress_scale
        assert abs(state.arc_length - fresh.arc_length) <= 1e-10 * max(fresh.arc_length,
                                                                        strain_scale)

    @pytest.mark.parametrize("r", [5.0, 10.0, 20.0, 40.0])
    def test_high_overstress_exponent_converges(self, monkeypatch, r):
        # The curve on which the closure-based 3x3 corrector fails
        # (TestUniaxialDriver::test_3x3_step_converges_at_high_exponent).
        # Every step yields, and its increment D solves
        # eta sqrt(3/2) D/dt = <f/SIGMA_0>^r, with f = g(2k + g)/3 and
        # g = (phi - B D - E b D^2)/(1 + b D) the overstress left at the end of
        # the step, from that step's trial quantities.
        ep = ElasticParams(E=210000.0, nu=0.3)
        pp = PlasticParams(k=100.0, b=5.0, c=500.0, eta=1e-3, r=r)
        solve, overstress = materials._viscous_root, materials._uniaxial_overstress
        trials, steps = [], []

        def recording_trial(*trial):
            trials.append(trial)
            return overstress(*trial)

        def recording(d_ri, overstress, a, r):
            d = solve(d_ri, overstress, a, r)
            steps.append((d, *trials[-1], a))
            return d

        monkeypatch.setattr(materials, "_uniaxial_overstress", recording_trial)
        monkeypatch.setattr(materials, "_viscous_root", recording)
        sigma, _, state = uniaxial_plastic_driver(np.linspace(0.0, 0.05, 21), 0.1, ep, pp)
        assert 132.6 < sigma[-1] < 132.7
        assert len(steps) == 20
        assert_allclose(sum(d for d, *_ in steps), state.arc_length, rtol=1e-14)
        for d, phi, B, Eb, b, k, a in steps:
            assert (Eb, b, k) == (ep.E * pp.b, pp.b, pp.k)
            assert_allclose(a, pp.eta * math.sqrt(1.5) / 0.1, rtol=1e-15)
            g = (phi - B * d - Eb * d * d) / (1.0 + b * d)
            lhs = math.log(a * d)
            assert abs(lhs - r * math.log(g * (2.0 * k + g) / 3.0 / SIGMA_0)) <= 1e-10 * abs(lhs)


# ---------------------------------------------------------------------------
# Uniaxial driver
# ---------------------------------------------------------------------------


class TestUniaxialDriver:
    def test_elastic_history(self):
        ep = steel_elastic()
        pp = PlasticParams(k=1e6)  # never yields
        eps = np.linspace(0.0, 0.001, 11)
        sigma, lat, _ = uniaxial_plastic_driver(eps, 0.1, ep, pp)
        assert_allclose(sigma, ep.E * eps, rtol=1e-7)
        assert_allclose(lat, -ep.nu * eps, rtol=1e-6, atol=1e-12)

    def test_table_parameters_vs_oracle(self):
        ep = steel_elastic()
        pp = PlasticParams(**HARDENING)
        eps = np.linspace(0.0, 0.05, 51)
        sigma, lat, _ = uniaxial_plastic_driver(eps, 0.1, ep, pp)
        ref, ref_lat, _ = uniaxial_explicit_reference(
            eps, 0.1, STEEL["K"], STEEL["G"], pp.k, pp.b, pp.c, substeps=200
        )
        scale = np.abs(ref).max()
        assert np.abs(sigma - ref).max() <= 0.005 * scale
        assert np.abs(lat - ref_lat).max() <= 1e-4

    def test_plastic_incompressibility_in_the_increment(self):
        ep = steel_elastic()
        pp = PlasticParams(**HARDENING)
        eps = np.linspace(0.0, 0.08, 81)
        _, lat, _ = uniaxial_plastic_driver(eps, 0.1, ep, pp)
        ratio = -(lat[-1] - lat[-2]) / (eps[-1] - eps[-2])
        assert 0.45 < ratio < 0.5

    def test_dissipation_and_arc_length_monotonicity(self):
        ep = steel_elastic()
        pp = PlasticParams(**HARDENING)
        eps = np.linspace(0.0, 0.04, 41)
        state = MaterialState()
        for i in range(1, 41):
            e = np.diag([eps[i], -0.42 * eps[i], -0.42 * eps[i]])
            new_state, sigma = integrate_viscoplastic_step(state, e, 0.1, ep, pp)
            assert new_state.arc_length >= state.arc_length
            dev = new_state.viscous_strain - state.viscous_strain
            if new_state.arc_length > state.arc_length:
                driving = sigma - new_state.backstress
                assert float(np.tensordot(driving, dev)) >= 0.0
            state = new_state

    @pytest.mark.parametrize("pp", [
        PlasticParams(**HARDENING),
        PlasticParams(**HARDENING, eta=1e-2, r=1.5),
    ], ids=["rate-independent", "viscous"])
    def test_one_integrator_call_per_secant_evaluation(self, monkeypatch, pp):
        # The secant oracle that the driver is tested against makes one step
        # call per evaluation of the transverse stress, and its step is that
        # of the 3x3 integrator at the converged lateral strain.
        ep = steel_elastic()
        eps = np.linspace(0.0, 0.03, 31)
        step = oracle_uniaxial.uniaxial_step
        seen = []

        def counting(state, e_ax, e_lat, *args):
            seen.append((state, e_ax, e_lat))
            return step(state, e_ax, e_lat, *args)

        monkeypatch.setattr(oracle_uniaxial, "uniaxial_step", counting)
        sigma, lat, state = uniaxial_secant_driver(eps, 0.1, ep, pp)
        monkeypatch.undo()

        # Each step's calls share one state and differ in the lateral strain,
        # so a repeated (state, strain) pair is a wasted integrator call.
        assert len(seen) >= eps.size - 1
        assert len(seen) - len(set(seen)) == 0, "repeated integrator calls"

        # The step's state and stress are those of a fresh integrator call at
        # the converged lateral strain, bit for bit.
        fresh = MaterialState()
        for i in range(1, eps.size):
            fresh, sig = integrate_viscoplastic_step(
                fresh, np.diag([eps[i], lat[i], lat[i]]), 0.1, ep, pp)
            assert sig[0, 0] == sigma[i]
        assert fresh.arc_length > 0.0
        assert np.array_equal(state.viscous_strain, fresh.viscous_strain)
        assert np.array_equal(state.backstress, fresh.backstress)
        assert state.arc_length == fresh.arc_length

    def test_nonpositive_step_raises_at_its_step(self):
        # The driver has no side effects before it returns, so two bad steps
        # show that it raises at the first of them, with that step's dt in
        # the message, for eta = 0 and eta > 0 alike.  A non-finite step is
        # as bad as a non-positive one.
        ep = steel_elastic()
        eps = np.linspace(0.0, 0.01, 6)
        for pp in (PlasticParams(**HARDENING), PlasticParams(**HARDENING, eta=1e-2, r=1.5)):
            for first, second in ((0.0, -0.1), (-0.1, 0.0), (math.nan, 0.0),
                                  (math.inf, math.nan)):
                dt = np.full(eps.size - 1, 0.1)
                dt[2], dt[4] = first, second
                with pytest.raises(IntegrationError, match=re.escape(
                        f"step size must be positive and finite, got dt={first}")):
                    uniaxial_plastic_driver(eps, dt, ep, pp)
            for dt in (0.0, math.inf):
                with pytest.raises(IntegrationError, match=re.escape(f"got dt={dt}")):
                    uniaxial_plastic_driver(eps, dt, ep, pp)

    @staticmethod
    def _failing_step(pp):
        """The closure-based corrector's error on the pinned curve (strains
        to 0.05 in 20 steps, dt = 0.1, E = 210 000, nu = 0.3) under the secant
        oracle, and the index of the step at which it fails."""
        eps = np.linspace(0.0, 0.05, 21)
        step = oracle_uniaxial.uniaxial_step
        calls = []

        def recording(state, e_ax, *args):
            calls.append(e_ax)
            return step(state, e_ax, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(materials, "_solve_plastic_multiplier", oracle_multiplier)
            mp.setattr(oracle_uniaxial, "uniaxial_step", recording)
            with pytest.raises(IntegrationError) as info:
                uniaxial_secant_driver(eps, 0.1, ElasticParams(E=210000.0, nu=0.3), pp)
        return str(info.value), int(np.flatnonzero(eps == calls[-1])[0])

    @pytest.mark.parametrize("r, residual", [
        (5.0, "-2.506e+01"), (10.0, "-1.103e+25"), (20.0, "-1.719e+70"), (40.0, "-5.616e+159"),
        (100.0, "-2.736e+280"),
    ])
    def test_3x3_step_converges_at_high_exponent(self, monkeypatch, r, residual):
        # f/SIGMA_0 is in (N/mm^2)^2, so <f/SIGMA_0>^r spans hundreds of
        # decades for r >= 5 (and overflows a float at r = 100): the
        # closure-based corrector cannot bring its power-form residual under
        # 1e-10, and fails on this curve.  At the step where it fails, from
        # the driver's state before that step and at the driver's lateral
        # strain, the library's 3x3 step converges to dlam = sqrt(3/2) D, D
        # the driver's increment, with a transverse stress that passes the
        # secant path's default test.
        pp = PlasticParams(k=100.0, b=5.0, c=500.0, eta=1e-3, r=r)
        message, i = self._failing_step(pp)
        assert message == ("plastic corrector did not converge in 50 iterations "
                           f"(residual {residual})")
        eps = np.linspace(0.0, 0.05, 21)
        ep = ElasticParams(E=210000.0, nu=0.3)
        _, _, before = uniaxial_plastic_driver(eps[:i], 0.1, ep, pp)
        solve = materials._viscous_root
        increments = []

        def recording(d_ri, overstress, a, r):
            increments.append(solve(d_ri, overstress, a, r))
            return increments[-1]

        monkeypatch.setattr(materials, "_viscous_root", recording)
        _, lat, _ = uniaxial_plastic_driver(eps[:i + 1], 0.1, ep, pp)
        _, sig = integrate_viscoplastic_step(before, np.diag([eps[i], lat[i], lat[i]]), 0.1,
                                             ep, pp)
        assert len(increments) == i + 1
        assert_allclose(increments[-1], math.sqrt(1.5) * increments[-2], rtol=1e-12)
        assert abs(sig[1, 1]) <= 1e-9 * pp.k

    def test_viscous_step_at_extreme_step_sizes(self):
        # At dt = 5e-324 eta/dt overflows, and the step takes the
        # floating-point limit of its increment, f^r/(eta/dt) = 0.  At
        # dt = 1e-300 the increment, about 1e-289, is below what f resolves.
        # Either way both paths return the elastic stress; the 3x3 step
        # returns its input state at 5e-324.  Where eta/dt underflows, the
        # increment has no digits left, and both paths raise.
        ep = ElasticParams(E=210000.0, nu=0.3)
        pp = PlasticParams(k=100.0, b=5.0, c=500.0, eta=1e-3, r=1.5)
        eps = np.linspace(0.0, 0.01, 3)
        strain = np.diag([0.01, -0.005, -0.005])
        state = MaterialState()
        elastic = integrate_viscoplastic_step(state, strain, 1.0, ep, PlasticParams(k=1e6))[1]
        ri = PlasticParams(k=100.0, b=5.0, c=500.0)
        ri_arcs = (uniaxial_plastic_driver(eps, 1.0, ep, ri)[2].arc_length,
                   integrate_viscoplastic_step(state, strain, 1.0, ep, ri)[0].arc_length)
        for dt in (5e-324, 1e-300):
            sigma, _, final = uniaxial_plastic_driver(eps, dt, ep, pp)
            new, sig = integrate_viscoplastic_step(state, strain, dt, ep, pp)
            assert np.array_equal(sigma, ep.E * eps) and np.array_equal(sig, elastic)
            assert final.arc_length <= 1e-15 * ri_arcs[0]
            assert new.arc_length <= 1e-15 * ri_arcs[1]
            assert (new is state) == (dt == 5e-324)
        for dt, pp in ((10.0, PlasticParams(k=100.0, eta=5e-324)),
                       (1.0, PlasticParams(k=100.0, eta=1e-310))):
            message = "viscous step out of floating-point range"
            with pytest.raises(IntegrationError, match=message):
                uniaxial_plastic_driver(eps, dt, ep, pp)
            with pytest.raises(IntegrationError, match=message):
                integrate_viscoplastic_step(state, strain, dt, ep, pp)

    @pytest.mark.parametrize("dt, shape", [(np.full(3, 0.1), (3,)),
                                           (np.full((5, 1), 0.1), (5, 1))])
    def test_step_sizes_must_match_strains(self, dt, shape):
        # Six strains take five steps: an array dt of any other shape is a
        # DriverError naming both, for eta = 0 and eta > 0 alike.
        eps = np.linspace(0.0, 0.01, 6)
        for pp in (PlasticParams(**HARDENING), PlasticParams(**HARDENING, eta=1e-2, r=1.5)):
            with pytest.raises(DriverError, match=re.escape(
                    f"dt must be a scalar or hold len(axial_strain) - 1 = 5 step sizes, "
                    f"got shape {shape}")):
                uniaxial_plastic_driver(eps, dt, steel_elastic(), pp)

    def test_history_must_start_at_zero(self):
        ep = steel_elastic()
        pp = PlasticParams(**HARDENING)
        with pytest.raises(DriverError):
            uniaxial_plastic_driver(np.array([0.001, 0.002]), 0.1, ep, pp)
        with pytest.raises(DriverError):
            uniaxial_plastic_driver(np.empty(0), 0.1, ep, pp)

