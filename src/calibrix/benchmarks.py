"""Built-in benchmark cases.

Plate with a hole: re-identification of (E, nu) from synthetic full-field
displacement data at a measured tensile resultant.  Two-step uniaxial
plasticity: elastic moduli from the small-strain response, then the yield and
kinematic-hardening parameters from the elasto-plastic stress curve, with the
elastic uncertainty carried into the second step.

The plate functions take a PlateCase that the caller builds, and the module
imports the sparse finite-element stack for type checking only, so the
two-step case loads numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import CalibrixError
from .identify_reduced import (
    CalibrationResult,
    ForwardModel,
    jacobian_external_nd,
    solve_nls,
)
from .materials import (
    ElasticParams,
    PlasticParams,
    c_coords_from_E_nu,
    convert_E_nu_to_K_G,
    convert_K_G_to_E_nu,
    uniaxial_plastic_driver,
)
from .uq import monte_carlo_convert, two_step_covariance

if TYPE_CHECKING:
    from .mesh_fem import DofPartition, Mesh, StiffnessDecomposition
    from .synthetic_data import ObservationSet

# Ground truth of the synthetic two-step benchmark (N/mm^2 where dimensional).
TWOSTEP_TRUTH = {"K": 150991.0, "G": 79321.0, "k": 282.6, "b": 41.04, "c": 3499.8}


# ---------------------------------------------------------------------------
# Plate with a hole
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class PlateCase:
    """Identification mesh with its partition, stiffness decomposition, applied
    forces and prescribed displacements."""

    coarse: Mesh
    part: DofPartition
    decomp: StiffnessDecomposition
    pbar: np.ndarray
    ubar: np.ndarray


def plate_displacements(case: PlateCase, E: float, nu: float,
                        solved: dict | None = None) -> np.ndarray:
    """Forward solve on the identification mesh; full nodal displacement vector.

    A dict ``solved`` receives the free-dof displacements as "u" and the
    factor of K(E, nu) as "factor", for sensitivities.
    """
    kappa_c = np.array(c_coords_from_E_nu(E, nu))
    u, factor = case.decomp.solve(kappa_c, case.pbar, case.ubar)
    if solved is not None:
        solved.update(u=u, factor=factor)
    return case.part.merge(u, case.ubar)


def _observation_layout(case: PlateCase) -> np.ndarray:
    """Positions of the u1 components, then of the u2 components."""
    n_dofs = case.coarse.n_dofs
    return np.concatenate([np.arange(0, n_dofs, 2), np.arange(1, n_dofs, 2)])


def plate_forward_model(case: PlateCase) -> ForwardModel:
    """Reduced parameter-to-observable map kappa = (E, nu) -> displacements.

    Output layout matches the observation set: the u1 block over all
    measurement nodes, then the u2 block.

    The model's ``jacobian`` differentiates the solve with the factor of its
    last evaluation: with K(kappa_c) = C11 K_a + C12 K_b and kappa_c =
    (C11, C12), du/dkappa_c = -K^-1 [K_a u + Kbar_a ubar, K_b u + Kbar_b ubar],
    and the chain rule through ``c_coords_from_E_nu`` gives du/d(E, nu).  So
    a Jacobian costs one solve for two right-hand sides, and no forward
    evaluation or factorization, when it is taken at the point just
    evaluated; elsewhere it evaluates the model there first.
    """

    layout = _observation_layout(case)
    last = {}  # kappa of the last evaluation, with its "u" and "factor"

    def simulate(kappa):
        last.clear()
        full = plate_displacements(case, kappa[0], kappa[1], last)
        last["kappa"] = np.array(kappa, dtype=float)
        return full[layout]

    def jacobian(kappa):
        if "kappa" not in last or not np.array_equal(last["kappa"], kappa):
            simulate(kappa)
        E, nu = kappa
        # From the blocks, not A_S, so the fit does not depend on how A_S is formed.
        cols = np.column_stack([b.K.matvec(last["u"]) + b.Kbar.matvec(case.ubar)
                                for b in case.decomp.blocks])
        f = 1.0 / (1.0 - nu * nu)
        # d(C11, C12)/d(E, nu) of C11 = E f, C12 = nu E f.
        dc = np.array([[f, 2.0 * nu * E * f * f], [nu * f, (1.0 + nu * nu) * E * f * f]])
        J = np.zeros((case.coarse.n_dofs, 2))
        J[case.part.free] = last["factor"].solve(-(cols @ dc))
        return J[layout]

    return ForwardModel(
        simulate=simulate,
        names=("E", "nu"),
        lower=np.array([1e4, 0.01]),
        upper=np.array([9e5, 0.49]),
        comps=("u1", "u2"),
        jacobian=jacobian,
    )


def plate_log_posterior(case: PlateCase, data: ObservationSet, sigma_e: float,
                        lower, upper):
    """Log posterior over (E, nu) with a uniform box prior, for a batch of
    points: the rows of an (m, 2) array in, m values out.

    The noise level is prescribed, not inferred; only the displacement blocks
    enter the likelihood.  A row outside [lower, upper] gives -inf without a
    solve.  The returned function has ``vectorized = True``, so
    ``ensemble_sample`` passes it a whole half-ensemble per call.

    The plate is solved through the stiffness pencil's spectrum
    (``StiffnessDecomposition.spectral_solver``), not by a sparse
    factorization per point: after a dense set-up on the first call of this
    function, a batch costs one dense matrix product for the displacements
    and the factoring path's residual check per column.  The values match
    ``plate_forward_model`` to rounding.  A point whose spectral solution
    fails that check is solved by ``plate_displacements``, the factoring path,
    instead, in row order, and its value is that path's exactly; so every
    kappa that path accepts is accepted, and a singular kappa raises its
    SolverError.
    """
    d, _, _ = data.select(("u1", "u2"))
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    layout = _observation_layout(case)
    solve = case.decomp.spectral_solver(case.pbar, case.ubar)

    def log_post(kappas):
        kappas = np.asarray(kappas, dtype=float)
        out = np.full(len(kappas), -np.inf)
        inside = ~np.any((kappas < lower) | (kappas > upper), axis=1)
        if not inside.any():
            return out
        E, nu = kappas[inside].T
        U, ok = solve(np.column_stack(c_coords_from_E_nu(E, nu)))
        full = np.empty((case.coarse.n_dofs, np.count_nonzero(ok)))
        full[case.part.free] = U[:, ok]
        full[case.part.prescribed] = case.ubar[:, None]
        r = full[layout] - d[:, None]
        values = np.empty(len(E))
        values[ok] = -0.5 * np.einsum("ij,ij->j", r, r) / sigma_e**2
        # A rejected point is solved and summed as plate_forward_model's
        # evaluation is, so its value is the factoring path's to the bit.
        for j in np.flatnonzero(~ok):
            r = plate_displacements(case, E[j], nu[j])[layout] - d
            values[j] = -0.5 * float(r @ r) / sigma_e**2
        out[inside] = values
        return out

    log_post.vectorized = True
    return log_post


# ---------------------------------------------------------------------------
# Two-step uniaxial plasticity
# ---------------------------------------------------------------------------

ELASTIC_STRAINS = np.linspace(2e-4, 1e-3, 5)
PLASTIC_STRAINS = np.linspace(2e-3, 5e-2, 50)
SIGMA_STRESS_ELASTIC = 2.0  # N/mm^2
SIGMA_LATERAL = 6e-6
SIGMA_STRESS_PLASTIC = 0.2  # N/mm^2


@dataclass(eq=False)
class TwoStepData:
    eps_elastic: np.ndarray
    stress_elastic: np.ndarray
    lat_elastic: np.ndarray
    eps_plastic: np.ndarray
    stress_plastic: np.ndarray
    sigma_elastic: float
    sigma_lateral: float
    sigma_plastic: float
    seed: int


def uniaxial_response(kappa_e, kappa_p, eps_out=None) -> np.ndarray:
    """Axial stresses of the point model at the requested strains."""
    K, G = kappa_e
    k, b, c = kappa_p
    eps_out = PLASTIC_STRAINS if eps_out is None else np.asarray(eps_out, dtype=float)
    grid = np.concatenate([[0.0], eps_out])
    ep = ElasticParams.from_bulk_shear(K, G)
    pp = PlasticParams(k=k, b=b, c=c)
    sigma, _, _ = uniaxial_plastic_driver(grid, 1.0, ep, pp)
    return sigma[1:]


def generate_twostep_data(seed: int = 0, truth: dict | None = None) -> TwoStepData:
    """Noisy tensile-test data at the benchmark truth (rate-independent)."""
    t = TWOSTEP_TRUTH if truth is None else truth
    E, nu = convert_K_G_to_E_nu(t["K"], t["G"])
    rng = np.random.default_rng(seed)
    stress_el = E * ELASTIC_STRAINS + rng.normal(0.0, SIGMA_STRESS_ELASTIC,
                                                 ELASTIC_STRAINS.size)
    lat_el = -nu * ELASTIC_STRAINS + rng.normal(0.0, SIGMA_LATERAL,
                                                ELASTIC_STRAINS.size)
    clean = uniaxial_response((t["K"], t["G"]), (t["k"], t["b"], t["c"]))
    stress_pl = clean + rng.normal(0.0, SIGMA_STRESS_PLASTIC, clean.size)
    return TwoStepData(
        eps_elastic=ELASTIC_STRAINS.copy(),
        stress_elastic=stress_el,
        lat_elastic=lat_el,
        eps_plastic=PLASTIC_STRAINS.copy(),
        stress_plastic=stress_pl,
        sigma_elastic=SIGMA_STRESS_ELASTIC,
        sigma_lateral=SIGMA_LATERAL,
        sigma_plastic=SIGMA_STRESS_PLASTIC,
        seed=seed,
    )


def fit_elastic_modulus(data: TwoStepData) -> CalibrationResult:
    """Weighted linear LS for E from the elastic stress-strain points."""
    eps = data.eps_elastic
    model = ForwardModel(simulate=lambda kappa: kappa[0] * eps, names=("E",),
                         lower=np.array([1e3]), upper=np.array([1e6]))
    W = np.full(eps.size, 1.0 / data.sigma_elastic)
    return solve_nls(model, (data.stress_elastic, W), np.array([1.8e5]))


def fit_poisson_ratio(data: TwoStepData) -> CalibrationResult:
    """Weighted linear LS for nu from the elastic lateral strains."""
    eps = data.eps_elastic
    model = ForwardModel(simulate=lambda kappa: -kappa[0] * eps, names=("nu",),
                         lower=np.array([0.0]), upper=np.array([0.499]))
    W = np.full(eps.size, 1.0 / data.sigma_lateral)
    return solve_nls(model, (data.lat_elastic, W), np.array([0.25]))


def convert_elastic(result_E: CalibrationResult, result_nu: CalibrationResult,
                    n: int = 4000, seed: int = 0):
    """(E, nu) estimate -> (K, G) with Monte-Carlo moments and covariance.

    The covariance is the linearized push-forward of the (assumed
    uncorrelated) E/nu variances; the means/stds come from the Monte-Carlo
    sample as the headline numbers.
    """
    E, dE = float(result_E.kappa[0]), float(result_E.std[0])
    nu, dnu = float(result_nu.kappa[0]), float(result_nu.std[0])
    mc = monte_carlo_convert(E, dE, nu, dnu, n=n, seed=seed)
    h = np.array([1e-6 * abs(E), 1e-8])
    K0, G0 = convert_E_nu_to_K_G(E, nu)
    D = np.empty((2, 2))
    for j, (Ep, nup) in enumerate(((E + h[0], nu), (E, nu + h[1]))):
        K1, G1 = convert_E_nu_to_K_G(Ep, nup)
        D[0, j] = (K1 - K0) / h[j]
        D[1, j] = (G1 - G0) / h[j]
    sigma_kg = D @ np.diag([dE**2, dnu**2]) @ D.T
    kappa_e = np.array([mc["K_mean"], mc["G_mean"]])
    return kappa_e, sigma_kg, mc


def plastic_forward_model(kappa_e, eps_out=None) -> ForwardModel:
    eps_out = PLASTIC_STRAINS if eps_out is None else eps_out

    def simulate(kappa_p):
        return uniaxial_response(kappa_e, kappa_p, eps_out)

    return ForwardModel(
        simulate=simulate,
        names=("k", "b", "c"),
        lower=np.array([10.0, 0.0, 0.0]),
        upper=np.array([2000.0, 500.0, 50000.0]),
    )


def fit_plastic(data: TwoStepData, kappa_e, kappa0=(290.0, 35.0, 3000.0)) -> CalibrationResult:
    model = plastic_forward_model(kappa_e, data.eps_plastic)
    W = np.full(data.eps_plastic.size, 1.0 / data.sigma_plastic)
    return solve_nls(model, (data.stress_plastic, W), np.array(kappa0, dtype=float))


def plastic_cross_sensitivities(data: TwoStepData, kappa_e, result_p: CalibrationResult):
    """J_pe = d r_p / d kappa_e and the kappa_e derivative of J_p, both by
    forward differences around the fitted point ``result_p.kappa``.

    J_p at kappa_e is the fit's own ``result_p.jacobian``: the same model,
    steps and base curve give the same bits, so it is not computed again.
    """
    kappa_e = np.asarray(kappa_e, dtype=float)
    kappa_p = result_p.kappa
    h = 1e-6 * np.abs(kappa_e)

    def response(ke):
        return uniaxial_response(ke, kappa_p, data.eps_plastic)

    def jac_p(ke, base):
        model = plastic_forward_model(ke, data.eps_plastic)
        return jacobian_external_nd(model, kappa_p, base=base)

    s0 = response(kappa_e)
    J0 = result_p.jacobian
    J_pe = np.empty((s0.size, 2))
    dJp_dke = np.empty(J0.shape + (2,))
    for j in range(2):
        ke = kappa_e.copy()
        ke[j] += h[j]
        sj = response(ke)
        J_pe[:, j] = (sj - s0) / h[j]
        dJp_dke[:, :, j] = (jac_p(ke, sj) - J0) / h[j]
    return J_pe, dJp_dke


def two_step_identify(data: TwoStepData, mc_seed: int = 0) -> dict:
    """Full two-step pipeline: elastic fits, conversion, plastic fit, and the
    covariance of the plastic estimate with and without elastic uncertainty."""
    result_E = fit_elastic_modulus(data)
    result_nu = fit_poisson_ratio(data)
    kappa_e, sigma_kg, mc = convert_elastic(result_E, result_nu, seed=mc_seed)
    result_p = fit_plastic(data, kappa_e)
    J_pe, dJp_dke = plastic_cross_sensitivities(data, kappa_e, result_p)
    report_two_step = two_step_covariance(
        result_p, J_pe, sigma_kg, result_p.s2, dJp_dke=dJp_dke
    )
    return {
        "result_E": result_E,
        "result_nu": result_nu,
        "kappa_e": kappa_e,
        "sigma_kg": sigma_kg,
        "monte_carlo": mc,
        "result_p": result_p,
        "J_pe": J_pe,
        "dJp_dke": dJp_dke,
        "two_step_report": report_two_step,
    }


class PlasticLogPosterior:
    """Picklable conditional log posterior over the plastic parameters.

    A point where the point model fails with a CalibrixError has zero
    posterior density; any other exception is a programming error and
    propagates, so it fails the inner chain that met it.
    """

    def __init__(self, data: TwoStepData, lower, upper):
        self.stress = data.stress_plastic
        self.eps = data.eps_plastic
        self.sigma = data.sigma_plastic
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)

    def __call__(self, kappa_e):
        stress, eps, sigma = self.stress, self.eps, self.sigma
        lower, upper = self.lower, self.upper
        ke = tuple(np.asarray(kappa_e, dtype=float))

        def log_post(kappa_p):
            if np.any(kappa_p < lower) or np.any(kappa_p > upper):
                return -np.inf
            try:
                s = uniaxial_response(ke, kappa_p, eps)
            except CalibrixError:
                return -np.inf
            r = s - stress
            return -0.5 * float(r @ r) / sigma**2

        return log_post
