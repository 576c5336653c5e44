"""Statistical layer: identifiability, covariance, error propagation, MCMC.

Frequentist asymptotics (Gauss-Newton Hessian, covariance, confidence
intervals), the two-step covariance that carries elastic-parameter
uncertainty into the plastic estimate, Gaussian error propagation and its
Monte-Carlo counterpart for parameter conversions, an affine-invariant
ensemble sampler, and the hierarchical two-step Bayesian driver.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DivergenceError, IdentifiabilityError, NumericalError,
                     ParameterError)
from .identify_reduced import default_nd_steps

_Z_TABLE = {0.95: 1.96, 0.68: 1.0}


def z_value(level: float) -> float:
    """Two-sided standard normal quantile of a confidence level in (0, 1);
    the rounded table values keep the reports of 0.95 and 0.68 as they were.
    ConfigError for any other level, nan included."""
    if not 0.0 < level < 1.0:
        raise ConfigError(f"level must lie in (0, 1), got {level!r}")
    if level in _Z_TABLE:
        return _Z_TABLE[level]
    from statistics import NormalDist  # 6 ms to import, and the table covers the defaults

    return NormalDist().inv_cdf(0.5 * (1.0 + level))


@dataclass(eq=False)
class IdentifiabilityVerdict:
    identifiable: bool
    eig_ratio: float
    det: float

    def __str__(self):
        status = "locally identifiable" if self.identifiable else "rank-deficient"
        return f"{status} (eigenvalue ratio {self.eig_ratio:.3e}, det {self.det:.3e})"


def identifiability_check(H: np.ndarray, tol: float = 1e-12) -> IdentifiabilityVerdict:
    """Local identifiability from the eigenvalue ratio of the Hessian."""
    H = np.asarray(H, dtype=float)
    eigs = np.linalg.eigvalsh(0.5 * (H + H.T))
    lo, hi = float(eigs[0]), float(eigs[-1])
    ratio = lo / hi if hi > 0.0 else 0.0
    return IdentifiabilityVerdict(
        identifiable=ratio > tol, eig_ratio=ratio, det=float(np.prod(eigs))
    )


@dataclass(eq=False)
class UncertaintyReport:
    """Per-parameter estimate, standard deviation, and confidence interval."""

    names: tuple
    estimate: np.ndarray
    std: np.ndarray
    ci: np.ndarray  # (n, 2) lower/upper bounds
    covariance: np.ndarray
    s2: float
    level: float
    method: str
    det_hessian: float | None = None
    eig_ratio: float | None = None

    def format(self) -> str:
        lines = [f"method = {self.method}", f"level = {self.level}"]
        if self.s2 is not None:
            lines.append(f"s2 = {float(self.s2)!r}")
        for i, name in enumerate(self.names):
            lines.append(
                f"{name} = {float(self.estimate[i])!r} delta = {float(self.std[i])!r} "
                f"ci = [{float(self.ci[i, 0])!r}, {float(self.ci[i, 1])!r}]"
            )
        return "\n".join(lines)


def covariance_and_ci(result, level: float = 0.95) -> UncertaintyReport:
    """Asymptotic covariance and confidence intervals of an NLS estimate.

    Uses the unweighted residuals and sensitivities: s^2 = r^T r / (n - 1),
    C = s^2 (J^T J)^{-1}, interval kappa +- z(level) sqrt(C_ii).  ConfigError
    for a level outside (0, 1).
    """
    z = z_value(level)
    r = np.asarray(result.residual, dtype=float)
    J = np.asarray(result.jacobian, dtype=float)
    n = r.size
    s2 = float(r @ r) / max(n - 1, 1)
    JtJ = J.T @ J
    try:
        C = s2 * np.linalg.inv(JtJ)
    except np.linalg.LinAlgError:
        raise IdentifiabilityError(
            "J^T J is singular; the covariance of the estimate is undefined"
        ) from None
    C = 0.5 * (C + C.T)
    std = np.sqrt(np.maximum(np.diag(C), 0.0))
    est = np.asarray(result.kappa, dtype=float)
    ci = np.column_stack([est - z * std, est + z * std])
    verdict = identifiability_check(result.hessian)
    return UncertaintyReport(
        names=tuple(result.names),
        estimate=est,
        std=std,
        ci=ci,
        covariance=C,
        s2=s2,
        level=level,
        method="asymptotic",
        det_hessian=verdict.det,
        eig_ratio=verdict.eig_ratio,
    )


def attach_uncertainty(result, level: float = 0.95) -> None:
    """Fill the statistical fields of a CalibrationResult in place."""
    verdict = identifiability_check(result.hessian)
    result.identifiable = verdict.identifiable
    result.eig_ratio = verdict.eig_ratio
    result.det_hessian = verdict.det
    try:
        report = covariance_and_ci(result, level=level)
    except IdentifiabilityError:
        result.identifiable = False
        return
    result.covariance = report.covariance
    result.std = report.std
    result.ci = report.ci
    result.s2 = report.s2


def two_step_covariance(
    result_p,
    J_pe: np.ndarray,
    sigma_ke: np.ndarray,
    sigma_p2: float,
    dJp_dke: np.ndarray | None = None,
    level: float = 0.95,
) -> UncertaintyReport:
    """Covariance of the plastic estimate under elastic-parameter uncertainty.

    Sandwich form C = (1/m) Q^{-1} Z Q^{-1} with Q = (2/m) J^T J and the
    three-term middle matrix
        Z = (4/m) [ sigma_p^2 J^T J
                    + J^T J_pe Sigma_ke J_pe^T J
                    + sigma_p^2 (G_pe : Sigma_ke) ],
    where J is the plastic sensitivity, J_pe the cross sensitivity of the
    plastic residual w.r.t. the elastic parameters, and G_pe contracts the
    derivative of J w.r.t. the elastic parameters (``dJp_dke``, shape
    (m, n_p, n_e); the term is dropped when not supplied).  With
    Sigma_ke = 0 this reduces exactly to the one-step covariance.
    """
    J = np.asarray(result_p.jacobian, dtype=float)
    J_pe = np.asarray(J_pe, dtype=float)
    sigma_ke = np.asarray(sigma_ke, dtype=float)
    m = J.shape[0]
    JtJ = J.T @ J
    term1 = sigma_p2 * JtJ
    term2 = J.T @ J_pe @ sigma_ke @ J_pe.T @ J
    if dJp_dke is not None:
        F = np.asarray(dJp_dke, dtype=float)  # (m, n_p, n_e)
        term3 = sigma_p2 * np.einsum("ijk,kl,iml->jm", F, sigma_ke, F)
    else:
        term3 = np.zeros_like(JtJ)
    Z = (4.0 / m) * (term1 + term2 + term3)
    Z = 0.5 * (Z + Z.T)
    eigs = np.linalg.eigvalsh(Z)
    if eigs[0] < -1e-10 * max(abs(eigs[-1]), 1.0):
        raise NumericalError(
            f"two-step middle matrix is not positive semidefinite "
            f"(min eigenvalue {eigs[0]:.3e})"
        )
    Q = (2.0 / m) * JtJ
    try:
        Q_inv = np.linalg.inv(Q)
    except np.linalg.LinAlgError:
        raise IdentifiabilityError("plastic normal matrix is singular") from None
    C = (1.0 / m) * (Q_inv @ Z @ Q_inv)
    C = 0.5 * (C + C.T)
    std = np.sqrt(np.maximum(np.diag(C), 0.0))
    est = np.asarray(result_p.kappa, dtype=float)
    z = z_value(level)
    ci = np.column_stack([est - z * std, est + z * std])
    return UncertaintyReport(
        names=tuple(result_p.names),
        estimate=est,
        std=std,
        ci=ci,
        covariance=C,
        s2=sigma_p2,
        level=level,
        method="two-step",
    )


def gaussian_error_propagation(F, kappa_star, delta_kappa, steps=None) -> float:
    """First-order uncorrelated error propagation of a scalar function.

    delta_F = sqrt(sum_k (dF/dkappa_k * delta_kappa_k)^2), with the partial
    derivatives by forward differences (same step policy as the calibration
    sensitivities).
    """
    kappa = np.asarray(kappa_star, dtype=float)
    delta = np.asarray(delta_kappa, dtype=float)
    steps = default_nd_steps(kappa) if steps is None else np.broadcast_to(
        np.asarray(steps, dtype=float), kappa.shape
    )
    f0 = float(F(kappa))
    total = 0.0
    for k in range(kappa.size):
        pert = kappa.copy()
        pert[k] += steps[k]
        dF = (float(F(pert)) - f0) / steps[k]
        total += (dF * delta[k]) ** 2
    return math.sqrt(total)


def monte_carlo_convert(E_mean, E_std, nu_mean, nu_std, n: int = 4000, seed: int = 0) -> dict:
    """Monte-Carlo propagation of (E, nu) uncertainty into (K, G).

    Draws independent normal samples, converts each admissible draw, and
    rejects (with a count) samples outside the physical parameter range.
    """
    if E_std < 0.0 or nu_std < 0.0:
        raise ParameterError("standard deviations must be non-negative")
    rng = np.random.default_rng(seed)
    E = rng.normal(E_mean, E_std, size=n)
    nu = rng.normal(nu_mean, nu_std, size=n)
    ok = (E > 0.0) & (nu < 0.5) & (nu > -1.0)
    n_rejected = int(n - ok.sum())
    if n_rejected:
        warnings.warn(f"rejected {n_rejected} inadmissible (E, nu) samples", stacklevel=2)
    E, nu = E[ok], nu[ok]
    K = E / (3.0 * (1.0 - 2.0 * nu))
    G = E / (2.0 * (1.0 + nu))
    return {
        "K_samples": K,
        "G_samples": G,
        "K_mean": float(K.mean()),
        "K_std": float(K.std(ddof=1)),
        "G_mean": float(G.mean()),
        "G_std": float(G.std(ddof=1)),
        "n_rejected": n_rejected,
    }


# ---------------------------------------------------------------------------
# Affine-invariant ensemble sampler
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class EnsembleChain:
    """Stretch-move ensemble output (walkers x steps x n_params)."""

    samples: np.ndarray
    log_posts: np.ndarray
    accepted: np.ndarray
    acceptance_rate: float
    a: float
    seed: int
    burn_in: float = 0.5

    def posterior(self) -> np.ndarray:
        start = int(self.burn_in * self.samples.shape[1])
        return self.samples[:, start:, :].reshape(-1, self.samples.shape[2])

    def mean(self) -> np.ndarray:
        return self.posterior().mean(axis=0)

    def std(self) -> np.ndarray:
        return self.posterior().std(axis=0, ddof=1)


# Usual lower bound of a healthy stretch-move acceptance rate (Foreman-Mackey
# et al. 2013 advise 0.2-0.5); below it the chain mixes poorly.
LOW_ACCEPTANCE = 0.2


def _check_sampler_settings(ndim: int, n_walkers: int, n_steps: int, a: float) -> None:
    """Raise ParameterError for settings no ensemble run can use."""
    if n_walkers < 2 * ndim:
        raise ParameterError(f"need at least {2 * ndim} walkers for {ndim} parameters")
    if n_steps < 1:
        raise ParameterError(f"need at least one step, got {n_steps}")
    if not a > 1.0:
        raise ParameterError("stretch parameter must satisfy a > 1")


def ensemble_sample(
    log_post,
    lower,
    upper,
    n_walkers: int,
    n_steps: int,
    a: float = 2.0,
    seed=0,
    initial: np.ndarray | None = None,
) -> EnsembleChain:
    """Affine-invariant stretch-move sampler over a box prior support.

    The two half-ensembles are updated alternately (each walker moves along
    the line to a partner from the complementary half, with stretch factor
    z ~ g(z) on [1/a, a]).  Proposals outside [lower, upper] are rejected, so
    every sample stays inside the support.  Deterministic for a fixed seed.
    A run whose acceptance rate is below ``LOW_ACCEPTANCE`` warns once, at
    the end, with the rate and the number of sweeps that accepted nothing.
    Fewer than ``2 * ndim`` walkers, fewer than one step or ``a <= 1`` raise
    ParameterError.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    ndim = lower.size
    _check_sampler_settings(ndim, n_walkers, n_steps, a)
    rng = np.random.default_rng(seed)
    x = rng.uniform(lower, upper, size=(n_walkers, ndim)) if initial is None else np.array(initial, dtype=float)
    lp = np.array([log_post(xi) for xi in x])
    half = n_walkers // 2
    groups = (np.arange(0, half), np.arange(half, n_walkers))
    samples = np.empty((n_walkers, n_steps, ndim))
    log_posts = np.empty((n_walkers, n_steps))
    accepted_flags = np.zeros((n_walkers, n_steps), dtype=bool)
    n_accept = 0
    for step in range(n_steps):
        accepted_this_sweep = 0
        for active, other in ((groups[0], groups[1]), (groups[1], groups[0])):
            z = ((a - 1.0) * rng.uniform(size=active.size) + 1.0) ** 2 / a
            partners = other[rng.integers(0, other.size, size=active.size)]
            proposal = x[partners] + z[:, None] * (x[active] - x[partners])
            inside = np.all((proposal >= lower) & (proposal <= upper), axis=1)
            lp_prop = np.full(active.size, -np.inf)
            for i in np.flatnonzero(inside):
                lp_prop[i] = log_post(proposal[i])
            log_ratio = (ndim - 1.0) * np.log(z) + lp_prop - lp[active]
            accept = np.log(rng.uniform(size=active.size)) < log_ratio
            x[active[accept]] = proposal[accept]
            lp[active[accept]] = lp_prop[accept]
            accepted_flags[active[accept], step] = True
            accepted_this_sweep += int(accept.sum())
        n_accept += accepted_this_sweep
        samples[:, step, :] = x
        log_posts[:, step] = lp
    acceptance_rate = n_accept / (n_walkers * n_steps)
    if acceptance_rate < LOW_ACCEPTANCE:
        n_empty = int(np.count_nonzero(~accepted_flags.any(axis=0)))
        warnings.warn(
            f"acceptance rate {acceptance_rate:.3f} is below {LOW_ACCEPTANCE} "
            f"({n_empty} of {n_steps} ensemble sweeps accepted no proposal); "
            f"consider a smaller stretch parameter (a = {a})",
            stacklevel=2,
        )
    return EnsembleChain(
        samples=samples,
        log_posts=log_posts,
        accepted=accepted_flags,
        acceptance_rate=acceptance_rate,
        a=a,
        seed=seed if isinstance(seed, int) else -1,
    )


# ---------------------------------------------------------------------------
# Hierarchical two-step Bayes
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class HierarchicalResult:
    """Nested posterior summaries across elastic-parameter draws."""

    kappa_e_draws: np.ndarray  # (n_outer, n_e)
    means: np.ndarray  # (n_ok, n_p) inner posterior means
    stds: np.ndarray  # (n_ok, n_p) inner posterior standard deviations
    pooled: np.ndarray  # merged posterior sample over all inner chains
    failures: list  # (draw index, exception text) of each failed chain, in draw order

    @property
    def n_failed(self) -> int:
        return len(self.failures)

    def pooled_mean(self) -> np.ndarray:
        return self.pooled.mean(axis=0)

    def pooled_std(self) -> np.ndarray:
        return self.pooled.std(axis=0, ddof=1)


def _run_inner_chain(args):
    """One inner chain: ``((mean, std, posterior), None)``, or ``(None, text)``
    with the exception text when it fails, so that a worker process returns
    failures (as picklable text) instead of raising them."""
    make_log_post, kappa_e, lower, upper, n_walkers, n_steps, a, seed = args
    try:
        log_post = make_log_post(kappa_e)
        chain = ensemble_sample(log_post, lower, upper, n_walkers, n_steps, a=a, seed=seed)
        post = chain.posterior()
    except Exception as exc:  # inner-chain failure: flag and skip
        return None, str(exc)
    return (post.mean(axis=0), post.std(axis=0, ddof=1), post), None


def hierarchical_two_step_bayes(
    elastic_samples: np.ndarray,
    make_log_post,
    lower,
    upper,
    n_outer: int,
    n_walkers: int = 16,
    n_steps: int = 80,
    a: float = 2.0,
    seed: int = 0,
    jobs: int = 1,
) -> HierarchicalResult:
    """Nested sampling of the plastic posterior over elastic-posterior draws.

    For each of ``n_outer`` draws from the elastic posterior sample, runs an
    inner ensemble chain over the plastic parameters (``make_log_post``
    returns the conditional log posterior for a given elastic draw).  Failed
    inner chains are skipped; ``failures`` keeps each one's draw index and
    exception text; when every chain fails, DivergenceError names the count
    and the first failure.  RNG streams are spawned deterministically per
    task, so results, failures included, do not depend on ``jobs``.  The
    chains run on ``min(jobs, n_outer)`` worker processes, or in this process
    when that is 1.  ``n_outer`` and ``jobs`` below 1, and sampler settings
    that :func:`ensemble_sample` rejects, raise ParameterError before any chain
    runs.
    """
    if n_outer < 1:
        raise ParameterError(f"need at least one outer draw, got n_outer={n_outer}")
    if jobs < 1:
        raise ParameterError(f"need at least one job, got jobs={jobs}")
    _check_sampler_settings(np.size(lower), n_walkers, n_steps, a)
    elastic_samples = np.atleast_2d(np.asarray(elastic_samples, dtype=float))
    ss = np.random.SeedSequence(seed)
    seeds = ss.spawn(n_outer + 1)
    rng = np.random.default_rng(seeds[0])
    idx = rng.integers(0, len(elastic_samples), size=n_outer)
    draws = elastic_samples[idx]
    tasks = [
        (make_log_post, draws[i], np.asarray(lower, float), np.asarray(upper, float),
         n_walkers, n_steps, a, seeds[i + 1])
        for i in range(n_outer)
    ]
    workers = min(jobs, n_outer)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_inner_chain, tasks))
    else:
        outcomes = [_run_inner_chain(t) for t in tasks]
    means, stds, pools = [], [], []
    failures = []
    for i, (t, (res, err)) in enumerate(zip(tasks, outcomes)):
        if res is None:
            failures.append((i, err))
            warnings.warn(f"inner chain failed for draw {t[1]}: {err}", stacklevel=2)
            continue
        mean, std, post = res
        means.append(mean)
        stds.append(std)
        pools.append(post)
    if not pools:
        first, text = failures[0]
        raise DivergenceError(
            f"all {len(failures)} inner chains failed; the first, at draw {first}: {text}"
        )
    return HierarchicalResult(
        kappa_e_draws=draws,
        means=np.array(means),
        stds=np.array(stds),
        pooled=np.concatenate(pools),
        failures=failures,
    )
