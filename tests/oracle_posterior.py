"""The plate log posterior on the LU forward map: one sparse factorization per
evaluation (``plate_forward_model``), the reference that the spectral
``calibrix.benchmarks.plate_log_posterior`` is held to."""

import numpy as np

from calibrix.benchmarks import plate_forward_model


def lu_plate_log_posterior(case, data, sigma_e, lower, upper):
    """Log posterior over (E, nu) with a uniform box prior and a prescribed
    noise level; only the displacement blocks enter the likelihood."""
    model = plate_forward_model(case)
    d, _, _ = data.select(("u1", "u2"))
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)

    def log_post(kappa):
        if np.any(kappa < lower) or np.any(kappa > upper):
            return -np.inf
        r = model(kappa) - d
        return -0.5 * float(r @ r) / sigma_e**2

    return log_post
