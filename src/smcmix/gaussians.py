"""Multivariate Gaussian components and the closed-form pieces built on them.

Everything here is plain numpy; densities are vectorized over a leading batch
axis so particle ensembles of shape ``(N, d)`` evaluate in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = ["GaussianComponent", "power_normalizer"]

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True, eq=False)
class GaussianComponent:
    """A single N(mean, cov) component: its Cholesky factor, that factor's
    inverse and ``log_det_cov`` are computed once, when it is built, and the
    eigenvalues behind ``lambda_max`` and ``lambda_min`` on their first read.

    Parameters
    ----------
    mean : array_like, shape (d,)
    cov : array_like
        Scalar (isotropic) or full SPD matrix, shape (d, d).
    """

    mean: np.ndarray
    cov: np.ndarray
    _chol: np.ndarray = field(init=False, repr=False)
    _chol_inv: np.ndarray = field(init=False, repr=False)
    log_det_cov: float = field(init=False, repr=False)

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        d = mean.shape[0]
        cov = np.asarray(self.cov, dtype=float)
        if cov.ndim == 0:  # a scalar is an isotropic covariance
            cov = float(cov) * np.eye(d)
        if cov.shape != (d, d):
            raise ValueError(f"covariance shape {cov.shape} does not match dimension {d}")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("mean and covariance must have finite entries")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ValueError("covariance must be symmetric")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise ValueError("covariance must be positive definite") from exc
        chol_inv = np.linalg.inv(chol)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "_chol", chol)
        object.__setattr__(self, "_chol_inv", chol_inv)
        object.__setattr__(self, "log_det_cov", float(2.0 * np.sum(np.log(np.diag(chol)))))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @cached_property
    def _eigvals(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.cov)

    @property
    def lambda_max(self) -> float:
        """Largest covariance eigenvalue."""
        return float(self._eigvals[-1])

    @property
    def lambda_min(self) -> float:
        return float(self._eigvals[0])

    def logpdf(self, x) -> np.ndarray:
        """Normalized log density at ``x`` of shape ``(..., d)``."""
        x = np.asarray(x, dtype=float)
        delta = np.atleast_2d(x) - self.mean
        flat = delta.reshape(-1, self.dim)
        z = flat @ self._chol_inv.T
        maha = np.sum(z * z, axis=1)
        out = -0.5 * (self.dim * _LOG_2PI + self.log_det_cov + maha)
        if x.ndim <= 1:
            return float(out[0])
        return out.reshape(x.shape[:-1])

    def grad_logpdf(self, x) -> np.ndarray:
        """Gradient of the log density, shape matching ``x``."""
        x = np.asarray(x, dtype=float)
        delta = np.atleast_2d(x) - self.mean
        flat = delta.reshape(-1, self.dim)
        sol = flat @ (self._chol_inv.T @ self._chol_inv)
        return -sol.reshape(x.shape) if x.ndim > 1 else -sol[0]

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` exact samples, shape (n, d)."""
        z = rng.standard_normal((n, self.dim))
        return self.mean + z @ self._chol.T

    def convolved(self, noise_variance: float) -> "GaussianComponent":
        """Component of self * N(0, noise_variance·I): variances add."""
        return GaussianComponent(self.mean, self.cov + noise_variance * np.eye(self.dim))


def power_normalizer(component: GaussianComponent, beta: float) -> float:
    """log ∫ q(x)^beta dx for a normalized Gaussian density q.

    q^beta is an unnormalized Gaussian with covariance cov/beta, so the
    integral is (2π)^{d(1-beta)/2} beta^{-d/2} |cov|^{(1-beta)/2}.
    """
    if not 0.0 < beta:
        raise ValueError("beta must be positive")
    d = component.dim
    return float(
        0.5 * d * (1.0 - beta) * _LOG_2PI
        - 0.5 * d * np.log(beta)
        + 0.5 * (1.0 - beta) * component.log_det_cov
    )
