"""Measure ladders (power tempering, Gaussian convolution) and their constants.

Both builders take a ``TargetMixture``, a Gaussian mixture by type, so the
density-ratio bounds, log-Sobolev bounds, and weight lower bounds are
available in closed form for every ladder they build.  A Euclidean level is
its mixture and exponent β; ``level_log_density`` and
``level_grad_log_density`` are the one definition of its density, and
``init_sampler`` draws the first level.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .bounds import convolution_gamma, lsi_convolution_bound
from .core import (
    Ladder,
    Level,
    ParticleEnsemble,
    TargetMixture,
    effective_sample_size,
    eval_mixture_logdensity,
    mixture_grad_logdensity,
)
from .gaussians import _LOG_2PI, GaussianComponent, power_normalizer
from .kernels import KernelSpec

__all__ = [
    "TemperingSchedule",
    "GaussianComponent",
    "geometric_schedule",
    "build_power_tempering",
    "power_tempering_gamma",
    "tempered_component_lsi",
    "tempered_weight_lower_bound",
    "build_gaussian_convolution",
    "lsi_convolution_bound",
    "build_finite_ladder",
    "level_log_density",
    "level_grad_log_density",
    "init_sampler",
]


@dataclass(frozen=True)
class TemperingSchedule:
    """A strictly increasing inverse-temperature / noise schedule.

    For power tempering the betas live in (0, 1] with the last equal to 1.
    For Gaussian convolution the betas are the positive noise exponents of
    the n-1 noised levels and ``sigma`` is the base noise scale, so level k
    carries additive noise of variance sigma^2 / beta_k.
    """

    betas: tuple
    d: int
    sigma: Optional[float] = None

    def __post_init__(self):
        betas = tuple(float(b) for b in self.betas)
        if len(betas) < 1:
            raise ValueError("schedule needs at least one beta")
        if not all(b > 0 for b in betas):
            raise ValueError("betas must be positive")
        if not all(b2 > b1 for b1, b2 in zip(betas, betas[1:])):
            raise ValueError("betas must be strictly increasing")
        if self.sigma is not None and not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        object.__setattr__(self, "betas", betas)


def geometric_schedule(
    n_levels: int, beta_min: float, d: int, sigma: Optional[float] = None
) -> TemperingSchedule:
    """Geometric beta ladder from beta_min to 1 over ``n_levels`` levels.

    Constant ratio beta_{i+1}/beta_i; choosing the ratio 1 + O(1/d) keeps the
    per-step density-ratio bound dimension-free.
    """
    if n_levels < 1:
        raise ValueError("need at least one level")
    if not 0 < beta_min <= 1:
        raise ValueError("beta_min must lie in (0, 1]")
    if n_levels == 1:
        betas = (1.0,)
    else:
        betas = tuple(np.geomspace(beta_min, 1.0, n_levels))
    return TemperingSchedule(betas=betas, d=d, sigma=sigma)


_LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))


def _exp_bound(log_bound: float) -> float:
    """e^log_bound of a ratio bound taken in log space; ``inf`` past the
    float range, without numpy's overflow warning."""
    return math.inf if log_bound > _LOG_FLOAT_MAX else float(np.exp(log_bound))


def power_tempering_gamma(
    target: TargetMixture, beta_i: float, beta_prev: float, conservative: bool = False
) -> float:
    """Density-ratio bound for one power-tempering step.

    Returns (1/min_k alpha_k) * (beta_i/beta_prev)^{d/2}
    * (max_k |Sigma_k| / min_k |Sigma_k|)^{(beta_i-beta_prev)/2}.

    ``conservative=True`` multiplies by (2 pi)^{d (beta_i-beta_prev)/2}; see
    build_power_tempering for when that is surfaced.
    """
    if not beta_i > beta_prev > 0:
        raise ValueError("need beta_i > beta_prev > 0")
    d = target.dim
    dbeta = beta_i - beta_prev
    log_dets = np.array([g.log_det_cov for g in target.components])
    out = (
        -np.log(target.w_star)
        + 0.5 * d * np.log(beta_i / beta_prev)
        + 0.5 * dbeta * (log_dets.max() - log_dets.min())
    )
    if conservative:
        out += 0.5 * d * dbeta * _LOG_2PI
    return _exp_bound(out)


def tempered_component_lsi(target: TargetMixture, component: int, beta_i: float) -> float:
    """Log-Sobolev upper bound for one tempered mixture component.

    (1/min_j alpha_j) * lambda_max(Sigma_component) / beta_i.  Any
    beta_i > 0 is accepted, so a last level that build_power_tempering
    takes as beta = 1 (within 1e-12) has a bound too.
    """
    if not beta_i > 0:
        raise ValueError("beta must be positive")
    return float(target.components[component].lambda_max / beta_i / target.w_star)


def tempered_weight_lower_bound(
    target: TargetMixture, betas: Optional[Sequence[float]] = None
) -> float:
    """Lower bound on every normalized mixture weight across tempered levels.

    When the components share one covariance (``TargetMixture``'s test) this
    is (min_k alpha_k)^2.  Otherwise the bound picks up the worst ratio of the
    component power normalizers over the schedule, which is why ``betas`` is
    required in that case.
    """
    gauss = target.components
    alpha_min = target.w_star
    if target._shared is not None:
        return float(alpha_min ** 2)
    if betas is None:
        raise ValueError("unequal covariances: a beta schedule is required")
    worst = np.inf
    for beta in betas:
        log_z = np.array([power_normalizer(g, beta) for g in gauss])
        denom = np.log(np.sum(target.weights * np.exp(log_z - log_z.max()))) + log_z.max()
        worst = min(worst, float(np.exp(log_z.min() - denom)))
    return float(worst * alpha_min ** 2)


def _level_kernel(kernel: Optional[KernelSpec], hessian_bound: float) -> KernelSpec:
    """A level's kernel: ``kernel`` as given, except that None and a Langevin
    spec without a step take the step ``default_step_size(hessian_bound)``."""
    kernel = kernel or KernelSpec(kind="langevin")
    if kernel.kind == "langevin" and kernel.step_size is None:
        return replace(kernel, step_size=kernels.default_step_size(hessian_bound))
    return kernel


def build_power_tempering(
    target: TargetMixture,
    schedule: TemperingSchedule,
    kernel: Optional[KernelSpec] = None,
    time_budget=1.0,
    conservative_gamma: bool = False,
) -> Ladder:
    """Power-tempering ladder pi_i ∝ pi^{beta_i} for a Gaussian mixture.

    Level i holds the target and beta_i, so its unnormalized log density
    is beta_i * log pi (``level_log_density``), and carries the step
    ratio pi^{beta_i - beta_{i-1}}, the per-step density-ratio bound from
    power_tempering_gamma, and the level log-Sobolev bound from
    tempered_component_lsi.  Every level gets ``time_budget``.  A
    multi-component level 1 below beta = 1 is drawn from ``Level.init_proposal``.
    """
    gauss = target.components
    betas = schedule.betas
    if abs(betas[-1] - 1.0) > 1e-12:
        raise ValueError("power tempering requires beta_n = 1")
    if schedule.d != target.dim:
        raise ValueError("schedule dimension does not match the target")
    if not conservative_gamma:
        warnings.warn(
            "power-tempering ratio bound uses the plain closed form; for the "
            "(2*pi)^(d*dbeta/2)-inflated variant, set ladder.conservative_gamma to "
            "true in the config, or pass conservative_gamma=True",
            RuntimeWarning,
            stacklevel=2,
        )
    levels = []
    for i, beta in enumerate(betas):
        spec = _level_kernel(kernel, beta * max(1.0 / g.lambda_min for g in gauss))
        ratio = None
        normalized = None
        bound = None
        if i > 0:
            dbeta = beta - betas[i - 1]
            ratio = partial(_power_ratio, target, dbeta, 0.0)
            if target.n_components == 1:  # log Z_{k-1} - log Z_k
                shift = power_normalizer(gauss[0], betas[i - 1]) - power_normalizer(gauss[0], beta)
                normalized = partial(_power_ratio, target, dbeta, shift)
            bound = power_tempering_gamma(target, beta, betas[i - 1], conservative_gamma)
        levels.append(
            Level(
                kernel=spec,
                time_budget=float(time_budget),
                ratio_to_prev=ratio,
                normalized_ratio=normalized,
                lsi_constant_bound=max(
                    tempered_component_lsi(target, j, beta) for j in range(len(gauss))
                ),
                ratio_bound=bound,
                mixture=target,
                beta=beta,
            )
        )
    return _ladder(levels)


def build_gaussian_convolution(
    target: TargetMixture,
    schedule: TemperingSchedule,
    kernel: Optional[KernelSpec] = None,
    time_budget=1.0,
) -> Ladder:
    """Convolution ladder mu_k = target * N(0, (sigma^2/beta_k) I).

    The first len(betas) levels are the noised mixtures (component
    covariances Sigma_i + (sigma^2/beta_k) I, weights unchanged); the final
    level is the target itself.  Per-step ratio bounds are
    ``bounds.convolution_gamma`` for noised steps and the closed-form
    determinant ratio for the final de-noising step; every level gets ``time_budget``.
    """
    gauss = target.components
    if schedule.sigma is None:
        raise ValueError("convolution schedule needs sigma")
    d = target.dim
    if schedule.d != d:
        raise ValueError("schedule dimension does not match the target")
    sigma2 = schedule.sigma ** 2
    betas = schedule.betas
    base_lsi = max(g.lambda_max for g in gauss)

    mixtures = [
        TargetMixture(
            components=tuple(g.convolved(sigma2 / beta) for g in gauss),
            weights=target.weights,
        )
        for beta in betas
    ] + [target]

    levels = []
    for k, mix in enumerate(mixtures):
        noise = sigma2 / betas[k] if k < len(betas) else 0.0
        spec = _level_kernel(kernel, max(1.0 / (g.lambda_min + noise) for g in gauss))
        ratio = None
        bound = None
        if k > 0:
            ratio = partial(_mixture_ratio, mix, mixtures[k - 1])
            if k < len(betas):
                bound = convolution_gamma(betas[k], betas[k - 1], d)
            else:  # the last noised components against the target's
                bound = _exp_bound(max(0.5 * (noised.log_det_cov - g.log_det_cov)
                                       for noised, g in zip(mixtures[k - 1].components, gauss)))
        levels.append(
            Level(
                kernel=spec,
                time_budget=float(time_budget),
                ratio_to_prev=ratio,
                normalized_ratio=ratio,  # all levels are normalized mixtures
                lsi_constant_bound=lsi_convolution_bound(base_lsi, noise),
                ratio_bound=bound,
                mixture=mix,
            )
        )
    return _ladder(levels)


def build_finite_ladder(pmfs, chains, time_budget=1.0) -> Ladder:
    """Ladder over an enumerated state space with explicit smoothing chains.

    ``pmfs`` are the per-level stationary pmfs (normalized, so ratios are the exact
    normalized ratios) and ``chains`` the per-level FiniteChains, each level's smoothing
    kernel; the level-1 chain may be None since no smoothing happens there.  Every level
    gets ``time_budget``.  A pmf of another length than level 1's is refused, and so are
    a pmf that sums to 0 and a level with mass on a state that the level before gives
    probability 0: its weights are undefined there.
    """
    sums = [np.sum(p) for p in pmfs]
    if 0 in sums:
        raise ValueError(f"level {sums.index(0) + 1} has a pmf whose entries sum to 0")
    pmfs = [np.asarray(p, dtype=float) / total for p, total in zip(pmfs, sums)]
    if len(chains) != len(pmfs):
        raise ValueError("need one chain per level")
    levels = []
    for k, (pmf, chain) in enumerate(zip(pmfs, chains)):
        if pmf.shape != pmfs[0].shape:
            raise ValueError(f"level {k + 1} has a pmf of {pmf.size} states, level 1 one of "
                             f"{pmfs[0].size}: every level needs the same states")
        if chain is None and k > 0:
            raise ValueError(f"level {k + 1} needs a chain (transition matrix P) to smooth with")
        if chain is not None and not (chain.pi.shape == pmf.shape
                                      and np.max(np.abs(chain.pi - pmf)) <= 1e-10):
            raise ValueError(f"chain at level {k + 1} is not stationary for its pmf")
        ratio = bound = None
        if k > 0:
            prev = pmfs[k - 1]
            outside = np.flatnonzero((pmf > 0) & (prev == 0))
            if outside.size:
                s = outside[0]
                raise ValueError(f"level {k + 1} puts mass {pmf[s]:g} on state {s}, which level "
                                 f"{k} gives probability 0: each level must be absolutely "
                                 "continuous with respect to the one before it")
            # a state outside supp(prev) is never sampled
            ratios = np.divide(pmf, prev, out=np.zeros_like(pmf), where=prev > 0)
            ratio = partial(_table_ratio, ratios)
            bound = float(ratios.max())
        levels.append(
            Level(
                kernel=None,
                time_budget=float(time_budget),
                ratio_to_prev=ratio,
                normalized_ratio=ratio,
                ratio_bound=bound,
                pmf=pmf,
                chain=chain,
            )
        )
    return _ladder(levels)


def _ladder(levels: list) -> Ladder:
    """The ladder of ``levels``, its γ the largest of 1 and their ratio bounds."""
    return Ladder(levels=tuple(levels),
                  gamma_bound=max([1.0] + [lv.ratio_bound for lv in levels[1:]]))


# A level's ratio to its predecessor is a ``partial`` over one of these three
# module functions, so a built ladder pickles.  They reach the evaluator by
# its module name, which a tracer may patch.


def _power_ratio(mixture: TargetMixture, dbeta: float, shift: float, x) -> np.ndarray:
    """Tempering step ``exp(dbeta * log mixture(x) + shift)``: the raw ratio
    at shift 0, the normalized one at shift log Z_{k-1} - log Z_k."""
    return np.exp(dbeta * np.asarray(eval_mixture_logdensity(mixture, x)) + shift)


def _mixture_ratio(mixture: TargetMixture, prev: TargetMixture, x) -> np.ndarray:
    """Convolution step ``mixture(x) / prev(x)`` of two normalized mixtures."""
    return np.exp(
        np.asarray(eval_mixture_logdensity(mixture, x))
        - np.asarray(eval_mixture_logdensity(prev, x))
    )


def _table_ratio(table: np.ndarray, x) -> np.ndarray:
    """Finite step: the pmf ratio of each state, looked up in ``table``."""
    return table[np.asarray(x, dtype=np.int64)]


def level_log_density(level: Level, x) -> np.ndarray:
    """Unnormalized log density ``beta * log mixture(x)`` of a Euclidean level."""
    return level.beta * np.asarray(eval_mixture_logdensity(level.mixture, x))


def level_grad_log_density(level: Level, x) -> np.ndarray:
    """Gradient of ``level_log_density``, shape matching ``x``; at β = 1 it is
    the mixture's gradient as computed, with no multiplication."""
    grad = mixture_grad_logdensity(level.mixture, x)
    if level.beta != 1.0:
        grad *= level.beta
    return grad


def init_sampler(ladder: Ladder, n_samples: int, rng: np.random.Generator) -> ParticleEnsemble:
    """Samples from the first ladder level, exact or importance-weighted.

    Exact paths, with ``init_acceptance_rate`` 1 and no weights: a finite pmf
    (categorical draws) or the level's ``exact_law``, a mixture at β = 1
    (component sampling) or a tempered single Gaussian.  Otherwise the
    level's ``init_proposal`` q (``Ladder`` ensures one) is sampled and the
    draws carry the log importance weights ``level_log_density - log q``,
    which the driver folds into the first reweighting (the first step of an
    SMC sampler).  ``init_acceptance_rate`` is then the ESS/N of those weights.
    """
    level = ladder.levels[0]
    if level.pmf is not None:
        # the draws of rng.choice(S, size=n, p=pmf), without re-checking the pmf
        states = level._cdf.searchsorted(rng.random(n_samples), side="right")
        return ParticleEnsemble(states.astype(np.int64, copy=False))
    if level.exact_law is not None:
        return ParticleEnsemble(level.exact_law.sample(rng, n_samples))
    proposal = level.init_proposal
    draws = proposal.sample(rng, n_samples)
    log_w = level_log_density(level, draws) - proposal.logpdf(draws)
    ess_frac = effective_sample_size(np.exp(log_w - np.max(log_w))) / n_samples
    return ParticleEnsemble(draws, init_acceptance_rate=ess_frac, log_weights=log_w)
