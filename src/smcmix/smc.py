"""The sequential sampler: initialize, reweight, resample, smooth.

Level 1 is drawn exactly when the ladder allows it, and otherwise from a
Gaussian proposal whose importance weights are folded into the first
reweighting.  One run is fully determined by its master seed.  Randomness
is split with ``numpy.random.SeedSequence`` into one stream for
initialization and, per level, one stream for resampling and one for kernel
smoothing.  Replicates derive independent seeds from
``(master_seed, replicate_index)``.

Run results are invariant to the storage order of the particle ensemble:
particles carry lane ids and the driver canonicalizes their order on entry,
so permuting an injected initial ensemble together with its lane ids (and
its importance weights) reproduces the run exactly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .core import DegenerateWeightsError, Ladder, ParticleEnsemble, effective_sample_size
from .kernels import apply_kernel
from .sequences import sample_initial

__all__ = [
    "SmcConfig",
    "SmcRunResult",
    "multinomial_resample",
    "run_smc",
    "nu_estimate",
    "replicate_seed",
    "run_replicates",
    "mse_over_runs",
    "summarize_etas",
]


@dataclass(frozen=True, eq=False)
class SmcConfig:
    """Everything one SMC run needs.

    ``estimand`` must be vectorized over the ensemble and bounded.
    """

    ladder: Ladder
    n_particles: int
    master_seed: int
    estimand: Callable[[np.ndarray], np.ndarray]
    record_trajectory: bool = False

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError("need at least one particle")


@dataclass(frozen=True, eq=False)
class SmcRunResult:
    """Estimates and per-level diagnostics of one run.

    ``weight_sums_per_level`` holds the empirical means of the raw
    (unnormalized) ratios used for resampling, self-normalized by the
    level-1 importance weights at the first step; ``nu_estimate`` is the
    unbiased weighted estimator when normalized ratios were available and
    level 1 was drawn unweighted, else None.  Wall times are excluded from
    any serialized payload that must be reproducible.
    """

    final_ensemble: ParticleEnsemble
    eta_estimate: float
    nu_estimate: Optional[float]
    ess_per_level: tuple
    weight_sums_per_level: tuple
    normalized_weight_sums_per_level: Optional[tuple]
    level_wall_times: tuple
    master_seed: int
    trajectory: Optional[tuple] = None


def _mean_exact(values: np.ndarray) -> float:
    """Shift-and-fsum mean: exact for constant inputs, stable in general."""
    base = float(values[0])
    return base + math.fsum((values - base).tolist()) / values.shape[0]


def multinomial_resample(weights, n_draws: int, rng: np.random.Generator) -> np.ndarray:
    """``n_draws`` i.i.d. categorical draws proportional to ``weights``.

    Self-normalizes internally; raises DegenerateWeightsError when the
    weights are all zero, negative, or non-finite.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise DegenerateWeightsError("degenerate weights: empty or not a vector")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise DegenerateWeightsError("degenerate weights: negative or non-finite")
    total = w.sum()
    if total <= 0:
        raise DegenerateWeightsError("degenerate weights: all zero")
    cum = np.cumsum(w) / total
    idx = np.searchsorted(cum, rng.random(n_draws), side="right")
    return np.minimum(idx, w.size - 1).astype(np.int64)


def _streams(master_seed: int, n_levels: int):
    ss = np.random.SeedSequence(master_seed)
    children = ss.spawn(1 + 2 * max(n_levels - 1, 0))
    init = np.random.default_rng(children[0])
    resample = [np.random.default_rng(c) for c in children[1 : n_levels]]
    kernel = [np.random.default_rng(c) for c in children[n_levels :]]
    return init, resample, kernel


def run_smc(config: SmcConfig, initial_ensemble: Optional[ParticleEnsemble] = None) -> SmcRunResult:
    """Execute the sampler over the whole ladder.

    Level 1 is drawn by ``sample_initial``; for k = 1..n-1 the particles
    are reweighted by the raw ratio toward level k+1, multinomially
    resampled, and smoothed by the level-(k+1) kernel for its time budget.
    A weighted level-1 draw multiplies the first ratio by its importance
    weights; with one level its weights enter eta directly.  Each level's
    ratio is evaluated once: when its ``normalized_ratio`` is its
    ``ratio_to_prev`` (convolution and finite ladders), the raw ratios are
    reused for ν.  Deterministic given the master seed.
    """
    ladder = config.ladder
    levels = ladder.levels
    n = len(levels)
    N = config.n_particles
    init_rng, resample_rngs, kernel_rngs = _streams(config.master_seed, n)

    if initial_ensemble is None:
        ens = sample_initial(ladder, N, init_rng)
    else:
        ens = initial_ensemble
        if ens.n_particles != N:
            raise ValueError("initial ensemble size does not match the config")
    order = np.argsort(ens.lane_ids, kind="stable")
    particles = np.asarray(ens.particles)[order]
    log_w = None if ens.log_weights is None else ens.log_weights[order]
    init_rate = ens.init_acceptance_rate

    ess_log, wsum_log, wall_log = [], [], []
    normalized_ok = log_w is None and all(lv.normalized_ratio is not None for lv in levels[1:])
    nbar_log = [] if normalized_ok else None
    trajectory = [particles.copy()] if config.record_trajectory else None

    for k in range(1, n):
        t0 = time.perf_counter()
        level = levels[k]
        g = np.atleast_1d(np.asarray(level.ratio_to_prev(particles), dtype=float))
        w = g
        if log_w is not None:  # importance-weighted level-1 draw
            carried = np.exp(log_w - np.max(log_w))
            w, log_w = g * carried, None
        if not np.all(np.isfinite(w)) or np.any(w < 0) or w.sum() <= 0:
            raise DegenerateWeightsError(f"degenerate weights at level {k + 1}")
        wsum_log.append(float(np.mean(g)) if w is g else float(w.sum() / carried.sum()))
        ess_log.append(effective_sample_size(w))
        if normalized_ok:
            if level.normalized_ratio is level.ratio_to_prev:
                gbar = g
            else:
                gbar = np.atleast_1d(np.asarray(level.normalized_ratio(particles), dtype=float))
            nbar_log.append(float(np.mean(gbar)))
        ancestors = multinomial_resample(w, N, resample_rngs[k - 1])
        particles = particles[ancestors]
        particles = apply_kernel(level, particles, kernel_rngs[k - 1])
        wall_log.append(time.perf_counter() - t0)
        if trajectory is not None:
            trajectory.append(particles.copy())

    values = np.atleast_1d(np.asarray(config.estimand(particles), dtype=float))
    if log_w is None:
        eta = _mean_exact(values)
    else:
        eta = float(np.average(values, weights=np.exp(log_w - np.max(log_w))))
    nu_scale = float(math.prod(nbar_log)) if normalized_ok else 1.0
    final = ParticleEnsemble(
        level_index=n,
        particles=particles,
        nu_scale=nu_scale,
        init_acceptance_rate=init_rate,
        log_weights=log_w,
    )
    return SmcRunResult(
        final_ensemble=final,
        eta_estimate=eta,
        nu_estimate=nu_scale * eta if normalized_ok else None,
        ess_per_level=tuple(ess_log),
        weight_sums_per_level=tuple(wsum_log),
        normalized_weight_sums_per_level=tuple(nbar_log) if normalized_ok else None,
        level_wall_times=tuple(wall_log),
        master_seed=config.master_seed,
        trajectory=tuple(trajectory) if trajectory is not None else None,
    )


def nu_estimate(result: SmcRunResult, z_ratio_correction: Optional[float] = None) -> float:
    """Weighted unbiased estimator: product of ratio means times eta.

    Uses the recorded normalized ratio means when available; otherwise a
    ``z_ratio_correction`` equal to Z_1/Z_n must be supplied to rescale the
    raw ratio means, and its absence is an error.
    """
    if result.normalized_weight_sums_per_level is not None:
        scale = math.prod(result.normalized_weight_sums_per_level)
        return scale * result.eta_estimate
    if z_ratio_correction is None:
        raise ValueError("normalizers unavailable and no Z-ratio correction supplied")
    scale = z_ratio_correction * math.prod(result.weight_sums_per_level)
    return scale * result.eta_estimate


def replicate_seed(master_seed: int, index: int) -> int:
    """Stable 64-bit seed for replicate ``index`` derived from the master seed."""
    ss = np.random.SeedSequence((int(master_seed), int(index)))
    return int(ss.generate_state(1, np.uint64)[0])


def run_replicates(config: SmcConfig, n_replicates: int) -> list:
    """Independent seeded replicates of one configuration, in index order."""
    results = []
    for i in range(n_replicates):
        seeded = replace(config, master_seed=replicate_seed(config.master_seed, i))
        results.append(run_smc(seeded))
    return results


def _jackknife_se(loo: np.ndarray) -> float:
    """Jackknife standard error from the R leave-one-out values of a statistic."""
    r = loo.shape[0]
    return float(np.sqrt((r - 1) / r * np.sum((loo - loo.mean()) ** 2)))


def summarize_etas(etas, exact_value: Optional[float]) -> dict:
    """Empirical MSE / variance / squared bias of R replicate estimates of
    ``exact_value``, each with its jackknife standard error.

    The leave-one-out values come in closed form, so the whole summary is
    O(R): with m the mean, d_i = x_i - m and SS = Σ d_i², dropping x_i leaves
    the mean m - d_i/(R-1), the sum of squares SS - R/(R-1) d_i² and the
    squared-error sum minus (x_i - exact)².  A standard error that is not
    defined is None: all three at R = 1 and the variance's at R = 2.  With
    ``exact_value`` None only the mean and the variance are given.
    """
    etas = np.asarray(etas, dtype=float)
    r = etas.shape[0]
    mean = etas.mean()
    out = {
        "mse": None,
        "variance": float(np.var(etas, ddof=1)) if r > 1 else 0.0,
        "bias_sq": None,
        "mean_eta": float(mean),
        "mse_se": None,
        "variance_se": None,
        "bias_sq_se": None,
        "n_replicates": int(r),
    }
    dev = etas - mean
    if r > 2:
        ss = np.sum(dev ** 2)
        out["variance_se"] = _jackknife_se((ss - r / (r - 1) * dev ** 2) / (r - 2))
    if exact_value is None:
        return out
    sq = (etas - exact_value) ** 2
    out["mse"] = float(np.mean(sq))
    out["bias_sq"] = float((mean - exact_value) ** 2)
    if r > 1:
        out["mse_se"] = _jackknife_se((np.sum(sq) - sq) / (r - 1))
        out["bias_sq_se"] = _jackknife_se((mean - exact_value - dev / (r - 1)) ** 2)
    return out


def mse_over_runs(config: SmcConfig, n_replicates: int, exact_value: float) -> dict:
    """``summarize_etas`` over ``n_replicates`` seeded replicates of ``config``.

    ``exact_value`` is the true integral mu_n(f) (analytic or from the
    finite-state oracle).
    """
    etas = [r.eta_estimate for r in run_replicates(config, n_replicates)]
    return summarize_etas(etas, exact_value)
