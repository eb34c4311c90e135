"""The sequential sampler: initialize, reweight, resample, smooth.

Level 1 is drawn exactly when the ladder allows it, and otherwise from a
Gaussian proposal whose importance weights are folded into the first
reweighting.  One run is fully determined by its master seed.  Its 2n - 1
streams on an n-level ladder are PCG64 generators seeded by the children of
``numpy.random.SeedSequence(seed).spawn(2n - 1)``: child 0 initializes,
children 1..n-1 resample at levels 2..n and children n..2n-2 smooth at
levels 2..n.  The children's seed words are computed for a whole block of
seeds in one vectorized pass of numpy's documented ``SeedSequence`` hash,
bitwise as numpy derives them, and no ``SeedSequence`` is built; so a
stream's ``bit_generator.seed_seq`` is not a ``SeedSequence`` and cannot
``spawn``.  Replicate i of a master seed m runs at the seed
``SeedSequence((m, i)).generate_state(1, np.uint64)``, computed the same
way (``replicate_seed``, ``replicate_seeds``).

One driver runs a block of B replicates as a (B, N) array: the ratio, the
estimand, the Langevin gradient, the finite kernel's table lookup and the
resampling search (``multinomial_resample``: one branch-free binary search
over the block's cumulative weights, bitwise what ``np.searchsorted`` gives
each row) see the whole block at once, while every replicate draws only from
its own streams into its own row, so each result is bitwise that of a lone
``run_smc``.
Replicates run in blocks of up to 2^16 particle cells: a particle has S
cells on a ladder over S finite states (level 1 has a pmf; 2^14 particles on
four states) and M·d cells on a ladder whose levels carry a mixture of M
components in dimension d.  A Euclidean block keeps its (B, N, d) shape
through the mixture evaluators: a flattened (B·N, d) stack rounds
differently from each replicate's points alone (with numpy 2.4 and OpenBLAS
0.3.31: from d = 16 on for N >= 2, through the BLAS products, and from d = 2
on for N = 1, through the squared norms), but each (d, d) @ (d, N) slice of
the block is the product of a lone run, and the components are summed in a
fixed order, so a row's values do not depend on the block it shares.

Run results are invariant to the storage order of the particle ensemble:
particles carry lane ids and the driver sorts an injected initial ensemble by
them on entry (``sample_initial`` returns its lanes in order), so permuting
it together with its lane ids (and its importance weights) reproduces the run
exactly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import cache, partial
from typing import Callable, Optional

import numpy as np

from .core import (DegenerateWeightsError, Ladder, Level, ParticleEnsemble, _check_generators,
                   _cumulative, _search_rows, effective_sample_size)
from .kernels import mh_evolve, poissonized_evolve, ula_evolve
from .sequences import init_sampler as sample_initial
from .sequences import level_grad_log_density, level_log_density

__all__ = [
    "SmcConfig",
    "SmcRunResult",
    "multinomial_resample",
    "apply_kernel",
    "run_smc",
    "replicate_seed",
    "replicate_seeds",
    "run_replicates",
    "run_seeded",
    "summarize_etas",
]


@dataclass(frozen=True, eq=False)
class SmcConfig:
    """Everything one SMC run needs.

    ``estimand`` must be vectorized over the ensemble and bounded.  A config
    that runs in a process pool must pickle: its ladder does, and the CLI's
    estimands are partials of module functions.
    """

    ladder: Ladder
    n_particles: int
    master_seed: int
    estimand: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError("need at least one particle")


@dataclass(frozen=True, eq=False)
class SmcRunResult:
    """Estimates and per-level diagnostics of one run, the one per-run record.

    ``weight_sums_per_level`` holds the empirical means of the raw
    (unnormalized) ratios used for resampling, self-normalized by the
    level-1 importance weights at the first step; ``nu_estimate`` is the
    unbiased weighted estimator, the product of
    ``normalized_weight_sums_per_level`` times eta, when normalized ratios
    were available and level 1 was drawn unweighted, else None.
    ``init_acceptance_rate`` is the efficiency of the level-1 draw (see
    ``sequences.init_sampler``); ``final_ensemble`` holds the last level's
    particles.  ``to_dict`` is the one definition of a replicate's
    ``run.json`` entry: the wall times are not reproducible and appear only
    in ``levels.csv``.
    """

    eta_estimate: float
    nu_estimate: Optional[float]
    ess_per_level: tuple
    weight_sums_per_level: tuple
    normalized_weight_sums_per_level: Optional[tuple]
    init_acceptance_rate: float
    level_wall_times: tuple
    master_seed: int
    final_ensemble: ParticleEnsemble

    def to_dict(self) -> dict:
        """This run's replicate entry of ``run.json``, without its index:
        every field but the wall times and the particles."""
        nbar = self.normalized_weight_sums_per_level
        return {
            "seed": self.master_seed,
            "eta": self.eta_estimate,
            "nu": self.nu_estimate,
            "ess_per_level": list(self.ess_per_level),
            "weight_sums_per_level": list(self.weight_sums_per_level),
            "normalized_weight_sums_per_level": None if nbar is None else list(nbar),
            "init_acceptance_rate": self.init_acceptance_rate,
        }


def multinomial_resample(weights, n_draws: int, rng) -> np.ndarray:
    """``n_draws`` i.i.d. categorical draws proportional to ``weights``.

    ``weights`` is a vector with one generator ``rng``, or a (B, N) block of
    rows with a sequence of B generators: row b draws its uniforms from
    ``rng[b]`` and gets the draws a vector call on that row would give.  The
    result indexes the flattened weights, shape ``weights.shape[:-1] +
    (n_draws,)``.  Self-normalizes each row by ``_cumulative`` (a row whose
    sum overflows is first divided by its largest weight) and searches the
    whole block at once (``_search_rows``); raises DegenerateWeightsError
    when a row's weights are all zero, negative, or non-finite, and
    ValueError when a block does not come with one generator a row.
    """
    w = np.asarray(weights, dtype=float)
    rows = w.ndim == 2
    if w.ndim not in (1, 2) or w.shape[-1] == 0:
        raise DegenerateWeightsError("degenerate weights: empty or not a vector")
    if not rows:
        w, rng = w[None], (rng,)
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise DegenerateWeightsError("degenerate weights: negative or non-finite")
    if not np.all(w.any(axis=1)):
        raise DegenerateWeightsError("degenerate weights: all zero")
    _check_generators(rng, len(w))
    u = np.empty((w.shape[0], n_draws))
    for row, gen in zip(u, rng):
        row[:] = gen.random(n_draws)
    idx = _search_rows(_cumulative(w), u)
    return idx if rows else idx[0]


# numpy's SeedSequence hash (pool size 4), evaluated on uint32 arrays with one
# entropy row per sequence; the hash constants are computed ahead, so that every
# step is an array operation that wraps modulo 2^32 without a warning
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _powers(init: int, mult: int, n: int) -> np.ndarray:
    """``init * mult**k mod 2**32`` for k < n, as uint32."""
    out = [init]
    for _ in range(n - 1):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


# generate_state constants for up to 4 uint64 (8 uint32) words
_HASH_B = _powers(0x8B51F9DD, 0x58F38DED, 8 + 1)


def _hashmix(value: np.ndarray, consts: np.ndarray, k: int, m: int) -> np.ndarray:
    """Hash calls k..k+m-1 at once: column j of ``value`` (or its only
    column) is hashed with the constants of call k+j."""
    value = (value ^ consts[k:k + m]) * consts[k + 1:k + m + 1]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = _MIX_L * x - _MIX_R * y
    return value ^ (value >> 16)


# for each pool word, the other words in order: the words it is mixed into
_OTHERS = [[dst for dst in range(_POOL_SIZE) if dst != src] for src in range(_POOL_SIZE)]
# generate_state reads the pool words in turn, cycling
_CYCLE = np.arange(8) % _POOL_SIZE


def _seed_state(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """(R, n_words) uint64: row r is ``generate_state(n_words, np.uint64)``
    of a ``SeedSequence`` whose assembled entropy is the uint32 row
    ``entropy[r]`` (n_words <= 4)."""
    n_rows, width = entropy.shape
    if width < _POOL_SIZE:  # the pool is filled with hashed zeros
        entropy = np.concatenate(
            [entropy, np.zeros((n_rows, _POOL_SIZE - width), dtype=np.uint32)], axis=1)
        width = _POOL_SIZE
    # an entropy row of width L >= 4 takes 4 L hashmix constants, plus the
    # multiplier of the last
    consts = _powers(_INIT_A, _MULT_A, 4 * width + 1)
    pool = _hashmix(entropy[:, :_POOL_SIZE], consts, 0, _POOL_SIZE)
    k = _POOL_SIZE
    # numpy mixes each word into the others one call at a time; the word
    # mixed in does not change meanwhile, so its calls run as one
    for src, others in enumerate(_OTHERS):
        hashed = _hashmix(pool[:, src:src + 1], consts, k, len(others))
        pool[:, others] = _mix(pool[:, others], hashed)
        k += len(others)
    for src in range(_POOL_SIZE, width):  # then the entropy past the pool
        pool = _mix(pool, _hashmix(entropy[:, src:src + 1], consts, k, _POOL_SIZE))
        k += _POOL_SIZE
    n32 = 2 * n_words
    state = _hashmix(pool[:, _CYCLE[:n32]], _HASH_B, 0, n32)
    # pairs of little-endian uint32 words make one uint64, as numpy reads them
    return state.astype("<u4", order="C").view("<u8").astype(np.uint64)


def _by_width(values, min_width: int):
    """Yield ``(positions, words)`` per group of ``values`` (non-negative
    ints) that take the same number of 32-bit words, at least ``min_width``:
    ``words`` holds their little-endian words, one row per value."""
    values = [int(v) for v in values]
    if values and min(values) < 0:
        raise ValueError("seeds must be non-negative")
    widths = [max(min_width, -(-v.bit_length() // 32)) for v in values]
    for width in sorted(set(widths)):  # not np.unique, which loads numpy.ma
        at = np.array([i for i, w in enumerate(widths) if w == width], dtype=np.intp)
        data = b"".join(values[i].to_bytes(4 * width, "little") for i in at.tolist())
        yield at, np.frombuffer(data, dtype="<u4").reshape(at.size, width).astype(np.uint32)


def _child_states(seeds, n_children: int) -> np.ndarray:
    """(B, n_children, 4) uint64: entry [b, j] is the PCG64 seed
    ``SeedSequence(seeds[b]).spawn(n_children)[j].generate_state(4,
    np.uint64)``, for the whole block in one pass."""
    out = np.empty((len(seeds), n_children, 4), dtype=np.uint64)
    keys = np.arange(n_children, dtype=np.uint32)
    for at, words in _by_width(seeds, _POOL_SIZE):
        # a child's entropy: its parent's words, zero-padded to the pool
        # size, then its spawn key
        entropy = np.column_stack([np.repeat(words, n_children, axis=0), np.tile(keys, at.size)])
        out[at] = _seed_state(entropy, 4).reshape(at.size, n_children, 4)
    return out


@cache
def _seed_words_type() -> type:
    """The ``ISeedSequence`` that hands a bit generator the seed words a
    ``SeedSequence`` child would generate for it, precomputed by
    ``_child_states``; it cannot spawn.  Built on first use, so that a
    command that runs no sampler does not load ``numpy.random`` (13 ms and
    6 MB)."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if np.dtype(dtype) != np.uint64 or n_words > self.words.size:
                raise ValueError("only the precomputed uint64 seed words are available")
            return self.words[:n_words]

    return SeedWords


def _streams(seeds, n_levels: int) -> list:
    """Per seed, its 2 n_levels - 1 generators: level-1 initialization, then
    resampling at levels 2..n, then smoothing at levels 2..n."""
    states = _child_states(seeds, 2 * n_levels - 1)
    seed_words = _seed_words_type()
    return [[np.random.Generator(np.random.PCG64(seed_words(w))) for w in row] for row in states]


def apply_kernel(level: Level, particles: np.ndarray, rngs) -> np.ndarray:
    """Smooth a (B, N, ...) block of ensembles for the level's time budget;
    row b draws from ``rngs[b]`` only.

    A level with a ``chain`` moves the whole block at once by Poissonized
    jumps of that chain.  A Euclidean level hands the kernel its density as
    a callable over ``level_grad_log_density`` (Langevin) or
    ``level_log_density`` (Metropolis).  Langevin moves a block of more than
    one row as one (B, N, d) array; a block of one evolves as its (N, d) row,
    so the mixture evaluators see the shapes of a lone run.  Metropolis
    evolves one row at a time.
    """
    t = level.time_budget
    if level.chain is not None:
        return poissonized_evolve(level.chain, particles, t, rngs)
    spec = level.kernel
    if spec.kind == "langevin":
        grad = partial(level_grad_log_density, level)
        if len(rngs) == 1:
            return ula_evolve(grad, particles[0], t, spec.step_size, rngs[0])[None]
        return ula_evolve(grad, particles, t, spec.step_size, rngs)
    log_density = partial(level_log_density, level)
    rows = [mh_evolve(log_density, x, t, spec.proposal_scale, rng)
            for x, rng in zip(particles, rngs)]
    return np.stack(rows)


# particle cells per block: the finite kernel's table lookup builds a
# (particles, states) array and the mixture evaluators (M, B, d, N) ones, so
# this keeps them and the block's other arrays near half a megabyte
_BLOCK_CELLS = 2 ** 16


def _block_size(config: SmcConfig) -> int:
    """Replicates per block: as many as keep particles times cells within
    ``_BLOCK_CELLS`` (see the module docstring); a ladder that
    ``sample_initial`` can start has a level-1 pmf or mixtures."""
    levels = config.ladder.levels
    if levels[0].pmf is not None:
        cells = levels[0].pmf.size
    else:
        cells = max(lv.mixture.n_components * lv.mixture.dim
                    for lv in levels if lv.mixture is not None)
    return max(1, _BLOCK_CELLS // (config.n_particles * cells))


def _by_row(per_level: list, n_rows: int) -> list:
    """Per-level (B,) arrays as one tuple of Python floats per row."""
    if not per_level:
        return [()] * n_rows
    return [tuple(r) for r in np.array(per_level).T.tolist()]


def _run_block(config: SmcConfig, seeds, initial_ensemble=None) -> list:
    """One run of ``config`` per seed, as one (B, N) block; see ``run_smc``.

    Row b draws its level-1 sample, its resampling uniforms and its kernel
    randomness from the streams of ``seeds[b]`` only.  A block's level time
    is shared equally by its replicates' ``level_wall_times``.
    """
    ladder = config.ladder
    levels = ladder.levels
    n = len(levels)
    N = config.n_particles
    B = len(seeds)
    streams = _streams(seeds, n)

    if initial_ensemble is None:  # sample_initial returns its lanes in order
        ensembles = [sample_initial(ladder, N, rngs[0]) for rngs in streams]
    else:
        if initial_ensemble.n_particles != N:
            raise ValueError("initial ensemble size does not match the config")
        ensembles = [initial_ensemble]
    particles = np.stack([e.particles for e in ensembles])
    log_w = None
    if ensembles[0].log_weights is not None:
        log_w = np.stack([e.log_weights for e in ensembles])
    if initial_ensemble is not None:  # canonical storage order: by lane id
        order = np.argsort(initial_ensemble.lane_ids, kind="stable")
        particles = particles[:, order]
        log_w = None if log_w is None else log_w[:, order]
    init_rates = [float(e.init_acceptance_rate) for e in ensembles]
    del ensembles  # the block holds the particles now
    state_shape = particles.shape[2:]

    ess_log, wsum_log, wall_log = [], [], []
    normalized_ok = log_w is None and all(lv.normalized_ratio is not None for lv in levels[1:])
    nbar_log = [] if normalized_ok else None

    for k in range(1, n):
        t0 = time.perf_counter()
        level = levels[k]
        # a block of one is passed as its (N, ...) row: the shapes of a lone run
        block = particles if B > 1 else particles[0]
        g = np.asarray(level.ratio_to_prev(block), dtype=float).reshape(B, N)
        w = g
        if log_w is not None:  # importance-weighted level-1 draw
            carried = np.exp(log_w - np.max(log_w, axis=1, keepdims=True))
            w, log_w = g * carried, None
        total = w.sum(axis=1)
        if not np.all(np.isfinite(w)) or np.any(w < 0) or np.any(total <= 0):
            raise DegenerateWeightsError(f"degenerate weights at level {k + 1}")
        wsum_log.append(g.mean(axis=1) if w is g else total / carried.sum(axis=1))
        ess_log.append(effective_sample_size(w))
        if normalized_ok:
            if level.normalized_ratio is level.ratio_to_prev:
                gbar = g
            else:
                gbar = np.asarray(level.normalized_ratio(block), dtype=float).reshape(B, N)
            nbar_log.append(gbar.mean(axis=1))
        ancestors = multinomial_resample(w, N, [rngs[k] for rngs in streams])
        particles = particles.reshape(B * N, *state_shape)[ancestors]
        particles = apply_kernel(level, particles, [rngs[n - 1 + k] for rngs in streams])
        wall_log.append((time.perf_counter() - t0) / B)

    values = np.asarray(config.estimand(particles.reshape(B * N, *state_shape)), dtype=float)
    values = values.reshape(B, N)
    ess_rows, wsum_rows = _by_row(ess_log, B), _by_row(wsum_log, B)
    nbar_rows = _by_row(nbar_log, B) if normalized_ok else [None] * B
    if log_w is None:  # shift-and-fsum means: exact for a constant row, stable in general
        bases = values[:, 0].tolist()
        shifted = values - values[:, :1]
        etas = [base + math.fsum(row.tolist()) / N for base, row in zip(bases, shifted)]
    else:
        etas = [float(np.average(v, weights=np.exp(lw - np.max(lw))))
                for v, lw in zip(values, log_w)]
    results = []
    for b, (seed, eta) in enumerate(zip(seeds, etas)):
        results.append(SmcRunResult(
            eta_estimate=eta,
            nu_estimate=math.prod(nbar_rows[b]) * eta if normalized_ok else None,
            ess_per_level=ess_rows[b],
            weight_sums_per_level=wsum_rows[b],
            normalized_weight_sums_per_level=nbar_rows[b],
            init_acceptance_rate=init_rates[b],
            level_wall_times=tuple(wall_log),
            master_seed=seed,
            final_ensemble=ParticleEnsemble(
                particles[b], log_weights=None if log_w is None else log_w[b]),
        ))
    return results


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
    return _run_block(config, [config.master_seed], initial_ensemble)[0]


def run_seeded(config: SmcConfig, seeds):
    """Yield one run of ``config`` per master seed, in order, each bitwise
    equal to ``run_smc`` at that seed; replicates run in blocks of
    ``_block_size``, and a block's arrays are freed once its runs are
    consumed."""
    size = _block_size(config)
    # blocks of one go through run_smc so that tools wrapping it (the
    # benchmark's tracer) still see every run that forms no block; the loop
    # below gives the same results at size 1
    if size == 1:
        for s in seeds:
            yield run_smc(replace(config, master_seed=s))
        return
    for i in range(0, len(seeds), size):
        yield from _run_block(config, seeds[i:i + size])


def _replicate_seeds(master_seed: int, indices) -> list:
    """``SeedSequence((master_seed, i)).generate_state(1, np.uint64)`` for
    each index i, as Python ints."""
    ((_, master),) = _by_width([master_seed], 1)
    out = np.empty(len(indices), dtype=np.uint64)
    for at, words in _by_width(indices, 1):
        entropy = np.column_stack([np.repeat(master, at.size, axis=0), words])
        out[at] = _seed_state(entropy, 1)[:, 0]
    return out.tolist()


def replicate_seed(master_seed: int, index: int) -> int:
    """Stable 64-bit seed for replicate ``index`` derived from the master seed."""
    return _replicate_seeds(master_seed, [index])[0]


def replicate_seeds(master_seed: int, n_replicates: int) -> list:
    """``replicate_seed(master_seed, i)`` for i < n_replicates, in one pass."""
    return _replicate_seeds(master_seed, range(n_replicates))


def run_replicates(config: SmcConfig, n_replicates: int) -> list:
    """Independent seeded replicates of one configuration, in index order."""
    return list(run_seeded(config, replicate_seeds(config.master_seed, n_replicates)))


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

