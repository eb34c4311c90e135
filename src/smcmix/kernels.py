"""Markov transition kernels used as SMC smoothing steps.

Continuous time budgets map to kernels as follows:

* ``langevin``: ceil(t/h) Euler-Maruyama steps of size h (unadjusted
  Langevin; the ideal diffusion is what the theory analyzes, the step size is
  an artifact knob).
* ``metropolis_hastings`` / ``glauber`` / ``finite``: Poissonized jumps,
  K ~ Poisson(t) applications of the discrete chain, which is exact in law
  for the semigroup e^{t(P-I)}.

All kernels take an explicit ``numpy.random.Generator``; there is no global
RNG anywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DensitySpec, FiniteChain, Level

__all__ = [
    "KernelSpec",
    "ula_evolve",
    "mh_step",
    "mh_evolve",
    "glauber_transition_matrix",
    "mh_transition_matrix",
    "poissonized_evolve",
    "apply_kernel",
    "default_step_size",
]

KERNEL_KINDS = ("langevin", "metropolis_hastings", "glauber", "finite")


@dataclass(frozen=True)
class KernelSpec:
    """Which smoothing kernel a level uses and its tuning knobs.

    ``step_size`` is the Langevin discretization step h; ``proposal_scale``
    the isotropic-Gaussian proposal std for Metropolis-Hastings.  The time
    budget itself is carried by the Level.
    """

    kind: str
    step_size: float = 0.05
    proposal_scale: float = 1.0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.proposal_scale <= 0:
            raise ValueError("proposal_scale must be positive")


def default_step_size(hessian_bound: float) -> float:
    """Langevin step h = 0.05 * min(1, 1/hessian_bound).

    ``hessian_bound`` is an estimate of the largest curvature of the
    potential; the scaling keeps the update stable for quadratic-like
    potentials.
    """
    if hessian_bound <= 0:
        raise ValueError("hessian bound must be positive")
    return 0.05 * min(1.0, 1.0 / hessian_bound)


def ula_evolve(density: DensitySpec, x, t: float, h: float, rng: np.random.Generator):
    """Endpoint of ceil(t/h) unadjusted-Langevin steps started at ``x``.

    Each step is ``x <- x + h * grad_log_density(x) + sqrt(2h) * xi`` with
    standard normal ``xi``.  ``x`` may be one state ``(d,)`` or a batch
    ``(N, d)``; with ``t=0`` the input is returned unchanged.
    """
    if density.grad_log_density is None:
        raise ValueError("Langevin kernel requires a gradient")
    if t < 0:
        raise ValueError("time must be nonnegative")
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    state = np.atleast_2d(x).copy()
    n_steps = int(np.ceil(t / h))
    root = np.sqrt(2.0 * h)
    for _ in range(n_steps):
        grad = np.asarray(density.grad_log_density(state), dtype=float)
        if not np.all(np.isfinite(grad)):
            bad = state[~np.isfinite(grad).all(axis=1)][0]
            raise FloatingPointError(f"non-finite gradient at state {bad}")
        state = state + h * grad + root * rng.standard_normal(state.shape)
    return state[0] if single else state


def mh_step(density: DensitySpec, x, proposal_scale: float, rng: np.random.Generator):
    """One Metropolis step with a symmetric isotropic Gaussian proposal.

    The proposal symmetry reduces the acceptance ratio to
    min(1, p(y)/p(x)); higher-density proposals are always accepted.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    state = np.atleast_2d(x)
    proposal = state + proposal_scale * rng.standard_normal(state.shape)
    log_ratio = np.atleast_1d(density.log_density(proposal)) - np.atleast_1d(
        density.log_density(state)
    )
    accept = np.log(rng.random(state.shape[0])) < log_ratio
    out = np.where(accept[:, None], proposal, state)
    return out[0] if single else out


def _poisson_jumps(state: np.ndarray, t: float, rng: np.random.Generator, step) -> np.ndarray:
    """Apply ``step(states, rng)`` K ~ Poisson(t) times to each entry of
    ``state``, in place; each particle draws its own jump count."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    jumps = rng.poisson(t, size=state.shape[0])
    for j in range(int(jumps.max(initial=0))):
        active = jumps > j
        state[active] = step(state[active], rng)
    return state


def mh_evolve(density: DensitySpec, x, t: float, proposal_scale: float, rng: np.random.Generator):
    """Poissonized Metropolis chain: K ~ Poisson(t) steps per particle."""
    x = np.asarray(x, dtype=float)
    state = _poisson_jumps(
        np.atleast_2d(x).copy(), t, rng,
        lambda states, rng: mh_step(density, states, proposal_scale, rng),
    )
    return state[0] if x.ndim == 1 else state


def glauber_transition_matrix(pmf, d: int) -> FiniteChain:
    """Glauber (single-site heat bath) chain for a pmf on {0,1}^d.

    Picks a coordinate uniformly, then resamples it from its conditional
    given the rest: the off-diagonal entry toward the flip of coordinate i is
    (1/d) * p(flip) / (p(x) + p(flip)).  The result is reversible with
    stationary distribution ``pmf``.
    """
    if d > 14:
        raise ValueError("hypercube dimension too large (d must be <= 14)")
    pmf = np.asarray(pmf, dtype=float)
    size = 2 ** d
    if pmf.shape != (size,):
        raise ValueError(f"pmf must have length 2^d = {size}")
    if np.any(pmf <= 0):
        raise ValueError("Glauber dynamics requires a strictly positive pmf")
    pmf = pmf / pmf.sum()
    idx = np.arange(size)
    P = np.zeros((size, size))
    for i in range(d):
        flip = idx ^ (1 << i)
        P[idx, flip] = pmf[flip] / (pmf[idx] + pmf[flip]) / d
    P[idx, idx] += 1.0 - P.sum(axis=1)
    labels = tuple(tuple((s >> i) & 1 for i in range(d)) for s in range(size))
    return FiniteChain(P=P, pi=pmf, labels=labels)


def mh_transition_matrix(pmf, proposal=None) -> FiniteChain:
    """Metropolis-Hastings chain on an enumerated space.

    ``proposal`` is a row-stochastic matrix P(y|x); the default is uniform
    over all states.  Off-diagonal entries are
    P(y|x) * min(1, pi(y)P(x|y) / (pi(x)P(y|x))), the diagonal absorbs the
    rejected mass.
    """
    pmf = np.asarray(pmf, dtype=float)
    size = pmf.shape[0]
    if np.any(pmf <= 0):
        raise ValueError("Metropolis chain requires a strictly positive pmf")
    pmf = pmf / pmf.sum()
    if proposal is None:
        proposal = np.full((size, size), 1.0 / size)
    else:
        proposal = np.asarray(proposal, dtype=float)
    flux = pmf[:, None] * proposal
    accept = np.minimum(1.0, np.divide(flux.T, flux, out=np.ones_like(flux), where=flux > 0))
    Q = proposal * accept
    np.fill_diagonal(Q, 0.0)
    Q[np.arange(size), np.arange(size)] = 1.0 - Q.sum(axis=1)
    return FiniteChain(P=Q, pi=pmf)


def poissonized_evolve(chain, x, t: float, rng: np.random.Generator):
    """Continuous-time evolution by e^{t(P-I)}: Poisson(t) jumps of P.

    ``chain`` is a FiniteChain or a jump sampler ``(states, rng) -> states``
    applying one discrete step to an index array.  ``x`` is a state index or
    an array of indices; each particle draws its own jump count.
    """
    state = np.atleast_1d(np.asarray(x, dtype=np.int64)).copy()
    if isinstance(chain, FiniteChain):
        cum = np.cumsum(chain.P, axis=1)

        def step(states, rng):
            u = rng.random(states.shape[0])
            nxt = (cum[states] < u[:, None]).sum(axis=1)
            return np.minimum(nxt, chain.n_states - 1)

    else:
        step = chain
    state = _poisson_jumps(state, t, rng, step)
    return int(state[0]) if np.ndim(x) == 0 else state


def apply_kernel(level: Level, particles: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Smooth an ensemble with the level's kernel for its time budget."""
    spec = level.kernel
    t = level.time_budget
    if spec.kind == "langevin":
        return ula_evolve(level.density, particles, t, spec.step_size, rng)
    if spec.kind == "metropolis_hastings":
        return mh_evolve(level.density, particles, t, spec.proposal_scale, rng)
    if spec.kind in ("glauber", "finite"):
        if level.chain is None:
            raise ValueError(f"{spec.kind} kernel requires an explicit chain on the level")
        return poissonized_evolve(level.chain, particles, t, rng)
    raise ValueError(f"unknown kernel kind {spec.kind!r}")
