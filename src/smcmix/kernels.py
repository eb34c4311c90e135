"""Markov transition kernels used as SMC smoothing steps.

Continuous time budgets map to kernels as follows:

* ``langevin``: ceil(t/h) Euler-Maruyama steps of size h (unadjusted
  Langevin; the ideal diffusion is what the theory analyzes, the step size is
  an artifact knob).
* ``metropolis_hastings``: Poissonized jumps, K ~ Poisson(t) random-walk
  Metropolis steps.
* a level's explicit ``FiniteChain`` (Glauber dynamics from
  ``glauber_transition_matrix``, a Metropolis chain from
  ``mh_transition_matrix``, or any chain of a ladder file): Poissonized
  jumps of the chain, which is exact in law for the semigroup e^{t(P-I)}.
  A level that holds a chain is always smoothed by it; ``KernelSpec`` only
  configures the Euclidean kernels.

The Euclidean kernels take the level's density as a plain callable: a log
density for Metropolis, its gradient for Langevin.  All kernels take an
explicit ``numpy.random.Generator``; there is no global RNG anywhere in this
package.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

import numpy as np

from .core import MAX_FINITE_STATES, FiniteChain, _check_generators, _cumulative

__all__ = [
    "KernelSpec",
    "ula_evolve",
    "mh_step",
    "mh_evolve",
    "glauber_transition_matrix",
    "mh_transition_matrix",
    "poissonized_evolve",
    "default_step_size",
]

KERNEL_KINDS = ("langevin", "metropolis_hastings")


@dataclass(frozen=True)
class KernelSpec:
    """Which Euclidean smoothing kernel a level uses and its tuning knobs.

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
        if not self.step_size > 0:
            raise ValueError("step_size must be positive")
        if not self.proposal_scale > 0:
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


def ula_evolve(grad_log_density, x, t: float, h: float, rng):
    """Endpoint of ceil(t/h) unadjusted-Langevin steps started at ``x``.

    Each step is ``x <- x + h * grad_log_density(x) + sqrt(2h) * xi`` with
    standard normal ``xi``, updated in place on a copy of ``x``; the drift
    ``h * grad`` and the noise share one reused buffer.  ``x`` is a batch
    ``(N, d)`` with one generator ``rng``, or a block ``(B, N, d)`` with a
    sequence of B generators: the gradient sees the whole block, and row b
    draws its noise from ``rng[b]`` into its own (N, d) slice, so it ends
    where an ``(N, d)`` call on that row would (another count of generators
    is a ValueError).  With ``t=0`` the input is returned unchanged.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    state = np.array(x, dtype=float, order="C")
    rngs = rng if state.ndim == 3 else (rng,)
    _check_generators(rngs, len(state) if state.ndim == 3 else 1)
    n_steps = int(np.ceil(t / h))
    root = np.sqrt(2.0 * h)
    noise = np.empty_like(state)
    rows = noise.reshape(len(rngs), *state.shape[-2:])
    for _ in range(n_steps):
        grad = np.asarray(grad_log_density(state), dtype=float)
        # a sum with a non-finite term is non-finite; finite terms may also
        # overflow it, so only the element-wise test names a bad state
        if not np.isfinite(grad.sum()):
            bad = ~np.isfinite(grad).all(axis=-1)
            if bad.any():
                raise FloatingPointError(f"non-finite gradient at state {state[bad][0]}")
        state += np.multiply(grad, h, out=noise)
        for row, gen in zip(rows, rngs):
            gen.standard_normal(out=row)
        noise *= root
        state += noise
    return state


def mh_step(log_density, x, proposal_scale: float, rng: np.random.Generator):
    """One Metropolis step of a batch ``x`` of shape ``(N, d)`` with a
    symmetric isotropic Gaussian proposal.

    The proposal symmetry reduces the acceptance ratio to
    min(1, p(y)/p(x)), with ``log_density`` the vectorized log p;
    higher-density proposals are always accepted.
    """
    state = np.asarray(x, dtype=float)
    proposal = state + proposal_scale * rng.standard_normal(state.shape)
    log_ratio = np.asarray(log_density(proposal)) - np.asarray(log_density(state))
    accept = np.log(rng.random(state.shape[0])) < log_ratio
    return np.where(accept[:, None], proposal, state)


# the most uniforms the finite kernel draws ahead: as many doubles as the
# driver's block has particle cells (``smc._BLOCK_CELLS``), half a megabyte
_UNIFORM_WINDOW = 2 ** 16


def _jump_uniforms(remaining: np.ndarray, rngs):
    """Yield the uniforms of each jump in turn: at jump j, ``remaining[b, j]``
    of them from ``rngs[b]`` for every row b, stacked in row order.

    Row b draws the uniforms of a window of jumps in one ``random`` call: the
    doubles one call a jump would give, since a stream continues across
    calls.  A window holds as many jumps as fit in ``_UNIFORM_WINDOW``
    doubles over all rows, and at least one, so what is drawn ahead does not
    grow with t.  A jump's uniforms are a slice of its row's draws for one
    row, and its rows' slices joined for a block."""
    n_jumps = remaining.shape[1]
    ends = np.cumsum(remaining.sum(axis=0)).tolist()  # uniforms drawn by the end of each jump
    first = 0
    while first < n_jumps:
        drawn = ends[first - 1] if first else 0
        last = max(first + 1, bisect.bisect_right(ends, drawn + _UNIFORM_WINDOW))
        window = remaining[:, first:last]
        rows = [rng.random(n) for rng, n in zip(rngs, window.sum(axis=1).tolist())]
        # starts[k][b]: where the window's jump k begins in row b's draws
        starts = (np.cumsum(window, axis=1) - window).T.tolist()
        for start, count in zip(starts, window.T.tolist()):
            parts = [row[at:at + n] for row, at, n in zip(rows, start, count)]
            yield parts[0] if len(parts) == 1 else np.concatenate(parts)
        del rows, parts  # before the next window is drawn
        first = last


def _poisson_jumps(state: np.ndarray, t: float, rngs, step, uniforms: bool = True) -> np.ndarray:
    """Apply K ~ Poisson(t) jumps to each particle of the C-contiguous
    (B, N, ...) block ``state``, in place.  Row b draws its N jump counts
    from ``rngs[b]``; at every jump ``step(states, u)`` moves the
    still-active particles of all rows, stacked in row order, given their
    uniforms ``u`` (``_jump_uniforms``): row b's next ones from ``rngs[b]``.
    With ``uniforms=False`` nothing is drawn ahead and ``u`` is None, for a
    step that draws its own randomness."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    n_rows, n = state.shape[:2]
    _check_generators(rngs, n_rows)
    jumps = np.empty((n_rows, n), dtype=np.int64)
    for row, rng in zip(jumps, rngs):
        row[:] = rng.poisson(t, size=n)
    n_jumps = int(jumps.max(initial=0))
    # remaining[b, j]: how many particles of row b jump more than j times
    width = n_jumps + 1
    hist = np.bincount((jumps + width * np.arange(n_rows)[:, None]).ravel(),
                       minlength=n_rows * width)
    remaining = n - np.cumsum(hist.reshape(n_rows, width), axis=1)[:, :n_jumps]
    flat = state.reshape(-1, *state.shape[2:])  # a view: ``state`` is contiguous
    counts = jumps.ravel()
    idx = np.flatnonzero(counts)  # the particles that jump again, row-major
    draws = _jump_uniforms(remaining, rngs) if uniforms else itertools.repeat(None)
    for j, u in zip(range(n_jumps), draws):
        flat[idx] = step(flat[idx], u)
        idx = idx[counts[idx] > j + 1]
    return state


def mh_evolve(log_density, x, t: float, proposal_scale: float, rng: np.random.Generator):
    """Poissonized Metropolis chain on a batch ``x`` of shape ``(N, d)``:
    K ~ Poisson(t) steps per particle."""
    state = _poisson_jumps(
        np.array(x, dtype=float, order="C")[None], t, (rng,),
        lambda states, _: mh_step(log_density, states, proposal_scale, rng), uniforms=False,
    )
    return state[0]


def glauber_transition_matrix(pmf, d: int) -> FiniteChain:
    """Glauber (single-site heat bath) chain for a pmf on {0,1}^d.

    Picks a coordinate uniformly, then resamples it from its conditional
    given the rest: the off-diagonal entry toward the flip of coordinate i is
    (1/d) * p(flip) / (p(x) + p(flip)).  The result is reversible with
    stationary distribution ``pmf``.
    """
    if d > np.log2(MAX_FINITE_STATES):
        raise ValueError(f"hypercube dimension too large (2^{d} states > {MAX_FINITE_STATES})")
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
    return FiniteChain(P=P, pi=pmf)


def mh_transition_matrix(pmf) -> FiniteChain:
    """Metropolis-Hastings chain on an enumerated space with the uniform
    proposal P(y|x) = 1/S over all S states.

    Off-diagonal entries are P(y|x) * min(1, pi(y)P(x|y) / (pi(x)P(y|x))),
    the diagonal absorbs the rejected mass.
    """
    pmf = np.asarray(pmf, dtype=float)
    size = pmf.shape[0]
    if np.any(pmf <= 0):
        raise ValueError("Metropolis chain requires a strictly positive pmf")
    pmf = pmf / pmf.sum()
    proposal = np.full((size, size), 1.0 / size)
    flux = pmf[:, None] * proposal
    accept = np.minimum(1.0, np.divide(flux.T, flux, out=np.ones_like(flux), where=flux > 0))
    Q = proposal * accept
    np.fill_diagonal(Q, 0.0)
    Q[np.arange(size), np.arange(size)] = 1.0 - Q.sum(axis=1)
    return FiniteChain(P=Q, pi=pmf)


def _chain_step(chain: FiniteChain):
    """One jump of ``chain`` for states ``states`` given a uniform ``u`` each:
    the next state counts the entries <= u of the state's ``_cumulative`` row
    but its last (1), one column at a time, so no (n, S) array is built."""
    columns = np.ascontiguousarray(_cumulative(chain.P)[:, :-1].T)

    def step(states, u):
        nxt = np.zeros(states.shape, dtype=np.int64)
        for col in columns:
            nxt += col[states] <= u
        return nxt

    return step


def poissonized_evolve(chain: FiniteChain, x, t: float, rng):
    """Continuous-time evolution by e^{t(P-I)}: Poisson(t) jumps of P.

    ``x`` is a state index or an (N,) array of indices with one generator
    ``rng``, or a (B, N) block with a sequence of B generators, row b drawing
    from ``rng[b]`` only (another count of generators is a ValueError); each
    particle draws its own jump count.
    """
    x = np.asarray(x, dtype=np.int64)
    if x.ndim == 2:
        return _poisson_jumps(x.copy(), t, rng, _chain_step(chain))
    state = _poisson_jumps(np.atleast_1d(x)[None].copy(), t, (rng,), _chain_step(chain))[0]
    return int(state[0]) if x.ndim == 0 else state
