"""Shared domain types: mixtures, ladders, particle ensembles, finite chains.

Conventions
-----------
* A target is a Gaussian mixture by type: ``TargetMixture`` holds
  ``GaussianComponent``s, which is what the closed-form ratio, log-Sobolev
  and weight bounds of the ladder builders cover.
* A Euclidean ``Level`` is data, a mixture and an exponent β: its
  unnormalized density is the mixture's to the power β, which
  ``sequences.level_log_density`` and ``level_grad_log_density`` evaluate.
  A level's ratio callables are ``functools.partial``s of module functions
  over its mixtures or pmf table, never closures, so a ladder pickles and a
  worker process can be handed a built one.
* A ``TargetMixture`` packs its evaluator parameters once, when it is built.
  The log-density always takes each component's Cholesky inverse; the
  gradient of components that share one Σ takes Σ^{-1}, the rows
  Σ^{-1} m_i and one constant each instead, so that the log terms of N
  points are one (M, d) @ (d, N) product.  The covariances alone pick it.
* Euclidean states are float vectors of shape ``(d,)``; ensembles stack them
  into ``(N, d)`` arrays and blocks of replicates into ``(B, N, d)``.  The
  mixture evaluators and a level's ratio callables are vectorized over
  leading batch axes: they accept ``(..., d)`` and return ``(...)`` (a scalar
  for ``(d,)``); a gradient returns the shape of its input.
* Finite / hypercube states are integer indices into an enumerated state list;
  ensembles are ``(N,)`` integer arrays.  A hypercube point ``x`` in
  ``{0,1}^d`` is enumerated with bit ``i`` of the index equal to ``x_i``.
* All types are immutable after construction and safe to share across
  threads; evaluation callables must be pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

import numpy as np

from .bounds import _float_power
from .gaussians import _LOG_2PI, GaussianComponent

if TYPE_CHECKING:  # pragma: no cover - type-only import, kernels imports core at runtime
    from .kernels import KernelSpec

__all__ = [
    "TargetMixture",
    "Level",
    "Ladder",
    "ParticleEnsemble",
    "FiniteChain",
    "DegenerateWeightsError",
    "NonReversibleChainError",
    "eval_mixture_logdensity",
    "mixture_grad_logdensity",
    "effective_sample_size",
]

MAX_FINITE_STATES = 2 ** 14


class DegenerateWeightsError(RuntimeError):
    """All resampling weights are zero or non-finite."""


class NonReversibleChainError(ValueError):
    """Operation requires a reversible chain."""


class _PerComponent(NamedTuple):
    """Log-density parameters of a mixture: the means, ``L_i^{-T}`` and
    ``L_i^{-1}`` of each Cholesky factor ``Σ_i = L_i L_iᵀ``, and
    ``log w_i - ½(d log 2π + log|Σ_i|)``."""

    means: np.ndarray  # (M, d)
    chol_inv_t: np.ndarray  # (M, d, d)
    chol_inv: np.ndarray  # (M, d, d)
    consts: np.ndarray  # (M,)


class _SharedCovariance(NamedTuple):
    """Gradient parameters of a mixture whose components share one Σ.

    With ``P = Σ^{-1}`` the log term of component i at x is
    ``a_i · x + b_i - ½ xᵀPx`` where ``a_i = P m_i`` and
    ``b_i = log w_i - ½ m_iᵀP m_i - ½(d log 2π + log|Σ|)``.
    """

    precision: np.ndarray  # P, (d, d)
    rows: np.ndarray  # a_i, (M, d)
    consts: np.ndarray  # b_i, (M,)
    neg_half: np.ndarray  # (d,) of -½: (xP * x) @ neg_half is -½ xᵀPx


@dataclass(frozen=True, eq=False)
class TargetMixture:
    """Weighted mixture of Gaussian components.

    ``components`` are ``GaussianComponent``s of one dimension (anything else
    raises ``TypeError``, mixed dimensions ``ValueError``); weights must be
    positive and sum to one (tolerance 1e-12).  Construction packs, once,
    what the mixture evaluators need: for the log-density, the stacked means,
    ``L_i^{-T}`` and ``L_i^{-1}`` of each component's Cholesky factor
    ``Σ_i = L_i L_iᵀ`` and the constants ``log w_i - ½(d log 2π + log|Σ_i|)``;
    for the gradient, when every component has the same covariance Σ (the
    README target, every convolution level of it, any one-component
    mixture), also ``P = Σ^{-1}``, the rows ``a_i = P m_i`` and the constants
    ``b_i = log w_i - ½ m_iᵀP m_i - ½(d log 2π + log|Σ|)``, so that the log
    terms of a block row are one (M, d) @ (d, N) product.
    """

    components: tuple
    weights: np.ndarray
    _packed: _PerComponent = field(init=False, repr=False)
    _shared: Optional[_SharedCovariance] = field(init=False, repr=False)

    def __post_init__(self):
        comps = tuple(self.components)
        w = np.asarray(self.weights, dtype=float)
        if len(comps) < 1:
            raise ValueError("mixture needs at least one component")
        if not all(isinstance(c, GaussianComponent) for c in comps):
            raise TypeError("mixture components must be GaussianComponent instances")
        if len({c.dim for c in comps}) != 1:
            raise ValueError("mixture components must share one dimension")
        if w.shape != (len(comps),):
            raise ValueError("weights length does not match component count")
        if not np.all(w > 0.0):
            raise ValueError("mixture weights must be positive")
        if not abs(w.sum() - 1.0) <= 1e-12:
            raise ValueError("mixture weights must sum to 1")
        d = comps[0].dim
        means = np.stack([g.mean for g in comps])
        chol_inv = np.stack([g._chol_inv for g in comps])
        log_dets = np.array([g.log_det_cov for g in comps])
        packed = _PerComponent(
            means,
            np.ascontiguousarray(chol_inv.transpose(0, 2, 1)),
            chol_inv,
            np.log(w) - 0.5 * (d * _LOG_2PI + log_dets),
        )
        shared = None
        if all(np.array_equal(g.cov, comps[0].cov) for g in comps[1:]):
            prec = comps[0]._chol_inv.T @ comps[0]._chol_inv
            prec = 0.5 * (prec + prec.T)  # so that -x P is the gradient of -½ xᵀPx
            rows = means @ prec
            consts = (np.log(w) - 0.5 * np.einsum("md,md->m", rows, means)
                      - 0.5 * (d * _LOG_2PI + log_dets[0]))
            shared = _SharedCovariance(prec, rows, consts, np.full(d, -0.5))
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_packed", packed)
        object.__setattr__(self, "_shared", shared)

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def w_star(self) -> float:
        """Minimum mixture weight."""
        return float(self.weights.min())

    @property
    def dim(self) -> int:
        return self.components[0].dim

    @classmethod
    def gaussian(cls, weights, means, covs) -> "TargetMixture":
        """Mixture of Gaussians from explicit parameters, one covariance per mean."""
        if len(covs) != len(means):
            raise ValueError(f"{len(means)} means need as many covariances, got {len(covs)}")
        comps = tuple(GaussianComponent(m, c) for m, c in zip(means, covs))
        return cls(components=comps, weights=np.asarray(weights, dtype=float))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Exact mixture samples, shape (n, d)."""
        counts = rng.multinomial(n, self.weights)
        parts = [g.sample(rng, c) for g, c in zip(self.components, counts) if c > 0]
        out = np.concatenate(parts, axis=0)
        return out[rng.permutation(n)]


def _responsibilities(log_terms: np.ndarray):
    """Turn the (M, B, N) log terms into the responsibilities, in place.
    Returns them with the max shift (B, N) and the sum over M of the
    shifted terms (B, N), whose log plus the shift is the log-density.  A
    point where every term underflows to -inf gets a zero sum (and NaN
    responsibilities)."""
    shift = log_terms.max(axis=0)
    shift[np.isneginf(shift)] = 0.0  # all terms -inf: keep -inf, not -inf - -inf
    log_terms -= shift
    resp = np.exp(log_terms, out=log_terms)
    total = _sum_components(resp)
    with np.errstate(invalid="ignore"):
        resp /= total
    return resp, total, shift


def _sum_components(terms: np.ndarray) -> np.ndarray:
    """Sum over the leading component axis in index order: ``sum(axis=0)``
    picks its reduction order from the shape, so a row of a block could sum
    differently from the row alone."""
    total = terms[0].copy()
    for term in terms[1:]:
        total += term
    return total


def _per_component_pass(packed: _PerComponent, x: np.ndarray, grad: bool):
    """Log-density (B, N) of the (B, N, d) points and, if ``grad``, the
    gradient (B, N, d).  ``zt`` (M, B, d, N) holds
    ``zt_ib = L_i^{-1} (x_b - m_i)^T`` (``z_i = (x - m_i) L_i^{-T}``, stored
    point-minor so that every elementwise step runs along N), filled one
    component at a time; the gradient is ``-Σ_i r_i L_i^{-T} zt_i``.  Each
    row gets one (d, d) @ (d, N) product per component, and the components
    are summed in index order, so a row's values are bitwise those of the
    row alone."""
    means, chol_inv_t, chol_inv, consts = packed
    xt = x.transpose(0, 2, 1)
    zt = np.empty((len(means),) + xt.shape)
    for z, m, l_inv in zip(zt, means, chol_inv):
        np.matmul(l_inv, xt - m[:, None], out=z)
    # in place from here on: every fresh (M, B, N) array costs page faults at large N
    log_terms = np.einsum("mbdn,mbdn->mbn", zt, zt)
    log_terms *= -0.5
    log_terms += consts[:, None, None]
    resp, total, shift = _responsibilities(log_terms)
    with np.errstate(divide="ignore"):
        log_density = np.log(total)
    log_density += shift
    if not grad:
        return log_density, None
    zt *= resp[:, :, None, :]
    grad_t = np.matmul(chol_inv_t[0], zt[0])
    for z, l_inv_t in zip(zt[1:], chol_inv_t[1:]):
        grad_t += np.matmul(l_inv_t, z)
    return log_density, np.negative(grad_t.transpose(0, 2, 1))


def _shared_gradient(packed: _SharedCovariance, x: np.ndarray) -> np.ndarray:
    """Gradient ``R A - x P`` (B, N, d) at the (B, N, d) points, with the
    (N, M) responsibilities R of each row and the rows a_i stacked into A.
    Every product is one per row, as a lone row computes it."""
    xp = np.matmul(x, packed.precision)
    # in place from here on: every fresh (B, M, N) array costs page faults at large N;
    # the quadratic stays in the terms, so a point where it overflows gets NaN
    # responsibilities and a non-finite gradient, as on the per-component pass
    log_terms = np.matmul(packed.rows, x.transpose(0, 2, 1))
    log_terms += packed.consts[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # far points: inf or NaN quadratic
        log_terms += np.matmul(xp * x, packed.neg_half)[:, None, :]
    resp, _, _ = _responsibilities(log_terms.transpose(1, 0, 2))
    out = np.matmul(resp.transpose(1, 2, 0), packed.rows)
    out -= xp
    return out


def _as_rows(mixture: TargetMixture, x) -> np.ndarray:
    """The points ``x`` of shape (..., N, d) as B rows of N points (one point
    is one row of one); points of another dimension raise ``ValueError``."""
    d = mixture.dim
    x = np.asarray(x, dtype=float)
    if x.ndim > 0 and x.shape[-1] != d:
        raise ValueError(f"points of dimension {x.shape[-1]} for a mixture in dimension {d}")
    return x.reshape(-1, x.shape[-2] if x.ndim > 1 else 1, d)


def eval_mixture_logdensity(mixture: TargetMixture, x) -> np.ndarray:
    """log Σ w_i p_i(x) for a Gaussian mixture.

    ``x`` of shape (d,) gives a float, (..., d) an array of shape (...); a
    block (B, N, d) gives bitwise the B results of its (N, d) rows.  One
    vectorized pass over all components with a max-shifted log-sum-exp of
    the terms ``log w_i - ½‖L_i^{-1}(x - m_i)‖² - ½(d log 2π + log|Σ_i|)``
    (see ``TargetMixture`` for the cached parameters); a point where every
    term underflows gets -inf.  Points of another dimension than the
    mixture's raise ``ValueError``.
    """
    log_density, _ = _per_component_pass(mixture._packed, _as_rows(mixture, x), grad=False)
    if np.ndim(x) <= 1:
        return float(log_density[0, 0])
    return log_density.reshape(np.shape(x)[:-1])


def mixture_grad_logdensity(mixture: TargetMixture, x) -> np.ndarray:
    """Gradient of the mixture log-density, shape matching ``x``.

    ``-Σ_i r_i(x) Σ_i^{-1} (x - m_i)`` with the responsibilities ``r_i``:
    ``Σ_i r_i a_i - P x`` when the components share one covariance,
    ``-Σ_i r_i z_i L_i^{-1}`` from the log-density's pass otherwise.  A block
    (B, N, d) gives bitwise the gradients of its rows.  Raises like
    ``eval_mixture_logdensity``.
    """
    rows = _as_rows(mixture, x)
    if mixture._shared is not None:
        grad = _shared_gradient(mixture._shared, rows)
    else:
        _, grad = _per_component_pass(mixture._packed, rows, grad=True)
    if np.ndim(x) <= 1:
        return grad[0, 0]
    return grad.reshape(np.shape(x))


@dataclass(frozen=True, eq=False)
class FiniteChain:
    """Explicit transition matrix with its stationary distribution.

    ``P`` must be row-stochastic (rows sum to 1 within 1e-12) and ``pi`` (one
    entry per state, nonnegative, of positive sum) stationary within 1e-10.
    Reversibility (detailed balance within 1e-12) is detected at construction
    and exposed as a flag; ``symmetric_spectrum`` is computed on first use.
    """

    P: np.ndarray
    pi: Optional[np.ndarray] = None
    reversible: bool = field(init=False, default=False)

    def __post_init__(self):
        P = np.asarray(self.P, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError("transition matrix must be square")
        if P.shape[0] > MAX_FINITE_STATES:
            raise ValueError(f"state space too large ({P.shape[0]} > {MAX_FINITE_STATES})")
        if not np.all(np.isfinite(P)):
            raise ValueError("transition matrix has non-finite entries")
        if not np.all(P >= -1e-15):
            raise ValueError("transition matrix has negative entries")
        row_err = np.max(np.abs(P.sum(axis=1) - 1.0))
        if not row_err <= 1e-12:
            raise ValueError(f"rows must sum to 1 (max deviation {row_err:.3e})")
        if self.pi is None:
            pi = _stationary_distribution(P)
        else:
            pi = np.asarray(self.pi, dtype=float)
            if pi.shape != (P.shape[0],):
                raise ValueError(f"pi has shape {pi.shape} for {P.shape[0]} states")
            pi = _normalized(pi, "pi")  # a NaN fails as not stationary
        stat_err = np.max(np.abs(pi @ P - pi))
        if not stat_err <= 1e-10:
            raise ValueError(f"pi is not stationary (max deviation {stat_err:.3e})")
        flux = pi[:, None] * P
        rev = bool(np.max(np.abs(flux - flux.T)) <= 1e-12)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "reversible", rev)

    @property
    def n_states(self) -> int:
        return self.P.shape[0]

    @cached_property
    def symmetric_spectrum(self):
        """``eigh`` of the pi-symmetrized P (P's eigenvalues if it is reversible)."""
        root = np.sqrt(self.pi)
        sym = self.P * (root[:, None] / root[None, :])
        sym = 0.5 * (sym + sym.T)
        return np.linalg.eigh(sym)


def _cumulative(p: np.ndarray) -> np.ndarray:
    """Cumulative sums of ``p`` along the last axis over their last entry, as in
    ``Generator.choice``: a row ends at exactly 1, and a zero entry adds no step.
    A row of finite entries whose sum overflows is first divided by its
    maximum; every other row keeps the bits of the plain quotient."""
    with np.errstate(over="ignore"):
        cum = np.cumsum(p, axis=-1)
    over = ~np.isfinite(cum[..., -1])
    if over.any():
        big = p[over]
        cum[over] = np.cumsum(big / big.max(axis=-1, keepdims=True), axis=-1)
    cum /= cum[..., -1:]
    return cum


def _normalized(p: np.ndarray, what: str) -> np.ndarray:
    """``p / p.sum()``, refusing a negative entry or a zero sum (a NaN passes):
    by ``_cumulative``'s rule, finite entries whose sum overflows are first
    divided by their largest magnitude."""
    with np.errstate(over="ignore"):
        if np.isinf(p.sum()) and np.all(np.isfinite(p)):
            p = p / np.abs(p).max()
    if np.any(p < 0) or p.sum() == 0:
        raise ValueError(f"{what} must have nonnegative entries and a positive sum")
    return p / p.sum()


def _check_generators(rngs, n_rows: int):
    """Refuse a (B, ...) block that does not come with one generator a row:
    ``zip`` would stop at the shorter and leave the other rows undrawn."""
    if len(rngs) != n_rows:
        raise ValueError(f"a block of {n_rows} rows needs {n_rows} generators, "
                         f"got {len(rngs)}")


def _search_rows(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The inverse-CDF draws of the (B, n) uniforms ``u`` from the rows of the
    (B, N) table ``cum``, as indices into ``cum.ravel()``: entry [b, j] is
    b·N plus the number of entries <= u[b, j] in row b, bitwise
    ``np.searchsorted(cum[b], u[b], side="right") + b * N``.

    The rows must be non-decreasing and end at exactly 1, and every u lie in
    [0, 1), as ``_cumulative`` rows and ``Generator.random`` uniforms do; the
    count is then below N.  A branch-free binary search over the whole block:
    each of its ceil(log2 N) passes is a gather, a compare and an add.  Every
    draw's outcome lies in the window ``at .. at + span - 1`` of its row, and
    each pass narrows every window to width ``span - span // 2`` whichever way
    its compare goes (from an odd width, the lower half keeps one entry more
    than it needs), so all draws share one width and no probe passes its
    row's last entry: no clamp or padding is needed."""
    width = cum.shape[-1]
    table = cum.ravel()
    at = np.repeat(np.arange(0, table.size, width), u.shape[-1]).reshape(u.shape)
    probe = np.empty_like(at)
    found = np.empty(u.shape)
    span = width
    while span > 1:
        half = span // 2
        np.add(at, half - 1, out=probe)
        np.take(table, probe, out=found, mode="clip")  # in range; "clip" skips a buffered copy
        np.less_equal(found, u, out=probe, casting="unsafe")
        probe *= half
        at += probe
        span -= half
    return at


def _stationary_distribution(P: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eig(P.T)
    k = int(np.argmin(np.abs(vals - 1.0)))
    return _normalized(np.abs(np.real(vecs[:, k])), "pi")


@dataclass(frozen=True, eq=False)
class Level:
    """One rung of a measure ladder.

    A Euclidean level is its ``mixture`` and ``beta``: its unnormalized
    density is ``mixture(x) ** beta``.  A tempering level holds the target
    and its β_k, a convolution level its noised mixture and β = 1.  A level
    over finite states holds its ``pmf`` instead (no mixture, no ``kernel``).

    ``ratio_to_prev`` is the unnormalized density ratio g against the previous
    level (absent at level 1); ``normalized_ratio`` is available when the
    normalizers are known.  ``time_budget`` is the smoothing time applied
    after resampling into this level, ``kernel_steps(time_budget)`` expected
    Poissonized jumps of ``chain`` when the level has one, else steps of
    ``kernel`` (a Langevin one with its step size set).  Level 1 is drawn
    from its ``exact_law``, else its ``init_proposal``, both derived on first
    use; a ``pmf`` gets its cumulative distribution built once.

    The ratio callables accept points with leading batch axes ``(..., d)``:
    the sampler hands a ladder whose levels carry a ``mixture`` its
    replicates as one (B, N, d) block (a lone run as its (N, d) points).
    """

    kernel: Optional["KernelSpec"]
    time_budget: float
    ratio_to_prev: Optional[Callable[[np.ndarray], np.ndarray]] = None
    normalized_ratio: Optional[Callable[[np.ndarray], np.ndarray]] = None
    lsi_constant_bound: Optional[float] = None
    ratio_bound: Optional[float] = None
    mixture: Optional[TargetMixture] = None
    beta: float = 1.0
    pmf: Optional[np.ndarray] = None
    chain: Optional[FiniteChain] = None
    _cdf: Optional[np.ndarray] = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if not self.time_budget >= 0:
            raise ValueError("time budget must be nonnegative")
        if self.kernel and self.kernel.kind == "langevin" and self.kernel.step_size is None:
            raise ValueError("a Langevin level needs a step size (see kernels.default_step_size)")
        if self.pmf is not None:
            pmf = np.asarray(self.pmf, dtype=float)
            if pmf.ndim != 1:
                raise ValueError(f"level pmf has shape {pmf.shape}: it must be a vector")
            if not (np.all(pmf >= 0) and abs(pmf.sum() - 1.0) <= 1e-12):
                raise ValueError("level pmf must be a probability vector")
            object.__setattr__(self, "pmf", pmf)
            object.__setattr__(self, "_cdf", _cumulative(pmf))

    @cached_property
    def exact_law(self) -> Optional[TargetMixture | GaussianComponent]:
        """The law of a Euclidean level when it can be drawn exactly: the
        mixture at β = 1, the Gaussian N(m, Σ/β) of a one-component mixture
        (q^β is Gaussian), otherwise None.  Derived on first use, so only
        the level that is drawn from builds its Gaussian."""
        mix = self.mixture
        if mix is None or self.beta == 1.0:
            return mix
        if mix.n_components == 1:
            g = mix.components[0]
            return GaussianComponent(g.mean, g.cov / self.beta)
        return None

    @cached_property
    def init_proposal(self) -> Optional[GaussianComponent]:
        """A mixture level's level-1 Gaussian when it has no ``exact_law``, else None:
        mean m and covariance Σ_i w_i (Σ_i/β + m_i m_iᵀ) - m mᵀ of the mixed N(m_i, Σ_i/β)."""
        mix = self.mixture
        if mix is None or self.exact_law is not None:
            return None
        mean = np.sum(mix.weights[:, None] * mix._packed.means, axis=0)
        cov = sum(w_i * (g.cov / self.beta + np.outer(g.mean, g.mean))
                  for w_i, g in zip(mix.weights, mix.components))
        return GaussianComponent(mean, cov - np.outer(mean, mean))

    def kernel_steps(self, t: float) -> float:
        """Kernel steps per particle that time ``t`` takes on this level: ceil(t/h)
        Langevin steps or t expected Poissonized jumps (t/h may be inf)."""
        if self.kernel is not None and self.kernel.kind == "langevin":
            return float(np.ceil(t / self.kernel.step_size))
        return t


@dataclass(frozen=True, eq=False)
class Ladder:
    """Ordered sequence of levels with a uniform normalized-ratio bound; level 1
    needs a pmf or a mixture, and a law it cannot be drawn from is refused, as
    is a budget that takes a later level 2^62 kernel steps per particle or more
    (no run could, and numpy's Poisson draws refuse a mean past about 9.22e18)."""

    levels: tuple
    gamma_bound: float

    def __post_init__(self):
        levels = tuple(self.levels)
        if len(levels) < 1:
            raise ValueError("ladder needs at least one level")
        if not self.gamma_bound >= 1.0:
            raise ValueError("gamma bound must be >= 1")
        if any(lv.ratio_to_prev is None for lv in levels[1:]):
            raise ValueError("every level after the first needs a ratio to its predecessor")
        first = levels[0]
        if first.pmf is None and first.init_proposal is None and first.exact_law is None:
            raise ValueError("level 1 needs a pmf or a mixture to draw its particles from")
        for k, lv in enumerate(levels[1:], start=2):
            steps = lv.kernel_steps(lv.time_budget)
            if not steps < 2.0 ** 62:
                raise ValueError(f"time budget {lv.time_budget:g} at level {k} takes "
                                 f"~{steps:.3g} kernel steps per particle, not below 2^62")
        object.__setattr__(self, "levels", levels)

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def with_budgets(self, time_budget) -> "Ladder":
        """The ladder with its levels' time budgets: one for all, or one per level."""
        budgets = ([float(time_budget)] * self.n_levels if np.ndim(time_budget) == 0
                   else [float(t) for t in time_budget])
        if len(budgets) != self.n_levels:
            raise ValueError(f"expected {self.n_levels} time budgets, got {len(budgets)}")
        return replace(self, levels=tuple(replace(lv, time_budget=t)
                                          for lv, t in zip(self.levels, budgets)))


@dataclass(frozen=True, eq=False)
class ParticleEnsemble:
    """N particle states: Euclidean points (N, d) or finite state indices (N,).

    ``lane_ids`` give each particle a persistent identity so that runs are
    invariant to the storage order of the ensemble.  ``log_weights`` are the unnormalized log
    importance weights of a proposal draw; None means equally weighted.
    """

    particles: np.ndarray
    lane_ids: Optional[np.ndarray] = None
    init_acceptance_rate: float = 1.0
    log_weights: Optional[np.ndarray] = None

    def __post_init__(self):
        particles = np.asarray(self.particles)
        if particles.shape[0] < 1:
            raise ValueError("ensemble needs at least one particle")
        lanes = self.lane_ids
        if lanes is None:
            lanes = np.arange(particles.shape[0], dtype=np.int64)
        else:
            lanes = np.asarray(lanes, dtype=np.int64)
            if lanes.shape != (particles.shape[0],):
                raise ValueError("lane_ids must have one entry per particle")
        log_w = self.log_weights
        if log_w is not None:
            log_w = np.asarray(log_w, dtype=float)
            if log_w.shape != (particles.shape[0],):
                raise ValueError("log_weights must have one entry per particle")
        object.__setattr__(self, "particles", particles)
        object.__setattr__(self, "lane_ids", lanes)
        object.__setattr__(self, "log_weights", log_w)

    @property
    def n_particles(self) -> int:
        return self.particles.shape[0]


def effective_sample_size(weights: np.ndarray):
    """ESS (Σw)² / Σw² of nonnegative, not all zero, weights.

    A vector gives a float, a (B, N) block an array with the ESS of each row,
    bitwise what the row alone gives.  The sum is squared as a Python float
    (C ``pow``, as a numpy float64 scalar's ``** 2`` is): numpy's array square
    ``x * x`` differs from it in the last bit on about 0.1 % of inputs.  A
    row where that quotient is not finite (Σw² underflows to 0, or (Σw)²
    leaves the float range) gets the same ESS as 1 / Σ(w/Σw)²; every other
    row keeps the bits of the plain formula.
    """
    totals = np.atleast_1d(weights.sum(axis=-1))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        squares = np.array([_float_power(t, 2) for t in totals.tolist()])
        ess = squares / np.sum(weights * weights, axis=-1)
    off = ~np.isfinite(ess)
    if off.any():
        p = np.atleast_2d(weights)[off] / totals[off, None]
        ess[off] = 1.0 / np.sum(p * p, axis=-1)
    return float(ess[0]) if weights.ndim == 1 else ess
