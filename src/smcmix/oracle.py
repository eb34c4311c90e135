"""Exact finite-state verification of the decomposition, decay, single-step,
hypercontractivity and entropy inequalities.

All checks are one-sided with tolerance -1e-12: exact arithmetic would give
slack >= 0, the tolerance only absorbs floating-point roundoff; checks of a
numerical or sampling error pass at slack = tolerance - error >= 0.  A NaN
slack fails.  Violations surface the witness (function, time) with the
smallest slack.

Random test functions follow a fixed convention: i.i.d. uniform(0,1) entries
for nonnegative f, exp(standard normal) for strictly positive f, mean-zero
Gaussian entries for signed f; each is normalized to unit sup norm (the
inequalities are homogeneous, this only keeps tolerances meaningful).  A
check draws its test functions as the rows of one (trials, n_states) array,
in the order of per-trial draws, and evaluates every slack as array
expressions over those rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import bounds
from .core import FiniteChain, NonReversibleChainError, _normalized
from . import kernels as _kernels

__all__ = [
    "FiniteMixture",
    "CheckReport",
    "VerificationReport",
    "ConvergenceError",
    "dirichlet_form",
    "dirichlet_form_pairwise",
    "check_generator_decomposition",
    "semigroup",
    "variance_decay_check",
    "inter_intra_decomposition",
    "single_step_check",
    "hypercontractivity_check",
    "entropy_decomposition_check",
    "markov_contraction_check",
    "poincare_constant",
    "lsi_constant_estimate",
    "product_pmf",
    "glauber_mixture",
    "mh_mixture",
    "standard_glauber_mixture",
    "poissonized_fidelity_check",
    "semigroup_properties_check",
    "delta_recursion_check",
    "run_verification_suite",
]

INEQ_TOL = 1e-12
MAX_CHECK_STATES = 4096


class ConvergenceError(RuntimeError):
    """Optimizer failed to converge; carries the best iterate found."""

    def __init__(self, message: str, best_value: float, best_f: np.ndarray):
        super().__init__(message)
        self.best_value = best_value
        self.best_f = best_f


@dataclass(frozen=True, eq=False)
class FiniteMixture:
    """A mixture chain together with its component chains.

    The chain has at most ``MAX_CHECK_STATES`` states, and the component
    stationary distributions must recombine to the mixture's: sum_k w_k pi_k
    = pi entrywise within 1e-12.
    """

    chain: FiniteChain
    components: tuple
    weights: np.ndarray

    def __post_init__(self):
        _check_size(self.chain)
        comps = tuple(self.components)
        w = np.asarray(self.weights, dtype=float)
        if not (w.shape == (len(comps),) and np.all(w > 0) and abs(w.sum() - 1.0) <= 1e-12):
            raise ValueError("weights must be positive and sum to 1, one per component")
        recombined = sum(wi * c.pi for wi, c in zip(w, comps))
        if not np.max(np.abs(recombined - self.chain.pi)) <= 1e-12:
            raise ValueError("component stationary distributions do not recombine to pi")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "weights", w)

    @property
    def n_states(self) -> int:
        return self.chain.n_states

    @property
    def w_star(self) -> float:
        return float(self.weights.min())

    @cached_property
    def c_star(self) -> float:
        """C*: the largest exact component Poincare constant, computed once."""
        return max(poincare_constant(c) for c in self.components)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one inequality suite: minimum slack over all trials."""

    name: str
    passed: bool
    min_slack: float
    n_trials: int
    witness: Optional[dict] = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "passed": bool(self.passed),
            "min_slack": _jsonable(float(self.min_slack)),
            "n_trials": int(self.n_trials),
            "details": {k: _jsonable(v) for k, v in self.details.items()},
        }
        if self.witness is not None:
            out["witness"] = {k: _jsonable(v) for k, v in self.witness.items()}
        return out


def _jsonable(v):
    """A JSON value for ``v``; a NaN or infinite number becomes None (null)."""
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (np.floating, np.integer)):
        v = v.item()
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


def _check_size(chain: FiniteChain):
    if chain.n_states > MAX_CHECK_STATES:
        raise ValueError(f"oracle checks cap the state space at {MAX_CHECK_STATES}")


def _random_fs(rng: np.random.Generator, trials: int, size: int, kind: str) -> np.ndarray:
    """``trials`` test functions as the rows of one array, drawn in the order
    of ``trials`` successive single draws."""
    shape = (trials, size)
    if kind == "signed":
        f = rng.standard_normal(shape)
    elif kind == "nonnegative":
        f = rng.random(shape)
    elif kind == "positive":
        f = np.exp(rng.standard_normal(shape))
    else:
        raise ValueError(f"unknown test-function kind {kind!r}")
    top = np.max(np.abs(f), axis=1, keepdims=True)
    return f / np.where(top > 0, top, 1.0)


def _row_logsumexp(a: np.ndarray) -> np.ndarray:
    """log sum_j exp(a[i, j]) for every row i, shifted by the row max; a row
    of only -inf gives -inf."""
    shift = a.max(axis=1)
    shift[np.isneginf(shift)] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.exp(a - shift[:, None]).sum(axis=1)) + shift


def _var(pi: np.ndarray, f: np.ndarray):
    """Var_pi of one function or of each row of a stack."""
    m = (f @ pi)[..., None]
    return ((f - m) ** 2) @ pi


def _ent(pi: np.ndarray, g: np.ndarray):
    """Ent_pi(g) = E[g log g] - E[g] log E[g] for g > 0 (one function or rows)."""
    mean = g @ pi
    return (g * np.log(g)) @ pi - mean * np.log(mean)


def _report(name, slack, n_trials, witness, tol=INEQ_TOL, details=None) -> CheckReport:
    """One-sided check over an array of slacks: passes when every slack is >=
    -its tolerance (``tol``: one for all, or one per slack; a NaN fails).
    ``min_slack`` is the smallest slack; ``witness(*index)`` describes it."""
    slack = np.asarray(slack, dtype=float)
    if slack.size == 0:
        return CheckReport(name, True, math.inf, n_trials, details=details or {})
    index = tuple(int(k) for k in np.unravel_index(np.argmin(slack), slack.shape))
    worst = float(slack[index])
    passed = bool(np.all(slack >= -np.asarray(tol)))
    found = None if passed else {**witness(*index), "slack": worst}
    return CheckReport(name, passed, worst, n_trials, found, details or {})


def dirichlet_form(chain: FiniteChain, f):
    """<f, (I - P) f>_pi, exactly: a float for one function, an array for
    a stack of row functions."""
    f = np.asarray(f, dtype=float)
    form = (f * (f - f @ chain.P.T)) @ chain.pi
    return float(form) if f.ndim == 1 else form


def dirichlet_form_pairwise(chain: FiniteChain, f) -> float:
    """(1/2) sum_{x,y} (f(x)-f(y))^2 pi(x) P(x,y); equals the inner-product
    form on reversible chains."""
    f = np.asarray(f, dtype=float)
    diff = f[:, None] - f[None, :]
    return float(0.5 * np.sum(chain.pi[:, None] * chain.P * diff ** 2))


def check_generator_decomposition(
    mix: FiniteMixture, trials: int, rng: np.random.Generator
) -> CheckReport:
    """E_mix(f,f) >= sum_k w_k E_k(f,f) for random signed f.

    Holds for Glauber and Metropolis constructions built from a common
    proposal; equality for a single component.
    """
    F = _random_fs(rng, trials, mix.n_states, "signed")
    parts = sum(w * dirichlet_form(c, F) for w, c in zip(mix.weights, mix.components))
    slack = dirichlet_form(mix.chain, F) - parts
    return _report("generator_decomposition", slack, trials, lambda i: {"f": F[i]})


def semigroup(chain: FiniteChain, t: float) -> np.ndarray:
    """e^{t(P - I)} as a dense matrix.

    Reversible chains go through their ``FiniteChain.symmetric_spectrum``.
    Other chains go through uniformization: with s = max(0, ceil(log2 t))
    and tau = t / 2^s, e^{tau(P - I)} = sum_k e^{-tau} tau^k/k! P^k, summed
    until the Poisson weight tau^k/k! falls below 1e-17, then squared s
    times.  Every term is nonnegative, so nothing cancels.
    """
    if not t >= 0:
        raise ValueError("t must be nonnegative")
    if chain.reversible:
        lam, rows = chain.symmetric_spectrum
        root = np.sqrt(chain.pi)
        weighted = rows * np.exp(t * (lam - 1.0))[None, :]
        return (weighted @ rows.T) * (root[None, :] / root[:, None])
    squarings = math.ceil(math.log2(t)) if t > 1 else 0
    tau = t / 2.0 ** squarings
    term = np.eye(chain.n_states)  # tau^k/k! P^k
    total = term.copy()
    k, weight = 0, 1.0
    while weight >= 1e-17:
        k += 1
        weight *= tau / k
        term = (tau / k) * (term @ chain.P)
        total += term
    S = math.exp(-tau) * total
    for _ in range(squarings):
        S = S @ S
    return S


def variance_decay_check(
    mix: FiniteMixture,
    t_grid: Sequence[float],
    trials: int,
    rng: np.random.Generator,
    convexity_grid: Optional[Sequence[float]] = None,
) -> CheckReport:
    """sum_k w_k Var_{pi_k}(P_T f) <= (C*/2T) Var_pi(f), plus convexity.

    C* is the max of the exact component Poincare constants.  Convexity of
    t -> Var_pi(P_t f) is asserted through second differences on
    ``convexity_grid`` (default: 50 points on [0, max T]).
    """
    pi = mix.chain.pi
    c_star = mix.c_star
    t_grid = [float(t) for t in t_grid]
    if convexity_grid is None:
        convexity_grid = np.linspace(0.0, max(t_grid), 50)
    semis = [semigroup(mix.chain, t) for t in t_grid]
    conv_semis = [semigroup(mix.chain, t) for t in convexity_grid]
    F = _random_fs(rng, trials, mix.n_states, "signed")
    var_f = _var(pi, F)
    slack = np.stack([
        c_star / (2.0 * t) * var_f
        - sum(w * _var(c.pi, F @ S.T) for w, c in zip(mix.weights, mix.components))
        for S, t in zip(semis, t_grid)
    ], axis=1)
    curve = np.stack([_var(pi, F @ S.T) for S in conv_semis], axis=1)
    second = curve[:, 2:] - 2.0 * curve[:, 1:-1] + curve[:, :-2]
    min_second = float(np.min(second, initial=math.inf))
    # convexity passes at its own tolerance, 1e-10, and amends _report's verdict:
    # as slacks, second differences could become the min_slack it reports
    report = _report(
        "variance_decay", slack, trials, lambda i, j: {"f": F[i], "t": t_grid[j]},
        details={"c_star": c_star, "min_second_difference": min_second},
    )
    if report.passed and not min_second >= -1e-10:
        worst = int(np.argmin(np.min(second, axis=1)))
        report = replace(
            report, passed=False, witness={"f": F[worst], "second_difference": min_second}
        )
    return report


def inter_intra_decomposition(
    mix: FiniteMixture, next_pmf, f, t: float
) -> dict:
    """Exact split of Var(P^t(g f)) into intra- and inter-mode parts.

    Returns {"intra", "inter", "total"} and asserts the law-of-total-variance
    identity within 1e-12, the intra bound C* gamma/(2t) mu2(f^2), and the
    inter bound (sum_i 1/w_i) mu2(f)^2 (nonnegative f).
    """
    pi = mix.chain.pi
    next_pmf = np.asarray(next_pmf, dtype=float)
    f = np.asarray(f, dtype=float)
    gbar = next_pmf / pi
    smoothed = semigroup(mix.chain, t) @ (gbar * f) if t > 0 else gbar * f
    total = _var(pi, smoothed)
    mean = float(pi @ smoothed)
    intra = sum(w * _var(c.pi, smoothed) for w, c in zip(mix.weights, mix.components))
    inter = sum(
        w * (float(c.pi @ smoothed) - mean) ** 2
        for w, c in zip(mix.weights, mix.components)
    )
    if not abs(total - intra - inter) <= 1e-12:
        raise AssertionError(
            f"variance decomposition identity violated: {total - intra - inter:.3e}"
        )
    result = {"intra": intra, "inter": inter, "total": total}
    if t > 0 and np.all(f >= 0):
        gamma = float(gbar.max())
        c_star = mix.c_star
        mu2_f2 = float(next_pmf @ f ** 2)
        mu2_f = float(next_pmf @ f)
        intra_bound = c_star * gamma / (2.0 * t) * mu2_f2
        inter_bound = float(np.sum(1.0 / mix.weights)) * mu2_f ** 2
        if not intra <= intra_bound + INEQ_TOL:
            raise AssertionError(f"intra-mode bound violated: {intra} > {intra_bound}")
        if not inter <= inter_bound + INEQ_TOL:
            raise AssertionError(f"inter-mode bound violated: {inter} > {inter_bound}")
        result.update({"intra_bound": intra_bound, "inter_bound": inter_bound})
    return result


def single_step_check(
    mix: FiniteMixture,
    next_pmf,
    trials: int,
    rng: np.random.Generator,
    *,
    lam_target: float,
) -> CheckReport:
    """||P^t(g f)||^2_{L2(mu1)} <= lam ||f||^2_{L2(mu2)} + beta mu2(f)^2.

    lam and beta come from the closed-form single-step constants with the
    exact component Poincare constants and the exact ratio bound gamma, at
    the t = C* gamma / (2 lam_target) that makes lam equal it.  Nonnegative f.
    """
    pi = mix.chain.pi
    next_pmf = np.asarray(next_pmf, dtype=float)
    gbar = next_pmf / pi
    gamma = float(gbar.max())
    c_star = mix.c_star
    t = c_star * gamma / (2.0 * lam_target)
    constants = bounds.single_step_constants(c_star, gamma, t, mix.weights)
    S = semigroup(mix.chain, t)
    F = _random_fs(rng, trials, mix.n_states, "nonnegative")
    lhs = ((F * gbar) @ S.T) ** 2 @ pi
    rhs = constants.lam * (F ** 2 @ next_pmf) + constants.beta * (F @ next_pmf) ** 2
    return _report(
        "single_step", rhs - lhs, trials, lambda i: {"f": F[i]},
        details={"t": t, "lam": constants.lam, "beta": constants.beta, "gamma": gamma},
    )


def hypercontractivity_check(
    mix: FiniteMixture,
    p: float,
    t_grid: Sequence[float],
    trials: int,
    rng: np.random.Generator,
    c_star: Optional[float] = None,
) -> CheckReport:
    """t -> ||P_t f||_{q(t)} / (w*)^{1/q(t)} is non-increasing for f > 0, within 1e-9.

    q(t) = 1 + (p-1) e^{2t/C*}.  ``c_star`` defaults to the largest
    ``lsi_constant_estimate`` over the components, an estimate rather than a
    proven upper bound: a C* above the true constant only weakens the verified
    claim, one below it checks a stronger one.  Norms are evaluated in log
    space since q(t) grows exponentially.
    """
    if c_star is None:
        c_star = max(
            lsi_constant_estimate(c, restarts=6, rng=rng) for c in mix.components
        )
    t_grid = sorted(float(t) for t in t_grid)
    if t_grid[0] != 0.0:
        t_grid = [0.0] + t_grid
    semis = [semigroup(mix.chain, t) for t in t_grid]
    qs = [bounds.q_of_t(p, c_star, t) for t in t_grid]
    log_pi = np.log(mix.chain.pi)
    log_wstar = math.log(mix.w_star)
    F = _random_fs(rng, trials, mix.n_states, "positive")
    curve = np.stack([
        np.exp(_row_logsumexp(log_pi + q * np.log(F @ S.T)) / q - log_wstar / q)
        for S, q in zip(semis, qs)
    ], axis=1)
    drops = curve[:, :-1] - curve[:, 1:]  # >= 0 when non-increasing
    return _report(
        "hypercontractivity", drops, trials, lambda i, j: {"f": F[i], "t": t_grid[j + 1]},
        tol=1e-9, details={"c_star": c_star, "p": p, "q_max": qs[-1]},
    )


def entropy_decomposition_check(
    mix: FiniteMixture, trials: int, rng: np.random.Generator
) -> CheckReport:
    """Ent_pi(f^2) = sum_k w_k Ent_{pi_k}(f^2) + Ent of the component means.

    An exact identity; asserted within 1e-12 for strictly positive f.
    """
    F = _random_fs(rng, trials, mix.n_states, "positive")
    G = F ** 2
    within = sum(w * _ent(c.pi, G) for w, c in zip(mix.weights, mix.components))
    comp_means = np.stack([G @ c.pi for c in mix.components], axis=1)
    overall = comp_means @ mix.weights
    between = (comp_means * np.log(comp_means / overall[:, None])) @ mix.weights
    err = np.abs(_ent(mix.chain.pi, G) - within - between)
    return _report(
        "entropy_decomposition", -err, trials, lambda i: {"f": F[i], "error": err[i]}
    )


def markov_contraction_check(
    mix: FiniteMixture, t_grid: Sequence[float]
) -> CheckReport:
    """sup-norm contraction of component density ratios under the semigroup.

    ||d(pi_i P_t)/d pi - 1||_sup <= ||d pi_i / d pi - 1||_sup for every
    component i and every t in the grid.
    """
    pi = mix.chain.pi
    t_grid = list(t_grid)
    comp_pis = np.stack([c.pi for c in mix.components])
    before = np.max(np.abs(comp_pis / pi - 1.0), axis=1)
    slack = np.array([
        before - np.max(np.abs((comp_pis @ semigroup(mix.chain, t)) / pi - 1.0), axis=1)
        for t in t_grid
    ])
    return _report(
        "markov_contraction", slack, len(t_grid) * len(mix.components),
        lambda j, i: {"component": i, "t": t_grid[j]},
    )


def poincare_constant(chain: FiniteChain) -> float:
    """Exact 1 / spectral gap of I - P on mean-zero functions.

    Requires a reversible chain; read from its ``symmetric_spectrum``.
    """
    if not chain.reversible:
        raise NonReversibleChainError("Poincare constant requires a reversible chain")
    lam, _ = chain.symmetric_spectrum
    gap = 1.0 - lam[-2] if chain.n_states > 1 else 1.0
    if gap <= 0:
        raise ValueError("chain has no spectral gap")
    return 1.0 / gap


def lsi_constant_estimate(
    chain: FiniteChain,
    restarts: int = 8,
    rng: Optional[np.random.Generator] = None,
    max_iter: int = 2000,
) -> float:
    """Upper estimate of the log-Sobolev constant sup_f Ent(f^2)/E(f,f).

    Multi-start projected gradient ascent on the L2(pi) sphere, each start
    run until its ratio moves by at most 1e-10 relative; the returned value is
    the best ratio found inflated by a safety factor 2: a margin against an
    ascent that stops below the supremum, not a proven bound.
    Raises ConvergenceError with the best iterate when no start converges.
    """
    if not chain.reversible:
        raise NonReversibleChainError("log-Sobolev estimate requires a reversible chain")
    if rng is None:
        rng = np.random.default_rng(0)
    pi = chain.pi
    size = chain.n_states

    def ratio_and_grad(f):
        g = f ** 2
        mean = float(pi @ g)
        ent = float(pi @ (g * np.log(np.maximum(g, 1e-300)))) - mean * math.log(mean)
        drift = f - chain.P @ f
        energy = float(pi @ (f * drift))
        if energy < 1e-14:
            return None
        grad_ent = 2.0 * pi * f * np.log(np.maximum(g / mean, 1e-300))
        grad_energy = 2.0 * pi * drift
        value = ent / energy
        grad = (grad_ent - value * grad_energy) / energy
        return value, grad

    best_value = 0.0
    best_f = np.ones(size)
    converged = False
    for _ in range(restarts):
        f = rng.standard_normal(size)
        f = np.abs(f) + 0.1  # positive start away from the constant direction
        f /= math.sqrt(float(pi @ f ** 2))
        step = 0.5
        prev = -math.inf
        for _ in range(max_iter):
            out = ratio_and_grad(f)
            if out is None:
                break
            value, grad = out
            if value > best_value:
                best_value, best_f = value, f.copy()
            if abs(value - prev) <= 1e-10 * max(1.0, abs(value)):
                converged = True
                break
            prev = value
            candidate = f + step * grad
            norm = math.sqrt(float(pi @ candidate ** 2))
            if norm < 1e-12 or not np.all(np.isfinite(candidate)):
                step *= 0.5
                continue
            candidate /= norm
            new = ratio_and_grad(candidate)
            if new is None or new[0] < value:
                step *= 0.5
                if step < 1e-12:
                    converged = True
                    break
            else:
                f = candidate
                step *= 1.1
    if not converged:
        raise ConvergenceError(
            "log-Sobolev ascent did not converge", best_value, best_f
        )
    return 2.0 * best_value


# ---------------------------------------------------------------------------
# Standard fixtures and the composed verification suite
# ---------------------------------------------------------------------------


def product_pmf(probs) -> np.ndarray:
    """Product measure on {0,1}^d from per-coordinate success probabilities.

    Bit i of the state index is coordinate i.
    """
    probs = np.asarray(probs, dtype=float)
    pmf = np.ones(1)
    for p in probs:
        pmf = np.concatenate([pmf * (1.0 - p), pmf * p])
    return pmf


def glauber_mixture(weights, component_probs) -> FiniteMixture:
    """Glauber chains for a mixture of product measures on the hypercube."""
    weights = np.asarray(weights, dtype=float)
    pmfs = [product_pmf(p) for p in component_probs]
    d = int(np.log2(pmfs[0].shape[0]))
    mix_pmf = sum(w * p for w, p in zip(weights, pmfs))
    chain = _kernels.glauber_transition_matrix(mix_pmf, d)
    comps = tuple(_kernels.glauber_transition_matrix(p, d) for p in pmfs)
    return FiniteMixture(chain=chain, components=comps, weights=weights)


def mh_mixture(weights, component_pmfs) -> FiniteMixture:
    """Metropolis chains (shared uniform proposal) for a mixture of pmfs."""
    weights = np.asarray(weights, dtype=float)
    pmfs = [_normalized(np.asarray(p, float), f"component {i} pmf")
            for i, p in enumerate(component_pmfs, 1)]
    mix_pmf = sum(w * p for w, p in zip(weights, pmfs))
    chain = _kernels.mh_transition_matrix(mix_pmf)
    comps = tuple(_kernels.mh_transition_matrix(p) for p in pmfs)
    return FiniteMixture(chain=chain, components=comps, weights=weights)


def standard_glauber_mixture(d: int = 3) -> FiniteMixture:
    """The 2^d-state two-component fixture used across the default checks."""
    probs = {
        2: ([0.15, 0.8], [0.85, 0.3]),
        3: ([0.15, 0.8, 0.4], [0.85, 0.3, 0.6]),
    }[d]
    return glauber_mixture([0.3, 0.7], probs)


def poissonized_fidelity_check(
    chain: FiniteChain,
    t: float,
    n_replicates: int,
    rng: np.random.Generator,
) -> CheckReport:
    """Empirical law of the Poissonized jump chain from state 0 vs its semigroup row.

    Passes when the total-variation distance is at most
    0.01·√(100 000 / n_replicates): 0.01 at 100 000 replicates, and wider
    for fewer, as the sampling error of the empirical law grows like
    1/√n_replicates.
    """
    _check_size(chain)
    states = _kernels.poissonized_evolve(
        chain, np.zeros(n_replicates, dtype=np.int64), t, rng
    )
    counts = np.bincount(states, minlength=chain.n_states)
    empirical = counts / n_replicates
    exact = semigroup(chain, t)[0]
    gap = np.abs(empirical - exact)
    tv = 0.5 * float(np.sum(gap))
    tv_tol = 0.01 * math.sqrt(100_000 / n_replicates)
    worst = int(np.argmax(gap))
    return _report(
        "poissonized_semigroup", [tv_tol - tv], n_replicates,
        lambda _: {"state": worst, "empirical": empirical[worst], "exact": exact[worst]},
        tol=0.0,
        details={"tv": tv, "tv_tol": tv_tol, "t": t, "start": 0},
    )


def semigroup_properties_check(chain: FiniteChain) -> CheckReport:
    """Identity at t=0, stochastic rows at t=1.3, the semigroup law
    P_1.3 P_0.7 = P_2, and the ergodic limit at t=100."""
    _check_size(chain)
    size = chain.n_states
    at_t = semigroup(chain, 1.3)
    errs = {
        "identity": float(np.max(np.abs(semigroup(chain, 0.0) - np.eye(size)))),
        "rows": float(np.max(np.abs(at_t.sum(axis=1) - 1.0))),
        "law": float(np.max(np.abs(at_t @ semigroup(chain, 0.7) - semigroup(chain, 2.0)))),
        "ergodic": float(np.max(np.abs(semigroup(chain, 100.0) - chain.pi[None, :]))),
    }
    tols = {"identity": 1e-12, "rows": 1e-10, "law": 1e-10, "ergodic": 1e-8}
    names = list(errs)
    return _report(
        "semigroup_properties", [tols[k] - errs[k] for k in names], 4,
        lambda i: {"property": names[i], "error": errs[names[i]], "tol": tols[names[i]]},
        tol=0.0, details=errs,
    )


def delta_recursion_check() -> CheckReport:
    """Closed-form consistency of the moment recursion.

    At gamma=1, alpha=1/2, beta=2 the recursion gives delta(8) = 4^{7/8}
    within 1e-12, and over a small grid with alpha = 1/(2 gamma^6) the
    simplified cap (2 beta)^{7/8} gamma^{5/4} dominates delta(8).
    """
    table = bounds.delta_recursion(8, alpha=0.5, beta=2.0, gamma=1.0)
    exact_err = abs(table[8] - 4.0 ** (7.0 / 8.0))
    grid = [(gamma, beta) for gamma in (1.0, 1.5, 2.0) for beta in (2.0, 5.0, 10.0)]
    cap_slack = [
        (2.0 * beta) ** (7.0 / 8.0) * gamma ** (5.0 / 4.0)
        - bounds.delta_recursion(8, alpha=1.0 / (2.0 * gamma ** 6), beta=beta, gamma=gamma)[8]
        for gamma, beta in grid
    ]
    return _report(
        "delta_recursion", [1e-12 - exact_err, *cap_slack], 10,
        lambda i: ({"exact_error": exact_err} if i == 0
                   else {"gamma": grid[i - 1][0], "beta": grid[i - 1][1]}),
        tol=[0.0] + [INEQ_TOL] * len(grid),
        details={"exact_error": exact_err, "min_cap_slack": min(cap_slack)},
    )


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the full (or filtered) oracle suite."""

    seed: int
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "seed": int(self.seed),
            "all_passed": bool(self.all_passed),
            "checks": [c.to_dict() for c in self.checks],
        }


def _two_level_pmfs(d: int = 3):
    mix = standard_glauber_mixture(d)
    probs = ([0.25, 0.65, 0.5], [0.7, 0.35, 0.55]) if d == 3 else ([0.3, 0.6], [0.7, 0.4])
    next_pmf = 0.5 * product_pmf(probs[0]) + 0.5 * product_pmf(probs[1])
    return mix, next_pmf


def run_verification_suite(
    selectors=None, seed: int = 0, trials_scale: float = 1.0
) -> VerificationReport:
    """Run the named oracle checks on the standard fixtures.

    A check runs when a selector is a prefix of its name or of its family
    ("decomposition" matches both constructions, "entropy_m3" one check);
    ``trials_scale`` scales trial counts down for quick runs.
    """
    rng = np.random.default_rng(seed)
    mix, next_pmf = _two_level_pmfs(3)
    four = glauber_mixture([0.4, 0.6], ([0.2, 0.7], [0.8, 0.45])).chain
    checks = []

    def n(base):
        return max(1, int(round(base * trials_scale)))

    def add(family, name, run):
        if selectors is None or any(
            name.startswith(s) or family.startswith(s) for s in selectors
        ):
            checks.append(replace(run(), name=name))

    # add() calls run() at once, so each closure sees its own loop values
    for d, weights, probs in _decomposition_cases():
        tag = f"d{d}_m{len(weights)}"
        add("decomposition", f"decomposition_glauber_{tag}", lambda: check_generator_decomposition(
            glauber_mixture(weights, probs), n(1000), rng))
        add("decomposition", f"decomposition_mh_{tag}", lambda: check_generator_decomposition(
            mh_mixture(weights, [product_pmf(p) for p in probs]), n(1000), rng))
    add("variance_decay", "variance_decay", lambda: variance_decay_check(
        mix, [0.1, 0.5, 1.0, 2.0, 5.0, 10.0], n(100), rng))
    add("single_step", "single_step", lambda: single_step_check(
        mix, next_pmf, n(1000), rng, lam_target=0.5))
    add("hypercontractivity", "hypercontractivity", lambda: hypercontractivity_check(
        mix, 2.0, np.linspace(0.0, 5.0, 20), n(100), rng))
    add("entropy", "entropy_m2", lambda: entropy_decomposition_check(mix, n(1000), rng))
    three = ([0.3, 0.3, 0.4], ([0.15, 0.8, 0.4], [0.85, 0.3, 0.6], [0.5, 0.5, 0.2]))
    add("entropy", "entropy_m3", lambda: entropy_decomposition_check(
        glauber_mixture(*three), n(1000), rng))
    add("semigroup", "semigroup_properties", lambda: semigroup_properties_check(four))
    add("poissonized", "poissonized_semigroup", lambda: poissonized_fidelity_check(
        four, 1.3, n(100_000), rng))
    add("contraction", "markov_contraction", lambda: markov_contraction_check(
        mix, [0.1, 0.5, 1.0, 3.0, 10.0]))
    add("delta_recursion", "delta_recursion", delta_recursion_check)
    if not checks:
        raise ValueError(f"selectors {selectors!r} matched no checks")
    return VerificationReport(seed=seed, checks=tuple(checks))


def _decomposition_cases():
    return [
        (2, [0.2, 0.8], ([0.15, 0.8], [0.85, 0.3])),
        (2, [0.3, 0.3, 0.4], ([0.15, 0.8], [0.85, 0.3], [0.5, 0.25])),
        (3, [0.2, 0.8], ([0.15, 0.8, 0.4], [0.85, 0.3, 0.6])),
        (3, [0.3, 0.3, 0.4], ([0.15, 0.8, 0.4], [0.85, 0.3, 0.6], [0.5, 0.5, 0.2])),
    ]
