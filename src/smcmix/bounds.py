"""Closed-form constants and sample-size / mixing-time prescriptions.

Every formula is implemented exactly as printed, even where conservative;
nothing is tightened.  The report distinguishes the simplified prescription
(fixed moment order p = 4 and contraction alpha = 1/(2 gamma^6)) from the
complete-form prescription with user-chosen alpha and p, and labels which
produced each number.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

__all__ = [
    "AssumptionParams",
    "BoundReport",
    "SingleStepConstants",
    "single_step_constants",
    "delta_recursion",
    "theta_hyper",
    "q_of_t",
    "chat_vbar",
    "prescribe_main",
    "prescribe_convolution",
]

MODES = ("mse", "high_probability", "tv")


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _power(base: float, exponent: float, name: str) -> float:
    """``base ** exponent``; a result beyond the float range raises
    ``ValueError`` naming the constant ``name`` it is computed for."""
    try:
        return base ** exponent
    except OverflowError:
        raise ValueError(f"{name} overflows: {base:.4g} ** {exponent:g} is beyond "
                         f"the float range") from None


@dataclass(frozen=True)
class AssumptionParams:
    """Inputs every prescription needs.

    ``c_star_per_level`` are the per-level log-Sobolev upper bounds,
    ``f_sup_bound`` is the sup-norm of f - mu_n(f), ``delta`` the failure
    probability for the high-probability variant, and ``p`` the moment order
    (a power of two, at least 4).  ``per_level_weights`` optionally carries
    the actual mixture weights of each level so the single-step beta can be
    computed exactly instead of from the worst case 1 + M/w_star.
    """

    n: int
    M: int
    w_star: float
    gamma: float
    c_star_per_level: tuple
    f_sup_bound: float
    epsilon: float
    delta: float = 0.1
    p: int = 4
    per_level_weights: Optional[tuple] = None

    def __post_init__(self):
        if self.n < 1 or self.M < 1:
            raise ValueError("n and M must be >= 1")
        if not 0.0 < self.w_star <= 1.0:
            raise ValueError("w_star must lie in (0, 1]")
        if self.gamma < 1.0:
            raise ValueError("gamma must be >= 1")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.f_sup_bound < 0 or not math.isfinite(self.f_sup_bound):
            raise ValueError("f_sup_bound must be finite and nonnegative")
        if self.p < 4 or not _is_power_of_two(self.p):
            raise ValueError("p must be a power of 2, at least 4")
        cs = tuple(float(c) for c in self.c_star_per_level)
        if len(cs) not in (1, self.n) or any(c <= 0 for c in cs):
            raise ValueError("need a positive c_star per level (or one shared value)")
        object.__setattr__(self, "c_star_per_level", cs if len(cs) == self.n else cs * self.n)

    @property
    def c_star_max(self) -> float:
        return max(self.c_star_per_level)


class SingleStepConstants(NamedTuple):
    """lambda and beta of the one-step L2 bound."""

    lam: float
    beta: float


def _beta(weights) -> float:
    """Single-step beta = 1 + sum_i 1/w_i of one level's mixture weights."""
    return 1.0 + sum(1.0 / float(w) for w in weights)


def single_step_constants(c_star: float, gamma: float, t: float, weights) -> SingleStepConstants:
    """One-step constants: lam = c_star*gamma/(2t), beta = 1 + sum_i 1/w_i."""
    if t <= 0:
        raise ValueError("t must be positive")
    return SingleStepConstants(lam=c_star * gamma / (2.0 * t), beta=_beta(weights))


def delta_recursion(p_target: int, alpha: float, beta: float, gamma: float) -> dict:
    """Table delta(1), delta(2), ..., delta(p_target).

    delta(1) = 1 and delta(2p) = delta(p) * (beta*gamma^{2p-2} /
    (1 - alpha*gamma^{2p-2}))^{1/(2p)}; diverges (raises) when
    alpha*gamma^{2p-2} >= 1 at any stage.
    """
    if not _is_power_of_two(p_target):
        raise ValueError("p_target must be a power of 2")
    if beta < 1.0:
        raise ValueError("beta must be >= 1")
    if gamma < 1.0:
        raise ValueError("gamma must be >= 1")
    table = {1: 1.0}
    p = 1
    while p < p_target:
        damp = alpha * gamma ** (2 * p - 2)
        if damp >= 1.0:
            raise ValueError(f"recursion diverges at p={2 * p}: alpha*gamma^(2p-2) >= 1")
        table[2 * p] = table[p] * (beta * gamma ** (2 * p - 2) / (1.0 - damp)) ** (
            1.0 / (2 * p)
        )
        p *= 2
    return table


def theta_hyper(q: float, p: float, w_star: float) -> float:
    """Mixture hypercontractivity constant (1/w_star)^{1/p - 1/q}."""
    if not q > p >= 1:
        raise ValueError("need q > p >= 1")
    if not 0.0 < w_star <= 1.0:
        raise ValueError("w_star must lie in (0, 1]")
    return (1.0 / w_star) ** (1.0 / p - 1.0 / q)


def q_of_t(p: float, c_star: float, t: float) -> float:
    """Hypercontractive exponent at time t: 1 + (p-1) e^{2t/c_star}.

    Saturates to infinity when the exponential overflows.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if c_star <= 0:
        raise ValueError("c_star must be positive")
    try:
        return 1.0 + (p - 1.0) * math.exp(2.0 * t / c_star)
    except OverflowError:
        return math.inf


def chat_vbar(params: AssumptionParams, alpha: float, beta: float, delta_table: dict,
              theta: float) -> dict:
    """Moment and variance aggregates over the whole ladder.

    c_hat = n (3+gamma) gamma^{(2p-1)/p} delta(2p)^2 theta and
    v_bar = n gamma beta / (1-alpha).
    """
    p = params.p
    gamma = params.gamma
    c_hat = (
        params.n
        * (3.0 + gamma)
        * gamma ** ((2.0 * p - 1.0) / p)
        * delta_table[2 * p] ** 2
        * theta
    )
    v_bar = params.n * gamma * beta / (1.0 - alpha)
    return {"c_hat": c_hat, "v_bar": v_bar}


@dataclass(frozen=True)
class BoundReport:
    """All evaluated constants plus the N / t prescriptions.

    ``prescribed_N`` and ``prescribed_t_per_level`` come from the simplified
    theorem selected by ``which_theorem``; ``complete_N`` and
    ``complete_t_per_level`` from the complete form with the report's alpha
    and p.  ``n_variance_branch`` / ``n_moment_branch`` are the two arguments
    of the simplified max (per level, before multiplying by n).
    """

    which_theorem: str
    params: AssumptionParams
    alpha: float
    beta: float
    lambda_per_level: tuple
    delta_table: tuple
    theta: float
    q_of_t_samples: tuple
    c_hat: float
    v_bar: float
    n_variance_branch: float
    n_moment_branch: float
    prescribed_N: int
    prescribed_t_per_level: tuple
    complete_N: float
    complete_t_per_level: tuple
    notes: tuple = field(default=())

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.beta <= 1.0:
            raise ValueError("beta must exceed 1")
        if self.prescribed_N < 1:
            raise ValueError("prescribed N must be >= 1")
        deltas = [d for _, d in self.delta_table]
        if any(b < a for a, b in zip(deltas, deltas[1:])):
            raise ValueError("delta table must be non-decreasing")

    def to_dict(self) -> dict:
        return {
            "which_theorem": self.which_theorem,
            "inputs": {
                "n": self.params.n,
                "M": self.params.M,
                "w_star": self.params.w_star,
                "gamma": self.params.gamma,
                "c_star_per_level": list(self.params.c_star_per_level),
                "f_sup_bound": self.params.f_sup_bound,
                "epsilon": self.params.epsilon,
                "delta": self.params.delta,
                "p": self.params.p,
            },
            "alpha": self.alpha,
            "beta": self.beta,
            "lambda_per_level": list(self.lambda_per_level),
            "delta_table": [[p, d] for p, d in self.delta_table],
            "theta": self.theta,
            "q_of_t_samples": [[t, q] for t, q in self.q_of_t_samples],
            "c_hat": self.c_hat,
            "v_bar": self.v_bar,
            "n_variance_branch": self.n_variance_branch,
            "n_moment_branch": self.n_moment_branch,
            "prescribed_N": self.prescribed_N,
            "prescribed_t_per_level": list(self.prescribed_t_per_level),
            "complete_N": self.complete_N,
            "complete_t_per_level": list(self.complete_t_per_level),
            "notes": list(self.notes),
        }


def _beta_from_params(params: AssumptionParams) -> float:
    if params.per_level_weights is not None:
        return max(_beta(level) for level in params.per_level_weights)
    return 1.0 + params.M / params.w_star


def prescribe_main(
    params: AssumptionParams,
    mode: str = "mse",
    alpha: Optional[float] = None,
) -> BoundReport:
    """Simplified and complete prescriptions for N and the t_k.

    ``mode`` selects the error criterion of the simplified form:

    * ``mse``: variance branch 4*gamma*M/(w* eps) * (1 + 3 sup^2)
    * ``high_probability``: the same with eps^2 * delta in the denominator
    * ``tv``: 16*gamma*M/(w* eps^2)

    All three share the moment branch 128 gamma^{35/8} M^{7/4} / w*^{15/8}
    and t_k = 2 C*_k gamma^7.  The complete form uses the report's alpha and
    p: t_k = (C*_k/2) max(gamma/alpha, log((p-1)/(p/2-1))) and
    N = max((n/eps) gamma beta/(1-alpha) (1+3 sup^2),
            2 n (3+gamma) gamma^{(2p-1)/(2p)} delta(2p)^2 w*^{-1/(2p)}).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    gamma = params.gamma
    if alpha is None:
        alpha = 1.0 / (2.0 * _power(gamma, 6, "alpha = 1/(2 gamma^6)"))
    beta = _beta_from_params(params)
    sup2 = _power(params.f_sup_bound, 2, "sup^2 = f_sup_bound^2")
    eps = params.epsilon

    if mode == "mse":
        variance_branch = 4.0 * gamma * params.M / (params.w_star * eps) * (1.0 + 3.0 * sup2)
    elif mode == "high_probability":
        variance_branch = (
            4.0 * gamma * params.M / (params.w_star * eps ** 2 * params.delta)
            * (1.0 + 3.0 * sup2)
        )
    else:  # tv
        variance_branch = 16.0 * gamma * params.M / (params.w_star * eps ** 2)
    w_power = params.w_star ** (15.0 / 8.0)
    if w_power == 0.0:  # the moment branch's denominator
        raise ZeroDivisionError(f"w_star^(15/8) of the moment branch underflows to 0: "
                                f"w_star = {params.w_star:.4g}")
    moment_branch = (128.0 * _power(gamma, 35.0 / 8.0, "moment branch gamma^(35/8)")
                     * params.M ** (7.0 / 4.0) / w_power)
    prescribed_n = math.ceil(params.n * max(variance_branch, moment_branch))
    gamma7 = _power(gamma, 7, "t_k = 2 C*_k gamma^7")
    t_simplified = tuple(2.0 * c * gamma7 for c in params.c_star_per_level)

    p = params.p
    table = delta_recursion(2 * p, alpha, beta, gamma)
    theta = theta_hyper(float(p), p / 2.0, params.w_star)
    aggregates = chat_vbar(params, alpha, beta, table, theta)
    log_term = math.log((p - 1.0) / (p / 2.0 - 1.0))
    t_complete = tuple(
        0.5 * c * max(gamma / alpha, log_term) for c in params.c_star_per_level
    )
    complete_n = max(
        params.n / eps * gamma * beta / (1.0 - alpha) * (1.0 + 3.0 * sup2),
        2.0
        * params.n
        * (3.0 + gamma)
        * gamma ** ((2.0 * p - 1.0) / (2.0 * p))
        * table[2 * p] ** 2
        / params.w_star ** (1.0 / (2.0 * p)),
    )
    lambdas = tuple(
        c * gamma / (2.0 * t) for c, t in zip(params.c_star_per_level, t_simplified)
    )
    c_max = params.c_star_max
    t_grid = [0.0, 0.25 * c_max, 0.5 * c_max * math.log(3.0), c_max, 2.0 * c_max]
    q_samples = tuple((t, q_of_t(p / 2.0, c_max, t)) for t in sorted(set(t_grid)))
    return BoundReport(
        which_theorem=mode,
        params=params,
        alpha=alpha,
        beta=beta,
        lambda_per_level=lambdas,
        delta_table=tuple(sorted(table.items())),
        theta=theta,
        q_of_t_samples=q_samples,
        c_hat=aggregates["c_hat"],
        v_bar=aggregates["v_bar"],
        n_variance_branch=variance_branch,
        n_moment_branch=moment_branch,
        prescribed_N=prescribed_n,
        prescribed_t_per_level=t_simplified,
        complete_N=complete_n,
        complete_t_per_level=t_complete,
        notes=(
            "simplified t_k = 2 C*_k gamma^7 carries a factor-2 slack over the "
            "chain C*_k gamma/(2 alpha) at alpha = 1/(2 gamma^6)",
        ),
    )


def prescribe_convolution(
    params: AssumptionParams, sigma: float, betas, d: int, alpha: Optional[float] = None
) -> BoundReport:
    """Prescription for a Gaussian-convolution ladder.

    Per-level smoothing times t_k >= 2 (C*_k + sigma^2/beta_k) gamma^7 with
    gamma = max_k (beta_k / beta_{k-1})^{d/2}; the level constants combine the
    base log-Sobolev bound with the additive noise term sigma^2/beta_k.
    """
    betas = [float(b) for b in betas]
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if len(betas) < 1:
        raise ValueError("need at least one beta")
    ratios = [b2 / b1 for b1, b2 in zip(betas, betas[1:])]
    gamma = max([_power(r, d / 2.0, "gamma = (beta_k/beta_{k-1})^(d/2)") for r in ratios],
                default=1.0)
    gamma = max(gamma, 1.0)
    noise = [sigma ** 2 / b for b in betas]
    # Levels beyond the noised ones (the exact target) carry no extra noise.
    per_level = list(params.c_star_per_level)
    noise = (noise + [0.0] * len(per_level))[: len(per_level)]
    augmented = dataclasses.replace(
        params, gamma=gamma, c_star_per_level=tuple(c + nz for c, nz in zip(per_level, noise))
    )
    report = prescribe_main(augmented, mode="tv", alpha=alpha)
    return dataclasses.replace(report, which_theorem="convolution")
