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
    "theorem_times",
    "convolution_gamma",
    "lsi_convolution_bound",
    "prescribe_main",
    "prescribe_convolution",
]

MODES = ("mse", "high_probability", "tv")


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _float_power(base: float, exponent: float) -> float:
    """``base ** exponent`` of Python floats; ``inf`` past the float range."""
    try:
        return float(base) ** exponent
    except OverflowError:
        return math.inf


def _power(base: float, exponent: float, name: str) -> float:
    """``base ** exponent``; a result that is not finite (beyond the float
    range, or an infinite ``base``) raises ``ValueError`` naming the constant
    ``name`` it is computed for."""
    value = _float_power(base, exponent)
    if not math.isfinite(value):
        raise ValueError(f"{name} overflows: {base:.4g} ** {exponent:g} is beyond "
                         f"the float range")
    return value


def theorem_times(c_star_per_level, gamma: float) -> tuple:
    """Simplified smoothing times t_k = 2 C*_k gamma^7, one per level."""
    gamma7 = _power(gamma, 7, "t_k = 2 C*_k gamma^7")
    return tuple(2.0 * c * gamma7 for c in c_star_per_level)


def convolution_gamma(beta_i: float, beta_prev: float, d: int) -> float:
    """Density-ratio bound (beta_i/beta_prev)^{d/2} of one noised step of a
    Gaussian-convolution ladder in dimension d; ``inf`` past the float range,
    which every power of gamma the theorem takes then refuses by name."""
    return _float_power(beta_i / beta_prev, d / 2.0)


def lsi_convolution_bound(c1: float, c2: float) -> float:
    """Log-Sobolev constant of a convolution: sum of the factors' constants.

    ``c1`` must be positive; ``c2 = 0`` stands for no noise (a point mass),
    so the un-noised final level of a convolution ladder keeps ``c1``.
    """
    if not (c1 > 0 and c2 >= 0):
        raise ValueError("c1 must be positive and c2 nonnegative")
    return c1 + c2


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
        if not self.gamma >= 1.0:
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
        if len(cs) not in (1, self.n) or not all(c > 0 for c in cs):
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
    if not t > 0:
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
    if not beta >= 1.0:
        raise ValueError("beta must be >= 1")
    if not gamma >= 1.0:
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
    if not t >= 0:
        raise ValueError("t must be nonnegative")
    if not c_star > 0:
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
        if not self.beta > 1.0:
            raise ValueError("beta must exceed 1")
        if self.prescribed_N < 1:
            raise ValueError("prescribed N must be >= 1")
        deltas = [d for _, d in self.delta_table]
        if any(b < a for a, b in zip(deltas, deltas[1:])):
            raise ValueError("delta table must be non-decreasing")

    def to_dict(self) -> dict:
        """Every field, with ``params`` as ``inputs`` less its per-level weights."""
        doc = dataclasses.asdict(self)
        inputs = doc.pop("params")
        del inputs["per_level_weights"]
        return {**doc, "inputs": inputs}


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
    t_simplified = theorem_times(params.c_star_per_level, gamma)

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

    ``params.c_star_per_level`` are the base (un-noised) log-Sobolev bounds;
    level k's constant is C*_k + sigma^2/beta_k (``lsi_convolution_bound``),
    the noise added here once, and levels beyond the noised ones (the exact
    target) carry no noise.  Smoothing times are t_k = 2 (C*_k +
    sigma^2/beta_k) gamma^7 with gamma the larger of ``params.gamma`` and
    the step bounds max_k (beta_k / beta_{k-1})^{d/2}, so gamma never falls
    below that of a ladder whose de-noising step has the larger ratio.
    """
    betas = [float(b) for b in betas]
    if not sigma >= 0:
        raise ValueError("sigma must be nonnegative")
    if len(betas) < 1:
        raise ValueError("need at least one beta")
    step = max((convolution_gamma(b2, b1, d) for b1, b2 in zip(betas, betas[1:])),
               default=1.0)
    if not math.isfinite(step):
        raise ValueError(f"gamma = (beta_k/beta_{{k-1}})^(d/2) overflows: a step ratio "
                         f"to the power {d / 2.0:g} is beyond the float range")
    noise = [sigma ** 2 / b for b in betas] + [0.0] * params.n
    c_star = tuple(lsi_convolution_bound(c, nz) for c, nz in zip(params.c_star_per_level, noise))
    augmented = dataclasses.replace(params, gamma=max(params.gamma, step), c_star_per_level=c_star)
    report = prescribe_main(augmented, mode="tv", alpha=alpha)
    return dataclasses.replace(report, which_theorem="convolution")
