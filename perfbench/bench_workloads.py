"""Workload inputs, independent reference values and correctness checks.

Every reference value in this file is computed here, apart from the program:
the halfspace mass of the two-mode Gaussian mixture from ``math.erf``, the
exact finite-ladder value from the product pmfs, the continuous-time
semigroup from ``scipy.linalg.expm`` and Poincare constants from
``numpy.linalg.eigvals``.  No check compares against a stored copy of an
earlier output.

Each check returns ``(name, ok, detail)``.  Every reference value that a
check compares against comes from one ``References`` object, so that the
self-test can hand ``run_checks`` a wrong one and see which checks fail.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("tempering_small_n", "convolution_large_n", "finite_ladder", "oracle_verify")

# Target of the three Euclidean workloads: the README two-mode mixture.
WEIGHTS = (0.3, 0.7)
MEANS = ((-3.0, -3.0), (3.0, 3.0))
N_LEVELS = 10
BETA_MIN = 0.05
SIGMA = 3.0
STEP_SIZE = 0.05
T_EUCLIDEAN = 1.0
T_FINITE = 1.5

# (particles, replicates per command) at full size and in smoke mode.
SIZES = {
    "tempering_small_n": {"full": (512, 4), "smoke": (64, 2)},
    "convolution_large_n": {"full": (10_000, 1), "smoke": (2_000, 1)},
    "finite_ladder": {"full": (512, 500), "smoke": (64, 50)},
}
VERIFY_TRIALS_SCALE = {"full": 1.0, "smoke": 0.2}
VERIFY_N_CHECKS = 17

# Allowed |mean - exact| beyond 5 standard errors on the Euclidean
# workloads: covers the ULA discretization bias at h = 0.05 (about 2e-4 on
# this target) and the O(1/N) self-normalization bias of eta.
EUCLIDEAN_ALLOWANCE = 0.01
N_SE = 5.0


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def halfspace_mass() -> float:
    """P(x_0 > 0) under 0.3 N((-3,-3), I) + 0.7 N((3,3), I)."""
    return sum(w * normal_cdf(m[0]) for w, m in zip(WEIGHTS, MEANS))


def product_pmf(probs) -> np.ndarray:
    """Product measure on {0,1}^d; bit i of the state index is coordinate i."""
    pmf = np.ones(1)
    for p in probs:
        pmf = np.concatenate([pmf * (1.0 - p), pmf * p])
    return pmf


def finite_pmfs():
    """The two levels of the {0,1}^2 ladder of acceptance criterion 8."""
    pmf1 = 0.3 * product_pmf([0.2, 0.7]) + 0.7 * product_pmf([0.8, 0.45])
    pmf2 = 0.5 * product_pmf([0.3, 0.6]) + 0.5 * product_pmf([0.7, 0.4])
    return pmf1, pmf2


def finite_exact_value() -> float:
    """P(state 0) at the last level: 0.5 * 0.7 * 0.4 + 0.5 * 0.3 * 0.6 = 0.23."""
    return float(finite_pmfs()[1][0])


def glauber_matrix(pmf: np.ndarray, d: int) -> np.ndarray:
    """Single-site heat-bath chain on {0,1}^d, reversible for ``pmf``."""
    idx = np.arange(pmf.shape[0])
    P = np.zeros((idx.size, idx.size))
    for i in range(d):
        flip = idx ^ (1 << i)
        P[idx, flip] = pmf[flip] / (pmf[idx] + pmf[flip]) / d
    P[idx, idx] += 1.0 - P.sum(axis=1)
    return P


def command_seed(seed: int, k: int) -> int:
    """63-bit master seed of the k-th command of a run."""
    state = np.random.SeedSequence((int(seed), int(k))).generate_state(1, np.uint64)[0]
    return int(state >> np.uint64(1))


def replicate_seed(master_seed: int, index: int) -> int:
    """Documented per-replicate seed: SeedSequence((master, index)) -> uint64."""
    ss = np.random.SeedSequence((int(master_seed), int(index)))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class References:
    """The values the checks compare against; the defaults are the right ones.

    ``seed_offset`` shifts the seed that a command's output is expected to
    carry and that the library replicates are run with; ``n_particles``
    (None: the workload's N) is the upper end of the allowed ESS range.
    """

    halfspace_mass: float = halfspace_mass()
    finite_value: float = finite_exact_value()
    expm_time_shift: float = 0.0
    poincare_scale: float = 1.0
    seed_offset: int = 0
    n_particles: int | None = None
    verify_checks: int = VERIFY_N_CHECKS


RIGHT = References()


@dataclass
class Inputs:
    """Generated inputs of one workload and how to run one command on them."""

    workload: str
    config_path: str
    out_dir: str
    n_particles: int
    replicates: int  # per command; 0 for verify
    finite: tuple = ()  # (pmf1, pmf2, P) for the finite ladder

    @property
    def is_run(self) -> bool:
        return self.workload != "oracle_verify"

    def argv(self, seed: int) -> list:
        base = ["--config", self.config_path, "--seed", str(seed), "--out", self.out_dir]
        if self.is_run:
            return base + ["--threads", "1", "run"]
        return base + ["verify"]

    def output_path(self) -> str:
        return os.path.join(self.out_dir, "run.json" if self.is_run else "verify.json")


def _euclidean_experiment(ladder: dict, n_particles: int, replicates: int, seed: int) -> dict:
    return {
        "target": {
            "kind": "gaussian_mixture",
            "weights": list(WEIGHTS),
            "means": [list(m) for m in MEANS],
        },
        "ladder": ladder,
        "kernel": {"kind": "langevin", "step_size": STEP_SIZE},
        "time_policy": {"mode": "explicit", "t": T_EUCLIDEAN},
        "n_particles": n_particles,
        "estimand": {"name": "indicator_halfspace", "coordinate": 0, "threshold": 0.0},
        "replicates": replicates,
        "master_seed": seed,
    }


def make_inputs(workload: str, seed: int, workdir: str, smoke: bool) -> Inputs:
    """Write the config (and ladder file) of ``workload`` under ``workdir``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    size = "smoke" if smoke else "full"
    os.makedirs(workdir, exist_ok=True)
    config_path = os.path.join(workdir, "config.json")
    out_dir = os.path.join(workdir, "out")
    master = command_seed(seed, 0)
    finite = ()
    if workload == "oracle_verify":
        n_particles, replicates = 0, 0
        cfg = {"schema_version": 1, "verify": {"trials_scale": VERIFY_TRIALS_SCALE[size]}}
    else:
        n_particles, replicates = SIZES[workload][size]
        if workload == "tempering_small_n":
            ladder = {"kind": "tempering", "n_levels": N_LEVELS, "beta_min": BETA_MIN}
            exp = _euclidean_experiment(ladder, n_particles, replicates, master)
        elif workload == "convolution_large_n":
            ladder = {"kind": "convolution", "n_levels": N_LEVELS, "beta_min": BETA_MIN,
                      "sigma": SIGMA}
            exp = _euclidean_experiment(ladder, n_particles, replicates, master)
        else:
            pmf1, pmf2 = finite_pmfs()
            P = glauber_matrix(pmf2, 2)
            finite = (pmf1, pmf2, P)
            ladder_path = os.path.join(workdir, "ladder.json")
            doc = {"kind": "finite_ladder",
                   "levels": [{"pmf": pmf1.tolist()}, {"pmf": pmf2.tolist(), "P": P.tolist()}]}
            with open(ladder_path, "w") as fh:
                json.dump(doc, fh)
            exp = {
                "target": {"kind": "finite_ladder_file", "path": ladder_path},
                "ladder": {"kind": "from_file"},
                "time_policy": {"mode": "explicit", "t": T_FINITE},
                "n_particles": n_particles,
                "estimand": {"name": "mode_indicator", "mode_index": 0},
                "replicates": replicates,
                "master_seed": master,
            }
        cfg = {"schema_version": 1, "experiment": exp}
    with open(config_path, "w") as fh:
        json.dump(cfg, fh)
    return Inputs(workload, config_path, out_dir, n_particles, replicates, finite)


# ---------------------------------------------------------------------------
# Reading one command's output
# ---------------------------------------------------------------------------


@dataclass
class Output:
    """What the checks need from one command's output document."""

    seed: int
    etas: list
    nus: list
    ess: list  # flattened ESS values of every replicate and level
    replicate_seeds: list
    master_seed: int = -1
    all_passed: bool = False
    n_checks: int = 0
    trials: int = 0

    @property
    def units(self) -> int:
        """Replicates for run, oracle trials for verify."""
        return len(self.etas) if self.etas else self.trials


def read_output(inputs: Inputs, seed: int) -> Output:
    with open(inputs.output_path()) as fh:
        doc = json.load(fh)
    if not inputs.is_run:
        return Output(seed, [], [], [], [], all_passed=bool(doc["all_passed"]),
                      n_checks=len(doc["checks"]),
                      trials=sum(int(c["n_trials"]) for c in doc["checks"]))
    reps = doc["replicates"]
    return Output(
        seed=seed,
        etas=[r["eta"] for r in reps],
        nus=[r["nu"] for r in reps],
        ess=[v for r in reps for v in r["ess_per_level"]],
        replicate_seeds=[r["seed"] for r in reps],
        master_seed=doc["master_seed"],
    )


def command_problems(inputs: Inputs, out: Output, refs: References = RIGHT) -> list:
    """Per-command checks; an empty list means the command's output is sound."""
    problems = []
    if not inputs.is_run:
        if not out.all_passed:
            problems.append("verify reported all_passed = false")
        if out.n_checks != refs.verify_checks:
            problems.append(f"verify ran {out.n_checks} checks, expected {refs.verify_checks}")
        return problems
    master = out.seed + refs.seed_offset
    if out.master_seed != master:
        problems.append("run.json master_seed differs from --seed")
    if len(out.etas) != inputs.replicates:
        problems.append(f"{len(out.etas)} replicates, expected {inputs.replicates}")
    expected = [replicate_seed(master, i) for i in range(len(out.etas))]
    if out.replicate_seeds != expected:
        problems.append("replicate seeds do not follow SeedSequence((master, i))")
    if not all(0.0 <= e <= 1.0 for e in out.etas):
        problems.append("eta outside [0, 1]")
    if inputs.workload == "tempering_small_n":
        # Tempering levels of a two-component mixture have no closed-form
        # normalizer, so the run reports no nu.
        if any(v is not None for v in out.nus):
            problems.append("nu reported without known normalizers")
    elif any(v is None or not math.isfinite(v) or v < 0.0 for v in out.nus):
        problems.append("nu missing, negative or non-finite")
    n_particles = refs.n_particles or inputs.n_particles
    lo, hi = min(out.ess), max(out.ess)
    if lo < 1.0 - 1e-9 or hi > n_particles * (1.0 + 1e-9):
        problems.append(f"ESS range [{lo:.2f}, {hi:.2f}] outside [1, {n_particles}]")
    return problems


# ---------------------------------------------------------------------------
# Checks over a whole run
# ---------------------------------------------------------------------------


def check_mean(name: str, values, reference: float, allowance: float):
    """|mean - reference| <= 5 standard errors + allowance."""
    x = np.asarray(values, dtype=float)
    mean = float(x.mean())
    se = float(x.std(ddof=1) / math.sqrt(x.size)) if x.size > 1 else math.inf
    tol = N_SE * se + allowance
    ok = abs(mean - reference) <= tol
    return name, ok, f"mean {mean:.5f} vs {reference:.5f} (tolerance {tol:.5f}, n={x.size})"


def check_equal(name: str, got, want):
    """Bitwise equality of two lists of floats (None compares to None)."""
    ok = len(got) == len(want) and all(
        (g is None and w is None) or (g is not None and w is not None
                                      and np.float64(g).tobytes() == np.float64(w).tobytes())
        for g, w in zip(got, want)
    )
    return name, ok, f"{len(got)} values compared"


def library_config(smcmix, inputs: Inputs, master_seed: int):
    """The workload's SmcConfig built through the library, not through the CLI."""
    sequences, kernels, core = smcmix.sequences, smcmix.kernels, smcmix.core
    if inputs.workload == "finite_ladder":
        pmf1, pmf2, P = inputs.finite
        chain = core.FiniteChain(P=P, pi=pmf2)
        ladder = sequences.build_finite_ladder([pmf1, pmf2], [None, chain], T_FINITE)

        def estimand(x):
            return (np.asarray(x) == 0).astype(float)
    else:
        target = core.TargetMixture.gaussian(WEIGHTS, MEANS, [np.eye(2)] * len(WEIGHTS))
        kernel = kernels.KernelSpec(kind="langevin", step_size=STEP_SIZE)
        if inputs.workload == "tempering_small_n":
            schedule = sequences.geometric_schedule(N_LEVELS, BETA_MIN, 2)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                ladder = sequences.build_power_tempering(
                    target, schedule, kernel=kernel, time_budget=T_EUCLIDEAN)
        else:
            schedule = sequences.geometric_schedule(N_LEVELS, BETA_MIN, 2, sigma=SIGMA)
            ladder = sequences.build_gaussian_convolution(
                target, schedule, kernel=kernel, time_budget=T_EUCLIDEAN)

        def estimand(x):
            return (np.asarray(x)[:, 0] > 0.0).astype(float)
    return smcmix.smc.SmcConfig(
        ladder=ladder, n_particles=inputs.n_particles, master_seed=master_seed,
        estimand=estimand,
    )


def library_values(smcmix, inputs: Inputs, master_seed: int) -> list:
    """eta and nu of replicates 0..R-1 of ``master_seed``, run through the library."""
    base = library_config(smcmix, inputs, master_seed)
    values = []
    for i in range(inputs.replicates):
        seed = smcmix.smc.replicate_seed(master_seed, i)
        result = smcmix.smc.run_smc(dataclasses.replace(base, master_seed=seed))
        values += [result.eta_estimate, result.nu_estimate]
    return values


def fixture_chains(oracle):
    """The oracle suite's fixture chains: Glauber and Metropolis mixtures."""
    glauber = oracle.standard_glauber_mixture(3)
    four = oracle.glauber_mixture([0.4, 0.6], ([0.2, 0.7], [0.8, 0.45]))
    mh = oracle.mh_mixture([0.3, 0.7], [product_pmf([0.15, 0.8]), product_pmf([0.85, 0.3])])
    return [glauber.chain, *glauber.components, four.chain, mh.chain, *mh.components]


def check_semigroup(oracle, chains, shift: float, times=(0.1, 1.3, 5.0)):
    """oracle.semigroup(P, t) against scipy.linalg.expm((t + shift) (P - I))."""
    import scipy.linalg

    worst = 0.0
    for chain in chains:
        eye = np.eye(chain.n_states)
        for t in times:
            ref = scipy.linalg.expm((t + shift) * (chain.P - eye))
            worst = max(worst, float(np.max(np.abs(oracle.semigroup(chain, t) - ref))))
    return "semigroup_equals_expm", worst <= 1e-10, f"max abs error {worst:.2e}"


def poincare_reference(P: np.ndarray) -> float:
    """1 / (1 - lambda_2), lambda_2 the second largest eigenvalue of P."""
    lam = np.sort(np.real(np.linalg.eigvals(P)))
    return 1.0 / (1.0 - lam[-2])


def check_poincare(oracle, chains, scale: float):
    """oracle.poincare_constant against ``scale`` / (1 - lambda_2) from numpy eigenvalues."""
    worst = 0.0
    for chain in chains:
        ref = scale * poincare_reference(chain.P)
        worst = max(worst, abs(oracle.poincare_constant(chain) - ref) / ref)
    return "poincare_equals_eigvals", worst <= 1e-8, f"max relative error {worst:.2e}"


def check_commands(inputs: Inputs, outputs: list, refs: References):
    """Every command output passes the per-command checks against ``refs``."""
    bad = [(o.seed, p) for o in outputs for p in command_problems(inputs, o, refs)]
    detail = f"{len(outputs)} outputs" + (f"; seed {bad[0][0]}: {bad[0][1]}" if bad else "")
    return "command_outputs", not bad, detail


def run_checks(smcmix, inputs: Inputs, outputs: list, first: Output, repeat: Output,
               refs: References = RIGHT) -> list:
    """Checks over all of a run's command outputs, outside the timed phase.

    ``first`` is the untimed warm-up command's output and ``repeat`` the same
    command run again with the same seed after the timed phase.
    """
    checks = [check_commands(inputs, [first, repeat, *outputs], refs)]
    if not inputs.is_run:
        chains = fixture_chains(smcmix.oracle)
        return checks + [check_semigroup(smcmix.oracle, chains, refs.expm_time_shift),
                         check_poincare(smcmix.oracle, chains, refs.poincare_scale)]
    if not outputs:
        return checks + [("timed_outputs", False, "no timed command produced a sound output")]
    etas = [e for o in outputs for e in o.etas]
    nus = [v for o in outputs for v in o.nus]
    if inputs.workload == "finite_ladder":
        checks.append(check_mean("nu_unbiased", nus, refs.finite_value, 0.0))
    else:
        checks.append(check_mean("eta_halfspace_mass", etas, refs.halfspace_mass,
                                 EUCLIDEAN_ALLOWANCE))
        if inputs.workload == "convolution_large_n":
            checks.append(check_mean("nu_halfspace_mass", nus, refs.halfspace_mass,
                                     EUCLIDEAN_ALLOWANCE))
    library = library_values(smcmix, inputs, first.seed + refs.seed_offset)
    checks.append(check_equal("cli_equals_library", interleave(first), library))
    checks.append(check_equal("repeat_same_seed", interleave(repeat), library))
    return checks


def interleave(out: Output) -> list:
    """eta_0, nu_0, eta_1, nu_1, ... of one command's output."""
    return [v for pair in zip(out.etas, out.nus) for v in pair]
