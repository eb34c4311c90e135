"""Per-layer tracing from outside the program.

``Tracer`` replaces, for the duration of a ``with`` block, the module
attributes that ``smc``, ``cli``, ``sequences`` and ``oracle`` look up at call
time, the ``GaussianComponent`` methods, and each built level's ratio
callables, with wrappers that count calls and accumulate wall time.  Nothing
under ``src/`` is modified; the originals are restored on exit.

A span that is re-entered while already open (a bounds function calling
another one) is neither counted nor timed again, so each span's time is the
time spent inside the layer measured at its outermost entry.  Spans of
different layers nest: ``core.logdensity`` time is also part of
``smc.reweight`` and ``sequences.init`` time.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from collections import defaultdict

import numpy as np

ORACLE_FAMILIES = {
    "decomposition": "check_generator_decomposition",
    "variance_decay": "variance_decay_check",
    "single_step": "single_step_check",
    "hypercontractivity": "hypercontractivity_check",
    "entropy": "entropy_decomposition_check",
    "semigroup_properties": "semigroup_properties_check",
    "poissonized": "poissonized_fidelity_check",
    "contraction": "markov_contraction_check",
    "delta_recursion": "delta_recursion_check",
}

SHAPES = (("M2_d2", 2, 2), ("M8_d2", 8, 2), ("M2_d32", 2, 32), ("M8_d32", 8, 32))


def _points(x) -> int:
    return int(np.shape(x)[0]) if np.ndim(x) >= 2 else 1


class _Span:
    __slots__ = ("calls", "seconds", "open", "points")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.open = False
        self.points = 0


class Tracer:
    """Context manager that installs counting and timing wrappers."""

    def __init__(self, smcmix):
        self.pkg = smcmix
        self.spans = defaultdict(_Span)
        self.replicate_s = []
        self.ess_frac = []
        self.unique_frac = []
        self.acceptance = []
        self.ratio_steps = 0  # levels - 1, summed over run_smc calls
        self.trials = 0
        self._saved = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, after=None, count_points=False):
        span = self.spans[name]

        def wrapper(*args, **kwargs):
            if span.open:
                return fn(*args, **kwargs)
            span.open = True
            if count_points:
                span.points += _points(args[-1])
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                span.seconds += elapsed
                span.calls += 1
                span.open = False
            if after is not None:
                after(result, args, elapsed)
            return result

        return wrapper

    def _patch(self, owner, attr, name, **kw):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, **kw))

    def _wrap_ladder(self, ladder):
        def ratio(fn):
            return None if fn is None else self._wrap("smc.reweight", fn)

        levels = [ladder.levels[0]] + [
            dataclasses.replace(
                lv, ratio_to_prev=ratio(lv.ratio_to_prev),
                normalized_ratio=ratio(lv.normalized_ratio),
            )
            for lv in ladder.levels[1:]
        ]
        return type(ladder)(levels=tuple(levels), gamma_bound=ladder.gamma_bound)

    def _patch_builder(self, attr):
        seq = self.pkg.sequences
        timed = self._wrap("sequences.build", getattr(seq, attr))
        self._saved.append((seq, attr, getattr(seq, attr)))

        def builder(*args, **kwargs):
            return self._wrap_ladder(timed(*args, **kwargs))

        setattr(seq, attr, builder)

    def __enter__(self):
        p = self.pkg
        cli, smc, seq, orc = p.cli, p.smc, p.sequences, p.oracle
        self._patch(cli, "load_config", "cli.load_config")
        self._patch(cli, "build_smc_config", "cli.build_config")
        self._patch(smc, "run_smc", "smc.run", after=self._after_run)
        self._patch(smc, "sample_initial", "sequences.init", after=self._after_init)
        self._patch(smc, "multinomial_resample", "smc.resample", after=self._after_resample)
        self._patch(smc, "apply_kernel", "kernels.apply")
        for attr in ("build_power_tempering", "build_gaussian_convolution", "build_finite_ladder"):
            self._patch_builder(attr)
        self._patch(seq, "eval_mixture_logdensity", "core.logdensity", count_points=True)
        self._patch(seq, "mixture_grad_logdensity", "core.grad", count_points=True)
        gc = p.gaussians.GaussianComponent
        self._patch(gc, "logpdf", "gaussians.logpdf")
        self._patch(gc, "grad_logpdf", "gaussians.grad")
        self._patch(gc, "sample", "gaussians.sample")
        self._patch(orc, "run_verification_suite", "oracle.suite", after=self._after_suite)
        for family, attr in ORACLE_FAMILIES.items():
            self._patch(orc, attr, f"oracle.{family}")
        self._patch(orc, "semigroup", "oracle.semigroup")
        self._patch(orc, "lsi_constant_estimate", "oracle.lsi_estimate")
        for attr, value in vars(p.bounds).items():
            if (callable(value) and not isinstance(value, type) and not attr.startswith("_")
                    and getattr(value, "__module__", None) == p.bounds.__name__):
                self._patch(p.bounds, attr, "bounds")
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    # -- per-call observations ----------------------------------------------

    def _after_run(self, result, args, elapsed):
        config = args[0]
        self.replicate_s.append(elapsed)
        self.ratio_steps += config.ladder.n_levels - 1
        self.ess_frac.extend(e / config.n_particles for e in result.ess_per_level)

    def _after_init(self, ensemble, args, elapsed):
        self.acceptance.append(float(ensemble.init_acceptance_rate))

    def _after_resample(self, ancestors, args, elapsed):
        self.unique_frac.append(np.unique(ancestors).size / ancestors.size)

    def _after_suite(self, report, args, elapsed):
        self.trials += sum(c.n_trials for c in report.checks)

    # -- metrics -------------------------------------------------------------

    def metrics(self, command_seconds: list) -> dict:
        """Per-layer metrics, counts and times per command of the traced phase."""
        n_cmd = len(command_seconds)
        s = self.spans

        def per(x):
            return x / n_cmd

        def mean(xs):
            return float(np.mean(xs)) if xs else 0.0

        run_children = sum(s[k].seconds for k in
                           ("sequences.init", "smc.reweight", "smc.resample", "kernels.apply"))
        out = {
            "cli.build_config_calls": (per(s["cli.build_config"].calls), "count"),
            "cli.build_config_s": (per(s["cli.build_config"].seconds), "s"),
            "cli.self_s": (per(sum(command_seconds) - s["cli.build_config"].seconds
                               - s["smc.run"].seconds - s["oracle.suite"].seconds), "s"),
            "cli.load_config_s": (per(s["cli.load_config"].seconds), "s"),
            "sequences.build_s": (per(s["sequences.build"].seconds), "s"),
            "sequences.init_calls": (per(s["sequences.init"].calls), "count"),
            "sequences.init_s": (per(s["sequences.init"].seconds), "s"),
            "sequences.init_acceptance": (mean(self.acceptance), "ratio"),
        }
        for layer in ("logdensity", "grad"):
            span = s[f"core.{layer}"]
            out[f"core.{layer}_calls"] = (per(span.calls), "count")
            out[f"core.{layer}_points"] = (per(span.points), "count")
            out[f"core.{layer}_s"] = (per(span.seconds), "s")
        for layer in ("logpdf", "grad"):
            out[f"gaussians.{layer}_calls"] = (per(s[f"gaussians.{layer}"].calls), "count")
            out[f"gaussians.{layer}_s"] = (per(s[f"gaussians.{layer}"].seconds), "s")
        out["gaussians.sample_s"] = (per(s["gaussians.sample"].seconds), "s")
        out.update({
            "smc.run_calls": (per(s["smc.run"].calls), "count"),
            "smc.replicate_ms_p50": (
                1e3 * statistics.median(self.replicate_s) if self.replicate_s else 0.0, "ms"),
            "smc.driver_self_s": (per(s["smc.run"].seconds - run_children), "s"),
            "smc.resample_s": (per(s["smc.resample"].seconds), "s"),
            "smc.ratio_evals_per_level": (
                s["smc.reweight"].calls / self.ratio_steps if self.ratio_steps else 0.0, "count"),
            "smc.reweight_s": (per(s["smc.reweight"].seconds), "s"),
            "smc.unique_ancestor_frac": (mean(self.unique_frac), "ratio"),
            "smc.ess_frac_mean": (mean(self.ess_frac), "ratio"),
            "kernels.apply_calls": (per(s["kernels.apply"].calls), "count"),
            "kernels.apply_s": (per(s["kernels.apply"].seconds), "s"),
        })
        for family in ORACLE_FAMILIES:
            out[f"oracle.{family}_s"] = (per(s[f"oracle.{family}"].seconds), "s")
        out.update({
            "oracle.semigroup_calls": (per(s["oracle.semigroup"].calls), "count"),
            "oracle.semigroup_s": (per(s["oracle.semigroup"].seconds), "s"),
            "oracle.lsi_estimate_s": (per(s["oracle.lsi_estimate"].seconds), "s"),
            "oracle.trials": (per(self.trials), "count"),
            "bounds.calls": (per(s["bounds"].calls), "count"),
            "bounds.s": (per(s["bounds"].seconds), "s"),
        })
        return out

    def raw(self) -> dict:
        return {k: {"calls": v.calls, "seconds": v.seconds, "points": v.points}
                for k, v in sorted(self.spans.items())}


def mixture_shapes(smcmix, seed: int, n_points: int = 2048, repeats: int = 9) -> dict:
    """ns per point of the mixture log-density and gradient on seeded inputs.

    Direct calls to ``core.eval_mixture_logdensity`` and
    ``core.mixture_grad_logdensity`` for mixture shapes no workload reaches;
    median of ``repeats`` timed calls.  One untimed sweep over every shape
    of the same size comes first: the first d = 32 products of a process
    (BLAS thread start-up) run up to 20 times slower.
    """
    core = smcmix.core
    rng = np.random.default_rng(seed)
    cases = []
    for label, M, d in SHAPES:
        weights = rng.dirichlet(np.ones(M))
        means = rng.normal(scale=3.0, size=(M, d))
        covs = []
        for _ in range(M):
            A = rng.normal(size=(d, d)) / np.sqrt(d)
            covs.append(A @ A.T + np.eye(d))
        mix = core.TargetMixture.gaussian(weights, means, covs)
        cases.append((label, mix, rng.normal(scale=3.0, size=(n_points, d))))

    def sweep(n: int) -> dict:
        out = {}
        for label, mix, x in cases:
            for metric, fn in (("logdensity", core.eval_mixture_logdensity),
                               ("grad", core.mixture_grad_logdensity)):
                times = []
                for _ in range(n):
                    t0 = time.perf_counter()
                    fn(mix, x)
                    times.append(time.perf_counter() - t0)
                out[f"core.{metric}_ns_per_point.{label}"] = (
                    1e9 * statistics.median(times) / n_points, "ns")
        return out

    sweep(repeats)
    return sweep(repeats)
