"""Domain types: mixture evaluation, gradients, ensembles, chains, ladders."""

import importlib
import math
import pkgutil
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import smcmix
from smcmix import bounds, kernels, oracle, sequences
from smcmix.bounds import AssumptionParams
from smcmix.core import (
    FiniteChain,
    Ladder,
    Level,
    ParticleEnsemble,
    TargetMixture,
    _normalized,
    effective_sample_size,
    eval_mixture_logdensity,
    mixture_grad_logdensity,
)
from smcmix.gaussians import GaussianComponent
from smcmix.kernels import KernelSpec

# log pdf of a standard normal at its mean
LOG_PHI_0 = -0.5 * math.log(2.0 * math.pi)
# log(0.3*phi(3) + 0.7*phi(-3)) = log(phi(3)) for the symmetric two-mode target
LOG_BIMODAL_AT_0 = LOG_PHI_0 - 4.5


def scalar_normal_pdf(x, mean, var):
    return math.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(2.0 * math.pi * var)


class TestMixtureLogDensity:
    def test_single_standard_normal_at_origin(self):
        m = TargetMixture.gaussian([1.0], [[0.0]], [[[1.0]]])
        assert eval_mixture_logdensity(m, np.array([0.0])) == pytest.approx(
            LOG_PHI_0, abs=1e-14
        )

    def test_two_identical_components_match_single(self):
        single = TargetMixture.gaussian([1.0], [[0.3]], [[[1.2]]])
        double = TargetMixture.gaussian([0.5, 0.5], [[0.3], [0.3]], [[[1.2]], [[1.2]]])
        x = np.array([0.7])
        assert eval_mixture_logdensity(double, x) == pytest.approx(
            eval_mixture_logdensity(single, x), abs=1e-14
        )

    def test_bimodal_value_from_scalar_arithmetic(self):
        m = TargetMixture.gaussian([0.3, 0.7], [[-3.0], [3.0]], [[[1.0]], [[1.0]]])
        expected = math.log(
            0.3 * scalar_normal_pdf(0.0, -3.0, 1.0) + 0.7 * scalar_normal_pdf(0.0, 3.0, 1.0)
        )
        got = eval_mixture_logdensity(m, np.array([0.0]))
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(LOG_BIMODAL_AT_0, abs=1e-12)

    def test_vectorized_batch_matches_loop(self):
        m = TargetMixture.gaussian([0.4, 0.6], [[-1.0, 0.0], [2.0, 1.0]],
                                   [np.eye(2), 0.5 * np.eye(2)])
        xs = np.random.default_rng(0).normal(size=(50, 2))
        batch = eval_mixture_logdensity(m, xs)
        singles = np.array([eval_mixture_logdensity(m, x) for x in xs])
        np.testing.assert_allclose(batch, singles, rtol=1e-14)

    def test_unnormalized_component_rejected(self):
        # a mixture holds Gaussian components only: a density is refused when built
        def log_density(x):
            return np.zeros(np.shape(x)[0])

        with pytest.raises(TypeError, match="GaussianComponent"):
            TargetMixture(components=(log_density,), weights=np.array([1.0]))

    @pytest.mark.parametrize("n_covs", [1, 3])
    def test_one_covariance_per_mean(self, n_covs):
        # zip would stop at the shorter list: a third covariance was dropped
        with pytest.raises(ValueError, match=f"2 means need as many covariances, got {n_covs}"):
            TargetMixture.gaussian([0.5, 0.5], [[0.0, 0.0], [1.0, 1.0]],
                                   [np.eye(2), np.eye(2), 5.0 * np.eye(2)][:n_covs])

    def test_components_of_different_dimensions_rejected(self):
        comps = (GaussianComponent([0.0], 1.0), GaussianComponent([1.0, 1.0], np.eye(2)))
        with pytest.raises(ValueError, match="share one dimension"):
            TargetMixture(components=comps, weights=np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="share one dimension"):
            TargetMixture.gaussian([0.5, 0.5], [[0.0], [1.0, 1.0]], [[[1.0]], np.eye(2)])

    @given(
        weights=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4),
        means=st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=4),
        x=st.floats(-6.0, 6.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_logsumexp_matches_naive_summation(self, weights, means, x):
        w = np.array(weights[: len(weights)])
        w = w / w.sum()
        mus = means[: len(w)]
        m = TargetMixture.gaussian(w, [[mu] for mu in mus], [[[1.0]]] * len(w))
        naive = sum(
            wi * scalar_normal_pdf(x, mu, 1.0) for wi, mu in zip(w, mus)
        )
        if naive <= 0:  # underflow: the log-sum-exp path is the whole point
            return
        got = eval_mixture_logdensity(m, np.array([x]))
        assert got == pytest.approx(math.log(naive), rel=1e-12)


def random_mixture(rng, M, d):
    """M components with random means and full covariances A A^T / d + I."""
    covs = []
    for _ in range(M):
        A = rng.normal(size=(d, d))
        covs.append(A @ A.T / d + np.eye(d))
    return TargetMixture.gaussian(
        rng.dirichlet(np.ones(M)), rng.normal(scale=3.0, size=(M, d)), covs
    )


def per_component_reference(mixture, x):
    """Log-density and gradient from each component's own logpdf / grad_logpdf."""
    gauss = mixture.components
    logs = np.stack([math.log(w) + g.logpdf(x) for w, g in zip(mixture.weights, gauss)])
    log_density = logsumexp(logs, axis=0)
    resp = np.exp(logs - log_density)
    grad = sum(r[:, None] * g.grad_logpdf(x) for r, g in zip(resp, gauss))
    return log_density, grad


class TestFusedEvaluator:
    @pytest.mark.parametrize("M", [1, 2, 8])
    @pytest.mark.parametrize("d", [1, 2, 32])
    def test_matches_per_component_reference(self, M, d):
        rng = np.random.default_rng(1000 * M + d)
        mixture = random_mixture(rng, M, d)
        x = rng.normal(scale=3.0, size=(500, d))
        ref_log, ref_grad = per_component_reference(mixture, x)
        np.testing.assert_allclose(eval_mixture_logdensity(mixture, x), ref_log,
                                   rtol=1e-12, atol=0.0)
        grad = mixture_grad_logdensity(mixture, x)
        assert grad.shape == (500, d)
        assert np.all(np.abs(grad - ref_grad) <= 1e-10 * np.maximum(1.0, np.abs(ref_grad)))

    @pytest.mark.parametrize("M", [1, 2, 8])
    @pytest.mark.parametrize("d", [1, 2, 8, 32])
    def test_block_rows_equal_lone_calls(self, M, d):
        # the sampler evaluates a block of replicates as one (B, N, d) array;
        # each row must come out bitwise as its (N, d) call (at N = 1 numpy's
        # sum over the components picks a different order for a row alone)
        rng = np.random.default_rng(100 * M + d)
        mixture = random_mixture(rng, M, d)
        for n in (1, 2, 7, 512):
            for b in (2, 6, 16):
                x = rng.normal(scale=3.0, size=(b, n, d))
                log_density = eval_mixture_logdensity(mixture, x)
                grad = mixture_grad_logdensity(mixture, x)
                assert log_density.shape == (b, n) and grad.shape == (b, n, d)
                for row, lone_log, lone_grad in zip(x, log_density, grad):
                    assert eval_mixture_logdensity(mixture, row).tobytes() == lone_log.tobytes()
                    assert mixture_grad_logdensity(mixture, row).tobytes() == lone_grad.tobytes()

    def test_far_points(self, bimodal_target):
        # every component term underflows: log-density -inf, not NaN
        assert eval_mixture_logdensity(bimodal_target, np.array([1e200, 1e200])) == -np.inf
        far = eval_mixture_logdensity(bimodal_target, np.array([[1e200, 1e200], [0.0, 0.0]]))
        assert far[0] == -np.inf and np.isfinite(far[1])
        # equidistant from both modes: responsibilities are the weights 0.3 / 0.7,
        # so the gradient is -(x - (1.2, 1.2))
        np.testing.assert_allclose(
            mixture_grad_logdensity(bimodal_target, np.array([1e3, -1e3])),
            [-998.8, 1001.2], rtol=1e-10,
        )

    def test_wrong_point_dimension_rejected(self, bimodal_target):
        for fn in (eval_mixture_logdensity, mixture_grad_logdensity):
            with pytest.raises(ValueError, match="dimension"):
                fn(bimodal_target, np.zeros((4, 3)))

    def test_normalized_non_gaussian_component_rejected(self):
        # a normalized density, even a Gaussian's, is not a GaussianComponent
        g = GaussianComponent([0.0], 1.0)
        with pytest.raises(TypeError, match="GaussianComponent"):
            TargetMixture(components=(g.logpdf,), weights=np.array([1.0]))


def shared_covariance_mixture(rng, M, d):
    """M components with random means and one shared full covariance A A^T / d + I."""
    A = rng.normal(size=(d, d))
    cov = A @ A.T / d + np.eye(d)
    return TargetMixture.gaussian(
        rng.dirichlet(np.ones(M)), rng.normal(scale=3.0, size=(M, d)), [cov] * M
    )


def takes_shared_path(mixture):
    return mixture._shared is not None


class TestSharedCovarianceEvaluator:
    @pytest.mark.parametrize("M", [1, 2, 8])
    @pytest.mark.parametrize("d", [1, 2, 32])
    def test_matches_per_component_reference(self, M, d):
        rng = np.random.default_rng(7000 + 100 * M + d)
        mixture = shared_covariance_mixture(rng, M, d)
        assert takes_shared_path(mixture)
        cov = mixture.components[0].cov
        assert d == 1 or np.all(cov[~np.eye(d, dtype=bool)] != 0)  # full, not diagonal
        x = rng.normal(scale=3.0, size=(500, d))
        ref_log, ref_grad = per_component_reference(mixture, x)
        np.testing.assert_allclose(eval_mixture_logdensity(mixture, x), ref_log,
                                   rtol=1e-12, atol=0.0)
        grad = mixture_grad_logdensity(mixture, x)
        assert grad.shape == (500, d)
        assert np.all(np.abs(grad - ref_grad) <= 1e-10 * np.maximum(1.0, np.abs(ref_grad)))

    @pytest.mark.parametrize("M", [1, 2, 8])
    @pytest.mark.parametrize("d", [1, 2, 8, 32])
    def test_block_rows_equal_lone_calls(self, M, d):
        rng = np.random.default_rng(300 * M + d)
        mixture = shared_covariance_mixture(rng, M, d)
        for n in (1, 2, 7, 512):
            for b in (2, 6, 16):
                x = rng.normal(scale=3.0, size=(b, n, d))
                log_density = eval_mixture_logdensity(mixture, x)
                grad = mixture_grad_logdensity(mixture, x)
                assert log_density.shape == (b, n) and grad.shape == (b, n, d)
                for row, lone_log, lone_grad in zip(x, log_density, grad):
                    assert eval_mixture_logdensity(mixture, row).tobytes() == lone_log.tobytes()
                    assert mixture_grad_logdensity(mixture, row).tobytes() == lone_grad.tobytes()

    def test_single_point_matches_batch(self):
        mixture = shared_covariance_mixture(np.random.default_rng(5), 3, 4)
        x = np.random.default_rng(6).normal(size=(5, 4))
        for point, log_density, grad in zip(x, eval_mixture_logdensity(mixture, x),
                                            mixture_grad_logdensity(mixture, x)):
            assert eval_mixture_logdensity(mixture, point) == pytest.approx(log_density,
                                                                            rel=1e-14)
            np.testing.assert_allclose(mixture_grad_logdensity(mixture, point), grad,
                                       rtol=1e-12, atol=1e-12)

    def test_far_points(self, bimodal_target):
        assert takes_shared_path(bimodal_target)
        # the quadratic overflows: every term is -inf, so the log-density is -inf, not NaN
        assert eval_mixture_logdensity(bimodal_target, np.array([1e200, 1e200])) == -np.inf
        assert np.all(np.isnan(mixture_grad_logdensity(bimodal_target,
                                                       np.array([1e200, 1e200]))))
        far = eval_mixture_logdensity(bimodal_target, np.array([[1e200, 1e200], [0.0, 0.0]]))
        assert far[0] == -np.inf and np.isfinite(far[1])
        # equidistant from both modes: the gradient is -(x - (1.2, 1.2))
        np.testing.assert_allclose(
            mixture_grad_logdensity(bimodal_target, np.array([1e3, -1e3])),
            [-998.8, 1001.2], rtol=1e-10,
        )

    def test_far_points_with_correlated_covariance(self):
        # x P has entries of both signs here, so x P * x overflows to +inf and -inf
        prec = np.array([[2.0, -1.9], [-1.9, 2.0]])
        mixture = TargetMixture.gaussian([0.4, 0.6], [[-1.0, 0.5], [2.0, 1.0]],
                                         [np.linalg.inv(prec)] * 2)
        assert takes_shared_path(mixture)
        x = np.array([[1e200, 5e199], [0.5, 0.5]])
        log_density = eval_mixture_logdensity(mixture, x)
        assert log_density[0] == -np.inf and np.isfinite(log_density[1])
        grad = mixture_grad_logdensity(mixture, x)
        assert not np.any(np.isfinite(grad[0])) and np.all(np.isfinite(grad[1]))

    def test_readme_target_and_convolution_levels_take_shared_path(self):
        readme = TargetMixture.gaussian([0.3, 0.7], [[-3.0, -3.0], [3.0, 3.0]],
                                        [np.eye(2), np.eye(2)])
        assert takes_shared_path(readme)
        ladder = sequences.build_gaussian_convolution(
            readme, sequences.geometric_schedule(10, 0.05, 2, sigma=3.0))
        mixtures = [lv.mixture for lv in ladder.levels if lv.mixture is not None]
        assert len(mixtures) == ladder.n_levels
        assert all(takes_shared_path(m) for m in mixtures)

    def test_covariances_differing_in_one_entry_take_per_component_path(self):
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        other = cov.copy()
        other[1, 1] = 1.5
        mixture = TargetMixture.gaussian([0.5, 0.5], [[0.0, 0.0], [1.0, 1.0]], [cov, other])
        assert not takes_shared_path(mixture)
        x = np.random.default_rng(2).normal(scale=2.0, size=(50, 2))
        ref_log, ref_grad = per_component_reference(mixture, x)
        np.testing.assert_allclose(eval_mixture_logdensity(mixture, x), ref_log, rtol=1e-12)
        np.testing.assert_allclose(mixture_grad_logdensity(mixture, x), ref_grad,
                                   rtol=1e-10, atol=1e-10)


class TestGradients:
    def test_mixture_gradient_matches_finite_differences(self, bimodal_target, rng):
        # central differences, relative to max(|fd|, 1) so flat regions do not blow up
        probes = rng.normal(scale=3.0, size=(100, 2))
        step = 1e-5
        shifts = step * np.eye(2)
        fd = np.stack([
            (eval_mixture_logdensity(bimodal_target, probes + e)
             - eval_mixture_logdensity(bimodal_target, probes - e)) / (2 * step)
            for e in shifts
        ], axis=-1)
        grad = mixture_grad_logdensity(bimodal_target, probes)
        assert np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1.0)) <= 1e-5


class TestEnsembles:
    def test_fresh_ensemble_lane_ids_are_identity(self):
        ens = ParticleEnsemble(np.zeros((4, 2)))
        assert np.array_equal(ens.lane_ids, np.arange(4))

    def test_lane_ids_must_match_size(self):
        with pytest.raises(ValueError, match="lane_ids"):
            ParticleEnsemble(np.zeros((4, 2)), lane_ids=np.arange(3))


class TestFiniteChain:
    def test_rejects_non_stochastic_rows(self):
        with pytest.raises(ValueError, match="rows must sum to 1"):
            FiniteChain(P=np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_rejects_non_stationary_pi(self):
        P = np.array([[0.9, 0.1], [0.5, 0.5]])
        with pytest.raises(ValueError, match="not stationary"):
            FiniteChain(P=P, pi=np.array([0.5, 0.5]))

    def test_computes_stationary_and_detects_reversibility(self):
        P = np.array([[0.9, 0.1], [0.5, 0.5]])
        chain = FiniteChain(P=P)
        np.testing.assert_allclose(chain.pi @ P, chain.pi, atol=1e-12)
        assert chain.reversible  # every 2-state chain is reversible

    def test_three_cycle_is_not_reversible(self):
        P = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        assert not FiniteChain(P=P).reversible

    def test_rejects_pi_of_another_size(self):
        with pytest.raises(ValueError, match=r"pi has shape \(2,\) for 3 states"):
            FiniteChain(P=np.full((3, 3), 1.0 / 3.0), pi=np.array([0.5, 0.5]))

    @pytest.mark.parametrize("pi", [[-1.0, 2.0], [0.0, 0.0], [-1e308, -1e308]],
                             ids=["negative", "zero_sum", "negative_sum_overflows"])
    def test_rejects_pi_it_cannot_normalize(self, pi):
        # [-1, 2] sums to 1 and is stationary for the identity: only its sign is
        # wrong; [-1e308, -1e308] keeps its sign when it is scaled to a finite sum
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any division
            with pytest.raises(ValueError, match="pi must have nonnegative entries and a "
                                                 "positive sum"):
                FiniteChain(P=np.eye(2), pi=pi)


    def test_pi_whose_sum_overflows_is_normalized(self):
        # [1e308, 1e308] sums past the float range: like a ``_cumulative`` row, it
        # is divided by its largest entry first, so it reads [0.5, 0.5], not zeros
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chain = FiniteChain(P=np.full((2, 2), 0.5), pi=[1e308, 1e308])
        assert chain.pi.tolist() == [0.5, 0.5]


class TestNormalized:
    """``_normalized`` turns masses into a probability vector for every caller."""

    @given(st.lists(st.floats(0.0, 1e300), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_is_the_plain_quotient_when_the_sum_is_finite(self, masses):
        p = np.array(masses)
        total = p.sum()
        assume(0.0 < total < np.inf)
        assert _normalized(p, "p").tobytes() == (p / total).tobytes()

    @given(st.lists(st.floats(1e307, 1.7e308), min_size=2, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_scales_a_sum_that_overflows(self, masses):
        p = np.array(masses)
        with np.errstate(over="ignore"):
            assume(np.isinf(p.sum()))
        scaled = p / p.max()
        assert _normalized(p, "p").tobytes() == (scaled / scaled.sum()).tobytes()

    @given(st.lists(st.floats(0.0, 1e300), min_size=1, max_size=8), st.integers(0, 7))
    @settings(max_examples=100, deadline=None)
    def test_nan_passes(self, masses, at):
        p = np.array(masses)
        p[at % p.size] = NAN
        assert np.isnan(_normalized(p, "p")).all()

    @pytest.mark.parametrize("p", [[-1.0, 2.0], [0.0, 0.0], [-0.0, 0.0], [-1e308, -1e308]])
    def test_refuses_a_negative_entry_or_a_zero_sum(self, p):
        with pytest.raises(ValueError, match="^masses must have nonnegative entries and a "
                                             "positive sum$"):
            _normalized(np.array(p), "masses")


class TestValidateLadder:
    """A ladder's ratios evaluated directly against their bounds."""

    def test_identical_levels_max_ratio_one(self, finite_ladder):
        _, pmf1, _ = finite_ladder
        from smcmix.kernels import glauber_transition_matrix

        chain = glauber_transition_matrix(pmf1, 2)
        ladder = sequences.build_finite_ladder([pmf1, pmf1], [None, chain])
        np.testing.assert_array_equal(ladder.levels[1].ratio_to_prev(np.arange(4)), np.ones(4))
        assert ladder.levels[1].ratio_bound == 1.0

    def test_convolution_ladder_within_paper_bound(self, rng):
        target = TargetMixture.gaussian([0.5, 0.5], [[-2.0, 0.0], [2.0, 0.0]],
                                        [np.eye(2), np.eye(2)])
        schedule = sequences.TemperingSchedule(betas=(0.25, 1.0), d=2, sigma=1.0)
        ladder = sequences.build_gaussian_convolution(target, schedule)
        probes = np.vstack([rng.normal(scale=4.0, size=(5000, 2)),
                            target.sample(rng, 5000)])
        noised = ladder.levels[1]  # the beta 0.25 -> 1.0 transition
        assert noised.ratio_bound == pytest.approx(4.0)
        assert np.max(noised.normalized_ratio(probes)) <= 4.0 * (1 + 1e-9)


class TestEffectiveSampleSize:
    def test_out_of_range_sums_give_the_normalized_ess(self):
        # (Σw)² overflows a Python float, and Σw² underflows to 0
        assert effective_sample_size(np.full(4, 1e154)) == 4.0
        assert effective_sample_size(np.full(4, 1e-170)) == 4.0
        w = np.array([1e-170, 3e-170, 0.0, 2e-170])
        assert effective_sample_size(w) == pytest.approx(36.0 / 14.0, rel=1e-15)
        # in a block, only such a row takes the normalized form
        rows = np.random.default_rng(3).random((3, 50))
        plain = [r.sum() ** 2 / np.sum(r * r) for r in rows]
        rows[1] *= 1e-165  # this row's Σw² underflows
        ess = effective_sample_size(rows)
        assert [ess[0], ess[2]] == [plain[0], plain[2]]
        assert ess[1] == pytest.approx(plain[1], rel=1e-12)


class TestGaussianComponent:
    def test_lambda_max_matches_eigendecomposition(self):
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        comp = GaussianComponent([0.0, 0.0], cov)
        assert comp.lambda_max == pytest.approx(np.linalg.eigvalsh(cov)[-1], abs=1e-10)

    def test_rejects_non_spd_covariance(self):
        with pytest.raises(ValueError, match="positive definite"):
            GaussianComponent([0.0, 0.0], np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("mean, cov", [([math.nan, 0.0], np.eye(2)),
                                           ([0.0, 0.0], np.diag([1.0, math.inf]))])
    def test_rejects_non_finite_entries(self, mean, cov):
        with pytest.raises(ValueError, match="mean and covariance must have finite entries"):
            GaussianComponent(mean, cov)

    def test_logpdf_matches_scalar_formula(self):
        comp = GaussianComponent([1.5], [[0.7]])
        x = 0.3
        assert comp.logpdf(np.array([x])) == pytest.approx(
            math.log(scalar_normal_pdf(x, 1.5, 0.7)), rel=1e-14
        )


@pytest.mark.parametrize("module", ["smcmix"] + [
    f"smcmix.{info.name}" for info in pkgutil.iter_modules(smcmix.__path__)])
def test_every_exported_name_resolves(module):
    # a stale export of a deleted name would only fail at `from ... import *`
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


def finite_mixture_with_weights(weights):
    mix = oracle.standard_glauber_mixture(2)
    return oracle.FiniteMixture(chain=mix.chain, components=mix.components, weights=weights)


def assumption_params(**overrides):
    return AssumptionParams(**{"n": 1, "M": 1, "w_star": 1.0, "gamma": 1.0,
                               "c_star_per_level": (1.0,), "f_sup_bound": 1.0,
                               "epsilon": 0.5, **overrides})


NAN = math.nan
# each range check with a NaN where its condition must hold
NAN_INPUTS = {
    "mixture_weights": (lambda: TargetMixture.gaussian([0.5, NAN], [[0.0], [1.0]],
                                                       [[[1.0]], [[1.0]]]), "positive"),
    "chain_entries": (lambda: FiniteChain(P=[[NAN, 1.0], [0.5, 0.5]], pi=[1 / 3, 2 / 3]),
                      "non-finite entries"),
    "chain_entries_inf": (lambda: FiniteChain(P=[[np.inf, 1.0], [0.5, 0.5]],
                                              pi=[1 / 3, 2 / 3]), "non-finite entries"),
    "chain_pi": (lambda: FiniteChain(P=np.full((2, 2), 0.5), pi=[NAN, 1.0]), "not stationary"),
    "level_time_budget": (lambda: Level(kernel=None, time_budget=NAN), "nonnegative"),
    "level_pmf": (lambda: Level(kernel=None, time_budget=1.0, pmf=[NAN, 1.0]),
                  "probability vector"),
    "kernel_step_size": (lambda: KernelSpec("langevin", step_size=NAN), "step_size"),
    "kernel_proposal_scale": (lambda: KernelSpec("metropolis_hastings", proposal_scale=NAN),
                              "proposal_scale"),
    "schedule_betas": (lambda: sequences.TemperingSchedule((NAN, 1.0), d=1), "positive"),
    "schedule_sigma": (lambda: sequences.TemperingSchedule((0.5, 1.0), d=1, sigma=NAN),
                       "sigma must be positive"),
    "ladder_pmf": (lambda: sequences.build_finite_ladder(
        [[0.5, 0.5], [NAN, 1.0]], [None, FiniteChain(P=np.full((2, 2), 0.5))]),
        "not stationary"),
    "finite_mixture_weights": (lambda: finite_mixture_with_weights([NAN, 0.5]),
                               "positive and sum to 1"),
    "assumption_gamma": (lambda: assumption_params(gamma=NAN), "gamma must be >= 1"),
    "assumption_c_star": (lambda: assumption_params(c_star_per_level=(NAN,)), "positive c_star"),
    "lsi_bound_c1": (lambda: bounds.lsi_convolution_bound(NAN, 1.0), "c1 must be positive"),
    "lsi_bound_c2": (lambda: bounds.lsi_convolution_bound(1.0, NAN), "c2 nonnegative"),
    "single_step_t": (lambda: bounds.single_step_constants(1.0, 1.0, NAN, [0.5, 0.5]),
                      "t must be positive"),
    "delta_recursion_beta": (lambda: bounds.delta_recursion(8, 0.1, NAN, 1.0),
                             "beta must be >= 1"),
    "delta_recursion_gamma": (lambda: bounds.delta_recursion(8, 0.1, 2.0, NAN),
                              "gamma must be >= 1"),
    "q_of_t_t": (lambda: bounds.q_of_t(2.0, 1.0, NAN), "t must be nonnegative"),
    "q_of_t_c_star": (lambda: bounds.q_of_t(2.0, NAN, 1.0), "c_star must be positive"),
    "bound_report_beta": (lambda: replace(bounds.prescribe_main(assumption_params()), beta=NAN),
                          "beta must exceed 1"),
    "convolution_sigma": (lambda: bounds.prescribe_convolution(assumption_params(), NAN,
                                                               [0.5, 1.0], 1),
                          "sigma must be nonnegative"),
    "ladder_gamma_bound": (lambda: Ladder(levels=(
        Level(kernel=None, time_budget=1.0, pmf=[0.5, 0.5]),), gamma_bound=NAN),
        "gamma bound must be >= 1"),
    "default_step_size": (lambda: kernels.default_step_size(NAN), "hessian bound"),
    "ula_time": (lambda: kernels.ula_evolve(np.negative, np.zeros((2, 1)), NAN, 0.1,
                                            np.random.default_rng(0)), "time must be nonnegative"),
    "poissonized_time": (lambda: kernels.poissonized_evolve(
        FiniteChain(P=np.full((2, 2), 0.5)), 0, NAN, np.random.default_rng(0)),
        "time must be nonnegative"),
    "glauber_pmf": (lambda: kernels.glauber_transition_matrix([NAN, 1.0, 1.0, 1.0], 2),
                    "strictly positive pmf"),
    "metropolis_pmf": (lambda: kernels.mh_transition_matrix([NAN, 1.0]),
                       "strictly positive pmf"),
    "semigroup_time": (lambda: oracle.semigroup(FiniteChain(P=np.full((2, 2), 0.5)), NAN),
                       "t must be nonnegative"),
}


@pytest.mark.parametrize("build, message", NAN_INPUTS.values(), ids=NAN_INPUTS.keys())
def test_range_checks_refuse_nan(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_level_refuses_a_pmf_that_is_not_a_vector():
    with pytest.raises(ValueError, match=r"level pmf has shape \(2, 1\): it must be a vector"):
        Level(kernel=None, time_budget=1.0, pmf=[[0.5], [0.5]])


def test_ladder_refuses_a_first_level_it_cannot_draw():
    # neither a pmf nor a mixture: no level-1 law, refused before any run
    with pytest.raises(ValueError, match="level 1 needs a pmf or a mixture"):
        Ladder(levels=(Level(kernel=None, time_budget=1.0),), gamma_bound=1.0)


def unit_ratio(x):
    return np.ones(np.shape(x)[:1])


class TestTimeBudgets:
    """A ladder refuses a budget no run can take; ``with_budgets`` sets them."""

    def finite_ladder(self, budget_1=0.0, budget_2=1.0):
        chain = FiniteChain(P=np.full((2, 2), 0.5))
        return Ladder(levels=(
            Level(kernel=None, time_budget=budget_1, pmf=[0.5, 0.5]),
            Level(kernel=None, time_budget=budget_2, pmf=[0.5, 0.5], chain=chain,
                  ratio_to_prev=unit_ratio)), gamma_bound=1.0)

    def test_refuses_a_level_past_the_step_limit(self):
        # a finite level smooths by t expected Poissonized jumps
        with pytest.raises(ValueError, match=r"time budget 1e\+19 at level 2 takes ~1e\+19 "
                                             r"kernel steps per particle, not below 2\^62"):
            self.finite_ladder(budget_2=1e19)

    def test_refuses_a_langevin_level_past_the_step_limit(self):
        mixture = TargetMixture.gaussian([1.0], [[0.0]], [[[1.0]]])
        first = Level(kernel=None, time_budget=0.0, mixture=mixture)
        second = Level(kernel=KernelSpec("langevin", step_size=1e-19), time_budget=1.0,
                       mixture=mixture, ratio_to_prev=unit_ratio)
        with pytest.raises(ValueError, match="at level 2 takes ~1e\\+19 kernel steps"):
            Ladder(levels=(first, second), gamma_bound=1.0)
        # time 0 takes no step at any step size
        assert Ladder(levels=(first, replace(second, time_budget=0.0)), gamma_bound=1.0)

    def test_first_level_is_not_checked(self):
        # level 1 is drawn, never smoothed
        assert self.finite_ladder(budget_1=1e300).levels[0].time_budget == 1e300

    def test_with_budgets_sets_one_or_one_per_level(self):
        ladder = self.finite_ladder()
        assert [lv.time_budget for lv in ladder.with_budgets(2).levels] == [2.0, 2.0]
        assert [lv.time_budget for lv in ladder.with_budgets([0, 3.5]).levels] == [0.0, 3.5]
        with pytest.raises(ValueError, match="not below 2\\^62"):
            ladder.with_budgets([0.0, 2.0 ** 62])

    def test_with_budgets_refuses_another_count(self):
        with pytest.raises(ValueError, match="expected 2 time budgets, got 3"):
            self.finite_ladder().with_budgets([1.0, 1.0, 1.0])
