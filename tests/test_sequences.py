"""Ladder builders and their analytic constants."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from smcmix import smc
from smcmix.core import (
    FiniteChain,
    Ladder,
    Level,
    TargetMixture,
    eval_mixture_logdensity,
    mixture_grad_logdensity,
)
from smcmix.gaussians import GaussianComponent, power_normalizer
from smcmix.kernels import KernelSpec
from smcmix.sequences import (
    TemperingSchedule,
    build_finite_ladder,
    build_gaussian_convolution,
    build_power_tempering,
    geometric_schedule,
    init_sampler,
    level_grad_log_density,
    level_log_density,
    lsi_convolution_bound,
    power_tempering_gamma,
    tempered_component_lsi,
    tempered_weight_lower_bound,
)


def equal_cov_target(weights=(0.5, 0.5), means=((-2.0, 0.0), (2.0, 0.0)), d=2):
    return TargetMixture.gaussian(weights, means, [np.eye(d)] * len(weights))


class TestSchedules:
    def test_geometric_ratio_constant(self):
        sched = geometric_schedule(6, 0.05, d=2)
        ratios = [b2 / b1 for b1, b2 in zip(sched.betas, sched.betas[1:])]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)
        assert sched.betas[-1] == pytest.approx(1.0)

    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            TemperingSchedule(betas=(0.5, 0.5, 1.0), d=1)


class TestPowerTempering:
    def test_single_level_is_the_target(self, bimodal_target):
        ladder = build_power_tempering(
            bimodal_target, TemperingSchedule(betas=(1.0,), d=2)
        )
        assert ladder.n_levels == 1
        x = np.array([[0.5, -0.2], [3.0, 3.0]])
        np.testing.assert_allclose(
            level_log_density(ladder.levels[0], x),
            eval_mixture_logdensity(bimodal_target, x),
            rtol=1e-14,
        )

    def test_ratio_is_target_power(self, bimodal_target, rng):
        ladder = build_power_tempering(
            bimodal_target, TemperingSchedule(betas=(0.25, 0.75, 1.0), d=2)
        )
        x = rng.normal(size=(20, 2))
        dbeta = 0.75 - 0.25
        expected = np.exp(dbeta * np.asarray(eval_mixture_logdensity(bimodal_target, x)))
        np.testing.assert_allclose(ladder.levels[1].ratio_to_prev(x), expected, rtol=1e-13)

    def test_level_density_scalar_hand_evaluation(self):
        target = equal_cov_target(means=((0.0, 0.0), (4.0, 4.0)))
        ladder = build_power_tempering(target, TemperingSchedule(betas=(0.5, 1.0), d=2))
        center = np.array([0.0, 0.0])
        q = lambda m: math.exp(-0.5 * float((center - m) @ (center - m))) / (2 * math.pi)
        expected = 0.5 * math.log(0.5 * q(np.zeros(2)) + 0.5 * q(np.full(2, 4.0)))
        got = float(level_log_density(ladder.levels[0], center[None, :])[0])
        assert got == pytest.approx(expected, rel=1e-13)

    def test_level_gradient_is_beta_times_target_gradient(self, bimodal_target, rng):
        ladder = build_power_tempering(bimodal_target, geometric_schedule(3, 0.25, d=2))
        x = rng.normal(scale=3.0, size=(2, 50, 2))
        for level in ladder.levels:
            want = level.beta * mixture_grad_logdensity(bimodal_target, x)
            assert level_grad_log_density(level, x).tobytes() == want.tobytes()

    def test_final_level_equals_target_pointwise(self, bimodal_target, rng):
        ladder = build_power_tempering(bimodal_target, geometric_schedule(5, 0.1, d=2))
        x = rng.normal(scale=3.0, size=(100, 2))
        np.testing.assert_allclose(
            level_log_density(ladder.levels[-1], x),
            eval_mixture_logdensity(bimodal_target, x),
            rtol=1e-13,
        )

    def test_non_gaussian_target_rejected(self):
        # no non-Gaussian target reaches a builder: the mixture refuses it when built
        def log_density(x):
            return np.zeros(len(x))

        with pytest.raises(TypeError, match="GaussianComponent"):
            TargetMixture(components=(log_density,), weights=np.array([1.0]))

    def test_warning_surfaced_once_per_build(self, bimodal_target):
        with pytest.warns(RuntimeWarning, match="plain closed form"):
            build_power_tempering(bimodal_target, TemperingSchedule(betas=(0.5, 1.0), d=2))

    def test_warning_names_the_config_key_and_the_keyword(self, bimodal_target):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            build_power_tempering(bimodal_target, TemperingSchedule(betas=(0.5, 1.0), d=2))
        (message,) = [str(w.message) for w in caught]
        # the prefix is what the pytest filterwarnings entry matches
        assert message.startswith("power-tempering ratio bound")
        assert "ladder.conservative_gamma" in message
        assert "conservative_gamma=True" in message

    def test_normalized_ratio_is_rescaled_raw_ratio(self, rng):
        # single Gaussian: both ratios exist, linked by the normalizer ratio
        target = TargetMixture.gaussian([1.0], [[0.5, -0.5]], [1.3 * np.eye(2)])
        ladder = build_power_tempering(target, TemperingSchedule(betas=(0.4, 1.0), d=2))
        comp = target.components[0]
        z_shift = math.exp(power_normalizer(comp, 0.4) - power_normalizer(comp, 1.0))
        probes = rng.normal(scale=2.0, size=(200, 2))
        level = ladder.levels[1]
        np.testing.assert_allclose(
            level.normalized_ratio(probes),
            level.ratio_to_prev(probes) * z_shift,
            rtol=1e-10,
        )


    @pytest.mark.parametrize("covs", [
        [np.eye(2), np.eye(2)],
        [np.diag([0.5, 3.0]), np.array([[2.0, 0.6], [0.6, 1.0]])],
    ])
    def test_level_lsi_is_largest_component_lsi(self, covs):
        target = TargetMixture.gaussian([0.3, 0.7], [[-2.0, 0.0], [2.0, 1.0]], covs)
        ladder = build_power_tempering(target, geometric_schedule(5, 0.07, d=2))
        for level, beta in zip(ladder.levels, geometric_schedule(5, 0.07, d=2).betas):
            assert level.lsi_constant_bound == max(
                tempered_component_lsi(target, i, beta) for i in range(2)
            )

    def test_last_beta_within_tolerance_of_one_builds(self, bimodal_target):
        schedule = TemperingSchedule((0.5, 1.0 + 1e-13), d=2)
        ladder = build_power_tempering(bimodal_target, schedule)
        assert ladder.levels[-1].lsi_constant_bound == pytest.approx(1.0 / 0.3)
        with pytest.raises(ValueError, match="positive"):
            tempered_component_lsi(bimodal_target, 0, 0.0)


class TestPowerTemperingGamma:
    def test_limit_is_inverse_min_weight(self):
        target = equal_cov_target()
        got = power_tempering_gamma(target, 1.0, 1.0 - 1e-9)
        assert got == pytest.approx(2.0, rel=1e-6)

    def test_paper_value_ratio_two_d_two(self):
        target = equal_cov_target()
        assert power_tempering_gamma(target, 1.0, 0.5) == pytest.approx(4.0, rel=1e-12)

    def test_plug_in_value_d4(self):
        target = TargetMixture.gaussian(
            [0.25, 0.75], [[0.0] * 4, [2.0] * 4], [np.eye(4)] * 2
        )
        got = power_tempering_gamma(target, 0.75, 0.5)
        assert got == pytest.approx(4.0 * 1.5 ** 2, rel=1e-12)

    def test_conservative_mode_adds_2pi_factor(self):
        target = equal_cov_target()
        plain = power_tempering_gamma(target, 1.0, 0.5)
        inflated = power_tempering_gamma(target, 1.0, 0.5, conservative=True)
        assert inflated == pytest.approx(plain * (2 * math.pi) ** (2 * 0.5 / 2), rel=1e-12)

    def test_covariance_spread_enters(self):
        target = TargetMixture.gaussian(
            [0.5, 0.5], [[0.0], [3.0]], [[[1.0]], [[4.0]]]
        )
        got = power_tempering_gamma(target, 1.0, 0.5)
        assert got == pytest.approx(2.0 * 2.0 ** 0.5 * 4.0 ** 0.25, rel=1e-12)

    def test_bound_beyond_float_range_is_inf_without_warning(self):
        target = equal_cov_target(means=((-2.0,) * 10, (2.0,) * 10), d=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert power_tempering_gamma(target, 1.0, 1e-300) == math.inf


class TestTemperedConstants:
    def test_lsi_single_standard_component(self):
        target = TargetMixture.gaussian([1.0], [[0.0]], [[[1.0]]])
        assert tempered_component_lsi(target, 0, 1.0) == pytest.approx(1.0)

    def test_lsi_paper_formula(self):
        target = equal_cov_target()
        assert tempered_component_lsi(target, 0, 1.0) == pytest.approx(2.0)

    def test_lsi_plug_in(self):
        target = TargetMixture.gaussian(
            [0.25, 0.75], [[0.0, 0.0], [2.0, 2.0]], [2.0 * np.eye(2), np.eye(2)]
        )
        assert tempered_component_lsi(target, 0, 0.5) == pytest.approx(16.0)

    def test_weight_lower_bound_values(self):
        assert tempered_weight_lower_bound(
            equal_cov_target(weights=(0.3, 0.7))
        ) == pytest.approx(0.09)
        assert tempered_weight_lower_bound(equal_cov_target()) == pytest.approx(0.25)
        target3 = TargetMixture.gaussian(
            [0.1, 0.2, 0.7], [[0.0], [1.0], [2.0]], [[[1.0]]] * 3
        )
        assert tempered_weight_lower_bound(target3) == pytest.approx(0.01)

    def test_weight_bound_unequal_covs_cross_checked_by_quadrature(self):
        target = TargetMixture.gaussian([0.4, 0.6], [[0.0], [3.0]], [[[1.0]], [[4.0]]])
        beta = 0.5
        got = tempered_weight_lower_bound(target, betas=[beta])
        q = [stats.norm(0.0, 1.0), stats.norm(3.0, 2.0)]
        ints = [
            integrate.quad(lambda x, qi=qi: qi.pdf(x) ** beta, -60, 60)[0] for qi in q
        ]
        expected = min(ints) / (0.4 * ints[0] + 0.6 * ints[1]) * 0.4 ** 2
        assert got == pytest.approx(expected, rel=1e-8)

    def test_weight_bound_below_exact_level_weights(self):
        # 1-d equal-covariance two-mode target; exact tempered weights by quadrature
        alphas = np.array([0.3, 0.7])
        means = [-3.0, 3.0]
        target = TargetMixture.gaussian(alphas, [[m] for m in means], [[[1.0]]] * 2)
        bound = tempered_weight_lower_bound(target)
        q = [stats.norm(m, 1.0) for m in means]

        def component_masses(beta):
            def tilde_pi(x):
                return (alphas[0] * q[0].pdf(x) + alphas[1] * q[1].pdf(x)) ** beta

            def mix_pow(x):
                return alphas[0] * q[0].pdf(x) ** beta + alphas[1] * q[1].pdf(x) ** beta

            masses = []
            for k in range(2):
                nu_k = lambda x: tilde_pi(x) / mix_pow(x) * q[k].pdf(x) ** beta
                masses.append(alphas[k] * integrate.quad(nu_k, -40, 40)[0])
            total = sum(masses)
            return [m / total for m in masses]

        for beta in (0.25, 0.5, 1.0):
            for w in component_masses(beta):
                assert bound <= w + 1e-9

    def test_weight_bound_needs_betas_for_covariances_1e13_apart(self):
        # the closed form alpha^2 holds only for one shared covariance
        covs = [np.eye(2), np.eye(2) + 1e-13 * np.eye(2)]
        target = TargetMixture.gaussian([0.5, 0.5], [[-2.0, 0.0], [2.0, 0.0]], covs)
        with pytest.raises(ValueError, match="a beta schedule is required"):
            tempered_weight_lower_bound(target)
        assert tempered_weight_lower_bound(target, betas=[0.5, 1.0]) < 0.25

    def test_lsi_convolution_bound(self):
        assert lsi_convolution_bound(1.0, 1e-12) == pytest.approx(1.0)
        assert lsi_convolution_bound(1.0, 2.0) == 3.0
        assert lsi_convolution_bound(1.7, 0.0) == 1.7  # no noise: the un-noised level
        for c1, c2 in ((1.0, -1e-12), (0.0, 1.0), (-1.0, 1.0)):
            with pytest.raises(ValueError, match="c1 must be positive"):
                lsi_convolution_bound(c1, c2)


class TestGaussianConvolution:
    def test_near_equal_betas_give_unit_ratio(self):
        target = TargetMixture.gaussian([1.0], [[0.0]], [[[1.0]]])
        sched = TemperingSchedule(betas=(1.0, 1.0 + 1e-12), d=1, sigma=1.0)
        ladder = build_gaussian_convolution(target, sched)
        assert ladder.levels[1].ratio_bound == pytest.approx(1.0, abs=1e-11)

    def test_paper_ratio_bound_d2(self):
        target = equal_cov_target()
        sched = TemperingSchedule(betas=(0.25, 1.0), d=2, sigma=1.0)
        ladder = build_gaussian_convolution(target, sched)
        assert ladder.levels[1].ratio_bound == pytest.approx(4.0)

    def test_variance_additivity(self):
        target = TargetMixture.gaussian([1.0], [[0.0]], [[[1.0]]])
        sched = TemperingSchedule(betas=(1.0,), d=1, sigma=1.0)
        ladder = build_gaussian_convolution(target, sched)
        level_cov = ladder.levels[0].mixture.components[0].cov
        assert level_cov[0, 0] == pytest.approx(2.0)

    def test_weights_preserved_exactly(self, bimodal_target):
        sched = TemperingSchedule(betas=(0.2, 0.5, 1.0), d=2, sigma=1.5)
        ladder = build_gaussian_convolution(bimodal_target, sched)
        for level in ladder.levels:
            np.testing.assert_array_equal(level.mixture.weights, bimodal_target.weights)

    def test_level_lsi_is_component_plus_noise(self, bimodal_target):
        sched = TemperingSchedule(betas=(0.5, 1.0), d=2, sigma=2.0)
        ladder = build_gaussian_convolution(bimodal_target, sched)
        assert ladder.levels[0].lsi_constant_bound == pytest.approx(1.0 + 4.0 / 0.5)
        assert ladder.levels[-1].lsi_constant_bound == pytest.approx(1.0)
        base = max(g.lambda_max for g in bimodal_target.components)
        noises = [4.0 / 0.5, 4.0 / 1.0, 0.0]
        for level, noise in zip(ladder.levels, noises, strict=True):
            assert level.lsi_constant_bound == lsi_convolution_bound(base, noise)

    def test_empirical_ratio_never_exceeds_bound(self, bimodal_target, rng):
        sched = TemperingSchedule(betas=(0.25, 0.5, 1.0), d=2, sigma=1.0)
        ladder = build_gaussian_convolution(bimodal_target, sched)
        probes = np.vstack(
            [rng.normal(scale=5.0, size=(5000, 2)), bimodal_target.sample(rng, 5000)]
        )
        for level in ladder.levels[1:]:
            ratios = level.normalized_ratio(probes)
            assert np.max(ratios) <= level.ratio_bound * (1 + 1e-9)

    def test_denoising_bound_beyond_float_range_is_inf_without_warning(self):
        # d = 160, noise 1e5: the bound (1 + 1e5)^80 is beyond the float range
        d = 160
        target = TargetMixture.gaussian([1.0], [[0.0] * d], [np.eye(d)])
        sched = TemperingSchedule(betas=(1e-5,), d=d, sigma=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ladder = build_gaussian_convolution(target, sched)
        assert ladder.levels[1].ratio_bound == ladder.gamma_bound == math.inf

    def test_requires_sigma(self, bimodal_target):
        with pytest.raises(ValueError, match="sigma"):
            build_gaussian_convolution(bimodal_target, TemperingSchedule(betas=(1.0,), d=2))


class TestInitSampler:
    def test_finite_draw_matches_generator_choice(self):
        # the level's cached cdf gives the draws and generator state of rng.choice
        rng = np.random.default_rng(12)
        for i in range(50):
            size = int(rng.integers(1, 1025))
            pmf = rng.random(size) ** 3
            pmf[rng.random(size) < 0.2] = 0.0
            pmf[rng.integers(size)] += 0.5
            pmf /= pmf.sum()
            ladder = build_finite_ladder([pmf], [None])
            n = int(rng.integers(1, 600))
            a, b = np.random.default_rng(i), np.random.default_rng(i)
            states = init_sampler(ladder, n, a).particles
            want = b.choice(size, size=n, p=ladder.levels[0].pmf)
            assert states.dtype == np.int64
            assert states.tobytes() == want.tobytes()
            assert a.random() == b.random()

    def test_gaussian_level_samples_directly(self):
        target = TargetMixture.gaussian([1.0], [[2.0]], [[[1.5]]])
        ladder = build_power_tempering(target, TemperingSchedule(betas=(0.5, 1.0), d=1))
        ens = init_sampler(ladder, 4000, np.random.default_rng(3))
        assert ens.init_acceptance_rate == 1.0
        # tempered single Gaussian: N(2, 1.5/0.5)
        assert ens.particles.mean() == pytest.approx(2.0, abs=4 * math.sqrt(3.0 / 4000))

    def test_one_component_level_draw_is_the_tempered_gaussian(self):
        # level 1 of a one-component ladder is exactly N(m, Σ/β): bitwise its draws
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        target = TargetMixture.gaussian([1.0], [[1.0, -2.0]], [cov])
        ladder = build_power_tempering(target, geometric_schedule(3, 0.2, 2))
        beta = ladder.levels[0].beta
        assert beta == pytest.approx(0.2)
        ens = init_sampler(ladder, 300, np.random.default_rng(11))
        want = GaussianComponent([1.0, -2.0], cov / beta).sample(np.random.default_rng(11), 300)
        assert ens.log_weights is None and ens.particles.tobytes() == want.tobytes()

    def test_proposal_has_the_tempered_mixture_moments(self):
        # law of total variance: Σ w_i (Σ_i/β + m_i m_iᵀ) - m mᵀ with m = Σ w_i m_i
        w = np.array([0.2, 0.5, 0.3])
        means = np.array([[-3.0, 1.0], [0.5, 2.0], [4.0, -1.0]])
        covs = np.array([[[1.0, 0.2], [0.2, 0.5]], [[2.0, -0.4], [-0.4, 1.5]], 0.3 * np.eye(2)])
        target = TargetMixture.gaussian(w, means, covs)
        ladder = build_power_tempering(target, geometric_schedule(4, 0.25, 2))
        proposal = ladder.levels[0].init_proposal
        m = np.einsum("i,id->d", w, means)
        second = np.einsum("i,ide->de", w, covs / 0.25 + np.einsum("id,ie->ide", means, means))
        np.testing.assert_allclose(proposal.mean, m, rtol=0, atol=1e-14)
        np.testing.assert_allclose(proposal.cov, second - np.outer(m, m), rtol=0, atol=1e-12)

    def test_hand_built_tempered_level_runs_like_the_builders(self):
        # level 1 is its mixture and beta alone: it derives the same proposal
        target = TargetMixture.gaussian([0.3, 0.7], [[-3.0, -1.0], [2.0, 1.0]],
                                        [np.diag([1.0, 0.5]), np.eye(2)])
        ladder = build_power_tempering(target, geometric_schedule(4, 0.1, 2),
                                       kernel=KernelSpec("langevin", step_size=0.05))
        first = ladder.levels[0]
        hand = Level(kernel=first.kernel, time_budget=first.time_budget, mixture=target,
                     beta=first.beta)
        rebuilt = Ladder(levels=(hand,) + ladder.levels[1:], gamma_bound=ladder.gamma_bound)

        def run(lad):
            return smc.run_smc(smc.SmcConfig(ladder=lad, n_particles=300, master_seed=5,
                                             estimand=lambda x: (x[..., 0] > 0).astype(float)))

        a, b = run(ladder), run(rebuilt)
        assert b.init_acceptance_rate < 1.0  # drawn from the proposal, weighted
        assert (a.to_dict(), a.final_ensemble.particles.tobytes()) \
            == (b.to_dict(), b.final_ensemble.particles.tobytes())

    def test_proposal_is_derived_only_for_tempered_mixtures(self, bimodal_target):
        assert "init_proposal" not in {f.name for f in dataclasses.fields(Level)}
        one = TargetMixture.gaussian([1.0], [[0.0, 0.0]], [np.eye(2)])
        schedule = geometric_schedule(3, 0.2, 2)
        firsts = [
            build_gaussian_convolution(bimodal_target, geometric_schedule(3, 0.2, 2, sigma=2.0)),
            build_power_tempering(one, schedule),
            build_finite_ladder([[0.5, 0.5]], [None]),
        ]
        assert [lad.levels[0].init_proposal for lad in firsts] == [None] * 3
        tempered = build_power_tempering(bimodal_target, schedule).levels[0]
        assert isinstance(tempered.init_proposal, GaussianComponent)

    def test_tempered_mixture_weighted_moments_match_quadrature(self):
        target = TargetMixture.gaussian(
            [0.5, 0.5], [[-3.0], [3.0]], [[[1.0]], [[1.0]]]
        )
        ladder = build_power_tempering(target, TemperingSchedule(betas=(0.1, 1.0), d=1))
        ens = init_sampler(ladder, 6000, np.random.default_rng(4))

        def level1(x):
            return math.exp(0.1 * eval_mixture_logdensity(target, np.array([x])))

        z = integrate.quad(level1, -np.inf, np.inf)[0]
        exact = integrate.quad(lambda x: x * x * level1(x), -np.inf, np.inf)[0] / z
        w = np.exp(ens.log_weights - ens.log_weights.max())
        x2 = ens.particles[:, 0] ** 2
        estimate = np.sum(w * x2) / w.sum()
        se = math.sqrt(np.sum(w ** 2 * (x2 - estimate) ** 2)) / w.sum()
        assert abs(estimate - exact) <= 4 * se

    def test_acceptance_rate_is_weight_ess(self, bimodal_target):
        def first_level(betas):
            ladder = build_power_tempering(bimodal_target, TemperingSchedule(betas=betas, d=2))
            return init_sampler(ladder, 500, np.random.default_rng(7))

        ens = first_level((0.1, 1.0))
        w = np.exp(ens.log_weights - ens.log_weights.max())
        assert ens.init_acceptance_rate == pytest.approx(w.sum() ** 2 / np.sum(w * w) / 500)
        assert 0 < ens.init_acceptance_rate < 1
        exact = first_level((1.0,))  # the mixture itself: exact draw, no weights
        assert exact.init_acceptance_rate == 1.0 and exact.log_weights is None

    def test_convolution_warm_level_is_near_gaussian(self):
        target = TargetMixture.gaussian([0.4, 0.6], [[-1.0], [1.5]], [[[1.0]], [[0.5]]])
        sched = TemperingSchedule(betas=(1e-3, 1.0), d=1, sigma=1.0)
        ladder = build_gaussian_convolution(target, sched)
        rng = np.random.default_rng(5)
        ens = init_sampler(ladder, 4000, rng)
        reference = rng.normal(scale=math.sqrt(1.0 / 1e-3), size=4000)
        assert stats.ks_2samp(ens.particles[:, 0], reference).pvalue > 0.01


def narrow_target():
    """Two modes of covariance 0.01 I: the target's own level takes the step
    0.0005, a hundredth of a fixed h = 0.05."""
    return TargetMixture.gaussian([0.3, 0.7], [[-0.3, -0.3], [0.3, 0.3]],
                                  [0.01 * np.eye(2)] * 2)


def build_narrow(kind, kernel):
    target = narrow_target()
    if kind == "tempering":
        return build_power_tempering(target, geometric_schedule(5, 0.2, 2), kernel=kernel)
    return build_gaussian_convolution(target, geometric_schedule(4, 0.2, 2, sigma=1.0),
                                      kernel=kernel)


class TestLevelKernels:
    @pytest.mark.parametrize("kind", ["tempering", "convolution"])
    def test_langevin_without_step_takes_the_level_defaults(self, kind):
        default = build_narrow(kind, None)
        given = build_narrow(kind, KernelSpec(kind="langevin"))
        assert [lv.kernel for lv in given.levels] == [lv.kernel for lv in default.levels]
        assert given.levels[-1].kernel.step_size == pytest.approx(0.0005)  # 0.05 * 0.01

    def test_stepless_langevin_tempering_run_finishes(self):
        # a fixed h = 0.05 stops this run with degenerate weights at level 5
        ladder = build_narrow("tempering", KernelSpec(kind="langevin"))
        config = smc.SmcConfig(ladder=ladder, n_particles=64, master_seed=1,
                               estimand=lambda x: (x[:, 0] > 0).astype(float))
        result = smc.run_smc(config)
        assert len(result.ess_per_level) == 4
        assert 0 < result.eta_estimate < 1

    @pytest.mark.parametrize("kind", ["tempering", "convolution"])
    def test_explicit_langevin_step_holds_on_every_level(self, kind):
        spec = KernelSpec(kind="langevin", step_size=0.02)
        assert all(lv.kernel is spec for lv in build_narrow(kind, spec).levels)

    @pytest.mark.parametrize("kind", ["tempering", "convolution"])
    def test_metropolis_spec_passes_through(self, kind):
        spec = KernelSpec(kind="metropolis_hastings", proposal_scale=0.3)
        assert spec.step_size is None
        assert all(lv.kernel is spec for lv in build_narrow(kind, spec).levels)

    def test_level_refuses_langevin_without_step(self):
        with pytest.raises(ValueError, match="Langevin level needs a step size"):
            Level(kernel=KernelSpec(kind="langevin"), time_budget=1.0)


class TestFiniteLadder:
    def test_level_without_chain_refused_at_build(self, finite_ladder):
        _, pmf1, pmf2 = finite_ladder
        with pytest.raises(ValueError, match="level 2 needs a chain"):
            build_finite_ladder([pmf1, pmf2], [None, None])

    def test_ratio_table_is_zero_outside_previous_support(self):
        # shrinking supports are absolutely continuous; the ratio bound is the
        # table's largest entry
        pmfs = [np.full(4, 0.25), np.array([0.5, 0.0, 0.25, 0.25]), np.array([0.8, 0, 0.2, 0])]
        chains = [None] + [FiniteChain(P=np.tile(p, (4, 1)), pi=p) for p in pmfs[1:]]
        ladder = build_finite_ladder(pmfs, chains)
        states = np.arange(4)
        np.testing.assert_array_equal(ladder.levels[1].ratio_to_prev(states), [2.0, 0, 1.0, 1.0])
        np.testing.assert_array_equal(ladder.levels[2].ratio_to_prev(states), [1.6, 0, 0.8, 0])
        assert [lv.ratio_bound for lv in ladder.levels[1:]] == [2.0, 1.6]
        assert ladder.gamma_bound == 2.0

    def test_pmfs_of_different_sizes_refused_by_name(self):
        pmf3 = np.full(3, 1.0 / 3.0)
        chain3 = FiniteChain(P=np.full((3, 3), 1.0 / 3.0), pi=pmf3)
        with pytest.raises(ValueError, match="level 2 has a pmf of 3 states, level 1 one of 2"):
            build_finite_ladder([[0.5, 0.5], pmf3], [None, chain3])

    def test_chain_of_another_size_than_its_pmf_refused(self):
        chain3 = FiniteChain(P=np.full((3, 3), 1.0 / 3.0))
        with pytest.raises(ValueError, match="chain at level 2 is not stationary for its pmf"):
            build_finite_ladder([[0.5, 0.5], [0.5, 0.5]], [None, chain3])

    @pytest.mark.parametrize("pmf", [[-1.0, -1.0], [-1.0, 0.0], [0.0, 0.0]])
    def test_pmf_it_cannot_normalize_refused_by_level(self, pmf):
        # [-1, -1] would divide to [0.5, 0.5] and [-1, 0] to [1, -0]
        with pytest.raises(ValueError, match="^level 1 pmf must have nonnegative entries "
                                             "and a positive sum$"):
            build_finite_ladder([pmf], [None])

    def test_levels_smooth_by_their_chain(self, finite_ladder):
        # the chain is the kernel: a finite level carries no KernelSpec
        ladder, _, _ = finite_ladder
        assert [lv.kernel for lv in ladder.levels] == [None, None]
        assert ladder.levels[0].chain is None and ladder.levels[1].chain is not None


class TestTimeBudgets:
    """A builder's budget that no run can take is refused when it builds."""

    @pytest.mark.parametrize("build", [
        lambda: build_power_tempering(equal_cov_target(), TemperingSchedule((0.5, 1.0), d=2),
                                      time_budget=math.inf),
        lambda: build_gaussian_convolution(
            equal_cov_target(), TemperingSchedule((0.5,), d=2, sigma=1.0), time_budget=math.inf),
        lambda: build_finite_ladder(
            [[0.5, 0.5], [0.5, 0.5]], [None, FiniteChain(P=np.full((2, 2), 0.5))],
            time_budget=1e19),
    ], ids=["tempering", "convolution", "finite"])
    def test_budget_past_the_step_limit_is_refused_naming_level_two(self, build):
        with pytest.raises(ValueError, match="at level 2 takes .* not below 2\\^62"):
            build()


class TestPowerNormalizer:
    def test_matches_quadrature(self):
        comp = GaussianComponent([1.0], [[2.5]])
        for beta in (0.3, 0.7, 1.0):
            expected = integrate.quad(
                lambda x: math.exp(beta * comp.logpdf(np.array([x]))), -60, 60
            )[0]
            assert power_normalizer(comp, beta) == pytest.approx(
                math.log(expected), rel=1e-10
            )
