"""The sampler: resampling law, determinism, estimators, and their statistics."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from smcmix import kernels, sequences, smc
from smcmix.core import (
    DegenerateWeightsError,
    FiniteChain,
    ParticleEnsemble,
    TargetMixture,
    effective_sample_size,
)
from smcmix.kernels import KernelSpec, glauber_transition_matrix
from smcmix.oracle import product_pmf, semigroup
from smcmix.smc import (
    SmcConfig,
    multinomial_resample,
    replicate_seed,
    run_replicates,
    run_smc,
    summarize_etas,
)
from tests.conftest import two_level_finite_ladder


def indicator_state0(x):
    return (np.asarray(x) == 0).astype(float)


def finite_config(ladder, n_particles=64, seed=7, f=indicator_state0):
    return SmcConfig(ladder=ladder, n_particles=n_particles, master_seed=seed, estimand=f)


class TestMultinomialResample:
    def test_point_mass(self, rng):
        np.testing.assert_array_equal(
            multinomial_resample([1.0, 0.0, 0.0], 5, rng), np.zeros(5, dtype=np.int64)
        )

    def test_uniform_chi_square(self, rng):
        draws = multinomial_resample(np.ones(5), 100_000, rng)
        counts = np.bincount(draws, minlength=5)
        assert stats.chisquare(counts).pvalue > 0.01

    def test_one_three_weights_frequency(self, rng):
        n = 100_000
        draws = multinomial_resample([1.0, 3.0], n, rng)
        freq = draws.mean()  # frequency of index 1
        se = math.sqrt(0.75 * 0.25 / n)
        assert abs(freq - 0.75) <= 3 * se

    @pytest.mark.parametrize(
        "weights", [[0.0, 0.0], [1.0, -0.5], [np.nan, 1.0], [np.inf, 1.0], [],
                    np.array(1.0), np.ones((1, 2, 2))]
    )
    def test_degenerate_weights_rejected(self, weights, rng):
        with pytest.raises(DegenerateWeightsError, match="degenerate weights"):
            multinomial_resample(weights, 3, rng)

    @pytest.mark.parametrize("n_rngs", [1, 2, 4])
    def test_block_needs_a_generator_per_row(self, n_rngs):
        gens = [np.random.default_rng(b) for b in range(n_rngs)]
        with pytest.raises(ValueError, match=f"a block of 3 rows needs 3 generators, got {n_rngs}"):
            multinomial_resample(np.ones((3, 4)), 5, gens)


class TestDeterminism:
    def test_identical_config_bit_identical_result(self, finite_ladder):
        ladder, _, _ = finite_ladder
        config = finite_config(ladder)
        a, b = run_smc(config), run_smc(config)
        assert a.eta_estimate == b.eta_estimate
        assert a.nu_estimate == b.nu_estimate
        assert a.ess_per_level == b.ess_per_level
        assert a.weight_sums_per_level == b.weight_sums_per_level
        np.testing.assert_array_equal(
            a.final_ensemble.particles, b.final_ensemble.particles
        )

    def test_different_seeds_differ(self, finite_ladder):
        ladder, _, _ = finite_ladder
        a = run_smc(finite_config(ladder, seed=1))
        b = run_smc(finite_config(ladder, seed=2))
        assert not np.array_equal(a.final_ensemble.particles, b.final_ensemble.particles)

    def test_replicate_seeds_are_stable(self):
        assert replicate_seed(123, 0) == replicate_seed(123, 0)
        assert replicate_seed(123, 0) != replicate_seed(123, 1)
        assert replicate_seed(123, 5) != replicate_seed(124, 5)


# one to five 32-bit words: the seeds at each word boundary, and 2^130 + 1
# takes the entropy past the four-word pool
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1, 2**64 + 5, 2**130 + 1]


class TestSeeding:
    """The block seeding against its reference, numpy's ``SeedSequence``."""

    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("n_levels", [1, 2, 3, 10])
    def test_block_streams_are_the_seed_sequence_children(self, n_levels):
        seeds = EDGE_SEEDS + np.random.default_rng(20261019).integers(0, 2**63, 20).tolist()
        streams = smc._streams(seeds, n_levels)
        assert len(streams) == len(seeds)
        for seed, gens in zip(seeds, streams):
            children = np.random.SeedSequence(seed).spawn(2 * n_levels - 1)
            assert len(gens) == len(children)
            for gen, child in zip(gens, children):
                ref = np.random.default_rng(child)
                assert gen.bit_generator.state == ref.bit_generator.state
                np.testing.assert_array_equal(gen.random(4), ref.random(4))
                np.testing.assert_array_equal(gen.standard_normal(3), ref.standard_normal(3))

    @pytest.mark.parametrize("master", [0, 2**32, 2**64 - 1, 2**70])
    def test_replicate_seeds_are_seed_sequence_states(self, master):
        expected = [int(np.random.SeedSequence((master, i)).generate_state(1, np.uint64)[0])
                    for i in range(1000)]
        got = smc.replicate_seeds(master, 1000)
        assert got == expected
        assert all(type(s) is int for s in got)
        assert [replicate_seed(master, i) for i in (0, 999)] == [expected[0], expected[999]]

    def test_replicate_seed_of_a_two_word_index(self):
        ref = np.random.SeedSequence((5, 2**40)).generate_state(1, np.uint64)[0]
        assert replicate_seed(5, 2**40) == int(ref)

    def test_negative_seeds_are_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            smc._streams([3, -1], 2)
        with pytest.raises(ValueError, match="non-negative"):
            smc.replicate_seeds(-1, 2)

    def test_streams_cannot_spawn(self):
        (gens,) = smc._streams([3], 2)
        with pytest.raises(TypeError, match="spawning"):
            gens[0].spawn(1)

    # 2^511 takes 16 words, the others 17 to 20: with the spawn key or the
    # replicate index, every entropy row is wider than 16 words
    @pytest.mark.parametrize("seed", [2**511, 2**512, 2**600 + 12345, 3**400])
    def test_entropy_wider_than_sixteen_words(self, seed):
        children = np.random.SeedSequence(seed).spawn(3)
        expected = np.stack([child.generate_state(4, np.uint64) for child in children])
        np.testing.assert_array_equal(smc._child_states([seed, 7], 3)[0], expected)
        expected = [int(np.random.SeedSequence((seed, i)).generate_state(1, np.uint64)[0])
                    for i in range(5)]
        assert smc.replicate_seeds(seed, 5) == expected


class TestExchangeability:
    def test_permuted_ensemble_reproduces_run(self, bimodal_target, rng):
        ladder = sequences.build_power_tempering(
            bimodal_target, sequences.geometric_schedule(4, 0.1, 2), time_budget=0.5
        )
        config = SmcConfig(
            ladder=ladder, n_particles=256, master_seed=3,
            estimand=lambda x: (np.atleast_2d(x)[:, 0] > 0).astype(float),
        )
        ens = sequences.init_sampler(ladder, 256, np.random.default_rng(50))
        perm = rng.permutation(256)
        assert ens.log_weights is not None  # multi-component level 1: proposal draw
        shuffled = ParticleEnsemble(
            ens.particles[perm], lane_ids=ens.lane_ids[perm],
            init_acceptance_rate=ens.init_acceptance_rate,
            log_weights=ens.log_weights[perm],
        )
        a = run_smc(config, initial_ensemble=ens)
        b = run_smc(config, initial_ensemble=shuffled)
        assert a.eta_estimate == b.eta_estimate
        np.testing.assert_array_equal(
            a.final_ensemble.particles, b.final_ensemble.particles
        )

    @pytest.mark.parametrize("kind", ["finite", "one_component", "tempering", "convolution"])
    def test_sampled_ensembles_are_in_lane_order(self, kind, bimodal_target):
        # the driver sorts by lane id only an injected ensemble
        if kind == "finite":
            ladder = three_bit_ladder(2)
        else:
            ladder = euclidean_config(kind, bimodal_target).ladder
        ens = sequences.init_sampler(ladder, 16, np.random.default_rng(0))
        np.testing.assert_array_equal(ens.lane_ids, np.arange(16))

    def test_single_level_permutation(self, finite_ladder, rng):
        ladder, pmf1, _ = finite_ladder
        single = sequences.build_finite_ladder([pmf1], [None])
        config = finite_config(single, n_particles=128)
        ens = sequences.init_sampler(single, 128, np.random.default_rng(8))
        perm = rng.permutation(128)
        shuffled = ParticleEnsemble(ens.particles[perm], lane_ids=ens.lane_ids[perm])
        a = run_smc(config, initial_ensemble=ens)
        b = run_smc(config, initial_ensemble=shuffled)
        assert a.eta_estimate == b.eta_estimate
        np.testing.assert_array_equal(
            a.final_ensemble.particles, b.final_ensemble.particles
        )


BLOCK = 4  # replicates per block once the cap is patched to BLOCK * N * states


def spied_blocks(monkeypatch, n_particles, n_states):
    """Patch the block cap to ``BLOCK`` replicates and record block sizes."""
    monkeypatch.setattr(smc, "_BLOCK_CELLS", BLOCK * n_particles * n_states)
    sizes = []
    run_block = smc._run_block

    def spy(config, seeds, initial_ensemble=None):
        sizes.append(len(seeds))
        return run_block(config, seeds, initial_ensemble)

    monkeypatch.setattr(smc, "_run_block", spy)
    return sizes


def assert_same_run(a, b):
    assert a.master_seed == b.master_seed
    assert a.eta_estimate == b.eta_estimate
    assert a.nu_estimate == b.nu_estimate
    assert a.ess_per_level == b.ess_per_level
    assert a.weight_sums_per_level == b.weight_sums_per_level
    assert a.normalized_weight_sums_per_level == b.normalized_weight_sums_per_level
    assert a.init_acceptance_rate == b.init_acceptance_rate
    np.testing.assert_array_equal(a.final_ensemble.particles, b.final_ensemble.particles)
    assert a.final_ensemble.particles.dtype == b.final_ensemble.particles.dtype


def three_bit_ladder(n_levels):
    """A {0,1}^3 ladder of product pmfs, Glauber smoothing, t = 1.3."""
    probs = ([0.2, 0.7, 0.4], [0.5, 0.5, 0.3], [0.8, 0.3, 0.6])[:n_levels]
    pmfs = [product_pmf(q) for q in probs]
    chains = [None] + [glauber_transition_matrix(p, 3) for p in pmfs[1:]]
    return sequences.build_finite_ladder(pmfs, chains, time_budget=1.3)


def euclidean_config(kind, bimodal_target):
    """Small Euclidean runs: the two-mode target tempered (level 1 drawn with
    importance weights), one Gaussian tempered (nu estimated), or the
    two-mode target convolved, smoothed by Langevin or Metropolis."""
    if kind == "one_component":
        one = TargetMixture.gaussian([1.0], [[1.0, -2.0]], [[[2.0, 0.3], [0.3, 1.0]]])
        ladder = sequences.build_power_tempering(
            one, sequences.geometric_schedule(3, 0.2, 2), time_budget=0.3)
    elif kind == "tempering":
        ladder = sequences.build_power_tempering(
            bimodal_target, sequences.geometric_schedule(3, 0.2, 2), time_budget=0.3)
    else:
        kernel = KernelSpec(kind="metropolis_hastings", proposal_scale=0.8) \
            if kind == "convolution_mh" else None
        ladder = sequences.build_gaussian_convolution(
            bimodal_target, sequences.TemperingSchedule(betas=(0.2, 0.6), d=2, sigma=2.0),
            kernel=kernel, time_budget=1.5 if kernel else 0.3,
        )
    return SmcConfig(ladder=ladder, n_particles=16, master_seed=9,
                     estimand=lambda x: np.atleast_2d(x)[:, 0])


class TestBlocks:
    @pytest.mark.parametrize("n_particles", [1, 2, 64])
    @pytest.mark.parametrize("n_levels", [1, 3])
    @pytest.mark.parametrize("n_rep", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_block_equals_lone_runs(self, monkeypatch, n_particles, n_levels, n_rep):
        config = finite_config(three_bit_ladder(n_levels), n_particles=n_particles, seed=31,
                               f=lambda x: (np.asarray(x) % 3).astype(float))
        lone = [run_smc(dataclasses.replace(config, master_seed=replicate_seed(31, i)))
                for i in range(n_rep)]
        sizes = spied_blocks(monkeypatch, n_particles, 8)
        blocked = run_replicates(config, n_rep)
        assert sizes == [BLOCK] * (n_rep // BLOCK) + ([n_rep % BLOCK] if n_rep % BLOCK else [])
        assert len(blocked) == n_rep
        for a, b in zip(blocked, lone):
            assert_same_run(a, b)

    @pytest.mark.parametrize("kind", ["tempering", "one_component", "convolution",
                                      "convolution_mh"])
    @pytest.mark.parametrize("n_rep", [BLOCK - 1, BLOCK + 1, 2 * BLOCK + 3])
    def test_euclidean_block_equals_lone_runs(self, monkeypatch, bimodal_target, kind, n_rep):
        config = euclidean_config(kind, bimodal_target)
        lone = [run_smc(dataclasses.replace(config, master_seed=replicate_seed(9, i)))
                for i in range(n_rep)]
        cells = config.ladder.levels[-1].mixture.n_components * 2
        sizes = spied_blocks(monkeypatch, config.n_particles, cells)
        blocked = run_replicates(config, n_rep)
        assert sizes == [BLOCK] * (n_rep // BLOCK) + ([n_rep % BLOCK] if n_rep % BLOCK else [])
        for a, b in zip(blocked, lone):
            assert_same_run(a, b)
        assert (blocked[0].nu_estimate is None) == (kind == "tempering")

    def test_shared_covariance_d32_block_equals_lone_runs(self, monkeypatch):
        # three modes sharing one full covariance: the evaluator's one-GEMM-per-row path
        gen = np.random.default_rng(32)
        A = gen.normal(size=(32, 32))
        target = TargetMixture.gaussian([0.2, 0.3, 0.5], gen.normal(scale=2.0, size=(3, 32)),
                                        [A @ A.T / 32 + np.eye(32)] * 3)
        ladder = sequences.build_gaussian_convolution(
            target, sequences.TemperingSchedule(betas=(0.3, 0.7), d=32, sigma=1.0),
            time_budget=0.2)
        config = SmcConfig(ladder=ladder, n_particles=16, master_seed=9,
                           estimand=lambda x: np.atleast_2d(x)[:, 0])
        n_rep = BLOCK + 1
        lone = [run_smc(dataclasses.replace(config, master_seed=replicate_seed(9, i)))
                for i in range(n_rep)]
        sizes = spied_blocks(monkeypatch, config.n_particles, 3 * 32)
        blocked = run_replicates(config, n_rep)
        assert sizes == [BLOCK, 1]
        for a, b in zip(blocked, lone):
            assert_same_run(a, b)

    def test_block_ratio_sees_the_block_and_a_lone_run_its_points(self, bimodal_target):
        built = euclidean_config("convolution", bimodal_target)
        shapes = []

        def seen(lv):
            def ratio(x):
                shapes.append(np.shape(x))
                return lv.ratio_to_prev(x)
            return dataclasses.replace(lv, ratio_to_prev=ratio, normalized_ratio=ratio)

        levels = [built.ladder.levels[0]] + [seen(lv) for lv in built.ladder.levels[1:]]
        config = dataclasses.replace(
            built, ladder=dataclasses.replace(built.ladder, levels=tuple(levels)))
        run_replicates(config, 3)
        assert shapes == [(3, config.n_particles, 2)] * 2
        shapes.clear()
        run_smc(config)
        assert shapes == [(config.n_particles, 2)] * 2

    def test_nonfinite_gradient_inside_block_raises(self, monkeypatch, bimodal_target):
        # ULA with step 5 on the target overflows the state
        ladder = sequences.build_gaussian_convolution(
            bimodal_target, sequences.TemperingSchedule(betas=(0.5,), d=2, sigma=1.0),
            kernel=KernelSpec(kind="langevin", step_size=5.0), time_budget=2000.0,
        )
        config = SmcConfig(ladder=ladder, n_particles=8, master_seed=1,
                           estimand=lambda x: np.atleast_2d(x)[:, 0])
        sizes = spied_blocks(monkeypatch, 8, 4)
        with pytest.raises(FloatingPointError, match="non-finite gradient"):
            run_replicates(config, BLOCK)
        assert sizes == [BLOCK]

    def test_degenerate_row_inside_block_names_level(self, monkeypatch):
        # state 1 has no mass at level 2: a one-particle replicate started there
        # has all-zero weights
        chain = FiniteChain(P=np.array([[1.0, 0.0], [1.0, 0.0]]), pi=np.array([1.0, 0.0]))
        ladder = sequences.build_finite_ladder([[0.5, 0.5], [1.0, 0.0]], [None, chain])
        config = finite_config(ladder, n_particles=1, seed=3)
        seeds = [replicate_seed(3, i) for i in range(BLOCK)]
        failing = []
        for i, seed in enumerate(seeds):
            try:
                run_smc(dataclasses.replace(config, master_seed=seed))
            except DegenerateWeightsError as exc:
                assert "level 2" in str(exc)
                failing.append(i)
        assert 0 < len(failing) < BLOCK  # the block mixes sound and degenerate rows
        sizes = spied_blocks(monkeypatch, 1, 2)
        with pytest.raises(DegenerateWeightsError, match="degenerate weights at level 2"):
            run_replicates(config, BLOCK)
        assert sizes == [BLOCK]

    def test_row_resampling_matches_vector_calls(self):
        w = np.random.default_rng(0).random((5, 33))
        w[2, :30] = 0.0
        rows = multinomial_resample(w, 40, [np.random.default_rng(s) for s in range(5)])
        assert rows.shape == (5, 40)
        for b in range(5):
            alone = multinomial_resample(w[b], 40, np.random.default_rng(b))
            np.testing.assert_array_equal(rows[b], alone + 33 * b)

    def test_kernel_memory_does_not_grow_with_time(self, monkeypatch):
        """At t = 100 a block's jump uniforms would take 100 arrays of the
        block's size at once; drawn a window at a time, what the kernel holds
        above what it is handed stays under one window of uniforms plus ten
        block-sized arrays (its jump counts, index and state copies, one
        jump's uniforms: about eight at numpy 2.4)."""
        ladder, _, _ = two_level_finite_ladder(time_budget=100.0)
        config = finite_config(ladder, n_particles=512)
        block_bytes = 8 * smc._block_size(config) * config.n_particles  # 32 x 512 int64
        apply, peaks = smc.apply_kernel, []

        def traced(level, particles, rngs):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            out = apply(level, particles, rngs)
            peaks.append(tracemalloc.get_traced_memory()[1] - held)
            return out

        monkeypatch.setattr(smc, "apply_kernel", traced)
        tracemalloc.start()
        try:
            run_replicates(config, 32)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 1  # one block, one smoothed level
        assert 8 * kernels._UNIFORM_WINDOW < peaks[0] < 8 * kernels._UNIFORM_WINDOW + 10 * block_bytes

    def test_row_ess_matches_vector_calls(self):
        # the reference squares a numpy float64 scalar sum, as the 1-D ESS did
        w = np.random.default_rng(1).random((2000, 64)) * 7.0
        reference = [float(r.sum() ** 2 / np.sum(r * r)) for r in w]
        assert effective_sample_size(w).tolist() == reference
        assert [effective_sample_size(r) for r in w] == reference


class TestKernelSteps:
    """``Level.kernel_steps``, which the ladder's step limit counts, is what
    ``apply_kernel`` takes."""

    @pytest.mark.parametrize("t", [0.0, 0.75, math.nextafter(0.75, 0.0),
                                   math.nextafter(0.75, 1.0), 0.3])
    def test_langevin_steps_are_the_gradient_calls(self, monkeypatch, bimodal_target, t):
        # t/h at 3, just below and just above it, and 0.3/0.25 = 1.2 for h = 0.25
        ladder = sequences.build_power_tempering(
            bimodal_target, sequences.TemperingSchedule((0.5, 1.0), d=2),
            kernel=KernelSpec(kind="langevin", step_size=0.25), time_budget=t)
        calls = []

        def counted(level, x):
            calls.append(None)
            return sequences.level_grad_log_density(level, x)

        monkeypatch.setattr(smc, "level_grad_log_density", counted)
        level = ladder.levels[1]
        smc.apply_kernel(level, np.zeros((1, 8, 2)), [np.random.default_rng(0)])
        assert len(calls) == level.kernel_steps(t) == math.ceil(t / 0.25)

    def test_chain_level_takes_t_expected_jumps(self):
        ladder, _, _ = two_level_finite_ladder(time_budget=1.3)
        assert ladder.levels[1].kernel_steps(1.3) == 1.3


class TestRatioEvaluations:
    def test_shared_ratio_evaluated_once_per_level(self, bimodal_target):
        # convolution levels set normalized_ratio = ratio_to_prev: one call serves both
        built = sequences.build_gaussian_convolution(
            bimodal_target, sequences.TemperingSchedule(betas=(0.2, 0.6), d=2, sigma=2.0),
            time_budget=0.2,
        )
        calls = []

        def counted(k, fn):
            def ratio(x):
                calls.append(k)
                return fn(x)
            return ratio

        levels = [built.levels[0]]
        for k, lv in enumerate(built.levels[1:], start=2):
            assert lv.normalized_ratio is lv.ratio_to_prev
            ratio = counted(k, lv.ratio_to_prev)
            levels.append(dataclasses.replace(lv, ratio_to_prev=ratio, normalized_ratio=ratio))
        ladder = dataclasses.replace(built, levels=tuple(levels))
        result = run_smc(SmcConfig(ladder=ladder, n_particles=128, master_seed=4,
                                   estimand=lambda x: np.atleast_2d(x)[:, 0]))
        assert calls == [2, 3]
        assert result.normalized_weight_sums_per_level == result.weight_sums_per_level
        assert result.nu_estimate == (
            math.prod(result.normalized_weight_sums_per_level) * result.eta_estimate
        )


class TestEstimators:
    def test_single_level_is_plain_monte_carlo(self, finite_ladder):
        ladder, pmf1, _ = finite_ladder
        single = sequences.build_finite_ladder([pmf1], [None])
        config = finite_config(single, n_particles=512, seed=21)
        result = run_smc(config)
        # no resampling, no smoothing: eta is the mean over the initializer draw
        expected = indicator_state0(result.final_ensemble.particles).mean()
        assert result.eta_estimate == pytest.approx(expected, abs=1e-15)
        assert result.nu_estimate == result.eta_estimate  # empty product
        assert result.ess_per_level == ()

    def test_single_level_weighted_ensemble_gives_the_weighted_mean(self, bimodal_target, rng):
        one_level = sequences.TemperingSchedule((1.0,), d=2)
        ladder = sequences.build_power_tempering(bimodal_target, one_level)
        config = SmcConfig(ladder=ladder, n_particles=64, master_seed=5,
                           estimand=lambda x: x[:, 0])
        particles = rng.standard_normal((64, 2))
        log_w = rng.normal(scale=3.0, size=64)
        result = run_smc(config, ParticleEnsemble(particles, log_weights=log_w))
        expected = np.average(particles[:, 0], weights=np.exp(log_w - log_w.max()))
        assert result.eta_estimate == pytest.approx(expected, rel=1e-14)
        assert result.nu_estimate is None and result.ess_per_level == ()
        np.testing.assert_array_equal(result.final_ensemble.log_weights, log_w)

    @pytest.mark.parametrize("c", [3.0, 0.5, -2.25, 0.3, 1.0 / 7.0])
    def test_constant_estimand_exact(self, finite_ladder, c):
        ladder, _, _ = finite_ladder
        config = finite_config(ladder, n_particles=37,
                               f=lambda x, _c=c: np.full(np.shape(x)[0], _c))
        assert run_smc(config).eta_estimate == c

    def test_ess_range_and_degenerate_identity_ladder(self, finite_ladder):
        ladder, pmf1, _ = finite_ladder
        chain1 = glauber_transition_matrix(pmf1, 2)
        identity = sequences.build_finite_ladder([pmf1, pmf1], [None, chain1], 0.0)
        result = run_smc(finite_config(identity, n_particles=50))
        assert result.ess_per_level == (50.0,)
        result2 = run_smc(finite_config(ladder, n_particles=50))
        assert all(1.0 <= e <= 50.0 for e in result2.ess_per_level)

    def test_degenerate_weights_name_the_level(self):
        from smcmix.core import FiniteChain

        # disjoint supports are no ladder: level 2's weights are undefined
        pmf2 = np.array([0.0, 0.0, 0.5, 0.5])
        with pytest.raises(ValueError, match="level 2 puts mass 0.5 on state 2, which "
                                             "level 1 gives probability 0"):
            sequences.build_finite_ladder([[0.5, 0.5, 0.0, 0.0], pmf2],
                                          [None, FiniteChain(P=np.tile(pmf2, (4, 1)), pi=pmf2)])
        # a valid ladder whose one particle starts in state 1, which level 2
        # gives probability 0: all its weights are zero
        chain = FiniteChain(P=np.array([[1.0, 0.0], [1.0, 0.0]]), pi=np.array([1.0, 0.0]))
        ladder = sequences.build_finite_ladder([[0.5, 0.5], [1.0, 0.0]], [None, chain])
        with pytest.raises(DegenerateWeightsError, match="level 2"):
            run_smc(finite_config(ladder, n_particles=1, seed=0))

    def test_one_dim_two_mode_recovers_tail_mass(self):
        target = TargetMixture.gaussian([0.25, 0.75], [[-2.0], [2.0]],
                                        [[[1.0]], [[1.0]]])
        ladder = sequences.build_power_tempering(
            target, sequences.geometric_schedule(5, 0.1, 1), time_budget=0.5
        )
        config = SmcConfig(
            ladder=ladder, n_particles=400, master_seed=31,
            estimand=lambda x: (np.atleast_2d(x)[:, 0] > 0).astype(float),
        )
        etas = np.array([r.eta_estimate for r in run_replicates(config, 60)])
        exact = 0.25 * stats.norm.cdf(-2.0) + 0.75 * stats.norm.sf(-2.0)
        se = etas.std(ddof=1) / math.sqrt(len(etas))
        assert abs(etas.mean() - exact) <= 3 * se

    def test_eta_unbiased_on_finite_ladder(self, finite_ladder):
        ladder, _, pmf2 = finite_ladder
        config = finite_config(ladder, n_particles=64, seed=17)
        etas = np.array([r.eta_estimate for r in run_replicates(config, 2000)])
        exact = float(pmf2[0])
        se = etas.std(ddof=1) / math.sqrt(len(etas))
        assert abs(etas.mean() - exact) <= 3 * se


class TestNuEstimator:
    def test_unit_function_unbiased(self, finite_ladder):
        ladder, _, _ = finite_ladder
        config = finite_config(ladder, n_particles=32, seed=5,
                               f=lambda x: np.ones(np.shape(x)[0]))
        nus = np.array([r.nu_estimate for r in run_replicates(config, 4000)])
        se = nus.std(ddof=1) / math.sqrt(len(nus))
        assert abs(nus.mean() - 1.0) <= 3 * se

    def test_general_function_unbiased(self, finite_ladder):
        ladder, _, pmf2 = finite_ladder
        config = finite_config(ladder, n_particles=32, seed=6)
        nus = np.array([r.nu_estimate for r in run_replicates(config, 4000)])
        exact = float(pmf2[0])
        se = nus.std(ddof=1) / math.sqrt(len(nus))
        assert abs(nus.mean() - exact) <= 3 * se

    def test_missing_normalizers_need_correction(self, bimodal_target):
        ladder = sequences.build_power_tempering(
            bimodal_target, sequences.geometric_schedule(3, 0.2, 2), time_budget=0.3
        )
        config = SmcConfig(
            ladder=ladder, n_particles=64, master_seed=9,
            estimand=lambda x: np.ones(np.shape(x)[0]),
        )
        result = run_smc(config)
        assert result.nu_estimate is None
        assert result.normalized_weight_sums_per_level is None


def loop_jackknife_se(samples: np.ndarray, statistic) -> float:
    """Reference jackknife: recompute the statistic on each leave-one-out sample."""
    n = samples.shape[0]
    loo = np.array([statistic(np.delete(samples, i)) for i in range(n)])
    return float(np.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2)))


def exhaustive_two_particle_mse(pmf1, pmf2, S2, f_values, exact):
    """Enumerate every history of a 2-particle, 2-level finite run.

    Initial pair ~ pmf1 x pmf1, independent multinomial ancestor choices with
    weights pmf2/pmf1, then one exact semigroup transition each.  Returns the
    exact MSE of eta = (f(y1) + f(y2)) / 2 around ``exact``.
    """
    size = pmf1.shape[0]
    g = pmf2 / pmf1
    mse = 0.0
    for x1 in range(size):
        for x2 in range(size):
            p_init = pmf1[x1] * pmf1[x2]
            total = g[x1] + g[x2]
            # ancestors are chosen independently for each slot; keep the two
            # choices distinct even when both particles share a state
            choices = ((x1, g[x1] / total), (x2, g[x2] / total))
            for a1, pa1 in choices:
                for a2, pa2 in choices:
                    for y1 in range(size):
                        for y2 in range(size):
                            p = p_init * pa1 * pa2 * S2[a1, y1] * S2[a2, y2]
                            eta = 0.5 * (f_values[y1] + f_values[y2])
                            mse += p * (eta - exact) ** 2
    return mse


class TestMseOverRuns:
    def test_summarize_etas_hand_values(self):
        out = summarize_etas([1.0, 2.0, 6.0], exact_value=2.0)
        assert out["mean_eta"] == 3.0
        assert out["mse"] == pytest.approx(17.0 / 3.0)
        assert out["variance"] == pytest.approx(7.0)
        assert out["bias_sq"] == pytest.approx(1.0)
        assert out["mse"] == pytest.approx(2.0 / 3.0 * out["variance"] + out["bias_sq"])
        # leave-one-out bias_sq values 4, 2.25, 0.25: se = sqrt(2/3 * 169/36) = 13/6
        assert out["bias_sq_se"] == pytest.approx(13.0 / 6.0)
        # leave-one-out variances 8, 12.5, 0.5: se = sqrt(2/3 * 73.5) = 7
        assert out["variance_se"] == pytest.approx(7.0)
        # leave-one-out MSEs 8, 8.5, 0.5: se = sqrt(2/3 * 241/6) = sqrt(241)/3
        assert out["mse_se"] == pytest.approx(math.sqrt(241.0) / 3.0)
        assert out["n_replicates"] == 3

    @pytest.mark.parametrize("r", [2, 3, 5, 40, 500])
    @pytest.mark.parametrize("kind", ["uniform", "narrow", "lattice"])
    @pytest.mark.parametrize("exact", ["mean", "fixed", "first"])
    def test_closed_form_errors_match_loop(self, r, kind, exact):
        rng = np.random.default_rng(r)
        x = {
            "uniform": rng.random(r),
            "narrow": 0.7 + 0.01 * rng.standard_normal(r),
            "lattice": rng.integers(0, 5, r) / 512.0,
        }[kind]
        e = {"mean": float(x.mean()), "fixed": 0.7, "first": float(x[0])}[exact]
        out = summarize_etas(x, e)
        reference = {
            "mse_se": loop_jackknife_se(x, lambda s: np.mean((s - e) ** 2)),
            "bias_sq_se": loop_jackknife_se(x, lambda s: (np.mean(s) - e) ** 2),
        }
        if r > 2:
            reference["variance_se"] = loop_jackknife_se(x, lambda s: np.var(s, ddof=1))
        else:  # one value left: no variance to drop a replicate from
            assert out["variance_se"] is None
        for key, value in reference.items():
            assert out[key] == pytest.approx(value, rel=1e-10, abs=1e-14), key

    def test_undefined_errors_are_none(self):
        out = summarize_etas([0.25], exact_value=0.5)
        assert out["variance"] == 0.0 and out["mse"] == 0.0625
        assert out["mse_se"] is None and out["variance_se"] is None
        assert out["bias_sq_se"] is None
        no_exact = summarize_etas([0.25, 0.5, 1.0], exact_value=None)
        assert no_exact["mean_eta"] == pytest.approx(7.0 / 12.0)
        assert no_exact["mse"] is None and no_exact["bias_sq_se"] is None
        assert no_exact["variance_se"] is not None

    def test_constant_estimand_zero_mse(self, finite_ladder):
        ladder, _, _ = finite_ladder
        config = finite_config(ladder, n_particles=16,
                               f=lambda x: np.full(np.shape(x)[0], 0.4))
        out = summarize_etas([r.eta_estimate for r in run_replicates(config, 20)], 0.4)
        assert out["mse"] == 0.0
        assert out["bias_sq"] <= 1e-30  # mean of identical etas rounds once

    def test_matches_exhaustive_enumeration(self):
        ladder, pmf1, pmf2 = two_level_finite_ladder(time_budget=0.8)
        f_values = np.array([1.0, 0.0, 0.0, 0.0])
        exact = float(pmf2 @ f_values)
        S2 = semigroup(ladder.levels[1].chain, 0.8)
        exact_mse = exhaustive_two_particle_mse(pmf1, pmf2, S2, f_values, exact)
        config = finite_config(ladder, n_particles=2, seed=40)
        out = summarize_etas([r.eta_estimate for r in run_replicates(config, 3000)], exact)
        assert abs(out["mse"] - exact_mse) <= 3 * out["mse_se"]

    def test_doubling_particles_halves_variance(self, finite_ladder):
        ladder, _, pmf2 = finite_ladder
        exact = float(pmf2[0])
        small, large = (
            summarize_etas([r.eta_estimate for r in run_replicates(config, 600)], exact)
            for config in (finite_config(ladder, n_particles=64, seed=2),
                           finite_config(ladder, n_particles=128, seed=3))
        )
        ratio = small["variance"] / large["variance"]
        assert 1.4 <= ratio <= 2.9


class TestMarginalConvergence:
    def test_tv_to_target_decreases_with_n(self):
        # aggressive ladder (short smoothing) so the small-N bias is visible
        ladder, _, pmf2 = two_level_finite_ladder(time_budget=0.25)
        tv = {}
        for n_particles, n_rep in ((10, 10_000), (100, 10_000), (1000, 10_000)):
            config = finite_config(ladder, n_particles=n_particles, seed=77)
            counts = np.zeros(4)
            for r in run_replicates(config, n_rep):
                counts += np.bincount(r.final_ensemble.particles, minlength=4)
            marginal = counts / counts.sum()
            tv[n_particles] = 0.5 * np.abs(marginal - pmf2).sum()
        assert tv[10] > tv[100] > tv[1000]
