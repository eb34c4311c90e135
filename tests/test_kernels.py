"""Smoothing kernels: Langevin discretization, Metropolis, Glauber, Poissonization."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smcmix import kernels
from smcmix.core import FiniteChain
from smcmix.kernels import (
    KernelSpec,
    _chain_step,
    _poisson_jumps,
    default_step_size,
    glauber_transition_matrix,
    mh_evolve,
    mh_step,
    mh_transition_matrix,
    poissonized_evolve,
    ula_evolve,
)


def normal_log_density(x):
    """Unnormalized standard-normal log density."""
    return -0.5 * np.sum(np.atleast_2d(x) ** 2, axis=-1)


def normal_grad(x):
    return -np.asarray(x, dtype=float)


def masked_jumps(state, t, rngs, step):
    """The jump loop written out: row b draws its jump counts, then at every
    jump the uniforms of its still-active particles, ``remaining[b, j]`` of
    them, from ``rngs[b]``; the active particles move by a boolean mask."""
    jumps = np.empty(state.shape[:2], dtype=np.int64)
    for row, rng in zip(jumps, rngs):
        row[:] = rng.poisson(t, size=state.shape[1])
    n_jumps = int(jumps.max(initial=0))
    remaining = np.array([[np.sum(row > j) for j in range(n_jumps)] for row in jumps])
    for j in range(n_jumps):
        u = np.concatenate([rng.random(remaining[b, j]) for b, rng in enumerate(rngs)])
        active = jumps > j
        state[active] = step(state[active], u)
    return state


def random_chain(n_states: int, seed: int) -> FiniteChain:
    P = np.random.default_rng(seed).random((n_states, n_states))
    return FiniteChain(P=P / P.sum(axis=1, keepdims=True))


def discrete_stationary_variance(h: float) -> float:
    # X <- (1-h) X + sqrt(2h) xi is AR(1) with variance 2h / (1 - (1-h)^2)
    return 2.0 * h / (1.0 - (1.0 - h) ** 2)


class TestUla:
    def test_zero_time_returns_input(self, rng):
        x = rng.normal(size=(7, 3))
        out = ula_evolve(normal_grad, x, t=0.0, h=0.1, rng=rng)
        np.testing.assert_array_equal(out, x)

    def test_in_place_update_matches_reference_steps(self, rng):
        # x <- x + h grad + sqrt(2h) xi, written out with fresh arrays
        x = rng.normal(size=(50, 3))
        h, t = 0.07, 0.5
        ref, draws = x.copy(), np.random.default_rng(4)
        for _ in range(math.ceil(t / h)):
            ref = ref + h * -ref + math.sqrt(2.0 * h) * draws.standard_normal(ref.shape)
        out = ula_evolve(normal_grad, x, t=t, h=h, rng=np.random.default_rng(4))
        np.testing.assert_array_equal(out, ref)
        assert not np.shares_memory(out, x)

    def test_ar1_stationary_variance(self, rng):
        h = 0.1
        exact = discrete_stationary_variance(h)
        n = 20000
        x = rng.normal(scale=math.sqrt(exact), size=(n, 1))  # start in stationarity
        out = ula_evolve(normal_grad, x, t=30.0, h=h, rng=rng)
        est = out.var()
        se = exact * math.sqrt(2.0 / n)
        assert abs(est - exact) <= 3 * se

    def test_mean_zero_after_long_run(self, rng):
        n = 100_000
        x = np.zeros((n, 1))
        out = ula_evolve(normal_grad, x, t=10.0, h=0.01, rng=rng)
        se = out.std() / math.sqrt(n)
        assert abs(out.mean()) <= 3 * se

    def test_variance_approaches_target_as_h_shrinks(self, rng):
        hs = [0.1, 0.05, 0.01]
        estimates, ses = [], []
        n = 150_000
        for h in hs:
            exact = discrete_stationary_variance(h)
            x = rng.normal(scale=math.sqrt(exact), size=(n, 1))
            out = ula_evolve(normal_grad, x, t=5.0, h=h, rng=rng)
            estimates.append(out.var())
            ses.append(exact * math.sqrt(2.0 / n))
        for est, se, h in zip(estimates, ses, hs):
            assert abs(est - discrete_stationary_variance(h)) <= 4 * se
        # monotone approach to the target variance 1 within statistical error
        assert estimates[0] > estimates[1] - 2 * (ses[0] + ses[1])
        assert estimates[1] > estimates[2] - 2 * (ses[1] + ses[2])
        assert abs(estimates[2] - 1.0) < 0.02

    def test_nonfinite_gradient_reports_state(self, rng):
        def grad(x):
            return np.full_like(np.asarray(x, dtype=float), np.inf)

        with pytest.raises(FloatingPointError, match="non-finite gradient"):
            ula_evolve(grad, np.array([[1.0, 2.0]]), t=1.0, h=0.1, rng=rng)

    def test_finite_gradient_whose_sum_overflows_runs(self, rng):
        # only a non-finite entry stops the chain, not a sum beyond the float range
        def grad(x):
            return np.full_like(np.asarray(x, dtype=float), 1e308)

        with np.errstate(over="ignore"):
            out = ula_evolve(grad, np.zeros((2, 2)), t=0.1, h=0.1, rng=rng)
        assert np.all(np.isfinite(out))

    def test_default_step_size(self):
        assert default_step_size(1.0) == pytest.approx(0.05)
        assert default_step_size(10.0) == pytest.approx(0.005)
        assert default_step_size(0.2) == pytest.approx(0.05)


class TestMetropolis:
    def test_uniform_density_always_accepts(self, rng):
        def flat(x):
            return np.zeros(len(np.atleast_2d(x)))

        x = np.zeros((500, 2))
        out = mh_step(flat, x, proposal_scale=0.7, rng=rng)
        assert np.all(np.any(out != x, axis=1))

    def test_higher_density_proposals_always_accepted(self, rng):
        # far in the tail, inward proposals are uphill and must always be
        # taken, so the inward-move fraction equals the inward-proposal
        # probability of exactly one half
        n = 20_000
        x = np.full((n, 1), 30.0)
        out = mh_step(normal_log_density, x, proposal_scale=0.05, rng=rng)
        inward = np.mean(out[:, 0] < 30.0)
        se = 0.5 / math.sqrt(n)
        assert abs(inward - 0.5) <= 3 * se

    def test_two_state_long_run_frequencies(self, rng):
        pmf = np.array([0.25, 0.75])
        chain = mh_transition_matrix(pmf)
        n = 10_000
        states = poissonized_evolve(chain, np.zeros(n, dtype=np.int64), t=25.0, rng=rng)
        freq = np.bincount(states, minlength=2) / n
        se = math.sqrt(pmf[0] * pmf[1] / n)
        assert abs(freq[0] - pmf[0]) <= 3 * se

    def test_finite_chain_reversible_entrywise(self, rng):
        pmf = rng.random(8) + 0.1
        pmf /= pmf.sum()
        chain = mh_transition_matrix(pmf)
        flux = chain.pi[:, None] * chain.P
        assert np.max(np.abs(flux - flux.T)) <= 1e-13
        assert chain.reversible

    def test_poissonized_evolution_moves_particles(self, rng):
        x = np.zeros((300, 1))
        out = mh_evolve(normal_log_density, x, t=3.0, proposal_scale=1.0, rng=rng)
        assert np.mean(out != 0.0) > 0.8


class TestGlauber:
    def test_d1_uniform_offdiagonals_are_half(self):
        chain = glauber_transition_matrix(np.array([0.5, 0.5]), 1)
        np.testing.assert_allclose(chain.P, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_rows_sum_to_one(self, rng):
        pmf = rng.random(16) + 0.05
        pmf /= pmf.sum()
        chain = glauber_transition_matrix(pmf, 4)
        np.testing.assert_allclose(chain.P.sum(axis=1), 1.0, atol=1e-14)

    def test_detailed_balance_product_measure(self):
        p = 0.3
        pmf = np.array([(1 - p) * (1 - p), p * (1 - p), (1 - p) * p, p * p])
        chain = glauber_transition_matrix(pmf, 2)
        flux = chain.pi[:, None] * chain.P
        assert np.max(np.abs(flux - flux.T)) <= 1e-14

    def test_stationary_left_eigenvector(self, rng):
        pmf = rng.random(8) + 0.05
        pmf /= pmf.sum()
        chain = glauber_transition_matrix(pmf, 3)
        assert np.max(np.abs(chain.pi @ chain.P - chain.pi)) <= 1e-10

    def test_rejects_large_dimension(self):
        with pytest.raises(ValueError, match="too large"):
            glauber_transition_matrix(np.ones(2 ** 15) / 2 ** 15, 15)

    def test_only_single_flips_allowed(self):
        pmf = np.ones(8) / 8
        chain = glauber_transition_matrix(pmf, 3)
        for x in range(8):
            for y in range(8):
                if bin(x ^ y).count("1") > 1:
                    assert chain.P[x, y] == 0.0


class TestPoissonized:
    def test_zero_time_identity(self, rng):
        chain = glauber_transition_matrix(np.ones(4) / 4, 2)
        x = np.array([0, 1, 2, 3], dtype=np.int64)
        np.testing.assert_array_equal(poissonized_evolve(chain, x, 0.0, rng), x)

    def test_jump_count_mean(self, rng):
        # deterministic cycle: the endpoint state counts the jumps exactly
        size = 64
        P = np.zeros((size, size))
        P[np.arange(size), (np.arange(size) + 1) % size] = 1.0
        chain = FiniteChain(P=P, pi=np.ones(size) / size)
        t = 1.3
        n = 100_000
        states = poissonized_evolve(chain, np.zeros(n, dtype=np.int64), t, rng)
        assert states.max() < size - 1  # no wraparound, counts are exact
        se = math.sqrt(t / n)
        assert abs(states.mean() - t) <= 3 * se

    def test_law_matches_matrix_exponential(self, rng):
        chain = glauber_transition_matrix(
            0.4 * np.array([0.56, 0.14, 0.24, 0.06]) + 0.6 * np.array([0.11, 0.44, 0.09, 0.36]),
            2,
        )
        t = 1.3
        n = 100_000
        states = poissonized_evolve(chain, np.zeros(n, dtype=np.int64), t, rng)
        empirical = np.bincount(states, minlength=4) / n
        exact = scipy.linalg.expm(t * (chain.P - np.eye(4)))[0]
        tv = 0.5 * np.abs(empirical - exact).sum()
        assert tv <= 0.01

    @pytest.mark.parametrize("n_states", [2, 4, 8, 9, 64, 300])
    def test_jump_counts_cumulative_entries_below_uniform(self, n_states):
        # the column-by-column lookup gives the counts of the whole table
        gen = np.random.default_rng(n_states)
        P = gen.random((n_states, n_states)) ** 4
        chain = FiniteChain(P=P / P.sum(axis=1, keepdims=True))
        states = gen.integers(0, n_states, size=1000)
        u = np.random.default_rng(1).random(1000)
        nxt = _chain_step(chain)(states, u)
        table = (np.cumsum(chain.P, axis=1)[states] < u[:, None]).sum(axis=1)
        np.testing.assert_array_equal(nxt, np.minimum(table, n_states - 1))
        assert nxt.dtype == np.int64

    def test_jumps_equal_the_masked_loop(self):
        """The jump loop against the loop it replaced, restated here: same
        particles, same uniforms, same states, every stream left at the same
        place."""
        chain = random_chain(5, 0)
        start = np.random.default_rng(1).integers(0, 5, size=(3, 40))
        for seed, t in enumerate((0.0, 0.7, 4.0)):
            streams = [[np.random.default_rng([seed, b]) for b in range(3)] for _ in range(2)]
            ref = masked_jumps(start.copy(), t, streams[0], _chain_step(chain))
            out = _poisson_jumps(start.copy(), t, streams[1], _chain_step(chain))
            np.testing.assert_array_equal(out, ref)
            assert [r.random() for r in streams[0]] == [r.random() for r in streams[1]]

    # B * N * t above 2^16 needs more than one window of uniforms; at
    # N = 2 and t = 0.1 most rows draw no jump
    @given(st.integers(1, 6), st.integers(1, 700),
           st.sampled_from([0.0, 0.01, 0.1, 0.9, 3.0, 25.0]), st.integers(0, 2 ** 32 - 1))
    @example(1, 3000, 30.0, 0)
    @example(5, 600, 25.0, 1)
    @example(6, 2, 0.1, 1)
    @settings(max_examples=40, deadline=None)
    def test_jumps_equal_the_masked_loop_at_any_size(self, n_rows, n, t, seed):
        chain = random_chain(4, seed)
        start = np.random.default_rng(seed).integers(0, 4, size=(n_rows, n))
        streams = [[np.random.default_rng([seed, b]) for b in range(n_rows)] for _ in range(2)]
        ref = masked_jumps(start.copy(), t, streams[0], _chain_step(chain))
        out = _poisson_jumps(start.copy(), t, streams[1], _chain_step(chain))
        np.testing.assert_array_equal(out, ref)
        assert [r.random() for r in streams[0]] == [r.random() for r in streams[1]]

    def test_window_examples_reach_their_cases(self):
        # the pinned examples above do draw over several windows, and rows
        # without a jump between rows with one
        for n_rows, n, t, seed in ((1, 3000, 30.0, 0), (5, 600, 25.0, 1)):
            gens = [np.random.default_rng([seed, b]) for b in range(n_rows)]
            total = sum(g.poisson(t, size=n).sum() for g in gens)
            assert total > kernels._UNIFORM_WINDOW
        gens = [np.random.default_rng([1, b]) for b in range(6)]
        jumps = [g.poisson(0.1, size=2).sum() for g in gens]
        assert jumps[0] > 0 and jumps[-1] > 0 and 0 in jumps[1:-1]

    def test_mh_evolve_equals_the_per_jump_loop(self):
        # Metropolis draws its own normals and uniforms jump by jump
        x = np.random.default_rng(3).normal(size=(60, 2))
        rng = np.random.default_rng(5)
        jumps = rng.poisson(2.5, size=60)
        ref = x.copy()
        for j in range(jumps.max()):
            active = jumps > j
            ref[active] = mh_step(normal_log_density, ref[active], 0.8, rng)
        stream = np.random.default_rng(5)
        out = mh_evolve(normal_log_density, x, t=2.5, proposal_scale=0.8, rng=stream)
        np.testing.assert_array_equal(out, ref)
        assert rng.random() == stream.random()

    @pytest.mark.parametrize("n_rngs", [1, 2, 4])
    def test_block_needs_a_generator_per_row(self, n_rngs):
        chain = random_chain(4, 0)
        gens = [np.random.default_rng(b) for b in range(n_rngs)]
        message = f"a block of 3 rows needs 3 generators, got {n_rngs}"
        with pytest.raises(ValueError, match=message):
            poissonized_evolve(chain, np.zeros((3, 5), dtype=np.int64), 1.0, gens)
        with pytest.raises(ValueError, match=message):
            ula_evolve(normal_grad, np.zeros((3, 5, 2)), t=0.2, h=0.1, rng=gens)

    def test_single_state_input(self, rng):
        chain = glauber_transition_matrix(np.ones(4) / 4, 2)
        out = poissonized_evolve(chain, 2, t=1.0, rng=rng)
        assert isinstance(out, int)
        assert 0 <= out < 4


class TestKernelSpec:
    def test_unknown_kind_rejected(self):
        # a finite level is smoothed by its own chain, never by a kernel kind
        for kind in ("hamiltonian", "glauber", "finite"):
            with pytest.raises(ValueError, match="unknown kernel kind"):
                KernelSpec(kind=kind)

    def test_positive_knobs_required(self):
        with pytest.raises(ValueError, match="step_size"):
            KernelSpec(kind="langevin", step_size=0.0)

    def test_step_size_has_no_fixed_default(self):
        # a ladder builder gives each level its own default_step_size
        assert KernelSpec(kind="langevin").step_size is None
