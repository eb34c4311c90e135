"""Exact finite-state checks: Dirichlet forms, semigroups, spectra, entropies."""

import math

import numpy as np
import pytest
import scipy.linalg
from scipy.special import logsumexp

from smcmix import bounds, oracle
from smcmix.core import FiniteChain, NonReversibleChainError
from smcmix.kernels import glauber_transition_matrix
from smcmix.oracle import (
    ConvergenceError,
    FiniteMixture,
    check_generator_decomposition,
    dirichlet_form,
    dirichlet_form_pairwise,
    entropy_decomposition_check,
    glauber_mixture,
    hypercontractivity_check,
    inter_intra_decomposition,
    lsi_constant_estimate,
    markov_contraction_check,
    mh_mixture,
    poincare_constant,
    product_pmf,
    semigroup,
    single_step_check,
    variance_decay_check,
)

TWO_STATE = FiniteChain(P=np.array([[0.5, 0.5], [0.5, 0.5]]), pi=np.array([0.5, 0.5]))


def complete_graph_chain(size: int) -> FiniteChain:
    return FiniteChain(P=np.full((size, size), 1.0 / size))


class TestDirichletForm:
    def test_constant_function_vanishes(self):
        assert dirichlet_form(TWO_STATE, np.array([3.0, 3.0])) == 0.0

    def test_two_state_reference_value(self):
        assert dirichlet_form(TWO_STATE, np.array([0.0, 1.0])) == pytest.approx(0.25)

    def test_scaling_is_quadratic(self, rng):
        f = rng.standard_normal(2)
        assert dirichlet_form(TWO_STATE, 2.0 * f) == pytest.approx(
            4.0 * dirichlet_form(TWO_STATE, f), rel=1e-14
        )

    def test_stack_of_rows_matches_single_calls(self, rng):
        chain = glauber_transition_matrix(product_pmf([0.3, 0.6, 0.45]), 3)
        F = rng.standard_normal((25, 8))
        single = np.array([dirichlet_form(chain, f) for f in F])
        assert isinstance(single[0], float)
        np.testing.assert_allclose(dirichlet_form(chain, F), single, rtol=1e-14)

    def test_inner_product_equals_pairwise_sum_when_reversible(self, rng):
        chain = glauber_transition_matrix(product_pmf([0.3, 0.6, 0.45]), 3)
        for _ in range(100):
            f = rng.standard_normal(8)
            a = dirichlet_form(chain, f)
            b = dirichlet_form_pairwise(chain, f)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


class TestGeneratorDecomposition:
    def test_single_component_slack_exactly_zero(self, rng):
        mix = glauber_mixture([1.0], ([0.3, 0.7],))
        report = check_generator_decomposition(mix, 50, rng)
        assert report.min_slack == 0.0

    def test_glauber_two_products(self, rng):
        mix = glauber_mixture([0.2, 0.8], ([0.15, 0.8, 0.4], [0.85, 0.3, 0.6]))
        report = check_generator_decomposition(mix, 1000, rng)
        assert report.passed
        assert report.min_slack >= -1e-12

    def test_mh_uniform_proposal_eight_states(self, rng):
        pmfs = [product_pmf([0.15, 0.8, 0.4]), product_pmf([0.85, 0.3, 0.6])]
        mix = mh_mixture([0.2, 0.8], pmfs)
        report = check_generator_decomposition(mix, 1000, rng)
        assert report.passed

    def test_mh_mixture_refuses_a_component_it_cannot_normalize(self):
        # [-1, -3] would divide to the component [0.25, 0.75]
        with pytest.raises(ValueError, match="component 1 pmf must have nonnegative entries"):
            mh_mixture([0.5, 0.5], [[-1.0, -3.0], [1.0, 1.0]])

    def test_failure_witness_holds_the_smallest_slack(self):
        # a holding mixture chain (P = I) has no Dirichlet energy to spare
        mix = oracle.standard_glauber_mixture(3)
        frozen = FiniteMixture(chain=FiniteChain(P=np.eye(8), pi=mix.chain.pi),
                               components=mix.components, weights=mix.weights)
        report = check_generator_decomposition(frozen, 20, np.random.default_rng(3))
        assert not report.passed
        assert report.min_slack == pytest.approx(-0.169, abs=1e-3)
        assert report.witness["f"].shape == (8,)
        assert report.witness["slack"] == report.min_slack

    def test_mixture_requires_consistent_weights(self):
        good = glauber_mixture([0.5, 0.5], ([0.2, 0.7], [0.6, 0.3]))
        with pytest.raises(ValueError, match="recombine"):
            FiniteMixture(chain=good.chain, components=good.components,
                          weights=np.array([0.9, 0.1]))


class TestSemigroup:
    def test_identity_at_zero(self):
        chain = oracle.standard_glauber_mixture(2).chain
        np.testing.assert_allclose(semigroup(chain, 0.0), np.eye(4), atol=1e-13)

    def test_ergodic_limit(self):
        chain = glauber_mixture([0.4, 0.6], ([0.2, 0.7], [0.8, 0.45])).chain
        S = semigroup(chain, 100.0)
        assert np.max(np.abs(S - chain.pi[None, :])) <= 1e-8

    def test_semigroup_law(self):
        chain = oracle.standard_glauber_mixture(3).chain
        lhs = semigroup(chain, 1.3) @ semigroup(chain, 0.7)
        np.testing.assert_allclose(lhs, semigroup(chain, 2.0), atol=1e-10)

    def test_rows_remain_stochastic(self):
        chain = oracle.standard_glauber_mixture(3).chain
        for t in (0.1, 1.0, 10.0):
            np.testing.assert_allclose(semigroup(chain, t).sum(axis=1), 1.0, atol=1e-10)

    def test_matches_scipy_on_nonreversible(self):
        P = np.array([[0.1, 0.9, 0.0], [0.0, 0.2, 0.8], [0.7, 0.0, 0.3]])
        chain = FiniteChain(P=P)
        np.testing.assert_allclose(
            semigroup(chain, 1.1), scipy.linalg.expm(1.1 * (P - np.eye(3))), atol=1e-12
        )

    def test_reversible_chain_is_decomposed_once(self, monkeypatch):
        calls = []

        def counting(a):
            calls.append(a)
            return eigh(a)

        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", counting)
        chain = glauber_transition_matrix(product_pmf([0.3, 0.6]), 2)
        assert chain.reversible
        semigroup(chain, 0.5)
        semigroup(chain, 2.0)
        poincare_constant(chain)
        assert len(calls) == 1

    @pytest.mark.parametrize("size", [3, 8, 16, 64])
    def test_uniformization_matches_scipy_on_random_nonreversible(self, size):
        rng = np.random.default_rng([7, size])
        P = rng.random((size, size)) ** 3
        P /= P.sum(axis=1, keepdims=True)
        chain = FiniteChain(P=P)
        assert not chain.reversible
        for t in (0.0, 0.1, 1.3, 5.0, 100.0):
            S = semigroup(chain, t)
            ref = scipy.linalg.expm(t * (P - np.eye(size)))
            assert np.max(np.abs(S - ref)) <= 1e-12, t
            np.testing.assert_allclose(S.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.array_equal(semigroup(chain, 0.0), np.eye(size))


class TestRowLogSumExp:
    def test_matches_scipy_on_wide_rows(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-500.0, 500.0, size=(20, 9))
        np.testing.assert_allclose(oracle._row_logsumexp(a), logsumexp(a, axis=1),
                                   rtol=1e-15, atol=0)

    def test_matches_scipy_on_rows_with_minus_infinity(self):
        a = np.array([[0.0, -np.inf, 3.0], [-np.inf, -np.inf, -np.inf], [-np.inf, 2.0, -1e3]])
        out = oracle._row_logsumexp(a)
        ref = logsumexp(a, axis=1)
        assert out[1] == ref[1] == -np.inf
        np.testing.assert_allclose(out[[0, 2]], ref[[0, 2]], rtol=1e-15, atol=0)


class TestVarianceDecay:
    def test_constant_function_both_sides_zero(self):
        mix = oracle.standard_glauber_mixture(3)
        c_star = max(poincare_constant(c) for c in mix.components)
        S = semigroup(mix.chain, 1.0)
        f = np.full(8, 2.5)
        g = S @ f
        lhs = sum(
            w * float(c.pi @ (g - c.pi @ g) ** 2)
            for w, c in zip(mix.weights, mix.components)
        )
        assert lhs <= 1e-24
        assert c_star / 2.0 * 0.0 == 0.0

    def test_tiny_time_guard(self, rng):
        mix = oracle.standard_glauber_mixture(3)
        report = variance_decay_check(mix, [1e-3], 10, rng)
        assert report.passed
        assert math.isfinite(report.min_slack)

    def test_full_grid(self, rng):
        mix = oracle.standard_glauber_mixture(3)
        report = variance_decay_check(mix, [0.1, 0.5, 1.0, 2.0, 5.0, 10.0], 100, rng)
        assert report.passed
        assert report.min_slack >= -1e-12
        assert report.details["min_second_difference"] >= -1e-10

    def test_matches_per_trial_loop(self):
        mix = oracle.standard_glauber_mixture(3)
        t_grid, grid = [0.1, 1.0, 5.0], np.linspace(0.0, 5.0, 50)
        report = variance_decay_check(mix, t_grid, 30, np.random.default_rng(8))
        rng = np.random.default_rng(8)
        pi = mix.chain.pi
        c_star = max(poincare_constant(c) for c in mix.components)

        def var(p, g):
            return float(p @ (g - p @ g) ** 2)

        slacks, seconds = [], []
        for _ in range(30):
            f = rng.standard_normal(8)
            f /= np.max(np.abs(f))
            for t in t_grid:
                g = semigroup(mix.chain, t) @ f
                lhs = sum(w * var(c.pi, g) for w, c in zip(mix.weights, mix.components))
                slacks.append(c_star / (2.0 * t) * var(pi, f) - lhs)
            curve = np.array([var(pi, semigroup(mix.chain, s) @ f) for s in grid])
            seconds.append(np.min(curve[2:] - 2.0 * curve[1:-1] + curve[:-2]))
        assert report.min_slack == pytest.approx(min(slacks), abs=1e-14)
        assert report.details["min_second_difference"] == pytest.approx(
            min(seconds), rel=1e-9, abs=1e-15
        )

    def test_concave_variance_curve_fails_on_convexity_alone(self, monkeypatch, rng):
        # P_t = a(t) I scales every variance by a(t)^2: 0.09, 0.09, 0 on the
        # convexity grid is concave, and 0.09 keeps the decay bound at t = 1
        scale = {0.0: 0.3, 1.0: 0.3, 2.0: 0.0}
        monkeypatch.setattr(oracle, "semigroup",
                            lambda chain, t: scale[t] * np.eye(chain.n_states))
        mix = oracle.standard_glauber_mixture(2)
        report = variance_decay_check(mix, [1.0], 5, rng, convexity_grid=[0.0, 1.0, 2.0])
        assert not report.passed and report.min_slack >= 0.0
        assert report.details["min_second_difference"] < -1e-10
        assert report.witness["second_difference"] == report.details["min_second_difference"]
        assert len(report.witness["f"]) == 4


class TestInterIntra:
    def test_zero_function(self):
        mix, next_pmf = oracle._two_level_pmfs(3)
        out = inter_intra_decomposition(mix, next_pmf, np.zeros(8), t=1.0)
        assert out["intra"] == 0.0 and out["inter"] == 0.0 and out["total"] == 0.0

    def test_identical_levels_reduce_to_total_variance(self, rng):
        mix = oracle.standard_glauber_mixture(3)
        f = rng.random(8)
        out = inter_intra_decomposition(mix, mix.chain.pi, f, t=0.0)
        pi = mix.chain.pi
        direct = float(pi @ (f - pi @ f) ** 2)
        assert out["total"] == pytest.approx(direct, abs=1e-14)
        assert out["intra"] + out["inter"] == pytest.approx(direct, abs=1e-13)

    def test_bounds_hold_for_random_nonnegative_f(self, rng):
        mix, next_pmf = oracle._two_level_pmfs(3)
        for _ in range(50):
            f = rng.random(8)
            out = inter_intra_decomposition(mix, next_pmf, f, t=1.0)
            assert out["intra"] <= out["intra_bound"] + 1e-12
            assert out["inter"] <= out["inter_bound"] + 1e-12

    def test_nan_function_fails_the_identity(self):
        mix, next_pmf = oracle._two_level_pmfs(3)
        f = np.ones(8)
        f[3] = np.nan
        with pytest.raises(AssertionError, match="identity violated"):
            inter_intra_decomposition(mix, next_pmf, f, t=1.0)


class TestSingleStep:
    def test_constant_function_bound(self, rng):
        mix, next_pmf = oracle._two_level_pmfs(3)
        pi = mix.chain.pi
        gbar = next_pmf / pi
        t = 100.0
        S = semigroup(mix.chain, t)
        lhs = float(pi @ (S @ gbar) ** 2)
        assert lhs == pytest.approx(1.0, abs=1e-6)  # ergodic limit mu2(1)^2

    def test_thousand_random_nonnegative(self, rng):
        mix, next_pmf = oracle._two_level_pmfs(3)
        report = single_step_check(mix, next_pmf, 1000, rng, lam_target=0.5)
        assert report.passed
        assert report.details["lam"] == pytest.approx(0.5, rel=1e-12)
        assert report.details["beta"] == pytest.approx(
            1.0 + np.sum(1.0 / mix.weights), rel=1e-14
        )


class TestHypercontractivity:
    def test_monotone_on_grid(self, rng):
        mix = oracle.standard_glauber_mixture(3)
        report = hypercontractivity_check(
            mix, 2.0, np.linspace(0.0, 5.0, 20), 100, rng
        )
        assert report.passed
        assert report.min_slack >= -1e-9

    def test_constant_function_ratio_decreasing(self):
        mix = oracle.standard_glauber_mixture(3)
        w_star = mix.w_star
        c = 2.0  # constant f: norm is c at every exponent
        qs = [1.0 + 1.0 * math.exp(2 * t / 3.0) for t in (0.0, 1.0, 2.0)]
        ratios = [c / w_star ** (1.0 / q) for q in qs]
        assert all(b <= a for a, b in zip(ratios, ratios[1:]))

    def test_supplied_constant_respected(self, rng):
        mix = oracle.standard_glauber_mixture(3)
        report = hypercontractivity_check(
            mix, 2.0, [0.0, 1.0, 2.0], 10, rng, c_star=50.0
        )
        assert report.details["c_star"] == 50.0
        assert report.passed


    def test_too_small_constant_fails_with_time_witness(self):
        mix = oracle.standard_glauber_mixture(3)
        report = hypercontractivity_check(
            mix, 2.0, [0.01, 0.05, 0.1], 50, np.random.default_rng(4), c_star=0.2
        )
        assert not report.passed
        assert report.witness["t"] == 0.1
        assert report.witness["slack"] == report.min_slack


class TestEntropy:
    def test_constant_function_all_entropies_zero(self):
        mix = oracle.standard_glauber_mixture(3)
        g = np.full(8, 4.0)
        total = float(mix.chain.pi @ (g * np.log(g))) - 4.0 * math.log(4.0)
        assert total == pytest.approx(0.0, abs=1e-15)

    def test_single_component_between_term_zero(self, rng):
        mix = glauber_mixture([1.0], ([0.3, 0.7, 0.5],))
        report = entropy_decomposition_check(mix, 100, rng)
        assert report.passed

    def test_identity_for_random_positive(self, rng):
        mix = oracle.standard_glauber_mixture(3)
        report = entropy_decomposition_check(mix, 1000, rng)
        assert report.passed
        assert report.min_slack >= -1e-12


class TestPoincare:
    def test_two_state_symmetric(self):
        assert poincare_constant(TWO_STATE) == pytest.approx(1.0, abs=1e-12)

    def test_complete_graph(self):
        assert poincare_constant(complete_graph_chain(5)) == pytest.approx(1.0, abs=1e-10)

    def test_variational_characterization(self, rng):
        chain = glauber_transition_matrix(product_pmf([0.3, 0.6, 0.45]), 3)
        constant = poincare_constant(chain)
        for _ in range(1000):
            f = rng.standard_normal(8)
            var = float(chain.pi @ (f - chain.pi @ f) ** 2)
            assert var <= constant * dirichlet_form(chain, f) + 1e-10
        # tight for the spectral-gap eigenvector
        root = np.sqrt(chain.pi)
        sym = 0.5 * (chain.P * (root[:, None] / root[None, :])
                     + (chain.P * (root[:, None] / root[None, :])).T)
        lam, vecs = np.linalg.eigh(sym)
        f_star = vecs[:, -2] / root
        var = float(chain.pi @ (f_star - chain.pi @ f_star) ** 2)
        assert var == pytest.approx(
            constant * dirichlet_form(chain, f_star), rel=1e-9
        )

    def test_requires_reversibility(self):
        cycle = FiniteChain(P=np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
        with pytest.raises(NonReversibleChainError):
            poincare_constant(cycle)


class TestLsiEstimate:
    def test_dominates_probe_ratios_two_state(self, rng):
        est = lsi_constant_estimate(TWO_STATE, restarts=6, rng=rng)
        for _ in range(1000):
            f = np.abs(rng.standard_normal(2)) + 1e-3
            g = f ** 2
            mean = float(TWO_STATE.pi @ g)
            ent = float(TWO_STATE.pi @ (g * np.log(g / mean)))
            energy = dirichlet_form(TWO_STATE, f)
            if energy > 1e-12:
                assert ent / energy <= est + 1e-9

    def test_dominates_probe_ratios_complete_graph(self, rng):
        chain = complete_graph_chain(6)
        est = lsi_constant_estimate(chain, restarts=6, rng=rng)
        for _ in range(1000):
            f = np.abs(rng.standard_normal(6)) + 1e-3
            g = f ** 2
            mean = float(chain.pi @ g)
            ent = float(chain.pi @ (g * np.log(g / mean)))
            energy = dirichlet_form(chain, f)
            if energy > 1e-12:
                assert ent / energy <= est + 1e-9

    def test_lazy_chain_doubles_estimate(self, rng):
        chain = glauber_transition_matrix(product_pmf([0.35, 0.7]), 2)
        lazy = FiniteChain(P=0.5 * (chain.P + np.eye(4)), pi=chain.pi)
        base = lsi_constant_estimate(chain, restarts=8, rng=np.random.default_rng(0))
        doubled = lsi_constant_estimate(lazy, restarts=8, rng=np.random.default_rng(0))
        assert doubled == pytest.approx(2.0 * base, rel=0.10)

    def test_nonconvergence_raises_with_best(self):
        with pytest.raises(ConvergenceError) as info:
            lsi_constant_estimate(TWO_STATE, restarts=1, rng=np.random.default_rng(1),
                                  max_iter=1)
        assert info.value.best_value >= 0.0
        assert info.value.best_f.shape == (2,)


class TestReport:
    def test_each_slack_meets_its_own_tolerance(self):
        # the smaller slack is within its tolerance, the other breaks a zero one
        def report(tol):
            return oracle._report("x", [-5e-13, -9e-13], 2, lambda i: {"entry": i}, tol=tol)

        failed = report([0.0, 1e-12])
        assert not failed.passed and failed.min_slack == -9e-13
        assert failed.witness == {"entry": 1, "slack": -9e-13}
        assert report([1e-12, 1e-12]).passed


class TestDeltaRecursionCheck:
    @staticmethod
    def patched(monkeypatch, shift):
        """``bounds.delta_recursion`` with ``shift(alpha, beta, gamma)`` added to delta(8)."""
        exact = bounds.delta_recursion

        def delta_recursion(p_target, alpha, beta, gamma):
            table = exact(p_target, alpha=alpha, beta=beta, gamma=gamma)
            return {**table, 8: table[8] + shift(alpha, beta, gamma)}

        monkeypatch.setattr(bounds, "delta_recursion", delta_recursion)
        return oracle.delta_recursion_check()

    def test_passes_at_the_smallest_slack(self):
        report = oracle.delta_recursion_check()
        assert report.passed and report.witness is None and report.n_trials == 10
        details = report.details
        assert report.min_slack == min(details["min_cap_slack"], 1e-12 - details["exact_error"])

    def test_fails_on_the_exact_value_alone(self, monkeypatch):
        # 2e-12 under 4^{7/8}: outside the exact tolerance, and below every cap
        report = self.patched(monkeypatch, lambda alpha, beta, gamma: -2e-12)
        assert not report.passed and report.details["min_cap_slack"] >= 0.0
        assert report.witness == {"exact_error": report.details["exact_error"],
                                  "slack": report.min_slack}
        assert report.min_slack == 1e-12 - report.details["exact_error"] < 0.0

    def test_fails_on_one_cap_alone(self, monkeypatch):
        report = self.patched(
            monkeypatch, lambda alpha, beta, gamma: 1e3 if (gamma, beta) == (2.0, 10.0) else 0.0)
        assert not report.passed and report.details["exact_error"] <= 1e-12
        assert report.witness == {"gamma": 2.0, "beta": 10.0, "slack": report.min_slack}
        assert report.min_slack == report.details["min_cap_slack"] < -oracle.INEQ_TOL


class TestContraction:
    def test_supnorm_contracts(self):
        mix = oracle.standard_glauber_mixture(3)
        report = markov_contraction_check(mix, [0.1, 0.5, 1.0, 3.0, 10.0])
        assert report.passed
        assert report.min_slack >= -1e-12

    def test_empty_grid_passes_vacuously(self):
        report = markov_contraction_check(oracle.standard_glauber_mixture(2), [])
        assert report.passed and report.min_slack == math.inf
        assert report.n_trials == 0 and report.witness is None


class TestSuite:
    def test_selector_filters_checks(self, rng):
        report = oracle.run_verification_suite(
            selectors=["entropy"], seed=1, trials_scale=0.1
        )
        assert all(c.name.startswith("entropy") for c in report.checks)
        assert report.all_passed

    def test_quick_suite_passes_every_check(self):
        report = oracle.run_verification_suite(trials_scale=0.05, seed=0)
        assert [c.name for c in report.checks if not c.passed] == []
        poissonized = next(c for c in report.checks if c.name == "poissonized_semigroup")
        assert poissonized.n_trials == 5_000
        assert poissonized.details["tv_tol"] == 0.01 * math.sqrt(20.0)

    def test_non_finite_slack_serializes_as_null(self):
        report = oracle.CheckReport("x", False, -math.inf, 1, details={"v": float("nan")})
        doc = report.to_dict()
        assert doc["min_slack"] is None and doc["details"]["v"] is None

    def test_unknown_selector_rejected(self):
        with pytest.raises(ValueError, match="matched no checks"):
            oracle.run_verification_suite(selectors=["nonsense"], seed=0)

    def test_report_serializes(self):
        report = oracle.run_verification_suite(
            selectors=["delta_recursion"], seed=0
        )
        doc = report.to_dict()
        assert doc["all_passed"] is True
        assert doc["checks"][0]["name"] == "delta_recursion"


class TestFixtureConstants:
    def test_mixture_over_too_many_states_is_refused_when_built(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_CHECK_STATES", 4)
        with pytest.raises(ValueError, match="oracle checks cap the state space at 4"):
            oracle.standard_glauber_mixture(3)
        assert oracle.standard_glauber_mixture(2).n_states == 4

    def test_chain_checks_keep_the_cap(self, monkeypatch):
        chain = complete_graph_chain(8)
        monkeypatch.setattr(oracle, "MAX_CHECK_STATES", 4)
        with pytest.raises(ValueError, match="cap the state space"):
            oracle.semigroup_properties_check(chain)
        with pytest.raises(ValueError, match="cap the state space"):
            oracle.poissonized_fidelity_check(chain, 1.0, 10, np.random.default_rng(0))

    def test_c_star_is_computed_once_per_fixture(self, monkeypatch):
        calls = []

        def counting(chain):
            calls.append(chain)
            return poincare_constant(chain)

        monkeypatch.setattr(oracle, "poincare_constant", counting)
        report = oracle.run_verification_suite(
            selectors=["variance_decay", "single_step"], seed=0, trials_scale=0.05)
        assert [c.name for c in report.checks] == ["variance_decay", "single_step"]
        assert len(calls) == 2  # one per component of the shared fixture
