"""Closed-form constants, the moment recursion, and the N / t prescriptions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smcmix.bounds import (
    AssumptionParams,
    chat_vbar,
    convolution_gamma,
    delta_recursion,
    prescribe_convolution,
    prescribe_main,
    q_of_t,
    single_step_constants,
    theta_hyper,
    theorem_times,
)


def toy_params(**overrides):
    base = dict(
        n=1, M=1, w_star=1.0, gamma=1.0, c_star_per_level=(1.0,),
        f_sup_bound=1.0, epsilon=0.5, delta=0.1, p=4,
    )
    base.update(overrides)
    return AssumptionParams(**base)


class TestSingleStepConstants:
    def test_time_from_target_alpha(self):
        c_star, gamma, alpha = 2.0, 1.5, 0.25
        t = c_star * gamma / (2.0 * alpha)
        out = single_step_constants(c_star, gamma, t, [1.0])
        assert out.lam == pytest.approx(alpha, rel=1e-14)

    def test_beta_two_equal_weights(self):
        assert single_step_constants(1.0, 1.0, 1.0, [0.5, 0.5]).beta == 5.0

    def test_beta_single_component(self):
        assert single_step_constants(1.0, 1.0, 1.0, [1.0]).beta == 2.0


class TestDeltaRecursion:
    def test_delta_one_is_one(self):
        assert delta_recursion(8, 0.3, 2.0, 1.2)[1] == 1.0

    def test_reference_values(self):
        table = delta_recursion(8, alpha=0.5, beta=2.0, gamma=1.0)
        assert table[2] == pytest.approx(2.0, abs=1e-14)
        assert table[4] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-13)
        assert table[8] == pytest.approx(4.0 ** (7.0 / 8.0), abs=1e-13)

    def test_equality_with_simplified_cap_at_gamma_one(self):
        # alpha = 1/(2 gamma^6) = 1/2 at gamma=1: the cap is met with equality
        d8 = delta_recursion(8, alpha=0.5, beta=2.0, gamma=1.0)[8]
        assert abs(d8 - (2.0 * 2.0) ** (7.0 / 8.0) * 1.0 ** (5.0 / 4.0)) <= 1e-12

    def test_simplified_cap_dominates_on_grid(self):
        for gamma in (1.0, 1.5, 2.0):
            for beta in (2.0, 5.0, 10.0):
                alpha = 1.0 / (2.0 * gamma ** 6)
                d8 = delta_recursion(8, alpha, beta, gamma)[8]
                cap = (2.0 * beta) ** (7.0 / 8.0) * gamma ** (5.0 / 4.0)
                assert d8 <= cap + 1e-12

    def test_divergence_reported_with_stage(self):
        # alpha * gamma^{2p-2} first crosses 1 when computing delta(4)
        with pytest.raises(ValueError, match="diverges at p=4"):
            delta_recursion(8, alpha=0.9, beta=2.0, gamma=1.3)

    @given(
        alpha=st.floats(0.01, 0.4),
        beta=st.floats(1.0, 20.0),
        gamma=st.floats(1.0, 1.05),
    )
    @settings(max_examples=80, deadline=None)
    def test_table_nondecreasing_and_at_least_one(self, alpha, beta, gamma):
        table = delta_recursion(16, alpha, beta, gamma)
        values = [table[p] for p in (1, 2, 4, 8, 16)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[0] == 1.0


class TestThetaAndQ:
    def test_single_mode_is_one(self):
        assert theta_hyper(4.0, 2.0, 1.0) == 1.0

    def test_q4_p2_fourth_root(self):
        w = 0.37
        assert theta_hyper(4.0, 2.0, w) == pytest.approx((1.0 / w) ** 0.25, rel=1e-14)

    def test_sixteenth_gives_two(self):
        assert theta_hyper(4.0, 2.0, 1.0 / 16.0) == pytest.approx(2.0, rel=1e-14)

    def test_q_at_zero_is_p(self):
        assert q_of_t(2.0, 3.7, 0.0) == pytest.approx(2.0)

    def test_q_at_half_c_log3(self):
        c = 2.9
        assert q_of_t(2.0, c, c * math.log(3.0) / 2.0) == pytest.approx(4.0, abs=1e-12)

    def test_q_plug_in(self):
        assert q_of_t(4.0, 1.0, 0.5) == pytest.approx(1.0 + 3.0 * math.e, rel=1e-14)

    def test_q_strictly_increasing_and_theta_limit(self):
        ts = np.linspace(0.0, 20.0, 50)
        qs = [q_of_t(2.0, 1.7, t) for t in ts]
        assert all(b > a for a, b in zip(qs, qs[1:]))
        w = 0.2
        limit = theta_hyper(q_of_t(2.0, 1.0, 50.0), 2.0, w)
        assert limit == pytest.approx((1.0 / w) ** 0.5, rel=1e-9)

    def test_q_past_the_float_range_is_infinite(self):
        assert q_of_t(2.0, 1e-3, 1e3) == math.inf  # e^(2e6)


class TestChatVbar:
    def test_unit_plug_in(self):
        out = chat_vbar(toy_params(), alpha=0.5, beta=2.0, delta_table={8: 1.0}, theta=1.0)
        assert out["c_hat"] == pytest.approx(4.0)
        assert out["v_bar"] == pytest.approx(4.0)

    def test_linear_in_n(self):
        one = chat_vbar(toy_params(), 0.5, 2.0, {8: 1.0}, 1.0)
        two = chat_vbar(toy_params(n=2, c_star_per_level=(1.0, 1.0)), 0.5, 2.0, {8: 1.0}, 1.0)
        assert two["v_bar"] == pytest.approx(2 * one["v_bar"])
        assert two["c_hat"] == pytest.approx(2 * one["c_hat"])

    def test_hand_computed_chain(self):
        # gamma=1, w*=1, single mode, alpha=1/2, p=4: every factor by hand
        params = toy_params()
        alpha, beta = 0.5, 2.0
        table = {1: 1.0}
        for p in (1, 2, 4):
            table[2 * p] = table[p] * (beta / (1.0 - alpha)) ** (1.0 / (2 * p))
        theta = 1.0
        out = chat_vbar(params, alpha, beta, table, theta)
        d8 = 4.0 ** (0.5 + 0.25 + 0.125)
        assert out["c_hat"] == pytest.approx(1 * 4.0 * 1.0 * d8 ** 2 * 1.0, rel=1e-13)
        assert out["v_bar"] == pytest.approx(4.0, rel=1e-14)


class TestPrescribeMain:
    def test_golden_mse_prescription(self):
        report = prescribe_main(toy_params(), mode="mse")
        assert report.prescribed_N == 128
        assert report.n_variance_branch == pytest.approx(32.0)
        assert report.n_moment_branch == pytest.approx(128.0)
        assert report.prescribed_t_per_level == (2.0,)

    def test_high_probability_branch(self):
        report = prescribe_main(toy_params(), mode="high_probability")
        assert report.n_variance_branch == pytest.approx(640.0)

    def test_tv_branch(self):
        report = prescribe_main(toy_params(), mode="tv")
        assert report.n_variance_branch == pytest.approx(64.0)

    def test_t_simple_scales_with_gamma_seventh(self):
        report = prescribe_main(toy_params(gamma=2.0), mode="mse")
        assert report.prescribed_t_per_level[0] == pytest.approx(2.0 * 2.0 ** 7)

    def test_complete_form_time(self):
        report = prescribe_main(toy_params(), mode="mse", alpha=0.5)
        expected = 0.5 * max(1.0 / 0.5, math.log(3.0 / 1.0))
        assert report.complete_t_per_level[0] == pytest.approx(expected)

    def test_beta_from_per_level_weights(self):
        params = toy_params(M=2, w_star=0.25,
                            per_level_weights=((0.5, 0.5),))
        report = prescribe_main(params, mode="mse")
        assert report.beta == pytest.approx(5.0)  # actual weights, not 1 + M/w*

    def test_beta_worst_case_default(self):
        report = prescribe_main(toy_params(M=2, w_star=0.25), mode="mse")
        assert report.beta == pytest.approx(1.0 + 2.0 / 0.25)

    def test_prescribed_n_monotonicity(self):
        def n_for(**kw):
            return prescribe_main(toy_params(**kw), mode="mse").prescribed_N

        assert n_for(w_star=0.5, M=2) >= n_for(w_star=1.0, M=2)
        assert n_for(epsilon=0.25) >= n_for(epsilon=0.5)
        assert n_for(gamma=2.0) >= n_for(gamma=1.0)
        assert n_for(M=3, w_star=0.3) >= n_for(M=1, w_star=0.3)
        assert (
            prescribe_main(toy_params(n=3, c_star_per_level=(1.0,) * 3)).prescribed_N
            >= n_for()
        )

    def test_report_serializes(self):
        doc = prescribe_main(toy_params(), mode="mse").to_dict()
        assert doc["which_theorem"] == "mse"
        assert doc["prescribed_N"] == 128

    def test_delta_table_on_report_nondecreasing(self):
        report = prescribe_main(toy_params(gamma=1.1), mode="mse")
        deltas = [d for _, d in report.delta_table]
        assert all(b >= a for a, b in zip(deltas, deltas[1:]))


class TestPrescribeConvolution:
    def test_sigma_zero_reduces_to_main(self):
        report = prescribe_convolution(toy_params(), sigma=0.0, betas=[1.0], d=2)
        assert report.prescribed_t_per_level == (2.0,)
        assert report.which_theorem == "convolution"

    def test_unit_plug_in(self):
        report = prescribe_convolution(toy_params(), sigma=1.0, betas=[1.0], d=2)
        assert report.prescribed_t_per_level[0] == pytest.approx(4.0)

    def test_gamma_from_beta_ratio(self):
        params = toy_params(n=2, c_star_per_level=(1.0, 1.0))
        report = prescribe_convolution(params, sigma=1.0, betas=[0.5, 1.0], d=2)
        # gamma = (1.0/0.5)^{2/2} = 2; t_k = 2 (C* + sigma^2/beta_k) gamma^7
        assert report.prescribed_t_per_level[0] == pytest.approx(2.0 * (1.0 + 2.0) * 128.0)
        assert report.prescribed_t_per_level[1] == pytest.approx(2.0 * (1.0 + 1.0) * 128.0)


    def test_gamma_never_below_the_given_one(self):
        # a ladder's de-noising step may have the larger ratio: gamma 5 > 2
        params = toy_params(n=2, c_star_per_level=(1.0, 1.0), gamma=5.0)
        report = prescribe_convolution(params, sigma=1.0, betas=[0.5, 1.0], d=2)
        assert report.params.gamma == 5.0
        assert report.prescribed_t_per_level == theorem_times((3.0, 2.0), 5.0)

    def test_step_bound_beyond_float_range_is_infinite(self):
        assert convolution_gamma(1.0, 1e-5, 160) == math.inf
        assert convolution_gamma(1.0, 0.5, 2) == 2.0


class TestTheoremTimes:
    def test_two_c_star_gamma_seven(self):
        assert theorem_times((1.0, 0.5), 2.0) == (256.0, 128.0)

    def test_infinite_gamma_named(self):
        with pytest.raises(ValueError, match=r"t_k = 2 C\*_k gamma\^7 overflows"):
            theorem_times((1.0,), math.inf)
        with pytest.raises(ValueError, match=r"alpha = 1/\(2 gamma\^6\) overflows"):
            prescribe_main(toy_params(gamma=math.inf))


class TestAssumptionParams:
    def test_p_must_be_power_of_two(self):
        with pytest.raises(ValueError, match="power of 2"):
            toy_params(p=6)

    def test_epsilon_in_unit_interval(self):
        with pytest.raises(ValueError, match="epsilon"):
            toy_params(epsilon=1.5)

    def test_gamma_at_least_one(self):
        with pytest.raises(ValueError, match="gamma"):
            toy_params(gamma=0.9)

    def test_c_star_broadcast(self):
        params = toy_params(n=3, c_star_per_level=(2.0,))
        assert params.c_star_per_level == (2.0, 2.0, 2.0)
