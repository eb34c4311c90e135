"""The one categorical-draw rule: the level-1 pmf draw, multinomial resampling
and a finite chain's jump all take the first outcome whose normalized
cumulative probability exceeds the uniform, as ``Generator.choice`` does, so
an outcome of probability zero is never drawn."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smcmix.core import FiniteChain, _cumulative, _search_rows
from smcmix.kernels import poissonized_evolve
from smcmix.sequences import build_finite_ladder, init_sampler
from smcmix.smc import multinomial_resample


class StubGenerator:
    """Every uniform is ``u``; every Poisson count is 1."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        return np.full(size, self.u)

    def poisson(self, lam, size=None):
        return np.ones(size, dtype=np.int64)


class OneJump:
    """The uniforms of a seeded generator; every Poisson count is 1."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def random(self, size=None):
        return self.rng.random(size)

    def poisson(self, lam, size=None):
        return np.ones(size, dtype=np.int64)


def test_jump_at_u_zero_skips_a_zero_first_entry():
    chain = FiniteChain(P=[[0.0, 1.0], [1.0, 0.0]])
    assert poissonized_evolve(chain, 0, 1.0, StubGenerator(0.0)) == 1


def test_jump_cannot_pass_a_row_that_sums_below_one():
    chain = FiniteChain(P=[[0.5, 0.5 - 5e-13, 0.0], [0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
    assert poissonized_evolve(chain, 0, 1.0, StubGenerator(1.0 - 2.0 ** -43)) == 1


def test_resampling_never_draws_a_trailing_zero_weight():
    rng = np.random.default_rng(0)
    for _ in range(4):
        weights = rng.random(100)
    weights = np.append(weights, 0.0)
    u = np.nextafter(1.0, 0.0)
    assert multinomial_resample(weights, 1, StubGenerator(u)).tolist() == [99]


@pytest.mark.parametrize("seed", range(5))
def test_every_draw_is_generator_choice(seed):
    rng = np.random.default_rng([7, seed])
    pmf = rng.dirichlet(np.ones(6))
    pmf[rng.choice(6, size=2, replace=False)] = 0.0
    pmf /= pmf.sum()
    expected = np.random.default_rng(seed).choice(6, size=500, p=pmf)

    level1 = build_finite_ladder([pmf], [None])
    drawn = init_sampler(level1, 500, np.random.default_rng(seed)).particles
    np.testing.assert_array_equal(drawn, expected)

    resampled = multinomial_resample(pmf, 500, np.random.default_rng(seed))
    np.testing.assert_array_equal(resampled, expected)

    independent = FiniteChain(P=np.tile(pmf, (6, 1)), pi=pmf)
    jumped = poissonized_evolve(independent, np.zeros(500, dtype=np.int64), 1.0, OneJump(seed))
    np.testing.assert_array_equal(jumped, expected)


def test_resampling_a_row_whose_sum_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = multinomial_resample([1e308] * 3, 30_000, np.random.default_rng(0))
    freq = np.bincount(draws, minlength=3) / draws.size
    se = np.sqrt(1 / 3 * 2 / 3 / draws.size)
    np.testing.assert_array_less(np.abs(freq - 1 / 3), 5 * se)


def test_only_rows_whose_sum_overflows_are_rescaled():
    w = np.random.default_rng(3).random((3, 50)) * 1e306
    w[1] *= 10.0  # this row's sum overflows; its neighbours' do not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cum = _cumulative(w)
    for b in (0, 2):
        np.testing.assert_array_equal(cum[b], np.cumsum(w[b]) / np.cumsum(w[b])[-1])
    scaled = w[1] / w[1].max()
    np.testing.assert_array_equal(cum[1], np.cumsum(scaled) / np.cumsum(scaled)[-1])


@st.composite
def tables_and_uniforms(draw):
    """A (B, N) ``_cumulative`` table with leading, trailing and interior runs
    of zero weight, and (B, n) uniforms that include 0, 1 - 2^-53 and entries
    of the uniform's own row."""
    n_rows = draw(st.integers(1, 40))
    width = draw(st.sampled_from([1, 2, 3, 5, 511, 512, 513, 10_000]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w = rng.random((n_rows, width))
    lead = draw(st.integers(0, width - 1))
    trail = draw(st.integers(0, width - 1 - lead))
    start = draw(st.integers(lead, width - trail - 1))
    stop = draw(st.integers(start, width - trail - 1))  # leaves entry `stop` nonzero
    w[:, :lead] = 0.0
    w[:, width - trail:] = 0.0
    w[:, start:stop] = 0.0
    sparse = draw(st.sampled_from([0.0, 0.5, 0.99]))
    kept = w[:, stop].copy()
    w[rng.random(w.shape) < sparse] = 0.0
    w[:, stop] = kept
    cum = _cumulative(w)
    n_draws = draw(st.integers(2, 64))
    u = rng.random((n_rows, n_draws))
    u[:, 0] = 0.0
    u[:, 1] = 1.0 - 2.0 ** -53
    # a third of the rest equal an entry of their row below its final 1
    hit = rng.random(u.shape) < 1 / 3
    hit[:, :2] = False
    rows, cols = np.nonzero(hit)
    entries = cum[rows, rng.integers(0, width, rows.size)]
    u[rows[entries < 1.0], cols[entries < 1.0]] = entries[entries < 1.0]
    return cum, u


@given(tables_and_uniforms())
@settings(max_examples=120, deadline=None)
def test_block_search_is_searchsorted_per_row(case):
    cum, u = case
    expected = [np.searchsorted(c, x, side="right") for c, x in zip(cum, u)]
    expected = np.array(expected) + cum.shape[1] * np.arange(cum.shape[0])[:, None]
    found = _search_rows(cum, u)
    assert found.dtype == np.int64
    np.testing.assert_array_equal(found, expected)
