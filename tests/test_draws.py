"""The one categorical-draw rule: the level-1 pmf draw, multinomial resampling
and a finite chain's jump all take the first outcome whose normalized
cumulative probability exceeds the uniform, as ``Generator.choice`` does, so
an outcome of probability zero is never drawn."""

import numpy as np
import pytest

from smcmix.core import FiniteChain
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
