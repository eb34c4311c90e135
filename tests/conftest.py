"""Shared fixtures and the acceptance-summary hook."""

from __future__ import annotations

import os

import numpy as np
import pytest

from smcmix import kernels, oracle, sequences
from smcmix.core import TargetMixture

def pytest_configure(config):
    config.acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "acceptance_lines", [])
    if not lines:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)


def _entries(path) -> dict | None:
    """Each entry of the directory ``path`` and its modification time; None
    when there is no such directory."""
    if not os.path.isdir(path):
        return None
    return {e.name: e.stat().st_mtime_ns for e in os.scandir(path)}


@pytest.fixture(autouse=True)
def no_default_out_dir(request):
    """Fail a test that writes into ``out/`` of the directory the suite runs
    from, where a command without ``--out`` writes: the suite leaves the
    checkout as it found it, and runs in a read-only one."""
    out = request.config.invocation_params.dir / "out"
    before = _entries(out)
    yield
    if _entries(out) != before:
        pytest.fail(f"the test wrote into {out}: give its command an --out under tmp_path")


@pytest.fixture
def acceptance_log(request):
    """Recorder printing one PASS/FAIL line per criterion in the summary."""

    def record(name: str, passed: bool, detail: str = ""):
        status = "PASS" if passed else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        request.config.acceptance_lines.append(f"[{status}] {name}{suffix}")

    return record


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def bimodal_target():
    """The two-mode Gaussian benchmark: modes +-(3,3), weights 0.3/0.7."""
    return TargetMixture.gaussian(
        [0.3, 0.7], [[-3.0, -3.0], [3.0, 3.0]], [np.eye(2), np.eye(2)]
    )


def two_level_finite_ladder(time_budget=1.5, d=2):
    """A {0,1}^d two-level ladder with Glauber smoothing at level 2."""
    if d == 2:
        pmf1 = 0.3 * oracle.product_pmf([0.2, 0.7]) + 0.7 * oracle.product_pmf([0.8, 0.45])
        pmf2 = 0.5 * oracle.product_pmf([0.3, 0.6]) + 0.5 * oracle.product_pmf([0.7, 0.4])
    else:
        pmf1 = oracle.standard_glauber_mixture(d).chain.pi
        pmf2 = 0.5 * oracle.product_pmf([0.25, 0.65, 0.5]) + 0.5 * oracle.product_pmf(
            [0.7, 0.35, 0.55]
        )
    chain2 = kernels.glauber_transition_matrix(pmf2, d)
    ladder = sequences.build_finite_ladder([pmf1, pmf2], [None, chain2], time_budget)
    return ladder, pmf1, pmf2


@pytest.fixture
def finite_ladder():
    return two_level_finite_ladder()
