"""Seeded config fuzzing: every schema-valid experiment ends in exit 0, 2 or 3
through ``run``, ``bounds`` and ``sweep``, never in an uncaught exception, and
what it writes conforms to its schema.

The generator draws from numpy's seeded ``Generator`` (no ``hypothesis``):
dimensions up to 160, up to three modes with optional full covariances, both
ladder kinds with betas down to 1e-5, both Euclidean kernels, explicit times
up to 0.05 or ``from_theorem`` times capped at 200 kernel steps, at most 16
particles, ``bounds`` sections with and without a ``convolution`` part, and
sweeps of two replicates over two values of ``n_particles`` or ``time_budget``.

Finite ladders have a generator and seed streams of their own, so the
Euclidean configs stay as drawn: 2 to 4 levels over {0,1}^d with d <= 3,
pmfs with some zero entries, chains that are the independent sampler (every
row the pmf) or, where the pmf is positive, Glauber dynamics, explicit times
up to 2, at most 16 particles and 2 to 4 replicates, through ``run`` and
``sweep``.  In the first stream most ladders put mass where the level before
gives none, which ``run`` refuses; in the second each level's support lies
inside the previous level's, so every ladder runs.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from smcmix.cli import main
from smcmix.kernels import glauber_transition_matrix
from test_cli import assert_conforms, overflowing_convolution_experiment, read_output, write_json

SEED = 20241019
N_CONFIGS = 100
DIMS = (1, 2, 3, 8, 20, 60, 160)
FINITE_SEED = 20261020
N_FINITE_CONFIGS = 30
NESTED_SEED = 20261021
N_NESTED_CONFIGS = 30


def _betas(rng, tempering: bool) -> list:
    """Increasing betas from as low as 1e-5; a tempering ladder ends at 1."""
    n = int(rng.integers(1, 5))
    betas = np.unique(10.0 ** rng.uniform(-5.0, 0.0, size=n))
    if tempering:
        betas = np.append(betas[betas < 1.0], 1.0)
    return betas.tolist()


def _covariances(rng, m: int, d: int) -> list:
    covs = []
    for _ in range(m):
        a = rng.normal(size=(d, d))
        covs.append((a @ a.T / d + rng.uniform(0.2, 2.0) * np.eye(d)).tolist())
    return covs


def _estimand(rng, m: int, d: int) -> dict:
    """A random estimand; one in ten has an index one past the target's."""
    name = str(rng.choice(["indicator_halfspace", "coordinate_mean", "mode_indicator",
                           "constant"]))
    if name == "constant":
        return {"name": name, "value": float(rng.normal())}
    size = m if name == "mode_indicator" else d
    index = size if rng.random() < 0.1 else int(rng.integers(0, size))
    if name == "mode_indicator":
        return {"name": name, "mode_index": index}
    return {"name": name, "coordinate": index, "threshold": float(rng.normal())}


def random_experiment(rng) -> dict:
    d = int(rng.choice(DIMS))
    m = int(rng.integers(1, 4))
    target = {"kind": "gaussian_mixture", "weights": rng.dirichlet(np.ones(m) * 2).tolist(),
              "means": rng.normal(scale=3.0, size=(m, d)).tolist()}
    if rng.random() < 0.3:
        target["covariances"] = _covariances(rng, m, d)
    tempering = bool(rng.random() < 0.5)
    ladder = {"kind": "tempering" if tempering else "convolution"}
    if rng.random() < 0.5:
        ladder["betas"] = _betas(rng, tempering)
    else:
        ladder["n_levels"] = int(rng.integers(1, 5))
        ladder["beta_min"] = float(10.0 ** rng.uniform(-5.0, 0.0))
    if tempering:
        ladder["conservative_gamma"] = bool(rng.random() < 0.3)
    else:
        ladder["sigma"] = float(rng.uniform(0.2, 3.0))
    exp = {"target": target, "ladder": ladder, "n_particles": int(rng.integers(1, 17)),
           "estimand": _estimand(rng, m, d), "replicates": int(rng.integers(1, 3)),
           "master_seed": int(rng.integers(0, 2 ** 32))}
    kernel = rng.choice(["none", "langevin", "langevin_default", "metropolis_hastings"])
    if kernel == "langevin":
        exp["kernel"] = {"kind": "langevin", "step_size": float(10.0 ** rng.uniform(-3, 0))}
    elif kernel == "langevin_default":
        exp["kernel"] = {"kind": "langevin"}
    elif kernel == "metropolis_hastings":
        exp["kernel"] = {"kind": "metropolis_hastings",
                         "proposal_scale": float(rng.uniform(0.1, 2.0))}
    if rng.random() < 0.3:
        exp["time_policy"] = {"mode": "from_theorem", "max_total_steps": 200}
    else:
        exp["time_policy"] = {"mode": "explicit", "t": float(rng.uniform(0.0, 0.05))}
    return exp


def random_bounds(rng, exp: dict) -> dict:
    section = {"mode": str(rng.choice(["mse", "high_probability", "tv"])),
               "epsilon": float(rng.uniform(0.01, 0.9)),
               "f_sup_bound": float(rng.uniform(0.0, 2.0))}
    if rng.random() < 0.5:
        d = len(exp["target"]["means"][0])
        section["convolution"] = {"sigma": float(rng.uniform(0.0, 3.0)),
                                  "betas": _betas(rng, tempering=False), "d": d}
    return section


def random_sweep(rng, exp: dict) -> dict:
    """A config that sweeps ``exp``, given an exact value, over two values."""
    if rng.random() < 0.5:
        sweep = {"parameter": "n_particles", "values": rng.integers(1, 17, size=2).tolist()}
    else:
        sweep = {"parameter": "time_budget", "values": rng.uniform(1e-3, 0.05, size=2).tolist()}
    return {"schema_version": 1, "experiment": {**exp, "exact_value": float(rng.normal())},
            "sweep": {**sweep, "replicates": 2}}


def _finite_level(rng, d: int, first: bool, support=None) -> dict:
    """A pmf over {0,1}^d with about a third of its entries zero (never all),
    and zero outside ``support`` where one is given, and its chain: none
    (level 1 only, half the time), Glauber dynamics where the pmf is
    positive (half the time), else the independent sampler."""
    size = 2 ** d
    pmf = rng.dirichlet(np.ones(size))
    zeros = rng.random(size) < 0.3
    if support is None:
        zeros[rng.integers(size)] = False
    else:
        zeros |= ~support
        zeros[rng.choice(np.flatnonzero(support))] = False
    pmf[zeros] = 0.0
    pmf /= pmf.sum()
    if first and rng.random() < 0.5:
        return {"pmf": pmf.tolist(), "P": None}
    if pmf.min() > 0 and rng.random() < 0.5:
        P = glauber_transition_matrix(pmf, d).P
    else:
        P = np.tile(pmf, (size, 1))
    return {"pmf": pmf.tolist(), "P": P.tolist()}


def random_finite_experiment(rng, ladder_path: str, nested: bool = False) -> dict:
    """A finite-ladder experiment whose ladder file it writes to
    ``ladder_path``; ``nested`` keeps each level's support inside the
    previous level's."""
    d = int(rng.integers(1, 4))
    levels, support = [], None
    for k in range(int(rng.integers(2, 5))):
        levels.append(_finite_level(rng, d, k == 0, support))
        if nested:
            support = np.array(levels[-1]["pmf"]) > 0
    Path(ladder_path).write_text(json.dumps({"kind": "finite_ladder", "levels": levels}))
    return {"target": {"kind": "finite_ladder_file", "path": ladder_path},
            "ladder": {"kind": "from_file"}, "n_particles": int(rng.integers(1, 17)),
            "estimand": _estimand(rng, 2 ** d, 1), "replicates": int(rng.integers(2, 5)),
            "master_seed": int(rng.integers(0, 2 ** 32)),
            "time_policy": {"mode": "explicit", "t": float(rng.uniform(0.0, 2.0))}}


def run_commands(tmp_path, cfg: dict, commands=("run", "bounds")):
    """Run each command on ``cfg``; every exit is 0, 2 or 3, and an exit 0
    leaves a ``<command>.json`` that conforms to its schema."""
    assert_conforms(cfg, "config.schema.json")
    path = write_json(tmp_path / "c.json", cfg)
    for command in commands:
        out = tmp_path / command
        code = main(["--config", path, "--out", str(out), "--threads", "1", command])
        assert code in (0, 2, 3), (command, code)
        if code == 0:
            read_output(out / f"{command}.json")


@pytest.mark.parametrize("index", range(N_CONFIGS))
def test_random_config_exits_cleanly(tmp_path, index):
    rng = np.random.default_rng([SEED, index])
    exp = random_experiment(rng)
    run_commands(tmp_path, {"schema_version": 1, "experiment": exp,
                            "bounds": random_bounds(rng, exp)})
    run_commands(tmp_path, random_sweep(rng, exp), ("sweep",))


@pytest.mark.parametrize("index", range(N_FINITE_CONFIGS))
def test_random_finite_config_exits_cleanly(tmp_path, index):
    rng = np.random.default_rng([FINITE_SEED, index])
    exp = random_finite_experiment(rng, str(tmp_path / "ladder.json"))
    run_commands(tmp_path, {"schema_version": 1, "experiment": exp}, ("run",))
    run_commands(tmp_path, random_sweep(rng, exp), ("sweep",))


@pytest.mark.parametrize("index", range(N_NESTED_CONFIGS))
def test_random_nested_finite_config_exits_cleanly(tmp_path, index):
    rng = np.random.default_rng([NESTED_SEED, index])
    exp = random_finite_experiment(rng, str(tmp_path / "ladder.json"), nested=True)
    run_commands(tmp_path, {"schema_version": 1, "experiment": exp}, ("run",))
    run_commands(tmp_path, random_sweep(rng, exp), ("sweep",))


@pytest.mark.parametrize("time_policy", [{"mode": "explicit", "t": 0.05},
                                         {"mode": "from_theorem", "max_total_steps": 200}])
def test_overflowing_convolution_step_bound(tmp_path, time_policy):
    exp = overflowing_convolution_experiment(time_policy=time_policy)
    run_commands(tmp_path, {"schema_version": 1, "experiment": exp,
                            "bounds": {"mode": "tv", "epsilon": 0.1, "f_sup_bound": 1.0}})
