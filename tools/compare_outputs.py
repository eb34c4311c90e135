"""Compare what two source trees of smcmix print and write, command by command.

    python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC

Cases (452): ``run`` and ``bounds`` on the 100 pinned configs of
``tests/test_fuzz.py``, ``sweep`` on their sweeps, ``run`` and ``sweep`` on
its 30 pinned finite-ladder configs and on its 30 with nested supports, a
README-style tempering ``run`` with and without a ``time_policy`` (the
latter also with ``conservative_gamma``), convolution, Metropolis and
finite-ladder ``run``, a finite-ladder ``run`` at N = 513 with 70 replicates
(blocks of 31, 31 and 8), at t = 1 and at t = 8 (whose jump uniforms span
more than one of the kernel's windows), a README-style tempering ``run`` at
N = 1 000 with 5 replicates, with ``--threads 2`` the 70-replicate
finite-ladder ``run``, a README-style tempering ``run`` with 40 replicates
and a finite-ladder ``sweep``, a tempering ``run`` on covariances 0.01 I
whose Langevin ``kernel`` section has no ``step_size``, a one-level
finite-ladder ``run`` (empty per-level lists, a header-only ``levels.csv``),
a finite-ladder ``run`` with a zero-probability state and chains with zero
entries, three finite-ladder ``run``s whose level-1 pmf is ``[-1, -1]``,
``[-1, 0]`` (one level) or ``[0, 0]`` (config errors), a tempering ``run``
at N = 512 on three components in d = 3 with unequal full covariances, a
tempering ``run`` on means 1e9 whose level-1 proposal covariance cancels to
one that is not positive definite (a config error), the three time budgets
past the step limit of ``tests/test_cli.py`` (Langevin and Metropolis
``run``, ``sweep``; config errors), a tempering ``run`` with one explicit
budget per level, a ``from_theorem`` tempering ``run`` on one component in
d = 1 with a stepless Langevin kernel, a finite-ladder ``run`` with ``--seed
18446744073709551619`` (2^64 + 3, a master seed of three 32-bit words), a
tempering ``sweep`` with ``--seed 5``, ``bounds`` with explicit ``delta``
and ``p``, and ``verify`` with ``--seed 0``, ``--seed 3``, without a seed,
and with ``trials_scale`` 0.3 and a chain file.  The cases not named with
``--threads 2`` pass ``--threads 1``, those of ``verify`` no ``--threads``.
Each side runs them through ``smcmix.cli.main`` in its own process with
``PYTHONPATH=<side>``.  Compared per case: the exit code, stdout, stderr with
each warning's ``file:line`` masked, and every file written, ``levels.csv``
without its ``wall_time``.  A case that raises an uncaught exception on
either side is a difference, even when both sides raise alike, and the
exception is printed.  Prints each difference; exits 1 if there is any.
Drawing the configs needs the ``test`` extra.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent / "tests"
WARNING_AT = re.compile(r"^\S+\.py:\d+: ", re.MULTILINE)


def make_cases(workdir: str) -> list:
    """Write every case's config under ``workdir``; ``[name, argv]`` per case."""
    import numpy as np
    from smcmix.kernels import glauber_transition_matrix
    from test_cli import finite_ladder_file
    from test_fuzz import (FINITE_SEED, N_CONFIGS, N_FINITE_CONFIGS, N_NESTED_CONFIGS,
                           NESTED_SEED, SEED, random_bounds, random_experiment,
                           random_finite_experiment, random_sweep)

    cases = []

    def add(name, cfg, *commands, threads=1, seed=None):
        path = os.path.join(workdir, f"{name}.json")
        Path(path).write_text(json.dumps(cfg))
        flags = () if seed is None else ("--seed", str(seed))
        for command in commands:
            out = f"{name}_{command}"
            cases.append([out, ["--config", path, "--out", out, "--threads", str(threads),
                                *flags, command]])

    for i in range(N_CONFIGS):
        rng = np.random.default_rng([SEED, i])
        exp = random_experiment(rng)
        add(f"fuzz{i}", {"schema_version": 1, "experiment": exp,
                         "bounds": random_bounds(rng, exp)}, "run", "bounds")
        add(f"sweep{i}", random_sweep(rng, exp), "sweep")
    for i in range(N_FINITE_CONFIGS):
        rng = np.random.default_rng([FINITE_SEED, i])
        exp = random_finite_experiment(rng, os.path.join(workdir, f"finite_ladder{i}.json"))
        add(f"finite_fuzz{i}", {"schema_version": 1, "experiment": exp}, "run")
        add(f"finite_sweep{i}", random_sweep(rng, exp), "sweep")
    for i in range(N_NESTED_CONFIGS):
        rng = np.random.default_rng([NESTED_SEED, i])
        exp = random_finite_experiment(rng, os.path.join(workdir, f"nested_ladder{i}.json"),
                                       nested=True)
        add(f"nested_fuzz{i}", {"schema_version": 1, "experiment": exp}, "run")
        add(f"nested_sweep{i}", random_sweep(rng, exp), "sweep")

    def readme(**changes):  # the README config at N = 512, 4 replicates; None drops a key
        exp = {"target": {"kind": "gaussian_mixture", "weights": [0.3, 0.7],
                          "means": [[-3.0, -3.0], [3.0, 3.0]]},
               "ladder": {"kind": "tempering", "n_levels": 10, "beta_min": 0.05},
               "kernel": {"kind": "langevin", "step_size": 0.05},
               "time_policy": {"mode": "explicit", "t": 1.0}, "n_particles": 512,
               "estimand": {"name": "indicator_halfspace", "coordinate": 0, "threshold": 0.0},
               "replicates": 4, "master_seed": 7, **changes}
        return {"schema_version": 1, "experiment": {k: v for k, v in exp.items() if v is not None}}

    add("tempering", readme(), "run")
    add("unit_budgets", readme(time_policy=None), "run")
    add("conservative", readme(time_policy=None, ladder={
        "kind": "tempering", "n_levels": 10, "beta_min": 0.05, "conservative_gamma": True}), "run")
    add("convolution", readme(n_particles=2000, kernel=None, ladder={
        "kind": "convolution", "n_levels": 10, "beta_min": 0.05, "sigma": 3.0}), "run")
    add("metropolis", readme(kernel={"kind": "metropolis_hastings", "proposal_scale": 1.0},
                             time_policy={"mode": "explicit", "t": 3.0}), "run")
    finite = {"kernel": None, "ladder": {"kind": "from_file"},
              "target": {"kind": "finite_ladder_file",
                         "path": finite_ladder_file(Path(workdir))[0]},
              "estimand": {"name": "mode_indicator", "mode_index": 0}}
    add("finite", readme(replicates=50, **finite), "run")
    # blocked runs whose rows are searched at widths that are not powers of two:
    # 2^16 cells hold 31 replicates of 513 particles on four states (blocks of
    # 31, 31 and 8 rows), and 16 of 1 000 on the two-mode target (one block of 5)
    add("finite_wide", readme(n_particles=513, replicates=70, **finite), "run")
    add("tempering_wide", readme(n_particles=1000, replicates=5), "run")
    # at t = 8 a block of 31 x 513 particles draws about 127 000 jump
    # uniforms, more than one window of the kernel's 2^16
    add("finite_wide_long", readme(n_particles=513, replicates=70,
                                   time_policy={"mode": "explicit", "t": 8.0}, **finite), "run")
    # the worker pool: runs come back from two processes and are merged in order
    add("finite_wide_pool", readme(n_particles=513, replicates=70, **finite), "run", threads=2)
    add("tempering_pool", readme(replicates=40), "run", threads=2)
    add("finite_pool", {**readme(replicates=20, **finite), "sweep": {
        "parameter": "n_particles", "values": [50, 200], "replicates": 20}}, "sweep", threads=2)
    # a Langevin kernel section without a step size takes each level's default step,
    # 0.0025 down to 0.0005 on covariances 0.01 I
    add("step_default", readme(
        target={"kind": "gaussian_mixture", "weights": [0.3, 0.7],
                "means": [[-0.3, -0.3], [0.3, 0.3]], "covariances": [0.01, 0.01]},
        ladder={"kind": "tempering", "n_levels": 5, "beta_min": 0.2},
        kernel={"kind": "langevin"}, n_particles=64, master_seed=1), "run")
    # one level: run.json's per-level lists are empty and levels.csv is its header
    one_level = os.path.join(workdir, "one_level_ladder.json")
    Path(one_level).write_text(json.dumps({"kind": "finite_ladder", "levels": [
        {"pmf": [0.1, 0.2, 0.3, 0.4], "P": None}]}))
    add("finite_one_level", readme(replicates=5, **{
        **finite, "target": {"kind": "finite_ladder_file", "path": one_level}}), "run")
    # level 2's Glauber chain is zero between states two flips apart, and state
    # 1 has probability zero at level 3, whose independent-sampler chain has
    # zero entries
    pmf2 = np.array([0.1, 0.2, 0.3, 0.4])
    pmf3 = np.array([0.4, 0.0, 0.3, 0.3])
    zeros = os.path.join(workdir, "zeros_ladder.json")
    Path(zeros).write_text(json.dumps({"kind": "finite_ladder", "levels": [
        {"pmf": [0.25, 0.25, 0.25, 0.25], "P": None},
        {"pmf": pmf2.tolist(), "P": glauber_transition_matrix(pmf2, 2).P.tolist()},
        {"pmf": pmf3.tolist(), "P": np.tile(pmf3, (4, 1)).tolist()}]}))
    add("finite_zeros", readme(replicates=50, kernel=None, ladder={"kind": "from_file"},
                               target={"kind": "finite_ladder_file", "path": zeros},
                               estimand={"name": "mode_indicator", "mode_index": 1}), "run")
    # a level-1 pmf with a negative entry or a zero sum is a config error, before --out is made
    uniform = {"pmf": [0.5, 0.5], "P": [[0.5, 0.5], [0.5, 0.5]]}
    for name, levels in (("negative_pmf", [{"pmf": [-1, -1], "P": None}, uniform]),
                         ("negative_one_level", [{"pmf": [-1, 0], "P": None}]),
                         ("zero_pmf", [{"pmf": [0, 0], "P": None}, uniform])):
        path = os.path.join(workdir, f"{name}_ladder.json")
        Path(path).write_text(json.dumps({"kind": "finite_ladder", "levels": levels}))
        add(name, readme(replicates=5, **{
            **finite, "target": {"kind": "finite_ladder_file", "path": path}}), "run")
    # the level-1 Gaussian proposal of a tempered mixture, from full covariances
    add("tempering_full_cov", readme(target={
        "kind": "gaussian_mixture", "weights": [0.2, 0.5, 0.3],
        "means": [[-3.0, -3.0, 0.0], [3.0, 3.0, 0.0], [0.0, 2.0, -2.0]],
        "covariances": [[[1.0, 0.3, 0.0], [0.3, 0.5, 0.1], [0.0, 0.1, 0.8]],
                        [[0.6, -0.2, 0.1], [-0.2, 1.2, 0.0], [0.1, 0.0, 0.4]],
                        [[2.0, 0.5, 0.3], [0.5, 1.0, -0.2], [0.3, -0.2, 0.7]]]},
        estimand={"name": "indicator_halfspace", "coordinate": 2, "threshold": -1.0}), "run")
    # Σ w_i (Σ_i/β + m_i m_iᵀ) - m mᵀ loses Σ_i/β to rounding at means 1e9: the
    # proposal is refused when the ladder is built, before --out is made
    add("proposal_cancels", readme(
        target={"kind": "gaussian_mixture", "weights": [0.3, 0.7],
                "means": [[1e9, 1e9], [1e9, 1e9]], "covariances": [1e-6, 1e-6]},
        ladder={"kind": "tempering", "n_levels": 3, "beta_min": 0.05}), "run")
    # budgets past 2^62 kernel steps a particle are config errors, before --out is made
    add("langevin_past_limit", readme(time_policy={"mode": "explicit", "t": 1e308}), "run")
    add("metropolis_past_limit", readme(
        kernel={"kind": "metropolis_hastings", "proposal_scale": 1.0},
        time_policy={"mode": "explicit", "t": 1e20}), "run")
    add("sweep_past_limit", {**readme(exact_value=0.7), "sweep": {
        "parameter": "time_budget", "values": [0.01, 1e308], "replicates": 2}}, "sweep")
    add("per_level_budgets", readme(ladder={"kind": "tempering", "n_levels": 3, "beta_min": 0.2},
                                    time_policy={"mode": "explicit", "t": [0.0, 0.5, 1.5]}),
        "run")
    # the theorem's t_k on a one-component target: about 1 400 Langevin steps a particle
    add("theorem_budgets", readme(
        target={"kind": "gaussian_mixture", "weights": [1.0], "means": [[0.5]]},
        ladder={"kind": "tempering", "betas": [0.25, 0.5, 1.0]}, kernel={"kind": "langevin"},
        time_policy={"mode": "from_theorem"}), "run")
    # --seed replaces the config's master seed before the run is built
    add("finite_seed", readme(replicates=50, **finite), "run", seed=2**64 + 3)
    add("tempering_seed", {**readme(exact_value=0.7), "sweep": {
        "parameter": "n_particles", "values": [128, 256], "replicates": 4}}, "sweep", seed=5)
    add("moments", {"schema_version": 1, "bounds": {
        "mode": "high_probability", "epsilon": 0.2, "f_sup_bound": 1.0, "delta": 0.05, "p": 8,
        "n": 5, "M": 2, "w_star": 0.3, "gamma": 1.0, "c_star": [1.0, 2.0, 1.5, 1.0, 3.0]}},
        "bounds")
    chain = os.path.join(workdir, "chain.json")
    Path(chain).write_text(json.dumps({"P": [[0.5, 0.5], [0.25, 0.75]]}))
    add("scaled", {"schema_version": 1, "verify": {"trials_scale": 0.3, "chain_file": chain}},
        "verify")
    return cases + [["verify", ["--out", "verify", "--seed", "0", "verify"]],
                    ["verify_seed3", ["--out", "verify_seed3", "--seed", "3", "verify"]],
                    ["verify_default_seed", ["--out", "verify_default_seed", "verify"]]]


def run_side(cases: list) -> dict:
    """Every case through ``cli.main`` in this process and directory."""
    from smcmix.cli import main

    results = {}
    for name, argv in cases:
        out, err = io.StringIO(), io.StringIO()
        raised = None
        # catch_warnings resets the warnings registry, as a new process would
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an uncaught error: a difference in any case
                code = raised = f"{type(exc).__name__}: {exc}"
        out_dir = Path(argv[argv.index("--out") + 1])
        files = {f.name: f.read_text() for f in sorted(out_dir.glob("*"))}
        if "levels.csv" in files:
            rows = files["levels.csv"].splitlines()
            files["levels.csv"] = "\n".join(row.rsplit(",", 1)[0] for row in rows)
        results[name] = {"code": code, "raised": raised, "stdout": out.getvalue(),
                         "files": files,
                         "stderr": WARNING_AT.sub("<file>:<line>: ", err.getvalue())}
    return results


def child(pythonpath: str, cwd: str, *args):
    subprocess.run([sys.executable, os.path.abspath(__file__), *args], cwd=cwd, check=True,
                   env={**os.environ, "PYTHONPATH": pythonpath})


def main(parent_src: str, change_src: str) -> int:
    sides = {}
    with tempfile.TemporaryDirectory() as work:
        cases = os.path.join(work, "cases.json")
        child(os.pathsep.join([os.path.abspath(change_src), str(TESTS)]), work, "--cases", cases)
        for side, src in (("parent", parent_src), ("change", change_src)):
            os.makedirs(os.path.join(work, side))
            results = os.path.join(work, f"{side}.json")
            child(os.path.abspath(src), os.path.join(work, side), "--side", cases, results)
            sides[side] = json.loads(Path(results).read_text())
    differences = 0
    for name, parent in sides["parent"].items():
        change = sides["change"][name]
        for side, result in (("parent", parent), ("change", change)):
            if result["raised"]:
                differences += 1
                print(f"{name}: {side} raised {result['raised']}")
        for key in ("code", "stdout", "stderr"):
            if parent[key] != change[key]:
                differences += 1
                print(f"{name}: {key} differs\n  parent: {parent[key]!r}\n"
                      f"  change: {change[key]!r}")
        for file in sorted(set(parent["files"]) | set(change["files"])):
            if parent["files"].get(file) != change["files"].get(file):
                differences += 1
                print(f"{name}: {file} differs")
    print(f"{len(sides['parent'])} cases, {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    if sys.argv[1] == "--cases":
        Path(sys.argv[2]).write_text(json.dumps(make_cases(os.path.dirname(sys.argv[2]))))
    elif sys.argv[1] == "--side":
        cases = json.loads(Path(sys.argv[2]).read_text())
        Path(sys.argv[3]).write_text(json.dumps(run_side(cases)))
    else:
        sys.exit(main(*sys.argv[1:]))
