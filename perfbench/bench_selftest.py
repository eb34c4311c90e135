"""Self-test: every correctness check passes on the right reference values and
fails on a wrong one, so that none of them is vacuous.

Each workload runs at smoke size for a few seconds.  ``run_checks`` is then
called once with the right references and once per wrong one, each a value
that a broken sampler or oracle would match: the halfspace mass of an
equal-weight mixture, the level-1 value of the finite ladder (no
reweighting), a neighbouring seed, half the particle count, a shifted time
in ``expm``, a Poincare constant off by 0.1 % and one verify check too few.
Every check that ``run_checks`` returns must pass with the right references
and fail under at least one wrong one; a check added to ``run_checks`` later
is held to the same rule without any change here.
"""

from __future__ import annotations

import dataclasses
import os
import shutil

import bench_workloads as wl
import run as bench

SECONDS = 3.0


def wrong_references(inputs) -> dict:
    """One wrong value for every field of ``References``."""
    return {
        "halfspace_mass": 0.5 * wl.normal_cdf(-3.0) + 0.5 * wl.normal_cdf(3.0),
        "finite_value": float(wl.finite_pmfs()[0][0]),
        "expm_time_shift": 1e-3,
        "poincare_scale": 1.001,
        "seed_offset": 1,
        "n_particles": max(1, inputs.n_particles // 2),
        "verify_checks": wl.VERIFY_N_CHECKS - 1,
    }


def _collect(workload: str, seed: int):
    workdir = bench.WORK / f"selftest-{workload}-{os.getpid()}"
    try:
        smcmix, inputs = bench.set_up(workload, seed, True, workdir)
        loop = bench.Loop(smcmix, inputs, seed)
        _, first, problems = loop.command(0)
        if problems:
            raise SystemExit(f"self-test: {workload} warm-up failed: {problems}")
        loop.run_for(SECONDS)
        _, repeat, problems = loop.command(0)
        if problems or loop.failures:
            raise SystemExit(f"self-test: {workload} commands failed: {problems or loop.failures}")
        return smcmix, inputs, loop.outputs, first, repeat
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_workload(workload: str, seed: int) -> int:
    """Print which checks each wrong reference fails; return the number of faults."""
    smcmix, inputs, outputs, first, repeat = _collect(workload, seed)
    right = wl.run_checks(smcmix, inputs, outputs, first, repeat)
    caught = {name: [] for name, _, _ in right}
    bad = 0
    for name, ok, detail in right:
        if not ok:
            bad += 1
            print(f"{workload} {name}: FAILS with the right references ({detail})")
    for field, value in wrong_references(inputs).items():
        refs = dataclasses.replace(wl.RIGHT, **{field: value})
        failed = [name for name, ok, _ in
                  wl.run_checks(smcmix, inputs, outputs, first, repeat, refs) if not ok]
        for name in failed:
            caught.setdefault(name, []).append(field)
        print(f"{workload} wrong {field} = {value!r}: fails {', '.join(failed) or 'nothing'}")
    for name, fields in caught.items():
        if not fields:
            bad += 1
            print(f"{workload} {name}: no wrong reference makes it fail  <-- vacuous")
    return bad


def main(args) -> int:
    bad = sum(check_workload(workload, args.seed) for workload in wl.WORKLOADS)
    print(f"self-test: {'all checks discriminate' if not bad else f'{bad} faults'}")
    return 1 if bad else 0
