"""Command line: schema validation, exit codes, determinism, outputs."""

import csv
import functools
import json
import math
import os
import pickle
import re
import subprocess
import sys
import tempfile
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smcmix import cli, oracle, smc
from smcmix.cli import main
from smcmix.kernels import glauber_transition_matrix


def write_json(path, doc):
    """Write ``doc``; a config (it has a ``schema_version``) must first get
    the same verdict from ``cli.check_schema`` as from jsonschema."""
    if "schema_version" in doc:
        assert_checker_agrees(doc, "config.schema.json")
    path.write_text(json.dumps(doc))
    return str(path)


@functools.cache
def schema_and_reference(schema_name):
    """A package schema and its jsonschema validator, loaded once."""
    schema = cli._load_schema(schema_name)
    return schema, jsonschema.Draft202012Validator(schema)


def assert_checker_agrees(doc, schema_name):
    """``cli.check_schema`` finds errors at the same paths as jsonschema's
    Draft 2020-12 validator, its reference, so it accepts and rejects alike;
    a document it accepts comes back equal to ``doc``."""
    schema, reference = schema_and_reference(schema_name)
    checked, errors = cli.check_schema(schema, doc)
    assert ([list(path) for path, _ in errors]
            == sorted(list(err.absolute_path) for err in reference.iter_errors(doc))), errors
    if not errors:
        assert checked == doc


def base_experiment(**overrides):
    exp = {
        "target": {
            "kind": "gaussian_mixture",
            "weights": [0.3, 0.7],
            "means": [[-3.0, -3.0], [3.0, 3.0]],
        },
        "ladder": {"kind": "tempering", "n_levels": 4, "beta_min": 0.1},
        "time_policy": {"mode": "explicit", "t": 0.4},
        "n_particles": 200,
        "estimand": {"name": "indicator_halfspace", "coordinate": 0, "threshold": 0.0},
        "replicates": 3,
        "master_seed": 11,
    }
    exp.update(overrides)
    return exp


def bounds_section(**overrides):
    section = {
        "mode": "mse", "epsilon": 0.5, "f_sup_bound": 1.0,
        "n": 1, "M": 1, "w_star": 1.0, "gamma": 1.0, "c_star": 1.0,
    }
    section.update(overrides)
    return section


def finite_ladder_file(tmp_path):
    pmf1 = (0.3 * oracle.product_pmf([0.2, 0.7]) + 0.7 * oracle.product_pmf([0.8, 0.45]))
    pmf2 = 0.5 * oracle.product_pmf([0.3, 0.6]) + 0.5 * oracle.product_pmf([0.7, 0.4])
    chain2 = glauber_transition_matrix(pmf2, 2)
    doc = {
        "kind": "finite_ladder",
        "levels": [
            {"pmf": pmf1.tolist(), "P": None},
            {"pmf": pmf2.tolist(), "P": chain2.P.tolist()},
        ],
    }
    return write_json(tmp_path / "ladder.json", doc), pmf2


def finite_experiment(tmp_path, **overrides):
    path, _ = finite_ladder_file(tmp_path)
    return base_experiment(**{
        "target": {"kind": "finite_ladder_file", "path": path},
        "ladder": {"kind": "from_file"},
        "estimand": {"name": "mode_indicator", "mode_index": 0},
        **overrides,
    })


OUTPUT_SCHEMAS = {
    "run.json": "run_result.schema.json",
    "sweep.json": "sweep_result.schema.json",
    "bounds.json": "bound_report.schema.json",
    "verify.json": "verify_report.schema.json",
}


def assert_conforms(doc, schema_name):
    """The commands do not check what they emit: every output test does."""
    assert_checker_agrees(doc, schema_name)
    schema_and_reference(schema_name)[1].validate(doc)


def read_output(path):
    """Parse a written document, refusing NaN and Infinity (not JSON), and
    check it against the schema of its file name."""
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    doc = json.loads(path.read_text(), parse_constant=refuse)
    assert_conforms(doc, OUTPUT_SCHEMAS[path.name])
    return doc


def assert_summary_from_replicates(doc):
    """``run.json``'s summary is ``summarize_etas`` of its replicate etas."""
    summary = doc["summary"]
    stats = smc.summarize_etas([r["eta"] for r in doc["replicates"]], summary["exact_value"])
    assert summary["mean_eta"] == stats["mean_eta"]
    assert summary["var_eta"] == stats["variance"]
    assert summary["mse"] == stats["mse"]


def levels_without_wall_time(path):
    with open(path) as fh:
        return [row[:-1] for row in csv.reader(fh)]


ONE_COMPONENT = {"kind": "gaussian_mixture", "weights": [1.0], "means": [[1.0, -2.0]],
                 "covariances": [[[2.0, 0.3], [0.3, 1.0]]]}


def overflowing_convolution_experiment(**overrides):
    """d = 160 and betas [1e-5, 1]: the noised step's bound (1e5)^80 is beyond
    the float range."""
    d = 160
    return base_experiment(**{
        "target": {"kind": "gaussian_mixture", "weights": [0.3, 0.7],
                   "means": [[-3.0] * d, [3.0] * d]},
        "ladder": {"kind": "convolution", "betas": [1e-5, 1.0], "sigma": 1.0},
        "n_particles": 16,
        "replicates": 1,
        **overrides,
    })


def run_exit_code(tmp_path, exp):
    cfg = write_json(tmp_path / "c.json", {"schema_version": 1, "experiment": exp})
    return main(["--config", cfg, "--out", str(tmp_path / "o"), "--threads", "1", "run"])


SCHEMA_KERNEL_KINDS = cli._load_schema("config.schema.json")[
    "$defs"]["experiment"]["properties"]["kernel"]["properties"]["kind"]["enum"]


class TestConfigValidation:
    def test_unknown_field_rejected(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "c.json",
            {"schema_version": 1, "experiment": base_experiment(bogus=1)},
        )
        assert main(["--config", cfg, "--threads", "1", "run"]) == 2
        assert "schema validation" in capsys.readouterr().err

    def test_invalid_epsilon_rejected(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "c.json",
            {"schema_version": 1, "bounds": bounds_section(epsilon=0.0)},
        )
        assert main(["--config", cfg, "bounds"]) == 2

    def test_null_covariances_are_refused_as_non_finite(self, tmp_path, capsys):
        # the schema leaves covariance entries untyped: null reads as NaN
        target = {**base_experiment()["target"], "covariances": [None, None]}
        assert run_exit_code(tmp_path, base_experiment(target=target)) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "config error: mean and covariance must have finite entries"
        assert not (tmp_path / "o").exists()

    def test_level_one_proposal_that_cannot_be_built_exits_two(self, tmp_path, capsys):
        # valid in exact arithmetic, but Σ w_i (Σ_i/β + m_i m_iᵀ) - m mᵀ rounds to a
        # covariance that is not positive definite: refused when the ladder is built
        target = {"kind": "gaussian_mixture", "weights": [0.3, 0.7],
                  "means": [[1e9, 1e9], [1e9, 1e9]], "covariances": [1e-6, 1e-6]}
        exp = base_experiment(target=target,
                              ladder={"kind": "tempering", "n_levels": 3, "beta_min": 0.05})
        assert run_exit_code(tmp_path, exp) == 2
        assert (capsys.readouterr().err.splitlines()[-1]
                == "config error: covariance must be positive definite")
        assert not (tmp_path / "o").exists()

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.json"), "run"]) == 2

    def test_run_without_config(self):
        assert main(["--threads", "1", "run"]) == 2

    @pytest.mark.parametrize("finite", [False, True])
    def test_wrong_number_of_budgets_is_config_error(self, tmp_path, capsys, finite):
        policy = {"mode": "explicit", "t": [0.1, 0.2, 0.3]}
        exp = (finite_experiment(tmp_path, time_policy=policy) if finite
               else base_experiment(time_policy=policy))
        cfg = write_json(tmp_path / "c.json", {"schema_version": 1, "experiment": exp})
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--threads", "1",
                     "run"]) == 2
        assert "time budgets" in capsys.readouterr().err

    def test_ladder_file_level_without_chain_refused(self, tmp_path, capsys):
        doc = {"kind": "finite_ladder",
               "levels": [{"pmf": [0.5, 0.5], "P": None}, {"pmf": [0.2, 0.8]}]}
        path = write_json(tmp_path / "no_chain.json", doc)
        exp = finite_experiment(tmp_path, target={"kind": "finite_ladder_file", "path": path})
        assert run_exit_code(tmp_path, exp) == 2
        assert "level 2 needs a chain" in capsys.readouterr().err

    def test_kernel_section_with_ladder_file_refused(self, tmp_path, capsys):
        exp = finite_experiment(tmp_path, kernel={"kind": "metropolis_hastings"})
        assert run_exit_code(tmp_path, exp) == 2
        assert "smoothed by the chains P of its file" in capsys.readouterr().err

    def test_components_of_different_dimensions_refused(self, tmp_path, capsys):
        exp = base_experiment(target={
            "kind": "gaussian_mixture", "weights": [0.5, 0.5], "means": [[0.0], [1.0, 1.0]],
            "covariances": [[[1.0]], [[1.0, 0.0], [0.0, 1.0]]],
        })
        assert run_exit_code(tmp_path, exp) == 2
        assert "one dimension" in capsys.readouterr().err

    def test_ragged_means_are_refused_as_ragged(self, tmp_path, capsys):
        # without covariances, each mean gets the identity of its own length
        exp = base_experiment(target={"kind": "gaussian_mixture", "weights": [0.5, 0.5],
                                      "means": [[-3.0, -3.0], [3.0]]})
        assert run_exit_code(tmp_path, exp) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "config error: mixture components must share one dimension"
        assert not (tmp_path / "o" / "run.json").exists()

    @pytest.mark.parametrize("n_covs", [1, 3])
    def test_one_covariance_per_mean(self, tmp_path, capsys, n_covs):
        exp = base_experiment()
        exp["target"]["covariances"] = [np.eye(2).tolist()] * n_covs
        assert run_exit_code(tmp_path, exp) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"config error: 2 means need as many covariances, got {n_covs}"
        assert not (tmp_path / "o" / "run.json").exists()

    @pytest.mark.parametrize("command", ["run", "sweep", "verify"])
    def test_negative_seed_refused_when_parsed(self, tmp_path, capsys, command):
        # refused when parsed: SeedSequence would raise only once the work has started
        cfg = write_json(tmp_path / "c.json", {
            "schema_version": 1, "experiment": finite_experiment(tmp_path),
            "sweep": {"parameter": "n_particles", "values": [8], "replicates": 2}})
        out = tmp_path / "o"
        argv = ["--config", cfg, "--seed", "-1", "--out", str(out), "--threads", "1", command]
        if command == "verify":
            argv += ["--suite", "decomposition"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "argument --seed: must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_out_naming_a_file_is_refused_before_the_work(self, tmp_path, capsys, monkeypatch,
                                                         command):
        ran = []
        monkeypatch.setattr(cli, "_run_replicates", lambda *args: ran.append(args))
        monkeypatch.setattr(oracle, "run_verification_suite", lambda **kw: ran.append(kw))
        taken = tmp_path / "taken"
        taken.write_text("a file")
        cfg = write_json(tmp_path / "c.json",
                         {"schema_version": 1, "experiment": finite_experiment(tmp_path)})
        assert main(["--config", cfg, "--out", str(taken), "--threads", "1", command]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"config error: cannot create the output directory --out {taken}")
        assert ran == []
        assert taken.read_text() == "a file"

    def test_from_theorem_on_a_finite_ladder_refused(self, tmp_path, capsys):
        exp = finite_experiment(tmp_path, time_policy={"mode": "from_theorem"})
        assert run_exit_code(tmp_path, exp) == 2
        assert "from_theorem time policy needs an analytic ladder" in capsys.readouterr().err

    def test_finite_target_needs_a_from_file_ladder(self, tmp_path, capsys):
        exp = finite_experiment(tmp_path, ladder={"kind": "tempering"})
        assert run_exit_code(tmp_path, exp) == 2
        assert ("finite ladder targets and ladder.kind = from_file go together"
                in capsys.readouterr().err)


def schema_integer_names(node) -> set:
    """The names of the config schema's properties it types ``integer``."""
    names = set()
    if isinstance(node, dict):
        for name, sub in node.get("properties", {}).items():
            if isinstance(sub, dict) and sub.get("type") == "integer":
                names.add(name)
        for sub in node.values():
            names |= schema_integer_names(sub)
    elif isinstance(node, list):
        for sub in node:
            names |= schema_integer_names(sub)
    return names


def integer_names(doc) -> set:
    """The keys of ``doc`` (at any depth) that hold an ``int``."""
    if isinstance(doc, list):
        return set().union(*map(integer_names, doc))
    if not isinstance(doc, dict):
        return set()
    return {k for k, v in doc.items() if type(v) is int} | integer_names(list(doc.values()))


@pytest.mark.parametrize("name", ["indicator_halfspace", "mode_indicator"])
def test_integer_valued_floats_run_as_integers(tmp_path, capsys, name):
    # JSON Schema calls 64.0 an integer: the commands must run as with 64
    estimand = {"name": name, "coordinate": 1, "threshold": 0.0, "mode_index": 1}
    exp = base_experiment(ladder={"kind": "tempering", "n_levels": 3, "beta_min": 0.1},
                          n_particles=64, replicates=2, estimand=estimand, exact_value=0.7)
    cfg = {"schema_version": 1, "experiment": exp,
           "sweep": {"parameter": "n_particles", "values": [16.0, 32.0], "replicates": 2},
           "bounds": bounds_section(n=3, M=2, p=4, c_star=[1.0, 1.0, 1.0],
                                    convolution={"sigma": 1.0, "betas": [0.1], "d": 2})}
    assert schema_integer_names(cli._load_schema("config.schema.json")) <= integer_names(cfg)
    floats = json.loads(json.dumps(cfg), parse_int=float)
    assert integer_names(floats) == set()
    printed = {}
    for label, doc in (("int", cfg), ("float", floats)):
        path = write_json(tmp_path / f"{label}.json", doc)
        for command in ("run", "sweep", "bounds"):
            out = str(tmp_path / label / command)
            assert main(["--config", path, "--out", out, "--threads", "1", command]) == 0
        printed[label] = capsys.readouterr().out.replace(str(tmp_path / label), "<out>")
    assert printed["int"] == printed["float"]
    for file in ("run/run.json", "run/replicates.csv", "sweep/sweep.json", "sweep/sweep.csv",
                 "bounds/bounds.json"):
        assert (tmp_path / "int" / file).read_bytes() == (tmp_path / "float" / file).read_bytes()
    assert (levels_without_wall_time(tmp_path / "int" / "run" / "levels.csv")
            == levels_without_wall_time(tmp_path / "float" / "run" / "levels.csv"))


class TestRun:
    @pytest.mark.parametrize("kind", SCHEMA_KERNEL_KINDS)
    def test_every_schema_kernel_kind_runs(self, tmp_path, kind):
        exp = base_experiment(
            ladder={"kind": "convolution", "n_levels": 3, "beta_min": 0.1, "sigma": 3.0},
            kernel={"kind": kind}, time_policy={"mode": "explicit", "t": 0.2},
            n_particles=50, replicates=1,
        )
        assert run_exit_code(tmp_path, exp) == 0
        read_output(tmp_path / "o" / "run.json")

    def test_outputs_written_and_valid(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "c.json", {"schema_version": 1, "experiment": base_experiment()}
        )
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--threads", "1", "run"]) == 0
        doc = read_output(out / "run.json")
        assert doc["schema_version"] == 1
        assert len(doc["replicates"]) == 3
        assert doc["summary"]["mse"] is None  # no exact value
        assert_summary_from_replicates(doc)
        with open(out / "replicates.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert {"replicate", "seed", "eta", "nu"} <= set(rows[0])
        with open(out / "levels.csv") as fh:
            level_rows = list(csv.DictReader(fh))
        assert len(level_rows) == 3 * 3  # replicates x (levels - 1)

    def test_output_check_refuses_a_document_off_its_schema(self, tmp_path):
        assert run_exit_code(tmp_path, base_experiment(replicates=1, n_particles=50)) == 0
        path = tmp_path / "o" / "run.json"
        doc = read_output(path)
        del doc["replicates"][0]["eta"]
        path.write_text(json.dumps(doc))
        with pytest.raises(jsonschema.ValidationError, match="'eta' is a required property"):
            read_output(path)

    def test_same_seed_byte_identical_json(self, tmp_path):
        cfg = write_json(
            tmp_path / "c.json", {"schema_version": 1, "experiment": base_experiment()}
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["--config", cfg, "--out", str(out1), "--threads", "1", "run"]) == 0
        assert main(["--config", cfg, "--out", str(out2), "--threads", "1", "run"]) == 0
        assert (out1 / "run.json").read_bytes() == (out2 / "run.json").read_bytes()

    def test_worker_pool_matches_serial(self, tmp_path):
        # replicates are merged by index: process-pool output is byte-identical
        experiments = {
            "tempering": base_experiment(),  # 3 replicates: chunks of 2 and 1
            # blocks of 2^16 // (300 * 4) = 54 replicates: serial blocks 54, 54,
            # 12, pooled chunks of 60 each split into 54 and 6
            "finite": finite_experiment(tmp_path, n_particles=300, replicates=120),
            "convolution": base_experiment(
                ladder={"kind": "convolution", "n_levels": 4, "beta_min": 0.1, "sigma": 3.0},
                estimand={"name": "coordinate_mean", "coordinate": 1}, n_particles=100),
            # one component: the levels carry a normalized ratio, so nu is written
            "one_component": base_experiment(
                target=ONE_COMPONENT, n_particles=100,
                kernel={"kind": "metropolis_hastings", "proposal_scale": 0.5}),
            "mode_indicator": base_experiment(
                estimand={"name": "mode_indicator", "mode_index": 1}, n_particles=100),
        }
        for name, exp in experiments.items():
            cfg = write_json(tmp_path / f"{name}.json",
                             {"schema_version": 1, "experiment": exp})
            serial, pooled = tmp_path / f"{name}_serial", tmp_path / f"{name}_pooled"
            assert main(["--config", cfg, "--out", str(serial), "--threads", "1", "run"]) == 0
            assert main(["--config", cfg, "--out", str(pooled), "--threads", "2", "run"]) == 0
            for out in ("run.json", "replicates.csv"):
                assert (serial / out).read_bytes() == (pooled / out).read_bytes(), (name, out)
            assert (levels_without_wall_time(serial / "levels.csv")
                    == levels_without_wall_time(pooled / "levels.csv")), name
        one = read_output(tmp_path / "one_component_pooled" / "run.json")
        assert one["summary"]["mean_nu"] is not None

    def test_single_replicate_runs_without_a_pool(self, tmp_path, monkeypatch):
        exp = base_experiment(replicates=1)
        cfg = write_json(tmp_path / "c.json", {"schema_version": 1, "experiment": exp})
        serial, threaded = tmp_path / "serial", tmp_path / "threaded"
        assert main(["--config", cfg, "--out", str(serial), "--threads", "1", "run"]) == 0

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(ProcessPoolExecutor, "__init__", no_pool)
        assert main(["--config", cfg, "--out", str(threaded), "--threads", "2", "run"]) == 0
        for out in ("run.json", "replicates.csv"):
            assert (serial / out).read_bytes() == (threaded / out).read_bytes(), out
        assert (levels_without_wall_time(serial / "levels.csv")
                == levels_without_wall_time(threaded / "levels.csv"))

    def test_threads_default_to_the_usable_cpus(self, tmp_path, monkeypatch):
        seen = []

        def record_threads(cfg, out_dir, threads):
            seen.append(threads)
            return 0

        monkeypatch.setattr(cli, "cmd_run", record_threads)
        # a process pinned to one CPU of a larger machine
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        cfg = write_json(tmp_path / "c.json",
                         {"schema_version": 1, "experiment": base_experiment()})
        assert main(["--config", cfg, "run"]) == 0
        assert seen == [1]

    def test_pooled_replicate_pickles_small(self):
        # a worker returns what `run` writes, not the final N = 10 000 ensemble
        exp = base_experiment(
            n_particles=10_000, replicates=1,
            ladder={"kind": "convolution", "n_levels": 10, "beta_min": 0.05, "sigma": 3.0},
            time_policy={"mode": "explicit", "t": 0.1},
        )
        config, _ = cli.build_smc_config(exp)
        (rep,) = cli._run_chunk(config, [smc.replicate_seed(11, 0)])
        assert len(rep[0]["ess_per_level"]) == 10
        assert len(pickle.dumps(rep)) < 2048

    def test_every_config_kind_pickles_and_runs_alike(self, tmp_path):
        # a pool worker is sent the pickled config: every ladder and estimand kind
        experiments = [
            base_experiment(estimand={"name": "constant", "value": 2.5}),
            base_experiment(target=ONE_COMPONENT,
                            estimand={"name": "coordinate_mean", "coordinate": 0}),
            base_experiment(
                ladder={"kind": "convolution", "n_levels": 3, "beta_min": 0.1, "sigma": 3.0},
                estimand={"name": "mode_indicator", "mode_index": 0}),
            base_experiment(),  # indicator_halfspace
            finite_experiment(tmp_path),  # mode_indicator over states
            finite_experiment(tmp_path, estimand={"name": "indicator_halfspace",
                                                  "threshold": 1.5}),
        ]
        for exp in experiments:
            config, _ = cli.build_smc_config(exp)
            copy = pickle.loads(pickle.dumps(config))
            for a, b in zip(smc.run_replicates(config, 2), smc.run_replicates(copy, 2),
                            strict=True):
                assert a.eta_estimate == b.eta_estimate
                assert a.nu_estimate == b.nu_estimate
                assert a.ess_per_level == b.ess_per_level
                assert a.weight_sums_per_level == b.weight_sums_per_level
                assert (a.final_ensemble.particles.tobytes()
                        == b.final_ensemble.particles.tobytes())

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_pooled_command_builds_config_once(self, tmp_path, monkeypatch, command):
        # calls are counted in a file, so that calls in forked workers are seen
        log = tmp_path / "builds.log"

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                with open(log, "a") as fh:
                    fh.write(name + "\n")
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "build_smc_config",
                            counting("config", cli.build_smc_config))
        monkeypatch.setattr(cli.sequences, "build_power_tempering",
                            counting("ladder", cli.sequences.build_power_tempering))
        exp = base_experiment(replicates=6, n_particles=50, exact_value=0.7)
        cfg = write_json(tmp_path / "c.json", {
            "schema_version": 1, "experiment": exp,
            "sweep": {"parameter": "n_particles", "values": [30, 60], "replicates": 6},
        })
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--threads", "2",
                     command]) == 0
        assert log.read_text().split() == ["config", "ladder"]

    def test_weights_beyond_the_float_range_give_a_finite_ess(self, tmp_path):
        # d = 60, beta 0.05 -> 1: the raw weights are ~1e-173, so their squares
        # underflow to 0 and the ESS was NaN, which stopped the dump of run.json
        exp = base_experiment(
            target={"kind": "gaussian_mixture", "weights": [0.3, 0.7],
                    "means": [[-3.0] * 60, [3.0] * 60]},
            ladder={"kind": "tempering", "betas": [0.05, 1.0]},
            kernel={"kind": "langevin", "step_size": 0.05},
            time_policy={"mode": "explicit", "t": 1.0},
            n_particles=512, replicates=1, master_seed=3,
        )
        assert run_exit_code(tmp_path, exp) == 0
        (rep,) = read_output(tmp_path / "o" / "run.json")["replicates"]
        assert rep["ess_per_level"] == [pytest.approx(1.0)]  # one particle dominates

    def test_serial_run_builds_config_once(self, tmp_path, monkeypatch):
        calls = []
        build = cli.build_smc_config

        def counting_build(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(cli, "build_smc_config", counting_build)
        cfg = write_json(
            tmp_path / "c.json", {"schema_version": 1, "experiment": base_experiment()}
        )
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--threads", "1",
                     "run"]) == 0
        assert len(calls) == 1

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_json(
            tmp_path / "c.json", {"schema_version": 1, "experiment": base_experiment()}
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["--config", cfg, "--out", str(out1), "--threads", "1", "run"])
        main(["--config", cfg, "--out", str(out2), "--seed", "99", "--threads", "1", "run"])
        a = read_output(out1 / "run.json")
        b = read_output(out2 / "run.json")
        assert a["master_seed"] == 11 and b["master_seed"] == 99
        assert a["replicates"][0]["eta"] != b["replicates"][0]["eta"]

    @pytest.mark.parametrize("master", [5, 2**64 + 3])
    def test_master_seeds_of_one_and_three_words(self, tmp_path, master):
        # replicate i runs at SeedSequence((master, i)), and each replicate is
        # its lone run at that seed
        exp = finite_experiment(tmp_path, n_particles=64, replicates=5)
        cfg = write_json(tmp_path / "c.json", {"schema_version": 1, "experiment": exp})
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--seed", str(master),
                     "--threads", "1", "run"]) == 0
        doc = read_output(out / "run.json")
        assert doc["master_seed"] == master
        seeds = [int(np.random.SeedSequence((master, i)).generate_state(1, np.uint64)[0])
                 for i in range(5)]
        assert [r["seed"] for r in doc["replicates"]] == seeds
        config, _ = cli.build_smc_config(exp)
        lone = [smc.run_smc(replace(config, master_seed=s)).eta_estimate for s in seeds]
        assert [r["eta"] for r in doc["replicates"]] == lone

    @pytest.mark.parametrize("command, files", [("run", ("run.json", "replicates.csv")),
                                                ("sweep", ("sweep.json", "sweep.csv"))])
    def test_seed_flag_writes_what_its_master_seed_writes(self, tmp_path, command, files):
        # --seed S is the config with master_seed S, byte for byte
        seed = 2**64 + 3
        exp = finite_experiment(tmp_path, n_particles=64, replicates=4)
        sweep = {"parameter": "n_particles", "values": [32, 64], "replicates": 4}
        flagged = write_json(tmp_path / "flagged.json",
                             {"schema_version": 1, "experiment": exp, "sweep": sweep})
        configured = write_json(tmp_path / "configured.json", {
            "schema_version": 1, "experiment": {**exp, "master_seed": seed}, "sweep": sweep})
        assert main(["--config", flagged, "--out", str(tmp_path / "a"), "--seed", str(seed),
                     "--threads", "1", command]) == 0
        assert main(["--config", configured, "--out", str(tmp_path / "b"), "--threads", "1",
                     command]) == 0
        for name in files:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_finite_ladder_target(self, tmp_path):
        path, pmf2 = finite_ladder_file(tmp_path)
        exp = base_experiment(
            target={"kind": "finite_ladder_file", "path": path},
            ladder={"kind": "from_file"},
            estimand={"name": "mode_indicator", "mode_index": 0},
            n_particles=400,
            replicates=4,
        )
        cfg = write_json(tmp_path / "c.json", {"schema_version": 1, "experiment": exp})
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--threads", "1", "run"]) == 0
        doc = read_output(out / "run.json")
        assert doc["summary"]["exact_value"] == pytest.approx(float(pmf2[0]))
        assert doc["summary"]["mse"] is not None
        assert_summary_from_replicates(doc)

    @pytest.mark.parametrize("finite", [False, True])
    def test_replicate_entries_are_the_run_records(self, tmp_path, finite):
        # each entry is SmcRunResult.to_dict(), through the worker pool too
        exp = finite_experiment(tmp_path) if finite else base_experiment()
        cfg = write_json(tmp_path / "c.json", {"schema_version": 1, "experiment": exp})
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--threads", "2", "run"]) == 0
        config, _ = cli.build_smc_config(exp)
        records = smc.run_replicates(config, exp["replicates"])
        entries = read_output(out / "run.json")["replicates"]
        assert entries == [{"replicate": i, **r.to_dict()} for i, r in enumerate(records)]
        rates = [r.init_acceptance_rate for r in records]
        if finite:  # an exact level-1 draw, and nu from the normalized weight sums
            assert rates == [1.0] * 3 and None not in [r.nu_estimate for r in records]
        else:  # a two-mode tempering ladder starts from a weighted proposal draw
            assert all(0 < rate < 1 for rate in rates)

    def test_from_theorem_time_policy(self, tmp_path):
        # single Gaussian: gamma = 2^{d/2} per step, t_k = 2 C*_k gamma^7
        exp = base_experiment(
            target={"kind": "gaussian_mixture", "weights": [1.0], "means": [[0.0]]},
            ladder={"kind": "tempering", "betas": [0.5, 1.0]},
            time_policy={"mode": "from_theorem"},
            n_particles=50,
            replicates=1,
        )
        cfg = write_json(tmp_path / "c.json", {"schema_version": 1, "experiment": exp})
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--threads", "1", "run"]) == 0
        from smcmix.cli import build_smc_config

        config, _ = build_smc_config(exp)
        gamma = config.ladder.gamma_bound
        assert gamma == pytest.approx(2.0 ** 0.5)
        budgets = [lv.time_budget for lv in config.ladder.levels]
        assert budgets[0] == pytest.approx(2.0 * (1.0 / 0.5) * gamma ** 7)
        assert budgets[1] == pytest.approx(2.0 * 1.0 * gamma ** 7)

    def test_from_theorem_refuses_infeasible_budgets(self, tmp_path):
        exp = base_experiment(
            time_policy={"mode": "from_theorem", "max_total_steps": 10}
        )
        cfg = write_json(tmp_path / "c.json", {"schema_version": 1, "experiment": exp})
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--threads", "1",
                     "run"]) == 2

    def test_from_theorem_budget_beyond_float_range_is_config_error(self, tmp_path, capsys):
        # d = 80: one tempering step from beta 0.05 has gamma ~ 3.7e52, so
        # gamma^7 is not a float
        exp = base_experiment(
            target={"kind": "gaussian_mixture", "weights": [0.3, 0.7],
                    "means": [[-3.0] * 80, [3.0] * 80]},
            ladder={"kind": "tempering", "n_levels": 2, "beta_min": 0.05},
            time_policy={"mode": "from_theorem"},
            n_particles=20,
            replicates=1,
        )
        cfg = write_json(tmp_path / "c.json", {"schema_version": 1, "experiment": exp})
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--threads", "1",
                     "run"]) == 2
        err = capsys.readouterr().err
        assert "gamma" in err and "overflow" in err and "Traceback" not in err

    def test_from_theorem_counts_langevin_steps_with_level_step_size(self, tmp_path, capsys):
        # t_2 = 2 * 1 * 2^(7/2) ~ 22.6 needs ceil(22.6 / 0.005) = 4526 ULA steps
        exp = base_experiment(
            target={"kind": "gaussian_mixture", "weights": [1.0], "means": [[0.0]]},
            ladder={"kind": "tempering", "betas": [0.5, 1.0]},
            kernel={"kind": "langevin", "step_size": 0.005},
            time_policy={"mode": "from_theorem", "max_total_steps": 2000},
            n_particles=20,
            replicates=1,
        )
        cfg = write_json(tmp_path / "c.json", {"schema_version": 1, "experiment": exp})
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--threads", "1",
                     "run"]) == 2
        assert "~4.53e+03 kernel steps" in capsys.readouterr().err

    def test_from_theorem_counts_poissonized_jumps(self, tmp_path):
        # Metropolis-Hastings smooths by ~Poisson(t_2) jumps, t_2 ~ 22.6
        exp = base_experiment(
            target={"kind": "gaussian_mixture", "weights": [1.0], "means": [[0.0]]},
            ladder={"kind": "tempering", "betas": [0.5, 1.0]},
            kernel={"kind": "metropolis_hastings"},
            time_policy={"mode": "from_theorem", "max_total_steps": 1000},
            n_particles=20,
            replicates=1,
        )
        cfg = write_json(tmp_path / "c.json", {"schema_version": 1, "experiment": exp})
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--threads", "1",
                     "run"]) == 0

    def test_overflowing_convolution_step_bound_runs_with_explicit_times(self, tmp_path):
        assert run_exit_code(tmp_path, overflowing_convolution_experiment()) in (0, 3)

    def test_overflowing_convolution_step_bound_refuses_theorem_times(self, tmp_path, capsys):
        exp = overflowing_convolution_experiment(time_policy={"mode": "from_theorem"})
        assert run_exit_code(tmp_path, exp) == 2
        assert "t_k = 2 C*_k gamma^7 overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("command, kernel, t", [
        ("run", {"kind": "langevin", "step_size": 0.05}, 1e308),  # ceil(t/h) is inf
        ("run", {"kind": "metropolis_hastings"}, 1e20),  # past numpy's Poisson mean
        ("sweep", {"kind": "langevin", "step_size": 0.05}, 1e308),
    ])
    def test_budget_past_the_step_limit_is_config_error(self, tmp_path, capsys, command,
                                                        kernel, t):
        exp = base_experiment(
            target={"kind": "gaussian_mixture", "weights": [0.5, 0.5], "means": [[-1.0], [1.0]]},
            ladder={"kind": "tempering", "betas": [0.5, 1.0]},
            kernel=kernel, n_particles=4, replicates=2, exact_value=0.0,
        )
        cfg = {"schema_version": 1, "experiment": exp}
        if command == "run":
            exp["time_policy"] = {"mode": "explicit", "t": t}
        else:
            cfg["sweep"] = {"parameter": "time_budget", "values": [0.01, t], "replicates": 2}
        path = write_json(tmp_path / "c.json", cfg)
        out = tmp_path / "o"
        assert main(["--config", path, "--out", str(out), "--threads", "1", command]) == 2
        err = capsys.readouterr().err
        assert f"config error: time budget {t:g} at level 2 takes" in err
        assert "Traceback" not in err and not out.exists()

    def test_step_limit_is_two_to_the_sixty_two(self, tmp_path):
        # a finite ladder smooths by Poissonized jumps: t expected jumps
        ladder = cli._load_finite_ladder(finite_ladder_file(tmp_path)[0])
        below = math.nextafter(2.0 ** 62, 0.0)
        assert ladder.with_budgets(below).levels[1].time_budget == below
        with pytest.raises(ValueError, match="not below 2\\^62"):
            ladder.with_budgets(2.0 ** 62)

    def tiny_step_config(self, tmp_path, **overrides):
        """A Langevin step of 1e-19, so that a unit budget takes 1e19 steps;
        an override of None drops its key."""
        exp = base_experiment(
            target={"kind": "gaussian_mixture", "weights": [0.5, 0.5], "means": [[-1.0], [1.0]]},
            ladder={"kind": "tempering", "betas": [0.5, 1.0]},
            kernel={"kind": "langevin", "step_size": 1e-19},
            n_particles=4, replicates=1, **overrides)
        exp = {k: v for k, v in exp.items() if v is not None}
        derived = {"mode": "mse", "epsilon": 0.5, "f_sup_bound": 1.0}  # constants from the ladder
        return write_json(tmp_path / "c.json", {"schema_version": 1, "experiment": exp,
                                                "bounds": derived})

    def test_default_budget_past_the_step_limit_is_config_error(self, tmp_path):
        # no time_policy: the unit budget takes 1e19 steps a particle, refused
        # before --out is made (a run that starts would not end: the timeout fails it)
        cfg = self.tiny_step_config(tmp_path, time_policy=None)
        out = tmp_path / "o"
        proc = run_python("-m", "smcmix.cli", "--config", cfg, "--out", str(out),
                          "--threads", "1", "run", cwd=tmp_path, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.endswith("config error: time budget 1 at level 2 takes ~1e+19 kernel "
                                    "steps per particle, not below 2^62\n")
        assert not out.exists()

    def test_zero_budget_runs_at_any_step(self, tmp_path):
        # the ladder is built at time 0, so t = 0 runs and bounds derives from it
        cfg = self.tiny_step_config(tmp_path, time_policy={"mode": "explicit", "t": 0})
        for command in ("run", "bounds"):
            assert main(["--config", cfg, "--out", str(tmp_path / command), "--threads", "1",
                         command]) == 0

    def test_degenerate_run_exits_three(self, tmp_path, capsys):
        def run(levels, **overrides):
            path = write_json(tmp_path / "ladder.json", {"kind": "finite_ladder", "levels": levels})
            exp = base_experiment(
                target={"kind": "finite_ladder_file", "path": path},
                ladder={"kind": "from_file"},
                estimand={"name": "constant", "value": 1.0},
                replicates=1, **overrides,
            )
            cfg = write_json(tmp_path / "c.json", {"schema_version": 1, "experiment": exp})
            return main(["--config", cfg, "--out", str(tmp_path / "o"), "--threads", "1", "run"])

        # disjoint supports are refused as a config error, before any file
        assert run([{"pmf": [0.5, 0.5, 0.0, 0.0], "P": None},
                    {"pmf": [0.0, 0.0, 0.5, 0.5], "P": [[0.0, 0.0, 0.5, 0.5]] * 4}]) == 2
        assert "level 2 puts mass 0.5 on state 2, which level 1 gives probability 0" \
            in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        # a valid ladder whose one particle starts in state 1, which level 2
        # gives probability 0
        assert run([{"pmf": [0.5, 0.5], "P": None},
                    {"pmf": [1.0, 0.0], "P": [[1.0, 0.0], [1.0, 0.0]]}],
                   n_particles=1, master_seed=0) == 3
        assert "degenerate weights at level 2" in capsys.readouterr().err

    def test_level_outside_previous_support_exits_two(self, tmp_path, capsys):
        # uniform after [0.5, 0.5, 0, 0]: the particles never reach state 2,
        # so a run would report its mass 0.25 as 0
        path = write_json(tmp_path / "ladder.json", {"kind": "finite_ladder", "levels": [
            {"pmf": [0.5, 0.5, 0.0, 0.0], "P": None},
            {"pmf": [0.25] * 4, "P": [[0.25] * 4] * 4}]})
        exp = base_experiment(target={"kind": "finite_ladder_file", "path": path},
                              ladder={"kind": "from_file"},
                              estimand={"name": "mode_indicator", "mode_index": 2},
                              time_policy={"mode": "explicit", "t": 0.0},
                              n_particles=1000, replicates=4)
        cfg = write_json(tmp_path / "c.json", {"schema_version": 1, "experiment": exp})
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out), "--threads", "1", "run"]) == 2
        assert ("config error: level 2 puts mass 0.25 on state 2, which level 1 gives "
                "probability 0") in capsys.readouterr().err
        assert not out.exists()

    def test_diverging_langevin_exits_three(self, tmp_path, capsys):
        # ULA with step 5 on a two-level convolution ladder overflows the state
        exp = base_experiment(
            ladder={"kind": "convolution", "betas": [0.5], "sigma": 1.0},
            kernel={"kind": "langevin", "step_size": 5.0},
            time_policy={"mode": "explicit", "t": 2000},
            n_particles=64, replicates=1, master_seed=1,
        )
        cfg = write_json(tmp_path / "c.json", {"schema_version": 1, "experiment": exp})
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--threads", "1", "run"]) == 3
        assert "non-finite gradient" in capsys.readouterr().err

    def test_diverging_langevin_inside_a_block_exits_three(self, tmp_path, capsys):
        # four replicates of 64 particles on a two-mode target form one block
        exp = base_experiment(
            ladder={"kind": "convolution", "betas": [0.5], "sigma": 1.0},
            kernel={"kind": "langevin", "step_size": 5.0},
            time_policy={"mode": "explicit", "t": 2000},
            n_particles=64, replicates=4, master_seed=1,
        )
        assert smc._block_size(cli.build_smc_config(exp)[0]) >= 4
        assert run_exit_code(tmp_path, exp) == 3
        assert "non-finite gradient" in capsys.readouterr().err

    @pytest.mark.parametrize("ladder", ["tempering", "convolution"])
    def test_langevin_without_step_size_takes_level_defaults(self, tmp_path, ladder):
        # covariances 0.01 I: the level defaults are h = 0.0005 and below, where a
        # fixed h = 0.05 collapses a tempering run's last ESS
        spec = {"kind": ladder, "n_levels": 4, "beta_min": 0.1}
        if ladder == "convolution":
            spec["sigma"] = 1.0
        exp = base_experiment(
            target={"kind": "gaussian_mixture", "weights": [0.3, 0.7],
                    "means": [[-3.0, -3.0], [3.0, 3.0]], "covariances": [0.01, 0.01]},
            ladder=spec, n_particles=200, master_seed=7,
        )
        docs = []
        for name, kernel in (("none", None), ("langevin", {"kind": "langevin"})):
            cfg = write_json(tmp_path / f"{name}.json", {"schema_version": 1, "experiment": (
                exp if kernel is None else {**exp, "kernel": kernel})})
            out = tmp_path / name
            assert main(["--config", cfg, "--out", str(out), "--threads", "1", "run"]) == 0
            docs.append((out / "run.json").read_bytes())
        assert docs[0] == docs[1]

    def test_tempering_starts_in_dimension_fifty(self, tmp_path):
        d = 50
        exp = base_experiment(
            target={"kind": "gaussian_mixture", "weights": [0.3, 0.7],
                    "means": [[-3.0] * d, [3.0] * d]},
            ladder={"kind": "tempering", "n_levels": 10, "beta_min": 0.05},
            kernel={"kind": "langevin", "step_size": 0.05},
            time_policy={"mode": "explicit", "t": 1.0},
            n_particles=512, replicates=1, master_seed=3,
        )
        cfg = write_json(tmp_path / "c.json", {"schema_version": 1, "experiment": exp})
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out), "--threads", "1", "run"]) == 0
        rate = read_output(out / "run.json")["replicates"][0]["init_acceptance_rate"]
        assert 0 < rate <= 1


class TestBounds:
    def test_golden_values(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "c.json", {"schema_version": 1, "bounds": bounds_section()}
        )
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "bounds"]) == 0
        doc = read_output(out / "bounds.json")
        assert doc["prescribed_N"] == 128
        assert doc["prescribed_t_per_level"] == [2.0]
        printed = capsys.readouterr().out
        assert "prescribed N" in printed  # aligned table alongside the JSON

    def test_out_naming_a_file_is_refused_before_the_report(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("a file")
        cfg = write_json(tmp_path / "c.json", {"schema_version": 1, "bounds": bounds_section()})
        assert main(["--config", cfg, "--out", str(taken), "bounds"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"config error: cannot create the output directory --out {taken}")
        assert taken.read_text() == "a file"

    def test_high_probability_and_tv_branches(self, tmp_path):
        for mode, expected in (("high_probability", 640.0), ("tv", 64.0)):
            cfg = write_json(
                tmp_path / f"{mode}.json",
                {"schema_version": 1, "bounds": bounds_section(mode=mode, delta=0.1)},
            )
            out = tmp_path / mode
            assert main(["--config", cfg, "--out", str(out), "bounds"]) == 0
            doc = read_output(out / "bounds.json")
            assert doc["n_variance_branch"] == pytest.approx(expected)

    def test_derives_constants_from_experiment(self, tmp_path):
        cfg = write_json(
            tmp_path / "c.json",
            {
                "schema_version": 1,
                "experiment": base_experiment(),
                "bounds": {"mode": "tv", "epsilon": 0.5, "f_sup_bound": 1.0},
            },
        )
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "bounds"]) == 0
        doc = read_output(out / "bounds.json")
        assert doc["inputs"]["M"] == 2
        assert doc["inputs"]["n"] == 4
        assert doc["inputs"]["gamma"] > 1.0

    @pytest.mark.parametrize("ladder,given,beta", [
        # convolution levels keep the target weights: beta = 1 + sum_i 1/w_i
        ({"kind": "convolution", "betas": [0.25, 1.0], "sigma": 2.0}, {},
         1.0 + 1.0 / 0.3 + 1.0 / 0.7),
        # tempering weights are only bounded: beta = 1 + M/w_star, w_star = 0.3^2
        ({"kind": "tempering", "n_levels": 4, "beta_min": 0.1}, {}, 1.0 + 2.0 / 0.09),
        # an explicit M or w_star describes another mixture than the
        # experiment's: the worst case over M weights of at least w_star
        ({"kind": "convolution", "betas": [0.25, 1.0], "sigma": 2.0},
         {"M": 2, "w_star": 0.09}, 1.0 + 2.0 / 0.09),
        # M alone keeps the derived w_star, the smallest target weight
        ({"kind": "convolution", "betas": [0.25, 1.0], "sigma": 2.0},
         {"M": 2}, 1.0 + 2.0 / 0.3),
        ({"kind": "convolution", "betas": [0.25, 1.0], "sigma": 2.0},
         {"w_star": 0.09}, 1.0 + 2.0 / 0.09),
    ])
    def test_single_step_beta_from_derived_weights(self, tmp_path, ladder, given, beta):
        cfg = write_json(
            tmp_path / "c.json",
            {"schema_version": 1, "experiment": base_experiment(ladder=ladder),
             "bounds": {"mode": "tv", "epsilon": 0.5, "f_sup_bound": 1.0, **given}},
        )
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "bounds"]) == 0
        doc = read_output(out / "bounds.json")
        assert doc["beta"] == pytest.approx(beta, rel=1e-15)

    @pytest.mark.parametrize("ladder,w_star", [
        # convolution levels keep the target weights: the smallest one
        ({"kind": "convolution", "betas": [0.25, 1.0], "sigma": 2.0}, 0.3),
        # tempering levels only have the lower bound alpha_min^2
        ({"kind": "tempering", "n_levels": 4, "beta_min": 0.1}, 0.3 ** 2),
    ])
    @pytest.mark.parametrize("given", [{}, {"M": 2}])
    def test_derived_w_star(self, tmp_path, ladder, w_star, given):
        cfg = write_json(
            tmp_path / "c.json",
            {"schema_version": 1, "experiment": base_experiment(ladder=ladder),
             "bounds": {"mode": "tv", "epsilon": 0.5, "f_sup_bound": 1.0, **given}},
        )
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "bounds"]) == 0
        assert read_output(out / "bounds.json")["inputs"]["w_star"] == pytest.approx(
            w_star, rel=1e-15)

    def test_convolution_section_adds_the_noise_once_at_the_ladder_gamma(self, tmp_path):
        # README target: the ladder's C*_k are 1 + 4/0.25, 1 + 4/1 and 1, and
        # its de-noising step's bound 5 tops the noised step's (1/0.25)^(2/2) = 4
        exp = base_experiment(ladder={"kind": "convolution", "betas": [0.25, 1.0],
                                      "sigma": 2.0})
        cfg = write_json(tmp_path / "c.json", {
            "schema_version": 1, "experiment": exp,
            "bounds": {"mode": "tv", "epsilon": 0.1, "f_sup_bound": 1.0,
                       "convolution": {"sigma": 2.0, "betas": [0.25, 1.0], "d": 2}},
        })
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "bounds"]) == 0
        inputs = read_output(out / "bounds.json")["inputs"]
        ladder = cli.build_smc_config(exp)[0].ladder
        c_star = [lv.lsi_constant_bound for lv in ladder.levels]
        assert inputs["c_star_per_level"] == c_star == [17.0, 5.0, 1.0]
        assert inputs["gamma"] == ladder.gamma_bound == pytest.approx(5.0)

    @pytest.mark.parametrize("given,convolution,message", [
        # the README ladder has two noised levels; a third beta charges the target
        ({}, {"sigma": 2.0, "betas": [0.1, 0.25, 1.0], "d": 2}, "has 2 noised levels"),
        ({"n": 3, "M": 2, "w_star": 0.3, "gamma": 5.0, "c_star": 1.0},
         {"sigma": 2.0, "betas": [0.1, 0.25, 1.0], "d": 2}, "has 2 noised levels"),
        ({}, {"sigma": 2.0, "betas": [0.5, 1.0], "d": 2},
         "the experiment's ladder has [0.25, 1.0]"),
        # the ladder's constants are [17, 5, 1]; sigma 5 would give [101, 26, 1]
        ({}, {"sigma": 5.0, "betas": [0.25, 1.0], "d": 2}, "the experiment's ladder has 2.0"),
        ({"n": 3, "M": 2, "w_star": 0.3, "gamma": 5.0, "c_star": 1.0},
         {"sigma": 2.0, "betas": [0.25, 1.0], "d": 3}, "the target has dimension 2"),
    ])
    def test_convolution_section_unlike_the_ladder_is_config_error(
            self, tmp_path, capsys, given, convolution, message):
        exp = base_experiment(ladder={"kind": "convolution", "betas": [0.25, 1.0],
                                      "sigma": 2.0})
        cfg = write_json(tmp_path / "c.json", {
            "schema_version": 1, "experiment": exp,
            "bounds": {"mode": "tv", "epsilon": 0.1, "f_sup_bound": 1.0, **given,
                       "convolution": convolution},
        })
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "bounds"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert not (tmp_path / "o").exists()

    def test_report_does_not_apply_run_budgets(self, tmp_path):
        # from_theorem budgets of this ladder need ~7.3e9 kernel steps per
        # particle, beyond the run cap; the report is the same without them
        exp = base_experiment(ladder={"kind": "tempering", "n_levels": 4, "beta_min": 0.05},
                              kernel={"kind": "langevin", "step_size": 0.05})
        del exp["time_policy"]
        reports = []
        for name, policy in (("none", None), ("theorem", {"mode": "from_theorem"})):
            cfg = write_json(tmp_path / f"{name}.json", {
                "schema_version": 1,
                "experiment": exp if policy is None else {**exp, "time_policy": policy},
                "bounds": {"mode": "tv", "epsilon": 0.1, "f_sup_bound": 1.0},
            })
            out = tmp_path / name
            assert main(["--config", cfg, "--out", str(out), "bounds"]) == 0
            reports.append((out / "bounds.json").read_bytes())
        assert reports[0] == reports[1]
        doc = json.loads(reports[1])
        assert doc["inputs"]["gamma"] == pytest.approx(9.048, abs=5e-4)
        assert doc["prescribed_N"] == 2_408_782_954

    @pytest.mark.parametrize("convolution,message", [
        (None, "alpha = 1/(2 gamma^6) overflows: inf"),
        ({"sigma": 1.0, "betas": [1e-5, 1.0], "d": 160},
         "gamma = (beta_k/beta_{k-1})^(d/2) overflows"),
    ])
    def test_overflowing_convolution_step_bound_is_config_error(self, tmp_path, capsys,
                                                                convolution, message):
        section = {"mode": "tv", "epsilon": 0.1, "f_sup_bound": 1.0}
        if convolution is not None:
            section["convolution"] = convolution
        cfg = write_json(tmp_path / "c.json", {
            "schema_version": 1, "experiment": overflowing_convolution_experiment(),
            "bounds": section,
        })
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "bounds"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err

    def test_feasibility_cap_flagged(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "c.json",
            {"schema_version": 1,
             "bounds": bounds_section(gamma=4.0, w_star=0.09, M=2,
                                      feasibility_cap=1e4)},
        )
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "bounds"]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out.split("\n\n")[0])
        assert_conforms(doc, "bound_report.schema.json")
        assert doc["feasible"] is False
        assert "exceeds the cap" in captured.err

    def test_missing_constants_without_experiment(self, tmp_path):
        cfg = write_json(
            tmp_path / "c.json",
            {"schema_version": 1,
             "bounds": {"mode": "mse", "epsilon": 0.5, "f_sup_bound": 1.0}},
        )
        assert main(["--config", cfg, "bounds"]) == 2

    @pytest.mark.parametrize("given,message", [
        ({"n": 3, "c_star": [1.0, 2.0]}, "c_star per level"),
        ({"p": 6}, "power of 2"),
    ])
    def test_invalid_explicit_constant_is_config_error(self, tmp_path, capsys, given,
                                                       message):
        cfg = write_json(tmp_path / "c.json",
                         {"schema_version": 1, "bounds": bounds_section(**given)})
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "bounds"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err

    @pytest.mark.parametrize("given,message", [
        ({"gamma": 1e60}, "alpha = 1/(2 gamma^6) overflows"),
        ({"gamma": 1e50}, "t_k = 2 C*_k gamma^7 overflows"),
        ({"n": 2, "convolution": {"sigma": 1.0, "betas": [0.01, 1.0], "d": 400}},
         "gamma = (beta_k/beta_{k-1})^(d/2) overflows"),
        # gamma^7 is finite, 2 C*_k gamma^7 is not
        ({"gamma": 1e44}, "overflow to infinity: prescribed_t_per_level"),
        # w_star^(15/8) underflows to 0 in the moment branch's denominator
        ({"w_star": 1e-200}, "leave the float range"),
        # the message names the constant
        ({"w_star": 1e-200, "gamma": 10.0}, "w_star^(15/8) of the moment branch underflows"),
        ({"f_sup_bound": 1e200, "gamma": 10.0}, "sup^2 = f_sup_bound^2 overflows"),
    ])
    def test_overflowing_constant_is_config_error(self, tmp_path, capsys, given, message):
        cfg = write_json(tmp_path / "c.json",
                         {"schema_version": 1, "bounds": bounds_section(**given)})
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "bounds"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert not (tmp_path / "o").exists()


    def test_constants_are_not_derived_from_a_finite_ladder(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {
            "schema_version": 1, "experiment": finite_experiment(tmp_path),
            "bounds": {"mode": "mse", "epsilon": 0.5, "f_sup_bound": 1.0}})
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "bounds"]) == 2
        assert ("cannot derive assumption constants from a finite ladder file"
                in capsys.readouterr().err)

    def test_convolution_section_with_given_constants_beside_a_finite_ladder(self, tmp_path):
        # every constant is given, so nothing is compared with the finite experiment
        section = bounds_section(n=2, convolution={"sigma": 1.0, "betas": [0.5], "d": 2})
        cfg = write_json(tmp_path / "c.json", {
            "schema_version": 1, "experiment": finite_experiment(tmp_path), "bounds": section})
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out), "bounds"]) == 0
        doc = read_output(out / "bounds.json")
        assert doc["which_theorem"] == "convolution"
        assert doc["inputs"]["c_star_per_level"] == [3.0, 1.0]  # 1 + sigma^2 / 0.5, then 1

def test_failed_json_dump_leaves_existing_file(tmp_path):
    path = tmp_path / "run.json"
    cli._write_json(str(path), {"eta": 0.5})
    before = path.read_bytes()
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._write_json(str(path), {"eta": 0.25, "ess": float("nan")})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


def json_documents(finite=True):
    """Nested documents like the commands': dicts, lists of numbers, lists of
    records of one key set and of lists of one length, with None, bools,
    ints to 2^64 - 1, floats at their edges and strings with quotes, escapes
    and non-ASCII; with ``finite=False`` floats may be NaN or infinite."""
    floats = st.floats(allow_nan=not finite, allow_infinity=not finite) | st.sampled_from(
        [-0.0, 5e-324, 1e16, 1.5e-7, 2.0 ** 64])
    scalars = (st.none() | st.booleans() | st.integers(-2 ** 64 + 1, 2 ** 64 - 1) | floats
               | st.text() | st.sampled_from(['say "hi"', "a\\b", "\u00e9t\u00e9", "\U0001f600"]))

    def nested(children):
        records = st.lists(st.text(max_size=4), min_size=1, max_size=4, unique=True).flatmap(
            lambda keys: st.lists(st.fixed_dictionaries({k: children for k in keys}), max_size=4))
        rows = st.integers(1, 3).flatmap(
            lambda n: st.lists(st.lists(children, min_size=n, max_size=n), max_size=4))
        return (st.lists(children, max_size=5) | st.lists(children, max_size=3).map(tuple)
                | st.dictionaries(st.text(max_size=6), children, max_size=5) | records | rows)

    return st.recursive(scalars, nested, max_leaves=40)


def json_outcome(encode, doc):
    try:
        return encode(doc)
    except (TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def json_dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


@given(json_documents())
@example([{"a": 1.0, "b": [1, 2]}, {"b": [3], "a": 2.0}, {"c": None}])  # key sets differ
# keys that are not strings, which json.dumps converts
@example({"level": {2: 0.5, 10: [1, 2]}})
@example([{1: "a", 0: "b"}, {1: "c", 0: "d"}])
@example({"x": {0.5: 1, 2.5: 2}})
@example({"x": {True: 1, False: 2}})
@example({"x": {None: [1.5]}})
@example({"a": [[1.0, 2.0]]})  # a lone list of lists
@example([[], []])
@example([{}, {}])
@example({"a": [True, False], "b": [None, None]})
@example([[1, 2], [3]])  # lists of unequal widths
@example({"a": np.float64(0.1), "b": [1.5]})  # a numpy scalar: json.dumps renders it
@settings(max_examples=200, deadline=None)
def test_json_text_is_json_dumps(doc):
    assert cli._json_text(doc) == json_dumps(doc)


def test_command_documents_need_no_json_dumps(tmp_path, monkeypatch):
    # every document of these commands is one the column renderer takes itself
    class NoDumps:
        load = json.load

        @staticmethod
        def dumps(*args, **kwargs):
            raise AssertionError("a command document reached json.dumps")

    monkeypatch.setattr(cli, "json", NoDumps)
    finite = finite_experiment(tmp_path, replicates=12)
    sweep = {"parameter": "n_particles", "values": [20, 40], "replicates": 4}
    commands = [
        ("run", "run.json", {"experiment": base_experiment()}),
        ("run", "run.json", {"experiment": finite}),
        ("sweep", "sweep.json", {"experiment": finite, "sweep": sweep}),
        ("bounds", "bounds.json", {"bounds": bounds_section()}),
    ]
    for i, (command, name, doc) in enumerate(commands):
        cfg = write_json(tmp_path / f"c{i}.json", {"schema_version": 1, **doc})
        out = tmp_path / f"o{i}"
        assert main(["--config", cfg, "--out", str(out), "--threads", "1", command]) == 0
        text = (out / name).read_text()
        assert text == json_dumps(json.loads(text)) + "\n"
    out = tmp_path / "verify"
    assert main(["--out", str(out), "--seed", "0", "verify", "--suite", "delta_recursion"]) == 0
    text = (out / "verify.json").read_text()
    assert text == json_dumps(json.loads(text)) + "\n"


@given(json_documents(finite=False))
@example({"a": [1.0], "b": object()})  # unserializable
@example({"a": np.int64(1)})  # a numpy integer, which json.dumps refuses
@example([{"x": 0.5, "y": [1.0]}, {"x": 0.25, "y": [float("nan")]}])
@settings(max_examples=200, deadline=None)
def test_json_text_raises_as_json_dumps(doc):
    # the same text, or the same error: a ValueError naming the same first NaN
    # or infinity, a TypeError naming an unserializable value
    assert json_outcome(cli._json_text, doc) == json_outcome(json_dumps, doc)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_json_text_refuses_non_finite_floats(bad):
    for doc in ({"a": bad}, [1.0, bad], [{"x": [0.5, bad]}, {"x": [0.25, 1.0]}]):
        with pytest.raises(ValueError, match=f"not JSON compliant: {bad!r}$"):
            cli._json_text(doc)


class TestVerify:
    def test_selector_runs_only_decomposition(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["--out", str(out), "--seed", "0", "verify",
                     "--suite", "decomposition"])
        assert code == 0
        doc = read_output(out / "verify.json")
        assert doc["all_passed"] is True
        assert all(c["name"].startswith("decomposition") for c in doc["checks"])

    def test_faulty_chain_fixture_fails_with_named_check(self, tmp_path, capsys):
        chain = write_json(tmp_path / "chain.json", {"P": [[0.5, 0.4], [0.5, 0.5]]})
        cfg = write_json(
            tmp_path / "c.json",
            {"schema_version": 1,
             "verify": {"suites": ["delta_recursion"], "chain_file": chain}},
        )
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "verify"]) == 1
        doc = read_output(out / "verify.json")
        failed = [c for c in doc["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["chain_validation"]
        assert failed[0]["min_slack"] is None  # no slack: -inf is not JSON
        assert "rows must sum to 1" in failed[0]["details"]["error"]

    def test_quick_suites_pass(self, tmp_path):
        out = tmp_path / "out"
        code = main(["--out", str(out), "--seed", "1", "verify",
                     "--suite", "entropy", "--suite", "semigroup",
                     "--suite", "contraction", "--suite", "delta_recursion"])
        assert code == 0

    @pytest.mark.parametrize("name", ["markov_contraction", "poissonized_semigroup"])
    def test_suite_selects_a_check_by_its_printed_name(self, tmp_path, name):
        out = tmp_path / "out"
        assert main(["--out", str(out), "--seed", "0", "verify", "--suite", name]) == 0
        doc = read_output(out / "verify.json")
        assert [c["name"] for c in doc["checks"]] == [name]

    def test_unknown_suite_is_config_error(self, tmp_path):
        assert main(["--out", str(tmp_path), "verify", "--suite", "bogus"]) == 2

    def test_full_suite_on_default_seed_passes(self, tmp_path):
        out = tmp_path / "out"
        assert main(["--out", str(out), "--seed", "0", "verify"]) == 0
        doc = read_output(out / "verify.json")
        assert doc["all_passed"] is True
        names = {c["name"] for c in doc["checks"]}
        assert {"variance_decay", "single_step", "hypercontractivity",
                "poissonized_semigroup", "delta_recursion"} <= names


class TestSweep:
    def test_grid_over_particles(self, tmp_path):
        path, pmf2 = finite_ladder_file(tmp_path)
        exp = base_experiment(
            target={"kind": "finite_ladder_file", "path": path},
            ladder={"kind": "from_file"},
            estimand={"name": "mode_indicator", "mode_index": 0},
            replicates=6,
        )
        cfg = write_json(
            tmp_path / "c.json",
            {"schema_version": 1, "experiment": exp,
             "sweep": {"parameter": "n_particles", "values": [50, 100],
                       "replicates": 6}},
        )
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--threads", "1", "sweep"]) == 0
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["value"]) for r in rows] == [50.0, 100.0]
        assert all(float(r["mse"]) >= 0 for r in rows)
        doc = read_output(out / "sweep.json")
        assert doc["parameter"] == "n_particles"

    @pytest.mark.parametrize("parameter,values", [
        ("n_particles", [50, 120]), ("time_budget", [0.5, 2.0]),
    ])
    def test_worker_pool_matches_serial(self, tmp_path, parameter, values):
        exp = finite_experiment(tmp_path)
        cfg = write_json(
            tmp_path / "c.json",
            {"schema_version": 1, "experiment": exp,
             "sweep": {"parameter": parameter, "values": values, "replicates": 5}},
        )
        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        assert main(["--config", cfg, "--out", str(serial), "--threads", "1", "sweep"]) == 0
        assert main(["--config", cfg, "--out", str(pooled), "--threads", "2", "sweep"]) == 0
        for out in ("sweep.json", "sweep.csv"):
            assert (serial / out).read_bytes() == (pooled / out).read_bytes(), out

    def test_two_replicates_write_strict_json(self, tmp_path):
        exp = finite_experiment(tmp_path)
        cfg = write_json(
            tmp_path / "c.json",
            {"schema_version": 1, "experiment": exp,
             "sweep": {"parameter": "n_particles", "values": [50, 100], "replicates": 2}},
        )
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--threads", "1", "sweep"]) == 0
        points = read_output(out / "sweep.json")["points"]
        assert [p["variance_se"] for p in points] == [None, None]
        assert all(p["mse_se"] is not None and p["bias_sq_se"] is not None for p in points)
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["variance_se"] for r in rows] == ["", ""]

    def test_needs_exact_value(self, tmp_path):
        cfg = write_json(
            tmp_path / "c.json",
            {"schema_version": 1, "experiment": base_experiment(),
             "sweep": {"parameter": "n_particles", "values": [50], "replicates": 3}},
        )
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--threads", "1",
                     "sweep"]) == 2

    @pytest.mark.parametrize("values", [[0.5], [50, 2.7]])
    def test_particle_counts_that_cannot_run_refused(self, tmp_path, capsys, monkeypatch,
                                                     values):
        # 0.5 used to fail mid-sweep, 2.7 to run silently at N = 2
        ran = []
        monkeypatch.setattr(cli, "_run_replicates", lambda *args, **kw: ran.append(args))
        cfg = write_json(
            tmp_path / "c.json",
            {"schema_version": 1, "experiment": finite_experiment(tmp_path),
             "sweep": {"parameter": "n_particles", "values": values, "replicates": 3}},
        )
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--threads", "1",
                     "sweep"]) == 2
        assert "whole numbers >= 1" in capsys.readouterr().err
        assert ran == []


class TestEstimands:
    def test_constant_and_coordinate(self, tmp_path):
        exp = base_experiment(
            estimand={"name": "constant", "value": 2.5}, replicates=1, n_particles=50
        )
        cfg = write_json(tmp_path / "c.json", {"schema_version": 1, "experiment": exp})
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--threads", "1", "run"]) == 0
        doc = read_output(out / "run.json")
        assert doc["replicates"][0]["eta"] == 2.5

    @pytest.mark.parametrize("finite,estimand,message", [
        (False, {"name": "indicator_halfspace", "coordinate": 5}, "2, the number of coordinates"),
        (False, {"name": "coordinate_mean", "coordinate": 2}, "2, the number of coordinates"),
        (False, {"name": "mode_indicator", "mode_index": 7}, "2, the number of modes"),
        (False, {"name": "mode_indicator", "mode_index": 2}, "2, the number of modes"),
        (True, {"name": "mode_indicator", "mode_index": 4}, "4, the number of states"),
        (True, {"name": "coordinate_mean", "coordinate": 1}, "1, the number of coordinates"),
    ])
    def test_out_of_range_index_is_config_error(self, tmp_path, capsys, finite, estimand,
                                                message):
        exp = (finite_experiment(tmp_path, estimand=estimand) if finite
               else base_experiment(estimand=estimand))
        assert run_exit_code(tmp_path, exp) == 2
        err = capsys.readouterr().err
        assert "out of range" in err and message in err

    @pytest.mark.parametrize("finite,estimand", [
        (False, {"name": "indicator_halfspace", "coordinate": 1}),
        (False, {"name": "coordinate_mean", "coordinate": 1}),
        (False, {"name": "mode_indicator", "mode_index": 1}),
        (True, {"name": "mode_indicator", "mode_index": 3}),
    ])
    def test_in_range_index_runs(self, tmp_path, finite, estimand):
        exp = (finite_experiment(tmp_path, estimand=estimand) if finite
               else base_experiment(estimand=estimand))
        assert run_exit_code(tmp_path, exp) == 0
        # each estimand has a positive mean here; a missing mode would read 0
        assert read_output(tmp_path / "o" / "run.json")["summary"]["mean_eta"] > 0.0

    def test_finite_halfspace_reads_the_state_index(self, tmp_path):
        _, pmf2 = finite_ladder_file(tmp_path)
        exp = finite_experiment(
            tmp_path, estimand={"name": "indicator_halfspace", "threshold": 1.5})
        assert run_exit_code(tmp_path, exp) == 0
        exact = read_output(tmp_path / "o" / "run.json")["summary"]["exact_value"]
        assert exact == pytest.approx(pmf2[2] + pmf2[3])


def run_python(*args, cwd=None, timeout=300):
    """``python *args`` in a fresh process that imports smcmix from this tree."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=timeout)


class TestImports:
    def test_run_and_bounds_load_neither_scipy_nor_the_oracle(self, tmp_path):
        exp = base_experiment(n_particles=20, replicates=2)
        cfg = write_json(tmp_path / "c.json", {"schema_version": 1, "experiment": exp,
                                               "bounds": bounds_section()})
        script = f"""
import sys
import smcmix.cli as cli
for command in ("run", "bounds"):
    assert cli.main(["--config", {cfg!r}, "--out", "o", "--threads", "2", command]) == 0
assert "scipy" not in sys.modules and "smcmix.oracle" not in sys.modules
assert cli.main(["--out", "v", "verify", "--suite", "decomposition"]) == 0
assert "smcmix.oracle" in sys.modules
"""
        proc = run_python("-c", script, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert read_output(tmp_path / "v" / "verify.json")["all_passed"] is True

    def test_only_run_loads_csv(self, tmp_path):
        exp = base_experiment(n_particles=20, replicates=2)
        cfg = write_json(tmp_path / "c.json", {"schema_version": 1, "experiment": exp,
                                               "bounds": bounds_section()})
        script = f"""
import sys
import smcmix.cli as cli
assert cli.main(["--config", {cfg!r}, "--out", "b", "bounds"]) == 0
assert cli.main(["--out", "v", "verify", "--suite", "decomposition"]) == 0
assert "csv" not in sys.modules
assert cli.main(["--config", {cfg!r}, "--out", "r", "--threads", "1", "run"]) == 0
assert "csv" in sys.modules
"""
        proc = run_python("-c", script, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_numpy_submodules_load_only_when_used(self, tmp_path):
        # the sampler's seeding loads numpy.random (13 ms, 6 MB) on first use,
        # and no command loads numpy.ma (0.7 MB), which np.unique imports
        exp = base_experiment(n_particles=20, replicates=2)
        cfg = write_json(tmp_path / "c.json", {"schema_version": 1, "experiment": exp,
                                               "bounds": bounds_section()})
        script = f"""
import sys
import smcmix.cli as cli
assert cli.main(["--config", {cfg!r}, "--out", "o", "bounds"]) == 0
assert "numpy.random" not in sys.modules
assert cli.main(["--config", {cfg!r}, "--out", "r", "--threads", "1", "run"]) == 0
assert "numpy.random" in sys.modules and "numpy.ma" not in sys.modules
"""
        proc = run_python("-c", script, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_verify_runs_without_scipy(self, tmp_path):
        chain = write_json(tmp_path / "chain.json", {"P": [[0.1, 0.9, 0.0], [0.0, 0.2, 0.8],
                                                           [0.7, 0.0, 0.3]]})
        cfg = write_json(tmp_path / "c.json", {"schema_version": 1,
                                               "verify": {"chain_file": chain}})
        script = f"""
import sys
import numpy as np
import smcmix.cli as cli
assert cli.main(["--config", {cfg!r}, "--out", "v", "--seed", "0", "verify"]) == 0
from smcmix import oracle
from smcmix.core import FiniteChain
chain = FiniteChain(P=np.array([[0.1, 0.9, 0.0], [0.0, 0.2, 0.8], [0.7, 0.0, 0.3]]))
assert not chain.reversible and oracle.semigroup(chain, 5.0).shape == (3, 3)
assert not [name for name in sys.modules if name.split(".")[0] == "scipy"]
"""
        proc = run_python("-c", script, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        doc = read_output(tmp_path / "v" / "verify.json")
        assert doc["all_passed"] is True
        assert doc["checks"][0]["name"] == "chain_validation"
        assert len(doc["checks"]) == 18

    def test_lazy_submodules_import_on_first_use(self):
        script = """
import sys
import smcmix
assert "smcmix.oracle" not in sys.modules and "smcmix.cli" not in sys.modules
assert "jsonschema" not in sys.modules
import smcmix.cli
assert "jsonschema" not in sys.modules
assert smcmix.oracle is sys.modules["smcmix.oracle"]
from smcmix import oracle
assert oracle is smcmix.oracle and oracle.product_pmf([0.5]).sum() == 1.0
namespace = {}
exec("from smcmix import *", namespace)
assert all(name in namespace for name in smcmix.__all__)
assert namespace["cli"] is sys.modules["smcmix.cli"]
assert hasattr(smcmix, "nope") is False
try:
    smcmix.nope
except AttributeError as exc:
    assert "nope" in str(exc)
else:
    raise AssertionError("smcmix.nope did not raise")
"""
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr

    def test_run_and_verify_load_no_third_party_module_but_numpy(self, tmp_path):
        exp = base_experiment(n_particles=20, replicates=2)
        cfg = write_json(tmp_path / "c.json", {"schema_version": 1, "experiment": exp})
        script = f"""
import sys

def packages():
    # top-level names of modules loaded from a file (Cython's runtime shims have none)
    return {{name.split(".")[0] for name, module in list(sys.modules.items())
            if getattr(module, "__file__", None)}}

before = packages()
import smcmix.cli as cli
assert cli.main(["--config", {cfg!r}, "--out", "o", "--threads", "1", "run"]) == 0
assert cli.main(["--out", "v", "verify"]) == 0
loaded = packages() - before - set(sys.stdlib_module_names) - {{"smcmix"}}
assert loaded == {{"numpy"}}, sorted(loaded)
"""
        proc = run_python("-c", script, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_numpy_is_the_only_runtime_dependency(self):
        tomllib = pytest.importorskip("tomllib")
        root = os.path.dirname(os.path.dirname(os.path.dirname(cli.__file__)))
        with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
            project = tomllib.load(fh)["project"]
        assert [re.match(r"[\w.-]+", dep)[0] for dep in project["dependencies"]] == ["numpy"]
        assert "jsonschema" in " ".join(project["optional-dependencies"]["test"])

    def test_module_entry_point_warns_nothing(self):
        proc = run_python("-W", "error::RuntimeWarning", "-m", "smcmix.cli", "--help")
        assert proc.returncode == 0, proc.stderr
        assert "usage: smcmix" in proc.stdout


def test_failed_csv_write_leaves_existing_file(tmp_path):
    path = tmp_path / "levels.csv"
    cli._write_csv(str(path), [["replicate", "level"], [0, 2]])
    before = path.read_bytes()

    def rows():
        yield ["replicate", "level"]
        raise RuntimeError("interrupted after the header")

    with pytest.raises(RuntimeError, match="interrupted"):
        cli._write_csv(str(path), rows())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["levels.csv"]


csv_numbers = st.integers(-2 ** 64 + 1, 2 ** 64 - 1) | st.floats()
csv_texts = st.sampled_from(["replicate", "wall_time", "0.000149", "", "None", 'a "b"', "x,y",
                             "line\r\nend", "cr\r", "\u00e9"]) | st.text()


# any rows, and rows of two or more fields without None, which the encoder
# joins in one pass unless a field needs quoting
@given(st.lists(st.lists(st.none() | csv_numbers | csv_texts, max_size=6), max_size=6)
       | st.lists(st.lists(csv_numbers | csv_texts, min_size=2, max_size=6), max_size=6))
@settings(max_examples=300, deadline=None)
def test_write_csv_writes_what_csv_writer_writes(rows):
    rows = [["replicate", "level", "ess"], *rows, [0, 2, 477.5799769599977]]
    with tempfile.TemporaryDirectory() as work:
        ours, theirs = os.path.join(work, "ours.csv"), os.path.join(work, "theirs.csv")
        cli._write_csv(ours, iter(rows))
        with open(theirs, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert Path(ours).read_bytes() == Path(theirs).read_bytes()


class TestCommandLineInputs:
    @pytest.mark.parametrize("command", ["run", "bounds", "sweep"])
    def test_command_without_config(self, capsys, command):
        assert main(["--threads", "1", command]) == 2
        assert capsys.readouterr().err == f"config error: {command} requires --config\n"

    @pytest.mark.parametrize("command, message", [
        ("run", "run needs an 'experiment' section"),
        ("bounds", "bounds needs a 'bounds' section"),
        ("sweep", "sweep needs both 'sweep' and 'experiment' sections"),
    ])
    def test_command_without_its_section(self, tmp_path, capsys, command, message):
        cfg = write_json(tmp_path / "c.json", {"schema_version": 1})
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out), "--threads", "1", command]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("content", [b'{"schema_version": 1,', b'\xff\xfe{}'],
                             ids=["truncated", "not_utf8"])
    def test_config_that_is_not_json(self, tmp_path, capsys, content):
        path = tmp_path / "c.json"
        path.write_bytes(content)
        assert main(["--config", str(path), "--threads", "1", "run"]) == 2
        assert capsys.readouterr().err.startswith("config error: config is not valid JSON: ")

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_refused_when_parsed(self, tmp_path, capsys, threads):
        cfg = write_json(tmp_path / "c.json",
                         {"schema_version": 1, "experiment": base_experiment()})
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["--config", cfg, "--out", str(out), "--threads", threads, "run"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --threads: must be a positive integer, got {threads}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, section, key, value", [
        ("run", "experiment", "exact_value", math.nan),
        ("bounds", "bounds", "feasibility_cap", math.inf),
        ("run", "experiment", "estimand", {"name": "indicator_halfspace", "threshold": -math.inf}),
    ], ids=["nan", "infinity", "minus_infinity"])
    def test_config_with_a_non_standard_constant_is_not_json(self, tmp_path, capsys, command,
                                                             section, key, value):
        doc = {"schema_version": 1, "experiment": base_experiment(replicates=1),
               "bounds": bounds_section()}
        doc[section][key] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))  # json.dumps writes NaN, Infinity and -Infinity
        out = tmp_path / "o"
        assert main(["--config", str(path), "--out", str(out), "--threads", "1", command]) == 2
        assert capsys.readouterr().err.startswith("config error: config is not valid JSON: ")
        assert not out.exists()


MARK = 7.77e77  # a placeholder written as 1e999, which json.dumps cannot write


def with_literal(doc, literal="1e999") -> str:
    """``doc`` as JSON text, with every ``MARK`` replaced by ``literal``."""
    return json.dumps(doc).replace(json.dumps(MARK), literal)


class TestNumbersBeyondTheFloatRange:
    """json.load reads 1e999 as inf; every input refuses it as not JSON."""

    def assert_refused(self, tmp_path, capsys, doc, command, what="config", literal="1e999"):
        path = tmp_path / "c.json"
        path.write_text(with_literal(doc, literal))
        out = tmp_path / "o"
        assert main(["--config", str(path), "--out", str(out), "--threads", "1", command]) == 2
        assert capsys.readouterr().err == (
            f"config error: {what} is not valid JSON: {literal} is beyond the float range\n")
        assert what != "config" or not out.exists()  # a config is read before --out is made

    @pytest.mark.parametrize("literal", ["1e999", "-1e999"])
    def test_bounds_feasibility_cap(self, tmp_path, capsys, literal):
        doc = {"schema_version": 1, "bounds": bounds_section(feasibility_cap=MARK)}
        self.assert_refused(tmp_path, capsys, doc, "bounds", literal=literal)

    @pytest.mark.parametrize("changes", [
        {"estimand": {"name": "indicator_halfspace", "coordinate": 0, "threshold": MARK}},
        {"estimand": {"name": "constant", "value": MARK}},
        {"exact_value": MARK},
        {"target": {"kind": "gaussian_mixture", "weights": [0.3, 0.7],
                    "means": [[-3.0, MARK], [3.0, 3.0]]}},
    ], ids=["threshold", "value", "exact_value", "means"])
    def test_run(self, tmp_path, capsys, changes):
        doc = {"schema_version": 1, "experiment": base_experiment(replicates=1, **changes)}
        self.assert_refused(tmp_path, capsys, doc, "run")

    def test_sweep_over_n_particles(self, tmp_path, capsys):
        doc = {"schema_version": 1, "experiment": base_experiment(exact_value=0.5),
               "sweep": {"parameter": "n_particles", "values": [MARK], "replicates": 2}}
        self.assert_refused(tmp_path, capsys, doc, "sweep")

    def test_ladder_file(self, tmp_path, capsys):
        doc = json.loads(Path(finite_ladder_file(tmp_path)[0]).read_text())
        doc["levels"][1]["P"][0][1] = MARK
        (tmp_path / "big_ladder.json").write_text(with_literal(doc))
        exp = finite_experiment(tmp_path, replicates=1)
        exp["target"]["path"] = str(tmp_path / "big_ladder.json")
        self.assert_refused(tmp_path, capsys, {"schema_version": 1, "experiment": exp}, "run",
                            what="finite ladder file")

    def test_chain_file(self, tmp_path, capsys):
        chain = tmp_path / "chain.json"
        chain.write_text(with_literal({"P": [[MARK, 1.0], [0.5, 0.5]]}))
        doc = {"schema_version": 1,
               "verify": {"suites": ["delta_recursion"], "chain_file": str(chain)}}
        self.assert_refused(tmp_path, capsys, doc, "verify", what="chain file")

    def test_literal_below_the_float_range_reads_as_zero(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(with_literal({"x": [MARK, 0.5]}, "-1e-999"))
        assert cli._read_json(str(path), "config") == {"x": [0.0, 0.5]}


class TestLadderFile:
    def run_with_ladder(self, tmp_path, path):
        exp = finite_experiment(tmp_path, target={"kind": "finite_ladder_file", "path": path})
        return run_exit_code(tmp_path, exp)

    @pytest.mark.parametrize("doc", [
        {"kind": "finite_ladder", "levels": [{"P": None}]},
        [{"pmf": [0.5, 0.5]}],
        {"kind": "finite_ladder", "levels": [[0.5, 0.5]]},
        {"kind": "finite_ladder", "levels": [{"pmf": [0.5, 0.5]},
                                             {"pmf": [0.5, 0.5], "P": {"0": [0.5, 0.5]}}]},
        {"kind": "finite_ladder", "levels": {"pmf": [0.5, 0.5]}},
    ], ids=["level_without_pmf", "top_level_array", "level_array", "P_object",
            "levels_object"])
    def test_malformed_file_is_config_error_naming_it(self, tmp_path, capsys, doc):
        path = write_json(tmp_path / "bad_ladder.json", doc)
        assert self.run_with_ladder(tmp_path, path) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"config error: finite ladder file {path}")

    def test_missing_file(self, tmp_path, capsys):
        assert self.run_with_ladder(tmp_path, str(tmp_path / "nope.json")) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: cannot read finite ladder file: ")
        assert "nope.json" in line

    def test_file_that_is_not_json(self, tmp_path, capsys):
        path = tmp_path / "bad_ladder.json"
        path.write_text('{"kind": "finite_ladder", "levels": [')
        assert self.run_with_ladder(tmp_path, str(path)) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: finite ladder file is not valid JSON: ")

    def test_non_stochastic_chain_is_config_error_naming_its_level(self, tmp_path, capsys):
        path = write_json(tmp_path / "bad_ladder.json", {"kind": "finite_ladder", "levels": [
            {"pmf": [0.5, 0.5], "P": None},
            {"pmf": [0.5, 0.5], "P": [[0.5, 0.4], [0.5, 0.5]]}]})
        assert self.run_with_ladder(tmp_path, path) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: invalid chain at level 2: rows must sum to 1")

    def test_pmfs_of_different_sizes_are_config_error_naming_them(self, tmp_path, capsys):
        path = write_json(tmp_path / "bad_ladder.json", {"kind": "finite_ladder", "levels": [
            {"pmf": [0.5, 0.5], "P": None},
            {"pmf": [0.25, 0.25, 0.5], "P": [[0.5, 0.25, 0.25], [0.25, 0.25, 0.5],
                                             [0.125, 0.25, 0.625]]}]})
        assert self.run_with_ladder(tmp_path, path) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == ("config error: level 2 has a pmf of 3 states, level 1 one of 2: "
                        "every level needs the same states")

    @pytest.mark.parametrize("n_levels", [1, 2])
    def test_pmf_that_is_not_flat_is_config_error_naming_its_level(self, tmp_path, capsys,
                                                                   n_levels):
        levels = [{"pmf": [[0.5], [0.5]], "P": None},
                  {"pmf": [[0.5], [0.5]], "P": [[0.5, 0.5], [0.5, 0.5]]}]
        path = write_json(tmp_path / "bad_ladder.json",
                          {"kind": "finite_ladder", "levels": levels[:n_levels]})
        assert self.run_with_ladder(tmp_path, path) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (f"config error: finite ladder file {path}: level 1 must be an object "
                        "with a pmf that is a flat list of numbers and a list or null P")
        assert not (tmp_path / "o").exists()

    def test_pmf_of_another_size_than_its_chain_is_config_error(self, tmp_path, capsys):
        path = write_json(tmp_path / "bad_ladder.json", {"kind": "finite_ladder", "levels": [
            {"pmf": [0.5, 0.5], "P": None},
            {"pmf": [0.5, 0.5], "P": np.full((3, 3), 1.0 / 3.0).tolist()}]})
        assert self.run_with_ladder(tmp_path, path) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "config error: invalid chain at level 2: pi has shape (2,) for 3 states"

    def test_pmf_summing_to_zero_is_config_error_naming_its_level(self, tmp_path, capsys):
        path = write_json(tmp_path / "bad_ladder.json", {"kind": "finite_ladder", "levels": [
            {"pmf": [0, 0], "P": None},
            {"pmf": [0.5, 0.5], "P": [[0.5, 0.5], [0.5, 0.5]]}]})
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert self.run_with_ladder(tmp_path, path) == 2
        assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]
        (line,) = capsys.readouterr().err.splitlines()
        assert line == ("config error: level 1 pmf must have nonnegative entries and a "
                        "positive sum")
        assert not (tmp_path / "o").exists()

    def test_negative_pmf_is_config_error_naming_its_level(self, tmp_path, capsys):
        # level 1 has no chain to refuse it: its pmf would divide to [0.5, 0.5]
        path = write_json(tmp_path / "bad_ladder.json", {"kind": "finite_ladder", "levels": [
            {"pmf": [-1, -1], "P": None},
            {"pmf": [0.5, 0.5], "P": [[0.5, 0.5], [0.5, 0.5]]}]})
        assert self.run_with_ladder(tmp_path, path) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == ("config error: level 1 pmf must have nonnegative entries and a "
                        "positive sum")
        assert not (tmp_path / "o").exists()

    def test_later_pmf_summing_to_zero_is_config_error_naming_its_level(self, tmp_path,
                                                                        capsys):
        # its chain's pi is the pmf: refused before it is divided by its sum
        path = write_json(tmp_path / "bad_ladder.json", {"kind": "finite_ladder", "levels": [
            {"pmf": [0.5, 0.5], "P": None},
            {"pmf": [0, 0], "P": [[0.5, 0.5], [0.5, 0.5]]}]})
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert self.run_with_ladder(tmp_path, path) == 2
        assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]
        (line,) = capsys.readouterr().err.splitlines()
        assert line == ("config error: invalid chain at level 2: pi must have nonnegative "
                        "entries and a positive sum")
        assert not (tmp_path / "o").exists()

    def test_pmfs_whose_sums_overflow_run(self, tmp_path):
        # valid in exact arithmetic: each level's pmf is [0.5, 0.5]
        path = write_json(tmp_path / "big_ladder.json", {"kind": "finite_ladder", "levels": [
            {"pmf": [1e308, 1e308], "P": None},
            {"pmf": [1e308, 1e308], "P": [[0.9, 0.1], [0.1, 0.9]]}]})
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert self.run_with_ladder(tmp_path, path) == 0
        assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]
        assert read_output(tmp_path / "o" / "run.json")["summary"]["exact_value"] == 0.5

    def test_nan_is_not_valid_json(self, tmp_path, capsys):
        doc = json.loads(Path(finite_ladder_file(tmp_path)[0]).read_text())
        doc["levels"][1]["P"][0][1] = math.nan  # read as a number, it makes state 0 absorb
        path = tmp_path / "nan_ladder.json"
        path.write_text(json.dumps(doc))
        assert self.run_with_ladder(tmp_path, str(path)) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == ("config error: finite ladder file is not valid JSON: "
                        "NaN is not a JSON number")


class TestChainFile:
    def verify_chain(self, tmp_path, chain_path):
        cfg = write_json(tmp_path / "c.json", {
            "schema_version": 1,
            "verify": {"suites": ["delta_recursion"], "chain_file": chain_path}})
        return main(["--config", cfg, "--out", str(tmp_path / "out"), "verify"])

    def test_valid_chain_passes(self, tmp_path):
        _, pmf2 = finite_ladder_file(tmp_path)
        chain = write_json(tmp_path / "chain.json",
                           {"P": glauber_transition_matrix(pmf2, 2).P.tolist()})
        assert self.verify_chain(tmp_path, chain) == 0
        doc = read_output(tmp_path / "out" / "verify.json")
        first = doc["checks"][0]
        assert first == {"name": "chain_validation", "passed": True, "min_slack": 0.0,
                         "n_trials": 1, "details": {"path": chain}}

    def test_pi_whose_sum_overflows_is_checked_normalized(self, tmp_path):
        # pi [1e308, 1e308] is [0.5, 0.5], which this P does not keep; read as
        # zeros, it passed
        chain = write_json(tmp_path / "chain.json",
                           {"P": [[0.9, 0.1], [0.5, 0.5]], "pi": [1e308, 1e308]})
        assert self.verify_chain(tmp_path, chain) == 1
        doc = read_output(tmp_path / "out" / "verify.json")
        (failed,) = [c for c in doc["checks"] if not c["passed"]]
        assert failed["name"] == "chain_validation"
        assert "pi is not stationary" in failed["details"]["error"]

    @pytest.mark.parametrize("content", [[[0.5, 0.5], [0.5, 0.5]], "P", 3])
    def test_file_that_is_not_an_object_fails_the_check(self, tmp_path, capsys, content):
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps(content))
        assert self.verify_chain(tmp_path, str(chain)) == 1
        doc = read_output(tmp_path / "out" / "verify.json")
        (failed,) = [c for c in doc["checks"] if not c["passed"]]
        assert failed["name"] == "chain_validation"
        assert "a chain file holds an object" in failed["details"]["error"]
        assert "FAILED checks: chain_validation" in capsys.readouterr().err

    def test_negative_pi_fails_the_check(self, tmp_path, capsys):
        # [-1, 2] sums to 1 and is stationary for the identity
        chain = write_json(tmp_path / "chain.json", {"P": [[1.0, 0.0], [0.0, 1.0]],
                                                     "pi": [-1.0, 2.0]})
        assert self.verify_chain(tmp_path, chain) == 1
        first = read_output(tmp_path / "out" / "verify.json")["checks"][0]
        assert first["name"] == "chain_validation" and not first["passed"]
        assert first["details"]["error"] == "pi must have nonnegative entries and a positive sum"
        assert "FAILED checks: chain_validation" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert self.verify_chain(tmp_path, str(tmp_path / "nope.json")) == 2
        assert capsys.readouterr().err.startswith("config error: cannot read chain file: ")

    def test_file_that_is_not_json(self, tmp_path, capsys):
        path = tmp_path / "chain.json"
        path.write_text('{"P": [[1.0]')
        assert self.verify_chain(tmp_path, str(path)) == 2
        assert capsys.readouterr().err.startswith(
            "config error: chain file is not valid JSON: ")

    def test_nan_is_not_valid_json(self, tmp_path, capsys):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"P": [[math.nan, 1.0], [0.5, 0.5]], "pi": [1 / 3, 2 / 3]}))
        assert self.verify_chain(tmp_path, str(path)) == 2
        assert capsys.readouterr().err == ("config error: chain file is not valid JSON: "
                                           "NaN is not a JSON number\n")


class TestFailedCheckReports:
    def test_failed_check_entry_carries_its_witness(self, tmp_path, capsys, monkeypatch):
        # a NaN Dirichlet form makes every slack NaN: the check fails on entry 0
        monkeypatch.setattr(oracle, "dirichlet_form",
                            lambda chain, f: np.full(np.shape(f)[0], np.nan))
        out = tmp_path / "out"
        assert main(["--out", str(out), "--seed", "0", "verify",
                     "--suite", "decomposition_glauber_d2_m2"]) == 1
        assert "FAILED checks: decomposition_glauber_d2_m2" in capsys.readouterr().err
        (check,) = read_output(out / "verify.json")["checks"]
        assert check["passed"] is False and check["min_slack"] is None
        assert check["witness"]["slack"] is None
        assert len(check["witness"]["f"]) == 4

    def test_semigroup_properties_names_the_failed_property(self, monkeypatch):
        chain = glauber_transition_matrix(np.full(4, 0.25), 2)
        passed = oracle.semigroup_properties_check(chain)
        assert passed.passed and passed.witness is None
        monkeypatch.setattr(oracle, "semigroup",
                            lambda chain, t: np.full((chain.n_states,) * 2, np.nan))
        failed = oracle.semigroup_properties_check(chain)
        assert not failed.passed and math.isnan(failed.min_slack)
        doc = oracle.VerificationReport(seed=0, checks=(failed,)).to_dict()
        assert_conforms(doc, "verify_report.schema.json")
        assert doc["checks"][0]["witness"] == {"property": "identity", "error": None,
                                               "tol": 1e-12, "slack": None}

    def test_poissonized_law_names_the_worst_state(self, monkeypatch):
        chain = glauber_transition_matrix(np.full(4, 0.25), 2)
        # an identity semigroup: the exact law stays on the start state
        monkeypatch.setattr(oracle, "semigroup", lambda chain, t: np.eye(chain.n_states))
        report = oracle.poissonized_fidelity_check(chain, 1.3, 2000, np.random.default_rng(3))
        assert not report.passed
        assert report.min_slack == report.details["tv_tol"] - report.details["tv"]
        doc = oracle.VerificationReport(seed=0, checks=(report,)).to_dict()
        assert_conforms(doc, "verify_report.schema.json")
        witness = doc["checks"][0]["witness"]
        assert witness["state"] == 0 and witness["exact"] == 1.0
        assert witness["empirical"] == pytest.approx(1.0 - report.details["tv"])
        assert witness["slack"] == report.min_slack
