"""The benchmark's per-layer tracer still finds the layers it patches."""

import math
from pathlib import Path

import pytest

import smcmix
from smcmix.cli import main
from tests.test_cli import base_experiment, finite_experiment, write_json

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench_trace(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench_trace

    return bench_trace


@pytest.mark.parametrize("finite", [False, True])
def test_tracer_records_run_layers(tmp_path, bench_trace, finite):
    exp = (finite_experiment(tmp_path, replicates=2) if finite
           else base_experiment(n_particles=64, replicates=2))
    cfg = write_json(tmp_path / "c.json", {"schema_version": 1, "experiment": exp})
    with bench_trace.Tracer(smcmix) as tracer:
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--threads", "1",
                     "run"]) == 0
    spans = tracer.raw()
    # the builders must call the evaluators through the names the tracer patches
    layers = ["sequences.init", "smc.reweight"] + (
        [] if finite else ["core.logdensity", "core.grad"])
    for layer in layers:
        assert spans.get(layer, {}).get("calls", 0) > 0, layer
    assert spans["sequences.init"]["calls"] == 2


def test_mixture_shapes_report_every_shape(bench_trace):
    metrics = bench_trace.mixture_shapes(smcmix, 0, n_points=64, repeats=1)
    assert len(metrics) == 2 * len(bench_trace.SHAPES) == 8
    for name, (value, unit) in metrics.items():
        assert unit == "ns" and math.isfinite(value) and value > 0, name


def test_tracer_records_oracle_layers(tmp_path, bench_trace):
    # a check that bound `semigroup` locally would trace as 0 calls
    cfg = write_json(tmp_path / "c.json",
                     {"schema_version": 1, "verify": {"trials_scale": 0.05}})
    with bench_trace.Tracer(smcmix) as tracer:
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--seed", "0",
                     "verify", "--suite", "decomposition", "--suite", "variance_decay",
                     "--suite", "hypercontractivity"]) == 0
    spans = tracer.raw()
    for layer in ("oracle.decomposition", "oracle.variance_decay",
                  "oracle.hypercontractivity", "oracle.lsi_estimate", "oracle.semigroup"):
        assert spans.get(layer, {}).get("calls", 0) > 0, layer
    assert tracer.trials > 0
