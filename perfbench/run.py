"""Seeded benchmark of `smcmix run` and `smcmix verify`.

Usage (from the repository root):

    python3 perfbench/run.py --workload tempering_small_n --seed 20240529 \
        --seconds 12 --trace 0 [--label NAME]
    python3 perfbench/run.py                  # every workload, one process each
    python3 perfbench/run.py --smoke          # every workload at tiny sizes
    python3 perfbench/run.py --self-test      # every check fails on a wrong reference

One workload runs in one process.  Every operation is one CLI command run
in-process through ``smcmix.cli.main`` (sampler commands with ``--threads
1``), in a closed loop for ``--seconds``.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; ``--trace 0`` reports the end-to-end metrics and ``--trace 1``
the per-layer metrics.  Each run also writes ``perfbench/results/
BENCH_<label>_<workload>_seed<seed>_trace<t>.json``.  See README.md.

This module imports only the standard library at the top, so that the
set-up probe can time the import of smcmix and its dependencies.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "_work"

# bench_workloads.WORKLOADS, repeated so that parsing arguments imports no numpy.
WORKLOADS = ("tempering_small_n", "convolution_large_n", "finite_ladder", "oracle_verify")
DEFAULT_SEED = 20240529
DEFAULT_SECONDS = 20  # run_seconds of BENCHMARK.json
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 120


def import_program():
    """Import smcmix from this checkout's ``src``, never from anywhere else."""
    if not (SRC / "smcmix" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no smcmix sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import smcmix

    if Path(smcmix.__file__).resolve().parent != SRC / "smcmix":
        raise SystemExit(f"perfbench: imported smcmix from {smcmix.__file__}, not {SRC}")
    return smcmix


def set_up(workload: str, seed: int, smoke: bool, workdir: Path):
    """Import smcmix, write the inputs, load and build the config once."""
    smcmix = import_program()
    import bench_workloads as wl

    inputs = wl.make_inputs(workload, seed, str(workdir), smoke)
    cfg = smcmix.cli.load_config(inputs.config_path)
    if "experiment" in cfg:
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            smcmix.cli.build_smc_config(cfg["experiment"])
    return smcmix, inputs


def setup_probe(args) -> int:
    """Time one set-up in this fresh process and print its seconds."""
    workdir = WORK / f"probe-{os.getpid()}"
    try:
        t0 = time.perf_counter()
        set_up(args.workload, args.seed, args.smoke, workdir)
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(repr(elapsed))
    return 0


def measure_setup(args) -> tuple:
    """Set-up seconds of fresh processes run in turn, raw and scaled.

    ``SETUP_PROBES`` processes (one in smoke mode).  Each probe runs between
    two reference import processes, and its time is scaled by their mean.
    """
    import bench_speed

    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    raw, scaled = [], []
    before = bench_speed.import_reference_seconds()
    for _ in range(1 if args.smoke else SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        after = bench_speed.import_reference_seconds()
        raw.append(float(proc.stdout))
        scaled.append(raw[-1] * bench_speed.IMPORT_REFERENCE_S / (0.5 * (before + after)))
        before = after
    return raw, scaled


def invoke(cli, argv: list):
    """Run one CLI command in-process; returns (exit code, seconds, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # the loop must go on and count the failure
        code = -1
        err.write(traceback.format_exc())
    return code, time.perf_counter() - t0, err.getvalue()


class Loop:
    """Closed loop of commands, one client: the next starts when one ends."""

    def __init__(self, smcmix, inputs, seed: int):
        import bench_workloads as wl

        self.wl = wl
        self.cli = smcmix.cli
        self.inputs = inputs
        self.seed = seed
        self.next_k = 1  # command 0 is the warm-up
        self.outputs = []  # sound outputs of every timed command
        self.failures = []  # (seed, reason) of failed commands

    def command(self, k: int):
        """Run command ``k``; returns (seconds, Output or None, problems)."""
        seed = self.wl.command_seed(self.seed, k)
        path = self.inputs.output_path()
        if os.path.exists(path):
            os.remove(path)
        code, seconds, err = invoke(self.cli, self.inputs.argv(seed))
        if code != 0:
            return seconds, None, [f"exit code {code}: {err.strip()[-500:]}"]
        try:
            out = self.wl.read_output(self.inputs, seed)
        except (OSError, ValueError, KeyError) as exc:
            return seconds, None, [f"unreadable output: {exc}"]
        return seconds, out, self.wl.command_problems(self.inputs, out)

    def run_for(self, seconds: float) -> "Phase":
        """Timed commands until ``seconds`` have passed, each between two kernel runs."""
        import bench_speed

        phase = Phase([], [], 0)
        n_outputs = len(self.outputs)
        start = time.perf_counter()
        before = bench_speed.reference_seconds()
        while time.perf_counter() - start < seconds:
            dt, out, problems = self.command(self.next_k)
            after = bench_speed.reference_seconds()
            self.next_k += 1
            phase.raw.append(dt)
            phase.scale.append(bench_speed.scale(before, after))
            before = after
            if problems:
                self.failures.append((out.seed if out else None, problems))
            else:
                self.outputs.append(out)
        phase.units = sum(o.units for o in self.outputs[n_outputs:])
        return phase


@dataclass
class Phase:
    """Wall seconds of a phase's commands, their speed scale factors, and the
    replicates (oracle trials for verify) their sound outputs hold."""

    raw: list
    scale: list
    units: int

    def end_to_end(self, scaled: bool = True) -> dict:
        times = [d * f for d, f in zip(self.raw, self.scale)] if scaled else self.raw
        return {
            "replicates_per_s": (self.units / sum(times), "1/s"),
            "command_ms_p50": (1e3 * statistics.median(times), "ms"),
        }

    def speed_factor(self) -> float:
        return statistics.median(self.scale)


def scale_times(metrics: dict, factor: float) -> dict:
    """Scale the metrics measured in time units by the phase's speed factor."""
    return {k: (v * factor if u in ("s", "ms", "ns") else v, u) for k, (v, u) in metrics.items()}


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def git_sha():
    """HEAD of the checkout, read from .git without starting git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(args) -> dict:
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        # setup_s is an end-to-end metric; a traced run does not report it.
        setup_raw, setup_scaled = measure_setup(args) if not args.trace else ([], [])
        smcmix, inputs = set_up(args.workload, args.seed, args.smoke, workdir)
        import bench_speed
        import bench_trace
        import bench_workloads as wl

        loop = Loop(smcmix, inputs, args.seed)
        _, first, first_problems = loop.command(0)  # warm-up: caches, schemas, warnings

        if args.trace:
            plain = loop.run_for(args.seconds / 2.0)
            with bench_trace.Tracer(smcmix) as tracer:
                traced = loop.run_for(args.seconds / 2.0)
            phases = [plain, traced]
            metrics = scale_times(tracer.metrics(traced.raw), traced.speed_factor())
            before = bench_speed.reference_seconds()
            shapes = bench_trace.mixture_shapes(smcmix, args.seed)
            metrics.update(scale_times(
                shapes, bench_speed.scale(before, bench_speed.reference_seconds())))
            base, with_trace = plain.end_to_end(), traced.end_to_end()
            metrics["trace.overhead_replicates_per_s"] = (
                1.0 - with_trace["replicates_per_s"][0] / base["replicates_per_s"][0], "ratio")
            metrics["trace.overhead_command_ms_p50"] = (
                with_trace["command_ms_p50"][0] / base["command_ms_p50"][0] - 1.0, "ratio")
            extra = {"spans": tracer.raw(), "untraced": base, "traced": with_trace}
        else:
            phases = [loop.run_for(args.seconds)]
            metrics = {"setup_s": (statistics.median(setup_scaled), "s")}
            metrics.update(phases[0].end_to_end())
            metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
            extra = {"raw": {"setup_s": statistics.median(setup_raw),
                             **{k: v for k, (v, _) in phases[0].end_to_end(False).items()}}}

        _, repeat, repeat_problems = loop.command(0)
        if first is None or repeat is None:
            checks = [(name, out is not None, "; ".join(problems) or "ok")
                      for name, out, problems in (("warm_up_command", first, first_problems),
                                                  ("repeat_command", repeat, repeat_problems))]
        else:
            checks = wl.run_checks(smcmix, inputs, loop.outputs, first, repeat)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks_ok = all(ok for _, ok, _ in checks)
    # The untimed warm-up command and its repeat are operations too.
    attempted = sum(len(p.raw) for p in phases) + 2
    # A failed run-level check covers every command's output, so all count as failed.
    failed = attempted if not checks_ok else len(loop.failures)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": bool(args.smoke),
        "commands": attempted,
        "command_seconds_raw": [d for p in phases for d in p.raw],
        "speed_scale": [f for p in phases for f in p.scale],
        "setup_seconds_raw": setup_raw,
        "setup_seconds_scaled": setup_scaled,
        "correct": checks_ok,
        "attempted": attempted,
        "failed": failed,
        "checks": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks],
        "command_failures": [{"seed": s, "problems": p} for s, p in loop.failures[:20]],
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    }


def write_results(label: str, name: str, doc: dict) -> Path:
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"BENCH_{label}_{name}.json"
    with open(path, "w") as fh:
        json.dump({"label": label, "machine": machine_info(), **doc}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    return path


def print_report(doc: dict):
    print(f"workload {doc['workload']}: attempted {doc['attempted']}, failed {doc['failed']}, "
          f"correct {doc['correct']}")
    for name, ok, detail in ((c["name"], c["ok"], c["detail"]) for c in doc["checks"]):
        print(f"  check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    for name, m in doc["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if "raw" in doc:
        print("  unscaled wall time: " + ", ".join(f"{k} = {v:.6g}" for k, v in doc["raw"].items()))


def child_argv(args, workload: str) -> list:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--label", args.label]
    return argv + (["--smoke"] if args.smoke else [])


def child_result(workload: str, proc) -> dict:
    """The result line of a workload's process; a process that ended without
    one counts as one failed operation."""
    lines = (proc.stdout or "").strip().splitlines()
    if proc.returncode == 0 and lines:
        with contextlib.suppress(ValueError):
            return json.loads(lines[-1])
    tail = (proc.stderr or "").strip()[-2000:]
    print(f"workload {workload}: ended with exit code {proc.returncode} and no result\n{tail}")
    return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def run_all(args) -> dict:
    """Every workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    per_workload = {}
    for workload in WORKLOADS:
        try:
            proc = subprocess.run(child_argv(args, workload), cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
        except subprocess.TimeoutExpired as exc:
            proc = subprocess.CompletedProcess(exc.cmd, None, "", f"timed out after {exc.timeout} s")
        sys.stdout.write((proc.stdout or "").rsplit("\n", 2)[0] + "\n")
        result = child_result(workload, proc)
        per_workload[workload] = {k: result[k] for k in ("correct", "attempted", "failed")}
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
    write_results(args.label, f"all_seed{args.seed}_trace{args.trace}",
                  {"seed": args.seed, "workloads": per_workload, **merged})
    return merged


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measuring time per workload (default {DEFAULT_SECONDS}; 1 in "
                        "smoke); compare only runs of the same length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="run", help="name of the results file")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, seconds-long runs")
    parser.add_argument("--self-test", action="store_true",
                        help="show that every check fails on a wrong reference value")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else DEFAULT_SECONDS
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not all(c.isalnum() or c in "_.-" for c in args.label):
        parser.error("--label may hold only letters, digits, '_', '.' and '-'")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    import_program()  # fail early, before any output, when there is no program
    if args.self_test:
        import bench_selftest

        return bench_selftest.main(args)
    if args.workload == "all":
        result = run_all(args)
    else:
        doc = run_workload(args)
        write_results(args.label, f"{args.workload}_seed{args.seed}_trace{args.trace}", doc)
        print_report(doc)
        result = {k: doc[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
