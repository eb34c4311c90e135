"""Config-driven command line: run experiments, print bound reports, run the
verification suite, and sweep a grid with per-point MSE.

Exit codes: 0 success, 1 verification failure, 2 config error, 3 runtime
degeneracy (degenerate weights, non-finite Langevin gradients).  All
randomness flows from the master seed (the --seed flag overrides the config).
``run`` and ``sweep`` build their ``SmcConfig`` once; with ``--threads K``
the replicates are split into K contiguous chunks of seeds and each worker
process is sent the pickled config, so outputs are the same at any K.
Only ``verify`` (and its chain-file check) imports ``oracle``, so ``run``,
``sweep`` and ``bounds`` start without it.
A config is checked against ``smcmix/schemas/config.schema.json`` on load by
a small standard-library checker of the JSON Schema keywords the package's
schemas use, which raises on any other keyword; a number the schema types
``integer`` (64.0 is one) is handed on as an ``int``.  Every emitted JSON
document conforms to its schema under ``smcmix/schemas``, which the test
suite checks (with jsonschema) rather than each command at run time.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import operator
import os
import sys
from dataclasses import replace
from functools import partial
from importlib import resources

import numpy as np

from . import bounds, sequences, smc
from .core import DegenerateWeightsError, FiniteChain, TargetMixture
from .kernels import KernelSpec

MAX_THEOREM_STEPS = 1e7  # from-theorem time budgets beyond this are refused


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 2."""


def _load_schema(name: str) -> dict:
    with resources.files("smcmix.schemas").joinpath(name).open() as fh:
        return json.load(fh)


_JSON_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}
_BOUNDS = {  # keyword: (whether a number breaks the bound, message)
    "minimum": (operator.lt, "less than the minimum of"),
    "maximum": (operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
    "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum of"),
}
_ANNOTATIONS = frozenset({"$schema", "title", "description", "$defs"})


def _json_equal(a, b) -> bool:
    """Equality of scalars as ``const`` and ``enum`` see it: 1 equals 1.0,
    true is not 1."""
    return a == b and isinstance(a, bool) == isinstance(b, bool)


# characters of an offending value that an error line shows
_SHOWN_CHARS = 200


def _shown(value) -> str:
    """``repr(value)``, cut after ``_SHOWN_CHARS`` characters with a marker
    that gives its full length, so that one large value (a d = 160
    covariance) cannot flood the error output."""
    text = repr(value)
    if len(text) <= _SHOWN_CHARS:
        return text
    return f"{text[:_SHOWN_CHARS]}... [{len(text)} characters]"


def _check(schema: dict, value, path: tuple, root: dict, errors: list):
    """Append ``(path, message)`` to ``errors`` for each keyword of ``schema``
    (Draft 2020-12) that ``value`` breaks, and return ``value`` with every
    number the schema types ``integer`` as an ``int``.  ``$ref`` points into
    ``root``.  A keyword this checker does not implement raises ValueError,
    so that a schema edit cannot silently weaken the check."""
    out = value
    for key, arg in schema.items():
        if key == "type":
            types = [arg] if isinstance(arg, str) else arg
            if not any(_JSON_TYPES[t](value) for t in types):
                errors.append((path, f"{_shown(value)} is not of type "
                                     f"{', '.join(map(repr, types))}"))
            elif "integer" in types and isinstance(value, float) and value.is_integer():
                out = int(value)
        elif key == "const":
            if not _json_equal(value, arg):
                errors.append((path, f"{arg!r} was expected"))
        elif key == "enum":
            if not any(_json_equal(value, a) for a in arg):
                errors.append((path, f"{_shown(value)} is not one of {arg!r}"))
        elif key in _BOUNDS:
            breaks, text = _BOUNDS[key]
            if _JSON_TYPES["number"](value) and breaks(value, arg):
                errors.append((path, f"{_shown(value)} is {text} {arg!r}"))
        elif key == "minItems":
            if isinstance(value, list) and len(value) < arg:
                text = "should be non-empty" if arg == 1 else "is too short"
                errors.append((path, f"{_shown(value)} {text}"))
        elif key == "required":
            if isinstance(value, dict):
                errors.extend((path, f"{name!r} is a required property")
                              for name in arg if name not in value)
        elif key == "additionalProperties" and arg is False:
            extras = isinstance(value, dict) and sorted(
                set(value) - set(schema.get("properties", ())))
            if extras:
                verb = "was" if len(extras) == 1 else "were"
                errors.append((path, "Additional properties are not allowed "
                                     f"({', '.join(map(repr, extras))} {verb} unexpected)"))
        elif key == "properties":
            if isinstance(value, dict):
                out = {k: _check(arg[k], v, (*path, k), root, errors) if k in arg else v
                       for k, v in out.items()}
        elif key == "prefixItems":
            if isinstance(value, list):
                out = [_check(s, v, (*path, i), root, errors)
                       for i, (s, v) in enumerate(zip(arg, out))] + out[len(arg):]
        elif key == "items":
            if isinstance(value, list):
                skip = len(schema.get("prefixItems", ()))
                out = out[:skip] + [_check(arg, v, (*path, i), root, errors)
                                    for i, v in enumerate(out[skip:], skip)]
        elif key == "$ref" and arg.startswith("#/"):
            target = root
            for part in arg[2:].split("/"):
                target = target[part]
            out = _check(target, out, path, root, errors)
        elif key == "oneOf":
            valid = []
            for branch in arg:
                branch_errors = []
                checked = _check(branch, out, path, root, branch_errors)
                if not branch_errors:
                    valid.append((branch, checked))
            if len(valid) == 1:
                out = valid[0][1]
            elif not valid:
                errors.append((path, f"{_shown(value)} is not valid under any of "
                                     "the given schemas"))
            else:
                errors.append((path, f"{_shown(value)} is valid under each of "
                                     f"{', '.join(repr(branch) for branch, _ in valid)}"))
        elif key not in _ANNOTATIONS:
            raise ValueError(f"schema keyword {key!r}: {arg!r} is not implemented")
    return out


def check_schema(schema: dict, document) -> tuple:
    """``(document, errors)``: ``document`` with every number ``schema`` types
    ``integer`` as an ``int``, and a ``(path, message)`` for each keyword it
    breaks, sorted by path (a tuple of keys and indices)."""
    errors = []
    document = _check(schema, document, (), schema, errors)
    errors.sort(key=lambda error: error[0])
    return document, errors


def _validate(document, schema_name: str, what: str):
    """``document`` as ``check_schema`` hands it back, or a ConfigError with
    its first 10 errors."""
    document, errors = check_schema(_load_schema(schema_name), document)
    if errors:
        lines = [f"{what} failed schema validation ({schema_name}):"]
        for path, message in errors[:10]:
            lines.append(f"  at {'/'.join(map(str, path)) or '<root>'}: {message}")
        raise ConfigError("\n".join(lines))
    return document


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return _validate(cfg, "config.schema.json", "config")


# ---------------------------------------------------------------------------
# Config -> domain objects
# ---------------------------------------------------------------------------


def _build_target(spec: dict) -> TargetMixture:
    means = spec["means"]
    covs = spec.get("covariances")
    if covs is None:
        covs = [np.eye(len(means[0]))] * len(means)
    return TargetMixture.gaussian(spec["weights"], means, covs)


def _load_finite_ladder(path: str):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read finite ladder file: {exc}") from exc
    if doc.get("kind") != "finite_ladder" or "levels" not in doc:
        raise ConfigError("finite ladder file must have kind=finite_ladder and levels")
    pmfs, chains = [], []
    for i, level in enumerate(doc["levels"]):
        pmfs.append(np.asarray(level["pmf"], dtype=float))
        P = level.get("P")
        if P is None:  # refused after level 1 by build_finite_ladder
            chains.append(None)
        else:
            try:
                chains.append(FiniteChain(P=np.asarray(P, dtype=float), pi=pmfs[-1]))
            except ValueError as exc:
                raise ConfigError(f"invalid chain at level {i + 1}: {exc}") from exc
    return sequences.build_finite_ladder(pmfs, chains)


def _resolve_time_budgets(policy: dict | None, ladder):
    if policy is None or policy["mode"] == "explicit":
        return 1.0 if policy is None else policy["t"]
    # from_theorem: the theorem's t_k from the ladder's analytic constants
    if any(level.lsi_constant_bound is None for level in ladder.levels):
        raise ConfigError("from_theorem time policy needs an analytic ladder "
                          "with a log-Sobolev bound on every level")
    budgets = bounds.theorem_times([lv.lsi_constant_bound for lv in ladder.levels],
                                   ladder.gamma_bound)
    cap = policy.get("max_total_steps", MAX_THEOREM_STEPS)
    # per smoothed level (2..n): ceil(t/h) Langevin steps or t expected
    # Poissonized jumps, as floats: t/h may still overflow to inf
    steps = sum(
        float(np.ceil(t / lv.kernel.step_size)) if lv.kernel.kind == "langevin" else t
        for lv, t in zip(ladder.levels[1:], budgets[1:])
    )
    if steps > cap:
        raise ConfigError(
            f"from_theorem budgets need ~{steps:.3g} kernel steps per particle "
            f"(cap {cap:.3g}); use explicit times or raise max_total_steps"
        )
    return budgets


def _with_budgets(ladder, time_budget):
    """The ladder with its levels' time budgets set (one number or one per level)."""
    budgets = sequences._as_budgets(time_budget, ladder.n_levels)
    levels = tuple(replace(lv, time_budget=t) for lv, t in zip(ladder.levels, budgets))
    return replace(ladder, levels=levels)


def _schedule(ladder_spec: dict, d: int):
    if "betas" in ladder_spec:
        return sequences.TemperingSchedule(
            betas=tuple(ladder_spec["betas"]), d=d, sigma=ladder_spec.get("sigma")
        )
    return sequences.geometric_schedule(
        ladder_spec.get("n_levels", 10),
        ladder_spec.get("beta_min", 0.05),
        d,
        sigma=ladder_spec.get("sigma"),
    )


def _build_ladder(exp: dict):
    """The experiment's ladder and target (``None`` for a finite ladder file),
    each level at the builders' unit time budget: run budgets are
    ``build_smc_config``'s to apply."""
    target_spec = exp["target"]
    ladder_spec = exp["ladder"]
    finite = target_spec["kind"] == "finite_ladder_file"
    if finite != (ladder_spec["kind"] == "from_file"):
        raise ConfigError("finite ladder targets and ladder.kind = from_file go together")
    if finite and "kernel" in exp:
        raise ConfigError("a from_file ladder is smoothed by the chains P of its file; "
                          "remove the kernel section")
    try:
        if finite:
            target = None
            ladder = _load_finite_ladder(target_spec["path"])
        else:
            target = _build_target(target_spec)
            section = exp.get("kernel")
            # Langevin without a step size: the builders' per-level default_step_size
            if section is None or (section["kind"] == "langevin" and "step_size" not in section):
                kernel = None
            else:
                kernel = KernelSpec(**section)
            schedule = _schedule(ladder_spec, target.dim)
            if ladder_spec["kind"] == "tempering":
                ladder = sequences.build_power_tempering(
                    target, schedule, kernel=kernel,
                    conservative_gamma=ladder_spec.get("conservative_gamma", False),
                )
            else:
                ladder = sequences.build_gaussian_convolution(target, schedule, kernel=kernel)
        return ladder, target
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _estimand_index(spec: dict, key: str, size: int, what: str) -> int:
    """``spec[key]`` (default 0), refused unless it is below ``size``."""
    index = spec.get(key, 0)
    if index >= size:
        raise ConfigError(f"estimand {key} {index} is out of range: it must be below "
                          f"{size}, the number of {what}")
    return index


def _coordinate(coord: int, x) -> np.ndarray:
    """Coordinate ``coord`` of each state, as floats; a finite state is its
    own index."""
    x = np.asarray(x)
    return (x if x.ndim == 1 else x[:, coord]).astype(float)


def _constant(value: float, x) -> np.ndarray:
    return np.full(np.shape(x)[0], value)


def _halfspace(coord: int, threshold: float, x) -> np.ndarray:
    return (_coordinate(coord, x) > threshold).astype(float)


def _state_indicator(state: int, x) -> np.ndarray:
    return (np.asarray(x) == state).astype(float)


def _nearest_mode(means: np.ndarray, mode: int, x) -> np.ndarray:
    """1 where the nearest of the (M, d) ``means`` to a point is ``mode``."""
    d2 = np.sum((np.asarray(x)[:, None, :] - means[None, :, :]) ** 2, axis=2)
    return (np.argmin(d2, axis=1) == mode).astype(float)


def _build_estimand(spec: dict, ladder, target):
    """The estimand ``spec`` names, a ``partial`` of a module function so
    that a config pickles.  A finite state is one coordinate, its index, and
    each state is its own mode."""
    name = spec["name"]
    n_coords = 1 if target is None else target.dim
    if name == "constant":
        return partial(_constant, float(spec.get("value", 1.0)))
    if name == "indicator_halfspace":
        coord = _estimand_index(spec, "coordinate", n_coords, "coordinates")
        return partial(_halfspace, coord, spec.get("threshold", 0.0))
    if name == "coordinate_mean":
        return partial(_coordinate, _estimand_index(spec, "coordinate", n_coords, "coordinates"))
    if name == "mode_indicator":
        if target is None:  # a finite state is its own mode
            size = ladder.levels[-1].pmf.size
            return partial(_state_indicator, _estimand_index(spec, "mode_index", size, "states"))
        idx = _estimand_index(spec, "mode_index", target.n_components, "modes")
        return partial(_nearest_mode, np.stack([g.mean for g in target.components]), idx)
    raise ConfigError(f"unknown estimand {name!r}")


def _exact_value(exp: dict, ladder, estimand):
    if "exact_value" in exp:
        return float(exp["exact_value"])
    last = ladder.levels[-1]
    if last.pmf is not None:
        values = estimand(np.arange(last.pmf.shape[0], dtype=np.int64))
        return float(last.pmf @ values)
    return None


def _at_point(config, parameter: str, value):
    """``config`` at the sweep point ``parameter = value``."""
    if parameter == "n_particles":
        return replace(config, n_particles=int(value))
    return replace(config, ladder=_with_budgets(config.ladder, float(value)))


def build_smc_config(exp: dict):
    ladder, target = _build_ladder(exp)
    try:
        ladder = _with_budgets(ladder, _resolve_time_budgets(exp.get("time_policy"), ladder))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    estimand = _build_estimand(exp["estimand"], ladder, target)
    config = smc.SmcConfig(
        ladder=ladder,
        n_particles=exp["n_particles"],
        master_seed=int(exp["master_seed"]),
        estimand=estimand,
    )
    return config, _exact_value(exp, ladder, estimand)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _run_chunk(config, seeds) -> list:
    """The runs of ``config`` at ``seeds`` without their particles, so that a
    worker process sends back a few hundred bytes, not the final ensembles."""
    return [replace(r, final_ensemble=None) for r in smc.run_seeded(config, seeds)]


def _run_replicates(config, seeds: list, threads: int) -> list:
    """The runs of ``config``, one per seed, in order, without their particles.

    With ``threads > 1`` the seeds are split into contiguous chunks, one per
    worker process, and each worker is sent the pickled ``config``.
    """
    n_rep = len(seeds)
    if threads <= 1 or n_rep == 1:
        return _run_chunk(config, seeds)
    from concurrent.futures import ProcessPoolExecutor

    size = -(-n_rep // threads)
    chunks = [seeds[i:i + size] for i in range(0, n_rep, size)]
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        return [r for chunk in pool.map(_run_chunk, [config] * len(chunks), chunks)
                for r in chunk]


def cmd_run(cfg: dict, out_dir: str, seed_override, threads: int) -> int:
    if "experiment" not in cfg:
        raise ConfigError("run needs an 'experiment' section")
    exp = cfg["experiment"]
    master_seed = int(exp["master_seed"] if seed_override is None else seed_override)
    n_rep = exp["replicates"]
    config, exact = build_smc_config(exp)
    _make_out_dir(out_dir)
    seeds = smc.replicate_seeds(master_seed, n_rep)
    results = _run_replicates(config, seeds, threads)

    stats = smc.summarize_etas([r.eta_estimate for r in results], exact)
    nus = [r.nu_estimate for r in results]
    doc = {
        "schema_version": 1,
        "master_seed": master_seed,
        "n_particles": exp["n_particles"],
        "n_levels": config.ladder.n_levels,
        "estimand": exp["estimand"],
        "replicates": [{"replicate": i, **r.to_dict()} for i, r in enumerate(results)],
        "summary": {
            "mean_eta": stats["mean_eta"],
            "var_eta": stats["variance"],
            "mean_nu": None if None in nus else float(np.mean(nus)),
            "mse": stats["mse"],
            "exact_value": exact,
        },
    }
    _write_json(os.path.join(out_dir, "run.json"), doc)
    with open(os.path.join(out_dir, "levels.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replicate", "level", "ess", "weight_sum", "wall_time"])
        for i, r in enumerate(results):
            for k, (ess, ws, wt) in enumerate(
                zip(r.ess_per_level, r.weight_sums_per_level, r.level_wall_times)
            ):
                writer.writerow([i, k + 2, f"{ess!r}", f"{ws!r}", f"{wt:.6f}"])
    with open(os.path.join(out_dir, "replicates.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replicate", "seed", "eta", "nu"])
        for i, r in enumerate(results):
            nu = "" if r.nu_estimate is None else f"{r.nu_estimate!r}"
            writer.writerow([i, r.master_seed, f"{r.eta_estimate!r}", nu])
    print(f"wrote {out_dir}/run.json, levels.csv, replicates.csv")
    return 0


_ASSUMPTION_KEYS = ("n", "M", "w_star", "gamma", "c_star")


def _assumption_params_from_config(cfg: dict) -> bounds.AssumptionParams:
    """The ``bounds`` section's constants, with any of n, M, w_star, gamma and
    c_star it lacks derived from the experiment's analytic ladder, built
    without run budgets.

    Derived ``c_star`` are the ladder's own level constants, except that a
    ``convolution`` section adds the noise to base constants itself, so it
    gets the ladder's un-noised one: its last level's.  A convolution
    ladder's levels keep the target weights exactly, so its ``w_star`` is
    the smallest target weight and its weights are the exact
    ``per_level_weights``; a tempering ladder's ``w_star`` is the lower bound
    ``tempered_weight_lower_bound`` on its levels' weights.
    """
    b = cfg["bounds"]
    merged = {k: b[k] for k in _ASSUMPTION_KEYS if k in b}
    weights = None
    try:
        if len(merged) < len(_ASSUMPTION_KEYS):
            exp = cfg.get("experiment")
            if exp is None:
                raise ConfigError("bounds section is incomplete and there is no "
                                  "experiment to derive from")
            ladder, target = _build_ladder(exp)
            if target is None:
                raise ConfigError("cannot derive assumption constants from a finite ladder file")
            c_star = [lv.lsi_constant_bound for lv in ladder.levels]
            derived = {
                "n": ladder.n_levels,
                "M": target.n_components,
                "gamma": ladder.gamma_bound,
                "c_star": c_star[-1:] if "convolution" in b else c_star,
            }
            if exp["ladder"]["kind"] == "convolution":
                derived["w_star"] = target.w_star
                # exact weights describe the derived mixture, not a given M or w_star
                if "M" not in b and "w_star" not in b:
                    weights = (tuple(target.weights.tolist()),) * ladder.n_levels
            else:
                betas = [lv.beta for lv in ladder.levels]
                derived["w_star"] = sequences.tempered_weight_lower_bound(target, betas=betas)
            merged = {**derived, **merged}
        c_star = merged["c_star"]
        return bounds.AssumptionParams(
            n=int(merged["n"]),
            M=int(merged["M"]),
            w_star=float(merged["w_star"]),
            gamma=float(merged["gamma"]),
            c_star_per_level=tuple(float(c) for c in np.atleast_1d(c_star)),
            f_sup_bound=float(b["f_sup_bound"]),
            epsilon=float(b["epsilon"]),
            delta=float(b.get("delta", 0.1)),
            p=int(b.get("p", 4)),
            per_level_weights=weights,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _check_convolution_section(cfg: dict, n: int):
    """Refuse a ``bounds.convolution`` section that does not describe the
    ladder: more betas than its n - 1 noised levels (the noise would fall on
    the exact target), a ``d`` unlike the experiment target's, or, when the
    constants are derived from the experiment, betas or a sigma unlike its
    ladder's."""
    b = cfg["bounds"]
    conv = b["convolution"]
    betas = tuple(float(beta) for beta in conv["betas"])
    if len(betas) > n - 1:
        raise ConfigError(f"bounds.convolution has {len(betas)} betas but the ladder "
                          f"has {n - 1} noised levels (n = {n})")
    exp = cfg.get("experiment")
    if exp is None or exp["target"]["kind"] == "finite_ladder_file":
        return
    d = len(exp["target"]["means"][0])
    if conv["d"] != d:
        raise ConfigError(f"bounds.convolution has d = {conv['d']} but the target "
                          f"has dimension {d}")
    if any(key not in b for key in _ASSUMPTION_KEYS):
        schedule = _schedule(exp["ladder"], d)
        if betas != schedule.betas:
            raise ConfigError(f"bounds.convolution has betas {list(betas)} but the "
                              f"experiment's ladder has {list(schedule.betas)}")
        if conv["sigma"] != schedule.sigma:
            raise ConfigError(f"bounds.convolution has sigma {conv['sigma']:g} but the "
                              f"experiment's ladder has {schedule.sigma}")


def cmd_bounds(cfg: dict, out_dir) -> int:
    if "bounds" not in cfg:
        raise ConfigError("bounds needs a 'bounds' section")
    b = cfg["bounds"]
    params = _assumption_params_from_config(cfg)
    try:
        if "convolution" in b:
            conv = b["convolution"]
            report = bounds.prescribe_convolution(
                params, conv["sigma"], conv["betas"], conv["d"], alpha=b.get("alpha")
            )
            # checked after the prescription, so a step bound past the float range is named first
            _check_convolution_section(cfg, params.n)
        else:
            report = bounds.prescribe_main(params, mode=b["mode"], alpha=b.get("alpha"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except ArithmeticError as exc:  # an intermediate beyond the float range
        raise ConfigError(f"bound constants leave the float range ({exc})") from exc
    cap = b.get("feasibility_cap")
    doc = {"schema_version": 1, **report.to_dict()}
    non_finite = [key for key, value in doc.items() if not _all_finite(value)]
    if non_finite:
        raise ConfigError(f"bound constants overflow to infinity: {', '.join(non_finite)}")
    if out_dir:  # made before the report is printed, so a bad --out prints nothing
        _make_out_dir(out_dir)
    doc["feasible"] = cap is None or report.prescribed_N <= cap
    doc["feasibility_cap"] = cap
    print(json.dumps(doc, indent=2, sort_keys=True))
    print()
    print(format_bound_table(report, feasible=doc["feasible"], cap=cap))
    if out_dir:
        _write_json(os.path.join(out_dir, "bounds.json"), doc)
    if not doc["feasible"]:
        print(
            f"warning: prescribed N = {report.prescribed_N} exceeds the cap {cap:g}",
            file=sys.stderr,
        )
    return 0


def _all_finite(value) -> bool:
    """Whether every number in a report value (nested lists, tuples, dicts) is finite."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        value = list(value.values())
    return not isinstance(value, (list, tuple)) or all(_all_finite(v) for v in value)


def format_bound_table(report: bounds.BoundReport, feasible: bool = True, cap=None) -> str:
    rows = [
        ("theorem", report.which_theorem),
        ("gamma", f"{report.params.gamma:.6g}"),
        ("M", str(report.params.M)),
        ("w_star", f"{report.params.w_star:.6g}"),
        ("epsilon", f"{report.params.epsilon:.6g}"),
        ("alpha", f"{report.alpha:.6g}"),
        ("beta", f"{report.beta:.6g}"),
        ("theta(p,p/2)", f"{report.theta:.6g}"),
        ("c_hat", f"{report.c_hat:.6g}"),
        ("v_bar", f"{report.v_bar:.6g}"),
        ("N (variance branch)", f"{report.n_variance_branch:.6g}"),
        ("N (moment branch)", f"{report.n_moment_branch:.6g}"),
        ("prescribed N", str(report.prescribed_N)),
        ("complete-form N", f"{report.complete_N:.6g}"),
        ("t_k (simplified)", ", ".join(f"{t:.6g}" for t in report.prescribed_t_per_level)),
        ("t_k (complete)", ", ".join(f"{t:.6g}" for t in report.complete_t_per_level)),
    ]
    for p, dl in report.delta_table:
        rows.append((f"delta({p})", f"{dl:.6g}"))
    if cap is not None:
        rows.append(("feasible", str(feasible)))
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def cmd_verify(cfg: dict | None, out_dir, seed_override, args_suites) -> int:
    from . import oracle

    verify_cfg = (cfg or {}).get("verify", {}) if cfg else {}
    suites = args_suites or verify_cfg.get("suites")
    seed = int(seed_override if seed_override is not None else 0)
    scale = verify_cfg.get("trials_scale", 1.0)
    if out_dir:
        _make_out_dir(out_dir)
    checks = []
    chain_file = verify_cfg.get("chain_file")
    if chain_file:
        checks.append(_chain_validation_check(chain_file))
    try:
        report = oracle.run_verification_suite(
            selectors=suites, seed=seed, trials_scale=scale
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    all_checks = tuple(checks) + report.checks
    report = oracle.VerificationReport(seed=seed, checks=all_checks)
    doc = report.to_dict()
    print(json.dumps(doc, indent=2, sort_keys=True))
    if out_dir:
        _write_json(os.path.join(out_dir, "verify.json"), doc)
    if not report.all_passed:
        failed = [c.name for c in report.checks if not c.passed]
        print(f"FAILED checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _chain_validation_check(path: str) -> oracle.CheckReport:
    from . import oracle

    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read chain file: {exc}") from exc
    try:
        FiniteChain(P=np.asarray(doc["P"], dtype=float), pi=doc.get("pi"))
    except (KeyError, ValueError) as exc:
        return oracle.CheckReport(
            name="chain_validation",
            passed=False,
            min_slack=-math.inf,
            n_trials=1,
            details={"error": str(exc), "path": path},
        )
    return oracle.CheckReport(
        name="chain_validation", passed=True, min_slack=0.0, n_trials=1,
        details={"path": path},
    )


def cmd_sweep(cfg: dict, out_dir: str, seed_override, threads: int) -> int:
    if "sweep" not in cfg or "experiment" not in cfg:
        raise ConfigError("sweep needs both 'sweep' and 'experiment' sections")
    sweep = cfg["sweep"]
    exp = cfg["experiment"]
    if sweep["parameter"] == "n_particles":
        bad = [v for v in sweep["values"] if v < 1 or v != int(v)]
        if bad:
            raise ConfigError(f"sweep values of n_particles must be whole numbers >= 1, got {bad}")
    master_seed = int(exp["master_seed"] if seed_override is None else seed_override)
    base_config, exact = build_smc_config(exp)
    if exact is None:
        raise ConfigError("sweep needs exact_value in the experiment (or a finite target)")
    _make_out_dir(out_dir)
    seeds = smc.replicate_seeds(master_seed, sweep["replicates"])
    points = []
    for value in sweep["values"]:
        config = _at_point(base_config, sweep["parameter"], value)
        results = _run_replicates(config, seeds, threads)
        stats = smc.summarize_etas([r.eta_estimate for r in results], exact)
        points.append({"value": float(value), **stats})
    doc = {
        "schema_version": 1,
        "parameter": sweep["parameter"],
        "master_seed": master_seed,
        "exact_value": exact,
        "points": points,
    }
    _write_json(os.path.join(out_dir, "sweep.json"), doc)
    with open(os.path.join(out_dir, "sweep.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["value", "mse", "mse_se", "variance", "variance_se", "bias_sq",
                  "bias_sq_se", "mean_eta", "n_replicates"]
        writer.writerow(header)
        for pt in points:
            writer.writerow([pt[h] for h in header])
    print(f"wrote {out_dir}/sweep.json, sweep.csv")
    return 0


def _make_out_dir(path: str):
    """Create the output directory, or refuse one that cannot be made (a file
    of that name, no permission) as a config error."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the output directory --out {path}: {exc}") from exc


def _write_json(path: str, doc: dict):
    """Write ``doc`` to a temporary file beside ``path``, then move it there:
    a dump that fails (on a NaN or an infinity) leaves ``path`` as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _seed(text: str) -> int:
    """``--seed``: a master seed, which the ``SeedSequence`` hash needs non-negative."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {seed}")
    return seed


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, so that a pinned or containerised run does not oversubscribe."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="smcmix",
        description="Sequential Monte Carlo for multimodal mixtures: "
        "run experiments, evaluate bound prescriptions, verify the theory "
        "on exact finite chains, and sweep parameter grids.",
    )
    parser.add_argument("--config", help="path to the JSON configuration")
    parser.add_argument("--seed", type=_seed, help="override the master seed")
    parser.add_argument("--threads", type=int, default=_usable_cpus(),
                        help="worker processes for replicates (default: the CPUs "
                        "this process may use)")
    parser.add_argument("--out", default="out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", help="run the configured SMC experiment")
    sub.add_parser("bounds", help="evaluate and print the bound report")
    verify = sub.add_parser("verify", help="run the oracle verification suite")
    verify.add_argument("--suite", action="append", dest="suites",
                        help="check-name prefix to run (repeatable); default all")
    sub.add_parser("sweep", help="grid over N or t with per-point MSE")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config) if args.config else None
        if args.command == "run":
            if cfg is None:
                raise ConfigError("run requires --config")
            return cmd_run(cfg, args.out, args.seed, args.threads)
        if args.command == "bounds":
            if cfg is None:
                raise ConfigError("bounds requires --config")
            return cmd_bounds(cfg, args.out)
        if args.command == "verify":
            return cmd_verify(cfg, args.out, args.seed, args.suites)
        if args.command == "sweep":
            if cfg is None:
                raise ConfigError("sweep requires --config")
            return cmd_sweep(cfg, args.out, args.seed, args.threads)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateWeightsError, FloatingPointError) as exc:
        print(f"runtime degeneracy: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
