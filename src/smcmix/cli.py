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
import io
import json
import math
import operator
import os
import sys
from dataclasses import replace
from functools import lru_cache, partial
from importlib import resources
from json.encoder import encode_basestring_ascii as _quote

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


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _finite_float(literal: str) -> float:
    value = float(literal)
    if math.isinf(value):  # a JSON number literal is never NaN
        raise ValueError(f"{literal} is beyond the float range")
    return value


def _read_json(path: str, what: str):
    """The standard JSON document at ``path`` (no ``NaN``, ``Infinity``, ``-Infinity``
    or number beyond the float range), or a ConfigError that names ``what``."""
    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=_refuse_constant, parse_float=_finite_float)
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, UnicodeDecodeError or refused constant
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc


def load_config(path: str) -> dict:
    """The config at ``path`` as ``check_schema`` hands it back, or a
    ConfigError with its first 10 errors."""
    doc, errors = check_schema(_load_schema("config.schema.json"), _read_json(path, "config"))
    if errors:
        lines = ["config failed schema validation (config.schema.json):"]
        for where, message in errors[:10]:
            lines.append(f"  at {'/'.join(map(str, where)) or '<root>'}: {message}")
        raise ConfigError("\n".join(lines))
    return doc


# ---------------------------------------------------------------------------
# Config -> domain objects
# ---------------------------------------------------------------------------


def _given(section: dict, *keys) -> dict:
    """The ``keys`` that ``section`` sets; the others keep the library's defaults."""
    return {k: section[k] for k in keys if k in section}


def _build_target(spec: dict) -> TargetMixture:
    means = spec["means"]
    covs = spec.get("covariances")
    if covs is None:
        covs = [np.eye(len(m)) for m in means]
    return TargetMixture.gaussian(spec["weights"], means, covs)


def _load_finite_ladder(path: str):
    doc = _read_json(path, "finite ladder file")
    if not isinstance(doc, dict) or doc.get("kind") != "finite_ladder" \
            or not isinstance(doc.get("levels"), list):
        raise ConfigError(f"finite ladder file {path} must be an object with "
                          "kind=finite_ladder and a list of levels")
    pmfs, chains = [], []
    for i, level in enumerate(doc["levels"]):
        if not isinstance(level, dict) or not isinstance(level.get("pmf"), list) \
                or not all(isinstance(p, (int, float)) for p in level["pmf"]) \
                or not isinstance(level.get("P", []), (list, type(None))):
            raise ConfigError(f"finite ladder file {path}: level {i + 1} must be an object "
                              "with a pmf that is a flat list of numbers and a list or null P")
        pmfs.append(np.asarray(level["pmf"], dtype=float))
        P = level.get("P")
        if P is None:  # refused after level 1 by build_finite_ladder
            chains.append(None)
        else:
            try:
                chains.append(FiniteChain(P=np.asarray(P, dtype=float), pi=pmfs[-1]))
            except ValueError as exc:
                raise ConfigError(f"invalid chain at level {i + 1}: {exc}") from exc
    return sequences.build_finite_ladder(pmfs, chains, time_budget=0.0)


def _resolve_time_budgets(policy, ladder):
    if policy is None:  # no time_policy: 1 on every level
        return 1.0
    if policy["mode"] == "explicit":
        return policy["t"]
    # from_theorem: the theorem's t_k from the ladder's analytic constants
    if any(level.lsi_constant_bound is None for level in ladder.levels):
        raise ConfigError("from_theorem time policy needs an analytic ladder "
                          "with a log-Sobolev bound on every level")
    budgets = bounds.theorem_times([lv.lsi_constant_bound for lv in ladder.levels],
                                   ladder.gamma_bound)
    cap = policy.get("max_total_steps", MAX_THEOREM_STEPS)
    steps = sum(lv.kernel_steps(t) for lv, t in zip(ladder.levels[1:], budgets[1:]))
    if steps > cap:
        raise ConfigError(
            f"from_theorem budgets need ~{steps:.3g} kernel steps per particle "
            f"(cap {cap:.3g}); use explicit times or raise max_total_steps"
        )
    return budgets


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
    each level at time budget 0, which no step size refuses: the run's budgets
    are ``build_smc_config``'s to set."""
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
            kernel = KernelSpec(**exp["kernel"]) if "kernel" in exp else None
            schedule = _schedule(ladder_spec, target.dim)
            if ladder_spec["kind"] == "tempering":
                ladder = sequences.build_power_tempering(
                    target, schedule, kernel=kernel, time_budget=0.0,
                    **_given(ladder_spec, "conservative_gamma"),
                )
            else:
                ladder = sequences.build_gaussian_convolution(
                    target, schedule, kernel=kernel, time_budget=0.0)
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
    try:
        return replace(config, ladder=config.ladder.with_budgets(float(value)))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_smc_config(exp: dict):
    ladder, target = _build_ladder(exp)
    try:
        ladder = ladder.with_budgets(_resolve_time_budgets(exp.get("time_policy"), ladder))
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


def _seeded_config(exp: dict, seed_override):
    """``build_smc_config(exp)`` with ``--seed``, when given, as the master seed."""
    config, exact = build_smc_config(exp)
    if seed_override is not None:
        config = replace(config, master_seed=seed_override)
    return config, exact


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _run_chunk(config, seeds) -> list:
    """Each run of ``config`` at ``seeds`` as its ``run.json`` entry and its
    level wall times: what the commands write, so that a worker process
    sends back a few hundred bytes, not the final ensembles."""
    return [(r.to_dict(), r.level_wall_times) for r in smc.run_seeded(config, seeds)]


def _run_replicates(config, n_rep: int, threads: int) -> list:
    """The ``n_rep`` runs of ``config`` at ``smc.replicate_seeds`` of its
    master seed, in order, each as ``_run_chunk`` gives it.

    With ``threads > 1`` the seeds are split into contiguous chunks, one per
    worker process, and each worker is sent the pickled ``config``.
    """
    seeds = smc.replicate_seeds(config.master_seed, n_rep)
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
    config, exact = _seeded_config(exp, seed_override)
    _make_out_dir(out_dir)
    runs = _run_replicates(config, exp["replicates"], threads)
    entries = [e for e, _ in runs]
    stats = smc.summarize_etas([e["eta"] for e in entries], exact)
    nus = [e["nu"] for e in entries]
    doc = {
        "schema_version": 1,
        "master_seed": config.master_seed,
        "n_particles": exp["n_particles"],
        "n_levels": config.ladder.n_levels,
        "estimand": exp["estimand"],
        "replicates": [{"replicate": i, **e} for i, e in enumerate(entries)],
        "summary": {
            "mean_eta": stats["mean_eta"],
            "var_eta": stats["variance"],
            "mean_nu": None if None in nus else float(np.mean(nus)),
            "mse": stats["mse"],
            "exact_value": exact,
        },
    }
    _write_json(os.path.join(out_dir, "run.json"), doc)
    _write_csv(os.path.join(out_dir, "levels.csv"), [
        ["replicate", "level", "ess", "weight_sum", "wall_time"],
        *([i, k + 2, ess, ws, f"{wt:.6f}"] for i, (e, wts) in enumerate(runs)
          for k, (ess, ws, wt) in enumerate(
              zip(e["ess_per_level"], e["weight_sums_per_level"], wts)))])
    _write_csv(os.path.join(out_dir, "replicates.csv"), [
        ["replicate", "seed", "eta", "nu"],
        *([i, e["seed"], e["eta"], e["nu"]] for i, e in enumerate(entries))])
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
    merged = _given(b, *_ASSUMPTION_KEYS)
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
            per_level_weights=weights,
            **_given(b, "delta", "p"),
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
    text = _json_text(doc)
    print(text)
    print()
    print(format_bound_table(report, feasible=doc["feasible"], cap=cap))
    if out_dir:
        _write_text(os.path.join(out_dir, "bounds.json"), text)
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


def format_bound_table(report: bounds.BoundReport, feasible: bool, cap) -> str:
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

    verify_cfg = (cfg or {}).get("verify", {})
    suites = args_suites or verify_cfg.get("suites")
    seed = {} if seed_override is None else {"seed": seed_override}
    if out_dir:
        _make_out_dir(out_dir)
    chain_file = verify_cfg.get("chain_file")
    checks = (_chain_validation_check(chain_file),) if chain_file else ()
    try:
        report = oracle.run_verification_suite(
            selectors=suites, **seed, **_given(verify_cfg, "trials_scale"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report = replace(report, checks=checks + report.checks)
    text = _json_text(report.to_dict())
    print(text)
    if out_dir:
        _write_text(os.path.join(out_dir, "verify.json"), text)
    if not report.all_passed:
        failed = [c.name for c in report.checks if not c.passed]
        print(f"FAILED checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _chain_validation_check(path: str) -> oracle.CheckReport:
    """Whether the chain file at ``path`` holds a valid ``FiniteChain``: an
    object with a transition matrix ``P`` and an optional ``pi``."""
    from . import oracle

    doc = _read_json(path, "chain file")
    details = {"path": path}
    try:
        if not isinstance(doc, dict):
            raise TypeError(f"a chain file holds an object, not a {type(doc).__name__}")
        FiniteChain(P=np.asarray(doc["P"], dtype=float), pi=doc.get("pi"))
    except (KeyError, TypeError, ValueError) as exc:
        details["error"] = str(exc)
    passed = "error" not in details
    return oracle.CheckReport("chain_validation", passed, 0.0 if passed else -math.inf, 1,
                              details=details)


def cmd_sweep(cfg: dict, out_dir: str, seed_override, threads: int) -> int:
    if "sweep" not in cfg or "experiment" not in cfg:
        raise ConfigError("sweep needs both 'sweep' and 'experiment' sections")
    sweep = cfg["sweep"]
    exp = cfg["experiment"]
    if sweep["parameter"] == "n_particles":
        bad = [v for v in sweep["values"] if v < 1 or v != int(v)]
        if bad:
            raise ConfigError(f"sweep values of n_particles must be whole numbers >= 1, got {bad}")
    base_config, exact = _seeded_config(exp, seed_override)
    if exact is None:
        raise ConfigError("sweep needs exact_value in the experiment (or a finite target)")
    configs = [_at_point(base_config, sweep["parameter"], value) for value in sweep["values"]]
    _make_out_dir(out_dir)
    points = []
    for value, config in zip(sweep["values"], configs):
        runs = _run_replicates(config, sweep["replicates"], threads)
        stats = smc.summarize_etas([e["eta"] for e, _ in runs], exact)
        points.append({"value": float(value), **stats})
    doc = {
        "schema_version": 1,
        "parameter": sweep["parameter"],
        "master_seed": base_config.master_seed,
        "exact_value": exact,
        "points": points,
    }
    _write_json(os.path.join(out_dir, "sweep.json"), doc)
    header = ["value", "mse", "mse_se", "variance", "variance_se", "bias_sq",
              "bias_sq_se", "mean_eta", "n_replicates"]
    rows = ([pt[h] for h in header] for pt in points)
    _write_csv(os.path.join(out_dir, "sweep.csv"), [header, *rows])
    print(f"wrote {out_dir}/sweep.json, sweep.csv")
    return 0


def _make_out_dir(path: str):
    """Create the output directory, or refuse one that cannot be made (a file
    of that name, no permission) as a config error."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the output directory --out {path}: {exc}") from exc


def _write_file(path: str, write):
    """Call ``write(fh)`` on a temporary file beside ``path``, then move the
    file there: a write that fails partway leaves ``path`` as it was and no
    temporary file behind.  Every file a command writes goes through here."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# the text ``json`` gives a value of each scalar type: float.__repr__ is the
# shortest text that reads back to the same double
_SCALAR_TEXTS = {float: float.__repr__, int: int.__repr__, str: _quote,
                 bool: ("false", "true").__getitem__, type(None): {None: "null"}.__getitem__}


def _json_text(doc) -> str:
    """``doc`` as the commands print and write it: byte for byte
    ``json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)``.  Its
    ``indent`` runs the standard library's pure-Python encoder, so the
    document is rendered here as a column of one value (``_json_texts``).  A
    document this cannot render (a NaN or infinity, a key that is not a
    string, a numpy scalar or other value not of a JSON type) goes whole to
    ``json.dumps``, which returns its text or raises its own error."""
    try:
        return _json_texts([doc], "\n")[0]
    except (TypeError, ValueError):
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


@lru_cache(maxsize=256)
def _json_keys(shape: tuple) -> tuple:
    """The keys ``shape`` of a dict in sorted order, each with its encoded
    text and separator; TypeError unless every key is a string."""
    return tuple((key, _quote(key) + ": ") for key in sorted(shape))


def _json_texts(values, newline: str) -> list:
    """The texts ``json.dumps`` gives the entries of ``values`` at the indent
    ``newline``: scalars of one type in one ``map``, a lone list as the column
    of its entries, lists of one length through their position columns and
    dicts of one key set through their key columns; values of mixed types or
    shapes one by one.  ValueError for a NaN or infinity, TypeError for a
    value of any other type."""
    kinds = set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind in _SCALAR_TEXTS:
        texts = list(map(_SCALAR_TEXTS[kind], values))
        if kind is float and "n" in "".join(texts):  # "nan", "inf": a finite float has no n
            raise ValueError(values)
        return texts
    inner = newline + "  "
    if kind is list or kind is tuple:
        widths = set(map(len, values))
        if widths == {0}:
            return ["[]"] * len(values)
        if len(values) == 1:  # its entries as one column, not one column per entry
            return ["[" + inner + ("," + inner).join(_json_texts(values[0], inner))
                    + newline + "]"]
        if len(widths) == 1:
            return _json_rows("[%s]", [_json_texts(c, inner) for c in zip(*values)], newline)
    elif kind is dict:
        shapes = set(map(tuple, values))
        if shapes == {()}:
            return ["{}"] * len(values)
        if len(shapes) == 1:
            columns = [map(text.__add__, _json_texts([v[key] for v in values], inner))
                       for key, text in _json_keys(shapes.pop())]
            return _json_rows("{%s}", columns, newline)
    elif kind is not None:
        raise TypeError(kind)
    return [_json_texts([v], newline)[0] for v in values]


def _json_rows(brackets: str, columns: list, newline: str) -> list:
    """The rows of ``columns`` (entry texts, one column per position or key)
    as containers at the indent ``newline`` inside the given brackets."""
    inner = newline + "  "
    wrap = (brackets[0] + inner + "%s" + newline + brackets[-1]).__mod__
    return list(map(wrap, map(("," + inner).join, zip(*columns))))


def _write_text(path: str, text: str):
    _write_file(path, lambda fh: fh.write(text + "\n"))


def _write_json(path: str, doc: dict):
    _write_text(path, _json_text(doc))


def _write_csv(path: str, rows):
    """Write ``rows`` as ``csv.writer`` writes them."""
    import csv  # here, so that ``bounds`` and ``verify`` start without it

    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    text = buffer.getvalue()
    _write_file(path, lambda fh: fh.write(text))


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
    if args.threads < 1:
        parser.error(f"argument --threads: must be a positive integer, got {args.threads}")

    try:
        if not args.config and args.command != "verify":
            raise ConfigError(f"{args.command} requires --config")
        cfg = load_config(args.config) if args.config else None
        if args.command == "run":
            return cmd_run(cfg, args.out, args.seed, args.threads)
        if args.command == "bounds":
            return cmd_bounds(cfg, args.out)
        if args.command == "verify":
            return cmd_verify(cfg, args.out, args.seed, args.suites)
        return cmd_sweep(cfg, args.out, args.seed, args.threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateWeightsError, FloatingPointError) as exc:
        print(f"runtime degeneracy: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
