"""The config checker ``cli.check_schema`` against its reference, jsonschema's
Draft 2020-12 validator: the same verdict on the pinned configs of
``test_fuzz`` and on seeded one-field changes of them, the Draft 2020-12
meanings of types and equality, the command line's error text, and a
refusal of every keyword the checker does not implement.
"""

import copy
from importlib import resources

import jsonschema
import numpy as np
import pytest

from smcmix import cli
from smcmix.cli import main
from test_cli import assert_checker_agrees, base_experiment, write_json
from test_fuzz import N_CONFIGS, SEED, random_bounds, random_experiment, random_sweep

MUTATION_SEED = 20261019
KINDS_PER_CONFIG = 5  # of the 15 CHANGE_KINDS: about 1200 documents in a few seconds
CONFIG_SCHEMA = cli._load_schema("config.schema.json")
SCHEMA_NAMES = sorted(entry.name for entry in resources.files("smcmix.schemas").iterdir()
                      if entry.name.endswith(".schema.json"))
CHANGE_KINDS = {
    "wrong type", "bool for a number", "integer-valued float", "fractional float",
    "past a bound", "at a bound", "misspelt enum", "other enum value", "misspelt const",
    "const as float", "const as bool", "required key removed", "extra key", "empty array",
    "oneOf neither",
}


def sites(schema: dict, value, path=()):
    """``(path, subschema, value)`` for ``value`` and every value in it that a
    subschema governs, through ``$ref`` and every ``oneOf`` branch."""
    if "$ref" in schema:
        schema = CONFIG_SCHEMA["$defs"][schema["$ref"].rsplit("/", 1)[1]]
    yield path, schema, value
    for branch in schema.get("oneOf", ()):
        yield from sites(branch, value, path)
    if isinstance(value, dict):
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                yield from sites(sub, value[key], (*path, key))
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            yield from sites(schema["items"], item, (*path, i))


def changes(schema: dict, value) -> list:
    """``(kind, new value)`` for each one-field change of ``value`` that
    probes a keyword of ``schema``; some are valid, most are not."""
    kind = schema.get("type")
    out = []
    if kind is not None:
        out.append(("wrong type", 7 if kind == "string" else "text"))
    if kind in ("number", "integer"):
        out.append(("bool for a number", True))
    if kind == "integer" and type(value) is int:
        out += [("integer-valued float", float(value)), ("fractional float", value + 0.5)]
    for key, outward in (("minimum", -1), ("maximum", 1)):
        if key in schema:
            bound = schema[key]
            past = bound + outward if kind == "integer" else np.nextafter(bound, outward * np.inf)
            out += [("past a bound", float(past)), ("at a bound", bound)]
    for key, outward in (("exclusiveMinimum", -1), ("exclusiveMaximum", 1)):
        if key in schema:
            bound = schema[key]
            out += [("past a bound", bound), ("past a bound", float(bound)),
                    ("at a bound", float(np.nextafter(bound, -outward * np.inf)))]
    if "enum" in schema:
        out.append(("misspelt enum", schema["enum"][0] + "s"))
        out += [("other enum value", option) for option in schema["enum"]]
    if "const" in schema:
        const = schema["const"]
        if isinstance(const, str):
            out.append(("misspelt const", const + "s"))
        else:
            out += [("misspelt const", const + 1), ("const as float", float(const)),
                    ("const as bool", True)]
    if isinstance(value, list):
        out.append(("empty array", []))
    if isinstance(value, dict):
        out += [("required key removed", {k: v for k, v in value.items() if k != name})
                for name in schema.get("required", ()) if name in value]
        if schema.get("additionalProperties") is False:
            out.append(("extra key", {**value, "bogus": 1}))
    if "oneOf" in schema:
        if isinstance(value, dict):  # every branch's keys: each branch has one too many
            keys = {key for branch in schema["oneOf"] for key in branch.get("properties", {})}
            out.append(("oneOf neither", {**dict.fromkeys(keys, 1), **value}))
        else:
            out.append(("oneOf neither", "text"))
    return out


def replaced(doc, path, new):
    """``doc`` with the value at ``path`` replaced, copying only along the path."""
    if not path:
        return new
    head, *rest = path
    doc = list(doc) if isinstance(doc, list) else dict(doc)
    doc[head] = replaced(doc[head], rest, new)
    return doc


def fuzz_configs(index: int) -> tuple:
    """The two configs ``test_fuzz`` runs at ``index``."""
    rng = np.random.default_rng([SEED, index])
    exp = random_experiment(rng)
    return ({"schema_version": 1, "experiment": exp, "bounds": random_bounds(rng, exp)},
            random_sweep(rng, exp))


def test_same_verdict_as_jsonschema_on_changed_fuzz_configs():
    seen = set()
    for index in range(N_CONFIGS):
        rng = np.random.default_rng([MUTATION_SEED, index])
        for cfg in fuzz_configs(index):
            assert_checker_agrees(cfg, "config.schema.json")
            by_kind = {}
            for path, schema, value in sites(CONFIG_SCHEMA, cfg):
                for kind, new in changes(schema, value):
                    by_kind.setdefault(kind, []).append((path, new))
            # seeded changes of a few kinds, one each
            for kind in rng.choice(sorted(by_kind), size=KINDS_PER_CONFIG, replace=False):
                path, new = by_kind[kind][rng.integers(len(by_kind[kind]))]
                assert_checker_agrees(replaced(cfg, path, new), "config.schema.json")
                seen.add(kind)
    assert seen == CHANGE_KINDS


@pytest.mark.parametrize("schema,doc,valid", [
    ({"type": "number"}, True, False),
    ({"type": "integer"}, False, False),
    ({"type": "integer"}, 64.0, True),
    ({"type": "integer"}, 64.5, False),
    ({"type": "integer"}, float("inf"), False),
    ({"type": "number", "minimum": 1}, 1.0, True),
    ({"const": 1}, 1.0, True),
    ({"const": 1}, True, False),
    ({"const": True}, 1, False),
    ({"enum": [1, "a"]}, 1.0, True),
    ({"enum": [1, "a"]}, True, False),
    ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 1, False),  # both
    ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 1.5, True),
    ({"oneOf": [{"type": "string"}, {"type": "integer"}]}, 1.5, False),  # neither
    ({"type": ["number", "null"]}, None, True),
    ({"type": ["number", "null"]}, "text", False),
    ({"prefixItems": [{"type": "integer"}], "items": {"type": "string"}}, [1, "a", "b"], True),
    ({"prefixItems": [{"type": "integer"}], "items": {"type": "string"}}, [1, "a", 2], False),
    ({"prefixItems": [{"type": "integer"}, {"type": "number"}]}, [1.5], False),
    ({"$ref": "#/$defs/n", "$defs": {"n": {"type": "integer", "minimum": 1}}}, 0, False),
])
def test_draft_2020_12_meanings(schema, doc, valid):
    assert jsonschema.Draft202012Validator(schema).is_valid(doc) is valid
    _, errors = cli.check_schema(schema, doc)
    assert (not errors) is valid


def test_integer_typed_numbers_come_back_as_int():
    schema = {"type": "object", "properties": {
        "n": {"type": "integer"}, "x": {"type": "number"},
        "t": {"oneOf": [{"type": "integer"}, {"type": "array", "items": {"type": "integer"}}]}}}
    checked, errors = cli.check_schema(schema, {"n": 64.0, "x": 2.0, "t": [1.0, 2]})
    assert errors == []
    assert checked == {"n": 64, "x": 2.0, "t": [1, 2]}
    assert [type(v) for v in (checked["n"], checked["x"], *checked["t"])] == [int, float, int, int]


def test_cli_prints_the_first_ten_errors_sorted_by_path(tmp_path, capsys):
    exp = base_experiment(n_particles=0, replicates=True, bogus=1,
                          ladder={"kind": "temper", "n_levels": 2.5},
                          estimand={"threshold": 0.0},
                          target={"kind": "gaussian_mixture", "weights": [1.0], "path": "x"})
    cfg = {"schema_version": 2, "experiment": exp,
           "bounds": {"mode": "mse", "epsilon": 1, "f_sup_bound": -1.0},
           "sweep": {"parameter": "n_particles", "values": [], "replicates": 2}}
    path = write_json(tmp_path / "c.json", cfg)
    assert main(["--config", path, "--out", str(tmp_path / "o"), "run"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: config failed schema validation (config.schema.json):",
        "  at bounds/epsilon: 1 is greater than or equal to the maximum of 1",
        "  at bounds/f_sup_bound: -1.0 is less than the minimum of 0",
        "  at experiment: Additional properties are not allowed ('bogus' was unexpected)",
        "  at experiment/estimand: 'name' is a required property",
        "  at experiment/ladder/kind: 'temper' is not one of "
        "['tempering', 'convolution', 'from_file']",
        "  at experiment/ladder/n_levels: 2.5 is not of type 'integer'",
        "  at experiment/n_particles: 0 is less than the minimum of 1",
        "  at experiment/replicates: True is not of type 'integer'",
        "  at experiment/target: {'kind': 'gaussian_mixture', 'weights': [1.0], 'path': 'x'} "
        "is not valid under any of the given schemas",
        "  at schema_version: 1 was expected",
    ]
    assert not (tmp_path / "o").exists()


def test_error_lines_cut_a_large_value(tmp_path, capsys):
    # fuzz config 18 has d = 160 and full covariances: its target's repr is
    # over half a million characters, which an error line shows only in part
    exp = random_experiment(np.random.default_rng([SEED, 18]))
    assert len(repr(exp["target"])) > 100 * cli._SHOWN_CHARS
    exp["target"]["path"] = "x"
    path = write_json(tmp_path / "c.json", {"schema_version": 1, "experiment": exp})
    assert main(["--config", path, "--out", str(tmp_path / "o"), "run"]) == 2
    lines = capsys.readouterr().err.splitlines()
    (line,) = [line for line in lines if line.startswith("  at experiment/target: ")]
    assert line.endswith(" characters] is not valid under any of the given schemas")
    # the value is cut to the cap, and the rest of the line is the message
    assert all(len(line) < cli._SHOWN_CHARS + 100 for line in lines)


def subschemas(schema: dict):
    """``schema`` and every schema inside it."""
    yield schema
    for key, arg in schema.items():
        if key in ("properties", "$defs"):
            children = arg.values()
        elif key in ("prefixItems", "oneOf"):
            children = arg
        elif key == "items":
            children = [arg]
        else:
            continue
        for child in children:
            yield from subschemas(child)


@pytest.mark.parametrize("name", SCHEMA_NAMES)
def test_every_schema_keyword_is_implemented_or_ignored(name):
    root = cli._load_schema(name)
    for schema in subschemas(root):
        # every keyword of the subschema is looked at, whatever the document
        cli._check(schema, None, (), root, [])


def test_an_added_keyword_the_checker_lacks_raises():
    schema = copy.deepcopy(CONFIG_SCHEMA)
    schema["$defs"]["estimand"]["properties"]["name"]["pattern"] = "^[a-z_]+$"
    cfg = {"schema_version": 1, "experiment": base_experiment()}
    assert cli.check_schema(CONFIG_SCHEMA, cfg)[1] == []
    with pytest.raises(ValueError, match="'pattern'"):
        cli.check_schema(schema, cfg)


@pytest.mark.parametrize("schema", [
    {"type": "string", "pattern": "^a"},
    {"properties": {"a": {"pattern": "^a"}}},
    {"additionalProperties": {"type": "number"}},
    {"$ref": "other.schema.json"},
    {"anyOf": [{"type": "number"}]},
])
def test_unimplemented_keywords_raise(schema):
    with pytest.raises(ValueError, match="is not implemented"):
        cli.check_schema(schema, {"a": "abc"})
