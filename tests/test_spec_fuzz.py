"""Seeded fuzz of spec dicts: a bad field is refused, never a crash.

Each case starts from a working spec and sets one to three fields to values
from a fixed table of edge cases.  The library may refuse the result only
with ``SpecError`` or ``SizeGuardError``; anything it accepts must run and
render in every format.  pytest's ``filterwarnings = error`` makes a numpy
warning a failure too.  A second pass sets each value alone on 'name' and on
'out', the fields that name a run's files.
"""

import copy
import dataclasses
import importlib
import json
import math
import random

import pytest

from qutrit_anneal.cli import main
from qutrit_anneal.emit import render_csv, render_svg, render_table
from qutrit_anneal.errors import SizeGuardError, SpecError
from qutrit_anneal.harness import artifact_paths, run, spec_from_dict
from qutrit_anneal.presets import _PRESETS, PRESET_NAMES

# the package exports the function anneal under its module's name
anneal_module = importlib.import_module("qutrit_anneal.anneal")

ONE_HOT_K3 = {"points": [[0, 0], [0, 1], [10, 10], [-10, 10], [3, 4]], "method": "one-hot-K3"}

#: The working specs the mutations start from: the presets, a multispin spec,
#: a one-hot-K3 spec and the kmeanspp K = 10 spec of two 3-qutrit blocks.
BASES = [_PRESETS[name] for name in PRESET_NAMES] + [
    {"points": [[0, 0], [0, 1], [10, 10], [-10, 10]], "method": "one-hot-multispin", "K": 4},
    ONE_HOT_K3,
    {
        "points": [[0, 0], [10, 0], [20, 0], [30, 0], [0, 10], [10, 10], [20, 10], [30, 10],
                   [0, 20], [10, 20], [1, 1], [29, 9]],
        "method": "kmeanspp",
        "centroids": list(range(10)),
        "anneal": {"h": 8},
    },
]

#: Values a mutated field takes.
VALUES = [
    True, False, None, 0, -1, 1, 2, 3, 4, 2**63, -(2**63),
    0.1, 0.5, 8.0, math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, 1e-310,
    [], [[]], [[0, 0]], [[[1]]], [0, 1], [[0, 0], [1, 1]], [[1], [0], [-1]],
    "one-hot-K3", "one-hot-K3-pinned", "one-hot-K2-penalty", "one-hot-multispin",
    "kmeanspp", "exact-step", "split-step", "table", "", "caf\udce9",
]

#: Where a value goes: a top-level field, an anneal field, a whole point or
#: one coordinate of a point.
FIELDS = [
    ("name",), ("points",), ("labels",), ("method",), ("K",), ("centroids",),
    ("centroid_states",), ("penalty",), ("pinned",), ("seed",), ("emit",), ("out",), ("anneal",),
    ("anneal", "M"), ("anneal", "dt"), ("anneal", "h"), ("anneal", "mode"),
    ("points", -1), ("points", 1, 0),
]

#: Runs take at most this many steps, so the whole fuzz stays near a second.
MAX_M = 4


def mutants(count: int, seed: int = 0):
    """``count`` spec dicts, each a base with 1-3 fields set from ``VALUES``, 1 in half."""
    rng = random.Random(seed)
    for _ in range(count):
        data = copy.deepcopy(rng.choice(BASES))
        data["anneal"] = {**data.get("anneal", {}), "M": rng.randint(1, MAX_M)}
        for _ in range(rng.choice((1, 1, 2, 3))):
            *path, last = rng.choice(FIELDS)
            target = data
            for key in path:  # a field an earlier mutation replaced may be gone
                target = target[key] if holds(target, key) else None
            if isinstance(target, dict) or holds(target, last):
                target[last] = copy.deepcopy(rng.choice(VALUES))
        yield data


def holds(container, key) -> bool:
    """Whether ``container[key]`` is a field of a dict or an element of a list."""
    if isinstance(container, list):
        return isinstance(key, int) and -len(container) <= key < len(container)
    return isinstance(container, dict) and key in container


def run_and_render(data: dict) -> bool:
    """Validate, run at most ``MAX_M`` steps and render; False if the spec is refused."""
    try:
        spec = spec_from_dict(data)
        if MAX_M < spec.anneal.M <= anneal_module._MAX_STEPS:  # "anneal" dropped: M = 2000
            spec = dataclasses.replace(spec, anneal=dataclasses.replace(spec.anneal, M=MAX_M))
        result = run(spec)
    except (SpecError, SizeGuardError):
        return False
    for render in (render_table, render_csv, render_svg):
        assert render(result).encode("utf-8")  # as emit writes it
    return True


def test_mutated_specs_are_refused_or_run():
    outcomes = [run_and_render(data) for data in mutants(500)]
    # most values are refused, but the fuzz still reaches runs and emitters
    assert sum(outcomes) >= 20


@pytest.mark.parametrize("key", ["name", "out"])
def test_each_value_alone_on_a_file_field_is_refused_naming_it_or_names_the_files(key):
    # the mutants above seldom decide a spec on these fields: another field
    # they set is refused first
    refused = []
    for value in VALUES:
        try:
            spec = spec_from_dict({**ONE_HOT_K3, key: copy.deepcopy(value)})
        except SpecError as exc:
            assert f"{key!r}" in str(exc), (value, str(exc))
            refused.append(value)
        else:
            paths = artifact_paths(spec.name, spec.emit, spec.out_dir)
            assert len(paths) == len(spec.emit) == 1, paths
    assert key != "name" or "caf\udce9" in refused


def validates(data: dict) -> bool:
    """Whether ``spec_from_dict`` accepts the dict."""
    try:
        spec_from_dict(data)
    except SpecError:
        return False
    return True


#: The first six mutants that validate and four that do not.  Each keeps an
#: "anneal" object, so the console script runs at most ``MAX_M`` steps.
_WITH_ANNEAL = [data for data in mutants(500) if data["anneal"] is not None]
CLI_CASES = [d for d in _WITH_ANNEAL if validates(d)][:6] + [
    d for d in _WITH_ANNEAL if not validates(d)
][:4]


@pytest.mark.parametrize("data", CLI_CASES)
def test_console_script_exits_with_a_code_on_mutated_specs(tmp_path, capsys, data):
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(data))
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in capsys.readouterr().err
