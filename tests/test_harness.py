import copy
import json
import re
import time
import warnings
from functools import partial

import numpy as np
import pytest

from conftest import forbid_expansion, forbid_steps
from qutrit_anneal.clustering import (
    ORACLE_MAX_POINTS,
    Partition,
    cost,
    distance_matrix,
    oracle_min,
)
from qutrit_anneal.errors import SizeGuardError, SpecError
from qutrit_anneal.harness import (
    REGISTER_MAX_QUTRITS,
    ProblemSpec,
    build_final_hamiltonian,
    generate_instance,
    load_spec,
    run,
    spec_from_dict,
    with_overrides,
)
from qutrit_anneal.hamiltonians import Encoding, EncodingScheme
from qutrit_anneal.anneal import AnnealConfig
from qutrit_anneal.clustering import PointSet
from qutrit_anneal.presets import PRESET_NAMES, get_preset


# ------------------------------------------------------------- spec parsing


def test_spec_defaults(tiny_spec_dict):
    del tiny_spec_dict["anneal"]
    spec = spec_from_dict(tiny_spec_dict)
    assert spec.anneal.M == 2000
    assert spec.anneal.dt == 0.1
    assert spec.anneal.mode == "exact-step"
    assert spec.scheme.K == 3
    assert spec.pinned is True


def test_spec_unknown_field_rejected(tiny_spec_dict):
    tiny_spec_dict["bogus"] = 1
    with pytest.raises(SpecError, match="bogus"):
        spec_from_dict(tiny_spec_dict)


def test_spec_missing_points():
    with pytest.raises(SpecError, match="points"):
        spec_from_dict({"method": "one-hot-K3"})


def test_spec_missing_method(tiny_spec_dict):
    del tiny_spec_dict["method"]
    with pytest.raises(SpecError, match="method"):
        spec_from_dict(tiny_spec_dict)


def test_spec_centroids_with_onehot_rejected(tiny_spec_dict):
    tiny_spec_dict["centroids"] = [0]
    with pytest.raises(SpecError, match="centroid"):
        spec_from_dict(tiny_spec_dict)


def test_spec_kmeanspp_needs_centroids(tiny_spec_dict):
    tiny_spec_dict["method"] = "kmeanspp"
    tiny_spec_dict["K"] = 2
    with pytest.raises(SpecError, match="centroid"):
        spec_from_dict(tiny_spec_dict)


def test_spec_kmeanspp_centroid_validation(tiny_spec_dict):
    tiny_spec_dict["method"] = "kmeanspp"
    tiny_spec_dict["centroids"] = [0, 0]
    with pytest.raises(SpecError, match="distinct"):
        spec_from_dict(tiny_spec_dict)
    tiny_spec_dict["centroids"] = [0, 7]
    with pytest.raises(SpecError):
        spec_from_dict(tiny_spec_dict)
    tiny_spec_dict["centroids"] = [0, 1, 2, 3]
    with pytest.raises(SpecError, match="free"):
        spec_from_dict(tiny_spec_dict)


@pytest.mark.parametrize("bad", [[True, False], [0, True], [0, 1.0]])
def test_spec_centroids_must_be_ints_not_bools(tiny_spec_dict, bad):
    tiny_spec_dict["method"] = "kmeanspp"
    tiny_spec_dict["centroids"] = bad
    with pytest.raises(SpecError, match="'centroids'"):
        spec_from_dict(tiny_spec_dict)


@pytest.mark.parametrize("bad", [True, False, 7.0, "7"])
def test_spec_seed_must_be_int_not_bool(tiny_spec_dict, bad):
    tiny_spec_dict["seed"] = bad
    with pytest.raises(SpecError, match="'seed'"):
        spec_from_dict(tiny_spec_dict)
    tiny_spec_dict["seed"] = 7
    assert spec_from_dict(tiny_spec_dict).seed == 7


@pytest.mark.parametrize("bad", ["", ".", "..", "sub/dir", "../escaped", "a\\b", "nul\0"])
def test_spec_name_must_be_a_plain_file_name(tiny_spec_dict, bad):
    # the name becomes the emitted files' names inside the output directory
    tiny_spec_dict["name"] = bad
    with pytest.raises(SpecError, match="'name'"):
        spec_from_dict(tiny_spec_dict)
    spec = spec_from_dict({**tiny_spec_dict, "name": "tiny"})
    with pytest.raises(SpecError, match="'name'"):
        ProblemSpec(points=spec.points, scheme=spec.scheme, anneal=spec.anneal, name=bad)


def test_spec_name_may_hold_dots_and_markup(tiny_spec_dict):
    for name in ("a.b", "...", "a<b&c", "run 1"):
        tiny_spec_dict["name"] = name
        assert spec_from_dict(tiny_spec_dict).name == name


def test_spec_kmeanspp_k_from_centroids(tiny_spec_dict):
    tiny_spec_dict["method"] = "kmeanspp"
    tiny_spec_dict["centroids"] = [0, 1]
    spec = spec_from_dict(tiny_spec_dict)
    assert spec.scheme.K == 2
    assert spec.centroids == (0, 1)


@pytest.mark.parametrize("K", [3**11, 10**400], ids=["3**11", "10**400"])
def test_spec_kmeanspp_huge_k_rejected_quickly(tiny_spec_dict, K):
    # past the register cap no block fits, so the default centroid states
    # (3**11 of them, or 3**839) are never built
    tiny_spec_dict.update(method="kmeanspp", centroids=[0, 1, 2], K=K)
    start = time.perf_counter()
    with pytest.raises(SpecError, match="'K' must be at most 2187"):
        spec_from_dict(tiny_spec_dict)
    assert time.perf_counter() - start < 0.5


def test_spec_pinned_rejected_for_blockwise_methods(tiny_spec_dict):
    tiny_spec_dict["method"] = "one-hot-multispin"
    tiny_spec_dict["K"] = 4
    tiny_spec_dict["pinned"] = True
    with pytest.raises(SpecError, match="pinned"):
        spec_from_dict(tiny_spec_dict)


def test_spec_pinned_true_selects_the_pinned_k3_method(tiny_spec_dict):
    tiny_spec_dict.update(method="one-hot-K3", pinned=True)
    spec = spec_from_dict(tiny_spec_dict)
    assert spec.scheme.method == "one-hot-K3-pinned"
    assert spec.pinned is True
    tiny_spec_dict.pop("pinned")
    assert spec == with_overrides(spec_from_dict(tiny_spec_dict), pinned=True)


def test_spec_pinned_false_contradicts_the_pinned_k3_method(tiny_spec_dict):
    tiny_spec_dict.update(method="one-hot-K3-pinned", pinned=False)
    with pytest.raises(SpecError, match="contradicts 'pinned': false"):
        spec_from_dict(tiny_spec_dict)


@pytest.mark.parametrize(
    "method, extra",
    [
        ("one-hot-K3", {}),
        ("one-hot-K3-pinned", {}),
        ("one-hot-K2-penalty", {}),
        ("one-hot-multispin", {"K": 3}),
        ("one-hot-multispin", {"K": 9}),
        ("kmeanspp", {"centroids": [0, 1, 2]}),
    ],
)
def test_spec_penalty_rejected_without_constant_penalty(tiny_spec_dict, method, extra):
    tiny_spec_dict.update(method=method, penalty=5.0, **extra)
    with pytest.raises(SpecError, match="no constant penalty"):
        spec_from_dict(tiny_spec_dict)


@pytest.mark.parametrize(
    "states", [[[1.7], [0.2]], [["1"], ["0"]], [[True], [False]], "10"]
)
def test_spec_centroid_states_must_be_integer_projections(tiny_spec_dict, states):
    tiny_spec_dict.update(method="kmeanspp", centroids=[0, 1], centroid_states=states)
    with pytest.raises(SpecError, match="'centroid_states'"):
        spec_from_dict(tiny_spec_dict)
    tiny_spec_dict["centroid_states"] = [[-1], [0]]
    assert spec_from_dict(tiny_spec_dict).scheme.centroid_states == ((-1,), (0,))


@pytest.mark.parametrize("labels", ["abcd", ["a", "b", "c", 4]])
def test_spec_labels_must_be_a_list_of_strings(tiny_spec_dict, labels):
    tiny_spec_dict["labels"] = labels
    with pytest.raises(SpecError, match="'labels'"):
        spec_from_dict(tiny_spec_dict)
    tiny_spec_dict["labels"] = list("abcd")
    assert spec_from_dict(tiny_spec_dict).points.labels == ("a", "b", "c", "d")


def test_spec_multispin_requires_k(tiny_spec_dict):
    tiny_spec_dict["method"] = "one-hot-multispin"
    with pytest.raises(SpecError, match="K"):
        spec_from_dict(tiny_spec_dict)


def test_spec_penalty_validation(tiny_spec_dict):
    tiny_spec_dict["penalty"] = -3.0
    with pytest.raises(SpecError, match="penalty"):
        spec_from_dict(tiny_spec_dict)


@pytest.mark.parametrize("bad", [True, False, float("inf"), float("nan"), 10**400])
def test_spec_penalty_rejects_bool_and_non_finite(tiny_spec_dict, bad):
    tiny_spec_dict["penalty"] = bad
    with pytest.raises(SpecError, match="'penalty'"):
        spec_from_dict(tiny_spec_dict)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), "nan"])
def test_spec_non_finite_coordinate_names_point(tiny_spec_dict, bad):
    tiny_spec_dict["points"][2] = [1.0, bad]
    with pytest.raises(SpecError, match="point 2"):
        spec_from_dict(tiny_spec_dict)


@pytest.mark.parametrize(
    "method, K, centroids",
    [
        ("one-hot-multispin", 2, None),
        ("one-hot-multispin", 4, None),
        ("kmeanspp", 2, [0, 1]),
    ],
)
def test_spec_coincident_points_need_explicit_penalty(
    tiny_spec_dict, method, K, centroids
):
    tiny_spec_dict.update(method=method, K=K, points=[[3, 3]] * 4)
    if centroids:
        tiny_spec_dict["centroids"] = centroids
    with pytest.raises(SpecError, match="penalty"):
        spec_from_dict(tiny_spec_dict)
    tiny_spec_dict["penalty"] = 5.0
    spec = spec_from_dict(tiny_spec_dict)
    assert build_final_hamiltonian(spec).max() > 0.0


def test_spec_coincident_points_without_penalty_states_accepted(tiny_spec_dict):
    # K3 and K2 encodings and kmeanspp with K = 3**s leave no penalized states
    tiny_spec_dict["points"] = [[3, 3]] * 4
    spec_from_dict(tiny_spec_dict)
    tiny_spec_dict.update(method="kmeanspp", centroids=[0, 1, 2])
    spec_from_dict(tiny_spec_dict)


def test_problem_spec_coincident_points_need_explicit_penalty():
    def spec(penalty):
        return ProblemSpec(
            points=PointSet(points=((1, 1),) * 5),
            scheme=EncodingScheme("kmeanspp", K=4, penalty_constant=penalty),
            anneal=AnnealConfig(h=8.0, M=10),
            centroids=(0, 1, 2, 3),
        )

    with pytest.raises(SpecError, match="penalty"):
        spec(None)
    spec(1.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("M", 5.7),
        ("M", True),
        ("M", "100"),
        ("h", "2"),
        ("h", True),
        ("h", float("nan")),
        ("dt", "0.1"),
        ("dt", float("inf")),
        ("dt", 10**400),
        ("dt", None),
    ],
)
def test_spec_anneal_field_types(tiny_spec_dict, field, value):
    tiny_spec_dict["anneal"][field] = value
    with pytest.raises(SpecError, match=f"'{field}'"):
        spec_from_dict(tiny_spec_dict)


def test_spec_anneal_accepts_integer_reals(tiny_spec_dict):
    tiny_spec_dict["anneal"].update(h=2, dt=1)
    cfg = spec_from_dict(tiny_spec_dict).anneal
    assert (cfg.h, cfg.dt) == (2.0, 1.0)
    assert isinstance(cfg.h, float) and isinstance(cfg.dt, float)


def test_spec_output_targets(tiny_spec_dict):
    spec = spec_from_dict(tiny_spec_dict)
    assert spec.emit == ("table",)
    assert spec.out_dir == "."
    tiny_spec_dict["emit"] = ["csv", "svg"]
    tiny_spec_dict["out"] = "artifacts"
    spec = spec_from_dict(tiny_spec_dict)
    assert spec.emit == ("csv", "svg")
    assert spec.out_dir == "artifacts"
    tiny_spec_dict["emit"] = ["pdf"]
    with pytest.raises(SpecError, match="emit"):
        spec_from_dict(tiny_spec_dict)


def test_spec_out_dir_may_be_a_path(tmp_path):
    spec = ProblemSpec(**_SPEC, out_dir=tmp_path)
    assert spec.out_dir == tmp_path


def test_load_spec_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "points": [[0, 0],\n}\n')
    with pytest.raises(SpecError, match="line 3"):
        load_spec(path)


def test_load_spec_missing_file(tmp_path):
    with pytest.raises(SpecError, match="cannot read"):
        load_spec(tmp_path / "nope.json")


def test_load_spec_round_trip(tmp_path, tiny_spec_dict):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(tiny_spec_dict))
    spec = load_spec(path)
    assert spec.name == "tiny"
    assert len(spec.points) == 4


# ------------------------------------------- each rule in one constructor

_POINTS = ((0, 0), (0, 1), (10, 10), (-10, 10))  # the tiny spec's points
_KPP = {"method": "kmeanspp", "centroids": [0, 1, 2]}
_MULTISPIN = {"method": "one-hot-multispin", "K": 4}
_SPEC = {
    "points": PointSet(_POINTS),
    "scheme": EncodingScheme("one-hot-K3-pinned", K=3),
    "anneal": AnnealConfig(h=2.0),
}
_ANNEAL_BAD = {
    "M": (5.7, True, "100", 0),
    "h": ("2", True, float("nan"), 0, -1.0),
    "dt": ("0.1", float("inf"), 10**400, None),
    "mode": ("warp",),
}
_PENALTY_BAD = (True, float("inf"), float("nan"), 0, -3.0, 10**400, "5")
_CENTROID_STATES_BAD = (
    [[True], [0], [-1]],
    [[1.7], [0.2], [0]],
    [["1"], ["0"], ["-1"]],
    "10",
    [[2], [0], [-1]],
    [[1, 1], [0, 0], [-1, -1]],
    [[1], [1], [0]],
    [[1], [0]],
)

#: (field the message must name, spec fields that carry a bad value, the
#: same value given straight to the constructor that holds the field)
BAD_VALUES = [
    ("points", {"points": [[0, 0]]}, partial(PointSet, ((0, 0),))),
    ("points", {"points": [[0, 0], [1]]}, partial(PointSet, ((0, 0), (1,)))),
    ("points", {"points": [[0, 0], [1, "a"]]}, partial(PointSet, ((0, 0), (1, "a")))),
    ("points", {"points": [[0, 0], [1, None]]}, partial(PointSet, ((0, 0), (1, None)))),
    ("points", {"points": [[0, 0], [1, "inf"]]}, partial(PointSet, ((0, 0), (1, "inf")))),
    ("labels", {"labels": "abcd"}, partial(PointSet, _POINTS, "abcd")),
    ("labels", {"labels": ["a", "b", "c", 4]}, partial(PointSet, _POINTS, ("a", "b", "c", 4))),
    ("labels", {"labels": ["a"]}, partial(PointSet, _POINTS, ("a",))),
    ("method", {"method": "bogus"}, partial(EncodingScheme, "bogus", 3)),
    ("method", {"method": ["kmeanspp"]}, partial(EncodingScheme, ["kmeanspp"], 3)),
    ("K", {"K": 2}, partial(EncodingScheme, "one-hot-K3-pinned", 2)),
    *[
        ("K", {**_MULTISPIN, "K": K}, partial(EncodingScheme, "one-hot-multispin", K))
        for K in (4.5, "3", 1, True)
    ],
    *[
        (
            "centroid_states",
            {**_KPP, "centroid_states": states},
            partial(EncodingScheme, "kmeanspp", 3, centroid_states=states),
        )
        for states in _CENTROID_STATES_BAD
    ],
    (
        "centroid_states",
        {"centroid_states": [[1], [0], [-1]]},
        partial(EncodingScheme, "one-hot-K3-pinned", 3, ((1,), (0,), (-1,))),
    ),
    *[
        ("penalty", {**_MULTISPIN, "penalty": a}, partial(EncodingScheme, **_MULTISPIN, penalty_constant=a))
        for a in _PENALTY_BAD
    ],
    ("penalty", {"penalty": 5.0}, partial(EncodingScheme, "one-hot-K3-pinned", 3, penalty_constant=5.0)),
    *[
        (
            "centroids",
            {**_KPP, "K": 3, "centroids": centroids},
            partial(Encoding, EncodingScheme("kmeanspp", 3), 4, centroids=centroids),
        )
        for centroids in ([0, 1.7, 2], [0, True, 2], [0, 0, 1], [0, 1, 7], [0, 1], None)
    ],
    (
        "centroids",
        {"method": "kmeanspp", "centroids": [0, 1, 2, 3]},
        partial(Encoding, EncodingScheme("kmeanspp", 4), 4, centroids=(0, 1, 2, 3)),
    ),
    ("centroids", {"centroids": [0]}, partial(Encoding, _SPEC["scheme"], 4, centroids=[0])),
    ("pinned", {"pinned": "yes"}, partial(Encoding, _SPEC["scheme"], 4, pinned="yes")),
    (
        "pinned",
        {**_MULTISPIN, "pinned": True},
        partial(Encoding, EncodingScheme(**_MULTISPIN), 4, pinned=True),
    ),
    *[
        (key, {"anneal": {key: value}}, partial(AnnealConfig, **{"h": 2.0, key: value}))
        for key, values in _ANNEAL_BAD.items()
        for value in values
    ],
    ("name", {"name": "sub/dir"}, partial(ProblemSpec, **_SPEC, name="sub/dir")),
    ("name", {"name": ""}, partial(ProblemSpec, **_SPEC, name="")),
    ("emit", {"emit": ["pdf"]}, partial(ProblemSpec, **_SPEC, emit=["pdf"])),
    ("emit", {"emit": "table"}, partial(ProblemSpec, **_SPEC, emit="table")),
    ("out", {"out": 5}, partial(ProblemSpec, **_SPEC, out_dir=5)),
    *[
        ("seed", {"seed": seed}, partial(ProblemSpec, **_SPEC, seed=seed))
        for seed in ("x", True, 7.0)
    ],
    *[
        (
            "centroids",
            {"method": "kmeanspp", "centroids": centroids},
            partial(Encoding, EncodingScheme("kmeanspp", 3), 4, centroids=centroids),
        )
        for centroids in ("012", {})
    ],
    (
        "penalty",
        {**_MULTISPIN, "points": [[3, 3]] * 4},
        partial(
            ProblemSpec, PointSet(((3, 3),) * 4), EncodingScheme(**_MULTISPIN), _SPEC["anneal"]
        ),
    ),
    # each of these was once coerced, truncated or stringified into a value
    ("points", {"points": [[0, 0], [0, 0, 3]]}, partial(PointSet, ((0, 0), (0, 0, 3)))),
    ("points", {"points": ["12", [3, 4]]}, partial(PointSet, ("12", (3, 4)))),
    ("points", {"points": [[0, 0], [True, 0]]}, partial(PointSet, ((0, 0), (True, 0)))),
    ("points", {"points": [[0, 0], [0, "3"]]}, partial(PointSet, ((0, 0), (0, "3")))),
    ("name", {"name": None}, partial(ProblemSpec, **_SPEC, name=None)),
    ("name", {"name": 5}, partial(ProblemSpec, **_SPEC, name=5)),
    # each of these once validated, then broke the build with an overflow
    (
        "penalty",
        {**_MULTISPIN, "points": [[0, 0], [0, 1], [10, 10]], "penalty": 1e308},
        partial(Encoding, EncodingScheme(**_MULTISPIN, penalty_constant=1e308), 3),
    ),
    (
        "points",
        {"points": [[1e308, 0], [-1e308, 0]]},
        partial(PointSet, ((1e308, 0), (-1e308, 0))),
    ),
    # every distance is finite, but the pair sum of one cluster is not
    (
        "points",
        {"points": [[6e307, 0], [-6e307, 0]] * 2},
        partial(PointSet, ((6e307, 0), (-6e307, 0)) * 2),
    ),
    # K is taken from the centroids, so too few of them is their fault, not K's
    *[
        (
            "centroids",
            {"method": "kmeanspp", "centroids": centroids},
            partial(Encoding, EncodingScheme("kmeanspp", 2), 4, centroids=centroids),
        )
        for centroids in ([], [0])
    ],
    # a lone surrogate, as a file name the locale cannot decode reads, once
    # ran the whole anneal, then failed to write its artifacts
    ("name", {"name": "caf\udce9"}, partial(ProblemSpec, **_SPEC, name="caf\udce9")),
    (
        "labels",
        {"labels": ["a", "b", "c", "\udce9"]},
        partial(PointSet, _POINTS, ("a", "b", "c", "\udce9")),
    ),
]


@pytest.mark.parametrize(
    "field, update, construct",
    BAD_VALUES,
    ids=[f"{field}-{i}" for i, (field, _, _) in enumerate(BAD_VALUES)],
)
def test_bad_value_is_rejected_by_spec_and_constructor(tiny_spec_dict, field, update, construct):
    anneal = {**tiny_spec_dict["anneal"], **update.get("anneal", {})}
    tiny_spec_dict.update(update, anneal=anneal)
    with pytest.raises(SpecError, match=f"'{field}'"):
        spec_from_dict(tiny_spec_dict)
    with pytest.raises(SpecError, match=f"'{field}'"):
        construct()


@pytest.mark.parametrize("anneal", [False, [], 0, "", [1], "M"])
def test_non_object_anneal_is_rejected(tiny_spec_dict, anneal):
    tiny_spec_dict["anneal"] = anneal
    with pytest.raises(SpecError, match="'anneal' must be an object"):
        spec_from_dict(tiny_spec_dict)


def test_null_anneal_takes_the_defaults(tiny_spec_dict):
    tiny_spec_dict["anneal"] = None
    assert spec_from_dict(tiny_spec_dict).anneal == AnnealConfig(h=8.0)


# ---------------------------------------------------- seeded spec mutation

_FIVE = [[0, 0], [0, 1], [10, 10], [-10, 10], [3, 4]]
_ANNEAL = {"M": 50, "dt": 0.1, "h": 2.0, "mode": "split-step"}

#: One valid spec per method, with every optional field that method takes.
MUTATION_BASES = [
    {"points": _FIVE, "method": "one-hot-K3", "labels": list("abcde"), "name": "a", "seed": 1},
    {"points": _FIVE, "method": "one-hot-K3-pinned", "emit": ["table"], "out": "o"},
    {"points": _FIVE, "method": "one-hot-K2-penalty", "pinned": False, "anneal": _ANNEAL},
    {"points": _FIVE[:3], "method": "one-hot-multispin", "K": 4, "penalty": 40.0},
    {
        "points": _FIVE,
        "method": "kmeanspp",
        "K": 3,
        "centroids": [0, 1, 2],
        "centroid_states": [[1], [0], [-1]],
        "anneal": _ANNEAL,
    },
]

#: What a mutation puts in place of a field or an entry, or under a new key.
MUTATION_VALUES = (
    None, True, False, 0, 1, -1, 2, 3, 4, 9, 2.5, -3.0, 1e308, -1e308, 1e-300,
    float("inf"), float("nan"), 10**400, "", "x", "3", "kmeanspp", [], [0], [1, 2],
    [[0, 0]], [[1e308, 0], [-1e308, 0]], {}, {"M": 5},
)
_MUTATION_KEYS = ("bogus", "K", "penalty", "pinned", "centroids", "anneal", "M", "h", "mode")


def _mutate(spec: dict, rng) -> dict:
    """The spec with one field or entry deleted, replaced, duplicated, or a key added."""
    slots = []  # (container, key) of every field and entry, nested ones included
    todo = [spec]
    while todo:
        node = todo.pop()
        keys = node.keys() if isinstance(node, dict) else range(len(node))
        for key in keys:
            slots.append((node, key))
            if isinstance(node[key], (dict, list)):
                todo.append(node[key])
    node, key = slots[rng.integers(len(slots))]
    op = rng.integers(4)
    value = copy.deepcopy(MUTATION_VALUES[rng.integers(len(MUTATION_VALUES))])
    if op == 0:
        del node[key]
    elif op == 1:
        node[key] = value
    elif op == 2 and isinstance(node, list):
        node.append(copy.deepcopy(node[key]))
    else:
        dicts = [spec] + [n[k] for n, k in slots if isinstance(n[k], dict)]
        dicts[rng.integers(len(dicts))][_MUTATION_KEYS[rng.integers(len(_MUTATION_KEYS))]] = value
    return spec


def _timed(fn, *args):
    start = time.perf_counter()
    try:
        return fn(*args)
    finally:
        assert time.perf_counter() - start < 0.5, f"{fn.__name__} took over 0.5 s"


@pytest.mark.parametrize("base", range(len(MUTATION_BASES)))
def test_mutated_spec_is_rejected_or_builds_finite(base):
    # a mutated spec either raises SpecError or gives a ProblemSpec; one
    # within run's guards builds a finite final Hamiltonian with no warning
    rng = np.random.default_rng(base)
    built = 0
    for _ in range(2000):
        data = copy.deepcopy(MUTATION_BASES[base])
        for _ in range(rng.integers(1, 4)):
            data = _mutate(data, rng)
        try:
            spec = _timed(spec_from_dict, data)
        except SpecError:
            continue
        if spec.register_qutrits <= REGISTER_MAX_QUTRITS and len(spec.points) <= ORACLE_MAX_POINTS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows = _timed(build_final_hamiltonian, spec)
            assert np.isfinite(rows).all(), data
            built += 1
    assert built > 50


# -------------------------------------------------------------- generation


def test_generate_deterministic():
    a = generate_instance(6, seed=123)
    b = generate_instance(6, seed=123)
    assert a.points == b.points
    assert generate_instance(6, seed=124).points != a.points


def test_generate_range_and_count():
    pts = generate_instance(40, seed=7)
    assert len(pts) == 40
    for x, y in pts.points:
        assert -10 <= x <= 10 and -10 <= y <= 10
        assert x.is_integer() and y.is_integer()


def test_generate_needs_two_points():
    with pytest.raises(ValueError):
        generate_instance(1, seed=0)


# ----------------------------------------------------------------- presets


def test_preset_points_are_pinned_down():
    assert get_preset("fig1").points.points == (
        (4, -2), (-7, 7), (6, -9), (-6, 8), (-2, -6), (-9, 5),
    )
    assert get_preset("fig2").points.points == (
        (6, 6), (-6, 5), (-3, 9), (4, -10), (-7, 4), (-5, 1),
    )
    assert get_preset("fig3").points.points == (
        (8, -1), (-2, -6), (1, 6), (4, -4), (3, 8), (9, -4), (-5, 8), (-6, -8), (3, -10),
    )
    assert get_preset("fig4").points.points == (
        (-9, 10), (1, 9), (-8, -3), (-2, -9), (4, -2), (8, -8), (10, -5),
    )


def test_preset_parameters():
    h_values = {name: get_preset(name).anneal.h for name in PRESET_NAMES}
    assert h_values == {"fig1": 2.0, "fig2": 8.0, "fig3": 8.0, "fig4": 8.0}
    for name in PRESET_NAMES:
        spec = get_preset(name)
        assert spec.anneal.M == 2000
        assert spec.anneal.dt == 0.1
        assert spec.register_qutrits <= REGISTER_MAX_QUTRITS


def test_preset_registers():
    assert get_preset("fig1").register_qutrits == 5
    assert get_preset("fig2").register_qutrits == 5
    assert get_preset("fig3").register_qutrits == 6
    assert get_preset("fig4").register_qutrits == 6


def test_preset_centroid_wiring():
    spec = get_preset("fig4")
    assert spec.centroids == (0, 1, 2, 4)
    assert spec.scheme.centroid_states == ((1, 1), (1, 0), (1, -1), (0, 1))


def test_unknown_preset():
    with pytest.raises(SpecError):
        get_preset("fig9")


# --------------------------------------------------------------- overrides


def test_override_pinned_swaps_onehot_method(tiny_spec_dict):
    spec = spec_from_dict(tiny_spec_dict)
    unpinned = with_overrides(spec, pinned=False)
    assert unpinned.scheme.method == "one-hot-K3"
    assert unpinned.register_qutrits == spec.register_qutrits + 1
    repinned = with_overrides(unpinned, pinned=True)
    assert repinned.scheme.method == "one-hot-K3-pinned"


def test_override_pinned_on_kmeanspp_rejected():
    with pytest.raises(SpecError):
        with_overrides(get_preset("fig3"), pinned=True)


def test_override_pinned_false_on_block_method_is_a_no_op():
    spec = get_preset("fig3")
    assert with_overrides(spec, pinned=False) == spec


def test_override_mode():
    spec = with_overrides(get_preset("fig1"), mode="split-step")
    assert spec.anneal.mode == "split-step"
    with pytest.raises(SpecError):
        with_overrides(spec, mode="warp")


# --------------------------------------------------------------------- run


def test_run_tiny_instance(tiny_result):
    result = tiny_result
    assert result.match is True
    dm = distance_matrix(result.spec.points)
    orc = oracle_min(dm, 3)
    assert result.top_partition in set(orc.argmin_partitions)
    assert result.top_cost == pytest.approx(result.oracle_min_cost, rel=1e-12)
    assert abs(result.final_norm - 1.0) < 1e-9
    assert result.wall_time_s > 0.0
    assert result.top_partition == Partition([0, 0, 1, 2], 3)


def test_run_match_flag_definition(tiny_result):
    assert tiny_result.match == (
        tiny_result.top_partition in set(tiny_result.oracle_partitions)
    )


#: (method, points, extra spec fields) of seeded runs short enough that some
#: miss the oracle: kmeanspp often misses by its encoding, the others by the
#: short schedule
MATCH_SHAPES = (
    ("one-hot-K3", 5, {}),
    ("one-hot-K3-pinned", 6, {}),
    ("one-hot-K2-penalty", 6, {"pinned": True}),
    ("one-hot-multispin", 3, {"K": 4}),
    ("kmeanspp", 8, {"centroids": [0, 1, 2]}),
)


def _seeded_match_spec(seed):
    method, n, extra = MATCH_SHAPES[seed % len(MATCH_SHAPES)]
    return spec_from_dict({
        "points": [list(p) for p in generate_instance(n, 1000 + seed).points],
        "method": method,
        "anneal": {"M": 40, "h": 8.0, "mode": "split-step"},
        **extra,
    })


def test_run_match_on_keys_is_set_membership(preset_result):
    # run checks the top partition's key against the oracle's argmin keys;
    # on the presets and on seeded runs that both match and miss, that is
    # membership of the top Partition in the set of optimal Partitions
    results = [preset_result(name) for name in PRESET_NAMES]
    results += [run(_seeded_match_spec(seed)) for seed in range(20)]
    for result in results:
        assert result.match == (result.top_partition in set(result.oracle_partitions))
    assert {r.match for r in results[len(PRESET_NAMES):]} == {True, False}


def test_run_is_numerically_reproducible(tiny_result, tiny_spec_dict):
    again = run(spec_from_dict(tiny_spec_dict))
    np.testing.assert_array_equal(
        again.report.basis_probabilities, tiny_result.report.basis_probabilities
    )
    assert again.top_probability == tiny_result.top_probability
    assert again.top_partition == tiny_result.top_partition


def test_run_register_guard():
    pts = generate_instance(REGISTER_MAX_QUTRITS + 1, seed=5)
    spec = ProblemSpec(
        points=pts,
        scheme=EncodingScheme(method="one-hot-K3", K=3),
        anneal=AnnealConfig(h=2.0, M=10),
    )
    with pytest.raises(SizeGuardError, match="register"):
        run(spec)


def test_run_oracle_guard():
    # 13 points but only 2 free blocks of 3 qutrits: register fits, oracle not
    pts = generate_instance(13, seed=6)
    spec = ProblemSpec(
        points=pts,
        scheme=EncodingScheme(method="kmeanspp", K=11),
        anneal=AnnealConfig(h=2.0, M=10),
        centroids=tuple(range(11)),
    )
    assert spec.register_qutrits == 6
    with pytest.raises(SizeGuardError, match="oracle"):
        run(spec)


WIDTH_ADVICE = "Chebyshev terms .*widest block.*'penalty' or the points' spread$"


@pytest.mark.parametrize(
    "data, advice",
    [
        (
            {"points": [[0, 0], [0, 1], [10, 10]], "method": "one-hot-multispin", "K": 4, "penalty": 1e12},
            WIDTH_ADVICE,
        ),
        ({"points": [[1e150, 0], [-1e150, 0], [0, 1e150]], "method": "one-hot-K3"}, WIDTH_ADVICE),
        (
            {"points": [[0, 0], [1, 1], [5, 5]], "method": "one-hot-K3", "anneal": {"h": 50000}},
            "Chebyshev terms .*driver h = 50000 on 3-qutrit blocks.*; lower 'h'$",
        ),
    ],
    ids=["penalty-1e12", "points-1e150", "h-50000"],
)
def test_run_refuses_an_exact_step_degree_past_the_guard(monkeypatch, data, advice):
    # dt * r is 1.5e11, 4.8e149 and 1.5e4: Bessel values that many cannot
    # be computed, so the run must stop before its first expansion.  The
    # refusal names the end past the guard: the final Hamiltonian's width
    # at s = 1, or h at s = 0, where h = 50000's width of 28.3 is 1.4 terms
    forbid_expansion(monkeypatch)
    t0 = time.perf_counter()
    with pytest.raises(SizeGuardError, match=advice) as refusal:
        run(spec_from_dict(data))
    assert time.perf_counter() - t0 < 1.0
    # split-step mismatches on such specs, so the refusal must not suggest it
    assert "split-step" not in str(refusal.value)
    # split-step has no degree to bound, and runs the same spec
    anneal = {**data.get("anneal", {}), "M": 20, "mode": "split-step"}
    result = run(spec_from_dict({**data, "anneal": anneal}))
    assert abs(result.final_norm - 1.0) < 1e-9


@pytest.mark.parametrize("mode", ["exact-step", "split-step"])
def test_run_refuses_a_closing_phase_past_the_float_range(monkeypatch, mode):
    # centroids 1e305 from the free point at the origin: its row is about
    # 1e305 off zero and narrow, so dt r is small but dt (M + 1) m / 2
    # overflows.  Both modes refuse the spec before any window, naming the
    # rows' offset, with no numpy warning; exact-step used to report NaN and
    # match true
    forbid_steps(monkeypatch)
    spec = spec_from_dict(
        {
            "points": [[1e305, 0], [-1e305, 0], [0, 1e305], [0, 0]],
            "method": "kmeanspp",
            "centroids": [0, 1, 2],
            "anneal": {"M": 100000, "mode": mode},
        }
    )
    message = (
        f"{mode}'s closing phase dt (M + 1) m / 2 passes the float range (the rows' "
        "offset m up to 1e+305 with M = 100000, dt = 0.1); lower 'M' or 'dt'"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SizeGuardError, match=f"^{re.escape(message)}$"):
            run(spec)


def test_build_final_hamiltonian_adds_penalty_for_partial_blocks(tiny_spec_dict):
    tiny_spec_dict["method"] = "one-hot-multispin"
    tiny_spec_dict["K"] = 4
    spec = spec_from_dict(tiny_spec_dict)
    dm = distance_matrix(spec.points)
    hf = build_final_hamiltonian(spec, dm)
    encoding = Encoding(EncodingScheme("one-hot-multispin", 4), 4)
    # the pair sum plus the default penalty, twice the largest distance, for
    # each point in an unused state, added point by point
    w = 2.0 * dm.max_distance
    expected = encoding.pair_sum(dm.d) + sum(w * (encoding.labels[:, p] >= 4) for p in range(4))
    np.testing.assert_array_equal(hf, [expected])


def test_penalty_constant_override(tiny_spec_dict):
    tiny_spec_dict["method"] = "one-hot-multispin"
    tiny_spec_dict["K"] = 4
    tiny_spec_dict["penalty"] = 99.0
    spec = spec_from_dict(tiny_spec_dict)
    assert spec.scheme.penalty_constant == 99.0
    hf = build_final_hamiltonian(spec)
    assert hf.max() >= 99.0


@pytest.mark.parametrize(
    "method,n_points,seed,pinned,K",
    [
        ("one-hot-multispin", 3, 0, False, 4),
        ("one-hot-K3", 5, 11, False, 3),
        ("one-hot-K2-penalty", 5, 21, False, 2),
    ],
)
def test_run_certifies_methods_without_presets(method, n_points, seed, pinned, K):
    # seeded instances known to anneal cleanly at this schedule length
    spec = ProblemSpec(
        points=generate_instance(n_points, seed=seed),
        scheme=EncodingScheme(method=method, K=K),
        anneal=AnnealConfig(h=8.0, M=400),
        pinned=pinned,
    )
    result = run(spec)
    assert result.match is True
    assert abs(result.final_norm - 1.0) < 1e-9
    assert result.invalid_probability < 1e-3


def test_kmeanspp_run_counts_costs_with_centroids():
    points = PointSet(points=((0, 0), (10, 0), (1, 0), (9, 0)))
    spec = ProblemSpec(
        points=points,
        scheme=EncodingScheme(method="kmeanspp", K=2, centroid_states=((1,), (0,))),
        anneal=AnnealConfig(h=4.0, M=150),
        centroids=(0, 1),
    )
    result = run(spec)
    assert result.match is True
    assert result.top_partition == Partition([0, 1, 0, 1], 2)
    dm = distance_matrix(points)
    assert result.oracle_min_cost == pytest.approx(
        cost(dm, result.top_partition), rel=1e-12
    )
