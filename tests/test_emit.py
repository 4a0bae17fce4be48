import csv
import dataclasses
import importlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest

from conftest import forbid_expansion
import qutrit_anneal
from qutrit_anneal.clustering import Partition
from qutrit_anneal.cli import main
from qutrit_anneal.anneal import decode
from qutrit_anneal.emit import emit, render_csv, render_svg, render_table
from qutrit_anneal.harness import generate_instance, run, spec_from_dict
from qutrit_anneal.spin import digit_table


def test_table_reports_match_and_costs(tiny_result):
    table = render_table(tiny_result)
    assert "match" in table
    assert "true" in table
    assert f"{tiny_result.oracle_min_cost:.6f}" in table
    assert f"{tiny_result.top_cost:.6f}" in table


def test_csv_structure_and_normalization(tiny_result):
    text = render_csv(tiny_result)
    rows = list(csv.DictReader(io.StringIO(text)))
    n = tiny_result.spec.register_qutrits
    assert len(rows) == 3**n
    total = sum(float(r["probability"]) for r in rows)
    assert total == pytest.approx(1.0, abs=1e-9)
    top_rows = [r for r in rows if r["partition_id"] == "0"]
    top_p = sum(float(r["probability"]) for r in top_rows)
    assert top_p == pytest.approx(tiny_result.top_probability, abs=1e-12)
    assert all(len(r["digits"].split()) == n for r in rows)


def test_csv_id_zero_is_the_top_partition_on_a_tie(tiny_result):
    # a uniform state ties several partitions at the top; decode breaks the
    # tie once, so the CSV's id 0 is the table's top partition
    encoding = tiny_result.spec.encoding
    size = 3**encoding.n_qutrits
    report = decode(np.full(size, size**-0.5), encoding)
    probs = list(report.partition_probabilities.values())
    assert probs[1] == probs[0] == report.top_probability
    result = dataclasses.replace(
        tiny_result,
        report=report,
        top_partition=report.top_partition,
        top_probability=report.top_probability,
    )
    rows = list(csv.DictReader(io.StringIO(render_csv(result))))
    top_rows = [r for r in rows if r["partition_id"] == "0"]
    decoded = {
        Partition(encoding.labels[int(r["basis_index"])], encoding.K) for r in top_rows
    }
    assert decoded == {result.top_partition}
    top_p = sum(float(r["probability"]) for r in top_rows)
    assert top_p == pytest.approx(result.top_probability, abs=1e-12)


@pytest.mark.parametrize(
    "method, n, extra, decoded",
    [
        # one 7-qutrit block: S(8,1) + S(8,2) + S(8,3) partitions decoded
        ("one-hot-K3-pinned", 8, {}, 1094),
        # seven free points at three centroids: every state its own partition
        ("kmeanspp", 10, {"centroids": [0, 1, 2]}, 3**7),
    ],
)
def test_run_and_emit_build_partitions_only_for_the_top_and_the_argmin(
    monkeypatch, tmp_path, method, n, extra, decoded
):
    built = []
    init = Partition.__init__

    def counting(self, labels, n_clusters):
        built.append(n_clusters)
        init(self, labels, n_clusters)

    monkeypatch.setattr(Partition, "__init__", counting)
    spec = spec_from_dict({
        "points": [list(p) for p in generate_instance(n, 1).points],
        "method": method,
        "anneal": {"M": 50, "h": 8.0, "mode": "split-step"},
        **extra,
    })
    result = run(spec)
    assert len(result.report.keys) == decoded
    assert len(built) == 1  # the top partition
    emit(result, ("table", "csv", "svg"), tmp_path)
    optimal = len(result.oracle.argmin_keys)
    assert len(built) == 1 + optimal  # and the argmin, which the table prints
    # the report builds the others when they are read
    assert len(result.report.partition_probabilities) == decoded
    assert len(built) == 1 + optimal + decoded


def test_csv_marks_invalid_states(preset_result):
    result = preset_result("fig4")
    rows = list(csv.DictReader(io.StringIO(render_csv(result))))
    invalid_p = sum(float(r["probability"]) for r in rows if r["partition_id"] == "-1")
    assert invalid_p == pytest.approx(result.invalid_probability, abs=1e-12)
    assert invalid_p > 0.0


def _reference_csv(result):
    """The CSV built one row at a time from the spec's label table."""
    ranked = sorted(
        result.report.partition_probabilities.items(),
        key=lambda kv: (kv[1], kv[0].canonical),
        reverse=True,
    )
    ids = {part: i for i, (part, _) in enumerate(ranked)}
    spec = result.spec
    n = spec.register_qutrits
    probs = result.report.basis_probabilities
    labels, invalid = spec.encoding.labels, spec.encoding.invalid
    projections = (1 - digit_table(n)).tolist()
    lines = ["basis_index,digits,partition_id,probability"]
    for idx in range(3**n):
        digits = " ".join(str(m) for m in projections[idx])
        if invalid[idx]:
            pid = -1
        else:
            pid = ids[Partition(labels[idx], spec.scheme.K)]
        lines.append(f"{idx},{digits},{pid},{probs[idx]:.12e}")
    return "\n".join(lines) + "\n"


#: (method, points, extra spec fields, whether some basis states are
#: invalid): every encoding
CSV_SHAPES = [
    ("one-hot-K3", 5, {}, False),
    ("one-hot-K3-pinned", 6, {}, False),
    ("one-hot-K2-penalty", 6, {"pinned": True}, True),
    ("one-hot-K2-penalty", 5, {"pinned": False}, True),
    ("one-hot-multispin", 3, {"K": 4}, True),
    ("kmeanspp", 7, {"centroids": [0, 1, 2]}, False),
    ("kmeanspp", 5, {"centroids": [4, 0, 2, 1]}, True),
]


@pytest.mark.parametrize("shape", range(len(CSV_SHAPES)))
def test_csv_bytes_match_per_row_renderer(shape):
    method, n_points, extra, has_invalid = CSV_SHAPES[shape]
    spec = spec_from_dict(
        {
            "name": "csv",
            "points": [list(p) for p in generate_instance(n_points, 40 + shape).points],
            "method": method,
            "anneal": {"M": 20, "dt": 0.1, "h": 8.0, "mode": "split-step"},
            **extra,
        }
    )
    result = run(spec)
    text = render_csv(result)
    assert text == _reference_csv(result)
    assert (",-1," in text) == has_invalid


def test_csv_bytes_match_per_row_renderer_on_preset(preset_result):
    result = preset_result("fig4")
    assert render_csv(result) == _reference_csv(result)


def test_requests_run_with_scipy_blocked(tmp_path):
    # the package never imports scipy: exact-step and split-step requests,
    # every emitter and the oracle run where importing it fails
    code = f"""
import dataclasses
import sys
import warnings


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{{name}} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
import qutrit_anneal.cli
from qutrit_anneal.anneal import AnnealConfig
from qutrit_anneal.clustering import distance_matrix, oracle_min
from qutrit_anneal.emit import emit
from qutrit_anneal.harness import run, spec_from_dict
from qutrit_anneal.presets import get_preset

fig3 = get_preset("fig3")
exact = dataclasses.replace(fig3, anneal=AnnealConfig(h=fig3.anneal.h, M=20))
emit(run(exact), ["table", "csv", "svg"], {str(tmp_path / "exact")!r})
split = spec_from_dict({{
    "name": "split", "points": [[0, 0], [0, 1], [10, 10], [-10, 10], [9, 9]],
    "method": "one-hot-K3", "anneal": {{"M": 20, "mode": "split-step"}},
}})
emit(run(split), ["table", "csv", "svg"], {str(tmp_path / "split")!r})
oracle_min(distance_matrix([[0, 0], [1, 0], [5, 5]]), 2)
sys.exit(int("scipy" in sys.modules))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(qutrit_anneal.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert len(list((tmp_path / "exact").iterdir())) == 3
    assert len(list((tmp_path / "split").iterdir())) == 3
    sources = sorted(Path(qutrit_anneal.__file__).parent.glob("*.py"))
    assert sources
    assert not [p.name for p in sources if "scipy" in p.read_text()]


def test_spec_files_and_artifacts_are_utf8_whatever_the_locale(tmp_path, tiny_spec_dict):
    # under the C locale without UTF-8 mode the preferred encoding is ASCII:
    # a UTF-8 spec with non-ASCII labels still loads, its artifacts and a
    # generated skeleton are written as UTF-8, and a spec file that is not
    # UTF-8 is a SpecError that names it.  stdout is ASCII there: the run
    # through the library writes no table to it, and the CLI's run escapes
    # the labels in its table there and writes its files as UTF-8.  The file
    # system's encoding is ASCII too, so a spec named "café" or one sent to a
    # directory "café" is refused when it is built, naming 'name' or 'out':
    # the CLI exits 2 before it anneals, prints nothing and makes no directory,
    # as its generate does with such an --out, and the library's emit refuses
    # such a directory before making it
    labels = ["café", "naïve", "Zürich", "東京"]
    good, bad, out = tmp_path / "good.json", tmp_path / "bad.json", tmp_path / "out"
    cli_out = tmp_path / "cli-out"
    named, named_out = tmp_path / "named.json", tmp_path / "named-out"
    good.write_bytes(json.dumps({**tiny_spec_dict, "labels": labels}, ensure_ascii=False).encode())
    bad.write_bytes('{"name": "café"}'.encode("latin-1"))
    named.write_bytes(json.dumps({**tiny_spec_dict, "name": "café"}, ensure_ascii=False).encode())
    code = f"""
import contextlib
import dataclasses
import io
import locale
import os
import qutrit_anneal.cli
from qutrit_anneal.cli import main
from qutrit_anneal.emit import emit
from qutrit_anneal.errors import SpecError
from qutrit_anneal.harness import ProblemSpec, load_spec, run

assert locale.getpreferredencoding(False) == "ANSI_X3.4-1968", locale.getpreferredencoding(False)
emit(run(load_spec({str(good)!r})), ["table", "csv", "svg"], {str(out)!r})
assert main(["generate", "--n", "4", "--seed", "2", "--out", {str(out)!r}]) == 0
try:
    load_spec({str(bad)!r})
except SpecError as exc:
    assert {str(bad)!r} in str(exc) and "utf-8" in str(exc), exc
else:
    raise AssertionError("a latin-1 spec loaded")
exit_code = main(["run", {str(good)!r}, "--emit", "table,csv,svg", "--out", {str(cli_out)!r}])
assert exit_code in (0, 1), exit_code


def refuse_to_anneal(spec):
    raise AssertionError("the CLI annealed a spec whose files cannot be named")


qutrit_anneal.cli.run = refuse_to_anneal
entries = sorted(os.listdir({str(tmp_path)!r}))
for args, field in [
    (["run", {str(named)!r}, "--emit", "table,csv", "--out", {str(named_out)!r}], "'name'"),
    (["run", {str(good)!r}, "--out", {ascii(str(tmp_path / "café"))}], "'out'"),
    (["generate", "--n", "4", "--seed", "2", "--out", {ascii(str(tmp_path / "café"))}], "'out'"),
]:
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        exit_code = main(args)
    assert exit_code == 2 and field in err.getvalue(), (exit_code, ascii(err.getvalue()))
    assert out.getvalue() == "", ascii(out.getvalue())
    assert sorted(os.listdir({str(tmp_path)!r})) == entries
spec = load_spec({str(good)!r})
for build, field in [
    (lambda: ProblemSpec(spec.points, spec.scheme, spec.anneal, name="caf\\xe9"), "'name'"),
    (lambda: dataclasses.replace(spec, out_dir={ascii(str(tmp_path / "café"))}), "'out'"),
]:
    try:
        build()
    except SpecError as exc:
        assert field in str(exc), ascii(str(exc))
    else:
        raise AssertionError(f"a spec whose {{field}} the file system cannot encode was built")
try:
    emit(run(load_spec({str(good)!r})), ["table"], {ascii(str(tmp_path / "café"))})
except SpecError as exc:
    assert "'out'" in str(exc), ascii(str(exc))
else:
    raise AssertionError("an out directory the file system cannot encode was made")
"""
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(qutrit_anneal.__file__).parents[1]),
        LC_ALL="C",
        PYTHONUTF8="0",
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    texts = {p.name: p.read_bytes().decode("utf-8") for p in out.iterdir()}
    assert sorted(texts) == ["random-n4-seed2.json", "tiny.csv", "tiny.svg", "tiny.txt"]
    assert all(label in texts["tiny.txt"] for label in labels)
    cli_texts = {p.name: p.read_bytes().decode("utf-8") for p in cli_out.iterdir()}
    assert sorted(cli_texts) == ["tiny.csv", "tiny.svg", "tiny.txt"]
    assert all(label in cli_texts["tiny.txt"] for label in labels)
    assert b"caf\\xe9" in proc.stdout and b"\\u6771\\u4eac" in proc.stdout


def test_spec_file_name_utf8_cannot_encode_needs_a_name(tmp_path, tiny_spec_dict, capsys):
    # under a UTF-8 locale the latin-1 bytes of this file name read as a lone
    # surrogate; without a "name" the spec once annealed, then left an empty
    # artifact and a message that named no field
    del tiny_spec_dict["name"]
    path = Path(os.fsdecode(os.fsencode(tmp_path) + b"/caf\xe9.json"))
    path.write_text(json.dumps(tiny_spec_dict))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert "give the spec a 'name'" in capsys.readouterr().err
    assert not out.exists()
    path.write_text(json.dumps({**tiny_spec_dict, "name": "cafe"}))
    assert main(["run", str(path), "--out", str(out)]) in (0, 1)
    assert sorted(p.name for p in out.iterdir()) == ["cafe.txt"]


def test_svg_has_marker_group_sizes_3_2_1(preset_result):
    svg = render_svg(preset_result("fig1"))
    data_markers = re.findall(r'<(circle|rect|polygon|path) class="pt"', svg)
    counts = {
        "circle": data_markers.count("circle"),
        "rect": data_markers.count("rect"),
        "polygon": data_markers.count("polygon"),
    }
    assert counts == {"circle": 3, "rect": 2, "polygon": 1}
    assert svg.startswith("<svg")
    assert 'version="1.1"' in svg


def test_svg_legend_pairs_stay_distinct_past_six_clusters(monkeypatch):
    # CI's kmeanspp K = 10 spec: ten centroids make ten clusters, and each
    # gets its own (shape, colour) pair in the legend
    emit_module, drawn = importlib.import_module("qutrit_anneal.emit"), []
    marker = emit_module._marker_svg

    def recording(shape, x, y, r, color, css):
        if css == "key":
            drawn.append((shape, color))
        return marker(shape, x, y, r, color, css)

    monkeypatch.setattr(emit_module, "_marker_svg", recording)
    points = [[0, 0], [10, 0], [20, 0], [30, 0], [0, 10], [10, 10], [20, 10], [30, 10]]
    points += [[0, 20], [10, 20], [1, 1], [29, 9]]
    spec = {"points": points, "method": "kmeanspp", "centroids": list(range(10))}
    render_svg(run(spec_from_dict({**spec, "anneal": {"h": 8, "M": 20}})))
    assert len(drawn) == len(set(drawn)) == 10


def test_svg_escapes_the_spec_name(tmp_path, tiny_result):
    named = dataclasses.replace(
        tiny_result, spec=dataclasses.replace(tiny_result.spec, name="a<b&c")
    )
    (path,) = emit(named, ["svg"], tmp_path)
    assert path.name == "a<b&c.svg"
    title = minidom.parse(str(path)).getElementsByTagName("text")[0]
    assert title.firstChild.data.startswith("a<b&c: top partition")


def test_emit_writes_requested_files(tmp_path, tiny_result):
    paths = emit(tiny_result, ["table", "csv", "svg"], tmp_path)
    names = {p.name for p in paths}
    assert names == {"tiny.txt", "tiny.csv", "tiny.svg"}
    for p in paths:
        assert p.exists() and p.stat().st_size > 0


def test_emit_unknown_format(tmp_path, tiny_result):
    with pytest.raises(ValueError):
        emit(tiny_result, ["pdf"], tmp_path)


def test_emit_checks_every_format_before_writing(tmp_path, tiny_result):
    with pytest.raises(ValueError, match="pdf"):
        emit(tiny_result, ["table", "pdf"], tmp_path / "out")
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------ CLI plumbing


def test_cli_run_tiny_spec(tmp_path, tiny_spec_dict, capsys):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(tiny_spec_dict))
    code = main(["run", str(path), "--emit", "table,csv,svg", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "match" in out
    assert (tmp_path / "tiny.csv").exists()
    assert (tmp_path / "tiny.svg").exists()
    assert (tmp_path / "tiny.txt").exists()


def test_cli_missing_spec_is_input_error(tmp_path, capsys):
    code = main(["run", str(tmp_path / "absent.json")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_cli_deeply_nested_spec_is_input_error(tmp_path, capsys):
    # json raises RecursionError, not JSONDecodeError, past the recursion limit
    depth = 100 * sys.getrecursionlimit()
    path = tmp_path / "nested.json"
    path.write_text("[" * depth + "]" * depth)
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err and "nested too deeply" in err


def test_cli_bad_emit_format_is_input_error(tmp_path, tiny_spec_dict, capsys):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(tiny_spec_dict))
    assert main(["run", str(path), "--emit", "pdf"]) == 2


def test_cli_uses_spec_output_targets(tmp_path, tiny_spec_dict):
    tiny_spec_dict["emit"] = ["csv"]
    tiny_spec_dict["out"] = str(tmp_path / "nested")
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(tiny_spec_dict))
    assert main(["run", str(path)]) == 0
    assert (tmp_path / "nested" / "tiny.csv").exists()
    assert not (tmp_path / "nested" / "tiny.txt").exists()


@pytest.mark.parametrize("name", ["sub/dir", "../escaped"])
def test_cli_spec_name_with_a_path_is_input_error(tmp_path, tiny_spec_dict, capsys, name):
    tiny_spec_dict["name"] = name
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(tiny_spec_dict))
    out = tmp_path / "out"
    assert main(["run", str(path), "--emit", "table,csv,svg", "--out", str(out)]) == 2
    assert "'name'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["spec.json"]


def test_cli_unwritable_output_is_input_error(tmp_path, tiny_spec_dict, capsys):
    # --out names an existing regular file, so no directory can be made there
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(tiny_spec_dict))
    blocker = tmp_path / "taken"
    blocker.write_text("")
    assert main(["run", str(path), "--out", str(blocker)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output:") and "taken" in err
    assert main(["generate", "--n", "4", "--seed", "2", "--out", str(blocker)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write output:")
    assert blocker.read_text() == ""


def test_cli_size_guard_exit_code(tmp_path, capsys):
    spec = {
        "points": [[i, i] for i in range(9)],
        "method": "one-hot-K3",
        "anneal": {"M": 5, "h": 2.0},
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(spec))
    assert main(["run", str(path)]) == 3


def test_cli_exact_step_degree_guard_exit_code(monkeypatch, tmp_path, capsys):
    forbid_expansion(monkeypatch)
    spec = {
        "points": [[0, 0], [0, 1], [10, 10]],
        "method": "one-hot-multispin",
        "K": 4,
        "penalty": 1e12,
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(spec))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: exact-step needs about dt * r = 1.5e+11")
    assert "'penalty'" in err and "split-step" not in err


def test_cli_refuses_an_overflowing_driver_with_no_warning(tmp_path, capsys):
    # h w overflows to inf at s = 0: the same refusal, with no RuntimeWarning
    spec = {"points": [[0, 0], [1, 1], [5, 5]], "method": "one-hot-K3", "anneal": {"h": 1e308}}
    path = tmp_path / "h-huge.json"
    path.write_text(json.dumps(spec))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(path), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err == (
        "error: exact-step needs about dt * r = inf Chebyshev terms a step, above the 10000 "
        "guard (driver h = 1e+308 on 3-qutrit blocks, dt = 0.1); lower 'h'\n"
    )


@pytest.mark.parametrize("h", [1e-310, 5e-324])
@pytest.mark.parametrize(
    "spec",
    [
        pytest.param(
            {"points": [[0, 0], [0, 1], [10, 10], [3, 4], [5, 5]], "method": "one-hot-K3-pinned"},
            id="one-block",
        ),
        pytest.param(
            {
                "points": [[0, 0], [10, 0], [20, 0], [1, 1], [19, 1], [9, 2]],
                "method": "kmeanspp",
                "centroids": [0, 1, 2],
            },
            id="kmeanspp-small-blocks",
        ),
    ],
)
def test_cli_runs_a_subnormal_driver_with_no_warning(tmp_path, capsys, spec, h):
    # at s = 0 the half-width h w is subnormal, and 2 / r overflows: the map
    # onto [-2, 2] must not make 0 * inf there, on 81-state rows nor on
    # 3-state blocks
    path = tmp_path / "h-subnormal.json"
    path.write_text(json.dumps({**spec, "anneal": {"h": h, "M": 20}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(path), "--out", str(tmp_path)]) in (0, 1)
    assert "Warning" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "anneal, message",
    [
        pytest.param(
            {"h": 1e300, "dt": 1e10},
            "angle tau * h is past the float range (driver h = 1e+300, dt = 1e+10, "
            "tau = dt / 8); lower 'h' or 'dt'",
            id="driver-angle",
        ),
        pytest.param(
            {"h": 2, "dt": 1e308},
            "phase tau * max|Hf| is past the float range (Hf entries up to 109, dt = 1e+308, "
            "tau = dt / 8); lower 'dt'",
            id="diagonal-phase",
        ),
    ],
)
def test_cli_refuses_a_split_run_past_the_float_range(tmp_path, capsys, anneal, message):
    # tau h or tau max|Hf| overflows to inf: split-step refuses the run with
    # exit 3 and names the cause, where it printed NaN with a RuntimeWarning
    spec = {"points": [[0, 0], [0, 1], [10, 10], [-10, 10], [3, 4]], "method": "one-hot-K3"}
    path = tmp_path / "split-huge.json"
    path.write_text(json.dumps({**spec, "anneal": {**anneal, "mode": "split-step"}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(path), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: split-step's substep {message}\n"
    assert "Warning" not in err


def forbid_split_step(*args):
    raise AssertionError("the run reached a split step")


@pytest.mark.parametrize("mode", ["exact", "split"])
def test_cli_refuses_a_run_of_too_many_steps(monkeypatch, tmp_path, capsys, mode):
    # "M": 2**63 validates, and the run would start about 2.9e17 windows of
    # steps: it is refused with exit 3, naming M, before any step
    forbid_expansion(monkeypatch)
    monkeypatch.setattr(
        importlib.import_module("qutrit_anneal.anneal"), "_split_step", forbid_split_step
    )
    spec = {"points": [[0, 0], [0, 1], [10, 10]], "method": "one-hot-K3", "anneal": {"M": 2**63}}
    path = tmp_path / "many-steps.json"
    path.write_text(json.dumps(spec))
    assert main(["run", str(path), "--mode", mode, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err == (
        "error: step count M = 9223372036854775808 is above the 10,000,000 guard; lower 'M'\n"
    )
    assert "Traceback" not in err


class ClosedStdout:
    """A stdout whose reader has gone, as after ``| head -1``."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


@pytest.mark.parametrize(
    "argv", [["preset", "fig3", "--mode", "split"], ["generate", "--n", "4", "--seed", "2"]]
)
def test_cli_closed_stdout_is_an_output_error(monkeypatch, capsys, argv):
    # not exit 1, which would read as a mismatch, and no traceback
    monkeypatch.setattr(sys, "stdout", ClosedStdout())
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: cannot write output: [Errno 32] Broken pipe\n"


def test_cli_mismatch_exit_code(monkeypatch, tmp_path, tiny_spec_dict, tiny_result):
    import dataclasses

    import qutrit_anneal.cli as cli

    mismatched = dataclasses.replace(tiny_result, match=False)
    monkeypatch.setattr(cli, "run", lambda spec: mismatched)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(tiny_spec_dict))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 1


def test_cli_generate_deterministic_json(capsys):
    assert main(["generate", "--n", "5", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["generate", "--n", "5", "--seed", "9"]) == 0
    second = capsys.readouterr().out
    assert first == second
    data = json.loads(first)
    assert len(data["points"]) == 5
    assert all(-10 <= x <= 10 and -10 <= y <= 10 for x, y in data["points"])


def test_cli_generate_writes_file(tmp_path):
    assert main(["generate", "--n", "4", "--seed", "2", "--out", str(tmp_path)]) == 0
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1
    data = json.loads(files[0].read_text())
    assert data["method"] == "one-hot-K3-pinned"


def test_cli_preset_with_split_mode_runs_fast(tmp_path, capsys):
    # split mode keeps the preset answer and finishes quickly
    code = main(
        ["preset", "fig3", "--mode", "split", "--emit", "table", "--out", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "match" in out and "true" in out
