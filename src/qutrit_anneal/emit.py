"""Result emitters: a text table, a CSV probability dump, and an SVG plot."""

from __future__ import annotations

import functools
from pathlib import Path

from .harness import RunResult, artifact_paths
from .spin import digit_table

#: Marker shapes and colours assigned to clusters by decreasing cluster
#: size.  Six shapes against seven colours: the (shape, colour) pairs repeat
#: only after 42 clusters.
_MARKERS = ("circle", "square", "triangle", "diamond", "cross", "plus")
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


def render_table(result: RunResult) -> str:
    """Human-readable run summary."""
    spec = result.spec
    rows = [
        ("instance", f"{spec.name} ({len(spec.points)} points, method {spec.scheme.method}, K={spec.scheme.K})"),
        (
            "register",
            f"{spec.register_qutrits} qutrits (dim {3 ** spec.register_qutrits}), "
            f"h={spec.anneal.h:g}, M={spec.anneal.M}, dt={spec.anneal.dt:g}, "
            f"mode {spec.anneal.mode}",
        ),
        ("top partition", result.top_partition.describe(spec.points)),
        ("top probability", f"{result.top_probability:.6f}"),
        ("top partition cost", f"{result.top_cost:.6f}"),
        ("oracle min cost", f"{result.oracle_min_cost:.6f}"),
        (
            "oracle partitions",
            " ; ".join(p.describe(spec.points) for p in result.oracle_partitions),
        ),
        ("match", "true" if result.match else "false"),
        ("invalid probability", f"{result.invalid_probability:.6g}"),
        ("norm drift", f"{abs(result.final_norm - 1.0):.3e}"),
        ("wall time", f"{result.wall_time_s:.2f} s"),
    ]
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows) + "\n"


@functools.cache
def _projection_strings(n: int) -> tuple[str, ...]:
    """The CSV digits column of an n-qutrit register: projections per basis state."""
    return tuple(" ".join(map(str, row)) for row in (1 - digit_table(n)).tolist())


def render_csv(result: RunResult) -> str:
    """Per-basis-state dump: index, projections, decoded partition id, probability.

    The partition id is the decoded rank, 0 for the top partition; -1 marks
    basis states decoding to no valid partition.  The probability column
    sums to the squared final norm (1 up to drift).
    """
    report = result.report
    pids = report.partition_index.tolist()
    digits = _projection_strings(result.spec.register_qutrits)
    lines = ["basis_index,digits,partition_id,probability"]
    lines += [
        f"{idx},{d},{pid},{prob:.12e}"
        for idx, (d, pid, prob) in enumerate(
            zip(digits, pids, report.basis_probabilities.tolist())
        )
    ]
    return "\n".join(lines) + "\n"


def _marker_svg(shape: str, x: float, y: float, r: float, color: str, css: str) -> str:
    common = f'class="{css}" fill="{color}" stroke="black" stroke-width="0.8"'
    if shape == "circle":
        return f'<circle {common} cx="{x:.1f}" cy="{y:.1f}" r="{r:.1f}"/>'
    if shape == "square":
        return (
            f'<rect {common} x="{x - r:.1f}" y="{y - r:.1f}" '
            f'width="{2 * r:.1f}" height="{2 * r:.1f}"/>'
        )
    if shape == "triangle":
        pts = f"{x:.1f},{y - r:.1f} {x - r:.1f},{y + r:.1f} {x + r:.1f},{y + r:.1f}"
        return f'<polygon {common} points="{pts}"/>'
    if shape == "diamond":
        pts = f"{x:.1f},{y - r:.1f} {x + r:.1f},{y:.1f} {x:.1f},{y + r:.1f} {x - r:.1f},{y:.1f}"
        return f'<polygon {common} points="{pts}"/>'
    if shape == "cross":
        d = (
            f"M {x - r:.1f} {y - r:.1f} L {x + r:.1f} {y + r:.1f} "
            f"M {x - r:.1f} {y + r:.1f} L {x + r:.1f} {y - r:.1f}"
        )
        return f'<path class="{css}" stroke="{color}" stroke-width="2" fill="none" d="{d}"/>'
    d = (
        f"M {x:.1f} {y - r:.1f} L {x:.1f} {y + r:.1f} "
        f"M {x - r:.1f} {y:.1f} L {x + r:.1f} {y:.1f}"
    )
    return f'<path class="{css}" stroke="{color}" stroke-width="2" fill="none" d="{d}"/>'


def _xml_text(text: str) -> str:
    """The text with the characters that XML markup reserves escaped.

    Written out, not imported: xml.sax.saxutils loads urllib.request, which
    would add about 7 MB of memory and 40 ms to every import of the package.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(result: RunResult) -> str:
    """Scatter plot of the instance, one marker shape per decoded cluster."""
    spec = result.spec
    pts = spec.points.points
    blocks = sorted(
        result.top_partition.blocks(), key=lambda b: (-len(b), b[0])
    )
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    pad = 2.0
    x_lo, x_hi = min(xs) - pad, max(xs) + pad
    y_lo, y_hi = min(ys) - pad, max(ys) + pad
    size = 440.0
    margin = 40.0
    legend_w = 190.0
    width = size + 2 * margin + legend_w
    height = size + 2 * margin

    def sx(x: float) -> float:
        return margin + (x - x_lo) / (x_hi - x_lo) * size

    def sy(y: float) -> float:
        return margin + (y_hi - y) / (y_hi - y_lo) * size

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect x="{margin}" y="{margin}" width="{size}" height="{size}" '
        f'fill="white" stroke="#444"/>',
        f'<text x="{margin}" y="{margin - 12}" font-family="sans-serif" '
        f'font-size="14">{_xml_text(spec.name)}: top partition '
        f'(p={result.top_probability:.3f}, match={str(result.match).lower()})</text>',
    ]
    if x_lo < 0.0 < x_hi:
        out.append(
            f'<line x1="{sx(0):.1f}" y1="{margin}" x2="{sx(0):.1f}" '
            f'y2="{margin + size}" stroke="#bbb"/>'
        )
    if y_lo < 0.0 < y_hi:
        out.append(
            f'<line x1="{margin}" y1="{sy(0):.1f}" x2="{margin + size}" '
            f'y2="{sy(0):.1f}" stroke="#bbb"/>'
        )
    for rank, block in enumerate(blocks):
        shape = _MARKERS[rank % len(_MARKERS)]
        color = _COLORS[rank % len(_COLORS)]
        for i in block:
            x, y = pts[i]
            out.append(_marker_svg(shape, sx(x), sy(y), 6.0, color, "pt"))
            out.append(
                f'<text x="{sx(x) + 8:.1f}" y="{sy(y) - 8:.1f}" '
                f'font-family="sans-serif" font-size="10" fill="#333">'
                f"({x:g},{y:g})</text>"
            )
        ly = margin + 16 + 22 * rank
        lx = 2 * margin + size
        out.append(_marker_svg(shape, lx, ly, 6.0, color, "key"))
        out.append(
            f'<text x="{lx + 14:.1f}" y="{ly + 4:.1f}" font-family="sans-serif" '
            f'font-size="12">cluster {rank + 1} ({len(block)} point'
            f'{"s" if len(block) != 1 else ""})</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def emit(result: RunResult, formats, out_dir: str | Path = ".") -> list[Path]:
    """Write the requested artifact files, named after the spec.

    ``harness.artifact_paths`` names the files and checks every format and
    path, raising ``SpecError``, before the directory or any file is made.
    """
    paths = artifact_paths(result.spec.name, formats, out_dir)
    renderers = {"table": render_table, "csv": render_csv, "svg": render_svg}
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    for fmt, path in zip(formats, paths):
        path.write_text(renderers[fmt](result), encoding="utf-8")
    return paths
