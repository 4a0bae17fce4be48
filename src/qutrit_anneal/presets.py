"""Bundled demo instances, runnable as ``qutrit-anneal preset <name>``.

Each preset pairs a small integer-coordinate instance with the encoding and
schedule that solve it: fig1 partitions six points into three clusters with
the pinned one-hot form, fig2 splits the same size instance into two
clusters with the penalty form, fig3 and fig4 assign free points to fixed
centroids (three single-qutrit clusters, and four two-qutrit-block clusters
with a penalty, respectively).
"""

from __future__ import annotations

from .errors import SpecError
from .harness import ProblemSpec, spec_from_dict

PRESET_NAMES = ("fig1", "fig2", "fig3", "fig4")

#: Each preset as the spec dict a spec file would hold.
_PRESETS = {
    "fig1": {
        "points": [[4, -2], [-7, 7], [6, -9], [-6, 8], [-2, -6], [-9, 5]],
        "method": "one-hot-K3-pinned",
        "anneal": {"h": 2.0},
    },
    "fig2": {
        "points": [[6, 6], [-6, 5], [-3, 9], [4, -10], [-7, 4], [-5, 1]],
        "method": "one-hot-K2-penalty",
        "pinned": True,
        "anneal": {"h": 8.0},
    },
    "fig3": {
        "points": [[8, -1], [-2, -6], [1, 6], [4, -4], [3, 8], [9, -4], [-5, 8], [-6, -8],
                   [3, -10]],
        "method": "kmeanspp",
        "centroids": [0, 1, 2],
        "centroid_states": [[1], [0], [-1]],
        "anneal": {"h": 8.0},
    },
    "fig4": {
        "points": [[-9, 10], [1, 9], [-8, -3], [-2, -9], [4, -2], [8, -8], [10, -5]],
        "method": "kmeanspp",
        "centroids": [0, 1, 2, 4],
        "centroid_states": [[1, 1], [1, 0], [1, -1], [0, 1]],
        "anneal": {"h": 8.0},
    },
}


def get_preset(name: str) -> ProblemSpec:
    """Build a fresh ProblemSpec for one of the bundled presets, as from a spec file."""
    if name not in _PRESETS:
        raise SpecError(f"unknown preset {name!r}, expected one of {PRESET_NAMES}")
    return spec_from_dict(_PRESETS[name], default_name=name)
