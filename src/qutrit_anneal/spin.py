"""Spin-1 operators and the one numbering of qutrit register states.

The single-qutrit basis is ordered by z projection as (|1>, |0>, |-1>), so
projection m is digit 1 - m: digits run (0, 1, 2) for m = (1, 0, -1).  A
register state's linear index is numpy's C-order index of its digits
(``np.ravel_multi_index`` with shape (3,) * n, ``np.unravel_index`` back):
site 0 is the most significant trit, and the all-|1> state has index 0.
``digit_table`` maps every linear index to its digits at once.

Everything here is a pure function over immutable inputs.
"""

from __future__ import annotations

import numpy as np

#: Single-site projections in basis order.
PROJECTIONS = (1, 0, -1)

_SQRT1_2 = 1.0 / np.sqrt(2.0)


def spin_operator(kind: str) -> np.ndarray:
    """Return the 3x3 spin-1 matrix S^x or S^z in the (|1>, |0>, |-1>) basis."""
    if kind == "z":
        return np.diag([1.0, 0.0, -1.0])
    if kind == "x":
        return _SQRT1_2 * np.array(
            [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
        )
    raise ValueError(f"unknown spin operator kind {kind!r}, expected 'x' or 'z'")


def digit_table(n: int) -> np.ndarray:
    """(3**n, n) array of base-3 digits, one column per site, site 0 first."""
    if n < 1:
        raise ValueError("register needs at least one qutrit")
    return np.stack(np.unravel_index(np.arange(3**n), (3,) * n), axis=1)
