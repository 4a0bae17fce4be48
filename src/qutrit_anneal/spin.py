"""Spin-1 operators and base-3 indexing on qutrit registers.

The single-qutrit basis is ordered by z projection as (|1>, |0>, |-1>).
A register state |m_1, ..., m_n> maps to the base-3 integer with digit
1 - m per site, so digits run (0, 1, 2) for m = (1, 0, -1), site 0 is the
most significant trit, and the all-|1> state has linear index 0.
``digit_table`` maps every linear index to its digits at once, and
``hamiltonians.block_state_index`` maps a projection tuple to its index.

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


def digit_from_projection(m: int) -> int:
    """Base-3 digit of a projection: 1 -> 0, 0 -> 1, -1 -> 2."""
    if m not in (1, 0, -1):
        raise ValueError(f"projection must be one of 1, 0, -1, got {m!r}")
    return 1 - m


def digit_table(n: int) -> np.ndarray:
    """(3**n, n) array of base-3 digits, one column per site, site 0 first."""
    if n < 1:
        raise ValueError("register needs at least one qutrit")
    idx = np.arange(3**n)
    return np.stack([(idx // 3 ** (n - 1 - i)) % 3 for i in range(n)], axis=1)


def block_values(n: int, start: int, width: int) -> np.ndarray:
    """Base-3 value of the digit block [start, start + width) per linear index."""
    if width < 1 or start < 0 or start + width > n:
        raise ValueError(
            f"block [{start}, {start + width}) does not fit a {n}-qutrit register"
        )
    idx = np.arange(3**n)
    return (idx // 3 ** (n - start - width)) % 3**width

