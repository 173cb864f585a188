"""Float totals that come out the same on every supported Python.

Builtin ``sum()`` compensates float rounding on Python >= 3.12, so a
total over the same values can differ in its last bits from the one
Python 3.10/3.11 computes — enough to move a tipping row, a golden or a
benchmark digest.  Every total that reaches a result goes through
:func:`left_sum` instead: it adds the values left to right from ``0.0``,
which is bit for bit what ``sum()`` gives before 3.12, so results stay
identical from 3.10 to 3.12.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Iterable


def left_sum(values: Iterable[float]) -> float:
    """``values`` added left to right from ``0.0``, with no compensation."""
    return reduce(add, values, 0.0)
