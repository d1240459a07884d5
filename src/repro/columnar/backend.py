"""numpy access and shared column helpers for the columnar engine.

The columnar engine stores every piece of per-node state in flat
:class:`array.array` columns (row-major, fixed-width slots). Whole-column phases
(view ageing, estimator-window archiving, per-node estimate means, in-degree
bincounts, the batched shuffle) run as vectorized operations over zero-copy
:func:`numpy.frombuffer` views of those buffers. Only elementwise integer
arithmetic, gathers/scatters and elementwise IEEE-754 float operations are used,
so every phase produces the same bytes a sequential loop would.

Float *reductions* are the one operation where numpy would diverge (pairwise
summation reorders additions), so they never go through numpy: user-visible
means reduce with :func:`seq_sum`, a plain sequential left-to-right
accumulation.

numpy is optional at import time: ``import repro.columnar`` (and everything on
the object engine) works without it, and
:class:`~repro.columnar.engine.ColumnarEngine` raises a
:class:`~repro.errors.ConfigurationError` at construction when ``np`` is None.
"""

from __future__ import annotations

from array import array
from typing import Iterable

try:  # pragma: no cover - exercised via both CI installs
    import numpy as np
except ImportError:  # pragma: no cover
    np = None

#: array.array typecode -> numpy dtype name (native byte order on both sides).
_DTYPES = {"b": "int8", "i": "int32", "q": "int64", "d": "float64"}


def as_np(column: array):
    """A writable zero-copy numpy view over an ``array.array`` column.

    Mutations write through to the underlying buffer. Views must be created fresh
    per operation and never held across a column resize (``extend`` may move the
    buffer).
    """
    return np.frombuffer(column, dtype=_DTYPES[column.typecode])


def new_column(typecode: str, length: int, fill: int = 0) -> array:
    """A flat column of ``length`` entries, all set to ``fill``."""
    if fill == 0:
        return array(typecode, bytes(length * array(typecode).itemsize))
    return array(typecode, [fill]) * length


def grow_column(column: array, extra: int, fill: int = 0) -> None:
    """Append ``extra`` entries of ``fill`` to a column (amortised node growth)."""
    if fill == 0:
        column.frombytes(bytes(extra * column.itemsize))
    else:
        column.extend(array(column.typecode, [fill]) * extra)


def seq_sum(values: Iterable[float]) -> float:
    """Strict left-to-right float accumulation — the shared reduction order.

    Every user-visible float reduction folds through this helper so numpy's
    pairwise-summation rounding can never reach an aggregate.
    """
    total = 0.0
    for value in values:
        total += value
    return total
