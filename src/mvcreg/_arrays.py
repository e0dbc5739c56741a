"""How the package's frozen value classes take the arrays they are given.

Every array field of every value class follows one rule: the class holds a
read-only array that nothing else can write to, and its ``__post_init__``
applies :func:`freeze` to those fields and does nothing else to them.  A
producer that has just made an array (a draw, a CSV read, a weight solve,
the fit basis) marks it read-only and hands it over, and the class takes it
as is; every other array is copied, and a caller's array keeps its flags.
At N = 500000 a copy is megabytes, so the hand-over is what keeps each
N-sized array in memory once.  From the size at which the CSV reader
parses with workers, its y, x and p live in shared mappings
(:func:`mvcreg._pool.table_empty`) that the workers parsed into, and are
handed over as views of them: a copy would read every row into the process
that takes them, which the fit's pooled sums leave to the workers.
"""

from __future__ import annotations

import numpy as np

from ._pool import is_shared


def frozen(values, dtype=float) -> np.ndarray:
    """``values`` as a read-only ``dtype`` array that no caller can write.

    An ``ndarray`` that owns its memory or views a shared mapping of
    :mod:`mvcreg._pool`, already has ``dtype`` and is not writeable is
    handed over: it is returned as is, and its producer must keep no
    writeable view of it.  Anything else (a list, another view, a writeable
    array, another dtype) is copied, so a caller's own array is never shared.
    """
    if (
        type(values) is np.ndarray
        and values.dtype == dtype
        and (values.flags.owndata or is_shared(values))
        and not values.flags.writeable
    ):
        return values
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


def freeze(obj, *names: str, dtype=float) -> None:
    """Set each field ``names`` of the frozen dataclass ``obj`` to :func:`frozen` of itself.

    A field that is ``None`` stays ``None``.
    """
    for name in names:
        value = getattr(obj, name)
        if value is not None:
            object.__setattr__(obj, name, frozen(value, dtype))
