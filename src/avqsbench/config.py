"""Input-check tolerances, resource caps and the immutable base that the
package's validated types share.

The tolerances are constants: ``CHECK_TOL`` is how far an input may miss an
exact identity, ``CLOSE_TOL`` the trace distance at which two states count
as the same.  No cutoff of a spectrum or of weights is a constant or a
setting: each is read off the values themselves by ``linalg.resolved``.
The dimension cap is the one runtime setting; ``local_config`` and the
CLI's ``--dim-cap`` set it, and only this module reads it.

Entropies and rates are in bits (logarithms base 2) throughout.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from math import log2

import numpy as np


class DimensionCapError(Exception):
    """Raised when an operation would exceed a dimension, word or frame-work cap."""


WORD_CAP = 4096  # largest number of source words enumerated one by one
# matrix-form isotypic projectors sum over all l! permutations; beyond this
# blocklength the trace-form evaluation is the only supported path
MATRIX_FORM_MAX_BLOCKLENGTH = 8
# largest (l+1)^(2m-1) for frames of l boxes in at most m = min(d, l) rows: (l+1)^(m-1)
# frames, each an exact dimension from l! and up to (l+1)^(m-1) interlacing terms
FRAME_WORK_CAP = 1 << 35


class Frozen:
    """Immutable base: ``__init__`` stores the fields with ``vars(self).update``;
    assigning or deleting an attribute raises ``AttributeError``.  ``State``,
    ``CpMap`` and ``Instrument`` validate in ``__post_init__``, the name that
    ``perfbench/tracer.py`` wraps to count validated constructions; values
    built by :meth:`_derived` are not counted."""

    __slots__ = ()

    @classmethod
    def _derived(cls, **fields):
        """An instance of values derived from validated ones, stored as given
        with their arrays made read-only; no check runs."""
        obj = object.__new__(cls)
        for value in fields.values():
            for arr in value if isinstance(value, tuple) else (value,):
                if isinstance(arr, np.ndarray):
                    arr.setflags(write=False)
        vars(obj).update(fields)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")


def _report_json(fields: dict) -> dict:
    """A report's JSON object: ``fields`` under their own names, the None ones and
    empty dicts left out; tuples and named tuples become lists and objects at any depth."""

    def plain(v):
        if hasattr(v, "_asdict"):
            v = v._asdict()
        if isinstance(v, dict):
            return {k: plain(x) for k, x in v.items()}
        return [plain(x) for x in v] if isinstance(v, (list, tuple)) else v

    return plain({k: v for k, v in fields.items() if v is not None and v != {}})


# how far an input may miss an exact identity: Hermiticity (max entry),
# positivity (min eigenvalue), unit trace and norm, instrument completeness,
# trace non-increase and simplex weights
CHECK_TOL = 1e-9
CLOSE_TOL = 1e-8  # trace distance within which two states count as the same

_dim_cap = 4096  # largest dense matrix dimension allowed


@contextmanager
def local_config(dim_cap: int | None = None):
    """Set the dimension cap within a ``with`` block (None keeps the current
    one); yields the cap in force, and the previous one is back on leaving.
    A cap below 1 raises ``ValueError``."""
    global _dim_cap
    if dim_cap is not None and dim_cap < 1:
        raise ValueError(f"the dimension cap must be >= 1, got {dim_cap}")
    previous = _dim_cap
    if dim_cap is not None:
        _dim_cap = dim_cap
    try:
        yield _dim_cap
    finally:
        _dim_cap = previous


def check_dim_cap(dim: int, context: str = "") -> None:
    if dim > _dim_cap:
        where = f" in {context}" if context else ""
        raise DimensionCapError(
            f"dimension {dim} exceeds the configured cap of {_dim_cap}{where}"
        )


def check_entries(entries: int, what: str, context: str) -> None:
    """Refuse ``what`` if it holds more entries than the largest matrix allowed."""
    if entries > _dim_cap**2:
        raise DimensionCapError(
            f"{what} hold {entries} entries, over dim_cap^2 = {_dim_cap**2} in {context}"
        )


def check_blocklength(l: int, context: str) -> None:
    if l < 1:
        raise ValueError(f"blocklength must be >= 1, got {l} in {context}")


def all_words(n: int, l: int, context: str) -> list[tuple[int, ...]]:
    """Every word of length ``l`` over the symbols ``range(n)``, in
    lexicographic order.  A length below 1 raises ``ValueError``; more than
    ``WORD_CAP`` words raise ``DimensionCapError``, naming ``context``,
    before any word is made."""
    check_blocklength(l, context)
    if n**l > WORD_CAP:
        raise DimensionCapError(f"{n**l} words exceed the enumeration cap of {WORD_CAP} in {context}")
    return list(itertools.product(range(n), repeat=l))


def check_frame_work(l: int, d: int, context: str) -> None:
    work = (2 * min(d, l) - 1) * log2(max(l, 0) + 1)
    if work > log2(FRAME_WORK_CAP):
        raise DimensionCapError(
            f"blocklength {l} at local dimension {d} needs about 2^{work:.1f} frame-table terms, "
            f"over the cap of 2^{log2(FRAME_WORK_CAP):g} in {context}"
        )


def check_matrix_form_blocklength(l: int) -> None:
    if l > MATRIX_FORM_MAX_BLOCKLENGTH:
        raise DimensionCapError(
            f"matrix-form projector limited to blocklength {MATRIX_FORM_MAX_BLOCKLENGTH}; "
            "use frame_probability for traces at larger blocklength"
        )
