"""Numerical tolerances and resource caps, overridable at runtime, and the
immutable base that the package's validated types share."""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from math import log2
from typing import NamedTuple


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
    ``perfbench/tracer.py`` wraps to count constructions."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")


class Config(NamedTuple):
    """Tolerance and cap settings shared by all modules.

    Entropies and rates are in bits (logarithms base 2) throughout.
    """

    herm_tol: float = 1e-9      # max-entry deviation from Hermiticity
    psd_tol: float = 1e-9       # allowed negativity of eigenvalues
    trace_tol: float = 1e-9     # allowed deviation of trace / norm from 1
    close_tol: float = 1e-8     # trace-norm threshold for "same state"
    rank_tol: float = 1e-10     # spectral cutoff for rank / Schmidt rank
    tp_tol: float = 1e-9        # deviation from trace preservation
    prob_tol: float = 1e-12     # outcome probabilities below this are dropped
    eig_clip: float = 1e-12     # eigenvalues at or below this are dropped before log
    dim_cap: int = 4096         # largest dense matrix dimension allowed


_active = Config()


def get_config() -> Config:
    return _active


def set_config(cfg: Config) -> None:
    global _active
    _active = cfg


def update_config(**overrides) -> Config:
    """Replace individual fields of the active config; returns the new one."""
    cfg = _active._replace(**overrides)
    set_config(cfg)
    return cfg


@contextmanager
def local_config(**overrides):
    """Temporarily override config fields within a ``with`` block."""
    previous = get_config()
    try:
        yield update_config(**overrides)
    finally:
        set_config(previous)


def check_dim_cap(dim: int, context: str = "") -> None:
    cap = get_config().dim_cap
    if dim > cap:
        where = f" in {context}" if context else ""
        raise DimensionCapError(
            f"dimension {dim} exceeds the configured cap of {cap}{where}"
        )


def all_words(n: int, l: int, context: str) -> list[tuple[int, ...]]:
    """Every word of length ``l`` over the symbols ``range(n)``, in
    lexicographic order.  More than ``WORD_CAP`` words raise
    ``DimensionCapError``, naming ``context``, before any word is made."""
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
