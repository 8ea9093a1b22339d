"""Numerical tolerances and resource caps, overridable at runtime."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace


class DimensionCapError(Exception):
    """Raised when an operation would exceed a dimension or word cap."""


WORD_CAP = 4096  # largest number of source words enumerated one by one
# matrix-form isotypic projectors sum over all l! permutations; beyond this
# blocklength the trace-form evaluation is the only supported path
MATRIX_FORM_MAX_BLOCKLENGTH = 8


@dataclass(frozen=True)
class Config:
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
    cfg = replace(_active, **overrides)
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


def check_word_cap(n_words: int, context: str) -> None:
    if n_words > WORD_CAP:
        raise DimensionCapError(f"{n_words} words exceed the enumeration cap of {WORD_CAP} in {context}")


def check_matrix_form_blocklength(l: int) -> None:
    if l > MATRIX_FORM_MAX_BLOCKLENGTH:
        raise DimensionCapError(
            f"matrix-form projector limited to blocklength {MATRIX_FORM_MAX_BLOCKLENGTH}; "
            "use frame_probability for traces at larger blocklength"
        )
