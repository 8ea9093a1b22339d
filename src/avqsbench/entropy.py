"""Entropic quantities in bits: von Neumann entropy, conditional entropy,
environment mutual information, coherent information, and the
instrument-weighted coherent-information rate used by the distillation
optimizer."""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, prod

import numpy as np

from .config import get_config
from .linalg import State, partial_trace, permute_factors

ENTROPY = "entropy"
CONDITIONAL_ENTROPY = "conditional-entropy"
MUTUAL_INFO_ENV = "mutual-info-env"
COHERENT_INFO = "coherent-info"
INSTRUMENT_RATE = "instrument-rate"


@dataclass(frozen=True)
class RateValue:
    """A rate in bits together with the kind of quantity it measures."""

    value: float
    kind: str

    def __post_init__(self):
        if not isfinite(self.value):
            raise ValueError(f"rate value must be finite, got {self.value}")


def spectrum_entropy(weights) -> float:
    """Shannon entropy (base 2) of a nonnegative weight vector.

    Entries below the configured clip threshold are dropped, which absorbs
    the small negative eigenvalues produced by finite-precision
    diagonalization.
    """
    w = np.asarray(weights, dtype=float)
    w = w[w > get_config().eig_clip]
    return float(-np.sum(w * np.log2(w)))


def von_neumann_entropy(s: State) -> RateValue:
    """S(rho) = -sum_i w_i log2 w_i over the clipped spectrum."""
    w = np.linalg.eigvalsh(s.matrix)
    return RateValue(spectrum_entropy(w), ENTROPY)


def _marginal_entropy(s: State, parties: tuple[str, ...]) -> float:
    keep = s.factors_of(*parties)
    if not keep:
        raise ValueError(f"state has no factors for parties {parties}")
    if len(keep) == s.n_factors:
        return von_neumann_entropy(s).value
    return von_neumann_entropy(partial_trace(s, keep)).value


def conditional_entropy(s: State, target: str = "A", condition: str = "B") -> RateValue:
    """S(target | condition) = S(rho_TC) - S(rho_C).

    Lies in [-log2 d_target, log2 d_target]; negative values witness
    entanglement across the cut.
    """
    joint = _marginal_entropy(s, (target, condition))
    cond = _marginal_entropy(s, (condition,))
    return RateValue(joint - cond, CONDITIONAL_ENTROPY)


def mutual_info_env(s: State, target: str = "A", condition: str = "B") -> RateValue:
    """Mutual information between the target system and the purifying
    environment: S(rho_T) + S(rho_TC) - S(rho_C).

    Computed from the bipartite marginals; for a purification psi of rho_TC
    on a third system E this equals I(T;E).  Always nonnegative.
    """
    s_t = _marginal_entropy(s, (target,))
    s_tc = _marginal_entropy(s, (target, condition))
    s_c = _marginal_entropy(s, (condition,))
    return RateValue(s_t + s_tc - s_c, MUTUAL_INFO_ENV)


def coherent_information(s: State, source: str = "A", target: str = "B") -> RateValue:
    """I_c(source > target) = S(rho_target) - S(rho_joint)."""
    s_t = _marginal_entropy(s, (target,))
    s_joint = _marginal_entropy(s, (source, target))
    return RateValue(s_t - s_joint, COHERENT_INFO)


def instrument_rates(rhos, kraus, d_target: int, gradient: bool = False):
    """Outcome-weighted coherent information I_c(A > B) of each state in a
    stack after an instrument acts on A, in bits.

    ``rhos`` is an (n, d, d) stack of states on A x B with the A factors in
    front and B of dimension ``d_target``; ``kraus`` is an (outcomes,
    operators, d_out, d_A) stack, zero-padded where outcomes have fewer
    operators.  The post-measurement blocks come from
    :func:`post_measurement_blocks`; the outcome weights are read off their
    traces and must sum to each state's trace within ``tp_tol``.  Outcomes of
    weight at most ``prob_tol`` are dropped.  S(AB) and S(B) of the normalized
    blocks come from two batched ``eigvalsh`` calls with the ``eig_clip`` rule
    of :func:`spectrum_entropy`.

    With ``gradient``, ``eigh`` instead gives also the gradients in the Kraus
    stack, shape (n,) + kraus.shape, in the inner product Re tr(A^dagger B).
    The rate is sum_j [S~(X_j^B) - S~(X_j)] with S~(X) = -tr X log2 X and X_j
    the unnormalized block, so the gradient is 2 tr_B[G_j (K_jk x I) rho] with
    G_j = log2 X_j - I x log2 X_j^B on the support; dropped outcomes get 0.
    """
    cfg = get_config()
    rhos = np.asarray(rhos)
    n = rhos.shape[0]
    scaled, post = post_measurement_blocks(rhos, kraus, d_target)
    size = kraus.shape[2] * d_target
    weights = np.trace(post.reshape(n, -1, size, size), axis1=2, axis2=3).real
    totals, expected = weights.sum(axis=1), np.trace(rhos, axis1=1, axis2=2).real
    bad = np.flatnonzero(np.abs(totals - expected) > cfg.tp_tol)
    if bad.size:
        i = bad[0]
        raise ValueError(f"outcome weights sum to {totals[i]:.12f}, expected {expected[i]:.12f}")
    kept = weights > cfg.prob_tol
    post = post / np.where(kept, weights, 1.0)[:, :, None, None, None, None]

    def entropies(mats):
        w, v = np.linalg.eigh(mats) if gradient else (np.linalg.eigvalsh(mats), None)
        on = w > cfg.eig_clip
        w = np.where(on, w, 1.0)
        if v is not None:  # log2 of the unnormalized block on its support
            log_weights = np.log2(np.where(kept, weights, 1.0))[:, :, None]
            logs = np.where(on & kept[:, :, None], np.log2(w) + log_weights, 0.0)
            v = (v * logs[..., None, :]) @ v.conj().swapaxes(-1, -2)
        return -np.sum(w * np.log2(w), axis=-1), v

    s_joint, log_joint = entropies(post.reshape(n, -1, size, size))
    s_marginal, log_marginal = entropies(np.trace(post, axis1=2, axis2=4))
    values = np.where(kept, weights * (s_marginal - s_joint), 0.0).sum(axis=1)
    if not gradient:
        return values
    eye = np.eye(kraus.shape[2])[:, None, :, None]
    g = log_joint.reshape(post.shape) - eye * log_marginal[:, :, None, :, None]
    return values, 2 * np.einsum("sjaidz,sjkdzci->sjkac", g, scaled)


def post_measurement_blocks(rhos, kraus, d_target: int):
    """Unnormalized post-measurement blocks of a stack of states, in two ``einsum`` steps.

    With ``rhos`` and ``kraus`` as in :func:`instrument_rates`, returns the
    half-applied (K_jk x I) rho_s, indexed (s, j, k, a, i, c, y), and the blocks
    X_{j,s} = sum_k (K_jk x I) rho_s (K_jk x I)^dagger, indexed (s, j, a, i, d, y)
    with (a, i) the row and (d, y) the column factors (source out, target).
    """
    n, dim = rhos.shape[:2]
    d_src = dim // d_target
    scaled = np.einsum(
        "jkab,sbicy->sjkaicy", kraus, rhos.reshape(n, d_src, d_target, d_src, d_target)
    )
    return scaled, np.einsum("sjkaicy,jkdc->sjaidy", scaled, kraus.conj())


def instrument_coherent_info(s: State, instrument, source: str = "A", target: str = "B") -> RateValue:
    """Outcome-probability-weighted coherent information after measuring the
    source side with an instrument.

    For outcome weights w_j and normalized post-measurement states t_j this
    is sum_j w_j I_c(source > target, t_j); the instrument's outputs stay on
    the source side, factors of other parties are traced out, and outcomes
    with weight below the configured probability threshold are dropped.  One
    call of :func:`instrument_rates` on the (source, target) marginal.
    """
    sources = s.factors_of(source)
    if not sources:
        raise ValueError(f"state has no factors for party {source!r}")
    if prod(s.dims[i] for i in sources) != instrument.dim_in:
        raise ValueError(
            f"instrument input dimension {instrument.dim_in} does not match "
            f"the {source!r} side of the state"
        )
    rho, d_target = source_first(s, source, target)
    value = instrument_rates(rho[None], instrument.kraus_stack(), d_target)[0]
    return RateValue(float(value), INSTRUMENT_RATE)


def source_first(s: State, source: str = "A", target: str = "B") -> tuple[np.ndarray, int]:
    """Matrix of the (source, target) marginal of ``s`` with the source
    factors in front, and the dimension of the target side."""
    sources, targets = s.factors_of(source), s.factors_of(target)
    if not targets:
        raise ValueError(f"state has no factors for parties {(target,)}")
    keep = sorted(sources + targets)
    reduced = s if len(keep) == s.n_factors else partial_trace(s, keep)
    order = [keep.index(i) for i in sources + targets]
    if order != list(range(len(order))):
        reduced = permute_factors(reduced, order)
    return reduced.matrix, prod(s.dims[i] for i in targets)
