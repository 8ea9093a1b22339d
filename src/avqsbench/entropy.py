"""Entropic quantities in bits: von Neumann entropy, conditional entropy,
environment mutual information, coherent information, and the
instrument-weighted coherent-information rate used by the distillation
optimizer."""

from __future__ import annotations

from math import isfinite, prod

import numpy as np

from .config import Frozen, get_config
from .linalg import State, permute_factors

ENTROPY = "entropy"
CONDITIONAL_ENTROPY = "conditional-entropy"
MUTUAL_INFO_ENV = "mutual-info-env"
COHERENT_INFO = "coherent-info"
INSTRUMENT_RATE = "instrument-rate"


class RateValue(Frozen):
    """A rate in bits together with the kind of quantity it measures."""

    def __init__(self, value: float, kind: str):
        if not isfinite(value):
            raise ValueError(f"rate value must be finite, got {value}")
        vars(self).update(value=value, kind=kind)


def spectrum_entropy(weights):
    """Shannon entropy (base 2) of nonnegative weights along the last axis:
    a float for one vector, an array for a stack of them.

    Entries at or below the configured clip threshold count as 0, which
    absorbs the small negative eigenvalues produced by finite-precision
    diagonalization.
    """
    w = np.asarray(weights, dtype=float)
    w = np.where(w > get_config().eig_clip, w, 1.0)  # a dropped entry adds 1 log 1 = 0
    return -np.sum(w * np.log2(w), axis=-1)


def von_neumann_entropy(s: State) -> RateValue:
    """S(rho) = -sum_i w_i log2 w_i over the clipped spectrum."""
    return RateValue(float(spectrum_entropy(np.linalg.eigvalsh(s.matrix))), ENTROPY)


# Each quantity on the fixed A/B split as a signed sum of marginal
# entropies, one (parties, sign) pair per term; the compound costs of
# :mod:`rates` maximize the same tables.
CONDITIONAL_ENTROPY_TERMS = ((("A", "B"), 1.0), (("B",), -1.0))
MUTUAL_INFO_ENV_TERMS = ((("A",), 1.0), (("A", "B"), 1.0), (("B",), -1.0))
COHERENT_INFO_TERMS = ((("B",), 1.0), (("A", "B"), -1.0))


def entropy_sum(s: State, terms) -> float:
    """sum_b sign_b S(rho_b) over the marginals rho_b of ``s`` named by the
    terms, added left to right."""
    value = 0.0
    for parties, sign in terms:
        value += sign * von_neumann_entropy(s.marginal(*parties)).value
    return value


def conditional_entropy(s: State) -> RateValue:
    """S(A|B) = S(rho_AB) - S(rho_B).

    Lies in [-log2 d_A, log2 d_A]; negative values witness entanglement
    across the cut.
    """
    return RateValue(entropy_sum(s, CONDITIONAL_ENTROPY_TERMS), CONDITIONAL_ENTROPY)


def mutual_info_env(s: State) -> RateValue:
    """Mutual information between A and the purifying environment:
    S(rho_A) + S(rho_AB) - S(rho_B).

    Computed from the bipartite marginals; for a purification psi of rho_AB
    on a third system E this equals I(A;E).  Always nonnegative.
    """
    return RateValue(entropy_sum(s, MUTUAL_INFO_ENV_TERMS), MUTUAL_INFO_ENV)


def coherent_information(s: State) -> RateValue:
    """I_c(A > B) = S(rho_B) - S(rho_AB)."""
    return RateValue(entropy_sum(s, COHERENT_INFO_TERMS), COHERENT_INFO)


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
    blocks come from two batched ``eigvalsh`` calls and :func:`spectrum_entropy`.

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
        if not gradient:
            return spectrum_entropy(np.linalg.eigvalsh(mats)), None
        # spectrum_entropy's clip rule inline: the logs below need its support mask
        w, v = np.linalg.eigh(mats)
        on = w > cfg.eig_clip
        w = np.where(on, w, 1.0)
        log_w = np.log2(w)
        # log2 of the unnormalized block on its support
        log_weights = np.log2(np.where(kept, weights, 1.0))[:, :, None]
        logs = np.where(on & kept[:, :, None], log_w + log_weights, 0.0)
        return -np.sum(w * log_w, axis=-1), (v * logs[..., None, :]) @ v.conj().swapaxes(-1, -2)

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


def instrument_coherent_info(s: State, instrument) -> RateValue:
    """Outcome-probability-weighted coherent information after measuring the
    A side with an instrument.

    For outcome weights w_j and normalized post-measurement states t_j this
    is sum_j w_j I_c(A > B, t_j); the instrument's outputs stay on the A
    side, factors of other parties are traced out, and outcomes with weight
    below the configured probability threshold are dropped.  One call of
    :func:`instrument_rates` on the (A, B) marginal.
    """
    sources = s.factors_of("A")
    if not sources:
        raise ValueError("state has no factors for party 'A'")
    if prod(s.dims[i] for i in sources) != instrument.dim_in:
        raise ValueError(
            f"instrument input dimension {instrument.dim_in} does not match "
            "the 'A' side of the state"
        )
    rho, d_target = source_first(s)
    value = instrument_rates(rho[None], instrument.kraus_stack(), d_target)[0]
    return RateValue(float(value), INSTRUMENT_RATE)


def source_first(s: State) -> tuple[np.ndarray, int]:
    """Matrix of the (A, B) marginal of ``s`` with the A factors in front,
    and the dimension of the B side."""
    sources, targets = s.factors_of("A"), s.factors_of("B")
    if not targets:
        raise ValueError("state has no factors for parties ('B',)")
    reduced = s.marginal("A", "B")
    keep = sorted(sources + targets)
    order = [keep.index(i) for i in sources + targets]
    if order != list(range(len(order))):
        reduced = permute_factors(reduced, order)
    return reduced.matrix, prod(s.dims[i] for i in targets)
