"""Entropic quantities in bits: von Neumann entropy, conditional entropy,
environment mutual information, coherent information, and the
instrument-weighted coherent-information rate used by the distillation
optimizer.  Each is returned as a :class:`RateReport` named by its
quantity, the one report type of every rate in the package."""

from __future__ import annotations

from math import prod

import numpy as np

from .config import CHECK_TOL, Frozen
from .linalg import State, permute_factors, resolved


def _check_simplex(weights) -> np.ndarray:
    """``weights`` as a float array, refused unless they sum to 1 and none is
    negative, each within ``CHECK_TOL``; written so that NaN fails."""
    w = np.asarray(weights, dtype=float)
    if not (abs(w.sum() - 1.0) <= CHECK_TOL and w.min() >= -CHECK_TOL):
        raise ValueError(f"weights are not on the simplex (sum {w.sum():.12f}, min {w.min():.3e})")
    return w


class RateReport(Frozen):
    """A computed rate in bits, named by its quantity, plus how it was attained."""

    def __init__(
        self,
        quantity: str,
        value: float,
        attained_by: str | None = None,
        weights: tuple[float, ...] | None = None,
        metadata: dict | None = None,
    ):
        if weights is not None:
            weights = tuple(float(x) for x in _check_simplex(weights))
        vars(self).update(quantity=quantity, value=value, attained_by=attained_by, weights=weights)
        vars(self).update(metadata={} if metadata is None else metadata)

    def to_dict(self) -> dict:
        out = {"quantity": self.quantity, "value": self.value}
        if self.attained_by is not None:
            out["attained_by"] = self.attained_by
        if self.weights is not None:
            out["weights"] = list(self.weights)
        if self.metadata:
            out["metadata"] = self.metadata
        return out


def spectrum_entropy(weights):
    """-sum_i w_i log2 w_i along the last axis, the Shannon entropy (base 2)
    of unit-sum weights: a float for one vector, an array for a stack.

    Entries that :func:`linalg.resolved` drops count as 0, negative rounding
    noise included.  The cutoff scales with each vector, so an unnormalized
    spectrum keeps the support of its normalization.
    """
    w = np.asarray(weights, dtype=float)
    w = np.where(resolved(w), w, 1.0)  # a dropped entry adds 1 log 1 = 0
    return -np.sum(w * np.log2(w), axis=-1)


def _block_entropies(mats, log: bool = False):
    """S~(X) = -tr X log2 X of each Hermitian matrix of a stack, over the
    eigenvalues that :func:`linalg.resolved` keeps, from one batched
    ``eigvalsh``.  With ``log``, from one ``eigh``, with the eigenvectors and
    the log2 eigenvalues, 0 off the support: ``(entropies, vectors, logs)``."""
    if not log:
        return spectrum_entropy(np.linalg.eigvalsh(mats))
    w, v = np.linalg.eigh(mats)
    w = np.where(resolved(w), w, 1.0)  # a dropped entry adds 1 log 1 = 0
    logs = np.log2(w)
    return -np.sum(w * logs, axis=-1), v, logs


def von_neumann_entropy(s: State) -> RateReport:
    """S(rho) = -sum_i w_i log2 w_i over the resolved spectrum."""
    return RateReport("entropy", float(_block_entropies(s.matrix)))


# Each quantity on the fixed A/B split as a signed sum of marginal
# entropies, one (parties, sign) pair per term; the compound costs of
# :mod:`rates` maximize the same tables.
CONDITIONAL_ENTROPY_TERMS = ((("A", "B"), 1.0), (("B",), -1.0))
MUTUAL_INFO_ENV_TERMS = ((("A",), 1.0), (("A", "B"), 1.0), (("B",), -1.0))
COHERENT_INFO_TERMS = ((("B",), 1.0), (("A", "B"), -1.0))


def entropy_sum(s: State, terms) -> float:
    """sum_b sign_b S(rho_b) over the marginals rho_b of ``s`` named by the
    terms, added left to right."""
    return float(sum(sign * _block_entropies(s.marginal(*t).matrix) for t, sign in terms))


def conditional_entropy(s: State) -> RateReport:
    """S(A|B) = S(rho_AB) - S(rho_B).

    Lies in [-log2 d_A, log2 d_A]; negative values witness entanglement
    across the cut.
    """
    return RateReport("conditional-entropy", entropy_sum(s, CONDITIONAL_ENTROPY_TERMS))


def mutual_info_env(s: State) -> RateReport:
    """Mutual information between A and the purifying environment:
    S(rho_A) + S(rho_AB) - S(rho_B).

    Computed from the bipartite marginals; for a purification psi of rho_AB
    on a third system E this equals I(A;E).  Always nonnegative.
    """
    return RateReport("mutual-info-env", entropy_sum(s, MUTUAL_INFO_ENV_TERMS))


def coherent_information(s: State) -> RateReport:
    """I_c(A > B) = S(rho_B) - S(rho_AB)."""
    return RateReport("coherent-info", entropy_sum(s, COHERENT_INFO_TERMS))


def instrument_rates(rhos, kraus, d_target: int, gradient: bool = False):
    """Outcome-weighted coherent information I_c(A > B) of each state in a
    stack after an instrument acts on A, in bits.

    ``rhos`` is an (n, d, d) stack of states on A x B with the A factors in
    front and B of dimension ``d_target``; ``kraus`` is an (outcomes,
    operators, d_out, d_A) stack, zero-padded where outcomes have fewer
    operators, and complete: every caller passes the stack of a checked
    ``Instrument`` or an isometry, so completeness is not checked again.
    The post-measurement blocks X_j come from
    :func:`post_measurement_blocks`; the outcome weights are their traces.
    The rate is sum_j [S~(X_j^B) - S~(X_j)] with S~(X) = -tr X log2 X of
    the unnormalized blocks: it equals sum_j w_j [S(B) - S(AB)] of the
    normalized ones, as the -w_j log2 w_j terms cancel.  Both stacks of
    blocks go through one :func:`_block_entropies` call each.

    With ``gradient``, also the gradients in the Kraus stack, shape (n,) +
    kraus.shape, in the inner product Re tr(A^dagger B): 2 tr_B[G_j (K_jk x
    I) rho] with G_j = log2 X_j - I x log2 X_j^B on the resolved support.
    """
    rhos = np.asarray(rhos)
    n = rhos.shape[0]
    scaled, post = post_measurement_blocks(rhos, kraus, d_target)
    size = kraus.shape[2] * d_target
    joint = _block_entropies(post.reshape(n, -1, size, size), log=gradient)
    marginal = _block_entropies(np.trace(post, axis1=2, axis2=4), log=gradient)
    if not gradient:
        return (marginal - joint).sum(axis=1)
    values = (marginal[0] - joint[0]).sum(axis=1)
    log_joint, log_marginal = (
        (v * logs[..., None, :]) @ v.conj().swapaxes(-1, -2) for _, v, logs in (joint, marginal)
    )
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


def instrument_coherent_info(s: State, instrument) -> RateReport:
    """Outcome-probability-weighted coherent information after measuring the
    A side with an instrument.

    For outcome weights w_j and normalized post-measurement states t_j this
    is sum_j w_j I_c(A > B, t_j); the instrument's outputs stay on the A
    side and factors of other parties are traced out.  One call of
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
    return RateReport("instrument-rate", float(value))


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
