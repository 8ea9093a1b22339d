"""Source models over finite state sets: convex-hull geometry, Hausdorff
distance, compound merging costs, and the instrument-maximized distillation
rate for both compound and adversarially varying sources; hull costs and the
k=1 distillation inner infimum carry a Frank-Wolfe duality gap."""

from __future__ import annotations

import functools
import warnings
from math import prod
from typing import NamedTuple, Sequence

import numpy as np

from .channels import (
    CpMap,
    Instrument,
    MergingProtocol,
    purified_merging_fidelity,
)
from .config import Frozen, all_words, check_blocklength, check_dim_cap, get_config
from .entropy import (
    CONDITIONAL_ENTROPY_TERMS,
    MUTUAL_INFO_ENV_TERMS,
    entropy_sum,
    instrument_rates,
    post_measurement_blocks,
    source_first,
    spectrum_entropy,
)
from .linalg import PureState, State, kron, purify, tensor_product, trace_distance, trace_norm
from .optim import (
    maximize_concave_over_simplex,
    maximize_over_isometries,
    minimize_over_simplex,
    retract_qr,
)


class StateSet(Frozen):
    """Finite indexed family of states on one common factored space."""

    def __init__(self, members: tuple[State, ...], labels: tuple[str, ...] = ()):
        members = tuple(members)
        if not members:
            raise ValueError("a state set needs at least one member")
        labels = tuple(labels) or tuple(str(i) for i in range(len(members)))
        if len(labels) != len(members):
            raise ValueError("need exactly one label per member")
        first = members[0]
        for m in members[1:]:
            if m.dims != first.dims or m.parties != first.parties:
                raise ValueError("all members must share dims and party structure")
        close = get_config().close_tol
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                diff = members[i].matrix - members[j].matrix
                # the trace norm is at least the Frobenius norm: skip the SVD
                # of pairs that are already too far apart by the latter
                if np.linalg.norm(diff) <= close and trace_norm(diff) <= close:
                    warnings.warn(
                        f"members {labels[i]!r} and {labels[j]!r} coincide up to tolerance",
                        stacklevel=2,
                    )
        vars(self).update(members=members, labels=labels)

    @property
    def n(self) -> int:
        return len(self.members)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.members[0].dims

    @property
    def parties(self) -> tuple[str, ...]:
        return self.members[0].parties

    def word_state(self, word: Sequence[int]) -> State:
        """Tensor product of members along a word of member indices."""
        word = [int(s) for s in word]
        if not word or any(not 0 <= s < self.n for s in word):
            raise ValueError(f"word {word} is not a nonempty sequence of indices into {self.n} members")
        out = self.members[word[0]]
        for s in word[1:]:
            out = tensor_product(out, self.members[s])
        return out


class RateReport(Frozen):
    """A computed rate in bits plus how it was attained."""

    def __init__(
        self,
        quantity: str,
        value: float,
        attained_by: str | None = None,
        weights: tuple[float, ...] | None = None,
        metadata: dict | None = None,
    ):
        if weights is not None:
            w = np.asarray(weights, dtype=float)
            if abs(w.sum() - 1.0) > 1e-9 or w.min() < -1e-9:
                raise ValueError(f"weights {weights} are not on the simplex")
            weights = tuple(float(x) for x in w)
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


def _mixture_matrix(mats: Sequence[np.ndarray], p: Sequence[float]) -> np.ndarray:
    """sum_s p_s mats[s], with the weights checked to lie on the simplex."""
    w = np.asarray(p, dtype=float)
    if w.size != len(mats):
        raise ValueError(f"need {len(mats)} weights, got {w.size}")
    if abs(w.sum() - 1.0) > 1e-9 or w.min() < -1e-9:
        raise ValueError(f"weights are not on the simplex (sum {w.sum():.12f}, min {w.min():.3e})")
    w = np.clip(w, 0.0, None)
    return sum(float(q) * m for q, m in zip(w, mats))


def convex_mixture(xs: StateSet, p: Sequence[float]) -> State:
    """Mixture sum_s p_s rho_s of the set members."""
    return State(_mixture_matrix([m.matrix for m in xs.members], p), xs.dims, xs.parties)


def _distance_to_hull(sigma: State, xs: StateSet) -> float:
    """min_p || sigma - sum_s p_s rho_s ||_1 by projected subgradient descent.

    One ``eigh`` of the difference D(p) = sigma - mix(p) = V diag(w) V* gives
    both the value sum |w| and the subgradient d/dp_s ||D||_1 = -tr(sign(D) rho_s).
    """
    mats = np.stack([m.matrix for m in xs.members])

    def value_and_grad(p):
        w, v = np.linalg.eigh(sigma.matrix - np.tensordot(p, mats, axes=1))
        sign = (v * np.sign(w)) @ v.conj().T
        return float(np.abs(w).sum()), -np.einsum("ij,sji->s", sign, mats).real

    return minimize_over_simplex(value_and_grad, xs.n)[1]


def hausdorff_distance(xs: StateSet, ys: StateSet, mode: str = "pointset") -> float:
    """Distance between two state sets in trace norm.

    ``pointset`` is the symmetric Hausdorff distance between the member
    lists (exact max-min both ways).  ``hull`` is the directed quantity: the
    largest distance from a member of ``xs`` to the convex hull of ``ys``
    (zero exactly when every member of ``xs`` lies in that hull), computed
    by convex minimization over mixture weights.
    """
    if xs.dims != ys.dims:
        raise ValueError("state sets live on different spaces")
    if mode == "pointset":
        dist = np.array(
            [[trace_distance(a, b) for b in ys.members] for a in xs.members]
        )
        return float(max(dist.min(axis=1).max(), dist.min(axis=0).max()))
    if mode == "hull":
        return float(max(_distance_to_hull(a, ys) for a in xs.members))
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# compound merging costs

def _entropy_sum(blocks):
    """p -> (sum_b sign_b S~(X_b(p)), its gradient), one eigh per block.

    Each block is a sign and a stack of matrices M_s, one per simplex vertex,
    with X_b(p) = sum_s p_s M_s and S~(X) = -tr X log2 X, the entropy of a
    density matrix and its extension to unnormalized blocks.  d/dp_s S~(X_b(p))
    = -tr[M_s log2 X_b(p)] - tr(M_s)/ln 2; the second terms are left out, as
    the signed traces sum to the same number for every s (the marginals of
    states, or a block against its own marginal).  The log on eigenvalues above
    ``eig_clip`` only is exact for vertices inside the mixture's support: those
    of positive weight, and those dropped to 0, as the line search never
    empties a vertex whose support leaves the rest's (the derivative in its
    weight is +inf there).  Exception: if a block's marginal loses support at
    the same rate, the divergences cancel and the outside part's own
    conditional entropy, <= 0 if it is pure, is left out.
    """
    clip = get_config().eig_clip

    def value_and_grad(p):
        value, grad = 0.0, np.zeros(len(p))
        for sign, mats in blocks:
            w, v = np.linalg.eigh(np.tensordot(p, mats, axes=1))
            # kept pairs only: the gradient needs just their (few, if rank deficient) eigenvectors
            w, v = w[w > clip], v[:, w > clip]
            log_w = np.log2(w)
            value -= sign * float(w @ log_w)
            # <v_k|M_s|v_k> for every s and k, from one stacked product
            grad -= sign * (v.conj() * (mats @ v)).sum(axis=1).real @ log_w
        return value, grad

    return value_and_grad


def _compound_cost(xs: StateSet, hull: bool, quantity: str, terms) -> RateReport:
    """Largest signed entropy sum of ``terms``, each a (parties, sign) pair,
    over the members or, by a certified ascent, over the hull."""
    if not hull:
        values = [entropy_sum(m, terms) for m in xs.members]
        idx = int(np.argmax(values))
        return RateReport(
            quantity, float(values[idx]), attained_by=xs.labels[idx], metadata={"over": "members"}
        )
    blocks = [(sign, np.stack([m.marginal(*t).matrix for m in xs.members])) for t, sign in terms]
    p, _, meta = maximize_concave_over_simplex(_entropy_sum(blocks), xs.n)
    value = entropy_sum(convex_mixture(xs, p), terms)
    return RateReport(quantity, value, weights=tuple(p), metadata={"over": "hull", **meta})


def compound_merging_cost(xs: StateSet, hull: bool = False) -> RateReport:
    """Largest conditional entropy S(A|B) = S(AB) - S(B) over the set or hull.

    This is the achievable entanglement cost per copy; callers add their own
    slack.  Over the hull the maximum lies in [value, value + duality_gap].
    """
    return _compound_cost(xs, hull, "merging-cost", CONDITIONAL_ENTROPY_TERMS)


def compound_classical_cost(xs: StateSet, hull: bool = False) -> RateReport:
    """Largest I(A;E) = S(A) + S(AB) - S(B) over the set or hull — the
    classical communication rate attached to the merging cost."""
    return _compound_cost(xs, hull, "classical-cost", MUTUAL_INFO_ENV_TERMS)


# ---------------------------------------------------------------------------
# distillation rate functional

def _hull_rate(xs: StateSet, k: int):
    """Per-copy instrument rate on the convex hull, and its infimum there, on
    raw arrays.

    Returns ``(rate, inner_infimum)``.  ``rate(kraus, gradient=False)``: for a
    Kraus stack on the k-copy sending side, the rate of the k-th tensor power
    of every member, and with ``gradient`` its gradients, from one
    :func:`entropy.instrument_rates` call.  ``inner_infimum(kraus)``: the
    infimum of that rate over the hull, ``(value, weights, meta)``.  The member
    matrices with the sending side in front, their dims, the k=2 factor order
    and the n^k products of members, the vertex powers among them, are fixed
    here, once; no ``State`` is built per evaluation.  The products are the
    k-letter words of the source, so their number is held to the word cap.
    """
    arranged = [source_first(m) for m in xs.members]
    mats = [mat for mat, _ in arranged]
    d_b = arranged[0][1]
    d_a = mats[0].shape[0] // d_b
    n = len(mats)
    words = all_words(n, k, "the distillation inner infimum")

    def product(a, b):
        # (A1, B1, A2, B2) -> (A1, A2, B1, B2) on both sides of the matrix
        split = kron(a, b).reshape((d_a, d_b) * 4)
        return split.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(a.size, a.size)

    products = np.stack([functools.reduce(product, [mats[s] for s in w]) for w in words])
    diagonal = [i for i, w in enumerate(words) if len(set(w)) == 1]
    vertices = products[diagonal]

    def rate(kraus, gradient=False):
        out = instrument_rates(vertices, kraus, d_b**k, gradient)
        return (out[0] / k, out[1] / k) if gradient else out / k

    def inner_infimum(kraus):
        """Infimum of the per-copy rate of ``kraus`` over the convex hull.

        The post-measurement blocks X_{j,u} of the n^k products rho_u of
        members are formed once.  The k-copy rate of the mixture with product
        weights q (q = p at k=1, p x p at k=2) is sum_j [S~(X_j^B(q)) -
        S~(X_j(q))] with X_j(q) = sum_u q_u X_{j,u}, so its negation is a sum
        of conditional entropies, concave in q: :func:`_entropy_sum` on the
        blocks, ascended by :func:`optim.maximize_concave_over_simplex` in p,
        with the chain rule grad_p = (G + G^T) p at k=2.  The value is the rate
        at the weights found, or the smallest vertex rate, all scored in one
        batch from the same blocks, if that is lower.  At k=1 the objective is
        concave in p, so the infimum lies in [value - inner_duality_gap,
        value].  At k=2 it need not be: the ascent stops at a point where the
        Frank-Wolfe gap is small ("stationary"), ``inner_duality_gap`` is None,
        ``inner_certified`` is false and the value is only an upper estimate of
        the infimum.
        """
        _, post = post_measurement_blocks(products, kraus, d_b**k)
        size = post.shape[2] * post.shape[3]
        outcomes = range(post.shape[1])
        blocks = [(1.0, post[:, j].reshape(-1, size, size)) for j in outcomes] + [
            (-1.0, np.trace(post[:, j], axis1=1, axis2=3)) for j in outcomes
        ]
        negated = _entropy_sum(blocks)

        def objective(p):
            if k == 1:
                return negated(p)
            value, g = negated(np.outer(p, p).ravel())
            g = g.reshape(n, n)
            return value, (g + g.T) @ p

        p, top, meta = maximize_concave_over_simplex(objective, n)
        value = -top / k
        vertex = [sign * spectrum_entropy(np.linalg.eigvalsh(m[diagonal])) for sign, m in blocks]
        values = -sum(vertex) / k
        best = int(np.argmin(values))
        if values[best] < value:
            value, p = float(values[best]), np.eye(n)[best]
        certified = k == 1
        stop = meta["stop_reason"]
        return value, p, {
            "inner_iterations": meta["iterations"],
            "inner_duality_gap": meta["duality_gap"] if certified else None,
            "inner_stop_reason": stop if certified or stop != "gap" else "stationary",
            "inner_certified": certified,
        }

    return rate, inner_infimum


class DistillationResult(NamedTuple):
    report: RateReport
    instrument: Instrument


def distillation_rate_lower_bound(
    xs: StateSet,
    k: int = 1,
    n_outcomes: int = 2,
    restarts: int = 8,
    seed: int = 0,
    maxiter: int = 500,
) -> DistillationResult:
    """Instrument-search lower bound on the k-letter distillation rate of the
    convex hull, certified at k=1.

    Maximizes the per-copy instrument-weighted coherent information over
    block-row instruments on the sending side, with the infimum over the
    convex hull of the set evaluated inside.  Each restart runs
    :func:`optim.maximize_over_isometries` on the isometry V that stacks the
    outcome operators, from a seeded Haar-random V (not the identity, whose
    zero outcome is a stationary point), for at most ``maxiter`` steps, along
    the gradient of the smallest vertex rate.  Each point scores all
    vertices in one :func:`entropy.instrument_rates` call.

    The candidates are the single-outcome identity, the single-outcome
    trace-and-replace channel (Kraus operators |0><i| for every i, rate 0 on
    the whole hull) and each restart's isometry, in that order.  Each is
    scored by its inner infimum over the hull (``inner_infimum`` of
    :func:`_hull_rate`), the number reported, and the first best one wins;
    ``metadata.candidate`` names it (``identity``, ``trace-and-replace`` or
    ``restart-<i>``), ``metadata.n_outcomes`` is its outcome count and
    ``trivial_baseline`` is the identity's score.  So the value is never
    below the identity's, nor below 0, at any ``n_outcomes``.  Every
    candidate is feasible, so its rate on the hull is a lower bound on the
    k-letter rate.  At k=1 that rate lies in [value - inner_duality_gap,
    value] (``inner_certified``), so ``value - inner_duality_gap`` is a
    certified lower bound; at k=2 the inner infimum is not certified, and
    the value is only an upper estimate of the instrument's rate on the hull.
    """
    if k not in (1, 2):
        raise ValueError("only k in {1, 2} is supported")
    if n_outcomes < 1 or restarts < 1 or maxiter < 1:
        raise ValueError(
            f"n_outcomes, restarts and maxiter must be >= 1, got {n_outcomes}, {restarts} and {maxiter}"
        )
    d_x = prod(xs.members[0].marginal("A").dims)
    check_dim_cap((d_x * prod(xs.members[0].marginal("B").dims)) ** k, "distillation objective")

    dim = d_x**k
    shape = (dim * n_outcomes, dim)
    # the searched isometry has one row block per outcome
    check_dim_cap(shape[0], "the distillation instrument search")
    rate, inner_infimum = _hull_rate(xs, k)
    rng = np.random.default_rng(seed)

    def guide(v):
        values, grads = rate(v.reshape(n_outcomes, 1, dim, dim), gradient=True)
        active = int(np.argmin(values))
        return float(values[active]), grads[active].reshape(v.shape)

    # each candidate is a Kraus stack (outcomes, operators, dim, dim); the
    # one outcome of trace-and-replace holds |0><i| for every i
    identity = np.eye(dim, dtype=complex).reshape(1, 1, dim, dim)
    replace = kron(np.eye(dim), np.eye(dim, 1, dtype=complex)).reshape(1, dim, dim, dim)
    candidates, runs = {"identity": identity, "trace-and-replace": replace}, []
    for i in range(restarts):
        start = retract_qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        v, _, meta = maximize_over_isometries(guide, start, maxiter)
        runs.append(meta)
        candidates[f"restart-{i}"] = v.reshape(n_outcomes, 1, dim, dim)
    scores = {name: inner_infimum(kraus) for name, kraus in candidates.items()}
    winner = max(scores, key=lambda name: scores[name][0])
    value, weights, inner_meta = scores[winner]
    instrument = Instrument(tuple(CpMap(tuple(ops)) for ops in candidates[winner]))
    report = RateReport(
        quantity="distillation-rate-lower-bound",
        value=float(value),
        weights=tuple(np.asarray(weights, dtype=float)),
        metadata={
            "k": k,
            "n_outcomes": instrument.n_outcomes,
            "candidate": winner,
            "restarts": len(runs),
            "seed": seed,
            "outer_iterations": sum(m["iterations"] for m in runs),
            "outer_evaluations": sum(m["evaluations"] for m in runs),
            "outer_stop_reasons": [m["stop_reason"] for m in runs],
            "trivial_baseline": float(scores["identity"][0]),
            **inner_meta,
        },
    )
    return DistillationResult(report, instrument)


# ---------------------------------------------------------------------------
# worst-case protocol performance over words

def worst_case_protocol_fidelity(
    protocol: MergingProtocol,
    xs: StateSet,
    l: int,
    sample: int | None = None,
    seed: int = 0,
) -> tuple[float, tuple[int, ...]]:
    """Minimum protocol fidelity over words of member indices of length l.

    Words are scored by :func:`word_fidelities`.  Enumeration is exhaustive
    up to the word cap; beyond it a seeded sample of words must be requested
    explicitly.
    """
    check_blocklength(l, "worst-case")
    if sample is not None:
        if sample < 1:
            raise ValueError(f"sample must be >= 1 word, got {sample}")
        rng = np.random.default_rng(seed)
        words = [tuple(int(s) for s in rng.integers(0, xs.n, size=l)) for _ in range(sample)]
    else:
        words = all_words(xs.n, l, "worst-case; pass sample=<count> for a seeded sampled search")
    values = word_fidelities(protocol, xs, words)
    best = int(np.argmin(values))
    return float(values[best]), words[best]


def word_fidelities(
    protocol: MergingProtocol, xs: StateSet, words: Sequence[Sequence[int]]
) -> list[float]:
    """Merging fidelity of the protocol on the word state of each word of
    member indices.

    Word states are products, so each member is purified once, and a
    word's purification is the tensor product of its members' with the
    environment factors moved last; no word state is ever formed.
    :func:`channels.purified_merging_fidelity` refuses a word whose source
    factors are not the protocol's (A, B) copies.  Word states over the
    dimension cap raise ``DimensionCapError`` before any member or word is
    evaluated.
    """
    longest = max((len(w) for w in words), default=1)
    check_dim_cap(prod(xs.dims) ** longest, "word states")
    purifications = [purify(m) for m in xs.members]
    return [
        purified_merging_fidelity(protocol, _word_purification(purifications, w))
        for w in words
    ]


def _word_purification(purifications: Sequence[PureState], word: Sequence[int]) -> PureState:
    """Product of member purifications along a word, reordered so that the
    source factors come first in word order, then one environment factor per
    letter."""
    word = [int(s) for s in word]
    if not word or any(not 0 <= s < len(purifications) for s in word):
        raise ValueError(
            f"word {word} is not a nonempty sequence of indices into {len(purifications)} members"
        )
    letters = [purifications[s] for s in word]
    dims = tuple(d for psi in letters for d in psi.dims)
    parties = tuple(q for psi in letters for q in psi.parties)
    check_dim_cap(prod(dims), "word purification")
    vec = functools.reduce(kron, (psi.vector for psi in letters))
    width = len(letters[0].dims)  # source factors plus the environment
    order = [i * width + j for i in range(len(word)) for j in range(width - 1)]
    order += [i * width + width - 1 for i in range(len(word))]
    return PureState(
        vec.reshape(dims).transpose(order).reshape(-1),
        tuple(dims[i] for i in order),
        tuple(parties[i] for i in order),
    )
