"""Construction separating adversarial merging cost from the convex-hull
compound cost.

A base state with negative conditional entropy is rotated by block-shift
unitaries so the family's sending-side supports become pairwise orthogonal.
The orthogonality lets the sender identify the word perfectly with one
measurement, run a protocol tailored to the base state, and restore the
rotation afterwards; the mixture costs over the hull exceed the protocol's
rates by exactly the logarithm of the family size.
"""

from __future__ import annotations

from functools import reduce
from math import log2
from typing import NamedTuple

import numpy as np

from .channels import (
    CpMap,
    Instrument,
    MergingProtocol,
    OneWayLoccChannel,
    compose_instrument_with_protocols,
    trivial_resource,
)
from .config import DimensionCapError, Frozen, all_words, check_dim_cap, get_config
from .entropy import conditional_entropy, mutual_info_env
from .linalg import (
    PureState,
    State,
    basis_ket,
    eigensystem,
    maximally_entangled,
    partial_trace,
    schmidt_decomposition,
)
from .rates import StateSet, compound_classical_cost, compound_merging_cost, worst_case_protocol_fidelity


class OrthogonalFamily(Frozen):
    """Family of rotated copies of a base state with pairwise orthogonal
    sending-side supports.

    ``embed`` is the isometry from the base sending space onto the first
    support block of the enlarged space; member s is the embedded base moved
    into block s by the block shift U_s (:meth:`shift`).
    """

    def __init__(self, base: State, n: int, embed: np.ndarray, members: StateSet):
        vars(self).update(base=base, n=n, embed=embed, members=members)

    @property
    def support_rank(self) -> int:
        return self.embed.shape[0] // self.n

    @property
    def enlarged_dim(self) -> int:
        return self.embed.shape[0]

    def shift(self, s: int) -> np.ndarray:
        """U_s as an index permutation, U_s|i> = |shift(s)[i]>: the cyclic
        shift of the enlarged sending space by s support blocks."""
        return _block_shift(self.enlarged_dim, self.support_rank, s)


def _block_shift(m: int, rank: int, s: int) -> np.ndarray:
    return (np.arange(m) + s * rank) % m


def build_orthogonal_family(rho1: State, n: int) -> OrthogonalFamily:
    """Embed the base state's sending side into n orthogonal blocks.

    Requires strictly negative conditional entropy of the base state.  The
    enlarged sending space has dimension n * rank of the sending marginal;
    member s is the base state shifted into block s, built by permuting the
    indices of the embedded base.  A family whose members together hold
    more than dim_cap^2 entries is refused before anything is built.
    """
    if len(rho1.dims) != 2 or rho1.parties != ("A", "B"):
        raise ValueError("base state must have exactly two factors with parties (A, B)")
    if n < 1:
        raise ValueError("family size must be >= 1")
    s_cond = conditional_entropy(rho1).value
    if s_cond >= -1e-9:
        raise ValueError(
            f"base state needs strictly negative conditional entropy, got {s_cond:.6f}"
        )
    d_a, d_b = rho1.dims
    rho_a = partial_trace(rho1, [0])
    w, v = eigensystem(rho_a.matrix)
    rank = max(int(np.sum(w > get_config().rank_tol)), 1)
    m = n * rank
    entries, cap = n * (m * d_b) ** 2, get_config().dim_cap
    if entries > cap**2:  # also refuses members of dimension over the cap
        raise DimensionCapError(
            f"{n} members of dimension {m * d_b} hold {entries} entries, "
            f"over dim_cap^2 = {cap**2} in build_orthogonal_family"
        )

    embed = np.zeros((m, d_a), dtype=complex)
    embed[:rank, :] = v[:, :rank].conj().T
    lifted = np.kron(embed, np.eye(d_b))
    base_emb = lifted @ rho1.matrix @ lifted.conj().T
    members = tuple(
        State(_shifted(base_emb, _block_shift(m, rank, s), d_b), (m, d_b), ("A", "B"))
        for s in range(n)
    )
    return OrthogonalFamily(rho1, n, embed, StateSet(members, tuple(str(s + 1) for s in range(n))))


def _shifted(mat: np.ndarray, perm: np.ndarray, d_b: int) -> np.ndarray:
    """(U x I) mat (U x I)^dagger for U|i> = |perm[i]>, by index permutation."""
    idx = (perm[:, None] * d_b + np.arange(d_b)).reshape(-1)
    out = np.zeros_like(mat)
    out[np.ix_(idx, idx)] = mat
    return out


def discriminating_instrument(fam: OrthogonalFamily) -> Instrument:
    """Instrument identifying the member block and rotating it back.

    Outcome s has the single Kraus operator K_s = embed^dagger U_s^dagger,
    mapping the enlarged sending space to the base one; it vanishes off
    block s.  As K_s U_t = K_0 U_{t-s}, outcome s recovers the base from
    member s and has zero weight on every other member.
    """
    d_a, m, r = fam.base.dims[0], fam.enlarged_dim, fam.support_rank
    kraus = []
    for s in range(fam.n):
        k = np.zeros((d_a, m), dtype=complex)
        k[:, fam.shift(s)[:r]] = fam.embed[:r].conj().T  # embed vanishes below row r
        kraus.append(k)
    return Instrument(tuple(CpMap((k,), (m,), (d_a,)) for k in kraus))


def _orthonormal_complement(basis: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the orthocomplement of the column span."""
    d = basis.shape[0]
    proj = np.eye(d) - basis @ basis.conj().T
    w, v = np.linalg.eigh(proj)
    return v[:, w > 0.5]


def known_pure_state_merging(rho1: State, l: int) -> MergingProtocol:
    """Single-message merging of l copies of a known pure state with a flat
    Schmidt spectrum.

    The receiver prepares the state locally (there is no environment to
    stay correlated with), and both sides rotate their Schmidt bases into
    the resource registers, converting the source entanglement into a
    maximally entangled output of Schmidt rank r^l.  The fidelity is exactly
    one and no message needs to be sent beyond the single outcome.

    A mixed base state, or a pure one with a non-flat Schmidt spectrum, has
    no exact protocol of this shape (local operations cannot flatten Schmidt
    coefficients); supply a dedicated subprotocol for those.
    """
    if l < 1:
        raise ValueError(f"blocklength must be >= 1, got {l}")
    if len(rho1.dims) != 2 or rho1.parties != ("A", "B"):
        raise ValueError("base state must have exactly two factors with parties (A, B)")
    w, v = eigensystem(rho1.matrix)
    if abs(w[0] - 1.0) > get_config().close_tol:
        raise ValueError("base state must be pure; plug in a subprotocol for mixed sources")
    psi = PureState(v[:, 0], rho1.dims, rho1.parties)
    sd = schmidt_decomposition(psi, [0])
    r = sd.rank
    if np.max(np.abs(sd.coefficients[:r] - 1.0 / np.sqrt(r))) > 1e-9:
        raise ValueError(
            "exact merging of a known pure state needs a flat Schmidt spectrum "
            "(local operations cannot flatten it); supply a subprotocol instead"
        )
    d_a, d_b = rho1.dims
    check_dim_cap((r**l) * (d_a * d_b) ** l * (r**l), "known_pure_state_merging")
    a_basis = sd.left_vectors[:, :r]
    b_basis = sd.right_vectors[:, :r]

    s_a = reduce(np.kron, [a_basis.conj().T] * l)  # (r^l, d_a^l)
    s_b = reduce(np.kron, [b_basis.conj().T] * l)  # (r^l, d_b^l)
    first_out = basis_ket(r**l, 0).reshape(-1, 1)

    a_kraus = [s_a]
    for col in _orthonormal_complement(reduce(np.kron, [a_basis] * l)).T:
        a_kraus.append(first_out @ col.conj().reshape(1, -1))
    instrument = Instrument(
        (CpMap(tuple(a_kraus), (1,) + (d_a,) * l, (r**l,)),)
    )

    prepared = reduce(np.kron, [psi.vector.reshape(-1, 1)] * l)  # ((d_a d_b)^l, 1)
    b_kraus = [np.kron(s_b, prepared)]
    for col in _orthonormal_complement(reduce(np.kron, [b_basis] * l)).T:
        b_kraus.append(np.kron(first_out @ col.conj().reshape(1, -1), prepared))
    b_channel = CpMap(
        tuple(b_kraus),
        (1,) + (d_b,) * l,
        (r**l,) + (d_a, d_b) * l,
    )
    locc = OneWayLoccChannel(instrument, (b_channel,))
    return MergingProtocol(locc, trivial_resource(), maximally_entangled(r**l), l)


def family_merging_protocol(fam: OrthogonalFamily, sub: MergingProtocol) -> MergingProtocol:
    """Wrap a base-state protocol into one for the whole family, at the
    subprotocol's blocklength l.

    The sorting instrument has one outcome per word of member indices: the
    discriminating instrument copy by copy, which projects onto the word's
    support blocks and rotates back to the base space.  Each outcome routes
    to the subprotocol (:func:`channels.compose_instrument_with_protocols`),
    whose receiving channel is shared and not copied, followed on each
    mirror factor B'_i by the restore channel of letter i (base space ->
    enlarged space): K_s^dagger on the base's support, the complement sent
    to one fixed vector.  There is one restore channel per member, shared by
    all words, so no receiving operator of enlarged word size is ever
    formed.  The message count multiplies by (family size)^l; the fidelity
    on any word state equals the subprotocol's fidelity on the base copies.
    """
    l = sub.blocklength
    d_a, d_b = fam.base.dims
    if sub.copy_dims != (d_a, d_b):
        raise ValueError("subprotocol must act on the base state's spaces")
    words = all_words(fam.n, l, "the family protocol")
    m = fam.enlarged_dim
    # refuse before building when word states could not be evaluated anyway
    check_dim_cap((m * d_b) ** l, "the family protocol's word states")
    disc = discriminating_instrument(fam)

    first_enlarged = basis_ket(m, 0).reshape(-1, 1)
    complement = tuple(
        first_enlarged @ col.conj().reshape(1, -1)
        for col in _orthonormal_complement(fam.embed.conj().T).T
    )
    restore = [CpMap((o.kraus[0].conj().T,) + complement, (d_a,), (m,)) for o in disc.outcomes]

    sort = [reduce(np.kron, [disc.outcomes[s].kraus[0] for s in word]) for word in words]
    sorting = Instrument(tuple(CpMap((k,), (m,) * l, (d_a,) * l) for k in sort))
    mirrors = [tuple(restore[s] for s in word) for word in words]
    return compose_instrument_with_protocols(sorting, [sub] * len(words), mirrors)


class RateGapReport(NamedTuple):
    """Hull costs versus protocol rates for an orthogonal family."""

    n: int
    blocklength: int
    base_conditional_entropy: float
    base_env_mutual_info: float
    hull_merging_numeric: float
    hull_merging_closed: float
    hull_merging_weights: tuple[float, ...]
    hull_merging_duality_gap: float
    hull_classical_numeric: float
    hull_classical_closed: float
    hull_classical_weights: tuple[float, ...]
    hull_classical_duality_gap: float
    protocol_entanglement_rate: float
    protocol_classical_rate: float
    worst_case_fidelity: float
    worst_word: tuple[int, ...]
    merging_gap: float
    classical_gap: float
    expected_gap: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "blocklength": self.blocklength,
            "base": {
                "conditional_entropy": self.base_conditional_entropy,
                "env_mutual_info": self.base_env_mutual_info,
            },
            "hull_merging_cost": {
                "numeric": self.hull_merging_numeric,
                "closed_form": self.hull_merging_closed,
                "weights": list(self.hull_merging_weights),
                "duality_gap": self.hull_merging_duality_gap,
            },
            "hull_classical_cost": {
                "numeric": self.hull_classical_numeric,
                "closed_form": self.hull_classical_closed,
                "weights": list(self.hull_classical_weights),
                "duality_gap": self.hull_classical_duality_gap,
            },
            "protocol": {
                "entanglement_rate": self.protocol_entanglement_rate,
                "classical_rate": self.protocol_classical_rate,
                "worst_case_fidelity": self.worst_case_fidelity,
                "worst_word": list(self.worst_word),
            },
            "gaps": {
                "merging": self.merging_gap,
                "classical": self.classical_gap,
                "expected": self.expected_gap,
            },
            "passed": self.passed,
        }


def rate_gap_report(fam: OrthogonalFamily, l: int = 1) -> RateGapReport:
    """Compare hull costs against the family protocol's achieved rates.

    Hull costs are maximized over mixture weights, with duality gaps, next
    to their closed forms (base cost plus log2 n for merging, plus 2 log2 n
    for the classical side, both from the orthogonal-support entropy
    identity).  The protocol rates come from the wrapped base-state
    protocol at the given blocklength; both gaps are expected to be log2 n.
    """
    if l < 1:
        raise ValueError(f"blocklength must be >= 1, got {l}")
    members = fam.members
    base_cond = conditional_entropy(fam.base).value
    base_env = mutual_info_env(fam.base).value
    log_n = log2(fam.n)

    merge_hull = compound_merging_cost(members, hull=True)
    classical_hull = compound_classical_cost(members, hull=True)
    merge_closed = base_cond + log_n
    classical_closed = base_env + 2 * log_n

    sub = known_pure_state_merging(fam.base, l)
    protocol = family_merging_protocol(fam, sub)
    worst_f, worst_word = worst_case_protocol_fidelity(protocol, members, l)

    ent_rate = protocol.entanglement_rate
    cls_rate = protocol.classical_rate
    merging_gap = merge_hull.value - ent_rate
    classical_gap = classical_hull.value - cls_rate
    tol = 1e-6
    passed = (
        abs(merge_hull.value - merge_closed) <= tol
        and abs(classical_hull.value - classical_closed) <= tol
        and worst_f >= 1.0 - 1e-9
        and merging_gap >= log_n - tol
        and classical_gap >= log_n - tol
    )
    return RateGapReport(
        n=fam.n,
        blocklength=l,
        base_conditional_entropy=base_cond,
        base_env_mutual_info=base_env,
        hull_merging_numeric=merge_hull.value,
        hull_merging_closed=merge_closed,
        hull_merging_weights=merge_hull.weights,
        hull_merging_duality_gap=merge_hull.metadata["duality_gap"],
        hull_classical_numeric=classical_hull.value,
        hull_classical_closed=classical_closed,
        hull_classical_weights=classical_hull.weights,
        hull_classical_duality_gap=classical_hull.metadata["duality_gap"],
        protocol_entanglement_rate=ent_rate,
        protocol_classical_rate=cls_rate,
        worst_case_fidelity=worst_f,
        worst_word=worst_word,
        merging_gap=merging_gap,
        classical_gap=classical_gap,
        expected_gap=log_n,
        passed=passed,
    )
