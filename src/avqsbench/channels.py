"""Completely positive maps, instruments, one-way LOCC channels, merging
protocols and the merging fidelity.

Factor conventions used throughout:

* a map applied to a subset of tensor factors places its output factors
  first, followed by the untouched factors in their original order;
* a merging protocol acts on resource registers first, then the source
  copies: the measuring side sees (K0_A, A_1, ..., A_l), the receiving side
  (K0_B, B_1, ..., B_l), and the receiving side outputs
  (K1_B, B'_1, B_1, ..., B'_l, B_l) with B' a mirror of the A space.
"""

from __future__ import annotations

import itertools
from math import gcd, prod
from typing import NamedTuple, Sequence

import numpy as np

from .config import Frozen, check_dim_cap, get_config
from .linalg import (
    Party,
    PureState,
    State,
    check_purification,
    kron,
    permute_factors,
    purify,
)


def _as_operator(k) -> np.ndarray:
    arr = np.array(k, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"Kraus operator must be a matrix, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


class CpMap(Frozen):
    """Completely positive trace-nonincreasing map in Kraus form.

    ``in_dims`` / ``out_dims`` record the tensor-factor splitting of the
    input and output spaces; output factors take their party labels from the
    application site.
    """

    def __init__(self, kraus: tuple[np.ndarray, ...], in_dims: tuple[int, ...] = (), out_dims: tuple[int, ...] = ()):
        vars(self).update(kraus=kraus, in_dims=in_dims, out_dims=out_dims)
        self.__post_init__()

    def __post_init__(self):
        kraus = tuple(_as_operator(k) for k in self.kraus)
        if not kraus:
            raise ValueError("a CP map needs at least one Kraus operator")
        rows, cols = kraus[0].shape
        if any(k.shape != (rows, cols) for k in kraus):
            raise ValueError("all Kraus operators must share one shape")
        in_dims = tuple(int(d) for d in self.in_dims) or (cols,)
        out_dims = tuple(int(d) for d in self.out_dims) or (rows,)
        if prod(in_dims) != cols:
            raise ValueError(f"in_dims {in_dims} do not match Kraus columns {cols}")
        if prod(out_dims) != rows:
            raise ValueError(f"out_dims {out_dims} do not match Kraus rows {rows}")
        # sum K^dagger K = S^dagger S for the stacked S; S S^dagger has the
        # same nonzero spectrum and is the smaller one for wide operators
        stacked = np.concatenate(kraus)
        if stacked.shape[0] < cols:
            gram = stacked @ stacked.conj().T
        else:
            gram = stacked.conj().T @ stacked
        top = float(np.linalg.eigvalsh(gram).max(initial=0.0))
        if top > 1.0 + get_config().tp_tol:
            raise ValueError(f"map increases trace (largest Gram eigenvalue {top:.12f})")
        vars(self).update(kraus=kraus, in_dims=in_dims, out_dims=out_dims)

    @property
    def gram(self) -> np.ndarray:
        """Sum of K^dagger K over the Kraus operators."""
        return _stacked_gram(self.kraus)

    @property
    def dim_in(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def dim_out(self) -> int:
        return self.kraus[0].shape[0]

    @property
    def is_trace_preserving(self) -> bool:
        dev = np.max(np.abs(self.gram - np.eye(self.dim_in)))
        return float(dev) <= get_config().tp_tol


def _stacked_gram(kraus) -> np.ndarray:
    """sum_i K_i^dagger K_i as one product S^dagger S of the stacked S."""
    stacked = np.concatenate(kraus)
    return stacked.conj().T @ stacked


def identity_channel(dims: Sequence[int]) -> CpMap:
    d = prod(dims)
    return CpMap((np.eye(d, dtype=complex),), tuple(dims), tuple(dims))


class Instrument(Frozen):
    """Finite family of trace-nonincreasing CP maps summing to a channel.

    Outcomes are ordered; the outcome index is the classical message.
    """

    def __init__(self, outcomes: tuple[CpMap, ...]):
        vars(self).update(outcomes=outcomes)
        self.__post_init__()

    def __post_init__(self):
        outcomes = tuple(self.outcomes)
        if not outcomes:
            raise ValueError("an instrument needs at least one outcome")
        first = outcomes[0]
        for m in outcomes[1:]:
            if m.in_dims != first.in_dims or m.out_dims != first.out_dims:
                raise ValueError("all outcomes must share input and output factor dims")
        total = _stacked_gram([k for m in outcomes for k in m.kraus])
        dev = float(np.max(np.abs(total - np.eye(first.dim_in))))
        if dev > get_config().tp_tol:
            raise ValueError(f"outcome maps do not sum to a channel (deviation {dev:.3e})")
        vars(self).update(outcomes=outcomes)

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    @property
    def dim_in(self) -> int:
        return self.outcomes[0].dim_in

    @property
    def in_dims(self) -> tuple[int, ...]:
        return self.outcomes[0].in_dims

    @property
    def out_dims(self) -> tuple[int, ...]:
        return self.outcomes[0].out_dims

    def kraus_stack(self) -> np.ndarray:
        """(outcomes, operators, dim_out, dim_in) array of the Kraus
        operators, zero-padded where an outcome has fewer than the most."""
        first = self.outcomes[0]
        width = max(len(m.kraus) for m in self.outcomes)
        out = np.zeros((self.n_outcomes, width, first.dim_out, first.dim_in), dtype=complex)
        for j, m in enumerate(self.outcomes):
            out[j, : len(m.kraus)] = m.kraus
        return out


def identity_instrument(dims: Sequence[int]) -> Instrument:
    return Instrument((identity_channel(dims),))


# ---------------------------------------------------------------------------
# applying maps to tensor-factor subsets

def _sorted_targets(n: int, targets) -> list[int]:
    tgt = sorted(set(int(i) for i in targets))
    if not tgt:
        raise ValueError("target factor set must be nonempty")
    if tgt[0] < 0 or tgt[-1] >= n:
        raise ValueError(f"target factors {tgt} out of range for {n} factors")
    return tgt


def apply_cp_map(m: CpMap, s: State, targets) -> tuple[State, float]:
    """Apply a CP map to a subset of factors of a state.

    Returns the (possibly subnormalized) output state and its trace.  Output
    factors take the party of the first target factor.
    """
    tgt = _sorted_targets(s.n_factors, targets)
    if prod(s.dims[i] for i in tgt) != m.dim_in:
        raise ValueError(
            f"target factors have dimension {prod(s.dims[i] for i in tgt)}, "
            f"map expects {m.dim_in}"
        )
    rest = [i for i in range(s.n_factors) if i not in tgt]
    n = s.n_factors
    dims = list(s.dims)
    d_t = prod(s.dims[i] for i in tgt)
    d_r = prod((s.dims[i] for i in rest), start=1)
    perm = tgt + rest
    tensor = (
        s.matrix.reshape(dims + dims)
        .transpose(perm + [n + i for i in perm])
        .reshape(d_t, d_r, d_t, d_r)
    )
    out = np.zeros((m.dim_out, d_r, m.dim_out, d_r), dtype=complex)
    for k in m.kraus:
        out += np.einsum("ab,bicj,dc->aidj", k, tensor, k.conj())
    out_dims = m.out_dims + tuple(s.dims[i] for i in rest)
    out_parties = (s.parties[tgt[0]],) * len(m.out_dims) + tuple(s.parties[i] for i in rest)
    full = m.dim_out * d_r
    result = State(out.reshape(full, full), out_dims, out_parties)
    return result, result.trace()


class OutcomeStat(NamedTuple):
    """One retained instrument outcome: original index, weight, post-state."""

    index: int
    probability: float
    state: State


def instrument_statistics(e: Instrument, s: State, targets) -> list[OutcomeStat]:
    """Outcome probabilities and normalized post-measurement states.

    Outcomes with probability below the configured threshold are omitted;
    the surviving entries keep their original outcome indices.  The retained
    probabilities are checked to sum to one.
    """
    stats: list[OutcomeStat] = []
    total = 0.0
    for j, m in enumerate(e.outcomes):
        raw, weight = apply_cp_map(m, s, targets)
        total += weight
        if weight <= get_config().prob_tol:
            continue
        normalized = State(raw.matrix / weight, raw.dims, raw.parties)
        stats.append(OutcomeStat(j, weight, normalized))
    if abs(total - s.trace()) > get_config().tp_tol:
        raise ValueError(f"outcome weights sum to {total:.12f}, expected {s.trace():.12f}")
    return stats


class OneWayLoccChannel(Frozen):
    """Instrument on the sending side paired with one receiving channel per
    classical message: rho -> sum_k (T_k x R_k)(rho)."""

    def __init__(self, a_instrument: Instrument, b_channels: tuple[CpMap, ...]):
        b = tuple(b_channels)
        if len(b) != a_instrument.n_outcomes:
            raise ValueError(
                f"{a_instrument.n_outcomes} instrument outcomes but {len(b)} receiving channels"
            )
        first = b[0]
        for ch in dict.fromkeys(b):  # a channel shared between messages is checked once
            if not ch.is_trace_preserving:
                raise ValueError("every receiving channel must be trace preserving")
            if ch.in_dims != first.in_dims or ch.out_dims != first.out_dims:
                raise ValueError("receiving channels must share input/output factor dims")
        vars(self).update(a_instrument=a_instrument, b_channels=b)

    @property
    def message_count(self) -> int:
        return self.a_instrument.n_outcomes


def apply_one_way_locc(n: OneWayLoccChannel, s: State) -> State:
    """Apply the channel, routing factors by party label.

    Factors of party A feed the instrument, factors of party B the
    receiving channels; any remaining factors are untouched.  Output factor
    order: sending-side outputs, receiving-side outputs, untouched factors.
    """
    a_targets = s.factors_of("A")
    b_targets = s.factors_of("B")
    if not a_targets or not b_targets:
        raise ValueError("state lacks factors for parties 'A'/'B'")
    if prod(s.dims[i] for i in a_targets) != n.a_instrument.dim_in:
        raise ValueError("sending-side dimension mismatch")
    if prod(s.dims[i] for i in b_targets) != n.b_channels[0].dim_in:
        raise ValueError("receiving-side dimension mismatch")
    total: np.ndarray | None = None
    layout: tuple[tuple[int, ...], tuple[Party, ...]] | None = None
    remaining = [i for i in range(s.n_factors) if i not in a_targets]
    for t_k, r_k in zip(n.a_instrument.outcomes, n.b_channels):
        after_t, _ = apply_cp_map(t_k, s, a_targets)
        # b factors sit right after the freshly inserted sending-side outputs
        shift = len(t_k.out_dims)
        b_now = [shift + remaining.index(i) for i in b_targets]
        branch, _ = apply_cp_map(r_k, after_t, b_now)
        if total is None:
            total = np.array(branch.matrix, dtype=complex)
            layout = (branch.dims, branch.parties)
        else:
            total += branch.matrix
    # bring sending-side outputs in front of receiving-side outputs
    n_b = len(n.b_channels[0].out_dims)
    n_a = len(n.a_instrument.outcomes[0].out_dims)
    n_all = len(layout[0])
    order = list(range(n_b, n_b + n_a)) + list(range(n_b)) + list(range(n_b + n_a, n_all))
    return permute_factors(State(total, layout[0], layout[1]), order)


# ---------------------------------------------------------------------------
# merging protocols

class MergingProtocol(Frozen):
    """One-way LOCC channel together with the entangled resource registers
    it consumes (``phi_in``) and produces (``phi_out``).

    The instrument acts on (K0_A, A_1..A_l) and outputs K1_A; each receiving
    channel maps (K0_B, B_1..B_l) to (K1_B, B'_1, B_1, ..., B'_l, B_l) with
    the mirror factors B' of the same dimension as A.

    ``mirrors`` optionally holds, per message, one channel per copy that
    follows the receiving channel on its mirror factor B'_i; the receiving
    channels then output mirror factors of the maps' input dimension.  Maps
    shared between messages are checked once.  Without mirror maps the
    mirror factors are output as they are.
    """

    def __init__(
        self,
        locc: OneWayLoccChannel,
        phi_in: PureState,
        phi_out: PureState,
        blocklength: int,
        mirrors: tuple[tuple[CpMap, ...], ...] = (),
    ):
        if blocklength < 1:
            raise ValueError("blocklength must be >= 1")
        for name, phi in (("phi_in", phi_in), ("phi_out", phi_out)):
            if len(phi.dims) != 2 or phi.dims[0] != phi.dims[1]:
                raise ValueError(f"{name} must live on two factors of equal dimension")
            _require_flat_schmidt(phi, name)
        ins = locc.a_instrument
        recv = locc.b_channels[0]
        l = blocklength
        if len(ins.in_dims) != l + 1 or len(recv.in_dims) != l + 1:
            raise ValueError("instrument/receiver must expose (resource, copies...) factor dims")
        if ins.in_dims[0] != phi_in.dims[0] or recv.in_dims[0] != phi_in.dims[1]:
            raise ValueError("input resource dimensions do not match phi_in")
        if ins.out_dims != (phi_out.dims[0],):
            raise ValueError("instrument output must be the single output resource factor")
        d_a = ins.in_dims[1]
        d_b = recv.in_dims[1]
        if ins.in_dims[1:] != (d_a,) * l or recv.in_dims[1:] != (d_b,) * l:
            raise ValueError("copy factors must all share one dimension per side")
        mirrors = tuple(tuple(maps) for maps in mirrors)
        if mirrors and (
            len(mirrors) != locc.message_count or any(len(maps) != l for maps in mirrors)
        ):
            raise ValueError("mirror maps must give one channel per copy for every message")
        distinct = list(dict.fromkeys(x for maps in mirrors for x in maps))
        d_mirror = distinct[0].dim_in if distinct else d_a
        for x in distinct:
            if (x.dim_in, x.dim_out) != (d_mirror, d_a) or not x.is_trace_preserving:
                raise ValueError(f"mirror maps must be channels from dimension {d_mirror} to {d_a}")
        expected_out = (phi_out.dims[1],) + (d_mirror, d_b) * l
        if recv.out_dims != expected_out:
            raise ValueError(
                f"receiving channels must output {expected_out}, got {recv.out_dims}"
            )
        vars(self).update(locc=locc, phi_in=phi_in, phi_out=phi_out, blocklength=l, mirrors=mirrors)

    @property
    def copy_dims(self) -> tuple[int, int]:
        """Per-copy (sending, receiving) dimensions."""
        return (self.locc.a_instrument.in_dims[1], self.locc.b_channels[0].in_dims[1])

    @property
    def message_count(self) -> int:
        return self.locc.message_count

    @property
    def entanglement_rate(self) -> float:
        """log2 of the reduced resource ratio per source copy (negative = net gain)."""
        k_in, k_out = self.phi_in.dims[0], self.phi_out.dims[0]
        g = gcd(k_in, k_out)
        return (np.log2(k_in // g) - np.log2(k_out // g)) / self.blocklength

    @property
    def classical_rate(self) -> float:
        return float(np.log2(self.message_count)) / self.blocklength


def _require_flat_schmidt(phi: PureState, name: str) -> None:
    r = phi.dims[0]
    coeffs = np.linalg.svd(phi.vector.reshape(phi.dims), compute_uv=False)
    if np.max(np.abs(coeffs - 1.0 / np.sqrt(r))) > 1e-8:
        raise ValueError(f"{name} must be maximally entangled with full Schmidt rank")


def trivial_resource() -> PureState:
    """Rank-one resource register on A and B (no entanglement consumed or produced)."""
    return PureState(np.ones(1, dtype=complex), (1, 1), ("A", "B"))


def merging_fidelity(p: MergingProtocol, rho: State, purification: PureState | None = None) -> float:
    """Fidelity between the protocol output on a purified source and the
    relabeled purification next to the produced resource.

    A supplied purification is checked against ``rho``; without one, the
    canonical :func:`linalg.purify` is used.  The value does not depend on
    which purification is used.  The source layout is checked by
    :func:`purified_merging_fidelity`, so factors of ``rho`` labelled "E"
    count as environment.
    """
    if purification is None:
        return purified_merging_fidelity(p, purify(rho))
    check_purification(purification, rho)
    return purified_merging_fidelity(p, purification)


def purified_merging_fidelity(p: MergingProtocol, psi: PureState) -> float:
    """Merging fidelity on the source purified by ``psi``.

    ``psi`` must have the (A, B) copies, dims (d_A, d_B) * l and parties
    (A, B) * l, followed only by environment factors labelled "E"; any
    other layout is refused, so no source factor is scored as environment.
    The comparison target phi_out x psi' is pure, so the fidelity equals the
    overlap <t| output |t>; the output never has to be materialized as a
    matrix.  Sending-side branches of weight ||K_a psi||^2 <= prob_tol are
    skipped: every receiving channel is trace preserving, so a branch adds
    at most its weight.  Mirror maps are pulled onto the target,
    <t|(R x I)x> = <(R^dagger x I)t|x>, by applying R^dagger to the A
    factors of ``psi``, so every vector keeps the size of the receiving
    channels' output; a message without mirror maps has one choice, the
    identity.
    """
    l = p.blocklength
    d_a, d_b = p.copy_dims
    n_env = len(psi.dims) - 2 * l
    if psi.dims[: 2 * l] != (d_a, d_b) * l or psi.parties != ("A", "B") * l + ("E",) * n_env:
        raise ValueError(
            f"source state must have dims {(d_a, d_b) * l} with alternating A/B parties, "
            "followed only by environment factors labelled E"
        )
    prob_tol = get_config().prob_tol

    # input factors (K0_A, K0_B, A_1, B_1, ..., A_l, B_l, env), sending ones
    # moved in front once for all sending-side Kraus operators
    in_dims = p.phi_in.dims + psi.dims
    a_targets = [0] + [2 + 2 * i for i in range(l)]
    rest = [i for i in range(len(in_dims)) if i not in a_targets]
    arranged = (
        kron(p.phi_in.vector, psi.vector)
        .reshape(in_dims)
        .transpose(a_targets + rest)
        .reshape(p.locc.a_instrument.dim_in, -1)
    )
    d_recv = p.locc.b_channels[0].dim_in
    # output factor order: (K1_B, B'_1, B_1, ..., B'_l, B_l), K1_A, env
    order = [1] + list(range(2, 2 * l + 2)) + [0] + list(range(2 * l + 2, 2 * l + 2 + n_env))

    def pulled_targets(maps):
        """phi_out x (R_1^dagger x ... x R_l^dagger) psi in output factor
        order, one per choice of mirror Kraus operators."""
        targets = []
        for ops in itertools.product(*(x.kraus for x in maps)):
            v = psi.vector.reshape(psi.dims)
            for i, op in enumerate(ops):
                v = np.moveaxis(np.tensordot(op.conj().T, v, axes=(1, 2 * i)), 0, 2 * i)
            target = kron(p.phi_out.vector, v.reshape(-1))
            targets.append(target.reshape(p.phi_out.dims + v.shape).transpose(order).reshape(-1))
        return targets

    cache: dict[tuple[CpMap, ...], list[np.ndarray]] = {}
    total = 0.0
    for k, (t_k, r_k) in enumerate(zip(p.locc.a_instrument.outcomes, p.locc.b_channels)):
        maps = p.mirrors[k] if p.mirrors else ()
        for ka in t_k.kraus:
            # factors (K1_A, K0_B, B_1, ..., B_l, env): the receiving ones form
            # one block, swapped in front of K1_A
            mid = (ka @ arranged).reshape(ka.shape[0], d_recv, -1)
            if np.vdot(mid, mid).real <= prob_tol:
                continue
            block = mid.transpose(1, 0, 2).reshape(d_recv, -1)
            outs = [(kb @ block).reshape(-1) for kb in r_k.kraus]
            if maps not in cache:
                cache[maps] = pulled_targets(maps)
            for t in cache[maps]:
                for out in outs:
                    total += abs(np.vdot(t, out)) ** 2
    return float(min(max(total, 0.0), 1.0))


def permutation_channel(sigma: Sequence[int], cell_dim: int) -> CpMap:
    """Unitary channel permuting ``len(sigma)`` tensor cells of one dimension.

    On product vectors: U (v_1 x ... x v_l) = v_{sigma(1)} x ... x v_{sigma(l)}
    (``sigma`` is 0-based), so product states indexed by a word get their word
    permuted accordingly.
    """
    sigma = [int(i) for i in sigma]
    l = len(sigma)
    if sorted(sigma) != list(range(l)):
        raise ValueError(f"{sigma} is not a permutation of range({l})")
    dim = cell_dim**l
    check_dim_cap(dim, "permutation_channel")
    shape = (cell_dim,) * l
    digits = np.array(np.unravel_index(np.arange(dim), shape))
    rows = np.ravel_multi_index(tuple(digits[sigma, :]), shape)
    u = np.zeros((dim, dim), dtype=complex)
    u[rows, np.arange(dim)] = 1.0
    return CpMap((u,), (cell_dim,) * l, (cell_dim,) * l)


def compose_instrument_with_protocols(
    e: Instrument, subprotocols: Sequence[MergingProtocol], mirrors: Sequence[Sequence[CpMap]] = ()
) -> MergingProtocol:
    """Precede per-outcome merging protocols by a sorting instrument on the
    source copies of the sending side.

    The instrument's outcome i routes the input to subprotocol i; messages
    add up, so the composed protocol sends sum_i D_i distinct messages.  All
    subprotocols must share resources, blocklength and copy dimensions; each
    distinct one is compared once.  The instrument maps its l input factors,
    which become the composed protocol's sending copies, onto the
    subprotocols' sending copies.  ``mirrors[i]``, if given, holds the
    per-copy mirror maps that follow every message of subprotocol i.
    """
    subs = list(subprotocols)
    if len(subs) != e.n_outcomes:
        raise ValueError(f"need one subprotocol per outcome ({e.n_outcomes}), got {len(subs)}")
    if mirrors and len(mirrors) != e.n_outcomes:
        raise ValueError(f"need mirror maps for every outcome ({e.n_outcomes}), got {len(mirrors)}")
    first = subs[0]
    for sub in dict.fromkeys(subs):  # a subprotocol shared between outcomes is compared once
        if sub.mirrors:
            raise ValueError("subprotocols with mirror maps cannot be composed")
        if sub.blocklength != first.blocklength or sub.copy_dims != first.copy_dims:
            raise ValueError("subprotocols must share blocklength and copy dimensions")
        if not np.allclose(sub.phi_in.vector, first.phi_in.vector) or not np.allclose(
            sub.phi_out.vector, first.phi_out.vector
        ):
            raise ValueError("subprotocols must share resource states")
    l = first.blocklength
    d_a = first.copy_dims[0]
    if len(e.in_dims) != l or prod(e.out_dims) != d_a**l:
        raise ValueError(f"instrument must map {l} sending copies onto {d_a}^{l} dimensions")
    k0a = first.phi_in.dims[0]
    eye = np.eye(k0a, dtype=complex)
    outcomes, b_channels, routed = [], [], []
    for i, (p_i, sub) in enumerate(zip(e.outcomes, subs)):
        lifted = [kron(eye, kp) for kp in p_i.kraus]
        for t_k, r_k in zip(sub.locc.a_instrument.outcomes, sub.locc.b_channels):
            kraus = tuple(kt @ kp for kt in t_k.kraus for kp in lifted)
            outcomes.append(CpMap(kraus, (k0a,) + e.in_dims, t_k.out_dims))
            b_channels.append(r_k)
            if mirrors:
                routed.append(mirrors[i])
    locc = OneWayLoccChannel(Instrument(tuple(outcomes)), tuple(b_channels))
    return MergingProtocol(locc, first.phi_in, first.phi_out, l, tuple(routed))
