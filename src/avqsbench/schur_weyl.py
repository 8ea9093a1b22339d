"""Young frames, isotypic projectors on tensor-power spaces, and the
entropy-estimating instrument built from them.

The isotypic projector for a frame can be materialized as a matrix via the
central character sum, which costs l! permutations and stops at blocklength
8.  Traces against product states are the Keyl-Werner weights
dim(frame) * s_frame(spectrum), with the Schur polynomials of all frames of
one spectrum evaluated subtraction-free by the branching rule, one table
per level.  The work is the frames' interlacing-box volumes,
prod_i (f_i - f_(i+1) + 1) each, a polynomial in l of degree 2(d-1); the
memory is the number of frames and of the smaller partitions they reach.
"""

from __future__ import annotations

import itertools
import operator
from functools import cached_property, lru_cache
from math import ceil, factorial, inf, log, log2, prod
from typing import NamedTuple

import numpy as np

from .config import (
    Frozen,
    check_dim_cap,
    check_entries,
    check_frame_work,
    check_matrix_form_blocklength,
)
from .entropy import spectrum_entropy
from .linalg import State, _entries, _hermitian, resolved


class YoungFrame(Frozen):
    """Partition of the blocklength with nonincreasing positive parts; frames
    with equal parts are equal, with equal hashes."""

    def __init__(self, parts: tuple[int, ...]):
        parts = tuple(int(p) for p in parts)
        if not parts or any(p <= 0 for p in parts):
            raise ValueError(f"parts must be positive, got {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be nonincreasing, got {parts}")
        vars(self).update(parts=parts)

    def __eq__(self, other):
        return self.parts == other.parts if type(other) is YoungFrame else NotImplemented

    def __hash__(self):
        return hash(self.parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def rows(self) -> int:
        return len(self.parts)

    def normalized_rows(self) -> tuple[float, ...]:
        l = self.size
        return tuple(p / l for p in self.parts)

    @cached_property
    def log_dimension(self) -> float:
        """Natural log of ``frame_dimension``, computed once per frame."""
        return log(frame_dimension(self))


def _partitions(n: int, max_part: int | None = None, max_rows: int | None = None):
    """Partitions of n in reverse-lexicographic order."""
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(n, max_part)
    # the first part is the largest, so at least n / max_rows
    low = 1 if max_rows is None else -(-n // max_rows)
    for first in range(top, low - 1, -1):
        rows_left = None if max_rows is None else max_rows - 1
        for rest in _partitions(n - first, first, rows_left):
            yield (first,) + rest


def young_frames(l: int, d: int) -> list[YoungFrame]:
    """All frames of size ``l`` with at most ``d`` rows."""
    if l < 1 or d < 2:
        raise ValueError("need blocklength >= 1 and local dimension >= 2")
    return [YoungFrame(p) for p in _partitions(l, max_rows=d)]


def cycle_types(l: int) -> list[tuple[int, ...]]:
    """All cycle types (partitions) of the symmetric group on l letters."""
    return list(_partitions(l))


def frame_entropy(f: YoungFrame) -> float:
    """Shannon entropy (bits) of the normalized row lengths."""
    return float(-sum(q * log2(q) for q in f.normalized_rows() if q > 0))


@lru_cache(maxsize=4)
def _factorials(n: int) -> tuple[int, ...]:
    """0!, 1!, ..., n! as exact integers."""
    return (1, *itertools.accumulate(range(1, n + 1), operator.mul))


def frame_dimension(f: YoungFrame) -> int:
    """Dimension of the symmetric-group irrep: l! prod_(i<j) (b_i - b_j) /
    prod_i b_i! over the first-column hook lengths b_i = f_i + rows - i."""
    k = f.rows
    beta = [p + k - 1 - i for i, p in enumerate(f.parts)]
    spread = prod(beta[i] - beta[j] for i in range(k) for j in range(i + 1, k))
    table = _factorials(f.size)  # b_1 = f_1 + rows - 1 <= l
    return table[-1] * spread // prod(table[b] for b in beta)


@lru_cache(maxsize=None)
def symmetric_group_character(parts: tuple[int, ...], cycle_type: tuple[int, ...]) -> int:
    """Irreducible character value via the Murnaghan-Nakayama recursion.

    Border strips are removed through the first-column hook lengths (beta
    numbers): removing a strip of length t maps one beta number b to b - t,
    provided the result stays distinct; the sign counts the beta numbers
    passed on the way down.
    """
    if sum(parts) != sum(cycle_type):
        raise ValueError("frame size and cycle type total must agree")
    if not parts:
        return 1
    t = cycle_type[0]
    rest = cycle_type[1:]
    k = len(parts)
    beta = [parts[i] + (k - 1 - i) for i in range(k)]
    occupied = set(beta)
    total = 0
    for b in beta:
        nb = b - t
        if nb < 0 or nb in occupied:
            continue
        passed = sum(1 for c in beta if nb < c < b)
        new_beta = sorted((c for c in beta if c != b), reverse=True)
        new_beta.append(nb)
        new_beta.sort(reverse=True)
        new_parts = tuple(
            x for x in (new_beta[j] - (k - 1 - j) for j in range(k)) if x > 0
        )
        total += (-1) ** passed * symmetric_group_character(new_parts, rest)
    return total


def _permutation_cycle_type(sigma: tuple[int, ...]) -> tuple[int, ...]:
    seen = [False] * len(sigma)
    lengths = []
    for start in range(len(sigma)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = sigma[i]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def isotypic_projector(f: YoungFrame, d: int) -> np.ndarray:
    """Matrix of the projector onto the isotypic block of ``f`` in the
    l-fold tensor power of C^d.

    Built as the central character sum (dim/l!) sum_sigma chi(sigma) U_sigma,
    which costs l! permutations and is therefore capped at small l.
    """
    l = f.size
    check_matrix_form_blocklength(l)
    dim = d**l
    check_dim_cap(dim, "isotypic_projector")
    shape = (d,) * l
    digits = np.array(np.unravel_index(np.arange(dim), shape))
    cols = np.arange(dim)
    chi = {mu: symmetric_group_character(f.parts, mu) for mu in cycle_types(l)}
    proj = np.zeros((dim, dim), dtype=complex)
    for sigma in itertools.permutations(range(l)):
        c = chi[_permutation_cycle_type(sigma)]
        if c == 0:
            continue
        rows = np.ravel_multi_index(tuple(digits[list(sigma), :]), shape)
        proj[rows, cols] += c
    proj *= frame_dimension(f) / factorial(l)
    return proj


def _spectrum_of(rho) -> np.ndarray:
    if isinstance(rho, State) or np.ndim(rho) != 1:
        return np.linalg.eigvalsh(_hermitian(rho))
    return _entries(rho, "vector").real


def frame_probability(f: YoungFrame, rho) -> float:
    """Exact trace of (isotypic projector of ``f``) against rho^(x l); the
    one-frame case of ``frame_probabilities``."""
    return float(frame_probabilities([f], rho)[0])


def frame_probabilities(frames, rho) -> np.ndarray:
    """Exact traces of the isotypic projectors of ``frames`` against
    rho^(x l), from one branching table for the spectrum.

    Each is dim(f) * s_f(x) for the eigenvalues x of rho that
    :func:`linalg.resolved` keeps, so a frame with more rows than kept
    eigenvalues gets exactly 0.  Agrees with the matrix-form projector
    wherever both are available.  ``rho`` may be a State, a density matrix,
    or a spectrum.
    """
    spectrum = _spectrum_of(rho)
    x = np.sort(spectrum[resolved(spectrum)])[::-1]
    n = len(x)
    out = np.zeros(len(frames))
    fit = [i for i, f in enumerate(frames) if f.rows <= n]
    if fit:
        parts = np.array([frames[i].parts + (0,) * (n - frames[i].rows) for i in fit])
        ratios = _schur_ratios(parts[:, :-1] - parts[:, 1:], x)
        log_dim = np.array([frames[i].log_dimension for i in fit])
        out[fit] = np.exp(log_dim + (parts * [log(v) for v in x]).sum(axis=1)) * ratios
    return out


_CHUNK = 1 << 18  # index entries of the interlacing terms gathered at once


def _schur_ratios(delta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """s_f(x) / prod_i x_i^f_i for descending positive x, one frame f per row
    of ``delta``, its row differences f_i - f_(i+1) (i < len(x)).

    Branching rule, one table per level k: a partition's ratio in x_1..x_k
    depends only on its row differences d, and sums the level-(k-1) ratios
    of nu = mu - t over the interlacing box 0 <= t_i <= d_i, weighted by
    prod_i (x_k/x_i)^t_i <= 1, so no term is negative.  Level 2 is a
    geometric sum; lower levels cover every d with sum_i i*d_i <= big (what
    the frames reach; d_i = 0 for i > big), as a prefix tree; the top level
    only the frames.
    """
    n = len(x)
    if n == 1:
        return np.ones(len(delta))
    big = max(1, int((delta @ np.arange(1, n)).max()))
    check_entries(big + 1, "the partitions of a branching table", "frame_probabilities")
    table = np.cumsum((x[1] / x[0]) ** np.arange(big + 1))
    keys, starts = np.arange(big + 1)[:, None], []
    for k in range(3, n + 1):
        below = list(starts)  # the prefix tree of level k-1
        if k == n:
            keys = delta[:, : min(n - 1, big)]
        elif k - 1 <= big:
            # append d_(k-1) <= (big - sum_i i*d_i) / (k-1) to each key
            room = (big - keys @ np.arange(1, k - 1)) // (k - 1) + 1
            check_entries(int(room.sum()), "the partitions of a branching table", "frame_probabilities")
            starts.append(np.cumsum(room) - room)
            owner = np.repeat(np.arange(len(keys)), room)
            keys = np.column_stack([keys[owner], np.arange(len(owner)) - starts[-1][owner]])
        table = _contract(table, below, keys, x[:k], big)
    return table if n > 2 else table[delta[:, 0]]


def _contract(prev, starts, keys, x, big) -> np.ndarray:
    """Level len(x) of the branching rule at ``keys`` (row differences) from
    the level below, ``prev``, indexed through the prefix-tree ``starts``."""
    m = keys.shape[1]
    powers = (x[-1] / x[:m])[:, None] ** np.arange(big + 1)
    vol = np.prod(keys + 1, axis=1)
    cum = np.cumsum(vol)
    out = np.empty(len(keys))
    lo = 0
    while lo < len(keys):
        hi = max(lo + 1, int(np.searchsorted(cum, cum[lo] - vol[lo] + _CHUNK // (m + 1), "right")))
        box = vol[lo:hi]
        owner = np.repeat(np.arange(hi - lo), box)
        d = keys[lo:hi][owner]
        rest = np.arange(len(owner)) - (np.cumsum(box) - box)[owner]
        t = np.zeros((len(owner), m + 1), dtype=d.dtype)
        for i in range(m - 1, -1, -1):
            rest, t[:, i] = np.divmod(rest, d[:, i] + 1)
        nu = d - t[:, :-1] + t[:, 1:]
        idx = nu[:, 0]
        for j, start in enumerate(starts, 1):
            idx = start[idx] + nu[:, j]
        term = prev[idx]
        for i in range(m):
            term = term * powers[i, t[:, i]]
        out[lo:hi] = np.bincount(owner, term, minlength=hi - lo)
        lo = hi
    return out


# ---------------------------------------------------------------------------
# entropy binning

class EntropyBinning(NamedTuple):
    """Partition of [0, log2 d] into ``n_bins`` bins of width ``width`` (the
    last bin absorbs the remainder).  Bin 1 is closed, later bins are
    left-open: I_1 = [s_0, s_1], I_i = (s_{i-1}, s_i], with s_i = i * width
    below the top."""

    blocklength: int
    local_dim: int
    width: float
    n_bins: int

    def _edge(self, i: int) -> float:
        if i == self.n_bins:
            return log2(self.local_dim)
        return i * self.width if i else 0.0

    @property
    def boundaries(self) -> tuple[float, ...]:
        return tuple(self._edge(i) for i in range(self.n_bins + 1))

    def interval(self, index: int) -> tuple[float, float]:
        """Bin boundaries for a 1-based bin index."""
        if not 1 <= index <= self.n_bins:
            raise ValueError(f"bin index {index} out of range 1..{self.n_bins}")
        return (self._edge(index - 1), self._edge(index))

    def bin_of(self, entropy: float) -> int:
        """1-based index of the bin containing an entropy value: the first i
        with entropy <= s_i, up to a small slack so exact boundary values land
        in the lower bin, as the right-closed interval convention demands."""
        h = min(max(float(entropy), 0.0), log2(self.local_dim))
        i = min(max(ceil((h - 1e-12) / self.width), 1), self.n_bins)
        while i > 1 and h <= self._edge(i - 1) + 1e-12:
            i -= 1
        while h > self._edge(i) + 1e-12:
            i += 1
        return i


# narrowest bin width, in bits: bin_of's 1e-12 boundary slack must stay a
# small part of one bin, as it walks through the slack one bin per step
MIN_BIN_WIDTH = 1e-9


def make_binning(l: int, d: int, eta: float) -> EntropyBinning:
    if not eta > 0:  # also refuses NaN
        raise ValueError(f"bin width must be positive, got {eta}")
    if not MIN_BIN_WIDTH <= eta < inf:
        raise ValueError(f"bin width must be finite and at least {MIN_BIN_WIDTH} bits, got {eta}")
    top = log2(d)
    return EntropyBinning(l, d, eta, 1 if eta >= top else int(ceil(top / eta - 1e-12)))


class EntropyBin(NamedTuple):
    """Frames whose row entropy falls in one bin; ``index`` is the original
    1-based bin index (empty bins are skipped but indices are preserved)."""

    index: int
    frames: tuple[YoungFrame, ...]


class EntropyInstrument(Frozen):
    """Projective instrument sorting tensor-power states by estimated
    entropy, one outcome per nonempty bin."""

    def __init__(self, binning: EntropyBinning, bins: tuple[EntropyBin, ...]):
        vars(self).update(binning=binning, bins=bins)

    @property
    def local_dim(self) -> int:
        return self.binning.local_dim

    @property
    def blocklength(self) -> int:
        return self.binning.blocklength

    def probabilities(self, rho) -> list[tuple[int, float, float, float]]:
        """(bin index, interval lo, interval hi, probability) per nonempty bin
        for one copy ``rho`` (a State, a density matrix or a spectrum)."""
        p = frame_probabilities([f for b in self.bins for f in b.frames], _copy_spectrum(self, rho))
        ends = np.cumsum([len(b.frames) for b in self.bins])
        return [
            (b.index, *self.binning.interval(b.index), float(p[end - len(b.frames) : end].sum()))
            for b, end in zip(self.bins, ends)
        ]


def _copy_spectrum(inst: EntropyInstrument, rho) -> np.ndarray:
    """The spectrum of one copy ``rho``; ``ValueError`` unless its dimension
    is the instrument's local dimension."""
    spectrum = _spectrum_of(rho)
    if spectrum.size != inst.local_dim:
        raise ValueError(
            f"a copy of dimension {spectrum.size} does not fit an instrument of dimension {inst.local_dim}"
        )
    return spectrum


def build_entropy_instrument(l: int, d: int, eta: float) -> EntropyInstrument:
    binning = make_binning(l, d, eta)
    check_frame_work(l, d, "build_entropy_instrument")
    grouped: dict[int, list[YoungFrame]] = {}
    for f in young_frames(l, d):
        grouped.setdefault(binning.bin_of(frame_entropy(f)), []).append(f)
    bins = tuple(
        EntropyBin(i, tuple(grouped[i])) for i in sorted(grouped)
    )
    return EntropyInstrument(binning, bins)


def sending_marginal(rho: State) -> State:
    """The part of a source copy that the entropy instrument measures: the
    A marginal when rho has an A party, rho itself otherwise."""
    return rho.marginal("A") if "A" in rho.parties else rho


def misbin_probability(inst: EntropyInstrument, rho: State, true_bin: int | None = None) -> float:
    """Probability that the entropy estimate lands outside the immediate
    neighborhood of the true bin.

    ``rho`` is a single source copy; the instrument acts on the sending-side
    marginal of its tensor power, so the value is the summed bin probability
    over bins j with |j - i| > 1, where i is the bin of the marginal's
    entropy (derived when not supplied).
    """
    check_frame_work(inst.blocklength, inst.local_dim, "misbin_probability")
    spectrum = _copy_spectrum(inst, sending_marginal(rho))
    if true_bin is None:
        true_bin = inst.binning.bin_of(spectrum_entropy(spectrum))
    far = [f for b in inst.bins if abs(b.index - true_bin) > 1 for f in b.frames]
    total = float(frame_probabilities(far, spectrum).sum())
    return min(max(total, 0.0), 1.0)
