"""Young frames, isotypic projectors on tensor-power spaces, and the
entropy-estimating instrument built from them.

The isotypic projector for a frame can be materialized as a matrix via the
central character sum, which costs l! permutations and stops at blocklength
8.  Traces against product states are the Keyl-Werner weights
dim(frame) * s_frame(spectrum), with the Schur polynomial evaluated
subtraction-free by the branching rule.  For a fixed local dimension d
that costs a polynomial in l, at most about l^(2(d-1)) terms per spectrum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import ceil, exp, factorial, log, log2, prod

import numpy as np

from .config import check_dim_cap, check_matrix_form_blocklength
from .entropy import spectrum_entropy
from .linalg import State


@dataclass(frozen=True)
class YoungFrame:
    """Partition of the blocklength with nonincreasing positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        if not parts or any(p <= 0 for p in parts):
            raise ValueError(f"parts must be positive, got {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be nonincreasing, got {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def rows(self) -> int:
        return len(self.parts)

    def normalized_rows(self) -> tuple[float, ...]:
        l = self.size
        return tuple(p / l for p in self.parts)


def _partitions(n: int, max_part: int | None = None, max_rows: int | None = None):
    """Partitions of n in reverse-lexicographic order."""
    if n == 0:
        yield ()
        return
    if max_rows is not None and max_rows <= 0:
        return
    top = n if max_part is None else min(n, max_part)
    for first in range(top, 0, -1):
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


def _hook_lengths(parts: tuple[int, ...]) -> list[list[int]]:
    conj = [sum(1 for p in parts if p > j) for j in range(parts[0])]
    return [
        [parts[i] - j + conj[j] - i - 1 for j in range(parts[i])]
        for i in range(len(parts))
    ]


def frame_dimension(f: YoungFrame) -> int:
    """Dimension of the symmetric-group irrep (hook length formula)."""
    hooks = _hook_lengths(f.parts)
    return factorial(f.size) // prod(h for row in hooks for h in row)


def weyl_dimension(f: YoungFrame, d: int) -> int:
    """Dimension of the GL(d) irrep with highest weight ``f``."""
    if f.rows > d:
        return 0
    hooks = _hook_lengths(f.parts)
    num = 1
    den = 1
    for i, row in enumerate(hooks):
        for j, h in enumerate(row):
            num *= d + j - i
            den *= h
    return num // den


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
    if isinstance(rho, State):
        return np.linalg.eigvalsh(rho.matrix)
    arr = np.asarray(rho)
    if arr.ndim == 1:
        return arr.astype(float)
    return np.linalg.eigvalsh(np.asarray(arr, dtype=complex))


def frame_probability(f: YoungFrame, rho) -> float:
    """Exact trace of (isotypic projector of ``f``) against rho^(x l).

    This is dim(f) * s_f(x) for the spectrum x of rho clipped at 0, so a
    frame with more rows than positive eigenvalues gets 0.  Agrees with the
    matrix-form projector wherever both are available.  ``rho`` may be a
    State, a density matrix, or a spectrum.
    """
    x = tuple(sorted((float(v) for v in _spectrum_of(rho) if v > 0), reverse=True))
    if f.rows > len(x):
        return 0.0
    log_leading = log(frame_dimension(f)) + sum(p * log(v) for p, v in zip(f.parts, x))
    return exp(log_leading) * _schur_ratio(f.parts, x)


@lru_cache(maxsize=1 << 16)
def _schur_ratio(parts: tuple[int, ...], x: tuple[float, ...]) -> float:
    """s_parts(x) / prod_i x_i^parts_i for descending positive x, memoized
    across the frames and bins of one spectrum.

    Branching rule: s_parts(x_1..x_n) sums s_mu(x_1..x_{n-1}) x_n^(|parts|-|mu|)
    over mu interlacing parts (parts_{i+1} <= mu_i <= parts_i).  Divided, a
    term is the ratio for mu times prod_i (x_n/x_i)^(parts_i - mu_i) <= 1, so
    no term is negative and the value stays in [1, weyl_dimension].
    """
    if len(x) == 1 or not parts:
        return 1.0
    tail = parts + (0,)
    ranges = (range(tail[i + 1], parts[i] + 1) for i in range(min(len(parts), len(x) - 1)))
    ratios = [x[-1] / v for v in x]
    total = 0.0
    for mu in itertools.product(*ranges):
        term = _schur_ratio(tuple(m for m in mu if m), x[:-1])
        for p, m, r in zip(parts, mu, ratios):
            term *= r ** (p - m)
        total += term
    return total


# ---------------------------------------------------------------------------
# entropy binning

@dataclass(frozen=True)
class EntropyBinning:
    """Partition of [0, log2 d] into bins of width ``width`` (the last bin
    absorbs the remainder).  Bin 1 is closed, later bins are left-open:
    I_1 = [s_0, s_1], I_i = (s_{i-1}, s_i]."""

    blocklength: int
    local_dim: int
    width: float
    boundaries: tuple[float, ...]

    @property
    def n_bins(self) -> int:
        return len(self.boundaries) - 1

    def interval(self, index: int) -> tuple[float, float]:
        """Bin boundaries for a 1-based bin index."""
        if not 1 <= index <= self.n_bins:
            raise ValueError(f"bin index {index} out of range 1..{self.n_bins}")
        return (self.boundaries[index - 1], self.boundaries[index])

    def bin_of(self, entropy: float) -> int:
        """1-based index of the bin containing an entropy value."""
        top = self.boundaries[-1]
        h = min(max(float(entropy), 0.0), top)
        # small slack so exact boundary values land in the lower bin, as the
        # right-closed interval convention demands
        for i in range(1, self.n_bins + 1):
            if h <= self.boundaries[i] + 1e-12:
                return i
        return self.n_bins


def make_binning(l: int, d: int, eta: float) -> EntropyBinning:
    if not eta > 0:  # also refuses NaN
        raise ValueError(f"bin width must be positive, got {eta}")
    top = log2(d)
    if eta >= top:
        return EntropyBinning(l, d, eta, (0.0, top))
    n = int(ceil(top / eta - 1e-12))
    boundaries = tuple(i * eta for i in range(n)) + (top,)
    return EntropyBinning(l, d, eta, boundaries)


@dataclass(frozen=True)
class EntropyBin:
    """Frames whose row entropy falls in one bin; ``index`` is the original
    1-based bin index (empty bins are skipped but indices are preserved)."""

    index: int
    frames: tuple[YoungFrame, ...]


@dataclass(frozen=True, eq=False)
class EntropyInstrument:
    """Projective instrument sorting tensor-power states by estimated
    entropy, one outcome per nonempty bin."""

    binning: EntropyBinning
    bins: tuple[EntropyBin, ...]

    @property
    def local_dim(self) -> int:
        return self.binning.local_dim

    @property
    def blocklength(self) -> int:
        return self.binning.blocklength

    def bin_projector(self, b: EntropyBin) -> np.ndarray:
        d = self.local_dim
        total = np.zeros((d**self.blocklength,) * 2, dtype=complex)
        for f in b.frames:
            total += isotypic_projector(f, d)
        return total

    def to_instrument(self):
        """Materialize as a projective instrument on the tensor power."""
        from .channels import CpMap, Instrument

        dims = (self.local_dim,) * self.blocklength
        return Instrument(
            tuple(CpMap((self.bin_projector(b),), dims, dims) for b in self.bins)
        )

    def bin_probability(self, rho, b: EntropyBin) -> float:
        """Probability of outcome ``b`` on rho^(x blocklength)."""
        spectrum = _spectrum_of(rho)
        return sum(frame_probability(f, spectrum) for f in b.frames)

    def probabilities(self, rho) -> list[tuple[int, float, float, float]]:
        """(bin index, interval lo, interval hi, probability) per nonempty bin."""
        spectrum = _spectrum_of(rho)
        rows = []
        for b in self.bins:
            lo, hi = self.binning.interval(b.index)
            rows.append((b.index, lo, hi, self.bin_probability(spectrum, b)))
        return rows


def build_entropy_instrument(l: int, d: int, eta: float) -> EntropyInstrument:
    binning = make_binning(l, d, eta)
    grouped: dict[int, list[YoungFrame]] = {}
    for f in young_frames(l, d):
        grouped.setdefault(binning.bin_of(frame_entropy(f)), []).append(f)
    bins = tuple(
        EntropyBin(i, tuple(grouped[i])) for i in sorted(grouped)
    )
    return EntropyInstrument(binning, bins)


def sending_marginal(rho: State) -> State:
    """The part of a source copy that the entropy instrument measures: the
    A marginal when rho has an A party and others, rho itself otherwise."""
    parties = set(rho.parties)
    return rho.marginal("A") if "A" in parties and len(parties) > 1 else rho


def misbin_probability(inst: EntropyInstrument, rho: State, true_bin: int | None = None) -> float:
    """Probability that the entropy estimate lands outside the immediate
    neighborhood of the true bin.

    ``rho`` is a single source copy; the instrument acts on the sending-side
    marginal of its tensor power, so the value is the summed bin probability
    over bins j with |j - i| > 1, where i is the bin of the marginal's
    entropy (derived when not supplied).
    """
    spectrum = np.linalg.eigvalsh(sending_marginal(rho).matrix)
    if true_bin is None:
        true_bin = inst.binning.bin_of(spectrum_entropy(spectrum))
    total = 0.0
    for b in inst.bins:
        if abs(b.index - true_bin) > 1:
            total += inst.bin_probability(spectrum, b)
    return float(min(max(total, 0.0), 1.0))
