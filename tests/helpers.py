"""Shared brute-force oracles for the test suite.

Everything here is deliberately independent of the package's own evaluation
paths: operators are embedded by explicit index arithmetic, projectors come
from a class-sum polynomial rather than character sums, and averages are
computed by full enumeration.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import exp, factorial, log, prod

import numpy as np

from avqsbench.channels import CpMap, Instrument, instrument_statistics
from avqsbench.entropy import coherent_information
from avqsbench.linalg import PureState, State, pure_state, state, tensor_product
from avqsbench.rates import StateSet
from avqsbench.robustify import word_type
from avqsbench.schur_weyl import (
    EntropyBin,
    EntropyInstrument,
    YoungFrame,
    frame_dimension,
    frame_probabilities,
    isotypic_projector,
    young_frames,
)


def conjugacy_class_size(cycle_type: tuple[int, ...]) -> int:
    """Number of permutations with the given cycle type."""
    l = sum(cycle_type)
    z = 1
    for k in set(cycle_type):
        m = cycle_type.count(k)
        z *= k**m * factorial(m)
    return factorial(l) // z


def embed_operator(op: np.ndarray, dims, targets) -> np.ndarray:
    """Full-space matrix acting as ``op`` on the target factors, identity
    elsewhere, built by explicit basis-index permutation."""
    dims = tuple(dims)
    n = len(dims)
    targets = sorted(targets)
    rest = [i for i in range(n) if i not in targets]
    d_rest = prod(dims[i] for i in rest) if rest else 1
    front = np.kron(op, np.eye(d_rest))
    # permutation matrix sending the original order to (targets, rest)
    order = targets + rest
    total = prod(dims)
    digits = np.array(np.unravel_index(np.arange(total), dims))
    front_shape = tuple(dims[i] for i in order)
    front_index = np.ravel_multi_index(tuple(digits[order, :]), front_shape)
    perm = np.zeros((total, total))
    perm[front_index, np.arange(total)] = 1.0
    return perm.T @ front @ perm


def swap_class_sum(l: int, d: int) -> np.ndarray:
    """Sum of all transposition operators on the l-fold tensor power."""
    dim = d**l
    shape = (d,) * l
    digits = np.array(np.unravel_index(np.arange(dim), shape))
    cols = np.arange(dim)
    total = np.zeros((dim, dim))
    for i in range(l):
        for j in range(i + 1, l):
            order = list(range(l))
            order[i], order[j] = j, i
            rows = np.ravel_multi_index(tuple(digits[order, :]), shape)
            total[rows, cols] += 1.0
    return total


def content_sum(frame: YoungFrame) -> int:
    """Sum of (column - row) over the cells; the transposition class sum
    acts as this scalar on the frame's isotypic block."""
    return sum(j - i for i, row_len in enumerate(frame.parts) for j in range(row_len))


def lagrange_projectors(l: int, d: int) -> dict[tuple[int, ...], np.ndarray]:
    """Isotypic projectors from Lagrange interpolation in the transposition
    class sum; valid whenever the content sums of the admissible frames are
    pairwise distinct (asserted)."""
    frames = young_frames(l, d)
    contents = [content_sum(f) for f in frames]
    assert len(set(contents)) == len(contents), "content sums collide; oracle not applicable"
    t = swap_class_sum(l, d)
    eye = np.eye(d**l)
    out = {}
    for f, c in zip(frames, contents):
        proj = eye.copy()
        for c_other in contents:
            if c_other != c:
                proj = proj @ (t - c_other * eye) / (c - c_other)
        out[f.parts] = proj
    return out


def tensor_power(s: State, copies: int) -> State:
    if copies < 1:
        raise ValueError("need at least one copy")
    out = s
    for _ in range(copies - 1):
        out = tensor_product(out, s)
    return out


def random_pure(dims, rng, parties=None) -> PureState:
    d = prod(dims)
    vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    vec /= np.linalg.norm(vec)
    return pure_state(vec, tuple(dims), None if parties is None else tuple(parties))


def weyl_dimension(f: YoungFrame, d: int) -> int:
    """Dimension of the GL(d) irrep with highest weight ``f``, by the
    hook-content formula: the product over cells of (d + column - row) / hook."""
    if f.rows > d:
        return 0
    column_heights = [sum(1 for p in f.parts if p > j) for j in range(f.parts[0])]
    num = 1
    den = 1
    for i, row_len in enumerate(f.parts):
        for j in range(row_len):
            num *= d + j - i
            den *= row_len - j + column_heights[j] - i - 1
    return num // den


def bin_projector(inst: EntropyInstrument, b: EntropyBin) -> np.ndarray:
    """Projector of one entropy bin on the tensor power: the sum of its
    frames' isotypic projectors."""
    d = inst.local_dim
    total = np.zeros((d**inst.blocklength,) * 2, dtype=complex)
    for f in b.frames:
        total += isotypic_projector(f, d)
    return total


def to_instrument(inst: EntropyInstrument) -> Instrument:
    """The entropy instrument as a projective instrument on the tensor power."""
    dims = (inst.local_dim,) * inst.blocklength
    return Instrument(tuple(CpMap((bin_projector(inst, b),), dims, dims) for b in inst.bins))


def bin_probability(rho, b: EntropyBin) -> float:
    """Probability of bin ``b`` on rho^(x blocklength)."""
    return float(frame_probabilities(b.frames, rho).sum())


def resource_ratio(protocol) -> float:
    """Schmidt-rank ratio of a merging protocol's resources, consumed/produced."""
    return protocol.phi_in.dims[0] / protocol.phi_out.dims[0]


def kron_power(mat: np.ndarray, copies: int) -> np.ndarray:
    out = mat
    for _ in range(copies - 1):
        out = np.kron(out, mat)
    return out


def random_kraus_channel(rng, d_in: int, d_out: int, n_kraus: int) -> list[np.ndarray]:
    """Trace-preserving Kraus family from a Haar-ish random isometry."""
    g = rng.standard_normal((d_out * n_kraus, d_in)) + 1j * rng.standard_normal(
        (d_out * n_kraus, d_in)
    )
    q, _ = np.linalg.qr(g)
    return [q[i * d_out : (i + 1) * d_out, :] for i in range(n_kraus)]


def haar_isometry(rng, rows: int, cols: int) -> np.ndarray:
    """Haar-random isometry: the Q factor of a complex Gaussian matrix, with
    the phases of R's diagonal moved into Q."""
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_instrument_kraus(rng, d_in: int, d_out: int, n_outcomes: int) -> list[np.ndarray]:
    """One Kraus operator per outcome, jointly trace preserving."""
    return random_kraus_channel(rng, d_in, d_out, n_outcomes)


def all_words(n_symbols: int, l: int):
    return list(itertools.product(range(n_symbols), repeat=l))


def unitary_channel(u) -> CpMap:
    """One-operator channel rho -> u rho u^dagger on a single factor."""
    return CpMap((np.asarray(u, dtype=complex),))


def stack_instrument(kraus: np.ndarray) -> Instrument:
    """Instrument with one outcome per entry of an (outcomes, operators,
    rows, cols) Kraus stack."""
    return Instrument(tuple(CpMap(tuple(ops)) for ops in kraus))


def projective_instrument(projectors) -> Instrument:
    """Instrument with one projector per outcome on a single factor."""
    return Instrument(tuple(CpMap((np.asarray(p, dtype=complex),)) for p in projectors))


def schmidt_reconstruct(sd) -> np.ndarray:
    """Amplitudes on (left x right) in the permuted factor order."""
    return (sd.left_vectors * sd.coefficients) @ sd.right_vectors.conj().T


def type_representative(t) -> tuple[int, ...]:
    """Lexicographically smallest word of the type."""
    return tuple(s for s, c in enumerate(t.counts) for _ in range(c))


def word_margins(report) -> list[tuple[tuple[int, ...], float]]:
    """Conclusion margin of a robustification report at every word, looked
    up by the word's type."""
    by_type = {tc.counts: tc.conclusion_margin for tc in report.type_checks}
    return [
        (w, by_type[word_type(w, report.n_symbols).counts])
        for w in all_words(report.n_symbols, report.blocklength)
    ]


def dense_family_receiving_kraus(fam, sub, l: int) -> list[list[np.ndarray]]:
    """Receiving Kraus operators of the family merging protocol, one list per
    receiving channel in protocol order, built the dense way: each operator
    is eye(K1_B) x (R_1 x I_B) x ... x (R_l x I_B) times a subprotocol
    operator, with R_i one restore map of the member at letter i."""
    d_b = fam.base.dims[1]
    m = fam.enlarged_dim
    proj = np.eye(fam.base.dims[0]) - fam.embed.conj().T @ fam.embed
    w, v = np.linalg.eigh(proj)
    first = np.zeros((m, 1))
    first[0, 0] = 1.0
    restore = []
    for s in range(fam.n):
        u = np.zeros((m, m))
        u[fam.shift(s), np.arange(m)] = 1.0  # U_s|i> = |shift(s)[i]>
        restore.append([u @ fam.embed] + [first @ col.conj().reshape(1, -1) for col in v[:, w > 0.5].T])
    eye_k1b = np.eye(sub.phi_out.dims[1])
    out = []
    for word in itertools.product(range(fam.n), repeat=l):
        restores = []
        for choice in itertools.product(*[restore[s] for s in word]):
            g = eye_k1b
            for op in choice:
                g = np.kron(g, np.kron(op, np.eye(d_b)))
            restores.append(g)
        for r_k in sub.locc.b_channels:
            out.append([g @ kb for g in restores for kb in r_k.kraus])
    return out


def scalar_instrument_rate(s, instrument) -> float:
    """Instrument-weighted coherent information, one outcome at a time:
    sum_j w_j I_c(A > B) of the normalized post-measurement states, over the
    outcomes that ``instrument_statistics`` keeps."""
    total = 0.0
    for outcome in instrument_statistics(instrument, s, s.factors_of("A")):
        total += outcome.probability * coherent_information(outcome.state).value
    return total


def iid_type_average(f, q) -> float:
    """Exact expectation of f over i.i.d. draws from the type's distribution,
    by enumerating every word."""
    prob = q.probability()
    return sum(
        float(f(w)) * prod(prob[s] for s in w)
        for w in itertools.product(range(q.n_symbols), repeat=q.length)
    )


def distinct_permutations(word):
    """Distinct rearrangements of a word (multiset permutations)."""
    counts: dict[int, int] = {}
    for s in word:
        counts[s] = counts.get(s, 0) + 1
    symbols = sorted(counts)

    def rec(prefix, remaining):
        if len(prefix) == len(word):
            yield tuple(prefix)
            return
        for s in symbols:
            if remaining[s] > 0:
                remaining[s] -= 1
                prefix.append(s)
                yield from rec(prefix, remaining)
                prefix.pop()
                remaining[s] += 1

    yield from rec([], dict(counts))


def permutation_average(f, word) -> float:
    """Average of f over all l! permutations of the word.

    Every distinct rearrangement is hit by the same number of permutations
    (the stabilizer size), so this equals the plain mean over distinct
    rearrangements, which is what gets enumerated.
    """
    values = [float(f(w)) for w in distinct_permutations(tuple(int(s) for s in word))]
    return sum(values) / len(values)


def branching_frame_probability(f: YoungFrame, spectrum) -> float:
    """dim(f) * s_f(x) for the positive part x of ``spectrum``, one frame at a
    time through the recursive branching rule."""
    x = tuple(sorted((float(v) for v in spectrum if v > 0), reverse=True))
    if f.rows > len(x):
        return 0.0
    log_leading = log(frame_dimension(f)) + sum(p * log(v) for p, v in zip(f.parts, x))
    return exp(log_leading) * schur_ratio(f.parts, x)


@lru_cache(maxsize=1 << 16)
def schur_ratio(parts: tuple[int, ...], x: tuple[float, ...]) -> float:
    """s_parts(x) / prod_i x_i^parts_i for descending positive x.

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
        term = schur_ratio(tuple(m for m in mu if m), x[:-1])
        for p, m, r in zip(parts, mu, ratios):
            term *= r ** (p - m)
        total += term
    return total


def distill_bench_set(seed: int) -> StateSet:
    """The qubit-pair set of the distillation benchmark at CLI seed ``seed``:
    a seeded random full-rank state and the Werner state of weight 0.9, in
    the order of the benchmark's input file (member names sorted)."""
    rng = np.random.default_rng([seed, 1])
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    random = g @ g.conj().T
    members = (random / np.trace(random).real, werner_matrix(0.9))
    return StateSet(tuple(state(m, (2, 2), ("A", "B")) for m in members), ("random", "werner"))


def werner_matrix(weight: float) -> np.ndarray:
    """weight |Phi+><Phi+| + (1 - weight) I/4 on two qubits."""
    phi = np.zeros(4)
    phi[[0, 3]] = 1 / np.sqrt(2)
    return weight * np.outer(phi, phi) + (1 - weight) * np.eye(4) / 4


def bell_werner_set() -> StateSet:
    """Bell pair and Werner(0.9): every hull point is a Werner state of weight
    at least 0.9, so no zero witness exists and the search runs."""
    members = (werner_matrix(1.0), werner_matrix(0.9))
    return StateSet(tuple(state(m, (2, 2), ("A", "B")) for m in members), ("bell", "werner"))


def flag_set(weights=(0.3, 0.6)) -> StateSet:
    """A = flag x qubit: q|0><0| x Phi+ + (1-q)|1><1| x Phi-, one member per
    weight q.  The default hull reaches q = 1/2, where the identity's
    coherent information is 0; measuring the flag leaves a Bell pair, 1 bit
    on the whole hull."""
    phi_plus = werner_matrix(1.0)
    z = np.diag([1.0, 1.0, -1.0, -1.0])  # Z on A maps Phi+ to Phi-
    flags = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    return StateSet(
        tuple(
            state(
                q * np.kron(flags[0], phi_plus) + (1 - q) * np.kron(flags[1], z @ phi_plus @ z),
                (2, 2, 2),
                ("A", "A", "B"),
            )
            for q in weights
        )
    )
