"""Dense complex linear algebra for multipartite quantum states.

States carry an explicit tensor-factor structure (a dimension and a party
label per factor) so that marginals, local channels and relabelings can be
expressed by factor index rather than by ad-hoc reshaping at call sites.
"""

from __future__ import annotations

from math import prod
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .config import Frozen, check_dim_cap, get_config

Party = str


def _as_complex_matrix(m) -> np.ndarray:
    mat = np.array(m, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return mat


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class State(Frozen):
    """Density operator with explicit tensor-factor structure.

    ``dims`` lists factor dimensions in tensor order; ``parties`` assigns a
    party label ("A", "B", "E", ...) to each factor.  Instances are immutable
    and safe to share between threads.  Channel intermediates may be
    subnormalized (trace < 1); use :func:`state` for fully validated
    unit-trace construction.
    """

    def __init__(self, matrix: np.ndarray, dims: tuple[int, ...], parties: tuple[Party, ...]):
        vars(self).update(matrix=matrix, dims=dims, parties=parties)
        self.__post_init__()

    def __post_init__(self):
        mat = _as_complex_matrix(self.matrix)
        dims = tuple(int(d) for d in self.dims)
        parties = tuple(str(p) for p in self.parties)
        if any(d <= 0 for d in dims):
            raise ValueError(f"factor dimensions must be positive, got {dims}")
        if prod(dims) != mat.shape[0]:
            raise ValueError(
                f"factor dimensions {dims} do not multiply to matrix dimension {mat.shape[0]}"
            )
        if len(parties) != len(dims):
            raise ValueError("need exactly one party label per factor")
        check_dim_cap(mat.shape[0], "State")
        herm_dev = float(np.max(np.abs(mat - mat.conj().T), initial=0.0))
        if herm_dev > get_config().herm_tol:
            raise ValueError(f"matrix is not Hermitian (max deviation {herm_dev:.3e})")
        vars(self).update(matrix=_freeze(mat), dims=dims, parties=parties)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_factors(self) -> int:
        return len(self.dims)

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def factors_of(self, *parties: Party) -> tuple[int, ...]:
        """Indices of the factors belonging to the given parties, in order."""
        wanted = set(parties)
        return tuple(i for i, p in enumerate(self.parties) if p in wanted)

    def marginal(self, *parties: Party) -> "State":
        """Reduced state on the factors of the given parties; the state
        itself when they name every factor."""
        keep = self.factors_of(*parties)
        if not keep:
            raise ValueError(f"state has no factors for parties {parties}")
        return self if len(keep) == self.n_factors else partial_trace(self, keep)

    def validate(self, normalized: bool = True) -> "State":
        """Check positivity (and unit trace unless ``normalized=False``)."""
        cfg = get_config()
        w = np.linalg.eigvalsh(self.matrix)
        if w.min(initial=0.0) < -cfg.psd_tol:
            raise ValueError(f"matrix is not positive semidefinite (min eigenvalue {w.min():.3e})")
        if normalized and abs(self.trace() - 1.0) > cfg.trace_tol:
            raise ValueError(f"trace is {self.trace():.12f}, expected 1")
        return self

    def relabel(self, mapping: dict[Party, Party]) -> "State":
        """Return the same matrix with party labels renamed."""
        return State(self.matrix, self.dims, tuple(mapping.get(p, p) for p in self.parties))


class PureState(Frozen):
    """Unit vector over a factored Hilbert space, same metadata as State."""

    def __init__(self, vector: np.ndarray, dims: tuple[int, ...], parties: tuple[Party, ...]):
        vec = np.array(vector, dtype=complex).reshape(-1)
        dims = tuple(int(d) for d in dims)
        parties = tuple(str(p) for p in parties)
        if prod(dims) != vec.size:
            raise ValueError(
                f"factor dimensions {dims} do not multiply to vector length {vec.size}"
            )
        if len(parties) != len(dims):
            raise ValueError("need exactly one party label per factor")
        check_dim_cap(vec.size, "PureState")
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > get_config().trace_tol:
            raise ValueError(f"vector norm is {norm:.12f}, expected 1")
        vars(self).update(vector=_freeze(vec), dims=dims, parties=parties)

    @property
    def dim(self) -> int:
        return self.vector.size

    def density(self) -> State:
        return State(np.outer(self.vector, self.vector.conj()), self.dims, self.parties)

    def factors_of(self, *parties: Party) -> tuple[int, ...]:
        wanted = set(parties)
        return tuple(i for i, p in enumerate(self.parties) if p in wanted)

    def relabel(self, mapping: dict[Party, Party]) -> "PureState":
        return PureState(self.vector, self.dims, tuple(mapping.get(p, p) for p in self.parties))


def state(matrix, dims: Sequence[int] | None = None, parties: Sequence[Party] | None = None) -> State:
    """Build a fully validated unit-trace state.

    Defaults: a single factor of the full dimension, assigned to party "A".
    """
    mat = _as_complex_matrix(matrix)
    if dims is None:
        dims = (mat.shape[0],)
    if parties is None:
        parties = ("A",) * len(tuple(dims))
    return State(mat, tuple(dims), tuple(parties)).validate(normalized=True)


def pure_state(vector, dims: Sequence[int] | None = None, parties: Sequence[Party] | None = None) -> PureState:
    vec = np.asarray(vector, dtype=complex).reshape(-1)
    if dims is None:
        dims = (vec.size,)
    if parties is None:
        parties = ("A",) * len(tuple(dims))
    return PureState(vec, tuple(dims), tuple(parties))


# ---------------------------------------------------------------------------
# basic constructions

def basis_ket(dim: int, index: int) -> np.ndarray:
    vec = np.zeros(dim, dtype=complex)
    vec[index] = 1.0
    return vec


def maximally_mixed(dim: int, party: Party = "A") -> State:
    return State(np.eye(dim) / dim, (dim,), (party,))


def maximally_entangled(rank: int) -> PureState:
    """Rank-``rank`` maximally entangled pure state across factors A and B."""
    vec = np.zeros(rank * rank, dtype=complex)
    vec[:: rank + 1] = 1.0 / np.sqrt(rank)
    return PureState(vec, (rank, rank), ("A", "B"))


def bell_pair() -> PureState:
    """Two-qubit maximally entangled state (|00> + |11>)/sqrt(2)."""
    return maximally_entangled(2)


def kron(a, b) -> np.ndarray:
    """Kronecker product of two vectors or of two matrices.

    Forms a[i, j] * b[k, l] by broadcasting and reshapes it: the same
    multiplications as ``np.kron``, so the same bits, without its
    general-rank bookkeeping, which dominates on small operands.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim != b.ndim or a.ndim not in (1, 2):
        raise ValueError(f"kron needs two vectors or two matrices, got shapes {a.shape} and {b.shape}")
    if a.ndim == 1:
        return (a[:, None] * b).reshape(-1)
    rows, cols = a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    return (a[:, None, :, None] * b[:, None, :]).reshape(rows, cols)


def tensor_product(a: State, b: State) -> State:
    """Kronecker product of two states; factor metadata is concatenated."""
    check_dim_cap(a.dim * b.dim, "tensor_product")
    return State(kron(a.matrix, b.matrix), a.dims + b.dims, a.parties + b.parties)


def partial_trace(s: State, keep: Iterable[int]) -> State:
    """Trace out all factors not listed in ``keep`` (original order retained)."""
    keep = sorted(set(int(i) for i in keep))
    n = s.n_factors
    if not keep:
        raise ValueError("must keep at least one factor")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"factor indices {keep} out of range for {n} factors")
    drop = [i for i in range(n) if i not in keep]
    dims = list(s.dims)
    tensor = s.matrix.reshape(dims + dims)
    for idx in sorted(drop, reverse=True):
        tensor = np.trace(tensor, axis1=idx, axis2=idx + len(dims))
        del dims[idx]
    d = prod(dims)
    return State(
        tensor.reshape(d, d),
        tuple(s.dims[i] for i in keep),
        tuple(s.parties[i] for i in keep),
    )


def permute_factors(s: State, order: Sequence[int]) -> State:
    """Reorder tensor factors; ``order[i]`` is the old index of new factor i."""
    order = [int(i) for i in order]
    if sorted(order) != list(range(s.n_factors)):
        raise ValueError(f"{order} is not a permutation of the {s.n_factors} factors")
    n = s.n_factors
    dims = list(s.dims)
    mat = (
        s.matrix.reshape(dims + dims)
        .transpose(order + [n + i for i in order])
        .reshape(s.dim, s.dim)
    )
    return State(mat, tuple(s.dims[i] for i in order), tuple(s.parties[i] for i in order))


# ---------------------------------------------------------------------------
# spectral operations

def eigensystem(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching orthonormal eigenvectors.

    Rejects non-Hermitian input; the reconstruction V diag(w) V* agrees with
    the input within the configured residual tolerance.
    """
    mat = _as_complex_matrix(h)
    dev = float(np.max(np.abs(mat - mat.conj().T), initial=0.0))
    if dev > get_config().herm_tol:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    w, v = np.linalg.eigh(mat)
    # stable sort keeps the solver's order within degenerate eigenspaces
    idx = np.argsort(-w, kind="stable")
    return w[idx], v[:, idx]


def _to_matrix(x) -> np.ndarray:
    if isinstance(x, State):
        return x.matrix
    if isinstance(x, PureState):
        return x.density().matrix
    return _as_complex_matrix(x)


def fidelity(a, b) -> float:
    """F(a, b) = ||sqrt(a) sqrt(b)||_1^2 for positive semidefinite a, b.

    Accepts states or raw matrices; inputs need not be normalized.  One
    ``eigh`` per argument gives both the PSD check and the Hermitian square
    root.  Eigenvalues below d * machine-eps * ||m||, the scale of the
    diagonalization's own rounding error, are set to 0 in the root.  The
    threshold moves with the matrix, so the small but resolved eigenvalues of
    a tensor power are kept and its square root stays the product of the
    factors' roots.
    """
    am, bm = _to_matrix(a), _to_matrix(b)
    if am.shape != bm.shape:
        raise ValueError(f"shape mismatch {am.shape} vs {bm.shape}")
    cfg = get_config()
    roots = []
    for name, mat in (("first", am), ("second", bm)):
        w, v = np.linalg.eigh((mat + mat.conj().T) / 2)
        if w.min(initial=0.0) < -cfg.psd_tol:
            raise ValueError(f"{name} argument is not PSD (min eigenvalue {w.min():.3e})")
        noise = mat.shape[0] * np.finfo(float).eps * np.abs(w).max(initial=0.0)
        roots.append((v * np.sqrt(np.where(w < noise, 0.0, w))) @ v.conj().T)
    # singular values need no clip against rounding noise, unlike square roots
    # of the eigenvalues of sqrt(a) b sqrt(a), where a clip biases F low
    s = np.linalg.svd(roots[0] @ roots[1], compute_uv=False)
    return float(np.sum(s) ** 2)


def trace_norm(m) -> float:
    """Sum of singular values."""
    mat = _as_complex_matrix(_to_matrix(m))
    return float(np.sum(np.linalg.svd(mat, compute_uv=False)))


def trace_distance(a, b) -> float:
    return trace_norm(_to_matrix(a) - _to_matrix(b))


def purify(s: State) -> PureState:
    """Canonical purification via the eigendecomposition of ``s``.

    With s = sum_i w_i |e_i><e_i| the output is sum_i sqrt(w_i) |e_i>|i>,
    so the appended environment factor, labelled "E", has dimension rank(s)
    and tracing it out recovers ``s``.
    """
    w, v = eigensystem(s.matrix)
    rank = int(np.sum(w > get_config().rank_tol))
    rank = max(rank, 1)
    check_dim_cap(s.dim * rank, "purify")
    amps = np.zeros((s.dim, rank), dtype=complex)
    for i in range(rank):
        amps[:, i] = np.sqrt(max(w[i], 0.0)) * v[:, i]
    vec = amps.reshape(-1)
    vec = vec / np.linalg.norm(vec)
    return PureState(vec, s.dims + (rank,), s.parties + ("E",))


def check_purification(psi: PureState, s: State) -> None:
    """Raise ``ValueError`` unless ``psi`` extends the factors of ``s`` and
    tracing out its remaining factors gives ``s`` within ``close_tol``."""
    k = s.n_factors
    if psi.dims[:k] != s.dims:
        raise ValueError("purification must extend the source factors")
    reduced = partial_trace(psi.density(), range(k))
    if trace_distance(reduced, s) > get_config().close_tol:
        raise ValueError("supplied vector does not purify the source state")


class SchmidtDecomposition(NamedTuple):
    """Result of a bipartite Schmidt decomposition.

    ``coefficients`` are nonincreasing with squares summing to one;
    ``left_vectors``/``right_vectors`` hold the orthonormal local bases as
    columns.  ``left_factors`` records the bipartition used.
    """

    coefficients: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray
    left_factors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return int(np.sum(self.coefficients > get_config().rank_tol))


def schmidt_decomposition(p: PureState, left_factors: Iterable[int]) -> SchmidtDecomposition:
    """Schmidt decomposition of ``p`` across the given bipartition."""
    left = sorted(set(int(i) for i in left_factors))
    n = len(p.dims)
    if not left or left[0] < 0 or left[-1] >= n or len(left) == n:
        raise ValueError(f"{left} is not a proper bipartition of {n} factors")
    right = [i for i in range(n) if i not in left]
    arranged = p.vector.reshape(p.dims).transpose(left + right)
    d_left = prod(p.dims[i] for i in left)
    d_right = prod(p.dims[i] for i in right)
    u, sv, vh = np.linalg.svd(arranged.reshape(d_left, d_right), full_matrices=False)
    return SchmidtDecomposition(
        coefficients=_freeze(sv.astype(float)),
        left_vectors=_freeze(u),
        right_vectors=_freeze(vh.conj().T),
        left_factors=tuple(left),
    )


# ---------------------------------------------------------------------------
# random instances (seeded; used by tests and optimizer restarts)

def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density(
    dims: Sequence[int],
    rng: np.random.Generator,
    rank: int | None = None,
    parties: Sequence[Party] | None = None,
) -> State:
    """Random mixed state from a partial trace over a Gaussian purification."""
    d = prod(dims)
    r = d if rank is None else int(rank)
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    mat = g @ g.conj().T
    mat /= np.trace(mat).real
    return state(mat, tuple(dims), None if parties is None else tuple(parties))
