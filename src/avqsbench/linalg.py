"""Dense complex linear algebra for multipartite quantum states.

States carry an explicit tensor-factor structure (a dimension and a party
label per factor) so that marginals, local channels and permutations can be
expressed by factor index rather than by ad-hoc reshaping at call sites.
"""

from __future__ import annotations

from math import prod
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .config import CHECK_TOL, CLOSE_TOL, Frozen, check_dim_cap
from .optim import retract_qr

Party = str


def _entries(x, shape: str = "square") -> np.ndarray:
    """``x`` as a new complex array with finite entries.  ``shape`` is
    "square" (a square matrix), "kraus" (a matrix of any shape) or "vector"
    (any array, flattened); ``ValueError`` on any other shape, or on a NaN or
    infinite entry."""
    arr = np.array(x, dtype=complex)
    if shape == "vector":
        arr = arr.reshape(-1)
    elif shape == "kraus" and arr.ndim != 2:
        raise ValueError(f"Kraus operator must be a matrix, got shape {arr.shape}")
    elif shape == "square" and (arr.ndim != 2 or arr.shape[0] != arr.shape[1]):
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("entries must be finite, got NaN or infinity")
    return arr


def _factors(dims, parties, size: int, length: str, context: str):
    """``(dims, parties)`` as tuples of ints and strings, refused unless the
    dims are positive and multiply to ``size`` (the ``length`` of the array)
    and each factor has one party; ``size`` is held to the dimension cap."""
    dims = tuple(int(d) for d in dims)
    parties = tuple(str(p) for p in parties)
    if any(d <= 0 for d in dims):
        raise ValueError(f"factor dimensions must be positive, got {dims}")
    if prod(dims) != size:
        raise ValueError(f"factor dimensions {dims} do not multiply to {length} {size}")
    if len(parties) != len(dims):
        raise ValueError("need exactly one party label per factor")
    check_dim_cap(size, context)
    return dims, parties


def _check_hermitian(mat: np.ndarray) -> np.ndarray:
    dev = float(np.max(np.abs(mat - mat.conj().T), initial=0.0))
    if dev > CHECK_TOL:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
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

    The constructor checks the shape, finite entries, the factor dims and
    Hermiticity.  The states the package derives from validated ones
    (marginals, permutations, products, mixtures) hold those by construction
    and are built by ``_derived``, which checks nothing.
    """

    def __init__(self, matrix: np.ndarray, dims: tuple[int, ...], parties: tuple[Party, ...]):
        vars(self).update(matrix=matrix, dims=dims, parties=parties)
        self.__post_init__()

    def __post_init__(self):
        mat = _entries(self.matrix)
        dims, parties = _factors(self.dims, self.parties, mat.shape[0], "matrix dimension", "State")
        _check_hermitian(mat)  # after the dimension cap: it forms mat - mat^dagger
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

    def validate(self) -> "State":
        """Check positivity and unit trace."""
        w = np.linalg.eigvalsh(self.matrix)
        if w.min(initial=0.0) < -CHECK_TOL:
            raise ValueError(f"matrix is not positive semidefinite (min eigenvalue {w.min():.3e})")
        if abs(self.trace() - 1.0) > CHECK_TOL:
            raise ValueError(f"trace is {self.trace():.12f}, expected 1")
        return self


class PureState(Frozen):
    """Unit vector over a factored Hilbert space, same metadata as State.

    The constructor checks finite entries, the factor dims as ``State`` does,
    and the norm."""

    def __init__(self, vector: np.ndarray, dims: tuple[int, ...], parties: tuple[Party, ...]):
        vec = _entries(vector, "vector")
        dims, parties = _factors(dims, parties, vec.size, "vector length", "PureState")
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > CHECK_TOL:
            raise ValueError(f"vector norm is {norm:.12f}, expected 1")
        vars(self).update(vector=_freeze(vec), dims=dims, parties=parties)

    def density(self) -> State:
        matrix = np.outer(self.vector, self.vector.conj())
        return State._derived(matrix=matrix, dims=self.dims, parties=self.parties)


def state(matrix, dims: Sequence[int] | None = None, parties: Sequence[Party] | None = None) -> State:
    """Build a fully validated unit-trace state.

    Defaults: a single factor of the full dimension, assigned to party "A".
    """
    if dims is None:
        dims = np.shape(matrix)[:1]  # State refuses a matrix that is not square
    if parties is None:
        parties = ("A",) * len(tuple(dims))
    return State(matrix, tuple(dims), tuple(parties)).validate()


def pure_state(vector, dims: Sequence[int] | None = None, parties: Sequence[Party] | None = None) -> PureState:
    if dims is None:
        dims = (np.size(vector),)
    if parties is None:
        parties = ("A",) * len(tuple(dims))
    return PureState(vector, tuple(dims), tuple(parties))


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
    matrix = kron(a.matrix, b.matrix)
    return State._derived(matrix=matrix, dims=a.dims + b.dims, parties=a.parties + b.parties)


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
    return State._derived(
        matrix=tensor.reshape(d, d),
        dims=tuple(s.dims[i] for i in keep),
        parties=tuple(s.parties[i] for i in keep),
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
    return State._derived(
        matrix=mat, dims=tuple(s.dims[i] for i in order), parties=tuple(s.parties[i] for i in order)
    )


# ---------------------------------------------------------------------------
# spectral operations

def eigensystem(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching orthonormal eigenvectors.

    Rejects a non-Hermitian raw matrix; a ``State`` was checked when it was
    built.  The reconstruction V diag(w) V* agrees with the input up to the
    solver's rounding.
    """
    w, v = np.linalg.eigh(_hermitian(h))
    # stable sort keeps the solver's order within degenerate eigenspaces
    idx = np.argsort(-w, kind="stable")
    return w[idx], v[:, idx]


_EPS = float(np.finfo(float).eps)  # looked up once: np.finfo is slow next to a small spectrum


def resolved(w) -> np.ndarray:
    """Mask of the eigenvalues that rounding can tell from zero: those above
    n * machine-eps * max|w| in each spectrum of n values along the last axis
    of ``w``, the scale of the diagonalization's own rounding error."""
    w = np.asarray(w)
    return w > w.shape[-1] * _EPS * np.abs(w).max(axis=-1, initial=0.0, keepdims=True)


def _to_matrix(x) -> np.ndarray:
    """A state's matrix, or a raw matrix checked by :func:`_entries`."""
    return x.matrix if isinstance(x, State) else _entries(x)


def _hermitian(x) -> np.ndarray:
    """A state's matrix, or a raw matrix checked by :func:`_entries` and
    :func:`_check_hermitian`."""
    return x.matrix if isinstance(x, State) else _check_hermitian(_entries(x))


def fidelity(a, b) -> float:
    """F(a, b) = ||sqrt(a) sqrt(b)||_1^2 for positive semidefinite a, b.

    Accepts states or raw Hermitian matrices; inputs need not be
    normalized.  One ``eigh`` per argument gives both the PSD check and the
    Hermitian square root.  Eigenvalues that :func:`resolved` does not keep
    are set to 0 in the root, so the square root of a tensor power stays the
    product of the factors' roots.
    """
    am, bm = _hermitian(a), _hermitian(b)
    if am.shape != bm.shape:
        raise ValueError(f"shape mismatch {am.shape} vs {bm.shape}")
    roots = []
    for name, mat in (("first", am), ("second", bm)):
        w, v = np.linalg.eigh((mat + mat.conj().T) / 2)
        if w.min(initial=0.0) < -CHECK_TOL:
            raise ValueError(f"{name} argument is not PSD (min eigenvalue {w.min():.3e})")
        roots.append((v * np.sqrt(np.where(resolved(w), w, 0.0))) @ v.conj().T)
    # singular values need no clip against rounding noise, unlike square roots
    # of the eigenvalues of sqrt(a) b sqrt(a), where a clip biases F low
    s = np.linalg.svd(roots[0] @ roots[1], compute_uv=False)
    return float(np.sum(s) ** 2)


def trace_norm(m) -> float:
    """Sum of singular values."""
    return float(np.sum(np.linalg.svd(_to_matrix(m), compute_uv=False)))


def trace_distance(a, b) -> float:
    return trace_norm(_to_matrix(a) - _to_matrix(b))


def purify(s: State) -> PureState:
    """Canonical purification via the eigendecomposition of ``s``.

    With s = sum_i w_i |e_i><e_i| the output is sum_i sqrt(w_i) |e_i>|i>
    over the eigenvalues that :func:`resolved` keeps, so the appended
    environment factor, labelled "E", has dimension rank(s) and tracing it
    out recovers ``s`` up to rounding.
    """
    w, v = eigensystem(s)
    rank = int(np.count_nonzero(resolved(w)))
    check_dim_cap(s.dim * rank, "purify")
    vec = (v[:, :rank] * np.sqrt(w[:rank])).reshape(-1)
    vec = vec / np.linalg.norm(vec)
    return PureState._derived(vector=vec, dims=s.dims + (rank,), parties=s.parties + ("E",))


def check_purification(psi: PureState, s: State) -> None:
    """Raise ``ValueError`` unless ``psi`` extends the factors of ``s`` and
    tracing out its remaining factors gives ``s`` within ``CLOSE_TOL``."""
    k = s.n_factors
    if psi.dims[:k] != s.dims:
        raise ValueError("purification must extend the source factors")
    reduced = partial_trace(psi.density(), range(k))
    if trace_distance(reduced, s) > CLOSE_TOL:
        raise ValueError("supplied vector does not purify the source state")


class SchmidtDecomposition(NamedTuple):
    """Result of a bipartite Schmidt decomposition.

    ``coefficients`` are nonincreasing with squares summing to one;
    ``left_vectors``/``right_vectors`` hold the orthonormal local bases as
    columns.  ``left_factors`` records the bipartition used.  ``rank``
    counts the coefficients that :func:`resolved` keeps.
    """

    coefficients: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray
    left_factors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(resolved(self.coefficients)))


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
    return retract_qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))


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
