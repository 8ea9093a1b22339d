import numpy as np
import pytest

from avqsbench.config import DimensionCapError, local_config
from avqsbench.linalg import (
    PureState,
    bell_pair,
    eigensystem,
    fidelity,
    kron,
    maximally_entangled,
    maximally_mixed,
    partial_trace,
    permute_factors,
    pure_state,
    purify,
    random_density,
    random_unitary,
    schmidt_decomposition,
    state,
    tensor_product,
    trace_distance,
    trace_norm,
)

from helpers import random_pure, schmidt_reconstruct, tensor_power

rng = np.random.default_rng(2024)


class TestStateConstruction:
    def test_dims_must_multiply_up(self):
        with pytest.raises(ValueError, match="do not multiply"):
            state(np.eye(4) / 4, (2, 3))

    def test_rejects_non_hermitian(self):
        mat = np.array([[0.5, 0.3], [0.1, 0.5]])
        with pytest.raises(ValueError, match="Hermitian"):
            state(mat)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            state(np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            state(np.diag([1.5, -0.5]))

    def test_dim_cap_enforced(self):
        with local_config(dim_cap=8):
            with pytest.raises(DimensionCapError):
                state(np.eye(16) / 16, (16,))

    def test_matrix_is_immutable(self):
        s = maximally_mixed(2)
        with pytest.raises(ValueError):
            s.matrix[0, 0] = 5.0

    def test_pure_state_needs_unit_norm(self):
        with pytest.raises(ValueError, match="norm"):
            pure_state(np.array([1.0, 1.0]))


class TestTensorProduct:
    def test_maximally_mixed_factors(self):
        out = tensor_product(maximally_mixed(2), maximally_mixed(2))
        assert out.dims == (2, 2)
        assert np.allclose(out.matrix, np.eye(4) / 4)

    def test_basis_case(self):
        zero = state(np.diag([1.0, 0.0]))
        one = state(np.diag([0.0, 1.0]))
        out = tensor_product(zero, one)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        assert np.allclose(out.matrix, expected)

    def test_entries_against_index_formula(self):
        # oracle: (a x b)[i*2+k, j*2+m] = a[i,j] * b[k,m]
        a = random_density([2], rng)
        b = random_density([2], rng)
        out = tensor_product(a, b)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for m in range(2):
                        assert out.matrix[i * 2 + k, j * 2 + m] == pytest.approx(
                            a.matrix[i, j] * b.matrix[k, m], abs=1e-14
                        )

    def test_cap_guard(self):
        with local_config(dim_cap=4):
            with pytest.raises(DimensionCapError):
                tensor_product(maximally_mixed(4), maximally_mixed(2))

    def test_then_partial_trace_recovers_first_factor(self):
        for _ in range(5):
            a = random_density([2, 2], rng)
            b = random_density([3], rng)
            back = partial_trace(tensor_product(a, b), [0, 1])
            assert trace_distance(back, a) < 1e-8


class TestKron:
    @staticmethod
    def _complex(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @pytest.mark.parametrize(
        "shapes",
        [((3,), (4,)), ((3, 2), (4, 5)), ((3, 1), (4, 1)), ((1, 4), (2, 3))],
        ids=["vectors", "matrices", "columns", "row-by-matrix"],
    )
    def test_bit_identical_to_numpy(self, shapes):
        a, b = (self._complex(*shape) for shape in shapes)
        assert np.array_equal(kron(a, b), np.kron(a, b))

    @pytest.mark.parametrize("complex_first", [True, False])
    def test_mixed_dtypes_bit_identical_to_numpy(self, complex_first):
        a, b = self._complex(3, 3), rng.standard_normal((2, 2))
        if not complex_first:
            a, b = b, a
        out = kron(a, b)
        assert out.dtype == np.kron(a, b).dtype
        assert np.array_equal(out, np.kron(a, b))

    @pytest.mark.parametrize("shapes", [((3,), (2, 2)), ((2, 2), (3,)), ((2, 2, 2), (2, 2, 2)), ((), ())])
    def test_mixed_or_unsupported_ranks_raise(self, shapes):
        with pytest.raises(ValueError, match="two vectors or two matrices"):
            kron(np.ones(shapes[0]), np.ones(shapes[1]))


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        rho = bell_pair().density()
        assert np.allclose(partial_trace(rho, [0]).matrix, np.eye(2) / 2)

    def test_product_state_collapse(self):
        a = random_density([2], rng)
        b = random_density([3], rng)
        c = random_density([2], rng)
        full = tensor_product(tensor_product(a, b), c)
        assert trace_distance(partial_trace(full, [1]), b) < 1e-10

    def test_sequential_equals_joint(self):
        # oracle: tracing factors one at a time agrees with the joint trace
        full = random_density([2, 3, 2], rng)
        seq = partial_trace(partial_trace(full, [0, 1]), [0])
        joint = partial_trace(full, [0])
        assert trace_distance(seq, joint) < 1e-12

    def test_preserves_trace(self):
        full = random_density([2, 2, 2], rng)
        assert partial_trace(full, [1, 2]).trace() == pytest.approx(1.0, abs=1e-9)

    def test_is_linear(self):
        a = random_density([2, 2], rng)
        b = random_density([2, 2], rng)
        mixed = state(0.3 * a.matrix + 0.7 * b.matrix, (2, 2))
        lhs = partial_trace(mixed, [0]).matrix
        rhs = 0.3 * partial_trace(a, [0]).matrix + 0.7 * partial_trace(b, [0]).matrix
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_marginal_on_every_party_is_the_state_itself(self):
        ab = random_density([2, 3], rng, parties=("A", "B"))
        ba = random_density([3, 2], rng, parties=("B", "A"))
        abe = random_density([2, 2, 2], rng, parties=("A", "B", "E"))
        for rho in (ab, ba):
            assert rho.marginal("A", "B") is rho
            assert rho.marginal("B", "A") is rho
        assert abe.marginal("A", "B", "E") is abe
        assert abe.marginal("A", "B") is not abe

    def test_rejects_empty_or_out_of_range(self):
        full = random_density([2, 2], rng)
        with pytest.raises(ValueError):
            partial_trace(full, [])
        with pytest.raises(ValueError):
            partial_trace(full, [5])


class TestPurify:
    def test_pure_input_gets_rank_one_environment(self):
        psi = random_pure([2, 2], rng)
        out = purify(psi.density())
        assert out.dims[-1] == 1
        assert abs(abs(np.vdot(out.vector, np.kron(psi.vector, [1.0]))) - 1.0) < 1e-9

    def test_maximally_mixed_purifies_to_maximally_entangled(self):
        out = purify(maximally_mixed(2))
        coeffs = schmidt_decomposition(out, [0]).coefficients
        assert np.allclose(coeffs, [1 / np.sqrt(2)] * 2, atol=1e-10)

    def test_round_trip(self):
        for _ in range(10):
            rho = random_density([2, 3], rng)
            back = partial_trace(purify(rho).density(), [0, 1])
            assert trace_distance(back, rho) <= 1e-10

    def test_small_resolved_eigenvalues_are_kept(self):
        # eigenvalues of 1e-11 are far above the rounding level of a unit
        # spectrum, so the purification keeps them and traces back to rho
        u = random_unitary(4, np.random.default_rng(7))
        w = np.array([0.7, 0.3 - 2e-11, 1e-11, 1e-11])
        rho = state((u * w) @ u.conj().T, (2, 2), ("A", "B"))
        psi = purify(rho)
        assert trace_distance(partial_trace(psi.density(), [0, 1]), rho) <= 1e-14
        assert psi.dims[-1] == 4

    def test_environment_dimension_is_rank(self):
        rho = random_density([4], rng, rank=2)
        assert purify(rho).dims[-1] == 2

    def test_environment_party_label(self):
        assert purify(random_density([2, 2], rng, parties=("A", "B"))).parties == ("A", "B", "E")


class TestFidelity:
    def test_self_fidelity_is_one(self):
        for dims in ([2], [2, 2], [3]):
            rho = random_density(dims, rng)
            assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_pure_states_overlap_oracle(self):
        for _ in range(10):
            a = random_pure([4], rng)
            b = random_pure([4], rng)
            expected = abs(np.vdot(a.vector, b.vector)) ** 2
            assert fidelity(a.density(), b.density()) == pytest.approx(expected, abs=1e-9)

    def test_commuting_case(self):
        zero = state(np.diag([1.0, 0.0]))
        assert fidelity(maximally_mixed(2), zero) == pytest.approx(0.5, abs=1e-10)

    def test_symmetric(self):
        a = random_density([3], rng)
        b = random_density([3], rng)
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-9)

    def test_range(self):
        for _ in range(10):
            a = random_density([4], rng)
            b = random_density([4], rng)
            f = fidelity(a, b)
            assert -1e-12 <= f <= 1.0 + 1e-9

    def test_multiplicative_on_tensor_powers(self):
        # F(rho^(x4), sigma^(x4)) = F(rho, sigma)^4; the word states' smallest
        # eigenvalues go down to 5e-12
        pair_rng = np.random.default_rng(7)
        for _ in range(5):
            rho = random_density([2, 2], pair_rng)
            sigma = random_density([2, 2], pair_rng)
            powered = fidelity(tensor_power(rho, 4), tensor_power(sigma, 4))
            assert abs(powered - fidelity(rho, sigma) ** 4) <= 1e-12

    @pytest.mark.parametrize("eps", [1e-3, 5e-4])
    def test_multiplicative_with_small_member_eigenvalue(self, eps):
        # members (1 - 4 eps) rho_3 + eps I with rho_3 of rank 3: the four-copy
        # word states have eigenvalues from eps^4 up, below a fixed 1e-12 clip
        # but above the rounding noise of a 256 x 256 diagonalization
        pair_rng = np.random.default_rng(11)
        for _ in range(3):
            rank3 = random_density([2, 2], pair_rng, rank=3).matrix
            rho = state((1 - 4 * eps) * rank3 + eps * np.eye(4), (2, 2))
            sigma = random_density([2, 2], pair_rng)
            powered = fidelity(tensor_power(rho, 4), tensor_power(sigma, 4))
            assert abs(powered - fidelity(rho, sigma) ** 4) <= 1e-12

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError, match="PSD"):
            fidelity(np.diag([1.5, -0.5]), np.eye(2) / 2)

    def test_one_iff_close(self):
        rho = random_density([3], rng)
        sigma = state(0.9 * rho.matrix + 0.1 * np.eye(3) / 3)
        assert fidelity(rho, rho) >= 1 - 1e-9
        if trace_distance(rho, sigma) > 0.01:
            assert fidelity(rho, sigma) < 1 - 1e-6


class TestTraceNorm:
    def test_state_has_unit_trace_norm(self):
        assert trace_norm(random_density([3], rng)) == pytest.approx(1.0, abs=1e-10)

    def test_zero_difference(self):
        rho = random_density([2], rng)
        assert trace_norm(rho.matrix - rho.matrix) == 0.0

    def test_signed_diagonal(self):
        # singular values of diag(0.7, -0.3) are 0.7 and 0.3
        assert trace_norm(np.diag([0.7, -0.3])) == pytest.approx(1.0, abs=1e-12)

    def test_at_least_absolute_trace(self):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert trace_norm(m) >= abs(np.trace(m)) - 1e-10


class TestSchmidt:
    def test_product_state_rank_one(self):
        psi = tensor_product(random_pure([2], rng).density(), random_pure([3], rng).density())
        w, v = eigensystem(psi.matrix)
        vec = PureState(v[:, 0], (2, 3), ("A", "A"))
        assert schmidt_decomposition(vec, [0]).rank == 1

    def test_maximally_entangled_flat(self):
        phi = maximally_entangled(3)
        sd = schmidt_decomposition(phi, [0])
        assert sd.rank == 3
        assert np.allclose(sd.coefficients, 1 / np.sqrt(3), atol=1e-12)

    def test_reconstruction(self):
        psi = random_pure([2, 3], rng)
        sd = schmidt_decomposition(psi, [0])
        rebuilt = schmidt_reconstruct(sd).reshape(-1)
        assert np.linalg.norm(rebuilt - psi.vector) <= 1e-10

    def test_squared_coefficients_match_marginal_spectrum(self):
        psi = random_pure([2, 4], rng)
        sd = schmidt_decomposition(psi, [0])
        marginal_eigs = np.sort(np.linalg.eigvalsh(partial_trace(psi.density(), [0]).matrix))[::-1]
        padded = np.zeros_like(marginal_eigs)
        padded[: sd.coefficients.size] = sd.coefficients**2
        assert np.allclose(padded, marginal_eigs, atol=1e-10)

    def test_rejects_improper_bipartition(self):
        psi = random_pure([2, 2], rng)
        with pytest.raises(ValueError):
            schmidt_decomposition(psi, [0, 1])


class TestEigensystem:
    def test_identity(self):
        w, _ = eigensystem(np.eye(3))
        assert np.allclose(w, 1.0)

    def test_diagonal_sorted_descending(self):
        w, v = eigensystem(np.diag([1.0, 3.0]))
        assert np.allclose(w, [3.0, 1.0])
        assert abs(abs(v[1, 0]) - 1.0) < 1e-12

    def test_reconstruction(self):
        h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = (h + h.conj().T) / 2
        w, v = eigensystem(h)
        assert np.max(np.abs((v * w) @ v.conj().T - h)) <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestPermuteFactors:
    def test_round_trip(self):
        rho = random_density([2, 3, 2], rng)
        back = permute_factors(permute_factors(rho, [2, 0, 1]), [1, 2, 0])
        assert trace_distance(back, rho) < 1e-12

    def test_product_state_reorders(self):
        a = random_density([2], rng)
        b = random_density([3], rng)
        ab = tensor_product(a, b)
        ba = permute_factors(ab, [1, 0])
        assert trace_distance(ba, tensor_product(b, a)) < 1e-12


def test_tensor_power_counts_factors():
    rho = random_density([2, 2], rng, parties=("A", "B"))
    cubed = tensor_power(rho, 3)
    assert cubed.dims == (2, 2) * 3
    assert cubed.parties == ("A", "B") * 3


def test_random_unitary_is_unitary():
    u = random_unitary(4, rng)
    assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-10
