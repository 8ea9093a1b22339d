import numpy as np
import pytest

from avqsbench.channels import CpMap, Instrument, identity_instrument
from avqsbench.entropy import (
    COHERENT_INFO_TERMS,
    CONDITIONAL_ENTROPY_TERMS,
    MUTUAL_INFO_ENV_TERMS,
    RateReport,
    _block_entropies,
    coherent_information,
    conditional_entropy,
    entropy_sum,
    instrument_coherent_info,
    instrument_rates,
    mutual_info_env,
    source_first,
    spectrum_entropy,
    von_neumann_entropy,
)
from avqsbench.linalg import (
    bell_pair,
    maximally_entangled,
    maximally_mixed,
    partial_trace,
    purify,
    random_density,
    random_unitary,
    resolved,
    state,
    tensor_product,
)

from helpers import (
    haar_isometry,
    projective_instrument,
    random_instrument_kraus,
    random_kraus_channel,
    scalar_instrument_rate,
    stack_instrument,
    tensor_power,
)

rng = np.random.default_rng(7)


def binary_entropy_bits(*probabilities) -> float:
    return float(-sum(p * np.log2(p) for p in probabilities if p > 0))


class TestVonNeumannEntropy:
    def test_pure_state_is_zero(self):
        psi = bell_pair().density()
        assert von_neumann_entropy(psi).value == pytest.approx(0.0, abs=1e-10)

    def test_maximally_mixed(self):
        for d in (2, 3, 4):
            assert von_neumann_entropy(maximally_mixed(d)).value == pytest.approx(
                np.log2(d), abs=1e-10
            )

    def test_two_level_spectrum(self):
        rho = state(np.diag([0.9, 0.1]))
        assert von_neumann_entropy(rho).value == pytest.approx(
            binary_entropy_bits(0.9, 0.1), abs=1e-12
        )
        # frozen from the scalar formula
        assert von_neumann_entropy(rho).value == pytest.approx(0.4689955935892812, abs=1e-12)


# each entropy function, by the quantity its report names
RATE_FUNCTIONS = {
    "entropy": von_neumann_entropy,
    "conditional-entropy": conditional_entropy,
    "mutual-info-env": mutual_info_env,
    "coherent-info": coherent_information,
    "instrument-rate": lambda rho: instrument_coherent_info(rho, identity_instrument((2,))),
}


@pytest.mark.parametrize("quantity", list(RATE_FUNCTIONS))
def test_entropies_report_their_quantity(quantity):
    report = RATE_FUNCTIONS[quantity](bell_pair().density())
    assert isinstance(report, RateReport)
    assert report.quantity == quantity
    assert report.to_dict() == {"quantity": quantity, "value": report.value}


class TestOneFormulaEach:
    """Each entropy formula is written once; the callers agree with it to the bit."""

    @pytest.mark.parametrize(
        "quantity, terms",
        [
            (conditional_entropy, CONDITIONAL_ENTROPY_TERMS),
            (mutual_info_env, MUTUAL_INFO_ENV_TERMS),
            (coherent_information, COHERENT_INFO_TERMS),
        ],
        ids=["conditional_entropy", "mutual_info_env", "coherent_information"],
    )
    def test_named_quantity_is_the_sum_of_its_table(self, quantity, terms):
        case_rng = np.random.default_rng(11)
        states = [random_density([2, 3], case_rng, parties=("A", "B")) for _ in range(3)]
        states += [
            bell_pair().density(),
            random_density([3, 2, 2], case_rng, parties=("B", "E", "A")),
            tensor_product(maximally_mixed(2, "B"), random_density([3], case_rng)),
        ]
        for rho in states:
            assert quantity(rho).value == entropy_sum(rho, terms)

    def test_a_stack_scores_like_its_rows(self):
        # rank-deficient rows of 3 to 12 eigenvalues, some of them clipped
        case_rng = np.random.default_rng(12)
        for d in (3, 8, 12):
            w = case_rng.random((5, d))
            w[:, : d // 3] = case_rng.choice([0.0, -1e-15, 1e-13], size=(5, d // 3))
            w = np.sort(w / w.sum(axis=1, keepdims=True), axis=1)
            stacked = spectrum_entropy(w)
            assert stacked.shape == (5,)
            assert list(stacked) == [spectrum_entropy(row) for row in w]
            stacked = spectrum_entropy(w.reshape(5, 1, d))
            assert stacked.shape == (5, 1)

    def test_cutoff_follows_each_spectrum(self):
        # a resolved 1e-13 eigenvalue of a unit-trace spectrum counts, where a
        # fixed 1e-12 clip would drop it
        small = 1e-13
        expected = -(1 - small) * np.log2(1 - small) - small * np.log2(small)
        assert spectrum_entropy([1 - small, small]) == pytest.approx(expected, rel=1e-12)
        # the rounding noise of a d=64 diagonalization does not: of a rotated
        # rank-one projector only the top eigenvalue, 1 within rounding, counts
        u = random_unitary(64, np.random.default_rng(14))
        w = np.linalg.eigvalsh(np.outer(u[:, 0], u[:, 0].conj()))
        assert list(np.flatnonzero(resolved(w))) == [63]
        assert abs(spectrum_entropy(w)) <= 1e-15

    def test_von_neumann_entropy_is_the_spectrum_entropy(self):
        case_rng = np.random.default_rng(13)
        for dims in ([2], [3, 3], [2, 2, 2]):
            rho = random_density(dims, case_rng, rank=2)
            value = von_neumann_entropy(rho).value
            assert value == spectrum_entropy(np.linalg.eigvalsh(rho.matrix))


class TestBlockEntropies:
    def _stacks(self):
        # full-rank, rank-deficient and all-zero blocks, one stack per size
        case_rng = np.random.default_rng(15)
        for d in (2, 4, 9):
            blocks = [random_density([d], case_rng).matrix for _ in range(2)]
            blocks += [0.3 * random_density([d], case_rng, rank=1).matrix, np.zeros((d, d))]
            yield np.stack(blocks).reshape(2, 2, d, d)

    def test_kernel_is_the_spectrum_entropy_of_each_block(self):
        for mats in self._stacks():
            expected = [[spectrum_entropy(np.linalg.eigvalsh(m)) for m in row] for row in mats]
            assert _block_entropies(mats).tolist() == expected
            assert _block_entropies(mats[1, 1]) == expected[1][1]

    def test_log_mode_returns_the_terms_of_its_entropies(self):
        for mats in self._stacks():
            entropies, v, logs = _block_entropies(mats, log=True)
            w = np.linalg.eigh(mats)[0]
            on = resolved(w)
            assert entropies.tolist() == spectrum_entropy(w).tolist()
            assert np.array_equal(logs[on], np.log2(w[on])) and not logs[~on].any()
            rebuilt = (v * np.where(on, w, 0.0)[..., None, :]) @ v.conj().swapaxes(-1, -2)
            assert np.allclose(rebuilt, mats, atol=1e-12)


class TestConditionalEntropy:
    def test_maximally_entangled_pair(self):
        rho = bell_pair().density()
        assert conditional_entropy(rho).value == pytest.approx(-1.0, abs=1e-10)

    def test_product_additivity(self):
        a = random_density([2], rng, parties=("A",))
        b = random_density([3], rng, parties=("B",))
        rho = tensor_product(a, b)
        assert conditional_entropy(rho).value == pytest.approx(
            von_neumann_entropy(a).value, abs=1e-8
        )

    def test_maximally_mixed_two_qubits(self):
        rho = state(np.eye(4) / 4, (2, 2), ("A", "B"))
        assert conditional_entropy(rho).value == pytest.approx(1.0, abs=1e-10)

    def test_range(self):
        rho = random_density([2, 3], rng, parties=("A", "B"))
        value = conditional_entropy(rho).value
        assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9

    def test_missing_party(self):
        rho = random_density([2, 2], rng, parties=("A", "A"))
        with pytest.raises(ValueError, match="no factors"):
            conditional_entropy(rho)


class TestMutualInfoEnv:
    def test_pure_bipartite_decouples_environment(self):
        w = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        w /= np.linalg.norm(w)
        rho = state(np.outer(w, w.conj()), (2, 3), ("A", "B"))
        assert mutual_info_env(rho).value == pytest.approx(0.0, abs=1e-8)

    def test_maximally_entangled(self):
        assert mutual_info_env(bell_pair().density()).value == pytest.approx(0.0, abs=1e-9)

    def test_product_of_mixed(self):
        # component oracle: S(A)=1, S(AB)=2, S(B)=1, so I(A;E) = 2 = 2 S(A)
        rho = tensor_product(maximally_mixed(2, "A"), maximally_mixed(2, "B"))
        assert mutual_info_env(rho).value == pytest.approx(2.0, abs=1e-9)

    def test_identity_against_explicit_purification(self):
        # independent path: purify, then compute S(A) + S(E) - S(AE) directly
        for _ in range(5):
            rho = random_density([2, 2], rng, parties=("A", "B"))
            psi = purify(rho).density()
            s_a = von_neumann_entropy(partial_trace(psi, [0])).value
            s_e = von_neumann_entropy(partial_trace(psi, [2])).value
            s_ae = von_neumann_entropy(partial_trace(psi, [0, 2])).value
            assert mutual_info_env(rho).value == pytest.approx(s_a + s_e - s_ae, abs=1e-8)

    def test_nonnegative(self):
        for _ in range(20):
            rho = random_density([2, 2], rng, parties=("A", "B"))
            assert mutual_info_env(rho).value >= -1e-8


class TestCoherentInformation:
    def test_maximally_entangled(self):
        for d in (2, 3):
            rho = maximally_entangled(d).density()
            assert coherent_information(rho).value == pytest.approx(np.log2(d), abs=1e-10)

    def test_maximally_mixed(self):
        rho = state(np.eye(4) / 4, (2, 2), ("A", "B"))
        assert coherent_information(rho).value == pytest.approx(-1.0, abs=1e-10)

    def test_bell_diagonal_closed_form(self):
        spectrum = (0.85, 0.05, 0.05, 0.05)
        rho = state(_bell_diagonal(spectrum), (2, 2), ("A", "B"))
        expected = 1.0 - binary_entropy_bits(*spectrum)
        assert coherent_information(rho).value == pytest.approx(expected, abs=1e-10)


def _bell_basis() -> np.ndarray:
    s = 1 / np.sqrt(2)
    return np.array(
        [
            [s, 0, 0, s],
            [s, 0, 0, -s],
            [0, s, s, 0],
            [0, s, -s, 0],
        ]
    ).T


def _bell_diagonal(spectrum) -> np.ndarray:
    basis = _bell_basis()
    return sum(p * np.outer(basis[:, i], basis[:, i].conj()) for i, p in enumerate(spectrum))


class TestInstrumentRate:
    def test_identity_instrument_collapses_to_coherent_info(self):
        for _ in range(5):
            rho = random_density([2, 2], rng, parties=("A", "B"))
            inst = identity_instrument((2,))
            assert instrument_coherent_info(rho, inst).value == pytest.approx(
                coherent_information(rho).value, abs=1e-8
            )

    def test_trace_out_and_reprepare_gives_zero(self):
        kraus = tuple(np.outer([1.0, 0.0], row) for row in np.eye(2))
        inst = Instrument((CpMap(kraus, (2,), (2,)),))
        rho = random_density([2, 2], rng, parties=("A", "B"))
        assert instrument_coherent_info(rho, inst).value == pytest.approx(0.0, abs=1e-9)

    def test_complete_measurement_on_maximally_entangled(self):
        # outcome-by-outcome oracle: each post state is a pure product,
        # with coherent information 0, at weight 1/d
        rho = maximally_entangled(2).density()
        inst = projective_instrument([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        assert instrument_coherent_info(rho, inst).value == pytest.approx(0.0, abs=1e-9)

    def test_dimension_mismatch(self):
        rho = random_density([2, 2], rng, parties=("A", "B"))
        with pytest.raises(ValueError, match="does not match"):
            instrument_coherent_info(rho, identity_instrument((3,)))


class TestInstrumentRateKernel:
    """The batched kernel against the outcome-by-outcome oracle."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_block_row_instruments(self, k):
        # at k=2 the A factors of the tensor power are 0 and 2, not contiguous
        case_rng = np.random.default_rng(100 + k)
        dim = 2**k
        for n_outcomes in (2, 3):
            v = haar_isometry(case_rng, dim * n_outcomes, dim)
            inst = stack_instrument(v.reshape(-1, 1, dim, dim))
            rho = tensor_power(random_density([2, 2], case_rng, parties=("A", "B")), k)
            got = instrument_coherent_info(rho, inst).value
            assert got == pytest.approx(scalar_instrument_rate(rho, inst), abs=1e-12)

    def test_several_kraus_operators_per_outcome(self):
        # outcomes with 3 and 1 operators, so the Kraus stack is zero-padded
        kraus = random_kraus_channel(rng, 2, 3, 4)
        inst = Instrument(
            (CpMap(tuple(kraus[:3]), (2,), (3,)), CpMap((kraus[3],), (2,), (3,)))
        )
        rho = random_density([2, 2], rng, parties=("A", "B"))
        got = instrument_coherent_info(rho, inst).value
        assert got == pytest.approx(scalar_instrument_rate(rho, inst), abs=1e-12)

    def test_zero_weight_outcome_is_dropped(self):
        # outcome 1 sees nothing of a state supported on |0> of A, and outcome
        # 2 is the zero map; both must be dropped without producing NaN
        ket0 = np.diag([1.0, 0.0])
        inst = Instrument(
            (
                CpMap((ket0,), (2,), (2,)),
                CpMap((np.diag([0.0, 1.0]),), (2,), (2,)),
                CpMap((np.zeros((2, 2)),), (2,), (2,)),
            )
        )
        rho = tensor_product(state(ket0), random_density([2], rng, parties=("B",)))
        got = instrument_coherent_info(rho, inst).value
        assert np.isfinite(got)
        assert got == pytest.approx(scalar_instrument_rate(rho, inst), abs=1e-12)

    def test_other_parties_are_traced_out(self):
        kraus = random_instrument_kraus(rng, 2, 2, 2)
        inst = Instrument(tuple(CpMap((k,), (2,), (2,)) for k in kraus))
        rho = random_density([2, 3, 2], rng, parties=("B", "E", "A"))
        got = instrument_coherent_info(rho, inst).value
        assert got == pytest.approx(scalar_instrument_rate(rho, inst), abs=1e-12)


class TestInstrumentRateGradients:
    """The gradient kernel against central differences of the rate kernel."""

    @staticmethod
    def _case(k, n_outcomes, pure, seed):
        case_rng = np.random.default_rng(seed)
        if pure == "faint":
            # white noise of weight 2e-12 on the Bell pair: the joint blocks
            # have eigenvalues between the rounding level and 1e-12
            mixed = (1 - 2e-12) * bell_pair().density().matrix + 2e-12 * np.eye(4) / 4
            member = state(mixed, (2, 2), ("A", "B"))
        elif pure:
            member = bell_pair().density()
        else:
            member = random_density([2, 2], case_rng, parties=("A", "B"))
        # at k=2 the A factors of the tensor power are 0 and 2, not contiguous
        rho, d_b = source_first(tensor_power(member, k))
        dim = 2**k
        kraus = haar_isometry(case_rng, dim * n_outcomes, dim).reshape(n_outcomes, 1, dim, dim)
        return case_rng, rho[None], kraus, d_b

    @pytest.mark.parametrize("pure", [False, True, "faint"])
    @pytest.mark.parametrize("n_outcomes", [2, 3])
    @pytest.mark.parametrize("k", [1, 2])
    def test_gradient_matches_central_differences(self, k, n_outcomes, pure):
        # a pure member keeps every block rank deficient: the logs live on the support
        case_rng, rhos, kraus, d_b = self._case(k, n_outcomes, pure, 300 + 10 * k + n_outcomes)
        values, grads = instrument_rates(rhos, kraus, d_b, gradient=True)
        assert grads.shape == (1,) + kraus.shape
        assert values == pytest.approx(instrument_rates(rhos, kraus, d_b), abs=1e-12)
        h = 1e-6
        for _ in range(3):
            direction = case_rng.standard_normal(kraus.shape) + 1j * case_rng.standard_normal(
                kraus.shape
            )
            # the perturbed stacks leave trace preservation by O(h), unchecked
            up = instrument_rates(rhos, kraus + h * direction, d_b)[0]
            down = instrument_rates(rhos, kraus - h * direction, d_b)[0]
            numeric = (up - down) / (2 * h)
            analytic = float(np.vdot(grads[0], direction).real)
            assert analytic == pytest.approx(numeric, rel=1e-6)

    def test_values_match_on_a_stack_with_a_dropped_outcome(self):
        # the zero outcome of the identity instrument has zero weight and zero gradient
        members = [random_density([2, 2], rng, parties=("A", "B")) for _ in range(3)]
        rhos = np.stack([source_first(m)[0] for m in members])
        kraus = np.stack([np.eye(2), np.zeros((2, 2))])[:, None]
        values, grads = instrument_rates(rhos, kraus, 2, gradient=True)
        assert values == pytest.approx(instrument_rates(rhos, kraus, 2), abs=1e-12)
        assert np.all(np.isfinite(grads))
        assert np.all(grads[:, 1] == 0)


class TestLocalUnitaryInvariance:
    def test_all_quantities(self):
        rho = random_density([2, 2], rng, parties=("A", "B"))
        u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
        rotated = state(u @ rho.matrix @ u.conj().T, (2, 2), ("A", "B"))
        for fn in (conditional_entropy, mutual_info_env, coherent_information):
            assert fn(rotated).value == pytest.approx(fn(rho).value, abs=1e-8)
        assert von_neumann_entropy(rotated).value == pytest.approx(
            von_neumann_entropy(rho).value, abs=1e-8
        )
