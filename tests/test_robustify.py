import itertools
from math import comb, factorial

import numpy as np
import pytest

from avqsbench.channels import (
    Instrument,
    OneWayLoccChannel,
    apply_one_way_locc,
    identity_channel,
    projective_instrument,
)
from avqsbench.linalg import random_density, random_pure, state, tensor_product, trace_distance
from avqsbench.rates import StateSet
from avqsbench.robustify import (
    TypeDistribution,
    check_robustification,
    enumerate_types,
    symmetrize_channel,
    word_type,
)

from helpers import all_words, iid_type_average, permutation_average

rng = np.random.default_rng(31)


class TestTypes:
    def test_two_symbols_length_two(self):
        assert [t.counts for t in enumerate_types(2, 2)] == [(2, 0), (1, 1), (0, 2)]

    def test_counts_match_binomial(self):
        assert len(enumerate_types(2, 6)) == comb(7, 1)
        assert len(enumerate_types(3, 4)) == comb(6, 2)

    def test_word_type_roundtrip(self):
        t = word_type((0, 2, 2, 1), 3)
        assert t.counts == (1, 1, 2)
        assert word_type(t.representative(), 3).counts == t.counts

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            TypeDistribution((-1, 2))


class TestIidTypeAverage:
    def test_constant_function(self):
        q = TypeDistribution((2, 1))
        assert iid_type_average(lambda w: 1.0, q) == pytest.approx(1.0, abs=1e-12)

    def test_single_word_indicator_under_uniform(self):
        q = TypeDistribution((2, 2))
        target = (0, 1, 0, 1)
        value = iid_type_average(lambda w: 1.0 if w == target else 0.0, q)
        assert value == pytest.approx(2.0**-4, abs=1e-15)

    def test_against_monte_carlo(self):
        table = {w: rng.random() for w in all_words(2, 5)}
        q = TypeDistribution((3, 2))
        exact = iid_type_average(table.__getitem__, q)
        sampler = np.random.default_rng(99)
        draws = sampler.choice(2, size=(40000, 5), p=q.probability())
        samples = np.array([table[tuple(row)] for row in draws])
        sigma = samples.std() / np.sqrt(len(samples))
        assert abs(samples.mean() - exact) < 3 * sigma + 1e-3


class TestPermutationAverage:
    def test_constant_word(self):
        table = {w: rng.random() for w in all_words(2, 3)}
        assert permutation_average(table.__getitem__, (1, 1, 1)) == table[(1, 1, 1)]

    def test_type_symmetric_function(self):
        f = lambda w: sum(w) / len(w)
        assert permutation_average(f, (0, 1, 0, 1)) == pytest.approx(0.5, abs=1e-12)

    def test_against_full_factorial_enumeration(self):
        table = {w: rng.random() for w in all_words(2, 4)}
        word = (0, 1, 1, 0)
        brute = np.mean(
            [table[tuple(word[i] for i in p)] for p in itertools.permutations(range(4))]
        )
        assert permutation_average(table.__getitem__, word) == pytest.approx(brute, abs=1e-12)

    def test_depends_only_on_type(self):
        table = {w: rng.random() for w in all_words(3, 4)}
        a = permutation_average(table.__getitem__, (0, 1, 2, 0))
        b = permutation_average(table.__getitem__, (2, 0, 0, 1))
        assert a == pytest.approx(b, abs=1e-12)


class TestCheckRobustification:
    def test_constant_one_passes_with_unit_margin(self):
        report = check_robustification(lambda w: 1.0, 2, 3, gamma=0.0)
        assert report.passed
        assert report.bound == 1.0
        assert all(tc.conclusion_margin == pytest.approx(0.0, abs=1e-12) for tc in report.type_checks)

    def test_randomized_tables_never_violate(self):
        for n_symbols in (2, 3):
            for l in (2, 4, 6):
                words = all_words(n_symbols, l)
                for _ in range(60):
                    table = dict(zip(words, rng.random(len(words))))
                    report = check_robustification(table.__getitem__, n_symbols, l)
                    assert report.passed

    def test_protocol_style_fidelity_function(self):
        # the hypothesis function from an actual channel figure of merit
        bell = state(np.array([[0.5, 0, 0, 0.5], [0, 0, 0, 0], [0, 0, 0, 0], [0.5, 0, 0, 0.5]]), (2, 2), ("A", "B"))
        noisy = state(0.8 * bell.matrix + 0.2 * np.eye(4) / 4, (2, 2), ("A", "B"))
        xs = StateSet((bell, noisy))
        reference = tensor_product(bell, bell)

        def f(word):
            from avqsbench.linalg import fidelity

            rho = xs.word_state(word)
            return fidelity(rho.matrix, reference.matrix)

        report = check_robustification(f, 2, 2)
        assert report.passed

    def test_word_margins_cover_every_word(self):
        report = check_robustification(lambda w: 1.0, 2, 3)
        margins = report.word_margins()
        assert len(margins) == 2**3

    def test_supplied_gamma_can_fail(self):
        # an adversarial table with an artificially tight gamma must be
        # reported honestly
        words = all_words(2, 2)
        table = {w: (1.0 if w == (0, 0) else 0.0) for w in words}
        report = check_robustification(table.__getitem__, 2, 2, gamma=0.01)
        assert not report.passed


class TestSymmetrizeChannel:
    def _measure_first_cell(self):
        projectors = [np.kron(np.diag([1.0, 0.0]), np.eye(2)), np.kron(np.diag([0.0, 1.0]), np.eye(2))]
        inst = projective_instrument(projectors, dims=(2, 2))
        return OneWayLoccChannel(inst, (identity_channel((1, 1)),) * 2)

    def test_covariant_channel_untouched_on_invariant_states(self):
        locc = OneWayLoccChannel(identity_instrument_cells(), (identity_channel((1, 1)),))
        symmetrized = symmetrize_channel(locc, 2, 2, 1)
        rho = random_density([2], rng)
        src = tensor_product(tensor_product(rho, rho.relabel({})), _dummy_b())
        out_a = apply_one_way_locc(locc, src)
        out_b = apply_one_way_locc(symmetrized, src)
        assert trace_distance(out_a, out_b) < 1e-10

    def test_swap_sensitive_channel_averages_two_orderings(self):
        locc = self._measure_first_cell()
        symmetrized = symmetrize_channel(locc, 2, 2, 1)
        assert symmetrized.message_count == 2 * factorial(2)
        a = random_density([2], rng)
        b = random_density([2], rng)
        fwd = tensor_product(tensor_product(a, b.relabel({})), _dummy_b())
        rev = tensor_product(tensor_product(b, a.relabel({})), _dummy_b())
        direct_avg = 0.5 * (
            apply_one_way_locc(locc, fwd).matrix + apply_one_way_locc(locc, rev).matrix
        )
        out = apply_one_way_locc(symmetrized, fwd)
        assert np.max(np.abs(out.matrix - direct_avg)) < 1e-10

    def test_sampled_mode_is_seeded(self):
        locc = self._measure_first_cell()
        s1 = symmetrize_channel(locc, 2, 2, 1, mode="sampled", n_samples=3, seed=5)
        s2 = symmetrize_channel(locc, 2, 2, 1, mode="sampled", n_samples=3, seed=5)
        for m1, m2 in zip(s1.a_instrument.outcomes, s2.a_instrument.outcomes):
            assert all(np.array_equal(k1, k2) for k1, k2 in zip(m1.kraus, m2.kraus))

    def test_exact_mode_blocklength_cap(self):
        # dimensions fit 2^7 sending and 1^7 receiving cells, so only the
        # blocklength cap can reject it
        locc = OneWayLoccChannel(
            Instrument((identity_channel((2,) * 7),)), (identity_channel((1,) * 7),)
        )
        with pytest.raises(ValueError, match="limited to blocklength"):
            symmetrize_channel(locc, 7, 2, 1)

    def test_symmetrized_worst_case_obeys_lemma_arithmetic(self):
        # fidelity to a fixed pure target is linear in the state, so the
        # symmetrized channel's word value equals the permutation average of
        # the plain channel's word values, and the robustification bound
        # applies verbatim
        locc = self._measure_first_cell()
        l = 2
        a = random_density([2], rng)
        b = random_density([2], rng)
        members = StateSet((a, b.relabel({})))
        target = random_pure([4], rng)

        def plain_value(word):
            src = tensor_product(members.word_state(word), _dummy_b())
            out = apply_one_way_locc(locc, src)
            reduced = out.matrix.reshape(4, 1, 4, 1)[:, 0, :, 0]
            return float(np.real(target.vector.conj() @ reduced @ target.vector))

        symmetrized = symmetrize_channel(locc, l, 2, 1)

        def symmetrized_value(word):
            src = tensor_product(members.word_state(word), _dummy_b())
            out = apply_one_way_locc(symmetrized, src)
            reduced = out.matrix.reshape(4, 1, 4, 1)[:, 0, :, 0]
            return float(np.real(target.vector.conj() @ reduced @ target.vector))

        words = all_words(2, l)
        for word in words:
            assert symmetrized_value(word) == pytest.approx(
                permutation_average(plain_value, word), abs=1e-10
            )
        report = check_robustification(plain_value, 2, l)
        worst = min(symmetrized_value(w) for w in words)
        assert worst >= report.bound - 1e-10


def identity_instrument_cells():
    return Instrument((identity_channel((2, 2)),))


def _dummy_b():
    return state(np.ones((1, 1)), (1, 1), ("B", "B"))
