import itertools
from math import comb

import numpy as np
import pytest

from avqsbench.config import DimensionCapError
from avqsbench.linalg import state, tensor_product
from avqsbench.rates import StateSet
from avqsbench.robustify import (
    TypeDistribution,
    check_robustification,
    enumerate_types,
    word_type,
)

from helpers import all_words, iid_type_average, permutation_average, type_representative, word_margins

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
        assert word_type(type_representative(t), 3).counts == t.counts

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
        margins = word_margins(report)
        assert len(margins) == 2**3

    def test_supplied_gamma_can_fail(self):
        # an adversarial table with an artificially tight gamma must be
        # reported honestly
        words = all_words(2, 2)
        table = {w: (1.0 if w == (0, 0) else 0.0) for w in words}
        report = check_robustification(table.__getitem__, 2, 2, gamma=0.01)
        assert not report.passed

    def test_word_cap_before_any_word(self, monkeypatch):
        # 4^12 = 16.7M words would need a 455 x 16.7M table of type probabilities
        def no_words(*args, **kwargs):
            raise AssertionError("a word was made")

        monkeypatch.setattr(itertools, "product", no_words)
        with pytest.raises(DimensionCapError, match="16777216 words exceed the enumeration cap"):
            check_robustification(no_words, 4, 12)
