"""Method of types over words and the robustification check: a function on
words whose i.i.d. average is at least 1 - gamma under every type must have
permutation average at least 1 - (l+1)^{|S|} gamma at every single word."""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .config import Frozen, all_words

Word = tuple[int, ...]


class TypeDistribution(Frozen):
    """Empirical symbol counts of a word; counts sum to the word length."""

    def __init__(self, counts: tuple[int, ...]):
        counts = tuple(int(c) for c in counts)
        if any(c < 0 for c in counts) or sum(counts) == 0:
            raise ValueError(f"counts must be nonnegative and not all zero, got {counts}")
        vars(self).update(counts=counts)

    @property
    def length(self) -> int:
        return sum(self.counts)

    @property
    def n_symbols(self) -> int:
        return len(self.counts)

    def probability(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=float) / self.length


def enumerate_types(n_symbols: int, l: int) -> list[TypeDistribution]:
    """All compositions of ``l`` into ``n_symbols`` nonnegative parts."""
    if n_symbols < 1 or l < 1:
        raise ValueError("need at least one symbol and length >= 1")

    def compositions(total, slots):
        if slots == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in compositions(total - first, slots - 1):
                yield (first,) + rest

    return [TypeDistribution(c) for c in compositions(l, n_symbols)]


def word_type(word: Sequence[int], n_symbols: int) -> TypeDistribution:
    counts = [0] * n_symbols
    for s in word:
        counts[int(s)] += 1
    return TypeDistribution(tuple(counts))


@lru_cache(maxsize=None)
def _word_table(n_symbols: int, l: int):
    """All words, their type ids, and the per-type product probabilities."""
    words = all_words(n_symbols, l, "check_robustification")
    types = enumerate_types(n_symbols, l)
    type_index = {t.counts: i for i, t in enumerate(types)}
    word_arr = np.array(words, dtype=np.int64)
    type_of_word = np.array(
        [type_index[word_type(w, n_symbols).counts] for w in words], dtype=np.int64
    )
    probs = np.empty((len(types), len(words)))
    for i, t in enumerate(types):
        q = t.probability()
        probs[i] = np.prod(q[word_arr], axis=1)
    return tuple(words), types, type_of_word, probs


def evaluate_on_words(f: Callable[[Word], float], n_symbols: int, l: int) -> np.ndarray:
    words, _, _, _ = _word_table(n_symbols, l)
    values = np.array([float(f(w)) for w in words])
    if values.min() < -1e-9 or values.max() > 1.0 + 1e-9:
        raise ValueError("word function must take values in [0, 1]")
    return values


class TypeCheck(NamedTuple):
    """Hypothesis and conclusion margins for one type class."""

    counts: tuple[int, ...]
    iid_average: float
    hypothesis_margin: float
    permutation_average: float
    conclusion_margin: float


class RobustificationReport(NamedTuple):
    n_symbols: int
    blocklength: int
    gamma: float
    bound: float
    type_checks: tuple[TypeCheck, ...]
    worst_word: Word
    worst_value: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "n_symbols": self.n_symbols,
            "blocklength": self.blocklength,
            "gamma": self.gamma,
            "bound": self.bound,
            "types": [
                {
                    "counts": list(tc.counts),
                    "iid_average": tc.iid_average,
                    "hypothesis_margin": tc.hypothesis_margin,
                    "permutation_average": tc.permutation_average,
                    "conclusion_margin": tc.conclusion_margin,
                }
                for tc in self.type_checks
            ],
            "worst_word": list(self.worst_word),
            "worst_value": self.worst_value,
            "passed": self.passed,
        }


def check_robustification(
    f: Callable[[Word], float],
    n_symbols: int,
    l: int,
    gamma: float | None = None,
) -> RobustificationReport:
    """Verify the permutation-average bound for a word function.

    When ``gamma`` is not supplied it is derived exactly from the hypothesis
    side as 1 minus the smallest i.i.d. type average.  The permutation
    average of f at a word depends only on the word's type, so the check is
    exhaustive over words while costing one pass per type.  More words than
    ``config.WORD_CAP`` raise ``DimensionCapError`` before any is made.
    """
    words, types, type_of_word, probs = _word_table(n_symbols, l)
    values = evaluate_on_words(f, n_symbols, l)
    iid_avgs = probs @ values
    if gamma is None:
        gamma = float(max(0.0, 1.0 - iid_avgs.min()))
    bound = 1.0 - (l + 1) ** n_symbols * gamma
    counts_per_type = np.bincount(type_of_word, minlength=len(types)).astype(float)
    sums_per_type = np.bincount(type_of_word, weights=values, minlength=len(types))
    perm_avgs = sums_per_type / counts_per_type
    checks = tuple(
        TypeCheck(
            counts=t.counts,
            iid_average=float(iid_avgs[i]),
            hypothesis_margin=float(iid_avgs[i] - (1.0 - gamma)),
            permutation_average=float(perm_avgs[i]),
            conclusion_margin=float(perm_avgs[i] - bound),
        )
        for i, t in enumerate(types)
    )
    margins = perm_avgs[type_of_word] - bound
    worst_idx = int(np.argmin(margins))
    passed = bool(margins.min() >= -1e-12)
    return RobustificationReport(
        n_symbols=n_symbols,
        blocklength=l,
        gamma=gamma,
        bound=bound,
        type_checks=checks,
        worst_word=words[worst_idx],
        worst_value=float(perm_avgs[type_of_word[worst_idx]]),
        passed=passed,
    )
