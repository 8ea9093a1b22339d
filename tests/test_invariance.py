"""Symmetries that every reported hull rate must respect, and one identity
between two code paths.

A hull cost is a bracket: the maximum lies in [value, value + duality_gap].
Two brackets of the same true number must overlap, so each test compares
brackets, with 1e-12 for rounding.  Sets: the distillation benchmark's
qubit-pair sets at seeds 0-29, and seeded random sets of two to four members
at (2,2) and (3,2) dims.
"""

import json

import numpy as np
import pytest

from avqsbench.cli import main
from avqsbench.io import save_json, state_set_to_dict
from avqsbench.linalg import random_density, random_unitary, state
from avqsbench.rates import (
    StateSet,
    _hull_rate,
    compound_classical_cost,
    compound_merging_cost,
    distillation_rate_lower_bound,
)

from helpers import distill_bench_set

ROUNDING = 1e-12
COSTS = (compound_merging_cost, compound_classical_cost)


def _bracket(report) -> tuple[float, float]:
    """[lower, upper] of a compound cost: exact over the members, and
    [value, value + duality_gap] over the hull."""
    return report.value, report.value + report.metadata.get("duality_gap", 0.0)


def _overlap(a, b) -> bool:
    return a[0] <= b[1] + ROUNDING and b[0] <= a[1] + ROUNDING


@pytest.fixture(scope="module")
def sets():
    """Each set with its compound costs, keyed by (cost, hull)."""
    rng = np.random.default_rng(14)
    random_sets = [
        StateSet(tuple(random_density(dims, rng, parties=("A", "B")) for _ in range(n)))
        for dims, n in (((2, 2), 2), ((2, 2), 4), ((3, 2), 2), ((3, 2), 3))
    ]
    return [
        (xs, {(cost, hull): cost(xs, hull=hull) for cost in COSTS for hull in (False, True)})
        for xs in [distill_bench_set(seed) for seed in range(30)] + random_sets
    ]


def test_trivial_baseline_is_minus_the_hull_merging_cost(sets):
    # inf_p I_c(A>B) = -sup_p S(A|B): the identity's inner infimum (in
    # [t - gap_t, t]) and the hull merging cost (in [m, m + gap_m]) bracket
    # numbers of opposite sign, from different code paths
    for xs, costs in sets:
        d_a = xs.members[0].marginal("A").dims[0]
        t, _, meta = _hull_rate(xs, 1)[1](np.eye(d_a, dtype=complex).reshape(1, 1, d_a, d_a))
        cost = costs[compound_merging_cost, True]
        assert -cost.metadata["duality_gap"] - ROUNDING <= t + cost.value
        assert t + cost.value <= meta["inner_duality_gap"] + ROUNDING
        if xs.labels == ("random", "werner"):
            # the reported trivial_baseline is that same inner infimum
            report = distillation_rate_lower_bound(xs, restarts=1, maxiter=1).report
            assert report.metadata["trivial_baseline"] == t


def test_local_unitaries_leave_the_costs_unchanged(sets):
    rng = np.random.default_rng(15)
    for xs, costs in sets:
        d_a, d_b = xs.dims
        u = np.kron(random_unitary(d_a, rng), random_unitary(d_b, rng))
        rotated = StateSet(
            tuple(state(u @ m.matrix @ u.conj().T, xs.dims, xs.parties) for m in xs.members),
            xs.labels,
        )
        for (cost, hull), report in costs.items():
            before, after = _bracket(report), _bracket(cost(rotated, hull=hull))
            assert _overlap(before, after), (cost.__name__, hull, before, after)


def test_member_order_leaves_the_hull_costs_unchanged(sets):
    rng = np.random.default_rng(16)
    for xs, costs in sets:
        order = rng.permutation(xs.n)
        permuted = StateSet(tuple(xs.members[i] for i in order), tuple(xs.labels[i] for i in order))
        for cost in COSTS:
            before, after = _bracket(costs[cost, True]), _bracket(cost(permuted, hull=True))
            assert _overlap(before, after), (cost.__name__, before, after)


def _cli_hull_brackets(path, capsys):
    assert main(["rates", "--set", path, "--hull"]) == 0
    payload = json.loads(capsys.readouterr().out)
    return [
        (payload[key]["value"], payload[key]["value"] + payload[key]["metadata"]["duality_gap"])
        for key in ("merging_cost", "classical_cost")
    ]


@pytest.mark.parametrize("seed", [0, 7, 29])
def test_renaming_set_file_keys_leaves_the_hull_costs_unchanged(seed, tmp_path, capsys):
    # the file is written with sorted keys, so the new names reverse the
    # order in which the program reads the members
    xs = distill_bench_set(seed)
    renamed = StateSet(xs.members, ("z", "a"))
    brackets = []
    for name, s in (("set.json", xs), ("renamed.json", renamed)):
        path = str(tmp_path / name)
        save_json(path, state_set_to_dict(s))
        brackets.append(_cli_hull_brackets(path, capsys))
    for before, after in zip(*brackets):
        assert _overlap(before, after), (before, after)
