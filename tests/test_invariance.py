"""Symmetries that every reported hull rate must respect, how the rates
move when the set grows, and one identity between two code paths.

A hull cost is a bracket: the maximum lies in [value, value + duality_gap];
an instrument's hull rate is one too, the infimum in [value - gap, value].
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
    convex_mixture,
    distillation_rate_lower_bound,
)

from helpers import bell_werner_set, distill_bench_set, flag_set, werner_matrix

ROUNDING = 1e-12
COSTS = (compound_merging_cost, compound_classical_cost)


def _bracket(report) -> tuple[float, float]:
    """[lower, upper] of a compound cost: exact over the members, and
    [value, value + duality_gap] over the hull."""
    return report.value, report.value + report.metadata.get("duality_gap", 0.0)


def _overlap(a, b) -> bool:
    return a[0] <= b[1] + ROUNDING and b[0] <= a[1] + ROUNDING


def _rate_bracket(value, meta) -> tuple[float, float]:
    """[value - inner_duality_gap, value] of an instrument's hull rate at k=1."""
    return value - meta["inner_duality_gap"], value


def _rotated(xs: StateSet, u: np.ndarray) -> StateSet:
    return StateSet(tuple(state(u @ m.matrix @ u.conj().T, xs.dims, xs.parties) for m in xs.members), xs.labels)


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
        rotated = _rotated(xs, np.kron(random_unitary(d_a, rng), random_unitary(d_b, rng)))
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


def test_rotated_instrument_keeps_its_rate_on_the_rotated_set():
    # a restart wins on the flag set; K_j U_A^dagger on the U_A x U_B-rotated
    # set is the same instrument in rotated coordinates
    xs = flag_set()
    result = distillation_rate_lower_bound(xs, k=1, n_outcomes=2, restarts=2, seed=0)
    meta = result.report.metadata
    assert meta["candidate"].startswith("restart-")
    rng = np.random.default_rng(17)
    u_a, u_b = random_unitary(4, rng), random_unitary(2, rng)
    value, _, rotated_meta = _hull_rate(_rotated(xs, np.kron(u_a, u_b)), 1)[1](
        result.instrument.kraus_stack() @ u_a.conj().T
    )
    before, after = _rate_bracket(result.report.value, meta), _rate_bracket(value, rotated_meta)
    assert _overlap(before, after), (before, after)


def test_duplicated_and_mixed_in_members_leave_the_hull_costs_unchanged(sets):
    # neither adds a point outside the hull; every fifth set and the
    # three-member one
    rng = np.random.default_rng(18)
    for xs, costs in sets[::5] + sets[-1:]:
        with pytest.warns(UserWarning, match="coincide"):
            duplicated = StateSet(xs.members + xs.members[-1:])
        mixture = convex_mixture(xs, rng.dirichlet(np.ones(xs.n)))
        mixed_in = StateSet(xs.members + (state(mixture.matrix, xs.dims, xs.parties),))
        for grown in (duplicated, mixed_in):
            for cost in COSTS:
                before, after = _bracket(costs[cost, True]), _bracket(cost(grown, hull=True))
                assert _overlap(before, after), (cost.__name__, grown.n, before, after)


def test_a_larger_set_costs_no_less_and_distils_no_more(sets):
    # a cost is a supremum and a distillation rate an infimum over the set or
    # its hull, so a new member cannot lower the first or raise the second
    rng = np.random.default_rng(19)
    for xs, costs in sets[::6]:
        larger = StateSet(xs.members + (random_density(xs.dims, rng, parties=xs.parties),))
        for (cost, hull), report in costs.items():
            before, after = _bracket(report), _bracket(cost(larger, hull=hull))
            assert after[1] + ROUNDING >= before[0], (cost.__name__, hull, before, after)
    # the larger set's instrument, scored on the smaller set: the identity
    # wins on the first pair, a restart on the second
    werner_08 = state(werner_matrix(0.8), (2, 2), ("A", "B"))
    pairs = [
        (bell_werner_set(), werner_08, "identity"),
        (flag_set(), flag_set((0.9,)).members[0], "restart-0"),
    ]
    for xs, member, winner in pairs:
        result = distillation_rate_lower_bound(StateSet(xs.members + (member,)), k=1, restarts=1, seed=0)
        assert result.report.metadata["candidate"] == winner
        value, _, meta = _hull_rate(xs, 1)[1](result.instrument.kraus_stack())
        smaller, larger = _rate_bracket(value, meta), _rate_bracket(result.report.value, result.report.metadata)
        assert smaller[1] + ROUNDING >= larger[0], (result.report.metadata["candidate"], smaller, larger)


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
