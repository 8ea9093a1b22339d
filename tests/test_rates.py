import importlib.util
import itertools
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import avqsbench.channels
import avqsbench.rates
from avqsbench.channels import (
    CpMap,
    Instrument,
    MergingProtocol,
    OneWayLoccChannel,
    apply_one_way_locc,
    identity_instrument,
    merging_fidelity,
    trivial_resource,
)
from avqsbench.config import CLOSE_TOL, WORD_CAP, DimensionCapError, local_config
from avqsbench.entropy import (
    CONDITIONAL_ENTROPY_TERMS,
    MUTUAL_INFO_ENV_TERMS,
    coherent_information,
    conditional_entropy,
    instrument_coherent_info,
    instrument_rates,
    mutual_info_env,
    von_neumann_entropy,
)
from avqsbench.linalg import (
    State,
    bell_pair,
    fidelity,
    maximally_entangled,
    maximally_mixed,
    purify,
    random_density,
    resolved,
    state,
    tensor_product,
    trace_distance,
    trace_norm,
)
from avqsbench.rates import (
    StateSet,
    _b_extendible,
    _entropy_sum,
    _hull_rate,
    compound_classical_cost,
    compound_merging_cost,
    convex_mixture,
    distillation_rate_lower_bound,
    hausdorff_distance,
    word_fidelities,
    worst_case_protocol_fidelity,
)
from avqsbench.rate_gap import build_orthogonal_family, known_pure_state_merging

from helpers import (
    bell_werner_set,
    distill_bench_set,
    flag_set,
    haar_isometry,
    random_instrument_kraus,
    random_kraus_channel,
    random_pure,
    scalar_instrument_rate,
    stack_instrument,
    tensor_power,
    werner_matrix,
)

rng = np.random.default_rng(41)


def _bell_diagonal(spectrum) -> np.ndarray:
    s = 1 / np.sqrt(2)
    basis = np.array(
        [[s, 0, 0, s], [s, 0, 0, -s], [0, s, s, 0], [0, s, -s, 0]]
    ).T
    return sum(p * np.outer(basis[:, i], basis[:, i].conj()) for i, p in enumerate(spectrum))


def _random_set(n, dims=(2, 2), parties=("A", "B")):
    return StateSet(tuple(random_density(dims, rng, parties=parties) for _ in range(n)))


def _random_merging_protocol(l: int) -> MergingProtocol:
    """Qubit-pair protocol at blocklength l with trivial resource registers
    and 2^l + 1 one-row sending outcomes."""
    d = 2**l
    n_outcomes = d + 1
    rows = random_instrument_kraus(rng, d, 1, n_outcomes)
    instrument = Instrument(tuple(CpMap((row,), (1,) + (2,) * l, (1,)) for row in rows))
    b_channels = tuple(
        CpMap(tuple(random_kraus_channel(rng, d, d * d, 2)), (1,) + (2,) * l, (1,) + (2,) * (2 * l))
        for _ in range(n_outcomes)
    )
    return MergingProtocol(
        OneWayLoccChannel(instrument, b_channels), trivial_resource(), trivial_resource(), l
    )


def _entropies(mats: np.ndarray) -> np.ndarray:
    w = np.clip(np.linalg.eigvalsh(mats), 1e-300, None)  # 0 log 0 = 0
    return -np.sum(w * np.log2(w), axis=-1)


def _grid_mixtures(xs: StateSet, steps: int = 100) -> np.ndarray:
    """Mixtures of a three-member set at the 1/steps grid of the 2-simplex."""
    grid = [(i, j, steps - i - j) for i in range(steps + 1) for j in range(steps + 1 - i)]
    members = np.stack([m.matrix for m in xs.members])
    return np.tensordot(np.array(grid) / steps, members, axes=1)


def _grid_maximum(xs: StateSet, classical: bool) -> float:
    """Largest S(A|B) (or I(A;E)) of a three-member qubit-pair set over the
    1/100 grid of the 2-simplex, by batched eigenvalues of the mixtures."""
    mixes = _grid_mixtures(xs).reshape(-1, 2, 2, 2, 2)
    s_ab = _entropies(mixes.reshape(-1, 4, 4))
    s_a = _entropies(np.einsum("nabcb->nac", mixes))
    s_b = _entropies(np.einsum("nabad->nbd", mixes))
    values = s_ab - s_b + (s_a if classical else 0.0)
    return float(values.max())


class TestStateSet:
    def test_needs_common_structure(self):
        a = random_density([2, 2], rng, parties=("A", "B"))
        b = random_density([4], rng, parties=("A",))
        with pytest.raises(ValueError, match="share dims"):
            StateSet((a, b))

    def test_warns_on_duplicates(self):
        a = random_density([2], rng)
        with pytest.warns(UserWarning, match="coincide"):
            StateSet((a, a))

    @pytest.mark.parametrize("scale, warns", [(0.5, True), (2.0, False)])
    def test_coincidence_warning_follows_the_trace_distance(self, scale, warns):
        # the difference has trace norm scale * CLOSE_TOL and Frobenius norm
        # a quarter of that, so at scale 2 the Frobenius screen passes the
        # pair on to the trace norm, which decides
        t = scale * CLOSE_TOL
        a = state(np.eye(16) / 16, (4, 4), ("A", "B"))
        b = state(np.eye(16) / 16 + t / 16 * np.diag([1.0] * 8 + [-1.0] * 8), (4, 4), ("A", "B"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            StateSet((a, b))
        assert any("coincide" in str(w.message) for w in caught) == warns

    @pytest.mark.parametrize("scale, warns", [(1 - 1e-6, True), (1 + 1e-6, False)])
    def test_pair_at_the_threshold_of_the_gram_screen(self, scale, warns):
        # a rank-one difference has equal Frobenius and trace norms, so the
        # pair sits at the screen's threshold as well as at the exact test's
        close = CLOSE_TOL
        a = random_density([2, 3], rng, parties=("A", "B"))
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        v /= np.linalg.norm(v)
        b = State(a.matrix + scale * close * np.outer(v, v.conj()), a.dims, a.parties)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            StateSet((a, b))
        assert any("coincide" in str(w.message) for w in caught) == warns

    def test_gram_screen_warns_as_the_pairwise_loop(self):
        # reference: every pair's Frobenius norm, then its trace norm
        close = CLOSE_TOL
        base = random_density([2, 3], rng, parties=("A", "B")).matrix
        members, factors = [], (0.0, 0.3, 0.98, 0.999, 1.001, 1.02, 2.0, 1e3)
        for f in factors:
            v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            v /= np.linalg.norm(v)
            members.append(State(base + f * close * np.outer(v, v.conj()), (2, 3), ("A", "B")))
        labels = tuple(f"m{f}" for f in factors)
        expected = [
            f"members {labels[i]!r} and {labels[j]!r} coincide up to tolerance"
            for i, j in itertools.combinations(range(len(members)), 2)
            if np.linalg.norm(members[i].matrix - members[j].matrix) <= close
            and trace_norm(members[i].matrix - members[j].matrix) <= close
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            StateSet(tuple(members), labels)
        assert [str(w.message) for w in caught] == expected
        assert 0 < len(expected) < len(factors) * (len(factors) - 1) // 2

    def test_default_labels(self):
        xs = _random_set(3)
        assert xs.labels == ("0", "1", "2")

    def test_word_state(self):
        xs = _random_set(2)
        rho = xs.word_state((1, 0))
        assert trace_distance(rho, tensor_product(xs.members[1], xs.members[0])) < 1e-12


class TestConvexMixture:
    def test_point_mass(self):
        xs = _random_set(3)
        assert trace_distance(convex_mixture(xs, [0, 1, 0]), xs.members[1]) < 1e-12

    def test_uniform_over_orthogonal_pures(self):
        z0 = state(np.diag([1.0, 0.0]))
        z1 = state(np.diag([0.0, 1.0]))
        mixed = convex_mixture(StateSet((z0, z1)), [0.5, 0.5])
        assert np.allclose(np.sort(np.linalg.eigvalsh(mixed.matrix)), [0.5, 0.5])

    def test_random_weights_stay_physical(self):
        xs = _random_set(3)
        p = rng.dirichlet([1, 1, 1])
        mixed = convex_mixture(xs, p)
        mixed.validate()

    def test_rejects_off_simplex(self):
        xs = _random_set(2)
        with pytest.raises(ValueError, match="simplex"):
            convex_mixture(xs, [0.7, 0.7])


class TestHausdorff:
    def test_self_distance_zero(self):
        xs = _random_set(3)
        assert hausdorff_distance(xs, xs) == 0.0

    def test_orthogonal_pure_states(self):
        z0 = StateSet((state(np.diag([1.0, 0.0])),))
        z1 = StateSet((state(np.diag([0.0, 1.0])),))
        assert hausdorff_distance(z0, z1) == pytest.approx(2.0, abs=1e-12)

    def test_hull_mode_contains_midpoint(self):
        mid = StateSet((maximally_mixed(2),))
        ends = StateSet((state(np.diag([1.0, 0.0])), state(np.diag([0.0, 1.0]))))
        assert hausdorff_distance(mid, ends, mode="hull") <= 1e-6

    def test_pointset_symmetry_and_triangle(self):
        for _ in range(25):
            xs, ys, zs = (_random_set(2, dims=(2,), parties=("A",)) for _ in range(3))
            dxy = hausdorff_distance(xs, ys)
            dyx = hausdorff_distance(ys, xs)
            dxz = hausdorff_distance(xs, zs)
            dzy = hausdorff_distance(zs, ys)
            assert dxy == pytest.approx(dyx, abs=1e-8)
            assert dxy <= dxz + dzy + 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="different spaces"):
            hausdorff_distance(_random_set(1), _random_set(1, dims=(2,), parties=("A",)))


class TestCompoundCosts:
    def test_singleton_bell(self):
        xs = StateSet((bell_pair().density(),), ("bell",))
        report = compound_merging_cost(xs)
        assert report.value == pytest.approx(-1.0, abs=1e-9)
        assert report.attained_by == "bell"

    def test_classical_cost_of_pure_singleton(self):
        psi = np.array([0.6, 0, 0, 0.8])
        xs = StateSet((state(np.outer(psi, psi), (2, 2), ("A", "B")),))
        assert compound_classical_cost(xs).value == pytest.approx(0.0, abs=1e-8)

    def test_product_state_formulas(self):
        a = random_density([2], rng, parties=("A",))
        rho = tensor_product(a, maximally_mixed(3, "B"))
        xs = StateSet((rho,))
        s_a = von_neumann_entropy(a).value
        assert compound_merging_cost(xs).value == pytest.approx(s_a, abs=1e-8)
        assert compound_classical_cost(xs).value == pytest.approx(2 * s_a, abs=1e-8)

    def test_member_costs_are_the_largest_named_quantity(self):
        # the costs sum the same term tables as the named quantities, so bit for bit
        for xs in (_random_set(3), build_orthogonal_family(bell_pair().density(), 3).members):
            merging, classical = compound_merging_cost(xs), compound_classical_cost(xs)
            assert merging.value == max(conditional_entropy(m).value for m in xs.members)
            assert classical.value == max(mutual_info_env(m).value for m in xs.members)

    def test_monotone_under_inclusion(self):
        members = tuple(random_density([2, 2], rng, parties=("A", "B")) for _ in range(3))
        small = StateSet(members[:2])
        large = StateSet(members)
        assert compound_merging_cost(small).value <= compound_merging_cost(large).value + 1e-12
        assert compound_classical_cost(small).value <= compound_classical_cost(large).value + 1e-12

    # the hull costs' duality-gap certificate relies on this concavity
    @pytest.mark.parametrize(
        "functional",
        [conditional_entropy, mutual_info_env],
        ids=["conditional_entropy", "mutual_info_env"],
    )
    def test_conditional_entropy_concavity_over_mixtures(self, functional):
        xs = _random_set(3)
        for _ in range(10):
            p = rng.dirichlet([1, 1, 1])
            mixed = functional(convex_mixture(xs, p)).value
            averaged = sum(
                float(q) * functional(m).value for q, m in zip(p, xs.members)
            )
            assert mixed >= averaged - 1e-8

    def test_hull_maximization_beats_vertices(self):
        xs = _random_set(2)
        vertex = compound_merging_cost(xs).value
        hull = compound_merging_cost(xs, hull=True).value
        assert hull >= vertex - 1e-7

    @pytest.mark.parametrize("seed", [11, 12, 13, "face"])
    @pytest.mark.parametrize(
        "cost", [compound_merging_cost, compound_classical_cost], ids=["merging", "classical"]
    )
    def test_hull_certificate_brackets_grid_maximum(self, cost, seed):
        if seed == "face":
            # S(A|B) and I(A;E) peak at log2 d_A and 2 log2 d_A exactly on the
            # edge of the two I/2 (x) sigma_B members: the Werner member must
            # be dropped to weight exactly 0
            werner = 0.8 * bell_pair().density().matrix + 0.2 * np.eye(4) / 4
            mats = [np.diag([0.5, 0, 0.5, 0]), np.diag([0, 0.5, 0, 0.5]), werner]
            xs = StateSet(tuple(state(m, (2, 2), ("A", "B")) for m in mats))
        else:
            seeded = np.random.default_rng(seed)
            xs = StateSet(
                tuple(random_density([2, 2], seeded, parties=("A", "B")) for _ in range(3))
            )
        report = cost(xs, hull=True)
        gap = report.metadata["duality_gap"]
        grid_max = _grid_maximum(xs, classical=cost is compound_classical_cost)
        assert report.metadata["stop_reason"] == "gap"
        assert gap <= 1e-9
        assert report.value >= grid_max - 1e-9
        assert grid_max <= report.value + gap + 1e-12
        if seed == "face":
            assert report.weights[2] == 0.0

    @pytest.mark.parametrize("source", ["family", "seeded"])
    @pytest.mark.parametrize(
        "terms",
        [CONDITIONAL_ENTROPY_TERMS, MUTUAL_INFO_ENV_TERMS],
        ids=["merging", "classical"],
    )
    def test_hull_gradient_against_einsum_and_central_difference(self, source, terms):
        if source == "family":
            xs = build_orthogonal_family(bell_pair().density(), 6).members
        else:
            seeded = np.random.default_rng(7)
            xs = StateSet(tuple(random_density([2, 2], seeded, parties=("A", "B")) for _ in range(3)))
        blocks = [(sign, np.stack([m.marginal(*t).matrix for m in xs.members])) for t, sign in terms]
        objective = _entropy_sum(blocks)
        p = np.random.default_rng(3).dirichlet(np.ones(xs.n))
        _, grad = objective(p)
        # the three-operand einsum the gradient was first written as
        reference = np.zeros(xs.n)
        for sign, mats in blocks:
            w, v = np.linalg.eigh(np.tensordot(p, mats, axes=1))
            on = resolved(w)
            w, v = w[on], v[:, on]
            reference -= sign * np.einsum("ik,sij,jk->sk", v.conj(), mats, v).real @ np.log2(w)
        assert np.max(np.abs(grad - reference)) <= 1e-12 * np.max(np.abs(reference))
        # the left-out trace terms are the same for every s, so the slope
        # along e_s - e_0, which stays on the simplex, is grad_s - grad_0
        h = 1e-6
        for s_idx in range(1, xs.n):
            step = np.zeros(xs.n)
            step[s_idx], step[0] = h, -h
            slope = (objective(p + step)[0] - objective(p - step)[0]) / (2 * h)
            assert slope == pytest.approx(grad[s_idx] - grad[0], abs=1e-6)

    def test_hull_keeps_a_member_whose_support_leaves_the_rest(self):
        # the derivative in the weight of |00><00| is -inf where it is emptied,
        # but a log clipped to the support reads it finite there; the maximum
        # S(A|B) = 1 is at I/4, weights (1/4, 3/4)
        corner = np.diag([1.0, 0, 0, 0])
        mats = [corner, (np.eye(4) - corner) / 3]
        xs = StateSet(tuple(state(m, (2, 2), ("A", "B")) for m in mats))
        report = compound_merging_cost(xs, hull=True)
        assert report.value >= 1 - 1e-9
        assert report.weights[0] > 0


def _perfbench_inputs():
    """``perfbench/inputs.py``, loaded by path and only read."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_distill_bench_set_is_the_benchmark_set():
    inputs = _perfbench_inputs()
    for seed in [*range(30), 203, 7000, 52000]:
        xs = distill_bench_set(seed)
        mats = inputs.distill_set_matrices(seed)
        assert sorted(mats) == list(xs.labels)
        for label, member in zip(xs.labels, xs.members):
            assert np.array_equal(member.matrix, mats[label]), (seed, label)


class TestDistillation:
    def test_trivial_instrument_equals_coherent_information(self):
        for _ in range(5):
            rho = random_density([2, 2], rng, parties=("A", "B"))
            value = instrument_coherent_info(rho, identity_instrument((2,))).value
            assert value == pytest.approx(coherent_information(rho).value, abs=1e-8)

    @pytest.mark.parametrize("d", [2, 3])
    def test_maximally_entangled_singleton(self, d):
        xs = StateSet((maximally_entangled(d).density(),))
        result = distillation_rate_lower_bound(xs, k=1, restarts=1, maxiter=20, seed=0)
        assert result.report.value >= np.log2(d) - 1e-3

    def test_bell_diagonal_baseline(self):
        spectrum = (0.85, 0.05, 0.05, 0.05)
        entropy = -sum(p * np.log2(p) for p in spectrum)
        xs = StateSet((state(_bell_diagonal(spectrum), (2, 2), ("A", "B")),))
        result = distillation_rate_lower_bound(xs, k=1, restarts=1, maxiter=10, seed=0)
        assert result.report.metadata["trivial_baseline"] == pytest.approx(
            1 - entropy, abs=1e-8
        )
        assert result.report.value >= 1 - entropy - 1e-6

    def test_never_below_trivial_baseline(self):
        xs = StateSet((random_density([2, 2], rng, parties=("A", "B")),))
        for seed in range(5):
            result = distillation_rate_lower_bound(xs, k=1, restarts=2, maxiter=15, seed=seed)
            assert result.report.value >= result.report.metadata["trivial_baseline"] - 1e-6

    def test_returned_instrument_is_valid(self):
        xs = StateSet((bell_pair().density(),))
        result = distillation_rate_lower_bound(xs, k=1, restarts=1, maxiter=15, seed=3)
        gram = sum(k.conj().T @ k for m in result.instrument.outcomes for k in m.kraus)
        assert np.max(np.abs(gram - np.eye(result.instrument.dim_in))) < 1e-9

    def test_two_letter_matches_single_letter_on_product_structure(self):
        xs = StateSet((bell_pair().density(),))
        one = distillation_rate_lower_bound(xs, k=1, restarts=1, maxiter=5, seed=0)
        two = distillation_rate_lower_bound(xs, k=2, restarts=1, maxiter=5, seed=0)
        assert two.report.value == pytest.approx(one.report.value, abs=1e-6)

    def test_two_identical_members_equal_singleton(self):
        rho = bell_pair().density()
        single = StateSet((rho,))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            double = StateSet((rho, state(rho.matrix, rho.dims, rho.parties)))
        a = distillation_rate_lower_bound(single, k=1, restarts=1, maxiter=10, seed=0)
        b = distillation_rate_lower_bound(double, k=1, restarts=1, maxiter=10, seed=0)
        assert a.report.value == pytest.approx(b.report.value, abs=1e-6)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_search_measures_the_flag(self, seed):
        result = distillation_rate_lower_bound(flag_set(), k=1, n_outcomes=2, restarts=2, seed=seed)
        meta = result.report.metadata
        assert meta["trivial_baseline"] == pytest.approx(0.0, abs=1e-9)
        assert result.report.value >= 1 - 1e-6
        assert len(meta["outer_stop_reasons"]) == 2
        assert set(meta["outer_stop_reasons"]) <= {"gradient", "stalled", "maxiter"}
        assert meta["outer_evaluations"] >= meta["outer_iterations"] + 2
        assert meta["inner_stop_reason"] == "gap" and meta["inner_certified"]
        assert meta["inner_duality_gap"] <= 1e-9
        assert meta["zero_witness"] is None  # A is not one qubit: no test, the search runs

    def test_never_below_the_free_zero(self):
        # the ascent's best vertex rates lose to trace-and-replace on this
        # hull: its infimum is about -0.105, at an interior point
        result = distillation_rate_lower_bound(
            distill_bench_set(52000), k=1, n_outcomes=2, restarts=2, seed=52000
        )
        meta = result.report.metadata
        assert result.report.value >= -1e-12
        assert meta["candidate"] == "trace-and-replace"
        assert meta["n_outcomes"] == result.instrument.n_outcomes == 1
        assert meta["inner_certified"]

    @pytest.mark.parametrize("seed", range(30))
    def test_certified_lower_end_is_not_positive_on_an_extendible_hull(self, seed):
        # a B-extendible member, tr rho_B^2 >= tr rho_AB^2 - 4 sqrt(det rho_AB)
        # for two qubits, makes the hull's one-way capacity 0, so the
        # certified lower end must not be positive
        xs = distill_bench_set(seed)
        rho = xs.members[0].matrix
        rho_b = xs.members[0].marginal("B").matrix
        purity = np.trace(rho @ rho).real
        assert np.trace(rho_b @ rho_b).real >= purity - 4 * np.sqrt(np.linalg.det(rho).real)
        report = distillation_rate_lower_bound(xs, k=1, n_outcomes=2, restarts=2, seed=seed).report
        assert report.value - report.metadata["inner_duality_gap"] <= 0

    @pytest.mark.parametrize("set_seed", [7000, 52000])
    @pytest.mark.parametrize("k, n_outcomes", [(1, 1), (2, 1), (2, 2), (2, 3)])
    def test_never_below_zero_at_any_outcome_count(self, set_seed, k, n_outcomes):
        # fewer outcomes than d_A^k: trace-and-replace still scores 0
        result = distillation_rate_lower_bound(
            distill_bench_set(set_seed), k, n_outcomes, restarts=2, seed=1, maxiter=50
        )
        assert result.report.value >= -1e-12

    def test_reported_value_beats_every_candidate(self, monkeypatch):
        xs = distill_bench_set(52000)
        found = []
        original = avqsbench.rates.maximize_over_isometries

        def recorded(*args, **kwargs):
            out = original(*args, **kwargs)
            found.append(out[0])
            return out

        monkeypatch.setattr(avqsbench.rates, "maximize_over_isometries", recorded)
        result = distillation_rate_lower_bound(xs, k=1, n_outcomes=2, restarts=2, seed=52000)
        _, inner_infimum = _hull_rate(xs, 1)
        # trace-and-replace: one outcome holding |0><i| for every i
        replace = np.zeros((1, 2, 2, 2), dtype=complex)
        replace[0, 0, 0, 0] = replace[0, 1, 0, 1] = 1.0
        stacks = [np.eye(2, dtype=complex).reshape(1, 1, 2, 2), replace]
        stacks += [v.reshape(2, 1, 2, 2) for v in found]
        assert len(found) == 2
        scores = [inner_infimum(kraus)[0] for kraus in stacks]
        assert scores[0] == result.report.metadata["trivial_baseline"]
        assert max(scores[2:]) < -0.1  # selecting among the restarts alone stays below zero
        assert result.report.value >= max(scores)

    def test_rejects_unsupported_k(self):
        with pytest.raises(ValueError, match="k in"):
            distillation_rate_lower_bound(StateSet((bell_pair().density(),)), k=3)

    @pytest.mark.parametrize("n_outcomes", [0, -1])
    def test_rejects_fewer_than_one_outcome(self, n_outcomes):
        with pytest.raises(ValueError, match="n_outcomes"):
            distillation_rate_lower_bound(StateSet((bell_pair().density(),)), n_outcomes=n_outcomes)

    @pytest.mark.parametrize("k", [1, 2])
    def test_inner_infimum_matches_scalar_oracle(self, k):
        case_rng = np.random.default_rng(200 + k)
        xs = StateSet(
            tuple(random_density([2, 2], case_rng, parties=("A", "B")) for _ in range(2))
        )
        d = 2**k
        inst = stack_instrument(haar_isometry(case_rng, 2 * d, d).reshape(-1, 1, d, d))
        rate, inner_infimum = _hull_rate(xs, k)

        def oracle(p):
            return scalar_instrument_rate(tensor_power(convex_mixture(xs, p), k), inst) / k

        vertex_values = rate(inst.kraus_stack())
        vertex_value, vertex_p = vertex_values.min(), np.eye(xs.n)[np.argmin(vertex_values)]
        assert vertex_value == pytest.approx(min(oracle(p) for p in np.eye(xs.n)), abs=1e-12)
        assert vertex_value == pytest.approx(oracle(vertex_p), abs=1e-12)
        value, p, meta = inner_infimum(inst.kraus_stack())
        assert value == pytest.approx(oracle(p), abs=1e-12)
        assert value <= vertex_value
        assert meta["inner_certified"] == (k == 1)

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_inner_certificate_brackets_grid_minimum(self, seed):
        seeded = np.random.default_rng(seed)
        xs = StateSet(
            tuple(random_density([2, 2], seeded, parties=("A", "B")) for _ in range(3))
        )
        kraus = stack_instrument(haar_isometry(seeded, 4, 2).reshape(-1, 1, 2, 2)).kraus_stack()
        _, inner_infimum = _hull_rate(xs, 1)
        value, _, meta = inner_infimum(kraus)
        grid_min = instrument_rates(_grid_mixtures(xs), kraus, 2).min()
        assert meta["inner_stop_reason"] == "gap" and meta["inner_certified"]
        # the infimum lies in [value - gap, value] and the grid in the hull
        assert value - meta["inner_duality_gap"] <= grid_min
        assert value <= grid_min + 1e-12

    def test_search_work_does_not_grow_with_its_length(self, monkeypatch):
        # the objective runs on raw arrays, so longer searches build no more
        # validated states or maps; only the winner, which may differ between
        # the two lengths, is built, one map per outcome
        counts = {}
        for cls in (State, CpMap):
            original = cls.__post_init__

            def counted(self, _original=original, _name=cls.__name__):
                counts[_name] = counts.get(_name, 0) + 1
                _original(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        xs = bell_werner_set()  # no zero witness, so the search runs
        seen, iterations = [], []
        for maxiter in (3, 200):
            counts.clear()
            result = distillation_rate_lower_bound(xs, k=1, restarts=1, maxiter=maxiter)
            counts["CpMap"] -= result.report.metadata["n_outcomes"]
            seen.append(dict(counts))
            iterations.append(result.report.metadata["outer_iterations"])
        assert iterations[1] > iterations[0]
        assert seen[0] == seen[1]


def _reduce(rho: np.ndarray, keep: str) -> np.ndarray:
    """Reduced state of a three-qubit rho_ABB' on the parties named in
    ``keep``, a subsequence of "ABC" (C is B')."""
    cols = "".join(q.lower() if q in keep else q for q in "ABC")
    return np.einsum(f"ABC{cols}->{keep}{keep.lower()}", rho.reshape((2,) * 6)).reshape(
        2 ** len(keep), -1
    )


def _extension_margin(rho: np.ndarray) -> float:
    """tr rho_B^2 - tr rho^2 + 4 sqrt(det rho) of a two-qubit (A, B) matrix,
    from the determinant rather than the spectrum."""
    rho_b = np.einsum("abac->bc", rho.reshape(2, 2, 2, 2))
    det = max(np.linalg.det(rho).real, 0.0)
    return float(np.trace(rho_b @ rho_b).real - np.trace(rho @ rho).real + 4 * np.sqrt(det))


class TestZeroWitness:
    """The two-qubit symmetric-extension test on B and the gate it opens:
    with a passing hull point the capacity is 0 and no restart runs."""

    def test_symmetric_extension_passes_on_b_and_not_always_on_a(self):
        # a seeded vector on A x Sym^2(B), so rho_ABB' is symmetric in B and
        # B', with a little white noise to move it off the boundary
        swap = np.kron(np.eye(2), np.eye(4)[[0, 2, 1, 3]])
        fails_on_a = 0
        for seed in range(20):
            g = np.random.default_rng([seed, 9]).standard_normal((8, 2)) @ [1, 1j]
            g = (g + swap @ g) / np.linalg.norm(g + swap @ g)
            rho = 0.99 * np.outer(g, g.conj()) + 0.01 * np.eye(8) / 8
            rho_ab = _reduce(rho, "AB")
            assert np.allclose(rho_ab, _reduce(rho, "AC"))
            assert _b_extendible(state(rho_ab, (2, 2), ("A", "B")))
            # the parties swapped: the same formula with rho_A in place of rho_B
            fails_on_a += not _b_extendible(state(rho_ab, (2, 2), ("B", "A")))
        assert fails_on_a >= 1

    @pytest.mark.parametrize(
        "weight, extendible", [(2 / 3 - 0.01, True), (2 / 3, False), (2 / 3 + 0.01, False)]
    )
    def test_werner_threshold(self, weight, extendible):
        # the bound is met with equality at 2/3; the margin refuses the boundary
        assert _b_extendible(state(werner_matrix(weight), (2, 2), ("A", "B"))) == extendible
        closed_form = (1 - 3 * weight**2 + np.sqrt((1 + 3 * weight) * (1 - weight) ** 3)) / 4
        assert _extension_margin(werner_matrix(weight)) == pytest.approx(closed_form, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_pure_entangled_states_never_pass(self, seed):
        psi = random_pure((2, 2), np.random.default_rng(seed), ("A", "B")).density()
        assert not _b_extendible(psi)
        report = distillation_rate_lower_bound(StateSet((psi,)), restarts=1, maxiter=5).report
        assert report.metadata["zero_witness"] is None

    @pytest.mark.parametrize("k", [1, 2])
    def test_no_witness_on_werner_hulls_above_two_thirds(self, k):
        members = tuple(state(werner_matrix(w), (2, 2), ("A", "B")) for w in (0.67, 0.9))
        report = distillation_rate_lower_bound(StateSet(members), k, restarts=1, maxiter=5).report
        assert report.metadata["zero_witness"] is None
        assert report.metadata["restarts"] == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_extendible_hull_skips_the_search(self, seed):
        xs = distill_bench_set(seed)
        report = distillation_rate_lower_bound(xs, k=1, n_outcomes=2, seed=seed).report
        meta = report.metadata
        assert _extension_margin(convex_mixture(xs, meta["zero_witness"]).matrix) > 1e-9
        assert meta["restarts"] == meta["outer_iterations"] == meta["outer_evaluations"] == 0
        assert meta["outer_stop_reasons"] == []
        assert meta["trivial_baseline"] <= report.value <= 1e-12
        assert meta["candidate"] == "trace-and-replace"

    def test_witness_at_the_least_coherent_point(self):
        # Werner(0.9) and its image under Z on B, 0.9 Phi- + 0.1 I/4: neither
        # vertex passes (0.9 > 2/3), but their midpoint, the hull point of
        # least coherent information by symmetry, is Bell diagonal with
        # weights (0.475, 0.475, 0.025, 0.025) and passes
        flip = np.diag([1.0, -1.0, 1.0, -1.0])
        mats = (werner_matrix(0.9), flip @ werner_matrix(0.9) @ flip)
        xs = StateSet(tuple(state(m, (2, 2), ("A", "B")) for m in mats))
        assert not any(_b_extendible(m) for m in xs.members)
        report = distillation_rate_lower_bound(xs, restarts=1, maxiter=5).report
        assert report.metadata["restarts"] == 0
        assert report.metadata["zero_witness"] == pytest.approx([0.5, 0.5], abs=1e-3)
        assert report.value <= 1e-12

    def test_two_letter_search_is_skipped(self):
        # the search at the default 8 restarts makes about 1600 k=2 outer
        # iterations on this set; without it the call takes milliseconds
        start = time.perf_counter()
        report = distillation_rate_lower_bound(distill_bench_set(7000), k=2, n_outcomes=2).report
        assert time.perf_counter() - start < 0.5
        assert report.metadata["restarts"] == 0
        assert report.metadata["zero_witness"] is not None and report.value <= 1e-12

    def test_rounding_level_restart_win_is_gone(self):
        # this set once reported restart-1 at 5.6e-16 over trace-and-replace
        report = distillation_rate_lower_bound(
            distill_bench_set(203), k=1, n_outcomes=2, restarts=2, seed=203
        ).report
        assert report.metadata["candidate"] == "trace-and-replace"
        assert report.metadata["zero_witness"] is not None
        assert report.value <= 0


class TestWorstCase:
    def test_singleton_single_evaluation(self):
        from avqsbench.rate_gap import known_pure_state_merging

        xs = StateSet((bell_pair().density(),))
        protocol = known_pure_state_merging(bell_pair().density(), 1)
        value, word = worst_case_protocol_fidelity(protocol, xs, 1)
        assert word == (0,)
        assert value == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("l", [1, 2])
    def test_word_values_match_dense_word_states(self, l):
        xs = StateSet(
            tuple(random_density([2, 2], rng, rank=r, parties=("A", "B")) for r in (1, 2, 3, 4))
        )
        protocol = _random_merging_protocol(l)
        words = list(itertools.product(range(xs.n), repeat=l))
        values = word_fidelities(protocol, xs, words)
        dense = [merging_fidelity(protocol, xs.word_state(w)) for w in words]
        assert np.max(np.abs(np.array(values) - dense)) <= 1e-10
        value, word = worst_case_protocol_fidelity(protocol, xs, l)
        assert value == min(values) and word == words[int(np.argmin(values))]

    def test_zero_weight_sending_branch_is_pruned_exactly(self):
        # members live on span{|0>,|1>} of a qutrit sending side, so the
        # outcome projecting onto |2> never fires
        embed = np.eye(3)[:, :2]
        lift = np.kron(embed, np.eye(2))
        xs = StateSet(
            tuple(
                state(lift @ random_density([2, 2], rng).matrix @ lift.T, (3, 2), ("A", "B"))
                for _ in range(2)
            )
        )
        fires = [CpMap((row @ embed.T,), (1, 3), (1,)) for row in random_instrument_kraus(rng, 2, 1, 2)]
        dead = CpMap((np.eye(3)[2:],), (1, 3), (1,))
        receiving = [CpMap(tuple(random_kraus_channel(rng, 2, 6, 2)), (1, 2), (1, 3, 2)) for _ in range(4)]

        def protocol(b_dead):
            locc = OneWayLoccChannel(Instrument((*fires, dead)), (*receiving[:2], b_dead))
            return MergingProtocol(locc, trivial_resource(), trivial_resource(), 1)

        words = [(0,), (1,)]
        pruned = word_fidelities(protocol(receiving[2]), xs, words)
        # the branch is as good as removed: its receiving channel is irrelevant
        assert word_fidelities(protocol(receiving[3]), xs, words) == pruned
        # and no weight is lost: the whole output state, assembled as a
        # matrix, has the same fidelity with the pure target
        resources = tensor_product(
            state(np.ones((1, 1)), (1,), ("A",)), state(np.ones((1, 1)), (1,), ("B",))
        )
        for value, rho in zip(pruned, xs.members):
            psi = purify(rho).density()
            out = apply_one_way_locc(protocol(receiving[2]).locc, tensor_product(resources, psi))
            assert value == pytest.approx(fidelity(out.matrix, psi.matrix), abs=1e-10)

    def test_rejects_words_longer_than_the_protocol(self):
        # the second letter's copy would otherwise be scored as environment
        xs = StateSet((bell_pair().density(),))
        protocol = known_pure_state_merging(bell_pair().density(), 1)
        assert word_fidelities(protocol, xs, [(0,)]) == pytest.approx([1.0], abs=1e-9)
        with pytest.raises(ValueError, match="source state"):
            word_fidelities(protocol, xs, [(0, 0)])

    def test_members_are_purified_once_and_not_rechecked(self, monkeypatch):
        xs = _random_set(3)
        protocol = _random_merging_protocol(2)
        words = list(itertools.product(range(xs.n), repeat=2))
        expected = word_fidelities(protocol, xs, words)
        purified = []

        def counting_purify(m):
            purified.append(m)
            return purify(m)

        def no_check(*args, **kwargs):
            raise AssertionError("a purification made by the package was checked again")

        monkeypatch.setattr(avqsbench.rates, "purify", counting_purify)
        for module in (avqsbench.channels, avqsbench.rates):
            monkeypatch.setattr(module, "check_purification", no_check, raising=False)
        assert word_fidelities(protocol, xs, words) == expected
        assert purified == list(xs.members)

    def test_word_dimension_cap_raises_before_any_evaluation(self, monkeypatch):
        xs = _random_set(2)
        protocol = _random_merging_protocol(2)

        def no_work(*args, **kwargs):
            raise AssertionError("a member or word was evaluated")

        monkeypatch.setattr(avqsbench.rates, "purify", no_work)
        monkeypatch.setattr(avqsbench.rates, "purified_merging_fidelity", no_work)
        with local_config(dim_cap=15), pytest.raises(DimensionCapError, match="word states"):
            worst_case_protocol_fidelity(protocol, xs, 2)

    def test_word_cap(self):
        xs = _random_set(3)
        with pytest.raises(DimensionCapError, match="enumeration cap"):
            worst_case_protocol_fidelity(None, xs, 9)

    def test_sample_is_held_to_the_word_cap(self, monkeypatch):
        xs = _random_set(2)
        monkeypatch.setattr(avqsbench.rates, "word_fidelities", lambda p, xs, words: [1.0] * len(words))
        assert worst_case_protocol_fidelity(None, xs, 1, sample=WORD_CAP)[0] == 1.0

        def no_draw(*args, **kwargs):
            raise AssertionError("a word was drawn")

        monkeypatch.setattr(avqsbench.rates.np.random, "default_rng", no_draw)
        with pytest.raises(DimensionCapError, match=f"{WORD_CAP + 1} sampled words exceed"):
            worst_case_protocol_fidelity(None, xs, 1, sample=WORD_CAP + 1)
