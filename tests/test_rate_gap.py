import itertools

import numpy as np
import pytest

from avqsbench.channels import (
    CpMap,
    MergingProtocol,
    OneWayLoccChannel,
    apply_cp_map,
    merging_fidelity,
)
from avqsbench.cli import main
from avqsbench.config import DimensionCapError, local_config
from avqsbench.entropy import conditional_entropy, von_neumann_entropy
from avqsbench.linalg import (
    bell_pair,
    maximally_mixed,
    partial_trace,
    state,
    tensor_power,
    tensor_product,
    trace_distance,
    trace_norm,
)
from avqsbench.rates import (
    StateSet,
    compound_classical_cost,
    compound_merging_cost,
    convex_mixture,
    word_fidelities,
    worst_case_protocol_fidelity,
)
from avqsbench.rate_gap import (
    OrthogonalFamily,
    build_orthogonal_family,
    discriminating_instrument,
    family_merging_protocol,
    known_pure_state_merging,
    rate_gap_report,
)

from helpers import dense_family_receiving_kraus

rng = np.random.default_rng(53)


def _rank2_negative_base():
    """Pure state on (4, 2) with a rank-2 sending marginal and S(A|B) < 0."""
    vec = np.zeros(8, dtype=complex)
    vec[0] = 1 / np.sqrt(2)  # |0>_A |0>_B
    vec[3] = 1 / np.sqrt(2)  # |1>_A |1>_B
    return state(np.outer(vec, vec.conj()), (4, 2), ("A", "B"))


def _complex_support_base():
    """Pure state on (4, 2) whose sending marginal has a complex support,
    spanned by (|0> + i|2>)/sqrt(2) and |1>, with S(A|B) < 0."""
    u = np.array([1, 0, 1j, 0]) / np.sqrt(2)
    vec = (np.kron(u, [1, 0]) + np.kron([0, 1, 0, 0], [0, 1])) / np.sqrt(2)
    return state(np.outer(vec, vec.conj()), (4, 2), ("A", "B"))


class TestBuildFamily:
    def test_bell_base_two_members(self):
        fam = build_orthogonal_family(bell_pair().density(), 2)
        assert fam.members.dims == (4, 2)
        assert fam.support_rank == 2
        a0 = partial_trace(fam.members.members[0], [0]).matrix
        a1 = partial_trace(fam.members.members[1], [0]).matrix
        assert trace_norm(a0 @ a1) <= 1e-10

    def test_single_member_family_is_the_base(self):
        fam = build_orthogonal_family(bell_pair().density(), 1)
        assert fam.n == 1
        assert np.array_equal(fam.shift(0), np.arange(2))
        assert trace_distance(fam.members.members[0], bell_pair().density()) < 1e-10

    def test_three_members_rank_two_marginal(self):
        fam = build_orthogonal_family(_rank2_negative_base(), 3)
        assert fam.members.dims[0] == 6
        for i in range(3):
            for j in range(i + 1, 3):
                a_i = partial_trace(fam.members.members[i], [0]).matrix
                a_j = partial_trace(fam.members.members[j], [0]).matrix
                assert trace_norm(a_i @ a_j) <= 1e-10

    def test_receiving_marginals_all_equal(self):
        fam = build_orthogonal_family(bell_pair().density(), 3)
        reference = partial_trace(fam.members.members[0], [1])
        for member in fam.members.members[1:]:
            assert trace_distance(partial_trace(member, [1]), reference) < 1e-9

    def test_rejects_nonnegative_conditional_entropy(self):
        product = tensor_product(maximally_mixed(2, "A"), maximally_mixed(2, "B"))
        with pytest.raises(ValueError, match="negative conditional entropy"):
            build_orthogonal_family(product, 2)


class TestFamilyPreflight:
    def test_members_over_the_entry_cap_are_refused(self):
        # Bell base: N members of dimension 4N hold 16 N^3 entries, over
        # 4096^2 from N = 102 on
        with pytest.raises(DimensionCapError, match="entries"):
            build_orthogonal_family(bell_pair().density(), 102)
        with local_config(dim_cap=64):
            with pytest.raises(DimensionCapError, match="entries"):
                build_orthogonal_family(bell_pair().density(), 7)
            assert build_orthogonal_family(bell_pair().density(), 6).n == 6

    def test_cli_exits_with_the_cap_code(self, capsys):
        assert main(["example-gap", "--N", "1024", "--blocklength", "1"]) == 3
        assert "entries" in capsys.readouterr().err


class TestTamperedFamily:
    """A family altered after construction fails the end-to-end check."""

    def test_member_that_is_not_the_shifted_base_is_rejected(self):
        fam = build_orthogonal_family(bell_pair().density(), 2)
        phi_minus = np.array([1, 0, 0, -1]) / np.sqrt(2)
        other = build_orthogonal_family(state(np.outer(phi_minus, phi_minus), (2, 2), ("A", "B")), 2)
        swapped = other.members.members[1]
        # orthogonal supports and equal receiving marginals, as before
        a0 = partial_trace(fam.members.members[0], [0]).matrix
        assert trace_norm(a0 @ partial_trace(swapped, [0]).matrix) <= 1e-12
        assert trace_distance(partial_trace(swapped, [1]), partial_trace(fam.members.members[1], [1])) <= 1e-12
        tampered = OrthogonalFamily(
            fam.base, fam.n, fam.embed, StateSet((fam.members.members[0], swapped), fam.members.labels)
        )
        report = rate_gap_report(tampered, l=1).to_dict()
        assert report["passed"] is False
        assert report["protocol"]["worst_case_fidelity"] <= 1e-9
        assert report["protocol"]["worst_word"] == [1]


class TestDiscriminatingInstrument:
    def test_recovers_base_on_matching_outcome(self):
        fam = build_orthogonal_family(bell_pair().density(), 2)
        inst = discriminating_instrument(fam)
        for s, member in enumerate(fam.members.members):
            out, weight = apply_cp_map(inst.outcomes[s], member, [0])
            assert weight == pytest.approx(1.0, abs=1e-10)
            assert trace_norm(out.matrix - fam.base.matrix) <= 1e-9

    def test_zero_weight_on_mismatched_outcome(self):
        fam = build_orthogonal_family(bell_pair().density(), 3)
        inst = discriminating_instrument(fam)
        for s, member in enumerate(fam.members.members):
            for t, outcome in enumerate(inst.outcomes):
                if t != s:
                    _, weight = apply_cp_map(outcome, member, [0])
                    assert weight <= 1e-10

    def test_mixture_weights_follow_mixing_probabilities(self):
        fam = build_orthogonal_family(bell_pair().density(), 2)
        inst = discriminating_instrument(fam)
        p = rng.dirichlet([1, 1])
        mixed = convex_mixture(fam.members, p)
        weights = [apply_cp_map(outcome, mixed, [0])[1] for outcome in inst.outcomes]
        assert weights == pytest.approx(list(p), abs=1e-9)


class TestKnownPureStateMerging:
    def test_bell_single_copy(self):
        protocol = known_pure_state_merging(bell_pair().density(), 1)
        assert merging_fidelity(protocol, bell_pair().density()) == pytest.approx(1.0, abs=1e-9)
        assert protocol.entanglement_rate == pytest.approx(
            conditional_entropy(bell_pair().density()).value, abs=1e-9
        )
        assert protocol.message_count == 1

    def test_product_pure_state(self):
        vec = np.kron([1.0, 0.0], [0.0, 1.0])
        product = state(np.outer(vec, vec), (2, 2), ("A", "B"))
        protocol = known_pure_state_merging(product, 1)
        assert protocol.resource_ratio == 1
        assert merging_fidelity(protocol, product) == pytest.approx(1.0, abs=1e-10)

    def test_bell_two_copies_rank_four_resource(self):
        protocol = known_pure_state_merging(bell_pair().density(), 2)
        assert protocol.phi_out.dims == (4, 4)
        assert protocol.entanglement_rate == pytest.approx(-1.0, abs=1e-12)
        assert merging_fidelity(protocol, tensor_power(bell_pair().density(), 2)) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_rejects_mixed_input(self):
        mixed = tensor_product(maximally_mixed(2, "A"), maximally_mixed(2, "B"))
        with pytest.raises(ValueError, match="pure"):
            known_pure_state_merging(mixed, 1)

    def test_rejects_skew_schmidt_spectrum(self):
        vec = np.array([np.sqrt(0.9), 0, 0, np.sqrt(0.1)])
        skew = state(np.outer(vec, vec), (2, 2), ("A", "B"))
        with pytest.raises(ValueError, match="flat Schmidt"):
            known_pure_state_merging(skew, 1)


class TestFamilyProtocol:
    def test_two_members_single_copy(self):
        fam = build_orthogonal_family(bell_pair().density(), 2)
        sub = known_pure_state_merging(bell_pair().density(), 1)
        protocol = family_merging_protocol(fam, sub)
        assert protocol.message_count == 2
        for member in fam.members.members:
            assert merging_fidelity(protocol, member) == pytest.approx(1.0, abs=1e-9)

    def test_single_member_family_keeps_message_count(self):
        fam = build_orthogonal_family(bell_pair().density(), 1)
        sub = known_pure_state_merging(bell_pair().density(), 1)
        protocol = family_merging_protocol(fam, sub)
        assert protocol.message_count == sub.message_count

    def test_message_count_is_family_size_power(self):
        fam = build_orthogonal_family(bell_pair().density(), 2)
        sub = known_pure_state_merging(bell_pair().density(), 2)
        protocol = family_merging_protocol(fam, sub)
        assert protocol.message_count == 2**2 * sub.message_count

    def test_every_word_matches_subprotocol_fidelity(self):
        fam = build_orthogonal_family(bell_pair().density(), 2)
        sub = known_pure_state_merging(bell_pair().density(), 2)
        protocol = family_merging_protocol(fam, sub)
        reference = merging_fidelity(sub, tensor_power(bell_pair().density(), 2))
        for word in itertools.product(range(2), repeat=2):
            rho = fam.members.word_state(word)
            assert merging_fidelity(protocol, rho) == pytest.approx(reference, abs=1e-9)

    def test_rank_deficient_base_keeps_channels_trace_preserving(self):
        fam = build_orthogonal_family(_rank2_negative_base(), 2)
        sub = known_pure_state_merging(_rank2_negative_base(), 1)
        protocol = family_merging_protocol(fam, sub)
        value, _ = worst_case_protocol_fidelity(protocol, fam.members, 1)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_word_dimension_cap_raises_before_building(self):
        # N=8 l=3 word states have dimension (16 * 2)^3 = 32768, over the
        # default cap of 4096; the protocol is refused before any of its 512
        # sending outcomes is built
        fam = build_orthogonal_family(bell_pair().density(), 8)
        sub = known_pure_state_merging(bell_pair().density(), 3)
        with pytest.raises(DimensionCapError, match="word states"):
            family_merging_protocol(fam, sub)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("l", [1, 2])
    @pytest.mark.parametrize("base", [bell_pair().density(), _rank2_negative_base()], ids=["bell", "rank2"])
    def test_receiving_kraus_match_dense_restore(self, base, n, l):
        fam = build_orthogonal_family(base, n)
        sub = known_pure_state_merging(base, l)
        protocol = family_merging_protocol(fam, sub)
        dense = dense_family_receiving_kraus(fam, sub, l)
        assert len(dense) == len(protocol.locc.b_channels) == len(protocol.mirrors)
        eye_k1b = np.eye(sub.phi_out.dims[1])
        eye_b = np.eye(base.dims[1])
        for channel, maps, expected in zip(protocol.locc.b_channels, protocol.mirrors, dense):
            # the receiving channel followed by the mirror maps, expanded densely
            expanded = []
            for ops in itertools.product(*(x.kraus for x in maps)):
                g = eye_k1b
                for op in ops:
                    g = np.kron(g, np.kron(op, eye_b))
                expanded.extend(g @ kb for kb in channel.kraus)
            assert len(expanded) == len(expected)
            for k, ref in zip(expanded, expected):
                assert k.shape == ref.shape
                assert np.max(np.abs(k - ref)) <= 1e-12


    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("l", [1, 2])
    @pytest.mark.parametrize(
        "base",
        [bell_pair().density(), _rank2_negative_base(), _complex_support_base()],
        ids=["bell", "rank2", "complex"],
    )
    def test_fidelities_match_the_dense_protocol(self, base, n, l):
        # the same protocol with the mirror maps multiplied into dense
        # receiving operators and no mirror maps left
        fam = build_orthogonal_family(base, n)
        sub = known_pure_state_merging(base, l)
        protocol = family_merging_protocol(fam, sub)
        out_dims = protocol.locc.b_channels[0].out_dims[:1] + (fam.enlarged_dim, base.dims[1]) * l
        dense = MergingProtocol(
            OneWayLoccChannel(
                protocol.locc.a_instrument,
                tuple(
                    CpMap(tuple(ks), channel.in_dims, out_dims)
                    for channel, ks in zip(protocol.locc.b_channels, dense_family_receiving_kraus(fam, sub, l))
                ),
            ),
            protocol.phi_in,
            protocol.phi_out,
            l,
        )
        words = list(itertools.product(range(n), repeat=l))
        got = word_fidelities(protocol, fam.members, words)
        expected = word_fidelities(dense, fam.members, words)
        assert np.max(np.abs(np.array(got) - np.array(expected))) <= 1e-12
        assert min(got) >= 1 - 1e-9

    def test_mirror_maps_must_be_channels(self):
        fam = build_orthogonal_family(_rank2_negative_base(), 2)
        protocol = family_merging_protocol(fam, known_pure_state_merging(_rank2_negative_base(), 1))
        leaky = CpMap(protocol.mirrors[0][0].kraus[:1], (4,), (fam.enlarged_dim,))
        fields = (protocol.locc, protocol.phi_in, protocol.phi_out, protocol.blocklength)
        with pytest.raises(ValueError, match="mirror maps must be channels"):
            MergingProtocol(*fields, mirrors=((leaky,),) + protocol.mirrors[1:])
        with pytest.raises(ValueError, match="one channel per copy"):
            MergingProtocol(*fields, mirrors=protocol.mirrors[1:])


class TestOrthogonalSupportEntropyIdentity:
    def test_mixture_entropy_decomposes(self):
        for n in (2, 3):
            fam = build_orthogonal_family(bell_pair().density(), n)
            for _ in range(5):
                p = rng.dirichlet([1] * n)
                mixed = von_neumann_entropy(convex_mixture(fam.members, p)).value
                expected = sum(
                    float(q) * von_neumann_entropy(m).value
                    for q, m in zip(p, fam.members.members)
                ) + float(-(p * np.log2(p)).sum())
                assert mixed == pytest.approx(expected, abs=1e-8)


class TestRateGapReport:
    def test_bell_family_of_two(self):
        fam = build_orthogonal_family(bell_pair().density(), 2)
        report = rate_gap_report(fam, l=1)
        assert report.passed
        assert report.hull_merging_numeric == pytest.approx(report.hull_merging_closed, abs=1e-6)
        assert report.hull_classical_numeric == pytest.approx(
            report.hull_classical_closed, abs=1e-6
        )
        assert report.merging_gap == pytest.approx(1.0, abs=1e-6)
        assert report.classical_gap == pytest.approx(1.0, abs=1e-6)
        assert report.worst_case_fidelity >= 1 - 1e-9

    def test_maximizer_is_uniform(self):
        fam = build_orthogonal_family(bell_pair().density(), 2)
        report = rate_gap_report(fam, l=1)
        tv = 0.5 * sum(abs(w - 0.5) for w in report.hull_merging_weights)
        assert tv <= 1e-4

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_hull_costs_certified_at_uniform_weights(self, n):
        members = build_orthogonal_family(bell_pair().density(), n).members
        closed = {compound_merging_cost: -1.0 + np.log2(n), compound_classical_cost: 2 * np.log2(n)}
        for cost, value in closed.items():
            report = cost(members, hull=True)
            assert report.metadata["stop_reason"] == "gap"
            assert report.metadata["duality_gap"] <= 1e-9
            assert np.max(np.abs(np.array(report.weights) - 1.0 / n)) <= 1e-12
            assert report.value == pytest.approx(value, abs=1e-9)

    def test_family_of_four_gap_is_two(self):
        fam = build_orthogonal_family(bell_pair().density(), 4)
        report = rate_gap_report(fam, l=1)
        assert report.merging_gap == pytest.approx(2.0, abs=1e-6)
        assert report.classical_gap == pytest.approx(2.0, abs=1e-6)
        assert report.passed
