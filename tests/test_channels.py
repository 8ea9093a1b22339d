import numpy as np
import pytest

from avqsbench.channels import (
    CpMap,
    Instrument,
    MergingProtocol,
    OneWayLoccChannel,
    apply_cp_map,
    apply_one_way_locc,
    compose_instrument_with_protocols,
    identity_channel,
    identity_instrument,
    instrument_statistics,
    merging_fidelity,
    permutation_channel,
    trivial_resource,
)
from avqsbench.linalg import (
    PureState,
    bell_pair,
    fidelity,
    maximally_entangled,
    maximally_mixed,
    purify,
    random_density,
    random_unitary,
    state,
    tensor_product,
    trace_distance,
)
from avqsbench.rate_gap import known_pure_state_merging
from avqsbench.rates import StateSet, word_fidelities
from avqsbench.schur_weyl import build_entropy_instrument

from helpers import (
    bin_probability,
    bin_projector,
    embed_operator,
    projective_instrument,
    random_instrument_kraus,
    random_kraus_channel,
    random_pure,
    resource_ratio,
    tensor_power,
    to_instrument,
    unitary_channel,
)

rng = np.random.default_rng(11)


class TestCpMapValidation:
    def test_rejects_trace_increasing(self):
        with pytest.raises(ValueError, match="increases trace"):
            CpMap((np.eye(2) * 1.1,))

    def test_wide_operators_checked_on_the_small_gram(self):
        # three 1x4 rows stack to 3x4: the bound is read off the 3x3 side
        rows = [np.eye(4)[i : i + 1] for i in range(3)]
        assert not CpMap(tuple(rows), (4,), (1,)).is_trace_preserving
        with pytest.raises(ValueError, match="increases trace"):
            CpMap((1.1 * rows[0],) + tuple(rows[1:]), (4,), (1,))

    def test_trace_preserving_flag(self):
        assert identity_channel((2,)).is_trace_preserving
        half = CpMap((np.eye(2) / np.sqrt(2),))
        assert not half.is_trace_preserving

    def test_instrument_must_sum_to_channel(self):
        half = CpMap((np.eye(2) / np.sqrt(2),))
        with pytest.raises(ValueError, match="sum to a channel"):
            Instrument((half,))


class TestApplyCpMap:
    def test_identity(self):
        rho = random_density([2, 2], rng)
        out, weight = apply_cp_map(identity_channel((2,)), rho, [1])
        assert weight == pytest.approx(1.0, abs=1e-12)
        # output convention: the map's factor moves to the front
        from avqsbench.linalg import permute_factors

        assert trace_distance(permute_factors(out, [1, 0]), rho) < 1e-12

    def test_depolarize_to_maximally_mixed(self):
        kraus = tuple(
            np.outer(np.eye(2)[:, i], np.eye(2)[j, :]) / np.sqrt(2) for i in range(2) for j in range(2)
        )
        channel = CpMap(kraus, (2,), (2,))
        psi = random_pure([2], rng).density()
        out, _ = apply_cp_map(channel, psi, [0])
        assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-12)

    def test_matches_embedded_operator_sum(self):
        # oracle: lift every Kraus operator to the full space explicitly
        rho = random_density([2, 3, 2], rng)
        kraus = random_kraus_channel(rng, 3, 3, 2)
        channel = CpMap(tuple(kraus), (3,), (3,))
        out, _ = apply_cp_map(channel, rho, [1])
        # output convention puts the map's factor first
        expected_front = sum(
            embed_operator(k, rho.dims, [1]) @ rho.matrix @ embed_operator(k, rho.dims, [1]).conj().T
            for k in kraus
        )
        from avqsbench.linalg import permute_factors

        back = permute_factors(out, [1, 0, 2])  # back to (2, 3, 2) order
        assert np.max(np.abs(back.matrix - expected_front)) < 1e-10

    def test_subnormalized_weight(self):
        proj = CpMap((np.diag([1.0, 0.0]),), (2,), (2,))
        out, weight = apply_cp_map(proj, maximally_mixed(2), [0])
        assert weight == pytest.approx(0.5, abs=1e-12)
        assert out.trace() == pytest.approx(0.5, abs=1e-12)

    def test_dim_mismatch(self):
        rho = random_density([2, 2], rng)
        with pytest.raises(ValueError, match="map expects"):
            apply_cp_map(identity_channel((3,)), rho, [0])


class TestInstrumentStatistics:
    def test_single_outcome_identity(self):
        rho = random_density([2, 2], rng)
        stats = instrument_statistics(identity_instrument((2,)), rho, [0])
        assert len(stats) == 1
        assert stats[0].index == 0
        assert stats[0].probability == pytest.approx(1.0, abs=1e-12)
        assert trace_distance(stats[0].state, rho) < 1e-10

    def test_projective_on_maximally_mixed(self):
        inst = projective_instrument([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        stats = instrument_statistics(inst, maximally_mixed(2), [0])
        assert [s.probability for s in stats] == pytest.approx([0.5, 0.5], abs=1e-12)
        assert np.allclose(stats[0].state.matrix, np.diag([1.0, 0.0]))

    def test_probabilities_sum_to_one(self):
        kraus = random_instrument_kraus(rng, 4, 4, 3)
        inst = Instrument(tuple(CpMap((k,), (4,), (4,)) for k in kraus))
        rho = random_density([2, 2], rng)
        stats = instrument_statistics(inst, rho, [0, 1])
        assert sum(s.probability for s in stats) == pytest.approx(1.0, abs=1e-9)

    def test_entropy_instrument_cross_module(self):
        # cross-module oracle: probabilities equal direct projector traces on
        # the interleaved tensor power
        inst = build_entropy_instrument(3, 2, 0.4)
        rho = random_density([2, 2], rng, parties=("A", "B"))
        powered = tensor_power(rho, 3)
        stats = instrument_statistics(to_instrument(inst), powered, [0, 2, 4])
        for stat, b in zip(stats, inst.bins):
            lifted = embed_operator(bin_projector(inst, b), powered.dims, [0, 2, 4])
            expected = float(np.trace(lifted @ powered.matrix).real)
            assert stat.probability == pytest.approx(expected, abs=1e-10)


class TestOneWayLocc:
    def _dephasing_channel(self):
        t = projective_instrument([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        return OneWayLoccChannel(t, (identity_channel((2,)), identity_channel((2,))))

    def test_projective_sender_dephases(self):
        locc = self._dephasing_channel()
        rho = random_density([2, 2], rng, parties=("A", "B"))
        out = apply_one_way_locc(locc, rho)
        p0 = embed_operator(np.diag([1.0, 0.0]), (2, 2), [0])
        p1 = embed_operator(np.diag([0.0, 1.0]), (2, 2), [0])
        expected = p0 @ rho.matrix @ p0 + p1 @ rho.matrix @ p1
        assert np.max(np.abs(out.matrix - expected)) < 1e-10

    def test_single_outcome_identity(self):
        locc = OneWayLoccChannel(identity_instrument((2,)), (identity_channel((2,)),))
        rho = random_density([2, 2], rng, parties=("A", "B"))
        out = apply_one_way_locc(locc, rho)
        assert trace_distance(out, rho) < 1e-12

    def test_linearity_on_mixtures(self):
        locc = self._dephasing_channel()
        a = random_density([2, 2], rng, parties=("A", "B"))
        b = random_density([2, 2], rng, parties=("A", "B"))
        mix = state(0.25 * a.matrix + 0.75 * b.matrix, (2, 2), ("A", "B"))
        lhs = apply_one_way_locc(locc, mix).matrix
        rhs = 0.25 * apply_one_way_locc(locc, a).matrix + 0.75 * apply_one_way_locc(locc, b).matrix
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_preserves_trace(self):
        kraus = random_instrument_kraus(rng, 2, 2, 2)
        inst = Instrument(tuple(CpMap((k,), (2,), (2,)) for k in kraus))
        b_channels = tuple(
            CpMap(tuple(random_kraus_channel(rng, 2, 2, 2)), (2,), (2,)) for _ in range(2)
        )
        locc = OneWayLoccChannel(inst, b_channels)
        rho = random_density([2, 2], rng, parties=("A", "B"))
        assert apply_one_way_locc(locc, rho).trace() == pytest.approx(1.0, abs=1e-9)

    def test_message_count_mismatch(self):
        with pytest.raises(ValueError, match="receiving channels"):
            OneWayLoccChannel(identity_instrument((2,)), ())


def test_unitary_channel_conjugates():
    u = random_unitary(2, rng)
    rho = random_density([2], rng)
    out, weight = apply_cp_map(unitary_channel(u), rho, [0])
    assert weight == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(out.matrix - u @ rho.matrix @ u.conj().T)) < 1e-12


class TestPermutationChannel:
    def test_identity_permutation(self):
        chan = permutation_channel([0, 1], 2)
        assert np.allclose(chan.kraus[0], np.eye(4))

    def test_swap(self):
        a = random_density([2], rng)
        b = random_density([2], rng)
        out, _ = apply_cp_map(permutation_channel([1, 0], 2), tensor_product(a, b), [0, 1])
        assert trace_distance(out, tensor_product(b, a)) < 1e-12

    def test_three_cycle_reorders_by_index(self):
        # oracle: rho_{sigma(word)} places factor sigma(j) at slot j
        sigma = [2, 0, 1]
        states = [random_density([2], rng) for _ in range(3)]
        product_in = tensor_product(tensor_product(states[0], states[1]), states[2])
        out, _ = apply_cp_map(permutation_channel(sigma, 2), product_in, [0, 1, 2])
        expected = tensor_product(tensor_product(states[2], states[0]), states[1])
        assert trace_distance(out, expected) < 1e-12

    def test_unitary(self):
        chan = permutation_channel([1, 2, 0], 2)
        u = chan.kraus[0]
        assert np.allclose(u @ u.conj().T, np.eye(8))


def _reprepare_protocol(prepared_vector: np.ndarray) -> MergingProtocol:
    """l=1 protocol: sender discards, receiver keeps B and prepares a fixed
    vector on the mirror factor."""
    kraus_a = tuple(np.eye(2)[i].reshape(1, 2) for i in range(2))
    instrument = Instrument((CpMap(kraus_a, (1, 2), (1,)),))
    kb = np.kron(prepared_vector.reshape(2, 1), np.eye(2))
    b_channel = CpMap((kb,), (1, 2), (1, 2, 2))
    return MergingProtocol(
        OneWayLoccChannel(instrument, (b_channel,)), trivial_resource(), trivial_resource(), 1
    )


class TestMergingFidelity:
    def test_reprepared_product_state_reaches_one(self):
        vec = random_pure([2], rng).vector
        rho = tensor_product(
            state(np.outer(vec, vec.conj()), (2,), ("A",)),
            random_density([2], rng, parties=("B",)),
        )
        protocol = _reprepare_protocol(vec)
        assert merging_fidelity(protocol, rho) == pytest.approx(1.0, abs=1e-10)

    def test_faint_sending_branch_counts(self):
        # the second sending Kraus operator has weight 1e-13 on this source,
        # and its branch reprepares the source as well as the first: the
        # fidelity is 1, and a cutoff on branch weights would lose 1e-13
        vec = np.array([np.sqrt(1 - 1e-13), np.sqrt(1e-13)])
        protocol = _reprepare_protocol(vec)
        rho = tensor_product(
            state(np.outer(vec, vec), (2,), ("A",)), random_density([2], rng, parties=("B",))
        )
        psi = purify(rho)
        out = apply_one_way_locc(protocol.locc, tensor_product(protocol.phi_in.density(), psi.density()))
        target = np.kron(protocol.phi_out.vector, psi.vector)
        dense = np.vdot(target, out.matrix @ target).real
        assert abs(merging_fidelity(protocol, rho, purification=psi) - dense) <= 1e-15

    def test_discard_on_correlated_state_stays_below_one(self):
        protocol = _reprepare_protocol(np.array([1.0, 0.0]))
        value = merging_fidelity(protocol, bell_pair().density())
        assert value < 0.5

    def test_known_pure_state_merging_of_bell(self):
        protocol = known_pure_state_merging(bell_pair().density(), 1)
        assert merging_fidelity(protocol, bell_pair().density()) == pytest.approx(1.0, abs=1e-9)

    def test_purification_independence(self):
        protocol = _reprepare_protocol(np.array([1.0, 0.0]))
        rho = random_density([2, 2], rng, parties=("A", "B"))
        psi = purify(rho)
        reference = merging_fidelity(protocol, rho)
        u = random_unitary(psi.dims[-1], rng)
        rotated = PureState(
            (psi.vector.reshape(-1, psi.dims[-1]) @ u.T).reshape(-1), psi.dims, psi.parties
        )
        assert merging_fidelity(protocol, rho, purification=rotated) == pytest.approx(
            reference, abs=1e-9
        )

    def test_purification_independence_with_enlarged_environment(self):
        # isometry into a strictly larger environment is also a purification
        protocol = _reprepare_protocol(np.array([1.0, 0.0]))
        rho = random_density([2, 2], rng, parties=("A", "B"))
        psi = purify(rho)
        reference = merging_fidelity(protocol, rho)
        r = psi.dims[-1]
        iso = random_unitary(r + 2, rng)[:, :r]
        enlarged = PureState(
            (psi.vector.reshape(-1, r) @ iso.T).reshape(-1),
            psi.dims[:-1] + (r + 2,),
            psi.parties,
        )
        assert merging_fidelity(protocol, rho, purification=enlarged) == pytest.approx(
            reference, abs=1e-9
        )

    def test_against_matrix_fidelity_path(self):
        # oracle: assemble the full output state with apply_one_way_locc and
        # compare the general fidelity against the relabeled target
        protocol = _reprepare_protocol(np.array([np.sqrt(0.3), np.sqrt(0.7)]))
        rho = random_density([2, 2], rng, parties=("A", "B"))
        psi = purify(rho)
        fast = merging_fidelity(protocol, rho)

        inp = tensor_product(
            tensor_product(
                state(np.ones((1, 1)), (1,), ("A",)), state(np.ones((1, 1)), (1,), ("B",))
            ),
            psi.density(),
        )
        out = apply_one_way_locc(protocol.locc, inp)
        target = np.kron(protocol.phi_out.vector, psi.vector)
        # rearrange target factors (K1A, K1B, B', B, E) to the output order
        # (K1A, K1B, B', B, E) -- identical here since the sender keeps one factor
        t_dims = protocol.phi_out.dims + psi.dims
        slow = fidelity(out.matrix, np.outer(target, target.conj()))
        assert out.dims == t_dims
        assert fast == pytest.approx(slow, abs=1e-9)

    def test_rank_two_resource_against_matrix_fidelity_path(self):
        # phi_in = Phi_2 puts K0_B inside the receiving block (K0_B, B_1, B_2);
        # several Kraus operators per outcome on both sides, and an
        # environment larger than the source's rank
        l, d, n_outcomes = 2, 2, 2
        d_in, d_out = 2 * d**l, 2 * d ** (2 * l)
        copies = (d,) * l
        sending = random_kraus_channel(rng, d_in, 2, 2 * n_outcomes)
        instrument = Instrument(
            tuple(CpMap(tuple(sending[2 * j : 2 * j + 2]), (2,) + copies, (2,)) for j in range(n_outcomes))
        )
        b_channels = tuple(
            CpMap(tuple(random_kraus_channel(rng, d_in, d_out, 3)), (2,) + copies, (2,) + (d, d) * l)
            for _ in range(n_outcomes)
        )
        phi = maximally_entangled(2)
        protocol = MergingProtocol(OneWayLoccChannel(instrument, b_channels), phi, phi, l)
        rho = random_density([d, d] * l, rng, rank=3, parties=("A", "B") * l)
        psi = purify(rho)
        r = psi.dims[-1]
        iso = random_unitary(r + 2, rng)[:, :r]
        enlarged = PureState(
            (psi.vector.reshape(-1, r) @ iso.T).reshape(-1), psi.dims[:-1] + (r + 2,), psi.parties
        )
        fast = merging_fidelity(protocol, rho, purification=enlarged)

        # input factors (K0_A, K0_B, A_1, B_1, A_2, B_2, E); output factors
        # (K1_A, K1_B, B'_1, B_1, B'_2, B_2, E), the order of phi_out x psi'
        inp = tensor_product(phi.density(), enlarged.density())
        out = apply_one_way_locc(protocol.locc, inp)
        target = np.kron(phi.vector, enlarged.vector)
        slow = fidelity(out.matrix, np.outer(target, target.conj()))
        assert out.dims == phi.dims + enlarged.dims
        assert 1e-3 < fast < 1 - 1e-3
        assert fast == pytest.approx(slow, abs=1e-10)

    def test_rejects_non_purification(self):
        protocol = _reprepare_protocol(np.array([1.0, 0.0]))
        rho = random_density([2, 2], rng, parties=("A", "B"))
        other = purify(random_density([2, 2], rng, parties=("A", "B")))
        with pytest.raises(ValueError, match="does not purify"):
            merging_fidelity(protocol, rho, purification=other)

    def test_rejects_wrong_source_shape(self):
        protocol = _reprepare_protocol(np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="source state"):
            merging_fidelity(protocol, random_density([2, 2], rng, parties=("A", "A")))

    def test_rejects_source_with_an_extra_factor(self):
        # the purified path accepts only environment factors labelled E after
        # the 2l copies, so a third source factor cannot pass as environment
        protocol = known_pure_state_merging(bell_pair().density(), 1)
        source = tensor_product(bell_pair().density(), maximally_mixed(2, "C"))
        with pytest.raises(ValueError, match="source state"):
            merging_fidelity(protocol, source)

    def test_factors_labelled_e_are_environment(self):
        protocol = _reprepare_protocol(np.array([np.sqrt(0.3), np.sqrt(0.7)]))
        rho = random_density([2, 2], rng, parties=("A", "B"))
        with_env = tensor_product(rho, random_density([3], rng, parties=("E",)))
        assert merging_fidelity(protocol, with_env) == pytest.approx(
            merging_fidelity(protocol, rho), abs=1e-12
        )

    def test_rejects_supplied_environment_not_labelled_e(self):
        protocol = _reprepare_protocol(np.array([1.0, 0.0]))
        rho = random_density([2, 2], rng, parties=("A", "B"))
        psi = purify(rho)
        relabeled = PureState(psi.vector, psi.dims, ("A", "B", "R"))
        with pytest.raises(ValueError, match="source state"):
            merging_fidelity(protocol, rho, purification=relabeled)


class TestMergingProtocolValidation:
    def test_phi_must_be_maximally_entangled(self):
        kraus_a = tuple(np.eye(2)[i].reshape(1, 2) for i in range(2))
        instrument = Instrument((CpMap(kraus_a, (1, 2), (1,)),))
        kb = np.kron(np.array([[1.0], [0.0]]), np.eye(2))
        b_channel = CpMap((kb,), (1, 2), (1, 2, 2))
        locc = OneWayLoccChannel(instrument, (b_channel,))
        skew = PureState(np.array([np.sqrt(0.9), 0, 0, np.sqrt(0.1)]), (2, 2), ("A", "B"))
        with pytest.raises(ValueError, match="maximally entangled"):
            MergingProtocol(locc, skew, skew, 1)

    def test_resource_ratio_is_exact(self):
        protocol = known_pure_state_merging(bell_pair().density(), 2)
        from fractions import Fraction

        assert resource_ratio(protocol) == Fraction(1, 4)
        assert protocol.entanglement_rate == pytest.approx(-1.0, abs=1e-12)


class TestComposeInstrumentWithProtocols:
    def test_identity_instrument_passthrough(self):
        sub = known_pure_state_merging(bell_pair().density(), 1)
        composed = compose_instrument_with_protocols(identity_instrument((2,)), [sub])
        assert composed.message_count == sub.message_count
        rho = bell_pair().density()
        assert merging_fidelity(composed, rho) == pytest.approx(
            merging_fidelity(sub, rho), abs=1e-10
        )

    def test_identical_subprotocols_under_a_coin_instrument(self):
        # linearity oracle: an instrument with identity-proportional outcomes
        # (a classical coin) recombines identical branches exactly, so the
        # fidelity is unchanged on any input while messages double
        sub = known_pure_state_merging(bell_pair().density(), 1)
        coin = Instrument(
            (
                CpMap((np.sqrt(0.3) * np.eye(2),), (2,), (2,)),
                CpMap((np.sqrt(0.7) * np.eye(2),), (2,), (2,)),
            )
        )
        composed = compose_instrument_with_protocols(coin, [sub, sub])
        assert composed.message_count == 2 * sub.message_count
        for _ in range(3):
            rho = random_density([2, 2], rng, parties=("A", "B"))
            assert merging_fidelity(composed, rho) == pytest.approx(
                merging_fidelity(sub, rho), abs=1e-9
            )

    def test_projective_pinching_gives_branch_mass_accounting(self):
        # a projective sorting instrument pinches the purified source, so
        # perfect branches contribute exactly (bin mass)^2 each; oracle from
        # independent projector traces
        l = 2
        sub = known_pure_state_merging(bell_pair().density(), l)
        entropy_inst = build_entropy_instrument(l, 2, 0.25)
        composed = compose_instrument_with_protocols(
            to_instrument(entropy_inst), [sub] * len(entropy_inst.bins)
        )
        rho = tensor_power(bell_pair().density(), l)
        masses = []
        for b in entropy_inst.bins:
            lifted = embed_operator(bin_projector(entropy_inst, b), rho.dims, [0, 2])
            masses.append(float(np.trace(lifted @ rho.matrix).real))
        assert masses == pytest.approx([0.75, 0.25], abs=1e-12)
        assert merging_fidelity(composed, rho) == pytest.approx(
            sum(m**2 for m in masses), abs=1e-9
        )

    def test_message_count_adds_exactly(self):
        sub = known_pure_state_merging(bell_pair().density(), 1)
        inst = projective_instrument([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        composed = compose_instrument_with_protocols(inst, [sub, sub])
        assert composed.message_count == sum(p.message_count for p in [sub, sub])

    def test_neighborhood_branch_lower_bound(self):
        # junk protocols outside the source's bin neighborhood cannot push
        # the fidelity below the good branches' mass-squared contribution
        from avqsbench.schur_weyl import misbin_probability

        l = 2
        good = known_pure_state_merging(bell_pair().density(), l)
        junk = _junk_protocol(l, 2**l)
        entropy_inst = build_entropy_instrument(l, 2, 0.25)
        source = bell_pair().density()  # sending marginal entropy 1 -> last bin
        true_bin = entropy_inst.binning.bin_of(1.0)
        subs = [good if abs(b.index - true_bin) <= 1 else junk for b in entropy_inst.bins]
        composed = compose_instrument_with_protocols(to_instrument(entropy_inst), subs)
        rho = tensor_power(source, l)
        value = merging_fidelity(composed, rho)
        good_mass = sum(
            bin_probability(np.eye(2) / 2, b)
            for b in entropy_inst.bins
            if abs(b.index - true_bin) <= 1
        )
        assert value >= good_mass**2 - 1e-9
        assert value < 1.0 - 1e-3  # junk branch really fires on the symmetric bin
        assert misbin_probability(entropy_inst, source, true_bin) == pytest.approx(0.75, abs=1e-12)

    def test_misbin_free_source_meets_the_union_bound(self):
        # for a source concentrated in one bin the composed fidelity does
        # reach 1 - misbin - (1 - branch fidelity) = 1
        from avqsbench.schur_weyl import misbin_probability

        l = 2
        product = tensor_product(
            state(np.diag([1.0, 0.0]), (2,), ("A",)), state(np.diag([1.0, 0.0]), (2,), ("B",))
        )
        good = known_pure_state_merging(product, l)
        junk = _junk_protocol(l, 1)
        entropy_inst = build_entropy_instrument(l, 2, 0.25)
        true_bin = entropy_inst.binning.bin_of(0.0)
        subs = [good if abs(b.index - true_bin) <= 1 else junk for b in entropy_inst.bins]
        composed = compose_instrument_with_protocols(to_instrument(entropy_inst), subs)
        rho = tensor_power(product, l)
        misbin = misbin_probability(entropy_inst, product, true_bin)
        value = merging_fidelity(composed, rho)
        assert misbin == pytest.approx(0.0, abs=1e-12)
        assert value >= 1.0 - misbin - (1.0 - merging_fidelity(good, rho)) - 1e-9


class TestComposeWithMirrors:
    """A sorting instrument that changes the dimension: outcome s projects a
    ququart sending side onto block s = span{|2s>, |2s+1>} and maps it onto
    a qubit; the mirror maps K_s^dagger put the qubit back into block s."""

    blocks = [np.eye(4)[2 * s : 2 * s + 2] for s in range(2)]

    def _sorting(self):
        return Instrument(tuple(CpMap((k,), (4,), (2,)) for k in self.blocks))

    def _restore(self):
        return [(CpMap((k.T,), (2,), (4,)),) for k in self.blocks]

    def test_mirror_count_must_match_the_outcomes(self):
        sub = known_pure_state_merging(bell_pair().density(), 1)
        with pytest.raises(ValueError, match="mirror maps for every outcome"):
            compose_instrument_with_protocols(self._sorting(), [sub, sub], self._restore()[:1])

    def test_dimension_change_needs_mirror_maps(self):
        sub = known_pure_state_merging(bell_pair().density(), 1)
        with pytest.raises(ValueError, match="receiving channels must output"):
            compose_instrument_with_protocols(self._sorting(), [sub, sub])

    def test_sorted_members_merge_perfectly(self):
        bell = bell_pair().density()
        sub = known_pure_state_merging(bell, 1)
        composed = compose_instrument_with_protocols(self._sorting(), [sub, sub], self._restore())
        assert composed.copy_dims == (4, 2)
        assert composed.message_count == 2 * sub.message_count
        lifts = [np.kron(k.T, np.eye(2)) for k in self.blocks]
        xs = StateSet(tuple(state(g @ bell.matrix @ g.T, (4, 2), ("A", "B")) for g in lifts))
        assert word_fidelities(composed, xs, [(0,), (1,)]) == pytest.approx([1.0, 1.0], abs=1e-12)


def _junk_protocol(l: int, rank: int) -> MergingProtocol:
    """Discard everything and emit fixed junk, shaped like a merging protocol
    with an output resource of the given Schmidt rank."""
    d = 2
    e0 = np.eye(rank)[:, [0]]
    kraus_a = tuple(e0 @ row.reshape(1, -1) for row in np.eye(d**l))
    instrument = Instrument((CpMap(kraus_a, (1,) + (d,) * l, (rank,)),))
    junk_vec = np.zeros(((d * d) ** l, 1))
    junk_vec[0] = 1.0
    kb = tuple(np.kron(e0 @ row.reshape(1, -1), junk_vec) for row in np.eye(d**l))
    b_channel = CpMap(kb, (1,) + (d,) * l, (rank,) + (d, d) * l)
    return MergingProtocol(
        OneWayLoccChannel(instrument, (b_channel,)),
        trivial_resource(),
        maximally_entangled(rank),
        l,
    )
