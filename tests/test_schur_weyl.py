import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from avqsbench.channels import permutation_channel
from avqsbench.config import DimensionCapError, local_config
from avqsbench.linalg import random_unitary, state
from avqsbench.schur_weyl import (
    MIN_BIN_WIDTH,
    EntropyInstrument,
    YoungFrame,
    build_entropy_instrument,
    cycle_types,
    frame_dimension,
    frame_entropy,
    frame_probabilities,
    frame_probability,
    isotypic_projector,
    make_binning,
    misbin_probability,
    symmetric_group_character,
    young_frames,
)

from helpers import (
    bin_probability,
    bin_projector,
    branching_frame_probability,
    conjugacy_class_size,
    kron_power,
    lagrange_projectors,
    tensor_power,
    to_instrument,
    weyl_dimension,
)

rng = np.random.default_rng(23)


class TestYoungFrames:
    def test_two_copies_two_levels(self):
        assert [f.parts for f in young_frames(2, 2)] == [(2,), (1, 1)]

    def test_four_copies_two_levels(self):
        assert [f.parts for f in young_frames(4, 2)] == [(4,), (3, 1), (2, 2)]

    def test_three_copies_three_levels(self):
        assert [f.parts for f in young_frames(3, 3)] == [(3,), (2, 1), (1, 1, 1)]

    def test_rejects_bad_partition(self):
        with pytest.raises(ValueError):
            YoungFrame((1, 2))

    def test_no_duplicates_and_row_cap(self):
        frames = young_frames(6, 3)
        assert len({f.parts for f in frames}) == len(frames)
        assert all(f.rows <= 3 for f in frames)

    def test_row_capped_frames_are_the_partitions_in_order(self):
        for l in range(1, 31):
            partitions = cycle_types(l)
            for d in range(2, 5):
                expected = [p for p in partitions if len(p) <= d]
                assert [f.parts for f in young_frames(l, d)] == expected


class TestFrameEntropy:
    def test_single_row_is_zero(self):
        assert frame_entropy(YoungFrame((5,))) == 0.0

    def test_all_ones_is_log_length(self):
        assert frame_entropy(YoungFrame((1,) * 4)) == pytest.approx(2.0, abs=1e-12)

    def test_three_one_split(self):
        # scalar formula oracle: H(3/4, 1/4)
        expected = -(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25))
        assert frame_entropy(YoungFrame((3, 1))) == pytest.approx(expected, abs=1e-12)
        assert frame_entropy(YoungFrame((3, 1))) == pytest.approx(0.8112781244591328, abs=1e-12)


class TestCharacters:
    def test_s3_standard_irrep_row(self):
        values = [symmetric_group_character((2, 1), mu) for mu in [(1, 1, 1), (2, 1), (3,)]]
        assert values == [2, 0, -1]

    def test_trivial_irrep_is_all_ones(self):
        for mu in cycle_types(5):
            assert symmetric_group_character((5,), mu) == 1

    def test_sign_irrep(self):
        for mu in cycle_types(4):
            parity = (-1) ** sum(k - 1 for k in mu)
            assert symmetric_group_character((1, 1, 1, 1), mu) == parity

    def test_orthogonality_of_rows(self):
        # character orthogonality oracle: sum_mu |C_mu| chi chi' = l! delta
        import math

        l = 5
        frames = [tuple(f.parts) for f in young_frames(l, l)]
        for a in frames:
            for b in frames:
                total = sum(
                    conjugacy_class_size(mu)
                    * symmetric_group_character(a, mu)
                    * symmetric_group_character(b, mu)
                    for mu in cycle_types(l)
                )
                assert total == (math.factorial(l) if a == b else 0)

    def test_dimension_matches_identity_character(self):
        for f in young_frames(6, 6):
            assert frame_dimension(f) == symmetric_group_character(f.parts, (1,) * 6)


class TestIsotypicProjector:
    def test_two_copy_symmetric(self):
        swap = permutation_channel([1, 0], 2).kraus[0]
        assert np.allclose(isotypic_projector(YoungFrame((2,)), 2), (np.eye(4) + swap) / 2)

    def test_two_copy_antisymmetric(self):
        swap = permutation_channel([1, 0], 2).kraus[0]
        assert np.allclose(isotypic_projector(YoungFrame((1, 1)), 2), (np.eye(4) - swap) / 2)

    def test_trace_is_dimension_product(self):
        # hook-length / Weyl dimension formula oracle; for (2,2) at d=2 the
        # group irrep has dimension 2 and the GL(2) block is one-dimensional
        f = YoungFrame((2, 2))
        assert frame_dimension(f) == 2
        assert weyl_dimension(f, 2) == 1
        tr = float(np.trace(isotypic_projector(f, 2)).real)
        assert tr == pytest.approx(frame_dimension(f) * weyl_dimension(f, 2), abs=1e-10)

    def test_traces_cover_total_dimension(self):
        for l, d in ((4, 2), (3, 3)):
            total = sum(frame_dimension(f) * weyl_dimension(f, d) for f in young_frames(l, d))
            assert total == d**l

    def test_idempotent_and_hermitian(self):
        p = isotypic_projector(YoungFrame((3, 1)), 2)
        assert np.max(np.abs(p @ p - p)) < 1e-10
        assert np.max(np.abs(p - p.conj().T)) < 1e-10

    def test_commutes_with_permutations_and_tensor_unitaries(self):
        p = isotypic_projector(YoungFrame((2, 1)), 2)
        for sigma in itertools.permutations(range(3)):
            u = permutation_channel(list(sigma), 2).kraus[0]
            assert np.max(np.abs(p @ u - u @ p)) < 1e-10
        for _ in range(3):
            u = random_unitary(2, rng)
            lifted = kron_power(u, 3)
            assert np.max(np.abs(p @ lifted - lifted @ p)) < 1e-9

    def test_blocklength_cap(self):
        with pytest.raises(DimensionCapError, match="blocklength"):
            isotypic_projector(YoungFrame((9, 1)), 2)


class TestProjectorFamilies:
    @pytest.mark.parametrize("d,lmax", [(2, 6), (3, 4)])
    def test_completeness_and_orthogonality(self, d, lmax):
        for l in range(2, lmax + 1):
            frames = young_frames(l, d)
            projectors = [isotypic_projector(f, d) for f in frames]
            total = sum(projectors)
            assert np.max(np.abs(total - np.eye(d**l))) < 1e-10
            for i in range(len(frames)):
                for j in range(i + 1, len(frames)):
                    product = projectors[i] @ projectors[j]
                    assert np.sum(np.abs(np.linalg.svd(product, compute_uv=False))) < 1e-8

    def test_matches_class_sum_lagrange_oracle(self):
        # fully independent construction through the transposition class sum
        for l, d in ((4, 2), (5, 2), (3, 3)):
            oracle = lagrange_projectors(l, d)
            for f in young_frames(l, d):
                assert np.max(np.abs(isotypic_projector(f, d) - oracle[f.parts])) < 1e-9


class TestFrameProbability:
    def test_matches_matrix_traces(self):
        for l in (2, 3, 4):
            spectrum = rng.dirichlet([1.0, 1.0])
            rho_power = kron_power(np.diag(spectrum), l)
            for f in young_frames(l, 2):
                direct = float(np.trace(isotypic_projector(f, 2) @ rho_power).real)
                assert frame_probability(f, spectrum) == pytest.approx(direct, abs=1e-10)

    def test_normalization(self):
        spectrum = rng.dirichlet([1.0, 1.0, 1.0])
        total = sum(frame_probability(f, spectrum) for f in young_frames(4, 3))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_d2_closed_form_at_long_blocklength(self):
        # exact oracle: dim(lambda) (xy)^b h_{a-b}(x, y) in rational arithmetic;
        # blocklengths run in increasing order so a failure stops early
        x, y = Fraction(9, 10), Fraction(1, 10)
        for l in (30, 200):
            for f in young_frames(l, 2):
                a, b = f.parts if f.rows == 2 else (l, 0)
                h = (x ** (a - b + 1) - y ** (a - b + 1)) / (x - y)
                expected = float(frame_dimension(f) * (x * y) ** b * h)
                assert frame_probability(f, np.array([0.9, 0.1])) == pytest.approx(
                    expected, rel=1e-12, abs=0
                )

    @pytest.mark.parametrize("d,lmax", [(2, 40), (3, 30), (4, 20)])
    def test_uniform_spectrum_is_dimension_ratio(self, d, lmax):
        for l in range(1, lmax + 1):
            for f in young_frames(l, d):
                expected = float(Fraction(frame_dimension(f) * weyl_dimension(f, d), d**l))
                assert frame_probability(f, np.full(d, 1.0 / d)) == pytest.approx(
                    expected, rel=1e-12, abs=0
                )

    def test_no_overflow_beyond_float_range_of_the_dimension(self):
        # at l = 1500 the frame dimensions exceed 1e308 and 2^-l underflows
        l = 1500
        for parts in ((1000, 500), (760, 740), (750, 750)):
            f = YoungFrame(parts)
            expected = float(Fraction(frame_dimension(f) * weyl_dimension(f, 2), 2**l))
            assert expected > 0
            assert frame_probability(f, np.array([0.5, 0.5])) == pytest.approx(
                expected, rel=1e-12, abs=0
            )

    def test_pure_spectrum_weights_only_the_one_row_frame(self):
        for f in young_frames(6, 3):
            expected = 1.0 if f.rows == 1 else 0.0
            assert frame_probability(f, np.array([1.0, 0.0, 0.0])) == expected

    def test_rounding_eigenvalues_of_a_pure_state_weigh_nothing(self):
        # eigvalsh gives a pure qutrit state eigenvalues of order 1e-17
        # besides 1; they are not resolved, so every bin past the first
        # (entropy above 0.1 bits) gets exactly 0
        inst = build_entropy_instrument(20, 3, 0.1)
        for seed in range(6):
            v = random_unitary(3, np.random.default_rng(seed))[:, 0]
            rows = inst.probabilities(state(np.outer(v, v.conj())))
            assert [p for *_, p in rows[1:]] == [0.0] * (len(rows) - 1)

    def test_accepts_matrix_and_state(self):
        f = YoungFrame((3, 1))
        mat = np.diag([0.6, 0.4])
        assert frame_probability(f, mat) == pytest.approx(
            frame_probability(f, np.array([0.6, 0.4])), abs=1e-12
        )
        assert frame_probability(f, state(mat)) == pytest.approx(
            frame_probability(f, mat), abs=1e-12
        )


class TestBinning:
    def test_wide_bin_collapses_to_one(self):
        binning = make_binning(3, 2, 1.5)
        assert binning.n_bins == 1
        assert binning.boundaries == (0.0, 1.0)

    def test_quarter_bins(self):
        binning = make_binning(4, 2, 0.25)
        assert binning.boundaries == pytest.approx((0.0, 0.25, 0.5, 0.75, 1.0))
        assert binning.bin_of(0.0) == 1
        assert binning.bin_of(0.25) == 1
        assert binning.bin_of(0.26) == 2
        assert binning.bin_of(1.0) == 4

    @pytest.mark.parametrize("eta", [0.0, -0.1, float("nan")])
    def test_rejects_non_positive_width(self, eta):
        with pytest.raises(ValueError, match="bin width must be positive"):
            make_binning(3, 2, eta)

    @pytest.mark.parametrize("eta", [float("inf"), 1e-300, 1e-320, 5e-324, 9.99e-10])
    def test_rejects_infinite_and_sub_slack_widths(self, eta):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="must be finite and at least 1e-09 bits"):
            make_binning(3, 2, eta)
        assert time.perf_counter() - start < 0.5

    def test_narrowest_width_is_accepted(self):
        binning = make_binning(3, 2, MIN_BIN_WIDTH)
        assert binning.n_bins == 10**9
        assert binning.bin_of(1.0) == binning.n_bins

    def test_ragged_last_bin(self):
        binning = make_binning(2, 3, 0.6)
        assert binning.n_bins == 3
        assert binning.boundaries[-1] == pytest.approx(np.log2(3))
        assert binning.boundaries[-2] == pytest.approx(1.2)

    @pytest.mark.parametrize("eta", [0.1, 0.25, 0.6, 1e-3])
    @pytest.mark.parametrize("d", [2, 3])
    def test_bin_of_matches_linear_scan_at_every_boundary(self, d, eta):
        # oracle: the explicit boundary tuple and a linear scan with the same
        # 1e-12 slack
        top = math.log2(d)
        n = 1 if eta >= top else math.ceil(top / eta - 1e-12)
        edges = tuple(i * eta for i in range(n)) + (top,)

        def scan(h):
            h = min(max(h, 0.0), top)
            return next(i for i in range(1, n + 1) if h <= edges[i] + 1e-12)

        binning = make_binning(5, d, eta)
        assert binning.boundaries == edges
        for i, s in enumerate(edges):
            if i:
                assert binning.interval(i) == (edges[i - 1], s)
            for h in (s, s - 1e-12, s + 1e-12, np.nextafter(s + 1e-12, 9.0), s + 2e-12):
                assert binning.bin_of(h) == scan(h), (i, h)


class TestBranchingTable:
    # all frames of one spectrum at once against the recursive one-frame
    # branching rule in tests/helpers.py
    @staticmethod
    def _assert_matches_oracle(l, spectrum):
        d = len(spectrum)
        frames = young_frames(l, d)
        table = frame_probabilities(frames, spectrum)
        for f, p in zip(frames, table):
            assert p == pytest.approx(branching_frame_probability(f, spectrum), rel=1e-12, abs=0)

    @pytest.mark.parametrize("d,lmax", [(2, 30), (3, 20), (4, 12), (5, 8)])
    def test_dirichlet_spectra(self, d, lmax):
        gen = np.random.default_rng(1300 + d)
        for l in range(1, lmax + 1):
            self._assert_matches_oracle(l, gen.dirichlet(np.ones(d)))

    @pytest.mark.parametrize("d", [3, 4])
    def test_near_degenerate_spectra(self, d):
        x = 1.0 + 1e-9 * np.arange(d)
        self._assert_matches_oracle(12 if d == 3 else 10, x / x.sum())

    def test_zero_eigenvalues(self):
        spectrum = np.array([0.0, 0.5, 0.0, 0.3, 0.2])
        frames = young_frames(7, 5)
        table = frame_probabilities(frames, spectrum)
        for f, p in zip(frames, table):
            if f.rows > 3:
                assert p == 0.0
            else:
                assert p == pytest.approx(branching_frame_probability(f, spectrum), rel=1e-12, abs=0)
        assert table.sum() == pytest.approx(1.0, abs=1e-12)

    def test_d2_closed_form_for_all_frames_at_once(self):
        # exact oracle: dim(lambda) (xy)^b h_{a-b}(x, y) in rational arithmetic
        x, y = Fraction(3, 4), Fraction(1, 4)
        frames = young_frames(200, 2)
        table = frame_probabilities(frames, np.array([0.25, 0.75]))
        for f, p in zip(frames, table):
            a, b = f.parts if f.rows == 2 else (200, 0)
            h = (x ** (a - b + 1) - y ** (a - b + 1)) / (x - y)
            assert p == pytest.approx(float(frame_dimension(f) * (x * y) ** b * h), rel=1e-12, abs=0)

    def test_table_cap_raises_before_allocating(self):
        # the level-2 table alone would hold 10^6 + 1 floats (8 MB)
        tracemalloc.start()
        try:
            with local_config(dim_cap=8), pytest.raises(DimensionCapError, match="dim_cap"):
                frame_probability(YoungFrame((10**6,)), np.array([0.6, 0.4]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_table_cap_applies_at_every_level(self):
        # d=4, l=30: level 2 has 31 entries, level 3 more than 36
        frames = young_frames(30, 4)
        spectrum = np.array([0.4, 0.3, 0.2, 0.1])
        assert frame_probabilities(frames, spectrum).sum() == pytest.approx(1.0, abs=1e-12)
        with local_config(dim_cap=6), pytest.raises(DimensionCapError, match="dim_cap"):
            frame_probabilities(frames, spectrum)


class TestFrameWorkCap:
    @pytest.mark.parametrize("d, l", [(2, 800), (3, 120), (4, 20)])
    def test_suite_and_readme_sizes_run(self, d, l):
        spectrum = np.arange(d, 0, -1) / (d * (d + 1) / 2)
        inst = build_entropy_instrument(l, d, 0.1)
        assert 0.0 <= misbin_probability(inst, state(np.diag(spectrum))) <= 1.0

    def test_refused_before_any_frame_is_enumerated(self, monkeypatch):
        import avqsbench.schur_weyl as schur_weyl

        def no_frames(*args):
            raise AssertionError("frames enumerated")

        monkeypatch.setattr(schur_weyl, "young_frames", no_frames)
        with pytest.raises(DimensionCapError, match="frame-table terms"):
            build_entropy_instrument(100000, 2, 0.1)
        # bins are not read either: an instrument without frames is refused
        empty = EntropyInstrument(make_binning(100000, 2, 0.1), ())
        with pytest.raises(DimensionCapError, match="frame-table terms"):
            misbin_probability(empty, state(np.diag([0.8, 0.2])))


class TestEntropyInstrument:
    def test_single_bin_is_identity(self):
        inst = build_entropy_instrument(2, 2, 1.0)
        assert len(inst.bins) == 1
        assert np.allclose(bin_projector(inst, inst.bins[0]), np.eye(4))

    def test_projector_ranks_sum_to_full_dimension(self):
        inst = build_entropy_instrument(6, 2, 0.25)
        ranks = [
            sum(frame_dimension(f) * weyl_dimension(f, 2) for f in b.frames) for b in inst.bins
        ]
        assert sum(ranks) == 2**6

    def test_bins_partition_the_frames(self):
        inst = build_entropy_instrument(5, 2, 0.3)
        binned = [f.parts for b in inst.bins for f in b.frames]
        assert sorted(binned) == sorted(f.parts for f in young_frames(5, 2))

    def test_materialized_instrument_is_projective(self):
        inst = to_instrument(build_entropy_instrument(3, 2, 0.5))
        for outcome in inst.outcomes:
            p = outcome.kraus[0]
            assert np.max(np.abs(p @ p - p)) < 1e-10


class TestMisbinProbability:
    def _source(self, p0: float):
        return state(np.diag([p0 * 0.5, p0 * 0.5, (1 - p0) * 0.5, (1 - p0) * 0.5]), (2, 2), ("A", "B"))

    def test_single_bin_gives_zero(self):
        inst = build_entropy_instrument(3, 2, 2.0)
        assert misbin_probability(inst, self._source(0.9)) == 0.0

    def test_pure_sending_marginal_concentrates_low(self):
        inst = build_entropy_instrument(4, 2, 0.25)
        rho = self._source(1.0)  # sending marginal is pure, entropy 0
        assert misbin_probability(inst, rho, true_bin=1) == pytest.approx(0.0, abs=1e-10)

    def test_maximally_mixed_concentrates_high(self):
        inst = build_entropy_instrument(6, 2, 0.25)
        rho = self._source(0.5)
        low_bins = misbin_probability(inst, rho, true_bin=4)
        # mass outside the top neighborhood is the low-entropy tail
        assert low_bins < 0.2

    def test_decreases_with_blocklength_and_matches_trace_oracle(self):
        rho = self._source(0.9)
        values = {}
        for l in (4, 10):
            inst = build_entropy_instrument(l, 2, 0.25)
            values[l] = misbin_probability(inst, rho)
            # independent oracle: class-sum Lagrange projectors + explicit
            # tensor-power matrix of the sending marginal
            oracle_projs = lagrange_projectors(l, 2)
            rho_a_power = kron_power(np.diag([0.9, 0.1]), l)
            true_bin = inst.binning.bin_of(-(0.9 * np.log2(0.9) + 0.1 * np.log2(0.1)))
            expected = 0.0
            for b in inst.bins:
                if abs(b.index - true_bin) > 1:
                    for f in b.frames:
                        expected += float(np.trace(oracle_projs[f.parts] @ rho_a_power).real)
            assert values[l] == pytest.approx(expected, abs=1e-9)
        assert values[10] < values[4]

    @pytest.mark.parametrize(
        "spectrum,l,expected",
        [
            ((0.6, 0.3, 0.1), 60, 0.16584737923176035),
            ((0.6, 0.3, 0.1), 120, 0.047162732928511336),
            ((0.8, 0.2), 800, 3.735648540808971e-05),
        ],
    )
    def test_pinned_values_at_long_blocklength(self, spectrum, l, expected):
        # values of the one-frame-at-a-time branching recursion
        inst = build_entropy_instrument(l, len(spectrum), 0.1)
        value = misbin_probability(inst, state(np.diag(spectrum)))
        assert value == pytest.approx(expected, rel=1e-12, abs=0)

    def test_derived_bin_matches_explicit(self):
        inst = build_entropy_instrument(4, 2, 0.25)
        rho = self._source(0.9)
        entropy = -(0.9 * np.log2(0.9) + 0.1 * np.log2(0.1))
        assert misbin_probability(inst, rho) == misbin_probability(
            inst, rho, true_bin=inst.binning.bin_of(entropy)
        )


def test_instrument_statistics_match_bin_probabilities():
    # the per-bin trace-form probabilities drive the same numbers as actually
    # measuring the materialized instrument on the tensor power
    from avqsbench.channels import instrument_statistics

    inst = build_entropy_instrument(3, 2, 0.4)
    rho = state(np.diag([0.35, 0.15, 0.3, 0.2]), (2, 2), ("A", "B"))
    powered = tensor_power(rho, 3)
    stats = instrument_statistics(to_instrument(inst), powered, [0, 2, 4])
    marginal = np.diag([0.5, 0.5])  # sending marginal of rho
    for stat, b in zip(stats, inst.bins):
        assert stat.probability == pytest.approx(bin_probability(marginal, b), abs=1e-10)
