"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import itertools
import json
import time

import numpy as np
import pytest

from avqsbench.channels import (
    CpMap,
    Instrument,
    MergingProtocol,
    OneWayLoccChannel,
    apply_one_way_locc,
    merging_fidelity,
    trivial_resource,
)
from avqsbench.cli import main
from avqsbench.entropy import coherent_information, instrument_coherent_info
from avqsbench.io import protocol_to_dict, save_json, state_set_to_dict, state_to_dict
from avqsbench.linalg import (
    PureState,
    bell_pair,
    maximally_entangled,
    maximally_mixed,
    purify,
    random_density,
    random_unitary,
    state,
)
from avqsbench.channels import identity_instrument
from avqsbench.rates import (
    StateSet,
    distillation_rate_lower_bound,
    hausdorff_distance,
)
from avqsbench.rate_gap import build_orthogonal_family, rate_gap_report
from avqsbench.robustify import check_robustification
from avqsbench.schur_weyl import (
    build_entropy_instrument,
    isotypic_projector,
    misbin_probability,
    young_frames,
)

from helpers import (
    all_words,
    kron_power,
    lagrange_projectors,
    random_instrument_kraus,
    random_kraus_channel,
)


def _report(number: int, name: str, elapsed: float | None = None) -> None:
    suffix = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {number} [{name}]: PASS{suffix}")


def test_criterion_1_example_gap():
    start = time.perf_counter()
    base = bell_pair().density()
    for n in (2, 4):
        family = build_orthogonal_family(base, n)
        for l in (1, 2):
            report = rate_gap_report(family, l=l)
            log_n = np.log2(n)
            # hull costs: closed form vs numeric simplex maximization
            assert report.hull_merging_closed == pytest.approx(-1.0 + log_n, abs=1e-9)
            assert report.hull_classical_closed == pytest.approx(2 * log_n, abs=1e-9)
            assert abs(report.hull_merging_numeric - report.hull_merging_closed) <= 1e-6
            assert abs(report.hull_classical_numeric - report.hull_classical_closed) <= 1e-6
            # protocol performance
            assert report.worst_case_fidelity >= 1.0 - 1e-9
            assert report.protocol_entanglement_rate == pytest.approx(
                report.base_conditional_entropy, abs=1e-9
            )
            assert report.protocol_classical_rate == pytest.approx(
                report.base_env_mutual_info + log_n, abs=1e-9
            )
            # gaps
            assert abs(report.merging_gap - log_n) <= 1e-6
            assert abs(report.classical_gap - log_n) <= 1e-6
            assert report.passed
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s, budget is 10s"
    _report(1, "example gap reproduces log N at l in {1,2}, N in {2,4}", elapsed)


def test_criterion_2_robustification_exhaustive():
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    tables_checked = 0
    for n_symbols in (2, 3):
        for l in range(1, 7):
            words = all_words(n_symbols, l)
            for _ in range(90):
                table = dict(zip(words, rng.random(len(words))))
                report = check_robustification(table.__getitem__, n_symbols, l)
                assert report.passed, (
                    f"violation at |S|={n_symbols}, l={l}: worst word "
                    f"{report.worst_word} at {report.worst_value}"
                )
                tables_checked += 1
    assert tables_checked >= 1000
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s, budget is 60s"
    _report(2, f"robustification bound holds on {tables_checked} random tables", elapsed)


def test_criterion_3_schur_weyl_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    # projector completeness, orthogonality, permutation covariance
    from avqsbench.channels import permutation_channel

    for d, l_max in ((2, 6), (3, 4)):
        for l in range(2, l_max + 1):
            projectors = [isotypic_projector(f, d) for f in young_frames(l, d)]
            completeness = sum(projectors) - np.eye(d**l)
            assert np.sum(np.linalg.svd(completeness, compute_uv=False)) <= 1e-8
            for i in range(len(projectors)):
                for j in range(i + 1, len(projectors)):
                    cross = projectors[i] @ projectors[j]
                    assert np.sum(np.linalg.svd(cross, compute_uv=False)) <= 1e-8
            perms = list(itertools.permutations(range(l)))
            sampled = [perms[int(k)] for k in rng.integers(0, len(perms), size=3)]
            for sigma in sampled:
                u = permutation_channel(list(sigma), d).kraus[0]
                for p in projectors:
                    comm = p @ u - u @ p
                    assert np.sum(np.linalg.svd(comm, compute_uv=False)) <= 1e-8

    # spectrum estimation: misbin decreases from l=4 to l=10 and matches the
    # direct projector-trace oracle (class-sum construction) to 1e-9
    rho = state(np.diag([0.45, 0.45, 0.05, 0.05]), (2, 2), ("A", "B"))  # marginal diag(.9,.1)
    entropy = -(0.9 * np.log2(0.9) + 0.1 * np.log2(0.1))
    values = {}
    for l in (4, 10):
        inst = build_entropy_instrument(l, 2, 0.25)
        value = misbin_probability(inst, rho)
        oracle_projs = lagrange_projectors(l, 2)
        rho_a_power = kron_power(np.diag([0.9, 0.1]), l)
        true_bin = inst.binning.bin_of(entropy)
        expected = sum(
            float(np.trace(oracle_projs[f.parts] @ rho_a_power).real)
            for b in inst.bins
            if abs(b.index - true_bin) > 1
            for f in b.frames
        )
        assert value == pytest.approx(expected, abs=1e-9)
        values[l] = value
    assert values[10] < values[4]
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion 3 took {elapsed:.1f}s, budget is 120s"
    _report(3, "projector suite and misbin trend with trace oracle", elapsed)


def _random_merging_protocol(rng) -> MergingProtocol:
    n_outcomes = int(rng.integers(2, 4))
    rows = random_instrument_kraus(rng, 2, 1, n_outcomes)
    instrument = Instrument(tuple(CpMap((row,), (1, 2), (1,)) for row in rows))
    b_channels = tuple(
        CpMap(tuple(random_kraus_channel(rng, 2, 4, 2)), (1, 2), (1, 2, 2))
        for _ in range(n_outcomes)
    )
    return MergingProtocol(
        OneWayLoccChannel(instrument, b_channels), trivial_resource(), trivial_resource(), 1
    )


def test_criterion_4_merging_fidelity_contract():
    rng = np.random.default_rng(4242)
    checked = 0
    for trial in range(100):
        protocol = _random_merging_protocol(rng)
        rho = random_density([2, 2], rng, parties=("A", "B"))
        psi = purify(rho)
        reference = merging_fidelity(protocol, rho)
        r = psi.dims[-1]
        if trial % 3 == 0:
            # isometry into a strictly larger environment
            iso = random_unitary(r + 1, rng)[:, :r]
            rotated = PureState(
                (psi.vector.reshape(-1, r) @ iso.T).reshape(-1),
                psi.dims[:-1] + (r + 1,),
                psi.parties,
            )
        else:
            u = random_unitary(r, rng)
            rotated = PureState(
                (psi.vector.reshape(-1, r) @ u.T).reshape(-1), psi.dims, psi.parties
            )
        assert abs(merging_fidelity(protocol, rho, purification=rotated) - reference) <= 1e-9
        checked += 1
    assert checked >= 100

    # one-way LOCC application: linear on mixtures, trace preserving
    for _ in range(25):
        rows = random_instrument_kraus(rng, 2, 2, 2)
        instrument = Instrument(tuple(CpMap((row,), (2,), (2,)) for row in rows))
        b_channels = tuple(
            CpMap(tuple(random_kraus_channel(rng, 2, 2, 2)), (2,), (2,)) for _ in range(2)
        )
        locc = OneWayLoccChannel(instrument, b_channels)
        a = random_density([2, 2], rng, parties=("A", "B"))
        b = random_density([2, 2], rng, parties=("A", "B"))
        weight = float(rng.random())
        mix = state(weight * a.matrix + (1 - weight) * b.matrix, (2, 2), ("A", "B"))
        lhs = apply_one_way_locc(locc, mix).matrix
        rhs = weight * apply_one_way_locc(locc, a).matrix + (1 - weight) * apply_one_way_locc(
            locc, b
        ).matrix
        assert np.max(np.abs(lhs - rhs)) <= 1e-9
        assert apply_one_way_locc(locc, a).trace() == pytest.approx(1.0, abs=1e-9)
    _report(4, "purification independence (100 protocols) and LOCC contract")


def test_criterion_5_distillation_functional():
    rng = np.random.default_rng(777)
    # trivial instrument reproduces coherent information
    for _ in range(10):
        rho = random_density([2, 2], rng, parties=("A", "B"))
        value = instrument_coherent_info(rho, identity_instrument((2,))).value
        assert value == pytest.approx(coherent_information(rho).value, abs=1e-8)

    # maximally entangled singleton reaches log d
    for d in (2, 3):
        xs = StateSet((maximally_entangled(d).density(),))
        result = distillation_rate_lower_bound(xs, k=1, restarts=1, maxiter=20, seed=0)
        assert result.report.value >= np.log2(d) - 1e-3

    # hashing-bound form for a Bell-diagonal singleton
    s = 1 / np.sqrt(2)
    basis = np.array([[s, 0, 0, s], [s, 0, 0, -s], [0, s, s, 0], [0, s, -s, 0]]).T
    spectrum = (0.85, 0.05, 0.05, 0.05)
    mat = sum(p * np.outer(basis[:, i], basis[:, i].conj()) for i, p in enumerate(spectrum))
    xs = StateSet((state(mat, (2, 2), ("A", "B")),))
    entropy = -sum(p * np.log2(p) for p in spectrum)
    result = distillation_rate_lower_bound(xs, k=1, restarts=1, maxiter=10, seed=0)
    assert result.report.metadata["trivial_baseline"] == pytest.approx(1 - entropy, abs=1e-8)

    # optimizer never undercuts the baseline across 20 seeded runs
    for seed in range(20):
        rho = random_density([2, 2], rng, parties=("A", "B"))
        run = distillation_rate_lower_bound(
            StateSet((rho,)), k=1, restarts=2, maxiter=12, seed=seed
        )
        assert run.report.value >= run.report.metadata["trivial_baseline"] - 1e-6
    _report(5, "distillation functional baselines and optimizer floor")


def test_criterion_6_geometry():
    rng = np.random.default_rng(31337)
    for _ in range(100):
        sets = [
            StateSet(tuple(random_density([2], rng) for _ in range(2)))
            for _ in range(3)
        ]
        xs, ys, zs = sets
        dxy = hausdorff_distance(xs, ys)
        assert dxy == pytest.approx(hausdorff_distance(ys, xs), abs=1e-8)
        assert dxy <= hausdorff_distance(xs, zs) + hausdorff_distance(zs, ys) + 1e-8
    mid = StateSet((maximally_mixed(2),))
    ends = StateSet((state(np.diag([1.0, 0.0])), state(np.diag([0.0, 1.0]))))
    assert hausdorff_distance(mid, ends, mode="hull") <= 1e-6
    _report(6, "Hausdorff pointset properties and hull containment")


def test_criterion_7_cli_determinism(tmp_path, capsys):
    from avqsbench.rate_gap import known_pure_state_merging

    bell = bell_pair().density()
    other = state(np.diag([0.5, 0.0, 0.5, 0.0]), (2, 2), ("A", "B"))
    set_path = str(tmp_path / "set.json")
    save_json(set_path, state_set_to_dict(StateSet((bell, other), ("bell", "prod"))))
    state_path = str(tmp_path / "state.json")
    save_json(state_path, state_to_dict(bell))
    protocol_path = str(tmp_path / "protocol.json")
    save_json(protocol_path, protocol_to_dict(known_pure_state_merging(bell, 1)))

    invocations = [
        ["rates", "--set", set_path, "--hull", "--seed", "3"],
        ["distill-capacity", "--set", set_path, "--restarts", "1", "--maxiter", "5", "--seed", "3"],
        ["worst-case", "--protocol", protocol_path, "--set", set_path, "--blocklength", "1",
         "--seed", "3"],
        ["merge-fidelity", "--protocol", protocol_path, "--state", state_path, "--seed", "3"],
        ["schur-demo", "--dim", "2", "--blocklength", "5", "--eta", "0.25", "--state", state_path,
         "--format", "json", "--seed", "3"],
        ["robustify-check", "--set", set_path, "--blocklength", "3", "--trials", "4", "--seed", "3"],
        ["example-gap", "--N", "2", "--blocklength", "1", "--seed", "3"],
    ]
    for argv in invocations:
        assert main(argv) in (0, 1)
        first = capsys.readouterr().out
        assert main(argv) in (0, 1)
        second = capsys.readouterr().out
        assert first == second, f"output differs across runs for {argv}"
        json.loads(first)  # reports must be valid JSON
    _report(7, "byte-identical JSON for repeated seeded CLI invocations")
