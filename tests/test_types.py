"""What callers rely on from the package's types: immutability, value
equality where it is used, the tolerances of the input checks, the
dimension cap's scope, RateReport's weight check, and unchanged constructor
arguments."""

import inspect
from math import log

import numpy as np
import pytest

from avqsbench.channels import CpMap, Instrument, MergingProtocol, OneWayLoccChannel, OutcomeStat
from avqsbench.config import CHECK_TOL, CLOSE_TOL, DimensionCapError, check_dim_cap, local_config
from avqsbench.entropy import RateValue
from avqsbench.linalg import (
    PureState,
    SchmidtDecomposition,
    State,
    bell_pair,
    check_purification,
    eigensystem,
    fidelity,
    maximally_mixed,
    purify,
    state,
)
from avqsbench.rate_gap import OrthogonalFamily, RateGapReport
from avqsbench.rates import DistillationResult, RateReport, StateSet
from avqsbench.robustify import RobustificationReport, TypeCheck, TypeDistribution
from avqsbench.schur_weyl import (
    EntropyBin,
    EntropyBinning,
    EntropyInstrument,
    YoungFrame,
    frame_dimension,
)


def _frozen_instances():
    rho = bell_pair().density()
    cp = CpMap((np.eye(2),))
    return {
        "State": (rho, "matrix"),
        "CpMap": (cp, "kraus"),
        "Instrument": (Instrument((cp,)), "outcomes"),
        "StateSet": (StateSet((rho,)), "members"),
        "YoungFrame": (YoungFrame((2, 1)), "parts"),
    }


@pytest.mark.parametrize("name", list(_frozen_instances()))
def test_attributes_cannot_be_assigned_or_deleted(name):
    obj, field = _frozen_instances()[name]
    value = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, value)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert getattr(obj, field) is value


def test_state_matrix_is_read_only():
    rho = maximally_mixed(2)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 1.0


def test_derived_arrays_are_read_only():
    # built by Frozen._derived or formed once per instrument, without checks
    rho = bell_pair().density()
    instrument = Instrument((CpMap((np.eye(2),)),))
    arrays = (rho.matrix, rho.marginal("A").matrix, purify(rho).vector, instrument.kraus_stack())
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0
    assert instrument.kraus_stack() is instrument.kraus_stack()


def test_young_frames_with_equal_parts_are_equal():
    a, b = YoungFrame((3, 1)), YoungFrame([3, 1])
    assert a == b and hash(a) == hash(b)
    assert a != YoungFrame((2, 2)) and a != (3, 1)
    assert {a: "x"}[b] == "x"
    # the cached dimension is stored on a frame whose fields are frozen
    assert a.log_dimension == a.log_dimension == log(frame_dimension(a))


def _split_isometry(delta):
    # two outcomes split one isometry, scaled so that they sum to (1 + delta) I
    v = np.sqrt(1.0 + delta) * np.linalg.qr(np.random.default_rng(5).standard_normal((8, 2)))[0]
    return Instrument((CpMap((v[:2],)), CpMap((v[2:4], v[4:6], v[6:]))))


# each input misses an exact identity by delta: (tolerance, check, refusal message)
INPUT_CHECKS = {
    "State Hermiticity": (
        CHECK_TOL, lambda d: State(np.array([[0.5, d], [0.0, 0.5]]), (2,), ("A",)), "Hermitian"
    ),
    "eigensystem Hermiticity": (
        CHECK_TOL, lambda d: eigensystem(np.array([[0.5, d], [0.0, 0.5]])), "Hermitian"
    ),
    "state() positivity": (CHECK_TOL, lambda d: state(np.diag([1.0 + d, -d])), "positive"),
    "state() trace": (CHECK_TOL, lambda d: state(np.diag([0.5 + d, 0.5])), "trace"),
    "PureState norm": (CHECK_TOL, lambda d: PureState([1.0 + d, 0.0], (2,), ("A",)), "norm"),
    "fidelity positivity": (
        CHECK_TOL, lambda d: fidelity(np.diag([1.0 + d, -d]), np.eye(2) / 2), "PSD"
    ),
    "CpMap trace increase": (
        CHECK_TOL, lambda d: CpMap((np.sqrt(1.0 + d) * np.eye(2),)), "increases trace"
    ),
    "Instrument completeness": (CHECK_TOL, _split_isometry, "sum to a channel"),
    "simplex weights": (
        CHECK_TOL, lambda d: RateReport("q", 0.5, weights=(0.5 + d, 0.5)), "simplex"
    ),
    "check_purification": (
        CLOSE_TOL,
        lambda d: check_purification(
            purify(maximally_mixed(2)), state(np.diag([0.5 + d / 2, 0.5 - d / 2]))
        ),
        "does not purify",
    ),
}


@pytest.mark.parametrize("excess, accepted", [(0.1, True), (10.0, False)])
@pytest.mark.parametrize("name", list(INPUT_CHECKS))
def test_input_checks_hold_at_their_tolerance(name, excess, accepted):
    tol, check, message = INPUT_CHECKS[name]
    if accepted:
        check(excess * tol)
    else:
        with pytest.raises(ValueError, match=message):
            check(excess * tol)


def test_local_config_sets_the_dimension_cap_within_its_block():
    check_dim_cap(4096)
    with local_config(dim_cap=8) as cap:
        assert cap == 8
        check_dim_cap(8)
        with pytest.raises(DimensionCapError, match="cap of 8"):
            check_dim_cap(9)
        with local_config() as inner:
            assert inner == 8
    check_dim_cap(4096)
    with pytest.raises(DimensionCapError, match="cap of 4096"):
        check_dim_cap(4097)


def test_rate_report_normalizes_and_checks_weights():
    report = RateReport("q", 0.5, weights=np.array([0.25, 0.75]))
    assert report.weights == (0.25, 0.75)
    assert all(type(w) is float for w in report.weights)
    assert report.to_dict() == {"quantity": "q", "value": 0.5, "weights": [0.25, 0.75]}
    assert RateReport("q", 0.5).metadata == {}
    assert RateReport("q", 0.5).metadata is not RateReport("q", 0.5).metadata
    for weights in ((0.5, 0.6), (1.5, -0.5)):
        with pytest.raises(ValueError, match="not on the simplex"):
            RateReport("q", 0.5, weights=weights)


SIGNATURES = {
    State: "matrix, dims, parties",
    PureState: "vector, dims, parties",
    SchmidtDecomposition: "coefficients, left_vectors, right_vectors, left_factors",
    CpMap: "kraus, in_dims=(), out_dims=()",
    Instrument: "outcomes",
    OutcomeStat: "index, probability, state",
    OneWayLoccChannel: "a_instrument, b_channels",
    MergingProtocol: "locc, phi_in, phi_out, blocklength, mirrors=()",
    StateSet: "members, labels=()",
    RateReport: "quantity, value, attained_by=None, weights=None, metadata=None",
    DistillationResult: "report, instrument",
    RateValue: "value, kind",
    OrthogonalFamily: "base, n, embed, members",
    RateGapReport: "n, blocklength, base_conditional_entropy, base_env_mutual_info, "
    "hull_merging_numeric, hull_merging_closed, hull_merging_weights, hull_merging_duality_gap, "
    "hull_classical_numeric, hull_classical_closed, hull_classical_weights, "
    "hull_classical_duality_gap, protocol_entanglement_rate, protocol_classical_rate, "
    "worst_case_fidelity, worst_word, merging_gap, classical_gap, expected_gap, passed",
    TypeDistribution: "counts",
    TypeCheck: "counts, iid_average, hypothesis_margin, permutation_average, conclusion_margin",
    RobustificationReport: "n_symbols, blocklength, gamma, bound, type_checks, worst_word, "
    "worst_value, passed",
    YoungFrame: "parts",
    EntropyBinning: "blocklength, local_dim, width, n_bins",
    EntropyBin: "index, frames",
    EntropyInstrument: "binning, bins",
}


@pytest.mark.parametrize("cls", list(SIGNATURES), ids=lambda c: c.__name__)
def test_constructor_arguments(cls):
    params = inspect.signature(cls).parameters.values()
    got = ", ".join(p.name if p.default is p.empty else f"{p.name}={p.default!r}" for p in params)
    assert got == SIGNATURES[cls]


def test_constructors_accept_positional_and_keyword_forms():
    rho = bell_pair().density()
    other = State(np.eye(4) / 4, (2, 2), ("A", "B"))
    xs = StateSet((rho, other), ("bell", "mixed"))  # as the benchmark inputs build it
    assert xs.labels == StateSet(members=(rho, other), labels=("bell", "mixed")).labels
    same = State(matrix=rho.matrix, dims=rho.dims, parties=rho.parties)
    assert same.dims == rho.dims and np.array_equal(same.matrix, rho.matrix)
    cp = CpMap(kraus=(np.eye(4),), in_dims=(2, 2), out_dims=(4,))
    assert (cp.in_dims, cp.out_dims) == ((2, 2), (4,))
    report = RateReport("q", 1.0, "x", (1.0,), {"k": 1})
    assert report.to_dict() == {
        "quantity": "q", "value": 1.0, "attained_by": "x", "weights": [1.0], "metadata": {"k": 1}
    }
