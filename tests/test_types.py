"""What callers rely on from the package's types: immutability, value
equality where it is used, Config replacement, RateReport's weight check,
and unchanged constructor arguments."""

import inspect
from math import log

import numpy as np
import pytest

from avqsbench.channels import CpMap, Instrument, MergingProtocol, OneWayLoccChannel, OutcomeStat
from avqsbench.config import Config, get_config, local_config, update_config
from avqsbench.entropy import RateValue
from avqsbench.linalg import PureState, SchmidtDecomposition, State, bell_pair, maximally_mixed
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
        "Config": (Config(), "dim_cap"),
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


def test_young_frames_with_equal_parts_are_equal():
    a, b = YoungFrame((3, 1)), YoungFrame([3, 1])
    assert a == b and hash(a) == hash(b)
    assert a != YoungFrame((2, 2)) and a != (3, 1)
    assert {a: "x"}[b] == "x"
    # the cached dimension is stored on a frame whose fields are frozen
    assert a.log_dimension == a.log_dimension == log(frame_dimension(a))


def test_update_config_returns_a_new_config():
    with local_config():
        before = get_config()
        old = (before.herm_tol, before.tp_tol, before.dim_cap)
        after = update_config(tp_tol=1e-3)
        assert get_config() is after and after is not before
        assert (before.herm_tol, before.tp_tol, before.dim_cap) == old
        assert (after.herm_tol, after.tp_tol, after.dim_cap) == (old[0], 1e-3, old[2])


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
    Config: "herm_tol=1e-09, psd_tol=1e-09, trace_tol=1e-09, close_tol=1e-08, rank_tol=1e-10, "
    "tp_tol=1e-09, prob_tol=1e-12, eig_clip=1e-12, dim_cap=4096",
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
