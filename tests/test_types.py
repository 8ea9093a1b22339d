"""What callers rely on from the package's types: immutability, value
equality where it is used, the tolerances of the input checks, the
refusals of malformed input, the dimension cap's scope, RateReport's weight
check, and unchanged constructor arguments."""

import inspect
import re
from math import log

import numpy as np
import pytest

from avqsbench.channels import (
    CpMap,
    Instrument,
    MergingProtocol,
    OneWayLoccChannel,
    OutcomeStat,
    apply_cp_map,
    apply_one_way_locc,
    compose_instrument_with_protocols,
    identity_channel,
    identity_instrument,
    instrument_statistics,
    permutation_channel,
    trivial_resource,
)
from avqsbench.config import CHECK_TOL, CLOSE_TOL, DimensionCapError, check_dim_cap, local_config
from avqsbench.entropy import instrument_coherent_info
from avqsbench.io import ParseError, cp_map_from_dict, state_from_dict
from avqsbench.linalg import (
    PureState,
    SchmidtDecomposition,
    State,
    bell_pair,
    check_purification,
    eigensystem,
    fidelity,
    maximally_entangled,
    maximally_mixed,
    permute_factors,
    pure_state,
    purify,
    state,
    trace_norm,
)
from avqsbench.optim import maximize_concave_over_simplex
from avqsbench.rate_gap import (
    OrthogonalFamily,
    RateGapReport,
    build_orthogonal_family,
    family_merging_protocol,
    known_pure_state_merging,
)
from avqsbench.rates import (
    DistillationResult,
    RateReport,
    StateSet,
    convex_mixture,
    hausdorff_distance,
    word_fidelities,
)
from avqsbench.robustify import (
    RobustificationReport,
    TypeCheck,
    TypeDistribution,
    check_robustification,
    enumerate_types,
)
from avqsbench.schur_weyl import (
    EntropyBin,
    EntropyBinning,
    EntropyInstrument,
    YoungFrame,
    frame_dimension,
    frame_probabilities,
    make_binning,
    symmetric_group_character,
    young_frames,
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


def _bell_protocol(l=1):
    return known_pure_state_merging(bell_pair().density(), l)


def _merging(**changes):
    # the Bell protocol at blocklength 1 with some of its arguments replaced
    sub = _bell_protocol()
    args = {"locc": sub.locc, "phi_in": sub.phi_in, "phi_out": sub.phi_out, "blocklength": 1}
    return MergingProtocol(**{**args, **changes})


def _split_isometry(delta):
    # two outcomes split one isometry, scaled so that they sum to (1 + delta) I
    v = np.sqrt(1.0 + delta) * np.linalg.qr(np.random.default_rng(5).standard_normal((8, 2)))[0]
    return Instrument((CpMap((v[:2],)), CpMap((v[2:4], v[4:6], v[6:]))))


def _skewed_bell(delta):
    # a two-qubit pure state whose larger Schmidt coefficient is 1/sqrt(2) + delta
    big = np.sqrt(0.5) + delta
    return pure_state([big, 0.0, 0.0, np.sqrt(1.0 - big**2)], (2, 2), ("A", "B"))


def _flagged_bell(weight):
    # a Bell pair on B's first two levels with this weight, else |0>|2>: B's
    # level 2 flags the branch, so S(A|B) = -weight
    mat = np.zeros((6, 6))
    mat[np.ix_([0, 4], [0, 4])] = weight / 2
    mat[2, 2] = 1.0 - weight
    return State(mat, (2, 3), ("A", "B"))


# each input misses an exact identity by delta: (tolerance, check, refusal message)
INPUT_CHECKS = {
    "State Hermiticity": (
        CHECK_TOL, lambda d: State(np.array([[0.5, d], [0.0, 0.5]]), (2,), ("A",)), "Hermitian"
    ),
    "eigensystem Hermiticity": (
        CHECK_TOL, lambda d: eigensystem(np.array([[0.5, d], [0.0, 0.5]])), "Hermitian"
    ),
    "fidelity Hermiticity": (
        CHECK_TOL, lambda d: fidelity(np.array([[0.5, d], [0.0, 0.5]]), np.eye(2) / 2), "Hermitian"
    ),
    "frame_probabilities Hermiticity": (
        CHECK_TOL,
        lambda d: frame_probabilities(young_frames(2, 2), np.array([[0.5, d], [0.0, 0.5]])),
        "Hermitian",
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
    # S(A|B) = -CHECK_TOL^2 / d is within CHECK_TOL of 0 once d exceeds CHECK_TOL
    "family base S(A|B)": (
        CHECK_TOL,
        lambda d: build_orthogonal_family(_flagged_bell(CHECK_TOL**2 / d), 2),
        "strictly negative conditional entropy",
    ),
    "family base Schmidt flatness": (
        CHECK_TOL, lambda d: known_pure_state_merging(_skewed_bell(d).density(), 1), "flat Schmidt spectrum"
    ),
    "resource Schmidt flatness": (
        CHECK_TOL, lambda d: _merging(phi_out=_skewed_bell(d)), "phi_out must be maximally entangled"
    ),
    "word function range": (
        CHECK_TOL, lambda d: check_robustification(lambda word: 1.0 + d, 2, 1), r"values in \[0, 1\]"
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


@pytest.mark.parametrize("d", [np.nan, np.inf])
@pytest.mark.parametrize("name", list(INPUT_CHECKS))
def test_input_checks_refuse_non_finite_input(name, d):
    _, check, message = INPUT_CHECKS[name]
    # arithmetic on an infinite d may make NaN, which must be refused too
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=f"{message}|finite"):
        check(d)


# input that no entry of INPUT_CHECKS reaches, with a non-finite entry x
NON_FINITE = {
    "trace_norm": lambda x: trace_norm(np.diag([x, 1.0])),
    "spectrum": lambda x: frame_probabilities(young_frames(3, 2), [x, 0.5]),
    "convex_mixture weights": lambda x: convex_mixture(StateSet((_BELL, _MIXED)), (x, 1.0)),
}


@pytest.mark.parametrize("x", [np.nan, np.inf])
@pytest.mark.parametrize("name", list(NON_FINITE))
def test_non_finite_entries_are_refused(name, x):
    with pytest.raises(ValueError, match="finite|simplex"):
        NON_FINITE[name](x)


def _two_outcomes():
    # the computational-basis measurement on one qubit
    return Instrument((CpMap((np.diag([1.0, 0.0]),)), CpMap((np.diag([0.0, 1.0]),))))


def _mixed_copy_dims():
    # sending copies of dimensions 2 and 3 at blocklength 2
    sending = Instrument((CpMap((np.eye(6),), (1, 2, 3), (6,)),))
    locc = OneWayLoccChannel(sending, (identity_channel((1, 2, 2)),))
    return MergingProtocol(locc, trivial_resource(), maximally_entangled(6), 2)


# a 3 -> 2 channel: the mirror maps' input dimension then differs from A's
_WIDE_CHANNEL = CpMap((np.eye(2, 3), np.eye(2, 3, 2)))
_HALF = CpMap((np.eye(2) / 2,))
_BELL = bell_pair().density()
_MIXED = State(np.eye(4) / 4, (2, 2), ("A", "B"))
_QUBIT_LOCC = OneWayLoccChannel(identity_instrument((2,)), (identity_channel((2,)),))
# a Kraus operator within CHECK_TOL of complete, on a non-PSD unit-trace
# state whose large entries turn the 5e-10 excess into a weight error of 5e-4
_HUGE = State(np.diag([1e6, 1.0 - 1e6]), (2,), ("A",))
_NEARLY_COMPLETE = Instrument((CpMap((np.diag([1.0, np.sqrt(1.0 + 5e-10)]),)),))

# malformed input: (build, exception, the start of its message)
REFUSALS = {
    "State not square": (
        lambda: State(np.ones((2, 3)), (2,), ("A",)), ValueError, "expected a square matrix, got shape (2, 3)"
    ),
    "state() of a vector": (lambda: state(np.ones(4)), ValueError, "expected a square matrix"),
    "PureState dims not positive": (
        lambda: PureState(np.eye(4)[0], (-2, -2), ("A", "B")),
        ValueError,
        "factor dimensions must be positive, got (-2, -2)",
    ),
    "State dims not positive": (
        lambda: State(np.eye(4) / 4, (-2, -2), ("A", "B")), ValueError, "factor dimensions must be positive"
    ),
    "State dims product": (
        lambda: State(np.eye(4) / 4, (2,), ("A",)),
        ValueError,
        "factor dimensions (2,) do not multiply to matrix dimension 4",
    ),
    "State parties": (
        lambda: State(np.eye(4) / 4, (2, 2), ("A",)), ValueError, "need exactly one party label per factor"
    ),
    "PureState dims product": (
        lambda: PureState([1.0, 0.0], (3,), ("A",)),
        ValueError,
        "factor dimensions (3,) do not multiply to vector length 2",
    ),
    "PureState parties": (
        lambda: PureState([1.0, 0.0], (2,), ("A", "B")), ValueError, "need exactly one party label per factor"
    ),
    "CpMap operator not a matrix": (
        lambda: CpMap((np.ones(2),)), ValueError, "Kraus operator must be a matrix, got shape (2,)"
    ),
    "CpMap no operators": (lambda: CpMap(()), ValueError, "a CP map needs at least one Kraus operator"),
    "CpMap operator shapes": (
        lambda: CpMap((np.eye(2) / 2, np.eye(3) / 2)), ValueError, "all Kraus operators must share one shape"
    ),
    "CpMap in_dims": (
        lambda: CpMap((np.eye(2),), in_dims=(3,)), ValueError, "in_dims (3,) do not match Kraus columns 2"
    ),
    "CpMap out_dims": (
        lambda: CpMap((np.eye(2),), out_dims=(3,)), ValueError, "out_dims (3,) do not match Kraus rows 2"
    ),
    "Instrument no outcomes": (lambda: Instrument(()), ValueError, "an instrument needs at least one outcome"),
    "Instrument outcome dims": (
        lambda: Instrument((CpMap((np.eye(4) / 2,), (2, 2), (4,)), CpMap((np.eye(4) / 2,)))),
        ValueError,
        "all outcomes must share input and output factor dims",
    ),
    "OneWayLoccChannel channel count": (
        lambda: OneWayLoccChannel(identity_instrument((2,)), (identity_channel((2,)),) * 2),
        ValueError,
        "1 instrument outcomes but 2 receiving channels",
    ),
    "OneWayLoccChannel not trace preserving": (
        lambda: OneWayLoccChannel(identity_instrument((2,)), (_HALF,)),
        ValueError,
        "every receiving channel must be trace preserving",
    ),
    "OneWayLoccChannel channel dims": (
        lambda: OneWayLoccChannel(_two_outcomes(), (identity_channel((2,)), identity_channel((3,)))),
        ValueError,
        "receiving channels must share input/output factor dims",
    ),
    "MergingProtocol blocklength": (
        lambda: _merging(blocklength=0), ValueError, "blocklength must be >= 1"
    ),
    "MergingProtocol resource factors": (
        lambda: _merging(phi_in=pure_state([1.0])),
        ValueError,
        "phi_in must live on two factors of equal dimension",
    ),
    "MergingProtocol factor count": (
        lambda: _merging(blocklength=2),
        ValueError,
        "instrument/receiver must expose (resource, copies...) factor dims",
    ),
    "MergingProtocol input resource": (
        lambda: _merging(phi_in=maximally_entangled(2)),
        ValueError,
        "input resource dimensions do not match phi_in",
    ),
    "MergingProtocol output resource": (
        lambda: _merging(phi_out=maximally_entangled(3)),
        ValueError,
        "instrument output must be the single output resource factor",
    ),
    "MergingProtocol copy dims": (
        _mixed_copy_dims, ValueError, "copy factors must all share one dimension per side"
    ),
    "MergingProtocol resource flatness": (
        lambda: _merging(phi_out=_skewed_bell(3 * CHECK_TOL)),
        ValueError,
        "phi_out must be maximally entangled with full Schmidt rank",
    ),
    "MergingProtocol mirror count": (
        lambda: _merging(mirrors=((),)),
        ValueError,
        "mirror maps must give one channel per copy for every message",
    ),
    "MergingProtocol mirror not a channel": (
        lambda: _merging(mirrors=((_HALF,),)), ValueError, "mirror maps must be channels from dimension 2 to 2"
    ),
    "MergingProtocol receiver output": (
        lambda: _merging(mirrors=((_WIDE_CHANNEL,),)),
        ValueError,
        "receiving channels must output (2, 3, 2), got (2, 2, 2)",
    ),
    "compose subprotocol count": (
        lambda: compose_instrument_with_protocols(identity_instrument((2,)), [_bell_protocol()] * 2),
        ValueError,
        "need one subprotocol per outcome (1), got 2",
    ),
    "compose mirror count": (
        lambda: compose_instrument_with_protocols(identity_instrument((2,)), [_bell_protocol()], [(), ()]),
        ValueError,
        "need mirror maps for every outcome (1), got 2",
    ),
    "compose subprotocol with mirrors": (
        lambda: compose_instrument_with_protocols(
            identity_instrument((2,)), [_merging(mirrors=((identity_channel((2,)),),))]
        ),
        ValueError,
        "subprotocols with mirror maps cannot be composed",
    ),
    "compose blocklengths": (
        lambda: compose_instrument_with_protocols(_two_outcomes(), [_bell_protocol(1), _bell_protocol(2)]),
        ValueError,
        "subprotocols must share blocklength and copy dimensions",
    ),
    "compose resources": (
        lambda: compose_instrument_with_protocols(
            _two_outcomes(),
            [
                _bell_protocol(),
                known_pure_state_merging(pure_state([1.0, 0, 0, 0], (2, 2), ("A", "B")).density(), 1),
            ],
        ),
        ValueError,
        "subprotocols must share resource states",
    ),
    "compose instrument copies": (
        lambda: compose_instrument_with_protocols(identity_instrument((2, 2)), [_bell_protocol()]),
        ValueError,
        "instrument must map 1 sending copies onto 2^1 dimensions",
    ),
    "StateSet no members": (lambda: StateSet(()), ValueError, "a state set needs at least one member"),
    "StateSet labels": (
        lambda: StateSet((_BELL,), ("a", "b")), ValueError, "need exactly one label per member"
    ),
    "StateSet member dims": (
        lambda: StateSet((_BELL, maximally_mixed(4))),
        ValueError,
        "all members must share dims and party structure",
    ),
    "word_state index": (
        lambda: StateSet((_BELL,)).word_state((1,)),
        ValueError,
        "word [1] is not a nonempty sequence of indices into 1 members",
    ),
    "word_state empty": (
        lambda: StateSet((_BELL,)).word_state(()),
        ValueError,
        "word [] is not a nonempty sequence of indices into 1 members",
    ),
    "word_fidelities index": (
        lambda: word_fidelities(_bell_protocol(), StateSet((_BELL,)), [(1,)]),
        ValueError,
        "word [1] is not a nonempty sequence of indices into 1 members",
    ),
    "family base shape": (
        lambda: build_orthogonal_family(maximally_mixed(4), 2),
        ValueError,
        "base state must have exactly two factors with parties (A, B)",
    ),
    "family size": (lambda: build_orthogonal_family(_BELL, 0), ValueError, "family size must be >= 1"),
    "known-state merging base shape": (
        lambda: known_pure_state_merging(maximally_mixed(4), 1),
        ValueError,
        "base state must have exactly two factors with parties (A, B)",
    ),
    "known-state merging blocklength": (
        lambda: known_pure_state_merging(_BELL, 0), ValueError, "blocklength must be >= 1"
    ),
    "family protocol copy dims": (
        lambda: family_merging_protocol(
            build_orthogonal_family(_BELL, 2), known_pure_state_merging(maximally_entangled(3).density(), 1)
        ),
        ValueError,
        "subprotocol must act on the base state's spaces",
    ),
    "apply_cp_map no targets": (
        lambda: apply_cp_map(identity_channel((2,)), maximally_mixed(2), []),
        ValueError,
        "target factor set must be nonempty",
    ),
    "apply_cp_map target range": (
        lambda: apply_cp_map(identity_channel((2,)), maximally_mixed(2), [1]),
        ValueError,
        "target factors [1] out of range for 1 factors",
    ),
    "instrument_statistics weights": (
        lambda: instrument_statistics(_NEARLY_COMPLETE, _HUGE, [0]), ValueError, "outcome weights sum to 0.9995"
    ),
    "apply_one_way_locc parties": (
        lambda: apply_one_way_locc(_QUBIT_LOCC, maximally_mixed(2)),
        ValueError,
        "state lacks factors for parties 'A'/'B'",
    ),
    "apply_one_way_locc sending side": (
        lambda: apply_one_way_locc(_QUBIT_LOCC, state(np.eye(6) / 6, (3, 2), ("A", "B"))),
        ValueError,
        "sending-side dimension mismatch",
    ),
    "apply_one_way_locc receiving side": (
        lambda: apply_one_way_locc(_QUBIT_LOCC, state(np.eye(6) / 6, (2, 3), ("A", "B"))),
        ValueError,
        "receiving-side dimension mismatch",
    ),
    "permutation_channel": (
        lambda: permutation_channel([0, 0], 2), ValueError, "[0, 0] is not a permutation of range(2)"
    ),
    "instrument rate without A": (
        lambda: instrument_coherent_info(state(np.eye(2) / 2, (2,), ("B",)), identity_instrument((2,))),
        ValueError,
        "state has no factors for party 'A'",
    ),
    "instrument rate without B": (
        lambda: instrument_coherent_info(maximally_mixed(2), identity_instrument((2,))),
        ValueError,
        "state has no factors for parties ('B',)",
    ),
    "permute_factors": (
        lambda: permute_factors(_BELL, [0, 0]), ValueError, "[0, 0] is not a permutation of the 2 factors"
    ),
    "fidelity shapes": (
        lambda: fidelity(_BELL, maximally_mixed(2)), ValueError, "shape mismatch (4, 4) vs (2, 2)"
    ),
    "check_purification factors": (
        lambda: check_purification(bell_pair(), maximally_mixed(3)),
        ValueError,
        "purification must extend the source factors",
    ),
    "simplex dimension": (
        lambda: maximize_concave_over_simplex(lambda p: (0.0, p), 0),
        ValueError,
        "simplex dimension must be >= 1",
    ),
    "convex_mixture weight count": (
        lambda: convex_mixture(StateSet((_BELL, _MIXED)), [1.0]), ValueError, "need 2 weights, got 1"
    ),
    "hausdorff_distance mode": (
        lambda: hausdorff_distance(StateSet((_BELL,)), StateSet((_BELL,)), "nope"),
        ValueError,
        "unknown mode 'nope'",
    ),
    "enumerate_types": (
        lambda: enumerate_types(0, 1), ValueError, "need at least one symbol and length >= 1"
    ),
    "YoungFrame parts": (lambda: YoungFrame((2, 0)), ValueError, "parts must be positive, got (2, 0)"),
    "young_frames": (
        lambda: young_frames(0, 2), ValueError, "need blocklength >= 1 and local dimension >= 2"
    ),
    "character sizes": (
        lambda: symmetric_group_character((2,), (1,)),
        ValueError,
        "frame size and cycle type total must agree",
    ),
    "bin index": (lambda: make_binning(4, 2, 0.5).interval(0), ValueError, "bin index 0 out of range 1..2"),
    "state file missing key": (
        lambda: state_from_dict({"dims": [2], "matrix": []}), ParseError, "state: missing 'parties'"
    ),
    "Kraus entries short": (
        lambda: cp_map_from_dict({"kraus": [{"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]}]}),
        ParseError,
        "cp_map.kraus[0]: 1 entries do not fill 2x2",
    ),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_malformed_input_is_refused(name):
    build, exception, message = REFUSALS[name]
    with pytest.raises(exception, match="^" + re.escape(message)):
        build()


@pytest.mark.parametrize("cls", [State, PureState])
def test_factor_dims_over_the_cap_are_refused(cls):
    entries = np.eye(4)[0] if cls is PureState else np.eye(4) / 4
    with local_config(dim_cap=2), pytest.raises(DimensionCapError, match=f"dimension 4 .* in {cls.__name__}$"):
        cls(entries, (2, 2), ("A", "B"))


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


@pytest.mark.parametrize("cap", [0, -1])
def test_local_config_refuses_a_cap_below_one(cap):
    with local_config(dim_cap=8):
        with pytest.raises(ValueError, match=f"^the dimension cap must be >= 1, got {cap}$"):
            with local_config(dim_cap=cap):
                pass
        with local_config() as inner:
            assert inner == 8


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
