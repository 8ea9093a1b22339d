"""Desk-scale workbench for one-way state merging and entanglement
distillation of compound and arbitrarily varying quantum sources."""

from .config import DimensionCapError, local_config
from .linalg import (
    PureState,
    SchmidtDecomposition,
    State,
    bell_pair,
    eigensystem,
    fidelity,
    maximally_entangled,
    maximally_mixed,
    partial_trace,
    permute_factors,
    pure_state,
    purify,
    random_density,
    random_unitary,
    schmidt_decomposition,
    state,
    tensor_product,
    trace_distance,
    trace_norm,
)
from .entropy import (
    coherent_information,
    conditional_entropy,
    instrument_coherent_info,
    mutual_info_env,
    von_neumann_entropy,
)
from .channels import (
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
    merging_fidelity,
    purified_merging_fidelity,
    trivial_resource,
)
from .schur_weyl import (
    EntropyBin,
    EntropyBinning,
    EntropyInstrument,
    YoungFrame,
    build_entropy_instrument,
    frame_dimension,
    frame_entropy,
    frame_probability,
    isotypic_projector,
    make_binning,
    misbin_probability,
    symmetric_group_character,
    young_frames,
)
from .robustify import (
    RobustificationReport,
    TypeDistribution,
    check_robustification,
    enumerate_types,
    word_type,
)
from .rates import (
    DistillationResult,
    RateReport,
    StateSet,
    compound_classical_cost,
    compound_merging_cost,
    convex_mixture,
    distillation_rate_lower_bound,
    hausdorff_distance,
    word_fidelities,
    worst_case_protocol_fidelity,
)
from .rate_gap import (
    OrthogonalFamily,
    RateGapReport,
    build_orthogonal_family,
    discriminating_instrument,
    family_merging_protocol,
    known_pure_state_merging,
    rate_gap_report,
)

__version__ = "0.1.0"
