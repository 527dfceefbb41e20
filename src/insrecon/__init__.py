"""Binary two-insertion reconstruction codes.

Exact desk-scale machinery for insertion channels: error-ball enumeration and
closed-form sizes, pair confusability with witnesses, window classification,
six code constructions, and a read-sampling reconstruction decoder.
"""

from .balls import (
    SeqSet,
    ball_size_formula,
    coverage_argmax,
    coverage_less_than,
    deletion_ball,
    insertion_ball,
    intersect_balls,
    nplus_ell_formula,
    nplus_formula,
    read_coverage,
    t_insertion_bound,
)
from .codes import (
    AllParams,
    FiveReadParams,
    Np4Params,
    Np5Params,
    ParityVector,
    TildeSums,
    TwoInsertionParams,
    TwoReadParams,
    VTParams,
    VerifyResult,
    WeightVectors,
    best_coset,
    coset_partition,
    five_read_syndrome,
    np4_member,
    np5_member,
    parity_checks,
    read_code_file,
    redundancy,
    segment_checks,
    tilde_sums,
    two_insertion_syndrome,
    two_read_member,
    verify_reconstruction_code,
    vt_member,
    vt_syndrome,
    weight_vectors,
    write_code_file,
)
from .confusability import (
    Confusability,
    ConfusabilityVerdict,
    I2RangePrediction,
    SizeOffset,
    WindowClass,
    WindowSplit,
    classify_pair,
    classify_window,
    excluded_by_rsv,
    intersect2_decomposed,
    locate_window,
    localization_bound_holds,
    predict_i1_size,
    predict_i2_range,
    window_pair,
)
from .recon import (
    DecodeOutcome,
    DecodeStatus,
    ExperimentSummary,
    ReadBundle,
    decode,
    run_experiment,
    sample_reads,
)
from .seqs import (
    ENUM_CAP,
    MAX_LEN,
    BitSeq,
    EnumerationCapError,
    PeriodReport,
    SequenceTooLongError,
    count_r,
    hamming_distance,
    in_r,
    indicator,
    insertion_distance,
    inversions,
    is_alternating,
    period,
)

__version__ = "0.1.0"
