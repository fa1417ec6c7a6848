"""Binary fuzzy measure learning and Choquet-integral fusion.

Learns which coalitions of confidence sources to trust from bag-level
labels, then fuses per-instance confidences with the Choquet integral.
Restricting measure values to {0, 1} makes the search space finite, which
is what the training speed of this package rests on.

Typical flow: build or load a `Dataset`, call `train_bfm` to learn a
`BinaryFuzzyMeasure`, `fuse` to produce per-instance confidences, and
`score` to evaluate them against instance-level truth.
"""

from .choquet import choquet_batch, choquet_maxmin
from .data import (
    Bag,
    CandidateSet,
    MAX_SYNTH_INSTANCES,
    Dataset,
    SynthSpec,
    dataset_from_dict,
    dataset_to_dict,
    generate_synthetic,
    load_dataset,
    save_dataset,
    spec_from_dict,
    spec_to_dict,
)
from .errors import CapError, PinnedElementError, ValidationError
from .measures import (
    ENUMERATION_CAP,
    MAX_SOURCES,
    AxiomViolation,
    BinaryFuzzyMeasure,
    Measure,
    RealFuzzyMeasure,
    ValidityReport,
    count_all,
    enumerate_all,
    from_minimal_coalitions,
    load_measure,
    maximum_measure,
    measure_from_dict,
    measure_to_antichain_dict,
    measure_to_dict,
    minimal_winning_coalitions,
    minimum_measure,
    sample_random,
    sample_random_real,
    save_measure,
    set_with_repair,
    validate,
)
from .metrics import (
    FusionMap,
    ScoreReport,
    fuse,
    fuse_naive,
    roc_curve,
    score,
)
from .objective import (
    ObjectiveBreakdown,
    PreparedData,
    objective,
    prepare,
)
from .optimizer import (
    EAConfig,
    TrainResult,
    train_bfm,
    train_exhaustive,
    train_real_fm,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomViolation",
    "Bag",
    "BinaryFuzzyMeasure",
    "CandidateSet",
    "CapError",
    "Dataset",
    "EAConfig",
    "ENUMERATION_CAP",
    "FusionMap",
    "MAX_SOURCES",
    "MAX_SYNTH_INSTANCES",
    "Measure",
    "ObjectiveBreakdown",
    "PinnedElementError",
    "PreparedData",
    "RealFuzzyMeasure",
    "ScoreReport",
    "SynthSpec",
    "TrainResult",
    "ValidationError",
    "ValidityReport",
    "choquet_batch",
    "choquet_maxmin",
    "count_all",
    "dataset_from_dict",
    "dataset_to_dict",
    "enumerate_all",
    "from_minimal_coalitions",
    "fuse",
    "fuse_naive",
    "generate_synthetic",
    "load_dataset",
    "load_measure",
    "maximum_measure",
    "measure_from_dict",
    "measure_to_antichain_dict",
    "measure_to_dict",
    "minimal_winning_coalitions",
    "minimum_measure",
    "objective",
    "prepare",
    "roc_curve",
    "sample_random",
    "sample_random_real",
    "save_dataset",
    "save_measure",
    "score",
    "set_with_repair",
    "spec_from_dict",
    "spec_to_dict",
    "train_bfm",
    "train_exhaustive",
    "train_real_fm",
    "validate",
    "__version__",
]
