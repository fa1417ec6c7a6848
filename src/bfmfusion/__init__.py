"""Binary fuzzy measure learning and Choquet-integral fusion.

Learns which coalitions of confidence sources to trust from bag-level
labels, then fuses per-instance confidences with the Choquet integral.
Restricting measure values to {0, 1} makes the search space finite, which
is what the training speed of this package rests on.

Typical flow: build or load a `Dataset`, call `train_bfm` to learn a
`BinaryFuzzyMeasure`, `fuse` to produce per-instance confidences, and
`score` to evaluate them against instance-level truth.
"""

from types import ModuleType as _ModuleType

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
from .metrics import FusionMap, ScoreReport, fuse, fuse_naive, score
from .objective import ObjectiveBreakdown, PreparedData, objective, prepare
from .optimizer import EAConfig, TrainResult, train_bfm, train_exhaustive, train_real_fm

__version__ = "0.1.0"

# The import lines above are the one list of public names: __all__ is every
# name they bind, less the submodules that importing from them binds too.
__all__ = [
    name for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
