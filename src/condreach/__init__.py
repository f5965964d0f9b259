"""Sound bounds on weighted conditional reachability in labeled CTMCs
whose observation times are only known up to time sets."""

from .abstraction import (
    AbstractionError,
    IntervalMdp,
    TransientBoundCache,
    abstract,
    restrict_reachable,
)
from .ctmc import (
    Ctmc,
    ModelError,
    UniformizationError,
    parse_ctmc,
    serialize_ctmc,
    transient,
    weight_from_property,
)
from .driver import AnalysisConfig, AnalysisTrace, analyze
from .evidence import (
    EvidenceError,
    Formula,
    ImpreciseEvidence,
    PreciseEvidence,
    TimePartition,
    TimeSet,
    coarsest_partition,
    is_instance,
    parse_evidence,
    parse_formula,
    sample_instance,
    serialize_evidence,
)
from .simulate import sample_envelope
from .solver import (
    BoundsReport,
    Scheduler,
    SolverError,
    compute_bounds,
    repair_consistency,
    robust_value_iteration,
)
from .unfolding import (
    ZeroLikelihoodError,
    conditional_weight,
    evidence_likelihood,
)

__version__ = "0.1.0"

__all__ = [
    "AbstractionError",
    "AnalysisConfig",
    "AnalysisTrace",
    "BoundsReport",
    "Ctmc",
    "EvidenceError",
    "Formula",
    "ImpreciseEvidence",
    "IntervalMdp",
    "ModelError",
    "PreciseEvidence",
    "Scheduler",
    "SolverError",
    "TimePartition",
    "TimeSet",
    "TransientBoundCache",
    "UniformizationError",
    "ZeroLikelihoodError",
    "abstract",
    "analyze",
    "coarsest_partition",
    "compute_bounds",
    "conditional_weight",
    "evidence_likelihood",
    "is_instance",
    "parse_ctmc",
    "parse_evidence",
    "parse_formula",
    "repair_consistency",
    "restrict_reachable",
    "robust_value_iteration",
    "sample_envelope",
    "sample_instance",
    "serialize_ctmc",
    "serialize_evidence",
    "transient",
    "weight_from_property",
]
