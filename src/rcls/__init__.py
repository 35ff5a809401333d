"""Representation-based classification toolkit.

Dense collaborative coders with precomputed projectors, greedy and l1
sparse coders, class-wise decision rules including sparsity-augmented
fusion scoring, dataset plumbing, and a seeded benchmark harness.
"""

from .errors import (
    ConfigError,
    ConvergenceWarning,
    DataError,
    DatasetError,
    DegenerateDecisionError,
    DegenerateFusionError,
    DimensionError,
    FormatError,
    NormalizationError,
    NumericalError,
    ParameterError,
    ParseError,
    RclsError,
    SingularMatrixError,
)
from .linalg import as_mat, as_vec, gram, norm2, spd_solve
from .coders import (
    CrcProjector,
    ProCrcProjector,
    SparseCode,
    build_gram_sum,
    fit_crc,
    fit_procrc,
    l1_solve,
    omp,
)
from .classify import (
    ClassDecision,
    LabelMatrix,
    build_label_matrix,
    classify_regularized_residual,
    classify_residual,
    fuse_coefficients,
    score,
    split_blocks,
)
from .data import (
    Dataset,
    Split,
    SynthSpec,
    load_bin,
    load_csv,
    normalize_columns,
    random_project,
    save_bin,
    save_csv,
    split,
    synth,
    take_columns,
)
from .bench import (
    ComparisonRow,
    ComparisonTable,
    ExperimentConfig,
    ExperimentReport,
    compare_methods,
    dump_diagnostics,
    fit_method,
    load_compare_configs,
    load_experiment_config,
    run_experiment,
)

__version__ = "0.1.0"
