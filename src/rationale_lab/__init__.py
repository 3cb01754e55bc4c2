"""Rule-generated legal-decision datasets, from-scratch network training,
and condition-level rationale evaluation of the trained models."""

__version__ = "0.1.0"

import os

# OpenBLAS reads this once, when numpy first loads it. The networks' products
# are below its threading threshold except for whole-test-set forward passes,
# and the process pool already uses the cores, so a second thread only holds
# memory. A value the user set, or numpy loaded earlier, wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .domains import (
    DomainSchema,
    FeatureSpec,
    SchemaValidationError,
    build_domain,
)
from .generation import (
    DEDICATED_TARGET,
    Dataset,
    DatasetMeta,
    GenerationError,
    GeneratorRequest,
    generate,
)
from .dataset_io import DatasetFormatError, read_dataset, write_dataset
from .oracle import (
    VerificationReport,
    expected_stats,
    verify_dataset,
)
from .network import (
    AdamState,
    ModelParams,
    NetworkConfig,
    TrainConfig,
    TrainedModel,
    TrainingDivergedError,
    adam_update,
    init_params,
    load_model,
    loss_and_grads,
    save_model,
    train,
)
from .evaluation import (
    ConditionOutputTable,
    RationaleCurve,
    accuracy,
    condition_table,
    curve_deviation,
    ideal_curve,
    output_curve,
    write_curve_tsv,
)
from .harness import (
    AggregateReport,
    CellAggregate,
    ExperimentPlan,
    derive_seed,
    emit_report,
    load_plan,
    replay,
    run_plan,
)
