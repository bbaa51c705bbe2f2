"""dsplan: disassembly-sequence planning with a many-objective GA.

Library layout: ``model`` (types, dataset I/O), ``geomsim`` (voxel
simulator and synthetic products), ``ccg`` (contact-connection graph and
initializers), ``constraints`` (each term's weight rows for one mode),
``objectives`` (``Evaluator.score``: every verdict and the four
normalized objectives from one matmul over its mode's rows), ``nsga3``
(the planner), ``bench`` (experiment harness), ``cli`` (command line).
"""

__version__ = "0.1.0"

from .model import (
    Dataset,
    DatasetError,
    MissingTaskLabel,
    Motion,
    MotionTable,
    ParsedLabels,
    Part,
    PartCatalog,
    RelationMatrices,
    SchemaError,
    TransposeViolation,
    ValidationError,
    derive_constraint_degree,
    load_dataset,
    parse_labels,
    removal_order,
    save_dataset,
)
from .geomsim import VoxelAssembly, build_dataset, generate_synthetic
from .ccg import (
    ContactConnectionGraph,
    DisconnectedProduct,
    build_ccg,
    ccgi_init,
    fr_init,
    random_init,
    sfr_init,
)
from .constraints import ConstraintFlags
from .objectives import Evaluation, Evaluator, check, evaluate
from .nsga3 import (
    GaConfig,
    PlanResult,
    das_dennis_points,
    niche_select,
    non_dominated_sort,
    run,
)
from .bench import ExperimentReport, ablation_run, emit_report, init_benchmark, single_objective_run

__all__ = [name for name in dir() if not name.startswith("_")]
