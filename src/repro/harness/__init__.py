"""Experiment harness: cost-matrix measurement and per-figure drivers;
:mod:`.figures` declares each paper figure/table once.

The dataset roster and builders live in :mod:`repro.datasets`; they are
re-exported here for the callers that import them from the harness.
"""

from ..datasets import (
    FTV_DATASETS,
    NFV_DATASETS,
    build_ftv_graphs,
    build_nfv_graph,
)
from .config import (
    FTV_METHODS,
    FTVExperimentConfig,
    NFV_ALGORITHMS,
    NFVExperimentConfig,
    PAPER_REWRITINGS,
    PSI_FTV_VARIANT_SETS,
    PSI_NFV_MULTIALG_SETS,
    PSI_NFV_REWRITING_SETS,
    RANDOM_INSTANCES,
    WorkloadSpec,
)
from .experiments import (
    DEFAULT_OVERHEAD,
    alt_algorithm_speedup_table,
    band_percentages_table,
    grapes_psi_by_size_table,
    killed_pct_table,
    maxmin_table,
    psi_multialg_speedup_table,
    psi_race_time,
    psi_speedup_table,
    rewriting_aet_table,
    rewriting_hard_pct_table,
    rewriting_speedup_table,
    size_breakdown_table,
    stragglers_wla_table,
)
from .analysis import (
    StragglerDiagnosis,
    diagnose_straggler,
    hard_overlap_table,
    hard_set,
    winner_attribution_table,
)
from .runner import (
    ALL_VARIANT_NAMES,
    FTVCostMatrix,
    NFVCostMatrix,
    measure_ftv_matrix,
    measure_nfv_matrix,
)
from .tables import Table

__all__ = [
    "FTV_METHODS",
    "FTVExperimentConfig",
    "NFV_ALGORITHMS",
    "NFVExperimentConfig",
    "PAPER_REWRITINGS",
    "PSI_FTV_VARIANT_SETS",
    "PSI_NFV_MULTIALG_SETS",
    "PSI_NFV_REWRITING_SETS",
    "RANDOM_INSTANCES",
    "WorkloadSpec",
    "DEFAULT_OVERHEAD",
    "alt_algorithm_speedup_table",
    "band_percentages_table",
    "grapes_psi_by_size_table",
    "killed_pct_table",
    "maxmin_table",
    "psi_multialg_speedup_table",
    "psi_race_time",
    "psi_speedup_table",
    "rewriting_aet_table",
    "rewriting_hard_pct_table",
    "rewriting_speedup_table",
    "size_breakdown_table",
    "stragglers_wla_table",
    "ALL_VARIANT_NAMES",
    "FTV_DATASETS",
    "FTVCostMatrix",
    "NFV_DATASETS",
    "NFVCostMatrix",
    "build_ftv_graphs",
    "build_nfv_graph",
    "measure_ftv_matrix",
    "measure_nfv_matrix",
    "StragglerDiagnosis",
    "diagnose_straggler",
    "hard_overlap_table",
    "hard_set",
    "winner_attribution_table",
    "Table",
]
