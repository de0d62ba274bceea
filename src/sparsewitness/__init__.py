"""Witness graph families, FO/EMSO evaluation on small graphs, and
detection of dominating induced copies in sparse random graphs."""

from .graphs import (
    BudgetExceededError,
    Graph,
    GraphError,
    automorphism_count,
    induced_embeddings,
    is_dominating,
    read_edge_list,
    write_edge_list,
)
from .witness import (
    ProcessState,
    WitnessGraph,
    build_W,
    build_W_star,
    has_gamma_r_property,
    omega,
    process_init,
    process_run,
    process_step,
)
from .logic import evaluate, is_emso, parse_formula
from .gnp import SamplerConfig, derive_stream, sample_gnp
from .detect import (
    DetectionResult,
    check_connector_property,
    find_dominating_induced_W,
    find_induced_W,
)
from .analytics import (
    LogReal,
    ThresholdReport,
    domination_probability,
    expected_W,
    expected_W_dominating,
    expected_W_star,
    f,
    inverse_f,
    k_gamma,
    sequence_part1,
    sequence_part2,
    window_report,
)
from .experiment import ExperimentConfig, run_experiment

__version__ = "0.1.0"
