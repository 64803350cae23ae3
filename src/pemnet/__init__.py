"""pemnet: directed-network inference from time series via corrected lagged correlations.

Pipeline: sample a ground-truth graph, simulate linear stochastic dynamics on
it, compute a pairwise edge measure from the resulting time series, threshold
with the known edge count, and score against the truth. The corrected measures
(lccf, lcrc) subtract analytically derived multiples of the lag-0 correlation
from the lag-1 correlation to cancel shared-driver and reversed-edge effects.
"""

from .bench import (
    SweepSpec,
    TrialRecord,
    accuracy,
    baseline_accuracy,
    derive_seed,
    run_trial,
    spearman,
    sweep,
    threshold_pem,
    write_sweep_csv,
)
from .dynamics import (
    SDDParams,
    TimeSeries,
    add_measurement_noise,
    load_time_series,
    save_time_series,
    simulate_sdd,
)
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DataError,
    FileFormatError,
    NilpotentGraphError,
    NumericalError,
    PemnetError,
    StabilityError,
)
from .graphs import (
    DirectedGraph,
    GraphConfig,
    anticlustering,
    assign_lags,
    gen_backbone,
    gen_gnm,
    gen_graph,
    gen_graph_non_nilpotent,
    gen_shooting_star,
    graph_metrics,
    is_nilpotent,
    load_edge_list,
    normalize_adjacency,
    save_edge_list,
)
from .motifs import (
    contribution_cov,
    contribution_lagk,
    contribution_table,
    covariance_series,
    psi,
    write_contribution_table,
)
from .numerics import (
    ols_fit,
    solve_discrete_lyapunov,
    spectral_radius,
)
from .pem import (
    AUTO,
    PEMMatrix,
    alpha_lccf,
    alpha_lcrc,
    compute_pem,
    compute_pems,
    estimate_tau_inv,
    lagged_corrs,
    load_pem,
    pem_gc,
    sample_lagged_cov,
    save_pem,
)

__version__ = "0.1.0"
