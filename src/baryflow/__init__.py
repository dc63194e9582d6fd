"""Wasserstein barycenters of empirical and Gaussian-mixture measures by
gradient flow, with regularizing energies and a domain-adaptation pipeline."""

__version__ = "0.1.0"

from .measures import (
    BarycentricCoordinates,
    EmpiricalMeasure,
    MiniBatch,
)
from .ot import (
    TransportPlan,
    barycentric_map,
    joint_cost,
    solve_entropic,
    solve_exact,
    w2_empirical,
)
from .gaussian import (
    LabeledGMM,
    bures_w2_grad,
    bures_w2_sq,
    em_fit,
    fixed_point_gaussian_barycenter,
    gmm_log_density,
    mw2_sq,
    sample_reparam,
)
from .functionals import (
    FunctionalSpec,
    entropy_potential,
    hinge_repulsion,
    internal_energy_mc,
    target_potential,
)
from .flow_empirical import (
    EmpiricalFlowConfig,
    EmpiricalSampler,
    FullBatchSampler,
    GaussianSampler,
    GmmSampler,
    fixed_point_baseline,
    flow_step,
    run_flow,
)
from .flow_gmm import GmmFlowConfig, run_gmm_flow
from .datasets import (
    AffineMap,
    DomainSpec,
    load_csv,
    location_scatter_family,
    save_csv,
    swiss_roll,
    synthetic_msda,
)
from .pipeline import (
    ConvergenceReport,
    MsdaReport,
    convergence_report,
    msda_adapt,
    w2_to_reference,
)
