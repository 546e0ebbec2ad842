"""Prediction of unobserved real-valued variables on a graph through
binary latent states.

Observations are encoded into per-node beliefs via each variable's own
CDF (or its median indicator), pairwise latent dependencies are fitted by
EM inside their Frechet bounds, the joint is assembled in tempered
pairwise-ratio form, and message passing with mirrored constraints fills
in the unobserved nodes, which decode back to real values.
"""

from .alpha_calibration import AlphaSearchConfig, calibrate, deviation
from .coding import (
    BayesMeanStep,
    BayesMedianStep,
    BayesQuadCdf,
    CdfEncoder,
    InverseCdf,
    MedianStepEncoder,
    build_decoder,
    build_encoder,
    conditional_cdfs,
    jeffrey_update,
    marginal_p1,
)
from .copula_lab import (
    BetaMarginal,
    CopulaModel,
    Dataset,
    EmpiricalMarginal,
    exact_predictor,
    generate_copula,
    grid_city,
    knn_predictor,
    median_predictor,
    pair_topology,
    regular_tree_topology,
    sample,
)
from .ecdf import EmpiricalCdf
from .harness import DecimationResult, decimate, fit_from_copula
from .ising import GraphTopology, LatentIsingModel, assemble, exact_joint
from .pairwise_em import PairSamples, PairwiseMarginal, em_fit, log_likelihood
from .propagation import (
    BeliefState,
    ConvergenceReport,
    Engine,
    ForestSolver,
    Schedule,
    bp_run,
    graph_cut_check,
    impose_observations,
    mbp_run,
    predict,
)

__version__ = "0.1.0"
