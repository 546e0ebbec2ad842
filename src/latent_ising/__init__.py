"""Prediction of unobserved real-valued variables on a graph through
binary latent states.

Observations are encoded into per-node beliefs via each variable's own
CDF (or its median indicator), pairwise latent dependencies are fitted by
EM inside their Frechet bounds, the joint is assembled in tempered
pairwise-ratio form, and message passing with mirrored constraints fills
in the unobserved nodes, which decode back to real values.

The public names below are imported from their modules on first use
(PEP 562): importing the package loads none of its modules, and the
command line's ``predict`` path loads numpy and no scipy.
``scipy.optimize`` comes in with ``pairwise_em`` and ``scipy.special``
with ``copula_lab``.
"""

import importlib

_EXPORTS = {  # module: the public names it provides
    "alpha_calibration": ("AlphaSearchConfig", "calibrate", "deviation"),
    "coding": (
        "BayesMeanStep",
        "BayesMedianStep",
        "BayesQuadCdf",
        "CdfEncoder",
        "InverseCdf",
        "MedianStepEncoder",
        "build_encoder",
        "conditional_cdfs",
    ),
    "copula_lab": (
        "BetaMarginal",
        "CopulaModel",
        "Dataset",
        "EmpiricalMarginal",
        "generate_copula",
        "grid_city",
        "knn_predictor",
        "median_predictor",
        "pair_topology",
        "regular_tree_topology",
        "sample",
    ),
    "ecdf": ("EmpiricalCdf",),
    "harness": ("DecimationResult", "decimate", "fit_from_copula"),
    "ising": (
        "GraphTopology",
        "LatentIsingModel",
        "PairwiseMarginal",
        "assemble",
        "exact_joint",
    ),
    "pairwise_em": ("PairSamples", "em_fit", "log_likelihood"),
    "propagation": (
        "BeliefState",
        "ConvergenceReport",
        "Engine",
        "ForestSolver",
        "Schedule",
        "bp_run",
        "graph_cut_check",
        "impose_observations",
        "mbp_run",
        "predict",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_HOME) | set(_EXPORTS))
