"""Temperature selection by locating the loss of the paramagnetic regime.

Without observations the model is considered healthy at temperature alpha
when plain BP reproduces the encoded node marginals.  With marginals that
are consistent by construction, the marginal-reproducing fixed point exists
at every alpha, so the probe starts from slightly jittered messages: a
stable regime returns to the marginals, an unstable one drifts away or
stops converging.  The calibrated alpha is the largest value for which the
probe stays within tau, found by bisection on [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2
from typing import ClassVar

import numpy as np

from .ising import LatentIsingModel
from .propagation import Schedule

_JITTER = 1e-3
_JITTER_SEED = 181711
# pure updates: the probe looks for the instabilities that damping would hide
PROBE_SCHEDULE = Schedule(auto_damp=False)

__all__ = ["AlphaSearchConfig", "deviation", "calibrate"]


@dataclass(frozen=True)
class AlphaSearchConfig:
    """Bisection settings: the width ``precision`` of the final bracket and
    the largest tolerated deviation ``tau``.  The probe's sweep schedule is
    not a setting: ``schedule`` is always ``PROBE_SCHEDULE``, because the
    pure-update dynamics are what the probe measures."""

    precision: float = 0.01
    tau: float = 0.05
    schedule: ClassVar[Schedule] = PROBE_SCHEDULE

    def __post_init__(self):
        if not 0.0 < self.precision < np.inf:
            raise ValueError(
                f"precision must be positive and finite, got {self.precision}")
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")


def _jittered_init(n_edges: int) -> np.ndarray:
    rng = np.random.default_rng(_JITTER_SEED)
    delta = rng.uniform(-_JITTER, _JITTER, size=(n_edges, 2))
    init = np.empty((n_edges, 2, 2))
    init[:, :, 0] = 0.5 + delta
    init[:, :, 1] = 0.5 - delta
    return init


def deviation(model: LatentIsingModel,
              schedule: Schedule = PROBE_SCHEDULE) -> float:
    """Distance of the no-observation BP output from the node marginals.

    Runs BP from deterministically jittered messages, by default with pure
    updates (``PROBE_SCHEDULE``); returns max_i |b_i(1) - p_i1|, or +inf
    when the run does not converge.
    """
    init = _jittered_init(model.topology.n_edges)
    state, report = model.engine.run(None, schedule, init_messages=init)
    if not report.converged:
        return np.inf
    return float(np.max(np.abs(state.node_beliefs[:, 1] - model.node_p1)))


def calibrate(model_family, config: AlphaSearchConfig | None = None,
              deviation_fn=None) -> float:
    """Largest alpha in [0, 1] whose deviation stays within tau.

    ``model_family`` maps alpha to a model (a fitted model works directly:
    its ``with_alpha`` is used, so each probe is a model that differs from
    the fitted one only in ``psi``, and is freed as soon as its deviation
    is known).  ``deviation_fn`` scores a probe, by default ``deviation``
    under ``PROBE_SCHEDULE``.  Bisection keeps the invariant (low
    feasible, high infeasible) and stops at the configured precision,
    returning the low endpoint; it never needs more than
    ceil(log2(1/precision)) + 2 deviation evaluations.
    """
    config = config or AlphaSearchConfig()
    family = model_family
    if isinstance(model_family, LatentIsingModel):
        family = model_family.with_alpha
    deviation_fn = deviation_fn or deviation

    if deviation_fn(family(0.0)) > config.tau:
        raise ValueError("inconsistent model at alpha=0")
    if deviation_fn(family(1.0)) <= config.tau:
        return 1.0

    lo, hi = 0.0, 1.0
    for _ in range(ceil(log2(1.0 / config.precision))):
        if hi - lo <= config.precision:
            break
        mid = 0.5 * (lo + hi)
        if deviation_fn(family(mid)) <= config.tau:
            lo = mid
        else:
            hi = mid
    return lo
