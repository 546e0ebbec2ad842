"""Belief propagation and mirror belief propagation on the latent graph.

Standard sum-product messages run between pairwise factors and nodes.  A
node whose belief is pinned to b* does not relay information: it reflects
each factor's message back as b* / m, so at a fixed point its belief equals
b* exactly while the rest of the graph re-balances around it.

An engine answers in two ways, and it alone picks the solver.
``Engine.solve`` answers R runs at once and resumes them from the state it
returned on the last call: it is how ``harness.decimate`` answers each
reveal step.  ``Engine.run`` answers one query (``bp_run``, ``mbp_run``,
the temperature probe).

On a forest the fixed point is reached exactly, without sweeps:
``ForestSolver`` finds the observed nodes' tilts by Newton's method on the
dual of the I-projection, one exact two-pass BP per iteration, batched
over independent runs.  Its levels come from the topology's breadth-first
layout (``GraphTopology.layout`` and ``GraphTopology.levels``), the graph's
one traversal, which the forest test and ``graph_cut_check`` read too, and
its Newton direction uses the one tree product and elimination,
``ising.tree_matvec`` and ``ising.tree_solve``, that the exact copula
predictor shares.  The solver has one entry, ``Engine.solve``, which sends
it every forest batch; ``Engine.run`` answers a constrained run on a
forest of more than ``_LIST_MAX_SLOTS`` directed (factor, endpoint)
message slots as a one-row ``Engine.solve``, with pair beliefs and
messages from ``ForestSolver.edge_state``.  A run starts from zero tilts
unless ``Engine.solve`` resumes it.

Every other run sweeps.  ``Engine.run`` picks the traversal from the size
of the graph: on small graphs (at most ``_LIST_MAX_SLOTS`` slots) a
pure-Python sweep updates the slots in place in fixed order; above that,
the vectorized synchronous kernel (``Engine.sweep``) updates every slot at
once.  The kernel can step many independent runs on one model together,
and ``Engine.solve`` always uses it.  Both traversals have the same fixed
points and read one slot layout, numpy arrays built from the edge list;
the list traversal derives its Python tables from them on its first run.
Convergence is declared when the largest message change over a sweep
drops below the tolerance.  Non-convergence is reported, never raised.

Each model keeps one ``Engine`` (``LatentIsingModel.engine``) and each
engine one ``ForestSolver`` (``Engine.forest``), both built on first use,
so a stream of queries on one model pays the graph set-up once; a run
writes nothing to either.  An engine keeps the model's topology, fields
and couplings, not the model (``Engine.model`` is a weak reference), so a
model that a temperature probe built is freed as soon as it is dropped.
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .ising import GraphTopology, LatentIsingModel, tree_matvec, tree_solve

_FLOOR = 1e-12  # divisor floor for mirror ratios against vanishing messages
# Largest graph, in message slots, that Engine.run sweeps with the list
# traversal; the vectorized kernel is faster above it.  Constrained runs on
# larger forests go to ForestSolver, so the choice now falls on loopy
# graphs and unconstrained runs.  On random loopy graphs (a tree plus one
# chord, 5 seeds, alpha 0.3, one run from 0.5, none or 30 % of the nodes
# pinned; 2-core host) the list traversal took 0.16-0.18 ms against the
# kernel's 0.33-0.39 ms at 22 slots, 0.29-0.38 against 0.25-0.36 ms at 46
# and 0.68-0.96 against 0.30-0.44 ms at 86.  The crossover lies between 22
# and 46 slots; 50 stays because no benchmark workload lies between 22 and
# 50 slots (the pair has 2, the tree 198, the city 476).
_LIST_MAX_SLOTS = 50

# ForestSolver: a run stops once every observed belief is within
# _NEWTON_TOL of its target, or unconverged after _NEWTON_MAX_STEPS
# accepted Newton steps or once backtracking shrinks the step below
# _MIN_STEP.  Steps with a Newton decrement below _FULL_STEP_DECREMENT skip
# the Armijo test (sufficient decrease _ARMIJO), and tilts are kept within
# +-_THETA_MAX, where sigma(theta) is 0 or 1 to double precision.
_NEWTON_TOL = 1e-12
_NEWTON_MAX_STEPS = 50
_MIN_STEP = 2.0**-40
_FULL_STEP_DECREMENT = 1e-9
_ARMIJO = 1e-4
_THETA_MAX = 800.0

__all__ = [
    "Schedule",
    "ConvergenceReport",
    "BeliefState",
    "Engine",
    "ForestSolver",
    "reveal_tilt",
    "bp_run",
    "mbp_run",
    "impose_observations",
    "predict",
    "graph_cut_check",
]


@dataclass(frozen=True)
class Schedule:
    """Sweep parameters.

    Every run starts with pure (undamped) updates; tol is the L-inf message
    change per sweep below which the run stops.  The traversal is not a
    setting: ``Engine.run`` sweeps graphs of at most ``_LIST_MAX_SLOTS``
    message slots in place in fixed (factor, endpoint) order and larger
    ones with the synchronous kernel, which updates every slot from the
    previous sweep's messages; both take the same schedule.  A constrained
    run on a larger forest does not sweep: ``ForestSolver`` solves it, and
    the schedule does not apply.  ``auto_damp`` engages damping 0.5 mid-run
    if the residual plateaus, and raises it further on later plateaus,
    which rescues period-2 message oscillations of synchronous sweeps
    without changing the fixed point.  It is on by default; the temperature
    calibration turns it off, because it probes the instabilities of
    pure-update dynamics.
    """

    max_sweeps: int = 10_000
    tol: float = 1e-9
    auto_damp: bool = True

    def __post_init__(self):
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be positive")
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")


@dataclass(frozen=True)
class ConvergenceReport:
    """How a run ended.  ``method`` names the solver: ``"sweep"`` for
    message-passing sweeps, ``"newton"`` for ``ForestSolver``, whose
    ``sweeps`` counts Newton steps and whose ``residual`` is the largest
    gap between an observed node's belief and its target."""

    converged: bool
    sweeps: int
    residual: float
    method: str = "sweep"


@dataclass(frozen=True)
class BeliefState:
    """Converged (or last-sweep) messages and beliefs.

    ``node_beliefs[i, s]`` and ``edge_beliefs[e, s_i, s_j]`` are normalized;
    ``messages[e, 0]`` flows toward the first endpoint of edge e,
    ``messages[e, 1]`` toward the second.  Constrained nodes carry their
    imposed belief.
    """

    node_beliefs: np.ndarray
    edge_beliefs: np.ndarray
    messages: np.ndarray
    constraints: dict = field(default_factory=dict)


class Engine:
    """Message-passing engine bound to one model, kept as ``model.engine``.

    The engine keeps what it reads of its model, ``topology``, ``phi`` and
    ``psi``, and holds the model itself only weakly (``model``), so a model
    and its engine form no reference cycle and a dropped temperature probe
    is freed at once.  Building the engine lays
    out the message slots as numpy arrays, straight from the edge list; the
    sweep kernel, node beliefs and pair beliefs all read them.  The list
    traversal's Python tables and ``forest``, the exact solver, are built
    on first use, so an engine above ``_LIST_MAX_SLOTS`` slots never builds
    the tables.  Runs with different constraints or warm starts then avoid
    any per-run graph work.  A run writes nothing to the engine but those
    first-use builds, so a reused engine answers every query as a fresh one
    would.
    """

    def __init__(self, model: LatentIsingModel):
        self._model = weakref.ref(model)
        self.topology, self.phi, self.psi = model.topology, model.phi, model.psi
        self.n_slots = 2 * self.topology.n_edges
        edges = np.asarray(self.topology.edges, dtype=np.intp).reshape(-1, 2)
        # slot 2e sends toward i (source j), slot 2e+1 toward j (source i);
        # a slot's coefficients c[a, b] weigh source state b into target a
        target = edges.ravel()
        self._src_arr = edges[:, ::-1].ravel()
        self._opp_arr = np.arange(self.n_slots, dtype=np.intp) ^ 1
        self._coef_arr = np.concatenate((self.psi, self.psi.transpose(0, 2, 1)),
                                        axis=1).reshape(self.n_slots, 2, 2)
        # incoming slots grouped by target node, in slot order within a node
        self._order = np.argsort(target, kind="stable")
        degrees = np.bincount(target, minlength=self.topology.n_nodes)
        active = np.flatnonzero(degrees)
        self._active_nodes = active
        self._seg_starts = (np.cumsum(degrees) - degrees)[active]
        self._phi_active = self.phi[active]
        # position of each slot's source node among the active nodes
        self._src_pos = np.searchsorted(active, self._src_arr)

    @property
    def model(self) -> LatentIsingModel | None:
        """The model this engine was built from, held weakly, so that a
        model and its cached engine are freed together as soon as the
        model is dropped; ``None`` after that.  No run reads it."""
        return self._model()

    @cached_property
    def _list_tables(self):
        """Per-slot tables of the list traversal, built on its first run:
        source node, coefficients, the source's incoming slots other than
        the slot's own edge, and the two field columns.  The coefficients
        stay numpy float64 scalars, so a 0/0 update gives NaN rather than
        raising ``ZeroDivisionError``."""
        order = self._order.tolist()
        bounds = self._seg_starts.tolist() + [self.n_slots]
        incoming = [order[a:b] for a, b in zip(bounds, bounds[1:])]
        src_in = [[s2 for s2 in incoming[p] if s2 >> 1 != s >> 1]
                  for s, p in enumerate(self._src_pos.tolist())]
        coef = [tuple(c) for c in self._coef_arr.reshape(-1, 4)]
        return (self._src_arr.tolist(), coef, src_in, self.phi[:, 0].tolist(),
                self.phi[:, 1].tolist())

    def _node_products(self, messages):
        """Field times the product of incoming messages at every active
        node, shape (R, n_active, 2), from messages shaped (R, n_slots, 2)."""
        # np.take gathers along the slot axis several times faster than
        # fancy indexing
        prod = np.multiply.reduceat(
            np.take(messages, self._order, axis=1), self._seg_starts, axis=1
        )
        prod *= self._phi_active
        return prod

    @cached_property
    def forest(self) -> ForestSolver:
        """The model's ``ForestSolver``, built on its first use; a graph
        with a cycle raises ``ValueError``."""
        return ForestSolver(self)

    def solve(self, observed, bstar, warm=None, schedule: Schedule | None = None):
        """Beliefs of R independent constrained runs on this model at once.

        ``observed`` (R, n_nodes) marks each run's observed nodes and
        ``bstar`` (R, n_nodes, 2) holds their normalized imposed beliefs.
        On a forest ``forest`` solves the runs exactly; on a loopy graph
        they ``sweep`` under ``schedule`` (default ``Schedule()``).  Returns
        (beliefs, warm, converged, work, residual): node beliefs
        (R, n_nodes, 2), a state to pass back as ``warm`` on the next call,
        and per run whether it converged, its Newton steps or sweeps and
        its final residual.  ``warm`` resumes where the last call stopped:
        on a forest each observed node keeps its tilt, and a node observed
        since then starts at ``reveal_tilt`` of its target and its last
        belief (the first call starts from zero tilts); on a loopy graph
        the runs go on from their last messages (the first call from 0.5
        everywhere).  Every row ends as it would alone.  A cold start from
        zero tilts was the faster one on the benchmark's 12 tree queries:
        61 ms and 114 Newton steps in all, against 111 ms and 122 from
        ``reveal_tilt`` of each node's unobserved marginal.

        ``run``, one query at a time, sends a constrained forest run here
        but sweeps an unconstrained one: on the benchmark's 198-slot tree,
        with engine and solver reused, one calibration probe took 410 µs on
        sweeps against 630 µs through the solver at alpha 1, 434 against
        615 µs at 0.5 and 160 against 624 µs at 0.  The solve alone, without
        pair beliefs and messages, took about 300 µs, but every probe is a
        new model, whose solver would be built again (0.42-0.47 ms).
        """
        observed = np.asarray(observed, dtype=bool)
        bstar = np.asarray(bstar, dtype=float)
        if not self.topology.is_forest:
            if warm is None:
                warm = np.full((len(observed), self.n_slots, 2), 0.5)
            m, *report = self.sweep(warm, observed, bstar, schedule or Schedule())
            return (self.node_beliefs(m, observed, bstar), m, *report)
        if warm is not None:  # the tilts to start from
            seen, belief, theta = warm
            warm = np.where(observed & ~seen, reveal_tilt(bstar[..., 1], belief), theta)
        beliefs, theta, *report = self.forest.solve(observed, bstar, warm)
        return (beliefs, (observed.copy(), beliefs[..., 1], theta), *report)

    def run(self, constraints=None, schedule: Schedule | None = None,
            init_messages=None):
        """Run to a fixed point; returns (BeliefState, ConvergenceReport).

        Graphs of at most ``_LIST_MAX_SLOTS`` slots run the list traversal.
        On a larger forest a run with constraints is row 0 of a cold
        one-row ``solve`` (zero tilts), with pair beliefs and messages from
        ``forest.edge_state``; a non-finite one is never reported as
        converged, and ``schedule`` and ``init_messages`` are validated but
        do not steer it.  Every other run is ``sweep`` with a single run.
        Constraint keys must be node ids in 0..N-1, and each value two
        finite, nonnegative weights with a positive sum; ``init_messages``
        must be finite and nonnegative, with a positive sum in every slot.
        Bad input raises ``ValueError`` before any sweep or solve.
        """
        schedule = schedule or Schedule()
        constraints = dict(constraints or {})

        n_nodes = self.topology.n_nodes
        pinned = np.zeros(n_nodes, dtype=bool)
        bstar = np.zeros((n_nodes, 2))
        for i, b in constraints.items():
            i = _node_index(i, n_nodes)
            vec = np.asarray(b, dtype=float)
            total = vec.sum()
            if vec.shape != (2,) or np.any(vec < 0.0) or not 0.0 < total < np.inf:
                raise ValueError(f"invalid constraint at node {i}")
            pinned[i] = True
            bstar[i] = vec / total

        if init_messages is None:
            init = np.full((self.n_slots, 2), 0.5)
        else:
            init = np.asarray(init_messages, dtype=float).reshape(self.n_slots, 2)
        if not np.isfinite(init).all():
            raise ValueError("invalid initial messages")

        if self.n_slots <= _LIST_MAX_SLOTS:
            m, converged, sweeps, residual = self._sweep_sequential(
                _normalized(init), pinned.tolist(), bstar[:, 0].tolist(),
                bstar[:, 1].tolist(), schedule,
            )
        elif pinned.any() and self.topology.is_forest:
            _normalized(init)  # validated only: the solver starts from zero tilts
            observed, bstar = pinned[None], bstar[None]
            beliefs, (_, _, theta), converged, steps, residual = self.solve(observed,
                                                                           bstar)
            pairs, messages = self.forest.edge_state(observed, bstar, theta)
            finite = all(np.isfinite(a).all() for a in (beliefs, pairs, messages))
            state = BeliefState(beliefs[0], pairs[0], messages[0], constraints)
            return state, ConvergenceReport(bool(converged[0]) and finite,
                                            int(steps[0]), float(residual[0]), "newton")
        else:
            m, converged, sweeps, residual = (
                x[0] for x in self.sweep(init[None], pinned[None], bstar[None],
                                         schedule)
            )
            converged, sweeps = bool(converged), int(sweeps)

        node_beliefs = self.node_beliefs(m[None], pinned[None], bstar[None])[0]
        edge_beliefs = self.edge_beliefs(m[None], pinned[None], bstar[None])[0]
        state = BeliefState(
            node_beliefs, edge_beliefs,
            m.reshape(self.topology.n_edges, 2, 2), constraints,
        )
        return state, ConvergenceReport(converged, sweeps, float(residual))

    def _sweep_sequential(self, init, pinned, bstar0, bstar1, schedule: Schedule):
        m0 = init[:, 0].tolist()
        m1 = init[:, 1].tolist()
        src, coef, src_in, phi0, phi1 = self._list_tables
        gamma = 0.0
        tol = schedule.tol
        floor = _FLOOR

        converged = False
        residual = np.inf
        plateau_ref = np.inf
        sweeps = 0
        for sweeps in range(1, schedule.max_sweeps + 1):
            delta = 0.0
            for s in range(self.n_slots):
                u = src[s]
                if pinned[u]:
                    opp = s ^ 1
                    d0 = m0[opp]
                    d1 = m1[opp]
                    n0 = bstar0[u] / (d0 if d0 > floor else floor)
                    n1 = bstar1[u] / (d1 if d1 > floor else floor)
                else:
                    n0 = phi0[u]
                    n1 = phi1[u]
                    for s2 in src_in[s]:
                        n0 *= m0[s2]
                        n1 *= m1[s2]
                c = coef[s]
                t0 = c[0] * n0 + c[1] * n1
                t1 = c[2] * n0 + c[3] * n1
                tot = t0 + t1
                t0 /= tot
                t1 /= tot
                if gamma:
                    t0 = (1.0 - gamma) * t0 + gamma * m0[s]
                    t1 = (1.0 - gamma) * t1 + gamma * m1[s]
                # largest change; a NaN change is taken and then kept
                d = t0 - m0[s]
                if d < 0.0:
                    d = -d
                if not d <= delta and delta == delta:
                    delta = d
                d = t1 - m1[s]
                if d < 0.0:
                    d = -d
                if not d <= delta and delta == delta:
                    delta = d
                m0[s] = t0
                m1[s] = t1
            residual = delta
            if delta < tol:
                converged = True
                break
            if schedule.auto_damp and sweeps % 20 == 0:
                gamma = float(_escalated(gamma, sweeps, residual, plateau_ref, tol))
                plateau_ref = residual
        return np.array([m0, m1]).T, converged, sweeps, residual

    def sweep(self, init_messages, pinned, bstar, schedule: Schedule):
        """Synchronous sweeps of R independent runs on this model at once.

        ``init_messages`` has shape (R, n_slots, 2), ``pinned`` (R, n_nodes)
        marks each run's constrained nodes and ``bstar`` (R, n_nodes, 2)
        holds their normalized imposed beliefs.  Every run keeps its own
        damping and plateau state and freezes at its own convergence sweep,
        so it ends exactly where it would end alone.  Returns the arrays
        (messages, converged, sweeps, residual), each with leading axis R.
        """
        out = np.maximum(_normalized(np.asarray(init_messages, dtype=float)), 1e-30)
        n_runs = out.shape[0]
        if not self.n_slots:  # no messages: settled before the first sweep
            return out, np.ones(n_runs, bool), np.ones(n_runs, int), np.zeros(n_runs)
        converged = np.zeros(n_runs, dtype=bool)
        sweeps = np.full(n_runs, schedule.max_sweeps)
        residual = np.full(n_runs, np.inf)

        src = self._src_arr
        opp = self._opp_arr
        c = self._coef_arr
        c00, c01 = c[:, 0, 0], c[:, 0, 1]
        c10, c11 = c[:, 1, 0], c[:, 1, 1]
        tol = schedule.tol

        # state of the runs still sweeping; converged runs leave it.  A
        # pinned node sends b* in place of its field-message product, and
        # only its outgoing mirror ratios floor their divisor (a zero floor
        # leaves every other divisor as it is).  Masks are stored at full
        # width because broadcast masks are several times slower.
        live = np.arange(n_runs)
        m = out.copy()
        pinned = np.asarray(pinned, dtype=bool)
        has_pins = bool(pinned.any())
        pin_node = np.repeat(pinned[:, self._active_nodes, None], 2, axis=2)
        bstar_node = np.asarray(bstar, dtype=float)[:, self._active_nodes]
        slot_floor = np.where(
            np.repeat(pinned[:, src, None], 2, axis=2), _FLOOR, 0.0
        )
        gamma = np.zeros(n_runs)
        plateau_ref = np.full(n_runs, np.inf)
        for sweep in range(1, schedule.max_sweeps + 1):
            prod = self._node_products(m)
            denom = np.take(m, opp, axis=1)
            if has_pins:
                prod = np.where(pin_node, bstar_node, prod)
                np.maximum(denom, slot_floor, out=denom)
            n = np.take(prod, self._src_pos, axis=1)
            n /= denom
            n0, n1 = n[..., 0], n[..., 1]
            t0 = c00 * n0 + c01 * n1
            t1 = c10 * n0 + c11 * n1
            tot = t0 + t1
            m_new = np.empty_like(m)
            np.divide(t0, tot, out=m_new[..., 0])
            np.divide(t1, tot, out=m_new[..., 1])
            np.maximum(m_new, 1e-30, out=m_new)
            damped = gamma > 0.0
            if damped.any():
                g = gamma[:, None, None]
                mixed = m_new * (1.0 - g)
                mixed += g * m
                np.copyto(m_new, mixed, where=damped[:, None, None])
            diff = m_new - m
            res = np.abs(diff, out=diff).max(axis=(1, 2))
            m = m_new

            done = res < tol
            if done.any():
                idx = live[done]
                out[idx] = m[done]
                converged[idx] = True
                sweeps[idx] = sweep
                residual[idx] = res[done]
                keep = ~done
                live, m, res = live[keep], m[keep], res[keep]
                pin_node, bstar_node = pin_node[keep], bstar_node[keep]
                slot_floor = slot_floor[keep]
                gamma, plateau_ref = gamma[keep], plateau_ref[keep]
                if not live.size:
                    break
            if schedule.auto_damp and sweep % 20 == 0:
                gamma = _escalated(gamma, sweep, res, plateau_ref, tol)
                plateau_ref = res
        out[live] = m
        residual[live] = res
        return out, converged, sweeps, residual

    def node_beliefs(self, messages, pinned, bstar) -> np.ndarray:
        """Normalized node beliefs of R runs, shape (R, n_nodes, 2), from
        messages shaped (R, n_slots, 2); pinned nodes carry ``bstar``."""
        b = np.repeat(self.phi[None], len(messages), axis=0)
        b[:, self._active_nodes] = self._node_products(messages)
        b /= (b[..., 0] + b[..., 1])[..., None]
        return np.where(np.asarray(pinned, dtype=bool)[..., None], bstar, b)

    def edge_beliefs(self, messages, pinned, bstar) -> np.ndarray:
        """Normalized pair beliefs of R runs, shape (R, n_edges, 2, 2), from
        messages shaped (R, n_slots, 2).  The factor-bound message along
        slot s is b_u / m[s ^ 1] with u the slot's source; a pinned u has
        b_u = b* and floors that divisor as the mirror update does."""
        pinned = np.asarray(pinned, dtype=bool)
        b = self.node_beliefs(messages, pinned, bstar)
        denom = np.take(messages, self._opp_arr, axis=1)
        floor = np.where(pinned[:, self._src_arr], _FLOOR, 0.0)
        np.maximum(denom, floor[..., None], out=denom)
        n = np.take(b, self._src_arr, axis=1) / denom
        # slot 2e + 1 has source i, slot 2e source j
        table = self.psi * (n[:, 1::2, :, None] * n[:, 0::2, None, :])
        return table / table.sum(axis=(2, 3), keepdims=True)


class ForestSolver:
    """Exact mirror fixed point of R independent runs on a forest model.

    On a forest the fixed point of mirror BP is the I-projection
    q ∝ p · Π_{i observed} exp(θ_i s_i) whose marginals at the observed
    nodes equal b*.  The tilts θ minimise the strictly convex dual
    log Z(θ) − Σ_i θ_i b*_i, whose gradient is b(θ) − b* and whose Hessian
    is the covariance of the observed spins (Wainwright & Jordan 2008,
    §3).  ``solve`` runs Newton's method on that dual:

    * one evaluation is an exact two-pass BP, level by level in
      breadth-first order, on arrays shaped (R, level); it gives node
      beliefs, (child, parent) pair beliefs and log Z.  The levels and
      the parents are the fields of ``GraphTopology.levels``, and the
      (child, parent) orientation of psi comes from the topology's
      layout, both computed once per topology and shared by every model
      on it;
    * the direction d = Σ_OO⁻¹ g uses the precision J of the spin
      covariance, which is tree-sparse (Rue & Held 2005, ch. 2): for an
      edge, J_ij = −c_ij / (v_i v_j − c_ij²), and on the diagonal
      J_ii = (1 + Σ_j c_ij² / (v_i v_j − c_ij²)) / v_i, with v the spin
      variances and c the edge covariances.  With y_O = g fixed, the
      tree elimination that the exact copula predictor also uses
      (``ising.tree_solve``: one leaf-to-root elimination and one
      back-substitution over the topology's levels) solves
      J_HH y_H = −J_HO g, and d = (J y)_O, with J's products and the
      diagonal's sums over edges taken by ``ising.tree_matvec``: O(n) per
      run;
    * steps backtrack on the dual (Armijo), except that below a Newton
      decrement g·d of ``_FULL_STEP_DECREMENT`` the full step is taken,
      because the decrease to be tested is then close to the round-off of
      log Z.  Runs stop on max |b_O − b*_O|, never on log Z.

    b* of exactly 0 or 1 is hard evidence: it is clamped through the node
    potential and left out of Newton.  Every operation acts row by row, so
    a run ends exactly where it would end alone.

    The solver reads the ``topology``, ``phi`` and ``psi`` of ``source``,
    a model or its engine (``Engine.forest`` passes the engine).
    """

    def __init__(self, source: LatentIsingModel | Engine):
        topo = source.topology
        if not topo.is_forest:
            raise ValueError("ForestSolver needs a graph without cycles")
        self._topology = topo
        levels = topo.levels
        order, nr, n = levels.order, levels.n_roots, topo.n_nodes
        self._phi0 = source.phi[order, 0]
        self._phi1 = source.phi[order, 1]
        child = order[nr:]
        # every edge's child position, whether the child is its second end,
        # and psi oriented (child, parent) at every non-root position
        edge = topo.layout[2][child]
        self._edge_pos = np.empty(topo.n_edges, dtype=np.intp)
        self._edge_pos[edge] = np.arange(nr, n)
        self._edge_flip = np.empty(topo.n_edges, dtype=bool)
        self._edge_flip[edge] = np.reshape(topo.edges, (-1, 2))[edge, 1] == child
        psi = self._psi = np.ones((n, 2, 2))
        psi[nr:] = np.where(self._edge_flip[edge, None, None],
                            source.psi[edge].swapaxes(1, 2), source.psi[edge])
        # per level below the roots: slice, parents, reduceat groups, psi
        self._levels = [
            (lo, hi, par, starts, heads,
             psi[lo:hi, 0, 0], psi[lo:hi, 0, 1], psi[lo:hi, 1, 0], psi[lo:hi, 1, 1])
            for lo, hi, par, starts, heads in levels.per_level
        ]

    def solve(self, observed, bstar, theta=None):
        """Exact beliefs of R runs at once.

        ``observed`` (R, n_nodes) marks each run's observed nodes and
        ``bstar`` (R, n_nodes, 2) holds their normalized imposed beliefs.
        ``theta`` (R, n_nodes) gives the starting tilts of the observed
        nodes; by default every run starts at zero tilts.  Returns the
        arrays (beliefs, theta, converged, iterations, residual): beliefs
        (R, n_nodes, 2) with the observed nodes carrying b*, the final
        tilts (0 off the soft observed nodes), and per run whether the
        residual fell below ``_NEWTON_TOL``, the Newton steps taken and
        the residual max |b_i − b*_i| over the observed nodes.
        """
        observed = np.asarray(observed, dtype=bool)
        bstar = np.asarray(bstar, dtype=float)
        levels = self._topology.levels
        perm, nr, par = levels.order, levels.n_roots, levels.parent
        obs, hard, soft, base0, base1 = self._evidence(observed, bstar)
        if theta is None:
            theta = np.zeros(obs.shape)
        else:
            theta = np.asarray(theta, dtype=float)[:, perm]
        theta = np.where(soft, np.clip(theta, -_THETA_MAX, _THETA_MAX), 0.0)
        target = np.where(soft, bstar[:, perm, 1], 0.0)
        hid = ~obs
        free_edge = ~hard[:, nr:] & ~np.take(hard, par, axis=1)
        hid_edge = hid[:, nr:] & np.take(hid, par, axis=1)

        n_runs, n = obs.shape
        out_b0, out_b1 = np.empty((n_runs, n)), np.empty((n_runs, n))
        out_theta = np.empty((n_runs, n))
        converged = np.zeros(n_runs, dtype=bool)
        iterations = np.zeros(n_runs, dtype=np.intp)
        residual = np.zeros(n_runs)

        b0, b1, p11, dual = self._point(theta, soft, target, base0, base1)
        g = np.where(soft, b1 - target, 0.0)
        res = np.abs(g).max(axis=1, initial=0.0)
        live = np.arange(n_runs)
        fresh = np.ones(n_runs, dtype=bool)  # at a newly accepted point
        taken = np.zeros(n_runs, dtype=np.intp)
        step = np.ones(n_runs)
        d = np.zeros((n_runs, n))
        lam2 = np.zeros(n_runs)
        while live.size:
            stop = (fresh & ((res < _NEWTON_TOL) | (taken >= _NEWTON_MAX_STEPS))
                    | (step < _MIN_STEP))
            if stop.any():
                idx = live[stop]
                out_b0[idx], out_b1[idx], out_theta[idx] = b0[stop], b1[stop], theta[stop]
                converged[idx] = res[stop] < _NEWTON_TOL
                iterations[idx] = taken[stop]
                residual[idx] = res[stop]
                keep = ~stop
                live = live[keep]
                if not live.size:
                    break
                (theta, soft, target, base0, base1, hid, free_edge, hid_edge, b0, b1,
                 p11, dual, g, res, fresh, taken, step, d, lam2) = (
                    a[keep] for a in (
                        theta, soft, target, base0, base1, hid, free_edge, hid_edge,
                        b0, b1, p11, dual, g, res, fresh, taken, step, d, lam2))
            if fresh.any():
                with np.errstate(all="ignore"):
                    d_new = self._direction(b0, b1, p11, g, soft, hid,
                                            free_edge, hid_edge)
                    lam2_new = (g * d_new).sum(axis=1)
                # a run without a finite direction gets a zero step, which
                # stops it unconverged on the next pass
                usable = fresh & np.isfinite(lam2_new)
                d = np.where(usable[:, None], d_new, np.where(fresh[:, None], 0.0, d))
                lam2 = np.where(fresh, lam2_new, lam2)
                step = np.where(fresh, np.where(usable, 1.0, 0.0), step)
            trial = np.clip(theta - step[:, None] * d, -_THETA_MAX, _THETA_MAX)
            t_b0, t_b1, t_p11, t_dual = self._point(trial, soft, target, base0, base1)
            accept = (step > 0.0) & (
                (lam2 < _FULL_STEP_DECREMENT) | (t_dual <= dual - _ARMIJO * step * lam2)
            )
            acc = accept[:, None]
            theta = np.where(acc, trial, theta)
            b0, b1 = np.where(acc, t_b0, b0), np.where(acc, t_b1, b1)
            p11 = np.where(acc, t_p11, p11)
            dual = np.where(accept, t_dual, dual)
            g = np.where(soft, b1 - target, 0.0)
            res = np.abs(g).max(axis=1, initial=0.0)
            taken += accept
            fresh = accept
            step = np.where(accept, step, 0.5 * step)

        inv = levels.position
        beliefs = np.stack(
            [np.take(out_b0, inv, axis=1), np.take(out_b1, inv, axis=1)], axis=-1
        )
        beliefs = np.where(observed[..., None], bstar, beliefs)
        return beliefs, np.take(out_theta, inv, axis=1), converged, iterations, residual

    def edge_state(self, observed, bstar, theta):
        """Pair beliefs and messages of R runs at the tilts ``theta`` that
        ``solve`` returned, both shaped (R, n_edges, 2, 2) in ``Engine``'s
        layout: pair beliefs indexed [s_i, s_j] for edge (i, j), and
        ``messages[:, e, 0]`` flowing toward i, ``messages[:, e, 1]`` toward
        j, each summing to one.  They come from the same two-pass BP as the
        beliefs, whose upward messages are max-scaled, so a hub with many
        children keeps finite values: each edge's pair belief and downward
        message are formed at its child's position as the downward pass
        forms that child's belief."""
        _, _, soft, base0, base1 = self._evidence(np.asarray(observed, dtype=bool),
                                                  np.asarray(bstar, dtype=float))
        levels = self._topology.levels
        theta = np.asarray(theta, dtype=float)[:, levels.order]
        w0, w1, _ = self._weights(theta, soft, base0, base1)
        b0, b1, _, _, (u0, u1, mu0, mu1) = self._evaluate(w0, w1)
        pos, flip = self._edge_pos, self._edge_flip
        par = levels.parent[pos - levels.n_roots]
        psi = self._psi[pos]
        p00, p01, p10, p11 = psi[:, 0, 0], psi[:, 0, 1], psi[:, 1, 0], psi[:, 1, 1]
        o0 = np.take(b0, par, axis=1) / mu0[:, pos]
        o1 = np.take(b1, par, axis=1) / mu1[:, pos]
        d0 = p00 * o0 + p01 * o1  # the message from the parent
        d1 = p10 * o0 + p11 * o1
        a0, a1 = u0[:, pos], u1[:, pos]
        tot = a0 * d0 + a1 * d1
        a0, a1 = a0 / tot, a1 / tot
        pairs = np.stack([a0 * p00 * o0, a0 * p01 * o1, a1 * p10 * o0, a1 * p11 * o1],
                         axis=-1).reshape(a0.shape + (2, 2))
        pairs = np.where(flip[:, None, None], pairs.swapaxes(-1, -2), pairs)
        up = np.stack([mu0[:, pos], mu1[:, pos]], axis=-1)  # toward the parent
        down = np.stack([d0, d1], axis=-1)  # toward the child
        up /= up.sum(axis=-1, keepdims=True)
        down /= down.sum(axis=-1, keepdims=True)
        f = flip[:, None]
        return pairs, np.stack([np.where(f, up, down), np.where(f, down, up)], axis=2)

    def _evidence(self, observed, bstar):
        """Per run in breadth-first order: the observed, hard (b* of 0 or
        1) and soft observed nodes, and the evidence weights of the nodes
        outside Newton, clamped or flat."""
        perm = self._topology.levels.order
        obs = observed[:, perm]
        b0, b1 = bstar[:, perm, 0], bstar[:, perm, 1]
        hard = obs & ((b1 == 0.0) | (b1 == 1.0))
        return obs, hard, obs & ~hard, np.where(hard, b0, 1.0), np.where(hard, b1, 1.0)

    def _point(self, theta, soft, target, base0, base1):
        """Beliefs, pair beliefs and the dual at tilts ``theta``."""
        w0, w1, e = self._weights(theta, soft, base0, base1)
        b0, b1, p11, log_z, _ = self._evaluate(w0, w1)
        # log Z(θ) = log Z(w) + Σ softplus(θ_i)
        softplus = np.maximum(theta, 0.0) + np.log1p(e)
        dual = log_z + np.where(soft, softplus - theta * target, 0.0).sum(axis=1)
        return b0, b1, p11, dual

    @staticmethod
    def _weights(theta, soft, base0, base1):
        """Evidence weights of both states and exp(−|θ|): the soft nodes'
        potential (1 − σ(θ), σ(θ)), formed from exp(−|θ|) so that no tilt
        overflows, and the base weights elsewhere."""
        e = np.exp(-np.abs(theta))
        scale = 1.0 / (1.0 + e)
        pos = theta >= 0.0
        w0 = np.where(soft, np.where(pos, e, 1.0) * scale, base0)
        w1 = np.where(soft, np.where(pos, 1.0, e) * scale, base1)
        return w0, w1, e

    def _evaluate(self, w0, w1):
        """Exact two-pass BP with node evidence weights w (R, n) in
        breadth-first order.  Returns the beliefs of state 0 and state 1,
        the [1, 1] entry of each (child, parent) pair belief at the child's
        position, log Z, and the pass's own arrays ``(u0, u1, mu0, mu1)``
        that ``edge_state`` reads: each node's weighted field times its
        children's messages, and at each child's position its message to
        the parent (max-scaled)."""
        u0 = self._phi0 * w0
        u1 = self._phi1 * w1
        mu0, mu1 = np.empty_like(u0), np.empty_like(u1)
        log_z = np.zeros(len(u0))
        # upward: messages to the parents, folded into them.  Scaling each
        # message to a largest entry of 1 keeps a parent's product over
        # many children from underflowing in both states.
        for lo, hi, _, starts, heads, p00, p01, p10, p11 in reversed(self._levels):
            a0, a1 = u0[:, lo:hi], u1[:, lo:hi]
            m0 = a0 * p00 + a1 * p10
            m1 = a0 * p01 + a1 * p11
            z = np.maximum(m0, m1)
            m0 /= z
            m1 /= z
            log_z += np.log(z).sum(axis=1)
            mu0[:, lo:hi], mu1[:, lo:hi] = m0, m1
            u0[:, heads] *= np.multiply.reduceat(m0, starts, axis=1)
            u1[:, heads] *= np.multiply.reduceat(m1, starts, axis=1)
        nr = self._topology.levels.n_roots
        b0, b1, pair11 = np.empty_like(u0), np.empty_like(u0), np.zeros_like(u0)
        z = u0[:, :nr] + u1[:, :nr]
        log_z += np.log(z).sum(axis=1)
        b0[:, :nr] = u0[:, :nr] / z
        b1[:, :nr] = u1[:, :nr] / z
        # downward: the parent's belief over the child's message is the
        # parent-side factor of the pair belief
        for lo, hi, par, _, _, p00, p01, p10, p11 in self._levels:
            o0 = np.take(b0, par, axis=1) / mu0[:, lo:hi]
            o1 = np.take(b1, par, axis=1) / mu1[:, lo:hi]
            d0 = p00 * o0 + p01 * o1  # the message from the parent
            d1 = p10 * o0 + p11 * o1
            a0, a1 = u0[:, lo:hi], u1[:, lo:hi]
            t0 = a0 * d0
            t1 = a1 * d1
            tot = t0 + t1
            b0[:, lo:hi] = t0 / tot
            b1[:, lo:hi] = t1 / tot
            pair11[:, lo:hi] = a1 * p11 * o1 / tot
        return b0, b1, pair11, log_z, (u0, u1, mu0, mu1)

    def _direction(self, b0, b1, p11, g, soft, hid, free_edge, hid_edge):
        """Newton direction Σ_OO⁻¹ g of R runs through the tree-sparse
        precision; edges at clamped nodes are cut."""
        levels = self._topology.levels
        nr, par = levels.n_roots, levels.parent
        v = b0 * b1
        c = p11[:, nr:] - b1[:, nr:] * np.take(b1, par, axis=1)
        det = v[:, nr:] * np.take(v, par, axis=1) - c * c
        j_off = np.where(free_edge, -c / det, 0.0)
        load = -c * j_off  # each edge's share of both of its ends' diagonal
        load = tree_matvec(levels, 0.0, load, load, np.ones_like(v))
        j_diag = np.where(hid | soft, (1.0 + load) / v, 0.0)

        # J_HH y_H = −J_HO g, with g zero off the soft nodes
        r = np.where(hid, -tree_matvec(levels, j_diag, j_off, j_off, g), 0.0)
        k = np.where(hid_edge, j_off, 0.0)
        y = tree_solve(levels, np.where(hid, j_diag, 1.0), k, k, r)
        y = np.where(soft, g, y)
        return np.where(soft, tree_matvec(levels, j_diag, j_off, j_off, y), 0.0)


def reveal_tilt(target, belief):
    """Starting tilt of a node revealed with target belief ``target`` (of
    state 1) while its belief is ``belief``: logit(target) − logit(belief),
    which matches the target exactly when the node is alone.  Both are
    clipped into the open unit interval, so the tilt is always finite."""
    return _logit(target) - _logit(belief)


def _logit(p):
    p = np.clip(p, 1e-300, 1.0 - 2.0**-53)
    return np.log(p) - np.log1p(-p)


def _escalated(gamma, sweep, residual, plateau_ref, tol):
    """Damping after the auto-damp check that runs every 20 sweeps: from
    sweep 40 on, a residual above max(100 tol, 1e-10) that fell by less
    than 7 % since the last check raises gamma to 0.5 + gamma / 2.
    Elementwise over runs; ``plateau_ref`` is the last check's residual."""
    if sweep < 40:
        return gamma
    plateau = (residual > max(100 * tol, 1e-10)) & (residual > 0.93 * plateau_ref)
    return np.where(plateau, 0.5 + 0.5 * gamma, gamma)


def _normalized(messages: np.ndarray) -> np.ndarray:
    """Messages rescaled to sum to one over the two states of every slot."""
    norm = messages.sum(axis=-1, keepdims=True)
    if np.any(messages < 0.0) or np.any(norm <= 0.0):
        raise ValueError("invalid initial messages")
    return messages / norm


def bp_run(model: LatentIsingModel, schedule: Schedule | None = None,
           init_messages=None):
    """Plain belief propagation: no constraints."""
    return model.engine.run(None, schedule, init_messages)


def mbp_run(model: LatentIsingModel, constraints, schedule: Schedule | None = None,
            init_messages=None):
    """Belief propagation with imposed beliefs at the constrained nodes."""
    return model.engine.run(constraints, schedule, init_messages)


def impose_observations(model: LatentIsingModel, observed: dict) -> dict:
    """Encode observed values into belief constraints.

    Returns per-node vectors indexed by state: [b*(0), b*(1)] with
    b*(1) = Lambda_i(x_i).  An array of observations of one node gives an
    array of shape (2, ...) for that node.
    """
    if model.encoders is None:
        raise ValueError("model carries no encoders")
    n_nodes = model.topology.n_nodes
    out = {}
    for i, x in observed.items():
        i = _node_index(i, n_nodes)
        lam = model.encoders[i].encode(x)
        out[i] = np.array([1.0 - lam, lam])
    return out


def _node_index(i, n_nodes: int) -> int:
    """Node id ``i`` as an int; an id that is not an integer in
    0..n_nodes-1 raises ``ValueError``."""
    if not isinstance(i, (int, np.integer)):
        raise ValueError(f"node id {i!r} is not an integer")
    if not 0 <= i < n_nodes:
        raise ValueError(f"node id {i} out of range 0..{n_nodes - 1}")
    return int(i)


def predict(model: LatentIsingModel, beliefs: BeliefState,
            decoder: str = "inverse-cdf", observed=None) -> dict:
    """Decode beliefs into real predictions for the unobserved nodes, in
    one call of the model's decoder of that kind (``model.decoder``)."""
    skip = set(beliefs.constraints) if observed is None else set(observed)
    hidden = np.array(
        [i for i in range(model.topology.n_nodes) if i not in skip], dtype=np.intp
    )
    values = model.decoder(decoder).decode(beliefs.node_beliefs[hidden, 1], hidden)
    return dict(zip(hidden.tolist(), values.tolist()))


def graph_cut_check(factors, constrained) -> str:
    """Convergence diagnostic by cutting the factor graph at the
    constrained nodes.

    Each constrained variable is cloned into one leaf per incident factor.
    If every connected component of the cut graph is a tree containing at
    most two clones, the mirror updates are guaranteed to converge
    (``guaranteed``); otherwise nothing is claimed (``unknown``).  The cut
    graph is a ``GraphTopology``: its forest test and the roots of its
    breadth-first layout answer both questions.  A factor that names a
    member twice gives ``unknown``.
    """
    if isinstance(factors, GraphTopology):
        factors = factors.factors()
    factors = [tuple(f) for f in factors]
    constrained = set(constrained)
    if any(len(set(members)) < len(members) for members in factors):
        return "unknown"  # a member named twice closes a cycle with its factor

    # vertices of the cut graph: factors, free variables and clones
    index: dict = {}
    edges, clones = [], []
    for f_idx, members in enumerate(factors):
        fv = index.setdefault(("f", f_idx), len(index))
        for i in members:
            key = ("c", i, f_idx) if i in constrained else ("v", i)
            vv = index.setdefault(key, len(index))
            if i in constrained:
                clones.append(vv)
            edges.append((fv, vv))
    cut = GraphTopology(len(index), tuple(edges))
    if not cut.is_forest:
        return "unknown"  # a cycle survives the cutting

    order, parent, _, _ = cut.layout
    root = list(range(cut.n_nodes))
    for v in order.tolist():  # parents come before their children
        if parent[v] >= 0:
            root[v] = root[parent[v]]
    clone_count = Counter(root[v] for v in clones)
    return "unknown" if any(c > 2 for c in clone_count.values()) else "guaranteed"
