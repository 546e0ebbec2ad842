"""Correctness checks, independent of the code they check.

Each check returns a list of messages, empty when the output passes.  The
exact conditional median is recomputed here from the truth's correlation
and marginals with precision-form Gaussian conditioning and
``scipy.stats``, and the decimation reference uses its own random draws.
"""

from __future__ import annotations

import csv
import io

import numpy as np
from scipy import stats

SIGMAS = 5.0  # tolerance of sampling comparisons, in standard errors


def _marginal(m):
    """scipy.stats distribution of a beta marginal of the truth model."""
    return stats.beta(m.a, m.b)


def exact_median(truth, z_obs, obs_idx, hid_idx):
    """Conditional median of the hidden nodes, batched over rows.

    ``z_obs`` holds latent Gaussian values of the observed nodes, shaped
    like ``obs_idx`` (R, k); ``hid_idx`` is (R, h).  The conditional mean of
    the hidden block is -Q_hh^-1 Q_ho z_o with Q the inverse correlation.
    """
    q = np.linalg.inv(np.asarray(truth.correlation))
    q_hh = q[hid_idx[:, :, None], hid_idx[:, None, :]]
    q_ho = q[hid_idx[:, :, None], obs_idx[:, None, :]]
    mean = -np.linalg.solve(q_hh, q_ho @ z_obs[..., None])[..., 0]
    u = stats.norm.cdf(mean)
    out = np.empty(u.shape)
    for node in np.unique(hid_idx):
        mask = hid_idx == node
        out[mask] = _marginal(truth.marginals[node]).ppf(u[mask])
    return out


def latent_of(truth, x):
    """Latent Gaussian coordinates of outcome rows (R, n)."""
    z = np.empty(x.shape)
    for i, m in enumerate(truth.marginals):
        z[:, i] = stats.norm.ppf(_marginal(m).cdf(x[:, i]))
    return z


def reference_exact_decimation(truth, replicates, seed, bin_width=0.05):
    """Per-bin mean L1 of the exact conditional median under decimation,
    with its standard deviation over replicates.

    Returns {bin_low: (mean, sd)}, binned as ``harness.decimate`` bins:
    step k of n goes to bin floor((k / n) / bin_width).
    """
    rng = np.random.default_rng(seed)
    n = truth.n_nodes
    corr = np.asarray(truth.correlation)
    z = rng.standard_normal((replicates, n)) @ np.linalg.cholesky(corr).T
    x = np.empty(z.shape)
    for i, m in enumerate(truth.marginals):
        x[:, i] = _marginal(m).ppf(stats.norm.cdf(z[:, i]))
    always = list(truth.always_observed)
    rest = np.setdiff1d(np.arange(n), always)
    order = np.array(
        [always + list(rng.permutation(rest)) for _ in range(replicates)],
        dtype=np.intp,
    ).reshape(replicates, n)
    medians = np.array([_marginal(m).median() for m in truth.marginals])

    n_bins = int(round(1.0 / bin_width))
    per_bin: dict[int, list] = {}
    for k in range(len(always), n):
        hid = np.sort(order[:, k:], axis=1)
        if k:
            obs = np.sort(order[:, :k], axis=1)
            pred = exact_median(truth, np.take_along_axis(z, obs, 1), obs, hid)
        else:
            pred = medians[hid]
        err = np.abs(pred - np.take_along_axis(x, hid, 1)).sum(axis=1)
        b = min(int((k / n) / bin_width), n_bins - 1)
        acc = per_bin.setdefault(b, [np.zeros(replicates), 0])
        acc[0] += err
        acc[1] += n - k
    return {
        round(b * bin_width, 10): (float(np.mean(s / pts)), float(np.std(s / pts, ddof=1)))
        for b, (s, pts) in per_bin.items()
    }


def check_exact_column(table, replicates, reference, ref_replicates):
    """The table's ``exact`` mean L1 agrees with the reference bin by bin."""
    errors = []
    rows = {r["bin_low"]: r for r in table if r["predictor"] == "exact"}
    if set(rows) != set(reference):
        return [f"exact column bins {sorted(rows)} != reference {sorted(reference)}"]
    for b, (mean, sd) in sorted(reference.items()):
        tol = SIGMAS * sd * np.sqrt(1.0 / replicates + 1.0 / ref_replicates)
        got = rows[b]["mean_l1"]
        if not abs(got - mean) <= tol:
            errors.append(f"exact mean L1 {got:.5f} in bin {b} vs reference "
                          f"{mean:.5f} (tolerance {tol:.5f})")
    return errors


def check_exact_is_best(table, bin_low=0.5):
    """No predictor has a lower mean L1 than ``exact`` in the bin."""
    rows = [r for r in table if r["bin_low"] == bin_low]
    exact = [r["mean_l1"] for r in rows if r["predictor"] == "exact"]
    if not exact:
        return [f"no exact row in bin {bin_low}"]
    return [f"{r['predictor']} beats exact in bin {bin_low}"
            for r in rows if r["mean_l1"] < exact[0]]


def check_all_converged(table):
    return [f"{r['predictor']} nonconverged in bin {r['bin_low']}"
            for r in table if r["nonconverged_ratio"] != 0.0]


def check_beats_median(table, bins):
    """``inverse-cdf`` is at most ``median`` in the listed bins."""
    curve = {(r["bin_low"], r["predictor"]): r["mean_l1"] for r in table}
    return [f"inverse-cdf above median in bin {b}"
            for b in bins if curve[(b, "inverse-cdf")] > curve[(b, "median")]]


def runs_per_bin(n_nodes, n_always, replicates, bin_width=0.05):
    """Message-passing runs per bin of a decimation table: one per
    replicate and reveal step."""
    n_bins = int(round(1.0 / bin_width))
    out: dict[float, int] = {}
    for k in range(n_always, n_nodes):
        b = round(min(int((k / n_nodes) / bin_width), n_bins - 1) * bin_width, 10)
        out[b] = out.get(b, 0) + replicates
    return out


def nonconverged_runs(table, predictor, runs):
    """Unconverged runs of one predictor, summed over the table's bins;
    ``runs`` maps bin_low to the runs in that bin."""
    return sum(
        int(round(r["nonconverged_ratio"] * runs[r["bin_low"]]))
        for r in table if r["predictor"] == predictor
    )


def check_local_consistency(state, edges, imposed, tol=1e-6):
    """Edge beliefs marginalise to node beliefs, and observed nodes carry
    their imposed beliefs (both hold at any BP fixed point)."""
    errors = []
    nodes = state.node_beliefs
    pairs = state.edge_beliefs
    for e, (i, j) in enumerate(edges):
        gap = max(np.max(np.abs(pairs[e].sum(axis=1) - nodes[i])),
                  np.max(np.abs(pairs[e].sum(axis=0) - nodes[j])))
        if not gap <= tol:
            errors.append(f"edge ({i},{j}) marginal off by {gap:.2e}")
    for i, b in imposed.items():
        b = np.asarray(b, dtype=float) / np.sum(b)
        gap = np.max(np.abs(nodes[i] - b))
        if not gap <= tol:
            errors.append(f"observed node {i} belief off by {gap:.2e}")
    return errors


def check_l1_order(exact_l1, latent_l1, median_l1):
    """exact <= latent <= marginal median over the query set."""
    if exact_l1 <= latent_l1 <= median_l1:
        return []
    return [f"mean L1 order broken: exact {exact_l1:.4f}, latent "
            f"{latent_l1:.4f}, median {median_l1:.4f}"]


def check_calibration(alpha, deviation_at, tau, precision):
    """deviation(alpha) <= tau, and deviation(alpha + precision) > tau
    unless alpha is already 1."""
    errors = []
    if not deviation_at(alpha) <= tau:
        errors.append(f"deviation at alpha {alpha} exceeds tau {tau}")
    if alpha + precision <= 1.0 and not deviation_at(alpha + precision) > tau:
        errors.append(f"alpha {alpha} is not the largest feasible value")
    return errors


def check_frechet(marginals):
    """Every p11 lies strictly inside [max(0, pi + pj - 1), min(pi, pj)]."""
    return [
        f"p11 {m.p_ij11} of edge {e} outside its Frechet interval"
        for e, m in enumerate(marginals)
        if not max(0.0, m.p_i1 + m.p_j1 - 1.0) < m.p_ij11 < min(m.p_i1, m.p_j1)
    ]


def check_cli_output(text, state, report, predictions):
    """The CLI rows equal the in-process query to the printed digits."""
    rows = list(csv.reader(io.StringIO(text)))
    expected = [["node", "belief1", "prediction", "converged", "sweeps"]] + [
        [str(node), f"{state.node_beliefs[node, 1]:.9g}",
         f"{predictions[node]:.9g}", str(int(report.converged)), str(report.sweeps)]
        for node in sorted(predictions)
    ]
    if rows == expected:
        return []
    bad = next(k for k in range(max(len(rows), len(expected)))
               if k >= len(rows) or k >= len(expected) or rows[k] != expected[k])
    return [f"CLI output differs from the in-process query at row {bad}"]
