"""Probabilistic flow tubes: fitting from sampled trajectories, alignment
and clustering, Bayesian intent posteriors, and Monte Carlo pairwise
collision risk, sampled offline into one table per tube pair.

A flow tube is a time-indexed sequence of planar Gaussians describing a
maneuver with tracking uncertainty.  Collision probabilities between two
tubes are estimated by sampling positions and testing overlap of the
three-circle vehicle footprints; per-cell sample streams are derived
deterministically from a base seed so table lookups reproduce direct
sampling exactly.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .model import state_risk_tilde

COV_EPSILON = 1e-6  # m^2, regularization added to fitted covariances
DEFAULT_HZ = 6.0
DEFAULT_SAMPLES = 10_000
SIGMA_REACH = 6.0  # standard deviations past which a step-matrix cell is not sampled
RING_MARGIN = 1e-9  # m, slack on the ring radius, far above rounding error


@dataclass(frozen=True, eq=False)
class Pft:
    """One maneuver's flow tube: means (T, 2), covariances (T, 2, 2)."""

    timestep: float
    means: np.ndarray
    covariances: np.ndarray
    heading: np.ndarray | None = None
    label: str = ""

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float)
        covs = np.asarray(self.covariances, dtype=float)
        if means.ndim != 2 or means.shape[1] != 2 or len(means) < 1:
            raise ValueError("means must have shape (T, 2) with T >= 1")
        if covs.shape != (len(means), 2, 2):
            raise ValueError("covariances must have shape (T, 2, 2)")
        if not np.allclose(covs, np.swapaxes(covs, 1, 2), atol=1e-9):
            raise ValueError("covariances must be symmetric")
        eigs = np.linalg.eigvalsh(covs)
        if np.any(eigs < -1e-9):
            raise ValueError("covariances must be positive semi-definite")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covariances", covs)
        if self.heading is not None:
            object.__setattr__(self, "heading", np.asarray(self.heading, dtype=float))

    def __len__(self) -> int:
        return len(self.means)

    def headings(self) -> np.ndarray:
        """Per-index headings: stored values, or mean-path tangents with
        zero-length segments inheriting the previous direction."""
        cached = getattr(self, "_headings", None)
        if cached is not None:
            return cached
        if self.heading is not None:
            out = np.asarray(self.heading, dtype=float)
        elif len(self) == 1:
            out = np.zeros(1)
        else:
            deltas = np.diff(self.means, axis=0)
            moved = np.hypot(deltas[:, 0], deltas[:, 1]) > 1e-12
            angles = np.arctan2(deltas[:, 1], deltas[:, 0])
            out = np.zeros(len(self))
            first = np.argmax(moved) if moved.any() else None
            prev = angles[first] if first is not None else 0.0
            for t in range(len(deltas)):
                if moved[t]:
                    prev = angles[t]
                out[t] = prev
            out[-1] = prev
        object.__setattr__(self, "_headings", out)
        return out

    def heading_at(self, index: int) -> float:
        """Stored heading, or the mean-path tangent at the index."""
        return float(self.headings()[index])

    def to_json(self) -> str:
        payload = {
            "timestep": self.timestep,
            "label": self.label,
            "means": self.means.tolist(),
            "covariances": self.covariances.reshape(len(self), 4).tolist(),
        }
        if self.heading is not None:
            payload["heading"] = self.heading.tolist()
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "Pft":
        data = json.loads(text)
        covs = np.asarray(data["covariances"], dtype=float).reshape(-1, 2, 2)
        return cls(
            timestep=float(data["timestep"]),
            means=np.asarray(data["means"], dtype=float),
            covariances=covs,
            heading=np.asarray(data["heading"], float) if "heading" in data else None,
            label=data.get("label", ""),
        )


@dataclass(frozen=True)
class VehicleGeometry:
    """Rectangular vehicle footprint covered by three collinear circles."""

    length: float = 4.5
    width: float = 2.0

    @property
    def radius(self) -> float:
        # spec value width/2 * sqrt(2), enlarged if needed so the circles
        # provably cover the rectangle for long vehicles
        cover = math.sqrt((self.length / 6.0) ** 2 + (self.width / 2.0) ** 2)
        return max(self.width / 2.0 * math.sqrt(2.0), cover)

    @property
    def circle_offsets(self) -> tuple:
        return (-self.length / 3.0, 0.0, self.length / 3.0)

    def offsets_at(self, heading: float) -> np.ndarray:
        """Circle centers relative to the vehicle's position, (3, 2)."""
        direction = np.array([math.cos(heading), math.sin(heading)])
        return np.outer(self.circle_offsets, direction)


# ---------------------------------------------------------------------------
# alignment, fitting, clustering


def _resample_to_length(points: np.ndarray, target_len: int) -> np.ndarray:
    """Index-uniform linear resampling of a polyline to target_len points."""
    points = np.asarray(points, dtype=float)
    if len(points) == 1:
        return np.repeat(points, target_len, axis=0)
    old = np.arange(len(points), dtype=float)
    new = np.linspace(0.0, len(points) - 1.0, target_len)
    return np.stack(
        [np.interp(new, old, points[:, d]) for d in range(points.shape[1])], axis=1
    )


def dtw_cost_and_path(a: np.ndarray, b: np.ndarray):
    """Classic dynamic time warping with Euclidean ground metric.

    Returns (total cost, list of index pairs (ia, ib)).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n, m = len(a), len(b)
    dist = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    acc = np.full((n + 1, m + 1), np.inf)
    acc[0, 0] = 0.0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            acc[i, j] = dist[i - 1, j - 1] + min(
                acc[i - 1, j], acc[i, j - 1], acc[i - 1, j - 1]
            )
    path = []
    i, j = n, m
    while i > 0 and j > 0:
        path.append((i - 1, j - 1))
        step = np.argmin((acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1]))
        if step == 0:
            i, j = i - 1, j - 1
        elif step == 1:
            i -= 1
        else:
            j -= 1
    path.reverse()
    return float(acc[n, m]), path


def dtw_distance(a: np.ndarray, b: np.ndarray) -> float:
    return dtw_cost_and_path(a, b)[0]


def dtw_align(trajectories: list, target_len: int | None = None) -> list:
    """Warp every trajectory onto the medoid and resample to a common length.

    The medoid (minimum summed DTW cost) supplies the time base; each
    trajectory is collapsed onto it by averaging the points matched to each
    medoid index, then index-uniformly resampled to ``target_len`` (median
    input length by default).
    """
    if not trajectories:
        raise ValueError("no trajectories to align")
    trajectories = [np.asarray(t, dtype=float) for t in trajectories]
    for t in trajectories:
        if len(t) < 2:
            raise ValueError("each trajectory needs at least 2 points")
    if target_len is None:
        target_len = int(np.median([len(t) for t in trajectories]))
    target_len = max(int(target_len), 2)

    if len(trajectories) == 1:
        return [_resample_to_length(trajectories[0], target_len)]

    costs = np.zeros((len(trajectories), len(trajectories)))
    for i, j in itertools.combinations(range(len(trajectories)), 2):
        costs[i, j] = costs[j, i] = dtw_distance(trajectories[i], trajectories[j])
    medoid = trajectories[int(np.argmin(costs.sum(axis=1)))]

    aligned = []
    for traj in trajectories:
        _, path = dtw_cost_and_path(medoid, traj)
        sums = np.zeros((len(medoid), 2))
        counts = np.zeros(len(medoid))
        for im, it in path:
            sums[im] += traj[it]
            counts[im] += 1
        warped = sums / counts[:, None]
        aligned.append(_resample_to_length(warped, target_len))
    return aligned


def pft_fit(
    aligned: list,
    timestep: float = 1.0 / DEFAULT_HZ,
    label: str = "",
    cov_floor: float | None = None,
) -> Pft:
    """Fit per-index sample means and covariances (divisor N-1) with
    epsilon-identity regularization.  A single trajectory is only accepted
    with an explicit covariance floor."""
    runs = np.asarray([np.asarray(t, dtype=float) for t in aligned])
    if runs.ndim != 3:
        raise ValueError("aligned trajectories must share one length")
    n = len(runs)
    if n < 2 and cov_floor is None:
        raise ValueError("need >= 2 trajectories unless a covariance floor is given")
    means = runs.mean(axis=0)
    if n >= 2:
        centered = runs - means[None, :, :]
        covs = np.einsum("nti,ntj->tij", centered, centered) / (n - 1)
    else:
        covs = np.zeros((runs.shape[1], 2, 2))
    eps = COV_EPSILON if cov_floor is None else float(cov_floor)
    covs = covs + eps * np.eye(2)[None, :, :]
    return Pft(timestep=timestep, means=means, covariances=covs, label=label)


def cluster_trajectories(
    trajectories: list,
    distance_threshold: float,
    variance_threshold: float | None = None,
) -> list:
    """Agglomerative clustering under DTW distance; returns index lists.

    When a fitted tube's largest per-step variance exceeds
    ``variance_threshold``, the offending cluster is split and refit until
    every tube is tight or the cluster is a singleton.
    """
    from scipy.cluster.hierarchy import fcluster, linkage
    from scipy.spatial.distance import squareform

    if not trajectories:
        raise ValueError("no trajectories to cluster")
    if len(trajectories) == 1:
        return [[0]]
    trajs = [np.asarray(t, dtype=float) for t in trajectories]
    n = len(trajs)
    dmat = np.zeros((n, n))
    for i, j in itertools.combinations(range(n), 2):
        dmat[i, j] = dmat[j, i] = dtw_distance(trajs[i], trajs[j])

    def split(indices, threshold):
        if len(indices) == 1:
            return [list(indices)]
        sub = squareform(dmat[np.ix_(indices, indices)], checks=False)
        labels = fcluster(linkage(sub, method="average"), t=threshold, criterion="distance")
        groups = {}
        for idx, lab in zip(indices, labels):
            groups.setdefault(lab, []).append(idx)
        return list(groups.values())

    clusters = split(list(range(n)), distance_threshold)

    if variance_threshold is not None:
        stable = []
        work = clusters
        while work:
            cluster = work.pop()
            if len(cluster) == 1:
                stable.append(cluster)
                continue
            tube = pft_fit(dtw_align([trajs[i] for i in cluster]))
            if float(np.max(np.linalg.eigvalsh(tube.covariances))) <= variance_threshold:
                stable.append(cluster)
                continue
            parts = split(cluster, distance_threshold / 2.0)
            if len(parts) == 1:  # threshold could not separate; force a cut
                mid = len(cluster) // 2
                parts = [cluster[:mid], cluster[mid:]]
            work.extend(parts)
        clusters = stable
    return sorted(clusters)


# ---------------------------------------------------------------------------
# intent recognition


def _log_gauss2(x: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    d = x - mean
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    det = max(det, 1e-300)
    inv00, inv01, inv11 = cov[1, 1] / det, -cov[0, 1] / det, cov[0, 0] / det
    quad = d[0] * (inv00 * d[0] + inv01 * d[1]) + d[1] * (inv01 * d[0] + inv11 * d[1])
    return -math.log(2.0 * math.pi) - 0.5 * math.log(det) - 0.5 * quad


def intent_posterior(
    candidates: dict,
    observed_prefix: np.ndarray,
    prior: dict | None = None,
) -> dict:
    """Posterior over candidate tubes given tracked positions.

    Observation t is associated with tube index min(t, len - 1); the
    posterior is prior times the product of per-step Gaussian likelihoods,
    computed in log space and normalized.
    """
    if not candidates:
        raise ValueError("empty candidate set")
    labels = sorted(candidates)
    if prior is None:
        prior = {lab: 1.0 / len(labels) for lab in labels}
    observed = np.asarray(observed_prefix, dtype=float).reshape(-1, 2)

    logs = []
    for lab in labels:
        tube = candidates[lab]
        lp = math.log(max(prior[lab], 1e-300))
        for t, obs in enumerate(observed):
            idx = min(t, len(tube) - 1)
            lp += _log_gauss2(obs, tube.means[idx], tube.covariances[idx])
        logs.append(lp)
    logs = np.asarray(logs)
    logs -= logs.max()
    weights = np.exp(logs)
    weights /= weights.sum()
    return dict(zip(labels, (float(w) for w in weights)))


# ---------------------------------------------------------------------------
# Monte Carlo collision probability


def _chol2(cov: np.ndarray) -> np.ndarray:
    jitter = 0.0
    for _ in range(4):
        try:
            return np.linalg.cholesky(cov + jitter * np.eye(2))
        except np.linalg.LinAlgError:
            jitter = max(jitter * 10.0, 1e-12)
    raise ValueError(f"covariance not factorizable: {cov!r}")


def _ring_checks(offs1: np.ndarray, offs2: np.ndarray, touch2: float):
    """Circle-pair checks beyond the middle pair for K cells.

    ``offs1`` and ``offs2`` are (K, 3, 2) circle offsets.  Returns the
    offset differences o1 - o2 of the eight other circle pairs, (K, 8, 2),
    and the squared radius (K,) outside which no sample can touch at any of
    them: a hit at difference d needs |rel + d| <= r, so |rel| <= r + |d|."""
    diffs = (offs1[:, :, None, :] - offs2[:, None, :, :]).reshape(-1, 9, 2)
    diffs = np.delete(diffs, 4, axis=1)  # the middle pair: difference 0
    reach = np.sqrt((diffs * diffs).sum(axis=2).max(axis=1))
    return diffs, (math.sqrt(touch2) + reach + RING_MARGIN) ** 2


def _cell_prob(rng, n, mean1, chol1t, mean2, chol2t, diffs, touch2, ring2) -> float:
    """One Monte Carlo cell; the position draws consume the stream in a
    fixed order so any caller with the same stream reproduces the value
    exactly (one combined draw equals two consecutive ones).

    Means are (2, 1) columns, ``chol*t`` transposed Cholesky factors, and
    ``diffs``/``ring2`` one cell of ``_ring_checks``.  Each circle-pair
    check is ``dx * dx + dy * dy <= touch2`` on ``rel + d``, so the count
    equals the full nine-pair test bit for bit; the middle pair (d = 0) runs
    on every sample, the other eight only on misses inside the ring."""
    z = rng.standard_normal((2 * n, 2))
    rel = np.add((z[:n] @ chol1t).T, mean1, out=np.empty((2, n)))
    rel -= np.add((z[n:] @ chol2t).T, mean2, out=np.empty((2, n)))
    rx, ry = rel
    r2 = rx * rx
    r2 += ry * ry
    hit = r2 <= touch2
    near = r2 <= ring2  # ring2 >= touch2, so every hit is near
    count = int(np.count_nonzero(hit))
    if np.count_nonzero(near) > count:
        near ^= hit
        dx = rx[near] + diffs[:, :1]  # (8, m)
        dy = ry[near] + diffs[:, 1:]
        d2 = dx * dx
        d2 += dy * dy
        count += int(np.count_nonzero((d2 <= touch2).any(axis=0)))
    return count / n


def cell_seed(seed: int, idx1: int, idx2: int):
    """Deterministic per-cell sample stream shared by tables and direct
    calls.  The 0 in the entropy keeps every stream as it was when each
    table pair had its own index there."""
    return np.random.SeedSequence((int(seed), 0, int(idx1), int(idx2)))


def collision_prob_at(
    p1: Pft,
    t1: int,
    p2: Pft,
    t2: int,
    g1: VehicleGeometry,
    g2: VehicleGeometry,
    n: int = DEFAULT_SAMPLES,
    seed: int | np.random.SeedSequence = 0,
) -> float:
    """Monte Carlo probability that the two vehicles overlap at the given
    tube indices: sample position pairs, rebuild circle triplets along the
    headings, and count any circle-pair contact."""
    if not 0 <= t1 < len(p1) or not 0 <= t2 < len(p2):
        raise IndexError("tube index out of range")
    if n < 1:
        raise ValueError("need at least one sample")
    touch2 = (g1.radius + g2.radius) ** 2
    diffs, ring2 = _ring_checks(
        g1.offsets_at(p1.heading_at(t1))[None], g2.offsets_at(p2.heading_at(t2))[None], touch2
    )
    return _cell_prob(
        np.random.default_rng(seed),
        n,
        p1.means[t1][:, None],
        _chol2(p1.covariances[t1]).T,
        p2.means[t2][:, None],
        _chol2(p2.covariances[t2]).T,
        diffs[0],
        touch2,
        ring2[0],
    )


# ---------------------------------------------------------------------------
# offline pair tables


def step_probability_matrix(
    p1: Pft,
    p2: Pft,
    g1: VehicleGeometry,
    g2: VehicleGeometry,
    n: int,
    seed: int,
) -> np.ndarray:
    """Per-index-pair collision probabilities, skipping pairs whose means
    are too far apart for any sampled overlap (``SIGMA_REACH`` standard
    deviations plus vehicle extents).  Sampled cells reuse the shared
    per-cell streams, so entries equal collision_prob_at exactly."""
    if n < 1:
        raise ValueError("need at least one sample")
    out = np.zeros((len(p1), len(p2)))
    ext1 = g1.radius + g1.length / 3.0
    ext2 = g2.radius + g2.length / 3.0
    sd1 = np.sqrt(np.linalg.eigvalsh(p1.covariances)[:, -1])
    sd2 = np.sqrt(np.linalg.eigvalsh(p2.covariances)[:, -1])
    dists = np.linalg.norm(p1.means[:, None, :] - p2.means[None, :, :], axis=2)
    reach = ext1 + ext2 + SIGMA_REACH * (sd1[:, None] + sd2[None, :])
    cells1, cells2 = np.nonzero(dists <= reach)
    if not len(cells1):
        return out
    means1, means2 = p1.means[:, :, None], p2.means[:, :, None]
    chol1t = [_chol2(c).T for c in p1.covariances]
    chol2t = [_chol2(c).T for c in p2.covariances]
    offs1 = np.array([g1.offsets_at(h) for h in p1.headings()])
    offs2 = np.array([g2.offsets_at(h) for h in p2.headings()])
    touch2 = (g1.radius + g2.radius) ** 2
    diffs, ring2 = _ring_checks(offs1[cells1], offs2[cells2], touch2)
    for k, (i1, i2) in enumerate(zip(cells1.tolist(), cells2.tolist())):
        rng = np.random.default_rng(cell_seed(seed, i1, i2))
        out[i1, i2] = _cell_prob(
            rng, n, means1[i1], chol1t[i1], means2[i2], chol2t[i2],
            diffs[k], touch2, ring2[k],
        )
    return out


def window_risk(step_matrix: np.ndarray, q1: int, q2: int) -> float:
    """Window risk for axis values (q1, q2) over a step-probability matrix;
    axis 0 stays frozen at index 0, q >= 1 advances from index q - 1, and
    indices past the tube end are skipped (departed).  The window runs to
    the end of both tubes.

    Two frozen vehicles hold a single static position pair, so their risk
    is the one-shot overlap probability, not a per-step compound."""
    if q1 == 0 and q2 == 0:
        return float(step_matrix[0, 0])
    ahead = step_matrix[max(q1 - 1, 0):, max(q2 - 1, 0):]
    if q1 == 0:
        steps = ahead[0]
    elif q2 == 0:
        steps = ahead[:, 0]
    else:
        steps = ahead.diagonal()
    return state_risk_tilde(steps.tolist())


def window_risk_table(step_matrix: np.ndarray) -> np.ndarray:
    """``window_risk`` at every pair of axis values: a (len1 + 1) x
    (len2 + 1) table for a (len1, len2) step-probability matrix, each
    window running to the end of both tubes."""
    len1, len2 = step_matrix.shape
    table = np.zeros((len1 + 1, len2 + 1))
    for q1 in range(len1 + 1):
        for q2 in range(len2 + 1):
            table[q1, q2] = window_risk(step_matrix, q1, q2)
    return table


@dataclass
class PairRisk:
    """Step-probability matrix and windowed risk table for one tube pair
    (axis 0 = the first tube of ``key``)."""

    key: tuple
    matrix: np.ndarray
    table: np.ndarray  # (len1 + 1, len2 + 1)

    def lookup(self, axis1: int, axis2: int) -> float:
        return float(self.table[axis1, axis2])


def sample_pair_risk(
    key: tuple,
    p1: Pft,
    p2: Pft,
    geometry: VehicleGeometry,
    n: int,
    seed: int,
) -> PairRisk | None:
    """The offline table of one unordered tube pair, or None when its
    sampled step matrix is all zero: the pair never interacts.

    ``key`` names the pair, with ``p1`` and ``p2`` in its order.  The
    pair's sample streams are seeded from ``seed`` and an md5 of
    ``repr(key)``, so a pair's table does not depend on which other pairs
    are sampled, and each window runs to the end of both tubes."""
    digest = hashlib.md5(repr(key).encode()).digest()
    pair_seed = int(
        np.random.SeedSequence((seed, int.from_bytes(digest[:8], "little"))).generate_state(1)[0]
    )
    matrix = step_probability_matrix(p1, p2, geometry, geometry, n=n, seed=pair_seed)
    if not matrix.any():
        return None
    return PairRisk(key, matrix, window_risk_table(matrix))


# ---------------------------------------------------------------------------
# synthetic trajectory generation (stands in for recorded controller runs)


def synthesize_tracking_runs(
    nominal: np.ndarray,
    n_runs: int,
    seed: int = 0,
    noise_sd: float = 0.06,
) -> list:
    """Proportional-tracking rollouts of a nominal path with a per-run gain
    drawn from [0.55, 1) and process noise, emulating controller-to-
    controller spread.  Vehicles line up accurately, so the start-point
    spread is a quarter of the in-motion noise."""
    nominal = np.asarray(nominal, dtype=float)
    rng = np.random.default_rng(seed)
    start_sd = 0.25 * noise_sd
    runs = []
    for _ in range(n_runs):
        gain = rng.uniform(0.55, 1.0)
        pos = nominal[0] + rng.normal(0.0, start_sd, size=2)
        points = [pos.copy()]
        for target in nominal[1:]:
            pos = pos + gain * (target - pos) + rng.normal(0.0, noise_sd, size=2)
            points.append(pos.copy())
        runs.append(np.asarray(points))
    return runs


def resample_polyline(points: np.ndarray, spacing: float) -> np.ndarray:
    """Arclength-uniform resampling of a polyline at the given spacing."""
    points = np.asarray(points, dtype=float)
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    total = arc[-1]
    n_steps = max(int(round(total / spacing)), 1)
    stations = np.linspace(0.0, total, n_steps + 1)
    return np.stack(
        [np.interp(stations, arc, points[:, d]) for d in range(2)], axis=1
    )


def pft_from_path(
    path: np.ndarray,
    speed: float,
    hz: float = DEFAULT_HZ,
    seed: int = 0,
    noise_sd: float = 0.06,
    label: str = "",
) -> Pft:
    """Flow tube for a reference path traversed at constant speed: resample
    by arclength at speed/hz spacing, roll out 30 tracking runs, and fit."""
    nominal = resample_polyline(path, spacing=speed / hz)
    runs = synthesize_tracking_runs(nominal, 30, seed=seed, noise_sd=noise_sd)
    tube = pft_fit(runs, timestep=1.0 / hz, label=label)
    return tube
