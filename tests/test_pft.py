import math

import numpy as np
import pytest
from scipy.stats import norm

from builders import pair_cell_stream
from mccssp.model import state_risk_tilde
from mccssp.pft import (
    Pft,
    VehicleGeometry,
    _chol2,
    cell_seed,
    cluster_trajectories,
    collision_prob_at,
    dtw_align,
    dtw_cost_and_path,
    intent_posterior,
    pft_fit,
    pft_from_path,
    sample_pair_risk,
    step_probability_matrix,
    synthesize_tracking_runs,
)

GEOM = VehicleGeometry(4.5, 2.0)


def line(n, dx=0.5, y=0.0):
    return np.stack([np.arange(n) * dx, np.full(n, y)], axis=1)


def test_fit_constant_point_gets_epsilon_identity():
    tube = pft_fit([np.zeros((4, 2)), np.zeros((4, 2))])
    assert np.allclose(tube.means, 0.0)
    assert np.allclose(tube.covariances, 1e-6 * np.eye(2))


def test_fit_two_points_sample_covariance():
    tube = pft_fit([np.array([[1.0, 0.0]]), np.array([[-1.0, 0.0]])])
    assert np.allclose(tube.means[0], [0.0, 0.0])
    assert abs(tube.covariances[0, 0, 0] - (2.0 + 1e-6)) < 1e-12


def test_fit_requires_two_runs_without_floor():
    with pytest.raises(ValueError):
        pft_fit([np.zeros((3, 2))])
    tube = pft_fit([np.zeros((3, 2))], cov_floor=0.5)
    assert np.allclose(tube.covariances, 0.5 * np.eye(2))


def test_fit_recovers_known_gaussian():
    rng = np.random.default_rng(8)
    n = 400
    runs = [np.array([[rng.normal(3.0, 0.5), rng.normal(-1.0, 0.2)]]) for _ in range(n)]
    tube = pft_fit(runs)
    assert abs(tube.means[0, 0] - 3.0) < 4 * 0.5 / math.sqrt(n)
    assert abs(tube.means[0, 1] + 1.0) < 4 * 0.2 / math.sqrt(n)


def test_covariance_must_be_psd():
    with pytest.raises(ValueError):
        Pft(1.0, np.zeros((1, 2)), np.array([[[1.0, 2.0], [2.0, 1.0]]]))


def test_dtw_identical_trajectories_align_exactly():
    t = line(21)
    aligned = dtw_align([t, t.copy()])
    assert np.allclose(aligned[0], aligned[1])


def test_dtw_double_sampling_rate():
    slow = line(21, dx=0.5)
    fast = line(41, dx=0.25)
    aligned = dtw_align([slow, fast], target_len=21)
    err = np.max(np.linalg.norm(aligned[0] - aligned[1], axis=1))
    assert err <= 0.25 + 1e-9  # half a sample step


def test_dtw_single_trajectory_resampled():
    t = line(10)
    aligned = dtw_align([t], target_len=25)
    assert len(aligned) == 1 and aligned[0].shape == (25, 2)


def test_dtw_cost_zero_for_equal_paths():
    t = line(8)
    cost, path = dtw_cost_and_path(t, t)
    assert cost == 0.0
    assert path[0] == (0, 0) and path[-1] == (7, 7)


def test_dtw_rejects_too_short():
    with pytest.raises(ValueError):
        dtw_align([np.zeros((1, 2))])
    with pytest.raises(ValueError):
        dtw_align([])


def test_clustering_separates_bundles(rng):
    base = line(15)
    b1 = [base + rng.normal(0, 0.05, base.shape) for _ in range(4)]
    b2 = [base + [0, 40.0] + rng.normal(0, 0.05, base.shape) for _ in range(4)]
    clusters = cluster_trajectories(b1 + b2, distance_threshold=20.0)
    assert sorted(map(sorted, clusters)) == [[0, 1, 2, 3], [4, 5, 6, 7]]


def test_clustering_degenerate_threshold(rng):
    base = line(15)
    bundle = [base + rng.normal(0, 0.05, base.shape) for _ in range(5)]
    assert len(cluster_trajectories(bundle, distance_threshold=np.inf)) == 1
    assert cluster_trajectories([base], distance_threshold=1.0) == [[0]]


def test_variance_triggered_recluster(rng):
    base = line(15)
    tight = [base + rng.normal(0, 0.02, base.shape) for _ in range(4)]
    shifted = [base + [0, 6.0] + rng.normal(0, 0.02, base.shape) for _ in range(4)]
    merged = cluster_trajectories(tight + shifted, distance_threshold=np.inf)
    assert len(merged) == 1
    split = cluster_trajectories(
        tight + shifted, distance_threshold=np.inf, variance_threshold=1.0
    )
    assert len(split) == 2


def _candidates(sep=5.0):
    m1 = line(12)
    covs = np.tile(0.04 * np.eye(2), (12, 1, 1))
    return {
        "a": Pft(1 / 6, m1, covs, label="a"),
        "b": Pft(1 / 6, m1 + [0.0, sep], covs, label="b"),
    }


def test_posterior_concentrates_on_generator():
    cands = _candidates()
    post = intent_posterior(cands, cands["a"].means)
    assert post["a"] >= 0.99


def test_posterior_equals_prior_without_evidence():
    cands = _candidates()
    post = intent_posterior(cands, np.zeros((0, 2)), prior={"a": 0.3, "b": 0.7})
    assert abs(post["a"] - 0.3) < 1e-12


def test_posterior_symmetric_for_identical_candidates():
    m = line(12)
    covs = np.tile(0.04 * np.eye(2), (12, 1, 1))
    cands = {"a": Pft(1 / 6, m, covs), "b": Pft(1 / 6, m.copy(), covs.copy())}
    post = intent_posterior(cands, m[:6])
    assert abs(post["a"] - 0.5) < 1e-12


def test_posterior_invariant_under_relabeling():
    cands = _candidates()
    obs = cands["a"].means[:8]
    post = intent_posterior(cands, obs)
    swapped = intent_posterior({"b": cands["a"], "a": cands["b"]}, obs)
    assert abs(post["a"] - swapped["b"]) < 1e-12


def test_posterior_rejects_empty_candidates():
    with pytest.raises(ValueError):
        intent_posterior({}, np.zeros((1, 2)))


def test_collision_probability_extremes():
    far = Pft(1 / 6, np.array([[1000.0, 0.0]]), 0.01 * np.eye(2)[None])
    near = Pft(1 / 6, np.array([[0.0, 0.0]]), 1e-9 * np.eye(2)[None])
    assert collision_prob_at(near, 0, far, 0, GEOM, GEOM, 1000, 1) == 0.0
    assert collision_prob_at(near, 0, near, 0, GEOM, GEOM, 1000, 1) == 1.0


def test_collision_probability_input_validation():
    tube = Pft(1 / 6, np.zeros((2, 2)), np.tile(np.eye(2), (2, 1, 1)))
    with pytest.raises(IndexError):
        collision_prob_at(tube, 5, tube, 0, GEOM, GEOM, 10, 0)
    with pytest.raises(ValueError):
        collision_prob_at(tube, 0, tube, 0, GEOM, GEOM, 0, 0)


def test_monte_carlo_matches_analytic_line_overlap():
    # both vehicles aligned along x with x-only noise: the three-circle
    # footprints collide iff the center gap is inside one merged interval
    sd1, sd2, mu = 1.2, 0.8, 5.0
    p1 = Pft(1 / 6, np.array([[0.0, 0.0], [1.0, 0.0]]),
             np.tile(np.diag([sd1**2, 1e-12]), (2, 1, 1)))
    p2 = Pft(1 / 6, np.array([[mu, 0.0], [mu + 1.0, 0.0]]),
             np.tile(np.diag([sd2**2, 1e-12]), (2, 1, 1)))
    n = 40_000
    mc = collision_prob_at(p1, 0, p2, 0, GEOM, GEOM, n, 12345)
    half = 2 * GEOM.length / 3 + 2 * GEOM.radius
    sd = math.hypot(sd1, sd2)
    analytic = norm.cdf((half + mu) / sd) - norm.cdf((-half + mu) / sd)
    assert abs(mc - analytic) <= 3.0 / math.sqrt(n)


def test_larger_geometry_never_reduces_collision_probability():
    p1 = Pft(1 / 6, np.array([[0.0, 0.0]]), 0.8 * np.eye(2)[None])
    p2 = Pft(1 / 6, np.array([[4.0, 0.0]]), 0.8 * np.eye(2)[None])
    probs = [
        collision_prob_at(p1, 0, p2, 0,
                          VehicleGeometry(4.5, w), VehicleGeometry(4.5, w),
                          4000, seed=99)
        for w in (1.6, 2.0, 2.4, 2.8)
    ]
    assert all(a <= b + 1e-12 for a, b in zip(probs, probs[1:]))


def test_step_risks_combine_one_minus_product():
    assert abs(state_risk_tilde([0.1, 0.1]) - 0.19) < 1e-15
    assert state_risk_tilde([0.5, 1.0]) == 1.0
    assert state_risk_tilde([0.0, 0.0]) == 0.0
    with pytest.raises(ValueError):
        state_risk_tilde([1.1])


def test_pair_table_extremes():
    overlap = Pft(1 / 6, np.zeros((8, 2)), np.tile(1e-9 * np.eye(2), (8, 1, 1)))
    apart = Pft(1 / 6, np.full((8, 2), 500.0), np.tile(1e-9 * np.eye(2), (8, 1, 1)))
    pair = sample_pair_risk(("a", "b"), overlap, overlap, GEOM, 100, 0)
    assert pair.table.shape == (9, 9) and (pair.table == 1.0).all()
    assert sample_pair_risk(("a", "b"), overlap, apart, GEOM, 100, 0) is None


@pytest.fixture(scope="module")
def crossing_tubes():
    pa = pft_from_path(np.array([[-20.0, 0.0], [20.0, 0.0]]), speed=8.0, seed=1, label="a")
    pb = pft_from_path(np.array([[0.0, -20.0], [0.0, 20.0]]), speed=8.0, seed=2, label="b")
    return pa, pb


def test_risk_table_shape_with_wait_slot(crossing_tubes):
    pa, pb = crossing_tubes
    pair = sample_pair_risk(("a", "b"), pa, pb, GEOM, 50, 0)
    assert pair.key == ("a", "b") and pair.matrix.shape == (len(pa), len(pb))
    assert pair.table.shape == (len(pa) + 1, len(pb) + 1)
    tube = Pft(1 / 6, line(10), np.tile(0.01 * np.eye(2), (10, 1, 1)), label="m1")
    other = Pft(1 / 6, line(10, y=100.0), np.tile(0.01 * np.eye(2), (10, 1, 1)), label="m2")
    assert sample_pair_risk(("m1", "m2"), tube, other, GEOM, 50, 0) is None  # never meet


def test_risk_table_matches_direct_sampling_per_seed(crossing_tubes):
    pa, pb = crossing_tubes
    pair = sample_pair_risk(("a", "b"), pa, pb, GEOM, 1500, 9)
    mid = len(pa) // 2 + 1
    entries = {}
    for q1, q2 in ((mid, mid), (mid - 1, mid - 6), (mid - 6, mid - 1)):
        # both advance one index per step; the window spans the longer
        # tube, and a step past either tube's end counts nothing
        steps = range(min(len(pa) - q1 + 1, len(pb) - q2 + 1))
        entries[q1, q2] = state_risk_tilde(
            collision_prob_at(pa, q1 - 1 + t, pb, q2 - 1 + t, GEOM, GEOM, 1500,
                              seed=pair_cell_stream(("a", "b"), 9, q1 - 1 + t, q2 - 1 + t))
            for t in steps
        )
        assert pair.lookup(q1, q2) == entries[q1, q2], (q1, q2)
    assert any(0.0 < value < 1.0 for value in entries.values())


def test_step_matrix_equals_cellwise_direct_calls(crossing_tubes):
    pa, pb = crossing_tubes
    matrix = step_probability_matrix(pa, pb, GEOM, GEOM, 800, seed=4)
    for i1 in range(len(pa)):
        for i2 in range(len(pb)):
            direct = collision_prob_at(
                pa, i1, pb, i2, GEOM, GEOM, 800, seed=cell_seed(4, i1, i2)
            )
            assert matrix[i1, i2] == direct, (i1, i2)
    # pruned cells are exact zeros, and the sampled ones are not all zero
    assert (matrix == 0.0).any() and (matrix > 0.0).any()


def _nine_pass_reference(p1, t1, p2, t2, g1, g2, n, seed):
    """The plain kernel: every sample tested against all nine circle pairs."""
    rng = np.random.default_rng(seed)
    offs1 = g1.offsets_at(p1.heading_at(t1))
    offs2 = g2.offsets_at(p2.heading_at(t2))
    touch2 = (g1.radius + g2.radius) ** 2
    z = rng.standard_normal((2 * n, 2))
    pos1 = p1.means[t1] + z[:n] @ _chol2(p1.covariances[t1]).T
    pos2 = p2.means[t2] + z[n:] @ _chol2(p2.covariances[t2]).T
    rel = pos1 - pos2
    hit = np.zeros(n, dtype=bool)
    for o1 in offs1:
        for o2 in offs2:
            dx = rel[:, 0] + (o1[0] - o2[0])
            dy = rel[:, 1] + (o1[1] - o2[1])
            hit |= (dx * dx + dy * dy) <= touch2
    return float(hit.mean())


def _random_tube(rng, length, origin, heading, spread):
    direction = np.array([math.cos(heading), math.sin(heading)])
    means = origin + np.arange(length)[:, None] * 1.5 * direction
    covs = []
    for _ in range(length):
        a = rng.normal(size=(2, 2)) * spread
        covs.append(a @ a.T + 1e-6 * np.eye(2))
    return Pft(1 / 6, means, np.array(covs), heading=np.full(length, heading))


@pytest.mark.parametrize("turn", [0.0, math.pi / 2, math.pi, 1.1])
def test_kernel_bit_identical_to_nine_pass_reference(turn):
    # parallel, crossing, head-on and oblique headings; unequal geometries
    rng = np.random.default_rng(int(turn * 1000) + 17)
    g1, g2 = VehicleGeometry(4.4, 1.9), VehicleGeometry(7.0, 2.2)
    values = []
    for trial in range(3):
        heading = rng.uniform(-math.pi, math.pi)
        gap = rng.uniform(3.0, 9.0) * np.array([math.cos(heading + 2.0), math.sin(heading + 2.0)])
        p1 = _random_tube(rng, 6, np.zeros(2), heading, 0.5)
        p2 = _random_tube(rng, 6, gap, heading + turn, 0.5)
        matrix = step_probability_matrix(p1, p2, g1, g2, 300, seed=100 + trial)
        for i1 in range(len(p1)):
            for i2 in range(len(p2)):
                seed = cell_seed(100 + trial, i1, i2)
                ref = _nine_pass_reference(p1, i1, p2, i2, g1, g2, 300, seed)
                assert collision_prob_at(p1, i1, p2, i2, g1, g2, 300, seed) == ref
                assert matrix[i1, i2] == ref
                values.append(ref)
    assert 0.0 in values and any(0.0 < v < 1.0 for v in values)


@pytest.mark.parametrize(
    "offset, heading2, expected",
    [
        ((0.0, 0.0), math.pi / 2, 1.0),  # middle circles overlap
        ((5.5, 0.0), 0.0, 1.0),  # nose to tail: every hit is in the ring
        ((0.0, 5.0), 0.0, 0.0),  # side by side: all samples in the ring, no hit
        ((6.75, 0.0), 0.0, None),  # nose to tail at the touching distance
    ],
)
def test_kernel_ring_cases_match_reference(offset, heading2, expected):
    g1, g2 = VehicleGeometry(4.4, 1.9), VehicleGeometry(7.0, 2.2)
    cov = np.diag([0.01, 0.01])[None]
    p1 = Pft(1 / 6, np.zeros((1, 2)), cov, heading=np.zeros(1))
    p2 = Pft(1 / 6, np.array([offset]), cov, heading=np.array([heading2]))
    seed = cell_seed(3, 0, 0)
    value = collision_prob_at(p1, 0, p2, 0, g1, g2, 2000, seed)
    assert value == _nine_pass_reference(p1, 0, p2, 0, g1, g2, 2000, seed)
    if expected is None:
        assert 0.0 < value < 1.0
    else:
        assert value == expected


def test_step_matrix_needs_a_sample(crossing_tubes):
    pa, pb = crossing_tubes
    with pytest.raises(ValueError, match="need at least one sample"):
        step_probability_matrix(pa, pb, GEOM, GEOM, 0, seed=4)
    with pytest.raises(ValueError, match="need at least one sample"):
        sample_pair_risk(("a", "b"), pa, pb, GEOM, 0, 4)


def test_risk_table_monotone_in_step_probabilities():
    probs = [0.05, 0.1, 0.2]
    accumulated = [state_risk_tilde([p] * 4) for p in probs]
    assert accumulated == sorted(accumulated)


def test_pft_serialization_roundtrip():
    tube = pft_fit([line(6), line(6) + 0.1], label="demo")
    clone = Pft.from_json(tube.to_json())
    assert clone.label == "demo"
    assert np.allclose(clone.means, tube.means)
    assert np.allclose(clone.covariances, tube.covariances)


def test_synthetic_runs_track_nominal():
    nominal = line(20, dx=1.0)
    runs = synthesize_tracking_runs(nominal, 40, seed=5, noise_sd=0.05)
    assert len(runs) == 40 and all(r.shape == nominal.shape for r in runs)
    err = np.mean([np.linalg.norm(r[-1] - nominal[-1]) for r in runs])
    assert err < 1.0


def test_three_circles_cover_rectangle():
    for length, width in ((4.5, 2.0), (5.2, 1.8), (7.0, 2.2)):
        geom = VehicleGeometry(length, width)
        corners = np.array(
            [[sx * length / 2, sy * width / 2] for sx in (-1, 1) for sy in (-1, 1)]
        )
        centers = geom.offsets_at(0.0)
        for corner in corners:
            assert min(np.linalg.norm(corner - c) for c in centers) <= geom.radius + 1e-9
