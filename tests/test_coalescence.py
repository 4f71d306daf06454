"""coalescence_times against the full-path reference evolve_coalescing_circle.

coalescence_times draws each stream in blocks of _DRAW_BLOCK steps, scans
replicas in chunks of _REPLICA_CHUNK and stops early, so every case compares
its hit times with the reference's bit for bit: dict equality of floats is
exact equality, and batch rows are compared as bytes.
"""

import math

import numpy as np
import pytest

from foliated_flows import flows
from foliated_flows.drivers import KeyedGenerators, StreamKey, philox_keys, sample_brownian
from foliated_flows.flows import _DRAW_BLOCK, coalescence_times, evolve_coalescing_circle
from foliated_flows.geometry import CylPoint

SEED = 20250811

CIRCLE_STARTS = [
    CylPoint(0.0, 1.0, 0.0),
    CylPoint(math.pi, 1.0, 0.0),  # same leaf, gap pi
    CylPoint(0.0, 2.0, 0.0),  # alone on its leaf
]


def _hits(starts, key, horizon, dt, sigma):
    """The one-key batch of coalescence_times as a hit-time dict, like the reference's."""
    batch = coalescence_times(starts, key, horizon, dt, sigma=sigma)
    assert batch.hit_times.shape == (1, len(batch.pairs))
    return {pq: float(t) for pq, t in zip(batch.pairs, batch.hit_times[0]) if t < np.inf}


def _assert_same_hits(starts, key, horizon, dt, sigma):
    ref = evolve_coalescing_circle(starts, key, horizon, dt, sigma=sigma)
    assert _hits(starts, key, horizon, dt, sigma) == ref.hit_times
    return ref


def _merge_steps(series, dt):
    return {round(t / dt) for t in series.hit_times.values()}


def test_matches_reference_on_coalesce_circle_replicas():
    n_hit = 0
    for rep in range(1000):
        ref = _assert_same_hits(CIRCLE_STARTS, StreamKey(SEED, rep), 50.0, 0.01, 1.0)
        n_hit += (0, 1) in ref.hit_times
    assert n_hit >= 950  # the 5000-step horizon is not a whole number of blocks


@pytest.mark.parametrize("n_points", [3, 4])
def test_matches_reference_with_chained_merges_on_one_leaf(n_points):
    starts = [CylPoint(2.0 * math.pi * i / n_points, 1.0, 0.0) for i in range(n_points)]
    chained = 0
    for rep in range(150):
        ref = _assert_same_hits(starts, StreamKey(SEED, rep), 20.0, 0.01, 1.0)
        chained += len(set(ref.class_ids[-1].tolist())) == 1
    assert chained >= 100


def test_matches_reference_when_merges_tie_on_one_step():
    # coarse steps make several pairs meet on the same step, where the merge
    # order (step, higher index, lower index) decides the hit times
    starts = [CylPoint(2.0 * math.pi * i / 6, 1.0, 0.0) for i in range(6)]
    ties = 0
    for rep in range(100):
        ref = _assert_same_hits(starts, StreamKey(SEED, rep), 10.0, 0.5, 2.0)
        n_classes = np.array([len(set(row.tolist())) for row in ref.class_ids])
        ties += int(np.any(np.diff(n_classes) <= -2))
    assert ties >= 10


def test_merge_scan_applies_same_step_meetings_in_order():
    # steps 0..3 of three points on one leaf: 0-1 and 1-2 both cross at step 1,
    # 0-2 wraps by more than pi there (no meeting) and crosses at step 3
    theta = np.array(
        [[0.0, 1.5, 3.0], [0.1, 0.0, -0.1], [0.1, 0.0, -0.1], [0.1, 0.0, 0.15]]
    )
    for k0 in (0, 10):
        ids, hits = [0, 1, 2], {}
        merges = flows._merge_meetings(theta, k0, [(0, 1), (0, 2), (1, 2)], ids, 0.5, 0.01, hits)
        # 1 joins 0 first, so the 1-2 meeting no longer merges anything
        assert merges == [(k0 + 1, 1, 0), (k0 + 3, 2, 0)]
        assert ids == [0, 0, 0]
        t1, t3 = (k0 + 1) * 0.5, (k0 + 3) * 0.5
        assert hits == {(0, 1): t1, (0, 2): t3, (1, 2): t3}


def test_scanned_blocks_are_the_full_path_bits(monkeypatch):
    # each block reaches the meeting scan as a (replicas, drawing points,
    # steps) array, the drawing points being 0 and 1, which share a leaf;
    # with one replica, scan number k is the block from step k * _DRAW_BLOCK
    scans = []
    original = flows._meetings

    def recording(theta, a, b, delta_c):
        scans.append((theta.copy(), a, b))
        return original(theta, a, b, delta_c)

    monkeypatch.setattr(flows, "_meetings", recording)
    starts = [CylPoint(0.3, 1.0, 0.0), CylPoint(2.0, 1.0, 0.0), CylPoint(0.0, 2.0, 0.0)]
    horizon, dt, sigma = 30.0, 0.01, 0.3
    for rep in range(5):
        key = StreamKey(SEED, rep)
        scans.clear()
        coalescence_times(starts, key, horizon, dt, sigma=sigma)
        assert len(scans) >= 2
        for block, (theta, a, b) in enumerate(scans):
            k0 = block * _DRAW_BLOCK
            (theta,) = theta
            assert theta.shape[0] == 2
            for i in set(a) | set(b):
                path = sample_brownian(key.point(i).with_role("independent"), horizon, dt)
                full = starts[i].theta + sigma * path.brownian
                assert theta[i].tobytes() == full[k0 : k0 + theta.shape[1]].tobytes()


def test_identical_starts_hit_at_zero():
    starts = [CylPoint(1.0, 1.0, 0.0), CylPoint(1.0, 1.0, 0.0), CylPoint(4.0, 1.0, 0.0)]
    for rep in range(20):
        ref = _assert_same_hits(starts, StreamKey(SEED, rep), 5.0, 0.01, 1.0)
        assert ref.hit_times[(0, 1)] == 0.0


def test_lone_leaf_point_opens_no_stream_and_drawing_stops_at_the_merge(monkeypatch):
    # each drawing point's generator comes from one reset of the pool, which
    # names the point by its Philox key
    opened: dict[int, int] = {}
    original = KeyedGenerators.reset

    class Counting:
        def __init__(self, rng, point_id):
            self.rng, self.point_id = rng, point_id

        def normal(self, *args, **kwargs):
            out = self.rng.normal(*args, **kwargs)
            opened[self.point_id] += out.size
            return out

    def reset(pool, slot, philox_key):
        point_id = point_of[tuple(philox_key)]
        opened[point_id] = 0
        return Counting(original(pool, slot, philox_key), point_id)

    horizon, dt = 50.0, 0.01
    n_steps = 5000
    for rep in range(30):
        key = StreamKey(SEED, rep)
        point_of = {
            tuple(philox_keys(key.point(i).with_role("independent"), [rep], 0)[0]): i
            for i in range(len(CIRCLE_STARTS))
        }
        ref = evolve_coalescing_circle(CIRCLE_STARTS, key, horizon, dt, sigma=1.0)
        opened.clear()
        monkeypatch.setattr(KeyedGenerators, "reset", reset)
        hits = _hits(CIRCLE_STARTS, key, horizon, dt, 1.0)
        monkeypatch.setattr(KeyedGenerators, "reset", original)
        assert hits == ref.hit_times
        assert set(opened) == {0, 1}
        if (0, 1) in hits:
            k = round(hits[(0, 1)] / dt)
            expected = min(n_steps, -(-k // _DRAW_BLOCK) * _DRAW_BLOCK)
        else:
            expected = n_steps
        assert opened == {0: expected, 1: expected}


def test_only_lone_points_draw_nothing():
    starts = [CylPoint(0.0, 1.0, 0.0), CylPoint(0.0, 2.0, 0.0), CylPoint(0.0, 1.0, 5.0)]
    _assert_same_hits(starts, StreamKey(SEED, 3), 20.0, 0.01, 2.0)
    assert _hits(starts, StreamKey(SEED, 3), 20.0, 0.01, 2.0) == {}


@pytest.mark.parametrize("horizon", [0.0, 0.01, 3.0, 7.3, 10.24, 10.25])
def test_matches_reference_for_horizons_around_block_lengths(horizon):
    # 0 steps, 1 step, 300 < one block, 730 (not whole blocks), 1024, 1025
    starts = [CylPoint(0.0, 1.0, 0.0), CylPoint(0.5, 1.0, 0.0), CylPoint(3.0, 1.0, 0.0)]
    for rep in range(40):
        _assert_same_hits(starts, StreamKey(SEED, rep), horizon, 0.01, 1.0)


def test_matches_reference_when_the_hit_is_a_block_first_step():
    # find a key whose reference hit index is k*_DRAW_BLOCK + 1: the crossing
    # spans the last row of one block and the first row of the next
    starts = CIRCLE_STARTS[:2]
    horizon, dt = 10.3, 0.01
    for rep in range(5000):
        key = StreamKey(SEED, rep)
        ref = evolve_coalescing_circle(starts, key, horizon, dt, sigma=1.0)
        if any(k > 1 and (k - 1) % _DRAW_BLOCK == 0 for k in _merge_steps(ref, dt)):
            break
    else:
        pytest.fail("no key with a merge on the first step of a later block")
    assert _hits(starts, key, horizon, dt, 1.0) == ref.hit_times


@pytest.mark.parametrize("replica_id", [2**32 - 1, 2**32, 2**40, 2**64 - 1])
def test_one_key_matches_reference_at_wide_replica_ids(replica_id):
    # ids of 2^32 or more hash as two words, and 2^64 - 1 is the largest id
    _assert_same_hits(CIRCLE_STARTS, StreamKey(SEED, replica_id), 20.0, 0.01, 1.0)
    _assert_same_hits(CIRCLE_STARTS, StreamKey(2**64 - 1, replica_id, 5), 20.0, 0.01, 1.0)


def test_rejects_what_the_reference_rejects():
    key = StreamKey(SEED)
    for args in [
        ([], key, 1.0, 0.01, 1.0),
        ([CylPoint(0.0, 1.0, 0.0)], key, 1.0, 0.01, 0.0),
        ([(0.0, 1.0, 0.0)], key, 1.0, 0.01, 1.0),
        (CIRCLE_STARTS, key, 1.0, 0.0, 1.0),
        (CIRCLE_STARTS, key, 1.0, 2.0, 1.0),
        (CIRCLE_STARTS[::2], key, -1.0, 0.01, 1.0),
    ]:
        with pytest.raises(ValueError):
            evolve_coalescing_circle(*args)
        with pytest.raises(ValueError):
            coalescence_times(*args)


@pytest.mark.parametrize(
    "n_replicas", [1, flows._REPLICA_CHUNK - 1, flows._REPLICA_CHUNK + 1, 2 * flows._REPLICA_CHUNK + 3]
)
def test_batch_rows_are_the_reference_hit_times(n_replicas):
    # replica counts that are not whole chunks, ids that are not 0..R-1, a
    # leaf of four points that merge in chains, and six points whose merges
    # tie on coarse steps
    replicas = 3 + 7 * np.arange(n_replicas)
    for starts, horizon, dt, sigma in [
        (CIRCLE_STARTS, 12.0, 0.01, 1.0),
        ([CylPoint(1.5 * i, 1.0, 0.0) for i in range(4)] + [CylPoint(0.0, 3.0, 0.0)], 8.0, 0.01, 1.5),
        ([CylPoint(2.0 * math.pi * i / 6, 1.0, 0.0) for i in range(6)], 10.0, 0.5, 2.0),
    ]:
        batch = coalescence_times(starts, StreamKey(SEED), horizon, dt, sigma, replicas=replicas)
        n = len(starts)
        assert batch.pairs == tuple((i, j) for j in range(n) for i in range(j))
        assert batch.hit_times.shape == (n_replicas, len(batch.pairs))
        assert n_replicas == 1 or batch.merges > 0
        for row, rep in zip(batch.hit_times, replicas):
            ref = evolve_coalescing_circle(starts, StreamKey(SEED, int(rep)), horizon, dt, sigma)
            expected = [ref.hit_times.get(pq, np.inf) for pq in batch.pairs]
            assert row.tobytes() == np.array(expected).tobytes()
