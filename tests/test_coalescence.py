"""coalescence_times against a full-path reference written in this file.

The reference draws every point's whole path with sample_brownian, finds the
pair meetings with np.mod on every gap and applies them in order; it calls
neither coalescence_times nor a private helper of flows.  coalescence_times
draws each stream in blocks of _DRAW_BLOCK steps, one replica at a time, and
stops early, so every case compares its hit times with the reference's bit
for bit: dict equality of floats is exact equality, and batch rows are
compared as bytes.  evolve_coalescing_circle is
the one-key case of coalescence_times; its lazily drawn states are checked
against the reference's paths.

coalescence_batch draws the hit time of a pair alone on its leaf exactly.
Those tests check its law against closed forms that did not sample it: the
Laplace transform of the exit time, and the first-passage series of the
acceptance suite for the whole curve.
"""

import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from foliated_flows import flows
from foliated_flows.drivers import KeyedGenerators, StreamKey, sample_brownian, stream_words
from foliated_flows.config import load_config
from foliated_flows.flows import _DRAW_BLOCK, coalescence_batch, coalescence_times, evolve_coalescing_circle
from foliated_flows.geometry import CylPoint
from foliated_flows.harness import run
from fresh_python import run_snippet

SEED = 20250811
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

CIRCLE_STARTS = [
    CylPoint(0.0, 1.0, 0.0),
    CylPoint(math.pi, 1.0, 0.0),  # same leaf, gap pi
    CylPoint(0.0, 2.0, 0.0),  # alone on its leaf
]


def _mod_wrap(x):
    return np.mod(x + math.pi, 2.0 * math.pi) - math.pi


def _reference_meetings(theta, a, b, delta_c):
    """The meeting scan written with np.mod on every gap."""
    g = _mod_wrap(theta[..., a, :] - theta[..., b, :])
    crossing = (g[..., :-1] * g[..., 1:] <= 0.0) & (np.abs(np.diff(g)) <= math.pi)
    hit = crossing | (np.abs(g[..., 1:]) < delta_c)
    return hit.any(axis=-1), hit.argmax(axis=-1)


def _paths(starts, key, horizon, dt, sigma):
    """(points, steps + 1): every point's whole angle path from its own stream."""
    return np.array([
        p.theta + sigma * sample_brownian(key.point(i).with_role("independent"), horizon, dt).brownian
        for i, p in enumerate(starts)
    ])


def _reference(starts, key, horizon, dt, sigma):
    """Hit times and merges (step, absorbed, survivor) from the full paths.

    Equal starts hit at 0.0.  The pairs of representatives on one leaf meet
    where _reference_meetings says, over the whole path; the meetings are
    applied in (step, higher index, lower index) order, and a pair with an
    absorbed end merges nothing.
    """
    n = len(starts)
    ids = list(range(n))
    for j in range(n):
        ids[j] = next(
            (i for i in range(j) if ids[i] == i and starts[i].leaf == starts[j].leaf
             and starts[i].theta == starts[j].theta),
            j,
        )
    hits = {(i, j): 0.0 for j in range(n) for i in range(j) if ids[i] == ids[j]}
    reps = [i for i in range(n) if ids[i] == i]
    pairs = [(i, j) for j in reps for i in reps if i < j and starts[i].leaf == starts[j].leaf]
    theta = _paths(starts, key, horizon, dt, sigma)
    events = []
    if pairs and theta.shape[1] > 1:
        met, first = _reference_meetings(theta, *np.array(pairs).T, sigma * math.sqrt(dt) / 10.0)
        events = sorted((int(f) + 1, j, i) for (i, j), m, f in zip(pairs, met, first) if m)
    merges = []
    for k, absorbed, survivor in events:
        if ids[absorbed] != absorbed or ids[survivor] != survivor:
            continue
        survivors = [y for y in range(n) if ids[y] == survivor]
        for x in [x for x in range(n) if ids[x] == absorbed]:
            ids[x] = survivor
            hits.update({(min(x, y), max(x, y)): k * dt for y in survivors})
        merges.append((k, absorbed, survivor))
    return hits, merges


def _hits(starts, key, horizon, dt, sigma):
    """The one-key batch of coalescence_times as a hit-time dict, like the reference's."""
    batch = coalescence_times(starts, key, horizon, dt, sigma=sigma)
    assert batch.hit_times.shape == (1, len(batch.pairs))
    return {pq: float(t) for pq, t in zip(batch.pairs, batch.hit_times[0]) if t < np.inf}


def _assert_same_hits(starts, key, horizon, dt, sigma):
    hits, merges = _reference(starts, key, horizon, dt, sigma)
    assert _hits(starts, key, horizon, dt, sigma) == hits
    return hits, merges


def test_matches_reference_on_coalesce_circle_replicas():
    n_hit = 0
    for rep in range(1000):
        hits, _ = _assert_same_hits(CIRCLE_STARTS, StreamKey(SEED, rep), 50.0, 0.01, 1.0)
        n_hit += (0, 1) in hits
    assert n_hit >= 950  # the 5000-step horizon is not a whole number of blocks


@pytest.mark.parametrize("n_points", [3, 4])
def test_matches_reference_with_chained_merges_on_one_leaf(n_points):
    starts = [CylPoint(2.0 * math.pi * i / n_points, 1.0, 0.0) for i in range(n_points)]
    chained = 0
    for rep in range(150):
        _, merges = _assert_same_hits(starts, StreamKey(SEED, rep), 20.0, 0.01, 1.0)
        chained += len(merges) == n_points - 1  # one class at the end
    assert chained >= 100


def test_matches_reference_when_merges_tie_on_one_step():
    # coarse steps make several pairs meet on the same step, where the merge
    # order (step, higher index, lower index) decides the hit times
    starts = [CylPoint(2.0 * math.pi * i / 6, 1.0, 0.0) for i in range(6)]
    ties = 0
    for rep in range(100):
        _, merges = _assert_same_hits(starts, StreamKey(SEED, rep), 10.0, 0.5, 2.0)
        steps = [k for k, _, _ in merges]
        ties += len(set(steps)) < len(steps)
    assert ties >= 10


def test_merge_scan_applies_same_step_meetings_in_order():
    # steps 0..3 of three points on one leaf: 0-1 and 1-2 both cross at step 1,
    # 0-2 wraps by more than pi there (no meeting) and crosses at step 3
    theta = np.array(
        [[0.0, 1.5, 3.0], [0.1, 0.0, -0.1], [0.1, 0.0, -0.1], [0.1, 0.0, 0.15]]
    )
    pairs = [(0, 1), (0, 2), (1, 2)]
    met, first = flows._meetings(theta.T, *np.array(pairs).T, 0.01)
    assert met.tolist() == [True] * 3 and first.tolist() == [0, 2, 0]
    for k0 in (0, 10):
        events = [(k0 + 1 + int(f), j, i) for (i, j), f in zip(pairs, first)]
        ids, hits = [0, 1, 2], {}
        merges = flows._apply_meetings(events, ids, 0.5, hits)
        # 1 joins 0 first, so the 1-2 meeting no longer merges anything
        assert merges == [(k0 + 1, 1, 0), (k0 + 3, 2, 0)]
        assert ids == [0, 0, 0]
        t1, t3 = (k0 + 1) * 0.5, (k0 + 3) * 0.5
        assert hits == {(0, 1): t1, (0, 2): t3, (1, 2): t3}


def test_scanned_blocks_are_the_full_path_bits(monkeypatch):
    # each block reaches the meeting scan as a (drawing points, steps)
    # array, the drawing points being 0 and 1, which share a leaf; scan
    # number k is the block from step k * _DRAW_BLOCK, here 64 steps, so
    # that each replica, the earliest merging at step 219, scans 2 or more
    scans = []
    original = flows._meetings

    def recording(theta, a, b, delta_c):
        scans.append((theta.copy(), a, b))
        return original(theta, a, b, delta_c)

    monkeypatch.setattr(flows, "_meetings", recording)
    monkeypatch.setattr(flows, "_DRAW_BLOCK", 64)
    starts = [CylPoint(0.3, 1.0, 0.0), CylPoint(2.0, 1.0, 0.0), CylPoint(0.0, 2.0, 0.0)]
    horizon, dt, sigma = 30.0, 0.01, 0.3
    for rep in range(5):
        key = StreamKey(SEED, rep)
        scans.clear()
        coalescence_times(starts, key, horizon, dt, sigma=sigma)
        assert len(scans) >= 2
        for block, (theta, a, b) in enumerate(scans):
            k0 = block * flows._DRAW_BLOCK
            assert theta.shape[0] == 2
            for i in set(a) | set(b):
                path = sample_brownian(key.point(i).with_role("independent"), horizon, dt)
                full = starts[i].theta + sigma * path.brownian
                assert theta[i].tobytes() == full[k0 : k0 + theta.shape[1]].tobytes()


def test_identical_starts_hit_at_zero():
    starts = [CylPoint(1.0, 1.0, 0.0), CylPoint(1.0, 1.0, 0.0), CylPoint(4.0, 1.0, 0.0)]
    for rep in range(20):
        hits, _ = _assert_same_hits(starts, StreamKey(SEED, rep), 5.0, 0.01, 1.0)
        assert hits[(0, 1)] == 0.0


def test_lone_leaf_point_opens_no_stream_and_drawing_stops_at_the_merge(monkeypatch):
    # each drawing point's generator comes from one reset of the pool, which
    # names the point by its stream words
    opened: dict[int, int] = {}
    original = KeyedGenerators.reset

    class Counting:
        def __init__(self, rng, point_id):
            self.rng, self.point_id = rng, point_id

        def standard_normal(self, *args, **kwargs):
            out = self.rng.standard_normal(*args, **kwargs)
            opened[self.point_id] += out.size
            return out

    def reset(pool, slot, words):
        point_id = point_of[tuple(words)]
        opened[point_id] = 0
        return Counting(original(pool, slot, words), point_id)

    horizon, dt = 50.0, 0.01
    n_steps = 5000
    for rep in range(30):
        key = StreamKey(SEED, rep)
        point_of = {
            tuple(stream_words(key.point(i).with_role("independent"), [rep], 0)[0]): i
            for i in range(len(CIRCLE_STARTS))
        }
        ref, _ = _reference(CIRCLE_STARTS, key, horizon, dt, 1.0)
        opened.clear()
        monkeypatch.setattr(KeyedGenerators, "reset", reset)
        hits = _hits(CIRCLE_STARTS, key, horizon, dt, 1.0)
        monkeypatch.setattr(KeyedGenerators, "reset", original)
        assert hits == ref
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
        ref, merges = _reference(starts, key, horizon, dt, 1.0)
        if any(k > 1 and (k - 1) % _DRAW_BLOCK == 0 for k, _, _ in merges):
            break
    else:
        pytest.fail("no key with a merge on the first step of a later block")
    assert _hits(starts, key, horizon, dt, 1.0) == ref


@pytest.mark.parametrize("replica_id", [2**32 - 1, 2**32, 2**40, 2**64 - 1])
def test_one_key_matches_reference_at_wide_replica_ids(replica_id):
    # ids of 2^32 or more hash as two words, and 2^64 - 1 is the largest id
    _assert_same_hits(CIRCLE_STARTS, StreamKey(SEED, replica_id), 20.0, 0.01, 1.0)
    _assert_same_hits(CIRCLE_STARTS, StreamKey(2**64 - 1, replica_id, 5), 20.0, 0.01, 1.0)


def test_series_and_batch_reject_bad_arguments():
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
    "starts, horizon, dt, sigma",
    [
        # equal starts, a point alone on its leaf, and merges on a fine grid
        (
            [CylPoint(0.0, 1.0, 0.0), CylPoint(0.2, 1.0, 0.0), CylPoint(0.0, 1.0, 0.0), CylPoint(3.0, 2.0, 0.0),
             CylPoint(2.0, 1.0, 0.0)],
            5.0, 0.01, 1.0,
        ),
        ([CylPoint(2.0 * math.pi * i / 6, 1.0, 0.0) for i in range(6)], 10.0, 0.5, 2.0),  # ties on coarse steps
        (CIRCLE_STARTS, 0.0, 0.01, 1.0),
    ],
)
def test_series_draws_its_paths_the_first_time_states_is_read(monkeypatch, starts, horizon, dt, sigma):
    # the series holds the scan's hit times and classes, and draws each point's
    # path once, on the first read of states; point i at step k shows the path
    # of its class there, the lowest j whose hit time with i is <= times[k]
    calls = [0]
    original = flows.sample_brownian

    def counting(*args):
        calls[0] += 1
        return original(*args)

    n = len(starts)
    for rep in range(10):
        key = StreamKey(SEED, rep)
        hits, _ = _reference(starts, key, horizon, dt, sigma)
        times = sample_brownian(key, horizon, dt).times
        class_ids = np.array([[min([j for j in range(i) if hits.get((j, i), np.inf) <= t] + [i]) for i in range(n)]
                              for t in times])
        expected = np.empty((times.size, n, 3))
        expected[:, :, 0] = np.mod(_paths(starts, key, horizon, dt, sigma)[class_ids, np.arange(times.size)[:, None]],
                                   2.0 * math.pi)
        expected[:, :, 1:] = [(p.r, p.z) for p in starts]
        monkeypatch.setattr(flows, "sample_brownian", counting)
        calls[0] = 0
        series = evolve_coalescing_circle(starts, key, horizon, dt, sigma)
        assert series.hit_times == hits
        assert series.times.tobytes() == times.tobytes()
        assert series.class_ids.tobytes() == class_ids.tobytes()
        assert calls[0] == 0
        states = series.states
        assert calls[0] == n
        assert series.states is states and calls[0] == n
        monkeypatch.undo()
        assert states.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n_replicas", [1, 15, 17, 35])
def test_batch_rows_are_the_reference_hit_times(n_replicas):
    # several replica counts, ids that are not 0..R-1, a leaf of four points
    # that merge in chains, and six points whose merges tie on coarse steps
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
            ref, _ = _reference(starts, StreamKey(SEED, int(rep)), horizon, dt, sigma)
            expected = [ref.get(pq, np.inf) for pq in batch.pairs]
            assert row.tobytes() == np.array(expected).tobytes()


def _count_mod_elements(monkeypatch):
    """Patch np.mod to count the elements it wraps; returns the running count."""
    seen = [0]
    original = np.mod

    def counting(x, *args, **kwargs):
        seen[0] += np.size(x)
        return original(x, *args, **kwargs)

    monkeypatch.setattr(np, "mod", counting)
    return seen


@pytest.mark.parametrize("step", [0.05, 0.5, 2.0, 20.0])
def test_meeting_scan_equals_the_mod_scan(step):
    # random walks whose steps carry many gaps out of [-3 pi, 3 pi), before
    # or after their first meeting; a row with such a gap is wrapped with
    # np.mod
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        theta = rng.uniform(0.0, 2.0 * math.pi, (6, 4, 1)) + np.cumsum(rng.normal(0.0, step, (6, 4, 300)), axis=-1)
        a, b = np.array([(0, 1), (0, 2), (1, 3), (2, 3)]).T
        met, first = flows._meetings(theta, a, b, 0.01)
        ref_met, ref_first = _reference_meetings(theta, a, b, 0.01)
        assert met.tolist() == ref_met.tolist()
        assert first[met].tolist() == ref_first[ref_met].tolist()


def test_meetings_next_to_a_block_end_gap_outside_the_fast_wrap_range():
    # each row's one gap outside [-3 pi, 3 pi) is at the block's last or
    # first step, next to its meeting: within delta_c of 4 pi or -4 pi, or a
    # zero crossing to or from near 2 pi; the fast wrap alone reads |g| >= pi
    # there and sees no meeting
    two_pi = 2.0 * math.pi
    gaps = np.array(
        [
            [1.0, 1.5, 2.0, 2.5, 2.0 * two_pi - 0.001],
            [-1.0, -1.5, -2.0, -2.5, -2.0 * two_pi + 0.001],
            [two_pi + 0.5, two_pi + 0.4, two_pi + 0.3, two_pi + 0.1, 1.5 * two_pi + 0.2],
            [-two_pi - 0.5, -two_pi - 0.4, -two_pi - 0.3, -two_pi - 0.1, -1.5 * two_pi - 0.2],
            [1.5 * two_pi + 0.1, two_pi + 0.05, two_pi + 0.5, two_pi + 1.0, two_pi + 1.5],
            [-1.5 * two_pi - 0.1, -two_pi - 0.05, -two_pi - 0.5, -two_pi - 1.0, -two_pi - 1.5],
        ]
    )
    theta = np.stack([gaps, np.zeros_like(gaps)], axis=1)  # (row, point, step)
    met, first = flows._meetings(theta, [0], [1], 0.01)
    ref_met, ref_first = _reference_meetings(theta, np.array([0]), np.array([1]), 0.01)
    assert ref_met.all() and ref_first[:, 0].tolist() == [3, 3, 3, 3, 0, 0]
    assert met.tolist() == ref_met.tolist()
    assert first.tolist() == ref_first.tolist()


def test_blocks_whose_gap_leaves_the_fast_wrap_range_match_the_reference(monkeypatch):
    # on steps this coarse a pair gap often jumps by more than pi, which is
    # no meeting, so it can pass zero unseen and leave [-3 pi, 3 pi) before
    # its hit; those gaps need np.mod, not one add of 2 pi (a scan without
    # it gives other hit times for 9 of these 40 replicas)
    starts = [CylPoint(0.0, 1.0, 0.0), CylPoint(3.0, 1.0, 0.0), CylPoint(0.5, 2.0, 0.0), CylPoint(5.5, 2.0, 0.0)]
    horizon, dt, sigma = 20.0, 0.5, 2.0
    replicas = np.arange(40)
    refs = [_reference(starts, StreamKey(SEED, int(r)), horizon, dt, sigma)[0] for r in replicas]
    seen = _count_mod_elements(monkeypatch)
    batch = coalescence_times(starts, StreamKey(SEED), horizon, dt, sigma, replicas=replicas)
    assert seen[0] > 0
    assert batch.merges > 0
    for row, ref in zip(batch.hit_times, refs):
        expected = [ref.get(pq, np.inf) for pq in batch.pairs]
        assert row.tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize(
    "starts, n_drawers, horizon, slack",
    [
        (CIRCLE_STARTS, 2, 50.0, 436_585),
        ([CylPoint(1.5 * i, 1.0, 0.0) for i in range(4)] + [CylPoint(0.0, 3.0, 0.0)], 4, 8.0, 1_543_725),
    ],
)
def test_scan_memory_grows_with_replicas_only_by_hit_times_and_keys(starts, n_drawers, horizon, slack):
    # tracemalloc peak less the (R, pairs) float64 hit times and the (R,
    # drawers, 2) uint64 Philox keys; slack is what the chunked scan this one
    # replaced peaked above them at 64 replicas (at 2048 it reached 449 408
    # and 1 558 866 bytes, its key hashing growing with R)
    n_pairs = len(starts) * (len(starts) - 1) // 2
    coalescence_times(starts, StreamKey(SEED), horizon, 0.01, 1.0, replicas=np.arange(4))
    for n_rep in (64, 2048):
        replicas = np.arange(n_rep)
        tracemalloc.start()
        try:
            coalescence_times(starts, StreamKey(SEED), horizon, 0.01, 1.0, replicas=replicas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - n_rep * (8 * n_pairs + 16 * n_drawers) <= slack


# ---------------------------------------------------------------------------
# the exact path: a pair alone on its leaf merges at its gap's exit time


def _exact(starts, horizon, sigma, replicas, seed=SEED, dt=0.01):
    return coalescence_batch(starts, StreamKey(seed), horizon, dt, sigma, replicas=np.asarray(replicas))


@pytest.mark.parametrize("sigma", [1.0, 1.5])
@pytest.mark.parametrize("theta1, g0", [(math.pi, math.pi), (1.5, 1.0)])
def test_exact_hit_times_have_the_exit_laplace_transform(theta1, g0, sigma):
    # E exp(-lam tau) = cosh((g0 - pi) sqrt(lam) / sigma) / cosh(pi sqrt(lam) / sigma)
    # for the exit time of (0, 2 pi) by a gap of variance 2 sigma^2 per unit
    # time from g0; at this horizon P(tau > horizon) < 1e-40, and no hit is inf
    starts = [CylPoint(theta1 - g0, 1.0, 0.0), CylPoint(theta1, 1.0, 0.0), CylPoint(0.0, 2.0, 0.0)]
    n = 100_000
    tau = _exact(starts, 400.0, sigma, np.arange(n)).hit_times[:, 0]
    assert np.isfinite(tau).all() and (tau > 0.0).all()
    for lam in (0.1, 1.0, 10.0):
        x = np.exp(-lam * tau)
        root = math.sqrt(lam) / sigma
        exact = math.cosh((g0 - math.pi) * root) / math.cosh(math.pi * root)
        se = x.std(ddof=1) / math.sqrt(n)
        assert abs(x.mean() - exact) <= 4.0 * se, (lam, x.mean(), exact, se)


def test_exact_curve_lies_on_the_first_passage_series():
    # the sample config through the harness at 10^5 replicas: every curve
    # point on (0, 50] within 4 se of the exact absorption probability
    from test_acceptance import _absorption_probability

    cfg = load_config(CONFIGS / "coalesce-circle.yaml")
    n = 100_000
    report = run(dataclasses.replace(cfg, coalesce=dataclasses.replace(cfg.coalesce, replicas=n)),
                 write_artifacts=False)
    assert report.diagnostics["normals_drawn"] == 0 and report.diagnostics["uniforms_drawn"] == n
    res = report.results
    assert res["cross_leaf_coalescences"] == 0
    for t, frac in zip(res["curve_times"][1:], res["fraction_coalesced"][1:]):
        p = _absorption_probability(t, math.pi, 2.0 * math.pi, 2.0)
        assert abs(frac - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n), (t, frac, p)


def test_exact_hit_time_of_a_replica_is_the_same_in_any_batch():
    # ids that are not 0..R-1, batches across the inversion's chunks, reruns
    # byte for byte, and the one-key default
    starts = [CylPoint(0.2, 1.0, 0.0), CylPoint(2.9, 1.0, 0.0), CylPoint(1.0, 2.0, 0.0), CylPoint(1.1, 2.0, 0.0)]
    ids = 3 + 7 * np.arange(max(1500, flows._EXIT_CHUNK + 9))
    big = _exact(starts, 12.0, 1.0, ids)
    assert big.hit_times.tobytes() == _exact(starts, 12.0, 1.0, ids).hit_times.tobytes()
    assert _exact(starts, 12.0, 1.0, ids[:7]).hit_times.tobytes() == big.hit_times[:7].tobytes()
    assert _exact(starts, 12.0, 1.0, ids[:1500]).hit_times.tobytes() == big.hit_times[:1500].tobytes()
    for r in (0, 1499, ids.size - 1):
        one = coalescence_batch(starts, StreamKey(SEED, int(ids[r])), 12.0, 0.01, 1.0)
        assert one.hit_times.tobytes() == big.hit_times[r : r + 1].tobytes()
    finite = np.isfinite(big.hit_times)
    assert 0 < finite[:, 0].sum() < ids.size and 0 < finite[:, 5].sum() < ids.size


def _numpy_philox(words):
    seed, replica, point, code = words
    key, counter = np.array([seed, 0], dtype=np.uint64), np.array([0, replica, point, code], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def test_exact_hit_times_invert_each_streams_first_random():
    # the uniform of replica r is the first random() of numpy's Philox at its exit stream's key and counter
    starts = CIRCLE_STARTS
    ids = np.arange(40) + 2**32 - 20
    batch = _exact(starts, 50.0, 1.0, ids)
    keys = stream_words(StreamKey(SEED).with_role("independent"), ids, flows._DOMAIN_EXIT)
    u = np.array([_numpy_philox(k).random() for k in keys])
    expected = flows._gap_exit_times(u, math.pi, 2.0)
    expected[expected > 50.0] = np.inf
    assert batch.hit_times[:, 0].tobytes() == expected.tobytes()


_COALESCE_RUN = """
import sys
from foliated_flows.cli import main
assert main(["coalesce", "--config", sys.argv[1], "--quiet"]) == 0
assert "numpy.random" not in sys.modules, "the exact coalesce path imported numpy.random"
"""


def test_lone_pair_coalesce_run_does_not_import_numpy_random(tmp_path):
    # every pair of the sample config is alone on its leaf, so the run draws
    # only first uniforms, which need no generator
    proc = run_snippet(_COALESCE_RUN, str(CONFIGS / "coalesce-circle.yaml"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "coalesce-circle" / "report.json").is_file()


def test_exact_path_takes_no_grid():
    # dt is validated but no hit time depends on it; a pair's hit times lie
    # in [0, horizon] and are inf past it
    starts = CIRCLE_STARTS
    a = _exact(starts, 8.0, 1.0, np.arange(500), dt=0.01)
    b = _exact(starts, 8.0, 1.0, np.arange(500), dt=0.5)
    assert a.hit_times.tobytes() == b.hit_times.tobytes()
    tau = a.hit_times[:, 0]
    assert ((tau > 0.0) & (tau <= 8.0) | (tau == np.inf)).all()
    assert not np.isin(tau[tau < np.inf], 0.01 * np.arange(801)).all()  # off the grid
    with pytest.raises(ValueError):
        _exact(starts, 8.0, 1.0, np.arange(5), dt=0.0)
    # a longer horizon keeps every hit time below the shorter one
    c = _exact(starts, 30.0, 1.0, np.arange(500))
    below = tau < np.inf
    assert c.hit_times[below, 0].tobytes() == tau[below].tobytes()
    assert (c.hit_times[~below, 0] > 8.0).all()


def test_exact_path_hits_identical_starts_at_zero_and_never_across_leaves():
    # points 0 and 1 start equal, so leaf r = 1 holds two classes and takes
    # the exact path: 0-2 and 1-2 merge at one time; 3 and 4 share leaf
    # r = 2, and no pair across the leaves ever merges
    starts = [CylPoint(1.0, 1.0, 0.0), CylPoint(1.0, 1.0, 0.0), CylPoint(4.0, 1.0, 0.0),
              CylPoint(1.0, 2.0, 0.0), CylPoint(1.0, 2.0, 0.5)]
    batch = _exact(starts, 20.0, 1.0, np.arange(300))
    col = {pq: batch.hit_times[:, p] for p, pq in enumerate(batch.pairs)}
    assert (col[(0, 1)] == 0.0).all()
    assert col[(0, 2)].tobytes() == col[(1, 2)].tobytes()
    assert np.isfinite(col[(0, 2)]).sum() > 250
    for i in range(3):
        for j in (3, 4):
            assert (col[(i, j)] == np.inf).all()
    assert (col[(3, 4)] == np.inf).all()  # different z: different leaves
    assert (batch.streams_opened, batch.uniforms_drawn, batch.normals_drawn) == (300, 300, 0)
    assert batch.merges == int(np.isfinite(col[(0, 2)]).sum())


def test_three_classes_on_a_leaf_keep_the_scan_bit_for_bit():
    # coalescence_batch is coalescence_times wherever a leaf holds three
    # classes or more, the pair alone on another leaf included
    starts = [CylPoint(0.0, 1.0, 0.0), CylPoint(2.0, 1.0, 0.0), CylPoint(4.0, 1.0, 0.0),
              CylPoint(0.5, 2.0, 0.0), CylPoint(2.5, 2.0, 0.0)]
    replicas = np.arange(40)
    scan = coalescence_times(starts, StreamKey(SEED), 10.0, 0.01, 1.0, replicas=replicas)
    batch = coalescence_batch(starts, StreamKey(SEED), 10.0, 0.01, 1.0, replicas=replicas)
    assert batch == dataclasses.replace(scan, hit_times=batch.hit_times)
    assert batch.hit_times.tobytes() == scan.hit_times.tobytes()
    assert batch.uniforms_drawn == 0 and batch.normals_drawn > 0


@pytest.mark.parametrize(
    "starts",
    [CIRCLE_STARTS, [CylPoint(0.0, 1.0, 0.0), CylPoint(1.0, 1.0, 0.0), CylPoint(0.0, 2.0, 0.0), CylPoint(5.0, 2.0, 0.0)]],
)
def test_exact_memory_grows_with_replicas_only_by_hit_times(starts):
    # tracemalloc peak less the (R, pairs) float64 hit times: the keys,
    # uniforms and series sums of one chunk of replicas at a time, each
    # series summed term by term, so no (terms x replicas) array exists and
    # nothing else grows with R
    n_pairs = len(starts) * (len(starts) - 1) // 2
    _exact(starts, 50.0, 1.0, np.arange(4))
    above = []
    for n_rep in (2 * flows._EXIT_CHUNK, 6 * flows._EXIT_CHUNK + 5):
        replicas = np.arange(n_rep)
        tracemalloc.start()
        try:
            _exact(starts, 50.0, 1.0, replicas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        above.append(peak - n_rep * 8 * n_pairs)
    assert abs(above[1] - above[0]) <= 16_384
    assert above[0] <= 300 * flows._EXIT_CHUNK * n_pairs


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gap", [1e-80, 1e-150])
def test_exact_hit_times_of_tiny_gaps_scale_as_the_gap_squared(gap):
    # far below any gap the far barrier can see, the exit time is the first
    # passage to 0, so hit / gap^2 has one law; no numpy warning is raised
    u = np.random.default_rng(SEED).random(2000)
    scaled = flows._gap_exit_times(u, gap, 2.0) / gap**2
    ref = flows._gap_exit_times(u, 1e-10, 2.0) / 1e-20
    assert np.isfinite(ref).all() and (ref > 0.0).all()
    assert np.allclose(scaled, ref, rtol=1e-10, atol=0.0)


@pytest.mark.filterwarnings("error")
def test_exact_hit_times_of_the_smallest_gap_are_finite():
    u = np.append(np.random.default_rng(SEED).random(500), 0.0)
    tau = flows._gap_exit_times(u, 5e-324, 2.0)
    assert np.isfinite(tau).all() and (tau >= 0.0).all()
    batch = _exact([CylPoint(0.0, 1.0, 0.0), CylPoint(5e-324, 1.0, 0.0)], 10.0, 1.0, np.arange(50))
    assert np.isfinite(batch.hit_times).all() and (batch.hit_times >= 0.0).all()
