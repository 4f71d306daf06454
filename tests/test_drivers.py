import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from foliated_flows import drivers
from foliated_flows.drivers import (
    _DOMAIN_BROWNIAN,
    _DOMAIN_EXIT,
    _DOMAIN_POISSON,
    DriverPath,
    KeyedGenerators,
    StreamKey,
    _arrival_sums,
    _philox_block,
    _uniforms,
    first_uniforms,
    philox_uniforms,
    replica_poisson_jumps,
    sample_brownian,
    sample_jump_driver,
    sample_poisson_jumps,
    stream_words,
)

SEED = 20250811


def test_zero_horizon_gives_empty_path():
    path = sample_brownian(StreamKey(SEED), horizon=0.0, dt=0.1)
    assert path.brownian_increments.size == 0
    assert path.brownian.tolist() == [0.0]


def test_same_key_reproduces_bit_exactly():
    key = StreamKey(SEED, replica_id=3, point_id=1, role="independent")
    a = sample_brownian(key, horizon=2.0, dt=0.01)
    b = sample_brownian(key, horizon=2.0, dt=0.01)
    assert a.brownian_increments.tobytes() == b.brownian_increments.tobytes()
    ja = sample_poisson_jumps(key, 1.0, 10.0)
    jb = sample_poisson_jumps(key, 1.0, 10.0)
    assert ja.tobytes() == jb.tobytes()


def test_increment_count_matches_ceil():
    path = sample_brownian(StreamKey(SEED), horizon=1.0, dt=0.3)
    assert path.brownian_increments.size == math.ceil(1.0 / 0.3)
    path = sample_brownian(StreamKey(SEED), horizon=100.0, dt=1e-3)
    assert path.brownian_increments.size == 100000


def test_invalid_steps_rejected():
    with pytest.raises(ValueError):
        sample_brownian(StreamKey(SEED), horizon=1.0, dt=2.0)
    with pytest.raises(ValueError):
        sample_brownian(StreamKey(SEED), horizon=-1.0, dt=0.1)
    with pytest.raises(ValueError):
        sample_brownian(StreamKey(SEED), horizon=float("inf"), dt=0.1)
    with pytest.raises(ValueError):
        sample_brownian(StreamKey(SEED), horizon=1.0, dt=float("nan"))
    with pytest.raises(ValueError):
        sample_poisson_jumps(StreamKey(SEED), rate=0.0, horizon=1.0)
    with pytest.raises(ValueError):
        sample_poisson_jumps(StreamKey(SEED), rate=-2.0, horizon=1.0)


def test_brownian_unit_time_variance_chi_square_window():
    # B_1 ~ N(0,1); over n replicas the sample variance concentrates within
    # 1 +- 4/sqrt(2n) (chi-square: std of the variance estimator is sqrt(2/n))
    n = 100_000
    vals = np.empty(n)
    for i in range(n):
        path = sample_brownian(StreamKey(SEED, replica_id=i), horizon=1.0, dt=1.0)
        vals[i] = path.brownian[-1]
    var = float(np.var(vals, ddof=1))
    half_width = 4.0 / math.sqrt(2.0 * n)
    assert 1.0 - half_width <= var <= 1.0 + half_width


def test_independence_across_point_ids():
    n = 20_000
    a = np.empty(n)
    b = np.empty(n)
    for i in range(n):
        a[i] = sample_brownian(StreamKey(SEED, i, point_id=0), 1.0, 1.0).brownian[-1]
        b[i] = sample_brownian(StreamKey(SEED, i, point_id=1), 1.0, 1.0).brownian[-1]
    corr = float(np.corrcoef(a, b)[0, 1])
    assert abs(corr) < 4.0 / math.sqrt(n)


def test_refinement_consistency_by_moment_matching():
    # pair-sums of the dt/2 path have the same distribution as dt increments
    key = StreamKey(SEED, replica_id=77)
    fine = sample_brownian(key, horizon=100.0, dt=0.005)
    pair_sums = fine.brownian_increments.reshape(-1, 2).sum(axis=1)
    n = pair_sums.size
    assert abs(np.mean(pair_sums)) < 4.0 * math.sqrt(0.01 / n)
    assert abs(np.var(pair_sums, ddof=1) - 0.01) < 4.0 * 0.01 * math.sqrt(2.0 / n)


def test_poisson_zero_horizon():
    assert sample_poisson_jumps(StreamKey(SEED), 1.0, 0.0).size == 0


def test_poisson_strictly_increasing_within_horizon():
    for rep in range(50):
        jumps = sample_poisson_jumps(StreamKey(SEED, rep), 3.0, 5.0)
        assert np.all(np.diff(jumps) > 0.0)
        assert jumps.size == 0 or (jumps[0] > 0.0 and jumps[-1] <= 5.0)


def test_poisson_mean_count_oracle():
    # mean count at rate 1 over [0, 2] is 2 with variance 2 (Poisson oracle)
    n = 100_000
    counts = np.empty(n)
    for i in range(n):
        counts[i] = sample_poisson_jumps(StreamKey(SEED, i), 1.0, 2.0).size
    assert abs(np.mean(counts) - 2.0) <= 4.0 * math.sqrt(2.0 / n)


def test_poisson_odd_count_probability_matches_antipodal_weight():
    # P(odd number of jumps by t) = (1 - e^{-2t})/2, the antipodal mass of the
    # rotation-jump semigroup formula; checked at t = 1 within 3 MC std errors
    n = 100_000
    t = 1.0
    odd = np.empty(n)
    for i in range(n):
        jumps = sample_poisson_jumps(StreamKey(SEED, i, point_id=5), 1.0, t)
        odd[i] = jumps.size % 2
    p_hat = float(np.mean(odd))
    p_true = 0.5 * (1.0 - math.exp(-2.0 * t))
    se = math.sqrt(p_true * (1.0 - p_true) / n)
    assert abs(p_hat - p_true) <= 3.0 * se


def test_jump_count_and_grid_lookup():
    path = DriverPath(
        horizon=1.0,
        dt=0.25,
        brownian_increments=np.array([0.1, -0.2, 0.3, 0.4]),
        jump_times=np.array([0.2, 0.7]),
    )
    assert path.jump_count(0.1) == 0
    assert path.jump_count(0.2) == 1
    assert path.jump_count(1.0) == 2
    assert path.brownian_at(0.5) == pytest.approx(-0.1)
    with pytest.raises(ValueError):
        path.brownian_at(0.3)  # off the grid
    with pytest.raises(ValueError):
        path.brownian_at(1.5)  # beyond horizon


def test_shifted_driver():
    key = StreamKey(SEED, replica_id=5)
    path = dataclasses.replace(
        sample_brownian(key, horizon=1.0, dt=0.25), jump_times=sample_poisson_jumps(key, 4.0, 1.0)
    )
    sh = path.shifted(0.5)
    assert sh.horizon == pytest.approx(0.5)
    np.testing.assert_array_equal(sh.brownian_increments, path.brownian_increments[2:])
    expected = path.jump_times[path.jump_times > 0.5] - 0.5
    np.testing.assert_allclose(sh.jump_times, expected)


def test_distinct_roles_and_domains_differ():
    common = sample_brownian(StreamKey(SEED, 1, 0, "common"), 1.0, 0.5)
    indep = sample_brownian(StreamKey(SEED, 1, 0, "independent"), 1.0, 0.5)
    assert not np.array_equal(common.brownian_increments, indep.brownian_increments)
    # Brownian and Poisson draws from one key come from disjoint sub-streams:
    # regenerating one must not perturb the other
    key = StreamKey(SEED, 2)
    j1 = sample_poisson_jumps(key, 1.0, 5.0)
    _ = sample_brownian(key, 5.0, 0.1)
    j2 = sample_poisson_jumps(key, 1.0, 5.0)
    np.testing.assert_array_equal(j1, j2)


def test_block_draws_and_carried_sum_equal_one_call():
    # coalescence_times draws each stream in blocks; this is the identity it relies on
    key = StreamKey(SEED, replica_id=5, point_id=1, role="independent")
    horizon, dt = 7.3, 0.01
    path = sample_brownian(key, horizon, dt)
    rng = key.generator(_DOMAIN_BROWNIAN)
    draws, sums, last = [], [], 0.0
    for size in (1, 7, 300, 2, 64, path.n_steps - 374):
        block = rng.normal(0.0, math.sqrt(dt), size=size)
        draws.append(block.copy())
        block[0] += last
        np.cumsum(block, out=block)
        last = block[-1]
        sums.append(block)
    assert np.concatenate(draws).tobytes() == path.brownian_increments.tobytes()
    assert np.concatenate([[0.0]] + sums).tobytes() == path.brownian.tobytes()


def test_jump_driver_has_no_brownian_component():
    path = sample_jump_driver(StreamKey(SEED), 5.0, 0.1)
    assert path.brownian_increments.size == 0
    assert np.all(path.jump_times <= 5.0)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**32), horizon=st.floats(0.1, 20.0), rate=st.floats(0.2, 5.0))
def test_poisson_jumps_sorted_property(seed, horizon, rate):
    jumps = sample_poisson_jumps(StreamKey(seed), rate, horizon)
    assert np.all(np.diff(jumps) > 0.0)
    assert jumps.size == 0 or jumps[-1] <= horizon


_ROLES = ("common", "independent")
_DOMAINS = (_DOMAIN_BROWNIAN, _DOMAIN_POISSON, _DOMAIN_EXIT)
# 0, both sides of 32 bits, the first odd integer float64 rounds, the top word
_EDGE_IDS = (0, 1, 2**32 - 1, 2**32, 2**53 + 1, 2**64 - 1)


def _numpy_philox(words):
    # numpy's own Philox at the stream's key (seed, 0) and counter (0, replica, point, code)
    seed, replica, point, code = (int(w) for w in words)
    key, counter = np.array([seed, 0], dtype=np.uint64), np.array([0, replica, point, code], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def test_stream_words_are_the_seed_the_ids_and_the_role_and_domain_code():
    replicas = np.array(_EDGE_IDS, dtype=np.uint64)
    for seed in _EDGE_IDS:
        for role, role_code in zip(_ROLES, (0, 1)):
            for domain in _DOMAINS:
                words = stream_words(StreamKey(seed, 99, 2**53 + 1, role), replicas, domain)
                assert words.shape == (replicas.size, 4) and words.dtype == np.uint64
                assert words.tolist() == [[seed, r, 2**53 + 1, role_code << 32 | domain] for r in _EDGE_IDS]
                state = StreamKey(seed, 2**32, 2**53 + 1, role).generator(domain).bit_generator.state["state"]
                assert state["key"].tolist() == [seed, 0]
                assert state["counter"].tolist() == [0, 2**32, 2**53 + 1, role_code << 32 | domain]


def test_exit_domain_is_a_fourth_code_apart_from_brownian_and_poisson():
    # one key's three domains share seed and ids and differ only in the code word
    key = StreamKey(SEED, 3, 1, "independent")
    rows = [stream_words(key, [3], domain)[0].tolist() for domain in _DOMAINS]
    assert [row[:3] for row in rows] == [[SEED, 3, 1]] * 3
    assert [row[3] for row in rows] == [1 << 32 | domain for domain in _DOMAINS]
    assert len(set(_DOMAINS)) == 3
    assert len({key.generator(domain).random(4).tobytes() for domain in _DOMAINS}) == 3


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [1, 5, 169])
def test_stream_addresses_are_distinct_states_drawn_bit_for_bit(n):
    # every (seed, replica, point, role, domain) at the edge ids is its own
    # Philox (key, counter) state, and every path draws that state's stream
    keys = [StreamKey(s, r, p, role) for s in _EDGE_IDS for r in _EDGE_IDS for p in _EDGE_IDS for role in _ROLES]
    addresses = [(key, domain) for key in keys for domain in _DOMAINS]
    states = set()
    for key, domain in addresses:
        state = key.generator(domain).bit_generator.state["state"]
        states.add((tuple(state["key"].tolist()), tuple(state["counter"].tolist())))
    assert len(states) == len(addresses)
    words = [list(key.words(domain)) for key, domain in addresses]  # Python ints, many >= 2^53
    expected = np.array([_numpy_philox(w).random(n) for w in words])
    assert philox_uniforms(words, n).tobytes() == expected.tobytes()
    pool = KeyedGenerators()
    for (key, domain), w, row in zip(addresses, words, expected):
        assert _one_key_uniforms(w, n).tobytes() == row.tobytes()
        assert KeyedGenerators().reset(0, w).random(n).tobytes() == row.tobytes()  # fresh slot
        pool.reset(0, [SEED, 1, 2, 3]).random(3)
        assert pool.reset(0, w).random(n).tobytes() == row.tobytes()  # reused slot
        assert key.generator(domain).random(n).tobytes() == row.tobytes()


def test_philox_keys_reject_negative_or_fractional_ids():
    for ids in ([-1], np.array([0.5]), np.array([[1]])):
        with pytest.raises(ValueError):
            stream_words(StreamKey(SEED), ids, _DOMAIN_BROWNIAN)
    assert stream_words(StreamKey(SEED), [], _DOMAIN_BROWNIAN).shape == (0, 4)


@pytest.mark.parametrize(
    "draw",
    [
        lambda g: g.normal(0.3, 2.0, size=37),
        lambda g: g.standard_normal(size=37),
        lambda g: g.exponential(0.5, size=37),
        lambda g: g.random(size=37),
    ],
)
def test_reset_draws_equal_a_fresh_generator(draw):
    keys = stream_words(StreamKey(SEED, role="independent"), np.arange(4), _DOMAIN_BROWNIAN)
    pool = KeyedGenerators()
    for key in keys[1:]:
        # leave a partly used buffer and, after an odd number of 32-bit draws,
        # a cached half word behind
        used = pool.reset(0, keys[0])
        draw(used)
        for _ in range(9):
            used.integers(0, 2**31, dtype=np.uint32)
            state = used.bit_generator.state
            if state["has_uint32"] == 1 and state["buffer_pos"] < 4:
                break
        assert state["has_uint32"] == 1 and state["buffer_pos"] < 4
        reset = pool.reset(0, key)
        assert reset is used
        fresh = _numpy_philox(key)
        assert reset.bit_generator.state["has_uint32"] == 0
        assert draw(reset).tobytes() == draw(fresh).tobytes()


def test_a_list_key_draws_its_uint64_stream_on_a_fresh_and_a_reused_slot():
    # Philox(key=[...]) reads Python ints through float64, which rounds
    # 12345678901234567890 to 12345678901234567168; the pool sets the key
    # and counter from uint64 arrays, as the state setter of a reused slot keeps them
    words = [12345678901234567890, 987654321987654321, 2**53 + 1, 1 << 32 | 2]
    assert [int(w) for w in np.array(words, dtype=float)] != words
    exact = _numpy_philox(words).standard_normal(9)
    pool = KeyedGenerators()
    assert pool.reset(0, words).standard_normal(9).tobytes() == exact.tobytes()  # fresh slot
    pool.reset(1, [1, 2, 3, 4]).standard_normal(3)
    assert pool.reset(1, words).standard_normal(9).tobytes() == exact.tobytes()  # reused slot


def _first_random(words):
    return np.array([_numpy_philox(w).random() for w in words])


@pytest.mark.filterwarnings("error")
def test_first_uniforms_are_a_fresh_philox_generators_first_random_bit_for_bit():
    # edge words (0, 2^64 - 1, at and past 2^53 where float64 would round),
    # random words, and the streams of ids past 32 bits; a uint64 overflow
    # warning would fail the test
    top = 2**64 - 1
    edge = np.array([[0, 0, 0, 0], [top, top, top, top], [0, top, 0, top], [top, 0, top, 0],
                     [2**53, 2**53 + 1, 2**53, 2**53 + 1], [2**63, 2**63 - 1, 2**63, 2**63 - 1]], dtype=np.uint64)
    rng = np.random.default_rng(SEED)
    random_words = rng.integers(0, 2**64, size=(3000, 4), dtype=np.uint64, endpoint=False)
    ids = np.array([2**32, 2**32 + 1, 2**40 + 3, 2**64 - 1], dtype=np.uint64)
    wide = stream_words(StreamKey(SEED, point_id=2, role="independent"), ids, _DOMAIN_EXIT)
    for words in (edge, random_words, wide):
        u = first_uniforms(words)
        assert u.dtype == np.float64 and u.shape == (len(words),)
        assert u.tobytes() == _first_random(words).tobytes()
    key = StreamKey(SEED, 2**33, 1, "independent")
    assert first_uniforms(stream_words(key, [2**33], _DOMAIN_EXIT))[0] == key.generator(_DOMAIN_EXIT).random()


@pytest.mark.filterwarnings("error")
def test_first_uniforms_of_no_key_and_of_one_key():
    assert first_uniforms(np.empty((0, 4), dtype=np.uint64)).shape == (0,)
    assert first_uniforms(stream_words(StreamKey(SEED), [], _DOMAIN_EXIT)).shape == (0,)
    top = 2**64 - 1
    for words in ([[0, 0, 0, 0]], [[top, top, top, top]], [[12345678901234567890, 987654321987654321, 5, 2]]):
        u = first_uniforms(np.array(words, dtype=np.uint64))
        assert u.shape == (1,) and u.tobytes() == _first_random(words).tobytes()


def _one_key_uniforms(words, n, first_block=1):
    # the one-key path: Philox on Python ints, block by block
    words = tuple(int(w) for w in words)
    out = [w for c in range(first_block, first_block - (-n // 4)) for w in _philox_block(words, c)]
    return _uniforms(np.array(out, dtype=np.uint64))[:n]


_EDGE_WORDS = np.concatenate((
    np.array([[0, 0, 0, 0], [2**64 - 1] * 4, [2**53, 2**53 + 1, 2**53, 2**53 + 1]], dtype=np.uint64),
    stream_words(StreamKey(SEED, point_id=2), np.array([2**32, 2**40 + 3, 2**64 - 1], dtype=np.uint64),
                 _DOMAIN_POISSON),
))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [1, 3, 4, 5, 169])
def test_philox_uniforms_are_a_fresh_philox_generators_random_bit_for_bit(n):
    # both paths, on edge words and on the streams of ids past 32 bits; a
    # later first block continues the stream as one long draw does
    expected = np.array([_numpy_philox(w).random(n + 24) for w in _EDGE_WORDS])
    assert philox_uniforms(_EDGE_WORDS, n).tobytes() == np.ascontiguousarray(expected[:, :n]).tobytes()
    assert philox_uniforms(_EDGE_WORDS, n, 7).tobytes() == np.ascontiguousarray(expected[:, 24:]).tobytes()
    for w, row in zip(_EDGE_WORDS, expected):
        assert _one_key_uniforms(w, n).tobytes() == row[:n].tobytes()
        assert _one_key_uniforms(w, n, 7).tobytes() == row[24:].tobytes()


@pytest.mark.filterwarnings("error")
def test_philox_uniforms_run_in_passes_that_change_no_bit(monkeypatch):
    words = stream_words(StreamKey(SEED), np.arange(50), _DOMAIN_POISSON)
    whole = philox_uniforms(words, 37)
    monkeypatch.setattr(drivers, "_PHILOX_PASS", 23)  # two rows of 10 blocks per pass
    assert philox_uniforms(words, 37).tobytes() == whole.tobytes()
    assert philox_uniforms(words[:0], 37).shape == (0, 37)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rate", [1.0, 0.7, 3.0])
def test_gaps_are_inverted_uniforms(rate):
    # each row holds one uniform, so its arrival time is its gap: -log1p(-u)
    # / rate bit for bit (numpy's log1p, which may differ from libm in the
    # last bit), and at rate 1 within 1 ulp of numpy's exponential by inversion
    key = np.array([SEED, 7], dtype=np.uint64)
    u = np.random.Generator(np.random.Philox(key=key)).random(20_000)
    gaps = _arrival_sums(u[:, None].copy(), rate, np.zeros(u.size))[:, 0]
    assert gaps.tobytes() == (-np.log1p(-u) / rate).tobytes()
    if rate == 1.0:
        inv = np.random.Generator(np.random.Philox(key=key)).standard_exponential(u.size, method="inv")
        assert (np.abs(gaps - inv) <= np.spacing(inv)).all()


def test_replica_poisson_jumps_peak_memory_is_bounded_above_its_output():
    # Philox runs in passes of _PHILOX_PASS blocks, so at 2 * 10^4 rows the
    # peak holds the result, the first pass's gaps (here narrower than the
    # result) and 0.5 MiB more; one unchunked pass would hold 12 MiB more
    key = StreamKey(SEED)
    replica_poisson_jumps(key, 10, 1.0, 20.0)
    tracemalloc.start()
    try:
        rows = replica_poisson_jumps(key, 20_000, 1.0, 20.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 2 * rows.nbytes <= 4 * 2**20


@pytest.mark.parametrize("seed", [-5, -1, 2**64, 2**64 + 7])
def test_seed_outside_64_bits_is_rejected(seed):
    # these used to be masked to 64 bits, aliasing the streams of other seeds
    with pytest.raises(ValueError):
        StreamKey(seed)
    StreamKey(2**64 - 1).generator(0)


@pytest.mark.parametrize("field", ["replica_id", "point_id"])
def test_id_outside_64_bits_is_rejected(field):
    # an id fills one 64-bit word of the Philox counter, so a key that does
    # not fit is refused when made, not when a batch draws from it
    for bad in (-1, 2**64, 2**64 + 3):
        with pytest.raises(ValueError):
            StreamKey(SEED, **{field: bad})
    key = StreamKey(SEED, **{field: 2**64 - 1})
    counter = [0, key.replica_id, key.point_id, _DOMAIN_BROWNIAN]
    assert key.generator(_DOMAIN_BROWNIAN).bit_generator.state["state"]["counter"].tolist() == counter
    assert stream_words(key, [key.replica_id], _DOMAIN_BROWNIAN)[0].tolist() == [SEED] + counter[1:]


def _assert_rows_are_each_replicas_jumps(rows, key, rate, horizon):
    expected = [sample_poisson_jumps(key.replica(i), rate, horizon) for i in range(rows.shape[0])]
    assert rows.shape[1] == max(r.size for r in expected)
    for row, jumps in zip(rows, expected):
        assert row[: jumps.size].tobytes() == jumps.tobytes()
        assert np.isnan(row[jumps.size :]).all()


@pytest.mark.parametrize("rate, horizon", [(1.0, 80.0), (0.7, 12.0), (3.0, 0.2)])
def test_first_block_arrivals_rows_start_each_replicas_poisson_jumps(rate, horizon):
    # the batch draw fills each row's first block at once; its rows are
    # each replica's own draw, NaN-padded to the longest
    key = StreamKey(SEED, role="independent")
    _assert_rows_are_each_replicas_jumps(replica_poisson_jumps(key, 300, rate, horizon), key, rate, horizon)


# replica 1 of seed 101770 has 8 or 10 arrivals at these horizons, so with
# passes of one Philox block (4 gaps) its arrivals run past the first pass
_LONG_ROWS = [(1.0, 3.9), (2.0, 1.95), (1.0, 4.9), (2.0, 2.0)]


def _one_block_passes(monkeypatch):
    # no pass length changes a bit, so a pass as short as one Philox block
    # makes the continuation run on rows that the default pass would hold
    monkeypatch.setattr(drivers, "_arrival_block", lambda *args: 4)


def _gaps(key, rate, size):
    # the law drawn through numpy: the stream's uniforms, inverted
    return -np.log1p(-key.generator(_DOMAIN_POISSON).random(size)) / rate


@pytest.mark.parametrize("rate, horizon", _LONG_ROWS)
def test_replica_poisson_jumps_completes_a_row_past_its_first_block(monkeypatch, rate, horizon):
    key = StreamKey(101770)
    default = replica_poisson_jumps(key, 3, rate, horizon)
    _one_block_passes(monkeypatch)
    rows = replica_poisson_jumps(key, 3, rate, horizon)
    longest = int(np.argmax(np.count_nonzero(rows <= horizon, axis=1)))
    block = _gaps(key.replica(longest), rate, drivers._arrival_block(rate, horizon, 3.0))
    assert np.cumsum(block)[-1] <= horizon
    assert np.count_nonzero(rows[longest] <= horizon) > block.size
    _assert_rows_are_each_replicas_jumps(rows, key, rate, horizon)
    assert rows.tobytes() == default.tobytes()


def test_replica_poisson_jumps_of_no_time_or_no_replicas_are_empty():
    assert replica_poisson_jumps(StreamKey(SEED), 4, 1.0, 0.0).shape == (4, 0)
    assert replica_poisson_jumps(StreamKey(SEED), 0, 1.0, 5.0).shape == (0, 0)
    with pytest.raises(ValueError):
        replica_poisson_jumps(StreamKey(SEED), 4, 0.0, 5.0)


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**63),
    replica=st.integers(0, 2**40),
    rate=st.sampled_from([0.3, 1.0, 2.0, 7.5]),
    h=st.floats(0.0, 30.0),
    longer=st.floats(0.0, 200.0),
)
@example(seed=101770, replica=1, rate=1.0, h=3.9, longer=16.1)
@example(seed=101770, replica=1, rate=2.0, h=1.95, longer=8.05)
@example(seed=101770, replica=1, rate=1.0, h=3.9, longer=0.0)
def test_jumps_at_a_horizon_are_the_part_below_it_of_any_longer_draw(seed, replica, rate, h, longer):
    # a stream is one running sum of its gaps, whatever pass each horizon's
    # draw takes: at h the passes are one Philox block, so a stream of 4 or
    # more arrivals continues its sum (each example has 8 at h, so 3 passes)
    key = StreamKey(seed, replica)
    passes = []
    with pytest.MonkeyPatch.context() as mp:
        _one_block_passes(mp)
        mp.setattr(drivers, "_arrival_sums", lambda *a: passes.append(a) or _arrival_sums(*a))
        at_h = sample_poisson_jumps(key, rate, h)
    assert len(passes) == (at_h.size // 4 + 1 if h > 0.0 else 0)
    at_long = sample_poisson_jumps(key, rate, h + longer)
    assert at_h.tobytes() == at_long[at_long <= h].tobytes()
    gaps = _gaps(key, rate, at_long.size + 1)
    sums = np.cumsum(gaps)
    assert at_long.tobytes() == sums[:-1].tobytes()
    assert sums[-1] > h + longer
