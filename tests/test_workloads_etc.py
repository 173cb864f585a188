"""Facebook ETC workload model."""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.workloads import EtcWorkload
from repro.workloads.etc import ZipfSampler


class TestZipf:
    def test_ranks_in_range(self):
        sampler = ZipfSampler(1000, 0.99, random.Random(1))
        for _ in range(2000):
            assert 1 <= sampler.sample() <= 1000

    def test_skew_head_dominates(self):
        sampler = ZipfSampler(100_000, 0.99, random.Random(2))
        counts = Counter(sampler.sample() for _ in range(20_000))
        top10 = sum(counts[r] for r in range(1, 11))
        # Zipf(0.99): the top 10 of 100k ranks carry a large share
        assert top10 / 20_000 > 0.15

    def test_rank1_most_popular(self):
        sampler = ZipfSampler(1000, 1.2, random.Random(3))
        counts = Counter(sampler.sample() for _ in range(30_000))
        assert counts[1] == max(counts.values())

    def test_degenerate_n1(self):
        sampler = ZipfSampler(1, 0.99, random.Random(4))
        assert sampler.sample() == 1

    def test_invalid_n(self):
        with pytest.raises(ConfigurationError):
            ZipfSampler(0, 0.99, random.Random(0))

    @given(s=st.floats(0.3, 2.5), n=st.integers(1, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_always_valid_rank(self, s, n):
        sampler = ZipfSampler(n, s, random.Random(7))
        for _ in range(50):
            assert 1 <= sampler.sample() <= n


class TestEtcWorkload:
    def test_keys_formatted(self):
        etc = EtcWorkload(keyspace=100)
        key = etc.key()
        assert key.startswith("key:")
        assert 1 <= int(key.split(":")[1]) <= 100

    def test_values_follow_size_cdf(self):
        etc = EtcWorkload()
        sizes = [len(etc.value()) for _ in range(5000)]
        # ETC is dominated by small values: most under 320B
        small = sum(1 for s in sizes if s <= 320)
        assert small / len(sizes) > 0.80
        assert max(sizes) <= 4096

    @pytest.mark.parametrize("seed", [7, 23])
    def test_values_share_one_object_per_size(self, seed):
        """Values come from seven shared objects, one per size class, and
        each draw still takes one ``random()`` and picks the size the
        per-call ``b"v" * size`` path picked."""
        from repro.workloads import ShardedEtcWorkload
        from repro.workloads.etc import _ETC_VALUE_SIZE_CDF

        def old_value(rng):
            u = rng.random()
            for size, cum in _ETC_VALUE_SIZE_CDF:
                if u <= cum:
                    return b"v" * size

        shared = EtcWorkload(seed=seed)
        oracle = random.Random(seed)
        values = [shared.value() for _ in range(10_000)]
        assert len({id(v) for v in values}) <= 7
        assert [len(v) for v in values] == [
            len(old_value(oracle)) for _ in range(10_000)
        ]
        assert all(v == b"v" * len(v) for v in values)
        # the draws leave both RNGs in step, so later keys match too
        assert shared.rng.getstate() == oracle.getstate()
        stream = ShardedEtcWorkload(keyspace=1_000, n_shards=2).stream(0)
        assert len({id(stream.value()) for _ in range(2_000)}) <= 7

    def test_read_dominated(self):
        etc = EtcWorkload()
        assert etc.set_fraction == pytest.approx(0.03, abs=0.001)

    def test_hot_keys_are_top_ranks(self):
        etc = EtcWorkload(keyspace=50)
        assert etc.hot_keys(3) == ["key:00000001", "key:00000002", "key:00000003"]
        assert len(etc.hot_keys(100)) == 50  # clamped to keyspace

    def test_preload(self):
        etc = EtcWorkload(keyspace=100)
        store = {}
        etc.preload(store.__setitem__, count=10)
        assert len(store) == 10

    def test_deterministic_for_seed(self):
        a = EtcWorkload(seed=9)
        b = EtcWorkload(seed=9)
        assert [a.key() for _ in range(20)] == [b.key() for _ in range(20)]

    def test_invalid_keyspace(self):
        with pytest.raises(ConfigurationError):
            EtcWorkload(keyspace=0)


class TestShardedEtcWorkload:
    def test_shard_weights_normalize_by_a_left_to_right_total(self):
        """The rack split's total adds left to right: with 8 shards of a
        20,000-key space a compensated sum (``sum()`` on 3.12) rounds the
        total differently and moves every per-host rate."""
        from repro.net.classifier import key_shard
        from repro.workloads import ShardedEtcWorkload

        raw = [0.0] * 8
        for rank in range(1, 20_001):
            raw[key_shard(f"key:{rank:08d}", 8)] += rank ** -0.99
        total = 0.0
        for weight in raw:
            total += weight
        assert math.fsum(raw) != total  # the two orders differ here
        sharded = ShardedEtcWorkload(keyspace=20_000, n_shards=8, seed=23)
        assert sharded.shard_weights() == [w / total for w in raw]

    def test_stream_keys_stay_in_shard(self):
        from repro.workloads import ShardedEtcWorkload

        sharded = ShardedEtcWorkload(keyspace=2_000, n_shards=4, seed=3)
        for shard in range(4):
            stream = sharded.stream(shard)
            for _ in range(50):
                assert sharded.shard_of(stream.key()) == shard

    def test_streams_are_independent_and_deterministic(self):
        from repro.workloads import ShardedEtcWorkload

        a = ShardedEtcWorkload(keyspace=2_000, n_shards=4, seed=3)
        b = ShardedEtcWorkload(keyspace=2_000, n_shards=4, seed=3)
        keys_a = [a.stream(1).key() for _ in range(1)]
        # draw from shard 0 first on b: shard 1's stream must be unaffected
        b0 = b.stream(0)
        [b0.key() for _ in range(25)]
        assert a.stream(1).key() == b.stream(1).key()
        assert keys_a  # sanity

    def test_shard_keys_partition_the_keyspace(self):
        from repro.workloads import ShardedEtcWorkload

        sharded = ShardedEtcWorkload(keyspace=500, n_shards=3)
        all_keys = []
        for shard in range(3):
            keys = sharded.shard_keys(shard, 500)
            assert all(sharded.shard_of(k) == shard for k in keys)
            all_keys.extend(keys)
        assert len(all_keys) == 500
        assert len(set(all_keys)) == 500

    def test_shard_weights_sum_to_one_and_follow_zipf(self):
        from repro.workloads import ShardedEtcWorkload

        sharded = ShardedEtcWorkload(keyspace=10_000, n_shards=8)
        weights = sharded.shard_weights()
        assert sum(weights) == pytest.approx(1.0)
        assert all(w > 0 for w in weights)
        # the shard owning rank-1 (the hottest key) gets extra mass
        hot_shard = sharded.shard_of("key:00000001")
        assert weights[hot_shard] > 1.0 / 8.0

    def test_preload_populates_only_shard_keys(self):
        from repro.workloads import ShardedEtcWorkload

        sharded = ShardedEtcWorkload(keyspace=300, n_shards=4)
        store = {}
        sharded.stream(2).preload(store.__setitem__)
        assert store
        assert all(sharded.shard_of(k) == 2 for k in store)

    def test_validation(self):
        from repro.workloads import ShardedEtcWorkload

        with pytest.raises(ConfigurationError):
            ShardedEtcWorkload(keyspace=0)
        with pytest.raises(ConfigurationError):
            ShardedEtcWorkload(n_shards=0)
        with pytest.raises(ConfigurationError):
            ShardedEtcWorkload(n_shards=2).stream(5)

    def test_empty_shard_rejected_instead_of_hanging(self):
        """A shard owning zero keys must fail fast at stream() — the
        rejection sampler would otherwise spin forever."""
        from repro.net.classifier import key_shard
        from repro.workloads import ShardedEtcWorkload

        # keyspace=1: the single key lands in exactly one of two shards
        sharded = ShardedEtcWorkload(keyspace=1, n_shards=2)
        owner = key_shard("key:00000001", 2)
        assert sharded.stream(owner).key() == "key:00000001"
        with pytest.raises(ConfigurationError, match="owns no keys"):
            sharded.stream(1 - owner)


# -- the shared CRC table: bit for bit what the per-key loops gave ------------


def _loop_shard_keys(keyspace, n_shards, shard, count):
    """The per-key ownership scan, hashing every key string."""
    from repro.net.classifier import key_shard

    keys = []
    for rank in range(1, keyspace + 1):
        key = f"key:{rank:08d}"
        if key_shard(key, n_shards) == shard:
            keys.append(key)
            if len(keys) >= count:
                break
    return keys


def _loop_shard_weights(keyspace, n_shards, zipf_s, max_rank):
    """The per-key Zipf mass scan, added in rank order."""
    from repro.net.classifier import key_shard

    weights = [0.0] * n_shards
    for rank in range(1, min(keyspace, max_rank) + 1):
        p = rank ** (-zipf_s)
        weights[key_shard(f"key:{rank:08d}", n_shards)] += p
    total = 0.0
    for weight in weights:
        total += weight
    return [w / total for w in weights]


@pytest.mark.parametrize(
    "keyspace,n_shards,zipf_s,max_rank",
    [
        (500, 3, 0.99, 200_000),
        (4_000, 8, 0.99, 200_000),
        (20_000, 16, 0.8, 200_000),
        (3_000, 1, 1.2, 200_000),  # one shard owns everything
        (6_000, 4, 0.99, 1_000),  # max_rank below the keyspace
        (3, 8, 0.99, 200_000),  # most shards own no key
    ],
)
def test_shard_keys_and_weights_match_the_per_key_loops(
    keyspace, n_shards, zipf_s, max_rank
):
    from repro.workloads import ShardedEtcWorkload
    from repro.workloads import etc

    # start from a short table, so the calls below also grow it
    del etc._KEY_CRCS[2:]
    sharded = ShardedEtcWorkload(
        keyspace=keyspace, n_shards=n_shards, zipf_s=zipf_s
    )
    assert sharded.shard_weights(max_rank) == _loop_shard_weights(
        keyspace, n_shards, zipf_s, max_rank
    )
    owned = 0
    for shard in range(n_shards):
        for count in (1, 7, keyspace):
            keys = sharded.shard_keys(shard, count)
            assert keys == _loop_shard_keys(keyspace, n_shards, shard, count)
        owned += len(keys)
    assert owned == keyspace
    if n_shards > keyspace:
        assert any(not sharded.shard_keys(s, 1) for s in range(n_shards))
