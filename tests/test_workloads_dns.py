"""DNS query workloads: Zipf names, qname-hash split, deterministic streams."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.net.classifier import key_shard
from repro.workloads.dns import DnsNameWorkload, ShardedDnsWorkload


class TestDnsNameWorkload:
    def test_names_valid_and_within_zone(self):
        workload = DnsNameWorkload(n_names=50, seed=3)
        records = {r.name for r in workload.records()}
        assert len(records) == 50
        for _ in range(500):
            assert workload.name() in records

    def test_popularity_is_skewed(self):
        workload = DnsNameWorkload(n_names=1_000, zipf_s=0.99, seed=5)
        top = workload.name_of_rank(1)
        hits = sum(workload.name() == top for _ in range(2_000))
        assert hits > 60  # rank 1 gets far more than 1/1000 of traffic

    def test_miss_fraction_generates_out_of_zone_names(self):
        workload = DnsNameWorkload(n_names=20, seed=3, miss_fraction=0.5)
        in_zone = {r.name for r in workload.records()}
        misses = sum(workload.name() not in in_zone for _ in range(400))
        assert 100 < misses < 300

    def test_records_are_valid_a_records(self):
        for record in DnsNameWorkload(n_names=300, seed=1).records():
            octets = record.ipv4.split(".")
            assert len(octets) == 4

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DnsNameWorkload(n_names=0)
        with pytest.raises(ConfigurationError):
            DnsNameWorkload(miss_fraction=1.0)


class TestShardedDnsWorkload:
    def test_shard_weights_normalize_by_a_left_to_right_total(self):
        """As for ETC: with 6 shards of an 800-name zone a compensated sum
        (``sum()`` on 3.12) rounds the total differently."""
        sharded = ShardedDnsWorkload(n_names=800, n_shards=6, seed=23)
        raw = [0.0] * 6
        for rank in range(1, 801):
            raw[sharded.shard_of(sharded.name_of_rank(rank))] += rank ** -0.99
        total = 0.0
        for weight in raw:
            total += weight
        assert math.fsum(raw) != total  # the two orders differ here
        assert sharded.shard_weights() == [w / total for w in raw]

    def test_streams_generate_only_their_shard(self):
        sharded = ShardedDnsWorkload(n_names=200, n_shards=3, seed=9)
        for shard in range(3):
            stream = sharded.stream(shard)
            for _ in range(100):
                assert key_shard(stream.name(), 3) == shard

    def test_weights_normalized_and_skew_ordered(self):
        sharded = ShardedDnsWorkload(n_names=500, n_shards=4, seed=9)
        weights = sharded.shard_weights()
        assert sum(weights) == pytest.approx(1.0)
        assert all(w > 0 for w in weights)
        # the shard owning rank 1 carries the most traffic
        top_shard = sharded.shard_of(sharded.name_of_rank(1))
        assert weights[top_shard] == max(weights)

    def test_streams_deterministic_and_independent(self):
        a = ShardedDnsWorkload(n_names=200, n_shards=2, seed=9)
        b = ShardedDnsWorkload(n_names=200, n_shards=2, seed=9)
        sa, sb = a.stream(0), b.stream(0)
        assert [sa.name() for _ in range(50)] == [sb.name() for _ in range(50)]
        # draining shard 1 does not perturb shard 0
        c = ShardedDnsWorkload(n_names=200, n_shards=2, seed=9)
        other = c.stream(1)
        for _ in range(100):
            other.name()
        sc, fresh = c.stream(0), a.stream(0)
        assert [sc.name() for _ in range(50)] == [fresh.name() for _ in range(50)]

    def test_miss_fraction_honored_per_shard(self):
        sharded = ShardedDnsWorkload(
            n_names=100, n_shards=2, seed=9, miss_fraction=0.4
        )
        in_zone = {r.name for r in sharded.records()}
        for shard in range(2):
            stream = sharded.stream(shard)
            names = [stream.name() for _ in range(400)]
            assert all(key_shard(n, 2) == shard for n in names)
            misses = sum(n not in in_zone for n in names)
            assert 80 < misses < 240  # ~40% of this shard's queries

    @pytest.mark.parametrize("miss_fraction", [0.0, 0.3])
    def test_memoized_names_follow_the_unmemoized_draws(self, miss_fraction):
        """The (qname, shard) memo changes no draw: an oracle that formats
        and hashes every candidate from a twin RNG picks the same names."""
        import random

        from repro.workloads.dns import DnsShardStream
        from repro.workloads.etc import ZipfSampler

        sharded = ShardedDnsWorkload(
            n_names=300, n_shards=3, seed=4, miss_fraction=miss_fraction
        )
        streams = [sharded.stream(shard) for shard in range(3)]
        oracles = []
        for stream in streams:
            rng = random.Random()
            rng.setstate(stream._rng.getstate())
            oracles.append((rng, ZipfSampler(300, 0.99, rng), stream.shard))

        def oracle_name(rng, zipf, shard):
            while True:
                if miss_fraction and rng.random() < miss_fraction:
                    rank = 300 + rng.randrange(1, 1000)
                else:
                    rank = zipf.sample()
                qname = sharded.name_of_rank(rank)
                if key_shard(qname, 3) == shard:
                    return qname

        for i in range(600):
            stream, oracle = streams[i % 3], oracles[i % 3]
            assert isinstance(stream, DnsShardStream)
            assert stream.name() == oracle_name(*oracle)

    def test_empty_shard_rejected(self):
        # 1 name across 4 shards: three shards own nothing
        sharded = ShardedDnsWorkload(n_names=1, n_shards=4, seed=9)
        owner = sharded.shard_of(sharded.name_of_rank(1))
        empty = next(s for s in range(4) if s != owner)
        with pytest.raises(ConfigurationError, match="owns no names"):
            sharded.stream(empty)

    def test_out_of_range_shard_rejected(self):
        sharded = ShardedDnsWorkload(n_names=10, n_shards=2, seed=9)
        with pytest.raises(ConfigurationError):
            sharded.stream(2)
