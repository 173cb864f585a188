"""Packet classifier: the hardware/host steering point (§3.1/§9.1)."""

import pytest

from repro.errors import ConfigurationError
from repro.net import ClassifierRule, PacketClassifier, TrafficClass
from repro.net.packet import make_packet
from repro.sim import Simulator


def _classifier():
    sim = Simulator()
    hw, host, default = [], [], []
    clf = PacketClassifier(sim, default_host=default.append)
    clf.add_rule(
        ClassifierRule(TrafficClass.MEMCACHED, hardware=hw.append, host=host.append)
    )
    return sim, clf, hw, host, default


def test_offload_disabled_goes_to_host():
    sim, clf, hw, host, default = _classifier()
    clf.classify(make_packet("c", "s", TrafficClass.MEMCACHED, now=sim.now))
    assert len(host) == 1 and len(hw) == 0


def test_offload_enabled_goes_to_hardware():
    sim, clf, hw, host, default = _classifier()
    clf.set_offload(TrafficClass.MEMCACHED, True)
    clf.classify(make_packet("c", "s", TrafficClass.MEMCACHED, now=sim.now))
    assert len(hw) == 1 and len(host) == 0


def test_shift_mid_stream():
    sim, clf, hw, host, default = _classifier()
    clf.classify(make_packet("c", "s", TrafficClass.MEMCACHED, now=sim.now))
    clf.set_offload(TrafficClass.MEMCACHED, True)
    clf.classify(make_packet("c", "s", TrafficClass.MEMCACHED, now=sim.now))
    clf.set_offload(TrafficClass.MEMCACHED, False)
    clf.classify(make_packet("c", "s", TrafficClass.MEMCACHED, now=sim.now))
    assert len(host) == 2 and len(hw) == 1


def test_unmatched_class_uses_default_host():
    """Non-application traffic passes through as plain NIC traffic (§3.1)."""
    sim, clf, hw, host, default = _classifier()
    clf.classify(make_packet("c", "s", TrafficClass.NORMAL, now=sim.now))
    assert len(default) == 1


def test_counters_count_all_traffic():
    sim, clf, hw, host, default = _classifier()
    for _ in range(5):
        clf.classify(make_packet("c", "s", TrafficClass.MEMCACHED, now=sim.now))
    clf.classify(make_packet("c", "s", TrafficClass.NORMAL, now=sim.now))
    assert clf.counters[TrafficClass.MEMCACHED] == 5
    assert clf.counters[TrafficClass.NORMAL] == 1


def test_set_offload_unknown_class_raises():
    sim, clf, hw, host, default = _classifier()
    with pytest.raises(ConfigurationError):
        clf.set_offload(TrafficClass.DNS, True)


def test_offload_enabled_query():
    sim, clf, hw, host, default = _classifier()
    assert not clf.offload_enabled(TrafficClass.MEMCACHED)
    clf.set_offload(TrafficClass.MEMCACHED, True)
    assert clf.offload_enabled(TrafficClass.MEMCACHED)
    assert not clf.offload_enabled(TrafficClass.DNS)


class TestKeyShardRouter:
    def _packet(self, sim, key):
        from repro.apps.kvs.protocol import KvsOp, KvsRequest

        return make_packet(
            "client", "kvs-rack", TrafficClass.MEMCACHED,
            payload=KvsRequest(KvsOp.GET, key), now=sim.now,
        )

    def test_routing_is_deterministic_and_agrees_with_key_shard(self):
        from repro.net import KeyShardRouter, key_shard

        sim = Simulator()
        hosts = [f"kvs{i}" for i in range(4)]
        router = KeyShardRouter(hosts)
        for i in range(64):
            key = f"key:{i:08d}"
            host = router.route(self._packet(sim, key))
            assert host == hosts[key_shard(key, 4)]
            assert host == router.host_for_key(key)
        assert sum(router.per_host.values()) == 64

    def test_all_shards_reachable(self):
        from repro.net import KeyShardRouter

        sim = Simulator()
        router = KeyShardRouter([f"kvs{i}" for i in range(8)])
        for i in range(512):
            router.route(self._packet(sim, f"key:{i:08d}"))
        assert all(count > 0 for count in router.per_host.values())

    def test_keyless_packet_falls_back_to_source_hash(self):
        from repro.net import KeyShardRouter

        sim = Simulator()
        router = KeyShardRouter(["kvs0", "kvs1"])
        packet = make_packet("client", "kvs-rack", TrafficClass.NORMAL, now=sim.now)
        first = router.route(packet)
        assert router.keyless == 1
        assert first == router.route(packet)  # deterministic fallback

    def test_empty_host_list_rejected(self):
        from repro.errors import ConfigurationError
        from repro.net import KeyShardRouter

        with pytest.raises(ConfigurationError):
            KeyShardRouter([])

    def test_key_shard_validates(self):
        from repro.errors import ConfigurationError
        from repro.net import key_shard

        with pytest.raises(ConfigurationError):
            key_shard("key", 0)

    def test_none_placeholder_marks_unowned_shards(self):
        """A sub-rack of a larger sharded rack lists ``None`` for shards
        its hosts do not own; traffic for those shards is a config bug."""
        from repro.errors import ConfigurationError
        from repro.net import KeyShardRouter, key_shard

        sim = Simulator()
        # a 4-shard space where only shard 2's host survives
        owners = [None, None, "kvs2", None]
        router = KeyShardRouter(owners)
        assert router.n_shards == 4
        assert router.per_host == {"kvs2": 0}
        owned = next(
            f"key:{i:08d}" for i in range(256)
            if key_shard(f"key:{i:08d}", 4) == 2
        )
        assert router.route(self._packet(sim, owned)) == "kvs2"
        orphan = next(
            f"key:{i:08d}" for i in range(256)
            if key_shard(f"key:{i:08d}", 4) != 2
        )
        with pytest.raises(ConfigurationError):
            router.route(self._packet(sim, orphan))
        with pytest.raises(ConfigurationError):
            router.host_for_key(orphan)

    def test_all_none_owner_list_rejected(self):
        from repro.errors import ConfigurationError
        from repro.net import KeyShardRouter

        with pytest.raises(ConfigurationError):
            KeyShardRouter([None, None])
