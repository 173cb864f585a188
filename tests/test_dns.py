"""DNS: messages, zone, NSD and Emu DNS."""

import pytest

from repro import calibration as cal
from repro.apps.dns import (
    ARecord,
    DnsClient,
    DnsQuery,
    DnsRcode,
    DnsResponse,
    EmuDns,
    SoftwareNsd,
    ZoneTable,
)
from repro.apps.dns.emu import EMU_ZONE_CAPACITY
from repro.errors import ConfigurationError, ProtocolError
from repro.host import make_i7_server
from repro.hw.fpga import make_emu_dns_fpga
from repro.net import Switch, Topology
from repro.net.packet import TrafficClass, make_packet
from repro.sim import Simulator
from repro.units import kpps, msec, sec


class TestMessages:
    def test_name_normalization(self):
        q = DnsQuery("WWW.Example.COM.")
        assert q.name == "www.example.com"

    def test_name_length_limits(self):
        with pytest.raises(ProtocolError):
            DnsQuery("a" * 254)
        with pytest.raises(ProtocolError):
            DnsQuery(("a" * 64) + ".com")
        with pytest.raises(ProtocolError):
            DnsQuery("bad..example.com")

    def test_invalid_names_raise_every_time(self):
        """validate_name is memoized, but a failure is not cached."""
        from repro.apps.dns.message import validate_name

        for _ in range(3):
            with pytest.raises(ProtocolError):
                DnsQuery("bad..example.com")
        assert validate_name("Svc.Example.") == "svc.example"
        assert DnsQuery("SVC.example").name == "svc.example"
        info = validate_name.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize

    def test_query_and_response_keep_value_semantics(self):
        import copy
        import pickle

        record = ARecord("x.com", "1.2.3.4")
        for message in (
            DnsQuery("X.com.", query_id=3),
            DnsResponse(DnsRcode.NOERROR, "x.com", record=record, query_id=3),
            DnsResponse(DnsRcode.NXDOMAIN, "y.com", query_id=4),
        ):
            assert pickle.loads(pickle.dumps(message)) == message
            assert copy.deepcopy(message) == message
            assert hash(copy.copy(message)) == hash(message)
        assert repr(DnsQuery("X.com.", 3)) == (
            "DnsQuery(name='x.com', query_id=3, recursive=False)"
        )

    def test_arecord_validation(self):
        ARecord("x.com", "10.0.0.1")
        with pytest.raises(ProtocolError):
            ARecord("x.com", "999.0.0.1")
        with pytest.raises(ProtocolError):
            ARecord("x.com", "10.0.0")
        with pytest.raises(ProtocolError):
            ARecord("x.com", "1.2.3.4", ttl=-1)

    def test_response_consistency(self):
        record = ARecord("x.com", "1.2.3.4")
        DnsResponse(DnsRcode.NOERROR, "x.com", record=record)
        with pytest.raises(ProtocolError):
            DnsResponse(DnsRcode.NOERROR, "x.com")
        with pytest.raises(ProtocolError):
            DnsResponse(DnsRcode.NXDOMAIN, "x.com", record=record)


class TestZone:
    def test_resolve_hit(self):
        zone = ZoneTable()
        zone.add(ARecord("web.corp", "10.1.2.3"))
        response = zone.resolve(DnsQuery("WEB.CORP"))
        assert response.rcode is DnsRcode.NOERROR
        assert response.record.ipv4 == "10.1.2.3"

    def test_resolve_miss_is_nxdomain(self):
        """§3.3: absent names: 'Emu DNS informs the client that it cannot
        resolve the name'."""
        response = ZoneTable().resolve(DnsQuery("nope.example"))
        assert response.rcode is DnsRcode.NXDOMAIN

    def test_recursive_queries_unsupported(self):
        """§3.3: non-recursive queries only."""
        zone = ZoneTable()
        zone.add(ARecord("x.com", "1.1.1.1"))
        response = zone.resolve(DnsQuery("x.com", recursive=True))
        assert response.rcode is DnsRcode.NOTIMP

    def test_capacity_enforced(self):
        zone = ZoneTable(capacity=2)
        zone.add(ARecord("a.com", "1.1.1.1"))
        zone.add(ARecord("b.com", "1.1.1.2"))
        with pytest.raises(ConfigurationError):
            zone.add(ARecord("c.com", "1.1.1.3"))
        # replacing an existing record is fine at capacity
        zone.add(ARecord("a.com", "9.9.9.9"))

    def test_remove(self):
        zone = ZoneTable()
        zone.add(ARecord("a.com", "1.1.1.1"))
        assert zone.remove("A.COM")
        assert not zone.remove("a.com")


def _dns_setup(hardware: bool, rate_pps=kpps(5)):
    sim = Simulator()
    topo = Topology(sim)
    switch = Switch(sim, "tor")
    topo.add(switch)
    server = make_i7_server(sim, name="dns-server", nic=None if hardware else None)
    zone = ZoneTable()
    for i in range(100):
        zone.add(ARecord(f"host{i}.rack.corp", f"10.0.0.{i % 250 + 1}"))
    if hardware:
        card = make_emu_dns_fpga()
        server.install_card(card.power_w)
        service = EmuDns(sim, card, server, zone=ZoneTable(capacity=EMU_ZONE_CAPACITY))
        for i in range(100):
            service.zone.add(ARecord(f"host{i}.rack.corp", f"10.0.0.{i % 250 + 1}"))
        server.set_packet_handler(service.offer)
    else:
        service = SoftwareNsd(sim, server, zone=zone)
        server.set_packet_handler(service.offer)
    topo.add(server)
    topo.connect_via_switch("tor", "dns-server")
    counter = [0]

    def sampler():
        counter[0] += 1
        return f"host{counter[0] % 120}.rack.corp"  # ~17% NXDOMAIN

    client = DnsClient(sim, "client", "dns-server", name_sampler=sampler)
    topo.add(client)
    topo.connect_via_switch("tor", "client")
    client.set_rate(rate_pps)
    sim.run_until(sec(0.3))
    return sim, server, service, client


class TestNsd:
    def test_serves_queries(self):
        _, _, _, client = _dns_setup(hardware=False)
        assert client.responses == pytest.approx(1500, rel=0.05)
        assert client.resolved > 0
        assert client.nxdomain > 0

    def test_latency_about_70us(self):
        """§3.3: NSD ≈ ×70 slower than Emu DNS (~70µs median)."""
        _, _, _, client = _dns_setup(hardware=False)
        assert client.latency.median() == pytest.approx(cal.NSD_MEDIAN_US, rel=0.25)

    def test_cpu_load_registered(self):
        _, server, _, _ = _dns_setup(hardware=False, rate_pps=kpps(100))
        assert server.cpu.app_utilization("nsd") > 0.0


class TestEmuDns:
    def test_serves_queries(self):
        _, _, _, client = _dns_setup(hardware=True)
        assert client.responses == pytest.approx(1500, rel=0.05)

    def test_latency_about_1us_at_server(self):
        _, _, _, client = _dns_setup(hardware=True)
        # end-to-end includes ~4µs of links; pipeline itself is ~1µs
        assert client.latency.median() < 8.0

    def test_x70_improvement_over_nsd(self):
        _, _, _, sw_client = _dns_setup(hardware=False)
        _, _, _, hw_client = _dns_setup(hardware=True)
        # compare service latency net of the shared ~4.4µs link time
        wire_us = 4.4
        sw = sw_client.latency.median() - wire_us
        hw = hw_client.latency.median() - wire_us
        assert sw / hw > 30  # paper: ~×70 for the service itself

    def test_enable_disable_hooks(self):
        sim = Simulator()
        server = make_i7_server(sim, nic=None)
        card = make_emu_dns_fpga()
        emu = EmuDns(sim, card, server)
        full = card.power_w()
        emu.disable(power_save=True)
        assert card.power_w() < full
        emu.enable()
        assert card.power_w() == pytest.approx(full)
        assert emu.enabled

    def test_zone_capacity_is_onchip_limited(self):
        """§3.4: Emu DNS uses only on-chip memory; the table is bounded."""
        sim = Simulator()
        server = make_i7_server(sim, nic=None)
        emu = EmuDns(sim, make_emu_dns_fpga(), server)
        assert emu.zone.capacity == EMU_ZONE_CAPACITY

    def test_default_rng_is_independent_per_host(self):
        """Regression: anycast replicas built without an explicit rng must
        not share a jitter stream (a fixed ``random.Random(0xD45)`` made
        every replica's pipeline jitter identical)."""

        def emu_on(name):
            sim = Simulator()
            server = make_i7_server(sim, name=name, nic=None)
            return EmuDns(sim, make_emu_dns_fpga(), server)

        packet = make_packet(
            "c", "s", TrafficClass.DNS, payload=DnsQuery("a.example.com")
        )
        a, b = emu_on("dns-a"), emu_on("dns-b")
        draws_a = [a.request_latency_us(packet) for _ in range(8)]
        draws_b = [b.request_latency_us(packet) for _ in range(8)]
        assert draws_a != draws_b
        # same node name -> same deterministic stream
        again = emu_on("dns-a")
        assert [again.request_latency_us(packet) for _ in range(8)] == draws_a
