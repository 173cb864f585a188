"""Direct tests of the shared application machinery."""

import pytest

from repro.apps.common import HardwareService, SoftwareService, UtilizationTracker
from repro.errors import ConfigurationError
from repro.host import make_i7_server
from repro.hw.fpga import make_p4xos_fpga
from repro.net.packet import Packet, TrafficClass, make_packet
from repro.net.node import SinkNode
from repro.sim import Simulator
from repro.units import msec, sec


class EchoService(SoftwareService):
    """Replies with the request payload."""

    def handle_request(self, packet):
        return packet.payload


class NullHardware(HardwareService):
    def request_latency_us(self, packet):
        return 2.0

    def handle_request(self, packet):
        return packet.payload


class TestUtilizationTracker:
    def test_windowed_utilization(self):
        sim = Simulator()
        tracker = UtilizationTracker(sim, window_us=1000.0)
        tracker.add_busy(250.0)
        sim.run_until(1000.0)
        assert tracker.roll() == pytest.approx(0.25)

    def test_capped_at_one(self):
        sim = Simulator()
        tracker = UtilizationTracker(sim, window_us=1000.0)
        tracker.add_busy(5000.0)
        sim.run_until(1000.0)
        assert tracker.roll() == 1.0

    def test_roll_resets_window(self):
        sim = Simulator()
        tracker = UtilizationTracker(sim, window_us=1000.0)
        tracker.add_busy(500.0)
        sim.run_until(1000.0)
        tracker.roll()
        sim.run_until(2000.0)
        assert tracker.roll() == 0.0


def _software(extra_latency=0.0, capacity=100_000.0):
    sim = Simulator()
    server = make_i7_server(sim, name="srv")
    sink = SinkNode(sim, "client")
    server.attach_egress(sink.receive)
    service = EchoService(
        sim, server, "echo", capacity_pps=capacity, cores=1.0,
        extra_latency_us=extra_latency,
    )
    return sim, server, sink, service


class TestSoftwareService:
    def test_serves_and_replies(self):
        sim, server, sink, service = _software()
        service.offer(make_packet("client", "srv", TrafficClass.NORMAL,
                                  payload="hello", now=sim.now))
        sim.run_until(msec(10.0))
        assert service.served == 1
        assert len(sink.received) == 1
        assert sink.received[0].payload == "hello"

    def test_reply_addressed_to_requester(self):
        sim, server, sink, service = _software()
        service.offer(make_packet("client", "srv", TrafficClass.NORMAL,
                                  payload="x", now=sim.now))
        sim.run_until(msec(10.0))
        assert sink.received[0].dst == "client"
        assert sink.received[0].src == "srv"

    def test_stack_latency_delays_reply(self):
        sim, server, sink, service = _software(extra_latency=100.0)
        service.offer(make_packet("client", "srv", TrafficClass.NORMAL,
                                  payload="x", now=sim.now))
        sim.run_until(50.0)
        assert not sink.received  # service time (10us) done, stack not
        sim.run_until(200.0)
        assert len(sink.received) == 1

    def test_fifo_service_order(self):
        sim, server, sink, service = _software()
        for i in range(5):
            service.offer(make_packet("client", "srv", TrafficClass.NORMAL,
                                      payload=i, now=sim.now))
        sim.run_until(msec(10.0))
        assert [p.payload for p in sink.received] == list(range(5))

    def test_busy_time_feeds_cpu_account(self):
        sim, server, sink, service = _software(capacity=10_000.0)
        for _ in range(100):
            service.offer(make_packet("client", "srv", TrafficClass.NORMAL,
                                      payload="x", now=sim.now))
        sim.run_until(msec(100.0))
        assert server.cpu.app_utilization("echo") > 0.0

    def test_idle_fast_path_leaves_queue_stats_as_push_and_pop(self):
        """Arrivals at 0 and 31 us find the server idle and skip the
        queue; those at 2, 4 and 35 us wait.  Service takes 10 us.  The
        statistics are what push-then-pop would leave, by hand:
        depth 1 over 2-4 us, 2 over 4-10, 1 over 10-20 and 1 over
        35-41 gives an integral of 2 + 12 + 10 + 6 = 30 us, last
        changed when the t=35 request leaves the queue at 41 us."""
        sim, server, sink, service = _software(capacity=100_000.0)
        for at in (0.0, 2.0, 4.0, 31.0, 35.0):
            sim.schedule_call(
                at,
                service.offer,
                make_packet("client", "srv", TrafficClass.NORMAL, payload=at, now=at),
            )
        sim.run_until(100.0)
        stats = service.queue.stats
        assert (stats.enqueued, stats.dequeued, stats.dropped) == (5, 5, 0)
        assert stats.peak_depth == 2
        assert stats.depth_time_integral == 30.0
        assert stats._last_change == 41.0
        assert [p.payload for p in sink.received] == [0.0, 2.0, 4.0, 31.0, 35.0]
        assert service.served == 5

    def test_validation(self):
        sim = Simulator()
        server = make_i7_server(sim)
        with pytest.raises(ConfigurationError):
            EchoService(sim, server, "bad", capacity_pps=0.0, cores=1.0)
        with pytest.raises(ConfigurationError):
            EchoService(sim, server, "bad", capacity_pps=1.0, cores=0.0)
        with pytest.raises(ConfigurationError):
            EchoService(sim, server, "bad", capacity_pps=1.0, cores=1.0,
                        extra_latency_us=-1.0)


class TestHardwareService:
    def _hardware(self):
        sim = Simulator()
        card = make_p4xos_fpga()
        sink = SinkNode(sim, "client")
        node = SinkNode(sim, "hw")
        node.attach_egress(sink.receive)
        service = NullHardware(sim, card, node, "nullhw", capacity_pps=1000.0)
        return sim, card, sink, service

    def test_pipeline_latency(self):
        sim, card, sink, service = self._hardware()
        service.offer(make_packet("client", "hw", TrafficClass.NORMAL,
                                  payload="x", now=sim.now))
        sim.run_until(1.9)
        assert not sink.received
        sim.run_until(2.1)
        assert len(sink.received) == 1

    def test_overload_policing(self):
        sim, card, sink, service = self._hardware()
        # capacity 1000pps => 100 per 100ms window
        for _ in range(500):
            service.offer(make_packet("client", "hw", TrafficClass.NORMAL,
                                      payload="x", now=sim.now))
        sim.run_until(msec(50.0))
        assert service.dropped_overload == 400

    def test_utilization_drives_card_dynamic_power(self):
        sim, card, sink, service = self._hardware()
        idle = card.power_w()
        for _ in range(100):  # exactly one window's capacity
            service.offer(make_packet("client", "hw", TrafficClass.NORMAL,
                                      payload="x", now=sim.now))
        sim.run_until(msec(100.0))  # window rolls -> utilization = 1.0
        assert card.power_w() > idle

    def test_stop_zeroes_utilization(self):
        sim, card, sink, service = self._hardware()
        for _ in range(100):
            service.offer(make_packet("client", "hw", TrafficClass.NORMAL,
                                      payload="x", now=sim.now))
        sim.run_until(msec(100.0))
        service.stop()
        assert card.utilization == 0.0
