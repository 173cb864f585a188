"""Paxos deployments: roles hosted on servers (libpaxos/DPDK) or FPGAs
(P4xos) inside the DES.

Addressing: clients and acceptors send leader-bound messages to the
**logical leader address** (:data:`LOGICAL_LEADER`); the ToR switch carries
a redirect rule mapping it to the physical node currently acting as leader.
Shifting the leader = rewriting that one rule (§9.2: "the controller
modifies switch forwarding rules to send messages to the new leader").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ... import calibration as cal
from ...errors import ConfigurationError
from ...hw.fpga import NetFpgaSume, make_p4xos_fpga
from ...net.packet import Packet, TrafficClass, make_packet
from ...net.node import Node
from ...net.switch import ForwardingRule, Switch
from ...sim import Simulator
from ...units import msec
from ..common import HardwareService, SoftwareService
from .messages import (
    ClientRequest,
    Decision,
    GapRequest,
    Phase1A,
    Phase1B,
    Phase2A,
    Phase2B,
)
from .roles import AcceptorState, LeaderState, LearnerState

#: The default logical leader address (clients/acceptors never learn the
#: physical leader; the switch does).  Racks running several independent
#: consensus groups give each group its own logical address.
LOGICAL_LEADER = "paxos-leader"

PAXOS_PORT = 8888

#: bound once for the per-message paths: on 3.10 and 3.11 reading an enum
#: member off its class costs ~150 ns, a module global ~15 ns
_PAXOS = TrafficClass.PAXOS


class _Directory:
    """Who the protocol participants are (by node name).

    ``leader_address`` is the group's logical leader destination; with N
    groups behind one ToR each directory carries its own, so promises and
    gap requests reach the right group's active leader.
    """

    def __init__(
        self,
        acceptors: List[str],
        learners: List[str],
        leader_address: str = LOGICAL_LEADER,
    ):
        if not acceptors or not learners:
            raise ConfigurationError("need at least one acceptor and one learner")
        self.acceptors = list(acceptors)
        self.learners = list(learners)
        self.leader_address = leader_address


def _fan_out(message, addresses: Sequence[str]) -> Sequence[Tuple[str, object]]:
    """``message`` to every address, or nothing when the role sent none."""
    if message is None:
        return ()
    return [(address, message) for address in addresses]


def _leader_client_request(state: LeaderState, msg, directory: _Directory):
    return _fan_out(state.handle_client_request(msg), directory.acceptors)


def _leader_phase1b(state: LeaderState, msg, directory: _Directory):
    return [
        (acceptor, proposal)
        for proposal in state.handle_phase1b(msg)
        for acceptor in directory.acceptors
    ]


def _leader_gap_request(state: LeaderState, msg, directory: _Directory):
    return _fan_out(state.handle_gap_request(msg), directory.acceptors)


def _acceptor_phase1a(state: AcceptorState, msg, directory: _Directory):
    return _fan_out(state.handle_phase1a(msg), (directory.leader_address,))


def _acceptor_phase2a(state: AcceptorState, msg, directory: _Directory):
    return _fan_out(state.handle_phase2a(msg), directory.learners)


def _learner_phase2b(state: LearnerState, msg, directory: _Directory):
    state.handle_phase2b(msg)
    out = []
    for decision in state.deliverable():
        client = getattr(decision.value, "client", None)
        if client is not None:
            out.append((client, decision))
    return out


#: (role-state class, message class) -> the handler that runs the message
#: through the role and addresses what it sends
_ROUTES = {
    (LeaderState, ClientRequest): _leader_client_request,
    (LeaderState, Phase1B): _leader_phase1b,
    (LeaderState, GapRequest): _leader_gap_request,
    (AcceptorState, Phase1A): _acceptor_phase1a,
    (AcceptorState, Phase2A): _acceptor_phase2a,
    (LearnerState, Phase2B): _learner_phase2b,
}

_ROLE_STATES = frozenset(state for state, _ in _ROUTES)


def _route(state, payload, directory: _Directory) -> Sequence[Tuple[str, object]]:
    """Run one message through a role; return (destination, payload) pairs.

    A message the role does not handle produces none.
    """
    handler = _ROUTES.get((state.__class__, payload.__class__))
    if handler is not None:
        return handler(state, payload, directory)
    if state.__class__ not in _ROLE_STATES:
        raise ConfigurationError(f"unknown role state {state!r}")
    return ()


class SoftwarePaxosRole(SoftwareService):
    """A Paxos role on a host (libpaxos or its DPDK port, §3.2)."""

    def __init__(
        self,
        sim: Simulator,
        server,
        state,
        directory: _Directory,
        capacity_pps: float,
        stack_latency_us: float,
        cores: float = 1.0,
        app_name: Optional[str] = None,
        dpdk: bool = False,
    ):
        name = app_name or f"paxos.{server.name}"
        super().__init__(
            sim,
            server,
            name,
            capacity_pps=capacity_pps,
            cores=cores,
            extra_latency_us=stack_latency_us,
        )
        self.state = state
        self.directory = directory
        self.dpdk = dpdk
        if dpdk:
            # §4.3: "DPDK constantly polls" — the dedicated core is 100%
            # busy regardless of traffic, which is what makes its power
            # curve flat and high.
            server.cpu.set_load(name, cores, 1.0)

    def _update_cpu_load(self) -> None:
        if self.dpdk:
            self.util.roll()  # keep the window moving
            self.server.cpu.set_load(self.app_name, self.cores, 1.0)
        else:
            super()._update_cpu_load()

    def handle_request(self, packet: Packet):
        src = self.server.name
        created = packet.created_us
        transmit = self.transmit
        for dst, payload in _route(self.state, packet.payload, self.directory):
            transmit(make_packet(src, dst, _PAXOS, payload, created, PAXOS_PORT, 102))
        return None

    def begin_takeover(self) -> None:
        """(Leader only) run phase 1: multicast 1A to the acceptors."""
        if not isinstance(self.state, LeaderState):
            raise ConfigurationError("begin_takeover on a non-leader role")
        msg = self.state.start_phase1()
        for acceptor in self.directory.acceptors:
            packet = make_packet(
                src=self.server.name,
                dst=acceptor,
                traffic_class=TrafficClass.PAXOS,
                payload=msg,
                now=self.sim.now,
                dport=PAXOS_PORT,
            )
            self.transmit(packet)


class HardwarePaxosRole(HardwareService):
    """A Paxos role compiled to the data plane (P4xos on NetFPGA, §3.2)."""

    def __init__(
        self,
        sim: Simulator,
        card: NetFpgaSume,
        node: Node,
        state,
        directory: _Directory,
        capacity_pps: float = cal.P4XOS_FPGA_CAPACITY_PPS,
        pipeline_us: float = cal.P4XOS_FPGA_PIPELINE_US,
        app_name: Optional[str] = None,
    ):
        super().__init__(
            sim, card, node, app_name or f"p4xos.{node.name}", capacity_pps
        )
        self.state = state
        self.directory = directory
        self.pipeline_us = pipeline_us

    def request_latency_us(self, packet: Packet) -> float:
        return self.pipeline_us

    def handle_request(self, packet: Packet):
        src = self.node.name
        created = packet.created_us
        send = self.node.send
        for dst, payload in _route(self.state, packet.payload, self.directory):
            send(make_packet(src, dst, _PAXOS, payload, created, PAXOS_PORT, 102))
        return None

    def stand_by(self) -> None:
        """Hold the card in the §9.2 standby configuration while the
        software leader is active (clock-gated, zero utilization)."""
        self.card.set_utilization(0.0)
        self.card.clock_gate_all_logic()

    def begin_takeover(self) -> None:
        if not isinstance(self.state, LeaderState):
            raise ConfigurationError("begin_takeover on a non-leader role")
        self.card.activate_all_logic()  # leave standby before serving
        msg = self.state.start_phase1()
        for acceptor in self.directory.acceptors:
            packet = make_packet(
                src=self.node.name,
                dst=acceptor,
                traffic_class=TrafficClass.PAXOS,
                payload=msg,
                now=self.sim.now,
                dport=PAXOS_PORT,
            )
            self.node.send(packet)


class LearnerGapScanner:
    """Periodic gap scan for a learner role (§9.2's learner timeout)."""

    def __init__(
        self,
        sim: Simulator,
        role,
        timeout_us: float = msec(cal.PAXOS_LEARNER_GAP_TIMEOUT_MS),
    ):
        self._sim = sim
        self._role = role
        self._timeout_us = timeout_us
        self._timer = sim.call_every(timeout_us / 2.0, self._scan)

    def _scan(self) -> None:
        state: LearnerState = self._role.state
        for gap in state.gaps(self._sim.now, self._timeout_us):
            packet = make_packet(
                src=self._role.server.name
                if isinstance(self._role, SoftwarePaxosRole)
                else self._role.node.name,
                dst=self._role.directory.leader_address,
                traffic_class=TrafficClass.PAXOS,
                payload=gap,
                now=self._sim.now,
                dport=PAXOS_PORT,
            )
            if isinstance(self._role, SoftwarePaxosRole):
                self._role.transmit(packet)
            else:
                self._role.node.send(packet)

    def stop(self) -> None:
        self._timer.cancel()


class PaxosDeployment:
    """Book-keeping for a deployed Paxos group.

    Tracks the leader candidates (software and hardware) and which one the
    logical leader address currently routes to; ``shift_leader`` performs
    the §9.2 sequence: rewrite the forwarding rule, step the old leader
    down, and start the new leader's phase 1.
    """

    def __init__(self, switch: Switch, logical_leader: str = LOGICAL_LEADER):
        self.switch = switch
        self.logical_leader = logical_leader
        self._leaders: Dict[str, object] = {}  # node name -> role wrapper
        self.active_leader_node: Optional[str] = None
        self.shifts = 0

    def register_leader(self, node_name: str, role) -> None:
        if node_name in self._leaders:
            raise ConfigurationError(f"duplicate leader node {node_name!r}")
        self._leaders[node_name] = role

    def activate_leader(self, node_name: str) -> None:
        """Route the logical leader to ``node_name`` and start phase 1."""
        if node_name not in self._leaders:
            raise ConfigurationError(f"unknown leader node {node_name!r}")
        previous = self.active_leader_node
        if previous == node_name:
            return
        self.switch.install_rule(
            ForwardingRule(TrafficClass.PAXOS, self.logical_leader, node_name)
        )
        if previous is not None:
            old_role = self._leaders[previous]
            old_role.state.step_down()
            # a stepped-down hardware leader returns to §9.2 standby
            stand_by = getattr(old_role, "stand_by", None)
            if stand_by is not None:
                stand_by()
            self.shifts += 1
        self.active_leader_node = node_name
        self._leaders[node_name].begin_takeover()

    shift_leader = activate_leader
