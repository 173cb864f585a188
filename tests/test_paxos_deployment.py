"""End-to-end Paxos on the DES: consensus over the switch, leader shift."""

import pytest

from repro import calibration as cal
from repro.apps.paxos import PaxosClient
from repro.apps.paxos.deployment import (
    LOGICAL_LEADER,
    HardwarePaxosRole,
    LearnerGapScanner,
    PaxosDeployment,
    SoftwarePaxosRole,
    _Directory,
)
from repro.apps.paxos.roles import AcceptorState, LeaderState, LearnerState
from repro.errors import ConfigurationError
from repro.host import make_i7_server
from repro.hw.fpga import make_p4xos_fpga
from repro.net.node import CallbackNode
from repro.net.switch import Switch
from repro.net.topology import Topology
from repro.sim import Simulator
from repro.units import msec, sec


def _build(n_acceptors=3, with_hw_leader=True):
    sim = Simulator()
    topo = Topology(sim)
    switch = Switch(sim, "tor")
    topo.add(switch)
    acceptor_names = [f"acceptor{i}" for i in range(n_acceptors)]
    directory = _Directory(acceptor_names, ["learner0"])

    sw_server = make_i7_server(sim, name="sw-leader")
    sw_leader = SoftwarePaxosRole(
        sim, sw_server, LeaderState("sw-leader", 0, n_acceptors), directory,
        capacity_pps=cal.LIBPAXOS_LEADER_CAPACITY_PPS,
        stack_latency_us=cal.LIBPAXOS_LEADER_STACK_US,
    )
    sw_server.set_packet_handler(sw_leader.offer)
    topo.add(sw_server)
    topo.connect_via_switch("tor", "sw-leader")

    hw_leader = None
    if with_hw_leader:
        card = make_p4xos_fpga()
        node = CallbackNode(sim, "hw-leader", on_packet=lambda p: hw_leader.offer(p))
        hw_leader = HardwarePaxosRole(
            sim, card, node, LeaderState("hw-leader", 1, n_acceptors), directory
        )
        topo.add(node)
        topo.connect_via_switch("tor", "hw-leader")

    for name in acceptor_names:
        server = make_i7_server(sim, name=name)
        role = SoftwarePaxosRole(
            sim, server, AcceptorState(name), directory,
            capacity_pps=cal.LIBPAXOS_ACCEPTOR_CAPACITY_PPS,
            stack_latency_us=cal.LIBPAXOS_ACCEPTOR_STACK_US,
        )
        server.set_packet_handler(role.offer)
        topo.add(server)
        topo.connect_via_switch("tor", name)

    learner_server = make_i7_server(sim, name="learner0")
    learner = SoftwarePaxosRole(
        sim, learner_server, LearnerState("learner0", n_acceptors), directory,
        capacity_pps=cal.LIBPAXOS_ACCEPTOR_CAPACITY_PPS,
        stack_latency_us=cal.LIBPAXOS_LEARNER_STACK_US,
    )
    learner_server.set_packet_handler(learner.offer)
    topo.add(learner_server)
    topo.connect_via_switch("tor", "learner0")

    deployment = PaxosDeployment(switch)
    deployment.register_leader("sw-leader", sw_leader)
    if hw_leader is not None:
        deployment.register_leader("hw-leader", hw_leader)
    deployment.activate_leader("sw-leader")

    client = PaxosClient(sim, "client0")
    topo.add(client)
    topo.connect_via_switch("tor", "client0")
    return sim, deployment, client, sw_leader, hw_leader, learner


def test_consensus_end_to_end():
    sim, deployment, client, sw_leader, _, learner = _build()
    sim.schedule_at(msec(10), lambda: client.set_rate(1000))
    sim.run_until(msec(500))
    assert client.decided > 300
    assert client.retries == 0
    # end-to-end latency ~400us with the software leader (Figure 7)
    assert client.latency.median() == pytest.approx(400.0, rel=0.25)


def test_leader_shift_end_to_end():
    sim, deployment, client, sw_leader, hw_leader, learner = _build()
    sim.schedule_at(msec(10), lambda: client.set_rate(2000))
    sim.schedule_at(msec(300), lambda: deployment.activate_leader("hw-leader"))
    sim.run_until(msec(800))
    assert deployment.active_leader_node == "hw-leader"
    assert deployment.shifts == 1
    assert hw_leader.state.ready
    assert not sw_leader.state.ready
    # decisions continued after the shift
    late = [t for t in client.decision_times_us if t > msec(450)]
    assert len(late) > 100


def test_hw_leader_latency_halved():
    sim, deployment, client, sw_leader, hw_leader, learner = _build()
    deployment.activate_leader("hw-leader")
    sim.schedule_at(msec(10), lambda: client.set_rate(1000))
    sim.run_until(msec(500))
    assert client.decided > 300
    # ~200us once the leader is in the data plane (Figure 7)
    assert client.latency.median() == pytest.approx(200.0, rel=0.3)


def test_new_leader_continues_sequence():
    sim, deployment, client, sw_leader, hw_leader, learner = _build()
    sim.schedule_at(msec(10), lambda: client.set_rate(1000))
    sim.run_until(msec(300))
    instances_before = sw_leader.state.next_instance
    deployment.activate_leader("hw-leader")
    sim.run_until(msec(600))
    assert hw_leader.state.next_instance >= instances_before


def test_learner_delivers_in_order():
    sim, deployment, client, sw_leader, hw_leader, learner = _build()
    sim.schedule_at(msec(10), lambda: client.set_rate(1000))
    sim.run_until(msec(400))
    state = learner.state
    assert state.delivered_upto > 0
    # everything up to delivered_upto is decided (no holes skipped)
    for instance in range(1, state.delivered_upto + 1):
        assert instance in state.decided


def test_activate_unknown_leader_rejected():
    sim, deployment, *_ = _build()
    with pytest.raises(ConfigurationError):
        deployment.activate_leader("nobody")


def test_activate_same_leader_is_noop():
    sim, deployment, *_ = _build()
    deployment.activate_leader("sw-leader")
    assert deployment.shifts == 0


def test_dpdk_role_pins_a_core():
    """§4.3: DPDK polls constantly — a full core regardless of load."""
    sim = Simulator()
    server = make_i7_server(sim, name="dpdk-host")
    directory = _Directory(["a0"], ["l0"])
    SoftwarePaxosRole(
        sim, server, AcceptorState("a0"), directory,
        capacity_pps=cal.DPDK_ACCEPTOR_CAPACITY_PPS,
        stack_latency_us=cal.DPDK_STACK_US,
        dpdk=True,
        app_name="dpdk-acceptor",
    )
    assert server.cpu.app_utilization("dpdk-acceptor") == pytest.approx(0.25)
    sim.run_until(sec(1.0))
    # still pinned after utilization windows rolled
    assert server.cpu.app_utilization("dpdk-acceptor") == pytest.approx(0.25)


# -- the routing table ---------------------------------------------------------


def test_route_addresses_each_role_output():
    from repro.apps.paxos.deployment import _route
    from repro.apps.paxos.messages import (
        ClientCommand,
        ClientRequest,
        GapRequest,
        Phase1A,
        Phase2A,
    )

    directory = _Directory(["a0", "a1", "a2"], ["l0", "l1"], leader_address="g0")
    leader = LeaderState("ldr", 0, 3)
    phase1 = leader.start_phase1()
    acceptors = [AcceptorState(name) for name in directory.acceptors]
    promises = [_route(a, phase1, directory) for a in acceptors]
    assert [dst for out in promises for dst, _ in out] == ["g0"] * 3
    for out in promises:
        assert _route(leader, out[0][1], directory) == []  # nothing to recover
    command = ClientCommand("c0", 1)
    proposals = _route(leader, ClientRequest(command), directory)
    assert [dst for dst, _ in proposals] == directory.acceptors
    proposal = proposals[0][1]
    votes = _route(acceptors[0], proposal, directory)
    assert [dst for dst, _ in votes] == ["l0", "l1"]
    learner = LearnerState("l0", 3)
    assert _route(learner, votes[0][1], directory) == []
    second_vote = _route(acceptors[1], proposal, directory)[0][1]
    decided = _route(learner, second_vote, directory)
    assert [(dst, d.instance, d.value) for dst, d in decided] == [("c0", 1, command)]
    resent = _route(leader, GapRequest(1), directory)
    assert [p for _, p in resent] == [Phase2A(proposal.round, 1, command)] * 3
    # a message a role does not handle produces no output
    assert list(_route(learner, Phase1A(phase1.round, "ldr"), directory)) == []
    assert list(_route(acceptors[0], ClientRequest(command), directory)) == []


def test_route_rejects_an_unknown_role_state():
    from repro.apps.paxos.deployment import _route
    from repro.apps.paxos.messages import GapRequest

    with pytest.raises(ConfigurationError):
        _route(object(), GapRequest(1), _Directory(["a0"], ["l0"]))


def test_messages_are_slotted_and_keep_their_value_semantics():
    import copy
    import pickle

    from repro.apps.paxos.messages import (
        ClientCommand,
        ClientRequest,
        Decision,
        GapRequest,
        Phase1A,
        Phase2A,
        Phase2B,
    )

    command = ClientCommand("c0", 7)
    messages = [
        command,
        ClientRequest(command, attempt=2),
        Phase1A(17, "ldr"),
        Phase2A(17, 3, command),
        Phase2B(17, 3, "a0", command, last_voted_instance=3),
        Decision(3, command),
        GapRequest(4),
    ]
    for message in messages:
        assert not hasattr(message, "__dict__")
        assert pickle.loads(pickle.dumps(message)) == message
        assert copy.deepcopy(message) == message
        assert hash(copy.copy(message)) == hash(message)
    assert repr(messages[1]) == "ClientRequest(command=cmd(c0#7), attempt=2)"
    assert repr(messages[4]) == (
        "Phase2B(round=17, instance=3, acceptor='a0', value=cmd(c0#7), "
        "last_voted_instance=3)"
    )
