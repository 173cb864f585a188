"""Paxos role state machines (direct-call protocol tests)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.paxos import (
    AcceptorState,
    ClientCommand,
    ClientRequest,
    Decision,
    GapRequest,
    LeaderState,
    LearnerState,
    NOOP,
    Phase1A,
    Phase2A,
    majority,
)
from repro.errors import ProtocolError


def _ready_leader(n_acceptors=3, leader_index=0, acceptors=None):
    leader = LeaderState(f"L{leader_index}", leader_index, n_acceptors)
    acceptors = acceptors or [AcceptorState(f"a{i}") for i in range(n_acceptors)]
    p1a = leader.start_phase1()
    for acceptor in acceptors:
        promise = acceptor.handle_phase1a(p1a)
        if promise is not None:
            leader.handle_phase1b(promise)
    return leader, acceptors


def test_majority():
    assert majority(1) == 1
    assert majority(3) == 2
    assert majority(5) == 3
    with pytest.raises(ProtocolError):
        majority(0)


class TestAcceptor:
    def test_promise_once_per_round(self):
        acceptor = AcceptorState("a")
        assert acceptor.handle_phase1a(Phase1A(16, "L")) is not None
        assert acceptor.handle_phase1a(Phase1A(16, "L")) is None  # duplicate
        assert acceptor.handle_phase1a(Phase1A(10, "L")) is None  # stale

    def test_vote_records_state(self):
        acceptor = AcceptorState("a")
        vote = acceptor.handle_phase2a(Phase2A(16, 1, "v"))
        assert vote is not None
        assert vote.last_voted_instance == 1
        assert acceptor.votes[1] == (16, "v")

    def test_vote_rejected_below_promise(self):
        acceptor = AcceptorState("a")
        acceptor.handle_phase1a(Phase1A(32, "L"))
        assert acceptor.handle_phase2a(Phase2A(16, 1, "v")) is None

    def test_last_voted_piggyback_is_max(self):
        """§9.2: acceptors piggyback the last-voted-upon sequence number."""
        acceptor = AcceptorState("a")
        acceptor.handle_phase2a(Phase2A(16, 5, "v"))
        vote = acceptor.handle_phase2a(Phase2A(16, 3, "w"))
        assert vote.last_voted_instance == 5

    def test_recovery_window_bounds_report(self):
        acceptor = AcceptorState("a", recovery_window=2)
        for instance in range(1, 6):
            acceptor.handle_phase2a(Phase2A(16, instance, f"v{instance}"))
        promise = acceptor.handle_phase1a(Phase1A(32, "L"))
        assert set(promise.votes) == {4, 5}
        assert promise.last_voted_instance == 5

    def test_recovery_window_validated(self):
        with pytest.raises(ProtocolError):
            AcceptorState("a", recovery_window=0)


class TestLeader:
    def test_not_ready_drops_proposals(self):
        """§9.2/Figure 7: 'the new leader fails to propose until it learns
        the latest Paxos instance from the acceptors'."""
        leader = LeaderState("L", 0, 3)
        leader.start_phase1()
        assert leader.propose("v") is None
        assert leader.dropped_not_ready == 1

    def test_ready_after_quorum(self):
        leader, _ = _ready_leader()
        assert leader.ready
        proposal = leader.propose("v")
        assert proposal == Phase2A(leader.round, 1, "v")

    def test_instances_monotonic(self):
        leader, _ = _ready_leader()
        instances = [leader.propose(f"v{i}").instance for i in range(5)]
        assert instances == [1, 2, 3, 4, 5]

    def test_takeover_learns_next_instance(self):
        """§9.2: the new leader learns the most recent not-yet-used
        sequence number from the acceptors."""
        leader1, acceptors = _ready_leader(leader_index=0)
        for i in range(7):
            proposal = leader1.propose(f"v{i}")
            for acceptor in acceptors:
                acceptor.handle_phase2a(proposal)
        leader2, _ = _ready_leader(leader_index=1, acceptors=acceptors)
        assert leader2.next_instance == 8

    def test_takeover_reproposes_highest_round_value(self):
        leader1, acceptors = _ready_leader(leader_index=0)
        proposal = leader1.propose("old-value")
        # only one acceptor voted (no decision)
        acceptors[0].handle_phase2a(proposal)
        leader2 = LeaderState("L1", 1, 3)
        p1a = leader2.start_phase1()
        reproposals = []
        for acceptor in acceptors:
            promise = acceptor.handle_phase1a(p1a)
            reproposals.extend(leader2.handle_phase1b(promise))
        assert any(
            p.instance == proposal.instance and p.value == "old-value"
            for p in reproposals
        )

    def test_rounds_unique_across_leaders(self):
        l0 = LeaderState("L0", 0, 3)
        l1 = LeaderState("L1", 1, 3)
        l0.start_phase1()
        l1.start_phase1()
        assert l0.round != l1.round
        assert l0.round % 16 == 0
        assert l1.round % 16 == 1

    def test_successive_rounds_increase(self):
        leader = LeaderState("L", 0, 3)
        r1 = leader.start_phase1().round
        r2 = leader.start_phase1().round
        assert r2 > r1

    def test_gap_request_fills_noop(self):
        """§9.2: unfilled instances get a no-op."""
        leader, acceptors = _ready_leader()
        leader.propose("a")
        leader.propose("b")
        fill = leader.handle_gap_request(GapRequest(1))
        assert fill is not None and fill.value == "a" or fill.value == NOOP

    def test_gap_request_beyond_assigned_ignored(self):
        leader, _ = _ready_leader()
        assert leader.handle_gap_request(GapRequest(99)) is None

    def test_gap_request_reproposes_recovered_value(self):
        leader1, acceptors = _ready_leader(leader_index=0)
        proposal = leader1.propose("recoverme")
        acceptors[0].handle_phase2a(proposal)
        leader2, _ = _ready_leader(leader_index=1, acceptors=acceptors)
        fill = leader2.handle_gap_request(GapRequest(proposal.instance))
        assert fill.value == "recoverme"

    def test_step_down(self):
        leader, _ = _ready_leader()
        leader.step_down()
        assert leader.propose("v") is None

    def test_leader_index_validated(self):
        with pytest.raises(ProtocolError):
            LeaderState("L", 16, 3)


class TestLearner:
    def test_quorum_decides(self):
        learner = LearnerState("l", 3)
        from repro.apps.paxos import Phase2B

        assert learner.handle_phase2b(Phase2B(16, 1, "a0", "v")) is None
        decision = learner.handle_phase2b(Phase2B(16, 1, "a1", "v"))
        assert decision is not None and decision.value == "v"

    def test_duplicate_votes_not_double_counted(self):
        from repro.apps.paxos import Phase2B

        learner = LearnerState("l", 3)
        assert learner.handle_phase2b(Phase2B(16, 1, "a0", "v")) is None
        assert learner.handle_phase2b(Phase2B(16, 1, "a0", "v")) is None

    def test_in_order_delivery(self):
        from repro.apps.paxos import Phase2B

        learner = LearnerState("l", 1)
        learner.handle_phase2b(Phase2B(16, 2, "a0", "v2"))
        assert learner.deliverable() == []  # waiting for instance 1
        learner.handle_phase2b(Phase2B(16, 1, "a0", "v1"))
        delivered = learner.deliverable()
        assert [d.instance for d in delivered] == [1, 2]

    def test_gap_detection_after_timeout(self):
        from repro.apps.paxos import Phase2B

        learner = LearnerState("l", 1)
        learner.handle_phase2b(Phase2B(16, 3, "a0", "v3"))
        assert learner.gaps(now=0.0, timeout=100.0) == []  # first sight
        gaps = learner.gaps(now=200.0, timeout=100.0)
        assert {g.instance for g in gaps} == {1, 2}

    def test_conflicting_round_values_detected(self):
        from repro.apps.paxos import Phase2B

        learner = LearnerState("l", 3)
        learner.handle_phase2b(Phase2B(16, 1, "a0", "v"))
        with pytest.raises(ProtocolError):
            learner.handle_phase2b(Phase2B(16, 1, "a1", "DIFFERENT"))

    def test_second_quorum_for_another_value_raises(self):
        """A later round's quorum for a different value on a decided
        instance is a safety violation, not a duplicate to ignore."""
        from repro.apps.paxos import Phase2B

        learner = LearnerState("l", 3)
        learner.handle_phase2b(Phase2B(16, 1, "a0", "A"))
        assert learner.handle_phase2b(Phase2B(16, 1, "a1", "A")) is not None
        assert learner.handle_phase2b(Phase2B(32, 1, "a1", "B")) is None
        with pytest.raises(ProtocolError, match="chose two values"):
            learner.handle_phase2b(Phase2B(32, 1, "a2", "B"))

    def test_late_quorum_in_an_earlier_round_raises(self):
        """Round 16 voted "A" once before round 32 chose "B": a second
        round-16 vote completes a quorum for another value."""
        from repro.apps.paxos import Phase2B

        learner = LearnerState("l", 3)
        learner.handle_phase2b(Phase2B(16, 1, "a0", "A"))
        learner.handle_phase2b(Phase2B(32, 1, "a1", "B"))
        assert learner.handle_phase2b(Phase2B(32, 1, "a2", "B")) is not None
        with pytest.raises(ProtocolError, match="chose two values"):
            learner.handle_phase2b(Phase2B(16, 1, "a1", "A"))

    def test_later_quorum_for_the_chosen_value_is_silent(self):
        from repro.apps.paxos import Phase2B

        learner = LearnerState("l", 3)
        learner.handle_phase2b(Phase2B(16, 1, "a0", "A"))
        assert learner.handle_phase2b(Phase2B(16, 1, "a1", "A")) is not None
        for vote in (
            Phase2B(16, 1, "a2", "A"),  # the late third vote
            Phase2B(32, 1, "a0", "A"),  # a re-proposal's quorum
            Phase2B(32, 1, "a1", "A"),
            Phase2B(32, 1, "a2", "A"),
        ):
            assert learner.handle_phase2b(vote) is None
        assert learner.decided == {1: "A"}
        assert [d.instance for d in learner.deliverable()] == [1]

    def test_decided_instances_keep_voters_only_for_conflicting_rounds(self):
        from repro.apps.paxos import Phase2B

        learner = LearnerState("l", 3)
        for acceptor in ("a0", "a1", "a2"):  # decided, every vote arrives
            learner.handle_phase2b(Phase2B(16, 1, acceptor, "A"))
        learner.handle_phase2b(Phase2B(16, 2, "a0", "B"))  # re-proposed as is
        learner.handle_phase2b(Phase2B(32, 2, "a0", "B"))
        learner.handle_phase2b(Phase2B(32, 2, "a1", "B"))
        learner.handle_phase2b(Phase2B(16, 3, "a0", "C"))  # another value
        learner.handle_phase2b(Phase2B(32, 3, "a1", "D"))
        learner.handle_phase2b(Phase2B(32, 3, "a2", "D"))
        learner.handle_phase2b(Phase2B(32, 4, "a0", "E"))  # undecided

        def voter_sets(instance):
            return {
                rnd: voters[instance]
                for rnd, voters in learner._voters.items()
                if instance in voters
            }

        assert learner.decided == {1: "A", 2: "B", 3: "D"}
        assert voter_sets(1) == voter_sets(2) == {}
        assert voter_sets(3) == {16: {"a0"}}  # the round that can still raise
        assert voter_sets(4) == {32: {"a0"}}
        # the per-round values stay for the "two values in round r" check
        with pytest.raises(ProtocolError, match="two values in round 16"):
            learner.handle_phase2b(Phase2B(16, 1, "a0", "other"))


class _FullTallyLearner:
    """The learner before compaction, with the live "chose two values"
    check: every (instance, round) keeps its voters and value forever."""

    def __init__(self, quorum):
        self.quorum = quorum
        self.values = {}
        self.voters = {}
        self.decided = {}

    def handle_phase2b(self, msg):
        key = (msg.instance, msg.round)
        known = self.values.get(key)
        if known is None:
            self.values[key] = msg.value
        elif known != msg.value:
            raise ProtocolError(
                f"two values in round {msg.round} of instance {msg.instance}: "
                f"{known!r} vs {msg.value!r}"
            )
        voters = self.voters.setdefault(key, set())
        voters.add(msg.acceptor)
        if len(voters) < self.quorum:
            return None
        chosen = self.decided.get(msg.instance)
        if chosen is not None:
            if chosen != msg.value:
                raise ProtocolError(
                    f"instance {msg.instance} chose two values: "
                    f"{chosen!r} then {msg.value!r}"
                )
            return None
        self.decided[msg.instance] = msg.value
        return Decision(instance=msg.instance, value=msg.value)


def _outcome(learner, vote):
    try:
        return learner.handle_phase2b(vote)
    except ProtocolError as exc:
        return f"raised: {exc}"


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_compact_learner_answers_every_vote_like_a_full_tally(data):
    """Random votes over a few rounds, instances and values, conflicts
    included: the compact learner returns, decides and raises exactly
    where a learner that forgets nothing does."""
    from repro.apps.paxos import Phase2B

    n_acceptors = data.draw(st.sampled_from([1, 3, 5]), label="n_acceptors")
    compact = LearnerState("l", n_acceptors)
    full = _FullTallyLearner(majority(n_acceptors))
    rounds, instances = (16, 17, 32, 48), (1, 2, 3, 4)
    # each (round, instance) proposes one of two values, so rounds can
    # disagree; a rare stray value breaks the one-value-per-round rule
    proposed = {
        (rnd, instance): data.draw(st.sampled_from("AB"))
        for rnd in rounds
        for instance in instances
    }
    steps = st.tuples(
        st.sampled_from(rounds),
        st.sampled_from(instances),
        st.integers(0, n_acceptors - 1),
        st.integers(0, 30),
    )
    for rnd, instance, acceptor, stray in data.draw(
        st.lists(steps, max_size=60), label="votes"
    ):
        value = "C" if stray == 0 else proposed[rnd, instance]
        vote = Phase2B(rnd, instance, f"a{acceptor}", value)
        want = _outcome(full, vote)
        assert _outcome(compact, vote) == want
        if isinstance(want, str):
            break
    assert compact.decided == full.decided


@given(st.integers(1, 16), st.randoms(use_true_random=True))
@settings(max_examples=150, deadline=None)
def test_windowed_acceptor_reports_what_an_unpruned_one_does(window, rng):
    """Fed ten windows of in-order, out-of-order, gap and late votes, with
    promises in between, a windowed acceptor holds at most two windows
    and every phase-1B report equals an unpruned acceptor's, key order
    included."""
    pruned = AcceptorState("a", recovery_window=window)
    full = AcceptorState("a")  # keeps every vote; the window filters below

    def check_report(rnd):
        got = pruned.handle_phase1a(Phase1A(rnd, "L"))
        want = full.handle_phase1a(Phase1A(rnd, "L"))
        floor = want.last_voted_instance - window
        expected = {i: v for i, v in want.votes.items() if i > floor}
        assert got.votes == expected
        assert list(got.votes) == list(expected)
        assert got.last_voted_instance == want.last_voted_instance

    rnd, top = 16, 0
    for step in range(10 * window):
        kind = rng.choice(["next", "next", "gap", "late", "promise"])
        if kind == "promise":
            rnd += 16
            check_report(rnd)
        if kind == "gap":
            instance = top + rng.randint(2, 2 * window + 2)
        elif kind == "late":
            instance = rng.randint(1, top + 1)
        else:
            instance = top + 1
        top = max(top, instance)
        vote = Phase2A(rnd, instance, f"v{step}")
        assert pruned.handle_phase2a(vote) == full.handle_phase2a(vote)
        assert len(pruned.votes) <= 2 * window
    check_report(rnd + 16)


def test_windowed_acceptor_bounds_a_long_in_order_log():
    acceptor = AcceptorState("a", recovery_window=512)
    for instance in range(1, 5_121):
        acceptor.handle_phase2a(Phase2A(16, instance, f"v{instance}"))
        assert len(acceptor.votes) <= 1_024
    promise = acceptor.handle_phase1a(Phase1A(32, "L"))
    assert list(promise.votes) == list(range(4_609, 5_121))


def test_unwindowed_acceptor_keeps_every_vote():
    acceptor = AcceptorState("a")
    for instance in range(1, 2_001):
        acceptor.handle_phase2a(Phase2A(16, instance, "v"))
    assert len(acceptor.votes) == 2_000
