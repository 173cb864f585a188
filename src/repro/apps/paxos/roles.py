"""Paxos role state machines — pure protocol logic, no transport.

Each handler takes a message and returns the messages to send (or an empty
list), so the same logic runs under the DES deployments, under direct-call
unit tests, and under the hypothesis safety tests (message loss,
duplication, reordering, and leader changes).

Safety argument (standard multi-Paxos):

* rounds are unique per leader (round = k·stride + leader_index);
* an acceptor promises at most one round and never votes below it;
* a new leader reads a majority's votes in phase 1 and re-proposes, for
  every instance with any reported vote, the value of the highest-round
  vote; instances without reported votes are free (no majority can have
  voted for them in a lower round, by quorum intersection);
* learners declare a value chosen only on a majority of phase-2B votes for
  the same (round, instance).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ...errors import ProtocolError
from .messages import (
    ClientRequest,
    Decision,
    GapRequest,
    NOOP,
    Phase1A,
    Phase1B,
    Phase2A,
    Phase2B,
)


def majority(n: int) -> int:
    """Quorum size for ``n`` acceptors."""
    if n <= 0:
        raise ProtocolError("need at least one acceptor")
    return n // 2 + 1


# ---------------------------------------------------------------------------
# Acceptor.
# ---------------------------------------------------------------------------


#: A windowed acceptor lets its vote log reach this many recovery windows
#: before it drops the votes no phase-1B report can carry again.
_PRUNE_WINDOWS = 2


class AcceptorState:
    """One Paxos acceptor.

    ``recovery_window`` bounds how far back the phase-1B vote report goes
    (instances above ``last_voted − window``): the standard log-truncation
    optimization — instances older than the window are checkpointed/decided
    in any real deployment, and reporting the full log would make the §9.2
    leader shift re-propose tens of thousands of settled instances.  The
    safety property tests run with ``recovery_window=None`` (report all).

    What it keeps: the promised round, the last voted instance, and
    ``votes`` (instance → (round, value)).  Without a window that is every
    vote.  With one, a vote at or below ``last_voted − window`` can never
    be reported again, since that floor only rises; once the log holds
    more than ``_PRUNE_WINDOWS`` windows the acceptor keeps only the
    reportable votes, so it holds at most twice the window.  The pruning
    is exact: the kept votes stay in insertion order, so every phase-1B
    report is the dict an unpruned acceptor would send, key order
    included, and a late vote for a dropped instance lands at or below
    the floor, where no report can see it.
    """

    def __init__(self, acceptor_id: str, recovery_window: Optional[int] = None):
        if recovery_window is not None and recovery_window <= 0:
            raise ProtocolError("recovery_window must be positive")
        self.acceptor_id = acceptor_id
        self.recovery_window = recovery_window
        self.promised_round = 0
        #: instance -> (vote round, value)
        self.votes: Dict[int, Tuple[int, object]] = {}
        self.last_voted_instance = 0

    def _reportable_votes(self) -> Dict[int, Tuple[int, object]]:
        if self.recovery_window is None:
            return dict(self.votes)
        floor = self.last_voted_instance - self.recovery_window
        return {i: v for i, v in self.votes.items() if i > floor}

    def handle_phase1a(self, msg: Phase1A) -> Optional[Phase1B]:
        """Promise if the round is new; stale rounds are ignored."""
        if msg.round <= self.promised_round:
            return None
        self.promised_round = msg.round
        return Phase1B(
            round=msg.round,
            acceptor=self.acceptor_id,
            votes=self._reportable_votes(),
            last_voted_instance=self.last_voted_instance,
        )

    def handle_phase2a(self, msg: Phase2A) -> Optional[Phase2B]:
        """Vote unless a higher round was promised."""
        if msg.round < self.promised_round:
            return None
        self.promised_round = msg.round
        self.votes[msg.instance] = (msg.round, msg.value)
        if msg.instance > self.last_voted_instance:
            self.last_voted_instance = msg.instance
        window = self.recovery_window
        if window is not None and len(self.votes) > _PRUNE_WINDOWS * window:
            self.votes = self._reportable_votes()
        return Phase2B(
            msg.round,
            msg.instance,
            self.acceptor_id,
            msg.value,
            self.last_voted_instance,
        )


# ---------------------------------------------------------------------------
# Leader.
# ---------------------------------------------------------------------------

#: Round numbers are partitioned: round = k * ROUND_STRIDE + leader_index.
ROUND_STRIDE = 16


class LeaderState:
    """A multi-Paxos leader/coordinator.

    Lifecycle: construct → :meth:`start_phase1` → feed :meth:`handle_phase1b`
    until ``ready`` → :meth:`propose` client values.  A leader that is not
    ready drops client requests (the paper's Figure 7 shows exactly this as
    the ~100ms throughput gap bridged by the client retry timeout).
    """

    def __init__(self, leader_id: str, leader_index: int, n_acceptors: int):
        if not 0 <= leader_index < ROUND_STRIDE:
            raise ProtocolError(f"leader_index must be in [0,{ROUND_STRIDE})")
        self.leader_id = leader_id
        self.leader_index = leader_index
        self.n_acceptors = n_acceptors
        self.quorum = majority(n_acceptors)
        self.round = 0
        self.next_instance = 1
        self.ready = False
        self._phase1_promises: Dict[str, Phase1B] = {}
        #: values re-proposed during takeover: instance -> value
        self.recovered: Dict[int, object] = {}
        #: every value this leader proposed in its current round.  A Paxos
        #: proposer must propose at most one value per (round, instance);
        #: gap-fill requests therefore *re-transmit* from here rather than
        #: inventing a no-op for an instance already proposed.
        self.proposed: Dict[int, object] = {}
        self.proposals_sent = 0
        self.dropped_not_ready = 0

    # -- phase 1 (takeover) ------------------------------------------------

    def start_phase1(self, round_counter: int = 1) -> Phase1A:
        """Begin leadership at round ``k·stride + index`` for k >= counter."""
        candidate = round_counter * ROUND_STRIDE + self.leader_index
        if candidate <= self.round:
            candidate = (self.round // ROUND_STRIDE + 1) * ROUND_STRIDE + self.leader_index
        self.round = candidate
        self.ready = False
        self._phase1_promises.clear()
        self.proposed.clear()  # a fresh round may propose fresh values
        return Phase1A(round=self.round, leader=self.leader_id)

    def handle_phase1b(self, msg: Phase1B) -> List[Phase2A]:
        """Collect promises; on quorum, recover and become ready.

        Returns the phase-2A re-proposals required for safety (highest-round
        reported value per voted instance).
        """
        if msg.round != self.round or self.ready:
            return []
        self._phase1_promises[msg.acceptor] = msg
        if len(self._phase1_promises) < self.quorum:
            return []
        # Quorum reached: merge vote reports.
        merged: Dict[int, Tuple[int, object]] = {}
        highest_instance = 0
        for promise in self._phase1_promises.values():
            highest_instance = max(highest_instance, promise.last_voted_instance)
            for instance, (vrnd, value) in promise.votes.items():
                seen = merged.get(instance)
                if seen is None or vrnd > seen[0]:
                    merged[instance] = (vrnd, value)
        self.ready = True
        # §9.2: the new leader learns "the most recent not-yet-used sequence
        # number" from the acceptors' piggybacked last-voted instances.
        self.next_instance = highest_instance + 1
        reproposals = []
        for instance in sorted(merged):
            _, value = merged[instance]
            self.recovered[instance] = value
            self.proposed[instance] = value
            reproposals.append(
                Phase2A(round=self.round, instance=instance, value=value)
            )
        self.proposals_sent += len(reproposals)
        return reproposals

    # -- steady state ------------------------------------------------------------

    def propose(self, value: object) -> Optional[Phase2A]:
        """Assign the next instance to ``value``; None while not ready."""
        if not self.ready:
            self.dropped_not_ready += 1
            return None
        proposal = Phase2A(self.round, self.next_instance, value)
        self.proposed[self.next_instance] = value
        self.next_instance += 1
        self.proposals_sent += 1
        return proposal

    def handle_client_request(self, msg: ClientRequest) -> Optional[Phase2A]:
        return self.propose(msg.command)

    def handle_gap_request(self, msg: GapRequest) -> Optional[Phase2A]:
        """Re-initiate an instance a learner reported as a gap (§9.2).

        If this leader already proposed a value for the instance in its
        current round (including takeover re-proposals), it re-transmits
        that value ("If that instance has previously been voted on, then
        the learners will receive a new value"); otherwise a no-op —
        recorded, so any later gap request gets the same answer.
        """
        if not self.ready:
            return None
        if msg.instance >= self.next_instance:
            # never assigned by this leader; nothing to fill
            return None
        value = self.proposed.get(msg.instance)
        if value is None:
            value = NOOP
            self.proposed[msg.instance] = NOOP
        self.proposals_sent += 1
        return Phase2A(round=self.round, instance=msg.instance, value=value)

    def step_down(self) -> None:
        """Stop proposing (the on-demand controller shifted the leader)."""
        self.ready = False


# ---------------------------------------------------------------------------
# Learner.
# ---------------------------------------------------------------------------


class LearnerState:
    """A Paxos learner: declares decisions, delivers in order, finds gaps.

    What it keeps, and why each piece is still read:

    * ``decided`` (instance → chosen value): delivery, gap scans and the
      safety oracle read it;
    * the value of every (round, instance) it has seen a vote for: a
      later vote in that round with another value raises "two values in
      round r";
    * the voters of a (round, instance) while the instance is undecided,
      and after that only for a round whose value differs from the
      chosen one: that is the only round whose quorum can still raise
      "chose two values".  A vote for the chosen value on a decided
      instance is settled at once — whatever round it is in, its quorum
      could only confirm the decision.

    Both maps are keyed by round first: a leader keeps one round for
    thousands of instances, so each vote costs one slot in its round's
    dict rather than a dict of its own.
    """

    def __init__(self, learner_id: str, n_acceptors: int):
        self.learner_id = learner_id
        self.n_acceptors = n_acceptors
        self.quorum = majority(n_acceptors)
        #: round -> instance -> the value voted in that round
        self._round_values: Dict[int, Dict[int, object]] = {}
        #: round -> instance -> acceptors that voted (see the class doc)
        self._voters: Dict[int, Dict[int, Set[str]]] = {}
        self.decided: Dict[int, object] = {}
        self.delivered_upto = 0
        self.max_decided = 0
        #: time (supplied by the caller) when each undelivered gap was first
        #: observed; used by the gap timeout
        self._gap_seen_at: Dict[int, float] = {}

    def handle_phase2b(self, msg: Phase2B) -> Optional[Decision]:
        """Count a vote; returns a Decision on fresh quorum, else None."""
        instance, rnd, value = msg.instance, msg.round, msg.value
        values = self._round_values.get(rnd)
        if values is None:
            values = self._round_values[rnd] = {}
        known = values.get(instance)
        if known is None:
            values[instance] = value
        elif known != value:
            raise ProtocolError(
                f"two values in round {rnd} of instance {instance}: "
                f"{known!r} vs {value!r}"
            )
        decided = self.decided
        if instance in decided and decided[instance] == value:
            return None
        voters_by_instance = self._voters.get(rnd)
        if voters_by_instance is None:
            voters_by_instance = self._voters[rnd] = {}
        voters = voters_by_instance.get(instance)
        if voters is None:
            voters = voters_by_instance[instance] = {msg.acceptor}
        else:
            voters.add(msg.acceptor)
        if len(voters) < self.quorum:
            return None
        if instance in decided:
            raise ProtocolError(
                f"instance {instance} chose two values: "
                f"{decided[instance]!r} then {value!r}"
            )
        decided[instance] = value
        for r, by_instance in self._voters.items():
            if instance in by_instance and self._round_values[r][instance] == value:
                del by_instance[instance]
        if instance > self.max_decided:
            self.max_decided = instance
        return Decision(instance, value)

    # -- in-order delivery ----------------------------------------------------

    def deliverable(self) -> List[Decision]:
        """Decisions that extend the contiguous prefix, in order."""
        out = []
        while (self.delivered_upto + 1) in self.decided:
            self.delivered_upto += 1
            out.append(
                Decision(self.delivered_upto, self.decided[self.delivered_upto])
            )
        return out

    # -- gap detection (§9.2) -------------------------------------------------

    def gaps(self, now: float, timeout: float) -> List[GapRequest]:
        """Instances below ``max_decided`` still undecided after ``timeout``.

        "The learner will look for gaps in instance numbers after a time-out
        period.  If it discovers a gap, then it will send a message to the
        newly elected leader, asking it to re-initiate that instance."
        """
        requests = []
        for instance in range(self.delivered_upto + 1, self.max_decided):
            if instance in self.decided:
                continue
            first_seen = self._gap_seen_at.setdefault(instance, now)
            if now - first_seen >= timeout:
                requests.append(GapRequest(instance))
                self._gap_seen_at[instance] = now  # back off: re-ask later
        return requests
