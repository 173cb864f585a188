"""Paxos message types (after Lamport [42] and P4xos [21]).

Rounds (ballots) are positive integers, partitioned among potential leaders
(round = k * stride + leader_index) so two leaders never share a round.
Instances (the paper's "sequence numbers") are positive integers assigned
by the leader.

§9.2's shift mechanism appears here as ``Phase2B.last_voted_instance`` —
"We extended the acceptor logic to include the last-voted-upon sequence
number whenever the acceptor responds to a message" — and as
:class:`GapRequest`, the learner→leader message asking to re-initiate an
instance with a potential no-op.

Every message but :class:`Phase1B` (sent only at a takeover) is a slotted
frozen dataclass: one is built per protocol message, and the leader's
``proposed`` log, the acceptors' ``votes`` and the learner's ``decided``
map keep the client commands for the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

#: The value proposed to fill gaps (§9.2: "Otherwise, they learn a no-op").
NOOP = "<no-op>"


@dataclass(frozen=True, slots=True)
class ClientCommand:
    """An application command submitted to consensus."""

    client: str
    request_id: int

    def __repr__(self) -> str:
        return f"cmd({self.client}#{self.request_id})"


@dataclass(frozen=True, slots=True)
class ClientRequest:
    """Client → leader: please order this command."""

    command: ClientCommand
    attempt: int = 1  # retry counter (client timeout, Figure 7)


@dataclass(frozen=True, slots=True)
class Phase1A:
    """Leader → acceptors: leadership takeover for all instances."""

    round: int
    leader: str


@dataclass(frozen=True)
class Phase1B:
    """Acceptor → leader: promise.

    ``votes`` reports, per instance the acceptor has voted in, the highest
    (vote round, value) pair — the information the new leader needs to
    re-propose possibly-decided values safely.  ``last_voted_instance`` is
    the §9.2 piggyback.
    """

    round: int
    acceptor: str
    votes: Dict[int, Tuple[int, object]] = field(default_factory=dict)
    last_voted_instance: int = 0


@dataclass(frozen=True, slots=True)
class Phase2A:
    """Leader → acceptors: proposal for one instance."""

    round: int
    instance: int
    value: object


@dataclass(frozen=True, slots=True)
class Phase2B:
    """Acceptor → learners: vote.  Carries the §9.2 piggyback."""

    round: int
    instance: int
    acceptor: str
    value: object
    last_voted_instance: int = 0


@dataclass(frozen=True, slots=True)
class Decision:
    """Learner → client: an instance was decided."""

    instance: int
    value: object


@dataclass(frozen=True, slots=True)
class GapRequest:
    """Learner → leader: re-initiate ``instance`` (§9.2 gap handling)."""

    instance: int
