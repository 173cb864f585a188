"""KVS wire protocol (a memcached-like UDP request/response).

LaKe "supports standard memcached functionality" (§3.1); we model the
subset the workloads exercise: GET / SET / DELETE over UDP with small keys
and values (the Facebook ETC workload the paper replays is dominated by
small objects).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ...errors import ProtocolError


class KvsOp(enum.Enum):
    GET = "get"
    SET = "set"
    DELETE = "delete"


class KvsStatus(enum.Enum):
    HIT = "hit"
    MISS = "miss"
    STORED = "stored"
    DELETED = "deleted"
    NOT_FOUND = "not_found"


# Enum members bound once for the per-request constructors below: on 3.10
# and 3.11 reading a member off its class costs ~150 ns, a global ~15 ns.
# The client and memcached bind the members they use the same way.
_SET = KvsOp.SET
_HIT = KvsStatus.HIT
_NO_VALUE = (KvsStatus.MISS, KvsStatus.NOT_FOUND)


@dataclass(frozen=True, init=False)
class KvsRequest:
    """A client request.

    One is built per generated request, so ``__init__`` is hand-written:
    it validates, then fills ``__dict__`` in one update instead of one
    frozen ``object.__setattr__`` per field plus a ``__post_init__`` call.
    """

    op: KvsOp
    key: str
    value: Optional[bytes] = None
    request_id: int = 0

    def __init__(
        self,
        op: KvsOp,
        key: str,
        value: Optional[bytes] = None,
        request_id: int = 0,
    ):
        if not key:
            raise ProtocolError("empty key")
        if len(key) > 250:
            raise ProtocolError("key exceeds memcached's 250-byte limit")
        if op is _SET and value is None:
            raise ProtocolError("SET requires a value")
        if op is not _SET and value is not None:
            raise ProtocolError(f"{op.value} must not carry a value")
        self.__dict__.update(op=op, key=key, value=value, request_id=request_id)

    @property
    def size_bytes(self) -> int:
        """Approximate datagram size: headers + key (+ value)."""
        size = 48 + len(self.key)
        if self.value is not None:
            size += len(self.value)
        return size


@dataclass(frozen=True, init=False)
class KvsResponse:
    """A server response (hand-written ``__init__`` like
    :class:`KvsRequest`: one is built per served request)."""

    status: KvsStatus
    key: str
    value: Optional[bytes] = None
    request_id: int = 0
    #: which layer served it: "l1", "l2", "software" (observability; the
    #: Figure 6 latency series distinguishes hardware hits from misses)
    served_by: str = "software"

    def __init__(
        self,
        status: KvsStatus,
        key: str,
        value: Optional[bytes] = None,
        request_id: int = 0,
        served_by: str = "software",
    ):
        if status is _HIT and value is None:
            raise ProtocolError("HIT response requires a value")
        if status in _NO_VALUE and value is not None:
            raise ProtocolError(f"{status.value} must not carry a value")
        self.__dict__.update(
            status=status,
            key=key,
            value=value,
            request_id=request_id,
            served_by=served_by,
        )
