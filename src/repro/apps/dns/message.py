"""DNS message model (the subset Emu DNS supports, §3.3).

Non-recursive A-record queries only: name → IPv4.  Names are validated to
the DNS label rules that matter for a resolution table (length limits,
non-empty labels).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from ...errors import ProtocolError

MAX_NAME_LENGTH = 253
MAX_LABEL_LENGTH = 63


@lru_cache(maxsize=8192)
def validate_name(name: str) -> str:
    """Normalize and validate a DNS name; returns the lowercase form.

    Memoized: a zone's names (at most 4,096 on Emu) and its out-of-zone
    misses are validated once each, and every query for them is answered
    from the cache.  A name that fails raises, and is not cached, so it
    raises every time.
    """
    if not name:
        raise ProtocolError("empty DNS name")
    normalized = name.rstrip(".").lower()
    if len(normalized) > MAX_NAME_LENGTH:
        raise ProtocolError(f"name exceeds {MAX_NAME_LENGTH} bytes: {name!r}")
    for label in normalized.split("."):
        if not label:
            raise ProtocolError(f"empty label in {name!r}")
        if len(label) > MAX_LABEL_LENGTH:
            raise ProtocolError(f"label exceeds {MAX_LABEL_LENGTH} bytes: {label!r}")
    return normalized


class DnsRcode(enum.Enum):
    NOERROR = 0
    NXDOMAIN = 3     # "cannot resolve the name" (§3.3)
    NOTIMP = 4       # e.g. recursive queries, unsupported types


# bound once for the per-query constructor below: on 3.10 and 3.11 reading
# an enum member off its class costs ~150 ns, a module global ~15 ns
_NOERROR = DnsRcode.NOERROR


@dataclass(frozen=True)
class ARecord:
    """An address record in the zone."""

    name: str
    ipv4: str
    ttl: int = 300

    def __post_init__(self):
        object.__setattr__(self, "name", validate_name(self.name))
        parts = self.ipv4.split(".")
        if len(parts) != 4 or not all(p.isdigit() and 0 <= int(p) <= 255 for p in parts):
            raise ProtocolError(f"invalid IPv4 address {self.ipv4!r}")
        if self.ttl < 0:
            raise ProtocolError("negative TTL")


@dataclass(frozen=True, init=False)
class DnsQuery:
    """A client query.

    One is built per query, so ``__init__`` is hand-written, like
    :class:`~repro.apps.kvs.protocol.KvsRequest`'s: it validates, then fills
    ``__dict__`` in one update.
    """

    name: str
    query_id: int = 0
    recursive: bool = False

    def __init__(self, name: str, query_id: int = 0, recursive: bool = False):
        self.__dict__.update(
            name=validate_name(name), query_id=query_id, recursive=recursive
        )

    @property
    def size_bytes(self) -> int:
        return 40 + len(self.name)


@dataclass(frozen=True, init=False)
class DnsResponse:
    """A server response (hand-written ``__init__`` like
    :class:`DnsQuery`: one is built per served query)."""

    rcode: DnsRcode
    name: str
    record: Optional[ARecord] = None
    query_id: int = 0

    def __init__(
        self,
        rcode: DnsRcode,
        name: str,
        record: Optional[ARecord] = None,
        query_id: int = 0,
    ):
        if rcode is _NOERROR and record is None:
            raise ProtocolError("NOERROR response requires a record")
        if rcode is not _NOERROR and record is not None:
            raise ProtocolError(f"{rcode.name} must not carry a record")
        self.__dict__.update(
            rcode=rcode, name=name, record=record, query_id=query_id
        )
