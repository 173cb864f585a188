"""The resolution table shared by NSD and Emu DNS."""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ...errors import ConfigurationError
from .message import ARecord, DnsQuery, DnsRcode, DnsResponse, validate_name

# bound once for the per-query path (see message.py)
_NOERROR, _NXDOMAIN = DnsRcode.NOERROR, DnsRcode.NXDOMAIN


class ZoneTable:
    """An authoritative name → IPv4 resolution table.

    Emu DNS keeps this table in on-chip memory, which bounds its size
    (§5.3's small-memory trade-off); the software NSD table is effectively
    unbounded.  ``capacity`` models that difference.
    """

    def __init__(self, capacity: Optional[int] = None, name: str = "zone"):
        if capacity is not None and capacity <= 0:
            raise ConfigurationError("capacity must be positive")
        self.capacity = capacity
        self.name = name
        self._records: Dict[str, ARecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, name: str) -> bool:
        return validate_name(name) in self._records

    def add(self, record: ARecord) -> None:
        if (
            self.capacity is not None
            and record.name not in self._records
            and len(self._records) >= self.capacity
        ):
            raise ConfigurationError(
                f"zone {self.name!r} full ({self.capacity} records)"
            )
        self._records[record.name] = record

    def add_many(self, records: Iterable[ARecord]) -> None:
        for record in records:
            self.add(record)

    def remove(self, name: str) -> bool:
        return self._records.pop(validate_name(name), None) is not None

    def lookup(self, name: str) -> Optional[ARecord]:
        return self._records.get(validate_name(name))

    def resolve(self, query: DnsQuery) -> DnsResponse:
        """Authoritative, non-recursive resolution (§3.3)."""
        if query.recursive:
            return DnsResponse(DnsRcode.NOTIMP, query.name, query_id=query.query_id)
        record = self._records.get(query.name)
        if record is None:
            return DnsResponse(_NXDOMAIN, query.name, None, query.query_id)
        return DnsResponse(_NOERROR, query.name, record, query.query_id)
