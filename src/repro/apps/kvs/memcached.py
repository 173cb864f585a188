"""Software memcached.

The §4.2 baseline: memcached v1.5.1 on the i7, peaking around 1 Mpps across
4 cores, with service latency ~15µs median at low load (§5.3's ×10 claim
against LaKe's 1.4µs on-chip hit).  It is also the backing store behind
LaKe's miss path ("In the event of cache misses at both levels, the
software services the request").
"""

from __future__ import annotations

from typing import Optional

from ... import calibration as cal
from ...net.packet import Packet
from ...sim import Simulator
from ..common import SoftwareService
from .protocol import KvsOp, KvsRequest, KvsResponse, KvsStatus
from .store import LruStore

#: Entries held by the software store; effectively unbounded relative to the
#: workloads we replay (the host has 64GB RAM, §4.1).
SOFTWARE_STORE_ENTRIES = 10_000_000

# bound once for the per-request path (see protocol.py)
_GET, _SET = KvsOp.GET, KvsOp.SET
_HIT, _MISS, _STORED = KvsStatus.HIT, KvsStatus.MISS, KvsStatus.STORED


class SoftwareMemcached(SoftwareService):
    """Memcached running on a host server."""

    def __init__(
        self,
        sim: Simulator,
        server,
        capacity_pps: Optional[float] = None,
        cores: Optional[float] = None,
        store_entries: int = SOFTWARE_STORE_ENTRIES,
        app_name: str = "memcached",
    ):
        if capacity_pps is None:
            nic = server.nic
            capacity_pps = (
                nic.host_peak_pps if nic is not None else cal.MEMCACHED_PEAK_PPS_MELLANOX
            )
        if cores is None:
            cores = float(server.cpu.total_cores)
        super().__init__(
            sim,
            server,
            app_name,
            capacity_pps=capacity_pps,
            cores=cores,
            extra_latency_us=cal.MEMCACHED_STACK_US,
        )
        self.store = LruStore(store_entries, name=f"{app_name}.store")

    # -- request handling -------------------------------------------------------

    def handle_request(self, packet: Packet) -> KvsResponse:
        request = packet.payload
        if not isinstance(request, KvsRequest):
            raise TypeError(f"memcached got non-KVS payload: {request!r}")
        return self.execute(request)

    def execute(self, request: KvsRequest) -> KvsResponse:
        """Protocol logic, callable directly (used by LaKe's miss path and
        by functional tests without the DES)."""
        op = request.op
        if op is _GET:
            value = self.store.get(request.key)
            if value is None:
                return KvsResponse(_MISS, request.key, None, request.request_id)
            return KvsResponse(_HIT, request.key, value, request.request_id)
        if op is _SET:
            self.store.set(request.key, request.value)
            return KvsResponse(_STORED, request.key, None, request.request_id)
        # DELETE
        existed = self.store.delete(request.key)
        status = KvsStatus.DELETED if existed else KvsStatus.NOT_FOUND
        return KvsResponse(status, request.key, request_id=request.request_id)
