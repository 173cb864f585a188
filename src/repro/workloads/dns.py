"""DNS query workloads — the anycast rack's name streams.

A rack's authoritative DNS service (§3.3) answers for one zone from every
host: the replicas are identical, and the ToR spreads queries by qname hash
(:meth:`repro.net.classifier.KeyShardRouter.for_qnames`).  The workload
side mirrors :class:`repro.workloads.etc.ShardedEtcWorkload`: one global
Zipf popularity over the zone's names, split into independent per-host
streams that generate only the names the qname hash routes to their host —
so each client's slice is exactly the traffic its host will serve, and the
offered rate can be divided by the shards' popularity weights.
"""

from __future__ import annotations

import hashlib
import random
from typing import List

from ..apps.dns.message import ARecord
from ..errors import ConfigurationError
from ..floats import left_sum
from ..net.classifier import key_shard
from .etc import ZipfSampler


class DnsNameWorkload:
    """Zipf-popular queries over a synthetic rack-service zone.

    Names are ``svc<rank>.<domain>`` with rank 1 most popular;
    ``miss_fraction`` of queries ask for names beyond the zone (answered
    NXDOMAIN, §3.3: "cannot resolve the name").
    """

    def __init__(
        self,
        n_names: int = 1_000,
        zipf_s: float = 0.99,
        seed: int = 7,
        domain: str = "rack.dc.example",
        miss_fraction: float = 0.0,
    ):
        if n_names < 1:
            raise ConfigurationError("n_names must be >= 1")
        if not 0.0 <= miss_fraction < 1.0:
            raise ConfigurationError("miss_fraction must be in [0, 1)")
        self.n_names = n_names
        self.zipf_s = zipf_s
        self.domain = domain
        self.miss_fraction = miss_fraction
        self._rng = random.Random(seed)
        self._zipf = ZipfSampler(n_names, zipf_s, self._rng)

    def name_of_rank(self, rank: int) -> str:
        return f"svc{rank:06d}.{self.domain}"

    def name(self) -> str:
        """One query name (the sampler handed to a client)."""
        if self.miss_fraction and self._rng.random() < self.miss_fraction:
            return self.name_of_rank(self.n_names + self._rng.randrange(1, 1000))
        return self.name_of_rank(self._zipf.sample())

    def records(self) -> List[ARecord]:
        """The zone's A records (every anycast replica loads all of them)."""
        return [
            ARecord(
                self.name_of_rank(rank),
                f"10.{(rank >> 16) & 255}.{(rank >> 8) & 255}.{rank & 255}",
            )
            for rank in range(1, self.n_names + 1)
        ]


class DnsShardStream:
    """One host's slice of a :class:`ShardedDnsWorkload`.

    Draws from its own Zipf sampler over the *global* name popularity and
    rejection-filters to the qnames the ToR routes to this host, with an
    independent deterministic RNG per shard.
    """

    def __init__(self, parent: "ShardedDnsWorkload", shard: int, seed: int):
        self.parent = parent
        self.shard = shard
        self._rng = random.Random(seed)
        self._zipf = ZipfSampler(parent.n_names, parent.zipf_s, self._rng)

    def name(self) -> str:
        parent = self.parent
        cache = parent._rank_cache
        while True:
            if parent.miss_fraction and self._rng.random() < parent.miss_fraction:
                # out-of-zone names hash to shards like any other qname
                rank = parent.n_names + self._rng.randrange(1, 1000)
            else:
                rank = self._zipf.sample()
            entry = cache.get(rank)
            if entry is None:
                qname = parent.name_of_rank(rank)
                entry = cache[rank] = (qname, key_shard(qname, parent.n_shards))
            if entry[1] == self.shard:
                return entry[0]


class ShardedDnsWorkload(DnsNameWorkload):
    """The DNS query stream split across N anycast hosts by qname hash.

    Shard ownership is :func:`repro.net.classifier.key_shard` over the
    query name — the same mapping the ToR's qname router uses — so a query
    generated for shard *i* is guaranteed to be steered to host *i*.
    Unlike the KVS split, every host still holds the whole zone; only the
    *traffic* is partitioned.
    """

    def __init__(
        self,
        n_names: int = 1_000,
        n_shards: int = 2,
        zipf_s: float = 0.99,
        seed: int = 7,
        domain: str = "rack.dc.example",
        miss_fraction: float = 0.0,
    ):
        if n_shards < 1:
            raise ConfigurationError("n_shards must be >= 1")
        super().__init__(
            n_names=n_names,
            zipf_s=zipf_s,
            seed=seed,
            domain=domain,
            miss_fraction=miss_fraction,
        )
        self.n_shards = n_shards
        self.seed = seed
        #: rank -> (qname, owning shard), shared by all shard streams: the
        #: rejection loop draws about n_shards names per query, and each
        #: would otherwise be formatted and hashed again
        self._rank_cache: dict = {}

    def shard_of(self, qname: str) -> int:
        return key_shard(qname, self.n_shards)

    def shard_weights(self) -> List[float]:
        """Traffic fraction per shard under the global Zipf popularity."""
        weights = [0.0] * self.n_shards
        for rank in range(1, self.n_names + 1):
            p = rank ** (-self.zipf_s)
            weights[self.shard_of(self.name_of_rank(rank))] += p
        total = left_sum(weights)
        return [w / total for w in weights]

    def stream(self, shard: int) -> DnsShardStream:
        """The independent name sampler for one shard."""
        if not 0 <= shard < self.n_shards:
            raise ConfigurationError(f"shard {shard} outside [0, {self.n_shards})")
        if not any(
            self.shard_of(self.name_of_rank(rank)) == shard
            for rank in range(1, self.n_names + 1)
        ):
            raise ConfigurationError(
                f"shard {shard} owns no names (n_names={self.n_names}, "
                f"n_shards={self.n_shards}); grow the zone or shrink the rack"
            )
        digest = hashlib.sha256(f"{self.seed}:dns-shard:{shard}".encode()).digest()
        return DnsShardStream(self, shard, int.from_bytes(digest[:8], "big"))
