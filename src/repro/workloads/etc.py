"""The Facebook "ETC" key-value workload (Atikoglu et al. [7]).

§9.2 drives the Figure 6 transition experiment with "a mutilate based
memcached client, using the Facebook 'ETC' arrival distribution".  The
published characteristics we reproduce:

* key popularity is heavily skewed (Zipf-like; a small fraction of keys
  receives most requests — the paper's §5.3 cites 3%–35% unique keys
  requested per hour);
* values are small (tens to hundreds of bytes dominate);
* the mix is read-dominated (ETC is ~97% GET).
"""

from __future__ import annotations

import hashlib
import math
import random
import zlib
from array import array
from itertools import islice
from typing import Iterator, List

from ..errors import ConfigurationError
from ..floats import left_sum
from ..net.classifier import key_shard


class ZipfSampler:
    """Zipf(s) over ranks 1..n with O(1) amortized sampling.

    Uses the rejection-inversion method of Hörmann & Derflinger, which is
    exact for the Zipf distribution and avoids materializing the CDF (the
    keyspaces here reach millions of keys).
    """

    def __init__(self, n: int, s: float, rng: random.Random):
        if n < 1:
            raise ConfigurationError("n must be >= 1")
        if s <= 0 or s == 1.0:
            # s=1 has a removable singularity in H below; nudge it.
            s = 1.0000001 if s == 1.0 else s
        if s <= 0:
            raise ConfigurationError("s must be positive")
        self.n = n
        self.s = s
        self._rng = rng
        self._h_x1 = self._h(1.5) - 1.0
        self._h_n = self._h(n + 0.5)
        # hot-path constants (hoisted out of sample(); identical floats to
        # the expressions they replace, so the accept/reject decisions — and
        # therefore the RNG draw sequence — are unchanged)
        self._one_minus_s = 1.0 - self.s
        self._inv_one_minus_s = 1.0 / (1.0 - self.s)
        self._span = self._h_x1 - self._h_n
        #: rank -> acceptance threshold h(k+0.5) - k^-s.  The Zipf skew
        #: concentrates samples on a few ranks, so this stays small and
        #: hits almost always.
        self._accept: dict = {}

    def _h(self, x: float) -> float:
        return (x ** (1.0 - self.s)) / (1.0 - self.s)

    def sample(self) -> int:
        """A rank in 1..n, rank 1 most popular."""
        rand = self._rng.random
        h_n = self._h_n
        span = self._span
        oms = self._one_minus_s
        inv = self._inv_one_minus_s
        n = self.n
        accept = self._accept
        while True:
            u = h_n + rand() * span
            x = (u * oms) ** inv
            k = int(x + 0.5)
            if k < 1:
                k = 1
            elif k > n:
                k = n
            if k - x <= 1.0:
                return k
            threshold = accept.get(k)
            if threshold is None:
                threshold = ((k + 0.5) ** oms) / oms - math.exp(
                    -self.s * math.log(k)
                )
                accept[k] = threshold
            if u >= threshold:
                return k


#: ETC value-size distribution: (upper bound bytes, cumulative probability).
#: A coarse fit of the Atikoglu et al. ETC size CDF: dominated by <320B.
_ETC_VALUE_SIZE_CDF = [
    (16, 0.10),
    (32, 0.30),
    (64, 0.55),
    (128, 0.75),
    (320, 0.90),
    (1024, 0.97),
    (4096, 1.00),
]


#: One value object per size class, built once: values are immutable and
#: only their length matters, so every store, SET request and preload
#: shares these seven objects instead of holding a copy per key.
_ETC_VALUES = [(cum, b"v" * size) for size, cum in _ETC_VALUE_SIZE_CDF]


def _sample_value(rng: random.Random) -> bytes:
    """One ETC-distributed value (shared by the full and sharded workloads).

    Draws exactly one ``rng.random()`` per value.
    """
    u = rng.random()
    for cum, value in _ETC_VALUES:
        if u <= cum:
            return value
    return _ETC_VALUES[-1][1]  # pragma: no cover


class EtcWorkload:
    """Key/value/op samplers with ETC-like statistics."""

    GET_FRACTION = 0.97

    def __init__(
        self,
        keyspace: int = 1_000_000,
        zipf_s: float = 0.99,
        seed: int = 7,
    ):
        if keyspace < 1:
            raise ConfigurationError("keyspace must be >= 1")
        self._rng = random.Random(seed)
        self._zipf = ZipfSampler(keyspace, zipf_s, self._rng)
        self.keyspace = keyspace

    # -- samplers (pass directly to the clients) ----------------------------

    def key(self) -> str:
        return f"key:{self._zipf.sample():08d}"

    def value(self) -> bytes:
        return _sample_value(self._rng)

    @property
    def set_fraction(self) -> float:
        return 1.0 - self.GET_FRACTION

    @property
    def rng(self) -> random.Random:
        return self._rng

    # -- warm-up helpers -----------------------------------------------------

    def hot_keys(self, count: int) -> List[str]:
        """The ``count`` most popular keys (for preloading stores)."""
        if count < 0:
            raise ConfigurationError("count must be >= 0")
        return [f"key:{rank:08d}" for rank in range(1, min(count, self.keyspace) + 1)]

    def preload(self, store_set, count: int) -> None:
        """Populate a store with the hot keys via ``store_set(key, value)``."""
        for key in self.hot_keys(count):
            store_set(key, self.value())


class EtcShardStream:
    """One shard's slice of a :class:`ShardedEtcWorkload`.

    Draws from its own Zipf sampler over the *global* keyspace and
    rejection-filters to the keys this shard owns, so each host sees the
    global popularity skew restricted to its shard, with an independent
    deterministic RNG (adding a host does not perturb the others).
    """

    def __init__(self, parent: "ShardedEtcWorkload", shard: int, seed: int):
        self.parent = parent
        self.shard = shard
        self._rng = random.Random(seed)
        self._zipf = ZipfSampler(parent.keyspace, parent.zipf_s, self._rng)

    def key(self) -> str:
        """A key owned by this shard, global-Zipf-distributed within it."""
        # The rejection-inversion loop from ZipfSampler.sample is inlined:
        # the shard filter rejects ~(n_shards-1)/n_shards of draws, so the
        # loop body runs many times per key and per-call overhead dominates.
        # Float expressions and RNG call order are identical to sample().
        zipf = self._zipf
        rand = zipf._rng.random
        h_n = zipf._h_n
        span = zipf._span
        oms = zipf._one_minus_s
        inv = zipf._inv_one_minus_s
        n = zipf.n
        s = zipf.s
        accept = zipf._accept
        accept_get = accept.get
        cache = self.parent._rank_cache
        cache_get = cache.get
        n_shards = self.parent.n_shards
        shard = self.shard
        while True:
            u = h_n + rand() * span
            x = (u * oms) ** inv
            k = int(x + 0.5)
            if k < 1:
                k = 1
            elif k > n:
                k = n
            if k - x > 1.0:
                threshold = accept_get(k)
                if threshold is None:
                    threshold = ((k + 0.5) ** oms) / oms - math.exp(
                        -s * math.log(k)
                    )
                    accept[k] = threshold
                if u < threshold:
                    continue
            entry = cache_get(k)
            if entry is None:
                key = f"key:{k:08d}"
                entry = (key, key_shard(key, n_shards))
                cache[k] = entry
            if entry[1] == shard:
                return entry[0]

    def value(self) -> bytes:
        return _sample_value(self._rng)

    @property
    def set_fraction(self) -> float:
        return 1.0 - EtcWorkload.GET_FRACTION

    @property
    def rng(self) -> random.Random:
        return self._rng

    def preload(self, store_set, count: int = 0) -> None:
        """Populate a host store with this shard's keys (hottest first)."""
        for key in self.parent.shard_keys(self.shard, count or self.parent.keyspace):
            store_set(key, self.value())


#: ``zlib.crc32`` of ``key:{rank:08d}`` for ranks 1, 2, … (rank ``r`` at
#: index ``r - 1``): ``crc % n_shards`` is the key's
#: :func:`~repro.net.classifier.key_shard` for any shard count.  A key's
#: spelling does not depend on the keyspace, so one table serves every
#: keyspace in the process; it grows as far as any scan has read, four
#: bytes a key, and forked workers inherit it.
_KEY_CRCS = array("I")


def _key_crcs(n: int) -> Iterator[int]:
    """The CRCs of ranks 1..``n`` in rank order.  The table grows only as
    far as the caller reads, in doubling chunks, so a scan that stops at
    a shard's first key leaves the rest of a large keyspace unhashed."""
    lo = 0
    while lo < n:
        hi = min(n, max(2 * lo, 1024))
        if len(_KEY_CRCS) < hi:
            _KEY_CRCS.extend(
                zlib.crc32(f"key:{rank:08d}".encode())
                for rank in range(len(_KEY_CRCS) + 1, hi + 1)
            )
        yield from islice(_KEY_CRCS, lo, hi)
        lo = hi


class ShardedEtcWorkload:
    """The ETC workload split across a rack of N KVS hosts by key shard.

    Shard ownership is :func:`repro.net.classifier.key_shard` over the key
    string — the same mapping the ToR's :class:`KeyShardRouter` uses — so
    a request generated for shard *i* is guaranteed to be routed to host
    *i*'s store, which was preloaded with exactly those keys.  The
    keyspace-wide helpers read it off the shared CRC table instead of
    hashing every key again.
    """

    def __init__(
        self,
        keyspace: int = 1_000_000,
        n_shards: int = 8,
        zipf_s: float = 0.99,
        seed: int = 7,
    ):
        if keyspace < 1:
            raise ConfigurationError("keyspace must be >= 1")
        if n_shards < 1:
            raise ConfigurationError("n_shards must be >= 1")
        self.keyspace = keyspace
        self.n_shards = n_shards
        self.zipf_s = zipf_s
        self.seed = seed
        #: rank -> (key string, owning shard), shared by all shard streams
        #: (ownership depends only on the rank and the shard count)
        self._rank_cache: dict = {}

    # -- shard topology ------------------------------------------------------

    def shard_of(self, key: str) -> int:
        return key_shard(key, self.n_shards)

    def shard_keys(self, shard: int, count: int) -> List[str]:
        """Up to ``count`` keys owned by ``shard``, most popular first."""
        self._check_shard(shard)
        n_shards = self.n_shards
        keys = []
        for rank, crc in enumerate(_key_crcs(self.keyspace), 1):
            if crc % n_shards == shard:
                keys.append(f"key:{rank:08d}")
                if len(keys) >= count:
                    break
        return keys

    def shard_weights(self, max_rank: int = 200_000) -> List[float]:
        """Traffic fraction per shard under the global Zipf popularity.

        Sums the (unnormalized) Zipf pmf ``rank**-s`` per owning shard over
        the first ``min(keyspace, max_rank)`` ranks, then normalizes; used
        to split a rack's total offered rate into per-host client rates.
        """
        n_shards = self.n_shards
        exponent = -self.zipf_s
        n = min(self.keyspace, max_rank)
        weights = [0.0] * n_shards
        for rank, crc in enumerate(_key_crcs(n), 1):
            weights[crc % n_shards] += rank ** exponent
        total = left_sum(weights)
        return [w / total for w in weights]

    # -- per-shard streams ---------------------------------------------------

    def stream(self, shard: int) -> EtcShardStream:
        """The independent key/value sampler for one shard."""
        self._check_shard(shard)
        # Guard the rejection sampler: a shard owning zero keys would make
        # EtcShardStream.key() spin forever (possible when the keyspace is
        # tiny relative to the shard count).
        if not self.shard_keys(shard, 1):
            raise ConfigurationError(
                f"shard {shard} owns no keys (keyspace={self.keyspace}, "
                f"n_shards={self.n_shards}); grow the keyspace or shrink the rack"
            )
        digest = hashlib.sha256(f"{self.seed}:etc-shard:{shard}".encode()).digest()
        return EtcShardStream(self, shard, int.from_bytes(digest[:8], "big"))

    def _check_shard(self, shard: int) -> None:
        if not 0 <= shard < self.n_shards:
            raise ConfigurationError(
                f"shard {shard} outside [0, {self.n_shards})"
            )
