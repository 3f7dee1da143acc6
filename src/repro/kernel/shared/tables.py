"""Cross-round action-table reuse: a bounded in-memory table pool.

The streamed kernel re-lowers every chunk it evaluates — guard masks
and digit deltas are recomputed from the closures each time
:meth:`~.kernel.SharedKernel.iter_actions` sees a code batch.  That is
the memory/compute trade the engine is built on, but the fixpoints
walk the *same* member chunks repeatedly: the terminal sweep and the
peel's graph build iterate one region back to back, the worst-case
phase re-runs the cycle peel, and small cores re-enter the Jacobi
rounds with identical chunks.  Re-lowering those is pure waste.

:class:`TablePool` caches the lowered per-action results per chunk:

* **key** — a BLAKE2b digest of the chunk's code bytes.  A hit is
  *verified* by comparing the stored codes against the queried chunk
  byte for byte, so a digest collision degrades to a miss instead of a
  wrong table — byte-identity of verdicts never rests on a hash;
* **payload** — three arrays per entry: the codes (for verification),
  the per-action digit deltas in the run's storage dtype (see
  :mod:`.width`), and the per-action guard masks packed to one bit per
  code;
* **bound & scan resistance** — resident bytes are capped (a quarter
  of the budget), and the policy is built for the engine's access
  pattern: long sequential sweeps over regions that may dwarf the cap.
  Plain LRU *floods* under that pattern (every entry is evicted before
  its next use — measured zero hits and pure overhead), so admission
  is gated on a **ghost digest**: a chunk is only admitted once its
  digest has already missed before (one-shot frontier chunks never pay
  the packing cost, recurring region chunks are admitted on their
  second sweep), and a full pool *freezes* instead of rotating — the
  resident prefix of the region keeps hitting on every later sweep.
  Eviction exists but is conservative: only entries that have never
  been hit may be evicted, and only for a candidate that has already
  missed three times (provably recurring), so a hot resident is never
  sacrificed to the scan that is flooding past it.  Entries larger
  than the cap are simply not admitted.

Counters: ``kernel.tables.hits`` / ``kernel.tables.misses`` /
``kernel.tables.evictions``, plus ``kernel.tables.hit_codes`` — the
number of codes served from cache instead of re-lowered, the pool's
deterministic work-elimination metric (a verified hit is 5–7× cheaper
than fresh lowering at production chunk sizes, but wall-clock impact
depends on how much of a phase is lowering-bound).  Only the shared
engine has a pool, so they are deliberately *not* part of the
cross-engine counter-identity set.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ...obs import NULL_INSTRUMENTATION, Instrumentation

__all__ = ["TablePool"]

ActionTable = Tuple[np.ndarray, np.ndarray]

#: Ghost digests remembered for admission control.  16 bytes of key and
#: a small int each — the whole structure stays tiny.
GHOST_CAP = 8192

#: A digest must have missed this many times before it may be admitted
#: at all (second sweep), and this many before it may *evict* for room
#: (third sweep — provably recurring, not a passing scan).
ADMIT_MISSES = 2
EVICT_MISSES = 3


class _Entry:
    """One cached chunk: its codes, deltas and packed masks."""

    __slots__ = ("codes", "deltas", "masks", "nbytes", "hits")

    def __init__(self, codes: np.ndarray, deltas: np.ndarray, masks: np.ndarray):
        self.codes = codes
        self.deltas = deltas
        self.masks = masks
        self.nbytes = codes.nbytes + deltas.nbytes + masks.nbytes
        self.hits = 0


class _Probe:
    """One chunk's narrowed codes and digest, hashed exactly once.

    :meth:`TablePool.lookup` hands this to the caller so the admission
    path (:meth:`TablePool.filling`) does not rehash what the lookup
    already paid for.
    """

    __slots__ = ("stored", "key")

    def __init__(self, stored: np.ndarray, key: bytes):
        self.stored = stored
        self.key = key


class TablePool:
    """A bounded LRU of lowered per-chunk action tables.

    Args:
        cap_bytes: resident ceiling for all entries together.
        dtype: the run's code storage dtype (:func:`~.width.code_dtype`
            under packing, int64 otherwise); deltas fit it because
            ``|succ - code| < size``.
    """

    def __init__(
        self,
        cap_bytes: int,
        dtype: np.dtype,
        instrumentation: Instrumentation = NULL_INSTRUMENTATION,
    ):
        self._cap = max(1 << 16, cap_bytes)
        self._dtype = np.dtype(dtype)
        self._obs = instrumentation
        self._entries: "OrderedDict[bytes, _Entry]" = OrderedDict()
        self._ghosts: "OrderedDict[bytes, int]" = OrderedDict()
        self._bytes = 0
        self._closed = False

    @property
    def resident_bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    # -- keying --------------------------------------------------------

    def _key(self, stored: np.ndarray) -> bytes:
        digest = hashlib.blake2b(digest_size=16)
        digest.update(stored.tobytes())
        return digest.digest()

    def _stored_form(self, codes: np.ndarray) -> np.ndarray:
        # Codes are < size, so narrowing to the storage dtype is
        # lossless; the narrow form is both the key material and the
        # collision-verification payload.
        return np.ascontiguousarray(codes.astype(self._dtype, copy=False))

    # -- lookup --------------------------------------------------------

    def get(self, codes: np.ndarray) -> Optional[List[ActionTable]]:
        """The cached ``(mask, successor)`` list for a chunk, or ``None``."""
        return self.lookup(codes)[0]

    def lookup(
        self, codes: np.ndarray
    ) -> Tuple[Optional[List[ActionTable]], Optional[_Probe]]:
        """One-hash lookup: ``(cached tables or None, admission probe)``.

        Reconstruction is value-identical to a fresh evaluation:
        ``successor = codes + delta`` with a zero delta wherever the
        action is disabled, exactly the identity default the streamed
        evaluator produces.  On a miss the probe carries the narrowed
        codes and digest forward to :meth:`filling`, so one walk pays
        for one hash, not two.
        """
        if self._closed:
            return None, None
        stored = self._stored_form(codes)
        key = self._key(stored)
        probe = _Probe(stored, key)
        entry = self._entries.get(key)
        # A digest collision (different codes, same key) is a miss,
        # never a wrong table.
        if entry is None or not np.array_equal(entry.codes, stored):
            self._obs.count("kernel.tables.misses")
            self._note_miss(key)
            return None, probe
        self._entries.move_to_end(key)
        entry.hits += 1
        count = stored.size
        self._obs.count("kernel.tables.hits")
        self._obs.count("kernel.tables.hit_codes", count)
        tables: List[ActionTable] = []
        for packed, delta in zip(entry.masks, entry.deltas):
            mask = np.unpackbits(packed, count=count, bitorder="little")
            succ = codes + delta.astype(np.int64, copy=False)
            tables.append((mask.view(bool), succ))
        return tables, probe

    # -- admission -----------------------------------------------------

    def _note_miss(self, key: bytes) -> None:
        """Remember a miss in the bounded ghost digests."""
        self._ghosts[key] = self._ghosts.get(key, 0) + 1
        self._ghosts.move_to_end(key)
        while len(self._ghosts) > GHOST_CAP:
            self._ghosts.popitem(last=False)

    def _eligible(self, key: bytes) -> bool:
        """May this digest be packed for admission at all?

        First-time chunks are never eligible — a sequential scan of
        one-shot chunks must not pay the packing cost, let alone
        rotate the pool.  A second-miss digest is eligible while the
        pool has room; once full, only a third-miss digest (which may
        evict) is worth packing.
        """
        misses = self._ghosts.get(key, 0)
        if misses < ADMIT_MISSES:
            return False
        if self._bytes < self._cap:
            return True
        return misses >= EVICT_MISSES

    def filling(
        self,
        codes: np.ndarray,
        inner: Iterator[ActionTable],
        probe: Optional[_Probe] = None,
    ) -> Iterator[ActionTable]:
        """Yield ``inner``'s tables, packing them for admission when
        the chunk's ghost digest says it recurs.

        The entry is admitted only when ``inner`` is fully consumed
        (every consumer in the engine drains its iterator).  An
        ineligible chunk streams straight through with no packing
        overhead at all.  Pass the probe a preceding :meth:`lookup`
        returned to reuse its hash.
        """
        if self._closed:
            yield from inner
            return
        if probe is None:
            stored = self._stored_form(codes)
            probe = _Probe(stored, self._key(stored))
        if probe.key in self._entries or not self._eligible(probe.key):
            yield from inner
            return
        packed_masks: List[np.ndarray] = []
        packed_deltas: List[np.ndarray] = []
        for mask, succ in inner:
            packed_masks.append(np.packbits(mask, bitorder="little"))
            packed_deltas.append(
                (succ - codes).astype(self._dtype, copy=False)
            )
            yield mask, succ
        self._admit(probe.stored, probe.key, packed_masks, packed_deltas)

    def _make_room(self, key: bytes, nbytes: int) -> bool:
        """Free space for ``nbytes`` by evicting never-hit entries.

        Entries that have served a hit are protected — a hot resident
        is never sacrificed to the scan flooding past it — so room
        comes only from zero-hit entries in LRU order, and only for a
        candidate that has already missed :data:`EVICT_MISSES` times.
        When every resident is protected, their hit counts are halved
        instead: a once-hot entry the workload has moved past decays
        to evictable, while genuinely hot entries keep re-earning
        their protection.
        """
        if self._ghosts.get(key, 0) < EVICT_MISSES:
            return False
        victims: List[bytes] = []
        freed = 0
        for vkey, ventry in self._entries.items():  # LRU order first
            if ventry.hits:
                continue
            victims.append(vkey)
            freed += ventry.nbytes
            if self._bytes - freed + nbytes <= self._cap:
                break
        if self._bytes - freed + nbytes > self._cap:
            for entry in self._entries.values():
                entry.hits >>= 1
            return False
        for vkey in victims:
            victim = self._entries.pop(vkey)
            self._bytes -= victim.nbytes
            self._obs.count("kernel.tables.evictions")
        return True

    def _admit(
        self,
        stored: np.ndarray,
        key: bytes,
        masks: List[np.ndarray],
        deltas: List[np.ndarray],
    ) -> None:
        if not masks:
            return
        count = int(stored.size)
        actions = len(masks)
        width = self._dtype.itemsize
        nbytes = count * width + actions * count * width + actions * ((count + 7) // 8)
        if nbytes > self._cap:
            return
        if self._bytes + nbytes > self._cap:
            if not self._make_room(key, nbytes):
                return
        self._ghosts.pop(key, None)
        entry = _Entry(stored.copy(), np.stack(deltas), np.stack(masks))
        self._entries[key] = entry
        self._bytes += entry.nbytes

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Drop every entry; later lookups miss.  Idempotent."""
        self._closed = True
        self._entries.clear()
        self._bytes = 0
