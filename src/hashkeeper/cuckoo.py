"""Concurrent cuckoo hash set over 32-bit keys, safe for duplicate inserts.

Collisions are resolved by displacing the resident key and reinserting it at
the slot given by its next hash function, up to a bounded chain length.
Keys whose chains hit the bound go to a small stash; when even the stash is
full the table reports itself full and must be rebuilt with fresh hash
constants.

Any number of workers may call :meth:`CuckooTable.find_or_insert` and
:meth:`CuckooTable.contains` concurrently.  Lookups are optimistic and take
no lock: a version counter (odd while a relocation is in flight) validates
that no key moved during the scan, and keys being carried between slots
stay visible through an in-flight registry.  Relocations serialize on one
lock, which is what makes "insert each distinct key exactly once" hold even
when eviction chains and duplicate inserts interleave.  Rebuilds require
external quiescence.
"""

import math
import threading
import time

from .hashing import MOD_PRIME, HashFamily
from .words import EMPTY_WORD, FOUND, INSERTED, TABLE_FULL

# Largest storable key: one word below the empty sentinel.
MAX_KEY = EMPTY_WORD - 1

DEFAULT_STASH_SIZE = 101
_REBUILD_ATTEMPTS = 8


class RebuildError(RuntimeError):
    """A rebuild failed to place every stored key after all retry seeds."""


class InsertOutcome:
    """Result of one find-or-insert call: a tag plus the eviction count."""

    __slots__ = ("tag", "evictions")

    def __init__(self, tag: str, evictions: int):
        self.tag = tag
        self.evictions = evictions

    def __repr__(self) -> str:
        return f"InsertOutcome({self.tag!r}, evictions={self.evictions})"


_FOUND = InsertOutcome(FOUND, 0)
_INSERTED_CLEAN = InsertOutcome(INSERTED, 0)


def default_max_evictions(slot_count: int) -> int:
    """Chain bound used when none is given: 7 * ceil(log2(m)), at least 7."""
    return 7 * math.ceil(math.log2(max(2, slot_count)))


class CuckooTable:
    """Flat slot array plus stash; sized at ``scale`` times the unique keys."""

    def __init__(
        self,
        expected_unique: int,
        family: HashFamily,
        max_evictions: int | None = None,
        stash_size: int = DEFAULT_STASH_SIZE,
        scale: float = 1.25,
    ):
        if expected_unique < 1:
            raise ValueError(f"expected_unique must be >= 1, got {expected_unique}")
        if stash_size < 1:
            raise ValueError(f"stash_size must be >= 1, got {stash_size}")
        if scale <= 1.0:
            raise ValueError(f"scale must be > 1, got {scale}")
        self.m = math.ceil(scale * expected_unique)
        explicit_bound = max_evictions is not None
        if max_evictions is None:
            max_evictions = default_max_evictions(self.m)
        if max_evictions < 1:
            raise ValueError(f"max_evictions must be >= 1, got {max_evictions}")
        self.family = family
        self.max_evictions = max_evictions
        self.stash_size = stash_size
        self.rebuild_count = 0
        self._expected = expected_unique
        self._scale = scale
        self._explicit_bound = explicit_bound
        self._pairs = family.pairs
        self._later = family.pairs[1:]
        # each function paired with the one after it, the last wrapping round
        self._steps = tuple(zip(family.pairs, self._later + family.pairs[:1]))
        self._slots = [EMPTY_WORD] * self.m
        self._stash = [EMPTY_WORD] * stash_size
        self._stash_used = 0
        # Relocation protocol state: one lock serializes all slot and stash
        # writes, the version is odd while a write is in flight, and the
        # registry holds keys currently carried between slots so they never
        # drop out of sight of concurrent lookups.
        self._write_lock = threading.Lock()
        self._version = 0
        self._inflight = {}

    # -- queries ------------------------------------------------------------

    def find_or_insert(self, key: int) -> InsertOutcome:
        """Insert ``key`` unless already stored; duplicate-safe under concurrency."""
        if not 0 <= key <= MAX_KEY:
            raise ValueError(f"key must be in [0, {MAX_KEY}], got {key}")
        while True:
            found, _, version, slot0 = self._lookup(key)
            if found:
                return _FOUND
            outcome = self._try_place(key, slot0, version)
            if outcome is not None:
                return outcome

    def contains(self, key: int) -> bool:
        if not 0 <= key <= MAX_KEY:
            raise ValueError(f"key must be in [0, {MAX_KEY}], got {key}")
        return self._lookup(key)[0]

    def _probe(self, key: int) -> tuple[bool, int]:
        """Validated lookup that also reports how many words were touched."""
        return self._lookup(key)[:2]

    def _lookup(self, key: int) -> tuple[bool, int, int, int]:
        """Validated lookup: ``(found, words_read, version, slot0)``.

        A miss holds for the even ``version`` it was validated against;
        ``slot0`` is the key's function-0 slot, where a miss is placed.
        """
        slots = self._slots
        m = self.m
        a, b = self._pairs[0]
        slot0 = ((a * key + b) % MOD_PRIME) % m
        spins = 0
        while True:
            version = self._version
            if not version & 1:
                w = slots[slot0]
                if w == key:
                    return True, 1, version, slot0
                reads = 1
                # Slots only ever go empty -> occupied, and a key's first
                # placement always lands at its function-0 slot, so the scan
                # can stop at the first vacant candidate: no later function
                # (and, for function 0, neither the stash nor the in-flight
                # registry) can hold the key.
                if w != EMPTY_WORD:
                    for a, b in self._later:
                        reads += 1
                        w = slots[((a * key + b) % MOD_PRIME) % m]
                        if w == key:
                            return True, reads, version, slot0
                        if w == EMPTY_WORD:
                            break
                    if self._stash_used:
                        stash = self._stash
                        if key in stash:
                            return True, reads + stash.index(key) + 1, version, slot0
                        reads += len(stash)
                    if self._inflight and key in list(self._inflight.values()):
                        return True, reads, version, slot0
                if self._version == version:
                    # Nothing moved while we scanned, so the miss is real.
                    return False, reads, version, slot0
            spins += 1
            if spins > 64:
                time.sleep(0)

    # -- insertion protocol ---------------------------------------------------

    def _acquire_write_lock(self):
        # Non-blocking acquire with a scheduler yield.  A blocking acquire
        # would park on a futex and force an interpreter-lock handoff on
        # every release, which collapses throughput into a convoy once a
        # holder is ever preempted inside its (tiny) critical region.  The
        # hot paths try one acquire inline and come here only when it fails.
        lock = self._write_lock
        while not lock.acquire(False):
            time.sleep(0)

    def _try_place(self, key: int, slot: int, expected_version: int):
        """Place ``key`` at its first slot; None means the table moved on.

        The caller's validated miss is only acted on if the version is still
        ``expected_version`` once the relocation lock is held, which pins
        "key absent" and "key written" together into one atomic step.
        """
        if self._version != expected_version:
            return None
        slots = self._slots
        inflight = self._inflight
        lock = self._write_lock
        tid = threading.get_ident()
        try:
            if not lock.acquire(False):
                self._acquire_write_lock()
            try:
                if self._version != expected_version:
                    return None
                self._version = expected_version + 1
                victim = slots[slot]
                if victim != EMPTY_WORD:
                    inflight[tid] = victim
                slots[slot] = key
                self._version = expected_version + 2
            finally:
                lock.release()
            if victim == EMPTY_WORD:
                return _INSERTED_CLEAN
            if victim == key:
                # Unreachable given the freshness check; kept as a guard for
                # the concurrent-duplicate exchange semantics.
                return _FOUND
            return self._run_chain(key, victim, slot, tid)
        finally:
            inflight.pop(tid, None)

    def _run_chain(self, key, carried, slot, tid) -> InsertOutcome:
        # ``carried`` was just displaced from ``slot`` and is covered by the
        # in-flight registry; walk it along its next functions until a free
        # slot takes it, the chain bound sends it to the stash, or a
        # concurrent duplicate collapses the chain.
        slots = self._slots
        pairs = self._pairs
        steps = self._steps
        m = self.m
        bound = self.max_evictions
        inflight = self._inflight
        lock = self._write_lock
        evictions = 1
        while True:
            if evictions >= bound:
                return self._stash_put(carried, evictions)
            # The displaced key moves on via the function after the one that
            # put it here; ties resolve to the smallest matching function.
            for (a, b), nxt in steps:
                if ((a * carried + b) % MOD_PRIME) % m == slot:
                    break
            else:
                nxt = pairs[0]
            a, b = nxt
            slot = ((a * carried + b) % MOD_PRIME) % m
            if not lock.acquire(False):
                self._acquire_write_lock()
            try:
                version = self._version
                self._version = version + 1
                victim = slots[slot]
                if victim == carried:
                    # The slot already holds a copy of the exact key being
                    # written: a concurrent insertion of the same element.
                    # The resident copy stays, the carried one is dropped.
                    dropped = True
                else:
                    dropped = False
                    if victim != EMPTY_WORD:
                        inflight[tid] = victim
                    slots[slot] = carried
                self._version = version + 2
            finally:
                lock.release()
            if dropped:
                if carried == key:
                    return _FOUND
                return InsertOutcome(INSERTED, evictions)
            if victim == EMPTY_WORD:
                return InsertOutcome(INSERTED, evictions)
            carried = victim
            evictions += 1

    def _stash_put(self, carried: int, evictions: int) -> InsertOutcome:
        stash = self._stash
        self._acquire_write_lock()
        try:
            version = self._version
            self._version = version + 1
            try:
                stash[stash.index(EMPTY_WORD)] = carried
                full = False
            except ValueError:
                # No free stash word: the carried key goes past the stash's
                # nominal size, where lookups, stored_keys() and rebuild()
                # still see it, and the caller is told to rebuild.
                stash.append(carried)
                full = True
            self._stash_used += 1
            self._version = version + 2
        finally:
            self._write_lock.release()
        return InsertOutcome(TABLE_FULL if full else INSERTED, evictions)

    # -- whole-table operations (quiescent callers only) ---------------------

    def stored_keys(self) -> set[int]:
        """Set of keys currently stored in the slots and the stash."""
        empty = EMPTY_WORD
        keys = {w for w in self._slots if w != empty}
        keys.update(w for w in self._stash if w != empty)
        return keys

    def stored_count(self) -> int:
        """Number of occupied words (slots plus stash)."""
        empty = EMPTY_WORD
        n = sum(1 for w in self._slots if w != empty)
        return n + sum(1 for w in self._stash if w != empty)

    @property
    def capacity(self) -> int:
        return self.m

    def rebuild(self, seed: int) -> "CuckooTable":
        """Rebuild with fresh hash constants, keeping every stored key.

        Must be called at quiescence.  Retries with follow-on seeds, growing
        the table once plain rehashing stops helping; raises
        :class:`RebuildError` when every attempt fails.
        """
        keys = self.stored_keys()
        expected = max(self._expected, len(keys), 1)
        bound = self.max_evictions if self._explicit_bound else None
        for attempt in range(_REBUILD_ATTEMPTS):
            family = HashFamily(seed + attempt, self.family.count)
            fresh = CuckooTable(expected, family, bound, self.stash_size, self._scale)
            ok = True
            for k in keys:
                if fresh.find_or_insert(k).tag == TABLE_FULL:
                    ok = False
                    break
            if ok:
                fresh.rebuild_count = self.rebuild_count + 1
                return fresh
            if attempt >= _REBUILD_ATTEMPTS // 2:
                expected = math.ceil(expected * 1.25)
        raise RebuildError(
            f"could not place {len(keys)} keys after {_REBUILD_ATTEMPTS} rebuild seeds"
        )
