"""Concurrent cuckoo hash set over 32-bit keys, safe for duplicate inserts.

Collisions are resolved by displacing the resident key and reinserting it at
the slot given by its next hash function, up to a bounded chain length: a
per-key insert is one chain of swaps, each writing the key it carries and
taking out the victim.  Keys whose chains hit the bound go to a small
stash; when even the stash is full the table reports itself full and must
be rebuilt with fresh hash constants.

Any number of workers may call :meth:`CuckooTable.find_or_insert` and
:meth:`CuckooTable.contains` concurrently.  Lookups are optimistic and take
no lock: a version counter, odd while a write is in flight, validates that
no key moved during the scan.  Each write, a whole chain or a lockstep
step, is one critical section under the relocation lock, which is what
makes "insert each distinct key exactly once" hold even when eviction
chains and duplicate inserts interleave.  Rebuilds require external
quiescence.  The slots are an ``array('I')`` of 32-bit words with a
numpy view, through which :meth:`CuckooTable.replay` looks up a block's
distinct keys and inserts their misses in one step of lockstep rounds under
the relocation lock, falling back to the per-key protocol when the rounds
cannot place them all.
"""

import math
import threading
import time

import numpy as np

from .hashing import MOD_PRIME, HashFamily, hash_array
from .words import (
    EMPTY_WORD,
    FOUND,
    INSERTED,
    TABLE_FULL,
    replay,
    word_array,
)

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

    # Distinct keys per pre-pass and lockstep step of replay.  Keys are
    # 32-bit words, so no block has more distinct keys: one step takes a
    # block's misses whole, as a GPU table inserts a batch.
    REPLAY_CHUNK = 1 << 32

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
        self._slots, self._view = word_array(self.m)
        # stashed keys, in stash order; more than stash_size means full
        self._stash = []
        # Relocation protocol state: one lock serializes all slot and stash
        # writes, and the version is odd while a write is in flight.
        self._write_lock = threading.Lock()
        self._version = 0

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

    def replay(self, keys) -> tuple[int, int, bool]:
        """Find-or-insert every key of ``keys`` in order: ``(inserted, found, full)``.

        Each key's first occurrence in ``keys`` reaches the table, and a
        numpy pre-pass over them counts the keys it sees in one of their
        candidate slots as found: keys never leave the table, so a slot
        holding ``k`` means ``k`` is stored.  :meth:`_lockstep` inserts the
        other keys at once, in one step for the whole block; when it
        declines, they go through :meth:`find_or_insert` one by one.
        ``keys`` is a list or an integer array; a key that is no int or
        outside ``[0, MAX_KEY]`` raises ``ValueError`` before any insert.

        The step takes the relocation lock and looks the misses up again
        only when ``_version`` was odd when the pre-pass began or has moved
        since.  Otherwise the pre-pass's misses still hold: every write that
        stores a key, to a slot or the stash, happens under the lock between
        two version bumps, and versions only grow, so an even
        version that is unchanged under the lock means nothing was stored
        since the pre-pass read the slots.  Keys in the stash are never in
        the slots, so :meth:`_lockstep` drops them either way.  The version
        the pre-pass began at belongs to this call, not the table:
        concurrent replays each keep their own.
        """
        began = 1  # odd: no pre-pass has begun

        def stored(chunk):
            nonlocal began
            began = self._version
            return self._stored(chunk)

        def lockstep(misses):
            lock = self._write_lock
            if not lock.acquire(False):
                self._acquire_write_lock()
            try:
                if self._version != began:
                    stored = self._stored(misses.view(np.uint64))
                    misses = misses.take(np.flatnonzero(~stored))
                return self._lockstep(misses)
            finally:
                lock.release()

        return replay(
            keys, MAX_KEY, self.REPLAY_CHUNK, stored, self.find_or_insert, lockstep
        )

    def _stored(self, keys):
        """Mask of the uint64 ``keys`` found in one of their candidate slots.

        While ``_version`` is 0 no slot is read and the mask is all false:
        every write bumps the version to odd before it stores a key, so
        nothing was ever stored.  A write that begins after that read is
        one the step's re-check sees, as the version has moved.
        """
        stored = np.zeros(len(keys), dtype=bool)
        if not self._version:
            return stored
        view = self._view
        m = self.m
        for a, b in self._pairs:
            stored |= view[hash_array(keys, a, b, m)] == keys
        return stored

    def _lockstep(self, keys):
        """Insert the distinct int64 ``keys`` in rounds; None when it declines.

        Runs under the relocation lock, which the caller holds, on keys
        missing from the slots.  Keys in the stash are dropped; the rest are
        inserted as GPU cuckoo tables insert a batch (Alcantara et al.,
        2009), on a private copy of the slots.  In each round every pending
        key writes its current function's slot and the last writer wins.  A
        key overwritten in the same round moves on to its next function, and
        a displaced resident to the function after the smallest one that
        maps it to that slot, as in :meth:`_try_place`, so slots only go
        empty -> occupied along each key's functions.  The residents try the
        functions one at a time, each only those that no smaller one
        matched, so a round hashes each resident as often as it must.  If
        every key is placed within ``max_evictions`` rounds, the slots whose
        word changed are published under one version bump and the count of
        inserted keys is returned.  Otherwise the table is left untouched:
        the stash is never written.

        The publishing scatter runs without the interpreter lock, so a
        lock-free reader on another core may read slots meanwhile.  That is
        sound on x86-64, which keeps one core's stores in order and stores
        an aligned 32-bit word atomically: the reader sees each slot old or
        new, and one that saw a new slot also sees the odd version stored
        before the scatter when it checks the version again.
        """
        keys = keys.view(np.uint64)
        if self._stash:
            keys = keys[~np.isin(keys, self._stash)]
        if not len(keys):
            return 0
        view = self._view
        work = view.copy()
        m = self.m
        pairs = self._pairs
        a, b = np.array(pairs, dtype=np.uint64).T
        # the function after each: a lookup wraps without a division
        after = np.roll(np.arange(len(pairs)), -1)
        pending = keys
        step = np.zeros(len(keys), dtype=np.intp)
        for turn in range(self.max_evictions):
            if not len(pending):
                break
            if turn:
                slot = hash_array(pending, a.take(step), b.take(step), m)
            else:  # every key is at function 0
                slot = hash_array(pending, *pairs[0], m)
            # take() of flatnonzero() copies a dense random mask's keys in a
            # third of the mask's time, and take() gathers in half the time
            # of indexing
            resident = work.take(slot)
            np.put(work, slot, pending)
            won = work.take(slot) == pending
            lost = np.flatnonzero(~won)
            won = np.flatnonzero(won)
            resident, slot = resident.take(won), slot.take(won)
            displaced = np.flatnonzero(resident != EMPTY_WORD)
            resident = resident.take(displaced).astype(np.uint64)
            slot = slot.take(displaced)
            nxt = np.ones(len(resident), dtype=np.intp)
            unmatched = np.arange(len(resident))
            for j, (aj, bj) in enumerate(pairs):
                hit = hash_array(resident.take(unmatched), aj, bj, m) == slot.take(unmatched)
                nxt[unmatched.take(np.flatnonzero(hit))] = after[j]
                unmatched = unmatched.take(np.flatnonzero(~hit))
                if not len(unmatched):
                    break
            pending = np.concatenate((pending.take(lost), resident))
            step = np.concatenate((after.take(step.take(lost)), nxt))
        if len(pending):
            return None
        changed = np.flatnonzero(work != view)
        version = self._version
        self._version = version + 1
        view[changed] = work[changed]
        self._version = version + 2
        return len(keys)

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
                # (and, for function 0, not the stash) can hold the key.
                if w != EMPTY_WORD:
                    for a, b in self._later:
                        reads += 1
                        w = slots[((a * key + b) % MOD_PRIME) % m]
                        if w == key:
                            return True, reads, version, slot0
                        if w == EMPTY_WORD:
                            break
                    stash = self._stash
                    if key in stash:
                        return True, reads + stash.index(key) + 1, version, slot0
                    reads += len(stash)
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
        # holder is ever preempted inside its critical section: one chain of
        # at most max_evictions steps, or one lockstep step.  The hot paths
        # try one acquire inline and come here only when it fails.
        lock = self._write_lock
        while not lock.acquire(False):
            time.sleep(0)

    def _try_place(self, key: int, slot: int, expected_version: int):
        """Place ``key`` at ``slot``, carrying victims on; None means the table moved on.

        The whole chain is one critical section: the relocation lock is held
        and the version odd from the first swap to the stash append or the
        vacant slot that ends it.  The caller's validated miss is only acted
        on if the version is still ``expected_version`` once the lock is
        held, which pins "key absent" and "key written" together into one
        atomic step.  A victim moves on via the function after the smallest
        one that maps it to its slot, until a free slot takes it or the
        chain bound sends it to the stash.
        """
        lock = self._write_lock
        if not lock.acquire(False):
            self._acquire_write_lock()
        try:
            version = self._version
            if version != expected_version:
                return None
            self._version = version + 1
            slots = self._slots
            m = self.m
            carried = key
            evictions = 0
            while True:
                carried, slots[slot] = slots[slot], carried
                if carried == EMPTY_WORD:
                    outcome = InsertOutcome(INSERTED, evictions) if evictions else _INSERTED_CLEAN
                    break
                evictions += 1
                if evictions >= self.max_evictions:
                    stash = self._stash
                    # past stash_size the key is still kept, where lookups,
                    # stored_keys() and rebuild() see it, and the caller is
                    # told to rebuild
                    stash.append(carried)
                    full = len(stash) > self.stash_size
                    outcome = InsertOutcome(TABLE_FULL if full else INSERTED, evictions)
                    break
                for (a, b), nxt in self._steps:
                    if ((a * carried + b) % MOD_PRIME) % m == slot:
                        break
                else:
                    nxt = self._pairs[0]
                a, b = nxt
                slot = ((a * carried + b) % MOD_PRIME) % m
            self._version = version + 2
            return outcome
        finally:
            lock.release()

    # -- whole-table operations (quiescent callers only) ---------------------

    def stored_key_array(self) -> np.ndarray:
        """uint32 array of the keys in the slots, in slot order, then the stash."""
        view = self._view
        stash = np.array(self._stash, dtype=np.uint32)
        return np.concatenate((view[view != EMPTY_WORD], stash))

    def stored_keys(self) -> set[int]:
        """Set of keys currently stored in the slots and the stash."""
        return set(self.stored_key_array().tolist())

    def stored_count(self) -> int:
        """Number of occupied words (slots plus stash)."""
        return int(np.count_nonzero(self._view != EMPTY_WORD)) + len(self._stash)

    @property
    def capacity(self) -> int:
        return self.m

    def rebuild(self, seed: int) -> "CuckooTable":
        """Rebuild with fresh hash constants, keeping every stored key.

        Must be called at quiescence.  Retries with follow-on seeds, growing
        the table once plain rehashing stops helping; raises
        :class:`RebuildError` when every attempt fails.
        """
        keys = self.stored_key_array()
        expected = max(self._expected, len(keys), 1)
        bound = self.max_evictions if self._explicit_bound else None
        for attempt in range(_REBUILD_ATTEMPTS):
            family = HashFamily(seed + attempt, self.family.count)
            fresh = CuckooTable(expected, family, bound, self.stash_size, self._scale)
            if not fresh.replay(keys)[2]:
                fresh.rebuild_count = self.rebuild_count + 1
                return fresh
            if attempt >= _REBUILD_ATTEMPTS // 2:
                expected = math.ceil(expected * 1.25)
        raise RebuildError(
            f"could not place {len(keys)} keys after {_REBUILD_ATTEMPTS} rebuild seeds"
        )
