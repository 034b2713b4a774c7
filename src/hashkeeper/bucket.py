"""Bucketed hash table storing fixed-width vectors in 32-word buckets.

Vectors hash to whole buckets of exactly 32 words, partitioned into aligned
frames of ``width`` words each.  A bucket is read as one contiguous snapshot
(echoing the coalesced cooperative read of the original design), and a frame
is taken by compare-exchanging its first word from empty to a claim marker,
writing the interior words, then publishing word 0 last.  There is no
eviction: a vector that finds all frames of all its candidate buckets taken
means the table is full.  :meth:`BucketTable.replay` looks up a block's
distinct keys a chunk at a time through a numpy view of the words, and
inserts their misses in one lockstep step under every stripe lock, falling
back to the per-key protocol when the step cannot place the whole chunk.
The pre-pass and the step walk a key's buckets function by function in the
same way, and leave a bucket only when it is full.
"""

import math
import struct
import time

import numpy as np

from .hashing import MOD_PRIME, HashFamily, hash_array
from .words import (
    CLAIMED_WORD,
    EMPTY_WORD,
    FOUND,
    INSERTED,
    TABLE_FULL,
    WordArray,
    replay,
)

BUCKET_WORDS = 32

# Largest value allowed in word 0 of a vector: below both sentinels.
MAX_LEAD_WORD = CLAIMED_WORD - 1

_FOLD_MULT = 0x9E3779B1  # 32-bit golden-ratio constant

# Buckets are scanned as bytes, one C-level search per vector or word sought.
_EMPTY_BYTES = struct.pack("=I", EMPTY_WORD)
_CLAIMED_BYTES = struct.pack("=I", CLAIMED_WORD)


def fingerprint(vector) -> int:
    """Fold a vector into the single 32-bit value used for bucket selection.

    Width-1 vectors hash as the bare integer; wider vectors fold left to
    right with a fixed multiply-add step so that every implementation of
    this scheme picks the same buckets.
    """
    fp = vector[0]
    for w in vector[1:]:
        fp = (fp * _FOLD_MULT + w) & 0xFFFFFFFF
    return fp


def _find_frame(snap: bytes, packed: bytes, frame_bytes: int, end=None) -> int:
    """Index of the first frame of ``snap[:end]`` that starts with ``packed``, or -1."""
    at = snap.find(packed, 0, end)
    while at % frame_bytes and at > 0:  # a match off a frame boundary
        at = snap.find(packed, at + 1, end)
    return at // frame_bytes


class BucketOutcome:
    """Result of one find-or-insert call against the bucketed table."""

    __slots__ = ("tag", "buckets_probed", "claim_retries")

    def __init__(self, tag: str, buckets_probed: int, claim_retries: int):
        self.tag = tag
        self.buckets_probed = buckets_probed
        self.claim_retries = claim_retries

    def __repr__(self) -> str:
        return (
            f"BucketOutcome({self.tag!r}, buckets_probed={self.buckets_probed}, "
            f"claim_retries={self.claim_retries})"
        )


_FOUND_FIRST = BucketOutcome(FOUND, 1, 0)
_INSERTED_FIRST = BucketOutcome(INSERTED, 1, 0)


class BucketTable:
    """Array of 32-word buckets holding ``width``-word vectors in aligned frames."""

    # Distinct keys per pre-pass and lockstep step of replay: larger chunks
    # gather more frame heads per step, and were slower on every workload.
    REPLAY_CHUNK = 1 << 14

    def __init__(
        self,
        expected_unique: int,
        width: int,
        family: HashFamily,
        scale: float = 1.25,
    ):
        if not 1 <= width <= BUCKET_WORDS:
            raise ValueError(f"width must be in [1, {BUCKET_WORDS}], got {width}")
        if expected_unique < 1:
            raise ValueError(f"expected_unique must be >= 1, got {expected_unique}")
        if scale <= 1.0:
            raise ValueError(f"scale must be > 1, got {scale}")
        self.width = width
        self.frames_per_bucket = BUCKET_WORDS // width
        self.buckets = math.ceil(scale * expected_unique / self.frames_per_bucket)
        self.family = family
        self._pairs = family.pairs
        self._words = WordArray(self.buckets * BUCKET_WORDS)
        self._pad_mult = pow(_FOLD_MULT, width - 1, 1 << 32)
        self._pack = struct.Struct(f"={width}I").pack

    # -- queries ------------------------------------------------------------

    def find_or_insert(self, vector) -> BucketOutcome:
        """Insert ``vector`` unless an equal vector is already published."""
        width = self.width
        if len(vector) != width:
            raise ValueError(f"vector has {len(vector)} words, table width is {width}")
        v0 = vector[0]
        if not 0 <= v0 <= MAX_LEAD_WORD:
            raise ValueError(f"vector word 0 must be in [0, {MAX_LEAD_WORD}], got {v0}")
        try:
            packed = self._pack(*vector)
        except struct.error:
            raise ValueError(f"vector words must be in [0, {EMPTY_WORD}], got {vector}") from None
        fp = v0 if width == 1 else fingerprint(vector)
        nbuckets = self.buckets
        words = self._words.words
        span = self.frames_per_bucket * width
        frame_bytes = 4 * width
        retries = 0
        probed = 0
        for a, b in self._pairs:
            probed += 1
            base = (((a * fp + b) % MOD_PRIME) % nbuckets) * BUCKET_WORDS
            # Scan a snapshot: a frame matches only once fully published.
            snap = words[base : base + span].tobytes()
            if _find_frame(snap, packed, frame_bytes) >= 0:
                return _FOUND_FIRST if probed == 1 else BucketOutcome(FOUND, probed, retries)
            frame = _find_frame(snap, _EMPTY_BYTES, frame_bytes)
            # A frame claimed before the first empty one may be publishing
            # this vector, so the walk starts there.  The search stops at the
            # empty frame: a run of empty words makes it slow.
            end = frame * frame_bytes if frame >= 0 else len(snap)
            claimed = _find_frame(snap, _CLAIMED_BYTES, frame_bytes, end)
            if claimed >= 0:
                frame = claimed
            if frame < 0:
                continue  # bucket permanently full for this vector
            tag, retries = self._claim_walk(base, frame * width, vector, packed, retries)
            if tag is not None:
                if tag is INSERTED and probed == 1 and retries == 0:
                    return _INSERTED_FIRST
                return BucketOutcome(tag, probed, retries)
        return BucketOutcome(TABLE_FULL, probed, retries)

    def replay(self, keys) -> tuple[int, int, bool]:
        """Find-or-insert ``(k, 0, ..., 0)`` for each ``k`` of ``keys`` in order.

        Returns ``(inserted, found, full)``.  Each key's first occurrence
        in ``keys`` reaches the table, and a numpy pre-pass over a chunk of
        them counts a key as found when one of its candidate buckets holds
        a frame reading ``(k, 0, ..., 0)``: word 0 is written once, when the
        frame is published, and interior words not yet written read
        ``EMPTY_WORD``.  :meth:`_lockstep` inserts the chunk's other keys at
        once; when it declines, they go through :meth:`find_or_insert` one
        by one.  ``keys`` is a list or an integer array; a key that is no
        int or outside ``[0, MAX_LEAD_WORD]`` raises ``ValueError`` before
        any insert.

        While the replay is the table's sole writer, a chunk skips the
        pre-pass and its step skips the re-checks, since no key of the
        chunk can be stored, or claimed and not yet published.  It is the
        sole writer while the table's ``writes`` equals ``own``, the count
        of this call's steps that placed a key: the table was fresh when
        the call began, and every write since was one of those steps.
        Every writer moves the count, a per-key writer when it claims a
        frame, before it publishes it.  A count merely unchanged since the
        call's own last step would not do: another writer may have stored
        a key of a later chunk before that step, and the skipped checks
        would never see it.
        """
        pad = (0,) * (self.width - 1)
        find_or_insert = self.find_or_insert
        table = self._words
        own = 0

        def stored(chunk):
            if table.writes == own:
                return np.zeros(len(chunk), dtype=bool)
            return self._stored(chunk)

        def lockstep(misses):
            nonlocal own
            placed = self._lockstep(misses, own)
            if placed:
                own += 1
            return placed

        return replay(
            keys,
            MAX_LEAD_WORD,
            self.REPLAY_CHUNK,
            stored,
            lambda key: find_or_insert((key,) + pad),
            lockstep,
        )

    def _lockstep(self, keys, own=None):
        """Insert ``(k, 0, ..., 0)`` for the distinct int64 ``keys``; None declines.

        Holds every stripe lock, so no frame can be claimed meanwhile, and
        walks the functions in turn as :meth:`_stored` does, hashing at each
        only the keys still pending.  A frame already claimed in a bucket
        one of them reaches may be publishing one of the keys, so the step
        declines rather than wait for it.  Keys published there since the
        pre-pass are dropped.  Both checks are skipped when the table's
        ``writes`` equals ``own``, read under the locks: then the calling
        replay is the sole writer (see :meth:`replay`), and no other claim
        or key of the chunk exists.  The rest are placed as GPUexplore places a
        warp's vectors in a bucket (Wijs and Bosnacki, 2014): grouped by
        bucket in emission order, the first ``free`` keys of a group take
        the bucket's next empty frames, and the rest move on to the next
        function, so a key leaves only a full bucket.  One sort of
        ``bucket << bits | row`` forms the groups, each in emission order
        since rows are unique; a key's rank is its place less its group's
        start.  Occupied frames are a prefix of each bucket, so the frames
        before its empty heads are used.  A key left after the last
        function makes the step decline with the table untouched.  Frames
        are then claimed, filled and published, one scatter each, so readers
        only ever see empty, claimed or complete frames.  The scatters run
        without the interpreter lock, and a reader on another core sees them
        in that order, each word whole, only because x86-64 keeps one core's
        stores in order and stores aligned 32-bit words atomically.

        Claims need only be read in the buckets the walk reaches: a per-key
        writer claims a frame in a key's j-th bucket only after finding
        buckets 0 .. j-1 fully published, frames never empty again, and the
        walk leaves a bucket only when it is full, so it reaches that claim
        before it could place the key.
        """
        table = self._words
        for lock in table._locks:
            lock.acquire()
        try:
            sole = table.writes == own
            keys = keys.view(np.uint64)
            fps = keys * self._pad_mult & 0xFFFFFFFF
            keys = keys.astype(np.uint32)
            heads = self._heads()
            per = self.frames_per_bucket
            taken = np.zeros(self.buckets, dtype=np.intp)
            first = np.full(len(keys), -1, dtype=np.intp)  # word 0 of each key's frame
            pending = np.arange(len(keys))
            for a, b in self._pairs:
                bucket = hash_array(fps[pending], a, b, self.buckets)
                lead = heads.take(bucket, axis=0)
                if not sole and (lead == CLAIMED_WORD).any():
                    return None
                # uint8 row sums in place: count_nonzero or argmax along
                # the rows takes 2.5-3x as long
                used = per - np.einsum("ij->i", (lead == EMPTY_WORD).view(np.uint8))
                rest = np.ones(len(pending), dtype=bool)
                if not sole:
                    rest[self._published_in(lead, bucket, keys[pending])] = False
                rest = np.flatnonzero(rest)
                bits = len(pending).bit_length()
                packed = bucket[rest] << bits | rest
                packed.sort()
                bucket, rest = packed >> bits, packed & ((1 << bits) - 1)
                pending = pending[rest]
                start = np.zeros(len(bucket), dtype=np.intp)
                runs = np.flatnonzero(bucket[1:] != bucket[:-1]) + 1
                start[runs] = runs
                rank = np.arange(len(bucket)) - np.maximum.accumulate(start)
                frame = used[rest] + taken[bucket] + rank
                fits = frame < per
                first[pending[fits]] = bucket[fits] * BUCKET_WORDS + frame[fits] * self.width
                np.add.at(taken, bucket[fits], 1)
                pending = np.sort(pending[~fits])
                if not len(pending):
                    break
            else:
                return None
            placed = first >= 0
            first, keys = first[placed], keys[placed]
            view = table.view
            if self.width > 1:
                view[first] = CLAIMED_WORD
                view[(first[:, None] + np.arange(1, self.width)).ravel()] = 0
            view[first] = keys
            if len(keys):
                table.writes += 1
            return len(keys)
        finally:
            for lock in table._locks:
                lock.release()

    def _stored(self, keys):
        """Mask of the uint64 ``keys`` whose padded vector is published.

        Reads :meth:`_heads`, a live view, while other threads may insert.
        A key's probe ends at its first candidate bucket whose last frame is
        empty: occupied frames are a prefix of a bucket, frames never empty
        again, and both insert paths move a key on only from a full bucket.
        A key stored since that read may be missed, which the pre-pass
        allows: the lockstep walk and ``find_or_insert`` re-check a miss
        before inserting it.
        """
        # fingerprint((k, 0, ..., 0)) is k times a constant, mod 2**32
        fps = keys * self._pad_mult & 0xFFFFFFFF
        keys = keys.astype(np.uint32)
        heads = self._heads()
        stored = np.zeros(len(keys), dtype=bool)
        pending = np.arange(len(keys))
        for a, b in self._pairs:
            bucket = hash_array(fps, a, b, self.buckets)
            lead = heads.take(bucket, axis=0)
            seen = self._published_in(lead, bucket, keys)
            stored[pending[seen]] = True
            # a key went on past this bucket only if it is full
            rest = lead[:, -1] != EMPTY_WORD
            rest[seen] = False
            if not rest.any():
                break
            pending, fps, keys = pending[rest], fps[rest], keys[rest]
        return stored

    def _published_in(self, lead, bucket, keys):
        """Rows of ``lead`` with a frame reading ``(k, 0, ..., 0)`` for the row's key.

        ``lead`` holds the frame heads of each key's ``bucket``; ``keys`` are uint32.
        """
        # flatnonzero and divmod: a quarter of the time of a 2-D nonzero
        flat = np.flatnonzero(lead == keys[:, None])
        rows, cols = np.divmod(flat, lead.shape[1])
        first = bucket[rows] * BUCKET_WORDS + cols * self.width
        # word 0 alone does not tell (k, 0, ...) from (k, 5, ...)
        tails = self._words.view[first[:, None] + np.arange(1, self.width)]
        return rows[~tails.any(axis=1)]

    def _heads(self) -> np.ndarray:
        """Word 0 of every frame, one row per bucket: a live view, not a copy."""
        span = self.frames_per_bucket * self.width
        return self._words.view.reshape(-1, BUCKET_WORDS)[:, : span : self.width]

    def _claim_walk(self, base, off, vector, packed, retries):
        """Walk frames from ``off`` live, claiming the first free one.

        Frames seen claimed (or lost to a concurrent claimer) are re-read
        after their publication so that a duplicate of ``vector`` inserted
        concurrently is detected instead of stored twice.
        """
        table = self._words
        words = table.words
        width = self.width
        v0 = vector[0]
        end = self.frames_per_bucket * width
        while off < end:
            idx = base + off
            w0 = words[idx]
            if w0 == EMPTY_WORD:
                if table.compare_exchange(idx, EMPTY_WORD, CLAIMED_WORD):
                    # The frame is ours: interior words first, word 0 last.
                    for k in range(1, width):
                        words[idx + k] = vector[k]
                    words[idx] = v0
                    return INSERTED, retries
                retries += 1
                w0 = words[idx]
            if w0 == CLAIMED_WORD:
                w0 = self._await_publish(idx)
            if w0 == v0 and words[idx : idx + width].tobytes() == packed:
                return FOUND, retries
            off += width
        return None, retries

    def _await_publish(self, idx: int) -> int:
        # The claimer publishes after a bounded number of its own steps, so
        # spin briefly, then yield until the frame leaves the claimed state.
        words = self._words.words
        w = words[idx]
        spins = 0
        while w == CLAIMED_WORD:
            spins += 1
            if spins > 64:
                time.sleep(0)
            w = words[idx]
        return w

    def contains(self, vector) -> bool:
        """Scan at most ``count`` buckets; claimed frames never match."""
        width = self.width
        if len(vector) != width:
            raise ValueError(f"vector has {len(vector)} words, table width is {width}")
        v0 = vector[0]
        if not 0 <= v0 <= MAX_LEAD_WORD:
            raise ValueError(f"vector word 0 must be in [0, {MAX_LEAD_WORD}], got {v0}")
        try:
            packed = self._pack(*vector)
        except struct.error:
            raise ValueError(f"vector words must be in [0, {EMPTY_WORD}], got {vector}") from None
        fp = v0 if width == 1 else fingerprint(vector)
        nbuckets = self.buckets
        words = self._words.words
        span = self.frames_per_bucket * width
        frame_bytes = 4 * width
        for a, b in self._pairs:
            base = (((a * fp + b) % MOD_PRIME) % nbuckets) * BUCKET_WORDS
            if _find_frame(words[base : base + span].tobytes(), packed, frame_bytes) >= 0:
                return True
        return False

    # -- whole-table operations (quiescent callers only) ---------------------

    def _published(self) -> np.ndarray:
        """Word index of every published frame, in table order.

        Claimed frames are skipped, and so are the trailing words of a
        bucket that no frame covers when ``width`` does not divide 32.
        """
        # Both sentinels sit at the top of the word range, so one comparison
        # rejects empty and claimed frames alike.
        bucket, frame = np.nonzero(self._heads() < CLAIMED_WORD)
        return bucket * BUCKET_WORDS + frame * self.width

    def _vectors(self, first: np.ndarray):
        """The vectors of the frames starting at word indices ``first``, in order."""
        # one list per word position, zipped into tuples: no list per vector
        view = self._words.view
        return zip(*(view[first + k].tolist() for k in range(self.width)))

    def stored_vectors(self) -> set[tuple]:
        """Set of fully published vectors; quiescent use."""
        return set(self._vectors(self._published()))

    def stored_key_array(self) -> np.ndarray:
        """uint32 array of word 0 of every published vector, in table order."""
        return self._words.view[self._published()]

    def stored_keys(self) -> set[int]:
        """Set of word 0 of every published vector; quiescent use."""
        return set(self.stored_key_array().tolist())

    def frame_map(self) -> dict[int, tuple]:
        """Published vectors keyed by the word index of their frame."""
        first = self._published()
        return dict(zip(first.tolist(), self._vectors(first)))

    def stored_count(self) -> int:
        """Number of occupied frames."""
        return len(self._published())

    @property
    def capacity(self) -> int:
        """Total frame capacity of the table."""
        return self.buckets * self.frames_per_bucket
