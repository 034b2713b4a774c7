"""Bucketed hash table storing fixed-width vectors in 32-word buckets.

Vectors hash to whole buckets of exactly 32 words, partitioned into aligned
frames of ``width`` words each.  A bucket is read as one contiguous snapshot
(echoing the coalesced cooperative read of the original design), and a frame
is taken by compare-exchanging its first word from empty to a claim marker,
writing the interior words, then publishing word 0 last.  There is no
eviction: a vector that finds all frames of all its candidate buckets taken
means the table is full.
"""

import math
import time

from .hashing import MOD_PRIME, HashFamily
from .words import CLAIMED_WORD, EMPTY_WORD, FOUND, INSERTED, TABLE_FULL, WordArray

BUCKET_WORDS = 32

# Largest value allowed in word 0 of a vector: below both sentinels.
MAX_LEAD_WORD = CLAIMED_WORD - 1

_FOLD_MULT = 0x9E3779B1  # 32-bit golden-ratio constant


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

    # -- queries ------------------------------------------------------------

    def find_or_insert(self, vector) -> BucketOutcome:
        """Insert ``vector`` unless an equal vector is already published."""
        width = self.width
        if len(vector) != width:
            raise ValueError(f"vector has {len(vector)} words, table width is {width}")
        v0 = vector[0]
        if not 0 <= v0 <= MAX_LEAD_WORD:
            raise ValueError(f"vector word 0 must be in [0, {MAX_LEAD_WORD}], got {v0}")
        fp = v0 if width == 1 else fingerprint(vector)
        nbuckets = self.buckets
        words = self._words.words
        span = self.frames_per_bucket * width
        tail = list(vector[1:]) if width > 1 else None
        retries = 0
        probed = 0
        for a, b in self._pairs:
            probed += 1
            base = (((a * fp + b) % MOD_PRIME) % nbuckets) * BUCKET_WORDS
            snap = words[base : base + BUCKET_WORDS]
            # Scan the snapshot: a frame matches only once fully published.
            open_off = -1
            if width == 1:
                if v0 in snap:
                    return _FOUND_FIRST if probed == 1 else BucketOutcome(FOUND, probed, retries)
                if EMPTY_WORD in snap:
                    open_off = snap.index(EMPTY_WORD)
                if CLAIMED_WORD in snap:
                    off = snap.index(CLAIMED_WORD)
                    if open_off < 0 or off < open_off:
                        open_off = off
            else:
                matched = False
                for off in range(0, span, width):
                    w0 = snap[off]
                    if w0 == v0 and snap[off + 1 : off + width] == tail:
                        matched = True
                        break
                    if (w0 == EMPTY_WORD or w0 == CLAIMED_WORD) and open_off < 0:
                        open_off = off
                if matched:
                    return _FOUND_FIRST if probed == 1 else BucketOutcome(FOUND, probed, retries)
            if open_off < 0:
                continue  # bucket permanently full for this vector
            tag, retries = self._claim_walk(base, open_off, vector, tail, retries)
            if tag is not None:
                if tag is INSERTED and probed == 1 and retries == 0:
                    return _INSERTED_FIRST
                return BucketOutcome(tag, probed, retries)
        return BucketOutcome(TABLE_FULL, probed, retries)

    def _claim_walk(self, base, off, vector, tail, retries):
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
            if w0 == v0 and (width == 1 or words[idx + 1 : idx + width] == tail):
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
        fp = v0 if width == 1 else fingerprint(vector)
        nbuckets = self.buckets
        words = self._words.words
        span = self.frames_per_bucket * width
        tail = list(vector[1:])
        for a, b in self._pairs:
            base = (((a * fp + b) % MOD_PRIME) % nbuckets) * BUCKET_WORDS
            snap = words[base : base + BUCKET_WORDS]
            if width == 1:
                if v0 in snap:
                    return True
            else:
                for off in range(0, span, width):
                    if snap[off] == v0 and snap[off + 1 : off + width] == tail:
                        return True
        return False

    # -- whole-table operations (quiescent callers only) ---------------------

    def _published(self) -> list[int]:
        """Word index of every published frame, in table order.

        Claimed frames are skipped, and so are the trailing words of a
        bucket that no frame covers when ``width`` does not divide 32.
        """
        words = self._words.words
        width = self.width
        span = self.frames_per_bucket * width
        offsets = range(0, span, width)
        # Both sentinels sit at the top of the word range, so one comparison
        # rejects empty and claimed frames alike.
        return [
            base + off
            for base in range(0, len(words), BUCKET_WORDS)
            for off, w0 in zip(offsets, words[base : base + span : width])
            if w0 < CLAIMED_WORD
        ]

    def stored_vectors(self) -> set[tuple]:
        """Set of fully published vectors; quiescent use."""
        words = self._words.words
        width = self.width
        return {tuple(words[i : i + width]) for i in self._published()}

    def stored_keys(self) -> set[int]:
        """Set of word 0 of every published vector; quiescent use."""
        words = self._words.words
        return {words[i] for i in self._published()}

    def frame_map(self) -> dict[int, tuple]:
        """Published vectors keyed by the word index of their frame."""
        words = self._words.words
        width = self.width
        return {i: tuple(words[i : i + width]) for i in self._published()}

    def stored_count(self) -> int:
        """Number of occupied frames."""
        return len(self._published())

    @property
    def capacity(self) -> int:
        """Total frame capacity of the table."""
        return self.buckets * self.frames_per_bucket
