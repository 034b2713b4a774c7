"""Shared plumbing for tables built from arrays of 32-bit words.

The word storage with its compare-exchange, and ``replay``, which both
tables run: ``trace.first_positions``, which also removes the duplicates
of each explorer level, finds a block's distinct keys, a numpy pre-pass
those stored, the lockstep step inserts the rest a chunk at a time, and the
per-key protocol takes over only where it declines.  Each table kind sets
its chunk, the distinct keys per pre-pass and step, as its
``REPLAY_CHUNK`` class attribute.  The word storage counts the writes made
to it, so a bucket replay can tell when it is the table's sole writer: its
chunks then skip the pre-pass and its steps the re-checks, as no key of a
chunk can be stored yet.
"""

import threading
from array import array

import numpy as np

from .trace import first_positions

# All-ones word marks a vacant slot; all-ones minus one marks a frame that has
# been reserved but whose payload is not fully published yet (bucketed table
# only; the cuckoo table reserves just the empty word).
EMPTY_WORD = 0xFFFFFFFF
CLAIMED_WORD = 0xFFFFFFFE

# Outcome tags shared by both table designs.
INSERTED = "inserted"
FOUND = "found"
TABLE_FULL = "table_full"

_STRIPES = 64  # power of two


def word_array(size: int) -> tuple[array, np.ndarray]:
    """``size`` empty 32-bit words and a numpy view sharing their memory."""
    words = array("I", [EMPTY_WORD]) * size
    assert words.itemsize == 4
    return words, np.frombuffer(words, dtype=np.uint32)


class WordArray:
    """Fixed array of 32-bit words, all empty at first, with compare-exchange.

    ``words`` is an ``array('I')`` and ``view`` a numpy view of the same
    memory.  Indexed loads and stores of the array are individually atomic
    under the interpreter lock, so readers may touch ``words`` directly.  The
    striped locks exist only to make each compare-exchange, a read-modify-write
    pair, a single atomic step with respect to the others.

    A numpy scatter into ``view``, as both lockstep steps publish with, runs
    without the interpreter lock, so a reader on another core may load words
    while it runs.  That such a reader sees each word either old or new, and
    one thread's stores in the order it made them, is assumed of the
    platform, not given by the interpreter: x86-64 keeps one core's stores
    in order, and its stores of aligned 32-bit words, as these are, are
    atomic.

    ``writes`` counts writes: each successful compare-exchange adds 1 under
    its stripe lock, and a bucket lockstep step that places a key adds 1
    under every stripe lock.  Compare-exchanges on different stripes may
    overwrite one another's increments, but each stores one more than a
    count it read, and none races a step's, which holds every stripe lock.
    So once another writer has written, the count stays above the number
    of steps a replay has made since the table was fresh, and a replay that
    has made ``own`` writing steps on a table whose count is still ``own``
    is its only writer.
    """

    __slots__ = ("words", "view", "writes", "_locks")

    def __init__(self, size: int):
        self.words, self.view = word_array(size)
        self.writes = 0
        self._locks = [threading.Lock() for _ in range(min(_STRIPES, max(1, size)))]

    def compare_exchange(self, index: int, expected: int, value: int) -> bool:
        """Store ``value`` at ``index`` only if the word equals ``expected``.

        A success counts in ``writes`` before the lock is released: a
        bucket writer claims its frame this way before it publishes word 0,
        so no frame is claimed or published behind an unchanged count.
        """
        lock = self._locks[index % len(self._locks)]
        with lock:
            words = self.words
            if words[index] != expected:
                return False
            words[index] = value
            self.writes += 1
            return True


def replay(
    keys, max_key: int, chunk: int, stored, find_or_insert, lockstep
) -> tuple[int, int, bool]:
    """Find-or-insert ``keys`` in order: ``(inserted, found, full)``.

    Only each key's first occurrence reaches the table, in block order: keys
    never leave it, so every later one counts as found.  The distinct keys
    reach it ``chunk`` at a time, the calling table's ``REPLAY_CHUNK``.
    ``stored``, a table's pre-pass, masks the uint64 keys of a chunk it sees
    stored; ``lockstep`` inserts the rest (int64) at once and returns how
    many it inserted, or declines with ``None`` and writes nothing.  Only
    then do they go to ``find_or_insert`` one by one.  ``keys`` is a list or
    an integer array; a key that is no int or outside ``[0, max_key]``
    raises ``ValueError`` before any insert.  Replay stops at the first
    ``TABLE_FULL``, a key's first occurrence.
    """
    codes = np.asarray(keys)
    kind = codes.dtype.kind
    # an unsigned block, as bench.run passes, holds no negative key
    if len(codes) and (
        kind not in "iu" or kind == "i" and codes.min() < 0 or codes.max() > max_key
    ):
        raise ValueError(f"keys must be ints in [0, {max_key}]")
    positions = first_positions(codes)
    distinct = codes.take(positions)
    inserted = 0
    for start in range(0, len(distinct), chunk):
        part = distinct[start : start + chunk].astype(np.uint64)
        miss = ~stored(part)
        misses = part[miss].view(np.int64)
        placed = lockstep(misses) if len(misses) else 0
        if placed is not None:
            inserted += placed
            continue
        at = positions[start : start + chunk][miss].tolist()
        for position, key in zip(at, misses.tolist()):
            tag = find_or_insert(key).tag
            if tag is INSERTED:
                inserted += 1
            elif tag is not FOUND:
                return inserted, position - inserted, True
    return inserted, len(keys) - inserted, False
