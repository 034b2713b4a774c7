"""Shared plumbing for tables built from arrays of 32-bit words.

The word storage with its compare-exchange, and ``replay``, the chunked
find-or-insert of a whole key sequence that both tables run: a numpy
pre-pass finds a chunk's stored keys, the table's lockstep step inserts the
rest at once, and the per-key protocol takes over only where it declines.
"""

import threading
from array import array

import numpy as np

# All-ones word marks a vacant slot; all-ones minus one marks a frame that has
# been reserved but whose payload is not fully published yet (bucketed table
# only; the cuckoo table reserves just the empty word).
EMPTY_WORD = 0xFFFFFFFF
CLAIMED_WORD = 0xFFFFFFFE

# Outcome tags shared by both table designs.
INSERTED = "inserted"
FOUND = "found"
TABLE_FULL = "table_full"

# Keys per pre-pass of ``replay``: each chunk is converted, hashed and
# gathered as a few arrays of this length.
REPLAY_CHUNK = 1 << 14

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
    """

    __slots__ = ("words", "view", "_locks")

    def __init__(self, size: int):
        self.words, self.view = word_array(size)
        self._locks = [threading.Lock() for _ in range(min(_STRIPES, max(1, size)))]

    def compare_exchange(self, index: int, expected: int, value: int) -> bool:
        """Store ``value`` at ``index`` only if the word equals ``expected``."""
        lock = self._locks[index % len(self._locks)]
        with lock:
            words = self.words
            if words[index] != expected:
                return False
            words[index] = value
            return True


def replay(keys, max_key: int, stored, find_or_insert, lockstep) -> tuple[int, int, bool]:
    """Find-or-insert ``keys`` in order: ``(inserted, found, full)``.

    ``stored`` is a table's pre-pass: it takes the distinct keys of a
    chunk, as uint64, and returns the mask of those it sees stored.  A key
    it sees is stored for good, so all its occurrences count as found.  The
    first occurrence in the chunk of every other key goes to ``lockstep`` in
    one int64 array, in the order the chunk emits them; it inserts the
    chunk's misses at once and returns how many it inserted, the rest
    having been stored by others, or declines with ``None`` and leaves the
    table untouched.  Only then do those keys go to ``find_or_insert`` one
    at a time.  A chunk holding a key outside ``[0, max_key]``, or one that
    is no int, goes to ``find_or_insert`` whole, which raises ``ValueError``
    in the key's place.  Replay stops at the first ``TABLE_FULL``, and
    ``found`` then counts only the keys before it.
    """
    inserted = 0
    for start in range(0, len(keys), REPLAY_CHUNK):
        chunk = keys[start : start + REPLAY_CHUNK]
        misses = _first_misses(chunk, max_key, stored)
        if misses is not None:
            placed = lockstep(misses) if len(misses) else 0
            if placed is not None:
                inserted += placed
                continue
            misses = misses.tolist()
        for key in chunk if misses is None else misses:
            tag = find_or_insert(key).tag
            if tag is INSERTED:
                inserted += 1
            elif tag is not FOUND:
                # every earlier occurrence of a full key missed too
                return inserted, start + chunk.index(key) - inserted, True
    return inserted, len(keys) - inserted, False


def _first_misses(chunk, max_key: int, stored):
    """The first occurrence of each key of ``chunk`` not seen stored, in order.

    Duplicates go before the lookup: ``stored`` sees each distinct key of
    the chunk once.  Returns an int64 array, or ``None`` when the chunk
    holds a key that is no int or lies outside ``[0, max_key]``, a sentinel
    among them.
    """
    try:
        codes = np.frombuffer(array("q", chunk), dtype=np.int64)
    except (OverflowError, TypeError):
        return None
    if codes.min() < 0 or codes.max() > max_key:
        return None
    # each key packed above its position, which fits in int64 as keys are
    # below 2**32: one sort groups a key's occurrences, the first leading
    bits = len(codes).bit_length()
    packed = np.sort(codes << bits | np.arange(len(codes)))
    keys = packed >> bits
    first = np.ones(len(packed), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    miss = ~stored(keys[first].astype(np.uint64))
    return codes[np.sort(packed[first][miss] & ((1 << bits) - 1))]
