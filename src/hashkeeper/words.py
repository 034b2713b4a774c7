"""Shared plumbing for tables built from arrays of 32-bit words."""

import threading

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


class WordArray:
    """Fixed array of 32-bit words, all empty at first, with compare-exchange.

    Plain indexed loads and stores of a Python list are individually atomic
    under the interpreter lock, so readers may touch ``words`` directly.  The
    striped locks exist only to make each compare-exchange, a read-modify-write
    pair, a single atomic step with respect to the others.
    """

    __slots__ = ("words", "_locks")

    def __init__(self, size: int):
        self.words = [EMPTY_WORD] * size
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
