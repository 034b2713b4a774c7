"""Independent reference constructions shared across test modules."""

import itertools
import math
from collections import deque

from hashkeeper.bucket import BUCKET_WORDS, fingerprint
from hashkeeper.trace import Automaton, Model
from hashkeeper.words import EMPTY_WORD, FOUND, INSERTED, TABLE_FULL


def expected_multiplicity(length, duplication):
    """Mean multiplicity of uniform draws with replacement from ceil(L/d) values."""
    span = math.ceil(length / duplication)
    expected_unique = span * (1.0 - (1.0 - 1.0 / span) ** length)
    return length / expected_unique


def oracle_successor_codes(model):
    """Label-centric brute-force product construction.

    Returns the set of codes of every state generated as a successor from a
    reachable state, independently of the explorer's process-centric walk.
    """
    procs = model.processes
    owners = {}
    for p, proc in enumerate(procs):
        for _, label, _ in proc.transitions:
            owners.setdefault(label, set()).add(p)

    sizes = [proc.states for proc in procs]

    def code_of(vec):
        c, mult = 0, 1
        for s, size in zip(vec, sizes):
            c += s * mult
            mult *= size
        return c

    def successors(vec):
        out = []
        for label, parts in owners.items():
            parts = sorted(parts)
            options = []
            for q in parts:
                moves = [
                    dst
                    for src, lab, dst in procs[q].transitions
                    if lab == label and src == vec[q]
                ]
                options.append(moves)
            if not all(options):
                continue
            for combo in itertools.product(*options):
                succ = list(vec)
                for q, dst in zip(parts, combo):
                    succ[q] = dst
                out.append(tuple(succ))
        return out

    init = tuple(p.initial for p in procs)
    seen = {init}
    generated = set()
    frontier = deque([init])
    while frontier:
        vec = frontier.popleft()
        for succ in successors(vec):
            generated.add(code_of(succ))
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return generated


def oracle_trace(model):
    """Sequential per-state BFS: the emission-order reference for ``explore``.

    Each state taken off the FIFO frontier emits its successors by process
    index, then that process's transitions in declaration order; a joint
    label fires at its lowest participant, with the partners' matching
    transitions combined in ``itertools.product`` order.  Returns the list of
    emitted codes and the number of distinct codes among them.
    """
    procs = model.processes
    owners = model.labels()
    sizes = [proc.states for proc in procs]

    def code_of(vec):
        c, mult = 0, 1
        for s, size in zip(vec, sizes):
            c += s * mult
            mult *= size
        return c

    def successors(vec):
        for p, proc in enumerate(procs):
            for src, label, dst in proc.transitions:
                parts = owners[label]
                if src != vec[p] or parts[0] != p:
                    continue
                options = [
                    [d for s, lab, d in procs[q].transitions if lab == label and s == vec[q]]
                    for q in parts[1:]
                ]
                for combo in itertools.product(*options):
                    succ = list(vec)
                    succ[p] = dst
                    for q, d in zip(parts[1:], combo):
                        succ[q] = d
                    yield tuple(succ)

    init = tuple(proc.initial for proc in procs)
    seen = {init}
    codes = []
    frontier = deque([init])
    while frontier:
        for succ in successors(frontier.popleft()):
            codes.append(code_of(succ))
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return codes, len(set(codes))


def random_model(rng, max_states=10_000):
    """Random synchronizing network small enough for the brute-force oracle."""
    while True:
        nprocs = rng.randint(2, 4)
        sizes = [rng.randint(2, 8) for _ in range(nprocs)]
        space = 1
        for s in sizes:
            space *= s
        if space <= max_states:
            break
    shared = [f"sync{k}" for k in range(rng.randint(0, 3))]
    processes = []
    for p, size in enumerate(sizes):
        labels = [f"l{p}_{i}" for i in range(3)] + shared
        transitions = []
        for _ in range(rng.randint(size, 3 * size)):
            transitions.append(
                (rng.randrange(size), rng.choice(labels), rng.randrange(size))
            )
        processes.append(Automaton(f"p{p}", size, rng.randrange(size), transitions))
    return Model(processes)


class SequentialCuckoo:
    """Plain single-threaded cuckoo table: the reference for ``CuckooTable``.

    A new key goes to its function-0 slot.  A displaced key moves to the
    function after the smallest one that maps it to the slot it lost,
    wrapping round, until a free slot takes it; after ``max_evictions``
    displacements it goes to the stash instead, and a key past a full stash
    is kept beyond it and reported ``table_full``.
    """

    def __init__(self, family, m, max_evictions, stash_size):
        self.family = family
        self.m = m
        self.max_evictions = max_evictions
        self.stash_size = stash_size
        self.slots = [EMPTY_WORD] * m
        self.stash = []

    def slot(self, i, key):
        return self.family.hash(i, key, self.m)

    def find_or_insert(self, key):
        """``(tag, evictions)`` of one find-or-insert."""
        count = self.family.count
        if key in self.stash or key in [self.slots[self.slot(i, key)] for i in range(count)]:
            return FOUND, 0
        carried, slot, evictions = key, self.slot(0, key), 0
        while True:
            carried, self.slots[slot] = self.slots[slot], carried
            if carried == EMPTY_WORD:
                return INSERTED, evictions
            evictions += 1
            if evictions >= self.max_evictions:
                self.stash.append(carried)
                full = len(self.stash) > self.stash_size
                return (TABLE_FULL if full else INSERTED), evictions
            smallest = next(i for i in range(count) if self.slot(i, carried) == slot)
            slot = self.slot((smallest + 1) % count, carried)


def lockstep_frames(table, keys):
    """Where the bucket lockstep places ``(k, 0, ..., 0)`` for ``keys``: a plain loop.

    The documented rule, on a table with no claimed frame: the functions in
    turn, and at each the keys still pending in emission order.  A key takes
    the next free frame of its bucket, occupied frames being a prefix of it,
    or moves on to the next function only from a full bucket.  Returns
    ``{word index of the frame: key}``, or None when a key is left after the
    last function.
    """
    width = table.width
    used = {}
    for first in table.frame_map():
        used[first // BUCKET_WORDS] = used.get(first // BUCKET_WORDS, 0) + 1
    placed = {}
    pending = list(keys)
    for i in range(table.family.count):
        left = []
        for key in pending:
            fp = fingerprint((key,) + (0,) * (width - 1))
            bucket = table.family.hash(i, fp, table.buckets)
            frame = used.get(bucket, 0)
            if frame < table.frames_per_bucket:
                placed[bucket * BUCKET_WORDS + frame * width] = key
                used[bucket] = frame + 1
            else:
                left.append(key)
        pending = left
    return None if pending else placed
