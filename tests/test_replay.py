"""Bulk ``replay`` against a per-key ``find_or_insert`` loop on a fresh table."""

import sys
import threading
import time

import numpy as np
import pytest

from hashkeeper.bucket import MAX_LEAD_WORD, BucketTable, fingerprint
from hashkeeper.cuckoo import MAX_KEY, CuckooTable
from hashkeeper.hashing import HashFamily, hash_array
from hashkeeper.trace import example_model, explore
from hashkeeper.words import CLAIMED_WORD, EMPTY_WORD, FOUND, INSERTED
from oracles import lockstep_frames

# (kind, width): the cuckoo table and the bucket table at two widths
TABLES = (("cuckoo", 1), ("bucket", 1), ("bucket", 3))


def make_table(kind, width, expected, seed=0, **kw):
    family = HashFamily(seed, 4)
    if kind == "cuckoo":
        return CuckooTable(expected, family, **kw)
    return BucketTable(expected, width, family)


def per_key(table, keys):
    """The reference: ``(inserted, found, full)`` of a find_or_insert loop."""
    pad = (0,) * (getattr(table, "width", 1) - 1)
    inserted = found = 0
    for key in keys:
        if isinstance(table, BucketTable):
            tag = table.find_or_insert((key,) + pad).tag
        else:
            tag = table.find_or_insert(key).tag
        if tag is INSERTED:
            inserted += 1
        elif tag is FOUND:
            found += 1
        else:
            return inserted, found, True
    return inserted, found, False


def contents(table):
    if isinstance(table, BucketTable):
        return table.stored_vectors()
    return table.stored_keys()


def random_block(length, span, seed):
    return np.random.default_rng(seed).integers(0, span, size=length).tolist()


def ring_trace():
    return explore(example_model("ring")).codes


def set_chunk(monkeypatch, chunk):
    """Give both table kinds ``chunk`` distinct keys per replay step."""
    for kind in (CuckooTable, BucketTable):
        monkeypatch.setattr(kind, "REPLAY_CHUNK", chunk)


def chunk_seam():
    # the first key is last in the bucket table's first chunk and first in
    # its second; the cuckoo table takes the block in one step
    n = BucketTable.REPLAY_CHUNK
    return list(range(1, n)) + [0, 0] + list(range(1, 50))


def top_of_range(top):
    # the largest storable keys, with repeats, over a full chunk and a part
    return [top] + [top - k for k in random_block(20_000, 3_000, 3)]


def top_key(kind):
    return MAX_KEY if kind == "cuckoo" else MAX_LEAD_WORD


# each block is made from the largest key the table stores
BLOCKS = {
    "random-d1": lambda top: random_block(3_000, 3_000, 1),
    "random-d10": lambda top: random_block(5_000, 500, 2),
    "bfs-ring": lambda top: ring_trace(),
    "dup-in-chunk": lambda top: [5, 9, 5, 5, 7, 9, 12, 7, 5, 12, 3],
    "chunk-seam": lambda top: chunk_seam(),
    "top-of-range": top_of_range,
}


@pytest.mark.parametrize("chunk", ["one", "default"])
@pytest.mark.parametrize("block", sorted(BLOCKS))
@pytest.mark.parametrize("kind,width", TABLES)
def test_replay_matches_per_key_loop(kind, width, block, chunk, monkeypatch):
    if chunk == "one":
        set_chunk(monkeypatch, 1)
    keys = BLOCKS[block](top_key(kind))
    unique = len(set(keys))
    expected = make_table(kind, width, unique)
    reference = per_key(expected, keys)
    # the block as tests write it and as bench.run hands it over
    for form in (keys, np.array(keys, dtype=np.uint32)):
        table = make_table(kind, width, unique)
        assert table.replay(form) == reference
        assert contents(table) == contents(expected)
        assert table.stored_count() == expected.stored_count()
        if not reference[2]:
            assert table.stored_keys() == set(keys)
            # the per-key lookup stops at a key's first vacant candidate
            pad = (0,) * (width - 1)
            if kind == "cuckoo":
                assert all(table.contains(k) for k in set(keys))
            else:
                assert all(table.contains((k,) + pad) for k in set(keys))


@pytest.mark.parametrize("chunk", [1, 7, None])
@pytest.mark.parametrize("kind,width", TABLES)
def test_full_table_stops_at_the_same_key(kind, width, chunk, monkeypatch):
    if chunk is not None:
        set_chunk(monkeypatch, chunk)
    # far more distinct keys than the table holds, with repeats between them
    keys = [k for k in range(400) for _ in range(1 + k % 3)]
    kw = {"max_evictions": 2, "stash_size": 1} if kind == "cuckoo" else {}
    expected = make_table(kind, width, 4, **kw)
    reference = per_key(expected, keys)
    assert reference[2]
    table = make_table(kind, width, 4, **kw)
    assert table.replay(keys) == reference
    assert contents(table) == contents(expected)


@pytest.mark.parametrize("kind,width", TABLES)
def test_a_table_filling_after_lockstep_chunks_stores_every_earlier_key(
    kind, width, monkeypatch
):
    set_chunk(monkeypatch, 16)
    # each new key followed by two repeats of keys seen before it
    rng = np.random.default_rng(4)
    keys = []
    for key in range(1_000, 1_400):
        keys.append(key)
        keys.extend(rng.choice(keys, 2).tolist())
    kw = {"max_evictions": 4, "stash_size": 1} if kind == "cuckoo" else {}
    table = make_table(kind, width, 100, **kw)
    lockstep = table._lockstep
    steps = []

    def watched(chunk, *rest):
        steps.append(lockstep(chunk, *rest))
        return steps[-1]

    table._lockstep = watched
    inserted, found, full = table.replay(keys)
    assert full
    # the lockstep placed the first chunks whole; the table filled later
    assert steps[:2] == [16, 16] and steps[-1] is None
    stop = inserted + found
    assert stop > 32
    # the replay stopped at the first occurrence of the key that did not fit
    assert keys[stop] not in keys[:stop]
    assert inserted == len(set(keys[:stop]))
    pad = (0,) * (width - 1)
    if kind == "cuckoo":
        assert all(table.contains(k) for k in keys[:stop])
    else:
        assert all(table.contains((k,) + pad) for k in keys[:stop])
    assert table.stored_keys() >= set(keys[:stop])


def spy(table, name, calls):
    """Record the first argument of each ``table.<name>`` call in ``calls``."""
    method = getattr(table, name)

    def counted(arg, *rest):
        calls.append(arg)
        return method(arg, *rest)

    setattr(table, name, counted)


@pytest.mark.parametrize("kind,width", TABLES)
def test_each_missed_key_reaches_the_lockstep_once_per_chunk(kind, width):
    table = make_table(kind, width, 100)
    calls = []
    spy(table, "_lockstep", calls)
    assert table.replay([5, 9, 5, 5, 9, 7]) == (3, 3, False)
    assert [c.tolist() for c in calls] == [[5, 9, 7]]
    calls.clear()
    assert table.replay([7, 9, 5, 11, 11]) == (1, 4, False)
    assert [c.tolist() for c in calls] == [[11]]


FOREIGN_KEY = 10**6  # in no test block


def table_written_by(kind, width, expected, written):
    """A fresh table, holding ``FOREIGN_KEY`` when ``written``.

    The key stands for another writer's: a bucket replay skips its
    pre-passes and re-checks only on a table it alone wrote.
    """
    table = make_table(kind, width, expected)
    if written:
        pad = (0,) * (width - 1)
        outcome = table.find_or_insert(FOREIGN_KEY if kind == "cuckoo" else (FOREIGN_KEY,) + pad)
        assert outcome.tag is INSERTED
    return table


@pytest.mark.parametrize("kind,width", TABLES)
def test_the_pre_pass_sees_each_distinct_key_of_a_block_once(kind, width, monkeypatch):
    chunk = 256
    set_chunk(monkeypatch, chunk)
    # 500 keys repeated all through the block, then 300 new ones twice over:
    # repeats cross the seams of block chunks and of distinct-key chunks
    block = BLOCKS["random-d10"](top_key(kind)) + list(range(1_000, 1_300)) * 2
    distinct = list(dict.fromkeys(block))
    chunks = [distinct[i : i + chunk] for i in range(0, len(distinct), chunk)]
    # room to spare: a full table would end the replay early
    expected = 2 * len(distinct)
    for written in (False, True):
        table = table_written_by(kind, width, expected, written)
        stored, lockstep = table._stored, table._lockstep
        looked_up = []  # the keys of each pre-pass, not of a lockstep's re-check
        stepping = []

        def watched_stored(keys):
            if not stepping:
                looked_up.append(keys.tolist())
            return stored(keys)

        def watched_lockstep(keys, *rest):
            stepping.append(True)
            try:
                return lockstep(keys, *rest)
            finally:
                stepping.pop()

        table._stored, table._lockstep = watched_stored, watched_lockstep
        reference = per_key(table_written_by(kind, width, expected, written), block)
        assert not reference[2]
        assert table.replay(block) == reference
        if kind == "bucket" and not written:
            # the table's only writer looks nothing up
            assert looked_up == []
        else:
            # every distinct key once, in first-occurrence order, a chunk at a time
            assert looked_up == chunks


@pytest.mark.parametrize("kind,width", TABLES)
def test_one_worker_looks_each_distinct_key_up_once(kind, width, monkeypatch):
    chunk = 64
    set_chunk(monkeypatch, chunk)
    block = random_block(6_000, 2_000, 14)
    distinct = len(set(block))
    for written in (False, True):
        table = table_written_by(kind, width, distinct + 1, written)
        calls, rechecks = [], []
        spy(table, "_stored", calls)
        if kind == "bucket":
            spy(table, "_published_in", rechecks)
        assert table.replay(block) == (distinct, len(block) - distinct, False)
        if kind == "bucket" and not written:
            # the table's only writer: no pre-pass, and no step looked again
            assert calls == [] and rechecks == []
            continue
        # the pre-pass of each chunk and nothing more: no other worker wrote
        # between a pre-pass and its step, so no step looked its misses up again
        assert len(calls) == -(-distinct // chunk)
        assert sum(len(keys) for keys in calls) == distinct


@pytest.mark.parametrize("kind,width", TABLES)
def test_a_default_replay_steps_once_per_table_chunk(kind, width):
    # more distinct keys than a bucket chunk: the cuckoo table takes them in
    # one pre-pass and one step, the bucket table 2**14 at a time
    block = random_block(60_000, 50_000, 17)
    distinct = len(set(block))
    assert distinct > BucketTable.REPLAY_CHUNK
    steps = 1 if kind == "cuckoo" else -(-distinct // BucketTable.REPLAY_CHUNK)
    for written in (False, True):
        table = table_written_by(kind, width, 2 * distinct, written)
        looked_up, stepped = [], []
        spy(table, "_stored", looked_up)
        spy(table, "_lockstep", stepped)
        assert table.replay(block) == (distinct, len(block) - distinct, False)
        assert len(stepped) == steps
        # the bucket table's only writer skips every pre-pass
        assert len(looked_up) == (0 if kind == "bucket" and not written else steps)


@pytest.mark.parametrize("kind,width", TABLES)
def test_a_write_after_the_pre_pass_makes_the_step_look_again(kind, width, monkeypatch):
    set_chunk(monkeypatch, 8)
    pad = (0,) * (width - 1)
    for written in (False, True):
        table = table_written_by(kind, width, 100, written)
        raced = []

        def race(chunk):
            if not raced:
                # another worker inserts one of the chunk's misses meanwhile
                raced.append(int(chunk[3]))
                key = raced[0]
                outcome = table.find_or_insert(key if kind == "cuckoo" else (key,) + pad)
                assert outcome.tag is INSERTED

        if kind == "bucket" and not written:
            # no pre-pass runs: the write lands just before the first step
            lockstep = table._lockstep

            def racing(keys, *rest):
                race(keys)
                return lockstep(keys, *rest)

            table._lockstep = racing
        else:
            stored = table._stored

            def racing(chunk):
                mask = stored(chunk)
                race(chunk)
                return mask

            table._stored = racing
        block = list(range(20)) * 2
        # the raced key counts as found, not inserted
        assert table.replay(block) == (19, 21, False)
        assert raced == [3]
        assert table.stored_keys() - {FOREIGN_KEY} == set(range(20))
        assert table.stored_count() == 20 + written


@pytest.mark.parametrize("writer", ["find_or_insert", "replay"])
@pytest.mark.parametrize("width", [1, 3])
def test_bucket_a_key_stored_ahead_of_a_replay_is_inserted_once(width, writer, monkeypatch):
    # Between replay A's first and second steps another writer stores a key
    # of A's third chunk; A's later steps then run alone.  The write count
    # after A's second step equals the value A's own step set, so a rule
    # that skipped the checks on an unchanged count would insert it twice.
    set_chunk(monkeypatch, 8)
    pad = (0,) * (width - 1)
    block = list(range(40)) * 2
    raced = 20  # first in A's third chunk
    table = make_table("bucket", width, 100)
    lockstep = table._lockstep
    steps = []

    def racing(keys, *rest):
        placed = lockstep(keys, *rest)
        steps.append(placed)
        if len(steps) == 1:
            if writer == "replay":
                # replay B's own step goes through here too, as the second
                assert table.replay([raced]) == (1, 0, False)
            else:
                assert table.find_or_insert((raced,) + pad).tag is INSERTED
        return placed

    table._lockstep = racing
    # the per-key loop with the same write at the same place
    expected = make_table("bucket", width, 100)
    head = per_key(expected, block[:8])
    assert expected.find_or_insert((raced,) + pad).tag is INSERTED
    tail = per_key(expected, block[8:])
    reference = (head[0] + tail[0], head[1] + tail[1], False)
    assert reference == (39, 41, False)
    assert table.replay(block) == reference
    # the third chunk placed the seven keys left to it
    assert steps == ([8, 1, 8, 7, 8, 8] if writer == "replay" else [8, 8, 7, 8, 8])
    assert table.stored_count() == 40
    assert contents(table) == contents(expected)


@pytest.mark.parametrize("when", ["before", "between"])
@pytest.mark.parametrize("width", [1, 3])
def test_bucket_a_foreign_write_makes_every_later_chunk_look_up(width, when, monkeypatch):
    # "before": a second replay on a table that already holds keys never
    # skips; "between": a per-key insert from another thread after the
    # second chunk makes every later chunk run the pre-pass and its step
    # look again
    set_chunk(monkeypatch, 8)
    pad = (0,) * (width - 1)
    table = make_table("bucket", width, 200)
    if when == "before":
        assert table.replay(list(range(20))) == (20, 0, False)
    looked_up, rechecks = [], []
    spy(table, "_stored", looked_up)
    spy(table, "_published_in", rechecks)
    lockstep = table._lockstep
    steps = []  # per step: the pre-passes run so far, its own re-checks

    def watched(keys, *rest):
        before = len(rechecks)
        placed = lockstep(keys, *rest)
        steps.append((len(looked_up), len(rechecks) - before))
        if when == "between" and len(steps) == 2:
            writer = threading.Thread(target=table.find_or_insert, args=((FOREIGN_KEY,) + pad,))
            writer.start()
            writer.join(timeout=10)
            assert not writer.is_alive()
        return placed

    table._lockstep = watched
    block = list(range(15, 55))
    chunks = [block[i : i + 8] for i in range(0, 40, 8)]
    new = 40 if when == "between" else 35
    assert table.replay(block) == (new, len(block) - new, False)
    assert len(steps) == 5
    alone = 2 if when == "between" else 0
    # the first chunks ran alone: no pre-pass and no re-check
    assert steps[:alone] == [(0, 0)] * alone
    # every later chunk was looked up, and its step looked again
    assert [keys.tolist() for keys in looked_up] == chunks[alone:]
    assert [done for done, _ in steps[alone:]] == list(range(1, 6 - alone))
    assert all(again for _, again in steps[alone:])


@pytest.mark.parametrize("kind,width", TABLES)
def test_each_missed_key_reaches_find_or_insert_once_per_chunk(kind, width):
    # with a lockstep step that always declines
    table = make_table(kind, width, 100)
    table._lockstep = lambda keys, *rest: None
    calls = []
    spy(table, "find_or_insert", calls)
    assert table.replay([5, 9, 5, 5, 9, 7]) == (3, 3, False)
    assert [c if kind == "cuckoo" else c[0] for c in calls] == [5, 9, 7]
    calls.clear()
    assert table.replay([7, 9, 5, 11, 11]) == (1, 4, False)
    assert [c if kind == "cuckoo" else c[0] for c in calls] == [11]


@pytest.mark.parametrize("kind,width", TABLES)
def test_a_declined_lockstep_leaves_the_table_untouched(kind, width):
    # far more distinct keys than the table holds: no chunk can be placed whole
    keys = random_block(3_000, 3_000, 5)
    table = make_table(kind, width, 40)
    expected = make_table(kind, width, 40)
    assert table.replay(keys[:20]) == per_key(expected, keys[:20])
    view = table._view if kind == "cuckoo" else table._words.view
    lockstep = table._lockstep
    untouched = []

    def checked(chunk, *rest):
        before = view.tobytes()
        placed = lockstep(chunk, *rest)
        if placed is None:
            untouched.append(view.tobytes() == before)
        return placed

    table._lockstep = checked
    assert table.replay(keys) == per_key(expected, keys)
    assert untouched == [True]
    assert contents(table) == contents(expected)


class CountingView:
    """A table's slot view that counts the reads through it."""

    def __init__(self, view):
        self.view, self.reads = view, 0

    def __getitem__(self, index):
        self.reads += 1
        return self.view[index]


def test_cuckoo_pre_pass_reads_no_slot_of_a_never_written_table():
    table = make_table("cuckoo", 1, 100)
    view = CountingView(table._view)
    table._view = view
    keys = np.arange(0, 100, 3, dtype=np.uint64)
    assert not table._stored(keys).any()
    assert view.reads == 0
    assert table.find_or_insert(9).tag is INSERTED
    # once written, one read per function
    assert table._stored(keys).tolist() == (keys == 9).tolist()
    assert view.reads == 4


def test_cuckoo_resident_moves_on_from_the_smaller_function_to_its_slot():
    probe = make_table("cuckoo", 1, 12)
    family, m = probe.family, probe.m

    def slots(key):
        return [family.hash(i, key, m) for i in range(4)]

    # functions 1 and 3 map the resident to one slot, and the functions it
    # would move on to from them, 2 and 0, map it elsewhere and apart
    resident = next(
        k for k in range(10**6) if (s := slots(k))[1] == s[3] and len({s[0], s[1], s[2]}) == 3
    )
    slot = slots(resident)[1]
    newcomer = next(k for k in range(10**6) if k != resident and slots(k)[0] == slot)
    words = {}
    for path in ("lockstep", "per-key"):
        table = make_table("cuckoo", 1, 12)
        table._slots[slot] = resident  # as if placed through function 1
        if path == "lockstep":
            assert table._lockstep(np.array([newcomer], dtype=np.int64)) == 1
        else:
            assert table.find_or_insert(newcomer).tag is INSERTED
        assert table._view[slot] == newcomer
        assert table._view[slots(resident)[2]] == resident
        assert table.stored_keys() == {resident, newcomer}
        words[path] = table._view.tobytes()
    assert words["lockstep"] == words["per-key"]


def test_cuckoo_stashed_key_counts_as_found():
    table = make_table("cuckoo", 1, 100)
    table.replay(list(range(50)))
    # 77 held only in the stash, where a chain that hit its bound leaves it
    table._stash.append(77)
    assert table.replay([77, 100, 77]) == (1, 2, False)
    assert 77 not in table._view
    assert table.stored_count() == 52


def candidate_buckets(table, key):
    """The bucket of ``(key, 0, ..., 0)`` under each of the four functions."""
    fp = fingerprint((key,) + (0,) * (table.width - 1))
    return [table.family.hash(i, fp, table.buckets) for i in range(4)]


@pytest.mark.parametrize("width", [1, 3])
def test_bucket_claimed_frame_makes_the_lockstep_decline(width):
    key = 123
    vector = (key,) + (0,) * (width - 1)

    def next_frame(table):
        # the next frame of the key's first bucket
        bucket = table.family.hash(0, fingerprint(vector), table.buckets)
        heads = table._heads()
        return bucket * 32 + int(np.flatnonzero(heads[bucket] == EMPTY_WORD)[0]) * width

    # a step called without a replay's write count always reads claims, even
    # one stored without counting it
    table = make_table("bucket", width, 100)
    table._words.words[next_frame(table)] = CLAIMED_WORD
    before = table._words.view.tobytes()
    assert table._lockstep(np.array([key], dtype=np.int64)) is None
    assert table._words.view.tobytes() == before
    # claimed through the protocol's compare-exchange by a writer that has
    # not published yet
    table = make_table("bucket", width, 100)
    first = next_frame(table)
    assert table._words.compare_exchange(first, EMPTY_WORD, CLAIMED_WORD)
    words_ = table._words.words
    declined = []
    lockstep = table._lockstep

    def watched(keys, *rest):
        result = lockstep(keys, *rest)
        declined.append(result is None)
        return result

    table._lockstep = watched

    def publish():
        time.sleep(0.05)
        for k in range(1, width):
            words_[first + k] = 0
        words_[first] = key

    writer = threading.Thread(target=publish)
    writer.start()
    try:
        assert table.replay([key, key]) == (0, 2, False)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert declined == [True]
    assert table.stored_vectors() == {vector}
    assert table.stored_count() == 1


@pytest.mark.parametrize("width", [1, 3])
def test_bucket_claim_no_pending_key_reaches_lets_the_lockstep_place(width):
    table = make_table("bucket", width, 100)
    key, first, last = next(
        (k, b[0], b[3]) for k in range(100) if (b := candidate_buckets(table, k))[0] != b[3]
    )
    # a claim in the key's function-3 bucket, while its function-0 bucket
    # has room: the walk places the key at function 0 and never reaches it
    table._words.words[last * 32] = CLAIMED_WORD
    assert table._lockstep(np.array([key], dtype=np.int64)) == 1
    assert table.stored_vectors() == {(key,) + (0,) * (width - 1)}
    assert [f // 32 for f in table.frame_map()] == [first]


@pytest.mark.parametrize("width", [1, 3])
def test_bucket_lockstep_drops_a_key_published_past_its_first_bucket(width):
    table = make_table("bucket", width, 100)
    pad = (0,) * (width - 1)
    key, first = next(
        (k, b[0]) for k in range(100) if (b := candidate_buckets(table, k))[0] != b[1]
    )
    heads = table._heads()
    for other in range(10**6, 10**7):
        if heads[first, -1] != EMPTY_WORD:
            break
        if candidate_buckets(table, other)[0] == first:
            assert table.find_or_insert((other,) + pad).tag is INSERTED
    # published through function 1 after the pre-pass missed it
    outcome = table.find_or_insert((key,) + pad)
    assert (outcome.tag, outcome.buckets_probed) == (INSERTED, 2)
    view = table._words.view
    before = view.tobytes()
    assert table._lockstep(np.array([key], dtype=np.int64)) == 0
    assert view.tobytes() == before


def keys_into(table, bucket, count, skip, function=0):
    """``count`` keys outside ``skip`` whose ``function`` bucket is ``bucket``."""
    found = []
    for key in range(10**6, 10**7):
        if key not in skip and candidate_buckets(table, key)[function] == bucket:
            found.append(key)
            if len(found) == count:
                return found
    raise AssertionError("no such keys")


@pytest.mark.parametrize("width", [1, 3])
def test_bucket_lockstep_places_as_the_plain_loop_does(width):
    table = make_table("bucket", width, 200)
    pad = (0,) * (width - 1)
    per = table.frames_per_bucket
    # a crowded table: about half its frames taken at random
    crowd = random_block(table.capacity // 2, 10**6, 15)
    for key in crowd:
        assert table.find_or_insert((key,) + pad).tag in (INSERTED, FOUND)
    used = (table._heads() != EMPTY_WORD).sum(axis=1)
    # a bucket x left with two free frames and a full bucket y, both filled
    # through function 0
    x, y = [b for b in np.argsort(-used, kind="stable").tolist() if used[b] <= per - 2][:2]
    taken = set(crowd)
    for bucket, free in ((x, 2), (y, 0)):
        for key in keys_into(table, bucket, per - free - int(used[bucket]), taken):
            taken.add(key)
            assert table.find_or_insert((key,) + pad).tag is INSERTED
    assert (table._heads()[x] == EMPTY_WORD).sum() == 2
    assert (table._heads()[y] != EMPTY_WORD).all()
    # three pending keys reach x at function 0 and one, leaving the full y,
    # at function 1: four keys for x's two free frames
    to_x = keys_into(table, x, 3, taken)
    taken.update(to_x)
    via_y = next(
        k for k in range(10**6, 10**7)
        if k not in taken and candidate_buckets(table, k)[:2] == [y, x]
    )
    others = [
        k for k in random_block(40, 10**6, 16)
        if k not in taken and x not in candidate_buckets(table, k)[:2]
    ]
    pending = list(dict.fromkeys(others[:10] + [via_y] + to_x[:2] + others[10:] + to_x[2:]))
    expected = lockstep_frames(table, pending)
    assert expected is not None
    before = table.frame_map()
    assert table._lockstep(np.array(pending, dtype=np.int64)) == len(pending)
    assert table.frame_map() == {**before, **{f: (k,) + pad for f, k in expected.items()}}
    # x took the first two keys that reached it, in emission order
    assert sorted(k for f, k in expected.items() if f // 32 == x) == sorted(to_x[:2])


# -- the bucket pre-pass stops at a key's first non-full bucket ------------------


def reached_through(table):
    """For each published vector's lead word, the function its frame came by.

    The smallest function that maps the vector to the frame's bucket.
    """
    functions = {}
    for first, vector in table.frame_map().items():
        fp = fingerprint(vector)
        buckets = [table.family.hash(i, fp, table.buckets) for i in range(4)]
        functions[vector[0]] = buckets.index(first // 32)
    return functions


class Declined(Exception):
    pass


def fill_until_spill(table, fill, keys):
    """Insert ``keys`` until some went in through each function, or one fails.

    ``per-key`` inserts by ``find_or_insert``; ``lockstep`` replays chunks of
    8 keys and stops, with the table untouched, at the first declined step,
    so every frame is placed by the lockstep.
    """
    pad = (0,) * (table.width - 1)
    lockstep = table._lockstep

    def placed_whole(chunk, *rest):
        placed = lockstep(chunk, *rest)
        if placed is None:
            raise Declined
        return placed

    table._lockstep = placed_whole
    try:
        for i in range(0, len(keys), 8):
            if fill == "per-key":
                for key in keys[i : i + 8]:
                    if table.find_or_insert((key,) + pad).tag not in (INSERTED, FOUND):
                        return
            else:
                table.replay(keys[i : i + 8])
            if len(set(reached_through(table).values())) == 4:
                return
    except Declined:
        return
    finally:
        del table._lockstep


@pytest.mark.parametrize("fill", ["per-key", "lockstep"])
@pytest.mark.parametrize("width", [1, 3])
def test_bucket_pre_pass_stops_at_the_first_non_full_bucket(width, fill):
    table = make_table("bucket", width, 400, seed=1)
    keys = random_block(table.capacity, 10**6, 7)
    fill_until_spill(table, fill, keys)
    functions = reached_through(table)
    assert set(functions.values()) == {0, 1, 2, 3}
    heads = table._heads()
    full = heads[:, -1] != EMPTY_WORD
    pad = (0,) * (width - 1)

    def buckets(key):
        return candidate_buckets(table, key)

    # the stop relies on it: a frame reached through function j leaves
    # full buckets behind it at functions 0 .. j-1
    for key, j in functions.items():
        assert all(full[b] for b in buckets(key)[:j]), key
    absent = [k for k in range(10**6, 10**6 + 3_000) if k not in functions]
    behind_full = [k for k in absent if full[buckets(k)[0]]]
    behind_open = [k for k in absent if not full[buckets(k)[0]]]
    assert behind_full and behind_open
    for group in (sorted(functions), behind_full, behind_open):
        mask = table._stored(np.array(group, dtype=np.uint64))
        assert mask.tolist() == [table.contains((k,) + pad) for k in group]
    # a copy past a bucket with an open frame is one the protocol never
    # writes, and the probe never reads it, even behind an occupied frame 0
    planted = [
        k for k in behind_open
        if heads[buckets(k)[0], 0] != EMPTY_WORD and not full[buckets(k)[1]]
        and buckets(k)[1] != buckets(k)[0]
    ][:5]
    assert planted
    view = table._words.view
    for key in planted:
        bucket = buckets(key)[1]
        first = bucket * 32 + int(np.flatnonzero(heads[bucket] == EMPTY_WORD)[0]) * width
        view[first + 1 : first + width] = 0
        view[first] = key
        assert table.contains((key,) + pad)
    assert not table._stored(np.array(planted, dtype=np.uint64)).any()


def test_empty_block():
    for kind, width in TABLES:
        assert make_table(kind, width, 10).replay([]) == (0, 0, False)


# -- keys the pre-pass must never count ----------------------------------------


def bad_keys(kind):
    top = top_key(kind)
    return [top + 1, EMPTY_WORD, -1, -(2**63) - 1, 2**63, 2**64, 2**32, 1.5, "7", None]


@pytest.mark.parametrize("kind,width", TABLES)
def test_bad_key_raises_value_error_before_any_insert(kind, width, monkeypatch):
    set_chunk(monkeypatch, 8)
    # a few keys before the bad one, and more distinct keys than a chunk
    for good in ([3, 4, 3], list(range(20)) * 2 + [3, 25]):
        for bad in bad_keys(kind):
            table = make_table(kind, width, 100)
            with pytest.raises(ValueError):
                table.replay(good + [bad, 30, 5, 31])
            # the block is checked whole: not even the keys before it went in
            assert table.stored_keys() == set()
    # arrays too: a signed block is scanned for negative keys, an unsigned
    # one, which holds none, only for keys above the range
    for bad, dtype in ((-1, np.int64), (2**32, np.uint64), (top_key(kind) + 1, np.uint64)):
        table = make_table(kind, width, 100)
        with pytest.raises(ValueError):
            table.replay(np.array([3, 4, 3, bad, 30, 5, 31], dtype=dtype))
        assert table.stored_keys() == set()


def test_cuckoo_empty_word_is_never_found():
    # a table with empty slots everywhere: a key equal to the empty word
    # would match all of them
    table = make_table("cuckoo", 1, 100)
    table.replay([1, 2, 3])
    with pytest.raises(ValueError):
        table.replay([1, EMPTY_WORD])


@pytest.mark.parametrize("width", [1, 3])
def test_bucket_claimed_word_is_never_found(width):
    table = make_table("bucket", width, 100)
    table.replay([1, 2, 3])
    # a frame caught between its claim and its publication
    heads = table._heads()
    bucket = int(np.flatnonzero((heads == EMPTY_WORD).any(axis=1))[0])
    frame = int(np.flatnonzero(heads[bucket] == EMPTY_WORD)[0])
    table._words.words[bucket * 32 + frame * width] = CLAIMED_WORD
    for key in (CLAIMED_WORD, EMPTY_WORD):
        with pytest.raises(ValueError):
            table.replay([1, key])


def test_width_three_interior_words_checked():
    # (k, 0, 0) is what replay stores; (k, 5, 0) led by the same word is not it
    table = make_table("bucket", 3, 100)
    table.find_or_insert((10, 5, 0))
    assert table.replay([10, 10]) == (1, 1, False)
    assert table.stored_vectors() == {(10, 5, 0), (10, 0, 0)}
    with pytest.raises(ValueError):
        table.find_or_insert((11, -1, 0))
    assert table.stored_vectors() == {(10, 5, 0), (10, 0, 0)}


# -- concurrent replays of one block ---------------------------------------------


def replay_in_threads(table, block, threads=4):
    """Replay ``block`` from ``threads`` threads at once: their results."""
    results = [None] * threads
    barrier = threading.Barrier(threads)

    def work(i):
        barrier.wait(timeout=30)
        results[i] = table.replay(block)

    old = sys.getswitchinterval()
    sys.setswitchinterval(5e-6)
    try:
        workers = [
            threading.Thread(target=work, args=(i,), name=f"replay-{i}")
            for i in range(threads)
        ]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in workers)
    return results


def assert_exactly_once(table, block, results):
    distinct = set(block)
    assert not any(full for _, _, full in results)
    assert sum(ins for ins, _, _ in results) == len(distinct)
    assert sum(ins + fnd for ins, fnd, _ in results) == len(results) * len(block)
    assert table.stored_keys() == distinct
    assert table.stored_count() == len(distinct)


@pytest.mark.parametrize("chunk", [64, None])
@pytest.mark.parametrize("kind,width", TABLES)
def test_four_threads_replay_the_same_block(kind, width, chunk, monkeypatch):
    if chunk is not None:
        set_chunk(monkeypatch, chunk)
    block = random_block(6_000, 2_000, 11)
    table = make_table(kind, width, len(set(block)))
    assert_exactly_once(table, block, replay_in_threads(table, block))


@pytest.mark.parametrize("kind,width", TABLES)
def test_lockstep_and_per_key_workers_share_a_table(kind, width, monkeypatch):
    # two workers insert through the lockstep while two go key by key, so
    # chain steps and frame claims interleave with lockstep steps
    set_chunk(monkeypatch, 64)
    block = random_block(6_000, 2_000, 12)
    table = make_table(kind, width, len(set(block)))
    lockstep = table._lockstep
    steps = []

    def every_other_thread(keys, *rest):
        if threading.current_thread().name.endswith(("-1", "-3")):
            return None
        steps.append(len(keys))
        return lockstep(keys, *rest)

    table._lockstep = every_other_thread
    assert_exactly_once(table, block, replay_in_threads(table, block))
    assert steps


class CheckedView:
    """A table's word view that runs ``check`` after every scatter into it."""

    def __init__(self, view, check):
        self.view, self.check = view, check

    def __getattr__(self, name):
        return getattr(self.view, name)

    def __array__(self, dtype=None, copy=None):
        return self.view

    def __getitem__(self, index):
        return self.view[index]

    def __setitem__(self, index, value):
        self.view[index] = value
        self.check()


def test_bucket_lockstep_writes_show_readers_only_whole_frames(monkeypatch):
    # between any two writes of the lockstep each frame is empty, claimed,
    # or published with the interior words that replay stores
    set_chunk(monkeypatch, 64)
    block = random_block(2_000, 2_000, 13)
    table = make_table("bucket", 3, len(set(block)))
    view = table._words.view
    span = table.frames_per_bucket * 3
    writes = []

    def check():
        frames = view.reshape(-1, 32)[:, :span].reshape(-1, 3)
        head, interior = frames[:, 0], frames[:, 1:]
        assert not ((head == EMPTY_WORD) & (interior != EMPTY_WORD).any(axis=1)).any()
        assert not ((head < CLAIMED_WORD) & (interior != 0).any(axis=1)).any()
        writes.append(1)

    table._words.view = CheckedView(view, check)
    assert table.replay(block) == (len(set(block)), len(block) - len(set(block)), False)
    assert len(writes) >= 3


def test_cuckoo_lockstep_writes_keep_every_stored_key_at_a_candidate_slot(monkeypatch):
    # a step writes the slots with the version odd, and once its words are
    # written every key stored before it is still at one of its candidate slots
    set_chunk(monkeypatch, 64)
    block = random_block(2_000, 2_000, 13)
    table = make_table("cuckoo", 1, len(set(block)))
    view, m = table._view, table.m
    lockstep = table._lockstep
    before = []
    writes = []
    moved = []

    def step(keys):
        slots = np.flatnonzero(view != EMPTY_WORD)
        before.append(view[slots].astype(np.uint64))
        placed = lockstep(keys)
        assert not table._version & 1
        moved.append((view[slots] != before[-1]).any())
        return placed

    def check():
        assert table._version & 1
        keys = before[-1]
        at = [view[hash_array(keys, a, b, m)] == keys for a, b in table._pairs]
        assert np.logical_or.reduce(at).all()
        writes.append(len(before))

    table._lockstep = step
    table._view = CheckedView(view, check)
    try:
        assert table.replay(block) == (len(set(block)), len(block) - len(set(block)), False)
    finally:
        table._view = view
    assert table.stored_keys() == set(block) and not table._stash
    # each step wrote once, and some steps moved residents on
    assert len(before) >= 10 and writes == list(range(1, len(before) + 1))
    assert any(moved)


@pytest.mark.parametrize("kind,width", TABLES)
def test_readers_never_lose_a_key_to_a_concurrent_lockstep(kind, width, monkeypatch):
    # Reader threads look up stored keys, per key and through the numpy
    # pre-pass, while another thread replays a fresh block through the
    # lockstep steps, whose scatters run without the interpreter lock.  A
    # stored key is always seen, and a fresh key once seen stays seen.  A
    # cuckoo pre-pass is trusted only when the version it read was even and
    # unchanged, as the step trusts it; a bucket frame never moves.  Every
    # bucket frame with a published head holds the interior words replay
    # stores.
    set_chunk(monkeypatch, 512)
    keys = np.random.default_rng(14).permutation(1 << 17)[:80_000]
    old, fresh = keys[:10_000], keys[10_000:]
    table = make_table(kind, width, 2 * len(keys))
    assert table.replay(old) == (len(old), 0, False)
    pad = (0,) * (width - 1)
    lookup = table.contains if kind == "cuckoo" else lambda k: table.contains((k,) + pad)
    old_sample, fresh_sample = old[::25].tolist(), fresh[::50].tolist()
    old64, fresh64 = old.astype(np.uint64), fresh[::10].astype(np.uint64)
    lockstep = table._lockstep
    steps = []

    def counted(misses, *rest):
        placed = lockstep(misses, *rest)
        steps.append(placed)
        return placed

    table._lockstep = counted
    ready = threading.Barrier(3)
    done = threading.Event()
    errors = []
    loops = []

    def validated(probe):
        # the probe's mask, or None when a cuckoo write overlapped it
        if kind == "bucket":
            return probe()
        version = table._version
        mask = probe()
        return None if version & 1 or table._version != version else mask

    if width > 1:
        span = table.frames_per_bucket * width
        frame_words = (np.arange(table.buckets)[:, None] * 32 + np.arange(span)).ravel()

    def frames_torn():
        # take() loads the words one at a time in index order, so each
        # frame's head is read before its interior words
        frames = table._words.view.take(frame_words).reshape(-1, width)
        return ((frames[:, 0] < CLAIMED_WORD) & (frames[:, 1:] != 0).any(axis=1)).any()

    def per_key():
        seen = np.zeros(len(fresh_sample), dtype=bool)
        while True:
            if not all(map(lookup, old_sample)):
                errors.append("a stored key missed by contains")
            now = np.array(list(map(lookup, fresh_sample)))
            if (seen & ~now).any():
                errors.append("a fresh key seen by contains went missing")
            seen |= now
            loops.append("per-key")
            if done.is_set():
                break

    def pre_pass():
        seen = np.zeros(len(fresh64), dtype=bool)
        while True:
            mask = validated(lambda: table._stored(old64))
            if mask is not None and not mask.all():
                errors.append("a stored key missed by the pre-pass")
            mask = validated(lambda: table._stored(fresh64))
            if mask is not None:
                if (seen & ~mask).any():
                    errors.append("a fresh key seen by the pre-pass went missing")
                seen |= mask
            if width > 1 and frames_torn():
                errors.append("a published head over unwritten interior words")
            loops.append("pre-pass")
            if done.is_set():
                break

    def guarded(loop):
        try:
            ready.wait(timeout=30)
            loop()
        except BaseException as exc:  # surfaced after the join
            errors.append(exc)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(5e-6)
    readers = [threading.Thread(target=guarded, args=(f,)) for f in (per_key, pre_pass)]
    try:
        for t in readers:
            t.start()
        ready.wait(timeout=30)
        result = table.replay(fresh)
    finally:
        done.set()
        for t in readers:
            t.join(timeout=60)
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in readers)
    assert not errors, errors[:3]
    assert result == (len(fresh), 0, False)
    assert len(steps) >= 20 and None not in steps
    assert set(loops) == {"per-key", "pre-pass"}
