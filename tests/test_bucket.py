import random

import pytest

from hashkeeper.bucket import (
    BUCKET_WORDS,
    FOUND,
    INSERTED,
    TABLE_FULL,
    BucketTable,
    fingerprint,
)
from hashkeeper.hashing import HashFamily
from hashkeeper.words import CLAIMED_WORD, EMPTY_WORD


def make_table(expected=100, width=1, seed=0):
    return BucketTable(expected, width, HashFamily(seed, 4))


class TestSizing:
    def test_width_one_gives_32_frames(self):
        t = make_table(1000, width=1)
        assert t.frames_per_bucket == 32
        assert t.buckets == -(-int(1.25 * 1000) // 32)

    def test_width_three_leaves_trailing_words(self):
        t = make_table(100, width=3)
        assert t.frames_per_bucket == 10
        # two words per bucket can never be part of a frame
        assert BUCKET_WORDS - t.frames_per_bucket * 3 == 2

    def test_full_width_vector(self):
        t = make_table(1, width=32)
        assert t.frames_per_bucket == 1
        assert t.buckets == 2  # ceil(1.25 * 1 / 1)

    def test_width_bounds(self):
        with pytest.raises(ValueError):
            make_table(10, width=0)
        with pytest.raises(ValueError):
            make_table(10, width=33)
        with pytest.raises(ValueError):
            BucketTable(0, 1, HashFamily(0))


class TestFingerprint:
    def test_width_one_is_identity(self):
        assert fingerprint((12345,)) == 12345

    def test_fold_is_deterministic_and_32_bit(self):
        v = (1, 2, 3)
        assert fingerprint(v) == fingerprint(list(v))
        assert 0 <= fingerprint(v) < 2**32
        assert fingerprint((1, 2, 3)) != fingerprint((3, 2, 1))


class TestFindOrInsert:
    def test_insert_then_found(self):
        t = make_table()
        out = t.find_or_insert((9,))
        assert out.tag == INSERTED
        out = t.find_or_insert((9,))
        assert out.tag == FOUND and out.buckets_probed == 1

    def test_vector_written_into_first_free_aligned_frame(self):
        t = make_table(20, width=3, seed=4)
        vec = (11, 22, 33)
        assert t.find_or_insert(vec).tag == INSERTED
        frames = t.frame_map()
        assert list(frames.values()) == [vec]
        (idx,) = frames.keys()
        assert (idx % BUCKET_WORDS) % 3 == 0
        bucket = t.family.hash(0, fingerprint(vec), t.buckets)
        assert idx // BUCKET_WORDS == bucket
        assert idx % BUCKET_WORDS == 0  # first frame of an empty bucket

    def test_bad_vectors_rejected(self):
        t = make_table(10, width=2)
        with pytest.raises(ValueError):
            t.find_or_insert((1,))
        with pytest.raises(ValueError):
            t.find_or_insert((EMPTY_WORD, 0))
        with pytest.raises(ValueError):
            t.find_or_insert((CLAIMED_WORD, 0))

    def test_probe_bound(self):
        t = make_table(50, seed=2)
        rng = random.Random(0)
        for _ in range(300):
            out = t.find_or_insert((rng.randrange(0, 200),))
            assert 1 <= out.buckets_probed <= t.family.count

    def test_table_full_reported(self):
        t = BucketTable(1, 32, HashFamily(5, 4))  # 2 buckets, 1 frame each
        vecs = [tuple([k] + [0] * 31) for k in range(10)]
        tags = [t.find_or_insert(v).tag for v in vecs]
        assert TABLE_FULL in tags
        first_full = tags.index(TABLE_FULL)
        assert first_full == 2  # both frames taken by the first two vectors
        assert all(tag == TABLE_FULL for tag in tags[first_full:])

    def test_exactly_once_sequential_wide(self):
        rng = random.Random(6)
        vecs = [
            (rng.randrange(0, 50), rng.randrange(0, 2**32), rng.randrange(0, 2**32))
            for _ in range(400)
        ]
        t = BucketTable(len(set(vecs)), 3, HashFamily(7, 4))
        inserted = sum(1 for v in vecs if t.find_or_insert(v).tag == INSERTED)
        assert inserted == len(set(vecs))
        assert t.stored_vectors() == set(vecs)


class TestSievedOverflow:
    def test_33_keys_into_one_bucket_spill_to_second_function(self):
        fam = HashFamily(1, 4)
        t = BucketTable(100, 1, fam)  # 4 buckets, 32 frames each
        B = t.buckets
        keys = [k for k in range(100_000) if fam.hash(0, k, B) == 0]
        head, spill = keys[:32], next(
            k for k in keys[32:] if fam.hash(1, k, B) != 0
        )
        for k in head:
            out = t.find_or_insert((k,))
            assert out.tag == INSERTED and out.buckets_probed == 1
        out = t.find_or_insert((spill,))
        assert out.tag == INSERTED and out.buckets_probed == 2
        frames = t.frame_map()
        in_bucket0 = {v[0] for i, v in frames.items() if i < BUCKET_WORDS}
        assert in_bucket0 == set(head)
        spill_bucket = fam.hash(1, spill, B)
        assert frames[
            next(i for i, v in frames.items() if v == (spill,))
        ] == (spill,)
        assert (
            next(i for i, v in frames.items() if v == (spill,)) // BUCKET_WORDS
            == spill_bucket
        )

    def test_against_naive_simulation(self):
        # oracle: straightforward per-bucket list simulation of the same
        # probe-and-append discipline
        fam = HashFamily(9, 4)
        t = BucketTable(200, 1, fam)
        B = t.buckets
        sim = {b: [] for b in range(B)}

        def naive(key):
            for j in range(4):
                b = fam.hash(j, key, B)
                if key in sim[b]:
                    return FOUND, None
                if len(sim[b]) < 32:
                    sim[b].append(key)
                    return INSERTED, b
            return TABLE_FULL, None

        rng = random.Random(13)
        for _ in range(500):
            k = rng.randrange(0, 260)
            tag, bucket = naive(k)
            out = t.find_or_insert((k,))
            assert out.tag == tag
        # identical final placement, bucket by bucket
        frames = t.frame_map()
        for b in range(B):
            stored = {
                v[0]
                for i, v in frames.items()
                if i // BUCKET_WORDS == b
            }
            assert stored == set(sim[b])


class TestNoDuplicateStorage:
    def test_concurrent_stress_leaves_single_copies(self):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        old = sys.getswitchinterval()
        sys.setswitchinterval(5e-6)
        try:
            rng = random.Random(17)
            for trial in range(8):
                keys = [rng.randrange(0, 1200) for _ in range(6000)]
                t = BucketTable(len(set(keys)), 1, HashFamily(trial, 4))
                blocks = [keys[i::4] for i in range(4)]
                with ThreadPoolExecutor(4) as pool:
                    list(pool.map(lambda b: [t.find_or_insert((k,)) for k in b], blocks))
                frames = list(t.frame_map().values())
                assert len(frames) == len(set(frames)), f"trial {trial}"
                assert {v[0] for v in frames} == set(keys)
        finally:
            sys.setswitchinterval(old)


class TestContains:
    def test_fresh_table(self):
        assert not make_table().contains((3,))

    def test_after_insert(self):
        t = make_table()
        t.find_or_insert((3,))
        assert t.contains((3,))

    def test_disjoint_sets_no_false_results(self):
        rng = random.Random(21)
        present = set()
        while len(present) < 10_000:
            present.add(rng.randrange(0, 10**8))
        absent = set()
        while len(absent) < 10_000:
            k = rng.randrange(0, 10**8)
            if k not in present:
                absent.add(k)
        t = BucketTable(len(present), 1, HashFamily(3, 4))
        for k in present:
            t.find_or_insert((k,))
        assert all(t.contains((k,)) for k in present)
        assert not any(t.contains((k,)) for k in absent)


class TestStability:
    def test_published_frames_never_move(self):
        t = make_table(400, width=3, seed=12)
        rng = random.Random(14)
        batch1 = [
            (rng.randrange(0, 10**6), rng.randrange(0, 10**6), rng.randrange(0, 10**6))
            for _ in range(100)
        ]
        for v in batch1:
            t.find_or_insert(v)
        snapshot = t.frame_map()
        batch2 = [
            (rng.randrange(0, 10**6), rng.randrange(0, 10**6), rng.randrange(0, 10**6))
            for _ in range(100)
        ]
        for v in batch2:
            t.find_or_insert(v)
        later = t.frame_map()
        for idx, vec in snapshot.items():
            assert later[idx] == vec

    def test_frame_alignment(self):
        for width in (1, 3, 5, 8, 32):
            t = make_table(200, width=width, seed=width)
            rng = random.Random(width)
            for _ in range(200):
                vec = tuple(rng.randrange(0, 10**6) for _ in range(width))
                t.find_or_insert(vec)
            for idx in t.frame_map():
                assert (idx % BUCKET_WORDS) % width == 0


class TestEnumeration:
    @pytest.mark.parametrize("width", [1, 3, 32])
    def test_walks_agree_and_skip_claimed_and_padding(self, width):
        t = make_table(40, width=width, seed=width)
        rng = random.Random(width)
        vectors = {tuple(rng.randrange(0, 10**6) for _ in range(width)) for _ in range(20)}
        for v in vectors:
            assert t.find_or_insert(v).tag == INSERTED
        words = t._words.words
        span = t.frames_per_bucket * width
        heads = [
            base + off
            for base in range(0, len(words), BUCKET_WORDS)
            for off in range(0, span, width)
        ]
        # an insert caught between its claim and its publication
        claimed = next(i for i in heads if words[i] == EMPTY_WORD)
        words[claimed] = CLAIMED_WORD
        for i in range(claimed + 1, claimed + width):
            words[i] = 7
        # words past the last frame of a bucket belong to no frame
        for base in range(0, len(words), BUCKET_WORDS):
            for i in range(base + span, base + BUCKET_WORDS):
                words[i] = 5
        frames = t.frame_map()
        assert claimed not in frames
        assert t.stored_count() == len(frames) == len(t.stored_vectors()) == len(vectors)
        assert t.stored_vectors() == set(frames.values()) == vectors
        assert t.stored_keys() == {v[0] for v in t.stored_vectors()}
