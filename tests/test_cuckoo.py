import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from hashkeeper.cuckoo import (
    FOUND,
    INSERTED,
    TABLE_FULL,
    CuckooTable,
    MAX_KEY,
    RebuildError,
)
from hashkeeper.hashing import HashFamily
from hashkeeper.words import EMPTY_WORD
from oracles import SequentialCuckoo


def make_table(expected=100, seed=0, **kw):
    return CuckooTable(expected, HashFamily(seed, kw.pop("count", 4)), **kw)


class TestSizing:
    def test_scale_factor_point_two(self):
        t = CuckooTable(10, HashFamily(0), scale=1.2)
        assert t.m == 12

    def test_default_scale(self):
        assert make_table(100).m == 125

    def test_zero_expected_rejected(self):
        with pytest.raises(ValueError):
            CuckooTable(0, HashFamily(0))

    def test_bad_stash_and_scale_rejected(self):
        with pytest.raises(ValueError):
            CuckooTable(10, HashFamily(0), stash_size=0)
        with pytest.raises(ValueError):
            CuckooTable(10, HashFamily(0), scale=1.0)


class TestFindOrInsert:
    def test_insert_into_empty_table(self):
        t = make_table()
        out = t.find_or_insert(42)
        assert out.tag == INSERTED and out.evictions == 0

    def test_repeat_insert_found(self):
        t = make_table()
        assert t.find_or_insert(42).tag == INSERTED
        out = t.find_or_insert(42)
        assert out.tag == FOUND and out.evictions == 0

    def test_sentinel_and_range_rejected(self):
        t = make_table()
        with pytest.raises(ValueError):
            t.find_or_insert(EMPTY_WORD)
        with pytest.raises(ValueError):
            t.find_or_insert(-1)
        with pytest.raises(ValueError):
            t.find_or_insert(MAX_KEY + 1)

    def test_eviction_relocates_resident_key(self):
        # find two keys that share their first slot, so the second insert
        # displaces the first, which must survive at another of its slots
        t = make_table(20, seed=3)
        first = 1
        second = next(
            k
            for k in range(2, 10_000)
            if t.family.hash(0, k, t.m) == t.family.hash(0, first, t.m)
        )
        assert t.find_or_insert(first).tag == INSERTED
        out = t.find_or_insert(second)
        assert out.tag == INSERTED and out.evictions >= 1
        assert t.contains(first) and t.contains(second)

    def test_chain_bound_respected(self):
        t = make_table(40, seed=1, max_evictions=3, stash_size=5)
        rng = random.Random(0)
        for _ in range(60):
            out = t.find_or_insert(rng.randrange(0, 10**6))
            assert out.evictions <= t.max_evictions
            if out.tag == TABLE_FULL:
                break

    def test_exactly_once_sequential(self):
        rng = random.Random(4)
        keys = [rng.randrange(0, 3000) for _ in range(8000)]
        t = make_table(len(set(keys)), seed=9)
        inserted = sum(1 for k in keys if t.find_or_insert(k).tag == INSERTED)
        assert inserted == len(set(keys))
        assert t.stored_keys() == set(keys)


class TestContains:
    def test_fresh_table_contains_nothing(self):
        t = make_table()
        assert not t.contains(1)

    def test_read_your_write(self):
        t = make_table()
        t.find_or_insert(77)
        assert t.contains(77)

    def test_disjoint_queries_all_false(self):
        t = make_table(10_000, seed=5)
        rng = random.Random(1)
        present = set()
        while len(present) < 10_000:
            present.add(rng.randrange(0, 10**8))
        absent = set()
        while len(absent) < 10_000:
            k = rng.randrange(0, 10**8)
            if k not in present:
                absent.add(k)
        for k in present:
            t.find_or_insert(k)
        assert all(t.contains(k) for k in present)
        assert not any(t.contains(k) for k in absent)

    def test_lookup_touches_bounded_words(self):
        t = make_table(50, seed=2, stash_size=7)
        rng = random.Random(3)
        for _ in range(60):
            t.find_or_insert(rng.randrange(0, 10**6))
        bound = t.family.count + t.stash_size
        for k in range(200):
            found, reads = t._probe(k)
            assert reads <= bound


class TestPlacementInvariant:
    def test_every_stored_key_sits_at_a_candidate_slot(self):
        t = make_table(500, seed=8)
        rng = random.Random(7)
        for _ in range(600):
            t.find_or_insert(rng.randrange(0, 550))
        for i, w in enumerate(t._slots):
            if w != EMPTY_WORD:
                assert any(
                    t.family.hash(j, w, t.m) == i for j in range(t.family.count)
                )


class TestNoDuplicateStorage:
    def test_concurrent_stress_leaves_single_copies(self):
        # scan slots and stash as a multiset: no key may occupy two words
        import sys
        from concurrent.futures import ThreadPoolExecutor

        old = sys.getswitchinterval()
        sys.setswitchinterval(5e-6)
        try:
            rng = random.Random(42)
            for trial in range(8):
                keys = [rng.randrange(0, 1200) for _ in range(6000)]
                t = CuckooTable(len(set(keys)), HashFamily(trial, 4))
                blocks = [keys[i::4] for i in range(4)]
                with ThreadPoolExecutor(4) as pool:
                    list(pool.map(lambda b: [t.find_or_insert(k) for k in b], blocks))
                stored = [w for w in t._slots if w != EMPTY_WORD]
                stored += [w for w in t._stash if w != EMPTY_WORD]
                assert len(stored) == len(set(stored)), f"trial {trial}"
                assert set(stored) == set(keys)
        finally:
            sys.setswitchinterval(old)


class TestConcurrentSameKey:
    def test_three_workers_exactly_one_insert(self):
        # every repetition must behave like a single sequential insert
        fam = HashFamily(17, 4)
        pool = ThreadPoolExecutor(3)
        barrier = threading.Barrier(3)

        def attempt(table, key):
            barrier.wait()
            return table.find_or_insert(key).tag

        try:
            for rep in range(10_000):
                table = CuckooTable(8, fam)
                futures = [pool.submit(attempt, table, 5) for _ in range(3)]
                tags = [f.result() for f in futures]
                assert sorted(tags) == [FOUND, FOUND, INSERTED], (rep, tags)
                assert table.stored_keys() == {5}
        finally:
            pool.shutdown()


class TestStash:
    def test_overflow_goes_to_stash_and_stays_findable(self):
        t = make_table(8, seed=6, count=2, max_evictions=2, stash_size=4, scale=1.25)
        rng = random.Random(9)
        inserted = []
        while not t._stash:
            k = rng.randrange(0, 10**6)
            if t.find_or_insert(k).tag == INSERTED:
                inserted.append(k)
        stashed = [w for w in t._stash if w != EMPTY_WORD]
        assert stashed
        for k in stashed:
            assert t.contains(k)

    def test_table_full_when_stash_exhausted(self):
        t = make_table(4, seed=6, count=2, max_evictions=1, stash_size=1, scale=1.25)
        rng = random.Random(2)
        seen_full = False
        for _ in range(200):
            if t.find_or_insert(rng.randrange(0, 10**6)).tag == TABLE_FULL:
                seen_full = True
                break
        assert seen_full

    def test_full_stash_keeps_every_inserted_key(self):
        # the key carried out of a full stash stays stored, before a rebuild
        # and after it
        for seed in range(4):
            t = CuckooTable(20, HashFamily(seed, 2), max_evictions=1, stash_size=1, scale=1.05)
            inserted = set()
            key = 0
            while (tag := t.find_or_insert(key).tag) != TABLE_FULL:
                assert tag == INSERTED
                inserted.add(key)
                key += 1
            inserted.add(key)
            assert t.stored_keys() == inserted, seed
            assert all(t.contains(k) for k in inserted), seed
            assert t.rebuild(1234).stored_keys() == inserted, seed

    @pytest.mark.parametrize("count", [2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_sequential_fill_matches_the_reference(self, seed, count):
        # near the load threshold, with repeats: chains up to the bound,
        # the stash, then table_full
        t = make_table(200, seed=seed, count=count, stash_size=3, scale=1.05)
        ref = SequentialCuckoo(t.family, t.m, t.max_evictions, t.stash_size)
        rng = random.Random(seed)
        outcomes = []
        while not outcomes or outcomes[-1][0] != TABLE_FULL:
            key = rng.randrange(0, 2 * t.m)
            out = t.find_or_insert(key)
            outcomes.append((out.tag, out.evictions))
            assert outcomes[-1] == ref.find_or_insert(key), len(outcomes)
        assert {tag for tag, _ in outcomes} == {INSERTED, FOUND, TABLE_FULL}
        assert max(evictions for _, evictions in outcomes) == t.max_evictions
        assert t._view.tolist() == ref.slots
        assert t._stash == ref.stash

    @pytest.mark.parametrize("count", [2, 3])
    def test_each_insert_bumps_the_version_once(self, count):
        # a whole chain, evictions and stash append included, is one
        # critical section between two version stores
        t = make_table(200, seed=1, count=count, stash_size=3, scale=1.05)
        rng = random.Random(count)
        outcomes = []
        while not outcomes or outcomes[-1].tag != TABLE_FULL:
            before = t._version
            outcomes.append(t.find_or_insert(rng.randrange(0, 2 * t.m)))
            assert t._version - before == (0 if outcomes[-1].tag == FOUND else 2)
        assert {o.tag for o in outcomes} == {INSERTED, FOUND, TABLE_FULL}
        assert any(o.evictions == 1 for o in outcomes)
        assert max(o.evictions for o in outcomes) == t.max_evictions
        assert len(t._stash) == t.stash_size + 1


class TestRebuild:
    def test_rebuild_empty_table(self):
        t = make_table(10)
        fresh = t.rebuild(99)
        assert fresh.rebuild_count == 1
        assert fresh.stored_keys() == set()
        assert fresh.m >= t.m

    def test_rebuild_after_table_full_preserves_keys(self):
        t = make_table(8, seed=6, count=2, max_evictions=1, stash_size=1, scale=1.25)
        rng = random.Random(5)
        while True:
            if t.find_or_insert(rng.randrange(0, 10**6)).tag == TABLE_FULL:
                break
        before = t.stored_keys()
        fresh = t.rebuild(1234)
        assert fresh.stored_keys() == before
        assert fresh.rebuild_count == 1

    def test_rebuild_preserves_many_keys(self):
        t = make_table(100_000, seed=10)
        rng = random.Random(11)
        keys = set()
        while len(keys) < 100_000:
            keys.add(rng.randrange(0, 2**31))
        for k in keys:
            assert t.find_or_insert(k).tag == INSERTED
        fresh = t.rebuild(4321)
        assert len(fresh.stored_keys()) == len(keys)
        assert fresh.stored_keys() == keys


class TestLoadToleranceSmoke:
    def test_ten_seeds_no_table_full(self):
        # full 100-seed version lives in the acceptance suite
        for seed in range(10):
            fam = HashFamily(seed, 4)
            t = CuckooTable(10_000, fam, stash_size=101)
            rng = random.Random(seed)
            keys = set()
            while len(keys) < 10_000:
                keys.add(rng.randrange(0, 2**31))
            for k in keys:
                assert t.find_or_insert(k).tag != TABLE_FULL
