import threading

from hashkeeper.words import CLAIMED_WORD, EMPTY_WORD, WordArray


def test_sentinels_are_distinct_top_words():
    assert EMPTY_WORD == 0xFFFFFFFF
    assert CLAIMED_WORD == 0xFFFFFFFE
    assert EMPTY_WORD != CLAIMED_WORD


def test_compare_exchange_only_fires_on_expected():
    arr = WordArray(4)
    assert arr.compare_exchange(1, EMPTY_WORD, 5)
    assert not arr.compare_exchange(1, EMPTY_WORD, 6)
    assert arr.words[1] == 5


def test_concurrent_cas_claims_each_slot_once():
    arr = WordArray(64)
    wins = [0] * 8
    barrier = threading.Barrier(8)

    def worker(wid):
        barrier.wait()
        for i in range(64):
            if arr.compare_exchange(i, EMPTY_WORD, wid):
                wins[wid] += 1

    threads = [threading.Thread(target=worker, args=(w,)) for w in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sum(wins) == 64
    assert all(w != EMPTY_WORD for w in arr.words)


def test_writes_counts_each_successful_compare_exchange():
    arr = WordArray(4)
    assert arr.writes == 0
    assert arr.compare_exchange(1, EMPTY_WORD, CLAIMED_WORD)
    assert not arr.compare_exchange(1, EMPTY_WORD, 6)
    assert arr.writes == 1
    assert arr.compare_exchange(1, CLAIMED_WORD, 5)
    assert arr.writes == 2
