import numpy as np
import pytest
from scipy.stats import chi2

from hashkeeper.hashing import MOD_PRIME, HashFamily, generate, hash_array


def vector_hash(family, i, keys, m):
    """Same formula as HashFamily.hash, evaluated over a numpy array."""
    a, b = family.pairs[i]
    keys = np.asarray(keys, dtype=np.uint64)
    return ((np.uint64(a) * keys + np.uint64(b)) % np.uint64(MOD_PRIME)) % np.uint64(m)


def test_generate_is_deterministic():
    assert generate(123, 4).params == generate(123, 4).params
    assert generate(123, 4).pairs == HashFamily(123, 4).pairs


def test_distinct_seeds_yield_distinct_constants():
    seen = set()
    for seed in range(1000):
        for p in generate(seed, 4).params:
            seen.add((p.a, p.b))
    assert len(seen) == 4000


def test_single_function_rejected():
    with pytest.raises(ValueError):
        generate(7, 1)
    with pytest.raises(ValueError):
        generate(7, 0)


def test_multiplier_is_odd_nonzero_and_below_modulus():
    for seed in (0, 1, 2**63, 2**64 - 1):
        for p in generate(seed, 6).params:
            assert p.a % 2 == 1
            assert 0 < p.a < MOD_PRIME
            assert 0 <= p.b < MOD_PRIME


def test_single_slot_table_maps_everything_to_zero():
    f = generate(99, 4)
    for i in range(4):
        for key in (0, 1, 12345, 2**32 - 3):
            assert f.hash(i, key, 1) == 0


def test_hash_is_pure_and_in_range():
    f = generate(5, 4)
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 2**32 - 2, size=2000).tolist()
    for i in range(4):
        for m in (1, 2, 7, 1024, 10**6):
            first = [f.hash(i, k, m) for k in keys]
            assert first == [f.hash(i, k, m) for k in keys]
            assert all(0 <= v < m for v in first)


def test_function_index_out_of_range():
    f = generate(5, 4)
    with pytest.raises(IndexError):
        f.hash(4, 1, 10)


EDGE_KEYS = [0, 1, 2**32 - 2, 2**32 - 1]
TABLE_SIZES = [1, 2, 7, 1024, 10**6, 593_190, 2**32 - 1]


@pytest.mark.parametrize("m", TABLE_SIZES)
def test_hash_array_matches_the_per_key_hash(m):
    f = generate(5, 4)
    rng = np.random.default_rng(m)
    keys = EDGE_KEYS + rng.integers(0, 2**32, size=500).tolist()
    array = np.array(keys, dtype=np.uint64)
    for i, (a, b) in enumerate(f.pairs):
        assert hash_array(array, a, b, m).tolist() == [f.hash(i, k, m) for k in keys]
    # one function per element, as a cuckoo round hashes its pending keys
    step = rng.integers(0, 4, size=len(keys))
    a, b = np.array(f.pairs, dtype=np.uint64).T
    got = hash_array(array, a[step], b[step], m).tolist()
    assert got == [f.hash(int(i), k, m) for i, k in zip(step, keys)]
    # every function for every key, as a displaced key's first function is sought
    got = hash_array(array[:, None], a, b, m).tolist()
    assert got == [[f.hash(i, k, m) for i in range(4)] for k in keys]


def test_uniformity_chi_square():
    # 10^6 random keys into 1024 cells; the statistic must stay below the
    # 99th percentile of the chi-square distribution with 1023 degrees of
    # freedom.
    f = generate(2024, 4)
    m = 1024
    n = 10**6
    rng = np.random.default_rng(7)
    keys = rng.integers(0, 2**32 - 2, size=n, dtype=np.uint64)
    expected = n / m
    bound = chi2.ppf(0.99, df=m - 1)
    for i in range(4):
        counts = np.bincount(vector_hash(f, i, keys, m).astype(np.int64), minlength=m)
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < bound, f"function {i}: chi2 {stat:.1f} >= {bound:.1f}"


def test_pairwise_independence_chi_square():
    # Joint histogram of (h0, h1) over 10^6 keys at m=256: no detectable
    # correlation at the 99th percentile.
    f = generate(31337, 4)
    m = 256
    n = 10**6
    rng = np.random.default_rng(11)
    keys = rng.integers(0, 2**32 - 2, size=n, dtype=np.uint64)
    h0 = vector_hash(f, 0, keys, m).astype(np.int64)
    h1 = vector_hash(f, 1, keys, m).astype(np.int64)
    counts = np.bincount(h0 * m + h1, minlength=m * m)
    expected = n / (m * m)
    stat = float(((counts - expected) ** 2 / expected).sum())
    bound = chi2.ppf(0.99, df=m * m - 1)
    assert stat < bound, f"joint chi2 {stat:.1f} >= {bound:.1f}"
