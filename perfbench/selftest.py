"""Fast self-test of the benchmark at small sizes.

    python3 perfbench/selftest.py

Runs both modes of ``workload.py`` end to end on small sequences (and on the
shipped ``ring`` model in place of ``altbit``), checks that they print every
metric named in BENCHMARK.json with its unit, and shows that the correctness
checks catch faults: a table that drops one stored key, a table whose
``contains`` misses a key, and an explored trace with one code changed must
each fail a check.  Takes a few seconds.
"""

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import workload as wl  # noqa: E402
from hashkeeper import BucketTable, CuckooTable, HashFamily  # noqa: E402

CAL = (2_000, 20_000, 0.01)
SMALL = {
    "uniform-d1": {"length": 20_000, "duplication": 1, "workers": 1, "round_s": 1.0, "cal": CAL},
    "uniform-d10-2w": {"length": 20_000, "duplication": 10, "workers": 2, "round_s": 1.0,
                       "cal": CAL},
    "ring": {"model": "ring", "workers": 1, "round_s": 1.0, "cal": CAL},
}


class DroppingCuckoo(CuckooTable):
    def stored_keys(self):
        keys = super().stored_keys()
        keys.discard(min(keys))
        return keys


class DroppingBucket(BucketTable):
    def stored_vectors(self):
        vectors = super().stored_vectors()
        vectors.discard(min(vectors))
        return vectors


class ForgetfulCuckoo(CuckooTable):
    forgotten = None

    def contains(self, key):
        return key != self.forgotten and super().contains(key)


def build_dropping(kind, unique):
    family = HashFamily(wl.HASH_SEED, wl.HASH_FUNCTIONS)
    if kind == "cuckoo":
        return DroppingCuckoo(unique, family, scale=wl.SCALE)
    return DroppingBucket(unique, wl.WIDTH, family, scale=wl.SCALE)


def prepare(spec, seed=1):
    wl.OUT.mkdir(exist_ok=True)
    path = wl.OUT / "selftest.trace"
    workload, explored = wl.produce(spec, seed, path, {})
    for leftover in (path, Path(f"{path}.meta")):
        leftover.unlink(missing_ok=True)
    distinct = np.unique(np.asarray(workload.codes, dtype=np.int64))
    return workload, explored, distinct, wl.negative_sample(distinct, seed)


def fill(kind, table, codes):
    for key in codes:
        table.find_or_insert(key if kind == "cuckoo" else (key,))


class WholeRuns(unittest.TestCase):
    def setUp(self):
        self.saved = wl.WORKLOADS
        wl.WORKLOADS = SMALL
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.expected = {
            0: {m["name"]: m["unit"] for m in spec["end_to_end"] if m["name"] != "wall_s"},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        }

    def tearDown(self):
        wl.WORKLOADS = self.saved

    def test_every_workload_both_modes(self):
        for name, spec in SMALL.items():
            for trace in (0, 1):
                with self.subTest(workload=name, trace=trace):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = wl.main([
                            "--workload", name, "--seed", "3",
                            "--seconds", "1", "--trace", str(trace),
                        ])
                    *_, detail, result = map(json.loads, out.getvalue().splitlines())
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    passes = 2 if trace else 2 * wl.rounds_for(spec, 1)
                    self.assertEqual(result["attempted"], passes * detail["detail"]["length"])
                    units = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(units, self.expected[trace])


class ChecksCatchFaults(unittest.TestCase):
    def test_clean_replay_passes(self):
        spec = SMALL["uniform-d10-2w"]
        workload, _, distinct, negatives = prepare(spec)
        checks = wl.Checks()
        samples, _, attempted, failed = wl.replay(
            workload, 2, len(distinct), checks, distinct, negatives, CAL
        )
        self.assertEqual(checks.failures, [])
        self.assertEqual((attempted, failed), (2 * spec["length"], 0))
        self.assertEqual([len(v) for v in samples.values()], [1, 1])

    def test_table_that_drops_a_stored_key_fails_the_run(self):
        workload, _, distinct, negatives = prepare(SMALL["uniform-d1"])
        checks = wl.Checks()
        wl.replay(workload, 1, len(distinct), checks, distinct, negatives, CAL,
                  build=build_dropping)
        self.assertEqual(len(checks.failures), 2, checks.failures)
        # The benchmark's own check catches it too, apart from bench.run.
        for kind in wl.KINDS:
            table = build_dropping(kind, len(distinct))
            fill(kind, table, workload.codes)
            checks = wl.Checks()
            wl.check_table(checks, kind, table, distinct, negatives)
            self.assertEqual(len(checks.failures), 1, checks.failures)
            self.assertIn("1 missing", checks.failures[0])

    def test_contains_that_misses_a_key_fails(self):
        workload, _, distinct, negatives = prepare(SMALL["uniform-d1"])
        table = ForgetfulCuckoo(len(distinct), HashFamily(0, 4), scale=wl.SCALE)
        table.forgotten = int(distinct[0])
        fill("cuckoo", table, workload.codes)
        checks = wl.Checks()
        wl.check_table(checks, "cuckoo", table, distinct, negatives)
        self.assertEqual(checks.failures, ["cuckoo: contains is false for 1 stored keys"])

    def test_changed_trace_fails(self):
        spec = SMALL["ring"]
        workload, explored, distinct, _ = prepare(spec)
        checks = wl.Checks()
        wl.check_sequence(checks, spec, workload, explored, distinct)
        self.assertEqual(checks.failures, [])
        workload.codes[5] = max(explored) + 1
        distinct = np.unique(np.asarray(workload.codes, dtype=np.int64))
        wl.check_sequence(checks, spec, workload, explored, distinct)
        self.assertEqual(len(checks.failures), 2, checks.failures)


if __name__ == "__main__":
    unittest.main()
