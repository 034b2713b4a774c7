"""One benchmark workload, run by ``run.py`` in a process of its own.

The workload process produces the key sequence through the program's public
functions and replays it against both tables through
``bench.run(..., verify=True)``, one round (one call per table) in each of a
few fresh processes.  It checks every result against computations made apart
from the program: numpy for the distinct set, and the brute-force references
in ``references.json`` for explored traces.  With ``--trace 1`` it drives
``find_or_insert`` itself instead, with a timer around each call, and reports
per-layer figures.  It prints a detail line and then the result line.

The end-to-end times are scaled to a reference machine speed.  A
calibration pass, the benchmark's own plain-Python table over a fixed key
sequence, runs before and after the set-up, and in each round before the
first ``bench.run`` call and after every call.  The set-up time is divided
by the median of the passes around it, the calls' times by the median of
the passes in the round processes, and each is multiplied by the pass's
reference time.  The import of the program is scaled by that of numpy.  On a shared host whose speed changes threefold within an
hour, the ratio holds where the raw time does not.  The raw figures are in
the detail line.
"""

import argparse
import functools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from array import array
from pathlib import Path

import numpy as np

import hashkeeper
from hashkeeper import (
    FOUND,
    INSERTED,
    BucketTable,
    CuckooTable,
    HashFamily,
    InternalConsistencyError,
    bench,
)

import reference

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

KINDS = ("cuckoo", "bucket")
HASH_SEED = 0
HASH_FUNCTIONS = 4
SCALE = 1.25
WIDTH = 1
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
NEGATIVES = 10_000
HASH_CALLS = 100_000

# Seed of the calibration pass's keys (see calibrate()).
CAL_SEED = 20091

# ``round_s`` is the measured time of one round process on the machine the
# README describes; ``--seconds`` divided by it gives the number of rounds,
# so the same arguments always do the same work.  ``cal`` is the workload's
# calibration pass: (distinct keys, keys replayed, reference seconds).  Its
# distinct count is about the workload's, so that its table is as large;
# the reference is the pass's median time on the machine the README
# describes, and the scaled figures are what that machine gives at that
# speed.
WORKLOADS = {
    "uniform-d10-2w": {"length": 1_000_000, "duplication": 10, "workers": 2,
                       "round_s": 8.0, "cal": (100_000, 500_000, 0.4)},
    "altbit": {"model": "altbit", "workers": 1,
               "round_s": 24.0, "cal": (475_000, 1_000_000, 1.1)},
    # Not in BENCHMARK.json: its bucket table fills on some seeds (README).
    "uniform-d1": {"length": 1_000_000, "duplication": 1, "workers": 1,
                   "round_s": 14.0, "cal": (630_000, 1_000_000, 1.1)},
}

UNITS = {
    # end to end (run.py adds wall_s)
    "setup_s": "s", "cuckoo_mops": "Mops/s", "bucket_mops": "Mops/s",
    "cuckoo_untimed_s": "s", "bucket_untimed_s": "s", "peak_rss_mb": "MB",
    # per layer
    "bench.gen_s": "s", "trace.explore_s": "s", "trace.write_s": "s",
    "trace.read_s": "s", "trace.codes": "count", "hashing.hash_ns": "ns",
    "cuckoo.build_s": "s", "cuckoo.verify_s": "s", "cuckoo.count_s": "s",
    "cuckoo.found_us": "us", "cuckoo.found_p99_us": "us", "cuckoo.insert_us": "us",
    "cuckoo.evict_insert_us": "us", "cuckoo.evictions_per_insert": "evictions/insert",
    "cuckoo.load_factor": "ratio", "cuckoo.worker_skew_ms": "ms",
    "bucket.build_s": "s", "bucket.verify_s": "s", "bucket.count_s": "s",
    "bucket.found_us": "us", "bucket.found_p99_us": "us", "bucket.insert_us": "us",
    "bucket.spill_insert_us": "us", "bucket.probes_per_op": "probes/op",
    "bucket.claim_retries": "count", "bucket.load_factor": "ratio",
    "bucket.worker_skew_ms": "ms",
}

IMPORT_PROBE = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"
# The import time is scaled by that of numpy alone, which the program
# imports, timed in fresh interpreters beside it.  Imports spend their time
# mapping files and faulting in pages, and that cost changed twofold from
# one minute to the next while the calibration pass held still.
# IMPORT_REF_S is numpy's median import time on the machine the README
# describes.
IMPORT_REF_S = 0.08


class Checks:
    """Records failed correctness checks, reporting each on stderr."""

    def __init__(self):
        self.failures = []

    def expect(self, ok, message):
        if not ok:
            self.fail(message)

    def fail(self, message):
        print(f"check failed: {message}", file=sys.stderr)
        self.failures.append(message)


# -- calibration --------------------------------------------------------------

@functools.cache
def _cal_blocks(workers, distinct, length):
    """The calibration keys: per worker, a block and its distinct count."""
    rng = np.random.default_rng(CAL_SEED)
    pool = rng.integers(0, 1 << 31, size=distinct, dtype=np.int64)
    blocks = []
    for part in np.array_split(pool, workers):
        keys = part[rng.integers(0, part.size, size=length // workers)]
        # An array, not a list, so that the pass adds little to peak_rss_mb.
        blocks.append((array("q", keys.tobytes()), np.unique(keys).size))
    return blocks


def calibrate(workers, cal) -> float:
    """Seconds of one calibration pass with ``workers`` threads.

    The pass is the benchmark's own plain-Python table: ``cal[1]`` keys
    drawn from ``cal[0]`` random 31-bit keys are found or inserted in a
    linear-probing list at the tables' load.  The keys are split into
    ``workers`` disjoint blocks, each replayed by a thread of its own into a
    table of its own, so that the pass contends for the interpreter lock as
    the workload's workers do.  Fails if a table miscounts.
    """
    blocks = _cal_blocks(workers, *cal[:2])
    inserted = [0] * workers
    barrier = threading.Barrier(workers + 1)

    def work(slot, keys, unique):
        table = _ProbeTable(unique)
        find_or_insert = table.find_or_insert
        barrier.wait()
        count = 0
        for key in keys:
            if find_or_insert(key):
                count += 1
        inserted[slot] = count

    threads = [
        threading.Thread(target=work, args=(slot, *block))
        for slot, block in enumerate(blocks)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0
    expected = [unique for _, unique in blocks]
    if inserted != expected:
        raise RuntimeError(f"calibration inserted {inserted}, not {expected}")
    return elapsed


class _ProbeTable:
    """Linear-probing set of ints in a list, at the tables' load."""

    def __init__(self, unique):
        self.m = math.ceil(SCALE * unique)
        self.slots = [-1] * self.m

    def find_or_insert(self, key) -> bool:
        """True when ``key`` was inserted, False when it was found."""
        slots = self.slots
        m = self.m
        i = (key * 2654435761 + 12345) % 2147483647 % m
        while True:
            held = slots[i]
            if held == key:
                return False
            if held == -1:
                slots[i] = key
                return True
            i += 1
            if i == m:
                i = 0


def scaled(seconds, cal_s, cal) -> float:
    """``seconds`` measured in a run whose calibration passes took
    ``cal_s``, scaled to the reference speed."""
    return seconds / cal_s * cal[2]


# -- set-up -----------------------------------------------------------------


def import_seconds() -> tuple[float, float]:
    """Median times to import the program and to import numpy alone.

    Each sample is taken in a fresh interpreter, the two imports alternating.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    samples = {"hashkeeper": [], "numpy": []}
    for _ in range(IMPORT_REPEATS):
        for module, times in samples.items():
            out = subprocess.run(
                [sys.executable, "-c", IMPORT_PROBE.format(module)],
                env=env, check=True, capture_output=True, text=True, timeout=60,
            )
            times.append(float(out.stdout))
    return statistics.median(samples["hashkeeper"]), statistics.median(samples["numpy"])


def produce(spec, seed, path, timings):
    """The sequence in the form bench.run takes, plus the explored codes.

    Cheap steps are repeated and their median kept in ``timings``; the
    explorer runs once, as it takes most of a run on its own.  An explored
    trace is left at ``path``.
    """
    if "model" not in spec:
        samples = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload = hashkeeper.gen_random(spec["length"], spec["duplication"], seed)
            samples.append(time.perf_counter() - t0)
        timings["bench.gen_s"] = statistics.median(samples)
        return workload, None
    t0 = time.perf_counter()
    trace = hashkeeper.explore(hashkeeper.example_model(spec["model"]))
    timings["trace.explore_s"] = time.perf_counter() - t0
    writes, reads = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        hashkeeper.write_trace(path, trace.codes)
        t1 = time.perf_counter()
        workload = hashkeeper.load_workload(path)
        reads.append(time.perf_counter() - t1)
        writes.append(t1 - t0)
    timings["trace.write_s"] = statistics.median(writes)
    timings["trace.read_s"] = statistics.median(reads)
    return workload, trace.codes


def check_sequence(checks, spec, workload, explored, distinct):
    codes = workload.codes
    if explored is None:
        span = -(-spec["length"] // spec["duplication"])
        checks.expect(len(codes) == spec["length"], f"generated {len(codes)} codes")
        checks.expect(
            distinct[0] >= 0 and distinct[-1] < span,
            f"generated codes leave [0, {span})",
        )
        return
    checks.expect(codes == explored, "trace read back differs from the explored trace")
    model = spec["model"]
    ref = json.loads(reference.REFERENCES.read_text(encoding="utf-8"))[model]
    checks.expect(
        reference.model_digest(reference.MODELS / f"{model}.net") == ref["model_sha256"],
        f"{model}.net changed; run perfbench/reference.py again",
    )
    checks.expect(
        len(explored) == ref["length"],
        f"explored {len(explored)} codes, reference {ref['length']}",
    )
    checks.expect(
        len(distinct) == ref["distinct"]
        and reference.digest(distinct) == ref["distinct_sha256"],
        f"explored distinct set ({len(distinct)}) differs from the reference",
    )


def negative_sample(distinct, seed):
    """Keys the sequence never drew: inside its range and above it."""
    rng = np.random.default_rng([seed, 1])
    top = int(distinct[-1]) + 1
    inside = rng.integers(0, top, size=4 * NEGATIVES, dtype=np.int64)
    inside = inside[~np.isin(inside, distinct)][:NEGATIVES]
    above = rng.integers(top, 1 << 31, size=NEGATIVES, dtype=np.int64)
    return np.concatenate([inside, above])


# -- tables -----------------------------------------------------------------


def sized_for(spec, distinct) -> int:
    """The distinct count the tables are sized for.

    A random workload's tables are sized for four standard deviations above
    the expected distinct count of its length and duplication: every seed
    then meets the same geometry, at a load just under 0.8.  Sized from each
    sequence's own count, the slot count moves by a few slots from seed to
    seed, and the cuckoo eviction work swings with it by up to 9x.
    """
    if "model" in spec:
        return len(distinct)
    n = spec["length"]
    span = -(-n // spec["duplication"])
    # Empty cells of ``span`` after ``n`` uniform draws: mean and variance.
    q1 = math.exp(n * math.log1p(-1.0 / span))
    q2 = math.exp(n * math.log1p(-2.0 / span))
    variance = span * q1 + span * (span - 1) * q2 - (span * q1) ** 2
    return math.ceil(span * (1.0 - q1) + 4.0 * math.sqrt(variance))


def build_table(kind, unique):
    """The table bench.run builds by default for ``unique`` keys."""
    family = HashFamily(HASH_SEED, HASH_FUNCTIONS)
    if kind == "cuckoo":
        return CuckooTable(unique, family, scale=SCALE)
    return BucketTable(unique, WIDTH, family, scale=SCALE)


def stored_codes(kind, table):
    """The table's stored keys through its public enumeration."""
    if kind == "cuckoo":
        return table.stored_keys()
    return table.stored_vectors()


def check_table(checks, kind, table, distinct, negatives, stored=None):
    """Stored set equals the distinct set; contains agrees on members and not."""
    if stored is None:
        stored = stored_codes(kind, table)
    if kind == "bucket":
        checks.expect(all(len(v) == WIDTH for v in stored), "bucket: malformed vector")
        stored = (v[0] for v in stored)
        contains = lambda key: table.contains((key,))  # noqa: E731
    else:
        contains = table.contains
    keys = np.sort(np.fromiter(stored, dtype=np.int64))
    if not np.array_equal(keys, distinct):
        missing = np.setdiff1d(distinct, keys).size
        extra = np.setdiff1d(keys, distinct).size
        checks.fail(
            f"{kind}: stored set differs from the distinct set "
            f"({missing} missing, {extra} extra)"
        )
    absent = sum(1 for key in distinct.tolist() if not contains(key))
    checks.expect(absent == 0, f"{kind}: contains is false for {absent} stored keys")
    false_hits = sum(1 for key in negatives.tolist() if contains(key))
    checks.expect(false_hits == 0, f"{kind}: contains is true for {false_hits} absent keys")


def check_counts(checks, kind, inserted, found, length, unique):
    checks.expect(inserted == unique, f"{kind}: inserted {inserted} != distinct {unique}")
    checks.expect(
        inserted + found == length,
        f"{kind}: inserted {inserted} + found {found} != length {length}",
    )


# -- untraced replay ----------------------------------------------------------


def replay(workload, workers, sized, checks, distinct, negatives, cal, check_tables=True,
           build=build_table):
    """One round: one bench.run call per table, each table checked after it.

    A calibration pass runs before the first call and right after each.
    Returns per-table lists of samples, empty for a table whose run failed:
    the timed phase and the untimed seconds (the call's wall time minus the
    timed phase); plus the calibration times and operation counts.
    """
    length = len(workload.codes)
    samples = {kind: [] for kind in KINDS}
    failed = 0
    cal_s = [calibrate(workers, cal)]
    for kind in KINDS:
        built = []

        def factory(kind=kind):
            built.append(build(kind, sized))
            return built[-1]

        t0 = time.perf_counter()
        try:
            report = bench.run(
                workload, kind, workers=workers, repetitions=1,
                hash_seed=HASH_SEED, scale=SCALE, width=WIDTH,
                hash_functions=HASH_FUNCTIONS, table_factory=factory, verify=True,
            )
        except InternalConsistencyError as exc:
            checks.fail(f"{kind}: bench.run verification: {exc}")
            cal_s.append(calibrate(workers, cal))
            continue
        except Exception as exc:  # an operation raised: the whole call failed
            print(f"{kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
            failed += length
            cal_s.append(calibrate(workers, cal))
            continue
        call_s = time.perf_counter() - t0
        cal_s.append(calibrate(workers, cal))
        if report.table_full:
            failed += length - report.inserted - report.found
            continue
        timed_s = report.rep_times_ms[0] / 1000.0
        samples[kind].append({"timed_s": timed_s, "untimed_s": call_s - timed_s})
        check_counts(checks, kind, report.inserted, report.found, length, len(distinct))
        if check_tables:
            check_table(checks, kind, built[-1], distinct, negatives)
    return samples, cal_s, len(KINDS) * length, failed


# -- traced mode ----------------------------------------------------------------


class Tally:
    """One worker's per-call durations in seconds, by outcome, plus counters."""

    def __init__(self):
        self.found_s = array("d")
        self.insert_s = array("d")
        self.slow_insert_s = array("d")  # cuckoo: after an eviction; bucket: spilled
        self.failed = self.evictions = self.probes = self.retries = 0
        self.span = (0.0, 0.0)


def drive_cuckoo(table, block, tally):
    find_or_insert = table.find_or_insert
    clock = time.perf_counter
    found_s = tally.found_s.append
    insert_s = tally.insert_s.append
    evict_s = tally.slow_insert_s.append
    evictions = 0
    for done, key in enumerate(block):
        t0 = clock()
        outcome = find_or_insert(key)
        dt = clock() - t0
        tag = outcome.tag
        if tag is FOUND:
            found_s(dt)
        elif tag is INSERTED:
            if outcome.evictions:
                evictions += outcome.evictions
                evict_s(dt)
            else:
                insert_s(dt)
        else:
            tally.failed = len(block) - done
            break
    tally.evictions = evictions


def drive_bucket(table, block, tally):
    find_or_insert = table.find_or_insert
    clock = time.perf_counter
    found_s = tally.found_s.append
    insert_s = tally.insert_s.append
    spill_s = tally.slow_insert_s.append
    probes = retries = 0
    for done, key in enumerate(block):
        t0 = clock()
        outcome = find_or_insert((key,))
        dt = clock() - t0
        probes += outcome.buckets_probed
        retries += outcome.claim_retries
        tag = outcome.tag
        if tag is FOUND:
            found_s(dt)
        elif tag is INSERTED:
            insert_s(dt)
            if outcome.buckets_probed > 1:
                spill_s(dt)
        else:
            tally.failed = len(block) - done
            break
    tally.probes = probes
    tally.retries = retries


def traced_pass(kind, table, codes, workers):
    """Drive ``codes`` split into contiguous blocks, one thread per block."""
    drive = drive_cuckoo if kind == "cuckoo" else drive_bucket
    n = len(codes)
    blocks = [codes[i * n // workers : (i + 1) * n // workers] for i in range(workers)]
    tallies = [Tally() for _ in blocks]
    barrier = threading.Barrier(workers)
    errors = []

    def work(block, tally):
        try:
            barrier.wait()
            start = time.perf_counter()
            drive(table, block, tally)
            tally.span = (start, time.perf_counter())
        except Exception as exc:  # surfaced after the join
            errors.append(exc)

    threads = [threading.Thread(target=work, args=pair) for pair in zip(blocks, tallies)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return tallies


def _us(samples, q):
    if not samples:
        return 0.0
    return float(np.percentile(np.frombuffer(samples, dtype=np.float64), q)) * 1e6


def _joined(tallies, name):
    out = array("d")
    for tally in tallies:
        out.extend(getattr(tally, name))
    return out


def traced(workload, workers, sized, checks, distinct, negatives, metrics, detail):
    codes = workload.codes
    length = len(codes)
    unique = len(distinct)
    attempted = failed = 0
    for kind in KINDS:
        builds = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            table = build_table(kind, sized)
            builds.append(time.perf_counter() - t0)
        tallies = traced_pass(kind, table, codes, workers)
        attempted += length
        inserted = sum(len(t.insert_s) for t in tallies)
        if kind == "cuckoo":
            inserted += sum(len(t.slow_insert_s) for t in tallies)
        found = sum(len(t.found_s) for t in tallies)
        failed += sum(t.failed for t in tallies)
        t0 = time.perf_counter()
        stored = stored_codes(kind, table)
        verify_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        count = table.stored_count()
        count_s = time.perf_counter() - t0
        if not any(t.failed for t in tallies):
            check_counts(checks, kind, inserted, found, length, unique)
            check_table(checks, kind, table, distinct, negatives, stored)
        spans = [t.span[1] - t.span[0] for t in tallies]
        found_s = _joined(tallies, "found_s")
        insert_s = _joined(tallies, "insert_s")
        slow_s = _joined(tallies, "slow_insert_s")
        metrics.update({
            f"{kind}.build_s": statistics.median(builds),
            f"{kind}.verify_s": verify_s,
            f"{kind}.count_s": count_s,
            f"{kind}.found_us": _us(found_s, 50),
            f"{kind}.found_p99_us": _us(found_s, 99),
            f"{kind}.insert_us": _us(insert_s, 50),
            f"{kind}.load_factor": count / table.capacity,
            f"{kind}.worker_skew_ms": (max(spans) - min(spans)) * 1000.0,
        })
        if kind == "cuckoo":
            metrics["cuckoo.evict_insert_us"] = _us(slow_s, 50)
            metrics["cuckoo.evictions_per_insert"] = (
                sum(t.evictions for t in tallies) / inserted if inserted else 0.0
            )
        else:
            metrics["bucket.spill_insert_us"] = _us(slow_s, 50)
            metrics["bucket.probes_per_op"] = sum(t.probes for t in tallies) / length
            metrics["bucket.claim_retries"] = sum(t.retries for t in tallies)
        detail[f"{kind}_traced_phase_s"] = (
            max(t.span[1] for t in tallies) - min(t.span[0] for t in tallies)
        )
    metrics["hashing.hash_ns"] = hash_ns(codes, build_table("cuckoo", sized).capacity)
    return attempted, failed


def hash_ns(codes, m):
    """Median over batches of the time of one HashFamily.hash call."""
    family = HashFamily(HASH_SEED, HASH_FUNCTIONS)
    h = family.hash
    keys = codes[:HASH_CALLS]
    samples = []
    for i in range(5):
        j = i % HASH_FUNCTIONS
        t0 = time.perf_counter()
        for key in keys:
            h(j, key, m)
        samples.append((time.perf_counter() - t0) / len(keys))
    return statistics.median(samples) * 1e9


# -- entry ----------------------------------------------------------------------


def rounds_for(spec, seconds) -> int:
    return max(2, round(seconds / spec["round_s"]))


def run_rounds(path, workers, rounds, sized, seed, cal, checks):
    """One round per fresh process, so that no one process's memory layout
    decides a figure; the processes run one after another, and the first
    one also checks the tables' contents."""
    samples = {kind: [] for kind in KINDS}
    cal_s = []
    attempted = failed = 0
    for i in range(rounds):
        args = [str(path), str(workers), str(sized), str(seed), str(int(i == 0)),
                *map(str, cal[:2])]
        child = subprocess.run(
            [sys.executable, __file__, "--round", *args],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            check=True, stdout=subprocess.PIPE, text=True, timeout=150,
        )
        result = json.loads(child.stdout.splitlines()[-1])
        for kind in KINDS:
            samples[kind] += result["samples"][kind]
        cal_s += result["cal_s"]
        attempted += result["attempted"]
        failed += result["failed"]
        checks.failures += result["failures"]
    return samples, cal_s, attempted, failed


def round_main(path, workers, sized, seed, check_tables, *cal) -> int:
    """Body of one round process: load the trace, replay it once per table."""
    workload = hashkeeper.load_workload(path)
    distinct = np.unique(np.asarray(workload.codes, dtype=np.int64))
    checks = Checks()
    samples, cal_s, attempted, failed = replay(
        workload, int(workers), int(sized), checks, distinct,
        negative_sample(distinct, int(seed)), tuple(map(int, cal)),
        check_tables=check_tables == "1",
    )
    print(json.dumps({
        "samples": samples, "cal_s": cal_s, "attempted": attempted,
        "failed": failed, "failures": checks.failures,
    }))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--round"]:
        return round_main(*argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if Path(hashkeeper.__file__).resolve().parent != SRC / "hashkeeper":
        print(f"error: hashkeeper imported from {hashkeeper.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    workers = spec["workers"]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-{os.getpid()}.trace"
    try:
        return measure(args, spec, workers, path)
    finally:
        for leftover in (path, Path(f"{path}.meta")):
            leftover.unlink(missing_ok=True)


def measure(args, spec, workers, path) -> int:
    checks = Checks()
    timings = {}
    setup_cal_s = [calibrate(workers, spec["cal"])]
    import_s, numpy_import_s = import_seconds()
    workload, explored = produce(spec, args.seed, path, timings)
    setup_s = import_s + sum(timings.values())
    setup_cal_s.append(calibrate(workers, spec["cal"]))
    distinct = np.unique(np.asarray(workload.codes, dtype=np.int64))
    check_sequence(checks, spec, workload, explored, distinct)
    negatives = negative_sample(distinct, args.seed)
    sized = sized_for(spec, distinct)
    detail = {
        "workload": args.workload, "seed": args.seed, "length": len(workload.codes),
        "distinct": len(distinct), "sized_for": sized, "workers": workers,
        "import_s": import_s, "numpy_import_s": numpy_import_s, **timings,
        "setup_s": setup_s, "setup_cal_s": setup_cal_s,
    }
    if args.trace:
        metrics = {
            "bench.gen_s": timings.get("bench.gen_s", 0.0),
            "trace.explore_s": timings.get("trace.explore_s", 0.0),
            "trace.write_s": timings.get("trace.write_s", 0.0),
            "trace.read_s": timings.get("trace.read_s", 0.0),
            "trace.codes": len(explored) if explored is not None else 0,
        }
        attempted, failed = traced(
            workload, workers, sized, checks, distinct, negatives, metrics, detail
        )
    else:
        if explored is None:
            hashkeeper.write_trace(path, workload.codes)  # carries it to the rounds
        del workload, explored
        rounds = rounds_for(spec, args.seconds)
        samples, cal_s, attempted, failed = run_rounds(
            path, workers, rounds, sized, args.seed, spec["cal"], checks
        )
        length = detail["length"]
        detail.update(rounds=rounds, samples=samples, cal_s=cal_s)
        incomplete = [kind for kind in KINDS if not samples[kind]]
        if incomplete:
            print(f"error: {', '.join(incomplete)} completed no round; "
                  f"{failed} of {attempted} operations failed", file=sys.stderr)
            return 1
        # Set-up past the import is scaled by the passes around it, the
        # calls by the passes in their own processes, and run.py scales
        # wall_s by them all.
        detail["cal_median_s"] = statistics.median(setup_cal_s + cal_s)
        detail["cal_ref_s"] = spec["cal"][2]
        metrics = {"setup_s": import_s / numpy_import_s * IMPORT_REF_S + scaled(
            setup_s - import_s, statistics.median(setup_cal_s), spec["cal"]
        )}
        cal = statistics.median(cal_s)
        for kind in KINDS:
            timed_s = statistics.median(s["timed_s"] for s in samples[kind])
            # A mean: the untimed part of a call is short, and the median of
            # a few such samples spread more from run to run than their mean.
            untimed_s = statistics.fmean(s["untimed_s"] for s in samples[kind])
            metrics[f"{kind}_mops"] = length / scaled(timed_s, cal, spec["cal"]) / 1e6
            metrics[f"{kind}_untimed_s"] = scaled(untimed_s, cal, spec["cal"])
        metrics["peak_rss_mb"] = max(
            resource.getrusage(who).ru_maxrss
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        ) / 1024.0
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()
        },
    }))
    return 0 if not checks.failures else 1


if __name__ == "__main__":
    sys.exit(main())
