"""Find-or-insert benchmark harness with controlled-duplication workloads.

The measurement methodology: count the unique elements of the sequence up
front, build a fresh table sized ``scale`` times that count for every
repetition, split the sequence into contiguous blocks across the workers,
time only the parallel find-or-insert phase, and report the mean over the
repetitions.  Random workloads draw, with replacement, from a value range
chosen so each value occurs ``duplication`` times on average.
"""

import csv
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .bucket import BucketTable
from .cuckoo import FOUND, INSERTED, CuckooTable
from .hashing import HashFamily
from .trace import read_trace

TABLE_KINDS = ("cuckoo", "bucket")

# Duplication axis used by default sweeps; dense around the region where
# runtime behaves oddly for one of the tables.
DEFAULT_DUPLICATIONS = (1, 2, 5, 10, 50, 100, 250, 450, 500, 666, 700, 1000)

CSV_COLUMNS = (
    "table",
    "length",
    "unique",
    "duplication",
    "workers",
    "reps",
    "mean_ms",
    "min_ms",
    "max_ms",
    "throughput_mops",
    "inserted",
    "found",
    "load_factor",
    "table_full",
)


class InternalConsistencyError(RuntimeError):
    """A run produced counts or contents that contradict the reference set."""


@dataclass
class Workload:
    """A sequence of 32-bit codes plus where it came from."""

    codes: list
    source: str
    length: int
    duplication: float


@dataclass
class BenchReport:
    table_kind: str
    workers: int
    repetitions: int
    mean_ms: float
    min_ms: float
    max_ms: float
    throughput_mops: float
    inserted: int
    found: int
    load_factor: float
    table_full: bool
    length: int
    unique: int
    duplication: float
    rep_times_ms: list = field(default_factory=list)

    def csv_row(self) -> list:
        return [
            self.table_kind,
            self.length,
            self.unique,
            self.duplication,
            self.workers,
            self.repetitions,
            f"{self.mean_ms:.3f}",
            f"{self.min_ms:.3f}",
            f"{self.max_ms:.3f}",
            f"{self.throughput_mops:.4f}",
            self.inserted,
            self.found,
            f"{self.load_factor:.4f}",
            "true" if self.table_full else "false",
        ]


def gen_random(length: int, duplication: int, seed: int) -> Workload:
    """Uniform draws from [0, ceil(length / duplication)), with replacement."""
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if duplication < 1:
        raise ValueError(f"duplication must be >= 1, got {duplication}")
    if duplication > length:
        raise ValueError(
            f"duplication {duplication} exceeds workload length {length}"
        )
    span = -(-length // duplication)
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, span, size=length, dtype=np.int64).tolist()
    return Workload(
        codes, f"random(d={duplication}, seed={seed})", length, float(duplication)
    )


def load_workload(path) -> Workload:
    """Workload from a trace file; duplication is the empirical multiplicity."""
    trace = read_trace(path)
    return Workload(
        trace.codes, f"trace({path})", len(trace.codes), trace.mean_multiplicity
    )


def _build_table(table_kind, unique, scale, width, hash_functions, hash_seed):
    family = HashFamily(hash_seed, hash_functions)
    if table_kind == "cuckoo":
        return CuckooTable(unique, family, scale=scale)
    return BucketTable(unique, width, family, scale=scale)


def _split(codes, workers):
    # one worker replays ``codes`` itself: a slice would copy every pointer
    if workers == 1:
        return [codes]
    n = len(codes)
    return [codes[i * n // workers : (i + 1) * n // workers] for i in range(workers)]


def _drive_cuckoo(table, block):
    find_or_insert = table.find_or_insert
    inserted = found = 0
    for key in block:
        tag = find_or_insert(key).tag
        if tag is INSERTED:
            inserted += 1
        elif tag is FOUND:
            found += 1
        else:
            return inserted, found, True
    return inserted, found, False


def _drive_bucket(table, block):
    find_or_insert = table.find_or_insert
    width = table.width
    inserted = found = 0
    if width == 1:
        for key in block:
            tag = find_or_insert((key,)).tag
            if tag is INSERTED:
                inserted += 1
            elif tag is FOUND:
                found += 1
            else:
                return inserted, found, True
    else:
        pad = (0,) * (width - 1)
        for key in block:
            tag = find_or_insert((key,) + pad).tag
            if tag is INSERTED:
                inserted += 1
            elif tag is FOUND:
                found += 1
            else:
                return inserted, found, True
    return inserted, found, False


def run(
    workload: Workload,
    table_kind: str,
    workers: int = 1,
    repetitions: int = 10,
    hash_seed: int = 0,
    scale: float = 1.25,
    width: int = 1,
    hash_functions: int = 4,
    table_factory=None,
    verify: bool = True,
) -> BenchReport:
    """Time the find-or-insert phase of ``workload`` against one table kind.

    Each repetition gets a fresh table; generation, unique counting and
    table construction stay outside the timed region.  The caller replays
    the first of ``workers`` contiguous blocks and ``workers - 1`` threads
    replay the rest, each timed from a shared barrier; a repetition lasts
    from the earliest start to the latest finish, and one worker starts no
    thread.  With ``verify`` the counts and the final stored set of every
    repetition are checked against the sequential reference set.
    """
    if table_kind not in TABLE_KINDS:
        raise ValueError(f"table must be one of {TABLE_KINDS}, got {table_kind!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if scale <= 1.0:
        raise ValueError(f"scale must be > 1, got {scale}")
    codes = workload.codes
    length = len(codes)
    reference = set(codes)
    unique = len(reference)
    if table_factory is None:
        def table_factory():
            return _build_table(
                table_kind, unique, scale, width, hash_functions, hash_seed
            )
    drive = _drive_cuckoo if table_kind == "cuckoo" else _drive_bucket
    blocks = _split(codes, workers)

    rep_times = []
    inserted = found = 0
    table_full = False
    last_table = None
    for _ in range(repetitions):
        table = table_factory()
        results = [None] * workers
        spans = [None] * workers
        errors = []
        barrier = threading.Barrier(workers)

        def work(slot):
            try:
                barrier.wait()
                start = time.perf_counter()
                results[slot] = drive(table, blocks[slot])
                spans[slot] = (start, time.perf_counter())
            except BaseException as exc:  # surfaced after the join
                errors.append(exc)
                # release any worker still at the barrier, or the join would hang
                barrier.abort()

        threads = [
            threading.Thread(target=work, args=(slot,), daemon=True)
            for slot in range(1, workers)
        ]
        for t in threads:
            t.start()
        work(0)
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        elapsed = max(s[1] for s in spans) - min(s[0] for s in spans)
        rep_times.append(elapsed * 1000.0)
        inserted = sum(r[0] for r in results)
        found = sum(r[1] for r in results)
        rep_full = any(r[2] for r in results)
        table_full = table_full or rep_full
        last_table = table
        if verify and not rep_full:
            if inserted + found != length:
                raise InternalConsistencyError(
                    f"{table_kind}: inserted {inserted} + found {found} != "
                    f"length {length}"
                )
            if inserted != unique:
                raise InternalConsistencyError(
                    f"{table_kind}: inserted {inserted} != unique {unique}"
                )
            stored = table.stored_keys()
            if stored != reference:
                missing = len(reference - stored)
                extra = len(stored - reference)
                raise InternalConsistencyError(
                    f"{table_kind}: stored set differs from reference "
                    f"({missing} missing, {extra} extra)"
                )

    mean_ms = sum(rep_times) / len(rep_times)
    return BenchReport(
        table_kind=table_kind,
        workers=workers,
        repetitions=repetitions,
        mean_ms=mean_ms,
        min_ms=min(rep_times),
        max_ms=max(rep_times),
        throughput_mops=(length / (mean_ms / 1000.0) / 1e6) if mean_ms > 0 else 0.0,
        inserted=inserted,
        found=found,
        load_factor=last_table.stored_count() / last_table.capacity,
        table_full=table_full,
        length=length,
        unique=unique,
        duplication=workload.duplication,
        rep_times_ms=rep_times,
    )


def sweep(
    lengths,
    duplications,
    table_kinds,
    workers: int,
    repetitions: int,
    out,
    seed: int = 1,
    hash_seed: int = 0,
    scale: float = 1.25,
    width: int = 1,
    hash_functions: int = 4,
    verify: bool = True,
) -> list:
    """One benchmark row per (table, length, duplication); writes CSV to ``out``.

    The workload for a given (length, duplication) cell is regenerated from
    the same derived seed for every table, so all tables insert identical
    sequences.
    """
    lengths = list(lengths)
    duplications = list(duplications)
    table_kinds = list(table_kinds)
    if not lengths or not duplications or not table_kinds:
        raise ValueError("lengths, duplications and table_kinds must be non-empty")
    for kind in table_kinds:
        if kind not in TABLE_KINDS:
            raise ValueError(f"table must be one of {TABLE_KINDS}, got {kind!r}")
    reports = []

    def rows():
        for kind in table_kinds:
            for li, length in enumerate(lengths):
                for di, duplication in enumerate(duplications):
                    cell_seed = seed + li * len(duplications) + di
                    workload = gen_random(length, duplication, cell_seed)
                    report = run(
                        workload,
                        kind,
                        workers=workers,
                        repetitions=repetitions,
                        hash_seed=hash_seed,
                        scale=scale,
                        width=width,
                        hash_functions=hash_functions,
                        verify=verify,
                    )
                    reports.append(report)
                    yield report

    write_report_csv(out, rows())
    return reports


def write_report_csv(path, reports):
    """Write the header, then one row per report, flushed as it is written."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_COLUMNS)
        for report in reports:
            writer.writerow(report.csv_row())
            f.flush()
