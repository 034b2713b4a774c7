import csv
import threading
import time

import pytest

from oracles import expected_multiplicity

from hashkeeper import bench
from hashkeeper.bench import (
    CSV_COLUMNS,
    InternalConsistencyError,
    gen_random,
    load_workload,
    run,
    sweep,
)
from hashkeeper.bucket import BucketTable
from hashkeeper.cuckoo import INSERTED, InsertOutcome
from hashkeeper.hashing import HashFamily
from hashkeeper.trace import explore, example_model, write_trace
from hashkeeper import cli


class TestGenRandom:
    def test_value_range(self):
        wl = gen_random(100, 4, 1)
        assert wl.length == 100
        assert all(0 <= v < 25 for v in wl.codes)

    def test_deterministic(self):
        assert gen_random(1000, 5, 9).codes == gen_random(1000, 5, 9).codes
        assert gen_random(1000, 5, 9).codes != gen_random(1000, 5, 10).codes

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            gen_random(0, 1, 1)
        with pytest.raises(ValueError):
            gen_random(10, 0, 1)
        with pytest.raises(ValueError):
            gen_random(10, 11, 1)

    def test_multiplicity_at_d1_matches_replacement_sampling(self):
        # Sampling with replacement cannot hit multiplicity 1 exactly: the
        # expected value at d=1 is 1/(1 - 1/e), about 1.582.
        wl = gen_random(10**6, 1, 3)
        emp = wl.length / len(set(wl.codes))
        assert abs(emp - expected_multiplicity(10**6, 1)) < 0.01
        assert abs(emp - 1.582) < 0.01

    def test_unique_count_at_d100(self):
        wl = gen_random(10**6, 100, 4)
        assert abs(len(set(wl.codes)) - 10**4) <= 0.02 * 10**4

    def test_multiplicity_band(self):
        # the [0.9d, 1.1d] band holds once d is large enough for the
        # with-replacement correction d/(1 - e^-d) to sit inside it
        for d in (3, 5, 10, 100):
            wl = gen_random(10**5, d, d)
            emp = wl.length / len(set(wl.codes))
            assert 0.9 * d <= emp <= 1.1 * d
            assert abs(emp - expected_multiplicity(10**5, d)) < 0.05 * d


class TestRun:
    def test_single_element(self):
        # with 4 workers, three of the blocks are empty
        wl = bench.Workload([7], "unit", 1, 1.0)
        for kind in ("cuckoo", "bucket"):
            for workers in (1, 4):
                report = run(wl, kind, workers=workers, repetitions=2)
                assert report.inserted == 1 and report.found == 0
                assert not report.table_full

    def test_worker_error_surfaces_after_join(self):
        # the code 2**32 is out of range for both tables; with 2 workers it
        # lands in the thread's block, then in the caller's
        before = set(threading.enumerate())
        for codes in ([1, 2**32, 3], [2**32, 1, 3]):
            wl = bench.Workload(codes, "unit", len(codes), 1.0)
            for kind in ("cuckoo", "bucket"):
                for workers in (1, 2):
                    raised = []

                    def call():
                        try:
                            run(wl, kind, workers=workers, repetitions=1)
                        except ValueError as exc:
                            raised.append(exc)

                    caller = threading.Thread(target=call, daemon=True)
                    caller.start()
                    caller.join(timeout=30)
                    assert not caller.is_alive(), (kind, workers)
                    assert len(raised) == 1, (kind, workers)
                    assert set(threading.enumerate()) == before

    def test_bucket_driver_follows_table_width(self):
        wl = gen_random(5_000, 5, 8)
        unique = len(set(wl.codes))
        report = run(
            wl,
            "bucket",
            repetitions=1,
            table_factory=lambda: BucketTable(unique, 3, HashFamily(0, 4)),
            verify=True,
        )
        assert report.inserted == unique
        assert report.found == wl.length - unique

    def test_counts_match_reference(self):
        wl = gen_random(20_000, 10, 5)
        unique = len(set(wl.codes))
        for kind in ("cuckoo", "bucket"):
            report = run(wl, kind, workers=4, repetitions=3)
            assert report.inserted == unique
            assert report.found == wl.length - unique

    def test_trace_workload(self, tmp_path):
        trace = explore(example_model("ring"))
        path = tmp_path / "ring.trace"
        write_trace(path, trace.codes)
        wl = load_workload(path)
        assert wl.duplication == pytest.approx(trace.mean_multiplicity)
        for kind in ("cuckoo", "bucket"):
            report = run(wl, kind, repetitions=2)
            assert report.inserted == trace.unique_count
            assert report.found == len(trace.codes) - trace.unique_count

    def test_reproducible_counts(self):
        wl = gen_random(10_000, 7, 21)
        a = run(wl, "cuckoo", workers=1, repetitions=2, hash_seed=3)
        b = run(wl, "cuckoo", workers=1, repetitions=2, hash_seed=3)
        assert (a.inserted, a.found) == (b.inserted, b.found)

    def test_monotone_inserted_in_duplication(self):
        length = 50_000
        previous = None
        for d in (1, 2, 5, 10, 100, 1000):
            wl = gen_random(length, d, 31)
            report = run(wl, "cuckoo", repetitions=1)
            if previous is not None:
                assert report.inserted <= previous
            previous = report.inserted

    def test_timing_excludes_setup(self):
        # a table factory that burns 50 ms per repetition must not show up
        # in the timed phase
        wl = gen_random(10_000, 10, 2)

        class InstantTable:
            def find_or_insert(self, key):
                return _OUT

            def stored_count(self):
                return 0

            capacity = 1

        _OUT = InsertOutcome(INSERTED, 0)

        def slow_factory():
            time.sleep(0.05)
            return InstantTable()

        report = run(
            wl, "cuckoo", repetitions=3, table_factory=slow_factory, verify=False
        )
        assert report.mean_ms < 40.0

    def test_bad_arguments(self):
        wl = gen_random(100, 1, 1)
        with pytest.raises(ValueError):
            run(wl, "btree")
        with pytest.raises(ValueError):
            run(wl, "cuckoo", workers=0)
        with pytest.raises(ValueError):
            run(wl, "cuckoo", repetitions=0)
        with pytest.raises(ValueError):
            run(wl, "cuckoo", scale=1.0)


class TestSweep:
    def test_single_cell(self, tmp_path):
        out = tmp_path / "one.csv"
        reports = sweep([1000], [5], ["cuckoo"], 1, 2, out)
        assert len(reports) == 1
        rows = list(csv.reader(out.open()))
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) == 2
        assert rows[1][0] == "cuckoo"

    def test_row_order_and_equal_inserted(self, tmp_path):
        out = tmp_path / "grid.csv"
        reports = sweep([2000], [2, 10], ["cuckoo", "bucket"], 1, 1, out, seed=5)
        keys = [(r.table_kind, r.duplication) for r in reports]
        assert keys == [("cuckoo", 2.0), ("cuckoo", 10.0), ("bucket", 2.0), ("bucket", 10.0)]
        by_cell = {}
        for r in reports:
            by_cell.setdefault(r.duplication, []).append(r.inserted)
        for d, inserted in by_cell.items():
            assert inserted[0] == inserted[1]

    def test_empty_parameters_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            sweep([], [1], ["cuckoo"], 1, 1, tmp_path / "x.csv")
        with pytest.raises(ValueError):
            sweep([10], [1], ["heap"], 1, 1, tmp_path / "x.csv")


class TestCli:
    def test_usage_error_exit_code(self, capsys):
        assert cli.main(["bench"]) == 1
        assert cli.main(["frobnicate"]) == 1
        assert cli.main([]) == 1

    def test_gen_explore_bench_roundtrip(self, tmp_path, capsys):
        trace_file = str(tmp_path / "w.trace")
        assert cli.main(["gen", "--len", "5000", "--dup", "5", "--seed", "3",
                         "--out", trace_file]) == 0
        csv_file = str(tmp_path / "r.csv")
        code = cli.main([
            "bench", "--input", trace_file, "--table", "cuckoo",
            "--workers", "2", "--reps", "2", "--csv", csv_file,
        ])
        assert code == 0
        rows = list(csv.reader(open(csv_file)))
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) == 2
        out = capsys.readouterr().out
        assert "inserted" in out

    def test_explore_command(self, tmp_path, capsys):
        model = tmp_path / "m.net"
        model.write_text("process p 3 0\nt 0 a 1\nt 1 b 2\nt 2 c 0\n")
        out_file = str(tmp_path / "m.trace")
        assert cli.main(["explore", "--model", str(model), "--out", out_file]) == 0
        wl = load_workload(out_file)
        assert wl.length == 3

    def test_model_parse_error_exit(self, tmp_path, capsys):
        model = tmp_path / "bad.net"
        model.write_text("process p 2 0\nt 0 a 9\n")
        out_file = str(tmp_path / "bad.trace")
        assert cli.main(["explore", "--model", str(model), "--out", out_file]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_table_full_exit_code(self, tmp_path, capsys):
        trace_file = str(tmp_path / "w.trace")
        assert cli.main(["gen", "--len", "4000", "--dup", "1", "--seed", "1",
                         "--out", trace_file]) == 0
        code = cli.main([
            "bench", "--input", trace_file, "--table", "cuckoo",
            "--reps", "1", "--scale", "1.001", "--hash-functions", "2",
        ])
        assert code == 2

    def test_internal_consistency_exit_code(self, tmp_path, monkeypatch, capsys):
        trace_file = str(tmp_path / "w.trace")
        cli.main(["gen", "--len", "100", "--dup", "1", "--seed", "1",
                  "--out", trace_file])

        def broken_run(*a, **kw):
            raise InternalConsistencyError("boom")

        monkeypatch.setattr(bench, "run", broken_run)
        code = cli.main(["bench", "--input", trace_file, "--table", "cuckoo"])
        assert code == 3

    def test_sweep_command(self, tmp_path, capsys):
        out = str(tmp_path / "sweep.csv")
        code = cli.main([
            "sweep", "--len", "2000", "--dups", "2,10", "--tables", "cuckoo",
            "--workers", "1", "--reps", "1", "--out", out,
        ])
        assert code == 0
        rows = list(csv.reader(open(out)))
        assert len(rows) == 3
