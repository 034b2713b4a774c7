import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import oracle_successor_codes, oracle_trace, random_model

from hashkeeper import trace as trace_module
from hashkeeper.trace import (
    CODE_SPACE,
    EXAMPLE_MODELS,
    Automaton,
    Model,
    ModelParseError,
    encode,
    example_model,
    explore,
    first_positions,
    parse_model,
    read_trace,
    write_trace,
)

TWO_PROC_TEXT = """\
process left 2 0
t 0 go 1
t 1 back 0

process right 3 0
t 0 go 1
t 1 step 2
t 2 back 0
"""


class TestParser:
    def test_two_process_model(self):
        model = parse_model(TWO_PROC_TEXT)
        assert len(model.processes) == 2
        assert model.processes[0].name == "left"
        assert model.processes[1].states == 3

    def test_transition_to_unknown_state(self):
        text = "process p 3 0\nt 0 a 5\n"
        with pytest.raises(ModelParseError) as err:
            parse_model(text)
        assert err.value.line == 2

    def test_empty_file(self):
        with pytest.raises(ModelParseError, match="no processes"):
            parse_model("")
        with pytest.raises(ModelParseError, match="no processes"):
            parse_model("# only a comment\n\n")

    def test_duplicate_process_name(self):
        text = "process p 2 0\n\nprocess p 2 0\n"
        with pytest.raises(ModelParseError) as err:
            parse_model(text)
        assert err.value.line == 3

    def test_transition_before_process(self):
        with pytest.raises(ModelParseError) as err:
            parse_model("t 0 a 1\n")
        assert err.value.line == 1

    def test_bad_integers_and_arity(self):
        with pytest.raises(ModelParseError):
            parse_model("process p x 0\n")
        with pytest.raises(ModelParseError):
            parse_model("process p 2\n")
        with pytest.raises(ModelParseError):
            parse_model("process p 2 0\nt 0 a\n")

    def test_empty_process_and_bad_initial(self):
        with pytest.raises(ModelParseError, match="no states"):
            parse_model("process p 0 0\n")
        with pytest.raises(ModelParseError, match="initial"):
            parse_model("process p 2 5\n")

    def test_state_space_overflow(self):
        lines = []
        for i in range(16):
            lines.append(f"process p{i} 8 0")
            lines.append(f"t 0 l{i} 1")
            lines.append("")
        with pytest.raises(OverflowError):
            parse_model("\n".join(lines))


class TestEncode:
    def test_all_zero(self):
        model = parse_model(TWO_PROC_TEXT)
        assert encode(model, [0, 0]) == 0

    def test_mixed_radix(self):
        model = parse_model(TWO_PROC_TEXT)  # sizes (2, 3)
        assert encode(model, [1, 2]) == 1 + 2 * 2

    def test_injective_over_state_space(self):
        model = parse_model(TWO_PROC_TEXT)
        codes = {
            encode(model, [i, j]) for i in range(2) for j in range(3)
        }
        assert len(codes) == 6

    def test_out_of_range_local(self):
        model = parse_model(TWO_PROC_TEXT)
        with pytest.raises(ValueError):
            encode(model, [2, 0])


class TestExplore:
    def test_single_state_no_transitions(self):
        trace = explore(Model([Automaton("p", 1, 0, [])]))
        assert trace.codes == []
        assert trace.unique_count == 0
        assert trace.mean_multiplicity == 0.0

    def test_fully_connected_independent_product(self):
        lines = ["process a 2 0"]
        for i in range(2):
            for j in range(2):
                lines.append(f"t {i} a{i}{j} {j}")
        lines.append("")
        lines.append("process b 3 0")
        for i in range(3):
            for j in range(3):
                lines.append(f"t {i} b{i}{j} {j}")
        model = parse_model("\n".join(lines))
        trace = explore(model)
        assert trace.unique_count == 6
        assert set(trace.codes) == oracle_successor_codes(model)

    def test_lockstep_cycle(self):
        lines = ["process a 4 0"]
        lines += [f"t {i} step {(i + 1) % 4}" for i in range(4)]
        lines.append("")
        lines.append("process b 4 0")
        lines += [f"t {i} step {(i + 1) % 4}" for i in range(4)]
        model = parse_model("\n".join(lines))
        trace = explore(model)
        assert trace.unique_count == 4
        assert len(trace.codes) == 4
        # the cycle closes by regenerating the initial state
        assert encode(model, [0, 0]) == trace.codes[-1]

    def test_deterministic_trace(self, tmp_path):
        model = example_model("ring")
        first = explore(model)
        second = explore(model)
        assert first.codes == second.codes
        write_trace(tmp_path / "a.trace", first.codes)
        write_trace(tmp_path / "b.trace", second.codes)
        assert (tmp_path / "a.trace").read_bytes() == (tmp_path / "b.trace").read_bytes()

    def test_random_models_match_oracle(self):
        rng = random.Random(123)
        for _ in range(20):
            model = random_model(rng)
            trace = explore(model)
            oracle = oracle_successor_codes(model)
            assert trace.unique_count == len(oracle)
            assert set(trace.codes) == oracle


class TestExploreOrder:
    """``explore`` against the sequential per-state BFS, code for code."""

    def test_random_models_match_order_oracle(self):
        # the models of criterion 6: multiway sync and repeated labels
        rng = random.Random(2718)
        for i in range(50):
            model = random_model(rng)
            trace = explore(model)
            codes, unique = oracle_trace(model)
            assert trace.codes == codes, f"model {i}"
            assert trace.unique_count == unique, f"model {i}"

    def test_product_fills_code_space(self):
        # 31 two-state processes multiply to exactly CODE_SPACE; the visited
        # bitmap must not cost time or memory in proportion to that product
        processes = [Automaton(f"p{i}", 2, 1, []) for i in range(30)]
        processes.append(Automaton("top", 2, 1, [(1, "down", 0), (0, "up", 1)]))
        model = Model(processes)
        trace = explore(model)
        top = CODE_SPACE - 1
        assert trace.codes == [top - (1 << 30), top]
        assert trace.unique_count == 2
        assert (trace.codes, trace.unique_count) == oracle_trace(model)

    @pytest.mark.parametrize("chunk_cells", [trace_module._CHUNK_CELLS, 4])
    def test_wide_joint_label_in_chunks(self, monkeypatch, chunk_cells):
        # a label shared by four processes with six transitions each (two per
        # source state) has 6**4 joint combinations, and a state where all
        # four sit on a source fires 2**4 of them; 4 cells is one state a chunk
        monkeypatch.setattr(trace_module, "_CHUNK_CELLS", chunk_cells)
        processes = []
        for p in range(4):
            transitions = [(i, f"a{p}", (i + 1) % 8) for i in range(8)]
            transitions += [(k // 2, "s", (3 * k + p + 1) % 8) for k in range(6)]
            processes.append(Automaton(f"p{p}", 8, 0, transitions))
        model = Model(processes)
        trace = explore(model)
        assert (trace.codes, trace.unique_count) == oracle_trace(model)

    @pytest.mark.parametrize(
        "procs, states",
        [
            (1, 20_000),  # 20,000 levels of one state, 20,000 moves
            (4, 100),  # 100**4 joint combinations of the shared label
        ],
    )
    def test_cost_follows_enabled_moves(self, procs, states):
        # procs rings of ``states`` states step together on one label; time
        # and memory must not grow with levels x moves or with the number of
        # joint combinations, which would take minutes or gigabytes here
        script = f"""
import time
from hashkeeper.trace import Automaton, Model, explore
ring = [(i, "s", (i + 1) % {states}) for i in range({states})]
model = Model([Automaton(f"p{{p}}", {states}, 0, ring) for p in range({procs})])
start = time.perf_counter()
trace = explore(model)
unit = sum({states} ** p for p in range({procs}))
assert trace.codes == [k % {states} * unit for k in range(1, {states} + 1)]
assert trace.unique_count == {states}
# peak RSS since exec; ru_maxrss would report the forking process's peak
with open("/proc/self/status") as status:
    peak_kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(time.perf_counter() - start, peak_kb)
"""
        src = str(Path(trace_module.__file__).parents[1])
        result = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        seconds, peak_kb = map(float, result.stdout.split())
        assert seconds < 20
        assert peak_kb < 200 * 1024

    def test_initial_state_counts_only_if_reemitted(self):
        cycle = explore(Model([Automaton("p", 3, 0, [(0, "a", 1), (1, "b", 0)])]))
        assert cycle.codes == [1, 0]
        assert cycle.unique_count == 2
        chain = Model([Automaton("p", 3, 0, [(0, "a", 1), (1, "b", 2), (2, "c", 1)])])
        assert explore(chain).codes == [1, 2, 1]
        assert explore(chain).unique_count == 2


class TestExampleModels:
    def test_all_parse_and_revisit(self):
        for name in EXAMPLE_MODELS:
            model = example_model(name)
            assert model.processes
        for name in ("handshake", "ring"):
            trace = explore(example_model(name))
            assert trace.mean_multiplicity > 1.0

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("handshake", "01b35e6d105dac229e525d2ab8350ed966149a914737db3a692c636c9d6b50f9"),
            ("ring", "8d74123175b3b2fe1b8f60da956061ae9d6cfcb647d2ae80b966bdfa7ed7cf97"),
        ],
    )
    def test_trace_order_pinned(self, name, digest):
        codes = explore(example_model(name)).codes
        assert hashlib.sha256(np.asarray(codes, dtype="<u4").tobytes()).hexdigest() == digest


class TestTraceFiles:
    def test_roundtrip(self, tmp_path):
        rng = random.Random(5)
        codes = [rng.randrange(0, 2**31) for _ in range(10_000)]
        path = tmp_path / "t.trace"
        written = write_trace(path, codes)
        back = read_trace(path)
        assert back.codes == codes
        assert back.unique_count == written.unique_count == len(set(codes))
        meta = (tmp_path / "t.trace.meta").read_text()
        assert f"length {len(codes)}" in meta
        assert f"unique_count {len(set(codes))}" in meta

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_bytes(b"NOTATRACE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            read_trace(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "short.trace"
        write_trace(path, [1, 2, 3, 4])
        data = path.read_bytes()
        # cut inside the payload, and inside the 8-byte length field
        for cut in (data[:-4], data[:10]):
            path.write_bytes(cut)
            with pytest.raises(ValueError, match="truncated"):
                read_trace(path)


class TestFirstPositions:
    @staticmethod
    def oracle(codes):
        first = {}
        for i, code in enumerate(codes.tolist()):
            first.setdefault(code, i)
        return sorted(first.values())

    def check(self, codes):
        positions = first_positions(codes)
        assert positions.tolist() == self.oracle(codes)
        return positions

    def test_empty_one_and_all_equal(self):
        assert len(self.check(np.array([], dtype=np.uint32))) == 0
        assert self.check(np.array([7], dtype=np.uint32)).tolist() == [0]
        assert self.check(np.full(1000, 42, dtype=np.int64)).tolist() == [0]

    @pytest.mark.parametrize("k", [1, 2, 5, 10, 14])
    def test_lengths_around_powers_of_two(self, k):
        rng = np.random.default_rng(k)
        for length in (2**k - 1, 2**k, 2**k + 1):
            # a largest code of 2n - 2 or 2n - 1 takes the dense path, 2n the packed sort
            for spread in (2, length, 2 * length - 1, 2 * length, 2 * length + 1, 2**32):
                codes = rng.integers(0, spread, length, dtype=np.int64)
                codes[rng.integers(length)] = spread - 1
                for dtype in (np.uint32, np.int64):
                    self.check(codes.astype(dtype))

    @pytest.mark.parametrize("dtype", [np.uint32, np.int64])
    def test_extreme_codes(self, dtype):
        top = 2**32 - 1
        codes = np.array([top, 0, 5, top, 0, 5, 1, top - 1, top], dtype=dtype)
        assert self.check(codes).tolist() == [0, 1, 2, 6, 7]
        self.check(np.resize(codes, 1025))

    def test_peak_within_packed_sort(self):
        # a block peaks no higher than the packed sort does on the same block
        # shifted up, which has the same positions: a largest code of 2n - 1
        # takes the dense path, 5n/2 is past the dense rule.  The blocks'
        # keys are all distinct or one in eight distinct.  At this n numpy's
        # fixed 8,192-element ufunc.at buffers are under a fifth of the margin.
        n = 1 << 19
        rng = np.random.default_rng(11)
        for top in (2 * n - 1, 5 * n // 2):
            values = np.append(rng.permutation(top)[: n - 1], top).astype(np.uint32)
            for block in (rng.permutation(values), values[rng.integers(n - n // 8, n, n)]):
                peaks, outputs = [], []
                for codes in (block, block << 10):
                    tracemalloc.start()
                    try:
                        outputs.append(first_positions(codes))
                        peaks.append(tracemalloc.get_traced_memory()[1])
                    finally:
                        tracemalloc.stop()
                assert outputs[0].tolist() == self.oracle(block)
                assert np.array_equal(outputs[0], outputs[1])
                assert peaks[0] <= peaks[1]

    def test_explorer_codes(self):
        rng = np.random.default_rng(3)
        codes = rng.integers(0, CODE_SPACE, 5000, dtype=np.int64)
        self.check(np.concatenate([codes, codes[::-2], codes[:7]]))
