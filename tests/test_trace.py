import hashlib
import random

import numpy as np
import pytest

from oracles import oracle_successor_codes, random_model

from hashkeeper.trace import (
    EXAMPLE_MODELS,
    Automaton,
    Model,
    ModelParseError,
    encode,
    example_model,
    explore,
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
        path.write_bytes(data[:-4])
        with pytest.raises(ValueError, match="truncated"):
            read_trace(path)
