"""Non-random workloads from exploring networks of synchronizing automata.

A model is a set of finite automata composed in parallel: an action label
that appears in two or more processes fires only jointly (every process
knowing the label must take a matching transition at the same time), while
a label unique to one process fires on its own.  Breadth-first exploration
of the composite state space emits the 32-bit code of every successor it
generates, revisits included, which is exactly the find-or-insert sequence
a state space explorer would throw at a visited set.
"""

import struct
from collections import deque
from dataclasses import dataclass
from importlib import resources
from itertools import product

import numpy as np

TRACE_MAGIC = b"HKTRACE1"

# Codes must keep their top bit clear so they stay usable as table keys.
CODE_SPACE = 1 << 31


class ModelParseError(ValueError):
    """Malformed model text; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class Automaton:
    """One finite-state process: ``states`` locals, transitions on labels."""

    name: str
    states: int
    initial: int
    transitions: list  # of (src, label, dst)

    def __post_init__(self):
        if self.states < 1:
            raise ValueError(f"process {self.name!r} has no states")
        if not 0 <= self.initial < self.states:
            raise ValueError(
                f"process {self.name!r}: initial state {self.initial} out of range"
            )
        for src, label, dst in self.transitions:
            if not 0 <= src < self.states or not 0 <= dst < self.states:
                raise ValueError(
                    f"process {self.name!r}: transition ({src}, {label}, {dst}) "
                    f"references a state >= {self.states}"
                )


@dataclass
class Model:
    """Automata in parallel composition with multiway label synchronization."""

    processes: list

    def __post_init__(self):
        if not self.processes:
            raise ValueError("model has no processes")
        space = 1
        for proc in self.processes:
            space *= proc.states
            if space > CODE_SPACE:
                raise OverflowError(
                    "composite state space does not fit the 31-bit code space"
                )

    def labels(self) -> dict:
        """Map from label to the sorted list of process indexes that know it."""
        owners = {}
        for p, proc in enumerate(self.processes):
            for _, label, _ in proc.transitions:
                entry = owners.setdefault(label, [])
                if not entry or entry[-1] != p:
                    entry.append(p)
        return owners


@dataclass
class Trace:
    """Ordered find-or-insert sequence of state codes, revisits included."""

    codes: list
    unique_count: int
    mean_multiplicity: float

    @classmethod
    def from_codes(cls, codes) -> "Trace":
        unique = len(set(codes))
        mean = len(codes) / unique if unique else 0.0
        return cls(list(codes), unique, mean)


def parse_model(text: str) -> Model:
    """Parse the line-oriented model format.

    ``process <name> <num_states> <initial>`` opens a process;
    ``t <src> <label> <dst>`` adds a transition to the open process.
    Blank lines separate processes, ``#`` starts a comment line.
    """
    processes = []
    names = set()
    current = None  # (line, name, states, initial, transitions)

    def close(current):
        line, name, states, initial, transitions = current
        try:
            processes.append(Automaton(name, states, initial, transitions))
        except ValueError as exc:
            raise ModelParseError(line, str(exc)) from None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "process":
            if len(fields) != 4:
                raise ModelParseError(
                    lineno, "expected: process <name> <num_states> <initial>"
                )
            name = fields[1]
            if name in names:
                raise ModelParseError(lineno, f"duplicate process name {name!r}")
            names.add(name)
            try:
                states, initial = int(fields[2]), int(fields[3])
            except ValueError:
                raise ModelParseError(
                    lineno, "num_states and initial must be integers"
                ) from None
            if current is not None:
                close(current)
            current = (lineno, name, states, initial, [])
        elif fields[0] == "t":
            if current is None:
                raise ModelParseError(lineno, "transition before any process line")
            if len(fields) != 4:
                raise ModelParseError(lineno, "expected: t <src> <label> <dst>")
            try:
                src, dst = int(fields[1]), int(fields[3])
            except ValueError:
                raise ModelParseError(lineno, "src and dst must be integers") from None
            states = current[2]
            if not 0 <= src < states or not 0 <= dst < states:
                raise ModelParseError(
                    lineno,
                    f"transition references state outside [0, {states - 1}]",
                )
            current[4].append((src, fields[2], dst))
        else:
            raise ModelParseError(lineno, f"unknown directive {fields[0]!r}")
    if current is not None:
        close(current)
    if not processes:
        raise ModelParseError(1, "no processes")
    return Model(processes)


def load_model(path) -> Model:
    with open(path, "r", encoding="utf-8") as f:
        return parse_model(f.read())


EXAMPLE_MODELS = ("handshake", "ring", "altbit")


def example_model(name: str) -> Model:
    """One of the models shipped with the package, by bare name."""
    if name not in EXAMPLE_MODELS:
        raise ValueError(f"unknown example model {name!r}; have {EXAMPLE_MODELS}")
    text = (
        resources.files("hashkeeper")
        .joinpath("models")
        .joinpath(f"{name}.net")
        .read_text(encoding="utf-8")
    )
    return parse_model(text)


def encode(model: Model, local_states) -> int:
    """Pack local states into one code, process 0 least significant."""
    code = 0
    mult = 1
    for proc, s in zip(model.processes, local_states):
        if not 0 <= s < proc.states:
            raise ValueError(f"local state {s} out of range for {proc.name!r}")
        code += s * mult
        mult *= proc.states
    if code >= CODE_SPACE:
        raise OverflowError("encoded state does not fit the 31-bit code space")
    return code


def explore(model: Model) -> Trace:
    """Breadth-first exploration emitting every generated successor code.

    Successors of a state are produced in a fixed order (process index,
    then transition declaration order; joint transitions fire at their
    lowest participating process, combinations ordered the same way), so
    the trace is byte-identical across runs.
    """
    procs = model.processes
    sizes = [proc.states for proc in procs]
    owners = model.labels()
    # A step of process p from local s to d changes the code by (d - s) * the
    # radix of p, so successors are the current code plus precomputed deltas.
    # moves[p][s] lists (delta, label, partners) in declaration order, where
    # partners is None for an independent label and the list of other
    # participating processes when p is the lowest participant.
    # joint[p][s][label] lists the deltas of p's steps on a joint label, for
    # resolving p as a partner.
    moves = []
    joint = []
    mult = 1
    for p, proc in enumerate(procs):
        rows = [[] for _ in range(proc.states)]
        deltas = [{} for _ in range(proc.states)]
        for src, label, dst in proc.transitions:
            delta = (dst - src) * mult
            parts = owners[label]
            if len(parts) == 1:
                rows[src].append((delta, label, None))
            else:
                if parts[0] == p:
                    rows[src].append((delta, label, parts[1:]))
                deltas[src].setdefault(label, []).append(delta)
        moves.append(rows)
        joint.append(deltas)
        mult *= proc.states

    init = encode(model, [proc.initial for proc in procs])
    codes = []
    visited = {init}
    frontier = deque([init])
    while frontier:
        code = frontier.popleft()
        local = []
        rest = code
        for size in sizes:
            rest, s = divmod(rest, size)
            local.append(s)
        for p, s in enumerate(local):
            for delta, label, partners in moves[p][s]:
                if partners is None:
                    succs = (code + delta,)
                else:
                    choices = [joint[q][local[q]].get(label) for q in partners]
                    if None in choices:
                        continue
                    base = code + delta
                    succs = (base + sum(combo) for combo in product(*choices))
                for succ in succs:
                    codes.append(succ)
                    if succ not in visited:
                        visited.add(succ)
                        frontier.append(succ)
    return Trace.from_codes(codes)


# -- trace files --------------------------------------------------------------


def write_trace(path, codes) -> Trace:
    """Write the binary trace plus its text sidecar; returns the stats."""
    trace = Trace.from_codes(codes)
    with open(path, "wb") as f:
        f.write(TRACE_MAGIC)
        f.write(struct.pack("<Q", len(trace.codes)))
        f.write(np.asarray(trace.codes, dtype="<u4").tobytes())
    with open(f"{path}.meta", "w", encoding="utf-8") as f:
        f.write(f"length {len(trace.codes)}\n")
        f.write(f"unique_count {trace.unique_count}\n")
        f.write(f"mean_multiplicity {trace.mean_multiplicity:.6f}\n")
    return trace


def read_trace(path) -> Trace:
    """Read a binary trace; stats are recomputed, not trusted from the sidecar."""
    with open(path, "rb") as f:
        magic = f.read(8)
        if magic != TRACE_MAGIC:
            raise ValueError(f"{path}: not a trace file (bad magic {magic!r})")
        (length,) = struct.unpack("<Q", f.read(8))
        payload = f.read(4 * length)
    if len(payload) != 4 * length:
        raise ValueError(f"{path}: truncated trace (expected {length} codes)")
    codes = np.frombuffer(payload, dtype="<u4").tolist()
    return Trace.from_codes(codes)
