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
from dataclasses import dataclass
from importlib import resources
from math import prod

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
    def from_codes(cls, codes: list, unique: int) -> "Trace":
        """Keeps ``codes`` a list: README promises one, perfbench checks ``codes == explored``."""
        mean = len(codes) / unique if unique else 0.0
        return cls(codes, unique, mean)


def sorted_distinct(words) -> np.ndarray:
    """The distinct values of an array, sorted: one sort and compare, faster than a set."""
    ordered = np.sort(words)
    first = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


def first_positions(codes) -> np.ndarray:
    """Ascending positions of the first occurrence of each value of ``codes``, all below 2**32.

    ``codes`` is an integer array of values in ``[0, 2**32)``.  A dense
    block, whose largest code is below twice its length n, scatters each
    position onto its code with ``np.minimum.at``: that array of
    ``max + 1`` uint32 words is no bigger than the n uint64 words the
    packed sort of any other block holds.  Either way only the distinct
    first positions are sorted last.
    """
    n = len(codes)
    if n < 2:
        return np.arange(n, dtype=np.uint32)
    top = int(codes.max())
    if top < 2 * n:
        # first[c] is the least position holding c, or n where c is absent
        first = np.full(top + 1, n, dtype=np.uint32)
        np.minimum.at(first, codes, np.arange(n, dtype=np.uint32))
        positions = first[first < n]
        positions.sort()
        return positions
    # each code packed above its position, below 2**64: one sort in place
    # groups a code's occurrences, the first leading
    bits = n.bit_length()
    packed = codes.astype(np.uint64)
    packed <<= bits
    scratch = np.arange(n, dtype=np.uint32)
    packed |= scratch
    packed.sort()
    np.right_shift(packed, bits, out=scratch, casting="unsafe")
    first = np.ones(n, dtype=bool)
    np.not_equal(scratch[1:], scratch[:-1], out=first[1:])
    del scratch
    positions = packed[first]
    del packed, first
    positions &= (1 << bits) - 1
    positions.sort()
    return positions


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


# Frontier states are expanded in chunks of at most this many (state,
# process) cells, which bounds the decoded local states of one step.
_CHUNK_CELLS = 1 << 20


def _csr(states, entries, width):
    """Entries grouped by local state, for segments of ``states`` locals each.

    ``entries`` are ``(segment, src, values)``, ``width`` values each.
    Returns ``(base, first, count, values)``: segment i at local s holds the
    ``count[base[i] + s]`` rows of ``values`` from ``first[base[i] + s]`` on,
    in the order given.
    """
    base = np.concatenate(([0], np.cumsum(states)))
    keys = np.array([base[i] + s for i, s, _ in entries], dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    count = np.bincount(keys, minlength=base[-1])
    values = np.array([entries[i][2] for i in order], dtype=np.int64)
    return base[:-1], np.cumsum(count) - count, count, values.reshape(-1, width)


def _moves(model: Model):
    """The model's moves as tables over local states: ``(owned, partner)``.

    A joint label fires at its lowest participant, the owner; the other
    participants are its partners.  ``owned`` holds each process's own moves
    per local state, in declaration order, as rows of the code delta and,
    per partner slot, the partner's segment and process.  ``partner`` holds
    the code deltas of one partner process on one label per local state.
    Partner segment 0 has one zero delta at each local state of process 0;
    it fills the slots of moves with fewer partners than the most.
    """
    procs = model.processes
    owners = model.labels()
    segments = {}  # (process, label) -> partner segment
    sizes = [procs[0].states]
    steps = [(0, s, [0]) for s in range(procs[0].states)]
    own = []
    radix = 1
    for p, proc in enumerate(procs):
        for src, label, dst in proc.transitions:
            delta = (dst - src) * radix
            if owners[label][0] == p:
                own.append((p, src, delta, label))
                continue
            if (p, label) not in segments:
                segments[p, label] = len(sizes)
                sizes.append(proc.states)
            steps.append((segments[p, label], src, [delta]))
        radix *= proc.states
    slots = max((len(owners[label]) - 1 for *_, label in own), default=0)
    rows = []
    for p, src, delta, label in own:
        row = [delta]
        for q in owners[label][1:]:
            row += [segments[q, label], q]
        rows.append((p, src, row + [0, 0] * (slots + 1 - len(owners[label]))))
    owned = _csr([proc.states for proc in procs], rows, 1 + 2 * slots)
    return owned, _csr(sizes, steps, 1)


def _spread(counts):
    """For runs of the given lengths: each item's run and rank within it."""
    run = np.repeat(np.arange(len(counts)), counts)
    return run, np.arange(len(run)) - (np.cumsum(counts) - counts)[run]


def explore(model: Model) -> Trace:
    """Breadth-first exploration emitting every generated successor code.

    Each BFS level is expanded as whole arrays, yet the trace is the one a
    sequential BFS emits: state by state; per state by process, then that
    process's transitions in declaration order; a joint label fires at its
    lowest participant, with the partners' matching transitions combined in
    ``itertools.product`` order.  A level costs in proportion to its states
    times the processes, plus the moves enabled at its states, however many
    moves the model has.  The next level is the first occurrence of each
    unvisited code.  The visited set is a bitmap of ``product / 8`` zeroed
    bytes, touched only near reached codes.
    """
    procs = model.processes
    (obase, ofirst, ocount, owned), (pbase, pfirst, pcount, pdelta) = _moves(model)
    sizes = np.array([proc.states for proc in procs], dtype=np.int64)
    radix = np.cumprod(sizes) // sizes
    slots = [(pbase[owned[:, j]], owned[:, j + 1]) for j in range(1, owned.shape[1], 2)]
    pdelta = pdelta[:, 0]
    init = encode(model, [proc.initial for proc in procs])
    visited = np.zeros((prod(proc.states for proc in procs) + 7) >> 3, dtype=np.uint8)
    visited[init >> 3] = 1 << (init & 7)
    rows = max(1, _CHUNK_CELLS // len(procs))
    codes = []
    reached = 0
    init_seen = False  # init is visited from the start, so counts once emitted
    level = np.array([init] if len(owned) else [], dtype=np.int64)
    while len(level):
        found = []
        for start in range(0, len(level), rows):
            chunk = level[start : start + rows]
            local = chunk[:, None] // radix % sizes
            # the owned moves at each state, by process, in declaration order
            at = (local + obase).ravel()
            count = ocount[at]
            ends = np.cumsum(count)
            move = np.repeat(ofirst[at] - ends + count, count) + np.arange(ends[-1])
            state = np.repeat(np.arange(len(chunk)), count.reshape(len(chunk), -1).sum(1))
            # the partners' matching moves at those states, in product order
            combos = np.ones(len(move), dtype=np.int64)
            ranges = []
            for segment, proc in slots:
                at = segment[move] + local[state, proc[move]]
                ranges.append((pfirst[at], pcount[at]))
                combos *= ranges[-1][1]
            run, rank = _spread(combos)
            succ = chunk[state[run]] + owned[move[run], 0]
            for first, options in reversed(ranges):
                rank, digit = np.divmod(rank, options[run])
                succ += pdelta[first[run] + digit]
            codes.extend(succ.tolist())
            init_seen = init_seen or bool((succ == init).any())
            fresh = succ[(visited[succ >> 3] >> (succ & 7) & 1) == 0]
            fresh = fresh[first_positions(fresh)]
            np.bitwise_or.at(visited, fresh >> 3, (1 << (fresh & 7)).astype(np.uint8))
            reached += len(fresh)
            found.append(fresh)
        level = np.concatenate(found)
    return Trace.from_codes(codes, reached + init_seen)


# -- trace files --------------------------------------------------------------


def write_trace(path, codes) -> Trace:
    """Write the binary trace plus its text sidecar; returns the stats."""
    words = np.asarray(codes, dtype="<u4")
    if not isinstance(codes, list):
        codes = words.tolist()
    trace = Trace.from_codes(codes, len(sorted_distinct(words)))
    with open(path, "wb") as f:
        f.write(TRACE_MAGIC)
        f.write(struct.pack("<Q", len(words)))
        f.write(words.tobytes())
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
        try:
            (length,) = struct.unpack("<Q", f.read(8))
        except struct.error:
            raise ValueError(f"{path}: truncated trace (cut inside its length field)") from None
        payload = f.read(4 * length)
    if len(payload) != 4 * length:
        raise ValueError(f"{path}: truncated trace (expected {length} codes)")
    words = np.frombuffer(payload, dtype="<u4")
    return Trace.from_codes(words.tolist(), len(sorted_distinct(words)))
