"""Reference figures for the explored traces, made apart from the program.

    python3 perfbench/reference.py            # rewrites perfbench/references.json

For each model shipped in ``src/hashkeeper/models`` this parses the ``.net``
text itself and runs a label-centric brute-force product construction: from
every reachable composite state, each label fires as the product of the
moves of every process that knows it.  It records the number of successors
generated (the length of a trace that emits every successor, revisits
included), the number of distinct successor codes and a SHA-256 of those
codes sorted as little-endian 32-bit words.  Nothing here imports the
program, so the benchmark can hold the explorer's output against it.  The
``altbit`` model takes about a minute.
"""

import hashlib
import itertools
import json
import sys
from collections import deque
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
MODELS = HERE.parent / "src" / "hashkeeper" / "models"
REFERENCES = HERE / "references.json"


def parse(text):
    """List of ``(states, initial, [(src, label, dst), ...])``, one per process."""
    procs = []
    for raw in text.splitlines():
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        if fields[0] == "process":
            procs.append((int(fields[2]), int(fields[3]), []))
        elif fields[0] == "t":
            procs[-1][2].append((int(fields[1]), fields[2], int(fields[3])))
        else:
            raise ValueError(f"unknown directive {fields[0]!r}")
    return procs


def successor_stats(procs):
    """``(generated, distinct codes)`` of a breadth-first product construction."""
    owners = {}
    for p, (_, _, transitions) in enumerate(procs):
        for _, label, _ in transitions:
            owners.setdefault(label, set()).add(p)
    labels = [(label, sorted(parts)) for label, parts in sorted(owners.items())]
    # moves[p][s][label] -> destinations of process p leaving local state s
    moves = []
    for states, _, transitions in procs:
        rows = [{} for _ in range(states)]
        for src, label, dst in transitions:
            rows[src].setdefault(label, []).append(dst)
        moves.append(rows)
    mults = []
    mult = 1
    for states, _, _ in procs:
        mults.append(mult)
        mult *= states

    init = tuple(initial for _, initial, _ in procs)
    seen = {init}
    frontier = deque([init])
    codes = set()
    generated = 0
    while frontier:
        vec = frontier.popleft()
        for label, parts in labels:
            options = [moves[q][vec[q]].get(label) for q in parts]
            if not all(options):
                continue
            for combo in itertools.product(*options):
                succ = list(vec)
                for q, dst in zip(parts, combo):
                    succ[q] = dst
                succ = tuple(succ)
                generated += 1
                codes.add(sum(s * m for s, m in zip(succ, mults)))
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)
    return generated, codes


def digest(sorted_codes) -> str:
    """SHA-256 of ascending codes written as little-endian 32-bit words."""
    return hashlib.sha256(np.asarray(sorted_codes, dtype="<u4").tobytes()).hexdigest()


def model_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def main() -> int:
    out = {}
    for path in sorted(MODELS.glob("*.net")):
        generated, codes = successor_stats(parse(path.read_text(encoding="utf-8")))
        out[path.stem] = {
            "model_sha256": model_digest(path),
            "length": generated,
            "distinct": len(codes),
            "distinct_sha256": digest(sorted(codes)),
        }
        print(f"{path.stem}: {generated} generated, {len(codes)} distinct", file=sys.stderr)
    REFERENCES.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
