"""Benchmark of hashkeeper's two find-or-insert tables; one workload per call.

    python3 perfbench/run.py --workload uniform-d10-2w --seed 1 --seconds 33 --trace 0

Run it from the root of a source checkout.  It starts ``workload.py`` in a
fresh interpreter that imports the program from this checkout's ``src/``
(never an installed copy), times that process from start to exit as
``wall_s``, scaled to the reference speed like the workload's own times,
and prints its result line.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  See README.md in this directory for the workloads.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# A run must end within three minutes; this leaves room for start-up.
TIMEOUT_S = 170


def main() -> int:
    if not (SRC / "hashkeeper" / "__init__.py").is_file():
        print(f"error: no hashkeeper sources under {SRC}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    opts = parser.parse_args()
    args = [f"--{name}={value}" for name, value in vars(opts).items()]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    # A process group of its own lets a timeout stop the round processes too.
    with subprocess.Popen(
        [sys.executable, str(HERE / "workload.py"), *args],
        env=env, cwd=HERE.parent, stdout=subprocess.PIPE, text=True,
        process_group=0,
    ) as child:
        try:
            stdout, _ = child.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            stdout = None
        finally:
            if child.poll() is None:
                os.killpg(child.pid, signal.SIGKILL)
                child.wait()
    wall_s = time.perf_counter() - t0
    if stdout is None:
        print(f"error: workload did not finish in {TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = stdout.splitlines()
    if not lines or not lines[-1].startswith('{"correct"'):
        sys.stderr.write(stdout)
        print(f"error: workload exited {child.returncode} without a result",
              file=sys.stderr)
        return child.returncode or 1
    result = json.loads(lines[-1])
    if not opts.trace:
        detail = json.loads(lines[-2])["detail"]
        wall_s *= detail["cal_ref_s"] / detail["cal_median_s"]
        result["metrics"]["wall_s"] = {"value": wall_s, "unit": "s"}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
