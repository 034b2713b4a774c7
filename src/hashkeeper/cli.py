"""Command line front end: gen, explore, bench and sweep subcommands.

Exit codes: 0 success, 1 usage or input error, 2 a table reported itself
full, 3 internal consistency failure.
"""

import argparse
import sys

from . import bench
from .bench import DEFAULT_DUPLICATIONS, InternalConsistencyError
from .trace import ModelParseError, explore, load_model, write_trace

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TABLE_FULL = 2
EXIT_INCONSISTENT = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default, which collides with the
    # table-full exit code; route usage errors to exit code 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> list:
    return [int(part) for part in text.split(",") if part]


def _str_list(text: str) -> list:
    return [part for part in text.split(",") if part]


def _add_run_options(parser, workers: int) -> None:
    """The options ``bench`` and ``sweep`` share; ``workers`` is its default."""
    parser.add_argument("--width", type=int, default=1)
    parser.add_argument("--workers", type=int, default=workers)
    parser.add_argument("--reps", type=int, default=10)
    parser.add_argument("--scale", type=float, default=1.25)
    parser.add_argument("--hash-functions", type=int, default=4)
    parser.add_argument("--hash-seed", type=int, default=0)


def _run_options(args) -> dict:
    """The shared options as keyword arguments of ``bench.run``/``sweep``."""
    return dict(
        workers=args.workers,
        repetitions=args.reps,
        hash_seed=args.hash_seed,
        scale=args.scale,
        width=args.width,
        hash_functions=args.hash_functions,
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="hashkeeper", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_gen = sub.add_parser("gen", help="generate a random workload trace file")
    p_gen.add_argument("--len", dest="length", type=int, required=True)
    p_gen.add_argument("--dup", dest="duplication", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=1)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_explore = sub.add_parser("explore", help="explore a model into a trace file")
    p_explore.add_argument("--model", required=True)
    p_explore.add_argument("--out", required=True)
    p_explore.set_defaults(func=_cmd_explore)

    p_bench = sub.add_parser("bench", help="benchmark one table on one workload")
    p_bench.add_argument("--input", required=True, help="trace file to replay")
    p_bench.add_argument("--table", choices=bench.TABLE_KINDS, required=True)
    _add_run_options(p_bench, workers=1)
    p_bench.add_argument("--csv", default=None, help="write the report row here")
    p_bench.set_defaults(func=_cmd_bench)

    p_sweep = sub.add_parser("sweep", help="benchmark a duplication grid to CSV")
    p_sweep.add_argument("--len", dest="lengths", type=_int_list, default=[1_000_000])
    p_sweep.add_argument(
        "--dups", type=_int_list, default=list(DEFAULT_DUPLICATIONS)
    )
    p_sweep.add_argument(
        "--tables", type=_str_list, default=list(bench.TABLE_KINDS)
    )
    _add_run_options(p_sweep, workers=4)
    p_sweep.add_argument("--seed", type=int, default=1)
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def _wrote(path, trace) -> int:
    print(
        f"wrote {path}: {len(trace.codes)} codes, "
        f"{trace.unique_count} unique, mean multiplicity "
        f"{trace.mean_multiplicity:.3f}"
    )
    return EXIT_OK


def _cmd_gen(args) -> int:
    workload = bench.gen_random(args.length, args.duplication, args.seed)
    trace = write_trace(args.out, workload.codes)
    return _wrote(args.out, trace)


def _cmd_explore(args) -> int:
    model = load_model(args.model)
    trace = explore(model)
    write_trace(args.out, trace.codes)
    return _wrote(args.out, trace)


def _cmd_bench(args) -> int:
    workload = bench.load_workload(args.input)
    report = bench.run(workload, args.table, **_run_options(args))
    print(
        f"{report.table_kind}: {report.length} ops, {report.unique} unique, "
        f"mean {report.mean_ms:.3f} ms over {report.repetitions} reps, "
        f"{report.throughput_mops:.3f} Mops/s, inserted {report.inserted}, "
        f"found {report.found}, load {report.load_factor:.3f}"
        + (", TABLE FULL" if report.table_full else "")
    )
    if args.csv:
        bench.write_report_csv(args.csv, [report])
    return EXIT_TABLE_FULL if report.table_full else EXIT_OK


def _cmd_sweep(args) -> int:
    reports = bench.sweep(
        args.lengths,
        args.dups,
        args.tables,
        out=args.out,
        seed=args.seed,
        **_run_options(args),
    )
    full = sum(1 for r in reports if r.table_full)
    print(f"wrote {args.out}: {len(reports)} rows" + (f", {full} table-full" if full else ""))
    return EXIT_TABLE_FULL if full else EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except InternalConsistencyError as exc:
        print(f"hashkeeper: internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (ModelParseError, OverflowError, ValueError) as exc:
        print(f"hashkeeper: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"hashkeeper: i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    sys.exit(main())
