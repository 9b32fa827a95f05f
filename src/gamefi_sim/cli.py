"""Command-line interface.

Subcommands:
  simulate  run an experiment from a JSON config and write the series CSV
  report    recompute trend metrics from a previously written series CSV
  oracle    check the analytic full-collection cost against brute force

Exit codes: 0 success, 1 validation/usage error, 2 I/O error, 3 a pool
worker died, 130 interrupted.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import json
import os
import stat
import sys
from typing import Callable, Iterator, List, Optional, Tuple

from .analysis import (
    MIN_TREND_LENGTH,
    coupon_oracle,
    read_series_csv,
    trend_report,
    write_series_csv,
)
from .config import ConfigError, parse_config
from .core import derive_stream
from .harness import run_experiment
from .serverfi import expected_collection_cost

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_WORKER_DIED = 3
EXIT_INTERRUPTED = 130


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems with exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


class _IOFailure(Exception):
    """A read or write that failed with an OSError; the message says which."""


@contextlib.contextmanager
def _io_failure(prefix: str) -> Iterator[None]:
    """Re-raise an OSError from the block as ``_IOFailure(f"{prefix}: {exc}")``."""
    try:
        yield
    except OSError as exc:
        raise _IOFailure(f"{prefix}: {exc}") from exc


def _build_parser() -> _Parser:
    parser = _Parser(prog="gamefi-sim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    simulate = sub.add_parser("simulate", help="run an experiment and write its series CSV")
    simulate.add_argument("--config", required=True, help="path to a JSON config document")
    simulate.add_argument("--out", required=True, help="path for the aggregate series CSV")
    simulate.add_argument("--seed", type=int, default=None, help="override master_seed")
    simulate.add_argument("--iterations", type=int, default=None, help="override iterations")
    simulate.add_argument("--repeats", type=int, default=None, help="override repeats")
    simulate.add_argument("--report", default=None, help="also write trend metrics as JSON")
    simulate.add_argument("--workers", type=int, default=1,
                          help="process pool size for repeats, capped at the repeat and CPU counts "
                               "(result is identical for any value)")
    simulate.set_defaults(run=_cmd_simulate)

    report = sub.add_parser("report", help="recompute trend metrics from a series CSV")
    report.add_argument("--in", dest="source", required=True, help="path to a series CSV")
    report.set_defaults(run=_cmd_report)

    oracle = sub.add_parser("oracle", help="compare analytic collection cost with brute force")
    oracle.add_argument("--k", type=int, required=True, help="number of fragment types")
    oracle.add_argument("--trials", type=int, required=True, help="simulated collections")
    oracle.add_argument("--seed", type=int, default=0, help="stream seed")
    oracle.set_defaults(run=_cmd_oracle)
    return parser


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _write_outputs(outputs: List[Tuple[str, Callable[[str], None]]]) -> None:
    """Write each ``(destination, write)`` output whole, or leave none.

    Every ``write`` fills a fresh temp file in its destination's directory;
    only when all of them succeed are they renamed over their destinations.
    If a write or a rename fails, the temp files and any output already
    renamed are removed, and the OSError is re-raised naming the destination.
    """
    temps: List[str] = []
    placed: List[str] = []
    destination = ""
    try:
        for index, (destination, write) in enumerate(outputs):
            folder, name = os.path.split(os.path.abspath(destination))
            temps.append(os.path.join(folder, f".{name}.{os.getpid()}.{index}.tmp"))
            write(temps[-1])
        for temp, (destination, _) in zip(temps, outputs):
            os.replace(temp, destination)
            placed.append(destination)
    except BaseException as exc:
        for path in temps + placed:
            try:
                os.remove(path)
            except OSError:
                pass
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, destination) from exc
        raise


def _file_type(path: str, follow_symlinks: bool = True) -> int:
    """The ``S_IFMT`` bits of ``path``'s mode, or 0 if it cannot be stat'ed."""
    try:
        return stat.S_IFMT(os.stat(path, follow_symlinks=follow_symlinks).st_mode)
    except OSError:
        return 0


def _cmd_simulate(args: argparse.Namespace) -> None:
    with _io_failure("cannot read config"), open(args.config, "r", encoding="utf-8") as handle:
        text = handle.read()
    spec = parse_config(text)
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.iterations is not None:
        overrides["iterations"] = args.iterations
    if args.repeats is not None:
        overrides["repeats"] = args.repeats
    spec = dataclasses.replace(spec, **overrides)
    if args.report is not None and spec.iterations < MIN_TREND_LENGTH:
        raise ConfigError(
            f"--report requires at least {MIN_TREND_LENGTH} iterations, got {spec.iterations}"
        )
    if args.report is not None and os.path.realpath(args.report) == os.path.realpath(args.out):
        # the second rename would replace the first output
        raise ConfigError("--report must name a different file than --out")
    for flag, path in (("--out", args.out), ("--report", args.report)):
        if path is None:
            continue
        # its rename would put a regular file in place of it, or of the link to it
        if _file_type(path) in (stat.S_IFIFO, stat.S_IFSOCK, stat.S_IFCHR, stat.S_IFBLK):
            raise ConfigError(f"{flag} names {path}, which is a FIFO, socket or device")
        # a missing directory, or a directory (not a link to one) there, fails only after the run
        with _io_failure("cannot write output"):
            try:
                os.stat(os.path.join(os.path.dirname(os.path.abspath(path)), ""))
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, path) from exc
            if _file_type(path, follow_symlinks=False) == stat.S_IFDIR:
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            # a trailing separator names a directory, which the rename cannot create
            if path.endswith(tuple(filter(None, (os.sep, os.altsep)))):
                raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)
    # run_experiment refuses --workers < 1 before it simulates; a run can
    # still fail validation midway, e.g. on too many lottery draws or a float
    # overflow, and so can its mean or trend
    series, _ = run_experiment(spec, workers=args.workers)
    outputs: List[Tuple[str, Callable[[str], None]]] = [
        (args.out, lambda path: write_series_csv(series, path))
    ]
    if args.report is not None:
        payload = json.dumps(trend_report(series).to_dict(), indent=2) + "\n"
        outputs.append((args.report, lambda path: _write_text(path, payload)))
    with _io_failure("cannot write output"):
        _write_outputs(outputs)
    print(
        f"wrote {args.out} (model={spec.model}, "
        f"{spec.iterations} iterations x {spec.repeats} repeats, seed={spec.master_seed})"
    )


def _cmd_report(args: argparse.Namespace) -> None:
    with _io_failure("cannot read series"):
        series = read_series_csv(args.source)
    print(json.dumps(trend_report(series).to_dict(), indent=2))


def _cmd_oracle(args: argparse.Namespace) -> None:
    # coupon_oracle refuses k and trials out of range before it allocates
    estimate = coupon_oracle(args.k, args.trials, derive_stream(args.seed, 0))
    analytic = expected_collection_cost(args.k, 1.0)
    relative = abs(estimate - analytic) / analytic
    print(f"analytic_cost={analytic:.6g}")
    print(f"monte_carlo_mean={estimate:.6g}")
    print(f"relative_error={relative:.6g}")


def cli_main(argv: Optional[List[str]] = None) -> int:
    """Run one subcommand and return its exit code.

    This is the one place an exception becomes an exit code. A usage error,
    a ValueError (a ConfigError, a file that is not UTF-8, a run that fails
    validation midway) or a MemoryError exits 1; a failed read or write
    exits 2; a pool worker that died (a broken process pool) exits 3; an
    interrupt (Ctrl-C) exits 130. A failure prints exactly one ``error:``
    line to stderr.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required (simulate, report, oracle)")
        args.run(args)
        return EXIT_OK
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        message, code = str(exc), EXIT_VALIDATION
    except ValueError as exc:
        message, code = str(exc), EXIT_VALIDATION
    except MemoryError as exc:
        message, code = "out of memory" + (f": {exc}" if str(exc) else ""), EXIT_VALIDATION
    except _IOFailure as exc:
        message, code = str(exc), EXIT_IO
    except RuntimeError as exc:
        # imported here, so a serial run never loads the pool's modules
        from concurrent.futures import BrokenExecutor

        if not isinstance(exc, BrokenExecutor):
            raise
        message, code = f"a worker process died: {exc}", EXIT_WORKER_DIED
    except KeyboardInterrupt:
        message, code = "interrupted", EXIT_INTERRUPTED
    print(f"error: {message}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
