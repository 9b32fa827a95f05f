"""Command-line interface.

Subcommands:
  simulate  run an experiment from a JSON config and write the series CSV
  report    recompute trend metrics from a previously written series CSV
  oracle    check the analytic full-collection cost against brute force

Exit codes: 0 success, 1 validation/usage error, 2 I/O error, 3 a pool
worker died or could not start, 130 interrupted.
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
from typing import IO, Iterator, List, Optional

from .analysis import (
    MIN_TREND_LENGTH,
    coupon_oracle,
    read_series_csv,
    trend_report,
    write_series_csv,
)
from .config import ConfigError, parse_config
from .core import derive_stream
from .harness import WorkerStartError, run_experiment
from .serverfi import expected_collection_cost

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_WORKER_DIED = 3
EXIT_INTERRUPTED = 130


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant: usage problems exit 1, and ``--help`` prints through ``_print``."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)

    def _print_message(self, message: str, file: Optional[IO[str]] = None) -> None:
        if message and file is sys.stdout:
            _print(message, end="")
        else:
            super()._print_message(message, file)


class _IOFailure(Exception):
    """A read or write that failed with an OSError; the message says which."""


@contextlib.contextmanager
def _io_failure(prefix: str, path: Optional[str] = None) -> Iterator[None]:
    """Re-raise an OSError from the block as ``_IOFailure(f"{prefix}: {exc}")``.

    If ``path`` is given, the message names it instead of the OSError's file.
    """
    try:
        yield
    except OSError as exc:
        named = exc if path is None else OSError(exc.errno, exc.strerror, path)
        raise _IOFailure(f"{prefix}: {named}") from exc


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
                          help="process pool size for repeats, at most one per repeat and per CPU "
                               "this process may run on (result is identical for any value)")
    simulate.set_defaults(run=_cmd_simulate)

    report = sub.add_parser(
        "report", help="recompute trend metrics from a series CSV",
        description="Recompute trend metrics from a series CSV. They are computed from the "
                    "CSV's values, rounded to 6 significant digits, so they can differ from "
                    "the JSON that simulate --report wrote from the unrounded series.")
    report.add_argument("--in", dest="source", required=True, help="path to a series CSV")
    report.set_defaults(run=_cmd_report)

    oracle = sub.add_parser("oracle", help="compare analytic collection cost with brute force")
    oracle.add_argument("--k", type=int, required=True, help="number of fragment types")
    oracle.add_argument("--trials", type=int, required=True, help="simulated collections")
    oracle.add_argument("--seed", type=int, default=0, help="stream seed")
    oracle.set_defaults(run=_cmd_oracle)
    return parser


def _print(text: str, end: str = "\n") -> None:
    """Print ``text`` to stdout now; a failed write (a closed pipe) is an I/O failure.

    After a failure fd 1 points at ``os.devnull``, so the interpreter's
    flush of stdout at exit prints nothing more.
    """
    try:
        print(text, end=end, flush=True)
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise _IOFailure(f"cannot write stdout: {exc}") from exc


def _reserve(destination: str) -> str:
    """Create the first free ``.gamefi-sim.N.tmp`` beside ``destination``; return its path.

    A taken name, such as a killed run's leftover, is passed over, never opened
    or removed; the name is as short whatever the destination's name is. The
    directory is spelled as ``destination`` spells it, so a relative output
    needs no absolute path, which a deep working directory could make too long.
    """
    folder = os.path.dirname(destination)
    attempt = 0
    while True:
        temp = os.path.join(folder, f".gamefi-sim.{attempt}.tmp")
        with contextlib.suppress(FileExistsError):
            os.close(os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
            return temp
        attempt += 1


def _file_type(path: str) -> int:
    """The ``S_IFMT`` bits of ``path``'s mode, or 0 if it cannot be stat'ed."""
    try:
        return stat.S_IFMT(os.stat(path).st_mode)
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
    outputs = [(flag, path) for flag, path in (("--out", args.out), ("--report", args.report))
               if path is not None]
    # each output is reserved before the run: its temp file is created here,
    # exclusively, so nothing planted at that name later is followed; after
    # the run it is filled and renamed into place. Any failure, a refusal,
    # the run, a write, a rename or Ctrl-C, removes the temp files and the
    # outputs already renamed, so an output is left whole or not at all
    temps: List[str] = []
    placed: List[str] = []
    try:
        for flag, path in outputs:
            # its rename would put a regular file in place of it, or of the link to it
            if _file_type(path) in (stat.S_IFIFO, stat.S_IFSOCK, stat.S_IFCHR, stat.S_IFBLK):
                raise ConfigError(f"{flag} names {path}, which is a FIFO, socket or device")
            # refused before the run: an empty path, a directory (not a link
            # to one), and a directory that is missing or refuses the temp
            # file; the reservation comes last, as for "" or "." it would go
            # in the working directory
            with _io_failure("cannot write output", path):
                if not path:
                    raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
                # lstat also refuses a name too long for its directory, as the rename would
                with contextlib.suppress(FileNotFoundError):
                    if stat.S_ISDIR(os.lstat(path).st_mode):
                        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
                # a trailing separator names a directory, which the rename cannot create
                if path.endswith(tuple(filter(None, (os.sep, os.altsep)))):
                    raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)
                temps.append(_reserve(path))
        # a rename would replace the config, or the second the first output
        flags = {}
        for flag, path in [("--config", args.config)] + outputs:
            real = os.path.realpath(path)
            if real in flags:
                raise ConfigError(f"{flag} must name a different file than {flags[real]}")
            flags[real] = flag
        # run_experiment refuses --workers < 1 before it simulates; a run can
        # still fail validation midway, e.g. on too many lottery draws or a
        # float overflow, and so can its mean or trend
        series, _ = run_experiment(spec, workers=args.workers)
        if args.report is not None:
            payload = json.dumps(trend_report(series).to_dict(), indent=2) + "\n"
        with _io_failure("cannot write output", args.out):
            write_series_csv(series, temps[0])
        if args.report is not None:
            with _io_failure("cannot write output", args.report):
                with open(temps[1], "w", encoding="utf-8") as handle:
                    handle.write(payload)
        for temp, (_, path) in zip(temps, outputs):
            with _io_failure("cannot write output", path):
                os.replace(temp, path)
            placed.append(path)
    except BaseException:
        for path in temps[len(placed):] + placed:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise
    # the outputs are in place, so a failed write to stdout leaves them
    _print(
        f"wrote {args.out} (model={spec.model}, "
        f"{spec.iterations} iterations x {spec.repeats} repeats, seed={spec.master_seed})"
    )


def _cmd_report(args: argparse.Namespace) -> None:
    with _io_failure("cannot read series"):
        series = read_series_csv(args.source)
    _print(json.dumps(trend_report(series).to_dict(), indent=2))


def _cmd_oracle(args: argparse.Namespace) -> None:
    # coupon_oracle refuses k and trials out of range before it allocates
    estimate = coupon_oracle(args.k, args.trials, derive_stream(args.seed, 0))
    analytic = expected_collection_cost(args.k, 1.0)
    relative = abs(estimate - analytic) / analytic
    _print(
        f"analytic_cost={analytic:.6g}\nmonte_carlo_mean={estimate:.6g}\n"
        f"relative_error={relative:.6g}"
    )


def cli_main(argv: Optional[List[str]] = None) -> int:
    """Run one subcommand and return its exit code.

    This is the one place an exception becomes an exit code. A usage error,
    a ValueError (a ConfigError, a file that is not UTF-8, a run that fails
    validation midway) or a MemoryError exits 1; a failed read or write,
    stdout's included, exits 2; a pool worker that died (a broken process pool) or could not
    start exits 3; an interrupt (Ctrl-C) exits 130. A failure prints
    exactly one ``error:`` line to stderr.
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
    except WorkerStartError as exc:
        message, code = str(exc), EXIT_WORKER_DIED
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
