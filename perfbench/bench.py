"""gamefi-sim benchmark: how long the plotted band takes, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload serverfi_default --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one after another

Each run calls the entry point a user runs, ``gamefi_sim.cli.cli_main(
["simulate", ...])``, in-process and repeatedly for ``--seconds`` seconds,
on a config generated from ``--seed`` (the experiment's master seed); the
set-up samples and the reference and serial checks run outside that
window. Every call's records are checked (see ``checks.py``), and its CSV
and report must be byte-identical to the first call's. A reference
simulate at seed 42 must
match ``golden.json``, and a pool workload must write the same CSV as the
same experiment run serially.

``--trace 0`` prints the end-to-end metrics; the only wrapper installed is
a pass-through timestamp pair around ``harness.run_once`` that gives the
per-repeat times. ``--trace 1`` alternates traced and untraced calls: the
traced ones give the per-layer metrics (``spans.py``), and the difference
of the two medians is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (repeats simulated), ``failed`` (repeats failing
a check) and ``metrics``. The exit status is 0 when every check passed,
1 when one failed and 2 when the program or the arguments are missing.
``--write-golden`` recomputes ``golden.json`` after an intended change to
what the simulator computes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy  # noqa: E402

import gamefi_sim  # noqa: E402
from checks import COUNT_NAMES, check_repeat, count_repeat  # noqa: E402
from gamefi_sim import cli, harness, retention, serverfi  # noqa: E402
from gamefi_sim.config import parse_config  # noqa: E402
from spans import LayerTotal, Tracer, layer_totals  # noqa: E402

WORK_ROOT = HERE.parent / ".perfbench_work"
GOLDEN_PATH = HERE / "golden.json"

REFERENCE_SEED = 42
REFERENCE_REPEATS = 2
MIN_CALLS = 3  # untraced calls per run; a traced run makes this many of each kind
TAIL_BEYOND = 10  # the tail percentile is the highest with this many samples beyond it

SETUP_CODE = """
import sys
import gamefi_sim.cli
from gamefi_sim.config import parse_config
from gamefi_sim.harness import validate_spec
with open(sys.argv[1], encoding="utf-8") as handle:
    validate_spec(parse_config(handle.read()))
print("ready", flush=True)
"""


@dataclass(frozen=True)
class Workload:
    name: str
    config: Dict  # the simulate config, without master_seed
    workers: int = 1


# Why each workload is there is recorded in BENCHMARK.json. The serial
# workloads simulate 4 repeats per call, not the paper's 100 (about 80 s for
# serverfi), so a run makes several calls and run_s is a median over them.
# Retention at
# default parameters is measured only through the pool: timed serially, its
# small Python-bound steps swung by up to 1.7x between runs on a 2-vCPU host,
# too much for any bound. Each retention_pool2 run still simulates it serially
# once, untimed, to check that both write the same CSV.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("serverfi_default", {"model": "serverfi", "iterations": 500, "repeats": 4}),
        Workload(
            "retention_crowd",
            {"model": "retention", "iterations": 500, "repeats": 4,
             "retention": {"n0": 5000, "alpha": 1.02}},
        ),
        Workload(
            "retention_pool2",
            {"model": "retention", "iterations": 500, "repeats": 40},
            workers=2,
        ),
    )
}

END_TO_END_UNITS = {
    "run_s": "s",
    "repeat_s_p50": "s",
    "repeat_s_tail": "s",
    "agent_steps_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run: program missing or a call did not succeed."""


@dataclass
class Call:
    """One simulate call: its wall time, outputs and what the checks found."""

    run_s: float
    traced: bool
    repeat_s: List[float]
    counts: Dict[str, int]
    digests: Tuple[str, str]
    violations: List[str]  # first broken identity of each failing repeat
    layers: Dict[str, float]  # per-layer numbers, traced calls only


Metrics = Dict[str, Tuple[float, str]]  # name -> (value, unit)


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: Metrics
    lines: List[str]

    def json_line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        })


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _config_text(workload: Workload, seed: int, repeats: Optional[int] = None) -> str:
    config = dict(workload.config, master_seed=seed)
    if repeats is not None:
        config["repeats"] = repeats
    return json.dumps(config, sort_keys=True)


class Simulator:
    """Runs ``cli_main(["simulate", ...])`` for one config and checks each call."""

    def __init__(self, workload: Workload, config_text: str, workdir: Path) -> None:
        self.workload = workload
        try:
            self.spec = parse_config(config_text)
        except ValueError as exc:
            raise BenchError(f"invalid workload config: {exc}") from None
        self.workdir = workdir
        self.config_path = workdir / "config.json"
        self.config_path.write_text(config_text, encoding="utf-8")
        self.csv_path = workdir / "series.csv"
        self.report_path = workdir / "report.json"
        self.record_bytes: Optional[float] = None

    def call(self, traced: bool, workers: Optional[int] = None) -> Call:
        argv = ["simulate", "--config", str(self.config_path), "--out", str(self.csv_path),
                "--report", str(self.report_path),
                "--workers", str(workers or self.workload.workers)]
        captured: list = []

        def capture(*args, **kwargs):
            result = run_experiment(*args, **kwargs)
            captured.append(result)
            return result

        run_experiment = cli.run_experiment
        stdout = io.StringIO()
        with Tracer(self.workdir) as tracer:
            tracer.patch(cli, "run_experiment", capture)
            tracer.wrap(harness, "run_once", "harness.run_once")
            if traced:
                tracer.wrap(cli, "cli_main", "cli.cli_main")
                tracer.wrap(cli, "parse_config", "config.parse_config")
                tracer.wrap(cli, "run_experiment", "harness.run_experiment")
                tracer.wrap(cli, "write_series_csv", "analysis.write_series_csv")
                tracer.wrap(cli, "trend_report", "analysis.trend_report")
                tracer.wrap(harness, "aggregate", "harness.aggregate")
                for model in (serverfi, retention):
                    tracer.wrap(model, "step", "step")
                    tracer.wrap(model, "init_productivity_batch", "core.init_productivity_batch")
                    tracer.wrap(model, "mutate_productivity_batch", "core.mutate_productivity_batch")
                tracer.wrap(serverfi, "draw_fragments", "serverfi.draw_fragments")
            with contextlib.redirect_stdout(stdout):
                start = time.perf_counter()
                status = cli.cli_main(argv)
                run_s = time.perf_counter() - start
            tracer.collect_workers()
            spans = tracer.take()
        if status != 0:
            raise BenchError(f"simulate exited {status}: {stdout.getvalue().strip()}")

        _, raw = captured[0]
        counts = dict.fromkeys(COUNT_NAMES, 0)
        violations = []
        for index, records in enumerate(raw):
            broken = check_repeat(self.spec, records)
            if broken:
                violations.append(f"repeat {index}: {broken[0]}")
            for name, value in count_repeat(self.spec, records).items():
                counts[name] += value
        if self.record_bytes is None:
            self.record_bytes = statistics.median(len(pickle.dumps(r)) for r in raw)
        repeat_s = [s.duration for s in spans if s.name == "harness.run_once"]
        if len(repeat_s) != self.spec.repeats:
            raise BenchError(f"timed {len(repeat_s)} repeats, expected {self.spec.repeats}")
        layers = _layer_metrics(layer_totals(spans), counts, self.csv_path.stat().st_size) \
            if traced else {}
        return Call(run_s, traced, repeat_s, counts,
                    (_sha256(self.csv_path), _sha256(self.report_path)), violations, layers)


def _layer_metrics(layers, counts: Dict[str, int], csv_bytes: int) -> Dict[str, float]:
    """Per-layer numbers of one traced call, from its span totals."""
    def get(name: str) -> LayerTotal:
        return layers.get(name, LayerTotal())

    def ns_per(seconds: float, count: int) -> float:
        return seconds * 1e9 / count if count else 0.0

    run_once = get("harness.run_once")
    init = get("core.init_productivity_batch").total
    mutate = get("core.mutate_productivity_batch").total
    draw = get("serverfi.draw_fragments").total
    step_self = get("step").self_time
    survivors = counts["agent_steps"] - counts["departures"]
    return {
        "cli.cli_main.self_s": get("cli.cli_main").self_time,
        "config.parse_config.s": get("config.parse_config").total,
        "harness.pool_s": get("harness.run_experiment").total - get("harness.aggregate").total,
        "harness.aggregate.s": get("harness.aggregate").total,
        "harness.run_once.s": run_once.total,
        "harness.run_once.self_s": run_once.self_time,
        "harness.run_once.child_share": 1.0 - run_once.self_time / run_once.total,
        "step.self_s": step_self,
        "step.ns_per_agent_step": ns_per(step_self, counts["agent_steps"]),
        "core.init_productivity_batch.s": init,
        "core.init_productivity_batch.ns_per_agent": ns_per(init, counts["joins"]),
        "core.mutate_productivity_batch.s": mutate,
        "core.mutate_productivity_batch.ns_per_agent": ns_per(mutate, survivors),
        "serverfi.draw_fragments.s": draw,
        "serverfi.draw_fragments.ns_per_draw": ns_per(draw, counts["serverfi.draws"]),
        "analysis.write_series_csv.s": get("analysis.write_series_csv").total,
        "analysis.write_series_csv.bytes": float(csv_bytes),
        "analysis.trend_report.s": get("analysis.trend_report").total,
    }


LAYER_UNITS = {
    "cli.cli_main.self_s": "s",
    "config.parse_config.s": "s",
    "harness.pool_s": "s",
    "harness.aggregate.s": "s",
    "harness.run_once.s": "s",
    "harness.run_once.self_s": "s",
    "harness.run_once.child_share": "ratio",
    "harness.record_bytes": "bytes",
    "step.self_s": "s",
    "step.ns_per_agent_step": "ns",
    "core.init_productivity_batch.s": "s",
    "core.init_productivity_batch.ns_per_agent": "ns",
    "core.mutate_productivity_batch.s": "s",
    "core.mutate_productivity_batch.ns_per_agent": "ns",
    "serverfi.draw_fragments.s": "s",
    "serverfi.draw_fragments.ns_per_draw": "ns",
    "analysis.write_series_csv.s": "s",
    "analysis.write_series_csv.bytes": "bytes",
    "analysis.trend_report.s": "s",
    "trace.overhead_s": "s",
}


def measure_setup(config_path: Path) -> float:
    """Seconds for a fresh interpreter to import gamefi_sim and validate the config."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(config_path)], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as child:
        ready = child.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = child.communicate(timeout=60)
    if ready.strip() != "ready" or child.returncode != 0:
        raise BenchError(f"set-up interpreter failed: {err.strip()}")
    return elapsed


def tail(values: List[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest sample with TAIL_BEYOND samples beyond it.

    With fewer than TAIL_BEYOND + 1 samples there is no such sample and the
    maximum is returned as the 100th percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def run_context() -> Dict[str, object]:
    """Where a result set was measured (informational, never gated)."""
    cpu, caches = platform.processor() or "unknown", {}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(OSError):
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                caches[f"l{level}_cache"] = (index / "size").read_text().strip()
    src_dir = Path(gamefi_sim.__file__).parent
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        **caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_lines": sum(len(p.read_text().splitlines()) for p in src_dir.glob("*.py")),
    }


def reference_outputs(workload: Workload, workdir: Path) -> Dict[str, object]:
    """Digests and counts of the workload's experiment at the reference seed."""
    sim = Simulator(workload, _config_text(workload, REFERENCE_SEED, REFERENCE_REPEATS), workdir)
    call = sim.call(traced=False)
    return {"seed": REFERENCE_SEED, "repeats": REFERENCE_REPEATS, "violations": call.violations,
            "csv_sha256": call.digests[0], "report_sha256": call.digests[1], "counts": call.counts}


def run(workload: Workload, seed: int, seconds: float, trace: bool, work_root: Path,
        golden: Dict[str, object]) -> Result:
    """Measure one workload for ``seconds`` seconds of simulate calls and check every output.

    ``golden`` is what :func:`reference_outputs` gave for the workload when
    the simulator's output was last meant to change.
    """
    work_root.mkdir(parents=True, exist_ok=True)
    lines = [f"workload {workload.name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}"]
    context = run_context()
    lines.append("context " + json.dumps(context))
    if context["nproc"] and context["nproc"] <= 2:
        lines.append(f"note: nproc={context['nproc']}; parallel scaling above "
                     f"{context['nproc']} workers cannot be measured on this machine")
    problems: List[str] = []
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        workdir = Path(tmp)
        sim = Simulator(workload, _config_text(workload, seed), workdir)

        # the reference call also warms imports, allocator and caches
        (workdir / "reference").mkdir()
        if reference_outputs(workload, workdir / "reference") != golden:
            problems.append(f"reference outputs at seed {REFERENCE_SEED} differ from golden.json")

        calls: List[Call] = []
        setup_times: List[float] = []
        spent = 0.0  # seconds of simulate calls, with their checks
        min_calls = 2 * MIN_CALLS if trace else MIN_CALLS
        while True:
            if not trace:
                # one set-up before each call: start-up time drifts over seconds,
                # so samples spread over the run give a steadier median
                setup_times.append(measure_setup(sim.config_path))
            start = time.perf_counter()
            calls.append(sim.call(traced=trace and len(calls) % 2 == 0))
            spent += time.perf_counter() - start
            expected = spent / len(calls)
            if len(calls) >= min_calls and spent + expected > seconds:
                break

        first = calls[0]
        for index, call in enumerate(calls):
            if (call.counts, call.digests) != (first.counts, first.digests):
                problems.append(f"call {index}: counts or output digests differ from call 0")
        if workload.workers > 1:
            serial = sim.call(traced=False, workers=1)
            if serial.digests[0] != first.digests[0]:
                problems.append(f"workers={workload.workers} CSV differs from the serial CSV")

    violations = [v for c in calls for v in c.violations]
    attempted = len(calls) * sim.spec.repeats
    # a failed run-level check means no repeat of the run can be trusted
    failed = attempted if problems else len(violations)
    problems.extend(violations[:3])
    lines.append(f"calls: {sum(not c.traced for c in calls)} untraced, "
                 f"{sum(c.traced for c in calls)} traced; {sim.spec.repeats} repeats x "
                 f"{sim.spec.iterations} iterations each; run_s "
                 + " ".join(f"{c.run_s:.3f}{'t' if c.traced else ''}" for c in calls))
    lines.extend(f"check failed: {problem}" for problem in problems)
    lines.append(f"failed_share = {failed / attempted:.6g} ({failed} of {attempted} repeats)")
    lines.append(f"csv_sha256 = {first.digests[0]}  report_sha256 = {first.digests[1]}")
    if trace:
        metrics, notes = _per_layer(calls, sim.record_bytes, lines)
    else:
        metrics, notes = _end_to_end(calls, setup_times, workload.workers > 1)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"{name} = {value:.6g} {unit}{note}")
    return Result(not problems, attempted, failed, metrics, lines)


def _end_to_end(calls: List[Call], setup_times: List[float],
                pooled: bool) -> Tuple[Metrics, Dict[str, str]]:
    run_s = statistics.median(c.run_s for c in calls)
    repeat_s = [s for c in calls for s in c.repeat_s]
    tail_value, tail_pct = tail(repeat_s)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if pooled:
        rss_kib = max(rss_kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    agent_steps = calls[0].counts["agent_steps"]
    values = {
        "run_s": run_s,
        "repeat_s_p50": statistics.median(repeat_s),
        "repeat_s_tail": tail_value,
        "agent_steps_per_s": agent_steps / run_s,
        "peak_rss_mib": rss_kib / 1024.0,
        "setup_s": statistics.median(setup_times),
    }
    notes = {
        "run_s": f"median of {len(calls)} simulate calls",
        "repeat_s_p50": f"n={len(repeat_s)} repeats",
        "repeat_s_tail": f"p{tail_pct:.1f}, n={len(repeat_s)} repeats, {TAIL_BEYOND} beyond",
        "agent_steps_per_s": f"{agent_steps} agent steps per call",
        "setup_s": f"median of {len(setup_times)} fresh interpreters",
    }
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}, notes


def _per_layer(calls: List[Call], record_bytes: float,
               lines: List[str]) -> Tuple[Metrics, Dict[str, str]]:
    traced = [c for c in calls if c.traced]
    layer = {name: statistics.median(c.layers[name] for c in traced) for name in traced[0].layers}
    layer["harness.record_bytes"] = float(record_bytes)
    traced_run_s = statistics.median(c.run_s for c in traced)
    run_s = statistics.median(c.run_s for c in calls if not c.traced)
    layer["trace.overhead_s"] = traced_run_s - run_s
    metrics = {name: (layer[name], unit) for name, unit in LAYER_UNITS.items()}
    metrics.update({name: (float(count), "count") for name, count in calls[0].counts.items()})
    run_once = layer["harness.run_once.s"]
    parts = layer["step.self_s"] + layer["core.mutate_productivity_batch.s"] \
        + layer["serverfi.draw_fragments.s"]
    lines.append(
        f"accounting: step self + mutate + draw_fragments = {parts:.4f} s of harness.run_once "
        f"{run_once:.4f} s; the gap {run_once - parts:.4f} s ({1 - parts / run_once:.2%}) is "
        f"init_productivity_batch {layer['core.init_productivity_batch.s']:.4f} s + run_once "
        f"self {layer['harness.run_once.self_s']:.4f} s; tracing overhead "
        f"{layer['trace.overhead_s']:.4f} s"
    )
    notes = {"trace.overhead_s": f"traced run_s {traced_run_s:.4f} - untraced run_s {run_s:.4f}"}
    return metrics, notes


def _run_all(args: argparse.Namespace) -> int:
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(argv, check=False).returncode)
    return status


def _write_golden() -> int:
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    golden = {}
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        for name, workload in WORKLOADS.items():
            (Path(tmp) / name).mkdir()
            golden[name] = reference_outputs(workload, Path(tmp) / name)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="recompute golden.json from the current sources and exit")
    args = parser.parse_args(argv)
    try:
        if args.write_golden:
            return _write_golden()
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            return _run_all(args)
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[args.workload]
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                     WORK_ROOT, golden)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(result.lines))
    print(result.json_line())
    return 0 if result.correct else 1

