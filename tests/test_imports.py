"""What each kind of run imports, checked in a fresh interpreter.

A serial run never needs the process pool, so ``import gamefi_sim.cli``
plus a serial ``run_experiment`` must not load ``multiprocessing``, which
costs start-up time and memory. numpy 2 imports ``numpy.random`` lazily; a
pooled run imports it in the parent before the workers fork, so no worker
pays for the import inside its first repeat.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gamefi_sim

SRC = str(Path(gamefi_sim.__file__).resolve().parent.parent)

SERIAL_RUN = """
import sys
import gamefi_sim.cli
from gamefi_sim.harness import ExperimentSpec, run_experiment
run_experiment(ExperimentSpec(model="retention", iterations=3, repeats=2))
print(sorted(m for m in ("multiprocessing", "concurrent.futures.process") if m in sys.modules))
"""

# The probe replaces harness._run_repeat before the pool forks, so every
# worker inherits it; each call logs the worker's pid and whether
# numpy.random was already imported when the repeat began.
POOLED_RUN = """
import os
import sys
from gamefi_sim import harness
from gamefi_sim.harness import ExperimentSpec, run_experiment

inner = harness._run_repeat

def probe(args):
    with open(sys.argv[1], "a", encoding="utf-8") as log:
        log.write(f"{os.getpid()} {'numpy.random' in sys.modules}\\n")
    return inner(args)

harness._run_repeat = probe
print(os.getpid(), "numpy.random" in sys.modules)
run_experiment(ExperimentSpec(model="retention", iterations=3, repeats=4), workers=2)
"""


def run_fresh(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout


def test_serial_run_does_not_load_the_process_pool():
    assert run_fresh(SERIAL_RUN).strip() == "[]"


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a pool needs at least 2 CPUs")
def test_pool_workers_start_with_numpy_random_imported(tmp_path):
    log = tmp_path / "probe.log"
    parent_pid, parent_has_random = run_fresh(POOLED_RUN, str(log)).split()
    # the parent has not imported it before the run, so the check can fail
    assert parent_has_random == "False"
    entries = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
    assert len(entries) == 4
    assert all(pid != parent_pid for pid, _ in entries)
    assert [imported for _, imported in entries] == ["True"] * 4
