"""The benchmark's reference outputs match ``perfbench/golden.json``.

Each workload's reference experiment, at the seed and repeat count that
golden.json names, must write the CSV and report whose digests it pins and
count the same events. The benchmark checks this on every run; here tier-1
checks it too, without running the benchmark.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import bench  # noqa: E402

GOLDEN = json.loads(bench.GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_names_every_workload():
    assert sorted(GOLDEN) == sorted(bench.WORKLOADS)


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_reference_outputs_match_golden(name, tmp_path):
    assert bench.reference_outputs(bench.WORKLOADS[name], tmp_path) == GOLDEN[name]
