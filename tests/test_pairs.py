"""The pair driver (``tools/pairs.py``): its statistics, its BENCH file and its refusals."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "tools") not in sys.path:
    sys.path.insert(0, str(ROOT / "tools"))

import pairs  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BETTER = {metric["name"]: metric["better"] for metric in BENCHMARK["end_to_end"]}
BENCH_26 = json.loads((ROOT / "BENCH_26.json").read_text(encoding="utf-8"))


class TestSummarise:
    def test_lower_is_better(self):
        entry = pairs.summarise([10.0, 12.0, 11.0, 13.0], [9.0, 11.0, 12.0, 10.0], "lower")
        assert entry["parent_median"] == 11.5 and entry["change_median"] == 10.5
        assert entry["parent_iqr"] == 1.5
        assert entry["change_worse_by"] == -0.087
        assert entry["pairs_change_better"] == "3/4"
        assert entry["ratio_median"] == pytest.approx((9 / 10 + 11 / 12) / 2, rel=1e-15)
        low, high = entry["ratio_ci95"]
        assert 10 / 13 <= low <= entry["ratio_median"] <= high <= 12 / 11

    def test_higher_is_better_flips_the_sign_and_the_wins(self):
        entry = pairs.summarise([10.0, 12.0, 11.0, 13.0], [9.0, 11.0, 12.0, 10.0], "higher")
        assert entry["change_worse_by"] == 0.087
        assert entry["pairs_change_better"] == "1/4"

    def test_a_tie_is_not_a_win(self):
        entry = pairs.summarise([1.0, 2.0], [1.0, 2.0], "lower")
        assert entry["pairs_change_better"] == "0/2" and entry["change_worse_by"] == 0.0
        assert entry["ratio_median"] == 1.0 and entry["ratio_ci95"] == [1.0, 1.0]

    def test_the_interval_is_the_same_for_the_same_values(self):
        parent = [0.2, 0.21, 0.19, 0.23, 0.2, 0.22, 0.18, 0.2, 0.21, 0.2]
        change = [0.19, 0.2, 0.2, 0.21, 0.18, 0.2, 0.19, 0.2, 0.2, 0.19]
        assert pairs.ratio_interval(parent, change) == pairs.ratio_interval(parent, change)

    def test_one_pair_has_no_spread(self):
        entry = pairs.summarise([2.0], [1.0], "lower")
        assert entry["parent_iqr"] == 0.0 and entry["ratio_ci95"] == [0.5, 0.5]

    def test_unequal_sides_are_refused(self):
        with pytest.raises(ValueError):
            pairs.summarise([1.0, 2.0], [1.0], "lower")

    def test_reproduces_bench_26(self):
        # BENCH_26 was made by hand with the same statistics
        for workload, metrics in BENCH_26["workloads"].items():
            for name, entry in metrics.items():
                summary = pairs.summarise(entry["parent"], entry["change"], BETTER[name])
                assert {key: summary[key] for key in entry} == entry, (workload, name)


def test_bench_file_has_bench_26s_fields_plus_the_ratios():
    values = {
        workload: {
            side: {name: [float(i + 1) for i in range(3)] for name in BETTER}
            for side in pairs.SIDES
        }
        for workload in ("serverfi_default", "retention_crowd")
    }
    contexts = {side: {"nproc": 2, "cpu": "x", "python": "3", "numpy": "2", "src_lines": 9}
                for side in pairs.SIDES}
    document = pairs.bench_document(
        values, contexts, BENCHMARK, note="n", claim="none", seed=5, seconds=30.0, pairs=3,
        sides={"parent": "abc", "change": "def"},
    )
    assert set(BENCH_26) <= set(document)
    assert document["machine"].keys() == BENCH_26["machine"].keys()
    assert document["command"] == "python3 perfbench/run.py --workload <name> --seed 5 " \
                                  "--seconds 30 --trace 0"
    assert "each run 30 s" in document["protocol"] and "PYTHONDONTWRITEBYTECODE" in document[
        "protocol"]
    assert list(document["workloads"]) == ["serverfi_default", "retention_crowd"]
    bench_26_keys = set(BENCH_26["workloads"]["serverfi_default"]["run_s"])
    for metrics in document["workloads"].values():
        assert list(metrics) == list(BETTER)
        for entry in metrics.values():
            assert set(entry) == bench_26_keys | {"ratio_median", "ratio_ci95"}


FAKE_RUN = """\
import json, sys
print("context " + json.dumps({{"nproc": 1, "cpu": "fake", "python": "3", "numpy": "2"}}))
print(json.dumps({{"correct": json.loads("{correct}"), "attempted": 1, "failed": 0, "metrics": {{}}}}))
sys.exit({status})
"""


def fake_side(root, correct="true", status=0):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        FAKE_RUN.format(correct=correct, status=status), encoding="utf-8")
    (root / "BENCHMARK.json").write_text(json.dumps(BENCHMARK), encoding="utf-8")
    return root


@pytest.mark.parametrize("correct, status", [("false", 1), ("true", 3), ("false", 0)],
                         ids=["incorrect", "crashed", "incorrect-exit-0"])
def test_a_failed_run_stops_the_driver_naming_side_pair_and_workload(
    tmp_path, capsys, correct, status
):
    parent = fake_side(tmp_path / "parent")
    change = fake_side(tmp_path / "change", correct, status)
    out = tmp_path / "bench.json"
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "retention_crowd",
            "--pairs", "2", "--seed", "1", "--seconds", "1", "--out", str(out)]
    assert pairs.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("error: change side, pair 0, workload retention_crowd: "
                              f"exit {status}, correct: {correct}")
    assert not out.exists()


def test_an_unknown_workload_is_refused(tmp_path, capsys):
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--workload", "nope", "--pairs", "1",
            "--seed", "1", "--out", str(tmp_path / "bench.json")]
    assert pairs.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: --workload must be all or one of")


def test_one_real_pair_on_the_repository(tmp_path, capsys):
    out = tmp_path / "bench.json"
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--workload", "serverfi_default",
            "--pairs", "1", "--seed", "3", "--seconds", "1", "--out", str(out)]
    assert pairs.main(argv) == 0
    log = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in log] == [
        "serverfi_default pair 0 parent", "serverfi_default pair 0 change"]
    document = json.loads(out.read_text(encoding="utf-8"))
    assert document["machine"]["nproc"] >= 1
    assert "each run 1 s" in document["protocol"]
    metrics = document["workloads"]["serverfi_default"]
    assert list(metrics) == list(BETTER)
    for entry in metrics.values():
        assert len(entry["parent"]) == len(entry["change"]) == 1
        assert entry["parent_median"] > 0 and entry["change_median"] > 0
