"""The benchmark's own tests: `python3 -m pytest bench` from the repository root."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from hyperdense import build_kary, build_pattern_host  # noqa: E402
from hyperdense.rainbow import PairColouring  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), *argv], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def smoke_results() -> dict:
    out = {}
    for workload in ("search", "scan", "cli"):
        for trace in ("0", "1"):
            proc = bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace, "--smoke")
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


@pytest.mark.parametrize("workload", ["search", "scan", "cli"])
def test_smoke_run_emits_every_registered_metric(smoke_results, workload):
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        result = smoke_results[workload, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(m["value"] > 0 for m in smoke_results[workload, "0"]["metrics"].values())


def test_every_per_layer_metric_is_measured_on_some_workload(smoke_results):
    measured = {name for (_, trace), result in smoke_results.items() if trace == "1"
                for name, m in result["metrics"].items() if m["value"] != 0}
    assert {m["name"] for m in SPEC["per_layer"]} - measured == set()


def test_wrong_expected_value_counts_as_failed(monkeypatch):
    monkeypatch.setitem(workloads.HOM_COUNTS, ("P4", 2), workloads.HOM_COUNTS[("P4", 2)] + 1)
    workload = workloads.Workload("search", [workloads.hom_job("P4", 2), workloads.hom_job("edge", 2)], 2, None)
    rounds, _, mismatches = harness.run_rounds(workload.jobs, 0.0, workload.min_rounds, trace=False)
    record = run.summarize(workload, rounds, mismatches)
    assert record["attempted"] == 4 and record["failed"] == 2
    assert record["failures"][0].startswith("hom-P4/T2: CheckFailed")


def test_inputs_are_a_pure_function_of_the_seed():
    def digest_and_names(seed):
        w = workloads.build("scan", seed, ROOT)
        return harness.digest(w.input_digest_source), sorted(j.name for j in w.jobs)

    first, again, other = digest_and_names(5), digest_and_names(5), digest_and_names(6)
    assert first == again
    assert first[0] != other[0] and first[1] == other[1]


@pytest.mark.parametrize("pattern", ["P4", "P5"])
def test_hom_constants_match_brute_force(pattern):
    n, edges = workloads.HOM_PATTERNS[pattern]
    assert inputs.brute_force_homs(n, edges, 9, inputs.kary_host_edges(2)) == workloads.HOM_COUNTS[(pattern, 2)]


@pytest.mark.parametrize("level", [1, 2, 3])
def test_reference_ternary_host_matches_build_kary(level):
    assert inputs.kary_host_edges(level) == list(build_kary(3, level).edges)


def test_reference_pattern_rule_matches_build_pattern_host():
    colours = inputs.pair_colours(inputs.rng_for("test", 0, "phi"), 25)
    assert inputs.pattern_host_edges(colours, 25) == list(build_pattern_host(PairColouring(3, 25, colours)).edges)


def test_tail_leaves_ten_jobs_beyond_in_the_shortest_run():
    for jobs_per_round, min_rounds in ((1068, 2), (23, 2), (12, 6)):
        times = sorted(range(jobs_per_round * min_rounds))
        _, beyond = harness.nearest_rank(times, harness.tail_percentile(jobs_per_round, min_rounds))
        assert beyond == harness.TAIL_BEYOND


def test_missing_program_exits_nonzero_without_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "search", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
