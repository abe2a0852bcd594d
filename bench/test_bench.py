"""Smoke test of the benchmark at tiny sizes.

    PYTHONPATH=src python -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

TINY = workloads.Sizes(
    pool_size=3, label_chunk=5, label_chunks=2, brute_force_checks=3,
    sl_examples=4, sl_holdout=2, sl_epochs=2, rl_episodes=4, rl_chunk=2,
    eval_requests=2, eval_chunks=2,
)
DEFINITIONS = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(capsys, tmp_path, workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]
    assert run.run(argv, sizes=TINY, spans_dir=tmp_path) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(capsys, tmp_path, workload, trace):
    lines, result = _run(capsys, tmp_path, workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"]
                for m in DEFINITIONS["per_layer" if trace else "end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"metric {name} ") and line.endswith(f" {unit}")
                   for line in lines), name


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_two_traced_runs_give_identical_counts(capsys, tmp_path, workload):
    counts = []
    for _ in range(2):
        _, result = _run(capsys, tmp_path, workload, 1)
        counts.append({n: m["value"] for n, m in result["metrics"].items()
                       if n.endswith(".calls")})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_a_changed_checkpoint_is_refused(monkeypatch):
    monkeypatch.setitem(workloads.CHECKPOINT_SHA256, "rl", "0" * 64)
    argv = ["--workload", "eval", "--seed", "0", "--seconds", "0.01", "--trace", "0"]
    with pytest.raises(run.BenchError, match="sha256"):
        run.run(argv, sizes=TINY)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "label", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
