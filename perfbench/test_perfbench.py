"""The benchmark's own tests. Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py

Smoke-size runs (--smoke) of every workload must print every metric with its
unit, pass their output checks and repeat their output digest for the same
seed; corrupted outputs must be counted as failed requests; without the
sources the benchmark must refuse to run.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import run
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def smoke(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace), "--smoke"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(capsys, workload, trace):
    lines, doc = smoke(capsys, workload, trace)
    units = run.PER_LAYER if trace else run.END_TO_END
    assert sorted(doc) == ["attempted", "correct", "failed", "metrics"]
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    assert {k: m["unit"] for k, m in doc["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.startswith(f"{name} ") and f" {unit}" in line for line in lines), name
    assert any(line.startswith("failed_ratio 0 ratio") for line in lines)
    if not trace:
        assert all(doc["metrics"][k]["value"] > 0 for k in units)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_the_same_output_digest(capsys, workload):
    digests = [next(line for line in smoke(capsys, workload, 0)[0] if line.startswith("digests "))
               for _ in range(2)]
    assert digests[0] == digests[1]


def _corrupting(execute, corrupt):
    def wrapped(ctx, request, request_id=None):
        result = execute(ctx, request, request_id)
        if request.kind != "warmup":
            result.stdout = corrupt(result.stdout, request)
        return result
    return wrapped


def _shift_critical(stdout, request):
    # A wrong critical value on every cache hit.
    if request.kind != "hit":
        return stdout
    return re.sub(r"critical=([0-9.]+)", lambda m: f"critical={float(m.group(1)) + 0.5!r}",
                  stdout)


def _truncate_scores(stdout, request):
    # Keep only the first five characters of each score.
    if not request.kind.startswith("score"):
        return stdout
    return re.sub(r"score=([0-9.eE+-]+)", lambda m: f"score={m.group(1)[:5]}", stdout)


@pytest.mark.parametrize("workload,corrupt", [("null-calibration", _shift_critical),
                                              ("cli-requests", _truncate_scores)])
def test_corrupted_outputs_count_as_failed(capsys, monkeypatch, workload, corrupt):
    monkeypatch.setattr(run, "execute", _corrupting(run.execute, corrupt))
    lines, doc = smoke(capsys, workload, 0)
    assert not doc["correct"] and doc["failed"] > 0
    ratio = next(line for line in lines if line.startswith("failed_ratio "))
    assert float(ratio.split()[1]) > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "null-calibration",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
