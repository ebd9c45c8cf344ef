"""Self-test of the benchmark at a tiny size (8 modes, a few steps, 8 paths).

    python3 -m pytest bench/tests -q

Run from the root of the checkout.  Every workload runs with and without
tracing; each declared metric must come out by name with its unit, and
every output check must pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "bench"))

import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, list[str]]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted(workload, trace):
    proc, lines = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    assert detail["samples"] >= 1
    assert detail["provenance"]["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
    if trace == 0:
        for m in SPEC["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]
    else:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        w = wl.WORKLOADS[workload]
        steps = round(w.setting("tiny", "solver.t_final", 0.5) / w.setting("tiny", "solver.dt", 0.01))
        # 52 complex transforms per explicit step; energy diagnostics add 6 per
        # diagnostic row, one per step plus the final row
        expected = 58 + 6 / steps if "skeleton" in w.commands else 52
        assert metrics["spectral.fft.calls_per_step"] == pytest.approx(expected, abs=1e-12)
        assert metrics["spectral.fft.matches_seed"] == 1.0
        assert metrics["dynamics.steps"] > 0 and metrics["dynamics.diverged"] == 0
        assert metrics["fail_ratio"] == 0


def test_importance_reports_the_degenerate_default_event():
    proc, lines = _run("ensemble_n16", 0)
    outputs = json.loads(lines[-2])["outputs"]
    # the default threshold 0.3 lies below |u(0)|, so every plain path hits
    assert outputs["importance.degenerate"] == 1
    assert outputs["importance.plain.hits"] == outputs["importance.plain.n_paths"]


def test_reference_mismatch_is_reported():
    refs = json.loads((ROOT / "bench" / "references.json").read_text())
    for size in ("tiny", "full"):
        for name, ref in refs[size].items():
            values = dict(ref["values"])
            assert wl.compare(ref["values"], values) == []
            key = "rate.objective" if "rate.objective" in values else next(
                k for k, v in values.items() if isinstance(v, float) and v != 0 and wl._rule(k) == ("rel", wl.RTOL)
            )
            values[key] = values[key] * (1 + 1e-6) + 2e-3 * (key == "rate.objective")
            assert any(key in e for e in wl.compare(ref["values"], values)), (size, name, key)


def test_fails_without_a_source_tree():
    bare = ROOT / ".bench_work" / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc, lines = _run("rate_n16", 0, cwd=bare)
    assert proc.returncode != 0
    assert not any(line.startswith('{"correct"') for line in lines)
