"""nlcsim benchmark: one workload, measured end to end or layer by layer.

    python3 bench/run.py --workload ensemble_n16 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  ``--trace 0`` reports the
end-to-end metrics (tracing off); ``--trace 1`` reports the per-layer
metrics from a traced run.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the line before
it is a JSON provenance record, and ``.bench_work/`` keeps the configs,
outputs, span log and full result of the run.  The exit code is 0 only
when every command succeeded and every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 7
# A single worker must never outlive the 180 s a run may take.
WORKER_TIMEOUT_S = 170
# Every workload process runs single-threaded: OpenBLAS's threaded vdot (the
# L2/H1 norms) otherwise doubles CPU time for the same wall time at N=128.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
SETUP_PROBE = (
    "import time; t0 = time.perf_counter(); from nlcsim.cli import main; "
    "print(time.perf_counter() - t0)"
)


def _declared() -> dict:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(["src"] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def _setup_seconds(env) -> list[float]:
    """Fresh-process import of nlcsim.cli until ``main`` is callable, several times."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], env=env, capture_output=True, text=True, timeout=60, check=True
        )
        out.append(float(proc.stdout.strip()))
    return out


def _git_commit() -> str:
    head = Path(".git/HEAD")
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = Path(".git") / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _provenance(env, args, worker: dict) -> dict:
    return {
        "provenance": {
            "git_commit": _git_commit(),
            **worker["versions"],
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "thread_env": {k: env[k] for k in PINNED_ENV},
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "size": args.size,
            "config_sha256": worker["config_sha256"],
            "config_text": worker["config_text"],
        },
        "samples": worker["samples"],
        "traced_samples": worker.get("traced_samples", 0),
        "wall_s_all": worker["wall_s_all"],
        "cpu_s_all": worker["cpu_s_all"],
        "command_wall_s_all": worker["command_wall_s_all"],
        "nominal_work": worker["nominal_work"],
        "outputs": worker["outputs"],
        "errors": worker["errors"],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: the self-test size (8 modes, a few steps)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be nonnegative and --seconds positive")
    if not Path("src/nlcsim/cli.py").is_file():
        print("bench: run from the root of an nlcsim checkout (src/nlcsim/cli.py not found)", file=sys.stderr)
        return 2

    env = _env()
    work = Path(".bench_work")
    work.mkdir(exist_ok=True)
    result_path = work / f"worker_{args.workload}_seed{args.seed}_trace{args.trace}_{args.size}.json"
    result_path.unlink(missing_ok=True)
    metrics = {}
    if args.trace == 0:
        setup = _setup_seconds(env)
        metrics["setup_s"] = statistics.median(setup)
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--size", args.size, "--result", str(result_path),
    ]
    proc = subprocess.run(cmd, env=env, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not result_path.is_file():
        print(f"bench: worker exited {proc.returncode}", file=sys.stderr)
        return 2
    worker = json.loads(result_path.read_text())
    metrics.update(worker["layers"] if args.trace else worker["metrics"])

    declared = _declared()[args.trace]
    missing = sorted(set(declared) - set(metrics))
    if missing:
        print(f"bench: metrics not measured: {missing}", file=sys.stderr)
        return 2
    detail = _provenance(env, args, worker)
    if args.trace == 0:
        detail["setup_s_all"] = setup
    (work / f"result_{args.workload}_seed{args.seed}_trace{args.trace}_{args.size}.json").write_text(
        json.dumps({**detail, "metrics": metrics}, indent=1)
    )
    for err in worker["errors"]:
        print(f"bench: {err}", file=sys.stderr)
    correct = worker["failed"] == 0
    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
