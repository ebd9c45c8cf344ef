"""One workload run inside a process whose thread pools are pinned to 1.

Started by ``run.py``; not meant to be run by hand.  It writes the configs,
runs the workload's CLI commands through ``nlcsim.cli.main`` in a closed
loop (one command at a time) for ``--seconds``, checks every output, and
writes its measurements as JSON to ``--result``.

With ``--trace 1`` the loop alternates untraced and traced iterations, so
the per-layer figures come from traced iterations and the tracing overhead
is the traced minus the untraced median wall time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

REFERENCES = BENCH_DIR / "references.json"


class Runner:
    def __init__(self, workload: wl.Workload, size: str, work: Path, references: dict | None):
        import nlcsim.cli

        self.main = nlcsim.cli.main
        self.w = workload
        self.size = size
        self.work = work
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.config_sha256: dict[str, str] = {}
        self.first_values: dict[int, dict] = {}
        self._digests: dict[int, str] = {}

    def config(self, seed: int) -> Path:
        text = self.w.config_text(seed, self.size)
        path = self.work / f"seed{seed}.ini"
        path.write_text(text)
        self.config_sha256[path.name] = hashlib.sha256(text.encode()).hexdigest()
        return path

    def iteration(self, seed: int, tracer: Tracer | None = None) -> dict:
        """Run every command once; return wall and CPU seconds per command."""
        cfg = self.config(seed)
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        walls, cpus = {}, {}
        if tracer is not None:
            tracer.install()
        try:
            for cmd in self.w.commands:
                argv = [cmd, "--config", str(cfg), "--seed", str(seed), "--out", str(out), "--threads", "1"]
                sink = io.StringIO()
                root = tracer.command_span() if tracer is not None else None
                c0, t0 = time.process_time(), time.perf_counter()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    rc = self.main(argv)
                walls[cmd] = time.perf_counter() - t0
                cpus[cmd] = time.process_time() - c0
                if root is not None:
                    tracer.close(root)
                self.attempted += 1
                if rc != 0:
                    self.failed += 1
                    self.errors.append(f"{cmd} exited {rc}: {sink.getvalue().strip()[-300:]}")
        finally:
            if tracer is not None:
                tracer.uninstall()
        self._check(seed, out)
        return {"wall": walls, "cpu": cpus}

    def _check(self, seed: int, out: Path):
        """Full checks on the first iteration of each seed; later ones must repeat it byte for byte."""
        digest = hashlib.sha256()
        for path in sorted(out.iterdir()) if out.is_dir() else ():
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        digest = digest.hexdigest()
        if seed in self._digests:
            errs = [] if digest == self._digests[seed] else ["outputs differ from the first run of the same seed"]
        else:
            self._digests[seed] = digest
            try:
                values = wl.extract(self.w, self.size, out)
            except (OSError, ValueError, IndexError, KeyError) as exc:
                errs = [f"outputs unreadable: {exc!r}"]
            else:
                self.first_values[seed] = values
                errs = wl.invariants(self.w, self.size, values)
                if self.references is not None and (seed == wl.REFERENCE_SEED or not self.w.seed_dependent):
                    errs += wl.compare(self.references["values"], values)
        if errs:
            self.failed = min(self.failed + 1, self.attempted)
            self.errors += [f"seed {seed}: {e}" for e in errs]


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def run(args) -> dict:
    w = wl.WORKLOADS[args.workload]
    # one directory per (workload, seed, mode), so concurrent runs cannot collide
    work = Path(".bench_work") / args.workload / f"seed{args.seed}_trace{args.trace}_{args.size}"
    work.mkdir(parents=True, exist_ok=True)
    refs = None
    if not args.record:
        refs = json.loads(REFERENCES.read_text())[args.size][w.name]
    r = Runner(w, args.size, work, refs)

    # Outputs that depend on the seed are checked against the references on
    # an untimed reference-seed iteration, which also warms every cache.
    if w.seed_dependent or args.record:
        r.iteration(wl.REFERENCE_SEED)
    if args.record:
        tracer = Tracer()
        r.iteration(wl.REFERENCE_SEED, tracer)
        m = tracer.layer_metrics()
        return {
            "values": r.first_values[wl.REFERENCE_SEED],
            "fft_calls_per_step": m["spectral.fft.calls_in_solves"] / m["dynamics.steps"],
            "errors": r.errors,
        }

    untraced, traced = [], []
    tracer = Tracer() if args.trace else None
    span_log: list[list] = []
    layer_sums: dict[str, float] = {}
    t_start = time.perf_counter()
    while True:
        untraced.append(r.iteration(args.seed))
        if tracer is not None:
            tracer.reset()
            traced.append(r.iteration(args.seed, tracer))
            for k, v in tracer.layer_metrics().items():
                layer_sums[k] = layer_sums.get(k, 0.0) + v
            span_log += tracer.spans
        if time.perf_counter() - t_start >= args.seconds:
            break

    walls = [sum(it["wall"].values()) for it in untraced]
    cpus = [sum(it["cpu"].values()) for it in untraced]
    work_done = w.nominal_work(args.size)
    wall = _median(walls)
    result = {
        "versions": _versions(),
        "attempted": r.attempted,
        "failed": r.failed,
        "errors": r.errors,
        "samples": len(walls),
        "wall_s_all": walls,
        "cpu_s_all": cpus,
        "command_wall_s_all": {cmd: [it["wall"][cmd] for it in untraced] for cmd in w.commands},
        "nominal_work": work_done,
        "config_sha256": r.config_sha256,
        "config_text": w.config_text(args.seed, args.size),
        "outputs": r.first_values.get(args.seed, {}),
        "metrics": {
            "wall_s": wall,
            "cpu_s": _median(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "paths_per_s": work_done["paths"] / wall,
            "steps_per_s": work_done["steps"] / wall,
        },
    }
    if tracer is not None:
        result["layers"] = _layers(w, args.size, refs, untraced, traced, layer_sums, r)
        result["traced_samples"] = len(traced)
        _write_spans(work / "spans.tsv", span_log)
    return result


def _versions() -> dict[str, str]:
    import platform

    import nlcsim
    import numpy

    return {
        "nlcsim": nlcsim.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fft_backend": "numpy.fft (pocketfft)" if hasattr(numpy.fft, "_pocketfft") else "numpy.fft",
    }


def _layers(w, size, refs, untraced, traced, sums, r) -> dict[str, float]:
    n = len(traced)
    m = {k: v / n for k, v in sums.items()}  # per traced iteration
    steps = m["dynamics.steps"]
    m["spectral.fft.calls_per_step"] = m.pop("spectral.fft.calls_in_solves") / steps if steps else 0.0
    expected = refs["fft_calls_per_step"]
    m["spectral.fft.matches_seed"] = float(abs(m["spectral.fft.calls_per_step"] - expected) < 1e-9)
    trials = m.pop("ldp.line_search.trials")
    m["ldp.line_search.accept_ratio"] = m.pop("ldp.line_search.accepted") / trials if trials else 0.0
    untraced_wall = _median([sum(it["wall"].values()) for it in untraced])
    traced_wall = _median([sum(it["wall"].values()) for it in traced])
    m["bench.untraced_wall_s"] = untraced_wall
    m["bench.traced_wall_s"] = traced_wall
    m["bench.trace_overhead_s"] = traced_wall - untraced_wall
    per_cmd = w.nominal_work(size)["per_command"]
    for cmd, name in (("mc-ldp", "ldp.study_paths_per_s"), ("importance", "ldp.importance_paths_per_s")):
        cmd_wall = _median([it["wall"][cmd] for it in untraced if cmd in it["wall"]])
        m[name] = per_cmd[cmd] / cmd_wall if cmd in per_cmd else 0.0
    m["fail_ratio"] = r.failed / r.attempted if r.attempted else 1.0
    return m


def _write_spans(path: Path, spans: list[list]):
    with path.open("w") as fh:
        fh.write("id\tparent\tcommand\tname\tstart\tend\tchild_s\n")
        for sid, parent, cmd, name, t0, t1, child in spans:
            fh.write(f"{sid}\t{'' if parent is None else parent}\t{cmd}\t{name}\t{t0:.9f}\t{t1:.9f}\t{child:.9f}\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--record", action="store_true",
                   help="write the reference-seed output values and transform count, then exit")
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)
    result = run(args)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
