"""Record the output references the benchmark checks against.

    python3 bench/record_references.py [--size full|tiny ...]

Run from the root of the checkout whose outputs are the reference (the
references in this directory were recorded at the commit that added the
benchmark).  For each workload it runs one iteration at the reference seed
untraced and one traced, and stores the output values and the transform
count per solver step in ``bench/references.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import BENCH_DIR, _env
from workloads import WORKLOADS


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--size", action="append", choices=("full", "tiny"))
    args = p.parse_args(argv)
    path = BENCH_DIR / "references.json"
    refs = json.loads(path.read_text()) if path.is_file() else {}
    tmp = Path(".bench_work") / "record.json"
    tmp.parent.mkdir(exist_ok=True)
    for size in args.size or ("tiny", "full"):
        for name in WORKLOADS:
            subprocess.run(
                [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", name, "--seed", "0",
                 "--seconds", "0", "--size", size, "--record", "--result", str(tmp)],
                env=_env(), check=True,
            )
            got = json.loads(tmp.read_text())
            if got.pop("errors"):
                print(f"{size}/{name}: output invariants failed; not recorded", file=sys.stderr)
                return 1
            refs.setdefault(size, {})[name] = got
            print(f"{size}/{name}: {len(got['values'])} values, {got['fft_calls_per_step']:.4f} transforms/step")
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
