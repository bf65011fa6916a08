"""Benchmark entry point for the ioltstest offline testing workflow.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload suite|check|cover --seed N \
        --seconds S --trace 0|1 [--smoke]

It runs the workload in a child process (``measure.py``) that caps its own
address space and each op's wall time, so a blow-up ends as failed ops or a
failed run, never as a dead machine.  It prints the child's report, then as
its last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the
per-layer ones.  ``--smoke`` shrinks every workload to a tiny size.
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("suite", "check", "cover"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "ioltstest" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
    # A fixed hash seed makes set and dict order, and so the work of an op,
    # the same from one run to the next.  The child and the processes it
    # forks form a session of their own, killed as a whole on a timeout.
    env = dict(os.environ, PYTHONHASHSEED="0")
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, env=env,
                          start_new_session=True) as child:
        try:
            stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            print(f"perfbench: {args.workload} run exceeded {CHILD_TIMEOUT_S} s",
                  file=sys.stderr)
            return 3
    if child.returncode != 0:
        print(f"perfbench: {args.workload} run failed with exit code {child.returncode}",
              file=sys.stderr)
        return 3
    out = json.loads(stdout.strip().splitlines()[-1])

    attempted, failed = out["attempted"], out["failed"]
    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, {mode}")
    for line in out["report"]:
        print(f"  {line}")
    for name, m in out["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  ops_failed_frac = {failed / max(attempted, 1):.4g} "
          f"({failed} of {attempted} ops attempted)")
    for failure in out["failures"]:
        print(f"  FAILED {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
