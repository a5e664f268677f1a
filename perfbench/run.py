"""Pipeline benchmark command: one workload, one seed, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fanout --seed 1 --seconds 20 --trace 0

Workloads: ``fanout``, ``dashboard``, ``keyed_state`` (see
``perfbench/README.md``). ``--trace 0`` prints the end-to-end metrics of
untraced runs; ``--trace 1`` prints the per-layer metrics of traced runs
and writes their spans under ``.perfbench/``. The last line of standard
output is the result object; the exit code is 0 only when every output
matched its reference, every count repeated and, when traced, the
trace closed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fanout", "dashboard", "keyed_state"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: program sources not found under {SRC}",
              file=sys.stderr)
        return 2
    # Import the program from this checkout, never from elsewhere.
    sys.path[0:1] = [str(SRC), str(ROOT)]
    from perfbench.measure import measure

    outcome = measure(args.workload, args.seed, args.seconds,
                      bool(args.trace), spans_dir=ROOT / ".perfbench")
    for problem in outcome.problems:
        print(f"error: {problem}", file=sys.stderr)
    print(f"counts {args.workload} seed={args.seed} "
          f"digest={outcome.counts_digest}")
    print(outcome.result_line())
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
