"""CI smoke for the wall-clock benchmark harness (``perfbench/run.py``).

``perfbench/run.py`` exits 0 even when its output checks fail: it reports
them in the ``correct``/``failed`` fields of the JSON line it prints last.
This smoke runs it for a few seconds on both workloads, untraced and
traced, and fails unless every run reports ``"correct": true`` and
``"failed": 0``.

The traced runs (``--trace 1``) wrap the library's entry points by name
(the session's source ``batch`` and ingest ``admit``, the
``RequestSequence``/``Instance`` globals of ``repro.streaming.session``,
``BatchedEngine.run``/``export_state``/``import_state``, checkpoint save).
A renamed or bypassed entry point either crashes the harness or leaves
its layer unattributed, so those runs also require the stream layers to
have seen work.

Usage::

    python benchmarks/check_perfbench_smoke.py [--seconds 3]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("stream_contended", "offline_exact")

#: Traced layer counts that are zero only when a wrapper never fired.
TRACED_NONZERO = (
    "streaming.sources.jobs",
    "core.instance.builds",
    "simulation.engine.calls",
    "streaming.checkpoint.bytes",
)


def run_once(workload: str, trace: int, seconds: float) -> list[str]:
    """Run the harness once; return the problems found (empty: passed)."""
    label = f"{workload} --trace {trace}"
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            "0",
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        return [f"{label}: exit {proc.returncode}: " + " | ".join(tail)]
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return [f"{label}: no JSON report on the last stdout line"]
    problems = []
    if report.get("correct") is not True or report.get("failed") != 0:
        reasons = [
            line for line in proc.stderr.splitlines() if "FAILED" in line
        ][:5]
        problems.append(
            f"{label}: correct={report.get('correct')} "
            f"failed={report.get('failed')}: " + " | ".join(reasons)
        )
    if trace:
        metrics = report.get("metrics", {})
        for name in TRACED_NONZERO:
            value = metrics.get(name, {}).get("value", 0)
            if not value:
                problems.append(f"{label}: {name} is {value}; its wrapper never fired")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=3.0)
    args = parser.parse_args(argv)
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = run_once(workload, trace, args.seconds)
            status = "FAIL" if found else "ok"
            print(f"perfbench smoke: {workload} --trace {trace}: {status}")
            problems += found
    for problem in problems:
        print(f"  {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
