"""Repository benchmark: regenerate a figure (or a GAP batch) in fresh
processes, check every output, and print the metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig2 --seed 42 --seconds 30 \
        --trace 0

``--trace 0`` repeats the workload in fresh processes (``rep.py``) until
``--seconds`` have passed and prints the end-to-end metrics as medians
over the repetitions. ``--trace 1`` runs the workload once untraced and
twice traced and prints the per-layer metrics. The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The exit code is 1 when any output is wrong, 2 when the checkout holds
no simulator. A full record of every repetition, with provenance, goes
to ``.perfbench/results/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import suite
from layers import END_TO_END, PER_LAYER, layer_metrics

#: Hard cap on one invocation, below the 180 s the benchmark promises.
TIME_LIMIT_S = 165.0
#: ``--setup-only`` processes per untraced run, on top of each
#: repetition's own set-up (the GAP batch's set-up needs the whole
#: batch, so it has none).
SETUP_PROBES = 4


class RepFailed(Exception):
    """A repetition process crashed, timed out or printed no result."""


def _rep(root: Path, args: list[str], timeout_s: float) -> dict:
    """Run one ``rep.py`` process to completion; its JSON result."""
    command = [sys.executable, str(root / "perfbench" / "rep.py"), *args]
    process = subprocess.Popen(
        command, cwd=root, stdout=subprocess.PIPE, start_new_session=True,
    )
    try:
        stdout, __ = process.communicate(timeout=max(timeout_s, 1.0))
    except subprocess.TimeoutExpired:
        # The repetition may have workers of its own: stop the group.
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RepFailed(f"{' '.join(args)}: timed out") from None
    if process.returncode != 0:
        raise RepFailed(f"{' '.join(args)}: exit {process.returncode}")
    lines = stdout.decode().strip().splitlines()
    if not lines:
        raise RepFailed(f"{' '.join(args)}: no output")
    return json.loads(lines[-1])


def _failed_runs(reps: list[dict]) -> tuple[int, int]:
    runs = [run for rep in reps for run in rep["runs"]]
    return len(runs), sum(1 for run in runs if run["problems"])


def _digests(rep: dict) -> list:
    return [run.get("digest") for run in rep["runs"]]


def _requests(rep: dict) -> int:
    return sum(
        run["counts"]["dram.controller.requests"]
        for run in rep["runs"] if "counts" in run
    )


def _timed(root: Path, args, started: float) -> tuple[dict, dict, list]:
    """Untraced repetitions: (metrics, record, problems)."""
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    problems: list[str] = []
    probes = []
    if args.workload != "gap-batch":
        for __ in range(SETUP_PROBES):
            probes.append(_rep(root, [*base, "--setup-only"], 60.0))
    # Repeat while the next repetition, predicted to take as long as
    # the last one, still ends within --seconds (at least one runs).
    reps = []
    deadline = started + args.seconds
    while True:
        rep_started = time.perf_counter()
        remaining = started + TIME_LIMIT_S - rep_started
        reps.append(_rep(root, base, remaining))
        now = time.perf_counter()
        if now + (now - rep_started) > deadline:
            break
    if any(_digests(rep) != _digests(reps[0]) for rep in reps):
        problems.append("repetitions disagree on result digests")
    rates = [
        _requests(rep) / (rep["wall_s"] - rep["setup_s"]) for rep in reps
    ]
    metrics = {
        "wall_s": statistics.median(rep["wall_s"] for rep in reps),
        "setup_s": statistics.median(
            rep["setup_s"] for rep in reps + probes
        ),
        "sim_reqs_per_s": statistics.median(rates),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
    }
    return metrics, {"reps": reps, "setup_probes": probes}, problems


def _traced(root: Path, args) -> tuple[dict, dict, list]:
    """One untraced and two traced repetitions: (metrics, record,
    problems)."""
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    started = time.perf_counter()

    def budget() -> float:
        return started + TIME_LIMIT_S - time.perf_counter()

    untraced = _rep(root, base, budget())
    traced = [_rep(root, [*base, "--trace"], budget()) for __ in range(2)]
    metrics, problems = layer_metrics(traced, untraced)
    record = {"untraced": untraced, "traced": traced}
    return metrics, record, problems


def provenance(root: Path, seed: int) -> dict:
    """What ran where: machine, interpreter, code version, seed."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    # The checkout may not be a git repository: a digest of the
    # simulator's sources names the code version either way.
    source = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        source.update(str(path.relative_to(root)).encode())
        source.update(path.read_bytes())
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            f"run.py: {root} holds no simulator (src/repro); run from "
            f"the repository root", file=sys.stderr,
        )
        return 2
    started = time.perf_counter()
    try:
        if args.trace:
            metrics, record, problems = _traced(root, args)
        else:
            metrics, record, problems = _timed(root, args, started)
    except RepFailed as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1
    reps = record.get("reps") or [record["untraced"], *record["traced"]]
    attempted, failed = _failed_runs(reps)
    for rep in reps:
        for run in rep["runs"]:
            for problem in run["problems"]:
                problems.append(f"{run['label']}: {problem}")
    correct = not problems
    specs = PER_LAYER if args.trace else END_TO_END
    for name, unit in specs.items():
        print(f"{args.workload:<10} {name:<34} {metrics[name]:>16.6g} {unit}")
    # Failures are also the result line's `failed` over `attempted`.
    print(f"{args.workload:<10} {'failed_frac':<34} "
          f"{failed / attempted:>16.6g} ratio")
    for problem in problems:
        print(f"FAILED: {problem}")
    record.update(
        workload=args.workload,
        seconds=args.seconds,
        trace=args.trace,
        provenance=provenance(root, args.seed),
        metrics=metrics,
        problems=problems,
    )
    print(f"provenance: {json.dumps(record['provenance'])}")
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = results / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
        f"-{os.getpid()}.json"
    )
    out.write_text(json.dumps(record, indent=1))
    print(f"record: {out.relative_to(root)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in specs.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
