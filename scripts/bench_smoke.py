#!/usr/bin/env python
"""Wall-clock smoke benchmark: regenerate Fig. 2 at CI scale and gate on
slowdowns against the committed baseline.

Usage::

    PYTHONPATH=src python scripts/bench_smoke.py            # measure + gate
    PYTHONPATH=src python scripts/bench_smoke.py --update-baseline

Measures ``fig2.run(scale="ci")`` (the benchmark the hot-loop overhauls
were tuned on: 8 runs, sequential/random × 1–8 cores, plus full stack
accounting) and gates it against the committed baseline in
``BENCH_PR5.json``. The tracked ``BENCH_PR*.json`` files are rewritten
only with ``--update-baseline``; every other run writes its records,
under the same names, to the gitignored ``.perfbench/bench_smoke/``.
The wall-clock number is the best of three
back-to-back runs (later runs reuse the memoized trace blocks —
deliberately part of the system under test); the median is recorded
alongside it so the JSON shows the noise floor, not just the lucky run.
An extra cProfile-instrumented run attributes time to coarse phases —
DRAM controller, CPU core model, stack accounting, workload generation —
so a regression's location is visible from the JSON without
re-profiling. The same measurement is also recorded as
``BENCH_PR10.json`` against the packed-engine wall-clock target
(see docs/performance.md). Exit status:

* 0 — within 10% of baseline (or faster);
* 0 with a warning — 10–25% slower;
* 1 — more than 25% slower, or the result fingerprint changed.

The gate is intentionally loose: wall-clock noise across machines is
real, so only large regressions fail. The *correctness* of the timed
code is pinned separately by ``tests/golden`` — but as a belt-and-braces
check this script also fingerprints one of the timed runs and refuses to
report a timing for changed results.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_FILE = REPO_ROOT / "BENCH_PR5.json"
#: The cross-standard figure's own wall-clock record (same gate
#: thresholds; DDR5/LPDDR5/HBM composite runs, so it moves with the
#: multi-channel path rather than the single-controller hot loop).
STD_RESULT_FILE = REPO_ROOT / "BENCH_PR9.json"
#: The packed-engine record: the same fig2(ci) measurement, reported
#: against the PR 10 wall-clock target rather than the regression
#: baseline. Informational — the regression gate stays BENCH_PR5.json.
PR10_RESULT_FILE = REPO_ROOT / "BENCH_PR10.json"
#: Where a run that does not update the baseline writes its records:
#: the tracked files above are the committed trajectory, never
#: rewritten by an ordinary run.
RUN_RECORD_DIR = REPO_ROOT / ".perfbench" / "bench_smoke"
#: PR 10's aspirational fig2(ci) target (best-of-N min, fresh process).
PR10_TARGET_SECONDS = 5.0

WARN_SLOWDOWN = 0.10
FAIL_SLOWDOWN = 0.25
#: Wall seconds of fig2(ci) on the pre-overhaul (PR 2) tree, same
#: machine the original baseline was taken on; kept for the speedup
#: report only.
SEED_SECONDS = 32.3
#: Back-to-back timed runs; the best is gated (noise robustness) and
#: the median is recorded next to it as the honest central estimate.
TIMED_RUNS = 3
#: Worker count the measurement runs on. The benchmark is deliberately
#: serial and in-process (it times the simulator hot loop, not the
#: execution service), but the count is recorded in the JSON so a
#: future parallel variant can never be compared against a serial
#: baseline unnoticed.
WORKERS = 1

#: Phase attribution: cProfile tottime bucketed by source path. Order
#: matters only in that the first matching bucket wins; the buckets are
#: disjoint subtrees so any order gives the same split.
PHASE_BUCKETS = (
    ("controller", os.sep + os.path.join("repro", "dram") + os.sep),
    ("core", os.sep + os.path.join("repro", "cpu") + os.sep),
    ("accounting", os.sep + os.path.join("repro", "stacks") + os.sep),
    ("workloads", os.sep + os.path.join("repro", "workloads") + os.sep),
)


def measure() -> tuple[float, list[float], str]:
    """Time fig2(ci) regenerations; returns (best, all runs, digest)."""
    from repro.experiments import fig2
    from repro.experiments.runner import run_synthetic
    from repro.reliability.fingerprint import result_fingerprint

    runs = []
    for __ in range(TIMED_RUNS):
        start = time.perf_counter()
        fig2.run(scale="ci")
        runs.append(time.perf_counter() - start)
    # Fingerprint a representative configuration (2-core random) so a
    # "speedup" that changes results is flagged right here.
    digest = result_fingerprint(
        run_synthetic("random", cores=2, scale="ci", guard=False)
    )["digest"]
    return min(runs), runs, digest


def measure_figstd() -> tuple[float, list[float], str]:
    """Time figstd(ci) regenerations; returns (best, all runs, digest).

    The fingerprint covers the slowest composite configuration (2-core
    random on DDR5's two sub-channels), so a multi-channel "speedup"
    that changes results is refused a timing here too.
    """
    from repro.experiments import figstd
    from repro.experiments.runner import run_synthetic
    from repro.reliability.fingerprint import result_fingerprint

    runs = []
    for __ in range(TIMED_RUNS):
        start = time.perf_counter()
        figstd.run(scale="ci")
        runs.append(time.perf_counter() - start)
    digest = result_fingerprint(
        run_synthetic("random", cores=2, scale="ci", guard=False,
                      device="ddr5-4800")
    )["digest"]
    return min(runs), runs, digest


def profile_phases(figure: str = "fig2") -> dict:
    """One instrumented figure run, bucketed into coarse phases.

    Returns fractions of profiled in-Python time per bucket plus the
    profiled total. Fractions are the stable signal: cProfile's
    per-call overhead inflates the absolute numbers (so they are never
    compared against the un-instrumented wall clock), but it inflates
    every bucket roughly alike.
    """
    import cProfile
    import importlib
    import pstats

    module = importlib.import_module(f"repro.experiments.{figure}")

    profile = cProfile.Profile()
    profile.enable()
    module.run(scale="ci")
    profile.disable()

    totals = {name: 0.0 for name, __ in PHASE_BUCKETS}
    totals["other"] = 0.0
    grand = 0.0
    stats = pstats.Stats(profile)
    for (filename, __, __), (__, __, tottime, __, __) in stats.stats.items():
        grand += tottime
        for name, marker in PHASE_BUCKETS:
            if marker in filename:
                totals[name] += tottime
                break
        else:
            totals["other"] += tottime
    phases = {
        f"{name}_fraction": (round(value / grand, 3) if grand else 0.0)
        for name, value in totals.items()
    }
    phases["profiled_seconds"] = round(grand, 2)
    return phases


def record_path(tracked: Path, update_baseline: bool) -> Path:
    """The file a run writes for `tracked`: the tracked file itself
    only when updating the baseline, else its gitignored run copy."""
    if update_baseline:
        return tracked
    RUN_RECORD_DIR.mkdir(parents=True, exist_ok=True)
    return RUN_RECORD_DIR / tracked.name


def gate_and_record(
    result_file: Path,
    label: str,
    elapsed: float,
    runs: list[float],
    digest: str,
    update_baseline: bool,
    extra: dict | None = None,
) -> int:
    """Compare one measurement against its committed baseline file.

    Writes the (possibly re-baselined) JSON record (see
    :func:`record_path`) and prints the verdict; returns the exit
    status for this benchmark alone.
    """
    previous = {}
    if result_file.exists():
        previous = json.loads(result_file.read_text())
    baseline = previous.get("baseline_seconds")
    baseline_digest = previous.get("fingerprint")

    status = "ok"
    message = f"{label}: {elapsed:.1f}s"
    if update_baseline or baseline is None:
        baseline = elapsed
        message += " (baseline updated)"
    else:
        ratio = elapsed / baseline - 1.0
        message += f" vs baseline {baseline:.1f}s ({ratio:+.0%})"
        if baseline_digest is not None and digest != baseline_digest:
            status = "fingerprint-changed"
        elif ratio > FAIL_SLOWDOWN:
            status = "fail"
        elif ratio > WARN_SLOWDOWN:
            status = "warn"

    if update_baseline or baseline_digest is None:
        baseline_digest = digest

    baseline_workers = previous.get("workers", WORKERS)
    if baseline_workers != WORKERS and not update_baseline:
        print(
            f"bench_smoke: FAIL — {label} baseline was measured with "
            f"{baseline_workers} worker(s), this build uses {WORKERS}; "
            f"re-baseline with --update-baseline",
            file=sys.stderr,
        )
        return 1

    record_path(result_file, update_baseline).write_text(json.dumps({
        "benchmark": label,
        "baseline_seconds": round(baseline, 2),
        "measured_seconds": round(elapsed, 2),
        "median_seconds": round(statistics.median(runs), 2),
        "timed_runs": [round(r, 2) for r in runs],
        "timing_protocol": f"best-of-{TIMED_RUNS} (median recorded)",
        "fingerprint": baseline_digest,
        "workers": WORKERS,
        "status": status,
        **(extra or {}),
    }, indent=2, sort_keys=True) + "\n")

    if status == "fingerprint-changed":
        print(
            f"bench_smoke: FAIL — {label} simulation results changed "
            f"(fingerprint {digest[:12]} != baseline "
            f"{baseline_digest[:12]}); regenerate the golden fixtures "
            f"and re-baseline deliberately",
            file=sys.stderr,
        )
        return 1
    if status == "fail":
        print(
            f"bench_smoke: FAIL — {message} exceeds the "
            f"{FAIL_SLOWDOWN:.0%} slowdown gate",
            file=sys.stderr,
        )
        return 1
    if status == "warn":
        print(
            f"bench_smoke: WARNING — {message} exceeds the "
            f"{WARN_SLOWDOWN:.0%} soft gate",
            file=sys.stderr,
        )
        return 0
    phases = (extra or {}).get("phases")
    if phases:
        split = ", ".join(
            f"{key.removesuffix('_fraction')} {value:.0%}"
            for key, value in phases.items()
            if key.endswith("_fraction")
        )
        message += f" [{split}]"
    print(f"bench_smoke: {message}")
    return 0


def record_pr10(
    elapsed: float,
    runs: list[float],
    digest: str,
    phases: dict | None,
    update_baseline: bool,
) -> None:
    """Write the packed-engine fig2(ci) record (``BENCH_PR10.json``).

    Reports the same measurement as the BENCH_PR5 gate against the
    PR 10 wall-clock target instead of the regression baseline. Purely
    informational: the target is aspirational (the controller is only
    ~half of fig2's wall clock, so no controller engine can reach it
    alone — docs/performance.md has the measured split), so a miss
    never fails the gate; correctness is still pinned by the
    fingerprint recorded here and checked by tests/golden.
    """
    record_path(PR10_RESULT_FILE, update_baseline).write_text(json.dumps({
        "benchmark": "fig2-ci-packed",
        "engine": "packed",
        "target_seconds": PR10_TARGET_SECONDS,
        "target_met": elapsed <= PR10_TARGET_SECONDS,
        "measured_seconds": round(elapsed, 2),
        "median_seconds": round(statistics.median(runs), 2),
        "timed_runs": [round(r, 2) for r in runs],
        "timing_protocol": f"best-of-{TIMED_RUNS} (median recorded)",
        "fingerprint": digest,
        "workers": WORKERS,
        "seed_seconds": SEED_SECONDS,
        "speedup_vs_seed": round(SEED_SECONDS / elapsed, 2),
        "phases": phases or {},
        "notes": (
            "target is aspirational: the non-controller phases alone "
            "exceed 5 s of fig2's wall clock (docs/performance.md), so "
            "the floor for any controller-only change is above the "
            "target"
        ),
    }, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="record this measurement as the new baseline",
    )
    parser.add_argument(
        "--skip-phases", action="store_true",
        help="skip the profiled phase-breakdown run (faster)",
    )
    parser.add_argument(
        "--skip-figstd", action="store_true",
        help="skip the cross-standard figure benchmark (BENCH_PR9.json)",
    )
    args = parser.parse_args(argv)

    previous = {}
    if RESULT_FILE.exists():
        previous = json.loads(RESULT_FILE.read_text())

    elapsed, runs, digest = measure()
    phases = (
        previous.get("phases") if args.skip_phases else profile_phases()
    )
    exit_status = gate_and_record(
        RESULT_FILE, "fig2-ci", elapsed, runs, digest,
        args.update_baseline,
        extra={
            "seed_seconds": SEED_SECONDS,
            "speedup_vs_seed": round(SEED_SECONDS / elapsed, 2),
            "phases": phases,
        },
    )
    record_pr10(elapsed, runs, digest, phases, args.update_baseline)

    if not args.skip_figstd:
        previous_std = {}
        if STD_RESULT_FILE.exists():
            previous_std = json.loads(STD_RESULT_FILE.read_text())
        elapsed, runs, digest = measure_figstd()
        std_phases = (
            previous_std.get("phases") if args.skip_phases
            else profile_phases("figstd")
        )
        exit_status = max(exit_status, gate_and_record(
            STD_RESULT_FILE, "figstd-ci", elapsed, runs, digest,
            args.update_baseline,
            extra={"phases": std_phases},
        ))
    return exit_status


if __name__ == "__main__":
    sys.exit(main())
