"""One fresh-process repetition of a benchmark workload.

Usage (from the repository root)::

    python3 perfbench/rep.py --workload fig2 --seed 42 [--trace] \
        [--setup-only]

Times the workload from ``import repro`` to the last stack built (or
the last batch returned), checks every run (``checks.py``) with the
clock paused, and prints one JSON object on stdout. ``--setup-only``
stops at the first simulated cycle; ``--trace`` wraps the layer entry
points (``spans.py``) and adds the span summary. ``run.py`` starts
these processes and aggregates them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import checks
import suite
from capture import EngineLog, effective_engines
from spans import SpanRecorder

HOOK_DIR = Path(__file__).resolve().parent / "hook"


class SetupReached(Exception):
    """Raised at the first simulated cycle of a ``--setup-only`` rep."""


class RunRecord:
    """One simulation run of a workload, as the context records it."""

    def __init__(self, ctx: "RepContext", label: str) -> None:
        self.ctx = ctx
        self.label = label
        #: Stacks the workload built in the timed region, by kind.
        self.stacks: dict[str, list] = {}
        self.summary: dict = {"label": label, "problems": []}
        self._log_start = len(ctx.engine_log.records)

    def finish(self, result, traces) -> None:
        """Stop the clock, check the run and keep only its summary."""
        from repro.reliability.fingerprint import result_fingerprint

        ctx = self.ctx
        ctx.end_s = ctx.now()
        with ctx.paused():
            fingerprint = result_fingerprint(result)
            problems = checks.conservation_problems(result, fingerprint)
            mismatch = checks.pinned_mismatch(
                ctx.pins, ctx.workload, ctx.seed, self.label,
                fingerprint["digest"],
            )
            if mismatch:
                problems.append(mismatch)
            if ctx.workload in ("fig2", "figstd"):
                # The figure's stacks must be the fingerprinted ones.
                for kind in ("bandwidth", "latency"):
                    built = checks.stack_rows(self.stacks[kind][0])
                    if built != fingerprint[kind]:
                        problems.append(f"{kind} stack != fingerprint")
            fallback = ctx.engine_log.records[self._log_start:]
            configured = result.system.config.memory.engine
            channels = len(result.memory.channels) if result.composite else 1
            bandwidth = dict(fingerprint["bandwidth"])
            self.summary.update(
                digest=fingerprint["digest"],
                problems=problems,
                engine={
                    "configured": configured,
                    "effective": effective_engines(
                        configured, channels, fallback
                    ),
                    "fallback": fallback,
                },
                counts=checks.result_counts(result, traces),
                model={
                    "achieved_gbps": bandwidth["read"] + bandwidth["write"],
                    "read_latency_ns": sum(
                        value for __, value in fingerprint["latency"]
                    ),
                },
            )


class RepContext:
    """Clock, checks and records of one repetition."""

    def __init__(self, workload: str, seed: int, root: Path,
                 recorder: SpanRecorder | None, setup_only: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.recorder = recorder
        self.setup_only = setup_only
        self.pins = checks.load_pins()
        self.engine_log = EngineLog()
        self.runs: list[dict] = []
        self.batch: dict | None = None
        self.setup_s: float | None = None
        self.end_s: float | None = None
        self._t0 = 0.0
        self._paused_s = 0.0
        self._scratch = root / ".perfbench" / "tmp" / str(os.getpid())

    def start(self) -> None:
        self._t0 = time.perf_counter()

    def now(self) -> float:
        """Timed seconds since :meth:`start`, pauses excluded."""
        return time.perf_counter() - self._t0 - self._paused_s

    @contextmanager
    def paused(self):
        """Stop the clock (and the span recorder) for a check."""
        began = time.perf_counter()
        try:
            if self.recorder is None:
                yield
            else:
                with self.recorder.suspended():
                    yield
        finally:
            self._paused_s += time.perf_counter() - began

    def setup_done(self) -> None:
        """Mark the first simulated cycle (later calls are no-ops)."""
        if self.setup_s is None:
            self.setup_s = self.now()
            if self.setup_only:
                raise SetupReached

    @contextmanager
    def run(self, label: str):
        """Bracket one simulation run; an exception fails the run."""
        record = RunRecord(self, label)
        try:
            yield record
        except SetupReached:
            raise
        except Exception as error:  # noqa: BLE001 - a failed run
            record.summary["problems"].append(
                f"{type(error).__name__}: {error}"
            )
        self.runs.append(record.summary)

    def scratch_dir(self, name: str) -> str:
        """A fresh directory under the checkout's ``.perfbench/tmp``."""
        path = self._scratch / name
        path.mkdir(parents=True, exist_ok=True)
        return str(path)

    def job_dir(self) -> Path:
        """Where the workers' hook writes its per-job records."""
        return self._scratch / "jobs"

    def finish_batch(self, jobs, cold, warm, cold_s, warm_s, spawn_s,
                     busy_s) -> None:
        """Stop the clock after the warm batch and check both passes."""
        from repro.experiments.config import paper_system

        self.end_s = self.now()
        with self.paused():
            memory = paper_system(cores=suite.GAP_CORES, gap=True).memory
            peak = memory.spec.peak_bandwidth_gbps * memory.device_channels
            worker_records = {}
            for path in sorted(self.job_dir().glob("*.json")):
                record = json.loads(path.read_text())
                worker_records[record["digest"]] = record
            failed = {f.index: f for f in cold.failures}
            for index, job in enumerate(jobs):
                summary = {"label": job.label, "problems": []}
                problems = summary["problems"]
                payload = cold.payloads[index]
                if payload is None:
                    problems.append(str(failed.get(index, "no payload")))
                    self.runs.append(summary)
                    continue
                digest = payload["fingerprint"]["digest"]
                mismatch = checks.pinned_mismatch(
                    self.pins, self.workload, self.seed, job.label, digest
                )
                if mismatch:
                    problems.append(mismatch)
                problems.extend(checks.payload_problems(payload, peak))
                worker = worker_records.get(job.digest(), {})
                fallback = worker.get("fallback", [])
                summary.update(
                    digest=digest,
                    engine={
                        "configured": memory.engine,
                        "effective": effective_engines(
                            memory.engine, memory.device_channels, fallback
                        ),
                        "fallback": fallback,
                        "observed": bool(worker),
                    },
                    counts=checks.payload_counts(payload),
                    model={
                        "achieved_gbps": payload["metrics"]["achieved_gbps"],
                        "read_latency_ns": payload["metrics"][
                            "avg_latency_ns"
                        ],
                    },
                )
                if "counts" in worker:
                    summary["worker_counts"] = worker["counts"]
                    summary["worker_spans"] = worker["spans"]
                self.runs.append(summary)
            # The warm pass: every job a hit, every payload the cold one.
            for index, job in enumerate(jobs):
                problems = []
                if warm.payloads[index] != cold.payloads[index]:
                    problems.append("warm payload differs from cold")
                self.runs.append({
                    "label": f"{job.label} warm", "problems": problems,
                })
            if warm.cache_hits != len(jobs):
                self.runs[-1]["problems"].append(
                    f"warm pass hit {warm.cache_hits} of {len(jobs)}"
                )
            self.batch = {
                "cold_s": cold_s,
                "warm_s": warm_s,
                "spawn_s": spawn_s,
                "job_busy_s": busy_s,
                "workers": suite.GAP_WORKERS,
                "cache_hits": cold.cache_hits + warm.cache_hits,
                "cache_misses": cold.executed + warm.executed,
            }

    def cleanup(self) -> None:
        shutil.rmtree(self._scratch, ignore_errors=True)


def _peak_rss_mb(workload: str) -> float:
    """Peak resident memory of this process (checks included) and, for
    the GAP batch, of its largest service worker."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "gap-batch":
        workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        peak_kb = max(peak_kb, workers)
    return peak_kb / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"rep.py: no src/repro under {root}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    recorder = SpanRecorder() if args.trace else None
    ctx = RepContext(args.workload, args.seed, root, recorder,
                     args.setup_only)
    if args.workload == "gap-batch":
        # Workers inherit the environment at spawn: point them at the
        # hook and at the directory for their per-job records.
        ctx.job_dir().mkdir(parents=True, exist_ok=True)
        os.environ["PERFBENCH_JOB_DIR"] = str(ctx.job_dir())
        os.environ["PERFBENCH_TRACE"] = "1" if args.trace else "0"
        os.environ["PYTHONPATH"] = os.pathsep.join(
            [str(HOOK_DIR)] + [
                part for part in [os.environ.get("PYTHONPATH")] if part
            ]
        )
    try:
        ctx.start()
        import repro  # noqa: F401 - timed: the user pays for the import

        if recorder is not None:
            recorder.install()
        try:
            suite.WORKLOADS[args.workload](args.seed, ctx)
        except SetupReached:
            pass
        if recorder is not None:
            recorder.uninstall()
            spans = recorder.summary()
        out = {
            "workload": args.workload,
            "seed": args.seed,
            "mode": (
                "setup" if args.setup_only
                else "traced" if args.trace else "timed"
            ),
            "setup_s": ctx.setup_s,
            "wall_s": ctx.end_s,
            "peak_rss_mb": _peak_rss_mb(args.workload),
            "runs": ctx.runs,
            "batch": ctx.batch,
        }
        if recorder is not None:
            out["spans"] = spans
    finally:
        ctx.cleanup()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
