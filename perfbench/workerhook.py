"""Per-job records from inside the execution service's workers.

Installed at worker start by ``hook/sitecustomize.py``. It wraps
``repro.service.executors.execute_job`` (which the worker loop looks
up on every task) and writes one JSON file per job into the output
directory: the job digest, the controller's engine fallback records,
and in traced mode the job's span summary and result-derived counts.
"""

from __future__ import annotations

import json
import os

from capture import EngineLog


def install(out_dir: str, traced: bool) -> None:
    """Hook this worker's job executor (see the module docstring)."""
    from repro.service import executors

    engine_log = EngineLog()
    recorder = None
    finished = []
    if traced:
        import checks
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()
        from repro.cpu.system import CpuSystem

        traced_run = CpuSystem.run

        def run_and_keep(self, traces, *args, **kwargs):
            traces = list(traces)
            result = traced_run(self, traces, *args, **kwargs)
            finished.append((result, traces))
            return result

        CpuSystem.run = run_and_keep
    execute = executors.execute_job
    jobs_done = [0]

    def execute_and_record(job):
        engine_log.records.clear()
        outcome = execute(job)
        record = {
            "digest": job.digest(),
            "label": job.label,
            "fallback": list(engine_log.records),
        }
        if recorder is not None:
            record["spans"] = recorder.summary()
            recorder.reset()
            record["counts"] = [
                checks.result_counts(result, traces)
                for result, traces in finished
            ]
            finished.clear()
        jobs_done[0] += 1
        path = os.path.join(out_dir, f"{os.getpid()}-{jobs_done[0]}.json")
        with open(path, "w") as handle:
            json.dump(record, handle)
        return outcome

    executors.execute_job = execute_and_record
