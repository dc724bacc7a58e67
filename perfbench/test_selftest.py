"""Self-test: at seed 42 the benchmark times the figures users regenerate.

The benchmark drives the simulator through its own copy of each figure's
loop (``suite.py``). These tests run that copy and the figure module side
by side and require identical stacks (labels, units and every component,
bit for bit), and for the GAP batch identical fingerprints to in-process
``run_gap`` runs. Every run must also pass the benchmark's own checks.

Run from the repository root (about two minutes on a 2-core machine)::

    python3 -m pytest perfbench/test_selftest.py -q
    python3 perfbench/test_selftest.py
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import rep  # noqa: E402
import suite  # noqa: E402

SEED = 42


class KeepingContext(rep.RepContext):
    """A repetition context that keeps every run's record (and with it
    the stacks the workload built)."""

    def __init__(self, workload: str) -> None:
        super().__init__(workload, SEED, ROOT, None, False)
        self.records: list[rep.RunRecord] = []

    @contextmanager
    def run(self, label: str):
        with super().run(label) as record:
            yield record
        self.records.append(record)


def _drive(workload: str) -> KeepingContext:
    ctx = KeepingContext(workload)
    ctx.start()
    try:
        suite.WORKLOADS[workload](SEED, ctx)
    finally:
        ctx.cleanup()
    problems = [
        (run["label"], problem)
        for run in ctx.runs for problem in run["problems"]
    ]
    assert not problems, problems
    return ctx


def _rows(stack) -> tuple:
    return stack.label, stack.unit, stack.as_rows()


def _driven(ctx: KeepingContext, kind: str, labels=None) -> list:
    return [
        _rows(stack)
        for record in ctx.records
        if labels is None or record.label in labels
        for stack in record.stacks.get(kind, [])
    ]


def test_fig2_stacks_match_the_figure():
    from repro.experiments import fig2

    figure = fig2.run("ci")
    ctx = _drive("fig2")
    assert _driven(ctx, "bandwidth") == [_rows(s) for s in figure.bandwidth]
    assert _driven(ctx, "latency") == [_rows(s) for s in figure.latency]


def test_figstd_stacks_match_the_figure():
    from repro.experiments import figstd

    figure = figstd.run("ci")
    ctx = _drive("figstd")
    assert _driven(ctx, "bandwidth") == [_rows(s) for s in figure.bandwidth]
    assert _driven(ctx, "latency") == [_rows(s) for s in figure.latency]


def test_figqos_stacks_match_the_figure():
    from repro.experiments import figqos

    figure = figqos.run("ci")
    ctx = _drive("figqos")
    shared = [label for label, __ in suite.FIGQOS_SCHEDULERS]
    assert _driven(ctx, "bandwidth", shared) == [
        _rows(s) for s in figure.bandwidth
    ]
    assert _driven(ctx, "latency", shared) == [
        _rows(s) for s in figure.latency
    ]
    solo = {
        record.label: record.stacks["latency"][0].total
        for record in ctx.records if record.label.startswith("solo")
    }
    assert figure.extra["solo_latency_ns"] == {
        "0": solo["solo cpu"], "1": solo["solo agent"],
    }


def test_gap_batch_fingerprints_match_run_gap():
    from repro.experiments.runner import run_gap
    from repro.reliability.fingerprint import result_fingerprint

    ctx = _drive("gap-batch")
    driven = {
        run["label"]: run["digest"] for run in ctx.runs if "digest" in run
    }
    expected = {}
    for kernel in suite.GAP_KERNELS:
        result, __ = run_gap(
            kernel, cores=suite.GAP_CORES, scale="ci", seed=SEED
        )
        expected[f"{kernel} {suite.GAP_CORES}c"] = (
            result_fingerprint(result)["digest"]
        )
    assert driven == expected
    assert ctx.batch["cache_hits"] == len(suite.GAP_KERNELS)


def test_benchmark_json_names_the_printed_metrics():
    import json

    from layers import END_TO_END, PER_LAYER

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(suite.WORKLOADS)


if __name__ == "__main__":
    import pytest

    sys.exit(pytest.main([__file__, "-q", "-p", "no:cacheprovider"]))
