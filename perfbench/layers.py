"""Metric definitions and the per-layer split of the traced run.

``END_TO_END`` and ``PER_LAYER`` name every metric the benchmark prints,
with its unit; ``BENCHMARK.json`` lists the same names. Per-layer self
times come from the span summaries (``spans.py``) of the traced
repetitions: the benchmark process's own spans plus, for the GAP batch,
the spans each service worker recorded per job. Counts come from the
finished results, so they can be compared with the untraced run.
"""

from __future__ import annotations

from spans import CALL_COUNTS, LAYER_OF

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_reqs_per_s": "req/s",
    "peak_rss_mb": "MB",
}

#: Self-time metrics, by the layer names of ``spans.LAYER_OF``.
SELF_TIME = {
    "workloads": "workloads.self_s",
    "cpu.system.setup": "cpu.system.setup_s",
    "cpu.system": "cpu.system.self_s",
    "cpu.core": "cpu.core.self_s",
    "cpu.hierarchy": "cpu.hierarchy.self_s",
    "dram.controller": "dram.controller.self_s",
    "reliability.guard": "reliability.guard.self_s",
    "stacks.bandwidth": "stacks.bandwidth.self_s",
    "stacks.latency": "stacks.latency.self_s",
    "stacks.requester": "stacks.requester.self_s",
    "service": "service.self_s",
    "service.job": "service.job_self_s",
}

#: Result-derived counts reported as they are.
COUNTS = (
    "workloads.trace_items",
    "cpu.core.instructions",
    "cpu.hierarchy.accesses",
    "dram.controller.requests",
    "dram.controller.commands",
    "dram.eventlog.entries",
    "dram.eventlog.sidecar_entries",
    "stacks.latency.reads",
)

PER_LAYER = {
    "workloads.self_s": "s",
    "workloads.trace_items": "count",
    "cpu.system.self_s": "s",
    "cpu.system.setup_s": "s",
    "cpu.core.self_s": "s",
    "cpu.core.advance_calls": "count",
    "cpu.core.instructions": "count",
    "cpu.hierarchy.self_s": "s",
    "cpu.hierarchy.accesses": "count",
    "cpu.hierarchy.l1_hit_ratio": "ratio",
    "cpu.hierarchy.llc_hit_ratio": "ratio",
    "dram.controller.self_s": "s",
    "dram.controller.calls": "count",
    "dram.controller.requests": "count",
    "dram.controller.commands": "count",
    "dram.controller.row_hit_ratio": "ratio",
    "dram.controller.fallback_channels": "count",
    "dram.eventlog.entries": "count",
    "dram.eventlog.sidecar_entries": "count",
    "reliability.guard.self_s": "s",
    "reliability.guard.ticks": "count",
    "stacks.bandwidth.self_s": "s",
    "stacks.latency.self_s": "s",
    "stacks.requester.self_s": "s",
    "stacks.latency.reads": "count",
    "service.self_s": "s",
    "service.job_self_s": "s",
    "service.spawn_s": "s",
    "service.job_busy_s": "s",
    "service.overhead_s": "s",
    "service.cache_hits": "count",
    "service.cache_misses": "count",
    "service.warm_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "model.achieved_gbps": "GB/s",
    "model.read_latency_ns": "ns",
    "model.total_cycles": "cycles",
}

#: Per-layer metrics that must repeat exactly between traced runs.
EXACT = tuple(
    name for name, unit in PER_LAYER.items()
    if unit in ("count", "ratio", "cycles", "GB/s", "ns")
)

#: Allowed float error of the self-time identity, in seconds.
IDENTITY_TOLERANCE_S = 1e-6


def _span_summaries(rep: dict) -> list[dict]:
    """Every process's span summary of one traced repetition: the
    benchmark process first, then one per worker job."""
    return [rep["spans"]] + [
        run["worker_spans"] for run in rep["runs"] if "worker_spans" in run
    ]


def _counts(rep: dict) -> dict[str, int]:
    """Result-derived counts of a repetition, summed over its runs."""
    total: dict[str, int] = {}
    for run in rep["runs"]:
        for counts in run.get("worker_counts") or [run.get("counts", {})]:
            for name, value in counts.items():
                total[name] = total.get(name, 0) + value
    return total


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _one(rep: dict, untraced_wall: float) -> dict[str, float]:
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    calls: dict[str, int] = {}
    for summary in _span_summaries(rep):
        for name, entry in summary["spans"].items():
            metrics[SELF_TIME[LAYER_OF[name]]] += entry["self_s"]
            calls[name] = calls.get(name, 0) + entry["calls"]
    for name, metric in CALL_COUNTS.items():
        metrics[metric] = calls.get(name, 0)
    counts = _counts(rep)
    for name in COUNTS:
        metrics[name] = counts.get(name, 0)
    metrics["cpu.hierarchy.l1_hit_ratio"] = _ratio(
        counts.get("cpu.hierarchy.l1_hits", 0),
        counts.get("cpu.hierarchy.accesses", 0),
    )
    metrics["cpu.hierarchy.llc_hit_ratio"] = _ratio(
        counts.get("cpu.hierarchy.llc_hits", 0),
        counts.get("cpu.hierarchy.llc_accesses", 0),
    )
    metrics["dram.controller.row_hit_ratio"] = _ratio(
        counts.get("dram.controller.row_hits", 0),
        counts.get("dram.controller.cas", 0),
    )
    simulated = [run for run in rep["runs"] if "engine" in run]
    metrics["dram.controller.fallback_channels"] = sum(
        len(run["engine"]["fallback"]) for run in simulated
    )
    models = [run["model"] for run in simulated]
    if models:
        for name in ("achieved_gbps", "read_latency_ns"):
            metrics[f"model.{name}"] = (
                sum(model[name] for model in models) / len(models)
            )
    metrics["model.total_cycles"] = counts.get("model.total_cycles", 0)
    batch = rep.get("batch")
    if batch:
        metrics["service.spawn_s"] = batch["spawn_s"]
        metrics["service.job_busy_s"] = batch["job_busy_s"]
        metrics["service.overhead_s"] = (
            batch["workers"] * batch["cold_s"] - batch["job_busy_s"]
        )
        metrics["service.cache_hits"] = batch["cache_hits"]
        metrics["service.cache_misses"] = batch["cache_misses"]
        metrics["service.warm_s"] = batch["warm_s"]
    wall = rep["wall_s"]
    own = sum(entry["self_s"] for entry in rep["spans"]["spans"].values())
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = wall - untraced_wall
    metrics["trace.unattributed_s"] = wall - own
    return metrics


def layer_metrics(traced: list[dict], untraced: dict):
    """Per-layer metrics of the traced repetitions and the consistency
    failures among them: ``(metrics, problems)``.

    Times are averaged over the traced repetitions; exact metrics come
    from the first, and every other repetition must agree with it.
    """
    each = [_one(rep, untraced["wall_s"]) for rep in traced]
    metrics = {
        name: sum(m[name] for m in each) / len(each) for name in PER_LAYER
    }
    problems = []
    for name in EXACT:
        metrics[name] = each[0][name]
        values = {m[name] for m in each}
        if len(values) > 1:
            problems.append(f"{name} differs between traced runs: {values}")
    plain = _counts(untraced)
    for index, (rep, m) in enumerate(zip(traced, each)):
        where = f"traced run {index}"
        counts = _counts(rep)
        for name, value in plain.items():
            if counts.get(name) != value:
                problems.append(
                    f"{where}: {name} = {counts.get(name)}, untraced {value}"
                )
        summaries = _span_summaries(rep)
        calls = sum(
            summary["spans"].get("cpu.hierarchy", {}).get("calls", 0)
            for summary in summaries
        )
        if calls != counts.get("cpu.hierarchy.accesses", 0):
            problems.append(
                f"{where}: {calls} hierarchy spans for "
                f"{counts.get('cpu.hierarchy.accesses')} L1 accesses"
            )
        for summary in summaries:
            own = sum(entry["self_s"] for entry in summary["spans"].values())
            if abs(summary["roots_s"] - own) > IDENTITY_TOLERANCE_S:
                problems.append(f"{where}: root spans != summed self time")
            if summary["min_self_s"] < -IDENTITY_TOLERANCE_S:
                problems.append(
                    f"{where}: negative self time {summary['min_self_s']!r}"
                )
        # The layers' self times plus the unattributed rest make up the
        # traced wall time (per process: the GAP workers' spans run in
        # parallel with the benchmark process's wait for them).
        layered = sum(m[name] for name in SELF_TIME.values())
        if len(summaries) > 1:
            layered -= sum(
                entry["self_s"]
                for summary in summaries[1:]
                for entry in summary["spans"].values()
            )
        if abs(layered + m["trace.unattributed_s"] - m["trace.wall_s"]) > (
            IDENTITY_TOLERANCE_S
        ):
            problems.append(
                f"{where}: layer self_s {layered!r} + unattributed "
                f"{m['trace.unattributed_s']!r} != wall {m['trace.wall_s']!r}"
            )
    return metrics, problems
