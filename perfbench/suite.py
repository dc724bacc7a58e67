"""The benchmark's workloads, driven through public layer entry points.

Each workload function regenerates one figure's data (or one GAP batch)
the way the figure modules do, but from the benchmark's own inputs: the
seed goes into the synthetic patterns' RNG and the GAP graphs. Seed 42
is the shipped figures' seed, so at 42 every stack equals the figure's
(``selftest.py`` checks this).

A workload reports to a context object (``rep.RepContext``):

* ``ctx.setup_done()`` right before the first simulated cycle;
* ``with ctx.run(label) as run:`` brackets one simulation, and
  ``run.finish(result, traces)`` follows its last stack (the context
  runs its checks with the clock paused);
* ``ctx.finish_batch(...)`` follows the service workload's last batch.

Nothing here imports ``repro`` at module import time.
"""

from __future__ import annotations

#: fig2: (pattern, cores) in figure order.
FIG2_RUNS = tuple(
    (pattern, cores)
    for pattern in ("sequential", "random")
    for cores in (1, 2, 4, 8)
)

#: figstd: (label, device selector) in figure order.
FIGSTD_RUNS = (
    ("ddr4-2400", "ddr4-2400"),
    ("ddr5-4800", "ddr5-4800"),
    ("lpddr5-6400", "lpddr5-6400"),
    ("hbm2", "hbm2"),
)
FIGSTD_CORES = 2
FIGSTD_STORE_FRACTION = 0.2

#: figqos: (label, scheduling) in figure order, after the two solos.
FIGQOS_SCHEDULERS = (
    ("fr-fcfs", "fr-fcfs"),
    ("wrr", "wrr"),
    ("wrr 3:1", "wrr:3,1"),
    ("bank-reg", "bank-reg:period=1000,budget=4"),
)
FIGQOS_CPU_CORES = 2
FIGQOS_AGENT_FACTOR = 2

#: gap-batch: the six GAP kernels, each a 2-core ``gap`` job.
GAP_KERNELS = ("bfs", "pr", "cc", "bc", "sssp", "tc")
GAP_CORES = 2
GAP_WORKERS = 2
#: Kernels whose work the graph's size fixes (one PageRank iteration
#: over every edge; triangle counting capped at ``tc_max_edges``) run
#: on a graph from the benchmark seed. The traversal kernels' work
#: follows the size of the component reached from the source, which
#: swings by up to 30% between graph seeds and would swamp the timing,
#: so they run on the shipped figures' graph at every seed.
GAP_SEEDED_KERNELS = ("pr", "tc")
GAP_SHIPPED_GRAPH_SEED = 42


def _synthetic(pattern: str, seed: int, store_fraction: float = 0.0,
               accesses_factor: int = 1, instructions_per_access=None):
    from repro.experiments.config import get_scale
    from repro.workloads.synthetic import SyntheticConfig, make_pattern

    extra = {}
    if instructions_per_access is not None:
        extra["instructions_per_access"] = instructions_per_access
    return make_pattern(pattern, SyntheticConfig(
        accesses_per_core=get_scale("ci").synthetic_accesses
        * accesses_factor,
        store_fraction=store_fraction,
        seed=seed,
        **extra,
    ))


def _simulate(ctx, config, make_traces):
    """CpuSystem construction + run, in the runner's order: the system
    is built before the traces are generated."""
    from repro.cpu.system import CpuSystem

    system = CpuSystem(config)
    traces = make_traces()
    ctx.setup_done()
    return system.run(traces), traces


def fig2(seed: int, ctx) -> None:
    """Read-only sequential/random on 1-8 cores, DDR4-2400."""
    from repro.experiments.config import paper_system

    for pattern, cores in FIG2_RUNS:
        label = f"{pattern[:3]} {cores}c"
        with ctx.run(label) as run:
            config = paper_system(cores=cores, gap=True)
            workload = _synthetic(pattern, seed)
            result, traces = _simulate(
                ctx, config, lambda: workload.traces(cores)
            )
            run.stacks["bandwidth"] = [result.bandwidth_stack(label)]
            run.stacks["latency"] = [result.latency_stack(label)]
            run.finish(result, traces)


def figstd(seed: int, ctx) -> None:
    """2-core random with 20% stores on DDR4, DDR5, LPDDR5 and HBM2."""
    from repro.experiments.config import paper_system

    for label, device in FIGSTD_RUNS:
        with ctx.run(label) as run:
            config = paper_system(
                cores=FIGSTD_CORES, gap=True, device=device
            )
            workload = _synthetic(
                "random", seed, store_fraction=FIGSTD_STORE_FRACTION
            )
            result, traces = _simulate(
                ctx, config,
                lambda: workload.traces(FIGSTD_CORES),
            )
            run.stacks["bandwidth"] = [result.bandwidth_stack(label)]
            run.stacks["latency"] = [result.latency_stack(label)]
            run.finish(result, traces)


def figqos(seed: int, ctx) -> None:
    """2 CPU cores vs a streaming agent under four schedulers, plus the
    two contention-free solo baselines."""
    from repro.experiments.config import paper_system

    def qos_workloads():
        cpu = _synthetic("random", seed)
        agent = _synthetic(
            "streaming", seed, accesses_factor=FIGQOS_AGENT_FACTOR,
            instructions_per_access=1,
        )
        return cpu, agent

    n = FIGQOS_CPU_CORES
    for solo in ("cpu", "agent"):
        label = f"solo {solo}"
        with ctx.run(label) as run:
            cpu, agent = qos_workloads()
            if solo == "cpu":
                cores, requesters = n, (0,) * n
                make_traces = lambda: cpu.traces(n)  # noqa: E731
            else:
                cores, requesters = 1, (1,)
                make_traces = lambda: agent.traces(1)  # noqa: E731
            config = paper_system(
                cores=cores, scheduling="fr-fcfs", gap=True,
                requesters=requesters,
            )
            result, traces = _simulate(ctx, config, make_traces)
            run.stacks["latency"] = [result.latency_stack()]
            run.finish(result, traces)
    for label, scheduling in FIGQOS_SCHEDULERS:
        with ctx.run(label) as run:
            cpu, agent = qos_workloads()
            config = paper_system(
                cores=n + 1, scheduling=scheduling, gap=True,
                requesters=(0,) * n + (1,),
            )
            result, traces = _simulate(
                ctx, config,
                lambda: cpu.traces(n) + agent.traces(1),
            )
            bandwidth = result.per_requester_bandwidth_stacks(f"{label} ")
            latency = result.per_requester_latency_stacks(f"{label} ")
            run.stacks["bandwidth"] = [
                bandwidth[r] for r in sorted(bandwidth) if r >= 0
            ]
            run.stacks["latency"] = [latency[r] for r in sorted(latency)]
            run.finish(result, traces)


def gap_jobs(seed: int) -> list:
    """The gap-batch job list (see :data:`GAP_SEEDED_KERNELS`)."""
    from repro.service import Job

    return [
        Job("gap", {"kernel": kernel, "cores": GAP_CORES}, scale="ci",
            seed=(
                seed if kernel in GAP_SEEDED_KERNELS
                else GAP_SHIPPED_GRAPH_SEED
            ),
            label=f"{kernel} {GAP_CORES}c")
        for kernel in GAP_KERNELS
    ]


def gap_batch(seed: int, ctx) -> None:
    """Six GAP kernels through a 2-worker ExecutionService into a fresh
    result cache, then the same batch again, warm."""
    from repro.service import (
        ExecutionService,
        JobFinished,
        JobStarted,
        ResultCache,
    )

    jobs = gap_jobs(seed)
    service = ExecutionService(
        workers=GAP_WORKERS, cache=ResultCache(ctx.scratch_dir("cache"))
    )
    started: list[float] = []
    busy: list[float] = []

    def on_started(event) -> None:
        if not started:
            started.append(ctx.now())
        ctx.setup_done()

    def on_finished(event) -> None:
        if not event.cached:
            busy.append(event.elapsed_s)

    service.bus.subscribe(JobStarted, on_started)
    service.bus.subscribe(JobFinished, on_finished)
    cold_start = ctx.now()
    cold = service.run(jobs)
    cold_s = ctx.now() - cold_start
    warm_start = ctx.now()
    warm = service.run(jobs)
    warm_s = ctx.now() - warm_start
    spawn_s = started[0] - cold_start if started else cold_s
    ctx.finish_batch(jobs, cold, warm, cold_s, warm_s, spawn_s, sum(busy))


WORKLOADS = {
    "fig2": fig2,
    "figstd": figstd,
    "figqos": figqos,
    "gap-batch": gap_batch,
}
