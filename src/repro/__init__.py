"""DRAM bandwidth and latency stacks (ISPASS 2022 reproduction).

Reproduces Eyerman, Heirman and Hur, "DRAM Bandwidth and Latency Stacks:
Visualizing DRAM Bottlenecks", ISPASS 2022: an event-driven DDR4 memory
system simulator with an attribution mechanism that explains, cycle by
cycle, where peak bandwidth is lost and, read by read, where latency
comes from.

Quickstart::

    from repro import (
        ControllerConfig, MemoryController, Request, RequestType,
        bandwidth_stack_from_log, latency_stack_from_requests,
    )

    mc = MemoryController(ControllerConfig())
    for i in range(1000):
        mc.enqueue(Request(RequestType.READ, i * 64, arrival=i * 10))
    mc.drain()
    mc.finalize()
    bw = bandwidth_stack_from_log(mc.log, mc.now, mc.spec)
    lat = latency_stack_from_requests(mc.completed_requests, mc.log, mc.spec)

Higher-level entry points live in :mod:`repro.experiments` (the paper's
figures) and :mod:`repro.cpu` (the closed-loop multi-core model).
"""

from repro.dram import (
    AddressMapping,
    Command,
    CommandType,
    ControllerConfig,
    MemoryController,
    MemorySystem,
    MemorySystemConfig,
    Organization,
    Request,
    RequestType,
    TimingSpec,
    TimingValidator,
    validate_controller,
)
from repro.errors import (
    AccountingError,
    ConfigurationError,
    ProtocolError,
    ReproError,
    TimingViolationError,
    TraceFormatError,
    WorkloadError,
)
from repro.stacks import (
    BANDWIDTH_COMPONENTS,
    BandwidthStackAccountant,
    CYCLE_COMPONENTS,
    CycleStackBuilder,
    EnergyAccountant,
    EnergyModel,
    energy_stack_from_log,
    LATENCY_COMPONENTS,
    LatencyStackAccountant,
    Stack,
    StackSeries,
    bandwidth_stack_from_log,
    extrapolate_naive,
    extrapolate_series,
    extrapolate_stack_based,
    latency_stack_from_requests,
)

__version__ = "1.0.0"


__all__ = [
    "AddressMapping",
    "AccountingError",
    "BANDWIDTH_COMPONENTS",
    "BandwidthStackAccountant",
    "CYCLE_COMPONENTS",
    "Command",
    "CommandType",
    "ConfigurationError",
    "ControllerConfig",
    "CycleStackBuilder",
    "LATENCY_COMPONENTS",
    "LatencyStackAccountant",
    "MemoryController",
    "MemorySystem",
    "MemorySystemConfig",
    "Organization",
    "ProtocolError",
    "ReproError",
    "Request",
    "RequestType",
    "Stack",
    "StackSeries",
    "TimingSpec",
    "TimingValidator",
    "TimingViolationError",
    "TraceFormatError",
    "WorkloadError",
    "EnergyAccountant",
    "EnergyModel",
    "bandwidth_stack_from_log",
    "energy_stack_from_log",
    "validate_controller",
    "extrapolate_naive",
    "extrapolate_series",
    "extrapolate_stack_based",
    "latency_stack_from_requests",
]
