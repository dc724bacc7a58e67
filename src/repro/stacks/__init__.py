"""Bandwidth, latency and cycle stacks: the paper's contribution.

* :mod:`repro.stacks.bandwidth` — hierarchical accounting of every memory
  channel cycle into read/write/refresh/precharge/activate/bank-idle/
  constraints/idle components (Sec. IV of the paper).
* :mod:`repro.stacks.latency` — per-read decomposition of DRAM latency
  into base/pre-act/refresh/writeburst/queue components (Sec. V).
* :mod:`repro.stacks.cycle` — CPI-style cycle stacks for the core model,
  used alongside the memory stacks (Fig. 7).
* :mod:`repro.stacks.extrapolation` — naive and stack-based bandwidth
  extrapolation across core counts (Sec. VIII-B).
* :mod:`repro.stacks.requester` — the per-requester rows both
  accountants route their units into, with an explicit interference
  component (multi-requester QoS runs; see docs/qos.md).
"""

from repro.stacks.bandwidth import (
    BANDWIDTH_COMPONENTS,
    BandwidthStackAccountant,
    bandwidth_stack_from_log,
)
from repro.stacks.components import Stack, StackSeries
from repro.stacks.cycle import CYCLE_COMPONENTS, CycleStackBuilder
from repro.stacks.energy import (
    ENERGY_COMPONENTS,
    EnergyAccountant,
    EnergyModel,
    energy_stack_from_log,
)
from repro.stacks.extrapolation import (
    extrapolate_naive,
    extrapolate_series,
    extrapolate_stack_based,
)
from repro.stacks.latency import (
    LATENCY_COMPONENTS,
    LatencyStackAccountant,
    latency_stack_from_requests,
)
from repro.stacks.requester import (
    REQUESTER_BANDWIDTH_COMPONENTS,
    REQUESTER_LATENCY_COMPONENTS,
    SHARED_REQUESTER,
    fold_interference,
)

__all__ = [
    "BANDWIDTH_COMPONENTS",
    "BandwidthStackAccountant",
    "CYCLE_COMPONENTS",
    "CycleStackBuilder",
    "ENERGY_COMPONENTS",
    "EnergyAccountant",
    "EnergyModel",
    "energy_stack_from_log",
    "LATENCY_COMPONENTS",
    "LatencyStackAccountant",
    "REQUESTER_BANDWIDTH_COMPONENTS",
    "REQUESTER_LATENCY_COMPONENTS",
    "SHARED_REQUESTER",
    "Stack",
    "StackSeries",
    "bandwidth_stack_from_log",
    "fold_interference",
    "extrapolate_naive",
    "extrapolate_series",
    "extrapolate_stack_based",
    "latency_stack_from_requests",
]
