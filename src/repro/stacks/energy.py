"""DRAM energy stacks (extension).

The related work the paper builds on (DRAMsim3) also tracks power; the
same event log the bandwidth stack consumes carries everything an
operation-level energy model needs. Energy is attributed to:

* ``activate_precharge`` — row open/close pairs,
* ``read`` / ``write`` — CAS bursts (array access + I/O),
* ``refresh`` — refresh cycles,
* ``background`` — standby power over the whole interval.

The default coefficients approximate a DDR4 x8 device at 1.2 V (derived
from typical IDD values); they are deliberately simple — the point, as
with the paper's stacks, is the *breakdown*, which sums exactly to the
total energy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.controller import EventLog
from repro.dram.timing import TimingSpec
from repro.errors import AccountingError
from repro.stacks.components import Stack, ordered_stack

ENERGY_COMPONENTS = (
    "read",
    "write",
    "activate_precharge",
    "refresh",
    "background",
)


@dataclass(frozen=True)
class EnergyModel:
    """Per-operation energy coefficients, in nanojoules.

    Attributes:
        act_pre_nj: one ACTIVATE+PRECHARGE pair (row open + close).
        read_nj / write_nj: one cache-line burst.
        refresh_nj: one all-bank refresh (tRFC worth of work).
        background_mw: standby power applied to every cycle.
    """

    act_pre_nj: float = 2.0
    read_nj: float = 1.2
    write_nj: float = 1.3
    refresh_nj: float = 60.0
    background_mw: float = 90.0

    def __post_init__(self) -> None:
        for name in ("act_pre_nj", "read_nj", "write_nj", "refresh_nj",
                     "background_mw"):
            if getattr(self, name) < 0:
                raise AccountingError(f"{name} must be non-negative")


class EnergyAccountant:
    """Builds energy stacks from a controller event log."""

    def __init__(
        self, spec: TimingSpec, model: EnergyModel | None = None
    ) -> None:
        self.spec = spec
        self.model = model or EnergyModel()

    def account(
        self, log: EventLog, total_cycles: int, label: str = ""
    ) -> Stack:
        """Total energy per component, in microjoules."""
        if total_cycles <= 0:
            raise AccountingError("total_cycles must be positive")
        model = self.model
        bursts = log.bursts
        writes = sum(1 for entry in bursts if entry[2])
        reads = len(bursts) - writes
        # Activate windows are logged once per ACT; every ACT implies a
        # PRE eventually, so count pairs from the ACT side.
        act_pairs = len(log.act_windows)
        refreshes = len(log.refresh_windows)
        seconds = total_cycles * self.spec.cycle_ns * 1e-9

        nanojoules = {
            "read": reads * model.read_nj,
            "write": writes * model.write_nj,
            "activate_precharge": act_pairs * model.act_pre_nj,
            "refresh": refreshes * model.refresh_nj,
            "background": model.background_mw * 1e-3 * seconds * 1e9,
        }
        stack = ordered_stack(
            {name: value * 1e-3 for name, value in nanojoules.items()},
            ENERGY_COMPONENTS,
            unit="uJ",
            label=label,
        )
        return stack

    def average_power(
        self, log: EventLog, total_cycles: int, label: str = ""
    ) -> Stack:
        """Average power per component, in milliwatts."""
        energy = self.account(log, total_cycles, label)
        seconds = total_cycles * self.spec.cycle_ns * 1e-9
        if seconds <= 0:
            raise AccountingError("zero-length interval")
        # uJ / s = uW; convert to mW.
        return energy.with_unit(1e-3 / seconds, "mW")

    def energy_per_bit(
        self, log: EventLog, total_cycles: int
    ) -> float:
        """Picojoules per transferred data bit (a common DRAM metric)."""
        energy = self.account(log, total_cycles)
        bits = len(log.bursts) * self.spec.organization.line_bytes * 8
        if bits == 0:
            raise AccountingError("no data transferred")
        return energy.total * 1e6 / bits  # uJ -> pJ


def energy_stack_from_log(
    log: EventLog,
    total_cycles: int,
    spec: TimingSpec,
    model: EnergyModel | None = None,
    label: str = "",
) -> Stack:
    """Convenience wrapper mirroring ``bandwidth_stack_from_log``."""
    return EnergyAccountant(spec, model).account(log, total_cycles, label)
