#!/usr/bin/env python3
"""The paper's Fig. 1 accounting example, reconstructed by hand.

Builds the exact command timeline of the figure — refresh, then a
precharge/activate on bank 0, two reads, a read-to-write turnaround, one
write, with the other banks idle — and shows how each cycle lands in the
bandwidth stack: read/write for data transfers, refresh for the blocked
chip, a 1/n per-bank split during precharge/activate, bank-idle for the
idle banks, and a full-width constraints block for the Tr2w turnaround.
"""

from repro.dram.controller import EventLog
from repro.dram.rank import BlockScope
from repro.dram.timing import DDR4_2400
from repro.stacks.bandwidth import BandwidthStackAccountant
from repro.viz.ascii_art import render_stacks

# The figure shows four banks; shrink the organization accordingly.
SPEC = DDR4_2400.with_organization(bank_groups=2, banks_per_group=2)


def build_fig1_timeline() -> tuple[EventLog, int]:
    """Commands for four banks, exactly as drawn in Fig. 1."""
    log = EventLog(
        # All four banks refresh first: the chip is inaccessible.
        refresh_windows=[(0, 20)],
        # Bank 0 then closes its old row and opens the new one; bank 1
        # activates a bit later. The other banks sit idle.
        pre_windows=[(20, 30, 0)],
        act_windows=[(30, 40, 0), (44, 54, 1)],
        # Two reads and, after the read-to-write turnaround, one write.
        bursts=[
            (40, 44, False),   # read, bank 0
            (54, 58, False),   # read, bank 1
            (70, 74, True),    # write
        ],
        # Tr2w: the rank-wide read-to-write constraint delays the write.
        blocked=[(58, 70, BlockScope.RANK, -1, "read_to_write")],
    )
    return log, 74


def main() -> None:
    log, total_cycles = build_fig1_timeline()
    accountant = BandwidthStackAccountant(SPEC)

    counters = accountant.account_cycles(log, total_cycles)[0]
    n = SPEC.organization.banks
    print("Cycle accounting (in 1/4-cycle units, as in the paper's")
    print("footnote: 'we add 1 to each counter and divide by n'):")
    for name, value in counters.items():
        if value:
            print(f"  {name:12s} {value:4d} units = {value / n:6.2f} cycles")
    print(f"  {'total':12s} {sum(counters.values()):4d} units = "
          f"{sum(counters.values()) / n:6.2f} cycles "
          f"(= {total_cycles} simulated)")

    stack = accountant.account(log, total_cycles, label="fig1")
    print()
    print(render_stacks([stack], title="Fig. 1 bandwidth stack (GB/s):"))

    print()
    print("Reading the stack:")
    print(f"  - the two reads + one write moved data for 12 of "
          f"{total_cycles} cycles;")
    print("  - refresh blocked everything for 20 cycles;")
    print("  - during bank 0/1's precharge+activate the other three")
    print("    banks could have worked: their share is 'bank_idle';")
    print("  - the read-to-write turnaround blocks the whole rank:")
    print("    a full-width 'constraints' block, exactly as drawn.")


if __name__ == "__main__":
    main()
