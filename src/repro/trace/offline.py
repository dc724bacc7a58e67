"""Offline stack construction from a stored command trace.

Rebuilds a channel event log from commands + request arrivals (Sec. IV's
"the bandwidth stack can be constructed offline from this trace") and
runs the normal accountant on it.

Fidelity note: the online controller records the *scope* of the binding
constraint for every blocked interval, which the per-bank ``constraints``
vs ``bank_idle`` split uses. A bare command trace does not carry that
information, so offline blocked intervals (cycles with a pending request
but no pre/act activity) are charged rank-wide to ``constraints``. All
other components are reconstructed exactly.
"""

from __future__ import annotations

from repro.devices import DEVICES
from repro.dram.controller import EventLog, MemoryController
from repro.dram.commands import CommandType
from repro.dram.components.accounting import FORWARDED, IS_WRITE
from repro.dram.rank import BlockScope
from repro.dram.timing import DDR4_2400, DDR5_4800, DDR4_3200, TimingSpec
from repro.errors import TraceFormatError
from repro.stacks import intervals as iv
from repro.stacks.bandwidth import BandwidthStackAccountant
from repro.stacks.components import Stack
from repro.trace.events import CommandRecord, RequestRecord, TraceFile

_CMD_NAMES = {
    CommandType.ACTIVATE: "ACT",
    CommandType.PRECHARGE: "PRE",
    CommandType.PRECHARGE_ALL: "PREA",
    CommandType.READ: "RD",
    CommandType.WRITE: "WR",
    CommandType.REFRESH: "REF",
}


def spec_by_name(name: str) -> TimingSpec:
    """Look up a timing spec referenced by a trace header.

    Knows the per-channel spec of every registered device preset (a
    trace holds one channel) and the bare timing specs a controller
    may be configured with directly.
    """
    known = {spec.name: spec for spec in (DDR4_2400, DDR4_3200, DDR5_4800)}
    for device in DEVICES.names():
        spec = DEVICES.create(device).spec
        known[spec.name] = spec
    if name not in known:
        raise TraceFormatError(
            f"unknown spec {name!r}; known: {sorted(known)}"
        )
    return known[name]


def capture_trace(controller: MemoryController) -> TraceFile:
    """Extract a TraceFile from a finished controller run.

    The controller must have been configured with
    ``keep_command_trace=True``.
    """
    if not controller.config.keep_command_trace:
        raise TraceFormatError(
            "controller was not recording commands "
            "(set keep_command_trace=True)"
        )
    trace = TraceFile(
        spec_name=controller.spec.name,
        total_cycles=controller.now,
    )
    done = controller.completed_requests
    for arrival, flags, address, req_id in zip(
        done.arrival, done.flags, done.address, done.req_id
    ):
        if flags & FORWARDED:
            continue
        trace.requests.append(RequestRecord(
            arrival=arrival,
            is_write=bool(flags & IS_WRITE),
            address=address,
            req_id=req_id,
        ))
    for command in controller.log.commands:
        trace.commands.append(CommandRecord(
            issue=command.issue,
            name=_CMD_NAMES[command.cmd_type],
            bank_group=command.bank_group,
            bank=command.bank,
            row=command.row,
            req_id=command.req_id,
        ))
    trace.requests.sort(key=lambda r: r.arrival)
    return trace


def event_log_from_trace(
    trace: TraceFile, spec: TimingSpec | None = None
) -> EventLog:
    """Rebuild the channel event log from a command trace.

    The trace names no requesters, so every window's owner is the
    shared row, and its bursts carry no core: ``(start, end,
    is_write)``.
    """
    spec = spec or spec_by_name(trace.spec_name)
    bpg = spec.organization.banks_per_group
    tRFCsb = spec.tRFCsb if spec.tRFCsb > 0 else max(1, spec.tRFC // 2)
    bursts, pre, act, cas = [], [], [], []
    refresh, bank_refresh = [], []
    serve_time: dict[int, int] = {}

    for cmd in trace.commands:
        flat = cmd.bank_group * bpg + cmd.bank
        if cmd.name == "ACT":
            act.append((cmd.issue, cmd.issue + spec.tRCD, flat))
        elif cmd.name in ("PRE", "PREA"):
            pre.append((cmd.issue, cmd.issue + spec.tRP, flat))
        elif cmd.name == "REF":
            # bank_group >= 0 marks a same-bank refresh (REFsb/REFpb).
            if cmd.bank_group >= 0:
                bank_refresh.append((cmd.issue, cmd.issue + tRFCsb, flat))
            else:
                refresh.append((cmd.issue, cmd.issue + spec.tRFC))
        elif cmd.name in ("RD", "WR"):
            is_write = cmd.name == "WR"
            lead = spec.tCWL if is_write else spec.tCL
            start = cmd.issue + lead
            end = start + spec.burst_cycles
            bursts.append((start, end, is_write))
            cas.append((cmd.issue, end, flat))
            if cmd.req_id >= 0:
                serve_time[cmd.req_id] = cmd.issue
        else:
            raise TraceFormatError(f"unknown command {cmd.name!r}")

    # Pending intervals: arrival -> CAS issue per request; gaps covered
    # by them become rank-scope blocked intervals.
    pending: list[tuple[int, int]] = []
    for request in trace.requests:
        served = serve_time.get(request.req_id)
        if served is not None and served > request.arrival:
            pending.append((request.arrival, served))
    pending.sort()
    return EventLog(
        bursts=bursts,
        pre_windows=pre,
        act_windows=act,
        cas_windows=cas,
        refresh_windows=refresh,
        bank_refresh_windows=bank_refresh,
        blocked=[
            (start, end, BlockScope.RANK, -1, "offline_pending")
            for start, end in iv.union(pending, [])
        ],
    )


def offline_bandwidth_stack(
    trace: TraceFile,
    spec: TimingSpec | None = None,
    label: str = "",
) -> Stack:
    """Bandwidth stack straight from a stored trace."""
    spec = spec or spec_by_name(trace.spec_name)
    log = event_log_from_trace(trace, spec)
    accountant = BandwidthStackAccountant(spec)
    return accountant.account(log, trace.total_cycles, label)
