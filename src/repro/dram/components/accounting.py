"""Accounting taps: what a controller records about its own run.

The tap owns the :class:`EventLog` — the complete channel timeline the
stack accountants (:mod:`repro.stacks`), the reliability fingerprint
(:mod:`repro.reliability.fingerprint`) and the offline trace tooling
consume. Every timeline is a :class:`Timeline`: typed columns
(``array('q')`` start and end cycles, small-int payload columns, codes
for the block scope and reason) at ~20 bytes per entry, where a tuple
per entry cost ~80. A timeline iterates, indexes and ``repr``s as the
tuples it stores, so readers see exactly the historic entries; the
packed controller loop appends straight to the columns. The typed
*online* stream for live subscribers travels separately on the
:class:`~repro.core.events.EventBus`.

The controller's completed requests are recorded the same way: a
:class:`CompletedRequests` record keeps the fields the latency
accounting and the trace writer read as typed columns, so no request
object outlives its delivery.

Two taps are registered:

* ``event-log`` (default) — record everything;
* ``null`` — record nothing (all appends are discarded). For pure
  timing runs where the stacks will never be built; the accountants
  see empty timelines.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import compress
from operator import eq

from repro.dram.commands import Command, RequestType
from repro.dram.rank import BlockScope

_BOOLS = (False, True)

#: Block scopes, in code order.
SCOPES = tuple(BlockScope)

#: Block reasons the built-in schedulers and the offline rebuild
#: record, in code order. A timeline appends any other reason (a custom
#: policy's) to its own copy of the table.
REASONS = (
    "data_inflight", "data_bus", "ready", "tCCD_L", "tCCD_S",
    "read_to_write", "tWTR_L", "tWTR_S", "tRRD_L", "tRRD_S", "tFAW",
    "tRCD", "tRP", "tRAS/tWR/tRTP", "auto_precharge", "bank_regulation",
    "offline_pending",
)

#: Column codes of each scope and each fixed reason.
SCOPE_CODE = {scope: code for code, scope in enumerate(SCOPES)}
REASON_CODE = {reason: code for code, reason in enumerate(REASONS)}

# Timeline layouts: the payload columns after ``(start, end)``, each a
# ``(typecode, table)`` pair. A column with a table stores codes into
# it; one without stores the value.
#: ``(start, end)``: refresh and drain windows.
PAIR: tuple = ()
#: ``(start, end, flat_bank)``: pre/act/CAS and same-bank refresh.
BANK = (("h", None),)
#: ``(start, end, is_write, core_id)``: data bursts.
BURST = (("b", _BOOLS), ("h", None))
#: ``(start, end, is_write)``: bursts rebuilt from an offline trace.
BURST3 = (("b", _BOOLS),)
#: ``(start, end, BlockScope, bank_group, reason)``: blocked windows.
BLOCKED = (("b", SCOPES), ("h", None), ("b", REASONS))


class Timeline:
    """One event-log timeline held as typed columns.

    Entry ``i`` is the tuple ``(starts[i], ends[i], *payload)``, each
    payload value decoded through its column's table. The timeline
    iterates, indexes (``[i]``, ``[-1]``) and ``repr``s as the list of
    those tuples and compares equal to it, so a reader sees exactly the
    entries a tuple list held. :meth:`append` encodes one entry; hot
    writers append to :attr:`columns` directly, with codes from
    :data:`SCOPE_CODE` and :data:`REASON_CODE`.

    A coded column's table starts as its layout's fixed table, and a
    value outside it is appended to this timeline's own copy. Booleans
    code as 0 and 1, so an int 0 or 1 in a bool column reads back as
    False or True.
    """

    __slots__ = ("columns", "starts", "ends", "tables", "_codes")

    def __init__(self, payload=PAIR, entries=(), column=array) -> None:
        self.columns = tuple(
            column(typecode)
            for typecode in ("q", "q", *(t for t, __ in payload))
        )
        self.starts, self.ends = self.columns[0], self.columns[1]
        self.tables = tuple(
            None if table is None else list(table) for __, table in payload
        )
        self._codes = tuple(
            None if table is None
            else {value: code for code, value in enumerate(table)}
            for __, table in payload
        )
        for entry in entries:
            self.append(entry)

    def append(self, entry) -> None:
        """Append one entry tuple, encoding its coded fields."""
        columns = self.columns
        if len(entry) != len(columns):
            raise ValueError(
                f"timeline entry {entry!r} has {len(entry)} fields, "
                f"expected {len(columns)}"
            )
        values = [entry[0], entry[1]]
        for value, codes, table in zip(entry[2:], self._codes, self.tables):
            if codes is not None:
                code = codes.get(value)
                if code is None:
                    code = codes[value] = len(table)
                    table.append(value)
                value = code
            values.append(value)
        for column, value in zip(columns, values):
            column.append(value)

    def __len__(self) -> int:
        return len(self.starts)

    def __iter__(self):
        columns = self.columns
        return zip(columns[0], columns[1], *[
            column if table is None else map(table.__getitem__, column)
            for column, table in zip(columns[2:], self.tables)
        ])

    def __getitem__(self, i: int) -> tuple:
        columns = self.columns
        return (columns[0][i], columns[1][i], *[
            column[i] if table is None else table[column[i]]
            for column, table in zip(columns[2:], self.tables)
        ])

    def __repr__(self) -> str:
        return "[" + ", ".join(map(repr, self)) + "]"

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Timeline, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None


#: Integer fields of a completed request, in :class:`CompletedRequests`
#: column order, each with its column's typecode.
REQUEST_FIELDS = (
    ("arrival", "q"), ("cas_issue", "q"), ("finish", "q"),
    ("own_pre_start", "q"), ("own_pre_end", "q"),
    ("own_act_start", "q"), ("own_act_end", "q"),
    ("address", "q"), ("req_id", "q"),
    ("core_id", "h"), ("requester_id", "h"),
)

#: Bits of the :class:`CompletedRequests` flag column.
IS_WRITE, IS_PREFETCH, FORWARDED = 1, 2, 4

# (is_write, is_prefetch, forwarded) of each flag value.
_FLAGS = tuple(
    (bool(f & IS_WRITE), bool(f & IS_PREFETCH), bool(f & FORWARDED))
    for f in range(8)
)


@dataclass(slots=True)
class CompletedRequest:
    """One row of a :class:`CompletedRequests` record.

    It carries the :class:`~repro.dram.commands.Request` attributes the
    accountants and the trace writer read, under the same names. A row
    is a copy: changing it leaves the record as it was.
    """

    arrival: int
    cas_issue: int
    finish: int
    own_pre_start: int
    own_pre_end: int
    own_act_start: int
    own_act_end: int
    address: int
    req_id: int
    core_id: int
    requester_id: int
    is_write: bool
    is_prefetch: bool
    forwarded: bool

    @property
    def is_read(self) -> bool:
        """Whether this is a read request."""
        return not self.is_write

    @property
    def req_type(self) -> RequestType:
        """Read or write, as on the request."""
        return RequestType.WRITE if self.is_write else RequestType.READ


class CompletedRequests:
    """The completed requests of a run, held as typed columns.

    One ``array('q')`` or ``array('h')`` column per field of
    :data:`REQUEST_FIELDS` and one ``array('b')`` column of
    :data:`IS_WRITE` / :data:`IS_PREFETCH` / :data:`FORWARDED` bits:
    77 bytes per request, where the request object cost ~490. The
    record iterates, indexes (``[i]``, ``[-1]``) and has a ``len`` as
    :class:`CompletedRequest` rows. :meth:`append` records one request
    (or anything with its attributes, such as a row); the packed
    controller loop appends straight to :attr:`columns`. Requests
    handed to the constructor are appended in order, so a hand-built
    list becomes a record.
    """

    __slots__ = (*(name for name, __ in REQUEST_FIELDS), "flags", "columns")

    def __init__(self, requests=()) -> None:
        self.columns = tuple(
            array(typecode) for typecode in (
                *(t for __, t in REQUEST_FIELDS), "b",
            )
        )
        for (name, __), column in zip(REQUEST_FIELDS, self.columns):
            setattr(self, name, column)
        self.flags = self.columns[-1]
        for request in requests:
            self.append(request)

    def append(self, request) -> None:
        """Record one completed request."""
        for (name, __), column in zip(REQUEST_FIELDS, self.columns):
            column.append(getattr(request, name))
        self.flags.append(
            request.is_write * IS_WRITE
            | request.is_prefetch * IS_PREFETCH
            | request.forwarded * FORWARDED
        )

    def reads(self, prefetch: bool = True) -> list[bool]:
        """Whether each row is a read the DRAM served (not forwarded
        from the write buffer); with `prefetch` false, a demand read."""
        drop = IS_WRITE | FORWARDED
        if not prefetch:
            drop |= IS_PREFETCH
        return [not flags & drop for flags in self.flags]

    def select(self, keep) -> "CompletedRequests":
        """A record of the rows whose entry in `keep` is true."""
        keep = list(keep)
        record = CompletedRequests()
        for mine, theirs in zip(self.columns, record.columns):
            theirs.extend(compress(mine, keep))
        return record

    def __len__(self) -> int:
        return len(self.flags)

    def __iter__(self):
        columns = self.columns
        for *values, flags in zip(*columns):
            yield CompletedRequest(*values, *_FLAGS[flags])

    def __getitem__(self, i: int) -> CompletedRequest:
        columns = self.columns
        return CompletedRequest(
            *(column[i] for column in columns[:-1]),
            *_FLAGS[columns[-1][i]],
        )


def _timeline(payload):
    return field(default_factory=lambda: Timeline(payload))


def _owners():
    return field(default_factory=lambda: array("h"))


@dataclass
class EventLog:
    """Channel timeline recorded during simulation.

    All windows are half-open cycle intervals ``[start, end)``. Bank
    indices are flat (bank_group * banks_per_group + bank). Entry lists
    handed to the constructor (hand-built logs) become timelines.
    """

    #: Data-bus bursts: (start, end, is_write, core_id); bursts rebuilt
    #: from an offline trace carry no core: (start, end, is_write).
    bursts: Timeline = _timeline(BURST)
    #: Precharge windows: (start, end, flat_bank).
    pre_windows: Timeline = _timeline(BANK)
    #: Activate windows: (start, end, flat_bank).
    act_windows: Timeline = _timeline(BANK)
    #: CAS service windows (issue to data end): (start, end, flat_bank).
    cas_windows: Timeline = _timeline(BANK)
    #: Refresh windows: (start, end).
    refresh_windows: Timeline = _timeline(PAIR)
    #: Per-bank (same-bank, REFsb) refresh windows: (start, end,
    #: flat_bank). Only the ``same-bank`` refresh policy appends here;
    #: it stays empty (and out of the fingerprint) under all-bank
    #: refresh, keeping historic digests intact.
    bank_refresh_windows: Timeline = _timeline(BANK)
    #: Blocked-with-pending-work intervals:
    #: (start, end, BlockScope, bank_group, reason).
    blocked: Timeline = _timeline(BLOCKED)
    #: Forced write-drain windows: (start, end); shared with the
    #: write-drain policy.
    drain_windows: Timeline = _timeline(PAIR)
    #: Optional full command trace.
    commands: list[Command] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Requester owners (multi-requester QoS stacks).
    #
    # One small-int column per owned timeline, index-aligned with it:
    # entry i names the requester that caused window i. They stay out
    # of the fingerprint, so a run's digest does not depend on them.
    # Every run records them, single-requester runs included: the
    # per-requester stacks stay valid there, and at two bytes per entry
    # they cost little. Windows no requester caused (refresh-driven
    # precharges) carry -1, the shared row; so does every window of a
    # hand-built or offline log, whose owners the constructor pads.
    # ------------------------------------------------------------------
    #: Requester of bursts[i].
    burst_owners: array = _owners()
    #: Requester of cas_windows[i].
    cas_owners: array = _owners()
    #: Requester of pre_windows[i]; -1 for refresh-driven precharges.
    pre_owners: array = _owners()
    #: Requester of act_windows[i].
    act_owners: array = _owners()
    #: ``victim * 2 + is_interference`` of blocked[i]: the waiting
    #: requester, and whether the binding constraint was created by a
    #: *different* requester's command.
    blocked_owners: array = _owners()

    def __post_init__(self) -> None:
        for name, payload in LAYOUTS.items():
            entries = getattr(self, name)
            if not isinstance(entries, Timeline):
                entries = list(entries)
                if name == "bursts" and entries and len(entries[0]) == 3:
                    payload = BURST3
                setattr(self, name, Timeline(payload, entries))
        for name, (timeline, shared) in OWNERS.items():
            owners = getattr(self, name)
            if isinstance(owners, _DiscardList):
                continue
            if not isinstance(owners, array):
                owners = array("h", owners)
                setattr(self, name, owners)
            missing = len(getattr(self, timeline)) - len(owners)
            if missing > 0:
                owners.extend([shared] * missing)


#: Layout of every timeline field of :class:`EventLog`.
LAYOUTS = {
    "bursts": BURST,
    "pre_windows": BANK,
    "act_windows": BANK,
    "cas_windows": BANK,
    "refresh_windows": PAIR,
    "bank_refresh_windows": BANK,
    "blocked": BLOCKED,
    "drain_windows": PAIR,
}

#: Each owner column of :class:`EventLog`: the timeline it is aligned
#: with, and the shared row's entry (victim -1, no interference, for
#: blocked windows).
OWNERS = {
    "burst_owners": ("bursts", -1),
    "cas_owners": ("cas_windows", -1),
    "pre_owners": ("pre_windows", -1),
    "act_owners": ("act_windows", -1),
    "blocked_owners": ("blocked", -2),
}


class EventLogTap:
    """The default tap: materialize the full :class:`EventLog`."""

    name = "event-log"

    def __init__(self) -> None:
        self.log = EventLog()


class _DiscardList(list):
    """A list whose appends vanish; keeps the recording call shape."""

    def __init__(self, typecode: str = "") -> None:  # noqa: ARG002
        super().__init__()

    def append(self, item) -> None:  # noqa: ARG002 - deliberate no-op
        pass


class NullTap:
    """Record nothing: every timeline stays empty.

    The log object still exists (same field layout), so consumers that
    merely *read* the timelines see empty ones instead of crashing.
    Every column discards its appends, so the blocked-window merge,
    which reads the last entry only when there is one, degenerates to
    a no-op too.
    """

    name = "null"

    def __init__(self) -> None:
        self.log = EventLog(
            commands=_DiscardList(),
            **{
                name: Timeline(payload, column=_DiscardList)
                for name, payload in LAYOUTS.items()
            },
            **{name: _DiscardList() for name in OWNERS},
        )
