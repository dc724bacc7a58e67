"""Checkpoint/resume for co-simulated runs.

A checkpoint is the complete, self-contained state of a
:class:`~repro.cpu.system.CpuSystem` mid-run: cores (including trace
position), caches, memory controller, event log and accounting state.
Because the simulator is deterministic, resuming a checkpoint and
running to completion produces *bit-identical* stacks to an
uninterrupted run — the checkpoint is taken between main-loop
iterations, where the loop carries no hidden state.

File format (version 4)::

    8 bytes   magic  b"REPROCKP"
    2 bytes   format version, big-endian
    rest      pickle payload: {"meta": {...}, "system": CpuSystem}

The version covers the pickled state schema, not just the framing:
v2 systems carry the device-library fields (composite multi-channel
memory, ``_composite``), so v1 payloads would restore into objects
missing attributes and must be rejected up front. v3 event logs hold
columnar timelines and owner columns
(:class:`~repro.dram.components.accounting.Timeline`); a v2 payload's
tuple lists would restore into a log the packed loop cannot append to.
v4 controllers record their completed requests as typed columns
(:class:`~repro.dram.components.accounting.CompletedRequests`); a v3
payload's list of request objects has no columns to append to.

``meta`` records the cycle, next request id and package version; the
request-id sequence is restored on load so requests created after a
resume in a fresh process never age-invert against restored ones.
"""

from __future__ import annotations

import io
import os
import pickle

from repro.dram.commands import request_id_state, restore_request_id_state
from repro.errors import CheckpointError

CHECKPOINT_MAGIC = b"REPROCKP"
CHECKPOINT_VERSION = 4


class ReplayableTrace:
    """A picklable, position-tracking instruction trace.

    Workload traces are usually generators, which cannot be serialized.
    When checkpointing is enabled the system wraps each trace in one of
    these: the items are materialized once, and the iterator state is a
    plain index, so a checkpoint resumes the trace exactly where the
    core left off.
    """

    def __init__(self, items) -> None:
        self._items = list(items)
        self._pos = 0

    def __iter__(self) -> "ReplayableTrace":
        return self

    def __next__(self):
        if self._pos >= len(self._items):
            raise StopIteration
        item = self._items[self._pos]
        self._pos += 1
        return item

    def __len__(self) -> int:
        return len(self._items)

    @property
    def position(self) -> int:
        """Items already consumed."""
        return self._pos


#: File name pattern for managed checkpoints.
_FILE_PREFIX = "ckpt_"
_FILE_SUFFIX = ".repro"


def save_checkpoint(system, path: str, meta: dict | None = None) -> dict:
    """Serialize `system` to `path`; returns the written metadata.

    The system's reliability guard (wall-clock deadlines, file handles to
    the checkpoint directory itself) is excluded from the payload; a
    fresh guard is attached on resume.
    """
    header = {
        "cycle": system.memory.now,
        "next_request_id": request_id_state(),
        "version": CHECKPOINT_VERSION,
    }
    if meta:
        header.update(meta)
    guard = getattr(system, "_guard", None)
    system._guard = None
    try:
        payload = pickle.dumps(
            {"meta": header, "system": system},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    except Exception as error:
        raise CheckpointError(
            f"cannot serialize system state: {error}"
        ) from error
    finally:
        system._guard = guard
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "wb") as handle:
        handle.write(CHECKPOINT_MAGIC)
        handle.write(CHECKPOINT_VERSION.to_bytes(2, "big"))
        handle.write(payload)
    os.replace(tmp_path, path)  # atomic: never leaves a torn checkpoint
    return header


def load_checkpoint(path: str):
    """Load a checkpoint; returns the restored system.

    Restores the global request-id sequence recorded at save time.
    Raises :class:`~repro.errors.CheckpointError` for missing files, bad
    magic, unknown versions and corrupt payloads.
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as error:
        raise CheckpointError(f"cannot read checkpoint: {error}") from error
    if len(blob) < len(CHECKPOINT_MAGIC) + 2:
        raise CheckpointError(f"checkpoint {path!r} is truncated")
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path!r} is not a repro checkpoint")
    version = int.from_bytes(
        blob[len(CHECKPOINT_MAGIC): len(CHECKPOINT_MAGIC) + 2], "big"
    )
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint format v{version} is not supported "
            f"(this build reads v{CHECKPOINT_VERSION})"
        )
    try:
        record = pickle.loads(blob[len(CHECKPOINT_MAGIC) + 2:])
        system = record["system"]
        meta = record["meta"]
    except Exception as error:
        raise CheckpointError(
            f"corrupt checkpoint payload in {path!r}: {error}"
        ) from error
    restore_request_id_state(meta.get("next_request_id", 0))
    return system


def latest_checkpoint(directory: str) -> str | None:
    """Path of the newest managed checkpoint in `directory`, if any."""
    try:
        names = os.listdir(directory)
    except OSError:
        return None
    best_cycle = -1
    best = None
    for name in names:
        if not (name.startswith(_FILE_PREFIX) and name.endswith(_FILE_SUFFIX)):
            continue
        stem = name[len(_FILE_PREFIX): -len(_FILE_SUFFIX)]
        try:
            cycle = int(stem)
        except ValueError:
            continue
        if cycle > best_cycle:
            best_cycle = cycle
            best = os.path.join(directory, name)
    return best


class CheckpointManager:
    """Periodic checkpointing driven by simulated time.

    Args:
        directory: where checkpoints are written (created on demand).
        interval_cycles: simulated cycles between checkpoints.
        keep: newest checkpoints retained; older ones are deleted.
    """

    def __init__(
        self,
        directory: str,
        interval_cycles: int = 1_000_000,
        keep: int = 2,
    ) -> None:
        if interval_cycles < 1:
            raise CheckpointError("checkpoint interval must be >= 1 cycle")
        if keep < 1:
            raise CheckpointError("must keep at least one checkpoint")
        self.directory = directory
        self.interval_cycles = interval_cycles
        self.keep = keep
        self.checkpoints_written = 0
        self._last_cycle = 0
        self._written: list[str] = []

    def path_for(self, cycle: int) -> str:
        """Managed file path for a checkpoint taken at `cycle`."""
        return os.path.join(
            self.directory, f"{_FILE_PREFIX}{cycle}{_FILE_SUFFIX}"
        )

    def maybe_checkpoint(self, system) -> str | None:
        """Write a checkpoint when the interval has elapsed.

        Returns the path written, or None when it is not yet time.
        """
        cycle = system.memory.now
        if cycle - self._last_cycle < self.interval_cycles:
            return None
        return self.checkpoint(system)

    def checkpoint(self, system) -> str:
        """Write a checkpoint now and rotate old ones."""
        cycle = system.memory.now
        os.makedirs(self.directory, exist_ok=True)
        path = self.path_for(cycle)
        save_checkpoint(system, path)
        self._last_cycle = cycle
        self.checkpoints_written += 1
        if path not in self._written:
            self._written.append(path)
        while len(self._written) > self.keep:
            stale = self._written.pop(0)
            try:
                os.remove(stale)
            except OSError:
                pass
        return path

    @property
    def latest(self) -> str | None:
        """Newest checkpoint this manager wrote (still on disk)."""
        return self._written[-1] if self._written else None
