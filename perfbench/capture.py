"""Capture of the controller's engine-selection log records.

The memory controller logs one INFO record on the
``repro.dram.controller`` logger when a configured packed engine falls
back to the object engine (or is ejected). The benchmark keeps those
records to report each run's effective engine; they are not printed.
"""

from __future__ import annotations

import logging

CONTROLLER_LOGGER = "repro.dram.controller"


class EngineLog(logging.Handler):
    """Collects the controller's log messages in :attr:`records`."""

    def __init__(self) -> None:
        super().__init__(logging.INFO)
        self.records: list[str] = []
        logger = logging.getLogger(CONTROLLER_LOGGER)
        logger.setLevel(logging.INFO)
        logger.propagate = False
        logger.addHandler(self)

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record.getMessage())


def effective_engines(configured: str, channels: int,
                      fallback: list[str]) -> list[str]:
    """Per-channel engine that actually ran: every fallback record
    stands for one channel that left the configured engine."""
    left = min(len(fallback), channels)
    return ["fast"] * left + [configured] * (channels - left)
