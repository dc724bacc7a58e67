"""Ablation: write-queue capacity sweep (generalizes Fig. 8's wq128).

Larger write buffers drain less often; the writeburst latency component
shrinks monotonically-ish with capacity on a read/write-mixed stream.
"""

from repro.dram import ControllerConfig, MemoryController, Request, RequestType
from repro.dram.timing import DDR4_2400
from repro.dram.wqueue import WriteQueueConfig
from repro.stacks.latency import latency_stack_from_requests

SPEC = DDR4_2400
CAPACITIES = (8, 32, 128)


def run_capacity(capacity: int):
    mc = MemoryController(ControllerConfig(
        refresh_enabled=False,
        write_queue=WriteQueueConfig(capacity=capacity),
    ))
    # Reads with a steady write stream to a conflicting region.
    for i in range(1200):
        mc.enqueue(Request(RequestType.READ, i * 64, arrival=i * 7))
        if i % 2 == 0:
            mc.enqueue(Request(
                RequestType.WRITE, (1 << 26) + (i % 128) * 8192,
                arrival=i * 7,
            ))
    mc.drain()
    mc.finalize()
    lat = latency_stack_from_requests(mc.completed_requests, mc.log, SPEC)
    return mc, lat


def test_write_queue_sweep(run_once):
    results = {}
    results[CAPACITIES[0]] = run_once(run_capacity, CAPACITIES[0])
    for capacity in CAPACITIES[1:]:
        results[capacity] = run_capacity(capacity)

    drains = {c: mc._write_buffer.stats_forced_drains
              for c, (mc, __) in results.items()}
    bursts = {c: lat["writeburst"] for c, (__, lat) in results.items()}

    # Small queues drain constantly; big queues rarely.
    assert drains[8] > drains[128]
    # The writeburst latency component shrinks with capacity.
    assert bursts[8] >= bursts[32] >= bursts[128]
    assert bursts[8] > 0
