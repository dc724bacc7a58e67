"""System-level conservation of the per-requester stacks.

The controller-level properties (tests/dram/test_qos_properties.py)
prove exact conservation on raw event logs; these tests pin the same
invariants on full :class:`~repro.cpu.system.SimulationResult` runs —
caches, prefetchers and write-backs included — through the public
``per_requester_*`` accessors the figure and service layers use.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentScale
from repro.experiments.runner import run_qos, run_synthetic
from repro.stacks.bandwidth import BandwidthStackAccountant
from repro.stacks.requester import SHARED_REQUESTER, fold_interference

TINY = ExperimentScale(
    "qos-tiny", synthetic_accesses=150, graph_scale=8, graph_degree=4
)


@pytest.fixture(scope="module")
def qos_result():
    return run_qos(scheduling="wrr", scale=TINY, guard=False)


class TestSystemConservation:
    def test_requester_cycles_fold_to_aggregate(self, qos_result):
        """Sum over requesters of (own + interference) == channel stack,
        exact integers."""
        rows = qos_result.per_requester_bandwidth_cycles()
        aggregate = BandwidthStackAccountant(
            qos_result.spec
        ).account_cycles(
            qos_result.memory.log, qos_result.total_cycles
        )[0]
        assert fold_interference(rows) == aggregate
        n = qos_result.spec.organization.total_banks
        total = sum(sum(row.values()) for row in rows.values())
        assert total == n * qos_result.total_cycles

    def test_stacks_sum_to_peak_bandwidth(self, qos_result):
        stacks = qos_result.per_requester_bandwidth_stacks()
        assert set(stacks) == {SHARED_REQUESTER, 0, 1}
        total = sum(stack.total for stack in stacks.values())
        assert total == pytest.approx(qos_result.spec.peak_bandwidth_gbps)

    def test_latency_weighted_mean_matches_aggregate(self, qos_result):
        """Per-requester averages recombine to the aggregate average,
        component by component: interference only re-labels queue
        cycles, and every other component is the aggregate's."""
        per_requester = qos_result.per_requester_latency_stacks()
        counts = {}
        for request in qos_result.memory.completed_requests:
            if (
                request.is_read and not request.forwarded
                and request.cas_issue >= 0
            ):
                counts[request.requester_id] = (
                    counts.get(request.requester_id, 0) + 1
                )
        assert set(per_requester) == set(counts)
        reads = sum(counts.values())
        aggregate = qos_result.latency_stack()
        for name, value in aggregate:
            parts = ("queue", "interference") if name == "queue" else (name,)
            weighted = sum(
                per_requester[r][part] * counts[r]
                for r in counts for part in parts
            )
            assert weighted / reads == pytest.approx(value), name

    def test_labels_name_the_requesters(self, qos_result):
        bandwidth = qos_result.per_requester_bandwidth_stacks("qos ")
        assert bandwidth[0].label == "qos R0"
        assert bandwidth[SHARED_REQUESTER].label == "qos shared"
        latency = qos_result.per_requester_latency_stacks("qos ")
        assert latency[1].label == "qos R1"


class TestSameBankRefreshConservation(TestSystemConservation):
    """The same invariants on same-bank-refresh devices: their per-bank
    refresh windows must land in the shared row, and latency must
    account the merged windows."""

    @pytest.fixture(
        scope="class", params=("lpddr5-6400", "ddr5-4800:subchannels=1")
    )
    def qos_result(self, request):
        result = run_synthetic(
            "random", cores=2, store_fraction=0.2, requesters=2,
            scheduling="wrr", device=request.param, scale=TINY, guard=False,
        )
        # Without per-bank refresh windows the class would test nothing new.
        assert len(result.memory.log.bank_refresh_windows) > 0
        return result


class TestSingleRequesterDegeneracy:
    def test_synthetic_run_has_no_interference(self):
        result = run_synthetic(
            "random", cores=2, scale=TINY, guard=False, scheduling="wrr"
        )
        rows = result.per_requester_bandwidth_cycles()
        assert set(rows) == {SHARED_REQUESTER, 0}
        assert all(row.get("interference", 0) == 0 for row in rows.values())
        latency = result.per_requester_latency_stacks()
        assert latency[0]["interference"] == 0.0
