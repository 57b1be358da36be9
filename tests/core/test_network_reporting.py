"""Tests for network-level sweeps, report tables and figures."""

import pytest

from repro.cnn.scheduling import ReuseScheme
from repro.core.dse import explore_workload
from repro.core.figures import network_edp_chart
from repro.core.report import handoff_table, network_edp_table
from repro.core.sweep import sweep_network_batch
from repro.dram.architecture import DRAMArchitecture
from repro.workloads import handoff_summary, zoo


@pytest.fixture(scope="module")
def tiny_summary():
    _, _, summary = explore_workload(
        "tiny", architectures=(DRAMArchitecture.DDR3,),
        schemes=(ReuseScheme.ADAPTIVE_REUSE,))
    return summary


class TestSweepNetworkBatch:
    def test_by_registered_name(self):
        points = sweep_network_batch("tiny", batches=(1, 2))
        assert [p.value for p in points] == [1, 2]
        assert all(p.parameter == "tiny:batch" for p in points)
        # Doubling the batch cannot shrink the network EDP.
        assert points[1].drmap_edp_js > points[0].drmap_edp_js
        # The worst mapping stays worse (or equal) at every point.
        assert all(p.worst_edp_js >= p.drmap_edp_js for p in points)

    def test_by_builder_callable(self):
        points = sweep_network_batch(zoo.tiny, batches=(2,))
        assert points[0].value == 2
        named = sweep_network_batch("tiny", batches=(2,))
        assert points[0].drmap_edp_js == named[0].drmap_edp_js


class TestReportTables:
    def test_network_edp_table_rows(self, tiny_summary):
        text = network_edp_table(tiny_summary)
        assert "TINY_CONV" in text
        assert "TINY_FC" in text
        assert "NETWORK" in text
        assert "topological aggregation" in text

    def test_handoff_table_contents(self, tiny_summary):
        text = handoff_table(tiny_summary.handoffs)
        assert "TINY_CONV" in text       # producer column
        assert "residency" in text
        assert "hand-off DRAM traffic" in text

    def test_handoff_table_flags_skip_edges(self):
        text = handoff_table(handoff_summary(zoo.resnet18()))
        assert "skip" in text


class TestNetworkFigure:
    def test_chart_has_one_bar_per_op_plus_total(self, tiny_summary):
        chart = network_edp_chart(tiny_summary)
        lines = chart.splitlines()
        assert lines[0].startswith("min-EDP per op of tiny")
        assert len(lines) == 1 + len(tiny_summary.per_op) + 1
        assert any(line.startswith("NETWORK") for line in lines)
