"""Tests for application-level NoC traffic analysis."""

import pytest

from repro.errors import NocError
from repro.noc.mesh import Mesh
from tests.noc.reference import (
    TransferDemand,
    analyze_traffic,
    wami_traffic_report,
    wami_transfer_demands,
)


class TestTransferDemand:
    def test_negative_payload_rejected(self):
        with pytest.raises(NocError):
            TransferDemand("a", "b", -1)


class TestAnalyze:
    def test_transfer_staged_through_memory(self, small_soc):
        demands = [TransferDemand("p", "c", 1000)]
        positions = {"p": (1, 1), "c": (1, 1)}  # both on rt0
        report = analyze_traffic(small_soc, demands, positions)
        # Even same-tile transfers round-trip through DDR.
        assert report.ddr_bytes == 2000
        assert report.total_bytes == 2000

    def test_link_accumulation(self, small_soc):
        demands = [TransferDemand("p", "c", 1000)] * 3
        positions = {"p": (1, 1), "c": (0, 0)}
        report = analyze_traffic(small_soc, demands, positions)
        assert report.max_link_bytes() == 3000

    def test_software_task_maps_to_cpu(self, small_soc):
        demands = [TransferDemand("hw", "sw", 500)]
        positions = {"hw": (1, 1), "sw": None}
        report = analyze_traffic(small_soc, demands, positions)
        assert report.total_bytes == 1000

    def test_hottest_links_sorted(self, small_soc):
        demands = [
            TransferDemand("a", "b", 5000),
            TransferDemand("b", "a", 100),
        ]
        positions = {"a": (1, 1), "b": (0, 0)}
        report = analyze_traffic(small_soc, demands, positions)
        hottest = report.hottest_links(3)
        values = [v for _link, v in hottest]
        assert values == sorted(values, reverse=True)

    def test_utilization(self, small_soc):
        demands = [TransferDemand("p", "c", 10_000)]
        positions = {"p": (1, 1), "c": (0, 0)}
        report = analyze_traffic(small_soc, demands, positions)
        mesh = Mesh(small_soc.rows, small_soc.cols, clock_hz=78e6)
        utilization = report.utilization_at(frame_time_s=0.1, mesh=mesh)
        assert 0.0 < utilization < 1.0

    def test_utilization_rejects_bad_time(self, small_soc):
        report = analyze_traffic(small_soc, [], {})
        mesh = Mesh(small_soc.rows, small_soc.cols)
        with pytest.raises(NocError):
            report.utilization_at(0.0, mesh)


class TestWamiTraffic:
    def test_demands_cover_all_edges(self):
        from repro.wami.graph import WAMI_EDGES

        assert len(wami_transfer_demands()) == len(WAMI_EDGES)

    def test_image_edges_dominate(self):
        demands = {
            (d.producer_task, d.consumer_task): d.payload_bytes
            for d in wami_transfer_demands()
        }
        assert demands[("hessian", "matrix_solve")] < 1024
        assert demands[("debayer", "grayscale")] >= 512 * 512 * 4

    def test_reports_for_deployment_socs(self):
        from repro.core.designs import wami_deployment_socs

        reports = {
            name: wami_traffic_report(cfg, frame_pixels=64 * 64)
            for name, cfg in wami_deployment_socs().items()
        }
        for report in reports.values():
            assert report.total_bytes > 0
            assert report.max_link_bytes() > 0
        # Total DDR traffic is allocation-independent (every edge
        # round-trips through memory regardless of placement).
        totals = {r.total_bytes for r in reports.values()}
        assert len(totals) == 1

    def test_placement_changes_link_distribution(self):
        from repro.core.designs import wami_soc_x, wami_soc_z

        x_report = wami_traffic_report(wami_soc_x(), frame_pixels=64 * 64)
        z_report = wami_traffic_report(wami_soc_z(), frame_pixels=64 * 64)
        assert x_report.link_bytes != z_report.link_bytes
