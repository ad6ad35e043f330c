"""Every CLI ``--json`` payload round-trips its committed contract.

One test per verb: run the real ``main()``, parse stdout, check the
envelope, validate against ``tests/service/data/cli_*.schema.json``.
A shape change that would break a ``repro ... --json | jq`` consumer
fails here, not in a user's pipeline.
"""

import json

import pytest

from repro.cli import main, parse_quotas
from repro.errors import PrEspError
from repro.service.queue import TenantQuota
from repro.service.schema import check_envelope

from tests.service.contracts import assert_valid, contract, job_contract


def run_json(capsys, argv, expect_code=0):
    assert main(argv) == expect_code
    return json.loads(capsys.readouterr().out)


class TestCliPayloads:
    def test_build(self, capsys):
        document = run_json(capsys, ["build", "soc_2", "--json"])
        check_envelope(document, kind="build")
        assert_valid(document, contract("cli_build"), "build --json")
        assert document["soc"] == "soc_2"

    def test_sweep(self, capsys):
        document = run_json(
            capsys, ["sweep", "soc_2", "soc_3", "--strategies", "auto", "--json"]
        )
        check_envelope(document, kind="sweep")
        assert_valid(document, contract("cli_sweep"), "sweep --json")
        assert len(document["outcomes"]) == 2
        assert all(row["ok"] for row in document["outcomes"])

    def test_deploy(self, capsys):
        document = run_json(capsys, ["deploy", "soc_z", "--frames", "1", "--json"])
        check_envelope(document, kind="deploy")
        assert_valid(document, contract("cli_deploy"), "deploy --json")

    def test_monitor(self, capsys):
        document = run_json(
            capsys, ["monitor", "soc_z", "--frames", "1", "--json"]
        )
        check_envelope(document, kind="monitor")
        assert_valid(document, contract("cli_monitor"), "monitor --json")

    def test_dashboard(self, capsys):
        document = run_json(
            capsys, ["dashboard", "soc_z", "--frames", "1", "--json"]
        )
        check_envelope(document, kind="dashboard")
        assert_valid(document, contract("cli_dashboard"), "dashboard --json")

    def test_bench_diff(self, tmp_path, capsys):
        from repro.obs.baseline import write_summary

        results = tmp_path / "results"
        baselines = tmp_path / "baselines"
        write_summary(results, "demo", {"total_min": 100.0})
        args = [
            "bench-diff",
            "--results-dir", str(results),
            "--baselines-dir", str(baselines),
        ]
        assert main(args + ["--update"]) == 0
        capsys.readouterr()
        document = run_json(capsys, args + ["--json"])
        check_envelope(document, kind="bench_diff")
        assert_valid(document, contract("cli_bench_diff"), "bench-diff --json")
        assert document["ok"] is True

    def test_bench_diff_regression_payload(self, tmp_path, capsys):
        from repro.obs.baseline import write_summary

        results = tmp_path / "results"
        baselines = tmp_path / "baselines"
        write_summary(results, "demo", {"total_min": 100.0})
        args = [
            "bench-diff",
            "--results-dir", str(results),
            "--baselines-dir", str(baselines),
        ]
        assert main(args + ["--update"]) == 0
        capsys.readouterr()
        write_summary(results, "demo", {"total_min": 125.0})
        document = run_json(capsys, args + ["--json"], expect_code=1)
        assert_valid(document, contract("cli_bench_diff"), "bench-diff --json")
        assert document["ok"] is False
        statuses = [
            delta["status"]
            for experiment in document["experiments"]
            for delta in experiment["deltas"]
        ]
        assert "regression" in statuses


class TestJobsCliPayloads:
    """``repro jobs ... --json`` prints the API envelope verbatim."""

    def test_submit_and_status(self, idle_server, capsys):
        port = str(idle_server.server_address[1])
        document = run_json(
            capsys,
            ["jobs", "--port", port, "--json", "submit", "soc_2",
             "--tenant", "acme", "--priority", "2"],
        )
        check_envelope(document, kind="job")
        assert_valid(document, job_contract(), "jobs submit --json")
        status = run_json(
            capsys,
            ["jobs", "--port", port, "--json", "status", document["job_id"]],
        )
        assert_valid(status, job_contract(), "jobs status --json")

    def test_list(self, idle_server, capsys):
        port = str(idle_server.server_address[1])
        run_json(capsys, ["jobs", "--port", port, "--json", "submit", "soc_2"])
        document = run_json(capsys, ["jobs", "--port", port, "--json", "list"])
        check_envelope(document, kind="jobs")
        for record in document["jobs"]:
            assert_valid(record, contract("record"), "listed record")
        assert_valid(document["queue"], contract("queue"), "queue snapshot")

    def test_cancel_then_result(self, idle_server, capsys):
        port = str(idle_server.server_address[1])
        submitted = run_json(
            capsys, ["jobs", "--port", port, "--json", "submit", "soc_2"]
        )
        cancelled = run_json(
            capsys,
            ["jobs", "--port", port, "--json", "cancel", submitted["job_id"]],
        )
        assert cancelled["state"] == "cancelled"
        # result exits 1 for anything but success, with a valid payload.
        document = run_json(
            capsys,
            ["jobs", "--port", port, "--json", "result", submitted["job_id"],
             "--no-wait"],
            expect_code=1,
        )
        check_envelope(document, kind="result")
        assert_valid(document, contract("result"), "jobs result --json")

    def test_unreachable_daemon_is_a_cli_error(self, capsys):
        assert main(["jobs", "--port", "1", "--timeout", "0.5", "list"]) == 1
        assert "cannot reach" in capsys.readouterr().err


class TestServeCli:
    def test_parse_quotas(self):
        quotas = parse_quotas(["acme=4:8", "birch=2", "cedar=:6"])
        assert quotas["acme"] == TenantQuota(max_queued=4, max_active=8)
        assert quotas["birch"] == TenantQuota(max_queued=2, max_active=None)
        assert quotas["cedar"] == TenantQuota(max_queued=None, max_active=6)

    @pytest.mark.parametrize("spec", ["acme", "=4", "acme=a", "acme=1:2:3"])
    def test_parse_quotas_rejects_bad_specs(self, spec):
        with pytest.raises(PrEspError, match="quota"):
            parse_quotas([spec])
