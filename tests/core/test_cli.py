"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main, paper_designs, resolve_config
from repro.flow import dpr_flow


class TestResolve:
    def test_known_design(self):
        assert resolve_config("soc_2").name == "soc_2"

    def test_esp_config_file(self, tmp_path):
        path = tmp_path / "x.esp_config"
        path.write_text(
            "[soc]\nname = filecfg\nboard = vc707\nrows = 2\ncols = 2\n\n"
            "[tile cpu0]\ntype = cpu\n\n[tile mem0]\ntype = mem\n\n"
            "[tile aux0]\ntype = aux\n\n[tile rt0]\ntype = reconf\nmodes = mac\n"
        )
        assert resolve_config(str(path)).name == "filecfg"

    def test_unknown_spec(self):
        from repro.errors import PrEspError

        with pytest.raises(PrEspError):
            resolve_config("not_a_design")

    def test_all_eleven_designs_present(self):
        assert len(paper_designs()) == 11


class TestCommands:
    def test_designs(self, capsys):
        assert main(["designs"]) == 0
        out = capsys.readouterr().out
        for name in ("soc_1", "soc_d", "soc_z"):
            assert name in out

    def test_build(self, capsys):
        assert main(["build", "soc_3"]) == 0
        out = capsys.readouterr().out
        assert "PR-ESP flow report: soc_3" in out
        assert "semi-parallel" in out

    def test_build_with_strategy_override(self, capsys):
        assert main(["build", "soc_3", "--strategy", "serial"]) == 0
        out = capsys.readouterr().out
        assert "strategy: serial" in out

    def test_build_with_baseline(self, capsys):
        assert main(["build", "soc_3", "--baseline"]) == 0
        assert "monolithic" in capsys.readouterr().out

    def test_compare(self, capsys):
        assert main(["compare", "soc_d"]) == 0
        out = capsys.readouterr().out
        assert "improvement" in out

    def test_deploy(self, capsys):
        assert main(["deploy", "soc_z", "--frames", "2"]) == 0
        out = capsys.readouterr().out
        assert "frame latency" in out
        assert "reconfigs" in out

    def test_profile_by_name(self, capsys):
        assert main(["profile", "hessian"]) == 0
        assert "38000" in capsys.readouterr().out

    def test_profile_by_index(self, capsys):
        assert main(["profile", "8"]) == 0
        assert "hessian" in capsys.readouterr().out

    def test_profile_unknown(self, capsys):
        assert main(["profile", "quantum"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_model(self, capsys):
        assert main(["model"]) == 0
        out = capsys.readouterr().out
        assert "serial_dpr_par" in out
        assert "reconfigurable-LUT weight" in out

    def test_unknown_design_is_an_error(self, capsys):
        assert main(["build", "soc_zz"]) == 1
        assert "error:" in capsys.readouterr().err


class TestCheckCommand:
    def test_check_clean_design(self, capsys):
        assert main(["check", "soc_x"]) == 0
        assert "no advisory findings" in capsys.readouterr().out

    def test_check_dense_design(self, capsys):
        assert main(["check", "soc_4"]) == 0
        out = capsys.readouterr().out
        assert "reconf-density" in out
        assert "memory-bottleneck" in out

    def test_build_json(self, capsys):
        import json

        assert main(["build", "soc_3", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["soc"] == "soc_3"
        assert data["strategy"] == "semi-parallel"


class TestObservabilityFlags:
    def test_deploy_json_carries_runtime_and_metrics(self, capsys):
        import json

        assert main(["deploy", "soc_z", "--frames", "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["soc"] == "soc_z"
        assert data["reconfigurations"] > 0
        assert data["runtime"]["total_invocations"] > 0
        assert any(key.startswith("runtime.") for key in data["metrics"])

    def test_deploy_trace_writes_chrome_file(self, capsys, tmp_path):
        import json

        path = tmp_path / "run.json"
        assert main(["deploy", "soc_z", "--frames", "1", "--trace", str(path)]) == 0
        doc = json.loads(path.read_text())
        categories = {
            e["cat"] for e in doc["traceEvents"] if e["ph"] == "X"
        }
        assert "kernel.icap" in categories
        assert "app.exec" in categories

    def test_deploy_metrics_prints_snapshot(self, capsys):
        assert main(["deploy", "soc_z", "--frames", "1", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "runtime.invocations" in out
        assert "noc.bytes" in out

    def test_build_trace_writes_flow_file(self, capsys, tmp_path):
        import json

        path = tmp_path / "flow.json"
        assert main(["build", "soc_3", "--trace", str(path)]) == 0
        doc = json.loads(path.read_text())
        categories = {
            e["cat"] for e in doc["traceEvents"] if e["ph"] == "X"
        }
        assert {"flow.build", "flow.stage", "flow.job"} <= categories

    def test_verbosity_flags_accepted(self, capsys):
        assert main(["-v", "designs"]) == 0
        capsys.readouterr()
        assert main(["--log-level", "debug", "designs"]) == 0


class TestSweep:
    def test_sweep_table(self, capsys):
        assert main(["sweep", "soc_a", "--strategies", "all"]) == 0
        out = capsys.readouterr().out
        for label in (
            "soc_a/auto",
            "soc_a/serial",
            "soc_a/semi-parallel",
            "soc_a/fully-parallel",
        ):
            assert label in out

    def test_sweep_json(self, capsys):
        import json

        assert main(["sweep", "soc_a", "soc_b", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema_version"] == 1
        assert document["kind"] == "sweep"
        rows = document["outcomes"]
        assert [row["request"] for row in rows] == ["soc_a/auto", "soc_b/auto"]
        assert all(row["ok"] for row in rows)
        assert all("summary" in row for row in rows)

    def test_sweep_strategy_list(self, capsys):
        assert main(["sweep", "soc_b", "--strategies", "serial,fully-parallel"]) == 0
        out = capsys.readouterr().out
        assert "soc_b/serial" in out
        assert "soc_b/auto" not in out

    def test_sweep_cache_round_trip(self, capsys, tmp_path):
        args = ["sweep", "soc_a", "--cache", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "built" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "cached" in second
        assert "1 hits" in second

    def test_sweep_unknown_design_fails(self, capsys):
        assert main(["sweep", "nope"]) == 1
        assert "error" in capsys.readouterr().err

    def test_build_cache_flag(self, capsys, tmp_path):
        args = ["build", "soc_3", "--cache", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        assert "flow cache" not in capsys.readouterr().out
        assert main(args) == 0
        assert "served from the flow cache" in capsys.readouterr().out

    def test_sweep_unknown_strategy_fails_cleanly(self, capsys):
        assert main(["sweep", "soc_a", "--strategies", "bogus"]) == 1
        assert "unknown strategy" in capsys.readouterr().err

    @pytest.mark.parametrize("strategies", ["", ","])
    def test_sweep_empty_strategy_list_fails_cleanly(self, capsys, strategies):
        assert main(["sweep", "soc_1", "--strategies", strategies]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


class TestFaultFlags:
    def test_degraded_build_exits_zero(self, capsys):
        assert main(
            ["build", "soc_3", "--inject", "cad:synthesis:synth_rt_sort:3"]
        ) == 0
        out = capsys.readouterr().out
        assert "DEGRADED: dark tiles rt_sort" in out
        assert "rt_sort_blank.pbs" in out

    def test_fault_rate_retries_show_in_json(self, capsys):
        assert main(
            ["build", "soc_3", "--fault", "cad=0.5@0", "--json"]
        ) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["fault_tolerance"]["retries"] > 0

    def test_bad_injection_spec_fails_cleanly(self, capsys):
        assert main(["build", "soc_3", "--inject", "cad:nocolon"]) == 1
        assert "--inject" in capsys.readouterr().err

    def test_fault_rate_out_of_range_fails_cleanly(self, capsys):
        assert main(["build", "soc_3", "--fault", "cad=1.5"]) == 1
        assert "--fault" in capsys.readouterr().err

    def test_foreign_fault_tier_fails_cleanly(self, capsys):
        assert main(["build", "soc_3", "--fault", "runtime=0.1"]) == 1
        assert "runs the cad fault tier" in capsys.readouterr().err
        assert main(["build", "soc_3", "--inject", "service:crash"]) == 1
        assert "runs the cad fault tier" in capsys.readouterr().err

    def test_resume_without_checkpoint_dir_fails_cleanly(self, capsys):
        assert main(["build", "soc_3", "--resume"]) == 1
        assert "checkpoint" in capsys.readouterr().err


class TestCheckpointFlags:
    def test_checkpoint_then_resume_matches(self, capsys, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        assert main(["build", "soc_3", "--checkpoint-dir", ckpt, "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(
            ["build", "soc_3", "--checkpoint-dir", ckpt, "--resume", "--json"]
        ) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed == first

    def test_resume_reports_restored_stages(self, capsys, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        assert main(["build", "soc_3", "--checkpoint-dir", ckpt]) == 0
        capsys.readouterr()
        assert main(["build", "soc_3", "--checkpoint-dir", ckpt, "--resume"]) == 0
        assert "resumed 7 checkpointed stage(s)" in capsys.readouterr().out

    def test_killed_build_resumes_to_the_uninterrupted_summary(
        self, capsys, tmp_path, monkeypatch
    ):
        faults = ["--fault", "cad=0.3@7"]
        assert main(["build", "soc_3", *faults, "--json"]) == 0
        baseline = json.loads(capsys.readouterr().out)

        def killed(build):
            raise KeyboardInterrupt("killed mid-flow")

        monkeypatch.setattr(
            dpr_flow,
            "STAGES",
            tuple(
                (name, killed if name == "implementation" else stage)
                for name, stage in dpr_flow.STAGES
            ),
        )
        ckpt = str(tmp_path / "ckpt")
        with pytest.raises(KeyboardInterrupt):
            main(["build", "soc_3", *faults, "--checkpoint-dir", ckpt])
        monkeypatch.undo()
        capsys.readouterr()
        assert main(
            ["build", "soc_3", *faults, "--checkpoint-dir", ckpt, "--resume", "--json"]
        ) == 0
        assert json.loads(capsys.readouterr().out) == baseline
