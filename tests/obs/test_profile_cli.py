"""CLI: ``repro profile <workload>`` and ``repro profile-diff``.

The acceptance path of the profiling layer end to end: the smoke
workload produces a reconciled profile with the DES dispatch loop
among the hot paths, baselines seed and gate, and an injected
synthetic hotspot (a sleep in the NoC transfer model) trips the gate
with a nonzero exit.
"""

import json
import time

import pytest

from repro.cli import main
from repro.runtime.prc import PrcDevice
from repro.obs.profiler import load_profile, self_host_total, self_time_shares


def run_profile(tmp_path, capsys, extra=()):
    code = main(["profile", "fig4_smoke", "--out", str(tmp_path), *extra])
    out = capsys.readouterr().out
    return code, out


class TestProfileCommand:
    def test_smoke_workload_writes_reconciled_profile(self, tmp_path, capsys):
        code, out = run_profile(tmp_path, capsys)
        assert code == 0
        json_path = tmp_path / "PROFILE_fig4_smoke.json"
        collapsed = tmp_path / "fig4_smoke.collapsed"
        assert json_path.is_file() and collapsed.is_file()
        document = load_profile(json_path)
        assert document["experiment"] == "fig4_smoke"
        total = document["total_host_s"]
        assert total > 0
        # Acceptance: self times within 1% of the root inclusive time
        # (by construction they are exactly equal).
        assert abs(self_host_total(document) - total) / total < 0.01
        assert "reconciliation" in out
        # Collapsed lines cover the same tree.
        lines = collapsed.read_text().splitlines()
        assert lines and all(" " in line for line in lines)

    def test_des_dispatch_is_among_the_hot_paths(self, tmp_path, capsys):
        code, _ = run_profile(tmp_path, capsys)
        assert code == 0
        document = load_profile(tmp_path / "PROFILE_fig4_smoke.json")
        shares = self_time_shares(document)
        top = [
            path
            for path, _ in sorted(shares.items(), key=lambda kv: -kv[1])[:10]
        ]
        assert any("dispatch:" in path for path in top)

    def test_json_flag_prints_the_document(self, tmp_path, capsys):
        code, out = run_profile(tmp_path, capsys, extra=["--json"])
        assert code == 0
        document = json.loads(out)
        assert document["experiment"] == "fig4_smoke"
        assert document["tree"]["name"] == "root"

    def test_unknown_target_fails_with_guidance(self, tmp_path, capsys):
        code = main(["profile", "nonesuch"])
        assert code == 1
        err = capsys.readouterr().err
        assert "fig4_smoke" in err and "fig4_wami_runtime" in err

    def test_legacy_stage_target_still_works(self, capsys):
        assert main(["profile", "debayer"]) == 0
        assert "ms/frame" in capsys.readouterr().out

    def test_build_profile_flag_writes_a_profile(self, tmp_path, capsys):
        out = tmp_path / "build.json"
        assert main(["build", "soc_y", "--profile", str(out)]) == 0
        document = load_profile(out)
        assert document["experiment"] == "build_soc_y"
        assert out.with_suffix(".collapsed").is_file()
        assert "profile written" in capsys.readouterr().out

    def test_trace_plus_profile_embeds_the_document(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        profile = tmp_path / "profile.json"
        assert (
            main(
                [
                    "deploy",
                    "soc_y",
                    "--frames",
                    "1",
                    "--trace",
                    str(trace),
                    "--profile",
                    str(profile),
                ]
            )
            == 0
        )
        embedded = json.loads(trace.read_text())["metadata"]["profile"]
        assert embedded == load_profile(profile)


class TestProfileDiffCommand:
    @pytest.fixture
    def seeded(self, tmp_path, capsys):
        results = tmp_path / "results"
        baselines = tmp_path / "baselines"
        assert main(["profile", "fig4_smoke", "--out", str(results)]) == 0
        assert (
            main(
                [
                    "profile-diff",
                    "--update",
                    "--results-dir",
                    str(results),
                    "--baselines-dir",
                    str(baselines),
                ]
            )
            == 0
        )
        capsys.readouterr()
        return results, baselines

    def diff(self, results, baselines):
        return main(
            [
                "profile-diff",
                "--results-dir",
                str(results),
                "--baselines-dir",
                str(baselines),
            ]
        )

    def test_update_seeds_a_baseline(self, seeded):
        _, baselines = seeded
        payload = json.loads((baselines / "fig4_smoke.json").read_text())
        assert payload["experiment"] == "fig4_smoke"
        assert payload["metrics"]
        assert payload["absolute_band"] and payload["absent_as_zero"]
        assert payload["hotspot_threshold"] == 0.10

    def test_fresh_profile_is_in_band(self, seeded, capsys):
        results, baselines = seeded
        assert self.diff(results, baselines) == 0
        assert "1/1 profiles in band" in capsys.readouterr().out

    def test_missing_profile_fails(self, seeded, tmp_path, capsys):
        _, baselines = seeded
        assert self.diff(tmp_path / "empty", baselines) == 1
        assert "MISSING" in capsys.readouterr().out

    def test_no_baselines_fails_with_guidance(self, tmp_path, capsys):
        assert (
            main(
                [
                    "profile-diff",
                    "--results-dir",
                    str(tmp_path),
                    "--baselines-dir",
                    str(tmp_path / "none"),
                ]
            )
            == 1
        )
        assert "--update" in capsys.readouterr().err

    def test_injected_noc_hotspot_trips_the_gate(
        self, seeded, capsys, monkeypatch
    ):
        results, baselines = seeded
        # Synthetic hotspot: every NoC transfer-window evaluation burns
        # host time inside the profiled ``noc.transfer`` frame, shifting
        # self-time shares toward the NoC paths. Patched below the
        # per-size transfer cache so every reconfiguration pays it.
        original = PrcDevice._transfer_seconds

        def slow(self, size_bytes, split=False):
            time.sleep(0.003)
            return original(self, size_bytes, split=split)

        monkeypatch.setattr(PrcDevice, "_transfer_seconds", slow)
        assert main(["profile", "fig4_smoke", "--out", str(results)]) == 0
        capsys.readouterr()
        assert self.diff(results, baselines) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "hot-path failure" in out
