"""Tests for the esp_config text format."""

import pytest

from repro.errors import ConfigurationError
from repro.soc.esp_parser import (
    default_catalog,
    load_esp_config,
    parse_esp_config,
    render_esp_config,
)
from repro.soc.tiles import CpuCore, TileKind

VALID = """
[soc]
name = demo
board = vc707
rows = 2
cols = 3

[tile cpu0]
type = cpu
core = leon3

[tile mem0]
type = mem

[tile aux0]
type = aux

[tile rt0]
type = reconf
modes = fft, gemm
"""


class TestParsing:
    def test_valid_config(self):
        config = parse_esp_config(VALID)
        assert config.name == "demo"
        assert config.rows == 2 and config.cols == 3
        assert config.reconfigurable_tiles[0].mode_names() == ["fft", "gemm"]

    def test_cpu_core_parsed(self):
        config = parse_esp_config(VALID)
        assert config.tiles_of_kind(TileKind.CPU)[0].cpu_core is CpuCore.LEON3

    def test_wami_kernels_resolvable(self):
        text = VALID.replace("modes = fft, gemm", "modes = debayer, hessian")
        config = parse_esp_config(text)
        assert config.reconfigurable_tiles[0].mode_names() == ["debayer", "hessian"]

    def test_host_cpu(self):
        text = """
[soc]
name = hosted
board = vc707
rows = 2
cols = 2

[tile mem0]
type = mem

[tile aux0]
type = aux

[tile rt_cpu]
type = reconf
host_cpu = true
"""
        config = parse_esp_config(text)
        assert config.reconfigurable_tiles[0].host_cpu

    def test_missing_soc_section(self):
        with pytest.raises(ConfigurationError, match=r"\[soc\]"):
            parse_esp_config("[tile cpu0]\ntype = cpu\n")

    def test_missing_key(self):
        with pytest.raises(ConfigurationError, match="missing 'rows'"):
            parse_esp_config("[soc]\nname = x\nboard = vc707\ncols = 2\n")

    def test_unknown_accelerator(self):
        with pytest.raises(ConfigurationError, match="unknown accelerator"):
            parse_esp_config(VALID.replace("fft, gemm", "nvdla"))

    def test_unknown_tile_type(self):
        with pytest.raises(ConfigurationError, match="unknown tile type"):
            parse_esp_config(VALID.replace("type = mem", "type = gpu"))

    def test_unknown_section(self):
        with pytest.raises(ConfigurationError, match="unknown section"):
            parse_esp_config(VALID + "\n[power]\nbudget = 5\n")

    def test_malformed_text(self):
        with pytest.raises(ConfigurationError, match="malformed"):
            parse_esp_config("this is not ini [at all")

    def test_validation_still_applies(self):
        # No AUX tile -> the SocConfig invariants fire.
        text = VALID.replace("[tile aux0]\ntype = aux\n", "")
        with pytest.raises(ConfigurationError, match="auxiliary"):
            parse_esp_config(text)


class TestRendering:
    def test_round_trip(self):
        config = parse_esp_config(VALID)
        clone = parse_esp_config(render_esp_config(config))
        assert clone.name == config.name
        assert clone.static_luts() == config.static_luts()
        assert clone.reconfigurable_luts() == config.reconfigurable_luts()
        assert [t.kind for t in clone.tiles] == [t.kind for t in config.tiles]

    def test_round_trip_paper_design(self):
        from repro.core.designs import wami_soc_z

        config = wami_soc_z()
        clone = parse_esp_config(render_esp_config(config))
        assert clone.reconfigurable_luts() == config.reconfigurable_luts()
        assert [t.mode_names() for t in clone.reconfigurable_tiles] == [
            t.mode_names() for t in config.reconfigurable_tiles
        ]

    def test_round_trip_host_cpu(self):
        from repro.core.designs import soc_4

        clone = parse_esp_config(render_esp_config(soc_4()))
        assert any(t.host_cpu for t in clone.reconfigurable_tiles)


class TestFileLoading:
    def test_load_from_disk(self, tmp_path):
        path = tmp_path / "demo.esp_config"
        path.write_text(VALID)
        config = load_esp_config(path)
        assert config.name == "demo"

    def test_catalog_contains_both_families(self):
        catalog = default_catalog()
        assert "mac" in catalog and "conv2d" in catalog  # stock
        assert "debayer" in catalog and "lk_flow" in catalog  # WAMI

    def test_default_catalog_is_a_fresh_copy(self):
        mine = default_catalog()
        del mine["debayer"]
        assert "debayer" in default_catalog()
        # Parsing against the shared catalog is unaffected.
        config = parse_esp_config(VALID.replace("fft, gemm", "debayer"))
        assert config.reconfigurable_tiles[0].mode_names() == ["debayer"]

    def test_parses_share_one_catalog(self):
        first = parse_esp_config(VALID).reconfigurable_tiles[0].modes
        second = parse_esp_config(VALID).reconfigurable_tiles[0].modes
        assert all(a is b for a, b in zip(first, second))
