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

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("rows = 2", "rows = two", r"\[soc\] rows must be an integer, got 'two'"),
            ("cols = 3", "cols = 3.5", r"\[soc\] cols must be an integer, got '3.5'"),
            (
                "modes = fft, gemm",
                "modes = fft, gemm\nhost_cpu = maybe",
                r"\[tile rt0\] host_cpu must be a boolean, got 'maybe'",
            ),
            (
                "core = leon3",
                "core = z80",
                r"\[tile cpu0\] core must be one of leon3, cva6, got 'z80'",
            ),
        ],
    )
    def test_malformed_value_names_section_and_key(self, old, new, message):
        with pytest.raises(ConfigurationError, match=message):
            parse_esp_config(VALID.replace(old, new))

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("core = leon3", "cores = cva6", r"\[tile cpu0\] unknown key 'cores'"),
            ("core = leon3", "core = leon3\nhost_cpu = true", r"\[tile cpu0\] unknown key 'host_cpu'"),
            ("type = mem", "type = mem\nmodes = fft", r"\[tile mem0\] unknown key 'modes'"),
            ("cols = 3", "cols = 3\nclock = 78", r"\[soc\] unknown key 'clock'"),
            ("modes = fft", "Mode = fft", r"\[tile rt0\] unknown key 'mode'"),
        ],
    )
    def test_unknown_key_rejected(self, old, new, message):
        with pytest.raises(ConfigurationError, match=message):
            parse_esp_config(VALID.replace(old, new))

    def test_empty_tile_name_rejected(self):
        with pytest.raises(ConfigurationError, match="mem tile needs a non-empty name"):
            parse_esp_config(VALID.replace("[tile mem0]", "[tile ]"))

    def test_default_section_is_an_unknown_section(self):
        with pytest.raises(ConfigurationError, match=r"unknown section \[DEFAULT\]"):
            parse_esp_config("[DEFAULT]\ntype = mem\n" + VALID)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("name = demo\n[soc]\n", "line 1: 'name = demo' comes before any section"),
            (VALID + "\n[tile cpu0]\n", "line 22: duplicate section [tile cpu0]"),
            (
                VALID.replace("core = leon3", "core = leon3\nCORE = cva6"),
                "line 11: duplicate key 'core' in [tile cpu0]",
            ),
            (VALID.replace("type = mem", "type = mem\nmem"), "line 14: cannot parse 'mem'"),
        ],
        ids=["before_section", "duplicate_section", "duplicate_key", "no_delimiter"],
    )
    def test_malformed_text_names_the_line(self, text, message):
        with pytest.raises(ConfigurationError) as error:
            parse_esp_config(text)
        assert str(error.value) == f"malformed esp_config: {message}"

    @pytest.mark.parametrize("name", ["50%", "a%b", "x%(rows)s", "%%"])
    def test_percent_is_literal(self, name):
        config = parse_esp_config(VALID.replace("name = demo", f"name = {name}"))
        assert config.name == name

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

    def test_round_trip_keeps_percent(self):
        config = parse_esp_config(VALID.replace("name = demo", "name = soc_%(x)s_50%"))
        text = render_esp_config(config)
        assert "name = soc_%(x)s_50%" in text
        assert parse_esp_config(text).name == config.name

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


class TestCommandLine:
    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("rows = 2", "rows = two", "error: [soc] rows must be an integer"),
            (
                "modes = fft, gemm",
                "modes = fft, gemm\nhost_cpu = maybe",
                "error: [tile rt0] host_cpu must be a boolean",
            ),
        ],
    )
    def test_build_reports_a_malformed_value_as_an_error(
        self, tmp_path, capsys, old, new, message
    ):
        from repro.cli import main

        path = tmp_path / "bad.esp_config"
        path.write_text(VALID.replace(old, new))
        assert main(["build", str(path)]) == 1
        assert message in capsys.readouterr().err


# ----------------------------------------------------------------------
# parity corpus: the esp_config language as it is read today
# ----------------------------------------------------------------------

#: ``parse_esp_config(VALID).to_dict()``.
VALID_DICT = {
    "name": "demo",
    "board": "vc707",
    "rows": 2,
    "cols": 3,
    "tiles": [
        {"kind": "cpu", "name": "cpu0", "cpu_core": "leon3"},
        {"kind": "mem", "name": "mem0"},
        {"kind": "aux", "name": "aux0"},
        {"kind": "reconf", "name": "rt0", "modes": ["fft", "gemm"], "host_cpu": False},
        {"kind": "empty", "name": "empty_0"},
        {"kind": "empty", "name": "empty_1"},
    ],
}

MALFORMED = "malformed esp_config:"


def _edit(old, new):
    return VALID.replace(old, new)


#: ``(id, text, expected)``: ``expected`` is the parsed config's
#: ``to_dict()``, or a prefix of the ``ConfigurationError`` message.
PARITY_CASES = [
    ("valid", VALID, VALID_DICT),
    (
        "comments",
        "# an SoC\n; described in full\n"
        + _edit("[tile mem0]", "  # an indented comment\n[tile mem0]\n; inside"),
        VALID_DICT,
    ),
    ("colon", _edit("name = demo", "name: demo").replace("type = aux", "type:aux"), VALID_DICT),
    ("upper_case_keys", _edit("name =", "NAME =").replace("type = cpu", "Type = cpu"), VALID_DICT),
    ("continued_modes", _edit("modes = fft, gemm", "modes = fft,\n    gemm"), VALID_DICT),
    # An empty line inside a value is kept; a comment line is skipped.
    ("continued_after_blank", _edit("modes = fft, gemm", "modes = fft,\n\n    gemm"), VALID_DICT),
    ("continued_after_comment", _edit("modes = fft, gemm", "modes = fft,\n# c\n    gemm"), VALID_DICT),
    # An indented line after a key continues that key's value.
    ("indented_key_continues", _edit("name = demo\nboard", "  name = demo\n    board"),
     "[soc] section is missing 'board'"),
    ("indented_header_continues", _edit("[tile mem0]", "   [tile mem0]"), MALFORMED),
    ("crlf", VALID.replace("\n", "\r\n"), VALID_DICT),
    ("percent", _edit("name = demo", "name = 50%(x)s"), dict(VALID_DICT, name="50%(x)s")),
    ("header_text_after_bracket", _edit("[tile mem0]", "[tile mem0] trailing"), VALID_DICT),
    ("tile_name_padding", _edit("[tile mem0]", "[tile   mem0  ]"), VALID_DICT),
    ("host_cpu_no", _edit("fft, gemm", "fft, gemm\nhost_cpu = No"), VALID_DICT),
    ("inline_semicolon", _edit("fft, gemm", "fft, gemm ; two modes"),
     "unknown accelerator 'gemm ; two modes' in esp_config"),
    ("inline_hash", _edit("core = leon3", "core = leon3 # default"),
     "[tile cpu0] core must be one of leon3, cva6, got 'leon3 # default'"),
    ("empty_value", _edit("type = mem", "type ="), "[tile mem0] has unknown tile type ''"),
    ("duplicate_section", VALID + "\n[tile cpu0]\ntype = cpu\n", MALFORMED),
    ("duplicate_key", _edit("core = leon3", "core = leon3\ncore = cva6"), MALFORMED),
    ("duplicate_key_other_case", _edit("core = leon3", "core = leon3\nCORE = cva6"), MALFORMED),
    ("upper_case_section", _edit("[soc]", "[SOC]"), "esp_config needs a [soc] section"),
    ("no_section", "name = demo\nboard = vc707\n", MALFORMED),
    ("empty_text", "", "esp_config needs a [soc] section"),
    ("only_comments", "# nothing\n; here\n", "esp_config needs a [soc] section"),
    ("bare_word", _edit("type = mem", "type = mem\njustaword"), MALFORMED),
    ("empty_key", _edit("type = mem", "type = mem\n= x"), MALFORMED),
    ("empty_brackets", _edit("type = mem", "type = mem\n[]"), MALFORMED),
]


def _paper_cases():
    """The 11 paper designs, Fig. 4's three included, rendered."""
    from repro.core.designs import paper_designs

    return [
        (f"paper_{name}", render_esp_config(config), config.to_dict())
        for name, config in paper_designs().items()
    ]


CORPUS = PARITY_CASES + _paper_cases()


@pytest.mark.parametrize(
    "text, expected", [case[1:] for case in CORPUS], ids=[case[0] for case in CORPUS]
)
def test_parity_corpus(text, expected):
    if isinstance(expected, dict):
        assert parse_esp_config(text).to_dict() == expected
    else:
        with pytest.raises(ConfigurationError) as error:
            parse_esp_config(text)
        assert str(error.value).startswith(expected)
