"""The SoC designs of the paper's evaluation.

* ``soc_1`` .. ``soc_4`` — the four Vivado-characterization SoCs of
  Sec. IV (Table III).
* ``wami_soc_a`` .. ``wami_soc_d`` — the four WAMI SoCs of the flow
  evaluation (Tables IV and V).
* ``wami_soc_x/y/z`` — the three deployment SoCs of the runtime
  evaluation (Table VI, Fig. 4), including the published
  accelerator-to-tile allocation.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Sequence, Tuple

from repro.soc.config import SocConfig
from repro.soc.esp_library import stock_accelerator
from repro.soc.tiles import ReconfigurableTile, Tile, TileKind
from repro.wami.accelerators import wami_ips


def _static_trio() -> List[Tile]:
    """The standard static part: one CPU, one MEM, one AUX tile."""
    return [
        Tile(kind=TileKind.CPU, name="cpu0"),
        Tile(kind=TileKind.MEM, name="mem0"),
        Tile(kind=TileKind.AUX, name="aux0"),
    ]


def _static_duo() -> List[Tile]:
    """Static part without the CPU (Class 2.1 designs host it in an RP)."""
    return [
        Tile(kind=TileKind.MEM, name="mem0"),
        Tile(kind=TileKind.AUX, name="aux0"),
    ]


# ----------------------------------------------------------------------
# Characterization SoCs (Sec. IV / Table III)
# ----------------------------------------------------------------------
def soc_1() -> SocConfig:
    """SOC_1 (Class 1.1): 4x5 grid with 16 reconfigurable MAC tiles."""
    mac = stock_accelerator("mac")
    tiles = _static_trio() + [
        ReconfigurableTile(name=f"rt{i}", modes=[mac]) for i in range(16)
    ]
    return SocConfig.assemble("soc_1", board="vc707", rows=4, cols=5, tiles=tiles)


def soc_2() -> SocConfig:
    """SOC_2 (Class 1.2): 3x3 grid with Conv2d, GEMM, FFT, Sort tiles."""
    tiles = _static_trio() + [
        ReconfigurableTile(name=f"rt_{name}", modes=[stock_accelerator(name)])
        for name in ("conv2d", "gemm", "fft", "sort")
    ]
    return SocConfig.assemble("soc_2", board="vc707", rows=3, cols=3, tiles=tiles)


def soc_3() -> SocConfig:
    """SOC_3 (Class 1.3): SOC_2 without the FFT tile."""
    tiles = _static_trio() + [
        ReconfigurableTile(name=f"rt_{name}", modes=[stock_accelerator(name)])
        for name in ("conv2d", "gemm", "sort")
    ]
    return SocConfig.assemble("soc_3", board="vc707", rows=3, cols=3, tiles=tiles)


def soc_4() -> SocConfig:
    """SOC_4 (Class 2.1): SOC_2 with the CPU moved into an RP.

    The goal is not a runtime-swappable CPU but a smaller static part
    (the paper's own framing).
    """
    tiles = _static_duo() + [
        ReconfigurableTile(name=f"rt_{name}", modes=[stock_accelerator(name)])
        for name in ("conv2d", "gemm", "fft", "sort")
    ]
    tiles.append(ReconfigurableTile(name="rt_cpu", modes=[], host_cpu=True))
    return SocConfig.assemble("soc_4", board="vc707", rows=3, cols=3, tiles=tiles)


_Factory = Callable[[], SocConfig]


def _by_name(factories: Sequence[_Factory]) -> Dict[str, SocConfig]:
    return {cfg.name: cfg for cfg in (factory() for factory in factories)}


_CHARACTERIZATION: Tuple[_Factory, ...] = (soc_1, soc_2, soc_3, soc_4)


def characterization_socs() -> Dict[str, SocConfig]:
    """Name -> config for SOC_1..SOC_4."""
    return _by_name(_CHARACTERIZATION)


# ----------------------------------------------------------------------
# WAMI flow-evaluation SoCs (Tables IV and V)
# ----------------------------------------------------------------------

#: Fig. 3 accelerator indexes per SoC (second column of Table IV).
WAMI_FLOW_SOC_ACCS: Dict[str, Tuple[int, ...]] = {
    "soc_a": (4, 8, 10, 9),  # class 1.2
    "soc_b": (2, 3, 11, 1),  # class 1.1
    "soc_c": (7, 11, 8, 2),  # class 1.3
    "soc_d": (4, 5, 9, 2),  # class 2.1 (CPU hosted in an RP)
}


def _wami_flow_soc(name: str, host_cpu: bool) -> SocConfig:
    indexes = WAMI_FLOW_SOC_ACCS[name]
    statics = _static_duo() if host_cpu else _static_trio()
    tiles: List[Tile] = list(statics)
    for ip in wami_ips(indexes):
        tiles.append(ReconfigurableTile(name=f"rt_{ip.name}", modes=[ip]))
    if host_cpu:
        tiles.append(ReconfigurableTile(name="rt_cpu", modes=[], host_cpu=True))
    return SocConfig.assemble(name, board="vc707", rows=3, cols=3, tiles=tiles)


def wami_soc_a() -> SocConfig:
    """SoC_A: accelerators {4, 8, 10, 9} — Class 1.2."""
    return _wami_flow_soc("soc_a", host_cpu=False)


def wami_soc_b() -> SocConfig:
    """SoC_B: accelerators {2, 3, 11, 1} — Class 1.1."""
    return _wami_flow_soc("soc_b", host_cpu=False)


def wami_soc_c() -> SocConfig:
    """SoC_C: accelerators {7, 11, 8, 2} — Class 1.3."""
    return _wami_flow_soc("soc_c", host_cpu=False)


def wami_soc_d() -> SocConfig:
    """SoC_D: accelerators {4, 5, 9, 2} + CPU in an RP — Class 2.1."""
    return _wami_flow_soc("soc_d", host_cpu=True)


_PARALLELISM: Tuple[_Factory, ...] = (wami_soc_a, wami_soc_b, wami_soc_c, wami_soc_d)


def wami_parallelism_socs() -> Dict[str, SocConfig]:
    """Name -> config for SoC_A..SoC_D."""
    return _by_name(_PARALLELISM)


# ----------------------------------------------------------------------
# WAMI deployment SoCs (Table VI / Fig. 4)
# ----------------------------------------------------------------------

#: Accelerator-to-tile allocation of Table VI (Fig. 3 indexes).
WAMI_TILE_ALLOCATION: Dict[str, Tuple[Tuple[int, ...], ...]] = {
    "soc_x": ((1, 4, 9, 10, 8), (2, 3, 6, 7, 11)),
    "soc_y": ((1, 3, 7, 12), (2, 6, 8), (4, 9, 10)),
    "soc_z": ((1, 6, 12), (2, 5, 11), (4, 10, 7), (3, 8, 9)),
}


def _wami_deployment_soc(name: str) -> SocConfig:
    allocation = WAMI_TILE_ALLOCATION[name]
    tiles: List[Tile] = _static_trio()
    for tile_index, indexes in enumerate(allocation, start=1):
        tiles.append(
            ReconfigurableTile(name=f"rt{tile_index}", modes=wami_ips(indexes))
        )
    return SocConfig.assemble(name, board="vc707", rows=3, cols=3, tiles=tiles)


def wami_soc_x() -> SocConfig:
    """SoC_X: two reconfigurable tiles (Table VI allocation)."""
    return _wami_deployment_soc("soc_x")


def wami_soc_y() -> SocConfig:
    """SoC_Y: three reconfigurable tiles (Table VI allocation)."""
    return _wami_deployment_soc("soc_y")


def wami_soc_z() -> SocConfig:
    """SoC_Z: four reconfigurable tiles (Table VI allocation)."""
    return _wami_deployment_soc("soc_z")


_DEPLOYMENT: Tuple[_Factory, ...] = (wami_soc_x, wami_soc_y, wami_soc_z)


def wami_deployment_socs() -> Dict[str, SocConfig]:
    """Name -> config for SoC_X/Y/Z."""
    return _by_name(_DEPLOYMENT)


def paper_designs() -> Dict[str, SocConfig]:
    """All named designs of the evaluation."""
    return _by_name(_CHARACTERIZATION + _PARALLELISM + _DEPLOYMENT)


@functools.lru_cache(maxsize=None)
def _factories_by_name() -> Dict[str, _Factory]:
    """Design name -> factory, keyed by each factory's own config name,
    so :func:`resolve_config` builds only the design it returns."""
    factories = _CHARACTERIZATION + _PARALLELISM + _DEPLOYMENT
    return {factory().name: factory for factory in factories}


@functools.lru_cache(maxsize=None)
def _named_config(name: str) -> SocConfig:
    """One shared (frozen) config per design name: repeated service jobs
    then hit the flow cache's per-config key memo."""
    return _factories_by_name()[name]()


def resolve_config(spec: str) -> SocConfig:
    """A design name or an ``esp_config`` path.

    The shared resolver behind both the CLI's positional ``config``
    argument and the service daemon's job specs, so a job submitted
    over HTTP accepts exactly what ``repro build`` accepts.
    """
    import os

    from repro.errors import PrEspError
    from repro.soc.esp_parser import load_esp_config

    if spec in _factories_by_name():
        return _named_config(spec)
    if os.path.exists(spec):
        return load_esp_config(spec)
    raise PrEspError(
        f"{spec!r} is neither a known design "
        f"({', '.join(sorted(_factories_by_name()))}) "
        "nor an existing esp_config file"
    )
