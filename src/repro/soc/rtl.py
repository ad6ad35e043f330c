"""Generation of the SoC RTL hierarchy.

The real flow parses the ESP configuration and emits a VHDL/Verilog
hierarchy; here the hierarchy is a tree of :class:`Module` nodes with
post-synthesis LUT annotations at the leaves. The tree is what the
flow's parsing step consumes to separate reconfigurable-tile sources
from the static part, and what the simulated synthesis engine "reads"
to produce netlist checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, DprRuleViolation
from repro.soc.config import SocConfig
from repro.soc.tiles import (
    CPU_TILE_LUTS,
    RECONF_WRAPPER_LUTS,
    ROUTER_SOCKET_LUTS,
    ReconfigurableTile,
    SOC_MISC_LUTS,
    TILE_BASE_LUTS,
    Tile,
    TileKind,
)


@dataclass(frozen=True, init=False)
class Module:
    """A node of the RTL hierarchy.

    ``luts`` is the node's *own* leaf contribution (zero for pure
    hierarchy nodes); subtree sizes come from :meth:`total_luts`.
    ``reconfigurable`` marks the root of a reconfigurable partition;
    ``clock_modifying`` and ``route_through`` flag constructs that are
    illegal inside one (the two DPR rules Sec. III cites).

    Modules are immutable (trees are built bottom-up, ``children`` is
    stored as a tuple), so a generated hierarchy can be shared freely.
    Every traversal keeps an explicit stack: a generated SoC has ~70
    modules, and a build visits them several times.
    """

    name: str
    luts: int = 0
    children: Tuple["Module", ...] = ()
    reconfigurable: bool = False
    black_box: bool = False
    clock_modifying: bool = False
    route_through: bool = False

    def __init__(
        self,
        name: str,
        luts: int = 0,
        children: Sequence["Module"] = (),
        reconfigurable: bool = False,
        black_box: bool = False,
        clock_modifying: bool = False,
        route_through: bool = False,
    ) -> None:
        # One dict update instead of a frozen __setattr__ per field: a
        # build constructs every module of its hierarchy.
        self.__dict__.update(
            name=name,
            luts=luts,
            children=children if type(children) is tuple else tuple(children),
            reconfigurable=reconfigurable,
            black_box=black_box,
            clock_modifying=clock_modifying,
            route_through=route_through,
        )

    def __setstate__(self, state: Dict) -> None:
        # Pickles of the earlier mutable Module carry list children.
        self.__dict__.update(state, children=tuple(state["children"]))

    def walk(self) -> Iterator["Module"]:
        """Pre-order traversal of the subtree."""
        stack = [self]
        while stack:
            module = stack.pop()
            yield module
            if module.children:
                stack += module.children[::-1]

    def total_luts(self) -> int:
        """LUTs of the whole subtree."""
        return sum(m.luts for m in self.walk())

    def find(self, name: str) -> Optional["Module"]:
        """First module named ``name`` in pre-order, or None."""
        for module in self.walk():
            if module.name == name:
                return module
        return None

    def split(self) -> Tuple[List["Module"], List["Module"]]:
        """``(static modules, reconfigurable roots)`` of the subtree.

        One pre-order walk that does not enter a reconfigurable
        partition: each root is listed, nothing under it is (nested RPs
        are not supported by the flow).
        """
        static: List[Module] = []
        roots: List[Module] = []
        stack = [self]
        while stack:
            module = stack.pop()
            if module.reconfigurable:
                roots.append(module)
            else:
                static.append(module)
                if module.children:
                    stack += module.children[::-1]
        return static, roots

    def reconfigurable_roots(self) -> List["Module"]:
        """Roots of reconfigurable partitions in this subtree."""
        return self.split()[1]

    def static_luts(self) -> int:
        """LUTs of the subtree excluding reconfigurable partitions."""
        return sum([m.luts for m in self.split()[0]])

    def check_dpr_rules(self) -> List[str]:
        """Xilinx DPR rule violations inside reconfigurable partitions.

        Returns human-readable violation strings; an empty list means
        the hierarchy is DPR-legal. The two rules are the ones the
        paper's reconfigurable tile was designed to satisfy.
        """
        violations: List[str] = []
        for root in self.reconfigurable_roots():
            for module in root.walk():
                if module.clock_modifying:
                    violations.append(
                        f"clock-modifying logic {module.name!r} inside "
                        f"reconfigurable partition {root.name!r}"
                    )
                if module.route_through:
                    violations.append(
                        f"route-through path {module.name!r} inside "
                        f"reconfigurable partition {root.name!r}"
                    )
        return violations


# ----------------------------------------------------------------------
# hierarchy generation
# ----------------------------------------------------------------------

#: Breakdown of the AUX tile base cost into its sub-blocks.
_AUX_SUBBLOCKS = [
    ("dfx_controller", 2100),
    ("icap_primitive", 180),
    ("axilite_apb_adapter", 450),
    ("axi_noc_adapter", 550),
    ("aux_peripherals", TILE_BASE_LUTS[TileKind.AUX] - 2100 - 180 - 450 - 550),
]


def _socket_module(tile: Tile) -> Module:
    """The static socket (router + proxies [+ decoupler]) of a tile."""
    name = tile.name
    buffer = "decoupler" if tile.kind is TileKind.RECONF else "queues"
    return Module(
        f"{name}_socket",
        children=(
            Module(f"{name}_router", ROUTER_SOCKET_LUTS - 120),
            Module(f"{name}_proxies", 100),
            Module(f"{name}_{buffer}", 20),
        ),
    )


def _tile_module(tile: Tile) -> Module:
    """Build the subtree of one tile."""
    name = tile.name
    kind = tile.kind
    socket = _socket_module(tile)
    if kind is TileKind.CPU:
        assert tile.cpu_core is not None
        core = tile.cpu_core
        children: Tuple[Module, ...] = (
            socket,
            Module(f"{name}_{core.value}_core", CPU_TILE_LUTS[core]),
        )
    elif kind is TileKind.ACC:
        assert tile.accelerator is not None
        ip = tile.accelerator
        children = (socket, Module(f"{name}_{ip.name}", ip.luts))
    elif kind is TileKind.AUX:
        aux_logic = Module(
            f"{name}_aux_logic",
            children=tuple(
                [Module(f"{name}_{sub}", sub_luts) for sub, sub_luts in _AUX_SUBBLOCKS]
            ),
        )
        children = (socket, aux_logic)
    elif kind in (TileKind.MEM, TileKind.SLM):
        children = (socket, Module(f"{name}_{kind.value}_ctrl", TILE_BASE_LUTS[kind]))
    elif kind is TileKind.RECONF:
        assert isinstance(tile, ReconfigurableTile)
        modes = [Module(f"{name}_{ip.name}", ip.luts) for ip in tile.modes]
        if tile.host_cpu:
            core = tile.hosted_cpu_core
            modes.append(Module(f"{name}_{core.value}_core", CPU_TILE_LUTS[core]))
        wrapper = Module(
            f"{name}_wrapper", RECONF_WRAPPER_LUTS, tuple(modes), reconfigurable=True
        )
        children = (socket, wrapper)
    elif kind is TileKind.EMPTY:
        children = (socket,)
    else:  # pragma: no cover - exhaustive over TileKind
        raise ConfigurationError(f"unhandled tile kind {tile.kind}")
    return Module(name, children=children)


def generate_rtl(config: SocConfig) -> Module:
    """Generate the full RTL hierarchy for ``config``.

    The resulting tree's static LUT total equals
    ``config.static_luts()`` by construction, and each reconfigurable
    tile contributes one reconfigurable wrapper subtree.
    """
    top = Module(
        f"{config.name}_top",
        children=(Module("soc_misc", SOC_MISC_LUTS),)
        + tuple([_tile_module(tile) for tile in config.tiles]),
    )
    violations = top.check_dpr_rules()
    if violations:  # cannot happen for generated trees; guards extensions
        raise DprRuleViolation("; ".join(violations))
    return top
