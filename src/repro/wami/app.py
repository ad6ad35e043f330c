"""The WAMI application driver.

Two layers:

* ``golden_run`` — execute the full numeric pipeline (Fig. 3) on real
  frames: debayer, grayscale, Lucas-Kanade registration against the
  previous registered frame, interpolation into the reference
  coordinate system, GMM change detection. This validates the kernels
  end-to-end and is what the examples show.
* ``tasks_for_soc`` — lower the dataflow graph onto a PR-ESP SoC
  configuration: each stage becomes a :class:`StageTask` bound to the
  reconfigurable tile whose mode set contains its accelerator; stages
  without a hardware home run in software on the CPU (Table VI's SoC_X
  and SoC_Y leave some stages unmapped).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.runtime.executor import StageTask
from repro.soc.config import SocConfig
from repro.wami.accelerators import WAMI_ACCELERATORS, WamiAcceleratorProfile
from repro.wami.graph import WAMI_GRAPH, WamiGraph, WamiStage
from repro.wami.kernels import (
    GmmState,
    change_detection,
    debayer,
    grayscale,
    interp,
    lucas_kanade,
)

#: Catalog accelerator name -> the WAMI stage it implements.
_STAGE_OF_KERNEL: Dict[str, WamiStage] = {s.kernel_name: s for s in WamiStage}


@dataclass
class WamiGoldenResult:
    """Output of the functional pipeline over a frame sequence."""

    params: List[np.ndarray] = field(default_factory=list)  # per-frame warp
    registered: List[np.ndarray] = field(default_factory=list)
    masks: List[np.ndarray] = field(default_factory=list)

    @property
    def num_frames(self) -> int:
        """Frames processed."""
        return len(self.registered)


class WamiApplication:
    """The WAMI-App over a dataflow graph and accelerator profiles."""

    def __init__(
        self,
        graph: WamiGraph = WAMI_GRAPH,
        profiles: Optional[Dict[WamiStage, WamiAcceleratorProfile]] = None,
    ) -> None:
        self.graph = graph
        self.profiles = dict(profiles or WAMI_ACCELERATORS)
        missing = set(WamiStage) - set(self.profiles)
        if missing:
            raise ConfigurationError(
                f"profiles missing for stages: {sorted(s.name for s in missing)}"
            )

    # ------------------------------------------------------------------
    # functional execution
    # ------------------------------------------------------------------
    def golden_run(
        self,
        bayer_frames: List[np.ndarray],
        lk_iterations: int = 20,
    ) -> WamiGoldenResult:
        """Run the numeric pipeline over a Bayer sequence.

        Frame 0 seeds the background model; every later frame is
        registered onto the running reference frame before change
        detection.
        """
        if not bayer_frames:
            raise ConfigurationError("need at least one frame")
        result = WamiGoldenResult()
        reference: Optional[np.ndarray] = None
        gmm: Optional[GmmState] = None
        cumulative = np.zeros(6)

        for index, bayer in enumerate(bayer_frames):
            gray = grayscale(debayer(bayer))
            if index == 0:
                registered = gray
                cumulative = np.zeros(6)
            else:
                assert reference is not None
                p = lucas_kanade(
                    reference, gray, p0=cumulative, iterations=lk_iterations
                )
                registered = interp(gray, p)
                cumulative = p
            if gmm is None:
                gmm = GmmState.initialize(registered)
                mask = np.zeros(registered.shape, dtype=bool)
            else:
                mask, gmm = change_detection(registered, gmm)
            result.params.append(cumulative.copy())
            result.registered.append(registered)
            result.masks.append(mask)
            reference = result.registered[0]
        return result

    # ------------------------------------------------------------------
    # SoC lowering
    # ------------------------------------------------------------------
    def tile_of_stage(self, config: SocConfig) -> Dict[WamiStage, Optional[str]]:
        """Stage -> hosting tile name (None when unmapped -> software)."""
        mapping: Dict[WamiStage, Optional[str]] = {s: None for s in WamiStage}
        for tile in config.reconfigurable_tiles:
            for ip in tile.modes:
                stage = _STAGE_OF_KERNEL.get(ip.name)
                if stage is None:
                    continue
                if mapping[stage] is not None:
                    raise ConfigurationError(
                        f"stage {stage.name} mapped to two tiles "
                        f"({mapping[stage]} and {tile.name})"
                    )
                mapping[stage] = tile.name
        return mapping

    def tasks_for_soc(self, config: SocConfig) -> List[StageTask]:
        """Lower the DAG onto ``config`` as executor tasks."""
        placement = self.tile_of_stage(config)
        tasks: List[StageTask] = []
        for stage in self.graph.topological_order():
            profile = self.profiles[stage]
            tile = placement[stage]
            deps = tuple(p.kernel_name for p in self.graph.predecessors(stage))
            if tile is None:
                tasks.append(
                    StageTask(
                        name=stage.kernel_name,
                        duration_s=profile.sw_time_s,
                        tile_name=None,
                        deps=deps,
                    )
                )
            else:
                tasks.append(
                    StageTask(
                        name=stage.kernel_name,
                        duration_s=profile.exec_time_s,
                        tile_name=tile,
                        mode_name=stage.kernel_name,
                        deps=deps,
                        # The scheduler's last-resort failover target
                        # when every tile serving the mode is gone.
                        sw_duration_s=profile.sw_time_s,
                    )
                )
        return tasks

    def software_stages(self, config: SocConfig) -> List[WamiStage]:
        """Stages that fall back to the CPU on ``config``."""
        placement = self.tile_of_stage(config)
        return [s for s in WamiStage if placement[s] is None]

    def mode_power_w(self) -> Dict[str, float]:
        """Accelerator name -> dynamic power (for the energy account)."""
        return {p.name: p.dynamic_power_w for p in self.profiles.values()}

    def task_modes(self) -> Dict[str, str]:
        """Task name -> mode name (identity for WAMI)."""
        return {s.kernel_name: s.kernel_name for s in WamiStage}
