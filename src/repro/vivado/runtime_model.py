"""The calibrated CAD-runtime model.

Every timing the paper reports is a Vivado CPU-runtime measurement on
an i7/64GB workstation. The reproduction replaces those measurements
with power-law curves

    t(L) = c + a * L**p          (L in kLUT, t in minutes)

one per job kind, least-squares fitted against the 40+ observations of
Tables III, IV and V (see ``tools/calibrate_runtime_model.py``, which
re-derives the constants from the published tables and the design
models in ``repro.core.designs``). Vivado runtimes are noisy — the
paper itself reports 48..98 minutes for identically-sized static runs —
so the curves capture the cost *landscape*, not exact points; the
EXPERIMENTS.md error bands quantify the residuals.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.core.metrics import DesignMetrics
from repro.core.strategy import ImplementationStrategy
from repro.errors import ImplementationError
from repro.units import MINUTE


class JobKind(enum.Enum):
    """CAD job kinds with distinct runtime behaviour."""

    OOC_SYNTH = "ooc_synth"  # out-of-context synthesis of one netlist
    GLOBAL_SYNTH = "global_synth"  # monolithic full-design synthesis
    STATIC_PAR = "static_par"  # static-only P&R with placeholder macros
    CONTEXT_PAR = "context_par"  # in-context P&R of a group of RPs (Ω)
    SERIAL_DPR_PAR = "serial_dpr_par"  # PR-ESP serial full-design P&R
    MONO_DPR_PAR = "mono_dpr_par"  # standard Xilinx DPR single-instance P&R
    BITGEN = "bitgen"  # bitstream generation

    # Members are singletons, so hashing by identity agrees with enum
    # equality and keeps dict lookups keyed on members in C (Enum's own
    # __hash__ is a Python-level call on every lookup).
    __hash__ = object.__hash__


@dataclass(frozen=True)
class RuntimeCurve:
    """One power-law runtime curve t(L) = c + a * L**p (minutes, kLUT)."""

    c: float
    a: float
    p: float

    def minutes(self, kluts: float) -> float:
        """Runtime in minutes for a job over ``kluts`` thousand LUTs."""
        if kluts < 0:
            raise ImplementationError(f"negative design size: {kluts} kLUT")
        return self.c + self.a * kluts**self.p

    def seconds(self, kluts: float) -> float:
        """Runtime in seconds."""
        return self.minutes(kluts) * MINUTE


#: Placement inside reconfigurable pblocks is slower per LUT than free
#: placement (region constraints, partition-pin routing), so the serial
#: DPR run weights reconfigurable LUTs by this factor when computing its
#: effective size. Fitted together with the serial curve.
RECONF_LUT_WEIGHT = 1.10


class RuntimeModel:
    """A set of per-job-kind curves plus strategy-level estimators."""

    def __init__(
        self,
        curves: Dict[JobKind, RuntimeCurve],
        reconf_weight: float = RECONF_LUT_WEIGHT,
    ) -> None:
        missing = set(JobKind) - set(curves)
        if missing:
            raise ImplementationError(
                f"runtime model missing curves for {sorted(k.value for k in missing)}"
            )
        if reconf_weight < 1.0:
            raise ImplementationError(
                f"reconfigurable-LUT weight must be >= 1, got {reconf_weight}"
            )
        self.curves = dict(curves)
        self.reconf_weight = reconf_weight

    # ------------------------------------------------------------------
    # per-job costs
    # ------------------------------------------------------------------
    def job_minutes(self, kind: JobKind, kluts: float) -> float:
        """Minutes for one job of ``kind`` over ``kluts``."""
        return self.curves[kind].minutes(kluts)

    # ------------------------------------------------------------------
    # strategy-level P&R estimates (the quantities of Tables III/IV)
    # ------------------------------------------------------------------
    def static_par_minutes(self, static_kluts: float) -> float:
        """t_static — static pre-route with placeholder hard macros."""
        return self.job_minutes(JobKind.STATIC_PAR, static_kluts)

    def context_par_minutes(self, group_kluts: float) -> float:
        """Ω — in-context P&R of one group of reconfigurable tiles."""
        return self.job_minutes(JobKind.CONTEXT_PAR, group_kluts)

    def serial_par_minutes(self, static_kluts: float, reconf_kluts: float) -> float:
        """Serial (τ=1) full-design DPR P&R.

        The effective size weights reconfigurable LUTs by
        ``reconf_weight`` — placing into pblocks is slower per LUT.
        """
        effective = static_kluts + self.reconf_weight * reconf_kluts
        return self.job_minutes(JobKind.SERIAL_DPR_PAR, effective)

    def estimate_par_total(
        self,
        metrics: DesignMetrics,
        strategy: ImplementationStrategy,
        tau: Optional[int] = None,
    ) -> float:
        """Total P&R minutes for a strategy (T_P&R of Table IV).

        * serial: one full-design run;
        * fully-parallel: t_static + max_i Ω(tile_i);
        * semi-parallel: t_static + max over the τ LPT groups.
        """
        static_k = metrics.static_luts / 1000.0
        rp_k = [l / 1000.0 for l in metrics.rp_luts]
        if strategy is ImplementationStrategy.SERIAL:
            return self.serial_par_minutes(static_k, sum(rp_k))
        if strategy is ImplementationStrategy.FULLY_PARALLEL:
            omega = max(self.context_par_minutes(k) for k in rp_k)
            return self.static_par_minutes(static_k) + omega
        if strategy is ImplementationStrategy.SEMI_PARALLEL:
            # Imported here: repro.flow depends on repro.vivado at module
            # load, so the reverse edge must stay lazy.
            from repro.flow.grouping import balanced_groups

            groups_tau = tau if tau is not None else 2
            groups_tau = max(1, min(groups_tau, len(rp_k)))
            groups = balanced_groups(rp_k, groups_tau, weight=lambda k: k)
            omega = max(self.context_par_minutes(sum(g)) for g in groups)
            return self.static_par_minutes(static_k) + omega
        raise ImplementationError(f"unknown strategy {strategy}")  # pragma: no cover

    def strategy_estimator(self, tau: int = 2):
        """Adapter matching :data:`repro.core.strategy.RuntimeEstimator`."""

        def estimate(metrics: DesignMetrics, strategy: ImplementationStrategy) -> float:
            return self.estimate_par_total(metrics, strategy, tau=tau)

        return estimate


# ----------------------------------------------------------------------
# fitting
# ----------------------------------------------------------------------
def fit_runtime_curve(
    observations: Sequence[Tuple[float, float]],
    p_bounds: Tuple[float, float] = (0.3, 2.0),
) -> RuntimeCurve:
    """Least-squares fit of one curve to (kLUT, minutes) observations.

    With fewer than three observations the exponent is pinned to 1.0
    (affine fit) to avoid an under-determined problem.
    """
    import numpy as np
    from scipy.optimize import least_squares

    obs = list(observations)
    if not obs:
        raise ImplementationError("cannot fit a curve to zero observations")
    sizes = np.array([o[0] for o in obs], dtype=float)
    times = np.array([o[1] for o in obs], dtype=float)

    if len(obs) < 3:
        # Affine through the data (least squares on c, a with p = 1).
        a_mat = np.vstack([np.ones_like(sizes), sizes]).T
        coeff, *_ = np.linalg.lstsq(a_mat, times, rcond=None)
        c, a = float(max(coeff[0], 0.0)), float(max(coeff[1], 1e-6))
        return RuntimeCurve(c=c, a=a, p=1.0)

    def residuals(params: "np.ndarray") -> "np.ndarray":
        c, a, p = params
        return c + a * sizes**p - times

    mean_t = float(times.mean())
    mean_l = float(sizes.mean())
    c_upper = max(float(times.min()), 1.0)  # offset below the smallest obs
    start = [min(0.2 * mean_t, 0.9 * c_upper), 0.8 * mean_t / max(mean_l, 1.0), 1.0]
    fit = least_squares(
        residuals,
        start,
        bounds=([0.0, 1e-6, p_bounds[0]], [c_upper, 1e3, p_bounds[1]]),
    )
    c, a, p = (float(v) for v in fit.x)
    return RuntimeCurve(c=c, a=a, p=p)


def fit_runtime_model(
    observations: Dict[JobKind, Sequence[Tuple[float, float]]],
) -> RuntimeModel:
    """Fit a full model; kinds without observations keep the calibrated
    defaults below."""
    curves = dict(_CALIBRATED_CURVES)
    for kind, obs in observations.items():
        if obs:
            curves[kind] = fit_runtime_curve(obs)
    return RuntimeModel(curves)


# ----------------------------------------------------------------------
# calibrated constants
# ----------------------------------------------------------------------
# Derived by tools/calibrate_runtime_model.py from Tables III/IV/V.
# Re-run that script after touching accelerator sizes or tile costs and
# paste its output here.
_CALIBRATED_CURVES: Dict[JobKind, RuntimeCurve] = {
    JobKind.OOC_SYNTH: RuntimeCurve(c=42.0000, a=1.647902, p=0.3000),
    JobKind.GLOBAL_SYNTH: RuntimeCurve(c=52.3667, a=0.000959, p=2.0000),
    JobKind.STATIC_PAR: RuntimeCurve(c=0.0000, a=1.759774, p=0.8885),
    JobKind.CONTEXT_PAR: RuntimeCurve(c=0.0000, a=8.072631, p=0.5370),
    JobKind.SERIAL_DPR_PAR: RuntimeCurve(c=0.0000, a=0.027260, p=1.6764),
    JobKind.MONO_DPR_PAR: RuntimeCurve(c=114.5114, a=0.000874, p=2.0000),
    # The paper's timings do not separate write_bitstream from P&R, so
    # its cost is absorbed in the fitted P&R curves; the explicit BITGEN
    # job is kept near-zero to avoid double counting while still
    # appearing in tool journals.
    JobKind.BITGEN: RuntimeCurve(c=0.0, a=0.0005, p=1.0),
}

#: The model used throughout the library.
CALIBRATED_MODEL = RuntimeModel(_CALIBRATED_CURVES)
