"""Golden draws: literal fault timelines and backoff waits, pinned.

Every fault tier promises that a seed plus the operation identities
fixes the whole fault timeline. The determinism tests elsewhere only
compare two runs of the same code; this module pins the *values*, so a
refactor of the draw, ledger or backoff machinery that shifts a single
outcome or a single bit of a wait fails here.

Outcome grids are encoded as compact strings to keep the pinned
literals readable: ``1`` = the attempt fails, ``-`` = healthy, and
otherwise the first letter of the fault kind's value (``c``/``s`` =
crc/stuck transfers; ``c``/``s``/``i``/``t`` = crash/slow/io/torn).
The literals were captured from the per-tier implementations before
they were folded onto :mod:`repro.faults`.
"""

from __future__ import annotations

import time

import pytest

from repro.runtime.faults import (
    DEFAULT_RECOVERY,
    PERSISTENT,
    RecoveryPolicy,
    RuntimeFaultKind,
    RuntimeFaultModel,
)
from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.faults import ServiceFaultKind, ServiceFaultModel
from repro.service.jobs import JobRecord, JobSpec, JobStore
from repro.vivado.faults import (
    DEFAULT_RETRY_POLICY,
    CadFaultModel,
    RetryPolicy,
    plan_job_execution,
)
from repro.vivado.runtime_model import JobKind

SEEDS = (0, 1, 7, 42)
STAGES = ("synthesis", "implementation")
JOBS = ("synth_rt0", "impl_ctx_1")
TILES = (("rt0", "fft"), ("rt1", "change_detection"), ("rt2", "hessian"))
SERVICE_JOBS = ("job-00000000-0001", "job-3f2a9c01-0042")

CRC = RuntimeFaultKind.BITSTREAM_CORRUPTION
STUCK = RuntimeFaultKind.STUCK_TRANSFER
HANG = RuntimeFaultKind.KERNEL_HANG
_TRANSFER_CODE = {None: "-", CRC: "c", STUCK: "s"}
_SERVICE_CODE = {None: "-"}
_SERVICE_CODE.update({kind: kind.value[0] for kind in ServiceFaultKind})


def _bits(flags) -> str:
    return "".join("1" if flag else "0" for flag in flags)


# ----------------------------------------------------------------------
# CAD tier
# ----------------------------------------------------------------------
def cad_outcomes(seed: int) -> str:
    model = CadFaultModel(seed=seed, rates={kind: 0.3 for kind in JobKind})
    return _bits(
        model.attempt_fails(kind, stage, job, attempt)
        for kind in JobKind
        for stage in STAGES
        for job in JOBS
        for attempt in range(1, 5)
    )


def cad_injected_outcomes() -> str:
    model = CadFaultModel(seed=3, rates={JobKind.OOC_SYNTH: 0.5})
    model.inject_fault("synthesis", "synth_rt0", count=2)
    model.inject_fault("synthesis", "synth_rt0", count=1)
    return _bits(
        model.attempt_fails(JobKind.OOC_SYNTH, "synthesis", job, attempt)
        for job in ("synth_rt0", "synth_rt1")
        for attempt in range(1, 9)
    )


def cad_backoffs(policy: RetryPolicy, seed: int) -> list:
    return [
        policy.backoff_before(attempt, seed, job)
        for job in JOBS
        for attempt in range(1, 7)
    ]


CUSTOM_RETRY = RetryPolicy(
    max_attempts=6, backoff_minutes=1.5, factor=3.0, cap_minutes=10.0, jitter=0.5
)

CAD_OUTCOMES = {
    0: (
        "00000000001110001000001011100010001000010100100111101100"
        "01100111100011001000000001100100010001011001010111010000"
    ),
    1: (
        "10110110001100000001101000001001010100010100001000000001"
        "00110100000000101011001100100010001001100010001100010000"
    ),
    7: (
        "00000011000100100110010000100100111100010010000010000001"
        "00000000110000000100000001010000011000000000001001100010"
    ),
    42: (
        "01100101000101001000001000000000100000100100100000000000"
        "00000000001010000000111000001000010110001100010000010001"
    ),
}
CAD_INJECTED = "1110111000010000"
CAD_BACKOFF_DEFAULT = {
    0: [
        0.0,
        2.115323658923744,
        4.664587215585564,
        8.088229555046652,
        18.269735042566072,
        35.24792146311497,
        0.0,
        2.079671022277452,
        4.49092776001281,
        9.224786824393073,
        17.96274832907363,
        35.863559304118915,
    ],
    7: [
        0.0,
        2.4426745770810774,
        4.379896941128942,
        9.924732775534975,
        16.596596117776937,
        33.58047548077659,
        0.0,
        2.234461149943384,
        4.794878492911726,
        8.825726274202479,
        17.196723737090146,
        37.36545755860383,
    ],
}
CAD_BACKOFF_CUSTOM = {
    0: [
        0.0,
        1.6729854883856161,
        5.995321235067518,
        10.220573887616629,
        12.837168803207588,
        13.498614308743315,
        0.0,
        1.6195065334161778,
        5.6045874600288235,
        13.061967060982681,
        12.45343541134204,
        13.909039536079275,
    ],
    7: [
        0.0,
        2.164011865621616,
        5.354768117540122,
        14.811831938837441,
        10.745745147221168,
        12.386983653851061,
        0.0,
        1.851691724915076,
        6.288476609051385,
        12.064315685506198,
        11.495904671362682,
        14.910305039069218,
    ],
}
CAD_EXECUTION = {
    "job": "impl_ctx_0",
    "kind": "context_par",
    "succeeded": True,
    "total_minutes": 45.74441474043795,
    "attempts": [
        {
            "index": 1,
            "succeeded": False,
            "busy_minutes": 12.5,
            "backoff_minutes": 0.0,
        },
        {
            "index": 2,
            "succeeded": False,
            "busy_minutes": 12.5,
            "backoff_minutes": 1.5402226960543222,
        },
        {
            "index": 3,
            "succeeded": True,
            "busy_minutes": 12.5,
            "backoff_minutes": 6.70419204438363,
        },
    ],
}
CAD_FINGERPRINT = {
    "seed": 5,
    "rates": {"bitgen": 0.1, "ooc_synth": 0.2},
    "injected": {"bitstreams/bit_rt0": 1, "synthesis/synth_rt1": 2},
}


class TestCadGolden:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_attempt_outcomes(self, seed):
        assert cad_outcomes(seed) == CAD_OUTCOMES[seed]

    def test_injected_outcomes(self):
        assert cad_injected_outcomes() == CAD_INJECTED

    @pytest.mark.parametrize("seed", (0, 7))
    def test_backoff_waits(self, seed):
        assert cad_backoffs(DEFAULT_RETRY_POLICY, seed) == CAD_BACKOFF_DEFAULT[seed]
        assert cad_backoffs(CUSTOM_RETRY, seed) == CAD_BACKOFF_CUSTOM[seed]

    def test_planned_execution(self):
        model = CadFaultModel(seed=11, rates={JobKind.CONTEXT_PAR: 0.6})
        model.inject_fault("implementation", "impl_ctx_0", count=2)
        execution = plan_job_execution(
            model, CUSTOM_RETRY, JobKind.CONTEXT_PAR, "implementation",
            "impl_ctx_0", 12.5,
        )
        assert execution.to_dict() == CAD_EXECUTION

    def test_fingerprint(self):
        model = CadFaultModel(
            seed=5, rates={JobKind.BITGEN: 0.1, JobKind.OOC_SYNTH: 0.2}
        )
        model.inject_fault("synthesis", "synth_rt1", count=2)
        model.inject_fault("bitstreams", "bit_rt0")
        assert model.fingerprint() == CAD_FINGERPRINT


# ----------------------------------------------------------------------
# runtime tier
# ----------------------------------------------------------------------
def runtime_sequence(model: RuntimeFaultModel, rounds: int = 8) -> str:
    transfers = "".join(
        _TRANSFER_CODE[model.transfer_fault(tile, mode)]
        for _ in range(rounds)
        for tile, mode in TILES
    )
    invokes = _bits(
        model.invoke_fault(tile, mode) for _ in range(rounds) for tile, mode in TILES
    )
    return f"{transfers}|{invokes}"


def runtime_stochastic(seed: int) -> str:
    model = RuntimeFaultModel(seed=seed, rates={CRC: 0.2, STUCK: 0.1, HANG: 0.25})
    return runtime_sequence(model)


def runtime_injected_model() -> RuntimeFaultModel:
    model = RuntimeFaultModel(seed=4, rates={CRC: 0.15, HANG: 0.1})
    model.inject("rt0", "fft", CRC, count=2)
    model.inject("rt0", "fft", STUCK, count=1)
    model.inject("rt1", "change_detection", CRC, count=PERSISTENT)
    model.inject("rt1", "change_detection", CRC, count=3)
    model.inject("rt2", "hessian", HANG, count=PERSISTENT)
    model.inject("rt2", "hessian", STUCK, count=2)
    return model


def runtime_drawn(model: RuntimeFaultModel) -> dict:
    return {kind.value: count for kind, count in model.drawn.items()}


def recovery_backoffs(policy: RecoveryPolicy, seed: int) -> list:
    return [
        policy.backoff_before(attempt, seed, tile, mode)
        for tile, mode in TILES
        for attempt in range(1, 6)
    ]


CUSTOM_RECOVERY = RecoveryPolicy(
    max_attempts=5, backoff_s=0.004, factor=1.5, cap_s=0.01, jitter=1.0
)

RUNTIME_STOCHASTIC = {
    0: "----s----c-c----sc--s-c-|100001010000110000000100",
    1: "c---c------c-----s-s-scs|000100111010000000001000",
    7: "--c----s-------s--------|000001011100010100000000",
    42: "---c-cc-cc-c--cs---c--c-|100010100000100000000010",
}
RUNTIME_INJECTED = "ccsccssc-cc--c--cc-c--c-|001001101001001001001011"
RUNTIME_INJECTED_DRAWN = {"crc": 12, "stuck": 3, "hang": 10}
RECOVERY_BACKOFF_DEFAULT = {
    0: [
        0.0,
        0.0024497022353679927,
        0.0041078342720269,
        0.009601926012164598,
        0.019868116018000606,
        0.0,
        0.0024669452503421592,
        0.004757262119612408,
        0.009405202083708552,
        0.019653929545595517,
        0.0,
        0.0022911012979176942,
        0.004108998369537763,
        0.009986316970373957,
        0.018286981560178866,
    ],
    7: [
        0.0,
        0.002359761050580774,
        0.0049871653581755986,
        0.008661336046235554,
        0.019774771177446478,
        0.0,
        0.0020000848312842667,
        0.0041540653130251355,
        0.009774355643427128,
        0.016926655376028374,
        0.0,
        0.002167574717253212,
        0.004665085543400765,
        0.009836944644033422,
        0.01615540556623295,
    ],
}
RECOVERY_BACKOFF_CUSTOM = {
    0: [
        0.0,
        0.007597617882943942,
        0.006647005632161395,
        0.016208667054740694,
        0.01967029004500152,
        0.0,
        0.007735562002737277,
        0.010543572717674447,
        0.015323409376688487,
        0.019134823863988792,
        0.0,
        0.006328810383341553,
        0.006653990217226576,
        0.017938426366682806,
        0.015717453900447164,
    ],
    7: [
        0.0,
        0.0068780884046461925,
        0.01192299214905359,
        0.011976012208060001,
        0.019436927943616195,
        0.0,
        0.004000678650274133,
        0.0069243918781508144,
        0.016984600395422083,
        0.012316638440070932,
        0.0,
        0.005340597738025696,
        0.00999051326040459,
        0.0172662508981504,
        0.010388513915582378,
    ],
}
RUNTIME_FINGERPRINT = {
    "seed": 4,
    "rates": {"crc": 0.15, "hang": 0.1},
    "injected": {
        "rt0/fft/crc": 2,
        "rt0/fft/stuck": 1,
        "rt1/change_detection/crc": -1,
        "rt2/hessian/hang": -1,
        "rt2/hessian/stuck": 2,
    },
}


class TestRuntimeGolden:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_stochastic_sequences(self, seed):
        assert runtime_stochastic(seed) == RUNTIME_STOCHASTIC[seed]

    def test_injected_sequences(self):
        model = runtime_injected_model()
        assert runtime_sequence(model) == RUNTIME_INJECTED
        assert runtime_drawn(model) == RUNTIME_INJECTED_DRAWN

    def test_fresh_replays_the_injected_sequences(self):
        model = runtime_injected_model()
        runtime_sequence(model)
        assert runtime_sequence(model.fresh()) == RUNTIME_INJECTED

    @pytest.mark.parametrize("seed", (0, 7))
    def test_backoff_waits(self, seed):
        assert recovery_backoffs(DEFAULT_RECOVERY, seed) == RECOVERY_BACKOFF_DEFAULT[seed]
        assert recovery_backoffs(CUSTOM_RECOVERY, seed) == RECOVERY_BACKOFF_CUSTOM[seed]

    def test_fingerprint(self):
        assert runtime_injected_model().fingerprint() == RUNTIME_FINGERPRINT


# ----------------------------------------------------------------------
# service tier
# ----------------------------------------------------------------------
SERVICE_RATES = {
    ServiceFaultKind.WORKER_CRASH: 0.2,
    ServiceFaultKind.SLOW_WORKER: 0.1,
    ServiceFaultKind.STORE_IO: 0.15,
    ServiceFaultKind.TORN_WRITE: 0.1,
}


def service_sequence(model: ServiceFaultModel) -> str:
    executions = "".join(
        _SERVICE_CODE[model.execution_fault(job, attempt)]
        for job in SERVICE_JOBS
        for attempt in range(1, 9)
    )
    stores = "".join(
        _SERVICE_CODE[model.store_fault(job)]
        for _ in range(8)
        for job in SERVICE_JOBS
    )
    return f"{executions}|{stores}"


def service_injected_model() -> ServiceFaultModel:
    model = ServiceFaultModel(seed=6, rates=SERVICE_RATES, hang_s=2.5)
    model.inject(ServiceFaultKind.SLOW_WORKER, count=2)
    model.inject(ServiceFaultKind.WORKER_CRASH)
    model.inject(ServiceFaultKind.TORN_WRITE, count=3)
    return model


def service_backoffs(seed: int) -> list:
    model = ServiceFaultModel(seed=seed)
    return [
        model.backoff_s(job, attempt, 0.05, 0.3)
        for job in SERVICE_JOBS
        for attempt in range(0, 6)
    ]


SERVICE_STOCHASTIC = {
    0: "----c--c-s-s----|---i-iii----i-ii",
    1: "-c----c---c-----|------ti----ti--",
    7: "-sc---css--s-ccs|---t-----i----i-",
    42: "------cc--------|----i-ii------tt",
}
SERVICE_INJECTED = "css---s---------|ttt-i--t---i----"
SERVICE_INJECTED_FIRED = {"crash": 1, "slow": 3, "torn": 4, "io": 2}
SERVICE_BACKOFF = {
    0: [
        0.06024113296699331,
        0.0532413833568478,
        0.11100762450859092,
        0.21760716374418074,
        0.34988286541801666,
        0.3409530415217683,
        0.062121404738114665,
        0.0587524408009493,
        0.11125729932428557,
        0.23414791938158822,
        0.36784349611756767,
        0.3683412219190005,
    ],
    9: [
        0.05163422869998512,
        0.051967626237984337,
        0.11712400437821867,
        0.24651132323403402,
        0.34932812254980405,
        0.3093860374462694,
        0.052112588345414414,
        0.06111955376215877,
        0.10467128454190322,
        0.2495929374535678,
        0.3102033999306319,
        0.3602989737925203,
    ],
}
SERVICE_FINGERPRINT = {
    "seed": 6,
    "rates": {"crash": 0.2, "io": 0.15, "slow": 0.1, "torn": 0.1},
    "injected": {"crash": 1, "slow": 2, "torn": 3},
    "hang_s": 2.5,
}


class TestServiceGolden:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_stochastic_sequences(self, seed):
        model = ServiceFaultModel(seed=seed, rates=SERVICE_RATES)
        assert service_sequence(model) == SERVICE_STOCHASTIC[seed]

    def test_injected_sequences(self):
        model = service_injected_model()
        assert service_sequence(model) == SERVICE_INJECTED
        assert model.fired == SERVICE_INJECTED_FIRED

    @pytest.mark.parametrize("seed", (0, 9))
    def test_backoff_waits(self, seed):
        assert service_backoffs(seed) == SERVICE_BACKOFF[seed]

    def test_fingerprint(self):
        assert service_injected_model().fingerprint() == SERVICE_FINGERPRINT


# ----------------------------------------------------------------------
# client and store retry loops
# ----------------------------------------------------------------------
def _recorded_sleeps(monkeypatch) -> list:
    sleeps: list = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    return sleeps


def client_retry_sleeps(monkeypatch, seed: int) -> list:
    sleeps = _recorded_sleeps(monkeypatch)
    client = ServiceClient(retries=5, retry_backoff_s=0.05, seed=seed)

    def unreachable():
        raise ServiceUnavailable("connection refused")

    with pytest.raises(ServiceUnavailable):
        client._with_retries(unreachable)
    return sleeps


CLIENT_SLEEPS = {
    0: [
        0.055976873309435675,
        0.11468800485645525,
        0.2359770596426105,
        0.4777205833054141,
        0.9952512619536726,
    ],
    3: [
        0.06003156032863282,
        0.11266331760698312,
        0.220848932302383,
        0.4293660226781819,
        0.9006219014228783,
    ],
}
STORE_SLEEPS = [0.01, 0.02, 0.04, 0.01]


class TestRetryLoopsGolden:
    @pytest.mark.parametrize("seed", (0, 3))
    def test_client_retry_sleeps(self, monkeypatch, seed):
        assert client_retry_sleeps(monkeypatch, seed) == CLIENT_SLEEPS[seed]

    def test_store_retry_sleeps(self, monkeypatch, tmp_path):
        sleeps = _recorded_sleeps(monkeypatch)
        faults = ServiceFaultModel(seed=1)
        faults.inject(ServiceFaultKind.STORE_IO, count=5)
        store = JobStore(tmp_path, faults=faults)
        record = JobRecord(job_id="job-00000000-0001", spec=JobSpec(config="soc_3"))
        assert store.save_retrying(record, attempts=4, backoff_s=0.01) is False
        assert store.save_retrying(record, attempts=4, backoff_s=0.01) is True
        assert sleeps == STORE_SLEEPS
