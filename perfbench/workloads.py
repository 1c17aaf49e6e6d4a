"""The benchmark's workloads: inputs, timed rounds and correctness checks.

Every workload derives its inputs from the run seed, drives only public
entry points of the program, and repeats one fixed *round* of work, so
rounds of one run are comparable and work counters repeat exactly for a
seed.  Why each workload exists:

* ``campaign-serial`` -- ``run_campaign`` on unprotected ``isort``, in
  process.  Nearly all its time is interpreter work (``ir.interp``), so
  fast-forward, reconvergence exits and interpreter changes show here.
  It runs no masking analysis and no pool.
* ``campaign-pruned`` -- ``run_campaign_pruned`` on ``checksum`` under
  FULL_DMR, swept over a few seeds of one module.  Every call runs its own
  masking analysis and planning replay and executes only the trials the
  analysis cannot prove benign; its outcomes include DETECTED.  A trial
  speed-up that makes planning dearer shows here.
* ``campaign-pool`` -- the ``campaign-serial`` campaigns on the warm
  process pool with one worker per available CPU.  It is the only
  workload that measures ``faults.parallel`` and ``perf.pool``.
* ``service-storm`` -- the mission-control service replaying a seeded
  storm-burst recording of 64 boards: sequential backend, one shard,
  eight ticks in flight, default snapshot cadence.  Its time is spread
  over the ``service`` layers and ``detect.fleet``; it interprets no IR.
"""

from __future__ import annotations

import dataclasses
import math
import os
import statistics
import subprocess
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.core.dmr import ProtectionLevel, instrument_module
from repro.core.sel import SelTrialConfig, train_detector_on_clean_trace
from repro.detect import FleetConfig, ResidualCusumDetector
from repro.faults.campaign import (
    Campaign,
    classify_trial,
    run_campaign,
    run_campaign_pruned,
    trial_fuel_for,
)
from repro.faults.parallel import available_cpus
from repro.faults.seu import RegisterFaultInjector
from repro.ir.refinterp import ReferenceInterpreter
from repro.service import (
    AsyncFleetService,
    ReplaySource,
    ServiceConfig,
    make_members,
    record_fleet_telemetry,
    run_replay_reference,
    storm_timeline,
)
from repro.workloads.irprograms import PROGRAMS, build_program


@dataclass
class Call:
    """One timed call of a program entry point.

    Attributes:
        elapsed_s: wall time inside the entry point.
        items: outputs it produced (trial records or telemetry rows).
        key: the input the call ran on (campaign seed; 0 for the service).
        output: what the correctness check compares with the reference.
        latency: the service's own decision-latency summary (seconds).
    """

    elapsed_s: float
    items: int
    key: int
    output: object
    latency: dict | None = None


def derive_seeds(seed: int, workload: str, n: int) -> list[int]:
    """``n`` input seeds for ``workload``, a pure function of ``seed``."""
    sequence = np.random.SeedSequence(
        [seed & (2**64 - 1), zlib.crc32(workload.encode())]
    )
    return [int(x) for x in sequence.generate_state(n)]


def nearest_rank(values: list[float], p: float) -> float:
    """Nearest-rank percentile: always an observed sample."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


def trials_equal(x, y) -> bool:
    """Trial records equal field by field (NaN equals NaN)."""
    return (
        x.spec == y.spec
        and x.outcome is y.outcome
        and x.cycles == y.cycles
        and _same(x.value, y.value)
        and _same(x.rel_error, y.rel_error)
    )


# -- campaigns -----------------------------------------------------------------


class CampaignWorkload:
    """A seed sweep of one campaign; a round runs every seed once.

    Latency is the wall time of one campaign call.  A campaign call is
    the result its user waits for; there is no finer request to time
    from outside the engine.
    """

    program = "isort"
    protection: ProtectionLevel | None = None
    n_trials = 200
    n_seeds = 4
    tiny_trials = 24
    tail_percentile = 75.0
    item = "trials"
    #: Setup is a few milliseconds; many repeats steady its median.
    setup_repeats = 51

    def __init__(self, name: str, seed: int, tiny: bool) -> None:
        self.name = name
        if tiny:
            self.n_trials = self.tiny_trials
            self.n_seeds = 2
        self.seeds = derive_seeds(seed, name, self.n_seeds)

    def prepare(self, root: Path) -> None:
        """Inputs are derived in memory; nothing to load."""

    def setup(self) -> Campaign:
        """build_program, then instrument_module, then the Campaign."""
        module = build_program(self.program)
        if self.protection is not None:
            module, _plans = instrument_module(module, self.protection)
        return Campaign(
            module=module,
            func_name=self.program,
            args=PROGRAMS[self.program].default_args,
            n_trials=self.n_trials,
        )

    def call(self, campaign: Campaign, seed: int):
        return run_campaign(campaign, seed=seed)

    def round(self, campaign: Campaign) -> list[Call]:
        calls = []
        for seed in self.seeds:
            started = perf_counter()
            result = self.call(campaign, seed)
            elapsed = perf_counter() - started
            calls.append(Call(elapsed, len(result.trials), seed, result))
        return calls

    def latency(self, rounds: list[list[Call]]) -> tuple[float, float, str]:
        """(p50 ms, tail ms, how the tail was taken)."""
        samples = [call.elapsed_s * 1e3 for r in rounds for call in r]
        beyond = sum(
            1 for s in samples
            if s > nearest_rank(samples, self.tail_percentile)
        )
        return (
            statistics.median(samples),
            nearest_rank(samples, self.tail_percentile),
            f"campaign-call latency, p{self.tail_percentile:g} over "
            f"{len(samples)} calls ({beyond} beyond it)",
        )

    def reference(self, campaign: Campaign, warm: list[Call]) -> dict:
        """Serial ``run_campaign`` trial records per seed."""
        return {
            seed: run_campaign(campaign, seed=seed).trials
            for seed in self.seeds
        }

    def check(self, calls: list[Call], reference: dict) -> tuple[int, int]:
        """(attempted, failed): trial records that differ from reference."""
        attempted = failed = 0
        for call in calls:
            expected = reference[call.key]
            trials = call.output.trials
            attempted += len(expected)
            failed += abs(len(trials) - len(expected)) + sum(
                not trials_equal(x, y) for x, y in zip(trials, expected)
            )
        return attempted, failed

    def corrupt(self, reference: dict) -> None:
        """Alter one reference record (the self-test's planted defect)."""
        trials = list(reference[self.seeds[0]])
        trials[0] = dataclasses.replace(trials[0], cycles=trials[0].cycles + 1)
        reference[self.seeds[0]] = trials

    def work(self, rounds: list[list[Call]]) -> dict[str, int]:
        calls = [call for r in rounds for call in r]
        work = {
            "campaign_calls": len(calls),
            "trials": sum(c.items for c in calls),
        }
        for call in calls:
            for outcome, n in call.output.counts.as_dict().items():
                work[outcome] = work.get(outcome, 0) + n
        return work


class SerialCampaign(CampaignWorkload):
    #: Every ``oracle_stride``-th trial of each seed is replayed on the
    #: reference interpreter.
    oracle_stride = 25

    def reference(self, campaign: Campaign, warm: list[Call]) -> dict:
        """The warm-up records, with a fixed subset replaced by replays
        on :class:`ReferenceInterpreter` under the same resolved fault.

        Every measured call must equal the warm-up call of its seed
        (determinism), and the subset must agree with the oracle.
        """
        reference = {}
        for call in warm:
            result = call.output
            golden = result.golden
            fuel = trial_fuel_for(campaign, golden)
            trials = list(result.trials)
            for index in range(0, len(trials), self.oracle_stride):
                injector = RegisterFaultInjector(trials[index].spec, seed=0)
                replay = ReferenceInterpreter(
                    campaign.module,
                    cost_model=campaign.cost_model,
                    fuel=fuel,
                    step_hook=injector,
                ).run(campaign.func_name, list(campaign.args))
                trials[index] = classify_trial(
                    campaign, golden, injector, replay
                )
            reference[call.key] = trials
        return reference


class PrunedCampaign(CampaignWorkload):
    program = "checksum"
    protection = ProtectionLevel.FULL_DMR
    n_trials = 300
    n_seeds = 3
    tiny_trials = 40

    def call(self, campaign: Campaign, seed: int):
        return run_campaign_pruned(campaign, seed=seed)


class PoolCampaign(CampaignWorkload):
    def __init__(self, name: str, seed: int, tiny: bool) -> None:
        super().__init__(name, seed, tiny)
        self.workers = available_cpus()

    def call(self, campaign: Campaign, seed: int):
        return run_campaign(campaign, seed=seed, workers=self.workers)


# -- mission-control service ---------------------------------------------------

RATE_HZ = 10.0
STORM_SEL_RATE = 400.0


class ServiceStorm:
    """E18's storm replay; a round is one ``AsyncFleetService.run``.

    A round replays 1000 ticks, so the p99 decision latency has at least
    ten ticks beyond it (all rows of one tick share one latency).
    """

    item = "rows"
    tail_percentile = 99.0
    setup_repeats = 25

    def __init__(self, name: str, seed: int, tiny: bool) -> None:
        self.name = name
        self.seed = seed
        self.tiny = tiny
        self.n_boards = 8 if tiny else 64
        self.n_ticks = 100 if tiny else 1000
        self.member_seed, self.storm_seed, self.latchup_seed = derive_seeds(
            seed, name, 3
        )
        self.rows: np.ndarray | None = None

    # The load: recorded once per seed, outside all timing, and cached.

    def telemetry_path(self, root: Path) -> Path:
        return root / ".perfbench_cache" / (
            f"telemetry-v1-{self.n_boards}x{self.n_ticks}-{self.seed}.npy"
        )

    def record(self, path: Path) -> None:
        duration = self.n_ticks / RATE_HZ
        rows = record_fleet_telemetry(
            make_members(self.n_boards, seed=self.member_seed),
            duration_s=duration,
            rate_hz=RATE_HZ,
            timeline=storm_timeline(
                seed=self.storm_seed, onset_s=duration / 4.0
            ),
            sel_rate_per_board_day=STORM_SEL_RATE,
            timeline_seed=self.latchup_seed,
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        partial = path.with_suffix(f".{os.getpid()}.partial.npy")
        np.save(partial, rows)
        os.replace(partial, path)

    def prepare(self, root: Path) -> None:
        """Load the recording, recording it in a child process on a miss
        (so the recorder's memory stays out of this run's peak RSS)."""
        path = self.telemetry_path(root)
        if not path.exists():
            command = [
                sys.executable, str(Path(__file__).with_name("run.py")),
                "--workload", self.name, "--seed", str(self.seed),
                "--record-telemetry", str(path),
            ] + (["--tiny"] if self.tiny else [])
            subprocess.run(command, check=True, timeout=150)
        self.rows = np.load(path)

    def _members(self):
        return make_members(self.n_boards, seed=self.member_seed)

    def _service(self, detector) -> AsyncFleetService:
        return AsyncFleetService(
            detector,
            self._members(),
            config=FleetConfig(),
            service=ServiceConfig(
                n_shards=1, strategy="sequential", max_inflight_ticks=8
            ),
            source=ReplaySource(self.rows),
        )

    def setup(self):
        """train_detector_on_clean_trace, then constructing the service."""
        detector = train_detector_on_clean_trace(
            ResidualCusumDetector(h_sigma=40.0),
            SelTrialConfig(train_duration_s=60.0),
            seed=11,
        )
        self._service(detector)
        return detector

    def round(self, detector) -> list[Call]:
        service = self._service(detector)
        started = perf_counter()
        report = service.run(
            duration_s=self.n_ticks / RATE_HZ, rate_hz=RATE_HZ
        )
        elapsed = perf_counter() - started
        output = (
            service.alarm_times(),
            service.reboot_times(),
            service.health_rollup().merge_key(),
            report.rows_shed,
        )
        return [
            Call(elapsed, report.rows_processed, 0, output, report.latency)
        ]

    def latency(self, rounds: list[list[Call]]) -> tuple[float, float, str]:
        """Median over rounds of the service's own p50 / p99."""
        summaries = [call.latency for r in rounds for call in r]
        return (
            statistics.median(s["p50"] for s in summaries) * 1e3,
            statistics.median(s["p99"] for s in summaries) * 1e3,
            f"decision latency (enqueue to applied decision), median of "
            f"{len(summaries)} service runs; each run {self.n_ticks} "
            f"tick samples (x1 shard), {int(summaries[0]['count'])} rows",
        )

    def reference(self, detector, warm: list[Call]):
        return run_replay_reference(
            detector, self._members(), self.rows, rate_hz=RATE_HZ
        )

    def check(self, calls: list[Call], reference) -> tuple[int, int]:
        """(rows offered, rows shed or with a differing decision history)."""
        expected_key = reference.health.merge_key()
        attempted = failed = 0
        for call in calls:
            alarms, reboots, key, shed = call.output
            rows = self.n_ticks * self.n_boards
            bad_boards = {
                board
                for got, want in (
                    (alarms, reference.alarm_times),
                    (reboots, reference.reboot_times),
                )
                for board in set(got) | set(want)
                if got.get(board, []) != want.get(board, [])
            }
            bad = shed + len(bad_boards) * self.n_ticks
            if key != expected_key:
                bad = rows
            attempted += rows
            failed += min(bad, rows)
        return attempted, failed

    def corrupt(self, reference) -> None:
        reference.alarm_times.setdefault("board-000", []).append(-1.0)

    def work(self, rounds: list[list[Call]]) -> dict[str, int]:
        calls = [call for r in rounds for call in r]
        return {
            "service_runs": len(calls),
            "rows": sum(c.items for c in calls),
            "alarms": sum(
                len(v) for c in calls for v in c.output[0].values()
            ),
            "reboots": sum(
                len(v) for c in calls for v in c.output[1].values()
            ),
            "rows_shed": sum(c.output[3] for c in calls),
        }


WORKLOADS = {
    "campaign-serial": SerialCampaign,
    "campaign-pruned": PrunedCampaign,
    "campaign-pool": PoolCampaign,
    "service-storm": ServiceStorm,
}
