"""The closed-loop phases every workload runs, and the oracle they check.

A *target* is one deployed instance reached in-process, through an
in-process serve session, or over the wire; it answers ``fib(ops)`` and
``link(link, up)`` with the step's latency and the verdict view after it.
The generator submits the next step only when the previous verdict is in
(Tulkun's callers are controllers that wait before committing the next
change), so all load here is closed loop with one outstanding step.

Measured time is sliced into rounds of single / link / batch so that each
metric samples the whole run: this host's speed drifts by several percent
over seconds, and a metric measured in one contiguous block inherits the
drift of that block.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from benchmarks.e2e.streams import GROUPS, FibOp, StreamPlan

__all__ = ["MIN_P95_SAMPLES", "Reference", "replay_reference", "PhaseRunner",
           "quantile"]

ROUNDS = 10
# Share of the measured seconds per phase.  `single` gets the most: at the
# wire floor of ~44 ms a step it needs >= 9 s for the 200 samples p95 asks.
SHARES = {"single": 0.55, "link": 0.20, "batch": 0.25}
MIN_P95_SAMPLES = 200
MAX_FAILURE_NOTES = 8

Statuses = Mapping[str, str]


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile, ``q`` in [0, 1].  The benchmark's own
    (not ``repro.sim.metrics.percentile``): a change under ``src/`` must not
    be able to move how a gated metric is computed."""
    data = sorted(values)
    rank = q * (len(data) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (rank - lo)


# ----------------------------------------------------------------------
# Reference replay
# ----------------------------------------------------------------------
@dataclass
class Reference:
    """What the verdicts must be after every kind of step, obtained by
    replaying one period through ``TulkunRunner`` directly on an instance
    other than the measured one.  Stored as differences from ``deployed``."""

    deployed: Dict[str, str]
    after_unit: List[Dict[str, str]]
    after_group: List[Dict[str, str]]
    after_link: List[Dict[str, str]]
    problems: List[str] = field(default_factory=list)


def _diff(deployed: Statuses, now: Statuses) -> Dict[str, str]:
    return {name: s for name, s in now.items() if deployed.get(name) != s}


def replay_reference(runner, plan: StreamPlan, renderer) -> Reference:
    """Replay one period on a deployed runner (left in the deployed state).

    The by-construction expectations are checked here: every blackhole or
    tenant op flips its invariant, and every undo restores the deployment."""
    deployed = dict(runner.statuses())
    ref = Reference(deployed, [], [], [])

    def settle(label: str) -> None:
        if runner.statuses() != deployed:
            ref.problems.append(f"reference: {label} did not restore verdicts")

    def check_flips(ops: Sequence[FibOp], now: Statuses) -> None:
        for op in ops:
            if op.flips and now.get(op.flips[0]) != op.flips[1]:
                ref.problems.append(
                    f"reference: {op.family} on {op.device} left "
                    f"{op.flips[0]} {now.get(op.flips[0])}, not {op.flips[1]}"
                )

    for index, (change, undo) in enumerate(plan.units):
        runner.apply_updates([renderer.render(change)])
        now = runner.statuses()
        check_flips([change], now)
        ref.after_unit.append(_diff(deployed, now))
        runner.apply_updates([renderer.render(undo)])
        check_flips([undo], runner.statuses())
        settle(f"unit {index}")
    batches = plan.batches()
    for g in range(GROUPS):
        changes, undos = batches[2 * g], batches[2 * g + 1]
        runner.apply_updates([renderer.render(op) for op in changes])
        now = runner.statuses()
        check_flips(changes, now)
        ref.after_group.append(_diff(deployed, now))
        runner.apply_updates([renderer.render(op) for op in undos])
        settle(f"group {g}")
    for link in plan.links:
        runner.fail_links([link])
        ref.after_link.append(_diff(deployed, runner.statuses()))
        runner.recover_links([link])
        settle(f"link {link}")
    return ref


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------
class PhaseRunner:
    """Drives one target through warmup and the measured rounds and checks
    the verdict view after every step: against the reference when there is
    one, and always that a flip op flipped and an undo restored the
    deployed verdicts.

    ``probe`` (traced runs) returns cumulative counters; their growth is
    summed per phase into ``probed`` so layer costs can be told apart by
    the kind of step that caused them."""

    def __init__(
        self,
        target,
        plan: StreamPlan,
        reference: Optional[Reference],
        probe: Optional[Callable[[], Dict[str, float]]] = None,
    ) -> None:
        self.target = target
        self.plan = plan
        self.batches = plan.batches()
        self.probe = probe
        self.probed: Dict[str, Dict[str, float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.single: List[float] = []
        self.link_samples: Dict[Tuple[int, bool], List[float]] = {}
        self.batch: List[float] = []   # seconds per batch epoch
        self.batch_ops = 0
        # Cursors persist across rounds so slices walk the whole cycle.
        self._unit = 0
        self._group = 0
        self._link = 0
        self.deployed = dict(target.deployed)
        nothing = [None] * len(plan.units)
        self.expect_unit = self.expect_group = self.expect_link = nothing
        if reference is not None:
            merged = lambda diff: {**reference.deployed, **diff}  # noqa: E731
            self.expect_unit = [merged(d) for d in reference.after_unit]
            self.expect_group = [merged(d) for d in reference.after_group]
            self.expect_link = [merged(d) for d in reference.after_link]
            for problem in reference.problems:
                self.fail(1, problem)
            if self.deployed != reference.deployed:
                self.fail(1, "deployed verdicts differ from the reference's")

    # -- bookkeeping ----------------------------------------------------
    def fail(self, ops: int, note: str) -> None:
        self.failed += ops
        if len(self.failures) < MAX_FAILURE_NOTES:
            self.failures.append(note)

    def absorb(self, other: "PhaseRunner") -> None:
        """Count another runner's ops and failures as this run's."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures

    def _check(self, ops: Sequence[FibOp], count: int, step, expected,
               label: str) -> None:
        _seconds, view, ok = step
        self.attempted += count
        flipped = all(
            view.get(op.flips[0]) == op.flips[1] for op in ops if op.flips
        )
        if not ok:
            self.fail(count, f"{label}: the target reported an error")
        elif not flipped:
            self.fail(count, f"{label}: the verdict did not flip as it must")
        elif expected is not None and view != expected:
            wrong = sorted(n for n in expected if view.get(n) != expected[n])
            self.fail(count, f"{label}: verdicts differ on {wrong[:4]}")

    # -- one unit of each phase ------------------------------------------
    def _single_unit(self, record: bool) -> None:
        index = self._unit
        self._unit = (index + 1) % len(self.plan.units)
        change, undo = self.plan.units[index]
        for op, expected in ((change, self.expect_unit[index]),
                             (undo, self.deployed)):
            step = self.target.fib([op])
            if record:
                self.single.append(step[0])
            self._check([op], 1, step, expected, f"{op.family} on {op.device}")

    def _link_unit(self, record: bool) -> None:
        index = self._link
        self._link = (index + 1) % len(self.plan.links)
        link = self.plan.links[index]
        for up, expected in ((False, self.expect_link[index]),
                             (True, self.deployed)):
            step = self.target.link(link, up)
            if record:
                self.link_samples.setdefault((index, up), []).append(step[0])
            self._check((), 1, step, expected,
                        f"link {link[0]}-{link[1]} {'up' if up else 'down'}")

    def _batch_unit(self, record: bool) -> None:
        g = self._group
        self._group = (g + 1) % GROUPS
        for undo, expected in ((False, self.expect_group[g]),
                               (True, self.deployed)):
            ops = self.batches[2 * g + undo]
            step = self.target.fib(ops)
            if record:
                self.batch.append(step[0])
                self.batch_ops += len(ops)
            self._check(ops, len(ops), step, expected, f"batch group {g}")

    # -- phases ----------------------------------------------------------
    def warmup(self) -> float:
        """One period, untimed: every op once in the batch rendering (the
        single rendering would cost 11 s at the wire floor), every link
        once, and a handful of single-op units.  Returns its wall time,
        which is part of ``setup_s``."""
        start = time.perf_counter()
        for _ in range(GROUPS):
            self._batch_unit(record=False)
        for _ in self.plan.links:
            self._link_unit(record=False)
        for _ in range(4):
            self._single_unit(record=False)
        return time.perf_counter() - start

    def measure(self, seconds: float, rounds: int = ROUNDS,
                shares: Mapping[str, float] = SHARES) -> None:
        units = {"single": self._single_unit, "link": self._link_unit,
                 "batch": self._batch_unit}
        gc.collect()  # once; the collector then runs as shipped
        for _ in range(rounds):
            for phase, share in shares.items():
                step = units[phase]
                budget = seconds * share / rounds
                before = self.probe() if self.probe else {}
                start = time.perf_counter()
                # Whole units only: each slice ends in the deployed state.
                while time.perf_counter() - start < budget:
                    step(record=True)
                if self.probe:
                    sums = self.probed.setdefault(phase, {})
                    for key, value in self.probe().items():
                        sums[key] = sums.get(key, 0.0) + value - before.get(key, 0.0)

    # -- metrics ---------------------------------------------------------
    def end_to_end(self, min_samples: int = MIN_P95_SAMPLES) -> Dict[str, float]:
        """The stream metrics (ms, 1/s); raises if a phase is too short."""
        if len(self.single) < min_samples:
            raise RuntimeError(
                f"only {len(self.single)} single-update samples; p95 needs "
                f"{min_samples} - measure for longer"
            )
        if (len(self.link_samples) < 2 * len(self.plan.links)
                or len(self.batch) < 2 * GROUPS):
            raise RuntimeError(
                "not every link event and batch epoch of the period was "
                "sampled - measure for longer"
            )
        return {
            "update_latency_p50_ms": quantile(self.single, 0.50) * 1e3,
            "update_latency_p80_ms": quantile(self.single, 0.80) * 1e3,
            "update_latency_p95_ms": quantile(self.single, 0.95) * 1e3,
            "link_event_mean_ms": self.link_mean() * 1e3,
            "updates_per_s": self.batch_rate(),
        }

    # A full collection of the heap costs as much as ten batch epochs
    # (200 ms on burst_ft8) and a run sees a dozen, landing in whichever
    # steps the allocation count decides - summed times moved by a quarter
    # between runs for that alone.  Hence medians, which a minority of
    # paused steps cannot move.
    def link_mean(self) -> float:
        """Link events come in 14 kinds (7 links, down and up) of very
        different cost: each kind is summarised by its median and counts
        once, so a truncated last cycle does not weigh its links twice."""
        return statistics.fmean(
            statistics.median(kind) for kind in self.link_samples.values()
        )

    def batch_rate(self) -> float:
        """FIB ops per second at the typical epoch.  The groups carry the
        same family mix, so the epochs form one population."""
        return len(self.batches[0]) / statistics.median(self.batch)

    def finish(self) -> None:
        """After the phases the deployment must be back where it started,
        and whatever else the target can check about itself must hold."""
        self.attempted += 1
        if self.target.final_statuses() != self.deployed:
            self.fail(1, "verdicts after the phases differ from the deployed ones")
        for problem in self.target.problems():
            self.fail(1, problem)
