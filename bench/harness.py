"""Closed-loop round runner, layer-call tracer and metric derivation.

A workload is a fixed list of jobs.  A round runs every job once, one at a
time, and is timed as a batch; each job is timed on its own as well.  The
correctness checks run after the batch, outside every timed span.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Optional

# A job's tail time is read at the highest percentile that still leaves this
# many jobs beyond it in a run of the workload's minimum number of rounds.
TAIL_BEYOND = 10


class CheckFailed(Exception):
    """A job's output failed its correctness check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Job:
    """One request of the closed loop.

    `run` makes the layer calls through the tracer and returns the raw
    outputs; `check` verifies them and returns a JSON-able summary of the
    verdicts, counts and certificates, which goes into the run's digest.
    """

    name: str
    run: Callable[["Tracer"], Any]
    check: Callable[[Any], Any]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing job span; None for a job span
    job: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records one span per layer call while enabled; a plain call otherwise."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self._parent: Optional[int] = None
        self._job = 0

    def call(self, name: str, fn: Callable, *args, attrs: Optional[Callable[[Any], dict]] = None, **kwargs):
        """Call `fn`; when tracing, record a span named after the layer call.
        `attrs` maps the result to counts (found, subsets, ...) and is
        evaluated after the span has ended."""
        if not self.enabled:
            return fn(*args, **kwargs)
        start = perf_counter()
        out = fn(*args, **kwargs)
        end = perf_counter()
        self.spans.append(Span(name, start, end, self._parent, self._job, attrs(out) if attrs else {}))
        return out

    def open_job(self, job_id: int, name: str) -> int:
        self.spans.append(Span(name, 0.0, 0.0, None, job_id))
        self._parent = len(self.spans) - 1
        self._job = job_id
        return self._parent


@dataclass
class RoundResult:
    traced: bool
    wall_s: float
    job_s: list[float]
    summaries: list[Any]
    failures: list[str]


def run_round(jobs: list[Job], tracer: Tracer, traced: bool, first_job_id: int) -> RoundResult:
    """Run every job once, closed loop, then check all outputs."""
    tracer.enabled = traced
    outputs: list[tuple[Any, Optional[BaseException]]] = []
    job_s: list[float] = []
    batch_start = perf_counter()
    for i, job in enumerate(jobs):
        span = tracer.open_job(first_job_id + i, job.name) if traced else None
        start = perf_counter()
        try:
            out, err = job.run(tracer), None
        except Exception as exc:  # a job that raises counts as failed; the run goes on
            out, err = None, exc
        end = perf_counter()
        if span is not None:
            tracer.spans[span].start, tracer.spans[span].end = start, end
        job_s.append(end - start)
        outputs.append((out, err))
    wall = perf_counter() - batch_start
    tracer.enabled = False

    summaries: list[Any] = []
    failures: list[str] = []
    for job, (out, err) in zip(jobs, outputs):
        summary = None
        if err is None:
            try:
                summary = job.check(out)
            except Exception as exc:  # includes CheckFailed
                err = exc
        if err is not None:
            failures.append(f"{job.name}: {type(err).__name__}: {err}")
        summaries.append(summary)
    return RoundResult(traced, wall, job_s, summaries, failures)


def run_rounds(jobs: list[Job], seconds: float, min_rounds: int, trace: bool) -> tuple[list[RoundResult], Tracer, list[str]]:
    """Rounds until `seconds` have passed (never fewer than `min_rounds`).

    A new round starts only if a round of median length still fits.  In a
    traced run the rounds alternate untraced and traced, so the tracing
    overhead is measured on the same inputs in the same process.  Every
    round must reproduce the first round's summaries exactly.
    """
    tracer = Tracer()
    rounds: list[RoundResult] = []
    mismatches: list[str] = []
    start = perf_counter()
    durations: list[float] = []
    while True:
        traced = trace and len(rounds) % 2 == 1
        round_start = perf_counter()
        result = run_round(jobs, tracer, traced, len(rounds) * len(jobs))
        durations.append(perf_counter() - round_start)
        if rounds:
            for job, first, now in zip(jobs, rounds[0].summaries, result.summaries):
                if now is not None and first is not None and _canonical(now) != _canonical(first):
                    mismatches.append(f"{job.name}: round {len(rounds)} differs from round 0")
        rounds.append(result)
        elapsed = perf_counter() - start
        if len(rounds) >= min_rounds and elapsed + statistics.median(durations) > seconds:
            return rounds, tracer, mismatches


# ---------------------------------------------------------------------------
# metrics


def tail_percentile(jobs_per_round: int, min_rounds: int) -> float:
    """Highest percentile with TAIL_BEYOND jobs beyond it in the shortest run."""
    return 100.0 * (1.0 - TAIL_BEYOND / (jobs_per_round * min_rounds))


def nearest_rank(sorted_values: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(round(percentile / 100.0 * len(sorted_values), 9)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def end_to_end(rounds: list[RoundResult], jobs_per_round: int, min_rounds: int) -> dict:
    """End-to-end timings from the untraced rounds of a run.

    `wall_s` is the mean round: the machine's speed drifts over tens of
    seconds, and the mean over all rounds of a run varied less between
    runs than their median.

    The median job is taken over each job's mean time across the rounds.
    The machine's speed switches between states tens of percent apart
    within seconds, and the median of raw job times jumps between those
    states; the mean over repetitions moves smoothly with their mix.  The
    tail is taken over all job times of all rounds.
    """
    plain = [r for r in rounds if not r.traced]
    times = sorted(t for r in plain for t in r.job_s)
    per_job = [statistics.fmean(ts) for ts in zip(*(r.job_s for r in plain))]
    pct = tail_percentile(jobs_per_round, min_rounds)
    tail, beyond = nearest_rank(times, pct)
    return {
        "wall_s": statistics.fmean(r.wall_s for r in plain),
        "job_ms_p50": 1000.0 * statistics.median(per_job),
        "job_ms_tail": 1000.0 * tail,
        "tail_percentile": pct,
        "tail_beyond": beyond,
        "jobs_timed": len(times),
        "rounds_timed": len(plain),
    }


def layer_metrics(rounds: list[RoundResult], spans: list[Span]) -> dict:
    """Per-layer busy time, calls and ratios, per traced round.

    Rates (`*_per_s`) divide the work a span reports by the span's busy
    time.  A layer's `found_frac` is the share of its calls that returned
    a witness.
    """
    traced = [r for r in rounds if r.traced]
    n_rounds = max(1, len(traced))
    by_name: dict[str, list[Span]] = {}
    job_total = covered = 0.0
    for s in spans:
        if s.parent is None:
            job_total += s.end - s.start
        else:
            covered += s.end - s.start
            by_name.setdefault(s.name, []).append(s)
    out: dict[str, float] = {}
    for name, group in by_name.items():
        busy = sum(s.end - s.start for s in group)
        out[f"{name}.calls"] = len(group) / n_rounds
        out[f"{name}.busy_s"] = busy / n_rounds
        flags = [s.attrs["found"] for s in group if "found" in s.attrs]
        if flags:
            out[f"{name}.found_frac"] = sum(flags) / len(flags)
        for key in ("subsets", "pairs", "steps", "points"):
            work = sum(s.attrs.get(key, 0) for s in group)
            if work:
                out[f"{name}.{key}_per_s"] = work / busy
    traced_wall = statistics.median(r.wall_s for r in traced) if traced else 0.0
    plain_wall = statistics.median(r.wall_s for r in rounds if not r.traced)
    out["trace.overhead_s"] = traced_wall - plain_wall if traced else 0.0
    out["trace.uncovered_s"] = (job_total - covered) / n_rounds
    out["trace.uncovered_frac"] = (job_total - covered) / job_total if job_total else 0.0
    return out


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)


def digest(value: Any) -> str:
    return hashlib.sha256(_canonical(value).encode()).hexdigest()
