"""The four operation families the benchmark times.

Each family turns a seed into inputs (:meth:`prepare`, the set-up the
benchmark times as ``setup_s``) and runs one *op* over them: a fixed
amount of work made of top-level calls into the program's public API —
stream runs, exact solves, adversary searches, or pipeline runs with a
strict verify.  An op returns one output record per top-level call, so
the harness can compare repeats, traced against untraced runs, and the
reference values, call by call.

When a :class:`~layertrace.LayerTrace` is passed, the op also installs
the per-object wrappers it alone can reach (the session's source, its
admission layer and its scheme) and adds the layer counts read off the
results (nodes, prunes, evaluations, engine counters).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.algorithms.dlru_edf import DeltaLRUEDF
from repro.analysis.adversary_search import SearchConfig, search_adversary
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import SeriesRecorder
from repro.offline.heuristic import best_offline_heuristic
from repro.offline.lower_bounds import combined_lower_bound
from repro.offline.optimal import optimal_offline
from repro.reductions.pipeline import run_pipeline
from repro.simulation.engine import simulate
from repro.streaming import (
    AdmissionPolicy,
    StreamCheckpoint,
    StreamSession,
    rate_limited_source,
)
from repro.workloads.poisson import poisson_general
from repro.workloads.random_batched import random_general

#: Bound sources :func:`optimal_offline` attributes prunes to.
PRUNE_SOURCES = (
    "dominance",
    "rds",
    "relaxation",
    "phase",
    "drop_floor",
    "reconfig_floor",
    "terminal",
)


def derive(seed: int, *parts) -> int:
    """A 32-bit seed that is a pure function of ``seed`` and ``parts``."""
    text = ":".join(str(part) for part in (seed, *parts))
    digest = hashlib.blake2b(text.encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big")


@dataclass
class OpResult:
    """One op: per-piece wall times, per-call outputs and what went wrong.

    ``pieces`` times the op's fixed pieces of work in a fixed order (one
    per top-level call; for a stream run, the warm-up and then each
    measured segment), so repeats of the op can be compared piece by
    piece.  ``work`` is the work each piece did, in the family's unit
    (rounds, evaluations or jobs; ``None`` where no rate is reported).
    """

    pieces: list = field(default_factory=list)
    work: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    attempted: int = 0
    errors: list = field(default_factory=list)
    #: Output checks to run after tracing is removed and timing stopped;
    #: each returns an error message or ``None``.
    checks: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.errors.append(message)

    @property
    def seconds(self) -> float:
        return sum(self.pieces)


# --------------------------------------------------------------- stream

STREAM_COLORS = 16
STREAM_DELTA = 32
STREAM_RESOURCES = 16
STREAM_COPIES = 2
STREAM_LOAD = 0.5
STREAM_QUEUE_CAP = 16
SEGMENT_ROUNDS = 512
CHECKPOINT_EVERY = 4 * SEGMENT_ROUNDS


class StreamFamily:
    """``StreamSession`` over ``rate_limited_source(16, 32, load=0.5)``:
    ΔLRU-EDF on 16 resources at ``copies=2`` (8 cache slots for 16
    colours), sparse engine, queue cap 16, metrics registry and series
    recorder attached, a checkpoint every 4 segments.  One op is one
    stream run: warm-up segments, then measured segments timed one by
    one."""

    name = "stream"

    def __init__(self, warmup_segments: int, measured_segments: int) -> None:
        self.warmup_segments = warmup_segments
        self.measured_segments = measured_segments

    def prepare(self, seed: int) -> int:
        stream_seed = derive(seed, "stream")
        self._session(stream_seed)
        return stream_seed

    @staticmethod
    def _session(stream_seed: int) -> StreamSession:
        registry = MetricsRegistry()
        return StreamSession(
            rate_limited_source(
                STREAM_COLORS, STREAM_DELTA, seed=stream_seed, load=STREAM_LOAD
            ),
            DeltaLRUEDF(),
            STREAM_RESOURCES,
            engine="sparse",
            copies=STREAM_COPIES,
            policy=AdmissionPolicy(queue_cap=STREAM_QUEUE_CAP),
            registry=registry,
            recorder=SeriesRecorder(registry),
            segment_rounds=SEGMENT_ROUNDS,
            name="perfbench",
        )

    def run(self, stream_seed: int, workdir: Path, trace=None) -> OpResult:
        op = OpResult(attempted=1)
        session = self._session(stream_seed)
        path = workdir / f"stream-{stream_seed}.json"
        run = session.run
        if trace is not None:
            trace.patch(
                session.source,
                "batch",
                "streaming.sources.batch",
                lambda jobs, _: trace.count("streaming.sources.jobs", len(jobs)),
            )
            trace.patch(session.ingest, "admit", "streaming.ingest.admit")
            trace.patch(session.scheme, "reconfigure", "algorithms.reconfigure")
            run = trace.wrap("streaming.session.run", run)
        # The warm-up is one piece without a rate; each measured segment
        # is a piece of SEGMENT_ROUNDS rounds.
        plan = [(self.warmup_segments * SEGMENT_ROUNDS, None)] + [
            (SEGMENT_ROUNDS, SEGMENT_ROUNDS)
        ] * self.measured_segments
        try:
            for rounds, work in plan:
                began = perf_counter()
                run(rounds, checkpoint_every=CHECKPOINT_EVERY, checkpoint_path=path)
                op.pieces.append(perf_counter() - began)
                op.work.append(work)
        except Exception as exc:  # one failed op, reported, not fatal
            op.fail(f"stream run: {exc!r}")
            op.outputs.append({"error": repr(exc)})
            return op
        result = session.result()
        op.outputs.append(
            {
                **result.cost.summary(),
                "rounds": result.rounds,
                "offered": result.offered,
                "admitted": result.admitted,
                "rejected": result.rejected,
                "checkpoints": result.checkpoints_written,
            }
        )
        counters = session.registry.snapshot()["counters"]
        if trace is not None:
            trace.count("streaming.ingest.offered", result.offered)
            trace.count("streaming.ingest.rejected", result.rejected)
            for name in (
                "rounds_executed",
                "rounds_fast_forwarded",
                "order_cache_hits",
                "order_cache_misses",
            ):
                trace.count(f"simulation.engine.{name}", counters[f"engine.{name}"])
        try:
            saved_round = StreamCheckpoint.load(path).round
        except ValueError as exc:  # CheckpointError: torn or edited file
            op.fail(f"last checkpoint: {exc!r}")
            saved_round = session.last_checkpoint_round
        op.checks.append(
            lambda: _check_stream(
                result, counters, session.last_checkpoint_round, saved_round
            )
        )
        return op


def _check_stream(result, counters, last_round, saved_round) -> str | None:
    if result.offered != result.admitted + result.rejected:
        return (
            f"offered {result.offered} != admitted {result.admitted} "
            f"+ rejected {result.rejected}"
        )
    if counters["engine.rounds_executed"] != result.rounds_executed:
        return "engine.rounds_executed counter disagrees with the session"
    if saved_round != last_round or saved_round <= 0:
        return f"checkpoint file holds round {saved_round}"
    return None


# -------------------------------------------------------------- offline

OFFLINE_RESOURCES = 2
OFFLINE_MAX_STATES = 150_000
#: Colours with delay bound 4 (of 3) in each run of 8 consecutive cells:
#: the Binomial(3, 1/2) shares a uniform bound pick gives on average.
BOUND4_STRATA = (0, 1, 1, 1, 2, 2, 2, 3)


class OfflineFamily:
    """``optimal_offline(inst, 2, max_states=150_000)`` (RDS) on EXP-P
    mini-grid cells ``random_general(3, 2, H, rate=0.4,
    bound_choices=(2, 4))``.  One op solves every cell once.

    A cell's solve time depends most on how many of its colours drew
    delay bound 4, so the cells are stratified on that count: cell ``i``
    is the first cell of its seed sequence with ``BOUND4_STRATA[i % 8]``
    such colours.  Every seed then gets the same mix, and the seed moves
    only the arrivals.
    """

    name = "offline"

    def __init__(self, cells: int, horizon: int) -> None:
        self.cells = cells
        self.horizon = horizon

    def _cell(self, seed: int, i: int):
        for attempt in range(1000):
            instance = random_general(
                3,
                2,
                self.horizon,
                seed=derive(seed, "offline", i, attempt),
                rate=0.4,
                bound_choices=(2, 4),
            )
            bounds = instance.spec.delay_bounds.values()
            if sum(bound == 4 for bound in bounds) == BOUND4_STRATA[i % 8]:
                return instance
        raise RuntimeError(f"no cell {i} in its stratum after 1000 draws")

    def prepare(self, seed: int) -> list:
        return [self._cell(seed, i) for i in range(self.cells)]

    def run(self, instances: list, workdir: Path, trace=None) -> OpResult:
        op = OpResult(attempted=len(instances))
        solve = optimal_offline
        if trace is not None:
            solve = trace.wrap("offline.optimal", optimal_offline)
        results = []
        for instance in instances:
            began = perf_counter()
            try:
                result = solve(
                    instance, OFFLINE_RESOURCES, max_states=OFFLINE_MAX_STATES
                )
            except Exception as exc:  # SearchSpaceExceeded included
                op.pieces.append(perf_counter() - began)
                op.work.append(None)
                op.fail(f"solve {instance.name}: {exc!r}")
                op.outputs.append({"error": repr(exc)})
                results.append(None)
                continue
            op.pieces.append(perf_counter() - began)
            op.work.append(None)
            results.append(result)
            op.outputs.append(
                {
                    "opt": result.cost,
                    "warm_start": result.warm_start_cost,
                    "nodes": result.nodes_expanded,
                }
            )
        if trace is not None:
            for result in filter(None, results):
                trace.count("offline.optimal.nodes_expanded", result.nodes_expanded)
                for source in PRUNE_SOURCES:
                    trace.count(
                        f"offline.optimal.pruned.{source}",
                        result.bound_source_histogram.get(source, 0),
                    )
        op.checks.append(lambda: _check_offline(instances, results))
        return op


def _check_offline(instances, results) -> str | None:
    for instance, result in zip(instances, results):
        if result is None:
            continue
        floor = combined_lower_bound(instance, OFFLINE_RESOURCES)
        if not floor <= result.cost <= result.warm_start_cost:
            return (
                f"{instance.name}: lower bound {floor} <= OPT {result.cost} "
                f"<= warm start {result.warm_start_cost} fails"
            )
        if result.breakdown.total != result.cost:
            return f"{instance.name}: witness costs {result.breakdown.total}"
    return None


# --------------------------------------------------------------- search

SEARCH_RESTARTS = 4
SEARCH_HORIZON = 128


class SearchFamily:
    """Serial ``search_adversary(DeltaLRUEDF, SearchConfig(iterations,
    restarts=4, horizon=128, seed))``.  One op runs ``searches`` searches,
    each with its own derived seed."""

    name = "search"

    def __init__(self, searches: int, iterations: int) -> None:
        self.searches = searches
        self.iterations = iterations

    def prepare(self, seed: int) -> list:
        return [
            SearchConfig(
                iterations=self.iterations,
                restarts=SEARCH_RESTARTS,
                horizon=SEARCH_HORIZON,
                seed=derive(seed, "search", i),
            )
            for i in range(self.searches)
        ]

    def run(self, configs: list, workdir: Path, trace=None) -> OpResult:
        op = OpResult(attempted=len(configs))
        search = search_adversary
        if trace is not None:
            search = trace.wrap("analysis.adversary_search", search_adversary)
        results = []
        for config in configs:
            began = perf_counter()
            try:
                result = search(DeltaLRUEDF, config)
            except Exception as exc:
                op.pieces.append(perf_counter() - began)
                op.work.append(0)
                op.fail(f"search seed {config.seed}: {exc!r}")
                op.outputs.append({"error": repr(exc)})
                continue
            op.pieces.append(perf_counter() - began)
            op.work.append(result.evaluations)
            results.append((config, result))
            op.outputs.append(
                {
                    "best_ratio": result.best_ratio,
                    "evaluations": result.evaluations,
                    "cache_hits": result.score_cache_hits,
                }
            )
        if trace is not None:
            for _, result in results:
                trace.count("analysis.adversary_search.evaluations", result.evaluations)
                trace.count("analysis.adversary_search.cache_hits", result.score_cache_hits)
                trace.count(
                    "analysis.adversary_search.cache_misses", result.score_cache_misses
                )
        op.checks.append(lambda: _check_search(results))
        return op


def _check_search(results) -> str | None:
    """The best ratio must be the score of the returned instance."""
    for config, result in results:
        instance = result.best_instance
        if len(instance.sequence) == 0:
            expected = 0.0
        else:
            online = simulate(
                instance, DeltaLRUEDF(), config.num_resources, record="costs"
            ).total_cost
            offline = best_offline_heuristic(
                instance,
                config.offline_resources,
                windows=tuple(config.offline_windows),
                hysteresis_values=tuple(config.offline_hysteresis),
            ).cost
            expected = online / offline if offline > 0 else float(online)
        if result.best_ratio != expected:
            return (
                f"search seed {config.seed}: best_ratio {result.best_ratio} "
                f"but its instance scores {expected}"
            )
    return None


# ------------------------------------------------------------- pipeline

PIPELINE_RESOURCES = 16


class PipelineFamily:
    """``run_pipeline(inst, 16)`` then ``.verify(strict=True)`` on
    ``poisson_general`` instances of three kinds: heavy-tail (VarBatch),
    Poisson (VarBatch) and non-power-of-two bounds (ArbitraryBounds),
    ``per_kind`` instances of each."""

    name = "pipeline"

    #: ``(colours, poisson_general keywords)`` of each instance kind.
    KINDS = (
        (16, {"rates": 0.15, "bound_choices": (4, 8, 16), "heavy_tail": True}),
        (16, {"rates": 0.25, "bound_choices": (4, 8, 16)}),
        (12, {"rates": 0.2, "bound_choices": (6, 12, 24)}),
    )

    def __init__(self, per_kind: int, horizon: int) -> None:
        self.per_kind = per_kind
        self.horizon = horizon

    def prepare(self, seed: int) -> list:
        return [
            poisson_general(
                colours,
                4,
                self.horizon,
                seed=derive(seed, "pipeline", kind, i),
                **keywords,
            )
            for i in range(self.per_kind)
            for kind, (colours, keywords) in enumerate(self.KINDS)
        ]

    def run(self, instances: list, workdir: Path, trace=None) -> OpResult:
        op = OpResult(attempted=len(instances))
        pipeline = run_pipeline
        if trace is not None:
            pipeline = trace.wrap("reductions.pipeline.run", run_pipeline)
        for instance in instances:
            began = perf_counter()
            try:
                result = pipeline(instance, PIPELINE_RESOURCES)
                report = result.verify(strict=True)
            except Exception as exc:
                op.pieces.append(perf_counter() - began)
                op.work.append(0)
                op.fail(f"pipeline {instance.name}: {exc!r}")
                op.outputs.append({"error": repr(exc)})
                continue
            op.pieces.append(perf_counter() - began)
            op.work.append(len(instance.sequence))
            if not report.ok:
                op.fail(f"pipeline {instance.name}: {report.violations[:3]}")
            op.outputs.append(
                {
                    **result.cost.summary(),
                    "stages": list(result.stages),
                    "executed": report.executed,
                    "dropped": report.dropped,
                }
            )
        return op
