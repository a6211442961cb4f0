"""Problem instances in the ``[reconfig | drop | delay | batch]`` notation.

An :class:`Instance` bundles a :class:`ProblemSpec` (the cost parameters,
per-color delay bounds, and batch discipline) with a
:class:`RequestSequence` (the jobs).  Construction validates that the
sequence actually conforms to the declared batch mode:

* ``GENERAL``      — ``[Δ | 1 | D_ℓ | 1]``: arbitrary arrival rounds.
* ``BATCHED``      — ``[Δ | 1 | D_ℓ | D_ℓ]``: color-ℓ jobs arrive only at
  integral multiples of ``D_ℓ``.
* ``RATE_LIMITED`` — batched and additionally at most ``D_ℓ`` color-ℓ jobs
  per arrival round.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

from repro.core.cost import CostModel
from repro.core.job import Job, jobs_by_round
from repro.core.rounds import is_multiple, is_power_of_two


class BatchMode(enum.Enum):
    """The ``batch`` field of the ``[· | · | · | batch]`` notation."""

    GENERAL = "general"
    BATCHED = "batched"
    RATE_LIMITED = "rate_limited"

    @property
    def is_batched(self) -> bool:
        return self is not BatchMode.GENERAL


@dataclass(frozen=True)
class ProblemSpec:
    """Static problem parameters.

    Attributes
    ----------
    delay_bounds:
        Mapping color -> delay bound ``D_ℓ``.  Every job color in the
        instance must appear here with a matching bound.
    cost:
        The ``Δ`` / drop-cost pair.
    batch_mode:
        Declared batch discipline; validated against the sequence.
    require_power_of_two:
        When true (the default for the Section 3/4 problems) every delay
        bound must be a power of two.
    """

    delay_bounds: Mapping[int, int]
    cost: CostModel
    batch_mode: BatchMode = BatchMode.GENERAL
    require_power_of_two: bool = False

    def __post_init__(self) -> None:
        if not self.delay_bounds:
            raise ValueError("spec must define at least one color")
        for color, bound in self.delay_bounds.items():
            if color < 0:
                raise ValueError(f"colors must be nonnegative, got {color}")
            if bound <= 0:
                raise ValueError(
                    f"delay bound for color {color} must be positive, got {bound}"
                )
            if self.require_power_of_two and not is_power_of_two(bound):
                raise ValueError(
                    f"delay bound for color {color} must be a power of two, "
                    f"got {bound}"
                )
        # Freeze the mapping so the spec is hashable-by-value in practice.
        object.__setattr__(self, "delay_bounds", dict(self.delay_bounds))

    @property
    def reconfig_cost(self) -> int:
        """``Δ``, the per-resource reconfiguration cost."""
        return self.cost.reconfig_cost

    @property
    def colors(self) -> tuple[int, ...]:
        """All declared colors in ascending (consistent) order."""
        return tuple(sorted(self.delay_bounds))

    def delay_bound(self, color: int) -> int:
        try:
            return self.delay_bounds[color]
        except KeyError:
            raise KeyError(f"color {color} is not declared in the spec") from None

    def with_batch_mode(self, mode: BatchMode) -> "ProblemSpec":
        return ProblemSpec(
            self.delay_bounds, self.cost, mode, self.require_power_of_two
        )

    def with_delay_bounds(self, bounds: Mapping[int, int]) -> "ProblemSpec":
        return ProblemSpec(
            bounds, self.cost, self.batch_mode, self.require_power_of_two
        )


class ArrivalCounts:
    """One round's arrivals as per-color job counts.

    In a batched instance the jobs of one (round, color) pair share
    arrival, deadline and delay bound, so their number describes them
    completely.  Iterating yields ``(color, count)`` pairs with positive
    counts (a color listed twice is merged, zero counts are dropped);
    ``len()`` is the number of *jobs*, so a batch sizes like the job list
    it stands for.  ``get(color, 0)`` looks one color up, dict-style.
    Treat instances as immutable.
    """

    __slots__ = ("_counts", "_jobs", "get")

    def __init__(self, pairs: Iterable[tuple[int, int]] = ()) -> None:
        counts: dict[int, int] = {}
        for color, count in pairs:
            if count < 0:
                raise ValueError(
                    f"color {color} has a negative arrival count {count}"
                )
            if count:
                counts[color] = counts.get(color, 0) + count
        self._counts = counts
        self._jobs = sum(counts.values())
        # The engines look a color up once per boundary: bind the dict's
        # own (C-level) lookup instead of wrapping it in a method.
        self.get = counts.get

    @classmethod
    def _trusted(cls, counts: dict[int, int], jobs: int) -> "ArrivalCounts":
        """Wrap an already-checked color -> positive count mapping."""
        batch = cls.__new__(cls)
        batch._counts = counts
        batch._jobs = jobs
        batch.get = counts.get
        return batch

    def __len__(self) -> int:
        return self._jobs

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._counts.items())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ArrivalCounts):
            return self._counts == other._counts
        return NotImplemented

    def __repr__(self) -> str:
        return f"ArrivalCounts({sorted(self._counts.items())})"


_NO_ARRIVALS = ArrivalCounts()


class RequestSequence:
    """An ordered multiset of jobs, indexable by arrival round.

    The *i*-th request of the paper is the (possibly empty) set of jobs
    arriving in round *i*.  The horizon is the number of rounds the
    simulation must run; it always extends past the last deadline so that
    every job is either executed or dropped by the end of a run.

    A sequence is built either from :class:`Job` objects or, for batched
    workloads, from per-round arrival counts: ``counts`` maps a round to
    its ``(color, count)`` pairs (or an :class:`ArrivalCounts`).  A
    count-based sequence carries no job objects — :attr:`jobs`,
    iteration, :meth:`arrivals` and the job-list copies
    (:meth:`restricted_to`, :meth:`with_horizon`) raise
    :class:`TypeError` — and needs an explicit horizon; its deadlines are
    checked by :class:`Instance`, which knows the delay bounds.  Both
    kinds answer :meth:`arrival_counts`, which is all the batched engines
    read.
    """

    def __init__(
        self,
        jobs: Iterable[Job] = (),
        horizon: int | None = None,
        *,
        open_horizon: bool = False,
        counts: Mapping[int, Iterable[tuple[int, int]]] | None = None,
    ) -> None:
        self._open_horizon = bool(open_horizon)
        if counts is not None:
            self._init_counts(jobs, horizon, counts)
            return
        # One sort: group in Job order, then read the sorted tuple back
        # off the groups (rounds ascend in insertion order).
        self._by_round: dict[int, list[Job]] | None = jobs_by_round(jobs)
        self._jobs: tuple[Job, ...] | None = tuple(
            chain.from_iterable(self._by_round.values())
        )
        ids = {job.jid for job in self._jobs}
        if len(ids) != len(self._jobs):
            raise ValueError("job ids within a request sequence must be unique")
        self._counts: dict[int, ArrivalCounts] | None = None
        self._size = len(self._jobs)
        last_deadline = max((job.deadline for job in self._jobs), default=0)
        # The drop phase of round `last_deadline` is the final event that can
        # touch a job, so the minimal safe horizon is last_deadline + 1.
        # Streaming *segments* (``open_horizon=True``) are windows of a
        # longer run: jobs arriving near the window's end legitimately
        # carry deadlines past it (their drop round belongs to the next
        # segment), so the deadline check is waived there.
        min_horizon = last_deadline + 1 if self._jobs else 1
        self._horizon = min_horizon if horizon is None else horizon
        if self._horizon < 1:
            raise ValueError(f"horizon must be at least 1, got {self._horizon}")
        if not self._open_horizon and self._horizon < min_horizon:
            raise ValueError(
                f"horizon {self._horizon} ends before the last deadline; "
                f"need at least {min_horizon}"
            )
        if self._jobs and self._jobs[-1].arrival >= self._horizon:
            raise ValueError(
                "jobs must arrive within the horizon (arrival < horizon)"
            )

    def _init_counts(self, jobs, horizon, counts) -> None:
        if jobs != ():
            raise ValueError("pass jobs or counts, not both")
        if horizon is None:
            raise ValueError("a count-based sequence needs an explicit horizon")
        if horizon < 1:
            raise ValueError(f"horizon must be at least 1, got {horizon}")
        by_round: dict[int, ArrivalCounts] = {}
        for round_index in sorted(counts):
            batch = counts[round_index]
            if not isinstance(batch, ArrivalCounts):
                batch = ArrivalCounts(batch)
            if not batch:
                continue
            if not 0 <= round_index < horizon:
                raise ValueError(
                    "jobs must arrive within the horizon (0 <= arrival < "
                    f"horizon); round {round_index} is outside [0, {horizon})"
                )
            by_round[round_index] = batch
        self._jobs = None
        self._by_round = None
        self._counts = by_round
        self._size = sum(len(batch) for batch in by_round.values())
        self._horizon = horizon

    @property
    def is_count_based(self) -> bool:
        """True when the sequence was built from arrival counts."""
        return self._jobs is None

    def _require_jobs(self) -> tuple[Job, ...]:
        if self._jobs is None:
            raise TypeError(
                "this request sequence was built from arrival counts and "
                "carries no Job objects; build it from jobs for "
                "record='full' runs and job-level analyses"
            )
        return self._jobs

    @property
    def jobs(self) -> tuple[Job, ...]:
        return self._require_jobs()

    @property
    def horizon(self) -> int:
        """Number of rounds to simulate (rounds ``0 .. horizon - 1``)."""
        return self._horizon

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Job]:
        return iter(self._require_jobs())

    @property
    def open_horizon(self) -> bool:
        """True for streaming segment views (deadlines may exceed horizon)."""
        return self._open_horizon

    def _outside(self, round_index: int) -> IndexError:
        return IndexError(
            f"round {round_index} is outside the materialized horizon "
            f"[0, {self._horizon}); the request sequence has no such round"
        )

    def arrivals(self, round_index: int) -> Sequence[Job]:
        """Jobs arriving in ``round_index`` (the round's request).

        Contract: ``round_index`` must lie inside the materialized
        horizon, ``0 <= round_index < horizon``.  Out-of-range rounds
        raise :class:`IndexError` rather than silently returning an
        empty batch — a caller iterating past the horizon is reading
        rounds this sequence never materialized (the streaming layer is
        the API for unbounded runs), and the silent ``()`` used to turn
        that bug into quietly-wrong costs.  Streaming adapters preserve
        this contract (:class:`repro.streaming.sources.InstanceSource`).
        """
        if round_index < 0 or round_index >= self._horizon:
            raise self._outside(round_index)
        if self._by_round is None:
            self._require_jobs()
        return self._by_round.get(round_index, ())

    def arrival_counts(self, round_index: int) -> ArrivalCounts:
        """Per-color job counts arriving in ``round_index``.

        Same horizon contract as :meth:`arrivals`; answered by job- and
        count-based sequences alike.
        """
        if round_index < 0 or round_index >= self._horizon:
            raise self._outside(round_index)
        counts = self._counts
        if counts is None:
            counts = self.counts_by_round()
        return counts.get(round_index, _NO_ARRIVALS)

    def counts_by_round(self) -> Mapping[int, ArrivalCounts]:
        """Every non-empty round's :class:`ArrivalCounts`, rounds ascending
        (derived once from the jobs for job-based sequences)."""
        if self._counts is None:
            counts: dict[int, ArrivalCounts] = {}
            for round_index, jobs in self._by_round.items():
                per_color: dict[int, int] = {}
                for job in jobs:
                    per_color[job.color] = per_color.get(job.color, 0) + 1
                counts[round_index] = ArrivalCounts._trusted(per_color, len(jobs))
            self._counts = counts
        return self._counts

    def arrival_rounds(self) -> tuple[int, ...]:
        """Rounds with at least one arrival, ascending."""
        return tuple(self.counts_by_round())

    @property
    def colors(self) -> tuple[int, ...]:
        """Distinct job colors, ascending."""
        return tuple(sorted(self.count_by_color()))

    def count_by_color(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for batch in self.counts_by_round().values():
            for color, count in batch:
                counts[color] = counts.get(color, 0) + count
        return counts

    def restricted_to(self, colors: Iterable[int]) -> "RequestSequence":
        """Subsequence containing only jobs of the given colors."""
        keep = set(colors)
        return RequestSequence(
            [job for job in self._require_jobs() if job.color in keep],
            self._horizon,
            open_horizon=self._open_horizon,
        )

    def with_horizon(self, horizon: int) -> "RequestSequence":
        return RequestSequence(
            self._require_jobs(), horizon, open_horizon=self._open_horizon
        )


@dataclass(frozen=True)
class Instance:
    """A validated (spec, sequence) pair."""

    spec: ProblemSpec
    sequence: RequestSequence
    name: str = ""

    def __post_init__(self) -> None:
        bounds = self.spec.delay_bounds
        if self.sequence.is_count_based:
            if not self.spec.batch_mode.is_batched:
                raise ValueError(
                    "count-based request sequences describe batched "
                    "instances only; build general instances from jobs"
                )
        else:
            for job in self.sequence:
                bound = bounds.get(job.color)
                if bound is None:
                    raise ValueError(
                        f"job {job.jid} has undeclared color {job.color}"
                    )
                if job.delay_bound != bound:
                    raise ValueError(
                        f"job {job.jid} of color {job.color} has delay bound "
                        f"{job.delay_bound}, spec declares {bound}"
                    )
        self._validate_batch_mode()

    def _validate_batch_mode(self) -> None:
        """Check the batch discipline once per (round, color) batch."""
        mode = self.spec.batch_mode
        if mode is BatchMode.GENERAL:
            return
        bounds = self.spec.delay_bounds
        sequence = self.sequence
        rate_limited = mode is BatchMode.RATE_LIMITED
        # Job-based sequences checked their deadlines on construction;
        # count-based ones need the bounds, which only the spec knows.
        horizon = sequence.horizon
        check_deadline = sequence.is_count_based and not sequence.open_horizon
        for arrival, batch in sequence.counts_by_round().items():
            for color, count in batch:
                bound = bounds.get(color)
                if bound is None:
                    raise ValueError(
                        f"{count} job(s) arriving at round {arrival} have "
                        f"undeclared color {color}"
                    )
                if not is_multiple(arrival, bound):
                    raise ValueError(
                        f"batched instance: {count} job(s) of color {color} "
                        f"arrive at round {arrival}, not a multiple of {bound}"
                    )
                if rate_limited and count > bound:
                    raise ValueError(
                        f"rate-limited instance: {count} color-{color} jobs "
                        f"arrive at round {arrival}, exceeding D_ℓ = {bound}"
                    )
                if check_deadline and arrival + bound >= horizon:
                    raise ValueError(
                        f"horizon {horizon} ends before the deadline "
                        f"{arrival + bound} of color {color}'s round-"
                        f"{arrival} batch; need at least {arrival + bound + 1}"
                    )

    @property
    def horizon(self) -> int:
        return self.sequence.horizon

    @property
    def cost_model(self) -> CostModel:
        return self.spec.cost

    @property
    def reconfig_cost(self) -> int:
        return self.spec.reconfig_cost

    def describe(self) -> str:
        """Short human-readable description for reports."""
        mode = {
            BatchMode.GENERAL: "1",
            BatchMode.BATCHED: "D_l",
            BatchMode.RATE_LIMITED: "D_l (rate-limited)",
        }[self.spec.batch_mode]
        label = self.name or "instance"
        return (
            f"{label}: [Δ={self.spec.reconfig_cost} | {self.spec.cost.drop_cost} "
            f"| D_l | {mode}] with {len(self.sequence)} jobs, "
            f"{len(self.sequence.colors)} colors, horizon {self.horizon}"
        )


def make_instance(
    jobs: Iterable[Job],
    delay_bounds: Mapping[int, int],
    reconfig_cost: int,
    *,
    batch_mode: BatchMode = BatchMode.GENERAL,
    horizon: int | None = None,
    require_power_of_two: bool = False,
    name: str = "",
) -> Instance:
    """Convenience constructor used throughout tests and workloads."""
    spec = ProblemSpec(
        delay_bounds,
        CostModel(reconfig_cost),
        batch_mode,
        require_power_of_two,
    )
    return Instance(spec, RequestSequence(jobs, horizon), name)
