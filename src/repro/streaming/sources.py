"""Arrival sources: per-round arrival counts on demand.

An :class:`ArrivalSource` is the streaming replacement for a materialized
:class:`~repro.core.instance.RequestSequence`: the session pulls round
``k``'s batch when (and only when) it is about to simulate round ``k``,
so memory stays bounded by pending work instead of total work.

A batch is an :class:`~repro.core.instance.ArrivalCounts`: the round's
``(color, count)`` pairs.  In a batched workload the jobs of one (round,
color) pair share arrival, deadline and delay bound, so the count is a
complete description — no :class:`~repro.core.job.Job` is ever minted on
the streaming path.  ``len()`` of a batch is its number of jobs.

Contract
--------
* ``batch(k)`` must be a **pure function of** ``k`` — no draw cursor, no
  consumed-iterator state.  That is what makes checkpoints trivial
  (:meth:`ArrivalSource.state_dict` is empty for every source here) and
  resumed runs bit-identical: the session simply re-asks for the rounds
  after the checkpoint.  Sources that cannot avoid mutable state must
  round-trip it through ``state_dict``/``load_state``.
* Finite sources raise :class:`IndexError` past their horizon — the same
  contract as :meth:`RequestSequence.arrival_counts
  <repro.core.instance.RequestSequence.arrival_counts>`, which
  :class:`InstanceSource` preserves by delegation.
* For batched specs the session queries only integral multiples of some
  delay bound (the only rounds a batched workload may populate); sources
  must return an empty batch for rounds they leave empty, never ``None``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Iterable, Sequence

from repro.core.instance import ArrivalCounts, Instance, ProblemSpec


class ArrivalSource(ABC):
    """Per-round arrival counts for one problem spec (see module contract)."""

    #: The problem the stream belongs to; engines validate against it.
    spec: ProblemSpec

    @abstractmethod
    def horizon(self) -> int | None:
        """Total rounds available, or ``None`` for an unbounded source."""

    @abstractmethod
    def batch(self, round_index: int) -> ArrivalCounts:
        """``(color, count)`` pairs arriving in ``round_index`` (pure
        function of the round)."""

    def state_dict(self) -> dict:
        """Mutable source state for checkpoints (default: none)."""
        return {}

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output (default: must be empty)."""
        if state:
            raise ValueError(
                f"source {type(self).__name__} has no load_state override "
                f"but the checkpoint carries state keys {sorted(state)}"
            )

    def describe(self) -> str:
        bound = self.horizon()
        extent = "unbounded" if bound is None else f"horizon {bound}"
        return f"{type(self).__name__} ({extent})"


class InstanceSource(ArrivalSource):
    """Serve a finite, materialized instance as a stream.

    Useful for replaying existing workload generators through the
    streaming path and for the bit-identity property tests (stream vs.
    one-shot ``simulate`` on the same instance).  Preserves the
    ``arrivals`` horizon contract: querying a round at or past the
    materialized horizon raises :class:`IndexError`.
    """

    def __init__(self, instance: Instance) -> None:
        if not instance.spec.batch_mode.is_batched:
            raise ValueError(
                "streaming consumes batched instances; wrap general "
                "instances with the VarBatch reduction first"
            )
        self.instance = instance
        self.spec = instance.spec

    def horizon(self) -> int | None:
        return self.instance.horizon

    def batch(self, round_index: int) -> ArrivalCounts:
        return self.instance.sequence.arrival_counts(round_index)

    def describe(self) -> str:
        return f"instance {self.instance.name or 'unnamed'}"


class GeneratorSource(ArrivalSource):
    """Adapt a ``(round) -> [(color, count), ...]`` law to a source.

    ``counts`` must be a pure function of the round (the module
    contract), so two pulls of the same round are identical and a
    resumed run sees the very same arrivals.
    """

    def __init__(
        self,
        spec: ProblemSpec,
        counts: Callable[[int], Iterable[tuple[int, int]]],
        *,
        horizon: int | None = None,
        name: str = "",
    ) -> None:
        if not spec.batch_mode.is_batched:
            raise ValueError("GeneratorSource requires a batched spec")
        if horizon is not None and horizon < 1:
            raise ValueError(f"horizon must be at least 1, got {horizon}")
        self.spec = spec
        self._counts = counts
        self._horizon = horizon
        self.name = name

    def horizon(self) -> int | None:
        return self._horizon

    def batch(self, round_index: int) -> ArrivalCounts:
        if round_index < 0 or (
            self._horizon is not None and round_index >= self._horizon
        ):
            raise IndexError(
                f"round {round_index} is outside the source horizon "
                f"[0, {self._horizon})"
            )
        return ArrivalCounts(self._counts(round_index))

    def describe(self) -> str:
        label = self.name or "generator"
        bound = self._horizon
        extent = "unbounded" if bound is None else f"horizon {bound}"
        return f"{label} ({extent})"


def rate_limited_source(
    num_colors: int,
    delta: int,
    *,
    seed: int,
    load: float = 0.5,
    bound_choices: Sequence[int] = (8, 16, 32, 64),
    horizon: int | None = None,
) -> GeneratorSource:
    """Unbounded rate-limited workload as a source (splitmix-pure draws).

    The streaming analog of :func:`repro.workloads.random_batched.
    random_rate_limited`: at every multiple of ``D_ℓ``, color ℓ receives
    ``Binomial(D_ℓ, load)`` jobs, computed as a pure function of
    ``(seed, round, color)`` — no numpy, no cursor, O(1) memory.
    """
    from repro.workloads.streaming import rate_limited_stream

    stream = rate_limited_stream(
        num_colors,
        delta,
        seed=seed,
        load=load,
        bound_choices=bound_choices,
    )
    return GeneratorSource(
        stream.spec,
        stream.batch_counts,
        horizon=horizon,
        name=f"rate-limited-stream(seed={seed}, load={load})",
    )
