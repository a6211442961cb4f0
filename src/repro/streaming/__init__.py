"""Streaming ingestion: unbounded arrival sources, bounded memory, checkpoints.

The engines in :mod:`repro.simulation` were built around a fully
materialized :class:`~repro.core.instance.Instance`, which caps run
length at memory.  This package removes the cap:

* :mod:`~repro.streaming.sources` — the :class:`ArrivalSource` protocol
  (per-round ``(color, count)`` arrival batches on demand) with adapters
  for finite instances and pure-function workload generators.
* :mod:`~repro.streaming.ingest` — bounded admission control in front of
  the engine: per-color queue caps (``min(count, cap)``), rejection, and
  rejection-rate / queue-depth metrics through the ``repro.obs``
  registry (and thus the ops service's ``/metrics``).
* :mod:`~repro.streaming.checkpoint` — durable snapshots of engine +
  scheme + ingestion state; a resumed run is bit-identical to an
  uninterrupted one.
* :mod:`~repro.streaming.session` — :class:`StreamSession`, the driver:
  it runs any engine backend over the source in segments with
  O(colors + segment) memory and doubles checkpointing as the
  segmentation mechanism.
"""

from repro.streaming.checkpoint import StreamCheckpoint
from repro.streaming.ingest import AdmissionPolicy, StreamIngest
from repro.streaming.session import StreamResult, StreamSession
from repro.streaming.sources import (
    ArrivalSource,
    GeneratorSource,
    InstanceSource,
    rate_limited_source,
)

__all__ = [
    "AdmissionPolicy",
    "ArrivalSource",
    "GeneratorSource",
    "InstanceSource",
    "StreamCheckpoint",
    "StreamIngest",
    "StreamResult",
    "StreamSession",
    "rate_limited_source",
]
